"""Per-layer tracing of eqbundle from outside the package.

The tracer wraps, for the length of one traced job, every public function
of the package's modules in every namespace that holds it (names brought
in by ``from .x import y`` live in several modules), the numpy.linalg and
scipy entry points the package calls, and the callables of every
SystemSpec built while tracing is on.  Nothing in the package changes.

Public module functions become spans (name, start, end, parent span,
job).  The high-frequency leaves (f, h, the derivative callables, SVD,
lstsq, eigvals, the assignment solver) are counted and timed without a
span record, to keep the overhead down.  Self time, a span's duration
minus the part covered by its children, is accumulated per layer as the
spans close.  Spans stay in memory and are written out at the end.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import sys
import time

LAYERS = (
    "systems",
    "expr",
    "linalg",
    "audit",
    "finder",
    "transport",
    "monodromy",
    "config",
    "cli",
    "reports",
)

# the CLI dispatcher: a span opened directly under it is the command's
# entry point, and its whole duration is that layer's entry time
ENTRY = "cli.run_config"
ENTRY_LAYERS = ("audit", "finder", "transport", "monodromy")

# layer groups reported as self-time shares of traced job time
SHARE_GROUPS = {
    "systems": ("systems",),
    "expr": ("expr",),
    "linalg": ("linalg",),
    "audit": ("audit",),
    "finder": ("finder",),
    "transport": ("transport",),
    "monodromy": ("monodromy",),
    "frontend": ("config", "cli", "reports"),
    "harness": ("bench",),
}

LEAVES = (
    ("numpy.linalg", "svd", "linalg.svd"),
    ("numpy.linalg", "lstsq", "linalg.lstsq"),
    ("numpy.linalg", "eigvals", "linalg.eigvals"),
    ("scipy.optimize", "linear_sum_assignment", "monodromy.assignment"),
)

SYSTEM_CALLABLES = (
    ("f", "systems.f"),
    ("h", "systems.h"),
    ("jac_x_fn", "systems.jac"),
    ("jac_lambda_fn", "systems.jac"),
    ("jac_h_fn", "systems.jac"),
    ("hess_h_fn", "systems.jac"),
)

# (span, enclosing span, counter): calls of the first made while the
# second is open
NESTED = (
    ("linalg.solve_least_squares", "finder.newton_on_level_set", "newton_steps"),
    ("linalg.solve_least_squares", "transport.lift_curve", "lift_solves"),
    ("finder.newton_on_level_set", "finder.enumerate_level_points", "enumerate_starts"),
    ("audit.audit_point", "finder.enumerate_level_points", "enumerate_audits"),
    ("finder.newton_on_level_set", "monodromy.eigen_along_fiber_loop", "refine_newton"),
)


def _len(value) -> int:
    try:
        return len(value)
    except TypeError:
        return 0


def _post_enumerate(tracer, result, args, kwargs):
    tracer.tally["points_kept"] += _len(result)


def _post_trace_fiber(tracer, result, args, kwargs):
    tracer.tally["trace_points"] += _len(getattr(result, "points", ()))


def _post_lift(tracer, result, args, kwargs):
    tracer.tally["lift_steps"] += int(getattr(result, "steps_taken", 0))


def _post_track(tracer, result, args, kwargs):
    tracer.tally["samples_used"] += int(getattr(result, "samples_used", 0))
    matrices = args[0] if args else kwargs.get("matrices", ())
    tracer.tally["samples_input"] += _len(matrices)


def _post_canonical_json(tracer, result, args, kwargs):
    tracer.tally["bytes_out"] += len(result.encode()) if isinstance(result, str) else 0


POST = {
    "finder.enumerate_level_points": _post_enumerate,
    "finder.trace_fiber": _post_trace_fiber,
    "transport.lift_curve": _post_lift,
    "monodromy.track_matrix_loop": _post_track,
    "reports.canonical_json": _post_canonical_json,
}


class Tracer:
    """Counts, busy time, failures and self time per traced name.

    Build one per run after the package is imported; wrap each traced job
    in ``with tracer.job(index):``.
    """

    def __init__(self):
        self.names: list[str] = []
        self.ids: dict[str, int] = {}
        self.calls: list[int] = []
        self.busy: list[float] = []
        self.depth: list[int] = []
        self.failed: dict[tuple, int] = {}
        self.self_time: dict[str, float] = {}
        self.entry_time: dict[str, float] = {}
        self.tally = {
            key: 0
            for key in (
                "points_kept", "trace_points", "lift_steps", "samples_used",
                "samples_input", "bytes_out",
            )
        }
        for _, _, counter in NESTED:
            self.tally[counter] = 0
        self.spans: list[tuple] = []
        self.job_time = 0.0
        self._stack: list[list] = []
        self._next_span = 1
        self._job = -1
        self._errors = self._error_classes()
        self._patches = self._plan_patches()

    # -- bookkeeping -------------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self.ids:
            self.ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.busy.append(0.0)
            self.depth.append(0)
        return self.ids[name]

    @staticmethod
    def _error_classes():
        errors = importlib.import_module("eqbundle.errors")
        return tuple(
            (getattr(errors, cls), tag)
            for cls, tag in (
                ("InputError", "input"),
                ("ConvergenceError", "convergence"),
                ("DegeneracyError", "degeneracy"),
            )
            if hasattr(errors, cls)
        )

    def _classify(self, exc: BaseException) -> str:
        for cls, tag in self._errors:
            if isinstance(exc, cls):
                return tag
        return "other"

    # -- wrappers ----------------------------------------------------------

    def _span_wrapper(self, fn, name: str):
        nid = self._id(name)
        layer = name.split(".", 1)[0]
        nested = [
            (self._id(outer), counter)
            for inner, outer, counter in NESTED
            if inner == name
        ]
        post = POST.get(name)
        entry = self._id(ENTRY)
        tracer = self
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            for outer, counter in nested:
                if tracer.depth[outer]:
                    tracer.tally[counter] += 1
            parent = stack[-1]
            span_id = tracer._next_span
            tracer._next_span += 1
            frame = [0.0, span_id, nid]
            stack.append(frame)
            tracer.depth[nid] += 1
            error = ""
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                error = tracer._classify(exc)
                key = (nid, error)
                tracer.failed[key] = tracer.failed.get(key, 0) + 1
                raise
            finally:
                end = clock()
                stack.pop()
                tracer.depth[nid] -= 1
                duration = end - start
                parent[0] += duration
                tracer.calls[nid] += 1
                if not tracer.depth[nid]:
                    tracer.busy[nid] += duration
                tracer.self_time[layer] = (
                    tracer.self_time.get(layer, 0.0) + duration - frame[0]
                )
                if parent[2] == entry:
                    tracer.entry_time[layer] = (
                        tracer.entry_time.get(layer, 0.0) + duration
                    )
                tracer.spans.append(
                    (span_id, parent[1], tracer._job, nid, start, end, error)
                )
            if post is not None:
                post(tracer, result, args, kwargs)
            return result

        traced.__wrapped__ = fn
        return traced

    def _leaf_wrapper(self, fn, name: str):
        nid = self._id(name)
        layer = name.split(".", 1)[0]
        tracer = self
        stack = self._stack
        clock = time.perf_counter

        def counted(*args, **kwargs):
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - start
                if stack:
                    stack[-1][0] += duration
                tracer.calls[nid] += 1
                tracer.busy[nid] += duration
                tracer.self_time[layer] = tracer.self_time.get(layer, 0.0) + duration

        counted.__wrapped__ = fn
        counted.bench_counted = True
        return counted

    # -- patch plan ----------------------------------------------------------

    def _plan_patches(self) -> list:
        """(setter, original, wrapper) for every binding of a traced object,
        found by identity across the package's modules."""
        package = importlib.import_module("eqbundle")
        modules = {}
        for layer in LAYERS:
            try:
                modules[layer] = importlib.import_module(f"eqbundle.{layer}")
            except ImportError:
                continue
        namespaces = [package.__dict__] + [
            m.__dict__
            for name, m in sorted(sys.modules.items())
            if name.startswith("eqbundle.") and m is not None
        ]
        targets = []   # (original object, wrapper, extra namespaces)
        for layer, module in modules.items():
            for attr, obj in sorted(vars(module).items()):
                if (
                    attr.startswith("_")
                    or not inspect.isfunction(obj)
                    or obj.__module__ != module.__name__
                ):
                    continue
                targets.append((obj, self._span_wrapper(obj, f"{layer}.{attr}"), []))
        for module_name, attr, name in LEAVES:
            try:
                home = importlib.import_module(module_name)
            except ImportError:
                continue
            obj = getattr(home, attr, None)
            if obj is not None:
                targets.append((obj, self._leaf_wrapper(obj, name), [home.__dict__]))

        patches = []
        for original, wrapper, extra in targets:
            for ns in namespaces + extra:
                for key, value in list(ns.items()):
                    if value is original:
                        setter = functools.partial(ns.__setitem__, key)
                        patches.append((setter, original, wrapper))

        systems = modules.get("systems")
        spec = getattr(systems, "SystemSpec", None)
        if spec is not None:
            original_post_init = spec.__dict__.get("__post_init__")
            if original_post_init is not None:
                wrapped = self._instrumenting_post_init(original_post_init)
                setter = functools.partial(setattr, spec, "__post_init__")
                patches.append((setter, original_post_init, wrapped))
        return patches

    def _instrumenting_post_init(self, original):
        tracer = self

        def post_init(spec):
            original(spec)
            for attr, name in SYSTEM_CALLABLES:
                fn = getattr(spec, attr, None)
                if fn is not None and not getattr(fn, "bench_counted", False):
                    object.__setattr__(spec, attr, tracer._leaf_wrapper(fn, name))

        return post_init

    # -- job scope -----------------------------------------------------------

    def job(self, index: int):
        return _JobScope(self, index)

    def _install(self):
        for setter, _, wrapper in self._patches:
            setter(wrapper)

    def _uninstall(self):
        for setter, original, _ in reversed(self._patches):
            setter(original)

    # -- results -------------------------------------------------------------

    def count(self, name: str) -> int:
        nid = self.ids.get(name)
        return self.calls[nid] if nid is not None else 0

    def busy_s(self, name: str) -> float:
        nid = self.ids.get(name)
        return self.busy[nid] if nid is not None else 0.0

    def failures(self, name: str, tag: str) -> int:
        nid = self.ids.get(name)
        if nid is None:
            return 0
        if tag == "any":
            return sum(v for (i, _), v in self.failed.items() if i == nid)
        return self.failed.get((nid, tag), 0)

    def counts(self) -> dict:
        """Every deterministic integer this tracer has recorded."""
        out = {name: self.calls[i] for i, name in enumerate(self.names) if self.calls[i]}
        for (nid, tag), value in self.failed.items():
            out[f"{self.names[nid]}!{tag}"] = value
        out.update(self.tally)
        return out

    def self_share(self, group: str) -> float:
        if self.job_time <= 0.0:
            return 0.0
        layers = SHARE_GROUPS[group]
        return sum(self.self_time.get(layer, 0.0) for layer in layers) / self.job_time

    def entry_share(self, layer: str) -> float:
        if self.job_time <= 0.0:
            return 0.0
        return self.entry_time.get(layer, 0.0) / self.job_time

    def write_spans(self, path: str) -> None:
        with gzip.open(path, "wt") as handle:
            handle.write("# names\t" + "\t".join(self.names) + "\n")
            handle.write("span\tparent\tjob\tname\tstart\tend\terror\n")
            for span_id, parent, job, nid, start, end, error in self.spans:
                handle.write(
                    f"{span_id}\t{parent}\t{job}\t{self.names[nid]}\t"
                    f"{start:.9f}\t{end:.9f}\t{error}\n"
                )


class _JobScope:
    def __init__(self, tracer: Tracer, index: int):
        self.tracer = tracer
        self.index = index

    def __enter__(self):
        tracer = self.tracer
        tracer._job = self.index
        tracer._stack.append([0.0, 0, -1])
        tracer._install()
        self.start = time.perf_counter()
        return tracer

    def __exit__(self, *exc):
        tracer = self.tracer
        duration = time.perf_counter() - self.start
        tracer._uninstall()
        root = tracer._stack.pop()
        tracer.job_time += duration
        tracer.self_time["bench"] = tracer.self_time.get("bench", 0.0) + duration - root[0]
        return False
