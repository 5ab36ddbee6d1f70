"""Job streams, traced runs and the oracle verdicts of the workload process.

run.py spawns worker.py, which imports ``eqbundle.cli`` first (so the
parent can time interpreter start plus imports) and then runs ``main``.

Modes
-----
probe   run the workload's representative job once and report its time
stream  the timed run: the representative job, then the seeded stream
        until both --seconds have passed and --min-jobs have completed,
        in --segments parts with a pause between parts, then a
        byte-identity replay of the first job of every class
trace   a fixed number of seeded jobs, each run untraced and traced, with
        the envelopes compared byte for byte; then the first jobs again
        under a fresh tracer, whose counts must repeat exactly

Each job is timed as one CLI invocation minus interpreter start:
config_from_dict -> run_config -> build_envelope -> canonical_json.
The last stdout line is one JSON object for the parent.
"""

import argparse
import json
import os
import resource
import sys
import time
import traceback

from eqbundle import cli as eq_cli
from eqbundle import config as eq_config
from eqbundle import reports as eq_reports
from eqbundle.errors import EqBundleError

import jobs
import reference
import tracing

# stop a stream here even short of --min-jobs, so a run ends within the
# parent's deadline on a slow machine
HARD_CAP_S = 120.0
# jobs re-run under a fresh tracer to prove the counts repeat
RECOUNT_JOBS = 3


def run_job(raw: dict):
    """One CLI-shaped job.  Returns (canonical JSON or None, seconds, error)."""
    start = time.perf_counter()
    try:
        config = eq_config.config_from_dict(raw)
        result, _ = eq_cli.run_config(config)
        envelope = eq_reports.build_envelope(
            config.command, config.settings, config.tolerances, result=result
        )
        text = eq_reports.canonical_json(envelope)
    except EqBundleError as exc:
        return None, time.perf_counter() - start, f"{type(exc).__name__}: {exc}"
    except Exception as exc:  # a package bug must not end the stream
        traceback.print_exc(file=sys.stderr)
        return None, time.perf_counter() - start, f"{type(exc).__name__}: {exc}"
    return text, time.perf_counter() - start, None


def verdict(spec: dict, text, error) -> list:
    """Oracle problems of one job; empty when it passed."""
    if error is not None:
        return [f"raised {error}"]
    return jobs.check(spec, json.loads(text))


class Ledger:
    """Outcome of every checked job of the run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list = []

    def record(self, label: str, problems: list) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append({"job": label, "problems": problems[:3]})


def representative(workload: str, output_path: str) -> dict:
    spec = dict(jobs.REPRESENTATIVE[workload])
    spec["raw"] = dict(spec["raw"], output={"path": output_path, "format": "json"})
    return spec


def mode_probe(args, ledger: Ledger) -> dict:
    """The representative job, first in this process.  The reference is
    timed only after it, so it warms nothing the job would pay for."""
    spec = representative(args.workload, args.cli_output)
    text, seconds, error = run_job(spec["raw"])
    after = reference.COMPUTE.sample()
    ledger.record("representative", verdict(spec, text, error))
    return {
        "first_job_s": seconds,
        "first_job_scaled_s": reference.COMPUTE.scale(seconds, after, after),
        "first_text": text,
    }


def mode_stream(args, ledger: Ledger) -> dict:
    """The representative job, then the seeded stream in --segments parts.
    Between parts the worker prints ``pause`` and waits for a line on
    stdin, so the parent can spread its fixed-work probes over the run.
    One pass of the compute reference runs between consecutive jobs; each
    job's time is scaled by the passes on either side of it."""
    out = mode_probe(args, ledger)
    latencies = []          # (class, command, seconds, scaled seconds)
    references = []
    first_of_class = {}     # class -> (spec, text)
    start = time.perf_counter()
    index = 0
    for segment in range(1, args.segments + 1):
        seconds = args.seconds * segment / args.segments
        min_jobs = -(-args.min_jobs * segment // args.segments)
        before = reference.COMPUTE.once()
        references.append(before)
        while True:
            elapsed = time.perf_counter() - start
            if elapsed >= HARD_CAP_S or (elapsed >= seconds and index >= min_jobs):
                break
            spec = jobs.job(args.workload, args.seed, index)
            text, seconds_taken, error = run_job(spec["raw"])
            after = reference.COMPUTE.once()
            references.append(after)
            ledger.record(f"{spec['cls']}#{index}", verdict(spec, text, error))
            latencies.append((
                spec["cls"], spec["raw"]["command"], seconds_taken,
                reference.COMPUTE.scale(seconds_taken, before, after),
            ))
            before = after
            if spec["cls"] not in first_of_class:
                first_of_class[spec["cls"]] = (spec, text)
            index += 1
        if segment < args.segments:
            pause_start = time.perf_counter()
            print("pause", flush=True)
            sys.stdin.readline()
            start += time.perf_counter() - pause_start

    for cls, (spec, text) in first_of_class.items():
        again, _, error = run_job(spec["raw"])
        problems = [] if (again == text and text is not None) else [
            f"replay differs from the first run ({error or 'bytes differ'})"
        ]
        ledger.record(f"replay:{cls}", problems)
    out["latencies"] = latencies
    out["references"] = references
    return out


def mode_trace(args, ledger: Ledger) -> dict:
    mode_probe(args, ledger)        # warm-up, not traced
    tracer = tracing.Tracer()
    latencies = []                  # untraced (class, command, seconds)
    traced_s = untraced_s = 0.0
    snapshot = None
    specs = []
    for index in range(args.trace_jobs):
        spec = jobs.job(args.workload, args.seed, index)
        specs.append(spec)
        # alternate the order so neither run always finds warm caches
        if index % 2 == 0:
            plain, t_plain, error = run_job(spec["raw"])
            with tracer.job(index):
                traced, t_traced, _ = run_job(spec["raw"])
        else:
            with tracer.job(index):
                traced, t_traced, _ = run_job(spec["raw"])
            plain, t_plain, error = run_job(spec["raw"])
        problems = verdict(spec, plain, error)
        if traced != plain:
            problems.append("traced envelope differs from the untraced one")
        ledger.record(f"{spec['cls']}#{index}", problems)
        latencies.append((spec["cls"], spec["raw"]["command"], t_plain))
        traced_s += t_traced
        untraced_s += t_plain
        if index + 1 == RECOUNT_JOBS:
            snapshot = tracer.counts()

    if snapshot is not None:
        again = tracing.Tracer()
        for index, spec in enumerate(specs[:RECOUNT_JOBS]):
            with again.job(index):
                run_job(spec["raw"])
        recount = again.counts()
        problems = [] if recount == snapshot else [
            "per-layer counts differ between two traced runs of the same jobs: "
            + ", ".join(
                f"{k}: {snapshot.get(k)} vs {recount.get(k)}"
                for k in sorted(set(snapshot) | set(recount))
                if snapshot.get(k) != recount.get(k)
            )[:400]
        ]
        ledger.record("recount", problems)

    if args.spans:
        tracer.write_spans(args.spans)
    return {
        "latencies": latencies,
        "layers": layer_metrics(tracer),
        "overhead_frac": traced_s / untraced_s - 1.0 if untraced_s > 0 else 0.0,
        "counts": tracer.counts(),
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(t: tracing.Tracer) -> dict:
    """The per-layer metrics of BENCHMARK.json that come from the tracer."""
    sls = "linalg.solve_least_squares"
    newton = "finder.newton_on_level_set"
    lift = "transport.lift_curve"
    tally = t.tally
    m = {
        "systems.f.calls": t.count("systems.f"),
        "systems.h.calls": t.count("systems.h"),
        "systems.jac.calls": t.count("systems.jac"),
        "systems.f.busy_s": t.busy_s("systems.f"),
        "systems.evaluate.calls": t.count("systems.evaluate"),
        "systems.evaluate.busy_s": t.busy_s("systems.evaluate"),
        "systems.first_integral_violation.calls": t.count("systems.first_integral_violation"),
        "systems.first_integral_violation.busy_s": t.busy_s("systems.first_integral_violation"),
        "expr.parse.calls": t.count("expr.parse"),
        "expr.build_system.busy_s": t.busy_s("expr.build_system_from_config"),
        "linalg.svd.calls": t.count("linalg.svd"),
        "linalg.svd.busy_s": t.busy_s("linalg.svd"),
        "linalg.lstsq.calls": t.count("linalg.lstsq"),
        "linalg.eigvals.calls": t.count("linalg.eigvals"),
        "linalg.solve_least_squares.calls": t.count(sls),
        "linalg.solve_least_squares.busy_s": t.busy_s(sls),
        "linalg.solve_least_squares.failed": t.failures(sls, "any"),
        "linalg.numeric_rank.calls": t.count("linalg.numeric_rank"),
        "linalg.kernel_basis.calls": t.count("linalg.kernel_basis"),
        "linalg.image_basis.calls": t.count("linalg.image_basis"),
        "audit.audit_point.calls": t.count("audit.audit_point"),
        "audit.audit_point.busy_s": t.busy_s("audit.audit_point"),
        "finder.enumerate.calls": t.count("finder.enumerate_level_points"),
        "finder.enumerate.busy_s": t.busy_s("finder.enumerate_level_points"),
        "finder.newton.calls": t.count(newton),
        "finder.newton.busy_s": t.busy_s(newton),
        "finder.newton.steps": tally["newton_steps"],
        "finder.newton.failed_input": t.failures(newton, "input"),
        "finder.newton.failed_convergence": t.failures(newton, "convergence"),
        "finder.newton.failed_degeneracy": t.failures(newton, "degeneracy"),
        "finder.points_kept": tally["points_kept"],
        "finder.kept_per_start": _ratio(tally["points_kept"], tally["enumerate_starts"]),
        "finder.audits_per_kept": _ratio(tally["enumerate_audits"], tally["points_kept"]),
        "finder.trace_fiber.calls": t.count("finder.trace_fiber"),
        "finder.trace_fiber.busy_s": t.busy_s("finder.trace_fiber"),
        "finder.trace.points": tally["trace_points"],
        "transport.lift_curve.calls": t.count(lift),
        "transport.lift_curve.busy_s": t.busy_s(lift),
        "transport.lift_curve.failed": t.failures(lift, "any"),
        "transport.lift.steps": tally["lift_steps"],
        "transport.lift.solves": tally["lift_solves"],
        "transport.solves_per_step": _ratio(tally["lift_solves"], tally["lift_steps"]),
        "transport.holonomy_loop.busy_s": t.busy_s("transport.holonomy_loop"),
        "transport.check_cocycle.busy_s": t.busy_s("transport.check_cocycle"),
        "monodromy.track_matrix_loop.calls": t.count("monodromy.track_matrix_loop"),
        "monodromy.track_matrix_loop.busy_s": t.busy_s("monodromy.track_matrix_loop"),
        "monodromy.eigen_along_fiber_loop.busy_s": t.busy_s("monodromy.eigen_along_fiber_loop"),
        "monodromy.split_spectrum.calls": t.count("monodromy.split_spectrum"),
        "monodromy.split_spectrum.busy_s": t.busy_s("monodromy.split_spectrum"),
        "monodromy.assignment.calls": t.count("monodromy.assignment"),
        "monodromy.samples_used": tally["samples_used"],
        "monodromy.samples_per_input": _ratio(tally["samples_used"], tally["samples_input"]),
        "monodromy.refine_newton.calls": tally["refine_newton"],
        "config.config_from_dict.busy_s": t.busy_s("config.config_from_dict"),
        "cli.run_config.busy_s": t.busy_s("cli.run_config"),
        "reports.canonical_json.busy_s": t.busy_s("reports.canonical_json"),
        "reports.bytes_out": tally["bytes_out"],
        "trace.job_s": t.job_time,
    }
    for group in tracing.SHARE_GROUPS:
        m[f"share.{group}.self_frac"] = t.self_share(group)
    for layer in tracing.ENTRY_LAYERS:
        m[f"share.{layer}.entry_frac"] = t.entry_share(layer)
    return m


def describe_numerics() -> dict:
    """Versions and the BLAS build the package runs on."""
    import numpy
    import scipy

    info = {"numpy": numpy.__version__, "scipy": scipy.__version__}
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # older numpy has no dict mode
        info["blas"] = "unknown"
    info["blas_threads"] = _blas_threads()
    info["blas_thread_env"] = {
        key: os.environ.get(key)
        for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    }
    return info


def _blas_threads():
    """Thread count OpenBLAS reports, from the library numpy loaded."""
    import ctypes

    try:
        with open("/proc/self/maps") as handle:
            paths = {line.split()[-1] for line in handle if "openblas" in line}
    except OSError:
        return None
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--mode", choices=("probe", "stream", "trace"), required=True)
    parser.add_argument("--workload", choices=jobs.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--min-jobs", type=int, default=0)
    parser.add_argument("--segments", type=int, default=1)
    parser.add_argument("--trace-jobs", type=int, default=0)
    parser.add_argument("--cli-output", required=True)
    parser.add_argument("--spans", default=None)
    args = parser.parse_args()

    ledger = Ledger()
    if args.mode == "probe":
        out = mode_probe(args, ledger)
    elif args.mode == "stream":
        out = mode_stream(args, ledger)
    else:
        out = mode_trace(args, ledger)
    out.update(
        attempted=ledger.attempted,
        failed=ledger.failed,
        problems=ledger.problems,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        numerics=describe_numerics(),
    )
    print(json.dumps(out))
    return 0

