"""eqbundle benchmark: a seeded, closed-loop job stream with one client.

Usage (from the repository root):

    python3 bench/run.py --workload {find,paths} --seed N \\
        --seconds S --trace {0,1} [--smoke]

Workloads are defined in jobs.py and listed, with the reason for each, in
BENCHMARK.json.  One client runs one job at a time in one process (no
threads, no connections), so the run fits a 2-core machine.

--trace 0 measures the end-to-end metrics.  Every time among them is
scaled to a nominal machine speed by reference.py: a fixed reference is
timed next to each timed piece, and the piece's wall time is multiplied
by the reference's nominal time over its measured time (the startup
reference for setup_s and cli_job_s, the compute reference for the
rest).  The report line before the result holds the unscaled wall
figures too.

  setup_s      spawn of a fresh interpreter until ``import eqbundle.cli``
               returns; median over the workload process and SEGMENTS
               probe processes
  first_job_s  the representative job, first in each of those processes;
               median of them
  jobs_per_s   seeded-stream jobs completed per second of job time
  job_p50_ms, job_p90_ms
               per-job latency over at least MIN_JOBS stream jobs
  cli_job_s    one real ``python -m eqbundle.cli`` run of the
               representative config, atomic JSON write included; median
               of SEGMENTS runs
  ok_frac      jobs passing the oracle over jobs attempted, that is
               1 - failed_frac (a relative bound needs a metric that never
               reads 0)
  peak_rss_mb  maximum resident set size of the workload process

--trace 1 runs a fixed number of seeded jobs twice each, untraced and
traced, and reports the per-layer metrics (see tracing.py and stream.py),
the per-command untraced p50 and the tracing overhead.

Every job's output is checked against a closed-form oracle; every
stream's first job of each class is re-run and compared byte for byte.
The last stdout line is the result object; the line before it describes
the machine and the run.  Spans, results and CLI outputs go to
.bench_out/ in the checkout.  --smoke shrinks every count for the
benchmark's own tests.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_out")
sys.path.insert(0, HERE)

import jobs  # noqa: E402
import reference  # noqa: E402

# at least 12 stream jobs lie beyond p90; three periods of the find schedule
MIN_JOBS = 126
# the stream runs in SEGMENTS parts; one fresh-process probe and one real
# CLI run follow each part, spreading those fixed-work samples over the
# run.  A fresh process varies by about a fifth from one start to the
# next, so the medians need this many samples; each part adds about
# 3 s to a run.
SEGMENTS = 5
IMPORT_PROBES = 3
DEADLINE_S = 170.0
# traced jobs per requested second, from the untraced mean job time on a
# 2-core Xeon and a traced pair costing about 2.5 untraced jobs; a fixed
# count (not a time limit) makes the traced counts repeat exactly
TRACE_JOBS_PER_S = {"find": 1.6, "paths": 12.0}
COMMANDS = (
    "find", "transport", "cocycle", "holonomy", "trace-fiber", "eigen-loop",
    "track-matrix-loop",
)


class BenchError(RuntimeError):
    pass


class Spawner:
    """Runs child processes against one overall deadline and always
    reaps them."""

    def __init__(self, deadline: float):
        self.deadline = deadline
        self.env = dict(os.environ)
        src = os.path.join(ROOT, "src")
        prior = self.env.get("PYTHONPATH")
        self.env["PYTHONPATH"] = src if not prior else src + os.pathsep + prior

    def remaining(self) -> float:
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise BenchError("benchmark deadline passed")
        return left

    def worker(self, argv: list, on_pause=None):
        """Spawn worker.py; returns (seconds until it printed ready, its
        final JSON object).  Each ``pause`` line it prints runs on_pause
        before the worker is told to go on."""
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "worker.py")] + argv,
            cwd=ROOT, env=self.env, stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, text=True,
        )
        watchdog = threading.Timer(self.remaining(), proc.kill)
        watchdog.start()
        try:
            first = proc.stdout.readline()
            ready = time.perf_counter() - start
            if first.strip() != "ready":
                raise BenchError(f"worker did not start: {first!r}")
            last = ""
            for line in proc.stdout:
                if line.strip() == "pause" and on_pause is not None:
                    on_pause()
                    proc.stdin.write("go\n")
                    proc.stdin.flush()
                elif line.strip():
                    last = line
        finally:
            watchdog.cancel()
            if proc.poll() is None:
                proc.kill()
            proc.wait()
            proc.stdin.close()
            proc.stdout.close()
        if proc.returncode != 0:
            raise BenchError(f"worker exited with {proc.returncode}")
        if not last:
            raise BenchError("worker printed no result")
        return ready, json.loads(last)

    def run(self, argv: list, stderr=None):
        """Run a command to completion; returns (seconds, returncode, stderr)."""
        start = time.perf_counter()
        proc = subprocess.run(
            argv, cwd=ROOT, env=self.env, stdout=subprocess.DEVNULL,
            stderr=stderr, text=True, timeout=self.remaining(),
        )
        return time.perf_counter() - start, proc.returncode, proc.stderr


def percentile(values: list, q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def cmd_p50_ms(latencies: list) -> dict:
    by_command = {}
    for _, command, seconds, *_ in latencies:
        by_command.setdefault(command, []).append(seconds)
    return {
        command: 1000.0 * statistics.median(by_command[command])
        if command in by_command else 0.0
        for command in COMMANDS
    }


def machine(numerics: dict) -> dict:
    model = None
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(
                ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                text=True, timeout=10,
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": model,
        "platform": platform.platform(),
        "python": platform.python_version(),
        **numerics,
        "git_commit": commit,
    }


def representative_config(workload: str) -> tuple:
    """Writes the workload's representative config for the CLI run;
    returns (config path, output path), both relative to the root."""
    output = os.path.join(".bench_out", f"cli-{workload}.json")
    raw = dict(jobs.REPRESENTATIVE[workload]["raw"])
    raw["output"] = {"path": output, "format": "json"}
    path = os.path.join(".bench_out", f"cli-{workload}.config.json")
    with open(os.path.join(ROOT, path), "w") as handle:
        json.dump(raw, handle)
    return path, output


def end_to_end(args, spawn: Spawner) -> tuple:
    config_path, output = representative_config(args.workload)
    command = jobs.REPRESENTATIVE[args.workload]["raw"]["command"]
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--cli-output", output]
    # each sample is (wall seconds, seconds scaled to the nominal speed)
    setups, firsts, cli_times = [], [], []
    tally = {"attempted": 0, "failed": 0, "problems": []}

    def absorb(out):
        tally["attempted"] += out["attempted"]
        tally["failed"] += out["failed"]
        tally["problems"] += out["problems"]

    def fixed_work():
        """One fresh-process probe and one real CLI run, each between two
        samples of the startup reference."""
        before = reference.STARTUP.sample()
        ready, probe = spawn.worker(["--mode", "probe"] + common)
        after = reference.STARTUP.sample()
        setups.append((ready, reference.STARTUP.scale(ready, before, after)))
        firsts.append((probe["first_job_s"], probe["first_job_scaled_s"]))
        absorb(probe)
        target = os.path.join(ROOT, output)
        if os.path.exists(target):
            os.unlink(target)
        before = after
        seconds, code, _ = spawn.run(
            [sys.executable, "-m", "eqbundle.cli", command, "--config", config_path]
        )
        after = reference.STARTUP.sample()
        cli_times.append((seconds, reference.STARTUP.scale(seconds, before, after)))
        try:
            with open(target) as handle:
                written = handle.read()
        except OSError:
            written = None
        ok = code == 0 and written is not None and written == probe["first_text"]
        absorb({"attempted": 1, "failed": 0 if ok else 1, "problems": [] if ok else [
            {"job": "cli", "problems": [f"exit code {code}, output differs"]}
        ]})

    segments = 1 if args.smoke else SEGMENTS
    before = reference.STARTUP.sample()
    ready, stream = spawn.worker(
        ["--mode", "stream", "--seconds", str(args.seconds),
         "--min-jobs", str(4 if args.smoke else MIN_JOBS),
         "--segments", str(segments)] + common,
        on_pause=fixed_work,
    )
    # the worker starts its stream at once, so only the reference before
    # the spawn is free of its load
    setups.append((ready, reference.STARTUP.scale(ready, before, before)))
    firsts.append((stream["first_job_s"], stream["first_job_scaled_s"]))
    absorb(stream)
    fixed_work()

    latencies = stream["latencies"]
    scaled = [item[3] for item in latencies]
    wall = [item[2] for item in latencies]
    attempted, failed = tally["attempted"], tally["failed"]

    def median(samples):
        return statistics.median(scaled_s for _, scaled_s in samples)

    metrics = {
        "setup_s": (median(setups), "s"),
        "first_job_s": (median(firsts), "s"),
        "jobs_per_s": (len(scaled) / sum(scaled), "1/s"),
        "job_p50_ms": (1000.0 * percentile(scaled, 50), "ms"),
        "job_p90_ms": (1000.0 * percentile(scaled, 90), "ms"),
        "cli_job_s": (median(cli_times), "s"),
        "ok_frac": (1.0 - failed / attempted, "1"),
        "peak_rss_mb": (stream["peak_rss_mb"], "MB"),
    }
    summary = {
        "latency_samples": len(scaled),
        "setup_samples": len(setups),
        "cli_samples": len(cli_times),
        "compute_reference_ms": 1000.0 * statistics.median(stream["references"]),
        "compute_reference_nominal_ms": 1000.0 * reference.COMPUTE.nominal_s,
        "wall": {
            "setup_s": statistics.median(w for w, _ in setups),
            "first_job_s": statistics.median(w for w, _ in firsts),
            "jobs_per_s": len(wall) / sum(wall),
            "job_p50_ms": 1000.0 * percentile(wall, 50),
            "job_p90_ms": 1000.0 * percentile(wall, 90),
            "cli_job_s": statistics.median(w for w, _ in cli_times),
        },
        "cmd_p50_ms": cmd_p50_ms(latencies),
        "class_counts": _class_counts(latencies),
        "p50_window": _class_counts(_rank_window(latencies, 0.5)),
        "p90_window": _class_counts(_rank_window(latencies, 0.9)),
    }
    return metrics, attempted, failed, tally["problems"], summary, stream["numerics"]


def _class_counts(latencies: list) -> dict:
    counts = {}
    for cls, *_ in latencies:
        counts[cls] = counts.get(cls, 0) + 1
    return counts


def _rank_window(latencies: list, q: float) -> list:
    """The jobs within 5 % of the ranks around quantile q, to show which
    classes the percentile samples."""
    ordered = sorted(latencies, key=lambda item: item[-1])
    rank, reach = round(q * (len(ordered) - 1)), max(1, round(0.05 * len(ordered)))
    return ordered[max(0, rank - reach): rank + reach + 1]


_IMPORT_LINE = re.compile(r"import time:\s+(\d+)\s+\|\s+(\d+)\s+\|(\s*)(\S+)")


def import_times(spawn: Spawner) -> tuple:
    """(eqbundle import seconds, scipy.stats import seconds) in a fresh
    interpreter, from ``-X importtime``."""
    _, code, err = spawn.run(
        [sys.executable, "-X", "importtime", "-c", "import eqbundle.cli"],
        stderr=subprocess.PIPE,
    )
    if code != 0:
        raise BenchError("import eqbundle.cli failed")
    package = stats = 0
    for line in err.splitlines():
        match = _IMPORT_LINE.match(line)
        if not match:
            continue
        cumulative, indent, name = int(match.group(2)), len(match.group(3)), match.group(4)
        if indent == 1 and (name == "eqbundle" or name.startswith("eqbundle.")):
            package += cumulative
        if name == "scipy.stats" and not stats:
            stats = cumulative
    return package / 1e6, stats / 1e6


def per_layer(args, spawn: Spawner) -> tuple:
    _, output = representative_config(args.workload)
    schedule = len(jobs.SCHEDULES[args.workload])
    count = 4 if args.smoke else max(
        schedule, round(TRACE_JOBS_PER_S[args.workload] * args.seconds)
    )
    spans = os.path.join(OUT, f"spans-{args.workload}-s{args.seed}.tsv.gz")
    _, traced = spawn.worker(
        ["--mode", "trace", "--workload", args.workload, "--seed", str(args.seed),
         "--trace-jobs", str(count), "--cli-output", output, "--spans", spans]
    )
    imports = [import_times(spawn) for _ in range(1 if args.smoke else IMPORT_PROBES)]
    metrics = {}
    for name, value in traced["layers"].items():
        metrics[name] = (value, _unit(name))
    for command, value in cmd_p50_ms(traced["latencies"]).items():
        metrics[f"cmd.{command}.p50_ms"] = (value, "ms")
    metrics["trace.overhead_frac"] = (traced["overhead_frac"], "1")
    metrics["setup.import_s"] = (statistics.median(i[0] for i in imports), "s")
    metrics["setup.scipy_stats_import_s"] = (statistics.median(i[1] for i in imports), "s")
    summary = {
        "traced_jobs": count,
        "spans_file": os.path.relpath(spans, ROOT),
        "counts": traced["counts"],
    }
    return (metrics, traced["attempted"], traced["failed"], traced["problems"],
            summary, traced["numerics"])


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith(("_frac", "_per_start", "_per_kept", "_per_step", "_per_input")):
        return "1"
    if name.endswith("bytes_out"):
        return "bytes"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=jobs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "eqbundle", "cli.py")):
        print(f"error: no eqbundle sources under {ROOT}/src", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    spawn = Spawner(time.monotonic() + DEADLINE_S)
    try:
        measure = per_layer if args.trace else end_to_end
        metrics, attempted, failed, problems, summary, numerics = measure(args, spawn)
    except (BenchError, subprocess.SubprocessError, OSError, ValueError, KeyError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "failed_frac": failed / attempted,
        "problems": problems,
        **summary,
        "machine": machine(numerics),
    }
    result_file = f"result-{args.workload}-s{args.seed}-t{args.trace}.json"
    with open(os.path.join(OUT, result_file), "w") as handle:
        json.dump({"report": report, "result": result}, handle, indent=1)
    for item in problems:
        print(f"oracle: {item['job']}: {'; '.join(item['problems'])}", file=sys.stderr)
    print(json.dumps(report))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
