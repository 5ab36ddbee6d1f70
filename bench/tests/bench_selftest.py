"""The benchmark's own tests, on tiny job counts.

Run from the repository root:

    python3 -m pytest -q bench/tests/bench_selftest.py

The file name keeps these out of the package's default test collection;
they spawn interpreters and take about half a minute.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, BENCH)

import jobs  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    SPEC = json.load(_handle)


def run_bench(*argv, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "bench/run.py", *argv], cwd=cwd, capture_output=True,
        text=True, timeout=170,
    )


def test_generator_is_reproducible_from_its_seed():
    for workload in jobs.WORKLOADS:
        span = range(len(jobs.SCHEDULES[workload]) + 2)
        first = [jobs.job(workload, 7, i) for i in span]
        assert first == [jobs.job(workload, 7, i) for i in span]
        assert first != [jobs.job(workload, 8, i) for i in span]
    # and across interpreters with different hash seeds
    code = (
        "import json, sys; sys.path.insert(0, 'bench'); import jobs; "
        "print(json.dumps([jobs.job(w, 5, i) for w in jobs.WORKLOADS "
        "for i in range(30)], sort_keys=True))"
    )
    outputs = {
        subprocess.run(
            [sys.executable, "-c", code], cwd=ROOT, capture_output=True, text=True,
            env=dict(os.environ, PYTHONHASHSEED=str(hash_seed)), check=True,
        ).stdout
        for hash_seed in (1, 2)
    }
    assert len(outputs) == 1


def test_reference_scaling_cancels_a_uniform_slowdown():
    import reference

    for ref in (reference.COMPUTE, reference.STARTUP):
        nominal = ref.nominal_s
        assert ref.scale(0.3, nominal, nominal) == pytest.approx(0.3)
        # the same piece of work on a machine running at half speed
        assert ref.scale(0.6, 2 * nominal, 2 * nominal) == pytest.approx(0.3)
        assert ref.scale(0.3, nominal, 3 * nominal) == pytest.approx(0.15)
        assert ref.once() > 0


def test_corrupted_expected_outcome_counts_as_failed(monkeypatch):
    import stream

    honest_job = jobs.job

    def corrupted(workload, seed, index):
        spec = honest_job(workload, seed, index)
        if index == 1:
            spec["expect"] = dict(spec["expect"], end=[9.0, 9.0])
        return spec

    args = argparse.Namespace(
        workload="paths", seed=3, seconds=0.0, min_jobs=5, segments=1,
        cli_output=".bench_out/selftest.json",
    )
    honest = stream.Ledger()
    stream.mode_stream(args, honest)
    assert honest.failed == 0 and honest.attempted > 5

    assert jobs.job("paths", 3, 1)["raw"]["command"] == "transport"
    monkeypatch.setattr(stream.jobs, "job", corrupted)
    ledger = stream.Ledger()
    stream.mode_stream(args, ledger)
    assert ledger.failed == 1
    assert ledger.failed / ledger.attempted > 0
    assert "lift ends at" in ledger.problems[0]["problems"][0]


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_command_prints_every_named_metric_with_its_unit(trace, section):
    proc = run_bench(
        "--workload", "paths", "--seed", "2", "--seconds", "1",
        "--trace", str(trace), "--smoke",
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == expected
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float))


def test_fails_without_the_package_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(
        "--workload", "find", "--seed", "1", "--seconds", "1", "--trace", "0",
        cwd=tmp_path,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
