"""Self-test of the benchmark harness.

Run from the root of a source checkout:

    PYTHONPATH=src python3 -m pytest -q bench

A short smoke run of every workload checks that each metric named in
``BENCHMARK.json`` is emitted with its unit; corrupted results fed to each
workload's checks prove that those checks are live.
"""

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import pytest

import tracing
import worker
import workloads

ROOT = os.path.dirname(workloads.HERE)
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


def _run(cwd, workload, trace, seconds="0.5"):
    return subprocess.run(
        [sys.executable, os.path.join("bench", "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", seconds, "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300, check=False)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_emits_every_metric_with_its_unit(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    *_, detail_line, result_line = proc.stdout.strip().splitlines()
    result = json.loads(result_line)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in spec} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    detail = json.loads(detail_line)["detail"]
    assert detail["env"]["python"] and detail["env"]["nproc"]
    if trace:
        assert detail["trace_overhead"]["pairs"] * 2 == result["attempted"]
    else:
        assert detail["metrics"]["error_rate"] == {"value": 0.0, "unit": "ratio"}
        assert 0 < detail["latency_tail"]["samples"] <= result["attempted"]


def test_without_sources_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(workloads.HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "scan", 0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def _solved(workload):
    run, check = workload.op(0)
    out = run()
    assert check(out) is None
    return out, check


def test_scan_check_flags_wrong_points_labels_and_residuals():
    (records, reports), check = _solved(workloads.Scan(0))
    moved = [dataclasses.replace(r, point=r.point + 1e-5) for r in records]
    relabeled = [dataclasses.replace(records[0], label="NUMERICAL"), *records[1:]]
    stale = [dataclasses.replace(r, residual=1e-6) for r in records]
    for bad in (moved, relabeled, stale):
        assert check((bad, reports)) is not None


def test_sweep_check_flags_dropped_or_shifted_crossings():
    records, check = _solved(workloads.Sweep(0))
    dropped = [dataclasses.replace(r, crossings=()) for r in records]
    shifted = [dataclasses.replace(r, crossings=tuple(
        dataclasses.replace(c, param_value=c.param_value + 1e-5)
        for c in r.crossings)) for r in records]
    assert check(dropped) is not None
    assert check(shifted) is not None


def test_basin_check_flags_bad_or_changed_fractions_but_not_max_time():
    fractions, check = _solved(workloads.Basin(0))
    assert check(fractions) is None
    ref = {"COEX": 0.995, "MAX_TIME": 0.005}
    assert workloads.check_basin(ref, dict(ref)) is None
    for bad in ({"COEX": 0.5, "MAX_TIME": 0.4},
                {"COEX": 0.9, "DIVERGED": 0.1},
                {"COEX": 0.9, "UNMATCHED": 0.1},
                {"COEX": 0.99, "MAX_TIME": 0.01},
                {"COEX": 0.995, "EXCL0": 0.005},
                {"COEX": 1.0}):
        assert workloads.check_basin(ref, bad) is not None


def test_cli_check_flags_exit_codes_bad_stdout_and_changed_repeats(tmp_path):
    cli = workloads.Cli(0, ROOT, str(tmp_path), dict(os.environ))

    def done(code, stdout):
        return subprocess.CompletedProcess([], code, stdout, "")

    analyze, sweep = 0, 1
    assert cli.check(analyze, done(2, "")) is not None
    assert cli.check(analyze, done(0, "{not json")) is not None
    assert cli.check(sweep, done(0, "# c\na,b\n1\n")) is not None
    assert cli.check(analyze, done(0, '{"a": 1}\n')) is None
    assert cli.check(analyze, done(0, '{"a": 2}\n')) is not None
    assert cli.check(sweep, done(0, "# c\na,b\n1,2\n")) is None


def test_corrupted_ops_raise_the_error_rate():
    class Corrupted:
        name = "basin"

        def op(self, k):
            def check(out):
                return workloads.check_basin({"COEX": 1.0}, out)
            if k % 2:
                return (lambda: {"COEX": 0.5}), check

            def boom():
                raise RuntimeError("no result")
            return boom, check

    tally = worker.Tally()
    for k in range(4):
        worker.run_op(Corrupted(), k, tally)
    assert len(tally.latencies) == 4 and tally.failed == 4
    assert any("RuntimeError" in p for p in tally.problems)


def test_tail_is_the_nearest_rank_percentile():
    assert worker.tail([float(i) for i in range(1000, 0, -1)], 99) == (990.0, 10)
    assert worker.tail([float(i) for i in range(1, 301)], 95) == (285.0, 15)
    assert worker.tail([float(i) for i in range(1, 19)], 90) == (17.0, 1)
    assert worker.tail([7.0], 90) == (7.0, 0)


def test_times_come_from_whole_laps():
    assert worker.whole_laps(list(range(7)), 3) == list(range(6))
    assert worker.whole_laps(list(range(2)), 3) == [0, 1]
    assert worker.whole_laps(list(range(7)), 1) == list(range(7))


def test_overhead_is_unresolved_when_noise_hides_it():
    plain = [1.0 + 0.01 * (i % 7) for i in range(60)]
    noisy = [p + (0.02 if i % 2 else -0.02) for i, p in enumerate(plain)]
    steady = [p + 0.001 for p in plain]
    assert worker.overhead(noisy, plain)["resolved"] is False
    cost = worker.overhead(steady, plain)
    assert cost["resolved"] is True
    assert cost["median_ms"] == pytest.approx(1.0)
    assert cost["ci95_ms"] == pytest.approx([1.0, 1.0])


def test_self_time_subtracts_child_coverage():
    spans = [[0, None, "op", 0.0, 10.0, None],
             [1, 0, "a", 1.0, 4.0, None],
             [2, 0, "b", 3.0, 6.0, None],
             [3, 1, "c", 2.0, 3.0, None]]
    selves = tracing.self_times(spans)
    assert selves == {0: 5.0, 1: 2.0, 2: 3.0, 3: 1.0}


def test_scipy_import_time_counts_nested_modules_once():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:        10 |         10 |     scipy.linalg",
        "import time:        20 |         30 |   scipy",
        "import time:         5 |          5 |     numpy.x",
        "import time:        40 |         80 | tripatch.equilibria",
        "import time:        50 |        100 | scipy.stats",
    ])
    assert tracing.scipy_import_ms(text) == pytest.approx(0.130)


def test_wrappers_cover_each_binding_and_removal_restores_it():
    import tripatch
    from tripatch import bifurcation, equilibria, stability

    original = equilibria.find_all_equilibria
    tracer = tracing.Tracer()
    wrappers = tracing.Wrappers(tracer)
    wrappers.install()
    try:
        assert bifurcation.find_all_equilibria is equilibria.find_all_equilibria
        assert equilibria.find_all_equilibria is not original
        assert stability.eigenvalues_3x3 is tripatch.eigenvalues_3x3
        assert bifurcation.eigenvalues_3x3 is not stability.eigenvalues_3x3
        scan = workloads.Scan(0)
        scan.op(0)[0]()
    finally:
        wrappers.remove()
    assert equilibria.find_all_equilibria is original
    names = {s[0]: s[2] for s in tracer.spans}
    parents = {s[2]: names.get(s[1]) for s in tracer.spans}
    assert parents == {"equilibria.find_all": None,
                       "equilibria.closed_form": "equilibria.find_all",
                       "equilibria.oracle": "equilibria.find_all",
                       "stability.classify": None}
