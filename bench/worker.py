"""One fresh workload process, started by ``run.py``.

It sets the workload up (``import tripatch``, input generation, warm-up),
prints ``READY`` and the host's calibrated slowdown right after set-up,
and then, by ``--mode``:

- ``setup``: exits, so the parent can time another set-up;
- ``measure``: runs the closed loop untraced for ``--seconds`` of op time;
- ``trace``: runs ops traced for ``--seconds``, each paired with an
  untraced run of the same op for the tracing overhead, and computes the
  per-layer metrics.

The last line it prints is ``RESULT <json>``.
"""

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time

import numpy as np

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import tracing  # noqa: E402
import workloads  # noqa: E402

#: Fresh interpreters that import ``tripatch.cli`` in a traced run.
IMPORT_PROBES = 3
#: Unit of every end-to-end metric; ``run.py`` adds ``setup_s``.
UNITS = {
    "throughput_ops_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "error_rate": "ratio",
    "peak_rss_mb": "MB",
}
#: Problems quoted in the result; the count of failures is always exact.
MAX_PROBLEMS = 5

#: The host's speed drifts by up to about 1.8x over tens of seconds (one
#: fixed ``basin_sample`` op took 457-854 ms within 80 s), which no
#: affordable run length averages out.  So the measured loop runs a fixed
#: calibration kernel, independent of tripatch, after every
#: ``CALIBRATE_EVERY_S`` of op time, and the end-to-end times are rescaled
#: by the run's mean kernel time over ``CALIBRATION_REF_S``: they read as
#: times on a host where one calibration quantum takes that long.  On
#: 10-second windows this cut the spread of throughput from 10-18% to
#: 2-6% (coefficient of variation).  Raw values stay in the detail line.
CALIBRATE_EVERY_S = 0.2
CALIBRATION_REPS = 4
CALIBRATION_REF_S = 0.0048


def _kernel() -> float:
    """Small NumPy ops and Python float code, like tripatch's scalar paths."""
    a = np.arange(3.0)
    s = 0.0
    for i in range(300):
        r = (a[0] * 1.1 + i, a[1] * 0.9 - i, a[2] + 0.5)
        s += max(abs(v) for v in r)
        a = np.maximum(a * 1.0000001, 0.0)
    return s


def calibration_quantum() -> float:
    """Seconds taken by ``CALIBRATION_REPS`` runs of the fixed kernel."""
    t0 = time.perf_counter()
    for _ in range(CALIBRATION_REPS):
        _kernel()
    return time.perf_counter() - t0


class Tally:
    """Latencies, failures and the first few problems of a series of ops."""

    def __init__(self):
        self.latencies: list[float] = []
        self.failed = 0
        self.problems: list[str] = []
        self.calibration: list[float] = []

    def add(self, k: int, latency: float, problem: str | None) -> None:
        self.latencies.append(latency)
        if problem is not None:
            self.failed += 1
            if len(self.problems) < MAX_PROBLEMS:
                self.problems.append(f"op {k}: {problem}")


def run_op(workload, k: int, tally: Tally, tracer=None):
    """Run and time op ``k``, then check it; any exception is a failure.

    With a ``tracer`` the op gets a root span, whose id is returned.
    """
    run, check = workload.op(k)
    sid = tracer.begin(tracing.OP) if tracer else None
    t0 = time.perf_counter()
    try:
        out, problem = run(), None
    except Exception as exc:  # every failure is counted, not raised
        out, problem = None, f"{type(exc).__name__}: {exc}"
    latency = time.perf_counter() - t0
    if tracer:
        tracer.end(sid)
    if problem is None:
        problem = check(out)
    tally.add(k, latency, problem)
    return sid


def run_loop(workload, seconds: float) -> Tally:
    """Closed loop, one client: each op starts when the previous one ended.

    Runs until the summed op time reaches ``seconds``, with a calibration
    quantum first and after every ``CALIBRATE_EVERY_S`` of op time.
    Input generation, checks and calibration are not op time.
    """
    tally, busy, since, k = Tally(), 0.0, 0.0, 0
    tally.calibration.append(calibration_quantum())
    while busy < seconds:
        run_op(workload, k, tally)
        busy += tally.latencies[-1]
        since += tally.latencies[-1]
        if since >= CALIBRATE_EVERY_S:
            tally.calibration.append(calibration_quantum())
            since = 0.0
        k += 1
    return tally


def tail(latencies, percentile: int):
    """Nearest-rank ``percentile`` of ``latencies``, and how many samples
    lie above it: ``(value, samples_above)``."""
    ordered = sorted(latencies)
    idx = -(-percentile * len(ordered) // 100) - 1
    return ordered[idx], len(ordered) - 1 - idx


def peak_rss_mb(workload) -> float:
    """Peak RSS of this process, or of its largest child for ``cli``."""
    who = resource.RUSAGE_CHILDREN if workload.name == "cli" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # Linux reports KiB


def with_units(values: dict, units: dict) -> dict:
    return {name: {"value": values[name], "unit": unit}
            for name, unit in units.items() if name in values}


def whole_laps(latencies, lap: int):
    """The ops of the completed laps, or every op if no lap completed."""
    laps = len(latencies) // lap
    return latencies[:laps * lap] if laps else latencies


def measure(workload, seconds):
    """End-to-end metrics of one closed-loop run.

    The times come from the ops of the completed laps through the
    workload's input cycle (``workload.lap`` ops), so that every run
    weighs each input alike; on ``basin`` which draws a partial lap
    repeats spreads the tail by about 14% on its own.  Later ops are still
    checked and counted in ``attempted`` and ``failed``.
    """
    tally = run_loop(workload, seconds)
    n, failed = len(tally.latencies), tally.failed
    latencies = whole_laps(tally.latencies, workload.lap)
    tail_s, above = tail(latencies, workload.tail_percentile)
    raw = {
        "throughput_ops_s": len(latencies) / sum(latencies),
        "latency_p50_ms": 1e3 * statistics.median(latencies),
        "latency_tail_ms": 1e3 * tail_s,
    }
    slowdown = statistics.fmean(tally.calibration) / CALIBRATION_REF_S
    values = {
        "throughput_ops_s": raw["throughput_ops_s"] * slowdown,
        "latency_p50_ms": raw["latency_p50_ms"] / slowdown,
        "latency_tail_ms": raw["latency_tail_ms"] / slowdown,
        "error_rate": failed / n,
        "peak_rss_mb": peak_rss_mb(workload),
    }
    return {
        "attempted": n,
        "failed": failed,
        "problems": tally.problems,
        "metrics": with_units(values, UNITS),
        "raw": with_units(raw, UNITS),
        "calibration": {"quanta": len(tally.calibration),
                        "mean_s": statistics.fmean(tally.calibration),
                        "ref_s": CALIBRATION_REF_S, "slowdown": slowdown},
        "latency_tail": {"percentile": workload.tail_percentile,
                         "samples": len(latencies), "samples_above": above},
    }


def import_probe(root, env, outdir):
    """Interpreter start, ``import tripatch.cli`` and SciPy's share of it.

    Medians over ``IMPORT_PROBES`` fresh interpreters run under
    ``-X importtime``; that flag adds a little to the import time.
    """
    interp, imp, scipy = [], [], []
    for j in range(IMPORT_PROBES):
        out = os.path.join(outdir, f"import-probe-{j}.jsonl")
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", workloads.CLI_CHILD],
            cwd=root, capture_output=True, text=True, timeout=120, check=True,
            env=dict(env, BENCH_TRACE_OUT=out,
                     BENCH_SPAWN_T=repr(time.perf_counter())))
        spans = {s[2]: s[4] - s[3] for s in tracing.load(out)}
        interp.append(1e3 * spans["cli.interpreter"])
        imp.append(1e3 * spans["cli.import"])
        scipy.append(tracing.scipy_import_ms(proc.stderr))
    return {"cli.interpreter_ms": statistics.median(interp),
            "cli.import_ms": statistics.median(imp),
            "cli.import_scipy_ms": statistics.median(scipy)}


def median_ci(values, z=1.96):
    """Median and a distribution-free 95% interval for it.

    The interval runs between the order statistics of rank
    ``n/2 - z*sqrt(n)/2`` and ``1 + n/2 + z*sqrt(n)/2`` (normal
    approximation to the binomial), clipped to the sample.
    """
    ordered = sorted(values)
    n = len(ordered)
    half = z * math.sqrt(n) / 2
    lo = max(0, math.floor(n / 2 - half) - 1)
    hi = min(n - 1, math.ceil(n / 2 + half))
    return statistics.median(ordered), ordered[lo], ordered[hi]


def overhead(traced, plain):
    """Tracing overhead from paired op times, and whether noise hides it.

    The overhead is the median of the per-pair differences; it is
    resolved only when the 95% interval of that median excludes 0.
    """
    diffs = [1e3 * (t - p) for t, p in zip(traced, plain)]
    med, lo, hi = median_ci(diffs)
    ratios = [100.0 * (t / p - 1.0) for t, p in zip(traced, plain)]
    return {"pairs": len(diffs), "median_ms": med, "ci95_ms": [lo, hi],
            "resolved": lo > 0 or hi < 0,
            "share": statistics.median(ratios)}


def trace(workload, seconds, root, env, outdir):
    """Traced ops, each paired with an untraced run of the same op.

    Pairs alternate which run goes first, and the traced ops' summed
    time sets the run length; comparing the two halves op by op gives the
    tracing overhead without mixing in the machine's drift over the run.
    """
    tracer = tracing.Tracer()
    wrappers = None if workload.name == "cli" else tracing.Wrappers(tracer)
    traced, plain, op_spans = Tally(), Tally(), []

    def run_traced(k):
        if wrappers is None:
            workload.trace_dir = outdir
        else:
            wrappers.install()
        try:
            op_spans.append(run_op(workload, k, traced, tracer))
        finally:
            if wrappers is None:
                workload.trace_dir = None
            else:
                wrappers.remove()

    busy, k = 0.0, 0
    while busy < seconds:
        if k % 2:
            run_op(workload, k, plain)
            run_traced(k)
        else:
            run_traced(k)
            run_op(workload, k, plain)
        busy += traced.latencies[-1]
        k += 1
    if wrappers is None:
        for j, sid in enumerate(op_spans):
            tracer.adopt(tracing.load(os.path.join(outdir, f"op-{j}.jsonl")), sid)
    tracer.dump(os.path.join(outdir, "spans.jsonl"))

    metrics = tracing.layer_metrics(tracer.spans)
    metrics.update(import_probe(root, env, outdir))
    verbs = [s[4] - s[3] for s in tracer.spans if s[2] == "cli.verb"]
    metrics["cli.verb_ms"] = 1e3 * statistics.median(verbs) if verbs else 0.0
    cost = overhead(traced.latencies, plain.latencies)
    lo, hi = cost["ci95_ms"]
    metrics["trace.overhead_ms_per_op"] = cost["median_ms"]
    metrics["trace.overhead_ci95_ms"] = (hi - lo) / 2
    metrics["trace.overhead_share"] = cost["share"]
    return {
        "attempted": 2 * k,
        "failed": traced.failed + plain.failed,
        "problems": (traced.problems + plain.problems)[:MAX_PROBLEMS],
        "metrics": with_units(metrics, tracing.UNITS),
        "spans": len(tracer.spans),
        "trace_overhead": cost,
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", required=True, choices=("setup", "measure", "trace"))
    ap.add_argument("--outdir", required=True)
    args = ap.parse_args()

    root = os.getcwd()
    env = dict(os.environ)
    os.makedirs(args.outdir, exist_ok=True)
    workload = workloads.make(args.workload, args.seed, root, args.outdir, env)
    workload.warm_up()
    print("READY", flush=True)
    # The host's speed right after set-up, for the calibrated setup_s.
    quanta = [calibration_quantum() for _ in range(3)]
    print(f"SLOWDOWN {statistics.median(quanta) / CALIBRATION_REF_S!r}", flush=True)
    if args.mode == "setup":
        return 0
    if args.mode == "measure":
        result = measure(workload, args.seconds)
    else:
        result = trace(workload, args.seconds, root, env, args.outdir)
    print("RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
