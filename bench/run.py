"""tripatch benchmark: four seeded closed-loop workloads, end to end or traced.

Usage, from the root of a source checkout:

    python3 bench/run.py --workload {scan,sweep,basin,cli} --seed N \\
        --seconds S --trace {0,1}

``--trace 0`` prints the end-to-end metrics: throughput, median and tail
op latency, set-up time (median of ``SETUP_RUNS`` fresh workload
processes, each timed from its start to its first timed op) and peak RSS.
Times are calibrated to a reference host speed (see ``worker.py``).
``--trace 1`` prints the per-layer metrics of a separate traced run.  The
line before the last is a JSON detail record (environment stamp, the tail
percentile and sample count, error rate, quoted problems); the last line
is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``tripatch`` is imported from ``src`` via ``PYTHONPATH``; it is not
installed, and the CLI runs as ``python -m tripatch.cli``.  Outputs go to
``.bench_out/`` in the checkout.  Without ``src/tripatch`` the benchmark
exits with status 2 and prints no result.
"""

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("scan", "sweep", "basin", "cli")
SETUP_RUNS = 3
#: Every worker must end within this many seconds of the run's start.
DEADLINE_S = 170.0


def stamp(root: str) -> dict:
    """Where and on what the numbers were measured."""
    sha = None  # an exported checkout has no history
    if os.path.isdir(os.path.join(root, ".git")):
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                                 capture_output=True, text=True, timeout=30,
                                 check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    src = os.path.join(root, "src", "tripatch")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())

    def version(dist):
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return None
    return {
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "tripatch_import": "PYTHONPATH=src (not installed); CLI as "
                           "python -m tripatch.cli",
    }


def run_worker(args, mode: str, env: dict, deadline: float):
    """Start one worker; return (set-up seconds, slowdown, result or None)."""
    cmd = [sys.executable, WORKER, "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--mode", mode, "--outdir", args.outdir]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env)
    killer = threading.Timer(max(0.0, deadline - time.monotonic()), proc.kill)
    killer.start()
    try:
        ready = proc.stdout.readline()
        setup = time.perf_counter() - t0
        slowdown, result = None, None
        for line in proc.stdout:
            if line.startswith("SLOWDOWN "):
                slowdown = float(line.split()[1])
            elif line.startswith("RESULT "):
                result = json.loads(line[len("RESULT "):])
        code = proc.wait()
    finally:
        killer.cancel()
        proc.stdout.close()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if (ready.strip() != "READY" or slowdown is None or code != 0
            or (mode != "setup" and result is None)):
        raise RuntimeError(f"{mode} worker for {args.workload} failed "
                           f"(exit {code})")
    return setup, slowdown, result


def main() -> int:
    ap = argparse.ArgumentParser(description="tripatch benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    deadline = time.monotonic() + DEADLINE_S
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "tripatch", "__init__.py")):
        print(f"error: no tripatch sources under {src}; run from the root "
              "of a source checkout", file=sys.stderr)
        return 2
    args.outdir = os.path.join(
        root, ".bench_out",
        f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)

    try:
        if args.trace:
            result = run_worker(args, "trace", env, deadline)[2]
            extra = {"spans": result["spans"],
                     "trace_overhead": result["trace_overhead"]}
        else:
            setups = [run_worker(args, "setup", env, deadline)[:2]
                      for _ in range(SETUP_RUNS - 1)]
            setup, slowdown, result = run_worker(args, "measure", env, deadline)
            setups.append((setup, slowdown))
            result["metrics"]["setup_s"] = {
                "value": statistics.median(t / f for t, f in setups), "unit": "s"}
            extra = {"setup_samples_s": [t for t, _ in setups],
                     "setup_slowdowns": [f for _, f in setups],
                     "latency_tail": result["latency_tail"],
                     "raw": result["raw"],
                     "calibration": result["calibration"]}
    except (RuntimeError, subprocess.SubprocessError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    metrics = result["metrics"]
    detail = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "metrics": metrics, "problems": result["problems"],
              "env": stamp(root), **extra}
    print(json.dumps({"detail": detail}))
    # error_rate is 0 on a correct run, so the result line carries it as
    # failed / attempted instead of as a metric.
    print(json.dumps({"correct": result["failed"] == 0,
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": {name: m for name, m in metrics.items()
                                  if name != "error_rate"}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
