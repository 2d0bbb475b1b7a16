"""Regenerate the stored answers of the ``scan`` and ``basin`` pools.

Run from the root of a source checkout:

    PYTHONPATH=src python3 bench/make_reference.py

``scan_reference.json`` stores, for each scan pool entry,
``[label, classification, x, y, z]`` rows (points to 10 significant
digits, well inside the 1e-6 check).  ``basin_reference.json`` stores the
fractions of each basin pool draw, MAX_TIME included.  If a call fails,
the entry is ``{"error": ...}``; it stays in the pool and counts as a
failed op.  Regenerating is a benchmark change of its own: a reference
pins the answers of the commit it was made at.
"""

import json
import os
import subprocess
import sys

import numpy as np

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import workloads  # noqa: E402


def solve_pool(pool, solve):
    """``{topo: [solve(topo, i, draw) or {"error": ...}, ...]}``."""
    entries, failures = {}, 0
    for topo, draws in pool.items():
        entries[topo] = []
        for i, d in enumerate(draws):
            try:
                entries[topo].append(solve(topo, i, d))
            except Exception as exc:  # recorded in the reference, not raised
                failures += 1
                entries[topo].append({"error": f"{type(exc).__name__}: {exc}"})
    return entries, failures


def write(path, pool, entries, stamp) -> None:
    """One pool entry per line, so a regenerated file diffs line by line."""
    doc = {"digest": workloads.pool_digest(pool), "generated_at": stamp}
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("{\n")
        for key, value in doc.items():
            fh.write(f"{json.dumps(key)}: {json.dumps(value)},\n")
        fh.write('"entries": {\n')
        for n, (topo, rows) in enumerate(entries.items()):
            fh.write(f"{json.dumps(topo)}: [\n")
            fh.write(",\n".join(json.dumps(r, separators=(",", ":")) for r in rows))
            fh.write("\n]" + (",\n" if n + 1 < len(entries) else "\n"))
        fh.write("}\n}\n")


def main() -> int:
    import tripatch
    from tripatch import equilibria, simulate, stability, topology
    from tripatch.model import ModelParams

    def scan(topo, i, d):
        params = topology.apply_topology(ModelParams(*d), topo)
        records = equilibria.find_all_equilibria(topo, params, seed=i)
        reports = [stability.classify(topo, rec, params) for rec in records]
        return [row[:2] + [float(f"{v:.10g}") for v in row[2:]]
                for row in workloads.scan_rows(records, reports)]

    def basin(topo, i, d):
        return simulate.basin_sample(topo, ModelParams(*d),
                                     n=workloads.BASIN_STARTS, seed=i)

    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                             text=True, check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = None
    stamp = {"git_sha": sha, "tripatch": tripatch.__version__,
             "numpy": np.__version__}
    for path, pool, solve in (
            (workloads.SCAN_REFERENCE,
             workloads.scan_pool(topology.TOPOLOGIES), scan),
            (workloads.BASIN_REFERENCE, {"FULL": workloads.basin_pool()}, basin)):
        entries, failures = solve_pool(pool, solve)
        write(path, pool, entries, stamp)
        total = sum(len(v) for v in entries.values())
        print(f"{os.path.basename(path)}: {total} entries, {failures} failed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
