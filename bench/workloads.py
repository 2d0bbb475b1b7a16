"""Seeded inputs, operations and output checks of the four workloads.

Parameter sets come from the standard box (r, k in [0.1, 5], off-diagonal
m in [0, 2]).  Each workload keys its NumPy generator on (workload tag,
seed), so one seed always gives the same inputs.

A workload hands out operations by index: ``op(k)`` returns ``(run,
check)``.  ``run()`` calls the public API (or one CLI process) and returns
its output; ``check(output)`` returns ``None`` when the output is right and
a one-line description of the problem otherwise.  Input generation and
checks happen outside ``run()``, so they never count as op time.

The in-process workloads import ``tripatch`` in their constructor and call
it through module attributes (``equilibria.find_all_equilibria``), so the
traced run sees every call once its wrappers are installed.  The ``cli``
workload never imports ``tripatch`` itself.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
import subprocess
import sys
import time

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
SCAN_REFERENCE = os.path.join(HERE, "scan_reference.json")
BASIN_REFERENCE = os.path.join(HERE, "basin_reference.json")
CLI_CHILD = os.path.join(HERE, "cli_child.py")

#: Generator tags, one per workload, so seeds never share a stream.
_TAGS = {"scan": 1, "sweep": 2, "basin": 3, "cli": 4, "warm_up": 5}

#: The scan pool: draws per topology, generated from one fixed seed.  A
#: run's seed picks the order in which the pool is visited; the stored
#: reference holds the expected result of every pool entry.
SCAN_MASTER_SEED = 20140318
SCAN_PER_TOPOLOGY = 160

#: Tolerances of the output checks.
RESIDUAL_LIMIT = 1e-8
POINT_TOL = 1e-6
CROSSING_TOL = 1e-6
FRACTION_TOL = 1e-12

#: One-way patterns whose catalog has single-parameter thresholds.
SWEEP_TOPOLOGIES = ("EX6", "EX7", "EX7N", "EX8", "EX2N",
                    "CHAIN", "CONVERGE", "DIVERGE")
SWEEP_STEPS = 14
BASIN_STARTS = 200
#: Acceptance criterion 10's draws: ``default_rng(1010)``, 50 draws.
BASIN_POOL_SEED = 1010
BASIN_POOL = 50


def basin_pool() -> list[tuple]:
    """Raw draws of the basin pool, in acceptance-10 order."""
    rng = np.random.default_rng(BASIN_POOL_SEED)
    return [draw(rng) for _ in range(BASIN_POOL)]


def draw(rng) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One raw parameter draw ``(r, k, m)`` from the standard box."""
    m = rng.uniform(0.0, 2.0, (3, 3))
    np.fill_diagonal(m, 0.0)
    return rng.uniform(0.1, 5.0, 3), rng.uniform(0.1, 5.0, 3), m


def scan_pool(topologies) -> dict[str, list[tuple]]:
    """Raw draws of the scan pool, ``SCAN_PER_TOPOLOGY`` per topology."""
    rng = np.random.default_rng(SCAN_MASTER_SEED)
    return {topo: [draw(rng) for _ in range(SCAN_PER_TOPOLOGY)]
            for topo in topologies}


def pool_digest(pool: dict[str, list[tuple]]) -> str:
    """SHA-256 of the pool's raw draws, to pin them to the reference."""
    h = hashlib.sha256()
    for topo in sorted(pool):
        h.update(topo.encode())
        for r, k, m in pool[topo]:
            h.update(np.concatenate([r, k, m.ravel()]).tobytes())
    return h.hexdigest()


def load_reference(path: str, pool: dict[str, list[tuple]]) -> dict:
    """The stored ``entries`` of a reference, after checking its pool digest."""
    with open(path, encoding="utf-8") as fh:
        ref = json.load(fh)
    if ref["digest"] != pool_digest(pool):
        raise RuntimeError(f"pool draws do not match {os.path.basename(path)}; "
                           "regenerate it with make_reference.py")
    return ref["entries"]


def scan_rows(records, reports) -> list[list]:
    """``[label, classification, x, y, z]`` rows in a canonical order."""
    rows = [[rec.label, rep.classification, *(float(v) for v in rec.point)]
            for rec, rep in zip(records, reports)]
    rows.sort(key=lambda row: (row[0], row[1], row[2:]))
    return rows


# ------------------------------------------------------------------ checks

def check_scan(strong: bool, expected, output) -> str | None:
    """Residuals, the strong-connectivity set, and the stored reference."""
    records, reports = output
    worst = max(rec.residual for rec in records)
    if worst > RESIDUAL_LIMIT:
        return f"residual {worst:.2e} > {RESIDUAL_LIMIT:.0e}"
    if strong:
        labels = sorted(rec.label for rec in records)
        if labels != ["COEX", "ORIGIN"]:
            return f"strongly connected pattern gave labels {labels}"
    if isinstance(expected, dict):
        return f"reference records a failure: {expected['error']}"
    rows = scan_rows(records, reports)
    if len(rows) != len(expected):
        return f"{len(rows)} equilibria, reference has {len(expected)}"
    for got, want in zip(rows, expected):
        if got[:2] != want[:2]:
            return f"{got[:2]} where the reference has {want[:2]}"
        gap = max(abs(a - b) for a, b in zip(got[2:], want[2:]))
        if gap > POINT_TOL:
            return f"{got[0]} is {gap:.2e} from the reference point"
    return None


def check_sweep(threshold: float, records) -> str | None:
    """Some refined crossing lies within 1e-6 of the analytic threshold."""
    crossings = [c for rec in records for c in rec.crossings]
    if not crossings:
        return f"no crossing around threshold {threshold!r}"
    err = min(abs(c.param_value - threshold) for c in crossings)
    if err > CROSSING_TOL:
        return f"nearest crossing is {err:.2e} from threshold {threshold!r}"
    return None


def check_basin(expected: dict[str, float], fractions: dict[str, float]
                ) -> str | None:
    """Fractions sum to 1, no start diverged or ended unmatched, and the
    fractions match the stored reference.

    MAX_TIME is a documented finding, not an error; the traced run
    reports its share as ``simulate.integrate.max_time_share``.  A change
    in it, or in any other fraction, from the reference is an error.
    """
    total = sum(fractions.values())
    if abs(total - 1.0) > FRACTION_TOL:
        return f"fractions sum to {total!r}"
    bad = sorted(set(fractions) & {"DIVERGED", "UNMATCHED"})
    if bad:
        return f"terminal keys {bad} in {fractions}"
    if set(fractions) != set(expected) or any(
            abs(fractions[key] - want) > FRACTION_TOL
            for key, want in expected.items()):
        return f"fractions {fractions} where the reference has {expected}"
    return None


def parse_cli_stdout(verb: str, text: str) -> str | None:
    """JSON verbs must parse as JSON; CSV verbs as a rectangular table."""
    if verb in ("analyze", "basin"):
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            return f"{verb} stdout is not JSON: {exc}"
        return None if isinstance(doc, dict) else f"{verb} stdout is not an object"
    lines = [ln for ln in text.splitlines() if not ln.startswith("#")]
    rows = list(csv.reader(lines))
    if len(rows) < 2:
        return f"{verb} stdout has {len(rows)} CSV rows"
    width = len(rows[0])
    if any(len(row) != width for row in rows):
        return f"{verb} stdout is not a rectangular CSV table"
    return None


# --------------------------------------------------------------- workloads
#
# Each workload fixes the percentile that ``latency_tail_ms`` reports: the
# highest of 99, 95 and 90 with at least 10 samples above it in a 25 s run
# at the commit that added the benchmark (about 3500 scan and 240 sweep
# ops).  basin and cli time fewer than 100 ops (50 and 15), so theirs is
# the 90th with fewer than 10 above.  A fixed percentile keeps runs of
# a faster or slower program comparable; one that follows the op count
# would move the tail on its own.
#
# ``lap`` is the length of a workload's input cycle: the end-to-end times
# use whole laps only (see ``worker.measure``).  ``sweep`` draws iid
# inputs, so every op is a lap.

class Scan:
    """``find_all_equilibria`` then ``classify`` of every record.

    Op ``k`` uses topology ``TOPOLOGIES[k % 13]`` and the next pool entry
    of that topology in the seed's order, with the entry's index as the
    oracle seed (as the reference was made).
    """

    name = "scan"
    tail_percentile = 99

    def __init__(self, seed: int):
        from tripatch import equilibria, stability, topology
        from tripatch.model import ModelParams

        self.eq, self.st = equilibria, stability
        self.topologies = topology.TOPOLOGIES
        pool = scan_pool(self.topologies)
        self.expected = load_reference(SCAN_REFERENCE, pool)
        self.params = {t: [topology.apply_topology(ModelParams(*d), t)
                           for d in pool[t]] for t in self.topologies}
        self.strong = {t: topology.is_strongly_connected(
            topology.arcs_of_topology(t)) for t in self.topologies}
        rng = np.random.default_rng([_TAGS["scan"], seed])
        self.order = {t: rng.permutation(SCAN_PER_TOPOLOGY)
                      for t in self.topologies}
        self.lap = len(self.topologies) * SCAN_PER_TOPOLOGY

    def solve(self, topo, params, seed):
        records = self.eq.find_all_equilibria(topo, params, seed=seed)
        return records, [self.st.classify(topo, rec, params) for rec in records]

    def op(self, k: int):
        n = len(self.topologies)
        topo = self.topologies[k % n]
        i = int(self.order[topo][(k // n) % SCAN_PER_TOPOLOGY])
        params = self.params[topo][i]
        expected = self.expected[topo][i]
        return (lambda: self.solve(topo, params, i),
                lambda out: check_scan(self.strong[topo], expected, out))

    def warm_up(self) -> None:
        from tripatch.model import ModelParams
        from tripatch.topology import apply_topology

        rng = np.random.default_rng([_TAGS["warm_up"], 1])
        for topo in self.topologies:
            self.solve(topo, apply_topology(ModelParams(*draw(rng)), topo), 0)


class Sweep:
    """``sweep(topo, p, tok, 0.52·thr, 1.48·thr, 14)`` per analytic threshold.

    Draws cycle through ``SWEEP_TOPOLOGIES``; each distinct ``(token,
    threshold)`` pair of ``transcritical_thresholds`` is one op.  Draws
    whose catalog has no threshold add no op.
    """

    name = "sweep"
    tail_percentile = 95
    lap = 1

    def __init__(self, seed: int):
        from tripatch import bifurcation, topology
        from tripatch.model import ModelParams

        self.bif, self.topo, self.ModelParams = bifurcation, topology, ModelParams
        self.rng = np.random.default_rng([_TAGS["sweep"], seed])
        self.draws = 0
        self.ops: list[tuple] = []

    def _extend(self) -> None:
        topo = SWEEP_TOPOLOGIES[self.draws % len(SWEEP_TOPOLOGIES)]
        self.draws += 1
        params = self.topo.apply_topology(self.ModelParams(*draw(self.rng)), topo)
        seen = set()
        for tok, thr, _pair in self.bif.transcritical_thresholds(topo, params):
            if (tok, thr) not in seen:
                seen.add((tok, thr))
                self.ops.append((topo, params, tok, thr))

    def op(self, k: int):
        while len(self.ops) <= k:
            self._extend()
        topo, params, tok, thr = self.ops[k]
        return (lambda: self.bif.sweep(topo, params, tok, 0.52 * thr,
                                       1.48 * thr, SWEEP_STEPS),
                lambda out: check_sweep(thr, out))

    def warm_up(self) -> None:
        rng = np.random.default_rng([_TAGS["warm_up"], 2])
        params = self.topo.apply_topology(self.ModelParams(*draw(rng)), "EX6")
        thr = float(params.m[0, 1] + params.m[2, 1])
        self.bif.sweep("EX6", params, "r2", 0.52 * thr, 1.48 * thr, 4)


class Basin:
    """``basin_sample("FULL", p, n=200, seed=i)`` over the acceptance-10 draws.

    The pool is the 50 draws of acceptance criterion 10 (generator 1010),
    with the draw index ``i`` as the start seed, so every op repeats one
    acceptance-10 probe, MAX_TIME flags included, and its fractions must
    match ``basin_reference.json``.  The seed sets the visiting order of
    every lap through the pool.

    A fixed pool keeps runs comparable: per-draw cost varies about 4x, so
    a run of about 50 iid draws would differ from the next by about 6% in
    throughput on draw luck alone, while a run visits nearly the whole pool.
    """

    name = "basin"
    tail_percentile = 90
    lap = BASIN_POOL

    def __init__(self, seed: int):
        from tripatch import simulate
        from tripatch.model import ModelParams

        self.sim = simulate
        pool = basin_pool()
        self.expected = load_reference(BASIN_REFERENCE, {"FULL": pool})["FULL"]
        self.pool = [ModelParams(*d) for d in pool]
        self.rng = np.random.default_rng([_TAGS["basin"], seed])
        self.order: list[int] = []

    def solve(self, i: int) -> dict[str, float]:
        return self.sim.basin_sample("FULL", self.pool[i], n=BASIN_STARTS, seed=i)

    def op(self, k: int):
        while len(self.order) <= k:
            self.order.extend(int(i) for i in self.rng.permutation(BASIN_POOL))
        i = self.order[k]
        return (lambda: self.solve(i),
                lambda out: check_basin(self.expected[i], out))

    def warm_up(self) -> None:
        from tripatch.model import ModelParams

        rng = np.random.default_rng([_TAGS["warm_up"], 3])
        self.sim.basin_sample("FULL", ModelParams(*draw(rng)), n=8, seed=0)


class Cli:
    """One fresh ``python -m tripatch.cli <verb>`` process per op.

    The seed generates five invocations (analyze, a 6-point sweep,
    simulate, a 16-start basin, enumerate) over config files written to
    ``workdir``; op ``k`` runs invocation ``k % 5``, so every invocation
    repeats and its stdout must match its first run byte for byte.

    When ``trace_dir`` is set, ops run through ``cli_child.py`` instead,
    which traces the same ``tripatch.cli.main`` call and writes its spans
    to ``trace_dir/op-<k>.jsonl``.
    """

    name = "cli"
    tail_percentile = 90

    def __init__(self, seed: int, root: str, workdir: str, env: dict):
        self.root, self.env = root, env
        self.trace_dir: str | None = None
        self.first_stdout: dict[int, str] = {}
        rng = np.random.default_rng([_TAGS["cli"], seed])
        os.makedirs(workdir, exist_ok=True)
        cfg_seed = int(rng.integers(0, 1000))

        def config(name: str, topo: str, **blocks):
            r, k, m = draw(rng)
            doc = {"r": r.tolist(), "k": k.tolist(), "m": m.tolist(),
                   "topology": topo, "seed": cfg_seed, **blocks}
            path = os.path.join(workdir, f"{name}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
            return path, m

        # tripatch.topology.TOPOLOGIES, spelled out: importing it would
        # import tripatch, SciPy included, into this harness process.
        topologies = ("FULL", "EX2", "HUB0", "EX3", "EX7", "EX8", "EX1",
                      "EX6", "EX2N", "EX7N", "CHAIN", "CONVERGE", "DIVERGE")
        analyze, _ = config("analyze", topologies[int(rng.integers(13))])
        sweep, m = config("sweep", "EX6")
        thr = float(m[0, 1] + m[2, 1])  # the EX6 threshold r2 = m12 + m32
        simulate, _ = config("simulate", "FULL", simulate={"t_end": 100.0})
        basin, _ = config("basin", "FULL", basin={"samples": 16})
        self.invocations = [
            ["analyze", "--config", analyze],
            ["sweep", "--config", sweep, "--param", "r2", "--lo",
             repr(0.52 * thr), "--hi", repr(1.48 * thr), "--steps", "6"],
            ["simulate", "--config", simulate],
            ["basin", "--config", basin],
            ["enumerate"],
        ]
        self.lap = len(self.invocations)

    def launch(self, argv: list[str], trace_out: str | None = None):
        env = self.env
        if trace_out is None:
            cmd = [sys.executable, "-m", "tripatch.cli", *argv]
        else:
            cmd = [sys.executable, CLI_CHILD, *argv]
            env = dict(env, BENCH_TRACE_OUT=trace_out,
                       BENCH_SPAWN_T=repr(time.perf_counter()))
        return subprocess.run(cmd, cwd=self.root, env=env, capture_output=True,
                              text=True, timeout=120, check=False)

    def check(self, j: int, proc) -> str | None:
        verb = self.invocations[j][0]
        if proc.returncode != 0:
            return f"{verb} exited {proc.returncode}: {proc.stderr.strip()[-200:]}"
        problem = parse_cli_stdout(verb, proc.stdout)
        if problem:
            return problem
        first = self.first_stdout.setdefault(j, proc.stdout)
        if proc.stdout != first:
            return f"{verb} stdout differs from its first run with the same seed"
        return None

    def op(self, k: int):
        j = k % len(self.invocations)
        out = (None if self.trace_dir is None
               else os.path.join(self.trace_dir, f"op-{k}.jsonl"))
        return (lambda: self.launch(self.invocations[j], out),
                lambda proc: self.check(j, proc))

    def warm_up(self) -> None:
        proc = self.launch(["enumerate"])
        if proc.returncode != 0:
            raise RuntimeError(f"tripatch enumerate failed: {proc.stderr}")


WORKLOADS = ("scan", "sweep", "basin", "cli")


def make(name: str, seed: int, root: str, workdir: str, env: dict):
    """The workload ``name`` with inputs generated from ``seed``."""
    if name == "cli":
        return Cli(seed, root, workdir, env)
    return {"scan": Scan, "sweep": Sweep, "basin": Basin}[name](seed)
