"""Command-line front end: configs in, tables out.

Verbs
-----
enumerate   the 13 admissible flow patterns and what each admits
analyze     equilibrium/stability table for one configuration (JSON)
sweep       one-parameter branch tracking with crossing rows (CSV)
simulate    a single trajectory (CSV)
basin       attractor fractions from scattered starts (JSON)
verify      the randomized property battery (text report)

Configurations are single JSON documents (fields ``r``, ``k``, ``m``,
optional ``topology``/``seed`` and per-command option blocks).  Parsing
collects every violated invariant before failing, and a parsed
configuration re-serializes to a canonical form that is byte-identical
across runs.  Exit codes: 0 success, 1 property failure, 2 usage or
configuration error (a ``ParameterError``), 3 numerical failure (a
``NumericalError``: a solver did not converge, a bracket or the oracle
cross-check failed, an equilibrium record was stale, a spectrum
overflowed, or the integrator's step underflowed).  Any other exception
is an internal error and propagates with its traceback.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from dataclasses import dataclass

import numpy as np

from .bifurcation import sweep as _sweep
from .equilibria import ADMITTED_LABELS, find_all_equilibria
from .model import PARAM_TOKENS, ModelParams, NumericalError, ParameterError
from .simulate import basin_sample, integrate
from .stability import classify
from .topology import (
    TOPOLOGIES,
    apply_topology,
    arc_labels,
    arcs_of_topology,
    is_strongly_connected,
    zeroed_rates,
)
from .verification import run_battery

__all__ = [
    "BasinOptions",
    "ConfigError",
    "RunConfig",
    "SimulateOptions",
    "SweepOptions",
    "canonical_json",
    "load_config",
    "main",
    "parse_config",
]


class ConfigError(ParameterError):
    """A configuration document is malformed or violates invariants."""


@dataclass(frozen=True)
class SweepOptions:
    """Parameter-sweep block of a configuration."""

    param: str
    lo: float
    hi: float
    steps: int


@dataclass(frozen=True)
class SimulateOptions:
    """Trajectory block of a configuration."""

    x0: tuple[float, float, float] | None = None
    t_end: float = 100.0
    rel_tol: float = 1e-8
    abs_tol: float = 1e-10


@dataclass(frozen=True)
class BasinOptions:
    """Basin-sampling block of a configuration."""

    samples: int = 200
    t_end: float = 2000.0
    match_tol: float = 1e-4


@dataclass(frozen=True)
class RunConfig:
    """A fully validated run configuration."""

    params: ModelParams
    topology: str | None = None
    seed: int = 0
    sweep: SweepOptions | None = None
    simulate: SimulateOptions | None = None
    basin: BasinOptions | None = None


# ----------------------------------------------------------------- parsing

_TOP_KEYS = {"r", "k", "m", "topology", "seed", "sweep", "simulate", "basin"}


def _num(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool) \
        and np.isfinite(x)


def _vector(problems: list[str], doc: dict, name: str) -> list[float] | None:
    """Pull a strictly positive 3-vector, naming each bad entry."""
    if name not in doc:
        problems.append(f"{name}: required field is missing")
        return None
    raw = doc[name]
    if not isinstance(raw, list):
        problems.append(f"{name}: expected a 3-entry array, got {raw!r}")
        return None
    if len(raw) > 3:
        problems.append(f"{name}: expected 3 entries, got {len(raw)}")
        return None
    out, ok = [], True
    for i in range(3):
        token = f"{name}{i + 1}"
        if i >= len(raw):
            problems.append(f"{token}: required entry is missing")
            ok = False
        elif not _num(raw[i]):
            problems.append(f"{token}: expected a finite number, got {raw[i]!r}")
            ok = False
        elif raw[i] <= 0.0:
            problems.append(f"{token}: must be strictly positive, got {raw[i]}")
            ok = False
        else:
            out.append(float(raw[i]))
    return out if ok else None


def _matrix(problems: list[str], doc: dict) -> list[list[float]] | None:
    """Pull the 3x3 migration-rate matrix, naming bad entries mIJ."""
    if "m" not in doc:
        problems.append("m: required field is missing")
        return None
    raw = doc["m"]
    if (not isinstance(raw, list) or len(raw) != 3
            or any(not isinstance(row, list) or len(row) != 3 for row in raw)):
        problems.append("m: expected a 3x3 array of rates")
        return None
    ok = True
    for i in range(3):
        for j in range(3):
            token = f"m{i + 1}{j + 1}"
            v = raw[i][j]
            if not _num(v):
                problems.append(f"{token}: expected a finite number, got {v!r}")
                ok = False
            elif i == j and v != 0.0:
                problems.append(f"{token}: diagonal rate must be zero, got {v}")
                ok = False
            elif v < 0.0:
                problems.append(f"{token}: must be nonnegative, got {v}")
                ok = False
    return [[float(v) for v in row] for row in raw] if ok else None


def _opt_number(problems: list[str], blk: dict, scope: str, key: str,
                default, positive: bool = True):
    if key not in blk:
        return default
    v = blk[key]
    if not _num(v) or (positive and v <= 0.0):
        problems.append(f"{scope}.{key}: expected a positive finite number, "
                        f"got {v!r}")
        return default
    return float(v)


def _opt_int(problems: list[str], blk: dict, scope: str, key: str,
             default, minimum: int):
    if key not in blk:
        return default
    v = blk[key]
    if not isinstance(v, int) or isinstance(v, bool) or v < minimum:
        problems.append(f"{scope}.{key}: expected an integer >= {minimum}, "
                        f"got {v!r}")
        return default
    return v


def _block(problems: list[str], doc: dict, name: str,
           allowed: set[str]) -> dict | None:
    if name not in doc:
        return None
    blk = doc[name]
    if not isinstance(blk, dict):
        problems.append(f"{name}: expected an object, got {blk!r}")
        return None
    for key in sorted(set(blk) - allowed):
        problems.append(f"{name}.{key}: unknown field")
    return blk


def parse_config(text: str) -> RunConfig:
    """Parse and validate a JSON configuration document.

    Every violated invariant is collected and reported in a single
    :class:`ConfigError`, with entries named by their 1-based tokens
    (``k2``, ``m21``, ...).
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"invalid JSON at line {exc.lineno}, column {exc.colno}: "
            f"{exc.msg}") from None
    if not isinstance(doc, dict):
        raise ConfigError("top level must be a JSON object")

    problems: list[str] = []
    for key in sorted(set(doc) - _TOP_KEYS):
        problems.append(f"{key}: unknown field")

    r = _vector(problems, doc, "r")
    k = _vector(problems, doc, "k")
    m = _matrix(problems, doc)

    topology = doc.get("topology")
    if topology is not None and topology not in TOPOLOGIES:
        problems.append(f"topology: unknown token {topology!r}; expected one "
                        f"of {', '.join(TOPOLOGIES)}")
        topology = None

    seed = _opt_int(problems, doc, "config", "seed", 0, 0)

    sweep_opts = None
    blk = _block(problems, doc, "sweep", {"param", "lo", "hi", "steps"})
    if blk is not None:
        param = blk.get("param")
        if param not in PARAM_TOKENS:
            problems.append(f"sweep.param: expected one of "
                            f"{', '.join(PARAM_TOKENS)}, got {param!r}")
        lo = _opt_number(problems, blk, "sweep", "lo", None, positive=False)
        hi = _opt_number(problems, blk, "sweep", "hi", None, positive=False)
        for key, v in (("lo", lo), ("hi", hi)):
            if key not in blk:
                problems.append(f"sweep.{key}: required field is missing")
        steps = _opt_int(problems, blk, "sweep", "steps", None, 2)
        if "steps" not in blk:
            problems.append("sweep.steps: required field is missing")
        if param in PARAM_TOKENS and lo is not None and hi is not None \
                and steps is not None:
            sweep_opts = SweepOptions(param, lo, hi, steps)

    sim_opts = None
    blk = _block(problems, doc, "simulate",
                 {"x0", "t_end", "rel_tol", "abs_tol"})
    if blk is not None:
        x0 = None
        if "x0" in blk:
            raw = blk["x0"]
            if (not isinstance(raw, list) or len(raw) != 3
                    or any(not _num(v) or v < 0.0 for v in raw)):
                problems.append(f"simulate.x0: expected 3 nonnegative "
                                f"numbers, got {raw!r}")
            else:
                x0 = tuple(float(v) for v in raw)
        sim_opts = SimulateOptions(
            x0=x0,
            t_end=_opt_number(problems, blk, "simulate", "t_end", 100.0),
            rel_tol=_opt_number(problems, blk, "simulate", "rel_tol", 1e-8),
            abs_tol=_opt_number(problems, blk, "simulate", "abs_tol", 1e-10))

    basin_opts = None
    blk = _block(problems, doc, "basin", {"samples", "t_end", "match_tol"})
    if blk is not None:
        basin_opts = BasinOptions(
            samples=_opt_int(problems, blk, "basin", "samples", 200, 1),
            t_end=_opt_number(problems, blk, "basin", "t_end", 2000.0),
            match_tol=_opt_number(problems, blk, "basin", "match_tol", 1e-4))

    if problems:
        raise ConfigError("invalid configuration:\n  " + "\n  ".join(problems))
    try:
        params = ModelParams(np.array(r), np.array(k), np.array(m))
    except ParameterError as exc:  # safety net; fields were pre-checked
        raise ConfigError(str(exc)) from None
    return RunConfig(params=params, topology=topology, seed=seed,
                     sweep=sweep_opts, simulate=sim_opts, basin=basin_opts)


def load_config(path: str) -> RunConfig:
    """Read and parse a configuration file."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from None
    try:
        return parse_config(text)
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from None


def canonical_json(cfg: RunConfig) -> str:
    """Canonical serialization; parse -> serialize -> parse is identity."""
    doc: dict = {
        "r": [float(v) for v in cfg.params.r],
        "k": [float(v) for v in cfg.params.k],
        "m": [[float(v) for v in row] for row in cfg.params.m],
        "seed": cfg.seed,
    }
    if cfg.topology is not None:
        doc["topology"] = cfg.topology
    if cfg.sweep is not None:
        s = cfg.sweep
        doc["sweep"] = {"param": s.param, "lo": s.lo, "hi": s.hi,
                        "steps": s.steps}
    if cfg.simulate is not None:
        s = cfg.simulate
        doc["simulate"] = {"t_end": s.t_end, "rel_tol": s.rel_tol,
                           "abs_tol": s.abs_tol}
        if s.x0 is not None:
            doc["simulate"]["x0"] = list(s.x0)
    if cfg.basin is not None:
        b = cfg.basin
        doc["basin"] = {"samples": b.samples, "t_end": b.t_end,
                        "match_tol": b.match_tol}
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


# ------------------------------------------------------------------ verbs

def _resolve(cfg: RunConfig, args) -> tuple[str, ModelParams, int]:
    """Topology token, projected parameters, and effective seed."""
    topo = args.topology or cfg.topology or "FULL"
    seed = cfg.seed if args.seed is None else args.seed
    return topo, apply_topology(cfg.params, topo), seed


def _fmt(v: float) -> str:
    return repr(float(v))


def cmd_enumerate(args) -> tuple[str, int]:
    """Atlas of the 13 canonical flow patterns."""
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["topology", "arcs", "zeroed_rates", "strongly_connected",
                "admitted_labels"])
    for topo in TOPOLOGIES:
        arcs = arcs_of_topology(topo)
        zeroed = " ".join(f"m{i + 1}{j + 1}" for i, j in zeroed_rates(topo))
        w.writerow([
            topo,
            " ".join(arc_labels(arcs)),
            zeroed,
            "true" if is_strongly_connected(arcs) else "false",
            " ".join(ADMITTED_LABELS[topo]),
        ])
    return buf.getvalue(), 0


def _report_doc(topo: str, params: ModelParams, seed: int) -> dict:
    out = []
    for rec in find_all_equilibria(topo, params, seed=seed):
        rep = classify(topo, rec, params)
        out.append({
            "label": rec.label,
            "point": [float(v) for v in rec.point],
            "feasible": bool(rec.feasible),
            "residual": float(rec.residual),
            "classification": rep.classification,
            "eigenvalues": [{"re": z.real, "im": z.imag}
                            for z in rep.eigenvalues],
            "coefficients": {"trace": rep.coefficients.trace,
                             "m_j": rep.coefficients.m_j,
                             "det": rep.coefficients.det},
            "conditions": [{"id": c.cid, "kind": c.kind, "holds": c.holds,
                            "lhs": c.lhs, "rhs": c.rhs}
                           for c in rep.conditions],
        })
    out.sort(key=lambda d: (d["label"], d["point"]))
    return {
        "command": "analyze",
        "seed": seed,
        "topology": topo,
        "params": {"r": [float(v) for v in params.r],
                   "k": [float(v) for v in params.k],
                   "m": [[float(v) for v in row] for row in params.m]},
        "equilibria": out,
    }


def cmd_analyze(args) -> tuple[str, int]:
    """Equilibrium/stability table as a JSON document."""
    cfg = load_config(args.config)
    topo, params, seed = _resolve(cfg, args)
    doc = _report_doc(topo, params, seed)
    return json.dumps(doc, sort_keys=True, indent=2) + "\n", 0


def cmd_sweep(args) -> tuple[str, int]:
    """One-parameter sweep as CSV with appended crossing rows."""
    cfg = load_config(args.config)
    topo, params, seed = _resolve(cfg, args)
    base = cfg.sweep
    param = args.param or (base.param if base else None)
    lo = args.lo if args.lo is not None else (base.lo if base else None)
    hi = args.hi if args.hi is not None else (base.hi if base else None)
    steps = args.steps if args.steps is not None else (
        base.steps if base else None)
    missing = [n for n, v in (("param", param), ("lo", lo), ("hi", hi),
                              ("steps", steps)) if v is None]
    if missing:
        raise ConfigError(
            "sweep needs " + ", ".join(f"--{n}" for n in missing)
            + " (flags or a sweep block in the config)")

    records = _sweep(topo, params, param, float(lo), float(hi), int(steps))
    buf = io.StringIO()
    buf.write(f"# seed={seed} topology={topo} param={param} "
              f"lo={_fmt(lo)} hi={_fmt(hi)} steps={int(steps)}\n")
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["param_name", "param_value", "eq_label", "p1", "p2", "p3",
                "feasible", "class", "lead_re", "lead_im", "crossing"])
    crossing_rows = []
    for rec in records:
        for eq, rep in zip(rec.equilibria, rec.reports):
            lead = rep.eigenvalues[0]
            w.writerow([param, _fmt(rec.param_value), eq.label,
                        _fmt(eq.point[0]), _fmt(eq.point[1]),
                        _fmt(eq.point[2]),
                        "true" if eq.feasible else "false",
                        rep.classification, _fmt(lead.real), _fmt(lead.imag),
                        ""])
        for c in rec.crossings:
            crossing_rows.append([param, _fmt(c.param_value), c.label,
                                  _fmt(c.point[0]), _fmt(c.point[1]),
                                  _fmt(c.point[2]), "",
                                  "CROSSING", _fmt(c.eig_re), _fmt(c.eig_im),
                                  c.kind])
    w.writerows(crossing_rows)
    return buf.getvalue(), 0


def cmd_simulate(args) -> tuple[str, int]:
    """Integrate one trajectory and emit it as CSV."""
    cfg = load_config(args.config)
    topo, params, seed = _resolve(cfg, args)
    opts = cfg.simulate or SimulateOptions()
    t_end = args.t_end if args.t_end is not None else opts.t_end
    x0 = np.array(opts.x0) if opts.x0 is not None else np.array(params.k)
    traj = integrate(params, x0, float(t_end),
                     rel_tol=opts.rel_tol, abs_tol=opts.abs_tol)
    buf = io.StringIO()
    buf.write(f"# seed={seed} topology={topo} terminal={traj.terminal} "
              f"t_end={_fmt(t_end)}\n")
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["t", "p1", "p2", "p3"])
    for t, x in zip(traj.times, traj.states):
        w.writerow([_fmt(t), _fmt(x[0]), _fmt(x[1]), _fmt(x[2])])
    return buf.getvalue(), 0


def cmd_basin(args) -> tuple[str, int]:
    """Attractor fractions from scattered starts, as JSON."""
    cfg = load_config(args.config)
    topo, params, seed = _resolve(cfg, args)
    opts = cfg.basin or BasinOptions()
    samples = args.samples if args.samples is not None else opts.samples
    fractions = basin_sample(topo, params, n=int(samples), seed=seed,
                             t_end=opts.t_end, match_tol=opts.match_tol)
    doc = {
        "command": "basin",
        "seed": seed,
        "samples": int(samples),
        "topology": topo,
        "t_end": opts.t_end,
        "fractions": fractions,
    }
    return json.dumps(doc, sort_keys=True, indent=2) + "\n", 0


def cmd_verify(args) -> tuple[str, int]:
    """Run the property battery; exit 1 if anything fails."""
    seed = args.seed if args.seed is not None else 0
    n = args.samples if args.samples is not None else 200
    results = run_battery(seed=seed, n=n)
    lines = [f"# seed={seed} n={n}"]
    for res in results:
        tag = "PASS" if res.passed else "FAIL"
        lines.append(f"{tag} {res.name}: {res.detail}")
    failed = sum(1 for res in results if not res.passed)
    lines.append(f"{len(results) - failed}/{len(results)} properties passed")
    return "\n".join(lines) + "\n", (1 if failed else 0)


# ------------------------------------------------------------------- main

def _at_least(minimum: int):
    """argparse type: an integer no smaller than ``minimum``."""
    def parse(text: str) -> int:
        try:
            if int(text) >= minimum:
                return int(text)
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(
            f"expected an integer >= {minimum}, got {text!r}")
    return parse


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tripatch",
        description="Three-patch population-flow model: equilibria, "
                    "stability, sweeps, trajectories.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, help_, *, config=False, seeded=False):
        p = sub.add_parser(name, help=help_)
        p.set_defaults(handler=fn)
        if config:
            p.add_argument("--config", required=True,
                           help="path to a JSON configuration")
            p.add_argument("--topology", choices=TOPOLOGIES,
                           help="override the config topology token")
        if seeded:
            p.add_argument("--seed", type=_at_least(0), default=None,
                           help="RNG seed (default 0; echoed in output)")
        p.add_argument("--out", help="write output here instead of stdout")
        return p

    add("enumerate", cmd_enumerate, "list the 13 canonical flow patterns")
    add("analyze", cmd_analyze, "equilibrium/stability table (JSON)",
        config=True, seeded=True)

    p = add("sweep", cmd_sweep, "one-parameter sweep (CSV)",
            config=True, seeded=True)
    p.add_argument("--param", choices=PARAM_TOKENS,
                   help="parameter token to sweep")
    p.add_argument("--lo", type=float, help="sweep lower bound")
    p.add_argument("--hi", type=float, help="sweep upper bound")
    p.add_argument("--steps", type=_at_least(2),
                   help="number of grid values")

    p = add("simulate", cmd_simulate, "integrate one trajectory (CSV)",
            config=True, seeded=True)
    p.add_argument("--t-end", type=float, default=None,
                   help="integration horizon (default from config or 100)")

    p = add("basin", cmd_basin, "basin fractions from scattered starts",
            config=True, seeded=True)
    p.add_argument("--samples", type=_at_least(1), default=None,
                   help="number of starting points (default from config "
                        "or 200)")

    p = add("verify", cmd_verify, "run the property battery", seeded=True)
    p.add_argument("--samples", type=_at_least(1), default=None,
                   help="draws per property (default 200)")
    return parser


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns the process exit code."""
    args = _build_parser().parse_args(argv)
    try:
        text, code = args.handler(args)
    except NumericalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"error: cannot write {args.out!r}: {exc}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
