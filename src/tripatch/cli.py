"""Command-line front end: configs in, tables out.

Verbs
-----
enumerate   the 13 admissible flow patterns and what each admits
analyze     equilibrium/stability table for one configuration (JSON)
sweep       one-parameter branch tracking with crossing rows (CSV)
simulate    a single trajectory (CSV)
basin       attractor fractions from scattered starts (JSON)
verify      the randomized property battery (text report)

Configurations are single JSON documents: fields ``r``, ``k``, ``m``,
optional ``topology``/``seed`` and three option blocks, ``sweep``
(``param``, ``lo``, ``hi``, ``steps``; all required), ``simulate``
(``x0``, ``t_end``, ``rel_tol``, ``abs_tol``) and ``basin`` (``samples``,
``t_end``, ``match_tol``).  A block's fields, their kinds and their
defaults are written once, in its dataclass (:class:`SweepOptions`,
:class:`SimulateOptions`, :class:`BasinOptions`); the parser and
:func:`canonical_json` walk its ``dataclasses.fields``.  Parsing
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
import math
import sys
from dataclasses import MISSING, asdict, dataclass, field, fields

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


# ------------------------------------------------------------ field kinds
#
# Each kind maps a JSON value to a field value, or raises ValueError with
# the text that follows "expected" in the problem it reports.


def _float(v) -> float | None:
    """``v`` as a float if it is a JSON number a float holds finitely."""
    if isinstance(v, (int, float)) and not isinstance(v, bool):
        try:
            f = float(v)
        except OverflowError:  # an integer beyond the float range
            return None
        if math.isfinite(f):
            return f
    return None


def _finite(v) -> float:
    if (f := _float(v)) is None:
        raise ValueError("a finite number")
    return f


def _positive(v) -> float:
    if (f := _float(v)) is None or f <= 0.0:
        raise ValueError("a positive finite number")
    return f


def _integer(least: int):
    def parse(v) -> int:
        if not isinstance(v, int) or isinstance(v, bool) or v < least:
            raise ValueError(f"an integer >= {least}")
        return v
    return parse


def _token(v) -> str:
    if v not in PARAM_TOKENS:
        raise ValueError(f"one of {', '.join(PARAM_TOKENS)}")
    return v


def _state(v) -> tuple[float, float, float]:
    if (not isinstance(v, list) or len(v) != 3
            or any(_float(x) is None or x < 0.0 for x in v)):
        raise ValueError("3 nonnegative numbers")
    return tuple(float(x) for x in v)


def _option(kind, default=MISSING):
    """A block field read by ``kind``; without a default it is required."""
    return field(default=default, metadata={"kind": kind})


# The option blocks: each dataclass is the only place that names its
# block's fields, their kinds and their defaults.

@dataclass(frozen=True)
class SweepOptions:
    """Parameter-sweep block of a configuration."""

    param: str = _option(_token)
    lo: float = _option(_finite)
    hi: float = _option(_finite)
    steps: int = _option(_integer(2))


@dataclass(frozen=True)
class SimulateOptions:
    """Trajectory block of a configuration."""

    x0: tuple[float, float, float] | None = _option(_state, None)
    t_end: float = _option(_positive, 100.0)
    rel_tol: float = _option(_positive, 1e-8)
    abs_tol: float = _option(_positive, 1e-10)


@dataclass(frozen=True)
class BasinOptions:
    """Basin-sampling block of a configuration."""

    samples: int = _option(_integer(1), 200)
    t_end: float = _option(_positive, 2000.0)
    match_tol: float = _option(_positive, 1e-4)


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

_BLOCKS = {"sweep": SweepOptions, "simulate": SimulateOptions,
           "basin": BasinOptions}


def _read(problems: list[str], name: str, kind, v):
    """``kind(v)``, or None with the problem recorded under ``name``."""
    try:
        return kind(v)
    except ValueError as exc:
        problems.append(f"{name}: expected {exc}, got {v!r}")
        return None


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
    out = []
    for i in range(3):
        token = f"{name}{i + 1}"
        if i >= len(raw):
            problems.append(f"{token}: required entry is missing")
        elif (v := _read(problems, token, _finite, raw[i])) is not None:
            if v > 0.0:
                out.append(v)
            else:
                problems.append(f"{token}: must be strictly positive, "
                                f"got {raw[i]}")
    return out if len(out) == 3 else None


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
    before = len(problems)
    for i in range(3):
        for j in range(3):
            token = f"m{i + 1}{j + 1}"
            v = raw[i][j]
            if _read(problems, token, _finite, v) is None:
                continue
            if i == j and v != 0.0:
                problems.append(f"{token}: diagonal rate must be zero, got {v}")
            elif v < 0.0:
                problems.append(f"{token}: must be nonnegative, got {v}")
    if len(problems) > before:
        return None
    return [[float(v) for v in row] for row in raw]


def _options(problems: list[str], doc: dict, name: str):
    """Option block ``name`` of ``doc``, read field by field from its
    dataclass; None when the block is absent or has a problem."""
    if name not in doc:
        return None
    blk, cls, before = doc[name], _BLOCKS[name], len(problems)
    if not isinstance(blk, dict):
        problems.append(f"{name}: expected an object, got {blk!r}")
        return None
    known = fields(cls)
    for key in sorted(set(blk) - {f.name for f in known}):
        problems.append(f"{name}.{key}: unknown field")
    values = {}
    for f in known:
        if f.name in blk:
            values[f.name] = _read(problems, f"{name}.{f.name}",
                                   f.metadata["kind"], blk[f.name])
        elif f.default is MISSING:
            problems.append(f"{name}.{f.name}: required field is missing")
    return cls(**values) if len(problems) == before else None


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
    except ValueError as exc:  # an integer literal too long to convert
        raise ConfigError(f"invalid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ConfigError("top level must be a JSON object")

    problems: list[str] = []
    for key in sorted(set(doc) - {"r", "k", "m", "topology", "seed", *_BLOCKS}):
        problems.append(f"{key}: unknown field")

    r = _vector(problems, doc, "r")
    k = _vector(problems, doc, "k")
    m = _matrix(problems, doc)

    topology = doc.get("topology")
    if topology is not None and topology not in TOPOLOGIES:
        problems.append(f"topology: unknown token {topology!r}; expected one "
                        f"of {', '.join(TOPOLOGIES)}")

    seed = _read(problems, "config.seed", _integer(0),
                 doc.get("seed", RunConfig.seed))
    blocks = {name: _options(problems, doc, name) for name in _BLOCKS}

    if problems:
        raise ConfigError("invalid configuration:\n  " + "\n  ".join(problems))
    try:
        params = ModelParams(np.array(r), np.array(k), np.array(m))
    except ParameterError as exc:  # safety net; fields were pre-checked
        raise ConfigError(str(exc)) from None
    return RunConfig(params=params, topology=topology, seed=seed, **blocks)


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


def _params_doc(params: ModelParams) -> dict:
    """``r``, ``k`` and ``m`` of a parameter set as JSON lists of floats."""
    return {"r": params.r.tolist(), "k": params.k.tolist(), "m": params.m.tolist()}


def canonical_json(cfg: RunConfig) -> str:
    """Canonical serialization; parse -> serialize -> parse is identity."""
    doc: dict = {**_params_doc(cfg.params), "seed": cfg.seed}
    if cfg.topology is not None:
        doc["topology"] = cfg.topology
    for name in _BLOCKS:
        opts = getattr(cfg, name)
        if opts is not None:
            doc[name] = {k: v for k, v in asdict(opts).items() if v is not None}
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


# ------------------------------------------------------------------ verbs

def _settings(args, block: str | None = None):
    """A verb's topology token, projected parameters, seed and options.

    Each setting is the flag if given, else the config's field, else the
    default; the options are those of config block ``block``, if any.
    """
    cfg = load_config(args.config)
    topo = args.topology or cfg.topology or "FULL"
    seed = cfg.seed if args.seed is None else args.seed
    params = apply_topology(cfg.params, topo)
    if block is None:
        return topo, params, seed, None
    given, plan = getattr(cfg, block), {}
    for f in fields(_BLOCKS[block]):
        flag = getattr(args, f.name, None)
        plan[f.name] = getattr(given, f.name, f.default) if flag is None else flag
    missing = [f"--{name}" for name, v in plan.items() if v is MISSING]
    if missing:
        raise ConfigError(f"{block} needs " + ", ".join(missing)
                          + f" (flags or a {block} block in the config)")
    return topo, params, seed, _BLOCKS[block](**plan)


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
        "params": _params_doc(params),
        "equilibria": out,
    }


def cmd_analyze(args) -> tuple[str, int]:
    """Equilibrium/stability table as a JSON document."""
    topo, params, seed, _ = _settings(args)
    doc = _report_doc(topo, params, seed)
    return json.dumps(doc, sort_keys=True, indent=2) + "\n", 0


def cmd_sweep(args) -> tuple[str, int]:
    """One-parameter sweep as CSV with appended crossing rows."""
    topo, params, seed, opts = _settings(args, "sweep")
    param = opts.param
    records = _sweep(topo, params, param, opts.lo, opts.hi, opts.steps, seed)
    buf = io.StringIO()
    buf.write(f"# seed={seed} topology={topo} param={param} "
              f"lo={_fmt(opts.lo)} hi={_fmt(opts.hi)} steps={opts.steps}\n")
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["param_name", "param_value", "eq_label", "p1", "p2", "p3",
                "feasible", "class", "lead_re", "lead_im", "crossing"])
    crossing_rows = []
    for rec in records:
        for eq, rep in zip(rec.equilibria, rec.reports):
            lead = rep.eigenvalues[0]
            w.writerow([param, _fmt(rec.param_value), eq.label, *map(_fmt, eq.point),
                        "true" if eq.feasible else "false",
                        rep.classification, _fmt(lead.real), _fmt(lead.imag), ""])
        for c in rec.crossings:
            crossing_rows.append([param, _fmt(c.param_value), c.label,
                                  *map(_fmt, c.point), "", "CROSSING",
                                  _fmt(c.eig_re), _fmt(c.eig_im), c.kind])
    w.writerows(crossing_rows)
    return buf.getvalue(), 0


def cmd_simulate(args) -> tuple[str, int]:
    """Integrate one trajectory and emit it as CSV."""
    topo, params, seed, opts = _settings(args, "simulate")
    x0 = np.array(opts.x0) if opts.x0 is not None else np.array(params.k)
    traj = integrate(params, x0, opts.t_end,
                     rel_tol=opts.rel_tol, abs_tol=opts.abs_tol)
    buf = io.StringIO()
    buf.write(f"# seed={seed} topology={topo} terminal={traj.terminal} "
              f"t_end={_fmt(opts.t_end)}\n")
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["t", "p1", "p2", "p3"])
    for t, x in zip(traj.times, traj.states):
        w.writerow([_fmt(t), _fmt(x[0]), _fmt(x[1]), _fmt(x[2])])
    return buf.getvalue(), 0


def cmd_basin(args) -> tuple[str, int]:
    """Attractor fractions from scattered starts, as JSON."""
    topo, params, seed, opts = _settings(args, "basin")
    fractions = basin_sample(topo, params, n=opts.samples, seed=seed,
                             t_end=opts.t_end, match_tol=opts.match_tol)
    doc = {
        "command": "basin",
        "seed": seed,
        "samples": opts.samples,
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
                   help="integration horizon (default from config or "
                        f"{SimulateOptions.t_end:g})")

    p = add("basin", cmd_basin, "basin fractions from scattered starts",
            config=True, seeded=True)
    p.add_argument("--samples", type=_at_least(1), default=None,
                   help="number of starting points (default from config "
                        f"or {BasinOptions.samples})")

    p = add("verify", cmd_verify, "run the property battery", seeded=True)
    p.add_argument("--samples", type=_at_least(1), default=None,
                   help="draws per property (default 200)")
    return parser


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns the process exit code."""
    args = _build_parser().parse_args(argv)
    try:
        text, code = args.handler(args)
    except (NumericalError, ParameterError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3 if isinstance(exc, NumericalError) else 2
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
