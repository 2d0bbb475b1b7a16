"""Spans around the calls into each layer, recorded from outside the program.

``Wrappers`` replaces the public functions of ``tripatch`` at their module
bindings with wrappers that record one span per call: id, parent id, name,
start, end and a few attributes.  Spans stay in memory and are written out
once, when the traced run ends.  A layer's self time is its span's
duration minus the part of that interval its child spans cover.

The model's scalar kernels (``_rhs``, ``_jac``, ``_solve3``) are private
and stay unmeasured; tracing inside the program is a later change.

This module imports nothing from ``tripatch`` at import time, so the
traced CLI child can load it before timing ``import tripatch.cli``.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

_ORACLE = "equilibria.oracle"
_CLOSED = "equilibria.closed_form"
_FIND_ALL = "equilibria.find_all"
_CLASSIFY = "stability.classify"
_SWEEP = "bifurcation.sweep"
_REFINE = "bifurcation.refine_eval"
_INTEGRATE = "simulate.integrate"
OP = "op"

#: (span name, defining module, attribute, modules whose bindings are
#: wrapped or None for every tripatch module, annotate(result) -> attrs).
LAYERS = (
    (_ORACLE, "tripatch.equilibria", "brute_force_equilibria", None,
     lambda out: {"points": len(out)}),
    (_CLOSED, "tripatch.equilibria", "closed_form_equilibria", None, None),
    (_FIND_ALL, "tripatch.equilibria", "find_all_equilibria", None, None),
    (_CLASSIFY, "tripatch.stability", "classify", None, None),
    (_SWEEP, "tripatch.bifurcation", "sweep", None, None),
    # Only bifurcation's binding: there it is called once per refinement
    # evaluation, while classify reaches it through stability's binding.
    (_REFINE, "tripatch.stability", "eigenvalues_3x3",
     ("tripatch.bifurcation",), None),
    (_INTEGRATE, "tripatch.simulate", "integrate", None,
     lambda t: {"steps": len(t.times) - 1, "terminal": t.terminal}),
)


class Tracer:
    """In-memory span list: ``[id, parent, name, start, end, attrs]``."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def begin(self, name: str) -> int:
        t = time.perf_counter()
        sid = len(self.spans)
        self.spans.append([sid, self._stack[-1] if self._stack else None,
                           name, t, None, None])
        self._stack.append(sid)
        return sid

    def end(self, sid: int, attrs: dict | None = None) -> None:
        span = self.spans[sid]
        span[4] = time.perf_counter()
        span[5] = attrs
        self._stack.pop()

    def add(self, name: str, start: float, end: float) -> None:
        """A span measured elsewhere, attached to the open span if any."""
        self.spans.append([len(self.spans),
                           self._stack[-1] if self._stack else None,
                           name, start, end, None])

    def adopt(self, spans: list[list], parent: int) -> None:
        """Append another process's spans, renumbered, under ``parent``."""
        base = len(self.spans)
        for sid, par, name, start, end, attrs in spans:
            self.spans.append([base + sid, parent if par is None else base + par,
                               name, start, end, attrs])

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def load(path: str) -> list[list]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh]


def _wrap(tracer: Tracer, name: str, fn, annotate):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        sid = tracer.begin(name)
        attrs = None
        try:
            out = fn(*args, **kwargs)
            if annotate is not None:
                attrs = annotate(out)
            return out
        finally:
            tracer.end(sid, attrs)
    return traced


class Wrappers:
    """Every layer's wrapper, found once at its bindings, swapped in and out.

    ``install()`` puts the wrappers in place of the originals; ``remove()``
    puts the originals back, so the traced run can alternate traced and
    untraced ops without searching the modules again.
    """

    def __init__(self, tracer: Tracer):
        self.bindings = []  # (module, attribute, original, wrapped)
        modules = [(name, mod) for name, mod in list(sys.modules.items())
                   if mod is not None and (name == "tripatch"
                                           or name.startswith("tripatch."))]
        for span, home, attr, only, annotate in LAYERS:
            original = getattr(sys.modules[home], attr)
            wrapped = _wrap(tracer, span, original, annotate)
            for name, mod in modules:
                if only is not None and name not in only:
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self.bindings.append((mod, key, original, wrapped))

    def install(self) -> None:
        for mod, key, _, wrapped in self.bindings:
            setattr(mod, key, wrapped)

    def remove(self) -> None:
        for mod, key, original, _ in self.bindings:
            setattr(mod, key, original)


# ----------------------------------------------------------------- analysis

def covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total, cur_lo, cur_hi = 0.0, None, None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[list], exclude=()) -> dict[int, float]:
    """Self time of every span: duration minus its children's coverage.

    Children named in ``exclude`` do not count as coverage.
    """
    kids = defaultdict(list)
    for sid, parent, name, start, end, _ in spans:
        if parent is not None and name not in exclude:
            kids[parent].append((start, end))
    return {sid: (end - start) - covered(kids[sid], start, end)
            for sid, _, _, start, end, _ in spans}


#: Unit of every per-layer metric of the traced run.
UNITS = {
    "equilibria.oracle.calls": "1/op",
    "equilibria.oracle.ms_per_call": "ms",
    "equilibria.oracle.points_per_call": "count",
    "equilibria.oracle.share": "%",
    "equilibria.closed_form.us_per_call": "us",
    "equilibria.closed_form.share": "%",
    "equilibria.merge.ms_per_call": "ms",
    "equilibria.merge.share": "%",
    "stability.classify.calls": "1/op",
    "stability.classify.us_per_call": "us",
    "stability.classify.share": "%",
    "bifurcation.sweep.grid_solves": "1/op",
    "bifurcation.sweep.refine_evals": "1/op",
    "bifurcation.sweep.refine_share": "%",
    "simulate.integrate.calls": "1/op",
    "simulate.integrate.ms_per_call": "ms",
    "simulate.integrate.steps_per_call": "count",
    "simulate.integrate.us_per_step": "us",
    "simulate.integrate.max_time_share": "%",
    "simulate.integrate.share": "%",
    "cli.interpreter_ms": "ms",
    "cli.import_ms": "ms",
    "cli.import_scipy_ms": "ms",
    "cli.verb_ms": "ms",
    "trace.overhead_ms_per_op": "ms",
    "trace.overhead_ci95_ms": "ms",
    "trace.overhead_share": "%",
}


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer counts, per-call times and shares of total op time."""
    by_name = defaultdict(list)
    for span in spans:
        by_name[span[2]].append(span)
    ops = by_name[OP]
    n_ops = len(ops)
    op_time = sum(s[4] - s[3] for s in ops)
    selves = self_times(spans)
    names = {s[0]: s[2] for s in spans}

    def total(name):
        return sum(s[4] - s[3] for s in by_name[name])

    def per_call(seconds, name, unit):
        calls = len(by_name[name])
        return seconds / calls * unit if calls else 0.0

    def share(seconds):
        return 100.0 * seconds / op_time if op_time else 0.0

    oracle, closed = total(_ORACLE), total(_CLOSED)
    merge = sum(selves[s[0]] for s in by_name[_FIND_ALL])
    classify = total(_CLASSIFY)
    # Refinement is everything a sweep does besides its grid solves and
    # their classification, eigenvalue evaluations included.
    sweep_selves = self_times(spans, exclude=(_REFINE,))
    refine = sum(sweep_selves[s[0]] for s in by_name[_SWEEP])
    integrate = total(_INTEGRATE)
    steps = sum(s[5]["steps"] for s in by_name[_INTEGRATE])
    max_time = sum(1 for s in by_name[_INTEGRATE]
                   if s[5]["terminal"] == "MAX_TIME")
    n_integrate = len(by_name[_INTEGRATE])
    points = sum(s[5]["points"] for s in by_name[_ORACLE])
    grid = sum(1 for s in by_name[_FIND_ALL]
               if s[1] is not None and names[s[1]] == _SWEEP)
    return {
        "equilibria.oracle.calls": len(by_name[_ORACLE]) / n_ops,
        "equilibria.oracle.ms_per_call": per_call(oracle, _ORACLE, 1e3),
        "equilibria.oracle.points_per_call": per_call(points, _ORACLE, 1),
        "equilibria.oracle.share": share(oracle),
        "equilibria.closed_form.us_per_call": per_call(closed, _CLOSED, 1e6),
        "equilibria.closed_form.share": share(closed),
        "equilibria.merge.ms_per_call": per_call(merge, _FIND_ALL, 1e3),
        "equilibria.merge.share": share(merge),
        "stability.classify.calls": len(by_name[_CLASSIFY]) / n_ops,
        "stability.classify.us_per_call": per_call(classify, _CLASSIFY, 1e6),
        "stability.classify.share": share(classify),
        "bifurcation.sweep.grid_solves": grid / n_ops,
        "bifurcation.sweep.refine_evals": len(by_name[_REFINE]) / n_ops,
        "bifurcation.sweep.refine_share": share(refine),
        "simulate.integrate.calls": n_integrate / n_ops,
        "simulate.integrate.ms_per_call": per_call(integrate, _INTEGRATE, 1e3),
        "simulate.integrate.steps_per_call": per_call(steps, _INTEGRATE, 1),
        "simulate.integrate.us_per_step": 1e6 * integrate / steps if steps else 0.0,
        "simulate.integrate.max_time_share":
            100.0 * max_time / n_integrate if n_integrate else 0.0,
        "simulate.integrate.share": share(integrate),
    }


def scipy_import_ms(importtime_stderr: str) -> float:
    """Import time attributable to SciPy, from ``-X importtime`` output.

    Sums the cumulative time of every ``scipy`` module whose importer is
    not itself a ``scipy`` module, so nested SciPy imports count once.
    """
    rows = []
    for line in importtime_stderr.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        depth = (len(name) - len(name.lstrip())) // 2
        rows.append((depth, name.strip(), int(cumulative)))
    # Lines come in post-order (children first); reversed, a module's
    # importer precedes it.
    stack: list[tuple[int, bool]] = []
    total_us = 0
    for depth, name, cumulative in reversed(rows):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        is_scipy = name == "scipy" or name.startswith("scipy.")
        if is_scipy and not any(flag for _, flag in stack):
            total_us += cumulative
        stack.append((depth, is_scipy))
    return total_us / 1e3
