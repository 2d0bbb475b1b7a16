"""Migration topologies on three patches and their canonical forms.

An arc ``i -> j`` means migration from patch ``i`` to patch ``j`` is
allowed, i.e. rate entry ``m[j][i]`` may be positive.  A configuration
is *admissible* when no patch is isolated and the underlying undirected
graph is connected, so no patch evolves independently of the rest.  Up
to relabeling the patches there are exactly 13 admissible
configurations; each carries a stable string token used throughout the
package and in all CLI output.
"""

from __future__ import annotations

import math
import operator
from itertools import permutations

import numpy as np

from .model import ModelParams, ParameterError, _ENTRY

__all__ = [
    "TOPOLOGIES",
    "InadmissibleArcsError",
    "apply_topology",
    "arc_labels",
    "arcs_of_topology",
    "canonical_form",
    "enumerate_canonical",
    "is_admissible",
    "is_strongly_connected",
    "iter_arc_sets",
    "permute_params",
    "zeroed_rates",
]


class InadmissibleArcsError(ParameterError):
    """Raised for arc sets with an isolated patch or a disconnected graph."""


#: The 13 canonical topology tokens, full coupling first, sparsest last.
TOPOLOGIES = (
    "FULL", "EX2", "HUB0", "EX3", "EX7", "EX8", "EX1",
    "EX6", "EX2N", "EX7N", "CHAIN", "CONVERGE", "DIVERGE",
)

# Representative of each class, given by the rate entries that are pinned
# to zero (1-based tokens: mIJ is the rate into patch I from patch J).
_ZEROED = {
    "FULL": (),
    "EX2": ("m23",),
    "HUB0": ("m23", "m32"),
    "EX3": ("m31", "m12"),
    "EX7": ("m21", "m23"),
    "EX8": ("m21", "m31"),
    "EX1": ("m31", "m12", "m23"),
    "EX6": ("m21", "m31", "m23"),
    "EX2N": ("m12", "m21", "m32"),
    "EX7N": ("m21", "m23", "m12"),
    "CHAIN": ("m13", "m31", "m12", "m23"),
    "CONVERGE": ("m13", "m31", "m12", "m32"),
    "DIVERGE": ("m13", "m31", "m21", "m23"),
}

_ALL_PAIRS = ((0, 1), (0, 2), (1, 0), (1, 2), (2, 0), (2, 1))
_PERMUTATIONS = tuple(permutations(range(3)))


def zeroed_rates(topo: str) -> tuple[tuple[int, int], ...]:
    """Rate-matrix entries (0-based ``(into, from)``) pinned to zero."""
    if topo not in _ZEROED:
        raise ParameterError(f"unknown topology token {topo!r}")
    return tuple(_ENTRY[t] for t in _ZEROED[topo])


def arcs_of_topology(topo: str) -> frozenset[tuple[int, int]]:
    """Representative arc set of a topology as ``(src, dst)`` pairs."""
    zeroed = set(zeroed_rates(topo))
    return frozenset((j, i) for (i, j) in _ALL_PAIRS if (i, j) not in zeroed)


def arc_labels(arcs: frozenset[tuple[int, int]]) -> list[str]:
    """Human-readable sorted arc strings like ``'1->2'`` (1-based)."""
    return [f"{s + 1}->{d + 1}" for s, d in sorted(arcs)]


def iter_arc_sets():
    """All 64 subsets of the 6 possible arcs, as frozensets of (src, dst)."""
    all_arcs = [(j, i) for (i, j) in _ALL_PAIRS]
    for mask in range(64):
        yield frozenset(a for b, a in enumerate(all_arcs) if mask >> b & 1)


def _reaches_all(arcs, start: int) -> bool:
    """True iff every patch is reachable from ``start`` along ``arcs``."""
    seen, stack = {start}, [start]
    while stack:
        here = stack.pop()
        for s, d in arcs:
            if s == here and d not in seen:
                seen.add(d)
                stack.append(d)
    return len(seen) == 3


def _patches(values) -> tuple[int, ...] | None:
    """``values`` as a tuple of ints, or None unless each is an integer."""
    try:
        return tuple(map(operator.index, values))
    except TypeError:
        return None


def _check_arcs(arcs) -> frozenset[tuple[int, int]]:
    """``arcs`` as a frozenset, or a ParameterError naming the first arc that
    is no pair of distinct patch indices in {0, 1, 2}."""
    arcs = tuple(arcs)
    for arc in arcs:
        if not isinstance(arc, tuple) or _patches(arc) not in _ALL_PAIRS:
            raise ParameterError(f"arc {arc!r} is not a pair of distinct patches 0, 1, 2")
    return frozenset(arcs)


def is_admissible(arcs: frozenset[tuple[int, int]]) -> bool:
    """True iff no patch is isolated and the undirected graph is connected;
    an arc that is no pair of distinct patches 0, 1, 2 is a ParameterError."""
    arcs = _check_arcs(arcs)
    return _reaches_all({*arcs, *((d, s) for s, d in arcs)}, 0)


def is_strongly_connected(arcs: frozenset[tuple[int, int]]) -> bool:
    """True iff every patch is reachable from every other along arcs."""
    if not is_admissible(arcs):
        raise InadmissibleArcsError(f"arc set {sorted(arcs)} is not admissible")
    return all(_reaches_all(arcs, start) for start in range(3))


def _permute_arcs(arcs, perm) -> frozenset[tuple[int, int]]:
    """Relabel patches: ``perm[new] = old``; arcs map through the inverse."""
    inv = [perm.index(old) for old in range(3)]
    return frozenset((inv[s], inv[d]) for s, d in arcs)


def permute_params(params: ModelParams, perm: tuple[int, int, int]) -> ModelParams:
    """Relabel the patches of a parameter set.

    ``perm[new] = old``: patch ``new`` of the result is patch
    ``old`` of the input.  Both indices of ``m`` are permuted together,
    so the relabeled model generates the same dynamics up to renaming.
    """
    idx = _patches(perm)
    if idx not in _PERMUTATIONS:
        raise ParameterError(f"perm must be a permutation of (0, 1, 2), got {perm!r}")
    idx = list(idx)
    m = np.asarray(params.m)[np.ix_(idx, idx)]
    return ModelParams(np.asarray(params.r)[idx], np.asarray(params.k)[idx], m)


# Each class has exactly one representative, so the first relabeling that
# lands on any representative lands on the class's own.
_TOPOLOGY_OF = {arcs_of_topology(t): t for t in TOPOLOGIES}


def canonical_form(arcs) -> tuple[str, tuple[int, int, int]]:
    """Identify the topology class of an arc set.

    Returns the class token together with a patch relabeling ``perm``
    (``perm[new] = old``) such that relabeling the input arcs — or a
    parameter set with that sparsity, via :func:`permute_params` —
    lands exactly on the class representative of
    :func:`arcs_of_topology`.  Representatives map to themselves with
    the identity permutation.  The 13 classes hold every admissible arc
    set, so one that no relabeling lands on is inadmissible.  An arc that
    is no pair of distinct patches 0, 1, 2 is a ParameterError.
    """
    arcs = _check_arcs(arcs)
    for perm in _PERMUTATIONS:
        topo = _TOPOLOGY_OF.get(_permute_arcs(arcs, perm))
        if topo is not None:
            return topo, perm
    raise InadmissibleArcsError(f"arc set {sorted(arcs)} is not admissible")


def enumerate_canonical() -> list[tuple[str, frozenset[tuple[int, int]]]]:
    """The 13 topology classes with their representative arc sets."""
    return [(t, arcs_of_topology(t)) for t in TOPOLOGIES]


def apply_topology(params: ModelParams, topo: str) -> ModelParams:
    """Project a parameter set onto a topology by zeroing absent rates.

    A set whose absent rates are already +0.0 is returned as it is.
    """
    zeroed = zeroed_rates(topo)
    m = params.m.tolist()
    if not any(m[i][j] or math.copysign(1.0, m[i][j]) < 0.0 for i, j in zeroed):
        return params
    for i, j in zeroed:
        m[i][j] = 0.0
    return ModelParams(params.r, params.k, m)
