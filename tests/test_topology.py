"""Arc-set enumeration, canonical classes, and parameter projection."""

from __future__ import annotations

import math
import re
from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tripatch.model import ModelParams, ParameterError
from tripatch.topology import (
    TOPOLOGIES,
    InadmissibleArcsError,
    apply_topology,
    arc_labels,
    arcs_of_topology,
    canonical_form,
    enumerate_canonical,
    is_admissible,
    is_strongly_connected,
    iter_arc_sets,
    permute_params,
    zeroed_rates,
)

STRONG = {"FULL", "EX2", "HUB0", "EX3", "EX1"}


def relabel_arcs(arcs, newname):
    """Apply a patch renaming ``newname[old] = new`` to an arc set."""
    return frozenset((newname[s], newname[d]) for s, d in arcs)


class TestCensus:
    def test_thirteen_classes(self):
        classes = enumerate_canonical()
        assert len(classes) == 13
        assert [t for t, _ in classes] == list(TOPOLOGIES)

    def test_brute_force_orbits_agree(self):
        seen = {}
        admissible = 0
        for arcs in iter_arc_sets():
            if not is_admissible(arcs):
                continue
            admissible += 1
            token, _ = canonical_form(arcs)
            seen.setdefault(token, 0)
            seen[token] += 1
        assert admissible == 54, f"expected 54 admissible arc sets, got {admissible}"
        assert set(seen) == set(TOPOLOGIES)
        assert sum(seen.values()) == 54

    def test_orbit_sizes_match_symmetry(self):
        # Each class orbit has size 6 / |automorphisms of the representative|.
        for token, arcs in enumerate_canonical():
            autos = sum(
                relabel_arcs(arcs, perm) == arcs for perm in permutations(range(3))
            )
            orbit = {relabel_arcs(arcs, perm) for perm in permutations(range(3))}
            assert len(orbit) * autos == 6, f"{token}: orbit/stabilizer mismatch"

    def test_strongly_connected_set(self):
        got = {t for t, a in enumerate_canonical() if is_strongly_connected(a)}
        assert got == STRONG

    def test_iter_arc_sets_covers_all_subsets(self):
        sets = list(iter_arc_sets())
        assert len(sets) == 64
        assert len(set(sets)) == 64


class TestAdmissibility:
    def test_empty_set_is_inadmissible(self):
        assert not is_admissible(frozenset())

    def test_isolated_patch_is_inadmissible(self):
        assert not is_admissible(frozenset({(0, 1), (1, 0)}))

    def test_weakly_connected_chain_is_admissible(self):
        chain = frozenset({(0, 1), (1, 2)})
        assert is_admissible(chain)
        assert not is_strongly_connected(chain)

    def test_canonical_form_rejects_inadmissible(self):
        with pytest.raises(InadmissibleArcsError):
            canonical_form(frozenset({(0, 1)}))

    def test_strong_connectivity_rejects_inadmissible(self):
        with pytest.raises(InadmissibleArcsError):
            is_strongly_connected(frozenset({(0, 1)}))

    @pytest.mark.parametrize("arcs, bad", [
        ([(0, 5)], "(0, 5)"),
        ([(-1, 0), (0, 1), (1, 2)], "(-1, 0)"),
        ([(0, 1), (1, 2), (1, 1)], "(1, 1)"),
        ([(0.0, 1), (1, 2)], "(0.0, 1)"),
        ([(0, 1, 2)], "(0, 1, 2)"),
    ])
    def test_an_arc_that_is_no_pair_of_patches_raises(self, arcs, bad):
        # (-1, 0) used to wrap to patch 3, (0, 5) to raise IndexError and
        # (1, 1) to pass is_admissible but fail canonical_form.
        for check in (canonical_form, is_admissible, is_strongly_connected):
            with pytest.raises(ParameterError, match=re.escape(f"arc {bad} ")) as err:
                check(arcs)
            assert not isinstance(err.value, InadmissibleArcsError)

    def test_numpy_integers_count_as_patches(self):
        arcs = [(np.int64(1), np.int64(0)), (np.int64(2), np.int64(1))]
        assert canonical_form(arcs) == canonical_form([(1, 0), (2, 1)])
        assert is_admissible(arcs) and not is_strongly_connected(arcs)

    def test_every_arc_set_against_the_reachability_matrix(self):
        # On three patches every reachable patch is at most two arcs away,
        # so (I + A)^2 > 0 is the reachability relation.
        for arcs in iter_arc_sets():
            a = np.eye(3, dtype=int)
            for s, d in arcs:
                a[s, d] = 1
            directed = np.linalg.matrix_power(a, 2) > 0
            undirected = np.linalg.matrix_power(a + a.T, 2) > 0
            assert is_admissible(arcs) == bool(undirected.all()), arcs
            if is_admissible(arcs):
                assert is_strongly_connected(arcs) == bool(directed.all()), arcs


class TestCanonicalForm:
    @given(st.sampled_from(TOPOLOGIES), st.permutations([0, 1, 2]))
    @settings(max_examples=200, deadline=None)
    def test_token_invariant_under_relabeling(self, topo, perm):
        arcs = relabel_arcs(arcs_of_topology(topo), tuple(perm))
        token, _ = canonical_form(arcs)
        assert token == topo, f"relabeled {topo} classified as {token}"

    def test_representatives_map_to_identity(self):
        for topo, arcs in enumerate_canonical():
            token, perm = canonical_form(arcs)
            assert token == topo
            assert perm == (0, 1, 2)

    def test_permutation_is_the_first_that_aligns(self):
        # The class and the relabeling of every arc set are fixed: the
        # first permutation, in itertools order, onto the representative.
        for arcs in iter_arc_sets():
            if not is_admissible(arcs):
                with pytest.raises(InadmissibleArcsError):
                    canonical_form(arcs)
                continue
            token, perm = canonical_form(arcs)
            target = arcs_of_topology(token)
            first = next(p for p in permutations(range(3))
                         if relabel_arcs(arcs, {old: new for new, old
                                                in enumerate(p)}) == target)
            assert perm == first, sorted(arcs)

    @given(st.sampled_from(TOPOLOGIES), st.permutations([0, 1, 2]))
    @settings(max_examples=100, deadline=None)
    def test_returned_permutation_normalizes_params(self, topo, perm):
        rng = np.random.default_rng([TOPOLOGIES.index(topo), *perm])
        m = rng.uniform(0.1, 2.0, (3, 3))
        np.fill_diagonal(m, 0)
        base = apply_topology(
            ModelParams(rng.uniform(0.1, 5, 3), rng.uniform(0.1, 5, 3), m), topo
        )
        # Relabel the patches, then ask canonical_form for the way back.
        newname = tuple(perm)
        scrambled_arcs = relabel_arcs(arcs_of_topology(topo), newname)
        old_of = {newname[old]: old for old in range(3)}
        scrambled = permute_params(base, (old_of[0], old_of[1], old_of[2]))
        token, back = canonical_form(scrambled_arcs)
        assert token == topo
        normalized = permute_params(scrambled, back)
        for i, j in zeroed_rates(topo):
            assert normalized.m[i, j] == 0.0, (
                f"{topo}: entry m[{i}][{j}] not zeroed after normalization"
            )


class TestProjection:
    def test_apply_topology_zeroes_absent_rates(self):
        p = ModelParams(np.ones(3), np.ones(3),
                        np.full((3, 3), 0.7) * (1 - np.eye(3)))
        for topo in TOPOLOGIES:
            q = apply_topology(p, topo)
            for i, j in zeroed_rates(topo):
                assert q.m[i, j] == 0.0
            kept = {(i, j) for i in range(3) for j in range(3) if i != j}
            kept -= set(zeroed_rates(topo))
            for i, j in kept:
                assert q.m[i, j] == 0.7

    def test_projected_set_is_returned_as_is(self):
        p = ModelParams(np.ones(3), np.ones(3),
                        np.full((3, 3), 0.7) * (1 - np.eye(3)))
        for topo in TOPOLOGIES:
            q = apply_topology(p, topo)
            assert apply_topology(q, topo) is q
        # An absent rate of -0.0 is still rewritten as +0.0.
        m = np.array(apply_topology(p, "EX3").m)
        m[0, 1] = -0.0
        q = apply_topology(ModelParams(np.ones(3), np.ones(3), m), "EX3")
        assert math.copysign(1.0, q.m[0, 1]) == 1.0

    def test_arcs_complement_zeroed_rates(self):
        for topo in TOPOLOGIES:
            arcs = arcs_of_topology(topo)
            # arc (src, dst) carries rate m[dst][src]
            absent = {(d, s) for s, d in arcs} ^ {
                (i, j) for i in range(3) for j in range(3) if i != j
            }
            assert absent == set(zeroed_rates(topo))

    def test_arc_labels_are_sorted_one_based(self):
        assert arc_labels(frozenset({(2, 0), (0, 1)})) == ["1->2", "3->1"]

    @pytest.mark.parametrize("perm", [(0, 0, 1), (0, 1, 3), (0, 1), (2.0, 1, 0)])
    def test_permute_params_needs_a_permutation(self, perm):
        # (0, 0, 1) used to copy patch 1 over patch 3, and (0, 1, 3) to
        # raise IndexError.
        p = ModelParams(np.ones(3), np.ones(3), np.zeros((3, 3)))
        with pytest.raises(ParameterError, match="permutation of"):
            permute_params(p, perm)

    def test_unknown_token_raises(self):
        with pytest.raises(ValueError, match="unknown topology"):
            arcs_of_topology("RING")
        p = ModelParams(np.ones(3), np.ones(3), np.zeros((3, 3)))
        with pytest.raises(ValueError, match="unknown topology"):
            apply_topology(p, "RING")
