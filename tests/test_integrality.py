"""Spectrum verdicts: exact certification against independent references."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cayley_spectra.catalog import build_cached, catalog_up_to_12
from cayley_spectra.cayley import CayleyGraph, SymmetricSubset
from cayley_spectra.groups import is_perfect
from cayley_spectra.integrality import (
    BoundCheck,
    divisibility_bound_check,
    engine_for,
    spectrum_of_subset_list,
    verdict,
)
from cayley_spectra.intlinalg import IntPolynomial
from cayley_spectra.search import exhaustive_scan, symmetric_subsets

LABELS = ["Z6", "Z8", "D4", "Q8", "S3", "Z2^3", "A4", "Dic12"]


def _numpy_eigs(c):
    return np.sort(np.linalg.eigvalsh(c.adjacency_numpy().astype(float)))


@pytest.mark.parametrize("label", LABELS)
def test_verdict_invariants_all_subsets(label):
    """Moment and Perron checks on every subset of each group."""
    g = build_cached(label)
    n = g.order
    for s in symmetric_subsets(g):
        c = CayleyGraph(g, s)
        v = verdict(c)
        k = len(s)
        assert v.order == n and v.degree == k
        if v.integral:
            mults = v.spectrum
            assert sum(mults.values()) == n
            assert sum(t * m for t, m in mults.items()) == 0  # trace
            assert sum(t * t * m for t, m in mults.items()) == n * k
            assert all(abs(t) <= k for t in mults)
            assert max(mults) == k if n else True  # k always an eigenvalue
            # eigenvalue k multiplicity equals component count
            assert mults[k] == c.component_count()
        else:
            assert v.remainder_degree and v.remainder_degree >= 2
            assert v.integer_eigenspace_total + v.remainder_degree == n


@pytest.mark.parametrize("label", ["Z8", "D4", "S3", "Q8"])
def test_verdict_matches_numpy(label):
    g = build_cached(label)
    for s in symmetric_subsets(g):
        c = CayleyGraph(g, s)
        v = verdict(c)
        eigs = _numpy_eigs(c)
        if v.integral:
            flat = sorted(t for t, m in v.spectrum.items() for _ in range(m))
            assert np.allclose(eigs, flat, atol=1e-8)
        else:
            # at least one eigenvalue is far from every integer
            assert np.max(np.abs(eigs - np.round(eigs))) > 1e-6


def test_charpoly_and_rank_methods_agree():
    for label in ["Z8", "D4", "Q8", "S3"]:
        g = build_cached(label)
        for s in symmetric_subsets(g):
            c = CayleyGraph(g, s)
            a = verdict(c, method="charpoly")
            b = verdict(c, method="rank")
            assert a.integral == b.integral
            if a.integral:
                assert a.spectrum == b.spectrum


def test_batch_matches_single():
    g = build_cached("D6")
    subsets = list(symmetric_subsets(g))[:40]
    batch = spectrum_of_subset_list(g, subsets)
    for s, v in zip(subsets, batch):
        w = verdict(CayleyGraph(g, s))
        assert v.integral == w.integral
        assert v.spectrum == w.spectrum


def test_known_spectra():
    g = build_cached("Z2^3")
    v = verdict(CayleyGraph.from_names(g, ["e1", "e2", "e3"]))
    assert v.spectrum == {3: 1, 1: 3, -1: 3, -3: 1}
    # complete graph K6 on Z6
    g = build_cached("Z6")
    v = verdict(CayleyGraph.from_names(g, ["1", "2", "3", "4", "5"]))
    assert v.spectrum == {5: 1, -1: 5}
    # 6-cycle
    v = verdict(CayleyGraph.from_names(g, ["1", "5"]))
    assert v.spectrum == {2: 1, 1: 2, -1: 2, -2: 1}


def test_nonintegral_evidence_tolerance():
    g = build_cached("D4")
    v = verdict(CayleyGraph.from_names(g, ["x", "xy"]))
    assert not v.integral
    sq2 = 2.0**0.5
    assert all(abs(abs(x) - sq2) < 1e-9 for x in v.float_evidence)


def test_empty_subset_and_trivial_group():
    z1 = build_cached("Z1")
    v = verdict(CayleyGraph(z1, SymmetricSubset(z1, 0)))
    assert v.integral and v.spectrum == {0: 1}
    z5 = build_cached("Z5")
    v = verdict(CayleyGraph(z5, SymmetricSubset(z5, 0)))
    assert v.integral and v.spectrum == {0: 5}


def test_engine_reuse_is_per_group():
    g = build_cached("Z8")
    assert engine_for(g) is engine_for(g)
    h = build_cached("Z9")
    assert engine_for(g) is not engine_for(h)


def test_divisibility_bound_check():
    g = build_cached("S3")
    # S = all three transpositions: K3,3, connected, integral, |S|=3
    c = CayleyGraph.from_names(g, ["(12)", "(13)", "(23)"])
    chk = divisibility_bound_check(c)
    assert isinstance(chk, BoundCheck)
    assert chk.applies and chk.holds and chk.strong
    # with a 3-cycle in S the strong form is in force: 6 | 5! holds
    c2 = CayleyGraph.from_names(g, ["(12)", "(123)", "(132)"])
    chk2 = divisibility_bound_check(c2)
    assert chk2.applies and chk2.holds and chk2.strong
    # disconnected graph: bound not in force
    c3 = CayleyGraph.from_names(g, ["(123)", "(132)"])
    assert not divisibility_bound_check(c3).applies
    # C4 on Z4: 4 does not divide 3!, but no element of S has odd order
    # and Z4 is not perfect, so the strong form is not in force
    z4 = build_cached("Z4")
    chk4 = divisibility_bound_check(CayleyGraph.from_names(z4, ["1", "3"]))
    assert chk4.applies and chk4.holds and chk4.strong


@given(st.sampled_from(["Z6", "Z8", "D4", "Q8"]), st.data())
@settings(max_examples=40, deadline=None)
def test_spectrum_invariant_under_conjugation(label, data):
    """Conjugating the connection set permutes vertices: same spectrum."""
    from cayley_spectra.groups import conjugate_subset

    g = build_cached(label)
    all_subsets = list(symmetric_subsets(g))
    s = data.draw(st.sampled_from(all_subsets))
    a = data.draw(st.integers(min_value=0, max_value=g.order - 1))
    s2 = SymmetricSubset(g, conjugate_subset(g, a, s.as_element_subset()).bits)
    va = verdict(CayleyGraph(g, s))
    vb = verdict(CayleyGraph(g, s2))
    assert va.integral == vb.integral
    assert va.spectrum == vb.spectrum


def test_unknown_method_raises_in_both_entry_points():
    g = build_cached("D4")
    c = CayleyGraph.from_names(g, ["x"])
    with pytest.raises(ValueError, match="unknown verdict method"):
        spectrum_of_subset_list(g, [c.subset], method="chrapoly")
    with pytest.raises(ValueError, match="unknown verdict method"):
        verdict(c, method="chrapoly")
    assert spectrum_of_subset_list(g, [c.subset], method="rank")[0].method == "rank"


@pytest.mark.parametrize("label", ["S3", "D4", "Z6xZ2", "Dic12", "SL2_3"])
def test_scan_bound_counters_match_divisibility_bound_check(label):
    """The scan's bound tallies are the sums of divisibility_bound_check
    over every symmetric subset; strong_checked counts the subsets where
    the strengthened bound is in force (G perfect or S has an element of
    odd order)."""
    g = build_cached(label)
    stats = exhaustive_scan(
        g, "cayley_integral", reduce_orbits=False, workers=1, witness_limit=None
    ).stats
    subsets = list(symmetric_subsets(g))
    perfect = is_perfect(g)
    checked = weak = strong_checked = strong = 0
    for s, v in zip(subsets, spectrum_of_subset_list(g, subsets)):
        chk = divisibility_bound_check(CayleyGraph(g, s), v)
        if not chk.applies:
            continue
        checked += 1
        weak += not chk.holds
        strong_checked += perfect or any(g.element_order(x) % 2 == 1 for x in s)
        strong += not chk.strong
    assert (
        stats.bound_checked,
        stats.bound_weak_violations,
        stats.bound_strong_checked,
        stats.bound_strong_violations,
    ) == (checked, weak, strong_checked, strong)
    assert checked > 0


@pytest.mark.parametrize("label", [expr for expr, _ in catalog_up_to_12()])
def test_split_results_rebuilds_char_poly_order_le_12(label):
    """prod (x - r)^m * rest from the engine's identity-row trace walk
    equals IntMatrix.char_poly, whose general trace loop is tested
    against cofactor expansion, on every symmetric subset; the
    remainder keeps no root in [-k, k], where every integer root lies.
    char_polys, the engine's route for the lifts suite, equals it too."""
    g = build_cached(label)
    subsets = list(symmetric_subsets(g))
    masks = [s.bits for s in subsets]
    split = engine_for(g).split_results(masks)
    chis = engine_for(g).char_polys(masks)
    for s, (k, roots, rest), chi in zip(subsets, split, chis, strict=True):
        rebuilt = rest
        for r, m in roots.items():
            rebuilt = rebuilt * IntPolynomial.x_minus(r) ** m
        oracle = CayleyGraph(g, s).adjacency_matrix().char_poly()
        assert rebuilt == oracle and chi == oracle, hex(s.bits)
        assert k == len(s)
        assert all(rest(r) != 0 for r in range(-k, k + 1)), hex(s.bits)
