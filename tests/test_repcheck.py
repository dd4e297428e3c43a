"""Representation systems and spectral union cross-checks."""

import math
import random

import numpy as np
import pytest

from cayley_spectra import catalog, repcheck
from cayley_spectra.cayley import CayleyGraph, SymmetricSubset
from cayley_spectra.integrality import engine_for, verdict
from cayley_spectra.repcheck import (
    ExplicitRep,
    RepSystem,
    abelian_character_system,
    ds_union_check,
    exact,
    linear_rep,
    rep_a4_perm4,
    rep_dn_theta,
    rep_e9_via_s3,
    rep_integral,
    rep_q8_pi,
    rep_q8z4_rho,
    rep_s3z3_omega,
    rep_sum,
    standard_perm_rep,
    system_for,
)
from cayley_spectra.search import symmetric_subsets

SQRT2 = math.sqrt(2.0)
SQRT3 = math.sqrt(3.0)


def _subset(label, names):
    g = catalog.build_cached(label)
    return SymmetricSubset.from_names(g, names)


def _real_eigs(mat):
    eig = np.linalg.eigvals(mat)
    assert np.abs(eig.imag).max() < 1e-9
    return np.sort(eig.real)


def _complex(rep, mat):
    """rho's matrix from an exact image: zeta -> e^(2 pi i / m) on column 0 of each block."""
    f = len(mat) // rep.degree
    coords = mat[:, ::f].reshape(rep.degree, f, rep.degree)
    return np.einsum("ikj,k->ij", coords, np.exp(2j * np.pi * np.arange(f) / rep.m))


# ---------------------------------------------------------------------------
# system construction (validation happens inside the constructors)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "label,degrees",
    [
        ("S3", (1, 1, 2)),
        ("D4", (1, 1, 1, 1, 2)),
        ("Q8", (1, 1, 1, 1, 2)),
        ("Dic12", (1, 1, 1, 1, 2, 2)),
        ("A4", (1, 1, 1, 3)),
    ],
)
def test_nonabelian_system_degrees(label, degrees):
    system = system_for(label)
    assert tuple(sorted(system.degrees)) == degrees
    assert sum(d * d for d in system.degrees) == system.group.order


@pytest.mark.parametrize("label", ["Z1", "Z6", "Z12", "Z2^2xZ4", "Z2^2xZ3", "Z4^2"])
def test_abelian_systems_are_all_linear(label):
    system = system_for(label)
    assert set(system.degrees) <= {1}
    assert len(system.reps) == system.group.order


def test_system_for_rejects_groups_without_shipped_reps():
    for label in ("S4", "D6", "SL2_3", "E9", "SD(7,3,2)"):
        with pytest.raises(ValueError):
            system_for(label)


def test_broken_homomorphism_rejected():
    g = catalog.build_cached("Z3")
    with pytest.raises(ValueError):
        # 1 -> w but 2 -> w (should be w^2)
        ExplicitRep(g, "bad", [exact([[v]], 3) for v in (1, (1, 1), (1, 1))], 3)


def test_identity_image_must_be_identity():
    g = catalog.build_cached("Z2")
    with pytest.raises(ValueError):
        ExplicitRep(g, "bad", [[[-1]], [[1]]])


def test_incomplete_system_rejected():
    g = catalog.build_cached("S3")
    triv = linear_rep(g, "trivial", [1] * 6)
    std = standard_perm_rep(g)
    with pytest.raises(ValueError):
        RepSystem(g, [triv, std])  # 1 + 4 != 6


def test_repeated_character_rejected():
    g = catalog.build_cached("Z2")
    triv = linear_rep(g, "a", [1, 1])
    with pytest.raises(ValueError):
        RepSystem(g, [triv, linear_rep(g, "b", [1, 1])])


def test_system_needs_one_m():
    g = catalog.build_cached("Z2")
    with pytest.raises(ValueError, match="share one m"):
        RepSystem(g, [linear_rep(g, "a", [1, 1]), linear_rep(g, "b", [1, -1], 4)])
    RepSystem(g, [linear_rep(g, "a", [1, 1], 4), linear_rep(g, "b", [1, -1], 4)])


def test_image_blocks_must_be_multiplication_matrices():
    """Under m = 4 a 2x2 block must be [[a, -b], [b, a]]; a lone swap is not."""
    g = catalog.build_cached("Z2")
    swap = np.array([[0, 1], [1, 0]])
    with pytest.raises(ValueError, match=r"not in Z\[zeta_4\]"):
        ExplicitRep(g, "bad", [np.identity(2, dtype=np.int64), swap], 4)


# ---------------------------------------------------------------------------
# rep_sum / rep_integral on pinned witnesses
# ---------------------------------------------------------------------------


def test_rep_sum_empty_subset_is_zero():
    pi = rep_q8_pi()
    s = SymmetricSubset(pi.group, 0)
    assert np.count_nonzero(rep_sum(pi, s)) == 0
    assert rep_integral(pi, s) is True


def test_rep_sum_rejects_foreign_subset():
    pi = rep_q8_pi()
    s = _subset("D4", ["x"])
    with pytest.raises(ValueError):
        rep_sum(pi, s)


def test_d4_theta_on_two_reflections():
    theta = next(r for r in system_for("D4").reps if r.degree == 2)
    s = _subset("D4", ["x", "xy"])
    m = _complex(theta, rep_sum(theta, s))
    assert np.allclose(np.diag(m), 0)
    assert abs(abs(m[0, 1]) - SQRT2) < 1e-12
    assert np.allclose(m, m.conj().T)
    assert np.allclose(_real_eigs(m), [-SQRT2, SQRT2])
    assert rep_integral(theta, s) is False


@pytest.mark.parametrize("n,integral", [(3, True), (5, False), (7, False)])
def test_dn_theta_reflection_pair_eigenvalues(n, integral):
    theta = rep_dn_theta(n)
    s = _subset(f"D{n}", ["x", "xy"])
    want = math.sqrt(2.0 + 2.0 * math.cos(2 * math.pi / n))
    assert np.allclose(_real_eigs(_complex(theta, rep_sum(theta, s))), [-want, want])
    # n = 3 gives 2 + 2cos(2pi/3) = 1, an honest integer pair
    assert rep_integral(theta, s) is integral


def test_q8z4_rho_witness():
    rho = rep_q8z4_rho()
    s = _subset("Q8xZ4", ["i.1", "-i.3", "j.1", "-j.3"])
    m = _complex(rho, rep_sum(rho, s))
    assert np.allclose(m, np.array([[-2, 2j], [-2j, 2]]))
    assert np.allclose(_real_eigs(m), [-2 * SQRT2, 2 * SQRT2])
    assert rep_integral(rho, s) is False


def test_s3z3_witness_zero_and_sqrt3():
    r = rep_s3z3_omega()
    s = _subset("S3xZ3", ["(12).1", "(12).2", "(13).0"])
    assert np.allclose(_real_eigs(_complex(r, rep_sum(r, s))), [-SQRT3, 0.0, SQRT3], atol=1e-9)
    assert rep_integral(r, s) is False


def test_e9_witness_three_and_sqrt3():
    r = rep_e9_via_s3()
    s = _subset("E9", ["xz", "z", "yz"])
    assert np.allclose(_real_eigs(rep_sum(r, s)), [-SQRT3, SQRT3, 3.0])
    assert rep_integral(r, s) is False
    # entries come from permutation matrices
    assert set(np.unique(r.images)) <= {0, 1}


def test_a4_permutation_rep_witness():
    r = rep_a4_perm4()
    s = _subset("A4", ["(13)(24)", "(14)(23)", "(123)", "(132)"])
    golden = sorted([(-1 - math.sqrt(17)) / 2, -1.0, (-1 + math.sqrt(17)) / 2, 4.0])
    assert np.allclose(_real_eigs(rep_sum(r, s)), golden)
    assert rep_integral(r, s) is False


def test_trivial_rep_counts_subset():
    g = catalog.build_cached("D4")
    triv = linear_rep(g, "trivial", [1] * g.order)
    for s in symmetric_subsets(g):
        assert rep_integral(triv, s) is True
        assert rep_sum(triv, s)[0, 0] == len(s)


def test_standard_perm_rep_is_integer_valued():
    std = standard_perm_rep(catalog.build_cached("S3"))
    assert std.degree == 2
    assert set(np.unique(std.images)) <= {-1, 0, 1}
    assert std.images.dtype == np.int64


# ---------------------------------------------------------------------------
# degree-weighted spectral unions
# ---------------------------------------------------------------------------


def test_q8_union_matches_pinned_spectrum():
    system = system_for("Q8")
    s = _subset("Q8", ["-1", "i", "-i", "j", "-j"])
    v = verdict(CayleyGraph(s.group, s))
    assert v.integral and v.spectrum == {5: 1, 1: 2, -1: 4, -3: 1}
    assert ds_union_check(system, s)
    # the 2-dim rep alone contributes eigenvalue -1 twice, weighted by 2
    pi = next(r for r in system.reps if r.degree == 2)
    assert np.allclose(_real_eigs(_complex(pi, rep_sum(pi, s))), [-1.0, -1.0])


@pytest.mark.parametrize("label", ["S3", "D4", "Q8", "Dic12"])
def test_union_exhaustive(label):
    system = system_for(label)
    for s in symmetric_subsets(system.group):
        assert ds_union_check(system, s)


@pytest.mark.parametrize("label", ["Z8", "Z6", "Z2^2xZ3"])
def test_union_exhaustive_abelian(label):
    system = system_for(label)
    for s in symmetric_subsets(system.group):
        assert ds_union_check(system, s)


def test_union_uses_the_verdict_passed_in():
    """A char poly passed in gives the answer the check computes itself,
    and another subset's char poly makes the check fail."""
    system = system_for("D4")
    subsets = list(symmetric_subsets(system.group))
    chis = engine_for(system.group).char_polys([s.bits for s in subsets])
    for s, chi in zip(subsets, chis):
        assert ds_union_check(system, s, chi) == ds_union_check(system, s)
    (s, chi), *rest = zip(subsets, chis)
    other = next(c for _, c in rest if c != chi)
    assert ds_union_check(system, s, chi) and not ds_union_check(system, s, other)


def test_union_trivial_group():
    system = system_for("Z1")
    assert ds_union_check(system, SymmetricSubset(system.group, 0))


def test_union_rejects_foreign_subset():
    with pytest.raises(ValueError):
        ds_union_check(system_for("Q8"), _subset("D4", ["x"]))


@pytest.mark.parametrize("label", ["D4", "Q8", "A4"])
def test_rep_integrality_iff_exact_verdict(label):
    system = system_for(label)
    for s in symmetric_subsets(system.group):
        by_reps = all(rep_integral(r, s) for r in system.reps)
        assert by_reps == verdict(CayleyGraph(s.group, s)).integral


def test_abelian_character_system_needs_consistent_generators():
    g = catalog.build_cached("Z4")
    with pytest.raises(ValueError):
        abelian_character_system(g, [(2, 2), (2, 2)])
    with pytest.raises(ValueError):
        abelian_character_system(g, [(1, 2)])


# ---------------------------------------------------------------------------
# exactness
# ---------------------------------------------------------------------------


SYSTEM_LABELS = ["S3", "D4", "Q8", "Dic12", "A4", "Z1", "Z6", "Z8", "Z9", "Z12", "Z2^2xZ4",
                 "Z2^2xZ3", "Z4^2", "Z6xZ2"]
OBSTRUCTIONS = {
    "dn_theta5": lambda: rep_dn_theta(5),
    "dn_theta8": lambda: rep_dn_theta(8),
    "q8z4_rho": rep_q8z4_rho,
    "s3z3_omega": rep_s3z3_omega,
    "e9_via_s3": rep_e9_via_s3,
    "a4_perm4": rep_a4_perm4,
}


def _phi(m):
    return sum(1 for k in range(1, m + 1) if math.gcd(k, m) == 1)


def _float_integral(rep, s):
    """Every eigenvalue of rho(S), in floating point, within 1e-9 of an integer."""
    eig = np.linalg.eigvals(_complex(rep, rep_sum(rep, s)))
    return bool(all(abs(v.imag) <= 1e-9 and abs(v.real - round(v.real)) <= 1e-9 for v in eig))


def _random_subsets(g, count, seed):
    rng = random.Random(seed)
    cells = {(1 << x) | (1 << g.inv(x)) for x in g.elements() if x != g.identity}
    return [
        SymmetricSubset(g, sum(c for c in sorted(cells) if rng.randrange(2)))
        for _ in range(count)
    ]


def test_companion_matrix_has_order_m():
    for m in range(1, 65):
        c = repcheck._companion(m)
        assert c.shape == (_phi(m), _phi(m))
        eye = np.identity(len(c), dtype=np.int64)
        assert np.array_equal(np.linalg.matrix_power(c, m), eye)
        for d in range(1, m):
            if m % d == 0:
                assert not np.array_equal(np.linalg.matrix_power(c, d), eye), (m, d)


@pytest.mark.parametrize("name", SYSTEM_LABELS + list(OBSTRUCTIONS))
def test_corrupted_image_fails_construction(name):
    """Adding 1 to the first nonzero entry of any non-identity image breaks the rep."""
    reps = [OBSTRUCTIONS[name]()] if name in OBSTRUCTIONS else system_for(name).reps
    for rep in reps:
        g = rep.group
        for x in g.elements():
            if x == g.identity:
                continue
            images = rep.images.copy()
            images[x].flat[np.flatnonzero(images[x])[0]] += 1
            with pytest.raises(ValueError):
                ExplicitRep(g, rep.label, images, rep.m)


@pytest.mark.parametrize("label", ["S3", "D4", "Q8", "Dic12", "A4"])
def test_rep_integral_matches_float_oracle_exhaustive(label):
    system = system_for(label)
    for s in symmetric_subsets(system.group):
        for r in system.reps:
            assert rep_integral(r, s) is _float_integral(r, s)


@pytest.mark.parametrize("name", list(OBSTRUCTIONS))
def test_rep_integral_matches_float_oracle_sampled(name):
    r = OBSTRUCTIONS[name]()
    for s in _random_subsets(r.group, 256, seed=20261019):
        assert rep_integral(r, s) is _float_integral(r, s)
