"""The scan's batched certificate against the exact path and independent oracles.

SpectraEngine.certify decides integrality from power sums: a walk of at
most min(k, n-1-k) steps modulo one prime, multiplicities from one
Lagrange product, then an annihilator check on the identity row.
split_results lifts the char poly by CRT and splits its integer roots.
They share only the adjacency builder, so each is an oracle for the
other.  These tests call SpectraEngine.certify itself, so every group
they list is tested on the walk, including the groups whose scans read
the Fourier table instead (tests/test_fourier.py holds that table equal
to the walk).  The abelian checks and the closed forms below use nothing but
the multiplication table; the arithmetic tests pin the bounds that keep
certify's float64 products exact.
"""

import gc
import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cayley_spectra import integrality
from cayley_spectra.catalog import build_cached, catalog_up_to_12
from cayley_spectra.cayley import CayleyGraph
from cayley_spectra.groups import FiniteGroup, derived_subgroup, direct_product
from cayley_spectra.integrality import ANNIHILATOR_MODULI, WALK_PRIME, engine_for, verdict
from cayley_spectra.search import SubsetFamily, _masks_of_counters, exhaustive_scan

PREFIX = 1 << 12


def _counter_masks(group, count, last=False):
    """Masks of the first (or, with last, the last) count counters."""
    family = SubsetFamily.of(group)
    total = family.subset_count
    start = max(0, total - count) if last else 0
    counters = np.arange(start, min(start + count, total), dtype=np.int64)
    return [int(m) for m in _masks_of_counters(counters, family.mask_tables)]


def _certify(engine, masks):
    """certify's arrays as (degree, spectrum dict or None) per mask; each
    spectrum lists its eigenvalues in descending order, as certify must."""
    degree, integral, rows, roots, mults = engine.certify(masks)
    assert (np.diff(rows) >= 0).all()
    out = [(k, {} if ok else None) for k, ok in zip(degree.tolist(), integral.tolist())]
    for row, r, m in zip(rows.tolist(), roots.tolist(), mults.tolist()):
        spectrum = out[row][1]
        assert m > 0 and (not spectrum or r < min(spectrum)), hex(int(masks[row]))
        spectrum[r] = m
    return out


def _assert_matches_exact(group, masks):
    engine = engine_for(group)
    for lo in range(0, len(masks), 2048):
        chunk = masks[lo : lo + 2048]
        for mask, (k, spectrum), (k2, roots, rest) in zip(
            chunk, _certify(engine, chunk), engine.split_results(chunk)
        ):
            assert k == k2
            assert (spectrum is not None) == (rest.degree == 0), hex(mask)
            if spectrum is not None:
                assert spectrum == roots, hex(mask)


@pytest.mark.parametrize("label", [expr for expr, _ in catalog_up_to_12()])
def test_certify_matches_exact_path_order_le_12(label):
    g = build_cached(label)
    _assert_matches_exact(g, _counter_masks(g, SubsetFamily.of(g).subset_count))


@pytest.mark.parametrize("label", ["D8", "SL2_3", "S4", "Z27", "Z2^5", "Q8xZ2^2"])
def test_certify_matches_exact_path_prefix(label):
    g = build_cached(label)
    _assert_matches_exact(g, _counter_masks(g, PREFIX))


@pytest.mark.parametrize("label", ["D8", "SL2_3", "S4", "Z27", "Z2^5", "Q8xZ2^2"])
def test_certify_matches_exact_path_suffix(label):
    """The last counters hold the dense subsets, 2k > n - 1, which
    certify reaches through the complement; the prefix rarely does."""
    g = build_cached(label)
    masks = _counter_masks(g, PREFIX, last=True)
    assert any(2 * m.bit_count() > g.order - 1 for m in masks)
    _assert_matches_exact(g, masks)


@pytest.mark.parametrize("label", ["S4", "D6", "Q8xZ2^2"])
def test_closed_forms_on_derived_subgroup(label):
    """S = G - H is complete multipartite; S = H - {e} is n/|H| disjoint
    cliques.  The first is certified through its complement, the second,
    which is disconnected, so the complement map drops one copy of k'."""
    g = build_cached(label)
    h = derived_subgroup(g).bits
    n, size = g.order, h.bit_count()
    assert 1 < size < n
    outside, inside = ((1 << n) - 1) ^ h, h ^ (1 << g.identity)
    got = _certify(engine_for(g), [outside, inside])
    assert got[0] == (n - size, {n - size: 1, 0: n - n // size, -size: n // size - 1})
    assert got[1] == (size - 1, {size - 1: n // size, -1: n - n // size})


@pytest.mark.parametrize("label", ["Z8", "D4", "Z12", "A4", "D6"])
def test_annihilator_decides_integrality(label):
    """With T every candidate in [-k, k], the annihilator check alone must
    reject each non-integral mask: on natural inputs the multiplicity
    filter almost always rejects them first."""
    g = build_cached(label)
    engine = engine_for(g)
    masks = _counter_masks(g, SubsetFamily.of(g).subset_count)
    adj, degrees = engine._adjacency(masks)
    rows = np.repeat(np.arange(len(masks)), 2 * degrees + 1)
    roots = np.concatenate([np.arange(-k, k + 1) for k in degrees])
    bound = max(math.prod(k + abs(r) for r in range(-k, k + 1)) for k in degrees.tolist())
    t = next(
        t for t in range(1, len(ANNIHILATOR_MODULI) + 1)
        if math.prod(ANNIHILATOR_MODULI[:t]) > 2 * bound
    )
    need = np.full(len(masks), t)
    got = integrality._annihilates(adj, rows, roots, need, ANNIHILATOR_MODULI, g.identity)
    want = [rest.degree == 0 for _, _, rest in engine.split_results(masks)]
    assert got.tolist() == want
    assert not all(want)


# ---------------------------------------------------------------------------
# arithmetic: the bounds certify's float64 products rely on
# ---------------------------------------------------------------------------


def _is_prime(m):
    return m > 1 and all(m % d for d in range(2, math.isqrt(m) + 1))


def test_lagrange_inverts_vandermonde():
    q = WALK_PRIME
    assert _is_prime(q) and q > 2 * 31 and q > 64
    for k in range(32):
        w = [[int(x) for x in row] for row in integrality._lagrange(k)]
        v = [[pow(r, j, q) for j in range(2 * k + 1)] for r in range(-k, k + 1)]
        prod = [[sum(a * b for a, b in zip(row, col)) % q for col in zip(*v)] for row in w]
        assert prod == [[int(i == j) for j in range(2 * k + 1)] for i in range(2 * k + 1)], k


def test_float64_exactness_bounds():
    q = WALK_PRIME
    assert 64 * q * q < 2**53  # walk: dot products of reduced vectors
    assert 63 * q * q < 2**53  # multiplicities: P W_k over at most 63 terms
    for m in ANNIHILATOR_MODULI:
        assert (64 + 31) * m < 2**53  # annihilator: |A w - r w| at n = 64, k <= 31


def test_annihilator_moduli_coprime_and_cover():
    moduli = ANNIHILATOR_MODULI
    assert all(math.gcd(a, b) == 1 for i, a in enumerate(moduli) for b in moduli[i + 1 :])
    usable = min(moduli).bit_length() - 1
    assert all(m > 2**usable for m in moduli)
    # worst bound at n <= 64: k' <= 31 and T = [-31, 31], so each factor
    # k' + |r| is at most 62 and takes at most 6 bits
    worst = 1 + sum((31 + abs(r) - 1).bit_length() for r in range(-31, 32))
    assert worst <= 1 + 63 * 6 == 379
    assert usable * len(moduli) >= 379


@pytest.mark.parametrize(
    "m,top",
    [(WALK_PRIME, 64 * WALK_PRIME), *((m, 95) for m in ANNIHILATOR_MODULI[:3]), (1021, 95)],
)
def test_reduce_is_exact_residue(m, top):
    """_reduce returns an exact residue in (-m, m) next to multiples of m,
    where the rounded quotient could slip: every quotient up to 4096 and a
    seeded sample up to top, the largest quotient certify reaches (the
    walk's dot products stay below 64 Q^2, the annihilator's steps below
    95 M)."""
    rng = np.random.default_rng(0)
    small = min(top, 4096)
    quot = np.concatenate([np.arange(-small, small + 1), rng.integers(-top, top + 1, 4096), [-top, top]])
    x = np.concatenate([quot * float(m) + d for d in (-1.0, 0.0, 1.0, m // 2, -(m // 2))])
    got = integrality._reduce(x.copy(), float(m), np.empty_like(x))
    assert np.all(np.abs(got) < m)
    assert [int(v) % m for v in got.tolist()] == [int(v) % m for v in x.tolist()]


# ---------------------------------------------------------------------------
# abelian groups of order 33-64: the atom criterion
# ---------------------------------------------------------------------------


def _cyclic_span(g, x):
    """The cyclic subgroup <x> as a bitmask, from the table alone."""
    bits, y = 0, x
    while not bits >> y & 1:
        bits |= 1 << y
        y = g.table[y][x]
    return bits


def _atoms(g):
    """Atom of each element: {y : <y> = <x>}, as bitmasks."""
    spans = [_cyclic_span(g, x) for x in range(g.order)]
    return [sum(1 << y for y in range(g.order) if spans[y] == spans[x]) for x in range(g.order)]


def _union_of_atoms(atoms, bits):
    """Alperin-Peterson (EJC 2012): on an abelian group, Cay(G, S) is
    integral iff S is a union of atoms."""
    return all(bits & atoms[x] == atoms[x] for x in range(len(atoms)) if bits >> x & 1)


@pytest.mark.parametrize("label", ["Z2^6", "Z4^3", "Z8^2", "Z3^3xZ2"])
@given(data=st.data())
@settings(max_examples=8, deadline=None)
def test_certify_atom_criterion_orders_33_to_64(label, data):
    g = build_cached(label)
    atoms = _atoms(g)
    cells = SubsetFamily.of(g).cell_masks()
    masks = []
    for _ in range(data.draw(st.integers(1, 12))):
        bits = sum(data.draw(st.sets(st.sampled_from(cells), max_size=len(cells))))
        if data.draw(st.booleans()):  # close under atoms: integral by the criterion
            bits = sum({atoms[x] for x in range(g.order) if bits >> x & 1})
        masks.append(bits)
    for bits, (k, spectrum) in zip(masks, _certify(engine_for(g), masks)):
        assert k == bits.bit_count()
        assert (spectrum is not None) == _union_of_atoms(atoms, bits), hex(bits)
        if spectrum is not None:  # power sums of the exact spectrum
            assert sum(spectrum.values()) == g.order
            assert sum(r * m for r, m in spectrum.items()) == 0
            assert sum(r * r * m for r, m in spectrum.items()) == g.order * k


@pytest.mark.parametrize("label", ["Z8", "Z9", "Z12", "Z6xZ2", "Z4xZ2", "Z2^3", "Z16"])
def test_integral_count_closed_form(label):
    """An unreduced scan of an abelian group finds 2^(c-1) integral subsets,
    c the number of cyclic subgroups: one choice per atom but {e}."""
    g = build_cached(label)
    c = len({_cyclic_span(g, x) for x in range(g.order)})
    gv = exhaustive_scan(g, "cayley_integral", reduce_orbits=False, witness_limit=None)
    assert gv.stats.integral_count == 2 ** (c - 1)


def test_engine_rejects_order_above_64():
    """Masks are uint64 and every bound of certify assumes n <= 64, the
    order test_annihilator_moduli_coprime_and_cover proves covered."""
    z9 = build_cached("Z9")
    g = direct_product(z9, z9)
    with pytest.raises(ValueError, match="at most 64"):
        engine_for(g)
    for names in (["0.1", "0.8"], ["1.0", "8.0"]):  # masks below and past bit 64
        with pytest.raises(ValueError, match="at most 64"):
            verdict(CayleyGraph.from_names(g, names))


def test_engine_cache_is_weak():
    g = FiniteGroup(build_cached("Z8").table, label="Z8")
    assert engine_for(g) is engine_for(g)
    ref = weakref.ref(g)
    del g
    gc.collect()
    assert ref() is None
