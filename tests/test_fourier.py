"""The Fourier table against the power-sum walk, its oracle.

fourier.FourierTable.certify reads every eigenvalue off a complete
system of irreducibles; SpectraEngine.certify walks power sums and
checks an annihilator.  They share no code, and a scan uses the table
wherever the group has one, so the five arrays must be equal on every
mask.  A table whose construction fails its exact checks must leave the
group on the walk.
"""

import gc
import pickle
import weakref

import numpy as np
import pytest

from cayley_spectra import fourier, repcheck
from cayley_spectra.catalog import build_cached, catalog_up_to_12
from cayley_spectra.groups import FiniteGroup, closure, direct_product, subgroup_group
from cayley_spectra.integrality import engine_for
from cayley_spectra.search import SubsetFamily, _masks_of_counters, exhaustive_scan

WALK_12 = {"D5", "A4", "D6"}  # degree 3 (A4), or no shipped system (D_n)
SAMPLED = [
    "Z2^4", "Z2^5", "Z25", "Z27", "Z2^2xZ4",
    "Q8xZ2^2", "Q8xZ2^3", "Dic12xZ2", "S3xZ3", "D4xZ2",
]
WALK_ONLY = ["A4", "Q8xZ4", "S4", "SL2_3", "D6", "D8", "SD(7,3,2)"]


def _copy(label):
    """A fresh group with the catalog table and label, whose table cache
    entry no other test shares."""
    g = build_cached(label)
    return FiniteGroup(g.table, g.names, label=g.label)


def _masks(group, count=None, seed=0):
    """Every subset's mask, or count seeded ones."""
    family = SubsetFamily.of(group)
    if count is None or family.subset_count <= count:
        counters = np.arange(family.subset_count, dtype=np.uint64)
    else:
        counters = np.random.default_rng(seed).integers(0, family.subset_count, count, dtype=np.uint64)
    return _masks_of_counters(counters, family.mask_tables)


def _assert_equals_walk(group, masks, table=None):
    table = table or fourier.fourier_table(group)
    engine = engine_for(group)
    for lo in range(0, len(masks), 2048):
        chunk = masks[lo : lo + 2048]
        for name, got, want in zip(
            ("degree", "integral", "rows", "roots", "mults"), table.certify(chunk), engine.certify(chunk)
        ):
            assert np.array_equal(got, want), (group.label, name, lo)


def _scan_json(group, prop):
    """A tally scan's report less the group label and wall_time_ms, with
    its least witnesses."""
    gv = exhaustive_scan(group, prop, witness_limit=None)
    d = gv.to_json_dict()
    del d["group"], d["stats"]["wall_time_ms"]
    return d, [w.to_json_dict() for w in gv.least_witnesses]


@pytest.mark.parametrize("label", [expr for expr, _ in catalog_up_to_12()])
def test_every_subset_order_le_12(label):
    g = build_cached(label)
    table = fourier.fourier_table(g)
    assert (table is None) == (label in WALK_12)
    if table is not None:
        _assert_equals_walk(g, _masks(g), table)


@pytest.mark.parametrize("label", SAMPLED)
def test_seeded_masks(label):
    g = build_cached(label)
    assert fourier.fourier_table(g) is not None
    _assert_equals_walk(g, _masks(g, 1 << 12, seed=len(label)))


@pytest.mark.parametrize("cycle", ["(12)(34),(13)(24)", "(1234)"])
def test_unlabelled_abelian_subgroup(cycle):
    """The abelian route reads the table alone: a subgroup of S4, whose
    label names no catalog group."""
    s4 = build_cached("S4")
    gens = sum(1 << s4.index_of(x) for x in cycle.split(","))
    sub, _ = subgroup_group(s4, closure(s4, gens))
    assert sub.is_abelian and sub.order == 4
    _assert_equals_walk(sub, _masks(sub))


@pytest.mark.parametrize("label", WALK_ONLY)
def test_groups_left_on_the_walk(label):
    assert fourier.fourier_table(build_cached(label)) is None


def test_galois_orbits_weight_the_characters():
    """Z27's 27 characters fall into 4 Galois orbits, one per cyclic
    subgroup of the dual, of sizes 1, 2, 6 and 18."""
    table = fourier.fourier_table(build_cached("Z27"))
    assert (table.chars_count, table.phi, table.blocks_count) == (4, 18, 0)
    assert sorted(table.weights.tolist()) == [1, 2, 6, 18]
    q8z22 = fourier.fourier_table(build_cached("Q8xZ2^2"))
    assert (q8z22.chars_count, q8z22.blocks_count, q8z22.phi) == (16, 4, 2)


def test_corrupted_character_leaves_the_walk(monkeypatch):
    """One wrong exponent breaks E[t, xy] = E[t, x] + E[t, y], so the
    table is refused and the scan takes the walk, with the same report."""
    build = fourier._dual_exponents

    def corrupted(group):
        m, exps = build(group)
        exps = exps.copy()
        exps[3, 5] += 1
        return m, exps

    monkeypatch.setattr(fourier, "_dual_exponents", corrupted)
    bad = _copy("Z4xZ2")
    assert fourier.fourier_table(bad) is None
    with pytest.raises(ValueError, match="not a homomorphism"):
        fourier._certified_dual(bad, *corrupted(bad))
    with pytest.raises(ValueError, match="not distinct"):  # n copies of the trivial character
        fourier._certified_dual(bad, 4, np.zeros((8, 8), dtype=np.int64))
    monkeypatch.undo()
    good = _copy("Z4xZ2")
    assert fourier.fourier_table(good) is not None
    for prop in ("cayley_integral", "cis"):
        assert _scan_json(bad, prop) == _scan_json(good, prop)


def test_wrong_product_index_order_leaves_the_walk():
    """Z2 x Q8 labelled Q8xZ2 numbers its elements in the other order: the
    shipped Q8xZ2 system fails its homomorphism check on that table, so
    the group takes the walk.  Under its own label Z2xQ8 it gets the
    product system with the integer factor on the left, and both scans
    agree."""
    swapped = direct_product(build_cached("Z2"), build_cached("Q8"))
    mislabelled = FiniteGroup(swapped.table, swapped.names, label="Q8xZ2")
    shipped = repcheck.system_for("Q8xZ2")
    with pytest.raises(ValueError, match="not a homomorphism"):
        repcheck.ExplicitRep(mislabelled, "rho", shipped.reps[-1].images, shipped.m)
    assert fourier.fourier_table(mislabelled) is None
    table = fourier.fourier_table(swapped)
    assert table is not None and table.blocks_count == 2
    _assert_equals_walk(mislabelled, _masks(mislabelled), table)
    for prop in ("cayley_integral", "cis"):
        assert _scan_json(mislabelled, prop) == _scan_json(swapped, prop)


def test_product_of_two_cyclotomic_factors_refused():
    """kron of two factors with phi(m) > 1 is not their tensor product."""
    with pytest.raises(ValueError, match="both factors"):
        repcheck.system_for("Q8xZ4")


def test_table_is_cached_weakly_and_built_lazily():
    """engine_for builds no table; the first scan does, once per group,
    and the table dies with its group."""
    g = _copy("Q8xZ2")
    engine_for(g)
    assert g not in fourier._TABLES
    family = SubsetFamily.of(g)
    family.build_scan_tables(reduce_orbits=True)
    table = family.fourier
    assert table is not None and fourier.fourier_table(g) is table
    # pool workers unpickle the family with its table and build none
    assert "fourier" in vars(pickle.loads(pickle.dumps(family)))
    ref = weakref.ref(g)
    del g, family
    gc.collect()
    assert ref() is None


def test_exactness_guard(monkeypatch):
    """The table refuses coordinates whose sums could wrap its int16 byte
    tables (here 4 * 2^24), and determinant products that could reach
    2^53: over Z[zeta_2], with the product tensor scaled to 2^48, one
    block of entries 1 on 4 elements sums 2 terms below 4^2 * 2^48 = 2^52."""
    chars = np.zeros((4, 0, 1), dtype=np.int64)
    blocks = np.full((4, 1, 2, 2, 1), 2**24, dtype=np.int64)
    with pytest.raises(ValueError, match="too large for int16"):
        fourier.FourierTable(2, chars, np.zeros(0), blocks)
    blocks = np.ones((4, 1, 2, 2, 1), dtype=np.int64)
    tensor = fourier._product_tensor
    monkeypatch.setattr(fourier, "_product_tensor", lambda m: tensor(m) << 47)
    fourier.FourierTable(2, chars, np.zeros(0), blocks)
    monkeypatch.setattr(fourier, "_product_tensor", lambda m: tensor(m) << 48)
    with pytest.raises(ValueError, match="too large for exact determinant"):
        fourier.FourierTable(2, chars, np.zeros(0), blocks)


def _dense_rows(table):
    """W, the coordinates of every element's image, read back from the
    byte tables as W[8i + j] = bytes[i, 1 << j], with the padding rows
    past n."""
    return np.concatenate([table.bytes[i, 1 << np.arange(8)] for i in range(len(table.bytes))]).astype(np.int64)


@pytest.mark.parametrize("label", [e for e, _ in catalog_up_to_12() if e not in WALK_12] + SAMPLED)
def test_byte_tables_equal_the_dense_product(label):
    """Every byte value at every byte position, and seeded whole masks,
    give bits @ W.  Padding rows are zero, so bits past n add nothing,
    and every shipped table has n w <= 64, far inside int16."""
    g = build_cached(label)
    table = fourier.fourier_table(g)
    w = _dense_rows(table)
    assert not w[g.order :].any()
    assert g.order * np.abs(w).max() <= 64
    v = np.arange(256, dtype=np.uint64)
    single = np.concatenate([v << np.uint64(8 * i) for i in range(len(table.bytes))])
    for masks in (single, _masks(g, 1 << 10, seed=3)):
        bits = np.unpackbits(masks.view(np.uint8), bitorder="little").reshape(-1, 64)[:, : len(w)]
        assert np.array_equal(table.coords(masks), bits.astype(np.int64) @ w), label


def test_integer_range_guard(monkeypatch):
    """n w = 4 * 8191 fits int16 and sums exactly; 4 * 8192 = 2^15 does
    not.  A table scaled past the range is refused and the group takes
    the walk, with the same reports as under its true table."""
    chars = np.full((4, 1, 1), 8191, dtype=np.int64)
    table = fourier.FourierTable(2, chars, np.array([4]), np.zeros((4, 0, 2, 2, 1), dtype=np.int64))
    assert table.coords(np.array([0b1111, 0b0110], dtype=np.uint64)).tolist() == [[32764], [16382]]
    with pytest.raises(ValueError, match="too large for int16"):
        fourier.FourierTable(2, chars + 1, np.array([4]), np.zeros((4, 0, 2, 2, 1), dtype=np.int64))
    real = fourier.FourierTable

    def scaled(m, chars, weights, blocks):  # n w = 8 * 4096 = 2^15 on Z4xZ2
        return real(m, chars * 4096, weights, blocks * 4096)

    monkeypatch.setattr(fourier, "FourierTable", scaled)
    bad = [_copy("Z4xZ2"), _copy("Q8xZ2")]
    assert [fourier.fourier_table(g) for g in bad] == [None, None]
    monkeypatch.undo()
    for g in bad:
        good = _copy(g.label)
        assert fourier.fourier_table(good) is not None
        for prop in ("cayley_integral", "cis"):
            assert _scan_json(g, prop) == _scan_json(good, prop)


def test_two_by_two_rule():
    """A 2x2 block is integral iff its trace and determinant are rational
    and t^2 - 4D is a square, on a hand-made table over Z[zeta_5] whose
    rows are single-element images: diag(zeta, -zeta) has trace 0 and
    determinant -zeta^2, whose coordinate 0 alone would pass (t^2 - 4D
    reads 0); [[0, 1], [2, 0]] has t^2 - 4D = 8; diag(2, 1) is integral."""
    blocks = np.zeros((4, 1, 2, 2, 4), dtype=np.int64)
    blocks[0, 0, 0, 0, 1], blocks[0, 0, 1, 1, 1] = 1, -1
    blocks[1, 0, 0, 1, 0], blocks[1, 0, 1, 0, 0] = 1, 2
    blocks[2, 0, 0, 0, 0], blocks[2, 0, 1, 1, 0] = 2, 1
    table = fourier.FourierTable(5, np.zeros((4, 0, 4), dtype=np.int64), np.zeros(0), blocks)
    degree, integral, rows, roots, mults = table.certify(np.array([1, 2, 4], dtype=np.uint64))
    assert integral.tolist() == [False, False, True]
    assert (rows.tolist(), roots.tolist(), mults.tolist()) == ([2, 2], [2, 1], [2, 2])
