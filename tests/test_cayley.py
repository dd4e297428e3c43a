"""Cayley graphs: construction, graph predicates, exact lift identities."""

import numpy as np
import pytest

from cayley_spectra.catalog import build_cached
from cayley_spectra.cayley import (
    AsymmetricSubsetError,
    CayleyGraph,
    SymmetricSubset,
    induced_subgroup_adjacency,
    lift_from_quotient,
    lift_from_subgroup,
    lift_preimage,
    union_product_subset,
)
from cayley_spectra.groups import ElementSubset, FiniteGroup, closure, direct_product, quotient
from cayley_spectra.intlinalg import IntMatrix, IntPolynomial


def test_subset_validation():
    g = build_cached("Z6")
    with pytest.raises(AsymmetricSubsetError):
        SymmetricSubset.of(g, [1])  # inverse 5 missing
    with pytest.raises(AsymmetricSubsetError):
        SymmetricSubset.of(g, [0])  # identity
    s = SymmetricSubset.of(g, [1, 5, 3])
    assert len(s) == 3
    assert s.member_names() == ["1", "3", "5"]
    with pytest.raises(AsymmetricSubsetError, match=r"^bitmask 0x40 out of range for order 6$"):
        SymmetricSubset(g, 1 << 6)
    with pytest.raises(ValueError, match="element index 7 out of range"):
        SymmetricSubset.of(g, [7])
    assert s != ElementSubset(g, s.bits)
    assert s.as_element_subset() == ElementSubset(g, s.bits)


def test_adjacency_symmetric_and_regular():
    g = build_cached("D4")
    c = CayleyGraph.from_names(g, ["y", "y3", "x"])
    a = c.adjacency_matrix()
    assert a.is_symmetric()
    assert all(sum(a[i, j] for j in range(8)) == 3 for i in range(8))
    assert all(a[i, i] == 0 for i in range(8))
    # numpy path agrees
    assert (c.adjacency_numpy() == np.array(a.rows)).all()


def test_edge_rule_matches_definition():
    g = build_cached("S3")
    c = CayleyGraph.from_names(g, ["(12)", "(13)", "(23)"])
    a = c.adjacency_matrix()
    for x in range(6):
        for y in range(6):
            want = 1 if (x != y and c.subset.bits >> g.mul(x, g.inv(y)) & 1) else 0
            assert a[x, y] == want


def test_generates_and_components():
    g = build_cached("Z6")
    assert CayleyGraph.from_names(g, ["1", "5"]).generates()
    two = CayleyGraph.from_names(g, ["2", "4"])
    assert not two.generates()
    assert two.component_count() == 2
    empty = CayleyGraph(g, SymmetricSubset(g, 0))
    assert empty.component_count() == 6


def test_bipartite_and_complete_multipartite():
    z4 = build_cached("Z4")
    c4 = CayleyGraph.from_names(z4, ["1", "3"])
    assert c4.is_bipartite()
    assert not CayleyGraph.from_names(build_cached("Z3"), ["1", "2"]).is_bipartite()
    # K_{2,2,2}: complement of 3 disjoint edges, octahedron
    z6 = build_cached("Z6")
    oct_ = CayleyGraph.from_names(z6, ["1", "2", "4", "5"])
    assert oct_.is_complete_multipartite()
    assert not CayleyGraph.from_names(z6, ["1", "5"]).is_complete_multipartite()


def test_complete_multipartite_iff_complement_subgroup():
    # exhaustive over two groups: predicate equals "G \\ S is a subgroup"
    from cayley_spectra.groups import is_subgroup
    from cayley_spectra.search import symmetric_subsets

    for label in ["Z8", "D4"]:
        g = build_cached(label)
        full = (1 << g.order) - 1
        for s in symmetric_subsets(g):
            c = CayleyGraph(g, s)
            comp = full & ~s.bits
            connected = c.component_count() == 1
            if not connected:
                continue
            assert c.is_complete_multipartite() == is_subgroup(g, comp), s.member_names()


def test_lift_from_subgroup_spectrum_identity():
    # T = S u (G \\ H); block decomposition over cosets gives
    # chi_T (x - d)^k == chi_S^k (x - d - n(k-1)) (x - d + n)^(k-1)
    g = build_cached("D6")
    h_bits = closure(g, 1 << g.index_of("y")).bits  # <y> of order 6
    h = ElementSubset(g, h_bits)
    s = SymmetricSubset.from_names(g, ["y", "y5"])
    t = lift_from_subgroup(g, h, s)
    assert t.bits & s.bits == s.bits
    n, k, d = 6, 2, 2
    chi_t = CayleyGraph(g, t).adjacency_matrix().char_poly()
    chi_s = induced_subgroup_adjacency(g, h, s).char_poly()
    lhs = chi_t * IntPolynomial.x_minus(d) ** k
    rhs = (
        chi_s**k
        * IntPolynomial.x_minus(d + n * (k - 1))
        * IntPolynomial.x_minus(d - n) ** (k - 1)
    )
    assert lhs == rhs


def test_lift_from_subgroup_trivial_and_full():
    g = build_cached("Z6")
    # H = G: T = S unchanged
    full = ElementSubset(g, (1 << 6) - 1)
    s = SymmetricSubset.from_names(g, ["2", "4"])
    assert lift_from_subgroup(g, full, s).bits == s.bits
    # H = {e}, S empty: T = G minus identity, the complete graph
    triv = ElementSubset(g, 1 << g.identity)
    t = lift_from_subgroup(g, triv, SymmetricSubset(g, 0))
    assert len(t) == 5
    chi = CayleyGraph(g, t).adjacency_matrix().char_poly()
    assert chi == IntPolynomial.x_minus(5) * IntPolynomial.x_minus(-1) ** 5


def test_lift_from_quotient_spectrum_identity():
    g = build_cached("Z12")
    nsub = ElementSubset(g, closure(g, 1 << 4).bits)  # {0,4,8}
    qgroup, proj = quotient(g, nsub)
    assert qgroup.order == 4
    sbar = SymmetricSubset.of(qgroup, [1, 3])
    t = lift_from_quotient(g, nsub, sbar)
    assert lift_preimage(g, proj, sbar).bits == t.bits
    chi_t = CayleyGraph(g, t).adjacency_matrix().char_poly()
    chi_q = CayleyGraph(qgroup, sbar).adjacency_matrix().char_poly()
    assert chi_t == chi_q.scale_roots(3).shift_by_x_power(12 - 4)


def test_lift_from_quotient_rejects_bad_inputs():
    g = build_cached("S3")
    a3 = closure(g, 1 << g.index_of("(123)"))
    qgroup, _ = quotient(g, a3)
    sbar = SymmetricSubset.of(qgroup, [1])
    assert lift_from_quotient(g, a3, sbar).bits == (1 << 6) - 1 - a3.bits
    not_subgroup = ElementSubset.from_names(g, ["id", "(12)", "(13)"])
    not_normal = closure(g, 1 << g.index_of("(12)"))
    for nsub in (not_subgroup, not_normal, ElementSubset(g, 0)):
        with pytest.raises(ValueError, match="^quotient requires a normal subgroup$"):
            lift_from_quotient(g, nsub, sbar)
    trivial = ElementSubset(g, 1 << g.identity)
    z6 = build_cached("Z6")
    for wrong in (sbar, SymmetricSubset.of(z6, [1, 5])):  # order 2, then the wrong table
        with pytest.raises(ValueError, match="^sbar does not live in the quotient"):
            lift_from_quotient(g, trivial, wrong)


def test_lift_from_quotient_builds_no_group(monkeypatch):
    g = build_cached("Z12")
    nsub = closure(g, 1 << 4)
    qgroup, proj = quotient(g, nsub)
    sbar = SymmetricSubset.of(qgroup, [1, 3])
    built = []
    init = FiniteGroup.__init__

    def counting_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self.label)

    monkeypatch.setattr(FiniteGroup, "__init__", counting_init)
    assert lift_from_quotient(g, nsub, sbar) == lift_preimage(g, proj, sbar)
    assert built == []


def test_union_product_is_kronecker_sum():
    a = build_cached("Z3")
    b = build_cached("Z4")
    s1 = SymmetricSubset.of(a, [1, 2])
    s2 = SymmetricSubset.of(b, [1, 3])
    prod, t = union_product_subset(a, b, s1, s2)
    assert prod.order == 12
    aa = CayleyGraph(a, s1).adjacency_matrix()
    ab = CayleyGraph(b, s2).adjacency_matrix()
    want = aa.kron(IntMatrix.identity(4)) + IntMatrix.identity(3).kron(ab)
    assert CayleyGraph(prod, t).adjacency_matrix() == want


def test_union_product_built_once_per_factor_pair(monkeypatch):
    """Each factor pair's product is built once; another factor, even
    with an equal table, gets its own."""
    from cayley_spectra import cayley

    built = []

    def spy(g1, g2):
        built.append((g1.label, g2.label))
        return direct_product(g1, g2)

    monkeypatch.setattr(cayley, "direct_product", spy)
    # fresh groups: the lifts suite may already have built the catalog's product
    a, b = (FiniteGroup(build_cached(lbl).table, label=lbl) for lbl in ("Z3", "S3"))
    cells = [SymmetricSubset.of(a, [1, 2]), SymmetricSubset.of(a, [])]
    prods = {union_product_subset(a, b, s1, SymmetricSubset.of(b, []))[0] for s1 in cells}
    assert len(prods) == 1 and built == [("Z3", "S3")]
    c = FiniteGroup(b.table, label="S3")  # an equal table, but another group
    prod, t = union_product_subset(a, c, cells[0], SymmetricSubset.of(c, []))
    assert prod not in prods and t.group is prod and len(built) == 2


def test_complement_with_identity():
    g = build_cached("Z6")
    s = SymmetricSubset.of(g, [1, 5])
    comp = s.complement_bits()
    assert comp == 0b011100  # {2,3,4}
