"""Catalog: expression parsing and the complete order <= 12 inventory."""

import pytest

from cayley_spectra.catalog import (
    GroupParseError,
    all_groups_of_order,
    build,
    build_cached,
    catalog_up_to_12,
    expr_order,
    parse_group_expr,
    permutations_of,
)
from cayley_spectra.groups import FiniteGroup

# classical counts of isomorphism classes per order
COUNTS = {1: 1, 2: 1, 3: 1, 4: 2, 5: 1, 6: 2, 7: 1, 8: 5, 9: 2, 10: 2, 11: 1, 12: 5}


def test_catalog_counts_per_order():
    for n, want in COUNTS.items():
        assert len(all_groups_of_order(n)) == want, f"order {n}"


def test_catalog_total():
    pairs = catalog_up_to_12()
    assert len(pairs) == sum(COUNTS.values()) == 24
    # labels are unique and round-trip through the parser
    labels = [expr for expr, _ in pairs]
    assert len(set(labels)) == 24
    for expr, g in pairs:
        assert build_cached(expr) is g  # build cache shares instances
        assert g.order <= 12


def test_pairwise_nonisomorphic_within_order():
    # order profiles separate every pair in this catalog except D4/Q8,
    # which differ in their number of order-2 elements anyway; use
    # (profile, abelian) as a cheap isomorphism-class separator
    for n in COUNTS:
        sigs = []
        for _, g in all_groups_of_order(n):
            sigs.append((tuple(sorted(g.order_profile().items())), g.is_abelian))
        assert len(set(sigs)) == len(sigs), f"order {n} groups not separated"


def test_expression_parser():
    assert expr_order(parse_group_expr("Z2^3")) == 8
    assert expr_order(parse_group_expr("Q8xZ2^2")) == 32
    assert expr_order(parse_group_expr("SD(7,3,2)")) == 21
    assert expr_order(parse_group_expr("S4")) == 24
    with pytest.raises(GroupParseError):
        parse_group_expr("")
    with pytest.raises(GroupParseError):
        parse_group_expr("Zx")
    with pytest.raises(GroupParseError):
        build("Z0")
    with pytest.raises(GroupParseError):
        build("Z128")  # order cap
    with pytest.raises(GroupParseError):
        build_cached("Wat5")


def test_build_whitespace_tolerant():
    assert build("Z2 x Z3").order == 6


def test_cyclic_naming_and_table():
    g = build_cached("Z6")
    assert g.names == ("0", "1", "2", "3", "4", "5")
    assert g.mul(4, 5) == 3
    assert g.inv(2) == 4


def test_homocyclic_naming():
    g = build_cached("Z2^3")
    assert g.names[0] == "0"
    assert "e1" in g.names and "e2" in g.names and "e3" in g.names
    e1, e2 = g.index_of("e1"), g.index_of("e2")
    assert g.name_of(g.mul(e1, e2)) == "e1+e2"


def test_dihedral_relations():
    g = build_cached("D4")
    x, y = g.index_of("x"), g.index_of("y")
    assert g.element_order(x) == 2
    assert g.element_order(y) == 4
    # x y x = y^-1
    assert g.mul(g.mul(x, y), x) == g.inv(y)


def test_quaternion_relations():
    g = build_cached("Q8")
    assert g.names == ("1", "-1", "i", "-i", "j", "-j", "k", "-k")
    i, j, k = g.index_of("i"), g.index_of("j"), g.index_of("k")
    m1 = g.index_of("-1")
    assert g.mul(i, j) == k
    assert g.mul(j, i) == g.index_of("-k")
    assert g.mul(i, i) == m1
    assert g.mul(m1, m1) == g.identity


def test_dicyclic12_relations():
    g = build_cached("Dic12")
    x, y = g.index_of("x"), g.index_of("y")
    assert g.element_order(x) == 3
    assert g.element_order(y) == 4
    # y x y^-1 = x^-1
    assert g.mul(g.mul(y, x), g.inv(y)) == g.inv(x)


def test_symmetric_group_composition_convention():
    g = build_cached("S3")
    a = g.index_of("(123)")
    b = g.index_of("(12)")
    # (123)(12): apply (12) first, then (123); 1->2->3, 2->1->2, 3->3->1
    assert g.name_of(g.mul(a, b)) == "(13)"


def test_permutations_of_s4():
    g = build_cached("S4")
    perms = permutations_of(g)
    assert len(perms) == 24
    assert perms[g.identity] == (0, 1, 2, 3)
    # composition matches the table
    for a in (1, 5, 17):
        for b in (2, 3, 23):
            pa, pb = perms[a], perms[b]
            composed = tuple(pa[pb[i]] for i in range(4))
            assert composed == perms[g.mul(a, b)]


def test_semidirect_sd732():
    g = build_cached("SD(7,3,2)")
    assert g.order == 21
    assert not g.is_abelian
    x, y = g.index_of("x"), g.index_of("y")
    assert g.element_order(x) == 3
    assert g.element_order(y) == 7
    # x y x^-1 = y^2
    lhs = g.mul(g.mul(x, y), g.inv(x))
    assert lhs == g.mul(y, y)


def test_e9_and_sl23():
    e9 = build_cached("E9")
    assert e9.order == 18 and not e9.is_abelian
    assert e9.exponent() == 6
    sl = build_cached("SL2_3")
    assert sl.order == 24 and not sl.is_abelian
    # unique element of order 2 (the negative identity matrix)
    assert sum(1 for a in range(24) if sl.element_order(a) == 2) == 1


def test_alternating_group():
    g = build_cached("A4")
    assert g.order == 12
    assert sorted(g.order_profile().items()) == [(1, 1), (2, 3), (3, 8)]


def test_product_label_roundtrip():
    g = build_cached("Z2^2xZ4")
    assert g.order == 16
    assert g.label == "Z2^2xZ4"
    assert g.is_abelian and g.exponent() == 4


@pytest.mark.parametrize(
    "expr,labels",
    [
        ("Z2^6", ["Z2^6"]),
        ("Q8xZ2^3", ["Q8", "Z2^3", "Q8xZ2^3"]),
        ("Dic12", ["Z3", "Z4", "Dic12"]),
        ("SD(7,3,2)", ["Z7", "Z3", "SD(7,3,2)"]),
    ],
)
def test_build_checks_each_group_once(monkeypatch, expr, labels):
    """Each group is built, and so has its axioms checked, once: the
    result is relabelled in place rather than rebuilt."""
    built = []
    init = FiniteGroup.__init__

    def counting_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self.label)

    monkeypatch.setattr(FiniteGroup, "__init__", counting_init)
    g = build(parse_group_expr(expr))
    assert g.label == expr
    assert built == labels
