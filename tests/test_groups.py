"""Group core: construction, identities, subgroup machinery."""

import pytest
from hypothesis import given, settings, strategies as st

from cayley_spectra.catalog import build_cached
from cayley_spectra.groups import (
    ElementSubset,
    FiniteGroup,
    center,
    closure,
    derived_subgroup,
    direct_product,
    is_normal,
    is_perfect,
    is_subgroup,
    quotient,
    semidirect_product,
    subgroup_group,
    subgroups_up_to_two_generators,
)

LABELS = ["Z1", "Z6", "Z8", "D4", "Q8", "S3", "A4", "Dic12", "Z2^3", "SD(7,3,2)"]


@pytest.mark.parametrize("label", LABELS)
def test_group_axioms(label):
    g = build_cached(label)
    n = g.order
    e = g.identity
    for a in range(n):
        assert g.mul(a, e) == a
        assert g.mul(e, a) == a
        assert g.mul(a, g.inv(a)) == e
        assert g.inv(g.inv(a)) == a


@pytest.mark.parametrize("label", LABELS)
def test_latin_square(label):
    g = build_cached(label)
    n = g.order
    full = set(range(n))
    for a in range(n):
        assert set(g.table[a]) == full
        assert {g.table[b][a] for b in range(n)} == full


@given(st.sampled_from(LABELS), st.data())
@settings(max_examples=60, deadline=None)
def test_associativity_sampled(label, data):
    g = build_cached(label)
    n = g.order
    idx = st.integers(min_value=0, max_value=n - 1)
    a, b, c = data.draw(idx), data.draw(idx), data.draw(idx)
    assert g.mul(g.mul(a, b), c) == g.mul(a, g.mul(b, c))


def test_element_orders_divide_group_order():
    for label in LABELS:
        g = build_cached(label)
        for a in range(g.order):
            assert g.order % g.element_order(a) == 0


def test_exponent_lcm():
    assert build_cached("Z6").exponent() == 6
    assert build_cached("Q8").exponent() == 4
    assert build_cached("S3").exponent() == 6
    assert build_cached("Z2^3").exponent() == 2
    assert build_cached("A4").exponent() == 6


def test_is_abelian():
    assert build_cached("Z12").is_abelian
    assert build_cached("Z2^2xZ4").is_abelian
    assert not build_cached("S3").is_abelian
    assert not build_cached("Q8").is_abelian


def test_closure_generates_subgroups():
    g = build_cached("S3")
    # one transposition generates an order-2 subgroup
    transpositions = [a for a in range(6) if g.element_order(a) == 2]
    sub = closure(g, 1 << transpositions[0])
    assert len(sub) == 2
    # a transposition and a 3-cycle generate everything
    three = [a for a in range(6) if g.element_order(a) == 3]
    sub = closure(g, (1 << transpositions[0]) | (1 << three[0]))
    assert len(sub) == 6


def test_is_subgroup_rejects_nonclosed():
    g = build_cached("Z8")
    assert is_subgroup(g, 0b00010001)  # {0, 4}
    assert is_subgroup(g, 0b01010101)  # {0, 2, 4, 6}
    assert not is_subgroup(g, 0b00000110)  # missing identity
    assert not is_subgroup(g, 0b00001011)  # {0,1,3}: 1+3 = 4 missing


def test_center_and_derived():
    q8 = build_cached("Q8")
    assert sorted(center(q8).members()) == [0, 1]  # {1, -1}
    assert sorted(derived_subgroup(q8).members()) == [0, 1]
    s3 = build_cached("S3")
    assert len(center(s3)) == 1
    assert len(derived_subgroup(s3)) == 3
    assert not is_perfect(s3)
    assert is_perfect(build_cached("Z1"))


def test_quotient_q8_by_center():
    g = build_cached("Q8")
    q, proj = quotient(g, 0b11)
    assert q.order == 4
    assert q.exponent() == 2  # Q8 / {+-1} is the Klein four-group
    assert len(proj) == 8
    assert proj[g.identity] == 0
    # projection is a homomorphism
    for a in range(8):
        for b in range(8):
            assert proj[g.mul(a, b)] == q.mul(proj[a], proj[b])


def test_quotient_rejects_non_normal():
    g = build_cached("S3")
    transposition = next(a for a in range(6) if g.element_order(a) == 2)
    sub = closure(g, 1 << transposition)
    assert is_subgroup(g, sub.bits) and not is_normal(g, sub.bits)
    with pytest.raises(ValueError):
        quotient(g, sub.bits)


def test_direct_product_structure():
    a = build_cached("Z2")
    b = build_cached("Z3")
    p = direct_product(a, b)
    assert p.order == 6
    assert p.exponent() == 6  # coprime orders give a cyclic product
    assert p.is_abelian
    g1, g2 = build_cached("D4"), build_cached("S3")
    q = direct_product(g1, g2)
    n2 = g2.order
    assert q.order == 48
    for a in range(q.order):
        for b in range(q.order):
            a1, a2, b1, b2 = a // n2, a % n2, b // n2, b % n2
            assert q.table[a][b] == g1.table[a1][b1] * n2 + g2.table[a2][b2]


def test_subgroup_group_roundtrip():
    g = build_cached("D4")
    rot = closure(g, 1 << 1)  # <y>
    sub, embed = subgroup_group(g, rot.bits)
    assert sub.order == 4
    assert sub.exponent() == 4
    for i in range(sub.order):
        for j in range(sub.order):
            assert embed[sub.mul(i, j)] == g.mul(embed[i], embed[j])


def test_two_generated_subgroup_counts():
    # classical subgroup counts; every subgroup here is 2-generated
    assert len(subgroups_up_to_two_generators(build_cached("Q8"))) == 6
    assert len(subgroups_up_to_two_generators(build_cached("S3"))) == 6
    assert len(subgroups_up_to_two_generators(build_cached("D4"))) == 10
    assert len(subgroups_up_to_two_generators(build_cached("A4"))) == 10
    assert len(subgroups_up_to_two_generators(build_cached("S4"))) == 30


def test_semidirect_trivial_action_is_direct():
    n = build_cached("Z3")
    h = build_cached("Z4")
    p = semidirect_product(n, h, {1: list(range(3))})
    assert p.is_abelian
    assert p.exponent() == 12


@pytest.mark.parametrize(
    "normal,perm,message",
    [
        ("Z3", (1, 0), "action of h-element 0 is not a permutation of N"),
        ("Z3", (1, 0, 2), "action of h-element 1 does not fix the identity"),
        ("Z4", (0, 2, 1, 3), "action of h-element 1 is not an automorphism"),
    ],
)
def test_semidirect_rejects_bad_action(normal, perm, message):
    with pytest.raises(ValueError) as exc:
        semidirect_product(build_cached(normal), build_cached("Z2"), {1: perm})
    assert str(exc.value) == message


def test_semidirect_table_matches_the_product_rule():
    """(a, s)(b, t) = (a s(b), st) at index a |H| + s, for D4 = Z4 x| Z2."""
    n, h = build_cached("Z4"), build_cached("Z2")
    act = {0: (0, 1, 2, 3), 1: (0, 3, 2, 1)}
    g = semidirect_product(n, h, {1: act[1]})
    for a in range(4):
        for s in range(2):
            for b in range(4):
                for t in range(2):
                    want = n.mul(a, act[s][b]) * 2 + h.mul(s, t)
                    assert g.mul(a * 2 + s, b * 2 + t) == want
    assert g.label == "Z4:Z2" and g.names[3] == "1.1"


# a Latin square with identity 0 that is not associative: (1*1)*2 != 1*(1*2)
LOOP5 = [[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 4, 0, 1, 3], [3, 2, 4, 0, 1], [4, 3, 1, 2, 0]]
# LOOP5 x Z17 by the direct-product index formula: order 85, past the old
# order-64 limit of the full associativity check, and its first failing
# row a = 17 is not in the first block of rows the check compares
LOOP85 = [
    [LOOP5[a // 17][b // 17] * 17 + (a + b) % 17 for b in range(85)] for a in range(85)
]


@pytest.mark.parametrize(
    "table,message",
    [
        ([[0, 1], [1]], "table is not square"),
        ([[0, 1, 2], [1, 2, 0]], "table is not square"),
        ([[0, 1], [1, 1]], "row 1 is not a permutation of the elements"),
        ([[0, 1], [0, 1]], "column 0 is not a permutation of the elements"),
        ([[0, 2, 1], [2, 1, 0], [1, 0, 2]], "table has no two-sided identity"),
        (
            [[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 3, 4, 0, 1], [3, 4, 1, 2, 0], [4, 2, 0, 1, 3]],
            "element 2 has no two-sided inverse",
        ),
        (LOOP5, "associativity fails at (1,1,2)"),
        (LOOP85, "associativity fails at (17,17,34)"),
    ],
    ids=[
        "ragged", "non_square", "non_latin_row", "non_latin_column", "no_identity",
        "one_sided_inverse", "non_associative", "non_associative_order_85",
    ],
)
def test_validation_rejects_broken_table(table, message):
    with pytest.raises(ValueError) as exc:
        FiniteGroup(table, label="broken")
    assert str(exc.value) == message
