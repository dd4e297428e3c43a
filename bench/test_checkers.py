"""Tests of the reference checkers against tables built here and numpy.

Run with ``python3 -m pytest bench``.
"""

import numpy as np
import pytest

from checkers import (
    GroupFacts,
    bits_of,
    cayley_integral_by_classification,
    integral_subset_count_abelian,
    power_sum_problems,
)


def cyclic(n):
    return [[(a + b) % n for b in range(n)] for a in range(n)]


def product(t1, t2):
    n2 = len(t2)
    return [
        [t1[a // n2][b // n2] * n2 + t2[a % n2][b % n2] for b in range(len(t1) * n2)]
        for a in range(len(t1) * n2)
    ]


def perm_group(gens):
    """Closure of permutation generators, as a table; identity first."""
    ident = tuple(range(len(gens[0])))
    elems = [ident]
    i = 0
    while i < len(elems):
        for g in gens:
            h = tuple(elems[i][g[x]] for x in range(len(g)))
            if h not in elems:
                elems.append(h)
        i += 1
    index = {p: k for k, p in enumerate(elems)}
    return [[index[tuple(a[b[x]] for x in range(len(a)))] for b in elems] for a in elems]


def quaternion():
    # unit quaternions ±1, ±i, ±j, ±k as (sign, axis) with axis 0..3
    mult = {
        (0, 0): (1, 0), (0, 1): (1, 1), (0, 2): (1, 2), (0, 3): (1, 3),
        (1, 0): (1, 1), (1, 1): (-1, 0), (1, 2): (1, 3), (1, 3): (-1, 2),
        (2, 0): (1, 2), (2, 1): (-1, 3), (2, 2): (-1, 0), (2, 3): (1, 1),
        (3, 0): (1, 3), (3, 1): (1, 2), (3, 2): (-1, 1), (3, 3): (-1, 0),
    }
    elems = [(s, a) for s in (1, -1) for a in range(4)]
    index = {e: i for i, e in enumerate(elems)}

    def mul(x, y):
        s, a = mult[(x[1], y[1])]
        return (x[0] * y[0] * s, a)

    return [[index[mul(x, y)] for y in elems] for x in elems]


S3 = perm_group([(1, 0, 2), (1, 2, 0)])
D4 = perm_group([(1, 2, 3, 0), (3, 2, 1, 0)])
A4 = perm_group([(1, 2, 0, 3), (1, 0, 3, 2)])
Q8 = quaternion()
# Dic12 = Z3 x| Z4 with the generator of Z4 inverting Z3
DIC12 = [
    [((a % 3 + (b % 3 if (a // 3) % 2 == 0 else -(b % 3))) % 3) + 3 * ((a // 3 + b // 3) % 4)
     for b in range(12)]
    for a in range(12)
]


def symmetric_subsets(facts):
    cells = facts.cells()
    for counter in range(1 << len(cells)):
        yield sum(c for i, c in enumerate(cells) if counter >> i & 1)


def float_integral(facts, mask):
    t, inv = facts.table, facts.inv
    adj = np.array(
        [[1.0 if mask >> t[x][inv[y]] & 1 else 0.0 for y in range(facts.n)] for x in range(facts.n)]
    )
    eig = np.linalg.eigvalsh(adj)
    return bool(np.all(np.abs(eig - np.round(eig)) < 1e-6)), eig


def test_tables_are_groups():
    for table in (S3, D4, A4, Q8, DIC12, product(Q8, cyclic(2))):
        facts = GroupFacts(table)
        assert facts.is_subgroup((1 << facts.n) - 1)


def test_cyclic_subgroups_and_atoms_of_z8():
    facts = GroupFacts(cyclic(8))
    assert facts.cyclic_subgroup_count() == 4
    assert facts.atom(1) == sum(1 << x for x in (1, 3, 5, 7))
    assert facts.atom(2) == (1 << 2) | (1 << 6)
    assert sorted(facts.rational_classes()) == sorted(
        [facts.atom(1), facts.atom(2), facts.atom(4)]
    )


@pytest.mark.parametrize(
    "table",
    [cyclic(8), cyclic(9), cyclic(12), product(cyclic(4), cyclic(2)), product(cyclic(6), cyclic(2))],
)
def test_atom_criterion_and_closed_form_match_eigenvalues(table):
    facts = GroupFacts(table)
    integral = 0
    for mask in symmetric_subsets(facts):
        by_float, _ = float_integral(facts, mask)
        assert facts.is_union_of_atoms(mask) == by_float
        integral += by_float
    assert integral == integral_subset_count_abelian(facts)


def test_closed_form_refuses_non_abelian():
    with pytest.raises(ValueError):
        integral_subset_count_abelian(GroupFacts(S3))


@pytest.mark.parametrize("table", [S3, D4, Q8, A4, DIC12])
def test_rational_class_unions_are_integral(table):
    facts = GroupFacts(table)
    classes = facts.rational_classes()
    assert sum(classes) == ((1 << facts.n) - 1) & ~(1 << facts.e)
    for pick in range(1 << len(classes)):
        mask = sum(c for i, c in enumerate(classes) if pick >> i & 1)
        assert float_integral(facts, mask)[0]


def test_closure_and_subgroup_test():
    facts = GroupFacts(cyclic(6))
    assert facts.generated(1 << 1) == (1 << 6) - 1
    assert facts.generated(1 << 2) == sum(1 << x for x in (0, 2, 4))
    assert facts.is_subgroup(sum(1 << x for x in (0, 3)))
    assert not facts.is_subgroup(sum(1 << x for x in (0, 2)))
    assert not facts.is_subgroup(sum(1 << x for x in (2, 4)))
    s3 = GroupFacts(S3)
    assert s3.join(1 << s3.e, s3.generated(1 << 1)) == s3.generated(1 << 1)
    assert all(s3.is_subgroup(s3.generated(1 << x)) for x in range(6))


def test_group_properties():
    assert GroupFacts(Q8).is_hamiltonian()
    assert GroupFacts(product(Q8, cyclic(2))).is_hamiltonian()
    assert not GroupFacts(D4).is_hamiltonian()
    assert not GroupFacts(S3).is_perfect()
    assert GroupFacts([[0]]).is_perfect()
    assert GroupFacts(cyclic(15)).odd_order_mask() == ((1 << 15) - 1) & ~1


@pytest.mark.parametrize(
    "table, expected",
    [
        (cyclic(1), True), (cyclic(4), True), (cyclic(6), True), (cyclic(8), False),
        (cyclic(12), False), (product(cyclic(6), cyclic(2)), True),
        (product(cyclic(4), cyclic(4)), True), (S3, True), (Q8, True), (DIC12, True),
        (product(Q8, cyclic(2)), True), (D4, False), (A4, False),
        (product(S3, cyclic(2)), False),
    ],
)
def test_classification_rule(table, expected):
    assert cayley_integral_by_classification(GroupFacts(table)) == expected


def test_power_sum_identities():
    facts = GroupFacts(cyclic(6))
    everything = ((1 << 6) - 1) & ~1
    assert power_sum_problems(facts, everything, {5: 1, -1: 5}) == []
    assert power_sum_problems(facts, 0, {0: 6}) == []
    # {3}: a perfect matching, three components
    assert power_sum_problems(facts, 1 << 3, {1: 3, -1: 3}) == []
    assert power_sum_problems(facts, 1 << 3, {1: 2, -1: 4})
    assert power_sum_problems(facts, everything, {5: 1, -1: 4, 1: 1})


def test_power_sums_hold_on_float_spectra_of_q8():
    facts = GroupFacts(Q8)
    for mask in symmetric_subsets(facts):
        ok, eig = float_integral(facts, mask)
        assert ok
        spectrum = {}
        for v in np.round(eig).astype(int):
            spectrum[int(v)] = spectrum.get(int(v), 0) + 1
        assert power_sum_problems(facts, mask, spectrum) == []
    assert list(bits_of(0b1010)) == [1, 3]
