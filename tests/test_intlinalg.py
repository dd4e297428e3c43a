"""Exact integer linear algebra: polynomials, matrices, CRT, char polys."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cayley_spectra.intlinalg import (
    PRIMES,
    IntMatrix,
    IntPolynomial,
    _newton_batch,
    annihilator_product_oracle,
    charpoly_coeff_bound,
    crt_lift,
    divide_by_linear,
    integer_root_split,
    primes_for_bound,
)

small_int = st.integers(min_value=-30, max_value=30)


def sym_matrix_strategy(max_n=6):
    def build(draw_vals, n):
        rows = [[0] * n for _ in range(n)]
        it = iter(draw_vals)
        for i in range(n):
            for j in range(i, n):
                v = next(it)
                rows[i][j] = v
                rows[j][i] = v
        return IntMatrix(rows)

    return st.integers(min_value=1, max_value=max_n).flatmap(
        lambda n: st.lists(
            small_int, min_size=n * (n + 1) // 2, max_size=n * (n + 1) // 2
        ).map(lambda vals: build(vals, n))
    )


def cofactor_char_poly(a):
    """Independent char poly via exact cofactor determinant of xI - A."""
    n = a.nrows
    # polynomial entries, each a coefficient list
    def pneg(p):
        return [-c for c in p]

    def padd(p, q):
        m = max(len(p), len(q))
        return [
            (p[i] if i < len(p) else 0) + (q[i] if i < len(q) else 0)
            for i in range(m)
        ]

    def pmul(p, q):
        out = [0] * (len(p) + len(q) - 1)
        for i, c in enumerate(p):
            if c:
                for j, d in enumerate(q):
                    out[i + j] += c * d
        return out

    def det(rows):
        if len(rows) == 1:
            return rows[0][0]
        total = [0]
        for j, entry in enumerate(rows[0]):
            minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
            term = pmul(entry, det(minor))
            total = padd(total, term if j % 2 == 0 else pneg(term))
        return total

    rows = [
        [
            padd([-a[i, j]], [0, 1]) if i == j else [-a[i, j]]
            for j in range(n)
        ]
        for i in range(n)
    ]
    coeffs = det(rows)
    return IntPolynomial.of(coeffs)


@given(sym_matrix_strategy(5))
@settings(max_examples=40, deadline=None)
def test_char_poly_matches_cofactor_expansion(a):
    assert a.char_poly() == cofactor_char_poly(a)


@given(sym_matrix_strategy(5))
@settings(max_examples=30, deadline=None)
def test_char_poly_mod_prime_matches_exact(a):
    p = PRIMES[0]
    n = a.nrows
    power = IntMatrix.identity(n)
    traces = []
    for _ in range(n):
        power = power @ a
        traces.append(sum(power[i, i] for i in range(n)) % p)
    exact = a.char_poly()
    modp = _newton_batch(np.array([traces], dtype=np.int64), n, p)[0].tolist()
    assert [c % p for c in exact.coeffs] == [c % p for c in modp]


def test_char_poly_known_values():
    # path graph P3: x^3 - 2x
    a = IntMatrix([[0, 1, 0], [1, 0, 1], [0, 1, 0]])
    assert a.char_poly() == IntPolynomial.of([0, -2, 0, 1])
    # complete graph K4: (x-3)(x+1)^3
    k4 = IntMatrix([[0 if i == j else 1 for j in range(4)] for i in range(4)])
    want = IntPolynomial.x_minus(3) * IntPolynomial.x_minus(-1) ** 3
    assert k4.char_poly() == want


def test_charpoly_coeff_bound_covers_actual():
    rng = np.random.default_rng(7)
    for _ in range(20):
        n = int(rng.integers(1, 7))
        m = rng.integers(-9, 10, size=(n, n))
        m = m + m.T
        a = IntMatrix([[int(x) for x in row] for row in m])
        norms = [sum(int(x) ** 2 for x in row) for row in m]
        bound = charpoly_coeff_bound(n, norms)
        for c in a.char_poly().coeffs:
            assert abs(c) <= bound


def test_primes_for_bound_product_exceeds():
    bound = 10**40
    ps = primes_for_bound(bound)
    prod = 1
    for p in ps:
        prod *= p
    assert prod > 2 * bound
    assert len(primes_for_bound(1)) == 1


def test_crt_symmetric_roundtrip():
    ps = PRIMES[:4]
    m = 1
    for p in ps:
        m *= p
    for v in [0, 1, -1, 12345, -99999, m // 2 - 1, -(m // 2 - 1)]:
        residues = np.array([[[v % p]] for p in ps], dtype=np.int64)
        assert crt_lift(residues, ps)[0].coeffs[0] == v


def test_crt_lift_rows_and_extremes():
    # coeff[t, b, j]: three rows of four coefficients each, lifted at once
    ps = PRIMES[:3]
    m = ps[0] * ps[1] * ps[2]
    top = m // 2  # M is odd, so (-M/2, M/2] runs from -top to top
    rows = [
        [top - 1, -(top - 1), 7, 1],
        [top, -top, 0, 1],
        [-1, 0, m // 3, 1],
    ]
    residues = np.array([[[c % p for c in row] for row in rows] for p in ps], dtype=np.int64)
    assert [chi.coeffs for chi in crt_lift(residues, ps)] == [tuple(r) for r in rows]
    # one past the top wraps to the bottom of the range
    wrap = np.array([[[(top + 1) % p]] for p in ps], dtype=np.int64)
    assert crt_lift(wrap, ps)[0].coeffs == (-top,)


def test_divide_by_linear_exact_or_none():
    p = IntPolynomial.x_minus(3) * IntPolynomial.x_minus(-2)
    q = divide_by_linear(p, 3)
    assert q == IntPolynomial.x_minus(-2)
    assert divide_by_linear(p, 1) is None


def test_integer_root_split_full_and_partial():
    p = IntPolynomial.x_minus(2) ** 3 * IntPolynomial.x_minus(-1) ** 2
    roots, rest = integer_root_split(p, range(-5, 6))
    assert roots == {2: 3, -1: 2}
    assert rest.degree == 0
    irr = IntPolynomial.of([-2, 0, 1])  # x^2 - 2
    p2 = IntPolynomial.x_minus(1) * irr
    roots, rest = integer_root_split(p2, range(-3, 4))
    assert roots == {1: 1}
    assert rest == irr


def test_integer_root_split_sparse_candidates():
    # 3 is a root but not a candidate: it must stay in the remainder
    p = IntPolynomial.x_minus(3) ** 2 * IntPolynomial.x_minus(-2) * IntPolynomial.x_minus(0)
    roots, rest = integer_root_split(p, [-2, 0, 5])
    assert roots == {-2: 1, 0: 1}
    assert rest == IntPolynomial.x_minus(3) ** 2
    roots, rest = integer_root_split(p, [])
    assert roots == {} and rest == p


@given(st.lists(st.integers(min_value=-4, max_value=4), min_size=1, max_size=6))
@settings(max_examples=50, deadline=None)
def test_root_split_reconstructs_polynomial(root_list):
    p = IntPolynomial.of([1])
    for r in root_list:
        p = p * IntPolynomial.x_minus(r)
    limit = max(abs(r) for r in root_list)
    roots, rest = integer_root_split(p, range(-limit, limit + 1))
    assert rest.degree == 0 and rest.coeffs[-1] == 1
    rebuilt = IntPolynomial.of([1])
    for r, mult in roots.items():
        rebuilt = rebuilt * IntPolynomial.x_minus(r) ** mult
    assert rebuilt == p


def test_polynomial_ops():
    p = IntPolynomial.of([1, 2, 1])  # (x+1)^2
    assert p == IntPolynomial.x_minus(-1) ** 2
    assert p(3) == 16
    assert str(p) == "x^2 + 2x + 1"
    scaled = p.scale_roots(3)  # roots move from -1 to -3
    assert scaled(-3) == 0 and scaled.is_monic()
    shifted = p.shift_by_x_power(2)
    assert shifted.degree == 4 and shifted(0) == 0


def test_matrix_ops():
    a = IntMatrix([[1, 2], [3, 4]])
    b = IntMatrix.identity(2)
    assert a @ b == a
    assert (a + b)[0, 0] == 2
    assert (a - a).is_zero()
    assert a.transpose()[0, 1] == 3
    assert a.det() == -2
    assert a.rank() == 2
    assert IntMatrix([[1, 2], [2, 4]]).rank() == 1
    k = a.kron(b)
    assert k.nrows == 4
    assert k[0, 0] == 1 and k[2, 2] == 3 * 0 + 4  # block structure


def test_rank_matches_numpy_on_random():
    rng = np.random.default_rng(11)
    for _ in range(25):
        n = int(rng.integers(1, 7))
        m = rng.integers(-5, 6, size=(n, n))
        a = IntMatrix([[int(x) for x in row] for row in m])
        assert a.rank() == np.linalg.matrix_rank(np.asarray(m, dtype=float))


def test_annihilator_oracle():
    # K4 has spectrum {3, -1, -1, -1}: annihilated by k >= 3
    k4 = IntMatrix([[0 if i == j else 1 for j in range(4)] for i in range(4)])
    assert annihilator_product_oracle(k4, 3)
    assert not annihilator_product_oracle(k4, 2)
    # P3 has sqrt(2) eigenvalues: never annihilated
    p3 = IntMatrix([[0, 1, 0], [1, 0, 1], [0, 1, 0]])
    assert not annihilator_product_oracle(p3, 2)
    with pytest.raises(ValueError):
        annihilator_product_oracle(IntMatrix([[0] * 13 for _ in range(13)]), 1)
