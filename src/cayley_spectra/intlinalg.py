"""Exact integer matrices and polynomials.

Rank and determinant use fraction-free Bareiss elimination over Python
ints.  The one modular char-poly pipeline lives here: traces modulo
word-size primes, _newton_batch, crt_lift, then integer_root_split.
SpectraEngine feeds it Cayley-graph traces in batches and gives the
suites every char poly and verdict; _char_poly_general feeds it stacks
of any square integer matrices, for repcheck, and IntMatrix.char_poly,
its one-matrix case, is the tests' general-matrix oracle.  The prime product
is checked against a Hadamard-style bound, so results are exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb, isqrt
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

# Largest primes below 2^28.  With entries reduced mod p, an int64
# accumulation of n <= 64 products (p-1)^2 stays below 2^63.
PRIMES = (
    268435399, 268435367, 268435361, 268435337, 268435331, 268435313,
    268435291, 268435273, 268435243, 268435183, 268435171, 268435157,
)

ANNIHILATOR_MAX_ORDER = 12


class SizeLimitError(ValueError):
    """A well-formed input beyond a size the exact arithmetic supports:
    a group order above the catalog's or the engine's cap, or a
    coefficient bound past the CRT primes' capacity."""


# ---------------------------------------------------------------------------
# polynomials
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IntPolynomial:
    """Integer polynomial; coeffs[i] is the coefficient of x^i."""

    coeffs: Tuple[int, ...]

    @classmethod
    def of(cls, coeffs: Iterable[int]) -> "IntPolynomial":
        cs = list(coeffs)
        while len(cs) > 1 and cs[-1] == 0:
            cs.pop()
        if not cs:
            cs = [0]
        return cls(tuple(int(c) for c in cs))

    @classmethod
    def x_minus(cls, r: int) -> "IntPolynomial":
        return cls((-r, 1))

    @property
    def degree(self) -> int:
        if self.coeffs == (0,):
            return -1
        return len(self.coeffs) - 1

    def is_monic(self) -> bool:
        return self.coeffs[-1] == 1

    def __call__(self, x: int) -> int:
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __add__(self, other: "IntPolynomial") -> "IntPolynomial":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return IntPolynomial.of(out)

    def __mul__(self, other: "IntPolynomial") -> "IntPolynomial":
        a, b = self.coeffs, other.coeffs
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b):
                    out[i + j] += ca * cb
        return IntPolynomial.of(out)

    def __pow__(self, k: int) -> "IntPolynomial":
        if k < 0:
            raise ValueError("negative polynomial power")
        out = IntPolynomial.of([1])
        for _ in range(k):
            out = out * self
        return out

    def scale_roots(self, m: int) -> "IntPolynomial":
        """p(x) -> m^deg * p(x/m): multiplies every root by m."""
        d = len(self.coeffs) - 1
        return IntPolynomial.of([c * m ** (d - i) for i, c in enumerate(self.coeffs)])

    def shift_by_x_power(self, k: int) -> "IntPolynomial":
        return IntPolynomial.of([0] * k + list(self.coeffs))

    def __str__(self) -> str:
        if self.degree < 1:
            return str(self.coeffs[0])
        parts = []
        for i in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[i]
            if c == 0:
                continue
            mag = abs(c)
            if i == 0:
                term = str(mag)
            else:
                xs = "x" if i == 1 else f"x^{i}"
                term = xs if mag == 1 else f"{mag}{xs}"
            parts.append(("- " if c < 0 else "+ ") + term)
        s = " ".join(parts)
        return s[2:] if s.startswith("+ ") else ("-" + s[2:])


def divide_by_linear(p: IntPolynomial, r: int) -> Optional[IntPolynomial]:
    """Exact quotient p / (x - r), or None if r is not a root."""
    cs = p.coeffs
    out = [0] * (len(cs) - 1)
    acc = 0
    for i in range(len(cs) - 1, 0, -1):
        acc = acc * r + cs[i]
        out[i - 1] = acc
    if acc * r + cs[0] != 0:
        return None
    return IntPolynomial.of(out)


def integer_root_split(
    p: IntPolynomial, candidates: Iterable[int]
) -> Tuple[dict, IntPolynomial]:
    """Factor out every root among candidates of a monic integer polynomial.

    Returns ({root: multiplicity}, remainder) with
    p == remainder * prod (x - r)^mult and no candidate a root of the
    remainder; roots not among the candidates stay in the remainder.
    """
    if not p.is_monic():
        raise ValueError("integer_root_split requires a monic polynomial")
    roots: dict = {}
    rest = p
    for r in candidates:
        while True:
            q = divide_by_linear(rest, r)
            if q is None:
                break
            roots[r] = roots.get(r, 0) + 1
            rest = q
    return roots, rest


# ---------------------------------------------------------------------------
# matrices
# ---------------------------------------------------------------------------


class IntMatrix:
    """Dense matrix of Python ints (arbitrary precision)."""

    __slots__ = ("rows", "nrows", "ncols")

    def __init__(self, rows: Sequence[Sequence[int]]) -> None:
        self.rows = [list(map(int, r)) for r in rows]
        self.nrows = len(self.rows)
        self.ncols = len(self.rows[0]) if self.rows else 0
        if any(len(r) != self.ncols for r in self.rows):
            raise ValueError("ragged rows")

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    def __eq__(self, other: object) -> bool:
        return isinstance(other, IntMatrix) and self.rows == other.rows

    def __getitem__(self, ij: Tuple[int, int]) -> int:
        return self.rows[ij[0]][ij[1]]

    def is_square(self) -> bool:
        return self.nrows == self.ncols

    def is_symmetric(self) -> bool:
        if not self.is_square():
            return False
        return all(
            self.rows[i][j] == self.rows[j][i]
            for i in range(self.nrows)
            for j in range(i + 1, self.ncols)
        )

    def is_zero(self) -> bool:
        return all(c == 0 for r in self.rows for c in r)

    def transpose(self) -> "IntMatrix":
        return IntMatrix(list(zip(*self.rows)))

    def __add__(self, other: "IntMatrix") -> "IntMatrix":
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ValueError("shape mismatch")
        return IntMatrix(
            [
                [a + b for a, b in zip(ra, rb)]
                for ra, rb in zip(self.rows, other.rows)
            ]
        )

    def __sub__(self, other: "IntMatrix") -> "IntMatrix":
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ValueError("shape mismatch")
        return IntMatrix(
            [
                [a - b for a, b in zip(ra, rb)]
                for ra, rb in zip(self.rows, other.rows)
            ]
        )

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch")
        cols = list(zip(*other.rows))
        return IntMatrix(
            [[sum(a * b for a, b in zip(row, col)) for col in cols] for row in self.rows]
        )

    def kron(self, other: "IntMatrix") -> "IntMatrix":
        out = []
        for ra in self.rows:
            for rb in other.rows:
                out.append([a * b for a in ra for b in rb])
        return IntMatrix(out)

    def rank(self) -> int:
        return _bareiss_echelon(self.rows)[0]

    def det(self) -> int:
        if not self.is_square():
            raise ValueError("determinant of a non-square matrix")
        rank, pivot, sign = _bareiss_echelon(self.rows)
        if rank < self.nrows:
            return 0
        return sign * pivot

    def char_poly(self) -> IntPolynomial:
        """Characteristic polynomial det(xI - A), exact."""
        if not self.is_square():
            raise ValueError("characteristic polynomial of a non-square matrix")
        return _char_poly_general([self.rows])[0]

    def __repr__(self) -> str:
        return f"IntMatrix({self.rows!r})"


def _bareiss_echelon(rows: Sequence[Sequence[int]]) -> Tuple[int, int, int]:
    """Fraction-free row echelon.  Returns (rank, last pivot, sign).

    The sign tracks row swaps so det = sign * last pivot for full-rank
    square input; divisions are exact by construction.
    """
    m = [list(r) for r in rows]
    nr = len(m)
    nc = len(m[0]) if nr else 0
    rank = 0
    prev = 1
    sign = 1
    for col in range(nc):
        if rank == nr:
            break
        piv = next((r for r in range(rank, nr) if m[r][col] != 0), None)
        if piv is None:
            continue
        if piv != rank:
            m[piv], m[rank] = m[rank], m[piv]
            sign = -sign
        pval = m[rank][col]
        for r in range(rank + 1, nr):
            factor = m[r][col]
            row = m[r]
            prow = m[rank]
            for c in range(col, nc):
                row[c] = (pval * row[c] - factor * prow[c]) // prev
        prev = pval
        rank += 1
    return rank, prev, sign


# ---------------------------------------------------------------------------
# modular characteristic polynomial machinery
# ---------------------------------------------------------------------------


def charpoly_coeff_bound(n: int, row_norm_sq: Sequence[int]) -> int:
    """Bound on |coefficients| of det(xI - A) from row 2-norms.

    The x^(n-j) coefficient is (up to sign) the sum of the C(n,j)
    principal j-minors, each bounded via Hadamard by the product of the
    j largest row norms.
    """
    norms = sorted((int(s) for s in row_norm_sq), reverse=True)
    best = 1
    prefix = 1
    for j in range(1, n + 1):
        prefix *= norms[j - 1]
        cand = comb(n, j) * (isqrt(prefix) + 1)
        if cand > best:
            best = cand
        if prefix == 0:
            break
    return best


def primes_for_bound(bound: int) -> tuple:
    """Shortest prefix of PRIMES whose product exceeds 2*bound."""
    need = 2 * bound + 1
    acc = 1
    for i, p in enumerate(PRIMES):
        acc *= p
        if acc >= need:
            return PRIMES[: i + 1]
    raise SizeLimitError("coefficient bound exceeds available CRT capacity")


@lru_cache(maxsize=None)
def crt_context(primes: tuple) -> tuple:
    """(M, weights) with weights[i] = (M/p_i) * inv(M/p_i mod p_i, p_i).

    x = sum(r_i * weights[i]) mod M is then the CRT solution; cached per
    prime tuple so tight loops skip the modular inversions.
    """
    M = 1
    for p in primes:
        M *= p
    weights = tuple(
        (M // p) * pow((M // p) % p, p - 2, p) for p in primes
    )
    return M, weights


def crt_lift(coeff: np.ndarray, primes: Sequence[int]) -> List[IntPolynomial]:
    """One integer polynomial per b from residues coeff[t, b, j] mod primes[t].

    Coefficient j of polynomial b is the representative in (-M/2, M/2],
    M the product of the primes, of the residues coeff[:, b, j].
    """
    m_mod, weights = crt_context(tuple(primes))
    half = m_mod >> 1
    out = []
    for per_prime in zip(*coeff.tolist()):
        cs = [sum(r * w for r, w in zip(col, weights)) % m_mod for col in zip(*per_prime)]
        out.append(IntPolynomial.of(x - m_mod if x > half else x for x in cs))
    return out


def _newton_batch(traces: np.ndarray, n: int, p: int) -> np.ndarray:
    """Char-poly coefficients mod p for a whole batch of trace rows.

    traces has shape (b, n) holding tr(A^1..A^n) mod p per matrix; the
    result has shape (b, n+1) with column j the coefficient of x^j in
    det(xI - A) mod p.  Newton's identities need division by 1..n, hence
    the primes all exceed the largest supported order.
    """
    b = traces.shape[0]
    inv = np.empty(n + 1, dtype=np.int64)
    inv[0] = 1
    for m in range(1, n + 1):
        inv[m] = pow(m, p - 2, p)
    e = np.zeros((b, n + 1), dtype=np.int64)
    e[:, 0] = 1
    acc = np.zeros(b, dtype=np.int64)
    for m in range(1, n + 1):
        acc[:] = 0
        sgn = 1
        for i in range(1, m + 1):
            term = e[:, m - i] * traces[:, i - 1] % p
            if sgn > 0:
                acc += term
            else:
                acc += p - term
            sgn = -sgn
        e[:, m] = acc % p * inv[m] % p
    coeff = np.empty((b, n + 1), dtype=np.int64)
    for m in range(n + 1):
        col = e[:, m] if m % 2 == 0 else (p - e[:, m]) % p
        coeff[:, n - m] = col
    return coeff


def _char_poly_general(mats) -> List[IntPolynomial]:
    """det(xI - A) for each A in a (b, n, n) stack of ints, exact; n <= 64, as for PRIMES.

    Entries are reduced mod p as Python ints before they reach int64.
    One prime set covers the stack: the coefficient bound grows with
    each row norm, so the columnwise maximum of the sorted norms bounds
    every matrix's.
    """
    a = np.array(mats, dtype=object)
    if a.size == 0:
        return [IntPolynomial.of([1])] * len(a)
    n = a.shape[1]
    norms = np.sort((a * a).sum(axis=2), axis=1).max(axis=0)
    primes = primes_for_bound(charpoly_coeff_bound(n, norms.tolist()))
    coeff = []
    for p in primes:
        m = power = (a % p).astype(np.int64)
        traces = []
        for _ in range(n):
            traces.append(np.einsum("bii->b", power) % p)
            power = power @ m % p
        coeff.append(_newton_batch(np.stack(traces, axis=1), n, p))
    chis = crt_lift(np.array(coeff), primes)
    assert all(chi.is_monic() for chi in chis)
    return chis


def annihilator_product_oracle(a: IntMatrix, k: int) -> bool:
    """True iff prod_{i=-k..k} (A - iI) is the zero matrix.

    For a symmetric A this certifies that the spectrum consists of
    integers in [-k, k].  Exact big-int product; restricted to small
    matrices because entries grow like (n*k)^(2k+1).
    """
    if not a.is_square():
        raise ValueError("annihilator oracle needs a square matrix")
    if a.nrows > ANNIHILATOR_MAX_ORDER:
        raise ValueError(
            f"annihilator oracle restricted to order <= {ANNIHILATOR_MAX_ORDER}"
        )
    n = a.nrows
    prod = IntMatrix.identity(n)
    for i in range(-k, k + 1):
        shift = IntMatrix(
            [
                [a.rows[r][c] - (i if r == c else 0) for c in range(n)]
                for r in range(n)
            ]
        )
        prod = prod @ shift
        if prod.is_zero():
            return True
    return prod.is_zero()
