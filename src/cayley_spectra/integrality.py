"""Exact integrality verdicts for Cayley graph spectra.

The default engine computes the exact characteristic polynomial of the
adjacency matrix (modular traces + CRT against a proven coefficient
bound) and splits off integer roots; the spectrum is integral iff the
split is complete.  Scans use the engine's batched certificate instead
(SpectraEngine.certify): the char poly modulo one prime, then an
annihilator check on the identity row.  Floating point is never part of
a certificate.

A second engine certifies through eigenspace dimensions: for each
integer candidate t in [-k, k] it computes mult(t) = n - rank(A - tI)
with fraction-free Bareiss elimination, using a float eigensolver pass
only to order the candidates.  Both engines agree everywhere; the
char-poly route is the default because it is far cheaper per subset.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .cayley import CayleyGraph
from .groups import FiniteGroup, is_perfect
from .intlinalg import (
    PRIMES,
    IntMatrix,
    IntPolynomial,
    charpoly_coeff_bound,
    crt_context,
    divide_by_linear,
    primes_for_bound,
)

FLOAT_EVIDENCE_TOL = 1e-9
# root hits per block in _roots_mod: its work arrays stay near 1 MB beside
# the adjacency block a certificate holds
_HIT_BLOCK = 4096


@dataclass(frozen=True)
class SpectrumVerdict:
    """Certified verdict on the adjacency spectrum of one Cayley graph.

    For an integral spectrum, `spectrum` maps eigenvalue -> multiplicity
    and sums to the group order.  Otherwise `integer_eigenspace_total`
    counts the dimensions of all integer eigenspaces (necessarily < n),
    `remainder_degree` is the degree of the integer-root-free factor of
    the characteristic polynomial when the char-poly engine ran, and
    `float_evidence` lists approximate non-integer eigenvalues.
    """

    order: int
    degree: int
    integral: bool
    spectrum: Optional[Dict[int, int]]
    integer_eigenspace_total: int
    remainder_degree: Optional[int]
    float_evidence: Tuple[float, ...]
    method: str

    def eigenvalue_multiplicity(self, t: int) -> int:
        if self.spectrum is None:
            raise ValueError("no exact spectrum on a non-integral verdict")
        return self.spectrum.get(t, 0)

    def to_json_dict(self) -> dict:
        out: dict = {
            "order": self.order,
            "degree": self.degree,
            "integral": self.integral,
        }
        if self.integral:
            out["spectrum"] = {
                str(v): m for v, m in sorted(self.spectrum.items(), reverse=True)
            }
        else:
            out["integer_eigenspace_total"] = self.integer_eigenspace_total
            if self.remainder_degree is not None:
                out["remainder_degree"] = self.remainder_degree
            out["float_evidence"] = [round(x, 9) for x in self.float_evidence]
        out["method"] = self.method
        return out


# ---------------------------------------------------------------------------
# batched char-poly engine
# ---------------------------------------------------------------------------


class SpectraEngine:
    """Per-group engine turning subset bitmasks into exact verdicts.

    Two routes share one adjacency builder and one trace walk.  The scan
    route, certify(), decides integrality for a whole batch from the char
    poly modulo one prime plus an annihilator check on the identity row,
    with no big integers per mask.  The exact route, split_results(),
    lifts the char poly by CRT and splits off its integer roots; it
    serves verdict(), witness detail, and the capacity fallback of
    certify().

    Traces come from the identity row alone: right translations are
    automorphisms acting transitively, so every power of A has constant
    diagonal and tr(A^i) = n * (A^i)[e, e].  The engine keeps no
    reference to its group, so engine_for can cache it weakly.
    """

    def __init__(self, group: FiniteGroup) -> None:
        self.n = group.order
        self.identity = group.identity
        self.xyinv = group.xy_inv_table()

    def _adjacency(self, masks: Sequence[int]) -> Tuple[np.ndarray, np.ndarray]:
        """(A, degrees): a C-contiguous float64 (b, n, n) block of 0/1
        adjacency matrices, A[b, x, y] = [x y^-1 in S_b], and the degrees.

        np.take writes the block once, batch-major, so each A_b is one
        contiguous matrix for BLAS.  Masks are uint64, so n <= 64.
        """
        n = self.n
        arr = np.array([int(m) for m in masks], dtype=np.uint64)
        membership = (
            (arr[:, None] >> np.arange(n, dtype=np.uint64)) & np.uint64(1)
        ).astype(np.float64)
        degrees = membership.sum(axis=1).astype(np.int64)
        return np.take(membership, self.xyinv, axis=1), degrees

    def _traces(self, adj: np.ndarray, primes: Sequence[int]) -> np.ndarray:
        """tr(A^1..A^n) modulo each prime, shape (t, b, n), int64.

        A is symmetric (S is inverse-closed), so with v_j = e^T A^j,
        (A^(i+j))[e, e] = v_i . v_j and ceil(n/2) matrix-vector steps give
        all n traces.  The steps run in float64 and are exact: entries of
        v are reduced below p < 2^28 and A is 0/1, so every partial sum
        stays below n * p < 2^34.  The dot products run in int64: n <= 64
        products below p^2 < 2^56 sum below 2^62.
        """
        n = self.n
        t, b = len(primes), adj.shape[0]
        pf = np.array(primes, dtype=np.float64).reshape(t, 1, 1, 1)
        pi = np.array(primes, dtype=np.int64).reshape(t, 1)
        v = np.zeros((t, b, 1, n))
        v[:, :, 0, self.identity] = 1.0
        prev = v[:, :, 0, :].astype(np.int64)
        diag = np.empty((t, b, n), dtype=np.int64)  # diag[..., m-1] = (A^m)[e, e]
        for j in range(1, (n + 1) // 2 + 1):
            v = np.fmod(np.matmul(v, adj), pf)
            cur = v[:, :, 0, :].astype(np.int64)
            diag[:, :, 2 * j - 2] = (prev * cur).sum(axis=-1) % pi
            if 2 * j <= n:
                diag[:, :, 2 * j - 1] = (cur * cur).sum(axis=-1) % pi
            prev = cur
        return diag * n % pi[:, :, None]

    def _coeff_residues(self, masks: Sequence[int]) -> Tuple[np.ndarray, tuple, list]:
        """Char-poly coefficients of every mask, modulo each needed prime.

        Returns (C, primes, degrees) where C[t, b, j] = c_j of
        det(xI - A_b) mod primes[t]; the primes cover the coefficient
        bound of the largest degree in the batch.
        """
        adj, deg = self._adjacency(masks)
        degrees = deg.tolist()
        primes = _primes_for_degree(self.n, max(degrees, default=0))
        traces = self._traces(adj, primes)
        coeff = np.empty((len(primes), len(masks), self.n + 1), dtype=np.int64)
        for ti, p in enumerate(primes):
            coeff[ti] = _newton_batch(traces[ti], self.n, p)
        return coeff, primes, degrees

    def certify(self, masks: Sequence[int]) -> List[Tuple[int, Optional[Dict[int, int]]]]:
        """(degree, exact spectrum, or None when non-integral) per mask.

        1. Char poly mod p0 = PRIMES[0] only (one trace walk, one Newton).
        2. Multiplicities mod p0 of the candidates r in [-k, k], which hold
           every eigenvalue of a k-regular graph and stay distinct mod p0
           because p0 > 2k.  A root of multiplicity m over Z is one of
           multiplicity >= m mod p0, so mod-p0 multiplicities only
           over-count: if they sum to less than n, the spectrum is
           certified non-integral.
        3. Otherwise let T be the candidates found and check
           e^T prod_{r in T} (A - rI) = 0 over Z.  A is the regular
           representation of a = sum(S) in Z[G], and so is the product; the
           e-row of the matrix of z in Z[G] lists z's coefficients (entry y
           is z_(y^-1)), so a zero e-row means z = 0 and the check decides
           prod (A - rI) = 0.
           For symmetric A that holds iff every eigenvalue lies in T:
           integral spectra pass (T contains each eigenvalue) and others
           fail.  The e-row has l1 norm at most B = prod (k + |r|), so a
           zero residue modulo primes whose product exceeds 2B is a zero
           over Z.  A mask whose B outruns the CRT primes goes through the
           exact path instead: capacity never decides a verdict.
        4. For an integral spectrum char(A) = prod (x - r)^m(r) over Z, and
           the candidates are distinct mod p0, so the mod-p0 multiplicities
           are the exact spectrum.
        """
        if not masks:
            return []
        n, b = self.n, len(masks)
        adj, deg = self._adjacency(masks)
        p0 = PRIMES[0]
        coeff = _newton_batch(self._traces(adj, (p0,))[0], n, p0)
        rows, roots, mults = _roots_mod(coeff, deg, p0)
        full = np.bincount(rows, weights=mults, minlength=b) == n
        # primes needed per mask: every prime exceeds 2^bits, and
        # ceil(log2 x) = (x - 1).bit_length() bounds each factor k + |r|
        bits = min(PRIMES).bit_length() - 1
        ceil_log2 = np.array([(x - 1).bit_length() for x in range(2 * n + 2)])
        need = 1 + np.bincount(rows, weights=ceil_log2[deg[rows] + np.abs(roots)], minlength=b)
        n_primes = -(-need.astype(np.int64) // bits)
        spill = full & (n_primes > len(PRIMES))
        walk = full & ~spill
        integral = np.zeros(b, dtype=bool)
        if walk.any():
            integral[walk] = _annihilates(
                adj, rows, roots, walk, PRIMES[: int(n_primes[walk].max())], self.identity
            )
        out: List[Tuple[int, Optional[Dict[int, int]]]] = [
            (k, {} if ok else None) for k, ok in zip(deg.tolist(), integral.tolist())
        ]
        for i, r, m in zip(rows.tolist(), roots.tolist(), mults.tolist()):
            spec = out[i][1]
            if spec is not None:
                spec[r] = m
        spilled = np.flatnonzero(spill).tolist()
        exact = self.split_results([masks[i] for i in spilled])
        for i, (k, roots_i, rest) in zip(spilled, exact):
            out[i] = (k, roots_i if rest.degree == 0 else None)
        return out

    def split_results(
        self, masks: Sequence[int]
    ) -> List[Tuple[int, Dict[int, int], IntPolynomial]]:
        """(degree, integer roots with multiplicity, remainder) per mask.

        Integer-root candidates are screened in bulk modulo the first
        prime; survivors are confirmed or rejected by exact synthetic
        division, so the output matches the plain split exactly.
        """
        if not masks:
            return []
        coeff, primes, degrees = self._coeff_residues(masks)
        n = self.n
        hits: List[List[int]] = [[] for _ in masks]
        hit_rows, hit_roots = _screen(coeff[0], np.array(degrees), primes[0])
        for bi, r in zip(hit_rows.tolist(), hit_roots.tolist()):
            hits[bi].append(r)
        m_mod, weights = crt_context(primes)
        half = m_mod >> 1
        rows = coeff.tolist()
        t = len(primes)
        out = []
        for bi, k in enumerate(degrees):
            cs = []
            for j in range(n + 1):
                x = sum(rows[ti][bi][j] * weights[ti] for ti in range(t)) % m_mod
                cs.append(x - m_mod if x > half else x)
            rest = IntPolynomial.of(cs)
            roots: Dict[int, int] = {}
            for r in hits[bi]:
                while True:
                    q = divide_by_linear(rest, r)
                    if q is None:
                        break
                    roots[r] = roots.get(r, 0) + 1
                    rest = q
            out.append((k, roots, rest))
        return out

    def verdicts(self, masks: Sequence[int]) -> List[SpectrumVerdict]:
        out = []
        for mask, (k, roots, rest) in zip(masks, self.split_results(masks)):
            out.append(self._assemble(int(mask), k, roots, rest))
        return out

    def _assemble(
        self, mask: int, k: int, roots: Dict[int, int], rest: IntPolynomial
    ) -> SpectrumVerdict:
        n = self.n
        total = sum(roots.values())
        if rest.degree == 0:
            assert total == n
            return SpectrumVerdict(
                order=n,
                degree=k,
                integral=True,
                spectrum=dict(sorted(roots.items(), reverse=True)),
                integer_eigenspace_total=n,
                remainder_degree=None,
                float_evidence=(),
                method="charpoly",
            )
        evidence = self._float_evidence(mask)
        return SpectrumVerdict(
            order=n,
            degree=k,
            integral=False,
            spectrum=None,
            integer_eigenspace_total=total,
            remainder_degree=rest.degree,
            float_evidence=evidence,
            method="charpoly",
        )

    def _float_evidence(self, mask: int) -> tuple:
        try:
            eig = np.linalg.eigvalsh(self._adjacency([mask])[0][0])
        except np.linalg.LinAlgError:  # pragma: no cover - LAPACK failure
            return ()
        bad = [float(v) for v in eig if abs(v - round(v)) > FLOAT_EVIDENCE_TOL]
        return tuple(sorted(bad))


def _screen(coeff: np.ndarray, degrees: np.ndarray, p: int) -> Tuple[np.ndarray, np.ndarray]:
    """(rows, roots): the candidates r in [-k, k] with f(r) = 0 mod p.

    coeff has shape (b, n+1), column j the coefficient of x^j of each
    row's monic f, and degrees holds each row's k.  Every integer root
    of f is among the hits; rows ascend, and roots ascend within a row.
    One product with a Vandermonde matrix evaluates every row at every
    candidate, exact in int64 as in _roots_mod.
    """
    k_max, width = int(degrees.max()), coeff.shape[1]
    vals = coeff @ _vandermonde(width, p)[:, width - 1 - k_max : width + k_max] % p
    rows, ci = np.nonzero((vals == 0) & (np.abs(np.arange(-k_max, k_max + 1)) <= degrees[:, None]))
    return rows, ci - k_max


def _roots_mod(
    coeff: np.ndarray, degrees: np.ndarray, p: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(rows, roots, mults): the hits of _screen with their multiplicity mod p.

    Repeated synthetic division of f by (x - r) leaves as its j-th
    remainder the Taylor coefficient t_j = sum_i C(i, j) c_i r^(i-j),
    and r has multiplicity m iff t_0 .. t_(m-1) vanish and t_m does not
    (f is monic, so t_n = 1).  All remainders of all hits come from one
    product: with u_i = c_i r^i, (u B)_j = r^j t_j for B = (C(i, j)), and
    r^j is a unit mod p unless r = 0, where t_j = c_j.  Exact in int64:
    n + 1 <= 65 products below p^2 < 2^56 sum below 2^63.
    """
    rows, roots = _screen(coeff, degrees, p)
    binom = _binomials(coeff.shape[1], p)
    mults = np.empty(len(rows), dtype=np.int64)
    for lo in range(0, len(rows), _HIT_BLOCK):  # blocks keep the work arrays small
        block = slice(lo, lo + _HIT_BLOCK)
        u, r = coeff[rows[block]], roots[block]
        zero = r == 0
        t_zero = u[zero]
        power = np.ones(len(r), dtype=np.int64)
        for i in range(1, u.shape[1]):
            power = power * (r % p) % p
            u[:, i] = u[:, i] * power % p
        t = u @ binom
        t %= p
        t[zero] = t_zero
        mults[block] = np.argmax(t != 0, axis=1)
    return rows, roots, mults


@lru_cache(maxsize=None)
def _vandermonde(width: int, p: int) -> np.ndarray:
    """r^j mod p at row j, column r + width - 1, for |r| < width."""
    return np.array(
        [[pow(r, j, p) for r in range(1 - width, width)] for j in range(width)],
        dtype=np.int64,
    )


@lru_cache(maxsize=None)
def _binomials(width: int, p: int) -> np.ndarray:
    """C(i, j) mod p for 0 <= i, j < width."""
    return np.array([[math.comb(i, j) % p for j in range(width)] for i in range(width)], dtype=np.int64)


def _annihilates(
    adj: np.ndarray,
    rows: np.ndarray,
    roots: np.ndarray,
    walk: np.ndarray,
    primes: Sequence[int],
    identity: int,
) -> np.ndarray:
    """Is e^T prod_{r in T} (A - rI) zero modulo every prime, per mask in walk?

    T is a mask's set of roots in (rows, roots).  All masks step together;
    a mask outside walk, or whose T is used up, keeps its row.  Exact in
    float64: entries stay in (-p, p), so |w A - r w| < 2 n p < 2^35.
    """
    b, n = adj.shape[0], adj.shape[1]
    keep = walk[rows]
    rows, roots = rows[keep], roots[keep]
    pos = np.arange(len(rows)) - np.searchsorted(rows, rows)
    steps = int(pos.max()) + 1
    shift = np.zeros((b, steps))
    active = np.zeros((b, steps), dtype=bool)
    shift[rows, pos] = roots
    active[rows, pos] = True
    pf = np.array(primes, dtype=np.float64).reshape(-1, 1, 1, 1)
    w = np.zeros((len(primes), b, 1, n))
    w[:, walk, 0, identity] = 1.0
    for s in range(steps):
        stepped = np.matmul(w, adj)
        stepped -= shift[:, s, None, None] * w
        np.fmod(stepped, pf, out=stepped)
        np.copyto(w, stepped, where=active[:, s, None, None])
    return ~w[:, walk].any(axis=(0, 2, 3))


@lru_cache(maxsize=None)
def _primes_for_degree(n: int, k: int) -> tuple:
    """CRT primes covering the char-poly coefficients of a k-regular graph on n vertices."""
    return primes_for_bound(charpoly_coeff_bound(n, [k] * n))


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


# Weak keys: a group's engine lives as long as the group does.  The
# engine holds no reference back to its group, or no key would ever die.
_ENGINES: "weakref.WeakKeyDictionary[FiniteGroup, SpectraEngine]" = weakref.WeakKeyDictionary()


def engine_for(group: FiniteGroup) -> SpectraEngine:
    eng = _ENGINES.get(group)
    if eng is None:
        eng = _ENGINES[group] = SpectraEngine(group)
    return eng


# ---------------------------------------------------------------------------
# public verdict API
# ---------------------------------------------------------------------------


def verdict(c: CayleyGraph, method: str = "charpoly") -> SpectrumVerdict:
    """Certified integrality verdict for one Cayley graph."""
    if method == "charpoly":
        return engine_for(c.group).verdicts([c.subset.bits])[0]
    if method == "rank":
        return _verdict_by_ranks(c)
    raise ValueError(f"unknown verdict method {method!r}")


def spectrum_of_subset_list(
    group: FiniteGroup, subsets: Sequence, method: str = "charpoly"
) -> List[SpectrumVerdict]:
    """Verdicts for many subsets of one group, in input order."""
    masks = [s.bits if hasattr(s, "bits") else int(s) for s in subsets]
    if method == "charpoly":
        return engine_for(group).verdicts(masks)
    from .cayley import SymmetricSubset

    return [
        _verdict_by_ranks(CayleyGraph(group, SymmetricSubset(group, m))) for m in masks
    ]


def _candidate_order(adj: np.ndarray, k: int) -> List[int]:
    """Integer candidates in [-k, k], most promising first.

    Ordered by estimated multiplicity from a float eigensolver pass; on
    eigensolver failure, falls back to 0, 1, -1, 2, -2, ...
    """
    cands = list(range(-k, k + 1))
    try:
        eig = np.linalg.eigvalsh(adj.astype(np.float64))
        counts: Dict[int, int] = {}
        for v in eig:
            r = int(round(float(v)))
            if abs(v - r) < 0.25 and -k <= r <= k:
                counts[r] = counts.get(r, 0) + 1
        cands.sort(key=lambda r: (-counts.get(r, 0), abs(r), r))
    except np.linalg.LinAlgError:  # pragma: no cover - LAPACK failure
        cands.sort(key=lambda r: (abs(r), -r))
    return cands


def _verdict_by_ranks(c: CayleyGraph) -> SpectrumVerdict:
    g = c.group
    n = g.order
    k = c.degree
    adj = c.adjacency_numpy()
    rows = [[int(x) for x in row] for row in adj]
    spectrum: Dict[int, int] = {}
    total = 0
    for t in _candidate_order(adj, k):
        shifted = IntMatrix(
            [
                [rows[i][j] - (t if i == j else 0) for j in range(n)]
                for i in range(n)
            ]
        )
        mult = n - shifted.rank()
        if mult:
            spectrum[t] = mult
            total += mult
            if total == n:
                return SpectrumVerdict(
                    order=n,
                    degree=k,
                    integral=True,
                    spectrum=dict(sorted(spectrum.items(), reverse=True)),
                    integer_eigenspace_total=n,
                    remainder_degree=None,
                    float_evidence=(),
                    method="rank",
                )
    eig = np.linalg.eigvalsh(adj.astype(np.float64))
    bad = tuple(
        sorted(float(v) for v in eig if abs(v - round(v)) > FLOAT_EVIDENCE_TOL)
    )
    return SpectrumVerdict(
        order=n,
        degree=k,
        integral=False,
        spectrum=None,
        integer_eigenspace_total=total,
        remainder_degree=None,
        float_evidence=bad,
        method="rank",
    )


# ---------------------------------------------------------------------------
# divisibility bound
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BoundCheck:
    """Outcome of the order-divisibility bound on one graph.

    applies: the graph is connected and integral, so the bound is in force.
    holds:   |G| divides 2 * (2|S| - 1)!.
    strong:  False only when the strengthened bound (|G| divides
             (2|S| - 1)!) was triggered -- G perfect or S containing an
             element of odd order -- and failed.
    """

    applies: bool
    holds: bool
    strong: bool


@lru_cache(maxsize=None)
def _factorial(m: int) -> int:
    return math.factorial(m)


def divisibility_bound_check(c: CayleyGraph, v: Optional[SpectrumVerdict] = None) -> BoundCheck:
    """Check |G| | 2(2|S|-1)! for a connected integral Cayley graph."""
    if v is None:
        v = verdict(c)
    connected = c.generates()
    if not (connected and v.integral):
        return BoundCheck(applies=False, holds=True, strong=True)
    k = c.degree
    base = _factorial(2 * k - 1) if k >= 1 else 1
    holds = (2 * base) % c.group.order == 0
    strong_applies = is_perfect(c.group) or any(
        c.group.element_order(x) % 2 == 1 for x in c.subset
    )
    strong = (not strong_applies) or base % c.group.order == 0
    return BoundCheck(applies=True, holds=holds, strong=strong)
