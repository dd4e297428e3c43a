"""Exact integrality verdicts for Cayley graph spectra.

The default engine computes the exact characteristic polynomial of the
adjacency matrix (modular traces + CRT against a proven coefficient
bound) and splits off integer roots; the spectrum is integral iff the
split is complete.  Floating point is never part of the certificate.

A second engine certifies through eigenspace dimensions: for each
integer candidate t in [-k, k] it computes mult(t) = n - rank(A - tI)
with fraction-free Bareiss elimination, using a float eigensolver pass
only to order the candidates.  Both engines agree everywhere; the
char-poly route is the default because it is far cheaper per subset.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .cayley import CayleyGraph
from .groups import FiniteGroup, is_perfect
from .intlinalg import (
    IntMatrix,
    IntPolynomial,
    charpoly_coeff_bound,
    crt_context,
    divide_by_linear,
    primes_for_bound,
)

FLOAT_EVIDENCE_TOL = 1e-9


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

    Verdicts for many subsets are computed in one numpy pass: power-sum
    traces of the adjacency matrices modulo word-size primes (using that
    powers of a vertex-transitive graph's adjacency matrix have constant
    diagonal, so tr(A^i) = n * (A^i)[e,e]), Newton's identities per
    prime, CRT lift, then an exact integer-root split per subset.
    """

    def __init__(self, group: FiniteGroup) -> None:
        self.group = group
        self.n = group.order
        self.xyinv = group.xy_inv_table()

    def _coeff_residues(self, masks: Sequence[int]) -> Tuple[np.ndarray, tuple, list]:
        """Char-poly coefficients of every mask, modulo each needed prime.

        Returns (C, primes, degrees) where C[t, b, j] = c_j of
        det(xI - A_b) mod primes[t].  Traces tr(A^i) come from the
        identity row alone: right translations are automorphisms acting
        transitively, so every power of A has constant diagonal and
        tr(A^i) = n * (A^i)[e, e].
        """
        n = self.n
        b = len(masks)
        arr = np.array([int(m) for m in masks], dtype=np.uint64)
        membership = (
            (arr[:, None] >> np.arange(n, dtype=np.uint64)) & np.uint64(1)
        ).astype(np.int64)
        degrees = [int(x) for x in membership.sum(axis=1)]
        k_max = max(degrees, default=0)
        primes = _primes_for_degree(n, k_max)
        t = len(primes)
        adj = membership[:, self.xyinv][None, :, :, :]  # (1, b, n, n), 0/1
        pcol = np.array(primes, dtype=np.int64).reshape(t, 1, 1, 1)
        v = np.zeros((t, b, 1, n), dtype=np.int64)
        v[:, :, 0, self.group.identity] = 1
        traces = np.empty((t, b, n), dtype=np.int64)
        for i in range(n):
            v = np.matmul(v, adj) % pcol
            traces[:, :, i] = v[:, :, 0, self.group.identity] * n % pcol[:, :, 0, 0]
        coeff = np.empty((t, b, n + 1), dtype=np.int64)
        for ti, p in enumerate(primes):
            coeff[ti] = _newton_batch(traces[ti], n, p)
        return coeff, primes, degrees

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
        b = len(masks)
        k_max = max(degrees, default=0)
        p0 = primes[0]
        cand = np.arange(-k_max, k_max + 1, dtype=np.int64)
        cand_mod = cand % p0
        vals = np.zeros((b, len(cand)), dtype=np.int64)
        c0 = coeff[0]
        for j in range(n, -1, -1):
            vals = (vals * cand_mod[None, :] + c0[:, j, None]) % p0
        hits = vals == 0
        m_mod, weights = crt_context(primes)
        half = m_mod >> 1
        rows = coeff.tolist()
        t = len(primes)
        out = []
        for bi in range(b):
            k = degrees[bi]
            cs = []
            for j in range(n + 1):
                x = sum(rows[ti][bi][j] * weights[ti] for ti in range(t)) % m_mod
                cs.append(x - m_mod if x > half else x)
            rest = IntPolynomial.of(cs)
            roots: Dict[int, int] = {}
            for ci in np.flatnonzero(hits[bi]):
                r = int(cand[ci])
                if abs(r) > k:
                    continue
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
        membership = np.zeros(self.n, dtype=np.float64)
        for x in range(self.n):
            if mask >> x & 1:
                membership[x] = 1.0
        adj = membership[self.xyinv]
        try:
            eig = np.linalg.eigvalsh(adj)
        except np.linalg.LinAlgError:  # pragma: no cover - LAPACK failure
            return ()
        bad = [float(v) for v in eig if abs(v - round(v)) > FLOAT_EVIDENCE_TOL]
        return tuple(sorted(bad))


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


_ENGINES: dict = {}


def engine_for(group: FiniteGroup) -> SpectraEngine:
    eng = _ENGINES.get(id(group))
    if eng is None or eng.group is not group:
        eng = SpectraEngine(group)
        _ENGINES[id(group)] = eng
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
