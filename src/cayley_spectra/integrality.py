"""Exact integrality verdicts for Cayley graph spectra.

The default engine computes the exact characteristic polynomial of the
adjacency matrix (modular traces + CRT against a proven coefficient
bound) and splits off integer roots; the spectrum is integral iff the
split is complete.  Scans use the engine's batched certificate instead
(SpectraEngine.certify): power sums modulo one prime from a walk of at
most min(k, n-1-k) steps, the candidate multiplicities from one Lagrange
product, then an annihilator check on the identity row.  Its float64
products are integer arithmetic kept exact by the bounds stated beside
each, and its moduli cover every subset, up to the engine's largest
order, 64; no rounded float ever decides a verdict.

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

from .cayley import CayleyGraph, SymmetricSubset
from .groups import FiniteGroup, is_perfect
from .intlinalg import (
    IntMatrix,
    IntPolynomial,
    SizeLimitError,
    _newton_batch,
    charpoly_coeff_bound,
    crt_lift,
    integer_root_split,
    primes_for_bound,
)

FLOAT_EVIDENCE_TOL = 1e-9
# The power-sum walk of certify runs modulo Q, the largest prime below
# 2^22: Q > 2k keeps the nodes -k..k distinct and Q > n pins the
# multiplicities, and 64 Q^2 < 2^53 keeps every product exact in float64.
WALK_PRIME = 4194301
# The annihilator check runs modulo these, the twelve largest primes below
# 2^45.  They need only be pairwise coprime; each carries 44 bits, twelve
# cover the worst bound at n <= 64 (1 + 63 * 6 = 379 bits), and
# (64 + 31) M < 2^53 keeps each step exact in float64.
ANNIHILATOR_MODULI = (
    35184372088777, 35184372088763, 35184372088751, 35184372088739,
    35184372088711, 35184372088699, 35184372088693, 35184372088673,
    35184372088639, 35184372088603, 35184372088571, 35184372088517,
)
# certify builds the adjacency of at most this many float64 entries at a
# time (8 MB), and gathers at most _ANNIHILATOR_BLOCK (2 MB) per
# annihilator block
_ADJACENCY_BLOCK = 1 << 20
_ANNIHILATOR_BLOCK = 1 << 18


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

    Two routes share only the adjacency builder.  The scan route,
    certify(), decides integrality for a whole batch from power sums
    modulo one prime, the multiplicities they pin, and an annihilator
    check on the identity row, with no char poly and no big integers per
    mask.  The exact route, split_results(), walks traces modulo several
    primes and hands them to intlinalg's char-poly pipeline (Newton, CRT
    lift, integer-root split), the one IntMatrix.char_poly uses; it
    serves verdict() and so the ds suite and witness detail, and the
    tests use each route as the other's oracle.  char_polys() stops that
    route at the CRT lift and gives the lifts suite its char polys.

    Traces come from the identity row alone: right translations are
    automorphisms acting transitively, so every power of A has constant
    diagonal and tr(A^i) = n * (A^i)[e, e].  The engine keeps no
    reference to its group, so engine_for can cache it weakly.  Masks
    are uint64 and every bound below assumes n <= 64, so a larger group
    is rejected.
    """

    def __init__(self, group: FiniteGroup) -> None:
        if group.order > 64:
            raise SizeLimitError(f"spectra engine supports order at most 64, got {group.order}")
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
        arr = np.asarray(masks, dtype=np.uint64)
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
        coeff = np.stack([_newton_batch(t, self.n, p) for t, p in zip(traces, primes)])
        return coeff, primes, degrees

    def char_polys(self, masks: Sequence[int]) -> List[IntPolynomial]:
        """det(xI - A) per mask, exact: _coeff_residues lifted by crt_lift."""
        if not masks:
            return []
        coeff, primes, _ = self._coeff_residues(masks)
        return crt_lift(coeff, primes)

    def certify(self, masks: np.ndarray) -> Tuple[np.ndarray, ...]:
        """(degree, integral, rows, roots, mults) for a batch of masks, in input order.

        masks is a uint64 array (or a sequence of ints); each S is
        inverse-closed and misses the identity, as every scanned subset
        does.  degree[i] is |S_i| and integral[i] says whether its
        spectrum is certified integral.  The spectra of the integral masks
        come flat: mask rows[j] has eigenvalue roots[j] with multiplicity
        mults[j] > 0, rows ascending and each row's roots descending.  No
        dict or tuple is built per mask.  Every stage is an exact float64
        product: no char poly, no Newton, no big integer per mask.

        1. Complement.  If 2k > n - 1, certify S' = G - (S + {e}) of degree
           k' = n - 1 - k <= (n - 1)/2 instead.  A + A' = J - I and both
           commute with J, so spec(A) = {k} + {-1 - l : l in spec(A') less
           one copy of k'}, and S is integral iff S' is.  Below, k is the
           degree certified, so k <= 31 for n <= 64.
        2. Power sums (_power_sums).  With v_j = e^T A^j mod Q, Q =
           WALK_PRIME, for j <= k, P_(a+b) = tr(A^(a+b)) = n v_a . v_b
           gives P_0 .. P_2k (A is symmetric, and right translations act
           transitively by automorphisms, so A^j has constant diagonal).
        3. Multiplicities.  An integral spectrum lies in [-k, k] (A is
           k-regular), and its multiplicities m solve the Vandermonde
           system sum_r m_r r^j = P_j, j = 0..2k, over Z.  Q > 2k makes
           it invertible mod Q, so m = P W_k mod Q (_lagrange), and Q > n
           pins each residue to the true multiplicity: a residue above n
           certifies non-integral.
        4. Annihilator (_annihilates).  Otherwise let T = {r : m_r > 0} and
           check e^T prod_{r in T} (A - rI) = 0 over Z.  A is the regular
           representation of a = sum(S) in Z[G], and so is the product;
           the e-row of the matrix of z in Z[G] lists z's coefficients
           (entry y is z_(y^-1)), so a zero e-row means a zero product.
           For symmetric A that holds iff every eigenvalue lies in T: an
           integral spectrum passes (by 3, T is its support) and any other
           fails.  The e-row has l1 norm at most B = prod (k + |r|), so a
           zero residue modulo moduli whose product exceeds 2B is a zero
           over Z.  ANNIHILATOR_MODULI cover 2B for every mask at n <= 64,
           the largest order the engine accepts.
        5. A mask that passes has its spectrum in T, so its multiplicities
           solve the system of 3 over Z and the residues m are exact.

        The batch is sorted by k, descending, so the masks still stepping
        at any stage form a prefix, and certified in slices whose adjacency
        holds at most _ADJACENCY_BLOCK floats.
        """
        masks = np.ascontiguousarray(masks, dtype=np.uint64)
        n, b = self.n, len(masks)
        degree = np.unpackbits(masks.view(np.uint8)).reshape(b, 64).sum(axis=1, dtype=np.int64)
        if not b:
            return degree, np.zeros(0, dtype=bool), degree, degree, degree
        others = np.uint64(((1 << n) - 1) ^ (1 << self.identity))
        flip = 2 * degree > n - 1
        order = np.argsort(np.where(flip, degree + 1 - n, -degree), kind="stable")
        reduced = np.where(flip, masks ^ others, masks)[order]
        step = max(1, _ADJACENCY_BLOCK // (n * n))
        parts = [self._certify_sorted(reduced[lo : lo + step], lo) for lo in range(0, b, step)]
        rows, roots, mults, k, integral = (np.concatenate(x) for x in zip(*parts))
        # undo step 1 on complemented masks: -1 - r for each r, one k' dropped, k added
        flipped = flip[order]
        f = flipped[rows]
        mults -= f & (roots == k[rows])
        roots[f] = -1 - roots[f]
        top = np.flatnonzero(flipped & integral)
        rows = order[np.concatenate([rows, top])]
        roots = np.concatenate([roots, n - 1 - k[top]])
        mults = np.concatenate([mults, np.ones(len(top), dtype=np.int64)])
        # by row, then by root descending: n - r lies in [1, 2n - 1]
        by_row = np.argsort(rows * 2 * n + n - roots)
        by_row = by_row[mults[by_row] > 0]
        in_order = np.empty(b, dtype=bool)
        in_order[order] = integral
        return degree, in_order, rows[by_row], roots[by_row], mults[by_row]

    def _certify_sorted(self, masks: np.ndarray, offset: int) -> tuple:
        """Steps 2-4 of certify on masks of degree <= (n-1)/2 sorted by degree, descending.

        Returns (rows, roots, mults, k, integral): the spectrum of each
        integral mask as (row + offset, eigenvalue, multiplicity) triples,
        the degrees, and per mask whether it is certified integral.
        """
        n, b, q = self.n, len(masks), float(WALK_PRIME)
        adj, k = self._adjacency(masks)
        power = self._power_sums(adj, k)
        rows, roots, mults = [], [], []
        cuts = [0, *(np.flatnonzero(np.diff(k)) + 1).tolist(), b]
        for lo, hi in zip(cuts, cuts[1:]):  # one Lagrange product per degree
            kg = int(k[lo])
            m = power[lo:hi, : 2 * kg + 1] @ _lagrange(kg)  # below 63 Q^2 < 2^50
            _reduce(m, q, np.empty_like(m))
            m[m < 0] += q
            m[(m > n).any(axis=1)] = 0.0  # certified non-integral
            r, c = np.nonzero(m)
            rows.append(r + lo)
            roots.append(c - kg)
            mults.append(m[r, c].astype(np.int64))
        rows, roots, mults = (np.concatenate(x) for x in (rows, roots, mults))
        # moduli needed per mask: each exceeds 2^usable, and
        # ceil(log2 x) = (x - 1).bit_length() bounds each factor k + |r|
        usable = min(ANNIHILATOR_MODULI).bit_length() - 1
        ceil_log2 = np.array([(x - 1).bit_length() for x in range(2 * n)])
        bits = 1 + np.bincount(rows, weights=ceil_log2[k[rows] + np.abs(roots)], minlength=b)
        need = -(-bits.astype(np.int64) // usable)
        integral = _annihilates(adj, rows, roots, need, ANNIHILATOR_MODULI, self.identity)
        keep = integral[rows]
        return rows[keep] + offset, roots[keep], mults[keep], k, integral

    def _power_sums(self, adj: np.ndarray, k: np.ndarray) -> np.ndarray:
        """P[b, j] = tr(A_b^j) mod WALK_PRIME for j <= 2 k[b], float64 in (-Q, Q).

        k must descend.  Step j computes v_j = A v_(j-1) (A is symmetric)
        for the prefix of masks with k >= j, into one of two buffers, and
        P_(2j-1), P_2j from v_(j-1) . v_j and v_j . v_j.  Exact in float64:
        _reduce keeps entries of v below Q < 2^22 in magnitude and A is
        0/1, so matvec sums stay below n Q < 2^28 and dot products below
        n Q^2 < 2^50.
        """
        n, b, q = self.n, adj.shape[0], float(WALK_PRIME)
        k_max = int(k[0])
        diag = np.zeros((b, 2 * k_max + 1))  # diag[:, j] = (A^j)[e, e]
        diag[:, 0] = 1.0
        prev = np.zeros((b, n, 1))
        prev[:, self.identity] = 1.0
        cur, scratch = np.empty_like(prev), np.empty_like(prev)
        stepping = np.searchsorted(-k, -np.arange(k_max + 1), side="right")
        for j in range(1, k_max + 1):
            c = stepping[j]
            v, w = prev[:c], cur[:c]
            np.matmul(adj[:c], v, out=w)
            _reduce(w, q, scratch[:c])
            diag[:c, 2 * j - 1] = np.einsum("bik,bik->b", v, w)
            diag[:c, 2 * j] = np.einsum("bik,bik->b", w, w)
            prev, cur = cur, prev
        spare = np.empty_like(diag)
        _reduce(diag, q, spare)
        diag *= n
        return _reduce(diag, q, spare)

    def split_results(
        self, masks: Sequence[int]
    ) -> List[Tuple[int, Dict[int, int], IntPolynomial]]:
        """(degree, integer roots with multiplicity, remainder) per mask.

        _coeff_residues (trace walk, _newton_batch), crt_lift, then
        integer_root_split on the candidates _screen finds to be roots
        modulo the first prime: intlinalg's pipeline, as in
        IntMatrix.char_poly.  Every integer root is a candidate.
        """
        if not masks:
            return []
        coeff, primes, degrees = self._coeff_residues(masks)
        hits: List[List[int]] = [[] for _ in masks]
        hit_rows, hit_roots = _screen(coeff[0], np.array(degrees), primes[0])
        for bi, r in zip(hit_rows.tolist(), hit_roots.tolist()):
            hits[bi].append(r)
        return [
            (k, *integer_root_split(chi, h))
            for k, chi, h in zip(degrees, crt_lift(coeff, primes), hits)
        ]

    def verdicts(self, masks: Sequence[int]) -> List[SpectrumVerdict]:
        out = []
        for mask, (k, roots, rest) in zip(masks, self.split_results(masks)):
            out.append(self._assemble(int(mask), k, roots, rest))
        return out

    def _assemble(
        self, mask: int, k: int, roots: Dict[int, int], rest: IntPolynomial
    ) -> SpectrumVerdict:
        if rest.degree == 0:
            return _spectrum_verdict(self.n, k, roots, "charpoly")
        return _spectrum_verdict(
            self.n, k, roots, "charpoly", rest.degree, self._float_evidence(mask)
        )

    def _float_evidence(self, mask: int) -> tuple:
        return _off_integer_eigenvalues(self._adjacency([mask])[0][0])


def _spectrum_verdict(
    n: int,
    k: int,
    roots: Dict[int, int],
    method: str,
    remainder_degree: Optional[int] = None,
    float_evidence: tuple = (),
) -> SpectrumVerdict:
    """The verdict for integer eigenvalues roots (value -> multiplicity):
    integral exactly when they account for all n eigenvalues."""
    total = sum(roots.values())
    integral = total == n
    return SpectrumVerdict(
        order=n,
        degree=k,
        integral=integral,
        spectrum=dict(sorted(roots.items(), reverse=True)) if integral else None,
        integer_eigenspace_total=total,
        remainder_degree=remainder_degree,
        float_evidence=float_evidence,
        method=method,
    )


def _off_integer_eigenvalues(adj: np.ndarray) -> tuple:
    """Float eigenvalues of a symmetric matrix farther than
    FLOAT_EVIDENCE_TOL from an integer, ascending; () if LAPACK fails."""
    try:
        eig = np.linalg.eigvalsh(adj.astype(np.float64))
    except np.linalg.LinAlgError:  # pragma: no cover - LAPACK failure
        return ()
    return tuple(sorted(float(v) for v in eig if abs(v - round(v)) > FLOAT_EVIDENCE_TOL))


def _screen(coeff: np.ndarray, degrees: np.ndarray, p: int) -> Tuple[np.ndarray, np.ndarray]:
    """(rows, roots): the candidates r in [-k, k] with f(r) = 0 mod p.

    coeff has shape (b, n+1), column j the coefficient of x^j of each
    row's monic f, and degrees holds each row's k.  Every integer root
    of f is among the hits; rows ascend, and roots ascend within a row.
    One product with a Vandermonde matrix evaluates every row at every
    candidate, exact in int64: n + 1 <= 65 products below p^2 < 2^56 sum
    below 2^63.
    """
    k_max, width = int(degrees.max()), coeff.shape[1]
    vals = coeff @ _vandermonde(width, p)[:, width - 1 - k_max : width + k_max] % p
    rows, ci = np.nonzero((vals == 0) & (np.abs(np.arange(-k_max, k_max + 1)) <= degrees[:, None]))
    return rows, ci - k_max


@lru_cache(maxsize=None)
def _vandermonde(width: int, p: int) -> np.ndarray:
    """r^j mod p at row j, column r + width - 1, for |r| < width."""
    return np.array(
        [[pow(r, j, p) for r in range(1 - width, width)] for j in range(width)],
        dtype=np.int64,
    )


@lru_cache(maxsize=None)
def _lagrange(k: int) -> np.ndarray:
    """W_k[j, i] = [x^j] L_i(x) mod WALK_PRIME, float64, (2k+1, 2k+1).

    L_i is the Lagrange basis polynomial of node r_i = i - k on the nodes
    -k..k, so with V_k[i, j] = r_i^j, W_k V_k = I mod Q, and P = m V_k
    gives m = P W_k.  Entries are below Q, so a row of power sums below Q
    times W_k sums at most 2k + 1 <= 63 products below Q^2: under 2^50.
    """
    q, d = WALK_PRIME, 2 * k + 1
    nodes = range(-k, k + 1)
    master = [1]  # prod (x - s) over all nodes, low degree first
    for s in nodes:
        master = [(a - s * c) % q for a, c in zip([0, *master], [*master, 0])]
    w = np.empty((d, d))
    for i, r in enumerate(nodes):
        poly, acc = [0] * d, 0  # master / (x - r), by synthetic division
        for j in range(d, 0, -1):
            acc = (master[j] + r * acc) % q
            poly[j - 1] = acc
        inv = pow(math.prod(r - s for s in nodes if s != r) % q, -1, q)
        w[:, i] = [c * inv % q for c in poly]
    w.setflags(write=False)  # shared by every caller through the cache
    return w


def _reduce(x: np.ndarray, m, scratch: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """x - m * rint(x / m) into out (default x): an integer residue of x in (-m, m).

    m is a float or an array broadcasting against x, and scratch is x's
    shape.  Exact for integers x, m with |x| + m < 2^53 and |x| / m < 2^49:
    np.divide rounds x / m once, to within 2^-4, so rint lands within
    1/2 + 2^-4 of x / m; m * rint(x / m) is then an integer below |x| + m
    in magnitude, and the difference is below m.  Unlike np.fmod, it costs
    the same for every quotient.
    """
    np.divide(x, m, out=scratch)
    np.rint(scratch, out=scratch)
    scratch *= m
    return np.subtract(x, scratch, out=x if out is None else out)


def _annihilates(
    adj: np.ndarray,
    rows: np.ndarray,
    roots: np.ndarray,
    need: np.ndarray,
    moduli: Sequence[int],
    identity: int,
) -> np.ndarray:
    """Is e^T prod_{r in T} (A - rI) zero modulo moduli[:need[b]], per row b of adj?

    T is mask b's set of roots in (rows, roots), rows ascending; a mask
    that rows does not list gets False.  Each (mask, modulus) pair walks
    its own vector (A - rI) w, A symmetric.  Pairs are sorted by |T|,
    descending, so at step s the pairs with |T| > s are a prefix, and they
    run in blocks whose gathered adjacency holds _ANNIHILATOR_BLOCK floats.
    Exact in float64: _reduce keeps entries of w in (-M, M) and A is 0/1,
    so |A w - r w| < (n + k) M < 2^53; a residue in (-M, M) is zero mod M
    only if it is 0.
    """
    b, n = adj.shape[0], adj.shape[1]
    if not len(rows):
        return np.zeros(b, dtype=bool)
    size = np.bincount(rows, minlength=b)
    pos = np.arange(len(rows)) - np.searchsorted(rows, rows)
    shift = np.zeros((b, int(size.max())))
    shift[rows, pos] = roots
    count = np.where(size > 0, need, 0)
    pair = np.repeat(np.arange(b), count)
    which = np.arange(len(pair)) - np.repeat(np.cumsum(count) - count, count)
    by_size = np.argsort(-size[pair], kind="stable")
    pair = pair[by_size]
    modulus = np.asarray(moduli, dtype=np.float64)[which[by_size]]
    steps = size[pair]
    zero = np.empty(len(pair), dtype=bool)
    block = max(1, _ANNIHILATOR_BLOCK // (n * n))
    w = np.empty((min(block, len(pair)), n, 1))
    stepped, scratch = np.empty_like(w), np.empty_like(w)
    for lo in range(0, len(pair), block):
        sel = slice(lo, lo + block)
        a, sh, mod, st = adj[pair[sel]], shift[pair[sel]], modulus[sel, None, None], steps[sel]
        h = len(st)
        w[:h] = 0.0
        w[:h, identity] = 1.0
        for s, c in enumerate(np.searchsorted(-st, -np.arange(int(st[0])), side="left").tolist()):
            np.matmul(a[:c], w[:c], out=stepped[:c])
            np.multiply(w[:c], sh[:c, s, None, None], out=scratch[:c])
            stepped[:c] -= scratch[:c]
            _reduce(stepped[:c], mod[:c], scratch[:c], out=w[:c])
        zero[lo : lo + h] = ~w[:h].any(axis=(1, 2))
    return (size > 0) & (np.bincount(pair[zero], minlength=b) == count)


@lru_cache(maxsize=None)
def _primes_for_degree(n: int, k: int) -> tuple:
    """CRT primes covering the char-poly coefficients of a k-regular graph on n vertices."""
    return primes_for_bound(charpoly_coeff_bound(n, [k] * n))


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
    return spectrum_of_subset_list(c.group, [c.subset], method)[0]


def spectrum_of_subset_list(
    group: FiniteGroup, subsets: Sequence, method: str = "charpoly"
) -> List[SpectrumVerdict]:
    """Verdicts for many subsets of one group, in input order."""
    masks = [s.bits if hasattr(s, "bits") else int(s) for s in subsets]
    if method == "charpoly":
        return engine_for(group).verdicts(masks)
    if method == "rank":
        return [
            _verdict_by_ranks(CayleyGraph(group, SymmetricSubset(group, m))) for m in masks
        ]
    raise ValueError(f"unknown verdict method {method!r}")


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
                return _spectrum_verdict(n, k, spectrum, "rank")
    return _spectrum_verdict(n, k, spectrum, "rank", None, _off_integer_eigenvalues(adj))


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


def bound_holds(n: int, k: int, strong_applies: bool) -> Tuple[bool, bool]:
    """(weak, strong) for a connected integral graph of degree k on |G| = n.

    weak is n | 2(2k-1)!; strong is n | (2k-1)!, and True where the
    strengthened bound does not apply.
    """
    base = _factorial(2 * k - 1) if k >= 1 else 1
    return (2 * base) % n == 0, not strong_applies or base % n == 0


def divisibility_bound_check(c: CayleyGraph, v: Optional[SpectrumVerdict] = None) -> BoundCheck:
    """Check |G| | 2(2|S|-1)! for a connected integral Cayley graph."""
    if v is None:
        v = verdict(c)
    connected = c.generates()
    if not (connected and v.integral):
        return BoundCheck(applies=False, holds=True, strong=True)
    strong_applies = is_perfect(c.group) or any(
        c.group.element_order(x) % 2 == 1 for x in c.subset
    )
    holds, strong = bound_holds(c.group.order, c.degree, strong_applies)
    return BoundCheck(applies=True, holds=holds, strong=strong)
