"""The Fourier table: a scan certificate read off the group's irreducibles.

The adjacency matrix A of Cay(G, S) is the image of a = sum(S) in the
left-regular representation, so its spectrum is the union, over a
complete system of irreducible representations rho_t of degree d_t, of
the eigenvalues of rho_t(S), each taken d_t times (Babai, Spectra of
Cayley graphs, JCTB 27, 1979).  Where every d_t <= 2 and the images are
known, the power-basis coordinates of every rho_t(S) entry are a sum
over S of W (n, columns), the coordinates of every rho_t(g), and a
whole chunk of masks takes one table gather per mask byte:

    coords (b, columns) = sum_i B[i, byte_i(mask)],
    B[i, v] = sum of W[8i + j] over the bits j set in v,

the idiom of search._byte_tables for counter -> mask.  Every entry
lies in Z[zeta_m], and 1, zeta, ..., zeta^(phi-1) is a Q-basis of
Q(zeta_m), so an entry is rational (and, being an algebraic integer, an
integer) iff its coordinates 1..phi-1 are zero.  Nothing depends on the
embedding zeta_m -> C: an integer is fixed by every one.

  d = 1.  The eigenvalue is chi_t(S); S is integral on it iff chi_t(S)
    is rational.
  d = 2.  rho_t(S) is Hermitian for an invariant inner product (S is
    inverse-closed), so its eigenvalues l1, l2 are real with trace
    t = l1 + l2 and determinant D = l1 l2.  Both are integers iff t and
    D are rational and t^2 - 4D = (l1 - l2)^2 is a perfect square s^2:
    then t = s mod 2, and l = (t +- s) / 2.  D = a11 a22 - a12 a21 is
    taken in Z[zeta_m] by one product with the multiplication tensor
    (_product_tensor).  Where t and D are rational, t^2 - 4D <= 4 k^2
    < 2^14, so its float64 square root rounds to s when it is s^2, and
    the test root^2 == t^2 - 4D compares exact integers.

Two groups of groups have a table (fourier_table).

  Abelian groups, from the table alone (no label).  The characters are
    built one generator at a time as an exponent matrix E, chi_t(g) =
    zeta_m^E[t, g] with m the exponent, then certified: E[t, xy] =
    E[t, x] + E[t, y] mod m over the whole table, and n distinct rows.
    n distinct homomorphisms to the m-th roots of unity are the whole
    dual group, since an abelian group has exactly n characters (and a
    non-abelian one fewer, so the check also proves G abelian).  The
    Galois group of Q(zeta_m) sends chi(S) to chi^a(S), gcd(a, m) = 1,
    and fixes an integer, so one character per orbit {chi^a} decides
    integrality for the whole orbit, and its value counts once per
    member: the orbit's size is its weight.
  Non-abelian groups with a shipped system of degrees <= 2
    (repcheck.system_for: S3, D4, Q8, Dic12, and their direct products
    with a factor over Z, such as Q8xZ2^n, Dic12xZ2, D4xZ2 and S3xZ3).
    The system is rebuilt on the scanned group itself, so ExplicitRep's
    homomorphism check and RepSystem's orthogonality and sum d^2 = n
    certify it as a complete irreducible system of that table; a wrong
    label or index convention fails construction.

Any failure leaves the group without a table, and its scans take the
power-sum walk (SpectraEngine.certify), which is also this route's
oracle in the tests; the two share no code.

Exactness.  W holds integer coordinates of size at most w, and every
partial sum of the gathers, B[i, v] included, is a sum of W rows over
a subset of S, so it lies in [-n w, n w].  B is int16, and a table is
built only when n w <= 2^15 - 1 (every shipped table has n w <= 64),
so the int16 sums are exact and do not wrap.  Everything after the
gathers is int64: the determinant's product sums 2 phi^2 terms below
(n w)^2 c, c the largest coordinate of a product of two basis
elements, and a table is built only when that stays below 2^53.  The
one float is the square root of t^2 - 4D (below 2^14 where t and D are
rational, as above), and squaring the rounded root back in int64
checks it.

No step of certify is a BLAS call: the coordinates are gathers, and
the determinant's product is an int64 matmul, which numpy does in its
own loops.  OpenBLAS spreads a float64 product of a chunk's size over
all of its threads, so pool workers would compete for the cores with
each other's BLAS threads.
"""

from __future__ import annotations

import weakref
from math import gcd
from typing import Optional, Tuple

import numpy as np

from . import repcheck
from .groups import FiniteGroup


class FourierTable:
    """Per-group Fourier certificate: certify() returns the five arrays of
    SpectraEngine.certify, from characters (degree 1, weighted) and 2x2
    blocks (degree 2) over Z[zeta_m].  Holds no reference to its group.

    chars[g, t, c] is coordinate c of chi_t(g), weights[t] the number of
    eigenvalues chi_t(S) stands for; blocks[g, u, i, j, c] is coordinate
    c of entry (i, j) of block u's image of g.
    """

    def __init__(self, m: int, chars: np.ndarray, weights: np.ndarray, blocks: np.ndarray) -> None:
        self.n, self.chars_count, self.phi = chars.shape
        self.blocks_count = blocks.shape[1]
        if self.n > 64:
            raise ValueError(f"masks are uint64, so order at most 64, got {self.n}")
        if weights.sum() + 2 * 2 * self.blocks_count != self.n:
            raise ValueError("the table's eigenvalue weights do not add up to |G|")
        self.weights = weights.astype(np.float64)
        self.tensor = _product_tensor(m).reshape(self.phi * self.phi, self.phi)
        w = np.hstack([chars.reshape(self.n, -1), blocks.reshape(self.n, -1)]).astype(np.int64)
        bound = self.n * int(np.abs(w).max(initial=0))
        if bound > np.iinfo(np.int16).max:
            raise ValueError(f"coordinates up to {bound} are too large for int16 byte tables")
        top = bound**2 * int(np.abs(self.tensor).max()) * 2 * self.phi**2
        if top >= 2**53:
            raise ValueError("coordinates too large for exact determinant products")
        # bytes[i, v] = sum of w[8i + j] over the bits j set in v
        padded = np.zeros((-(-self.n // 8) * 8, w.shape[1]), dtype=np.int64)
        padded[: self.n] = w
        bits = (np.arange(256)[:, None] >> np.arange(8)[None, :]) & 1
        self.bytes = (bits @ padded.reshape(-1, 8, w.shape[1])).astype(np.int16)

    def coords(self, masks: np.ndarray) -> np.ndarray:
        """(b, columns) int16: the power-basis coordinates of every
        rho_t(S), one gather per mask byte."""
        octets = np.ascontiguousarray(masks, dtype="<u8").view(np.uint8).reshape(-1, 8)
        out = self.bytes[0, octets[:, 0]]
        for i in range(1, len(self.bytes)):
            out += self.bytes[i, octets[:, i]]
        return out

    def certify(self, masks: np.ndarray) -> Tuple[np.ndarray, ...]:
        """(degree, integral, rows, roots, mults) for a batch of masks, in
        input order, as SpectraEngine.certify returns them: the spectra of
        the integral masks come flat, rows ascending and each row's roots
        descending, every multiplicity > 0."""
        masks = np.asarray(masks, dtype=np.uint64)
        n, b, f = self.n, len(masks), self.phi
        degree = np.bitwise_count(masks).astype(np.int64)
        coords = self.coords(masks).astype(np.int64)
        split = self.chars_count * f
        chars = coords[:, :split].reshape(b, self.chars_count, f)
        blocks = coords[:, split:].reshape(b, self.blocks_count, 2, 2, f)
        integral = ~chars[:, :, 1:].any(axis=(1, 2))
        trace = blocks[:, :, 0, 0] + blocks[:, :, 1, 1]
        left = blocks[:, :, 0, 0, :, None] * blocks[:, :, 1, 1, None, :]
        left -= blocks[:, :, 0, 1, :, None] * blocks[:, :, 1, 0, None, :]
        det = (left.reshape(-1, f * f) @ self.tensor).reshape(b, self.blocks_count, f)
        integral &= ~(trace[:, :, 1:].any(axis=(1, 2)) | det[:, :, 1:].any(axis=(1, 2)))
        disc = trace[:, :, 0] ** 2 - 4 * det[:, :, 0]  # (l1 - l2)^2 <= 4 k^2 where rational
        root = np.rint(np.sqrt(np.maximum(disc, 0))).astype(np.int64)  # root^2 >= 0 > disc when disc < 0
        integral &= (root * root == disc).all(axis=1)
        keep = np.flatnonzero(integral)
        t, s = trace[keep, :, 0], root[keep]
        values = np.hstack([chars[keep, :, 0], (t + s) // 2, (t - s) // 2])
        weights = np.concatenate([self.weights, np.full(2 * self.blocks_count, 2.0)])
        width = 2 * n + 1  # n - value lies in [0, 2n], ascending as the value descends
        keys = np.arange(len(keep))[:, None] * width + (n - values)
        counts = np.bincount(
            keys.ravel(), weights=np.broadcast_to(weights, keys.shape).ravel(),
            minlength=len(keep) * width,
        ).reshape(len(keep), width)
        r, c = np.nonzero(counts)
        return degree, integral, keep[r], n - c, counts[r, c].astype(np.int64)


def _product_tensor(m: int) -> np.ndarray:
    """T[k, l, c]: coordinate c of zeta^k zeta^l = zeta^(k+l) in the power
    basis, for k, l < phi, so (a b)_c = sum_kl a_k b_l T[k, l, c]."""
    coords = repcheck._zeta_powers(m)[:, :, 0]  # column 0 of C_m^e: zeta^e's coordinates
    f = coords.shape[1]
    e = np.arange(f)
    return coords[(e[:, None] + e[None, :]) % m]


# ---------------------------------------------------------------------------
# abelian groups: the dual group from the table
# ---------------------------------------------------------------------------


def _dual_exponents(group: FiniteGroup) -> Tuple[int, np.ndarray]:
    """(m, E): every character of an abelian group as chi_t(g) =
    zeta_m^E[t, g], m the exponent, built by extending the characters of
    H = <g_1, ..., g_i> to <H, g> one element g outside H at a time.

    If k is least with g^k in H, each character of H extends in k ways,
    g -> zeta^x with k x = E[g^k] mod m, and h g^j -> E[h] + j x.
    _certified_dual checks the result; this function proves nothing.
    """
    t, m = group.np_table(), group.exponent()
    elems = np.array([group.identity])
    exps = np.zeros((1, 1), dtype=np.int64)
    pos = np.full(group.order, -1)
    pos[group.identity] = 0
    for g in group.elements():
        if pos[g] >= 0:
            continue
        powers = [group.identity, g]
        while pos[powers[-1]] < 0:
            powers.append(int(t[powers[-1], g]))
        k = len(powers) - 1
        base = exps[:, pos[powers[-1]]]
        if (base % k).any():
            raise ValueError(f"a character of a subgroup does not extend past element {g}")
        x = (base // k)[:, None] + np.arange(k)[None, :] * (m // k)  # (chars, k)
        j = np.arange(k)
        exps = (exps[:, None, None, :] + j[None, None, :, None] * x[:, :, None, None]) % m
        exps = exps.reshape(-1, k * len(elems))
        elems = t[elems[None, :], np.array(powers[:-1])[:, None]].ravel()  # h g^j at (j, h)
        pos[elems] = np.arange(len(elems))
    return m, exps[:, pos]


def _certified_dual(group: FiniteGroup, m: int, exps: np.ndarray) -> np.ndarray:
    """exps, once it is proven to list n distinct homomorphisms G -> Z/m:
    the whole dual group of an abelian G."""
    n = group.order
    if exps.shape != (n, n):
        raise ValueError(f"need {n} characters on {n} elements, got shape {exps.shape}")
    exps = exps % m
    additive = (exps[:, group.np_table()] - exps[:, :, None] - exps[:, None, :]) % m == 0
    if not additive.all():
        raise ValueError("a character is not a homomorphism")
    if len(np.unique(exps, axis=0)) != n:
        raise ValueError("the characters are not distinct")
    return exps


def _abelian_table(group: FiniteGroup) -> FourierTable:
    m, exps = _dual_exponents(group)
    exps = _certified_dual(group, m, exps)
    units = np.array([a for a in range(1, m + 1) if gcd(a, m) == 1])
    conjugates = units[:, None, None] * exps[None] % m  # [a, t] = chi_t^a
    keys = [min(map(tuple, conjugates[:, t].tolist())) for t in range(len(exps))]
    firsts, weights = {}, {}
    for t, key in enumerate(keys):
        firsts.setdefault(key, t)
        weights[key] = weights.get(key, 0) + 1
    reps = exps[list(firsts.values())]  # one character per Galois orbit
    coords = repcheck._zeta_powers(m)[:, :, 0]
    chars = coords[reps.T]  # (n, orbits, phi)
    blocks = np.zeros((group.order, 0, 2, 2, coords.shape[1]), dtype=np.int64)
    return FourierTable(m, chars, np.array(list(weights.values())), blocks)


# ---------------------------------------------------------------------------
# non-abelian groups: a shipped system of degrees <= 2
# ---------------------------------------------------------------------------


def _system_table(group: FiniteGroup) -> FourierTable:
    shipped = repcheck.system_for(group.label)
    reps = [repcheck.ExplicitRep(group, r.label, r.images, r.m) for r in shipped.reps]
    system = repcheck.RepSystem(group, reps)
    if max(system.degrees) > 2:
        raise ValueError(f"{group.label} has an irreducible of degree {max(system.degrees)}")
    # column 0 of block (i, j) lists the coordinates of entry (i, j)
    coords = [r._blocks()[..., 0].transpose(0, 1, 3, 2) for r in system.reps]
    chars = np.stack([c[:, 0, 0] for c, d in zip(coords, system.degrees) if d == 1], axis=1)
    blocks = np.stack([c for c, d in zip(coords, system.degrees) if d == 2], axis=1)
    return FourierTable(system.m, chars, np.ones(chars.shape[1]), blocks)


# Weak keys: a group's table lives as long as the group does, and is
# built at most once; None records a group that has none.
_TABLES: "weakref.WeakKeyDictionary[FiniteGroup, Optional[FourierTable]]" = weakref.WeakKeyDictionary()


def fourier_table(group: FiniteGroup) -> Optional[FourierTable]:
    """The group's Fourier table, or None where its scans take the walk:
    characters for abelian groups, else the shipped system of the group's
    label when every degree is at most 2."""
    if group in _TABLES:
        return _TABLES[group]
    try:
        table = _abelian_table(group) if group.is_abelian else _system_table(group)
    except ValueError:  # no system, degree 3, or a construction that failed its checks
        table = None
    _TABLES[group] = table
    return table
