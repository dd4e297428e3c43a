"""Exact representations and spectral cross-checks.

The adjacency matrix of a Cayley graph is the image of the subset's
group-algebra element under the left-regular representation, so its
spectrum is the union, over a complete system of irreducible
representations rho_t of degree d_t, of the eigenvalues of
rho_t(S) = sum_{s in S} rho_t(s), each taken d_t times (Babai, Spectra
of Cayley graphs, JCTB 27, 1979).  This module ships hand-built systems
for the groups where a few fixed matrices suffice, plus single witness
representations whose non-integer eigenvalues certify specific
non-integral subsets.

Every entry lies in Z[zeta_m] and is held as its phi(m) x phi(m)
integer multiplication matrix in the power basis 1, zeta, ..., with
zeta -> C_m, the companion matrix of the cyclotomic polynomial Phi_m.
A degree-d image is then a (d phi) x (d phi) int64 matrix R, and every
check below is exact integer arithmetic.

Realification.  a -> M(a) is an injective ring map from Z[zeta_m] to
integer matrices, and one change of basis over C (the eigenvectors of
C_m) turns every M(a) into diag(sigma(a)) over the phi(m) embeddings
sigma of Q(zeta_m).  Applied blockwise, that basis makes R(A) similar to
the direct sum of the Galois conjugates sigma(A), for every matrix A.
"""

from __future__ import annotations

from functools import lru_cache
from math import lcm, prod
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from . import catalog
from .cayley import SymmetricSubset
from .groups import FiniteGroup, generated_images
from .integrality import engine_for
from .intlinalg import IntPolynomial, _char_poly_general, integer_root_split

# an entry of Z[zeta_m]: an int c, or (c, e) for c * zeta_m^e
Entry = Union[int, Tuple[int, int]]


# ---------------------------------------------------------------------------
# Z[zeta_m] as integer matrices
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _cyclotomic(m: int) -> Tuple[int, ...]:
    """Phi_m's coefficients, lowest first: x^m - 1 over every Phi_d, d | m, d < m."""
    num = [-1] + [0] * (m - 1) + [1]
    for d in range(1, m):
        if m % d == 0:
            den = _cyclotomic(d)  # monic, so long division stays in Z
            quo = [0] * (len(num) - len(den) + 1)
            for i in reversed(range(len(quo))):
                quo[i] = num[i + len(den) - 1]
                for j, c in enumerate(den):
                    num[i + j] -= quo[i] * c
            num = quo
    return tuple(num)


def _companion(m: int) -> np.ndarray:
    """C_m, multiplication by zeta_m in the power basis: zeta^i -> zeta^(i+1),
    and zeta^(phi-1) -> zeta^phi = -(Phi_m's lower coefficients)."""
    phi = _cyclotomic(m)
    f = len(phi) - 1
    c = np.zeros((f, f), dtype=np.int64)
    c[np.arange(1, f), np.arange(f - 1)] = 1
    c[:, -1] = np.negative(phi[:-1])
    return c


@lru_cache(maxsize=None)
def _zeta_powers(m: int) -> np.ndarray:
    """C_m^e for e = 0..m-1, shape (m, phi(m), phi(m)); built on first use, read-only."""
    c = _companion(m)
    out = [np.identity(len(c), dtype=np.int64)]
    for _ in range(m - 1):
        out.append(out[-1] @ c)
    powers = np.array(out)
    powers.flags.writeable = False
    return powers


def exact(rows: Sequence[Sequence[Entry]], m: int = 1) -> np.ndarray:
    """R(A) for a matrix A over Z[zeta_m]: each entry becomes its phi x phi block."""
    z = _zeta_powers(m)
    return np.block(
        [[e[0] * z[e[1] % m] if isinstance(e, tuple) else e * z[0] for e in row] for row in rows]
    )


class ExplicitRep:
    """A representation rho over Z[zeta_m], given by R(rho(g)) for every g.

    Validated on construction: every phi x phi block is a multiplication
    matrix M(a) (so rho and its degree are well defined), the identity
    maps to I, and R(a) R(b) = R(ab) over the whole table, in one int64
    comparison.
    """

    def __init__(
        self, group: FiniteGroup, label: str, images: Sequence, m: int = 1
    ) -> None:
        if len(images) != group.order:
            raise ValueError("need one image per group element")
        mats = np.asarray(images)
        f = len(_cyclotomic(m)) - 1
        if mats.ndim != 3 or mats.shape[1] != mats.shape[2] or mats.shape[1] % f:
            raise ValueError("images must be square matrices of equal size")
        if mats.dtype.kind not in "iu":
            raise ValueError("images must be integer matrices")
        self.group = group
        self.label = label
        self.images = mats.astype(np.int64)
        self.m = m
        self.degree = int(mats.shape[1]) // f
        self._validate()

    def _blocks(self) -> np.ndarray:
        """images as (n, d, phi, d, phi): block (i, j) of image g is [g, i, :, j, :]."""
        d = self.degree
        f = self.images.shape[1] // d
        return self.images.reshape(self.group.order, d, f, d, f)

    def _validate(self) -> None:
        g, r = self.group, self.images
        blocks = self._blocks()
        f = blocks.shape[2]
        # column 0 of M(a) lists a's coordinates, and M(a) = sum_k a_k C_m^k
        rebuilt = np.einsum("gikj,kab->giajb", blocks[..., 0], _zeta_powers(self.m)[:f])
        if not np.array_equal(rebuilt, blocks):
            raise ValueError(f"rep {self.label}: an image block is not in Z[zeta_{self.m}]")
        if not np.array_equal(r[g.identity], np.identity(len(r[0]))):
            raise ValueError(f"rep {self.label}: identity image is not I")
        fails = (r[:, None] @ r[None, :] != r[g.np_table()]).any(axis=(1, 2, 3))
        if fails.any():
            a = int(np.flatnonzero(fails)[0])
            raise ValueError(f"rep {self.label}: not a homomorphism at {g.name_of(a)}")

    def character(self) -> np.ndarray:
        """M(tr rho(g)) for every g, shape (n, phi, phi): the sum of diagonal blocks."""
        return np.einsum("giaib->gab", self._blocks())


def rep_sum(rep: ExplicitRep, subset: SymmetricSubset) -> np.ndarray:
    """R(rho(S)), the image of the subset's group-algebra element."""
    if subset.group is not rep.group:
        raise ValueError("subset is over a different group")
    return rep.images[list(subset)].sum(axis=0)


def rep_char_polys(rep: ExplicitRep, subsets: Sequence[SymmetricSubset]) -> List[IntPolynomial]:
    """det(xI - R(rho(S))) for every subset, from one batched char-poly call."""
    return _char_poly_general([rep_sum(rep, s) for s in subsets])


def roots_integral(chi: IntPolynomial, k: int) -> bool:
    """Whether every root of chi is an integer, for monic chi whose roots
    are all real and lie in [-k, k]."""
    return integer_root_split(chi, range(-k, k + 1))[1].degree == 0


def rep_integral(rep: ExplicitRep, subset: SymmetricSubset) -> bool:
    """Whether every eigenvalue of rho(S) is an integer.

    R(rho(S)) is similar to the direct sum of the Galois conjugates
    sigma(rho)(S), and sigma fixes Z, so its eigenvalues are all integers
    exactly when rho(S)'s are.  Each sigma(rho) is a representation of G
    and so unitary for some inner product; S is inverse-closed, so
    sigma(rho)(S) is Hermitian for it, with norm at most |S|.  Every root
    of the char poly of R(rho(S)) is therefore real and in [-|S|, |S|].
    """
    (chi,) = rep_char_polys(rep, [subset])
    return roots_integral(chi, len(subset))


class RepSystem:
    """A complete system of irreducible representations of one group.

    Every rep shares one m.  Certified exactly: first orthogonality,
    sum_g chi_i(g) chi_j(g^-1) = n delta_ij in Z[zeta_m] (on the block
    traces, n delta_ij I_phi), with chi(g^-1) the complex conjugate of
    chi(g), makes the reps irreducible and pairwise inequivalent, and
    sum d_t^2 = |G| then makes the system complete.
    """

    def __init__(self, group: FiniteGroup, reps: Sequence[ExplicitRep]) -> None:
        self.group = group
        self.reps = tuple(reps)
        if any(r.group is not group for r in self.reps):
            raise ValueError("all representations must live on the same group")
        if len({r.m for r in self.reps}) != 1:
            raise ValueError("all representations must share one m")
        self.m = self.reps[0].m
        if sum(r.degree**2 for r in self.reps) != group.order:
            raise ValueError("degree identity sum d^2 = |G| fails")
        chars = np.stack([r.character() for r in self.reps])
        t, f = chars.shape[0], chars.shape[2]
        gram = np.einsum("igab,jgbc->iajc", chars, chars[:, list(group.inverses)])
        if not np.array_equal(gram.reshape(t * f, t * f), group.order * np.identity(t * f)):
            raise ValueError("characters are not orthonormal")

    @property
    def degrees(self) -> Tuple[int, ...]:
        return tuple(r.degree for r in self.reps)


def union_holds(system: RepSystem, rep_polys: Sequence[IntPolynomial], chi: IntPolynomial) -> bool:
    """prod_t charpoly(R_t(S))^(d_t) == chi^phi(m) in Z[x], with rep_polys[t]
    the char poly of R_t(S) and chi = det(xI - A) of Cay(G, S).

    By the realification, the left side is the product over t and over
    the phi(m) embeddings sigma of charpoly(sigma(rho_t)(S))^(d_t).  Each
    sigma permutes a complete irreducible system (it keeps degrees and
    maps inequivalent irreducibles to inequivalent irreducibles), so for
    each sigma the product over t is the degree-weighted union, chi by
    the union formula.  chi is monic and Z[x] factors uniquely, so the
    identity pins chi exactly.
    """
    left = IntPolynomial.of([1])
    for rep, p in zip(system.reps, rep_polys):
        left = left * p**rep.degree
    return left == chi ** (len(_cyclotomic(system.m)) - 1)


def ds_union_check(
    system: RepSystem, subset: SymmetricSubset, chi: Optional[IntPolynomial] = None
) -> bool:
    """Does the degree-weighted union of the system's spectra on S give Cay(G, S)'s?

    chi is det(xI - A) of the Cayley graph, taken from the group's engine
    when not given.
    """
    if subset.group is not system.group:
        raise ValueError("subset is over a different group")
    if chi is None:
        (chi,) = engine_for(system.group).char_polys([subset.bits])
    return union_holds(system, [rep_char_polys(r, [subset])[0] for r in system.reps], chi)


# ---------------------------------------------------------------------------
# building blocks
# ---------------------------------------------------------------------------


def linear_rep(
    group: FiniteGroup, label: str, values: Sequence[Entry], m: int = 1
) -> ExplicitRep:
    return ExplicitRep(group, label, [exact([[v]], m) for v in values], m)


def _power_images(group: FiniteGroup, gens: Dict[int, np.ndarray], m: int) -> np.ndarray:
    """Images for all elements from generator images over Z[zeta_m]."""
    size = len(next(iter(gens.values()))) if gens else len(_companion(m))
    return generated_images(group, gens, np.identity(size, dtype=np.int64))


def _generated_rep(group: FiniteGroup, label: str, gens: dict, m: int) -> ExplicitRep:
    """The rep over Z[zeta_m] given by entry rows for some named generators."""
    images = _power_images(group, {group.index_of(x): exact(r, m) for x, r in gens.items()}, m)
    return ExplicitRep(group, label, images, m)


def abelian_character_system(
    group: FiniteGroup, generators: Sequence[Tuple[int, int]]
) -> RepSystem:
    """All |G| characters of an abelian group, over Z[zeta_m] with m the exponent.

    generators lists (element, order) pairs whose cyclic factors decompose
    the group; character k sends generator j to zeta^(k_j m / order_j).
    A list that does not decompose the group fails construction.
    """
    orders = [o for _, o in generators]
    if prod(orders) != group.order:
        raise ValueError("generator orders do not multiply to |G|")
    m = lcm(*orders)
    reps = []
    for idx, k in enumerate(np.ndindex(*orders)):
        gens = {g: exact([[(1, kj * m // o)]], m) for (g, o), kj in zip(generators, k)}
        reps.append(ExplicitRep(group, f"chi{idx}", _power_images(group, gens, m), m))
    return RepSystem(group, reps)


# ---------------------------------------------------------------------------
# shipped systems
# ---------------------------------------------------------------------------


def _perm_matrices(group: FiniteGroup) -> np.ndarray:
    """P(g), with P(g) e_j = e_(g(j)), for each element of a catalog permutation group."""
    perms = catalog.permutations_of(group)
    eye = np.identity(len(perms[0]), dtype=np.int64)
    return np.stack([eye[:, list(p)] for p in perms])


def standard_perm_rep(group: FiniteGroup, label: str = "standard", m: int = 1) -> ExplicitRep:
    """Degree n-1 standard representation of a catalog permutation group.

    In the basis f_j = e_j - e_(n-1), P(g) f_j = f_(g(j)) - f_(g(n-1))
    with f_(n-1) = 0; the entries stay in {0, 1, -1}.
    """
    p = _perm_matrices(group)
    return ExplicitRep(group, label, [exact(x, m) for x in p[:, :-1, :-1] - p[:, :-1, -1:]], m)


def permutation_rep(group: FiniteGroup, label: str = "perm") -> ExplicitRep:
    """Full permutation-matrix representation of a catalog perm group."""
    return ExplicitRep(group, label, _perm_matrices(group))


def _sign_values(group: FiniteGroup) -> List[int]:
    return [1 - 2 * catalog._parity(p) for p in catalog.permutations_of(group)]


def system_s3() -> RepSystem:
    g = catalog.build_cached("S3")
    return RepSystem(
        g,
        [
            linear_rep(g, "trivial", [1] * 6),
            linear_rep(g, "sign", _sign_values(g)),
            standard_perm_rep(g),
        ],
    )


def system_d4() -> RepSystem:
    """Over Z[i], i = zeta_4; x^b y^a has index 4b + a."""
    g = catalog.build_cached("D4")
    lin = []
    for s in (1, -1):
        for t in (1, -1):
            vals = [s ** (x // 4) * t**x for x in range(8)]
            lin.append(linear_rep(g, f"chi{(1 - s) // 2}{(1 - t) // 2}", vals, 4))
    theta = _generated_rep(g, "theta", {"x": [[0, 1], [1, 0]], "y": [[(1, 1), 0], [0, (1, 3)]]}, 4)
    return RepSystem(g, lin + [theta])


def system_q8() -> RepSystem:
    """Over Z[i], i = zeta_4; element x is +-1, +-i, +-j, +-k as x // 2 = 0..3."""
    g = catalog.build_cached("Q8")
    lin = []
    for s in (1, -1):
        for t in (1, -1):
            vals = [s ** (x // 2 in (1, 3)) * t ** (x // 2 in (2, 3)) for x in range(8)]
            lin.append(linear_rep(g, f"chi{(1 - s) // 2}{(1 - t) // 2}", vals, 4))
    pi = _generated_rep(g, "pi", {"i": [[(1, 1), 0], [0, (-1, 1)]], "j": [[0, 1], [-1, 0]]}, 4)
    return RepSystem(g, lin + [pi])


def system_dic12() -> RepSystem:
    """Over Z[zeta_12], with i = zeta^3 and omega = zeta^4; x^a y^b has index 4a + b."""
    g = catalog.build_cached("Dic12")
    lin = [linear_rep(g, f"chi{a}", [(1, 3 * a * x) for x in range(12)], 12) for a in range(4)]
    faithful = _generated_rep(
        g, "faithful2", {"x": [[(1, 4), 0], [0, (1, 8)]], "y": [[0, 1], [-1, 0]]}, 12
    )
    through_s3 = _generated_rep(g, "via_s3", {"x": [[0, -1], [1, -1]], "y": [[0, 1], [1, 0]]}, 12)
    return RepSystem(g, lin + [faithful, through_s3])


def system_a4() -> RepSystem:
    """Over Z[omega], omega = zeta_3."""
    g = catalog.build_cached("A4")
    c123 = g.index_of("(123)")
    klein = [x for x in g.elements() if g.element_order(x) <= 2]
    cosets = {x: 0 for x in klein}
    for x in klein:
        cosets[g.mul(c123, x)] = 1
        cosets[g.mul(c123, g.mul(c123, x))] = 2
    assert len(cosets) == 12
    lin = [
        linear_rep(g, f"omega{a}", [(1, a * cosets[x]) for x in g.elements()], 3)
        for a in range(3)
    ]
    return RepSystem(g, lin + [standard_perm_rep(g, m=3)])


_SYSTEM_BUILDERS = {
    "S3": system_s3,
    "D4": system_d4,
    "Q8": system_q8,
    "Dic12": system_dic12,
    "A4": system_a4,
}


def _abelian_generators(expr) -> Optional[List[Tuple[int, int]]]:
    """(element index, order) pairs decomposing a catalog abelian group.

    Mirrors the index conventions of the builders: direct products are
    big-endian on the left factor, cyclic powers little-endian.
    """
    e = catalog.parse_group_expr(expr) if isinstance(expr, str) else expr
    if isinstance(e, catalog.Named):
        if e.name.startswith("Z"):
            n = int(e.name[1:])
            return [(1 % n, n)] if n > 1 else []
        return None
    if isinstance(e, catalog.Power):
        base = e.base
        if not (isinstance(base, catalog.Named) and base.name.startswith("Z")):
            return None
        m = int(base.name[1:])
        if m < 2:
            return []
        return [(m**i, m) for i in range(e.k)]
    if isinstance(e, catalog.Product):
        left = _abelian_generators(e.left)
        right = _abelian_generators(e.right)
        if left is None or right is None:
            return None
        rorder = catalog.expr_order(e.right)
        return [(g * rorder, m) for g, m in left] + right
    return None


def product_system(group: FiniteGroup, left: RepSystem, right: RepSystem) -> RepSystem:
    """The system {rho x sigma} of group = left x right, element (a, b) at
    index a |right| + b as direct_product numbers it.

    The irreducibles of a direct product are exactly the outer tensor
    products of the factors' irreducibles.  One factor must be realised
    over Z (phi(m) = 1, m <= 2): its images are integer matrices, so
    kron(int image, other image) keeps every phi x phi block a
    multiplication matrix, and the product lives over the other
    factor's Z[zeta_m].  When both factors have phi(m) > 1, kron of the
    realified images would give the sum of rho x tau(sigma) over the
    Galois conjugates tau(sigma), not rho x sigma, so that case raises.
    RepSystem's checks certify the result on group's own table.
    """
    flat = [len(_cyclotomic(s.m)) == 2 for s in (left, right)]
    if not any(flat):
        raise ValueError("both factors have phi(m) > 1; kron of their images is not their product")
    m = right.m if flat[0] else left.m
    # kron(int, other) at (a, b): entry (p, q) of the int image scales the other's image
    spec = "iab,jcd->ijacbd" if flat[0] else "icd,jab->ijacbd"
    reps = []
    for a in left.reps:
        for b in right.reps:
            images = np.einsum(spec, a.images, b.images)
            size = images.shape[2] * images.shape[3]
            images = images.reshape(group.order, size, size)
            reps.append(ExplicitRep(group, f"{a.label}x{b.label}", images, m))
    return RepSystem(group, reps)


def system_for(expr: str) -> RepSystem:
    """The shipped complete irreducible system for a catalog expression:
    a hand-built one, the characters of a catalog abelian group, or the
    product_system of a direct product's factors."""
    e = catalog.parse_group_expr(expr)
    label = e.to_string()
    if label in _SYSTEM_BUILDERS:
        return _SYSTEM_BUILDERS[label]()
    gens = _abelian_generators(e)
    if gens is not None:
        return abelian_character_system(catalog.build_cached(label), gens)
    if isinstance(e, catalog.Product):
        left, right = system_for(e.left.to_string()), system_for(e.right.to_string())
        return product_system(catalog.build_cached(label), left, right)
    raise ValueError(f"no shipped representation system for {expr!r}")


# ---------------------------------------------------------------------------
# witness representations
# ---------------------------------------------------------------------------


def rep_dn_theta(n: int) -> ExplicitRep:
    """Faithful 2-dim rep of D_n over Z[zeta_n]: x swaps coordinates, y is diag(zeta, zeta^-1)."""
    g = catalog.build_cached(f"D{n}")
    return _generated_rep(g, "theta", {"x": [[0, 1], [1, 0]], "y": [[(1, 1), 0], [0, (1, -1)]]}, n)


def rep_q8_pi() -> ExplicitRep:
    return next(r for r in system_q8().reps if r.degree == 2)


def rep_q8z4_rho() -> ExplicitRep:
    """2-dim rep of Q8xZ4 over Z[i]: (a, t^j) -> i^j pi(a)."""
    g = catalog.build_cached("Q8xZ4")
    pi = rep_q8_pi()
    images = []
    for x in g.elements():
        a, j = divmod(x, 4)
        images.append(exact([[(1, j), 0], [0, (1, j)]], 4) @ pi.images[a])
    return ExplicitRep(g, "rho", images, 4)


def rep_s3_perm3() -> ExplicitRep:
    """The reducible 3-dim permutation representation of S3."""
    return permutation_rep(catalog.build_cached("S3"))


def rep_s3z3_omega() -> ExplicitRep:
    """3-dim rep of S3xZ3 over Z[omega]: (sigma, x^j) -> omega^j P(sigma)."""
    g = catalog.build_cached("S3xZ3")
    p = rep_s3_perm3()
    images = []
    for x in g.elements():
        s, j = divmod(x, 3)
        images.append(exact([[(int(c), j) for c in row] for row in p.images[s]], 3))
    return ExplicitRep(g, "omega_perm", images, 3)


def rep_e9_via_s3() -> ExplicitRep:
    """3-dim rep of E9 factoring through E9/<x> = S3.

    The quotient isomorphism sends the y-coset to (123) and the z-coset
    to (12); composing with the 3-dim permutation representation keeps
    all entries in {0, 1}.
    """
    g = catalog.build_cached("E9")
    s3 = catalog.build_cached("S3")
    p = rep_s3_perm3()
    r123 = s3.index_of("(123)")
    r12 = s3.index_of("(12)")
    images = []
    for x in g.elements():
        b, c = (x // 3) % 3, x // 9
        t = s3.identity
        for _ in range(b):
            t = s3.mul(t, r123)
        if c:
            t = s3.mul(t, r12)
        images.append(p.images[t])
    return ExplicitRep(g, "via_s3", images)


def rep_a4_perm4() -> ExplicitRep:
    """The 4-dim permutation-matrix representation of A4."""
    return permutation_rep(catalog.build_cached("A4"))
