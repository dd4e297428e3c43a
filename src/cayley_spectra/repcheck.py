"""Explicit representations and spectral cross-checks.

The adjacency matrix of a Cayley graph is the image of the subset's
group-algebra element under the left-regular representation, so its
spectrum is the union, over a complete system of irreducible
representations rho_t of degree d_t, of the eigenvalues of
rho_t(S) = sum_{s in S} rho_t(s), each taken d_t times.  This module
ships hand-built systems for the groups where a few fixed matrices
suffice, plus single witness representations whose non-integer
eigenvalues certify specific non-integral subsets.

Everything here is numeric cross-validation at tolerance: the exact
char-poly engine remains the authority on integrality.
"""

from __future__ import annotations

import cmath
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from . import catalog
from .cayley import CayleyGraph, SymmetricSubset
from .groups import FiniteGroup
from .integrality import SpectrumVerdict, verdict

HOM_TOL = 1e-9
CHAR_TOL = 1e-7
UNION_TOL = 1e-6


class ExplicitRep:
    """A matrix representation given by one image per group element.

    Validated on construction: identity maps to I and images respect
    the whole multiplication table within HOM_TOL.
    """

    def __init__(self, group: FiniteGroup, label: str, images: Sequence) -> None:
        if len(images) != group.order:
            raise ValueError("need one image per group element")
        mats = np.array(images, dtype=np.complex128)
        if mats.ndim != 3 or mats.shape[1] != mats.shape[2]:
            raise ValueError("images must be square matrices of equal size")
        self.group = group
        self.label = label
        self.images = mats
        self.degree = int(mats.shape[1])
        self._validate()

    def _validate(self) -> None:
        g = self.group
        if np.abs(self.images[g.identity] - np.eye(self.degree)).max() > HOM_TOL:
            raise ValueError(f"rep {self.label}: identity image is not I")
        for a in g.elements():
            prods = self.images[a] @ self.images
            expected = self.images[np.asarray(g.table[a])]
            if np.abs(prods - expected).max() > HOM_TOL:
                raise ValueError(f"rep {self.label}: not a homomorphism at {g.name_of(a)}")

    def character(self) -> np.ndarray:
        return np.einsum("gii->g", self.images)

    def sum_over(self, subset: SymmetricSubset) -> np.ndarray:
        out = np.zeros((self.degree, self.degree), dtype=np.complex128)
        for s in subset:
            out += self.images[s]
        return out


def rep_sum(rep: ExplicitRep, subset: SymmetricSubset) -> np.ndarray:
    """Image of the subset's group-algebra element under the rep."""
    if subset.group is not rep.group:
        raise ValueError("subset is over a different group")
    return rep.sum_over(subset)


def rep_integral(
    rep: ExplicitRep, subset: SymmetricSubset, tol: float = HOM_TOL
) -> Optional[bool]:
    """Whether every eigenvalue of rep_sum is within tol of an integer.

    None means the eigensolver failed (indeterminate, distinct from a
    definite False).
    """
    m = rep_sum(rep, subset)
    try:
        eig = np.linalg.eigvals(m)
    except np.linalg.LinAlgError:
        return None
    return bool(
        all(
            abs(v.imag) <= tol and abs(v.real - round(v.real)) <= tol
            for v in eig
        )
    )


class RepSystem:
    """A complete system of irreducible representations of one group.

    Completeness and irreducibility are certified numerically through
    first orthogonality of characters plus the degree identity
    sum d_t^2 = |G|.
    """

    def __init__(self, group: FiniteGroup, reps: Sequence[ExplicitRep]) -> None:
        self.group = group
        self.reps = tuple(reps)
        if any(r.group is not group for r in self.reps):
            raise ValueError("all representations must live on the same group")
        if sum(r.degree**2 for r in self.reps) != group.order:
            raise ValueError("degree identity sum d^2 = |G| fails")
        chars = np.stack([r.character() for r in self.reps])
        gram = chars @ chars.conj().T / group.order
        if np.abs(gram - np.eye(len(self.reps))).max() > CHAR_TOL:
            raise ValueError("characters are not orthonormal")

    @property
    def degrees(self) -> Tuple[int, ...]:
        return tuple(r.degree for r in self.reps)


def ds_union_check(
    system: RepSystem, subset: SymmetricSubset, v: Optional[SpectrumVerdict] = None,
    tol: float = UNION_TOL,
) -> bool:
    """Does the degree-weighted union of rep spectra equal the exact one?

    v is the subset's verdict, computed here when not given.  For an
    integral exact spectrum the comparison is exact on integer
    multiplicities (rep eigenvalues rounded within tol); otherwise both
    sorted float multisets must agree elementwise within tol.
    """
    if subset.group is not system.group:
        raise ValueError("subset is over a different group")
    graph = CayleyGraph(system.group, subset)
    if v is None:
        v = verdict(graph)
    union: List[complex] = []
    for rep in system.reps:
        eig = np.linalg.eigvals(rep.sum_over(subset))
        union.extend(list(eig) * rep.degree)
    if any(abs(z.imag) > tol for z in union):
        return False
    reals = sorted(z.real for z in union)
    if v.integral:
        counts: Dict[int, int] = {}
        for x in reals:
            r = round(x)
            if abs(x - r) > tol:
                return False
            counts[r] = counts.get(r, 0) + 1
        return counts == v.spectrum
    adj = graph.adjacency_numpy()
    exact = np.sort(np.linalg.eigvalsh(adj))
    return bool(np.abs(np.array(reals) - exact).max() <= tol)


# ---------------------------------------------------------------------------
# building blocks
# ---------------------------------------------------------------------------


def _unit_root(num: int, den: int) -> complex:
    return cmath.exp(2j * cmath.pi * num / den)


def linear_rep(group: FiniteGroup, label: str, values: Sequence[complex]) -> ExplicitRep:
    return ExplicitRep(group, label, [[[v]] for v in values])


def _power_images(
    group: FiniteGroup, gens: Dict[int, np.ndarray], degree: int
) -> List[np.ndarray]:
    """Images for all elements from generator images, by BFS on the table."""
    images: Dict[int, np.ndarray] = {group.identity: np.eye(degree, dtype=np.complex128)}
    frontier = [group.identity]
    while frontier:
        nxt = []
        for a in frontier:
            for g, mg in gens.items():
                b = group.mul(a, g)
                if b not in images:
                    images[b] = images[a] @ mg
                    nxt.append(b)
        frontier = nxt
    if len(images) != group.order:
        raise ValueError("generator images do not reach the whole group")
    return [images[x] for x in group.elements()]


def abelian_digit_map(
    group: FiniteGroup, generators: Sequence[Tuple[int, int]]
) -> List[Tuple[int, ...]]:
    """digits[x] for the decomposition of an abelian group.

    generators is a list of (element, order) pairs whose cyclic factors
    decompose the group as an internal direct sum; raises if the digit
    tuples do not enumerate the group bijectively.
    """
    orders = [m for _, m in generators]
    total = 1
    for m in orders:
        total *= m
    if total != group.order:
        raise ValueError("generator orders do not multiply to |G|")
    digits: Dict[int, Tuple[int, ...]] = {}

    def rec(i: int, at: int, vec: Tuple[int, ...]) -> None:
        if i == len(generators):
            if at in digits:
                raise ValueError("generators do not decompose the group")
            digits[at] = vec
            return
        g, m = generators[i]
        cur = at
        for v in range(m):
            rec(i + 1, cur, vec + (v,))
            cur = group.mul(cur, g)

    rec(0, group.identity, ())
    return [digits[x] for x in group.elements()]


def abelian_character_system(
    group: FiniteGroup, generators: Sequence[Tuple[int, int]]
) -> RepSystem:
    """All |G| characters of an abelian group from a cyclic decomposition."""
    digit = abelian_digit_map(group, generators)
    orders = [m for _, m in generators]
    reps = []
    for idx in range(group.order):
        k = []
        rem = idx
        for m in orders:
            k.append(rem % m)
            rem //= m
        values = []
        for d in digit:
            v = 1 + 0j
            for j, m in enumerate(orders):
                v *= _unit_root(k[j] * d[j] % m, m)
            values.append(v)
        reps.append(linear_rep(group, f"chi{idx}", values))
    return RepSystem(group, reps)


# ---------------------------------------------------------------------------
# shipped systems
# ---------------------------------------------------------------------------


def standard_perm_rep(group: FiniteGroup, label: str = "standard") -> ExplicitRep:
    """Degree n-1 standard representation of a catalog permutation group.

    Permutation matrices written in the basis f_j = e_j - e_(n-1); the
    entries stay in {0, 1, -1}.
    """
    perms = catalog.permutations_of(group)
    n = len(perms[0])
    images = []
    for p in perms:
        m = np.zeros((n - 1, n - 1), dtype=np.complex128)
        for j in range(n - 1):
            if p[j] != n - 1:
                m[p[j], j] += 1
            if p[n - 1] != n - 1:
                m[p[n - 1], j] -= 1
        images.append(m)
    return ExplicitRep(group, label, images)


def permutation_rep(group: FiniteGroup, label: str = "perm") -> ExplicitRep:
    """Full permutation-matrix representation of a catalog perm group."""
    perms = catalog.permutations_of(group)
    n = len(perms[0])
    images = []
    for p in perms:
        m = np.zeros((n, n), dtype=np.complex128)
        for j in range(n):
            m[p[j], j] = 1
        images.append(m)
    return ExplicitRep(group, label, images)


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
    g = catalog.build_cached("D4")
    x, y = g.index_of("x"), g.index_of("y")
    lin = []
    for s in (1, -1):
        for t in (1, -1):
            vals = [0] * 8
            for b in range(2):
                for a in range(4):
                    vals[g.mul(*_pow_pair(g, x, b, y, a))] = s**b * t**a
            lin.append(linear_rep(g, f"chi{(1 - s) // 2}{(1 - t) // 2}", vals))
    theta = ExplicitRep(
        g,
        "theta",
        _power_images(
            g,
            {
                x: np.array([[0, 1], [1, 0]], dtype=np.complex128),
                y: np.array([[1j, 0], [0, -1j]], dtype=np.complex128),
            },
            2,
        ),
    )
    return RepSystem(g, lin + [theta])


def _pow_pair(group: FiniteGroup, a: int, i: int, b: int, j: int) -> Tuple[int, int]:
    """(x, y) with x = a^i and y = b^j, for table-indexed exponentiation."""
    x = group.identity
    for _ in range(i):
        x = group.mul(x, a)
    y = group.identity
    for _ in range(j):
        y = group.mul(y, b)
    return x, y


def system_q8() -> RepSystem:
    g = catalog.build_cached("Q8")
    i_, j_ = g.index_of("i"), g.index_of("j")
    lin = []
    for s in (1, -1):
        for t in (1, -1):
            vals = [0] * 8
            for name, v in (
                ("1", 1), ("-1", 1),
                ("i", s), ("-i", s),
                ("j", t), ("-j", t),
                ("k", s * t), ("-k", s * t),
            ):
                vals[g.index_of(name)] = v
            lin.append(linear_rep(g, f"chi{(1 - s) // 2}{(1 - t) // 2}", vals))
    pi = ExplicitRep(
        g,
        "pi",
        _power_images(
            g,
            {
                i_: np.array([[1j, 0], [0, -1j]], dtype=np.complex128),
                j_: np.array([[0, 1], [-1, 0]], dtype=np.complex128),
            },
            2,
        ),
    )
    return RepSystem(g, lin + [pi])


def system_dic12() -> RepSystem:
    g = catalog.build_cached("Dic12")
    x, y = g.index_of("x"), g.index_of("y")
    lin = []
    for a in range(4):
        vals = [0] * 12
        for xa in range(3):
            for yb in range(4):
                vals[g.mul(*_pow_pair(g, x, xa, y, yb))] = 1j ** (a * yb)
        lin.append(linear_rep(g, f"chi{a}", vals))
    w = _unit_root(1, 3)
    faithful = ExplicitRep(
        g,
        "faithful2",
        _power_images(
            g,
            {
                x: np.array([[w, 0], [0, w**2]], dtype=np.complex128),
                y: np.array([[0, 1], [-1, 0]], dtype=np.complex128),
            },
            2,
        ),
    )
    through_s3 = ExplicitRep(
        g,
        "via_s3",
        _power_images(
            g,
            {
                x: np.array([[0, -1], [1, -1]], dtype=np.complex128),
                y: np.array([[0, 1], [1, 0]], dtype=np.complex128),
            },
            2,
        ),
    )
    return RepSystem(g, lin + [faithful, through_s3])


def system_a4() -> RepSystem:
    g = catalog.build_cached("A4")
    w = _unit_root(1, 3)
    perms = catalog.permutations_of(g)
    c123 = g.index_of("(123)")
    klein = [x for x in g.elements() if g.element_order(x) <= 2]
    cosets = {x: 0 for x in klein}
    for x in klein:
        cosets[g.mul(c123, x)] = 1
        cosets[g.mul(c123, g.mul(c123, x))] = 2
    assert len(cosets) == 12
    lin = [
        linear_rep(g, f"omega{a}", [w ** (a * cosets[x]) for x in g.elements()])
        for a in range(3)
    ]
    return RepSystem(g, lin + [standard_perm_rep(g)])


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


def system_for(expr: str) -> RepSystem:
    """The shipped complete irreducible system for a catalog expression."""
    label = catalog.parse_group_expr(expr).to_string()
    if label in _SYSTEM_BUILDERS:
        return _SYSTEM_BUILDERS[label]()
    gens = _abelian_generators(label)
    if gens is None:
        raise ValueError(f"no shipped representation system for {expr!r}")
    return abelian_character_system(catalog.build_cached(label), gens)


# ---------------------------------------------------------------------------
# witness representations
# ---------------------------------------------------------------------------


def rep_dn_theta(n: int) -> ExplicitRep:
    """Faithful 2-dim rep of D_n: x swaps coordinates, y is diag(w, w^-1)."""
    g = catalog.build_cached(f"D{n}")
    w = _unit_root(1, n)
    return ExplicitRep(
        g,
        "theta",
        _power_images(
            g,
            {
                g.index_of("x"): np.array([[0, 1], [1, 0]], dtype=np.complex128),
                g.index_of("y"): np.array([[w, 0], [0, w.conjugate()]], dtype=np.complex128),
            },
            2,
        ),
    )


def rep_q8_pi() -> ExplicitRep:
    return next(r for r in system_q8().reps if r.degree == 2)


def rep_q8z4_rho() -> ExplicitRep:
    """2-dim rep of Q8xZ4: (a, t^j) -> i^j pi(a)."""
    g = catalog.build_cached("Q8xZ4")
    pi = rep_q8_pi()
    images = []
    for x in g.elements():
        a, j = divmod(x, 4)
        images.append(1j**j * pi.images[a])
    return ExplicitRep(g, "rho", images)


def rep_s3_perm3() -> ExplicitRep:
    """The reducible 3-dim permutation representation of S3."""
    return permutation_rep(catalog.build_cached("S3"))


def rep_s3z3_omega() -> ExplicitRep:
    """3-dim rep of S3xZ3: (sigma, x^j) -> omega^j P(sigma)."""
    g = catalog.build_cached("S3xZ3")
    p = rep_s3_perm3()
    w = _unit_root(1, 3)
    images = []
    for x in g.elements():
        s, j = divmod(x, 3)
        images.append(w**j * p.images[s])
    return ExplicitRep(g, "omega_perm", images)


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
