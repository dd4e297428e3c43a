"""Finite groups as explicit multiplication tables over 0-based element indices."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Optional, Sequence, Tuple

import numpy as np


def _bits_of(mask: int) -> Iterator[int]:
    """Yield set bit positions of a nonnegative int, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class FiniteGroup:
    """A finite group given by its full multiplication table.

    Elements are the indices 0..order-1.  ``table[a][b]`` is the index of
    the product a*b.  Construction checks the group axioms in full, at
    every order: Latin square, two-sided identity, two-sided inverses
    and associativity of every triple.
    """

    __slots__ = (
        "order",
        "table",
        "identity",
        "inverses",
        "names",
        "label",
        "_name_index",
        "_np_table",
        "_xyinv",
        "_orders",
        "_is_abelian",
        "__weakref__",
    )

    def __init__(
        self,
        table: Sequence[Sequence[int]],
        names: Optional[Sequence[str]] = None,
        label: Optional[str] = None,
    ) -> None:
        self.order = len(table)
        if self.order == 0:
            raise ValueError("group must have at least one element")
        if names is None:
            names = [str(i) for i in range(self.order)]
        if len(names) != self.order:
            raise ValueError(f"expected {self.order} names, got {len(names)}")
        self.names = tuple(str(s) for s in names)
        self.label = label if label is not None else f"G{self.order}"
        self._name_index = {s: i for i, s in enumerate(self.names)}
        if len(self._name_index) != self.order:
            raise ValueError("element names must be distinct")
        if any(len(row) != self.order for row in table):
            raise ValueError("table is not square")
        self._np_table = np.array(table, dtype=np.int64)
        self.identity, self.inverses = self._check_axioms(self._np_table)
        self.table = tuple(map(tuple, self._np_table.tolist()))
        self._xyinv = None
        self._orders = None
        self._is_abelian = None

    def _check_axioms(self, t: np.ndarray) -> Tuple[int, tuple]:
        """(identity, inverses) of the square table t, or ValueError.

        Checks, in order: every row and column is a permutation of the
        elements, a two-sided identity, two-sided inverses, and
        associativity of every triple.  Associativity compares (ab)c =
        t[t[a]] with a(bc) = t[a][:, t] for a block of rows a at a time.
        """
        n = self.order
        full = np.arange(n)
        bad_rows = np.flatnonzero((np.sort(t, axis=1) != full).any(axis=1))
        if bad_rows.size:
            raise ValueError(f"row {bad_rows[0]} is not a permutation of the elements")
        bad_cols = np.flatnonzero((np.sort(t, axis=0) != full[:, None]).any(axis=0))
        if bad_cols.size:
            raise ValueError(f"column {bad_cols[0]} is not a permutation of the elements")
        ids = np.flatnonzero((t == full).all(axis=1) & (t == full[:, None]).all(axis=0))
        if not ids.size:
            raise ValueError("table has no two-sided identity")
        e = int(ids[0])
        inv = np.argmax(t == e, axis=1)
        one_sided = np.flatnonzero(t[inv, full] != e)
        if one_sided.size:
            raise ValueError(f"element {one_sided[0]} has no two-sided inverse")
        step = max(1, (1 << 16) // (n * n))  # about 2^16 entries per block
        for start in range(0, n, step):
            rows = t[start:start + step]
            fails = t[rows] != rows[:, t]
            if fails.any():
                a, b, c = np.argwhere(fails)[0].tolist()
                raise ValueError(f"associativity fails at ({start + a},{b},{c})")
        return e, tuple(inv.tolist())

    # -- element arithmetic --------------------------------------------

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def inv(self, a: int) -> int:
        return self.inverses[a]

    def conj(self, a: int, x: int) -> int:
        """a * x * a^-1."""
        return self.table[self.table[a][x]][self.inverses[a]]

    def element_order(self, a: int) -> int:
        if self._orders is None:
            self._orders = self._compute_orders()
        return self._orders[a]

    def _compute_orders(self) -> tuple:
        out = []
        for a in range(self.order):
            x, k = a, 1
            while x != self.identity:
                x = self.table[x][a]
                k += 1
            out.append(k)
        return tuple(out)

    def order_profile(self) -> dict:
        """Map element order -> count, over all elements."""
        prof: dict = {}
        for a in range(self.order):
            o = self.element_order(a)
            prof[o] = prof.get(o, 0) + 1
        return prof

    def exponent(self) -> int:
        from math import lcm

        return lcm(*(self.element_order(a) for a in range(self.order)))

    @property
    def is_abelian(self) -> bool:
        if self._is_abelian is None:
            t = self.table
            n = self.order
            self._is_abelian = all(
                t[a][b] == t[b][a] for a in range(n) for b in range(a + 1, n)
            )
        return self._is_abelian

    def name_of(self, a: int) -> str:
        return self.names[a]

    def index_of(self, name: str) -> int:
        try:
            return self._name_index[name]
        except KeyError:
            raise ValueError(f"no element named {name!r} in {self.label}") from None

    def elements(self) -> range:
        return range(self.order)

    # -- cached numpy views (used by the spectra engine) ---------------

    def np_table(self) -> np.ndarray:
        return self._np_table

    def xy_inv_table(self) -> np.ndarray:
        """Matrix M with M[x,y] = x * y^-1, used to build adjacency matrices."""
        if self._xyinv is None:
            t = self.np_table()
            self._xyinv = t[:, list(self.inverses)]
        return self._xyinv

    def __repr__(self) -> str:
        return f"FiniteGroup({self.label}, order={self.order})"


@dataclass(frozen=True)
class ElementSubset:
    """A subset of a group's elements, stored as a bitmask over indices."""

    group: FiniteGroup
    bits: int

    def __post_init__(self) -> None:
        if self.bits < 0 or self.bits >> self.group.order:
            raise ValueError(f"bitmask 0x{self.bits:x} out of range for order {self.group.order}")

    @classmethod
    def of(cls, group: FiniteGroup, elems: Iterable[int]) -> "ElementSubset":
        bits = 0
        for x in elems:
            if not 0 <= x < group.order:
                raise ValueError(f"element index {x} out of range")
            bits |= 1 << x
        return cls(group, bits)

    @classmethod
    def from_names(cls, group: FiniteGroup, names: Iterable[str]) -> "ElementSubset":
        return cls.of(group, (group.index_of(s) for s in names))

    def members(self) -> list:
        return list(_bits_of(self.bits))

    def member_names(self) -> list:
        return [self.group.names[i] for i in _bits_of(self.bits)]

    def __contains__(self, x: int) -> bool:
        return bool(self.bits >> x & 1)

    def __len__(self) -> int:
        return self.bits.bit_count()

    def __iter__(self) -> Iterator[int]:
        return _bits_of(self.bits)


def closure(group: FiniteGroup, subset: ElementSubset | int) -> ElementSubset:
    """Smallest subgroup containing the given elements.

    Closes the set {identity} | S | S^-1 under products; for a finite
    group that fixed point is a subgroup.
    """
    bits = subset if isinstance(subset, int) else subset.bits
    t = group.table
    members = [group.identity]
    mask = 1 << group.identity
    for a in _bits_of(bits):
        for x in (a, group.inverses[a]):
            if not mask >> x & 1:
                mask |= 1 << x
                members.append(x)
    i = 0
    while i < len(members):
        a = members[i]
        i += 1
        for b in members[:i]:
            for p in (t[a][b], t[b][a]):
                if not mask >> p & 1:
                    mask |= 1 << p
                    members.append(p)
    return ElementSubset(group, mask)


def is_subgroup(group: FiniteGroup, subset: ElementSubset | int) -> bool:
    """True iff the subset is nonempty, product-closed and inverse-closed
    and contains the identity."""
    bits = subset if isinstance(subset, int) else subset.bits
    if not bits >> group.identity & 1:
        return False
    members = list(_bits_of(bits))
    t = group.table
    for a in members:
        if not bits >> group.inverses[a] & 1:
            return False
        ta = t[a]
        for b in members:
            if not bits >> ta[b] & 1:
                return False
    return True


def is_normal(group: FiniteGroup, subset: ElementSubset | int) -> bool:
    bits = subset if isinstance(subset, int) else subset.bits
    if not is_subgroup(group, bits):
        return False
    for a in group.elements():
        for x in _bits_of(bits):
            if not bits >> group.conj(a, x) & 1:
                return False
    return True


def coset_projection(group: FiniteGroup, nsub: ElementSubset | int) -> np.ndarray:
    """proj[x] = index of the coset N x, cosets in order of their least
    element, so the identity coset is index 0.  Raises ValueError if the
    subset is not a normal subgroup."""
    bits = nsub if isinstance(nsub, int) else nsub.bits
    if not is_normal(group, bits):
        raise ValueError("quotient requires a normal subgroup")
    t = group.np_table()
    # column x of t[N] is N x; cosets ranked by their least element
    return np.unique(t[list(_bits_of(bits))].min(axis=0), return_inverse=True)[1]


def quotient(group: FiniteGroup, nsub: ElementSubset | int) -> tuple:
    """Quotient by a normal subgroup.

    Returns (quotient group, projection) with projection as
    coset_projection gives it.  Raises ValueError if the subset is not a
    normal subgroup.
    """
    proj = coset_projection(group, nsub)
    reps = np.unique(proj, return_index=True)[1]  # least element of each coset
    qtable = proj[group.np_table()[np.ix_(reps, reps)]]
    qnames = [f"[{group.names[r]}]" for r in reps.tolist()]
    qgroup = FiniteGroup(qtable, qnames, label=f"{group.label}/N{group.order // len(reps)}")
    return qgroup, tuple(proj.tolist())


def derived_subgroup(group: FiniteGroup) -> ElementSubset:
    """Subgroup generated by all commutators [a,b] = a b a^-1 b^-1."""
    t = group.table
    inv = group.inverses
    comms = 0
    for a in group.elements():
        for b in group.elements():
            c = t[t[t[a][b]][inv[a]]][inv[b]]
            comms |= 1 << c
    return closure(group, comms)


def is_perfect(group: FiniteGroup) -> bool:
    return len(derived_subgroup(group)) == group.order


def center(group: FiniteGroup) -> ElementSubset:
    t = group.table
    bits = 0
    for a in group.elements():
        if all(t[a][b] == t[b][a] for b in group.elements()):
            bits |= 1 << a
    return ElementSubset(group, bits)


def conjugate_subset(group: FiniteGroup, a: int, subset: ElementSubset) -> ElementSubset:
    """The set a S a^-1."""
    bits = 0
    for x in subset:
        bits |= 1 << group.conj(a, x)
    return ElementSubset(group, bits)


def direct_product(g1: FiniteGroup, g2: FiniteGroup) -> FiniteGroup:
    """Direct product with index convention (a, b) -> a * |g2| + b."""
    n1, n2 = g1.order, g2.order
    n = n1 * n2
    t1, t2 = g1.np_table(), g2.np_table()
    table = (t1[:, None, :, None] * n2 + t2[None, :, None, :]).reshape(n, n)
    names = [f"{s1}.{s2}" for s1 in g1.names for s2 in g2.names]
    return FiniteGroup(table, names, label=f"{g1.label}x{g2.label}")


def generated_images(
    group: FiniteGroup, gens: Mapping[int, np.ndarray], one: np.ndarray
) -> np.ndarray:
    """Every element's image, in element order, extended from the
    generators' by BFS on the table, image(a g) = image(a) image(g), from
    the identity's image one.  Permutations (1-D) compose by indexing,
    p q = p[q], and matrices by @.  Each element keeps the first image it
    gets, so callers check the homomorphism; generators that do not
    generate the group raise ValueError."""
    images = {group.identity: one}
    frontier = [group.identity]
    while frontier:
        nxt = []
        for a in frontier:
            for g, image in gens.items():
                b = group.mul(a, g)
                if b not in images:
                    images[b] = images[a][image] if one.ndim == 1 else images[a] @ image
                    nxt.append(b)
        frontier = nxt
    if len(images) != group.order:
        raise ValueError("generator images do not reach the whole group")
    return np.stack([images[x] for x in group.elements()])


def semidirect_product(
    n: FiniteGroup,
    h: FiniteGroup,
    action: Mapping[int, Sequence[int]],
    names: Optional[Sequence[str]] = None,
    label: Optional[str] = None,
) -> FiniteGroup:
    """Semidirect product N x| H.

    ``action`` maps h-elements to permutations of n's elements; images may
    be given for generators only and are extended by homomorphism.  Each
    permutation must be an automorphism of n.  Index convention:
    (a, s) -> a * |H| + s.  names and label default to "a.s" and "N:H".
    """
    gens = {s: np.array(p, dtype=np.int64) for s, p in action.items()}
    one = np.arange(len(next(iter(gens.values()))))
    phi = generated_images(h, gens, one)  # phi[s, b] = s(b)
    nn, nh = n.order, h.order
    tn, th = n.np_table(), h.np_table()

    def require(fails: np.ndarray, what: str) -> None:
        if fails.any():
            raise ValueError(f"action of h-element {np.flatnonzero(fails)[0]} {what}")

    require(np.array([sorted(p) != list(range(nn)) for p in phi.tolist()]),
            "is not a permutation of N")
    # phi(st) = phi(s) phi(t) over H's table, and no given image replaced
    composed = phi[np.arange(nh)[:, None, None], phi[None]]  # [s, t, b] = s(t(b))
    if (phi[th] != composed).any() or any((phi[s] != p).any() for s, p in gens.items()):
        raise ValueError("images do not extend to a homomorphism")
    require(phi[:, n.identity] != n.identity, "does not fix the identity")
    require((phi[:, tn] != tn[phi[:, :, None], phi[:, None, :]]).any(axis=(1, 2)),
            "is not an automorphism")
    # (a, s)(b, t) = (a s(b), st)
    left = tn[:, phi]  # left[a, s, b] = a s(b)
    table = (left[:, :, :, None] * nh + th[None, :, None, :]).reshape(nn * nh, -1)
    if names is None:
        names = [f"{sa}.{ss}" for sa in n.names for ss in h.names]
    return FiniteGroup(table, names, label=label or f"{n.label}:{h.label}")


def subgroup_group(group: FiniteGroup, subset: ElementSubset | int) -> tuple:
    """Reindex a subgroup as its own FiniteGroup.

    Returns (subgroup as group, embedding) where embedding[i] is the index
    in the parent of the i-th subgroup element.  Names are inherited.
    """
    bits = subset if isinstance(subset, int) else subset.bits
    if not is_subgroup(group, bits):
        raise ValueError("subset is not a subgroup")
    embed = list(_bits_of(bits))
    back = {x: i for i, x in enumerate(embed)}
    table = [[back[group.table[a][b]] for b in embed] for a in embed]
    names = [group.names[x] for x in embed]
    sub = FiniteGroup(table, names, label=f"{group.label}<{len(embed)}>")
    return sub, tuple(embed)


def subgroups_up_to_two_generators(group: FiniteGroup) -> list:
    """All subgroups generated by at most two elements, as bitmasks.

    For groups whose subgroups are all 2-generated (e.g. S4) this is the
    complete subgroup family; callers can verify closure under adding a
    third generator with `closure`.
    """
    masks = {closure(group, 0).bits}
    singles = {}
    for a in group.elements():
        m = closure(group, 1 << a).bits
        singles[a] = m
        masks.add(m)
    for a in group.elements():
        for b in range(a + 1, group.order):
            if singles[b] >> a & 1 or singles[a] >> b & 1:
                continue
            masks.add(closure(group, (1 << a) | (1 << b)).bits)
    return sorted(masks)
