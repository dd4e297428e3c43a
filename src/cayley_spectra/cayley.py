"""Symmetric connection sets and their Cayley graphs.

Vertices are group elements; x ~ y iff x * y^-1 lies in the connection
set S.  S must be inverse-closed and must not contain the identity, so
the graph is undirected and loop-free.  Right translations are
automorphisms, hence every Cayley graph here is vertex-transitive.
"""

from __future__ import annotations

import weakref
from collections import deque
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence, Tuple

import numpy as np

from .groups import (
    ElementSubset,
    FiniteGroup,
    closure,
    coset_projection,
    direct_product,
    is_subgroup,
)
from .intlinalg import IntMatrix


class AsymmetricSubsetError(ValueError):
    """Connection set is not inverse-closed or contains the identity."""


@dataclass(frozen=True)
class SymmetricSubset(ElementSubset):
    """An inverse-closed, identity-free subset of a group."""

    def __post_init__(self) -> None:
        g, bits = self.group, self.bits
        if bits < 0 or bits >> g.order:
            raise AsymmetricSubsetError(
                f"bitmask 0x{bits:x} out of range for order {g.order}"
            )
        if bits >> g.identity & 1:
            raise AsymmetricSubsetError("connection set must not contain the identity")
        for x in self:
            if not bits >> g.inverses[x] & 1:
                raise AsymmetricSubsetError(
                    f"subset is not inverse-closed: {g.names[x]} lacks its inverse"
                )

    def as_element_subset(self) -> ElementSubset:
        return ElementSubset(self.group, self.bits)

    def complement_bits(self) -> int:
        """Bitmask of G minus (S union {identity})."""
        g = self.group
        full = (1 << g.order) - 1
        return full & ~self.bits & ~(1 << g.identity)


@dataclass(frozen=True)
class CayleyGraph:
    """Cay(G, S): vertex set G, edges x ~ y iff x y^-1 in S."""

    group: FiniteGroup
    subset: SymmetricSubset

    def __post_init__(self) -> None:
        if self.subset.group is not self.group:
            raise ValueError("subset belongs to a different group")

    @classmethod
    def of(cls, group: FiniteGroup, elems: Iterable[int]) -> "CayleyGraph":
        return cls(group, SymmetricSubset.of(group, elems))

    @classmethod
    def from_names(cls, group: FiniteGroup, names: Iterable[str]) -> "CayleyGraph":
        return cls(group, SymmetricSubset.from_names(group, names))

    @property
    def degree(self) -> int:
        return len(self.subset)

    def neighbors(self, x: int) -> list:
        t = self.group.table
        return [t[s][x] for s in self.subset]

    def adjacency_matrix(self) -> IntMatrix:
        g = self.group
        bits = self.subset.bits
        t = g.table
        inv = g.inverses
        return IntMatrix(
            [
                [1 if bits >> t[x][inv[y]] & 1 else 0 for y in range(g.order)]
                for x in range(g.order)
            ]
        )

    def adjacency_numpy(self) -> np.ndarray:
        g = self.group
        membership = np.zeros(g.order, dtype=np.int64)
        for x in self.subset:
            membership[x] = 1
        return membership[g.xy_inv_table()]

    def generates(self) -> bool:
        """True iff S generates G, i.e. the graph is connected."""
        return len(closure(self.group, self.subset.bits)) == self.group.order

    def component_count(self) -> int:
        return self.group.order // len(closure(self.group, self.subset.bits))

    def is_bipartite(self) -> bool:
        """2-colorability of the connected graph; error if disconnected."""
        if not self.generates():
            raise ValueError("bipartiteness is only defined here for connected graphs")
        g = self.group
        color = [-1] * g.order
        color[g.identity] = 0
        q = deque([g.identity])
        while q:
            x = q.popleft()
            for y in self.neighbors(x):
                if color[y] < 0:
                    color[y] = color[x] ^ 1
                    q.append(y)
                elif color[y] == color[x]:
                    return False
        return True

    def is_complete_multipartite(self) -> bool:
        """True iff the complement of S (with identity) is a subgroup.

        Cay(G, G \\ H) is the complete multipartite graph whose parts are
        the right cosets of H, and every complete multipartite Cayley
        graph arises this way.
        """
        comp = self.complement_with_identity()
        return is_subgroup(self.group, comp)

    def complement_with_identity(self) -> int:
        return self.subset.complement_bits() | (1 << self.group.identity)


# ---------------------------------------------------------------------------
# lift constructions
# ---------------------------------------------------------------------------


def lift_from_subgroup(
    g: FiniteGroup, h: ElementSubset, s: SymmetricSubset
) -> SymmetricSubset:
    """T = S union (G \\ H) for a subgroup H and symmetric S inside H.

    If A is the adjacency matrix of Cay(H, S) with Perron eigenvalue
    |S|, n = |H| and k = [G:H], the lifted graph has spectrum
    {lambda_i with multiplicity k, i >= 2} + {|S| + n(k-1)} +
    {|S| - n with multiplicity k-1}.
    """
    if s.group is not g or h.group is not g:
        raise ValueError("subgroup and subset must live in the ambient group")
    if not is_subgroup(g, h):
        raise ValueError("lift_from_subgroup requires a subgroup")
    if s.bits & ~h.bits:
        raise ValueError("S must be contained in H")
    full = (1 << g.order) - 1
    return SymmetricSubset(g, s.bits | (full & ~h.bits))


def lift_from_quotient(
    g: FiniteGroup, nsub: ElementSubset, sbar: SymmetricSubset
) -> SymmetricSubset:
    """Union of the cosets of N named by a symmetric subset of G/N.

    sbar must live on G/N indexed as quotient() indexes it.  G/N is not
    built: with proj = coset_projection(g, nsub), sbar's table q must
    satisfy q[proj x][proj y] = proj[xy] for all x, y, which holds
    exactly when q is quotient()'s table.  The lifted graph's spectrum is
    |N| times the quotient-graph spectrum plus the eigenvalue 0 with
    multiplicity |G| - |G/N|.
    """
    if nsub.group is not g:
        raise ValueError("normal subgroup must live in the ambient group")
    proj = coset_projection(g, nsub)
    q = sbar.group.np_table()
    if len(q) != proj.max() + 1 or (q[proj[:, None], proj] != proj[g.np_table()]).any():
        raise ValueError("sbar does not live in the quotient of g by nsub")
    return lift_preimage(g, proj.tolist(), sbar)


def lift_preimage(
    g: FiniteGroup, proj: Sequence[int], sbar: SymmetricSubset
) -> SymmetricSubset:
    """Preimage of a symmetric quotient subset under a projection map."""
    if len(proj) != g.order:
        raise ValueError("projection length must match the group order")
    bits = 0
    for x in range(g.order):
        if sbar.bits >> proj[x] & 1:
            bits |= 1 << x
    return SymmetricSubset(g, bits)


# direct products by factor pair, weakly keyed: a product holds no
# reference to its factors, so it lives as long as both of them do
_PRODUCTS: "weakref.WeakKeyDictionary[FiniteGroup, weakref.WeakKeyDictionary]" = (
    weakref.WeakKeyDictionary()
)


def union_product_subset(
    a: FiniteGroup, b: FiniteGroup, s1: SymmetricSubset, s2: SymmetricSubset
) -> Tuple[FiniteGroup, SymmetricSubset]:
    """Connection set (S1 x {1}) union ({1} x S2) on the direct product.

    The resulting graph is the Cartesian product of the factors: its
    adjacency matrix is A1 kron I + I kron A2, so its eigenvalues are all
    pairwise sums.  The product is built once per factor pair.
    """
    if s1.group is not a or s2.group is not b:
        raise ValueError("subsets must live in their respective factors")
    by_second = _PRODUCTS.setdefault(a, weakref.WeakKeyDictionary())
    prod = by_second.get(b)
    if prod is None:
        prod = by_second[b] = direct_product(a, b)
    bits = 0
    for x in s1:
        bits |= 1 << (x * b.order + b.identity)
    for y in s2:
        bits |= 1 << (a.identity * b.order + y)
    return prod, SymmetricSubset(prod, bits)


def induced_subgroup_adjacency(
    g: FiniteGroup, h: ElementSubset, s: SymmetricSubset
) -> IntMatrix:
    """Adjacency matrix of Cay(H, S) for S inside the subgroup H.

    Indexing follows H's elements in increasing parent order, matching
    `subgroup_group`.
    """
    if s.bits & ~h.bits:
        raise ValueError("S must be contained in H")
    members = h.members() if isinstance(h, ElementSubset) else list(h)
    t, inv = g.table, g.inverses
    return IntMatrix(
        [
            [1 if s.bits >> t[x][inv[y]] & 1 else 0 for y in members]
            for x in members
        ]
    )
