"""Reference computations that share no code with cayley_spectra.

Everything here works from a group's multiplication table alone
(``table[a][b]`` is the index of a*b) with subsets as int bitmasks.
The benchmark uses these to check the program's outputs:

* the abelian atom criterion (Alperin-Peterson, EJC 2012): for abelian
  G, Cay(G, S) is integral iff S is a union of atoms
  [x] = {y : <y> = <x>};
* the number c of cyclic subgroups, which gives 2^(c-1) integral
  symmetric subsets of an abelian group;
* subgroup generation by closure and the subgroup test;
* the power-sum identities every integral spectrum satisfies;
* the classification of Cayley-integral groups (Ahmady-Bell-Mohar):
  abelian of exponent dividing 4 or 6, S3, Dic12 and Q8 x Z2^n.
"""

from __future__ import annotations

from math import lcm
from typing import Dict, Iterator, List, Sequence

Table = Sequence[Sequence[int]]


def bits_of(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def identity(table: Table) -> int:
    n = len(table)
    for e in range(n):
        if all(table[e][x] == x for x in range(n)):
            return e
    raise ValueError("table has no identity")


def is_abelian(table: Table) -> bool:
    n = len(table)
    return all(table[a][b] == table[b][a] for a in range(n) for b in range(a))


def cyclic_subgroup(table: Table, x: int) -> int:
    """Bitmask of <x>, by repeated multiplication."""
    e = identity(table)
    mask = 1 << e
    y = x
    while y != e:
        mask |= 1 << y
        y = table[y][x]
    return mask


class GroupFacts:
    """Cached element-level data of one group, computed from its table."""

    def __init__(self, table: Table) -> None:
        self.table = tuple(tuple(row) for row in table)
        self.n = len(self.table)
        self.e = identity(self.table)
        self.cyc = [cyclic_subgroup(self.table, x) for x in range(self.n)]
        self.order_of = [c.bit_count() for c in self.cyc]
        self.inv = [
            next(y for y in range(self.n) if self.table[x][y] == self.e)
            for x in range(self.n)
        ]
        self.abelian = is_abelian(self.table)
        self.exponent = lcm(*self.order_of)
        self._joins: Dict[tuple, int] = {}

    # -- atoms and rational classes ------------------------------------

    def atom(self, x: int) -> int:
        """[x] = {y : <y> = <x>}."""
        c = self.cyc[x]
        return sum(1 << y for y in bits_of(c) if self.cyc[y] == c)

    def rational_classes(self) -> List[int]:
        """Partition of G \\ {e} into the sets {y : <y> conjugate to <x>}.

        For abelian G these are the atoms.  A union of them is a normal,
        Galois-closed symmetric subset, so its Cayley graph is integral.
        """
        t, inv = self.table, self.inv
        seen = 1 << self.e
        out = []
        for x in range(self.n):
            if seen >> x & 1:
                continue
            conj_cycs = {
                sum(1 << t[t[a][y]][inv[a]] for y in bits_of(self.cyc[x]))
                for a in range(self.n)
            }
            cls = sum(
                1 << y for y in range(self.n) if self.cyc[y] in conj_cycs
            )
            seen |= cls
            out.append(cls)
        return out

    def is_union_of_atoms(self, mask: int) -> bool:
        return all(self.atom(x) & ~mask == 0 for x in bits_of(mask))

    def cyclic_subgroup_count(self) -> int:
        return len(set(self.cyc))

    # -- closure and subgroups -----------------------------------------

    def generated(self, mask: int) -> int:
        """<S> as a bitmask: {e} | S closed under products."""
        t = self.table
        members = [self.e] + [x for x in bits_of(mask) if x != self.e]
        got = 0
        for x in members:
            got |= 1 << x
        i = 0
        while i < len(members):
            a = members[i]
            i += 1
            for b in members[:i]:
                for p in (t[a][b], t[b][a]):
                    if not got >> p & 1:
                        got |= 1 << p
                        members.append(p)
        return got

    def join(self, subgroup: int, mask: int) -> int:
        """<H, S> for a subgroup H, memoised on (H, S)."""
        key = (subgroup, mask)
        got = self._joins.get(key)
        if got is None:
            got = self.generated(subgroup | mask)
            self._joins[key] = got
        return got

    def is_subgroup(self, mask: int) -> bool:
        if not mask >> self.e & 1:
            return False
        t = self.table
        members = list(bits_of(mask))
        return all(mask >> t[a][b] & 1 for a in members for b in members)

    def is_hamiltonian(self) -> bool:
        """Non-abelian with every subgroup normal (it suffices to test
        the cyclic subgroups)."""
        if self.abelian:
            return False
        t, inv = self.table, self.inv
        for c in set(self.cyc):
            for a in range(self.n):
                for y in bits_of(c):
                    if not c >> t[t[a][y]][inv[a]] & 1:
                        return False
        return True

    def is_perfect(self) -> bool:
        """G equals the subgroup generated by its commutators."""
        t, inv = self.table, self.inv
        comm = 0
        for a in range(self.n):
            for b in range(self.n):
                comm |= 1 << t[t[a][b]][t[inv[a]][inv[b]]]
        return self.generated(comm) == (1 << self.n) - 1

    def odd_order_mask(self) -> int:
        return sum(
            1 << x for x in range(self.n) if x != self.e and self.order_of[x] % 2
        )

    # -- symmetric-subset cells ----------------------------------------

    def cells(self) -> List[int]:
        """Cells {x, x^-1} of G \\ {e}, ordered by least element.

        Counter bit i of the program's scan order selects cell i.
        """
        seen = 1 << self.e
        out = []
        for x in range(self.n):
            if not seen >> x & 1:
                cell = (1 << x) | (1 << self.inv[x])
                seen |= cell
                out.append(cell)
        return out


def integral_subset_count_abelian(facts: GroupFacts) -> int:
    """2^(c-1): every union of non-identity atoms, and nothing else."""
    if not facts.abelian:
        raise ValueError("closed form holds for abelian groups only")
    return 1 << (facts.cyclic_subgroup_count() - 1)


def cayley_integral_by_classification(facts: GroupFacts) -> bool:
    """Is every Cayley graph on G integral, by the paper's classification?

    Abelian: exponent dividing 4 or 6.  Non-abelian: S3 (the only one of
    order 6), Dic12 (the order-12 one with a single involution) and
    Q8 x Z2^n (the Hamiltonian 2-groups).
    """
    if facts.abelian:
        return 4 % facts.exponent == 0 or 6 % facts.exponent == 0
    n = facts.n
    if n == 6:
        return True
    if n == 12:
        return facts.order_of.count(2) == 1
    return n & (n - 1) == 0 and facts.is_hamiltonian()


def power_sum_problems(
    facts: GroupFacts, mask: int, spectrum: Dict[int, int]
) -> List[str]:
    """Identities of an integral spectrum of Cay(G, S), S = mask.

    sum m = n, sum lambda*m = tr A = 0, sum lambda^2*m = tr A^2 = n|S|,
    and the multiplicity of |S| is the number of components [G : <S>].
    """
    n, k = facts.n, mask.bit_count()
    out = []
    if sum(spectrum.values()) != n:
        out.append(f"multiplicities sum to {sum(spectrum.values())}, not {n}")
    tr1 = sum(v * m for v, m in spectrum.items())
    if tr1 != 0:
        out.append(f"sum of eigenvalues is {tr1}, not 0")
    tr2 = sum(v * v * m for v, m in spectrum.items())
    if tr2 != n * k:
        out.append(f"sum of squared eigenvalues is {tr2}, not {n * k}")
    index = n // facts.generated(mask).bit_count()
    if spectrum.get(k, 0) != index:
        out.append(f"mult({k}) = {spectrum.get(k, 0)}, not [G:<S>] = {index}")
    return out
