"""Named group constructors and a small group-expression language.

Grammar:  expr := term ('x' term)* ; term := name ('^' int)?
          name := Z<int> | D<int> | Q8 | Dic12 | S3 | S4 | A4 | E9
                | SL2_3 | SD(<p>,<q>,<r>)

'x' is direct product, '^' repeated direct product.  Powers of a cyclic
base Z_m are built as homocyclic groups with additive vector names
(identity "0", basis elements "e1", "e2", ..., general "2e1+e3").
Total order of the built group must not exceed 64.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from functools import lru_cache, reduce
from typing import Optional, Union

from .groups import FiniteGroup, direct_product, semidirect_product
from .intlinalg import SizeLimitError

MAX_ORDER = 64


class GroupParseError(ValueError):
    """Raised when a group expression does not match the grammar."""


class GroupOrderError(GroupParseError, SizeLimitError):
    """Raised when a well-formed group expression has an order above
    MAX_ORDER.  It stays a GroupParseError for callers that catch one."""


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------


def cyclic(n: int) -> FiniteGroup:
    """Z_n, additive, elements named "0".."n-1"."""
    if not 1 <= n <= MAX_ORDER:
        raise ValueError(f"cyclic order must be in 1..{MAX_ORDER}, got {n}")
    table = [[(a + b) % n for b in range(n)] for a in range(n)]
    return FiniteGroup(table, [str(a) for a in range(n)], label=f"Z{n}")


def _vector_name(vec: tuple) -> str:
    terms = []
    for i, c in enumerate(vec):
        if c == 0:
            continue
        terms.append(f"e{i + 1}" if c == 1 else f"{c}e{i + 1}")
    return "+".join(terms) if terms else "0"


def homocyclic(m: int, k: int) -> FiniteGroup:
    """(Z_m)^k with vector element names; identity "0", basis "e1".."ek".

    Index convention: (v1..vk) -> sum v_i * m^(i-1).
    """
    if m < 2 or k < 1:
        raise ValueError(f"homocyclic needs m >= 2, k >= 1, got m={m} k={k}")
    n = m**k
    if n > MAX_ORDER:
        raise ValueError(f"order {n} exceeds the supported maximum {MAX_ORDER}")
    vecs = [tuple((idx // m**i) % m for i in range(k)) for idx in range(n)]
    enc = {v: i for i, v in enumerate(vecs)}
    table = [
        [enc[tuple((a[i] + b[i]) % m for i in range(k))] for b in vecs] for a in vecs
    ]
    label = f"Z{m}^{k}"
    return FiniteGroup(table, [_vector_name(v) for v in vecs], label=label)


def dihedral(n: int) -> FiniteGroup:
    """D_n of order 2n, presented as <x, y | x^2 = y^n = 1, x y x = y^-1>.

    x is the reflection, y the rotation.  Elements x^b y^a are indexed
    b*n + a and named "1", "y", "y2", ..., "x", "xy", "xy2", ...
    """
    if not 1 <= n <= MAX_ORDER // 2:
        raise ValueError(f"dihedral parameter must be in 1..{MAX_ORDER // 2}, got {n}")

    def mul(b1, a1, b2, a2):
        # (x^b1 y^a1)(x^b2 y^a2) = x^(b1+b2) y^((-1)^b2 a1 + a2)
        return (b1 ^ b2, ((a1 if b2 == 0 else -a1) + a2) % n)

    idx = lambda b, a: b * n + a
    table = [[0] * (2 * n) for _ in range(2 * n)]
    for b1 in range(2):
        for a1 in range(n):
            for b2 in range(2):
                for a2 in range(n):
                    b, a = mul(b1, a1, b2, a2)
                    table[idx(b1, a1)][idx(b2, a2)] = idx(b, a)
    names = []
    for b in range(2):
        for a in range(n):
            xpart = "x" if b else ""
            ypart = "" if a == 0 else ("y" if a == 1 else f"y{a}")
            names.append((xpart + ypart) or "1")
    return FiniteGroup(table, names, label=f"D{n}")


def quaternion8() -> FiniteGroup:
    """Q8 with elements ordered 1, -1, i, -i, j, -j, k, -k."""
    units = ["1", "-1", "i", "-i", "j", "-j", "k", "-k"]
    # axis multiplication table for 1,i,j,k with signs
    axis = {"1": 0, "i": 1, "j": 2, "k": 3}
    prod = [
        [(+1, 0), (+1, 1), (+1, 2), (+1, 3)],
        [(+1, 1), (-1, 0), (+1, 3), (-1, 2)],
        [(+1, 2), (-1, 3), (-1, 0), (+1, 1)],
        [(+1, 3), (+1, 2), (-1, 1), (-1, 0)],
    ]

    def decode(s: str):
        sign = -1 if s.startswith("-") else 1
        return sign, axis[s.lstrip("-")]

    def encode(sign: int, ax: int) -> int:
        name = "1ijk"[ax]
        return units.index(name if sign > 0 else "-" + name)

    table = [[0] * 8 for _ in range(8)]
    for a, sa in enumerate(units):
        g1, a1 = decode(sa)
        for b, sb in enumerate(units):
            g2, a2 = decode(sb)
            sgn, ax = prod[a1][a2]
            table[a][b] = encode(g1 * g2 * sgn, ax)
    return FiniteGroup(table, units, label="Q8")


def symmetric(n: int) -> FiniteGroup:
    """S_n on points 0..n-1; composition (p*q)(i) = p(q(i)).

    Elements are permutation tuples in lexicographic order with the
    identity moved to index 0; names use 1-based cycle notation.
    """
    if not 1 <= n <= 4:
        raise ValueError(f"symmetric group supported for n in 1..4, got {n}")
    perms = sorted(itertools.permutations(range(n)))
    return _perm_group(perms, f"S{n}")


def alternating(n: int) -> FiniteGroup:
    if not 1 <= n <= 4:
        raise ValueError(f"alternating group supported for n in 1..4, got {n}")
    perms = [p for p in sorted(itertools.permutations(range(n))) if _parity(p) == 0]
    return _perm_group(perms, f"A{n}")


def _parity(p: tuple) -> int:
    inv = sum(
        1 for i in range(len(p)) for j in range(i + 1, len(p)) if p[i] > p[j]
    )
    return inv & 1


def cycle_notation(p: tuple) -> str:
    seen = [False] * len(p)
    out = []
    for i in range(len(p)):
        if seen[i] or p[i] == i:
            seen[i] = True
            continue
        cyc = [i]
        seen[i] = True
        j = p[i]
        while j != i:
            cyc.append(j)
            seen[j] = True
            j = p[j]
        out.append("(" + "".join(str(x + 1) for x in cyc) + ")")
    return "".join(out) if out else "id"


def _perm_group(perms: list, label: str) -> FiniteGroup:
    ident = tuple(range(len(perms[0])))
    perms = [ident] + [p for p in perms if p != ident]
    enc = {p: i for i, p in enumerate(perms)}
    table = [
        [enc[tuple(p[q[i]] for i in range(len(p)))] for q in perms] for p in perms
    ]
    return FiniteGroup(table, [cycle_notation(p) for p in perms], label=label)


def permutations_of(group: FiniteGroup) -> list:
    """Recover the permutation tuples of a group built by symmetric/alternating.

    Rebuilt from element names (cycle notation); order matches indices.
    """
    degree = {1: 1, 2: 2, 6: 3, 24: 4, 3: 3, 12: 4}[group.order]
    out = []
    for nm in group.names:
        perm = list(range(degree))
        for cyc in re.findall(r"\(([0-9]+)\)", nm):
            pts = [int(ch) - 1 for ch in cyc]
            for i, pt in enumerate(pts):
                perm[pt] = pts[(i + 1) % len(pts)]
        out.append(tuple(perm))
    return out


def dicyclic12() -> FiniteGroup:
    """Dic12 = <x, y | x^3 = y^4 = 1, y x y^-1 = x^-1>, order 12.

    Built as Z3 x| Z4 with the generator of Z4 inverting; element x^a y^b
    is indexed a*4 + b and named like "x2y3".
    """
    names = []
    for a in range(3):
        for b in range(4):
            xp = "" if a == 0 else ("x" if a == 1 else f"x{a}")
            yp = "" if b == 0 else ("y" if b == 1 else f"y{b}")
            names.append((xp + yp) or "1")
    return semidirect_product(cyclic(3), cyclic(4), {1: (0, 2, 1)}, names, "Dic12")


def e9_semidirect() -> FiniteGroup:
    """E9 = (Z3 x Z3) x| Z2 with the involution inverting, order 18.

    Element x^a y^b z^c is indexed a + 3b + 9c; names like "xy2z".
    """
    table = [[0] * 18 for _ in range(18)]

    def mul(e1, e2):
        a1, b1, c1 = e1
        a2, b2, c2 = e2
        s = -1 if c1 else 1
        return ((a1 + s * a2) % 3, (b1 + s * b2) % 3, (c1 + c2) % 2)

    elems = [(idx % 3, idx // 3 % 3, idx // 9) for idx in range(18)]
    enc = {e: i for i, e in enumerate(elems)}
    for i, e1 in enumerate(elems):
        for j, e2 in enumerate(elems):
            table[i][j] = enc[mul(e1, e2)]
    names = []
    for a, b, c in elems:
        xp = "" if a == 0 else ("x" if a == 1 else f"x{a}")
        yp = "" if b == 0 else ("y" if b == 1 else f"y{b}")
        zp = "z" if c else ""
        names.append((xp + yp + zp) or "1")
    return FiniteGroup(table, names, label="E9")


def sl2_3() -> FiniteGroup:
    """SL(2,3): 2x2 matrices over GF(3) with determinant 1, order 24.

    Enumerated by brute force; identity first, the rest in lexicographic
    order of (a,b,c,d).  Element (a,b,c,d) is named "m<abcd>".
    """
    mats = [
        (a, b, c, d)
        for a in range(3)
        for b in range(3)
        for c in range(3)
        for d in range(3)
        if (a * d - b * c) % 3 == 1
    ]
    ident = (1, 0, 0, 1)
    mats = [ident] + [m for m in sorted(mats) if m != ident]
    enc = {m: i for i, m in enumerate(mats)}

    def mmul(m1, m2):
        a, b, c, d = m1
        e, f, g, h = m2
        return ((a * e + b * g) % 3, (a * f + b * h) % 3, (c * e + d * g) % 3, (c * f + d * h) % 3)

    table = [[enc[mmul(m1, m2)] for m2 in mats] for m1 in mats]
    names = [f"m{a}{b}{c}{d}" for a, b, c, d in mats]
    return FiniteGroup(table, names, label="SL2_3")


def zp_zq_semidirect(p: int, q: int, r: int) -> FiniteGroup:
    """SD(p,q,r) = Z_p x| Z_q with x y x^-1 = y^r.

    y generates the normal cyclic part of order p, x the acting part of
    order q.  Requires r^q = 1 (mod p) and gcd(r, p) = 1 so y -> y^r is
    an automorphism of Z_p.  Element y^a x^s is indexed a*q + s and
    named in x-first canonical form (y^a x^s = x^s y^(a*r^-s)).
    """
    if p < 1 or q < 1 or p * q > MAX_ORDER:
        raise ValueError(f"SD({p},{q},{r}): order {p * q} out of range 1..{MAX_ORDER}")
    if not 1 <= r < max(p, 2):
        raise ValueError(f"SD({p},{q},{r}): twist r must be in 1..{p - 1}")
    if pow(r, q, p) != 1 % p:
        raise ValueError(f"SD({p},{q},{r}): r^q = 1 (mod p) fails")
    perm = tuple(a * r % p for a in range(p))
    r_inv = pow(r, -1, p) if p > 1 else 0
    names = []
    for a in range(p):
        for s in range(q):
            ye = a * pow(r_inv, s, p) % p if p > 1 else 0
            xp = "" if s == 0 else ("x" if s == 1 else f"x{s}")
            yp = "" if ye == 0 else ("y" if ye == 1 else f"y{ye}")
            names.append((xp + yp) or "1")
    return semidirect_product(cyclic(p), cyclic(q), {1 % q: perm}, names, f"SD({p},{q},{r})")


# ---------------------------------------------------------------------------
# expression language
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Named:
    name: str
    params: tuple = ()

    def to_string(self) -> str:
        if self.params:
            return f"{self.name}({','.join(str(p) for p in self.params)})"
        return self.name


@dataclass(frozen=True)
class Power:
    base: "GroupExpr"
    k: int

    def to_string(self) -> str:
        return f"{self.base.to_string()}^{self.k}"


@dataclass(frozen=True)
class Product:
    left: "GroupExpr"
    right: "GroupExpr"

    def to_string(self) -> str:
        return f"{self.left.to_string()}x{self.right.to_string()}"


GroupExpr = Union[Named, Power, Product]

_TOKEN_RE = re.compile(
    r"""
    (?P<sd>SD\(\s*(\d+)\s*,\s*(\d+)\s*,\s*(\d+)\s*\))
  | (?P<name>SL2_3|Dic12|E9|Q8|S[1-4]|A[1-4]|Z\d+|D\d+)
  | (?P<pow>\^\d+)
  | (?P<times>x)
    """,
    re.VERBOSE,
)


def parse_group_expr(text: str) -> GroupExpr:
    """Parse the expression grammar; raises GroupParseError on bad input."""
    s = text.replace(" ", "")
    if not s:
        raise GroupParseError("empty group expression")
    pos = 0
    tokens = []
    while pos < len(s):
        m = _TOKEN_RE.match(s, pos)
        if m is None:
            raise GroupParseError(f"cannot tokenize group expression at {s[pos:]!r}")
        if m.lastgroup == "sd":
            tokens.append(("name", Named("SD", tuple(int(x) for x in m.groups()[1:4]))))
        elif m.lastgroup == "name":
            tokens.append(("name", Named(m.group())))
        elif m.lastgroup == "pow":
            tokens.append(("pow", int(m.group()[1:])))
        else:
            tokens.append(("times", None))
        pos = m.end()

    def parse_term(i: int):
        if i >= len(tokens) or tokens[i][0] != "name":
            raise GroupParseError(f"expected a group name in {text!r}")
        node: GroupExpr = tokens[i][1]
        i += 1
        if i < len(tokens) and tokens[i][0] == "pow":
            k = tokens[i][1]
            if k < 1:
                raise GroupParseError(f"power must be >= 1 in {text!r}")
            node = Power(node, k)
            i += 1
        return node, i

    node, i = parse_term(0)
    while i < len(tokens):
        if tokens[i][0] != "times":
            raise GroupParseError(f"expected 'x' between terms in {text!r}")
        rhs, i = parse_term(i + 1)
        node = Product(node, rhs)
    return node


def _build_named(e: Named) -> FiniteGroup:
    if e.name == "SD":
        return zp_zq_semidirect(*e.params)
    if e.name == "SL2_3":
        return sl2_3()
    if e.name.startswith("Z"):
        return cyclic(int(e.name[1:]))
    if e.name.startswith("D") and e.name != "Dic12":
        return dihedral(int(e.name[1:]))
    if e.name == "Q8":
        return quaternion8()
    if e.name == "Dic12":
        return dicyclic12()
    if e.name.startswith("S"):
        return symmetric(int(e.name[1:]))
    if e.name.startswith("A"):
        return alternating(int(e.name[1:]))
    if e.name == "E9":
        return e9_semidirect()
    raise GroupParseError(f"unknown group name {e.name!r}")


def expr_order(e: GroupExpr) -> int:
    if isinstance(e, Named):
        if e.name == "SD":
            return e.params[0] * e.params[1]
        if e.name.startswith("Z"):
            return int(e.name[1:])
        if e.name.startswith("D") and e.name != "Dic12":
            return 2 * int(e.name[1:])
        return {"Q8": 8, "Dic12": 12, "E9": 18, "SL2_3": 24,
                "S1": 1, "S2": 2, "S3": 6, "S4": 24,
                "A1": 1, "A2": 1, "A3": 3, "A4": 12}[e.name]
    if isinstance(e, Power):
        return expr_order(e.base) ** e.k
    return expr_order(e.left) * expr_order(e.right)


def build(expr: Union[str, GroupExpr]) -> FiniteGroup:
    """Build the group for an expression (string or parsed form).

    Total order must be at most 64.  The label of the result is the
    round-tripped expression string.
    """
    if isinstance(expr, str):
        return build_cached(expr.replace(" ", ""))
    return _build(expr)


@lru_cache(maxsize=256)
def build_cached(text: str) -> FiniteGroup:
    return _build(parse_group_expr(text))


def _build(e: GroupExpr) -> FiniteGroup:
    try:
        total = expr_order(e)
    except KeyError as exc:
        raise GroupParseError(f"unknown group name {exc.args[0]!r}") from exc
    if total > MAX_ORDER:
        raise GroupOrderError(
            f"group order {total} exceeds the supported maximum {MAX_ORDER}"
        )
    try:
        g = _build_node(e)
    except GroupParseError:
        raise
    except ValueError as exc:
        # builder rejected a parameter (e.g. Z0): surface as a parse error
        raise GroupParseError(str(exc)) from exc
    g.label = e.to_string()  # _build_node returns a fresh group: relabel it in place
    return g


def _build_node(e: GroupExpr) -> FiniteGroup:
    if isinstance(e, Named):
        return _build_named(e)
    if isinstance(e, Power):
        if e.k < 1:
            raise ValueError("power must be >= 1")
        base = e.base
        if isinstance(base, Named) and base.name.startswith("Z") and base.name != "Z1" and e.k > 1:
            return homocyclic(int(base.name[1:]), e.k)
        g = _build_node(base)
        return reduce(direct_product, [g] * e.k)
    left = _build_node(e.left)
    right = _build_node(e.right)
    return direct_product(left, right)


# ---------------------------------------------------------------------------
# catalog of all groups of small order
# ---------------------------------------------------------------------------

_ORDER_TABLE = {
    1: ["Z1"],
    2: ["Z2"],
    3: ["Z3"],
    4: ["Z4", "Z2^2"],
    5: ["Z5"],
    6: ["Z6", "S3"],
    7: ["Z7"],
    8: ["Z8", "Z4xZ2", "Z2^3", "D4", "Q8"],
    9: ["Z9", "Z3^2"],
    10: ["Z10", "D5"],
    11: ["Z11"],
    12: ["Z12", "Z6xZ2", "A4", "D6", "Dic12"],
}


def all_groups_of_order(n: int) -> list:
    """Complete list of (expression, group) for each isomorphism class, n <= 12."""
    if n not in _ORDER_TABLE:
        raise ValueError(f"complete catalog only available for orders 1..12, got {n}")
    return [(expr, build(expr)) for expr in _ORDER_TABLE[n]]


def catalog_up_to_12() -> list:
    out = []
    for n in range(1, 13):
        out.extend(all_groups_of_order(n))
    return out
