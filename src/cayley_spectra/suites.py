"""Verification suites: frozen expectation tables run against the engine.

Each suite re-derives one classification or identity from scratch
(exhaustive scans, random lift instances, representation cross-checks)
and compares the outcome against a hard-coded expectation table.  A
report is deterministic across runs and worker counts: scans run in
tally mode (no early exit), each failing group's witness is the
counter-least violation that tally scan records (merged by minimum
counter across workers), and wall times are carried only as
informational fields.
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import dataclass
from functools import lru_cache, partial
from typing import Dict, List, Sequence, Tuple

from . import __version__, catalog
from .cayley import (
    CayleyGraph,
    SymmetricSubset,
    lift_from_quotient,
    lift_from_subgroup,
    lift_preimage,
    union_product_subset,
)
from .groups import (
    ElementSubset,
    FiniteGroup,
    _bits_of,
    closure,
    is_normal,
    is_perfect,
    is_subgroup,
    quotient,
    subgroup_group,
    subgroups_up_to_two_generators,
)
from .integrality import engine_for, verdict
from .intlinalg import IntMatrix, IntPolynomial
from .repcheck import rep_char_polys, roots_integral, system_for, union_holds
from .search import WITNESS_KIND, GroupVerdict, exhaustive_scan, symmetric_subsets

SUITE_NAMES = ("ab", "cis", "ks", "main", "bounds", "lifts", "ds", "s4-transitive")

LIFT_SEED = 20250819
LIFT_INSTANCES = 200

# Cayley-integral groups of order <= 12: the abelian families of
# exponent dividing 4 or 6 plus the sporadic non-abelian members.
MAIN_TRUE_12 = frozenset(
    {"Z1", "Z2", "Z3", "Z4", "Z2^2", "Z6", "S3", "Z2^3", "Z4xZ2", "Q8",
     "Z3^2", "Z6xZ2", "Dic12"}
)
MAIN_SPOT: Tuple[Tuple[str, bool], ...] = (
    ("Z2^2xZ4", True),
    ("Z2^4", True),
    ("Q8xZ2", True),
    ("Z3^2xZ2", True),
    ("S3xZ3", False),
    ("SL2_3", False),
    ("Dic12xZ2", False),
    ("S4", False),
)

# Groups whose connected integral Cayley graphs are exactly the
# complete multipartite ones: Z_p, Z_{p^2}, and Z2^2.  Z1 is vacuously
# true under the empty-subset convention.
CIS_TRUE = frozenset(
    {"Z1", "Z2", "Z3", "Z4", "Z2^2", "Z5", "Z7", "Z9", "Z11", "Z25"}
)
CIS_EXTRA = ("Z25", "Z27", "SD(7,3,2)")

KS_EXTRA = ("Z2^4", "Z2^2xZ4", "Z4^2", "Z8xZ2", "Z3^2xZ2", "Z16")

# The five sporadic groups whose every symmetric subset is integral.
SPORADIC_INTEGRAL = ("S3", "Dic12", "Q8", "Q8xZ2", "Q8xZ2^2")

DS_GROUPS = ("S3", "D4", "Q8", "Dic12", "Z8", "Z9", "Z12", "Z6xZ2")

LIFT_POOL_EXTRA = (
    "Z13", "Z14", "Z15", "Z16", "D7", "D8",
    "Z4^2", "Z2^4", "Z2^2xZ4", "Z8xZ2", "Q8xZ2",
)


@dataclass
class VerificationReport:
    suite: str
    ok: bool
    config: dict
    groups: List[dict]
    checks: List[dict]
    wall_time_ms: float = 0.0

    def to_json_dict(self) -> dict:
        return {
            "schema": 1,
            "version": __version__,
            "suite": self.suite,
            "config": self.config,
            "ok": self.ok,
            "groups": self.groups,
            "checks": self.checks,
            "wall_time_ms": round(self.wall_time_ms, 3),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2, ensure_ascii=False) + "\n"

    def human_summary(self) -> str:
        lines = [f"suite {self.suite}: {'PASS' if self.ok else 'FAIL'}"]
        for rec in self.groups:
            mark = "ok" if rec.get("ok") else "MISMATCH"
            holds = rec.get("holds")
            expected = rec.get("expected")
            lines.append(
                f"  {rec['group_expr']:<12} {rec.get('property', ''):<16}"
                f" holds={holds!s:<5} expected={expected!s:<5} {mark}"
            )
        for chk in self.checks:
            mark = "ok" if chk["ok"] else "FAIL"
            lines.append(f"  check {chk['name']}: {mark}")
        return "\n".join(lines)


# Scan results are cached per (label, property, reduce): the bounds
# suite replays the universes of the classification suites, and the
# verdicts are worker-count independent so the key can ignore threads.
_SCAN_MEMO: Dict[Tuple[str, str, bool], GroupVerdict] = {}


def clear_memos() -> None:
    _SCAN_MEMO.clear()


def _scan(label: str, prop: str, reduce_orbits: bool, threads: int) -> GroupVerdict:
    key = (label, prop, reduce_orbits)
    got = _SCAN_MEMO.get(key)
    if got is None:
        got = exhaustive_scan(
            catalog.build_cached(label),
            prop,
            reduce_orbits=reduce_orbits,
            workers=threads,
            witness_limit=None,
        )
        _SCAN_MEMO[key] = got
    return got


def _group_record(
    label: str, prop: str, expected: bool, reduce_orbits: bool, threads: int
) -> dict:
    g = catalog.build_cached(label)
    v = _scan(label, prop, reduce_orbits, threads)
    rec = {
        "group_expr": label,
        "order": g.order,
        "property": prop,
        "expected": expected,
        "holds": v.holds,
        "ok": v.holds == expected,
        "witnesses": [],
        "subsets_enumerated": v.stats.subsets_enumerated,
        "reduced_count": v.stats.reduced_count,
        "integral_count": v.stats.integral_count,
        "nonintegral_count": v.stats.nonintegral_count,
        "wall_time_ms": round(v.stats.wall_time_ms, 3),
    }
    if v.holds is False:
        w = v.least_witness(WITNESS_KIND[prop])
        if w is None:
            rec["ok"] = False  # a violation was counted but no witness found
        else:
            rec["witnesses"] = [
                {"kind": w.kind, "subset": list(w.subset_names), "bits": hex(w.bits)}
            ]
    return rec


def _set_check(name: str, records: Sequence[dict]) -> dict:
    derived = sorted(r["group_expr"] for r in records if r["holds"])
    expected = sorted(r["group_expr"] for r in records if r["expected"])
    return {
        "name": name,
        "ok": derived == expected,
        "detail": {"derived_true": derived, "expected_true": expected},
    }


def _abelian_labels_12() -> List[str]:
    return [expr for expr, g in catalog.catalog_up_to_12() if g.is_abelian]


def _catalog_labels_12() -> List[str]:
    return [expr for expr, _ in catalog.catalog_up_to_12()]


# ---------------------------------------------------------------------------
# suite bodies
# ---------------------------------------------------------------------------


def _p3_witness_check(p: int) -> dict:
    """All of Z_{p^3} except (multiples of p that are not of p^2).

    That subset is integral and generating, yet its complement is not a
    subgroup, so no group containing Z_{p^3} can have the
    complete-multipartite property.
    """
    n = p**3
    g = catalog.build_cached(f"Z{n}")
    removed = {p * i for i in range(1, p * p) if i % p}
    elems = [x for x in range(1, n) if x not in removed]
    s = SymmetricSubset.of(g, elems)
    v = verdict(CayleyGraph(g, s))
    connected = v.integral and v.eigenvalue_multiplicity(len(elems)) == 1
    comp = ((1 << n) - 1) & ~s.bits
    comp_subgroup = is_subgroup(g, comp)
    ok = bool(v.integral and connected and not comp_subgroup)
    return {
        "name": f"p3_witness_p{p}",
        "ok": ok,
        "detail": {
            "group": f"Z{n}",
            "subset_size": len(elems),
            "integral": v.integral,
            "connected": connected,
            "complement_is_subgroup": comp_subgroup,
            "spectrum": None if v.spectrum is None else v.to_json_dict()["spectrum"],
        },
    }


def _suite_ab(reduce_orbits: bool, threads: int) -> Tuple[List[dict], List[dict]]:
    labels = _abelian_labels_12() + ["Z25", "Z27"]
    records = [
        _group_record(lbl, "cis", lbl in CIS_TRUE, reduce_orbits, threads)
        for lbl in labels
    ]
    checks = [
        _set_check("abelian_cis_classification", records),
        _p3_witness_check(2),
        _p3_witness_check(3),
    ]
    return records, checks


def _suite_cis(reduce_orbits: bool, threads: int) -> Tuple[List[dict], List[dict]]:
    labels = _catalog_labels_12() + list(CIS_EXTRA)
    records = [
        _group_record(lbl, "cis", lbl in CIS_TRUE, reduce_orbits, threads)
        for lbl in labels
    ]
    witnessed = [
        r["group_expr"]
        for r in records
        if r["holds"] is False and r["witnesses"]
    ]
    checks = [
        _set_check("cis_classification", records),
        {
            "name": "witnesses_recorded_for_all_failures",
            "ok": all(r["witnesses"] for r in records if r["holds"] is False),
            "detail": {"witnessed": witnessed},
        },
    ]
    return records, checks


def _abelian_family_member(g: FiniteGroup) -> bool:
    """Member of one of the two abelian Cayley-integral families.

    Exponent dividing 4 covers Z2^n x Z4^m; exponent dividing 6 covers
    Z2^n x Z3^m (abelian of squarefree-smooth exponent splits that way).
    """
    if not g.is_abelian:
        return False
    e = g.exponent()
    return 4 % e == 0 or 6 % e == 0


def _suite_ks(reduce_orbits: bool, threads: int) -> Tuple[List[dict], List[dict]]:
    labels = _abelian_labels_12() + list(KS_EXTRA)
    records = []
    for lbl in labels:
        g = catalog.build_cached(lbl)
        expected = _abelian_family_member(g)
        rec = _group_record(lbl, "cayley_integral", expected, reduce_orbits, threads)
        rec["family_member"] = expected
        records.append(rec)
    checks = [_set_check("abelian_integral_families", records)]
    return records, checks


def _suite_main(reduce_orbits: bool, threads: int) -> Tuple[List[dict], List[dict]]:
    records = [
        _group_record(lbl, "cayley_integral", lbl in MAIN_TRUE_12, reduce_orbits, threads)
        for lbl in _catalog_labels_12()
    ]
    spot = [
        _group_record(lbl, "cayley_integral", expected, reduce_orbits, threads)
        for lbl, expected in MAIN_SPOT
    ]
    checks = [
        _set_check("integral_classification_order_le_12", records),
        _set_check("integral_spot_checks", spot),
    ]
    return records + spot, checks


def _bounds_universe() -> List[str]:
    seen = []
    for lbl in (
        list(SPORADIC_INTEGRAL[:-1])
        + _catalog_labels_12()
        + [lbl for lbl, _ in MAIN_SPOT]
        + _abelian_labels_12()
        + list(KS_EXTRA)
        + list(CIS_EXTRA)
    ):
        if lbl not in seen:
            seen.append(lbl)
    return seen


def _suite_bounds(reduce_orbits: bool, threads: int) -> Tuple[List[dict], List[dict]]:
    records = []
    weak_checked = weak_bad = strong_checked = strong_bad = 0
    perfect_labels: List[str] = []
    nontrivial_perfect: List[str] = []
    for lbl in _bounds_universe():
        g = catalog.build_cached(lbl)
        v = _scan(lbl, "cayley_integral", reduce_orbits, threads)
        st = v.stats
        weak_checked += st.bound_checked
        weak_bad += st.bound_weak_violations
        strong_checked += st.bound_strong_checked
        strong_bad += st.bound_strong_violations
        perfect = is_perfect(g)
        if perfect:
            perfect_labels.append(lbl)
            if g.order > 1:
                nontrivial_perfect.append(lbl)
        holds = st.bound_weak_violations == 0 and st.bound_strong_violations == 0
        records.append(
            {
                "group_expr": lbl,
                "order": g.order,
                "property": "divisibility_bound",
                "expected": True,
                "holds": holds,
                "ok": holds,
                "witnesses": [],
                "subsets_enumerated": st.subsets_enumerated,
                "reduced_count": st.reduced_count,
                "bound_checked": st.bound_checked,
                "bound_weak_violations": st.bound_weak_violations,
                "bound_strong_checked": st.bound_strong_checked,
                "bound_strong_violations": st.bound_strong_violations,
                "perfect": perfect,
                "wall_time_ms": round(st.wall_time_ms, 3),
            }
        )
    checks = [
        {
            "name": "weak_bound_zero_violations",
            "ok": weak_bad == 0,
            "detail": {"graphs_checked": weak_checked, "violations": weak_bad},
        },
        {
            "name": "strong_bound_zero_violations",
            "ok": strong_bad == 0,
            "detail": {"graphs_checked": strong_checked, "violations": strong_bad},
        },
        {
            "name": "perfect_branch_trivial_only",
            "ok": not nontrivial_perfect,
            "detail": {
                "perfect_groups_encountered": perfect_labels,
                "nontrivial_perfect": nontrivial_perfect,
                "note": "only the trivial group in this universe equals its "
                "own derived subgroup; the perfect branch of the strong "
                "bound is exercised nowhere else",
            },
        },
    ]
    return records, checks


# -- lifts ------------------------------------------------------------------
# A draw takes one instance of a lift identity from rng and returns (needs,
# check): the (group, mask) pairs whose char polys the identity relates,
# and a predicate on those char polys.  _suite_lifts draws every instance
# first, then takes all char polys from one engine batch per group.  The
# caches below hold at most one entry per pool group and subgroup.


def _random_symmetric_bits(g: FiniteGroup, inside: int, rng: random.Random) -> int:
    """Random union of inverse-closed cells drawn from `inside`."""
    bits = 0
    seen = 0
    for x in _bits_of(inside):
        if x == g.identity or seen >> x & 1:
            continue
        cell = (1 << x) | (1 << g.inv(x))
        seen |= cell
        if rng.randrange(2):
            bits |= cell
    return bits


@lru_cache(maxsize=None)
def _subgroups(label: str) -> Tuple[tuple, tuple]:
    """(2-generated subgroups, the normal ones among them) of a catalog group, as masks."""
    g = catalog.build_cached(label)
    masks = tuple(subgroups_up_to_two_generators(g))
    return masks, tuple(m for m in masks if is_normal(g, m))


@lru_cache(maxsize=None)
def _section(build, label: str, mask: int) -> tuple:
    """subgroup_group or quotient of a catalog group, built once per (label, mask)."""
    return build(catalog.build_cached(label), mask)


def _draw_subgroup(rng: random.Random, label: str) -> tuple:
    """T = S + (G - H): chi_T (x - k)^m = chi_S^m (x - k - h(m-1)) (x - k + h)^(m-1),
    where k = |S|, h = |H| and m = [G:H]."""
    g = catalog.build_cached(label)
    h_mask = rng.choice(_subgroups(label)[0])
    s = SymmetricSubset(g, _random_symmetric_bits(g, h_mask, rng))
    t = lift_from_subgroup(g, ElementSubset(g, h_mask), s)
    sub, embed = _section(subgroup_group, label, h_mask)
    s_sub = sum(1 << i for i, x in enumerate(embed) if s.bits >> x & 1)
    k, h, m, lin = len(s), len(embed), g.order // len(embed), IntPolynomial.x_minus

    def check(chi_t: IntPolynomial, chi_s: IntPolynomial) -> bool:
        return chi_t * lin(k) ** m == chi_s**m * lin(k + h * (m - 1)) * lin(k - h) ** (m - 1)

    return ((g, t.bits), (sub, s_sub)), check


def _via_quotient(g: FiniteGroup, n_mask: int, proj: tuple, sbar: SymmetricSubset):
    return lift_from_quotient(g, ElementSubset(g, n_mask), sbar)


def _via_preimage(g: FiniteGroup, n_mask: int, proj: tuple, sbar: SymmetricSubset):
    """lift_preimage's T, or None where lift_from_quotient's differs."""
    t = lift_preimage(g, proj, sbar)
    return t if t == _via_quotient(g, n_mask, proj, sbar) else None


def _draw_quotient(rng: random.Random, label: str, lift) -> tuple:
    """T = lift(G, N, projection, S-bar) for S-bar in G/N:
    chi_T(x) = x^(|G| - |G/N|) |N|^|G/N| chi_Q(x / |N|)."""
    g = catalog.build_cached(label)
    n_mask = rng.choice(_subgroups(label)[1])
    qgroup, proj = _section(quotient, label, n_mask)
    sbar = SymmetricSubset(qgroup, _random_symmetric_bits(qgroup, (1 << qgroup.order) - 1, rng))
    t = lift(g, n_mask, proj, sbar)
    if t is None:
        return (), lambda: False
    nn, pad = n_mask.bit_count(), g.order - qgroup.order

    def check(chi_t: IntPolynomial, chi_q: IntPolynomial) -> bool:
        return chi_t == chi_q.scale_roots(nn).shift_by_x_power(pad)

    return ((g, t.bits), (qgroup, sbar.bits)), check


def _draw_union(rng: random.Random, pair: Tuple[str, str]) -> tuple:
    """Cay(G1 x G2, T) has adjacency A1 (x) I + I (x) A2; needs no char poly."""
    g1, g2 = (catalog.build_cached(lbl) for lbl in pair)
    s1 = SymmetricSubset(g1, _random_symmetric_bits(g1, (1 << g1.order) - 1, rng))
    s2 = SymmetricSubset(g2, _random_symmetric_bits(g2, (1 << g2.order) - 1, rng))
    prod, t = union_product_subset(g1, g2, s1, s2)
    a1 = CayleyGraph(g1, s1).adjacency_matrix()
    a2 = CayleyGraph(g2, s2).adjacency_matrix()
    want = a1.kron(IntMatrix.identity(g2.order)) + IntMatrix.identity(g1.order).kron(a2)
    same = CayleyGraph(prod, t).adjacency_matrix() == want
    return (), lambda: same


def _suite_lifts(reduce_orbits: bool, threads: int) -> Tuple[List[dict], List[dict]]:
    rng = random.Random(LIFT_SEED)
    pool = _catalog_labels_12() + list(LIFT_POOL_EXTRA)
    # keep the direct products small: each pair drawn builds its own
    order = {lbl: catalog.build_cached(lbl).order for lbl in pool}
    pairs = [(a, b) for a in pool for b in pool if order[a] * order[b] <= 36]
    table = (
        ("lift_from_subgroup", _draw_subgroup, pool),
        ("lift_from_quotient", partial(_draw_quotient, lift=_via_quotient), pool),
        ("lift_preimage", partial(_draw_quotient, lift=_via_preimage), pool),
        ("union_product_subset", _draw_union, pairs),
    )
    drawn = [
        (name, [draw(rng, rng.choice(choices)) for _ in range(LIFT_INSTANCES)])
        for name, draw, choices in table
    ]
    wanted: Dict[FiniteGroup, set] = {}
    for grp, mask in (x for _, instances in drawn for needs, _ in instances for x in needs):
        wanted.setdefault(grp, set()).add(mask)
    chi = {}
    for grp, masks in wanted.items():
        chi.update(zip([(grp, m) for m in masks], engine_for(grp).char_polys(list(masks))))
    checks = []
    for name, instances in drawn:
        failures = [
            i for i, (needs, check) in enumerate(instances) if not check(*[chi[x] for x in needs])
        ]
        detail = {"instances": LIFT_INSTANCES, "seed": LIFT_SEED, "failed_instances": failures[:10]}
        checks.append({"name": name, "ok": not failures, "detail": detail})
    return [], checks


def _suite_ds(reduce_orbits: bool, threads: int) -> Tuple[List[dict], List[dict]]:
    records = []
    for lbl in DS_GROUPS:
        g = catalog.build_cached(lbl)
        system = system_for(lbl)
        subsets = list(symmetric_subsets(g))
        chis = engine_for(g).char_polys([s.bits for s in subsets])
        rep_polys = list(zip(*(rep_char_polys(r, subsets) for r in system.reps)))
        union_ok = all(union_holds(system, ps, chi) for ps, chi in zip(rep_polys, chis))
        repint_ok = all(
            all(roots_integral(p, len(s)) for p in ps) == roots_integral(chi, len(s))
            for s, ps, chi in zip(subsets, rep_polys, chis)
        )
        records.append(
            {
                "group_expr": lbl,
                "order": g.order,
                "property": "ds_union",
                "expected": True,
                "holds": union_ok and repint_ok,
                "ok": union_ok and repint_ok,
                "witnesses": [],
                "subsets_enumerated": len(subsets),
                "reduced_count": len(subsets),
                "union_ok": union_ok,
                "rep_integrality_matches": repint_ok,
                "degrees": list(system.degrees),
            }
        )
    return records, []


def _orbit_transitive(perms: Sequence[Tuple[int, ...]], degree: int) -> bool:
    reach = {0}
    frontier = [0]
    while frontier:
        nxt = []
        for p in perms:
            for x in frontier:
                y = p[x]
                if y not in reach:
                    reach.add(y)
                    nxt.append(y)
        frontier = nxt
    return len(reach) == degree


def _suite_s4(reduce_orbits: bool, threads: int) -> Tuple[List[dict], List[dict]]:
    g = catalog.build_cached("S4")
    perms = catalog.permutations_of(g)
    masks = sorted(subgroups_up_to_two_generators(g))
    # closing under one extra generator from any member certifies that
    # the 2-generated family already contains every subgroup
    mask_set = set(masks)
    complete = all(
        closure(g, m | (1 << a)).bits in mask_set
        for m in masks
        for a in g.elements()
    )
    records = []
    ci_transitive = []
    for m in masks:
        members = [x for x in g.elements() if m >> x & 1]
        sub, _embed = subgroup_group(g, m)
        v = exhaustive_scan(
            sub, "cayley_integral", reduce_orbits=reduce_orbits,
            workers=1, witness_limit=None,
        )
        transitive = _orbit_transitive([perms[x] for x in members], 4)
        if v.holds and transitive:
            ci_transitive.append(m)
        records.append(
            {
                "group_expr": f"S4 subgroup {hex(m)}",
                "order": len(members),
                "property": "cayley_integral",
                "elements": [g.name_of(x) for x in members],
                "holds": v.holds,
                "transitive": transitive,
                "expected": None,
                "ok": True,
                "witnesses": [],
                "subsets_enumerated": v.stats.subsets_enumerated,
                "reduced_count": v.stats.reduced_count,
                "wall_time_ms": round(v.stats.wall_time_ms, 3),
            }
        )
    order4 = all(m.bit_count() == 4 for m in ci_transitive)
    checks = [
        {
            "name": "subgroup_enumeration_complete",
            "ok": complete and len(masks) == 30,
            "detail": {"subgroup_count": len(masks), "closure_stable": complete},
        },
        {
            "name": "integral_transitive_implies_order_4",
            "ok": order4,
            "detail": {
                "integral_transitive_orders": sorted(
                    m.bit_count() for m in ci_transitive
                ),
            },
        },
        {
            "name": "integral_transitive_subgroup_exists",
            "ok": bool(ci_transitive),
            "detail": {"count": len(ci_transitive)},
        },
    ]
    return records, checks


_SUITES = {
    "ab": _suite_ab,
    "cis": _suite_cis,
    "ks": _suite_ks,
    "main": _suite_main,
    "bounds": _suite_bounds,
    "lifts": _suite_lifts,
    "ds": _suite_ds,
    "s4-transitive": _suite_s4,
}


def run_suite(
    name: str, *, reduce_orbits: bool = True, threads: int = 1
) -> VerificationReport:
    if name not in _SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {SUITE_NAMES}")
    t0 = time.monotonic()
    records, checks = _SUITES[name](reduce_orbits, threads)
    ok = all(r["ok"] for r in records) and all(c["ok"] for c in checks)
    return VerificationReport(
        suite=name,
        ok=ok,
        config={"threads": threads, "reduce": reduce_orbits},
        groups=records,
        checks=checks,
        wall_time_ms=(time.monotonic() - t0) * 1000.0,
    )
