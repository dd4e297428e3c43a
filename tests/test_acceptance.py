"""Ten pinned end-to-end expectations.

Each test prints one `[criterion k] PASS/FAIL` line straight to the
terminal (bypassing capture) so a full run reads as a checklist.  Time
budgets are asserted on the reports' own wall-clock fields where the
computation is shared through session fixtures.
"""

import math
import time
from contextlib import contextmanager

from cayley_spectra import catalog
from cayley_spectra.cayley import CayleyGraph, SymmetricSubset
from cayley_spectra.groups import is_subgroup
from cayley_spectra.integrality import verdict
from cayley_spectra.intlinalg import (
    IntPolynomial,
    annihilator_product_oracle,
    integer_root_split,
)
from cayley_spectra.search import exhaustive_scan, symmetric_subsets

SQRT2 = math.sqrt(2.0)
SQRT3 = math.sqrt(3.0)
SQRT17 = math.sqrt(17.0)
TOL = 1e-9


@contextmanager
def _criterion(capsys, k):
    t0 = time.monotonic()
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"\n[criterion {k}] FAIL")
        raise
    with capsys.disabled():
        print(f"\n[criterion {k}] PASS ({time.monotonic() - t0:.1f}s)")


def _graph(label, names):
    g = catalog.build_cached(label)
    return CayleyGraph(g, SymmetricSubset.from_names(g, names))


def _evidence_matches(evidence, targets):
    """Every observed non-integer eigenvalue sits on a target and
    every target is observed."""
    if not evidence:
        return False
    for x in evidence:
        if min(abs(x - t) for t in targets) > TOL:
            return False
    for t in targets:
        if min(abs(x - t) for x in evidence) > TOL:
            return False
    return True


# 1 -------------------------------------------------------------------------

NONINTEGRAL_WITNESSES = [
    ("D4", ["x", "xy"], (-SQRT2, SQRT2)),
    ("D6", ["x", "xy"], (-SQRT3, SQRT3)),
    ("A4", ["(13)(24)", "(14)(23)", "(123)", "(132)"],
     ((-1 - SQRT17) / 2, (-1 + SQRT17) / 2)),
    ("S3xZ3", ["(12).1", "(12).2", "(13).0"], (-SQRT3, SQRT3)),
    ("E9", ["xz", "z", "yz"], (-SQRT3, SQRT3)),
    ("Q8xZ4", ["i.1", "-i.3", "j.1", "-j.3"], (-2 * SQRT2, 2 * SQRT2)),
]


def test_criterion_01_witness_eigenvalues(capsys):
    with _criterion(capsys, 1):
        t0 = time.monotonic()
        for label, names, targets in NONINTEGRAL_WITNESSES:
            v = verdict(_graph(label, names))
            assert v.integral is False, label
            assert _evidence_matches(v.float_evidence, targets), label
        # the A4 witness char poly factors as integer roots times an
        # irreducible quadratic cubed
        a4 = _graph("A4", ["(13)(24)", "(14)(23)", "(123)", "(132)"])
        roots, rest = integer_root_split(a4.adjacency_matrix().char_poly(), range(-4, 5))
        assert roots == {4: 1, 1: 2, -1: 3}
        assert rest == IntPolynomial.of([-4, 1, 1]) ** 3
        assert time.monotonic() - t0 < 1.0


# 2 -------------------------------------------------------------------------


def test_criterion_02_sporadic_groups_fully_enumerated(capsys, q8z22_scan):
    with _criterion(capsys, 2):
        small = [("S3", 16), ("Q8", 16), ("Dic12", 64), ("Q8xZ2", 512)]
        for label, count in small:
            g = catalog.build_cached(label)
            gv = exhaustive_scan(
                g, "cayley_integral",
                reduce_orbits=False, workers=1, witness_limit=None,
            )
            assert gv.holds is True and gv.exhausted, label
            assert gv.stats.subsets_enumerated == count, label
            assert gv.stats.integral_count == count, label
            assert gv.stats.wall_time_ms < 1000.0, label
        big = q8z22_scan
        assert big.group_label == "Q8xZ2^2"
        assert big.holds is True and big.exhausted
        assert big.stats.subsets_enumerated == 2**19
        # conjugation fixes every inverse-pair cell here, so reduction
        # removes nothing and the scan is honestly exhaustive
        assert big.stats.reduced_count == 2**19
        assert big.stats.integral_count == 2**19
        assert big.stats.nonintegral_count == 0
        assert big.stats.wall_time_ms <= 15 * 60 * 1000.0


# 3 -------------------------------------------------------------------------

INTEGRAL_LE_12 = sorted([
    "Z1", "Z2", "Z3", "Z4", "Z2^2", "Z6", "S3", "Z2^3", "Z4xZ2", "Q8",
    "Z3^2", "Z6xZ2", "Dic12",
])


def test_criterion_03_classification_order_le_12(capsys, suite_report):
    with _criterion(capsys, 3):
        rep = suite_report("main")
        assert rep.ok
        chk = {c["name"]: c for c in rep.checks}
        assert chk["integral_classification_order_le_12"]["ok"]
        assert (
            chk["integral_classification_order_le_12"]["detail"]["derived_true"]
            == INTEGRAL_LE_12
        )
        assert chk["integral_spot_checks"]["ok"]
        assert chk["integral_spot_checks"]["detail"]["derived_true"] == sorted(
            ["Z2^2xZ4", "Z2^4", "Q8xZ2", "Z3^2xZ2"]
        )
        by_group = {r["group_expr"]: r for r in rep.groups}
        for label in ("D4", "Z8", "Z12", "A4", "D6"):
            assert by_group[label]["holds"] is False, label
        for label in ("S3xZ3", "SL2_3", "Dic12xZ2", "S4"):
            assert by_group[label]["holds"] is False, label
        assert rep.wall_time_ms <= 120_000.0


# 4 -------------------------------------------------------------------------

CIS_NONTRIVIAL = sorted(["Z2", "Z3", "Z4", "Z2^2", "Z5", "Z7", "Z9", "Z11", "Z25"])
NON_CIS_WITNESSED = [
    "Z8", "Z27", "Z2^3", "Z6", "Z12", "D4", "Q8", "A4", "SD(7,3,2)",
]


def test_criterion_04_cis_classification(capsys, suite_report):
    with _criterion(capsys, 4):
        cis = suite_report("cis")
        ab = suite_report("ab")
        assert cis.ok and ab.ok
        by_group = {r["group_expr"]: r for r in cis.groups}
        derived = sorted(
            lbl for lbl, r in by_group.items()
            if r["holds"] and catalog.build_cached(lbl).order > 1
        )
        assert derived == CIS_NONTRIVIAL
        # the trivial group passes by convention (no generating subset
        # exists to violate anything)
        assert by_group["Z1"]["holds"] is True
        for label in NON_CIS_WITNESSED:
            rec = by_group[label]
            assert rec["holds"] is False, label
            assert rec["witnesses"], label
        chk = {c["name"]: c for c in ab.checks}
        assert chk["p3_witness_p2"]["ok"] and chk["p3_witness_p3"]["ok"]
        for p in (2, 3):
            detail = chk[f"p3_witness_p{p}"]["detail"]
            assert detail["integral"] and detail["connected"]
            assert detail["complement_is_subgroup"] is False
        assert cis.wall_time_ms + ab.wall_time_ms <= 120_000.0


# 5 -------------------------------------------------------------------------


def test_criterion_05_divisibility_bounds(capsys, suite_report, q8z22_scan):
    with _criterion(capsys, 5):
        rep = suite_report("bounds")
        assert rep.ok
        chk = {c["name"]: c for c in rep.checks}
        weak = chk["weak_bound_zero_violations"]["detail"]
        strong = chk["strong_bound_zero_violations"]["detail"]
        assert weak["graphs_checked"] > 10_000 and weak["violations"] == 0
        assert strong["graphs_checked"] > 1_000 and strong["violations"] == 0
        perfect = chk["perfect_branch_trivial_only"]
        assert perfect["ok"]
        assert perfect["detail"]["perfect_groups_encountered"] == ["Z1"]
        assert perfect["detail"]["nontrivial_perfect"] == []
        # the order-32 scan tracks the same bound on half a million graphs
        assert q8z22_scan.stats.bound_checked > 500_000
        assert q8z22_scan.stats.bound_weak_violations == 0
        assert q8z22_scan.stats.bound_strong_violations == 0


# 6 -------------------------------------------------------------------------


def test_criterion_06_lift_formulas(capsys, suite_report):
    with _criterion(capsys, 6):
        rep = suite_report("lifts")
        assert rep.ok
        names = {c["name"] for c in rep.checks}
        assert names == {
            "lift_from_subgroup",
            "lift_from_quotient",
            "lift_preimage",
            "union_product_subset",
        }
        for c in rep.checks:
            assert c["ok"]
            assert c["detail"]["instances"] == 200
            assert c["detail"]["failed_instances"] == []
        assert rep.wall_time_ms <= 60_000.0


# 7 -------------------------------------------------------------------------


def test_criterion_07_three_way_oracle_agreement(capsys, catalog_12):
    with _criterion(capsys, 7):
        t0 = time.monotonic()
        subsets_seen = 0
        for _expr, g in catalog_12:
            for s in symmetric_subsets(g):
                graph = CayleyGraph(g, s)
                by_charpoly = verdict(graph, method="charpoly")
                by_rank = verdict(graph, method="rank")
                by_annihilator = annihilator_product_oracle(
                    graph.adjacency_matrix(), graph.degree
                )
                assert by_charpoly.integral == by_rank.integral == by_annihilator
                if by_charpoly.integral:
                    assert by_charpoly.spectrum == by_rank.spectrum
                subsets_seen += 1
        assert subsets_seen == 1429
        assert time.monotonic() - t0 <= 300.0


# 8 -------------------------------------------------------------------------


def test_criterion_08_spectral_union_property(capsys, suite_report):
    with _criterion(capsys, 8):
        rep = suite_report("ds")
        assert rep.ok
        covered = {r["group_expr"] for r in rep.groups}
        assert {"S3", "D4", "Q8", "Dic12"} <= covered
        assert all(r["ok"] for r in rep.groups)
        assert rep.wall_time_ms <= 60_000.0


# 9 -------------------------------------------------------------------------


def test_criterion_09_s4_transitive_subgroups(capsys, suite_report):
    with _criterion(capsys, 9):
        rep = suite_report("s4-transitive")
        assert rep.ok
        chk = {c["name"]: c for c in rep.checks}
        assert chk["subgroup_enumeration_complete"]["ok"]
        assert chk["subgroup_enumeration_complete"]["detail"]["subgroup_count"] == 30
        orders = chk["integral_transitive_implies_order_4"]["detail"][
            "integral_transitive_orders"
        ]
        assert orders and set(orders) == {4}
        assert chk["integral_transitive_subgroup_exists"]["ok"]
        assert rep.wall_time_ms <= 60_000.0


# 10 ------------------------------------------------------------------------


def test_criterion_10_semidirect_factor_witness(capsys):
    with _criterion(capsys, 10):
        t0 = time.monotonic()
        g = catalog.build_cached("SD(7,3,2)")
        s = SymmetricSubset.from_names(
            g, ["x", "x2", "y", "y2", "y3", "y4", "y5", "y6"]
        )
        v = verdict(CayleyGraph(g, s))
        assert v.integral
        assert v.spectrum == {8: 1, 5: 2, 1: 6, -2: 12}
        assert set(v.spectrum) <= {-2, 1, 5, 8}
        comp = ((1 << g.order) - 1) & ~s.bits
        assert not is_subgroup(g, comp)
        assert time.monotonic() - t0 < 1.0
