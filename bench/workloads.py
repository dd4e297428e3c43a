"""The benchmark's workloads: set-up, inputs, the timed operations, checks.

A workload drives cayley_spectra only through its call boundaries.
Its inputs come from the seed; its outputs are checked against the
reference computations in checkers.py and, on a seeded sample, against
the program's exact rank oracle (``verdict(c, method="rank")``:
Bareiss elimination, no char-poly code).

An operation is one scan pass, one suite or one verdict.  ``round(r)``
gives the operations of round r; every run attempts whole rounds.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Any, Dict, List

from calibration import BULK, SMALL
from checkers import (
    GroupFacts,
    bits_of,
    cayley_integral_by_classification,
    integral_subset_count_abelian,
    power_sum_problems,
)

SCAN_GROUP = "Q8xZ2^2"
# 2^12 counters: the first 12 of the 19 cells (7 involutions, 5 pairs),
# mean degree 8.5 against 15.5 over the full 2^19 range.
SCAN_PREFIX = 4096

SUITES = ("main", "cis", "bounds")

# Orders 8..64, abelian and not; the last five are above the scan cap.
VERDICT_SMALL = (
    "Z8", "Z4xZ2", "Z12", "Z16", "Z2^4", "Z3^2xZ2", "Z27", "Z2^5",
    "D4", "Q8", "A4", "Dic12", "D8", "SD(7,3,2)", "S3xZ3", "SL2_3", "S4",
    "Dic12xZ2", "Q8xZ2", "Q8xZ2^2",
)
VERDICT_LARGE = ("Z2^6", "Z4^3", "Z8^2", "Z3^3xZ2", "Q8xZ2^3")
# per round and per group: subsets drawn as unions of rational classes
# (always integral) and as unions of random cells (mostly not)
VERDICT_PER_KIND = {**{g: 2 for g in VERDICT_SMALL}, **{g: 1 for g in VERDICT_LARGE}}
VERDICT_MIN_OPS = 1000  # so the 99th percentile has ten samples beyond it
RANK_SAMPLE_RATE = 8  # verdicts per rank-oracle re-check, on average


@dataclass(frozen=True)
class Op:
    name: str  # span name
    arg: Any


def _program():
    import cayley_spectra
    from cayley_spectra import catalog, integrality, search, suites

    return cayley_spectra, catalog, integrality, search, suites


class Workload:
    name = ""
    min_ops = 1
    parallel_op = None  # two-worker form of the operation, if any
    request_is_round = False  # latency is per round, not per operation
    calibration = BULK  # the loop that follows this workload's timings

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.rng = random.Random(f"check:{seed}")
        self._facts: Dict[str, GroupFacts] = {}

    def setup(self) -> None:
        """Program set-up before the first timed operation."""
        self.cs, self.catalog, self.integrality, self.search, self.suites = _program()
        for label in self.labels():
            group = self.catalog.build_cached(label)
            family = self.search.SubsetFamily.of(group)
            family.conjugation_cell_perms()
            self.integrality.engine_for(group)

    def labels(self) -> List[str]:
        raise NotImplementedError

    def round(self, r: int) -> List[Op]:
        raise NotImplementedError

    def run(self, op: Op) -> Any:
        raise NotImplementedError

    def subsets(self, op: Op, out: Any) -> int:
        """Subsets the operation decided."""
        raise NotImplementedError

    def check(self, op: Op, out: Any) -> List[str]:
        raise NotImplementedError

    def single_process(self, op: Op) -> Op:
        """The operation as the single-process traced run repeats it."""
        return op

    # -- shared helpers ---------------------------------------------------

    def facts(self, label: str) -> GroupFacts:
        got = self._facts.get(label)
        if got is None:
            got = self._facts[label] = GroupFacts(self.catalog.build_cached(label).table)
        return got

    def rank_verdict(self, label: str, bits: int):
        g = self.catalog.build_cached(label)
        c = self.cs.CayleyGraph(g, self.cs.SymmetricSubset(g, bits))
        return self.cs.verdict(c, method="rank")

    def exact_integral(self, label: str, bits: int) -> bool:
        """Integrality decided apart from the char-poly engine."""
        f = self.facts(label)
        if f.abelian:
            return f.is_union_of_atoms(bits)
        if cayley_integral_by_classification(f):
            return True
        return self.rank_verdict(label, bits).integral


class Scan(Workload):
    """exhaustive_scan of a fixed counter prefix of Q8xZ2^2, tally mode."""

    name = "scan-q8z22"
    workers = 1
    min_ops = 4  # a pass takes 5-8 s; four per run average out one pass's drift
    parallel_op = Op("scan.pass", 2)

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self._expected: Dict[str, int] = {}

    def labels(self) -> List[str]:
        return [SCAN_GROUP]

    def round(self, r: int) -> List[Op]:
        return [Op("scan.pass", self.workers)]

    def single_process(self, op: Op) -> Op:
        return Op("scan.pass", 1)

    def run(self, op: Op) -> Any:
        return self.search.exhaustive_scan(
            self.catalog.build_cached(SCAN_GROUP),
            "cayley_integral",
            workers=op.arg,
            witness_limit=None,
            max_counters=SCAN_PREFIX,
        )

    def subsets(self, op: Op, out: Any) -> int:
        return out.stats.subsets_enumerated

    def expected_stats(self) -> Dict[str, int]:
        """Every ScanStats field but wall_time_ms, from the table alone.

        Q8 x Z2^2 is Cayley-integral, so every subset is integral and the
        bound applies exactly to the generating subsets.
        """
        if self._expected:
            return self._expected
        f = self.facts(SCAN_GROUP)
        if not cayley_integral_by_classification(f):
            raise AssertionError(f"{SCAN_GROUP} is not Cayley-integral by the classification")
        cells = f.cells()
        trivial = 1 << f.e
        full = (1 << f.n) - 1
        odd, perfect = f.odd_order_mask(), f.is_perfect()
        gen = [trivial] * SCAN_PREFIX
        checked = weak_bad = strong_checked = strong_bad = 0
        for c in range(SCAN_PREFIX):
            mask = sum(cells[i] for i in bits_of(c))
            if c:
                low = (c & -c).bit_length() - 1
                gen[c] = f.join(gen[c & (c - 1)], cells[low])
            if gen[c] != full:
                continue
            k = mask.bit_count()
            base = math.factorial(2 * k - 1) if k >= 1 else 1
            checked += 1
            weak_bad += (2 * base) % f.n != 0
            if perfect or mask & odd:
                strong_checked += 1
                strong_bad += base % f.n != 0
        self._expected = {
            "subsets_enumerated": SCAN_PREFIX,
            "reduced_count": SCAN_PREFIX,
            "integral_count": SCAN_PREFIX,
            "nonintegral_count": 0,
            "property_violations": 0,
            "bound_checked": checked,
            "bound_weak_violations": weak_bad,
            "bound_strong_checked": strong_checked,
            "bound_strong_violations": strong_bad,
        }
        return self._expected

    def check(self, op: Op, out: Any) -> List[str]:
        problems = []
        got = out.stats.to_json_dict()
        got.pop("wall_time_ms", None)
        want = self.expected_stats()
        if got != want:
            problems.append(f"workers={op.arg}: stats {got} != expected {want}")
        if out.holds is not None or out.exhausted is not False:
            problems.append(f"cut-short scan gave holds={out.holds} exhausted={out.exhausted}")
        if out.witnesses:
            problems.append(f"tally scan materialised {len(out.witnesses)} witnesses")
        cells = self.facts(SCAN_GROUP).cells()
        for _ in range(2):
            c = self.rng.randrange(SCAN_PREFIX)
            bits = sum(cells[i] for i in bits_of(c))
            v = self.rank_verdict(SCAN_GROUP, bits)
            if not v.integral:
                problems.append(f"rank oracle: counter {c} is not integral")
            else:
                problems += power_sum_problems(self.facts(SCAN_GROUP), bits, v.spectrum)
        return problems


class Scan2(Scan):
    name = "scan2-q8z22"
    workers = 2


class Suites(Workload):
    """run_suite main, cis and bounds in one process, memos shared."""

    name = "suites"
    request_is_round = True  # the battery, as scripts/run_verification.py runs it

    def labels(self) -> List[str]:
        labels = [expr for expr, _ in self.catalog.catalog_up_to_12()]
        labels += [lbl for lbl, _ in getattr(self.suites, "MAIN_SPOT", ())]
        for extra in ("CIS_EXTRA", "KS_EXTRA", "SPORADIC_INTEGRAL"):
            labels += list(getattr(self.suites, extra, ()))
        return list(dict.fromkeys(labels))

    def round(self, r: int) -> List[Op]:
        return [Op(f"suites.{name}", name) for name in SUITES]

    def run(self, op: Op) -> Any:
        if op.arg == SUITES[0]:
            self.suites.clear_memos()  # each round recomputes every scan
        return self.suites.run_suite(op.arg, threads=1)

    def subsets(self, op: Op, out: Any) -> int:
        return sum(rec.get("subsets_enumerated", 0) for rec in out.groups)

    def check(self, op: Op, out: Any) -> List[str]:
        problems = [] if out.ok else [f"suite {op.arg} reports ok=False"]
        for rec in out.groups:
            label = rec["group_expr"]
            f = self.facts(label)
            if f.abelian and "integral_count" in rec:
                want = integral_subset_count_abelian(f)
                if rec["integral_count"] != want:
                    problems.append(f"{label}: integral_count {rec['integral_count']} != 2^(c-1) = {want}")
            if rec.get("property") == "cayley_integral":
                want = cayley_integral_by_classification(f)
                if rec["holds"] is not want:
                    problems.append(f"{label}: holds={rec['holds']} but classification says {want}")
            for w in rec.get("witnesses", ()):
                problems += self._witness_problems(label, w)
        return problems

    def _witness_problems(self, label: str, w: dict) -> List[str]:
        f = self.facts(label)
        bits = int(w["bits"], 16)
        integral = self.exact_integral(label, bits)
        if f.abelian and self.rng.randrange(2):
            if self.rank_verdict(label, bits).integral != integral:
                return [f"{label}: rank oracle and atom criterion disagree on {w['bits']}"]
        if w["kind"] == "nonintegral":
            return [] if not integral else [f"{label}: witness {w['bits']} is integral"]
        full = (1 << f.n) - 1
        out = []
        if not integral:
            out.append(f"{label}: witness {w['bits']} is not integral")
        if f.generated(bits) != full:
            out.append(f"{label}: witness {w['bits']} does not generate")
        if f.is_subgroup(full & ~bits):
            out.append(f"{label}: complement of {w['bits']} is a subgroup")
        return out


class VerdictSingle(Workload):
    """A seeded stream of symmetric subsets, one public verdict() each."""

    name = "verdict-single"
    min_ops = VERDICT_MIN_OPS
    calibration = SMALL  # a verdict's numpy work is on length-1 arrays

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self._classes: Dict[str, List[int]] = {}

    def labels(self) -> List[str]:
        return list(VERDICT_PER_KIND)

    def round(self, r: int) -> List[Op]:
        rng = random.Random(f"verdict:{self.seed}:{r}")
        ops = []
        for label, per_kind in VERDICT_PER_KIND.items():
            f = self.facts(label)
            classes = self._classes.get(label)
            if classes is None:
                classes = self._classes[label] = f.rational_classes()
            cells = f.cells()
            for _ in range(per_kind):
                ops.append(Op("verdict", (label, sum(c for c in classes if rng.randrange(2)))))
                ops.append(Op("verdict", (label, sum(c for c in cells if rng.randrange(2)))))
        rng.shuffle(ops)
        return ops

    def run(self, op: Op) -> Any:
        label, bits = op.arg
        g = self.catalog.build_cached(label)
        return self.cs.verdict(self.cs.CayleyGraph(g, self.cs.SymmetricSubset(g, bits)))

    def subsets(self, op: Op, out: Any) -> int:
        return 1

    def check(self, op: Op, out: Any) -> List[str]:
        label, bits = op.arg
        f = self.facts(label)
        problems = []
        if f.abelian:
            if out.integral != f.is_union_of_atoms(bits):
                problems.append(f"{label} {hex(bits)}: integral={out.integral} against the atom criterion")
        elif cayley_integral_by_classification(f):
            if not out.integral:
                problems.append(f"{label} {hex(bits)}: non-integral on a Cayley-integral group")
        elif self.rng.randrange(RANK_SAMPLE_RATE) == 0:
            ref = self.rank_verdict(label, bits)
            if (ref.integral, ref.spectrum) != (out.integral, out.spectrum):
                problems.append(f"{label} {hex(bits)}: disagrees with the rank oracle")
        if out.integral:
            problems += [f"{label} {hex(bits)}: {p}" for p in power_sum_problems(f, bits, out.spectrum)]
        elif out.integer_eigenspace_total >= f.n:
            problems.append(f"{label} {hex(bits)}: non-integral with {out.integer_eigenspace_total} integer eigenvalues")
        return problems


WORKLOADS = {w.name: w for w in (Scan, Scan2, Suites, VerdictSingle)}
