"""Exhaustive scans: families, reduction, checkpoints, witnesses."""

import json
import pickle
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from cayley_spectra import search
from cayley_spectra.catalog import build_cached, catalog_up_to_12
from cayley_spectra.cayley import CayleyGraph, SymmetricSubset
from cayley_spectra.groups import derived_subgroup, is_perfect, is_subgroup, subgroup_group
from cayley_spectra.integrality import bound_holds, engine_for, verdict
from cayley_spectra.search import (
    CheckpointError,
    ScanCapExceeded,
    SubsetFamily,
    _stats_from_json,
    exhaustive_scan,
    find_witness,
    is_cayley_integral,
    is_cis,
    symmetric_subsets,
)
from cayley_spectra.suites import CIS_TRUE, MAIN_TRUE_12

# number of inverse-closed cells per group, hence 2^cells subsets
CELL_COUNTS = {
    "Z1": 0, "Z4": 2, "Z2^2": 3, "Z6": 3, "S3": 4, "Z8": 4, "D4": 6,
    "Q8": 4, "Dic12": 6, "Q8xZ2": 9, "Z2^3": 7, "A4": 7, "D6": 9,
}


@pytest.mark.parametrize("label,cells", sorted(CELL_COUNTS.items()))
def test_family_cell_counts(label, cells):
    g = build_cached(label)
    fam = SubsetFamily.of(g)
    assert fam.cell_count == cells
    assert fam.subset_count == 1 << cells


def test_family_counter_roundtrip():
    g = build_cached("D4")
    fam = SubsetFamily.of(g)
    for counter in range(fam.subset_count):
        mask = fam.mask_of_counter(counter)
        assert fam.counter_of_mask(mask) == counter
        if mask:
            SymmetricSubset(g, mask)  # every mask is symmetric, no raise
    with pytest.raises(ValueError, match="not a union of cells"):
        fam.counter_of_mask(fam.mask_of_counter(5) | 1 << g.identity)  # a bit in no cell


def test_symmetric_subsets_complete_and_valid():
    g = build_cached("Z8")
    seen = set()
    for s in symmetric_subsets(g):
        assert s.bits not in seen
        seen.add(s.bits)
    assert len(seen) == 16
    # brute force: every inverse-closed identity-free subset appears
    brute = 0
    for bits in range(1 << 8):
        if bits & 1:
            continue
        if all(bits >> g.inv(x) & 1 for x in range(8) if bits >> x & 1):
            brute += 1
    assert brute == len(seen)


@pytest.mark.parametrize("label", ["S3", "D4", "A4", "Dic12", "D6"])
def test_reduction_preserves_verdict_and_enumeration(label):
    """Tallies count computed (canonical) subsets; verdicts must agree."""
    g = build_cached(label)
    on = exhaustive_scan(g, "cayley_integral", reduce_orbits=True, witness_limit=None)
    off = exhaustive_scan(g, "cayley_integral", reduce_orbits=False, witness_limit=None)
    assert on.holds == off.holds
    assert on.stats.subsets_enumerated == off.stats.subsets_enumerated
    assert off.stats.reduced_count == off.stats.subsets_enumerated
    assert on.stats.reduced_count <= on.stats.subsets_enumerated
    assert on.stats.integral_count + on.stats.nonintegral_count == on.stats.reduced_count
    # a violation among all subsets iff one among canonical representatives
    assert (on.stats.property_violations > 0) == (off.stats.property_violations > 0)


@pytest.mark.parametrize("label", ["Z12", "D4", "Q8"])
def test_cis_scan_reduction_agreement(label):
    g = build_cached(label)
    on = exhaustive_scan(g, "cis", reduce_orbits=True, witness_limit=None)
    off = exhaustive_scan(g, "cis", reduce_orbits=False, witness_limit=None)
    assert on.holds == off.holds


def test_scan_cap():
    g = build_cached("Z2^6")
    with pytest.raises(ScanCapExceeded):
        exhaustive_scan(g, "cayley_integral")


def test_wrappers():
    assert is_cayley_integral(build_cached("Q8")).holds is True
    assert is_cayley_integral(build_cached("Z8")).holds is False
    assert is_cis(build_cached("Z9")).holds is True
    assert is_cis(build_cached("Z8")).holds is False


def test_tally_mode_matches_collecting_mode():
    g = build_cached("D6")
    tally = exhaustive_scan(g, "cayley_integral", witness_limit=None)
    collect = exhaustive_scan(g, "cayley_integral", witness_limit=10**9)
    assert tally.stats.property_violations == collect.stats.property_violations
    assert len(collect.witnesses) == collect.stats.property_violations
    assert tally.witnesses == ()


def test_multiworker_tallies_deterministic():
    g = build_cached("D6")
    one = exhaustive_scan(g, "cayley_integral", workers=1, witness_limit=None)
    four = exhaustive_scan(g, "cayley_integral", workers=4, witness_limit=None)
    assert one.holds == four.holds
    assert one.stats.to_json_dict().keys() == four.stats.to_json_dict().keys()
    a = one.stats.to_json_dict()
    b = four.stats.to_json_dict()
    a.pop("wall_time_ms")
    b.pop("wall_time_ms")
    assert a == b


# frozen first witnesses in plain counter order, independently verified
FROZEN_WITNESSES = {
    ("D4", "nonintegral"): ["x", "xy"],
    ("Z8", "integral_noncomplement"): ["1", "3", "4", "5", "7"],
    ("Z2^3", "integral_noncomplement"): ["e1", "e2", "e3"],
    ("Q8", "integral_noncomplement"): ["-1", "i", "-i", "j", "-j"],
    ("Z6", "integral_noncomplement"): ["1", "5"],
}


@pytest.mark.parametrize("key", sorted(FROZEN_WITNESSES))
def test_find_witness_frozen(key):
    label, kind = key
    g = build_cached(label)
    w = find_witness(g, kind)
    assert w is not None
    assert w.member_names() == FROZEN_WITNESSES[key]
    v = verdict(CayleyGraph(g, w))
    if kind == "nonintegral":
        assert not v.integral
    else:
        assert v.integral
        assert v.spectrum[len(w)] == 1  # connected
        full = (1 << g.order) - 1
        assert not is_subgroup(g, full & ~w.bits)


def test_find_witness_none_for_true_groups():
    assert find_witness(build_cached("Z9"), "integral_noncomplement") is None
    assert find_witness(build_cached("Q8"), "nonintegral") is None


def test_scan_witness_detail_fields():
    gv = is_cis(build_cached("Z6"))
    assert gv.holds is False
    w = gv.witnesses[0]
    assert w.kind == "integral_noncomplement"
    d = w.to_json_dict()
    assert set(d) == {"kind", "counter", "bits", "subset", "detail"}
    assert d["bits"].startswith("0x")


def test_checkpoint_resume(tmp_path):
    # Q8xZ2 is Cayley integral, so a partial scan cannot conclude
    g = build_cached("Q8xZ2")
    ckpt = tmp_path / "scan.json"
    partial = exhaustive_scan(
        g, "cayley_integral", witness_limit=None,
        checkpoint=str(ckpt), max_counters=100,
    )
    assert partial.holds is None and not partial.exhausted
    assert ckpt.exists()
    state = json.loads(ckpt.read_text())
    assert state["schema"] == 1
    resumed = exhaustive_scan(
        g, "cayley_integral", witness_limit=None, checkpoint=str(ckpt)
    )
    assert resumed.exhausted and resumed.holds is True
    fresh = exhaustive_scan(g, "cayley_integral", witness_limit=None)
    a, b = resumed.stats.to_json_dict(), fresh.stats.to_json_dict()
    a.pop("wall_time_ms")
    b.pop("wall_time_ms")
    assert a == b
    assert resumed.holds == fresh.holds


def test_negative_max_counters_rejected():
    """A negative max_counters would move a checkpoint's next counter back."""
    with pytest.raises(ValueError, match="max_counters"):
        exhaustive_scan(build_cached("D4"), "cayley_integral", max_counters=-16)


def test_checkpoint_mismatch_rejected(tmp_path):
    ckpt = tmp_path / "scan.json"
    exhaustive_scan(
        build_cached("Q8xZ2"), "cayley_integral", witness_limit=None,
        checkpoint=str(ckpt), max_counters=50,
    )
    with pytest.raises(ValueError):
        exhaustive_scan(
            build_cached("D4"), "cayley_integral", witness_limit=None,
            checkpoint=str(ckpt),
        )


# every failing (group, property) pair of order <= 12 in the main and cis suites
FAILING_LE_12 = [
    (label, prop)
    for prop, true_set in (("cayley_integral", MAIN_TRUE_12), ("cis", CIS_TRUE))
    for label, _ in catalog_up_to_12()
    if label not in true_set
]


@pytest.mark.parametrize("label,prop", FAILING_LE_12)
def test_tally_least_witness_is_first_unreduced_witness(label, prop):
    g = build_cached(label)
    first = exhaustive_scan(g, prop, reduce_orbits=False, witness_limit=1).witnesses[0]
    for workers in (1, 2):
        tally = exhaustive_scan(g, prop, workers=workers, witness_limit=None)
        assert tally.holds is False and tally.witnesses == ()
        least = tally.least_witness(first.kind)
        assert least is not None
        assert (least.counter, least.bits) == (first.counter, first.bits)


def test_workers_scan_a_group_outside_the_catalog(monkeypatch):
    """Workers take the group from the scan itself, so a group that no
    catalog expression names (here A4 inside S4) still runs in the pool."""
    s4 = build_cached("S4")
    g, _ = subgroup_group(s4, derived_subgroup(s4))
    assert (g.label, SubsetFamily.of(g).subset_count) == ("S4<12>", 128)
    serial = exhaustive_scan(g, "cayley_integral", workers=1, witness_limit=None)
    pools = _spy_pools(monkeypatch)
    pooled = exhaustive_scan(g, "cayley_integral", workers=2, witness_limit=None)
    assert pools == [2]
    a, b = pooled.stats.to_json_dict(), serial.stats.to_json_dict()
    a.pop("wall_time_ms")
    b.pop("wall_time_ms")
    assert a == b
    assert pooled.least_witnesses == serial.least_witnesses and serial.least_witnesses


def _spy_pools(monkeypatch):
    """The max_workers of every pool the scans start from now on."""
    pools = []

    class SpyPool(ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            pools.append(kwargs.get("max_workers"))
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(search, "ProcessPoolExecutor", SpyPool)
    return pools


@pytest.mark.parametrize("prop", ["cayley_integral", "cis"])
def test_workers_tally_a_fourier_group(monkeypatch, prop):
    """Q8xZ2^2 certifies on its Fourier table.  Its 4096-counter prefix,
    two chunks, tallies the same on two workers as on one; cis's least
    witness, counter 2179, lies in the second chunk."""
    g = build_cached("Q8xZ2^2")
    assert SubsetFamily.of(g).fourier is not None
    serial = exhaustive_scan(g, prop, workers=1, witness_limit=None, max_counters=4096)
    pools = _spy_pools(monkeypatch)
    pooled = exhaustive_scan(g, prop, workers=2, witness_limit=None, max_counters=4096)
    assert pools == [2]
    assert serial.stats.subsets_enumerated == 4096
    assert _verdict_json(pooled) == _verdict_json(serial)
    assert [w.counter for w in serial.least_witnesses] == ([2179] if prop == "cis" else [])


def test_workers_witness_scan_a_fourier_group(monkeypatch):
    """Z2^4 certifies on its characters; a cis witness scan whose 2000th
    witness lies past the first chunk lists the same witnesses and stats
    on two workers as on one."""
    g = build_cached("Z2^4")
    assert SubsetFamily.of(g).fourier is not None
    serial = exhaustive_scan(g, "cis", workers=1, witness_limit=2000)
    pools = _spy_pools(monkeypatch)
    pooled = exhaustive_scan(g, "cis", workers=2, witness_limit=2000)
    assert pools == [2]
    assert len(serial.witnesses) == 2000 and serial.witnesses[-1].counter >= 2048
    assert _verdict_json(pooled) == _verdict_json(serial)


def test_resume_across_worker_counts(tmp_path):
    g = build_cached("D6")
    ckpt = str(tmp_path / "scan.json")
    cut = exhaustive_scan(
        g, "cayley_integral", workers=2, witness_limit=None,
        checkpoint=ckpt, max_counters=64,
    )
    assert not cut.exhausted and cut.least_witnesses  # D6's least witness is counter 24
    resumed = exhaustive_scan(
        g, "cayley_integral", workers=1, witness_limit=None, checkpoint=ckpt
    )
    fresh = exhaustive_scan(g, "cayley_integral", witness_limit=None)
    a, b = resumed.stats.to_json_dict(), fresh.stats.to_json_dict()
    a.pop("wall_time_ms")
    b.pop("wall_time_ms")
    assert a == b
    assert resumed.holds is fresh.holds is False
    assert resumed.least_witnesses == fresh.least_witnesses
    for s in (cut.stats, resumed.stats, fresh.stats):
        d = s.to_json_dict()
        assert _stats_from_json(d).to_json_dict() == d


def _verdict_json(gv):
    """A scan's report less wall_time_ms, with its least witnesses."""
    d = gv.to_json_dict()
    d["stats"].pop("wall_time_ms")
    return d, [w.to_json_dict() for w in gv.least_witnesses]


@pytest.mark.parametrize("limit", [0, -1])
def test_witness_limit_below_one_rejected(limit):
    with pytest.raises(ValueError, match="witness_limit"):
        exhaustive_scan(build_cached("D4"), "cayley_integral", witness_limit=limit)


@pytest.mark.parametrize("label,prop,first,limit,workers", [
    ("D4", "cayley_integral", 1, 3, 1),
    ("D8", "cis", 20, 60, 1),  # the 60th witness lies in the second chunk
    ("D8", "cis", 20, 60, 2),
])
def test_resumed_witness_scan_equals_fresh(tmp_path, label, prop, first, limit, workers):
    g = build_cached(label)
    ckpt = str(tmp_path / "scan.json")
    exhaustive_scan(g, prop, witness_limit=first, checkpoint=ckpt, workers=workers)
    resumed = exhaustive_scan(g, prop, witness_limit=limit, checkpoint=ckpt, workers=workers)
    fresh = exhaustive_scan(g, prop, witness_limit=limit)
    assert len(fresh.witnesses) == limit and not fresh.exhausted
    assert _verdict_json(resumed) == _verdict_json(fresh)


def test_resume_refuses_a_smaller_witness_limit(tmp_path):
    """D4's witness checkpoint at limit 3 counts through counter 14, its
    third violation; a fresh limit-1 scan stops at 12.  The checkpoint
    cannot be wound back, so resuming it at limit 1 is refused, and at
    limit 3 it still equals the fresh scan."""
    g = build_cached("D4")
    ckpt = str(tmp_path / "scan.json")
    exhaustive_scan(g, "cayley_integral", witness_limit=3, checkpoint=ckpt)
    with pytest.raises(CheckpointError, match="lists 3 witnesses, more than the limit 1"):
        exhaustive_scan(g, "cayley_integral", witness_limit=1, checkpoint=ckpt)
    fresh = exhaustive_scan(g, "cayley_integral", witness_limit=1)
    assert [w.counter for w in fresh.witnesses] == [12]
    assert fresh.stats.subsets_enumerated == 13
    resumed = exhaustive_scan(g, "cayley_integral", witness_limit=3, checkpoint=ckpt)
    assert _verdict_json(resumed) == _verdict_json(exhaustive_scan(g, "cayley_integral", witness_limit=3))


def test_witness_scan_independent_of_workers():
    """D8's 60th cis witness is counter 2751, past the first chunk, where
    the second worker's chunk holds more violations than the limit wants."""
    g = build_cached("D8")
    one = exhaustive_scan(g, "cis", witness_limit=60, workers=1)
    two = exhaustive_scan(g, "cis", witness_limit=60, workers=2)
    assert one.stats.property_violations == 60
    assert _verdict_json(one) == _verdict_json(two)


@pytest.mark.parametrize("label,prop,limit", [("D4", "cayley_integral", 3), ("D8", "cis", 60)])
def test_witness_stop_checkpoint_next_counter(tmp_path, label, prop, limit):
    ckpt = tmp_path / "scan.json"
    gv = exhaustive_scan(build_cached(label), prop, witness_limit=limit, checkpoint=str(ckpt))
    state = json.loads(ckpt.read_text())
    last = gv.witnesses[-1].counter
    assert state["next_counter"] == last + 1 == gv.stats.subsets_enumerated
    assert len(state["witnesses"]) == state["stats"]["property_violations"] == limit


def test_resume_refuses_the_other_mode(tmp_path):
    """A tally checkpoint past D4's violations at counters 12-14 lists no
    witness, and a witness checkpoint lists no least witness, so neither
    can resume in the other mode."""
    g = build_cached("D4")
    tally = str(tmp_path / "tally.json")
    exhaustive_scan(g, "cayley_integral", witness_limit=None, checkpoint=tally, max_counters=32)
    with pytest.raises(CheckpointError, match="witness scan cannot resume"):
        exhaustive_scan(g, "cayley_integral", witness_limit=3, checkpoint=tally)
    witness = str(tmp_path / "witness.json")
    exhaustive_scan(g, "cayley_integral", witness_limit=2, checkpoint=witness)
    with pytest.raises(CheckpointError, match="tally scan cannot resume"):
        exhaustive_scan(g, "cayley_integral", witness_limit=None, checkpoint=witness)
    fresh = exhaustive_scan(g, "cayley_integral", witness_limit=3)
    assert [w.counter for w in fresh.witnesses] == [12, 13, 14]
    fresh = exhaustive_scan(g, "cayley_integral", witness_limit=None)
    assert fresh.witnesses == () and [w.counter for w in fresh.least_witnesses] == [12]


# ---------------------------------------------------------------------------
# the array scan against per-subset references
# ---------------------------------------------------------------------------


def _keep_by_bits(counters, perms):
    """Orbit filter moving one counter bit per cell and permutation."""
    keep = np.ones(len(counters), dtype=bool)
    for p in perms:
        permuted = np.zeros_like(counters)
        for i, pi in enumerate(p):
            permuted |= ((counters >> i) & 1) << pi
        keep &= permuted >= counters
    return keep


@pytest.mark.parametrize("label", ["S3", "D4", "Q8", "A4", "D6", "Dic12", "SL2_3", "S4"])
def test_byte_table_orbit_filter_matches_per_bit(label):
    family = SubsetFamily.of(build_cached(label))
    perms = family.conjugation_cell_perms()
    counters = np.arange(family.subset_count, dtype=np.int64)
    want = _keep_by_bits(counters, perms)
    assert search._canonical_keep(counters.astype(np.uint64), family.orbit_tables).tolist() == want.tolist()


@pytest.mark.parametrize("label", [expr for expr, _ in catalog_up_to_12()] + ["Q8xZ2^2"])
def test_byte_table_masks_match_mask_of_counter(label):
    """Every counter of the catalog groups of order <= 12, and a seeded
    sample of Q8xZ2^2's 2^19."""
    family = SubsetFamily.of(build_cached(label))
    counters = np.arange(family.subset_count, dtype=np.uint64)
    if family.subset_count > 1 << 12:
        counters = np.random.default_rng(13).choice(counters, 1 << 12, replace=False)
    want = [family.mask_of_counter(c) for c in counters.tolist()]
    assert search._masks_of_counters(counters, family.mask_tables).tolist() == want


def test_scan_tables_built_once_per_scan(monkeypatch):
    """Z2^4's 2^15 counters run as 16 chunks, which share one build."""
    calls = {"perms": 0, "perfect": 0}
    perms, perfect = SubsetFamily.conjugation_cell_perms, search.is_perfect

    def count(key, fn):
        def counted(*args):
            calls[key] += 1
            return fn(*args)
        return counted

    monkeypatch.setattr(SubsetFamily, "conjugation_cell_perms", count("perms", perms))
    monkeypatch.setattr(search, "is_perfect", count("perfect", perfect))
    g = build_cached("Z2^4")
    assert SubsetFamily.of(g).subset_count == 2 * 8 * search._CHUNK
    assert exhaustive_scan(g, "cayley_integral").holds is True
    assert calls["perms"] <= 1 and calls["perfect"] == 1


def test_pickled_family_carries_its_tables():
    family = SubsetFamily.of(build_cached("S4"))
    family.build_scan_tables(reduce_orbits=True)
    copy = pickle.loads(pickle.dumps(family))
    for name in ("mask_tables", "orbit_tables", "bound_tables"):
        assert name in vars(copy)
    assert (copy.orbit_tables == family.orbit_tables).all()
    assert copy.bound_tables[:2] == family.bound_tables[:2]


def _reference_scan(g, prop, reduce_orbits, witness_limit):
    """(stats less wall_time_ms, witnesses as JSON) of a scan, one subset
    at a time from the exact route, is_subgroup and bound_holds.  A scan
    that reaches witness_limit stops at its last witness: every stats
    field counts through that counter."""
    family = SubsetFamily.of(g)
    assert family.subset_count <= search._CHUNK
    n, full = g.order, (1 << g.order) - 1
    counters = np.arange(family.subset_count, dtype=np.int64)
    if reduce_orbits:
        counters = counters[_keep_by_bits(counters, family.conjugation_cell_perms())]
    masks = [family.mask_of_counter(c) for c in counters.tolist()]
    stats = {f: 0 for f in search.ScanStats().to_json_dict() if f != "wall_time_ms"}
    stats["subsets_enumerated"], stats["reduced_count"] = family.subset_count, len(masks)
    witnesses = []
    names = lambda bits: [g.name_of(x) for x in range(n) if bits >> x & 1]  # noqa: E731
    for c, m, (k, roots, rest) in zip(counters.tolist(), masks, engine_for(g).split_results(masks)):
        integral = rest.degree == 0
        connected = integral and roots.get(k) == 1
        comp_subgroup = is_subgroup(g, full & ~m)
        stats["integral_count" if integral else "nonintegral_count"] += 1
        if connected:
            odd = any(g.element_order(x) % 2 for x in range(n) if m >> x & 1)
            strong_applies = is_perfect(g) or odd
            weak, strong = bound_holds(n, k, strong_applies)
            stats["bound_checked"] += 1
            stats["bound_weak_violations"] += not weak
            stats["bound_strong_checked"] += strong_applies
            stats["bound_strong_violations"] += not strong
        if prop == "cayley_integral":
            kind = None if integral else "nonintegral"
        elif connected and not comp_subgroup:
            kind = "integral_noncomplement"
        else:
            kind = "subgroup_complement_nonintegral" if not integral and comp_subgroup else None
        if kind is None:
            continue
        stats["property_violations"] += 1
        if integral:
            detail = {
                "spectrum": {str(r): e for r, e in sorted(roots.items(), reverse=True)},
                "complement_with_identity": names(full & ~m),
            }
        else:
            detail = {"remainder_degree": rest.degree}
        if kind == "nonintegral":
            v = verdict(CayleyGraph(g, SymmetricSubset(g, m)))
            detail["float_evidence"] = [round(x, 9) for x in v.float_evidence]
        witnesses.append(
            {"kind": kind, "counter": c, "bits": hex(m), "subset": names(m), "detail": detail}
        )
        if len(witnesses) == witness_limit:
            stats["subsets_enumerated"], stats["reduced_count"] = c + 1, masks.index(m) + 1
            break
    return stats, witnesses


@pytest.mark.parametrize("label", [expr for expr, _ in catalog_up_to_12()])
def test_array_scan_matches_per_subset_reference(label):
    g = build_cached(label)
    for prop in ("cayley_integral", "cis"):
        for reduce_orbits in (True, False):
            for witness_limit in (None, 3):
                gv = exhaustive_scan(
                    g, prop, reduce_orbits=reduce_orbits, witness_limit=witness_limit
                )
                stats, witnesses = _reference_scan(g, prop, reduce_orbits, witness_limit)
                case = (prop, reduce_orbits, witness_limit)
                got = gv.stats.to_json_dict()
                got.pop("wall_time_ms")
                assert got == stats, case
                if witness_limit is None:  # the least witness of each kind
                    firsts = {}
                    for w in witnesses:
                        firsts.setdefault(w["kind"], w)
                    assert gv.witnesses == (), case
                    least = [w.to_json_dict() for w in gv.least_witnesses]
                    assert least == list(firsts.values()), case
                else:
                    assert [w.to_json_dict() for w in gv.witnesses] == witnesses, case
                assert gv.holds is (not witnesses), case
