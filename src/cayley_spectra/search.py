"""Exhaustive scans over symmetric subsets of a finite group.

A symmetric (identity-free, inverse-closed) subset is a union of cells,
where a cell is a single involution or an element paired with its
inverse.  Enumerating all 2^m cell unions by an m-bit counter gives a
deterministic scan order; conjugation by group elements permutes the
cells, so scans can optionally restrict to the counter-minimal subset
of each conjugacy orbit, which changes no group-level verdict.

Two group properties are scanned for:

  cayley_integral -- every symmetric subset has an integral spectrum;
  cis             -- every integral spectrum on a generating subset
                     forces the complement (plus identity) to be a
                     subgroup.

Scans stream in numpy chunks through a batched certificate: the
group's Fourier table (fourier.FourierTable.certify) where it has one,
else the engine's power-sum walk (SpectraEngine.certify).  They can run
across several worker processes, and can checkpoint and resume.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, fields
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from .cayley import SymmetricSubset
from .fourier import FourierTable, fourier_table
from .groups import FiniteGroup, is_perfect
from .integrality import bound_holds, engine_for

SCAN_ORDER_CAP = 32
_CHUNK = 2048
PROPERTIES = ("cayley_integral", "cis")


class ScanCapExceeded(ValueError):
    """Raised when an exhaustive scan is requested above the order cap."""


class CheckpointError(ValueError):
    """Raised when a checkpoint file is unreadable or belongs to another scan."""


@dataclass(frozen=True)
class SubsetFamily:
    """The cell decomposition of one group's symmetric subsets, and the
    tables a scan's chunks read, as properties cached on first use."""

    group: FiniteGroup
    cells: Tuple[Tuple[int, ...], ...]

    @classmethod
    def of(cls, group: FiniteGroup) -> "SubsetFamily":
        seen = set()
        cells = []
        for x in group.elements():
            if x == group.identity or x in seen:
                continue
            xi = group.inv(x)
            cell = (x,) if xi == x else (x, xi)
            seen.update(cell)
            cells.append(cell)
        cells.sort(key=lambda c: c[0])
        return cls(group, tuple(cells))

    @property
    def cell_count(self) -> int:
        return len(self.cells)

    @property
    def subset_count(self) -> int:
        return 1 << len(self.cells)

    def cell_masks(self) -> Tuple[int, ...]:
        return tuple(sum(1 << x for x in cell) for cell in self.cells)

    def mask_of_counter(self, counter: int) -> int:
        return sum(cm for i, cm in enumerate(self.cell_masks()) if counter >> i & 1)

    def counter_of_mask(self, mask: int) -> int:
        counter = sum(1 << i for i, cm in enumerate(self.cell_masks()) if mask & cm)
        if self.mask_of_counter(counter) != mask:
            raise ValueError("mask is not a union of cells")
        return counter

    def conjugation_cell_perms(self) -> Tuple[Tuple[int, ...], ...]:
        """Distinct permutations of the cell list induced by conjugation,
        sorted.  Conjugation by a sends cell i to the cell of a x_i a^-1,
        x_i the cell's first element."""
        t, inv = self.group.np_table(), np.array(self.group.inverses)
        firsts = [cell[0] for cell in self.cells]  # ascending; x_i is the lesser of x_i, x_i^-1
        conjugates = t[t[:, firsts], inv[:, None]]  # [a, i] = a x_i a^-1
        perms = np.searchsorted(firsts, np.minimum(conjugates, inv[conjugates]))
        return tuple(sorted(set(map(tuple, perms.tolist()))))

    @functools.cached_property
    def mask_tables(self) -> np.ndarray:
        """_byte_tables of the counter->mask map: counter bit i sets cell i."""
        return _byte_tables(np.array([self.cell_masks()], dtype=np.uint64))

    @functools.cached_property
    def orbit_tables(self) -> np.ndarray:
        """_byte_tables of every conjugation cell permutation p but the
        identity, which keeps every counter: counter bit i goes to bit p[i]."""
        perms = np.array(self.conjugation_cell_perms(), dtype=np.uint64)
        moved = perms[(perms != np.arange(self.cell_count)).any(axis=1)]
        return _byte_tables(np.uint64(1) << moved)

    @functools.cached_property
    def bound_tables(self) -> Tuple[bool, np.uint64, np.ndarray, np.ndarray]:
        """(G perfect, the mask of odd-order elements but the identity, and
        bound_holds(n, k, True)'s weak and strong rows over k = 0..n-1)."""
        g = self.group
        odd = sum(1 << x for x in g.elements() if x != g.identity and g.element_order(x) % 2)
        weak, strong = np.array([bound_holds(g.order, k, True) for k in range(g.order)]).T
        return is_perfect(g), np.uint64(odd), weak, strong

    @functools.cached_property
    def fourier(self) -> Optional[FourierTable]:
        """The group's Fourier table (built once per group, on its first
        scan), or None where the scan takes the power-sum walk."""
        return fourier_table(self.group)

    def build_scan_tables(self, reduce_orbits: bool) -> None:
        """Build the tables a scan reads before it maps its chunks, so the
        chunks share them and pool workers unpickle them with the family."""
        self.mask_tables, self.bound_tables, self.fourier
        if reduce_orbits:
            self.orbit_tables


def _byte_tables(images: np.ndarray) -> np.ndarray:
    """T[r, i, v]: the OR of images[r, 8i + j] over the bits j set in v,
    where images[r, b] holds the disjoint bits that counter bit b maps to
    under map r.  _lookup ORs one entry per counter byte."""
    rows, cells = images.shape
    width = -(-cells // 8) * 8
    padded = np.zeros((rows, width), dtype=np.uint64)
    padded[:, :cells] = images
    bits = ((np.arange(256)[None, :] >> np.arange(8)[:, None]) & 1).astype(np.uint64)
    return padded.reshape(rows, width // 8, 8) @ bits  # disjoint bits: the sum is the OR


def _lookup(tables: np.ndarray, counters: np.ndarray) -> np.ndarray:
    """[r, c]: the image of counters[c] under the map of tables[r]."""
    out = np.zeros((len(tables), len(counters)), dtype=np.uint64)
    for i in range(tables.shape[1]):
        byte = ((counters >> np.uint64(8 * i)) & np.uint64(0xFF)).astype(np.intp)
        out |= tables[:, i, byte]
    return out


def _masks_of_counters(counters: np.ndarray, mask_tables: np.ndarray) -> np.ndarray:
    return _lookup(mask_tables, np.asarray(counters, dtype=np.uint64))[0]


def _canonical_keep(counters: np.ndarray, orbit_tables: np.ndarray) -> np.ndarray:
    """True where the counter is minimal in its conjugation orbit."""
    c = np.asarray(counters, dtype=np.uint64)
    return (_lookup(orbit_tables, c) >= c).all(axis=0)


# ---------------------------------------------------------------------------
# scan results
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Witness:
    """One subset violating (or double-checking) a scanned property.

    kinds:
      nonintegral                     -- spectrum is not all-integer
      integral_noncomplement          -- integral + generating, yet the
                                         complement with identity is not
                                         a subgroup
      subgroup_complement_nonintegral -- guard that must never fire: the
                                         complement is a subgroup but
                                         the spectrum is not integral
    """

    kind: str
    counter: int
    bits: int
    subset_names: Tuple[str, ...]
    detail: dict

    def to_json_dict(self) -> dict:
        return {
            "kind": self.kind,
            "counter": self.counter,
            "bits": hex(self.bits),
            "subset": list(self.subset_names),
            "detail": self.detail,
        }


@dataclass
class ScanStats:
    """Tallies for one scan.

    The bound_* fields track the order-divisibility bound on every
    connected integral graph the scan visits: weak is
    |G| | 2(2|S|-1)!, strong is |G| | (2|S|-1)! and is only checked
    where it applies (G perfect, or S containing an odd-order element).
    """

    subsets_enumerated: int = 0
    reduced_count: int = 0
    integral_count: int = 0
    nonintegral_count: int = 0
    property_violations: int = 0
    bound_checked: int = 0
    bound_weak_violations: int = 0
    bound_strong_checked: int = 0
    bound_strong_violations: int = 0
    wall_time_ms: float = 0.0

    def absorb(self, other: "ScanStats") -> None:
        """Add another range's tallies; wall_time_ms is left to the driver."""
        for f in fields(self):
            if f.name != "wall_time_ms":
                setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))

    def to_json_dict(self) -> dict:
        d = asdict(self)
        d["wall_time_ms"] = round(self.wall_time_ms, 3)
        return d


@dataclass(frozen=True)
class GroupVerdict:
    """Outcome of scanning one property over one group's subsets.

    least_witnesses is filled by tally scans only: the counter-least
    violation of each kind seen, ordered by counter.  It is left out of
    the JSON so the report of a tally scan keeps its shape.
    """

    group_label: str
    property_name: str
    holds: Optional[bool]
    exhausted: bool
    witnesses: Tuple[Witness, ...]
    stats: ScanStats
    least_witnesses: Tuple[Witness, ...] = ()

    def least_witness(self, kind: str) -> Optional[Witness]:
        return next((w for w in self.least_witnesses if w.kind == kind), None)

    def to_json_dict(self) -> dict:
        return {
            "group": self.group_label,
            "property": self.property_name,
            "holds": self.holds,
            "exhausted": self.exhausted,
            "witnesses": [w.to_json_dict() for w in self.witnesses],
            "stats": self.stats.to_json_dict(),
        }


# ---------------------------------------------------------------------------
# predicate cores
# ---------------------------------------------------------------------------


def _complement_subgroups(masks: np.ndarray, degree: np.ndarray, xyinv: np.ndarray) -> np.ndarray:
    """Per identity-free mask S, is H = G - S a subgroup?

    |H| = n - |S| must divide n, and then x y^-1 must lie in H for all
    x, y in H, read off xyinv[x, y] = x y^-1, one x at a time.
    """
    n = len(xyinv)
    out = np.zeros(len(masks), dtype=bool)
    rows = np.flatnonzero(n % (n - degree) == 0)
    outside = ((masks[rows, None] >> np.arange(n, dtype=np.uint64)) & np.uint64(1)).astype(bool)
    closed = np.ones(len(rows), dtype=bool)
    for x in range(n):
        closed &= outside[:, x] | (outside | ~outside[:, xyinv[x]]).all(axis=1)
    out[rows] = closed
    return out


def _scan_counters(
    family: SubsetFamily,
    property_name: str,
    start: int,
    end: int,
    reduce_orbits: bool,
    witness_limit: Optional[int],
) -> Tuple[ScanStats, List[Tuple[str, int, int, dict]]]:
    """Scan the one chunk [start, end) of at most _CHUNK counters.

    Returns the chunk's stats and candidate rows (kind, counter, mask,
    spectrum) in counter order, the spectrum empty unless the mask is
    integral.  witness_limit None means tally mode: every violation is
    counted and the rows are the first violation of each kind.
    Otherwise the rows are the first witness_limit violations, and a
    chunk that has that many stops at the last one: every stats field,
    subsets_enumerated and reduced_count included, counts through its
    counter.  With reduce_orbits, only the counter-minimal member of
    each conjugation orbit is kept.

    The chunk stays in numpy from counter to tally, with the five arrays
    of the family's Fourier table or, without one, of the engine's walk
    (both certify the same way, and the tests hold them equal): a mask
    is connected when eigenvalue k = |S| has multiplicity
    1; the weak and strong bounds are read off the family's bound_tables,
    the strong one checked where G is perfect or S meets odd_mask; cis
    asks _complement_subgroups.  Python sees only the candidate rows.
    """
    perfect, odd_mask, weak_ok, strong_ok = family.bound_tables
    stats = ScanStats(subsets_enumerated=end - start)
    counters = np.arange(start, end, dtype=np.uint64)
    if reduce_orbits and len(family.orbit_tables):
        counters = counters[_canonical_keep(counters, family.orbit_tables)]
    masks = _masks_of_counters(counters, family.mask_tables)
    certify = (family.fourier or engine_for(family.group)).certify
    degree, integral, rows, roots, mults = certify(masks)
    top = roots == degree[rows]
    connected = np.zeros(len(masks), dtype=bool)
    connected[rows[top]] = mults[top] == 1
    if property_name == "cis":
        comp_subgroup = _complement_subgroups(masks, degree, family.group.xy_inv_table())
        kinds = {
            "integral_noncomplement": connected & ~comp_subgroup,
            "subgroup_complement_nonintegral": ~integral & comp_subgroup,
        }
    else:
        kinds = {"nonintegral": ~integral}
    violating = np.logical_or.reduce(list(kinds.values()))
    cut = len(masks)
    if witness_limit is None:
        # counters ascend, so the first of each kind is the least
        take = sorted(i for v in kinds.values() for i in np.flatnonzero(v)[:1].tolist())
    else:
        take = np.flatnonzero(violating)[:witness_limit].tolist()
        if len(take) == witness_limit:
            cut = take[-1] + 1
            stats.subsets_enumerated = int(counters[take[-1]]) + 1 - start
    integral, connected, violating = integral[:cut], connected[:cut], violating[:cut]
    stats.reduced_count = cut
    stats.integral_count = int(integral.sum())
    stats.nonintegral_count = cut - stats.integral_count
    stats.property_violations = int(violating.sum())
    k = degree[:cut][connected]
    strong_applies = perfect | (masks[:cut][connected] & odd_mask != 0)
    stats.bound_checked = len(k)
    stats.bound_weak_violations = int((~weak_ok[k]).sum())
    stats.bound_strong_checked = int(strong_applies.sum())
    stats.bound_strong_violations = int((strong_applies & ~strong_ok[k]).sum())
    found = []
    for i in take:
        kind = next(kind for kind, v in kinds.items() if v[i])
        lo, hi = np.searchsorted(rows, (i, i + 1))
        spectrum = dict(zip(roots[lo:hi].tolist(), mults[lo:hi].tolist()))
        found.append((kind, int(counters[i]), int(masks[i]), spectrum))
    return stats, found


def _witness(group: FiniteGroup, kind: str, counter: int, mask: int, spectrum: dict) -> Witness:
    """The witness of one violating mask; spectrum is empty unless it is integral."""
    engine = engine_for(group)
    if spectrum:
        detail = {
            "spectrum": {str(r): m for r, m in spectrum.items()},
            "complement_with_identity": _names(group, ((1 << group.order) - 1) & ~mask),
        }
    else:
        # the exact path, for the few masks that become witnesses
        detail = {"remainder_degree": engine.split_results([mask])[0][2].degree}
    if kind == "nonintegral":
        detail["float_evidence"] = [round(v, 9) for v in engine._float_evidence(mask)]
    return Witness(kind, counter, mask, tuple(_names(group, mask)), detail)


def _names(group: FiniteGroup, bits: int) -> List[str]:
    return [group.name_of(x) for x in range(group.order) if bits >> x & 1]


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------


def _write_checkpoint(path: str, payload: dict) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1)
        fh.write("\n")
    os.replace(tmp, path)


def _load_checkpoint(
    path: str,
    family: SubsetFamily,
    property_name: str,
    reduce_orbits: bool,
    witness_limit: Optional[int],
) -> Optional[Tuple[int, ScanStats, List[Witness], List[Witness]]]:
    """(next counter, stats, witnesses, least witnesses) saved at path.

    None if there is no file yet.  Raises CheckpointError if the file is
    not JSON, lacks a key, holds a value of the wrong type, was written
    by a different scan, has a next counter outside [0, subset_count] or
    other than the count of subsets its stats say were enumerated, was
    written in the other mode (a witness scan lists every violation it
    counted, and a tally scan lists none), or lists more witnesses than
    witness_limit: its stats count through its last witness, and a
    checkpoint cannot be wound back to an earlier counter.
    """
    if not os.path.exists(path):
        return None
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except ValueError as e:  # JSONDecodeError, or bytes that are not UTF-8
            raise CheckpointError(f"checkpoint {path!r} is not valid JSON: {e}") from None
    matches = (
        isinstance(data, dict)
        and data.get("schema") == 1
        and data.get("group_expr") == family.group.label
        and data.get("property") == property_name
        and data.get("reduce") == reduce_orbits
        and data.get("cells") == [list(c) for c in family.cells]
    )
    if not matches:
        raise CheckpointError(f"checkpoint {path!r} does not match this scan")
    try:
        saved = (
            int(data["next_counter"]),
            _stats_from_json(data["stats"]),
            [_witness_from_json(w) for w in data["witnesses"]],
            [_witness_from_json(w) for w in data["least_witnesses"]],
        )
    except KeyError as e:
        raise CheckpointError(f"checkpoint {path!r} lacks the key {e}") from None
    except (TypeError, ValueError) as e:
        raise CheckpointError(f"checkpoint {path!r} is malformed: {e}") from None
    next_counter, enumerated = saved[0], saved[1].subsets_enumerated
    if not 0 <= next_counter <= family.subset_count or next_counter != enumerated:
        raise CheckpointError(
            f"checkpoint {path!r} has next_counter {next_counter}, but {enumerated} "
            f"of {family.subset_count} subsets enumerated"
        )
    violations, listed = saved[1].property_violations, len(saved[2])
    if listed if witness_limit is None else violations != listed:
        mode = "tally" if witness_limit is None else "witness"
        raise CheckpointError(
            f"checkpoint {path!r} counts {violations} violations and lists {listed} "
            f"witnesses, which a {mode} scan cannot resume"
        )
    if witness_limit is not None and listed > witness_limit:
        raise CheckpointError(
            f"checkpoint {path!r} lists {listed} witnesses, more than the limit "
            f"{witness_limit}, and cannot be wound back to an earlier counter"
        )
    return saved


def _stats_from_json(d: dict) -> ScanStats:
    return ScanStats(**{f.name: d[f.name] for f in fields(ScanStats)})


def _witness_from_json(d: dict) -> Witness:
    return Witness(
        kind=d["kind"],
        counter=d["counter"],
        bits=int(d["bits"], 16),
        subset_names=tuple(d["subset"]),
        detail=d["detail"],
    )


# ---------------------------------------------------------------------------
# the scan driver
# ---------------------------------------------------------------------------


def exhaustive_scan(
    group: FiniteGroup,
    property_name: str,
    *,
    reduce_orbits: bool = True,
    workers: int = 1,
    force: bool = False,
    checkpoint: Optional[str] = None,
    witness_limit: Optional[int] = 1,
    max_counters: Optional[int] = None,
) -> GroupVerdict:
    """Scan every symmetric subset of the group for one property.

    The scan maps _scan_counters over chunks of _CHUNK counters, in
    process or on a pool of workers, and takes the results in counter
    order.  A witness scan stops at the counter of its witness_limit-th
    violation, so its stats count through that counter and exhausted is
    False unless it is the last one.  witness_limit None scans the whole
    range counting violations without materializing witnesses, and
    records only the counter-least violation of each kind as
    least_witnesses.  Witnesses, stats and checkpoints do not depend on
    the worker count in either mode, and a resumed scan equals a fresh
    one (_load_checkpoint refuses a resume that could not).  The
    checkpoint is rewritten after every chunk.  max_counters bounds how
    many counters this call processes (the scan is left resumable
    through its checkpoint); a scan cut short that way has holds=None
    unless a violation already settled it.
    """
    if property_name not in PROPERTIES:
        raise ValueError(f"unknown scan property {property_name!r}")
    if group.order > SCAN_ORDER_CAP and not force:
        raise ScanCapExceeded(
            f"group order {group.order} exceeds the exhaustive-scan cap "
            f"{SCAN_ORDER_CAP}; pass force to scan anyway"
        )
    if max_counters is not None and max_counters < 0:
        raise ValueError(f"max_counters must be at least 0, got {max_counters}")
    if witness_limit is not None and witness_limit < 1:
        raise ValueError(f"witness_limit must be at least 1 or None, got {witness_limit}")
    family = SubsetFamily.of(group)
    total = family.subset_count
    stats = ScanStats()
    witnesses: List[Witness] = []
    least: Dict[str, Witness] = {}
    start = 0
    if checkpoint:
        saved = _load_checkpoint(checkpoint, family, property_name, reduce_orbits, witness_limit)
        if saved is not None:
            start, stats, witnesses, saved_least = saved
            least = {w.kind: w for w in saved_least}
    end = total if max_counters is None else min(total, start + max_counters)
    if witness_limit is not None and len(witnesses) >= witness_limit:
        end = start  # resumed with every witness asked for already found
    t0 = time.monotonic()
    wall_base = stats.wall_time_ms
    next_counter = start

    def note_progress() -> None:
        if checkpoint:
            _write_checkpoint(checkpoint, {
                "schema": 1,
                "group_expr": group.label,
                "property": property_name,
                "reduce": reduce_orbits,
                "cells": [list(c) for c in family.cells],
                "subset_count": total,
                "next_counter": next_counter,
                "stats": stats.to_json_dict(),
                "witnesses": [w.to_json_dict() for w in witnesses],
                "least_witnesses": [w.to_json_dict() for w in least.values()],
            })

    family.build_scan_tables(reduce_orbits)
    scan = functools.partial(
        _scan_counters, family, property_name,
        reduce_orbits=reduce_orbits, witness_limit=witness_limit,
    )
    starts = range(start, end, _CHUNK)
    ends = (min(s + _CHUNK, end) for s in starts)
    parallel = workers > 1 and start < end
    with (
        ProcessPoolExecutor(max_workers=workers) if parallel else contextlib.nullcontext()
    ) as pool:
        # each worker unpickles the family, and with it the group
        results = map(scan, starts, ends) if pool is None else pool.map(
            scan, starts, ends, chunksize=max(1, len(starts) // (workers * 8))
        )
        for s, (part_stats, rows) in zip(starts, results):
            if witnesses and len(witnesses) + len(rows) >= witness_limit:
                # the chunk reaches the limit after earlier witnesses: its
                # stats must stop at the last witness still wanted
                part_stats, rows = scan(
                    s, min(s + _CHUNK, end), witness_limit=witness_limit - len(witnesses)
                )
            stats.absorb(part_stats)
            for row in rows:  # (kind, counter, mask, spectrum)
                if witness_limit is not None:
                    witnesses.append(_witness(group, *row))
                elif row[0] not in least:
                    # Chunks arrive in counter order, so the first row of a
                    # kind is the counter-least.  Conjugation preserves every
                    # witness predicate (the spectrum, generation, and whether
                    # the complement is a subgroup), so it is also the
                    # counter-least member of its orbit, the one a reduced
                    # scan keeps, and hence the least witness overall.
                    least[row[0]] = _witness(group, *row)
            next_counter = s + part_stats.subsets_enumerated
            stats.wall_time_ms = wall_base + (time.monotonic() - t0) * 1000.0
            note_progress()
            if witness_limit is not None and len(witnesses) >= witness_limit:
                if pool is not None:
                    pool.shutdown(cancel_futures=True)
                break

    stats.wall_time_ms = wall_base + (time.monotonic() - t0) * 1000.0
    exhausted = next_counter == total
    note_progress()
    return GroupVerdict(
        group_label=group.label,
        property_name=property_name,
        holds=False if stats.property_violations else (True if exhausted else None),
        exhausted=exhausted,
        witnesses=tuple(witnesses),
        stats=stats,
        least_witnesses=tuple(sorted(least.values(), key=lambda w: w.counter)),
    )


def is_cayley_integral(group: FiniteGroup, **kwargs) -> GroupVerdict:
    """Does every symmetric subset of the group have integral spectrum?

    Disconnected graphs are unions of translates of the subgroup-level
    graph, so scanning all subsets rather than generating ones only is
    equivalent and also covers every subgroup.
    """
    return exhaustive_scan(group, "cayley_integral", **kwargs)


def is_cis(group: FiniteGroup, **kwargs) -> GroupVerdict:
    """Are integral generating subsets exactly the subgroup complements?

    Complements of proper subgroups always give connected, complete
    multipartite, integral graphs, so only the forward direction can
    fail; the scan still guards the converse on every subset it visits.
    """
    return exhaustive_scan(group, "cis", **kwargs)


# the violation kind that refutes each property
WITNESS_KIND = {"cayley_integral": "nonintegral", "cis": "integral_noncomplement"}


def symmetric_subsets(group: FiniteGroup) -> Iterator[SymmetricSubset]:
    """Stream every symmetric subset of the group in counter order."""
    family = SubsetFamily.of(group)
    total = family.subset_count
    for start in range(0, total, _CHUNK):
        counters = np.arange(start, min(start + _CHUNK, total), dtype=np.uint64)
        for m in _masks_of_counters(counters, family.mask_tables).tolist():
            yield SymmetricSubset(group, m)


def find_witness(
    group: FiniteGroup, kind: str, *, force: bool = False
) -> Optional[SymmetricSubset]:
    """Least symmetric subset of the given witness kind, in counter order.

    nonintegral: the spectrum has a non-integer eigenvalue.
    integral_noncomplement: integral and generating, yet the complement
    together with the identity is not a subgroup.

    Runs an unreduced scan of the property the kind refutes
    (cayley_integral or cis), stopped at its first violation, so the
    returned subset is the counter-least witness overall.  None means no
    subset qualifies.
    """
    prop = next((p for p, k in WITNESS_KIND.items() if k == kind), None)
    if prop is None:
        raise ValueError(f"unknown witness kind {kind!r}")
    gv = exhaustive_scan(group, prop, reduce_orbits=False, force=force, witness_limit=1)
    if not gv.witnesses:
        return None
    w = gv.witnesses[0]
    if w.kind != kind:
        raise RuntimeError(f"scan guard fired on {group.label}: {w.to_json_dict()}")
    return SymmetricSubset(group, w.bits)
