"""Span tracing of cayley_spectra's layer entry points, installed from outside.

The tracer replaces each entry point named in ENTRY_POINTS with a
wrapper that records a span (layer, start, end, parent span, operation)
and accumulates per-layer self time: a span's duration minus the part
its child spans cover.  The wrapper is bound wherever the original
function object is bound among the loaded cayley_spectra modules, so
names imported with ``from .x import f`` are traced too.  An entry
point that no longer exists is listed in ``absent`` and skipped; so is
the counting hook of one whose arguments or result changed shape.

Spans stay in memory (up to MAX_SPANS; later ones are only aggregated)
and are written out by ``dump`` when the run ends.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from array import array
from typing import Callable, Dict, List, Optional

# (home module, attribute path, layer)
ENTRY_POINTS = (
    ("cayley_spectra.catalog", "_build", "catalog.build"),
    ("cayley_spectra.search", "SubsetFamily.of", "search.family"),
    ("cayley_spectra.search", "SubsetFamily.conjugation_cell_perms", "search.family"),
    ("cayley_spectra.search", "exhaustive_scan", "search.driver"),
    ("cayley_spectra.search", "_scan_counters", "search.predicate"),
    ("cayley_spectra.search", "find_witness", "search.witness_pass"),
    ("cayley_spectra.search", "_masks_of_counters", "search.counter_to_mask"),
    ("cayley_spectra.search", "_canonical_keep", "search.orbit_filter"),
    ("cayley_spectra.integrality", "SpectraEngine.verdicts", "integrality.assemble"),
    ("cayley_spectra.integrality", "SpectraEngine.split_results", "integrality.lift_split"),
    ("cayley_spectra.integrality", "SpectraEngine._coeff_residues", "integrality.trace_walk"),
    ("cayley_spectra.integrality", "_newton_batch", "integrality.newton"),
    ("cayley_spectra.integrality", "SpectraEngine._float_evidence", "integrality.float_evidence"),
    ("cayley_spectra.intlinalg", "divide_by_linear", "intlinalg.divide"),
)

MAX_SPANS = 200_000
_FIELDS = 5  # layer, start_ns, end_ns, parent span (-1 for none), operation


def _bound_arg(fn: Callable, name: str, args: tuple, kwargs: dict):
    try:
        return inspect.signature(fn).bind(*args, **kwargs).arguments.get(name)
    except (TypeError, ValueError):
        return None


class Tracer:
    def __init__(self) -> None:
        self.layers: List[str] = []
        self._layer_ids: Dict[str, int] = {}
        self.self_ns: List[int] = []
        self.total_ns: List[int] = []
        self.calls: List[int] = []
        self.counts: Dict[str, int] = {}
        self.spans = array("q")
        self.dropped = 0
        self.absent: List[str] = []
        self._stack: List[list] = []  # [layer, start_ns, child_ns, span index]
        self._op = -1
        self._restore: List[tuple] = []

    # -- bookkeeping ----------------------------------------------------

    def layer_id(self, name: str) -> int:
        lid = self._layer_ids.get(name)
        if lid is None:
            lid = self._layer_ids[name] = len(self.layers)
            self.layers.append(name)
            self.self_ns.append(0)
            self.total_ns.append(0)
            self.calls.append(0)
        return lid

    def count(self, key: str, k: int) -> None:
        self.counts[key] = self.counts.get(key, 0) + k

    def in_layer(self, name: str) -> bool:
        lid = self._layer_ids.get(name)
        return any(frame[0] == lid for frame in self._stack)

    def call(self, layer: str, fn: Callable, *args):
        """Run fn(*args) as the root span of a new operation."""
        self._op += 1
        return self._wrap(fn, layer, None)(*args)

    # -- installing wrappers --------------------------------------------

    def _wrap(self, fn: Callable, layer: str, hook: Optional[Callable]) -> Callable:
        lid = self.layer_id(layer)
        stack, spans = self._stack, self.spans
        self_ns, total_ns, calls = self.self_ns, self.total_ns, self.calls
        clock = time.perf_counter_ns
        cap = MAX_SPANS * _FIELDS
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            # kept inline: this runs about 40 times per verdict
            start = clock()
            idx = -1
            if len(spans) < cap:
                idx = len(spans) // _FIELDS
                spans.extend((lid, start, 0, stack[-1][3] if stack else -1, tracer._op))
            else:
                tracer.dropped += 1
            frame = [lid, start, 0, idx]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                self_ns[lid] += dur - frame[2]
                total_ns[lid] += dur
                calls[lid] += 1
                if idx >= 0:
                    spans[idx * _FIELDS + 2] = end
                if stack:
                    stack[-1][2] += dur
            if hook is not None:
                try:
                    hook(fn, args, kwargs, result)
                except (AttributeError, IndexError, KeyError, TypeError):
                    # the entry point changed shape: its counts are lost
                    if layer + " counts" not in tracer.absent:
                        tracer.absent.append(layer + " counts")
            return result

        return traced

    def install(self) -> None:
        hooks = self._hooks()
        for modname, path, layer in ENTRY_POINTS:
            mod = sys.modules.get(modname)
            owner_path, _, attr = path.rpartition(".")
            owner = mod
            for part in filter(None, owner_path.split(".")):
                owner = getattr(owner, part, None)
            raw = inspect.getattr_static(owner, attr, None) if owner is not None else None
            if raw is None:
                self.absent.append(f"{modname}.{path}")
                continue
            hook = hooks.get(path)
            if isinstance(raw, (classmethod, staticmethod)):
                new = type(raw)(self._wrap(raw.__func__, layer, hook))
            elif callable(raw):
                new = self._wrap(raw, layer, hook)
            else:
                self.absent.append(f"{modname}.{path}")
                continue
            if owner is mod:
                # rebind every alias among the package's modules
                for name, m in list(sys.modules.items()):
                    if name.split(".")[0] != "cayley_spectra" or m is None:
                        continue
                    for key, val in list(vars(m).items()):
                        if val is raw:
                            self._restore.append((m, key, raw))
                            setattr(m, key, new)
            else:
                self._restore.append((owner, attr, raw))
                setattr(owner, attr, new)

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._restore):
            setattr(owner, attr, raw)
        self._restore.clear()

    def _hooks(self) -> Dict[str, Callable]:
        def split_results(fn, args, kwargs, result):
            self.count("verdicts", len(result))

        def coeff_residues(fn, args, kwargs, result):
            self.count("crt_prime_rows", len(result[1]) * len(result[2]))

        def scan_counters(fn, args, kwargs, result):
            start = _bound_arg(fn, "start", args, kwargs)
            end = _bound_arg(fn, "end", args, kwargs)
            if start is not None and end is not None:
                self.count("subsets_in", end - start)

        def masks_of_counters(fn, args, kwargs, result):
            if self.in_layer("search.witness_pass"):
                self.count("witness_subsets", len(result))
                self.count("subsets_in", len(result))

        return {
            "SpectraEngine.split_results": split_results,
            "SpectraEngine._coeff_residues": coeff_residues,
            "_scan_counters": scan_counters,
            "_masks_of_counters": masks_of_counters,
        }

    # -- results ----------------------------------------------------------

    def ns(self, table: List[int], layer: str) -> int:
        lid = self._layer_ids.get(layer)
        return 0 if lid is None else table[lid]

    def dump(self, path) -> None:
        """Write the spans kept in memory as JSON."""
        spans = self.spans.tolist()
        payload = {
            "fields": ["layer", "start_ns", "end_ns", "parent", "op"],
            "layers": self.layers,
            "spans": [spans[i : i + _FIELDS] for i in range(0, len(spans), _FIELDS)],
            "dropped": self.dropped,
            "absent": self.absent,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, separators=(",", ":"))
