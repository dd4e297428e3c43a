"""The benchmark's tracer finds every layer entry point it wraps.

bench/tracer.py looks its ENTRY_POINTS up by name with
inspect.getattr_static and, when one is missing, silently drops that
layer from the per-layer numbers.  A rename or a move inside the
package would blind the benchmark without failing it, so this test
resolves each row against the loaded package.
"""

import importlib
import importlib.util
import inspect
import pathlib

import pytest

TRACER = pathlib.Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def _entry_points():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.ENTRY_POINTS


@pytest.mark.parametrize("modname,path,layer", _entry_points())
def test_tracer_entry_point_resolves(modname, path, layer):
    owner = importlib.import_module(modname)
    owner_path, _, attr = path.rpartition(".")
    for part in filter(None, owner_path.split(".")):
        owner = inspect.getattr_static(owner, part)
    raw = inspect.getattr_static(owner, attr, None)
    assert raw is not None, f"{modname}.{path} ({layer}) is gone"
    func = raw.__func__ if isinstance(raw, (classmethod, staticmethod)) else raw
    assert callable(func), f"{modname}.{path} ({layer}) is not callable"


def test_scan_counters_binds_its_range_by_name():
    """The tracer's search.predicate hook reads the range a _scan_counters
    call covers from its start and end arguments, by name; without them
    it counts no subsets and says nothing."""
    from cayley_spectra import search

    params = inspect.signature(search._scan_counters).parameters
    assert {"start", "end"} <= set(params)
