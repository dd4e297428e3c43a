"""Shared fixtures.

Heavy scans and suite runs are session-scoped so the acceptance tests
reuse one computation instead of repeating minutes-long work.
"""

import os

import pytest

from cayley_spectra import catalog
from cayley_spectra.search import exhaustive_scan
from cayley_spectra.suites import run_suite


@pytest.fixture(scope="session")
def suite_report():
    """Getter for suite reports, computed once each per session."""
    cache = {}

    def get(name, threads=1):
        key = (name, threads)
        if key not in cache:
            cache[key] = run_suite(name, threads=threads)
        return cache[key]

    return get


@pytest.fixture(scope="session")
def q8z22_scan():
    """Full reduced tally scan of the order-32 sporadic group, with up to
    4 workers but no more than the cores this process may run on."""
    g = catalog.build_cached("Q8xZ2^2")
    workers = min(4, len(os.sched_getaffinity(0)))
    return exhaustive_scan(
        g, "cayley_integral", reduce_orbits=True, workers=workers, witness_limit=None
    )


@pytest.fixture(scope="session")
def catalog_12():
    return catalog.catalog_up_to_12()
