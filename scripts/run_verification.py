#!/usr/bin/env python3
"""Run every verification suite and print a one-line result for each.

Writes canonical JSON reports under reports/ at the repository root and
exits nonzero if any suite fails.  Pass suite names to run a subset.
"""

import argparse
import pathlib
import sys
import time

from cayley_spectra.cli import _positive_int
from cayley_spectra.suites import SUITE_NAMES, run_suite


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    # checked below: Python 3.11's argparse also tests an empty nargs="*"
    # list against choices, so choices=SUITE_NAMES would reject no names
    ap.add_argument("suites", nargs="*", metavar="SUITE",
                    help=f"suite names from {', '.join(SUITE_NAMES)} (default: all)")
    ap.add_argument("--threads", type=_positive_int, default=1)
    ap.add_argument("--reports-dir", default=None)
    args = ap.parse_args()
    unknown = [s for s in args.suites if s not in SUITE_NAMES]
    if unknown:
        ap.error(f"unknown suite {unknown[0]!r}; choose from {', '.join(SUITE_NAMES)}")

    names = args.suites or list(SUITE_NAMES)
    out_dir = pathlib.Path(
        args.reports_dir
        or pathlib.Path(__file__).resolve().parent.parent / "reports"
    )
    out_dir.mkdir(parents=True, exist_ok=True)

    all_ok = True
    for name in names:
        t0 = time.monotonic()
        report = run_suite(name, threads=args.threads)
        dt = time.monotonic() - t0
        path = out_dir / f"{name}.json"
        path.write_text(report.to_json(), encoding="utf-8")
        status = "PASS" if report.ok else "FAIL"
        print(f"{name:<14} {status}  ({dt:6.1f}s, {len(report.groups)} groups, "
              f"{len(report.checks)} checks) -> {path}")
        all_ok = all_ok and report.ok
    print("all suites PASS" if all_ok else "SOME SUITES FAILED")
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
