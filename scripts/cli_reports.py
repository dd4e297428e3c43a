#!/usr/bin/env python3
"""Write the JSON of a fixed set of `check` and `spectrum` commands.

    python3 scripts/cli_reports.py DIR

Runs every command in cases() in this process through the command-line
front end, with --json DIR/<name>.json and stdout discarded.  Two runs'
directories compare with scripts/diff_reports.py, which ignores
wall_time_ms.  Exits 1 if any command exits nonzero.
"""

import argparse
import contextlib
import io
import pathlib
import re
import sys

from cayley_spectra import cli

# run at --threads 1 and 2
CHECKS = [
    ["D4", "cayley-integral", "--witness-limit", "3"],
    ["SL2_3", "cayley-integral"],
    ["Dic12", "cayley-integral"],
    ["D6", "cis", "--witness-limit", "3"],
    ["S4", "cis"],
    ["S4", "cayley-integral", "--witness-limit", "5", "--no-reduce"],
    ["Q8xZ2", "cis", "--witness-limit", "4"],
    ["D8", "cis", "--witness-limit", "60"],  # the limit is reached past the first chunk
    ["Z27", "cis", "--witness-limit", "3"],  # scanned on Galois orbits of characters
    ["Dic12xZ2", "cayley-integral"],  # scanned on a product system
    ["S3xZ3", "cayley-integral"],
]
SPECTRA = [
    ["A4", "(13)(24),(14)(23),(123),(132)"],
    ["Z7", "0x42"],
    ["Z16", "0x8002"],
    ["Z8^2", "0x82"],
    ["Q8xZ2^2", "0x7e"],
]


def _name(argv):
    return re.sub(r"[^\w^]+", "-", "-".join(argv)).strip("-") + ".json"


def cases():
    """(report file name, argv) of every command."""
    for threads in ("1", "2"):
        for args in CHECKS:
            argv = ["check", *args, "--threads", threads]
            yield _name(argv), argv
    for args in SPECTRA:
        argv = ["spectrum", *args]
        yield _name(argv), argv


def write(out_dir: pathlib.Path, selected) -> int:
    """Run each (name, argv) with --json out_dir/name; the number that failed."""
    out_dir.mkdir(parents=True, exist_ok=True)
    failed = 0
    for name, argv in selected:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main([*argv, "--json", str(out_dir / name)])
        if code:
            print(f"{' '.join(argv)}: exit {code}")
            failed += 1
    return failed


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("dir", type=pathlib.Path)
    args = ap.parse_args()
    selected = list(cases())
    failed = write(args.dir, selected)
    print(f"wrote {len(selected) - failed} of {len(selected)} reports to {args.dir}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
