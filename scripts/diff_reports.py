#!/usr/bin/env python3
"""Compare the JSON reports in two directories, as written by
scripts/run_verification.py --reports-dir DIR or scripts/cli_reports.py DIR.

    python3 scripts/diff_reports.py DIR_A DIR_B

Every wall_time_ms key is stripped from both sides before comparing,
since reports are deterministic apart from those.  Prints the first
differing path of each differing report (or the report missing on one
side) and exits 1 on any difference, 0 when all reports match.
"""

import argparse
import json
import pathlib
import sys


def strip_timing(node):
    if isinstance(node, dict):
        return {k: strip_timing(v) for k, v in node.items() if k != "wall_time_ms"}
    if isinstance(node, list):
        return [strip_timing(v) for v in node]
    return node


def first_difference(a, b, path="$"):
    """Path of the first place where a and b differ, or None."""
    if type(a) is not type(b):
        return path
    if isinstance(a, dict):
        for key in list(a) + [k for k in b if k not in a]:
            if key not in a or key not in b:
                return f"{path}.{key}"
            found = first_difference(a[key], b[key], f"{path}.{key}")
            if found:
                return found
        return None
    if isinstance(a, list):
        for i, (x, y) in enumerate(zip(a, b)):
            found = first_difference(x, y, f"{path}[{i}]")
            if found:
                return found
        return f"{path}[{min(len(a), len(b))}]" if len(a) != len(b) else None
    return None if a == b else path


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("dir_a", type=pathlib.Path)
    ap.add_argument("dir_b", type=pathlib.Path)
    args = ap.parse_args()

    names = sorted({p.name for d in (args.dir_a, args.dir_b) for p in d.glob("*.json")})
    if not names:
        print("no reports found")
        return 1
    differ = 0
    for name in names:
        a, b = args.dir_a / name, args.dir_b / name
        if not (a.exists() and b.exists()):
            print(f"{name}: only in {a.parent if a.exists() else b.parent}")
            differ += 1
            continue
        found = first_difference(
            strip_timing(json.loads(a.read_text(encoding="utf-8"))),
            strip_timing(json.loads(b.read_text(encoding="utf-8"))),
        )
        if found:
            print(f"{name}: differs at {found}")
            differ += 1
    print(f"{len(names) - differ} of {len(names)} reports identical apart from wall_time_ms")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
