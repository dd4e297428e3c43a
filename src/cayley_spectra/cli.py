"""Command-line front end.

Commands:
  spectrum GROUP SUBSET   exact spectrum or non-integrality certificate
  check GROUP PREDICATE   exhaustive verdict for one group
  verify SUITE            run a verification suite, report pass/fail
  catalog list|show       enumerate or display catalog groups

Exit codes: 0 ok, 1 verification mismatch, 2 parse error, 3 asymmetric
subset, 4 exhaustive cap exceeded without --force, 5 unusable checkpoint,
6 a --json or --checkpoint path that cannot be opened, 7 a group order
or coefficient bound beyond what the exact arithmetic supports.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional

from . import __version__, catalog
from .catalog import GroupParseError
from .cayley import AsymmetricSubsetError, CayleyGraph, SymmetricSubset
from .groups import FiniteGroup
from .integrality import verdict
from .intlinalg import SizeLimitError
from .search import SCAN_ORDER_CAP, CheckpointError, ScanCapExceeded, exhaustive_scan
from .suites import SUITE_NAMES, run_suite

EXIT_OK = 0
EXIT_VERIFY_MISMATCH = 1
EXIT_PARSE_ERROR = 2
EXIT_ASYMMETRIC = 3
EXIT_CAP_EXCEEDED = 4
EXIT_CHECKPOINT = 5
EXIT_IO = 6
EXIT_SIZE_LIMIT = 7


def _canonical_json(d: dict) -> str:
    return json.dumps(d, indent=2, ensure_ascii=False) + "\n"


def _emit(payload: dict, json_path: Optional[str], *, also_stdout: bool) -> None:
    text = _canonical_json(payload)
    if json_path:
        with open(json_path, "w", encoding="utf-8") as f:
            f.write(text)
    if also_stdout or not json_path:
        sys.stdout.write(text)


def _default_threads() -> int:
    env = os.environ.get("CAYLEY_SPECTRA_THREADS")
    if env:
        try:
            n = int(env)
            if n >= 1:
                return n
        except ValueError:
            pass
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _threads(args) -> int:
    return args.threads if args.threads else _default_threads()


def _positive_int(text: str) -> int:
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {n}")
    return n


def _parse_subset(group: FiniteGroup, literal: str) -> SymmetricSubset:
    lit = literal.strip()
    if not lit:
        return SymmetricSubset(group, 0)
    if lit.lower().startswith("0x"):
        return SymmetricSubset(group, int(lit, 16))
    return SymmetricSubset.from_names(group, (s.strip() for s in lit.split(",")))


def _spectrum_line(v) -> str:
    if v.integral:
        body = ", ".join(
            f"{t}:{m}" for t, m in sorted(v.spectrum.items(), reverse=True)
        )
        return f"Integral {{{body}}}"
    ev = ", ".join(f"{x:.9f}" for x in v.float_evidence[:6])
    return (
        f"NonIntegral (integer eigenvalues account for "
        f"{v.integer_eigenspace_total} of {v.order}; float evidence {ev})"
    )


def cmd_spectrum(args) -> int:
    group = catalog.build_cached(args.group)
    subset = _parse_subset(group, args.subset)
    v = verdict(CayleyGraph(group, subset))
    print(
        f"group {args.group} (order {group.order}), "
        f"subset {{{', '.join(subset.member_names())}}} (degree {len(subset)})"
    )
    print(_spectrum_line(v))
    payload = {
        "schema": 1,
        "version": __version__,
        "group": args.group,
        "subset": subset.member_names(),
        "bits": hex(subset.bits),
        "verdict": v.to_json_dict(),
    }
    _emit(payload, args.json, also_stdout=False)
    return EXIT_OK


def cmd_check(args) -> int:
    group = catalog.build_cached(args.group)
    prop = args.predicate.replace("-", "_")
    gv = exhaustive_scan(
        group,
        prop,
        reduce_orbits=not args.no_reduce,
        workers=_threads(args),
        force=args.force,
        checkpoint=args.checkpoint,
        witness_limit=args.witness_limit,
    )
    payload = {"schema": 1, "version": __version__, **gv.to_json_dict()}
    _emit(payload, args.json, also_stdout=True)
    return EXIT_OK


def cmd_verify(args) -> int:
    report = run_suite(
        args.suite, reduce_orbits=not args.no_reduce, threads=_threads(args)
    )
    print(report.human_summary())
    if args.json:
        with open(args.json, "w", encoding="utf-8") as f:
            f.write(report.to_json())
    return EXIT_OK if report.ok else EXIT_VERIFY_MISMATCH


def cmd_catalog(args) -> int:
    if args.what == "list":
        if args.order is not None:
            pairs = catalog.all_groups_of_order(args.order)
        else:
            pairs = catalog.catalog_up_to_12()
        for expr, g in pairs:
            kind = "abelian" if g.is_abelian else "non-abelian"
            print(f"{expr:<12} order {g.order:<3} {kind}, exponent {g.exponent()}")
        payload = {
            "schema": 1,
            "version": __version__,
            "groups": [
                {
                    "expr": expr,
                    "order": g.order,
                    "abelian": g.is_abelian,
                    "exponent": g.exponent(),
                }
                for expr, g in pairs
            ],
        }
        if args.json:
            _emit(payload, args.json, also_stdout=False)
        return EXIT_OK
    # show
    if not args.expr:
        print("catalog show requires a group expression", file=sys.stderr)
        return EXIT_PARSE_ERROR
    g = catalog.build_cached(args.expr)
    print(f"{args.expr}: order {g.order}, exponent {g.exponent()}, "
          f"{'abelian' if g.is_abelian else 'non-abelian'}")
    width = max(len(n) for n in g.names)
    header = " " * (width + 2) + " ".join(n.rjust(width) for n in g.names)
    print(header)
    for a in g.elements():
        row = " ".join(g.names[g.table[a][b]].rjust(width) for b in g.elements())
        print(f"{g.names[a].rjust(width)} | {row}")
    payload = {
        "schema": 1,
        "version": __version__,
        "expr": args.expr,
        "order": g.order,
        "names": list(g.names),
        "table": [list(row) for row in g.table],
    }
    if args.json:
        _emit(payload, args.json, also_stdout=False)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="cayley-spectra",
        description="Exact integer spectra of Cayley graphs on small finite groups.",
    )
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--json", metavar="PATH", help="write canonical JSON here")
        sp.add_argument("--threads", type=_positive_int, metavar="N",
                        help="worker processes (default: available parallelism, "
                             "or CAYLEY_SPECTRA_THREADS)")
        sp.add_argument("--no-reduce", action="store_true",
                        help="disable conjugation-orbit reduction")

    sp = sub.add_parser("spectrum", help="exact spectrum of one Cayley graph")
    sp.add_argument("group", help="group expression, e.g. Z2^3 or Q8xZ2")
    sp.add_argument("subset", help='comma-separated element names, 0x<hex> bitmask, '
                                   'or "" for the empty set')
    sp.add_argument("--json", metavar="PATH", help="write canonical JSON here")
    sp.set_defaults(func=cmd_spectrum)

    sp = sub.add_parser("check", help="exhaustive verdict for one group")
    sp.add_argument("group")
    sp.add_argument("predicate", choices=["cayley-integral", "cis"])
    sp.add_argument("--witness-limit", type=_positive_int, default=1, metavar="K",
                    help="stop after K witnesses (default 1)")
    sp.add_argument("--force", action="store_true",
                    help=f"scan groups larger than the cap of {SCAN_ORDER_CAP}")
    sp.add_argument("--checkpoint", metavar="FILE", help="resumable scan state file")
    common(sp)
    sp.set_defaults(func=cmd_check)

    sp = sub.add_parser("verify", help="run a verification suite")
    sp.add_argument("suite", choices=list(SUITE_NAMES))
    common(sp)
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("catalog", help="list or show catalog groups")
    sp.add_argument("what", choices=["list", "show"])
    sp.add_argument("expr", nargs="?", help="group expression (for show)")
    sp.add_argument("--order", type=int, choices=range(1, 13), metavar="N",
                    help="restrict list to order N, 1..12")
    sp.add_argument("--json", metavar="PATH", help="write canonical JSON here")
    sp.set_defaults(func=cmd_catalog)

    return p


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ScanCapExceeded as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CAP_EXCEEDED
    except CheckpointError as e:
        print(f"checkpoint error: {e}", file=sys.stderr)
        return EXIT_CHECKPOINT
    except OSError as e:
        print(f"file error: {e}", file=sys.stderr)
        return EXIT_IO
    except SizeLimitError as e:  # before GroupParseError: the order cap is both
        print(f"size limit: {e}", file=sys.stderr)
        return EXIT_SIZE_LIMIT
    except GroupParseError as e:
        print(f"parse error: {e}", file=sys.stderr)
        return EXIT_PARSE_ERROR
    except AsymmetricSubsetError as e:
        print(f"subset error: {e}", file=sys.stderr)
        return EXIT_ASYMMETRIC
    except KeyError as e:
        print(f"parse error: unknown element name {e}", file=sys.stderr)
        return EXIT_PARSE_ERROR
    except ValueError as e:
        print(f"parse error: {e}", file=sys.stderr)
        return EXIT_PARSE_ERROR


if __name__ == "__main__":
    sys.exit(main())
