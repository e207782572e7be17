"""Command-line front end: run verification suites, validate presentation files.

Exit codes: 0 when every check passes, 1 when a mathematical check fails,
2 for usage, file-format or I/O errors (including an unwritable ``--out``
path, which is detected before anything is printed).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import serialize
from .suites import SUITES, SuiteError, run_suite

EXIT_PASS = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rpencil",
        description="Verify Poisson pencils, quantum matrix algebras and "
        "generalized Lie brackets by exact computation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a verification suite")
    run.add_argument("--suite", required=True, help=f"one of: {', '.join(SUITES)}")
    run.add_argument("--n", type=int, default=2, help="matrix size (default 2)")
    run.add_argument(
        "--degree",
        type=int,
        default=None,
        help="completion degree bound (default: 4 for n=2, 3 otherwise)",
    )
    run.add_argument(
        "--mode",
        choices=("exact", "fast"),
        default="exact",
        help="exact keeps q, h, lam symbolic; fast specializes them to "
        "generic rationals",
    )
    run.add_argument("--seed", type=int, default=0, help="seed for randomized checks")
    run.add_argument("--out", default=None, help="also write the report to this path")

    parse = sub.add_parser("parse", help="validate a presentation file")
    parse.add_argument("path", help="JSON presentation file")
    return parser


def _write_atomic(path, text: str) -> None:
    """Write text to a temporary file beside path, then rename it into place."""
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except OSError:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)

    if args.command == "parse":
        try:
            obj = serialize.load(args.path)
        except serialize.FormatError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_USAGE
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_USAGE
        sys.stdout.write(serialize.dumps(obj))
        return EXIT_PASS

    try:
        report = run_suite(args.suite, args.n, args.degree, args.mode, args.seed)
    except SuiteError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    if args.out:
        try:
            _write_atomic(args.out, text)
        except OSError as exc:
            reason = exc.strerror or exc
            print(f"error: cannot write {args.out}: {reason}", file=sys.stderr)
            return EXIT_USAGE
    sys.stdout.write(text)
    return EXIT_PASS if report["verdict"] == "pass" else EXIT_CHECK_FAILED


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
