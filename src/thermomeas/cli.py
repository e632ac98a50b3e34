"""Command-line front end: ``thermomeas check <file>`` and ``thermomeas sweep <file>``.

Exit codes: 0 when every requested check passes, 1 when some check fails,
2 on input errors (files that cannot be opened or are not UTF-8 JSON,
unknown checks, dimension mismatches, or checks whose mathematical
preconditions the scenario does not satisfy).
"""

from __future__ import annotations

import argparse
import json
import sys

from ._version import __version__
from .scenario import run_scenario, run_sweep


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="thermomeas",
        description="Validate thermodynamically free measurement schemes and "
        "the second-law properties of the instruments they induce.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="run the checks declared in a scenario file")
    check.add_argument("file", help="scenario JSON file")
    check.add_argument("--out", help="write the JSON report here instead of stdout")
    check.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    check.add_argument("--tol", type=float, default=None, help="override the default check tolerance")
    check.add_argument(
        "--timing", action="store_true",
        help="include wall time, in total and per check, in the report "
        "(breaks byte-reproducibility)",
    )

    sweep = sub.add_parser("sweep", help="run a scenario template over a beta grid or seed range")
    sweep.add_argument("file", help="sweep JSON file")
    sweep.add_argument("--out", help="write the CSV table here instead of stdout")
    sweep.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    sweep.add_argument("--tol", type=float, default=None, help="override the default check tolerance")
    return parser


def _fail(message: str) -> int:
    json.dump({"error": message}, sys.stderr)
    sys.stderr.write("\n")
    return 2


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "check":
            report = run_scenario(args.file, seed=args.seed, tol=args.tol)
            text, passed = report.to_json(include_timing=args.timing), report.verdict
            lines = [f"{name}: {'PASS' if ok else 'FAIL'}\n" for name, ok in report._verdicts]
        else:
            (text, passed), lines = run_sweep(args.file, seed=args.seed, tol=args.tol), []
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        sys.stdout.write("".join(lines) if args.out else text)
        return 0 if passed else 1
    except OSError as exc:  # missing, a directory, unreadable
        if exc.filename is None:
            raise
        return _fail(f"cannot open {exc.filename!r}: {exc.strerror}")
    except UnicodeDecodeError as exc:
        return _fail(f"{args.file!r} is not UTF-8 text: {exc}")
    except json.JSONDecodeError as exc:
        return _fail(f"invalid JSON in {args.file!r}: {exc.msg} at line {exc.lineno} column {exc.colno}")
    except ValueError as exc:  # ValidationError, PreconditionError, bad numerics
        return _fail(str(exc))


if __name__ == "__main__":
    sys.exit(main())
