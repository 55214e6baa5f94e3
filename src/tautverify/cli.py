"""Command-line entry point: tautverify [--data-dir DIR] <subcommand> ...

Subcommands:
  run-all     run every check; exit 0 iff all pass, 1 on any failure
  check ID    run one named check
  show-class  print a catalog input or a computed paper result over its basis
  eval        pair a family functional with such a class
Either exits 1 on a computed result whose check fails.  Exit code 2 signals
a configuration error (a bad or empty data dir, an unknown name, a JSON
report that cannot be written).
"""

from __future__ import annotations

import argparse
import sys

from .checks import Run, differing, export_report, run_all, run_check
from .data import COMPUTED, Repo
from .errors import TautVerifyError, UnknownNameError
from .linalg import _number
from .rings import TautClass
from .surfaces import evaluate


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tautverify",
        description="Exact-rational verification of intersection-theory computations on moduli of curves.",
    )
    parser.add_argument(
        "--data-dir",
        default=None,
        help="directory of definition files replacing the embedded copies",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_all = sub.add_parser("run-all", help="run every registered check")
    p_all.add_argument("--json", metavar="OUT", default=None, help="also write a JSON report")

    p_check = sub.add_parser("check", help="run one named check")
    p_check.add_argument("id", help="check id (see run-all output)")

    p_show = sub.add_parser("show-class", help="print a catalog or computed class")
    p_show.add_argument("name", help="catalog or computed class name")

    p_eval = sub.add_parser("eval", help="pair a family functional with a class")
    p_eval.add_argument("--surface", required=True, help="family id (S1..S3, T1..T3, V1..V4)")
    p_eval.add_argument("--class", dest="name", required=True, help="catalog or computed class name")
    return parser


def _format_class(c: TautClass) -> str:
    basis = c.space.basis(c.degree)
    entries = [f"  {basis[i]:10s} {_number(n, d)}" for i, n, d in c.support]
    return "\n".join(entries) if entries else "  0"


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        repo = Repo(args.data_dir)
    except TautVerifyError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2

    try:
        if args.command == "run-all":
            report = run_all(repo)
            sys.stdout.write(export_report(report, "human"))
            if args.json is not None:
                try:
                    with open(args.json, "w", encoding="utf-8") as fh:
                        fh.write(export_report(report, "json"))
                except OSError as exc:
                    print(f"configuration error: cannot write report {args.json!r}: {exc.strerror}", file=sys.stderr)
                    return 2
            return 0 if report.all_passed else 1

        if args.command == "check":
            result = run_check(args.id, repo)
            status = "PASS" if result.passed else "FAIL"
            print(f"[{status}] {result.id}  ({result.micros} us)")
            print(f"       {result.anchor}")
            print(f"       expected: {result.expected}")
            if not result.passed:
                print(f"       actual:   {result.actual}")
            return 0 if result.passed else 1

        # show-class and eval: a computed result only once its one check agrees
        functional = repo.functional(args.surface) if args.command == "eval" else None
        check_id, _ = COMPUTED.get(args.name, (None, None))
        if check_id is None:
            c, source = repo.catalog_class(args.name), repo.catalog_source(args.name)
        else:
            classes, parts = Run(repo).result(check_id)
            if differing(parts):
                print(f"error: {args.name} is computed by the {check_id} check, which fails", file=sys.stderr)
                return 1
            c, source = classes[args.name], f"computed by the {check_id} check"
        if functional is not None:
            print(f"<{args.surface}, {args.name}> = {evaluate(functional, c)}")
            return 0
        print(f"{args.name}  (space {c.space.id}, degree {c.degree})")
        if source:
            print(f"  source: {source}")
        print(_format_class(c))
        return 0
    except UnknownNameError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except TautVerifyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
