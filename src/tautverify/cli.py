"""Command-line entry point; USAGE below is its synopsis.

Exit code 0 means every check run passed; 1 a failed check (a check that
raises fails, naming the error), or a computed result whose check fails; 2
a usage error or a configuration error (a bad or empty data dir, an unknown
name, a JSON report that cannot be written).
"""

from __future__ import annotations

import sys

from .checks import Run, _run_one, export_report, run_all, run_check
from .data import COMPUTED, Repo
from .errors import TautVerifyError, UnknownNameError
from .linalg import _number
from .rings import TautClass
from .surfaces import evaluate


USAGE = """\
usage: tautverify [--data-dir DIR] run-all [--json OUT]
       tautverify [--data-dir DIR] check ID
       tautverify [--data-dir DIR] show-class NAME
       tautverify [--data-dir DIR] eval --surface ID --class NAME
"""
# each subcommand's arguments by synopsis name, a positional first; all but --json are required
COMMANDS = {"run-all": ("--json",), "check": ("ID",), "show-class": ("NAME",), "eval": ("--surface", "--class")}


def _parse(argv: list[str]) -> dict[str, str] | None:
    """Argument values by synopsis name, the subcommand as "command"; None for help, ValueError off the synopsis."""
    args: dict[str, str] = {}
    names: tuple[str, ...] = ("--data-dir",)
    words = iter(argv)
    for word in words:
        if word in ("-h", "--help"):
            return None
        if len(word) > 1 and word[0] == "-":
            name, eq, value = word.partition("=")
            if name not in names:
                raise ValueError(f"unrecognized arguments: {word}")
            if not eq:
                value = next(words, None)
                if value is None or len(value) > 1 and value[0] == "-":
                    raise ValueError(f"argument {name}: expected one argument")
            args[name] = value
        elif "command" not in args:
            if word not in COMMANDS:
                raise ValueError(f"invalid subcommand {word!r} (choose from {', '.join(COMMANDS)})")
            args["command"], names = word, COMMANDS[word]
        elif names[0][0] != "-" and names[0] not in args:
            args[names[0]] = word
        else:
            raise ValueError(f"unrecognized arguments: {word}")
    missing = [n for n in names if n not in args and n != "--json"] if "command" in args else ["subcommand"]
    if missing:
        raise ValueError(f"the following arguments are required: {', '.join(missing)}")
    return args


def _format_class(c: TautClass) -> str:
    basis = c.space.basis(c.degree)
    entries = [f"  {basis[i]:10s} {_number(n, d)}" for i, n, d in c.support]
    return "\n".join(entries) if entries else "  0"


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parse(sys.argv[1:] if argv is None else argv)
    except ValueError as exc:
        sys.stderr.write(f"{USAGE}tautverify: error: {exc}\n")
        return 2
    if args is None:
        sys.stdout.write(USAGE)
        return 0
    try:
        repo = Repo(args.get("--data-dir"))
    except TautVerifyError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    try:
        if args["command"] == "run-all":
            report = run_all(repo)
            sys.stdout.write(export_report(report, "human"))
            if (out := args.get("--json")) is not None:
                try:
                    with open(out, "w", encoding="utf-8") as fh:
                        fh.write(export_report(report, "json"))
                except OSError as exc:
                    print(f"configuration error: cannot write report {out!r}: {exc.strerror}", file=sys.stderr)
                    return 2
            return 0 if report.all_passed else 1

        if args["command"] == "check":
            result = run_check(args["ID"], repo)
            status = "PASS" if result.passed else "FAIL"
            print(f"[{status}] {result.id}  ({result.micros} us)")
            print(f"       {result.anchor}")
            print(f"       expected: {result.expected}")
            if not result.passed:
                print(f"       actual:   {result.actual}")
            return 0 if result.passed else 1

        # show-class and eval: a computed result only once its one check agrees
        name = args["NAME" if args["command"] == "show-class" else "--class"]
        functional = repo.functional(args["--surface"]) if args["command"] == "eval" else None
        check_id, _ = COMPUTED.get(name, (None, None))
        if check_id is None:
            c, source = repo.catalog_class(name), repo.catalog_source(name)
        else:
            run = Run(repo)
            if not _run_one(check_id, run).passed:
                print(f"error: {name} is computed by the {check_id} check, which fails", file=sys.stderr)
                return 1
            c, source = run.cls(name), f"computed by the {check_id} check"
        if functional is not None:
            print(f"<{args['--surface']}, {name}> = {evaluate(functional, c)}")
            return 0
        print(f"{name}  (space {c.space.id}, degree {c.degree})")
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
