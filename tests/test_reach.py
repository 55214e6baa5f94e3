"""Every function in src/ is reached by some CLI run, bar a kept list.

A fresh interpreter imports the package and calls `cli.main` on every
subcommand, name and error path under `sys.setprofile`, so the functions run
at import count too.  Each reached code object is mapped to its AST
qualname by (file, first line): `co_qualname` only exists from 3.11 on.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

from tautverify.checks import check_ids
from tautverify.data import COMPUTED

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "tautverify"

# the functions no CLI run reaches, each kept with its reason; lambdas are exempt
KEPT = {
    "chern.character_from_chern": "reference oracle that the Chern tests compare against",
    "linalg.Inconsistent.__init__": "built only by a solve that is inconsistent, which the shipped data never is",
    "linalg.Inconsistent.__eq__": "compares a failing solve's certificate in a report part",
    "poly.TruncatedPoly.__str__": "formats the text of the DegreeError an impure Chern class raises",
    "rings.TautClass.__repr__": "pytest prints it in a failing assertion",
    "rings.TautClass.__sub__": "class difference with its space check: the oracle of the linearity and division tests",
    "rings.RingSpace.__repr__": "pytest prints it in a failing assertion",
    "rings._no_product": "the error for a product a space does not define",
    "surfaces.pair_on_surface": "reference oracle that the family tests compare against",
}

# runs in a fresh interpreter: prints the (file, first line) of every code
# object called
_SCAN = """
import json, sys
reached = set()

def hook(frame, event, arg):
    if event == "call":
        reached.add(frame.f_code)

sys.setprofile(hook)
from tautverify import cli
# load is the same on every call, so the shipped data is loaded once
Repo, shipped = cli.Repo, cli.Repo()
cli.Repo = lambda data_dir: shipped if data_dir is None else Repo(data_dir)
for argv in json.loads(sys.argv[1]):
    cli.main(argv)
sys.setprofile(None)
print(json.dumps(sorted({(c.co_filename, c.co_firstlineno) for c in reached})))
"""


def _definitions():
    """Each function of the package by (file, first line), as its qualified name.

    The first line is a code object's: a decorated function's starts at its
    first decorator.
    """
    found = {}

    def visit(node, module, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                name = "<lambda>" if isinstance(child, ast.Lambda) else child.name
                first = min([child.lineno] + [d.lineno for d in getattr(child, "decorator_list", [])])
                found[(module, first)] = qualname = f"{prefix}{name}"
                visit(child, module, f"{qualname}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                visit(child, module, f"{prefix}{child.name}.")
            else:
                visit(child, module, prefix)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path.stem, "")
    return found


def _argvs(tmp_path):
    catalog = json.loads((PACKAGE / "data" / "catalog.json").read_text(encoding="utf-8"))
    argvs = [["run-all", "--json", str(tmp_path / "report.json")]]
    argvs += [["check", cid] for cid in check_ids()]
    for name in [*catalog["classes"], *COMPUTED]:
        argvs.append(["show-class", name])
        # a family on M31 and one on M4: a class on another space, or of
        # another degree, takes eval's error path
        argvs += [["eval", "--surface", sid, "--class", name] for sid in ("S1", "V1")]
    argvs += [["check", "nonexistent"], ["show-class", "nonexistent"]]
    argvs.append(["--data-dir", str(tmp_path / "missing"), "run-all"])
    # usage errors and the help return before any load
    argvs += [[], ["bogus"], ["check"], ["run-all", "--json"], ["--help"]]
    return argvs


def test_every_function_but_the_kept_ones_is_reached(tmp_path):
    scan = subprocess.run(
        [sys.executable, "-c", _SCAN, json.dumps(_argvs(tmp_path))],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)},
        check=True,
    )
    reached = {(Path(f).stem, line) for f, line in json.loads(scan.stdout.splitlines()[-1]) if Path(f).parent == PACKAGE}
    unreached = {
        f"{module}.{qualname}"
        for (module, line), qualname in _definitions().items()
        if (module, line) not in reached and not qualname.endswith("<lambda>")
    }
    assert unreached == set(KEPT)
