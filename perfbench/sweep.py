"""Perturbed-input sweep: numeric sites of the definition files, perturbed
copies of the data dir, and the classification of one run over a copy.

A site is one int or rational-string leaf of a definition file.  Bools,
anything under a ``comment`` key, and ``golden_checks.json`` (the expected
values, not inputs) are left out.  A perturbation raises the number by 1.
"""

from __future__ import annotations

import contextlib
import json
import random
import re
import shutil
from fractions import Fraction
from pathlib import Path

GOLDEN = "golden_checks.json"
_RATIONAL = re.compile(r"-?\d+(/\d+)?")

REJECTED = "rejected"  # Repo raised a TautVerifyError: the fail-closed outcome
CAUGHT = "caught"  # at least one check FAILs
UNDETECTED = "undetected"  # every check passes
ABORTED = "aborted"  # an exception escaped run_all, or Repo raised a non-package error
CLASSES = (REJECTED, CAUGHT, UNDETECTED, ABORTED)


def definition_files(data_dir: Path) -> list[str]:
    """Relative paths of every definition file, sorted, golden file excluded."""
    return sorted(
        p.relative_to(data_dir).as_posix()
        for p in data_dir.rglob("*.json")
        if p.name != GOLDEN
    )


def _leaf_paths(node, path=()):
    if isinstance(node, dict):
        for k, v in node.items():
            if k != "comment":
                yield from _leaf_paths(v, path + (k,))
    elif isinstance(node, list):
        for i, v in enumerate(node):
            yield from _leaf_paths(v, path + (i,))
    elif isinstance(node, bool):
        return
    elif isinstance(node, int) or (isinstance(node, str) and _RATIONAL.fullmatch(node)):
        yield path


def enumerate_sites(data_dir: Path) -> list[tuple[str, tuple]]:
    """Every numeric site as (relative file, JSON path), in document order."""
    sites = []
    for rel in definition_files(data_dir):
        doc = json.loads((data_dir / rel).read_text(encoding="utf-8"))
        sites.extend((rel, path) for path in _leaf_paths(doc))
    return sites


def site_name(site: tuple[str, tuple]) -> str:
    rel, path = site
    return rel + ":" + "/".join(str(p) for p in path)


def perturbed_text(data_dir: Path, site: tuple[str, tuple]) -> str:
    """The site's file with the number at its JSON path raised by 1."""
    rel, path = site
    doc = json.loads((data_dir / rel).read_text(encoding="utf-8"))
    node = doc
    for key in path[:-1]:
        node = node[key]
    old = node[path[-1]]
    node[path[-1]] = old + 1 if isinstance(old, int) else str(Fraction(old) + 1)
    return json.dumps(doc, indent=1) + "\n"


def choose_sites(sites: list, count: int, seed: int) -> list:
    """One site drawn from each of `count` contiguous strata, in seeded order.

    Neighbouring sites tend to share an outcome class (a row of one Gram
    matrix, the relations of one space), so one draw per stratum keeps the
    class mix, and with it the cost of a pass, close to that of the whole
    site list for every seed.
    """
    rng = random.Random(seed)
    count = min(count, len(sites))
    bounds = [round(i * len(sites) / count) for i in range(count + 1)]
    chosen = [sites[rng.randrange(lo, hi)] for lo, hi in zip(bounds, bounds[1:])]
    rng.shuffle(chosen)
    return chosen


def write_copy(data_dir: Path, dest: Path) -> None:
    """Copy the data dir to `dest`, replacing any earlier copy."""
    if dest.exists():
        shutil.rmtree(dest)
    shutil.copytree(data_dir, dest)


@contextlib.contextmanager
def applied(data_dir: Path, work: Path, site: tuple[str, tuple], text: str):
    """Give the work copy `site`'s file with content `text`, then put the original back."""
    target = work / site[0]
    target.write_text(text, encoding="utf-8")
    try:
        yield work
    finally:
        shutil.copyfile(data_dir / site[0], target)


def classify(data_dir: Path):
    """Load `data_dir` and run every check; return (class, detail, report).

    `detail` is the exception type name for rejected and aborted runs.
    """
    from tautverify.checks import run_all
    from tautverify.data import Repo
    from tautverify.errors import TautVerifyError

    try:
        repo = Repo(data_dir)
    except TautVerifyError as exc:
        return REJECTED, type(exc).__name__, None
    except Exception as exc:  # the outcome under test: any escape is recorded, not raised
        return ABORTED, type(exc).__name__, None
    try:
        report = run_all(repo)
    except Exception as exc:  # same: a check that raises aborts the whole run today
        return ABORTED, type(exc).__name__, None
    return (UNDETECTED if report.all_passed else CAUGHT), "", report
