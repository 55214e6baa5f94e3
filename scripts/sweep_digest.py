#!/usr/bin/env python3
"""Print one line per perturbed input: the behaviour digest of the verifier.

The sites are the unperturbed control run, every numeric site of the
definition files raised by 1 (the site list of ``perfbench/sweep.py``),
every numeric site of the golden file raised by 1, and every key or list
entry of the golden file deleted (``comment`` and ``anchor`` keys skipped).
Each site runs ``Repo(dir)`` and ``run_all`` on a copy of the data dir in a
temporary directory and prints

    <site> <class> <exception type or -> <sha256 prefix> [<failing checks>]

where the hash covers the canonical JSON report, or the exception text with
the data-dir path stripped, and a ``caught`` line ends with the sorted,
comma-separated ids of the checks that fail.  A refactor must leave the
output byte-identical to ``tests/data/sweep_digest.txt``:

    python3 scripts/sweep_digest.py > digest.txt
    cmp digest.txt tests/data/sweep_digest.txt
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

import sweep  # noqa: E402
from tautverify.checks import run_all  # noqa: E402
from tautverify.data import Repo  # noqa: E402
from tautverify.errors import TautVerifyError  # noqa: E402

DATA = ROOT / "src" / "tautverify" / "data"
SKIPPED_KEYS = ("comment", "anchor")


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def outcome(work: Path) -> str:
    """`<class> <exception type or -> <hash> [<failing checks>]` of one load and run over `work`."""
    try:
        repo = Repo(work)
    except TautVerifyError as exc:
        return _failed(sweep.REJECTED, exc, work)
    except Exception as exc:  # an escape is a digest line, not a crash of the digest
        return _failed(sweep.ABORTED, exc, work)
    try:
        report = run_all(repo)
    except Exception as exc:  # same: a check that raises aborts the run
        return _failed(sweep.ABORTED, exc, work)
    line = f"- {_digest(report.to_json())}"
    if report.all_passed:
        return f"{sweep.UNDETECTED} {line}"
    return f"{sweep.CAUGHT} {line} {','.join(sorted(r.id for r in report.results if not r.passed))}"


def _failed(cls: str, exc: Exception, work: Path) -> str:
    text = str(exc).replace(str(work.resolve()), "DATA").replace(str(work), "DATA")
    return f"{cls} {type(exc).__name__} {_digest(text)}"


def _node_paths(node, path=()):
    """Every key and list entry under `node` in document order, skipped keys left out."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for k, v in items:
        if k not in SKIPPED_KEYS:
            yield path + (k,)
            yield from _node_paths(v, path + (k,))


def deleted_text(site: tuple[str, tuple]) -> str:
    """The site's file with the key or list entry at its JSON path removed."""
    rel, path = site
    doc = json.loads((DATA / rel).read_text(encoding="utf-8"))
    node = doc
    for key in path[:-1]:
        node = node[key]
    del node[path[-1]]
    return json.dumps(doc, indent=1) + "\n"


# how each kind of site changes its file: "+1" raises a number, "del" removes an entry
EDITS = {"+1": lambda site: sweep.perturbed_text(DATA, site), "del": deleted_text}


def site_line(work: Path, op: str, site: tuple[str, tuple]) -> str:
    """The digest line of one site, run over the copy `work` of the data dir."""
    with sweep.applied(DATA, work, site, EDITS[op](site)):
        return f"{op}:{sweep.site_name(site)} {outcome(work)}"


def main() -> int:
    golden = json.loads((DATA / sweep.GOLDEN).read_text(encoding="utf-8"))
    raised = sweep.enumerate_sites(DATA) + [(sweep.GOLDEN, p) for p in sweep._leaf_paths(golden)]
    deleted = [(sweep.GOLDEN, p) for p in _node_paths(golden)]
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp) / "data"
        sweep.write_copy(DATA, work)
        print(f"control {outcome(work)}")
        for site in raised:
            print(site_line(work, "+1", site))
        for site in deleted:
            print(site_line(work, "del", site))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
