"""Self-test of the perturbed-input sweep over every site.

Checks that an unperturbed control copy of the data dir reproduces the
reference report byte for byte, classifies every site once, and classifies a
sample of sites (every aborted one among them) again to check that classes
repeat.  Prints the class counts and the exception type of each aborted
site; the last line is a JSON summary.  Exits 1 if the control or a repeat
disagrees.  Takes about a minute:

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
import shutil
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import sweep  # noqa: E402
from tautverify.checks import run_all  # noqa: E402
from tautverify.data import Repo  # noqa: E402

DATA = ROOT / "src" / "tautverify" / "data"
WORK = ROOT / ".bench_work"
COPY = WORK / "selftest"
REPEAT_EVERY = 8


def main() -> int:
    reference = run_all(Repo()).to_json()
    ok = True
    try:
        sweep.write_copy(DATA, COPY)
        cls, _, report = sweep.classify(COPY)
        control_ok = cls == sweep.UNDETECTED and report.to_json() == reference
        print(f"control: {cls}, report {'matches' if control_ok else 'differs from'} the reference")
        ok &= control_ok

        sites = sweep.enumerate_sites(DATA)
        outcome = {}
        for site in sites:
            with sweep.applied(DATA, COPY, site, sweep.perturbed_text(DATA, site)):
                outcome[site] = sweep.classify(COPY)[:2]
        counts = Counter(cls for cls, _ in outcome.values())
        aborted = {sweep.site_name(s): d for s, (c, d) in outcome.items() if c == sweep.ABORTED}
        print(f"{len(sites)} sites: " + ", ".join(f"{c} {counts[c]}" for c in sweep.CLASSES))
        for name, detail in aborted.items():
            print(f"  aborted {name}: {detail}")

        again = [s for i, s in enumerate(sites) if i % REPEAT_EVERY == 0 or outcome[s][0] == sweep.ABORTED]
        flips = []
        for site in again:
            with sweep.applied(DATA, COPY, site, sweep.perturbed_text(DATA, site)):
                if sweep.classify(COPY)[:2] != outcome[site]:
                    flips.append(sweep.site_name(site))
        print(f"repeat: {len(again)} sites, {len(flips)} changed class")
        ok &= not flips
    finally:
        shutil.rmtree(WORK, ignore_errors=True)

    summary = {
        "ok": ok,
        "sites": len(sites),
        "classes": {c: counts[c] for c in sweep.CLASSES},
        "aborted_types": dict(Counter(aborted.values())),
        "repeated": len(again),
        "changed": flips,
    }
    print(json.dumps(summary))
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
