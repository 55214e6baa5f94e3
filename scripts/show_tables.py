#!/usr/bin/env python3
"""Print the intersection table of every two-dimensional test family,
with provenance (derived from the lattice, stated directly, or overridden).
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from tautverify.data import SURFACE_IDS, Repo
from tautverify.surfaces import OVERRIDE

if __name__ == "__main__":
    repo = Repo(sys.argv[1]) if len(sys.argv) > 1 else Repo()
    for sid in SURFACE_IDS:
        functional = repo.functional(sid)
        space = functional.space
        print(f"{sid}  (target {space.id})")
        for label in list(space.codim2_basis) + sorted(
            set(functional.values) - set(space.codim2_basis)
        ):
            value = functional.values[label]
            if value == 0:
                continue
            print(f"  {label:12s} {str(value):>8s}   [{functional.provenance[label]}]")
        for label, provenance in functional.provenance.items():
            if provenance == OVERRIDE:
                print(f"  note: {label} overrides the lattice value {functional.derived[label]}")
        print()
