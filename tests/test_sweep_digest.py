import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PINNED = Path(__file__).parent / "data" / "sweep_digest.txt"

# one site of each outcome class; the full digest is compared in CI
SAMPLE = (
    ("+1", "catalog.json", ("classes", "Hyp4", "degree")),  # rejected at load
    ("+1", "surfaces/t2.json", ("base", "genus")),  # caught by a check
    ("+1", "catalog.json", ("classes", "Hyp3_M3", "coeffs", "lam")),  # caught: the cofactor solve is inconsistent
    ("+1", "surfaces/t3.json", ("direct_values", "d00")),  # undetected
    ("del", "golden_checks.json", ("basis_m31", "rank")),  # caught: the check raises KeyError and fails alone
    ("del", "golden_checks.json", ("surface_tables", "surfaces", "S1")),  # undetected
)


@pytest.fixture(scope="module")
def digest():
    spec = importlib.util.spec_from_file_location("sweep_digest", ROOT / "scripts" / "sweep_digest.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_sample_sites_reproduce_the_pinned_digest(digest, tmp_path):
    pinned = PINNED.read_text(encoding="utf-8").splitlines()
    assert len(pinned) == 1273
    work = tmp_path / "data"
    digest.sweep.write_copy(digest.DATA, work)
    assert f"control {digest.outcome(work)}" == pinned[0]
    for op, rel, path in SAMPLE:
        line = digest.site_line(work, op, (rel, path))
        assert line in pinned, line
