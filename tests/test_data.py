import gc
import json
import os
import shutil
import subprocess
import sys
import weakref
from importlib import resources
from pathlib import Path

import pytest

import tautverify
from tautverify.checks import run_all
from tautverify.cli import main
from tautverify.data import Repo
from tautverify.errors import DataError, MissingImageError, UnknownNameError


def _copy_embedded(tmp_path: Path) -> Path:
    src = resources.files("tautverify").joinpath("data")
    with resources.as_file(src) as p:
        shutil.copytree(p, tmp_path / "data")
    return tmp_path / "data"


def test_override_dir_loads_identically(repo, tmp_path):
    data_dir = _copy_embedded(tmp_path)
    other = Repo(data_dir)
    # spaces compare by identity, so classes of two loads compare by content
    mine, theirs = repo.catalog_class("Hyp4"), other.catalog_class("Hyp4")
    assert (theirs.space.id, theirs.degree, theirs.support) == (mine.space.id, mine.degree, mine.support)
    assert theirs.space is not mine.space
    assert other.functional("T2").values == repo.functional("T2").values


def test_missing_file_is_data_error(tmp_path):
    data_dir = _copy_embedded(tmp_path)
    (data_dir / "catalog.json").unlink()
    with pytest.raises(DataError):
        Repo(data_dir)


def test_bad_relation_rejected(tmp_path):
    data_dir = _copy_embedded(tmp_path)
    path = data_dir / "spaces" / "m4.json"
    raw = json.loads(path.read_text())
    raw["relations"].append({"lam*d2": 1})  # does not reduce to zero
    path.write_text(json.dumps(raw))
    with pytest.raises(DataError):
        Repo(data_dir)


def test_bad_relation_error_names_its_path_and_writes_values_as_the_file_does(tmp_path):
    data_dir = _copy_embedded(tmp_path)
    path = data_dir / "spaces" / "m22.json"
    raw = json.loads(path.read_text())
    raw["relations"][0]["d1_1*d1_12"] = 13
    raw["relations"][0]["d0*d1_12"] = "-1/2"
    path.write_text(json.dumps(raw))
    with pytest.raises(DataError) as err:
        Repo(data_dir)
    assert str(err.value) == (
        "spaces/m22.json: M22: relations/0 {d1_1*d1_12: 13, d1_12^2: 12, d0*d1_12: -1/2} does not reduce to zero"
    )


def test_a_table_map_lists_every_codim2_label(tmp_path):
    # a zero image is written {}; an unlisted label is a load error, never a zero
    data_dir = _copy_embedded(tmp_path)
    path = data_dir / "homs" / "p_star_pushforward.json"
    raw = json.loads(path.read_text())
    del raw["table_images"]["lam^2"]
    path.write_text(json.dumps(raw))
    with pytest.raises(MissingImageError) as err:
        Repo(data_dir)
    assert str(err.value) == "homs/p_star_pushforward.json: p_star_pushforward: no table entry for 'lam^2'"


def test_uncovered_special_rejected(tmp_path):
    data_dir = _copy_embedded(tmp_path)
    path = data_dir / "surfaces" / "v1.json"
    raw = json.loads(path.read_text())
    del raw["direct_values"]["gamma1"]
    path.write_text(json.dumps(raw))
    with pytest.raises(DataError):
        Repo(data_dir)


def test_bad_count_decomposition_rejected(tmp_path):
    # an error the package raises itself keeps its type and gains the file name
    data_dir = _copy_embedded(tmp_path)
    path = data_dir / "counts.json"
    raw = json.loads(path.read_text())
    raw["constants"][0]["value"] += 1  # decomposition no longer matches
    path.write_text(json.dumps(raw))
    with pytest.raises(DataError) as err:
        Repo(data_dir)
    assert str(err.value) == "counts.json: count constant 'weierstrass_g2': decomposition gives 6, stored 7"


def test_asymmetric_gram_rejected(tmp_path):
    data_dir = _copy_embedded(tmp_path)
    path = data_dir / "surfaces" / "s1.json"
    raw = json.loads(path.read_text())
    raw["gram"] = [[0, 1], [2, 0]]
    path.write_text(json.dumps(raw))
    with pytest.raises(DataError):
        Repo(data_dir)


def test_unknown_lookups(repo):
    with pytest.raises(UnknownNameError):
        repo.space("M99")
    with pytest.raises(UnknownNameError):
        repo.hom("q_star")
    with pytest.raises(UnknownNameError):
        repo.functional("Z9")
    with pytest.raises(UnknownNameError):
        repo.formal_class("missing")


def test_all_catalog_classes_well_formed(repo):
    catalog = json.loads(resources.files("tautverify").joinpath("data", "catalog.json").read_text())
    for name, entry in catalog["classes"].items():
        c = repo.catalog_class(name)
        assert c.space is repo.space(entry["space"])
        assert all(0 <= i < len(c.space.basis(c.degree)) for i, _, _ in c.support)


def test_a_dropped_load_is_freed_without_the_cycle_collector():
    # classes point at their space, so the space must not point back at
    # classes: a reference cycle would keep every dropped load alive until
    # the cycle collector runs
    gc.disable()
    try:
        repo = Repo()
        run_all(repo)
        space = weakref.ref(repo.space("M31"))
        del repo
        assert space() is None
    finally:
        gc.enable()


def test_package_data_globs_ship_every_data_file():
    # every other test imports the source tree, so only this one notices a
    # data file that an installed package would leave out
    tomllib = pytest.importorskip("tomllib")
    root = Path(__file__).resolve().parent.parent
    config = tomllib.loads((root / "pyproject.toml").read_text(encoding="utf-8"))
    package = root / "src" / "tautverify"
    globs = config["tool"]["setuptools"]["package-data"]["tautverify"]
    shipped = {p for pattern in globs for p in package.glob(pattern) if p.is_file()}
    present = {p for p in (package / "data").rglob("*") if p.is_file()}
    assert shipped == present


def test_import_leaves_importlib_resources_unloaded():
    # the default data root is the directory beside the module; -S keeps out
    # site hooks that import importlib.resources on their own
    src = Path(tautverify.__file__).resolve().parent.parent
    code = "import sys, tautverify.cli; print(sorted(m for m in sys.modules if m.startswith('importlib.resources')))"
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout == "[]\n"


def test_a_cli_run_imports_no_argument_parser(tmp_path):
    # a cold run-all pays for every module it imports; the command line needs
    # neither argparse nor the gettext it imports, while cli still imports the
    # checks at its top and exposes the names a split timing of a cold run reads
    src = Path(tautverify.__file__).resolve().parent.parent
    code = (
        "import json, sys, tautverify.cli as cli\n"
        "imported = 'tautverify.checks' in sys.modules\n"
        "names = [n for n in ('Repo', 'run_all', 'export_report') if hasattr(cli, n)]\n"
        "code = cli.main(['run-all', '--json', sys.argv[1]])\n"
        "print(json.dumps([imported, names, code, [m for m in ('argparse', 'gettext') if m in sys.modules]]))"
    )
    env = {**os.environ, "PYTHONPATH": str(src)}
    argv = [sys.executable, "-S", "-c", code, str(tmp_path / "report.json")]
    out = subprocess.run(argv, env=env, capture_output=True, text=True, check=True)
    assert json.loads(out.stdout.splitlines()[-1]) == [True, ["Repo", "run_all", "export_report"], 0, []]
    assert (tmp_path / "report.json").is_file()


@pytest.mark.parametrize(
    "prefix, replace",
    [(b"\xff\xfe", True), (b"\xef\xbb\xbf", False)],
    ids=["not_utf8", "utf8_bom"],
)
def test_a_file_that_is_not_plain_utf8_json_is_a_data_error(tmp_path, capsys, prefix, replace):
    # bytes that are not UTF-8 fail to decode; a UTF-8 byte order mark decodes
    # but is no JSON; either way the error names the file and exits 2
    data_dir = _copy_embedded(tmp_path)
    path = data_dir / "spaces" / "m31.json"
    path.write_bytes(prefix + (b'{"id": "M31"}' if replace else path.read_bytes()))
    with pytest.raises(DataError, match="spaces/m31.json"):
        Repo(data_dir)
    assert main(["--data-dir", str(data_dir), "run-all"]) == 2
    assert "spaces/m31.json" in capsys.readouterr().err


def _set(*keys, value):
    def edit(raw):
        node = raw
        for key in keys[:-1]:
            node = node[key]
        node[keys[-1]] = value

    return edit


@pytest.mark.parametrize(
    "relpath, edit, label",
    [
        # a direct value on a basis product: only overrides may replace its lattice value
        ("surfaces/t1.json", _set("direct_values", "psi^2", value=999), "psi^2"),
        # a direct value on a basis label that special_products derives
        ("surfaces/v2.json", _set("direct_values", "d1|1", value=12345), "d1|1"),
        # a special product for a formal product, which has its Gram value already
        ("surfaces/v1.json", _set("special_products", "d0^2", value=[[[3, 0], [0, 1]]]), "d0^2"),
        # a label stated both as a direct value and as an override
        ("surfaces/t2.json", _set("direct_values", "psi*d21", value=-6), "psi*d21"),
        # a divisor reduction of a divisor basis label
        ("spaces/m21.json", _set("divisor_reductions", "d0", value={"d1": 7}), "d0"),
    ],
    ids=[
        "direct_on_basis_product",
        "direct_on_special_product",
        "special_on_formal_product",
        "stated_twice",
        "basis_divisor_reduction",
    ],
)
def test_input_that_load_would_drop_is_rejected(tmp_path, capsys, relpath, edit, label):
    data_dir = _copy_embedded(tmp_path)
    path = data_dir / relpath
    raw = json.loads(path.read_text())
    edit(raw)
    path.write_text(json.dumps(raw))
    with pytest.raises(DataError) as err:
        Repo(data_dir)
    assert str(err.value).startswith(f"{relpath}: ") and repr(label) in str(err.value)
    assert main(["--data-dir", str(data_dir), "run-all"]) == 2
    assert capsys.readouterr().err == f"configuration error: {err.value}\n"


def test_one_load_opens_every_data_file_once(monkeypatch):
    # a definition file that load forgets, or a stray file beside the ones
    # it reads, fails here
    opened = []
    read = Repo._read
    monkeypatch.setattr(Repo, "_read", lambda self, relpath: opened.append(relpath) or read(self, relpath))
    Repo()
    with resources.as_file(resources.files("tautverify").joinpath("data")) as data_dir:
        on_disk = sorted(p.relative_to(data_dir).as_posix() for p in data_dir.rglob("*.json"))
    assert sorted(opened) == on_disk and len(on_disk) == 27


def test_every_missing_or_unknown_field_of_a_definition_file_names_the_file_and_the_field(tmp_path):
    # each space, map, gluing, family and system file goes whole to its
    # constructor, so every field is a parameter: none may be missing and no
    # other may appear; a system without its one pushforward or coefficient
    # names both fields
    data_dir = _copy_embedded(tmp_path)
    dirs = ("spaces", "homs", "surfaces", "systems")
    relpaths = [f"{d}/{f}" for d in dirs for f in sorted(os.listdir(data_dir / d))]
    assert len(relpaths) == 24
    for relpath in relpaths:
        path = data_dir / relpath
        text = path.read_text()
        fields = [k for k in json.loads(text) if k != "comment"]
        edits = [({k: v for k, v in json.loads(text).items() if k != field}, field) for field in fields]
        edits.append(({**json.loads(text), "unexpected_field": []}, "unexpected_field"))
        for raw, field in edits:
            path.write_text(json.dumps(raw))
            with pytest.raises(DataError) as err:
                Repo(data_dir)
            assert relpath in str(err.value) and repr(field) in str(err.value), (relpath, field, str(err.value))
        path.write_text(text)
