import ast
import dataclasses
import json
import shutil
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from importlib import resources
from pathlib import Path

import pytest

from tautverify import checks, grr, linalg, rings, series, surfaces

from tautverify.checks import (
    CHECKS,
    Run,
    check_ids,
    compute_f31,
    compute_h4plus,
    compute_hyp31,
    export_report,
    run_all,
    run_check,
    solve_multiplicities,
)
from tautverify.cli import USAGE, main
from tautverify.counts import _freeze
from tautverify.data import COMPUTED, HOM_IDS, SPACE_IDS, SURFACE_IDS, SYSTEM_IDS, Repo
from tautverify.errors import UnknownLabelError, UnknownNameError
from tautverify.linalg import Inconsistent
from tautverify.rings import TautClass, divisor_product

from conftest import coeffs, is_exact_value

CANONICAL_REPORT = Path(__file__).parent / "data" / "canonical_report.json"
COMPUTED_CLASSES = Path(__file__).parent / "data" / "computed_classes.txt"


def test_run_all_passes(repo):
    report = run_all(repo)
    assert report.all_passed
    assert len(report.results) == len(CHECKS)


def test_run_check_grr_spin(repo):
    result = run_check("grr_spin", repo)
    assert result.passed
    assert "kappa1=-1/24" in result.expected
    assert "kappa3=7/5760" in result.expected


def test_run_check_unknown_id(repo):
    with pytest.raises(UnknownNameError):
        run_check("nonexistent", repo)


def test_checks_independent_of_order(repo):
    # rerunning in reverse order changes nothing: checks are pure
    forward = {c.id: run_check(c.id, repo) for c in CHECKS}
    for cid in reversed(check_ids()):
        again = run_check(cid, repo)
        assert (again.expected, again.actual, again.passed) == (
            forward[cid].expected,
            forward[cid].actual,
            forward[cid].passed,
        )


def test_json_export_is_byte_stable(repo):
    a = export_report(run_all(repo), "json")
    b = export_report(run_all(repo), "json")
    assert a == b
    doc = json.loads(a)
    assert set(doc) == {"version", "checks", "summary"}
    assert doc["summary"]["failed"] == 0
    assert doc["summary"]["total"] == len(CHECKS)
    for entry in doc["checks"]:
        assert set(entry) == {"id", "anchor", "expected", "actual", "passed", "micros"}


def test_human_export_lists_every_check(repo):
    text = export_report(run_all(repo), "human")
    for cid in check_ids():
        assert f" {cid} " in text or f" {cid}\n" in text


def test_multiplicity_solutions(repo):
    assignment, redundant, _ = solve_multiplicities("F31", Run(repo))
    assert assignment == {"m": 7, "n": 2, "k": 3, "l": 3, "j": 12}
    assert redundant == ["family:T1", "family:T2", "pushforward:d1"]
    assignment4, redundant4, _ = solve_multiplicities("H4plus", Run(repo))
    assert assignment4 == {"m": 320, "n": 2, "k": 96, "l": 216}
    assert redundant4 == ["family:V1", "family:V2", "family:V3", "family:V4", "coefficient:lam^2"]


# each system's (names, rows, rhs) as assembled from the shipped definitions;
# a row and the right-hand side are supports of (index, numerator, denominator)
ASSEMBLED = {
    "F31": (
        ["family:T1", "family:T2", "family:T3", "pushforward:lam", "pushforward:d0", "pushforward:d1"],
        [
            ((0, 18, 1), (1, 72, 1), (2, -6, 1)),
            ((0, 30, 1), (1, 80, 1), (2, 6, 1)),
            ((2, -3, 1), (3, 12, 1)),
            ((0, 72, 1), (1, 308, 1)),
            ((0, -8, 1), (1, -32, 1), (4, 1, 1)),
            ((0, -24, 1), (1, -76, 1)),
        ],
        ((0, 252, 1), (1, 388, 1), (2, 27, 1), (3, 1120, 1), (4, -108, 1), (5, -320, 1)),
    ),
    "H4plus": (
        ["family:V1", "family:V2", "family:V3", "family:V4", "coefficient:lam^2"],
        [
            ((0, 36, 1), (1, 4608, 1), (2, -24, 1)),
            ((0, 30, 1), (1, 3360, 1), (2, 6, 1)),
            ((2, -3, 1), (3, 12, 1)),
            ((2, -1, 1), (3, -2, 1)),
            ((0, 51, 4), (1, 2448, 1)),
        ],
        ((0, 18432, 1), (1, 16896, 1), (2, 2304, 1), (3, -528, 1), (4, 8976, 1)),
    ),
}


@pytest.mark.parametrize("system_id", sorted(ASSEMBLED))
def test_assembled_system_is_pinned(repo, system_id):
    names, rows, rhs = checks._assemble_system(Run(repo), repo.system(system_id))
    assert (list(names), [tuple(r) for r in rows], tuple(rhs)) == ASSEMBLED[system_id]


def test_computed_classes_match_catalog(repo):
    # each computed paper result equals its one statement, in the golden file
    m31, m4 = repo.space("M31"), repo.space("M4")
    hyp31 = compute_hyp31(Run(repo))[0]["Hyp31_theorem"]
    assert hyp31 == m31.from_dict(2, repo.golden["hyp31"]["class"])
    f31 = compute_f31(Run(repo))[0]["F31_theorem"]
    assert f31 == m31.from_dict(2, repo.golden["f31"]["class"])
    assert f31.coeff("kappa2") == 3
    h4plus = compute_h4plus(Run(repo))[0]["H4plus_theorem"]
    assert h4plus == m4.from_dict(2, repo.golden["h4plus"]["class"])
    assert h4plus.coeff("lam^2") == 2448
    run = Run(repo)
    assert run.cls("W2_M31") == m31.from_dict(2, repo.golden["w2_lemmas"]["m31_presentation"])
    assert run.cls("W2_M4") == m4.from_dict(2, repo.golden["w2_lemmas"]["m4_reduced"])


# string constants in checks.py that name a loaded space, map, gluing,
# catalog or formal class, family or system, or a COMPUTED class: a ratchet
# that ROADMAP item 8 drives to 0, so it may only go down
CHECKS_ID_LITERALS = 43


def test_checks_names_no_more_loaded_ids_than_before():
    catalog = json.loads(resources.files("tautverify").joinpath("data", "catalog.json").read_text())
    ids = {*SPACE_IDS, *HOM_IDS, *SURFACE_IDS, *SYSTEM_IDS, *COMPUTED, *catalog["classes"], *catalog["formal_classes"]}
    tree = ast.parse(Path(checks.__file__).read_text(encoding="utf-8"))
    named = [n.value for n in ast.walk(tree) if isinstance(n, ast.Constant) and n.value in ids]
    assert len(named) <= CHECKS_ID_LITERALS, Counter(named)


def test_no_computed_name_is_a_catalog_class(repo):
    # a paper result is stated once, in the golden file, never as an input
    catalog = json.loads(resources.files("tautverify").joinpath("data", "catalog.json").read_text())
    assert set(COMPUTED) and not set(COMPUTED) & set(catalog["classes"])
    for name in COMPUTED:
        with pytest.raises(UnknownNameError):
            repo.catalog_class(name)
    assert {check_id for check_id, _ in COMPUTED.values()} <= set(check_ids())


def test_each_computed_result_lies_on_the_space_computed_states(repo):
    # load checks a system's class: references against these spaces
    run = Run(repo)
    assert {name: (run.cls(name).space.id, run.cls(name).degree) for name in COMPUTED} == {
        name: (space_id, 2) for name, (_, space_id) in COMPUTED.items()
    }


def test_inconsistent_system_fails_with_certificate(tmp_path):
    # perturbing one published coefficient makes a multiplicity system
    # inconsistent: its check fails with a witness, never crashes, and the
    # zero class the assembly then gives fails that check's class part
    for check_id, space, name, label, value in (
        ("h4plus", "M4", "Theta_null_M4", "lam", 35),
        ("f31", "M31", "F31_pushforward_M3", "d1", -75),
    ):
        def edit(raw):
            raw["classes"][name]["coeffs"][label] = value

        broken = Repo(_data_copy_with(tmp_path / check_id, "catalog.json", edit))
        result = run_check(f"multiplicities_{check_id}", broken)
        assert not result.passed
        assert result.expected == "consistent: true"
        assert result.actual.startswith("consistent: false (witness rhs ")
        assembled = run_check(check_id, broken)
        assert not assembled.passed
        golden = broken.space(space).from_dict(2, broken.golden[check_id]["class"])
        assert assembled.expected.endswith(f"class: {checks._fmt(golden)}")
        assert assembled.actual.endswith("class: 0")


def test_failure_reports_minimal_diff(repo):
    # corrupt one golden entry: the failing check must name just that part
    import copy

    patched = copy.copy(repo)
    patched.golden = copy.deepcopy(repo.golden)
    patched.golden["lambda2_values"]["H4_minus"] = 5311
    result = run_check("lambda2_values", patched)
    assert not result.passed
    assert result.expected == "H4_minus: 5311"
    assert result.actual == "H4_minus: 5310"


def test_run_all_computes_shared_results_once_per_run(repo, monkeypatch):
    # one pass of each lambda^2 pipeline, each jet bundle built once (jet_chern
    # and the pipelines share its character and Chern classes), one solve per
    # multiplicity system and no family rebuilt; a second run on the same Repo
    # does it all again.
    # The maps' degree-2 images and the lattice pairings are built at load,
    # and each family pairs with a system's classes once per run.
    calls = Counter()

    def count(owner, name, key=None):
        original = getattr(owner, name)

        def counted(*args, **kwargs):
            calls[key or name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)

    count(grr, "porteous_c3")
    for module in (grr, checks):  # wherever they are imported
        for name in ("jet_bundle_chern", "jet_sum"):
            if hasattr(module, name):
                count(module, name)
    count(checks, "solve_multiplicities")
    count(checks, "solve_boundary_class")
    for name in ("compute_hyp31", "compute_w2", "compute_f31", "compute_h4plus"):
        count(checks, name)
    # each definition file's object is built by its class's constructor
    built = (rings.RingSpace, rings.RingHom, rings.GluingRestriction, surfaces.SurfaceFunctional)
    for cls in built:
        count(cls, "__init__", cls.__name__)
    for module in (rings, checks):
        count(module, "divisor_product")
    count(surfaces, "pair_on_surface")
    for module in (surfaces, checks):
        count(module, "evaluate")
    # the spin character is built once, at the top order, and truncated for
    # the lower orders
    count(grr, "todd_inverse")
    count(series, "series_inverse")
    # one forward pass per linear-algebra result: one per multiplicity system
    # gives its solve and its left kernel, and one each for the basis check's
    # two ranks and its family determinant, the two gluing solves and the
    # cofactor solve
    count(linalg, "_eliminate")
    # one object per definition file at load: 6 spaces, 4 maps, 2 gluing
    # restrictions and 10 families
    Repo()
    assert [calls[cls.__name__] for cls in built] == [6, 4, 2, 10]
    for _ in range(2):
        calls.clear()
        assert run_all(repo).all_passed
        assert (calls["porteous_c3"], calls["solve_multiplicities"]) == (2, 2)
        assert [calls[cls.__name__] for cls in built] == [0, 0, 0, 0]
        # each computed paper result is built once and read from the Run
        assert calls["solve_boundary_class"] == 2
        assert [calls[f] for f in ("compute_hyp31", "compute_w2", "compute_f31", "compute_h4plus")] == [1, 1, 1, 1]
        assert (calls["jet_bundle_chern"], calls["jet_sum"]) == (2, 2)
        # unit-class products are read from the table load built, not recomputed
        assert (calls["divisor_product"], calls["pair_on_surface"], calls["evaluate"]) == (7, 0, 52)
        assert (calls["todd_inverse"], calls["series_inverse"]) == (1, 1)
        assert calls["_eliminate"] == 8


def _profile(action, on_call):
    """Run `action()`, handing `on_call` the frame of every Python function call it makes."""

    def profile(frame, event, arg):
        if event == "call":
            on_call(frame)

    sys.setprofile(profile)
    try:
        action()
    finally:
        sys.setprofile(None)


# The budgets below are the counts measured on Python 3.10-3.13, all alike.
# A Fraction is counted as a call of Fraction.__new__ seen by sys.setprofile,
# which works alike on every interpreter (a wrapper of __new__ would not: its
# signature changed in 3.12); from 3.12 on, Fraction arithmetic makes its
# results without calling __new__, so 3.10 and 3.11 also count those.


def test_load_builds_fractions_only_for_values_read_as_fractions():
    # an exact value is an int unless it is not integral, and every other
    # number becomes an int pair where it is read (1,183 Fractions before the
    # numeric parser, 529 before whole numbers stayed ints)
    new = Fraction.__new__.__code__
    built = []
    _profile(Repo, lambda frame: built.append(frame.f_code is new))
    assert sum(built) <= 55


def test_a_warm_run_builds_fractions_only_for_non_integral_values(repo):
    # the kernels work on int pairs and return ints where a value is integral
    # (224 Fractions before whole numbers stayed ints, 33 before the solves
    # took their right-hand sides as supports)
    new = Fraction.__new__.__code__
    built = []
    run_all(repo)
    _profile(lambda: run_all(repo), lambda frame: built.append(frame.f_code is new))
    assert sum(built) <= 24


def test_a_warm_run_formats_each_part_once(repo):
    # parts hold values and _finish formats a passing part's expected value
    # only (504 calls to _fmt and _fmt_class when both sides of every part
    # were formatted to compare text)
    fmt = checks._fmt.__code__
    calls = []
    run_all(repo)
    _profile(lambda: run_all(repo), lambda frame: calls.append(frame.f_code is fmt))
    assert sum(calls) <= 204


def test_a_warm_run_builds_classes_through_the_plain_init(repo):
    # a dataclass __init__ costs several times the slotted class's
    assert not dataclasses.is_dataclass(rings.TautClass)
    init = rings.TautClass.__init__.__code__
    inits = []

    def record(frame):
        if frame.f_code.co_name == "__init__" and type(frame.f_locals.get("self")) is rings.TautClass:
            inits.append(frame.f_code is init)

    run_all(repo)
    _profile(lambda: run_all(repo), record)
    assert inits and all(inits)


def test_golden_values_are_parsed_once_at_load(repo, monkeypatch):
    # load turns every golden number into an exact value, so a warm run
    # hands as_fraction no string to parse, in any module that imports it
    def leaves(node):
        if isinstance(node, dict):
            node = list(node.values())
        if isinstance(node, list):
            return [leaf for v in node for leaf in leaves(v)]
        return [node]

    def parses(text):
        try:
            Fraction(text)
        except ValueError:
            return False
        return True

    golden = leaves(repo.golden)
    assert all(type(v) is str or is_exact_value(v) for v in golden)
    assert not [v for v in golden if isinstance(v, str) and parses(v)]
    run_all(repo)
    seen = Counter()
    # both the Fraction coercion and the int-pair parser behind it
    for parser in ("as_fraction", "_ratio"):
        modules = [m for name, m in sys.modules.items() if name.startswith("tautverify") and hasattr(m, parser)]
        for module in modules:
            def counted(x, original=getattr(module, parser)):
                seen[type(x)] += 1
                return original(x)

            monkeypatch.setattr(module, parser, counted)
    assert run_all(repo).all_passed
    assert seen[str] == 0 and seen[Fraction] > 0


def _numbers(node):
    """Every number held in a value that load or a check part holds; a bool or a text is none."""
    if isinstance(node, (bool, str)) or node is None:
        return
    if isinstance(node, dict):
        node = list(node.values())
    if isinstance(node, (list, tuple)):
        for v in node:
            yield from _numbers(v)
    elif isinstance(node, TautClass):
        yield from coeffs(node)
    elif isinstance(node, Inconsistent):
        yield node.witness_rhs
    else:
        yield node


def test_every_value_of_load_and_run_is_an_int_or_a_non_integral_fraction(repo):
    catalog = json.loads(resources.files("tautverify").joinpath("data", "catalog.json").read_text())
    counts = json.loads(resources.files("tautverify").joinpath("data", "counts.json").read_text())
    loaded = {
        "golden": repo.golden,
        "relations": [repo.space(sid).relations for sid in SPACE_IDS],
        "formal": [repo.formal_class(name) for name in catalog["formal_classes"]],
        "catalog": [repo.catalog_class(name) for name in catalog["classes"]],
        "families": [(f.values, f.derived) for f in map(repo.functional, SURFACE_IDS)],
        "counts": [
            (repo.counts.get(e["id"]), repo.counts.eval_expr(_freeze(e["expr"]))) for e in counts["constants"]
        ],
    }
    for what, node in loaded.items():
        values = list(_numbers(node))
        assert values and all(is_exact_value(v) for v in values), what
    run = Run(repo)
    for check in CHECKS:
        for name, expected, actual in check.fn(run):
            assert all(is_exact_value(v) for v in _numbers((expected, actual))), (check.id, name)
    assert all(is_exact_value(v) for v in run.lambda2.values())


def test_divide_out_divides_exactly_by_an_int_multiplicity(repo):
    run = Run(repo)
    system = repo.system("F31")
    assignment = run.solution("F31")[0]
    known = run.known("F31")
    rest = run.lhs("F31")
    for (name, ref), unknown in zip(system.components, system.unknowns):
        if ref:
            rest = rest - known[name].scale(assignment[unknown])
        else:
            divided = unknown
    for n in (2, 3, -7, Fraction(3, 5)):
        parts = []
        got = checks._divide_out(run, system, {**assignment, divided: n}, parts)
        assert coeffs(got) == tuple(Fraction(x) / n for x in coeffs(rest))
        assert all(is_exact_value(x) for x in coeffs(got))
        assert parts == [("division_multiplicity_nonzero", True, True)]
    # a zero multiplicity, or no assignment from a failed solve, gives the zero class
    parts = []
    assert checks._divide_out(run, system, {**assignment, divided: 0}, parts) == rest.space.zero(2)
    assert parts == [("division_multiplicity_nonzero", True, False)]
    parts = []
    assert checks._divide_out(run, system, {}, parts) == rest.space.zero(2)
    assert parts == []


def test_products_missing_reads_the_products_load_stored(repo):
    def reference(space, obstructions):
        hits = []
        for i, a in enumerate(space.divisor_basis):
            for b in space.divisor_basis[i:]:
                product = divisor_product(space.basis_class(1, a), space.basis_class(1, b))
                hits.extend(f"{a}*{b}:{obs}" for obs in obstructions if product.coeff(obs))
        return ",".join(hits) or "none"

    for sid in ("M31", "M4"):
        space = repo.space(sid)
        assert checks._products_missing(space, space.codim2_basis) == reference(space, space.codim2_basis) != "none"
    # an obstruction that is no codim-2 basis label raises as TautClass.coeff does
    with pytest.raises(UnknownLabelError, match=r"^'mystery' is not a degree-2 basis label of M31$"):
        checks._products_missing(repo.space("M31"), ("kappa2", "mystery"))
    # a space that stores no products names the first product it lacks, as divisor_product does
    pic_only = repo.space("M21")
    gen = pic_only.basis_class(1, pic_only.divisor_basis[0])
    with pytest.raises(UnknownLabelError) as err:
        checks._products_missing(pic_only, ())
    with pytest.raises(UnknownLabelError) as ref:
        divisor_product(gen, gen)
    assert str(err.value) == str(ref.value)


def test_run_check_alone_matches_run_all(repo):
    for shared in run_all(repo).results:
        alone = run_check(shared.id, repo)
        assert (alone.expected, alone.actual, alone.passed) == (shared.expected, shared.actual, shared.passed)


def test_no_results_leak_between_repos(repo, tmp_path):
    src = resources.files("tautverify").joinpath("data")
    with resources.as_file(src) as p:
        shutil.copytree(p, tmp_path / "data")
    path = tmp_path / "data" / "catalog.json"
    raw = json.loads(path.read_text())
    assert raw["classes"]["Hyp4"]["coeffs"]["lam^2"] == "51/4"
    raw["classes"]["Hyp4"]["coeffs"]["lam^2"] = "55/4"
    path.write_text(json.dumps(raw))
    changed = {r.id: r for r in run_all(Repo(tmp_path / "data")).results}
    assert not changed["lambda2_values"].passed
    assert "H4_plus" in changed["lambda2_values"].actual
    assert run_all(repo).to_json() == CANONICAL_REPORT.read_text(encoding="utf-8")


def test_report_matches_canonical_oracle(tmp_path):
    # the refactor oracle: `tautverify run-all --json` at the shipped data,
    # byte for byte
    out = tmp_path / "report.json"
    assert main(["run-all", "--json", str(out)]) == 0
    assert out.read_bytes() == CANONICAL_REPORT.read_bytes()


# --- command line interface ---------------------------------------------


def test_cli_run_all_exit_zero(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(["run-all", "--json", str(out)])
    captured = capsys.readouterr()
    assert code == 0
    assert "checks passed" in captured.out
    doc = json.loads(out.read_text())
    assert doc["summary"]["failed"] == 0


def test_cli_check_and_errors(capsys):
    assert main(["check", "enumerative"]) == 0
    assert main(["check", "not_a_check"]) == 2
    assert main(["show-class", "W31"]) == 0
    captured = capsys.readouterr()
    assert "psi" in captured.out
    assert main(["show-class", "NoSuch"]) == 2
    assert capsys.readouterr().err == "configuration error: unknown class 'NoSuch'\n"


def test_cli_eval(capsys):
    assert main(["eval", "--surface", "V1", "--class", "Hyp4"]) == 0
    captured = capsys.readouterr()
    assert "= 36" in captured.out


HYP4_SHOWN = """\
Hyp4  (space M4, degree 2)
  source: published class of the closed hyperelliptic locus in genus 4
  lam^2      51/4
  lam*d0     -31/10
  lam*d1     -117/10
  lam*d2     3
  d0^2       7/40
  d0*d1      7/5
  d1^2       21/10
  d1*d2      3
  d2^2       9/2
  d00        1/40
  d01a       -3/40
  gamma1     -3/10
  d1|1       9/10
"""


def test_cli_show_class_and_eval_output_is_pinned(capsys):
    # the full stdout of both commands, byte for byte
    assert main(["show-class", "Hyp4"]) == 0
    assert capsys.readouterr().out == HYP4_SHOWN
    assert main(["eval", "--surface", "V1", "--class", "Hyp4"]) == 0
    assert capsys.readouterr().out == "<V1, Hyp4> = 36\n"


def test_cli_show_class_of_every_computed_class_is_pinned(capsys):
    # each computed paper result as show-class prints it from its support, byte for byte
    names = ("Hyp31_theorem", "W2_M31", "W2_M4", "F31_theorem", "H4plus_theorem")
    assert set(names) == set(COMPUTED)
    for name in names:
        assert main(["show-class", name]) == 0
    assert capsys.readouterr().out == COMPUTED_CLASSES.read_text()


def _data_copy_with(tmp_path, relpath, edit):
    src = resources.files("tautverify").joinpath("data")
    with resources.as_file(src) as p:
        shutil.copytree(p, tmp_path / "data")
    path = tmp_path / "data" / relpath
    raw = json.loads(path.read_text())
    edit(raw)
    path.write_text(json.dumps(raw))
    return str(tmp_path / "data")


def test_weierstrass_factor_out_of_range_is_rejected_at_load(tmp_path, capsys):
    def edit(raw):
        raw["weierstrass_factors"] = [3]

    data_dir = _data_copy_with(tmp_path, "homs/xi_star_m31.json", edit)
    assert main(["--data-dir", data_dir, "run-all"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "xi_star_m31: weierstrass factor 3 is neither 1 nor 2" in captured.err


def test_gluing_key_naming_no_factor_is_rejected_at_load(tmp_path, capsys):
    def edit(raw):
        raw["images"]["d0*d2"] = {"3:d0": 1, "2:d0": 1}

    data_dir = _data_copy_with(tmp_path, "homs/xi_star_m4.json", edit)
    assert main(["--data-dir", data_dir, "run-all"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "xi_star_m4: image key '3:d0' of 'd0*d2' names no factor 1 or 2" in captured.err


@pytest.mark.parametrize(
    "space, coeffs, error",
    [
        ("M21", {"psi": 308, "d0": -32, "d1": -76}, "lives on M21, not on M3"),
        ("M3", {"lam^2": 308}, "has degree 2, not 1"),
    ],
)
def test_a_pushforward_off_the_maps_codomain_is_an_error(tmp_path, capsys, space, coeffs, error):
    # the marked-hyperflex pushforward is read over M3's divisor basis, so a
    # class on another space or of another degree must not be read as one
    def edit(raw):
        cls = raw["classes"]["F31_pushforward_M3"]
        cls["space"], cls["coeffs"] = space, coeffs
        cls["degree"] = 1 if space == "M21" else 2

    data_dir = _data_copy_with(tmp_path, "catalog.json", edit)
    assert main(["--data-dir", data_dir, "run-all"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"F31: pushforward 'F31_pushforward_M3' of component 'hyperflex' {error}" in captured.err


def _drop_relations(raw):
    del raw["relations"]


def _set_field(key, value):
    def edit(raw):
        raw[key] = value

    return edit


def _set_component(i, ref):
    def edit(raw):
        raw["components"][i][1] = ref

    return edit


def _set_hyp4_coeff(value):
    def edit(raw):
        raw["classes"]["Hyp4"]["coeffs"]["lam^2"] = value

    return edit


def _ring_map_with_table_images(raw):
    raw["table_images"] = {}


def _target_space_as_list(raw):
    raw["target_space"] = [raw["target_space"]]


# each true stands where a 1 stood, so reading it as the number 1 would pass
def _gram_off_diagonal_true(raw):
    raw["gram"] = [[0, True], [True, 0]]


def _reduction_coefficient_true(raw):
    raw["product_reductions"]["psi1^2"]["psi2^2"] = True


def _golden_value_true(raw):
    raw["basis_m31"]["relation_generators"]["alpha"]["kappa2"] = True


def _set_count_expr(cid, expr):
    def edit(raw):
        next(c for c in raw["constants"] if c["id"] == cid)["expr"] = expr

    return edit


@pytest.mark.parametrize(
    "relpath, edit, error",
    [
        (
            "spaces/m31.json",
            _drop_relations,
            "TypeError: RingSpace.__init__() missing 1 required positional argument: 'relations'",
        ),
        ("spaces/m31.json", _set_field("relation", []), "unexpected keyword argument 'relation'"),
        ("surfaces/s1.json", _set_field("overides", {}), "unexpected keyword argument 'overides'"),
        (
            "homs/xi_star_m4.json",
            _set_field("weierstrass_factor", []),
            "unexpected keyword argument 'weierstrass_factor'",
        ),
        ("catalog.json", _set_hyp4_coeff(1.5), "TypeError: exact rational expected, got float: 1.5"),
        ("catalog.json", _set_hyp4_coeff("1/0"), "ZeroDivisionError"),
        ("homs/j3_star.json", _ring_map_with_table_images, "unexpected keyword argument 'table_images'"),
        ("surfaces/s1.json", _target_space_as_list, "TypeError: unhashable type: 'list'"),
        ("surfaces/s1.json", _gram_off_diagonal_true, "TypeError: exact rational expected, got bool: True"),
        ("spaces/m22.json", _reduction_coefficient_true, "TypeError: exact rational expected, got bool: True"),
        ("golden_checks.json", _golden_value_true, "TypeError: exact rational expected, got bool: True"),
        (
            "counts.json",
            _set_count_expr("torsion2_nontrivial", ["sub", ["torsion", 2], True]),
            "TypeError: exact rational expected, got bool: True",
        ),
        (
            "counts.json",
            _set_count_expr("even_theta_g1", ["even_theta", True]),
            "TypeError: count function 'even_theta' takes int arguments, got [True]",
        ),
    ],
    ids=[
        "missing_key",
        "unknown_space_field",
        "unknown_family_field",
        "unknown_gluing_field",
        "float",
        "zero_denominator",
        "field_of_another_hom_kind",
        "list_for_id",
        "bool_gram_entry",
        "bool_reduction_coefficient",
        "bool_golden_value",
        "bool_count_leaf",
        "bool_count_argument",
    ],
)
def test_malformed_file_fails_closed_naming_the_file(tmp_path, capsys, relpath, edit, error):
    data_dir = _data_copy_with(tmp_path, relpath, edit)
    assert main(["--data-dir", data_dir, "run-all"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"configuration error: malformed definition file {relpath!r}: ")
    assert error in captured.err


@pytest.mark.parametrize(
    "relpath, edit, error",
    [
        ("systems/f31.json", _set_field("families", ["T1", "T2", "T9"]), "unknown surface 'T9'"),
        (
            "systems/h4plus.json",
            _set_field("fiber_counts", {"V1": "V1_H4plus", "V2": "V2_H4"}),
            "unknown count constant 'V2_H4'",
        ),
        (
            "systems/f31.json",
            _set_field("pushforward", ["p_star", "F31_pushforward_M3"]),
            "unknown homomorphism 'p_star'",
        ),
        ("systems/h4plus.json", _set_field("lhs_factors", ["Theta_null_M4", "T4"]), "unknown class 'T4'"),
        (
            "systems/f31.json",
            _set_field("fiber_counts", {"T1": "T1_F31_fibers", "S1": "T2_F31_fibers"}),
            "F31: fiber counts for ['S1'], which are not among its 'families'",
        ),
        ("systems/f31.json", _set_field("lhs_factors", ["W31", "Hyp4"]), "F31: left-hand factors on M31, M4"),
        *(
            ("systems/h4plus.json", _set_component(i, ref), f"components/{i}: {ref!r} names no degree-2 class on M4")
            for i, ref in (
                (0, "klass:Hyp4"),
                (3, "special:nope"),
                (3, "basis:nope"),
                (0, "class:Nope"),
                (0, "class:Hyp3_M3"),
                (2, "class:Theta_null_M4"),
                (2, "class:W2_M31"),
            )
        ),
    ],
    ids=[
        "unknown_family",
        "unknown_count",
        "unknown_map",
        "unknown_catalog_class",
        "fiber_count_off_the_families",
        "lhs_factors_on_two_spaces",
        "unknown_component_ref_prefix",
        "unknown_component_special_symbol",
        "unknown_component_basis_label",
        "unknown_component_class_name",
        "component_class_on_another_space",
        "component_class_of_degree_1",
        "component_computed_result_on_another_space",
    ],
)
def test_malformed_system_file_fails_closed_naming_the_file(tmp_path, capsys, relpath, edit, error):
    # an id or component reference a system file names is resolved at load,
    # so a bad one is the package's own error, which keeps its type and gains
    # the file's name; a check that never reads the system is refused too
    data_dir = _data_copy_with(tmp_path, relpath, edit)
    for command in (["run-all"], ["check", "basis_m31"]):
        assert main(["--data-dir", data_dir, *command]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"configuration error: {relpath}: {error}\n"


def test_an_unknown_system_id_is_an_unknown_name(repo):
    with pytest.raises(UnknownNameError, match="^unknown multiplicity system 'F4'$"):
        solve_multiplicities("F4", Run(repo))


@pytest.mark.parametrize("relpath", ["homs/xi_star_m31.json", "homs/j3_star.json"], ids=["gluing", "ring_hom"])
def test_a_map_file_of_an_unknown_kind_is_rejected_naming_the_file_and_the_kind(tmp_path, capsys, relpath):
    # the kind is checked before a constructor runs, so the error names the
    # kind, not a parameter of the class the file was sent to
    data_dir = _data_copy_with(tmp_path, relpath, _set_field("kind", "anything"))
    assert main(["--data-dir", data_dir, "run-all"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"configuration error: {relpath}: unknown hom kind 'anything', not ring, table or gluing\n"
    )


@pytest.mark.parametrize(
    "relpath, declared",
    [("homs/j3_star.json", "theta_star"), ("homs/xi_star_m4.json", "xi_star_m31"), ("surfaces/v1.json", "S1")],
    ids=["ring_hom", "gluing", "family"],
)
def test_file_declaring_another_id_is_rejected_at_load(tmp_path, capsys, relpath, declared):
    # otherwise the object is looked up by its file name but carries the
    # declared id, so every error it raises names the other object
    def edit(raw):
        raw["id"] = declared

    data_dir = _data_copy_with(tmp_path, relpath, edit)
    assert main(["--data-dir", data_dir, "run-all"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"definition file {relpath!r} declares id {declared!r}" in captured.err


def test_inconsistent_restriction_system_fails_w2_lemmas(tmp_path, capsys):
    # a restriction image that no boundary class solves: the lemma fails with
    # the solver's witness and every other check still runs
    def edit(raw):
        raw["images"]["d0*d2"]["1:d0"] = 2

    data_dir = _data_copy_with(tmp_path, "homs/xi_star_m4.json", edit)
    assert main(["--data-dir", data_dir, "run-all"]) == 1
    out = capsys.readouterr().out
    assert "[FAIL] w2_lemmas" in out
    assert "expected: m4_consistent: true\n" in out
    assert "actual:   m4_consistent: false (witness rhs -1/20)\n" in out
    # the failed lemma gives the zero class, which fails every check that
    # reads it: the genus-4 system, its class and what reads them
    failed = [line.split()[1] for line in out.splitlines() if line.startswith("[FAIL]")]
    assert failed == [
        "w2_lemmas",
        "multiplicities_h4plus",
        "h4plus",
        "surface_tables",
        "complete_intersection",
    ]
    assert "13/18 checks passed" in out


def test_a_changed_restriction_image_fails_every_check_reading_the_class(tmp_path, capsys):
    # the genus-3 lemma stays solvable but gives another class: the F31
    # system reads the computed class, not a stored copy of it
    def edit(raw):
        raw["images"]["psi*d11"]["1:psi1"] += 1

    data_dir = _data_copy_with(tmp_path, "homs/xi_star_m31.json", edit)
    assert main(["--data-dir", data_dir, "run-all"]) == 1
    out = capsys.readouterr().out
    failed = [line.split()[1] for line in out.splitlines() if line.startswith("[FAIL]")]
    assert failed == ["w2_lemmas", "multiplicities_f31", "f31", "surface_tables"]


def test_cli_refuses_a_computed_class_whose_check_fails(tmp_path, capsys):
    # the inconsistent restriction system above: w2_lemmas gives the zero
    # class, so W2_M4 and the H4plus class built on it are not verified
    def edit(raw):
        raw["images"]["d0*d2"]["1:d0"] = 2

    data_dir = _data_copy_with(tmp_path, "homs/xi_star_m4.json", edit)
    assert main(["--data-dir", data_dir, "show-class", "W2_M4"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: W2_M4 is computed by the w2_lemmas check, which fails\n"
    assert main(["--data-dir", data_dir, "eval", "--surface", "V1", "--class", "H4plus_theorem"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "H4plus_theorem is computed by the h4plus check, which fails" in captured.err
    # a catalog input on the same data still prints
    assert main(["--data-dir", data_dir, "show-class", "Hyp4"]) == 0
    assert capsys.readouterr().out == HYP4_SHOWN


def test_cli_unwritable_json_report_is_a_configuration_error(tmp_path, capsys):
    # every check passes, so exit 1 would misreport a verification failure;
    # an empty path is a path that cannot be written, not a request for no report
    for out in (str(tmp_path / "missing" / "report.json"), ""):
        assert main(["run-all", "--json", out]) == 2
        captured = capsys.readouterr()
        assert "18/18 checks passed" in captured.out
        assert captured.err == f"configuration error: cannot write report {out!r}: No such file or directory\n"
    assert not (tmp_path / "missing").exists()


def test_cli_data_dir_override(tmp_path):
    # a bit-for-bit copy of the embedded data behaves identically
    import shutil
    from importlib import resources

    src = resources.files("tautverify").joinpath("data")
    with resources.as_file(src) as p:
        shutil.copytree(p, tmp_path / "data")
    assert main(["--data-dir", str(tmp_path / "data"), "check", "basis_m31"]) == 0


def test_cli_bad_data_dir(tmp_path):
    assert main(["--data-dir", str(tmp_path / "empty"), "run-all"]) == 2


def test_cli_empty_data_dir_fails_closed(tmp_path, monkeypatch, capsys):
    # an empty path names the working directory, which holds no definitions,
    # not the shipped data
    monkeypatch.chdir(tmp_path)
    assert main(["--data-dir", "", "run-all"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "cannot read definition file" in captured.err


def test_console_entry_point_installed():
    proc = subprocess.run(
        [sys.executable, "-m", "tautverify.cli", "check", "grr_spin"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "PASS" in proc.stdout
    # main() with no argv reads sys.argv, and a usage error returns 2 with
    # nothing on stdout and no traceback
    proc = subprocess.run([sys.executable, "-m", "tautverify.cli", "bogus"], capture_output=True, text=True)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith(USAGE) and "Traceback" not in proc.stderr


def test_cli_eval_rejects_divisor_class(capsys):
    # the pairing is defined on degree-2 classes only
    assert main(["eval", "--surface", "V1", "--class", "Theta_null_M4"]) == 2
    assert "error" in capsys.readouterr().err


def test_cli_eval_rejects_space_mismatch(capsys):
    assert main(["eval", "--surface", "S1", "--class", "Hyp4"]) == 2
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["bogus"],
        ["check"],
        ["run-all", "--json"],
        ["run-all", "extra"],
        ["check", "enumerative", "extra"],
        ["eval", "--surface", "V1"],
        # --data-dir goes before the subcommand
        ["check", "enumerative", "--data-dir", "DIR"],
        # an abbreviated option is not the option
        ["run-all", "--js", "OUT"],
        # a value that starts with "-" must follow "="
        ["run-all", "--json", "-OUT"],
    ],
    ids=lambda argv: " ".join(argv) or "no_arguments",
)
def test_cli_usage_error_exits_2_with_the_synopsis(tmp_path, capsys, argv):
    argv = [str(tmp_path / a) if a in ("DIR", "OUT") else a for a in argv]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    synopsis, error = err[: len(USAGE)], err[len(USAGE) :].splitlines()
    assert synopsis == USAGE and len(error) == 1 and error[0].startswith("tautverify: error: ")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [["--help"], ["run-all", "-h"], ["--data-dir", "no-such-dir", "check", "-h"]])
def test_cli_help_prints_the_synopsis(capsys, argv):
    assert main(argv) == 0
    assert tuple(capsys.readouterr()) == (USAGE, "")
    assert USAGE == (
        "usage: tautverify [--data-dir DIR] run-all [--json OUT]\n"
        "       tautverify [--data-dir DIR] check ID\n"
        "       tautverify [--data-dir DIR] show-class NAME\n"
        "       tautverify [--data-dir DIR] eval --surface ID --class NAME\n"
    )


def test_cli_takes_an_option_value_after_equals(tmp_path, monkeypatch, capsys):
    with resources.as_file(resources.files("tautverify").joinpath("data")) as data_dir:
        assert main([f"--data-dir={data_dir}", "check", "enumerative"]) == 0
    assert capsys.readouterr().out.startswith("[PASS] enumerative")
    # after "=", a value may start with "-"
    monkeypatch.chdir(tmp_path)
    assert main(["run-all", "--json=-report.json"]) == 0
    assert (tmp_path / "-report.json").read_bytes() == CANONICAL_REPORT.read_bytes()
