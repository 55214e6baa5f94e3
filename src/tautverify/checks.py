"""Named, independently runnable checks covering every verified result.

Each check recomputes a published statement from the loaded definitions and
compares against the golden expected values, exactly.  Load has already
parsed the golden file into exact values (an int where integral, else a
Fraction, as every value the kernels return), so a check reads its expected
values as they are and parses nothing.  A check returns parts, each (name,
expected, actual) holding the values themselves.  `differing` alone
compares them, with `==`, and `_finish` alone formats them: a passing check
prints each expected value once, a failing one both sides of its differing
parts only, so a 16-entry mismatch reports just the offending entries.  Both
sides of a part have one type, since `==` tells a tuple from a list and True
from 1.  Three parts stay text, because their report text is no value's
format: the surface_tables mismatch list, the two obstruction lists and the
cofactor's "inconsistent (X)".
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Mapping, Sequence

from . import __version__
from .chern import ChernVector
from .counts import (
    abel_difference_degree,
    even_theta_count,
    mixed_difference_degree,
    odd_theta_count,
    scorza_correspondence_class,
    scorza_triple_degree,
)
from .data import COMPUTED, SURFACE_IDS, SYSTEM_IDS, MultiplicitySystem, Repo
from .errors import UnknownNameError
from .grr import GRR_MAX_ORDER, grr_spin_character, jet_bundles, lambda2_values, lower_order_character
from .linalg import (
    Inconsistent,
    Number,
    Solution,
    _ZERO,
    _combine,
    _ratio,
    _support_of,
    _transpose,
    det,
    rank,
    solve_exact,
    solve_with_left_kernel,
)
from .poly import TruncatedPoly
from .rings import (
    TautClass,
    _no_product,
    apply_hom,
    divisor_product,
    solve_boundary_class,
    special_expand,
)
from .surfaces import OVERRIDE, evaluate, evaluate_formal_products

Part = tuple[str, object, object]  # (name, expected value, actual value)


# --- formatting ---------------------------------------------------------


def _fmt(v) -> str:
    # exact types first: a bool is no number here, and an int skips Fraction's ABC check
    if type(v) is int or type(v) is Fraction:
        return str(v)
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (int, str)):
        return str(v)
    if isinstance(v, TautClass):
        basis = v.space.basis(v.degree)
        entries = [f"{basis[i]}={n}" if d == 1 else f"{basis[i]}={n}/{d}" for i, n, d in v.support]
        return ", ".join(entries) if entries else "0"
    if isinstance(v, (tuple, list)):
        return "(" + ", ".join(_fmt(x) for x in v) + ")"
    if isinstance(v, dict):
        # key-sorted so the serialization never depends on insertion order
        return ", ".join(f"{k}={_fmt(v[k])}" for k in sorted(v))
    if isinstance(v, Inconsistent):
        # the certificate of a solve that was expected to succeed
        return f"false (witness rhs {v.witness_rhs})"
    return str(v)


# --- results -------------------------------------------------------------


class CheckResult:
    __slots__ = ("id", "anchor", "expected", "actual", "passed", "micros")

    def __init__(self, id: str, anchor: str, expected: str, actual: str, passed: bool, micros: int):
        self.id, self.anchor, self.expected, self.actual = id, anchor, expected, actual
        self.passed, self.micros = passed, micros


class Report:
    __slots__ = ("version", "results")

    def __init__(self, version: str, results: tuple[CheckResult, ...]):
        self.version, self.results = version, results

    @property
    def all_passed(self) -> bool:
        return all(r.passed for r in self.results)

    def to_json(self) -> str:
        """Canonical JSON document; byte-stable for fixed inputs.

        Measured runtimes vary between runs, so the canonical form zeroes the
        micros field; the human report shows them.
        """
        doc = {
            "version": self.version,
            "checks": [
                {
                    "id": r.id,
                    "anchor": r.anchor,
                    "expected": r.expected,
                    "actual": r.actual,
                    "passed": r.passed,
                    "micros": 0,
                }
                for r in self.results
            ],
            "summary": {
                "total": len(self.results),
                "passed": sum(r.passed for r in self.results),
                "failed": sum(not r.passed for r in self.results),
            },
        }
        return json.dumps(doc, indent=2, sort_keys=False, ensure_ascii=True) + "\n"

    def to_human(self) -> str:
        lines = []
        for r in self.results:
            status = "PASS" if r.passed else "FAIL"
            lines.append(f"[{status}] {r.id}  ({r.micros} us)")
            lines.append(f"       {r.anchor}")
            if not r.passed:
                lines.append(f"       expected: {r.expected}")
                lines.append(f"       actual:   {r.actual}")
        n_pass = sum(r.passed for r in self.results)
        lines.append(f"{n_pass}/{len(self.results)} checks passed")
        return "\n".join(lines) + "\n"


def differing(parts: Sequence[Part]) -> list[Part]:
    """The parts whose two sides differ: a check passes iff there are none."""
    # `not ==`: Fraction defines no `__ne__`, so `!=` takes a slower generic path
    return [p for p in parts if not p[1] == p[2]]


def _finish(check_id: str, anchor: str, parts: Sequence[Part], t0: float) -> CheckResult:
    diffs = differing(parts)
    if diffs:
        expected = "; ".join(f"{n}: {_fmt(e)}" for n, e, _ in diffs)
        actual = "; ".join(f"{n}: {_fmt(a)}" for n, _, a in diffs)
    else:
        expected = actual = "; ".join(f"{n}: {_fmt(e)}" for n, e, _ in parts)
    micros = int((time.perf_counter() - t0) * 1_000_000)
    return CheckResult(check_id, anchor, expected, actual, not diffs, micros)


# --- multiplicity systems -------------------------------------------------


class Run:
    """The results that several checks of one run share, each computed on first use.

    A computed paper result, a system's left-hand product, known classes,
    family pairings and solve, the jet bundles and the lambda^2 values are
    each built once per run, all through `_once`.  run_all and run_check
    make a fresh Run per call, so a second run on the same Repo recomputes
    everything; nothing is kept on the Repo, which stays immutable after
    load, or in module state.
    """

    def __init__(self, repo: Repo):
        self.repo = repo
        self._memo: dict = {}

    def _once(self, key, make: Callable[[], object]):
        if key not in self._memo:
            self._memo[key] = make()
        return self._memo[key]

    @property
    def jets(self) -> dict[str, tuple[TruncatedPoly, ChernVector]]:
        """The Chern character and classes of each jet bundle, read by jet_chern and the lambda^2 pipelines."""
        return self._once("jets", jet_bundles)

    @property
    def lambda2(self) -> dict[str, Number]:
        return self._once("lambda2", lambda: lambda2_values(self.repo, self.jets))

    def cls(self, name: str) -> TautClass:
        """A class by name: a computed paper result (COMPUTED), else a catalog input."""
        if name not in COMPUTED:
            return self.repo.catalog_class(name)
        return self.result(COMPUTED[name][0])[0][name]

    def result(self, check_id: str) -> tuple[dict[str, TautClass], list[Part]]:
        """The classes a computing check builds, by name, and the check's parts."""
        return self._once(check_id, lambda: _COMPUTE[check_id](self))

    def known(self, system_id: str) -> dict[str, TautClass]:
        """The known component classes of a system, by component name: load resolved each ref to a class or a name."""
        system = self.repo.system(system_id)
        known = lambda: {name: self.cls(ref) if type(ref) is str else ref for name, ref in system.components if ref}
        return self._once(("known", system_id), known)

    def lhs(self, system_id: str) -> TautClass:
        return self._once(("lhs", system_id), lambda: divisor_product(*self.repo.system(system_id).lhs_factors))

    def family_values(self, system_id: str, sid: str) -> dict[str, Number]:
        """A family's pairing with each known component of a system and with its left-hand product."""

        def pair():
            f = self.repo.functional(sid)
            classes = {**self.known(system_id), self.repo.system(system_id).lhs_key: self.lhs(system_id)}
            return {name: evaluate(f, c) for name, c in classes.items()}

        return self._once((system_id, sid), pair)

    def solution(self, system_id: str) -> tuple:
        return self._once(("solution", system_id), lambda: solve_multiplicities(system_id, self))


def _assemble_system(run: Run, system: MultiplicitySystem):
    """The row names, rows and right-hand side of a system; each column is a
    class's readout (see MultiplicitySystem), and every row is a support."""
    names = [f"family:{f.id}" for f in system.families]
    if system.pushforward:
        names += [f"pushforward:{lbl}" for lbl in system.pushforward[0].codomain.divisor_basis]
    else:
        names.append(f"coefficient:{system.coefficient[0]}")
    rhs = _read_rows(run, system, system.lhs_key, run.lhs(system.id))
    known = run.known(system.id)
    columns = [
        _read_rows(run, system, name, known[name]) if ref else _unknown_rows(run, system)
        for name, ref in system.components
    ]
    return names, _transpose(columns, len(names)), rhs


def _read_rows(run: Run, system: MultiplicitySystem, name: str, c: TautClass) -> tuple:
    """Class `c`, paired with the families under `name`, as a support over the system's rows."""
    values = [run.family_values(system.id, f.id)[name] for f in system.families]
    if system.pushforward:
        return _after(values, apply_hom(system.pushforward[0], c).support)
    idx = c.space.codim2_index[system.coefficient[0]]
    return _after(values, [(0, n, d) for i, n, d in c.support if i == idx])


def _unknown_rows(run: Run, system: MultiplicitySystem) -> tuple:
    """The unknown component's stated column: its fiber counts, then its pushforward or lambda^2 value."""
    counts = [system.fiber_counts.get(f.id, _ZERO) for f in system.families]
    if system.pushforward:
        return _after(counts, system.pushforward[2].support)
    return _after(counts, _support_of([run.lambda2[system.coefficient[1]]]))


def _after(values: list, tail) -> tuple:
    """The support of `values`, then support `tail` in the rows after them."""
    return _support_of(values) + tuple((len(values) + i, n, d) for i, n, d in tail)


def solve_multiplicities(system_id: str, run: Run):
    """Solve a registered multiplicity system and find its redundant rows.

    Returns (assignment, redundant_names, parts): the exact solution keyed by
    unknown name, the constraints whose removal keeps the system uniquely
    solvable with the same solution (each such constraint is automatically
    satisfied by it), and the comparison parts.  With a unique
    solution a row is redundant iff some vector of the matrix's left kernel is
    nonzero there (the row is a combination of the others); else none is.
    The solve and the left kernel come from one elimination.
    """
    system = run.repo.system(system_id)
    names, rows, rhs = _assemble_system(run, system)
    sol, kernel = solve_with_left_kernel(rows, rhs, len(system.components))
    if isinstance(sol, Inconsistent):
        return {}, [], [("consistent", True, sol)]
    golden = run.repo.golden[f"multiplicities_{system_id.lower()}"]
    assignment = dict(zip(system.unknowns, sol.vector))
    parts: list[Part] = [("solution", golden["solution"], assignment)]
    parts.append(("unique", True, sol.unique))

    used = {i for v in kernel for i, _, _ in v} if sol.unique else set()
    redundant = [name for i, name in enumerate(names) if i in used]
    bound = golden["min_redundant"]
    parts.append(("redundant_constraints_at_least", bound, min(len(redundant), bound)))
    return assignment, redundant, parts


def _divide_out(run: Run, system: MultiplicitySystem, assignment: dict, parts: list[Part]) -> TautClass:
    """The unknown component's class, from the solved multiplicities, as one sum.

    The left-hand product minus each known component times its multiplicity,
    divided by the multiplicity of the unknown component.  Appends whether
    that multiplicity is nonzero to `parts`.  A failed solve (no assignment)
    or a zero multiplicity gives the zero class, which fails the class part.
    """
    lhs = run.lhs(system.id)
    if not assignment:
        return lhs.space.zero(lhs.degree)
    known = run.known(system.id)
    terms = [(1, 1, lhs.support)]
    for (name, ref), unknown in zip(system.components, system.unknowns):
        n, d = _ratio(assignment[unknown])
        if ref:
            terms.append((-n, d, known[name].support))
        else:
            num, den = n, d
    parts.append(("division_multiplicity_nonzero", True, num != 0))
    if not num:
        return lhs.space.zero(lhs.degree)
    # int-pair scales, each sign in the numerator (no Fraction); the family pairings checked each class's space
    sign = 1 if num > 0 else -1
    return TautClass(lhs.space, lhs.degree, _combine((sign * den * n, abs(num) * d, s) for n, d, s in terms))


# --- individual checks ----------------------------------------------------


def _parts_basis_m31(run: Run) -> list[Part]:
    repo = run.repo
    theta = repo.hom("theta_star")
    m31 = theta.domain
    golden = repo.golden["basis_m31"]
    # the image of each basis label, as load stored it
    images = theta.images[2][1]
    width = len(m31.codim2_basis)
    kernel_dim = width - rank([images[lbl] for lbl in m31.codim2_basis], len(theta.codomain.codim2_basis))
    parts = [("pullback_rank", golden["rank"], width - kernel_dim), ("kernel_dim", golden["kernel_dim"], kernel_dim)]
    gens = [m31.from_dict(2, golden["relation_generators"][k]) for k in ("alpha", "beta", "gamma")]
    # over Q the generators span ker theta* iff each dies under theta*, they
    # are independent, and they are as many as the kernel's dimension
    in_kernel = all(apply_hom(theta, g).is_zero() for g in gens)
    spans_match = in_kernel and rank([g.support for g in gens], width) == len(gens) == kernel_dim
    parts.append(("kernel_span_matches", True, spans_match))
    family_det = det([[evaluate(repo.functional(sid), g) for g in gens] for sid in ("S1", "S2", "S3")])
    parts.append(("family_matrix_det", golden["surface_matrix_det"], family_det))
    parts.append(("relations_forced_to_zero", True, family_det != 0))
    return parts


def _parts_prop4(run: Run) -> list[Part]:
    repo = run.repo
    theta = repo.hom("theta_star")
    m31 = theta.domain
    golden = repo.golden["prop4"]
    # the dependent-product identity is the stored relation, which load has
    # reduced to zero on M31; it must also die under the gluing pullback
    parts: list[Part] = [("lam_d11_relation_pullback", theta.codomain.zero(2), apply_hom(theta, m31.relations[0]))]
    for sym in m31.special_expansions:
        expansion = special_expand(m31, sym)
        parts.append((f"pullback_consistency:{sym}", apply_hom(theta, {sym: 1}), apply_hom(theta, expansion)))
        actual = [evaluate(repo.functional(sid), expansion) for sid in golden["surface_order"]]
        parts.append((f"family_values:{sym}", tuple(golden["surface_values"][sym]), tuple(actual)))
    return parts


def _parts_prop4_alt(run: Run) -> list[Part]:
    repo = run.repo
    pullback = repo.hom("p_pullback_m3")
    m31 = pullback.codomain
    return [
        (f"alt_route:{sym}", special_expand(m31, sym), apply_hom(pullback, repo.catalog_class(name)))
        for sym, name in (("d00", "delta00_M3"), ("gamma1", "gamma1_M3"))
    ]


def compute_hyp31(run: Run) -> tuple[dict[str, TautClass], list[Part]]:
    """Pull the genus-4 hyperelliptic class back along the elliptic-tail map."""
    repo = run.repo
    golden = repo.golden["hyp31"]
    result = apply_hom(repo.hom("j3_star"), repo.catalog_class("Hyp4"))
    parts = [
        ("class", result.space.from_dict(2, golden["class"]), result),
        (
            "pushforward_is_multiple",
            repo.catalog_class("Hyp3_M3").scale(golden["hyp3_multiple"]),
            apply_hom(repo.hom("p_star_pushforward"), result),
        ),
        ("double_ramification_catalog", repo.catalog_class("DR2_2"), apply_hom(repo.hom("theta_star"), result)),
    ]
    return {"Hyp31_theorem": result}, parts


def _parts_j3_table(run: Run) -> list[Part]:
    repo = run.repo
    j3 = repo.hom("j3_star")
    m31 = j3.codomain
    golden = repo.golden["j3_pullback_table"]
    parts = []
    for sym in ("d1|1", "gamma1"):
        parts.append((f"pullback_image:{sym}", m31.from_dict(2, golden[sym]), apply_hom(j3, {sym: 1})))
    parts.append(("pullback_image:d00", special_expand(m31, "d00"), apply_hom(j3, {"d00": 1})))
    return parts


def compute_w2(run: Run) -> tuple[dict[str, TautClass], list[Part]]:
    """Both node-smoothing lemmas: solve the restriction systems exactly.

    An inconsistent system fails the lemma with its certificate, as an
    inconsistent multiplicity system does, and gives the zero class.
    """
    repo = run.repo
    golden = repo.golden["w2_lemmas"]
    weier = repo.catalog_class("W21")
    m4_reduced = repo.space("M4").from_dict(2, golden["m4_reduced"])
    classes: dict[str, TautClass] = {}
    parts: list[Part] = []
    for key, name, reduced in (("m31", "W2_M31", None), ("m4", "W2_M4", m4_reduced)):
        gluing = repo.gluing(f"xi_star_{key}")
        solved = solve_boundary_class(gluing, weier)
        if isinstance(solved, Inconsistent):
            parts.append((f"{key}_consistent", True, solved))
            classes[name] = gluing.domain.zero(2)
            continue
        pres, classes[name], sol = solved
        parts.append((f"{key}_unique", True, sol.unique))
        parts.append((f"{key}_presentation", golden[f"{key}_presentation"], pres))
        if reduced is not None:
            parts.append((f"{key}_reduced", reduced, classes[name]))
    return classes, parts


def compute_f31(run: Run) -> tuple[dict[str, TautClass], list[Part]]:
    """Assemble the marked-hyperflex class from the solved multiplicities.

    The solve's own parts belong to multiplicities_f31.  An inconsistent
    system or a zero division multiplicity gives the zero class, which fails
    the class part.
    """
    parts: list[Part] = []
    result = _divide_out(run, run.repo.system("F31"), run.solution("F31")[0], parts)
    parts.append(("class", result.space.from_dict(2, run.repo.golden["f31"]["class"]), result))
    return {"F31_theorem": result}, parts


def compute_h4plus(run: Run) -> tuple[dict[str, TautClass], list[Part]]:
    """Assemble the even-theta triple-vanishing class from the solved system, as compute_f31 does.

    The system's lam^2 row makes the class's lam^2 entry the pipeline's
    H4_plus value whenever the class is not the zero class.
    """
    golden = run.repo.golden["h4plus"]
    lhs = run.lhs("H4plus")
    parts: list[Part] = [("lhs_product", lhs.space.from_dict(2, golden["lhs_product"]), lhs)]
    result = _divide_out(run, run.repo.system("H4plus"), run.solution("H4plus")[0], parts)
    parts.append(("class", result.space.from_dict(2, golden["class"]), result))
    return {"H4plus_theorem": result}, parts


def _parts_pushforwards(run: Run) -> list[Part]:
    repo = run.repo
    push = repo.hom("p_star_pushforward")
    golden = repo.golden["pushforwards"]
    wtheta = run.lhs("F31")
    parts = [("divisor_product", wtheta.space.from_dict(2, golden["wtheta_product_m31"]), wtheta)]
    for name, key, c in (
        ("wtheta_pushforward", "wtheta", wtheta),
        ("hyp31_pushforward", "hyp31", run.cls("Hyp31_theorem")),
        ("f31_pushforward", "f31", run.cls("F31_theorem")),
    ):
        parts.append((name, push.codomain.from_dict(1, golden[key]), apply_hom(push, c)))
    return parts


def _parts_surface_tables(run: Run) -> list[Part]:
    repo = run.repo
    golden = repo.golden["surface_tables"]
    systems = {s.lhs_factors[0].space.id: s.id for s in map(repo.system, SYSTEM_IDS)}
    parts: list[Part] = []
    override_rows = []
    for sid, block in golden["surfaces"].items():
        functional = repo.functional(sid)
        space = functional.space
        override_rows += ([sid, lbl] for lbl, provenance in functional.provenance.items() if provenance == OVERRIDE)
        nonzero = block["nonzero_basis"]
        mismatches = []
        for lbl in space.codim2_basis:
            expected = nonzero.get(lbl, _ZERO)
            if not functional.values[lbl] == expected:
                mismatches.append(f"{lbl}:{functional.values[lbl]}!={expected}")
        parts.append((f"{sid}:table", "exact", "exact" if not mismatches else ",".join(mismatches)))
        for lbl, v in block["extra"].items():
            parts.append((f"{sid}:{lbl}", v, functional.values.get(lbl)))
        for key, v in block["evaluations"].items():
            parts.append((f"{sid}:<{key}>", v, run.family_values(systems[space.id], sid)[key]))
    parts.append(("override_count", golden["override_count"], len(override_rows)))
    parts.append(("override_at", [golden["override_at"]], override_rows))
    return parts


def _parts_relation_hygiene(run: Run) -> list[Part]:
    # load has reduced every stored relation to zero on its own space
    repo = run.repo
    j3 = repo.hom("j3_star")
    rel_formal = repo.formal_class("kappa2_relation_M4")
    parts: list[Part] = [("kappa2_relation_pullback", j3.codomain.zero(2), apply_hom(j3, rel_formal))]
    for sid in SURFACE_IDS:
        functional = repo.functional(sid)
        for i, rel in enumerate(functional.space.relations):
            value = evaluate_formal_products(functional, rel)
            parts.append((f"{sid}:lattice_annihilates_relation{i}", _ZERO, value))
    return parts


def _products_missing(space, obstructions: tuple[str, ...]) -> str:
    """Each product of two divisor generators that has an obstruction coordinate, or "none".

    The products are the ones load stored for the space.
    """
    positions = [space.label_position(2, obs) for obs in obstructions]
    hits = []
    for i, a in enumerate(space.divisor_basis):
        for j, b in enumerate(space.divisor_basis[i:], i):
            support = space.product_supports[i][j]
            if support is None:
                raise _no_product(space, i, j)
            held = {k for k, _, _ in support}
            hits.extend(f"{a}*{b}:{obs}" for obs, k in zip(obstructions, positions) if k in held)
    return ",".join(hits) or "none"


def _parts_complete_intersection(run: Run) -> list[Part]:
    """Obstruction coordinates vanish on divisor products but not on the loci."""
    repo = run.repo
    golden = repo.golden["complete_intersection"]
    m31, m4 = repo.space("M31"), repo.space("M4")
    parts = [("m31_products_miss_obstructions", "none", _products_missing(m31, ("kappa2", "d01a")))]
    parts.append(("f31_kappa2_nonzero", True, run.cls("F31_theorem").coeff("kappa2") != 0))
    obstructions = ("d00", "gamma1", "d01a", "d1|1")
    parts.append(("m4_products_miss_obstructions", "none", _products_missing(m4, obstructions)))
    for name, cls in (("h4plus", "H4plus_theorem"), ("hyp4", "Hyp4")):
        c = run.cls(cls)
        parts.append((f"{name}_obstructions_nonzero", True, all(c.coeff(obs) != 0 for obs in obstructions)))

    # cofactor: with the hyperelliptic pullback factor fixed, the divisor b
    # solving (factor) * b = hyperelliptic-pointed class is unique and is
    # exactly the stated obstruction divisor
    factor = apply_hom(repo.hom("p_pullback_m3"), repo.catalog_class("Hyp3_M3"))
    columns = [divisor_product(factor, m31.basis_class(1, g)).support for g in m31.divisor_basis]
    rows = _transpose(columns, len(m31.codim2_basis))
    sol = solve_exact(rows, run.cls("Hyp31_theorem").support, len(columns))
    if isinstance(sol, Solution):
        parts.append(("cofactor_unique", True, sol.unique))
        cofactor = m31.from_dict(1, dict(zip(m31.divisor_basis, sol.vector)))
        parts.append(("cofactor", m31.from_dict(1, golden["cofactor"]), cofactor))
    else:
        parts.append(("cofactor_unique", True, f"inconsistent ({sol.witness_rhs})"))
    return parts


def _parts_grr_spin(run: Run) -> list[Part]:
    golden = run.repo.golden["grr_spin"]
    parts = []
    top = grr_spin_character(GRR_MAX_ORDER)
    for order, key in ((4, "order4"), (2, "order2")):
        actual = lower_order_character(top, order)
        coeffs = {sym: actual.coeff({sym: 1}) for sym in ("kappa1", "kappa2", "kappa3")}
        parts.append((f"character_order{order}", golden[key], {k: v for k, v in coeffs.items() if v != 0}))
    return parts


def _parts_jet_chern(run: Run) -> list[Part]:
    golden = run.repo.golden["jet_chern"]
    parts = []
    for key, (ch, cv) in run.jets.items():
        block = golden[key]
        parts.append((f"{key}:rank", block["rank"], cv.rank))
        actual_c = tuple(c.coeff({"psi": k}) for k, c in enumerate((cv.c1, cv.c2, cv.c3), 1))
        parts.append((f"{key}:c", tuple(block["c"]), actual_c))
        actual_ch = tuple(ch.coeff({"psi": k}) for k in range(1, 4))
        parts.append((f"{key}:ch", tuple(block["ch"]), actual_ch))
    return parts


def _parts_lambda2(run: Run) -> list[Part]:
    golden = run.repo.golden["lambda2_values"]
    return [(which, golden[which], value) for which, value in run.lambda2.items()]


def _parts_enumerative(run: Run) -> list[Part]:
    repo = run.repo
    golden = repo.golden["enumerative"]
    parts = []
    for d, v in golden["abel"].items():
        parts.append((f"abel:{d}", v, abel_difference_degree(int(d))))
    for key, v in golden["mixed"].items():
        d1, d2 = (int(x) for x in key.split(","))
        parts.append((f"mixed:{key}", v, mixed_difference_degree(d1, d2)))
    for g, v in golden["scorza_class"].items():
        parts.append((f"correspondence_class:{g}", tuple(v), scorza_correspondence_class(int(g))))
    total, triple_parts = scorza_triple_degree()
    parts.append(("triple_total", golden["scorza_triple"]["total"], total))
    parts.append(("triple_parts", tuple(golden["scorza_triple"]["parts"]), triple_parts))
    theta_count = {"odd": odd_theta_count, "even": even_theta_count}
    for key, v in golden["spin_cover"].items():
        g, parity = key.split(",")
        parts.append((f"spin_cover:{key}", v, theta_count[parity](int(g))))
    # load has re-evaluated each constant from its decomposition
    for cid, v in golden["count_values"].items():
        parts.append((f"count:{cid}", v, repo.counts.get(cid)))
    return parts


# --- registry -------------------------------------------------------------


# the package's one dataclass: perfbench/tracer.py rebuilds each check with
# dataclasses.replace
@dataclass(frozen=True)
class CheckDef:
    id: str
    fn: Callable[[Run], list[Part]]


# each computing check by id; a lambda looks its function up when called, so
# a wrapped or patched function is the one that runs
_COMPUTE: dict[str, Callable[[Run], tuple[dict[str, TautClass], list[Part]]]] = {
    "hyp31": lambda run: compute_hyp31(run),
    "w2_lemmas": lambda run: compute_w2(run),
    "f31": lambda run: compute_f31(run),
    "h4plus": lambda run: compute_h4plus(run),
}

CHECKS: tuple[CheckDef, ...] = (
    CheckDef("basis_m31", _parts_basis_m31),
    CheckDef("prop4", _parts_prop4),
    CheckDef("prop4_alt_route", _parts_prop4_alt),
    CheckDef("hyp31", lambda run: run.result("hyp31")[1]),
    CheckDef("j3_pullback_table", _parts_j3_table),
    CheckDef("w2_lemmas", lambda run: run.result("w2_lemmas")[1]),
    CheckDef("multiplicities_f31", lambda run: run.solution("F31")[2]),
    CheckDef("f31", lambda run: run.result("f31")[1]),
    CheckDef("multiplicities_h4plus", lambda run: run.solution("H4plus")[2]),
    CheckDef("h4plus", lambda run: run.result("h4plus")[1]),
    CheckDef("pushforwards", _parts_pushforwards),
    CheckDef("surface_tables", _parts_surface_tables),
    CheckDef("relation_hygiene", _parts_relation_hygiene),
    CheckDef("complete_intersection", _parts_complete_intersection),
    CheckDef("grr_spin", _parts_grr_spin),
    CheckDef("jet_chern", _parts_jet_chern),
    CheckDef("lambda2_values", _parts_lambda2),
    CheckDef("enumerative", _parts_enumerative),
)

_CHECK_INDEX = {c.id: c for c in CHECKS}


def check_ids() -> list[str]:
    return [c.id for c in CHECKS]


def _run_one(check: CheckDef, run: Run) -> CheckResult:
    anchor = run.repo.golden.get(check.id, {}).get("anchor", "")
    t0 = time.perf_counter()
    parts = check.fn(run)
    return _finish(check.id, anchor, parts, t0)


def run_check(check_id: str, repo: Repo) -> CheckResult:
    """Run one named check on a fresh Run; pure given the loaded repository."""
    try:
        check = _CHECK_INDEX[check_id]
    except KeyError:
        raise UnknownNameError(
            f"unknown check {check_id!r}; known ids: {', '.join(check_ids())}"
        ) from None
    return _run_one(check, Run(repo))


def run_all(repo: Repo) -> Report:
    """Run every registered check, in declaration order.

    The checks share one Run, so each shared result is computed once per call.
    """
    run = Run(repo)
    return Report(__version__, tuple(_run_one(c, run) for c in CHECKS))


def export_report(report: Report, format: str) -> str:
    if format == "json":
        return report.to_json()
    if format == "human":
        return report.to_human()
    raise ValueError(f"unknown report format {format!r}")
