"""Benchmark of the tautverify verifier.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ``src/``.
One process drives all load: one client, closed loop, each operation starts
when the previous one has been checked.  Workloads:

  warm_verify      one Repo() loaded in set-up; an op is run_all(repo)
  cold_cli         an op is a fresh `python -m tautverify.cli run-all --json`
  perturbed_sweep  an op is Repo(dir) + run_all over a copy of the data dir
                   with one number raised by 1, or over an unperturbed
                   control copy before every second site; the seed picks
                   the sites

With ``--trace 0`` the last line of output is a JSON object holding the
end-to-end metrics; with ``--trace 1`` the operations run under the span
recorder of tracer.py and the JSON holds the per-layer metrics.  Every op's
output is checked; an op with a wrong output counts as failed.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import sweep
from tracer import LAYERS, Stats, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DATA = SRC / "tautverify" / "data"
WORK = ROOT / ".bench_work"

# today's checks; each must be present and pass in every warm_verify op
EXPECTED_CHECKS = (
    "basis_m31", "prop4", "prop4_alt_route", "hyp31", "j3_pullback_table", "w2_lemmas",
    "multiplicities_f31", "f31", "multiplicities_h4plus", "h4plus", "pushforwards",
    "surface_tables", "relation_hygiene", "complete_intersection", "grr_spin", "jet_chern",
    "lambda2_values", "enumerative",
)
# set-ups timed before the ops in a traced run, whose loads data.load_ms counts
SETUP_REPEATS = 3
# an untraced run times one set-up before the ops and more between them, on
# throwaway instances, whenever set-ups have taken less than SETUP_SHARE of
# the loop's time: setup_s then samples the whole run, not one moment of the
# host, and a 40-s run holds about 12 to 50 set-ups
SETUP_SHARE = 0.1
# strata drawn per run; a 40-s run visits each site about four times
SWEEP_SITES = 100
# the unperturbed control dir comes before every CONTROL_EVERY-th site, so a
# 40-s run times the reference input about 150 to 200 times
CONTROL_EVERY = 2
COLD_SPLIT_RUNS = 5
OVERHEAD_PAIRS = 12
SPIN_REPEATS = 5
SPIN_LOOP = 200_000
CHILD_TIMEOUT_S = 60

# metric name -> span name, for the primitives reported on their own
PRIMITIVES = {
    "linalg._rref_rows": "linalg._rref_rows",
    "rings.divisor_product": "rings.divisor_product",
    "rings.apply_hom": "rings.apply_hom",
    "rings.reduce_to_basis": "rings.reduce_to_basis",
    "surfaces.pair_on_surface": "surfaces.pair_on_surface",
    "surfaces.evaluate": "surfaces.evaluate",
    "grr.porteous_c3": "grr.porteous_c3",
    "grr.jet_bundle_chern": "grr.jet_bundle_chern",
    "poly.mul": "poly.TruncatedPoly.__mul__",
}


def spin_ms() -> float:
    """A fixed pure-Python loop: how fast this host runs Python right now."""
    t0 = time.perf_counter()
    x = 0
    for i in range(SPIN_LOOP):
        x += i * i % 7
    return (time.perf_counter() - t0) * 1000


def run_child(argv: list[str]) -> tuple[float, int]:
    """Run a child process to completion; return (wall seconds, exit code)."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    # a blocking wait: Popen.wait(timeout=...) polls in sleeps of up to 50 ms,
    # which would round every op time up to its polling schedule
    watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        code = proc.wait()
    finally:
        watchdog.cancel()
    return time.perf_counter() - t0, code


def reference_report() -> str:
    from tautverify import checks, data

    return checks.run_all(data.Repo()).to_json()


# --- workloads -------------------------------------------------------------
#
# A workload has setup(), op() -> (input key, seconds, output correct, child
# span totals or None) and peak_rss_mb().  The key is None when the op ran on
# the reference input (the shipped data dir), else the sweep site it ran on.
# Program functions are looked up on their modules at call time, so an
# installed tracer sees every call.


class WarmVerify:
    """Every compute layer does its full share per op; data does none."""

    def __init__(self, seed: int, traced: bool, work: Path):
        pass

    def setup(self) -> None:
        from tautverify import checks, data

        self.repo = data.Repo()
        self.first = checks.run_all(self.repo).to_json()

    def op(self):
        from tautverify import checks

        t0 = time.perf_counter()
        report = checks.run_all(self.repo)
        seconds = time.perf_counter() - t0
        passed = {r.id: r.passed for r in report.results}
        ok = all(passed.get(cid) for cid in EXPECTED_CHECKS) and report.to_json() == self.first
        return None, seconds, ok, None

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class ColdCli:
    """What a reader pays for one verification: interpreter, import, load, first run."""

    def __init__(self, seed: int, traced: bool, work: Path):
        self.traced = traced
        self.dir = work
        self.report = self.dir / "report.json"
        self.stats = self.dir / "stats.json"

    def setup(self) -> None:
        self.dir.mkdir(parents=True, exist_ok=True)
        self.reference = reference_report()
        # a first CLI run, which also writes the package's bytecode cache
        if not self._cli()[2]:
            raise RuntimeError("the set-up run of the CLI failed")

    def _report_ok(self, code: int) -> bool:
        return code == 0 and self.report.is_file() and self.report.read_text(encoding="utf-8") == self.reference

    def _cli(self):
        self.report.unlink(missing_ok=True)
        seconds, code = run_child([sys.executable, "-m", "tautverify.cli", "run-all", "--json", str(self.report)])
        return None, seconds, self._report_ok(code), None

    def op(self):
        if not self.traced:
            return self._cli()
        self.report.unlink(missing_ok=True)
        seconds, code = run_child(
            [sys.executable, str(HERE / "cold_driver.py"), "trace", str(self.report), str(self.stats)]
        )
        if code != 0:
            return None, seconds, False, None
        doc = json.loads(self.stats.read_text(encoding="utf-8"))
        return None, seconds, doc["exit_code"] == 0 and self._report_ok(code), Stats.from_json(doc["stats"])

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024


class PerturbedSweep:
    """A fresh Repo per op, and the failure paths the all-pass workloads never touch.

    Set-up writes the control copy of the data dir, a work copy, and the
    perturbed text of one file per site.  Before each op the work copy gets
    that text; after it, the original file is put back.  One work copy keeps
    set-up to a few file writes: a full copy per site is thousands of files
    per set-up, and creating and deleting them dominated set-up time.
    """

    def __init__(self, seed: int, traced: bool, work: Path):
        self.seed = seed
        self.control = work / "control"
        self.work = work / "work"
        self.classes: dict = {}  # site -> (class, exception type) of its first run
        self.aborted_types: dict = {}  # site name -> exception type
        self.aborted_ops = 0

    def setup(self) -> None:
        sites = sweep.choose_sites(sweep.enumerate_sites(DATA), SWEEP_SITES, self.seed)
        self.reference = reference_report()
        sweep.write_copy(DATA, self.control)
        sweep.write_copy(DATA, self.work)
        self.items = []
        for i, site in enumerate(sites):
            if i % CONTROL_EVERY == 0:
                self.items.append(None)
            self.items.append((site, sweep.perturbed_text(DATA, site)))
        self.next = 0

    def op(self):
        item = self.items[self.next]
        self.next = (self.next + 1) % len(self.items)
        if item is None:
            t0 = time.perf_counter()
            cls, _, report = sweep.classify(self.control)
            seconds = time.perf_counter() - t0
            return None, seconds, cls == sweep.UNDETECTED and report.to_json() == self.reference, None
        site, text = item
        with sweep.applied(DATA, self.work, site, text):
            t0 = time.perf_counter()
            cls, detail, _ = sweep.classify(self.work)
            seconds = time.perf_counter() - t0
        if cls == sweep.ABORTED:
            self.aborted_types[sweep.site_name(site)] = detail
            self.aborted_ops += 1
        return site, seconds, self.classes.setdefault(site, (cls, detail)) == (cls, detail), None

    def class_counts(self) -> dict:
        counts = dict.fromkeys(sweep.CLASSES, 0)
        for cls, _ in self.classes.values():
            counts[cls] += 1
        return counts

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


WORKLOADS = {"warm_verify": WarmVerify, "cold_cli": ColdCli, "perturbed_sweep": PerturbedSweep}


# --- measurement -----------------------------------------------------------


def timed_setup(make, work: Path):
    """Set up a fresh workload in an empty `work` dir; return it and the seconds taken."""
    shutil.rmtree(work, ignore_errors=True)
    workload = make(work)
    t0 = time.perf_counter()
    workload.setup()
    return workload, time.perf_counter() - t0


def run_ops(workload, seconds: float, tracer, make, setup_times: list):
    """Closed loop for `seconds`; returns (op seconds, op input keys, failed
    count, op span totals).  Untraced, it also times set-ups of throwaway
    instances between ops, into `setup_times`, for SETUP_SHARE of the time."""
    stats = Stats()
    times, keys, failed = [], [], 0
    start = time.perf_counter()
    deadline = start + seconds
    spent = 0.0  # loop time taken by set-ups
    while (now := time.perf_counter()) < deadline:
        if tracer is None and spent < SETUP_SHARE * (now - start):
            setup_times.append(timed_setup(make, WORK / "setup")[1])
            shutil.rmtree(WORK / "setup", ignore_errors=True)
            spent += time.perf_counter() - now
        key, op_seconds, ok, child_stats = workload.op()
        times.append(op_seconds)
        keys.append(key)
        failed += not ok
        if tracer is not None:
            stats.merge(tracer.fold())
        if child_stats is not None:
            stats.merge(child_stats)
    return times, keys, failed, stats


def best_ms(op_times, keys) -> float:
    """The least time of an op on the reference input.

    A shared 2-vCPU host runs the same code up to twice as slow for seconds
    to minutes at a time, so the median op time of a run follows how busy
    the host was; the least time over a hundred or more ops on one input
    follows the program.  Sweep sites are left out: each costs what its
    class costs, and a run visits each only a few times.
    """
    return min(t for key, t in zip(keys, op_times) if key is None) * 1000


def op_summary(op_times) -> dict:
    """Op-time statistics that follow the host's load: printed, not gated."""
    ms = [t * 1000 for t in op_times]
    return {
        "ops_per_s": len(ms) / sum(op_times),
        "op_ms.p50": statistics.median(ms),
        "op_ms.p90": statistics.quantiles(ms, n=10)[8] if len(ms) > 1 else ms[0],
    }


def end_to_end(workload, op_times, keys, setup_times) -> dict:
    return {
        "op_ms.best": (best_ms(op_times, keys), "ms"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (workload.peak_rss_mb(), "MB"),
    }


def cold_split() -> dict:
    """Median over fresh interpreters of the bare floor and each cold stage."""
    WORK.mkdir(exist_ok=True)
    report, out = WORK / "split_report.json", WORK / "split.json"
    floors, stages = [], []
    for _ in range(COLD_SPLIT_RUNS):
        floors.append(run_child([sys.executable, "-c", "pass"])[0] * 1000)
        _, code = run_child([sys.executable, str(HERE / "cold_driver.py"), "split", str(report), str(out)])
        if code != 0:
            raise RuntimeError(f"cold split driver exited with {code}")
        stages.append(json.loads(out.read_text(encoding="utf-8")))
    result = {"cold.python_floor_ms": statistics.median(floors)}
    for key in ("import_ms", "load_ms", "first_run_ms", "export_ms"):
        result[f"cold.{key}"] = statistics.median(s[key] for s in stages)
    return result


def trace_overhead(tracer) -> float:
    """Median traced over median untraced warm run_all, alternating."""
    from tautverify import checks, data

    repo = data.Repo()
    checks.run_all(repo)
    plain, traced = [], []
    for _ in range(OVERHEAD_PAIRS):
        tracer.uninstall()
        t0 = time.perf_counter()
        checks.run_all(repo)
        plain.append(time.perf_counter() - t0)
        tracer.install()
        t0 = time.perf_counter()
        checks.run_all(repo)
        traced.append(time.perf_counter() - t0)
        tracer.fold()
    return statistics.median(traced) / statistics.median(plain)


def layer_of(span: str) -> str:
    return "checks" if span.startswith("check.") else span.split(".")[0]


def per_layer(workload, n_ops: int, ops: Stats, loads: Stats, failed: int, spin: float, overhead: float) -> dict:
    """Per-layer metrics from the span totals of the ops (`ops`) and of every
    Repo load in the run, set-up included (`loads`)."""
    out = {}
    for layer in LAYERS:
        names = [n for n in ops.calls if layer_of(n) == layer]
        out[f"{layer}.self_ms"] = (sum(ops.self_s[n] for n in names) / n_ops * 1000, "ms")
        out[f"{layer}.calls"] = (sum(ops.calls[n] for n in names) / n_ops, "count")
    for metric, name in PRIMITIVES.items():
        out[f"{metric}.self_ms"] = (ops.self_s[name] / n_ops * 1000, "ms")
        out[f"{metric}.calls"] = (ops.calls[name] / n_ops, "count")
    for cid in EXPECTED_CHECKS:
        out[f"check.{cid}.ms"] = (ops.total_s[f"check.{cid}"] / n_ops * 1000, "ms")
    n_loads = loads.calls["data.Repo.__init__"]
    for metric, name in (("data.load_ms", "data.Repo.__init__"), ("data.read_ms", "data.Repo._read")):
        out[metric] = (loads.total_s[name] / n_loads * 1000 if n_loads else 0.0, "ms")
    out.update({k: (v, "ms") for k, v in cold_split().items()})
    for name in ("checks.solve_multiplicities", "grr.locus_lambda2"):
        calls = ops.calls[name]
        out[f"{name}.useful_ratio"] = (ops.distinct[name] / calls if calls else 0.0, "ratio")
        out[f"{name}.calls"] = (calls / n_ops, "count")
    run_alls = ops.calls["checks.run_all"]
    functionals = ops.in_run_all["surfaces.surface_functional"]
    out["surfaces.surface_functional.calls"] = (functionals / run_alls if run_alls else 0.0, "count")
    counts = workload.class_counts() if isinstance(workload, PerturbedSweep) else {}
    for cls in sweep.CLASSES:
        out[f"sweep.{cls}"] = (counts.get(cls, 0), "count")
    # an aborted run is the known fail-open defect: it repeats, so it is not
    # a wrong output, but the user's verification did fail
    out["failed_ratio"] = ((failed + getattr(workload, "aborted_ops", 0)) / n_ops, "ratio")
    out["machine.spin_ms"] = (spin, "ms")
    out["machine.nproc"] = (len(os.sched_getaffinity(0)), "count")
    out["trace.overhead_ratio"] = (overhead, "ratio")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "tautverify" / "__init__.py").is_file():
        print(f"no tautverify sources under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    spins = [spin_ms() for _ in range(SPIN_REPEATS)]
    tracer = Tracer() if args.trace else None
    try:
        if tracer:
            tracer.install()
        make = functools.partial(WORKLOADS[args.workload], args.seed, bool(tracer))
        setup_times = []
        for _ in range(SETUP_REPEATS if tracer else 1):
            workload, seconds = timed_setup(make, WORK / "live")
            setup_times.append(seconds)
        loads = tracer.fold() if tracer else None
        op_times, keys, failed, ops = run_ops(workload, args.seconds, tracer, make, setup_times)
        spins += [spin_ms() for _ in range(SPIN_REPEATS)]
        spin = statistics.median(spins)
        if tracer:
            loads.merge(ops)
            metrics = per_layer(workload, len(op_times), ops, loads, failed, spin, trace_overhead(tracer))
        else:
            metrics = end_to_end(workload, op_times, keys, setup_times)
    finally:
        if tracer:
            tracer.uninstall()
        shutil.rmtree(WORK, ignore_errors=True)

    print(
        f"# workload={args.workload} seed={args.seed} trace={args.trace} samples={len(op_times)}"
        f" failed={failed} python={platform.python_version()} nproc={len(os.sched_getaffinity(0))}"
        f" spin_ms={spin:.3f}"
    )
    print("# " + " ".join(f"{k}={v:.4f}" for k, v in op_summary(op_times).items()) + f" inputs={len(set(keys))}")
    if isinstance(workload, PerturbedSweep):
        print("# sweep sites: " + " ".join(f"{k}={v}" for k, v in workload.class_counts().items()))
        for name, detail in sorted(workload.aborted_types.items()):
            print(f"# aborted {name}: {detail}")
    result = {
        "correct": failed == 0,
        "attempted": len(op_times),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
