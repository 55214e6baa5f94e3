"""One cold verification in a fresh interpreter, for the cold_cli workload.

    PYTHONPATH=src python3 perfbench/cold_driver.py split REPORT OUT
    PYTHONPATH=src python3 perfbench/cold_driver.py trace REPORT OUT

`split` times ``import tautverify.cli``, ``Repo()``, the first ``run_all``
and ``export_report`` (with the write of REPORT) one after another, and
writes the four times in ms to OUT as JSON.  `trace` installs the span
recorder after the import, runs ``tautverify run-all --json REPORT`` through
``cli.main`` and writes its exit code and span totals to OUT.
"""

import sys
import time


def split(report_path: str, out_path: str) -> None:
    t0 = time.perf_counter()
    import tautverify.cli as cli

    t1 = time.perf_counter()
    repo = cli.Repo()
    t2 = time.perf_counter()
    report = cli.run_all(repo)
    t3 = time.perf_counter()
    with open(report_path, "w", encoding="utf-8") as fh:
        fh.write(cli.export_report(report, "json"))
    t4 = time.perf_counter()

    import json

    times = {"import_ms": t1 - t0, "load_ms": t2 - t1, "first_run_ms": t3 - t2, "export_ms": t4 - t3}
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump({k: v * 1000 for k, v in times.items()}, fh)


def trace(report_path: str, out_path: str) -> None:
    import contextlib
    import io
    import json

    import tautverify.cli as cli
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["run-all", "--json", report_path])
    stats = tracer.fold()
    tracer.uninstall()
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump({"exit_code": code, "stats": stats.to_json()}, fh)


if __name__ == "__main__":
    mode, report_arg, out_arg = sys.argv[1:4]
    {"split": split, "trace": trace}[mode](report_arg, out_arg)
