"""One workload of the tosg benchmark, run in a fresh process.

    python3 perfbench/worker.py --probe SRC    import the program and exit
    python3 perfbench/worker.py PLAN.json      run the plan's ops in a closed loop

Both forms print one JSON line on stdout.  `ready` is the CLOCK_MONOTONIC
time at which the first op could start; the parent subtracts its own spawn
time from it to get the set-up time.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time

from workloads import check


def _import_program(src: str):
    sys.path.insert(0, src)
    import tosg.cli

    if not os.path.abspath(tosg.cli.__file__).startswith(os.path.join(src, "")):
        raise SystemExit(f"tosg was imported from {tosg.cli.__file__}, not from {src}")
    return tosg.cli


def _cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def _run_op(cli, op: dict, tracer) -> dict:
    """Time one CLI invocation; the output check runs after the timer stops."""
    if os.path.exists(op["output"]):
        os.remove(op["output"])
    error = None
    diagnostics = io.StringIO()
    if tracer is not None:
        tracer.install()
    cpu0 = _cpu_seconds()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stderr(diagnostics):
            if tracer is not None:
                rc = tracer.call("cli.main", cli.main, op["argv"])
            else:
                rc = cli.main(op["argv"])
    except Exception as exc:  # an op that crashes counts as failed; the loop goes on
        rc, error = None, f"{type(exc).__name__}: {exc}"
    wall = time.perf_counter() - start
    cpu = _cpu_seconds() - cpu0
    if tracer is not None:
        tracer.uninstall()
    if rc not in (0, None):
        error = f"exit code {rc}: {diagnostics.getvalue().strip()}"
    if error is None:
        try:
            error = check(op)
        except Exception as exc:  # a malformed output is a failed check
            error = f"check raised {type(exc).__name__}: {exc}"
    return {"kind": op["kind"], "wall": wall, "cpu": cpu, "traced": tracer is not None, "error": error}


def _run_plan(cli, plan: dict) -> dict:
    tracer = None
    if plan["trace"]:
        from spans import Tracer

        tracer = Tracer()
    records = []
    units = plan["units"]
    start = time.perf_counter()
    done = 0
    last_unit = 0.0
    # Start a unit only while one as long as the last still ends inside the
    # window, so a run lasts about --seconds however long its ops take.
    while done == 0 or time.perf_counter() - start + last_unit <= plan["seconds"]:
        unit_start = time.perf_counter()
        for op in units[done % len(units)]:
            # A traced run times each op untraced and then traced, for the overhead ratio.
            records.append(_run_op(cli, op, None))
            if tracer is not None:
                records.append(_run_op(cli, op, tracer))
        last_unit = time.perf_counter() - unit_start
        done += 1
    result = {"ops": records}
    if tracer is not None:
        result["layers"] = tracer.layer_metrics(sum(r["traced"] for r in records))
    return result


def main(argv: list[str]) -> int:
    if argv[:1] == ["--probe"]:
        _import_program(argv[1])
        print(json.dumps({"ready": time.monotonic()}))
        return 0
    with open(argv[0], encoding="utf-8") as handle:
        plan = json.load(handle)
    cli = _import_program(plan["src"])
    ready = time.monotonic()
    import numpy
    import scipy

    result = _run_plan(cli, plan)
    result.update(
        ready=ready,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        threads=len(os.listdir("/proc/self/task")) if os.path.isdir("/proc/self/task") else None,
        versions={"python": sys.version.split()[0], "numpy": numpy.__version__, "scipy": scipy.__version__},
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
