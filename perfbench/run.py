"""Benchmark of the tosg command-line tool.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of protocol, duel-2v6, timing-801, iterative, or `all` for every
workload in turn.  Each workload runs in a fresh worker process that drives
`tosg.cli.main(argv)` in a closed loop with one client: one op at a time,
each writing its result through `--output` and checked after its timer
stops.  With --trace 0 the run reports the end-to-end metrics declared in
BENCHMARK.json; with --trace 1 it times each op untraced and then traced,
and reports the per-layer metrics.  The last line of stdout is the result
as one JSON object.  Run it from any directory; it reads and writes only
inside the checkout that holds it.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

from workloads import GOLDEN_CONFIG, GOLDEN_REPORT, WORKLOADS, make_plan

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(ROOT, "perfbench", "worker.py")
WORK = os.path.join(ROOT, ".perfbench_work")
# Fresh processes that only import the program; with the worker's own start
# they give five set-up samples per run.
SETUP_PROBES = 4
# Every process this run starts is finished well inside the 180 s limit.
DEADLINE_S = 170.0
THREAD_ENV = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


def _declared_metrics(kind: str) -> list[dict]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)[kind]


def _last_json_line(stdout: str) -> dict:
    lines = stdout.strip().splitlines()
    if not lines:
        raise RuntimeError("worker printed no result")
    return json.loads(lines[-1])


def _spawn(argv: list[str], deadline: float) -> tuple[float, dict]:
    """Run a worker to completion; return its spawn time and its result."""
    spawned = time.monotonic()
    proc = subprocess.run(
        [sys.executable] + argv,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        cwd=ROOT,
        timeout=max(deadline - spawned, 1.0),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return spawned, _last_json_line(proc.stdout)


def _tail(values: list[float]) -> tuple[float, float]:
    """The highest percentile up to p90 with at least ten samples beyond it.

    Falls back to the median when there are fewer than twenty samples.
    Returns (value, percentile).
    """
    n = len(values)
    q = min(0.9, max(0.5, 1.0 - 10.0 / n))
    ordered = sorted(values)
    pos = q * (n - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, n - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo), q


def run_workload(name: str, seed: int, seconds: float, trace: bool, deadline: float) -> tuple[dict, dict, dict]:
    """Run one workload; return (end-to-end or per-layer metrics, counts, info)."""
    workdir = os.path.join(WORK, f"{os.getpid()}-{name}")
    os.makedirs(workdir)
    try:
        plan = make_plan(name, seed, ROOT, workdir)
        plan_path = os.path.join(workdir, "plan.json")
        with open(plan_path, "w", encoding="utf-8") as handle:
            json.dump({**plan, "src": SRC, "seconds": seconds, "trace": trace}, handle)
        setups = []
        for _ in range(SETUP_PROBES):
            spawned, probe = _spawn([WORKER, "--probe", SRC], deadline)
            setups.append(probe["ready"] - spawned)
        spawned, result = _spawn([WORKER, plan_path], deadline)
        setups.append(result["ready"] - spawned)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if os.path.isdir(WORK) and not os.listdir(WORK):
            os.rmdir(WORK)

    records = result["ops"]
    failed = [r for r in records if r["error"] is not None]
    untraced = [r for r in records if not r["traced"]]
    walls = [r["wall"] for r in untraced]
    tail, q = _tail(walls)
    if trace:
        traced_wall = sum(r["wall"] for r in records if r["traced"])
        metrics = dict(result["layers"])
        metrics["trace.overhead_ratio"] = traced_wall / sum(walls) - 1.0
    else:
        metrics = {
            "setup_s": statistics.median(setups),
            "solve_p50_s": statistics.median(walls),
            "solve_p90_s": tail,
            "solves_per_s": sum(r["error"] is None for r in untraced) / sum(walls),
            "cpu_per_solve_s": sum(r["cpu"] for r in untraced) / len(untraced),
            "peak_rss_mb": result["peak_rss_mb"],
        }
    info = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "ops": len(untraced),
        "fail_ratio": len(failed) / len(records),
        "solve_p90_percentile": round(100 * q, 1),
        "op_kinds": {kind: sum(r["kind"] == kind for r in untraced) for kind in sorted({r["kind"] for r in untraced})},
        "shapes": plan["shapes"] if name != "iterative" else {"games": plan["shapes"]["games"][: len(untraced) // 2]},
        "first_failures": sorted({r["error"] for r in failed})[:3],
        "setup_samples_s": setups,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "thread_env": {key: os.environ.get(key) for key in THREAD_ENV},
        "worker_threads": result["threads"],
        "versions": result["versions"],
    }
    return metrics, {"attempted": len(records), "failed": len(failed)}, info


def _declared_values(metrics: dict, declared: list[dict], prefix: str = "") -> dict:
    names = [m["name"] for m in declared]
    if sorted(names) != sorted(metrics):
        missing = sorted(set(names) ^ set(metrics))
        raise RuntimeError(f"measured metrics and BENCHMARK.json disagree on {missing}")
    return {prefix + m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared}


def _missing_files() -> list[str]:
    needed = [os.path.join("src", "tosg", "cli.py"), GOLDEN_CONFIG, GOLDEN_REPORT, "BENCHMARK.json"]
    return [path for path in needed if not os.path.isfile(os.path.join(ROOT, path))]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = _missing_files()
    if missing:
        print(f"error: not a tosg checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    declared = _declared_metrics("per_layer" if args.trace else "end_to_end")

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    values, attempted, failed = {}, 0, 0
    for name in names:
        deadline = time.monotonic() + DEADLINE_S
        metrics, counts, info = run_workload(name, args.seed, args.seconds, bool(args.trace), deadline)
        print("info: " + json.dumps(info, sort_keys=True))
        print(f"{name}: {counts['attempted']} ops, fail_ratio {info['fail_ratio']:.4g}")
        prefix = f"{name}." if len(names) > 1 else ""
        entries = _declared_values(metrics, declared, prefix)
        for key, entry in entries.items():
            print(f"  {key:<40} {entry['value']:>16.6g} {entry['unit']}")
        values.update(entries)
        attempted += counts["attempted"]
        failed += counts["failed"]
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": values}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
