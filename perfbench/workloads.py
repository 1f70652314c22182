"""Workloads of the tosg benchmark: inputs made from a seed, and output checks.

Each op is one `tosg` CLI invocation.  `make_plan` runs in the benchmark's
parent process and needs only the standard library; `check` runs in the
worker, after the op's timer has stopped, and may call into `tosg`.
"""

from __future__ import annotations

import json
import math
import os
import random

WORKLOADS = ("protocol", "duel-2v6", "timing-801", "iterative")

GOLDEN_CONFIG = os.path.join("tests", "data", "golden_protocol_config.json")
GOLDEN_REPORT = os.path.join("tests", "data", "golden_protocol_report.json")

DUEL_SPEC = {"m": 2, "n": 6, "p": {"kind": "identity"}, "q": {"kind": "identity"}}
DUEL_GRID = 21
DUEL_VALUE = -0.47292884098749355
DUEL_SUPPORTS = ([0.2, 1.0], [0.1, 1.0])

TIMING_SPEC = {"A": {"kind": "duel"}, "grid_n": 801}

# Enough pairs that no run of the iterative workload repeats an input.
ITERATIVE_PAIRS = 64
SIM_TRIALS = 10_000_000
FP_TOL = 1e-2
# A 3-stderr bound would flag about one honest estimate in 370; over the
# hundreds of simulate ops in a set of benchmark runs, most sets would report
# a false failure.  Five stderr flags one in 1.7 million.
SIM_Z = 5.0


def _op(kind: str, argv: list[str], workdir: str, check: dict | None = None) -> dict:
    output = os.path.join(workdir, f"out-{kind}.json")
    return {"kind": kind, "argv": argv + ["--output", output], "output": output, "check": check or {}}


def _write(path: str, doc) -> str:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(doc, handle)
    return path


def _random_game(rng: random.Random, m: int, n: int) -> list[list[float]]:
    """An m x n game with no pure saddle point.

    A pure saddle lets fictitious play close its bracket early and stop; a
    game without one runs the whole iteration budget.
    """
    while True:
        a = [[round(rng.uniform(-1.0, 1.0), 6) for _ in range(n)] for _ in range(m)]
        maximin = max(min(row) for row in a)
        minimax = min(max(a[i][j] for i in range(m)) for j in range(n))
        if maximin < minimax:
            return a


def _random_accuracy(rng: random.Random) -> dict:
    u = rng.random()
    if u < 0.4:
        return {"kind": "identity"}
    if u < 0.8:
        return {"kind": "power", "k": round(rng.uniform(0.5, 3.0), 6)}
    return {"kind": "table", "points": [[0.0, 0.0], [0.5, round(rng.uniform(0.2, 0.8), 6)], [1.0, 1.0]]}


def _random_duel_case(rng: random.Random, m: int, n: int) -> dict:
    return {
        "m": m,
        "n": n,
        "p": _random_accuracy(rng),
        "q": _random_accuracy(rng),
        "x": sorted(round(rng.random(), 6) for _ in range(m)),
        "y": sorted(round(rng.random(), 6) for _ in range(n)),
    }


def make_plan(name: str, seed: int, root: str, workdir: str) -> dict:
    """Inputs for one run of workload `name`, written under `workdir`.

    The plan is a list of units; a unit is a list of ops that always run
    together, so the iterative workload stays an even mix of op types.
    """
    if name == "protocol":
        config = os.path.join(root, GOLDEN_CONFIG)
        op = _op("protocol", ["run-protocol", config], workdir, {"golden": os.path.join(root, GOLDEN_REPORT)})
        return {"units": [[op]], "shapes": {"timing_kernel": [201, 201]}}
    if name == "duel-2v6":
        spec = _write(os.path.join(workdir, "duel-2v6.json"), DUEL_SPEC)
        op = _op("duel", ["solve-duel", spec, "--grid", str(DUEL_GRID)], workdir)
        shape = [math.comb(DUEL_GRID, DUEL_SPEC["m"]), math.comb(DUEL_GRID, DUEL_SPEC["n"])]
        return {"units": [[op]], "shapes": {"duel_matrix": shape}}
    if name == "timing-801":
        spec = _write(os.path.join(workdir, "timing-801.json"), TIMING_SPEC)
        op = _op("timing", ["solve-timing", spec], workdir)
        n = TIMING_SPEC["grid_n"]
        return {"units": [[op]], "shapes": {"timing_kernel": [n, n]}}
    if name == "iterative":
        rng = random.Random(seed)
        # Op cost depends on the game size and the duel's shot counts, so these
        # follow one fixed pseudo-random schedule and every run does the same
        # work; the seed draws the payoffs, accuracies, firing times and
        # simulation seeds.
        sizes_rng = random.Random("iterative-sizes")
        units, sizes = [], []
        for k in range(ITERATIVE_PAIRS):
            m, n, shots1, shots2 = (sizes_rng.randint(lo, hi) for lo, hi in ((2, 8), (2, 8), (3, 5), (3, 5)))
            sizes.append([m, n])
            game = _random_game(rng, m, n)
            game_path = _write(os.path.join(workdir, f"game-{k}.json"), {"entries": game})
            case = _random_duel_case(rng, shots1, shots2)
            case_path = _write(os.path.join(workdir, f"case-{k}.json"), case)
            sim_seed = rng.randrange(2**31)
            units.append([
                _op("fp", ["solve-matrix", game_path, "--method", "fictitious-play"], workdir,
                    {"entries": game}),
                _op("simulate", ["simulate-duel", case_path, "--seed", str(sim_seed),
                                 "--iterations", str(SIM_TRIALS)], workdir,
                    {"case": case, "seed": sim_seed}),
            ])
        return {"units": units, "shapes": {"games": sizes}}
    raise ValueError(f"unknown workload {name!r}")


def check(op: dict) -> str | None:
    """Why the output of an op that exited 0 is wrong, or None when it is right."""
    with open(op["output"], "rb") as handle:
        data = handle.read()
    spec = op["check"]
    kind = op["kind"]
    if kind == "protocol":
        with open(spec["golden"], "rb") as handle:
            return None if data == handle.read() else "report differs from the golden report"
    doc = json.loads(data)
    if kind == "duel":
        return _check_duel(doc)
    if kind == "timing":
        return _check_timing(doc)
    if kind == "fp":
        return _check_fp(doc, spec["entries"])
    if kind == "simulate":
        return _check_simulate(doc, spec["case"], spec["seed"])
    raise ValueError(f"unknown op kind {kind!r}")


def _mass(density: dict) -> float:
    return math.fsum(density["weights"]) + density["atom_at_zero"]


def _check_duel(doc: dict) -> str | None:
    if abs(doc["value"] - DUEL_VALUE) > 1e-9:
        return f"value {doc['value']!r} != {DUEL_VALUE!r}"
    for key in ("p1_density", "p2_density"):
        if abs(_mass(doc[key]) - 1.0) > 1e-9:
            return f"{key} sums to {_mass(doc[key])!r}"
    supports = (doc["support_p1"], doc["support_p2"])
    if any(abs(a - b) > 1e-12 for got, want in zip(supports, DUEL_SUPPORTS) for a, b in zip(got, want)):
        return f"supports {supports} != {DUEL_SUPPORTS}"
    return None


def _check_timing(doc: dict) -> str | None:
    if doc["residual_eq11"] > 1e-6:
        return f"residual_eq11 {doc['residual_eq11']!r} > 1e-6"
    if abs(doc["value"]) > 1e-9:
        return f"value {doc['value']!r} is not 0"
    if abs(doc["support_lo"] - 1.0 / 3.0) > 0.02:
        return f"support_lo {doc['support_lo']!r} is not near 1/3"
    return None


def _check_fp(doc: dict, entries) -> str | None:
    from tosg.matrix_game import PayoffMatrix, solve_exact

    exact = solve_exact(PayoffMatrix(entries)).value
    if abs(doc["value"] - exact) > FP_TOL:
        return f"fictitious-play value {doc['value']!r} vs exact {exact!r}"
    return None


def _check_simulate(doc: dict, case: dict, seed: int) -> str | None:
    from tosg.duel import DuelSpec, duel_payoff

    exact = duel_payoff(DuelSpec.from_dict(case), case["x"], case["y"])
    if doc["trials"] != SIM_TRIALS or doc["seed"] != seed:
        return f"ran {doc['trials']} trials with seed {doc['seed']}"
    if abs(doc["estimate"] - exact) > SIM_Z * doc["stderr"]:
        return f"estimate {doc['estimate']!r} +- {doc['stderr']!r} vs exact {exact!r}"
    return None
