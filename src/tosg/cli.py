"""Command-line front end: one subcommand per solver plus the pipeline.

Exit codes: 0 success, 1 solver or resource-limit failure, 2 bad input or
configuration.  Results go to --output or stdout; diagnostics to stderr.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import __version__
from .duel import DuelSpec, simulate_duel, solve_duel
from .errors import InputError, SolverError, StageError, TosgError
from .game_tree import GameTree, evaluate_tree, solve_evasion_game
from .matrix_game import PayoffMatrix, _field, solve_exact, solve_fictitious_play
from .decision import TosgProblem, solve_tosg
from .pipeline import ProtocolConfig, run_protocol
from .risk import EconomicRiskParams, MitigatingRiskParams, risk_economic, risk_mitigating
from .timing import kernel_from_spec, solve_timing

SCHEMA_VERSION = 1


def _read_document(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as exc:
        raise InputError(f"cannot read input file {path!r}: {exc}") from exc
    except ValueError as exc:  # JSONDecodeError or UnicodeDecodeError
        raise InputError(f"input file {path!r} is not valid JSON: {exc}") from exc
    except RecursionError:
        raise InputError(f"input file {path!r} nests too deeply to parse") from None


def _emit(text: str, output: str | None) -> None:
    if output:
        with open(output, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _emit_json(doc: dict, output: str | None) -> None:
    try:
        text = json.dumps(doc, indent=2, sort_keys=True, allow_nan=False)
    except ValueError:  # Infinity and NaN are not JSON
        raise SolverError("the result is not finite and cannot be written as JSON") from None
    _emit(text + "\n", output)


def _density_csv(grid: np.ndarray, weights: np.ndarray) -> str:
    lines = ["t,weight,cdf"]
    cdf = np.cumsum(weights)
    for t, w, c in zip(grid, weights, cdf):
        lines.append(f"{float(t)!r},{float(w)!r},{float(c)!r}")
    return "\n".join(lines) + "\n"


def _cmd_solve_matrix(args) -> None:
    game = PayoffMatrix.from_dict(_read_document(args.input))
    if args.method == "exact":
        solution = solve_exact(game, tol=args.tol)
    else:
        solution = solve_fictitious_play(game, max_iterations=args.iterations, tol=args.tol)
    _emit_json(solution.to_dict(), args.output)


def _cmd_solve_duel(args) -> None:
    spec = DuelSpec.from_dict(_read_document(args.input))
    solution = solve_duel(spec, grid_n=args.grid)
    if args.format == "csv":
        grid = np.linspace(0.0, 1.0, solution.grid_n)
        _emit(_density_csv(grid, solution.p1_density.weights), args.output)
    else:
        _emit_json(solution.to_dict(), args.output)


def _cmd_simulate_duel(args) -> None:
    doc = _read_document(args.input)
    spec = DuelSpec.from_dict(doc)
    x, y = (_field(doc, key, "simulate-duel input") for key in ("x", "y"))
    estimate, stderr = simulate_duel(spec, x, y, trials=args.iterations, seed=args.seed)
    _emit_json(
        {"estimate": estimate, "stderr": stderr, "trials": args.iterations, "seed": args.seed},
        args.output,
    )


def _cmd_eval_tree(args) -> None:
    doc = _read_document(args.input)
    try:
        value = evaluate_tree(GameTree.from_dict(doc))
    except RecursionError:  # a tree just shallow enough for json.load
        raise InputError("game tree nests too deeply to evaluate") from None
    _emit_json({"value": value}, args.output)


def _cmd_solve_evasion(args) -> None:
    _emit_json(solve_evasion_game(tol=args.tol).to_dict(), args.output)


def _cmd_solve_timing(args) -> None:
    doc = _read_document(args.input)
    if args.grid is not None:
        doc = {"A": _field(doc, "A", "kernel document"), "grid_n": args.grid}
    kernel = kernel_from_spec(doc)
    solution = solve_timing(kernel)
    if args.format == "csv":
        _emit(_density_csv(kernel.grid, solution.strategy.weights), args.output)
    else:
        _emit_json(solution.to_dict(), args.output)


def _cmd_risk(args) -> None:
    doc = _read_document(args.input)
    if not isinstance(doc, dict) or not ({"economic", "mitigating"} & set(doc)):
        raise InputError("risk input needs an 'economic' or 'mitigating' section")
    out = {}
    if "economic" in doc:
        out["economic"] = risk_economic(EconomicRiskParams.from_dict(doc["economic"]))
    if "mitigating" in doc:
        out["mitigating"] = risk_mitigating(MitigatingRiskParams.from_dict(doc["mitigating"]))
    _emit_json(out, args.output)


def _cmd_solve_tosg(args) -> None:
    problem = TosgProblem.from_dict(_read_document(args.input))
    _emit_json(solve_tosg(problem, tol=args.tol).to_dict(), args.output)


def _cmd_run_protocol(args) -> None:
    config = ProtocolConfig.from_dict(_read_document(args.input))
    report = run_protocol(config)
    if args.format == "csv":
        grid = np.linspace(0.0, 1.0, config.grid_n)
        _emit(_density_csv(grid, report.timing.strategy.weights), args.output)
    else:
        _emit(report.to_json(), args.output)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tosg", description="Tactical game-theory toolkit"
    )
    parser.add_argument(
        "--version",
        action="version",
        version=f"tosg {__version__} (format schema {SCHEMA_VERSION})",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, *, input_file=True, fmt=False):
        if input_file:
            p.add_argument("input", help="path to the JSON input document")
        p.add_argument("--output", help="write the result here instead of stdout")
        if fmt:
            p.add_argument("--format", choices=("json", "csv"), default="json")

    p = sub.add_parser("solve-matrix", help="solve a payoff matrix")
    common(p)
    p.add_argument("--method", choices=("exact", "fictitious-play"), default="exact")
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--iterations", type=int, default=100_000)
    p.set_defaults(handler=_cmd_solve_matrix)

    p = sub.add_parser("solve-duel", help="solve a discretized silent duel")
    common(p, fmt=True)
    p.add_argument("--grid", type=int, default=101, help="uniform grid size on [0, 1]")
    p.set_defaults(handler=_cmd_solve_duel)

    p = sub.add_parser("simulate-duel", help="Monte Carlo duel payoff estimate")
    common(p)
    p.add_argument("--seed", type=int, required=True, help="RNG seed (required)")
    p.add_argument("--iterations", type=int, default=100_000, help="number of trials")
    p.set_defaults(handler=_cmd_simulate_duel)

    p = sub.add_parser("eval-tree", help="backward-induction value of a game tree")
    common(p)
    p.set_defaults(handler=_cmd_eval_tree)

    p = sub.add_parser("solve-evasion", help="solve the aiming-and-evasion game")
    common(p, input_file=False)
    p.add_argument("--tol", type=float, default=1e-9)
    p.set_defaults(handler=_cmd_solve_evasion)

    p = sub.add_parser("solve-timing", help="solve a game of timing")
    common(p, fmt=True)
    p.add_argument("--grid", type=int, help="override the document's grid_n")
    p.set_defaults(handler=_cmd_solve_timing)

    p = sub.add_parser("risk", help="evaluate risk scores")
    common(p)
    p.set_defaults(handler=_cmd_risk)

    p = sub.add_parser("solve-tosg", help="solve the constrained decision problem")
    common(p)
    p.add_argument("--tol", type=float, default=1e-10)
    p.set_defaults(handler=_cmd_solve_tosg)

    p = sub.add_parser("run-protocol", help="run the full decision pipeline")
    common(p, fmt=True)
    p.set_defaults(handler=_cmd_run_protocol)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already printed the diagnostic
        return 0 if exc.code in (0, None) else 2

    try:
        args.handler(args)
    except (TosgError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        cause = exc.__cause__ if isinstance(exc, StageError) else exc
        return 2 if isinstance(cause, (InputError, OSError)) else 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
