"""Spans around the calls into each tosg layer, recorded from the benchmark.

The tracer replaces module attributes with timing wrappers while a traced op
runs, and restores them afterwards.  Each wrapper sits at the attribute its
caller looks up (for instance `tosg.duel.solve_exact`, not only
`tosg.matrix_game.solve_exact`), so every call into a layer passes through
exactly one wrapper.  Nothing inside `tosg` is changed.
"""

from __future__ import annotations

import importlib
import inspect
import time
from collections import Counter


def _lp_hook(counts, arguments, result, exc):
    if result is not None:
        counts["lp_nit"] += int(result.nit)
    for key in ("A_ub", "A_eq"):
        matrix = arguments.get(key)
        if matrix is not None:
            counts["lp_cells"] += int(getattr(matrix, "size", 0))


def _solve_exact_hook(counts, arguments, result, exc):
    if exc is not None and "saddle gap" in str(exc):
        counts["gap_fail"] += 1


def _fp_hook(counts, arguments, result, exc):
    if result is not None:
        counts["fp_iterations"] += int(result.iterations)


def _discretize_hook(counts, arguments, result, exc):
    if result is not None:
        counts["discretize_cells"] += int(result.entries.size)
        counts["discretize_bytes"] += int(result.entries.size * result.entries.itemsize)


def _simulate_hook(counts, arguments, result, exc):
    counts["simulate_trials"] += int(arguments["trials"])


def _kernel_hook(counts, arguments, result, exc):
    counts["kernel_cells"] += int(arguments["grid_n"]) ** 2


# (module, attribute its caller looks up, span name, count hook)
WRAPS = (
    ("tosg.matrix_game", "linprog", "matrix_game.lp", _lp_hook),
    ("tosg.cli", "solve_exact", "matrix_game.solve_exact", _solve_exact_hook),
    ("tosg.duel", "solve_exact", "matrix_game.solve_exact", _solve_exact_hook),
    ("tosg.timing", "solve_exact", "matrix_game.solve_exact", _solve_exact_hook),
    ("tosg.cli", "solve_fictitious_play", "matrix_game.fp", _fp_hook),
    ("tosg.cli", "solve_duel", "duel.solve", None),
    ("tosg.duel", "discretize_duel", "duel.discretize", _discretize_hook),
    ("tosg.cli", "simulate_duel", "duel.simulate", _simulate_hook),
    ("tosg.timing", "build_kernel", "timing.build_kernel", _kernel_hook),
    ("tosg.pipeline", "build_kernel", "timing.build_kernel", _kernel_hook),
    ("tosg.cli", "solve_timing", "timing.solve", None),
    ("tosg.pipeline", "solve_timing", "timing.solve", None),
    ("tosg.timing", "verify_optimality", "timing.verify", None),
    ("tosg.cli", "run_protocol", "pipeline.run", None),
    ("tosg.pipeline", "_decision_path_scores", "pipeline.score", None),
    ("tosg.pipeline", "tosg_value", "pipeline.tosg_value", None),
    ("tosg.pipeline", "imbed_objective", "pipeline.imbed", None),
    ("tosg.pipeline", "solve_tosg", "decision.solve_tosg", None),
    ("tosg.pipeline", "constraint_targets_from_risk", "decision.targets", None),
    ("tosg.pipeline", "risk_mitigating", "risk.mitigating", None),
    ("tosg.decision", "risk_mitigating", "risk.mitigating", None),
)

ROOT_SPAN = "cli.main"


class Tracer:
    """In-memory spans: [name, start, end, index of the enclosing span]."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patches = []  # (module, attribute, original, wrapper)
        for module_name, attr, name, hook in WRAPS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._patches.append((module, attr, original, self._wrapper(original, name, hook)))

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn inside a span called name."""
        index = self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(index)

    def _wrapper(self, fn, name: str, hook):
        signature = inspect.signature(fn)

        def wrapper(*args, **kwargs):
            result = exc = None
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as error:
                exc = error
                raise
            finally:
                self._close(index)
                if hook is not None:
                    hook(self.counts, signature.bind(*args, **kwargs).arguments, result, exc)

        return wrapper

    def install(self) -> None:
        for module, attr, _, wrapper in self._patches:
            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original, _ in self._patches:
            setattr(module, attr, original)

    def layer_metrics(self, ops: int) -> dict[str, float]:
        """Per-op layer metrics over the `ops` traced ops recorded so far."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        total, own, calls = Counter(), Counter(), Counter()
        for index, (name, start, end, parent) in enumerate(self.spans):
            total[name] += end - start
            own[name] += end - start - child[index]
            calls[name] += 1
        c = self.counts

        def per_iteration(seconds, iterations, scale):
            return seconds / iterations * scale if iterations else 0.0

        sums = {
            "cli.self_s": own[ROOT_SPAN],
            "matrix_game.lp_calls": calls["matrix_game.lp"],
            "matrix_game.lp_s": total["matrix_game.lp"],
            "matrix_game.lp_nit": c["lp_nit"],
            "matrix_game.lp_cells": c["lp_cells"],
            "matrix_game.solve_exact_calls": calls["matrix_game.solve_exact"],
            "matrix_game.solve_exact_self_s": own["matrix_game.solve_exact"],
            "matrix_game.gap_fail": c["gap_fail"],
            "matrix_game.fp_s": total["matrix_game.fp"],
            "matrix_game.fp_iterations": c["fp_iterations"],
            "duel.discretize_s": total["duel.discretize"],
            "duel.discretize_cells": c["discretize_cells"],
            "duel.discretize_bytes": c["discretize_bytes"],
            "duel.solve_self_s": own["duel.solve"],
            "duel.simulate_s": total["duel.simulate"],
            "duel.simulate_trials": c["simulate_trials"],
            "timing.build_kernel_s": total["timing.build_kernel"],
            "timing.kernel_cells": c["kernel_cells"],
            "timing.solve_self_s": own["timing.solve"],
            "timing.verify_s": total["timing.verify"],
            "pipeline.run_self_s": own["pipeline.run"],
            "pipeline.score_s": total["pipeline.score"],
            "pipeline.tosg_value_calls": calls["pipeline.tosg_value"],
            "pipeline.imbed_s": total["pipeline.imbed"],
            "decision.solve_tosg_s": total["decision.solve_tosg"],
            "decision.targets_s": total["decision.targets"],
            "risk.calls": calls["risk.mitigating"],
            "risk.s": total["risk.mitigating"],
        }
        metrics = {name: value / ops for name, value in sums.items()}
        metrics["matrix_game.fp_us_per_iter"] = per_iteration(
            total["matrix_game.fp"], c["fp_iterations"], 1e6
        )
        metrics["duel.simulate_ns_per_trial"] = per_iteration(
            total["duel.simulate"], c["simulate_trials"], 1e9
        )
        return metrics
