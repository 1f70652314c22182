import numpy as np

from tosg import matrix_game
from tosg.duel import AccuracyFunction, DuelSpec
from tosg.timing import TimingKernel, affine_kernel_fn, build_kernel


def random_monotone_kernel(
    rng: np.random.Generator, grid_n: int, boundary: str | None = None
) -> TimingKernel:
    """Affine generator cx*x - cy*y + cxy*x*y + c0 with strict monotone slopes.

    cx > 0 and cxy <= cy yield A strictly increasing in x and strictly
    decreasing in y on the triangle.  ``boundary`` picks the offset c0 so the
    kernel lands in a requested classification regime.
    """
    cx = float(rng.uniform(0.2, 2.0))
    cy = float(rng.uniform(0.2, 2.0))
    cxy = float(rng.uniform(0.0, cy))
    a11 = cx - cy + cxy  # offset-free corner values
    a01 = -cy
    if boundary == "pure_at_1":
        c0 = -a11 - float(rng.uniform(0.05, 0.5))
    elif boundary == "pure_at_0":
        c0 = -a01 + float(rng.uniform(0.05, 0.5))
    elif boundary == "interior":
        c0 = float(rng.uniform(-a11 + 0.01, cy - 0.01))
    else:
        c0 = float(rng.uniform(-0.5, 0.5))
    return build_kernel(affine_kernel_fn(cx, -cy, cxy, c0), grid_n)


def random_duel_case(rng: np.random.Generator):
    """Random small duel spec with firing times, for Monte Carlo checks."""
    m, n = int(rng.integers(1, 4)), int(rng.integers(1, 4))
    accuracies = []
    for _ in range(2):
        u = rng.random()
        if u < 0.4:
            accuracies.append(AccuracyFunction.identity())
        elif u < 0.8:
            accuracies.append(AccuracyFunction.power(float(rng.uniform(0.5, 3.0))))
        else:
            mid = float(rng.uniform(0.2, 0.8))
            accuracies.append(AccuracyFunction.table([[0, 0], [0.5, mid], [1, 1]]))
    spec = DuelSpec(m, n, accuracies[0], accuracies[1])
    x = np.sort(rng.uniform(0.0, 1.0, m))
    y = np.sort(rng.uniform(0.0, 1.0, n))
    return spec, x, y


class CountingHighs:
    """A HiGHS model that passes every call through and records, at each run, the values of its ``options``."""

    options = ("presolve",)

    def __init__(self, highs, runs: list):
        self._highs, self._runs = highs, runs

    def __getattr__(self, name):
        return getattr(self._highs, name)

    def run(self):
        values = tuple(self._highs.getOptionValue(option)[1] for option in self.options)
        self._runs.append(values[0] if len(values) == 1 else values)
        return self._highs.run()


class LadderHighs(CountingHighs):
    """Records each run's presolve option and simplex strategy (1 dual, 4 primal): the ladder's rung."""

    options = ("presolve", "simplex_strategy")


def counted_loads(monkeypatch, runs: list, model: type = CountingHighs) -> list:
    """Wrap every model that _solve_lp loads in ``model``, recording into ``runs``; the wrapped models."""
    load, models = matrix_game._load_lp, []

    def counted(*args):
        models.append(model(load(*args), runs))
        return models[-1]

    monkeypatch.setattr(matrix_game, "_load_lp", counted)
    return models
