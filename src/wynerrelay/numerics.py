"""Periodic quadrature shared by the rate computations.

The `af_rate` and `waterfill` rates run over one period of a periodic
integrand, where the uniform-grid trapezoid rule converges spectrally on
smooth integrands and at second order across the kinks of waterfill's
clamp. The grids start at min(64, max_points // 2) points and double, so
they nest and any ceiling compares two. `integrate_periodic_report` is the
ladder's one entry point and the one place that lays out the abscissae
k/n, and it samples each of them once; it returns the value and the final
grid size. The grid average over n equispaced points is also, bit for
bit, the eigenvalue average of the corresponding n-cell circular model,
which the finite-ring cross-checks rely on.

numpy is imported inside the functions that build arrays, here and in
`wyner` and `af`, so that importing the package, and every command that
samples no array, such as `--version` or `rate --schemes cf`, starts
without loading it.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

from .model import QuadratureConfig, DEFAULT_QUADRATURE, _require_integer

if TYPE_CHECKING:
    import numpy as np


class ConvergenceError(ArithmeticError):
    """An iterative scheme ran out of budget before reaching tolerance."""

    def __init__(self, message: str, best_estimate: float):
        super().__init__(f"{message}; best estimate {best_estimate!r}")
        self.best_estimate = best_estimate


def uniform_grid(points: int) -> np.ndarray:
    """Equispaced abscissae k/points for k = 0 .. points-1."""
    import numpy as np

    points = _require_integer("grid size", points, 1)
    return np.arange(points, dtype=np.float64) / points


def _grid_average(values: np.ndarray, points: int) -> float:
    import numpy as np

    # np.mean's own sum and division, so the result is its bits. A
    # non-finite sample makes the sum non-finite; only then is it looked for,
    # and an +inf, -inf pair is reported here rather than warned of.
    with np.errstate(invalid="ignore"):
        total = float(np.add.reduce(values))
    if not math.isfinite(total):
        finite = np.isfinite(values)
        if not finite.all():
            bad = int(np.argmin(finite))
            raise ValueError(
                f"integrand is not finite at f = {bad}/{points} = {bad / points}")
    return total / points


def integrate_periodic_report(sampler, quadrature: QuadratureConfig = DEFAULT_QUADRATURE):
    """Integrate over one period; return (value, points) at convergence.

    The sampler maps a float64 array of abscissae in [0, 1) to an array of
    its shape. Grids k/n double from initial_points = min(64,
    max_points // 2); convergence means successive estimates within
    rel_tol * max(1, |estimate|). Only the finest grid is held, and refining
    n to 2n samples only the n odd abscissae (2j+1)/(2n): (2j)/(2n) == j/n
    exactly in binary floating point, so each abscissa is sampled once.
    """
    import numpy as np

    points = quadrature.initial_points
    values = sampler(uniform_grid(points))
    estimate = _grid_average(values, points)
    while points < quadrature.max_points:
        # Sampled before the merged grid exists, so that the sampler's
        # temporaries and the merged array are never alive together.
        odd = sampler(np.arange(1, 2 * points, 2, dtype=np.float64) / (2 * points))
        merged = np.empty(2 * points)
        merged[0::2] = values
        merged[1::2] = odd
        values, points = merged, 2 * points
        refined = _grid_average(values, points)
        if abs(refined - estimate) < quadrature.rel_tol * max(1.0, abs(refined)):
            return refined, points
        estimate = refined
    raise ConvergenceError(
        f"quadrature did not settle within {quadrature.max_points} points",
        best_estimate=estimate)

