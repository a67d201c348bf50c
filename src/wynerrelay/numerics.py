"""Periodic quadrature shared by the rate computations.

Every rate of the ring is a mean over the spatial frequency f of a
function of H(f) = local + 2*cross*cos(2*pi*f), so every integrand is
written in c = cos(2*pi*f), which `ring_cosines` alone forms. The
`af_rate` and `waterfill` rates run over one period, where the uniform-grid
trapezoid rule converges spectrally on smooth integrands and at second
order across the kinks of waterfill's clamp. The grids start at
min(64, max_points // 2) points and double, so they nest and any ceiling
compares two. `integrate_periodic_report` is the ladder's one entry point.
It samples each abscissa once: the first two grids in one call, then each
doubling's new points; it returns the value and the final grid size.
`wyner` and `af` call it through this module, so a wrapper set here sees
every ladder. The grid of n points is the n-cell ring's modes, and
`_grid_average` is the one mean of both, so the ladder's value on n
points is, bit for bit, the eigenvalue average of the finite-ring
cross-checks `rate_mcp_finite` and `af_rate_finite` on n cells.

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


def ring_cosines(cells: int, start: int = 0, step: int = 1) -> np.ndarray:
    """cos(2*pi*k/cells) for k = start, start + step, ... below cells; all k
    give the ring's modes. (2k)/(2*cells) == k/cells in binary floating point,
    so a ring's cosines are, bit for bit, the even-k ones of twice its size."""
    import numpy as np

    cells = _require_integer("cell count", cells, 3)
    # f is kept, so the product is a fresh array rather than f reused in
    # place; with glibc's allocator that order page-faults far less.
    f = np.arange(start, cells, step, dtype=np.float64) / cells
    return np.cos(2.0 * np.pi * f)


def _grid_average(values: np.ndarray) -> float:
    """Mean of the samples on the grid k/n, n = values.size, by np.mean's own
    sum and division, so the result is its bits. A non-finite sample makes
    the sum non-finite; only then is it looked for and named by its abscissa,
    so an +inf, -inf pair is reported here rather than warned of."""
    import numpy as np

    points = values.size
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

    The sampler maps a float64 array of cosines c = cos(2*pi*f), f in
    [0, 1), to an array of its shape. Grids f = k/n double from
    initial_points = min(64, max_points // 2); convergence means successive
    estimates within rel_tol * max(1, |estimate|). Only the finest grid is
    held. Every ceiling compares the first two grids, so they are sampled
    in one call, on the 2 * initial_points grid, whose even points are the
    first grid. Refining n to 2n then samples only the n odd points
    k = 2j+1 of 2n, so each abscissa is sampled once.
    """
    import numpy as np

    points = 2 * quadrature.initial_points
    values = sampler(ring_cosines(points))
    estimate = _grid_average(values[0::2])
    while True:
        refined = _grid_average(values)
        if abs(refined - estimate) < quadrature.rel_tol * max(1.0, abs(refined)):
            return refined, points
        estimate = refined
        if points >= quadrature.max_points:
            raise ConvergenceError(
                f"quadrature did not settle within {quadrature.max_points} points",
                best_estimate=estimate)
        # The odd points are sampled before the merged grid exists, and no
        # name keeps the sampler's arrays alive into the next doubling.
        values = np.stack((values, sampler(ring_cosines(2 * points, 1, 2))),
                          axis=1).ravel()
        points *= 2
