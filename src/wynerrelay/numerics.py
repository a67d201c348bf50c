"""Periodic quadrature shared by the rate computations.

Every integral in this package runs over one period of a smooth periodic
integrand, where the uniform-grid trapezoid rule converges spectrally. The
grid average over n equispaced points is also, bit for bit, the eigenvalue
average of the corresponding n-cell circular model, which the finite-ring
cross-checks rely on.
"""

from __future__ import annotations

import numbers

import numpy as np

from .model import QuadratureConfig, DEFAULT_QUADRATURE


class ConvergenceError(ArithmeticError):
    """An iterative scheme ran out of budget before reaching tolerance."""

    def __init__(self, message: str, best_estimate: float):
        super().__init__(message)
        self.best_estimate = best_estimate


class BracketError(ValueError):
    """A root bracket could not be established or made no sense."""


def uniform_grid(points: int) -> np.ndarray:
    """Equispaced abscissae k/points for k = 0 .. points-1."""
    if points < 1:
        raise ValueError(f"grid needs at least one point, got {points}")
    return np.arange(points, dtype=np.float64) / points


def _check_cells(cells) -> int:
    if isinstance(cells, bool) or not isinstance(cells, numbers.Integral):
        raise ValueError(f"cell count must be an integer, got {cells!r}")
    cells = int(cells)
    if cells < 3:
        raise ValueError(f"a ring needs at least 3 cells, got {cells}")
    return cells


def _grid_average(integrand, points: int) -> float:
    values = np.broadcast_to(np.asarray(integrand(uniform_grid(points)),
                                        dtype=np.float64), (points,))
    if not np.all(np.isfinite(values)):
        bad = int(np.argmin(np.isfinite(values)))
        raise ValueError(
            f"integrand is not finite at f = {bad}/{points} = {bad / points}")
    return float(np.mean(values))


def integrate_periodic_report(integrand, quadrature: QuadratureConfig = DEFAULT_QUADRATURE):
    """Integrate over one period; return (value, points) at convergence.

    The integrand must accept a float64 array of abscissae in [0, 1) and
    broadcast to its shape. Grids double from initial_points; convergence
    means successive estimates within rel_tol * max(1, |estimate|).
    """
    points = quadrature.initial_points
    estimate = _grid_average(integrand, points)
    while points < quadrature.max_points:
        points *= 2
        refined = _grid_average(integrand, points)
        if abs(refined - estimate) < quadrature.rel_tol * max(1.0, abs(refined)):
            return refined, points
        estimate = refined
    raise ConvergenceError(
        f"quadrature did not settle within {quadrature.max_points} points",
        best_estimate=estimate)


def integrate_periodic(integrand, quadrature: QuadratureConfig = DEFAULT_QUADRATURE) -> float:
    value, _ = integrate_periodic_report(integrand, quadrature)
    return value
