"""Periodic quadrature shared by the rate computations.

Every integral in this package runs over one period of a smooth periodic
integrand, where the uniform-grid trapezoid rule converges spectrally. The
grids double, so they nest: `DyadicSamples` is the one place that lays out
the abscissae k/n, and it evaluates each of them once however many grids
read it. The grid average over n equispaced points is also, bit for bit,
the eigenvalue average of the corresponding n-cell circular model, which
the finite-ring cross-checks rely on.
"""

from __future__ import annotations

import numpy as np

from .model import QuadratureConfig, DEFAULT_QUADRATURE, _require_integer


class ConvergenceError(ArithmeticError):
    """An iterative scheme ran out of budget before reaching tolerance."""

    def __init__(self, message: str, best_estimate: float):
        super().__init__(f"{message}; best estimate {best_estimate!r}")
        self.best_estimate = best_estimate


def uniform_grid(points: int) -> np.ndarray:
    """Equispaced abscissae k/points for k = 0 .. points-1."""
    points = _require_integer("grid size", points, 1)
    return np.arange(points, dtype=np.float64) / points


class DyadicSamples:
    """A sampler's values on the nested grids k/n, each abscissa evaluated once.

    The sampler maps a float64 array of abscissae to a tuple of arrays of
    its shape, one per component, and a read returns such a tuple. Only the
    finest grid reached is held. A coarser grid of the same doubling chain
    is the strided view [::finest // n], bit-identical to sampling it
    afresh because (2j)/(2n) == j/n exactly in binary floating point.
    Refining n to 2n evaluates only the n odd abscissae (2j+1)/(2n) and
    merges the components one at a time, each freeing its halves before
    the next.
    """

    def __init__(self, sampler, points: int):
        self._sampler = sampler
        self._finest = list(sampler(uniform_grid(points)))

    def __call__(self, points: int) -> tuple:
        """Values at k/points for k = 0 .. points-1, as views of the memo."""
        while self._finest[0].size < points:
            size = self._finest[0].size
            odd = list(self._sampler(np.arange(1, 2 * size, 2, dtype=np.float64) / (2 * size)))
            for index, coarse in enumerate(self._finest):
                merged = np.empty(2 * size)
                merged[0::2] = coarse
                merged[1::2] = odd[index]
                odd[index] = coarse = None  # free the halves before the next merge
                self._finest[index] = merged
        stride = self._finest[0].size // points
        return tuple(values[::stride] for values in self._finest)


def _grid_average(values, points: int) -> float:
    # A contiguous copy keeps the reduction order, and so the bits, of a
    # freshly sampled grid.
    values = np.ascontiguousarray(values, dtype=np.float64)
    if not np.all(np.isfinite(values)):
        bad = int(np.argmin(np.isfinite(values)))
        raise ValueError(
            f"integrand is not finite at f = {bad}/{points} = {bad / points}")
    return float(np.mean(values))


def integrate_periodic_report(values, quadrature: QuadratureConfig = DEFAULT_QUADRATURE):
    """Integrate over one period; return (value, points) at convergence.

    values(n) gives the integrand at the abscissae k/n, k = 0 .. n-1, as
    an array of n floats. Grids double from initial_points; convergence
    means successive estimates within rel_tol * max(1, |estimate|).
    """
    points = quadrature.initial_points
    estimate = _grid_average(values(points), points)
    while points < quadrature.max_points:
        points *= 2
        refined = _grid_average(values(points), points)
        if abs(refined - estimate) < quadrature.rel_tol * max(1.0, abs(refined)):
            return refined, points
        estimate = refined
    raise ConvergenceError(
        f"quadrature did not settle within {quadrature.max_points} points",
        best_estimate=estimate)


def integrate_periodic(integrand, quadrature: QuadratureConfig = DEFAULT_QUADRATURE) -> float:
    """Integrate over one period, evaluating the integrand once per abscissa.

    The integrand must accept a float64 array of abscissae in [0, 1) and
    broadcast to its shape.
    """
    samples = DyadicSamples(
        lambda f: (np.broadcast_to(np.asarray(integrand(f), dtype=np.float64), f.shape),),
        quadrature.initial_points)
    value, _ = integrate_periodic_report(lambda n: samples(n)[0], quadrature)
    return value
