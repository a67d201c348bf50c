"""Per-cell sum-rates of the circular cellular uplink model.

A hop with gains (local, cross) has frequency response
H(f) = local + 2*cross*cos(2*pi*f), and the per-cell sum-rate of the
infinite ring at SNR rho is the integral over f in [0, 1) of
log2(1 + rho*H(f)^2). That integral has Wyner's closed form (A. D. Wyner,
IEEE Trans. IT 40(6), 1994), which follows from Jensen's formula. The
waterfilled variant optimizes the transmit spectrum under the same average
power and is integrated by the periodic quadrature; each waterfill keeps
one `numerics.DyadicSamples` memo of H and 1/H^2, so every sample is
computed once and shared between its bracket, constraint and rate
integrals. Finite rings of M cells have a circulant channel matrix whose
eigenvalues are H(m/M), which gives an exact cross-check oracle for the
integrals.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .model import (LagGains, SystemConfig, QuadratureConfig, DEFAULT_QUADRATURE,
                    _require_finite, _require_integer)
from .numerics import (ConvergenceError, DyadicSamples, integrate_periodic_report,
                       uniform_grid)

_LN2 = math.log(2.0)

# Below this response magnitude 1/H^2 is treated as infinite, so the
# waterfilling clamp zeroes the subchannel instead of overflowing.
_POLE_GUARD = 1e-150


def channel_response(lag: LagGains, f):
    """H(f) = local + 2*cross*cos(2*pi*f); sign is irrelevant downstream."""
    f = np.asarray(f, dtype=np.float64)
    response = lag.local + 2.0 * lag.cross * np.cos(2.0 * np.pi * f)
    return float(response) if response.ndim == 0 else response


def _silent(lag: LagGains) -> bool:
    """True when |H| stays below _POLE_GUARD; its peak local + 2*cross is at f = 0."""
    return lag.local + 2.0 * lag.cross < _POLE_GUARD


def rate_mcp(lag: LagGains, rho) -> float:
    """Per-cell sum-rate of the infinite ring with a flat transmit spectrum.

    Wyner's closed form (IEEE Trans. IT 40(6), 1994), by Jensen's formula:
    2*log2|w|, with w the larger-modulus root of w^2 - c*w - rho*b^2 = 0,
    where a = local, b = cross and c = 1 + i*sqrt(rho)*a. The discriminant
    in factored form keeps its digits at the double null a = 2b, and
    w = c*(1 + eps), eps = rho*b^2/(c*w), keeps them at low SNR, as
    log2(1 + rho*a^2) + log2|1 + eps|^2.
    """
    rho = _require_finite("SNR", rho, "nonnegative")
    a, b = lag.local, lag.cross
    root_rho = math.sqrt(rho)
    c = complex(1.0, root_rho * a)
    root = cmath.sqrt(complex(1.0 + rho * (2.0 * b - a) * (2.0 * b + a),
                              2.0 * root_rho * a))
    # The sign that adds the two terms constructively gives the larger root.
    w = 0.5 * (c + root if (c.conjugate() * root).real >= 0.0 else c - root)
    eps = rho * b * b / (c * w)
    if abs(eps) <= 0.5:
        rate = (math.log1p(rho * a * a)
                + math.log1p(2.0 * eps.real + abs(eps) ** 2)) / _LN2
    else:
        rate = 2.0 * math.log2(abs(w))
    if not math.isfinite(rate):
        raise ValueError(f"rate is not finite at SNR {rho} for {lag}")
    return rate


def rate_mcp_finite(lag: LagGains, rho, cells: int) -> float:
    """Exact per-cell sum-rate of the M-cell ring.

    The M-cell circular channel matrix is circulant with eigenvalues
    H(m/M), so the rate is the plain average of log2(1 + rho*H(m/M)^2).
    """
    rho = _require_finite("SNR", rho, "nonnegative")
    cells = _require_integer("cell count", cells, 3)
    gains = np.square(channel_response(lag, uniform_grid(cells)))
    return float(np.mean(np.log1p(rho * gains) / _LN2))


@dataclass(frozen=True)
class WaterfillSolution:
    """Water level, achieved rate, and the power the level actually spends."""

    level: float
    rate: float
    spent_power: float


def _inverse_response_power(response: np.ndarray) -> np.ndarray:
    """Subchannel floors 1/H^2, infinite where |H| is below _POLE_GUARD."""
    with np.errstate(divide="ignore", over="ignore"):
        inverse = 1.0 / np.square(response)
    np.copyto(inverse, np.inf, where=np.abs(response) < _POLE_GUARD)
    return inverse


def _wet_power(level: float, inverse: np.ndarray) -> np.ndarray:
    """(level - inverse)+, computed in one buffer."""
    wet = level - inverse
    return np.maximum(wet, 0.0, out=wet)


def _pinned_level(inverse: np.ndarray, rho: float, upper: float) -> float:
    """Level nu with mean((nu - inverse)+) = rho, for a bracketing upper.

    The grid constraint is piecewise linear in the level, so it is solved
    exactly: fill the subchannels below the current level, then drop those
    the new level leaves dry until none is dropped. The level only falls
    and the set only shrinks, so the loop ends. A set emptied outright means
    rho is below the roundoff of the lowest floor, which is then the level.
    Starting from every finite floor would also converge, but takes 1.3 to
    4 times longer on clamped grids, where poles leave huge floors.
    """
    floors = inverse[inverse < upper]
    while True:
        level = float((inverse.size * rho + floors.sum()) / floors.size)
        wet = floors[floors < level]
        if wet.size in (0, floors.size):
            return level
        floors = wet


def waterfill(lag: LagGains, rho,
              quadrature: QuadratureConfig = DEFAULT_QUADRATURE) -> WaterfillSolution:
    """Waterfilled per-cell sum-rate over the hop's spatial spectrum.

    Solves for the water level nu with integral of (nu - 1/H^2)+ equal to
    rho, then integrates log2(1 + (nu - 1/H^2)+ H^2). The constraint integral
    is pinned to the grid certified by the doubling quadrature, where it is
    piecewise linear in the level and solved exactly, so the reported
    spent_power carries no re-discretization noise.

    The bracket ladders, the pinned constraint and the rate ladder all read
    H and 1/H^2 from one memo of the nested grids k/n (DyadicSamples), so
    each sample is computed once, bit-identically to sampling every grid
    afresh.
    """
    rho = _require_finite("SNR", rho, "positive")
    if _silent(lag):
        raise ValueError(
            f"waterfilling needs a response reaching {_POLE_GUARD} somewhere, got {lag}")

    def floors(f):
        response = channel_response(lag, f)
        return response, _inverse_response_power(response)

    samples = DyadicSamples(floors, quadrature.initial_points)

    def spent_values(level):
        return lambda n: _wet_power(level, samples(n)[1])

    # Grow the upper level bracket until the constraint is exceeded. The
    # converged report also fixes the grid that resolves the clamp boundary.
    # Neither growth loop runs away: from upper >= 1, doubling reaches inf
    # within 1024 steps, where the ladder refuses non-finite samples and the
    # pinned spend is inf or nan, never below rho.
    upper = max(rho, 1.0)
    spent_upper, points = integrate_periodic_report(spent_values(upper), quadrature)
    while spent_upper < rho:
        upper *= 2.0
        spent_upper, points = integrate_periodic_report(spent_values(upper), quadrature)

    while True:
        inverse = samples(points)[1]

        def spent_pinned(level):
            return float(np.mean(_wet_power(level, inverse)))

        while spent_pinned(upper) < rho:
            upper *= 2.0
        level = _pinned_level(inverse, rho, upper)
        # Certify the grid at the solved level the same way the doubling
        # quadrature certifies its own pairs: every second grid point is
        # exactly the half-resolution grid.
        coarse = float(np.mean(_wet_power(level, inverse[::2])))
        spent = spent_pinned(level)
        if abs(spent - coarse) < quadrature.rel_tol * max(1.0, abs(spent)):
            break
        if points >= quadrature.max_points:
            raise ConvergenceError(
                f"waterfilling constraint grid did not settle within "
                f"{quadrature.max_points} points", best_estimate=level)
        points *= 2

    def rate_values(n):
        # log2(1 + (level*H^2 - 1)+), in one buffer.
        gain = np.square(samples(n)[0])
        gain *= level
        gain -= 1.0
        np.log1p(np.maximum(gain, 0.0, out=gain), out=gain)
        gain /= _LN2
        return gain

    rate, _ = integrate_periodic_report(rate_values, quadrature)
    return WaterfillSolution(level=level, rate=rate, spent_power=spent)


def waterfill_finite(lag: LagGains, rho, cells: int) -> float:
    """Exact waterfilled per-cell sum-rate of the M-cell ring.

    Sort-and-fill over the ring's modes H(m/M): the water level spends
    M*rho on the modes whose floor 1/H^2 lies below it, and modes with
    H = 0 get no power. Silent relays (rho = 0) or an identically zero
    response carry nothing, so the rate is then 0.
    """
    rho = _require_finite("SNR", rho, "nonnegative")
    cells = _require_integer("cell count", cells, 3)
    floors = np.sort(_inverse_response_power(channel_response(lag, uniform_grid(cells))))
    floors = floors[np.isfinite(floors)]
    if rho == 0.0 or floors.size == 0:
        return 0.0
    levels = (cells * rho + np.cumsum(floors)) / np.arange(1, floors.size + 1)
    # The level with k modes wet stays above the k-th floor exactly up to
    # the last mode the final level reaches.
    active = floors[levels > floors]
    level = levels[active.size - 1]
    return float(np.sum(np.log1p((level - active) / active)) / (cells * _LN2))


def upper_bound(config: SystemConfig,
                quadrature: QuadratureConfig = DEFAULT_QUADRATURE) -> float:
    """Cut-set-style cap: the weaker of the two hops, each at its best.

    The receiver-side hop is taken at the flat-spectrum rate; the
    relay-side hop gets the waterfilling benefit of full cooperation.
    Silent relays, or relays whose gain toward every base station is below
    the pole guard, carry nothing, so the cap is then 0.
    """
    second = config.second_lag
    if config.rho2 == 0.0 or _silent(second):
        return 0.0
    uplink = rate_mcp(config.first_lag, config.rho1)
    downlink = waterfill(second, config.rho2, quadrature).rate
    return min(uplink, downlink)
