"""Per-cell sum-rates of the circular cellular uplink model.

A hop with gains (local, cross) has frequency response
H(f) = local + 2*cross*cos(2*pi*f), and the per-cell sum-rate of the
infinite ring at SNR rho is the integral over f in [0, 1) of
log2(1 + rho*H(f)^2). That integral has Wyner's closed form (A. D. Wyner,
IEEE Trans. IT 40(6), 1994), which follows from Jensen's formula. The
waterfilled variant optimizes the transmit spectrum under the same average
power. Its water level is closed form: H is monotone on each half period,
so the level wets at most two arcs, whose ends and integrals of 1/H^2 are
elementary. Its rate is integrated by the periodic quadrature. Finite
rings of M cells have a circulant channel matrix whose eigenvalues are
H(m/M), which gives an exact cross-check oracle for the integrals.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .model import (LagGains, SystemConfig, QuadratureConfig, DEFAULT_QUADRATURE,
                    _require_finite, _require_integer)
from .numerics import integrate_periodic_report, uniform_grid

_LN2 = math.log(2.0)

# Below this response magnitude 1/H^2 is treated as infinite, so the
# waterfilling clamp zeroes the subchannel instead of overflowing.
_POLE_GUARD = 1e-150


def channel_response(lag: LagGains, f):
    """H(f) = local + 2*cross*cos(2*pi*f); sign is irrelevant downstream."""
    f = np.asarray(f, dtype=np.float64)
    return lag.local + 2.0 * lag.cross * np.cos(2.0 * np.pi * f)


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


def rate_mcp_slope(lag: LagGains, rho) -> float:
    """d(rate_mcp)/d(rho), in closed form.

    The slope is the integral of H^2/((1 + rho*H^2)*ln 2) over f, that is
    (1 - Re 1/sqrt(D))/(rho*ln 2) with D = 1 + rho*(2b - a)*(2b + a) +
    2i*sqrt(rho)*a as in `rate_mcp`. 1 - 1/sqrt(D) is formed as
    (D - 1)/(sqrt(D)*(sqrt(D) + 1)), which keeps its digits at low SNR; at
    rho = 0 the slope is its limit (a^2 + 2b^2)/ln 2.
    """
    rho = _require_finite("SNR", rho, "nonnegative")
    a, b = lag.local, lag.cross
    if rho == 0.0:
        return (a * a + 2.0 * b * b) / _LN2
    excess = complex(rho * (2.0 * b - a) * (2.0 * b + a), 2.0 * math.sqrt(rho) * a)
    root = cmath.sqrt(1.0 + excess)
    return (excess / (root * (root + 1.0))).real / (rho * _LN2)


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


def _fill_integrals(z: float, one_plus_z: float):
    """(F, G): F = integral over [0, 1] of dx/(1 + z*x^2), G = (F - 1/(1 + z))/z.

    Near z = 0, where G's closed form cancels, both are summed as series.
    The artanh form for z near -1 needs 1 + z to full precision, so the
    caller passes it in, formed without cancellation.
    """
    if abs(z) < 0.25:
        # Series in -z: the terms shrink at least fourfold, so 27 reach the last bit.
        f = g = 0.0
        for j in reversed(range(27)):
            f = f * -z + 1.0 / (2 * j + 1)
            g = g * -z + (2 * j + 2) / (2 * j + 3)
        return f, g
    w = math.sqrt(abs(z))
    if z > 0.0:
        f = math.atan(w) / w
    else:
        # artanh(w)/w, with 1 - w^2 = 1 + z.
        f = (math.log1p(w) - 0.5 * math.log(one_plus_z)) / w
    return f, (f - 1.0 / one_plus_z) / z


def _arc(a: float, c: float, t: float):
    """(length, integral of 1/H^2) where H = a + c*cos(theta) > t, theta in [0, pi].

    H falls on [0, pi], so that set is empty, all of [0, pi], or an arc
    [0, theta_e] with H(theta_e) = t. With u = tan(theta_e/2), p = a + c and
    z = ((a - c)/p)*u^2, the half-angle substitution gives the integral as
    (u/p^2)*(F(z) + 1/(1 + z) + u^2*G(z)). u^2 and 1 + z come from
    H(theta_e) = t, not from theta_e, which keeps their digits when the arc
    ends near a zero of H.
    """
    p, q = a + c, a - c
    if p <= t:
        return 0.0, 0.0
    if q >= t:
        # pi*a/(p*q)^(3/2), formed without overflow.
        return math.pi, math.pi * (a / p) / q / (p * math.sqrt(q / p))
    gap = t - q
    u2 = (p - t) / gap
    one_plus_z = 2.0 * (c / p) * (t / gap)
    f, g = _fill_integrals((q / p) * u2, one_plus_z)
    u = math.sqrt(u2)
    return 2.0 * math.atan(u), u / p / p * (f + 1.0 / one_plus_z + u2 * g)


def _water_level(lag: LagGains, rho: float):
    """(level, spent power) of the waterfill, solved on the wet arcs.

    Over theta in [0, pi] the level nu wets |H| > t = nu^(-1/2): the arcs
    H > t and, as H > t with the local gain negated, H < -t. With W their
    length and I their integral of 1/H^2 it spends (nu*W - I)/pi. The fill
    update nu <- (pi*rho + I)/W is Newton on that convex, increasing spend:
    from the level that wets half the peak it lands at or above the root,
    then falls until it no longer does. A wet set emptied outright means
    rho is below the roundoff of the lowest floor, which is then the level.
    """
    def wet(level):
        a, c, t = lag.local, 2.0 * lag.cross, 1.0 / math.sqrt(level)
        (upper, upper_inverse), (lower, lower_inverse) = _arc(a, c, t), _arc(-a, c, t)
        return upper + lower, upper_inverse + lower_inverse

    length, inverse = wet((2.0 / (lag.local + 2.0 * lag.cross)) ** 2)
    level = (math.pi * rho + inverse) / length
    while True:
        length, inverse = wet(level)
        if length == 0.0:
            return level, 0.0
        refined = (math.pi * rho + inverse) / length
        if refined >= level:
            return level, (level * length - inverse) / math.pi
        level = refined


def waterfill(lag: LagGains, rho,
              quadrature: QuadratureConfig = DEFAULT_QUADRATURE) -> WaterfillSolution:
    """Waterfilled per-cell sum-rate over the hop's spatial spectrum.

    The water level is closed form on the wet arcs (`_water_level`); the
    rate's integrand log2(1 + (level*H^2 - 1)+) goes straight to the
    periodic quadrature, which samples each abscissa's response and rate
    once. A dead hop, with rho = 0 or a peak response below the pole
    guard, carries nothing: its solution is all zeros.
    """
    rho = _require_finite("SNR", rho, "nonnegative")
    # |H| peaks at local + 2*cross, at f = 0.
    if rho == 0.0 or lag.local + 2.0 * lag.cross < _POLE_GUARD:
        return WaterfillSolution(level=0.0, rate=0.0, spent_power=0.0)
    level, spent = _water_level(lag, rho)

    def rate_values(f):
        # log2(1 + (level*H^2 - 1)+), in one buffer.
        gain = np.square(channel_response(lag, f))
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
    response = channel_response(lag, uniform_grid(cells))
    # Modes below the pole guard get no power; the rest have floors 1/H^2 <= 1e300.
    floors = np.sort(1.0 / np.square(response[np.abs(response) >= _POLE_GUARD]))
    if rho == 0.0 or floors.size == 0:
        return 0.0
    levels = (cells * rho + np.cumsum(floors)) / np.arange(1, floors.size + 1)
    # The level with k modes wet stays above the k-th floor exactly up to
    # the last mode the final level reaches.
    active = floors[levels > floors]
    level = levels[active.size - 1]
    return float(np.sum(np.log1p((level - active) / active)) / (cells * _LN2))


def upper_bound(config: SystemConfig, fill: WaterfillSolution | None = None) -> float:
    """Cut-set-style cap: the weaker of the two hops, each at its best.

    The receiver-side hop is taken at the flat-spectrum rate; the
    relay-side hop gets the waterfilling benefit of full cooperation.
    `fill` is the second hop's `waterfill` solution, solved here at the
    default quadrature when not given. A dead second hop carries nothing,
    so the cap is then 0 and the first hop is not evaluated.
    """
    if fill is None:
        fill = waterfill(config.second_lag, config.rho2)
    if fill.rate == 0.0:
        return 0.0
    return min(rate_mcp(config.first_lag, config.rho1), fill.rate)
