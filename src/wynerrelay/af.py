"""Amplify-and-forward relaying: achievable rate, relay power, gain solve.

Each relay scales its previous received sample by a common gain g and
retransmits one symbol later. Because every relay also hears its two
neighbors' relays, the relay output power is a geometric-series buildup
that stays finite only while 2*mu*g < 1. The achievable rate integrand is
the per-subchannel SINR of the equivalent two-hop channel after the base
stations jointly process the ring.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .model import (SystemConfig, QuadratureConfig, DEFAULT_QUADRATURE,
                    _require_finite, _require_integer)
from . import numerics
from .numerics import uniform_grid

if TYPE_CHECKING:
    import numpy as np

# The Monte Carlo oracle simulates a fixed ring: 64 cells, unit relay delay.
# Near the echo pole its stationary power is not the infinite ring's: on fig4
# (mu = 0.8, solved gain) it is 1.09 to 7.2 times `relay_output_power` at P <= 10 dB.
RING_CELLS = 64
# Symbols the ring simulation discards before it starts averaging.
_WARMUP_SYMBOLS = 1000


def _check_gain(gain, mu: float) -> float:
    gain = _require_finite("relay gain", gain, "nonnegative")
    if mu > 0.0 and 2.0 * mu * gain >= 1.0:
        raise ValueError(
            f"relay gain {gain} is outside the stable region: "
            f"2*mu*g = {2.0 * mu * gain} must stay below 1")
    return gain


def _power_coefficients(config: SystemConfig):
    """(A, B) = (P*beta^2 + noise1, 4*P*alpha^2) of the relay power law."""
    # Scaled by 4 last, which is exact: B then overflows only where
    # 4*P*alpha^2 itself does, not already where 4*P does.
    return (config.power_p * config.beta ** 2 + config.noise1,
            4.0 * (config.power_p * config.alpha ** 2))


def _buildup_power(gain: float, settle_root: float, config: SystemConfig) -> float:
    """A*g^2/s + B*g^2/(s + s^2) at s = sqrt(1 - (2*mu*g)^2)."""
    direct, adjacent = _power_coefficients(config)
    return gain ** 2 * (direct + adjacent / (1.0 + settle_root)) / settle_root


def relay_output_power(gain, config: SystemConfig) -> float:
    """Steady-state transmit power of one relay at amplification `gain`.

    The inter-relay echo acts as a spatial first-order feedback with
    per-mode coefficient 2*mu*g*cos(2*pi*f); averaging the resulting
    geometric buildup over modes gives, with s = sqrt(1 - (2*mu*g)^2),

        (P*beta^2 + noise1) * g^2 / s + 4*P*alpha^2 * g^2 / (s + s^2),

    strictly increasing in g and unbounded as g approaches 1/(2*mu).
    """
    gain = _check_gain(gain, config.mu)
    k = 2.0 * config.mu * gain
    return _buildup_power(gain, math.sqrt((1.0 - k) * (1.0 + k)), config)


@dataclass(frozen=True)
class AfGainSolution:
    """Relay gain meeting the power budget, with the achieved power."""

    gain: float
    output_power: float
    residual: float


def _gain_root(config: SystemConfig):
    """(g, s): the gain that spends exactly Q, and s = sqrt(1 - (2*mu*g)^2).

    With g^2 = (1 - s^2)/(4*mu^2) the power law becomes A*u^2 - E*u + C = 0
    in u = 1 - s, where A = P*beta^2 + noise1, B = 4*P*alpha^2,
    C = 4*mu^2*Q and E = 2*A + B + C. Its stable root is
    u = 2*C/(E + sqrt(D)), with D = E^2 - 4*A*C written as a sum of positive
    terms, and g^2 = 2*Q*(2 - u)/(E + sqrt(D)), which at mu = 0 is
    Q/(P*beta^2 + 2*P*alpha^2 + noise1). s is formed without cancellation,
    since near the pole 2*mu*g -> 1 it cannot be recovered from g. A gain
    that rounds onto 1/(2*mu) is taken as the largest double below it.
    """
    # A, B and C as (mantissa, exponent) pairs; C = 4*mu^2*Q is built from
    # its factors' pairs so that it cannot overflow. All three are scaled
    # by the even power of two 2^(2*half) set by the largest nonzero one.
    mu_mantissa, mu_exponent = math.frexp(config.mu)
    q_mantissa, q_exponent = math.frexp(config.power_q)
    terms = (*map(math.frexp, _power_coefficients(config)),
             (mu_mantissa ** 2 * q_mantissa, 2 * mu_exponent + q_exponent + 2))
    half = (max(exponent for mantissa, exponent in terms if mantissa) + 1) // 2
    a, b, c = (math.ldexp(mantissa, exponent - 2 * half) for mantissa, exponent in terms)
    spread = 4.0 * a * a + b * (b + 4.0 * a + 2.0 * c)
    root = math.sqrt(spread + c * c)
    denominator = 2.0 * a + b + c + root
    u = 2.0 * c / denominator
    settle_root = (2.0 * a + b + spread / (root + c)) / denominator
    gain = math.ldexp(math.sqrt(config.power_q) * math.sqrt(2.0 * (2.0 - u) / denominator),
                      -half)
    if 2.0 * config.mu * gain >= 1.0:
        gain = math.nextafter(0.5 / config.mu, 0.0)
    return gain, settle_root


def optimal_gain(config: SystemConfig) -> AfGainSolution:
    """Gain at which the relays spend exactly their power budget.

    Full power is rate-optimal for this scheme, so the gain targets output
    power Q. The power law is a quadratic in s = sqrt(1 - (2*mu*g)^2), so
    the root is closed-form (see `_gain_root`). The achieved power, and so
    the residual, is evaluated at the root's own s rather than at g alone,
    which near the pole is too ill-conditioned to check in double precision.
    A power law whose coefficients overflow has no finite root, and is
    refused rather than returned as a zero gain.
    """
    gain, settle_root = _gain_root(config)
    achieved = _buildup_power(gain, settle_root, config)
    residual = achieved - config.power_q
    if not all(map(math.isfinite, (gain, achieved, residual))):
        raise ValueError(f"relay gain is not finite: gain {gain}, "
                         f"output power {achieved}, residual {residual}")
    return AfGainSolution(gain=gain, output_power=achieved, residual=residual)


def _af_samples(config: SystemConfig, gain: float, f) -> np.ndarray:
    """log2(1 + SINR) of spatial subchannel f, averaged over time in closed form.

    With c = cos(2*pi*f), S = P*g^2*H1^2*H2^2 is the signal, N1*g^2*H2^2 the
    relay noise, and m, p = relay noise + N2*(1 -+ 2*g*mu*c)^2. Over the
    temporal frequency w, 1 + SINR is a ratio of two a - b*cos(w), with
    a -+ b = (S + m, S + p) and (m, p), and the mean of log(a - b*cos w) is
    2*log((sqrt(a - b) + sqrt(a + b))/2). A gain above one is factored out
    as a power of two, so S stays finite up to Q of about 3080 dB. Without an
    echo (2*g*mu == 0), m == p, and 2*log2(sqrt(S + m)/sqrt(m)) gives the same
    bits at half the work, since (x + x)/(y + y) == x/y in binary floating point.
    """
    import numpy as np

    c = np.cos(2.0 * np.pi * np.asarray(f, dtype=np.float64))
    # A gain 2^e*mantissa with e > 0 scales numerator and denominator by 2^(-2e),
    # so S cannot overflow (2^(-2e) itself would, for e << 0).
    exponent = max(math.frexp(gain)[1], 0)
    scaled = math.ldexp(gain, -exponent)
    noise2 = config.noise2 * math.ldexp(1.0, -2 * exponent)
    h2_squared = np.square(config.gamma + 2.0 * config.eta * c)
    signal = (config.power_p * scaled ** 2
              * np.square(config.beta + 2.0 * config.alpha * c) * h2_squared)
    relay_noise = config.noise1 * scaled ** 2 * h2_squared
    # Sums of nonnegative terms, so every square root below takes a real one.
    echo_gain = 2.0 * gain * config.mu
    if echo_gain == 0.0:
        minus = relay_noise + noise2
        return 2.0 * np.log2(np.sqrt(signal + minus) / np.sqrt(minus))
    echo = echo_gain * c
    minus = relay_noise + noise2 * np.square(1.0 - echo)
    plus = relay_noise + noise2 * np.square(1.0 + echo)
    return 2.0 * np.log2((np.sqrt(signal + minus) + np.sqrt(signal + plus))
                         / (np.sqrt(minus) + np.sqrt(plus)))


def af_rate(config: SystemConfig, gain,
            quadrature: QuadratureConfig = DEFAULT_QUADRATURE) -> float:
    """Per-cell achievable sum-rate of the scheme at the given relay gain."""
    gain = _check_gain(gain, config.mu)
    # Called through the module, so that a wrapper set on it sees the call.
    rate, _ = numerics.integrate_periodic_report(
        lambda f: _af_samples(config, gain, f), quadrature)
    return rate


def af_rate_finite(config: SystemConfig, gain, cells: int) -> float:
    """Average of the same per-subchannel rate over an M-cell ring's modes."""
    import numpy as np

    gain = _check_gain(gain, config.mu)
    cells = _require_integer("cell count", cells, 3)
    return float(np.mean(_af_samples(config, gain, uniform_grid(cells))))


@dataclass(frozen=True)
class MonteCarloPower:
    """Sample estimate of the relay output power from a ring simulation."""

    mean_power: float
    std_error: float
    symbols: int


def simulate_relay_power(config: SystemConfig, gain, *, symbols: int = 1 << 20,
                         seed) -> MonteCarloPower:
    """Simulate the 64-cell AF ring and measure the relay transmit power.

    Mobiles send fresh circularly symmetric Gaussian symbols each step;
    every relay retransmits its previously received sample scaled by
    `gain` (unit delay). The first _WARMUP_SYMBOLS symbols are discarded,
    then at least `symbols` further symbols are averaged. `seed` has no
    default: it is any `numpy.random.default_rng` seed, and the caller picks
    it. The standard error comes from 64 sequential batch means, independent
    only when a batch spans many mixing times 1/(1 - 2*mu*g): on fig4 at
    P = -10 dB that is 105,257 steps, while 2^20 symbols simulate 16,384.
    """
    import numpy as np

    gain = _check_gain(gain, config.mu)
    symbols = _require_integer("symbol count", symbols, 1)
    rng = np.random.default_rng(seed)
    cells = RING_CELLS
    warmup_steps = (_WARMUP_SYMBOLS + cells - 1) // cells
    batches = 64
    # Round the measured steps up to a whole number of equal batches.
    wanted = (symbols + cells - 1) // cells
    steps = ((wanted + batches - 1) // batches) * batches

    def ring_noise(power):
        scale = math.sqrt(power / 2.0)
        return scale * (rng.standard_normal(cells)
                        + 1j * rng.standard_normal(cells))

    received = np.zeros(cells, dtype=np.complex128)
    step_means = np.empty(steps, dtype=np.float64)
    for step in range(warmup_steps + steps):
        relayed = gain * received
        mobile = ring_noise(config.power_p)
        received = (config.beta * mobile
                    + config.alpha * (np.roll(mobile, 1) + np.roll(mobile, -1))
                    + config.mu * (np.roll(relayed, 1) + np.roll(relayed, -1))
                    + ring_noise(config.noise1))
        if step >= warmup_steps:
            step_means[step - warmup_steps] = np.mean(
                np.square(relayed.real) + np.square(relayed.imag))
    batch_means = step_means.reshape(batches, -1).mean(axis=1)
    return MonteCarloPower(
        mean_power=float(np.mean(step_means)),
        std_error=float(np.std(batch_means, ddof=1) / math.sqrt(batches)),
        symbols=steps * cells)
