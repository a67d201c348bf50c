"""Compress-and-forward relaying via its scalar fixed-point equation.

The relays quantize what they hear and ship the description to the base
stations over the second hop. Describing their observations more finely
costs second-hop rate r, leaving R_w(eta, gamma, rho2) - r for data,
while the data rate supported by the quantized first hop is
R_w(alpha, beta, rho1 * (1 - 2^-r)). The achievable point balances the
two, and the inter-relay echo never enters: the relays know what they
transmitted and cancel it before quantizing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .model import SystemConfig
from .wyner import _LN2, rate_mcp, rate_mcp_slope

# Balance tolerance and relative bracket width at which the solve stops.
_TOL = 1e-10

# Newton steps that narrow `_uncertain_zone`. The bisection is exact however
# wide the zone is left, so this bounds only the work.
_NEWTON_STEPS = 40


@dataclass(frozen=True)
class CfSolution:
    """Fixed point of the description-rate balance.

    residual is the balance mismatch at r_star; second_lag_rate is the
    full second-hop rate the fixed point splits between description and
    data, so rate + r_star recovers it up to residual.
    """

    rate: float
    r_star: float
    residual: float
    second_lag_rate: float


def quantized_snr(rho1: float, r: float) -> float:
    """First-hop SNR left after describing it at rate r: rho1 * (1 - 2^-r)."""
    return rho1 * (1.0 - 2.0 ** (-r))


def cf_solve(config: SystemConfig) -> CfSolution:
    """Solve the description-rate balance and return the achieved rate.

    The balance b(r) = rate(r) - (carried - r), with carried the second-hop
    rate, is strictly increasing in r and equals -carried at r = 0, so its
    root lies on [0, carried] and bisection is certified. A second hop
    carrying at most 1e-10 gives r* = 0 outright. Otherwise a bisection
    tries r = carried, then halves the bracket on the residual's sign until
    |residual| <= 1e-10 or the bracket is narrower than 1e-10 * max(1, r).

    It evaluates the balance only at midpoints inside `_uncertain_zone`.
    Elsewhere the balance's sign is known, so the residual stands at -inf
    or +inf, and is evaluated only if the bisection stops there. So every
    output bit is a plain bisection's, at about a quarter of its evaluations.
    """
    carried = rate_mcp(config.second_lag, config.rho2)
    if carried <= _TOL:
        # 0.0 - carried keeps silent relays' residual at +0.0.
        return CfSolution(rate=0.0, r_star=0.0, residual=0.0 - carried,
                          second_lag_rate=carried)

    first, rho1 = config.first_lag, config.rho1

    def balance(r: float):
        rate = rate_mcp(first, quantized_snr(rho1, r))
        return rate, rate - (carried - r)

    def newton(r: float, residual: float) -> float:
        slope = rate_mcp_slope(first, quantized_snr(rho1, r)) * rho1 * 2.0 ** (-r) * _LN2
        return r - residual / (1.0 + slope)

    lo, hi = 0.0, carried
    r_star = carried
    rate, residual = balance(r_star)
    zone_lo, zone_hi = _uncertain_zone(balance, newton, carried, residual)
    # max(1.0, r_star), spelled out to save a builtin call per step.
    while (abs(residual) > _TOL
           and hi - lo >= _TOL * (r_star if r_star > 1.0 else 1.0)):
        if residual < 0.0:
            lo = r_star
        else:
            hi = r_star
        r_star = 0.5 * (lo + hi)
        if zone_lo <= r_star <= zone_hi:
            rate, residual = balance(r_star)
        else:
            # The balance's sign is known here, and its size exceeds 1e-10.
            residual = -math.inf if r_star < zone_lo else math.inf
    if math.isinf(residual):
        rate, residual = balance(r_star)
    return CfSolution(rate=rate, r_star=r_star, residual=residual,
                      second_lag_rate=carried)


def _uncertain_zone(balance, newton, carried: float, residual: float):
    """(lo, hi) such that the computed balance is below -1e-10 left of lo
    and above 1e-10 right of hi, given its value at r = carried.

    b rises with slope at least 1, so a value v = b(p) puts every sign
    change in [min(p, p - v), max(p, p - v)], and 2e-10 beyond that b has
    a known sign and a size above 1e-10. Rounding moves the computed
    balance by far less than the spare 1e-10: its terms are at most about
    2048 bits, and the rounded argument of the rate still rises with r.
    Safeguarded Newton on the closed-form slope narrows the zone to
    5e-10. b is concave, so a step from a point below the root stays below
    it; where Newton stalls, the bracket is split, by ratio once its lower
    end is positive.
    """
    r, previous = carried, math.inf
    below, below_residual, above = 0.0, -carried, carried
    lo, hi = -math.inf, math.inf
    steps = 0
    while True:
        lo = max(lo, min(r, r - residual) - 2.0 * _TOL)
        hi = min(hi, max(r, r - residual) + 2.0 * _TOL)
        if hi - lo <= 5.0 * _TOL or steps == _NEWTON_STEPS:
            return lo, hi
        steps += 1
        step = newton(r, residual)
        if not below < step < above:
            step = newton(below, below_residual)
        if not below < step < above or 2.0 * abs(residual) > abs(previous):
            step = math.sqrt(below) * math.sqrt(above) if below > 0.0 else 0.5 * above
        r, previous = step, residual
        residual = balance(r)[1]
        if residual < 0.0:
            below, below_residual = r, residual
        else:
            above = r
