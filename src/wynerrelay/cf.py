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

from dataclasses import dataclass

from .model import SystemConfig
from .wyner import rate_mcp

# Balance tolerance and relative bracket width at which the solve stops.
_TOL = 1e-10


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


def cf_solve(config: SystemConfig) -> CfSolution:
    """Solve the description-rate balance and return the achieved rate.

    The balance rate(r) - (carried - r), with carried the second-hop rate,
    is strictly increasing in r and equals -carried at r = 0, so its root
    lies on [0, carried] and bisection is certified. A second hop carrying
    at most 1e-10 gives r* = 0 outright. Otherwise the solve tries
    r = carried, then halves the bracket until |balance| <= 1e-10 or the
    bracket is narrower than 1e-10 * max(1, r).
    """
    carried = rate_mcp(config.second_lag, config.rho2)
    if carried <= _TOL:
        # 0.0 - carried keeps silent relays' residual at +0.0.
        return CfSolution(rate=0.0, r_star=0.0, residual=0.0 - carried,
                          second_lag_rate=carried)

    first = config.first_lag

    def balance(r: float):
        rate = rate_mcp(first, config.rho1 * (1.0 - 2.0 ** (-r)))
        return rate, rate - (carried - r)

    lo, hi = 0.0, carried
    r_star = carried
    rate, residual = balance(r_star)
    while abs(residual) > _TOL and hi - lo >= _TOL * max(1.0, r_star):
        if residual < 0.0:
            lo = r_star
        else:
            hi = r_star
        r_star = 0.5 * (lo + hi)
        rate, residual = balance(r_star)
    return CfSolution(rate=rate, r_star=r_star, residual=residual,
                      second_lag_rate=carried)
