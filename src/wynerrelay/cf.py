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
from .numerics import bisect_monotone
from .wyner import rate_mcp


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

    The balance difference is strictly increasing in r and changes sign
    on [0, second-hop rate], so plain bisection is certified.
    """
    carried = rate_mcp(config.second_lag, config.rho2)
    if carried == 0.0:
        return CfSolution(rate=0.0, r_star=0.0, residual=0.0, second_lag_rate=carried)

    def balance(r: float) -> float:
        quantized = config.rho1 * (1.0 - 2.0 ** (-r))
        return rate_mcp(config.first_lag, quantized) - (carried - r)

    root = bisect_monotone(balance, 0.0, carried, target=0.0, tol=1e-10)
    r_star = root.location
    rate = rate_mcp(config.first_lag, config.rho1 * (1.0 - 2.0 ** (-r_star)))
    return CfSolution(rate=rate, r_star=r_star,
                      residual=rate - (carried - r_star), second_lag_rate=carried)


def cf_rate_limits(config: SystemConfig, which: str) -> float:
    """Analytic value cf_solve approaches as one hop's SNR grows without bound.

    which names the diverging SNR: "first_lag_snr" leaves the second hop
    as the bottleneck, "second_lag_snr" leaves the first.
    """
    if which == "first_lag_snr":
        return rate_mcp(config.second_lag, config.rho2)
    if which == "second_lag_snr":
        return rate_mcp(config.first_lag, config.rho1)
    raise ValueError(
        f"which must be 'first_lag_snr' or 'second_lag_snr', got {which!r}")
