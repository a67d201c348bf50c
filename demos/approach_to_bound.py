"""How compress-and-forward approaches the cut-set-like bound.

At large relay power Q the bound is the uplink rate R1(rho1), and CF
falls short of it by a gap that shrinks as 1/rho2:

    (upper_bound - cf) * rho2  ->  rho1 * R1'(rho1) * 2^R1(rho1) / kappa^2,

where kappa, the geometric mean of the second hop's |H2|, is
(gamma + sqrt(gamma^2 - 4*eta^2))/2 when gamma >= 2*eta and eta otherwise
(Jensen's formula). This script prints both sides, and their relative
error, on the stock first hop for Q = 30 to 60 dB. A second hop without
nulls, (gamma, eta) = (1, 0.2), converges at 1/rho2: the error falls
tenfold per 10 dB, to -6.3e-6 at 60 dB. Second hops with nulls converge
more slowly: per 10 dB the error falls about 3.3-fold with the simple
nulls of (1, 0.6), to -3.0e-3 at 60 dB, and about 1.7-fold with the
double null of (1, 0.5), to -6.1e-2. Those two rates are read off this
table, not derived or asserted.
"""

import math

from wynerrelay import cf_solve, parse_config, rate_mcp, upper_bound
from wynerrelay.model import DEFAULT_CONFIG_MAPPING
from wynerrelay.wyner import rate_mcp_slope

HOPS = (((1.0, 0.2), "no nulls"), ((1.0, 0.6), "simple nulls"),
        ((1.0, 0.5), "double null"))
Q_DB = (30.0, 40.0, 50.0, 60.0)


def geometric_mean_response(gamma, eta):
    """kappa: exp of the mean of log|gamma + 2*eta*cos(2*pi*f)|."""
    if gamma >= 2.0 * eta:
        return (gamma + math.sqrt(gamma**2 - 4.0 * eta**2)) / 2.0
    return eta


def main():
    for (gamma, eta), label in HOPS:
        kappa = geometric_mean_response(gamma, eta)
        print(f"(gamma, eta) = ({gamma:g}, {eta:g}), {label}")
        print("  Q dB   (bound - cf)*rho2   limit        relative error")
        for q_db in Q_DB:
            config = parse_config({**DEFAULT_CONFIG_MAPPING, "gamma": gamma,
                                   "eta": eta, "Q_dB": q_db})
            uplink = rate_mcp(config.first_lag, config.rho1)
            limit = (config.rho1 * rate_mcp_slope(config.first_lag, config.rho1)
                     * 2.0**uplink / kappa**2)
            gap = (upper_bound(config) - cf_solve(config).rate) * config.rho2
            print(f"  {q_db:4.0f}   {gap:17.5f}   {limit:10.5f}   {gap / limit - 1.0:+.2e}")
        print()


if __name__ == "__main__":
    main()
