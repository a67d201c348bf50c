"""Tour of the per-cell rates at a single operating point.

Computes the compress-and-forward rate, the amplify-and-forward rate at
the optimal relay gain, and the cut-set-style upper bound for the stock
configuration, then shows how the picture changes as the inter-relay
coupling grows.
"""

from wynerrelay import (
    af_rate,
    cf_solve,
    optimal_gain,
    parse_config,
    upper_bound,
)
from wynerrelay.model import DEFAULT_CONFIG_MAPPING


def main():
    config = parse_config(DEFAULT_CONFIG_MAPPING)
    print(f"uplink SNR rho1 = {config.rho1:g}, relay SNR rho2 = {config.rho2:g}")
    print()

    solution = cf_solve(config)
    print("compress-and-forward")
    print(f"  rate          {solution.rate:.6f} bit/use")
    print(f"  overhead r*   {solution.r_star:.6f} bits")
    print(f"  residual      {solution.residual:.2e}")
    print()

    gain = optimal_gain(config)
    print("amplify-and-forward")
    print(f"  optimal gain  {gain.gain:.6f}")
    print(f"  output power  {gain.output_power:.6f} (budget {config.power_q:g})")
    print(f"  rate          {af_rate(config, gain.gain):.6f} bit/use")
    print()

    bound = upper_bound(config)
    print(f"upper bound     {bound:.6f} bit/use")
    print(f"cf gap to bound {bound - solution.rate:.6f} bit/use")
    print()

    # CF ignores the relay coupling entirely; AF pays for it.
    print("coupling sweep      cf        af")
    for mu in (0.0, 0.2, 0.4, 0.6, 0.8):
        point = parse_config({**DEFAULT_CONFIG_MAPPING, "mu": mu})
        af = af_rate(point, optimal_gain(point).gain)
        print(f"  mu = {mu:3.1f}     {cf_solve(point).rate:.6f}  {af:.6f}")


if __name__ == "__main__":
    main()
