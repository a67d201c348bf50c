"""How the relay output power pins down the amplification gain.

Traces the steady-state relay output power as the gain approaches its
stability limit 1/(2*mu), takes the gain that exactly spends the power
budget from the power law's closed-form root, and verifies the closed-form
power against a Monte Carlo simulation of the actual relay ring.
"""

from wynerrelay import (
    optimal_gain,
    parse_config,
    relay_output_power,
    simulate_relay_power,
)
from wynerrelay.model import DEFAULT_CONFIG_MAPPING

CONFIG = parse_config(DEFAULT_CONFIG_MAPPING)


def main():
    limit = 1.0 / (2.0 * CONFIG.mu)
    print(f"stability limit: gain < {limit:g}")
    print()
    print("gain      relay output power")
    for fraction in (0.2, 0.5, 0.8, 0.95, 0.99, 0.999):
        gain = fraction * limit
        print(f"{gain:8.5f}  {relay_output_power(gain, CONFIG):14.4f}")
    print()

    solution = optimal_gain(CONFIG)
    print(f"budget Q = {CONFIG.power_q:g} is spent exactly at gain {solution.gain:.9f}")
    print(f"  residual {solution.residual:.2e}")
    print()

    # An explicit 64-cell ring with unit-delay relaying should dissipate
    # the same average power as the closed form predicts.
    mc = simulate_relay_power(CONFIG, solution.gain, symbols=1 << 20, seed=1234)
    formula = relay_output_power(solution.gain, CONFIG)
    print(f"simulated ring power: {mc.mean_power:.4f} +/- {mc.std_error:.4f}"
          f"  ({mc.symbols} symbols)")
    print(f"closed form:          {formula:.4f}")
    print(f"difference:           {abs(mc.mean_power - formula) / mc.std_error:.2f}"
          " standard errors")


if __name__ == "__main__":
    main()
