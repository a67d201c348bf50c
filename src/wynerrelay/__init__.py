"""Per-cell sum-rates for a relay-aided circular cellular uplink.

The library computes, for an infinite ring of cells whose mobiles reach
the base stations only through a layer of relays:

- the jointly processed uplink rate of a single hop, flat or waterfilled
  (`rate_mcp`, `waterfill`), with an exact finite-ring oracle
  (`rate_mcp_finite`, `waterfill_finite`);
- a two-hop upper bound (`upper_bound`);
- the amplify-and-forward achievable rate with the relay gain solved to
  meet the power budget (`af_rate`, `optimal_gain`), its relay power
  (`relay_output_power`) validated by a ring simulation
  (`simulate_relay_power`);
- the compress-and-forward achievable rate (`cf_solve`);
- one-axis sweeps and their presets, serialized stably to CSV/JSON, behind
  the `wynerrelay` CLI (`SweepSpec`, `run_point`, `run_sweep`, `emit`,
  `FIGURES`, `figure_spec`).

The top level exports the names above, the configuration types with
`parse_config`, and the errors. Helpers such as `channel_response`,
`uniform_grid` or `config_to_mapping` are imported from their modules.
"""

from .model import (ConfigError, LagGains, SystemConfig, QuadratureConfig,
                    PACKAGE_VERSION, parse_config)
from .numerics import ConvergenceError
from .wyner import rate_mcp, rate_mcp_finite, upper_bound, waterfill, waterfill_finite
from .af import af_rate, optimal_gain, relay_output_power, simulate_relay_power
from .cf import cf_solve
from .sweep import FIGURES, SchemeError, SweepSpec, emit, figure_spec, run_point, run_sweep

__version__ = PACKAGE_VERSION

__all__ = [
    "ConfigError", "ConvergenceError", "FIGURES", "LagGains", "QuadratureConfig",
    "SchemeError", "SweepSpec", "SystemConfig", "af_rate", "cf_solve", "emit",
    "figure_spec", "optimal_gain", "parse_config", "rate_mcp", "rate_mcp_finite",
    "relay_output_power", "run_point", "run_sweep", "simulate_relay_power",
    "upper_bound", "waterfill", "waterfill_finite",
]
