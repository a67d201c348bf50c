"""Per-cell sum-rates for a relay-aided circular cellular uplink.

The library computes, for an infinite ring of cells whose mobiles reach
the base stations only through a layer of relays:

- the jointly processed uplink rate of a single hop, flat or waterfilled
  (`rate_mcp`, `waterfill`), with an exact finite-ring oracle
  (`rate_mcp_finite`, `waterfill_finite`);
- a two-hop upper bound (`upper_bound`);
- the amplify-and-forward achievable rate with the relay gain solved to
  meet the power budget (`af_rate`, `optimal_gain`), validated by a ring
  simulation (`simulate_relay_power`);
- the compress-and-forward achievable rate (`cf_solve`);
- one-axis sweeps and their presets, serialized stably to CSV/JSON, behind
  the `wynerrelay` CLI (`SweepSpec`, `run_sweep`, `emit`, `FIGURES`, `figure_spec`).
"""

from .model import (ConfigError, LagGains, SystemConfig, QuadratureConfig,
                    PACKAGE_VERSION, config_to_mapping, db_to_linear,
                    load_mapping, parse_config)
from .numerics import ConvergenceError, integrate_periodic, uniform_grid
from .wyner import (channel_response, rate_mcp, rate_mcp_finite, upper_bound,
                    waterfill, waterfill_finite)
from .af import (af_rate, af_rate_finite, optimal_gain, relay_output_power,
                 simulate_relay_power)
from .cf import CfSolution, cf_solve
from .sweep import (FIGURES, SCHEME_ORDER, SchemeError, SweepSpec,
                    canonical_schemes, emit, figure_spec, run_point, run_sweep)

__version__ = PACKAGE_VERSION

__all__ = [
    "CfSolution", "ConfigError", "ConvergenceError", "FIGURES", "LagGains",
    "PACKAGE_VERSION", "QuadratureConfig", "SCHEME_ORDER", "SchemeError",
    "SweepSpec", "SystemConfig", "af_rate", "af_rate_finite",
    "canonical_schemes", "cf_solve", "channel_response", "config_to_mapping",
    "db_to_linear", "emit", "figure_spec", "integrate_periodic",
    "load_mapping", "optimal_gain", "parse_config",
    "rate_mcp", "rate_mcp_finite", "relay_output_power", "run_point",
    "run_sweep", "simulate_relay_power", "uniform_grid", "upper_bound",
    "waterfill", "waterfill_finite",
]
