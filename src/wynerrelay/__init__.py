"""Per-cell sum-rates for a relay-aided circular cellular uplink.

The library computes, for an infinite ring of cells whose mobiles reach
the base stations only through a layer of relays:

- the jointly processed uplink rate of a single hop, flat or waterfilled
  (`rate_mcp`, `waterfill`), with an exact finite-ring oracle
  (`rate_mcp_finite`);
- a two-hop upper bound (`upper_bound`);
- the amplify-and-forward achievable rate with the relay gain solved to
  meet the power budget (`af_rate`, `optimal_gain`), validated by a ring
  simulation (`simulate_relay_power`);
- the compress-and-forward achievable rate (`cf_solve`);
- one-axis parameter sweeps with stable CSV/JSON serialization
  (`run_sweep`, `emit`, `figure_spec`) behind the `wynerrelay` CLI.
"""

from .model import (ConfigError, LagGains, SystemConfig, QuadratureConfig,
                    DEFAULT_QUADRATURE, DEFAULT_CONFIG_MAPPING, PACKAGE_VERSION,
                    config_to_mapping, db_to_linear, linear_to_db, load_config,
                    load_mapping, parse_config)
from .numerics import (BracketError, BracketedRoot, ConvergenceError,
                       bisect_monotone, integrate_periodic,
                       integrate_periodic_report, uniform_grid)
from .wyner import (WaterfillSolution, channel_response, rate_mcp,
                    rate_mcp_finite, upper_bound, waterfill)
from .af import (AfGainSolution, MonteCarloPower, RING_CELLS, af_rate,
                 af_rate_finite, optimal_gain, relay_output_power,
                 simulate_relay_power)
from .cf import CfSolution, cf_rate_limits, cf_solve
from .sweep import (AXES, ORACLE_RING, SCHEME_ORDER, SchemeError, SweepSpec,
                    SweepTable, axis_values, canonical_schemes, config_at,
                    emit, figure_spec, run_point, run_sweep)

__version__ = PACKAGE_VERSION

__all__ = [
    "AXES", "AfGainSolution", "BracketError", "BracketedRoot", "CfSolution",
    "ConfigError", "ConvergenceError", "DEFAULT_CONFIG_MAPPING",
    "DEFAULT_QUADRATURE", "LagGains", "MonteCarloPower", "ORACLE_RING",
    "PACKAGE_VERSION", "QuadratureConfig", "RING_CELLS", "SCHEME_ORDER",
    "SchemeError", "SweepSpec", "SweepTable", "SystemConfig",
    "WaterfillSolution", "af_rate", "af_rate_finite", "axis_values",
    "bisect_monotone", "canonical_schemes", "cf_rate_limits", "cf_solve",
    "channel_response", "config_at", "config_to_mapping", "db_to_linear",
    "emit", "figure_spec", "integrate_periodic", "integrate_periodic_report",
    "linear_to_db", "load_config", "load_mapping", "optimal_gain",
    "parse_config", "rate_mcp", "rate_mcp_finite", "relay_output_power",
    "run_point", "run_sweep", "simulate_relay_power", "uniform_grid",
    "upper_bound", "waterfill",
]
