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
`ring_cosines` or `config_to_mapping` are imported from their modules.

Importing the package loads none of its modules: each export and each
submodule is imported on first access (PEP 562), so `wynerrelay --version`
and `--help` start without the rate modules.
"""

import importlib

__version__ = "0.1.0"

# Each exported name and the submodule that owns it.
_EXPORTS = {
    "ConfigError": "model", "LagGains": "model", "QuadratureConfig": "model",
    "SystemConfig": "model", "parse_config": "model",
    "ConvergenceError": "numerics",
    "rate_mcp": "wyner", "rate_mcp_finite": "wyner", "upper_bound": "wyner",
    "waterfill": "wyner", "waterfill_finite": "wyner",
    "af_rate": "af", "optimal_gain": "af", "relay_output_power": "af",
    "simulate_relay_power": "af",
    "cf_solve": "cf",
    "FIGURES": "sweep", "SchemeError": "sweep", "SweepSpec": "sweep", "emit": "sweep",
    "figure_spec": "sweep", "run_point": "sweep", "run_sweep": "sweep",
}
_SUBMODULES = ("af", "cf", "cli", "model", "numerics", "sweep", "wyner")

__all__ = sorted(_EXPORTS)


def __getattr__(name):
    # Called only for a name the package does not hold yet. An export is
    # read from its owner on each call, not cached here, so it is always
    # the owner's current binding; an imported submodule becomes a package
    # attribute and is not looked up here again.
    if name in _EXPORTS:
        return getattr(importlib.import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__, *_SUBMODULES})
