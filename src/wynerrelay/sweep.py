"""Parameter sweeps over the rate schemes, with stable tabular output.

Each rate scheme is defined once, in the `SCHEMES` table. A sweep varies
one quantity along a uniform grid, evaluates the selected schemes at
every grid point, and collects the results into a table whose serialized
form is byte-stable: the same sweep emits identical bytes regardless of
the scheme order given by the caller.
"""

from __future__ import annotations

import dataclasses
import json
import math
import numbers
from contextlib import contextmanager
from dataclasses import dataclass, field, replace

from .af import af_rate, af_rate_finite, optimal_gain, relay_output_power, \
    simulate_relay_power
from .cf import cf_solve
from .model import (ConfigError, SystemConfig, QuadratureConfig,
                    DEFAULT_QUADRATURE, DEFAULT_CONFIG_MAPPING, PACKAGE_VERSION,
                    config_to_mapping, db_to_linear, parse_config,
                    _require_finite)
from .wyner import rate_mcp_finite, upper_bound, waterfill

AXES = ("mu", "power_p", "power_q", "rho1_db", "rho2_db")

# Ring size for the finite-model cross-check columns behind --oracle.
ORACLE_RING = 4096


class SchemeError(RuntimeError):
    """A scheme computation failed; the message names the scheme."""


@contextmanager
def _oracle():
    """Tell a failed cross-check apart from a failed scheme solve."""
    try:
        yield
    except (ValueError, ArithmeticError) as exc:
        raise SchemeError(f"oracle: {exc}") from exc


def _against(name: str, finite: float, value: float) -> dict:
    """A finite-ring cross-check column and its signed gap to the value."""
    return {f"{name}_oracle": finite, f"{name}_oracle_delta": finite - value}


# One function per scheme. Each runs its solve once and returns the rate,
# its --verbose diagnostics and, given an oracle seed, its cross-check
# columns built from that same solve. The layer functions are looked up
# through this module's names at call time, so they can be wrapped.

def _cf(config: SystemConfig, quadrature: QuadratureConfig, seed):
    solution = cf_solve(config, quadrature)
    notes = {"cf_r_star": solution.r_star, "cf_residual": solution.residual}
    if seed is None:
        return solution.rate, notes, {}
    with _oracle():
        quantized = config.rho1 * (1.0 - 2.0 ** (-solution.r_star))
        finite = rate_mcp_finite(config.first_lag, quantized, ORACLE_RING)
    return solution.rate, notes, _against("cf", finite, solution.rate)


def _af(config: SystemConfig, quadrature: QuadratureConfig, seed):
    gain = optimal_gain(config)
    rate = af_rate(config, gain.gain, quadrature)
    notes = {"af_gain": gain.gain, "af_power_residual": gain.residual}
    if seed is None:
        return rate, notes, {}
    with _oracle():
        finite = af_rate_finite(config, gain.gain, ORACLE_RING)
        simulated = simulate_relay_power(config, gain.gain, seed=seed)
        power = relay_output_power(gain.gain, config)
    return rate, notes, {**_against("af", finite, rate),
                         "af_sim_power": simulated.mean_power,
                         "af_sim_se": simulated.std_error,
                         "af_sim_delta": simulated.mean_power - power}


def _af_mu0(config: SystemConfig, quadrature: QuadratureConfig, seed):
    quiet = replace(config, mu=0.0)
    gain = optimal_gain(quiet)
    rate = af_rate(quiet, gain.gain, quadrature)
    notes = {"af_mu0_gain": gain.gain}
    if seed is None:
        return rate, notes, {}
    with _oracle():
        finite = af_rate_finite(quiet, gain.gain, ORACLE_RING)
    return rate, notes, _against("af_mu0", finite, rate)


def _upper_bound(config: SystemConfig, quadrature: QuadratureConfig, seed):
    bound = upper_bound(config, quadrature)
    if seed is None:
        return bound, {}, {}
    with _oracle():
        uplink = rate_mcp_finite(config.first_lag, config.rho1, ORACLE_RING)
        downlink = waterfill(config.second_lag, config.rho2, quadrature).rate
    return bound, {}, _against("upper_bound", min(uplink, downlink), bound)


# The registry, in canonical order: columns follow this order.
SCHEMES = {"cf": _cf, "af": _af, "af_mu0": _af_mu0, "upper_bound": _upper_bound}
SCHEME_ORDER = tuple(SCHEMES)


def canonical_schemes(schemes) -> tuple:
    requested = set(schemes)
    unknown = sorted(requested - SCHEMES.keys())
    if unknown:
        raise ConfigError(f"unknown scheme(s): {', '.join(map(str, unknown))}")
    if not requested:
        raise ConfigError("at least one scheme is required")
    return tuple(name for name in SCHEMES if name in requested)


@dataclass(frozen=True)
class SweepSpec:
    """One swept quantity, its grid, the base system, and the schemes."""

    axis: str
    start: float
    stop: float
    points: int
    base: SystemConfig
    schemes: tuple = SCHEME_ORDER

    def __post_init__(self):
        if self.axis not in AXES:
            raise ConfigError(
                f"axis must be one of {', '.join(AXES)}, got {self.axis!r}")
        object.__setattr__(self, "start", _require_finite("start", self.start))
        object.__setattr__(self, "stop", _require_finite("stop", self.stop))
        if not self.start < self.stop:
            raise ConfigError(
                f"sweep needs start < stop, got [{self.start}, {self.stop}]")
        if isinstance(self.points, bool) or \
                not isinstance(self.points, numbers.Integral) or self.points < 2:
            raise ConfigError(f"points must be an integer >= 2, got {self.points!r}")
        object.__setattr__(self, "points", int(self.points))
        object.__setattr__(self, "schemes", canonical_schemes(self.schemes))
        for value in axis_values(self):
            try:
                config_at(self, value)
            except ConfigError as exc:
                raise ConfigError(f"axis {self.axis} = {value} is invalid: {exc}") from exc


def axis_values(spec: SweepSpec) -> list:
    span = spec.stop - spec.start
    return [spec.start + span * (index / (spec.points - 1))
            for index in range(spec.points)]


def config_at(spec: SweepSpec, value: float) -> SystemConfig:
    if spec.axis == "rho1_db":
        return replace(spec.base, power_p=spec.base.noise1 * db_to_linear(value))
    if spec.axis == "rho2_db":
        return replace(spec.base, power_q=spec.base.noise2 * db_to_linear(value))
    return replace(spec.base, **{spec.axis: value})


def run_point(config: SystemConfig, schemes,
              quadrature: QuadratureConfig = DEFAULT_QUADRATURE, *,
              diagnostics: bool = False, oracle_seed=None) -> dict:
    """Evaluate and check the selected schemes at one operating point.

    Returns a name-to-value map: the scheme rates in canonical order; with
    diagnostics, solver internals (fixed-point location, relay gain,
    residuals); with an oracle seed (the Monte Carlo simulator's entropy),
    finite-ring and Monte Carlo cross-checks, each with its signed gap to
    the reported value. Every returned value must be finite, every rate
    non-negative and, when `upper_bound` is selected, no rate above it;
    a failure raises SchemeError naming the scheme.
    """
    rates, notes, checks = {}, {}, {}
    for name in canonical_schemes(schemes):
        try:
            rate, extras, oracle = SCHEMES[name](config, quadrature, oracle_seed)
        except (ValueError, ArithmeticError, SchemeError) as exc:
            raise SchemeError(f"{name}: {exc}") from exc
        if not diagnostics:
            extras = {}
        for column, value in {name: rate, **extras, **oracle}.items():
            if not math.isfinite(value):
                raise SchemeError(
                    f"{name}: column {column} holds a non-finite value: {value!r}")
        if rate < 0.0:
            raise SchemeError(f"{name}: rate went negative: {rate}")
        rates[name] = rate
        notes.update(extras)
        checks.update(oracle)
    bound = rates.get("upper_bound", math.inf)
    for name, rate in rates.items():
        if rate > bound:
            raise SchemeError(f"{name}: rate {rate} exceeds its upper bound {bound}")
    return {**rates, **notes, **checks}


@dataclass(frozen=True)
class SweepTable:
    """Axis values plus one column per scheme (and optional extras)."""

    axis: str
    axis_values: tuple
    columns: dict
    metadata: dict = field(default_factory=dict)


def run_metadata(quadrature: QuadratureConfig, oracle_seed=None) -> dict:
    """The JSON metadata shared by every command: quadrature, version, oracle."""
    metadata = {"quadrature": dataclasses.asdict(quadrature),
                "version": PACKAGE_VERSION}
    if oracle_seed is not None:
        metadata["oracle_seed"] = oracle_seed
        metadata["oracle_ring_cells"] = ORACLE_RING
    return metadata


def run_sweep(spec: SweepSpec, quadrature: QuadratureConfig = DEFAULT_QUADRATURE,
              *, diagnostics: bool = False, oracle: bool = False,
              seed: int = 1234) -> SweepTable:
    """Evaluate the sweep point by point, in grid order."""
    values = axis_values(spec)
    results = []
    for index, value in enumerate(values):
        try:
            results.append(run_point(config_at(spec, value), spec.schemes, quadrature,
                                     diagnostics=diagnostics,
                                     oracle_seed=[seed, index] if oracle else None))
        except SchemeError as exc:
            raise SchemeError(f"at {spec.axis} = {value:.12g}: {exc}") from exc

    columns = {name: tuple(point[name] for point in results) for name in results[0]}
    metadata = {
        "axis": spec.axis,
        "start": spec.start,
        "stop": spec.stop,
        "points": spec.points,
        "schemes": list(spec.schemes),
        "base_config": config_to_mapping(spec.base),
        **run_metadata(quadrature, seed if oracle else None),
    }
    return SweepTable(axis=spec.axis, axis_values=tuple(values),
                      columns=columns, metadata=metadata)


def emit(table: SweepTable, format: str = "csv") -> bytes:
    """Serialize a table; identical tables serialize to identical bytes."""
    if format == "csv":
        lines = ["axis," + ",".join(table.columns)]
        for row, axis_value in enumerate(table.axis_values):
            cells = [f"{axis_value:.12g}"]
            cells += [f"{column[row]:.12g}" for column in table.columns.values()]
            lines.append(",".join(cells))
        return ("\n".join(lines) + "\n").encode("ascii")
    if format == "json":
        document = {
            "metadata": table.metadata,
            "axis_values": list(table.axis_values),
            "columns": {name: list(column) for name, column in table.columns.items()},
        }
        return (json.dumps(document, sort_keys=True, indent=2) + "\n").encode("ascii")
    raise ConfigError(f"format must be 'csv' or 'json', got {format!r}")


def figure_spec(name: str) -> SweepSpec:
    """Preset sweeps reproducing the reference operating regimes.

    fig3 sweeps the inter-relay gain at fixed powers; fig4 and fig5 sweep
    the uplink power in dB at symmetric and asymmetric hop gains, with the
    echo-free relay rate alongside for contrast.
    """
    base = parse_config(DEFAULT_CONFIG_MAPPING)
    if name == "fig3":
        return SweepSpec(axis="mu", start=0.0, stop=0.8, points=17,
                         base=replace(base, mu=0.0),
                         schemes=("cf", "af", "upper_bound"))
    if name == "fig4":
        return SweepSpec(axis="rho1_db", start=-10.0, stop=30.0, points=21,
                         base=replace(base, mu=0.8),
                         schemes=("cf", "af", "af_mu0", "upper_bound"))
    if name == "fig5":
        return SweepSpec(axis="rho1_db", start=-10.0, stop=30.0, points=21,
                         base=replace(base, mu=0.8, alpha=0.6),
                         schemes=("cf", "af", "af_mu0", "upper_bound"))
    raise ConfigError(f"unknown figure {name!r}; choose fig3, fig4, or fig5")
