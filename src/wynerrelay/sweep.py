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
from collections import namedtuple
from dataclasses import dataclass, field, replace

from .af import af_rate, af_rate_finite, optimal_gain, simulate_relay_power
from . import wyner
from .cf import cf_solve, quantized_snr
from .model import (ConfigError, SystemConfig, QuadratureConfig,
                    DEFAULT_QUADRATURE, DEFAULT_CONFIG_MAPPING, PACKAGE_VERSION,
                    config_to_mapping, db_to_linear, parse_config,
                    _require_finite, _require_integer)
from .numerics import ConvergenceError, ring_cosines
from .wyner import rate_mcp_finite, upper_bound, waterfill_finite

AXES = ("mu", "power_p", "power_q", "rho1_db", "rho2_db")

# Ring size for the finite-model cross-check columns behind --oracle.
ORACLE_RING = 4096


class SchemeError(RuntimeError):
    """A scheme computation failed; the message names the scheme."""


def _against(name: str, finite: float, value: float) -> dict:
    """A finite-ring cross-check column and its signed gap to the value."""
    return {f"{name}_oracle": finite, f"{name}_oracle_delta": finite - value}


def _once(solved: dict, key, solve, *args):
    """solve(*args), run once per key for as long as `solved` is kept."""
    if key not in solved:
        solved[key] = solve(*args)
    return solved[key]


# One function per scheme. Each runs its solve once and returns the rate,
# its --verbose diagnostics and `oracle(seed)`, which builds the
# cross-check columns from that same solve; the seed is the Monte Carlo
# simulator's entropy. `solved` carries solves between the points of a
# sweep, keyed on exactly the inputs each solve reads. The layer functions
# are looked up through module names at call time, so they can be wrapped.

def _cf(config: SystemConfig, quadrature: QuadratureConfig, solved):
    # The relays cancel their own echo, so the solve does not read mu.
    key = ("cf", config.first_lag, config.rho1, config.second_lag, config.rho2)
    solution = _once(solved, key, cf_solve, config)
    # Data and description share the second hop, so a larger data rate
    # means the solve stopped short of its root; the data rate left at
    # the stopping point is what the split achieves.
    if solution.rate > solution.second_lag_rate:
        raise ConvergenceError(
            f"rate {solution.rate!r} exceeds the second-hop rate "
            f"{solution.second_lag_rate!r} it splits (residual {solution.residual!r})",
            best_estimate=solution.second_lag_rate - solution.r_star)
    notes = {"cf_r_star": solution.r_star, "cf_residual": solution.residual}

    def oracle(seed):
        quantized = quantized_snr(config.rho1, solution.r_star)
        finite = rate_mcp_finite(config.first_lag, quantized, ring_cosines(ORACLE_RING))
        return _against("cf", finite, solution.rate)
    return solution.rate, notes, oracle


def _af(config: SystemConfig, quadrature: QuadratureConfig, solved):
    gain = optimal_gain(config)
    rate = af_rate(config, gain.gain, quadrature)
    notes = {"af_gain": gain.gain, "af_power_residual": gain.residual}

    def oracle(seed):
        finite = af_rate_finite(config, gain.gain, ring_cosines(ORACLE_RING))
        simulated = simulate_relay_power(config, gain.gain, seed=seed)
        return {**_against("af", finite, rate),
                "af_sim_power": simulated.mean_power,
                "af_sim_se": simulated.std_error,
                "af_sim_delta": simulated.mean_power - gain.output_power}
    return rate, notes, oracle


def _af_mu0(config: SystemConfig, quadrature: QuadratureConfig, solved):
    quiet = replace(config, mu=0.0)
    gain = optimal_gain(quiet)
    rate = af_rate(quiet, gain.gain, quadrature)

    def oracle(seed):
        finite = af_rate_finite(quiet, gain.gain, ring_cosines(ORACLE_RING))
        return _against("af_mu0", finite, rate)
    return rate, {"af_mu0_gain": gain.gain}, oracle


def _upper_bound(config: SystemConfig, quadrature: QuadratureConfig, solved):
    key = ("waterfill", config.second_lag, config.rho2, quadrature)
    fill = _once(solved, key, wyner.waterfill,
                 config.second_lag, config.rho2, quadrature)
    bound = upper_bound(config, fill)
    notes = {"upper_bound_power_residual": fill.spent_power - config.rho2}

    def oracle(seed):
        modes = ring_cosines(ORACLE_RING)
        finite = min(rate_mcp_finite(config.first_lag, config.rho1, modes),
                     waterfill_finite(config.second_lag, config.rho2, modes))
        return _against("upper_bound", finite, bound)
    return bound, notes, oracle


# The registry, in canonical order: columns follow this order.
SCHEMES = {"cf": _cf, "af": _af, "af_mu0": _af_mu0, "upper_bound": _upper_bound}
SCHEME_ORDER = tuple(SCHEMES)


def canonical_schemes(schemes) -> tuple:
    if isinstance(schemes, str):
        raise ConfigError("expected a collection of scheme names, "
                          f"got the string {schemes!r}")
    requested = list(schemes)
    # By repr, so that an empty name shows and names of any type sort; a name
    # that is not a string is unknown, even one that cannot be hashed.
    unknown = sorted({repr(name) for name in requested
                      if not isinstance(name, str) or name not in SCHEMES})
    if unknown:
        raise ConfigError(f"unknown scheme(s): {', '.join(unknown)}")
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
    # The grid's axis values and each point's config, built on validation.
    values: tuple = field(init=False, repr=False, compare=False)
    configs: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.axis not in AXES:
            raise ConfigError(
                f"axis must be one of {', '.join(AXES)}, got {self.axis!r}")
        object.__setattr__(self, "start", _require_finite("start", self.start))
        object.__setattr__(self, "stop", _require_finite("stop", self.stop))
        if not self.start < self.stop:
            raise ConfigError(
                f"sweep needs start < stop, got [{self.start}, {self.stop}]")
        object.__setattr__(self, "points", _require_integer("points", self.points, 2))
        object.__setattr__(self, "schemes", canonical_schemes(self.schemes))
        span = self.stop - self.start
        if not math.isfinite(span):
            raise ConfigError(f"sweep span [{self.start}, {self.stop}] is too wide: "
                              "stop - start overflows")
        values = tuple(self.start + span * (index / (self.points - 1))
                       for index in range(self.points))
        base, configs = self.base, []
        for value in values:
            try:
                if self.axis == "rho1_db":
                    config = replace(base, power_p=base.noise1 * db_to_linear(value))
                elif self.axis == "rho2_db":
                    config = replace(base, power_q=base.noise2 * db_to_linear(value))
                else:
                    config = replace(base, **{self.axis: value})
            except ConfigError as exc:
                raise ConfigError(f"axis {self.axis} = {value} is invalid: {exc}") from exc
            configs.append(config)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "configs", tuple(configs))


def run_point(config: SystemConfig, schemes,
              quadrature: QuadratureConfig = DEFAULT_QUADRATURE, *,
              diagnostics: bool = False, oracle_seed=None, solved=None) -> dict:
    """Evaluate and check the selected schemes at one operating point.

    Returns a name-to-value map: the scheme rates in canonical order; with
    diagnostics, solver internals (fixed-point location, relay gain,
    residuals); with an oracle seed (the Monte Carlo simulator's entropy),
    finite-ring and Monte Carlo cross-checks, each with its signed gap to
    the reported value. Only a seed runs the cross-checks, each right
    after its scheme's solve. Every returned value must be finite, every
    rate non-negative and, when `upper_bound` is selected, no rate above
    it; a failure raises SchemeError naming the scheme, and a failed
    cross-check names it as `<scheme>: oracle: ...`. A caller evaluating
    several points passes the same `solved` dict to each, and a solve
    whose inputs an earlier point shared is taken from it.
    """
    if solved is None:
        solved = {}
    rates, notes, checks = {}, {}, {}
    for name in canonical_schemes(schemes):
        try:
            rate, extras, oracle = SCHEMES[name](config, quadrature, solved)
        except (ValueError, ArithmeticError) as exc:
            raise SchemeError(f"{name}: {exc}") from exc
        try:
            crosscheck = {} if oracle_seed is None else oracle(oracle_seed)
        except (ValueError, ArithmeticError) as exc:
            raise SchemeError(f"{name}: oracle: {exc}") from exc
        if not diagnostics:
            extras = {}
        for column, value in {name: rate, **extras, **crosscheck}.items():
            if not math.isfinite(value):
                raise SchemeError(
                    f"{name}: column {column} holds a non-finite value: {value!r}")
        if rate < 0.0:
            raise SchemeError(f"{name}: rate went negative: {rate}")
        rates[name] = rate
        notes.update(extras)
        checks.update(crosscheck)
    bound = rates.get("upper_bound", math.inf)
    for name, rate in rates.items():
        if rate > bound:
            raise SchemeError(f"{name}: rate {rate} exceeds its upper bound {bound}")
    return {**rates, **notes, **checks}


@dataclass(frozen=True)
class SweepTable:
    """Axis values plus one column per scheme (and optional extras)."""

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
              *, diagnostics: bool = False, oracle_seed=None) -> SweepTable:
    """Evaluate the sweep point by point, in grid order.

    Point i runs `run_point` with oracle seed [oracle_seed, i], so no seed
    means no cross-checks. A solve that the swept quantity does not reach
    runs once per sweep: on a mu axis `cf_solve` and the second hop's
    `waterfill`, and on a first-hop power axis that `waterfill`.
    """
    solved = {}
    results = []
    for index, (value, config) in enumerate(zip(spec.values, spec.configs)):
        seed = None if oracle_seed is None else [oracle_seed, index]
        try:
            results.append(run_point(config, spec.schemes, quadrature,
                                     diagnostics=diagnostics, oracle_seed=seed,
                                     solved=solved))
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
        **run_metadata(quadrature, oracle_seed),
    }
    return SweepTable(axis_values=spec.values, columns=columns, metadata=metadata)


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


# A sweep before its base config: its grid, its schemes, and the config
# fields that differ from DEFAULT_CONFIG_MAPPING. The presets reproduce the
# reference operating regimes: the inter-relay gain at fixed powers, then
# the uplink power in dB at symmetric and asymmetric hop gains, with the
# echo-free relay rate alongside for contrast.
Figure = namedtuple("Figure", "axis start stop points schemes config")
FIGURES = {
    "fig3": Figure("mu", 0.0, 0.8, 17, ("cf", "af", "upper_bound"), {"mu": 0.0}),
    "fig4": Figure("rho1_db", -10.0, 30.0, 21, SCHEME_ORDER, {"mu": 0.8}),
    "fig5": Figure("rho1_db", -10.0, 30.0, 21, SCHEME_ORDER,
                   {"mu": 0.8, "alpha": 0.6}),
}


def figure_spec(name: str) -> SweepSpec:
    """The sweep of the preset `name`, one of `FIGURES`."""
    if name not in FIGURES:
        *head, last = FIGURES
        raise ConfigError(f"unknown figure {name!r}; choose {', '.join(head)}, or {last}")
    axis, start, stop, points, schemes, changes = FIGURES[name]
    return SweepSpec(axis, start, stop, points,
                     parse_config({**DEFAULT_CONFIG_MAPPING, **changes}), schemes)
