"""Sweep planning, execution, serialization, and figure presets."""

import collections
import dataclasses
import json
import math

import pytest

import wynerrelay.sweep
import wynerrelay.wyner
from wynerrelay import (
    ConfigError,
    QuadratureConfig,
    SchemeError,
    SweepSpec,
    emit,
    figure_spec,
    optimal_gain,
    parse_config,
    run_point,
    run_sweep,
)
from wynerrelay.model import db_to_linear
from wynerrelay.sweep import SCHEME_ORDER, canonical_schemes

from stock import FIG3_GOLDEN, RATE_POOL, stock_config


def small_spec(**overrides):
    fields = {
        "axis": "mu",
        "start": 0.0,
        "stop": 0.5,
        "points": 3,
        "base": stock_config(),
        "schemes": ("cf", "upper_bound"),
    }
    fields.update(overrides)
    return SweepSpec(**fields)


class TestCanonicalSchemes:
    def test_reorders_to_canonical(self):
        assert canonical_schemes(["upper_bound", "cf"]) == ("cf", "upper_bound")
        assert canonical_schemes(["af_mu0", "af", "cf", "upper_bound"]) == (
            "cf",
            "af",
            "af_mu0",
            "upper_bound",
        )

    def test_rejects_unknown_or_empty(self):
        with pytest.raises(ConfigError, match="af_mu9"):
            canonical_schemes(["cf", "af_mu9"])
        # Names that are not strings sort by their repr, too.
        with pytest.raises(ConfigError, match=r"^unknown scheme\(s\): 'x', 1$"):
            run_point(stock_config(), ["x", 1])
        # A bare string is not split into one-letter names, and a name that
        # cannot be hashed is unknown, too.
        with pytest.raises(ConfigError, match=r"^expected a collection of scheme names, "
                                              r"got the string 'cf'$"):
            run_point(stock_config(), "cf")
        with pytest.raises(ConfigError, match=r"^unknown scheme\(s\): \['cf'\]$"):
            run_point(stock_config(), [["cf"]])
        with pytest.raises(ConfigError):
            canonical_schemes([])


class TestSweepSpec:
    def test_axis_values_hit_endpoints(self):
        values = small_spec(points=5).values
        assert values[0] == 0.0
        assert values[-1] == 0.5
        assert len(values) == 5

    def test_db_axis_sets_linear_power(self):
        spec = small_spec(axis="rho1_db", start=0.0, stop=40.0,
                          base=stock_config(noise1=2.0))
        assert spec.values[1] == 20.0
        assert spec.configs[1].power_p == pytest.approx(200.0, rel=1e-12)
        spec2 = small_spec(axis="rho2_db", start=0.0, stop=30.0)
        assert spec2.values[-1] == 30.0
        assert spec2.configs[-1].power_q == pytest.approx(1000.0, rel=1e-12)

    def test_linear_axis_replaces_field(self):
        spec = small_spec(axis="power_q", start=1.0, stop=7.0)
        assert spec.values[-1] == 7.0
        assert spec.configs[-1].power_q == 7.0
        assert spec.configs[-1] == dataclasses.replace(spec.base, power_q=7.0)

    def test_rejects_bad_axis(self):
        with pytest.raises(ConfigError, match="axis"):
            small_spec(axis="wavelength")

    def test_rejects_bad_grid(self):
        with pytest.raises(ConfigError):
            small_spec(start=0.5, stop=0.0)
        with pytest.raises(ConfigError):
            small_spec(points=1)

    @pytest.mark.parametrize("axis", ["power_p", "rho1_db"])
    def test_rejects_overflowing_span(self, axis):
        # stop - start is inf, which would make the first point inf * 0 = nan.
        with pytest.raises(ConfigError, match=r"^sweep span \[-1\.7e\+308, 1\.7e\+308\]"):
            small_spec(axis=axis, start=-1.7e308, stop=1.7e308)

    def test_rejects_grid_leaving_valid_domain(self):
        with pytest.raises(ConfigError, match="-0.25"):
            small_spec(start=-0.25)

    def test_keeps_each_point_config(self):
        spec = small_spec(axis="rho1_db", start=0.0, stop=20.0)
        assert spec.configs == tuple(
            dataclasses.replace(spec.base, power_p=db_to_linear(value))
            for value in spec.values)
        assert "values" not in repr(spec)
        assert "configs" not in repr(spec)
        moved = dataclasses.replace(spec, base=stock_config(mu=0.2))
        assert all(config.mu == 0.2 for config in moved.configs)


class TestRunPoint:
    def test_silent_uplink_zeroes_every_scheme(self):
        rates = run_point(stock_config(power_p=0.0),
                          ("cf", "af", "af_mu0", "upper_bound"))
        assert rates == {"cf": 0.0, "af": 0.0, "af_mu0": 0.0, "upper_bound": 0.0}

    def test_cf_ignores_relay_coupling(self):
        low = run_point(stock_config(mu=0.0), ("cf",))
        high = run_point(stock_config(mu=0.8), ("cf",))
        assert low["cf"] == high["cf"]

    def test_af_mu0_solves_uncoupled_ring(self):
        rates = run_point(stock_config(mu=0.8), ("af", "af_mu0"))
        uncoupled = run_point(stock_config(mu=0.0), ("af",))
        assert rates["af_mu0"] == uncoupled["af"]
        assert rates["af_mu0"] > rates["af"]

    def test_diagnostics_are_opt_in(self):
        config = stock_config()
        plain = run_point(config, ("cf", "af"))
        assert set(plain) == {"cf", "af"}
        verbose = run_point(config, ("cf", "af"), diagnostics=True)
        assert verbose["cf"] == plain["cf"]
        assert verbose["af"] == plain["af"]
        assert {"cf_r_star", "cf_residual", "af_gain", "af_power_residual"} <= set(verbose)

    def test_failure_names_scheme(self):
        tiny = QuadratureConfig(max_points=8)
        with pytest.raises(SchemeError, match="upper_bound"):
            run_point(stock_config(eta=0.6), ("upper_bound",), tiny)

    @pytest.mark.parametrize("scheme, checker", [
        ("cf", "rate_mcp_finite"), ("af", "simulate_relay_power"),
        ("af_mu0", "af_rate_finite"), ("upper_bound", "waterfill_finite")],
        ids=SCHEME_ORDER)
    def test_oracle_failure_names_scheme(self, monkeypatch, scheme, checker):
        def diverged(*args, **kwargs):
            raise ArithmeticError("ring diverged")

        monkeypatch.setattr(wynerrelay.sweep, checker, diverged)
        assert run_point(stock_config(), (scheme,))[scheme] > 0.0
        with pytest.raises(SchemeError, match=f"^{scheme}: oracle: ring diverged$"):
            run_point(stock_config(), (scheme,), oracle_seed=[1, 0])

    def test_rates_checked_against_upper_bound(self, monkeypatch):
        monkeypatch.setattr(wynerrelay.sweep, "af_rate", lambda *args: 1e3)
        assert run_point(stock_config(), ("af",)) == {"af": 1e3}
        with pytest.raises(SchemeError, match="^af: rate 1000.0 exceeds"):
            run_point(stock_config(), ("cf", "af", "upper_bound"))
        monkeypatch.setattr(wynerrelay.sweep, "af_rate", lambda *args: -1e-3)
        with pytest.raises(SchemeError, match=r"^af: rate went negative: -0\.001$"):
            run_point(stock_config(), ("af",))

    def test_sim_delta_is_taken_from_the_solved_power(self, quick_simulator):
        # Near the echo pole the power law recomputed from the gain alone
        # reads 3.3e8 here; the gain solve returned the budget, 1e12.
        config = stock_config(mu=0.8, power_q=db_to_linear(120.0))
        point = run_point(config, ("af",), oracle_seed=[1, 0])
        solved = optimal_gain(config).output_power
        assert point["af_sim_delta"] == point["af_sim_power"] - solved

    def test_non_finite_value_is_refused(self, monkeypatch):
        monkeypatch.setattr(wynerrelay.sweep, "upper_bound", lambda *args: float("nan"))
        with pytest.raises(SchemeError, match="^upper_bound: column upper_bound"):
            run_point(stock_config(), ("upper_bound",))

    def test_bound_power_residual_on_rate_pool(self):
        # The waterfilled second hop spends its budget to within two units
        # in the last place of max(1, rho2) over the benchmark's rate pool.
        pool = json.loads(RATE_POOL.read_text())["pool"]
        for variants in pool:
            for point in variants:
                config = parse_config(point["config"])
                notes = run_point(config, ("upper_bound",), diagnostics=True)
                residual = notes["upper_bound_power_residual"]
                assert abs(residual) <= 2.0 * 2.0**-52 * max(1.0, config.rho2), point

    def test_bound_power_residual_without_a_solve(self):
        assert run_point(stock_config(power_q=0.0), ("upper_bound",),
                         diagnostics=True)["upper_bound_power_residual"] == 0.0
        silent_hop = run_point(stock_config(gamma=0.0, eta=0.0), ("upper_bound",),
                               diagnostics=True)
        assert silent_hop["upper_bound_power_residual"] == -100.0


class TestRunSweep:
    def test_row_order_follows_axis(self):
        table = run_sweep(small_spec())
        assert table.axis_values == (0.0, 0.25, 0.5)
        assert set(table.columns) == {"cf", "upper_bound"}
        assert all(len(column) == 3 for column in table.columns.values())

    def test_scheme_order_does_not_change_values(self):
        forward = run_sweep(small_spec(schemes=("cf", "upper_bound")))
        reverse = run_sweep(small_spec(schemes=("upper_bound", "cf")))
        assert forward == reverse
        assert tuple(forward.columns) == ("cf", "upper_bound")

    def test_half_sweeps_concatenate(self):
        full = run_sweep(small_spec(points=5))
        left = run_sweep(small_spec(stop=0.25, points=3))
        right = run_sweep(small_spec(start=0.25, points=3))
        for name in full.columns:
            stitched = left.columns[name] + right.columns[name][1:]
            assert stitched == full.columns[name]

    def test_failure_reports_axis_value(self):
        tiny = QuadratureConfig(max_points=8)
        spec = small_spec(axis="power_q", start=1.0, stop=2.0,
                          base=stock_config(eta=0.6))
        with pytest.raises(SchemeError, match="power_q = 1"):
            run_sweep(spec, tiny)

    def test_metadata_records_run(self):
        table = run_sweep(small_spec())
        assert table.metadata["axis"] == "mu"
        assert table.metadata["points"] == 3
        assert table.metadata["base_config"]["power_q"] == 100.0
        assert table.metadata["quadrature"]["rel_tol"] == 1e-10

    def test_oracle_columns(self):
        table = run_sweep(small_spec(points=2, stop=0.4), oracle_seed=5)
        assert "cf_oracle" in table.columns
        assert "upper_bound_oracle" in table.columns
        for point in range(2):
            assert table.columns["cf_oracle_delta"][point] == pytest.approx(0.0, abs=1e-6)
        assert table.metadata["oracle_seed"] == 5

    def test_oracle_seed_reaches_each_point(self, monkeypatch, quick_simulator):
        # Point i hands the simulator [oracle_seed, i], and the metadata
        # records the seed and the ring size.
        seeds = []
        simulate = wynerrelay.sweep.simulate_relay_power

        def recorded(*args, seed, **kwargs):
            seeds.append(seed)
            return simulate(*args, seed=seed, **kwargs)

        monkeypatch.setattr(wynerrelay.sweep, "simulate_relay_power", recorded)
        table = run_sweep(small_spec(points=2, schemes=("af",)), oracle_seed=5)
        assert seeds == [[5, 0], [5, 1]]
        assert table.metadata["oracle_seed"] == 5
        assert table.metadata["oracle_ring_cells"] == 4096

    def test_no_oracle_seed_runs_no_cross_check(self, monkeypatch):
        def refused(*args, **kwargs):
            raise AssertionError("cross-check ran without a seed")

        for checker in ("rate_mcp_finite", "simulate_relay_power",
                        "af_rate_finite", "waterfill_finite"):
            monkeypatch.setattr(wynerrelay.sweep, checker, refused)
        table = run_sweep(small_spec(points=2, schemes=SCHEME_ORDER))
        assert set(table.columns) == set(SCHEME_ORDER)
        assert "oracle_seed" not in table.metadata
        assert "oracle_ring_cells" not in table.metadata

    def test_oracle_reuses_each_solve(self, monkeypatch, quick_simulator):
        calls = collections.Counter()

        def counted(name, function):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return function(*args, **kwargs)
            return wrapper

        for name in ("cf_solve", "optimal_gain", "af_rate", "upper_bound"):
            monkeypatch.setattr(wynerrelay.sweep, name,
                                counted(name, getattr(wynerrelay.sweep, name)))
        # Count waterfill through every module name that can reach it.
        waterfill = counted("waterfill", wynerrelay.wyner.waterfill)
        monkeypatch.setattr(wynerrelay.wyner, "waterfill", waterfill)
        monkeypatch.setattr(wynerrelay.sweep, "waterfill", waterfill, raising=False)
        table = run_sweep(small_spec(points=2, schemes=SCHEME_ORDER), oracle_seed=1234)
        assert "af_sim_power" in table.columns
        # mu moves neither cf_solve's inputs nor the second hop, so each
        # runs once for the sweep; the cross-checks add no solve.
        assert calls == {"cf_solve": 1, "optimal_gain": 4, "af_rate": 4,
                         "upper_bound": 2, "waterfill": 1}


def hex_columns(columns: dict) -> dict:
    return {name: [float.hex(value) for value in column]
            for name, column in columns.items()}


AXIS_RANGES = {"mu": (0.0, 0.4), "power_p": (1.0, 100.0), "power_q": (1.0, 100.0),
               "rho1_db": (0.0, 20.0), "rho2_db": (0.0, 20.0)}
REUSE_SPECS = [pytest.param(lambda name=name: figure_spec(name), id=name)
               for name in ("fig3", "fig4", "fig5")]
REUSE_SPECS += [pytest.param(lambda axis=axis: small_spec(
                    axis=axis, start=AXIS_RANGES[axis][0], stop=AXIS_RANGES[axis][1],
                    schemes=SCHEME_ORDER), id=axis)
                for axis in wynerrelay.sweep.AXES]


@pytest.fixture
def solve_calls(monkeypatch):
    """Count calls through the module names the benchmark tracer wraps."""
    calls = collections.Counter()
    for module, name in ((wynerrelay.sweep, "cf_solve"), (wynerrelay.wyner, "waterfill")):
        def wrapper(*args, name=name, function=getattr(module, name)):
            calls[name] += 1
            return function(*args)
        monkeypatch.setattr(module, name, wrapper)
    return calls


class TestSweepReuse:
    @pytest.mark.parametrize("make_spec", REUSE_SPECS)
    def test_same_bits_as_point_by_point(self, make_spec):
        spec = make_spec()
        table = run_sweep(spec, diagnostics=True)
        points = [run_point(config, spec.schemes, diagnostics=True)
                  for config in spec.configs]
        alone = {name: [point[name] for point in points] for name in points[0]}
        assert hex_columns(table.columns) == hex_columns(alone)

    def test_relay_coupling_sweep_solves_once(self, solve_calls):
        run_sweep(figure_spec("fig3"))
        assert solve_calls == {"cf_solve": 1, "waterfill": 1}

    def test_uplink_power_sweep_fills_second_hop_once(self, solve_calls):
        run_sweep(figure_spec("fig4"))
        assert solve_calls == {"cf_solve": 21, "waterfill": 1}

    def test_relay_power_sweep_fills_every_point(self, solve_calls):
        run_sweep(small_spec(axis="rho2_db", start=0.0, stop=20.0))
        assert solve_calls == {"cf_solve": 3, "waterfill": 3}

    def test_point_queries_keep_nothing(self, solve_calls):
        for _ in range(2):
            run_point(stock_config(), ("cf", "upper_bound"))
        assert solve_calls == {"cf_solve": 2, "waterfill": 2}


# The model's four exact scalings, each as the power of k that multiplies a
# field. Every rate is unchanged in exact arithmetic, and with k a power of
# two every scaled field is exact too.
SCALINGS = {
    "P,N1,mu": {"power_p": 2, "noise1": 2, "mu": 1},
    "Q,N2,mu": {"power_q": 2, "noise2": 2, "mu": -1},
    "alpha,beta,P": {"alpha": 1, "beta": 1, "power_p": -2},
    "gamma,eta,mu,Q": {"gamma": 1, "eta": 1, "mu": 1, "power_q": -2},
}


@pytest.fixture(scope="module")
def unscaled_rates():
    """Every 16th config of the rate pool and the preset points, each with
    the hex of its rates."""
    pool = [parse_config(point["config"])
            for variants in json.loads(RATE_POOL.read_text())["pool"] for point in variants]
    presets = [config for name in ("fig3", "fig4", "fig5") for config in figure_spec(name).configs]
    return [(config, hex_rates(config)) for config in pool[::16] + presets]


def hex_rates(config) -> dict:
    return {name: float.hex(rate) for name, rate in run_point(config, SCHEME_ORDER).items()}


class TestExactScalings:
    @pytest.mark.parametrize("log2_k", [1, -1, 64, -64, 400, -400])
    @pytest.mark.parametrize("scaling", SCALINGS.values(), ids=SCALINGS)
    def test_every_rate_bit_kept(self, unscaled_rates, scaling, log2_k):
        for config, expected in unscaled_rates:
            scaled = dataclasses.replace(config, **{
                field: math.ldexp(getattr(config, field), power * log2_k)
                for field, power in scaling.items()})
            assert hex_rates(scaled) == expected, config


class TestEmit:
    def test_csv_shape(self):
        table = run_sweep(small_spec(points=2, schemes=("upper_bound",)))
        data = emit(table, "csv")
        lines = data.decode("ascii").splitlines()
        assert len(lines) == 3
        assert lines[0] == "axis,upper_bound"
        assert data.endswith(b"\n")
        assert b"\r" not in data

    def test_csv_values_carry_twelve_digits(self):
        table = run_sweep(small_spec(points=2))
        row = emit(table, "csv").decode("ascii").splitlines()[1].split(",")
        assert row[1] == f"{table.columns['cf'][0]:.12g}"

    def test_same_table_same_bytes(self):
        table = run_sweep(small_spec())
        assert emit(table, "csv") == emit(table, "csv")
        assert emit(table, "json") == emit(table, "json")

    def test_json_structure(self):
        table = run_sweep(small_spec(points=2))
        document = json.loads(emit(table, "json"))
        assert set(document) == {"metadata", "axis_values", "columns"}
        assert document["axis_values"] == list(table.axis_values)
        assert document["columns"]["cf"] == list(table.columns["cf"])

    def test_rejects_unknown_format(self):
        table = run_sweep(small_spec(points=2))
        with pytest.raises(ConfigError):
            emit(table, "yaml")


class TestFigureSpecs:
    def test_relay_coupling_preset(self):
        spec = figure_spec("fig3")
        assert spec.axis == "mu"
        assert spec.start == 0.0
        assert spec.stop == 0.8
        assert spec.points == 17
        assert spec.schemes == ("cf", "af", "upper_bound")
        assert spec.base.power_p == pytest.approx(10.0)
        assert spec.base.power_q == pytest.approx(100.0)

    def test_power_sweep_presets(self):
        fig4 = figure_spec("fig4")
        assert fig4.axis == "rho1_db"
        assert (fig4.start, fig4.stop, fig4.points) == (-10.0, 30.0, 21)
        assert fig4.base.mu == 0.8
        assert fig4.schemes == ("cf", "af", "af_mu0", "upper_bound")
        fig5 = figure_spec("fig5")
        assert fig5.base.alpha == 0.6
        assert fig5.base.eta == 0.2
        assert dataclasses.replace(fig5, base=fig4.base) == fig4

    def test_rejects_unknown_figure(self):
        with pytest.raises(ConfigError):
            figure_spec("fig6")


class TestGoldenFigure:
    def test_relay_coupling_table_matches_golden(self):
        data = emit(run_sweep(figure_spec("fig3")), "csv")
        assert data == FIG3_GOLDEN.read_bytes()
