"""Configuration parsing and validation."""

import json
import math

import pytest

from wynerrelay import (
    ConfigError,
    LagGains,
    QuadratureConfig,
    SweepSpec,
    SystemConfig,
    af_rate,
    parse_config,
    rate_mcp,
    rate_mcp_finite,
    simulate_relay_power,
    waterfill,
)
from wynerrelay.model import config_to_mapping, db_to_linear, load_mapping
from wynerrelay.numerics import uniform_grid

from stock import stock_mapping


class TestDecibels:
    def test_known_values(self):
        assert db_to_linear(0.0) == 1.0
        assert db_to_linear(10.0) == pytest.approx(10.0, rel=1e-15)
        assert db_to_linear(20.0) == pytest.approx(100.0, rel=1e-15)

    def test_round_trip(self):
        for db in (-30.0, -3.0, 0.0, 7.5, 10.0, 33.0, 60.0):
            assert 10.0 * math.log10(db_to_linear(db)) == pytest.approx(db, abs=1e-12)
        for lin in (1e-3, 0.5, 1.0, 42.0, 1e6):
            assert db_to_linear(10.0 * math.log10(lin)) == pytest.approx(lin, rel=1e-12)

    def test_overflow_names_the_key(self):
        with pytest.raises(ConfigError, match="^4000.0 dB overflows"):
            db_to_linear(4000.0)
        mapping = stock_mapping(Q_dB=4000.0)
        del mapping["power_q"]
        with pytest.raises(ConfigError, match="^Q_dB: 4000.0 dB overflows"):
            parse_config(mapping)


class TestLagGains:
    def test_fields(self):
        lag = LagGains(local=1.0, cross=0.2)
        assert lag.local == 1.0
        assert lag.cross == 0.2

    def test_coerces_to_float(self):
        lag = LagGains(local=1, cross=0)
        assert isinstance(lag.local, float)
        assert isinstance(lag.cross, float)

    def test_rejects_negative(self):
        with pytest.raises(ConfigError):
            LagGains(local=-0.1, cross=0.2)
        with pytest.raises(ConfigError):
            LagGains(local=1.0, cross=-0.2)

    def test_rejects_non_finite(self):
        with pytest.raises(ConfigError):
            LagGains(local=math.inf, cross=0.2)
        with pytest.raises(ConfigError):
            LagGains(local=math.nan, cross=0.2)

    def test_frozen(self):
        lag = LagGains(local=1.0, cross=0.2)
        with pytest.raises(AttributeError):
            lag.local = 2.0


class TestSystemConfig:
    def test_derived_snrs(self):
        config = parse_config(stock_mapping(noise1=2.0, noise2=4.0))
        assert config.rho1 == pytest.approx(5.0, rel=1e-15)
        assert config.rho2 == pytest.approx(25.0, rel=1e-15)

    def test_lag_views(self):
        config = parse_config(stock_mapping())
        assert config.first_lag == LagGains(local=1.0, cross=0.2)
        assert config.second_lag == LagGains(local=1.0, cross=0.2)
        assert config.first_lag.local == config.beta
        assert config.second_lag.cross == config.eta

    def test_zero_powers_allowed(self):
        assert parse_config(stock_mapping(power_p=0.0)).rho1 == 0.0
        assert parse_config(stock_mapping(power_q=0.0)).rho2 == 0.0

    def test_rejects_negative_relay_power(self):
        with pytest.raises(ConfigError, match="power_q"):
            parse_config(stock_mapping(power_q=-1.0))

    def test_rejects_zero_noise(self):
        for key in ("noise1", "noise2"):
            with pytest.raises(ConfigError, match=key):
                parse_config(stock_mapping(**{key: 0.0}))


class TestParseConfig:
    def test_db_form(self):
        mapping = stock_mapping()
        del mapping["power_p"], mapping["power_q"]
        mapping["P_dB"] = 10.0
        mapping["Q_dB"] = 20.0
        config = parse_config(mapping)
        assert config.power_p == pytest.approx(10.0, rel=1e-15)
        assert config.power_q == pytest.approx(100.0, rel=1e-15)

    def test_zero_db_is_unit_power(self):
        mapping = stock_mapping()
        del mapping["power_p"]
        mapping["P_dB"] = 0.0
        assert parse_config(mapping).power_p == 1.0

    def test_negative_power_names_offending_key(self):
        with pytest.raises(ConfigError, match="power_p"):
            parse_config(stock_mapping(power_p=-1.0))

    def test_both_forms_rejected(self):
        mapping = stock_mapping()
        mapping["P_dB"] = 10.0
        with pytest.raises(ConfigError, match="power_p"):
            parse_config(mapping)

    def test_missing_key_named(self):
        mapping = stock_mapping()
        del mapping["mu"]
        with pytest.raises(ConfigError, match="mu"):
            parse_config(mapping)
        # A power given in neither form names both of its keys.
        mapping = stock_mapping()
        del mapping["power_q"]
        with pytest.raises(ConfigError,
                           match=r"^missing config key 'power_q' \(or 'Q_dB'\)$"):
            parse_config(mapping)

    def test_unknown_key_named(self):
        with pytest.raises(ConfigError, match="wavelength"):
            parse_config(stock_mapping(wavelength=3.0))

    def test_rejects_non_numeric(self):
        with pytest.raises(ConfigError, match="mu"):
            parse_config(stock_mapping(mu="0.4"))
        with pytest.raises(ConfigError, match="mu"):
            parse_config(stock_mapping(mu=True))

    def test_rejects_non_finite(self):
        with pytest.raises(ConfigError, match="alpha"):
            parse_config(stock_mapping(alpha=math.inf))

    @pytest.mark.parametrize("key, value, message", [
        ("alpha", math.nan, "alpha must be finite, got nan"),
        ("noise1", 0.0, "noise1 must be positive, got 0.0"),
        ("mu", -0.5, "mu must be nonnegative, got -0.5"),
        ("power_q", "20", "power_q must be a real number, got '20'"),
    ])
    def test_single_bad_field_named(self, key, value, message):
        # The field checks run once, in SystemConfig, with these messages.
        with pytest.raises(ConfigError) as excinfo:
            parse_config(stock_mapping(**{key: value}))
        assert str(excinfo.value) == message

    def test_round_trip_identity(self):
        config = parse_config(stock_mapping(alpha=0.35, mu=0.7, power_p=3.5))
        assert parse_config(config_to_mapping(config)) == config


class TestQuadratureConfig:
    def test_defaults(self):
        quad = QuadratureConfig()
        assert quad.initial_points == 64
        assert quad.max_points == 2**22
        assert quad.rel_tol == 1e-10

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ConfigError):
            QuadratureConfig(max_points=3_000_000)

    def test_rejects_too_small(self):
        with pytest.raises(ConfigError):
            QuadratureConfig(max_points=4)

    def test_initial_points_derived_from_max_points(self):
        # The first grid is min(64, max_points // 2), derived rather than
        # set, so that every ceiling compares at least two grids.
        assert QuadratureConfig(max_points=8).initial_points == 4
        assert QuadratureConfig(max_points=128).initial_points == 64
        with pytest.raises(TypeError):
            QuadratureConfig(initial_points=64)

    def test_rejects_bad_tolerance(self):
        for tol in (0.0, 1.0, -1e-9, math.nan):
            with pytest.raises(ConfigError):
                QuadratureConfig(rel_tol=tol)


class TestLoadConfig:
    def test_load_json_file(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(stock_mapping()))
        assert parse_config(load_mapping(path)) == parse_config(stock_mapping())

    def test_load_mapping_preserves_keys(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"P_dB": 10.0}))
        assert load_mapping(path) == {"P_dB": 10.0}

    def test_rejects_malformed_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError):
            load_mapping(path)

    def test_rejects_non_object(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2, 3]")
        with pytest.raises(ConfigError):
            load_mapping(path)


# Every number a caller hands the library is checked by the same two
# validators, whichever public entry point it reaches first.
LAG = LagGains(local=1.0, cross=0.2)
ENTRY_POINTS = {
    "rate_mcp": lambda value: rate_mcp(LAG, value),
    "waterfill": lambda value: waterfill(LAG, value).rate,
    "af_rate": lambda value: af_rate(parse_config(stock_mapping()), value),
    "rate_mcp_finite": lambda value: rate_mcp_finite(LAG, 10.0, value),
    "SweepSpec": lambda value: SweepSpec(axis="mu", start=0.0, stop=0.5, points=value,
                                         base=parse_config(stock_mapping())),
    "uniform_grid": uniform_grid,
    "simulate_relay_power": lambda value: simulate_relay_power(
        parse_config(stock_mapping()), 1.0, symbols=value, seed=1234),
}

REFUSALS = [
    ("rate_mcp", True, "SNR must be a real number, got True"),
    ("rate_mcp", "10", "SNR must be a real number, got '10'"),
    ("rate_mcp", math.inf, "SNR must be finite, got inf"),
    ("rate_mcp", math.nan, "SNR must be finite, got nan"),
    ("rate_mcp", -1.0, "SNR must be nonnegative, got -1.0"),
    ("rate_mcp", 0.0, None),
    ("waterfill", True, "SNR must be a real number, got True"),
    ("waterfill", "10", "SNR must be a real number, got '10'"),
    ("waterfill", math.inf, "SNR must be finite, got inf"),
    ("waterfill", math.nan, "SNR must be finite, got nan"),
    ("waterfill", -1.0, "SNR must be nonnegative, got -1.0"),
    ("waterfill", 0.0, None),
    ("af_rate", True, "relay gain must be a real number, got True"),
    ("af_rate", "0.5", "relay gain must be a real number, got '0.5'"),
    ("af_rate", math.inf, "relay gain must be finite, got inf"),
    ("af_rate", math.nan, "relay gain must be finite, got nan"),
    ("af_rate", -0.5, "relay gain must be nonnegative, got -0.5"),
    ("af_rate", 0.0, None),
    ("rate_mcp_finite", 2, "cell count must be at least 3, got 2"),
    ("rate_mcp_finite", 3.0, "cell count must be an integer, got 3.0"),
    ("rate_mcp_finite", True, "cell count must be an integer, got True"),
    ("SweepSpec", True, "points must be an integer, got True"),
    ("SweepSpec", "3", "points must be an integer, got '3'"),
    ("SweepSpec", math.inf, "points must be an integer, got inf"),
    ("SweepSpec", math.nan, "points must be an integer, got nan"),
    ("SweepSpec", -3, "points must be at least 2, got -3"),
    ("SweepSpec", 0, "points must be at least 2, got 0"),
    ("uniform_grid", 2.5, "grid size must be an integer, got 2.5"),
    ("uniform_grid", True, "grid size must be an integer, got True"),
    ("uniform_grid", 0, "grid size must be at least 1, got 0"),
    ("simulate_relay_power", True, "symbol count must be an integer, got True"),
    ("simulate_relay_power", 100.7, "symbol count must be an integer, got 100.7"),
    ("simulate_relay_power", 0, "symbol count must be at least 1, got 0"),
]


@pytest.mark.parametrize("entry, value, refusal", REFUSALS,
                         ids=[f"{entry}-{value!r}" for entry, value, _ in REFUSALS])
def test_entry_points_validate_inputs_alike(entry, value, refusal):
    if refusal is None:
        # A zero SNR or relay gain is a silent limit, and carries nothing.
        assert ENTRY_POINTS[entry](value) == 0.0
    else:
        with pytest.raises(ConfigError) as excinfo:
            ENTRY_POINTS[entry](value)
        assert str(excinfo.value) == refusal
