"""Command-line front end: parsing, exit codes, byte-exact output."""

import collections
import dataclasses
import json
import os
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import wynerrelay
import wynerrelay.sweep
from wynerrelay import (FIGURES, LagGains, QuadratureConfig, SystemConfig, cli, emit,
                        figure_spec, rate_mcp, run_sweep)
from wynerrelay.cli import main
from wynerrelay.model import DEFAULT_CONFIG_MAPPING, PACKAGE_VERSION

from stock import FIG3_GOLDEN, REFERENCE, stock_mapping

DATA = Path(__file__).parent / "data"
# Every pinned output of the command line, as (argv, recorded file): the one
# list that the suite and CI check, and the list to re-record when a change
# moves an output. The JSON rows hold every value at full precision, so they
# pin all scheme columns bit for bit.
RECORDED_OUTPUTS = [
    pytest.param(["figure", "fig3"], FIG3_GOLDEN, id="fig3"),
    pytest.param(["figure", "fig3", "--jobs", "8"], FIG3_GOLDEN, id="fig3-jobs8"),
    pytest.param(["figure", "fig3", "--format", "json"], DATA / "fig3.json", id="fig3-json"),
    pytest.param(["figure", "fig4", "--format", "json"], DATA / "fig4.json", id="fig4-json"),
    pytest.param(["figure", "fig5", "--format", "json"], DATA / "fig5.json", id="fig5-json"),
    pytest.param(["figure", "fig4"], REFERENCE / "fig4.csv", id="fig4"),
    pytest.param(["figure", "fig5"], REFERENCE / "fig5.csv", id="fig5"),
    pytest.param(["figure", "fig4", "--verbose"], DATA / "fig4_verbose.csv", id="fig4-verbose"),
    pytest.param(["rate", "--P-dB", "5", "--Q-dB", "25", "--format", "json", "--verbose"],
                 DATA / "rate_verbose.json", id="rate-verbose-json"),
]
FIG3_FLAGS = ["--mu", "0.4", "--P-dB", "10", "--Q-dB", "20"]
ALL_SCHEMES_REVERSED = "upper_bound,af_mu0,af,cf"
# Scheme values, then diagnostics, then cross-checks, each in scheme order.
VERBOSE_ORACLE_COLUMNS = [
    "cf", "af", "af_mu0", "upper_bound",
    "cf_r_star", "cf_residual", "af_gain", "af_power_residual", "af_mu0_gain",
    "upper_bound_power_residual",
    "cf_oracle", "cf_oracle_delta", "af_oracle", "af_oracle_delta",
    "af_sim_power", "af_sim_se", "af_sim_delta",
    "af_mu0_oracle", "af_mu0_oracle_delta",
    "upper_bound_oracle", "upper_bound_oracle_delta",
]


class TestRecordedOutputs:
    @pytest.mark.parametrize("argv, recorded", RECORDED_OUTPUTS)
    def test_matches_recorded_bytes(self, argv, recorded, tmp_path):
        target = tmp_path / "out"
        assert main([*argv, "--output", str(target)]) == 0
        assert target.read_bytes() == recorded.read_bytes()


class TestRateCommand:
    def test_csv_to_stdout(self, capfd):
        assert main(["rate", *FIG3_FLAGS]) == 0
        out = capfd.readouterr().out
        lines = out.splitlines()
        assert lines[0] == "quantity,value"
        names = [line.split(",")[0] for line in lines[1:]]
        assert names == ["cf", "af", "upper_bound"]

    def test_json_structure(self, capfd):
        assert main(["rate", "--format", "json", *FIG3_FLAGS]) == 0
        document = json.loads(capfd.readouterr().out)
        assert document["metadata"]["version"] == PACKAGE_VERSION
        assert set(document["rates"]) == {"cf", "af", "upper_bound"}
        assert document["rates"]["cf"] == pytest.approx(3.2356684249, abs=1e-9)

    def test_scheme_selection(self, capfd):
        assert main(["rate", "--schemes", "cf", *FIG3_FLAGS]) == 0
        lines = capfd.readouterr().out.splitlines()
        assert len(lines) == 2
        assert lines[1].startswith("cf,")

    def test_verbose_adds_diagnostics(self, capfd):
        assert main(["rate", "--verbose", "--schemes", "af", *FIG3_FLAGS]) == 0
        out = capfd.readouterr().out
        assert "af_gain," in out
        assert "af_power_residual," in out

    def test_unknown_scheme_is_usage_error(self, capfd):
        # Each unknown name shows by its repr, so an empty one shows too.
        for schemes, named in (("cf,bogus", "'bogus'"), ("cf,", "''")):
            assert main(["rate", "--schemes", schemes]) == 1
            assert capfd.readouterr().err == (
                f"wynerrelay: error: unknown scheme(s): {named}\n")

    def test_verbose_oracle_column_order(self, capfd, quick_simulator):
        assert main(["rate", "--verbose", "--oracle", "--schemes",
                     ALL_SCHEMES_REVERSED, *FIG3_FLAGS]) == 0
        lines = capfd.readouterr().out.splitlines()
        assert [line.split(",")[0] for line in lines] == [
            "quantity", *VERBOSE_ORACLE_COLUMNS]

    def test_oracle_json_metadata(self, capfd):
        assert main(["rate", "--oracle", "--format", "json", "--schemes", "cf",
                     *FIG3_FLAGS]) == 0
        metadata = json.loads(capfd.readouterr().out)["metadata"]
        assert metadata["oracle_seed"] == 1234
        assert metadata["oracle_ring_cells"] == 4096

    def test_json_metadata_records_the_first_grid(self, capfd):
        # The first grid is derived from --quad-max-points, and the metadata
        # still records it.
        assert main(["rate", "--format", "json"]) == 0
        metadata = json.loads(capfd.readouterr().out)["metadata"]
        assert metadata["quadrature"] == {
            "initial_points": 64, "max_points": 4194304, "rel_tol": 1e-10}
        assert main(["rate", "--format", "json", "--schemes", "cf",
                     "--quad-max-points", "16"]) == 0
        metadata = json.loads(capfd.readouterr().out)["metadata"]
        assert metadata["quadrature"]["initial_points"] == 8

    def test_degenerate_configs_return_their_limit(self, tmp_path, capfd):
        # Silent relays, and relays whose gain toward every base station is
        # zero or below the pole guard, carry nothing: every scheme and the
        # bound are 0.
        path = tmp_path / "silent.json"
        path.write_text(json.dumps(stock_mapping(power_q=0.0)))
        for flags in (["--config", str(path)], ["--gamma", "0", "--eta", "0"],
                      ["--gamma", "1e-200", "--eta", "0"]):
            assert main(["rate", "--format", "json", "--schemes",
                         ALL_SCHEMES_REVERSED, *flags]) == 0
            rates = json.loads(capfd.readouterr().out)["rates"]
            assert rates == {"cf": 0.0, "af": 0.0, "af_mu0": 0.0, "upper_bound": 0.0}

    def test_silent_relays_cap_an_overflowing_first_hop(self, tmp_path, capfd):
        # The first hop's rate overflows at beta = 1e200, but silent relays
        # carry nothing, so the bound is 0 without it.
        path = tmp_path / "silent.json"
        path.write_text(json.dumps(stock_mapping(beta=1e200, power_q=0.0)))
        assert main(["rate", "--config", str(path), "--schemes", "upper_bound",
                     "--verbose"]) == 0
        assert capfd.readouterr().out == (
            "quantity,value\nupper_bound,0\nupper_bound_power_residual,0\n")

    def test_cf_at_extreme_relay_snr(self, capfd):
        # The second hop is far stronger than the first, so CF reaches the
        # first hop's rate at P = 10 dB.
        assert main(["rate", "--eta", "3", "--Q-dB", "120", "--schemes", "cf",
                     "--format", "json"]) == 0
        cf = json.loads(capfd.readouterr().out)["rates"]["cf"]
        assert cf == pytest.approx(rate_mcp(LagGains(local=1.0, cross=0.2), 10.0), abs=1e-9)

    def test_af_at_extreme_relay_budget(self, capfd):
        # The forwarded signal passes 1e154 here, where a product of two
        # square-root arguments would overflow. With an unbounded budget AF
        # at mu = 0 reaches the first hop's rate, and AF at the stock mu its
        # large-budget limit.
        first_hop = rate_mcp(LagGains(local=1.0, cross=0.2), 10.0)
        rates = {}
        for q_db in ("300", "1600"):
            assert main(["rate", "--Q-dB", q_db, "--schemes", "af,af_mu0",
                         "--format", "json"]) == 0
            rates[q_db] = json.loads(capfd.readouterr().out)["rates"]
        assert rates["1600"]["af_mu0"] == pytest.approx(first_hop, abs=1e-12)
        assert rates["1600"]["af"] == pytest.approx(rates["300"]["af"], abs=1e-12)
        assert main(["rate", "--mu", "1e-200", "--Q-dB", "3000", "--schemes", "af",
                     "--format", "json"]) == 0
        af = json.loads(capfd.readouterr().out)["rates"]["af"]
        assert af == pytest.approx(first_hop, abs=1e-12)

    def test_af_where_the_forwarded_signal_overflows(self, capfd):
        # S = P*g^2*H1^2*H2^2 itself passes the largest double here.
        first_hop = rate_mcp(LagGains(local=1.0, cross=0.2), 10.0)
        for q_db in ("3080", "3082"):
            assert main(["rate", "--Q-dB", q_db, "--schemes", "af_mu0",
                         "--format", "json"]) == 0
            af_mu0 = json.loads(capfd.readouterr().out)["rates"]["af_mu0"]
            assert af_mu0 == pytest.approx(first_hop, abs=1e-12), q_db

    def test_af_at_overflowing_uplink_power(self, capfd):
        # 4*P overflows at P = 3080 dB but 4*(P*alpha^2) does not, so af keeps
        # its 3000 dB value. At alpha = 10, P*alpha^2 itself overflows: the
        # run fails naming af instead of printing a zero rate.
        assert main(["rate", "--P-dB", "3080", "--schemes", "af"]) == 0
        assert capfd.readouterr().out == "quantity,value\naf,6.32143126432\n"
        assert main(["rate", "--P-dB", "3080", "--alpha", "10", "--schemes", "af"]) == 2
        captured = capfd.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("wynerrelay: error: af: relay gain is not finite")

    def test_af_where_the_squared_gain_overflows(self, capfd):
        # The stock point at mu = 0 in units 1e300 times smaller for the
        # uplink: the gain is 1e150 times the stock one, and g^2 overflows
        # while the relay power does not. af keeps the stock point's value.
        assert main(["rate", "--P-dB", "0", "--Q-dB", "100", "--mu", "0",
                     "--schemes", "af"]) == 0
        stock = capfd.readouterr().out
        assert main(["rate", "--noise1", "1e-300", "--P-dB", "-3000", "--Q-dB", "100",
                     "--mu", "0", "--schemes", "af"]) == 0
        assert capfd.readouterr().out == stock == "quantity,value\naf,1.00172720851\n"

    def test_upper_bound_at_extreme_relay_snr(self, capfd):
        # The waterfilled second hop's level is near 1e307 here; the first
        # hop caps the bound.
        assert main(["rate", "--Q-dB", "3070", "--schemes", "upper_bound",
                     "--format", "json"]) == 0
        bound = json.loads(capfd.readouterr().out)["rates"]["upper_bound"]
        assert bound == pytest.approx(rate_mcp(LagGains(local=1.0, cross=0.2), 10.0),
                                      abs=1e-12)

    def test_af_gain_near_the_echo_pole(self, capfd):
        # 2*mu*g rounds to 1 here; AF then sits at its large-budget limit.
        rates = {}
        for q_db in ("60", "80", "120", "300"):
            assert main(["rate", "--mu", "0.8", "--Q-dB", q_db, "--schemes", "af",
                         "--format", "json"]) == 0
            rates[q_db] = json.loads(capfd.readouterr().out)["rates"]["af"]
        for q_db in ("80", "120", "300"):
            assert rates[q_db] == pytest.approx(rates["60"], abs=1e-9)

    def test_bound_power_residual_reports_a_missed_budget(self, capfd):
        # The floor 1/H^2 = 1e200 swallows rho2 = 1 in roundoff, so the
        # waterfill spends nothing, and says so.
        assert main(["rate", "--gamma", "1e-100", "--eta", "0", "--Q-dB", "0",
                     "--verbose"]) == 0
        lines = capfd.readouterr().out.splitlines()
        assert "upper_bound_power_residual,-1" in lines

    def test_af_power_residual_is_within_roundoff(self, capfd):
        assert main(["rate", "--mu", "0.8", "--Q-dB", "60", "--verbose",
                     "--format", "json"]) == 0
        residual = json.loads(capfd.readouterr().out)["rates"]["af_power_residual"]
        assert abs(residual) <= 1e-9 * 1e6

    @pytest.mark.parametrize("flags, estimate", [
        (["--P-dB", "150"], 6.53940399417), (["--P-dB", "300"], 6.53940399417),
        (["--beta", "1e4"], 6.53940386137)], ids=["P150", "P300", "beta1e4"])
    def test_cf_above_its_second_hop_is_numerical_failure(self, flags, estimate, capfd):
        # The solve stops on its bracket width far above a root r* near
        # 1e-28 (at 300 dB), where the data rate passes the second hop it
        # splits. The best estimate is what that hop leaves after r*.
        assert main(["rate", "--schemes", "cf", *flags]) == 2
        captured = capfd.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("wynerrelay: error: cf: rate ")
        assert "exceeds the second-hop rate" in captured.err
        best = float(captured.err.rsplit("best estimate ", 1)[1])
        assert best == pytest.approx(estimate, abs=1e-9)

    def test_rate_above_upper_bound_is_numerical_failure(self, monkeypatch, capfd):
        solve = wynerrelay.sweep.cf_solve
        monkeypatch.setattr(wynerrelay.sweep, "cf_solve",
                            lambda *args: dataclasses.replace(solve(*args), rate=1e3))
        assert main(["rate", "--schemes", "cf,upper_bound", *FIG3_FLAGS]) == 2
        assert "error: cf: rate 1000.0 exceeds" in capfd.readouterr().err


class TestSweepCommand:
    def test_small_sweep(self, capfd):
        code = main(["sweep", "--axis", "mu", "--start", "0", "--stop", "0.4",
                     "--points", "3", "--schemes", "cf,upper_bound"])
        assert code == 0
        lines = capfd.readouterr().out.splitlines()
        assert lines[0] == "axis,cf,upper_bound"
        assert len(lines) == 4

    def test_verbose_oracle_column_order(self, capfd, quick_simulator):
        code = main(["sweep", "--axis", "mu", "--start", "0", "--stop", "0.4",
                     "--points", "2", "--verbose", "--oracle",
                     "--schemes", ALL_SCHEMES_REVERSED])
        assert code == 0
        header = capfd.readouterr().out.splitlines()[0]
        assert header.split(",") == ["axis", *VERBOSE_ORACLE_COLUMNS]

    def test_missing_axis_is_usage_error(self, capfd):
        assert main(["sweep", "--start", "0", "--stop", "1", "--points", "3"]) == 1
        assert "usage" in capfd.readouterr().err.lower()

    def test_unknown_axis_is_usage_error(self, capfd):
        code = main(["sweep", "--axis", "bogus", "--start", "0", "--stop", "1",
                     "--points", "3"])
        assert code == 1

    def test_degenerate_grid_is_config_error(self, capfd):
        code = main(["sweep", "--axis", "mu", "--start", "0.5", "--stop", "0.1",
                     "--points", "3"])
        assert code == 1


class TestFigureCommand:
    def test_matches_golden_bytes(self, capfdbinary):
        # The table writes through --output; this is the stdout path.
        assert main(["figure", "fig3"]) == 0
        assert capfdbinary.readouterr().out == FIG3_GOLDEN.read_bytes()

    def test_unknown_figure(self, capfd):
        assert main(["figure", "fig9"]) == 1

    @pytest.mark.parametrize("name", FIGURES)
    def test_library_and_cli_agree(self, name, tmp_path):
        target = tmp_path / f"{name}.csv"
        assert main(["figure", name, "--output", str(target)]) == 0
        assert target.read_bytes() == emit(run_sweep(figure_spec(name)))

    # One base config and one per grid point; on fig4 and fig5 `af_mu0`
    # also builds its mu = 0 copy of each point's config.
    @pytest.mark.parametrize("name, builds", [("fig3", 18), ("fig4", 43), ("fig5", 43)])
    def test_builds_each_point_once(self, name, builds, monkeypatch, tmp_path):
        built = collections.Counter()
        validate = SystemConfig.__post_init__

        def counted(config):
            built[name] += 1
            validate(config)

        monkeypatch.setattr(SystemConfig, "__post_init__", counted)
        for flags in ([], ["--P-dB", "5"]):
            built.clear()
            assert main(["figure", name, *flags, "--output", str(tmp_path / "out.csv")]) == 0
            assert built[name] == builds, flags

    def test_scheme_override_keeps_full_columns(self, capfd):
        def columns(flags):
            assert main(["figure", "fig4", *flags]) == 0
            header, *rows = capfd.readouterr().out.splitlines()
            names = header.split(",")
            return names, {name: [row.split(",")[index] for row in rows]
                           for index, name in enumerate(names)}

        full_names, full = columns([])
        names, subset = columns(["--schemes", "af_mu0,cf"])
        assert full_names == ["axis", "cf", "af", "af_mu0", "upper_bound"]
        assert names == ["axis", "cf", "af_mu0"]
        for name in names:
            assert subset[name] == full[name]


class TestConfigHandling:
    def test_config_file(self, tmp_path, capfd):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(DEFAULT_CONFIG_MAPPING))
        assert main(["rate", "--config", str(path), "--schemes", "cf"]) == 0
        baseline = capfd.readouterr().out
        assert main(["rate", "--schemes", "cf", *FIG3_FLAGS]) == 0
        assert capfd.readouterr().out == baseline

    def test_flag_overrides_config_file(self, tmp_path, capfd):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(stock_mapping()))
        assert main(["rate", "--config", str(path), "--schemes", "cf"]) == 0
        baseline = capfd.readouterr().out
        assert main(["rate", "--config", str(path), "--schemes", "cf",
                     "--P-dB", "20"]) == 0
        assert capfd.readouterr().out != baseline

    def test_conflicting_power_forms(self, tmp_path, capfd):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(stock_mapping(P_dB=10.0)))
        assert main(["rate", "--config", str(path)]) == 1
        assert "power_p" in capfd.readouterr().err

    def test_missing_config_file(self, capfd):
        assert main(["rate", "--config", "/does/not/exist.json"]) == 1

    def test_figure_refuses_config_file(self, tmp_path, capfd):
        # A preset would otherwise run as if the file were not there.
        path = tmp_path / "config.json"
        path.write_text(json.dumps(DEFAULT_CONFIG_MAPPING))
        for config in (str(path), "/does/not/exist.json"):
            assert main(["figure", "fig3", "--config", config]) == 1
            captured = capfd.readouterr()
            assert captured.out == ""
            assert "--config" in captured.err

    @pytest.mark.parametrize("content", [
        bytes(random.Random(0).randrange(128, 256) for _ in range(200)),
        b'{"alpha": ' + b"9" * 5000 + b"}",
    ], ids=["not_utf8", "integer_of_5000_digits"])
    def test_unreadable_config_file_is_config_error(self, content, tmp_path, capfd):
        path = tmp_path / "config.json"
        path.write_bytes(content)
        assert main(["rate", "--schemes", "cf", "--config", str(path)]) == 1
        captured = capfd.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"wynerrelay: error: config file {path} "
                                       "is not valid JSON: ")

    def test_integer_beyond_the_largest_double(self, tmp_path, capfd):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(stock_mapping(alpha=10 ** 400)))
        assert main(["rate", "--schemes", "cf", "--config", str(path)]) == 1
        captured = capfd.readouterr()
        assert captured.out == ""
        assert captured.err == ("wynerrelay: error: alpha must be finite, got a value "
                                "beyond the largest double\n")

    def test_invalid_field_value(self, capfd):
        assert main(["rate", "--mu", "-0.4"]) == 1
        assert "mu" in capfd.readouterr().err

    @pytest.mark.parametrize("argv, named", [
        (["rate", "--P-dB", "4000"], "P_dB"),
        (["rate", "--Q-dB", "4000"], "Q_dB"),
        (["sweep", "--axis", "rho1_db", "--start", "0", "--stop", "4000", "--points", "2"],
         "rho1_db = 4000"),
        (["sweep", "--axis", "rho2_db", "--start", "0", "--stop", "4000", "--points", "2"],
         "rho2_db = 4000"),
    ])
    def test_decibels_beyond_the_largest_double(self, argv, named, capfd):
        assert main(argv) == 1
        captured = capfd.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("wynerrelay: error: ")
        assert named in captured.err

    def test_negative_values_in_exponent_notation(self, capfdbinary):
        # Each argv must write the bytes of its plain-decimal twin.
        sweep = ["sweep", "--axis", "rho1_db", "--points", "3", "--schemes", "cf"]
        for argv, plain in (
                (["rate", "--P-dB", "-1e1"], ["rate", "--P-dB", "-10"]),
                (["rate", "--Q-dB", "-1.5e+1"], ["rate", "--Q-dB", "-15"]),
                (["rate", "--P-dB", "-.5e1", "--Q-dB", "-1."],
                 ["rate", "--P-dB", "-5", "--Q-dB", "-1"]),
                ([*sweep, "--start", "-1e1", "--stop", "1e1"],
                 [*sweep, "--start", "-10", "--stop", "10"])):
            assert main(argv) == 0
            written = capfdbinary.readouterr().out
            assert main(plain) == 0
            assert written == capfdbinary.readouterr().out, argv
        # A word after a dB flag is still an option, not its value.
        assert main(["rate", "--P-dB", "-x"]) == 1
        assert b"argument --P-dB: expected one argument" in capfdbinary.readouterr().err

    @pytest.mark.parametrize("axis", ["power_p", "rho1_db"])
    def test_overflowing_span_is_named(self, axis, capfd):
        assert main(["sweep", "--axis", axis, "--start=-1.7e308", "--stop=1.7e308",
                     "--points", "3"]) == 1
        captured = capfd.readouterr()
        assert captured.out == ""
        assert captured.err == ("wynerrelay: error: sweep span [-1.7e+308, 1.7e+308] "
                                "is too wide: stop - start overflows\n")


class TestExitCodes:
    def test_numerical_failure_is_two(self, capfd):
        # The waterfilling integrand for eta = 0.6 cannot settle on an
        # 8-point cap, so the bound computation reports failure.
        code = main(["rate", "--eta", "0.6", "--schemes", "upper_bound",
                     "--quad-max-points", "8"])
        assert code == 2
        assert capfd.readouterr().err != ""

    def test_small_ceiling_still_compares_two_grids(self, capfd):
        # A 64-point ceiling starts at 32 points, so af settles on it and
        # prints the value that larger ceilings give.
        assert main(["rate", "--quad-max-points", "64", "--schemes", "af"]) == 0
        assert capfd.readouterr().out == "quantity,value\naf,2.59084917422\n"

    def test_bad_quadrature_is_usage_error(self, capfd):
        # The refusal names the ceiling the user set, not the first grid
        # derived from it.
        for points, message in (("48", "max_points must be a power of two, got 48"),
                                ("4", "max_points must be at least 8, got 4")):
            assert main(["rate", "--quad-max-points", points]) == 1
            assert capfd.readouterr().err == f"wynerrelay: error: {message}\n"

    def test_bad_jobs_and_seed(self, capfd):
        assert main(["figure", "fig3", "--jobs", "0"]) == 1
        assert main(["figure", "fig3", "--seed", "-1"]) == 1

    def test_unwritable_output(self, capfd):
        assert main(["rate", "--output", "/does/not/exist/out.csv"]) == 1

    def test_no_subcommand(self, capfd):
        assert main([]) == 1

    def test_version(self, capfd):
        assert main(["--version"]) == 0
        assert PACKAGE_VERSION in capfd.readouterr().out


# One process's calls, in an order that lets state left over from one call
# (a flag's value, an error, an early exit) show in the next.
REUSE_SEQUENCE = [
    ["rate", "--P-dB", "60", "--verbose", "--quad-tol", "1e-8", "--format", "json"],
    ["rate"],
    ["rate", "--P-d", "60"],
    ["--version"],
    ["figure", "fig3"],
    ["rate"],
]
HELP_SCREENS = {"main": [], "rate": ["rate"], "sweep": ["sweep"], "figure": ["figure"]}


class TestParserReuse:
    @staticmethod
    def run(argv, capfd):
        code = main(argv)
        captured = capfd.readouterr()
        return code, captured.out, captured.err

    def test_calls_share_one_parser_and_no_state(self, monkeypatch, capfd):
        monkeypatch.setattr(cli, "_build_parser", cli._build_parser.__wrapped__)
        fresh = [self.run(argv, capfd) for argv in REUSE_SEQUENCE]
        monkeypatch.undo()
        cli._build_parser.cache_clear()
        reused = [self.run(argv, capfd) for argv in REUSE_SEQUENCE]
        assert cli._build_parser.cache_info().misses == 1
        assert reused == fresh
        assert [code for code, _, _ in reused] == [0, 0, 1, 0, 0, 0]
        assert reused[4][1] == FIG3_GOLDEN.read_text()

    @pytest.mark.parametrize("screen", HELP_SCREENS)
    def test_help_matches_recorded_screen(self, screen, monkeypatch, capfd):
        # The screens were recorded at 80 columns; argparse reads the width
        # from COLUMNS each time it formats help.
        monkeypatch.setenv("COLUMNS", "80")
        recorded = (DATA / f"help_{screen}.txt").read_text()
        cli._build_parser.cache_clear()
        for _ in range(2):
            assert self.run([*HELP_SCREENS[screen], "--help"], capfd) == (0, recorded, "")

    def test_quadrature_flags_follow_the_library_defaults(self, monkeypatch, capfd):
        monkeypatch.setenv("COLUMNS", "80")
        monkeypatch.setattr(wynerrelay.model, "DEFAULT_QUADRATURE",
                            QuadratureConfig(max_points=2 ** 10, rel_tol=1e-7))
        parser = cli._build_parser.__wrapped__()
        args = parser.parse_args(["rate"])
        assert (args.quad_tol, args.quad_max_points) == (1e-7, 2 ** 10)
        with pytest.raises(SystemExit):
            parser.parse_args(["rate", "--help"])
        screen = capfd.readouterr().out
        assert "tolerance (default 1e-07)" in screen
        assert "power of two (default 2^10)" in screen


def child_environment():
    """Environment in which a child Python imports this same package.

    The suite's own import path (pytest's `pythonpath` setting, say) does
    not reach subprocesses, so the directory the package was imported from
    goes first on the child's PYTHONPATH.
    """
    env = dict(os.environ)
    source = str(Path(wynerrelay.__file__).parents[1])
    inherited = env.get("PYTHONPATH")
    env["PYTHONPATH"] = os.pathsep.join([source, inherited] if inherited else [source])
    return env


@pytest.fixture
def console_script_environment(request, tmp_path):
    """Environment in which `wynerrelay` on PATH is the console script.

    Where the package is installed, that is the installer's own script and
    the environment is left as it is. Elsewhere the script is written here
    from the `wynerrelay` entry of `[project.scripts]` in pyproject.toml,
    the way installers write it: a shebang for this interpreter, an import
    of the named `module:function`, and an exit with what it returns.
    """
    if shutil.which("wynerrelay") is not None:
        return None
    tomllib = pytest.importorskip("tomllib")
    with open(request.path.parents[1] / "pyproject.toml", "rb") as handle:
        target = tomllib.load(handle)["project"]["scripts"]["wynerrelay"]
    module, function = target.split(":")
    script = tmp_path / "wynerrelay"
    script.write_text(
        f"#!{sys.executable}\n"
        "import re\n"
        "import sys\n"
        f"from {module} import {function}\n"
        "if __name__ == '__main__':\n"
        "    sys.argv[0] = re.sub(r'(-script\\.pyw|\\.exe)?$', '', sys.argv[0])\n"
        f"    sys.exit({function}())\n")
    script.chmod(0o755)
    env = child_environment()
    env["PATH"] = os.pathsep.join([str(tmp_path), env.get("PATH", os.defpath)])
    return env


class TestInstalledEntryPoints:
    def test_console_script(self, console_script_environment):
        result = subprocess.run(["wynerrelay", "--version"],
                                capture_output=True, text=True,
                                env=console_script_environment)
        assert result.returncode == 0
        assert PACKAGE_VERSION in result.stdout

    def test_module_invocation(self):
        result = subprocess.run(
            [sys.executable, "-m", "wynerrelay", "rate", "--schemes", "cf"],
            capture_output=True, text=True, env=child_environment())
        assert result.returncode == 0
        assert result.stdout.startswith("quantity,value")


# Run in a fresh interpreter: print the names in sys.modules and the exit
# code, as JSON on the last line.
MODULE_PROBE = """
import sys
{statement}
loaded = sorted(sys.modules)
import json
print(json.dumps([loaded, code]))
"""
MAIN = "from wynerrelay.cli import main\ncode = main({argv!r})"
# `python -m wynerrelay ARGV`, as the interpreter runs it.
MODULE_MAIN = """import runpy
sys.argv = ["wynerrelay", *{argv!r}]
try:
    runpy.run_module("wynerrelay", run_name="__main__", alter_sys=True)
except SystemExit as exit_request:
    code = exit_request.code or 0"""
RATE_MODULES = {f"wynerrelay.{name}"
                for name in ("model", "numerics", "wyner", "af", "cf", "sweep")}


def probe_modules(statement):
    """(modules loaded, exit code) after `statement` runs in a fresh interpreter."""
    result = subprocess.run([sys.executable, "-c", MODULE_PROBE.format(statement=statement)],
                            capture_output=True, text=True, env=child_environment())
    assert result.returncode == 0, result.stderr
    loaded, code = json.loads(result.stdout.splitlines()[-1])
    return set(loaded), code


def probe_numpy(statement):
    """(numpy loaded, exit code) after `statement` runs in a fresh interpreter."""
    loaded, code = probe_modules(statement)
    return "numpy" in loaded, code


class TestStartup:
    """numpy loads only where an array is sampled, and the rate modules only
    where a command evaluates a rate."""

    def test_package_import_skips_numpy(self):
        statement = ("import wynerrelay\n"
                     "for name in wynerrelay.__all__:\n"
                     "    getattr(wynerrelay, name)\n"
                     "code = 0")
        assert probe_numpy(statement) == (False, 0)

    @pytest.mark.parametrize("argv, code", [
        (["--version"], 0),
        (["--help"], 0),
        (["rate", "--alpha", "nan"], 1),
        (["rate", "--schemes", "cf", "--output", "{out}"], 0),
        (["figure", "fig3", "--schemes", "cf", "--output", "{out}"], 0),
    ], ids=["version", "help", "config_error", "rate_cf", "figure_cf"])
    def test_scalar_commands_skip_numpy(self, argv, code, tmp_path):
        argv = [arg.format(out=tmp_path / "out.csv") for arg in argv]
        assert probe_numpy(MAIN.format(argv=argv)) == (False, code)

    @pytest.mark.parametrize("argv", [
        ["rate", "--output", "{out}"],
        ["rate", "--schemes", "cf", "--oracle", "--output", "{out}"],
    ], ids=["rate_default", "rate_cf_oracle"])
    def test_sampling_commands_load_numpy(self, argv, tmp_path):
        argv = [arg.format(out=tmp_path / "out.csv") for arg in argv]
        assert probe_numpy(MAIN.format(argv=argv)) == (True, 0)

    @pytest.mark.parametrize("statement", [
        MODULE_MAIN.format(argv=["--version"]),
        MODULE_MAIN.format(argv=["--help"]),
        "import wynerrelay\ncode = 0",
        "from wynerrelay import cli\ncode = cli.main(['--version'])",
    ], ids=["version", "help", "import", "import_cli"])
    def test_start_loads_no_rate_module(self, statement):
        loaded, code = probe_modules(statement)
        assert code == 0
        assert not loaded & RATE_MODULES

    def test_rate_loads_every_rate_module(self, tmp_path):
        argv = ["rate", "--schemes", "cf", "--output", str(tmp_path / "out.csv")]
        loaded, code = probe_modules(MODULE_MAIN.format(argv=argv))
        assert code == 0
        assert loaded >= RATE_MODULES
        assert (tmp_path / "out.csv").read_text().startswith("quantity,value")

    def test_submodule_loads_on_first_access(self):
        statement = ("import wynerrelay\n"
                     "code = int(wynerrelay.wyner.channel_response.__module__ != 'wynerrelay.wyner')")
        loaded, code = probe_modules(statement)
        assert code == 0
        assert loaded & RATE_MODULES == {"wynerrelay.wyner", "wynerrelay.numerics",
                                         "wynerrelay.model"}


class TestPackageExports:
    """The top level resolves its exports and submodules on first access."""

    def test_star_import_binds_exactly_all(self):
        namespace = {}
        exec("from wynerrelay import *", namespace)
        del namespace["__builtins__"]
        assert sorted(namespace) == sorted(wynerrelay.__all__)
        assert len(wynerrelay.__all__) == 23

    def test_dir_lists_the_exports(self):
        listed = dir(wynerrelay)
        assert set(wynerrelay.__all__) <= set(listed)
        assert {"__version__", "cli", "sweep", "wyner"} <= set(listed)

    def test_export_is_its_owners_object(self):
        assert wynerrelay.run_point is wynerrelay.sweep.run_point
        assert wynerrelay.ConfigError is wynerrelay.model.ConfigError

    def test_unknown_name_names_the_module(self):
        with pytest.raises(AttributeError, match="module 'wynerrelay' has no "
                                                 "attribute 'no_such_name'"):
            wynerrelay.no_such_name
        with pytest.raises(ImportError):
            exec("from wynerrelay import no_such_name", {})

    def test_version_has_one_source(self, request):
        assert PACKAGE_VERSION is wynerrelay.__version__
        tomllib = pytest.importorskip("tomllib")
        with open(request.path.parents[1] / "pyproject.toml", "rb") as handle:
            assert tomllib.load(handle)["project"]["version"] == wynerrelay.__version__
