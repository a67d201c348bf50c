"""Compress-and-forward fixed point and its asymptotics."""

import dataclasses
import math
import random

import pytest

import wynerrelay.cf
import wynerrelay.wyner
from wynerrelay import (
    LagGains,
    cf_solve,
    figure_spec,
    parse_config,
    rate_mcp,
    upper_bound,
    waterfill,
)
from wynerrelay.cf import CfSolution

# Scalar no-interference collapse (alpha=eta=0, beta=gamma=1, SNRs 10 and
# 100), frozen from a 200-iteration scalar bisection on
# log2(1+rho1*(1-2^-r)) = log2(1+rho2) - r.
SCALAR_R_STAR = 3.334984247712808
SCALAR_RATE = 3.3232272350389858


def config(**overrides):
    mapping = {
        "alpha": 0.2,
        "beta": 1.0,
        "gamma": 1.0,
        "eta": 0.2,
        "mu": 0.4,
        "power_p": 10.0,
        "power_q": 100.0,
        "noise1": 1.0,
        "noise2": 1.0,
    }
    mapping.update(overrides)
    return parse_config(mapping)


def scalar_fixed_point(rho1, rho2, iterations=200):
    """Bisection on the no-interference fixed point, independent of the
    library's quadrature and solver stack."""
    carried = math.log2(1.0 + rho2)

    def gap(r):
        return math.log2(1.0 + rho1 * (1.0 - 2.0**-r)) - (carried - r)

    lo, hi = 0.0, carried
    for _ in range(iterations):
        mid = 0.5 * (lo + hi)
        if gap(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    r_star = 0.5 * (lo + hi)
    return r_star, math.log2(1.0 + rho1 * (1.0 - 2.0**-r_star))


def bisection(config):
    """The plain bisection whose stopping point cf_solve returns, as
    (rate, r_star, residual, second_lag_rate)."""
    tol = 1e-10
    carried = rate_mcp(config.second_lag, config.rho2)
    if carried <= tol:
        return 0.0, 0.0, 0.0 - carried, carried

    def balance(r):
        rate = rate_mcp(config.first_lag, config.rho1 * (1.0 - 2.0 ** (-r)))
        return rate, rate - (carried - r)

    lo, hi = 0.0, carried
    r_star = carried
    rate, residual = balance(r_star)
    while abs(residual) > tol and hi - lo >= tol * max(1.0, r_star):
        if residual < 0.0:
            lo = r_star
        else:
            hi = r_star
        r_star = 0.5 * (lo + hi)
        rate, residual = balance(r_star)
    return rate, r_star, residual, carried


def preset_configs():
    return [config for spec in map(figure_spec, ("fig3", "fig4", "fig5"))
            for config in spec.configs]


def log_uniform_configs(count, seed=20240611):
    """Gains log-uniform over 1e-3..1e3, one in ten zero; P and Q uniform
    over -60..200 dB."""
    rng = random.Random(seed)

    def gain():
        return 0.0 if rng.random() < 0.1 else 10.0 ** rng.uniform(-3.0, 3.0)

    return [config(alpha=gain(), beta=gain(), gamma=gain(), eta=gain(),
                   power_p=10.0 ** rng.uniform(-6.0, 20.0),
                   power_q=10.0 ** rng.uniform(-6.0, 20.0))
            for _ in range(count)]


def hex_fields(values):
    return tuple(float.hex(value) for value in values)


class TestScalarCollapse:
    def test_oracle_matches_frozen_values(self):
        r_star, rate = scalar_fixed_point(10.0, 100.0)
        assert r_star == pytest.approx(SCALAR_R_STAR, abs=1e-12)
        assert rate == pytest.approx(SCALAR_RATE, abs=1e-12)

    def test_solver_agrees_with_oracle(self):
        solution = cf_solve(config(alpha=0.0, eta=0.0))
        assert solution.r_star == pytest.approx(SCALAR_R_STAR, abs=1e-10)
        assert solution.rate == pytest.approx(SCALAR_RATE, abs=1e-10)


class TestCfSolve:
    def test_silent_relays(self):
        solution = cf_solve(config(power_q=0.0))
        assert solution == CfSolution(rate=0.0, r_star=0.0, residual=0.0, second_lag_rate=0.0)

    def test_dead_second_lag(self):
        solution = cf_solve(config(gamma=0.0, eta=0.0))
        assert solution.rate == 0.0
        assert solution.r_star == 0.0

    def test_fixed_point_identity(self):
        for overrides in ({}, {"power_p": 100.0}, {"eta": 0.4}, {"alpha": 0.6}):
            solution = cf_solve(config(**overrides))
            assert solution.rate + solution.r_star == pytest.approx(
                solution.second_lag_rate, abs=1e-9
            )
            assert abs(solution.residual) <= 1e-9

    def test_independent_of_relay_coupling(self):
        solutions = {
            mu: cf_solve(config(mu=mu)) for mu in (0.0, 0.4, 0.8)
        }
        baseline = solutions[0.0]
        for solution in solutions.values():
            assert dataclasses.astuple(solution) == dataclasses.astuple(baseline)

    def test_strictly_increasing_in_uplink_snr(self):
        rates = [cf_solve(config(power_p=p)).rate for p in (1.0, 10.0, 100.0)]
        assert rates[0] < rates[1] < rates[2]

    def test_strictly_increasing_in_relay_snr(self):
        rates = [cf_solve(config(power_q=q)).rate for q in (10.0, 100.0, 1000.0)]
        assert rates[0] < rates[1] < rates[2]

    def test_sandwiched_by_upper_bound(self):
        for overrides in ({}, {"power_q": 10.0}, {"eta": 0.4, "power_p": 50.0}):
            cfg = config(**overrides)
            rate = cf_solve(cfg).rate
            assert 0.0 <= rate <= upper_bound(cfg)

    def test_r_star_nonnegative(self):
        assert cf_solve(config(power_q=1.0)).r_star >= 0.0

    # Where the bisection stops, frozen from the solver. A change to its
    # stop rule moves the default r* by about 1e-10, far beyond rel 1e-14.
    @pytest.mark.parametrize("overrides, expected", [
        ({}, lambda carried: (
            pytest.approx(float.fromhex("0x1.9e2a6208e27f2p+1"), rel=1e-14),
            pytest.approx(float.fromhex("0x1.a6e0cea0107fcp+1"), rel=1e-14),
            pytest.approx(0.0, abs=1e-10))),
        # Second hop below the tolerance: r* = 0, where the balance is -carried.
        ({"power_q": 1e-12}, lambda carried: (0.0, 0.0, -carried)),
        # Silent mobiles: the balance vanishes at r* = carried.
        ({"power_p": 0.0}, lambda carried: (0.0, carried, 0.0)),
    ], ids=["default", "second_hop_below_tol", "silent_mobiles"])
    def test_stopping_point(self, overrides, expected):
        solution = cf_solve(config(**overrides))
        assert (solution.rate, solution.r_star, solution.residual) == \
            expected(solution.second_lag_rate)


class TestBisectionReplay:
    """cf_solve returns the bisection's stopping point bit for bit, at a
    fraction of its balance evaluations."""

    @pytest.mark.parametrize("configs", [
        preset_configs,
        lambda: log_uniform_configs(400),
        # Width stops far from the residual tolerance (r* well below 1).
        lambda: [config(beta=1e4), config(power_p=1e12), config(power_p=1e6)],
    ], ids=["presets", "log_uniform", "width_stops"])
    def test_bit_identical_to_bisection(self, configs):
        for cfg in configs():
            solution = dataclasses.astuple(cf_solve(cfg))
            assert hex_fields(solution) == hex_fields(bisection(cfg)), cfg

    def test_rate_mcp_calls_per_solve(self, monkeypatch):
        calls = 0

        def counted(*args):
            nonlocal calls
            calls += 1
            return rate_mcp(*args)

        monkeypatch.setattr(wynerrelay.cf, "rate_mcp", counted)
        configs = preset_configs()
        for cfg in configs:
            cf_solve(cfg)
        assert calls / len(configs) <= 12


class TestCfLimits:
    def test_approached_at_large_relay_snr(self):
        cfg = config(power_q=100.0 * 1e4)
        limit = rate_mcp(cfg.first_lag, cfg.rho1)
        assert cf_solve(cfg).rate == pytest.approx(limit, abs=1e-3)

    @staticmethod
    def bound_gap_error(gamma, eta, q_db):
        """Relative error of (upper_bound - cf)*rho2 against its large-Q limit.

        At large Q the bound is the uplink rate R1(rho1), and cf is
        R1(rho1*(1 - 2^-r*)) ~ R1 - rho1*R1'(rho1)*2^-r*, with r* -> C2 - R1.
        By Jensen's formula 2^C2 ~ rho2*kappa^2, where kappa, the geometric
        mean of |H2|, is (gamma + sqrt(gamma^2 - 4*eta^2))/2 if gamma >= 2*eta
        and eta otherwise. So the gap times rho2 tends to
        rho1*R1'(rho1)*2^R1(rho1)/kappa^2.
        """
        cfg = config(gamma=gamma, eta=eta, power_q=10.0 ** (q_db / 10.0))
        if gamma >= 2.0 * eta:
            kappa = (gamma + math.sqrt(gamma**2 - 4.0 * eta**2)) / 2.0
        else:
            kappa = eta
        uplink = rate_mcp(cfg.first_lag, cfg.rho1)
        limit = (cfg.rho1 * wynerrelay.wyner.rate_mcp_slope(cfg.first_lag, cfg.rho1)
                 * 2.0**uplink / kappa**2)
        solution = cf_solve(cfg)
        # cf's own error, |cf_residual|, is far below the gap being measured.
        assert cfg.rho2 * abs(solution.residual) <= 1e-4 * limit
        return (upper_bound(cfg) - solution.rate) * cfg.rho2 / limit - 1.0

    @pytest.mark.parametrize("gamma, eta", [(1.0, 0.2), (1.0, 0.0)])
    def test_gap_to_bound_falls_as_one_over_relay_snr(self, gamma, eta):
        errors = [self.bound_gap_error(gamma, eta, q_db) for q_db in (30.0, 40.0, 50.0, 60.0)]
        assert abs(errors[-1]) <= 1e-4
        assert all(abs(finer) * 5.0 <= abs(coarser)
                   for coarser, finer in zip(errors[:2], errors[1:3]))

    def test_gap_to_bound_with_nulls_converges_slower(self):
        # Nulls in the second hop slow the approach: simple nulls (eta 0.6)
        # are still 3e-3 off at 60 dB, and the double null (eta 0.5) 6e-2,
        # so only the simple nulls are held to a bound.
        assert abs(self.bound_gap_error(1.0, 0.6, 60.0)) <= 1e-2

    def test_strict_gap_under_waterfilling(self):
        # Even with unbounded uplink SNR the scheme stays below the
        # waterfilled second-lag rate, because the relays cannot cooperate.
        cfg = config(power_p=1e6)
        rate = cf_solve(cfg).rate
        assert rate < waterfill(LagGains(local=1.0, cross=0.2), 100.0).rate
