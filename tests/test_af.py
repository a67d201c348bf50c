"""Amplify-and-forward: relay power curve, gain solve, rate, ring simulator."""

import dataclasses
import math

import numpy as np
import pytest

import wynerrelay.af
import wynerrelay.numerics
from wynerrelay import (
    QuadratureConfig,
    af_rate,
    figure_spec,
    optimal_gain,
    parse_config,
    relay_output_power,
    simulate_relay_power,
)
from wynerrelay.af import AfGainSolution, _gain_root, af_rate_finite
from wynerrelay.numerics import uniform_grid

# Dense grid scan of relay_output_power (10^6 points over the stable gain
# interval) at the reference relay setup, frozen from a scratch run.
ORACLE_GRID_GAIN = 1.228126552848946


def reference_root(cfg):
    """(g, s) by a 50-digit bisection of the power law in g."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(50):
        direct = mp.mpf(cfg.power_p) * mp.mpf(cfg.beta) ** 2 + cfg.noise1
        adjacent = 4 * mp.mpf(cfg.power_p) * mp.mpf(cfg.alpha) ** 2
        mu = mp.mpf(cfg.mu)

        def settle(g):
            return mp.sqrt(1 - (2 * mu * g) ** 2)

        def power(g):
            s = settle(g)
            return g ** 2 * (direct / s + adjacent / (s + s * s))

        lo = mp.mpf(0)
        hi = 1 / (2 * mu) if mu else 2 * mp.sqrt(cfg.power_q / direct)
        for _ in range(200):
            mid = (lo + hi) / 2
            lo, hi = (mid, hi) if power(mid) < cfg.power_q else (lo, mid)
        return float(lo), float(settle(lo))


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


class TestRelayOutputPower:
    def test_no_feedback_closed_form(self):
        cfg = config(mu=0.0)
        for g in (0.5, 1.0, 3.0):
            expected = g * g * (10.0 * 1.0 + 2.0 * 10.0 * 0.04 + 1.0)
            assert relay_output_power(g, cfg) == pytest.approx(expected, rel=1e-15)

    def test_isolated_cells_value(self):
        cfg = config(alpha=0.0, mu=0.0)
        assert relay_output_power(2.0, cfg) == 44.0

    def test_zero_gain_is_silent(self):
        assert relay_output_power(0.0, config()) == 0.0

    def test_strictly_increasing(self):
        cfg = config(mu=0.4)
        gains = np.linspace(0.05, 1.2, 24)
        powers = [relay_output_power(g, cfg) for g in gains]
        assert all(lo < hi for lo, hi in zip(powers, powers[1:]))

    def test_diverges_near_domain_edge(self):
        cfg = config(mu=0.4)
        assert relay_output_power(1.25 * (1.0 - 1e-12), cfg) > 1e7

    def test_rejects_domain_violations(self):
        cfg = config(mu=0.4)
        with pytest.raises(ValueError):
            relay_output_power(-0.1, cfg)
        with pytest.raises(ValueError):
            relay_output_power(1.25, cfg)
        with pytest.raises(ValueError):
            relay_output_power(math.inf, cfg)


class TestOptimalGain:
    def test_no_feedback_closed_form(self):
        solution = optimal_gain(config(alpha=0.0, mu=0.0))
        assert solution.gain == pytest.approx(math.sqrt(100.0 / 11.0), rel=1e-12)
        assert solution.output_power == pytest.approx(100.0, rel=1e-12)

    def test_matches_grid_scan_oracle(self):
        assert optimal_gain(config()).gain == pytest.approx(ORACLE_GRID_GAIN, rel=1e-5)

    def test_consistency_residual(self):
        # Away from the domain-edge pole the solver meets the power target
        # to near machine precision.
        for mu in (0.2, 0.4, 0.8):
            for power_q in (10.0, 100.0, 1000.0):
                solution = optimal_gain(config(mu=mu, power_q=power_q))
                assert abs(solution.residual) <= 1e-9 * power_q
                assert solution.output_power == pytest.approx(power_q, rel=1e-9)

    def test_large_budget_approaches_pole(self):
        solution = optimal_gain(config(power_q=1e6))
        assert abs(solution.gain - 1.25) / 1.25 <= 0.01
        assert solution.gain < 1.25

    def test_matches_high_precision_root(self):
        # Up to Q = 120 dB, where 1 - 2*mu*g falls to 1e-23 and s cannot
        # be recovered from g in double precision.
        for mu in (0.0, 0.2, 0.8, 0.9):
            for q_db in (-10.0, 20.0, 60.0, 80.0, 120.0):
                cfg = config(mu=mu, power_q=10.0 ** (q_db / 10.0))
                gain, settle_root = _gain_root(cfg)
                expected_gain, expected_settle = reference_root(cfg)
                assert gain == pytest.approx(expected_gain, rel=1e-14)
                assert settle_root == pytest.approx(expected_settle, rel=1e-14)
                solution = optimal_gain(cfg)
                assert solution.gain == gain
                assert abs(solution.residual) <= 1e-12 * max(cfg.power_q, 1.0)

    def test_huge_budget_stays_stable(self):
        solution = optimal_gain(config(mu=0.8, power_q=1e300))
        assert math.isfinite(solution.gain)
        assert 2.0 * 0.8 * solution.gain < 1.0
        assert abs(solution.residual) <= 1e-12 * 1e300

    def test_huge_uplink_power_keeps_its_root(self):
        # 4*P overflows at P = 1e308 while the coefficient 4*P*alpha^2 does not.
        cfg = config(power_p=1e308)
        expected_gain, _ = reference_root(cfg)
        solution = optimal_gain(cfg)
        assert solution.gain == pytest.approx(expected_gain, rel=1e-14)
        assert abs(solution.residual) <= 1e-12 * cfg.power_q

    def test_overflowing_power_law_is_refused(self):
        # P*alpha^2 itself overflows here, so the power law has no finite
        # root; silent relays still solve to an all-zero gain.
        with pytest.raises(ValueError, match="^relay gain is not finite: gain 0.0, "
                                             "output power nan, residual nan$"):
            optimal_gain(config(power_p=1e308, alpha=10.0))
        assert optimal_gain(config(power_q=0.0)) == AfGainSolution(0.0, 0.0, 0.0)


class TestAfRate:
    def test_scalar_closed_form(self):
        cfg = config(alpha=0.0, eta=0.0, mu=0.0)
        g2 = 100.0 / 11.0
        expected = math.log2(1.0 + 10.0 * g2 / (g2 + 1.0))
        gain = math.sqrt(g2)
        assert af_rate(cfg, gain) == pytest.approx(expected, rel=1e-13)

    def test_no_signal(self):
        cfg = config(power_p=0.0)
        assert af_rate(cfg, 1.0) == 0.0

    def test_matches_finite_ring(self):
        cfg = config()
        gain = optimal_gain(cfg).gain
        assert af_rate(cfg, gain) == pytest.approx(af_rate_finite(cfg, gain, 4096), abs=1e-9)

    def test_matches_space_time_average(self):
        # af_rate integrates the relay echo's time dimension in closed form.
        # Here the per-mode SINR is taken straight from the relay recursion
        # instead: at spatial mode theta and frequency omega the echo loop
        # filters the forwarded noise by 1 / (1 - 2 mu g cos(theta) e^{-j omega}),
        # and log2(1 + SINR) is averaged over a space x time grid. The point
        # is the strongest-echo end of the fig3 sweep at its solved gain.
        spec = figure_spec("fig3")
        cfg = dataclasses.replace(spec.base, mu=spec.stop)
        gain = optimal_gain(cfg).gain
        theta = 2.0 * np.pi * uniform_grid(256)[:, np.newaxis]
        omega = 2.0 * np.pi * uniform_grid(2048)[np.newaxis, :]
        c = np.cos(theta)
        first = cfg.beta + 2.0 * cfg.alpha * c
        second = cfg.gamma + 2.0 * cfg.eta * c
        echo = np.abs(1.0 - 2.0 * cfg.mu * gain * c * np.exp(-1j * omega)) ** 2
        sinr = (cfg.power_p * gain ** 2 * first ** 2 * second ** 2
                / (gain ** 2 * cfg.noise1 * second ** 2 + cfg.noise2 * echo))
        direct = float(np.mean(np.log2(1.0 + sinr)))
        assert abs(af_rate(cfg, gain) - direct) <= 1e-12

    def test_nondecreasing_in_relay_budget(self):
        rates = []
        for power_q in (10.0, 100.0, 1000.0):
            cfg = config(power_q=power_q)
            rates.append(af_rate(cfg, optimal_gain(cfg).gain))
        assert rates[0] <= rates[1] <= rates[2]
        assert rates[0] < rates[2]

    def test_strictly_decreasing_in_feedback(self):
        rates = []
        for mu in (0.0, 0.4, 0.8):
            cfg = config(mu=mu)
            rates.append(af_rate(cfg, optimal_gain(cfg).gain))
        assert rates[0] > rates[1] > rates[2]

    def test_noise_radicand_stays_real(self):
        # The noise-side square-root arguments m and p of the closed-ratio
        # form are b_term - c_term and b_term + c_term, so b_term >= |c_term|
        # is exactly m >= 0 and p >= 0: both roots stay real across the band.
        cfg = config()
        g = optimal_gain(cfg).gain
        c = np.cos(2.0 * np.pi * uniform_grid(4096))
        h2 = cfg.gamma + 2.0 * cfg.eta * c
        b_term = cfg.noise1 * g * g * h2 * h2 + cfg.noise2 * (1.0 + 4.0 * g * g * cfg.mu * cfg.mu * c * c)
        c_term = 4.0 * cfg.noise2 * g * cfg.mu * c
        assert np.all(b_term >= np.abs(c_term))

    def test_rejects_unstable_gain(self):
        with pytest.raises(ValueError):
            af_rate(config(), 1.3)

    # float.hex of af_rate at the solved gain, as computed by sampling
    # every grid afresh: the strongest-echo end of fig3, fig5 at 20 dB and
    # the echo-free start of fig3.
    RECORDED = (
        ("fig3", 16, "0x1.d83308e83b556p+0"),
        ("fig5", 15, "0x1.f04ce92778864p+1"),
        ("fig3", 0, "0x1.99d881a9e0766p+1"),
    )

    def test_bit_identical_to_recorded(self):
        for name, index, expected in self.RECORDED:
            cfg = figure_spec(name).configs[index]
            assert af_rate(cfg, optimal_gain(cfg).gain).hex() == expected, (name, index)

    def test_each_sample_computed_once(self, monkeypatch):
        abscissae, grids = [], []
        samples = wynerrelay.af._af_samples
        report = wynerrelay.numerics.integrate_periodic_report

        def counting_samples(config, gain, f):
            abscissae.append(np.array(f, dtype=np.float64, ndmin=1))
            return samples(config, gain, f)

        def reporting(values, quadrature):
            value, points = report(values, quadrature)
            grids.append(points)
            return value, points

        monkeypatch.setattr(wynerrelay.af, "_af_samples", counting_samples)
        monkeypatch.setattr(wynerrelay.numerics, "integrate_periodic_report", reporting)
        cfg = config()
        af_rate(cfg, optimal_gain(cfg).gain)
        (final_points,) = grids
        assert final_points > QuadratureConfig().initial_points
        np.testing.assert_array_equal(np.sort(np.concatenate(abscissae)),
                                      uniform_grid(final_points))


class TestRingSimulator:
    def test_deterministic_under_seed(self):
        cfg = config()
        gain = optimal_gain(cfg).gain
        first = simulate_relay_power(cfg, gain, symbols=1 << 14, seed=7)
        second = simulate_relay_power(cfg, gain, symbols=1 << 14, seed=7)
        assert first == second
        third = simulate_relay_power(cfg, gain, symbols=1 << 14, seed=8)
        assert third.mean_power != first.mean_power

    def test_symbol_accounting(self):
        cfg = config()
        mc = simulate_relay_power(cfg, 1.0, symbols=1000, seed=1234)
        assert mc.symbols >= 1000
        assert mc.symbols % 64 == 0

    def test_matches_power_formula(self):
        cfg = config()
        gain = optimal_gain(cfg).gain
        mc = simulate_relay_power(cfg, gain, symbols=1 << 18, seed=7)
        assert abs(mc.mean_power - 100.0) <= 4.0 * mc.std_error

    def test_silent_uplink(self):
        # With P=0 and no relay chatter the relay only ever amplifies its
        # own receiver noise.
        cfg = config(power_p=0.0, mu=0.0)
        mc = simulate_relay_power(cfg, 2.0, symbols=1 << 16, seed=3)
        assert abs(mc.mean_power - 4.0) <= 4.0 * mc.std_error
