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
    relay_output_power,
    simulate_relay_power,
)
from wynerrelay.af import AfGainSolution, _af_samples, _gain_root, af_rate_finite
from wynerrelay.model import db_to_linear
from wynerrelay.numerics import ring_cosines

from stock import POINT_POOL, RATE_POOL, pool_configs, stock_config

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



class TestRelayOutputPower:
    def test_no_feedback_closed_form(self):
        cfg = stock_config(mu=0.0)
        for g in (0.5, 1.0, 3.0):
            expected = g * g * (10.0 * 1.0 + 2.0 * 10.0 * 0.04 + 1.0)
            assert relay_output_power(g, cfg) == pytest.approx(expected, rel=1e-15)

    def test_isolated_cells_value(self):
        cfg = stock_config(alpha=0.0, mu=0.0)
        assert relay_output_power(2.0, cfg) == 44.0

    def test_zero_gain_is_silent(self):
        assert relay_output_power(0.0, stock_config()) == 0.0

    def test_strictly_increasing(self):
        cfg = stock_config(mu=0.4)
        gains = np.linspace(0.05, 1.2, 24)
        powers = [relay_output_power(g, cfg) for g in gains]
        assert all(lo < hi for lo, hi in zip(powers, powers[1:]))

    def test_diverges_near_domain_edge(self):
        cfg = stock_config(mu=0.4)
        assert relay_output_power(1.25 * (1.0 - 1e-12), cfg) > 1e7

    def test_rejects_domain_violations(self):
        cfg = stock_config(mu=0.4)
        with pytest.raises(ValueError):
            relay_output_power(-0.1, cfg)
        with pytest.raises(ValueError):
            relay_output_power(1.25, cfg)
        with pytest.raises(ValueError):
            relay_output_power(math.inf, cfg)


class TestOptimalGain:
    def test_no_feedback_closed_form(self):
        solution = optimal_gain(stock_config(alpha=0.0, mu=0.0))
        assert solution.gain == pytest.approx(math.sqrt(100.0 / 11.0), rel=1e-12)
        assert solution.output_power == pytest.approx(100.0, rel=1e-12)

    def test_matches_grid_scan_oracle(self):
        assert optimal_gain(stock_config()).gain == pytest.approx(ORACLE_GRID_GAIN, rel=1e-5)

    def test_consistency_residual(self):
        # Away from the domain-edge pole the solver meets the power target
        # to near machine precision.
        for mu in (0.2, 0.4, 0.8):
            for power_q in (10.0, 100.0, 1000.0):
                solution = optimal_gain(stock_config(mu=mu, power_q=power_q))
                assert abs(solution.residual) <= 1e-9 * power_q
                assert solution.output_power == pytest.approx(power_q, rel=1e-9)

    def test_large_budget_approaches_pole(self):
        solution = optimal_gain(stock_config(power_q=1e6))
        assert abs(solution.gain - 1.25) / 1.25 <= 0.01
        assert solution.gain < 1.25

    def test_matches_high_precision_root(self):
        # Up to Q = 120 dB, where 1 - 2*mu*g falls to 1e-23 and s cannot
        # be recovered from g in double precision.
        for mu in (0.0, 0.2, 0.8, 0.9):
            for q_db in (-10.0, 20.0, 60.0, 80.0, 120.0):
                cfg = stock_config(mu=mu, power_q=10.0 ** (q_db / 10.0))
                gain, settle_root = _gain_root(cfg)
                expected_gain, expected_settle = reference_root(cfg)
                assert gain == pytest.approx(expected_gain, rel=1e-14)
                assert settle_root == pytest.approx(expected_settle, rel=1e-14)
                solution = optimal_gain(cfg)
                assert solution.gain == gain
                assert abs(solution.residual) <= 1e-12 * max(cfg.power_q, 1.0)

    def test_huge_budget_stays_stable(self):
        solution = optimal_gain(stock_config(mu=0.8, power_q=1e300))
        assert math.isfinite(solution.gain)
        assert 2.0 * 0.8 * solution.gain < 1.0
        assert abs(solution.residual) <= 1e-12 * 1e300

    def test_huge_uplink_power_keeps_its_root(self):
        # 4*P overflows at P = 1e308 while the coefficient 4*P*alpha^2 does not.
        cfg = stock_config(power_p=1e308)
        expected_gain, _ = reference_root(cfg)
        solution = optimal_gain(cfg)
        assert solution.gain == pytest.approx(expected_gain, rel=1e-14)
        assert abs(solution.residual) <= 1e-12 * cfg.power_q

    def test_overflowing_power_law_is_refused(self):
        # P*alpha^2 itself overflows here, so the power law has no finite
        # root; silent relays still solve to an all-zero gain.
        with pytest.raises(ValueError, match="^relay gain is not finite: gain 0.0, "
                                             "output power nan, residual nan$"):
            optimal_gain(stock_config(power_p=1e308, alpha=10.0))
        assert optimal_gain(stock_config(power_q=0.0)) == AfGainSolution(0.0, 0.0, 0.0)


class TestAfRate:
    def test_scalar_closed_form(self):
        cfg = stock_config(alpha=0.0, eta=0.0, mu=0.0)
        g2 = 100.0 / 11.0
        expected = math.log2(1.0 + 10.0 * g2 / (g2 + 1.0))
        gain = math.sqrt(g2)
        assert af_rate(cfg, gain) == pytest.approx(expected, rel=1e-13)

    def test_no_signal(self):
        cfg = stock_config(power_p=0.0)
        assert af_rate(cfg, 1.0) == 0.0

    def test_matches_finite_ring(self):
        cfg = stock_config()
        gain = optimal_gain(cfg).gain
        finite = af_rate_finite(cfg, gain, ring_cosines(4096))
        assert af_rate(cfg, gain) == pytest.approx(finite, abs=1e-9)

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
        c = ring_cosines(256)[:, np.newaxis]
        omega = 2.0 * np.pi * (np.arange(2048) / 2048)[np.newaxis, :]
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
            cfg = stock_config(power_q=power_q)
            rates.append(af_rate(cfg, optimal_gain(cfg).gain))
        assert rates[0] <= rates[1] <= rates[2]
        assert rates[0] < rates[2]

    def test_strictly_decreasing_in_feedback(self):
        rates = []
        for mu in (0.0, 0.4, 0.8):
            cfg = stock_config(mu=mu)
            rates.append(af_rate(cfg, optimal_gain(cfg).gain))
        assert rates[0] > rates[1] > rates[2]

    def test_noise_radicand_stays_real(self):
        # The noise-side square-root arguments m and p of the closed-ratio
        # form are b_term - c_term and b_term + c_term, so b_term >= |c_term|
        # is exactly m >= 0 and p >= 0: both roots stay real across the band.
        cfg = stock_config()
        g = optimal_gain(cfg).gain
        c = ring_cosines(4096)
        h2 = cfg.gamma + 2.0 * cfg.eta * c
        b_term = cfg.noise1 * g * g * h2 * h2 + cfg.noise2 * (1.0 + 4.0 * g * g * cfg.mu * cfg.mu * c * c)
        c_term = 4.0 * cfg.noise2 * g * cfg.mu * c
        assert np.all(b_term >= np.abs(c_term))

    def test_rejects_unstable_gain(self):
        with pytest.raises(ValueError):
            af_rate(stock_config(), 1.3)

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

    @staticmethod
    def two_term_samples(cfg, gain, c):
        """The closed-ratio integrand with both noise terms, one array per step."""
        first = cfg.beta + 2.0 * cfg.alpha * c
        second = cfg.gamma + 2.0 * cfg.eta * c
        echo = 2.0 * gain * cfg.mu * c
        exponent = max(math.frexp(gain)[1], 0)
        scaled = math.ldexp(gain, -exponent)
        signal = cfg.power_p * scaled ** 2 * np.square(first) * np.square(second)
        relay_noise = cfg.noise1 * scaled ** 2 * np.square(second)
        noise2 = cfg.noise2 * math.ldexp(1.0, -2 * exponent)
        minus = relay_noise + noise2 * np.square(1.0 - echo)
        plus = relay_noise + noise2 * np.square(1.0 + echo)
        return 2.0 * np.log2((np.sqrt(signal + minus) + np.sqrt(signal + plus))
                             / (np.sqrt(minus) + np.sqrt(plus)))

    @pytest.mark.parametrize("pool", [POINT_POOL, RATE_POOL], ids=["points", "rate_points"])
    @pytest.mark.parametrize("echo", ["drawn", "mu0"])
    def test_samples_are_the_two_term_formula_bit_for_bit(self, pool, echo):
        # At mu = 0 `_af_samples` takes its echo-free branch; with mu as
        # drawn, the two-term ratio that this formula also writes.
        grid = ring_cosines(128)
        for cfg in pool_configs(pool):
            if echo == "mu0":
                cfg = dataclasses.replace(cfg, mu=0.0)
            gain = optimal_gain(cfg).gain
            expected = self.two_term_samples(cfg, gain, grid)
            assert _af_samples(cfg, gain, grid).tobytes() == expected.tobytes(), cfg

    @staticmethod
    def mean_log_modulus(coefficients, value):
        """Mean over theta of log|p(cos theta)|, by Jensen's formula: the log of
        the leading coefficient plus log(|w|/2) per root z of p, with
        w = z + sqrt(z^2 - 1) taken on the branch where |w| >= 1. Each root of
        the expanded coefficients then takes one Newton step on `value`, p in
        factored form, which undoes the expansion's rounding near a null of H2."""
        coefficients = np.trim_zeros(coefficients, "f")
        roots = np.roots(coefficients).astype(complex)
        roots -= value(roots) / np.polyval(np.polyder(coefficients), roots)
        radical = np.sqrt(roots * roots - 1.0)
        w = np.maximum(np.abs(roots + radical), np.abs(roots - radical))
        return math.log(abs(coefficients[0])) + float(np.sum(np.log(w / 2.0)))

    @pytest.mark.parametrize("pool", [POINT_POOL, RATE_POOL], ids=["points", "rate_points"])
    def test_echo_free_rate_is_jensens_formula(self, pool):
        # At mu = 0 the per-mode rate is log2(N/D) in c = cos(theta), with
        # D = N2 + N1*g^2*H2^2 and N = D + P*g^2*H1^2*H2^2 polynomials in c.
        # The pools' Q >= -10 dB keeps N clear of cancelling against D.
        for cfg in pool_configs(pool):
            cfg = dataclasses.replace(cfg, mu=0.0)
            gain = optimal_gain(cfg).gain
            noise, signal = cfg.noise1 * gain**2, cfg.power_p * gain**2
            h1 = np.array([2.0 * cfg.alpha, cfg.beta])
            h2 = np.array([2.0 * cfg.eta, cfg.gamma])

            def relay(c):
                return cfg.noise2 + noise * np.polyval(h2, c) ** 2

            def received(c):
                return relay(c) + signal * (np.polyval(h1, c) * np.polyval(h2, c)) ** 2

            h2_squared = np.polymul(h2, h2)
            relay_coefficients = np.polyadd([cfg.noise2], noise * h2_squared)
            received_coefficients = np.polyadd(
                relay_coefficients, signal * np.polymul(np.polymul(h1, h1), h2_squared))
            expected = (self.mean_log_modulus(received_coefficients, received)
                        - self.mean_log_modulus(relay_coefficients, relay)) / math.log(2.0)
            rate = af_rate(cfg, gain)
            assert abs(rate - expected) <= 1e-12 * max(1.0, rate), cfg

    def test_each_sample_computed_once(self, monkeypatch):
        cosines, grids = [], []
        samples = wynerrelay.af._af_samples
        report = wynerrelay.numerics.integrate_periodic_report

        def counting_samples(config, gain, c):
            cosines.append(np.array(c, dtype=np.float64, ndmin=1))
            return samples(config, gain, c)

        def reporting(values, quadrature):
            value, points = report(values, quadrature)
            grids.append(points)
            return value, points

        monkeypatch.setattr(wynerrelay.af, "_af_samples", counting_samples)
        monkeypatch.setattr(wynerrelay.numerics, "integrate_periodic_report", reporting)
        cfg = stock_config()
        af_rate(cfg, optimal_gain(cfg).gain)
        (final_points,) = grids
        assert final_points > QuadratureConfig().initial_points
        assert (np.sort(np.concatenate(cosines)).tobytes()
                == np.sort(ring_cosines(final_points)).tobytes())


class TestAfLimits:
    @pytest.mark.parametrize("mu", [0.0, 0.4, 0.8])
    @pytest.mark.parametrize("p_db", [-10.0, 0.0, 10.0])
    def test_approached_at_low_relay_power(self, mu, p_db):
        # As Q -> 0, af/rho2 -> rho1*E12/((1 + rho1*G1)*ln 2) for every mu,
        # with G1 = beta^2 + 2*alpha^2 and E12, the mean of H1^2*H2^2, equal to
        # G1*G2 + 8*alpha*beta*gamma*eta + 2*alpha^2*eta^2: the echo and the
        # power law's mu terms enter only at second order in the gain. The
        # limit's own next term is O(rho2), which sets the tolerance.
        cfg = stock_config(mu=mu, power_p=db_to_linear(p_db), power_q=db_to_linear(-60.0))
        alpha, beta, gamma, eta = cfg.alpha, cfg.beta, cfg.gamma, cfg.eta
        g1 = beta**2 + 2.0 * alpha**2
        g2 = gamma**2 + 2.0 * eta**2
        e12 = g1 * g2 + 8.0 * alpha * beta * gamma * eta + 2.0 * alpha**2 * eta**2
        limit = cfg.rho1 * e12 / ((1.0 + cfg.rho1 * g1) * math.log(2.0))
        slope = af_rate(cfg, optimal_gain(cfg).gain) / cfg.rho2
        assert slope == pytest.approx(limit, rel=10.0 * cfg.rho2, abs=0.0)


class TestRingSimulator:
    def test_deterministic_under_seed(self):
        cfg = stock_config()
        gain = optimal_gain(cfg).gain
        first = simulate_relay_power(cfg, gain, symbols=1 << 14, seed=7)
        second = simulate_relay_power(cfg, gain, symbols=1 << 14, seed=7)
        assert first == second
        third = simulate_relay_power(cfg, gain, symbols=1 << 14, seed=8)
        assert third.mean_power != first.mean_power

    def test_symbol_accounting(self):
        cfg = stock_config()
        mc = simulate_relay_power(cfg, 1.0, symbols=1000, seed=1234)
        assert mc.symbols >= 1000
        assert mc.symbols % 64 == 0

    def test_matches_power_formula(self):
        cfg = stock_config()
        gain = optimal_gain(cfg).gain
        mc = simulate_relay_power(cfg, gain, symbols=1 << 18, seed=7)
        assert abs(mc.mean_power - 100.0) <= 4.0 * mc.std_error

    def test_silent_uplink(self):
        # With P=0 and no relay chatter the relay only ever amplifies its
        # own receiver noise.
        cfg = stock_config(power_p=0.0, mu=0.0)
        mc = simulate_relay_power(cfg, 2.0, symbols=1 << 16, seed=3)
        assert abs(mc.mean_power - 4.0) <= 4.0 * mc.std_error
