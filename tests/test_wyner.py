"""Per-cell sum-rates on the circular uplink, waterfilling, upper bound."""

import math

import numpy as np
import pytest

import wynerrelay.wyner
from wynerrelay import (
    LagGains,
    cf_solve,
    rate_mcp,
    rate_mcp_finite,
    upper_bound,
    waterfill,
    waterfill_finite,
)
from wynerrelay.numerics import integrate_periodic_report, uniform_grid
from wynerrelay.wyner import channel_response

from stock import TIGHT, stock_config

# Discrete waterfilling on a 2^20 uniform subchannel grid, frozen from a
# sort-and-fill reference run for lag (cross 0.2, local 1) at SNR 100.
ORACLE_WATERFILL_RATE = 6.5394457146247245
ORACLE_WATERFILL_LEVEL = 101.29891601330945


def discrete_waterfill(lag, rho, samples=2**20):
    """Sort-and-fill waterfilling over a finite subchannel grid."""
    gains = channel_response(lag, uniform_grid(samples)) ** 2
    floors = np.sort(1.0 / gains)
    counts = np.arange(1, samples + 1)
    # Each subchannel carries measure 1/samples, so the power budget on
    # the grid is samples * rho.
    levels = (samples * rho + np.cumsum(floors)) / counts
    active = int(np.nonzero(levels > floors)[0][-1]) + 1
    level = levels[active - 1]
    powers = np.maximum(level - 1.0 / gains, 0.0)
    rate = float(np.mean(np.log2(1.0 + powers * gains)))
    return level, rate


class TestChannelResponse:
    def test_no_interference(self):
        assert channel_response(LagGains(local=1.0, cross=0.0), 0.37) == 1.0

    def test_peak_at_zero_frequency(self):
        assert channel_response(LagGains(local=1.0, cross=0.2), 0.0) == pytest.approx(1.4, abs=1e-15)

    def test_band_edge_null(self):
        assert channel_response(LagGains(local=1.0, cross=0.5), 0.5) == 0.0

    def test_vector_evaluation(self):
        lag = LagGains(local=1.0, cross=0.2)
        grid = uniform_grid(16)
        values = channel_response(lag, grid)
        assert values.shape == (16,)
        assert values[0] == pytest.approx(1.4, abs=1e-15)


class TestRateMcp:
    def test_flat_channel(self):
        rate = rate_mcp(LagGains(local=1.0, cross=0.0), 10.0)
        assert rate == pytest.approx(math.log2(11.0), abs=1e-14)

    def test_zero_snr(self):
        assert rate_mcp(LagGains(local=1.0, cross=0.2), 0.0) == 0.0

    def test_matches_finite_ring(self):
        lag = LagGains(local=1.0, cross=0.2)
        assert rate_mcp(lag, 10.0) == pytest.approx(rate_mcp_finite(lag, 10.0, 4096), abs=1e-9)

    def test_strictly_increasing_in_snr(self):
        lag = LagGains(local=1.0, cross=0.2)
        rates = [rate_mcp(lag, rho) for rho in (0.0, 1.0, 10.0, 100.0, 1000.0)]
        assert all(lo < hi for lo, hi in zip(rates, rates[1:]))

    def test_rejects_negative_snr(self):
        with pytest.raises(ValueError):
            rate_mcp(LagGains(local=1.0, cross=0.2), -1.0)

    def test_sign_flip_symmetry(self):
        # The rate only consumes H^2, so negating the local gain before
        # squaring must leave the integral unchanged.
        lag = LagGains(local=1.0, cross=0.2)

        def negated(x):
            response = -1.0 + 0.4 * np.cos(2.0 * np.pi * x)
            return np.log1p(10.0 * response**2) / math.log(2.0)

        assert integrate_periodic_report(negated, TIGHT)[0] == pytest.approx(
            rate_mcp(lag, 10.0), rel=1e-10
        )

    def test_matches_quadrature(self):
        for a in (0.0, 0.3, 1.0, 2.0):
            for b in (0.0, 0.1, 0.5, 1.0, 3.0):
                lag = LagGains(local=a, cross=b)
                for rho in np.logspace(-6.0, 8.0, 15):
                    reference, _ = integrate_periodic_report(
                        lambda f: np.log1p(rho * channel_response(lag, f) ** 2)
                        / math.log(2.0), TIGHT)
                    assert rate_mcp(lag, rho) == pytest.approx(
                        reference, rel=1e-13, abs=0.0), (a, b, rho)

    def test_low_snr_limit(self):
        # log2(1 + x) = x / ln 2 to first order, and the mean of H^2 is
        # a^2 + 2b^2; forms that square the discriminant return 0 here.
        for a, b in ((1.0, 0.2), (0.0, 0.5), (2.0, 1.0), (0.3, 3.0)):
            rate = rate_mcp(LagGains(local=a, cross=b), 1e-300)
            assert rate == pytest.approx(1e-300 * (a * a + 2.0 * b * b) / math.log(2.0),
                                         rel=1e-12, abs=0.0)

    def test_double_null_at_high_snr(self):
        # At a = 2b the discriminant c^2 + 4*rho*b^2 cancels to 1 + 2i*sqrt(rho)*a;
        # the reference evaluates the unfactored form at 80 digits.
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(80):
            rho = mpmath.mpf("1e35")
            c = mpmath.mpc(1, 2 * mpmath.sqrt(rho))
            root = mpmath.sqrt(c * c + 4 * rho)
            expected = float(2 * mpmath.log(max(abs(c + root), abs(c - root)) / 2, 2))
        rate = rate_mcp(LagGains(local=2.0, cross=1.0), 1e35)
        assert rate == pytest.approx(expected, rel=1e-13, abs=0.0)

    def test_cf_solve_needs_no_quadrature(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the CF path must not integrate numerically")

        monkeypatch.setattr(wynerrelay.wyner, "integrate_periodic_report", refuse)
        assert cf_solve(stock_config()).rate > 0.0


class TestRateMcpSlope:
    # A 2^16-point grid resolves the integrand's peaks 1/(1 + rho*H^2) at
    # every rho below for null-free responses and at the double null
    # a = 2b; at simple nulls their width shrinks like rho^(-1/2).
    RHOS = (0.0, 1e-8, 1e-3, 1.0, 1e3, 1e6, 1e9, 1e12)
    CASES = [((1.0, 0.2), RHOS), ((3.0, 0.5), RHOS), ((2.0, 1.0), RHOS),
             ((0.4, 0.2), RHOS), ((0.0, 1.0), RHOS[:5]), ((0.3, 1.5), RHOS[:5])]

    @pytest.mark.parametrize("gains, rhos", CASES, ids=[str(g) for g, _ in CASES])
    def test_matches_grid_average(self, gains, rhos):
        lag = LagGains(*gains)
        gain = channel_response(lag, uniform_grid(2 ** 16)) ** 2
        for rho in rhos:
            expected = np.mean(gain / ((1.0 + rho * gain) * math.log(2.0)))
            assert wynerrelay.wyner.rate_mcp_slope(lag, rho) == pytest.approx(
                expected, rel=1e-12, abs=0.0), rho

    def test_rejects_negative_snr(self):
        with pytest.raises(ValueError):
            wynerrelay.wyner.rate_mcp_slope(LagGains(1.0, 0.2), -1.0)


class TestRateMcpFinite:
    def test_flat_ring(self):
        rate = rate_mcp_finite(LagGains(local=1.0, cross=0.0), 10.0, 7)
        assert rate == pytest.approx(math.log2(11.0), rel=1e-14)

    def test_three_cell_closed_form(self):
        # cos(2*pi/3) = -1/2 puts both off-peak eigenvalues at 0.8.
        rate = rate_mcp_finite(LagGains(local=1.0, cross=0.2), 10.0, 3)
        expected = (math.log2(1.0 + 10.0 * 1.96) + 2.0 * math.log2(1.0 + 10.0 * 0.64)) / 3.0
        assert rate == pytest.approx(expected, rel=1e-12)

    def test_converges_to_integral(self):
        lag = LagGains(local=1.0, cross=0.2)
        exact = rate_mcp(lag, 10.0)
        errors = [abs(rate_mcp_finite(lag, 10.0, 2**k) - exact) for k in range(6, 13)]
        assert errors[-1] <= 1e-9
        # The spectrum decays so fast the sequence reaches machine noise
        # immediately; allow two ulps so the plateau still counts as shrinking.
        assert all(nxt <= cur + 1e-15 for cur, nxt in zip(errors, errors[1:]))

    def test_rejects_small_ring(self):
        with pytest.raises(ValueError):
            rate_mcp_finite(LagGains(local=1.0, cross=0.2), 10.0, 2)

    def test_trapezoid_circulant_identity(self):
        # The adaptive grid's value at its final N points must reproduce the
        # N-cell ring average bit for bit: same samples, same reduction.
        lag = LagGains(local=1.0, cross=0.2)

        def integrand(f):
            return np.log1p(10.0 * np.square(channel_response(lag, f))) / math.log(2.0)

        value, points = integrate_periodic_report(integrand)
        assert value == rate_mcp_finite(lag, 10.0, points)


class TestWaterfill:
    def test_flat_channel_unit_gain(self):
        solution = waterfill(LagGains(local=1.0, cross=0.0), 10.0)
        assert solution.level == pytest.approx(11.0, abs=1e-9)
        assert solution.rate == pytest.approx(math.log2(11.0), abs=1e-9)
        assert solution.spent_power == pytest.approx(10.0, abs=1e-9)

    def test_flat_channel_strong_gain(self):
        solution = waterfill(LagGains(local=2.0, cross=0.0), 10.0)
        assert solution.level == pytest.approx(10.25, abs=1e-9)
        assert solution.rate == pytest.approx(math.log2(41.0), abs=1e-9)
        # The same closed form, level 1/H^2 + rho and rate log2(1 + rho*H^2),
        # where both sit near the ends of the float range ...
        extreme = waterfill(LagGains(local=1e150, cross=0.0), 1e-300)
        assert extreme.rate == pytest.approx(1.0, rel=1e-12)
        assert extreme.spent_power == pytest.approx(1e-300, rel=1e-12)
        # ... and where rho is far below the roundoff of the floor 1/H^2.
        faint = waterfill(LagGains(local=2.0, cross=0.0), 1e-300)
        assert faint.level == pytest.approx(0.25 + 1e-300, abs=1e-12)
        assert faint.rate == pytest.approx(math.log2(1.0 + 4e-300), abs=1e-12)
        # There rho is lost in that roundoff: the level spends nothing, and
        # waterfill does not report the miss (a FOUND item in CHANGES.md).
        assert faint.spent_power == 0.0

    def test_matches_discrete_oracle(self):
        lag = LagGains(local=1.0, cross=0.2)
        level, rate = discrete_waterfill(lag, 100.0)
        assert level == pytest.approx(ORACLE_WATERFILL_LEVEL, rel=1e-9)
        assert rate == pytest.approx(ORACLE_WATERFILL_RATE, rel=1e-9)
        assert waterfill_finite(lag, 100.0, 2**20) == pytest.approx(
            ORACLE_WATERFILL_RATE, rel=1e-9)
        solution = waterfill(lag, 100.0)
        assert solution.rate == pytest.approx(ORACLE_WATERFILL_RATE, abs=1e-6)

    def test_constraint_residual_near_pole(self):
        # local = cross * 2 zeroes the response inside the band; the
        # clamped integrand must still meet the power constraint.
        solution = waterfill(LagGains(local=1.0, cross=0.6), 31.6227766)
        assert solution.spent_power == pytest.approx(31.6227766, abs=1e-9)

    # float.hex of (level, rate, spent_power): a smooth hop, two clamped
    # hops of the seed-1 rate queries of the benchmark, and a near null.
    # Last, the rate recorded while the level was solved on the quadrature
    # grid; the rate must stay within 1e-11 of it.
    RECORDED = (
        ((1.0, 0.2), 100.0,
         ("0x1.9532170a15a8fp+6", "0x1.a286475191f44p+2", "0x1.9000000000000p+6"),
         "0x1.a286475191f42p+2"),
        ((0.519594, 0.196274), 3.1646085710903087,
         ("0x1.e5309acc0a138p+2", "0x1.22699987377bbp+0", "0x1.9511e4c6bcb18p+1"),
         "0x1.2269998731925p+0"),
        ((1.405169, 0.519564), 3.311539960001644,
         ("0x1.2f95fcdc1ea48p+2", "0x1.6297043a8d40ap+1", "0x1.a7e08a99cd56ap+1"),
         "0x1.6297043a8e1f9p+1"),
        ((1.0, 0.6), 31.6227766,
         ("0x1.5a5abc5b608b1p+5", "0x1.19417ecf212e6p+2", "0x1.f9f6e4989b6cbp+4"),
         "0x1.19417ecf2047ep+2"),
    )

    def test_bit_identical_to_recorded(self):
        for (local, cross), rho, expected, grid_rate in self.RECORDED:
            solution = waterfill(LagGains(local=local, cross=cross), rho)
            got = (solution.level.hex(), solution.rate.hex(),
                   solution.spent_power.hex())
            assert got == expected, (local, cross, rho)
            assert abs(solution.rate - float.fromhex(grid_rate)) <= 1e-11, (local, cross, rho)

    def test_level_matches_arcwise_mpmath(self):
        # The level at 40 digits: mp.quad of 1/H^2 over the arcs where
        # |H| > level^(-1/2), with the fill update iterated to convergence.
        mpmath = pytest.importorskip("mpmath")
        cases = [(lag, rho) for lag, rho, _, _ in self.RECORDED]
        cases.append(((1.0, 0.5), 1e4))
        with mpmath.workdps(40):
            for (local, cross), rho in cases:
                a, c, rho_mp = mpmath.mpf(local), 2 * mpmath.mpf(cross), mpmath.mpf(rho)
                level = (2 / (a + c)) ** 2
                for _ in range(100):
                    t, length, inverse = 1 / mpmath.sqrt(level), 0, 0
                    for sign in (1, -1):
                        if sign * a + c > t:
                            end = (mpmath.pi if sign * a - c >= t
                                   else mpmath.acos((t - sign * a) / c))
                            length += end
                            inverse += mpmath.quad(
                                lambda theta: 1 / (sign * a + c * mpmath.cos(theta)) ** 2,
                                [0, end])
                    level, previous = (mpmath.pi * rho_mp + inverse) / length, level
                    if abs(level - previous) < mpmath.mpf(10) ** -35 * level:
                        break
                got = waterfill(LagGains(local=local, cross=cross), rho).level
                assert abs(got - level) <= 1e-14 * level, (local, cross, rho)

    def test_deep_nulls_at_high_snr(self):
        # The level needs no grid, so a hop with a null needs none that
        # resolves the clamp at the null.
        for lag, rho in ((LagGains(local=1.0, cross=0.6), 1e8),
                         (LagGains(local=1.0, cross=0.5), 1e15)):
            assert waterfill(lag, rho).rate == pytest.approx(
                waterfill_finite(lag, rho, 2**21), abs=2e-9), (lag, rho)

    def test_each_response_sample_computed_once(self, monkeypatch):
        abscissae, grids = [], []

        def counting_response(lag, f):
            abscissae.append(np.array(f, dtype=np.float64, ndmin=1))
            return channel_response(lag, f)

        def reporting(integrand, quadrature):
            value, points = integrate_periodic_report(integrand, quadrature)
            grids.append(points)
            return value, points

        monkeypatch.setattr(wynerrelay.wyner, "channel_response", counting_response)
        monkeypatch.setattr(wynerrelay.wyner, "integrate_periodic_report", reporting)
        # A clamped hop: its rate ladder goes well past the first grid.
        waterfill(LagGains(local=0.519594, cross=0.196274), 3.1646085710903087)
        (finest,) = grids
        sampled = np.concatenate(abscissae)
        assert finest >= 2**16
        assert sampled.size == finest
        np.testing.assert_array_equal(np.sort(sampled), uniform_grid(finest))

    def test_dominates_no_waterfilling(self):
        for cross in (0.0, 0.3, 0.6):
            lag = LagGains(local=1.0, cross=cross)
            assert waterfill(lag, 20.0).rate >= rate_mcp(lag, 20.0) - 1e-12

    def test_strictly_increasing_in_snr(self):
        lag = LagGains(local=1.0, cross=0.2)
        rates = [waterfill(lag, rho).rate for rho in (1.0, 10.0, 100.0)]
        assert rates[0] < rates[1] < rates[2]

    def test_rejects_bad_inputs(self):
        lag = LagGains(local=1.0, cross=0.2)
        for rho in (-1.0, math.nan):
            with pytest.raises(ValueError):
                waterfill(lag, rho)
        # A dead hop, silent or with no response, is a limit, not an error.
        for lag, rho in ((lag, 0.0), (LagGains(local=0.0, cross=0.0), 10.0)):
            solution = waterfill(lag, rho)
            assert (solution.rate, solution.spent_power) == (0.0, 0.0)
            assert waterfill_finite(lag, rho, 64) == 0.0


class TestUpperBound:
    @staticmethod
    def config(**overrides):
        # Both hops at SNR 10, unless overridden.
        return stock_config(**{"power_q": 10.0, **overrides})

    def test_symmetric_config_picks_uplink_arm(self):
        config = self.config()
        assert upper_bound(config) == rate_mcp(config.first_lag, config.rho1)

    def test_strong_relay_limit(self):
        config = self.config(power_q=1e7)
        limit = rate_mcp(LagGains(local=1.0, cross=0.2), 10.0)
        assert upper_bound(config) == pytest.approx(limit, abs=1e-6)

    def test_below_both_arms(self):
        config = self.config(power_q=100.0, eta=0.4)
        bound = upper_bound(config)
        assert bound <= rate_mcp(config.first_lag, config.rho1)
        assert bound <= waterfill(config.second_lag, config.rho2).rate

    def test_given_fill_matches_own_solve(self):
        for config in (self.config(), self.config(power_q=100.0, eta=0.6)):
            fill = waterfill(config.second_lag, config.rho2)
            assert float.hex(upper_bound(config, fill)) == float.hex(upper_bound(config))

    def test_silent_relays_never_reach_the_first_hop(self):
        # The first hop's rate overflows here, but silent relays cap the
        # bound at 0 before it is needed.
        config = self.config(power_q=0.0, beta=1e200)
        with pytest.raises(ValueError, match="not finite"):
            rate_mcp(config.first_lag, config.rho1)
        assert upper_bound(config) == 0.0
