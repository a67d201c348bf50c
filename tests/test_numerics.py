"""Periodic quadrature."""

import math
import tracemalloc

import numpy as np
import pytest

from wynerrelay import ConvergenceError, QuadratureConfig
from wynerrelay.numerics import _grid_average, integrate_periodic_report, uniform_grid

from stock import TIGHT


class TestUniformGrid:
    def test_values(self):
        grid = uniform_grid(8)
        assert grid.shape == (8,)
        assert grid[0] == 0.0
        assert np.all(grid == np.arange(8) / 8.0)

    def test_half_grid_nesting(self):
        # Every other node of a doubled grid is the coarse grid, bitwise.
        assert np.all(uniform_grid(256)[::2] == uniform_grid(128))


class TestIntegratePeriodic:
    def test_constant_is_exact(self):
        assert integrate_periodic_report(lambda x: np.full_like(x, 3.5), TIGHT)[0] == 3.5

    def test_full_period_cosine_vanishes(self):
        value = integrate_periodic_report(lambda x: np.cos(2 * np.pi * x), TIGHT)[0]
        assert abs(value) <= 1e-14

    def test_cosine_squared(self):
        # Trapezoid rule on a uniform grid integrates cos^2 exactly
        # once the grid resolves the second harmonic.
        value = integrate_periodic_report(lambda x: np.cos(2 * np.pi * x) ** 2, TIGHT)[0]
        assert value == pytest.approx(0.5, abs=1e-15)

    def test_shift_invariance(self):
        def integrand(shift):
            return lambda x: np.log1p(10.0 * (1.0 + 0.4 * np.cos(2 * np.pi * (x + shift))) ** 2)

        base = integrate_periodic_report(integrand(0.0), TIGHT)[0]
        shifted = integrate_periodic_report(integrand(0.3), TIGHT)[0]
        assert shifted == pytest.approx(base, rel=1e-11)

    def test_report_matches_final_grid_average(self):
        def integrand(x):
            return np.log2(1.0 + 10.0 * (1.0 + 0.4 * np.cos(2 * np.pi * x)) ** 2)

        value, points = integrate_periodic_report(integrand, TIGHT)
        assert value == np.mean(integrand(uniform_grid(points)))

    def test_doubling_starts_at_min_64_and_max_points(self):
        sizes = []

        def sampler(f):
            sizes.append(f.size)
            return np.ones_like(f)

        integrate_periodic_report(sampler, QuadratureConfig())
        assert integrate_periodic_report(sampler, QuadratureConfig(max_points=16)) == (1.0, 16)
        # Every ceiling compares the first two grids, min(64, max_points // 2)
        # points and twice that, so one call samples both: a constant settles
        # there, on 128 points, and a ceiling of 16 on 8 and 16.
        assert sizes == [128, 16]

    def test_unconverged_raises_with_best_estimate(self):
        # The kink at x = 1/4 defeats spectral accuracy, so the two grids
        # that max_points allows, 8 and 16 points, cannot meet the tolerance.
        quad = QuadratureConfig(max_points=16, rel_tol=1e-10)
        with pytest.raises(ConvergenceError) as excinfo:
            integrate_periodic_report(lambda x: np.abs(np.cos(2 * np.pi * x)), quad)
        assert math.isfinite(excinfo.value.best_estimate)
        assert excinfo.value.best_estimate == pytest.approx(2.0 / math.pi, abs=0.05)
        assert str(excinfo.value) == (
            "quadrature did not settle within 16 points; "
            f"best estimate {excinfo.value.best_estimate!r}")

    def test_non_finite_sample_names_abscissa(self):
        def integrand(x):
            with np.errstate(divide="ignore"):
                return 1.0 / x

        with pytest.raises(ValueError, match="f = 0"):
            integrate_periodic_report(integrand, TIGHT)


class TestGridAverage:
    def test_same_bits_as_numpy_mean(self):
        rng = np.random.default_rng(2024)
        for exponent in range(3, 23):
            size = 2**exponent
            plain = rng.lognormal(0.0, 3.0, size) * rng.choice([-1.0, 1.0], size)
            # The ladder's layout: the old grid interleaved with its odd points.
            merged = np.empty(size)
            merged[0::2] = plain[: size // 2]
            merged[1::2] = rng.standard_normal(size // 2)
            for values in (plain, merged):
                average = _grid_average(values)
                assert float.hex(average) == float.hex(float(np.mean(values)))
            # The ladder's first call: the coarse grid is the even points of
            # one twice as fine, averaged through the strided view.
            wide = np.empty(2 * size)
            wide[0::2] = plain
            wide[1::2] = rng.standard_normal(size)
            average = _grid_average(wide[0::2])
            assert float.hex(average) == float.hex(float(np.mean(plain)))

    def test_nan_at_refined_abscissa_is_named(self):
        def integrand(f):
            return np.where(f == 3 / 128, np.nan, np.cos(2 * np.pi * f))

        with pytest.raises(ValueError, match=r"f = 3/128 = 0\.0234375$"):
            integrate_periodic_report(integrand, TIGHT)

    def test_opposite_infinities_name_the_first(self):
        values = np.zeros(16)
        values[5], values[9] = np.inf, -np.inf
        with pytest.raises(ValueError, match="f = 5/16"):
            _grid_average(values)

    def test_finite_samples_whose_sum_overflows_average_to_inf(self):
        values = np.full(8, 1e308)
        with np.errstate(over="ignore"):
            assert _grid_average(values) == np.mean(values) == np.inf


class TestNestedGrids:
    def test_each_abscissa_sampled_once_and_every_grid_exact(self):
        # The kink at x = 1/4 keeps the ladder climbing to max_points.
        def values(f):
            return np.abs(np.cos(2 * np.pi * f))

        seen = []

        def sampler(f):
            seen.append(f.copy())
            return values(f)

        finest = 2**10
        quad = QuadratureConfig(max_points=finest)
        with pytest.raises(ConvergenceError) as excinfo:
            integrate_periodic_report(sampler, quad)
        assert excinfo.value.best_estimate == np.mean(values(uniform_grid(finest)))
        sampled = np.concatenate(seen)
        assert sampled.size == finest
        np.testing.assert_array_equal(np.sort(sampled), uniform_grid(finest))

    def test_doubling_allocates_at_most_four_old_grids(self):
        # The old grid, the new odd samples and the merged grid of twice the
        # size; the sampler's abscissae and temporaries are gone before the
        # merged grid exists. Allocating it first would make five. The
        # sawtooth's grid averages 1/2 - 1/(2n) never settle, so the ladder
        # climbs to max_points and its last doubling starts from `size`.
        size = 2**16
        tracemalloc.start()
        try:
            with pytest.raises(ConvergenceError):
                integrate_periodic_report(np.positive, QuadratureConfig(max_points=2 * size))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 4.25 * size * 8
