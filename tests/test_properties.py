"""Property tests over the configuration space that validation accepts."""

import math
from dataclasses import replace

import pytest

from wynerrelay import (LagGains, SystemConfig, cf_solve, figure_spec, optimal_gain,
                        rate_mcp, run_point, waterfill)
from wynerrelay.model import DEFAULT_QUADRATURE, db_to_linear
from wynerrelay.sweep import SCHEME_ORDER
from wynerrelay.wyner import _water_level

from stock import POINT_POOL, RATE_POOL, SCALINGS, pool_configs

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

GAINS = st.floats(min_value=0.0, max_value=2.0)
POWERS = st.floats(min_value=-6.0, max_value=300.0).map(lambda exponent: 10.0 ** exponent)


@hypothesis.settings(max_examples=300, deadline=None, derandomize=True, database=None)
@hypothesis.given(alpha=GAINS, beta=GAINS, mu=GAINS, power_p=st.just(0.0) | POWERS,
                  power_q=st.just(0.0) | POWERS, noise1=POWERS)
# The default operating point at mu = 0.8 and Q = 80 dB, where a bisection
# below a fixed ceiling missed the root, and at Q = 60 dB, where it left a
# residual of 1e-3 * Q.
@hypothesis.example(alpha=0.2, beta=1.0, mu=0.8, power_p=10.0, power_q=1e8, noise1=1.0)
@hypothesis.example(alpha=0.2, beta=1.0, mu=0.8, power_p=10.0, power_q=1e6, noise1=1.0)
def test_optimal_gain_meets_budget_inside_stable_region(alpha, beta, mu, power_p,
                                                        power_q, noise1):
    config = SystemConfig(alpha=alpha, beta=beta, gamma=1.0, eta=0.2, mu=mu,
                          power_p=power_p, power_q=power_q, noise1=noise1, noise2=1.0)
    solution = optimal_gain(config)
    assert math.isfinite(solution.gain) and solution.gain >= 0.0
    assert 2.0 * mu * solution.gain < 1.0
    assert abs(solution.residual) <= 1e-12 * max(power_q, 1.0)


@hypothesis.settings(max_examples=100, deadline=None, derandomize=True, database=None)
@hypothesis.given(gamma=st.floats(min_value=0.5, max_value=1.5),
                  eta_share=st.floats(min_value=0.0, max_value=0.45),
                  rho=st.floats(min_value=-2.0, max_value=4.0).map(
                      lambda exponent: 10.0 ** exponent))
def test_waterfill_spends_budget_and_beats_flat_spectrum(gamma, eta_share, rho):
    # Second hops kept off spectral nulls (eta <= 0.45 gamma), as the
    # benchmark's rate queries draw them.
    lag = LagGains(local=gamma, cross=eta_share * gamma)
    solution = waterfill(lag, rho)
    assert all(map(math.isfinite, (solution.level, solution.rate, solution.spent_power)))
    assert solution.rate >= rate_mcp(lag, rho) - 1e-9
    assert abs(solution.spent_power - rho) <= DEFAULT_QUADRATURE.rel_tol * max(1.0, rho)


@hypothesis.settings(max_examples=100, deadline=None, derandomize=True, database=None)
@hypothesis.given(alpha=st.floats(0.0, 0.6), beta=st.floats(0.5, 1.5),
                  mu=st.floats(0.0, 0.9), p_db=st.floats(-10.0, 40.0),
                  gamma=st.floats(0.5, 1.5), eta_share=st.floats(0.0, 0.45),
                  q_db=st.floats(5.0, 40.0))
def test_rates_over_the_rate_query_ranges(alpha, beta, mu, p_db, gamma, eta_share, q_db):
    # The ranges the benchmark's rate queries draw from. run_point itself
    # refuses a non-finite or negative value and a rate above upper_bound.
    config = SystemConfig(alpha=alpha, beta=beta, gamma=gamma, eta=eta_share * gamma,
                          mu=mu, power_p=db_to_linear(p_db), power_q=db_to_linear(q_db),
                          noise1=1.0, noise2=1.0)
    rates = run_point(config, SCHEME_ORDER)
    assert all(math.isfinite(rate) and rate >= 0.0 for rate in rates.values())
    # CF never hears the relays' echo.
    assert cf_solve(replace(config, mu=0.0)).rate == rates["cf"]
    for stronger in (replace(config, power_p=db_to_linear(p_db + 3.0)),
                     replace(config, power_q=db_to_linear(q_db + 3.0))):
        raised = run_point(stronger, SCHEME_ORDER)
        for name in SCHEME_ORDER:
            assert raised[name] >= rates[name] - 1e-12, name


@hypothesis.settings(max_examples=100, deadline=None, derandomize=True, database=None)
@hypothesis.given(gamma=st.floats(min_value=0.5, max_value=1.5),
                  eta_share=st.floats(min_value=0.0, max_value=2.0),
                  q_db=st.floats(min_value=-10.0, max_value=100.0))
def test_water_level_spends_budget_on_second_hops_with_nulls(gamma, eta_share, q_db):
    # eta above gamma/2 puts a null of H inside the band. Only the level is
    # drawn here: the rate's trapezoid ladder does not settle within its
    # 2^22 points on many clamped hops above about 60 dB (ROADMAP item 2).
    lag = LagGains(local=gamma, cross=eta_share * gamma)
    rho = db_to_linear(q_db)
    _, spent = _water_level(lag, rho)
    assert abs(spent - rho) <= 1e-13 * rho


# Both benchmark pools' configs and the preset points.
POOLED_CONFIGS = [*pool_configs(POINT_POOL), *pool_configs(RATE_POOL)]
POOLED_CONFIGS += [config for name in ("fig3", "fig4", "fig5")
                   for config in figure_spec(name).configs]


@hypothesis.settings(max_examples=300, deadline=None, derandomize=True, database=None)
@hypothesis.given(config=st.sampled_from(POOLED_CONFIGS),
                  scaling=st.sampled_from(list(SCALINGS.values())),
                  log2_k=st.integers(min_value=-400, max_value=400))
def test_exact_scalings_keep_every_rate_bit(config, scaling, log2_k):
    # Each of the model's exact scalings by k = 2^log2_k scales every field
    # it touches exactly, so no rate may move by a bit.
    scaled = replace(config, **{field: math.ldexp(getattr(config, field), power * log2_k)
                                for field, power in scaling.items()})
    expected = {name: rate.hex() for name, rate in run_point(config, SCHEME_ORDER).items()}
    got = {name: rate.hex() for name, rate in run_point(scaled, SCHEME_ORDER).items()}
    assert got == expected
