"""Property tests over the configuration space that validation accepts."""

import math

import pytest

from wynerrelay import LagGains, SystemConfig, optimal_gain, rate_mcp, waterfill
from wynerrelay.model import DEFAULT_QUADRATURE

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
