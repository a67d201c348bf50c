"""Acceptance gate: one test per numbered criterion.

Each test prints its measured quantities, so a failure report carries the
numbers needed to judge how far off the implementation is.
"""

import dataclasses
import math
import time

import numpy as np
import pytest

from wynerrelay import (
    LagGains,
    af_rate,
    cf_solve,
    figure_spec,
    optimal_gain,
    rate_mcp,
    rate_mcp_finite,
    relay_output_power,
    run_sweep,
    simulate_relay_power,
    waterfill,
)
from wynerrelay.cli import main
from wynerrelay.numerics import ring_cosines

from stock import stock_config


def best_time(func, repeats=5):
    func()
    best = math.inf
    for _ in range(repeats):
        start = time.perf_counter()
        func()
        best = min(best, time.perf_counter() - start)
    return best


def test_criterion_01_flat_channel_identities():
    flat = LagGains(local=1.0, cross=0.0)
    strong = LagGains(local=2.0, cross=0.0)
    scalar = stock_config(alpha=0.0, eta=0.0, mu=0.0)
    gain = optimal_gain(scalar).gain
    g2 = gain * gain
    af_expected = math.log2(1.0 + 10.0 * g2 / (g2 + 1.0))

    errors = (
        abs(rate_mcp(flat, 10.0) - math.log2(11.0)),
        abs(waterfill(strong, 10.0).rate - math.log2(41.0)),
        abs(af_rate(scalar, gain) - af_expected),
    )
    times = (
        best_time(lambda: rate_mcp(flat, 10.0)),
        best_time(lambda: waterfill(strong, 10.0)),
        best_time(lambda: af_rate(scalar, gain)),
    )
    print(f"criterion 1: errors={errors} times={times}")
    for error in errors:
        assert error <= 1e-9
    for elapsed in times:
        assert elapsed < 1e-3


def test_criterion_02_circulant_oracle_convergence():
    worst = 0.0
    for cross in (0.2, 0.5, 0.9):
        lag = LagGains(local=1.0, cross=cross)
        for rho in (1.0, 10.0, 100.0):
            delta = abs(rate_mcp(lag, rho) - rate_mcp_finite(lag, rho, ring_cosines(2**14)))
            worst = max(worst, delta)
    lag = LagGains(local=1.0, cross=0.2)
    identity_gap = abs(rate_mcp(lag, 10.0) - rate_mcp_finite(lag, 10.0, ring_cosines(4096)))
    print(f"criterion 2: worst finite-ring delta={worst:.3e} identity gap={identity_gap:.3e}")
    assert worst <= 1e-8
    assert identity_gap <= 1e-13


def test_criterion_03_waterfill_residual_and_dominance():
    worst_residual = 0.0
    worst_flat_margin = math.inf
    worst_curved_margin = math.inf
    for cross in (0.0, 0.2, 0.4, 0.5, 0.6):
        lag = LagGains(local=1.0, cross=cross)
        for rho in np.logspace(0.0, 3.0, 5):
            solution = waterfill(lag, float(rho))
            worst_residual = max(worst_residual, abs(solution.spent_power - rho))
            margin = solution.rate - rate_mcp(lag, float(rho))
            if cross == 0.0:
                worst_flat_margin = min(worst_flat_margin, margin)
            else:
                worst_curved_margin = min(worst_curved_margin, margin)
    print(f"criterion 3: worst residual={worst_residual:.3e} "
          f"worst margin flat={worst_flat_margin:.3e} "
          f"curved={worst_curved_margin:.3e}")
    assert worst_residual <= 1e-9
    # On a flat channel the two rates are equal, so the comparison sits on
    # solver roundoff; elsewhere dominance is strict.
    assert worst_flat_margin >= -1e-12
    assert worst_curved_margin > 0.0


def test_criterion_04_relay_coupling_sweep():
    start = time.perf_counter()
    table = run_sweep(figure_spec("fig3"))
    elapsed = time.perf_counter() - start
    cf = table.columns["cf"]
    af = table.columns["af"]
    bound = table.columns["upper_bound"]

    cf_spread = max(cf) - min(cf)
    worst_gap = max(b - c for b, c in zip(bound, cf))
    af_decreasing = all(lo > hi for lo, hi in zip(af, af[1:]))
    end_ratio = cf[-1] / af[-1]
    print(f"criterion 4: cf spread={cf_spread:.3e} worst bound gap={worst_gap:.5f} "
          f"af decreasing={af_decreasing} cf/af at stop={end_ratio:.10f} "
          f"elapsed={elapsed:.2f}s")
    assert elapsed < 5.0
    assert cf_spread <= 1e-9
    assert worst_gap <= 0.2
    assert af_decreasing
    # The 1.8 threshold has no source in the repository: PAPER.md holds only
    # the abstract, and this fig3 preset is not shown to be the paper's
    # Fig. 3. The AF side is cross-checked by
    # test_af.py::TestAfRate::test_matches_space_time_average, so whether the
    # threshold or the AF model is off stays open until the paper's Fig. 3
    # parameters and AF model are in the repository.
    assert end_ratio >= 1.8


def test_criterion_05_power_sweep_envelopes():
    for name in ("fig4", "fig5"):
        table = run_sweep(figure_spec(name))
        worst_gap = max(b - c for b, c in
                        zip(table.columns["upper_bound"], table.columns["cf"]))
        coupled = table.columns["af"]
        uncoupled = table.columns["af_mu0"]
        print(f"criterion 5 ({name}): worst bound gap={worst_gap:.5f}")
        assert worst_gap <= 1.0
        assert all(u >= c for u, c in zip(uncoupled, coupled))


def test_criterion_06_af_gain_solve():
    asymptote = optimal_gain(stock_config(power_q=1e6))
    asymptote_error = abs(asymptote.gain - 1.25) / 1.25

    config = stock_config()
    solution = optimal_gain(config)
    # Independent dense scan: evaluate the power curve on a uniform
    # million-point gain grid and invert by linear interpolation.
    grid = np.linspace(0.0, (1.0 - 1e-12) / (2.0 * config.mu), 10**6)[1:]
    k2 = (2.0 * config.mu * grid) ** 2
    settle = 1.0 - k2
    root = np.sqrt(settle)
    powers = (
        (10.0 * 1.0 + 1.0) * grid**2 / root
        + 4.0 * 10.0 * 0.04 * grid**2 / (root + settle)
    )
    above = int(np.searchsorted(powers, 100.0))
    frac = (100.0 - powers[above - 1]) / (powers[above] - powers[above - 1])
    scanned = grid[above - 1] + frac * (grid[above] - grid[above - 1])
    scan_error = abs(solution.gain - scanned) / scanned

    print(f"criterion 6: asymptote error={asymptote_error:.5f} "
          f"grid-scan relative error={scan_error:.3e} "
          f"power residual={solution.residual:.3e}")
    assert asymptote_error <= 0.01
    assert scan_error <= 1e-5
    assert abs(solution.residual) <= 1e-9


def test_criterion_07_monte_carlo_power_oracle():
    config = stock_config()
    gain = optimal_gain(config).gain
    target = relay_output_power(gain, config)
    start = time.perf_counter()
    mc = simulate_relay_power(config, gain, symbols=1 << 20, seed=1234)
    elapsed = time.perf_counter() - start
    sigma_away = abs(mc.mean_power - target) / mc.std_error
    print(f"criterion 7: simulated={mc.mean_power:.4f} formula={target:.4f} "
          f"std errors away={sigma_away:.2f} symbols={mc.symbols} "
          f"elapsed={elapsed:.2f}s")
    assert mc.symbols >= 10**6
    assert sigma_away <= 3.0
    assert elapsed < 10.0


def test_criterion_08_cf_asymptotics():
    lag = LagGains(local=1.0, cross=0.2)
    relay_limit = cf_solve(stock_config(power_q=1e6)).rate
    relay_target = rate_mcp(lag, 10.0)
    uplink_limit = cf_solve(stock_config(power_p=1e6)).rate
    uplink_target = rate_mcp(lag, 100.0)
    waterfilled = waterfill(lag, 100.0).rate
    print(f"criterion 8: |cf-target| at large Q={abs(relay_limit - relay_target):.3e} "
          f"at large P={abs(uplink_limit - uplink_target):.3e} "
          f"waterfilled margin={waterfilled - uplink_limit:.3e}")
    assert abs(relay_limit - relay_target) <= 1e-2
    assert abs(uplink_limit - uplink_target) <= 1e-2
    assert uplink_limit < waterfilled


def test_criterion_09_cf_fixed_point_identity():
    solutions = [cf_solve(stock_config(mu=mu)) for mu in (0.0, 0.4, 0.8)]
    identity_gap = abs(solutions[0].rate + solutions[0].r_star
                       - solutions[0].second_lag_rate)
    bit_identical = all(
        dataclasses.astuple(solution) == dataclasses.astuple(solutions[0])
        for solution in solutions
    )
    print(f"criterion 9: identity gap={identity_gap:.3e} "
          f"bit identical across coupling={bit_identical}")
    assert identity_gap <= 1e-9
    assert bit_identical


def test_criterion_10_cli_contract(tmp_path):
    outputs = []
    for name, flags in (("a", []), ("b", []), ("c", ["--jobs", "8"])):
        target = tmp_path / f"fig3_{name}.csv"
        assert main(["figure", "fig3", *flags, "--output", str(target)]) == 0
        outputs.append(target.read_bytes())
    byte_identical = outputs[0] == outputs[1] == outputs[2]

    failure_code = main(["rate", "--eta", "0.6", "--schemes", "upper_bound",
                         "--quad-max-points", "8"])
    print(f"criterion 10: byte identical={byte_identical} "
          f"failure exit code={failure_code}")
    assert byte_identical
    assert failure_code == 2
