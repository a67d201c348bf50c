"""Fixtures shared by the test modules."""

import functools

import pytest

import wynerrelay.sweep


@pytest.fixture
def quick_simulator(monkeypatch):
    """Run the --oracle ring simulation on 4096 symbols instead of 2^20.

    The cross-check columns keep their names and order; only the Monte
    Carlo estimate is coarser, which tests of table layout can afford.
    """
    monkeypatch.setattr(
        wynerrelay.sweep, "simulate_relay_power",
        functools.partial(wynerrelay.sweep.simulate_relay_power, symbols=4096))
