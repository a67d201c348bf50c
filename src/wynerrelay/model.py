"""Domain types and configuration handling for the relay ring rate library.

Channel gains are real amplitude gains. Transmit and noise powers are linear
quantities; the two transmit powers may alternatively be given in dB when a
configuration is read from a key-value mapping (see parse_config). Every rate
produced by this package is in bits per channel use. The quadrature policy,
QuadratureConfig, is set by its grid ceiling and tolerance alone.
"""

from __future__ import annotations

import functools
import json
import math
import numbers
from dataclasses import dataclass, field, fields

from . import __version__ as PACKAGE_VERSION


class ConfigError(ValueError):
    """A configuration mapping or field failed validation."""


def db_to_linear(value_db: float) -> float:
    """Convert a power quantity from dB to its linear value, or raise
    ConfigError where that value would pass the largest double."""
    try:
        return 10.0 ** (value_db / 10.0)
    except OverflowError:
        raise ConfigError(f"{value_db} dB overflows a linear power") from None


def _require_finite(name: str, value, sign: str | None = None) -> float:
    """The input as a finite float; sign is None, "nonnegative" or "positive"."""
    # A plain float skips the slow ABC check; the rest take the full one.
    if type(value) is not float and (isinstance(value, bool)
                                     or not isinstance(value, numbers.Real)):
        raise ConfigError(f"{name} must be a real number, got {value!r}")
    try:
        value = float(value)
    except OverflowError:
        # An integer past the double range. Its digits are not printed:
        # str() refuses an int of more than 4300 digits.
        raise ConfigError(f"{name} must be finite, got a value beyond the "
                          "largest double") from None
    if not math.isfinite(value):
        raise ConfigError(f"{name} must be finite, got {value}")
    if sign is not None and (value < 0.0 or (value == 0.0 and sign == "positive")):
        raise ConfigError(f"{name} must be {sign}, got {value}")
    return value


def _require_integer(name: str, value, minimum: int) -> int:
    """The input as an int no smaller than minimum."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    value = int(value)
    if value < minimum:
        raise ConfigError(f"{name} must be at least {minimum}, got {value}")
    return value


@dataclass(frozen=True)
class LagGains:
    """Amplitude gains of one hop of the two-hop ring.

    The hop's frequency response is local + 2*cross*cos(2*pi*f), where
    `local` is the in-cell gain and `cross` the gain toward each of the two
    adjacent cells.
    """

    local: float
    cross: float

    def __post_init__(self):
        for name in ("local", "cross"):
            value = _require_finite(name, getattr(self, name), "nonnegative")
            object.__setattr__(self, name, value)


# Every field but the two noise floors may be zero: either transmit power
# may be (silent uplink and silent relays are both meaningful limits),
# while the noise floors must stay strictly positive.
_POSITIVE = ("noise1", "noise2")


@dataclass(frozen=True)
class SystemConfig:
    """Complete description of the two-hop ring system.

    alpha:   MT to adjacent-cell RT amplitude gain
    beta:    MT to local RT amplitude gain
    gamma:   RT to local BS amplitude gain
    eta:     RT to adjacent-cell BS amplitude gain
    mu:      RT to adjacent-cell RT (inter-relay) amplitude gain
    power_p: MT transmit power, linear
    power_q: RT transmit power budget, linear
    noise1:  RT-side noise power, linear
    noise2:  BS-side noise power, linear
    """

    alpha: float
    beta: float
    gamma: float
    eta: float
    mu: float
    power_p: float
    power_q: float
    noise1: float
    noise2: float

    def __post_init__(self):
        for name, sign in _SYSTEM_FIELDS:
            value = _require_finite(name, getattr(self, name), sign)
            object.__setattr__(self, name, value)

    @property
    def rho1(self) -> float:
        """SNR of the MT-to-RT hop: P over the RT noise floor."""
        return self.power_p / self.noise1

    @property
    def rho2(self) -> float:
        """SNR of the RT-to-BS hop: Q over the BS noise floor."""
        return self.power_q / self.noise2

    # Built on first use and kept on the instance, so each config validates
    # one LagGains per hop however often a sweep point reads it.
    @functools.cached_property
    def first_lag(self) -> LagGains:
        return LagGains(local=self.beta, cross=self.alpha)

    @functools.cached_property
    def second_lag(self) -> LagGains:
        return LagGains(local=self.gamma, cross=self.eta)


# Each field's name and the sign `SystemConfig.__post_init__` requires of it.
_SYSTEM_FIELDS = tuple(
    (entry.name, "positive" if entry.name in _POSITIVE else "nonnegative")
    for entry in fields(SystemConfig))


@dataclass(frozen=True)
class QuadratureConfig:
    """Resolution and convergence policy for the periodic quadrature.

    The grid starts at initial_points = min(64, max_points // 2) samples, so
    that any ceiling compares two grids, and doubles until successive
    estimates agree to rel_tol (relative above magnitude one, absolute
    below), giving up beyond max_points, a power of two no smaller than 8.
    """

    max_points: int = 2 ** 22
    rel_tol: float = 1e-10
    initial_points: int = field(init=False)

    def __post_init__(self):
        maximum = _require_integer("max_points", self.max_points, 8)
        if (maximum & (maximum - 1)) != 0:
            raise ConfigError(f"max_points must be a power of two, got {maximum}")
        rel_tol = _require_finite("rel_tol", self.rel_tol)
        if not 0.0 < rel_tol < 1.0:
            raise ConfigError(f"rel_tol must lie in (0, 1), got {rel_tol}")
        object.__setattr__(self, "max_points", maximum)
        object.__setattr__(self, "rel_tol", rel_tol)
        object.__setattr__(self, "initial_points", min(64, maximum // 2))


DEFAULT_QUADRATURE = QuadratureConfig()

# The fields given only in linear form: the gains, then the noise powers.
_LINEAR_KEYS = ("alpha", "beta", "gamma", "eta", "mu", "noise1", "noise2")
_POWER_KEYS = {"power_p": "P_dB", "power_q": "Q_dB"}

# The stock operating point used when the CLI is given no configuration.
DEFAULT_CONFIG_MAPPING = {
    "alpha": 0.2,
    "beta": 1.0,
    "gamma": 1.0,
    "eta": 0.2,
    "mu": 0.4,
    "P_dB": 10.0,
    "Q_dB": 20.0,
    "noise1": 1.0,
    "noise2": 1.0,
}


def parse_config(source) -> SystemConfig:
    """Build a SystemConfig from a flat key-value mapping.

    Gains and noise powers are linear. Each transmit power is given either
    linearly (power_p, power_q) or in dB (P_dB, Q_dB); supplying both forms
    of the same power is an error, as are unknown keys, missing keys, and
    non-finite values; `SystemConfig` checks the fields, and this only the
    dB values. Error messages name the offending key.
    """
    entries = dict(source)
    known = {*_LINEAR_KEYS, *_POWER_KEYS, *_POWER_KEYS.values()}
    unknown = sorted(set(map(str, entries)) - known)
    if unknown:
        raise ConfigError(f"unknown config key(s): {', '.join(unknown)}")

    kwargs = {}
    for key in _LINEAR_KEYS:
        if key not in entries:
            raise ConfigError(f"missing config key '{key}'")
        kwargs[key] = entries[key]
    for linear_key, db_key in _POWER_KEYS.items():
        if linear_key in entries and db_key in entries:
            raise ConfigError(
                f"config keys '{linear_key}' and '{db_key}' both present; "
                "give the power in exactly one form")
        if linear_key in entries:
            kwargs[linear_key] = entries[linear_key]
        elif db_key in entries:
            value_db = _require_finite(db_key, entries[db_key])
            try:
                kwargs[linear_key] = db_to_linear(value_db)
            except ConfigError as exc:
                raise ConfigError(f"{db_key}: {exc}") from None
        else:
            raise ConfigError(f"missing config key '{linear_key}' (or '{db_key}')")
    return SystemConfig(**kwargs)


def config_to_mapping(config: SystemConfig) -> dict:
    """Flat all-linear mapping accepted by parse_config; round-trips exactly."""
    return {f.name: getattr(config, f.name) for f in fields(config)}


def load_mapping(path) -> dict:
    """Read a JSON object file into a flat mapping (not yet validated)."""
    with open(path, "r", encoding="utf-8") as handle:
        try:
            document = json.load(handle)
        # JSONDecodeError, undecodable UTF-8 and an over-long integer
        # literal are all ValueErrors.
        except ValueError as exc:
            raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(document, dict):
        raise ConfigError(f"config file {path} must hold a single JSON object")
    return document
