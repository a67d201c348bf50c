"""The stock operating point and the references that several test modules share.

The stock point is the program's own `DEFAULT_CONFIG_MAPPING` in its
all-linear form: power_p = 10 and power_q = 100, which are exactly
10^(10/10) and 10^(20/10).
"""

import functools
import json
from pathlib import Path

from wynerrelay import QuadratureConfig, parse_config
from wynerrelay.model import DEFAULT_CONFIG_MAPPING, config_to_mapping

STOCK_MAPPING = config_to_mapping(parse_config(DEFAULT_CONFIG_MAPPING))

# A finer tolerance and a larger ceiling than the library's, for references.
TIGHT = QuadratureConfig(max_points=2**22, rel_tol=1e-12)

# The benchmark's seeded pools of configs.
REFERENCE = Path(__file__).parents[1] / "perfbench" / "reference"
POINT_POOL = REFERENCE / "points.json"
RATE_POOL = REFERENCE / "rate_points.json"


@functools.cache
def pool_configs(path: Path) -> tuple:
    """The parsed SystemConfigs of a reference pool, POINT_POOL or RATE_POOL."""
    return tuple(parse_config(point["config"])
                 for variants in json.loads(path.read_text())["pool"] for point in variants)


# The recorded `figure fig3` CSV, which the CLI and the library must both match.
FIG3_GOLDEN = Path(__file__).parent / "data" / "fig3_golden.csv"

# The model's four exact scalings, each as the power of k that multiplies a
# field. Every rate is unchanged in exact arithmetic, and with k a power of
# two every scaled field is exact too.
SCALINGS = {
    "P,N1,mu": {"power_p": 2, "noise1": 2, "mu": 1},
    "Q,N2,mu": {"power_q": 2, "noise2": 2, "mu": -1},
    "alpha,beta,P": {"alpha": 1, "beta": 1, "power_p": -2},
    "gamma,eta,mu,Q": {"gamma": 1, "eta": 1, "mu": 1, "power_q": -2},
}


def stock_mapping(**overrides) -> dict:
    """A fresh copy of the stock all-linear mapping, with `overrides` set."""
    return {**STOCK_MAPPING, **overrides}


def stock_config(**overrides):
    """The stock SystemConfig, with `overrides` set."""
    return parse_config(stock_mapping(**overrides))
