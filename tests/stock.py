"""The stock operating point and the references that several test modules share.

The stock point is the program's own `DEFAULT_CONFIG_MAPPING` in its
all-linear form: power_p = 10 and power_q = 100, which are exactly
10^(10/10) and 10^(20/10).
"""

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

# The recorded `figure fig3` CSV, which the CLI and the library must both match.
FIG3_GOLDEN = Path(__file__).parent / "data" / "fig3_golden.csv"


def stock_mapping(**overrides) -> dict:
    """A fresh copy of the stock all-linear mapping, with `overrides` set."""
    return {**STOCK_MAPPING, **overrides}


def stock_config(**overrides):
    """The stock SystemConfig, with `overrides` set."""
    return parse_config(stock_mapping(**overrides))
