"""Record the benchmark's reference outputs from the current program.

    python3 perfbench/record.py

Writes, under perfbench/reference/:

- fig4.csv, fig5.csv: `figure fig4|fig5` CSV output (fig3's reference is
  tests/data/fig3_golden.csv);
- oracle.csv: the axis and scheme columns of the oracle workload's sweep
  (its Monte Carlo columns change with the seed and are not recorded);
- points.json, rate_points.json: the point_queries and rate_queries
  pools (see `design`) and the `rate` output of every configuration in
  them.

The benchmark compares every run's scheme values against these files,
so they are recorded once and only re-recorded on purpose.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

from workloads import (ORACLE_ARGS, REFERENCE, SCHEMES, call,  # noqa: E402
                       parse_rate, parse_table)

# The validated space point_queries draws from. eta is drawn as a share
# of gamma, so eta reaches 0.7*gamma and the second hop's response
# gamma + 2*eta*cos(2*pi*f) crosses zero for eta > gamma/2.
SECOND_HOP = {"gamma": (0.5, 1.5), "eta_share": (0.0, 0.7), "Q_dB": (-10.0, 40.0)}
# rate_queries keeps the second hop off spectral nulls (the response stays
# at or above 0.1*gamma) and Q at 5 dB or more. Waterfilling still clamps
# on about a tenth of these points, but its grids stay small enough that
# one `rate` query takes at most about 0.3 s instead of 1.3 s.
SMOOTH_SECOND_HOP = {"gamma": (0.5, 1.5), "eta_share": (0.0, 0.45), "Q_dB": (5.0, 40.0)}
POOLS = {"points.json": SECOND_HOP, "rate_points.json": SMOOTH_SECOND_HOP}
FIRST_HOP = {"alpha": (0.0, 0.6), "beta": (0.5, 1.5), "mu": (0.0, 0.9),
             "P_dB": (-10.0, 40.0)}
DESIGN_POINTS = 200
VARIANTS = 4
DESIGN_SEED = 2008


def latin_hypercube(rng, ranges: dict, size: int) -> list:
    """`size` points, one in each of `size` strata of every range."""
    columns = {name: lo + (hi - lo) * (rng.permutation(size) + rng.uniform(size=size))
               / size for name, (lo, hi) in ranges.items()}
    return [{name: float(column[i]) for name, column in columns.items()}
            for i in range(size)]


def design(second_hop: dict) -> list:
    """DESIGN_POINTS lists of VARIANTS config mappings.

    The second hop (gamma, eta, Q), which alone sets the cost of the
    waterfilling upper bound, comes from one fixed Latin-hypercube design
    over `second_hop`.
    Each variant pairs it with first-hop and relay parameters (alpha,
    beta, mu, P) from a Latin hypercube of its own, so a seed that picks
    one variant per design point changes those inputs without changing
    how the expensive waterfilling cases are spread.
    """
    rng = np.random.default_rng(DESIGN_SEED)
    second = latin_hypercube(rng, second_hop, DESIGN_POINTS)
    firsts = [latin_hypercube(rng, FIRST_HOP, DESIGN_POINTS) for _ in range(VARIANTS)]
    pool = []
    for index, hop in enumerate(second):
        gamma = round(hop["gamma"], 6)
        pool.append([{
            "alpha": round(first[index]["alpha"], 6),
            "beta": round(first[index]["beta"], 6),
            "gamma": gamma,
            "eta": round(hop["eta_share"] * gamma, 6),
            "mu": round(first[index]["mu"], 6),
            "P_dB": round(first[index]["P_dB"], 4),
            "Q_dB": round(hop["Q_dB"], 4),
            "noise1": 1.0,
            "noise2": 1.0,
        } for first in firsts])
    return pool


def run(argv, output: Path) -> bytes:
    code, _, message = call(argv + ["--output", str(output)])
    if code != 0:
        raise SystemExit(f"{' '.join(argv)} failed with exit {code}: {message}")
    return output.read_bytes()


def main() -> None:
    with tempfile.TemporaryDirectory(dir=HERE) as scratch:
        work = Path(scratch)
        for figure in ("fig4", "fig5"):
            data = run(["figure", figure], work / "out.csv")
            (REFERENCE / f"{figure}.csv").write_bytes(data)
        rows = parse_table(run(ORACLE_ARGS, work / "out.csv"))
        lines = ["axis," + ",".join(SCHEMES)]
        lines += [",".join(repr(row[name]) for name in ("axis",) + SCHEMES)
                  for row in rows]
        (REFERENCE / "oracle.csv").write_text("\n".join(lines) + "\n")

        config_path = work / "config.json"
        for name, second_hop in POOLS.items():
            pool = []
            for index, variants in enumerate(design(second_hop)):
                recorded = []
                for config in variants:
                    config_path.write_text(json.dumps(config))
                    rates = parse_rate(run(["rate", "--config", str(config_path),
                                            "--schemes", ",".join(SCHEMES)],
                                           work / "out.csv"))
                    recorded.append({"config": config, "rates": rates})
                pool.append(recorded)
                print(f"{name}: point {index + 1}/{DESIGN_POINTS}", file=sys.stderr)
            document = {
                "second_hop_ranges": second_hop,
                "first_hop_ranges": FIRST_HOP,
                "design_points": DESIGN_POINTS,
                "variants": VARIANTS,
                "design_seed": DESIGN_SEED,
                "pool": pool,
            }
            (REFERENCE / name).write_text(json.dumps(document, indent=1) + "\n")


if __name__ == "__main__":
    main()
