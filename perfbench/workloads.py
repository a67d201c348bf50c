"""The benchmark's workloads, their inputs and their correctness checks.

Each workload is a list of CLI calls ("ops") per pass, issued one after
another by a single client through `wynerrelay.cli.main(argv)` (closed
loop: the next call starts when the previous one returns). Outputs go to
files in the run's work directory and are checked after each call,
outside the timed interval.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
import time
from dataclasses import dataclass
from pathlib import Path

from wynerrelay import cli

# Scheme columns are compared with the recorded references; every other
# column (diagnostics, --oracle cross-checks and their Monte Carlo
# columns, which change with the seed) must only be finite.
SCHEMES = ("cf", "af", "af_mu0", "upper_bound")
TOLERANCE = 1e-9

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference"

ORACLE_ARGS = ["sweep", "--mu", "0.8", "--axis", "rho1_db", "--start", "-10",
               "--stop", "30", "--points", "5", "--schemes",
               "cf,af,af_mu0,upper_bound", "--oracle"]
ORACLE_POINTS = 5
EDGE_PROBES = 4


@dataclass
class Op:
    """One CLI call and what its output must satisfy."""

    label: str
    argv: list
    points: int
    jobs: int
    output: Path
    check: object  # callable(bytes) -> list of problem strings


def call(argv) -> tuple:
    """Run `cli.main(argv)`; return (exit code, seconds, error message).

    The name is looked up on the module at each call, so a traced run
    sees the wrapped `main`.
    """
    errors = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stderr(errors):
            code = cli.main(argv)
    except Exception as exc:  # a crash is a failed op, not a harness error
        seconds = time.perf_counter() - start
        return -1, seconds, f"{type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - start
    return code, seconds, errors.getvalue().strip()


def failing_scheme(message: str) -> str:
    """Scheme named in a `wynerrelay: error: <scheme>: ...` message, or '-'."""
    for part in message.split(": "):
        if part in SCHEMES or part == "oracle":
            return part
    return "-"


def parse_table(data: bytes) -> list:
    """CSV sweep output -> list of {column: float} rows."""
    lines = data.decode("ascii").splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, map(float, line.split(",")))) for line in lines[1:]]


def parse_rate(data: bytes) -> dict:
    """`rate` CSV output (quantity,value lines) -> {quantity: float}."""
    lines = data.decode("ascii").splitlines()[1:]
    return {name: float(value) for name, value in (line.split(",") for line in lines)}


def check_row(row: dict, expected: dict, where: str) -> list:
    """Reference values within TOLERANCE, every value finite, cf/af <= bound."""
    problems = []
    for name, value in row.items():
        if not math.isfinite(value):
            problems.append(f"{where}: {name} is not finite ({value})")
    for name, want in expected.items():
        got = row.get(name)
        if got is None:
            problems.append(f"{where}: {name} missing")
        elif not abs(got - want) <= TOLERANCE:
            problems.append(f"{where}: {name} = {got!r}, reference {want!r}")
    bound = row.get("upper_bound")
    for name in ("cf", "af"):
        if bound is not None and name in row and not row[name] <= bound:
            problems.append(f"{where}: {name} = {row[name]!r} exceeds "
                            f"upper_bound = {bound!r}")
    return problems


def check_table(data: bytes, reference: list, where: str) -> list:
    """Sweep output against reference rows: same axis, scheme values close."""
    rows = parse_table(data)
    if len(rows) != len(reference):
        return [f"{where}: {len(rows)} rows, reference has {len(reference)}"]
    problems = []
    for row, want in zip(rows, reference):
        if row.get("axis") != want["axis"]:
            problems.append(f"{where}: axis {row.get('axis')} != {want['axis']}")
        expected = {name: value for name, value in want.items() if name in SCHEMES}
        problems += check_row(row, expected, f"{where} at axis {want['axis']:g}")
    return problems


class Workload:
    """Inputs for one seed; `ops()` is one pass.

    `passes` is None when passes repeat for the run's time budget, or the
    fixed number of passes a run makes, for workloads whose passes are
    too long to repeat often.
    """

    name = ""
    passes = None

    def __init__(self, root: Path, work: Path, seed: int):
        self.root = root
        self.work = work
        self.seed = seed

    def ops(self) -> list:
        raise NotImplementedError

    def probe(self) -> list:
        """Known-failure configs run outside the measured loop."""
        return []


class Presets(Workload):
    """figure fig3, fig4, fig5 with CSV output, at --jobs 1 and --jobs 2."""

    name = "presets"
    FIGURES = (("fig3", 17), ("fig4", 21), ("fig5", 21))

    def __init__(self, root, work, seed):
        super().__init__(root, work, seed)
        golden = root / "tests" / "data" / "fig3_golden.csv"
        self.golden = golden.read_bytes()
        self.reference = {"fig3": parse_table(self.golden)}
        for figure in ("fig4", "fig5"):
            self.reference[figure] = parse_table(
                (REFERENCE / f"{figure}.csv").read_bytes())
        self.serial = {}

    def _check(self, figure: str, jobs: int):
        def check(data: bytes) -> list:
            where = f"{figure} --jobs {jobs}"
            problems = check_table(data, self.reference[figure], where)
            if figure == "fig3" and data != self.golden:
                problems.append(f"{where}: bytes differ from tests/data/fig3_golden.csv")
            if jobs == 1:
                self.serial[figure] = data
            elif data != self.serial.get(figure):
                problems.append(f"{where}: bytes differ from --jobs 1")
            return problems
        return check

    def ops(self) -> list:
        ops = []
        for jobs in (1, 2):
            for figure, points in self.FIGURES:
                output = self.work / f"{figure}-jobs{jobs}.csv"
                ops.append(Op(f"{figure} --jobs {jobs}",
                              ["figure", figure, "--jobs", str(jobs),
                               "--output", str(output)],
                              points, jobs, output, self._check(figure, jobs)))
        return ops


def select_points(seed: int, pool: list) -> list:
    """One variant of every design point, chosen by the seed.

    Design points fix the second hop; their variants differ in the first
    hop and relay parameters (see record.design), so every seed spreads
    the expensive waterfilling cases the same way while the inputs differ.
    """
    rng = random.Random(seed)
    return [variants[rng.randrange(len(variants))] for variants in pool]


def edge_configs(seed: int, points: list) -> list:
    """Valid configurations at the edge of the space: silent relays
    (power_q = 0) and a dead second hop (gamma = eta = 0)."""
    rng = random.Random(seed ^ 0x5EED)
    chosen = rng.sample(range(len(points)), EDGE_PROBES)
    configs = []
    for position, index in enumerate(chosen):
        config = dict(points[index]["config"])
        if position % 2 == 0:
            config.pop("Q_dB")
            config["power_q"] = 0.0
        else:
            config["gamma"] = 0.0
            config["eta"] = 0.0
        configs.append((index, config))
    return configs


class PointQueries(Workload):
    """`rate --schemes cf,af,af_mu0,upper_bound --config <file>` per point.

    Odd-indexed queries pass --jobs 2, which `rate` accepts and ignores;
    that half gives jobs2_points_per_s, so here it is single-threaded
    throughput too. A pass takes about 25 s, so a run makes two.
    """

    name = "point_queries"
    pool_file = "points.json"
    passes = 2

    def __init__(self, root, work, seed):
        super().__init__(root, work, seed)
        pool = json.loads((REFERENCE / self.pool_file).read_text())["pool"]
        self.points = select_points(seed, pool)
        self.configs = []
        for index, point in enumerate(self.points):
            path = work / f"point-{index}.json"
            path.write_text(json.dumps(point["config"]))
            self.configs.append(path)
        self.edges = []
        for index, config in edge_configs(seed, self.points):
            path = work / f"edge-{index}.json"
            path.write_text(json.dumps(config))
            self.edges.append((index, path))
        self.output = work / "rate.csv"

    def _argv(self, path: Path, jobs: int) -> list:
        return ["rate", "--config", str(path), "--schemes", ",".join(SCHEMES),
                "--jobs", str(jobs), "--output", str(self.output)]

    def ops(self) -> list:
        ops = []
        for index, (path, point) in enumerate(zip(self.configs, self.points)):
            jobs = 1 + index % 2

            def check(data, expected=point["rates"], where=f"point {index}"):
                return check_row(parse_rate(data), expected, where)
            ops.append(Op(f"point {index}", self._argv(path, jobs), 1, jobs,
                          self.output, check))
        return ops

    def probe(self) -> list:
        ops = []
        for index, path in self.edges:
            def check(data, where=f"edge config from point {index}"):
                return check_row(parse_rate(data), {}, where)
            ops.append(Op(f"edge point {index}", self._argv(path, 1), 1, 1,
                          self.output, check))
        return ops


class RateQueries(PointQueries):
    """point_queries with the second hop kept off spectral nulls.

    Its pool (see record.SMOOTH_SECOND_HOP) bounds the waterfilling tail,
    so a pass takes about 5 s and a run repeats it for its time budget.
    """

    name = "rate_queries"
    pool_file = "rate_points.json"
    passes = None


class Oracle(Workload):
    """The fig4 base on a 5-point grid with --oracle, at --jobs 1 and 2."""

    name = "oracle"
    passes = 2

    def __init__(self, root, work, seed):
        super().__init__(root, work, seed)
        self.reference = parse_table((REFERENCE / "oracle.csv").read_bytes())

    def ops(self) -> list:
        ops = []
        for jobs in (1, 2):
            output = self.work / f"oracle-jobs{jobs}.csv"

            def check(data, where=f"oracle --jobs {jobs}"):
                return check_table(data, self.reference, where)
            argv = ORACLE_ARGS + ["--seed", str(self.seed % 2 ** 64),
                                  "--jobs", str(jobs), "--output", str(output)]
            ops.append(Op(f"oracle --jobs {jobs}", argv, ORACLE_POINTS, jobs, output,
                          check))
        return ops


WORKLOADS = {cls.name: cls for cls in (Presets, RateQueries, PointQueries, Oracle)}
