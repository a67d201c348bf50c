"""Benchmark of the wynerrelay command-line tool and library.

    python3 perfbench/run.py --workload presets --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10

Workloads (BENCHMARK.json gates the first two and says why each was chosen):

- presets: `figure fig3|fig4|fig5` at --jobs 1 and at --jobs 2;
- rate_queries: 200 seeded `rate` queries with the second hop kept off
  spectral nulls, which bounds the waterfilling tail;
- point_queries: 200 seeded `rate` queries over the whole validated space.
  Its clamped waterfilling queries take up to 1.3 s and a pass about 25 s,
  so a run fits only two passes and its figures move with the host's
  speed by more than a regression bound allows;
- oracle: a 5-point `sweep --oracle` of the fig4 base, at --jobs 1 and 2.
  Nearly all of its time is the Monte Carlo simulator's Python loop, whose
  speed on a shared host drifts too much between runs for a regression
  bound.
The last two are run by hand (`--workload point_queries|oracle`).

One client calls `wynerrelay.cli.main(argv)` in a closed loop, in this
process. A pass runs every call of the workload once. presets and
rate_queries repeat passes while the middle of the next one would fall
within --seconds; point_queries and oracle make a fixed two. A call's time
is the lower median of its repeats over the passes (see `call_times`).
Every output is checked against the references in perfbench/reference/.

With --trace 0 the last line holds the end-to-end metrics. With --trace 1
the passes run untraced (for half of --seconds, or half the fixed count),
then as many passes run traced, and the last line holds per-layer metrics
per pass from the traced passes; the spans are written to
.bench_build/perfbench/.

With --workload all the workloads run one after another in this process,
so each one's peak_rss_mb is the process's peak so far.

Exit status: 0 when every check passed, 1 when a correctness check
failed, 2 when the benchmark itself could not run.
"""

from __future__ import annotations

import os

# Pinned before numpy loads, so the benchmark's own process stays on the
# threads it starts itself (at most 2, from --jobs 2).
PINNED = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")
for _name in PINNED:
    os.environ[_name] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import re  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 21
CALIBRATION_REPEATS = 5
METRIC_NAME = re.compile(r"[A-Za-z0-9_.-]+\Z")

# The program is built from the checkout's sources; without them there is
# nothing to measure and no result is printed.
sys.path[:0] = [str(ROOT / "src"), str(HERE)]
try:
    import numpy as np
    import wynerrelay
    from wynerrelay.af import relay_output_power

    import tracing
    from workloads import (REFERENCE, WORKLOADS, Op, PointQueries, call,
                           edge_configs, failing_scheme, select_points)
except ImportError as exc:
    print(f"perfbench: cannot import the program from {ROOT / 'src'}: {exc}",
          file=sys.stderr)
    sys.exit(2)

UNITS = {
    "setup_s": "s",
    "points_per_s": "1/s",
    "jobs2_points_per_s": "1/s",
    "point_p50_ms": "ms",
    "point_p95_ms": "ms",
    "peak_rss_mb": "MB",
}


@dataclass
class Outcome:
    """One finished call: which op, how long, how it ended."""

    op: Op
    seconds: float
    code: int
    message: str


class HarnessError(RuntimeError):
    """The benchmark could not measure; no result is printed."""


def measure_setup() -> float:
    """Median wall time of a fresh `python -m wynerrelay --version`."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        done = subprocess.run([sys.executable, "-m", "wynerrelay", "--version"],
                              cwd=ROOT, env=env, capture_output=True, timeout=60)
        times.append(time.perf_counter() - start)
        if done.returncode != 0 or not done.stdout.startswith(b"wynerrelay "):
            raise HarnessError(f"wynerrelay --version failed: {done.stderr!r}")
    return statistics.median(times)


def calibrate() -> float:
    """Median ms of a fixed interpreter + numpy loop, to expose machine drift."""
    grid = np.arange(1 << 16) / (1 << 16)
    times = []
    for _ in range(CALIBRATION_REPEATS):
        start = time.perf_counter()
        sum(k * 0.5 for k in range(50_000))
        ring = np.ones(64)
        for _ in range(2_000):
            ring = 0.5 * (np.roll(ring, 1) + np.roll(ring, -1))
        float(np.sum(np.log1p(np.square(np.cos(2.0 * np.pi * grid)))))
        times.append(time.perf_counter() - start)
    return statistics.median(times) * 1e3


def run_passes(workload, outcomes, problems, *, budget=None, count=None) -> int:
    """Run whole passes: `count` of them, or, for a time `budget` in seconds,
    while the middle of another pass would still fall inside the budget."""
    start = time.perf_counter()
    passes = 0
    while True:
        for op in workload.ops():
            code, seconds, message = call(op.argv)
            outcomes.append(Outcome(op, seconds, code, message))
            if code == 0:
                problems += op.check(op.output.read_bytes())
        passes += 1
        if count is not None:
            if passes >= count:
                return passes
        else:
            elapsed = time.perf_counter() - start
            if elapsed + elapsed / passes / 2 > budget:
                return passes


def percentile(values, share: float) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[round(share * 100) - 1]


def call_times(outcomes) -> list:
    """(op, seconds) for each call of a pass: the lower median of its repeats.

    Contention from other tenants of a shared host only ever adds time and
    comes and goes within seconds, so the slower half of a call's repeats
    says more about the host than the program. With two passes this is the
    faster repeat; with one, the only one.
    """
    repeats = {}
    for o in outcomes:
        repeats.setdefault(o.op.label, (o.op, []))[1].append(o.seconds)
    return [(op, statistics.median_low(seconds)) for op, seconds in repeats.values()]


def end_to_end(outcomes, setup_s: float) -> dict:
    calls = call_times(outcomes)

    def rate(jobs):
        chosen = [(op, seconds) for op, seconds in calls if op.jobs == jobs]
        return sum(op.points for op, _ in chosen) / sum(seconds for _, seconds in chosen)

    latencies = [seconds * 1e3 / op.points for op, seconds in calls]
    return {
        "setup_s": setup_s,
        "points_per_s": rate(1),
        "jobs2_points_per_s": rate(2),
        "point_p50_ms": statistics.median(latencies),
        "point_p95_ms": percentile(latencies, 0.95),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def failure_lines(outcomes) -> list:
    return [f"{o.op.label}: scheme {failing_scheme(o.message)}: exit {o.code}: "
            f"{o.message}" for o in outcomes if o.code != 0]


def check_generator(seed: int) -> None:
    """The query workloads' inputs depend on the seed and on nothing else."""
    for workload in WORKLOADS.values():
        if not issubclass(workload, PointQueries):
            continue
        pool = json.loads((REFERENCE / workload.pool_file).read_text())["pool"]
        first, again = select_points(seed, pool), select_points(seed, pool)
        if first != again or edge_configs(seed, first) != edge_configs(seed, again):
            raise HarnessError(f"{workload.name} inputs are not deterministic "
                               "for one seed")
        if select_points(seed + 1, pool) == first:
            raise HarnessError(f"{workload.name} inputs ignore the seed")


def check_names(name: str, units: dict, traced: bool) -> None:
    """Metric names are well formed and are the ones BENCHMARK.json declares.

    A workload BENCHMARK.json lists reports exactly the declared metrics;
    one run by hand may report more (the oracle's simulator metrics).
    """
    bad = [key for key in units if not METRIC_NAME.match(key)]
    if bad:
        raise HarnessError(f"metric names outside [A-Za-z0-9_.-]: {bad}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {metric["name"]: metric["unit"]
                for metric in spec["per_layer" if traced else "end_to_end"]}
    gated = name in {workload["name"] for workload in spec["workloads"]}
    reported = units if gated else {key: units[key] for key in declared if key in units}
    if declared != reported:
        raise HarnessError(f"metrics {units} differ from BENCHMARK.json {declared}")


def measure_traced(workload, seconds, outcomes, problems, spans_path):
    """Untraced passes (for seconds/2, or half the fixed count), then as
    many traced; per-layer metrics."""
    if workload.passes is None:
        passes = run_passes(workload, outcomes, problems, budget=seconds / 2)
    else:
        passes = run_passes(workload, outcomes, problems,
                            count=max(1, workload.passes // 2))
    plain_s = sum(o.seconds for o in outcomes)
    traced = []
    with tracing.Tracer() as tracer:
        run_passes(workload, traced, problems, count=passes)
    if not tracer.restored():
        raise HarnessError("traced names were not restored after tracing")
    tracer.write(spans_path)
    metrics = tracing.layer_metrics(tracer.spans, passes, relay_output_power,
                                    simulator=workload.name == "oracle")
    metrics["trace.overhead_share"] = sum(o.seconds for o in traced) / plain_s - 1.0
    outcomes += traced
    return passes, metrics


def run_workload(name: str, seed: int, seconds: float, traced: bool, work: Path):
    """Measure one workload; return (report lines, result object)."""
    calib_ms = calibrate()
    setup_s = None if traced else measure_setup()
    spans_path = work / f"spans-{name}.jsonl"
    run_dir = work / f"{name}-{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    outcomes, probes, problems = [], [], []
    try:
        workload = WORKLOADS[name](ROOT, run_dir, seed)
        call(["rate", "--output", str(run_dir / "warmup.csv")])  # lazy imports, caches
        if traced:
            passes, metrics = measure_traced(workload, seconds, outcomes, problems,
                                             spans_path)
        else:
            passes = run_passes(workload, outcomes, problems, budget=seconds,
                                count=workload.passes)
            metrics = end_to_end(outcomes, setup_s)
        for op in workload.probe():
            code, elapsed, message = call(op.argv)
            probes.append(Outcome(op, elapsed, code, message))
            if code == 0:
                problems += op.check(op.output.read_bytes())
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    failed = sum(o.code != 0 for o in outcomes)

    if traced:
        metrics["machine.calib_ms"] = calib_ms
        units = {key: tracing.unit(key) for key in metrics}
    else:
        units = UNITS
    check_names(name, {key: units[key] for key in metrics}, traced)

    lines = [
        f"workload {name}  seed {seed}  seconds {seconds:g}  trace {int(traced)}",
        f"machine: nproc {os.cpu_count()}, python {platform.python_version()}, "
        f"numpy {np.__version__}, wynerrelay {wynerrelay.__version__}, "
        + ", ".join(f"{var}={os.environ[var]}" for var in PINNED)
        + f", calib_ms {calib_ms:.3f}",
        f"{passes} passes{' untraced, then as many traced' if traced else ''}: "
        f"{len(outcomes)} calls, {sum(o.op.points for o in outcomes)} points, "
        f"{failed} failed",
    ]
    if traced:
        lines.append(f"spans written to {spans_path.relative_to(ROOT)}")
        lines.append("per-layer metrics, per pass of the traced run:")
    else:
        latencies = [seconds * 1e3 / op.points for op, seconds in call_times(outcomes)]
        beyond = sum(latency > metrics["point_p95_ms"] for latency in latencies)
        lines.append(f"end-to-end metrics (per call, the lower median of its {passes} "
                     f"repeats; latency over {len(latencies)} calls, {beyond} above p95; "
                     f"setup_s is the median of {SETUP_REPEATS}):")
    lines += [f"  {key:46s} {value:14.6f} {units[key]}" for key, value in metrics.items()]
    lines += [f"FAILED {line}" for line in failure_lines(outcomes)]
    if probes:
        lines.append(f"edge probe, not measured: {len(probes)} configs, "
                     f"{sum(o.code != 0 for o in probes)} failed")
    lines += [f"edge probe, known failure, not measured: {line}"
              for line in failure_lines(probes)]
    lines += [f"CHECK FAILED {problem}" for problem in problems]
    lines.append("checks: " + ("ok" if not problems and not failed else
                               f"{len(problems)} problems, {failed} failed calls"))

    result = {"correct": not problems and failed == 0, "attempted": len(outcomes),
              "failed": failed,
              "metrics": {key: {"value": value, "unit": units[key]}
                          for key, value in metrics.items()}}
    return lines, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=tuple(WORKLOADS) + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    work = ROOT / ".bench_build" / "perfbench"
    names = tuple(WORKLOADS) if args.workload == "all" else (args.workload,)
    try:
        check_generator(args.seed)
        results = {}
        for name in names:
            lines, results[name] = run_workload(name, args.seed, args.seconds,
                                                bool(args.trace), work)
            print("\n".join(lines), flush=True)
    except (HarnessError, OSError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    if len(results) == 1:
        result = results[names[0]]
    else:
        result = {
            "correct": all(one["correct"] for one in results.values()),
            "attempted": sum(one["attempted"] for one in results.values()),
            "failed": sum(one["failed"] for one in results.values()),
            "metrics": {f"{name}.{key}": value for name, one in results.items()
                        for key, value in one["metrics"].items()},
        }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
