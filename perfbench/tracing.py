"""Layer spans for the traced benchmark run.

The tracer replaces module-level names that the package's layers call
each other through (for example `wynerrelay.cf.rate_mcp`, the name
`cf_solve` uses) with thin wrappers that record one span per call. No
file under `src/` is touched: the wrappers live only for the duration
of a `with Tracer():` block, which restores every original name on exit.

A span records its layer name (`<module>.<function>` of the wrapped
function), start and end, the span that caused it, and the run id of
the `cli.main` call it belongs to. Spans stay in memory and are written
out once, after the traced passes.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import statistics
import threading
import time
from dataclasses import dataclass

# (module the name is looked up in, attribute). Each entry is a call
# path that exists in the package: e.g. `upper_bound` reaches `waterfill`
# through `wynerrelay.wyner.waterfill`, while `oracle_entries` reaches it
# through `wynerrelay.sweep.waterfill`. A name a later version no longer
# has is skipped, and its metrics read zero.
CALL_SITES = (
    ("wynerrelay.cli", "main"),
    ("wynerrelay.cli", "run_sweep"),
    ("wynerrelay.cli", "run_point"),
    ("wynerrelay.cli", "oracle_entries"),
    ("wynerrelay.cli", "emit"),
    ("wynerrelay.sweep", "run_point"),
    ("wynerrelay.sweep", "oracle_entries"),
    ("wynerrelay.sweep", "cf_solve"),
    ("wynerrelay.sweep", "optimal_gain"),
    ("wynerrelay.sweep", "af_rate"),
    ("wynerrelay.sweep", "af_rate_finite"),
    ("wynerrelay.sweep", "simulate_relay_power"),
    ("wynerrelay.sweep", "upper_bound"),
    ("wynerrelay.sweep", "waterfill"),
    ("wynerrelay.sweep", "rate_mcp_finite"),
    ("wynerrelay.cf", "rate_mcp"),
    ("wynerrelay.cf", "bisect_monotone"),
    ("wynerrelay.af", "bisect_monotone"),
    ("wynerrelay.wyner", "rate_mcp"),
    ("wynerrelay.wyner", "waterfill"),
    ("wynerrelay.wyner", "bisect_monotone"),
    ("wynerrelay.wyner", "integrate_periodic_report"),
    ("wynerrelay.numerics", "integrate_periodic_report"),
)


def unit(metric: str) -> str:
    """Unit of a per-layer metric, from its last name part."""
    stat = metric.rsplit(".", 1)[-1]
    if stat.endswith("ms"):
        return "ms"
    if "share" in stat:
        return "share"
    if stat == "max_abs_z":
        return "sigma"
    return "count"


def layer_name(func) -> str:
    """`wynerrelay.cf.cf_solve` -> `cf.cf_solve`."""
    return f"{func.__module__.rsplit('.', 1)[-1]}.{func.__qualname__}"


def _quadrature_arg(args, kwargs):
    if len(args) > 1:
        return args[1]
    return kwargs.get("quadrature")


def _count(name, args, kwargs, result):
    """Work counters recorded at the layer boundary, or None."""
    if name == "numerics.integrate_periodic_report":
        points = result[1]
        quadrature = _quadrature_arg(args, kwargs)
        initial = getattr(quadrature, "initial_points", 64)
        # Grids double from `initial` to `points`, so the integrand is
        # sampled initial + 2*initial + ... + points times (computed).
        return {"points": points, "samples": 2 * points - initial}
    if name == "numerics.bisect_monotone":
        return {"iterations": result.iterations}
    if name == "af.simulate_relay_power":
        config, gain = args[0], (args[1] if len(args) > 1 else kwargs["gain"])
        return {"symbols": result.symbols, "config": config, "gain": gain,
                "mean_power": result.mean_power, "std_error": result.std_error}
    return None


@dataclass
class Span:
    """One call through a wrapped name; `run` is the sid of its cli.main span."""

    sid: int
    parent: int | None
    run: int
    name: str
    start_ns: int
    end_ns: int
    counts: dict | None

    @property
    def ms(self) -> float:
        return (self.end_ns - self.start_ns) / 1e6


class Tracer:
    """Context manager that wraps CALL_SITES and collects spans."""

    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._stacks: dict[int, list] = {}
        self._client = None
        self._patched: list = []

    def __enter__(self):
        self._client = threading.get_ident()
        wrappers = {}
        for module_name, attribute in CALL_SITES:
            module = importlib.import_module(module_name)
            original = getattr(module, attribute, None)
            if original is None:
                continue
            if original not in wrappers:
                wrappers[original] = self._wrap(original)
            self._patched.append((module, attribute, original))
            setattr(module, attribute, wrappers[original])
        return self

    def __exit__(self, *exc):
        for module, attribute, original in reversed(self._patched):
            setattr(module, attribute, original)
        return False

    def restored(self) -> bool:
        """True when every wrapped name is the original object again."""
        return all(getattr(module, attribute) is original
                   for module, attribute, original in self._patched)

    def _parent(self, stack):
        if stack:
            return stack[-1]
        # A span opened on an empty stack in a worker thread belongs to
        # the span the client thread is blocked in (run_sweep's pool).
        client = self._stacks.get(self._client)
        if client and threading.get_ident() != self._client:
            return client[-1]
        return None

    def _wrap(self, func):
        name = layer_name(func)
        tracer = self

        @functools.wraps(func)
        def traced(*args, **kwargs):
            stack = tracer._stacks.setdefault(threading.get_ident(), [])
            parent = tracer._parent(stack)
            sid = next(tracer._ids)
            run = parent[1] if parent else sid
            stack.append((sid, run))
            result = None
            start = time.perf_counter_ns()
            try:
                result = func(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                counts = None if result is None else _count(name, args, kwargs, result)
                tracer.spans.append(Span(sid, parent[0] if parent else None, run,
                                         name, start, end, counts))
        return traced

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                counts = None
                if span.counts:
                    counts = {key: value for key, value in span.counts.items()
                              if isinstance(value, (int, float))}
                handle.write(json.dumps([span.sid, span.parent, span.run, span.name,
                                         span.start_ns, span.end_ns, counts]) + "\n")


def _covered_ns(intervals, start, end) -> int:
    """Length of the union of intervals, clipped to [start, end]."""
    covered = 0
    cursor = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, cursor), min(hi, end)
        if hi > lo:
            covered += hi - lo
            cursor = hi
    return covered


def self_ms(spans) -> dict:
    """Span id -> duration minus the part its children cover, in ms."""
    children: dict[int, list] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start_ns, span.end_ns))
    return {span.sid: (span.end_ns - span.start_ns
                       - _covered_ns(children.get(span.sid, ()), span.start_ns,
                                     span.end_ns)) / 1e6
            for span in spans}


def layer_metrics(spans, passes: int, relay_output_power, simulator=False) -> dict:
    """Per-layer metrics per workload pass, named `<module>.<function>.<stat>`.

    The Monte Carlo simulator's metrics (and the finite-ring cross-checks
    that run beside it) are reported only with `simulator`, for the oracle
    workload: no other workload reaches that code.
    """
    by_name: dict[str, list] = {}
    for span in spans:
        by_name.setdefault(span.name, []).append(span)
    own = self_ms(spans)

    def calls(name):
        return len(by_name.get(name, ())) / passes

    def total_ms(name):
        return sum(span.ms for span in by_name.get(name, ())) / passes

    def total_self_ms(name):
        return sum(own[span.sid] for span in by_name.get(name, ())) / passes

    def count_sum(name, key):
        return sum(span.counts[key] for span in by_name.get(name, ())
                   if span.counts) / passes

    roots = by_name.get("cli.main", [])

    def share(name, runs=None):
        """Share of the requests' wall time during which `name` was running.

        Spans of one layer overlap under --jobs 2, so their union is taken
        per request; the share therefore stays within [0, 1].
        """
        chosen = [root for root in roots if runs is None or root.sid in runs]
        intervals: dict[int, list] = {}
        for span in by_name.get(name, ()):
            intervals.setdefault(span.run, []).append((span.start_ns, span.end_ns))
        covered = sum(_covered_ns(intervals.get(root.sid, ()), root.start_ns,
                                  root.end_ns) for root in chosen)
        total = sum(root.end_ns - root.start_ns for root in chosen)
        return covered / total if total else 0.0

    # The slower half of requests, where the waterfilling tail should sit.
    median_ms = statistics.median(span.ms for span in roots) if roots else 0.0
    slow_runs = {span.sid for span in roots if span.ms > median_ms}

    parent_of = {span.sid: span.parent for span in spans}
    cf_ids = {span.sid for span in by_name.get("cf.cf_solve", ())}

    def inside_cf(span) -> bool:
        sid = span.parent
        while sid is not None and sid not in cf_ids:
            sid = parent_of.get(sid)
        return sid is not None

    cf_calls = len(cf_ids)
    cf_rate_mcp = sum(1 for span in by_name.get("wyner.rate_mcp", ()) if inside_cf(span))

    report = by_name.get("numerics.integrate_periodic_report", ())
    metrics = {
        "cf.cf_solve.calls": calls("cf.cf_solve"),
        "cf.cf_solve.ms": total_ms("cf.cf_solve"),
        "cf.cf_solve.self_ms": total_self_ms("cf.cf_solve"),
        "cf.cf_solve.rate_mcp_per_call": cf_rate_mcp / cf_calls if cf_calls else 0.0,
        "cf.cf_solve.share": share("cf.cf_solve"),
        "wyner.rate_mcp.calls": calls("wyner.rate_mcp"),
        "wyner.rate_mcp.ms": total_ms("wyner.rate_mcp"),
        "numerics.bisect_monotone.calls": calls("numerics.bisect_monotone"),
        "numerics.bisect_monotone.iterations":
            count_sum("numerics.bisect_monotone", "iterations"),
        "numerics.bisect_monotone.ms": total_ms("numerics.bisect_monotone"),
        "numerics.integrate_periodic_report.calls":
            calls("numerics.integrate_periodic_report"),
        "numerics.integrate_periodic_report.ms":
            total_ms("numerics.integrate_periodic_report"),
        "numerics.integrate_periodic_report.samples":
            count_sum("numerics.integrate_periodic_report", "samples"),
        "numerics.integrate_periodic_report.max_points":
            max((span.counts["points"] for span in report if span.counts), default=0),
        "wyner.waterfill.calls": calls("wyner.waterfill"),
        "wyner.waterfill.ms": total_ms("wyner.waterfill"),
        "wyner.waterfill.max_ms":
            max((span.ms for span in by_name.get("wyner.waterfill", ())), default=0.0),
        "wyner.waterfill.share_above_p50": share("wyner.waterfill", slow_runs),
        "wyner.upper_bound.ms": total_ms("wyner.upper_bound"),
        "af.optimal_gain.calls": calls("af.optimal_gain"),
        "af.optimal_gain.ms": total_ms("af.optimal_gain"),
        "af.af_rate.calls": calls("af.af_rate"),
        "af.af_rate.ms": total_ms("af.af_rate"),
        "sweep.run_sweep.self_ms": total_self_ms("sweep.run_sweep"),
        "sweep.run_point.calls": calls("sweep.run_point"),
        "sweep.run_point.self_ms": total_self_ms("sweep.run_point"),
        "sweep.emit.ms": total_ms("sweep.emit"),
        "cli.main.calls": calls("cli.main"),
        "cli.main.ms": total_ms("cli.main"),
        "cli.main.self_ms": total_self_ms("cli.main"),
    }
    if not simulator:
        return metrics

    z_scores = []
    for span in by_name.get("af.simulate_relay_power", ()):
        counts = span.counts
        if counts and counts["std_error"] > 0.0:
            exact = relay_output_power(counts["gain"], counts["config"])
            z_scores.append(abs(counts["mean_power"] - exact) / counts["std_error"])
    metrics.update({
        "af.simulate_relay_power.calls": calls("af.simulate_relay_power"),
        "af.simulate_relay_power.ms": total_ms("af.simulate_relay_power"),
        "af.simulate_relay_power.symbols":
            count_sum("af.simulate_relay_power", "symbols"),
        "af.simulate_relay_power.max_abs_z": max(z_scores, default=0.0),
        "af.simulate_relay_power.share": share("af.simulate_relay_power"),
        "af.af_rate_finite.ms": total_ms("af.af_rate_finite"),
        "wyner.rate_mcp_finite.ms": total_ms("wyner.rate_mcp_finite"),
        "sweep.oracle_entries.self_ms": total_self_ms("sweep.oracle_entries"),
    })
    return metrics
