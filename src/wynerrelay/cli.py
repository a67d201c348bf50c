"""Command-line front end.

Three subcommands: `rate` evaluates the schemes at one operating point,
`sweep` runs a generic one-axis sweep, and `figure` runs a preset sweep
from `sweep.FIGURES`. Exit codes: 0 on success, 1 for usage or
configuration problems, 2 when a numerical routine fails to converge.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .model import (ConfigError, QuadratureConfig, DEFAULT_CONFIG_MAPPING,
                    DEFAULT_QUADRATURE, PACKAGE_VERSION, _LINEAR_KEYS,
                    config_to_mapping, load_mapping, parse_config)
from .sweep import (AXES, FIGURES, SCHEME_ORDER, Figure, SchemeError, SweepSpec,
                    canonical_schemes, emit, run_metadata, run_point, run_sweep)

_DEFAULT_SCHEMES = ("cf", "af", "upper_bound")


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors, but this tool reserves 2 for
    # numerical failures; usage problems exit 1 instead.  Abbreviated long
    # options are refused so that a prefix of a dB flag can never pass for
    # a linear quantity.
    def __init__(self, *args, **kwargs):
        kwargs.setdefault("allow_abbrev", False)
        super().__init__(*args, **kwargs)

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


# Built on first use and kept for the process: main() may be called many
# times, and parse_args returns a fresh Namespace each time. Help, usage
# and error output read sys.stdout, sys.stderr and the terminal width when
# they are printed, not when the parser is built.
@functools.cache
def _build_parser() -> _Parser:
    common = _Parser(add_help=False)
    group = common.add_argument_group("system configuration")
    group.add_argument("--config", metavar="PATH",
                       help="JSON file with the system configuration")
    for name in _LINEAR_KEYS:
        group.add_argument(f"--{name}", type=float, metavar="X",
                           help=f"override {name} (linear)")
    group.add_argument("--P-dB", dest="p_db", type=float, metavar="DB",
                       help="override the mobile transmit power, in dB")
    group.add_argument("--Q-dB", dest="q_db", type=float, metavar="DB",
                       help="override the relay power budget, in dB")
    run = common.add_argument_group("execution and output")
    run.add_argument("--schemes", metavar="LIST",
                     help="comma-separated subset of: " + ", ".join(SCHEME_ORDER))
    run.add_argument("--format", choices=("csv", "json"), default="csv",
                     help="output format (default csv)")
    run.add_argument("--output", default="-", metavar="PATH",
                     help="output file, or - for stdout (default)")
    run.add_argument("--seed", type=int, default=1234, metavar="U64",
                     help="seed for the Monte Carlo oracle (default 1234)")
    run.add_argument("--jobs", type=int, default=1, metavar="N",
                     help="accepted for compatibility; points run serially "
                          "(default 1)")
    run.add_argument("--verbose", action="store_true",
                     help="include solver diagnostics in the output")
    run.add_argument("--oracle", action="store_true",
                     help="include finite-ring and Monte Carlo cross-checks")
    tol, ceiling = DEFAULT_QUADRATURE.rel_tol, DEFAULT_QUADRATURE.max_points
    run.add_argument("--quad-tol", type=float, default=tol, metavar="TOL",
                     help=f"quadrature relative tolerance (default {tol:g})")
    run.add_argument("--quad-max-points", type=int, default=ceiling, metavar="N",
                     help="quadrature grid ceiling, a power of two "
                          f"(default 2^{ceiling.bit_length() - 1})")

    parser = _Parser(prog="wynerrelay",
                     description="Per-cell sum-rates for a relay-aided "
                                 "circular cellular uplink.")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {PACKAGE_VERSION}")
    commands = parser.add_subparsers(dest="command", required=True,
                                     metavar="{rate,sweep,figure}")
    commands.add_parser("rate", parents=[common],
                        help="evaluate the schemes at a single operating point")
    sweep = commands.add_parser("sweep", parents=[common],
                                help="sweep one quantity over a uniform grid")
    sweep.add_argument("--axis", required=True, choices=AXES,
                       help="quantity to sweep")
    sweep.add_argument("--start", required=True, type=float,
                       help="first axis value")
    sweep.add_argument("--stop", required=True, type=float,
                       help="last axis value")
    sweep.add_argument("--points", required=True, type=int,
                       help="number of grid points (at least 2)")
    figure = commands.add_parser("figure", parents=[common],
                                 help="run a preset sweep")
    figure.add_argument("name", choices=FIGURES, help="which preset to run")
    return parser


def _config_from_args(args, changes=None):
    """--config, else the stock point with `changes`, then the field flags."""
    if args.config is not None:
        mapping = load_mapping(args.config)
    else:
        mapping = {**DEFAULT_CONFIG_MAPPING, **(changes or {})}
    for name in _LINEAR_KEYS:
        value = getattr(args, name)
        if value is not None:
            mapping[name] = value
    # A dB override replaces whichever form of that power was present.
    if args.p_db is not None:
        mapping.pop("power_p", None)
        mapping["P_dB"] = args.p_db
    if args.q_db is not None:
        mapping.pop("power_q", None)
        mapping["Q_dB"] = args.q_db
    return parse_config(mapping)


def _quadrature_from_args(args) -> QuadratureConfig:
    return QuadratureConfig(max_points=args.quad_max_points, rel_tol=args.quad_tol)


def _schemes_from_args(args, fallback=_DEFAULT_SCHEMES):
    if args.schemes is None:
        return canonical_schemes(fallback)
    return canonical_schemes(name.strip() for name in args.schemes.split(","))


def _check_run_args(args) -> None:
    if args.jobs < 1:
        raise ConfigError(f"--jobs must be at least 1, got {args.jobs}")
    if not 0 <= args.seed < 2 ** 64:
        raise ConfigError(f"--seed must fit in an unsigned 64-bit value, got {args.seed}")


def _run_rate(args) -> bytes:
    config = _config_from_args(args)
    quadrature = _quadrature_from_args(args)
    point = run_point(config, _schemes_from_args(args), quadrature,
                      diagnostics=args.verbose,
                      oracle_seed=[args.seed, 0] if args.oracle else None)
    if args.format == "csv":
        lines = ["quantity,value"]
        lines += [f"{name},{value:.12g}" for name, value in point.items()]
        return ("\n".join(lines) + "\n").encode("ascii")
    metadata = {"config": config_to_mapping(config),
                **run_metadata(quadrature, args.seed if args.oracle else None)}
    document = {"metadata": metadata, "rates": point}
    return (json.dumps(document, sort_keys=True, indent=2) + "\n").encode("ascii")


def _run_table(args, figure: Figure) -> bytes:
    spec = SweepSpec(figure.axis, figure.start, figure.stop, figure.points,
                     _config_from_args(args, figure.config),
                     _schemes_from_args(args, figure.schemes))
    table = run_sweep(spec, _quadrature_from_args(args), diagnostics=args.verbose,
                      oracle=args.oracle, seed=args.seed)
    return emit(table, args.format)


def _run_sweep(args) -> bytes:
    return _run_table(args, Figure(args.axis, args.start, args.stop, args.points,
                                   _DEFAULT_SCHEMES, {}))


def _run_figure(args) -> bytes:
    if args.config is not None:
        raise ConfigError("figure does not read --config: it starts from its preset, "
                          "which the field flags may override")
    return _run_table(args, FIGURES[args.name])


def _write_output(data: bytes, path: str) -> None:
    if path == "-":
        sys.stdout.buffer.write(data)
        sys.stdout.buffer.flush()
    else:
        with open(path, "wb") as handle:
            handle.write(data)


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exit_request:
        code = exit_request.code
        if code is None:
            return 0
        return code if isinstance(code, int) else 1
    runners = {"rate": _run_rate, "sweep": _run_sweep, "figure": _run_figure}
    try:
        _check_run_args(args)
        data = runners[args.command](args)
        _write_output(data, args.output)
    except (ConfigError, SchemeError, OSError) as exc:
        print(f"{parser.prog}: error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, SchemeError) else 1
    return 0


def main_entry() -> None:
    sys.exit(main())
