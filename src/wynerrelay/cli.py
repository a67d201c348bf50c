"""Command-line front end.

Three subcommands: `rate` evaluates the schemes at one operating point,
`sweep` runs a generic one-axis sweep, and `figure` runs a preset sweep
from `sweep.FIGURES`. Exit codes: 0 on success, 1 for usage or
configuration problems, 2 when a numerical routine fails to converge.
"""

import argparse
import functools
import re
import sys

_DEFAULT_SCHEMES = ("cf", "af", "upper_bound")


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors, but this tool reserves 2 for
    # numerical failures; usage problems exit 1 instead.  Abbreviated long
    # options are refused so that a prefix of a dB flag can never pass for
    # a linear quantity.
    def __init__(self, *args, fill=None, **kwargs):
        kwargs.setdefault("allow_abbrev", False)
        super().__init__(*args, **kwargs)
        # argparse's own pattern has no exponent, so it would take -1e1 for an option.
        self._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")
        self._fill = fill

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")

    # A subcommand's arguments are read from the rate modules, so its
    # `fill(parser)` adds them the first time it parses, its --help
    # included: `wynerrelay --version` and `--help` load none of them.
    # Subcommands share this class with the top level, so that argparse's
    # own code sees one parser type.
    def parse_known_args(self, args=None, namespace=None):
        if self._fill is not None:
            fill, self._fill = self._fill, None
            fill(self)
        return argparse.ArgumentParser.parse_known_args(self, args, namespace)


@functools.cache
def _rate_modules():
    """The `model` and `sweep` modules, imported on first use, not at load."""
    from . import model, sweep
    return model, sweep


def _add_arguments(parser: _Parser, command: str) -> None:
    """The two shared groups, then the arguments of `command` alone."""
    model, sweep = _rate_modules()
    group = parser.add_argument_group("system configuration")
    group.add_argument("--config", metavar="PATH",
                       help="JSON file with the system configuration")
    for name in model._LINEAR_KEYS:
        group.add_argument(f"--{name}", type=float, metavar="X",
                           help=f"override {name} (linear)")
    group.add_argument("--P-dB", type=float, metavar="DB",
                       help="override the mobile transmit power, in dB")
    group.add_argument("--Q-dB", type=float, metavar="DB",
                       help="override the relay power budget, in dB")
    run = parser.add_argument_group("execution and output")
    run.add_argument("--schemes", metavar="LIST",
                     help="comma-separated subset of: " + ", ".join(sweep.SCHEME_ORDER))
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
    tol, ceiling = model.DEFAULT_QUADRATURE.rel_tol, model.DEFAULT_QUADRATURE.max_points
    run.add_argument("--quad-tol", type=float, default=tol, metavar="TOL",
                     help=f"quadrature relative tolerance (default {tol:g})")
    run.add_argument("--quad-max-points", type=int, default=ceiling, metavar="N",
                     help="quadrature grid ceiling, a power of two "
                          f"(default 2^{ceiling.bit_length() - 1})")
    if command == "sweep":
        parser.add_argument("--axis", required=True, choices=sweep.AXES,
                            help="quantity to sweep")
        parser.add_argument("--start", required=True, type=float,
                            help="first axis value")
        parser.add_argument("--stop", required=True, type=float,
                            help="last axis value")
        parser.add_argument("--points", required=True, type=int,
                            help="number of grid points (at least 2)")
    elif command == "figure":
        parser.add_argument("name", choices=sweep.FIGURES, help="which preset to run")


# Built on first use and kept for the process: main() may be called many
# times, and parse_args returns a fresh Namespace each time. Help, usage
# and error output read sys.stdout, sys.stderr and the terminal width when
# they are printed, not when the parser is built. A subcommand's parser
# adds its arguments on its first parse, so the parser serves one thread
# at a time.
@functools.cache
def _build_parser() -> _Parser:
    from . import __version__
    parser = _Parser(prog="wynerrelay",
                     description="Per-cell sum-rates for a relay-aided "
                                 "circular cellular uplink.")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    commands = parser.add_subparsers(dest="command", required=True,
                                     metavar="{rate,sweep,figure}")
    for command, summary in (
            ("rate", "evaluate the schemes at a single operating point"),
            ("sweep", "sweep one quantity over a uniform grid"),
            ("figure", "run a preset sweep")):
        commands.add_parser(command, help=summary,
                            fill=functools.partial(_add_arguments, command=command))
    return parser


# The runners take the `model` and `sweep` modules from main().

def _config_from_args(args, model, changes=None):
    """--config, else the stock point with `changes`, then the field flags."""
    if args.config is not None:
        mapping = model.load_mapping(args.config)
    else:
        mapping = {**model.DEFAULT_CONFIG_MAPPING, **(changes or {})}
    for name in model._LINEAR_KEYS:
        value = getattr(args, name)
        if value is not None:
            mapping[name] = value
    # A dB override replaces whichever form of that power was present.
    for linear_key, db_key in model._POWER_KEYS.items():
        value = getattr(args, db_key)
        if value is not None:
            mapping.pop(linear_key, None)
            mapping[db_key] = value
    return model.parse_config(mapping)


def _quadrature_from_args(args, model):
    return model.QuadratureConfig(max_points=args.quad_max_points, rel_tol=args.quad_tol)


def _schemes_from_args(args, sweep, fallback=_DEFAULT_SCHEMES):
    if args.schemes is None:
        return sweep.canonical_schemes(fallback)
    return sweep.canonical_schemes(name.strip() for name in args.schemes.split(","))


def _check_run_args(args, model) -> None:
    if args.jobs < 1:
        raise model.ConfigError(f"--jobs must be at least 1, got {args.jobs}")
    if not 0 <= args.seed < 2 ** 64:
        raise model.ConfigError(
            f"--seed must fit in an unsigned 64-bit value, got {args.seed}")


def _run_rate(args, model, sweep) -> bytes:
    config = _config_from_args(args, model)
    quadrature = _quadrature_from_args(args, model)
    point = sweep.run_point(config, _schemes_from_args(args, sweep), quadrature,
                            diagnostics=args.verbose,
                            oracle_seed=[args.seed, 0] if args.oracle else None)
    if args.format == "csv":
        lines = ["quantity,value"]
        lines += [f"{name},{value:.12g}" for name, value in point.items()]
        return ("\n".join(lines) + "\n").encode("ascii")
    import json
    metadata = {"config": model.config_to_mapping(config),
                **sweep.run_metadata(quadrature, args.seed if args.oracle else None)}
    document = {"metadata": metadata, "rates": point}
    return (json.dumps(document, sort_keys=True, indent=2) + "\n").encode("ascii")


def _run_table(args, model, sweep, figure) -> bytes:
    spec = sweep.SweepSpec(figure.axis, figure.start, figure.stop, figure.points,
                           _config_from_args(args, model, figure.config),
                           _schemes_from_args(args, sweep, figure.schemes))
    table = sweep.run_sweep(spec, _quadrature_from_args(args, model),
                            diagnostics=args.verbose,
                            oracle_seed=args.seed if args.oracle else None)
    return sweep.emit(table, args.format)


def _run_sweep(args, model, sweep) -> bytes:
    return _run_table(args, model, sweep,
                      sweep.Figure(args.axis, args.start, args.stop, args.points,
                                   _DEFAULT_SCHEMES, {}))


def _run_figure(args, model, sweep) -> bytes:
    if args.config is not None:
        raise model.ConfigError("figure does not read --config: it starts from its "
                                "preset, which the field flags may override")
    return _run_table(args, model, sweep, sweep.FIGURES[args.name])


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
        # argparse exits with None (help, --version) or an int.
        return exit_request.code or 0
    model, sweep = _rate_modules()
    runners = {"rate": _run_rate, "sweep": _run_sweep, "figure": _run_figure}
    try:
        _check_run_args(args, model)
        data = runners[args.command](args, model, sweep)
        _write_output(data, args.output)
    except (model.ConfigError, sweep.SchemeError, OSError) as exc:
        print(f"{parser.prog}: error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, sweep.SchemeError) else 1
    return 0


def main_entry() -> None:
    sys.exit(main())
