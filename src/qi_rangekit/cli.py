"""Command-line surface: ``power``, ``covariance``, ``ratio``, ``atten``,
``range``, ``sweep`` and ``mc``.  The scenario comes from ``--config``, else
the defaults, and its table is the one ``range``, ``sweep`` and ``atten``
read (``atten`` falls back to the bundled table).  Flags are in SI base
units; dBm appears only where power is conventionally quoted in dBm.

Each rule below names the test that holds it; README gives the reasons and
CHANGES.md the measurements.

- Each handler imports only the modules its command runs; no command loads
  ``dataclasses``, ``pathlib`` or ``importlib.resources``, and only
  ``sweep`` loads numpy (and, through it, ``typing``):
  ``test_commands_import_only_the_modules_they_run``.
- The command line is declared once, in ``_GLOBAL_OPTIONS`` and
  ``_COMMANDS``; a plain one is read from it without argparse, and argparse,
  built from the same table, reads every other:
  ``test_plain_reader_reads_what_argparse_reads``.
- :func:`main` prints a handler's lines only once it has finished, so an
  error exit leaves stdout empty: ``test_every_command_leaves_stdout_empty_on_error``.
- A figure-3 sweep opens its CSV only once every chain is built, so an
  invalid scenario leaves no file:
  ``test_sweep_at_a_frequency_where_h_f_underflows_exits_2``.
- :func:`entrypoint` alone sets ``OPENBLAS_NUM_THREADS=1``, for its own
  process: ``test_cli_process_starts_openblas_with_one_thread``.
- :func:`entrypoint` flushes the standard streams and ends in ``os._exit``,
  without teardown or ``atexit`` handlers: ``test_cli_process_prints_what_main_prints``.

Exit codes: 0 success, 2 invalid input, configuration or unwritable output
path, 3 no detection range exists for the requested scenario.
"""

from __future__ import annotations

import math
import os
import sys
from itertools import repeat
from types import SimpleNamespace

from . import __version__, radiometry
from .config import ScenarioConfig, dump_config, load_config
from .constants import CODATA, TEXTBOOK
from .errors import NoDetectionError, RangeKitError, _require_count, _require_finite
from .errors import _require_positive, _write_file

# true for static checkers only: the annotations' names cost no import
TYPE_CHECKING = False
if TYPE_CHECKING:
    from argparse import ArgumentParser, Namespace
    from collections.abc import Iterable, Iterator

    from .quantum_states import Matrix

EXIT_OK = 0
EXIT_INPUT_ERROR = 2
EXIT_NO_DETECTION = 3

# Largest ``mc --trials``.  Run time and memory do not grow with the trial
# count (each hypothesis is two gamma draws); the bound keeps the command
# inside the range its tests check, where float64 resolves the gamma sums'
# spread to better than 1e-11.
MAX_TRIALS = 10**9

# Largest ``sweep --points``.  The grid and one solved column with its CSV
# text are held in memory: a figure-3 sweep of this many points, run from a
# small launcher process, peaks at 73.9 MB max RSS (28.4 MB at 5 points) and
# takes 1.0-1.5 s (2-vCPU Intel Xeon with AVX-512, Python 3.11.7, numpy 2.4.6).
MAX_SWEEP_POINTS = 10**5


def _format_matrix(matrix: Matrix) -> str:
    labels = ("I_S", "Q_S", "I_I", "Q_I")
    header = "        " + "".join(f" {label:>14}" for label in labels)
    lines = [header]
    for label, row in zip(labels, matrix):
        cells = "".join(f" {v:>14.9g}" for v in row)
        lines.append(f"{label:>8}{cells}")
    return "\n".join(lines)


def _cmd_power(args: Namespace, config: ScenarioConfig) -> Iterator[str]:
    watts = radiometry.transmit_power(args.ns, args.freq, args.bw, args.constants)
    yield f"P_t = {watts:.6g} W = {radiometry.watts_to_dbm(watts):.6f} dBm"


def _cmd_covariance(args: Namespace, config: ScenarioConfig) -> Iterator[str]:
    from .quantum_states import (
        coherent_covariance,
        coherent_covariance_oracle,
        tmsv_covariance,
        tmsv_covariance_oracle,
    )

    if args.mode == "qi":
        closed, oracle_fn = tmsv_covariance, tmsv_covariance_oracle
    else:
        closed, oracle_fn = coherent_covariance, coherent_covariance_oracle
    cov = closed(args.ns)
    yield f"{args.mode} covariance (2x symmetrized second moments) at N_s = {args.ns!r}:"
    yield _format_matrix(cov)
    if args.oracle:
        oracle = oracle_fn(args.ns)
        yield "truncated Fock-space oracle:"
        yield _format_matrix(oracle)
        deviation = max(abs(o - c) for o_row, c_row in zip(oracle, cov)
                        for o, c in zip(o_row, c_row))
        yield f"max abs deviation: {deviation:.3e}"


def _cmd_ratio(args: Namespace, config: ScenarioConfig) -> Iterator[str]:
    from .quantum_states import correlation_ratio

    yield f"C_c/C_q = {correlation_ratio(args.ns):.9g} at N_s = {args.ns!r}"


def _cmd_atten(args: Namespace, config: ScenarioConfig) -> Iterator[str]:
    from . import atmosphere

    table = config.attenuation_table or atmosphere.bundled_table()
    gamma = atmosphere.gamma_at(table, args.freq)
    lo, hi = table.span_ghz
    yield (f"gamma({args.freq:.6g} Hz) = {gamma:.6g} dB/km "
           f"[table: {table.source or 'inline'}, span {lo:g}-{hi:g} GHz]")
    if args.range_m is not None:
        f_form = atmosphere.form_factor(gamma, args.range_m)
        yield f"F({args.range_m:.6g} m) = {f_form:.6g} (one-way)"


def _cmd_range(args: Namespace, config: ScenarioConfig) -> Iterator[str]:
    from .range_solver import Illumination, range_chain

    chain = range_chain(config, args.freq, args.constants)
    modes = (Illumination(args.mode),) if args.mode else (Illumination.CI, Illumination.QI)
    # noise budget is configured as a power; the implied temperature and
    # occupancy are derived, so show them
    yield (f"noise: P_B = {config.noise_power_dbm:g} dBm -> implied T_eff = "
           f"{config.t_eff_kelvin(args.constants):.6g} K, N_B({args.freq:.6g} Hz) = "
           f"{chain.n_b:.6g}")
    # solve raises for every status but ok, so the exit code follows the
    # status sweep writes; every mode is solved before the first failure
    # decides it, and its message names that mode and the other's outcome
    roots: dict[Illumination, float] = {}
    failures: list[tuple[Illumination, RangeKitError]] = []
    for mode in modes:
        try:
            roots[mode] = chain.solve(args.ns, mode)
        except RangeKitError as exc:
            failures.append((mode, exc))
    if failures:
        mode, exc = failures[0]
        if len(modes) == 1:
            raise exc
        [other] = [m for m in modes if m is not mode]
        if other in roots:
            outcome = f"r_max = {roots[other]:.6g} m"
        else:
            outcome = str(failures[1][1])
            if outcome == str(exc):  # an input no mode solves, such as N_s = 0
                outcome = "the same"
        kind = NoDetectionError if isinstance(exc, NoDetectionError) else RangeKitError
        raise kind(f"{exc} ({mode.value}; {other.value}: {outcome})") from exc
    for mode, r_max in roots.items():
        f_form, eta, residual = chain.link_at(r_max, args.ns, mode)
        yield f"{mode.value}: r_max = {r_max:.6g} m  (residual {residual:.3e} dB)"
        yield (f"    gamma = {chain.gamma_db_per_km:.6g} dB/km, "
               f"F = {f_form:.6g}, eta = {eta:.6g}")


def _log_grid(ns_min: float, ns_max: float, points: int) -> list[float]:
    ns_min = _require_positive("--ns-min", ns_min, RangeKitError)
    ns_max = _require_finite("--ns-max", ns_max, RangeKitError)
    if not ns_max > ns_min:
        raise RangeKitError(f"--ns-max must exceed --ns-min, got {ns_max!r}")
    _require_count("--points", points, 2, MAX_SWEEP_POINTS, RangeKitError)
    from operator import le

    import numpy as np

    # 10^log10(x) need not be x, and may overflow at x near the float maximum:
    # the ends are the bounds given
    with np.errstate(over="ignore"):
        grid = np.logspace(math.log10(ns_min), math.log10(ns_max), points).tolist()
    grid[0], grid[-1] = ns_min, ns_max
    if any(map(le, grid[1:], grid)):
        raise RangeKitError(f"--points {points!r} from --ns-min {ns_min!r} to --ns-max "
                            f"{ns_max!r} gives a grid that is not strictly increasing")
    return grid


def _csv(header: str, blocks: Iterable[Iterable[Iterable[str]]]) -> Iterator[str]:
    """A CSV as its header line and one string per block of rows, each block
    given as its columns of cell text and joined at C level."""
    yield header
    for cells in blocks:
        yield "".join(map("".join, zip(*cells)))


def _cmd_sweep(args: Namespace, config: ScenarioConfig) -> Iterator[str]:
    grid = _log_grid(args.ns_min, args.ns_max, args.points)
    path = args.output or f"figure{args.figure}.csv"

    if args.figure == 1:
        from .quantum_states import correlation_ratio

        header, count = "n_s,ratio\n", 1
        blocks: Iterable = [(map(repr, grid), repeat(","),
                             map(repr, map(correlation_ratio, grid)), repeat("\n"))]
    else:
        from .range_solver import Illumination, sweep_range

        # validates the grid and builds every chain, so an error leaves no
        # file; each (f, mode) column is solved only as its block is written,
        # and every block reuses the N_s text
        columns = sweep_range(config, grid, constants=args.constants)
        n_s_text = [repr(n_s) for n_s in grid]
        header = "n_s,frequency_hz,mode,r_max_m,status\n"
        count = len(Illumination) * len(config.frequencies_hz)
        blocks = ((n_s_text, repeat(f",{f_hz!r},{mode.value},"),
                   ["" if r is None else repr(r) for r in r_max_m], repeat(","), status,
                   repeat("\n"))
                  for f_hz, mode, (r_max_m, status) in columns)

    _write_file(path, _csv(header, blocks))
    yield f"wrote {len(grid) * count} rows to {path}"


def _cmd_mc(args: Namespace, config: ScenarioConfig) -> Iterator[str]:
    # the lower bound is the library's, under its own name
    _require_count("--trials", args.trials, -math.inf, MAX_TRIALS, RangeKitError)
    from .detection_mc import MIN_RESOLUTION, detector_gain_experiment

    result = detector_gain_experiment(
        n_s=args.ns, eta=args.eta, n_b=args.nb, trials=args.trials, seed=args.seed
    )
    if not result.resolved:
        yield (f"unresolved: the classical shift is {result.resolution:.3g} standard errors "
               f"at {result.trials} trials, below {MIN_RESOLUTION:g}; no gain is estimated "
               f"(seed {args.seed})")
        return
    yield (f"deflection-SNR gain (QI/CI) = {result.ratio:.6g} "
           f"+/- {result.standard_error:.3g} "
           f"(QI {result.deflection_quantum:.6g}, CI {result.deflection_classical:.6g}, "
           f"{result.trials} trials, seed {args.seed})")
    analytic = 1.0 + 1.0 / args.ns
    z = (result.ratio - analytic) / result.standard_error
    yield f"analytic 1 + 1/N_s = {analytic:.6g}, z = {z:+.3g}"


# The command line, declared once: each option is (flag, argparse keyword
# arguments), each command (handler, help, options).  _build_parser hands
# them to argparse; _plain_args reads the plain form from them directly.
_GLOBAL_OPTIONS = (
    ("--config", dict(metavar="PATH",
                      help="scenario config JSON (default: the benchmark scenario)")),
    ("--dump-config", dict(metavar="PATH", nargs="?", const="-", help=(
        "write the effective scenario config as JSON ('-' or no value: stdout) and exit"))),
    ("--codata", dict(dest="constants", action="store_const", const=CODATA, default=TEXTBOOK,
                      help="use CODATA physical constants instead of the default 3-digit set")),
)
_NS = ("--ns", dict(type=float, required=True, help="mean photons per mode"))
_FREQ = ("--freq", dict(type=float, required=True, help="frequency [Hz]"))
_COMMANDS = {
    "power": (_cmd_power, "transmit power for N_s photons/mode at (f, B)", (
        _NS, _FREQ, ("--bw", dict(type=float, required=True, help="bandwidth [Hz]")),
    )),
    "covariance": (_cmd_covariance, "signal/idler quadrature covariance matrix", (
        _NS,
        ("--mode", dict(choices=("qi", "ci"), required=True,
                        help="qi: entangled pair, ci: correlated coherent pair")),
        ("--oracle", dict(action="store_true",
                          help="also compute the truncated Fock-space oracle and the deviation")),
    )),
    "ratio": (_cmd_ratio, "classical/quantum correlation ratio C_c/C_q", (_NS,)),
    "atten": (_cmd_atten, "absorption coefficient lookup and form factor", (
        _FREQ,
        ("--range-m", dict(type=float, default=None,
                           help="also print the one-way form factor at this range [m]")),
    )),
    "range": (_cmd_range, "maximum detection range for the scenario", (
        _NS, _FREQ,
        ("--mode", dict(choices=("ci", "qi"), default=None,
                        help="transmitter (default: solve and print both)")),
    )),
    "sweep": (_cmd_sweep, "write a ratio or range sweep CSV", (
        ("--figure", dict(type=int, choices=(1, 3), required=True,
                          help="1: correlation-ratio sweep, 3: range sweep")),
        ("--ns-min", dict(type=float, default=1e-3)),
        ("--ns-max", dict(type=float, default=10.0)),
        ("--points", dict(type=int, default=25,
                          help=f"grid points, at most {MAX_SWEEP_POINTS} (default: %(default)s)")),
        ("--output", dict(metavar="PATH", default=None,
                          help="CSV path (default: figure<N>.csv)")),
    )),
    "mc": (_cmd_mc, "Monte Carlo detector-gain experiment", (
        _NS,
        ("--eta", dict(type=float, required=True, help="channel transmissivity")),
        ("--nb", dict(type=float, required=True, help="background photons per mode")),
        ("--trials", dict(type=int, default=100_000, help=(
            f"draws per hypothesis, at most {MAX_TRIALS} (default: %(default)s)"))),
        ("--seed", dict(type=int, default=0)),
    )),
}


def _build_parser() -> ArgumentParser:
    import argparse

    parser = argparse.ArgumentParser(
        prog="qi-rangekit",
        description=(
            "Quantum- vs classical-illumination target detection: transmitter "
            "correlations, radiometry, attenuation, and maximum-range solutions."
        ),
    )
    parser.add_argument("--version", action="version", version=__version__)
    for flag, kwargs in _GLOBAL_OPTIONS:
        parser.add_argument(flag, **kwargs)
    sub = parser.add_subparsers(dest="command", metavar="command")
    for command, (run, help_text, options) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        for flag, kwargs in options:
            p.add_argument(flag, **kwargs)
        p.set_defaults(run=run)
    return parser


def _read_options(options: tuple, words: list[str], values: dict) -> list[str] | None:
    """Put the defaults of ``options`` in ``values``, then read their flags
    from the front of ``words`` into it.  Return the words from the first
    that is no flag of ``options`` or repeats one, or None where a value is
    missing, starts with "-", fails its type or choices, or a required
    option is not given."""
    specs = {flag: (kwargs.get("dest") or flag[2:].replace("-", "_"), kwargs)
             for flag, kwargs in options}
    for dest, kwargs in specs.values():
        store_true = kwargs.get("action") == "store_true"
        values[dest] = kwargs.get("default", False if store_true else None)
    given = set()
    i = 0
    while i < len(words) and words[i] in specs and words[i] not in given:
        given.add(words[i])
        dest, kwargs = specs[words[i]]
        i += 1
        if kwargs.get("action") == "store_true":
            values[dest] = True
        elif kwargs.get("action") == "store_const":
            values[dest] = kwargs["const"]
        else:
            # a lone "-" is a value to argparse too; other words starting
            # with "-" (flags, negative numbers) are left to it
            if i == len(words) or words[i].startswith("-") and words[i] != "-":
                return None
            try:
                value = kwargs.get("type", str)(words[i])
            except ValueError:
                return None
            if "choices" in kwargs and value not in kwargs["choices"]:
                return None
            values[dest] = value
            i += 1
    if any(kwargs.get("required") and flag not in given for flag, kwargs in options):
        return None
    return words[i:]


def _plain_args(argv: list[str]) -> SimpleNamespace | None:
    """The plain command line read without argparse: the namespace
    :func:`_build_parser` would give, or None where ``argv`` is not plain.

    Plain is the global options, then a command and its options, where each
    flag is spelled in full and given once, each value is "-" or does not
    start with "-" and passes its type and choices, and every required
    option is present.  argparse reads every other command line, so help,
    version and error text, abbreviations, ``--flag=value`` and
    dash-prefixed values are its own."""
    values: dict = {"command": None}
    rest = _read_options(_GLOBAL_OPTIONS, argv, values)
    if rest:
        if rest[0] not in _COMMANDS:
            return None
        values["command"], (values["run"], _, options) = rest[0], _COMMANDS[rest[0]]
        rest = _read_options(options, rest[1:], values)
    return SimpleNamespace(**values) if rest == [] else None


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _plain_args(argv) or _build_parser().parse_args(argv)
    try:
        config = load_config(args.config) if args.config else ScenarioConfig()
        if args.dump_config is not None:
            text = dump_config(config)
            if args.dump_config == "-":
                sys.stdout.write(text)
            else:
                _write_file(args.dump_config, (text,))
            return EXIT_OK
        if args.command is None:
            _build_parser().error("a command is required (see --help)")
        lines = list(args.run(args, config))
    except NoDetectionError as exc:
        print(f"no detection: {exc}", file=sys.stderr)
        return EXIT_NO_DETECTION
    except RangeKitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    print(*lines, sep="\n")
    return EXIT_OK


def entrypoint() -> None:
    # No command calls BLAS, and OpenBLAS reads its thread count only once,
    # when numpy loads it (``sweep``): one thread spares the pool's start-up.
    # Only the process's own entry sets it; main() leaves the environment be.
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    code = main()
    # The process ends here without interpreter teardown (module and numpy
    # cleanup, a last GC pass), so nothing may wait for it: every file a
    # command writes must be closed before main() returns (_write_file's
    # ``with``), and no atexit handler runs.  Only the standard streams are
    # left to flush.  If that fails (a closed pipe, a closed stream), the
    # interpreter's own shutdown retries and reports it as it always has.
    try:
        for stream in (sys.stdout, sys.stderr):
            if stream is not None:
                stream.flush()
    except (OSError, ValueError):
        raise SystemExit(code) from None
    os._exit(code)


if __name__ == "__main__":
    entrypoint()
