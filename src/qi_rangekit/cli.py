"""Command-line surface.

Subcommands: ``power``, ``covariance``, ``ratio``, ``atten``, ``range``,
``sweep``, ``mc``.  A scenario config (flat JSON, benchmark defaults for
omitted fields) is taken from ``--config`` alone, else the defaults; its
table is the one ``range``, ``sweep`` and ``atten`` read (``atten`` falls
back to the bundled table).  All flags use SI base units (hertz, meters,
seconds); dBm appears only where power is conventionally quoted in dBm.

Start-up is most of what a scalar command costs, so this module imports at
its top only what every command needs (``argparse``, the config, constants,
errors and radiometry), and each handler imports the modules its command
runs: ``quantum_states`` for ``covariance`` and ``ratio``, ``atmosphere`` for
``atten``, ``range_solver`` for ``range`` and ``sweep``, ``detection_mc`` for
``mc``.  Nothing on the start-up path loads the standard dataclass module,
which imports ``inspect``: the package's records are NamedTuples or slotted
classes.  Nor does any command load the standard library's path objects
(``Path``) or package resources (``resources.files``): files are opened with
``open()`` on the path as given, which messages print.  Under ``python -S``
that spared ``range`` about 8 ms of 52-82 ms and bundled ``atten`` 10-20 ms
of 59-88 ms (2-vCPU host); a site hook that imports those modules hides
this, so the tests' import probe runs its children with ``-S``.
Only the ``sweep`` grid uses numpy, and it imports it inside the handler, so
that every other command (``mc`` included) and ``--dump-config`` start
without it.  No command calls BLAS, yet loading numpy starts OpenBLAS's
thread pool, one thread per CPU by default (``import numpy`` took 139 ms
with two threads and 85 ms with one on a 2-vCPU host).  So
:func:`entrypoint`, which owns the process, sets ``OPENBLAS_NUM_THREADS=1``
before any command runs, overriding any value it inherited, for its own
process only; :func:`main` and the library calls leave the caller's
environment alone.
A figure-3 sweep writes its CSV a column at a time: one string per
(frequency, mode) column of :func:`~qi_rangekit.range_solver.sweep_range`,
joined at C level from the column's lists and written with one ``write``, so
no per-row line list or whole-file copy is held.  Each row ends in its
point's status.  The file is opened only after every chain is built, so an
invalid scenario leaves no file; a frequency outside the table span is not
invalid, and its rows read ``out_of_span``.

Each ``_cmd_*`` handler takes ``(args, config)`` and yields its output
lines; :func:`main` collects them all and prints them only once the handler
has finished, so an error exit leaves stdout empty, whichever command
raised and wherever.  The parser picks the physical constants once:
``args.constants`` is CODATA under ``--codata``, else TEXTBOOK, and the
handlers read only that.

Exit codes: 0 success, 2 invalid input, configuration or unwritable output
path, 3 no detection range exists for the requested scenario.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from itertools import repeat
from typing import TYPE_CHECKING, Iterable, Iterator

from . import __version__, radiometry
from .config import ScenarioConfig, dump_config, load_config
from .constants import CODATA, TEXTBOOK
from .errors import NoDetectionError, RangeKitError

if TYPE_CHECKING:
    from .quantum_states import Matrix
    from .range_solver import Illumination

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


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qi-rangekit",
        description=(
            "Quantum- vs classical-illumination target detection: transmitter "
            "correlations, radiometry, attenuation, and maximum-range solutions."
        ),
    )
    parser.add_argument("--version", action="version", version=__version__)
    parser.add_argument(
        "--config",
        metavar="PATH",
        help="scenario config JSON (default: the benchmark scenario)",
    )
    parser.add_argument(
        "--dump-config",
        metavar="PATH",
        nargs="?",
        const="-",
        help="write the effective scenario config as JSON ('-' or no value: stdout) and exit",
    )
    parser.add_argument(
        "--codata",
        dest="constants",
        action="store_const",
        const=CODATA,
        default=TEXTBOOK,
        help="use CODATA physical constants instead of the default 3-digit set",
    )
    sub = parser.add_subparsers(dest="command", metavar="command")

    p = sub.add_parser("power", help="transmit power for N_s photons/mode at (f, B)")
    p.add_argument("--ns", type=float, required=True, help="mean photons per mode")
    p.add_argument("--freq", type=float, required=True, help="frequency [Hz]")
    p.add_argument("--bw", type=float, required=True, help="bandwidth [Hz]")

    p = sub.add_parser("covariance", help="signal/idler quadrature covariance matrix")
    p.add_argument("--ns", type=float, required=True, help="mean photons per mode")
    p.add_argument("--mode", choices=("qi", "ci"), required=True,
                   help="qi: entangled pair, ci: correlated coherent pair")
    p.add_argument("--oracle", action="store_true",
                   help="also compute the truncated Fock-space oracle and the deviation")

    p = sub.add_parser("ratio", help="classical/quantum correlation ratio C_c/C_q")
    p.add_argument("--ns", type=float, required=True, help="mean photons per mode")

    p = sub.add_parser("atten", help="absorption coefficient lookup and form factor")
    p.add_argument("--freq", type=float, required=True, help="frequency [Hz]")
    p.add_argument("--range-m", type=float, default=None,
                   help="also print the one-way form factor at this range [m]")

    p = sub.add_parser("range", help="maximum detection range for the scenario")
    p.add_argument("--ns", type=float, required=True, help="mean photons per mode")
    p.add_argument("--freq", type=float, required=True, help="frequency [Hz]")
    p.add_argument("--mode", choices=("ci", "qi"), default=None,
                   help="transmitter (default: solve and print both)")

    p = sub.add_parser("sweep", help="write a ratio or range sweep CSV")
    p.add_argument("--figure", type=int, choices=(1, 3), required=True,
                   help="1: correlation-ratio sweep, 3: range sweep")
    p.add_argument("--ns-min", type=float, default=1e-3)
    p.add_argument("--ns-max", type=float, default=10.0)
    p.add_argument("--points", type=int, default=25,
                   help=f"grid points, at most {MAX_SWEEP_POINTS} (default: %(default)s)")
    p.add_argument("--output", metavar="PATH", default=None,
                   help="CSV path (default: figure<N>.csv)")

    p = sub.add_parser("mc", help="Monte Carlo detector-gain experiment")
    p.add_argument("--ns", type=float, required=True, help="mean photons per mode")
    p.add_argument("--eta", type=float, required=True, help="channel transmissivity")
    p.add_argument("--nb", type=float, required=True, help="background photons per mode")
    p.add_argument("--trials", type=int, default=100_000,
                   help=f"draws per hypothesis, at most {MAX_TRIALS} (default: %(default)s)")
    p.add_argument("--seed", type=int, default=0)

    return parser


def _write_text(path: str, chunks: Iterable[str]) -> None:
    """Write the strings of ``chunks`` to ``path``, one ``write`` each."""
    try:
        with open(path, "w", encoding="utf-8") as stream:
            stream.writelines(chunks)
    except OSError as exc:
        raise RangeKitError(f"cannot write {path}: {exc}") from exc


def _format_matrix(matrix: Matrix) -> str:
    labels = ("I_S", "Q_S", "I_I", "Q_I")
    header = "        " + "".join(f" {label:>14}" for label in labels)
    lines = [header]
    for label, row in zip(labels, matrix):
        cells = "".join(f" {v:>14.9g}" for v in row)
        lines.append(f"{label:>8}{cells}")
    return "\n".join(lines)


def _cmd_power(args: argparse.Namespace, config: ScenarioConfig) -> Iterator[str]:
    watts = radiometry.transmit_power(args.ns, args.freq, args.bw, args.constants)
    yield f"P_t = {watts:.6g} W = {radiometry.watts_to_dbm(watts):.6f} dBm"


def _cmd_covariance(args: argparse.Namespace, config: ScenarioConfig) -> Iterator[str]:
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


def _cmd_ratio(args: argparse.Namespace, config: ScenarioConfig) -> Iterator[str]:
    from .quantum_states import correlation_ratio

    yield f"C_c/C_q = {correlation_ratio(args.ns):.9g} at N_s = {args.ns!r}"


def _cmd_atten(args: argparse.Namespace, config: ScenarioConfig) -> Iterator[str]:
    from . import atmosphere

    table = config.attenuation_table or atmosphere.bundled_table()
    gamma = atmosphere.gamma_at(table, args.freq)
    lo, hi = table.span_ghz
    yield (f"gamma({args.freq:.6g} Hz) = {gamma:.6g} dB/km "
           f"[table: {table.source or 'inline'}, span {lo:g}-{hi:g} GHz]")
    if args.range_m is not None:
        f_form = atmosphere.form_factor(gamma, args.range_m)
        yield f"F({args.range_m:.6g} m) = {f_form:.6g} (one-way)"


def _cmd_range(args: argparse.Namespace, config: ScenarioConfig) -> Iterator[str]:
    from .range_solver import Illumination, range_chain

    chain = range_chain(config, args.freq, args.constants)
    modes = (Illumination(args.mode),) if args.mode else (Illumination.CI, Illumination.QI)
    # noise budget is configured as a power; the implied temperature and
    # occupancy are derived, so show them
    yield (f"noise: P_B = {config.noise_power_dbm:g} dBm -> implied T_eff = "
           f"{config.t_eff_kelvin(args.constants):.6g} K, N_B({args.freq:.6g} Hz) = "
           f"{chain.n_b:.6g}")
    for mode in modes:
        # solve raises for every status but ok, so the exit code follows the
        # status sweep writes
        r_max = chain.solve(args.ns, mode)
        f_form, eta = chain.link_at(r_max)
        # |10 log10(eta * M * photons / (N_B * SNR_min))|, photons = N_s plus
        # the mode's extra photons (N_s + 1 for QI); inf where eta itself
        # underflows to 0 (N_s near 1e308)
        photons_per_snr = (args.ns + mode.extra_photons) / chain.snr_min
        closure = eta * chain.pulse_count / chain.n_b * photons_per_snr
        residual = abs(10.0 * math.log10(closure)) if closure > 0.0 else math.inf
        yield f"{mode.value}: r_max = {r_max:.6g} m  (residual {residual:.3e} dB)"
        yield (f"    gamma = {chain.gamma_db_per_km:.6g} dB/km, "
               f"F = {f_form:.6g}, eta = {eta:.6g}")


def _log_grid(ns_min: float, ns_max: float, points: int) -> list[float]:
    if not (math.isfinite(ns_min) and ns_min > 0.0):
        raise RangeKitError(f"--ns-min must be positive and finite, got {ns_min!r}")
    if not math.isfinite(ns_max):
        raise RangeKitError(f"--ns-max must be finite, got {ns_max!r}")
    if not ns_max > ns_min:
        raise RangeKitError(f"--ns-max must exceed --ns-min, got {ns_max!r}")
    if points < 2:
        raise RangeKitError(f"--points must be >= 2, got {points!r}")
    if points > MAX_SWEEP_POINTS:
        raise RangeKitError(f"--points must be at most {MAX_SWEEP_POINTS}, got {points!r}")
    import numpy as np

    # 10^log10(x) need not be x, and may overflow at x near the float maximum:
    # the ends are the bounds given
    with np.errstate(over="ignore"):
        grid = np.logspace(math.log10(ns_min), math.log10(ns_max), points).tolist()
    grid[0], grid[-1] = ns_min, ns_max
    return grid


def _range_csv(
    grid: list[float],
    columns: Iterable[tuple[float, Illumination, tuple[list[float | None], list[str]]]],
) -> Iterator[str]:
    """The figure-3 CSV as its header and one string per solved column, each
    joined at C level: N_s formatted once, f and mode once per column, and
    an empty range where no root exists."""
    yield "n_s,frequency_hz,mode,r_max_m,status\n"
    n_s_text = [repr(n_s) for n_s in grid]
    for f_hz, mode, (r_max_m, status) in columns:
        r_text = ["" if r is None else repr(r) for r in r_max_m]
        middle = repeat(f",{f_hz!r},{mode.value},")
        yield "".join(map("".join, zip(n_s_text, middle, r_text, repeat(","), status,
                                       repeat("\n"))))


def _cmd_sweep(args: argparse.Namespace, config: ScenarioConfig) -> Iterator[str]:
    grid = _log_grid(args.ns_min, args.ns_max, args.points)
    path = args.output or f"figure{args.figure}.csv"

    if args.figure == 1:
        from .range_solver import sweep_ratio

        lines = ["n_s,ratio"]
        lines.extend(f"{n_s!r},{ratio!r}" for n_s, ratio in sweep_ratio(grid))
        rows = len(lines) - 1
        chunks: Iterable[str] = ("\n".join(lines) + "\n",)
    else:
        from .range_solver import Illumination, sweep_range

        # validates the grid and builds every chain, so an error leaves no file
        columns = sweep_range(config, grid, constants=args.constants)
        rows = len(grid) * len(Illumination) * len(config.frequencies_hz)
        chunks = _range_csv(grid, columns)

    _write_text(path, chunks)
    yield f"wrote {rows} rows to {path}"


def _cmd_mc(args: argparse.Namespace, config: ScenarioConfig) -> Iterator[str]:
    if args.trials > MAX_TRIALS:
        raise RangeKitError(f"--trials must be at most {MAX_TRIALS}, got {args.trials}")
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


_HANDLERS = {
    "power": _cmd_power,
    "covariance": _cmd_covariance,
    "ratio": _cmd_ratio,
    "atten": _cmd_atten,
    "range": _cmd_range,
    "sweep": _cmd_sweep,
    "mc": _cmd_mc,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        config = load_config(args.config) if args.config else ScenarioConfig()
        if args.dump_config is not None:
            text = dump_config(config)
            if args.dump_config == "-":
                sys.stdout.write(text)
            else:
                _write_text(args.dump_config, (text,))
            return EXIT_OK
        if args.command is None:
            parser.error("a command is required (see --help)")
        lines = list(_HANDLERS[args.command](args, config))
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
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
