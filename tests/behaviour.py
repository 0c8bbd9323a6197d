"""Behaviour manifest: what each command of a fixed corpus prints and writes.

Usage, from the checkout root::

    python tests/behaviour.py            # compare with tests/golden/behaviour.tsv
    python tests/behaviour.py --update   # rewrite the manifest from this checkout

Both print the commands whose rows were added, moved or removed.

Each command of :func:`corpus` runs in-process through
``qi_rangekit.cli.main``, in a fresh temporary directory that holds only its
own fixture files and is the working directory for the run, so every path a
command prints or writes is relative.  The manifest records, per command, the
exit code and the SHA-256 of stdout, of stderr and of each file the command
writes.  A change that means to move output shows the commands whose bytes
moved as changed rows of the manifest; a change that means to move none
leaves it as it is.  ``tests/test_behaviour.py`` runs the corpus in tier-1.

The corpus is the config battery (every number field and every frequency
entry at one bad or edge value each, and three configs with several faults,
each run as ``--config F --dump-config -``), one run of each command, a
config whose k_B*B underflows run as ``--dump-config -``, ``range`` and
``sweep``, ``--codata range``, ``range`` on a grid of frequencies and N_s,
lossless and through the bundled table, ``range`` at six edges
(:data:`RANGE_EDGES`), with repeated flags (:data:`REPEATED_FLAGS`) and on a
config whose R_free leaves the float range, ``covariance`` with ``--oracle``
repeated and given first (:data:`ORACLE_FLAGS`), ``mc`` at the ends of its
trial and seed ranges, at N_s 1e8 and 1e307 and at five edges of the return
states (:data:`MC_EDGES`), the grid refusals of ``sweep`` and a sweep into a
missing directory, four malformed attenuation tables read by ``atten``, a
config and a table saved with a byte-order mark, read by ``--dump-config``
and by ``atten``, ``covariance --oracle`` at twelve more pinned points (the
four of the benchmark's verify workload, each oracle's vacuum and its first
``CutoffError`` among them), two configs whose antenna gain overflows or
underflows to 0 and two whose range chain overflows at 1 THz, each run as
``range`` and ``sweep``.
A sweep that gives no grid option runs on :data:`GOLDEN_GRID` in place of
``cli._log_grid``'s numpy grid, whose last digits follow numpy's CPU
dispatch; one that gives a grid option (:data:`GRID_OPTIONS`) runs the real
``_log_grid``, so the corpus gives one only where the grid is refused, which
happens before numpy is imported.  Help and argparse usage texts are left
out: ``tests/golden/cli_text.txt`` pins them.

Only the standard library is used here.  Seeded ``mc`` output and the sweep
CSVs rest on libm's ``log``, ``cos``, ``sqrt`` and ``pow``, as the goldens do,
so a libm that rounds differently moves their rows.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import shlex
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
MANIFEST = REPO / "tests" / "golden" / "behaviour.tsv"
HEADER = ("# qi-rangekit behaviour manifest, written by tests/behaviour.py --update.\n"
          "# command\texit\tstdout sha256\tstderr sha256\twritten files (name:sha256)\n")

# The grid of the golden sweeps: a literal, so numpy's CPU dispatch does not
# enter the bytes.
GOLDEN_GRID = [1e-06, 3e-05, 0.001, 0.001467799267622069, 0.01, 0.1, 1.0, 10.0, 1000.0]

NUMBER_FIELDS = ("sigma_m2", "aperture_m2", "bandwidth_hz", "tau_s", "noise_power_dbm",
                 "snr_min_db", "p_d", "p_fa")
DEFAULT_FREQUENCIES = (7e9, 95e9, 1e12)
# one value of each kind a config field may hold by mistake or at an edge,
# as json.dumps writes it: "x", true, Infinity, NaN, 0, -1
BATTERY_VALUES = {"str": "x", "bool": True, "inf": float("inf"), "nan": float("nan"),
                  "zero": 0, "negative": -1}
MULTI_FAULT_CONFIGS = {
    "sigma_m2_and_p_d": {"sigma_m2": 0, "p_d": "x"},
    "sigma_m2_and_frequencies_hz": {"sigma_m2": 0, "frequencies_hz": []},
    "bandwidth_hz_and_tau_s": {"bandwidth_hz": 0, "tau_s": 0},
}
# a valid config (tau*B = 0.51 rounds to M = 1) whose k_B*B underflows to 0
# and whose N_B overflows
EDGE_CONFIG = {"tau_s": 1.7e308, "bandwidth_hz": 3e-309}
# the points of the range grid, each run lossless and through the bundled table
RANGE_FREQUENCIES = ("7e9", "95e9", "557e9", "1e12")
RANGE_N_S = ("0.01", "1", "1e-30")
# range runs outside that grid: an N_s both modes refuse alike, one mode's
# near-field refusal beside the other mode's output, an R_free^4 that
# overflows while R_free does not, and one mode's no-detection and N_s
# refusals
RANGE_EDGES = (("--ns", "0", "--freq", "1e12"),
               ("--ns", "1e-30", "--freq", "95e9", "--mode", "ci"),
               ("--ns", "1e-30", "--freq", "95e9", "--mode", "qi"),
               ("--ns", "1e300", "--freq", "1e12"),
               ("--ns", "1e-30", "--freq", "7e9", "--mode", "ci"),
               ("--ns", "0", "--freq", "1e12", "--mode", "qi"))
# command lines that repeat a global and a command flag, each read last-wins
REPEATED_FLAGS = (("range", "--ns", "1", "--ns", "0.01", "--freq", "1e12"),
                  ("--codata", "--codata", "range", "--ns", "0.01", "--freq", "7e9",
                   "--mode", "qi", "--mode", "ci"))
# covariance with its one constant flag repeated, and given before the
# command's value options
ORACLE_FLAGS = (("covariance", "--ns", "1", "--mode", "qi", "--oracle", "--oracle"),
                ("covariance", "--oracle", "--ns", "1", "--mode", "ci"))
# a config whose R_free itself leaves the float range at N_s 8e307 (N_B
# subnormal, SNR_min 1e-300), run as range in both modes and in one
R_FREE_BEYOND_FLOATS = {"sigma_m2": 1e278, "bandwidth_hz": 1e22, "noise_power_dbm": -3190,
                        "snr_min_db": -3000, "frequencies_hz": [1e12]}
# mc at verify's weakest point (unresolved at 10^4 trials) for each end of
# --trials, and at N_s 0.1 for each end of --seed
MC_TRIALS = ("9999", "10000", "1000000000", "1000000001")
MC_SEEDS = ("-1", "0", str(2**64 - 1), str(2**64))
# mc at N_s where the float state blocks carry round-off at the size of the
# uncertainty bound (s^2 - c^2 of the TMSV block cancels), which a check of
# that bound must admit
MC_LARGE_N_S = ("1e8", "1e307")
# mc at the edges of the return states, as (n_s, eta, n_b): a TMSV that
# returns whole onto a near-vacuum background (its smaller symplectic
# eigenvalue exactly 1), the same at N_s 1e-300, an eta that leaves no
# signal, N_s and N_B near zero, and an N_B whose return state overflows
MC_EDGES = (("0.01", "1", "1e-300"), ("1e-300", "1", "1e-300"), ("0.1", "5e-324", "1"),
            ("1e-12", "0.5", "1e-12"), ("0.1", "0.5", "1e308"))
# sweep options that reach cli._log_grid, each given here only to be refused
GRID_OPTIONS = ("--ns-min", "--ns-max", "--points")
GRID_REFUSALS = (("--points", "1"), ("--points", "100001"), ("--ns-min", "0"),
                 ("--ns-min", "1", "--ns-max", "1"), ("--ns-min", "1", "--ns-max", "0.5"))
# attenuation tables that fail to load, each named by a config and read by atten
BAD_TABLES = {
    "no_header": "60,15.0\n70,1.0\n",
    "one_row": "frequency_ghz,gamma_db_per_km\n60,15.0\n",
    "unparsable_number": "frequency_ghz,gamma_db_per_km\n50,0.5\n60,x\n70,1.0\n",
    "repeated_frequency": "frequency_ghz,gamma_db_per_km\n50,0.5\n50,0.7\n70,1.0\n",
}
# a config and an attenuation table saved with a UTF-8 byte-order mark, read
# by --dump-config and by atten
BOM_CONFIG = {"sigma_m2": 2.0}
# covariance --oracle points: the four of the benchmark's verify workload,
# then each oracle's vacuum, the classical mean N_s/2 that underflows to 0, a
# TMSV whose cross entry 2e-150 sits far below its unit diagonal, and for
# each oracle an N_s within MAX_FOCK_STATES beside one past it (a CutoffError)
ORACLE_POINTS = (("10", "qi"), ("20", "qi"), ("10", "ci"), ("1000", "ci"),
                 ("0", "qi"), ("0", "ci"), ("5e-324", "ci"), ("1e-300", "qi"),
                 ("73", "qi"), ("74", "qi"), ("3000", "ci"), ("3500", "ci"))
# configs whose antenna gain G overflows or underflows to 0 at their one
# frequency, each run as range at that frequency and as sweep --figure 3
GAIN_CONFIGS = {"gain_overflow": {"aperture_m2": 1e10, "frequencies_hz": [1e150]},
                "gain_underflow": {"aperture_m2": 1e-300, "frequencies_hz": [1e-10]}}
# configs whose range chain leaves the float range at 1 THz, each run as
# range there and as sweep --figure 3: sigma_m2 overflows head =
# sigma*G*A*M, and noise_power_dbm overflows (4*pi)^2 * N_B (the sweep
# refuses N_B itself at 7 GHz first)
CHAIN_OVERFLOW_CONFIGS = {"head_overflow": {"sigma_m2": 1e305},
                          "denominator_overflow": {"noise_power_dbm": 2970}}


def config_battery() -> dict[str, dict]:
    """The battery's configs by name: each number field, and each default
    frequency entry, at each of :data:`BATTERY_VALUES`, then the configs of
    several faults."""
    configs = {}
    for kind, value in BATTERY_VALUES.items():
        for field in NUMBER_FIELDS:
            configs[f"{field}-{kind}"] = {field: value}
        for index in range(len(DEFAULT_FREQUENCIES)):
            frequencies = list(DEFAULT_FREQUENCIES)
            frequencies[index] = value
            configs[f"frequencies_hz.{index}-{kind}"] = {"frequencies_hz": frequencies}
    configs.update(MULTI_FAULT_CONFIGS)
    return configs


def corpus() -> list[tuple[list[str], dict[str, str]]]:
    """Each command as (argv, {fixture file name: text})."""
    from qi_rangekit import atmosphere

    table = (Path(atmosphere.__file__).parent / "data" / atmosphere._BUNDLED_NAME).read_text(
        encoding="utf-8")
    attenuated = json.dumps({"attenuation_table_path": "table.csv",
                             "frequencies_hz": [7e9, 60e9, 557e9, 1e12]})
    commands = [(["--config", f"{name}.json", "--dump-config", "-"],
                 {f"{name}.json": json.dumps(config)})
                for name, config in config_battery().items()]
    commands += [
        (["--dump-config", "-"], {}),
        (["power", "--ns", "0.5", "--freq", "7e9", "--bw", "1e9"], {}),
        (["ratio", "--ns", "0.01"], {}),
        (["atten", "--freq", "60e9", "--range-m", "1000"], {}),
        (["range", "--ns", "0.01", "--freq", "1e12"], {}),
        (["covariance", "--ns", "0.5", "--mode", "qi", "--oracle"], {}),
        (["mc", "--ns", "0.1", "--eta", "0.5", "--nb", "1", "--trials", "10000",
          "--seed", "1"], {}),
        (["sweep", "--figure", "1", "--output", "figure1.csv"], {}),
        (["sweep", "--figure", "3", "--output", "figure3.csv"], {}),
        (["--config", "attenuated.json", "sweep", "--figure", "3", "--output", "figure3.csv"],
         {"attenuated.json": attenuated, "table.csv": table}),
    ]
    edge = {"edge.json": json.dumps(EDGE_CONFIG)}
    commands += [
        (["--config", "edge.json", "--dump-config", "-"], edge),
        (["--config", "edge.json", "range", "--ns", "0.01", "--freq", "1e12"], edge),
        (["--config", "edge.json", "sweep", "--figure", "3", "--output", "figure3.csv"], edge),
        (["--codata", "range", "--ns", "0.01", "--freq", "1e12"], {}),
    ]
    bundled = {"bundled.json": json.dumps({"attenuation_table_path": "table.csv"}),
               "table.csv": table}
    for freq in RANGE_FREQUENCIES:
        for n_s in RANGE_N_S:
            point = ["range", "--ns", n_s, "--freq", freq]
            if (n_s, freq) != ("0.01", "1e12"):  # the lossless run above
                commands.append((point, {}))
            commands.append((["--config", "bundled.json", *point], bundled))
    commands += [(["range", *options], {}) for options in RANGE_EDGES]
    commands += [(list(argv), {}) for argv in (*REPEATED_FLAGS, *ORACLE_FLAGS)]
    beyond = {"beyond.json": json.dumps(R_FREE_BEYOND_FLOATS)}
    commands += [(["--config", "beyond.json", "range", "--ns", "8e307", "--freq", "1e12",
                   *mode], beyond) for mode in ((), ("--mode", "qi"))]
    commands += [(["mc", "--ns", "0.01", "--eta", "0.5", "--nb", "1", "--trials", trials,
                   "--seed", "1"], {}) for trials in MC_TRIALS]
    commands += [(["mc", "--ns", "0.1", "--eta", "0.5", "--nb", "1", "--trials", "10000",
                   "--seed", seed], {}) for seed in MC_SEEDS]
    commands += [(["mc", "--ns", n_s, "--eta", "0.5", "--nb", "1", "--trials", "10000",
                   "--seed", "1"], {}) for n_s in MC_LARGE_N_S]
    commands += [(["mc", "--ns", n_s, "--eta", eta, "--nb", n_b, "--trials", "10000",
                   "--seed", "1"], {}) for n_s, eta, n_b in MC_EDGES]
    commands += [(["sweep", "--figure", "1", *options], {}) for options in GRID_REFUSALS]
    commands.append((["sweep", "--figure", "3", "--output", "missing/figure3.csv"], {}))
    for name, text in BAD_TABLES.items():
        config = json.dumps({"attenuation_table_path": f"{name}.csv"})
        commands.append((["--config", f"{name}.json", "atten", "--freq", "60e9"],
                         {f"{name}.json": config, f"{name}.csv": text}))
    commands += [
        (["--config", "bom.json", "--dump-config", "-"],
         {"bom.json": "\ufeff" + json.dumps(BOM_CONFIG)}),
        (["--config", "bom_table.json", "atten", "--freq", "60e9"],
         {"bom_table.json": json.dumps({"attenuation_table_path": "bom_table.csv"}),
          "bom_table.csv": "\ufeff" + table}),
    ]
    commands += [(["covariance", "--ns", n_s, "--mode", mode, "--oracle"], {})
                 for n_s, mode in ORACLE_POINTS]
    for name, config in {**GAIN_CONFIGS, **CHAIN_OVERFLOW_CONFIGS}.items():
        fixture = {f"{name}.json": json.dumps(config)}
        freq = repr(config.get("frequencies_hz", [1e12])[0])
        commands += [(["--config", f"{name}.json", "range", "--ns", "0.01", "--freq", freq],
                      fixture),
                     (["--config", f"{name}.json", "sweep", "--figure", "3", "--output",
                       "figure3.csv"], fixture)]
    return commands


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run(argv: list[str], fixtures: dict[str, str]) -> tuple[str, ...]:
    """The manifest row of one command: (exit code, stdout hash, stderr hash,
    the written files as ``name:hash`` separated by spaces, or ``-``)."""
    from qi_rangekit import cli

    out, err = io.StringIO(), io.StringIO()
    cwd, log_grid = os.getcwd(), cli._log_grid
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in fixtures.items():
            Path(tmp, name).write_text(text, encoding="utf-8")
        try:
            os.chdir(tmp)
            if "sweep" in argv and not any(option in argv for option in GRID_OPTIONS):
                cli._log_grid = lambda ns_min, ns_max, points: list(GOLDEN_GRID)
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
        finally:
            cli._log_grid = log_grid
            os.chdir(cwd)
        written = sorted(path for path in Path(tmp).iterdir() if path.name not in fixtures)
        files = " ".join(f"{path.name}:{_sha256(path.read_bytes())}" for path in written)
    return (str(code), _sha256(out.getvalue().encode()), _sha256(err.getvalue().encode()),
            files or "-")


def run_corpus() -> dict[str, tuple[str, ...]]:
    """Every command's row, keyed by its command line."""
    return {shlex.join(argv): run(argv, fixtures) for argv, fixtures in corpus()}


def read_manifest(path: Path = MANIFEST) -> dict[str, tuple[str, ...]]:
    rows = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        if line and not line.startswith("#"):
            command, *row = line.split("\t")
            rows[command] = tuple(row)
    return rows


def write_manifest(rows: dict[str, tuple[str, ...]], path: Path = MANIFEST) -> None:
    lines = ("\t".join((command, *row)) + "\n" for command, row in rows.items())
    path.write_text(HEADER + "".join(lines), encoding="utf-8")


def moved_rows(rows: dict[str, tuple[str, ...]],
               manifest: dict[str, tuple[str, ...]]) -> list[tuple[str, str]]:
    """(how, command) for each command whose row differs from the
    manifest's: ``added`` where only ``rows`` holds it, ``removed`` where
    only the manifest does, else ``moved``."""
    return [("added" if command not in manifest else "removed" if command not in rows
             else "moved", command)
            for command in {**manifest, **rows} if rows.get(command) != manifest.get(command)]


def main(argv: list[str]) -> int:
    if argv not in ([], ["--update"]):
        print(f"usage: python tests/behaviour.py [--update], got {argv}", file=sys.stderr)
        return 2
    rows = run_corpus()
    moved = moved_rows(rows, read_manifest(MANIFEST) if MANIFEST.exists() else {})
    for how, command in moved:
        print(f"{how}: {command}")
    if argv:
        write_manifest(rows, MANIFEST)
        print(f"wrote {len(rows)} rows to {os.path.relpath(MANIFEST, REPO)}")
        return 0
    print(f"{len(moved)} of {len(rows)} commands moved")
    return 1 if moved else 0


if __name__ == "__main__":
    sys.path.insert(0, str(REPO / "src"))
    sys.exit(main(sys.argv[1:]))
