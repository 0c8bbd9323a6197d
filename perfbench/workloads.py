"""Workload definitions and output checks for the qi-rangekit benchmark.

A workload is a fixed list of ``qi-rangekit`` invocations (one *cycle*).
The benchmark repeats cycles in a closed loop: one client, and the next
invocation starts when the previous one has exited.  The number of cycles
follows from ``--seconds`` alone (see ``cycle_count``), never from a clock.  Every invocation
together with the check of its output is one *operation*; an operation
fails when the process exits non-zero or its output does not pass the
check below.

Sweep grids are fixed so the stored reference outputs stay valid; the
benchmark seed drives only the Monte Carlo seeds of ``verify``.
"""

from __future__ import annotations

import csv
import gzip
import hashlib
import io
import json
import math
import random
import re
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCE_DIR = HERE / "reference"

WORKLOADS = ("sweep_attenuated", "sweep_lossless", "verify")

#: Sweep arguments; ``--ns-min``/``--ns-max`` keep the CLI defaults (1e-3..10).
SWEEP_ARGS = {
    "sweep_attenuated": ["sweep", "--figure", "3", "--points", "250"],
    "sweep_lossless": ["sweep", "--figure", "3", "--points", "10000"],
}
#: Config per workload, relative to the checkout root (None: CLI defaults).
SWEEP_CONFIG = {
    "sweep_attenuated": "perfbench/configs/sweep_attenuated.json",
    "sweep_lossless": None,
    "verify": None,
}

#: Typical wall time, on a 2-vCPU host, of one end-to-end cycle (its
#: processes, the start-up sample that follows it and the host probe after
#: each of them) and of one traced
#: pair (an untraced and a traced in-process cycle).  A run does
#: ``round(seconds / nominal)`` of them, so it lasts about ``--seconds`` while
#: its operations, and with them ``attempted`` and ``failed``, do not depend
#: on how fast the host happens to be during the run.
NOMINAL_CYCLE_S = {"sweep_attenuated": 1.85, "sweep_lossless": 2.1, "verify": 5.3}
NOMINAL_TRACED_PAIR_S = {"sweep_attenuated": 4.4, "sweep_lossless": 7.0, "verify": 4.8}

MC_NS = (0.01, 0.1, 1.0)
MC_TRIALS = 1_000_000
MC_ETA = 0.5
MC_NB = 1.0
ORACLES = (("qi", 10.0), ("qi", 20.0), ("ci", 10.0), ("ci", 1000.0))

#: |ratio - (1 + 1/N_s)| / printed standard error must stay below this.  The
#: printed error is first order (it ignores the noise of the variance
#: estimate), so z has heavier tails than a unit normal: over 1200 runs
#: (seeds 1000-1399 x 3 N_s) |z| reached 4.15, see NOTES.md.
MC_Z_BOUND = 6.0
#: Relative tolerance of sweep ranges against the reference; leaves room for
#: a closed-form (Lambert-W) solve, which differs from bisection by <= 4.7e-10.
RANGE_RTOL = 1e-8
#: Relative tolerance (of the matrix's largest entry) for oracle matrices.
ORACLE_RTOL = 1e-8

#: Operations that fail at the seed commit because of an open defect.  They
#: stay in the workload and count as failed; they do not make ``correct``
#: false.  A later fix makes them pass.
KNOWN_DEFECTS = {
    "covariance qi 20": (
        "tmsv_covariance_oracle overflows n_s**n / (n_s+1)**(n+1) for "
        "N_s >~ 10.5 (n_max >= 303) and prints an all-NaN matrix"
    ),
}


@dataclass
class Invocation:
    """One CLI process of a cycle and how to check its output."""

    key: str
    argv: list[str]
    kind: str  # "sweep", "mc" or "oracle"
    params: dict = field(default_factory=dict)


def mc_seeds(seed: int) -> list[int]:
    rng = random.Random(f"qi-rangekit-verify-{seed}")
    return [rng.randrange(2**32) for _ in MC_NS]


def cycle(workload: str, seed: int, out_dir: Path) -> list[Invocation]:
    """The CLI invocations of one cycle of ``workload``."""
    if workload in SWEEP_ARGS:
        argv = list(SWEEP_ARGS[workload]) + ["--output", str(out_dir / f"{workload}.csv")]
        if SWEEP_CONFIG[workload]:
            argv = ["--config", SWEEP_CONFIG[workload]] + argv
        return [Invocation(workload, argv, "sweep", {"csv": out_dir / f"{workload}.csv"})]
    if workload != "verify":
        raise ValueError(f"unknown workload {workload!r}")
    invocations = []
    for n_s, mc_seed in zip(MC_NS, mc_seeds(seed)):
        argv = ["mc", "--trials", str(MC_TRIALS), "--eta", str(MC_ETA),
                "--nb", str(MC_NB), "--ns", repr(n_s), "--seed", str(mc_seed)]
        invocations.append(Invocation(f"mc {n_s!r}", argv, "mc", {"n_s": n_s}))
    for mode, n_s in ORACLES:
        argv = ["covariance", "--ns", repr(n_s), "--mode", mode, "--oracle"]
        invocations.append(
            Invocation(f"covariance {mode} {n_s:g}", argv, "oracle", {"mode": mode, "n_s": n_s})
        )
    return invocations


def cycle_count(workload: str, seconds: float, traced: bool) -> int:
    """Cycles (traced: untraced/traced pairs) that fill about ``seconds``."""
    nominal = (NOMINAL_TRACED_PAIR_S if traced else NOMINAL_CYCLE_S)[workload]
    return max(1, round(seconds / nominal))


def setup_argv(workload: str, out_dir: Path) -> list[str]:
    """A start-up that loads the workload's config and does no work."""
    argv = ["--dump-config", str(out_dir / "setup-config.json")]
    if SWEEP_CONFIG[workload]:
        argv = ["--config", SWEEP_CONFIG[workload]] + argv
    return argv


# Reference outputs -----------------------------------------------------------
#
# A reference stores the key columns once (the row order is frequency, then
# mode, then N_s) and r_max_m as q = round(ln(r) * scale), second-differenced
# along the rows so that the smooth curves compress to a few kilobytes.


def encode_reference(csv_text: str, argv: list[str]) -> dict:
    rows = list(csv.DictReader(io.StringIO(csv_text)))
    freqs = list(dict.fromkeys(r["frequency_hz"] for r in rows))
    modes = list(dict.fromkeys(r["mode"] for r in rows))
    n_s = list(dict.fromkeys(r["n_s"] for r in rows))
    scale = 1e10
    q, empty, previous = [], [], 0
    for index, row in enumerate(rows):
        if row["r_max_m"] == "":
            empty.append(index)
        else:
            previous = round(math.log(float(row["r_max_m"])) * scale)
        q.append(previous)
    d1 = [b - a for a, b in zip([0] + q, q)]
    d2 = [b - a for a, b in zip([0] + d1, d1)]
    return {
        "argv": argv,
        "rows": len(rows),
        "csv_sha256": hashlib.sha256(csv_text.encode()).hexdigest(),
        "order": ["frequency_hz", "mode", "n_s"],
        "frequency_hz": freqs,
        "mode": modes,
        "n_s": n_s,
        "empty_r_max_rows": empty,
        "log_r_scale": scale,
        "log_r_d2": d2,
    }


def write_reference(workload: str, reference: dict) -> Path:
    path = REFERENCE_DIR / f"{workload}.json.gz"
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = json.dumps(reference, separators=(",", ":")).encode()
    path.write_bytes(gzip.compress(payload, compresslevel=9, mtime=0))
    return path


@dataclass(frozen=True)
class SweepReference:
    keys: list[tuple[str, str, str]]
    r_max: list[float | None]


def load_reference(workload: str) -> SweepReference:
    data = json.loads(gzip.decompress((REFERENCE_DIR / f"{workload}.json.gz").read_bytes()))
    keys = [(n, f, m) for f in data["frequency_hz"] for m in data["mode"] for n in data["n_s"]]
    empty = set(data["empty_r_max_rows"])
    r_max: list[float | None] = []
    d1 = q = 0
    for index, d2 in enumerate(data["log_r_d2"]):
        d1 += d2
        q += d1
        r_max.append(None if index in empty else math.exp(q / data["log_r_scale"]))
    if len(keys) != data["rows"] or len(r_max) != data["rows"]:
        raise ValueError(f"corrupt reference for {workload}")
    return SweepReference(keys, r_max)


# Output checks ---------------------------------------------------------------


def check_sweep_csv(text: str, reference: SweepReference) -> str | None:
    """None if the CSV matches the reference, else the first mismatch.

    Columns are read by name, so added columns are ignored.
    """
    rows = csv.DictReader(io.StringIO(text))
    count = 0
    for index, row in enumerate(rows):
        if index >= len(reference.keys):
            return f"more rows than the reference's {len(reference.keys)}"
        try:
            key = (row["n_s"], row["frequency_hz"], row["mode"])
            field_r = row["r_max_m"]
        except KeyError as exc:
            return f"missing column {exc}"
        if key != reference.keys[index]:
            return f"row {index}: key {key} != reference {reference.keys[index]}"
        expected = reference.r_max[index]
        if expected is None or field_r in ("", None):
            if not (expected is None and field_r == ""):
                return f"row {index}: r_max_m {field_r!r} where reference {expected!r}"
            count += 1
            continue
        try:
            value = float(field_r)
        except ValueError:
            return f"row {index}: unparsable r_max_m {field_r!r}"
        if not abs(value - expected) <= RANGE_RTOL * abs(expected):
            return f"row {index}: r_max_m {value!r} vs reference {expected!r}"
        count += 1
    if count != len(reference.keys):
        return f"{count} rows, reference has {len(reference.keys)}"
    return None


_MC_LINE = re.compile(r"gain \(QI/CI\) = (\S+) \+/- (\S+) ")


def check_mc(stdout: str, n_s: float) -> tuple[str | None, float]:
    """(failure or None, z) for one ``mc`` output against 1 + 1/N_s."""
    match = _MC_LINE.search(stdout)
    if not match:
        return f"unparsable mc output {stdout.strip()!r}", math.nan
    ratio, error = float(match.group(1)), float(match.group(2))
    z = (ratio - (1.0 + 1.0 / n_s)) / error if error > 0 else math.inf
    if not abs(z) <= MC_Z_BOUND:
        return f"z = {z:.3g} outside +/-{MC_Z_BOUND:g} (ratio {ratio}, error {error})", z
    return None, z


_NUMBER = re.compile(r"[-+]?(?:nan|inf|\d+\.?\d*(?:e[-+]?\d+)?)", re.IGNORECASE)


def _parse_matrices(stdout: str) -> list[list[list[float]]]:
    matrices, current = [], []
    for line in stdout.splitlines():
        label = line[:8].strip()
        if label in ("I_S", "Q_S", "I_I", "Q_I"):
            current.append([float(v) for v in _NUMBER.findall(line[8:])])
            if len(current) == 4:
                matrices.append(current)
                current = []
    return matrices


def closed_form_covariance(mode: str, n_s: float) -> list[list[float]]:
    cross = 2.0 * math.sqrt(n_s * (n_s + 1.0)) if mode == "qi" else 2.0 * n_s
    d = 2.0 * n_s + 1.0
    return [[d, 0.0, cross, 0.0], [0.0, d, 0.0, -cross],
            [cross, 0.0, d, 0.0], [0.0, -cross, 0.0, d]]


def check_oracle(stdout: str, mode: str, n_s: float) -> tuple[str | None, float]:
    """(failure or None, Q-sector gap) for one ``covariance --oracle`` output.

    qi: the oracle must be finite and match the closed form.  ci: the
    I-sector must match; the Q-sector gap is the documented model/oracle
    discrepancy and is returned as a value, not judged.
    """
    matrices = _parse_matrices(stdout)
    if len(matrices) != 2 or any(len(row) != 4 for m in matrices for row in m):
        return "unparsable covariance output", math.nan
    printed, oracle = matrices
    closed = closed_form_covariance(mode, n_s)
    tol = ORACLE_RTOL * max(abs(v) for row in closed for v in row)
    if not all(abs(printed[i][j] - closed[i][j]) <= tol for i in range(4) for j in range(4)):
        return "printed closed-form matrix differs from the analytic one", math.nan
    if not all(math.isfinite(v) for row in oracle for v in row):
        return "oracle matrix is not finite", math.nan
    checked = range(4) if mode == "qi" else (0, 2)
    for i in checked:
        for j in checked:
            if not abs(oracle[i][j] - closed[i][j]) <= tol:
                return (f"oracle[{i}][{j}] = {oracle[i][j]!r} vs closed form "
                        f"{closed[i][j]!r}"), math.nan
    q_gap = max(abs(oracle[i][j] - closed[i][j]) for i in (1, 3) for j in (1, 3))
    return None, q_gap


class Checker:
    """Counts operations and failures, and probes determinism.

    Within one benchmark run every sweep CSV must hash like the first one and
    every ``mc`` output line must equal the first one for its seed; a
    mismatch fails the operation.
    """

    def __init__(self, workload: str):
        self.reference = load_reference(workload) if workload in SWEEP_ARGS else None
        self.attempted = 0
        self.failed = 0
        self.unexpected = 0
        self.failures: dict[str, str] = {}
        self.first_output: dict[str, str] = {}
        self.sweep_results: dict[str, str | None] = {}
        self.rows: dict[str, int] = {}
        self.csv_bytes: dict[str, int] = {}
        self.z: dict[str, float] = {}
        self.q_gaps: dict[str, float] = {}

    @property
    def correct(self) -> bool:
        """No failure other than the known defects."""
        return self.unexpected == 0

    def check(self, inv: Invocation, returncode: int, stdout: str) -> None:
        """Count one operation: the process plus the check of its output."""
        self.attempted += 1
        problem = self._problem(inv, returncode, stdout)
        if problem is not None:
            self.fail(inv.key, problem)

    def fail(self, key: str, problem: str) -> None:
        """Count a failure of an operation already counted as attempted."""
        self.failed += 1
        self.failures.setdefault(key, problem)
        if key not in KNOWN_DEFECTS:
            self.unexpected += 1

    def _problem(self, inv: Invocation, returncode: int, stdout: str) -> str | None:
        if returncode != 0:
            return f"exit code {returncode}"
        if inv.kind == "sweep":
            data = Path(inv.params["csv"]).read_bytes()
            digest = hashlib.sha256(data).hexdigest()
            self.csv_bytes[inv.key] = len(data)
            if digest != self.first_output.setdefault(inv.key, digest):
                return "CSV differs from the first cycle's CSV"
            if digest not in self.sweep_results:
                text = data.decode("utf-8")
                self.rows[inv.key] = text.count("\n") - 1
                self.sweep_results[digest] = check_sweep_csv(text, self.reference)
            return self.sweep_results[digest]
        if inv.kind == "mc":
            line = stdout.strip()
            if line != self.first_output.setdefault(inv.key, line):
                return "mc output differs from the first cycle's for the same seed"
            problem, self.z[inv.key] = check_mc(stdout, inv.params["n_s"])
            return problem
        problem, gap = check_oracle(stdout, inv.params["mode"], inv.params["n_s"])
        if problem is None and inv.params["mode"] == "ci":
            self.q_gaps[inv.key] = gap
        return problem
