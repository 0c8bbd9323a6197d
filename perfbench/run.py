"""qi-rangekit benchmark: end-to-end CLI timings and a traced per-layer run.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload sweep_attenuated --seed 1 --seconds 25 --trace 0

``--trace 0`` runs the real ``qi-rangekit`` CLI as subprocesses, in a closed
loop of a fixed number of cycles sized from ``--seconds``, and reports the
end-to-end metrics.  ``--trace 1`` runs the same
invocations in this process with perf_counter spans around every layer's
public functions and reports per-layer metrics (see ``spans.py``).  The
package is imported from ``src/`` of the checkout; nothing is installed.

Progress and a human-readable report go to standard output; the last line
is one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  A full record, with machine facts, is written under
``.perfbench_out/``.  Workloads, seeds and checks: ``workloads.py``;
why they were chosen: ``NOTES.md``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_ROOT = ROOT / ".perfbench_out"

#: Start-ups timed for ``setup_s`` before the first cycle (after one untimed
#: warm-up); one more follows every cycle.
SETUP_SAMPLES = 5
PROCESS_TIMEOUT_S = 150
#: About what ``host_probe_s`` takes on a quiet 2-vCPU host.  The gated times
#: are in probe units scaled by this (see ``run_end_to_end``); the raw times
#: are printed and kept in the record.
REFERENCE_PROBE_S = 0.1

CLI_BOOTSTRAP = "from qi_rangekit.cli import entrypoint; entrypoint()"

sys.path.insert(0, str(HERE))
import workloads  # noqa: E402


def blas_threads() -> int:
    return len(os.sched_getaffinity(0))


def cap_blas_threads() -> None:
    """Cap BLAS threads at the CPUs this process may use, for this process
    (before numpy is imported) and every child."""
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[name] = str(blas_threads())


def child_env() -> dict[str, str]:
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


def run_cli(argv: list[str], env: dict[str, str], scratch: Path) -> tuple[int, str, float, float]:
    """Run one ``qi-rangekit`` process.

    Returns (exit code, stdout, wall seconds, max RSS in MB); stdout goes
    through a file in ``scratch`` so the process is reaped with ``wait4``.
    """
    stdout_path = scratch / "stdout.txt"
    with stdout_path.open("w+", encoding="utf-8") as out:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", CLI_BOOTSTRAP, *argv], cwd=ROOT,
                                env=env, stdout=out, stderr=subprocess.DEVNULL)
        watchdog = threading.Timer(PROCESS_TIMEOUT_S, proc.kill)
        watchdog.start()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        watchdog.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        return proc.returncode, out.read(), wall, usage.ru_maxrss / 1024.0


def host_probe_s() -> float:
    """Wall time of a fixed piece of interpreter work, 0.1 to 0.2 s.

    It runs in this process between the CLI processes, so it sees the same
    host phases as they do.  It imports nothing, so it leaves this process's
    memory, and with it the children's max-RSS, unchanged.
    """
    start = time.perf_counter()
    acc, table = 0.0, {}
    for i in range(1, 160_001):
        acc += math.log(i) / (i + 0.5)
        table[i & 1023] = f"{acc:.10g}"
    elapsed = time.perf_counter() - start
    if not math.isfinite(acc) or len(table) != 1024:
        raise RuntimeError("host probe went wrong")
    return elapsed


def machine_facts(seed: int) -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = "missing"
    return {
        "nproc": blas_threads(),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "blas_thread_cap": blas_threads(),
        "seed": seed,
    }


def run_end_to_end(workload: str, seed: int, seconds: float, out_dir: Path,
                   checker: workloads.Checker) -> tuple[dict, dict]:
    env = child_env()
    setup_cmd = workloads.setup_argv(workload, out_dir)
    setups, probes = [], []

    def start_up() -> None:
        code, _, wall, _ = run_cli(setup_cmd, env, out_dir)
        if code != 0:
            raise RuntimeError(f"start-up {setup_cmd} exited {code}")
        setups.append(wall)
        probes.append(host_probe_s())

    start_up()  # warm-up: fills the bytecode and file caches
    setups.clear()
    probes.clear()
    for _ in range(SETUP_SAMPLES):
        start_up()

    invocations = workloads.cycle(workload, seed, out_dir)
    walls = {inv.key: [] for inv in invocations}
    rss = {inv.key: [] for inv in invocations}
    cycles = workloads.cycle_count(workload, seconds, traced=False)
    for _ in range(cycles):
        for inv in invocations:
            code, stdout, wall, max_rss = run_cli(inv.argv, env, out_dir)
            checker.check(inv, code, stdout)
            walls[inv.key].append(wall)
            rss[inv.key].append(max_rss)
            probes.append(host_probe_s())
        start_up()  # spread the start-up samples over the run's machine phases

    # Other tenants of a shared host slow it, this process's probe included,
    # by up to half, in phases of a fraction of a second to minutes.  A probe
    # after every process samples those phases in step with the work, so each
    # gated time is a mean wall time over the run divided by the run's mean
    # probe time, in seconds of a host whose probe takes REFERENCE_PROBE_S.
    # Means, not medians: both samples are bimodal (fast and slow phases), and
    # a median jumps between the modes (see NOTES.md, "Host speed").
    slowdown = statistics.fmean(probes) / REFERENCE_PROBE_S
    mean = {key: statistics.fmean(values) for key, values in walls.items()}
    work_s = sum(mean[inv.key] for inv in invocations if inv.kind != "oracle")
    oracle_s = sum(mean[inv.key] for inv in invocations if inv.kind == "oracle")
    if workload == "verify":
        items = len(workloads.MC_NS) * workloads.MC_TRIALS
    else:
        items = checker.rows.get(workload, 0)
    metrics = {
        "setup_s": (statistics.fmean(setups) / slowdown, "s"),
        "wall_adj_s": ((work_s + oracle_s) / slowdown, "s"),
        "work_adj_per_s": (items / work_s * slowdown, "1/s"),
        "peak_rss_mb": (max(statistics.median(values) for values in rss.values()), "MB"),
    }
    # The unscaled means, and the figures behind the gated ones, by their own names.
    named = {"setup_raw_s": (statistics.fmean(setups), "s"),
             "wall_s": (work_s + oracle_s, "s"),
             "work_per_s": (items / work_s, "1/s"),
             "host_probe_s": (statistics.fmean(probes), "s"),
             "host_slowdown": (slowdown, "ratio"),
             "failed_fraction": (checker.failed / checker.attempted, "ratio"),
             "cycles": (cycles, "count")}
    if workload == "verify":
        named["mc_trials_per_s"] = (items / work_s, "trials/s")
        named["oracle_s"] = (oracle_s, "s")
        for key, gap in checker.q_gaps.items():
            named[f"q_sector_gap[{key}]"] = (gap, "abs")
        for key, z in checker.z.items():
            named[f"z[{key}]"] = (z, "sigma")
    else:
        named["rows_per_s"] = (items / work_s, "rows/s")
        named["rows"] = (items, "count")
    detail = {
        "named": {k: {"value": v, "unit": u} for k, (v, u) in named.items()},
        "samples": {"setup_s": setups, "host_probe_s": probes,
                    **{f"wall_s[{key}]": values for key, values in walls.items()},
                    **{f"max_rss_mb[{key}]": values for key, values in rss.items()}},
    }
    return metrics, detail


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "qi_rangekit" / "cli.py").is_file():
        print(f"error: no qi_rangekit sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    cap_blas_threads()

    # One directory per workload and mode, overwritten by the next run.
    out_dir = OUT_ROOT / f"{args.workload}-trace{args.trace}"
    out_dir.mkdir(parents=True, exist_ok=True)
    checker = workloads.Checker(args.workload)
    facts = machine_facts(args.seed)
    print(f"# {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace} "
          f"facts={json.dumps(facts)}", flush=True)

    if args.trace:
        import spans

        metrics, detail = spans.run_traced(
            args.workload, args.seed, args.seconds, out_dir, checker, root=ROOT, src=SRC
        )
    else:
        metrics, detail = run_end_to_end(args.workload, args.seed, args.seconds, out_dir, checker)

    for name, (value, unit) in metrics.items():
        print(f"{name:<48} {value:>16.6g} {unit}")
    for name, entry in detail.get("named", {}).items():
        print(f"  {name:<46} {entry['value']:>16.6g} {entry['unit']}")
    for key, problem in checker.failures.items():
        known = " (known defect)" if key in workloads.KNOWN_DEFECTS else ""
        print(f"FAILED {key}{known}: {problem}")

    result = {
        "correct": checker.correct,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    record = dict(result, workload=args.workload, seconds=args.seconds, trace=args.trace,
                  facts=facts, failures=checker.failures,
                  known_defects=workloads.KNOWN_DEFECTS, **detail)
    (out_dir / f"result-seed{args.seed}.json").write_text(json.dumps(record, indent=2) + "\n")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
