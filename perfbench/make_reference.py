"""Regenerate the stored sweep reference outputs from the current sources.

    python3 perfbench/make_reference.py

The committed references were made from the package before any
optimisation; regenerate them only when a change to the sweep output is
intended and recorded.
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

import run
import workloads


def main() -> int:
    run.cap_blas_threads()
    env = run.child_env()
    with tempfile.TemporaryDirectory(dir=run.ROOT) as tmp:
        for workload in workloads.SWEEP_ARGS:
            invocation = workloads.cycle(workload, 0, Path(tmp))[0]
            code, _, _, _ = run.run_cli(invocation.argv, env, Path(tmp))
            if code != 0:
                print(f"{workload}: exit code {code}", file=sys.stderr)
                return 1
            text = invocation.params["csv"].read_text(encoding="utf-8")
            argv = [a if a != str(invocation.params["csv"]) else "<csv>" for a in invocation.argv]
            path = workloads.write_reference(workload, workloads.encode_reference(text, argv))
            reference = workloads.load_reference(workload)
            problem = workloads.check_sweep_csv(text, reference)
            if problem:
                print(f"{workload}: reference does not round-trip: {problem}", file=sys.stderr)
                return 1
            print(f"{workload}: {len(reference.keys)} rows -> {path} ({path.stat().st_size} bytes)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
