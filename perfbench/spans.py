"""Traced per-layer run: perf_counter spans around each layer's public functions.

The spans are installed from this file, on the module attributes the CLI
resolves (``qi_rangekit.cli.r_max``, ``qi_rangekit.atmosphere.gamma_at``,
...): every ``qi_rangekit`` module attribute that *is* a wrapped function
is replaced, so ``from .x import f`` call sites are traced too.  The package
itself is not edited.

A span records name, start, end and parent.  Spans are kept in memory
(compact arrays), reduced after each traced cycle, and those of the last
traced cycle are written out at the end.  Self time is a span's duration
minus the durations of its direct children.  A function that is missing,
or no longer called, reports 0.

The run alternates untraced and traced cycles of the same invocations in
this process; the tracing overhead is the median traced cycle minus the
median untraced cycle.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import io
import json
import os
import statistics
import subprocess
import sys
import time
from array import array
from pathlib import Path

import workloads

#: (module, attribute or Class.method, options).  Layers are named after the
#: module; the spans of one layer are summed where the metric says so.
TRACED = [
    ("cli", "main", {}),
    ("config", "load_config", {}),
    ("config", "parse_config", {}),
    ("config", "dump_config", {}),
    ("config", "ScenarioConfig.load_attenuation_table", {}),
    ("config", "ScenarioConfig.make_problem", {}),
    ("radiometry", "watts_to_dbm", {"distinct": True}),
    ("radiometry", "dbm_to_watts", {"distinct": True}),
    ("radiometry", "transmit_power", {"distinct": True}),
    ("radiometry", "photons_per_mode", {"distinct": True}),
    ("radiometry", "thermal_occupancy", {"distinct": True}),
    ("radiometry", "noise_power", {"distinct": True}),
    ("radiometry", "t_eff_from_noise_power", {"distinct": True}),
    ("atmosphere", "load_table", {}),
    ("atmosphere", "parse_table", {}),
    ("atmosphere", "bundled_table", {}),
    ("atmosphere", "gamma_at", {"distinct": True}),
    ("atmosphere", "form_factor", {}),
    ("link_budget", "antenna_gain", {}),
    ("link_budget", "channel_transmissivity", {}),
    ("link_budget", "received_power", {}),
    ("link_budget", "snr", {}),
    ("link_budget", "snr_eff", {}),
    ("link_budget", "evaluate_link", {}),
    ("link_budget", "albersheim_snr_min", {}),
    ("range_solver", "r_max", {"solutions": True}),
    ("range_solver", "r_max_free", {}),
    ("range_solver", "threshold_linear", {}),
    ("range_solver", "sensitivity_gain", {}),
    ("range_solver", "quantum_advantage_factor", {}),
    ("range_solver", "sweep_range", {}),
    ("detection_mc", "sample_quadratures", {}),
    ("detection_mc", "estimate_covariance", {}),
    ("detection_mc", "detector_gain_experiment", {}),
    ("detection_mc", "roc_estimate", {}),
    ("quantum_states", "tmsv_covariance", {}),
    ("quantum_states", "coherent_covariance", {}),
    ("quantum_states", "correlation_ratio", {}),
    ("quantum_states", "min_fock_cutoff", {}),
    ("quantum_states", "tmsv_covariance_oracle", {}),
    ("quantum_states", "coherent_covariance_oracle", {}),
]
#: Count-only probe (no span): the Fock dimension each oracle works in.
ORACLE_DIM_PROBE = ("quantum_states", "_second_moments")

#: Per-layer metrics: name -> (unit, better).  BENCHMARK.json lists the same.
PER_LAYER = {
    "cli.import_s": ("s", "lower"),
    "cli.self_s": ("s", "lower"),
    "cli.csv_bytes": ("bytes", "lower"),
    "config.load_config_ms": ("ms", "lower"),
    "config.make_problem.calls": ("count", "lower"),
    "config.make_problem.self_us": ("us/call", "lower"),
    "radiometry.calls": ("count", "lower"),
    "radiometry.self_us": ("us/call", "lower"),
    "radiometry.distinct_ratio": ("ratio", "higher"),
    "atmosphere.load_table_ms": ("ms", "lower"),
    "atmosphere.gamma_at.calls": ("count", "lower"),
    "atmosphere.gamma_at.self_us": ("us/call", "lower"),
    "atmosphere.gamma_at.distinct_ratio": ("ratio", "higher"),
    "link_budget.antenna_gain.calls_per_point": ("count/point", "lower"),
    "range_solver.r_max.calls": ("count", "lower"),
    "range_solver.r_max.self_us": ("us/call", "lower"),
    "range_solver.iterations_per_point": ("count/point", "lower"),
    "range_solver.converged_ratio": ("ratio", "higher"),
    "range_solver.no_detection": ("count", "lower"),
    "range_solver.near_field": ("count", "lower"),
    "detection_mc.gain_experiment.self_s": ("s", "lower"),
    "detection_mc.draw_ms_per_1e6": ("ms", "lower"),
    "detection_mc.estimate_covariance_ms_per_1e6": ("ms", "lower"),
    "detection_mc.draw_gb_per_s_computed": ("GB/s", "higher"),
    "quantum_states.tmsv_oracle.self_ms": ("ms", "lower"),
    "quantum_states.coherent_oracle.self_ms": ("ms", "lower"),
    "quantum_states.oracle_dim": ("count", "lower"),
    "trace.spans_per_cycle": ("count", "lower"),
    "trace.overhead_s": ("s", "lower"),
}
#: Metrics that are exact counts; they must repeat in every traced cycle.
EXACT = {
    "cli.csv_bytes", "config.make_problem.calls", "radiometry.calls",
    "radiometry.distinct_ratio", "atmosphere.gamma_at.calls",
    "atmosphere.gamma_at.distinct_ratio", "link_budget.antenna_gain.calls_per_point",
    "range_solver.r_max.calls", "range_solver.iterations_per_point",
    "range_solver.converged_ratio", "range_solver.no_detection",
    "range_solver.near_field", "quantum_states.oracle_dim", "trace.spans_per_cycle",
}
PROBE_ROWS = 1_000_000
PROBE_REPEATS = 5
IMPORT_SAMPLES = 5


def _input_key(args, kwargs) -> tuple:
    """Hashable identity of a call's inputs: numbers by value, objects by id."""
    def part(value):
        return value if isinstance(value, (int, float, str)) else id(value)
    return tuple(map(part, args)) + tuple((k, part(v)) for k, v in sorted(kwargs.items()))


class Tracer:
    """Span store plus the few per-call observations the metrics need."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_id: dict[str, int] = {}
        self.span_name = array("H")
        self.span_parent = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack = [-1]
        self.inputs: dict[int, set] = {}
        self.solutions: list[tuple] = []
        self.no_detection = 0
        self.oracle_dims: list[int] = []
        self.patches: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    def clear(self) -> None:
        for store in (self.span_name, self.span_parent, self.span_start, self.span_end):
            del store[:]
        self.stack[:] = [-1]
        for seen in self.inputs.values():
            seen.clear()
        self.solutions.clear()
        self.no_detection = 0
        self.oracle_dims.clear()

    def _id(self, name: str) -> int:
        if name not in self.name_id:
            self.name_id[name] = len(self.names)
            self.names.append(name)
            self.inputs[self.name_id[name]] = set()
        return self.name_id[name]

    def wrap(self, fn, name: str, distinct: bool = False, solutions: bool = False):
        nid = self._id(name)
        names, parents, starts, ends = (
            self.span_name, self.span_parent, self.span_start, self.span_end)
        stack, seen, clock = self.stack, self.inputs[nid], time.perf_counter

        def traced(*args, **kwargs):
            if distinct:
                seen.add(_input_key(args, kwargs))
            index = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                ends[index] = clock()
                stack.pop()
                if solutions and type(exc).__name__ == "NoDetectionError":
                    self.no_detection += 1
                raise
            ends[index] = clock()
            stack.pop()
            if solutions:
                self._note_solution(args, result)
            return result

        return functools.update_wrapper(traced, fn)

    def _note_solution(self, args, solution) -> None:
        try:
            problem = args[0]
            self.solutions.append((
                problem.f_hz, problem.gamma_db_per_km, problem.radar.sigma_m2,
                problem.radar.aperture_m2, problem.constants,
                solution.r_max_m, solution.iterations, solution.converged,
            ))
        except (AttributeError, IndexError):
            pass

    def install(self, package) -> None:
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == package or n.startswith(package + ".")]
        for module_name, attr, options in TRACED:
            self._patch(package, module_name, attr, modules,
                        lambda fn, a=attr, m=module_name, o=options:
                        self.wrap(fn, f"{m}.{a.split('.')[-1]}", **o))
        dims = self.oracle_dims

        def dim_probe(fn):
            def probed(psi, *args, **kwargs):
                dims.append(int(getattr(psi, "shape", (0,))[0]))
                return fn(psi, *args, **kwargs)
            return functools.update_wrapper(probed, fn)

        self._patch(package, *ORACLE_DIM_PROBE, modules, dim_probe)

    def _patch(self, package, module_name, attr, modules, make) -> None:
        try:
            home = importlib.import_module(f"{package}.{module_name}")
        except ImportError:
            self.missing.append(f"{module_name}.{attr}")
            return
        if "." in attr:
            class_name, method = attr.split(".")
            cls = getattr(home, class_name, None)
            original = vars(cls).get(method) if cls is not None else None
            if not callable(original):
                self.missing.append(f"{module_name}.{attr}")
                return
            self.patches.append((cls, method, original))
            setattr(cls, method, make(original))
            return
        original = getattr(home, attr, None)
        if not callable(original):
            self.missing.append(f"{module_name}.{attr}")
            return
        wrapped = make(original)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    self.patches.append((module, key, original))
                    setattr(module, key, wrapped)

    def uninstall(self) -> None:
        for target, key, original in reversed(self.patches):
            setattr(target, key, original)
        self.patches.clear()

    def reduce(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total and self seconds."""
        count = len(self.span_start)
        child = [0.0] * count
        starts, ends, parents = self.span_start, self.span_end, self.span_parent
        for index in range(count):
            parent = parents[index]
            if parent >= 0:
                child[parent] += ends[index] - starts[index]
        stats = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for name in self.names}
        for index in range(count):
            entry = stats[self.names[self.span_name[index]]]
            duration = ends[index] - starts[index]
            entry["calls"] += 1
            entry["total_s"] += duration
            entry["self_s"] += duration - child[index]
        for nid, name in enumerate(self.names):
            stats[name]["distinct"] = len(self.inputs[nid])
        return stats

    def write(self, path: Path) -> None:
        """Write the current spans: a JSON header line, then one line per span
        (name, start, end, parent index)."""
        with path.open("w", encoding="utf-8") as handle:
            handle.write(json.dumps({"fields": ["name", "start_s", "end_s", "parent"]}) + "\n")
            for index in range(len(self.span_start)):
                handle.write(f"{self.names[self.span_name[index]]},{self.span_start[index]!r},"
                             f"{self.span_end[index]!r},{self.span_parent[index]}\n")


def _near_field(solutions, package) -> int:
    """Roots where eta > 1, evaluated through link_budget.channel_transmissivity."""
    link_budget = importlib.import_module(f"{package}.link_budget")
    atmosphere = importlib.import_module(f"{package}.atmosphere")
    errors = importlib.import_module(f"{package}.errors")
    near = 0
    for f_hz, gamma, sigma, aperture, constants, r_m, _, _ in solutions:
        gain = link_budget.antenna_gain(aperture, f_hz, constants)
        f_form = atmosphere.form_factor(gamma, r_m)
        try:
            eta = link_budget.channel_transmissivity(sigma, gain, aperture, f_form, r_m)
        except errors.UnphysicalGeometryError:
            near += 1
            continue
        near += eta > 1.0
    return near


def _layer_metrics(stats: dict, tracer: Tracer, checker, workload: str, package: str) -> dict:
    def get(name: str, key: str) -> float:
        return stats.get(name, {}).get(key, 0)

    def per_call_us(names: list[str]) -> float:
        calls = sum(get(n, "calls") for n in names)
        return 1e6 * sum(get(n, "self_s") for n in names) / calls if calls else 0.0

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    points = checker.rows.get(workload, 0)
    radiometry = [n for n in stats if n.startswith("radiometry.")]
    solutions = tracer.solutions
    return {
        "cli.self_s": get("cli.main", "self_s"),
        "cli.csv_bytes": checker.csv_bytes.get(workload, 0),
        "config.load_config_ms": 1e3 * get("config.load_config", "total_s"),
        "config.make_problem.calls": get("config.make_problem", "calls"),
        "config.make_problem.self_us": per_call_us(["config.make_problem"]),
        "radiometry.calls": sum(get(n, "calls") for n in radiometry),
        "radiometry.self_us": per_call_us(radiometry),
        "radiometry.distinct_ratio": ratio(sum(get(n, "distinct") for n in radiometry),
                                           sum(get(n, "calls") for n in radiometry)),
        "atmosphere.load_table_ms": 1e3 * get("atmosphere.load_table", "total_s"),
        "atmosphere.gamma_at.calls": get("atmosphere.gamma_at", "calls"),
        "atmosphere.gamma_at.self_us": per_call_us(["atmosphere.gamma_at"]),
        "atmosphere.gamma_at.distinct_ratio": ratio(get("atmosphere.gamma_at", "distinct"),
                                                    get("atmosphere.gamma_at", "calls")),
        "link_budget.antenna_gain.calls_per_point": ratio(
            get("link_budget.antenna_gain", "calls"), points),
        "range_solver.r_max.calls": get("range_solver.r_max", "calls"),
        "range_solver.r_max.self_us": per_call_us(["range_solver.r_max"]),
        "range_solver.iterations_per_point": ratio(sum(s[6] for s in solutions), points),
        "range_solver.converged_ratio": ratio(sum(bool(s[7]) for s in solutions), len(solutions)),
        "range_solver.no_detection": tracer.no_detection,
        "range_solver.near_field": _near_field(solutions, package),
        "detection_mc.gain_experiment.self_s": get("detection_mc.detector_gain_experiment",
                                                   "self_s"),
        "quantum_states.tmsv_oracle.self_ms": 1e3 * get("quantum_states.tmsv_covariance_oracle",
                                                        "self_s"),
        "quantum_states.coherent_oracle.self_ms": 1e3 * get(
            "quantum_states.coherent_covariance_oracle", "self_s"),
        "quantum_states.oracle_dim": max(tracer.oracle_dims, default=0),
        "trace.spans_per_cycle": len(tracer.span_start),
    }


def _run_cycle(cli, invocations, checker) -> float:
    """Run one cycle of invocations through ``cli.main`` in this process."""
    total = 0.0
    for inv in invocations:
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(inv.argv)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
        total += time.perf_counter() - start
        checker.check(inv, code, out.getvalue())
    return total


def _median_ms(fn, *args) -> float:
    times = []
    for _ in range(PROBE_REPEATS):
        start = time.perf_counter()
        fn(*args)
        times.append(time.perf_counter() - start)
    return 1e3 * statistics.median(times)


def _mc_probes(package: str) -> dict:
    """detection_mc probes at 1e6 rows: draw and covariance estimate."""
    detection_mc = importlib.import_module(f"{package}.detection_mc")
    quantum_states = importlib.import_module(f"{package}.quantum_states")
    sample = getattr(detection_mc, "sample_quadratures", None)
    estimate = getattr(detection_mc, "estimate_covariance", None)
    if sample is None or estimate is None:
        return {}
    cov = quantum_states.tmsv_covariance(1.0)
    draw_ms = _median_ms(sample, cov, PROBE_ROWS, 7)
    samples = sample(cov, PROBE_ROWS, 7)
    # Computed, not measured: the (n, 4) float64 normals are written and read
    # once, and the (n, 4) result is written once.
    moved_bytes = 3 * samples.nbytes
    return {
        "detection_mc.draw_ms_per_1e6": draw_ms,
        "detection_mc.estimate_covariance_ms_per_1e6": _median_ms(estimate, samples),
        "detection_mc.draw_gb_per_s_computed": moved_bytes / (draw_ms / 1e3) / 1e9,
    }


def _import_seconds(src: Path) -> float:
    """Median wall time of ``import qi_rangekit.cli`` in a fresh interpreter."""
    code = ("import time; t = time.perf_counter(); import qi_rangekit.cli; "
            "print(time.perf_counter() - t)")
    env = {**os.environ, "PYTHONPATH": str(src)}
    times = []
    for _ in range(IMPORT_SAMPLES):
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             stdout=subprocess.PIPE, text=True, timeout=120).stdout
        times.append(float(out))
    return statistics.median(times)


def run_traced(workload: str, seed: int, seconds: float, out_dir: Path, checker,
               root: Path, src: Path) -> tuple[dict, dict]:
    import_s = _import_seconds(src)
    sys.path.insert(0, str(src))
    cli = importlib.import_module("qi_rangekit.cli")
    package = "qi_rangekit"
    if not Path(cli.__file__).resolve().is_relative_to(src.resolve()):
        raise RuntimeError(f"imported {cli.__file__}, not the checkout's sources")
    os.chdir(root)
    invocations = workloads.cycle(workload, seed, out_dir)
    tracer = Tracer()
    untraced, traced, per_cycle = [], [], []
    _run_cycle(cli, invocations, checker)  # warm-up: first-call imports, caches
    for _ in range(workloads.cycle_count(workload, seconds, traced=True)):
        untraced.append(_run_cycle(cli, invocations, checker))
        tracer.clear()
        tracer.install(package)
        try:
            traced.append(_run_cycle(cli, invocations, checker))
        finally:
            tracer.uninstall()
        per_cycle.append(_layer_metrics(tracer.reduce(), tracer, checker, workload, package))
    tracer.write(out_dir / "spans.csv")  # the last traced cycle

    metrics = {}
    for name in per_cycle[0]:
        values = [cycle_metrics[name] for cycle_metrics in per_cycle]
        if name in EXACT:
            checker.attempted += 1
            if any(v != values[0] for v in values):
                checker.fail(f"trace {name}", f"count varies between traced cycles: {values}")
            metrics[name] = values[0]
        else:
            metrics[name] = statistics.median(values)
    metrics["cli.import_s"] = import_s
    if workload == "verify":
        metrics.update(_mc_probes(package))
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)

    ordered = {name: (float(metrics.get(name, 0.0)), unit)
               for name, (unit, _) in PER_LAYER.items()}
    detail = {
        "named": {
            "trace.untraced_cycle_s": {"value": statistics.median(untraced), "unit": "s"},
            "trace.traced_cycle_s": {"value": statistics.median(traced), "unit": "s"},
            "trace.cycles": {"value": len(traced), "unit": "count"},
        },
        "missing_functions": tracer.missing,
        "per_cycle": per_cycle,
    }
    return ordered, detail
