"""Mutation check over the package's decision lines.

Usage, from the checkout root::

    python tests/mutants.py              # every mutant
    python tests/mutants.py NAME...      # the named mutants only

Each mutant changes one function of ``src/qi_rangekit``: ``ast`` finds the
function, the mutant's text must occur exactly once in it, and the changed
module must differ from the original in exactly one token, or hold the same
tokens in another order (two draws or two names exchanged), or the text must
be one call that the mutant replaces by a call of another function on some
of its arguments (a fold swapped for ``math.fsum``).  Every
mutant is applied alone to a copy of the package in a temporary directory,
and the tier-1 tests it names (test files, or pytest node ids such as
``tests/test_cli.py::test_name``) run against that copy (``PYTHONPATH``),
stopping at the first failure.  A mutant is killed when a test fails; the
script prints, per mutant, the first test that failed and the seconds taken,
and exits 1 if any mutant survives or cannot be applied.  Every test file
the mutants to run name first runs whole against an unchanged copy, and must
pass there.  Given names, the script runs those mutants alone, in the order
given; a name that is no mutant's exits 2 before any test runs.

Only the standard library is used; pytest runs in a child process.  CI runs
this script as its own step, apart from the tier-1 suite.
"""

from __future__ import annotations

import ast
import io
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
import tokenize
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
PACKAGE = REPO / "src" / "qi_rangekit"

SOLVER = ("tests/test_range_solver.py",)
FILES = ("tests/test_config.py", "tests/test_atmosphere.py", "tests/test_cli.py")
GAIN_PINNED = ("tests/test_detection_mc.py::test_gain_experiment_output_is_pinned",)
EXTREME_C = ("tests/test_link_budget.py::"
             "test_a_c_whose_square_leaves_the_float_range_is_refused_by_name",)

# name: (module, function, text, mutated text, test files or node ids)
MUTANTS = {
    # the status ladder of RangeChain.solutions
    "solutions_near_zero_le": (
        "range_solver", "RangeChain.solutions",
        "if root < near_zero:", "if root <= near_zero:", SOLVER),
    "solutions_near_field_ge": (
        "range_solver", "RangeChain.solutions",
        "elif snr_min * n_b > pulse_count * photons:",
        "elif snr_min * n_b >= pulse_count * photons:", SOLVER),
    "solutions_overflow_status_ne": (
        "range_solver", "RangeChain.solutions",
        "elif root == inf:", "elif root != inf:", SOLVER),
    # the lossless arrangement of an overflowing R_free^4 where there is
    # absorption, and the quotient of fourth roots where there is none
    "solutions_overflow_arrangements_swapped": (
        "range_solver", "RangeChain.solutions",
        "elif half_a > 0.0:", "elif half_a <= 0.0:", SOLVER),
    "solutions_attenuates_only_finite_roots": (
        "range_solver", "RangeChain.solutions",
        "if half_a > 0.0 and root != inf:", "if half_a > 0.0 and root == inf:", SOLVER),
    "extra_photons_qi_zero": (
        "range_solver", "Illumination.extra_photons",
        "return 1.0 if", "return 0.0 if", SOLVER),
    # the reader's two except branches and the writer's one
    "read_misses_oserror": (
        "errors", "_read_file",
        "except (OSError, UnicodeDecodeError)", "except (EOFError, UnicodeDecodeError)", FILES),
    "read_misses_decode_error": (
        "errors", "_read_file",
        "except (OSError, UnicodeDecodeError)", "except (OSError, EOFError)", FILES),
    "read_drops_the_path_prefix": (
        "errors", "_read_file",
        "except errors as exc:", "except OSError as exc:", FILES),
    "write_misses_oserror": (
        "errors", "_write_file",
        "except OSError as exc:", "except EOFError as exc:", ("tests/test_cli.py",)),
    # the package's one positive and one non-negative rule, which part at 0,
    # and the config's own error that its checks raise
    "require_positive_admits_zero": (
        "errors", "_require_positive",
        "value <= 0.0", "value < 0.0", ("tests/test_radiometry.py",)),
    "require_non_negative_rejects_zero": (
        "errors", "_require_non_negative",
        "value < 0.0", "value <= 0.0", ("tests/test_radiometry.py",)),
    "config_check_raises_a_domain_error": (
        "config", "ScenarioConfig._check",
        '"tau_s * bandwidth_hz", measurements, ConfigError',
        '"tau_s * bandwidth_hz", measurements, DomainError', ("tests/test_config.py",)),
    # each config field's one rule (the table is a class attribute, so the
    # mutant's scope is the class), and M as a count from 1
    "config_sigma_m2_only_finite": (
        "config", "ScenarioConfig",
        '"sigma_m2": _require_positive', '"sigma_m2": _require_finite', ("tests/test_config.py",)),
    "range_chain_admits_no_measurement": (
        "range_solver", "RangeChain._check",
        "self.pulse_count, 1, sys.float_info.max", "self.pulse_count, 0, sys.float_info.max",
        ("tests/test_radiometry.py",)),
    # M enters the chain once: the check's head = sigma*G*A * M without M,
    # and range_chain's sigma*G*A with M in place of sigma (1 m^2 in the
    # default config, so there M counts twice)
    "range_chain_head_drops_m": (
        "range_solver", "RangeChain._check",
        "self.sigma_gain_area) * pulse_count", "self.sigma_gain_area) * 1",
        ("tests/test_range_solver.py::test_a_replaced_field_moves_the_root",)),
    "range_chain_counts_m_twice": (
        "range_solver", "range_chain",
        "config.sigma_m2 * gain", "config.pulse_count * gain",
        ("tests/test_range_solver.py::test_free_space_benchmark_ranges",)),
    # the package's one number rule: a bool is not a number, an int past the
    # float range raises the caller's error, the finite rule refuses NaN and
    # inf, and only an exact float skips the rule in the positive check
    "as_number_admits_a_bool": (
        "errors", "_as_number",
        "isinstance(value, bool)", "isinstance(value, complex)", ("tests/test_radiometry.py",)),
    "as_number_leaks_the_overflow": (
        "errors", "_as_number",
        "except OverflowError:", "except ZeroDivisionError:", ("tests/test_radiometry.py",)),
    "require_finite_admits_inf": (
        "errors", "_require_finite",
        "if not math.isfinite(value):", "if not math.isnan(value):",
        ("tests/test_radiometry.py",)),
    "require_positive_lets_a_bool_skip_the_rule": (
        "errors", "_require_positive",
        "if type(value) is not float:", "if type(value) is not bool:",
        ("tests/test_radiometry.py",)),
    # the package's one count rule: a bool is not a count, and the lowest
    # count is accepted
    "require_count_admits_a_bool": (
        "errors", "_require_count",
        "isinstance(value, bool)", "isinstance(value, complex)", ("tests/test_radiometry.py",)),
    "require_count_refuses_its_lower_bound": (
        "errors", "_require_count",
        "if value < lo:", "if value <= lo:", ("tests/test_radiometry.py",)),
    # the two float-range guards of radiometry
    "in_float_range_needs_both_ends": (
        "radiometry", "_in_float_range",
        "if value == math.inf or value == 0.0:", "if value == math.inf and value == 0.0:",
        ("tests/test_radiometry.py",)),
    "root_product_splits_every_root": (
        "radiometry", "_root_product",
        "if product == math.inf:", "if product != math.inf:",
        ("tests/test_quantum_states.py", "tests/test_detection_mc.py")),
    "root_product_drops_the_clamp": (
        "radiometry", "_root_product",
        "return math.sqrt(max(product, 0.0))", "return math.sqrt(max(product, product))",
        ("tests/test_detection_mc.py",)),
    # the constants take the positive rule; the kernel checks each grid value
    # that is not an exact float in range; T_eff does not form k_B * B first,
    # which underflows to 0 at a subnormal B (the trailing comma of the
    # divisors is the one token between the two forms)
    "constants_take_only_the_finite_rule": (
        "constants", "PhysicalConstants._check",
        "errors._require_positive(", "errors._require_finite(", ("tests/test_records.py",)),
    "solutions_guard_lets_nan_through": (
        "range_solver", "RangeChain.solutions",
        "if type(n_s) is not float or not 0.0 < n_s < inf:",
        "if type(n_s) is not float and not 0.0 < n_s < inf:", SOLVER),
    "t_eff_forms_k_b_times_b_first": (
        "radiometry", "t_eff_from_noise_power",
        "(constants.k_b, b_hz,)", "(constants.k_b * b_hz,)", ("tests/test_radiometry.py",)),
    # the branches of the attenuated root, each mutant skipping one, and the
    # stopping test of Halley's method
    "attenuated_root_skips_the_subnormal_branch": (
        "range_solver", "_attenuated_root",
        "if x < _MIN_NORMAL:", "if x == _MIN_NORMAL:", SOLVER),
    "attenuated_root_skips_the_ln_x_branch": (
        "range_solver", "_attenuated_root",
        "if x <= _X_HALLEY_MAX:", "if x != _X_HALLEY_MAX:", SOLVER),
    "lambert_w0_stops_on_a_large_step": (
        "range_solver", "_lambert_w0",
        "if abs(step) <= _HALLEY_REL_TOL * w:", "if abs(step) > _HALLEY_REL_TOL * w:", SOLVER),
    # the two quotients of RangeChain.link_at: eta over M, and the closure
    # over N_s plus the mode's extra photons
    "link_at_eta_over_snr_min": (
        "range_solver", "RangeChain.link_at",
        "(*denominator_r4, self.pulse_count)", "(*denominator_r4, self.snr_min)", SOLVER),
    "link_at_closure_without_extra_photons": (
        "range_solver", "RangeChain.link_at",
        "(*head_f2, photons)", "(*head_f2, n_s)", SOLVER),
    # the background's share (1 - eta) of the returned signal diagonal
    "return_states_background_share_plus": (
        "detection_mc", "return_states",
        "(1.0 - eta)", "(1.0 + eta)", ("tests/test_detection_mc.py",)),
    # N_B from k_B*T_eff where that product is not a normal float
    "noise_occupancy_skips_the_fallback": (
        "config", "ScenarioConfig.noise_occupancy",
        "if sys.float_info.min <= constants.k_b * t_eff < math.inf:",
        "if sys.float_info.min != constants.k_b * t_eff < math.inf:", ("tests/test_config.py",)),
    # the gain experiment's one pass: the deflection divides by the absent
    # variance, the relative variance of its estimate is
    # 4*(Var_p + Var_a)/(n*shift^2), the means are drawn present then absent
    # (exchanging the two draws also negates the shift, which enters only
    # squared), and the resolution reported is the classical pass's
    "gain_deflection_over_the_present_variance": (
        "detection_mc", "detector_gain_experiment",
        "shift**2 / var_absent", "shift**2 / var_present", GAIN_PINNED),
    "gain_relative_variance_factor_two": (
        "detection_mc", "detector_gain_experiment",
        "4.0 * (var_present", "2.0 * (var_present", GAIN_PINNED),
    "gain_draws_absent_first": (
        "detection_mc", "detector_gain_experiment",
        "_sample_mean(a_p, b_p, trials, rng) - _sample_mean(a_a, b_a, trials, rng)",
        "_sample_mean(a_a, b_a, trials, rng) - _sample_mean(a_p, b_p, trials, rng)", GAIN_PINNED),
    "gain_resolution_of_the_quantum_pass": (
        "detection_mc", "detector_gain_experiment",
        "(deflection_q, rel_var_q, _), (deflection_c, rel_var_c, resolution)",
        "(deflection_q, rel_var_q, resolution), (deflection_c, rel_var_c, _)",
        ("tests/test_detection_mc.py::test_gain_experiment_resolution",)),
    # the gain's guard on c^2, which overflows or underflows to 0 at an
    # extreme c, each mutant letting one of the two errors through
    "antenna_gain_leaks_the_c_squared_overflow": (
        "range_solver", "antenna_gain",
        "except (OverflowError, ZeroDivisionError):", "except (EOFError, ZeroDivisionError):",
        EXTREME_C),
    "antenna_gain_leaks_the_zero_division": (
        "range_solver", "antenna_gain",
        "except (OverflowError, ZeroDivisionError):", "except (OverflowError, EOFError):",
        EXTREME_C),
    # the gain's own float-range guard dropped: getattr(name, at, G) returns G
    # (no attribute has that name), so only a G out of range tells them apart
    "antenna_gain_drops_its_float_range_guard": (
        "range_solver", "antenna_gain",
        "return _in_float_range(", "return getattr(",
        ("tests/test_link_budget.py::test_a_gain_that_leaves_the_float_range_is_refused_by_name",)),
    # the clamps that keep a >= 0 >= b where rounding leaves |r| above sqrt(pq)
    "statistic_scales_a_unclamped": (
        "detection_mc", "BlockState._check",
        "max(r + root, 0.0)", "max(r + root, r)",
        ("tests/test_detection_mc.py::test_psd_tolerance_scales_with_the_entries",)),
    "statistic_scales_b_unclamped": (
        "detection_mc", "BlockState._check",
        "min(r - root, 0.0)", "min(r - root, r)",
        ("tests/test_detection_mc.py::test_psd_tolerance_scales_with_the_entries",)),
    # the state's one check is the uncertainty relation, not classical
    # positivity (the vacuum's + 1 dropped), and reads the variance gap
    # without its sign
    "block_state_checks_classical_positivity_only": (
        "detection_mc", "BlockState._check",
        "abs(p - q) + 1.0", "abs(p - q) + 0.0",
        ("tests/test_detection_mc.py::"
         "test_an_unphysical_state_is_refused_by_name[classically_psd]",)),
    "block_state_signed_variance_gap": (
        "detection_mc", "BlockState._check",
        "abs(p - q) + 1.0", "float(p - q) + 1.0",
        ("tests/test_detection_mc.py::"
         "test_an_unphysical_state_is_refused_by_name[s_return_below_s_idler]",)),
    # the state check's bound is 8 ulp of the scale, not a tolerance that
    # admits a negative variance beside a large one
    "psd_bound_admits_a_negative_variance": (
        "detection_mc", "_check_psd",
        "-8.0 * math.ulp(", "-8e9 * math.ulp(",
        ("tests/test_detection_mc.py::test_psd_tolerance_scales_with_the_entries",)),
    # a record's keyword is refused only where a positional argument gave it
    "record_refuses_the_first_keyword_after_the_positionals": (
        "_record", "Record.__init__",
        "fields.index(field) < len(args)", "fields.index(field) <= len(args)",
        ("tests/test_records.py",)),
    # gamma is interpolated in log only between two positive knots, and a
    # table's frequencies increase strictly
    "gamma_at_takes_the_log_of_a_zero_knot": (
        "atmosphere", "gamma_at",
        "if g0 > 0.0 and g1 > 0.0:", "if g0 > 0.0 or g1 > 0.0:", ("tests/test_atmosphere.py",)),
    "table_admits_a_repeated_frequency": (
        "atmosphere", "AttenuationTable._check",
        "f_ghz <= rows[-1][0]", "f_ghz < rows[-1][0]", ("tests/test_atmosphere.py",)),
    # range names an outcome both modes share "the same"
    "range_names_every_shared_outcome_in_full": (
        "cli", "_cmd_range",
        "if outcome == str(exc):", "if outcome != str(exc):", ("tests/test_cli.py",)),
    # the oracle cutoff's tail must fall below the tolerance, not reach it
    "smallest_cutoff_accepts_the_tolerance": (
        "quantum_states", "_smallest_cutoff",
        "tail(n) < TAIL_TOLERANCE", "tail(n) <= TAIL_TOLERANCE",
        ("tests/test_quantum_states.py::test_cutoff_tail_must_fall_below_the_tolerance",)),
    # the oracles' one amplitude builder gives the vacuum at a zero parameter,
    # where log(0) raises, and the classical oracle builds its amplitudes at
    # the mean photon number per mode N_s/2, which underflows to 0 at 5e-324
    "fock_amplitudes_takes_the_log_of_zero": (
        "quantum_states", "_fock_amplitudes",
        "if x > 0.0:", "if x >= 0.0:",
        ("tests/test_quantum_states.py::test_tmsv_oracle_vacuum",
         "tests/test_quantum_states.py::test_coherent_oracle_vacuum")),
    "coherent_oracle_amplitudes_at_n_s": (
        "quantum_states", "coherent_covariance_oracle",
        "_fock_amplitudes(n_s, lam,", "_fock_amplitudes(n_s, n_s,",
        ("tests/test_quantum_states.py::test_coherent_oracle_i_sector_matches_model",
         "tests/test_quantum_states.py::test_coherent_oracle_vacuum")),
    # the oracles' dot products add left to right, the same on every Python
    # (math.fsum rounds otherwise), and skip the I-Q cells, which are 0
    "dot_sums_by_fsum": (
        "quantum_states", "_dot",
        "reduce(add, map(mul, x, y), 0.0)", "math.fsum(map(mul, x, y))",
        ("tests/test_quantum_states.py::test_dot_adds_left_to_right_on_every_python",)),
    "moment_matrix_computes_the_i_q_cells": (
        "quantum_states", "_moment_matrix",
        "range(j, 4, 2)", "range(j, 4, 1)",
        ("tests/test_cli.py::test_covariance_oracle_output_is_pinned",)),
    # a sweep's ends are the bounds given, not 10^log10 of them (the
    # assignment becomes an expression statement)
    "log_grid_computes_its_ends": (
        "cli", "_log_grid",
        "grid[0], grid[-1] = ns_min, ns_max", "grid[0], grid[-1] == ns_min, ns_max",
        ("tests/test_cli.py::test_sweep_writes_the_bounds_given_as_its_first_and_last_n_s",
         "tests/test_cli.py::test_sweep_to_the_largest_float_exits_0_without_a_warning")),
    # a point with no range leaves its CSV cell empty, not zero
    "sweep_writes_zero_for_no_range": (
        "cli", "_cmd_sweep",
        '"" if r is None', '"0" if r is None',
        ("tests/test_cli.py::test_sweep_csv_is_pinned",)),
}

# Equivalent mutants, not run: no test can kill them.
# - RangeChain.solutions, "if half_a > 0.0 and root != inf:" with ">=": a
#   lossless chain (half_a == 0) then calls _attenuated_root(0.0, r_free),
#   where x = 0 is below the normal floats, so it returns r_free unchanged.


def function_lines(source: str, qualname: str) -> tuple[int, int]:
    """The (start, end) character offsets in ``source`` of the lines of the
    function or property ``qualname`` (``Class.method`` or ``function``)."""
    body, node = ast.parse(source).body, None
    for name in qualname.split("."):
        [node] = [n for n in body if isinstance(n, (ast.ClassDef, ast.FunctionDef))
                  and n.name == name]
        body = node.body
    lines = source.splitlines(keepends=True)
    return sum(map(len, lines[:node.lineno - 1])), sum(map(len, lines[:node.end_lineno]))


def tokens(source: str) -> list[str]:
    return [tok.string for tok in tokenize.generate_tokens(io.StringIO(source).readline)]


def swaps_a_call(text: str, mutated: str) -> bool:
    """Whether ``text`` is one call and ``mutated`` one call of another
    function, without keywords, on some of the same arguments."""
    try:
        old, new = (ast.parse(t, mode="eval").body for t in (text, mutated))
    except SyntaxError:
        return False
    if not (isinstance(old, ast.Call) and isinstance(new, ast.Call)) or new.keywords:
        return False
    arguments = [ast.dump(arg) for arg in old.args]
    return (ast.dump(old.func) != ast.dump(new.func) and bool(new.args)
            and all(ast.dump(arg) in arguments for arg in new.args))


def mutate(source: str, qualname: str, text: str, mutated: str) -> str:
    start, end = function_lines(source, qualname)
    body = source[start:end]
    if body.count(text) != 1:
        raise ValueError(f"{text!r} occurs {body.count(text)} times in {qualname}")
    changed = source[:start] + body.replace(text, mutated) + source[end:]
    before, after = tokens(source), tokens(changed)
    changes = sum(a != b for a, b in zip(before, after))
    reordered = changes > 1 and sorted(before) == sorted(after)
    one_token = len(before) == len(after) and (changes == 1 or reordered)
    if not (one_token or swaps_a_call(text, mutated)):
        raise ValueError(f"{text!r} -> {mutated!r} is neither a single-token change "
                         "nor a reordering nor a call swap")
    return changed


def first_failure(summary: str) -> str:
    """The node id of the first ``FAILED`` or ``ERROR`` line of pytest's
    short summary, or ''.  An id may hold spaces, so it runs up to pytest's
    " - " before the message, or to the end of the line."""
    first = re.search(r"^(?:FAILED|ERROR) (.+?)(?: - |$)", summary, flags=re.MULTILINE)
    return first.group(1) if first else ""


def run_tests(package: Path, tests: tuple[str, ...]) -> tuple[int, str]:
    """(pytest's exit code, the first failing or erroring test or '') for
    ``tests`` run against the package copy under ``package``."""
    env = dict(os.environ, PYTHONPATH=str(package.parent), PYTHONDONTWRITEBYTECODE="1")
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", "-rfE", "-p", "no:cacheprovider", *tests],
        cwd=REPO, env=env, capture_output=True, text=True)
    return result.returncode, first_failure(result.stdout)


def main(names: list[str]) -> int:
    unknown = [name for name in names if name not in MUTANTS]
    if unknown:
        print(f"no such mutant: {' '.join(unknown)}", file=sys.stderr)
        return 2
    chosen = {name: MUTANTS[name] for name in names} if names else MUTANTS
    survivors = []
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp) / "src" / "qi_rangekit"
        shutil.copytree(PACKAGE, copy, ignore=shutil.ignore_patterns("__pycache__"))
        files = tuple(sorted({t.split("::")[0] for *_, ts in chosen.values() for t in ts}))
        code, first = run_tests(copy, files)
        if code != 0:
            print(f"the unchanged package fails {first or files}", file=sys.stderr)
            return 1
        for name, (module, qualname, text, mutated, tests) in chosen.items():
            path = copy / f"{module}.py"
            original = path.read_text(encoding="utf-8")
            try:
                path.write_text(mutate(original, qualname, text, mutated), encoding="utf-8")
            except ValueError as exc:
                print(f"{name}: cannot apply: {exc}")
                survivors.append(name)
                continue
            started = time.perf_counter()
            try:
                code, first = run_tests(copy, tests)
            finally:
                path.write_text(original, encoding="utf-8")
            seconds = time.perf_counter() - started
            if code == 0:
                print(f"{name}: SURVIVED ({seconds:.1f} s)")
                survivors.append(name)
            else:
                print(f"{name}: killed by {first or f'pytest exit {code}'} ({seconds:.1f} s)")
    print(f"{len(chosen) - len(survivors)} of {len(chosen)} mutants killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
