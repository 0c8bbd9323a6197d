"""CLI contract: commands, exit codes, config plumbing, CSV determinism."""

import argparse
import contextlib
import io
import json
import math
import os
import random
import re
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import numpy
import pytest
from behaviour import GOLDEN_GRID
from bench_scenario import BUNDLED_CSV, sweep_attenuated_config
from reference_root import reference_root, ulps

import qi_rangekit
from qi_rangekit import atmosphere, cli, radiometry, range_solver
from qi_rangekit.cli import MAX_SWEEP_POINTS, MAX_TRIALS, _build_parser, main
from qi_rangekit.config import ScenarioConfig, dump_config, load_config
from qi_rangekit.constants import CODATA, TEXTBOOK
from qi_rangekit.errors import TableValidationError
from qi_rangekit.range_solver import Illumination, range_chain, sweep_range

QI_ADVANTAGE_AT_1E2 = 101.0**0.25  # range gain at N_s = 1e-2
SRC = Path(qi_rangekit.__file__).resolve().parents[1]
GOLDEN = Path(__file__).resolve().parent / "golden"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_power_microwave_example(capsys):
    code, out, _ = run_cli(capsys, "power", "--ns", "0.5", "--freq", "7e9", "--bw", "1e9")
    assert code == 0
    assert "-116.34" in out
    assert "2.3205e-15" in out


def test_power_terahertz_example(capsys):
    code, out, _ = run_cli(capsys, "power", "--ns", "1e-2", "--freq", "1e12", "--bw", "1e9")
    assert code == 0
    dbm = float(re.search(r"= (-?\d+\.\d+) dBm", out).group(1))
    assert dbm == pytest.approx(-111.79, abs=0.01)


@pytest.mark.parametrize("argv, expected", [
    (("--ns", "1e300", "--freq", "1e50", "--bw", "1e-10"),
     "P_t = 6.63e+306 W = 3098.215135 dBm\n"),
    (("--ns", "1e-300", "--freq", "1e10", "--bw", "1e30"),
     "P_t = 6.63e-294 W = -2901.784865 dBm\n"),
], ids=["partial_overflow", "partial_underflow"])
def test_power_where_only_a_partial_product_leaves_the_float_range(capsys, argv, expected):
    assert run_cli(capsys, "power", *argv) == (0, expected, "")


def test_power_missing_flag_exits_2(capsys):
    with pytest.raises(SystemExit) as info:
        main(["power", "--ns", "0.5"])
    assert info.value.code == 2
    assert "usage" in capsys.readouterr().err


def test_power_invalid_value_exits_2(capsys):
    code, _, err = run_cli(capsys, "power", "--ns", "0", "--freq", "7e9", "--bw", "1e9")
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize("flags, constants", [((), TEXTBOOK), (("--codata",), CODATA)],
                         ids=["textbook", "codata"])
def test_power_uses_the_constants_the_flag_picks(capsys, flags, constants):
    watts = radiometry.transmit_power(0.5, 7e9, 1e9, constants)
    expected = f"P_t = {watts:.6g} W = {radiometry.watts_to_dbm(watts):.6f} dBm\n"
    code, out, err = run_cli(capsys, *flags, "power", "--ns", "0.5", "--freq", "7e9", "--bw", "1e9")
    assert (code, out, err) == (0, expected, "")
    # the two sets give different powers, so the run tells them apart
    other = CODATA if constants is TEXTBOOK else TEXTBOOK
    assert watts != radiometry.transmit_power(0.5, 7e9, 1e9, other)


def test_covariance_quantum(capsys):
    code, out, _ = run_cli(capsys, "covariance", "--ns", "0.5", "--mode", "qi")
    assert code == 0
    assert "1.73205081" in out
    assert "-1.73205081" in out


def test_covariance_classical(capsys):
    code, out, _ = run_cli(capsys, "covariance", "--ns", "0.5", "--mode", "ci")
    assert code == 0
    rows = [line for line in out.splitlines() if line.strip().startswith("I_S")]
    assert any(re.search(r"\b1\b", row) for row in rows)


def test_covariance_oracle_deviation(capsys):
    code, out, _ = run_cli(capsys, "covariance", "--ns", "0.5", "--mode", "qi", "--oracle")
    assert code == 0
    deviation = float(re.search(r"max abs deviation: (\S+)", out).group(1))
    assert deviation < 1e-9


def test_covariance_cells_are_separated(capsys):
    # a round-off cross entry such as -2.96586716e-17 is 15 characters, wider than a cell
    code, out, _ = run_cli(capsys, "covariance", "--ns", "1000", "--mode", "ci", "--oracle")
    assert code == 0
    rows = [line for line in out.splitlines() if line[:8].strip() in ("I_S", "Q_S", "I_I", "Q_I")]
    assert len(rows) == 8
    for row in rows:
        label, *cells = row.split()
        assert label == row[:8].strip()
        assert len(cells) == 4
        [float(cell) for cell in cells]


@pytest.mark.parametrize(
    "argv",
    [
        ("--ns", "5000", "--mode", "ci"),  # default cutoff above the state bound
        ("--ns", "1e17", "--mode", "qi"),  # n_s / (n_s + 1) rounds to 1
    ],
)
def test_covariance_oracle_rejected_before_any_array(capsys, argv):
    code, out, err = run_cli(capsys, "covariance", "--oracle", *argv)
    assert code == 2
    assert out == ""  # not the closed-form half of the answer
    assert err.startswith("error: ")


def test_default_cutoff_above_the_bound_names_n_s_and_the_bound(capsys):
    # from N_s 74 up no TMSV cutoff below 2048 states meets the tail rule
    code, out, err = run_cli(capsys, "covariance", "--ns", "74", "--mode", "qi", "--oracle")
    assert code == 2
    assert out == ""
    [line] = err.splitlines()
    assert "74.0" in line and "2048" in line


def test_covariance_oracle_at_zero_photons(capsys):
    code, out, _ = run_cli(capsys, "covariance", "--ns", "0", "--mode", "qi", "--oracle")
    assert code == 0
    deviation = float(re.search(r"max abs deviation: (\S+)", out).group(1))
    assert deviation < 1e-12


@pytest.mark.parametrize("mode, n_s", [("qi", "10"), ("qi", "20"), ("ci", "10"), ("ci", "1000")])
def test_covariance_oracle_output_is_pinned(capsys, mode, n_s):
    # the four oracle commands of the benchmark's verify workload, byte for
    # byte: each dot product adds left to right, the same on every Python
    code, out, _ = run_cli(capsys, "covariance", "--ns", n_s, "--mode", mode, "--oracle")
    assert code == 0
    assert out == (GOLDEN / f"covariance_oracle_{mode}_{n_s}.txt").read_text(encoding="utf-8")


def test_ratio_command(capsys):
    code, out, _ = run_cli(capsys, "ratio", "--ns", "0.5")
    assert code == 0
    assert "0.577350269" in out


def test_atten_bundled_lookup(capsys):
    line = ("gamma(6e+10 Hz) = 15 dB/km "
            "[table: bundled:gaseous_attenuation_sea_level.csv, span 1-1000 GHz]\n")
    assert run_cli(capsys, "atten", "--freq", "60e9") == (0, line, "")
    assert run_cli(capsys, "atten", "--freq", "60e9", "--range-m", "1000") == (
        0, line + "F(1000 m) = 0.0316228 (one-way)\n", "")


def test_paths_print_as_given(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "t.csv").write_text("frequency_ghz,gamma_db_per_km\n10,0.5\n100,8\n",
                                    encoding="utf-8")
    (tmp_path / "cfg.json").write_text('{"attenuation_table_path": "./t.csv"}', encoding="utf-8")
    code, out, _ = run_cli(capsys, "--config", "./cfg.json", "atten", "--freq", "10e9")
    assert (code, out) == (0, "gamma(1e+10 Hz) = 0.5 dB/km [table: ./t.csv, span 10-100 GHz]\n")
    sweep = ("sweep", "--figure", "1", "--points", "2")
    assert run_cli(capsys, *sweep, "--output", "./f1.csv") == (0, "wrote 2 rows to ./f1.csv\n", "")
    assert run_cli(capsys, *sweep) == (0, "wrote 2 rows to figure1.csv\n", "")
    code, _, err = run_cli(capsys, "--config", "./absent.json", "--dump-config")
    assert (code, err.startswith("error: cannot read config ./absent.json: ")) == (2, True)


@pytest.mark.parametrize("range_m", ["-1", "inf"])
def test_atten_with_a_bad_range_exits_2_with_empty_stdout(capsys, range_m):
    code, out, err = run_cli(capsys, "atten", "--freq", "60e9", "--range-m", range_m)
    assert (code, out) == (2, "")
    assert err == f"error: range must be non-negative and finite, got {float(range_m)!r}\n"


def test_atten_out_of_span_exits_2(capsys):
    code, _, err = run_cli(capsys, "atten", "--freq", "0.1e9")
    assert code == 2
    assert "span" in err


def test_range_prints_both_modes(capsys):
    code, out, _ = run_cli(capsys, "range", "--ns", "1e-2", "--freq", "1e12")
    assert code == 0
    ci = float(re.search(r"ci: r_max = (\S+) m", out).group(1))
    qi = float(re.search(r"qi: r_max = (\S+) m", out).group(1))
    assert ci == pytest.approx(137.088, abs=0.01)
    assert qi == pytest.approx(434.591, abs=0.01)
    assert "eta = " in out and "F = " in out
    residuals = [float(v) for v in re.findall(r"\(residual (\S+) dB\)\n", out)]
    assert len(residuals) == 2 and all(0.0 <= v < 1e-12 for v in residuals)


def test_range_single_mode(capsys):
    code, out, _ = run_cli(capsys, "range", "--ns", "1e-2", "--freq", "1e12", "--mode", "qi")
    assert code == 0
    assert "ci:" not in out
    assert "qi:" in out


@pytest.mark.parametrize("flags, constants", [((), TEXTBOOK), (("--codata",), CODATA)],
                         ids=["textbook", "codata"])
def test_range_noise_line_uses_the_constants_the_flag_picks(capsys, flags, constants):
    config = ScenarioConfig()
    t_eff = config.t_eff_kelvin(constants)
    n_b = range_chain(config, 1e12, constants).n_b
    code, out, _ = run_cli(capsys, *flags, "range", "--ns", "1e-2", "--freq", "1e12")
    assert code == 0
    assert out.splitlines()[0] == (
        f"noise: P_B = {config.noise_power_dbm:g} dBm -> implied T_eff = {t_eff:.6g} K, "
        f"N_B(1e+12 Hz) = {n_b:.6g}"
    )
    other = CODATA if constants is TEXTBOOK else TEXTBOOK
    assert f"{n_b:.6g}" != f"{range_chain(config, 1e12, other).n_b:.6g}"


def test_range_zero_photons_exits_2(capsys):
    code, out, err = run_cli(capsys, "range", "--ns", "0", "--freq", "1e12")
    assert code == 2
    # both modes refuse it alike, so the message is not repeated
    assert err == "error: n_s must be positive and finite, got 0.0 (ci; qi: the same)\n"
    assert out == ""


# R_free itself is no float at N_s 8e307: N_B is subnormal, SNR_min 1e-300,
# and head = sigma * G * A * M ~3.5e307
R_FREE_BEYOND_FLOATS = ({"sigma_m2": 1e278, "bandwidth_hz": 1e22, "noise_power_dbm": -3190,
                         "snr_min_db": -3000, "frequencies_hz": [1e12]}, 8e307)


def test_range_with_overflowing_chain_exits_2(tmp_path, capsys):
    fields, n_s = R_FREE_BEYOND_FLOATS
    config = tmp_path / "beyond.json"
    config.write_text(json.dumps(fields), encoding="utf-8")
    code, out, err = run_cli(capsys, "--config", str(config),
                             "range", "--ns", repr(n_s), "--freq", "1e12")
    assert (code, out) == (2, "")
    assert err.startswith("error: n_s = 8e+307 overflows the range chain: R_free = ")
    assert err.endswith(" (ci; qi: the same)\n")


@pytest.mark.parametrize("table", [None, "0", "1e-300"], ids=["lossless", "gamma_0", "faint"])
def test_range_where_r_free_4_overflows_prints_r_free(tmp_path, capsys, table):
    # head * N_s / (denominator * SNR_min) overflows at N_s 1e300, R_free
    # does not; absorption or none, the point takes R_free the same way
    argv = ["range", "--ns", "1e300", "--freq", "1e12"]
    if table is not None:
        csv = tmp_path / "table.csv"
        csv.write_text(f"frequency_ghz,gamma_db_per_km\n1,{table}\n2000,{table}\n",
                       encoding="utf-8")
        config = tmp_path / "table.json"
        config.write_text(json.dumps({"attenuation_table_path": str(csv)}), encoding="utf-8")
        argv = ["--config", str(config), *argv]
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "")
    for mode in ("ci", "qi"):
        assert f"{mode}: r_max = 4.33511e+77 m  (residual " in out
    assert out.count("F = 1, eta = 6.25873e-306\n") == 2


@pytest.mark.parametrize("argv, f_hz", [
    (("range", "--ns", "0.01", "--freq", "1e12"), "1000000000000.0"),
    (("sweep", "--figure", "3"), "7000000000.0"),  # the first configured frequency
], ids=["range", "sweep"])
def test_a_config_whose_k_b_times_b_underflows_exits_2(tmp_path, capsys, monkeypatch, argv,
                                                       f_hz):
    # tau*B = 0.51 rounds to M = 1, so the config is valid; k_B*B underflows
    # to 0 and T_eff overflows, so N_B comes from P_B/(h*f*B), which overflows
    config = tmp_path / "edge.json"
    config.write_text(json.dumps({"tau_s": 1.7e308, "bandwidth_hz": 3e-309}), encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    assert run_cli(capsys, "--config", "edge.json", "--dump-config", "-")[0] == 0
    assert run_cli(capsys, "--config", "edge.json", *argv) == (
        2, "", "error: N_B = P_B/(h*f*B) overflows at P_B = 4.1495404263436325e-10 W, "
               f"f = {f_hz} Hz, B = 3e-309 Hz\n")
    assert [path.name for path in tmp_path.iterdir()] == ["edge.json"]


def test_range_no_detection_exits_3(tmp_path, capsys):
    config = tmp_path / "weak.json"
    config.write_text(
        json.dumps(
            {
                "sigma_m2": 1e-30,
                "aperture_m2": 1e-10,
                "bandwidth_hz": 1.0,
                "tau_s": 1.0,
            }
        ),
        encoding="utf-8",
    )
    code, _, err = run_cli(
        capsys, "--config", str(config), "range", "--ns", "1e-3", "--freq", "7e9"
    )
    assert code == 3
    assert "no detection" in err


def test_range_in_near_field_exits_2(capsys):
    code, out, err = run_cli(capsys, "range", "--ns", "1e-4", "--freq", "7e9", "--mode", "ci")
    assert code == 2
    assert "ci:" not in out
    assert re.search(r"computed transmissivity \S+ > 1 at range \S+ m", err)
    # every mode is solved before anything is printed
    assert out == ""


@pytest.mark.parametrize("n_s, freq, code, message, qi_range", [
    ("1e-300", "1e12", 3,
     "no detection: SNR_eff at 1e-06 m is already below threshold; no detection range exists",
     "433.511"),
    ("1e-4", "7e9", 2,
     "error: computed transmissivity 8.941048106752064 > 1 at range 1.0491167499192167 m; "
     "the far-field model does not apply this close to the antenna",
     "10.4914"),
], ids=["no_detection", "near_field"])
def test_range_names_the_failing_mode_and_the_other_modes_range(capsys, n_s, freq, code,
                                                                message, qi_range):
    # CI fails where QI solves: the exit and the message are CI's, and the
    # message ends in QI's range, which --mode qi prints
    assert run_cli(capsys, "range", "--ns", n_s, "--freq", freq) == (
        code, "", f"{message} (ci; qi: r_max = {qi_range} m)\n")
    qi_code, out, err = run_cli(capsys, "range", "--ns", n_s, "--freq", freq, "--mode", "qi")
    assert (qi_code, err) == (0, "")
    assert f"\nqi: r_max = {qi_range} m  (residual " in out


def test_range_out_of_table_span_exits_2_with_empty_stdout(tmp_path, capsys):
    code, out, err = run_cli(
        capsys, "--config", str(sweep_attenuated_config(tmp_path)),
        "range", "--ns", "1e-2", "--freq", "2e12",
    )
    assert code == 2
    assert "outside table span" in err
    assert out == ""


def test_range_builds_its_chain_once(tmp_path, capsys, monkeypatch):
    counts = {"gamma_at": 0, "noise_occupancy": 0}

    def counted(name, function):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return function(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(atmosphere, "gamma_at", counted("gamma_at", atmosphere.gamma_at))
    monkeypatch.setattr(
        ScenarioConfig, "noise_occupancy",
        counted("noise_occupancy", ScenarioConfig.noise_occupancy),
    )
    code, out, _ = run_cli(
        capsys, "--config", str(sweep_attenuated_config(tmp_path)),
        "range", "--ns", "1e-2", "--freq", "1e12",
    )
    assert code == 0
    assert "ci: r_max" in out and "qi: r_max" in out
    assert counts == {"gamma_at": 1, "noise_occupancy": 1}


def test_range_with_narrow_table_span_exits_2(tmp_path, capsys):
    table = tmp_path / "narrow.csv"
    table.write_text("frequency_ghz,gamma_db_per_km\n10,0.1\n100,1\n", encoding="utf-8")
    config = tmp_path / "cfg.json"
    config.write_text(
        json.dumps({"attenuation_table_path": str(table)}), encoding="utf-8"
    )
    code, _, err = run_cli(
        capsys, "--config", str(config), "range", "--ns", "1e-2", "--freq", "7e9"
    )
    assert code == 2
    assert "span" in err


@pytest.mark.parametrize(
    "argv",
    [("power", "--ns", "1", "--freq", "1e9", "--bw", "1e9"), ("--dump-config",),
     ("atten", "--freq", "60e9"), ("range", "--ns", "1", "--freq", "1e12")],
    ids=["power", "dump_config", "atten", "range"],
)
def test_missing_config_table_exits_2_for_every_command(tmp_path, capsys, argv):
    # the table is read when the config is loaded, whatever the command
    missing = tmp_path / "missing.csv"
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"attenuation_table_path": str(missing)}), encoding="utf-8")
    code, out, err = run_cli(capsys, "--config", str(config), *argv)
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: cannot read attenuation table {missing}: ")


@pytest.mark.parametrize("f_ghz", ["0", "-1", "nan", "inf"])
def test_table_row_frequency_must_be_positive_and_finite(tmp_path, capsys, f_ghz):
    # the same check and message as a record, as parsed text and as a config's table
    message = f"row 2: frequency must be positive and finite, got {float(f_ghz)!r}"
    with pytest.raises(TableValidationError, match=re.escape(message)):
        atmosphere.AttenuationTable(rows=((10.0, 0.5), (float(f_ghz), 1.0), (100.0, 8.0)))
    text = f"frequency_ghz,gamma_db_per_km\n10,0.5\n{f_ghz},1\n100,8\n"
    with pytest.raises(TableValidationError, match=re.escape(message)):
        atmosphere.parse_table(text.splitlines())
    table = tmp_path / "bad.csv"
    table.write_text(text, encoding="utf-8")
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"attenuation_table_path": str(table)}), encoding="utf-8")
    # the file's message names the table it read
    assert run_cli(capsys, "--config", str(config), "atten", "--freq", "60e9") == (
        2, "", f"error: attenuation table {table}: {message}\n")


@pytest.mark.parametrize("gamma", ["-1", "nan", "inf"])
def test_table_row_gamma_must_be_non_negative_and_finite(tmp_path, capsys, gamma):
    message = f"row 2: gamma must be non-negative and finite, got {float(gamma)!r}"
    with pytest.raises(TableValidationError, match=re.escape(message)):
        atmosphere.AttenuationTable(rows=((10.0, 0.5), (60.0, float(gamma)), (100.0, 8.0)))
    table = tmp_path / "bad.csv"
    table.write_text(f"frequency_ghz,gamma_db_per_km\n10,0.5\n60,{gamma}\n100,8\n",
                     encoding="utf-8")
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"attenuation_table_path": str(table)}), encoding="utf-8")
    assert run_cli(capsys, "--config", str(config), "atten", "--freq", "60e9") == (
        2, "", f"error: attenuation table {table}: {message}\n")


def test_table_row_gamma_of_zero_is_accepted(tmp_path, capsys):
    table = tmp_path / "lossless_knot.csv"
    table.write_text("frequency_ghz,gamma_db_per_km\n10,0.5\n60,0\n100,8\n", encoding="utf-8")
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"attenuation_table_path": str(table)}), encoding="utf-8")
    assert run_cli(capsys, "--config", str(config), "atten", "--freq", "60e9") == (
        0, f"gamma(6e+10 Hz) = 0 dB/km [table: {table}, span 10-100 GHz]\n", "")


# Every file error exits 2 with empty stdout and one stderr line that names
# the file: "cannot read <kind> <path>: <reason>", "<kind> <path>: <message>"
# or "cannot write <path>: <reason>".  Each case is (config file contents,
# table file contents, argv, the start of stderr); "{config}", "{table}",
# "{dir}" and "{absent}" stand for a config, a table, a directory and a path
# in a missing directory under tmp_path, and a file whose contents are None
# is not written.  An OS reason is not pinned.
@pytest.mark.parametrize("config, table, argv, message", [
    (None, None, ["--config", "{config}", "ratio", "--ns", "1"],
     "cannot read config {config}: [Errno 2] "),
    (None, None, ["--config", "{dir}", "ratio", "--ns", "1"], "cannot read config {dir}: "),
    (b'{"sigma_m2": \xff}', None, ["--config", "{config}", "ratio", "--ns", "1"],
     "cannot read config {config}: 'utf-8' codec can't decode byte 0xff"),
    (b'{"sigma_m2": x}', None, ["--config", "{config}", "ratio", "--ns", "1"],
     "config {config}: config is not valid JSON: Expecting value: line 1 column 14 (char 13)\n"),
    (b"[1]", None, ["--config", "{config}", "ratio", "--ns", "1"],
     "config {config}: config must be a JSON object\n"),
    (b'{"sigma": 1}', None, ["--config", "{config}", "ratio", "--ns", "1"],
     "config {config}: unknown config fields: ['sigma']\n"),
    (b'{"sigma_m2": -1}', None, ["--config", "{config}", "ratio", "--ns", "1"],
     "config {config}: sigma_m2 must be positive and finite, got -1.0\n"),
    (b'{"frequencies_hz": []}', None, ["--config", "{config}", "ratio", "--ns", "1"],
     "config {config}: frequencies_hz must not be empty\n"),
    # a table's message names the table alone, not the config that names it
    (b'{"attenuation_table_path": "{table}"}', b"frequency_ghz,gamma_db_per_km\n10,0.5\n",
     ["--config", "{config}", "ratio", "--ns", "1"],
     "attenuation table {table}: attenuation table needs at least 2 rows, got 1\n"),
    (b'{"attenuation_table_path": "{table}"}',
     b"frequency_ghz,gamma_db_per_km\n10,0.5\n20,x\n",
     ["--config", "{config}", "ratio", "--ns", "1"],
     "attenuation table {table}: line 3: unparsable number in '20,x'\n"),
    (b'{"attenuation_table_path": "{table}"}',
     b"frequency_ghz,gamma_db_per_km\n10,0.5\n\xff,1\n",
     ["--config", "{config}", "atten", "--freq", "60e9"],
     "cannot read attenuation table {table}: 'utf-8' codec can't decode byte 0xff"),
    (None, None, ["sweep", "--figure", "3", "--points", "5", "--output", "{dir}"],
     "cannot write {dir}: "),
    (None, None, ["sweep", "--figure", "3", "--points", "5", "--output", "{absent}"],
     "cannot write {absent}: "),
    (None, None, ["--dump-config", "{dir}"], "cannot write {dir}: "),
    (None, None, ["--dump-config", "{absent}"], "cannot write {absent}: "),
], ids=["config_missing", "config_directory", "config_not_utf8", "config_not_json",
        "config_not_object", "config_unknown_field", "config_negative_sigma",
        "config_no_frequencies", "table_one_row", "table_unparsable", "table_not_utf8",
        "sweep_output_directory", "sweep_output_in_missing_directory", "dump_config_directory",
        "dump_config_in_missing_directory"])
def test_file_errors_exit_2_naming_the_file(tmp_path, capsys, monkeypatch, config, table,
                                            argv, message):
    monkeypatch.chdir(tmp_path)  # so that no output lands anywhere else
    paths = {"config": tmp_path / "cfg.json", "table": tmp_path / "t.csv", "dir": tmp_path / "d",
             "absent": tmp_path / "missing-dir" / "x.out"}
    paths["dir"].mkdir()
    if table is not None:
        paths["table"].write_bytes(table)
    if config is not None:
        # the table path as a JSON string
        paths["config"].write_bytes(config.replace(
            b'"{table}"', json.dumps(str(paths["table"])).encode()))
    argv = [word.format(**paths) for word in argv]
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: " + message.format(**paths))
    assert err.count("\n") == 1 and err.endswith("\n")


def test_atten_and_range_read_the_config_table(tmp_path, capsys):
    table = tmp_path / "two_knots.csv"
    table.write_text("frequency_ghz,gamma_db_per_km\n10,0.5\n100,8\n", encoding="utf-8")
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"attenuation_table_path": str(table)}), encoding="utf-8")
    # 31.6 GHz is no knot: both commands interpolate the same table
    gamma = atmosphere.gamma_at(atmosphere.load_table(table), 31.6e9)
    assert 0.5 < gamma < 8.0
    code, out, _ = run_cli(capsys, "--config", str(config), "atten", "--freq", "31.6e9")
    assert code == 0
    assert out == (f"gamma(3.16e+10 Hz) = {gamma:.6g} dB/km "
                   f"[table: {table}, span 10-100 GHz]\n")
    code, out, _ = run_cli(capsys, "--config", str(config),
                           "range", "--ns", "1e-2", "--freq", "31.6e9")
    assert code == 0
    assert out.count(f"    gamma = {gamma:.6g} dB/km, ") == 2


@pytest.mark.parametrize("freq, lines", [
    ("60e9", ("gamma(6e+10 Hz) = 15 dB/km", "F(1000 m) = 0.0316228 (one-way)")),
    ("7e9", ("gamma(7e+09 Hz) = 0.009 dB/km", "F(1000 m) = 0.99793 (one-way)")),
    ("557e9", ("gamma(5.57e+11 Hz) = 15000 dB/km", "F(1000 m) = 0 (one-way)")),
    ("1e12", ("gamma(1e+12 Hz) = 450 dB/km", "F(1000 m) = 1e-45 (one-way)")),
])
def test_config_atten_prints_what_a_table_option_printed(tmp_path, capsys, freq, lines):
    # the bytes `atten --table BUNDLED_CSV` printed before a config became
    # the one way to name a table
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"attenuation_table_path": BUNDLED_CSV}), encoding="utf-8")
    gamma, form_factor = lines
    assert run_cli(capsys, "--config", str(config),
                   "atten", "--freq", freq, "--range-m", "1000") == (
        0, f"{gamma} [table: {BUNDLED_CSV}, span 1-1000 GHz]\n{form_factor}\n", "")


def test_atten_has_no_table_option(capsys):
    with pytest.raises(SystemExit) as info:
        main(["atten", "--freq", "60e9", "--table", "x.csv"])
    assert info.value.code == 2
    assert "unrecognized arguments: --table x.csv" in capsys.readouterr().err


def test_library_range_and_sweep_agree_on_the_attenuated_config(tmp_path, capsys):
    config_path = str(sweep_attenuated_config(tmp_path))
    expected = range_chain(load_config(config_path), 1e12).solve(1e-2, Illumination.CI)
    code, out, _ = run_cli(
        capsys, "--config", config_path, "range", "--ns", "1e-2", "--freq", "1e12", "--mode", "ci"
    )
    assert code == 0
    assert f"ci: r_max = {expected:.6g} m" in out
    assert "gamma = 450 dB/km" in out
    out_csv = tmp_path / "fig3.csv"
    code, _, _ = run_cli(capsys, "--config", config_path, "sweep", "--figure", "3",
                         "--ns-min", "1e-2", "--ns-max", "1", "--points", "2",
                         "--output", str(out_csv))
    assert code == 0
    assert f"0.01,1000000000000.0,ci,{expected!r},ok" in out_csv.read_text()


def test_oversized_config_number_exits_2(tmp_path, capsys):
    config = tmp_path / "big.json"
    config.write_text('{"sigma_m2": 1%s}' % ("0" * 400), encoding="utf-8")
    code, _, err = run_cli(capsys, "--config", str(config), "ratio", "--ns", "1")
    assert code == 2
    assert "sigma_m2" in err


def test_range_with_zero_gamma_table_matches_lossless(tmp_path, capsys):
    table = tmp_path / "zero.csv"
    table.write_text("frequency_ghz,gamma_db_per_km\n1,0\n2000,0\n", encoding="utf-8")
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"attenuation_table_path": str(table)}), encoding="utf-8")
    _, out_lossless, _ = run_cli(capsys, "range", "--ns", "1e-2", "--freq", "1e12")
    _, out_zero_table, _ = run_cli(
        capsys, "--config", str(config), "range", "--ns", "1e-2", "--freq", "1e12"
    )
    assert out_zero_table == out_lossless


# Scenarios whose range chain leaves the float range at every N_s, each with
# the cause its error names
UNUSABLE_CHAINS = {
    "h_f_underflow": ({"frequencies_hz": [1e-320]}, "h * f underflows"),
    # sigma * G * A * M overflows; lossless and through the table
    "head_overflow": ({"sigma_m2": 1e300, "aperture_m2": 1e3, "frequencies_hz": [1e12]},
                      "head (sigma_m2 * G * aperture_m2 * M) must be positive and finite"),
    "head_overflow_table": (
        {"sigma_m2": 1e300, "aperture_m2": 1e3, "frequencies_hz": [1e12],
         "attenuation_table_path": BUNDLED_CSV},
        "head (sigma_m2 * G * aperture_m2 * M) must be positive and finite",
    ),
    # f^2 in the antenna gain overflows above ~1.34e154 Hz
    "f_squared_overflow": ({"frequencies_hz": [1e160]},
                           "frequency 1e+160 Hz is too large: f^2 overflows"),
    # G = 4*pi*A*f^2/c^2 itself overflows, or underflows to 0
    "gain_overflow": ({"aperture_m2": 1e10, "frequencies_hz": [1e150]},
                      "antenna gain G = 4*pi*A*f^2/c^2 overflows at A = 10000000000.0 m^2, "
                      "f = 1e+150 Hz, c = 300000000.0 m/s"),
    "gain_underflow": ({"aperture_m2": 1e-300, "frequencies_hz": [1e-10]},
                       "antenna gain G = 4*pi*A*f^2/c^2 underflows to 0 at A = 1e-300 m^2, "
                       "f = 1e-10 Hz, c = 300000000.0 m/s"),
    # P_B / (h * f * B) itself rounds to 0
    "n_b_underflow": ({"noise_power_dbm": -3200, "bandwidth_hz": 1e16, "frequencies_hz": [1e18]},
                      "N_B = P_B/(h*f*B) underflows to 0 at P_B = 1e-323 W, f = 1e+18 Hz, "
                      "B = 1e+16 Hz"),
}


@pytest.mark.parametrize("case", list(UNUSABLE_CHAINS))
def test_range_at_a_frequency_where_h_f_underflows_exits_2(tmp_path, capsys, case):
    fields, cause = UNUSABLE_CHAINS[case]
    config = tmp_path / f"{case}.json"
    config.write_text(json.dumps(fields), encoding="utf-8")
    [f_hz] = fields["frequencies_hz"]
    code, out, err = run_cli(capsys, "--config", str(config),
                             "range", "--ns", "1", "--freq", repr(f_hz))
    assert (code, out) == (2, "")
    assert cause in err
    assert "nan" not in err


@pytest.mark.parametrize("case", list(UNUSABLE_CHAINS))
def test_sweep_at_a_frequency_where_h_f_underflows_exits_2(tmp_path, capsys, case):
    fields, cause = UNUSABLE_CHAINS[case]
    config = tmp_path / f"{case}.json"
    config.write_text(json.dumps(fields), encoding="utf-8")
    output = tmp_path / "f3.csv"
    code, out, err = run_cli(
        capsys, "--config", str(config), "sweep", "--figure", "3", "--output", str(output)
    )
    assert (code, out) == (2, "")
    assert cause in err
    assert "nan" not in err
    assert not output.exists()


# T_eff is subnormal and k_B * T_eff rounds to 0, yet N_B = P_B / (h * f * B)
# is the float 1.508293738304e-312
SUBNORMAL_N_B = {"noise_power_dbm": -3150, "bandwidth_hz": 1e15, "frequencies_hz": [1e12]}


def test_range_and_sweep_where_n_b_is_subnormal_follow_the_kernel_status(tmp_path, capsys):
    # head / denominator overflows with a subnormal N_B, R_free does not
    config = tmp_path / "subnormal_n_b.json"
    config.write_text(json.dumps(SUBNORMAL_N_B), encoding="utf-8")
    code, out, err = run_cli(capsys, "--config", str(config),
                             "range", "--ns", "1", "--freq", "1e12")
    assert (code, err) == (0, "")
    chain = range_chain(load_config(config), 1e12)
    for mode, printed in [(Illumination.CI, "6.18729e+82"), (Illumination.QI, "7.35797e+82")]:
        root = chain.solve(1.0, mode)
        assert f"{root:.6g}" == printed
        assert f"{mode.value}: r_max = {printed} m" in out
        assert ulps(root, reference_root(chain, 1.0, mode)) <= 4.0
    output = tmp_path / "f3.csv"
    assert run_cli(capsys, "--config", str(config), "sweep", "--figure", "3",
                   "--points", "2", "--output", str(output))[0] == 0
    statuses = {line.rsplit(",", 1)[1] for line in output.read_text().splitlines()[1:]}
    assert statuses == {"ok"}


def test_range_where_n_b_is_subnormal_solves_through_the_table(tmp_path, capsys):
    config = tmp_path / "subnormal_n_b_table.json"
    config.write_text(json.dumps({**SUBNORMAL_N_B, "attenuation_table_path": BUNDLED_CSV}),
                      encoding="utf-8")
    code, out, err = run_cli(capsys, "--config", str(config), "range", "--ns", "1",
                             "--freq", "1e12", "--mode", "ci")
    assert (code, err) == (0, "")
    assert "N_B(1e+12 Hz) = 1.50829e-312\n" in out
    # eta at the root, SNR_min * N_B / M = 1.5e-326, is below the subnormals;
    # the residual is formed from the chain, not from eta
    residual = re.search(r"ci: r_max = 3521\.99 m  \(residual (\S+) dB\)\n", out)
    assert float(residual.group(1)) < 1e-11
    assert "eta = 0\n" in out


def test_range_where_n_b_is_subnormal_prints_a_subnormal_eta(tmp_path, capsys):
    # head / denominator overflows with a subnormal N_B, but N_B cancels in
    # eta = head * F^2 / ((4*pi)^2 * R^4 * M), here SNR_min * N_B / M at the
    # root, a subnormal
    fields = {**SUBNORMAL_N_B, "tau_s": 1e-6, "attenuation_table_path": BUNDLED_CSV}
    config = tmp_path / "subnormal_eta.json"
    config.write_text(json.dumps(fields), encoding="utf-8")
    code, out, err = run_cli(capsys, "--config", str(config), "range", "--ns", "1",
                             "--freq", "1e12", "--mode", "ci")
    assert (code, err) == (0, "")
    # eta keeps few digits, the residual all of the root's
    residual = re.search(r"ci: r_max = 3455\.69 m  \(residual (\S+) dB\)\n", out)
    assert float(residual.group(1)) < 1e-11
    assert "eta = 1.50838e-320\n" in out
    chain = range_chain(load_config(config), 1e12)
    root = chain.solve(1.0, Illumination.CI)
    f_form, eta, _ = chain.link_at(root, Illumination.CI.photons(1.0))
    exact = (Fraction(chain.head) * Fraction(f_form) ** 2 * Fraction(chain.n_b)
             / (Fraction(chain.denominator) * Fraction(root) ** 4 * chain.pulse_count))
    assert eta == float(exact)


def test_range_where_the_root_passes_1e77_m(tmp_path, capsys):
    # R^4 overflows past ~1.3e77 m; eta does not, and range prints the root
    # sweep writes
    table = tmp_path / "faint.csv"
    table.write_text("frequency_ghz,gamma_db_per_km\n1,1e-300\n2000,1e-300\n", encoding="utf-8")
    config = tmp_path / "faint.json"
    config.write_text(json.dumps({"attenuation_table_path": str(table),
                                  "frequencies_hz": [1e12]}), encoding="utf-8")
    output = tmp_path / "f3.csv"
    assert run_cli(capsys, "--config", str(config), "sweep", "--figure", "3", "--ns-min",
                   "1e299", "--ns-max", "1e300", "--points", "2", "--output", str(output))[0] == 0
    assert "1e+300,1000000000000.0,ci,4.3351116876659153e+77,ok\n" in output.read_text()
    code, out, err = run_cli(capsys, "--config", str(config), "range", "--ns", "1e300",
                             "--freq", "1e12", "--mode", "ci")
    assert (code, err) == (0, "")
    residual = re.search(r"ci: r_max = 4\.33511e\+77 m  \(residual (\S+) dB\)\n", out)
    assert float(residual.group(1)) < 1e-12
    assert "F = 1, eta = 6.25873e-306\n" in out


@pytest.mark.parametrize("snr_min_db", [-2950, -3000])
def test_range_where_the_quantum_threshold_underflows(tmp_path, capsys, snr_min_db):
    # the textbook threshold SNR_min / (1 + 1/N_s) underflows to 0 at N_s
    # 1e-30, but the chain is solved at N_s + 1 photons against SNR_min: the
    # range is the finite N_s -> 0 limit, where R_free^4 overflows too at
    # SNR_min 1e-300; eta = SNR_min * N_B / (M * (N_s + 1)) at the root
    r_max, eta = {-2950: ("4.33511e+76", "6.25873e-302"),
                  -3000: ("7.70904e+77", "6.25873e-307")}[snr_min_db]
    config = tmp_path / "snr.json"
    config.write_text(json.dumps({"snr_min_db": snr_min_db}), encoding="utf-8")
    code, out, err = run_cli(capsys, "--config", str(config),
                             "range", "--ns", "1e-30", "--freq", "1e12", "--mode", "qi")
    assert (code, err) == (0, "")
    residual = re.search(rf"qi: r_max = {re.escape(r_max)} m  \(residual (\S+) dB\)\n", out)
    assert float(residual.group(1)) < 1e-12
    assert f"eta = {eta}\n" in out
    output = tmp_path / "f3.csv"
    code, _, _ = run_cli(capsys, "--config", str(config), "sweep", "--figure", "3",
                         "--ns-min", "1e-30", "--ns-max", "1e-29", "--points", "2",
                         "--output", str(output))
    assert code == 0
    rows = [line.split(",") for line in output.read_text(encoding="utf-8").splitlines()[1:]]
    terahertz = [row[3:] for row in rows if row[1:3] == ["1000000000000.0", "qi"]]
    assert [f"{float(root):.6g}" for root, _ in terahertz] == [r_max, r_max]
    assert [status for _, status in terahertz] == ["ok", "ok"]


@pytest.mark.parametrize("n_s", ["5e-324", "1.5e-323", "1e-310"])
@pytest.mark.parametrize("freq", ["7e9", "1e12"])
def test_quantum_range_closes_at_a_subnormal_n_s(capsys, n_s, freq):
    # a subnormal N_s keeps few digits; the QI chain and its residual use
    # N_s + 1, which keeps all
    code, out, err = run_cli(capsys, "range", "--ns", n_s, "--freq", freq, "--mode", "qi")
    assert (code, err) == (0, "")
    residual = re.search(r"qi: r_max = \S+ m  \(residual (\S+) dB\)\n", out)
    assert float(residual.group(1)) < 1e-12


def test_range_where_eta_at_the_root_underflows(tmp_path, capsys):
    # eta = threshold * N_B / (M * N_s) at the root underflows to 0 at M 1e20
    # and N_s 1.7e308; the attenuated root is a float, and the residual,
    # formed from the chain, not from eta, is finite
    config = tmp_path / "large_m.json"
    config.write_text(json.dumps({"tau_s": 1e11, "bandwidth_hz": 1e9,
                                  "attenuation_table_path": BUNDLED_CSV}), encoding="utf-8")
    code, out, err = run_cli(capsys, "--config", str(config),
                             "range", "--ns", "1.7e308", "--freq", "1e12", "--mode", "ci")
    assert (code, err) == (0, "")
    residual = re.search(r"ci: r_max = 3506\.65 m  \(residual (\S+) dB\)\n", out)
    assert float(residual.group(1)) < 1e-11
    assert "eta = 0\n" in out


def test_attenuated_range_where_the_free_space_range_overflows(tmp_path, capsys):
    # head * N_s / (denominator * threshold) overflows, but the attenuated
    # root is a float
    config_path = str(sweep_attenuated_config(tmp_path))
    code, out, err = run_cli(capsys, "--config", config_path,
                             "range", "--ns", "1e300", "--freq", "1e12")
    assert (code, err) == (0, "")
    residual = re.search(r"ci: r_max = 3294\.19 m  \(residual (\S+) dB\)\n", out)
    assert float(residual.group(1)) < 1e-11
    assert "eta = 6.25873e-306" in out
    assert "nan" not in out and "inf" not in out
    output = tmp_path / "f3.csv"
    code, _, _ = run_cli(capsys, "--config", config_path, "sweep", "--figure", "3",
                         "--ns-min", "1e290", "--ns-max", "1e300", "--points", "3",
                         "--output", str(output))
    assert code == 0
    rows = [line.split(",") for line in output.read_text(encoding="utf-8").splitlines()[1:]]
    terahertz = [row[3:] for row in rows if row[1] == "1000000000000.0"]
    assert [status for _, status in terahertz] == ["ok"] * 6
    assert [float(r) for r, _ in terahertz[3:]] == [float(r) for r, _ in terahertz[:3]]
    assert float(terahertz[2][0]) == pytest.approx(3294.19, abs=0.01)
    assert all(row[4] == "ok" for row in rows)


# (config, what stderr names): each value fails validation while the
# config is loaded, before any command runs
BAD_CONFIG_VALUES = {
    "sigma_m2": ({"sigma_m2": -1.0}, "sigma_m2"),
    "aperture_m2": ({"aperture_m2": 0.0}, "aperture_m2"),
    "bandwidth_hz": ({"bandwidth_hz": 0.0}, "bandwidth_hz"),
    "tau_s": ({"tau_s": -1.0}, "tau_s"),
    # finite, but 10^997 W overflows
    "noise_power_dbm": ({"noise_power_dbm": 1e4}, "noise_power_dbm"),
    "noise_power_underflows": ({"noise_power_dbm": -4000}, "noise_power_dbm"),
    # written as Infinity, which json.loads accepts
    "snr_min_db": ({"snr_min_db": math.inf}, "snr_min_db"),
    "snr_min_db_overflows": ({"snr_min_db": 4000}, "snr_min_db"),
    "snr_min_db_underflows": ({"snr_min_db": -4000}, "snr_min_db"),
    "tau_times_b_overflows": ({"tau_s": 1e200, "bandwidth_hz": 1e200}, "tau_s * bandwidth_hz"),
    "p_d": ({"p_d": 1.5}, "p_d"),
    "p_fa": ({"p_fa": 0.0}, "p_fa"),
    "frequencies_hz": ({"frequencies_hz": [-7e9]}, "frequencies_hz"),
}


@pytest.mark.parametrize("fields, field", list(BAD_CONFIG_VALUES.values()),
                         ids=list(BAD_CONFIG_VALUES))
@pytest.mark.parametrize("argv", [["range", "--ns", "1", "--freq", "1e12"], ["--dump-config"]],
                         ids=["range", "dump_config"])
def test_invalid_config_value_names_its_field(tmp_path, capsys, fields, field, argv):
    config = tmp_path / "scenario.json"
    config.write_text(json.dumps(fields), encoding="utf-8")
    code, out, err = run_cli(capsys, "--config", str(config), *argv)
    assert (code, out) == (2, "")
    assert field in err


def test_bad_config_exits_2(tmp_path, capsys):
    config = tmp_path / "bad.json"
    config.write_text("{not json", encoding="utf-8")
    code, _, err = run_cli(capsys, "--config", str(config), "ratio", "--ns", "1")
    assert code == 2
    assert "error" in err


def test_wrong_config_type_exits_2(tmp_path, capsys):
    config = tmp_path / "typed.json"
    config.write_text(json.dumps({"p_fa": "x"}), encoding="utf-8")
    code, _, err = run_cli(capsys, "--config", str(config), "ratio", "--ns", "1")
    assert code == 2
    assert "p_fa" in err


def test_no_environment_variable_names_a_config(tmp_path, capsys, monkeypatch):
    # only --config names a scenario; an ambient path, here a missing one,
    # is not read
    monkeypatch.setenv("QI_RANGEKIT_CONFIG", str(tmp_path / "missing.json"))
    assert run_cli(capsys, "--dump-config") == (0, dump_config(ScenarioConfig()), "")


@pytest.mark.parametrize("argv", [
    ("--dump-config",),
    ("range", "--ns", "1e-2", "--freq", "1e12"),
], ids=["dump_config", "range"])
def test_an_ambient_config_changes_no_output(tmp_path, capsys, monkeypatch, argv):
    # a readable config that would raise the detection threshold
    expected = run_cli(capsys, *argv)
    config = tmp_path / "env.json"
    config.write_text(json.dumps({"snr_min_db": 13.0}), encoding="utf-8")
    monkeypatch.setenv("QI_RANGEKIT_CONFIG", str(config))
    assert expected[0] == 0
    assert run_cli(capsys, *argv) == expected


def test_dump_config_round_trip(tmp_path, capsys):
    source = tmp_path / "in.json"
    source.write_text(json.dumps({"sigma_m2": 2.0, "p_d": 0.8}), encoding="utf-8")
    dumped = tmp_path / "out.json"
    code, _, _ = run_cli(capsys, "--config", str(source), "--dump-config", str(dumped))
    assert code == 0
    assert load_config(dumped) == load_config(source)
    assert dump_config(load_config(dumped)) == dumped.read_text(encoding="utf-8")


def test_sweep_figure1(tmp_path, capsys):
    out_csv = tmp_path / "fig1.csv"
    code, out, _ = run_cli(
        capsys,
        "sweep", "--figure", "1",
        "--ns-min", "1e-3", "--ns-max", "10", "--points", "50",
        "--output", str(out_csv),
    )
    assert code == 0
    assert "50 rows" in out
    lines = out_csv.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "n_s,ratio"
    assert len(lines) == 51
    ratios = [float(line.split(",")[1]) for line in lines[1:]]
    assert all(b > a for a, b in zip(ratios, ratios[1:]))


def test_sweep_figure3_shape_and_spot_values(tmp_path, capsys):
    out_csv = tmp_path / "fig3.csv"
    code, out, _ = run_cli(capsys, "sweep", "--figure", "3", "--output", str(out_csv))
    assert code == 0
    lines = out_csv.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "n_s,frequency_hz,mode,r_max_m,status"
    assert len(lines) == 1 + 3 * 2 * 25  # frequencies x modes x default points
    rows = [line.split(",") for line in lines[1:]]
    spot = {
        row[2]: float(row[3])
        for row in rows
        if row[0] == "0.01" and float(row[1]) == 1e12
    }
    assert spot["ci"] == pytest.approx(137.088, abs=0.01)
    assert spot["qi"] / spot["ci"] == pytest.approx(QI_ADVANTAGE_AT_1E2, abs=1e-6)
    assert all(row[4] == "ok" for row in rows)


def test_sweep_outputs_are_byte_identical(tmp_path, capsys):
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    for figure in ("1", "3"):
        run_cli(capsys, "sweep", "--figure", figure, "--output", str(first))
        run_cli(capsys, "sweep", "--figure", figure, "--output", str(second))
        assert first.read_bytes() == second.read_bytes()


# One failing argv per subcommand.  ``main`` prints a command's lines only
# once its handler has finished, so an error leaves stdout empty wherever
# the handler raises: after the closed-form matrix (covariance), after the
# table lookup (atten), or where the CSV cannot be opened (sweep).
FAILING_COMMANDS = {
    "power": ["power", "--ns", "0", "--freq", "7e9", "--bw", "1e9"],
    "covariance": ["covariance", "--ns", "74", "--mode", "qi", "--oracle"],
    "ratio": ["ratio", "--ns", "0"],
    "atten": ["atten", "--freq", "60e9", "--range-m", "-1"],
    "range": ["range", "--ns", "0", "--freq", "1e12"],
    "sweep": ["sweep", "--figure", "3", "--points", "5", "--output", "{missing_dir}/x.csv"],
    "mc": ["mc", "--ns", "0.1", "--eta", "0.5", "--nb", "1", "--trials", str(MAX_TRIALS + 1)],
}


@pytest.mark.parametrize("command", list(FAILING_COMMANDS))
def test_every_command_leaves_stdout_empty_on_error(tmp_path, capsys, command):
    (subparsers,) = [action for action in _build_parser()._actions
                     if isinstance(action, argparse._SubParsersAction)]
    assert set(FAILING_COMMANDS) == set(subparsers.choices)
    argv = [arg.format(missing_dir=tmp_path / "missing") for arg in FAILING_COMMANDS[command]]
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ")


# The sweep CSVs below were written by the CLI before the column writer
# replaced the row-by-row one.  The grid (GOLDEN_GRID, which the behaviour
# manifest's sweeps share) is a literal, so numpy's CPU dispatch in
# ``_log_grid`` does not enter the pinned bytes.
SWEEP_GOLDEN_CASES = {
    "default": (None, ()),
    "bundled_table": (
        {"attenuation_table_path": BUNDLED_CSV, "frequencies_hz": [7e9, 60e9, 557e9, 1e12]}, (),
    ),
    # the classical 7 GHz points below N_s ~3e-5 have no detection range
    "faint": ({"sigma_m2": 1e-12, "aperture_m2": 1e-6}, ()),
    "codata": (None, ("--codata",)),
}


def _golden_sweep(tmp_path, monkeypatch, case: str, figure: str = "3"):
    from qi_rangekit import cli

    config, flags = SWEEP_GOLDEN_CASES[case]
    argv = list(flags)
    if config is not None:
        config_path = tmp_path / f"{case}.json"
        config_path.write_text(json.dumps(config), encoding="utf-8")
        argv = ["--config", str(config_path), *argv]
    monkeypatch.setattr(cli, "_log_grid", lambda ns_min, ns_max, points: list(GOLDEN_GRID))
    output = tmp_path / f"{case}_figure{figure}.csv"
    code = main([*argv, "sweep", "--figure", figure, "--output", str(output)])
    return code, output


@pytest.mark.parametrize("case", list(SWEEP_GOLDEN_CASES))
def test_sweep_csv_is_pinned(tmp_path, capsys, monkeypatch, case):
    code, output = _golden_sweep(tmp_path, monkeypatch, case)
    golden = (GOLDEN / f"sweep_{case}.csv").read_bytes()
    rows = golden.count(b"\n") - 1
    assert (code, capsys.readouterr().out) == (0, f"wrote {rows} rows to {output}\n")
    assert output.read_bytes() == golden


@pytest.mark.parametrize("case", list(SWEEP_GOLDEN_CASES))
def test_quantum_column_is_the_classical_column_at_n_s_plus_1(tmp_path, case):
    # the quantum transmitter enters the range chain as N_s + 1 photons, so
    # its column is the classical one at N_s + 1, roots and statuses, bit for
    # bit; subnormal N_s included, where 1/N_s overflows
    config, flags = SWEEP_GOLDEN_CASES[case]
    scenario = ScenarioConfig()
    if config is not None:
        config_path = tmp_path / f"{case}.json"
        config_path.write_text(json.dumps(config), encoding="utf-8")
        scenario = load_config(config_path)
    constants = CODATA if "--codata" in flags else TEXTBOOK
    grid = [5e-324, 1.5e-323, 1e-310, *GOLDEN_GRID]
    for f_hz in scenario.frequencies_hz:
        chain = range_chain(scenario, f_hz, constants)
        quantum, status = chain.solutions([Illumination.QI.photons(n_s) for n_s in grid])
        classical, classical_status = chain.solutions(
            [Illumination.CI.photons(n_s + 1.0) for n_s in grid])
        assert list(map(repr, quantum)) == list(map(repr, classical))
        assert status == classical_status


def test_sweep_figure1_csv_is_pinned(tmp_path, capsys, monkeypatch):
    code, output = _golden_sweep(tmp_path, monkeypatch, "default", figure="1")
    assert code == 0
    assert output.read_bytes() == (GOLDEN / "sweep_figure1.csv").read_bytes()


def test_sweep_out_of_table_span_writes_out_of_span_rows(tmp_path, capsys):
    # 2 THz lies past the bundled table: its rows have no range and say why,
    # and the 7 GHz rows are the same as in a sweep of 7 GHz alone
    config = tmp_path / "wide.json"
    config.write_text(json.dumps({"attenuation_table_path": BUNDLED_CSV,
                                  "frequencies_hz": [7e9, 2e12]}), encoding="utf-8")
    output = tmp_path / "f3.csv"
    code, out, err = run_cli(capsys, "--config", str(config), "sweep", "--figure", "3",
                             "--points", "5", "--output", str(output))
    assert (code, out, err) == (0, f"wrote 20 rows to {output}\n", "")
    lines = output.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "n_s,frequency_hz,mode,r_max_m,status"
    rows = [line.split(",") for line in lines[1:]]
    assert [row[3:] for row in rows if row[1] == "2000000000000.0"] == [["", "out_of_span"]] * 10
    config.write_text(json.dumps({"attenuation_table_path": BUNDLED_CSV,
                                  "frequencies_hz": [7e9]}), encoding="utf-8")
    alone = tmp_path / "alone.csv"
    run_cli(capsys, "--config", str(config), "sweep", "--figure", "3", "--points", "5",
            "--output", str(alone))
    assert lines[:11] == alone.read_text(encoding="utf-8").splitlines()


def test_sweep_grid_validation(tmp_path, capsys):
    # two floats apart, five log-spaced points repeat one N_s
    output = tmp_path / "sweep.csv"
    assert run_cli(capsys, "sweep", "--figure", "3", "--ns-min", "1",
                   "--ns-max", "1.0000000000000002", "--points", "5",
                   "--output", str(output)) == (
        2, "", "error: --points 5 from --ns-min 1.0 to --ns-max 1.0000000000000002 "
               "gives a grid that is not strictly increasing\n")
    assert not output.exists()
    code, _, err = run_cli(capsys, "sweep", "--figure", "1", "--points", "1")
    assert code == 2
    for ns_min in ("0", "-1", "nan"):
        assert run_cli(capsys, "sweep", "--figure", "1", "--ns-min", ns_min) == (
            2, "", f"error: --ns-min must be positive and finite, got {float(ns_min)!r}\n")
    for ns_max in ("inf", "nan"):
        assert run_cli(capsys, "sweep", "--figure", "1", "--ns-max", ns_max) == (
            2, "", f"error: --ns-max must be finite, got {float(ns_max)!r}\n")
    assert run_cli(capsys, "sweep", "--figure", "1", "--ns-max", "1e-3") == (
        2, "", "error: --ns-max must exceed --ns-min, got 0.001\n")


@pytest.mark.parametrize("figure", ["1", "3"])
def test_sweep_writes_the_bounds_given_as_its_first_and_last_n_s(tmp_path, capsys, figure):
    # 10^log10(x) need not be x: 0.3 would come out as 0.29999999999999993
    rng = random.Random(32)
    output = tmp_path / "sweep.csv"
    for _ in range(50):
        lo, hi = sorted(10.0 ** rng.uniform(-300.0, 300.0) for _ in range(2))
        code, _, _ = run_cli(capsys, "sweep", "--figure", figure, "--ns-min", repr(lo),
                             "--ns-max", repr(hi), "--points", "3", "--output", str(output))
        assert code == 0
        rows = output.read_text(encoding="utf-8").splitlines()[1:]
        assert (rows[0].split(",")[0], rows[-1].split(",")[0]) == (repr(lo), repr(hi))


@pytest.mark.parametrize("figure", ["1", "3"])
def test_sweep_to_the_largest_float_exits_0_without_a_warning(tmp_path, capsys, figure):
    # 10^log10(DBL_MAX) overflows in numpy's power
    output = tmp_path / "sweep.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, _, err = run_cli(capsys, "sweep", "--figure", figure,
                               "--ns-max", repr(sys.float_info.max), "--output", str(output))
    assert (code, err) == (0, "")
    last = output.read_text(encoding="utf-8").splitlines()[-1]
    assert last.split(",")[0] == repr(sys.float_info.max)


@pytest.mark.parametrize("points", [MAX_SWEEP_POINTS + 1, 10**13])
def test_sweep_point_bound_exits_2_before_any_grid(tmp_path, capsys, monkeypatch, points):
    # numpy cannot be imported here, so the bound must be checked before the
    # grid, or any array, is built
    monkeypatch.setitem(sys.modules, "numpy", None)
    target = tmp_path / "f.csv"
    code, out, err = run_cli(capsys, "sweep", "--figure", "1", "--points", str(points),
                             "--output", str(target))
    assert (code, out) == (2, "")
    assert err == f"error: --points must be at most {MAX_SWEEP_POINTS}, got {points}\n"
    assert not target.exists()


def test_sweep_point_bound_is_in_help(capsys):
    with pytest.raises(SystemExit):
        main(["sweep", "--help"])
    assert f"at most {MAX_SWEEP_POINTS}" in " ".join(capsys.readouterr().out.split())


def test_mc_deterministic_output(capsys):
    argv = ["mc", "--ns", "100", "--eta", "0.5", "--nb", "1", "--trials", "20000", "--seed", "9"]
    code, first, _ = run_cli(capsys, *argv)
    assert code == 0
    code, second, _ = run_cli(capsys, *argv)
    assert first == second
    assert "deflection-SNR gain" in first


@pytest.mark.parametrize("n_s, seed, expected", [
    # the three benchmark points
    ("0.01", "1",
     "deflection-SNR gain (QI/CI) = 98.4056 +/- 22 (QI 0.013303, CI 0.000135185, "
     "1000000 trials, seed 1)\nanalytic 1 + 1/N_s = 101, z = -0.118\n"),
    ("0.1", "2",
     "deflection-SNR gain (QI/CI) = 11.5733 +/- 0.306 (QI 0.123104, CI 0.0106369, "
     "1000000 trials, seed 2)\nanalytic 1 + 1/N_s = 11, z = +1.87\n"),
    ("1", "3",
     "deflection-SNR gain (QI/CI) = 2.00992 +/- 0.0112 (QI 0.8886, CI 0.442107, "
     "1000000 trials, seed 3)\nanalytic 1 + 1/N_s = 2, z = +0.885\n"),
])
def test_mc_output_is_pinned(capsys, n_s, seed, expected):
    argv = ["mc", "--ns", n_s, "--eta", "0.5", "--nb", "1", "--trials", "1000000", "--seed", seed]
    assert run_cli(capsys, *argv) == (0, expected, "")
    argv[argv.index("--eta") + 1] = "1.5"
    assert run_cli(capsys, *argv) == (2, "", "error: eta must be in (0, 1], got 1.5\n")


def test_mc_low_photon_advantage(capsys):
    code, out, _ = run_cli(
        capsys,
        "mc", "--ns", "0.01", "--eta", "0.5", "--nb", "1",
        "--trials", "1000000", "--seed", "21",
    )
    assert code == 0
    match = re.search(r"= (\S+) \+/- (\S+) ", out)
    ratio, se = float(match.group(1)), float(match.group(2))
    assert ratio - 1.0 >= 3.0 * se


def test_mc_with_more_trials_than_memory_exits_2(capsys):
    # From exact sums, 1e12 trials would take no more time or memory than
    # 1e4: the trial bound still refuses them, before any draw, to keep mc
    # inside the range its tests check.
    code, out, err = run_cli(
        capsys,
        "mc", "--ns", "0.1", "--eta", "0.5", "--nb", "1",
        "--trials", "1000000000000", "--seed", "1",
    )
    assert code == 2
    assert out == ""
    assert err == "error: --trials must be at most 1000000000, got 1000000000000\n"


def test_mc_trial_bound_is_in_help_and_exact(capsys):
    with pytest.raises(SystemExit):
        main(["mc", "--help"])
    assert f"at most {MAX_TRIALS}" in capsys.readouterr().out
    point = ("mc", "--ns", "0.1", "--eta", "0.5", "--nb", "1", "--seed", "1")
    code, out, err = run_cli(capsys, *point, "--trials", str(MAX_TRIALS + 1))
    assert (code, out) == (2, "")
    assert err == f"error: --trials must be at most {MAX_TRIALS}, got {MAX_TRIALS + 1}\n"
    # the bound itself runs: from exact gamma sums it costs what 1e4 trials do
    code, out, err = run_cli(capsys, *point, "--trials", str(MAX_TRIALS))
    assert (code, err) == (0, "")
    assert f"{MAX_TRIALS} trials, seed 1)" in out and ", z = " in out


def test_mc_prints_analytic_ratio_and_z(capsys):
    code, out, _ = run_cli(
        capsys,
        "mc", "--ns", "0.1", "--eta", "0.5", "--nb", "1",
        "--trials", "100000", "--seed", "1",
    )
    assert code == 0
    first, second = out.splitlines()
    match = re.search(r"gain \(QI/CI\) = (\S+) \+/- (\S+) ", first)
    ratio, se = float(match.group(1)), float(match.group(2))
    match = re.fullmatch(r"analytic 1 \+ 1/N_s = (\S+), z = (\S+)", second)
    assert float(match.group(1)) == 11.0
    z = float(match.group(2))
    # the printed ratio and error are rounded; z is computed before rounding
    assert z == pytest.approx((ratio - 11.0) / se, rel=0.02, abs=0.01)
    assert abs(z) <= 6.0


@pytest.mark.parametrize("point, trials, resolved", [
    # 0.14 standard errors: the classical shift is buried in noise
    (("--ns", "0.01", "--eta", "0.01", "--nb", "100"), "1000000", False),
    # one point on both sides of the cut at 5 standard errors (4.85 and 5.23)
    (("--ns", "0.01", "--eta", "0.5", "--nb", "1"), "300000", False),
    (("--ns", "0.01", "--eta", "0.5", "--nb", "1"), "350000", True),
])
def test_mc_prints_no_ratio_where_the_shift_is_unresolved(capsys, point, trials, resolved):
    code, out, err = run_cli(capsys, "mc", *point, "--trials", trials, "--seed", "1")
    assert (code, err) == (0, "")
    assert ("deflection-SNR gain" in out and ", z = " in out) == resolved
    if not resolved:
        assert re.fullmatch(
            r"unresolved: the classical shift is \S+ standard errors at "
            + trials + r" trials, below 5; no gain is estimated \(seed 1\)\n",
            out,
        )


def test_zero_photons_reads_the_same_in_ratio_and_mc(capsys):
    _, _, ratio_err = run_cli(capsys, "ratio", "--ns", "0")
    _, _, mc_err = run_cli(capsys, "mc", "--ns", "0", "--eta", "0.5", "--nb", "1")
    assert ratio_err == mc_err == "error: n_s must be positive and finite, got 0.0\n"


# numpy's parent directory: the probe's children start without site hooks
# (-S), so site-packages is not on their path
NUMPY_PARENT = Path(numpy.__file__).resolve().parents[1]


def _run_child(tmp_path, script: str, *argv: str, unbuffered=False, stdout=subprocess.PIPE):
    """Run ``script`` with ``argv`` in a fresh interpreter (this one has
    loaded numpy and more), in ``tmp_path``, and return the completed
    process, its output as text.  Its standard streams are buffered, as by
    default, whatever this process inherited, unless ``unbuffered``.
    The interpreter runs with ``-S``: a site hook (a ``.pth`` file) may
    import modules of its own, which would hide what the package imports."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(NUMPY_PARENT)])
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return subprocess.run([sys.executable, "-S", "-c", script, *argv], cwd=tmp_path, env=env,
                          stdout=stdout, stderr=subprocess.PIPE, text=True, timeout=60)


def _loaded_after(tmp_path, statement: str, modules: list[str]) -> list[str]:
    """Run ``statement`` in a fresh interpreter and report which of
    ``modules`` it left in ``sys.modules``."""
    script = (f"import sys\n{statement}\n"
              f"print(','.join(m for m in {modules!r} if m in sys.modules), file=sys.stderr)")
    result = _run_child(tmp_path, script)
    assert result.returncode == 0, result.stderr
    return list(filter(None, result.stderr.splitlines()[-1].split(",")))


# the modules each command leaves unloaded (the default config has no table)
UNUSED_MODULES = {
    "sweep --figure 1": ["qi_rangekit.range_solver", "qi_rangekit.atmosphere",
                         "qi_rangekit.link_budget"],
    "sweep --figure 3": ["qi_rangekit.quantum_states", "qi_rangekit.atmosphere",
                         "qi_rangekit.link_budget"],
    "range": ["qi_rangekit.quantum_states", "qi_rangekit.link_budget"],
    "atten": ["qi_rangekit.link_budget", "qi_rangekit.range_solver", "qi_rangekit.quantum_states"],
    "--dump-config": ["qi_rangekit.link_budget", "qi_rangekit.range_solver",
                      "qi_rangekit.atmosphere"],
}


@pytest.mark.parametrize("argv", [
    ["--dump-config", "-"],
    ["range", "--ns", "1e-2", "--freq", "1e12"],
    ["power", "--ns", "1", "--freq", "1e9", "--bw", "1e9"],
    ["atten", "--freq", "60e9"],
    ["covariance", "--ns", "20", "--mode", "qi", "--oracle"],
    ["covariance", "--ns", "1000", "--mode", "ci", "--oracle"],
    ["ratio", "--ns", "0.5"],
    ["mc", "--ns", "0.1", "--eta", "0.5", "--nb", "1", "--trials", "1000000"],
    ["sweep", "--figure", "1", "--points", "5"],
    ["sweep", "--figure", "3", "--points", "5"],
])
def test_commands_import_only_the_modules_they_run(tmp_path, argv):
    # dataclasses loads inspect, ast, dis and tokenize: ~10 ms of start-up.
    # Only the sweep grid loads numpy, which imports inspect and typing
    # itself; every record is a Record, so nothing else needs typing.  Files
    # go through open(): pathlib and importlib.resources cost 2-20 ms more.
    # A plain command line is read without argparse, which would load
    # gettext, locale, shutil, re and enum; only range (its Illumination
    # enum), --dump-config (json) and sweep (numpy) need re or enum.
    stdlib = ["dataclasses", "pathlib", "importlib.resources",
              "argparse", "gettext", "locale", "shutil"]
    if argv[0] != "sweep":
        stdlib += ["numpy", "inspect", "typing"]
    if argv[0] in ("mc", "covariance", "ratio", "power", "atten"):
        stdlib += ["re", "enum"]
    unused = UNUSED_MODULES.get(" ".join(argv[:3]) if argv[0] == "sweep" else argv[0], [
        "qi_rangekit.range_solver", "qi_rangekit.atmosphere", "qi_rangekit.link_budget", "json",
    ])
    statement = f"from qi_rangekit.cli import main\nassert main({argv!r}) == 0"
    assert _loaded_after(tmp_path, statement, stdlib + unused) == []


def test_module_probe_sees_dataclasses(tmp_path):
    # positive control for the probe above
    statement = "import dataclasses\nimport qi_rangekit.cli"
    assert _loaded_after(tmp_path, statement, ["numpy", "dataclasses", "inspect"]) == [
        "dataclasses", "inspect",
    ]


@pytest.mark.parametrize("argv", [["--help"], ["range", "--ns", "1"]], ids=["help", "error"])
def test_help_and_parse_errors_load_argparse(tmp_path, argv):
    # positive control for the probe above: argparse reads these
    statement = ("from qi_rangekit.cli import main\n"
                 f"try:\n    main({argv!r})\nexcept SystemExit:\n    pass")
    assert _loaded_after(tmp_path, statement, ["argparse", "shutil"]) == ["argparse", "shutil"]


def test_module_probe_sees_pathlib(tmp_path):
    # positive control: no site hook loads pathlib before the statement runs,
    # and the probe sees the statement's own import
    modules = ["pathlib", "importlib.resources"]
    assert _loaded_after(tmp_path, "pass", modules) == []
    assert _loaded_after(tmp_path, "import pathlib", modules) == ["pathlib"]


def test_module_probe_imports_the_package_under_test(tmp_path):
    # the probes above check the copy this suite imports, from src/ or
    # installed, not another one on the path
    init = Path(qi_rangekit.__file__).resolve()
    statement = ("import pathlib, qi_rangekit\n"
                 f"assert pathlib.Path(qi_rangekit.__file__).resolve() == pathlib.Path({str(init)!r})")
    assert _loaded_after(tmp_path, statement, []) == []


def test_scalar_modules_import_without_numpy(tmp_path):
    assert _loaded_after(
        tmp_path,
        "import qi_rangekit.config, qi_rangekit.detection_mc, qi_rangekit.quantum_states, "
        "qi_rangekit.range_solver",
        ["numpy"],
    ) == []


def test_sweep_loads_numpy(tmp_path):
    # positive control: the probe does see numpy where the grid needs it
    statement = ("from qi_rangekit.cli import main\n"
                 "assert main(['sweep', '--figure', '3', '--points', '3']) == 0")
    assert _loaded_after(tmp_path, statement, ["numpy"]) == ["numpy"]


# the qi-rangekit process: its entry with the command line after the script
ENTRYPOINT = "from qi_rangekit.cli import entrypoint\nentrypoint()"


def test_cli_process_starts_openblas_with_one_thread(tmp_path, monkeypatch):
    # entrypoint overrides an inherited thread count in its own process;
    # numpy's OpenBLAS would otherwise start a second thread.  entrypoint
    # ends in os._exit, so the child wraps that to count its threads there.
    status = Path("/proc/self/status")
    if not status.exists():
        pytest.skip("needs /proc/self/status to count threads")
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
    probe = ("import os, sys\n"
             "real_exit = os._exit\n"
             "def probe_exit(code):\n"
             "    threads = [line.split()[1] for line in open('/proc/self/status')\n"
             "               if line.startswith('Threads:')]\n"
             "    print(code, 'numpy' in sys.modules, *threads, file=sys.stderr, flush=True)\n"
             "    real_exit(code)\n"
             "os._exit = probe_exit\n")
    result = _run_child(tmp_path, probe + ENTRYPOINT, "sweep", "--figure", "3", "--points", "3")
    assert (result.returncode, result.stderr.splitlines()[-1:]) == (0, ["0 True 1"]), result.stderr
    # main() is the library's entry and leaves the caller's environment alone
    assert main(["sweep", "--figure", "3", "--points", "3",
                 "--output", str(tmp_path / "in_process.csv")]) == 0
    assert os.environ.get("OPENBLAS_NUM_THREADS") == "2"


@pytest.mark.parametrize("argv", [
    ["range", "--ns", "1e-2", "--freq", "1e12"],
    ["mc", "--ns", "0.1", "--eta", "0.5", "--nb", "1", "--seed", "1", "--trials", "1000000"],
    ["covariance", "--ns", "20", "--mode", "qi", "--oracle"],
    ["--dump-config", "-"],
])
def test_cli_process_prints_what_main_prints(tmp_path, capsys, argv):
    # entrypoint skips the interpreter's teardown; the flush before it
    # leaves stdout whole
    result = _run_child(tmp_path, ENTRYPOINT, *argv)
    assert (result.returncode, result.stdout, result.stderr) == run_cli(capsys, *argv)


def test_cli_process_sweep_csv_is_complete(tmp_path, capsys):
    # the CSV is closed before main() returns, so the file on disk is whole
    config = str(sweep_attenuated_config(tmp_path))
    argv = ["--config", config, "sweep", "--figure", "3", "--points", "250", "--output"]
    result = _run_child(tmp_path, ENTRYPOINT, *argv, "child.csv")
    assert (result.returncode, result.stdout, result.stderr) == (
        0, "wrote 12000 rows to child.csv\n", "")
    assert run_cli(capsys, *argv, str(tmp_path / "main.csv"))[0] == 0
    assert (tmp_path / "child.csv").read_bytes() == (tmp_path / "main.csv").read_bytes()


@pytest.mark.parametrize("argv, code", [
    (["range", "--ns", "0", "--freq", "1e12"], 2),
    (["range", "--ns", "1e-300", "--freq", "1e12"], 3),
])
def test_cli_process_error_exit_leaves_stdout_empty(tmp_path, capsys, argv, code):
    result = _run_child(tmp_path, ENTRYPOINT, *argv)
    assert (result.returncode, result.stdout, result.stderr) == run_cli(capsys, *argv)
    assert (result.returncode, result.stdout) == (code, "")


def test_cli_process_parse_error_exits_as_argparse_does(tmp_path, capsys):
    # main() raises SystemExit here, and it propagates through entrypoint
    result = _run_child(tmp_path, ENTRYPOINT, "range", "--ns", "1")
    with pytest.raises(SystemExit) as info:
        main(["range", "--ns", "1"])
    assert (result.returncode, result.stdout, result.stderr) == (
        info.value.code, "", capsys.readouterr().err)
    assert result.returncode == 2


@pytest.mark.parametrize("statement, first_line", [
    ("sys.stdout = None", ""),
    ("sys.stderr.close()",
     "noise: P_B = -63.82 dBm -> implied T_eff = 30069.1 K, N_B(1e+12 Hz) = 625.873"),
])
def test_cli_process_without_a_stream_exits_0(tmp_path, statement, first_line):
    result = _run_child(tmp_path, f"import sys\n{statement}\n{ENTRYPOINT}",
                        "range", "--ns", "1e-2", "--freq", "1e12")
    assert (result.returncode, result.stdout.split("\n")[0]) == (0, first_line), result.stderr


@pytest.mark.parametrize("unbuffered, code", [(False, 120), (True, 1)],
                         ids=["buffered", "unbuffered"])
def test_cli_process_into_a_closed_pipe_exits_as_before(tmp_path, unbuffered, code):
    # Buffered, the output reaches the pipe only at the flush after main():
    # that fails, and the interpreter's shutdown reports it and exits 120.
    # Unbuffered, print() raises inside main() and the traceback exits 1.
    # These are the codes the process had when it always tore down.
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        result = _run_child(tmp_path, ENTRYPOINT, "range", "--ns", "1e-2", "--freq", "1e12",
                            unbuffered=unbuffered, stdout=write_end)
    finally:
        os.close(write_end)
    assert result.returncode == code, result.stderr
    assert "BrokenPipeError" in result.stderr
    if not unbuffered:
        assert result.stderr.startswith("Exception ignored in: <_io.TextIOWrapper name='<stdout>'")


COMMANDS = ("power", "covariance", "ratio", "atten", "range", "sweep", "mc")


def test_help_and_missing_argument_text_is_pinned(capsys, monkeypatch):
    # --help, each command's --help, and each command run without its flags;
    # argparse wraps to the terminal width, which it reads from COLUMNS
    monkeypatch.setenv("COLUMNS", "80")
    transcript = []
    for argv in (["--help"], *([c, "--help"] for c in COMMANDS), *([c] for c in COMMANDS)):
        with pytest.raises(SystemExit) as info:
            main(argv)
        out, err = capsys.readouterr()
        assert not (out and err)
        stream = "stdout" if out else "stderr"
        transcript.append(f"$ qi-rangekit {' '.join(argv)}  # exit {info.value.code}, {stream}\n"
                          f"{out or err}")
    assert "".join(transcript) == (GOLDEN / "cli_text.txt").read_text(encoding="utf-8")


# Values of each kind that the plain form admits, as words; a random float
# is added to each line's draw.
FLOAT_WORDS = ["0", "1", "0.5", "1e-3", "7e9", "1E+12", "1e-310", "1e400", "inf", "nan",
               "Infinity", "NaN", "1_000", " 3 "]
INT_WORDS = ["0", "1", "3", "25", "1000000", "007", "1_000", " 5 "]
PATH_WORDS = ["cfg.json", "out/fig.csv", "-", "", "range", "mc", "a b.csv", "x=y", "é.json"]
PERTURBATIONS = ("abbreviated", "equals", "dash_value", "repeated", "unknown", "missing",
                 "invalid", "trailing", "double_dash", "help", "version", "dump_config_bare",
                 "dump_config_dash")


def _plain_item(rng, flag, kwargs):
    """``flag`` as a plain item: the flag, with a random valid value if it
    takes one."""
    if kwargs.get("action") == "store_const":
        return [flag]
    if "choices" in kwargs:
        return [flag, str(rng.choice(kwargs["choices"]))]
    if kwargs.get("type") is float:
        return [flag, rng.choice([*FLOAT_WORDS, repr(10.0 ** rng.uniform(-300, 300))])]
    if kwargs.get("type") is int:
        return [flag, rng.choice([*INT_WORDS, str(rng.randrange(10**9))])]
    return [flag, rng.choice(PATH_WORDS)]


def _plain_line(rng, kind):
    """A plain command line of ``kind``, a command or "--dump-config" alone,
    as items (a flag with its value, or the command word) in random order,
    and the flags its command requires."""
    head = [_plain_item(rng, flag, kwargs) for flag, kwargs in cli._GLOBAL_OPTIONS
            if flag == kind or rng.random() < 0.5]
    rng.shuffle(head)
    if kind not in cli._COMMANDS:
        return head, set()
    _, _, options = cli._COMMANDS[kind]
    tail = [_plain_item(rng, flag, kwargs) for flag, kwargs in options
            if kwargs.get("required") or rng.random() < 0.5]
    rng.shuffle(tail)
    return head + [[kind]] + tail, {flag for flag, kwargs in options if kwargs.get("required")}


def _perturb(rng, kind, items, required):
    """``items`` with one perturbation of ``kind`` (see PERTURBATIONS)."""
    items = [list(item) for item in items]
    flags = [item for item in items if item[0].startswith("--")]
    valued = [item for item in flags if len(item) == 2]
    head = next((i for i, item in enumerate(items) if not item[0].startswith("--")), len(items))
    if kind == "abbreviated":
        item = rng.choice(flags)
        item[0] = item[0][:rng.randrange(3, len(item[0]))]
    elif kind == "equals":
        item = rng.choice(valued)
        item[:] = [f"{item[0]}={item[1]}"]
    elif kind == "dash_value":
        item = rng.choice(valued)
        item[1] = rng.choice(["-1", "-inf", "-x", "--x", "-" + item[1]])
    elif kind == "repeated":  # the flag again at once, with a value of its own
        item = rng.choice(flags)
        specs = dict(cli._GLOBAL_OPTIONS)
        if head < len(items):
            specs.update(cli._COMMANDS[items[head][0]][2])
        items.insert(items.index(item) + 1, _plain_item(rng, item[0], specs[item[0]]))
    elif kind == "unknown":
        items.insert(rng.randrange(len(items) + 1), [rng.choice(["--bogus", "-x", "--ns-mid"])])
    elif kind == "missing":
        items.remove(rng.choice([item for item in flags if item[0] in required] or flags))
    elif kind == "invalid":
        rng.choice(valued)[1] = rng.choice(["abc", "1e", "zz", "1.5", "2"])
    elif kind == "trailing":
        items.append([rng.choice(["extra", "range", "1"])])
    elif kind in ("double_dash", "help", "version"):
        word = {"double_dash": "--", "help": rng.choice(["-h", "--help"]), "version": "--version"}
        items.insert(rng.randrange(len(items) + 1), [word[kind]])
    else:  # --dump-config before the command, or last, with no value or with "-"
        value = [] if kind == "dump_config_bare" else ["-"]
        items.insert(rng.choice([head, len(items)]), ["--dump-config", *value])
    return items


def test_plain_reader_reads_what_argparse_reads():
    # main reads a plain command line without argparse and leaves every other
    # one, and every one argparse refuses, to argparse: the reader gives
    # argparse's values or None, and None wherever argparse exits.  A plain
    # line with a repeated flag is plain too: both read the last value.
    rng = random.Random(2039)
    parser = _build_parser()
    kinds = [*cli._COMMANDS, "--dump-config"]
    refused = 0
    for n in range(2200):
        items, required = _plain_line(rng, kinds[n % len(kinds)])
        kind = PERTURBATIONS[n % len(PERTURBATIONS)]
        perturbed = _perturb(rng, kind, items, required)
        for words, plain in ((items, True), (perturbed, kind == "repeated")):
            argv = [word for item in words for word in item]
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                try:
                    expected = vars(parser.parse_args(argv))
                except SystemExit:
                    expected = None
            got = cli._plain_args(argv)
            if got is None:
                assert not plain, argv
                refused += expected is None
            else:
                assert expected is not None, argv
                assert repr(sorted(vars(got).items())) == repr(sorted(expected.items())), argv
    assert refused > 1000


def test_no_command_exits_2(capsys):
    with pytest.raises(SystemExit) as info:
        main([])
    assert info.value.code == 2


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as info:
        main(["--version"])
    assert info.value.code == 0


def test_each_rule_of_the_module_docstring_names_a_test_of_this_file():
    named = re.findall(r"``(test_\w+)``", cli.__doc__)
    assert len(named) == cli.__doc__.count("\n- ") > 0
    assert [name for name in named if not callable(globals().get(name))] == []


@pytest.mark.parametrize("argv, expected", [
    (["mc", "--ns", "1e16", "--eta", "0.5", "--nb", "1"], "analytic 1 + 1/N_s = 1, z = "),
    (["mc", "--ns", "1e150", "--eta", "0.5", "--nb", "1"], "analytic 1 + 1/N_s = 1, z = "),
    (["mc", "--ns", "1e200", "--eta", "0.5", "--nb", "1"], "analytic 1 + 1/N_s = 1, z = "),
    (["covariance", "--ns", "1e200", "--mode", "qi"], "     I_S         2e+200"),
    (["ratio", "--ns", "1e-310"], "C_c/C_q = 1e-155 at N_s = 1e-310"),
    (["range", "--ns", "1e-310", "--freq", "1e12", "--mode", "qi"], "qi: r_max = 433.511 m"),
    # N_s * h rounds to the smallest subnormal; the product is a normal float
    (["power", "--ns", "1e-290", "--freq", "1e10", "--bw", "1e10"], "P_t = 6.63e-304 W"),
    # the signal diagonal's sum overflows here, its entries do not
    (["mc", "--ns", "8e307", "--eta", "0.5", "--nb", "1"], "analytic 1 + 1/N_s = 1, z = "),
])
def test_extreme_n_s_gives_a_finite_answer(capsys, argv, expected):
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "")
    assert expected in out
    assert "inf" not in out and "nan" not in out


@pytest.mark.parametrize("argv, message", [
    (["covariance", "--ns", "1e308", "--mode", "qi"],
     "error: n_s = 1e+308 is too large: the diagonal 2*n_s + 1 overflows\n"),
    (["mc", "--ns", "1e308", "--eta", "0.5", "--nb", "1"],
     "error: n_s = 1e+308 is too large: the diagonal 2*n_s + 1 overflows\n"),
    (["mc", "--ns", "8e307", "--eta", "0.5", "--nb", "1e308"],
     "error: n_s = 8e+307 with n_b = 1e+308 overflows the return-channel covariance\n"),
    (["power", "--ns", "1e308", "--freq", "1e30", "--bw", "1e30"],
     "error: N_s*h*f*B overflows at n_s = 1e+308, f = 1e+30 Hz, B = 1e+30 Hz\n"),
    # 6.6e-334 W is below the smallest subnormal float
    (["power", "--ns", "1e-300", "--freq", "1e-30", "--bw", "1e30"],
     "error: N_s*h*f*B underflows to 0 at n_s = 1e-300, f = 1e-30 Hz, B = 1e+30 Hz\n"),
])
def test_extreme_n_s_without_a_finite_answer_exits_2(capsys, argv, message):
    assert run_cli(capsys, *argv) == (2, "", message)


# range's exit code for each status sweep writes for the same point
EXIT_CODE_OF_STATUS = {"ok": 0, "no_detection": 3, "near_field": 2, "overflow": 2,
                       "out_of_span": 2}


def test_readme_status_table_lists_each_status_and_the_exit_main_gives_it(monkeypatch, capsys):
    # README's table lists ok, the statuses solve refuses from _REFUSALS and
    # sweep's out_of_span; each refusal's range exit is main's for its class
    readme = (GOLDEN.parents[1] / "README.md").read_text(encoding="utf-8")
    table = readme.partition("\n| status | `r_max_m` | `range` |\n")[2].split("\n\n", 1)[0]
    rows = dict(re.findall(r"^\| `(\w+)` \| .* \| (.*) \|$", table, flags=re.MULTILINE))
    assert list(rows) == ["ok", *range_solver._REFUSALS, "out_of_span"]
    assert rows["ok"] == "prints it"
    for status, (error, _) in range_solver._REFUSALS.items():
        def refuse(chain, n_s, mode, error=error):
            raise error(status)

        monkeypatch.setattr(range_solver.RangeChain, "solve", refuse)
        code, _, _ = run_cli(capsys, "range", "--ns", "1", "--freq", "1e12", "--mode", "ci")
        assert code == EXIT_CODE_OF_STATUS[status], status
        assert rows[status].startswith(f"exits `{code}`"), status
    assert rows["out_of_span"].startswith(f"exits `{EXIT_CODE_OF_STATUS['out_of_span']}`")


def near_field_boundary(config, mode, rng):
    """An N_s within 3 ulp of the boundary of the chain of ``config``, where
    the mode's photons are SNR_min * N_B / M (N_s = SNR_min * N_B / M, less
    1 for QI) and eta at the root is 1; ``None`` where that is not
    positive."""
    chain = range_chain(config, config.frequencies_hz[0])
    n_s = chain.snr_min * chain.n_b / chain.pulse_count - mode.photons(0.0)
    if n_s <= 0.0:
        return None
    direction = rng.choice([0.0, math.inf])
    for _ in range(rng.randint(0, 3)):
        n_s = math.nextafter(n_s, direction)
    return n_s


def test_range_exit_code_follows_the_sweep_status_on_seeded_draws(tmp_path, capsys):
    # Random scenarios at one frequency, lossless or through the bundled
    # table (1 GHz - 1 THz), N_s log-uniform in [5e-324, 1e300], both modes.
    # Every third draw takes a frequency in the table span and puts N_s at
    # the near-field boundary instead, and every third N_s in [1e290, 1e300],
    # where R_free^4 can overflow.  A last draw puts R_free itself beyond
    # the float range.
    rng = random.Random(20261019)
    path = tmp_path / "scenario.json"
    seen = dict.fromkeys(["one_mode_fails", *EXIT_CODE_OF_STATUS], 0)

    def draws():
        for draw in range(150):
            at_boundary = draw % 3 == 0
            log_n_s_min = 290.0 if draw % 3 == 1 else math.log10(5e-324)
            log_f = rng.uniform(9.0, 12.0) if at_boundary else rng.uniform(8.7, 12.3)
            fields = {
                "sigma_m2": 10.0 ** rng.uniform(-4.0, 4.0),
                "aperture_m2": 10.0 ** rng.uniform(-3.0, 1.0),
                "snr_min_db": rng.uniform(-10.0, 40.0),
                "noise_power_dbm": rng.uniform(-120.0, -30.0),
                "frequencies_hz": [10.0 ** log_f],
                "attenuation_table_path": rng.choice([None, BUNDLED_CSV]),
            }
            path.write_text(json.dumps(fields), encoding="utf-8")
            config = load_config(path)
            for mode in Illumination:
                n_s = max(10.0 ** rng.uniform(log_n_s_min, 300.0), 5e-324)
                if at_boundary:
                    n_s = near_field_boundary(config, mode, rng) or n_s
                yield fields, config, mode, n_s
        fields, n_s = R_FREE_BEYOND_FLOATS
        path.write_text(json.dumps(fields), encoding="utf-8")
        for mode in Illumination:
            yield fields, load_config(path), mode, n_s

    for fields, config, mode, n_s in draws():
        [f_hz] = config.frequencies_hz
        columns = {m: column for _, m, column in sweep_range(config, [n_s])}
        column = columns[mode]
        [root], [status] = column
        seen[status] += 1
        code, out, err = run_cli(capsys, "--config", str(path), "range", "--ns", repr(n_s),
                                 "--freq", repr(f_hz), "--mode", mode.value)
        case = f"{fields} at N_s = {n_s!r}, {mode.value}: {status}"
        assert code == EXIT_CODE_OF_STATUS[status], case
        if code:
            assert out == "", case
        # without --mode, the first mode that fails decides the exit, and
        # the message is its --mode message followed by the other mode's
        # outcome, once
        both_code, both_out, both_err = run_cli(
            capsys, "--config", str(path), "range", "--ns", repr(n_s), "--freq", repr(f_hz))
        failing = [m for m in Illumination if columns[m][1] != ["ok"]]
        if not failing:
            assert both_code == 0, case
        else:
            first = failing[0]
            assert both_code == EXIT_CODE_OF_STATUS[columns[first][1][0]], case
            assert both_out == "", case
            if status != "out_of_span":
                if first is not mode:
                    _, _, err = run_cli(capsys, "--config", str(path), "range", "--ns",
                                        repr(n_s), "--freq", repr(f_hz), "--mode", first.value)
                assert both_err.startswith(err[:-1]), case
                [other] = [m for m in Illumination if m is not first]
                [other_root], [other_status] = columns[other]
                suffix = (f"; {other.value}: r_max = {other_root:.6g} m)\n"
                          if other_status == "ok" else f"; {other.value}: ")
                seen["one_mode_fails"] += other_status == "ok"
                rest = both_err[len(err) - 1:]
                assert rest.startswith(f" ({first.value}{suffix}"), case
                assert rest.count(f" ({first.value}; ") == 1 and rest.endswith(")\n"), case
        if status == "out_of_span":
            continue
        chain = range_chain(config, f_hz)
        if mode is Illumination.QI:
            assert column == chain.solutions([Illumination.CI.photons(n_s + 1.0)]), case
        if status == "ok":
            assert chain.solve(n_s, mode) == root, case
            assert ulps(root, reference_root(chain, n_s, mode)) <= 4.0, case
            assert f"{mode.value}: r_max = {root:.6g} m" in out, case
    assert all(seen.values()), seen


def test_range_exit_code_follows_the_sweep_status_at_float_edges(tmp_path, capsys):
    # Random scenarios at frequencies log-uniform in [1e150, 1e300] Hz (every
    # other draw below ~1.34e154 Hz, where f^2 is still a float), lossless
    # or through a two-knot table with gamma log-uniform in [1e-300, 1e2]
    # dB/km, N_s log-uniform in [5e-324, 1e300], both modes.  range exits
    # as the status sweep writes for the point says, or both exit 2 with
    # empty stdout; neither raises.  A last draw puts R_free itself beyond
    # the float range.
    rng = random.Random(20261020)
    table = tmp_path / "table.csv"
    path = tmp_path / "scenario.json"
    output = tmp_path / "f3.csv"
    seen = dict.fromkeys(["refused", *EXIT_CODE_OF_STATUS], 0)

    def draws():
        for draw in range(60):
            log_f_max = 154.1 if draw % 2 else 300.0
            fields = {
                "sigma_m2": 10.0 ** rng.uniform(-4.0, 4.0),
                "aperture_m2": 10.0 ** rng.uniform(-3.0, 1.0),
                "snr_min_db": rng.uniform(-10.0, 40.0),
                "noise_power_dbm": rng.uniform(-120.0, -30.0),
                "frequencies_hz": [10.0 ** rng.uniform(150.0, log_f_max)],
            }
            if draw % 3:
                gammas = [10.0 ** rng.uniform(-300.0, 2.0) for _ in range(2)]
                table.write_text("frequency_ghz,gamma_db_per_km\n"
                                 f"1e140,{gammas[0]!r}\n1e292,{gammas[1]!r}\n",
                                 encoding="utf-8")
                fields["attenuation_table_path"] = str(table)
            yield fields, max(10.0 ** rng.uniform(math.log10(5e-324), 300.0), 5e-324)
        yield R_FREE_BEYOND_FLOATS

    for fields, n_s in draws():
        path.write_text(json.dumps(fields), encoding="utf-8")
        [f_hz] = fields["frequencies_hz"]
        output.unlink(missing_ok=True)
        sweep_code, sweep_out, _ = run_cli(
            capsys, "--config", str(path), "sweep", "--figure", "3", "--ns-min", repr(n_s),
            "--ns-max", repr(2.0 * n_s), "--points", "2", "--output", str(output))
        rows = ([line.split(",") for line in output.read_text(encoding="utf-8").splitlines()]
                if sweep_code == 0 else [])
        for mode in Illumination:
            code, out, _ = run_cli(capsys, "--config", str(path), "range", "--ns", repr(n_s),
                                   "--freq", repr(f_hz), "--mode", mode.value)
            case = f"{fields} at N_s = {n_s!r}, {mode.value}"
            if sweep_code:
                assert (sweep_code, sweep_out, code, out) == (2, "", 2, ""), case
                assert not output.exists(), case
                seen["refused"] += 1
                continue
            [(root, status)] = [row[3:] for row in rows
                                if row[0] == repr(n_s) and row[2] == mode.value]
            seen[status] += 1
            assert code == EXIT_CODE_OF_STATUS[status], f"{case}: {status}"
            if code:
                assert out == "", case
            if status == "ok":
                assert f"{mode.value}: r_max = {float(root):.6g} m" in out, case
                assert "nan" not in out, case
    assert seen["refused"] and seen["ok"] and seen["overflow"], seen
