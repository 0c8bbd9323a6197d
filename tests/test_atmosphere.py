"""Attenuation table ingestion, interpolation, and the form factor."""

import math
import os

import pytest

from qi_rangekit import atmosphere
from qi_rangekit.atmosphere import (
    AttenuationTable,
    bundled_table,
    form_factor,
    gamma_at,
    load_table,
    parse_table,
    serialize_table,
)
from qi_rangekit.errors import (
    DomainError,
    FrequencySpanError,
    TableParseError,
    TableValidationError,
)

SAMPLE_CSV = "frequency_ghz,gamma_db_per_km\n7,0.01\n95,0.5\n1000,100\n"


def test_parse_three_row_table():
    table = parse_table(SAMPLE_CSV.splitlines())
    assert table.rows == ((7.0, 0.01), (95.0, 0.5), (1000.0, 100.0))
    assert table.span_ghz == (7.0, 1000.0)


def test_comments_and_blank_lines_ignored():
    text = "# a comment\n\nfrequency_ghz,gamma_db_per_km\n# another\n10,1\n100,2\n"
    table = parse_table(text.splitlines())
    assert table.rows == ((10.0, 1.0), (100.0, 2.0))


def test_wrong_header_rejected():
    with pytest.raises(TableParseError):
        parse_table(["freq,gamma", "10,1", "100,2"])


def test_malformed_row_rejected():
    with pytest.raises(TableParseError):
        parse_table(["frequency_ghz,gamma_db_per_km", "10,1,junk"])
    with pytest.raises(TableParseError):
        parse_table(["frequency_ghz,gamma_db_per_km", "ten,1"])
    with pytest.raises(TableParseError):
        parse_table([])


def test_out_of_order_rows_name_the_offender():
    with pytest.raises(TableValidationError, match="row 3"):
        parse_table(["frequency_ghz,gamma_db_per_km", "10,1", "100,2", "50,3"])


def test_duplicate_frequency_rejected():
    with pytest.raises(TableValidationError):
        parse_table(["frequency_ghz,gamma_db_per_km", "10,1", "10,2"])


def test_negative_gamma_rejected():
    with pytest.raises(TableValidationError):
        parse_table(["frequency_ghz,gamma_db_per_km", "10,-1", "100,2"])


def test_unreadable_path_rejected_with_its_name(tmp_path):
    missing = tmp_path / "missing.csv"
    with pytest.raises(TableParseError, match="missing.csv"):
        load_table(missing)
    with pytest.raises(TableParseError, match="cannot read"):
        load_table(tmp_path)  # a directory


def test_relative_path_resolves_against_working_directory(tmp_path, monkeypatch):
    (tmp_path / "sample.csv").write_text(SAMPLE_CSV, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    table = load_table("sample.csv")
    assert table.rows == ((7.0, 0.01), (95.0, 0.5), (1000.0, 100.0))
    assert table.source == "sample.csv"
    # the source is the path as given
    assert load_table("./sample.csv").source == "./sample.csv"


def test_load_table_reads_a_str_or_a_path_alike(tmp_path):
    path = tmp_path / "sample.csv"
    path.write_text(SAMPLE_CSV, encoding="utf-8")
    assert load_table(str(path)) == load_table(path) == parse_table(
        SAMPLE_CSV.splitlines(), source=str(path))


def test_too_few_rows_rejected():
    with pytest.raises(TableValidationError):
        parse_table(["frequency_ghz,gamma_db_per_km", "10,1"])


def test_serialize_round_trips_exactly():
    table = AttenuationTable(rows=((7.123456789, 0.012345678901), (95.0, 0.5), (1000.0, 1e2)))
    again = parse_table(serialize_table(table).splitlines())
    assert again.rows == table.rows


def test_gamma_exact_at_knots():
    table = parse_table(SAMPLE_CSV.splitlines())
    assert gamma_at(table, 7e9) == 0.01
    assert gamma_at(table, 95e9) == 0.5
    assert gamma_at(table, 1000e9) == 100.0


def test_loglog_midpoint():
    table = AttenuationTable(rows=((10.0, 1.0), (1000.0, 100.0)))
    assert gamma_at(table, 100e9) == pytest.approx(10.0, rel=1e-12)


def test_zero_gamma_segment_interpolates_linearly():
    table = AttenuationTable(rows=((10.0, 0.0), (100.0, 1.0)))
    # log-frequency midpoint of the segment
    f_mid = math.sqrt(10.0 * 100.0) * 1e9
    assert gamma_at(table, f_mid) == pytest.approx(0.5, rel=1e-12)
    assert gamma_at(table, 10e9) == 0.0


def test_continuity_across_knots():
    table = parse_table(SAMPLE_CSV.splitlines())
    for knot_ghz in (95.0,):
        f = knot_ghz * 1e9
        left = gamma_at(table, f * (1.0 - 1e-12))
        right = gamma_at(table, f * (1.0 + 1e-12))
        center = gamma_at(table, f)
        assert left == pytest.approx(center, rel=1e-9)
        assert right == pytest.approx(center, rel=1e-9)


def test_out_of_span_queries_rejected():
    table = parse_table(SAMPLE_CSV.splitlines())
    with pytest.raises(FrequencySpanError) as info:
        gamma_at(table, 1e9)
    assert info.value.span_ghz == (7.0, 1000.0)
    with pytest.raises(FrequencySpanError):
        gamma_at(table, 2e12)


def test_form_factor_basics():
    assert form_factor(123.0, 0.0) == 1.0
    assert form_factor(10.0, 1000.0) == pytest.approx(0.1, rel=1e-12)
    assert form_factor(3.0, 2000.0) == pytest.approx(10.0**-0.6, rel=1e-12)


def test_form_factor_multiplicative_in_range():
    for gamma in (0.0, 0.5, 7.0):
        for r1 in (100.0, 1500.0):
            for r2 in (30.0, 4000.0):
                combined = form_factor(gamma, r1 + r2)
                split = form_factor(gamma, r1) * form_factor(gamma, r2)
                assert combined == pytest.approx(split, rel=1e-12)


def test_form_factor_strictly_decreasing():
    gammas = (0.1, 1.0, 10.0)
    ranges = (10.0, 100.0, 1000.0, 10000.0)
    for gamma in gammas:
        values = [form_factor(gamma, r) for r in ranges]
        assert all(b < a for a, b in zip(values, values[1:]))
    for r in ranges:
        values = [form_factor(g, r) for g in gammas]
        assert all(b < a for a, b in zip(values, values[1:]))


def test_form_factor_domain_errors():
    with pytest.raises(DomainError):
        form_factor(1.0, -1.0)
    with pytest.raises(DomainError):
        form_factor(-1.0, 10.0)


def test_bundled_table_loads_and_covers_benchmark_frequencies():
    table = bundled_table()
    lo, hi = table.span_ghz
    assert lo <= 7.0 and hi >= 1000.0
    # the oxygen complex around 60 GHz is a local maximum of the curve
    assert gamma_at(table, 60e9) > gamma_at(table, 50e9)
    assert gamma_at(table, 60e9) > gamma_at(table, 70e9)
    assert gamma_at(table, 60e9) > 10.0


def test_bundled_table_is_the_data_file_beside_the_module_read_by_load_table():
    path = os.path.join(os.path.dirname(atmosphere.__file__), "data",
                        "gaseous_attenuation_sea_level.csv")
    table = bundled_table()
    assert table.rows == load_table(path).rows
    assert table.source == "bundled:gaseous_attenuation_sea_level.csv"
