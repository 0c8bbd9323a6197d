"""The package's records: construction, immutability, equality, replace."""

import pickle

import pytest

from qi_rangekit import TEXTBOOK, PhysicalConstants
from qi_rangekit.atmosphere import AttenuationTable
from qi_rangekit.config import ScenarioConfig
from qi_rangekit.errors import ConfigError, DomainError, TableValidationError
from qi_rangekit.radiometry import dbm_to_watts
from qi_rangekit.range_solver import RangeChain

CHAIN = RangeChain(gamma_db_per_km=0.5, n_b=2.0, head=3.0, denominator=4.0, snr_min=10.0,
                   pulse_count=1)


def test_positional_and_keyword_construction_agree():
    assert RangeChain(0.5, 2.0, 3.0, 4.0, 10.0, 1) == CHAIN
    assert RangeChain(0.5, 2.0, 3.0, 4.0, pulse_count=1, snr_min=10.0) == CHAIN
    assert AttenuationTable(((1.0, 0.0), (2.0, 1.0))).source == ""
    assert ScenarioConfig(2.0).sigma_m2 == 2.0
    assert ScenarioConfig(2.0) == ScenarioConfig(sigma_m2=2.0)


def test_construction_rejects_wrong_arguments():
    with pytest.raises(TypeError, match="unexpected keyword argument 'sigma'"):
        ScenarioConfig(sigma=1.0, aperture_m2=0.5)
    with pytest.raises(TypeError, match="unexpected keyword argument 'p_d_typo'"):
        ScenarioConfig(p_d_typo=0.8)
    with pytest.raises(TypeError, match="multiple values for argument 'sigma_m2'"):
        ScenarioConfig(1.0, sigma_m2=1.0)
    with pytest.raises(TypeError, match="missing argument 'rows'"):
        AttenuationTable()
    with pytest.raises(TypeError):
        RangeChain(0.5, 2.0, 3.0, 4.0, 10.0, 1, 7.0)


def test_records_cannot_be_assigned_to():
    for record, field in ((CHAIN, "n_b"), (ScenarioConfig(), "sigma_m2"),
                          (ScenarioConfig(), "noise_power_watts"),
                          (AttenuationTable(((1.0, 0.0), (2.0, 1.0))), "rows")):
        with pytest.raises(AttributeError):
            setattr(record, field, 1.0)
        with pytest.raises(AttributeError):
            delattr(record, field)
    with pytest.raises(AttributeError):
        CHAIN.extra = 1.0  # slotted: no attribute outside the fields


def test_equal_records_hash_equal():
    assert CHAIN == CHAIN.replace() and CHAIN is not CHAIN.replace()
    assert hash(CHAIN) == hash(CHAIN.replace())
    assert hash(ScenarioConfig()) == hash(ScenarioConfig(frequencies_hz=[7e9, 95e9, 1e12]))
    assert len({ScenarioConfig(p_d=0.9), ScenarioConfig(p_d=0.9)}) == 1
    assert CHAIN != CHAIN.replace(n_b=3.0)
    # a record is not equal to a tuple, nor to a record of another type
    class Table(AttenuationTable):
        __slots__ = ()

    rows = ((1.0, 0.0), (2.0, 1.0))
    assert CHAIN != (0.5, 2.0, 3.0, 4.0, 10.0, 1)
    assert Table(rows) != AttenuationTable(rows)


def test_replace_runs_the_checks_again():
    assert ScenarioConfig().replace(p_fa=1e-3).p_fa == 1e-3
    with pytest.raises(ConfigError, match="p_fa"):
        ScenarioConfig().replace(p_fa=2.0)
    with pytest.raises(DomainError, match="n_b"):
        CHAIN.replace(n_b=0)
    with pytest.raises(DomainError, match=r"head \(sigma_m2 \* G \* aperture_m2 \* M\)"):
        CHAIN.replace(head=float("inf"))
    with pytest.raises(DomainError, match=r"denominator \(\(4\*pi\)\^k \* N_B\)"):
        CHAIN.replace(denominator=0.0)
    with pytest.raises(DomainError, match="snr_min"):
        CHAIN.replace(snr_min=float("nan"))
    with pytest.raises(TableValidationError):
        AttenuationTable(((1.0, 0.0), (2.0, 1.0))).replace(rows=((1.0, 0.0),))
    with pytest.raises(TypeError, match="unexpected keyword argument 'nb'"):
        CHAIN.replace(nb=1.0)


def test_replace_rebuilds_derived_attributes():
    config = ScenarioConfig().replace(noise_power_dbm=-60.0, tau_s=2.0)
    assert config.noise_power_watts == dbm_to_watts(-60.0)
    assert config.pulse_count == 2 * 10**9
    assert config.replace(frequencies_hz=[1e9]).frequencies_hz == (1e9,)


def test_checks_normalise_fields():
    config = ScenarioConfig(frequencies_hz=[7e9, 95e9, 10**12])
    assert config.frequencies_hz == (7e9, 95e9, 1e12)
    assert isinstance(config.frequencies_hz, tuple)
    assert isinstance(config.frequencies_hz[2], float)


def test_repr_lists_the_fields():
    assert repr(CHAIN) == ("RangeChain(gamma_db_per_km=0.5, n_b=2.0, head=3.0, denominator=4.0, "
                           "snr_min=10.0, pulse_count=1)")
    assert repr(ScenarioConfig()).startswith("ScenarioConfig(sigma_m2=1.0, aperture_m2=0.5, ")
    assert "noise_power_watts" not in repr(ScenarioConfig())


def test_records_pickle_through_their_checks():
    for record in (CHAIN, ScenarioConfig(p_d=0.9), AttenuationTable(((1.0, 0.0), (2.0, 1.0)))):
        assert pickle.loads(pickle.dumps(record)) == record
    assert pickle.loads(pickle.dumps(ScenarioConfig())).noise_power_watts == dbm_to_watts(-63.82)


def test_constants_are_a_named_tuple():
    assert TEXTBOOK == PhysicalConstants(6.63e-34, 1.38e-23, 3.0e8)
    assert TEXTBOOK._replace(c=1.0).c == 1.0
    assert PhysicalConstants._fields == ("h", "k_b", "c")
