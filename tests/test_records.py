"""The package's records: construction, immutability, equality, replace."""

import pickle

import pytest

from qi_rangekit import TEXTBOOK, PhysicalConstants
from qi_rangekit.atmosphere import AttenuationTable
from qi_rangekit.config import ScenarioConfig
from qi_rangekit.detection_mc import ReturnChannelModel
from qi_rangekit.errors import ConfigError, DomainError, TableValidationError
from qi_rangekit.link_budget import DetectionSpec, IntegrationSpec, RadarParams
from qi_rangekit.quantum_states import tmsv_covariance
from qi_rangekit.range_solver import RangeChain

CHAIN = RangeChain(gamma_db_per_km=0.5, n_b=2.0, head=3.0, denominator=4.0, snr_min=10.0,
                   pulse_count=1)


def test_positional_and_keyword_construction_agree():
    assert RangeChain(0.5, 2.0, 3.0, 4.0, 10.0, 1) == CHAIN
    assert RadarParams(1.0, 0.5) == RadarParams(aperture_m2=0.5, sigma_m2=1.0)
    assert AttenuationTable(((1.0, 0.0), (2.0, 1.0))).source == ""
    assert ScenarioConfig(2.0).sigma_m2 == 2.0
    assert ScenarioConfig(2.0) == ScenarioConfig(sigma_m2=2.0)


def test_construction_rejects_wrong_arguments():
    with pytest.raises(TypeError, match="unexpected keyword argument 'sigma'"):
        RadarParams(sigma=1.0, aperture_m2=0.5)
    with pytest.raises(TypeError, match="unexpected keyword argument 'p_d_typo'"):
        ScenarioConfig(p_d_typo=0.8)
    with pytest.raises(TypeError, match="multiple values for argument 'sigma_m2'"):
        RadarParams(1.0, sigma_m2=1.0)
    with pytest.raises(TypeError, match="missing argument 'aperture_m2'"):
        RadarParams(1.0)
    with pytest.raises(TypeError):
        RadarParams(1.0, 0.5, 3.0)


def test_records_cannot_be_assigned_to():
    for record, field in ((CHAIN, "n_b"), (ScenarioConfig(), "sigma_m2"),
                          (ScenarioConfig(), "radar"), (IntegrationSpec(1.0, 1e9), "tau_s")):
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
    assert len({DetectionSpec(0.7, 1e-6, 10.0), DetectionSpec(0.7, 1e-6, 10.0)}) == 1
    assert CHAIN != CHAIN.replace(n_b=3.0)
    # a record is not equal to a tuple, nor to a record of another type
    assert RadarParams(1.0, 0.5) != (1.0, 0.5)
    assert IntegrationSpec(1.0, 0.5e9) != RadarParams(1.0, 0.5e9)


def test_replace_runs_the_checks_again():
    assert ScenarioConfig().replace(p_fa=1e-3).p_fa == 1e-3
    with pytest.raises(ConfigError, match="p_fa"):
        ScenarioConfig().replace(p_fa=2.0)
    with pytest.raises(DomainError, match="n_b"):
        CHAIN.replace(n_b=0)
    with pytest.raises(TableValidationError):
        AttenuationTable(((1.0, 0.0), (2.0, 1.0))).replace(rows=((1.0, 0.0),))
    with pytest.raises(TypeError, match="unexpected keyword argument 'nb'"):
        CHAIN.replace(nb=1.0)


def test_replace_rebuilds_derived_attributes():
    config = ScenarioConfig().replace(sigma_m2=2.0, p_d=0.9)
    assert config.radar == RadarParams(2.0, 0.5)
    assert config.detection.p_d == 0.9
    assert config.replace(frequencies_hz=[1e9]).frequencies_hz == (1e9,)


def test_checks_normalise_fields():
    model = ReturnChannelModel(0.5, 1.0, [list(row) for row in tmsv_covariance(1.0)])
    assert model.base == tmsv_covariance(1.0)
    assert isinstance(model.base, tuple)


def test_repr_lists_the_fields():
    assert repr(RadarParams(1.0, 0.5)) == "RadarParams(sigma_m2=1.0, aperture_m2=0.5)"
    assert repr(ScenarioConfig()).startswith("ScenarioConfig(sigma_m2=1.0, aperture_m2=0.5, ")
    assert "radar" not in repr(ScenarioConfig())


def test_records_pickle_through_their_checks():
    model = ReturnChannelModel(0.5, 1.0, tmsv_covariance(1.0))
    for record in (CHAIN, ScenarioConfig(p_d=0.9), model):
        assert pickle.loads(pickle.dumps(record)) == record
    assert pickle.loads(pickle.dumps(ScenarioConfig())).radar == RadarParams(1.0, 0.5)


def test_constants_are_a_named_tuple():
    assert TEXTBOOK == PhysicalConstants(6.63e-34, 1.38e-23, 3.0e8)
    assert TEXTBOOK._replace(c=1.0).c == 1.0
    assert PhysicalConstants._fields == ("h", "k_b", "c")
