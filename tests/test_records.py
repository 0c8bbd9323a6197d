"""The package's records: construction, immutability, equality, replace."""

import math
import pickle

import pytest

from qi_rangekit import CODATA, TEXTBOOK, PhysicalConstants
from qi_rangekit.atmosphere import AttenuationTable
from qi_rangekit.config import ScenarioConfig
from qi_rangekit.detection_mc import GainExperimentResult
from qi_rangekit.errors import ConfigError, DomainError, TableValidationError
from qi_rangekit.radiometry import dbm_to_watts
from qi_rangekit.range_solver import RangeChain

CHAIN = RangeChain(gamma_db_per_km=0.5, n_b=2.0, head=3.0, denominator=4.0, snr_min=10.0,
                   pulse_count=1)
RESULT = GainExperimentResult(ratio=11.0, standard_error=0.1, deflection_quantum=2.2,
                              deflection_classical=0.2, trials=10**6, resolution=50.0)


def test_positional_and_keyword_construction_agree():
    assert RangeChain(0.5, 2.0, 3.0, 4.0, 10.0, 1) == CHAIN
    assert RangeChain(0.5, 2.0, 3.0, 4.0, pulse_count=1, snr_min=10.0) == CHAIN
    assert AttenuationTable(((1.0, 0.0), (2.0, 1.0))).source == ""
    assert ScenarioConfig(2.0).sigma_m2 == 2.0
    assert ScenarioConfig(2.0) == ScenarioConfig(sigma_m2=2.0)
    assert PhysicalConstants(6.63e-34, 1.38e-23, c=3.0e8) == TEXTBOOK
    assert GainExperimentResult(11.0, 0.1, 2.2, 0.2, 10**6, 50.0) == RESULT


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
    with pytest.raises(TypeError, match="missing argument 'c'"):
        PhysicalConstants(h=6.63e-34, k_b=1.38e-23)
    with pytest.raises(TypeError, match="takes 6 arguments, got 7"):
        GainExperimentResult(11.0, 0.1, 2.2, 0.2, 10**6, 50.0, 1.0)


def test_records_cannot_be_assigned_to():
    for record, field in ((CHAIN, "n_b"), (ScenarioConfig(), "sigma_m2"),
                          (ScenarioConfig(), "noise_power_watts"),
                          (AttenuationTable(((1.0, 0.0), (2.0, 1.0))), "rows"),
                          (TEXTBOOK, "c"), (RESULT, "ratio")):
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
    assert TEXTBOOK == TEXTBOOK.replace() and hash(TEXTBOOK) == hash(TEXTBOOK.replace())
    assert len({TEXTBOOK, CODATA, PhysicalConstants(6.63e-34, 1.38e-23, 3.0e8)}) == 2
    assert RESULT == RESULT.replace() and hash(RESULT) == hash(RESULT.replace())
    assert RESULT != RESULT.replace(trials=10**5)
    # a record is not equal to a tuple, nor to a record of another type
    class Table(AttenuationTable):
        __slots__ = ()

    rows = ((1.0, 0.0), (2.0, 1.0))
    assert CHAIN != (0.5, 2.0, 3.0, 4.0, 10.0, 1)
    assert TEXTBOOK != (6.63e-34, 1.38e-23, 3.0e8)
    assert RESULT != (11.0, 0.1, 2.2, 0.2, 10**6, 50.0)
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
    # the unchecked records replace as given
    assert TEXTBOOK.replace(c=1.0) == PhysicalConstants(6.63e-34, 1.38e-23, 1.0)
    assert RESULT.resolved and not RESULT.replace(resolution=4.9).resolved
    with pytest.raises(TypeError, match="unexpected keyword argument 'kb'"):
        TEXTBOOK.replace(kb=1.0)


@pytest.mark.parametrize("value, message", [
    ("x", "pulse_count must be an integer, got 'x'"),
    (0, "pulse_count must be >= 1, got 0"),
    (True, "pulse_count must be an integer, got True"),
    (2.5, "pulse_count must be an integer, got 2.5"),
    (-5, "pulse_count must be >= 1, got -5"),
], ids=["str", "zero", "bool", "fraction", "negative"])
def test_range_chain_takes_m_as_a_count(value, message):
    # M is a count of measurements: the count rule of errors, from 1
    with pytest.raises(DomainError) as info:
        CHAIN.replace(pulse_count=value)
    assert (type(info.value), str(info.value)) == (DomainError, message)
    assert CHAIN.replace(pulse_count=2).pulse_count == 2


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
    assert repr(TEXTBOOK) == "PhysicalConstants(h=6.63e-34, k_b=1.38e-23, c=300000000.0)"
    assert repr(RESULT) == (
        "GainExperimentResult(ratio=11.0, standard_error=0.1, deflection_quantum=2.2, "
        "deflection_classical=0.2, trials=1000000, resolution=50.0)"
    )


def test_records_pickle_through_their_checks():
    for record in (CHAIN, ScenarioConfig(p_d=0.9), AttenuationTable(((1.0, 0.0), (2.0, 1.0))),
                   TEXTBOOK, CODATA, RESULT):
        assert pickle.loads(pickle.dumps(record)) == record
    assert pickle.loads(pickle.dumps(ScenarioConfig())).noise_power_watts == dbm_to_watts(-63.82)


def test_constants_are_a_record():
    assert TEXTBOOK == PhysicalConstants(6.63e-34, 1.38e-23, 3.0e8)
    assert TEXTBOOK.replace(c=1.0).c == 1.0
    assert PhysicalConstants._fields == ("h", "k_b", "c")


# one value of each kind a constant may hold by mistake, and the text of
# the package's positive rule for it
NOT_CONSTANTS = {
    "str": ("x", "{} must be a number, got 'x'"),
    "bool": (True, "{} must be a number, got True"),
    "None": (None, "{} must be a number, got None"),
    "inf": (math.inf, "{} must be positive and finite, got inf"),
    "nan": (math.nan, "{} must be positive and finite, got nan"),
    "zero": (0.0, "{} must be positive and finite, got 0.0"),
    "negative": (-1.0, "{} must be positive and finite, got -1.0"),
    "huge_int": (10**400, "{} is an integer too large for a float"),
}


@pytest.mark.parametrize("kind", NOT_CONSTANTS)
@pytest.mark.parametrize("field", PhysicalConstants._fields)
def test_constants_take_the_positive_rule(field, kind):
    value, text = NOT_CONSTANTS[kind]
    with pytest.raises(DomainError) as info:
        TEXTBOOK.replace(**{field: value})
    assert (type(info.value), str(info.value)) == (DomainError, text.format(field))


def test_the_constant_sets_keep_their_values_as_floats():
    assert TEXTBOOK._values() == (6.63e-34, 1.38e-23, 3.0e8)
    assert CODATA._values() == (6.62607015e-34, 1.380649e-23, 299792458.0)
    # an int constant is held as the float the rule returns
    ints = PhysicalConstants(h=1, k_b=2, c=3)
    assert ints._values() == (1.0, 2.0, 3.0)
    assert all(type(value) is float for value in ints._values())


def test_records_are_not_tuples():
    # no record indexes, iterates, unpacks or has the tuple helpers
    for record in (TEXTBOOK, RESULT, CHAIN):
        assert not isinstance(record, tuple)
        with pytest.raises(TypeError):
            record[0]
        with pytest.raises(TypeError):
            iter(record)
        assert not hasattr(record, "_replace") and not hasattr(record, "_asdict")
