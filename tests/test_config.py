import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tripler.circuit import KERR_CONVENTIONS, CircuitParams
from tripler.config import (
    _KEYS,
    dump_device_config,
    load_device_config,
    parse_device_config,
)
from tripler.errors import ConfigError

GOOD = """\
# reference sample
length                 = 5.080e-3   m
critical_current       = 1.90e-6    A
squid_capacitance      = 86.1e-15   F
inductance_per_length  = 0.44e-6    H/m
capacitance_per_length = 0.16e-9    F/m
q_internal_1           = 61.1e3     1
q_external_1           = 19.0e3     1
"""


def test_parse_good():
    p = parse_device_config(GOOD)
    assert p.d == 5.080e-3
    assert p.Ic == 1.90e-6
    assert p.Q_ext_1 == 19.0e3
    assert p.Cc is None
    assert p.kerr_energy == "per_junction"


def test_unknown_key_reports_line():
    bad = GOOD + "squid_inductance = 1.0 H\n"
    with pytest.raises(ConfigError) as err:
        parse_device_config(bad)
    assert "line 9" in str(err.value)
    assert "unknown key" in str(err.value)


@pytest.mark.parametrize("text, where", [
    (GOOD + "squid_inductance = 1.0 H\n", "dev.cfg, line 9: unknown key"),
    (GOOD + "length = 1.0e-3 m\n", "dev.cfg, line 9: duplicate key"),
    ("length = 1e-3 m\n", "dev.cfg: missing required keys"),
    (GOOD.replace("= 1.90e-6    A", "= -1.90e-6   A"),
     "dev.cfg, line 3: 'critical_current' must be positive"),
])
def test_source_heads_every_error(text, where):
    with pytest.raises(ConfigError) as err:
        parse_device_config(text, source="dev.cfg")
    assert str(err.value).startswith(where)
    assert err.value.source == "dev.cfg"


def test_missing_required_keys_listed():
    with pytest.raises(ConfigError) as err:
        parse_device_config("length = 1e-3 m\n")
    msg = str(err.value)
    assert "critical_current" in msg and "q_internal_1" in msg


def test_wrong_unit_reports_line():
    bad = GOOD.replace("= 1.90e-6    A", "= 1.90e-6    mA")
    with pytest.raises(ConfigError) as err:
        parse_device_config(bad)
    assert "line 3" in str(err.value)


def test_missing_unit():
    bad = GOOD.replace("= 5.080e-3   m", "= 5.080e-3")
    with pytest.raises(ConfigError) as err:
        parse_device_config(bad)
    assert "line 2" in str(err.value)


def test_duplicate_key():
    bad = GOOD + "length = 1.0e-3 m\n"
    with pytest.raises(ConfigError) as err:
        parse_device_config(bad)
    assert "duplicate" in str(err.value)


def test_garbage_number():
    bad = GOOD.replace("5.080e-3", "five")
    with pytest.raises(ConfigError):
        parse_device_config(bad)


def test_invalid_physics_rejected():
    bad = GOOD.replace("= 1.90e-6    A", "= -1.90e-6   A")
    with pytest.raises(ConfigError):
        parse_device_config(bad)


def test_convention_switch():
    text = GOOD + "kerr_energy_convention = total\n"
    assert parse_device_config(text).kerr_energy == "total"
    with pytest.raises(ConfigError):
        parse_device_config(GOOD + "kerr_energy_convention = half\n")


def test_roundtrip(tmp_path, params):
    path = tmp_path / "device.cfg"
    path.write_text(dump_device_config(params))
    back = load_device_config(path)
    assert back == params


NUMERIC_KEYS = [(key, field, unit) for key, (field, unit, _) in _KEYS.items()
                if unit != "enum"]


@pytest.mark.parametrize("key, field, unit", NUMERIC_KEYS,
                         ids=[k for k, _, _ in NUMERIC_KEYS])
@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_non_finite_field_named(key, field, unit, bad):
    lines = [ln for ln in GOOD.splitlines() if not ln.startswith(key + " ")]
    text = "\n".join(lines + [f"{key} = {bad} {unit}"]) + "\n"
    with pytest.raises(ConfigError,
                       match=f"^line {len(lines) + 1}: '{key}' must be finite"):
        parse_device_config(text)


@pytest.mark.parametrize("edits, message", [
    ({"19.0e3     1": "0 1"},
     "line 8: 'q_external_1' must be positive when given, got 0.0"),
    ({"86.1e-15   F": "1.0 F"},
     "line 4: 'squid_capacitance' must be below the resonator capacitance"),
    # the cross-field check names both keys, on the line of the first
    ({"5.080e-3   m": "1e-200 m", "0.44e-6    H/m": "1e-200 H/m"},
     "line 5: 'inductance_per_length'*'length' must be positive and finite, "
     "got 0.0"),
], ids=["optional-zero", "capacitance", "product"])
def test_rejected_value_named_by_key_and_line(edits, message):
    text = GOOD
    for old, new in edits.items():
        assert old in text
        text = text.replace(old, new)
    with pytest.raises(ConfigError) as err:
        parse_device_config(text, source="device file 'd.cfg'")
    assert str(err.value).startswith(f"device file 'd.cfg', {message}")


def _positive(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


@st.composite
def devices(draw):
    """Valid CircuitParams over every field, optional ones present or not."""
    fields = {
        "d": draw(_positive(1e-3, 2e-2)),
        "Ic": draw(_positive(2e-7, 2e-5)),
        "CJ": draw(_positive(1e-16, 1e-13)),
        "L0": draw(_positive(1e-7, 2e-6)),
        "C0": draw(_positive(5e-11, 1e-9)),
        "Q_int_1": draw(_positive(1e2, 1e7)),
        "Q_ext_1": draw(st.none() | _positive(1e2, 1e7)),
        "Cc": draw(st.none() | _positive(1e-16, 1e-13)),
        "Q_int_2": draw(st.none() | _positive(1e2, 1e7)),
        "kerr_energy": draw(st.sampled_from(KERR_CONVENTIONS)),
    }
    if draw(st.booleans()):
        fields["Phi0"] = draw(_positive(1e-15, 5e-15))
    try:
        return CircuitParams(**fields)
    except ValueError:
        assume(False)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(params=devices())
def test_roundtrip_every_field(params):
    assert parse_device_config(dump_device_config(params)) == params
