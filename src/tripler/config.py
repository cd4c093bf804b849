"""Plain-text device configuration files.

Each non-comment line carries ``key = value unit``; the unit token is
mandatory and checked against the SI unit of the key.  Unknown keys and
missing required keys are rejected with line-numbered diagnostics, so a
typo never silently drops a parameter.

Example::

    # 5.08 mm tunable resonator
    length                 = 5.080e-3        m
    critical_current       = 1.90e-6         A
    squid_capacitance      = 86.1e-15        F
    inductance_per_length  = 0.44e-6         H/m
    capacitance_per_length = 0.16e-9         F/m
    q_internal_1           = 61.1e3          1
    q_external_1           = 19.0e3          1
"""

from __future__ import annotations

from .circuit import CircuitParams
from .errors import ConfigError

#: key -> (CircuitParams field, SI unit token, required)
_KEYS = {
    "length": ("d", "m", True),
    "critical_current": ("Ic", "A", True),
    "squid_capacitance": ("CJ", "F", True),
    "inductance_per_length": ("L0", "H/m", True),
    "capacitance_per_length": ("C0", "F/m", True),
    "coupling_capacitance": ("Cc", "F", False),
    "q_internal_1": ("Q_int_1", "1", True),
    "q_external_1": ("Q_ext_1", "1", False),
    "q_internal_2": ("Q_int_2", "1", False),
    "flux_quantum": ("Phi0", "Wb", False),
    "kerr_energy_convention": ("kerr_energy", "enum", False),
}


def parse_device_config(text: str, source: str | None = None) -> CircuitParams:
    """Parse device-parameter text into :class:`CircuitParams`.

    ``source``, when given, names the text at the head of every error.
    """
    def error(message, lineno=None):
        return ConfigError(message, lineno, source)

    fields: dict = {}
    seen: dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise error(f"expected 'key = value unit', got {raw!r}", lineno)
        key, _, rhs = (s.strip() for s in line.partition("="))
        if key not in _KEYS:
            known = ", ".join(sorted(_KEYS))
            raise error(f"unknown key {key!r} (known keys: {known})", lineno)
        if key in seen:
            raise error(
                f"duplicate key {key!r} (first given on line {seen[key]})", lineno)
        seen[key] = lineno
        field, unit, _ = _KEYS[key]
        parts = rhs.split()
        if unit == "enum":
            if len(parts) != 1:
                raise error(f"{key!r} takes a single word", lineno)
            fields[field] = parts[0]
            continue
        if len(parts) != 2:
            raise error(
                f"{key!r} needs a value and its unit, e.g. '1.0 {unit}'", lineno)
        value_s, unit_s = parts
        if unit_s != unit:
            raise error(
                f"{key!r} must be given in {unit!r}, not {unit_s!r}", lineno)
        try:
            fields[field] = float(value_s)
        except ValueError:
            raise error(f"cannot parse {value_s!r} as a number", lineno) from None

    missing = [k for k, (_, _, req) in _KEYS.items()
               if req and _KEYS[k][0] not in fields]
    if missing:
        raise error(f"missing required keys: {', '.join(sorted(missing))}")
    try:
        return CircuitParams(**fields)
    except ValueError as exc:
        raise error(str(exc)) from exc


def load_device_config(path) -> CircuitParams:
    """Read and parse a device-parameter file; non-UTF-8 bytes are a ConfigError."""
    source = f"device file {str(path)!r}"
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise ConfigError(str(exc), source=source) from exc
    return parse_device_config(text, source=source)


def dump_device_config(params: CircuitParams) -> str:
    """Render :class:`CircuitParams` back into config-file text."""
    lines = []
    for key, (field, unit, _) in _KEYS.items():
        val = getattr(params, field)
        if val is None:
            continue
        if unit == "enum":
            lines.append(f"{key} = {val}")
        else:
            lines.append(f"{key} = {val!r} {unit}")
    return "\n".join(lines) + "\n"
