"""JSON schemas for CLI configs and emitted JSON artifacts.

Every config file carries "schema": "paramix/1" and is validated before any
computation; unknown keys are rejected so unit mistakes (MHz vs GHz fields)
fail loudly. Emitted JSON artifacts carry the same version tag and have
schemas of their own so a written file can be re-validated round-trip.

Each schema is compiled once, at import, into a plain-Python checker that
follows JSON Schema Draft 2020-12 for exactly the keywords these schemas
use: type, const, enum, minimum, maximum, exclusiveMinimum, properties,
required, additionalProperties (false only), items, minItems and oneOf. Any
other keyword, or an enum/const literal other than a string or null, raises
at import, so a later schema edit cannot go silently unchecked. As in Draft
2020-12, a bool is not a number, "number" is any numbers.Number (so
np.float64 counts), "integer" also accepts an integral float, and a bound
fails only on v < minimum, v > maximum or v <= exclusiveMinimum, so NaN
passes every bound. Every document is checked in full on every call; of
all violations, the one with the smallest JSON path is reported, with the
message jsonschema gives (the test suite uses jsonschema as the oracle).
"""

from __future__ import annotations

import numbers
import operator

from .errors import ConfigError

SCHEMA_TAG = "paramix/1"

_TAG = {"const": SCHEMA_TAG}
_NUM = {"type": "number"}
_POS = {"type": "number", "exclusiveMinimum": 0}
_NONNEG = {"type": "number", "minimum": 0}
_UNIT = {"type": "number", "minimum": 0, "maximum": 1}
_NUM_OR_NULL = {"type": ["number", "null"]}
_PUMP = {"enum": ["P1", "P2"]}
_PARITY = {"enum": ["even", "odd"]}

_JPC = {
    "type": "object",
    "properties": {
        "f_a_ghz": _POS,
        "f_b_ghz": _POS,
        "gamma_a_mhz": _POS,
        "gamma_b_mhz": _POS,
        "rho": _UNIT,
        "pump_phase_rad": _NUM,
        "phi_ext_rad": _NUM,
    },
    "required": ["f_a_ghz", "f_b_ghz", "gamma_a_mhz", "gamma_b_mhz", "rho"],
    "additionalProperties": False,
}

_JIS_FULL = {
    "type": "object",
    "properties": {
        "f_a_ghz": _POS,
        "f_b_ghz": _POS,
        "gamma_a_mhz": _POS,
        "gamma_b_mhz": _POS,
        "rho": _UNIT,
        "alpha_mag": _UNIT,
        "pump_port": _PUMP,
        "phi_ext1_rad": _NUM,
        "phi_ext2_rad": _NUM,
        "delay_length_um": _NONNEG,
        "delay_eps_eff": {"type": "number", "minimum": 1},
    },
    "required": ["f_a_ghz", "f_b_ghz", "gamma_a_mhz", "gamma_b_mhz", "rho"],
    "additionalProperties": False,
}

_JIS_PRESET = {
    "type": "object",
    "properties": {
        "preset": {"const": "reference"},
        "rho": _UNIT,
        "alpha_mag": _UNIT,
        "pump_port": _PUMP,
        "phi_ext1_rad": _NUM,
        "phi_ext2_rad": _NUM,
    },
    "required": ["preset"],
    "additionalProperties": False,
}

_JIS = {"oneOf": [_JIS_PRESET, _JIS_FULL]}

_GRID = {
    "type": "object",
    "properties": {
        "span_mhz": _POS,
        "points": {"type": "integer", "minimum": 3},
    },
    "additionalProperties": False,
}

_GYRATOR = {
    "type": "object",
    "properties": {"parity": _PARITY, "pump_port": _PUMP},
    "required": ["parity"],
    "additionalProperties": False,
}

_RECORD = {
    "type": "object",
    "properties": {
        "label": {"type": "string"},
        "t1_us": _POS,
        "t2e_us": _POS,
        "kappa_mhz": _POS,
        "chi_mhz": _POS,
        "jis": {"enum": ["on", "off"]},
        "jda": {"enum": ["on", "off"]},
        "nbar_m": _POS,
        "t_m_us": _POS,
        "i_over_sigma": _POS,
    },
    "required": ["label", "t1_us", "t2e_us", "kappa_mhz", "chi_mhz"],
    "additionalProperties": False,
}

_JRM = {
    "type": "object",
    "properties": {
        "i0_ua": _POS,
        "f_max_ghz": _POS,
        "z_res_ohm": _POS,
        "lj0_over_l": _POS,
        "lj0_over_ls": _POS,
    },
    "additionalProperties": False,
}

_PHI_GRID = {
    "type": "object",
    "properties": {
        "phi_start_rad": _NUM,
        "phi_stop_rad": _NUM,
        "points": {"type": "integer", "minimum": 2},
    },
    "additionalProperties": False,
}

CONFIG_SCHEMAS = {
    "jpc-sweep": {
        "type": "object",
        "properties": {"schema": _TAG, "jpc": _JPC, "grid": _GRID},
        "required": ["schema", "jpc"],
        "additionalProperties": False,
    },
    "jis-sweep": {
        "type": "object",
        "properties": {"schema": _TAG, "jis": _JIS, "grid": _GRID},
        "required": ["schema", "jis"],
        "additionalProperties": False,
    },
    "jis-4port": {
        "type": "object",
        "properties": {"schema": _TAG, "jis": _JIS},
        "required": ["schema", "jis"],
        "additionalProperties": False,
    },
    "fit": {
        "type": "object",
        "properties": {
            "schema": _TAG,
            "s21_sq": _UNIT,
            "s12_sq": _UNIT,
            "pump_port": _PUMP,
        },
        "required": ["schema", "s21_sq", "s12_sq"],
        "additionalProperties": False,
    },
    "parity": {
        "type": "object",
        "properties": {
            "schema": _TAG,
            "chains": {
                "type": "array",
                "minItems": 1,
                "items": {"type": "array", "minItems": 1, "items": _GYRATOR},
            },
        },
        "required": ["schema", "chains"],
        "additionalProperties": False,
    },
    "readout": {
        "type": "object",
        "properties": {
            "schema": _TAG,
            "records": {"type": "array", "minItems": 1, "items": _RECORD},
        },
        "required": ["schema", "records"],
        "additionalProperties": False,
    },
    "flux-curve": {
        "type": "object",
        "properties": {"schema": _TAG, "jrm": _JRM, "grid": _PHI_GRID},
        "required": ["schema"],
        "additionalProperties": False,
    },
    "bandwidth-scan": {
        "type": "object",
        "properties": {
            "schema": _TAG,
            "jis": _JIS,
            "rho_values": {"type": "array", "minItems": 1, "items": _UNIT},
            "grid": _GRID,
        },
        "required": ["schema", "jis", "rho_values"],
        "additionalProperties": False,
    },
    "selftest": {
        "type": "object",
        "properties": {"schema": _TAG},
        "required": ["schema"],
        "additionalProperties": False,
    },
}

ARTIFACT_SCHEMAS = {
    "jis_sweep_sidecar": {
        "type": "object",
        "properties": {
            "schema": _TAG,
            "direction": {"enum": ["s21", "s12"]},
            "dip_f_ghz": _NUM_OR_NULL,
            "gamma_mhz": _NUM_OR_NULL,
            "floor": _NUM_OR_NULL,
            "note": {"type": "string"},
        },
        "required": ["schema", "direction", "dip_f_ghz", "gamma_mhz", "floor"],
        "additionalProperties": False,
    },
    "fit_result": {
        "type": "object",
        "properties": {
            "schema": _TAG,
            "rho": _UNIT,
            "alpha_mag": _UNIT,
            "residual": _NONNEG,
            "alpha_identifiable": {"type": "boolean"},
        },
        "required": ["schema", "rho", "alpha_mag", "residual", "alpha_identifiable"],
        "additionalProperties": False,
    },
    "parity_report": {
        "type": "object",
        "properties": {
            "schema": _TAG,
            "calibration_phase_rad": _NUM,
            "all_match": {"type": "boolean"},
            "rows": {
                "type": "array",
                "items": {
                    "type": "object",
                    "properties": {
                        "parities": {"type": "array", "items": _PARITY},
                        "pump_ports": {"type": "array", "items": _PUMP},
                        "t_mag": _NONNEG,
                        "xor": _PARITY,
                        "match": {"type": "boolean"},
                    },
                    "required": ["parities", "pump_ports", "t_mag", "xor", "match"],
                    "additionalProperties": False,
                },
            },
        },
        "required": ["schema", "calibration_phase_rad", "all_match", "rows"],
        "additionalProperties": False,
    },
    "readout_report": {
        "type": "object",
        "properties": {
            "schema": _TAG,
            "nbar_th": _NONNEG,
            "isolation_db": _NUM_OR_NULL,
            "rows": {
                "type": "array",
                "items": {
                    "type": "object",
                    "properties": {
                        "label": {"type": "string"},
                        "t_phi_us": _POS,
                        "gamma_phi_per_us": _NONNEG,
                        "nbar": _NONNEG,
                        "nbar_ba": _NUM,
                        "jis": {"enum": ["on", "off", None]},
                        "jda": {"enum": ["on", "off", None]},
                    },
                    "required": [
                        "label",
                        "t_phi_us",
                        "gamma_phi_per_us",
                        "nbar",
                        "nbar_ba",
                        "jis",
                        "jda",
                    ],
                    "additionalProperties": False,
                },
            },
        },
        "required": ["schema", "nbar_th", "isolation_db", "rows"],
        "additionalProperties": False,
    },
    "four_port": {
        "type": "object",
        "properties": {
            "schema": _TAG,
            "freq_ghz": _NUM,
            "ports": {"type": "array", "items": {"type": "string"}},
            "s_real": {"type": "array", "items": {"type": "array", "items": _NUM}},
            "s_imag": {"type": "array", "items": {"type": "array", "items": _NUM}},
        },
        "required": ["schema", "freq_ghz", "ports", "s_real", "s_imag"],
        "additionalProperties": False,
    },
    "jpc_sweep_rows": {
        "type": "object",
        "properties": {
            "schema": _TAG,
            "rows": {
                "type": "array",
                "items": {
                    "type": "object",
                    "properties": {
                        "f_ghz": _NUM,
                        "t_sq": _NONNEG,
                        "ra_sq": _NONNEG,
                        "arg_t_rad": _NUM,
                    },
                    "required": ["f_ghz", "t_sq", "ra_sq", "arg_t_rad"],
                    "additionalProperties": False,
                },
            },
        },
        "required": ["schema", "rows"],
        "additionalProperties": False,
    },
}


def _is_number(v) -> bool:
    if isinstance(v, float):
        return True
    return not isinstance(v, bool) and isinstance(v, numbers.Number)


def _is_integer(v) -> bool:
    if isinstance(v, bool):
        return False
    return isinstance(v, int) or (isinstance(v, float) and v.is_integer())


_TYPES = {
    "array": lambda v: isinstance(v, list),
    "boolean": lambda v: isinstance(v, bool),
    "integer": _is_integer,
    "null": lambda v: v is None,
    "number": _is_number,
    "object": lambda v: isinstance(v, dict),
    "string": lambda v: isinstance(v, str),
}

# A checker is check(value, path, errors): it appends (path, message) to
# errors for every violation, in the order jsonschema yields them.


def _type(names, schema):
    names = [names] if isinstance(names, str) else list(names)
    tests = [_TYPES[n] for n in names]
    reprs = ", ".join(repr(n) for n in names)
    matches = tests[0] if len(tests) == 1 else lambda v: any(test(v) for test in tests)

    def check(v, path, errors):
        if not matches(v):
            errors.append((path, f"{v!r} is not of type {reprs}"))

    return check


def _literals(values):
    # plain == agrees with jsonschema's equality for strings and null, but
    # not for numbers or bools (True == 1), so only these are compiled
    for value in values:
        if value is not None and not isinstance(value, str):
            raise TypeError(f"no compiled comparison for literal {value!r}")


def _const(literal, schema):
    _literals([literal])
    message = f"{literal!r} was expected"

    def check(v, path, errors):
        if v != literal:
            errors.append((path, message))

    return check


def _enum(literals, schema):
    _literals(literals)

    def check(v, path, errors):
        if v not in literals:
            errors.append((path, f"{v!r} is not one of {literals!r}"))

    return check


def _bound(fails, text):
    def compile_bound(limit, schema):
        def check(v, path, errors):
            if _is_number(v) and fails(v, limit):
                errors.append((path, f"{v!r} is {text} {limit!r}"))

        return check

    return compile_bound


def _properties(props, schema):
    subs = [(key, _compile(sub)) for key, sub in props.items()]

    def check(v, path, errors):
        if isinstance(v, dict):
            for key, sub in subs:
                if key in v:
                    sub(v[key], path + (key,), errors)

    return check


def _required(keys, schema):
    def check(v, path, errors):
        if isinstance(v, dict):
            for key in keys:
                if key not in v:
                    errors.append((path, f"{key!r} is a required property"))

    return check


def _additional_properties(allowed, schema):
    if allowed is not False:
        raise ValueError("only additionalProperties: false is compiled")
    known = frozenset(schema.get("properties", {}))

    def check(v, path, errors):
        if isinstance(v, dict) and not known.issuperset(v):
            extras = sorted({key for key in v if key not in known}, key=str)
            verb = "was" if len(extras) == 1 else "were"
            joined = ", ".join(repr(key) for key in extras)
            message = f"Additional properties are not allowed ({joined} {verb} unexpected)"
            errors.append((path, message))

    return check


def _items(item_schema, schema):
    sub = _compile(item_schema)

    def check(v, path, errors):
        if isinstance(v, list):
            for i, item in enumerate(v):
                sub(item, path + (i,), errors)

    return check


def _min_items(least, schema):
    text = "should be non-empty" if least == 1 else "is too short"

    def check(v, path, errors):
        if isinstance(v, list) and len(v) < least:
            errors.append((path, f"{v!r} {text}"))

    return check


def _one_of(branches, schema):
    subs = [_compile(branch) for branch in branches]

    def check(v, path, errors):
        valid = [branch for branch, sub in zip(branches, subs) if not _errors(sub, v)]
        if not valid:
            errors.append((path, f"{v!r} is not valid under any of the given schemas"))
        elif len(valid) > 1:
            reprs = ", ".join(repr(branch) for branch in valid[1:] + valid[:1])
            errors.append((path, f"{v!r} is valid under each of {reprs}"))

    return check


_KEYWORDS = {
    "type": _type,
    "const": _const,
    "enum": _enum,
    "minimum": _bound(operator.lt, "less than the minimum of"),
    "maximum": _bound(operator.gt, "greater than the maximum of"),
    "exclusiveMinimum": _bound(operator.le, "less than or equal to the minimum of"),
    "properties": _properties,
    "required": _required,
    "additionalProperties": _additional_properties,
    "items": _items,
    "minItems": _min_items,
    "oneOf": _one_of,
}


def _compile(schema):
    """One checker running each keyword's check in the schema's key order."""
    unknown = [key for key in schema if key not in _KEYWORDS]
    if unknown:
        raise ValueError(f"schema keywords {unknown} have no compiled checker")
    parts = [_KEYWORDS[key](value, schema) for key, value in schema.items()]
    if len(parts) == 1:
        return parts[0]

    def check(v, path, errors):
        for part in parts:
            part(v, path, errors)

    return check


def _errors(check, payload) -> list:
    errors = []
    check(payload, (), errors)
    return errors


_CONFIG_CHECKS = {name: _compile(schema) for name, schema in CONFIG_SCHEMAS.items()}
_ARTIFACT_CHECKS = {name: _compile(schema) for name, schema in ARTIFACT_SCHEMAS.items()}


def validate_config(command: str, payload) -> None:
    """Check a parsed config against the command's schema.

    Raises ConfigError with the offending JSON path in the message.
    """
    if command not in CONFIG_SCHEMAS:
        raise ConfigError(f"unknown command '{command}'")
    _validate(payload, _CONFIG_CHECKS[command], "config")


def validate_artifact(name: str, payload) -> None:
    """Re-validate an emitted JSON artifact before writing it."""
    _validate(payload, _ARTIFACT_CHECKS[name], name)


def _validate(payload, check, what: str) -> None:
    errors = _errors(check, payload)
    if errors:
        path, message = min(errors, key=lambda e: e[0])
        where = "/".join(str(p) for p in path) or "(root)"
        raise ConfigError(f"invalid {what} at {where}: {message}")
