"""JSON schemas for CLI configs and emitted JSON artifacts.

Every config file carries "schema": "paramix/1" and is validated before any
computation; unknown keys are rejected so unit mistakes (MHz vs GHz fields)
fail loudly. Emitted JSON artifacts carry the same version tag and have
schemas of their own so a written file can be re-validated round-trip.

Each schema is compiled once, at import, into a plain-Python checker that
follows JSON Schema Draft 2020-12 for exactly the keywords these schemas
use: type, const, enum, minimum, maximum, exclusiveMinimum, properties,
required, additionalProperties (false only), items, minItems, maxItems
and if/then/else. Any other keyword, or an enum/const literal other than a
string or null, raises at import, so a later schema edit cannot go
silently unchecked. As in Draft 2020-12, a bool is not a number, "number"
is any numbers.Number (so np.float64 counts), "integer" also accepts an
integral float, and a bound fails only on v < minimum, v > maximum or
v <= exclusiveMinimum, so NaN passes every bound (the CLI refuses
non-finite numbers while it parses a config). Every document is checked
in full on every call; of all violations, the one with the smallest JSON
path is reported, with the message jsonschema gives (the test suite uses
jsonschema as the oracle).
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
_BOOL = {"type": "boolean"}
_STR = {"type": "string"}
_PUMP = {"enum": ["P1", "P2"]}
_PARITY = {"enum": ["even", "odd"]}
_MAX_POINTS = 2_000_001


def _closed(properties, required=()):
    """An object with exactly these properties, of which `required` must be present."""
    schema = {"type": "object", "properties": properties}
    if required:
        schema["required"] = list(required)
    schema["additionalProperties"] = False
    return schema


def _tagged(properties, required=None):
    """A top-level document: the schema tag, then `properties`.

    `required` names the keys besides the tag that must be present; all of
    them by default.
    """
    properties = {"schema": _TAG, **properties}
    return _closed(properties, properties if required is None else ["schema", *required])


def _record(properties):
    """An artifact row: a closed object whose every key is required."""
    return _closed(properties, properties)


# the two modes, shared by a single stage (jpc) and the full device, and the
# bias, shared by the full device and the preset with its overrides
_MODES = {"f_a_ghz": _POS, "f_b_ghz": _POS, "gamma_a_mhz": _POS, "gamma_b_mhz": _POS}
_BIAS = {
    "rho": _UNIT,
    "alpha_mag": _UNIT,
    "pump_port": _PUMP,
    "phi_ext1_rad": _NUM,
    "phi_ext2_rad": _NUM,
}
_DEVICE_REQUIRED = [*_MODES, "rho"]

_JPC = _closed({**_MODES, "rho": _UNIT}, _DEVICE_REQUIRED)
_JIS_FULL = _closed(
    {
        **_MODES,
        **_BIAS,
        "delay_length_um": _NONNEG,
        "delay_eps_eff": {"type": "number", "minimum": 1},
    },
    _DEVICE_REQUIRED,
)
_JIS_PRESET = _closed({"preset": {"const": "reference"}, **_BIAS}, ["preset"])
# a "preset" key selects the preset form, as cli._build_jis does
_JIS = {"if": {"required": ["preset"]}, "then": _JIS_PRESET, "else": _JIS_FULL}

_GRID = _closed(
    {
        "span_mhz": _POS,
        "points": {"type": "integer", "minimum": 3, "maximum": _MAX_POINTS},
    }
)
_PHI_GRID = _closed(
    {
        "phi_start_rad": _NUM,
        "phi_stop_rad": _NUM,
        "points": {"type": "integer", "minimum": 2, "maximum": _MAX_POINTS},
    }
)
_GYRATOR = _closed({"parity": _PARITY, "pump_port": _PUMP}, ["parity"])
_ON_OFF = {"enum": ["on", "off"]}
_RECORD = _closed(
    {
        "label": _STR,
        "t1_us": _POS,
        "t2e_us": _POS,
        "kappa_mhz": _POS,
        "chi_mhz": _POS,
        "jis": _ON_OFF,
        "jda": _ON_OFF,
    },
    ["label", "t1_us", "t2e_us", "kappa_mhz", "chi_mhz"],
)
_JRM = _closed(
    {
        "i0_ua": _POS,
        "f_max_ghz": _POS,
        "z_res_ohm": _POS,
        "lj0_over_l": _POS,
        "lj0_over_ls": _POS,
    }
)

CONFIG_SCHEMAS = {
    "jpc-sweep": _tagged({"jpc": _JPC, "grid": _GRID}, ["jpc"]),
    "jis-sweep": _tagged({"jis": _JIS, "grid": _GRID}, ["jis"]),
    "jis-4port": _tagged({"jis": _JIS}, ["jis"]),
    "fit": _tagged({"s21_sq": _UNIT, "s12_sq": _UNIT, "pump_port": _PUMP}, ["s21_sq", "s12_sq"]),
    "parity": _tagged(
        {
            "chains": {
                "type": "array",
                "minItems": 1,
                # one chain of L cells is one dense system of 4L + 10 ports
                "items": {"type": "array", "minItems": 1, "maxItems": 256, "items": _GYRATOR},
            }
        },
        ["chains"],
    ),
    "readout": _tagged(
        {"records": {"type": "array", "minItems": 1, "items": _RECORD}}, ["records"]
    ),
    "flux-curve": _tagged({"jrm": _JRM, "grid": _PHI_GRID}, []),
    "bandwidth-scan": _tagged(
        {
            "jis": _JIS,
            "rho_values": {"type": "array", "minItems": 1, "items": _UNIT},
            "grid": _GRID,
        },
        ["jis", "rho_values"],
    ),
    "selftest": _tagged({}),
}

_ON_OFF_OR_NULL = {"enum": ["on", "off", None]}
_NUM_ROWS = {"type": "array", "items": {"type": "array", "items": _NUM}}
_PARITY_ROW = _record(
    {
        "parities": {"type": "array", "items": _PARITY},
        "pump_ports": {"type": "array", "items": _PUMP},
        "t_mag": _NONNEG,
        "xor": _PARITY,
        "match": _BOOL,
    }
)
_READOUT_ROW = _record(
    {
        "label": _STR,
        "t_phi_us": _POS,
        "gamma_phi_per_us": _NONNEG,
        "nbar": _NONNEG,
        "nbar_ba": _NUM,
        "jis": _ON_OFF_OR_NULL,
        "jda": _ON_OFF_OR_NULL,
    }
)
_JPC_ROW = _record({"f_ghz": _NUM, "t_sq": _NONNEG, "ra_sq": _NONNEG, "arg_t_rad": _NUM})

ARTIFACT_SCHEMAS = {
    "jis_sweep_sidecar": _tagged(
        {
            "direction": {"enum": ["s21", "s12"]},
            "dip_f_ghz": _NUM_OR_NULL,
            "gamma_mhz": _NUM_OR_NULL,
            "floor": _NUM_OR_NULL,
            "note": _STR,
        },
        ["direction", "dip_f_ghz", "gamma_mhz", "floor"],
    ),
    "fit_result": _tagged(
        {"rho": _UNIT, "alpha_mag": _UNIT, "residual": _NONNEG, "alpha_identifiable": _BOOL}
    ),
    "parity_report": _tagged(
        {
            "calibration_phase_rad": _NUM,
            "all_match": _BOOL,
            "rows": {"type": "array", "items": _PARITY_ROW},
        }
    ),
    "readout_report": _tagged(
        {
            "nbar_th": _NONNEG,
            "isolation_db": _NUM_OR_NULL,
            "rows": {"type": "array", "items": _READOUT_ROW},
        }
    ),
    "four_port": _tagged(
        {
            "freq_ghz": _NUM,
            "ports": {"type": "array", "items": _STR},
            "s_real": _NUM_ROWS,
            "s_imag": _NUM_ROWS,
        }
    ),
    "jpc_sweep_rows": _tagged({"rows": {"type": "array", "items": _JPC_ROW}}),
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


# each bound keyword: the test a value fails it by, and the message's words
_BOUNDS = {
    "minimum": (operator.lt, "less than the minimum of"),
    "maximum": (operator.gt, "greater than the maximum of"),
    "exclusiveMinimum": (operator.le, "less than or equal to the minimum of"),
}


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


def _max_items(most, schema):
    def check(v, path, errors):
        if isinstance(v, list) and len(v) > most:
            errors.append((path, f"{v!r} is too long"))

    return check


def _if(condition, schema):
    test = _compile(condition)
    then, otherwise = (_compile(schema[key]) if key in schema else None for key in ("then", "else"))

    def check(v, path, errors):
        branch = otherwise if _errors(test, v) else then
        if branch is not None:
            branch(v, path, errors)

    return check


def _in_if(branch, schema):
    # "then" and "else" are applied by "if" and are ignored without it
    return None


_KEYWORDS = {
    "type": _type,
    "const": _const,
    "enum": _enum,
    **{key: _bound(*bound) for key, bound in _BOUNDS.items()},
    "properties": _properties,
    "required": _required,
    "additionalProperties": _additional_properties,
    "items": _items,
    "minItems": _min_items,
    "maxItems": _max_items,
    "if": _if,
    "then": _in_if,
    "else": _in_if,
}


def _compile(schema):
    """One checker running each keyword's check in the schema's key order."""
    unknown = [key for key in schema if key not in _KEYWORDS]
    if unknown:
        raise ValueError(f"schema keywords {unknown} have no compiled checker")
    parts = [_KEYWORDS[key](value, schema) for key, value in schema.items()]
    parts = [part for part in parts if part is not None]
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


def _column_check(schema):
    """The row checker and, per row key, the (fails, limit) bounds of its column.

    Only a closed row of numbers compiles: the rows array may use type and
    items; the row type, properties, required and additionalProperties, which
    depend on the key set alone (the same in every row); and each property
    type "number" (every value of a numeric column is one) and the bounds.
    """
    rows = schema["properties"]["rows"]
    row = rows["items"]
    row_keywords = {"type", "properties", "required", "additionalProperties"}
    if set(rows) - {"type", "items"} or set(row) - row_keywords:
        raise ValueError("only a closed row of numbers has a column check")
    bounds = {}
    for key, prop in row["properties"].items():
        if prop.get("type") != "number" or set(prop) - {"type", *_BOUNDS}:
            raise ValueError(f"no column check for row property {key!r}")
        bounds[key] = [(_BOUNDS[word][0], limit) for word, limit in prop.items() if word in _BOUNDS]
    return _compile(row), bounds


_CONFIG_CHECKS = {name: _compile(schema) for name, schema in CONFIG_SCHEMAS.items()}
_ARTIFACT_CHECKS = {name: _compile(schema) for name, schema in ARTIFACT_SCHEMAS.items()}
# the artifacts written from columns (formats.write_json_rows)
_COLUMN_CHECKS = {name: _column_check(ARTIFACT_SCHEMAS[name]) for name in ("jpc_sweep_rows",)}


def validate_config(command: str, payload) -> None:
    """Check a parsed config against the command's schema.

    Raises ConfigError with the offending JSON path in the message.
    """
    if command not in CONFIG_SCHEMAS:
        raise ConfigError(f"unknown command '{command}'")
    _validate(payload, _CONFIG_CHECKS[command], "config", ConfigError)


def validate_artifact(name: str, payload) -> None:
    """Re-validate an emitted JSON artifact before writing it.

    The program builds every artifact itself, so a violation is a bug in it
    and raises ValueError, not ConfigError.
    """
    _validate(payload, _ARTIFACT_CHECKS[name], name, ValueError)


def validate_artifact_rows(name: str, envelope, names, columns) -> None:
    """validate_artifact(name, {**envelope, "rows": rows}) without building the rows.

    Row k is {names[i]: columns[i][k]}, each column a 1-D numeric np.ndarray.
    The bounds of each row property run on whole columns to find the first
    row that breaks one; that row and row 0 (whose key set every row shares)
    are then checked as dicts of Python numbers, so a violation is reported
    at the path and with the message validate_artifact gives that document.
    """
    row_check, bounds = _COLUMN_CHECKS[name]
    if (
        len(columns) != len(names)
        or len(set(names)) != len(names)
        or any(c.ndim != 1 or c.dtype.kind not in "fiu" for c in columns)
        or len({len(c) for c in columns}) > 1
    ):
        raise ValueError("need one 1-D numeric column per distinct row key, all of one length")
    errors = _errors(_ARTIFACT_CHECKS[name], {**envelope, "rows": []})
    suspects = {0} if columns and len(columns[0]) else set()
    for key, column in zip(names, columns):
        for fails, limit in bounds.get(key, ()):
            hits = fails(column, limit)
            if hits.any():
                suspects.add(int(hits.argmax()))
    for k in sorted(suspects)[:2]:
        row_check({key: c[k].item() for key, c in zip(names, columns)}, ("rows", k), errors)
    _raise_first(errors, name, ValueError)


def _validate(payload, check, what: str, error: type[Exception]) -> None:
    _raise_first(_errors(check, payload), what, error)


def _raise_first(errors, what: str, error: type[Exception]) -> None:
    """Raise error for the violation with the smallest JSON path, if any."""
    if errors:
        path, message = min(errors, key=lambda e: e[0])
        where = "/".join(str(p) for p in path) or "(root)"
        raise error(f"invalid {what} at {where}: {message}")
