"""Compiled schema checkers against jsonschema's Draft 2020-12 validator.

jsonschema is the oracle: on every document below, the compiled checker
must accept exactly what it accepts and report the same first error (the
one with the smallest JSON path) with the same message.
"""

import copy
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_cli import JIS_PLAIN, JIS_PRESET, RECORDS

import paramix
from paramix import cli, schemas
from paramix.errors import ConfigError
from paramix.schemas import (
    ARTIFACT_SCHEMAS,
    CONFIG_SCHEMAS,
    SCHEMA_TAG,
    validate_artifact,
    validate_artifact_rows,
    validate_config,
)

# Replacement values: each wrong type, NaN and the infinities, an integral
# and a fractional float for "points", and every bound these schemas use
# (0, 1, 2, 3) hit exactly and missed by one ulp or one unit.
PALETTE = [
    True, False, None, "x", [], {}, math.nan, math.inf, -math.inf,
    0, 0.0, -0.0, 5e-324, -5e-324, 1, 1.0, 0.9999999999999999, 1.0000000000000002,
    2, 2.0, 2.5, 3, 3.0, -1, np.float64(0.5), np.int64(3),
]


def oracle(schema, what, doc):
    errors = sorted(
        jsonschema.Draft202012Validator(schema).iter_errors(doc),
        key=lambda e: list(e.absolute_path),
    )
    if not errors:
        return None
    path = "/".join(str(p) for p in errors[0].absolute_path) or "(root)"
    message = errors[0].message
    if errors[0].validator in ("minItems", "maxItems"):
        # the package quotes an array cut to 20 characters, as cli quotes a literal
        quoted = repr(errors[0].instance)
        message = message.replace(quoted, quoted if len(quoted) <= 24 else quoted[:20] + "...", 1)
    return f"invalid {what} at {path}: {message}"


# a config violation is the user's (exit 2); an artifact violation is a bug
ERROR_CLASS = {validate_config: ConfigError, validate_artifact: ValueError}


def compiled(validate, name, doc):
    try:
        validate(name, doc)
    except ERROR_CLASS[validate] as exc:
        return str(exc)
    return None


def assert_agrees(kind, name, doc):
    if kind == "config":
        want = oracle(CONFIG_SCHEMAS[name], "config", doc)
        got = compiled(validate_config, name, doc)
    else:
        want = oracle(ARTIFACT_SCHEMAS[name], name, doc)
        got = compiled(validate_artifact, name, doc)
    assert got == want, (kind, name, doc)


def full(schema, branch=0):
    """A valid document with every optional property present.

    branch 0 takes the "then" side of an if/then/else, branch 1 the "else" side.
    """
    if "if" in schema:
        return full(schema[("then", "else")[branch]], branch)
    if "const" in schema:
        return schema["const"]
    if "enum" in schema:
        return schema["enum"][-1]
    kind = schema["type"] if isinstance(schema["type"], str) else schema["type"][0]
    if kind == "object":
        return {k: full(s, branch) for k, s in schema.get("properties", {}).items()}
    if kind == "array":
        return [full(schema["items"], branch)] * 2
    if kind == "integer":
        return schema.get("minimum", 0) + 2
    if kind == "number":
        return 0.5 if "maximum" in schema else schema.get("minimum", 0) + 1.5
    return {"string": "s", "boolean": True}[kind]


def paths(doc, path=()):
    yield path
    if isinstance(doc, dict):
        children = doc.items()
    elif isinstance(doc, list):
        children = enumerate(doc)
    else:
        children = ()
    for key, value in children:
        yield from paths(value, path + (key,))


def get(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def replaced(doc, path, value):
    """doc with the node at path replaced, copying only along the path."""
    if not path:
        return value
    new = copy.copy(doc)
    new[path[0]] = replaced(doc[path[0]], path[1:], value)
    return new


def edits(node):
    """Every single edit of one node: each palette value, each key dropped, a key added."""
    yield from PALETTE
    if isinstance(node, dict):
        for key in node:
            yield {k: v for k, v in node.items() if k != key}
        yield {**node, "unknown_key": 1}


def mutants(doc):
    for path in paths(doc):
        for value in edits(get(doc, path)):
            yield replaced(doc, path, value)


CONFIG_DOCS = [
    (name, doc)
    for name, schema in CONFIG_SCHEMAS.items()
    for doc in {json.dumps(full(schema, b), sort_keys=True): full(schema, b) for b in (0, 1)}.values()
]
JIS_BOTH_OR_NEITHER = [{**JIS_PRESET, **JIS_PLAIN}, {}, {"rho": 0.5}]


@pytest.mark.parametrize("name, doc", CONFIG_DOCS, ids=[n for n, _ in CONFIG_DOCS])
def test_every_single_edit_of_a_full_config_agrees(name, doc):
    assert compiled(validate_config, name, doc) is None
    for mutant in mutants(doc):
        assert_agrees("config", name, mutant)


@pytest.mark.parametrize("jis", JIS_BOTH_OR_NEITHER)
@pytest.mark.parametrize("name", ["jis-sweep", "jis-4port", "bandwidth-scan"])
def test_jis_matching_both_or_neither_branch_agrees(name, jis):
    doc = {**full(CONFIG_SCHEMAS[name]), "jis": jis}
    assert compiled(validate_config, name, doc) is not None
    assert_agrees("config", name, doc)


ARTIFACT_RUNS = [
    ("jpc-sweep", "json", {"jpc": JIS_PLAIN, "grid": {"points": 4}}),
    ("jis-sweep", "csv", {"jis": JIS_PRESET, "grid": {"points": 201}}),
    ("jis-sweep", "csv", {"jis": {**JIS_PLAIN, "rho": 0.0}, "grid": {"points": 11}}),
    ("jis-4port", "json", {"jis": JIS_PRESET}),
    ("fit", "json", {"s21_sq": 0.36, "s12_sq": 0.01}),
    ("fit", "json", {"s21_sq": 1.0, "s12_sq": 1.0}),
    ("parity", "json", {"chains": [[{"parity": "odd"}], [{"parity": "even"}, {"parity": "odd"}]]}),
    ("readout", "json", {"records": RECORDS}),
]


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    """(name, document) of every artifact the CLI validates, as it was in memory.

    An artifact checked as columns is recorded as its row document.
    """
    seen = []

    def record(name, doc):
        seen.append((name, copy.deepcopy(doc)))
        validate_artifact(name, doc)

    def record_rows(name, envelope, names, columns):
        seen.append((name, row_document(envelope, names, columns)))
        validate_artifact_rows(name, envelope, names, columns)

    tmp = tmp_path_factory.mktemp("artifacts")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "validate_artifact", record)
        mp.setattr(cli, "validate_artifact_rows", record_rows)
        for k, (command, fmt, payload) in enumerate(ARTIFACT_RUNS):
            cfg = tmp / f"{k}.json"
            cfg.write_text(json.dumps({"schema": SCHEMA_TAG, **payload}))
            cli.main([command, "--config", str(cfg), "--out", str(tmp / str(k)), "--format", fmt])
    assert {name for name, _ in seen} == set(ARTIFACT_SCHEMAS)
    return seen


def test_every_single_edit_of_a_cli_artifact_agrees(artifacts):
    for name, doc in artifacts:
        assert compiled(validate_artifact, name, doc) is None
        for mutant in mutants(doc):
            assert_agrees("artifact", name, mutant)


def row_document(envelope, names, columns):
    """The document validate_artifact_rows checks without building it."""
    rows = [dict(zip(names, row)) for row in zip(*(c.tolist() for c in columns))]
    return {**envelope, "rows": rows}


JPC_KEYS = ["f_ghz", "t_sq", "ra_sq", "arg_t_rad"]
TAG = {"schema": SCHEMA_TAG}


def jpc_columns(rows=40):
    k = np.arange(rows, dtype=float)
    return [6.84 + 1e-3 * k, np.sin(k) ** 2, np.cos(k) ** 2, np.sin(3.0 * k)]


def edited(edits, columns=None):
    """jpc_columns() with columns[i][row] = value for each (row, i, value)."""
    columns = [c.copy() for c in columns or jpc_columns()]
    for row, i, value in edits:
        columns[i][row] = value
    return columns


def assert_columns_agree(envelope, names, columns):
    """The column check reports what validate_artifact and jsonschema report on the rows."""
    try:
        validate_artifact_rows("jpc_sweep_rows", envelope, names, columns)
        got = None
    except ValueError as exc:
        got = str(exc)
    doc = row_document(envelope, names, columns)
    assert got == compiled(validate_artifact, "jpc_sweep_rows", doc), (envelope, names)
    assert got == oracle(ARTIFACT_SCHEMAS["jpc_sweep_rows"], "jpc_sweep_rows", doc)
    return got


COLUMN_CASES = {
    "valid": (TAG, JPC_KEYS, jpc_columns()),
    "negative t_sq at row 17": (TAG, JPC_KEYS, edited([(17, 1, -0.5)])),
    "the first of two bad rows": (TAG, JPC_KEYS, edited([(30, 1, -1.0), (17, 2, -5e-324)])),
    "two bad keys in one row": (TAG, JPC_KEYS, edited([(9, 1, -1.0), (9, 2, -1.0)])),
    "bad row 0": (TAG, JPC_KEYS, edited([(0, 2, -1.0)])),
    "bad last row": (TAG, JPC_KEYS, edited([(39, 1, -np.inf)])),
    "-0.0 and NaN pass minimum": (TAG, JPC_KEYS, edited([(3, 1, -0.0), (4, 2, np.nan)])),
    "missing key": (TAG, JPC_KEYS[:3], jpc_columns()[:3]),
    "extra key": (TAG, [*JPC_KEYS, "x"], [*jpc_columns(), np.zeros(40)]),
    "missing and extra key": (TAG, ["f_ghz", "t", "ra_sq", "arg_t_rad"], jpc_columns()),
    "extra key and a bad row": (TAG, [*JPC_KEYS, "x"], [*edited([(5, 1, -1.0)]), np.zeros(40)]),
    "no rows": (TAG, JPC_KEYS, [c[:0] for c in edited([(0, 1, -1.0)])]),
    "integer column": (TAG, JPC_KEYS, [jpc_columns()[0], np.arange(40) - 20, *jpc_columns()[2:]]),
    "wrong tag after a bad row": ({"schema": "paramix/2"}, JPC_KEYS, edited([(17, 1, -0.5)])),
    "no tag": ({}, JPC_KEYS, edited([(17, 1, -0.5)])),
    "extra envelope key": ({**TAG, "n": 1}, JPC_KEYS, edited([(17, 1, -0.5)])),
}


@pytest.mark.parametrize("case", COLUMN_CASES)
def test_the_column_check_agrees_with_the_row_document(case):
    got = assert_columns_agree(*COLUMN_CASES[case])
    assert (got is None) == (case in ("valid", "-0.0 and NaN pass minimum", "no rows"))


@settings(derandomize=True, max_examples=150, deadline=None)
@given(
    rows=st.integers(0, 30),
    edits=st.lists(
        st.tuples(
            st.integers(0, 29),
            st.integers(0, 3),
            st.sampled_from([-1.0, -0.0, 0.0, 5e-324, -5e-324, 2.0, math.nan, math.inf, -math.inf]),
        ),
        max_size=4,
    ),
    names=st.sampled_from([JPC_KEYS, JPC_KEYS[::-1], JPC_KEYS[1:], [*JPC_KEYS[:3], "t"]]),
)
def test_random_column_edits_agree(rows, edits, names):
    columns = jpc_columns(rows)[: len(names)]
    edits = [(row, i, value) for row, i, value in edits if row < rows and i < len(names)]
    assert_columns_agree(TAG, names, edited(edits, columns))


def test_malformed_columns_and_unchecked_row_rules_are_refused():
    bad_columns = [
        [np.zeros(3), np.zeros(4), np.zeros(3), np.zeros(3)],
        [np.zeros((3, 1))] * 4,
        [np.array(["a", "b"])] * 4,
        jpc_columns()[:3],
    ]
    for columns in bad_columns:
        with pytest.raises(ValueError, match="one 1-D numeric column per distinct row key"):
            validate_artifact_rows("jpc_sweep_rows", TAG, JPC_KEYS, columns)
    row = {"type": "object", "properties": {"x": {"type": "number"}}}
    for rows in (
        {"type": "array", "items": row, "minItems": 1},
        {"type": "array", "items": {**row, "if": {"required": ["x"]}}},
        {"type": "array", "items": {**row, "properties": {"x": {"enum": ["a"]}}}},
        {"type": "array", "items": {**row, "properties": {"x": {"type": "integer"}}}},
    ):
        with pytest.raises(ValueError, match="column check"):
            schemas._column_check({"type": "object", "properties": {"rows": rows}})


def valid(schema):
    """Strategy for documents the schema accepts."""
    if "if" in schema:
        condition = jsonschema.Draft202012Validator(schema["if"]).is_valid
        return st.one_of(
            valid(schema["then"]).filter(condition),
            valid(schema["else"]).filter(lambda doc: not condition(doc)),
        )
    if "const" in schema:
        return st.just(schema["const"])
    if "enum" in schema:
        return st.sampled_from(schema["enum"])
    kinds = [schema["type"]] if isinstance(schema["type"], str) else schema["type"]
    return st.one_of(*(_valid_of_kind(kind, schema) for kind in kinds))


def _valid_of_kind(kind, schema):
    if kind == "object":
        props = schema.get("properties", {})
        required = schema.get("required", [])
        return st.fixed_dictionaries(
            {k: valid(props[k]) for k in required},
            optional={k: valid(s) for k, s in props.items() if k not in required},
        )
    if kind == "array":
        return st.lists(valid(schema["items"]), min_size=schema.get("minItems", 0), max_size=3)
    if kind == "integer":
        return st.integers(min_value=schema.get("minimum"), max_value=10**6)
    if kind == "number":
        low = schema.get("minimum", schema.get("exclusiveMinimum"))
        return st.floats(
            min_value=low,
            max_value=schema.get("maximum"),
            exclude_min="exclusiveMinimum" in schema,
            allow_nan=False,
        )
    return {"string": st.text(max_size=4), "boolean": st.booleans(), "null": st.none()}[kind]


SCHEMAS = [("config", n, s) for n, s in CONFIG_SCHEMAS.items()] + [
    ("artifact", n, s) for n, s in ARTIFACT_SCHEMAS.items()
]


@settings(derandomize=True, max_examples=400, deadline=None)
@given(data=st.data())
def test_random_documents_and_edits_agree(data):
    kind, name, schema = data.draw(st.sampled_from(SCHEMAS))
    doc = data.draw(valid(schema))
    assert_agrees(kind, name, doc)
    for _ in range(data.draw(st.integers(0, 3))):
        path = data.draw(st.sampled_from(list(paths(doc))))
        doc = replaced(doc, path, data.draw(st.sampled_from(list(edits(get(doc, path))))))
        assert_agrees(kind, name, doc)


KEYWORD_CASES = [
    ({"if": {"required": ["a"]}, "then": {"properties": {"a": {"type": "string"}}},
      "else": {"type": "number"}}, [{"a": "x"}, {"a": 1}, {}, 1, "x", None]),
    ({"if": {"type": "number"}, "then": {"minimum": 0}}, [1, -1.5, "x", None]),
    ({"then": {"type": "string"}, "else": {"type": "string"}}, [1, "x"]),
    ({"type": ["number", "null"], "maximum": 1}, [None, 2, True, np.float64(1.5), math.nan]),
    ({"type": "integer", "minimum": 3}, [3.0, 2.0, 3.5, True, np.int64(4), np.float64(3.0)]),
    ({"enum": ["on", None]}, [None, "on", "off", 0, False, ["on"]]),
    ({"type": "array", "minItems": 2, "items": {"const": "a"}}, [[], ["a"], ["a", "b", 1], "a", ["a" * 30]]),
    ({"type": "array", "maxItems": 2, "items": {"const": "a"}},
     [[], ["a", "a"], ["a", "a", "a"], ["a", "b", 1], "a", ["a"] * 9]),
    ({"properties": {"b": {"type": "string"}}, "additionalProperties": False,
      "required": ["a"]}, [{}, {"b": 1}, {"c": 1, 2: 0, "a": 0}, []]),
]


@pytest.mark.parametrize("schema, docs", KEYWORD_CASES)
def test_each_keyword_agrees_outside_the_package_schemas(schema, docs):
    check = schemas._compile(schema)
    for doc in docs:
        try:
            schemas._validate(doc, check, "doc", ConfigError)
            got = None
        except ConfigError as exc:
            got = str(exc)
        assert got == oracle(schema, "doc", doc), doc


@pytest.mark.parametrize(
    "schema",
    [
        {"type": "string", "pattern": "^a"},
        {"properties": {"a": {"format": "date"}}},
        {"additionalProperties": {"type": "number"}},
        {"enum": [1, 2]},
    ],
)
def test_a_keyword_without_a_compiled_check_is_refused(schema):
    with pytest.raises((ValueError, TypeError)):
        schemas._compile(schema)


def test_importing_the_cli_does_not_import_jsonschema():
    src = str(Path(paramix.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-c", "import sys, paramix.cli; print('jsonschema' in sys.modules)"],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
    )
    assert out.stdout.strip() == "False"


# the command each ```json block of the README, in order, is a config for
README_COMMANDS = ["jis-sweep", "jis-4port", "fit", "readout"]


def test_every_readme_config_example_is_valid():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"```json\n(.*?)```", readme, re.DOTALL)
    assert len(blocks) == len(README_COMMANDS)
    for command, block in zip(README_COMMANDS, blocks):
        validate_config(command, json.loads(block))
