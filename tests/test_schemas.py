"""Compiled schema checkers against jsonschema's Draft 2020-12 validator.

jsonschema is the oracle: on every document below, the compiled checker
must accept exactly what it accepts and report the same first error (the
one with the smallest JSON path) with the same message.
"""

import copy
import json
import math
import os
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
    return f"invalid {what} at {path}: {errors[0].message}"


def compiled(validate, name, doc):
    try:
        validate(name, doc)
    except ConfigError as exc:
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
    """A valid document with every optional property present."""
    if "oneOf" in schema:
        return full(schema["oneOf"][branch], branch)
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
    """(name, document) of every artifact the CLI validates, as it was in memory."""
    seen = []

    def record(name, doc):
        seen.append((name, copy.deepcopy(doc)))
        validate_artifact(name, doc)

    tmp = tmp_path_factory.mktemp("artifacts")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "validate_artifact", record)
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


def valid(schema):
    """Strategy for documents the schema accepts."""
    if "oneOf" in schema:
        return st.one_of(*(valid(s) for s in schema["oneOf"]))
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
    ({"oneOf": [{"type": "number"}, {"minimum": 0}]}, [1, -1.5, "x", None]),
    ({"type": ["number", "null"], "maximum": 1}, [None, 2, True, np.float64(1.5), math.nan]),
    ({"type": "integer", "minimum": 3}, [3.0, 2.0, 3.5, True, np.int64(4), np.float64(3.0)]),
    ({"enum": ["on", None]}, [None, "on", "off", 0, False, ["on"]]),
    ({"type": "array", "minItems": 2, "items": {"const": "a"}}, [[], ["a"], ["a", "b", 1], "a"]),
    ({"properties": {"b": {"type": "string"}}, "additionalProperties": False,
      "required": ["a"]}, [{}, {"b": 1}, {"c": 1, 2: 0, "a": 0}, []]),
]


@pytest.mark.parametrize("schema, docs", KEYWORD_CASES)
def test_each_keyword_agrees_outside_the_package_schemas(schema, docs):
    check = schemas._compile(schema)
    for doc in docs:
        try:
            schemas._validate(doc, check, "doc")
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
