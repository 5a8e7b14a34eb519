"""The names the benchmark reads from the package all resolve.

`perfbench/checks.py` reads its references as `pm.<name>` from the package
root, and `perfbench/tests/test_perfbench.py::_bindings` reads
`paramix.<dotted.name>` module attributes. A name deleted from the package
fails here, in tier-1, instead of in a benchmark run. The files are only read.
"""

import ast
import pkgutil
import re
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _checks_names():
    text = (PERFBENCH / "checks.py").read_text()
    return sorted(set(re.findall(r"\bpm\.(\w+)", text)))


def _bindings_names():
    tree = ast.parse((PERFBENCH / "tests" / "test_perfbench.py").read_text())
    (fn,) = [n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "_bindings"]
    names = {ast.unparse(n) for n in ast.walk(fn) if isinstance(n, ast.Attribute)}
    # keep the whole chains only: paramix.a.b, not its prefix paramix.a
    names = {n for n in names if n.startswith("paramix.")}
    return sorted(n for n in names if not any(o.startswith(n + ".") for o in names))


def test_the_benchmark_sources_name_something():
    # an empty list would make the two tests below pass vacuously
    assert _checks_names() and _bindings_names()


@pytest.mark.parametrize("name", _checks_names())
def test_every_root_name_the_checker_reads_resolves(name):
    import paramix

    assert hasattr(paramix, name), f"perfbench/checks.py reads pm.{name}"


@pytest.mark.parametrize("dotted", _bindings_names())
def test_every_binding_the_benchmark_tests_read_resolves(dotted):
    pkgutil.resolve_name(dotted)
