"""scipy is loaded by the first fit that searches, not by importing paramix.

Only the fit's least-squares search calls scipy (`analysis.optimize`), and a
fit searches only for a pair that the exact inverse of its projection onto
the model's image does not reproduce, which only a pair on or within a few
ulps of the image's unattained pass-power edge (P = 1 with I < 1) allows.
`scipy.optimize` costs about 0.5 s and 48 MB to import, so every other
command, a fit of a pair on the image and a fit of a pair off it, with
I > P, runs without it.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

from test_cli import FUZZ_CONFIGS

import paramix
from paramix import cli
from paramix.schemas import SCHEMA_TAG

PACKAGE = Path(paramix.__file__).resolve().parent
NON_FIT = ["jis-sweep", "jpc-sweep", "jis-4port", "parity", "flux-curve", "bandwidth-scan", "readout"]
CONFIGS = {**FUZZ_CONFIGS, "parity": {"chains": [[{"parity": "odd"}], [{"parity": "even"}, {"parity": "odd"}]]}}

# argv lists as JSON: the non-fit runs, the fits that must not search, then
# a fit on the pass-power edge
SCRIPT = """
import json, sys
import paramix, paramix.cli
seen = {"import": "scipy" in sys.modules}
runs, unsearched, pass_edge = json.loads(sys.argv[1])
rcs = [paramix.cli.main(argv) for argv in runs]
seen["commands"] = "scipy" in sys.modules


class NoSearch:
    def __getattr__(self, name):
        raise AssertionError("a fit off the pass-power edge read analysis.optimize." + name)


lazy, paramix.analysis.optimize = paramix.analysis.optimize, NoSearch()
rcs += [paramix.cli.main(argv) for argv in unsearched]
paramix.analysis.optimize = lazy
seen["unsearched_fits"] = "scipy" in sys.modules
rcs.append(paramix.cli.main(pass_edge))
seen["pass_edge_fit"] = "scipy" in sys.modules
import scipy.optimize
seen["bound"] = paramix.analysis.optimize.least_squares is scipy.optimize.least_squares
# cached where a tracer that patches vars() of analysis.optimize finds it
seen["cached"] = vars(paramix.analysis.optimize).get("least_squares") is scipy.optimize.least_squares
print(json.dumps({"rcs": rcs, **seen}))
"""
# (0.36, 0.01) is on the image for P1, whose pass direction is s21; for P2
# (FUZZ_CONFIGS) the isolated power exceeds the pass power, and the pair is
# written as its projection (0.185, 0.185), which the inverse reproduces. On
# P2, (0.5, 1.0) puts the pass power at 1 over an isolated 1/2, the edge the
# image approaches but never attains, and that pair still searches
ON_IMAGE_FIT = {"s21_sq": 0.36, "s12_sq": 0.01, "pump_port": "P1"}
PASS_EDGE_FIT = {"s21_sq": 0.5, "s12_sq": 1.0, "pump_port": "P2"}


def test_only_the_fit_loads_scipy(tmp_path):
    assert sorted(NON_FIT) == sorted(c for c in cli._COMMANDS if c not in ("fit", "selftest"))
    assert FUZZ_CONFIGS["fit"] == {**ON_IMAGE_FIT, "pump_port": "P2"}
    fits = [ON_IMAGE_FIT, CONFIGS["fit"], PASS_EDGE_FIT]
    argvs = []
    for command, payload in [(c, CONFIGS[c]) for c in NON_FIT] + [("fit", fit) for fit in fits]:
        cfg = tmp_path / f"{command}-{len(argvs)}.json"
        cfg.write_text(json.dumps({"schema": SCHEMA_TAG, **payload}))
        for fmt in cli._COMMANDS[command][1]:
            out = tmp_path / f"{command}-{len(argvs)}" / fmt
            argvs.append([command, "--config", str(cfg), "--out", str(out), "--format", fmt])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))}
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT, json.dumps([argvs[:-3], argvs[-3:-1], argvs[-1]])], env=env, cwd=tmp_path,
        capture_output=True, text=True, timeout=300, check=True,
    )
    seen = json.loads(done.stdout.splitlines()[-1])
    assert seen == {
        "rcs": [0] * len(argvs), "import": False, "commands": False, "unsearched_fits": False, "pass_edge_fit": True,
        "bound": True, "cached": True,
    }


def scipy_imports(source):
    """Line numbers of the scipy imports in source that run when the module is imported.

    That is every import statement outside a def (a class body runs at import).
    """
    todo = list(ast.parse(source).body)
    lines = []
    while todo:
        node = todo.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""] if node.level == 0 else []
        else:
            names = []
        if any(n == "scipy" or n.startswith("scipy.") for n in names):
            lines.append(node.lineno)
        todo.extend(ast.iter_child_nodes(node))
    return sorted(lines)


def test_the_lint_finds_module_level_imports_only():
    assert scipy_imports("import scipy\nfrom scipy import optimize\nimport scipy.optimize as so\n") == [1, 2, 3]
    assert scipy_imports("class A:\n    from scipy.optimize import brentq\n") == [2]
    assert scipy_imports("if True:\n    import scipy\n") == [2]
    assert scipy_imports("def f():\n    from scipy import optimize\nimport scipyx\nfrom . import scipy\n") == []


def test_no_module_imports_scipy_at_module_level():
    found = {p.name: scipy_imports(p.read_text()) for p in sorted(PACKAGE.rglob("*.py"))}
    assert len(found) > 5
    assert {name: lines for name, lines in found.items() if lines} == {}
