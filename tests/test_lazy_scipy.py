"""scipy is loaded by the first fit, not by importing paramix.

Only the fit calls scipy (`analysis.optimize`), and `scipy.optimize` costs
about 0.5 s and 48 MB to import, so every other command runs without it.
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

# argv lists as JSON: the non-fit runs, then the fit
SCRIPT = """
import json, sys
import paramix, paramix.cli
seen = {"import": "scipy" in sys.modules}
runs, fit = json.loads(sys.argv[1])
rcs = [paramix.cli.main(argv) for argv in runs]
seen["commands"] = "scipy" in sys.modules
rcs.append(paramix.cli.main(fit))
seen["fit"] = "scipy" in sys.modules
import scipy.optimize
seen["bound"] = paramix.analysis.optimize.least_squares is scipy.optimize.least_squares
# cached where a tracer that patches vars() of analysis.optimize finds it
seen["cached"] = vars(paramix.analysis.optimize).get("least_squares") is scipy.optimize.least_squares
print(json.dumps({"rcs": rcs, **seen}))
"""


def test_only_the_fit_loads_scipy(tmp_path):
    assert sorted(NON_FIT) == sorted(c for c in cli._COMMANDS if c not in ("fit", "selftest"))
    argvs = []
    for command in NON_FIT + ["fit"]:
        cfg = tmp_path / f"{command}.json"
        cfg.write_text(json.dumps({"schema": SCHEMA_TAG, **CONFIGS[command]}))
        for fmt in cli._COMMANDS[command][1]:
            argvs.append([command, "--config", str(cfg), "--out", str(tmp_path / command / fmt), "--format", fmt])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))}
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT, json.dumps([argvs[:-1], argvs[-1]])], env=env, cwd=tmp_path,
        capture_output=True, text=True, timeout=300, check=True,
    )
    seen = json.loads(done.stdout.splitlines()[-1])
    assert seen == {"rcs": [0] * len(argvs), "import": False, "commands": False, "fit": True, "bound": True, "cached": True}


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
