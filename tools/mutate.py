"""Operator mutation survey of src/paramix modules against tier-1.

Each mutant swaps one operator in one module: < and <=, > and >=, + and -,
* and /. The swap is made in the source text, so the rest of the file keeps
its bytes. A mutant is killed when the tier-1 suite fails on it (or times
out); it survives when every test still passes.

Run from the repository root:

    python tools/mutate.py                   # the four model modules
    python tools/mutate.py parity analysis   # any modules of src/paramix
    python tools/mutate.py --jobs 2          # two mutants at a time (at most 2)

The suite runs with -x, the test files that import the mutated module
first, in a copy of the repository per job under a temporary directory,
once unmutated first: if that fails, nothing is counted.
Prints one line per surviving mutant and the fraction killed per module.
"""

from __future__ import annotations

import argparse
import ast
import os
import queue
import re
import shutil
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "paramix"
MODULES = ("mixer", "network", "isolator", "parity")
SWAPS = {
    ast.Lt: ("<", "<="),
    ast.LtE: ("<=", "<"),
    ast.Gt: (">", ">="),
    ast.GtE: (">=", ">"),
    ast.Add: ("+", "-"),
    ast.Sub: ("-", "+"),
    ast.Mult: ("*", "/"),
    ast.Div: ("/", "*"),
}
TIMEOUT_S = 600


def _gaps(node):
    """(op, left, right) for each swappable operator of node: the nodes around its token."""
    if isinstance(node, ast.BinOp):
        yield node.op, node.left, node.right
    elif isinstance(node, ast.AugAssign):
        yield node.op, node.target, node.value
    elif isinstance(node, ast.Compare):
        operands = [node.left, *node.comparators]
        for op, left, right in zip(node.ops, operands, operands[1:]):
            yield op, left, right


def sites(source: bytes):
    """(offset, old, new, line) of every operator token to swap, in file order.

    ast offsets are UTF-8 byte columns, so the search runs on bytes.
    """
    starts = [0]
    for line in source.splitlines(keepends=True):
        starts.append(starts[-1] + len(line))
    found = []
    for node in ast.walk(ast.parse(source)):
        for op, left, right in _gaps(node):
            if type(op) not in SWAPS:
                continue
            old, new = SWAPS[type(op)]
            lo = starts[left.end_lineno - 1] + left.end_col_offset
            hi = starts[right.lineno - 1] + right.col_offset
            gap = source[lo:hi].decode()
            token = old + "=" if isinstance(node, ast.AugAssign) else old
            # the gap holds the token and only brackets, spaces and line breaks
            hits = [m.start() for m in re.finditer(re.escape(token) + r"(?![=<>*/])", gap)]
            if len(hits) != 1 or gap.replace(token, "", 1).strip("()\\ \n") != "":
                raise ValueError(f"cannot place {token!r} in {gap!r} at line {left.end_lineno}")
            repl = new + "=" if isinstance(node, ast.AugAssign) else new
            found.append((lo + hits[0], token, repl, left.end_lineno))
    return sorted(found)


def suite_order(module: str) -> list[str]:
    """Every tier-1 test file, those that import the module first."""
    names = sorted(p.name for p in (ROOT / "tests").glob("test_*.py"))
    pattern = re.compile(rf"paramix\.{module}\b|from paramix import [^\n]*\b{module}\b")
    direct = [n for n in names if pattern.search((ROOT / "tests" / n).read_text())]
    return [f"tests/{n}" for n in direct + [n for n in names if n not in direct]]


def suite_fails(work: Path, module: str) -> bool:
    """True when the tier-1 suite in the copy work fails or times out."""
    env = dict(os.environ, PYTHONPATH=str(work / "src"), OPENBLAS_NUM_THREADS="1")
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *suite_order(module)]
    try:
        return subprocess.run(cmd, cwd=work, env=env, capture_output=True, timeout=TIMEOUT_S).returncode != 0
    except subprocess.TimeoutExpired:
        return True


def run_mutant(copies: queue.Queue, module: str, source: bytes, site) -> bool:
    """True when the suite fails on the mutant (it is killed)."""
    offset, old, new, _ = site
    work = copies.get()
    target = work / "src" / "paramix" / f"{module}.py"
    try:
        target.write_bytes(source[:offset] + new.encode() + source[offset + len(old) :])
        return suite_fails(work, module)
    finally:
        target.write_bytes(source)
        copies.put(work)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("modules", nargs="*", help=f"modules of src/paramix (default: {', '.join(MODULES)})")
    parser.add_argument("--jobs", type=int, default=1, choices=(1, 2))
    args = parser.parse_args(argv)
    unknown = sorted(m for m in args.modules if not (m.isidentifier() and (PACKAGE / f"{m}.py").is_file()))
    if unknown:
        parser.error(f"no module {', '.join(unknown)} in src/paramix")

    with tempfile.TemporaryDirectory(prefix="paramix-mutants-") as tmp:
        copies: queue.Queue = queue.Queue()
        skip = shutil.ignore_patterns(".git", ".perfbench", ".hypothesis", "__pycache__", ".pytest_cache")
        for k in range(args.jobs):
            work = Path(tmp) / f"copy{k}"
            shutil.copytree(ROOT, work, ignore=skip)
            copies.put(work)
        if suite_fails(work, MODULES[0]):
            print("the suite fails with no mutant; fix that first", file=sys.stderr)
            return 1
        total = killed = 0
        for module in args.modules or MODULES:
            # from the copy, so that edits to the repository during a run change nothing
            source = (Path(tmp) / "copy0" / "src" / "paramix" / f"{module}.py").read_bytes()
            found = sites(source)
            with ThreadPoolExecutor(max_workers=args.jobs) as pool:
                results = list(pool.map(lambda s: run_mutant(copies, module, source, s), found))
            for (_, old, new, line), dead in zip(found, results):
                if not dead:
                    print(f"survived  {module}.py:{line}  {old} -> {new}", flush=True)
            print(f"{module}: {sum(results)} of {len(found)} killed", flush=True)
            total += len(found)
            killed += sum(results)
        print(f"all: {killed} of {total} killed ({killed / max(total, 1):.1%})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
