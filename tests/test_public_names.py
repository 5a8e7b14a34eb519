"""Every public name of the package is read by the package or by the benchmark.

A wrapper or constant whose last reader is deleted fails here in the same
change, instead of lingering as API no code uses. Readers are src/paramix and
perfbench/, not the tests: a name only a test reads is not part of what the
package does.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "paramix"


def _bound(node):
    """The module-level names a top-level statement binds."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return {node.name}
    if isinstance(node, ast.Assign):
        return {t.id for t in node.targets if isinstance(t, ast.Name)}
    if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
        return {node.target.id}
    return set()


def _reads(tree):
    """The names a module reads, each definition's reads of its own names left out.

    A bare name counts where its module defines or imports it by name; an
    attribute (pm.name, module.name) and a string naming it (the tracer's
    targets, dotted or not) count anywhere.
    """
    visible = {n for stmt in tree.body for n in _bound(stmt)}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            visible |= {a.asname or a.name for a in node.names}
    for stmt in tree.body:
        own = _bound(stmt)
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names = {node.id} & visible
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                names = {node.attr}
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                names = set(node.value.split("."))
            else:
                continue
            yield from names - own


def _parsed(folder, pattern):
    return {path: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(folder.glob(pattern))}


def test_every_public_name_has_a_reader():
    package = _parsed(PACKAGE, "*.py")
    readers = {**package, **_parsed(ROOT / "perfbench", "**/*.py")}
    read = {name for tree in readers.values() for name in _reads(tree)}
    public = [
        f"{path.stem}.{name}"
        for path, tree in package.items()
        for stmt in tree.body
        for name in sorted(_bound(stmt))
        if not name.startswith("_")
    ]
    unread = [dotted for dotted in public if dotted.split(".")[1] not in read]
    assert len(public) > 100
    assert not unread, f"public names that no module of src/paramix or perfbench/ reads: {unread}"
