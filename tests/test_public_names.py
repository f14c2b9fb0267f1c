"""Every public name in minkit has a user.

A public (non-underscore) top-level function or class of ``src/minkit``, or
a public method of a public class, must be used by one of: library or CLI
code other than its own definition, ``README.md``, the acceptance criteria
in ``tests/test_acceptance.py``, or the benchmark tracer's ``TARGETS``.
A name that only its own unit tests call is dead weight: delete it, or name
in the README the paper claim or user task it serves.

Uses in the package are found by name over its syntax trees (a call, a
reference or an attribute access outside the definition); uses in the
README and the acceptance tests by whole-word search.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "minkit"


def _public_definitions(tree: ast.Module):
    """(name, node) of each public top-level function or class, and of each
    public method of a public class."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if isinstance(node, kinds) and not node.name.startswith("_"):
            yield node.name, node
            if isinstance(node, ast.ClassDef):
                for member in node.body:
                    if isinstance(member, kinds[:2]) and not member.name.startswith("_"):
                        yield member.name, member


def _references(tree: ast.Module):
    """(name, node) of each name referenced or accessed as an attribute."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node
        elif isinstance(node, ast.Attribute):
            yield node.attr, node


def _tracer_targets() -> set[str]:
    """The function names bound by ``TARGETS`` in ``bench/tracer.py``, read
    without importing the benchmark."""
    tree = ast.parse((ROOT / "bench" / "tracer.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets):
            return {fn for _, fn, _ in ast.literal_eval(node.value)}
    raise AssertionError("bench/tracer.py defines no TARGETS")


def unused_public_names() -> list[str]:
    trees = {path: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    uses: dict[str, list[ast.AST]] = {}
    for tree in trees.values():
        for name, node in _references(tree):
            uses.setdefault(name, []).append(node)
    text = (ROOT / "README.md").read_text() + (ROOT / "tests" / "test_acceptance.py").read_text()
    targets = _tracer_targets()
    unused = []
    for path, tree in trees.items():
        for name, node in _public_definitions(tree):
            if name in targets or re.search(rf"\b{re.escape(name)}\b", text):
                continue
            inside = {id(n) for n in ast.walk(node)}  # a recursive call is no use
            if all(id(use) in inside for use in uses.get(name, [])):
                unused.append(f"{path.stem}.{name}")
    return unused


def test_every_public_name_has_a_user():
    assert unused_public_names() == []
