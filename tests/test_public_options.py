"""Every option of minkit's public API has a user.

A parameter with a default value, of a public (non-underscore) top-level
function of ``src/minkit`` or of a public method of a public class, and a
field with a default value of a public dataclass, must be set by at least
one call in library or CLI code (outside its own definition), a Python
block of ``README.md``, or the acceptance criteria in
``tests/test_acceptance.py``.  A default that no caller changes is a
constant: make it one.

A call sets a parameter by keyword, by position, or through ``*args`` or
``**kwargs``.  Calls are matched to definitions by name over the syntax
trees.  A call of a conditional expression, ``(f if trace else g)(rho,
tol)``, counts for both functions, and a call of a subscript of a
module-level dict of functions, ``_NUMERIC[measure](rho, cfg)``, for each
function in the dict.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "minkit"


def _is_dataclass(node: ast.ClassDef) -> bool:
    for deco in node.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        if getattr(target, "id", getattr(target, "attr", None)) == "dataclass":
            return True
    return False


def _signature(fn, method: bool) -> tuple[list[str], list[str]]:
    """Positional parameter names of a function (without ``self`` for a
    method) and the names of the parameters that have a default."""
    args = fn.args
    positional = [a.arg for a in args.posonlyargs + args.args]
    optional = positional[len(positional) - len(args.defaults):] if args.defaults else []
    optional += [a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
    static = any(getattr(d, "id", None) == "staticmethod" for d in fn.decorator_list)
    return (positional[1:] if method and not static else positional), optional


def _definitions(tree: ast.Module):
    """(name, positional parameters, parameters with a default, node) of each
    public function, public method of a public class and public dataclass."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    for node in tree.body:
        if not isinstance(node, (*functions, ast.ClassDef)) or node.name.startswith("_"):
            continue
        if isinstance(node, functions):
            yield (node.name, *_signature(node, False), node)
        elif isinstance(node, ast.ClassDef):
            if _is_dataclass(node):
                fields = [f for f in node.body
                          if isinstance(f, ast.AnnAssign) and isinstance(f.target, ast.Name)]
                yield (node.name, [f.target.id for f in fields],
                       [f.target.id for f in fields if f.value is not None], node)
            for member in node.body:
                if isinstance(member, functions) and not member.name.startswith("_"):
                    yield (member.name, *_signature(member, True), member)


def _tables(tree: ast.Module) -> dict[str, set[str]]:
    """Module-level dicts of functions: the names of each dict's values."""
    tables = {}
    for node in tree.body:
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Dict):
            values = {getattr(v, "id", getattr(v, "attr", None)) for v in node.value.values}
            for target in node.targets:
                if isinstance(target, ast.Name):
                    tables[target.id] = values - {None}
    return tables


def _callees(func: ast.expr, tables: dict[str, set[str]]) -> set[str]:
    """The names of the functions a call of ``func`` can reach."""
    if isinstance(func, ast.Name):
        return {func.id}
    if isinstance(func, ast.Attribute):
        return {func.attr}
    if isinstance(func, ast.IfExp):
        return _callees(func.body, tables) | _callees(func.orelse, tables)
    if isinstance(func, ast.Subscript) and isinstance(func.value, ast.Name):
        return tables.get(func.value.id, set())
    return set()


def _set_by(call: ast.Call, positional: list[str], optional: list[str]) -> set[str]:
    """The parameters that ``call`` sets."""
    names = set()
    for k, arg in enumerate(call.args):
        if isinstance(arg, ast.Starred):
            names.update(positional[k:])
            break
        if k < len(positional):
            names.add(positional[k])
    for kw in call.keywords:
        names.update(optional if kw.arg is None else [kw.arg])
    return names


def _calls(trees):
    """(callee name, call node) of each call in the trees."""
    for tree in trees:
        tables = _tables(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                for name in _callees(node.func, tables):
                    yield name, node


def unset_options() -> list[str]:
    package = {path: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    blocks = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    outside = [ast.parse(code) for code in blocks]
    outside.append(ast.parse((ROOT / "tests" / "test_acceptance.py").read_text()))
    calls: dict[str, list[ast.Call]] = {}
    for name, node in _calls([*package.values(), *outside]):
        calls.setdefault(name, []).append(node)
    unset = []
    for path, tree in package.items():
        for name, positional, optional, node in _definitions(tree):
            inside = {id(n) for n in ast.walk(node)}  # a recursive call is no user
            used = set()
            for call in calls.get(name, []):
                if id(call) not in inside:
                    used |= _set_by(call, positional, optional)
            unset += [f"{path.stem}.{name}({p})" for p in optional if p not in used]
    return unset


def test_every_public_option_is_set_by_a_caller():
    assert unset_options() == []
