"""Static checks of the library's own modules (src/sugeo/*.py but __init__.py), read with ast.

No module imports a name it does not use (a line marked "# noqa: F401" may, to
keep a binding others patch), every private module-level name is
referenced somewhere in the library other than its own definition, and no
module imports scipy: the runtime dependency is numpy alone.  Only
pauli.check_bytes, the one byte budget, raises StepLimitExceeded, so no
module grows a size cap of its own.  In cli.py one writer, _emit, writes every
command's result, and only it and dispatch catch exceptions.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "sugeo"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _parse(path: Path):
    text = path.read_text()
    return ast.parse(text), text.splitlines()


def _referenced(tree: ast.AST) -> set:
    """Every name read in the tree: plain names, attributes (module.name) and imported names."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree, lines = _parse(path)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used |= {node.value.id for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)}
    unused = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)) or getattr(node, "module", None) == "__future__":
            continue
        for alias in node.names:
            bound = alias.asname or alias.name.split(".")[0]
            if bound not in used and "# noqa: F401" not in lines[alias.lineno - 1]:
                unused.append(f"{bound} (line {alias.lineno})")
    assert unused == []


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_scipy_import(path):
    tree, _ = _parse(path)
    modules = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names]
    modules += [node.module or "" for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
    assert [m for m in modules if m.split(".")[0] == "scipy"] == []


def test_every_private_name_is_referenced():
    trees = {p.name: _parse(p)[0] for p in SRC.glob("*.py")}
    referenced = set().union(*map(_referenced, trees.values()))
    unreferenced = []
    for name, tree in trees.items():
        if name == "__init__.py":
            continue
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            unreferenced += [f"{name}:{d}" for d in defined
                             if d.startswith("_") and not d.startswith("__") and d not in referenced]
    assert unreferenced == []


def test_step_limit_is_raised_only_by_the_budget():
    raised = []
    for path in MODULES:
        tree, _ = _parse(path)
        for func in ast.walk(tree):
            if not isinstance(func, ast.FunctionDef):
                continue
            for node in ast.walk(func):
                exc = getattr(node, "exc", None) if isinstance(node, ast.Raise) else None
                if isinstance(exc, ast.Call):
                    exc = exc.func
                if isinstance(exc, ast.Name) and exc.id == "StepLimitExceeded":
                    raised.append(f"{path.stem}.{func.name}")
    assert raised == ["pauli.check_bytes"]


def _writes(call: ast.Call) -> bool:
    """print without file= (stdout), or open with a mode that is not plain reading."""
    if not isinstance(call.func, ast.Name):
        return False
    if call.func.id == "print":
        return not any(k.arg == "file" for k in call.keywords)
    if call.func.id != "open":
        return False
    modes = call.args[1:2] + [k.value for k in call.keywords if k.arg == "mode"]
    return any(not (isinstance(m, ast.Constant) and m.value in ("r", "rb")) for m in modes)


def test_cli_has_one_write_path():
    """In cli.py only _emit writes to stdout or opens a file to write (--out), and only _emit
    (its NaN check) and dispatch catch exceptions, so every result leaves through one writer."""
    tree, _ = _parse(SRC / "cli.py")
    writes, catches = set(), set()
    for top in tree.body:
        owner = getattr(top, "name", "<module>")
        for node in ast.walk(top):
            if (isinstance(node, ast.Attribute) and node.attr == "stdout") or (
                isinstance(node, ast.Call) and _writes(node)
            ):
                writes.add(owner)
            elif isinstance(node, ast.ExceptHandler):
                catches.add(owner)
    assert writes == {"_emit"}
    assert catches == {"_emit", "dispatch"}
