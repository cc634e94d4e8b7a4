"""Static checks on the package source: no unused import, no dead private def.

Both read the modules with ``ast`` only, so they run wherever the suite does.
"""

import ast
from pathlib import Path

import knitweave

SRC = Path(knitweave.__file__).resolve().parent
TREES = {p.name: ast.parse(p.read_text(), str(p)) for p in sorted(SRC.glob("*.py"))}


def _names(tree: ast.AST, skip: ast.AST | None = None) -> set[str]:
    """Every name read under ``tree`` as a bare name, leaving out ``skip``."""
    found: set[str] = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            found.add(node.id)
        stack.extend(ast.iter_child_nodes(node))
    return found


def _exported(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return {elt.value for elt in node.value.elts}
    return set()


def test_the_package_has_modules_to_scan():
    assert {"__init__.py", "knitted.py", "cli.py"} <= set(TREES)


def test_every_imported_name_is_used_or_exported():
    unused = []
    for name, tree in TREES.items():
        used = _names(tree) | _exported(tree)
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                # ``import a.b`` binds ``a``
                bound = alias.asname or alias.name.split(".")[0]
                if bound not in used:
                    unused.append(f"{name}: {bound}")
    assert unused == []


def test_every_private_module_level_def_is_referenced():
    # a private def may be read by name, as a module attribute, or by a
    # ``from`` import, which the test above holds to a use of its own
    imported = {
        alias.name
        for tree in TREES.values()
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    attributes = {
        node.attr for tree in TREES.values() for node in ast.walk(tree) if isinstance(node, ast.Attribute)
    }
    dead = []
    for name, tree in TREES.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            if not node.name.startswith("_") or node.name.startswith("__"):
                continue
            if node.name in imported | attributes:
                continue
            if not any(node.name in _names(other, skip=node) for other in TREES.values()):
                dead.append(f"{name}: {node.name}")
    assert dead == []
