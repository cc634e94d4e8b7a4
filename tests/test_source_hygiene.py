"""Static checks on the package source: no unused import, no dead definition.

They read the modules with ``ast`` only, so they run wherever the suite does.
"""

import ast
import re
from pathlib import Path

import knitweave

SRC = Path(knitweave.__file__).resolve().parent
TREES = {p.name: ast.parse(p.read_text(), str(p)) for p in sorted(SRC.glob("*.py"))}
README = Path(__file__).resolve().parents[1] / "README.md"
DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


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


def _attributes() -> set[str]:
    return {node.attr for tree in TREES.values() for node in ast.walk(tree) if isinstance(node, ast.Attribute)}


def _unread(defs, known: set[str]) -> list[str]:
    """Each ``(module, def)`` pair whose name is not in ``known`` and is read
    by name nowhere in the package outside the def itself."""
    return [
        f"{name}: {node.name}"
        for name, node in defs
        if node.name not in known
        and not any(node.name in _names(other, skip=node) for other in TREES.values())
    ]


def _module_level_defs():
    for name, tree in TREES.items():
        for node in tree.body:
            if isinstance(node, DEFS):
                yield name, node


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
    private = [
        (name, node)
        for name, node in _module_level_defs()
        if node.name.startswith("_") and not node.name.startswith("__")
    ]
    assert _unread(private, imported | _attributes()) == []


def test_every_public_module_level_def_is_read_in_the_package():
    # tests are no caller: a public function or class that only they use is
    # dead code, unless the package exports it or the README documents it.
    # Methods are left out, since their names collide across classes.
    documented = set(re.findall(r"\w+", README.read_text()))
    public = [(name, node) for name, node in _module_level_defs() if not node.name.startswith("_")]
    known = _exported(TREES["__init__.py"]) | documented | _attributes()
    assert _unread(public, known) == []


def _package_imports(tree: ast.Module) -> set[str]:
    """The ``knitweave`` modules a module imports, by short name."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            # the package has no subpackages, so a relative import is from it
            module = ".".join(filter(None, ("knitweave" if node.level else "", node.module)))
            # ``from knitweave import braid`` imports the module braid
            modules = [f"{module}.{alias.name}" for alias in node.names] if module == "knitweave" else [module]
        else:
            continue
        found |= {m.partition(".")[2] or m for m in modules if m.split(".")[0] == "knitweave"}
    return found


def test_the_lower_layers_import_only_the_layers_below_them():
    layers = {
        "laurent.py": set(),
        "braid.py": set(),
        "diagram.py": set(),
        "hecke.py": {"braid", "laurent"},
        "skein.py": {"diagram", "laurent"},
    }
    assert {name: _package_imports(TREES[name]) for name in layers} == layers
