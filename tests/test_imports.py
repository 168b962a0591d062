"""Static hygiene of the package: no unused imports, no dangling ``__all__``,
no orphaned private or exported names.

The rules read the source with ``ast`` and import nothing.  A name
counts as used when the module loads it anywhere (annotations included)
or re-exports it through ``__all__``.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "pcraft"
MODULES = sorted(PACKAGE.glob("*.py"))


def parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def imported_names(tree: ast.Module) -> dict[str, int]:
    """Every name an import statement binds, with its line number."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    return bound


def exported_names(tree: ast.Module) -> list[str]:
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            return [ast.literal_eval(elt) for elt in node.value.elts]
    return []


def defined_names(tree: ast.Module) -> set[str]:
    """Names bound at module level by definitions, assignments, or imports."""
    names = set(imported_names(tree))
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(n.id for t in targets for n in ast.walk(t)
                         if isinstance(n, ast.Name))
    return names


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_no_unused_imports(path):
    tree = parse(path)
    loaded = {n.id for n in ast.walk(tree)
              if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    used = loaded | set(exported_names(tree))
    unused = sorted(f"{name} (line {line})"
                    for name, line in imported_names(tree).items() if name not in used)
    assert not unused, f"{path.name} imports names it never uses: {', '.join(unused)}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_all_names_are_defined(path):
    tree = parse(path)
    missing = sorted(set(exported_names(tree)) - defined_names(tree))
    assert not missing, f"{path.name} exports undefined names: {', '.join(missing)}"


def referenced_names(tree: ast.Module) -> set[str]:
    """Names loaded, read as attributes, or imported by name."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def test_no_orphaned_private_names():
    """Every private name, and every name a submodule exports, is used in the
    package beyond its own definition (a re-export from ``__init__`` counts)."""
    trees = {path: parse(path) for path in MODULES}
    referenced = set().union(*map(referenced_names, trees.values()))

    def checked(path, tree, name):
        if name.startswith("_"):
            return not name.startswith("__")
        return path.stem != "__init__" and name in exported_names(tree)

    orphans = sorted(f"{path.name}: {name}"
                     for path, tree in trees.items()
                     for name in defined_names(tree) - set(imported_names(tree))
                     if checked(path, tree, name) and name not in referenced)
    assert not orphans, f"names nothing in the package uses: {', '.join(orphans)}"


def test_planner_imports_no_scipy():
    # Its first-cap bounds need math alone; scipy.stats would add to the
    # start-up of every command that plans.
    tree = parse(PACKAGE / "planner.py")
    outside = {alias.name.split(".")[0] for node in ast.walk(tree)
               if isinstance(node, ast.Import) for alias in node.names}
    outside |= {node.module.split(".")[0] for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.level == 0}
    assert outside <= {"__future__", "dataclasses", "math", "numpy"}


def test_every_module_is_checked():
    assert {p.stem for p in MODULES} >= {"__init__", "cli", "config", "planner",
                                         "suites", "variants"}
