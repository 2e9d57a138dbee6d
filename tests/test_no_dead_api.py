"""Every public top-level name in src/eprverify is used by the package itself."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "eprverify"

# Public names that no package code uses, each with the reason it stays.
EXEMPT = {
    "rewinding_residual": "acceptance criterion 4 checks the rewinding identity as package code",
    "honest_rewinding_instance": "criterion 4 builds its honest rewinding instances with it",
    "HalfEigenpairError": "rewinding_residual raises it; criterion 4's tests catch it",
}


def _public_definitions(tree: ast.Module) -> list[str]:
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.extend(t.id for t in targets if isinstance(t, ast.Name))
    return [name for name in names if not name.startswith("_")]


def _uses(tree: ast.Module) -> set[str]:
    """Names read in the source: bare names, and attributes of package modules
    imported as ``from . import x`` (as in ``rngmod.stream``)."""
    modules = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level and node.module is None
        for alias in node.names
    }
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in modules:
            used.add(node.attr)
    return used


def dead_names(sources: dict[str, str]) -> list[str]:
    """module.name for each public definition that no source uses."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    used = set().union(*map(_uses, trees.values()))
    return sorted(
        f"{module}.{name}"
        for module, tree in trees.items()
        for name in _public_definitions(tree)
        if name not in used and name not in EXEMPT
    )


def test_every_public_name_is_used_in_the_package():
    sources = {path.stem: path.read_text() for path in sorted(SRC.glob("*.py"))}
    assert dead_names(sources) == []


def test_dead_name_scan_sees_unused_definitions():
    sources = {
        "a": "def used(): pass\ndef dead(): pass\nclass Gone: pass\nLIMIT: int = 1\nnp.dead\n",
        "b": "from . import a as amod\nfrom .a import used\nused()\namod.Gone\n",
    }
    assert dead_names(sources) == ["a.LIMIT", "a.dead"]
