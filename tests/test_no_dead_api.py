"""Every public top-level name in src/eprverify is used by the package itself,
and every defaulted parameter is set by some call in it."""

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


# Defaulted parameters that no package call sets, each with the reason it stays.
EXEMPT_DEFAULTS = {
    "cli.main.argv": "python -m eprverify.cli calls main() with none, so argparse reads sys.argv",
}


def _defaulted_parameters(tree: ast.Module) -> list[tuple[str, int | None, str]]:
    """(function name, positional index or None if keyword-only, parameter) for
    each defaulted parameter; a method's index does not count self."""
    methods = {
        id(fn) for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
        for fn in node.body if isinstance(fn, ast.FunctionDef)
    }
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.FunctionDef):
            continue
        args = node.args
        positional = args.posonlyargs + args.args
        skip = 1 if id(node) in methods else 0
        for index in range(len(positional) - len(args.defaults), len(positional)):
            found.append((node.name, index - skip, positional[index].arg))
        for arg, default in zip(args.kwonlyargs, args.kw_defaults):
            if default is not None:
                found.append((node.name, None, arg.arg))
    return found


def _calls(tree: ast.Module) -> list[tuple[str, int | None, set[str] | None]]:
    """(called name, positional count or None if unbounded, keywords or None if
    unbounded) for each call; a name imported under an alias is read as its
    original name."""
    aliases = {
        alias.asname: alias.name
        for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
        for alias in node.names if alias.asname
    }
    calls = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if name is None:
            continue
        starred = any(isinstance(arg, ast.Starred) for arg in node.args)
        keywords = {kw.arg for kw in node.keywords}
        calls.append((
            aliases.get(name, name),
            None if starred else len(node.args),
            None if None in keywords else keywords,
        ))
    return calls


def unset_defaults(sources: dict[str, str]) -> list[str]:
    """module.function.parameter for each defaulted parameter that no call in
    the sources sets.  Calls are matched by function name alone."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    calls = [call for tree in trees.values() for call in _calls(tree)]

    def is_set(function: str, index: int | None, param: str) -> bool:
        return any(
            name == function and (
                count is None or keywords is None or param in keywords
                or (index is not None and index < count)
            )
            for name, count, keywords in calls
        )

    return sorted(
        f"{module}.{function}.{param}"
        for module, tree in trees.items()
        for function, index, param in _defaulted_parameters(tree)
        if not is_set(function, index, param) and f"{module}.{function}.{param}" not in EXEMPT_DEFAULTS
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


def test_every_defaulted_parameter_is_set_in_the_package():
    sources = {path.stem: path.read_text() for path in sorted(SRC.glob("*.py"))}
    assert sources and unset_defaults(sources) == []


def test_unset_default_scan_sees_unset_parameters():
    sources = {
        "a": (
            "def f(x, y=1, z=2): pass\n"
            "def g(*, k=0, j=1): pass\n"
            "def h(v=0): pass\n"
            "def s(u=0): pass\n"
            "class C:\n    def m(self, w=3, t=4): pass\n"
        ),
        "b": "from .a import f as ff\nff(1, 2)\ng(j=2)\nh(**{})\ns(*[1])\nC().m(4)\n",
    }
    assert unset_defaults(sources) == ["a.f.z", "a.g.k", "a.m.t"]
