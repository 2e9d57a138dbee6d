"""Every top-level name in src/eprverify, private ones included, is used by the
package itself, and so is every method; every dataclass field is read by it,
and every defaulted parameter, a
dataclass field with a default included, is set by some call in it, and not by
every call to one and the same literal."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "eprverify"

# Names that no package code uses, each with the reason it stays.
EXEMPT = {
    "rewinding_residual": "acceptance criterion 4 checks the rewinding identity as package code",
    "honest_rewinding_instance": "criterion 4 builds its honest rewinding instances with it",
    "HalfEigenpairError": "rewinding_residual raises it; criterion 4's tests catch it",
    "_Parser.error": "argparse calls it on a bad command line",
    "teleport": "acceptance criterion 2 checks the post-selection lemma on it",
}


def _definitions(tree: ast.Module) -> list[tuple[str, str]]:
    """(name, the use that counts) for each top-level name, and for each method
    but the dunder ones as (Class.method, .method)."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append((node.name, node.name))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.extend((t.id, t.id) for t in targets if isinstance(t, ast.Name))
        if isinstance(node, ast.ClassDef):
            names.extend(
                (f"{node.name}.{fn.name}", f".{fn.name}") for fn in node.body
                if isinstance(fn, ast.FunctionDef) and not (fn.name.startswith("__") and fn.name.endswith("__"))
            )
    return names


def _uses(tree: ast.Module) -> set[str]:
    """Names read in the source: bare names, attributes of package modules
    imported as ``from . import x`` (as in ``rngmod.stream``), and .attr for
    each attribute of anything (as in ``run.sample``)."""
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
        if isinstance(node, ast.Attribute):
            used.add(f".{node.attr}")
    return used


def dead_names(sources: dict[str, str]) -> list[str]:
    """module.name for each definition that no source uses, and
    module.Class.method for each method no source reads as an attribute of
    anything."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    used = set().union(*map(_uses, trees.values()))
    return sorted(
        f"{module}.{name}"
        for module, tree in trees.items()
        for name, use in _definitions(tree)
        if use not in used and name not in EXEMPT
    )


# Defaulted parameters that no package call sets, each with the reason it stays.
EXEMPT_DEFAULTS = {
    "cli.main.argv": "python -m eprverify.cli calls main() with none, so argparse reads sys.argv",
}
# Defaulted parameters that every package call sets to one and the same
# literal, each with the reason it stays.
EXEMPT_SINGLE_VALUE: dict[str, str] = {}


def _is_dataclass(node: ast.ClassDef) -> bool:
    return any(
        isinstance(d, ast.Name) and d.id == "dataclass"
        or isinstance(d, ast.Call) and isinstance(d.func, ast.Name) and d.func.id == "dataclass"
        for d in node.decorator_list
    )


def unread_fields(sources: dict[str, str]) -> list[str]:
    """module.Class.field for each field of a dataclass that no source reads
    as an attribute (as in ``toy.witness``), whatever the object it is read from."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    read = {
        node.attr for tree in trees.values() for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    return sorted(
        f"{module}.{node.name}.{f.target.id}"
        for module, tree in trees.items()
        for node in tree.body if isinstance(node, ast.ClassDef) and _is_dataclass(node)
        for f in node.body if isinstance(f, ast.AnnAssign) and isinstance(f.target, ast.Name)
        and f.target.id not in read
    )


def _defaulted_parameters(tree: ast.Module) -> list[tuple[str, int | None, str]]:
    """(function name, positional index or None if keyword-only, parameter) for
    each defaulted parameter; a method's index does not count self.  A
    dataclass field with a default is a defaulted parameter of its class."""
    methods = {
        id(fn) for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
        for fn in node.body if isinstance(fn, ast.FunctionDef)
    }
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and _is_dataclass(node):
            fields = [f for f in node.body if isinstance(f, ast.AnnAssign) and isinstance(f.target, ast.Name)]
            found.extend((node.name, index, f.target.id) for index, f in enumerate(fields) if f.value is not None)
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


def _calls(tree: ast.Module) -> list[tuple[str, list[ast.expr] | None, dict[str, ast.expr] | None]]:
    """(called name, positional arguments or None if one is starred, keyword
    arguments by name or None if ** passes some) for each call; a name imported
    under an alias is read as its original name, and cls in a classmethod as
    its class."""
    aliases = {
        alias.asname: alias.name
        for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
        for alias in node.names if alias.asname
    }
    classes = {
        id(call): node.name
        for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
        for fn in node.body if isinstance(fn, ast.FunctionDef)
        if any(isinstance(d, ast.Name) and d.id == "classmethod" for d in fn.decorator_list)
        for call in ast.walk(fn) if isinstance(call, ast.Call)
        and isinstance(call.func, ast.Name) and call.func.id == "cls"
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
        keywords = {kw.arg: kw.value for kw in node.keywords}
        calls.append((
            classes.get(id(node), aliases.get(name, name)),
            None if starred else node.args,
            None if None in keywords else keywords,
        ))
    return calls


# What a call passes for a parameter when a starred or ** argument may hold it.
_UNKNOWN = object()


def _passed_values(sources: dict[str, str]) -> dict[str, list]:
    """module.function.parameter of each defaulted parameter, with what each call
    of that name passes for it: an expression, None for nothing, or _UNKNOWN.
    Calls are matched by function name alone."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    calls = [call for tree in trees.values() for call in _calls(tree)]

    def passed(args, keywords, index: int | None, param: str):
        if args is None or keywords is None:
            return _UNKNOWN
        if param in keywords:
            return keywords[param]
        return args[index] if index is not None and index < len(args) else None

    return {
        f"{module}.{function}.{param}": [
            passed(args, keywords, index, param) for name, args, keywords in calls if name == function
        ]
        for module, tree in trees.items()
        for function, index, param in _defaulted_parameters(tree)
    }


def unset_defaults(sources: dict[str, str]) -> list[str]:
    """module.function.parameter for each defaulted parameter that no call in
    the sources sets."""
    return sorted(
        name for name, values in _passed_values(sources).items()
        if all(value is None for value in values) and name not in EXEMPT_DEFAULTS
    )


def _one_literal(values: list) -> bool:
    """Whether the values are all one and the same literal expression."""
    dumps = set()
    for value in values:
        try:
            ast.literal_eval(value)
        except (ValueError, TypeError):  # not a literal, or None or _UNKNOWN
            return False
        dumps.add(ast.dump(value))
    return len(dumps) == 1


def single_value_defaults(sources: dict[str, str]) -> list[str]:
    """module.function.parameter for each defaulted parameter that every call
    in the sources sets, each time to the same literal."""
    return sorted(
        name for name, values in _passed_values(sources).items()
        if _one_literal(values) and name not in EXEMPT_SINGLE_VALUE
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


def test_dead_name_scan_sees_private_leftovers_and_methods():
    sources = {
        "a": (
            "_USED = 1\n_LEFT = 2\ndef _helper(): return _USED\ndef _gone(): pass\n"
            "class K:\n    def __init__(self): self._cache = {}\n"
            "    def run(self): return self._build()\n    def _build(self): pass\n    def _stale(self): pass\n"
        ),
        "b": "from .a import _helper, K\n_helper()\nK().run()\n",
    }
    assert dead_names(sources) == ["a.K._stale", "a._LEFT", "a._gone"]


def test_every_defaulted_parameter_is_set_in_the_package():
    sources = {path.stem: path.read_text() for path in sorted(SRC.glob("*.py"))}
    assert sources and unset_defaults(sources) == []


def test_no_defaulted_parameter_is_always_set_to_one_literal():
    sources = {path.stem: path.read_text() for path in sorted(SRC.glob("*.py"))}
    assert sources and single_value_defaults(sources) == []


def test_every_dataclass_field_is_read_in_the_package():
    sources = {path.stem: path.read_text() for path in sorted(SRC.glob("*.py"))}
    assert sources and unread_fields(sources) == []


def test_unread_field_scan_sees_fields_no_code_reads():
    sources = {
        "a": (
            "from dataclasses import dataclass\n"
            "@dataclass(frozen=True)\n"
            "class R:\n    x: int\n    y: int = 0\n    z: int = 1\n"
            "@dataclass\nclass Q:\n    v: int\n"
            "class Plain:\n    u: int = 0\n"
        ),
        "b": "r = R(1)\nr.x\nsomething.y\nr.z = 2\nq = Q(v=3)\n",
    }
    assert unread_fields(sources) == ["a.Q.v", "a.R.z"]


def test_every_exemption_gives_a_reason():
    for exempt in (EXEMPT, EXEMPT_DEFAULTS, EXEMPT_SINGLE_VALUE):
        assert all(isinstance(reason, str) and reason.strip() for reason in exempt.values())


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


def test_unset_default_scan_sees_dataclass_fields():
    sources = {
        "a": (
            "from dataclasses import dataclass, field\n"
            "@dataclass(frozen=True)\n"
            "class R:\n"
            "    x: int\n    y: int = 0\n    z: list = field(default_factory=list)\n    w: int = 1\n"
            "    @classmethod\n    def make(cls, d):\n        return cls(1, w=d)\n"
            "@dataclass\nclass Q:\n    v: int = 0\n"
            "class Plain:\n    u: int = 0\n"
        ),
        "b": "R(1, 2)\n",
    }
    assert unset_defaults(sources) == ["a.Q.v", "a.R.z"]


def test_single_value_scan_sees_parameters_always_set_alike():
    sources = {
        "a": (
            "def f(x, flag=True, mode='a', k=0): pass\n"
            "def g(u=None): pass\n"
            "def h(v=0): pass\n"
            "def s(t=0): pass\n"
            "def m(p=0): pass\n"
            "from dataclasses import dataclass\n"
            "@dataclass\nclass D:\n    a: int\n    b: bool = True\n"
        ),
        "b": (
            "f(1, False, mode='b')\nf(2, flag=False, mode='c')\nf(3, False, k=1)\n"
            "g(u=(1, 'x'))\nh(v=y)\nh(v=y)\ns(t=1)\ns(**kw)\nm(p=1)\nm(p=2)\n"
            "D(1, b=False)\nD(2, False)\n"
        ),
    }
    assert single_value_defaults(sources) == ["a.D.b", "a.f.flag", "a.g.u"]
