"""The monolithic oracle must stay independent of the package it checks."""

import ast
from pathlib import Path

TESTS = Path(__file__).resolve().parent


def _imported_modules(tree: ast.AST) -> list[str]:
    """Every module the source imports, with relative imports marked by a leading dot."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            found.append("." * node.level + (node.module or ""))
        elif isinstance(node, ast.Call) and node.args and isinstance(node.args[0], ast.Constant):
            name = getattr(node.func, "attr", getattr(node.func, "id", None))
            if name in ("import_module", "__import__") and isinstance(node.args[0].value, str):
                found.append(node.args[0].value)
    return found


def test_monolithic_oracle_does_not_import_the_package():
    # neither the package nor a test helper that could re-export it
    source = (TESTS / "monolithic_oracle.py").read_text()
    siblings = {path.stem for path in TESTS.glob("*.py")}
    for module in _imported_modules(ast.parse(source)):
        top = module.split(".")[0]
        assert not module.startswith("."), f"relative import {module!r}"
        assert top != "eprverify", f"the oracle imports {module!r}"
        assert top not in siblings, f"the oracle imports the test module {module!r}"


def test_import_scan_sees_every_form():
    source = (
        "import eprverify.kernel\nfrom eprverify import protocol\nfrom . import x\n"
        "import importlib\nimportlib.import_module('eprverify')\n__import__('dense_reference')\n"
    )
    assert _imported_modules(ast.parse(source)) == [
        "eprverify.kernel", "eprverify", ".", "importlib", "eprverify", "dense_reference"
    ]
