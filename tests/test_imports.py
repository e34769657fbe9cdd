"""Static checks: every module under src/oilab imports at module level
only, and uses each name it imports; only ``jsonio`` types values; and
every public definition has a caller outside the tests.

No linter is a dependency, so this walks the syntax tree with ``ast``: an
import must be a top-level statement of its module, and a name bound by an
import must appear as a ``Name`` somewhere else in the module (annotations
included, since ``from __future__ import annotations`` keeps them in the
tree).  What a file value may be is decided in ``jsonio`` alone, so no
other module asks ``isinstance(..., bool)`` or imports ``numbers``.  Code
in ``src`` or ``bench``, or a script entry point, names every public
top-level function and class; what only tests call is in ``helpers.py``.
"""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "oilab"

# public definitions kept without a caller, and why
UNCALLED = {
    "invseq.stage_counts": "the exact fold the oracle-built states are checked against (ROADMAP item 20)",
    "lwe.alpha_bound": "the regime szk_regime_gamma is derived from (ROADMAP item 4)",
    "lwe.no_side_log2_bound": "the counting bound of that regime (ROADMAP item 4)",
}


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in sorted(imported.items()) if name not in used]


def nested_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    return [
        f"line {node.lineno}"
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom)) and node not in tree.body
    ]


def value_typing(source: str) -> list[str]:
    tree = ast.parse(source)
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance":
            kinds = node.args[1]
            kinds = kinds.elts if isinstance(kinds, ast.Tuple) else [kinds]
            if any(getattr(kind, "id", None) == "bool" for kind in kinds):
                found.append(f"line {node.lineno}: isinstance(..., bool)")
        imports_numbers = (
            isinstance(node, ast.Import) and any(alias.name == "numbers" for alias in node.names)
            or isinstance(node, ast.ImportFrom) and node.module == "numbers"
        )
        if imports_numbers:
            found.append(f"line {node.lineno}: import numbers")
    return found


def test_checker_flags_an_unused_import():
    assert unused_imports("import numpy as np\nimport os\nos.getcwd()\n") == ["line 1: np"]
    assert unused_imports("from typing import Iterator\ndef f() -> Iterator: ...\n") == []


def test_checker_flags_a_nested_import():
    source = "import os\ndef f():\n    import sys\n    return sys\nif os:\n    import json\n"
    assert nested_imports(source) == ["line 3", "line 6"]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda path: path.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda path: path.name)
def test_imports_at_module_level(path):
    assert nested_imports(path.read_text()) == []


def test_checker_flags_value_typing():
    source = (
        "import numbers\nfrom numbers import Real\n"
        "isinstance(x, bool)\nisinstance(x, (int, bool))\nisinstance(x, int)\n"
    )
    assert value_typing(source) == [
        "line 1: import numbers",
        "line 2: import numbers",
        "line 3: isinstance(..., bool)",
        "line 4: isinstance(..., bool)",
    ]


@pytest.mark.parametrize(
    "path", sorted(p for p in PACKAGE.glob("*.py") if p.name != "jsonio.py"), ids=lambda path: path.name
)
def test_only_jsonio_types_values(path):
    assert value_typing(path.read_text()) == []


def unused_definitions(library: dict[str, str], callers: list[str]) -> list[str]:
    """Public top-level functions and classes of ``library`` (module name ->
    source) that no other top-level statement of the library or of the
    ``callers`` names.  A docstring, like any other string, names nothing."""
    definitions, uses = [], []
    for module, source in [*library.items(), *(("", source) for source in callers)]:
        for stmt in ast.parse(source).body:
            if module and isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) and stmt.name[0] != "_":
                definitions.append((module, stmt))
            walked = ast.walk(stmt)
            uses.append((stmt, {getattr(n, "id", None) or getattr(n, "attr", None) for n in walked}))
    return [
        f"{module}.{stmt.name}" for module, stmt in definitions
        if not any(stmt.name in names for user, names in uses if user is not stmt)
    ]


def test_checker_flags_an_uncalled_definition():
    library = {
        "a": 'def used(): ...\ndef lonely():\n    """not used()"""\n    return lonely()\ndef _own(): ...\n',
        "b": "from .a import used\nx = used()\n",
    }
    assert unused_definitions(library, ['"a.lonely"']) == ["a.lonely"]
    assert unused_definitions(library, ["import a\na.lonely()\n"]) == []


def test_every_public_definition_has_a_caller():
    library = {path.stem: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    callers = [path.read_text() for path in sorted((ROOT / "bench").rglob("*.py"))]
    scripts = re.findall(r'"oilab\.(\w+):(\w+)"', (ROOT / "pyproject.toml").read_text())
    unused = set(unused_definitions(library, callers)) - {f"{m}.{f}" for m, f in scripts}
    assert sorted(unused) == sorted(UNCALLED)
