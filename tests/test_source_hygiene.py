"""Source checks that need no linter: unused imports and names, the 3.10 grammar.

A name a ``spaceform`` module imports must be used in that module or
listed in its ``__all__``; an import marked ``# noqa: F401`` is exempt.
A public function, method or class of ``spaceform`` must have a caller in
the package or the benchmark, or be named as API in the README.  Every
``.py`` file of the project must parse as Python 3.10, the oldest
version ``pyproject.toml`` allows.
"""

import ast
import re
from collections import defaultdict
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "spaceform"
MODULES = sorted(PACKAGE.glob("*.py"))
SOURCES = sorted(p for d in ("src", "tests", "perfbench") for p in (ROOT / d).rglob("*.py"))
CALLERS = MODULES + sorted((ROOT / "perfbench").glob("*.py"))


def imported_names(tree: ast.Module, lines: list[str]):
    """(bound name, exempt?) for each import of the module, __future__ aside."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                yield name, "# noqa: F401" in lines[alias.lineno - 1]


def exported_names(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


def unused_imports(source: str) -> tuple[list[str], list[str]]:
    """The unused imported names of a module's source, and the exempt ones."""
    tree = ast.parse(source)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    used |= exported_names(tree)
    unused, exempt = [], []
    for name, noqa in imported_names(tree, source.splitlines()):
        if noqa:
            exempt.append(name)
        elif name not in used:
            unused.append(name)
    return unused, exempt


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used_or_exported(path):
    assert unused_imports(path.read_text())[0] == []


def test_the_exempt_imports_are_listed():
    exempt = {
        (path.stem, name)
        for path in MODULES
        for name in unused_imports(path.read_text())[1]
    }
    # perfbench/test_perfbench.py patches composition_table in degree
    assert exempt == {("degree", "composition_table")}


def test_an_unused_import_is_caught():
    source = (
        "from collections import defaultdict\n"
        "from itertools import product  # noqa: F401\n"
        "import os.path\n"
        "from math import gcd as g\n"
        "print(g(4, 6), os.sep)\n"
    )
    assert unused_imports(source) == (["defaultdict"], ["product"])


def public_definitions(path: Path):
    """(name, its lines) for each public top-level def or class and method."""
    for node in ast.parse(path.read_text()).body:
        members = node.body if isinstance(node, ast.ClassDef) else []
        for d in (node, *members):
            if isinstance(d, (ast.FunctionDef, ast.ClassDef)) and not d.name.startswith("_"):
                first = min(n.lineno for n in (d, *d.decorator_list))
                yield d.name, range(first, d.end_lineno + 1)


def test_every_public_name_has_a_caller_or_is_documented():
    """A use is the name as a word on a line outside every definition of it,
    in ``spaceform`` or a ``perfbench`` script; the README names API in
    backticks.  A test alone is no caller."""
    definitions = defaultdict(set)  # name -> {(path, line)} of its definitions
    for path in MODULES:
        for name, lines in public_definitions(path):
            definitions[name].update((path, i) for i in lines)
    documented = " ".join(re.findall(r"`+([^`]+)`+", (ROOT / "README.md").read_text()))
    lines = [
        (path, i, line)
        for path in CALLERS
        for i, line in enumerate(path.read_text().splitlines(), 1)
    ]
    unused = []
    for name, own in sorted(definitions.items()):
        word = re.compile(rf"\b{name}\b")
        if not word.search(documented) and not any(
            (path, i) not in own and word.search(line) for path, i, line in lines
        ):
            unused.append(name)
    assert unused == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_parses_as_python_3_10(path):
    ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))
