"""Every public function and class of the package is reached from outside the tests.

A public definition is reached when package code names it, when
`sentid/__init__.py` exports it, or when the acceptance tests import it as
part of the documented interface.  A helper that only unit tests reach is
not part of the program.  Like `test_unused_private.py`, this walks the
syntax trees of the package's modules with the standard library alone.
"""

import ast
from pathlib import Path

from test_unused_private import referenced_names

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "sentid"
ACCEPTANCE = ROOT / "tests" / "test_acceptance.py"


def public_definitions(tree: ast.Module) -> list:
    """Module-level functions and classes whose names do not start with '_'."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    return [n.name for n in tree.body if isinstance(n, defs) and not n.name.startswith("_")]


def imported_names(tree: ast.Module) -> set:
    """Every name that a `from ... import` statement anywhere in the tree takes."""
    return {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }


def unreached_public(sources: dict, exported: str, acceptance: str) -> list:
    """Public definitions of `sources` (module name -> source) that nothing reaches.

    `exported` is the source of the package's `__init__.py`, and `acceptance`
    that of the acceptance tests.
    """
    trees = {module: ast.parse(source) for module, source in sources.items()}
    reached = set().union(
        *map(referenced_names, trees.values()),
        imported_names(ast.parse(exported)),
        imported_names(ast.parse(acceptance)),
    )
    return sorted(
        f"{module}:{name}"
        for module, tree in trees.items()
        for name in public_definitions(tree)
        if name not in reached
    )


def test_finds_unreached_public_definitions():
    sources = {
        "a.py": (
            "def used(): pass\ndef exported(): pass\ndef accepted(): pass\n"
            "def dead(): pass\nclass Dead:\n    def method(self): pass\ndef _private(): pass\n"
        ),
        "b.py": "from a import used\nused()\n",
    }
    exported = "from .a import exported\n"
    acceptance = "def test_x():\n    from sentid.a import accepted\n"
    assert unreached_public(sources, exported, acceptance) == ["a.py:Dead", "a.py:dead"]


def test_package_reaches_every_public_definition():
    sources = {
        p.name: p.read_text(encoding="utf-8")
        for p in sorted(PACKAGE.glob("*.py"))
        if p.name != "__init__.py"
    }
    exported = (PACKAGE / "__init__.py").read_text(encoding="utf-8")
    assert unreached_public(sources, exported, ACCEPTANCE.read_text(encoding="utf-8")) == []
