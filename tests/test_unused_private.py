"""Every private function, class and method of the package is used in it.

Deleting a caller tends to leave its private helpers behind, and a helper
that only tests reach is not part of the program.  This walks the syntax
trees of the package's modules with the standard library alone.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "sentid"


def _is_private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def private_definitions(tree: ast.Module) -> list:
    """Private module-level functions and classes, and private methods of module-level classes."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    found = []
    for node in tree.body:
        if isinstance(node, defs):
            found.append(node.name)
        if isinstance(node, ast.ClassDef):
            found += [f"{node.name}.{m.name}" for m in node.body if isinstance(m, defs[:2])]
    return [name for name in found if _is_private(name.rpartition(".")[2])]


def referenced_names(tree: ast.Module) -> set:
    """Every name read or written, and every attribute, anywhere in the tree."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def unused_private(sources: dict) -> list:
    """Private definitions of `sources` (module name -> source) that no module names."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    used = set().union(*map(referenced_names, trees.values()))
    return sorted(
        f"{module}:{name}"
        for module, tree in trees.items()
        for name in private_definitions(tree)
        if name.rpartition(".")[2] not in used
    )


def test_finds_unused_private_definitions():
    sources = {
        "a.py": (
            "def _used(): pass\ndef _dead(): pass\ndef __getattr__(n): pass\n"
            "class _C:\n    def _m(self): pass\n    def _dead_m(self): pass\n"
            "    def __len__(self): return 0\n"
        ),
        "b.py": "from a import _used, _C\n_used()\n_C()._m()\n",
    }
    assert unused_private(sources) == ["a.py:_C._dead_m", "a.py:_dead"]


def test_package_uses_every_private_definition():
    sources = {p.name: p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))}
    assert unused_private(sources) == []
