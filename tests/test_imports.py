"""Every name a module under ``src/`` or ``tests/`` imports is used in it."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) of each name an import binds that no expression reads.

    ``import a.b`` binds ``a``; ``from __future__`` and names listed in
    ``__all__`` count as used. Scopes are not told apart, so a name read
    anywhere in the module counts.
    """
    tree = ast.parse(source)
    bound, read = [], set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) or (isinstance(node, ast.ImportFrom)
                                            and node.module != "__future__"):
            bound += [(node.lineno, alias.asname or alias.name.split(".")[0])
                      for alias in node.names if alias.name != "*"]
        elif isinstance(node, ast.Name):
            read.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            read |= {ast.literal_eval(e) for e in node.value.elts}
    return [(line, name) for line, name in bound if name not in read]


def test_the_checker_finds_an_unused_import_and_only_that():
    source = ("from __future__ import annotations\n"
              "import os.path\n"
              "from json import dumps, loads as parse\n"
              "from sys import argv\n"
              "__all__ = ['argv']\n"
              "def f():\n"
              "    return os.path.sep, parse('1')\n")
    assert unused_imports(source) == [(3, "dumps")]


def test_no_module_imports_a_name_it_never_uses():
    found = [f"{path.relative_to(ROOT)}:{line}: {name}"
             for folder in ("src", "tests")
             for path in sorted((ROOT / folder).rglob("*.py"))
             for line, name in unused_imports(path.read_text(encoding="utf-8"))]
    assert found == []
