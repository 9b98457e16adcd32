"""Static checks on the package source, made with the standard library's ast."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "ctgp"


def _exported(tree):
    """The strings listed in a module-level __all__."""
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            return set(ast.literal_eval(node.value))
    return set()


def unused_imports(path):
    """(line, name) of each name a module imports and never reads."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported += [(node.lineno, alias.asname or alias.name.split(".")[0])
                         for alias in node.names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)} | _exported(tree)
    return [(line, name) for line, name in imported if name not in used]


def test_unused_imports_finder_sees_both_import_forms(tmp_path):
    module = tmp_path / "m.py"
    module.write_text("from __future__ import annotations\n"
                      "import os.path\nimport sys\n"
                      "from dataclasses import dataclass, field, fields\n"
                      "__all__ = ['field']\n"
                      "def f(x: dataclass) -> None:\n"
                      "    return sys.argv\n")
    assert unused_imports(module) == [(2, "os"), (4, "fields")]


def test_package_modules_have_no_unused_imports():
    found = {path.name: unused for path in sorted(SRC.glob("*.py"))
             if (unused := unused_imports(path))}
    assert found == {}
