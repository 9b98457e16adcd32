"""Static checks on the package source, made with the standard library's ast."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "ctgp"


def _exported(tree):
    """The strings listed in a module-level __all__."""
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            return set(ast.literal_eval(node.value))
    return set()


def _parse(path):
    return ast.parse(path.read_text(encoding="utf-8"))


def unused_imports(path):
    """(line, name) of each name a module imports and never reads."""
    tree = _parse(path)
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


def unset_options(defining, calling):
    """Each option that no call passes by name, as "function.parameter".

    An option is a keyword-only parameter of a public function (a name
    without a leading underscore, nested functions and methods included) in
    the defining files. A call in the calling files passes it when it names
    the function, bare or as an attribute, with that keyword or with a **
    argument, which counts as passing every option. Constructors and
    positional-or-keyword parameters are out of scope: a dataclass field or
    a parameter that callers pass by position is not seen here.
    """
    options = [(node.name, arg.arg)
               for path in defining for node in ast.walk(_parse(path))
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
               and not node.name.startswith("_")
               for arg in node.args.kwonlyargs]
    passed = set()
    for path in calling:
        for node in ast.walk(_parse(path)):
            if isinstance(node, ast.Call):
                func = node.func
                name = getattr(func, "id", None) or getattr(func, "attr", None)
                passed.update((name, kw.arg) for kw in node.keywords)
    return sorted(f"{fn}.{arg}" for fn, arg in options
                  if (fn, arg) not in passed and (fn, None) not in passed)


def test_unset_options_finder_sees_names_attributes_and_double_star(tmp_path):
    module = tmp_path / "m.py"
    module.write_text("def f(a, *, x=1, y=2):\n"
                      "    def inner(*, z=0):\n"
                      "        return z\n"
                      "    return inner()\n"
                      "def g(*, w=0):\n"
                      "    return w\n"
                      "def _private(*, v=0):\n"
                      "    return v\n"
                      "class C:\n"
                      "    def method(self, u=0, *, s=0):\n"
                      "        return u + s\n")
    caller = tmp_path / "c.py"
    caller.write_text("import m\n"
                      "m.f(1, x=3)\n"
                      "g(**{})\n"
                      "m.C().method(u=1)\n")
    assert unset_options([module], [module, caller]) == ["f.y", "inner.z", "method.s"]


def test_package_options_are_all_set_somewhere():
    calling = [p for d in ("src", "tests", "benchmark") for p in sorted((ROOT / d).rglob("*.py"))]
    assert unset_options(sorted(SRC.glob("*.py")), calling) == []
