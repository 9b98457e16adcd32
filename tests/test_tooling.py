"""Static checks on the package source, made with the standard library's ast."""

import ast
import builtins
import sys
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


def _targets(node):
    """The names and attributes an assignment statement binds, tuples unpacked."""
    out = []
    stack = (node.targets if isinstance(node, ast.Assign)
             else [node.target] if isinstance(node, ast.AnnAssign) else [])
    while stack:
        t = stack.pop()
        if isinstance(t, (ast.Tuple, ast.List)):
            stack.extend(t.elts)
        else:
            out.append(t)
    return out


def _definitions(tree):
    """Names a module binds at module level, in class bodies and on self in methods."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        names += [t.id for t in _targets(node) if isinstance(t, ast.Name)]
        if not isinstance(node, ast.ClassDef):
            continue
        for member in node.body:
            if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names.append(member.name)
            names += [t.id for t in _targets(member) if isinstance(t, ast.Name)]
            if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)):
                names += [t.attr for stmt in ast.walk(member) for t in _targets(stmt)
                          if isinstance(t, ast.Attribute)
                          and isinstance(t.value, ast.Name) and t.value.id == "self"]
    return names


def dead_private_names(paths):
    """(file, name) of each private definition that nothing in paths reads.

    A private name has a leading underscore and is not a dunder. Its
    definitions are the module-level functions, classes and assignments,
    the methods and assignments of class bodies, and the attributes that
    methods assign on self. A name is read where any file loads it, as a
    bare name or as an attribute, or updates it in place.
    """
    defined, read = [], set()
    for path in paths:
        tree = _parse(path)
        defined += [(path.name, name) for name in _definitions(tree)]
        for node in ast.walk(tree):
            if isinstance(node, ast.AugAssign):
                node = node.target
            elif not isinstance(getattr(node, "ctx", None), ast.Load):
                continue
            read.add(getattr(node, "id", None) or getattr(node, "attr", None))
    return sorted({(f, name) for f, name in defined
                   if name.startswith("_") and not (name.startswith("__") and name.endswith("__"))
                   and name not in read})


def test_dead_private_names_finder_sees_modules_classes_and_self(tmp_path):
    module = tmp_path / "m.py"
    module.write_text("_LIMIT = 1\n"
                      "_UNUSED, _SHARED = 2, 3\n"
                      "__version__ = '1'\n"
                      "def _dead():\n"
                      "    return _LIMIT\n"
                      "class _Ghost:\n"
                      "    pass\n"
                      "class C:\n"
                      "    _slot = 0\n"
                      "    def __init__(self):\n"
                      "        self._kept, self._lost = 1, 2\n"
                      "        self._count = 0\n"
                      "    def run(self):\n"
                      "        self._count += self._kept\n"
                      "        return self._helper()\n"
                      "    def _helper(self):\n"
                      "        return 0\n"
                      "    def _orphan(self):\n"
                      "        return 0\n")
    other = tmp_path / "n.py"
    other.write_text("from m import _SHARED\n"
                     "print(_SHARED)\n")
    assert dead_private_names([module, other]) == [
        ("m.py", "_Ghost"), ("m.py", "_UNUSED"), ("m.py", "_dead"), ("m.py", "_lost"),
        ("m.py", "_orphan"), ("m.py", "_slot")]


def test_package_has_no_dead_private_names():
    assert dead_private_names(sorted(SRC.glob("*.py"))) == []


def foreign_imports(paths, allowed):
    """(file, top-level module) of each absolute import outside allowed, sorted.

    Relative imports are the package's own and always allowed.
    """
    found = set()
    for path in paths:
        for node in ast.walk(_parse(path)):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            found.update((path.name, m.split(".")[0]) for m in modules
                         if m.split(".")[0] not in allowed)
    return sorted(found)


def test_foreign_imports_finder_sees_both_import_forms(tmp_path):
    module = tmp_path / "m.py"
    module.write_text("from __future__ import annotations\n"
                      "import os.path, numpy as np\n"
                      "import scipy.linalg\n"
                      "from mpmath import mp\n"
                      "from . import sibling\n"
                      "from .sibling import name\n"
                      "from ctgp.prior import StateNode\n"
                      "def f():\n"
                      "    import yaml, sympy\n")
    allowed = set(sys.stdlib_module_names) | {"numpy", "yaml", "ctgp"}
    assert foreign_imports([module], allowed) == [
        ("m.py", "mpmath"), ("m.py", "scipy"), ("m.py", "sympy")]


def test_package_imports_only_its_dependencies():
    """The standard library, numpy and yaml (pyproject's dependencies), and itself."""
    allowed = set(sys.stdlib_module_names) | {"numpy", "yaml", "ctgp"}
    assert foreign_imports(sorted(SRC.glob("*.py")), allowed) == []


def test_tests_import_only_declared_dependencies():
    """The package's dependencies and itself, plus pyproject's test extra."""
    allowed = set(sys.stdlib_module_names) | {"numpy", "yaml", "ctgp", "pytest", "scipy", "mpmath"}
    assert foreign_imports(sorted((ROOT / "tests").glob("*.py")), allowed) == []


def export_problems(path):
    """How a package __init__'s __all__ differs from the names it imports.

    __all__ must list exactly the names bound by the module's import
    statements (other than from __future__), in sorted order.
    """
    tree = _parse(path)
    imported = {alias.asname or alias.name.split(".")[0]
                for node in tree.body if isinstance(node, (ast.Import, ast.ImportFrom))
                and getattr(node, "module", None) != "__future__"
                for alias in node.names}
    listed = next((ast.literal_eval(node.value) for node in tree.body
                   if isinstance(node, ast.Assign)
                   and any(isinstance(t, ast.Name) and t.id == "__all__"
                           for t in node.targets)), [])
    problems = [f"not in __all__: {n}" for n in sorted(imported - set(listed))]
    problems += [f"in __all__, not imported: {n}" for n in sorted(set(listed) - imported)]
    if list(listed) != sorted(listed):
        problems.append("__all__ is not sorted")
    return problems


def test_export_finder_sees_missing_stale_and_unsorted_names(tmp_path):
    module = tmp_path / "__init__.py"
    module.write_text("from __future__ import annotations\n"
                      "import os\n"
                      "from .a import Alpha, beta as Beta, gamma\n"
                      "__version__ = '1'\n"
                      "__all__ = ['gamma', 'Alpha', 'Stale', 'os']\n")
    assert export_problems(module) == ["not in __all__: Beta",
                                       "in __all__, not imported: Stale",
                                       "__all__ is not sorted"]


def test_package_exports_exactly_what_it_imports():
    assert export_problems(SRC / "__init__.py") == []


def unreferenced_public_names(defining, reading):
    """(file, name) of each public module-level function, class or constant that no file reads.

    A public name has no leading underscore; a constant is a name that a
    module-level assignment binds. It is read where any of the reading
    files loads it, as a bare name or as an attribute, or imports it by
    name; defining it is not a read.
    """
    defined = []
    for path in defining:
        for node in _parse(path).body:
            names = ([node.name]
                     if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                     else [t.id for t in _targets(node) if isinstance(t, ast.Name)])
            defined += [(path.name, name) for name in names if not name.startswith("_")]
    read = set()
    for path in reading:
        for node in ast.walk(_parse(path)):
            if isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
            elif isinstance(getattr(node, "ctx", None), ast.Load):
                read.add(getattr(node, "id", None) or getattr(node, "attr", None))
    return sorted((f, name) for f, name in defined if name not in read)


def test_unreferenced_public_names_finder_sees_loads_attributes_and_imports(tmp_path):
    module = tmp_path / "m.py"
    module.write_text("LIMIT = 1\n"
                      "STALE, _HIDDEN = 2, 3\n"
                      "def called():\n"
                      "    def nested():\n"
                      "        return LIMIT\n"
                      "    return nested()\n"
                      "def imported():\n"
                      "    return called()\n"
                      "def through_module():\n"
                      "    return 0\n"
                      "def orphan():\n"
                      "    return 0\n"
                      "def _private():\n"
                      "    return 0\n"
                      "class Ghost:\n"
                      "    def method(self):\n"
                      "        return 0\n")
    caller = tmp_path / "c.py"
    caller.write_text("import m\n"
                      "from m import imported\n"
                      "m.through_module()\n")
    assert unreferenced_public_names([module], [module, caller]) == [
        ("m.py", "Ghost"), ("m.py", "STALE"), ("m.py", "orphan")]


def test_package_has_no_unreferenced_public_names():
    reading = [p for d in ("src", "tests", "benchmark") for p in sorted((ROOT / d).rglob("*.py"))]
    assert unreferenced_public_names(sorted(SRC.glob("*.py")), reading) == []


def private_imports(paths):
    """(file, name) of each private name a module imports from a ctgp module, sorted.

    A ctgp module is one reached by a relative import or through the ctgp
    package. A private name has a leading underscore; importing a module
    under a private alias, as in `from . import factors as _factors`, is
    not a private import.
    """
    found = set()
    for path in paths:
        for node in ast.walk(_parse(path)):
            if (isinstance(node, ast.ImportFrom)
                    and (node.level or node.module.split(".")[0] == "ctgp")):
                found.update((path.name, alias.name) for alias in node.names
                             if alias.name.startswith("_"))
    return sorted(found)


def test_private_imports_finder_sees_relative_absolute_and_nested_imports(tmp_path):
    module = tmp_path / "m.py"
    module.write_text("from __future__ import annotations\n"
                      "from numpy import _NoValue\n"
                      "from . import factors as _factors\n"
                      "from .experiment import _pose_columns, write_csv\n"
                      "from ctgp.prior import _T0_TRIPLE as identity\n"
                      "def f():\n"
                      "    from .solver import _iterate\n")
    assert private_imports([module]) == [
        ("m.py", "_T0_TRIPLE"), ("m.py", "_iterate"), ("m.py", "_pose_columns")]


def test_package_modules_import_no_private_names_from_each_other():
    assert private_imports(sorted(SRC.glob("*.py"))) == []


def builtin_raises(paths):
    """(file, line, name) of each raise of a built-in exception class, sorted.

    A raise counts whether it names the class bare or calls it; the
    package's own errors and other modules' classes, reached as attributes,
    do not.
    """
    found = []
    for path in paths:
        for node in ast.walk(_parse(path)):
            if not isinstance(node, ast.Raise):
                continue
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            name = getattr(exc, "id", "")
            cls = getattr(builtins, name, None)
            if isinstance(cls, type) and issubclass(cls, BaseException):
                found.append((path.name, node.lineno, name))
    return sorted(found)


def test_builtin_raises_finder_sees_bare_and_called_classes(tmp_path):
    module = tmp_path / "m.py"
    module.write_text("import numpy as np\n"
                      "class OwnError(Exception):\n"
                      "    pass\n"
                      "def f(x):\n"
                      "    if x:\n"
                      "        raise ValueError('x')\n"
                      "    try:\n"
                      "        raise OwnError('y')\n"
                      "    except OwnError as err:\n"
                      "        raise RuntimeError from err\n"
                      "    except KeyError:\n"
                      "        raise\n"
                      "    raise np.linalg.LinAlgError('z')\n"
                      "def g(err):\n"
                      "    raise err\n"
                      "def h():\n"
                      "    raise NotImplementedError\n")
    assert builtin_raises([module]) == [
        ("m.py", 6, "ValueError"), ("m.py", 10, "RuntimeError"),
        ("m.py", 17, "NotImplementedError")]


def test_package_raises_only_its_own_errors():
    """The typed errors of ctgp.errors name what went wrong; a built-in class does not."""
    assert builtin_raises(sorted(SRC.glob("*.py"))) == []


def segments_reads(paths):
    """(file, line) of each read of a .segments attribute, sorted."""
    return sorted((path.name, node.lineno) for path in paths for node in ast.walk(_parse(path))
                  if isinstance(node, ast.Attribute) and node.attr == "segments"
                  and isinstance(node.ctx, ast.Load))


def test_segments_reads_finder_sees_attribute_loads_only(tmp_path):
    module = tmp_path / "m.py"
    module.write_text("segments = []\n"
                      "def f(profile, other):\n"
                      "    for seg in profile.segments:\n"
                      "        segments.append(seg)\n"
                      "    other.segments = segments\n"
                      "    return getattr(profile, 'x').segments[0]\n")
    assert segments_reads([module]) == [("m.py", 3), ("m.py", 6)]


def test_only_inputs_reads_profile_segments():
    """The block build, the queries and the simulators read a profile's stacked arrays."""
    assert segments_reads([p for p in sorted(SRC.glob("*.py")) if p.name != "inputs.py"]) == []


ROW_FIELDS = {"pose", "velocity", "covariance"}


def _scoped_nodes(node, scope=""):
    """(function, node) for every node below node.

    function is the qualified name of the innermost function or class
    enclosing the node, "" at module level.
    """
    for child in ast.iter_child_nodes(node):
        yield scope, child
        inner = scope
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inner = f"{scope}.{child.name}" if scope else child.name
        yield from _scoped_nodes(child, inner)


def _restacks(comp, fields):
    """Whether the comprehension reads one of fields off its loop variable."""
    names = {n.id for gen in comp.generators for n in ast.walk(gen.target)
             if isinstance(n, ast.Name)}
    return any(isinstance(a, ast.Attribute) and a.attr in fields
               and isinstance(a.value, ast.Name) and a.value.id in names
               for a in ast.walk(comp))


def row_restacks(paths, fields=ROW_FIELDS):
    """(file, function, line) of each comprehension that reads a row field of its loop variable.

    A row field is one of fields, by default .pose, .velocity or
    .covariance; function is as in _scoped_nodes. Such a comprehension
    rebuilds a stack of rows one by one.
    """
    comprehensions = (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)
    return sorted((path.name, scope, node.lineno)
                  for path in paths for scope, node in _scoped_nodes(_parse(path))
                  if isinstance(node, comprehensions) and _restacks(node, fields))


def test_row_restacks_finder_sees_loop_variable_fields_in_every_comprehension(tmp_path):
    module = tmp_path / "m.py"
    module.write_text("def f(results, other):\n"
                      "    a = [q.pose for q in results]\n"
                      "    b = {i: q.covariance for i, q in enumerate(results)}\n"
                      "    c = [other.velocity for q in results]\n"
                      "    return sum(q.time for q in results)\n"
                      "class C:\n"
                      "    def stack(self, rows):\n"
                      "        return list(r.velocity[0] for r in rows)\n"
                      "TOP = [n.pose.rotation for n in []]\n")
    assert row_restacks([module]) == [("m.py", "", 9), ("m.py", "C.stack", 8),
                                      ("m.py", "f", 2), ("m.py", "f", 3)]


def test_no_package_comprehension_restacks_state_rows():
    """Stacked states are read as arrays; only NodeArrays.stack takes caller-given StateNodes."""
    found = row_restacks(sorted(SRC.glob("*.py")))
    assert [f for f in found if f[:2] != ("prior.py", "NodeArrays.stack")] == []


INTERVAL_FIELDS = {"t0", "t1", "phi", "input_full", "q_full_inv"}


def test_row_restacks_finder_sees_interval_fields_of_the_loop_variable(tmp_path):
    module = tmp_path / "m.py"
    module.write_text("def f(blocks, other):\n"
                      "    a = [b.t0 for b in blocks]\n"
                      "    c = (b.profile.t0 for b in blocks)\n"
                      "    d = {k: b.q_full_inv for k, b in enumerate(blocks)}\n"
                      "    return [other.phi for b in blocks], a, c, d\n"
                      "class IntervalArrays:\n"
                      "    def stack(cls, rows):\n"
                      "        return [b.input_full for b in rows], [b.pose for b in rows]\n")
    assert row_restacks([module], INTERVAL_FIELDS) == [
        ("m.py", "IntervalArrays.stack", 8), ("m.py", "f", 2), ("m.py", "f", 4)]


def test_no_package_comprehension_restacks_interval_rows():
    """Stacked intervals are read as arrays; only IntervalArrays.stack takes caller-given rows."""
    found = row_restacks(sorted(SRC.glob("*.py")), INTERVAL_FIELDS)
    assert [f for f in found if f[:2] != ("prior.py", "IntervalArrays.stack")] == []


def interval_builds(paths):
    """(file, function, line) of each IntervalBlocks(...) call and each .compose read.

    function is as in _scoped_nodes. Either one builds intervals one at a
    time, or composes them one coarse interval at a time.
    """
    def names_blocks(func):
        return ((isinstance(func, ast.Name) and func.id == "IntervalBlocks")
                or (isinstance(func, ast.Attribute) and func.attr == "IntervalBlocks"))

    return sorted((path.name, scope, node.lineno)
                  for path in paths for scope, node in _scoped_nodes(_parse(path))
                  if (isinstance(node, ast.Call) and names_blocks(node.func))
                  or (isinstance(node, ast.Attribute) and node.attr == "compose"
                      and isinstance(node.ctx, ast.Load)))


def test_interval_builds_finder_sees_block_calls_and_compose_reads(tmp_path):
    module = tmp_path / "m.py"
    module.write_text("from ctgp import prior\n"
                      "from ctgp.prior import IntervalBlocks\n"
                      "def f(profile, hyper, fine):\n"
                      "    a = IntervalBlocks(profile, hyper)\n"
                      "    b = prior.IntervalBlocks(profile, hyper, force_general=True)\n"
                      "    merge = IntervalBlocks.compose\n"
                      "    return a, b, merge(fine), [IntervalBlocks] + fine\n"
                      "class Grid:\n"
                      "    def coarse(self, fine):\n"
                      "        self.compose = None\n"
                      "        return fine.coarsen(2), fine[0].compose(fine)\n")
    assert interval_builds([module]) == [("m.py", "Grid.coarse", 11), ("m.py", "f", 4),
                                         ("m.py", "f", 5), ("m.py", "f", 6)]


def test_package_builds_intervals_only_in_one_pass_or_by_coarsening():
    """Outside prior.py, intervals come from precompute_intervals and IntervalArrays.coarsen.

    The one .compose read left is Pose's own, behind its @ operator.
    """
    found = interval_builds(p for p in sorted(SRC.glob("*.py")) if p.name != "prior.py")
    assert [f[:2] for f in found] == [("liegroup.py", "Pose.__matmul__")]


INTERVAL_NAMES = {"blocks", "blocks_list", "intervals"}


def interval_row_queries(paths):
    """(file, function, line) of each interval query made one row at a time.

    That is a call of an .at attribute, other than a NumPy ufunc's (np.add.at
    and the like, an attribute of np or numpy), or a comprehension that
    subscripts something named blocks, blocks_list or intervals with one of
    its loop variables. function is as in _scoped_nodes.
    """
    def ufunc_at(func):
        owner = func.value
        return (isinstance(owner, ast.Attribute) and isinstance(owner.value, ast.Name)
                and owner.value.id in ("np", "numpy"))

    def indexes_rows(comp):
        names = {n.id for gen in comp.generators for n in ast.walk(gen.target)
                 if isinstance(n, ast.Name)}
        return any(isinstance(s, ast.Subscript)
                   and (getattr(s.value, "id", None) or getattr(s.value, "attr", None))
                   in INTERVAL_NAMES
                   and any(isinstance(n, ast.Name) and n.id in names for n in ast.walk(s.slice))
                   for s in ast.walk(comp))

    comprehensions = (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)
    return sorted((path.name, scope, node.lineno)
                  for path in paths for scope, node in _scoped_nodes(_parse(path))
                  if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                      and node.func.attr == "at" and not ufunc_at(node.func))
                  or (isinstance(node, comprehensions) and indexes_rows(node)))


def test_interval_row_queries_finder_sees_at_calls_and_row_comprehensions(tmp_path):
    module = tmp_path / "m.py"
    module.write_text("import numpy as np\n"
                      "def f(blocks, intervals, k, taus, d):\n"
                      "    qb = blocks.at(taus[0])\n"
                      "    np.add.at(d, k, 1.0)\n"
                      "    numpy.subtract.at(d, k, 1.0)\n"
                      "    rows = [intervals[i] for i in k]\n"
                      "    times = [taus[i] for i in k]\n"
                      "    return qb, rows, times, {i: intervals.at(t) for i, t in taus}\n"
                      "class T:\n"
                      "    def many(self, k):\n"
                      "        return list(self.blocks[i + 1] for i in k), self.blocks[0]\n")
    assert interval_row_queries([module]) == [("m.py", "T.many", 11), ("m.py", "f", 3),
                                              ("m.py", "f", 6), ("m.py", "f", 8)]


def test_package_queries_intervals_only_in_stacked_calls():
    """Outside prior.py every query goes through IntervalArrays.query (query_rows).

    IntervalBlocks.at is its batch of one, kept for the callers in prior.py;
    the solver's np.add.at is a ufunc's and not an interval's.
    """
    found = interval_row_queries(p for p in sorted(SRC.glob("*.py")) if p.name != "prior.py")
    assert found == []


POSTERIOR_BUILDERS = {"chain_covariance", "QueryResult", "QueryArrays"}


def posterior_builds(paths):
    """(file, function, name) of each call of chain_covariance, QueryResult or QueryArrays.

    A call counts whether it names the function bare or as an attribute;
    function is as in _scoped_nodes.
    """
    return sorted((path.name, scope, name)
                  for path in paths for scope, node in _scoped_nodes(_parse(path))
                  if isinstance(node, ast.Call)
                  and (name := getattr(node.func, "id", None) or getattr(node.func, "attr", None))
                  in POSTERIOR_BUILDERS)


def test_posterior_builds_finder_sees_bare_and_attribute_calls(tmp_path):
    module = tmp_path / "m.py"
    module.write_text("from ctgp import interpolation\n"
                      "from ctgp.interpolation import QueryResult, chain_covariance\n"
                      "def f(rows, ch, covs, cross):\n"
                      "    a = chain_covariance(rows, ch, covs, cross)\n"
                      "    b = interpolation.QueryArrays(*a)\n"
                      "    return a, b, QueryResult, [chain_covariance]\n"
                      "class Copy:\n"
                      "    def row(self, q):\n"
                      "        return QueryResult(q.time, q.pose, q.bias, q.velocity)\n")
    assert posterior_builds([module]) == [("m.py", "Copy.row", "QueryResult"),
                                          ("m.py", "f", "QueryArrays"),
                                          ("m.py", "f", "chain_covariance")]


def test_package_asks_the_posterior_only_through_trajectory():
    """Trajectory.query_many makes every posterior covariance and every QueryArrays.

    A QueryResult is a row of a QueryArrays; nothing else in the package
    builds one.
    """
    assert posterior_builds(sorted(SRC.glob("*.py"))) == [
        ("interpolation.py", "QueryArrays.__getitem__", "QueryResult"),
        ("interpolation.py", "Trajectory.query_many", "QueryArrays"),
        ("interpolation.py", "Trajectory.query_many", "chain_covariance")]


def prior_copies(paths):
    """(file, function, what) of each IntervalArrays.stack call and each interval-typed field.

    A call of .stack counts when it is made on IntervalArrays, bare or as a
    module attribute. A field is an annotated name in a class body whose
    annotation names IntervalBlocks or IntervalArrays, and what is then
    "Class.field"; function is as in _scoped_nodes. Either one holds a copy
    of a prior's intervals beside the problem's own.
    """
    def names_arrays(node):
        return (getattr(node, "id", None) or getattr(node, "attr", None)) == "IntervalArrays"

    def names_intervals(annotation):
        return any((getattr(n, "id", None) or getattr(n, "attr", None))
                   in ("IntervalBlocks", "IntervalArrays")
                   or (isinstance(n, ast.Constant) and isinstance(n.value, str)
                       and ("IntervalBlocks" in n.value or "IntervalArrays" in n.value))
                   for n in ast.walk(annotation))

    found = []
    for path in paths:
        for scope, node in _scoped_nodes(_parse(path)):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "stack" and names_arrays(node.func.value)):
                found.append((path.name, scope, "IntervalArrays.stack"))
            elif isinstance(node, ast.ClassDef):
                found += [(path.name, node.name, f"{node.name}.{item.target.id}")
                          for item in node.body
                          if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
                          and names_intervals(item.annotation)]
    return sorted(found)


def test_prior_copies_finder_sees_stack_calls_and_interval_fields(tmp_path):
    module = tmp_path / "m.py"
    module.write_text("from ctgp import prior\n"
                      "from ctgp.prior import IntervalArrays, IntervalBlocks\n"
                      "def f(rows, other):\n"
                      "    a = IntervalArrays.stack(rows)\n"
                      "    b = prior.IntervalArrays.stack(rows)\n"
                      "    return a, b, other.stack(rows), IntervalArrays.stack\n"
                      "class Factor:\n"
                      "    index: int\n"
                      "    blocks: IntervalBlocks\n"
                      "    spare: 'prior.IntervalArrays | None' = None\n"
                      "    others: list[prior.IntervalBlocks]\n"
                      "    def evaluate(self, nodes, intervals: IntervalArrays):\n"
                      "        local: IntervalBlocks = intervals[self.index]\n"
                      "        return local\n")
    assert prior_copies([module]) == [
        ("m.py", "Factor", "Factor.blocks"), ("m.py", "Factor", "Factor.others"),
        ("m.py", "Factor", "Factor.spare"),
        ("m.py", "f", "IntervalArrays.stack"), ("m.py", "f", "IntervalArrays.stack")]


def test_package_reads_one_prior_per_problem():
    """Caller-given intervals are stacked only where they enter, and no factor holds its own.

    Problem and Trajectory take a caller's intervals, prior_factor_batch and
    IntervalBlocks.compose are batches over given rows; an interpolated
    factor reads the problem's IntervalArrays.
    """
    assert prior_copies(sorted(SRC.glob("*.py"))) == [
        ("factors.py", "prior_factor_batch", "IntervalArrays.stack"),
        ("interpolation.py", "Trajectory.__init__", "IntervalArrays.stack"),
        ("prior.py", "IntervalBlocks.compose", "IntervalArrays.stack"),
        ("solver.py", "Problem.__init__", "IntervalArrays.stack")]
