"""Source hygiene checks, on src/qsecfan and tests, that need no linter,
and a check that calibrations are freed without the cycle collector."""

import ast
import gc
import json
import re
import sys
import weakref
from pathlib import Path

import pytest

from qsecfan import (
    Calibration,
    chamber_of,
    cobordism_from_path,
    enumerate_chambers,
    linalg,
    polytope,
    secondary,
)
from qsecfan.cli import main
from qsecfan.scalar import MinorTable

from conftest import cal_of, segment

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "qsecfan"


def unused_module_imports(path):
    """(line, name) of each module-level import whose bound name is never
    read in the module; imports inside a module-level try count too."""
    tree = ast.parse(path.read_text())
    imported = {}

    def collect(body):
        for node in body:
            if isinstance(node, ast.Try):
                for block in [node.body, node.orelse] + [h.body for h in node.handlers]:
                    collect(block)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                    continue
                for alias in node.names:
                    imported[alias.asname or alias.name.split(".")[0]] = node.lineno

    collect(tree.body)
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in read)


def test_no_unused_module_level_imports():
    modules = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
    tests = sorted(TESTS.glob("*.py"))
    assert modules and tests
    unused = {str(p.relative_to(TESTS.parent)): unused_module_imports(p)
              for p in modules + tests}
    assert {name: found for name, found in unused.items() if found} == {}


def test_the_scan_sees_an_unused_import(tmp_path):
    src = tmp_path / "mod.py"
    src.write_text("from __future__ import annotations\n"
                   "import os\nfrom math import gcd, lcm\n"
                   "try:\n    import json\nexcept ImportError:\n    json = None\n"
                   "print(gcd(os.sep, json))\n")
    assert unused_module_imports(src) == [(3, "lcm")]


def third_party_imports(path):
    """(line, module) of each import, at any depth, that is neither
    relative nor of a standard-library module (sys.stdlib_module_names),
    judged by its top-level package; the package's own absolute imports
    count as third party too."""
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules = [node.module]
        else:
            continue
        found += [(node.lineno, name) for name in modules
                  if name.split(".")[0] not in sys.stdlib_module_names]
    return sorted(found)


def test_src_imports_only_the_standard_library():
    """qsecfan has no dependencies: no optional backend sits beside the
    standard library's."""
    found = {p.name: third_party_imports(p) for p in sorted(SRC.glob("*.py"))}
    assert {name: imports for name, imports in found.items() if imports} == {}


def test_the_scan_sees_a_third_party_import(tmp_path):
    src = tmp_path / "mod.py"
    src.write_text("from __future__ import annotations\n"
                   "import os.path, numpy as np\n"
                   "from fractions import Fraction\n"
                   "from . import lp\n"
                   "from .scalar import Scalar\n"
                   "try:\n    from gmpy2 import mpq\nexcept ImportError:\n    mpq = None\n"
                   "def f():\n    import qsecfan.linalg\n")
    assert third_party_imports(src) == [(2, "numpy"), (7, "gmpy2"), (11, "qsecfan.linalg")]


def function_local_imports(path):
    """(enclosing definitions, line, statement) of each import inside a
    function or method body, at any depth; imports at module or class
    level are not listed."""
    found = []

    def visit(node, scope, in_function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                is_def = not isinstance(child, ast.ClassDef)
                visit(child, scope + [child.name], in_function or is_def)
            elif isinstance(child, (ast.Import, ast.ImportFrom)) and in_function:
                names = ", ".join(alias.name for alias in child.names)
                if isinstance(child, ast.ImportFrom):
                    stmt = f"from {'.' * child.level}{child.module or ''} import {names}"
                else:
                    stmt = f"import {names}"
                found.append((".".join(scope), child.lineno, stmt))
            else:
                visit(child, scope, in_function)

    visit(ast.parse(path.read_text()), [], False)
    return found


def test_no_function_local_imports_in_src():
    found = {(p.name, scope, stmt)
             for p in sorted(SRC.glob("*.py"))
             for scope, _, stmt in function_local_imports(p)}
    assert found == set()


def test_the_scan_sees_a_function_local_import(tmp_path):
    src = tmp_path / "mod.py"
    src.write_text("import os\n"
                   "def f():\n    import json, re\n"
                   "    def g():\n        from . import lp\n"
                   "class C:\n    from math import pi\n"
                   "    async def m(self):\n        from .polytope import HPolytope as H\n"
                   "try:\n    import gmpy2\nexcept ImportError:\n    gmpy2 = None\n")
    assert function_local_imports(src) == [
        ("f", 3, "import json, re"),
        ("f.g", 5, "from . import lp"),
        ("C.m", 9, "from .polytope import HPolytope"),
    ]


def indented_json_calls(path):
    """(line, call) of each call of json.dump or json.dumps with an indent
    keyword: through the module under any alias, or through a name imported
    from it.  CPython runs its pure-Python encoder for such a call."""
    tree = ast.parse(path.read_text())
    modules, functions = set(), {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update(alias.asname or alias.name for alias in node.names
                           if alias.name == "json")
        elif isinstance(node, ast.ImportFrom) and node.module == "json":
            functions.update((alias.asname or alias.name, alias.name) for alias in node.names
                             if alias.name in ("dump", "dumps"))
    found = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and any(k.arg == "indent" for k in node.keywords)):
            continue
        f = node.func
        if isinstance(f, ast.Attribute) and f.attr in ("dump", "dumps") \
                and isinstance(f.value, ast.Name) and f.value.id in modules:
            found.append((node.lineno, f"json.{f.attr}"))
        elif isinstance(f, ast.Name) and f.id in functions:
            found.append((node.lineno, f"json.{functions[f.id]}"))
    return sorted(found)


def test_no_indented_json_dumps_in_src():
    """The CLI writes its indented documents itself; json.dumps with indent
    would bring back the slow encoder."""
    found = {p.name: indented_json_calls(p) for p in sorted(SRC.glob("*.py"))}
    assert {name: calls for name, calls in found.items() if calls} == {}


def test_the_scan_sees_an_indented_json_dumps(tmp_path):
    src = tmp_path / "mod.py"
    src.write_text("import json\nimport json as j\nfrom json import dumps as d, loads\n"
                   "def f(x, fh, other):\n"
                   "    json.dumps(x, sort_keys=True, indent=2)\n"
                   "    j.dump(x, fh, indent=None)\n"
                   "    d(x, indent=4)\n"
                   "    json.dumps(x, sort_keys=True)\n"
                   "    other.dumps(x, indent=2)\n"
                   "    loads(x)\n")
    assert indented_json_calls(src) == [(5, "json.dumps"), (6, "json.dump"), (7, "json.dumps")]


SCALAR_FIELDS = frozenset({"_p", "_q", "_den", "_m"})


def scalar_field_reads(path):
    """(line, attribute) of each access to an attribute named like one of
    Scalar's integer fields, on any object; a getattr by string is not seen."""
    return sorted((node.lineno, node.attr) for node in ast.walk(ast.parse(path.read_text()))
                  if isinstance(node, ast.Attribute) and node.attr in SCALAR_FIELDS)


def test_only_scalar_reads_the_integer_fields():
    """scalar.py owns the (p, q, den, m) coding; every other module goes
    through Scalar's methods or scalar.encode and scalar.dot_sign."""
    found = {p.name: scalar_field_reads(p) for p in sorted(SRC.glob("*.py"))}
    assert found.pop("scalar.py")
    assert {name: reads for name, reads in found.items() if reads} == {}


def test_the_scan_sees_a_scalar_field_read(tmp_path):
    src = tmp_path / "mod.py"
    src.write_text("def f(x, y):\n    _m = x.m\n    return x._p * y._den, getattr(x, '_q')\n"
                   "class C:\n    _q = 1\n    def g(self):\n        self._m = self._mm\n")
    assert scalar_field_reads(src) == [(3, "_den"), (3, "_p"), (7, "_m")]


def names_read(node):
    """Each name node reads, at any depth: as a name, an attribute or an
    imported name."""
    for child in ast.walk(node):
        if isinstance(child, ast.Name) and isinstance(child.ctx, ast.Load):
            yield child.id
        elif isinstance(child, ast.Attribute):
            yield child.attr
        elif isinstance(child, ast.ImportFrom):
            yield from (alias.name for alias in child.names)


def unread_private_definitions(paths):
    """(file name, name) of each module-level private def or class (one
    leading underscore) that no other module-level statement of any of the
    files reads: as a name, an attribute or an imported name.  Reads
    inside the definition itself, such as recursion, do not count."""
    defined, read = [], set()
    for path in paths:
        for stmt in ast.parse(path.read_text()).body:
            own = None
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) \
                    and stmt.name.startswith("_") and not stmt.name.startswith("__"):
                own = stmt.name
                defined.append((path.name, own))
            read.update(name for name in names_read(stmt) if name != own)
    return sorted((file, name) for file, name in defined if name not in read)


def test_every_private_definition_in_src_is_read():
    """A retired code path leaves no private helper behind."""
    assert unread_private_definitions(sorted(SRC.glob("*.py"))) == []


def test_the_scan_sees_an_unread_private_definition(tmp_path):
    (tmp_path / "a.py").write_text(
        "def _used():\n    return 1\n"
        "def _dead():\n    return _used()\n"
        "def _recursive(k):\n    return _recursive(k - 1) if k else 0\n"
        "class _Kept:\n    pass\n"
        "class _Unread:\n    def _method(self):\n        return 0\n"
        "def __getattr__(name):\n    raise AttributeError(name)\n"
        "_CONSTANT = 3\n")
    (tmp_path / "b.py").write_text(
        "from .a import _Kept\n"
        "import a\n"
        "def public():\n    return a._used(), _Kept\n")
    assert unread_private_definitions([tmp_path / "a.py", tmp_path / "b.py"]) == [
        ("a.py", "_Unread"), ("a.py", "_dead"), ("a.py", "_recursive")]


def unreferenced_public_definitions(module, users):
    """Each module-level public def or class of module (no leading
    underscore) that no file of users reads, sorted."""
    defined = [stmt.name for stmt in ast.parse(module.read_text()).body
               if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
               and not stmt.name.startswith("_")]
    read = {name for path in users for name in names_read(ast.parse(path.read_text()))}
    return sorted(name for name in defined if name not in read)


def test_every_reference_route_is_read_by_a_test():
    """A retired route stays in reference_geometry.py only while some
    differential test compares against it."""
    users = sorted(TESTS.glob("test_*.py"))
    assert users
    assert unreferenced_public_definitions(TESTS / "reference_geometry.py", users) == []


def test_the_scan_sees_an_unreferenced_public_definition(tmp_path):
    (tmp_path / "ref.py").write_text(
        "def used():\n    return 1\n"
        "def via_attribute():\n    return 2\n"
        "def only_internal():\n    return used()\n"
        "class Kept:\n    pass\n"
        "class Unread:\n    def method(self):\n        return 0\n"
        "def _private():\n    return 3\n"
        "async def unread_async():\n    return 4\n")
    (tmp_path / "test_a.py").write_text(
        "from ref import used, Kept\n"
        "import ref\n"
        "def test_x():\n    only_internal = ref.via_attribute()\n"
        "    assert used() and Kept\n")
    assert unreferenced_public_definitions(tmp_path / "ref.py", [tmp_path / "test_a.py"]) == [
        "Unread", "only_internal", "unread_async"]


ELIMINATION = frozenset({"rref", "solve_unique", "inverse"})


def elimination_imports(path):
    """(line, name) of each import of rref, solve_unique or inverse, from
    any module and under any alias, and of each read of one as an
    attribute of a name linalg (after from . import linalg)."""
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom):
            found += [(node.lineno, alias.name) for alias in node.names
                      if alias.name in ELIMINATION]
        elif isinstance(node, ast.Attribute) and node.attr in ELIMINATION \
                and isinstance(node.value, ast.Name) and node.value.id == "linalg":
            found.append((node.lineno, node.attr))
    return sorted(found)


def test_elimination_stays_in_linalg():
    """Row reduction is linalg's own: every other module reads ranks,
    kernels, brackets and cached inverses instead."""
    found = {p.name: elimination_imports(p) for p in sorted(SRC.glob("*.py"))
             if p.name != "linalg.py"}
    assert "polytope.py" in found
    assert {name: imports for name, imports in found.items() if imports} == {}


def test_the_scan_sees_an_elimination_import(tmp_path):
    src = tmp_path / "mod.py"
    src.write_text("from .linalg import Matrix, rref as _rref, vec\n"
                   "from . import linalg\n"
                   "from qsecfan.linalg import inverse\n"
                   "def f(M, b, obj):\n"
                   "    from .linalg import solve_unique\n"
                   "    return linalg.solve_unique(M, b), linalg.rank(M), obj.inverse\n")
    assert elimination_imports(src) == [(1, "rref"), (3, "inverse"), (5, "solve_unique"),
                                        (6, "solve_unique")]


def scoped_reads(path, hit):
    """(enclosing definitions, line) of each node for which hit is true."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, scope + [child.name])
                continue
            if hit(child):
                found.append((".".join(scope), child.lineno))
            visit(child, scope)

    visit(ast.parse(path.read_text()), [])
    return sorted(found)


def attribute_reads(path, attr):
    """(enclosing definitions, line) of each access to an attribute named
    attr, on any object; a getattr by string is not seen."""
    return scoped_reads(path, lambda n: isinstance(n, ast.Attribute) and n.attr == attr)


def name_reads(path, name):
    """(enclosing definitions, line) of each read of a bare name or an
    attribute called name: an import is not a read."""
    return sorted(scoped_reads(path, lambda n: isinstance(n, ast.Name)
                               and isinstance(n.ctx, ast.Load) and n.id == name)
                  + attribute_reads(path, name))


def test_only_the_vertex_oracle_reads_the_basis_inverses():
    """Every other simplicial cone question reads the brackets and the codes
    of the hyperplane normals; only census classification needs a full
    M_J^{-1}."""
    found = {(p.name, scope) for p in sorted(SRC.glob("*.py"))
             for scope, _ in attribute_reads(p, "basis_inverses")}
    assert found == {("polytope.py", "VertexOracle.__init__")}


SCALAR_CIRCUIT_READERS = {("linalg.py", "Calibration.chamber_form"),
                          ("linalg.py", "Calibration.wall_normals"),
                          ("projective.py", "projective_certificate")}
CIRCUIT_SIGN_READERS = {("linalg.py", "Calibration.positively_spanning"),
                        ("projective.py", "projective_certificate"),
                        ("secondary.py", "_wall_of")}


def scoped_attribute_reads(attr, modules=None):
    """(file name, enclosing definitions) of each read of attr in src/."""
    paths = sorted(SRC.glob("*.py")) if modules is None else [SRC / m for m in modules]
    return {(p.name, scope) for p in paths for scope, _ in attribute_reads(p, attr)}


def test_every_circuit_is_read_off_the_circuit_table():
    """Chamber forms, wall normals and projective certificates build the
    Scalar entries of c_S one S at a time off the minor table, and nothing
    else does; positive spanning, certificates and walls read the signs of
    c_S off the chirotope; no sign is read off a Scalar bracket or a
    Scalar hyperplane normal; nothing reads the brackets by index, the
    Gale rows or a kernel for a circuit."""
    assert not hasattr(Calibration, "_circuit") and not hasattr(Calibration, "bracket_code")
    assert not hasattr(MinorTable, "scalar_circuit")
    modules = ("linalg.py", "polytope.py", "fan.py", "secondary.py", "projective.py")
    # secondary reads only the circuit field of a Wall
    assert scoped_attribute_reads("circuit", modules) == SCALAR_CIRCUIT_READERS | \
        {("secondary.py", "_classify_crossing"), ("secondary.py", "Wall.to_json")}
    assert scoped_attribute_reads("circuit_signs") == CIRCUIT_SIGN_READERS
    # Scalar brackets and normals only where they make the columns of an
    # inverse, and Scalar normals where they are facet normals
    assert scoped_attribute_reads("brackets", modules) == \
        {("linalg.py", "Calibration.basis_inverses")}
    assert scoped_attribute_reads("normal", ("linalg.py", "fan.py")) == \
        {("linalg.py", "Calibration.basis_inverses"), ("fan.py", "_cone_hrep"),
         ("fan.py", "_cone_intersection_rays")}
    assert {scope for _, scope in scoped_attribute_reads("chirotope")} >= \
        {"basis_scan", "_chamber_inequality", "Calibration.inverse_codes",
         "Calibration.circuit_signs"}
    assert not hasattr(Calibration, "bracket_index")
    assert scoped_attribute_reads("bracket_index") == set()
    assert [at for name in ("gale", "rows") for at in attribute_reads(SRC / "linalg.py", name)
            if at[0] == "Calibration.wall_normals"] == []
    # walls read their circuit off the table too: only the deficient-span
    # witnesses, which are not circuits, take a kernel
    assert not hasattr(secondary, "_wall_circuit")
    assert {scope for scope, _ in name_reads(SRC / "secondary.py", "kernel_basis")} == \
        {"degenerate_span_witnesses"}


def test_the_scan_sees_an_attribute_read(tmp_path):
    src = tmp_path / "mod.py"
    src.write_text("def basis_inverses(cal):\n    return cal.basis_inverses\n"
                   "class C:\n    def f(self, cal):\n        def g():\n"
                   "            return self.cal.basis_inverses.items()\n"
                   "        return getattr(cal, 'basis_inverses'), g\n"
                   "x = [c.basis_inverses for c in ()]\n")
    assert attribute_reads(src, "basis_inverses") == [("", 8), ("C.f.g", 6),
                                                      ("basis_inverses", 2)]
    src.write_text("from m import kernel_basis\ndef f(A):\n    kernel_basis = g(A)\n"
                   "    return kernel_basis, m.kernel_basis(A)\nh = kernel_basis\n")
    assert name_reads(src, "kernel_basis") == [("", 5), ("f", 4), ("f", 4)]


def circuit_code_reads(path):
    """(enclosing definitions, line) of each read of an entry of a table
    named circuits (a name or an attribute), which holds codes alone: a
    subscript circuits[S], or a call of its items() or values().  Its
    keys and its length are no code."""
    def is_table(node):
        return isinstance(node, ast.Name) and node.id == "circuits" or \
            isinstance(node, ast.Attribute) and node.attr == "circuits"

    def hit(node):
        if isinstance(node, ast.Subscript):
            return is_table(node.value)
        return isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
            and is_table(node.func.value) and node.func.attr in ("items", "values")

    return scoped_reads(path, hit)


SCAN_READERS = {"HPolytope._vertices", "normal_fan", "chamber_of", "_sample_census"}


def test_one_vertex_test_for_every_parameter_polytope():
    """basis_scan is the one per-basis vertex test: it alone reads the
    circuit codes, signed against b, and the vertices of an HPolytope, the
    normal fan, chamber_of and the census all call it; none of them reads
    the Gale transform to reach chi, and no chi-space code table is left."""
    assert not hasattr(Calibration, "chamber_codes") and not hasattr(polytope, "_lifted_sign")
    paths = sorted(SRC.glob("*.py"))
    assert {(p.name, scope) for p in paths for scope, _ in circuit_code_reads(p)} == \
        {("polytope.py", "basis_scan")}
    assert {scope for p in paths for scope, _ in name_reads(p, "basis_scan")} == SCAN_READERS
    assert [(p.name, scope) for p in paths for scope, _ in attribute_reads(p, "gale_t")
            if scope in SCAN_READERS] == []


def test_the_scan_sees_a_circuit_code_read(tmp_path):
    """Every read of the table is seen, the reads of Scalar entries and of
    (entries, code) pairs that the table once held among them."""
    src = tmp_path / "mod.py"
    src.write_text("def entries(cal, S):\n    return cal.circuits[S][0]\n"
                   "def scan(cal, S):\n    circuits = cal.circuits\n    return circuits[S]\n"
                   "def spanning(cal):\n    for S, (c, _) in cal.circuits.items():\n"
                   "        yield c\n"
                   "def unpacked(cal):\n"
                   "    return [code for S, (c, code) in cal.circuits.items()]\n"
                   "def pairs(cal, S):\n    c, code = cal.circuits[S]\n"
                   "    return [p for p in cal.circuits.values()], c.gale_t\n"
                   "def keys(cal):\n    return list(cal.circuits), len(cal.circuits)\n")
    assert circuit_code_reads(src) == [("entries", 2), ("pairs", 12), ("pairs", 13),
                                       ("scan", 5), ("spanning", 7), ("unpacked", 10)]
    assert attribute_reads(src, "gale_t") == [("pairs", 13)]


SCALAR_ROUTES = ("minor", "cofactor_normal", "vscale", "vadd")
TABLE_READERS = {"Calibration.brackets", "Calibration.hyperplane_normals", "_basic_point"}


def scalar_route_reads(path, readers=TABLE_READERS):
    """(reader, name) of each read, inside one of the readers, of a Scalar
    route to a minor or a basic point: minor, cofactor_normal, vscale or vadd."""
    return sorted({(scope, name) for name in SCALAR_ROUTES
                   for scope, _ in name_reads(path, name) if scope in readers})


def test_the_minor_table_readers_take_no_scalar_route():
    """The brackets, the hyperplane normals and the basic points are read
    off the integer minor table, built once per calibration in scalar.py."""
    assert not hasattr(linalg, "minor") and not hasattr(linalg, "cofactor_normal")
    paths = (SRC / "linalg.py", SRC / "polytope.py")
    assert {scope for p in paths for scope, _ in name_reads(p, "minor_table")} >= TABLE_READERS
    assert [found for p in paths for found in scalar_route_reads(p)] == []


def test_the_scan_sees_a_scalar_route(tmp_path):
    src = tmp_path / "mod.py"
    src.write_text("from .linalg import minor, vadd, vscale\n"
                   "class Calibration:\n"
                   "    def brackets(self):\n        return minor(self.rows), self.minor_table\n"
                   "    def hyperplane_normals(self):\n"
                   "        return [linalg.cofactor_normal(r, 2) for r in self.rows]\n"
                   "def _basic_point(cal, J, b):\n    return vadd(b, b)\n"
                   "def other(x):\n    return vscale(2, minor(x))\n")
    assert scalar_route_reads(src) == [("Calibration.brackets", "minor"),
                                       ("Calibration.hyperplane_normals", "cofactor_normal"),
                                       ("_basic_point", "vadd")]


LAYERS = ("errors", "scalar", "linalg", "lp", "polytope", "fan", "secondary", "projective",
          "cli")


def upward_imports(path, layers=LAYERS):
    """(line, module) of each import, at any depth, of a package module
    ranked at or above the file's own module in layers: from . import m,
    from .m import ..., import qsecfan.m and from qsecfan(.m) import ....
    A name imported from the package itself that is no ranked module is
    read as the package __init__, which ranks above every module."""
    rank = {name: k for k, name in enumerate(layers)}
    own = rank[path.stem]
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom):
            parts = (node.module or "").split(".") if node.level == 0 else \
                ["qsecfan"] + (node.module or "").split(".")
            if parts[0] != "qsecfan":
                continue
            names = parts[1:2] if len(parts) > 1 and parts[1] else \
                [alias.name for alias in node.names]
        elif isinstance(node, ast.Import):
            names = [alias.name.split(".")[1] for alias in node.names
                     if alias.name.startswith("qsecfan.")]
        else:
            continue
        found += [(node.lineno, name) for name in names if rank.get(name, len(layers)) >= own]
    return sorted(found)


def test_src_imports_only_lower_layers():
    modules = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
    assert {p.stem for p in modules} == set(LAYERS)
    found = {p.name: upward_imports(p) for p in modules}
    assert {name: imports for name, imports in found.items() if imports} == {}


def test_the_scan_sees_an_upward_import(tmp_path):
    src = tmp_path / "linalg.py"
    src.write_text("from __future__ import annotations\n"
                   "from . import lp, scalar\n"
                   "from .errors import QsecfanError\n"
                   "from .fan import normal_fan\n"
                   "import qsecfan.polytope, os\n"
                   "from qsecfan import Scalar\n"
                   "from qsecfan.linalg import vec\n"
                   "def f():\n    from .secondary import chamber_of\n")
    assert upward_imports(src) == [(2, "lp"), (4, "fan"), (5, "polytope"), (6, "Scalar"),
                                   (7, "linalg"), (9, "secondary")]


N_MINUS_D = re.compile(r"\bn\s*-\s*d\b")

# planar by definition: the angular order and the classification of
# planar calibrations
PLANAR = {"sort_rays_by_angle", "classify_dim2"}


def dimension_limit_raises(path):
    """(line, function, message) of each raise of UnsupportedDimensionError,
    by name or as an attribute: the innermost function around it (None at
    module level), and the text of the string constants in its arguments,
    f-strings included."""
    found = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Raise) and isinstance(child.exc, ast.Call):
                func = child.exc.func
                if getattr(func, "id", getattr(func, "attr", None)) == "UnsupportedDimensionError":
                    text = "".join(c.value for arg in child.exc.args for c in ast.walk(arg)
                                   if isinstance(c, ast.Constant) and isinstance(c.value, str))
                    found.append((child.lineno, function, text))
            visit(child, function)

    visit(ast.parse(path.read_text()), None)
    return sorted(found)


def corank_limit_raises(path):
    """The raises of dimension_limit_raises whose message names n-d."""
    return [r for r in dimension_limit_raises(path) if N_MINUS_D.search(r[2])]


def d_limit_raises(path):
    """The raises of dimension_limit_raises outside the planar functions."""
    return [r for r in dimension_limit_raises(path) if r[1] not in PLANAR]


def test_no_corank_limit_in_src():
    """Secondary fans are built for every n-d."""
    found = {p.name: corank_limit_raises(p) for p in sorted(SRC.glob("*.py"))}
    assert {name: raises for name, raises in found.items() if raises} == {}


def test_no_d_limit_in_src():
    """Fans, their completeness, face intersections and overlays, and the
    crossing checks hold for every d; only planar functions limit it."""
    found = {p.name: d_limit_raises(p) for p in sorted(SRC.glob("*.py"))}
    assert {name: raises for name, raises in found.items() if raises} == {}
    planar = {r[1] for p in SRC.glob("*.py") for r in dimension_limit_raises(p)}
    assert planar == PLANAR


def test_the_scan_sees_corank_and_d_limits(tmp_path):
    src = tmp_path / "mod.py"
    src.write_text("from . import errors\n"
                   "def f(m):\n"
                   "    if m > 3:\n"
                   "        raise UnsupportedDimensionError('implemented for n-d <= 3')\n"
                   "    if m > 4:\n"
                   "        raise errors.UnsupportedDimensionError(f'n - d = {m} is too big')\n"
                   "    raise UnsupportedDimensionError('refinement implemented for d <= 3')\n"
                   "def g():\n"
                   "    raise ValueError('n-d <= 3')\n"
                   "def sort_rays_by_angle(cal):\n"
                   "    if cal.d != 2:\n"
                   "        raise UnsupportedDimensionError('angular sort needs d = 2')\n"
                   "class Fan:\n"
                   "    def is_complete(self):\n"
                   "        raise UnsupportedDimensionError('implemented for d in {2, 3}')\n"
                   "raise UnsupportedDimensionError('d > 5')\n")
    assert corank_limit_raises(src) == [(4, "f", "implemented for n-d <= 3"),
                                        (6, "f", "n - d =  is too big")]
    assert d_limit_raises(src) == [(4, "f", "implemented for n-d <= 3"),
                                   (6, "f", "n - d =  is too big"),
                                   (7, "f", "refinement implemented for d <= 3"),
                                   (15, "is_complete", "implemented for d in {2, 3}"),
                                   (16, None, "d > 5")]


FIG5_COLUMNS = [(1, 0), (0, 1), (-3, 1), (1, -3), (-2, -1)]


@pytest.fixture
def calibration_refs(monkeypatch):
    """A list that gets a weak reference to each Calibration constructed."""
    refs = []
    post_init = Calibration.__post_init__
    monkeypatch.setattr(Calibration, "__post_init__",
                        lambda cal: refs.append(weakref.ref(cal)) or post_init(cal))
    return refs


def alive_without_the_cycle_collector(refs, *steps):
    """Run the steps with the cycle collector off, then count the referents
    of refs still alive: with every reference dropped, only a reference
    cycle keeps one."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        for step in steps:
            step()
        return sum(ref() is not None for ref in refs)
    finally:
        if enabled:
            gc.enable()
        gc.collect()


def walk_chambers(cal):
    """enumerate_chambers, chamber_of and cobordism_from_path on cal."""
    sf = enumerate_chambers(cal)
    first, last = sf.chambers[0].rep_point, sf.chambers[-1].rep_point
    assert chamber_of(cal, last).key == sf.chambers[-1].key
    assert cobordism_from_path(segment(cal, first, last), cal).crossings


def cli_chambers(tmp_path):
    src = tmp_path / "in.json"
    src.write_text(json.dumps({"calibration": cal_of(2, FIG5_COLUMNS).to_json()}))
    assert main(["chambers", "--input", str(src), "--output", str(tmp_path / "out.json")]) == 0


def test_calibrations_are_freed_without_the_cycle_collector(calibration_refs, tmp_path):
    assert alive_without_the_cycle_collector(
        calibration_refs, lambda: walk_chambers(cal_of(2, FIG5_COLUMNS)),
        lambda: cli_chambers(tmp_path)) == 0
    assert len(calibration_refs) == 3  # the walk's, the CLI input's and the CLI's


@pytest.mark.parametrize("plant", [
    lambda cal: cal.__dict__.update(planted=[cal]),   # cal -> list -> cal
    lambda cal: cal.__dict__.update(live_chambers={}),  # cal -> map -> chamber -> cal
])
def test_the_check_sees_a_strong_cycle(calibration_refs, plant):
    def walk_with_a_cycle():
        cal = cal_of(2, FIG5_COLUMNS)
        plant(cal)
        walk_chambers(cal)

    assert alive_without_the_cycle_collector(calibration_refs, walk_with_a_cycle) == 1
