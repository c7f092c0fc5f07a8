"""Source hygiene checks, on src/qsecfan and tests, that need no linter."""

import ast
from pathlib import Path

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
