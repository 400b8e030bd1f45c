"""The engine has no runtime dependencies beyond the standard library, and
importing it loads neither dataclasses nor inspect."""

import ast
import json
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
SOURCES = sorted((SRC / "opine").glob("*.py"))

_IMPORT_CHILD = """\
import json, sys
before = set(sys.modules)
sys.path.insert(0, sys.argv[1])
import opine
print(json.dumps(sorted(set(sys.modules) - before)))
"""


def imported_modules(path: Path) -> set[str]:
    """The top-level module of every absolute import in the file."""
    modules = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Import):
            modules.update(alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules.add(node.module.partition(".")[0])
    return modules


def test_engine_imports_only_the_standard_library():
    assert SOURCES, "no engine sources found"
    foreign = {
        path.name: sorted(imported_modules(path) - sys.stdlib_module_names)
        for path in SOURCES
    }
    assert not {name: mods for name, mods in foreign.items() if mods}


def test_the_check_sees_a_foreign_import(tmp_path):
    module = tmp_path / "m.py"
    module.write_text("import os.path\nfrom . import x\ndef f():\n    from numpy import array\n")
    assert imported_modules(module) - sys.stdlib_module_names == {"numpy"}


def test_importing_opine_loads_no_dataclasses_or_inspect():
    """Record types are written in the source: ``@dataclass`` would load
    dataclasses, inspect and ten more modules, and compile each class's
    methods from source text at every import."""
    proc = subprocess.run(
        [sys.executable, "-I", "-c", _IMPORT_CHILD, str(SRC)],
        capture_output=True, text=True, timeout=60, check=True,
    )
    added = json.loads(proc.stdout)
    assert "opine" in added
    assert not {"dataclasses", "inspect"} & set(added), added
