"""The engine has no runtime dependencies beyond the standard library, and
importing it loads neither dataclasses, inspect nor the json package."""

import ast
import json.encoder
import subprocess
import sys
from pathlib import Path

from opine import render

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SOURCES = sorted((SRC / "opine").glob("*.py"))

_IMPORT_CHILD = """\
import sys
before = set(sys.modules)
sys.path.insert(0, sys.argv[1])
import opine
print(sorted(set(sys.modules) - before))
"""

# Writes the JSON export of one corpus file, with a non-ASCII name, a quote
# and a tab put into it; with "fallback", the _json module cannot be imported.
_DUMPS_CHILD = """\
import sys
if sys.argv[2] == "fallback":
    sys.modules["_json"] = None
sys.path.insert(0, sys.argv[1])
from opine import parse_document, parse_lexicon, process_document, render
import json.encoder
fallback = sys.argv[2] == "fallback"
assert render._encode is (json.encoder.py_encode_basestring if fallback
                          else json.encoder.c_encode_basestring)
corpus = sys.argv[3]
with open(corpus + "/moveon.ann", encoding="utf-8") as f:
    text = f.read().replace("McCain", 'Mc"Cäin\\tñ')
with open(corpus + "/base.lex", encoding="utf-8") as f:
    lexicon = parse_lexicon(f.read())
results = process_document(parse_document(text, "moveon.ann"), lexicon)
sys.stdout.buffer.write(render.dumps(results).encode("utf-8"))
"""


def imported_modules(path: Path, *, fallbacks: bool = True) -> set[str]:
    """The top-level module of every absolute import in the file; without
    ``fallbacks``, leave out the imports in ``except`` handlers."""
    modules = set()
    todo = [ast.parse(path.read_text(encoding="utf-8"), str(path))]
    while todo:
        node = todo.pop()
        if isinstance(node, ast.Import):
            modules.update(alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules.add(node.module.partition(".")[0])
        todo.extend(child for child in ast.iter_child_nodes(node)
                    if fallbacks or not isinstance(child, ast.ExceptHandler))
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
    module.write_text("import os.path\nfrom . import x\ndef f():\n    from numpy import array\n"
                      "try:\n    import re\nexcept ImportError:\n    import json\n")
    assert imported_modules(module) - sys.stdlib_module_names == {"numpy"}
    assert imported_modules(module) == {"os", "numpy", "re", "json"}
    assert imported_modules(module, fallbacks=False) == {"os", "numpy", "re"}


def test_importing_opine_loads_no_dataclasses_or_inspect():
    """Record types are written in the source: ``@dataclass`` would load
    dataclasses, inspect and ten more modules, and compile each class's
    methods from source text at every import."""
    proc = subprocess.run(
        [sys.executable, "-I", "-c", _IMPORT_CHILD, str(SRC)],
        capture_output=True, text=True, timeout=60, check=True,
    )
    added = ast.literal_eval(proc.stdout)
    assert "opine" in added
    assert not {"dataclasses", "inspect"} & set(added), added


def test_importing_opine_loads_no_json_package():
    """``render`` takes its string encoder from ``_json`` alone."""
    proc = subprocess.run(
        [sys.executable, "-I", "-c", _IMPORT_CHILD, str(SRC)],
        capture_output=True, text=True, timeout=60, check=True,
    )
    added = ast.literal_eval(proc.stdout)
    assert "opine.render" in added
    assert not [name for name in added if name == "json" or name.startswith("json.")], added


def test_engine_sources_import_neither_re_nor_json():
    """Read from the source: without ``site``, ``typing`` itself loads ``re``.
    Only ``render``'s fallback for an interpreter without ``_json`` imports
    ``json.encoder``."""
    found = {path.name: sorted(imported_modules(path, fallbacks=False) & {"re", "json"})
             for path in SOURCES}
    assert not {name: mods for name, mods in found.items() if mods}
    assert [path.name for path in SOURCES if "_json" in imported_modules(path)] == ["render.py"]


def test_encoder_is_the_one_json_dumps_uses():
    assert render._encode is json.encoder.encode_basestring


def test_export_without_the_json_accelerator_is_byte_identical():
    def export(mode):
        return subprocess.run(
            [sys.executable, "-I", "-c", _DUMPS_CHILD, str(SRC), mode,
             str(ROOT / "tests" / "corpus")],
            capture_output=True, timeout=60, check=True,
        ).stdout

    normal = export("normal")
    assert 'Mc\\"Cäin\\tñ'.encode("utf-8") in normal
    assert export("fallback") == normal
