"""The engine has no runtime dependencies beyond the standard library, and
importing it loads neither dataclasses, inspect nor the json package; in an
interpreter without ``site``, it loads neither typing, re nor enum, the CLI
loads no pathlib, and the CLI's output equals that of ``python -m opine``."""

import ast
import json.encoder
import os
import subprocess
import sys
from pathlib import Path

import pytest

from opine import render

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SOURCES = sorted((SRC / "opine").glob("*.py"))
CORPUS = ROOT / "tests" / "corpus"

# Prints the modules that importing argv[2] (default: opine) loads.
_IMPORT_CHILD = """\
import sys
before = set(sys.modules)
sys.path.insert(0, sys.argv[1])
__import__(sys.argv[2] if len(sys.argv) > 2 else "opine")
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

# Runs the CLI on one corpus file with every output flag, the JSON export
# written to argv[4]; with "fallback", neither _collections nor _functools
# can be imported.
_CLI_CHILD = """\
import sys
fallback = sys.argv[2] == "fallback"
if fallback:
    sys.modules["_collections"] = sys.modules["_functools"] = None
sys.path.insert(0, sys.argv[1])
from opine import records
from opine.cli import main
assert (records._tuplegetter.__module__ == "opine.records") == fallback
corpus = sys.argv[3]
sys.exit(main(["--input", corpus + "/moveon.ann", "--lexicon", corpus + "/base.lex",
               "--trace", "--by-spaces", "--json", sys.argv[4]]))
"""

# Runs the CLI's main on argv[2:], the engine imported from argv[1]; run with
# -I -S, nothing is imported before the engine, so a module the engine uses
# without importing it fails.
_BARE_CLI = ("import sys; sys.path.insert(0, sys.argv[1]); from opine.cli import main;"
             " sys.exit(main(sys.argv[2:]))")

# Corpus files whose bare CLI output must equal python -m opine's, and the
# flags: the trace and spaces views; the JSON export and the extended
# config's closure; a reversing influencer chain with evidence, composed
# before inference; and a gfbf line's lexical second role, the corpus's only
# one.  A --json flag comes last; the test puts the export path after it.
_BARE_RUNS = {
    "moveon": ("moveon", "--trace", "--by-spaces"),
    "moveon-extended-json": ("moveon", "--extended-belief-spaces", "--json"),
    "virus": ("virus", "--trace", "--by-spaces"),
    "deprive": ("deprive", "--trace", "--by-spaces"),
}

# Input errors the bare CLI must report at their file:line with exit 1: an
# ill-typed line (substantial on a sentiment), at the p line; an entity named
# with two (key:lexEntry), at the second naming line; and moveon.ann with its
# gfbf line made goodFor against the lexicon's badFor record.  None means the
# text is moveon.ann's so edited, read with the lexicon.
_BARE_ERRORS = {
    "ill-typed": ('"Ill-typed."\nE1 gfbf <a, badFor (x), b>\n'
                  "S1 subjectivity <writer, negative sentiment (w), E1>\n"
                  "P1 p(S1,substantial)\n", 4, "MalformedLine"),
    "two-keys": ('"Two keys."\nE1 gfbf <they, badFor (ended), war (war:lexEntry)>\n'
                 "S1 subjectivity <writer, negative sentiment (w), E1>\n"
                 "E2 gfbf <we, goodFor (x), war (attack:lexEntry)>\n"
                 "S2 subjectivity <writer, positive sentiment (w), E2>\n", 4, "MalformedLine"),
    "lexicon-mismatch": (None, 2, "LexiconMismatch"),
}


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


def test_a_bare_import_loads_no_typing_re_or_enum():
    """Without ``site`` nothing is loaded before the engine: the record types
    are tuple classes, not ``typing.NamedTuple``s, and ``typing`` would load
    ``re``, ``enum`` and ``contextlib``."""
    proc = subprocess.run(
        [sys.executable, "-I", "-S", "-c", _IMPORT_CHILD, str(SRC)],
        capture_output=True, text=True, timeout=60, check=True,
    )
    added = ast.literal_eval(proc.stdout)
    assert "opine.rules" in added
    assert not {"typing", "re", "enum"} & set(added), added


def test_a_bare_cli_import_loads_no_pathlib():
    """The CLI reads and writes its files with ``open``; ``pathlib`` would
    load ``urllib.parse`` and ``ipaddress`` too, at every start."""
    proc = subprocess.run(
        [sys.executable, "-I", "-S", "-c", _IMPORT_CHILD, str(SRC), "opine.cli"],
        capture_output=True, text=True, timeout=60, check=True,
    )
    added = ast.literal_eval(proc.stdout)
    assert {"opine.cli", "argparse"} <= set(added)
    assert "pathlib" not in added, added


def test_engine_sources_import_neither_re_nor_json():
    """Only ``render``'s fallback for an interpreter without ``_json``
    imports ``json.encoder``."""
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


def test_cli_without_the_collections_and_functools_accelerators_is_byte_identical(tmp_path):
    """``records`` takes its field getter from ``_collections`` and ``graph``
    its ``partial`` from ``_functools``, each with a fallback."""
    def run(mode):
        export = tmp_path / f"{mode}.json"
        stdout = subprocess.run(
            [sys.executable, "-I", "-S", "-c", _CLI_CHILD, str(SRC), mode,
             str(ROOT / "tests" / "corpus"), str(export)],
            capture_output=True, timeout=60, check=True,
        ).stdout
        return stdout, export.read_bytes()

    normal = run("normal")
    assert b"-- trace --" in normal[0] and b"-- by spaces --" in normal[0]
    assert run("fallback") == normal


def bare_cli(*args, **kwargs):
    return subprocess.run([sys.executable, "-I", "-S", "-c", _BARE_CLI, str(SRC), *args],
                          capture_output=True, timeout=60, **kwargs)


@pytest.mark.parametrize("run", sorted(_BARE_RUNS))
def test_cli_in_a_bare_interpreter_matches_python_m_opine(tmp_path, run):
    name, *flags = _BARE_RUNS[run]
    args = ["--input", str(CORPUS / f"{name}.ann"), "--lexicon", str(CORPUS / "base.lex"),
            *flags]
    exports = [tmp_path / "bare.json", tmp_path / "site.json"]
    if "--json" in flags:
        bare_args, site_args = args + [str(exports[0])], args + [str(exports[1])]
    else:
        bare_args = site_args = args
    bare = bare_cli(*bare_args, check=True).stdout
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    site = subprocess.run([sys.executable, "-m", "opine", *site_args], env=env,
                          capture_output=True, timeout=60, check=True).stdout
    assert bare == site
    if "--json" in flags:
        assert exports[0].read_bytes() == exports[1].read_bytes()


@pytest.mark.parametrize("case", sorted(_BARE_ERRORS))
def test_cli_in_a_bare_interpreter_reports_input_errors(tmp_path, case):
    text, lineno, code = _BARE_ERRORS[case]
    args = []
    if text is None:
        lines = (CORPUS / "moveon.ann").read_text(encoding="utf-8").splitlines(keepends=True)
        lines[1] = lines[1].replace("badFor", "goodFor", 1)
        text, args = "".join(lines), ["--lexicon", str(CORPUS / "base.lex")]
    path = tmp_path / f"{case}.ann"
    path.write_text(text, encoding="utf-8")
    proc = bare_cli("--input", str(path), *args, text=True)
    assert proc.returncode == 1, proc.stderr
    assert any(line.startswith(f"{path}:{lineno}: {code}: ")
               for line in proc.stderr.splitlines()), proc.stderr
