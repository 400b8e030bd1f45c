"""Every layer function the traced benchmark run rebinds exists in the engine.

``bench/tracing.py`` rebinds functions by their module and attribute names,
so a renamed layer function would otherwise show only in a traced run.  The
module is compiled from its source, so that nothing is written under bench/.
"""

import types
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def load_tracing() -> types.ModuleType:
    module = types.ModuleType("bench_tracing")
    module.__file__ = str(TRACING)
    exec(compile(TRACING.read_text(encoding="utf-8"), str(TRACING), "exec"), module.__dict__)
    return module


def test_every_traced_layer_binding_exists():
    bindings = load_tracing().layer_bindings()
    missing = [
        f"{module.__name__}.{attr}"
        for sites in bindings.values()
        for module, attr in sites
        if not callable(getattr(module, attr, None))
    ]
    assert bindings and not missing
