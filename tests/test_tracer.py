"""The benchmark's span tracer must still find every layer it wraps.

`perfbench/tracer.py` wraps the layer entry points named in its LAYERS table
and rebinds every padicloop name bound to them; `install` raises when an
entry point is missing or a module-level binding is left unwrapped.  Loading
it here catches a refactor that renames a wrapped function without a traced
benchmark run.
"""

import importlib.util
import sys
from pathlib import Path

import padicloop.cli  # noqa: F401  (imports every layer)

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("padicloop_bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bindings():
    """Every padicloop module global, dict entry and class attribute."""
    out = {}
    for name, mod in list(sys.modules.items()):
        if not name.startswith("padicloop.") or mod is None:
            continue
        for key, value in vars(mod).items():
            out[name, key] = dict(value) if isinstance(value, dict) else value
            if isinstance(value, type):
                out[name, key, "attrs"] = dict(vars(value))
    return out


def test_every_layer_installs_and_uninstalls():
    before = _bindings()
    tracer = _load_tracer().Tracer()
    try:
        tracer.install()
        assert _bindings() != before
    finally:
        tracer.uninstall()
    assert _bindings() == before
