"""The benchmark's tracer rebinds package functions by name.

perfbench/spans.py lists them in `WRAPPED`; a renamed or deleted function
would only show up as a crash of a traced benchmark run, so every name is
checked here against the package.
"""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _wrapped():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.WRAPPED


def test_every_wrapped_name_resolves():
    wrapped = _wrapped()
    assert wrapped
    missing = [
        (mod, attr)
        for mod, attr in wrapped
        if not callable(getattr(importlib.import_module(f"rotsynth.{mod}"), attr, None))
    ]
    assert missing == []
