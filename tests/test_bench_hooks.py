"""The benchmark's span hooks name functions that exist in ``nlslab``.

``nlsbench/spans.py`` looks every hooked (module, function) up with
``getattr`` when a traced run starts, so a renamed or deleted function breaks
``nlsbench/run.py --trace 1``.  This test only reads ``nlsbench/``.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "nlsbench" / "spans.py"


def test_every_hooked_function_resolves(monkeypatch):
    spec = importlib.util.spec_from_file_location("_nlsbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up while the file executes
    monkeypatch.setitem(sys.modules, spec.name, spans)
    spec.loader.exec_module(spans)
    hooks = spans.hooks(spans.Tracer())
    assert hooks
    missing = [(module, name) for module, name, _, _ in hooks
               if not callable(getattr(importlib.import_module(module), name, None))]
    assert missing == []
    boxes = importlib.import_module("nlslab.boxes")
    assert callable(boxes.BoxExpansion.reconstruct)
