"""The benchmark's span hooks and imports name functions that exist in
``nlslab``, and its counters read the results those functions return.

``nlsbench/spans.py`` looks every hooked (module, function) up with
``getattr`` when a traced run starts, and its counters read attributes and
return shapes of the hooked calls, so a renamed function, a renamed
``CorrectionTables`` attribute or a changed return shape breaks
``nlsbench/run.py --trace 1``.  This test only reads ``nlsbench/``.
"""

import ast
import importlib
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from nlslab import census, energies
from nlslab.geometry import build_geometry, random_field

# the package exports the function ``classify`` under the module's name
classify = importlib.import_module("nlslab.classify")
SPANS = Path(__file__).resolve().parents[1] / "nlsbench" / "spans.py"


@pytest.fixture
def spans(monkeypatch):
    spec = importlib.util.spec_from_file_location("_nlsbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up while the file executes
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    # ``install`` wraps functions of the nlslab modules already imported
    for name, *_ in module.hooks(module.Tracer()):
        importlib.import_module(name)
    return module


def test_every_hooked_function_resolves(spans):
    hooks = spans.hooks(spans.Tracer())
    assert hooks
    missing = [(module, name) for module, name, _, _ in hooks
               if not callable(getattr(importlib.import_module(module), name, None))]
    assert missing == []
    boxes = importlib.import_module("nlslab.boxes")
    assert callable(boxes.BoxExpansion.reconstruct)


def _bench_imports():
    """(file, module, name) of every ``from nlslab... import name`` in
    ``nlsbench/*.py``, and (file, module, None) of every ``import nlslab...``."""
    found = []
    for path in sorted(SPANS.parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "nlslab":
                found += [(path.name, node.module, alias.name) for alias in node.names]
            elif isinstance(node, ast.Import):
                found += [(path.name, alias.name, None) for alias in node.names
                          if alias.name.split(".")[0] == "nlslab"]
    return found


def test_every_bench_import_resolves():
    imports = _bench_imports()
    assert ("jobs.py", "nlslab.multipliers", "m_multiplier_symbol") in imports
    missing = []
    for path, module, name in imports:
        try:
            target = importlib.import_module(module)
            if name is not None and not hasattr(target, name):
                importlib.import_module(f"{module}.{name}")  # a submodule
        except ImportError:
            missing.append((path, module, name))
    assert missing == []


def _on_lattice(field, n):
    return sum(len(pos) for pos, _ in energies._Lattice(field, n).on_lattice(1 << 14))


def test_counters_read_real_results(spans):
    # each counter runs on the result of a real call at a tiny size, through
    # the wrappers that a traced benchmark run installs
    rng = np.random.default_rng(3)
    f1 = random_field(build_geometry(1), 2, rng)
    f2 = random_field(build_geometry(2, (0.75,), 1.0), (2, 1), rng)
    ones = lambda tup: np.ones(len(tup))
    tracer = spans.Tracer()
    patched = spans.install(tracer)
    try:
        tabs = energies.correction_tables(f1, 1.0, 0.5)
        energies.gamma_sum_1d([f1] * 6, ones)
        energies.gamma_sum_2d([f2] * 4, ones)
        classify.classify_batch_1d(np.array([[5, -3, 6, -2, 1, -7]] * 3, dtype=float), 2.0)
        classify.classify_batch_2d(np.array([[[3, 1], [-2, 0], [1, 1], [-2, -2]]] * 2,
                                            dtype=float), 1.0)
        total_1d = census.resonance_census_1d([2.0], kmax=2)[2.0].total
        total_2d = census.resonance_census_2d([1.0], kmax=1)[1.0].total
    finally:
        spans.uninstall(patched)
    assert not hasattr(energies.correction_tables, "__wrapped__")

    named = lambda name: [s for s in tracer.spans if s.name == name]
    (tables,) = named("correction_tables")
    assert tables.attrs == {"tuples": 5 ** 5, "valid": _on_lattice(f1, 6),
                            "bytes": 3 * tabs.sigma_tilde.nbytes}
    (g1,), (g2,) = named("gamma_sum_1d"), named("gamma_sum_2d")
    assert g1.attrs == {"tuples": 5 ** 5, "valid": _on_lattice(f1, 6)}
    assert g2.attrs == {"tuples": 15 ** 3, "valid": _on_lattice(f2, 4)}
    assert [s.attrs for s in named("classify_batch_1d")] == [{"tuples": 3}]
    assert [s.attrs for s in named("classify_batch_2d")] == [{"tuples": 2}]
    assert [s.attrs for s in named("resonance_census_1d") + named("resonance_census_2d")] \
        == [{"tuples": total_1d}, {"tuples": total_2d}]

    metrics = spans.pass_metrics(tracer.spans, wall_s=1.0)
    assert metrics["energies.table_builds"] == 1
    assert metrics["energies.table_bytes"] == 3 * 5 ** 5 * 8
    assert metrics["energies.lambda_passes"] == 2
    assert metrics["energies.lambda_tuples"] == 5 ** 5 + 15 ** 3
    assert metrics["classify.tuples"] == 3 + 2
    assert metrics["census.tuples"] == total_1d + total_2d > 0


def test_verify_family_pass_is_counted(spans):
    # the shared family pass classifies its union through the hooked
    # classify_batch_1d, one span per block, so the classifier counters see
    # every row of it
    N, kmax, th = 4.0, 8, classify.Thresholds()
    cases = ("ii", "nonresonant")
    rows, _ = census._family_tuples_1d(cases, N, kmax, th.gap, np.random.default_rng(0))
    tracer = spans.Tracer()
    patched = spans.install(tracer)
    try:
        census.verify_multiplier_bounds(cases, N, kmax, thresholds=(th,), seed=0)
    finally:
        spans.uninstall(patched)
    counted = [s.attrs["tuples"] for s in tracer.spans if s.name == "classify_batch_1d"]
    assert sum(counted) == len(rows)
    assert len(counted) == -(-len(rows) // census._VERIFY_ROWS) > 1
    assert len([s for s in tracer.spans if s.name == "m_value"]) == 1


def test_verify_2d_cases_share_one_draw(spans):
    # 2d-resonant and 2d-nonresonant share one draw, classified once through
    # the hooked classify_batch_2d, and m is evaluated once, into the
    # per-mode table, for the whole call
    N, kmax = 4.0, 8
    rows = census._zero_sum_draws(np.random.default_rng(0), kmax, *census._DRAW_2D)
    tracer = spans.Tracer()
    patched = spans.install(tracer)
    try:
        census.verify_multiplier_bounds(("2d-resonant", "2d-nonresonant"), N, kmax, seed=0)
    finally:
        spans.uninstall(patched)
    named = lambda name: [s for s in tracer.spans if s.name == name]
    assert sum(s.attrs["tuples"] for s in named("classify_batch_2d")) == len(rows)
    assert len(named("m_value")) == 1
