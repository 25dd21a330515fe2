"""Span tracing for the benchmark's traced runs, installed from outside the package.

``install`` replaces public functions of each ``nlslab`` layer, in every
``nlslab`` module that holds a reference to them, with wrappers that record
a span (name, layer, start, end, parent span) and the counters measured at
that boundary.  ``uninstall`` puts the originals back, so untraced runs
execute the unmodified program.  Spans stay in memory until the run ends.

A span's self time is its duration minus the durations of its direct
children; calls are synchronous, so children never overlap.
"""

from __future__ import annotations

import functools
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

LAYERS = ("energies", "classify", "multipliers", "smoothing", "census", "boxes",
          "dynamics", "geometry", "experiments", "config")


@dataclass
class Span:
    id: int
    name: str
    layer: str
    parent: int | None
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._lattice_counts: dict = {}

    def open(self, name: str, layer: str) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), name, layer, parent, time.perf_counter())
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    def lattice_counts(self, cutoff: tuple, n: int) -> tuple[int, int]:
        """(enumerated, on-lattice) Gamma_n tuples over slots 1..n-1.

        Per axis, the last slot -(k_1+...+k_{n-1}) is on the lattice when the
        sum lies in [-K, K]; its count is a window of the (n-1)-fold
        convolution of the box indicator.  Axes are independent.
        """
        key = (tuple(cutoff), n)
        if key not in self._lattice_counts:
            enumerated, valid = 1, 1
            for K in cutoff:
                box = np.ones(2 * K + 1, dtype=object)
                acc = np.ones(1, dtype=object)
                for _ in range(n - 1):
                    acc = np.convolve(acc, box)
                centre = (n - 1) * K
                enumerated *= (2 * K + 1) ** (n - 1)
                valid *= int(sum(acc[centre - K: centre + K + 1]))
            self._lattice_counts[key] = (enumerated, valid)
        return self._lattice_counts[key]


# -- counters measured at a boundary: (span, args, kwargs, result) -> None --------


def _gamma_sum(tracer):
    def measure(span, args, kwargs, result):
        fields = args[0]
        span.attrs["tuples"], span.attrs["valid"] = tracer.lattice_counts(
            fields[0].cutoff, len(fields))
    return measure


def _tables(tracer):
    def measure(span, args, kwargs, result):
        template = args[0]
        deg = template.geometry.nonlinearity_degree + 1
        span.attrs["tuples"], span.attrs["valid"] = tracer.lattice_counts(
            template.cutoff, deg)
        span.attrs["bytes"] = sum(t.nbytes for t in
                                  (result.sigma_tilde, result.mbar_imag, result.combined)
                                  if t is not None)
    return measure


def _classified(span, args, kwargs, result):
    codes, _ = result
    span.attrs["tuples"] = int(np.size(codes))


def _census(span, args, kwargs, result):
    span.attrs["tuples"] = next(iter(result.values())).total if result else 0


def _draws(span, args, kwargs, result):
    span.attrs["draws"] = int(np.size(result))


def _csv_bytes(span, args, kwargs, result):
    span.attrs["bytes"] = Path(args[0]).stat().st_size


def _manifest_bytes(span, args, kwargs, result):
    span.attrs["bytes"] = (Path(args[0]) / "manifest.json").stat().st_size


def hooks(tracer) -> list:
    """(module, function, layer, counter) for every traced boundary."""
    return [
        ("nlslab.energies", "correction_tables", "energies", _tables(tracer)),
        ("nlslab.energies", "energy_identity_residual", "energies", None),
        ("nlslab.energies", "lambda_eval", "energies", None),
        ("nlslab.energies", "lambda_with_substitution", "energies", None),
        ("nlslab.energies", "gamma_sum_1d", "energies", _gamma_sum(tracer)),
        ("nlslab.energies", "gamma_sum_2d", "energies", _gamma_sum(tracer)),
        ("nlslab.energies", "e_i1", "energies", None),
        ("nlslab.energies", "energy", "energies", None),
        ("nlslab.energies", "mass", "energies", None),
        ("nlslab.energies", "nonlinear_coefficient_field", "energies", None),
        ("nlslab.classify", "classify_batch_1d", "classify", _classified),
        ("nlslab.classify", "classify_batch_2d", "classify", _classified),
        ("nlslab.multipliers", "omega", "multipliers", None),
        ("nlslab.multipliers", "alpha_n", "multipliers", None),
        ("nlslab.multipliers", "bare_m6", "multipliers", None),
        ("nlslab.multipliers", "sigma_product", "multipliers", None),
        ("nlslab.smoothing", "m_value", "smoothing", None),
        ("nlslab.smoothing", "apply_I", "smoothing", None),
        ("nlslab.census", "resonance_census_1d", "census", _census),
        ("nlslab.census", "resonance_census_2d", "census", _census),
        ("nlslab.census", "verify_multiplier_bounds", "census", None),
        ("nlslab.census", "sohinger_presence", "census", None),
        ("nlslab.boxes", "fourier_expand", "boxes", None),
        ("nlslab.dynamics", "evolve", "dynamics", None),
        ("nlslab.dynamics", "initial_data", "dynamics", None),
        ("nlslab.dynamics", "strang_step", "dynamics", None),
        ("nlslab.dynamics", "rk4_step", "dynamics", None),
        ("nlslab.geometry", "to_physical", "geometry", None),
        ("nlslab.geometry", "from_physical", "geometry", None),
        ("nlslab.geometry", "field_from_modes", "geometry", None),
        ("nlslab.geometry", "random_field", "geometry", None),
        ("nlslab.geometry", "save_field", "geometry", None),
        ("nlslab.experiments", "bilinear_packet_norms", "experiments", _draws),
        ("nlslab.experiments", "bilinear_plane_wave_check", "experiments", None),
        ("nlslab.config", "validate", "config", None),
        ("nlslab.config", "load_config", "config", None),
        ("nlslab.config", "write_csv", "config", _csv_bytes),
        ("nlslab.config", "write_manifest", "config", _manifest_bytes),
    ]


def _wrap(tracer: Tracer, func, layer: str, measure):
    name = func.__name__

    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        span = tracer.open(name, layer)
        try:
            result = func(*args, **kwargs)
        finally:
            tracer.close(span)
        if measure is not None:
            measure(span, args, kwargs, result)
        return result
    return wrapper


def install(tracer: Tracer) -> list:
    """Wrap every hooked function; returns the patch list for ``uninstall``."""
    import nlslab.boxes

    modules = [m for name, m in sorted(sys.modules.items())
               if m is not None and (name == "nlslab" or name.startswith("nlslab."))]
    patched = []
    for modname, fname, layer, measure in hooks(tracer):
        original = getattr(sys.modules[modname], fname)
        wrapper = _wrap(tracer, original, layer, measure)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    patched.append((module, attr, original))
    cls = nlslab.boxes.BoxExpansion
    original = cls.reconstruct
    cls.reconstruct = _wrap(tracer, original, "boxes", None)
    patched.append((cls, "reconstruct", original))
    return patched


def uninstall(patched: list) -> None:
    for owner, attr, original in reversed(patched):
        setattr(owner, attr, original)


# -- per-layer metrics --------------------------------------------------------------

# name -> unit, better; the order is the order of the report
PER_LAYER = {
    "energies.lambda_passes": ("count", "lower"),
    "energies.lambda_s": ("s", "lower"),
    "energies.lambda_tuples": ("count", "lower"),
    "energies.valid_ratio": ("ratio", "higher"),
    "energies.table_builds": ("count", "lower"),
    "energies.tables_s": ("s", "lower"),
    "energies.table_bytes": ("B", "lower"),
    "energies.e_i1_s": ("s", "lower"),
    "classify.tuples": ("count", "lower"),
    "classify.busy_s": ("s", "lower"),
    "classify.tuples_per_s": ("1/s", "higher"),
    "classify.useful_ratio": ("ratio", "higher"),
    "multipliers.calls": ("count", "lower"),
    "multipliers.busy_s": ("s", "lower"),
    "smoothing.busy_s": ("s", "lower"),
    "census.tuples": ("count", "lower"),
    "census.busy_s": ("s", "lower"),
    "census.tuples_per_s": ("1/s", "higher"),
    "census.verify_cells": ("count", "lower"),
    "census.verify_s": ("s", "lower"),
    "boxes.expansions": ("count", "lower"),
    "boxes.expand_s": ("s", "lower"),
    "boxes.reconstruct_s": ("s", "lower"),
    "dynamics.steps": ("count", "lower"),
    "dynamics.step_s": ("s", "lower"),
    "geometry.transform_calls": ("count", "lower"),
    "geometry.transform_s": ("s", "lower"),
    "experiments.draws": ("count", "lower"),
    "experiments.draw_s": ("s", "lower"),
    "config.bytes_written": ("B", "lower"),
    "config.write_s": ("s", "lower"),
    **{f"{layer}.self_s": ("s", "lower") for layer in LAYERS},
    "trace.wall_s": ("s", "lower"),
    "trace.accounted_frac": ("ratio", "higher"),
    "trace.spans": ("count", "lower"),
    "trace.overhead_frac": ("ratio", "lower"),
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _child_time(spans: list) -> dict:
    """Span id -> summed duration of its direct children."""
    out: dict = {}
    for s in spans:
        if s.parent is not None:
            out[s.parent] = out.get(s.parent, 0.0) + s.duration
    return out


def pass_metrics(spans: list, wall_s: float) -> dict:
    """Per-layer metrics of one traced pass from its spans.

    ``spans`` are the spans recorded during the pass, each job's root span
    included; ``wall_s`` is the pass's traced wall time.
    """
    child_time = _child_time(spans)
    by_id = {s.id: s for s in spans}
    self_s = {layer: 0.0 for layer in LAYERS}
    for s in spans:
        self_s[s.layer] = self_s.get(s.layer, 0.0) + s.duration - child_time.get(s.id, 0.0)

    def named(*names):
        return [s for s in spans if s.name in names]

    def busy(*names):
        return sum(s.duration for s in named(*names))

    def attr(key, *names):
        return sum(s.attrs.get(key, 0) for s in named(*names))

    lambda_spans = named("gamma_sum_1d", "gamma_sum_2d")
    classify_names = ("classify_batch_1d", "classify_batch_2d")
    classified = attr("tuples", *classify_names)
    # tuples classified for a table build include the off-lattice ones; the
    # build's lattice count says how many of those the table can use
    in_tables = sum(s.attrs.get("tuples", 0) for s in named(*classify_names)
                    if s.parent in by_id and by_id[s.parent].name == "correction_tables")
    useful = classified - in_tables + attr("valid", "correction_tables")
    steps = named("strang_step", "rk4_step")
    census_s = busy("resonance_census_1d", "resonance_census_2d")
    draws = attr("draws", "bilinear_packet_norms")
    roots = sum(s.duration for s in spans if s.parent not in by_id)

    return {
        "energies.lambda_passes": len(lambda_spans),
        "energies.lambda_s": sum(s.duration for s in lambda_spans),
        "energies.lambda_tuples": sum(s.attrs["tuples"] for s in lambda_spans),
        "energies.valid_ratio": _ratio(sum(s.attrs["valid"] for s in lambda_spans),
                                       sum(s.attrs["tuples"] for s in lambda_spans)),
        "energies.table_builds": len(named("correction_tables")),
        "energies.tables_s": busy("correction_tables"),
        "energies.table_bytes": attr("bytes", "correction_tables"),
        "energies.e_i1_s": busy("e_i1"),
        "classify.tuples": classified,
        "classify.busy_s": busy(*classify_names),
        "classify.tuples_per_s": _ratio(classified, busy(*classify_names)),
        "classify.useful_ratio": _ratio(useful, classified),
        "multipliers.calls": len(named("omega", "alpha_n", "bare_m6", "sigma_product")),
        "multipliers.busy_s": busy("omega", "alpha_n", "bare_m6", "sigma_product"),
        "smoothing.busy_s": busy("m_value", "apply_I"),
        "census.tuples": attr("tuples", "resonance_census_1d", "resonance_census_2d"),
        "census.busy_s": census_s,
        "census.tuples_per_s": _ratio(attr("tuples", "resonance_census_1d",
                                           "resonance_census_2d"), census_s),
        "census.verify_cells": len(named("verify_multiplier_bounds")),
        "census.verify_s": busy("verify_multiplier_bounds"),
        "boxes.expansions": len(named("fourier_expand")),
        "boxes.expand_s": busy("fourier_expand"),
        "boxes.reconstruct_s": busy("reconstruct"),
        "dynamics.steps": len(steps),
        "dynamics.step_s": float(np.median([s.duration for s in steps])) if steps else 0.0,
        "geometry.transform_calls": len(named("to_physical", "from_physical")),
        "geometry.transform_s": busy("to_physical", "from_physical"),
        "experiments.draws": draws,
        "experiments.draw_s": _ratio(busy("bilinear_packet_norms"), draws),
        "config.bytes_written": attr("bytes", "write_csv", "write_manifest"),
        "config.write_s": busy("write_csv", "write_manifest"),
        **{f"{layer}.self_s": self_s[layer] for layer in LAYERS},
        "trace.wall_s": wall_s,
        "trace.accounted_frac": _ratio(roots, wall_s),
        "trace.spans": len(spans),
    }


def span_rows(spans: list) -> list:
    """Spans as plain rows for the trace file: name, layer, start, end, parent."""
    return [[s.id, s.name, s.layer, s.start, s.end, s.parent, s.attrs] for s in spans]


def summary(spans: list, passes: int) -> str:
    """Per span name, per traced pass: calls, total and self seconds."""
    child_time = _child_time(spans)
    rows: dict = {}
    for s in spans:
        row = rows.setdefault((s.layer, s.name), [0, 0.0, 0.0])
        row[0] += 1
        row[1] += s.duration
        row[2] += s.duration - child_time.get(s.id, 0.0)
    lines = [f"spans per traced pass ({passes} passes): layer name calls total_s self_s"]
    for (layer, name), (calls, total, own) in sorted(rows.items(), key=lambda r: -r[1][2]):
        lines.append(f"  {layer:<12} {name:<28} {calls / passes:>9.1f} "
                     f"{total / passes:>10.5f} {own / passes:>10.5f}")
    return "\n".join(lines)
