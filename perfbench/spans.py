"""Spans around the calls into each layer, for the traced run.

The tracer replaces a layer function at the module attribute its caller
looks it up by (``tensormotion.predictor.fit``, not
``tensormotion.regression.fit``, for the bank build) with a wrapper that
records a span: name, start, end and the index of the enclosing span.
Spans stay in memory and are written out once at the end. Counts such as
sweeps are read from the returned objects. A name that no longer exists
is reported as not measured, and the metrics that need it are left out.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import time
import tracemalloc

import numpy as np

MB = float(1 << 20)

# (module, attribute its caller looks up, span name)
WRAPPED = (
    ("tensormotion.predictor", "to_joint_angles", "kinematics.to_joint_angles"),
    ("tensormotion.predictor", "angles_to_coordinates", "kinematics.angles_to_coordinates"),
    ("tensormotion.predictor", "select_coefficient", "predictor.select_coefficient"),
    ("tensormotion.predictor", "predict_window", "predictor.predict_window"),
    ("tensormotion.predictor", "locate_in_reference", "alignment.locate_in_reference"),
    ("tensormotion.predictor", "predict", "regression.predict"),
    ("tensormotion.predictor", "fit", "regression.fit"),
    ("tensormotion.alignment", "accumulated_cost", "_dtw.accumulated_cost"),
    ("tensormotion.regression", "fit", "regression.fit"),
    ("tensormotion.regression", "cp_reconstruct", "tensor_ops.cp_reconstruct"),
    ("tensormotion.uncertainty", "cp_reconstruct", "tensor_ops.cp_reconstruct"),
    ("tensormotion.uncertainty", "gibbs_sample", "regression.gibbs_sample"),
)


def _fit_info(args, kwargs, result) -> dict:
    return {
        "sweeps": int(result.n_sweeps),
        "converged": bool(result.converged),
        "objective": float(result.objective_trace[-1]),
    }


def _cost_info(args, kwargs, result) -> dict:
    return {"cells": int(result.size), "bytes": int(result.nbytes)}


def _gibbs_info(args, kwargs, result) -> dict:
    n = kwargs["n_samples"]
    thin = kwargs.get("thin", 1)
    burn_in = kwargs.get("burn_in")
    if burn_in is None:
        burn_in = -(-n * thin // 4)  # ceil(0.25 * n * thin), the sampler's default
    return {"iterations": int(burn_in + n * thin)}


INFO = {
    "regression.fit": _fit_info,
    "_dtw.accumulated_cost": _cost_info,
    "regression.gibbs_sample": _gibbs_info,
}


class Tracer:
    """Records spans; ``span`` also serves the benchmark's own calls."""

    def __init__(self):
        self.spans: list[dict] = []
        self.not_measured: list[str] = []
        self._stack: list[int] = []
        self.paused = False

    @contextlib.contextmanager
    def span(self, name: str, track_alloc: bool = False):
        """Record one span; with ``track_alloc`` also its tracemalloc peak."""
        if self.paused:
            yield {}
            return
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else -1,
        }
        self.spans.append(record)
        self._stack.append(record["id"])
        if track_alloc:
            tracemalloc.start()
        record["start"] = time.perf_counter()
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            if track_alloc:
                record["peak_alloc_bytes"] = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
            self._stack.pop()

    @contextlib.contextmanager
    def no_spans(self):
        """Let wrapped calls through unrecorded, e.g. inside the checks."""
        self.paused = True
        try:
            yield
        finally:
            self.paused = False

    def install(self) -> None:
        for module_name, attr, name in WRAPPED:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:
                self.not_measured.append(f"{module_name}.{attr}")
                continue
            setattr(module, attr, self._wrapper(original, name))

    def _wrapper(self, fn, name):
        describe = INFO.get(name)

        def wrapped(*args, **kwargs):
            with self.span(name) as record:
                result = fn(*args, **kwargs)
                if describe is not None and not self.paused:
                    record.update(describe(args, kwargs, result))
            return result

        wrapped.__wrapped__ = fn
        return wrapped

    def write(self, path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            json.dumps({"not_measured": self.not_measured, "spans": self.spans}) + "\n"
        )


class NullTracer:
    """Stands in for :class:`Tracer` in the untraced run."""

    def span(self, name: str, track_alloc: bool = False):
        return contextlib.nullcontext({})

    def no_spans(self):
        return contextlib.nullcontext()


def _duration(span: dict) -> float:
    return span["end"] - span["start"]


def _median(values) -> float:
    return float(np.median(values))


def _p95(values) -> float:
    return float(np.quantile(values, 0.95))


def layer_metrics(spans: list[dict], context: dict) -> tuple[dict, list[str]]:
    """Per-layer metrics from the recorded spans.

    ``context`` carries what the spans cannot give: ``models`` (bank
    size), ``draw_mb`` and ``locate_peak_alloc_mb``. Returns the metrics
    as ``{name: (value, unit)}`` plus the names left out for lack of
    spans.
    """
    by_name: dict[str, list[dict]] = {}
    child_time = [0.0] * len(spans)
    fit_time = [0.0] * len(spans)
    for s in spans:
        by_name.setdefault(s["name"], []).append(s)
        if s["parent"] >= 0:
            child_time[s["parent"]] += _duration(s)
            if s["name"] == "regression.fit":
                fit_time[s["parent"]] += _duration(s)
    by_name["bank fit"] = [
        s for s in by_name.get("regression.fit", [])
        if s["parent"] >= 0 and spans[s["parent"]]["name"] == "predictor.build_collection"
    ]

    def ms(s):
        return 1e3 * _duration(s)

    # metric, unit, spans it is computed from, value per span, reduction
    table = (
        ("kinematics.to_joint_angles_ms", "ms", "kinematics.to_joint_angles", ms, _median),
        ("kinematics.angles_to_coordinates_ms", "ms", "kinematics.angles_to_coordinates", ms, _median),
        ("kinematics.prep_s", "s", "kinematics.prep", _duration, _median),
        ("cycles.prep_s", "s", "cycles.prep", _duration, _median),
        ("alignment.locate_ms", "ms", "alignment.locate_in_reference", ms, _median),
        ("alignment.locate_p95_ms", "ms", "alignment.locate_in_reference", ms, _p95),
        ("dtw.accumulated_cost_ms", "ms", "_dtw.accumulated_cost", ms, _median),
        ("dtw.cells_per_update", "count", "_dtw.accumulated_cost", lambda s: s["cells"], _median),
        ("dtw.mcells_per_s", "Mcell/s", "_dtw.accumulated_cost",
         lambda s: s["cells"] / _duration(s) / 1e6, _median),
        ("dtw.matrix_mb", "MB", "_dtw.accumulated_cost", lambda s: s["bytes"] / MB, _median),
        ("predictor.select_coefficient_ms", "ms", "predictor.select_coefficient", ms, _median),
        ("predictor.predict_window_ms", "ms", "predictor.predict_window", ms, _median),
        ("predictor.update_self_ms", "ms", "predictor.update",
         lambda s: 1e3 * (_duration(s) - child_time[s["id"]]), _median),
        ("regression.predict_ms", "ms", "regression.predict", ms, _median),
        ("regression.fits", "count", "bank fit", lambda s: 1, len),
        ("regression.fit_s", "s", "bank fit", _duration, _median),
        ("regression.sweeps_per_fit", "count", "bank fit", lambda s: s["sweeps"], _median),
        ("regression.sweep_ms", "ms", "bank fit", lambda s: ms(s) / s["sweeps"], _median),
        ("regression.converged_fraction", "fraction", "bank fit", lambda s: s["converged"], np.mean),
        ("regression.final_objective", "rad2", "bank fit", lambda s: s["objective"], _median),
        ("regression.gibbs_iteration_ms", "ms", "regression.gibbs_sample",
         lambda s: 1e3 * (_duration(s) - fit_time[s["id"]]) / s["iterations"], _median),
        ("tensor_ops.cp_reconstruct_ms", "ms", "tensor_ops.cp_reconstruct", ms, _median),
        ("uncertainty.band_ms_per_model", "ms", "uncertainty.predictive_variation",
         lambda s: ms(s) / context["models"], _median),
        ("uncertainty.peak_alloc_mb", "MB", "uncertainty.predictive_variation",
         lambda s: s["peak_alloc_bytes"] / MB, max),
        # from the context, reported when the layer ran
        ("alignment.locate_peak_alloc_mb", "MB", "alignment.locate_in_reference",
         lambda s: context["locate_peak_alloc_mb"], max),
        ("predictor.models", "count", "predictor.update", lambda s: context["models"], max),
        ("uncertainty.draw_mb", "MB", "uncertainty.predictive_variation",
         lambda s: context["draw_mb"], max),
    )
    metrics, missing = {}, []
    for name, unit, source, value, reduce in table:
        found = by_name.get(source)
        if found:
            metrics[name] = (float(reduce([value(s) for s in found])), unit)
        else:
            missing.append(name)
    return metrics, missing
