"""Span tracing around the program's module boundaries, from outside the program.

The tracer replaces public callables with timing wrappers at the attribute
where their callers look them up (``association.similarity_matrix`` is the
name ``association.step`` calls, ``metrics.clear_mot`` the one ``amota``
calls), so nothing under ``src/`` changes. Each call records a span
``[name, start_ns, end_ns, parent index, context, counts]``, where the
context names the track round or the eval sequence and ``Tracker.step``
counts carry the frame index; spans stay in memory and are written out once
at the end. Per-layer metrics are derived
from the spans alone.
"""

from __future__ import annotations

import json
import time

import numpy as np

# Span names, grouped by the layer whose metrics they feed.
SIMILARITY = ("association.similarity_matrix", "metrics.similarity_matrix")
SOLVE = ("association.solve_assignment", "metrics.solve_assignment")
PARSE = ("formats.parse_mot_detections", "formats.parse_3d_detections",
         "formats.parse_mot_results", "formats.parse_3d_results")
WRITE = ("formats.write_mot_results", "formats.write_3d_results")
RECALL_POINTS = 40  # the recall grid of metrics.amota at its default


def _pairs(args, kwargs, result):
    return {"pairs": len(args[0]) * len(args[1])}


def _solve_counts(args, kwargs, result):
    values = getattr(args[0], "values", args[0])
    gate = args[1] if len(args) > 1 else kwargs["gate"]
    gate = np.broadcast_to(np.asarray(gate, dtype=float), np.shape(values))
    return {
        "entries": int(gate.size),
        "same_class": int(np.isfinite(gate).sum()),
        "admissible": int((values >= gate).sum()),
        "matches": len(result.matches),
    }


def _rows(args, kwargs, result):
    return {"rows": int(args[0].shape[0])}


def _step_counts(args, kwargs, result):
    tracker, detections = args[0], args[1]
    diag = result.diagnostics
    return {
        "frame": result.frame,
        "first": len(diag.first_matches),
        "second": len(diag.second_matches),
        "spawned": len(diag.new_tracks),
        "discarded": len(diag.discarded_low),
        "lost": len(diag.lost_track_ids),
        "removed": len(diag.removed_track_ids),
        "active": len(result.tracks),
        "low": sum(1 for d in detections if d.score <= tracker.config.tau),
    }


def _records(args, kwargs, result):
    return {"records": len(result.records)}


def _bytes_in(args, kwargs, result):
    return {"bytes": len(args[0])}


def _bytes_out(args, kwargs, result):
    return {"bytes": args[1].tell()}


def boundaries(modules: dict) -> list[tuple[object, str, str, object]]:
    """(owner, attribute, span name, counter) for every traced callable."""
    association, motion, metrics = modules["association"], modules["motion"], modules["metrics"]
    tracker, formats = modules["tracker"].Tracker, modules["formats"]
    return [
        (association, "similarity_matrix", "association.similarity_matrix", _pairs),
        (association, "solve_assignment", "association.solve_assignment", _solve_counts),
        (association, "backward_predict", "association.backward_predict", None),
        (association, "kf_init", "association.kf_init", None),
        (motion, "predict_arrays", "motion.predict_arrays", _rows),
        (motion, "update_arrays", "motion.update_arrays", _rows),
        (motion, "inflate_arrays", "motion.inflate_arrays", _rows),
        (metrics, "similarity_matrix", "metrics.similarity_matrix", _pairs),
        (metrics, "solve_assignment", "metrics.solve_assignment", _solve_counts),
        (metrics, "clear_mot", "metrics.clear_mot", None),
        (metrics, "idf1", "metrics.idf1", None),
        (metrics, "amota", "metrics.amota", None),
        (tracker, "step", "Tracker.step", _step_counts),
        (tracker, "output", "Tracker.output", _records),
        (formats, "parse_mot_detections", "formats.parse_mot_detections", _bytes_in),
        (formats, "parse_3d_detections", "formats.parse_3d_detections", _bytes_in),
        (formats, "parse_mot_results", "formats.parse_mot_results", _bytes_in),
        (formats, "parse_3d_results", "formats.parse_3d_results", _bytes_in),
        (formats, "write_mot_results", "formats.write_mot_results", _bytes_out),
        (formats, "write_3d_results", "formats.write_3d_results", _bytes_out),
    ]


class Tracer:
    """Records nested spans around wrapped callables; one instance per traced run."""

    def __init__(self):
        self.spans: list[list] = []
        self.context = ""
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._originals: list[tuple[object, str, object]] = []

    def install(self, points) -> None:
        for owner, attr, name, counter in points:
            original = getattr(owner, attr, None)
            if original is None:
                # A later refactor removed the callable: an absent layer, not a crash.
                self.absent.append(name)
                continue
            setattr(owner, attr, self._wrap(original, name, counter))
            self._originals.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._originals):
            setattr(owner, attr, original)
        self._originals.clear()

    def _wrap(self, original, name, counter):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            span = [name, 0, 0, stack[-1] if stack else -1, self.context, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter_ns()
            try:
                result = original(*args, **kwargs)
            finally:
                span[2] = time.perf_counter_ns()
                stack.pop()
            if counter is not None:
                span[5] = counter(args, kwargs, result)
            return result

        traced.__wrapped__ = original
        return traced

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, context, counts in self.spans:
                fh.write(json.dumps({"name": name, "start_ns": start, "end_ns": end,
                                     "parent": parent, "context": context,
                                     "counts": counts}) + "\n")


def _ms(spans, indices) -> float:
    return sum(spans[i][2] - spans[i][1] for i in indices) / 1e6


def _total(spans, indices, key) -> int:
    # A call that raised has no counts; its time still counts.
    return sum(spans[i][5][key] for i in indices if spans[i][5] is not None)


def _ratio(num: float, den: float) -> float:
    # An empty base (a layer that never ran) reads as 0, which JSON can carry.
    return num / den if den else 0.0


def derive(spans: list[list], cycles: int) -> dict[str, float]:
    """Per-layer metrics from spans, as totals per traced cycle (one track round
    plus one eval pass) or as ratios."""
    by_name: dict[str, list[int]] = {}
    for i, span in enumerate(spans):
        by_name.setdefault(span[0], []).append(i)

    def named(*names):
        return [i for n in names for i in by_name.get(n, [])]

    def under(indices, parent_name):
        return [i for i in indices if spans[i][3] >= 0 and spans[spans[i][3]][0] == parent_name]

    children_ms = [0.0] * len(spans)
    for span in spans:
        if span[3] >= 0:
            children_ms[span[3]] += (span[2] - span[1]) / 1e6

    sim, solve = named(*SIMILARITY), named(*SOLVE)
    steps = named("Tracker.step")
    step_ms = _ms(spans, steps)
    pairs = _total(spans, sim, "pairs")
    track_sim = named("association.similarity_matrix")
    track_solve = named("association.solve_assignment")
    low = _total(spans, steps, "low")
    clears = named("metrics.clear_mot")
    amotas = named("metrics.amota")
    nested_clears = under(clears, "metrics.amota")
    top_clears = sorted(set(clears) - set(nested_clears))
    per = 1.0 / cycles
    return {
        "geometry.similarity.calls": len(sim) * per,
        "geometry.similarity.pairs": pairs * per,
        "geometry.similarity.ms": _ms(spans, sim) * per,
        "geometry.similarity.us_per_pair": _ratio(_ms(spans, sim) * 1e3, pairs),
        "geometry.similarity.step_share": _ratio(_ms(spans, track_sim), step_ms),
        "geometry.useful_pair_ratio": _ratio(_total(spans, solve, "admissible"), pairs),
        "geometry.cross_class_pair_share": 1.0 - _ratio(
            _total(spans, track_solve, "same_class"), _total(spans, track_solve, "entries")),
        "motion.predict.calls": len(named("motion.predict_arrays")) * per,
        "motion.predict.rows": _total(spans, named("motion.predict_arrays"), "rows") * per,
        "motion.predict.ms": _ms(spans, named("motion.predict_arrays")) * per,
        "motion.update.calls": len(named("motion.update_arrays")) * per,
        "motion.update.rows": _total(spans, named("motion.update_arrays"), "rows") * per,
        "motion.update.ms": _ms(spans, named("motion.update_arrays")) * per,
        "motion.backward.calls": len(named("association.backward_predict")) * per,
        "motion.backward.ms": _ms(spans, named("association.backward_predict")) * per,
        "motion.init.calls": len(named("association.kf_init")) * per,
        "motion.init.ms": _ms(spans, named("association.kf_init")) * per,
        "assignment.solve.calls": len(solve) * per,
        "assignment.solve.ms": _ms(spans, solve) * per,
        "assignment.pairs_same_class": _total(spans, solve, "same_class") * per,
        "assignment.pairs_admissible": _total(spans, solve, "admissible") * per,
        "assignment.matches": _total(spans, solve, "matches") * per,
        "association.step.ms": step_ms * per,
        "association.step.self_ms": (step_ms - sum(children_ms[i] for i in steps)) * per,
        "association.first_matches": _total(spans, steps, "first") * per,
        "association.second_matches": _total(spans, steps, "second") * per,
        "association.spawned": _total(spans, steps, "spawned") * per,
        "association.discarded_low": _total(spans, steps, "discarded") * per,
        "association.lost": _total(spans, steps, "lost") * per,
        "association.removed": _total(spans, steps, "removed") * per,
        "association.active_tracks_mean": _ratio(_total(spans, steps, "active"), len(steps)),
        "association.lost_per_frame": _ratio(_total(spans, steps, "lost"), len(steps)),
        "association.second_pass_yield": _ratio(_total(spans, steps, "second"), low),
        "tracker.output.ms": _ms(spans, named("Tracker.output")) * per,
        "tracker.records": _total(spans, named("Tracker.output"), "records") * per,
        "formats.parse.ms": _ms(spans, named(*PARSE)) * per,
        "formats.write.ms": _ms(spans, named(*WRITE)) * per,
        "formats.bytes_in": _total(spans, named(*PARSE), "bytes") * per,
        "formats.bytes_out": _total(spans, named(*WRITE), "bytes") * per,
        "metrics.clear.ms": _ms(spans, top_clears) * per,
        "metrics.idf1.ms": _ms(spans, named("metrics.idf1")) * per,
        "metrics.amota.ms": _ms(spans, amotas) * per,
        "metrics.amota.clear_calls": len(nested_clears) * per,
        "metrics.amota.clear_calls_per_point": _ratio(len(nested_clears),
                                                       RECALL_POINTS * len(amotas)),
        "metrics.idf1.similarity_calls": len(
            under(named("metrics.similarity_matrix"), "metrics.idf1")) * per,
        "trace.spans": len(spans) * per,
    }
