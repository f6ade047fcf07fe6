"""Benchmark worker: runs the program on generated inputs in a process of its own.

``run.py`` starts this script with ``PYTHONPATH`` pointing at the checkout's
``src`` and BLAS/OpenMP pinned to one thread, so the peak RSS it reports is
the program's alone. It reads ``spec.json`` from the work directory given as
its first argument, and either reports set-up time only (``--setup-only``) or
measures the workload and writes ``result.json`` there.

One caller, one thread, closed loop: each ``Tracker.step`` waits for the
previous one, as behind a detector. Garbage collection stays on.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import statistics
import sys
import time
import traceback

BOX_FIELDS = {"2d": ("x1", "y1", "x2", "y2"), "3d": ("x", "y", "z", "theta", "l", "w", "h")}
TOLERANCE = 1e-6  # boxes and scores against the recorded reference
METRIC_TOLERANCE = 1e-12  # float metric values; counts must match exactly


def _read(work: str, name: str) -> str:
    with open(os.path.join(work, name), encoding="utf-8") as fh:
        return fh.read()


def _frames_of(output, mode: str) -> dict[int, list]:
    """Per-frame [id, class, box fields..., score] rows, sorted by id."""
    fields = BOX_FIELDS[mode]
    frames: dict[int, list] = {}
    for rec in output.records:
        frames.setdefault(rec.frame, []).append(
            [rec.track_id, rec.class_id, *(getattr(rec.box, f) for f in fields), rec.score])
    for rows in frames.values():
        rows.sort(key=lambda row: row[0])
    return frames


def _rows_equal(got: list, want: list, tol: float) -> bool:
    if len(got) != len(want):
        return False
    for a, b in zip(got, want):
        if a[:2] != b[:2] or any(abs(x - y) > tol for x, y in zip(a[2:], b[2:])):
            return False
    return True


def _report_equal(got: dict, want: dict) -> bool:
    if got.keys() != want.keys():
        return False
    for key, value in want.items():
        if isinstance(value, int):
            if got[key] != value:
                return False
        elif not (got[key] == value or abs(got[key] - value) <= METRIC_TOLERANCE):
            return False
    return True


class Program:
    """The program as a user drives it: track detection files, score result files."""

    def __init__(self, work: str, spec: dict):
        self.mod = {name: importlib.import_module(f"motrack.{name}")
                    for name in ("association", "formats", "metrics", "motion", "tracker")}
        self.work, self.spec = work, spec
        self.attempted = 0
        self.failures: list[str] = []
        self.calibrator = None  # set while measuring; see calibration.py
        self.configs = {mode: self.mod["tracker"].validate_config({"mode": mode})
                        for mode in ("2d", "3d")}

    def fail(self, message: str) -> None:
        self.failures.append(message)

    # --- tracking ------------------------------------------------------------

    def track(self, det_text: str, mode: str, out_name: str, timings: list | None = None):
        """File to file, as ``motrack track``: parse, step every frame, output, write.

        Appends the row [parse, step 1, ..., step n, output, write] of
        (start, end) wall-clock pairs to ``timings``. The calibration kernel
        runs between frames, outside the timed calls.
        """
        formats, tracker_mod = self.mod["formats"], self.mod["tracker"]
        clock = time.perf_counter
        start = clock()
        if mode == "2d":
            frames = formats.parse_mot_detections(det_text)
        else:
            frames = formats.parse_3d_detections(det_text)
        row = [(start, clock())]
        tracker = tracker_mod.Tracker(self.configs[mode])
        for index, detections in enumerate(frames, start=1):
            self.attempted += 1
            start = clock()
            try:
                tracker.step(detections, frame=index)
            except Exception as exc:  # counted and reported, the run goes on
                self.fail(f"{out_name} frame {index}: {exc!r}")
            row.append((start, clock()))
            self.tick()
        start = clock()
        output = tracker.output()
        row.append((start, clock()))
        start = clock()
        with open(os.path.join(self.work, out_name), "w", encoding="utf-8") as fh:
            if mode == "2d":
                formats.write_mot_results(output, fh)
            else:
                formats.write_3d_results(output, fh)
        row.append((start, clock()))
        if timings is not None:
            timings.append(row)
        return output, len(frames)

    def tick(self) -> None:
        if self.calibrator is not None:
            self.calibrator.tick()

    def parse_results(self, text: str, mode: str):
        formats = self.mod["formats"]
        return formats.parse_mot_results(text) if mode == "2d" else formats.parse_3d_results(text)

    # --- evaluation ----------------------------------------------------------

    def evaluate(self, gt, pred, times: dict | None = None, seq: str = "") -> dict:
        """CLEAR, IDF1 and AMOTA of one sequence; each call's (start, end)
        wall-clock pair goes to ``times[(metric, seq)]``."""
        metrics = self.mod["metrics"]
        calls = (
            ("clear", lambda: metrics.clear_mot(gt, pred).to_dict()),
            ("idf1", lambda: metrics.idf1(gt, pred)),
            ("amota", lambda: metrics.amota(gt, pred).amota),
        )
        report = {}
        for name, call in calls:
            self.tick()
            self.attempted += 1
            start = time.perf_counter()
            try:
                value = call()
            except Exception as exc:  # counted and reported, the run goes on
                self.fail(f"{name} {seq}: {exc!r}")
                continue
            if times is not None:
                times[(name, seq)] = (start, time.perf_counter())
            if isinstance(value, dict):
                report.update({f"clear.{k}": v for k, v in value.items()})
            else:
                report[name] = value
        return report

    # --- reference probe -------------------------------------------------------

    def probe(self) -> dict:
        """Outputs on the fixed probe inputs, in the layout of ``reference.json``."""
        probe = self.spec["probe"]
        result = {}
        for key in ("scene_2d", "scene_3d"):
            scene = probe[key]
            output, n_frames = self.track(_read(self.work, scene["det"]), scene["mode"],
                                          f"probe_{key}_out.txt")
            frames = _frames_of(output, scene["mode"])
            result[key] = [frames.get(f, []) for f in range(1, n_frames + 1)]
        result["suite"] = {}
        for seq in probe["suite"]:
            gt = self.parse_results(_read(self.work, seq["gt"]), seq["mode"])
            pred = self.parse_results(_read(self.work, seq["pred"]), seq["mode"])
            result["suite"][seq["name"]] = self.evaluate(gt, pred, seq=seq["name"])
        return result

    def check_probe(self, reference: dict) -> None:
        got = self.probe()
        for key in ("scene_2d", "scene_3d"):
            want = reference[key]
            if len(got[key]) != len(want):
                self.fail(f"probe {key}: {len(got[key])} frames, reference has {len(want)}")
            for frame, (rows, ref) in enumerate(zip(got[key], want), start=1):
                if not _rows_equal(rows, ref, TOLERANCE):
                    self.fail(f"probe {key} frame {frame} differs from the reference")
        for name, ref in reference["suite"].items():
            if not _report_equal(got["suite"].get(name, {}), ref):
                self.fail(f"probe eval {name}: {got['suite'].get(name)} != {ref}")


class Workload:
    """The seeded workload: repeated track rounds and eval passes, checked for repeatability."""

    def __init__(self, work: str, spec: dict):
        self.program: Program | None = None
        self.scene = spec["scene"]
        self.det_text = _read(work, self.scene["det"])
        self.warm_det = _read(work, spec["warmup"]["det"])
        self.warm_eval = (spec["warmup"]["mode"], _read(work, spec["warmup"]["gt"]),
                          _read(work, spec["warmup"]["pred"]))
        self.suite = [(seq, _read(work, seq["gt"]), _read(work, seq["pred"]))
                      for seq in spec["suite"]]
        self.track_rows: list[list[float]] = []  # calibrated times, see calibration.py
        self.eval_rows: list[dict] = []  # calibrated times
        self.host_factors: list[float] = []  # at the middle of each round and pass
        self.raw_round_s: list[float] = []
        self.last_output = None
        self.first_digests = None
        self.first_reports = None
        self.tracer = None  # set for the traced cycles; spans get the sequence as context

    def warm_up(self, program: Program) -> None:
        """Track the first frames of the scene and score the first frames of an eval sequence."""
        self.program = program
        program.track(self.warm_det, self.scene["mode"], "warmup_out.txt")
        mode, gt_text, pred_text = self.warm_eval
        program.evaluate(program.parse_results(gt_text, mode),
                         program.parse_results(pred_text, mode))

    def track_round(self) -> None:
        self.last_output = None  # one output alive at a time, as in `motrack track`
        rows: list[list[tuple[float, float]]] = []
        output, _ = self._calibrated(lambda: self.program.track(
            self.det_text, self.scene["mode"], "scene_out.txt", rows))
        self.raw_round_s.append(sum(end - start for start, end in rows[0]))
        self.track_rows.append(self.program.calibrator.scaled(rows[0]))
        digests = {frame: hash(tuple(map(tuple, rows)))
                   for frame, rows in _frames_of(output, self.scene["mode"]).items()}
        self.last_output = output
        if self.first_digests is None:
            self.first_digests = digests
            return
        for frame in sorted(set(digests) | set(self.first_digests)):
            if digests.get(frame) != self.first_digests.get(frame):
                self.program.fail(f"scene frame {frame} differs between rounds")

    def eval_pass(self) -> None:
        times: dict = {}
        reports = self._calibrated(lambda: [self._evaluate(seq, gt_text, pred_text, times)
                                            for seq, gt_text, pred_text in self.suite])
        self.eval_rows.append(dict(zip(times, self.program.calibrator.scaled(list(times.values())))))
        if self.first_reports is None:
            self.first_reports = reports
            return
        for (seq, _, _), got, want in zip(self.suite, reports, self.first_reports):
            if got != want:
                self.program.fail(f"eval {seq['name']} differs between passes")

    def _evaluate(self, seq: dict, gt_text: str, pred_text: str, times: dict) -> dict:
        if self.tracer is not None:
            self.tracer.context = f"eval:{seq['name']}"
        gt = self.program.parse_results(gt_text, seq["mode"])
        pred = self.program.parse_results(pred_text, seq["mode"])
        return self.program.evaluate(gt, pred, times, seq["name"])

    def _calibrated(self, unit):
        """Run one round or pass between bursts of calibration samples."""
        calibrator = self.program.calibrator
        calibrator.burst_samples()
        start = time.perf_counter()
        value = unit()
        end = time.perf_counter()
        calibrator.burst_samples()
        self.host_factors.append(calibrator.factor((start + end) / 2))
        return value

    def measure(self, seconds: float, min_rounds: int, min_passes: int) -> None:
        """Interleave track rounds and eval passes, keeping each phase near its
        share of the time; stop when the next unit would overrun by more than half."""
        share = self.program.spec["track_share"]
        targets = (share * seconds, (1.0 - share) * seconds)
        spent, counts, last = [0.0, 0.0], [0, 0], [0.0, 0.0]
        minimum = (min_rounds, min_passes)
        start = time.perf_counter()
        while True:
            short = [k for k in (0, 1) if counts[k] < minimum[k]]
            phase = short[0] if short else (
                0 if spent[0] / targets[0] <= spent[1] / targets[1] else 1)
            if not short and time.perf_counter() - start + last[phase] / 2 > seconds:
                break
            t0 = time.perf_counter()
            (self.track_round if phase == 0 else self.eval_pass)()
            last[phase] = time.perf_counter() - t0
            spent[phase] += last[phase]
            counts[phase] += 1


def _typical_round(rows: list[list[float]]) -> list[float]:
    """Each stage's and each frame's median over rounds: [parse, steps..., output, write].

    The rows are calibrated: each call is already scaled by the host factor
    at its time, so a round the host ran slow counts as it would have read
    at reference speed.
    """
    return [statistics.median(column) for column in zip(*rows)]


def _frames_per_s(rows: list[list[float]]) -> float:
    """Frames over the wall time of the typical round, file to file."""
    typical = _typical_round(rows)
    return (len(typical) - 3) / sum(typical)


def _eval_seconds(rows: list[dict], metric: str) -> float:
    """One metric's wall time over the suite: per-sequence medians over passes, summed."""
    keys = [key for key in rows[0] if key[0] == metric]
    return sum(statistics.median(row[key] for row in rows if key in row) for key in keys)


def _percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("work")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--record-reference", action="store_true")
    parser.add_argument("--import-only", action="store_true",
                        help="time importing the program's dependencies, for calibration.py")
    args = parser.parse_args(argv)
    if args.import_only:
        start = time.perf_counter()
        importlib.import_module("numpy")
        importlib.import_module("scipy.optimize")
        print(json.dumps({"import_s": time.perf_counter() - start}))
        return 0
    with open(os.path.join(args.work, "spec.json"), encoding="utf-8") as fh:
        spec = json.load(fh)

    workload = Workload(args.work, spec)
    # Set-up as a user pays it: import (numpy and scipy included), config, warm-up.
    start = time.perf_counter()
    program = Program(args.work, spec)
    workload.warm_up(program)
    setup_s = time.perf_counter() - start
    motrack_file = sys.modules["motrack"].__file__
    if not os.path.abspath(motrack_file).startswith(spec["src"] + os.sep):
        print(f"motrack was imported from {motrack_file}, not from {spec['src']}", file=sys.stderr)
        return 2
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    if args.record_reference:
        with open(os.path.join(args.work, "reference.json"), "w", encoding="utf-8") as fh:
            json.dump(program.probe(), fh)
        return 0
    import calibration  # after set-up is timed: it is the benchmark's, not the program's

    seconds = spec["seconds"]
    program.calibrator = calibration.Calibrator(spec["calibration_reference_s"])
    result: dict = {"setup_s": setup_s}
    if spec["trace"]:
        # Untraced baseline first, then whole traced cycles; the gap is the overhead.
        workload.measure(seconds / 2, 1, 1)
        untraced_fps = _frames_per_s(workload.track_rows)
        import tracing

        tracer = workload.tracer = tracing.Tracer()
        tracer.install(tracing.boundaries(program.mod))
        rounds_before, cycles = len(workload.track_rows), 0
        traced_start = time.perf_counter()
        while cycles == 0 or time.perf_counter() - traced_start < seconds / 2:
            cycles += 1
            tracer.context = f"track:{workload.scene['det']}"
            workload.track_round()
            workload.eval_pass()
        tracer.uninstall()
        workload.tracer = None
        traced_fps = _frames_per_s(workload.track_rows[rounds_before:])
        layers = tracing.derive(tracer.spans, cycles)
        layers["trace.overhead_frac"] = untraced_fps / traced_fps - 1.0
        tracer.write(os.path.join(args.work, "spans.jsonl"))
        result.update(per_layer=layers, absent_layers=tracer.absent, traced_cycles=cycles)
    else:
        workload.measure(seconds, spec["min_rounds"], spec["min_passes"])

    gt = program.parse_results(_read(args.work, workload.scene["gt"]), workload.scene["mode"])
    mota = program.mod["metrics"].clear_mot(gt, workload.last_output).mota
    with open(spec["reference"], encoding="utf-8") as fh:
        program.check_probe(json.load(fh))
    numpy, scipy = sys.modules["numpy"], sys.modules["scipy"]
    # Every calibrated Tracker.step call of every round (>= 200, so >= 20 beyond p90).
    steps = [step for row in workload.track_rows for step in row[1:-2]]
    rows = workload.eval_rows
    result.update(
        frames_per_s=_frames_per_s(workload.track_rows),
        step_ms_p50=statistics.median(steps) * 1e3,
        step_ms_p90=_percentile(steps, 90) * 1e3,
        step_samples=len(steps),
        track_rounds=len(workload.track_rows),
        round_s=workload.raw_round_s,
        host_factors=workload.host_factors,
        calibration_samples=len(program.calibrator.durations),
        eval_passes=len(rows),
        clear_s=_eval_seconds(rows, "clear"),
        idf1_s=_eval_seconds(rows, "idf1"),
        amota_s=_eval_seconds(rows, "amota"),
        mota=mota,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        attempted=program.attempted,
        failed=len(program.failures),
        failures=program.failures[:20],
        versions={"python": sys.version.split()[0], "numpy": numpy.__version__,
                  "scipy": scipy.__version__},
    )
    with open(os.path.join(args.work, "result.json"), "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(1)
