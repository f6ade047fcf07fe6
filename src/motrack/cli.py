"""Command-line surface: track, eval, simulate, sweep, ablate-motion."""

from __future__ import annotations

import argparse
import json
import math
import sys
from collections.abc import Callable
from dataclasses import replace
from functools import partial
from statistics import mean

from . import formats, metrics, simulate
from .association import Mode, MotionStrategy
from .tracker import Tracker, run_sequence, validate_config

_PRESETS = {
    "occlusion": simulate.canonical_occlusion_scenario,
    "crossing": simulate.crossing_scenario,
}


def _usage_type(read: Callable[[str], object], kind: str) -> Callable[[str], object]:
    """read as an argparse type: a ValueError it raises is a usage error
    naming kind and the rejected text, also where _count and _taus call it."""
    def convert(text: str):
        try:
            return read(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid {kind} value: {text!r}") from None

    return convert


# Numbers as the record and config files write them (formats.read_number):
# '1_0' is no number.
_int = _usage_type(partial(formats.read_number, int), "int")
_float = _usage_type(partial(formats.read_number, float), "float")


def _count(text: str) -> int:
    """A scenario count: an integer of at least 1."""
    value = _int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _taus(text: str) -> list[float]:
    """A comma-separated list of at least one score threshold."""
    taus = [_float(t.strip()) for t in text.split(",") if t.strip()]
    if not taus:
        raise argparse.ArgumentTypeError(f"needs at least one value, got {text!r}")
    return taus


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="motrack",
        description="2D/3D multi-object tracking, evaluation, and synthetic benchmarks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    track = sub.add_parser("track", help="associate a detection file into tracks")
    track.add_argument("--input", required=True, help="detection file")
    track.add_argument("--output", required=True, help="result file to write")
    track.add_argument("--config", help="key/value config file (given flags override it)")

    def setting(flag: str, key: str, **extra) -> None:
        """A flag setting key only when given, read as a config file reads it."""
        kind = formats._SCALAR_KEYS[key].__name__
        track.add_argument(flag, dest=key, default=argparse.SUPPRESS, **extra,
                           type=_usage_type(partial(formats.read_setting, key), kind))

    setting("--modality", "modality", choices=["camera", "lidar"])
    setting("--tau", "tau", help="detection score split")
    setting("--gate-first", "gate_first")
    setting("--gate-second", "gate_second", help="'none' drops the low-score association pass")
    setting("--track-buffer", "track_buffer")
    setting("--alpha", "alpha", help="'none' turns confidence scaling off")
    setting("--motion", "motion_strategy", choices=[m.value for m in MotionStrategy])

    ev = sub.add_parser("eval", help="score a result file against ground truth")
    ev.add_argument("--gt", required=True)
    ev.add_argument("--pred", required=True)
    ev.add_argument("--metric", choices=["clear", "idf1", "amota", "all"], default="all")
    ev.add_argument("--match-threshold", type=_float, default=None)
    ev.add_argument("--json", help="also write the report as JSON")

    sim = sub.add_parser("simulate", help="generate a synthetic gt + detection pair")
    source = sim.add_mutually_exclusive_group(required=True)
    source.add_argument("--preset", choices=sorted(_PRESETS))
    source.add_argument("--scenario", help="scenario description file (JSON)")
    sim.add_argument("--seed", type=_int, default=None,
                     help="defaults to the preset's canonical seed, else 0")
    sim.add_argument("--out-gt", required=True)
    sim.add_argument("--out-det", required=True)

    sweep = sub.add_parser(
        "sweep", help="MOTA/IDF1 vs the score threshold, two-stage vs single-stage"
    )
    sweep.add_argument("--taus", type=_taus, default="0.3,0.4,0.5,0.6,0.7")
    sweep.add_argument("--scenarios", type=_count, default=20)
    sweep.add_argument("--base-seed", type=_int, default=100)

    ablate = sub.add_parser(
        "ablate-motion", help="compare motion strategies on turn/dropout 3D scenarios"
    )
    ablate.add_argument("--scenarios", type=_count, default=5)
    ablate.add_argument("--base-seed", type=_int, default=500)

    return parser


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _cmd_track(args) -> int:
    options = formats.load_config_file(args.config) if args.config else {}
    # An absent setting flag leaves no attribute, so it overrides nothing.
    options.update((k, v) for k, v in vars(args).items() if k in formats._SCALAR_KEYS)
    text = _read(args.input)
    # The file's records say the mode, and so the defaults.
    config = validate_config({**options, "mode": formats.record_mode(text) or Mode.BOX_2D})
    frames = formats.parse_detections(text)
    # Only the frames holding rows are stepped: a skipped frame is an empty one.
    tracker = Tracker(config)
    for number, detections in frames.nonempty():
        try:
            tracker.step(detections, frame=number)
        except ValueError as exc:
            raise ValueError(f"frame {number}: {exc}") from exc
    output = tracker.output()
    with open(args.output, "w", encoding="utf-8") as fh:
        formats.write_results(output, fh)
    print(f"tracked {output.n_frames} frames, {len(output.track_ids)} boxes")
    return 0


def _cmd_eval(args) -> int:
    gt_text, pred_text = _read(args.gt), _read(args.pred)
    # A file whose lines are all blank takes the other file's mode.
    gt = formats.parse_results(gt_text, formats.record_mode(pred_text))
    pred = formats.parse_results(pred_text, gt.mode)
    report: dict[str, object] = {}
    if args.metric in ("clear", "all"):
        clear = metrics.clear_mot(gt, pred, args.match_threshold)
        report.update(clear.to_dict())
    if args.metric in ("idf1", "all"):
        report["idf1"] = metrics.idf1(gt, pred, args.match_threshold)
    if args.metric in ("amota", "all"):
        report["amota"] = metrics.amota(gt, pred, args.match_threshold).amota
    for key, value in report.items():
        print(f"{key}={value:.6f}" if isinstance(value, float) else f"{key}={value}")
    if args.json:
        # JSON has no NaN: an undefined MOTA (empty ground truth) is written as null.
        data = {key: None if isinstance(value, float) and math.isnan(value) else value
                for key, value in report.items()}
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(data, fh, indent=2, allow_nan=False)
            fh.write("\n")
    return 0


def _cmd_simulate(args) -> int:
    if args.preset:
        spec, default_seed = _PRESETS[args.preset]()
        seed = args.seed if args.seed is not None else default_seed
    else:
        with open(args.scenario, "r", encoding="utf-8") as fh:
            spec = simulate.scenario_from_dict(json.load(fh))
        seed = args.seed if args.seed is not None else 0
    gt, frames = simulate.generate_scenario(spec, seed)
    with open(args.out_gt, "w", encoding="utf-8") as fh:
        formats.write_results(gt, fh)
    with open(args.out_det, "w", encoding="utf-8") as fh:
        formats.write_detections(frames, fh)
    print(f"wrote {len(gt.track_ids)} gt boxes over {gt.n_frames} frames (seed {seed})")
    return 0


def _cmd_sweep(args) -> int:
    # Every config is built, and so checked, before any suite work or output.
    base = validate_config({"mode": "2d"})
    configs = [{label: replace(base, tau=tau, gate_second=gate_second)
                for label, gate_second in (("two", base.gate_second), ("single", None))}
               for tau in args.taus]
    suite = simulate.clutter_suite(args.scenarios, args.base_seed)
    realized = [simulate.generate_scenario(spec, seed) for spec, seed in suite]

    print(f"{'tau':>5} | {'two-stage MOTA':>15} {'IDF1':>7} | "
          f"{'single-stage MOTA':>18} {'IDF1':>7}")
    spreads: dict[str, list[float]] = {"two": [], "single": []}
    for tau, by_label in zip(args.taus, configs):
        row: dict[str, tuple[float, float]] = {}
        for label, config in by_label.items():
            motas, idf1s = [], []
            for gt, frames in realized:
                pred = run_sequence(frames, config)
                motas.append(metrics.clear_mot(gt, pred).mota)
                idf1s.append(metrics.idf1(gt, pred))
            row[label] = (mean(motas), mean(idf1s))
            spreads[label].append(mean(motas))
        print(f"{tau:>5.2f} | {row['two'][0]:>15.4f} {row['two'][1]:>7.4f} | "
              f"{row['single'][0]:>18.4f} {row['single'][1]:>7.4f}")
    for label, name in (("two", "two-stage"), ("single", "single-stage")):
        values = spreads[label]
        print(f"MOTA spread {name}: {max(values) - min(values):.4f}")
    return 0


def _cmd_ablate_motion(args) -> int:
    suite = simulate.motion_ablation_suite(args.scenarios, args.base_seed)
    realized = [simulate.generate_scenario(spec, seed) for spec, seed in suite]
    print(f"{'strategy':>14} | {'IDS':>5} | {'mean MOTA':>9}")
    for strategy in MotionStrategy:
        config = validate_config({"mode": "3d", "motion_strategy": strategy.value})
        ids_total = 0
        motas = []
        for gt, frames in realized:
            pred = run_sequence(frames, config)
            report = metrics.clear_mot(gt, pred)
            ids_total += report.ids
            motas.append(report.mota)
        print(f"{strategy.value:>14} | {ids_total:>5} | {mean(motas):>9.4f}")
    return 0


_HANDLERS = {
    "track": _cmd_track,
    "eval": _cmd_eval,
    "simulate": _cmd_simulate,
    "sweep": _cmd_sweep,
    "ablate-motion": _cmd_ablate_motion,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        return _HANDLERS[args.command](args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
