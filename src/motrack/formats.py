"""Text formats: MOT-style 2D records, 3D records, and the key/value config file.

2D lines follow the MOTChallenge convention
``frame,id,x,y,w,h,score,-1,-1,-1`` with 1-based frames, top-left corner plus
width/height in pixels, and id -1 for raw detections. 3D lines are
``frame,id,class,x,y,z,theta,l,w,h,vx,vy,score`` in meters/radians with
per-frame velocities; vx/vy are left empty when the detector supplies none.
Floats are written with full round-trip precision so write-then-parse is
lossless.
"""

from __future__ import annotations

from typing import IO, Iterable

from .association import Detection, Mode
from .geometry import Box2D, Box3D
from .tracker import CLASS_IDS, CLASS_NAMES, TrackOutput, TrackRecord

_MOT_FIELDS = 10
_3D_FIELDS = 13


def _fmt(value: float) -> str:
    return repr(float(value))


def _fail(line_no: int, message: str) -> ValueError:
    return ValueError(f"line {line_no}: {message}")


def _parse_float(token: str, line_no: int, name: str) -> float:
    try:
        return float(token)
    except ValueError:
        raise _fail(line_no, f"{name} is not a number: {token!r}") from None


def _parse_int(token: str, line_no: int, name: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise _fail(line_no, f"{name} is not an integer: {token!r}") from None


def _split_line(line: str, line_no: int, expected: int) -> list[str]:
    fields = [f.strip() for f in line.split(",")]
    if len(fields) != expected:
        raise _fail(line_no, f"expected {expected} comma-separated fields, got {len(fields)}")
    return fields


def _iter_lines(text: str) -> Iterable[tuple[int, str]]:
    for line_no, line in enumerate(text.splitlines(), start=1):
        if line.strip():
            yield line_no, line


def _dense_frames(parsed: list[tuple[int, Detection]]) -> list[list[Detection]]:
    """Group (frame, detection) pairs into dense 1-based frames."""
    n_frames = max((frame for frame, _ in parsed), default=0)
    frames: list[list[Detection]] = [[] for _ in range(n_frames)]
    for frame, det in parsed:
        frames[frame - 1].append(det)
    return frames


def _results_output(records: list[TrackRecord], mode: Mode) -> TrackOutput:
    """Order parsed result records by frame and wrap them as a TrackOutput."""
    records.sort(key=lambda r: r.frame)
    n_frames = max((r.frame for r in records), default=0)
    return TrackOutput(tuple(records), mode, n_frames)


# --- 2D MOT records --------------------------------------------------------------


def _parse_mot_line(line: str, line_no: int) -> tuple[int, int, Box2D, float]:
    fields = _split_line(line, line_no, _MOT_FIELDS)
    frame = _parse_int(fields[0], line_no, "frame")
    track_id = _parse_int(fields[1], line_no, "id")
    x = _parse_float(fields[2], line_no, "x")
    y = _parse_float(fields[3], line_no, "y")
    w = _parse_float(fields[4], line_no, "w")
    h = _parse_float(fields[5], line_no, "h")
    score = _parse_float(fields[6], line_no, "score")
    for name, token in zip(("u1", "u2", "u3"), fields[7:]):
        _parse_float(token, line_no, name)
    if frame < 1:
        raise _fail(line_no, f"frame must be >= 1, got {frame}")
    if w <= 0 or h <= 0:
        raise _fail(line_no, f"box size must be positive, got w={w}, h={h}")
    if not 0.0 <= score <= 1.0:
        raise _fail(line_no, f"score must be in [0, 1], got {score}")
    return frame, track_id, Box2D.from_xywh(x, y, w, h), score


def mot_line(frame: int, track_id: int, box: Box2D, score: float) -> str:
    x, y, w, h = box.to_xywh()
    return f"{frame},{track_id},{_fmt(x)},{_fmt(y)},{_fmt(w)},{_fmt(h)},{_fmt(score)},-1,-1,-1"


def parse_mot_detections(text: str) -> list[list[Detection]]:
    """Read raw detections grouped into dense 1-based frames."""
    return _dense_frames([(frame, Detection(box, score))
                          for line_no, line in _iter_lines(text)
                          for frame, _, box, score in [_parse_mot_line(line, line_no)]])


def parse_mot_results(text: str) -> TrackOutput:
    """Read a tracked-results file (ids >= 1) back into a TrackOutput."""
    records = []
    for line_no, line in _iter_lines(text):
        frame, track_id, box, score = _parse_mot_line(line, line_no)
        if track_id < 1:
            raise _fail(line_no, f"result id must be >= 1, got {track_id}")
        records.append(TrackRecord(frame, track_id, box, score))
    return _results_output(records, Mode.BOX_2D)


def write_mot_results(output: TrackOutput, sink: IO[str]) -> None:
    """Write a 2D TrackOutput as MOT result lines; 3D outputs are rejected."""
    if output.mode is not Mode.BOX_2D:
        raise ValueError("MOT result format is 2D only")
    for rec in output.records:
        sink.write(mot_line(rec.frame, rec.track_id, rec.box, rec.score) + "\n")


# --- 3D records -------------------------------------------------------------------


def _class_name(class_id: int) -> str:
    if 0 <= class_id < len(CLASS_NAMES):
        return CLASS_NAMES[class_id]
    return str(class_id)


def _class_id(token: str, line_no: int) -> int:
    if token in CLASS_IDS:
        return CLASS_IDS[token]
    try:
        return int(token)
    except ValueError:
        raise _fail(line_no, f"unknown class label {token!r}") from None


def box3d_line(
    frame: int,
    track_id: int,
    box: Box3D,
    score: float,
    class_id: int = 0,
    velocity: tuple[float, float] | None = None,
) -> str:
    vx = _fmt(velocity[0]) if velocity is not None else ""
    vy = _fmt(velocity[1]) if velocity is not None else ""
    values = (frame, track_id, _class_name(class_id), _fmt(box.x), _fmt(box.y),
              _fmt(box.z), _fmt(box.theta), _fmt(box.l), _fmt(box.w), _fmt(box.h),
              vx, vy, _fmt(score))
    return ",".join(str(v) for v in values)


def _parse_3d_line(line: str, line_no: int):
    fields = _split_line(line, line_no, _3D_FIELDS)
    frame = _parse_int(fields[0], line_no, "frame")
    track_id = _parse_int(fields[1], line_no, "id")
    class_id = _class_id(fields[2], line_no)
    numbers = [_parse_float(fields[k], line_no, name)
               for k, name in ((3, "x"), (4, "y"), (5, "z"), (6, "theta"),
                               (7, "l"), (8, "w"), (9, "h"))]
    velocity = None
    if fields[10] or fields[11]:
        if not (fields[10] and fields[11]):
            raise _fail(line_no, "vx and vy must both be present or both empty")
        velocity = (_parse_float(fields[10], line_no, "vx"),
                    _parse_float(fields[11], line_no, "vy"))
    score = _parse_float(fields[12], line_no, "score")
    if frame < 1:
        raise _fail(line_no, f"frame must be >= 1, got {frame}")
    if not 0.0 <= score <= 1.0:
        raise _fail(line_no, f"score must be in [0, 1], got {score}")
    try:
        box = Box3D(*numbers)
    except ValueError as exc:
        raise _fail(line_no, str(exc)) from None
    return frame, track_id, class_id, box, velocity, score


def parse_3d_detections(text: str) -> list[list[Detection]]:
    """Read 3D detections (id column -1) grouped into dense 1-based frames."""
    parsed = []
    for line_no, line in _iter_lines(text):
        frame, _, class_id, box, velocity, score = _parse_3d_line(line, line_no)
        parsed.append((frame, Detection(box, score, class_id, velocity)))
    return _dense_frames(parsed)


def parse_3d_results(text: str) -> TrackOutput:
    records = []
    for line_no, line in _iter_lines(text):
        frame, track_id, class_id, box, _, score = _parse_3d_line(line, line_no)
        if track_id < 1:
            raise _fail(line_no, f"result id must be >= 1, got {track_id}")
        records.append(TrackRecord(frame, track_id, box, score, class_id))
    return _results_output(records, Mode.BOX_3D)


def write_3d_results(output: TrackOutput, sink: IO[str]) -> None:
    if output.mode is not Mode.BOX_3D:
        raise ValueError("3D result format needs a 3D output")
    for rec in output.records:
        sink.write(box3d_line(rec.frame, rec.track_id, rec.box, rec.score,
                              rec.class_id) + "\n")


def write_detections(frames: list[list[Detection]], mode: Mode, sink: IO[str]) -> None:
    """Write a detection stream in the matching per-mode format (id column -1)."""
    for index, detections in enumerate(frames, start=1):
        for det in detections:
            if mode is Mode.BOX_2D:
                sink.write(mot_line(index, -1, det.box, det.score) + "\n")
            else:
                sink.write(box3d_line(index, -1, det.box, det.score, det.class_id,
                                      det.velocity) + "\n")


# --- config files -----------------------------------------------------------------

_SCALAR_KEYS = {
    "mode": str,
    "modality": str,
    "tau": float,
    "gate_first": float,
    "gate_second": float,
    "track_buffer": int,
    "alpha": float,
    "adaptive_r": bool,
    "second_pass": bool,
    "motion_strategy": str,
}


def _parse_bool(token: str, line_no: int, name: str) -> bool:
    lowered = token.lower()
    if lowered in ("true", "1", "yes", "on"):
        return True
    if lowered in ("false", "0", "no", "off"):
        return False
    raise _fail(line_no, f"{name} must be a boolean, got {token!r}")


def parse_config_text(text: str) -> dict[str, object]:
    """Parse ``key = value`` lines into a raw options mapping.

    Per-class gates use dotted keys, e.g. ``gate_first.car = -0.1`` or
    ``gate_first.default = -0.5``; '#' starts a comment. The result feeds
    validate_config, which applies per-mode defaults.
    """
    options: dict[str, object] = {}
    class_gates: dict[str, dict[int, float]] = {}
    for line_no, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise _fail(line_no, f"expected 'key = value', got {raw_line.strip()!r}")
        key, _, value = (part.strip() for part in line.partition("="))
        if "." in key:
            base, _, label = key.partition(".")
            if base not in ("gate_first", "gate_second"):
                raise _fail(line_no, f"unknown per-class key {key!r}")
            if label == "default":
                class_id = -1
            elif label in CLASS_IDS:
                class_id = CLASS_IDS[label]
            else:
                raise _fail(line_no, f"unknown class label {label!r}")
            class_gates.setdefault(base, {})[class_id] = _parse_float(
                value, line_no, key
            )
            continue
        if key not in _SCALAR_KEYS:
            raise _fail(line_no, f"unknown config key {key!r}")
        kind = _SCALAR_KEYS[key]
        if kind is bool:
            options[key] = _parse_bool(value, line_no, key)
        elif kind is float:
            options[key] = _parse_float(value, line_no, key)
        elif kind is int:
            options[key] = _parse_int(value, line_no, key)
        else:
            options[key] = value
    for base, table in class_gates.items():
        if base in options:
            raise ValueError(f"{base} given both as a scalar and a per-class table")
        options[base] = table
    return options


def load_config_file(path: str) -> dict[str, object]:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config_text(fh.read())
