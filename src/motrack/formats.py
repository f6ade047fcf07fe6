"""Text formats: MOT-style 2D records, 3D records, and the key/value config file.

2D lines follow the MOTChallenge convention
``frame,id,x,y,w,h,score,-1,-1,-1`` with 1-based frames, top-left corner plus
width/height in pixels, and id -1 for raw detections. 3D lines are
``frame,id,class,x,y,z,theta,l,w,h,vx,vy,score`` in meters/radians with
per-frame velocities; vx/vy are left empty when the detector supplies none.
Floats are written with full round-trip precision so write-then-parse is
lossless.

Records are read as columns. Each chunk of lines is split into fields at
once, each field column is converted in bulk, and every row is validated with
array masks: the field checks, then association.row_rules. The first bad row
is reported as ``line N: ...``, with the message of the first check it fails
in field order. parse_*_detections return DetectionFrames, per-frame views
over columns sorted by frame; parse_*_results return a TrackOutput. The
writers format from the same columns.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import fields
from enum import Enum
from itertools import repeat
from typing import IO, Callable, Iterable, Iterator

import numpy as np

from .association import (DEFAULT_GATE_KEY, DetectionFrame, Mode, TrackerConfig, _wrap_yaw,
                          check_mode, row_rules)
from .tracker import CLASS_IDS, CLASS_NAMES, TrackOutput

_MOT_FIELDS = 10
_3D_FIELDS = 13
_CHUNK_CHARS = 1 << 14  # text parsed per chunk, cut at a line break
_WRITE_ROWS = 1024  # lines formatted per write


def _fail(line_no: int, message: str) -> ValueError:
    return ValueError(f"line {line_no}: {message}")


# --- columnar parsing -------------------------------------------------------------


def _line_chunks(text: str) -> Iterator[tuple[int, list[str]]]:
    """(number of the first line, lines) per chunk of about _CHUNK_CHARS
    characters, at least one. Chunks end after a newline, so their lines are
    those of text.splitlines()."""
    start, line_no = 0, 1
    while True:
        cut = text.find("\n", start + _CHUNK_CHARS)
        stop = len(text) if cut < 0 else cut + 1
        lines = text[start:stop].splitlines()
        yield line_no, lines
        if stop == len(text):
            return
        line_no += len(lines)
        start = stop


class _Rows:
    """One chunk's non-blank lines as field columns, and the first error among them.

    Only the lines before the first one with the wrong field count become
    rows; that line's error is raised if no row before it fails. Checks are
    registered in the order the fields and rules of one line apply, so the
    first failing row is reported with the first check it fails.
    """

    def __init__(self, first_line_no: int, lines: list[str], n_fields: int):
        line_nos = range(first_line_no, first_line_no + len(lines))
        if "" in lines or any(map(str.isspace, lines)):
            kept = [i for i, line in enumerate(lines) if line and not line.isspace()]
            lines, line_nos = [lines[i] for i in kept], [line_nos[i] for i in kept]
        commas = list(map(str.count, lines, repeat(",")))
        n, self.tail = len(lines), None
        if commas.count(n_fields - 1) != n:
            n = next(i for i, count in enumerate(commas) if count != n_fields - 1)
            self.tail = (line_nos[n],
                         f"expected {n_fields} comma-separated fields, got {commas[n] + 1}")
        tokens = ",".join(lines[:n]).split(",") if n else []
        self.columns = [tokens[k::n_fields] for k in range(n_fields)]
        self.line_nos = line_nos
        self.row, self.describe = n, None

    def check(self, bad: np.ndarray | None, describe: Callable[[int], str]) -> None:
        """Register a check: bad marks the rows failing it (None: no row),
        describe(i) gives row i's message."""
        if bad is None:
            return
        hits = np.flatnonzero(bad[:self.row])
        if hits.size:
            self.row, self.describe = int(hits[0]), describe

    def raise_first(self, frames: np.ndarray, ids: np.ndarray, rules: list, results: bool) -> None:
        """Check frames >= 1, the row rules and result ids >= 1; raise the first error."""
        self.check(frames < 1, lambda i: f"frame must be >= 1, got {int(frames[i])}")
        for _, bad, describe in rules:
            self.check(bad, describe)
        if results:
            self.check(ids < 1, lambda i: f"result id must be >= 1, got {int(ids[i])}")
        if self.describe is not None:
            raise _fail(self.line_nos[self.row], self.describe(self.row))
        if self.tail is not None:
            raise _fail(*self.tail)

    def floats(self, k: int, name: str, tokens: list[str] | None = None) -> np.ndarray:
        """Field k (or the given tokens) as floats, with its number check."""
        tokens = self.columns[k] if tokens is None else tokens
        values, bad = _convert(tokens, float, np.float64)
        self.check(bad, lambda i: f"{name} is not a number: {tokens[i].strip()!r}")
        return values

    def ints(self, k: int, name: str) -> np.ndarray:
        """Field k as int64, with its integer check."""
        tokens = self.columns[k]
        values, bad = _convert(tokens, int, np.int64)

        def describe(i: int) -> str:
            token = tokens[i].strip()
            try:
                int(token)
            except ValueError:
                return f"{name} is not an integer: {token!r}"
            return f"{name} is out of range: {token!r}"

        self.check(bad, describe)
        return values


def _convert(
    tokens: list[str], kind: Callable[[str], float], dtype
) -> tuple[np.ndarray, np.ndarray | None]:
    """Tokens converted by kind (float, int, ...) in one pass, plus a mask of
    the tokens it rejects or dtype cannot hold (None if there are none; 0 there)."""
    try:
        return np.fromiter(map(kind, tokens), dtype=dtype, count=len(tokens)), None
    except (ValueError, OverflowError):
        pass
    values = np.zeros(len(tokens), dtype=dtype)
    bad = np.zeros(len(tokens), dtype=bool)
    for i, token in enumerate(tokens):
        try:
            values[i] = kind(token)
        except (ValueError, OverflowError):
            bad[i] = True
    return values, bad


def _by_frame(frames: np.ndarray, *columns: np.ndarray) -> tuple[np.ndarray, ...]:
    """Columns ordered by frame, keeping file order within a frame."""
    if np.all(frames[1:] >= frames[:-1]):
        return (frames, *columns)
    order = np.argsort(frames, kind="stable")
    return tuple(column[order] for column in (frames, *columns))


def _concat(chunks: list[tuple[np.ndarray, ...]]) -> tuple[np.ndarray, ...]:
    return tuple(np.concatenate(parts) for parts in zip(*chunks))


class DetectionFrames(Sequence):
    """Parsed detections: item i is frame i + 1 as a DetectionFrame view.

    The rows are held once, sorted by frame with file order kept within a
    frame, and a frame's rows are found by binary search. So memory follows
    the number of rows, not the largest frame number. The columns are the
    parser's, every row checked, 3D yaws wrapped and unset velocities 0, so a
    view is built without checking its rows again.
    """

    def __init__(self, frames: np.ndarray, boxes: np.ndarray, scores: np.ndarray,
                 class_ids: np.ndarray, velocities: np.ndarray, has_velocity: np.ndarray):
        self._frames = frames
        self._columns = (boxes, scores, class_ids, velocities, has_velocity)
        self._n = int(frames[-1]) if len(frames) else 0

    def __len__(self) -> int:
        return self._n

    def __getitem__(self, index: int) -> DetectionFrame:
        if index < 0:
            index += self._n
        if not 0 <= index < self._n:
            raise IndexError("frame index out of range")
        start, stop = np.searchsorted(self._frames, (index + 1, index + 2)).tolist()
        return DetectionFrame._of_checked(*(column[start:stop] for column in self._columns))


# --- 2D MOT records --------------------------------------------------------------


def _mot_columns(text: str, results: bool) -> tuple[np.ndarray, ...]:
    """(frames, ids, scores, boxes) of MOT lines, in file order."""
    chunks = []
    for first_line_no, lines in _line_chunks(text):
        rows = _Rows(first_line_no, lines, _MOT_FIELDS)
        frames, ids = rows.ints(0, "frame"), rows.ints(1, "id")
        x, y, w, h, scores = (rows.floats(k, name)
                              for k, name in enumerate(("x", "y", "w", "h", "score"), start=2))
        for k, name in enumerate(("u1", "u2", "u3"), start=7):
            rows.floats(k, name)
        with np.errstate(over="ignore", invalid="ignore"):
            boxes = np.stack((x, y, x + w, y + h), axis=1)
        # MOT has no velocity; detection rows are checked as detections.
        rules = (row_rules(boxes, scores) if results else
                 row_rules(boxes, scores, np.zeros((len(boxes), 2)), np.zeros(len(boxes), bool)))
        rows.raise_first(frames, ids, rules, results)
        chunks.append((frames, ids, scores, boxes))
    return _concat(chunks)


def parse_mot_detections(text: str) -> DetectionFrames:
    """Read raw detections as frames 1..n (the largest frame number)."""
    frames, _, scores, boxes = _by_frame(*_mot_columns(text, results=False))
    n = len(frames)
    return DetectionFrames(frames, boxes, scores, np.zeros(n, dtype=np.int64),
                           np.zeros((n, 2)), np.zeros(n, dtype=bool))


def parse_mot_results(text: str) -> TrackOutput:
    """Read a tracked-results file (ids >= 1) back into a TrackOutput."""
    frames, ids, scores, boxes = _by_frame(*_mot_columns(text, results=True))
    n_frames = int(frames[-1]) if len(frames) else 0
    return TrackOutput(frames, ids, np.zeros(len(ids), dtype=np.int64), scores, boxes,
                       Mode.BOX_2D, n_frames)


def _mot_text(frames: np.ndarray, track_ids: np.ndarray, scores: np.ndarray,
              boxes: np.ndarray) -> Iterator[str]:
    """MOT lines of the rows, _WRITE_ROWS lines per string."""
    for start in range(0, len(frames), _WRITE_ROWS):
        part = slice(start, start + _WRITE_ROWS)
        b = boxes[part]
        with np.errstate(over="ignore", invalid="ignore"):
            w, h = b[:, 2] - b[:, 0], b[:, 3] - b[:, 1]
        yield "".join(
            f"{frame},{track_id},{x!r},{y!r},{w!r},{h!r},{score!r},-1,-1,-1\n"
            for frame, track_id, x, y, w, h, score in zip(
                frames[part].tolist(), track_ids[part].tolist(), b[:, 0].tolist(),
                b[:, 1].tolist(), w.tolist(), h.tolist(), scores[part].tolist()))


def write_mot_results(output: TrackOutput, sink: IO[str]) -> None:
    """Write a 2D TrackOutput as MOT result lines; 3D outputs are rejected."""
    if output.mode is not Mode.BOX_2D:
        raise ValueError("MOT result format is 2D only")
    for text in _mot_text(output.frames, output.track_ids, output.scores, output.boxes):
        sink.write(text)


# --- 3D records -------------------------------------------------------------------


def _class_name(class_id: int) -> str:
    if 0 <= class_id < len(CLASS_NAMES):
        return CLASS_NAMES[class_id]
    return str(class_id)


def _class_id(label: str) -> int:
    return CLASS_IDS[label] if label in CLASS_IDS else int(label)


def _3d_columns(text: str, results: bool) -> tuple[np.ndarray, ...]:
    """(frames, ids, class ids, scores, boxes, velocities, has_velocity) of 3D
    lines, in file order."""
    chunks = []
    for first_line_no, lines in _line_chunks(text):
        rows = _Rows(first_line_no, lines, _3D_FIELDS)
        frames, ids = rows.ints(0, "frame"), rows.ints(1, "id")
        labels = [token.strip() for token in rows.columns[2]]
        class_ids, bad = _convert(labels, _class_id, np.int64)
        rows.check(bad, lambda i: f"unknown class label {labels[i]!r}")
        boxes = np.stack([rows.floats(k, name) for k, name in
                          enumerate(("x", "y", "z", "theta", "l", "w", "h"), start=3)], axis=1)
        vx_tokens = [token.strip() for token in rows.columns[10]]
        vy_tokens = [token.strip() for token in rows.columns[11]]
        has_vx = np.array([token != "" for token in vx_tokens], dtype=bool)
        has_vy = np.array([token != "" for token in vy_tokens], dtype=bool)
        rows.check(has_vx != has_vy, lambda i: "vx and vy must both be present or both empty")
        velocities = np.stack([rows.floats(k, name, [token or "0" for token in tokens])
                               for k, name, tokens in ((10, "vx", vx_tokens),
                                                       (11, "vy", vy_tokens))], axis=1)
        scores = rows.floats(12, "score")
        rows.raise_first(frames, ids, row_rules(boxes, scores) if results
                         else row_rules(boxes, scores, velocities, has_vx), results)
        chunks.append((frames, ids, class_ids, scores, boxes, velocities, has_vx))
    return _concat(chunks)


def parse_3d_detections(text: str) -> DetectionFrames:
    """Read 3D detections (id column -1) as frames 1..n (the largest frame number)."""
    frames, _, class_ids, scores, boxes, velocities, has_velocity = _by_frame(
        *_3d_columns(text, results=False))
    return DetectionFrames(frames, _wrap_yaw(boxes), scores, class_ids, velocities, has_velocity)


def parse_3d_results(text: str) -> TrackOutput:
    """Read a 3D results file (ids >= 1) back into a TrackOutput."""
    frames, ids, class_ids, scores, boxes, _, _ = _by_frame(*_3d_columns(text, results=True))
    n_frames = int(frames[-1]) if len(frames) else 0
    return TrackOutput(frames, ids, class_ids, scores, boxes, Mode.BOX_3D, n_frames)


def _3d_text(frames: np.ndarray, track_ids: np.ndarray, class_ids: np.ndarray,
             scores: np.ndarray, boxes: np.ndarray, velocities: np.ndarray | None = None,
             has_velocity: np.ndarray | None = None) -> Iterator[str]:
    """3D lines of the rows, _WRITE_ROWS lines per string; vx/vy stay empty
    where a row has no velocity."""
    names = {class_id: _class_name(class_id) for class_id in np.unique(class_ids).tolist()}
    for start in range(0, len(frames), _WRITE_ROWS):
        part = slice(start, start + _WRITE_ROWS)
        if velocities is None:
            planar = [","] * len(frames[part])
        else:
            planar = [f"{vx!r},{vy!r}" if has else ","
                      for (vx, vy), has in zip(velocities[part].tolist(),
                                                has_velocity[part].tolist())]
        yield "".join(
            f"{frame},{track_id},{names[class_id]},{x!r},{y!r},{z!r},{theta!r},{l!r},"
            f"{w!r},{h!r},{planar},{score!r}\n"
            for frame, track_id, class_id, (x, y, z, theta, l, w, h), planar, score in zip(
                frames[part].tolist(), track_ids[part].tolist(), class_ids[part].tolist(),
                boxes[part].tolist(), planar, scores[part].tolist()))


def write_3d_results(output: TrackOutput, sink: IO[str]) -> None:
    """Write a 3D TrackOutput as 3D record lines, velocities empty."""
    if output.mode is not Mode.BOX_3D:
        raise ValueError("3D result format needs a 3D output")
    for text in _3d_text(output.frames, output.track_ids, output.class_ids, output.scores,
                         output.boxes):
        sink.write(text)


def write_detections(frames: Iterable[DetectionFrame], mode: Mode, sink: IO[str]) -> None:
    """Write a detection stream in the mode's format (id column -1); see check_mode."""
    for index, detections in enumerate(frames, start=1):
        check_mode(detections.boxes, mode)
        n = len(detections)
        numbers, ids = np.full(n, index), np.full(n, -1)
        if mode is Mode.BOX_2D:
            texts = _mot_text(numbers, ids, detections.scores, detections.boxes)
        else:
            texts = _3d_text(numbers, ids, detections.class_ids, detections.scores,
                             detections.boxes, detections.velocities, detections.has_velocity)
        for text in texts:
            sink.write(text)


# --- config files -----------------------------------------------------------------

# The type each scalar key is parsed as: a config field's default type (an
# enum's value is read as a string), and modality.
_SCALAR_KEYS = {field.name: str if isinstance(field.default, Enum) else type(field.default)
                for field in fields(TrackerConfig)} | {"modality": str}


def _parse_scalar(kind: type, token: str, line_no: int, name: str) -> object:
    """token read as kind, a type of _SCALAR_KEYS."""
    if kind is bool:
        if token.lower() in ("true", "1", "yes", "on"):
            return True
        if token.lower() in ("false", "0", "no", "off"):
            return False
        raise _fail(line_no, f"{name} must be a boolean, got {token!r}")
    try:
        return kind(token)
    except ValueError:
        article = "an integer" if kind is int else "a number"
        raise _fail(line_no, f"{name} is not {article}: {token!r}") from None


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
                class_id = DEFAULT_GATE_KEY
            elif label in CLASS_IDS:
                class_id = CLASS_IDS[label]
            else:
                raise _fail(line_no, f"unknown class label {label!r}")
            class_gates.setdefault(base, {})[class_id] = _parse_scalar(float, value, line_no, key)
            continue
        if key not in _SCALAR_KEYS:
            raise _fail(line_no, f"unknown config key {key!r}")
        options[key] = _parse_scalar(_SCALAR_KEYS[key], value, line_no, key)
    for base, table in class_gates.items():
        if base in options:
            raise ValueError(f"{base} given both as a scalar and a per-class table")
        options[base] = table
    return options


def load_config_file(path: str) -> dict[str, object]:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config_text(fh.read())
