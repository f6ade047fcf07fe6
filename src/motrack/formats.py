"""Text formats: MOT-style 2D records, 3D records, and the key/value config file.

2D lines follow the MOTChallenge convention
``frame,id,x,y,w,h,score,-1,-1,-1`` with 1-based frames, top-left corner plus
width/height in pixels, and id -1 for raw detections. 3D lines are
``frame,id,class,x,y,z,theta,l,w,h,vx,vy,score`` in meters/radians with
per-frame velocities; vx/vy are left empty when the detector supplies none.
Floats are written with full round-trip precision so write-then-parse is
lossless.

Records are read as columns. numpy's C text reader (np.loadtxt) converts
each chunk of lines into typed fields in one call, and every row is validated
with array masks: the field checks, then association.row_rules. A chunk the
reader rejects, or that fails a check, is read again by _Rows, one Python
string per field. _Rows accepts what int() and float() accept of a stripped
field and the reader may not (a non-ASCII digit or space), and reports the
first bad row as ``line N: ...``, with the message of the first check it
fails in field order. parse_*_detections return DetectionFrames, per-frame
views over columns sorted by frame; parse_*_results return a TrackOutput. The
writers format from the same columns, and take the format from the rows:
write_detections writes MOT lines for 2D boxes and 3D lines for 3D ones.
"""

from __future__ import annotations

import warnings
from collections.abc import Sequence
from dataclasses import fields
from enum import Enum
from itertools import repeat
from typing import IO, Callable, Iterable, Iterator

import numpy as np

from .association import (DEFAULT_GATE_KEY, DetectionFrame, Mode, TrackerConfig, _box_type,
                          _mode_of, _wrap_yaw, row_rules)
from .tracker import CLASS_IDS, CLASS_NAMES, TrackOutput

_CHUNK_CHARS = 1 << 16  # text parsed per chunk, cut at a line break
_WRITE_ROWS = 1024  # lines formatted per write


def _fail(line_no: int, message: str) -> ValueError:
    return ValueError(f"line {line_no}: {message}")


# --- columnar parsing -------------------------------------------------------------


def _line_chunks(text: str) -> Iterator[tuple[int, str, list[str]]]:
    """(number of the first line, chunk, its lines) per chunk of about
    _CHUNK_CHARS characters, at least one. Chunks end after a newline, so
    their lines are those of text.splitlines()."""
    start, line_no = 0, 1
    while True:
        cut = text.find("\n", start + _CHUNK_CHARS)
        stop = len(text) if cut < 0 else cut + 1
        chunk = text[start:stop]
        lines = chunk.splitlines()
        yield line_no, chunk, lines
        if stop == len(text):
            return
        line_no += len(lines)
        start = stop


class _Rejected(Exception):
    """The C reader does not take a chunk as int() and float() would, or a
    row of it fails a check."""


class _Fields:
    """One chunk's field columns, and the checks on its rows: each is
    registered with check(bad, describe), bad marking the rows failing it
    (None: no row) and describe(i) giving row i's message."""

    def check(self, bad: np.ndarray | None, describe: Callable[[int], str]) -> None:
        raise NotImplementedError

    def raise_first(self, frames: np.ndarray, ids: np.ndarray, rules: list, results: bool) -> None:
        """Check frames >= 1, the row rules and result ids >= 1; raise the first error."""
        self.check(frames < 1, lambda i: f"frame must be >= 1, got {int(frames[i])}")
        for _, bad, describe in rules:
            self.check(bad, describe)
        if results:
            self.check(ids < 1, lambda i: f"result id must be >= 1, got {int(ids[i])}")


class _Table(_Fields):
    """A chunk converted by numpy's C reader in one call, with no Python
    string or float per field. A chunk the reader rejects, and a failing
    check, raise _Rejected.

    The reader gets only ASCII chunks holding no '_' or NUL. On those it
    accepts a subset of what int() and float() accept of a stripped field,
    with the same values. Elsewhere they differ: the reader takes some
    non-ASCII characters for digits, int() and float() take '_' for a digit
    separator (which the format rejects), and a NUL ends a string field. A
    warning is a rejection too: numpy 1.24-1.26 read '1.0' as an int64 with a
    DeprecationWarning.
    """

    def __init__(self, chunk: str, lines: list[str], dtype: np.dtype):
        if not chunk.isascii() or "_" in chunk or "\x00" in chunk:
            raise _Rejected
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                self.table = np.loadtxt(lines, dtype=dtype, delimiter=",", comments=None,
                                        ndmin=1)
        except Exception:  # whatever the reader fails on, _Rows reads and names
            raise _Rejected from None

    def check(self, bad: np.ndarray | None, describe: Callable[[int], str]) -> None:
        if bad is not None and bad.any():
            raise _Rejected

    def _field(self, k: int) -> np.ndarray:
        """Field k, a contiguous copy: the chunk's table is not kept."""
        return np.ascontiguousarray(self.table[self.table.dtype.names[k]])

    def floats(self, k: int, name: str) -> np.ndarray:
        return self._field(k)

    ints = floats

    def class_ids(self, k: int) -> np.ndarray:
        """Field k's class labels as ids, each distinct label looked up once."""
        labels, inverse = np.unique(self._field(k), return_inverse=True)
        _check_uncut(labels)
        try:
            class_ids = np.array([_class_id(label.strip()) for label in labels.tolist()],
                                 dtype=np.int64)
        except (ValueError, OverflowError):
            raise _Rejected from None
        return class_ids[inverse]

    def velocities(self, kx: int, ky: int) -> tuple[np.ndarray, np.ndarray]:
        """Fields kx, ky as (vx, vy) rows, 0 where both are empty, and the
        mask of the rows holding them."""
        vx, vy = self._field(kx), self._field(ky)
        if vx.dtype.kind == "f":  # read as numbers: every row holds a velocity
            return np.stack((vx, vy), axis=1), np.ones(len(vx), dtype=bool)
        has_velocity = vx != ""
        if (has_velocity != (vy != "")).any():
            raise _Rejected
        tokens = np.stack((vx[has_velocity], vy[has_velocity]), axis=1)
        _check_uncut(tokens)
        velocities = np.zeros((len(vx), 2))
        try:
            velocities[has_velocity] = tokens.astype(np.float64)  # as float() reads them
        except ValueError:
            raise _Rejected from None
        return velocities, has_velocity


def _check_uncut(strings: np.ndarray) -> None:
    """Raise _Rejected if a string fills its field: the reader may have cut it."""
    width = strings.dtype.itemsize // 4
    if strings.ravel().view(np.uint32)[width - 1::width].any():
        raise _Rejected


class _Rows(_Fields):
    """One chunk's non-blank lines as field columns of strings, and the first
    error among them: the conversion that names a chunk's first bad line.

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
        joined = ",".join(lines[:n])
        self.separated = "_" in joined  # see convert
        # Fields are stripped as str.strip does: int() and float() do not
        # strip '\x1f'.
        tokens = [token.strip() for token in joined.split(",")] if n else []
        self.columns = [tokens[k::n_fields] for k in range(n_fields)]
        self.line_nos = line_nos
        self.row, self.describe = n, None

    def check(self, bad: np.ndarray | None, describe: Callable[[int], str]) -> None:
        if bad is None:
            return
        hits = np.flatnonzero(bad[:self.row])
        if hits.size:
            self.row, self.describe = int(hits[0]), describe

    def raise_first(self, frames: np.ndarray, ids: np.ndarray, rules: list, results: bool) -> None:
        super().raise_first(frames, ids, rules, results)
        if self.describe is not None:
            raise _fail(self.line_nos[self.row], self.describe(self.row))
        if self.tail is not None:
            raise _fail(*self.tail)

    def convert(self, tokens: list[str], kind: Callable[[str], float],
                dtype) -> tuple[np.ndarray, np.ndarray | None]:
        """Tokens converted by kind (float, int, ...) in one pass, plus a mask
        of the tokens it rejects, dtype cannot hold or that hold a digit
        separator '_', which int and float accept (None if there are none; 0
        there). Only a chunk holding a '_' looks for one in each token."""
        if not self.separated:
            try:
                return np.fromiter(map(kind, tokens), dtype=dtype, count=len(tokens)), None
            except (ValueError, OverflowError):
                pass
        values = np.zeros(len(tokens), dtype=dtype)
        bad = np.zeros(len(tokens), dtype=bool)
        for i, token in enumerate(tokens):
            if "_" in token:
                bad[i] = True
                continue
            try:
                values[i] = kind(token)
            except (ValueError, OverflowError):
                bad[i] = True
        return values, bad

    def floats(self, k: int, name: str, tokens: list[str] | None = None) -> np.ndarray:
        """Field k (or the given tokens) as floats, with its number check."""
        tokens = self.columns[k] if tokens is None else tokens
        values, bad = self.convert(tokens, float, np.float64)
        self.check(bad, lambda i: f"{name} is not a number: {tokens[i]!r}")
        return values

    def ints(self, k: int, name: str) -> np.ndarray:
        """Field k as int64, with its integer check."""
        tokens = self.columns[k]
        values, bad = self.convert(tokens, int, np.int64)

        def describe(i: int) -> str:
            token = tokens[i]
            if "_" not in token:
                try:
                    int(token)
                    return f"{name} is out of range: {token!r}"
                except ValueError:
                    pass
            return f"{name} is not an integer: {token!r}"

        self.check(bad, describe)
        return values

    def class_ids(self, k: int) -> np.ndarray:
        """Field k's class labels as ids, with their check."""
        labels = self.columns[k]
        class_ids, bad = self.convert(labels, _class_id, np.int64)
        self.check(bad, lambda i: f"unknown class label {labels[i]!r}")
        return class_ids

    def velocities(self, kx: int, ky: int) -> tuple[np.ndarray, np.ndarray]:
        """Fields kx, ky as (vx, vy) rows, 0 where both are empty, and the
        mask of the rows holding them, with their checks."""
        vx_tokens, vy_tokens = self.columns[kx], self.columns[ky]
        has_vx = np.array([token != "" for token in vx_tokens], dtype=bool)
        has_vy = np.array([token != "" for token in vy_tokens], dtype=bool)
        self.check(has_vx != has_vy, lambda i: "vx and vy must both be present or both empty")
        velocities = np.stack([self.floats(k, name, [token or "0" for token in tokens])
                               for k, name, tokens in ((kx, "vx", vx_tokens),
                                                       (ky, "vy", vy_tokens))], axis=1)
        return velocities, has_vx


def _columns(convert: Callable[[_Fields, bool], tuple[np.ndarray, ...]], text: str,
             dtype_of: Callable[[str], np.dtype], results: bool) -> tuple[np.ndarray, ...]:
    """The columns convert(fields, results) gives each chunk, joined in file
    order. A chunk is read by the C reader (_Table) as the fields of
    dtype_of(chunk); one it rejects, or that fails a check, is read again by
    _Rows, which names the first bad line."""
    chunks = []
    for first_line_no, chunk, lines in _line_chunks(text):
        dtype = dtype_of(chunk)
        try:
            chunks.append(convert(_Table(chunk, lines, dtype), results))
        except _Rejected:
            chunks.append(convert(_Rows(first_line_no, lines, len(dtype)), results))
    return tuple(np.concatenate(parts) for parts in zip(*chunks))


def _by_frame(frames: np.ndarray, *columns: np.ndarray) -> tuple[np.ndarray, ...]:
    """Columns ordered by frame, keeping file order within a frame."""
    if np.all(frames[1:] >= frames[:-1]):
        return (frames, *columns)
    order = np.argsort(frames, kind="stable")
    return tuple(column[order] for column in (frames, *columns))


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
        return self._view(start, stop)

    def _view(self, start: int, stop: int) -> DetectionFrame:
        return DetectionFrame._of_checked(*(column[start:stop] for column in self._columns))

    def nonempty(self) -> Iterator[tuple[int, DetectionFrame]]:
        """(frame number, view) of each frame holding rows, in frame order:
        the frames a tracker must step, since skipping a frame number is
        stepping it empty (Tracker.step). Its cost follows the rows, not the
        largest frame number."""
        numbers, starts = np.unique(self._frames, return_index=True)
        stops = starts[1:].tolist() + [len(self._frames)]
        for number, start, stop in zip(numbers.tolist(), starts.tolist(), stops):
            yield number, self._view(start, stop)


# --- 2D MOT records --------------------------------------------------------------


_MOT_DTYPE = np.dtype([("frame", np.int64), ("id", np.int64)] + [
    (name, np.float64) for name in ("x", "y", "w", "h", "score", "u1", "u2", "u3")])


def _mot_chunk_dtype(chunk: str) -> np.dtype:
    return _MOT_DTYPE


def _mot_chunk(rows: _Fields, results: bool) -> tuple[np.ndarray, ...]:
    """(frames, ids, scores, boxes) of one chunk of MOT lines."""
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
    return frames, ids, scores, boxes


def parse_mot_detections(text: str) -> DetectionFrames:
    """Read raw detections as frames 1..n (the largest frame number)."""
    frames, _, scores, boxes = _by_frame(*_columns(_mot_chunk, text, _mot_chunk_dtype, False))
    n = len(frames)
    return DetectionFrames(frames, boxes, scores, np.zeros(n, dtype=np.int64),
                           np.zeros((n, 2)), np.zeros(n, dtype=bool))


def parse_mot_results(text: str) -> TrackOutput:
    """Read a tracked-results file (ids >= 1) back into a TrackOutput."""
    frames, ids, scores, boxes = _by_frame(*_columns(_mot_chunk, text, _mot_chunk_dtype, True))
    n_frames = int(frames[-1]) if len(frames) else 0
    return TrackOutput(frames, ids, np.zeros(len(ids), dtype=np.int64), scores, boxes, n_frames)


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


def _3d_dtype(velocity: str | type) -> np.dtype:
    """The C reader's 3D fields: the label as a string (a name or an integer),
    vx/vy as velocity (a string type where they may be empty)."""
    return np.dtype([("frame", np.int64), ("id", np.int64), ("class", "U32")] + [
        (name, np.float64) for name in ("x", "y", "z", "theta", "l", "w", "h")] + [
        ("vx", velocity), ("vy", velocity), ("score", np.float64)])


_3D_DTYPES = {False: _3d_dtype(np.float64), True: _3d_dtype("U32")}


def _3d_chunk_dtype(chunk: str) -> np.dtype:
    """vx/vy as strings if a field of the chunk is empty (',,'), else as floats."""
    return _3D_DTYPES[",," in chunk]


def _3d_chunk(rows: _Fields, results: bool) -> tuple[np.ndarray, ...]:
    """(frames, ids, class ids, scores, boxes, velocities, has_velocity) of
    one chunk of 3D lines."""
    frames, ids = rows.ints(0, "frame"), rows.ints(1, "id")
    class_ids = rows.class_ids(2)
    boxes = np.stack([rows.floats(k, name) for k, name in
                      enumerate(("x", "y", "z", "theta", "l", "w", "h"), start=3)], axis=1)
    velocities, has_velocity = rows.velocities(10, 11)
    scores = rows.floats(12, "score")
    rows.raise_first(frames, ids, row_rules(boxes, scores) if results
                     else row_rules(boxes, scores, velocities, has_velocity), results)
    return frames, ids, class_ids, scores, boxes, velocities, has_velocity


def parse_3d_detections(text: str) -> DetectionFrames:
    """Read 3D detections (id column -1) as frames 1..n (the largest frame number)."""
    frames, _, class_ids, scores, boxes, velocities, has_velocity = _by_frame(
        *_columns(_3d_chunk, text, _3d_chunk_dtype, False))
    return DetectionFrames(frames, _wrap_yaw(boxes), scores, class_ids, velocities, has_velocity)


def parse_3d_results(text: str) -> TrackOutput:
    """Read a 3D results file (ids >= 1) back into a TrackOutput."""
    frames, ids, class_ids, scores, boxes, _, _ = _by_frame(
        *_columns(_3d_chunk, text, _3d_chunk_dtype, True))
    n_frames = int(frames[-1]) if len(frames) else 0
    return TrackOutput(frames, ids, class_ids, scores, boxes, n_frames)


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


def write_detections(frames: Iterable[DetectionFrame], sink: IO[str]) -> None:
    """Write a detection stream (id column -1) in its rows' format: MOT lines
    for 2D boxes, 3D lines for 3D ones. A frame whose boxes are not as wide as
    the first frame's raises ValueError naming it; the frames before it are
    written."""
    mode = None
    for index, detections in enumerate(frames, start=1):
        if mode is None:
            mode = _mode_of(detections.boxes)
        elif _mode_of(detections.boxes) is not mode:
            raise ValueError(f"frame {index}: {_box_type(detections.boxes).__name__} detection "
                             f"in a {mode.value} stream")
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
# enum's value is read as a string), alpha's (None by default) float, and
# modality.
_SCALAR_KEYS = {field.name: str if isinstance(field.default, Enum) else type(field.default)
                for field in fields(TrackerConfig)} | {"alpha": float, "modality": str}
# The keys that may be written `none`: a stage switched off.
_NONE_KEYS = ("alpha", "gate_second")


def _parse_scalar(kind: type, token: str, line_no: int, name: str) -> object:
    """token read as kind, a type of _SCALAR_KEYS; a number holding a digit
    separator '_' (which int and float accept) is rejected."""
    if kind is str or "_" not in token:
        try:
            return kind(token)
        except ValueError:
            pass
    article = "an integer" if kind is int else "a number"
    raise _fail(line_no, f"{name} is not {article}: {token!r}")


def parse_config_text(text: str) -> dict[str, object]:
    """Parse ``key = value`` lines into a raw options mapping.

    Per-class gates use dotted keys, e.g. ``gate_first.car = -0.1`` or
    ``gate_first.default = -0.5``; ``alpha = none`` and ``gate_second = none``
    switch confidence scaling and the low-score pass off; '#' starts a
    comment. The result feeds validate_config, which applies per-mode defaults.
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
        off = key in _NONE_KEYS and value.lower() == "none"
        options[key] = None if off else _parse_scalar(_SCALAR_KEYS[key], value, line_no, key)
    for base, table in class_gates.items():
        if base in options:
            raise ValueError(f"{base} given both as a scalar and a per-class table")
        options[base] = table
    return options


def load_config_file(path: str) -> dict[str, object]:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config_text(fh.read())
