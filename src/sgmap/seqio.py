"""Readers and writers for the on-disk sequence format and exports.

Sequence directory layout::

    intrinsics.txt            fx fy cx cy width height (ASCII, one line)
    frames/NNNNNN.pose        4x4 row-major world-from-camera, ASCII
    frames/NNNNNN.points      lines: point_id x y z
    frames/NNNNNN.labels.pgm  16-bit PGM of entity label ids
    frames/NNNNNN.conf.pgm    16-bit PGM; value / 65535 = confidence
    frames/NNNNNN.feat        optional: entity_label then D scalars per line

All writers format floats with repr-exact ASCII so identical inputs
produce byte-identical files.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from itertools import repeat
from pathlib import Path

import numpy as np

from .geometry import CameraIntrinsics, RigidPose

PGM_MAXVAL = 65535


class SequenceFormatError(Exception):
    """Raised with file (and line, where known) context on malformed input."""


def _fmt(x: float) -> str:
    return repr(float(x))


# -- PGM ----------------------------------------------------------------


def write_pgm16(path, raster: np.ndarray) -> None:
    raster = np.asarray(raster)
    if raster.ndim != 2:
        raise ValueError("PGM raster must be 2-D")
    if raster.min() < 0 or raster.max() > PGM_MAXVAL:
        raise ValueError("PGM values must fit 16 bits")
    data = raster.astype(">u2")
    header = f"P5\n{raster.shape[1]} {raster.shape[0]}\n{PGM_MAXVAL}\n"
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        fh.write(data.tobytes())


def read_pgm16(path) -> np.ndarray:
    with open(path, "rb") as fh:
        blob = fh.read()
    match = re.match(rb"P5\s+(\d+)\s+(\d+)\s+(\d+)\s", blob)
    if not match:
        raise SequenceFormatError(f"{path}: not a binary PGM file")
    width, height, maxval = (int(g) for g in match.groups())
    if maxval != PGM_MAXVAL:
        raise SequenceFormatError(f"{path}: expected 16-bit PGM, maxval={maxval}")
    payload = blob[match.end() :]
    expected = width * height * 2
    if len(payload) != expected:
        raise SequenceFormatError(
            f"{path}: payload is {len(payload)} bytes, expected {expected}"
        )
    return np.frombuffer(payload, dtype=">u2").reshape(height, width).astype(np.int64)


def confidence_to_pgm(conf: np.ndarray) -> np.ndarray:
    return np.round(np.clip(conf, 0.0, 1.0) * PGM_MAXVAL).astype(np.int64)


def pgm_to_confidence(raster: np.ndarray) -> np.ndarray:
    return raster.astype(np.float64) / PGM_MAXVAL


# -- plain-text pieces ---------------------------------------------------


def write_intrinsics(path, intrinsics: CameraIntrinsics) -> None:
    line = " ".join(
        [
            _fmt(intrinsics.fx),
            _fmt(intrinsics.fy),
            _fmt(intrinsics.cx),
            _fmt(intrinsics.cy),
            str(intrinsics.width),
            str(intrinsics.height),
        ]
    )
    Path(path).write_text(line + "\n")


def read_intrinsics(path) -> CameraIntrinsics:
    text = Path(path).read_text().split()
    if len(text) != 6:
        raise SequenceFormatError(f"{path}:1: expected 6 fields, got {len(text)}")
    try:
        fx, fy, cx, cy = (float(v) for v in text[:4])
        width, height = int(text[4]), int(text[5])
    except ValueError as exc:
        raise SequenceFormatError(f"{path}:1: {exc}") from exc
    return CameraIntrinsics(fx=fx, fy=fy, cx=cx, cy=cy, width=width, height=height)


def write_pose(path, pose: RigidPose) -> None:
    mat = np.eye(4)
    mat[:3, :3] = pose.rotation
    mat[:3, 3] = pose.translation
    lines = [" ".join(_fmt(v) for v in row) for row in mat]
    Path(path).write_text("\n".join(lines) + "\n")


def read_pose(path) -> RigidPose:
    values = Path(path).read_text().split()
    if len(values) != 16:
        raise SequenceFormatError(f"{path}: expected 16 numbers, got {len(values)}")
    try:
        mat = np.array([float(v) for v in values]).reshape(4, 4)
    except ValueError as exc:
        raise SequenceFormatError(f"{path}: {exc}") from exc
    try:
        return RigidPose(rotation=mat[:3, :3], translation=mat[:3, 3])
    except ValueError as exc:
        raise SequenceFormatError(f"{path}: {exc}") from exc


def write_points(path, ids: np.ndarray, positions: np.ndarray) -> None:
    lines = [
        f"{int(pid)} {_fmt(p[0])} {_fmt(p[1])} {_fmt(p[2])}"
        for pid, p in zip(ids, positions)
    ]
    Path(path).write_text("\n".join(lines) + ("\n" if lines else ""))


POINT_RECORD = np.dtype([("id", np.int64), ("p", np.float64, 3)])


class PointsMemory:
    """The last ``.points`` file read through it: each non-blank line mapped
    to its row, and that file's ids and positions (private copies)."""

    def __init__(self):
        self.rows: dict[str, int] = {}
        self.ids = np.empty(0, dtype=np.int64)
        self.positions = np.empty((0, 3))


def read_points(path, previous: PointsMemory | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Point ids (int64, parsed as integers) and (N, 3) positions.

    Every non-blank line must hold exactly ``id x y z`` with finite
    coordinates, and no id may repeat.

    With ``previous``, only the lines that the file last read through it
    did not hold are parsed; the others take that file's values, as the
    same text parses to the same values.  ``previous`` then holds this file.
    """
    lines = Path(path).read_text().split("\n")
    kept = list(filter(str.strip, lines))
    memory = PointsMemory() if previous is None else previous
    # each line's row in the remembered file, -1 for a new line
    if memory.rows:
        found = np.fromiter(map(memory.rows.get, kept, repeat(-1)), np.int64, len(kept))
    else:
        found = np.full(len(kept), -1)
    new = np.flatnonzero(found < 0)
    if len(new) == len(kept):
        ids, positions = _parse_points(path, lines)
    else:
        # a new line's -1 gathers a placeholder that its parse replaces
        ids, positions = memory.ids[found], memory.positions[found]
        if len(new):
            try:
                rows = np.loadtxt(
                    [kept[i] for i in new], dtype=POINT_RECORD, comments=None, ndmin=1
                )
            except ValueError:
                # Every bad line is new: parsing the whole file names the
                # first one exactly as a read without memory does.
                ids, positions = _parse_points(path, lines)
            else:
                ids[new], positions[new] = rows["id"], rows["p"]
    _reject_bad_points(path, ids, positions, lines)
    if previous is not None:
        previous.rows = {}  # free the old map before the new one is built
        previous.rows = dict(zip(kept, range(len(kept))))
        previous.ids, previous.positions = ids.copy(), positions.copy()
    return ids, positions


def _parse_points(path, lines: list[str]) -> tuple[np.ndarray, np.ndarray]:
    rows = _read_table(path, lines, POINT_RECORD, "id x y z")
    return np.ascontiguousarray(rows["id"]), np.ascontiguousarray(rows["p"])


def _read_table(
    path, lines: list[str], dtype: np.dtype, layout: str, first_line: int = 1
) -> np.ndarray:
    """The non-blank ``lines`` of ``path`` as records of ``dtype``, one per
    line, whitespace-separated; ``lines[0]`` is line ``first_line`` of the
    file.  ``#`` is data, not a comment.

    A line that does not parse is found by parsing one line at a time, and
    raises naming ``path:line`` and the expected ``layout``.
    """
    if not any(map(str.strip, lines)):
        return np.empty(0, dtype=dtype)
    try:
        return np.loadtxt(lines, dtype=dtype, comments=None, ndmin=1)
    except ValueError as exc:
        failure = exc
    for lineno, line in enumerate(lines, start=first_line):
        if line.strip():
            try:
                np.loadtxt([line], dtype=dtype, comments=None)
            except ValueError:
                raise SequenceFormatError(
                    f"{path}:{lineno}: expected '{layout}', got {line.strip()!r}"
                ) from None
    raise SequenceFormatError(f"{path}: {failure}") from failure


def _reject_bad_points(path, ids: np.ndarray, positions: np.ndarray, lines: list[str]) -> None:
    """Raise at the first line with a non-finite coordinate, then at the
    first line whose point id an earlier line already has.  Point i sits on
    the i-th non-blank line of ``lines``."""
    finite = np.isfinite(positions).all(axis=1)
    if not finite.all():
        bad = int(np.argmin(finite))
        raise SequenceFormatError(
            f"{path}:{_line_of(lines, bad)}: point {ids[bad]} has a non-finite coordinate"
        )
    ordered = np.sort(ids)
    if not np.any(ordered[1:] == ordered[:-1]):
        return
    _, first_seen = np.unique(ids, return_index=True)
    repeat = np.setdiff1d(np.arange(len(ids)), first_seen)[0]
    earlier = int(np.argmax(ids == ids[repeat]))
    raise SequenceFormatError(
        f"{path}:{_line_of(lines, repeat)}: point id {ids[repeat]} "
        f"repeats line {_line_of(lines, earlier)}"
    )


def _line_of(lines: list[str], row: int) -> int:
    """The 1-based line number of record ``row`` of :func:`_read_table`."""
    return [i for i, line in enumerate(lines, start=1) if line.strip()][row]


def read_features(path) -> dict[int, np.ndarray]:
    """Per-label feature vectors: every non-blank line holds an integer
    label and as many values as the first line has."""
    lines = Path(path).read_text().split("\n")
    first = next(filter(str.strip, lines), "")
    dim = max(len(first.split()) - 1, 0)
    record = np.dtype([("label", np.int64), ("v", np.float64, dim)])
    rows = _read_table(path, lines, record, f"label and {dim} values")
    return {int(lbl): vec.copy() for lbl, vec in zip(rows["label"], rows["v"])}


# -- PLY ------------------------------------------------------------------


def write_labeled_ply(
    path, positions: np.ndarray, columns: dict[str, np.ndarray]
) -> None:
    """ASCII PLY with x/y/z plus extra integer or float columns."""
    positions = np.asarray(positions, dtype=np.float64).reshape(-1, 3)
    props = ["property double x", "property double y", "property double z"]
    cells = [map(repr, positions[:, axis].tolist()) for axis in range(3)]
    for name, column in columns.items():
        column = np.asarray(column)
        if np.issubdtype(column.dtype, np.integer):
            props.append(f"property int {name}")
            cells.append(map(str, column.tolist()))
        else:
            props.append(f"property double {name}")
            cells.append(map(repr, column.astype(np.float64).tolist()))
    header = "\n".join(
        [
            "ply",
            "format ascii 1.0",
            f"element vertex {len(positions)}",
            *props,
            "end_header",
        ]
    )
    rows = [" ".join(row) for row in zip(*cells, strict=True)]
    Path(path).write_text(header + "\n" + "\n".join(rows) + "\n")


def read_labeled_ply(path) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """Positions (the first three properties) and the other columns of an
    ASCII PLY; ``int`` properties are read as int64, the rest as float64."""
    lines = Path(path).read_text().split("\n")
    if lines[0] != "ply":
        raise SequenceFormatError(f"{path}:1: not an ASCII PLY file")
    names: list[tuple[str, str]] = []
    count = 0
    for idx, line in enumerate(lines[1:], start=1):
        parts = line.split() or [""]
        if parts[0] == "element":
            if len(parts) < 3 or not parts[2].isdigit():
                raise SequenceFormatError(
                    f"{path}:{idx + 1}: expected 'element NAME COUNT', got {line.strip()!r}"
                )
            count = int(parts[2])
        elif parts[0] == "property":
            if len(parts) < 3:
                raise SequenceFormatError(
                    f"{path}:{idx + 1}: expected 'property TYPE NAME', got {line.strip()!r}"
                )
            names.append((parts[2], parts[1]))
        elif parts[0] == "end_header":
            body_start = idx + 1
            break
    else:
        raise SequenceFormatError(f"{path}: no end_header line")
    record = np.dtype(
        [(name, np.int64 if kind == "int" else np.float64) for name, kind in names]
    )
    rows = _read_table(
        path,
        lines[body_start : body_start + count],
        record,
        " ".join(name for name, _ in names),
        first_line=body_start + 1,
    )
    if len(rows) != count:
        raise SequenceFormatError(
            f"{path}: header promises {count} vertices, found {len(rows)}"
        )
    positions = np.stack([rows[name] for name, _ in names[:3]], axis=1)
    columns = {name: rows[name].copy() for name, _ in names[3:]}
    return positions, columns


# -- DOT ------------------------------------------------------------------


def write_dot(
    path,
    nodes: list[tuple[int, str]],
    edges: list[tuple[int, int, str]],
) -> None:
    """Deterministic DOT export of the labeled scene graph."""
    lines = ["digraph scene {"]
    for label, text in sorted(nodes):
        lines.append(f'  n{label} [label="{text}"];')
    for src, dst, text in sorted(edges):
        lines.append(f'  n{src} -> n{dst} [label="{text}"];')
    lines.append("}")
    Path(path).write_text("\n".join(lines) + "\n")


# -- sequence directories --------------------------------------------------


@dataclass
class SequenceFrame:
    """Lazy handle to one frame's files.

    A label or confidence raster whose shape differs from ``shape``
    (height, width), the intrinsics' image size, is rejected as it is read.
    """

    index: int
    pose_path: Path
    points_path: Path
    labels_path: Path
    conf_path: Path
    shape: tuple[int, int]
    feat_path: Path | None = None

    def pose(self) -> RigidPose:
        return read_pose(self.pose_path)

    def points(self) -> tuple[np.ndarray, np.ndarray]:
        return read_points(self.points_path)

    def labels(self) -> np.ndarray:
        return self._raster(self.labels_path)

    def confidence(self) -> np.ndarray:
        return pgm_to_confidence(self._raster(self.conf_path))

    def _raster(self, path: Path) -> np.ndarray:
        raster = read_pgm16(path)
        if raster.shape != self.shape:
            (height, width), (want_h, want_w) = raster.shape, self.shape
            raise SequenceFormatError(
                f"{path}: raster is {width}x{height}, the intrinsics give {want_w}x{want_h}"
            )
        return raster

    def features(self) -> dict[int, np.ndarray] | None:
        if self.feat_path is None:
            return None
        return read_features(self.feat_path)


@dataclass
class Sequence:
    """A parsed sequence directory."""

    root: Path
    intrinsics: CameraIntrinsics
    frames: list[SequenceFrame] = field(default_factory=list)

    @property
    def gt_graph_path(self) -> Path:
        return self.root / "gt_graph.json"

    @property
    def gt_points_path(self) -> Path:
        return self.root / "gt_points.ply"

    def has_ground_truth(self) -> bool:
        return self.gt_graph_path.exists() and self.gt_points_path.exists()


def frame_stem(index: int) -> str:
    return f"{index:06d}"


def read_sequence(root) -> Sequence:
    root = Path(root)
    intrinsics_path = root / "intrinsics.txt"
    if not intrinsics_path.exists():
        raise SequenceFormatError(f"{intrinsics_path}: missing intrinsics file")
    intrinsics = read_intrinsics(intrinsics_path)
    frames_dir = root / "frames"
    if not frames_dir.is_dir():
        raise SequenceFormatError(f"{frames_dir}: missing frames directory")
    seq = Sequence(root=root, intrinsics=intrinsics)
    for pose_path in sorted(frames_dir.glob("*.pose")):
        stem = pose_path.stem
        try:
            index = int(stem)
        except ValueError:
            raise SequenceFormatError(f"{pose_path}: frame stem must be numeric")
        frame = SequenceFrame(
            index=index,
            pose_path=pose_path,
            points_path=frames_dir / f"{stem}.points",
            labels_path=frames_dir / f"{stem}.labels.pgm",
            conf_path=frames_dir / f"{stem}.conf.pgm",
            shape=(intrinsics.height, intrinsics.width),
        )
        for required in (frame.points_path, frame.labels_path, frame.conf_path):
            if not required.exists():
                raise SequenceFormatError(f"{required}: missing frame file")
        feat_path = frames_dir / f"{stem}.feat"
        if feat_path.exists():
            frame.feat_path = feat_path
        seq.frames.append(frame)
    if not seq.frames:
        raise SequenceFormatError(f"{frames_dir}: sequence has no frames")
    return seq


# -- ground truth ----------------------------------------------------------


def write_gt_graph(
    path,
    instance_classes: dict[int, int],
    triplets: list[tuple[int, int, int]],
    node_class_names: list[str],
    predicate_names: list[str],
) -> None:
    doc = {
        "classes": node_class_names,
        "predicates": predicate_names,
        "nodes": [
            {"instance": int(inst), "class_id": int(cls)}
            for inst, cls in sorted(instance_classes.items())
        ],
        "edges": [
            {"subject": int(s), "predicate": int(p), "object": int(o)}
            for s, p, o in sorted(triplets)
        ],
    }
    Path(path).write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


def read_gt_graph(path) -> tuple[dict[int, int], list[tuple[int, int, int]], list[str], list[str]]:
    doc = _read_json(path)
    nodes = _records(path, doc, "nodes", dict.fromkeys(("instance", "class_id"), _INT))
    triplets = _records(path, doc, "edges", dict.fromkeys(("subject", "predicate", "object"), _INT))
    instance_classes = dict(nodes)
    return instance_classes, triplets, doc.get("classes", []), doc.get("predicates", [])


def read_scene_graph(path) -> dict:
    """A ``scene_graph.json`` as ``sgmap run`` writes it; every node needs an
    integer ``label`` and a ``class_probs`` list of numbers, every edge
    integer ``from`` and ``to`` and a ``pred_probs`` list of numbers."""
    doc = _read_json(path)
    _records(path, doc, "nodes", {"label": _INT, "class_probs": _NUMBERS})
    _records(path, doc, "edges", {"from": _INT, "to": _INT, "pred_probs": _NUMBERS})
    return doc


def _read_json(path):
    try:
        return json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise SequenceFormatError(f"{path}:{exc.lineno}: {exc.msg}") from exc


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_numbers(value) -> bool:
    return isinstance(value, list) and all(isinstance(v, float) or _is_int(v) for v in value)


# (test, the kind it checks) of a record field.
_INT = (_is_int, "integer")
_NUMBERS = (_is_numbers, "list of numbers")


def _records(path, doc, key: str, fields: dict) -> list[tuple]:
    """``doc[key]`` as one tuple of ``fields`` per list entry, each field's
    value passing its test."""
    entries = doc.get(key) if isinstance(doc, dict) else None
    if not isinstance(entries, list):
        raise SequenceFormatError(f"{path}: expected a list under {key!r}")
    out = []
    for i, entry in enumerate(entries):
        values = [entry.get(name) if isinstance(entry, dict) else None for name in fields]
        if not all(test(v) for v, (test, _) in zip(values, fields.values())):
            wanted = ", ".join(f"{name} ({kind})" for name, (_, kind) in fields.items())
            raise SequenceFormatError(f"{path}: {key}[{i}] needs {wanted}, got {entry!r}")
        out.append(tuple(values))
    return out
