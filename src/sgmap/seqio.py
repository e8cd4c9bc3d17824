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


def read_points(path) -> tuple[np.ndarray, np.ndarray]:
    """Point ids (int64, parsed as integers) and (N, 3) positions.

    Every non-blank line must hold exactly ``id x y z``, and no id may
    repeat.  The common case is parsed in one pass: each newline becomes a
    ``;`` token, so a file whose lines all have four fields has ``;`` at
    every fifth token and nowhere else (a stray ``;`` fails to parse as a
    number), and point i sits on line i + 1.  Anything else is read line by
    line, which raises with the offending line.
    """
    text = Path(path).read_text()
    tokens = text.replace("\n", " ; ").split()
    if tokens and tokens[-1] != ";":
        tokens.append(";")
    if len(tokens) % 5 == 0 and tokens[4::5].count(";") == len(tokens) // 5:
        try:
            ids = np.array(tokens[0::5], dtype=np.int64)
            positions = np.array([tokens[1::5], tokens[2::5], tokens[3::5]], dtype=np.float64)
        except (ValueError, OverflowError):
            pass  # fall through to the line-accurate path
        else:
            _reject_repeated_ids(path, ids)
            return ids, np.ascontiguousarray(positions.T)
    return _read_points_by_line(path, text)


def _read_points_by_line(path, text: str) -> tuple[np.ndarray, np.ndarray]:
    ids: list[np.int64] = []
    positions: list[list[float]] = []
    linenos: list[int] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        parts = line.split()
        if not parts:
            continue
        if len(parts) != 4:
            raise SequenceFormatError(
                f"{path}:{lineno}: expected 'id x y z', got {len(parts)} fields"
            )
        try:
            ids.append(np.int64(parts[0]))
            positions.append([float(v) for v in parts[1:]])
        except (ValueError, OverflowError) as exc:
            raise SequenceFormatError(f"{path}:{lineno}: {exc}") from exc
        linenos.append(lineno)
    ids_arr = np.array(ids, dtype=np.int64)
    _reject_repeated_ids(path, ids_arr, np.array(linenos, dtype=np.int64))
    return ids_arr, np.array(positions, dtype=np.float64).reshape(-1, 3)


def _reject_repeated_ids(path, ids: np.ndarray, linenos: np.ndarray | None = None) -> None:
    """Raise at the first line whose point id an earlier line already has;
    ``linenos`` defaults to point i on line i + 1."""
    ordered = np.sort(ids)
    if not np.any(ordered[1:] == ordered[:-1]):
        return
    if linenos is None:
        linenos = np.arange(1, len(ids) + 1)
    _, first_seen = np.unique(ids, return_index=True)
    repeat = np.setdiff1d(np.arange(len(ids)), first_seen)[0]
    earlier = int(np.argmax(ids == ids[repeat]))
    raise SequenceFormatError(
        f"{path}:{linenos[repeat]}: point id {ids[repeat]} repeats line {linenos[earlier]}"
    )


def write_features(path, table: dict[int, np.ndarray]) -> None:
    lines = [
        f"{int(lbl)} " + " ".join(_fmt(v) for v in vec)
        for lbl, vec in sorted(table.items())
    ]
    Path(path).write_text("\n".join(lines) + ("\n" if lines else ""))


def read_features(path) -> dict[int, np.ndarray]:
    out: dict[int, np.ndarray] = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            parts = line.split()
            try:
                out[int(parts[0])] = np.array([float(v) for v in parts[1:]])
            except ValueError as exc:
                raise SequenceFormatError(f"{path}:{lineno}: {exc}") from exc
    return out


# -- PLY ------------------------------------------------------------------


def write_labeled_ply(
    path, positions: np.ndarray, columns: dict[str, np.ndarray]
) -> None:
    """ASCII PLY with x/y/z plus extra integer or float columns."""
    positions = np.asarray(positions, dtype=np.float64).reshape(-1, 3)
    n = len(positions)
    props = ["property double x", "property double y", "property double z"]
    for name, values in columns.items():
        kind = "int" if np.issubdtype(np.asarray(values).dtype, np.integer) else "double"
        props.append(f"property {kind} {name}")
    header = "\n".join(
        [
            "ply",
            "format ascii 1.0",
            f"element vertex {n}",
            *props,
            "end_header",
        ]
    )
    rows = []
    col_arrays = [(np.asarray(v), np.issubdtype(np.asarray(v).dtype, np.integer)) for v in columns.values()]
    for i in range(n):
        cells = [_fmt(positions[i, 0]), _fmt(positions[i, 1]), _fmt(positions[i, 2])]
        for values, is_int in col_arrays:
            cells.append(str(int(values[i])) if is_int else _fmt(values[i]))
        rows.append(" ".join(cells))
    Path(path).write_text(header + "\n" + "\n".join(rows) + ("\n" if rows else "\n"))


def read_labeled_ply(path) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    lines = Path(path).read_text().splitlines()
    if not lines or lines[0] != "ply":
        raise SequenceFormatError(f"{path}:1: not an ASCII PLY file")
    names: list[tuple[str, str]] = []
    count = 0
    body_start = 0
    for idx, line in enumerate(lines[1:], start=1):
        parts = line.split()
        if parts[0] == "element":
            count = int(parts[2])
        elif parts[0] == "property":
            names.append((parts[2], parts[1]))
        elif parts[0] == "end_header":
            body_start = idx + 1
            break
    body = lines[body_start : body_start + count]
    if len(body) != count:
        raise SequenceFormatError(
            f"{path}: header promises {count} vertices, found {len(body)}"
        )
    values = np.array([[float(v) for v in line.split()] for line in body]).reshape(
        count, len(names)
    )
    positions = values[:, :3]
    columns: dict[str, np.ndarray] = {}
    for col, (name, kind) in enumerate(names[3:], start=3):
        data = values[:, col]
        columns[name] = data.astype(np.int64) if kind == "int" else data
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


_DOT_NODE = re.compile(r'^\s*n(\d+) \[label="([^"]*)"\];$')
_DOT_EDGE = re.compile(r'^\s*n(\d+) -> n(\d+) \[label="([^"]*)"\];$')


def read_dot(path) -> tuple[list[tuple[int, str]], list[tuple[int, int, str]]]:
    """Parse graphs written by :func:`write_dot`."""
    nodes: list[tuple[int, str]] = []
    edges: list[tuple[int, int, str]] = []
    lines = Path(path).read_text().splitlines()
    if not lines or lines[0] != "digraph scene {" or lines[-1] != "}":
        raise SequenceFormatError(f"{path}: not a scene DOT file")
    for lineno, line in enumerate(lines[1:-1], start=2):
        edge = _DOT_EDGE.match(line)
        if edge:
            edges.append((int(edge.group(1)), int(edge.group(2)), edge.group(3)))
            continue
        node = _DOT_NODE.match(line)
        if node:
            nodes.append((int(node.group(1)), node.group(2)))
            continue
        raise SequenceFormatError(f"{path}:{lineno}: unrecognized line")
    return nodes, edges


# -- sequence directories --------------------------------------------------


@dataclass
class SequenceFrame:
    """Lazy handle to one frame's files."""

    index: int
    pose_path: Path
    points_path: Path
    labels_path: Path
    conf_path: Path
    feat_path: Path | None = None

    def pose(self) -> RigidPose:
        return read_pose(self.pose_path)

    def points(self) -> tuple[np.ndarray, np.ndarray]:
        return read_points(self.points_path)

    def labels(self) -> np.ndarray:
        return read_pgm16(self.labels_path)

    def confidence(self) -> np.ndarray:
        return pgm_to_confidence(read_pgm16(self.conf_path))

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
    try:
        doc = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise SequenceFormatError(f"{path}:{exc.lineno}: {exc.msg}") from exc
    instance_classes = {int(n["instance"]): int(n["class_id"]) for n in doc["nodes"]}
    triplets = [
        (int(e["subject"]), int(e["predicate"]), int(e["object"])) for e in doc["edges"]
    ]
    return instance_classes, triplets, doc.get("classes", []), doc.get("predicates", [])
