"""Output checks computed apart from the program.

Every check reads the sequence and the exported files with its own parsers
and returns a list of problems; an empty list means the replay is correct.
Nothing here imports ``sgmap``.
"""

from __future__ import annotations

import json
import math
import re
from pathlib import Path

import numpy as np

PROB_TOLERANCE = 1e-9

_PGM_HEADER = re.compile(rb"P5\s+(\d+)\s+(\d+)\s+(\d+)\s")


def read_pgm(path: Path) -> np.ndarray:
    blob = path.read_bytes()
    match = _PGM_HEADER.match(blob)
    if match is None:
        raise ValueError(f"{path}: not a binary PGM file")
    width, height, _maxval = (int(g) for g in match.groups())
    return np.frombuffer(blob[match.end():], dtype=">u2").reshape(height, width)


def read_pose(path: Path) -> tuple[np.ndarray, np.ndarray]:
    mat = np.array([float(v) for v in path.read_text().split()]).reshape(4, 4)
    return mat[:3, :3], mat[:3, 3]


def read_ply(path: Path) -> tuple[list[str], list[list[str]]]:
    """Property names and the rows of an ASCII PLY file, as text cells."""
    lines = path.read_text().splitlines()
    end = lines.index("end_header")
    names = [line.split()[2] for line in lines[:end] if line.startswith("property ")]
    count = next(int(line.split()[2]) for line in lines[:end] if line.startswith("element "))
    rows = [line.split() for line in lines[end + 1 : end + 1 + count]]
    if len(rows) != count or any(len(row) != len(names) for row in rows):
        raise ValueError(f"{path}: body does not match its header")
    return names, rows


def label_box_sizes(mask: np.ndarray) -> list[tuple[int, int]]:
    """(width, height) of the pixel bounding box of every nonzero label."""
    sizes = []
    for label in np.unique(mask):
        if label == 0:
            continue
        hit = mask == label
        rows = np.flatnonzero(hit.any(axis=1))
        cols = np.flatnonzero(hit.any(axis=0))
        sizes.append((int(cols[-1] - cols[0] + 1), int(rows[-1] - rows[0] + 1)))
    return sizes


def expected_keyframes(seq: Path, config: dict) -> int:
    """The keyframe gate applied to the pose and label-mask files: a frame is
    a keyframe when some label box has its smaller side above
    ``min_box_px`` and no earlier keyframe is within both the rotation and
    the translation threshold (either one, for ``keyframe_combine = "or"``)."""
    rotations, translations = [], []
    for pose_path in sorted((seq / "frames").glob("*.pose")):
        sizes = label_box_sizes(read_pgm(pose_path.with_suffix(".labels.pgm")))
        if not any(min(w, h) > config["min_box_px"] for (w, h) in sizes):
            continue
        rotation, translation = read_pose(pose_path)
        if rotations:
            traces = np.einsum("kij,ij->k", np.array(rotations), rotation)
            cosines = np.clip(0.5 * (traces - 1.0), -1.0, 1.0)
            rot_close = np.degrees(np.arccos(cosines)) < config["rot_thresh_deg"]
            trans_close = (
                np.linalg.norm(np.array(translations) - translation, axis=1)
                < config["trans_thresh_m"]
            )
            if config["keyframe_combine"] == "and":
                similar = rot_close & trans_close
            else:
                similar = rot_close | trans_close
            if similar.any():
                continue
        rotations.append(rotation)
        translations.append(translation)
    return len(rotations)


def distinct_point_ids(seq: Path) -> int:
    ids = set()
    for path in (seq / "frames").glob("*.points"):
        ids.update(int(line.split(" ", 1)[0]) for line in path.read_text().splitlines())
    return len(ids)


def input_facts(seq: Path) -> dict:
    """What the replay of ``seq`` must report, computed from its files."""
    config = json.loads((seq / "config.json").read_text())
    return {
        "frames": len(list((seq / "frames").glob("*.pose"))),
        "keyframes": expected_keyframes(seq, config),
        "map_points": distinct_point_ids(seq),
        "omega_max": config["omega_max"],
    }


def _gt_instance_by_position(seq: Path) -> tuple[dict[tuple[str, str, str], int], set[int]]:
    names, rows = read_ply(seq / "gt_points.ply")
    col = names.index("instance")
    lookup = {(r[0], r[1], r[2]): int(r[col]) for r in rows}
    instances = {n["instance"] for n in json.loads((seq / "gt_graph.json").read_text())["nodes"]}
    return lookup, instances


def check_replay(out: Path, seq: Path, facts: dict) -> list[str]:
    """Checks of one replay's exports against the facts of its inputs."""
    problems = []
    summary = json.loads((out / "summary.json").read_text())
    for key in ("frames", "keyframes", "map_points"):
        if summary[key] != facts[key]:
            problems.append(f"summary {key} is {summary[key]}, inputs give {facts[key]}")

    # Map points carry their exact GT coordinates (both files print repr
    # floats), so a text join on x y z finds each point's instance.
    lookup, gt_instances = _gt_instance_by_position(seq)
    names, rows = read_ply(out / "map.ply")
    label_col = names.index("label")
    labels = [int(r[label_col]) for r in rows]
    instances = [lookup.get((r[0], r[1], r[2])) for r in rows]
    if None in instances:
        problems.append(f"{instances.count(None)} map points match no GT point")
        return problems
    votes: dict[int, dict[int, int]] = {}
    for inst, label in zip(instances, labels):
        per_label = votes.setdefault(inst, {})
        per_label[label] = per_label.get(label, 0) + 1
    dominant = sum(max(per_label.values()) for per_label in votes.values())
    own_aos = dominant / len(labels)
    reported = json.loads((out / "metrics.json").read_text())["aos"]
    if own_aos != reported:
        problems.append(f"aos is {reported!r}, exact position join gives {own_aos!r}")

    graph = json.loads((out / "scene_graph.json").read_text())
    node_labels = [n["label"] for n in graph["nodes"]]
    majority = {}
    for label in node_labels:
        members = [inst for inst, lbl in zip(instances, labels) if lbl == label]
        if not members:
            problems.append(f"node {label} has no points in map.ply")
            continue
        counts = {inst: members.count(inst) for inst in set(members)}
        majority[label] = min(counts, key=lambda inst: (-counts[inst], inst))
    if sorted(majority.values()) != sorted(gt_instances):
        problems.append(
            f"nodes map to GT instances {sorted(majority.values())}, expected each of "
            f"{sorted(gt_instances)} once"
        )

    cap = min(facts["omega_max"], facts["keyframes"])
    for node in graph["nodes"]:
        if abs(math.fsum(node["class_probs"]) - 1.0) > PROB_TOLERANCE:
            problems.append(f"node {node['label']} class_probs sum to {math.fsum(node['class_probs'])!r}")
        if node["weight"] > cap:
            problems.append(f"node {node['label']} weight {node['weight']} exceeds {cap}")
    keys = {(e["from"], e["to"]) for e in graph["edges"]}
    nodes = set(node_labels)
    for edge in graph["edges"]:
        key = (edge["from"], edge["to"])
        if abs(math.fsum(edge["pred_probs"]) - 1.0) > PROB_TOLERANCE:
            problems.append(f"edge {key} pred_probs sum to {math.fsum(edge['pred_probs'])!r}")
        if (key[1], key[0]) not in keys:
            problems.append(f"edge {key} has no reverse edge")
        if key[0] not in nodes or key[1] not in nodes:
            problems.append(f"edge {key} has an endpoint that is not an exported node")
    return problems


IDENTICAL_FILES = ("scene_graph.json", "map.ply")


def check_identical(first: Path, other: Path) -> list[str]:
    return [
        f"{other / name} differs from {first / name}"
        for name in IDENTICAL_FILES
        if (first / name).read_bytes() != (other / name).read_bytes()
    ]
