"""Keyframe selection, entity extraction from point-map snapshots, and the
neighbour graph over the extracted entities.

Extraction is meant to run on immutable snapshots taken between fusion
steps; everything here is a pure function of its inputs, except that
:func:`extract_entity` updates the neighbour cache it is given.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import geometry
from .entity_map import PointMap, UNLABELED
from .errors import DegenerateGeometry
from .geometry import (
    DEFAULT_GRAVITY,
    CameraIntrinsics,
    GravityConfig,
    NeighbourCache,
    Obb,
    RigidPose,
    fit_obb,
    obb_collide_matrix,
    outlier_mask,
)

DEFAULT_ROT_THRESH_DEG = 5.0
DEFAULT_TRANS_THRESH_M = 0.3
DEFAULT_MIN_BOX_PX = 200
DEFAULT_MIN_POINTS = 10
DEFAULT_NEIGHBOUR_MARGIN = 0.5


@dataclass(frozen=True)
class Keyframe:
    """An accepted frame: pose, intrinsics, and a stable id."""

    id: int
    pose: RigidPose
    intrinsics: CameraIntrinsics


@dataclass
class EntityNode:
    """One extracted entity: its map label, surviving points, and box."""

    label: int
    point_ids: np.ndarray
    positions: np.ndarray
    obb: Obb


def rotation_angle_deg(a: RigidPose, b: RigidPose) -> float:
    """Geodesic angle between two rotations, in degrees."""
    trace = float(np.trace(a.rotation.T @ b.rotation))
    cos_angle = min(1.0, max(-1.0, 0.5 * (trace - 1.0)))
    return math.degrees(math.acos(cos_angle))


def mask_boxes(mask: np.ndarray) -> dict[int, tuple[int, int]]:
    """Axis-aligned (width, height) of each nonzero label's pixel bbox."""
    boxes: dict[int, tuple[int, int]] = {}
    for lbl in np.unique(mask):
        if lbl == UNLABELED:
            continue
        rows, cols = np.nonzero(mask == lbl)
        boxes[int(lbl)] = (int(cols.max() - cols.min() + 1), int(rows.max() - rows.min() + 1))
    return boxes


def select_keyframe(
    candidate: RigidPose,
    existing: list[RigidPose],
    boxes: dict[int, tuple[int, int]] | list[tuple[int, int]],
    rot_thresh_deg: float = DEFAULT_ROT_THRESH_DEG,
    trans_thresh_m: float = DEFAULT_TRANS_THRESH_M,
    min_box_px: int = DEFAULT_MIN_BOX_PX,
    combine: str = "and",
) -> bool:
    """Accept a frame as keyframe.

    Requires (a) no existing keyframe closer than both thresholds
    (``combine="or"``: closer than either), and (b) at least one detected
    box whose smaller side exceeds ``min_box_px``.
    """
    if combine not in ("and", "or"):
        raise ValueError("combine must be 'and' or 'or'")
    sizes = boxes.values() if isinstance(boxes, dict) else boxes
    if not any(min(w, h) > min_box_px for (w, h) in sizes):
        return False
    for pose in existing:
        rot_close = rotation_angle_deg(candidate, pose) < rot_thresh_deg
        trans_close = (
            float(np.linalg.norm(candidate.translation - pose.translation))
            < trans_thresh_m
        )
        too_similar = (rot_close and trans_close) if combine == "and" else (
            rot_close or trans_close
        )
        if too_similar:
            return False
    return True


def extract_entity(
    snapshot: PointMap,
    label: int,
    min_points: int = DEFAULT_MIN_POINTS,
    mean_k: int = geometry.DEFAULT_MEAN_K,
    std_ratio: float = geometry.DEFAULT_STD_RATIO,
    gravity: GravityConfig = DEFAULT_GRAVITY,
    neighbours: NeighbourCache | None = None,
) -> EntityNode | None:
    """Extract one label's node, or ``None`` when it has too few points or
    its filtered points are too degenerate to box.

    ``neighbours`` carries the label's outlier-filter neighbour table from
    one call to the next, keyed by map row (see :func:`outlier_mask`).
    """
    rows = snapshot.label_rows(int(label))
    if len(rows) < min_points:
        return None
    positions = snapshot.positions[rows]
    keep = outlier_mask(
        positions, mean_k=mean_k, std_ratio=std_ratio, keys=rows, neighbours=neighbours
    )
    filtered = positions[keep]
    try:
        obb = fit_obb(filtered, gravity)
    except DegenerateGeometry:
        return None
    return EntityNode(
        label=int(label),
        point_ids=snapshot.ids[rows][keep].copy(),
        positions=filtered.copy(),
        obb=obb,
    )


def build_neighbour(
    nodes: list[EntityNode],
    margin: float = DEFAULT_NEIGHBOUR_MARGIN,
    gravity: GravityConfig = DEFAULT_GRAVITY,
) -> tuple[np.ndarray, np.ndarray]:
    """Directed edges ``(src, dst)`` between the nodes whose margin-inflated
    boxes collide, as index arrays into ``nodes``: both orientations of
    every colliding pair, sorted by ``(src, dst)``."""
    hit = obb_collide_matrix([node.obb for node in nodes], margin, gravity)
    np.fill_diagonal(hit, False)
    return np.nonzero(hit)
