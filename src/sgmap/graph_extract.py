"""Keyframe selection, entity extraction from point-map snapshots, and the
neighbour graph over the extracted entities.

Extraction is meant to run on immutable snapshots taken between fusion
steps; everything here is a pure function of its inputs, except that
:func:`extract_entity` updates the neighbour cache it is given.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import geometry
from .entity_map import PointMap, UNLABELED
from .errors import DegenerateGeometry
from .geometry import (
    DEFAULT_GRAVITY,
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


@dataclass
class EntityNode:
    """One extracted entity: its map label, surviving points, and box."""

    label: int
    positions: np.ndarray
    obb: Obb


def rotation_angle_deg(a: np.ndarray, b: np.ndarray) -> float:
    """Geodesic angle between two rotation matrices, in degrees."""
    trace = float(np.trace(a.T @ b))
    cos_angle = min(1.0, max(-1.0, 0.5 * (trace - 1.0)))
    return math.degrees(math.acos(cos_angle))


class LabelBox(NamedTuple):
    """One label's pixel bbox: half-open rows [r0, r1) and columns
    [c0, c1)."""

    r0: int
    r1: int
    c0: int
    c1: int

    @property
    def roi(self) -> tuple[int, int, int, int]:
        return (self.r0, self.r1, self.c0, self.c1)


def mask_boxes(mask: np.ndarray) -> dict[int, LabelBox]:
    """The label table of a mask: each nonzero label's box, in ascending
    label order, from one pass over the pixels.

    The pass splits every row into runs of one label.  A row (column) hit
    table, one row per label present, marks the rows (first and last
    columns) of the label's runs, and its first and last hits bound the
    box.  Tables grow with the labels present, not with their ids.
    """
    if mask.size == 0:
        return {}
    h, w = mask.shape
    flat = mask.reshape(-1)
    change = np.ones(flat.size, dtype=bool)
    np.not_equal(flat[1:], flat[:-1], out=change[1:])
    change[::w] = True
    starts = np.flatnonzero(change)
    ends = np.append(starts[1:], flat.size)
    values = flat[starts]
    keep = values != UNLABELED
    starts, ends, values = starts[keep], ends[keep], values[keep]
    labels, which = np.unique(values, return_inverse=True)
    rows = starts // w
    row_hit = np.zeros((len(labels), h), dtype=bool)
    row_hit[which, rows] = True
    col_hit = np.zeros((len(labels), w), dtype=bool)
    col_hit[which, starts - rows * w] = True
    col_hit[which, ends - 1 - rows * w] = True
    r0 = row_hit.argmax(axis=1)
    r1 = h - row_hit[:, ::-1].argmax(axis=1)
    c0 = col_hit.argmax(axis=1)
    c1 = w - col_hit[:, ::-1].argmax(axis=1)
    return {
        int(lbl): LabelBox(int(a), int(b), int(c), int(d))
        for lbl, a, b, c, d in zip(labels, r0, r1, c0, c1)
    }


# The vectorised pose screen keeps every stored pose that the scalar rule
# could call close; rounding moves its cosines and distances by ~1e-15
# (rotations are orthonormal to 1e-6, so their entries are near 1).
_SCREEN_SLACK = 1e-9


def pose_is_novel(
    candidate: RigidPose,
    rotations: np.ndarray,
    translations: np.ndarray,
    rot_thresh_deg: float = DEFAULT_ROT_THRESH_DEG,
    trans_thresh_m: float = DEFAULT_TRANS_THRESH_M,
    combine: str = "and",
) -> bool:
    """True when no stored pose, given as (K, 3, 3) ``rotations`` and (K, 3)
    ``translations``, is closer than both thresholds (``combine="or"``:
    closer than either).

    One vectorised pass screens the stored poses with a small margin
    toward "close"; the scalar rule (:func:`rotation_angle_deg` and the
    translation norm) decides on the few that survive, so the verdict is
    the scalar rule's, at the thresholds too.
    """
    if combine not in ("and", "or"):
        raise ValueError("combine must be 'and' or 'or'")
    cosines = 0.5 * (np.einsum("ij,kij->k", candidate.rotation, rotations) - 1.0)
    cos_thresh = math.cos(math.radians(min(abs(rot_thresh_deg), 180.0)))
    rot_near = cosines >= cos_thresh - _SCREEN_SLACK
    offsets = candidate.translation - translations
    distances = np.sqrt(np.einsum("ki,ki->k", offsets, offsets))
    trans_near = distances < trans_thresh_m + _SCREEN_SLACK * (1.0 + abs(trans_thresh_m))
    near = (rot_near & trans_near) if combine == "and" else (rot_near | trans_near)
    for k in np.flatnonzero(near):
        rot_close = rotation_angle_deg(candidate.rotation, rotations[k]) < rot_thresh_deg
        trans_close = float(np.linalg.norm(offsets[k])) < trans_thresh_m
        if (rot_close and trans_close) if combine == "and" else (rot_close or trans_close):
            return False
    return True


REJECT_POSE = "pose"
REJECT_NO_BOX = "no_box"


def select_keyframe(
    candidate: RigidPose,
    rotations: np.ndarray,
    translations: np.ndarray,
    mask: np.ndarray,
    rot_thresh_deg: float = DEFAULT_ROT_THRESH_DEG,
    trans_thresh_m: float = DEFAULT_TRANS_THRESH_M,
    min_box_px: int = DEFAULT_MIN_BOX_PX,
    combine: str = "and",
) -> tuple[str | None, dict[int, LabelBox] | None]:
    """The keyframe gate: ``(reason, table)``.

    A frame is a keyframe when (a) its pose is novel against the stored
    keyframe poses (:func:`pose_is_novel`) and (b) some label box of
    ``mask`` has its smaller side above ``min_box_px``.  The pose test runs
    first; only a frame that passes it pays for the mask pass.  ``reason``
    is None for a keyframe, else :data:`REJECT_POSE` or
    :data:`REJECT_NO_BOX`; ``table`` is the mask's label table
    (:func:`mask_boxes`), None when the pose test turned the frame away.
    """
    if not pose_is_novel(
        candidate, rotations, translations, rot_thresh_deg, trans_thresh_m, combine
    ):
        return REJECT_POSE, None
    table = mask_boxes(mask)
    if not any(min(box.c1 - box.c0, box.r1 - box.r0) > min_box_px for box in table.values()):
        return REJECT_NO_BOX, table
    return None, table


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
        positions=filtered,
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
