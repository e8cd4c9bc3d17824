"""Sparse labeled point map: reference-mask rendering, confidence-based
label association, and per-point label/weight fusion.

The map stores one signed-evidence weight per point.  Per-keyframe entity
masks are matched against a rendered reference mask; matched pixels add
evidence, contradicting pixels subtract it, and a point whose evidence is
exhausted flips to the contradicting label.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import InvalidLabel
from .geometry import UNREACHED, CameraIntrinsics, RigidPose, project_points, splat_min

DEFAULT_THETA = 0.2
DEFAULT_SPLAT_RADIUS = 2

UNLABELED = 0


class AssociationStrategy(enum.Enum):
    """Candidate scoring rule used to match input labels to map labels."""

    MEAN_CONFIDENCE = "mean_confidence"
    MAX_OVERLAP = "max_overlap"
    IOU = "iou"


@dataclass(frozen=True)
class AssociationConfig:
    """Coverage threshold and scoring strategy for label association."""

    theta: float = DEFAULT_THETA
    strategy: AssociationStrategy = AssociationStrategy.MEAN_CONFIDENCE

    def __post_init__(self):
        if not 0.0 < self.theta <= 1.0:
            raise ValueError("theta must be in (0, 1]")


class PointMap:
    """Id-indexed labeled 3D points with a fresh-label counter.

    Storage is columnar so rendering and fusion stay vectorized.
    The map has a single writer (the fusion step); concurrent readers must
    work on a :meth:`snapshot` taken between fuse calls.
    """

    def __init__(self, next_label: int = 1):
        self._ids = np.empty(0, dtype=np.int64)
        self._positions = np.empty((0, 3), dtype=np.float64)
        self._labels = np.empty(0, dtype=np.int64)
        self._weights = np.empty(0, dtype=np.float64)
        # Id -> row index: the ids in ascending order and the row of each.
        # Rows are append-only, so a row never changes its point.
        self._sorted_ids = np.empty(0, dtype=np.int64)
        self._sorted_rows = np.empty(0, dtype=np.int64)
        self.next_label = next_label

    def __len__(self) -> int:
        return len(self._ids)

    @property
    def ids(self) -> np.ndarray:
        return self._ids

    @property
    def positions(self) -> np.ndarray:
        return self._positions

    @property
    def labels(self) -> np.ndarray:
        return self._labels

    @property
    def weights(self) -> np.ndarray:
        return self._weights

    def upsert_positions(self, ids: np.ndarray, positions: np.ndarray) -> None:
        """Insert new points (unlabeled, weight 0, in ascending id order) or
        refresh positions of existing ones; labels and weights are
        untouched.

        Raises:
            ValueError: an id occurs more than once in ``ids``.
        """
        ids = np.asarray(ids, dtype=np.int64).reshape(-1)
        positions = np.asarray(positions, dtype=np.float64).reshape(-1, 3)
        order = np.argsort(ids)
        sorted_ids = ids[order]
        repeat = np.nonzero(sorted_ids[1:] == sorted_ids[:-1])[0]
        if len(repeat):
            raise ValueError(f"duplicate point id {int(sorted_ids[repeat[0]])}")
        at = np.searchsorted(self._sorted_ids, ids)
        known = at < len(self._sorted_ids)
        known[known] = self._sorted_ids[at[known]] == ids[known]
        self._positions[self._sorted_rows[at[known]]] = positions[known]
        # New points take rows in ascending id order, so the rows, and
        # what is read in row order, do not depend on the order of ``ids``.
        fresh = order[~known[order]]
        if len(fresh):
            start = len(self._ids)
            new_ids = ids[fresh]
            self._ids = np.concatenate([self._ids, new_ids])
            self._positions = np.vstack([self._positions, positions[fresh]])
            self._labels = np.concatenate(
                [self._labels, np.zeros(len(new_ids), dtype=np.int64)]
            )
            self._weights = np.concatenate(
                [self._weights, np.zeros(len(new_ids), dtype=np.float64)]
            )
            at = np.searchsorted(self._sorted_ids, new_ids)
            self._sorted_ids = np.insert(self._sorted_ids, at, new_ids)
            self._sorted_rows = np.insert(
                self._sorted_rows, at, start + np.arange(len(new_ids))
            )

    def allocate_label(self) -> int:
        label = self.next_label
        self.next_label += 1
        return label

    def labels_in_use(self) -> np.ndarray:
        used = np.unique(self._labels)
        return used[used != UNLABELED]

    def label_rows(self, label: int) -> np.ndarray:
        return np.nonzero(self._labels == label)[0]

    def snapshot(self) -> "PointMap":
        """Independent deep copy for concurrent read-side consumers."""
        clone = PointMap(next_label=self.next_label)
        clone._ids = self._ids.copy()
        clone._positions = self._positions.copy()
        clone._labels = self._labels.copy()
        clone._weights = self._weights.copy()
        clone._sorted_ids = self._sorted_ids.copy()
        clone._sorted_rows = self._sorted_rows.copy()
        return clone


@dataclass
class ReferenceRender:
    """Rasterized view of the map from one keyframe.

    ``ref_labels``/``ref_conf`` are the splatted label and weight rasters
    used for association statistics.  Every visible point (labeled or
    not) has its map row in ``visible_points`` and its center projection
    pixel in ``visible_rows``/``visible_cols``, where fusion updates it once.
    """

    ref_labels: np.ndarray
    ref_conf: np.ndarray
    visible_points: np.ndarray
    visible_rows: np.ndarray
    visible_cols: np.ndarray


def render_reference(
    pmap: PointMap,
    pose: RigidPose,
    intrinsics: CameraIntrinsics,
    splat_radius: int = DEFAULT_SPLAT_RADIUS,
) -> ReferenceRender:
    """Project labeled map points into the keyframe.

    Every labeled visible point paints a (2r+1)^2 splat of its label and
    weight, clipped at the image border; contended pixels keep the
    smallest camera depth, equal depths the smallest point id.
    """
    if splat_radius < 0:
        raise ValueError("splat_radius must be >= 0")
    h, w = intrinsics.height, intrinsics.width
    ref_labels = np.zeros((h, w), dtype=np.int64)
    ref_conf = np.zeros((h, w), dtype=np.float64)

    uv, depth, visible = project_points(pmap.positions, pose, intrinsics)
    points = np.flatnonzero(visible)
    vis_rows = np.floor(uv[points, 1]).astype(np.int64)
    vis_cols = np.floor(uv[points, 0]).astype(np.int64)

    labeled = np.flatnonzero(pmap.labels[points] != UNLABELED)
    if len(labeled):
        # A pixel shows the labeled point of least (depth, id) among those
        # whose centre lies within ``splat_radius`` of it (Chebyshev): the
        # least rank in that order.  Ids are unique, so no two points tie
        # on (depth, id).
        map_rows = points[labeled]
        order = labeled[np.lexsort((pmap.ids[map_rows], depth[map_rows]))]
        top, rank = splat_min(
            vis_rows[order], vis_cols[order], np.arange(len(order)), splat_radius, (h, w)
        )
        at = np.flatnonzero(rank != UNREACHED)
        winner = points[order[rank.reshape(-1)[at]]]
        painted = at + top * w
        ref_labels.reshape(-1)[painted] = pmap.labels[winner]
        ref_conf.reshape(-1)[painted] = pmap.weights[winner]

    return ReferenceRender(
        ref_labels=ref_labels,
        ref_conf=ref_conf,
        visible_points=points,
        visible_rows=vis_rows,
        visible_cols=vis_cols,
    )


@dataclass(frozen=True)
class _Overlap:
    """Overlap of an input mask with a reference render, one entry per
    (input label, reference label) pair sharing a pixel, in ascending pair
    order.

    ``conf_sum`` accumulates in flat row-major pixel order so independent
    per-pixel reimplementations reproduce it bit for bit.
    """

    img_label: np.ndarray
    ref_label: np.ndarray
    count: np.ndarray
    conf_sum: np.ndarray
    img_total: np.ndarray
    ref_total: np.ndarray
    img_labels: np.ndarray  # every nonzero input label, ascending


def _overlap_stats(img: np.ndarray, ref_labels: np.ndarray, ref_conf: np.ndarray) -> _Overlap:
    img_flat = img.reshape(-1)
    ref_flat = ref_labels.reshape(-1)
    img_on, ref_on = img_flat != 0, ref_flat != 0
    img_ids, img_totals = np.unique(img_flat[img_on], return_counts=True)
    ref_ids, ref_totals = np.unique(ref_flat[ref_on], return_counts=True)
    both = img_on & ref_on
    # Codes sort in (input, reference) order.  Compacting them before
    # binning keeps arbitrary label ids cheap; bincount sums sequentially
    # in pixel order.
    ref_max = int(ref_flat.max(initial=0)) + 1
    pairs, inverse = np.unique(img_flat[both] * ref_max + ref_flat[both], return_inverse=True)
    il, rl = np.divmod(pairs, ref_max)
    return _Overlap(
        img_label=il,
        ref_label=rl,
        count=np.bincount(inverse, minlength=len(pairs)),
        conf_sum=np.bincount(inverse, weights=ref_conf.reshape(-1)[both], minlength=len(pairs)),
        img_total=img_totals[np.searchsorted(img_ids, il)],
        ref_total=ref_totals[np.searchsorted(ref_ids, rl)],
        img_labels=img_ids,
    )


def mean_confidence(
    img_label: int, ref_label: int, img: np.ndarray, render: ReferenceRender
) -> float:
    """Mean rendered point weight over the overlap of one input label and
    one reference label; 0 when they do not overlap."""
    if img_label == UNLABELED or ref_label == UNLABELED:
        raise InvalidLabel("mean confidence is undefined for label 0")
    table = _overlap_stats(img, render.ref_labels, render.ref_conf)
    hit = np.flatnonzero((table.img_label == img_label) & (table.ref_label == ref_label))
    if len(hit) == 0:
        return 0.0
    return float(table.conf_sum[hit[0]] / table.count[hit[0]])


@dataclass(frozen=True)
class AssociationResult:
    """Consistency-resolved mask plus the input-to-map label assignment."""

    consistent: np.ndarray
    mapping: dict[int, int]
    new_labels: tuple[int, ...]


def associate(
    img: np.ndarray,
    img_conf: np.ndarray,
    render: ReferenceRender,
    cfg: AssociationConfig,
    pmap: PointMap,
) -> AssociationResult:
    """Assign every input mask label to a map label or a fresh one.

    A reference label is a candidate for an input label when their overlap
    covers more than ``theta`` of the reference label's rendered pixels
    (the IoU strategy instead requires IoU > theta).  Candidates are scored
    by the configured strategy; each reference label is handed to at most
    one input label, input labels claiming in descending order of their
    best candidate score.  Exhausted input labels receive a fresh label
    from the map counter.  Ties break toward ascending label ids.
    """
    if img.shape != img_conf.shape or img.shape != render.ref_labels.shape:
        raise ValueError("mask shapes must match the render")
    t = _overlap_stats(img, render.ref_labels, render.ref_conf)

    if cfg.strategy is AssociationStrategy.IOU:
        score = t.count / (t.img_total + t.ref_total - t.count)
        keep = score > cfg.theta
    else:
        keep = t.count / t.ref_total > cfg.theta
        if cfg.strategy is AssociationStrategy.MEAN_CONFIDENCE:
            score = t.conf_sum / t.count
        else:
            score = t.count.astype(np.float64)
    il, rl, score = t.img_label[keep], t.ref_label[keep], score[keep]
    # Each input label's candidates in one run, best score first.
    order = np.lexsort((rl, -score, il))
    il, rl, score = il[order], rl[order], score[order]
    start = np.searchsorted(il, t.img_labels)
    stop = np.searchsorted(il, t.img_labels, side="right")
    best = np.full(len(t.img_labels), -np.inf)
    np.maximum.at(best, np.searchsorted(t.img_labels, il), score)

    mapping: dict[int, int] = {}
    new_labels: list[int] = []
    taken: set[int] = set()
    candidates, start, stop = rl.tolist(), start.tolist(), stop.tolist()
    for k in np.lexsort((t.img_labels, -best)).tolist():
        assigned = next((ref for ref in candidates[start[k] : stop[k]] if ref not in taken), None)
        if assigned is None:
            assigned = pmap.allocate_label()
            new_labels.append(assigned)
        taken.add(assigned)
        mapping[int(t.img_labels[k])] = assigned

    # One lookup for all pixels; every label of ``img`` is a key, and 0 maps
    # to 0.  The table is indexed by label while it is no larger than the
    # mask; larger ids are searched among the sorted keys.
    lut = {UNLABELED: UNLABELED, **mapping}
    keys = np.array(sorted(lut), dtype=img.dtype)
    targets = np.array([lut[int(k)] for k in keys], dtype=img.dtype)
    if keys[0] >= 0 and keys[-1] < img.size:
        table = np.zeros(int(keys[-1]) + 1, dtype=img.dtype)
        table[keys] = targets
        consistent = table[img]
    else:
        consistent = targets[np.searchsorted(keys, img)]
    return AssociationResult(
        consistent=consistent, mapping=mapping, new_labels=tuple(new_labels)
    )


def fuse(
    pmap: PointMap,
    consistent: np.ndarray,
    img_conf: np.ndarray,
    render: ReferenceRender,
) -> None:
    """Fold one consistency-resolved keyframe into the map in place.

    Each visible point is updated once, at its own center projection
    pixel: agreement with the consistent mask adds the pixel confidence to
    the point weight, disagreement subtracts it, and a point whose weight
    is driven to or below zero flips to the observed label with the pixel
    confidence as its new weight.  Unlabeled visible points adopt the
    observed label outright.  Zero-confidence pixels are no-ops so labeled
    points always keep strictly positive weight.
    """
    obs = consistent[render.visible_rows, render.visible_cols]
    conf = img_conf[render.visible_rows, render.visible_cols]
    active = (obs != UNLABELED) & (conf > 0.0)
    rows = render.visible_points[active]
    obs = obs[active]
    conf = conf[active]
    label = pmap._labels[rows]
    weight = pmap._weights[rows]

    signed = np.where(label == obs, weight + conf, weight - conf)
    take = (label == UNLABELED) | (signed <= 0.0)
    label = np.where(take, obs, label)
    pmap._labels[rows] = label
    pmap._weights[rows] = np.where(take, conf, signed)
    top = int(label.max(initial=0))
    if top >= pmap.next_label:
        pmap.next_label = top + 1
