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

    def _find(self, ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(known, rows) for an id array; ``rows`` is only valid where
        ``known``."""
        if len(self._sorted_ids) == 0:
            return np.zeros(len(ids), dtype=bool), np.zeros(len(ids), dtype=np.int64)
        at = np.minimum(np.searchsorted(self._sorted_ids, ids), len(self._sorted_ids) - 1)
        return self._sorted_ids[at] == ids, self._sorted_rows[at]

    def rows_of(self, ids) -> np.ndarray:
        """Rows of existing point ids; ``KeyError`` names an unknown one."""
        ids = np.asarray(ids, dtype=np.int64).reshape(-1)
        known, rows = self._find(ids)
        if not known.all():
            raise KeyError(int(ids[np.argmin(known)]))
        return rows

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
        known, rows = self._find(ids)
        self._positions[rows[known]] = positions[known]
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
    used for association statistics.  The ``visible_*`` arrays record the
    single center projection pixel of every visible point (labeled or
    not); fusion updates each point once there.
    """

    ref_labels: np.ndarray
    ref_conf: np.ndarray
    visible_ids: np.ndarray
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

    if len(pmap) == 0:
        empty = np.empty(0, dtype=np.int64)
        return ReferenceRender(ref_labels, ref_conf, empty, empty.copy(), empty.copy())

    uv, _depth, visible = project_points(pmap.positions, pose, intrinsics)
    vis_rows = np.floor(uv[visible, 1]).astype(np.int64)
    vis_cols = np.floor(uv[visible, 0]).astype(np.int64)
    vis_ids = pmap.ids[visible]
    vis_labels = pmap.labels[visible]
    vis_depth = _depth[visible]

    labeled = np.nonzero(vis_labels != UNLABELED)[0]
    if len(labeled):
        # A pixel shows the labeled point of least (depth, id) among those
        # whose centre lies within ``splat_radius`` of it (Chebyshev): the
        # least rank in that order.  Ids are unique, so no two points tie
        # on (depth, id).
        order = labeled[np.lexsort((vis_ids[labeled], vis_depth[labeled]))]
        top, rank = splat_min(
            vis_rows[order], vis_cols[order], np.arange(len(order)), splat_radius, (h, w)
        )
        at = np.flatnonzero(rank != UNREACHED)
        winner = order[rank.reshape(-1)[at]]
        painted = at + top * w
        ref_labels.reshape(-1)[painted] = vis_labels[winner]
        ref_conf.reshape(-1)[painted] = pmap.weights[visible][winner]

    return ReferenceRender(
        ref_labels=ref_labels,
        ref_conf=ref_conf,
        visible_ids=vis_ids,
        visible_rows=vis_rows,
        visible_cols=vis_cols,
    )


def _overlap_stats(
    img: np.ndarray, ref_labels: np.ndarray, ref_conf: np.ndarray
) -> tuple[dict[tuple[int, int], int], dict[tuple[int, int], float], dict[int, int], dict[int, int]]:
    """Per-(input label, reference label) overlap pixel counts and summed
    reference confidences, plus per-label pixel totals.

    Sums accumulate in flat row-major pixel order so independent per-pixel
    reimplementations reproduce them bit for bit.
    """
    img_flat = img.reshape(-1)
    ref_flat = ref_labels.reshape(-1)
    conf_flat = ref_conf.reshape(-1)

    img_totals = {
        int(lbl): int(cnt)
        for lbl, cnt in zip(*np.unique(img_flat[img_flat != 0], return_counts=True))
    }
    ref_totals = {
        int(lbl): int(cnt)
        for lbl, cnt in zip(*np.unique(ref_flat[ref_flat != 0], return_counts=True))
    }

    both = (img_flat != 0) & (ref_flat != 0)
    overlap_counts: dict[tuple[int, int], int] = {}
    conf_sums: dict[tuple[int, int], float] = {}
    if both.any():
        ref_max = int(ref_flat.max()) + 1
        code = img_flat[both] * ref_max + ref_flat[both]
        # Compact the sparse pair codes before binning so arbitrary label
        # ids stay cheap; bincount accumulates sequentially in pixel order,
        # which keeps the sums reproducible bit for bit.
        uniq, inverse = np.unique(code, return_inverse=True)
        counts = np.bincount(inverse)
        sums = np.bincount(inverse, weights=conf_flat[both])
        for i, c in enumerate(uniq):
            key = (int(c) // ref_max, int(c) % ref_max)
            overlap_counts[key] = int(counts[i])
            conf_sums[key] = float(sums[i])
    return overlap_counts, conf_sums, img_totals, ref_totals


def mean_confidence(
    img_label: int, ref_label: int, img: np.ndarray, render: ReferenceRender
) -> float:
    """Mean rendered point weight over the overlap of one input label and
    one reference label; 0 when they do not overlap."""
    if img_label == UNLABELED or ref_label == UNLABELED:
        raise InvalidLabel("mean confidence is undefined for label 0")
    counts, sums, _, _ = _overlap_stats(img, render.ref_labels, render.ref_conf)
    key = (int(img_label), int(ref_label))
    if key not in counts:
        return 0.0
    return sums[key] / counts[key]


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
    counts, sums, img_totals, ref_totals = _overlap_stats(
        img, render.ref_labels, render.ref_conf
    )

    candidates: dict[int, list[tuple[float, int]]] = {}
    for lbl in img_totals:
        scored: list[tuple[float, int]] = []
        for (il, rl), cnt in counts.items():
            if il != lbl:
                continue
            if cfg.strategy is AssociationStrategy.IOU:
                union = img_totals[il] + ref_totals[rl] - cnt
                score = cnt / union
                if score <= cfg.theta:
                    continue
            else:
                coverage = cnt / ref_totals[rl]
                if coverage <= cfg.theta:
                    continue
                if cfg.strategy is AssociationStrategy.MEAN_CONFIDENCE:
                    score = sums[(il, rl)] / cnt
                else:
                    score = float(cnt)
            scored.append((score, rl))
        scored.sort(key=lambda item: (-item[0], item[1]))
        candidates[lbl] = scored

    order = sorted(
        candidates,
        key=lambda lbl: (
            -(candidates[lbl][0][0] if candidates[lbl] else -np.inf),
            lbl,
        ),
    )

    mapping: dict[int, int] = {}
    new_labels: list[int] = []
    taken: set[int] = set()
    for lbl in order:
        assigned = None
        for _score, rl in candidates[lbl]:
            if rl not in taken:
                assigned = rl
                break
        if assigned is None:
            assigned = pmap.allocate_label()
            new_labels.append(assigned)
        taken.add(assigned)
        mapping[lbl] = assigned

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
    if len(render.visible_ids) == 0:
        return
    rows = render.visible_rows
    cols = render.visible_cols
    obs = consistent[rows, cols]
    conf = img_conf[rows, cols]
    active = (obs != UNLABELED) & (conf > 0.0)
    if not active.any():
        return

    ids = render.visible_ids[active]
    obs = obs[active]
    conf = conf[active]
    map_rows = pmap.rows_of(ids)
    cur_labels = pmap._labels[map_rows]
    cur_weights = pmap._weights[map_rows]

    adopt = cur_labels == UNLABELED
    agree = ~adopt & (cur_labels == obs)
    disagree = ~adopt & ~agree

    new_labels = cur_labels.copy()
    new_weights = cur_weights.copy()
    new_labels[adopt] = obs[adopt]
    new_weights[adopt] = conf[adopt]
    new_weights[agree] = cur_weights[agree] + conf[agree]
    lowered = cur_weights[disagree] - conf[disagree]
    flip = lowered <= 0.0
    dis_idx = np.nonzero(disagree)[0]
    new_weights[dis_idx] = lowered
    new_labels[dis_idx[flip]] = obs[dis_idx[flip]]
    new_weights[dis_idx[flip]] = conf[dis_idx[flip]]

    pmap._labels[map_rows] = new_labels
    pmap._weights[map_rows] = new_weights
    top = int(new_labels.max(initial=0))
    if top >= pmap.next_label:
        pmap.next_label = top + 1
