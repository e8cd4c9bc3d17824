"""Metrics for incremental entity segmentation and scene-graph prediction.

Estimated segmentations are mapped back to ground-truth instances by
nearest-neighbour voting, so different segmentation front ends stay
comparable.  Segmentation scores are read off one (estimated label, GT
instance) vote table, recalls off arrays indexed by GT instance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .errors import EmptyInput

NONE_PREDICATE = 0


@dataclass
class GroundTruth:
    """GT points with instance/class ids plus relationship triplets."""

    points: np.ndarray
    instances: np.ndarray
    instance_classes: dict[int, int]
    triplets: list[tuple[int, int, int]]  # (subject instance, predicate, object instance)

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=np.float64).reshape(-1, 3)
        self.instances = np.asarray(self.instances, dtype=np.int64)
        for subject, _, obj in self.triplets:
            if subject not in self.instance_classes or obj not in self.instance_classes:
                raise ValueError("triplet endpoints must be known instances")


@dataclass
class SegmentMapping:
    """Estimated label -> GT instance, with per-label point counts."""

    mapping: dict[int, int]
    point_counts: dict[int, int]


def _vote_table(
    est_points: np.ndarray, est_labels: np.ndarray, gt_points: np.ndarray, gt_instances: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every (estimated label, GT instance) pair in ascending order with its
    number of votes: each estimated point votes for the instance of its
    nearest GT point."""
    est_points = np.asarray(est_points, dtype=np.float64).reshape(-1, 3)
    est_labels = np.asarray(est_labels, dtype=np.int64).reshape(-1)
    gt_points = np.asarray(gt_points, dtype=np.float64).reshape(-1, 3)
    gt_instances = np.asarray(gt_instances, dtype=np.int64).reshape(-1)
    if len(est_points) == 0 or len(gt_points) == 0:
        raise EmptyInput("overlap score needs non-empty point clouds")
    if len(est_labels) != len(est_points) or len(gt_instances) != len(gt_points):
        raise ValueError("every point needs one label or instance")
    _, nearest = cKDTree(gt_points).query(est_points, k=1)
    votes = np.stack([est_labels, gt_instances[nearest]], axis=1)
    pairs, counts = np.unique(votes, axis=0, return_counts=True)
    return pairs[:, 0], pairs[:, 1], counts


def _leaders(keys: np.ndarray, others: np.ndarray, counts: np.ndarray):
    """For every distinct key, ascending: the ``others`` value with the most
    counts (the lower value on ties), that count and the key's total."""
    order = np.lexsort((others, -counts, keys))
    keys, others, counts = keys[order], others[order], counts[order]
    starts = np.flatnonzero(np.r_[True, keys[1:] != keys[:-1]])
    return keys[starts], others[starts], counts[starts], np.add.reduceat(counts, starts)


def aos(
    est_points: np.ndarray, est_labels: np.ndarray, gt_points: np.ndarray, gt_instances: np.ndarray
) -> float:
    """Average overlap score of an estimated segmentation.

    Every estimated point adopts the instance of its nearest GT point;
    the score is the total size of each instance's dominant estimated
    segment over the total number of estimated points, in [0, 1].
    """
    labels, instances, counts = _vote_table(est_points, est_labels, gt_points, gt_instances)
    _, _, dominant, _ = _leaders(instances, labels, counts)
    return int(dominant.sum()) / int(counts.sum())


def aos_summed_ratios(
    est_points: np.ndarray, est_labels: np.ndarray, gt_points: np.ndarray, gt_instances: np.ndarray
) -> float:
    """Variant that sums per-instance dominant ratios (can exceed 1 when
    several instances are present); kept for comparison."""
    labels, instances, counts = _vote_table(est_points, est_labels, gt_points, gt_instances)
    _, _, dominant, sizes = _leaders(instances, labels, counts)
    return sum(dom / size for dom, size in zip(dominant.tolist(), sizes.tolist()))


def map_segments(
    est_points: np.ndarray, est_labels: np.ndarray, gt_points: np.ndarray, gt_instances: np.ndarray
) -> SegmentMapping:
    """Majority vote of per-point nearest-neighbour GT instances for every
    estimated label; vote ties resolve to the lower instance id."""
    if np.asarray(est_points).size == 0:
        return SegmentMapping(mapping={}, point_counts={})
    table = _vote_table(est_points, est_labels, gt_points, gt_instances)
    labels, winners, _, sizes = (column.tolist() for column in _leaders(*table))
    return SegmentMapping(mapping=dict(zip(labels, winners)), point_counts=dict(zip(labels, sizes)))


@dataclass(frozen=True)
class PredictedGraph:
    """Argmax-ready class and predicate distributions keyed by est label."""

    node_probs: dict[int, np.ndarray]
    edge_probs: dict[tuple[int, int], np.ndarray]


def _representatives(mapping: SegmentMapping) -> dict[int, int]:
    """GT instance -> the estimated label with the most points (lower label
    on ties)."""
    reps: dict[int, tuple[int, int]] = {}
    for label in sorted(mapping.mapping):
        inst, count = mapping.mapping[label], mapping.point_counts.get(label, 0)
        if inst not in reps or count > reps[inst][0]:
            reps[inst] = (count, label)
    return {inst: label for inst, (_count, label) in reps.items()}


def _recalls(hits: np.ndarray, classes: np.ndarray) -> tuple[float, float]:
    """Hit fraction and mean per-class hit fraction, classes ascending; 1.0 when empty."""
    if len(hits) == 0:
        return 1.0, 1.0
    _, inverse = np.unique(classes, return_inverse=True)
    per_class = np.bincount(inverse, weights=hits) / np.bincount(inverse)
    return int(hits.sum()) / len(hits), float(np.mean(per_class))


def recall_suite(
    pred: PredictedGraph,
    mapping: SegmentMapping,
    gt: GroundTruth,
    include_none: bool = True,
) -> dict[str, float]:
    """Top-1 recall of triplets, object classes, and predicates, plus
    class-mean recalls for objects and predicates.

    With ``include_none`` the edge universe is every ordered instance pair
    (unannotated pairs count as the none predicate, absent predicted edges
    predict none); otherwise only annotated triplets are scored.  When
    several estimated segments map to one instance, the largest represents
    it.
    """
    table = np.array(sorted(gt.instance_classes.items()), dtype=np.int64).reshape(-1, 2)
    instances, classes, n = table[:, 0], table[:, 1], len(table)
    reps = _representatives(mapping)
    rep_labels = [reps.get(inst) for inst in instances.tolist()]
    node_hit = np.array([
        label in pred.node_probs and int(np.argmax(pred.node_probs[label])) == cls
        for label, cls in zip(rep_labels, classes.tolist())
    ], dtype=bool)

    triplets = np.array(gt.triplets, dtype=np.int64).reshape(-1, 3)
    rows = np.searchsorted(instances, triplets[:, [0, 2]])
    pair = rows[:, 0] * n + rows[:, 1]
    # A repeated (subject, object) pair keeps its last predicate.
    _, from_end = np.unique(pair[::-1], return_index=True)
    last = len(pair) - 1 - from_end
    gt_predicate = np.full((n, n), NONE_PREDICATE, dtype=np.int64)
    gt_predicate.flat[pair[last]] = triplets[last, 1]
    annotated = np.zeros((n, n), dtype=bool)
    annotated.flat[pair] = True

    rep_row = {label: row for row, label in enumerate(rep_labels) if label is not None}
    predicted = np.full((n, n), NONE_PREDICATE, dtype=np.int64)
    for (la, lb), probs in pred.edge_probs.items():
        if la in rep_row and lb in rep_row:
            predicted[rep_row[la], rep_row[lb]] = np.argmax(probs)

    scored = ~np.eye(n, dtype=bool) if include_none else annotated
    edge_hit = predicted[scored] == gt_predicate[scored]
    rel_hit = edge_hit & np.outer(node_hit, node_hit)[scored]
    recall_obj, mrecall_obj = _recalls(node_hit, classes)
    recall_pred, mrecall_pred = _recalls(edge_hit, gt_predicate[scored])
    recall_rel, _ = _recalls(rel_hit, gt_predicate[scored])
    return {"recall_rel": recall_rel, "recall_obj": recall_obj, "recall_pred": recall_pred,
            "mrecall_obj": mrecall_obj, "mrecall_pred": mrecall_pred}
