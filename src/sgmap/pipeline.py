"""Sequence replay: the frame loop owning the point map, and the graph
back end consuming immutable snapshots.

The two stages communicate by snapshot hand-off only, mirroring a
front-end/back-end split; run single-threaded here so replays are
bit-reproducible.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import seqio
from .entity_map import (
    AssociationConfig,
    AssociationStrategy,
    PointMap,
    associate,
    fuse,
    render_reference,
)
from .errors import DivergenceError, ShapeError
from .evaluation import (
    GroundTruth,
    PredictedGraph,
    aos,
    map_segments,
    recall_suite,
)
from .geometry import GravityConfig, NeighbourCache
from .graph_extract import (
    REJECT_NO_BOX,
    REJECT_POSE,
    LabelBox,
    build_neighbour,
    extract_entity,
    select_keyframe,
)
from .graph_fusion import GlobalSceneGraph
from .ssgp import (
    MULTI,
    SINGLE,
    GraphInputs,
    MultiviewAccumulator,
    NetworkConfig,
    NetworkWeights,
    PatchImageFeatureProvider,
    edge_geometry_rows,
    forward,
    init_weights,
    load_weights,
    normalize_points,
)
from .synth import NODE_CLASS_NAMES, PREDICATE_NAMES


@dataclass
class PipelineConfig:
    """All tunables of the incremental pipeline with their stock defaults:
    coverage threshold 0.2, neighbour margin 0.5 m, fusion weight cap 100,
    2 message-passing layers, keyframe gates of 5 degrees / 0.3 m / 200 px.
    """

    theta: float = 0.2
    rho: float = 0.5
    omega_max: float = 100.0
    layers: int = 2
    rot_thresh_deg: float = 5.0
    trans_thresh_m: float = 0.3
    min_box_px: int = 200
    keyframe_combine: str = "and"
    splat_radius: int = 2
    strategy: str = "mean_confidence"
    up: tuple[float, float, float] = (0.0, 0.0, 1.0)
    min_points: int = 10
    outlier_mean_k: int = 16
    outlier_std_ratio: float = 2.0
    backend_tick: int = 1
    node_dim: int = 32
    edge_dim: int = 32
    hidden_dim: int = 32
    patch_size: int = 8
    mode: str = "single"
    num_node_classes: int = len(NODE_CLASS_NAMES)
    num_edge_classes: int = len(PREDICATE_NAMES)
    node_class_names: list[str] = field(default_factory=lambda: list(NODE_CLASS_NAMES))
    predicate_names: list[str] = field(default_factory=lambda: list(PREDICATE_NAMES))
    weights_seed: int = 0

    def gravity(self) -> GravityConfig:
        return GravityConfig(up=np.asarray(self.up, dtype=np.float64))

    def association(self) -> AssociationConfig:
        return AssociationConfig(
            theta=self.theta, strategy=AssociationStrategy(self.strategy)
        )

    def network(self) -> NetworkConfig:
        return NetworkConfig(
            node_dim=self.node_dim,
            edge_dim=self.edge_dim,
            hidden_dim=self.hidden_dim,
            num_node_classes=self.num_node_classes,
            num_edge_classes=self.num_edge_classes,
            layers=self.layers,
            mode=self.mode,
            patch_size=self.patch_size,
        )

    def to_dict(self) -> dict:
        doc = asdict(self)
        doc["up"] = list(self.up)
        return doc

    @classmethod
    def from_dict(cls, doc: dict) -> "PipelineConfig":
        """A config from JSON values; each must have the JSON type of its
        field's default (an int fits a float field) and lie in the field's
        range (``_RANGES``)."""
        if not isinstance(doc, dict):
            raise ValueError("config must be a JSON object")
        defaults = cls().to_dict()
        unknown = sorted(set(doc) - set(defaults))
        if unknown:
            raise ValueError(f"unknown config keys: {unknown}")
        for key, value in doc.items():
            if not _fits(value, defaults[key]):
                raise ValueError(
                    f"config key {key!r} takes the JSON type of {defaults[key]!r}, not {value!r}"
                )
            within, rule = _RANGES.get(key, (None, None))
            if within is not None and not within(value):
                raise ValueError(f"config key {key!r} must be {rule}, not {value!r}")
        doc = dict(doc)
        if "up" in doc:
            doc["up"] = tuple(doc["up"])
        return cls(**doc)

    def save(self, path) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), indent=1, sort_keys=True) + "\n")

    @classmethod
    def load(cls, path) -> "PipelineConfig":
        try:
            return cls.from_dict(json.loads(Path(path).read_text()))
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from exc


# Field -> (test, the rule it checks) for values of the right JSON type.
_NON_NEGATIVE = (lambda v: v >= 0, "non-negative")
_AT_LEAST_1 = (lambda v: v >= 1, "at least 1")
_RANGES = {
    "theta": (lambda v: 0 < v <= 1, "in (0, 1]"),
    "omega_max": (lambda v: v > 0, "positive"),
    **dict.fromkeys(("rho", "layers", "splat_radius"), _NON_NEGATIVE),
    **dict.fromkeys(
        ("outlier_mean_k", "backend_tick", "node_dim", "edge_dim", "hidden_dim",
         "patch_size", "num_node_classes", "num_edge_classes"),
        _AT_LEAST_1,
    ),
    "keyframe_combine": (lambda v: v in ("and", "or"), "'and' or 'or'"),
    "mode": (lambda v: v in (SINGLE, MULTI), f"{SINGLE!r} or {MULTI!r}"),
    "strategy": (
        lambda v: v in {s.value for s in AssociationStrategy},
        "one of " + ", ".join(repr(s.value) for s in AssociationStrategy),
    ),
    "up": (
        lambda v: len(v) == 3 and abs(np.linalg.norm(v) - 1.0) <= 1e-9,
        "a unit 3-vector (within 1e-9)",
    ),
}


def _fits(value, default) -> bool:
    """Whether a JSON value has the type of ``default``, element by element
    for lists; an int fits where a float is expected."""
    if isinstance(default, list):
        return isinstance(value, (list, tuple)) and all(_fits(v, default[0]) for v in value)
    kinds = (int, float) if isinstance(default, float) else (type(default),)
    return isinstance(value, kinds) and not isinstance(value, bool)


class StageTimer:
    """Wall-clock accumulator per pipeline stage."""

    def __init__(self):
        self.samples: dict[str, list[float]] = {}

    def add(self, stage: str, seconds: float) -> None:
        self.samples.setdefault(stage, []).append(seconds * 1000.0)

    def summary(self) -> dict:
        out = {}
        for stage in sorted(self.samples):
            ms = np.asarray(self.samples[stage])
            out[stage] = {
                "count": int(len(ms)),
                "mean_ms": float(ms.mean()),
                "p50_ms": float(np.percentile(ms, 50)),
                "p95_ms": float(np.percentile(ms, 95)),
                "max_ms": float(ms.max()),
            }
        return out


@dataclass
class KeyframeRecord:
    """Association outcome of one accepted keyframe."""

    frame_index: int
    mapping: dict[int, int]
    new_labels: tuple[int, ...]


class IncrementalPipeline:
    """Replays a sequence frame by frame.

    Every frame refreshes map point positions; frames passing the keyframe
    gate run label association and fusion, and every ``backend_tick``
    keyframes the back end extracts entities from a snapshot, predicts a
    scene graph, and fuses it into the global graph.
    """

    def __init__(
        self,
        config: PipelineConfig,
        weights: NetworkWeights | None = None,
        enable_backend: bool = True,
    ):
        self.config = config
        self.weights = weights
        self.enable_backend = enable_backend and weights is not None
        self.map = PointMap()
        # The keyframe poses, stacked for the vectorised pose test.
        self._rotations = np.empty((0, 3, 3))
        self._translations = np.empty((0, 3))
        # Frames the keyframe gate turned away, by reason.
        self.rejected = {REJECT_POSE: 0, REJECT_NO_BOX: 0}
        self.records: list[KeyframeRecord] = []
        self.views: dict[int, MultiviewAccumulator] = {}
        self.global_graph = GlobalSceneGraph(
            num_node_classes=config.num_node_classes,
            num_edge_classes=config.num_edge_classes,
            omega_max=config.omega_max,
        )
        # Each live label's outlier-filter neighbour table, repaired by the
        # label's extraction at every back-end tick.
        self._neighbours: dict[int, NeighbourCache] = {}
        self.timer = StageTimer()
        self._patch_provider = (
            PatchImageFeatureProvider(weights) if weights is not None else None
        )
        self._gravity = config.gravity()
        self._assoc = config.association()

    # -- frame loop ------------------------------------------------------

    def process_frame(
        self,
        frame_index: int,
        pose,
        intrinsics,
        ids: np.ndarray,
        positions: np.ndarray,
        labels_mask: np.ndarray,
        conf_mask: np.ndarray,
        precomputed_feats: dict[int, np.ndarray] | None = None,
    ) -> KeyframeRecord | None:
        t0 = time.perf_counter()
        self.map.upsert_positions(ids, positions)
        self.timer.add("frame_ingest", time.perf_counter() - t0)

        reason, table = select_keyframe(
            pose,
            self._rotations,
            self._translations,
            labels_mask,
            rot_thresh_deg=self.config.rot_thresh_deg,
            trans_thresh_m=self.config.trans_thresh_m,
            min_box_px=self.config.min_box_px,
            combine=self.config.keyframe_combine,
        )
        if reason is not None:
            self.rejected[reason] += 1
            return None

        t0 = time.perf_counter()
        render = render_reference(
            self.map, pose, intrinsics, splat_radius=self.config.splat_radius
        )
        result = associate(labels_mask, conf_mask, render, self._assoc, self.map)
        fuse(self.map, result.consistent, conf_mask, render)
        self.timer.add("label_fusion", time.perf_counter() - t0)

        self._rotations = np.concatenate([self._rotations, pose.rotation[None]])
        self._translations = np.concatenate([self._translations, pose.translation[None]])
        record = KeyframeRecord(
            frame_index=frame_index,
            mapping=dict(result.mapping),
            new_labels=result.new_labels,
        )
        self.records.append(record)

        self._accumulate_views(labels_mask, table, result.mapping, precomputed_feats)

        if self.enable_backend and len(self.records) % self.config.backend_tick == 0:
            t0 = time.perf_counter()
            self._backend_tick()
            self.timer.add("graph_estimation", time.perf_counter() - t0)
        return record

    def _accumulate_views(
        self,
        labels_mask: np.ndarray,
        table: dict[int, LabelBox],
        mapping: dict[int, int],
        precomputed: dict[int, np.ndarray] | None,
    ) -> None:
        if self.weights is None:
            return
        dim = self.config.node_dim
        for input_label in sorted(mapping):
            map_label = mapping[input_label]
            if precomputed is not None and input_label in precomputed:
                feat = precomputed[input_label]
                if feat.shape != (dim,):
                    raise ShapeError(
                        f"precomputed feature for label {input_label} has dim "
                        f"{feat.shape}, expected ({dim},)"
                    )
            else:
                feat = self._patch_provider.feature(labels_mask, table[input_label].roi)
            acc = self.views.get(map_label)
            if acc is None:
                acc = MultiviewAccumulator(dim)
                self.views[map_label] = acc
            acc.add(feat)

    # -- back end ----------------------------------------------------------

    def _backend_tick(self) -> None:
        """Extract every live label's node from a snapshot, predict the
        graph over them and fuse it.  Every live label went through a
        keyframe's ``mapping``, so it has a view feature."""
        snapshot = self.map.snapshot()
        live = [int(label) for label in snapshot.labels_in_use()]
        self._neighbours = {
            label: self._neighbours.get(label) or NeighbourCache() for label in live
        }
        entities = []
        for label in live:
            node = extract_entity(
                snapshot,
                label,
                min_points=self.config.min_points,
                mean_k=self.config.outlier_mean_k,
                std_ratio=self.config.outlier_std_ratio,
                gravity=self._gravity,
                neighbours=self._neighbours[label],
            )
            if node is not None:
                entities.append(node)
        if not entities:
            return

        src, dst = build_neighbour(entities, margin=self.config.rho, gravity=self._gravity)
        inputs = GraphInputs(
            node_labels=tuple(node.label for node in entities),
            node_points=[normalize_points(node.positions, node.obb) for node in entities],
            edges=np.stack([src, dst], axis=1),
            edge_geometry=edge_geometry_rows(
                [node.obb for node in entities],
                [node.positions for node in entities],
                src,
                dst,
                self._gravity,
            ),
            node_features=np.stack([self.views[node.label].value() for node in entities]),
        )
        result = forward(inputs, self.weights)
        if not (
            np.all(np.isfinite(result.prediction.node_probs))
            and np.all(np.isfinite(result.prediction.edge_probs))
        ):
            raise DivergenceError("scene graph prediction produced non-finite values")
        self.global_graph.integrate_prediction(
            result.prediction, set(live), entities={node.label: node for node in entities}
        )

    # -- exports -------------------------------------------------------------

    def scene_graph_doc(self) -> dict:
        return self.global_graph.export()

    def labeled_points(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        labeled = self.map.labels != 0
        return (
            self.map.positions[labeled],
            self.map.labels[labeled],
            self.map.weights[labeled],
        )


def _replay(pipeline: IncrementalPipeline, sequence: seqio.Sequence) -> IncrementalPipeline:
    """Feed every frame of ``sequence`` to ``pipeline`` in order.  Each
    points file is read against the previous one, so only the lines that
    changed are parsed.  A pipeline without weights computes no view
    features, so it does not read the precomputed ones."""
    memory = seqio.PointsMemory()
    for frame in sequence.frames:
        ids, positions = seqio.read_points(frame.points_path, memory)
        pipeline.process_frame(
            frame.index,
            frame.pose(),
            sequence.intrinsics,
            ids,
            positions,
            frame.labels(),
            frame.confidence(),
            precomputed_feats=frame.features() if pipeline.weights is not None else None,
        )
    return pipeline


def replay_frontend(sequence: seqio.Sequence, config: PipelineConfig) -> IncrementalPipeline:
    """Run only the mapping/association front end over a sequence."""
    return _replay(IncrementalPipeline(config, weights=None, enable_backend=False), sequence)


def run_sequence(
    sequence_dir,
    out_dir,
    config: PipelineConfig,
    weights_path=None,
) -> dict:
    """Full pipeline over a sequence directory; writes map.ply,
    scene_graph.json, graph.dot, timings.json, and metrics.json when the
    sequence carries ground truth.  Returns a run summary."""
    sequence = seqio.read_sequence(sequence_dir)
    network = config.network()
    if weights_path is not None:
        weights = load_weights(weights_path, network)
    else:
        weights = init_weights(network, seed=config.weights_seed)

    pipeline = _replay(IncrementalPipeline(config, weights=weights), sequence)

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    positions, labels, point_weights = pipeline.labeled_points()
    seqio.write_labeled_ply(
        out / "map.ply", positions, {"label": labels, "weight": point_weights}
    )

    doc = pipeline.scene_graph_doc()
    (out / "scene_graph.json").write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")

    dot_nodes = []
    for node in doc["nodes"]:
        cls = node["class_id"]
        name = (
            config.node_class_names[cls]
            if 0 <= cls < len(config.node_class_names)
            else str(cls)
        )
        dot_nodes.append((node["label"], f"{node['label']}:{name}"))
    dot_edges = []
    for edge in doc["edges"]:
        pred = int(np.argmax(edge["pred_probs"]))
        if pred == 0:
            continue
        name = (
            config.predicate_names[pred]
            if 0 <= pred < len(config.predicate_names)
            else str(pred)
        )
        dot_edges.append((edge["from"], edge["to"], name))
    seqio.write_dot(out / "graph.dot", dot_nodes, dot_edges)

    summary = {
        "frames": len(sequence.frames),
        "keyframes": len(pipeline.records),
        "keyframes_rejected": dict(pipeline.rejected),
        "map_points": int(len(pipeline.map)),
        "labeled_points": int(len(labels)),
        "graph_nodes": len(doc["nodes"]),
        "graph_edges": len(doc["edges"]),
    }

    if sequence.has_ground_truth():
        metrics = evaluate_against_gt(
            positions, labels, doc, sequence.gt_points_path, sequence.gt_graph_path
        )
        (out / "metrics.json").write_text(
            json.dumps(metrics, indent=1, sort_keys=True) + "\n"
        )
        summary["metrics"] = metrics

    (out / "timings.json").write_text(
        json.dumps(pipeline.timer.summary(), indent=1, sort_keys=True) + "\n"
    )
    (out / "summary.json").write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")
    return summary


def evaluate_against_gt(
    est_positions: np.ndarray,
    est_labels: np.ndarray,
    scene_graph_doc: dict,
    gt_points_path,
    gt_graph_path,
    include_none: bool = True,
) -> dict:
    """Segmentation and recall metrics of one run against ground truth."""
    gt_positions, columns = seqio.read_labeled_ply(gt_points_path)
    instance_classes, triplets, _, _ = seqio.read_gt_graph(gt_graph_path)
    gt = GroundTruth(
        points=gt_positions,
        instances=columns["instance"],
        instance_classes=instance_classes,
        triplets=triplets,
    )
    metrics: dict[str, float] = {}
    if len(est_positions) and len(gt_positions):
        metrics["aos"] = aos(est_positions, est_labels, gt.points, gt.instances)
        mapping = map_segments(est_positions, est_labels, gt.points, gt.instances)
        pred = PredictedGraph(
            node_probs={
                node["label"]: np.asarray(node["class_probs"])
                for node in scene_graph_doc["nodes"]
            },
            edge_probs={
                (edge["from"], edge["to"]): np.asarray(edge["pred_probs"])
                for edge in scene_graph_doc["edges"]
            },
        )
        metrics.update(recall_suite(pred, mapping, gt, include_none=include_none))
    return metrics
