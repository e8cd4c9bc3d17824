"""Temporal fusion of per-snapshot predictions into a global scene graph.

Each node and directed edge stores a class distribution and a fusion
weight; new predictions fold in by weighted running average with the
weight capped, so late observations keep a bounded influence.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ShapeError
from .graph_extract import EntityNode
from .ssgp import Prediction

DEFAULT_OMEGA_MAX = 100.0


@dataclass(frozen=True)
class Belief:
    """A class distribution (or independent predicate probabilities) with
    its accumulated fusion weight."""

    probs: np.ndarray
    weight: float

    def __post_init__(self):
        object.__setattr__(self, "probs", np.asarray(self.probs, dtype=np.float64))
        if self.weight < 0:
            raise ValueError("belief weight must be non-negative")

    def argmax(self) -> int:
        # np.argmax returns the first maximum: ascending-index tie-break.
        return int(np.argmax(self.probs))


def fuse_belief(
    stored: Belief,
    incoming_probs: np.ndarray,
    omega_max: float = DEFAULT_OMEGA_MAX,
) -> Belief:
    """Weighted running average of the stored distribution and an incoming
    one of weight 1.

    probs' = (p_new + p_old * w_old) / (1 + w_old)
    weight' = min(omega_max, 1 + w_old)
    """
    incoming = np.asarray(incoming_probs, dtype=np.float64)
    if incoming.shape != stored.probs.shape:
        raise ShapeError(
            f"belief dims differ: stored {stored.probs.shape}, incoming {incoming.shape}"
        )
    total = 1.0 + stored.weight
    probs = (incoming + stored.probs * stored.weight) / total
    return Belief(probs=probs, weight=min(omega_max, total))


@dataclass
class NodeState:
    """Fused belief plus the latest extracted entity for export."""

    belief: Belief
    entity: EntityNode | None = None


@dataclass
class GlobalSceneGraph:
    """Nodes keyed by entity label, directed edges keyed by label pairs."""

    num_node_classes: int
    num_edge_classes: int
    omega_max: float = DEFAULT_OMEGA_MAX
    nodes: dict[int, NodeState] = field(default_factory=dict)
    edges: dict[tuple[int, int], Belief] = field(default_factory=dict)

    def _empty_node_belief(self) -> Belief:
        return Belief(probs=np.zeros(self.num_node_classes), weight=0.0)

    def _empty_edge_belief(self) -> Belief:
        return Belief(probs=np.zeros(self.num_edge_classes), weight=0.0)

    def integrate_prediction(
        self,
        pred: Prediction,
        snapshot_labels: set[int],
        entities: dict[int, EntityNode] | None = None,
    ) -> None:
        """Fuse one snapshot prediction and prune vanished labels.

        Keys absent from the graph are initialized with weight 0 and then
        fused; nodes whose label left the map snapshot are dropped together
        with their incident edges.
        """
        for label, probs in zip(pred.node_labels, pred.node_probs):
            state = self.nodes.get(label)
            if state is None:
                state = NodeState(belief=self._empty_node_belief())
                self.nodes[label] = state
            state.belief = fuse_belief(state.belief, probs, self.omega_max)
            if entities is not None and label in entities:
                state.entity = entities[label]

        for key, probs in zip(pred.edge_keys, pred.edge_probs):
            if key[0] == key[1]:
                raise ValueError("self edges are not allowed in the scene graph")
            stored = self.edges.get(key)
            if stored is None:
                stored = self._empty_edge_belief()
            self.edges[key] = fuse_belief(stored, probs, self.omega_max)

        vanished = [label for label in self.nodes if label not in snapshot_labels]
        for label in vanished:
            del self.nodes[label]
        if vanished:
            gone = set(vanished)
            for key in [k for k in self.edges if k[0] in gone or k[1] in gone]:
                del self.edges[key]

    def export(self) -> dict:
        """JSON-ready snapshot: nodes with argmax class and box, edges with
        predicate distributions, deterministically ordered."""
        nodes = []
        for label in sorted(self.nodes):
            state = self.nodes[label]
            entry = {
                "label": int(label),
                "class_id": state.belief.argmax(),
                "class_probs": [float(p) for p in state.belief.probs],
                "weight": float(state.belief.weight),
            }
            if state.entity is not None:
                obb = state.entity.obb
                entry["obb"] = {
                    "center": [float(c) for c in obb.center],
                    "dims": [float(d) for d in obb.dims],
                    "yaw": float(obb.yaw),
                }
            nodes.append(entry)
        edges = []
        for (src, dst) in sorted(self.edges):
            belief = self.edges[(src, dst)]
            edges.append(
                {
                    "from": int(src),
                    "to": int(dst),
                    "pred_probs": [float(p) for p in belief.probs],
                    "weight": float(belief.weight),
                }
            )
        return {"nodes": nodes, "edges": edges}
