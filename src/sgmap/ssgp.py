"""Scene-graph prediction network.

Node features come from multi-view image features; a point-set encoder
adds geometry through a learnable sigmoid gate.  Edge features encode
relative box geometry.  Both are refined by gated message-passing layers
with feature-wise attention and shared GRU cells, then classified by
softmax (or per-predicate sigmoid) heads.

The network runs on whole matrices, one row per node or edge: node
features are (N, D), edge features (E, D), and the edges are the index
arrays ``src`` and ``dst`` (E,) into the node rows.  The point encoder
runs on the (P, 3) points of all nodes at once, with ``point_node`` (P,)
naming each point's node.  Messages gather endpoint rows by ``src`` and
``dst``; a node's context is the segment max of the attention outputs of
its outgoing edges.  Every block acts on the last axis, so it also takes
a single (D,) vector.

Everything runs on the in-package reverse-mode engine so the full loss is
differentiable for gradient checks and small-scale training.
"""

from __future__ import annotations

import json
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import (
    DivergenceError,
    EmptyPointSet,
    InvalidLabel,
    InvalidRoi,
    NoObservations,
    ShapeError,
)
from .geometry import DEFAULT_GRAVITY, GravityConfig, Obb

EPS_DIV = 1e-6
EPS_LOG = 1e-12
BCE_EPS = 1e-12

SINGLE = "single"
MULTI = "multi"

EDGE_GEOMETRY_DIM = 12


@dataclass(frozen=True)
class NetworkConfig:
    """Dimensions and mode switches for one network instantiation.

    The gate adds the (sigmoided) geometric feature directly onto the node
    feature, so the point encoder's output also has ``node_dim`` entries.
    """

    node_dim: int = 32
    edge_dim: int = 32
    hidden_dim: int = 32
    num_node_classes: int = 4
    num_edge_classes: int = 3
    layers: int = 2
    mode: str = SINGLE
    patch_size: int = 8

    def __post_init__(self):
        if self.mode not in (SINGLE, MULTI):
            raise ValueError(f"unknown mode {self.mode!r}")
        if min(self.node_dim, self.edge_dim, self.hidden_dim) < 1:
            raise ValueError("dims must be positive")

    @property
    def patch_dim(self) -> int:
        return 3 * self.patch_size * self.patch_size


def expected_shapes(config: NetworkConfig) -> dict[str, tuple[int, ...]]:
    dn, de, h = config.node_dim, config.edge_dim, config.hidden_dim
    shapes: dict[str, tuple[int, ...]] = {
        "image_proj.weight": (dn, config.patch_dim),
        "point_enc.0.weight": (h, 3),
        "point_enc.0.bias": (h,),
        "point_enc.1.weight": (dn, h),
        "point_enc.1.bias": (dn,),
        "edge_mlp.0.weight": (h, EDGE_GEOMETRY_DIM),
        "edge_mlp.0.bias": (h,),
        "edge_mlp.1.weight": (de, h),
        "edge_mlp.1.bias": (de,),
        "gate.weight": (2 * dn,),
        "fan.att.0.weight": (h, dn + de),
        "fan.att.0.bias": (h,),
        "fan.att.1.weight": (dn, h),
        "fan.att.1.bias": (dn,),
        "fan.value.weight": (dn, dn),
        "node_msg.0.weight": (h, 2 * dn),
        "node_msg.0.bias": (h,),
        "node_msg.1.weight": (dn, h),
        "node_msg.1.bias": (dn,),
        "edge_msg.0.weight": (h, 2 * dn + de),
        "edge_msg.0.bias": (h,),
        "edge_msg.1.weight": (de, h),
        "edge_msg.1.bias": (de,),
        "node_head.weight": (config.num_node_classes, dn),
        "node_head.bias": (config.num_node_classes,),
        "edge_head.weight": (config.num_edge_classes, de),
        "edge_head.bias": (config.num_edge_classes,),
    }
    for cell, dim in (("node_gru", dn), ("edge_gru", de)):
        for gate in ("r", "z", "n"):
            shapes[f"{cell}.w_{gate}"] = (dim, dim)
            shapes[f"{cell}.u_{gate}"] = (dim, dim)
            shapes[f"{cell}.b_{gate}"] = (dim,)
    return shapes


@dataclass
class NetworkWeights:
    """Named parameter tensors for one configuration."""

    config: NetworkConfig
    tensors: dict[str, Tensor]

    def __getitem__(self, name: str) -> Tensor:
        return self.tensors[name]

    def parameters(self) -> list[tuple[str, Tensor]]:
        return sorted(self.tensors.items())

    def zero_grad(self) -> None:
        for t in self.tensors.values():
            t.grad = None


def init_weights(config: NetworkConfig, seed: int = 0, scale: float | None = None) -> NetworkWeights:
    """Uniform fan-in initialization; biases start at zero."""
    rng = np.random.default_rng(seed)
    tensors: dict[str, Tensor] = {}
    for name, shape in sorted(expected_shapes(config).items()):
        if name.endswith("bias") or name.startswith(("node_gru.b", "edge_gru.b")):
            value = np.zeros(shape)
        else:
            fan_in = shape[-1]
            bound = scale if scale is not None else 1.0 / np.sqrt(fan_in)
            value = rng.uniform(-bound, bound, size=shape)
        tensors[name] = ad.parameter(value)
    return NetworkWeights(config=config, tensors=tensors)


def save_weights(weights: NetworkWeights, path) -> None:
    doc = {
        name: {"shape": list(t.value.shape), "data": t.value.reshape(-1).tolist()}
        for name, t in sorted(weights.tensors.items())
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)


def load_weights(path, config: NetworkConfig) -> NetworkWeights:
    """Load a named-tensor document, validating names and shapes."""
    with open(path) as fh:
        doc = json.load(fh)
    shapes = expected_shapes(config)
    unknown = sorted(set(doc) - set(shapes))
    if unknown:
        raise ShapeError(f"unknown tensor names in weight file: {unknown}")
    missing = sorted(set(shapes) - set(doc))
    if missing:
        raise ShapeError(f"weight file is missing tensors: {missing}")
    tensors: dict[str, Tensor] = {}
    for name, entry in doc.items():
        shape = tuple(entry["shape"])
        if shape != shapes[name]:
            raise ShapeError(
                f"tensor {name}: file shape {shape} != expected {shapes[name]}"
            )
        data = np.asarray(entry["data"], dtype=np.float64)
        if data.size != int(np.prod(shape)):
            raise ShapeError(f"tensor {name}: data length does not match shape")
        tensors[name] = ad.parameter(data.reshape(shape))
    return NetworkWeights(config=config, tensors=tensors)


# -- image features ----------------------------------------------------


def label_color(label: int) -> np.ndarray:
    """Deterministic flat RGB color for an entity label, in [0, 1]."""
    if label == 0:
        return np.zeros(3)
    mixed = (label * 2654435761) & 0xFFFFFFFF
    return np.array(
        [(mixed >> 16) & 0xFF, (mixed >> 8) & 0xFF, mixed & 0xFF], dtype=np.float64
    ) / 255.0


def resample_patch(image: np.ndarray, roi: tuple[int, int, int, int], size: int) -> np.ndarray:
    """Nearest-neighbour resample of an ROI (r0, r1, c0, c1) to size x size."""
    r0, r1, c0, c1 = roi
    if r1 <= r0 or c1 <= c0:
        raise InvalidRoi(f"empty roi {roi}")
    if r0 < 0 or c0 < 0 or r1 > image.shape[0] or c1 > image.shape[1]:
        raise InvalidRoi(f"roi {roi} outside image of shape {image.shape[:2]}")
    rows = r0 + ((np.arange(size) + 0.5) * (r1 - r0) / size).astype(np.int64)
    cols = c0 + ((np.arange(size) + 0.5) * (c1 - c0) / size).astype(np.int64)
    return image[np.ix_(rows, cols)]


class PatchImageFeatureProvider:
    """Built-in desk-scale image features: the entity ROI of the label mask
    is resampled to a small square patch, flat-colored, flattened, and
    pushed through the loadable image projection matrix.

    Coloring acts per pixel and so does nearest-neighbour resampling, so
    coloring only the resampled patch equals resampling a colored crop.
    """

    def __init__(self, weights: NetworkWeights):
        self.weights = weights

    def patch_vector(self, mask: np.ndarray, roi: tuple[int, int, int, int]) -> np.ndarray:
        patch = resample_patch(mask, roi, self.weights.config.patch_size)
        labels, inverse = np.unique(patch, return_inverse=True)
        colors = np.stack([label_color(int(lbl)) for lbl in labels])
        return colors[inverse.reshape(-1)].reshape(-1)

    def feature(self, mask: np.ndarray, roi: tuple[int, int, int, int]) -> np.ndarray:
        """Image feature of the ROI (r0, r1, c0, c1) of a label mask, as
        the label table gives it (:func:`graph_extract.mask_boxes`)."""
        return self.weights["image_proj.weight"].value @ self.patch_vector(mask, roi)


# -- multi-view aggregation --------------------------------------------


class MultiviewAccumulator:
    """Streaming mean of per-view features: mean += (x - mean) / (n + 1)."""

    def __init__(self, dim: int):
        self.mean = np.zeros(dim, dtype=np.float64)
        self.count = 0

    def add(self, view: np.ndarray) -> None:
        view = np.asarray(view, dtype=np.float64)
        self.mean = self.mean + (view - self.mean) / (self.count + 1)
        self.count += 1

    def value(self) -> np.ndarray:
        if self.count == 0:
            raise NoObservations("no views accumulated")
        return self.mean.copy()


# -- geometric descriptors ---------------------------------------------


def normalize_points(points: np.ndarray, obb: Obb) -> np.ndarray:
    """Center points at the box center and scale by the largest extent."""
    pts = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    return (pts - obb.center) / float(obb.dims.max())


def edge_geometry_rows(
    boxes: Sequence[Obb],
    point_sets: Sequence[np.ndarray],
    src,
    dst,
    gravity: GravityConfig = DEFAULT_GRAVITY,
    eps_div: float = EPS_DIV,
    eps_log: float = EPS_LOG,
) -> np.ndarray:
    """(E, 12) rows [center offset, extent difference, pose descriptor] of
    the directed edges ``src[e] -> dst[e]`` between boxed point sets.

    The pose descriptor holds six log-absolute ratios of the two entities'
    extrema in a pair frame.  The frame sits at the midpoint of the two box
    centers with y along up and x along the horizontal direction toward
    the second entity, which makes the descriptor invariant to global
    translation and rotation about up; ratios additionally cancel uniform
    scaling.  Divisors are clamped to sign-preserving magnitude >=
    ``eps_div``.
    """
    src = np.asarray(src, dtype=np.intp).reshape(-1)
    dst = np.asarray(dst, dtype=np.intp).reshape(-1)
    sets = [np.asarray(p, dtype=np.float64).reshape(-1, 3) for p in point_sets]
    sizes = np.array([len(p) for p in sets], dtype=np.intp)
    if np.any(sizes[src] == 0) or np.any(sizes[dst] == 0):
        raise EmptyPointSet("relative pose descriptor needs points on both sides")
    centers = np.array([box.center for box in boxes]).reshape(-1, 3)
    dims = np.array([box.dims for box in boxes]).reshape(-1, 3)
    offset = centers[dst] - centers[src]

    up = gravity.up
    x = offset - (offset @ up)[:, None] * up
    norm = np.linalg.norm(x, axis=1)
    stacked = norm < 1e-9
    if stacked.any():
        # Vertically stacked or coincident centers: fall back to a world
        # axis projected into the horizontal plane.
        for axis in (np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0])):
            fallback = axis - np.dot(axis, up) * up
            if np.linalg.norm(fallback) >= 1e-9:
                break
        x[stacked] = fallback
        norm[stacked] = np.linalg.norm(fallback)
    x = x / norm[:, None]
    frame = np.stack([x, np.broadcast_to(up, x.shape), np.cross(x, up)], axis=1)
    origin = 0.5 * (centers[src] + centers[dst])

    coords = np.concatenate([np.empty((0, 3)), *sets]).T.copy()
    first = np.cumsum(sizes) - sizes
    num = _frame_extrema(coords, first[src], sizes[src], origin, frame)
    den = _frame_extrema(coords, first[dst], sizes[dst], origin, frame)
    sign = np.where(den >= 0.0, 1.0, -1.0)
    den = sign * np.maximum(np.abs(den), eps_div)
    descriptor = np.log(np.abs(num / den) + eps_log)
    return np.concatenate([offset, dims[dst] - dims[src], descriptor], axis=1)


def _frame_extrema(
    coords: np.ndarray,
    first: np.ndarray,
    count: np.ndarray,
    origin: np.ndarray,
    frame: np.ndarray,
) -> np.ndarray:
    """(E, 6): per edge e, the maxima then minima of the points in columns
    ``first[e]`` to ``first[e] + count[e]`` of ``coords`` (3, P) along the
    three axes ``frame[e]`` (3, 3), measured from ``origin[e]``.

    The edges' points are laid end to end, one coordinate row at a time,
    and each axis is projected as a sum over those rows, so no per-point
    copy of a frame is made.
    """
    starts = np.cumsum(count) - count
    columns = np.repeat(first - starts, count)
    columns += np.arange(len(columns))
    rel = coords.take(columns, axis=1)
    del columns
    for c in range(3):
        rel[c] -= np.repeat(origin[:, c], count)
    out = np.empty((len(count), 6))
    for k in range(3):
        q = rel[0] * np.repeat(frame[:, k, 0], count)
        for c in (1, 2):
            q += rel[c] * np.repeat(frame[:, k, c], count)
        out[:, k] = np.maximum.reduceat(q, starts)
        out[:, k + 3] = np.minimum.reduceat(q, starts)
    return out


def rel_pose_descriptor(
    obb_i: Obb,
    obb_j: Obb,
    points_i: np.ndarray,
    points_j: np.ndarray,
    gravity: GravityConfig = DEFAULT_GRAVITY,
    eps_div: float = EPS_DIV,
    eps_log: float = EPS_LOG,
) -> np.ndarray:
    """The six-value pose descriptor of the one edge i -> j (see
    :func:`edge_geometry_rows`)."""
    rows = edge_geometry_rows(
        [obb_i, obb_j], [points_i, points_j], [0], [1], gravity, eps_div, eps_log
    )
    return rows[0, 6:]


# -- network blocks (differentiable) -----------------------------------


def _mlp2(x: Tensor, weights: NetworkWeights, prefix: str) -> Tensor:
    hidden = ad.relu(
        ad.linear(x, weights[f"{prefix}.0.weight"]) + weights[f"{prefix}.0.bias"]
    )
    return ad.linear(hidden, weights[f"{prefix}.1.weight"]) + weights[f"{prefix}.1.bias"]


def point_encoder(
    points: np.ndarray, point_node: np.ndarray, num_nodes: int, weights: NetworkWeights
) -> Tensor:
    """Shared per-point MLP over the (P, 3) points of all nodes, then a
    componentwise max over each node's points, giving (num_nodes, node_dim).
    ``point_node`` (P,) names the node of each point."""
    if np.any(np.bincount(point_node, minlength=num_nodes) == 0):
        raise EmptyPointSet("point encoder needs at least one point per node")
    per_point = _mlp2(Tensor(points), weights, "point_enc")
    return ad.segment_max(per_point, point_node, num_nodes)


def gated_fuse(v: Tensor, g: Tensor, gate_weight: Tensor) -> Tensor:
    """Add the sigmoided geometric feature, scaled by a learned scalar gate."""
    if gate_weight.value.shape != (v.value.shape[-1] + g.value.shape[-1],):
        raise ShapeError(
            f"gate weight length {gate_weight.value.shape} does not match inputs"
        )
    gate = ad.sigmoid(ad.linear(ad.concat([v, g]), gate_weight))
    return v + gate * ad.sigmoid(g)


def fan_attention(
    query: Tensor, key: Tensor, value_vec: Tensor, weights: NetworkWeights
) -> Tensor:
    """Feature-wise attention: softmax over feature components of an MLP on
    [query, key], multiplied into the transformed neighbour feature."""
    att = ad.softmax(_mlp2(ad.concat([query, key]), weights, "fan.att"))
    return att * ad.linear(value_vec, weights["fan.value.weight"])


def message_layer(
    vplus: Tensor,
    edge_feats: Tensor,
    src: np.ndarray,
    dst: np.ndarray,
    weights: NetworkWeights,
) -> tuple[Tensor, Tensor]:
    """Node (N, D) and edge (E, D) messages for one pass.

    Node context is the componentwise max of attention outputs over the
    node's outgoing edges; isolated nodes use a zero context vector.
    """
    v_src = ad.gather(vplus, src)
    v_dst = ad.gather(vplus, dst)
    fan = fan_attention(v_src, edge_feats, v_dst, weights)
    context = ad.segment_max(fan, src, len(vplus.value))
    node_msgs = _mlp2(ad.concat([vplus, context]), weights, "node_msg")
    edge_msgs = _mlp2(ad.concat([v_src, edge_feats, v_dst]), weights, "edge_msg")
    return node_msgs, edge_msgs


def gru_update(h: Tensor, x: Tensor, weights: NetworkWeights, cell: str) -> Tensor:
    """Standard GRU cell: the message is the input, the feature the hidden
    state.  One cell is shared by all nodes, another by all edges."""
    if h.value.shape != x.value.shape:
        raise ShapeError("GRU feature and message dims differ")
    w = weights
    r = ad.sigmoid(
        ad.linear(x, w[f"{cell}.w_r"]) + ad.linear(h, w[f"{cell}.u_r"]) + w[f"{cell}.b_r"]
    )
    z = ad.sigmoid(
        ad.linear(x, w[f"{cell}.w_z"]) + ad.linear(h, w[f"{cell}.u_z"]) + w[f"{cell}.b_z"]
    )
    n = ad.tanh(
        ad.linear(x, w[f"{cell}.w_n"])
        + r * ad.linear(h, w[f"{cell}.u_n"])
        + w[f"{cell}.b_n"]
    )
    return (1.0 - z) * n + z * h


# -- forward pass -------------------------------------------------------


@dataclass
class GraphInputs:
    """One prediction snapshot: (N, D) node features, normalized point sets,
    and directed edges: ``edges`` holds (E, 2) node-index pairs (an array
    or a list of pairs) and ``edge_geometry`` their (E, 12) rows.

    Construction also stacks them for the network: ``points`` (P, 3) holds
    every node's points in node order and ``point_node`` (P,) the node of
    each; ``src`` and ``dst`` (E,) are the endpoints of ``edges``.
    """

    node_labels: tuple[int, ...]
    node_points: list[np.ndarray]
    edges: np.ndarray | list[tuple[int, int]]
    edge_geometry: np.ndarray
    node_features: np.ndarray
    points: np.ndarray = field(init=False, repr=False)
    point_node: np.ndarray = field(init=False, repr=False)
    src: np.ndarray = field(init=False, repr=False)
    dst: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        n = len(self.node_labels)
        if len(self.node_points) != n or len(self.node_features) != n:
            raise ValueError("node_points and node_features must align with node_labels")
        self.edge_geometry = np.asarray(self.edge_geometry, dtype=np.float64).reshape(
            len(self.edges), EDGE_GEOMETRY_DIM
        )
        point_sets = [np.asarray(p, dtype=np.float64).reshape(-1, 3) for p in self.node_points]
        self.points = np.concatenate([np.empty((0, 3)), *point_sets])
        self.point_node = np.repeat(np.arange(n), [len(p) for p in point_sets])
        ends = np.asarray(self.edges, dtype=np.intp).reshape(len(self.edges), 2)
        outside = (ends < 0) | (ends >= n)
        if outside.any():
            bad = tuple(int(v) for v in ends[np.argmax(outside.any(axis=1))])
            raise ValueError(f"edge {bad} has an endpoint outside [0, {n})")
        self.src, self.dst = ends[:, 0], ends[:, 1]


@dataclass
class Prediction:
    """Per-node class distributions and per-edge predicate outputs."""

    node_labels: tuple[int, ...]
    edge_keys: tuple[tuple[int, int], ...]
    node_probs: np.ndarray
    edge_probs: np.ndarray
    mode: str


@dataclass
class ForwardResult:
    prediction: Prediction
    node_logits: Tensor
    edge_logits: Tensor


def forward(inputs: GraphInputs, weights: NetworkWeights) -> ForwardResult:
    """Run the full network on one graph snapshot, with the layer count and
    edge mode of ``weights.config``."""
    cfg = weights.config
    n = len(inputs.node_labels)

    v = Tensor(inputs.node_features)
    geo = point_encoder(inputs.points, inputs.point_node, n, weights)
    e = _mlp2(Tensor(inputs.edge_geometry), weights, "edge_mlp")

    for _ in range(cfg.layers):
        vplus = gated_fuse(v, geo, weights["gate.weight"])
        node_msgs, edge_msgs = message_layer(vplus, e, inputs.src, inputs.dst, weights)
        v = gru_update(vplus, node_msgs, weights, "node_gru")
        e = gru_update(e, edge_msgs, weights, "edge_gru")

    node_logits = ad.linear(v, weights["node_head.weight"]) + weights["node_head.bias"]
    edge_logits = ad.linear(e, weights["edge_head.weight"]) + weights["edge_head.bias"]

    if cfg.mode == SINGLE:
        edge_probs = ad.softmax(edge_logits).value
    else:
        edge_probs = ad.stable_sigmoid(edge_logits.value)
    labels = np.asarray(inputs.node_labels)
    prediction = Prediction(
        node_labels=tuple(inputs.node_labels),
        edge_keys=tuple(zip(labels[inputs.src].tolist(), labels[inputs.dst].tolist())),
        node_probs=ad.softmax(node_logits).value.reshape(n, cfg.num_node_classes),
        edge_probs=edge_probs.reshape(len(inputs.edges), cfg.num_edge_classes),
        mode=cfg.mode,
    )
    return ForwardResult(prediction=prediction, node_logits=node_logits, edge_logits=edge_logits)


# -- losses and training -----------------------------------------------


@dataclass
class GraphTargets:
    """Ground-truth classes for one graph: per-node class indices plus
    either per-edge class indices (single) or per-edge multi-hot rows."""

    node_classes: np.ndarray
    edge_classes: np.ndarray | None = None
    edge_onehot: np.ndarray | None = None


def _class_indices(values, count: int, num_classes: int, what: str) -> np.ndarray:
    """``values`` as ``count`` class indices in [0, num_classes)."""
    classes = np.asarray(values, dtype=np.int64)
    if classes.shape != (count,):
        raise InvalidLabel(
            f"{what} targets must be {count} class indices, got shape {classes.shape}"
        )
    if classes.size and (classes.min() < 0 or classes.max() >= num_classes):
        raise InvalidLabel(f"{what} class out of range [0, {num_classes})")
    return classes


def network_loss(
    inputs: GraphInputs, weights: NetworkWeights, targets: GraphTargets
) -> tuple[Tensor, Prediction]:
    """Mean node cross-entropy plus mean edge cross-entropy (single mode)
    or mean binary cross-entropy over predicates (multi mode), equally
    weighted and differentiable; the edge term is left out of a graph
    without edges.

    Raises :class:`InvalidLabel` unless there is one node class in range
    per node, and one edge class in range (single) or one multi-hot row
    (multi) per edge.
    """
    cfg = weights.config
    num_edges = len(inputs.edges)
    node_classes = _class_indices(
        targets.node_classes, len(inputs.node_labels), cfg.num_node_classes, "node"
    )
    if cfg.mode == SINGLE:
        edge_classes = _class_indices(
            targets.edge_classes, num_edges, cfg.num_edge_classes, "edge"
        )
    else:
        y = np.asarray(targets.edge_onehot, dtype=np.float64)
        if y.shape != (num_edges, cfg.num_edge_classes):
            raise InvalidLabel(
                f"multi-mode edge targets must have shape {(num_edges, cfg.num_edge_classes)}, "
                f"got {y.shape}"
            )
    result = forward(inputs, weights)

    picked = (np.arange(len(node_classes)), node_classes)
    total = -ad.mean_all(ad.gather(ad.log_softmax(result.node_logits), picked))
    if num_edges:
        if cfg.mode == SINGLE:
            picked = (np.arange(num_edges), edge_classes)
            total = total - ad.mean_all(ad.gather(ad.log_softmax(result.edge_logits), picked))
        else:
            p = ad.sigmoid(result.edge_logits)
            term = ad.log(p + BCE_EPS) * y + ad.log(1.0 - p + BCE_EPS) * (1.0 - y)
            total = total - ad.mean_all(term)
    return total, result.prediction


def toy_train(
    batch: list[tuple[GraphInputs, GraphTargets]],
    weights: NetworkWeights,
    steps: int,
    lr: float,
    record_every: int = 100,
) -> list[tuple[int, float]]:
    """Plain gradient descent on a small batch; weights update in place.

    Returns the loss trace sampled every ``record_every`` steps plus the
    final step.  Raises :class:`DivergenceError` on a non-finite loss.
    """
    trace: list[tuple[int, float]] = []
    for step in range(steps):
        weights.zero_grad()
        total: Tensor | None = None
        for inputs, targets in batch:
            item_loss, _ = network_loss(inputs, weights, targets)
            total = item_loss if total is None else total + item_loss
        total = total / float(len(batch))
        value = float(total.value)
        if not np.isfinite(value):
            raise DivergenceError(f"loss became non-finite at step {step}")
        if step % record_every == 0 or step == steps - 1:
            trace.append((step, value))
        if lr != 0.0:
            total.backward()
            for _, tensor in weights.parameters():
                if tensor.grad is not None:
                    tensor.value = tensor.value - lr * tensor.grad
    return trace
