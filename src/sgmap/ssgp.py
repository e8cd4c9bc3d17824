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
from dataclasses import dataclass, field, replace

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
    feature, so ``geo_dim`` must equal ``node_dim``.
    """

    node_dim: int = 32
    edge_dim: int = 32
    geo_dim: int = 32
    hidden_dim: int = 32
    num_node_classes: int = 4
    num_edge_classes: int = 3
    layers: int = 2
    mode: str = SINGLE
    patch_size: int = 8

    def __post_init__(self):
        if self.geo_dim != self.node_dim:
            raise ShapeError("geo_dim must equal node_dim for the gated addition")
        if self.mode not in (SINGLE, MULTI):
            raise ValueError(f"unknown mode {self.mode!r}")
        if min(self.node_dim, self.edge_dim, self.hidden_dim) < 1:
            raise ValueError("dims must be positive")

    @property
    def patch_dim(self) -> int:
        return 3 * self.patch_size * self.patch_size


def expected_shapes(config: NetworkConfig) -> dict[str, tuple[int, ...]]:
    dn, de, dg, h = config.node_dim, config.edge_dim, config.geo_dim, config.hidden_dim
    shapes: dict[str, tuple[int, ...]] = {
        "image_proj.weight": (dn, config.patch_dim),
        "point_enc.0.weight": (h, 3),
        "point_enc.0.bias": (h,),
        "point_enc.1.weight": (dg, h),
        "point_enc.1.bias": (dg,),
        "edge_mlp.0.weight": (h, EDGE_GEOMETRY_DIM),
        "edge_mlp.0.bias": (h,),
        "edge_mlp.1.weight": (de, h),
        "edge_mlp.1.bias": (de,),
        "gate.weight": (dn + dg,),
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

    def copy(self) -> "NetworkWeights":
        return NetworkWeights(
            config=self.config,
            tensors={k: ad.parameter(v.value.copy()) for k, v in self.tensors.items()},
        )


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


def colorize_mask(mask: np.ndarray) -> np.ndarray:
    """Flat-color RGB rendering of a label mask, values in [0, 1]."""
    out = np.zeros(mask.shape + (3,), dtype=np.float64)
    for lbl in np.unique(mask):
        if lbl == 0:
            continue
        out[mask == lbl] = label_color(int(lbl))
    return out


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


def label_roi(mask: np.ndarray, label: int) -> tuple[int, int, int, int]:
    rows, cols = np.nonzero(mask == label)
    if len(rows) == 0:
        raise InvalidRoi(f"label {label} has no pixels")
    return int(rows.min()), int(rows.max()) + 1, int(cols.min()), int(cols.max()) + 1


class PatchImageFeatureProvider:
    """Built-in desk-scale image features: the label mask is flat-colored,
    the entity ROI resampled to a small square patch, flattened, and pushed
    through the loadable image projection matrix."""

    def __init__(self, weights: NetworkWeights):
        self.weights = weights

    def patch_vector(self, mask: np.ndarray, label: int) -> np.ndarray:
        size = self.weights.config.patch_size
        r0, r1, c0, c1 = label_roi(mask, label)
        crop = colorize_mask(mask[r0:r1, c0:c1])
        patch = resample_patch(crop, (0, r1 - r0, 0, c1 - c0), size)
        return patch.reshape(-1)

    def feature(self, mask: np.ndarray, label: int) -> np.ndarray:
        return self.weights["image_proj.weight"].value @ self.patch_vector(mask, label)


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


def _pair_frame(
    center_i: np.ndarray,
    center_j: np.ndarray,
    gravity: GravityConfig,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    up = gravity.up
    origin = 0.5 * (center_i + center_j)
    dx = center_j - center_i
    x = dx - np.dot(dx, up) * up
    norm = np.linalg.norm(x)
    if norm < 1e-9:
        # Vertically stacked or coincident centers: fall back to a world
        # axis projected into the horizontal plane.
        for axis in (np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0])):
            x = axis - np.dot(axis, up) * up
            norm = np.linalg.norm(x)
            if norm >= 1e-9:
                break
    x = x / norm
    z = np.cross(x, up)
    return origin, x, up, z


def rel_pose_descriptor(
    obb_i: Obb,
    obb_j: Obb,
    points_i: np.ndarray,
    points_j: np.ndarray,
    gravity: GravityConfig = DEFAULT_GRAVITY,
    eps_div: float = EPS_DIV,
    eps_log: float = EPS_LOG,
) -> np.ndarray:
    """Six log-absolute ratios of the two entities' extrema in a pair frame.

    The frame sits at the midpoint of the two box centers with y along up
    and x along the horizontal direction toward the second entity, which
    makes the descriptor invariant to global translation and rotation
    about up; ratios additionally cancel uniform scaling.  Divisors are
    clamped to sign-preserving magnitude >= ``eps_div``.
    """
    pi = np.asarray(points_i, dtype=np.float64).reshape(-1, 3)
    pj = np.asarray(points_j, dtype=np.float64).reshape(-1, 3)
    if len(pi) == 0 or len(pj) == 0:
        raise EmptyPointSet("relative pose descriptor needs points on both sides")
    origin, x, y, z = _pair_frame(obb_i.center, obb_j.center, gravity)
    basis = np.stack([x, y, z], axis=1)
    qi = (pi - origin) @ basis
    qj = (pj - origin) @ basis
    num = np.concatenate([qi.max(axis=0), qi.min(axis=0)])
    den = np.concatenate([qj.max(axis=0), qj.min(axis=0)])
    sign = np.where(den >= 0.0, 1.0, -1.0)
    den = sign * np.maximum(np.abs(den), eps_div)
    return np.log(np.abs(num / den) + eps_log)


def edge_geometry_vector(obb_i: Obb, obb_j: Obb, descriptor: np.ndarray) -> np.ndarray:
    """Concatenated [center offset, extent difference, pose descriptor]."""
    vec = np.concatenate([obb_j.center - obb_i.center, obb_j.dims - obb_i.dims, descriptor])
    if vec.shape != (EDGE_GEOMETRY_DIM,):
        raise ShapeError(f"edge geometry vector has shape {vec.shape}")
    return vec


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
    componentwise max over each node's points, giving (num_nodes, geo_dim).
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
    """One prediction snapshot: per-node features (either projected vectors
    or raw patches), normalized point sets, and directed edge geometry.

    Construction also stacks them for the network: ``points`` (P, 3) holds
    every node's points in node order and ``point_node`` (P,) the node of
    each; ``src`` and ``dst`` (E,) are the endpoints of ``edges``.
    """

    node_labels: tuple[int, ...]
    node_points: list[np.ndarray]
    edges: list[tuple[int, int]]
    edge_geometry: np.ndarray
    node_features: np.ndarray | None = None
    node_patches: np.ndarray | None = None
    points: np.ndarray = field(init=False, repr=False)
    point_node: np.ndarray = field(init=False, repr=False)
    src: np.ndarray = field(init=False, repr=False)
    dst: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        n = len(self.node_labels)
        if (self.node_features is None) == (self.node_patches is None):
            raise ValueError("provide exactly one of node_features / node_patches")
        if len(self.node_points) != n:
            raise ValueError("node_points must align with node_labels")
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


def forward(
    inputs: GraphInputs,
    weights: NetworkWeights,
    layers: int | None = None,
    mode: str | None = None,
) -> ForwardResult:
    """Run the full network on one graph snapshot."""
    cfg = weights.config
    layers = cfg.layers if layers is None else layers
    mode = cfg.mode if mode is None else mode
    n = len(inputs.node_labels)

    if inputs.node_patches is not None:
        v = ad.linear(Tensor(inputs.node_patches), weights["image_proj.weight"])
    else:
        v = Tensor(inputs.node_features)
    geo = point_encoder(inputs.points, inputs.point_node, n, weights)
    e = _mlp2(Tensor(inputs.edge_geometry), weights, "edge_mlp")

    for _ in range(layers):
        vplus = gated_fuse(v, geo, weights["gate.weight"])
        node_msgs, edge_msgs = message_layer(vplus, e, inputs.src, inputs.dst, weights)
        v = gru_update(vplus, node_msgs, weights, "node_gru")
        e = gru_update(e, edge_msgs, weights, "edge_gru")

    node_logits = ad.linear(v, weights["node_head.weight"]) + weights["node_head.bias"]
    edge_logits = ad.linear(e, weights["edge_head.weight"]) + weights["edge_head.bias"]

    if mode == SINGLE:
        edge_probs = ad.softmax(edge_logits).value
    else:
        edge_probs = ad.stable_sigmoid(edge_logits.value)
    labels = np.asarray(inputs.node_labels)
    prediction = Prediction(
        node_labels=tuple(inputs.node_labels),
        edge_keys=tuple(zip(labels[inputs.src].tolist(), labels[inputs.dst].tolist())),
        node_probs=ad.softmax(node_logits).value.reshape(n, cfg.num_node_classes),
        edge_probs=edge_probs.reshape(len(inputs.edges), cfg.num_edge_classes),
        mode=mode,
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


def loss(pred: Prediction, targets: GraphTargets, mode: str | None = None) -> float:
    """Mean node cross-entropy plus mean edge cross-entropy (single) or
    mean binary cross-entropy over predicates (multi), equally weighted."""
    mode = pred.mode if mode is None else mode
    node_classes = np.asarray(targets.node_classes, dtype=np.int64)
    if len(node_classes) != len(pred.node_labels):
        raise InvalidLabel("node targets must cover every node")
    if node_classes.size and (
        node_classes.min() < 0 or node_classes.max() >= pred.node_probs.shape[1]
    ):
        raise InvalidLabel("node class out of range")
    total = 0.0
    if node_classes.size:
        picked = pred.node_probs[np.arange(len(node_classes)), node_classes]
        total += float(-np.log(picked).mean())
    if mode == SINGLE:
        edge_classes = np.asarray(targets.edge_classes, dtype=np.int64)
        if len(edge_classes) != len(pred.edge_keys):
            raise InvalidLabel("edge targets must cover every edge")
        if edge_classes.size:
            if edge_classes.min() < 0 or edge_classes.max() >= pred.edge_probs.shape[1]:
                raise InvalidLabel("edge class out of range")
            picked = pred.edge_probs[np.arange(len(edge_classes)), edge_classes]
            total += float(-np.log(picked).mean())
    else:
        onehot = np.asarray(targets.edge_onehot, dtype=np.float64)
        if onehot.shape != pred.edge_probs.shape:
            raise InvalidLabel("multi-mode edge targets must match edge probs shape")
        if onehot.size:
            p = pred.edge_probs
            bce = -(
                onehot * np.log(p + BCE_EPS) + (1.0 - onehot) * np.log(1.0 - p + BCE_EPS)
            )
            total += float(bce.mean())
    return total


def network_loss(
    inputs: GraphInputs,
    weights: NetworkWeights,
    targets: GraphTargets,
    layers: int | None = None,
    mode: str | None = None,
) -> tuple[Tensor, Prediction]:
    """Differentiable loss over one graph (same value as :func:`loss`)."""
    mode = weights.config.mode if mode is None else mode
    result = forward(inputs, weights, layers=layers, mode=mode)

    node_classes = np.asarray(targets.node_classes, dtype=np.int64)
    picked = (np.arange(len(node_classes)), node_classes)
    total = -ad.mean_all(ad.gather(ad.log_softmax(result.node_logits), picked))

    if len(inputs.edges):
        if mode == SINGLE:
            edge_classes = np.asarray(targets.edge_classes, dtype=np.int64)
            picked = (np.arange(len(edge_classes)), edge_classes)
            total = total - ad.mean_all(ad.gather(ad.log_softmax(result.edge_logits), picked))
        else:
            y = np.asarray(targets.edge_onehot, dtype=np.float64)
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
