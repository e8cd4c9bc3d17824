"""Independent straight-line reference implementations used by tests.

Everything here recomputes results with plain per-pixel, per-point or
per-node loops, deliberately avoiding the vectorized production paths.
"""

import math
import re
from pathlib import Path

import numpy as np
from scipy.spatial import ConvexHull, cKDTree

from sgmap import autodiff as ad
from sgmap import ssgp
from sgmap.entity_map import UNLABELED, AssociationStrategy, ReferenceRender
from sgmap.geometry import (
    DEFAULT_GRAVITY,
    HALF_PI,
    MIN_EXTENT,
    Obb,
    horizontal_basis,
    project_points,
)
from sgmap.seqio import SequenceFormatError


def overlap_stats_loops(img, ref_labels, ref_conf):
    """Per-pair overlap counts and confidence sums via a row-major double
    loop (sequential accumulation)."""
    counts = {}
    sums = {}
    img_totals = {}
    ref_totals = {}
    h, w = img.shape
    for r in range(h):
        for c in range(w):
            il = int(img[r, c])
            rl = int(ref_labels[r, c])
            if il != 0:
                img_totals[il] = img_totals.get(il, 0) + 1
            if rl != 0:
                ref_totals[rl] = ref_totals.get(rl, 0) + 1
            if il != 0 and rl != 0:
                key = (il, rl)
                counts[key] = counts.get(key, 0) + 1
                sums[key] = sums.get(key, 0.0) + float(ref_conf[r, c])
    return counts, sums, img_totals, ref_totals


def mean_confidence_loops(img_label, ref_label, img, ref_labels, ref_conf):
    counts, sums, _, _ = overlap_stats_loops(img, ref_labels, ref_conf)
    key = (img_label, ref_label)
    if key not in counts:
        return 0.0
    return sums[key] / counts[key]


def associate_loops(img, ref_labels, ref_conf, theta, strategy, next_label):
    """Greedy, one-to-one assignment recomputed step by step.

    Candidates must clear the coverage (or IoU) threshold strictly; input
    labels claim their best remaining candidate in descending order of
    best score, ties toward ascending label ids; exhausted labels mint
    fresh ids from ``next_label``.
    """
    counts, sums, img_totals, ref_totals = overlap_stats_loops(img, ref_labels, ref_conf)
    candidates = {}
    for il in sorted(img_totals):
        scored = []
        for rl in sorted(ref_totals):
            cnt = counts.get((il, rl), 0)
            if cnt == 0:
                continue
            if strategy is AssociationStrategy.IOU:
                score = cnt / (img_totals[il] + ref_totals[rl] - cnt)
                if score <= theta:
                    continue
            else:
                if cnt / ref_totals[rl] <= theta:
                    continue
                if strategy is AssociationStrategy.MEAN_CONFIDENCE:
                    score = sums[(il, rl)] / cnt
                else:
                    score = float(cnt)
            scored.append((score, rl))
        scored.sort(key=lambda t: (-t[0], t[1]))
        candidates[il] = scored

    order = sorted(
        candidates,
        key=lambda il: (
            -(candidates[il][0][0] if candidates[il] else -np.inf),
            il,
        ),
    )
    mapping = {}
    taken = set()
    fresh = next_label
    for il in order:
        chosen = None
        for _score, rl in candidates[il]:
            if rl not in taken:
                chosen = rl
                break
        if chosen is None:
            chosen = fresh
            fresh += 1
        taken.add(chosen)
        mapping[il] = chosen
    return mapping


def aos_loops(est_points, est_labels, gt_points, gt_instances):
    """Dominant-segment overlap score with explicit nearest-neighbour and
    counting loops."""
    groups = {}
    for p, lbl in zip(est_points, est_labels):
        best = None
        best_d = None
        for q, inst in zip(gt_points, gt_instances):
            d = float(np.sum((np.asarray(p) - np.asarray(q)) ** 2))
            if best_d is None or d < best_d:
                best_d = d
                best = int(inst)
        groups.setdefault(best, []).append(int(lbl))
    dominant = 0
    total = 0
    for members in groups.values():
        votes = {}
        for lbl in members:
            votes[lbl] = votes.get(lbl, 0) + 1
        dominant += max(votes.values())
        total += len(members)
    return dominant / total


def recall_suite_loops(node_top1, edge_top1, reps, gt_classes, gt_triplets, include_none=True):
    """Recall metrics recounted with explicit loops.

    node_top1: est label -> predicted class; edge_top1: (est, est) ->
    predicted predicate; reps: gt instance -> representative est label.
    """
    instances = sorted(gt_classes)
    node_hit = {}
    for inst in instances:
        lbl = reps.get(inst)
        node_hit[inst] = lbl is not None and node_top1.get(lbl) == gt_classes[inst]

    annotated = {(s, o): p for (s, p, o) in gt_triplets}
    if include_none:
        pairs = [(a, b) for a in instances for b in instances if a != b]
    else:
        pairs = sorted(annotated)

    pred_hits = []
    rel_hits = []
    for (a, b) in pairs:
        gt_p = annotated.get((a, b), 0)
        la, lb = reps.get(a), reps.get(b)
        predicted = edge_top1.get((la, lb), 0) if la is not None and lb is not None else 0
        hit = predicted == gt_p
        pred_hits.append((gt_p, hit))
        rel_hits.append(hit and node_hit[a] and node_hit[b])

    def frac(values):
        values = list(values)
        return sum(values) / len(values) if values else 1.0

    def class_mean(pairs_list):
        per = {}
        for cls, hit in pairs_list:
            per.setdefault(cls, []).append(hit)
        return (
            sum(frac(hits) for _, hits in sorted(per.items())) / len(per)
            if per
            else 1.0
        )

    return {
        "recall_rel": frac(rel_hits),
        "recall_obj": frac(node_hit.values()),
        "recall_pred": frac(h for _, h in pred_hits),
        "mrecall_obj": class_mean(
            (gt_classes[inst], node_hit[inst]) for inst in instances
        ),
        "mrecall_pred": class_mean(pred_hits),
    }


def random_mask_pair(rng, shape=(16, 16), img_labels=3, ref_labels=3):
    """Random label rasters plus a confidence raster for oracle tests."""
    img = rng.integers(0, img_labels + 1, size=shape)
    ref = rng.integers(0, ref_labels + 1, size=shape)
    conf = rng.uniform(0.05, 1.0, size=shape) * (ref != 0)
    return img, ref, conf


def consistent_mask_loops(img, mapping):
    """The consistent mask of an association, one full-mask comparison per
    input label."""
    consistent = np.zeros_like(img)
    for lbl, target in mapping.items():
        consistent[img == lbl] = target
    return consistent


# -- keyframe gate and label masks -------------------------------------------
#
# The gate tested the box sizes first, then looped over the stored poses;
# boxes, ROIs and the flat coloring each scanned the mask once per label.
# ``sgmap`` tests the pose first over stacked arrays, and reads boxes and
# ROIs from one label table.


def rotation_angle_deg_poses(a, b):
    trace = float(np.trace(a.rotation.T @ b.rotation))
    cos_angle = min(1.0, max(-1.0, 0.5 * (trace - 1.0)))
    return math.degrees(math.acos(cos_angle))


def pose_is_novel_loop(candidate, existing, rot_thresh_deg, trans_thresh_m, combine):
    """No pose in ``existing`` closer than both thresholds (either one, for
    ``combine="or"``), one pose at a time."""
    for pose in existing:
        rot_close = rotation_angle_deg_poses(candidate, pose) < rot_thresh_deg
        trans_close = (
            float(np.linalg.norm(candidate.translation - pose.translation)) < trans_thresh_m
        )
        too_similar = (rot_close and trans_close) if combine == "and" else (
            rot_close or trans_close
        )
        if too_similar:
            return False
    return True


def select_keyframe_loop(candidate, existing, sizes, rot_thresh_deg, trans_thresh_m,
                         min_box_px, combine):
    """Some (width, height) in ``sizes`` with its smaller side above
    ``min_box_px``, and a novel pose."""
    if not any(min(w, h) > min_box_px for (w, h) in sizes):
        return False
    return pose_is_novel_loop(candidate, existing, rot_thresh_deg, trans_thresh_m, combine)


def mask_boxes_loops(mask):
    """(width, height) of each nonzero label's pixel bbox."""
    boxes = {}
    for lbl in np.unique(mask):
        if lbl == UNLABELED:
            continue
        rows, cols = np.nonzero(mask == lbl)
        boxes[int(lbl)] = (int(cols.max() - cols.min() + 1), int(rows.max() - rows.min() + 1))
    return boxes


def label_roi(mask, label):
    """Half-open (r0, r1, c0, c1) bbox of one label's pixels."""
    rows, cols = np.nonzero(mask == label)
    if len(rows) == 0:
        raise ValueError(f"label {label} has no pixels")
    return int(rows.min()), int(rows.max()) + 1, int(cols.min()), int(cols.max()) + 1


def colorize_mask(mask):
    """Flat-color RGB rendering of a label mask, one comparison per label."""
    out = np.zeros(mask.shape + (3,), dtype=np.float64)
    for lbl in np.unique(mask):
        if lbl == 0:
            continue
        out[mask == lbl] = ssgp.label_color(int(lbl))
    return out


def patch_vector_full_crop(mask, label, size):
    """A label's patch vector made by coloring its whole ROI crop, then
    resampling the colored crop."""
    r0, r1, c0, c1 = label_roi(mask, label)
    crop = colorize_mask(mask[r0:r1, c0:c1])
    return ssgp.resample_patch(crop, (0, r1 - r0, 0, c1 - c0), size).reshape(-1)


# -- per-vector scene-graph network ------------------------------------------
#
# The scene-graph network computed one autodiff vector per node and per
# edge, with edges in a dict keyed by (i, j) and each node context a max
# over a Python list.  ``sgmap.ssgp`` computes it over stacked matrices;
# tests compare the two within a tolerance.


def _vec_matmul(a, b):
    """``a @ b`` for the rank pairings the network uses: matrix-vector,
    vector-vector and matrix-matrix."""
    av, bv = a.value, b.value
    out = ad.Tensor(av @ bv, parents=(a, b))

    def backward(grad):
        if a.requires_grad:
            if av.ndim == 1:
                a._accumulate(grad * bv)
            else:
                a._accumulate(np.outer(grad, bv) if bv.ndim == 1 else grad @ bv.T)
        if b.requires_grad:
            b._accumulate(grad * av if av.ndim == 1 else av.T @ grad)

    out._backward = backward
    return out


def _vec_transpose(t):
    out = ad.Tensor(t.value.T, parents=(t,))

    def backward(grad):
        if t.requires_grad:
            t._accumulate(grad.T)

    out._backward = backward
    return out


def _vec_stack_max(parts):
    """Componentwise max over equally shaped vectors; gradient to the first
    argmax on ties."""
    stacked = np.stack([p.value for p in parts])
    arg = stacked.argmax(axis=0)
    out = ad.Tensor(stacked.max(axis=0), parents=tuple(parts))

    def backward(grad):
        for idx, p in enumerate(parts):
            if p.requires_grad:
                p._accumulate(grad * (arg == idx))

    out._backward = backward
    return out


def _vec_max_axis0(a):
    arg = a.value.argmax(axis=0)
    out = ad.Tensor(a.value.max(axis=0), parents=(a,))

    def backward(grad):
        if a.requires_grad:
            ga = np.zeros_like(a.value)
            ga[arg, np.arange(a.value.shape[1])] = grad
            a._accumulate(ga)

    out._backward = backward
    return out


def _vec_mlp2(x, weights, prefix):
    hidden = ad.relu(
        _vec_matmul(weights[f"{prefix}.0.weight"], x) + weights[f"{prefix}.0.bias"]
    )
    return _vec_matmul(weights[f"{prefix}.1.weight"], hidden) + weights[f"{prefix}.1.bias"]


def _vec_point_encoder(points, weights):
    def per_point_linear(x, layer):
        wt = _vec_transpose(weights[f"{layer}.weight"])
        return _vec_matmul(x, wt) + weights[f"{layer}.bias"]

    x = ad.Tensor(np.asarray(points, dtype=np.float64).reshape(-1, 3))
    return _vec_max_axis0(per_point_linear(ad.relu(per_point_linear(x, "point_enc.0")), "point_enc.1"))


def _vec_gru(h, x, weights, cell):
    w = weights

    def gate(name):
        return _vec_matmul(w[f"{cell}.w_{name}"], x) + _vec_matmul(w[f"{cell}.u_{name}"], h)

    r = ad.sigmoid(gate("r") + w[f"{cell}.b_r"])
    z = ad.sigmoid(gate("z") + w[f"{cell}.b_z"])
    n = ad.tanh(
        _vec_matmul(w[f"{cell}.w_n"], x)
        + r * _vec_matmul(w[f"{cell}.u_n"], h)
        + w[f"{cell}.b_n"]
    )
    one = ad.Tensor(np.ones_like(z.value))
    return (one - z) * n + z * h


def forward_per_vector(inputs, weights):
    """Node probabilities, edge probabilities and the per-row logit tensors."""
    cfg = weights.config
    v = [ad.Tensor(f) for f in np.asarray(inputs.node_features, dtype=np.float64)]
    geo = [_vec_point_encoder(p, weights) for p in inputs.node_points]
    edge_feats = {
        key: _vec_mlp2(ad.Tensor(g), weights, "edge_mlp")
        for key, g in zip(inputs.edges, inputs.edge_geometry)
    }
    gate_w = weights["gate.weight"]
    for _ in range(cfg.layers):
        vplus = [
            v[i] + ad.sigmoid(_vec_matmul(gate_w, ad.concat([v[i], geo[i]]))) * ad.sigmoid(geo[i])
            for i in range(len(v))
        ]
        fan_out = {i: [] for i in range(len(v))}
        for (i, j) in inputs.edges:
            att = ad.softmax(
                _vec_mlp2(ad.concat([vplus[i], edge_feats[(i, j)]]), weights, "fan.att")
            )
            fan_out[i].append(att * _vec_matmul(weights["fan.value.weight"], vplus[j]))
        node_msgs = []
        for i in range(len(v)):
            if fan_out[i]:
                ctx = fan_out[i][0] if len(fan_out[i]) == 1 else _vec_stack_max(fan_out[i])
            else:
                ctx = ad.Tensor(np.zeros(cfg.node_dim))
            node_msgs.append(_vec_mlp2(ad.concat([vplus[i], ctx]), weights, "node_msg"))
        edge_msgs = {
            (i, j): _vec_mlp2(
                ad.concat([vplus[i], edge_feats[(i, j)], vplus[j]]), weights, "edge_msg"
            )
            for (i, j) in inputs.edges
        }
        v = [_vec_gru(vplus[i], node_msgs[i], weights, "node_gru") for i in range(len(v))]
        edge_feats = {
            key: _vec_gru(edge_feats[key], edge_msgs[key], weights, "edge_gru")
            for key in edge_feats
        }
    node_logits = [
        _vec_matmul(weights["node_head.weight"], vi) + weights["node_head.bias"] for vi in v
    ]
    edge_logits = [
        _vec_matmul(weights["edge_head.weight"], edge_feats[key]) + weights["edge_head.bias"]
        for key in inputs.edges
    ]
    node_probs = np.array([ad.softmax(t).value for t in node_logits])
    if cfg.mode == ssgp.SINGLE:
        edge_probs = [ad.softmax(t).value for t in edge_logits]
    else:
        edge_probs = [ad.stable_sigmoid(t.value) for t in edge_logits]
    edge_probs = np.array(edge_probs).reshape(len(inputs.edges), cfg.num_edge_classes)
    return node_probs, edge_probs, node_logits, edge_logits


def network_loss_per_vector(inputs, weights, targets):
    """The differentiable loss, summed one row at a time."""
    mode = weights.config.mode
    _, _, node_logits, edge_logits = forward_per_vector(inputs, weights)

    def mean(terms):
        acc = terms[0]
        for t in terms[1:]:
            acc = acc + t
        return acc / float(len(terms))

    total = mean([
        -ad.gather(ad.log_softmax(logits), int(cls))
        for logits, cls in zip(node_logits, targets.node_classes)
    ])
    if edge_logits and mode == ssgp.SINGLE:
        total = total + mean([
            -ad.gather(ad.log_softmax(logits), int(cls))
            for logits, cls in zip(edge_logits, targets.edge_classes)
        ])
    elif edge_logits:
        rows = []
        for logits, target in zip(edge_logits, np.asarray(targets.edge_onehot, dtype=float)):
            p = ad.sigmoid(logits)
            y = ad.Tensor(target)
            one = ad.Tensor(np.ones_like(target))
            eps = ad.Tensor(np.full_like(target, ssgp.BCE_EPS))
            rows.append(-ad.mean_all(y * ad.log(p + eps) + (one - y) * ad.log(one - p + eps)))
        total = total + mean(rows)
    return total


def prediction_loss(pred, targets):
    """The network loss recomputed in numpy from a prediction's
    probabilities: mean node cross-entropy plus mean edge cross-entropy
    (single) or mean binary cross-entropy over predicates (multi)."""
    node_classes = np.asarray(targets.node_classes, dtype=np.int64)
    total = float(-np.log(pred.node_probs[np.arange(len(node_classes)), node_classes]).mean())
    if not len(pred.edge_keys):
        return total
    if pred.mode == ssgp.SINGLE:
        edge_classes = np.asarray(targets.edge_classes, dtype=np.int64)
        picked = pred.edge_probs[np.arange(len(edge_classes)), edge_classes]
        return total + float(-np.log(picked).mean())
    y = np.asarray(targets.edge_onehot, dtype=np.float64)
    p = pred.edge_probs
    bce = -(y * np.log(p + ssgp.BCE_EPS) + (1.0 - y) * np.log(1.0 - p + ssgp.BCE_EPS))
    return total + float(bce.mean())


# -- keyframe path: render, outlier filter, box fit ---------------------------


def render_reference_splat(pmap, pose, intrinsics, splat_radius):
    """Reference render painting one candidate per splat offset: every
    labeled visible point proposes itself at each of the (2r+1)^2 pixels
    around its centre; a pixel keeps the least depth, then the least id."""
    h, w = intrinsics.height, intrinsics.width
    ref_labels = np.zeros((h, w), dtype=np.int64)
    ref_conf = np.zeros((h, w), dtype=np.float64)
    if len(pmap) == 0:
        empty = np.empty(0, dtype=np.int64)
        return ReferenceRender(ref_labels, ref_conf, empty, empty.copy(), empty.copy())
    uv, depth, visible = project_points(pmap.positions, pose, intrinsics)
    vis_rows = np.floor(uv[visible, 1]).astype(np.int64)
    vis_cols = np.floor(uv[visible, 0]).astype(np.int64)
    vis_ids = pmap.ids[visible]
    vis_labels = pmap.labels[visible]
    labeled = vis_labels != UNLABELED
    if labeled.any():
        rows0 = vis_rows[labeled]
        cols0 = vis_cols[labeled]
        ids0 = vis_ids[labeled]
        labels0 = vis_labels[labeled]
        weights0 = pmap.weights[visible][labeled]
        depth0 = depth[visible][labeled]
        offsets = range(-splat_radius, splat_radius + 1)
        cand_flat = []
        cand_src = []
        for dr in offsets:
            for dc in offsets:
                rr = rows0 + dr
                cc = cols0 + dc
                ok = (rr >= 0) & (rr < h) & (cc >= 0) & (cc < w)
                cand_flat.append(rr[ok] * w + cc[ok])
                cand_src.append(np.nonzero(ok)[0])
        flat = np.concatenate(cand_flat)
        src = np.concatenate(cand_src)
        depth_buf = np.full(h * w, np.inf)
        np.minimum.at(depth_buf, flat, depth0[src])
        on_min = depth0[src] == depth_buf[flat]
        id_buf = np.full(h * w, np.iinfo(np.int64).max, dtype=np.int64)
        np.minimum.at(id_buf, flat[on_min], ids0[src[on_min]])
        winner = on_min.copy()
        winner[on_min] = ids0[src[on_min]] == id_buf[flat[on_min]]
        wf = flat[winner]
        ws = src[winner]
        ref_labels.reshape(-1)[wf] = labels0[ws]
        ref_conf.reshape(-1)[wf] = weights0[ws]
    return ReferenceRender(
        ref_labels=ref_labels,
        ref_conf=ref_conf,
        visible_points=np.flatnonzero(visible),
        visible_rows=vis_rows,
        visible_cols=vis_cols,
    )


def render_instance_mask_offsets(scene, pose, intrinsics):
    """Reference synth mask painting one candidate per splat offset: every
    visible point proposes itself at each pixel of its own (2r+1)^2 splat,
    one radius group at a time; a pixel keeps the least depth, then the
    least scene index, over all groups."""
    h, w = intrinsics.height, intrinsics.width
    mask = np.zeros((h, w), dtype=np.int64)
    uv, depth, visible = project_points(scene.positions, pose, intrinsics)
    if not visible.any():
        return mask
    rows = np.floor(uv[visible, 1]).astype(np.int64)
    cols = np.floor(uv[visible, 0]).astype(np.int64)
    inst = scene.instances[visible]
    dep = depth[visible]
    splat = scene.mask_splats[visible]
    flats = []
    sources = []
    for radius in np.unique(splat):
        sel = np.nonzero(splat == radius)[0]
        for dr in range(-radius, radius + 1):
            for dc in range(-radius, radius + 1):
                rr = rows[sel] + dr
                cc = cols[sel] + dc
                ok = (rr >= 0) & (rr < h) & (cc >= 0) & (cc < w)
                flats.append(rr[ok] * w + cc[ok])
                sources.append(sel[ok])
    flat = np.concatenate(flats)
    src = np.concatenate(sources)
    depth_buf = np.full(h * w, np.inf)
    np.minimum.at(depth_buf, flat, dep[src])
    on_min = dep[src] == depth_buf[flat]
    none = np.iinfo(np.int64).max
    low = np.full(h * w, none, dtype=np.int64)
    np.minimum.at(low, flat[on_min], src[on_min])
    pixels = np.nonzero(low != none)[0]
    mask.reshape(-1)[pixels] = inst[low[pixels]]
    return mask


def outlier_mask_fresh(points, mean_k, std_ratio):
    """Statistical outlier removal from one full cKDTree query."""
    pts = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    if len(pts) <= mean_k:
        return np.ones(len(pts), dtype=bool)
    dists, _ = cKDTree(pts).query(pts, k=mean_k + 1)
    mean_dists = dists[:, 1:].mean(axis=1)
    threshold = mean_dists.mean() + std_ratio * mean_dists.std()
    return mean_dists <= threshold


def fit_obb_per_angle(points, gravity):
    """Gravity-aligned box fit trying one hull edge angle at a time and
    keeping the first strictly smaller rectangle area."""
    pts = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    h1, h2 = horizontal_basis(gravity)
    up = gravity.up
    xy = pts @ np.stack([h1, h2], axis=1)
    z = pts @ up
    hp = xy[ConvexHull(xy).vertices]
    edges = np.roll(hp, -1, axis=0) - hp
    angles = np.unique(np.mod(np.arctan2(edges[:, 1], edges[:, 0]), HALF_PI))
    best = None
    for ang in angles:
        c, s = math.cos(ang), math.sin(ang)
        u = hp[:, 0] * c + hp[:, 1] * s
        v = -hp[:, 0] * s + hp[:, 1] * c
        area = (u.max() - u.min()) * (v.max() - v.min())
        if best is None or area < best[0]:
            best = (area, ang, u.min(), u.max(), v.min(), v.max())
    _, ang, umin, umax, vmin, vmax = best
    c, s = math.cos(ang), math.sin(ang)
    cu = 0.5 * (umin + umax)
    cv = 0.5 * (vmin + vmax)
    center = (cu * c - cv * s) * h1 + (cu * s + cv * c) * h2 + 0.5 * (z.min() + z.max()) * up
    dims = np.array(
        [
            max(umax - umin, MIN_EXTENT),
            max(vmax - vmin, MIN_EXTENT),
            max(z.max() - z.min(), MIN_EXTENT),
        ]
    )
    return Obb(center=center, dims=dims, yaw=ang)


def _horizontal_corners(box, margin, gravity):
    """Corners (4, 2) of the margin-inflated horizontal rectangle, in the
    horizontal basis."""
    h1, h2 = horizontal_basis(gravity)
    c2 = np.array([np.dot(box.center, h1), np.dot(box.center, h2)])
    ca, sa = math.cos(box.yaw), math.sin(box.yaw)
    ax_u = np.array([ca, sa])
    ax_v = np.array([-sa, ca])
    hu = 0.5 * box.dims[0] + margin
    hv = 0.5 * box.dims[1] + margin
    return np.array(
        [
            c2 + hu * ax_u + hv * ax_v,
            c2 + hu * ax_u - hv * ax_v,
            c2 - hu * ax_u + hv * ax_v,
            c2 - hu * ax_u - hv * ax_v,
        ]
    )


def obb_collide_pairwise(a, b, margin, gravity):
    """Separating-axis test of one pair of gravity-aligned boxes: a vertical
    interval check, then the four edge directions of the two horizontal
    rectangles one at a time."""
    up = gravity.up
    za = float(np.dot(a.center, up))
    zb = float(np.dot(b.center, up))
    if abs(za - zb) > 0.5 * (a.dims[2] + b.dims[2]) + 2.0 * margin:
        return False
    ca = _horizontal_corners(a, margin, gravity)
    cb = _horizontal_corners(b, margin, gravity)
    for yaw in (a.yaw, b.yaw):
        c, s = math.cos(yaw), math.sin(yaw)
        for axis in (np.array([c, s]), np.array([-s, c])):
            pa = ca @ axis
            pb = cb @ axis
            if pa.max() < pb.min() or pb.max() < pa.min():
                return False
    return True


def obb_contains(box, points, tol=1e-9, gravity=DEFAULT_GRAVITY):
    """True when every point lies inside ``box`` within ``tol`` slack."""
    pts = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    h1, h2 = horizontal_basis(gravity)
    rel = pts - box.center
    x = rel @ h1
    y = rel @ h2
    z = rel @ gravity.up
    c, s = math.cos(box.yaw), math.sin(box.yaw)
    u = x * c + y * s
    v = -x * s + y * c
    half = 0.5 * box.dims
    return bool(
        np.all(np.abs(u) <= half[0] + tol)
        and np.all(np.abs(v) <= half[1] + tol)
        and np.all(np.abs(z) <= half[2] + tol)
    )


# -- exports ---------------------------------------------------------------

_DOT_NODE = re.compile(r'^\s*n(\d+) \[label="([^"]*)"\];$')
_DOT_EDGE = re.compile(r'^\s*n(\d+) -> n(\d+) \[label="([^"]*)"\];$')


def read_dot(path):
    """Nodes and edges of a graph written by ``seqio.write_dot``."""
    nodes = []
    edges = []
    lines = Path(path).read_text().splitlines()
    if not lines or lines[0] != "digraph scene {" or lines[-1] != "}":
        raise SequenceFormatError(f"{path}: not a scene DOT file")
    for lineno, line in enumerate(lines[1:-1], start=2):
        edge = _DOT_EDGE.match(line)
        if edge:
            edges.append((int(edge.group(1)), int(edge.group(2)), edge.group(3)))
            continue
        node = _DOT_NODE.match(line)
        if node:
            nodes.append((int(node.group(1)), node.group(2)))
            continue
        raise SequenceFormatError(f"{path}:{lineno}: unrecognized line")
    return nodes, edges
