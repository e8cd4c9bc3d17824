import math

import numpy as np
import pytest

from oracles import forward_per_vector, network_loss_per_vector
from sgmap import autodiff as ad
from sgmap import ssgp
from sgmap.autodiff import Tensor
from sgmap.errors import (
    EmptyPointSet,
    InvalidLabel,
    InvalidRoi,
    NoObservations,
    ShapeError,
)
from sgmap.geometry import GravityConfig, Obb, rotation_about_axis

CFG = ssgp.NetworkConfig(
    node_dim=4,
    edge_dim=4,
    geo_dim=4,
    hidden_dim=4,
    num_node_classes=3,
    num_edge_classes=3,
    layers=2,
    patch_size=2,
)


def make_weights(seed=1, cfg=CFG):
    return ssgp.init_weights(cfg, seed=seed)


def zero_weights(cfg=CFG):
    w = ssgp.init_weights(cfg, seed=0)
    for t in w.tensors.values():
        t.value = np.zeros_like(t.value)
    return w


def make_graph(seed=3, cfg=CFG, n_nodes=3, edges=((0, 1), (1, 0), (1, 2), (2, 1))):
    rng = np.random.default_rng(seed)
    return ssgp.GraphInputs(
        node_labels=tuple(range(10, 10 + n_nodes)),
        node_points=[rng.normal(size=(5, 3)) for _ in range(n_nodes)],
        edges=list(edges),
        edge_geometry=rng.normal(size=(len(edges), 12)),
        node_patches=rng.normal(size=(n_nodes, cfg.patch_dim)),
    )


def make_targets(inputs, rng=None):
    rng = rng or np.random.default_rng(0)
    return ssgp.GraphTargets(
        node_classes=rng.integers(0, CFG.num_node_classes, size=len(inputs.node_labels)),
        edge_classes=rng.integers(0, CFG.num_edge_classes, size=len(inputs.edges)),
    )


def clutter_graph(seed=21, cfg=ssgp.NetworkConfig()):
    """17 nodes, 270 directed edges and about 3.4k points: the graph size of
    the benchmark's clutter scene, at the pipeline's network dimensions."""
    rng = np.random.default_rng(seed)
    n = 17
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    edges = [pairs[k] for k in np.sort(rng.choice(len(pairs), 270, replace=False))]
    return ssgp.GraphInputs(
        node_labels=tuple(range(1, n + 1)),
        node_points=[rng.normal(size=(int(rng.integers(150, 250)), 3)) for _ in range(n)],
        edges=edges,
        edge_geometry=rng.normal(size=(len(edges), 12)),
        node_features=rng.normal(size=(n, cfg.node_dim)),
    )


def permute_nodes(inputs, perm):
    """The same graph with node ``perm[k]`` stored as node ``k``."""
    inv = {old: new for new, old in enumerate(perm)}
    features, patches = inputs.node_features, inputs.node_patches
    return ssgp.GraphInputs(
        node_labels=tuple(inputs.node_labels[i] for i in perm),
        node_points=[inputs.node_points[i] for i in perm],
        edges=[(inv[i], inv[j]) for (i, j) in inputs.edges],
        edge_geometry=inputs.edge_geometry,
        node_features=None if features is None else features[perm],
        node_patches=None if patches is None else patches[perm],
    )


class TestImageFeatures:
    def mask(self):
        m = np.zeros((20, 30), dtype=np.int64)
        m[4:14, 5:25] = 6
        return m

    def test_zero_projection_matrix_gives_zero(self):
        w = zero_weights()
        provider = ssgp.PatchImageFeatureProvider(w)
        np.testing.assert_array_equal(provider.feature(self.mask(), 6), np.zeros(4))

    def test_feature_is_linear_in_projection(self):
        w = make_weights()
        provider = ssgp.PatchImageFeatureProvider(w)
        base = provider.feature(self.mask(), 6)
        w["image_proj.weight"].value *= 2.0
        np.testing.assert_allclose(provider.feature(self.mask(), 6), 2.0 * base)

    def test_constant_roi_gives_patch_of_constant_color(self):
        w = make_weights()
        provider = ssgp.PatchImageFeatureProvider(w)
        patch = provider.patch_vector(self.mask(), 6)
        color = ssgp.label_color(6)
        np.testing.assert_allclose(patch.reshape(-1, 3), np.tile(color, (4, 1)))

    def test_empty_roi_raises(self):
        w = make_weights()
        provider = ssgp.PatchImageFeatureProvider(w)
        with pytest.raises(InvalidRoi):
            provider.feature(self.mask(), 9)


class TestMultiview:
    def test_streamed_equals_batch(self):
        rng = np.random.default_rng(2)
        views = rng.normal(size=(20, 6))
        acc = ssgp.MultiviewAccumulator(6)
        for v in views:
            acc.add(v)
        np.testing.assert_allclose(acc.value(), views.mean(axis=0), atol=1e-5)

    def test_zero_views_raise(self):
        with pytest.raises(NoObservations):
            ssgp.MultiviewAccumulator(4).value()


def encode_one(pts, w):
    """The point encoder on a single node's points."""
    return ssgp.point_encoder(pts, np.zeros(len(pts), dtype=np.intp), 1, w).value[0]


class TestPointEncoder:
    def test_permutation_invariant(self):
        rng = np.random.default_rng(4)
        pts = rng.normal(size=(12, 3))
        w = make_weights()
        base = encode_one(pts, w)
        perm = rng.permutation(12)
        np.testing.assert_array_equal(encode_one(pts[perm], w), base)

    def test_single_point_equals_mlp(self):
        rng = np.random.default_rng(5)
        p = rng.normal(size=(1, 3))
        w = make_weights()
        h = np.maximum(w["point_enc.0.weight"].value @ p[0] + w["point_enc.0.bias"].value, 0)
        expected = w["point_enc.1.weight"].value @ h + w["point_enc.1.bias"].value
        np.testing.assert_allclose(encode_one(p, w), expected)

    def test_duplication_invariant(self):
        rng = np.random.default_rng(6)
        pts = rng.normal(size=(7, 3))
        w = make_weights()
        base = encode_one(pts, w)
        doubled = np.vstack([pts, pts])
        np.testing.assert_array_equal(encode_one(doubled, w), base)

    def test_empty_raises(self):
        with pytest.raises(EmptyPointSet):
            encode_one(np.empty((0, 3)), make_weights())
        with pytest.raises(EmptyPointSet):
            ssgp.point_encoder(np.ones((2, 3)), np.array([0, 2]), 3, make_weights())


def reference_pair_frame(ci, cj, up):
    """Straight-line reimplementation of the pair frame and extrema ratios."""
    origin = (ci + cj) / 2.0
    dx = cj - ci
    x = dx - np.dot(dx, up) * up
    if np.linalg.norm(x) < 1e-9:
        x = np.array([1.0, 0.0, 0.0]) - np.dot(np.array([1.0, 0.0, 0.0]), up) * up
        if np.linalg.norm(x) < 1e-9:
            x = np.array([0.0, 1.0, 0.0]) - np.dot(np.array([0.0, 1.0, 0.0]), up) * up
    x = x / np.linalg.norm(x)
    z = np.cross(x, up)
    return origin, x, up, z


def reference_descriptor(obb_i, obb_j, pts_i, pts_j, up=np.array([0.0, 0.0, 1.0])):
    origin, x, y, z = reference_pair_frame(obb_i.center, obb_j.center, up)
    def coords(pts):
        rel = pts - origin
        return np.stack([rel @ x, rel @ y, rel @ z], axis=1)
    qi, qj = coords(pts_i), coords(pts_j)
    num = np.concatenate([qi.max(axis=0), qi.min(axis=0)])
    den = np.concatenate([qj.max(axis=0), qj.min(axis=0)])
    den = np.where(den >= 0, np.maximum(np.abs(den), 1e-6), -np.maximum(np.abs(den), 1e-6))
    return np.log(np.abs(num / den) + 1e-12)


class TestRelPoseDescriptor:
    def random_pair(self, seed):
        rng = np.random.default_rng(seed)
        pts_i = rng.normal(size=(15, 3)) + rng.uniform(-2, 2, size=3)
        pts_j = rng.normal(size=(15, 3)) + rng.uniform(-2, 2, size=3)
        return ssgp.rel_pose_descriptor, Obb(pts_i.mean(0), [1, 1, 1], 0.0), Obb(
            pts_j.mean(0), [1, 1, 1], 0.0
        ), pts_i, pts_j

    def test_identical_point_sets_zero(self):
        rng = np.random.default_rng(1)
        pts = rng.normal(size=(10, 3))
        box = Obb(pts.mean(0), [1, 1, 1], 0.0)
        desc = ssgp.rel_pose_descriptor(box, box, pts, pts)
        assert np.all(np.abs(desc) < 1e-9)

    def test_translation_invariant(self):
        fn, bi, bj, pi, pj = self.random_pair(7)
        base = fn(bi, bj, pi, pj)
        t = np.array([5.0, -3.0, 2.0])
        moved = fn(
            Obb(bi.center + t, bi.dims, bi.yaw),
            Obb(bj.center + t, bj.dims, bj.yaw),
            pi + t,
            pj + t,
        )
        np.testing.assert_allclose(moved, base, atol=1e-9)

    def test_rotation_about_up_invariant(self):
        fn, bi, bj, pi, pj = self.random_pair(8)
        base = fn(bi, bj, pi, pj)
        rot = rotation_about_axis(np.array([0.0, 0.0, 1.0]), 1.1)
        turned = fn(
            Obb(rot @ bi.center, bi.dims, bi.yaw),
            Obb(rot @ bj.center, bj.dims, bj.yaw),
            pi @ rot.T,
            pj @ rot.T,
        )
        np.testing.assert_allclose(turned, base, atol=1e-6)

    def test_uniform_scale_invariant(self):
        fn, bi, bj, pi, pj = self.random_pair(9)
        base = fn(bi, bj, pi, pj)
        s = 3.7
        scaled = fn(
            Obb(s * bi.center, s * bi.dims, bi.yaw),
            Obb(s * bj.center, s * bj.dims, bj.yaw),
            s * pi,
            s * pj,
        )
        np.testing.assert_allclose(scaled, base, atol=1e-6)

    def test_matches_reference_reimplementation(self):
        for seed in range(5):
            fn, bi, bj, pi, pj = self.random_pair(100 + seed)
            np.testing.assert_allclose(
                fn(bi, bj, pi, pj), reference_descriptor(bi, bj, pi, pj), atol=1e-12
            )

    def test_vertical_pair_uses_fallback_frame(self):
        rng = np.random.default_rng(11)
        pi = rng.normal(size=(8, 3))
        pj = rng.normal(size=(8, 3)) + [0, 0, 2.0]
        bi = Obb([0.0, 0.0, 0.0], [1, 1, 1], 0.0)
        bj = Obb([0.0, 0.0, 2.0], [1, 1, 1], 0.0)
        desc = ssgp.rel_pose_descriptor(bi, bj, pi, pj)
        assert np.all(np.isfinite(desc))
        np.testing.assert_allclose(desc, reference_descriptor(bi, bj, pi, pj), atol=1e-12)

    def test_empty_points_raise(self):
        b = Obb([0, 0, 0], [1, 1, 1], 0.0)
        with pytest.raises(EmptyPointSet):
            ssgp.rel_pose_descriptor(b, b, np.empty((0, 3)), np.ones((2, 3)))


class TestEdgeFeature:
    def test_geometry_vector_assembly(self):
        bi = Obb([1.0, 2.0, 3.0], [1.0, 2.0, 1.5], 0.0)
        bj = Obb([2.0, 1.0, 3.5], [2.0, 1.0, 0.5], 0.0)
        desc = np.arange(6.0)
        vec = ssgp.edge_geometry_vector(bi, bj, desc)
        expected = np.concatenate([bj.center - bi.center, bj.dims - bi.dims, desc])
        np.testing.assert_array_equal(vec, expected)

    def test_zero_mlp_gives_zero(self):
        w = zero_weights()
        out = ssgp._mlp2(Tensor(np.ones(12)), w, "edge_mlp")
        np.testing.assert_array_equal(out.value, np.zeros(4))

    def test_colocated_nodes_reduce_to_bias_path(self):
        w = make_weights()
        rng = np.random.default_rng(3)
        pts = rng.normal(size=(6, 3))
        box = Obb(pts.mean(0), [1, 1, 1], 0.0)
        desc = ssgp.rel_pose_descriptor(box, box, pts, pts)
        vec = ssgp.edge_geometry_vector(box, box, desc)
        np.testing.assert_allclose(vec, np.zeros(12), atol=1e-9)
        out = ssgp._mlp2(Tensor(vec), w, "edge_mlp")
        h = np.maximum(
            w["edge_mlp.0.weight"].value @ vec + w["edge_mlp.0.bias"].value, 0
        )
        expected = w["edge_mlp.1.weight"].value @ h + w["edge_mlp.1.bias"].value
        np.testing.assert_allclose(out.value, expected, atol=1e-12)


class TestGatedFuse:
    def test_zero_gate_zero_geometry(self):
        w = zero_weights()
        v = Tensor(np.array([1.0, -2.0, 0.5, 3.0]))
        g = Tensor(np.zeros(4))
        out = ssgp.gated_fuse(v, g, w["gate.weight"])
        np.testing.assert_allclose(out.value, v.value + 0.25)

    def test_large_negative_gate_closes(self):
        w = make_weights()
        w["gate.weight"].value = np.full(8, -50.0)
        v = Tensor(np.ones(4))
        g = Tensor(np.ones(4))
        out = ssgp.gated_fuse(v, g, w["gate.weight"])
        np.testing.assert_allclose(out.value, v.value, atol=1e-12)

    def test_increment_strictly_inside_unit_interval(self):
        rng = np.random.default_rng(5)
        w = make_weights()
        for _ in range(50):
            v = Tensor(rng.normal(size=4))
            g = Tensor(rng.normal(size=4))
            inc = ssgp.gated_fuse(v, g, w["gate.weight"]).value - v.value
            assert np.all(inc > 0.0)
            assert np.all(inc < 1.0)

    def test_dim_mismatch(self):
        w = make_weights()
        with pytest.raises(ShapeError):
            ssgp.gated_fuse(Tensor(np.ones(3)), Tensor(np.ones(4)), w["gate.weight"])


class TestFanAttention:
    def test_attention_sums_to_one(self):
        rng = np.random.default_rng(6)
        w = make_weights()
        for _ in range(20):
            att = ad.softmax(
                ssgp._mlp2(Tensor(rng.normal(size=8)), w, "fan.att")
            ).value
            assert att.sum() == pytest.approx(1.0, abs=1e-6)

    def test_identity_value_uniform_attention(self):
        w = zero_weights()
        w["fan.value.weight"].value = np.eye(4)
        v_j = Tensor(np.array([4.0, 8.0, -2.0, 0.0]))
        out = ssgp.fan_attention(Tensor(np.zeros(4)), Tensor(np.zeros(4)), v_j, w)
        np.testing.assert_allclose(out.value, v_j.value / 4.0)

    def test_matches_scalar_reference(self):
        rng = np.random.default_rng(7)
        w = make_weights()
        q = rng.normal(size=4)
        k = rng.normal(size=4)
        v = rng.normal(size=4)
        out = ssgp.fan_attention(Tensor(q), Tensor(k), Tensor(v), w).value

        qk = np.concatenate([q, k])
        h = np.maximum(w["fan.att.0.weight"].value @ qk + w["fan.att.0.bias"].value, 0)
        logits = w["fan.att.1.weight"].value @ h + w["fan.att.1.bias"].value
        e = np.exp(logits - logits.max())
        att = e / e.sum()
        transformed = w["fan.value.weight"].value @ v
        expected = np.array(
            [att[i] * transformed[i] for i in range(4)]
        )
        np.testing.assert_allclose(out, expected, atol=1e-12)


class TestMessageLayer:
    def test_single_neighbour_max_reduces_to_fan(self):
        w = make_weights()
        rng = np.random.default_rng(8)
        vplus = Tensor(rng.normal(size=(2, 4)))
        e = Tensor(rng.normal(size=(1, 4)))
        node_msgs, edge_msgs = ssgp.message_layer(vplus, e, np.array([0]), np.array([1]), w)
        v0, v1 = Tensor(vplus.value[0]), Tensor(vplus.value[1])
        fan = ssgp.fan_attention(v0, Tensor(e.value[0]), v1, w)
        expected = ssgp._mlp2(ad.concat([v0, fan]), w, "node_msg")
        np.testing.assert_allclose(node_msgs.value[0], expected.value, atol=1e-12)
        assert edge_msgs.value.shape == (1, 4)

    def test_isolated_node_uses_zero_context(self):
        w = make_weights()
        v = Tensor(np.array([1.0, 2.0, 3.0, 4.0]))
        none = np.empty(0, dtype=np.intp)
        node_msgs, edge_msgs = ssgp.message_layer(
            Tensor(v.value[None]), Tensor(np.empty((0, 4))), none, none, w
        )
        expected = ssgp._mlp2(ad.concat([v, Tensor(np.zeros(4))]), w, "node_msg")
        np.testing.assert_array_equal(node_msgs.value[0], expected.value)
        assert edge_msgs.value.shape == (0, 4)

    def test_matches_brute_force_on_random_graph(self):
        w = make_weights()
        rng = np.random.default_rng(9)
        n = 4
        edges = [(0, 1), (1, 0), (0, 2), (2, 0), (2, 3), (3, 2), (1, 3), (3, 1)]
        src, dst = np.array(edges).T
        vplus = rng.normal(size=(n, 4))
        e = rng.normal(size=(len(edges), 4))
        node_msgs, edge_msgs = ssgp.message_layer(Tensor(vplus), Tensor(e), src, dst, w)
        for i in range(n):
            fans = [
                ssgp.fan_attention(Tensor(vplus[i]), Tensor(e[k]), Tensor(vplus[j]), w).value
                for k, (a, j) in enumerate(edges)
                if a == i
            ]
            ctx = np.max(fans, axis=0)
            h = np.maximum(
                w["node_msg.0.weight"].value @ np.concatenate([vplus[i], ctx])
                + w["node_msg.0.bias"].value,
                0,
            )
            expected = w["node_msg.1.weight"].value @ h + w["node_msg.1.bias"].value
            np.testing.assert_allclose(node_msgs.value[i], expected, atol=1e-12)
        for k, (i, j) in enumerate(edges):
            cat = np.concatenate([vplus[i], e[k], vplus[j]])
            h = np.maximum(
                w["edge_msg.0.weight"].value @ cat + w["edge_msg.0.bias"].value, 0
            )
            expected = w["edge_msg.1.weight"].value @ h + w["edge_msg.1.bias"].value
            np.testing.assert_allclose(edge_msgs.value[k], expected, atol=1e-12)


class TestGruUpdate:
    def test_zero_weights_halve_hidden(self):
        w = zero_weights()
        h = Tensor(np.array([2.0, -4.0, 6.0, 1.0]))
        x = Tensor(np.ones(4))
        out = ssgp.gru_update(h, x, w, "node_gru")
        np.testing.assert_allclose(out.value, 0.5 * h.value)

    def test_carry_gate_preserves_hidden(self):
        w = zero_weights()
        w["node_gru.b_z"].value = np.full(4, 60.0)
        h = Tensor(np.array([0.3, -0.7, 1.5, 2.0]))
        out = ssgp.gru_update(h, Tensor(np.ones(4)), w, "node_gru")
        np.testing.assert_allclose(out.value, h.value, atol=1e-12)

    def test_jacobian_matches_finite_differences(self):
        rng = np.random.default_rng(10)
        w = make_weights(seed=3)
        h_val = rng.normal(size=4)
        x_val = rng.normal(size=4)
        probe = rng.normal(size=4)
        names = [n for n in w.tensors if n.startswith("node_gru.")]

        def scalar():
            out = ssgp.gru_update(Tensor(h_val), Tensor(x_val), w, "node_gru")
            return ad.mean_all(out * Tensor(probe))

        out = scalar()
        out.backward()
        for name in names:
            t = w[name]
            analytic = t.grad.copy()
            numeric = np.zeros_like(analytic)
            flat_v = t.value.reshape(-1)
            flat_n = numeric.reshape(-1)
            for i in range(flat_v.size):
                old = flat_v[i]
                flat_v[i] = old + 1e-5
                up = scalar().value
                flat_v[i] = old - 1e-5
                dn = scalar().value
                flat_v[i] = old
                flat_n[i] = (up - dn) / 2e-5
            denom = np.maximum(np.abs(analytic) + np.abs(numeric), 1e-8)
            assert np.max(np.abs(analytic - numeric) / denom) < 1e-4
            t.grad = None


class TestGraphInputs:
    @pytest.mark.parametrize("edge", [(0, -1), (0, 2), (2, 0), (-1, 1)])
    def test_out_of_range_endpoint_rejected(self, edge):
        with pytest.raises(ValueError, match="outside"):
            make_graph(n_nodes=2, edges=(edge,))

    def test_in_range_endpoints_accepted(self):
        inputs = make_graph(n_nodes=2, edges=((0, 1), (1, 0)))
        np.testing.assert_array_equal(inputs.src, [0, 1])
        np.testing.assert_array_equal(inputs.dst, [1, 0])


class TestForward:
    def test_zero_weights_give_uniform_distributions(self):
        w = zero_weights()
        inputs = make_graph()
        result = ssgp.forward(inputs, w)
        np.testing.assert_allclose(result.prediction.node_probs, 1.0 / 3.0)
        np.testing.assert_allclose(result.prediction.edge_probs, 1.0 / 3.0)

    def test_probs_normalized(self):
        w = make_weights()
        result = ssgp.forward(make_graph(), w)
        np.testing.assert_allclose(result.prediction.node_probs.sum(axis=1), 1.0, atol=1e-6)
        np.testing.assert_allclose(result.prediction.edge_probs.sum(axis=1), 1.0, atol=1e-6)

    def test_zero_layers_apply_heads_directly(self):
        w = make_weights()
        inputs = make_graph()
        result = ssgp.forward(inputs, w, layers=0)
        feats = [w["image_proj.weight"].value @ p for p in inputs.node_patches]
        for logit_probs, f in zip(result.prediction.node_probs, feats):
            logits = w["node_head.weight"].value @ f + w["node_head.bias"].value
            e = np.exp(logits - logits.max())
            np.testing.assert_allclose(logit_probs, e / e.sum(), atol=1e-12)

    def test_repeatable_and_permutation_independent(self):
        cases = [
            (make_weights(), make_graph(), [2, 0, 1]),
            (ssgp.init_weights(ssgp.NetworkConfig(), seed=4), clutter_graph(),
             list(np.random.default_rng(5).permutation(17))),
        ]
        for w, inputs, perm in cases:
            a = ssgp.forward(inputs, w).prediction
            b = ssgp.forward(inputs, w).prediction
            np.testing.assert_array_equal(a.node_probs, b.node_probs)
            np.testing.assert_array_equal(a.edge_probs, b.edge_probs)

            c = ssgp.forward(permute_nodes(inputs, perm), w).prediction
            for new, old in enumerate(perm):
                np.testing.assert_array_equal(c.node_probs[new], a.node_probs[old])
            by_key_a = dict(zip(a.edge_keys, a.edge_probs))
            by_key_c = dict(zip(c.edge_keys, c.edge_probs))
            assert set(by_key_a) == set(by_key_c)
            for key in by_key_a:
                np.testing.assert_array_equal(by_key_a[key], by_key_c[key])

    def test_multi_mode_sigmoid_outputs(self):
        cfg = ssgp.NetworkConfig(
            node_dim=4, edge_dim=4, geo_dim=4, hidden_dim=4,
            num_node_classes=3, num_edge_classes=2, layers=1,
            mode=ssgp.MULTI, patch_size=2,
        )
        w = ssgp.init_weights(cfg, seed=2)
        inputs = make_graph(cfg=cfg)
        probs = ssgp.forward(inputs, w).prediction.edge_probs
        assert np.all((probs > 0) & (probs < 1))


MULTI_CFG = ssgp.NetworkConfig(
    node_dim=4, edge_dim=4, geo_dim=4, hidden_dim=4,
    num_node_classes=3, num_edge_classes=2, layers=2,
    mode=ssgp.MULTI, patch_size=2,
)


def tied_graph(seed, cfg=CFG):
    """Six nodes: 5 is isolated, 4 has a single out-edge, 0 holds every point
    twice, and 2 and 3 are identical, so node 1's context max ties exactly
    between edges 1->3 and 1->2.  Edges are not sorted by source."""
    rng = np.random.default_rng(seed)
    points = [rng.normal(size=(int(rng.integers(3, 9)), 3)) for _ in range(6)]
    points[0] = np.vstack([points[0], points[0]])
    points[3] = points[2]
    patches = rng.normal(size=(6, cfg.patch_dim))
    patches[3] = patches[2]
    edges = [(1, 3), (0, 1), (2, 1), (1, 0), (4, 0), (3, 1), (1, 2), (0, 2)]
    geometry = rng.normal(size=(len(edges), 12))
    geometry[edges.index((1, 2))] = geometry[edges.index((1, 3))]
    geometry[edges.index((3, 1))] = geometry[edges.index((2, 1))]
    inputs = ssgp.GraphInputs(
        node_labels=tuple(range(20, 26)),
        node_points=points,
        edges=edges,
        edge_geometry=geometry,
        node_patches=patches,
    )
    targets = ssgp.GraphTargets(
        node_classes=rng.integers(0, cfg.num_node_classes, size=6),
        edge_classes=rng.integers(0, cfg.num_edge_classes, size=len(edges)),
        edge_onehot=rng.integers(0, 2, size=(len(edges), cfg.num_edge_classes)).astype(float),
    )
    return inputs, targets


class TestPerVectorOracle:
    """The batched network against the per-vector reference in oracles.py."""

    def assert_matches(self, inputs, targets, w, layers=None):
        result = ssgp.forward(inputs, w, layers=layers)
        node_probs, edge_probs, _, _ = forward_per_vector(inputs, w, layers=layers)
        np.testing.assert_allclose(result.prediction.node_probs, node_probs, rtol=0, atol=1e-12)
        np.testing.assert_allclose(result.prediction.edge_probs, edge_probs, rtol=0, atol=1e-12)

        w.zero_grad()
        tape_loss, _ = ssgp.network_loss(inputs, w, targets, layers=layers)
        tape_loss.backward()
        grads = {name: t.grad for name, t in w.parameters()}
        w.zero_grad()
        reference = network_loss_per_vector(inputs, w, targets, layers=layers)
        reference.backward()
        assert abs(float(tape_loss.value) - float(reference.value)) <= 1e-12
        for name, t in w.parameters():
            if t.grad is None:
                assert grads[name] is None, name
                continue
            scale = np.max(np.abs(t.grad))
            assert np.max(np.abs(grads[name] - t.grad)) <= 1e-9 * scale, name
        w.zero_grad()

    def test_isolated_single_edge_and_tied_nodes(self):
        for seed in range(3):
            inputs, targets = tied_graph(seed)
            self.assert_matches(inputs, targets, make_weights(seed=seed))

    def test_zero_layers(self):
        inputs, targets = tied_graph(3)
        self.assert_matches(inputs, targets, make_weights(seed=3), layers=0)

    def test_multi_mode(self):
        inputs, targets = tied_graph(4, MULTI_CFG)
        self.assert_matches(inputs, targets, ssgp.init_weights(MULTI_CFG, seed=4))

    def test_random_graphs_with_node_features(self):
        cfg = ssgp.NetworkConfig(
            node_dim=6, edge_dim=5, geo_dim=6, hidden_dim=7,
            num_node_classes=4, num_edge_classes=3, layers=2, patch_size=2,
        )
        for seed in range(3):
            rng = np.random.default_rng(40 + seed)
            n = 7
            pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
            edges = [pairs[k] for k in rng.choice(len(pairs), 15, replace=False)]
            inputs = ssgp.GraphInputs(
                node_labels=tuple(range(n)),
                node_points=[rng.normal(size=(int(rng.integers(1, 12)), 3)) for _ in range(n)],
                edges=edges,
                edge_geometry=rng.normal(size=(len(edges), 12)),
                node_features=rng.normal(size=(n, cfg.node_dim)),
            )
            targets = ssgp.GraphTargets(
                node_classes=rng.integers(0, 4, size=n),
                edge_classes=rng.integers(0, 3, size=len(edges)),
            )
            self.assert_matches(inputs, targets, ssgp.init_weights(cfg, seed=seed))


class TestLoss:
    def test_one_hot_correct_is_zero(self):
        pred = ssgp.Prediction(
            node_labels=(1, 2),
            edge_keys=((1, 2),),
            node_probs=np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]),
            edge_probs=np.array([[0.0, 0.0, 1.0]]),
            mode=ssgp.SINGLE,
        )
        targets = ssgp.GraphTargets(
            node_classes=np.array([0, 1]), edge_classes=np.array([2])
        )
        assert ssgp.loss(pred, targets) < 1e-6

    def test_uniform_nodes_give_log_c(self):
        pred = ssgp.Prediction(
            node_labels=(1, 2, 3),
            edge_keys=(),
            node_probs=np.full((3, 3), 1.0 / 3.0),
            edge_probs=np.empty((0, 3)),
            mode=ssgp.SINGLE,
        )
        targets = ssgp.GraphTargets(
            node_classes=np.array([0, 1, 2]), edge_classes=np.empty(0, dtype=int)
        )
        assert ssgp.loss(pred, targets) == pytest.approx(math.log(3.0), abs=1e-12)

    def test_out_of_range_label_rejected(self):
        pred = ssgp.Prediction(
            node_labels=(1,),
            edge_keys=(),
            node_probs=np.array([[0.5, 0.5, 0.0]]),
            edge_probs=np.empty((0, 3)),
            mode=ssgp.SINGLE,
        )
        with pytest.raises(InvalidLabel):
            ssgp.loss(
                pred,
                ssgp.GraphTargets(node_classes=np.array([5]), edge_classes=np.empty(0, dtype=int)),
            )

    def test_tape_loss_matches_numpy_loss(self):
        w = make_weights()
        inputs = make_graph()
        targets = make_targets(inputs)
        tape_loss, pred = ssgp.network_loss(inputs, w, targets)
        assert float(tape_loss.value) == pytest.approx(ssgp.loss(pred, targets), abs=1e-9)

    def test_full_loss_gradients_match_finite_differences(self):
        w = make_weights(seed=5)
        inputs = make_graph(seed=6)
        targets = make_targets(inputs, np.random.default_rng(7))

        tape_loss, _ = ssgp.network_loss(inputs, w, targets)
        tape_loss.backward()
        h = 1e-5
        worst = 0.0
        for name, tensor in w.parameters():
            analytic = tensor.grad if tensor.grad is not None else np.zeros_like(tensor.value)
            flat = tensor.value.reshape(-1)
            numeric = np.zeros_like(flat)
            for i in range(flat.size):
                old = flat[i]
                flat[i] = old + h
                up = float(ssgp.network_loss(inputs, w, targets)[0].value)
                flat[i] = old - h
                dn = float(ssgp.network_loss(inputs, w, targets)[0].value)
                flat[i] = old
                numeric[i] = (up - dn) / (2 * h)
            numeric = numeric.reshape(tensor.value.shape)
            denom = np.maximum(np.abs(analytic) + np.abs(numeric), 1e-6)
            rel = np.max(np.abs(analytic - numeric) / denom)
            worst = max(worst, rel)
            assert rel < 1e-4, f"{name}: rel err {rel}"
        assert worst < 1e-4

    def test_multi_mode_bce_gradcheck_spot(self):
        cfg = ssgp.NetworkConfig(
            node_dim=4, edge_dim=4, geo_dim=4, hidden_dim=4,
            num_node_classes=3, num_edge_classes=2, layers=1,
            mode=ssgp.MULTI, patch_size=2,
        )
        w = ssgp.init_weights(cfg, seed=8)
        inputs = make_graph(seed=9, cfg=cfg, edges=((0, 1), (1, 2)))
        rng = np.random.default_rng(10)
        targets = ssgp.GraphTargets(
            node_classes=rng.integers(0, 3, size=3),
            edge_onehot=rng.integers(0, 2, size=(2, 2)).astype(float),
        )
        tape_loss, pred = ssgp.network_loss(inputs, w, targets)
        assert float(tape_loss.value) == pytest.approx(
            ssgp.loss(pred, targets, mode=ssgp.MULTI), abs=1e-9
        )
        tape_loss.backward()
        t = w["edge_head.weight"]
        analytic = t.grad.copy()
        flat = t.value.reshape(-1)
        numeric = np.zeros_like(flat)
        for i in range(flat.size):
            old = flat[i]
            flat[i] = old + 1e-5
            up = float(ssgp.network_loss(inputs, w, targets)[0].value)
            flat[i] = old - 1e-5
            dn = float(ssgp.network_loss(inputs, w, targets)[0].value)
            flat[i] = old
            numeric[i] = (up - dn) / 2e-5
        numeric = numeric.reshape(t.value.shape)
        denom = np.maximum(np.abs(analytic) + np.abs(numeric), 1e-6)
        assert np.max(np.abs(analytic - numeric) / denom) < 1e-4


def separable_graph():
    """Three well-separated nodes and two edges with distinct targets."""
    patches = np.zeros((3, CFG.patch_dim))
    patches[0, :4] = 1.0
    patches[1, 4:8] = 1.0
    patches[2, 8:12] = 1.0
    points = [
        np.array([[0.0, 0.0, 0.0], [0.1, 0.0, 0.0], [0.0, 0.1, 0.0]]),
        np.array([[0.0, 0.0, 1.0], [0.2, 0.0, 1.0], [0.0, 0.2, 1.0]]),
        np.array([[1.0, 1.0, 0.0], [1.2, 1.0, 0.0], [1.0, 1.2, 0.0]]),
    ]
    geometry = np.zeros((2, 12))
    geometry[0, 0] = 1.0
    geometry[1, 5] = -1.0
    inputs = ssgp.GraphInputs(
        node_labels=(1, 2, 3),
        node_points=points,
        edges=[(0, 1), (1, 2)],
        edge_geometry=geometry,
        node_patches=patches,
    )
    targets = ssgp.GraphTargets(
        node_classes=np.array([0, 1, 2]), edge_classes=np.array([1, 2])
    )
    return inputs, targets


class TestToyTrain:
    def test_separable_graph_reaches_low_loss(self):
        w = make_weights(seed=11)
        trace = ssgp.toy_train([separable_graph()], w, steps=2000, lr=0.5)
        assert trace[-1][1] < 0.01
        assert trace[0][1] > trace[-1][1]

    def test_zero_learning_rate_is_a_no_op(self):
        w = make_weights(seed=12)
        before = {k: t.value.copy() for k, t in w.tensors.items()}
        trace = ssgp.toy_train([separable_graph()], w, steps=5, lr=0.0, record_every=1)
        losses = [v for _, v in trace]
        assert all(v == losses[0] for v in losses)
        for k, t in w.tensors.items():
            np.testing.assert_array_equal(t.value, before[k])

    def test_gradient_vanishes_at_one_param_optimum(self):
        w = make_weights(seed=13)
        inputs, targets = separable_graph()
        ssgp.toy_train([(inputs, targets)], w, steps=300, lr=0.5)
        name = "node_head.bias"
        t = w[name]

        def loss_at(v0):
            old = t.value[0]
            t.value[0] = v0
            out = float(ssgp.network_loss(inputs, w, targets)[0].value)
            t.value[0] = old
            return out

        grid = np.linspace(t.value[0] - 0.5, t.value[0] + 0.5, 201)
        values = [loss_at(v) for v in grid]
        best = grid[int(np.argmin(values))]
        fd = (loss_at(best + 1e-5) - loss_at(best - 1e-5)) / 2e-5
        assert abs(fd) < 5e-3


class TestWeightsIO:
    def test_round_trip(self, tmp_path):
        w = make_weights(seed=14)
        path = tmp_path / "weights.json"
        ssgp.save_weights(w, path)
        loaded = ssgp.load_weights(path, CFG)
        for name, tensor in w.tensors.items():
            np.testing.assert_array_equal(loaded[name].value, tensor.value)

    def test_unknown_name_rejected(self, tmp_path):
        w = make_weights()
        path = tmp_path / "weights.json"
        ssgp.save_weights(w, path)
        import json

        doc = json.loads(path.read_text())
        doc["mystery.weight"] = {"shape": [1], "data": [0.0]}
        path.write_text(json.dumps(doc))
        with pytest.raises(ShapeError):
            ssgp.load_weights(path, CFG)

    def test_shape_mismatch_rejected(self, tmp_path):
        w = make_weights()
        path = tmp_path / "weights.json"
        ssgp.save_weights(w, path)
        import json

        doc = json.loads(path.read_text())
        doc["gate.weight"] = {"shape": [3], "data": [0.0, 0.0, 0.0]}
        path.write_text(json.dumps(doc))
        with pytest.raises(ShapeError):
            ssgp.load_weights(path, CFG)

    def test_missing_tensor_rejected(self, tmp_path):
        w = make_weights()
        path = tmp_path / "weights.json"
        ssgp.save_weights(w, path)
        import json

        doc = json.loads(path.read_text())
        del doc["gate.weight"]
        path.write_text(json.dumps(doc))
        with pytest.raises(ShapeError):
            ssgp.load_weights(path, CFG)

    def test_config_validation(self):
        with pytest.raises(ShapeError):
            ssgp.NetworkConfig(node_dim=4, geo_dim=8)
