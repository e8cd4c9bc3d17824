import math

import numpy as np
import pytest

from oracles import (
    label_roi,
    mask_boxes_loops,
    obb_collide_pairwise,
    pose_is_novel_loop,
    select_keyframe_loop,
)
from sgmap.entity_map import PointMap
from sgmap.geometry import (
    GravityConfig,
    NeighbourCache,
    Obb,
    RigidPose,
    fit_obb,
    look_at_pose,
    outlier_mask,
    rotation_about_axis,
)
from sgmap.graph_extract import (
    REJECT_NO_BOX,
    REJECT_POSE,
    EntityNode,
    build_neighbour,
    extract_entity,
    mask_boxes,
    pose_is_novel,
    rotation_angle_deg,
    select_keyframe,
)
from test_entity_map import set_point


def pose_at(eye, target=(0.0, 0.0, 0.0)):
    return look_at_pose(np.asarray(eye, dtype=float), np.asarray(target, dtype=float))


def rotated_pose(pose, degrees):
    rot = rotation_about_axis(np.array([0.0, 0.0, 1.0]), math.radians(degrees))
    return RigidPose(rotation=rot @ pose.rotation, translation=pose.translation)


def stacked(poses):
    """Stored keyframe poses as the gate takes them."""
    rotations = np.array([p.rotation for p in poses]).reshape(-1, 3, 3)
    translations = np.array([p.translation for p in poses]).reshape(-1, 3)
    return rotations, translations


def box_mask(width, height):
    """A mask whose one label has a ``width`` x ``height`` box."""
    mask = np.zeros((height + 2, width + 2), dtype=np.int64)
    mask[1:-1, 1:-1] = 5
    return mask


GOOD_MASK = box_mask(250, 260)


def verdict(candidate, existing, mask=GOOD_MASK, **kwargs):
    reason, _table = select_keyframe(candidate, *stacked(existing), mask, min_box_px=200, **kwargs)
    return reason


class TestSelectKeyframe:
    def test_identical_pose_rejected(self):
        pose = pose_at([0, -2, 0])
        assert verdict(pose, [pose]) == REJECT_POSE

    def test_rotation_alone_unlocks(self):
        pose = pose_at([0, -2, 0])
        turned = rotated_pose(pose, 6.0)
        np.testing.assert_allclose(rotation_angle_deg(pose.rotation, turned.rotation), 6.0, atol=1e-9)
        assert verdict(turned, [pose]) is None

    def test_small_motion_rejected(self):
        pose = pose_at([0, -2, 0])
        near = RigidPose(
            rotation=rotated_pose(pose, 2.0).rotation,
            translation=pose.translation + [0.1, 0.0, 0.0],
        )
        assert verdict(near, [pose]) == REJECT_POSE

    def test_translation_alone_unlocks(self):
        pose = pose_at([0, -2, 0])
        far = RigidPose(rotation=pose.rotation, translation=pose.translation + [0.35, 0, 0])
        assert verdict(far, [pose]) is None

    def test_or_combine_is_stricter(self):
        pose = pose_at([0, -2, 0])
        far = RigidPose(rotation=pose.rotation, translation=pose.translation + [0.35, 0, 0])
        assert verdict(far, [pose], combine="or") == REJECT_POSE

    def test_box_gate(self):
        pose = pose_at([0, -2, 0])
        assert verdict(pose, [], box_mask(300, 150)) == REJECT_NO_BOX
        assert verdict(pose, [], box_mask(200, 300)) == REJECT_NO_BOX  # strict >
        assert verdict(pose, [], box_mask(201, 300)) is None
        assert verdict(pose, [], np.zeros((300, 300), dtype=np.int64)) == REJECT_NO_BOX

    def test_mask_boxes_sizes(self):
        mask = np.zeros((50, 60), dtype=np.int64)
        mask[5:15, 10:40] = 3
        mask[20:22, 2:4] = 7
        assert mask_boxes(mask) == {3: (5, 15, 10, 40), 7: (20, 22, 2, 4)}

    def test_table_only_for_pose_novel_frames(self):
        pose = pose_at([0, -2, 0])
        assert select_keyframe(pose, *stacked([pose]), GOOD_MASK) == (REJECT_POSE, None)
        reason, table = select_keyframe(pose, *stacked([]), GOOD_MASK)
        assert reason is None and table == mask_boxes(GOOD_MASK)

    def test_unknown_combine_rejected(self):
        pose = pose_at([0, -2, 0])
        with pytest.raises(ValueError):
            verdict(pose, [], combine="xor")


def random_rotation(rng, max_deg, min_deg=0.0):
    axis = rng.normal(size=3)
    angle = math.radians(rng.uniform(min_deg, max_deg))
    return rotation_about_axis(axis / np.linalg.norm(axis), angle)


def random_pose_near(rng, base, max_deg=12.0, max_m=0.7):
    offset = rng.normal(size=3)
    offset *= rng.uniform(0, max_m) / np.linalg.norm(offset)
    return RigidPose(
        rotation=random_rotation(rng, max_deg) @ base.rotation,
        translation=base.translation + offset,
    )


class TestPoseGate:
    """The stacked pose test against the scalar loop over stored poses."""

    @pytest.mark.parametrize("combine", ["and", "or"])
    def test_equals_scalar_loop_on_random_poses(self, combine):
        rng = np.random.default_rng(11)
        base = pose_at([0, -2, 0.5])
        outcomes = set()
        for _ in range(300):
            existing = [random_pose_near(rng, base) for _ in range(int(rng.integers(0, 67)))]
            candidate = random_pose_near(rng, base)
            got = pose_is_novel(candidate, *stacked(existing), 5.0, 0.3, combine)
            assert got == pose_is_novel_loop(candidate, existing, 5.0, 0.3, combine)
            outcomes.add(got)
        assert outcomes == {True, False}

    @pytest.mark.parametrize("combine", ["and", "or"])
    @pytest.mark.parametrize("swept", ["rotation", "translation"])
    def test_equals_scalar_loop_within_ulps_of_the_thresholds(self, combine, swept):
        """The candidate's angle (distance) to one stored pose is swept
        through the threshold in steps of a few ulps of the computed value;
        the other quantity is held where it leaves the verdict to the swept
        one.  Random far poses around it fill the stack."""
        rng = np.random.default_rng(5 if combine == "and" else 6)
        rot_thresh, trans_thresh = 5.0, 0.3
        base = pose_at([0.4, -2, 0.5])
        others = [
            RigidPose(rotation=random_rotation(rng, 90.0, 30.0) @ base.rotation,
                      translation=base.translation + rng.uniform(2.0, 3.0, size=3))
            for _ in range(40)
        ]
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        direction = rng.normal(size=3)
        direction /= np.linalg.norm(direction)
        # the quantity not swept: close for "and", far for "or"
        held_deg = 0.0 if combine == "and" else 20.0
        held_m = 0.0 if combine == "and" else 1.0
        outcomes = set()
        for k in range(-60, 61):
            if swept == "rotation":
                angle, dist = math.radians(rot_thresh) + k * 2e-16, held_m
            else:
                angle, dist = math.radians(held_deg), trans_thresh + k * 1e-16
            stored = RigidPose(
                rotation=rotation_about_axis(axis, angle) @ base.rotation,
                translation=base.translation + dist * direction,
            )
            existing = list(others)
            existing.insert(int(rng.integers(0, len(existing) + 1)), stored)
            got = pose_is_novel(base, *stacked(existing), rot_thresh, trans_thresh, combine)
            assert got == pose_is_novel_loop(base, existing, rot_thresh, trans_thresh, combine)
            outcomes.add(got)
        assert outcomes == {True, False}

    def test_thresholds_out_of_range(self):
        rng = np.random.default_rng(2)
        base = pose_at([0, -2, 0])
        existing = [random_pose_near(rng, base) for _ in range(20)]
        candidate = random_pose_near(rng, base)
        for rot, trans in [(0.0, 0.0), (-5.0, -0.3), (180.0, 0.3), (400.0, 10.0),
                           (math.inf, math.inf), (math.nan, 0.3), (5.0, math.nan)]:
            for combine in ("and", "or"):
                assert pose_is_novel(candidate, *stacked(existing), rot, trans, combine) == (
                    pose_is_novel_loop(candidate, existing, rot, trans, combine)
                )

    def test_gate_equals_scalar_rule_with_box_sizes(self):
        """The whole gate against the old order: box sizes first, then the
        poses."""
        rng = np.random.default_rng(8)
        base = pose_at([0, -2, 0])
        for _ in range(100):
            mask = np.zeros((40, 50), dtype=np.int64)
            for lbl in rng.integers(1, 6, size=3):
                r, c = rng.integers(0, 30), rng.integers(0, 40)
                mask[r:r + rng.integers(1, 11), c:c + rng.integers(1, 11)] = lbl
            existing = [random_pose_near(rng, base) for _ in range(int(rng.integers(0, 10)))]
            candidate = random_pose_near(rng, base)
            reason, _ = select_keyframe(candidate, *stacked(existing), mask, 5.0, 0.3, 6)
            sizes = mask_boxes_loops(mask).values()
            assert (reason is None) == select_keyframe_loop(
                candidate, existing, sizes, 5.0, 0.3, 6, "and"
            )


def check_label_table(mask):
    table = mask_boxes(mask)
    expected = mask_boxes_loops(mask)
    assert list(table) == sorted(expected)
    for lbl, box in table.items():
        assert (box.c1 - box.c0, box.r1 - box.r0) == expected[lbl]
        assert box.roi == label_roi(mask, lbl)
    return table


class TestLabelTable:
    """The one-pass label table against a scan per label."""

    @pytest.mark.parametrize("seed", range(12))
    def test_equals_per_label_scans_on_random_masks(self, seed):
        rng = np.random.default_rng(seed)
        h, w = (int(v) for v in rng.integers(1, 40, size=2))
        ids = np.array([0, 1, 2, 7, 65535, 2**31 + 5, -3])
        noisy = rng.choice(ids, size=(h, w), p=[0.4, 0.2, 0.1, 0.1, 0.1, 0.05, 0.05])
        check_label_table(noisy)
        blocks = np.zeros((h, w), dtype=np.int64)
        for lbl in rng.choice(ids[1:], size=6):
            r, c = rng.integers(0, h), rng.integers(0, w)
            blocks[r:r + rng.integers(1, h + 1), c:c + rng.integers(1, w + 1)] = lbl
        check_label_table(blocks)

    def test_edge_cases(self):
        assert mask_boxes(np.zeros((0, 4), dtype=np.int64)) == {}
        assert mask_boxes(np.zeros((6, 5), dtype=np.int64)) == {}
        single = np.zeros((6, 5), dtype=np.int64)
        single[0, 4] = single[5, 0] = 2**31 + 5
        single[3, 2] = 4
        assert check_label_table(single) == {4: (3, 4, 2, 3), 2**31 + 5: (0, 6, 0, 5)}
        border = np.zeros((7, 9), dtype=np.int64)
        border[0, :] = border[-1, :] = border[:, 0] = border[:, -1] = 8
        border[2:5, 3:6] = 1
        assert check_label_table(border)[8] == (0, 7, 0, 9)
        full = np.full((1, 1), 3)
        assert check_label_table(full) == {3: (0, 1, 0, 1)}
        column = np.array([[0], [6], [6], [0], [6]])
        assert check_label_table(column) == {6: (1, 5, 0, 1)}


def populated_map():
    rng = np.random.default_rng(0)
    pmap = PointMap()
    clusters = {
        1: rng.normal(scale=0.1, size=(40, 3)) + [0, 0, 0],
        2: rng.normal(scale=0.1, size=(25, 3)) + [2.0, 0, 0],
        3: rng.normal(scale=0.05, size=(3, 3)) + [0, 2.0, 0],  # below min_points
    }
    pid = 1
    for label, pts in clusters.items():
        ids = np.arange(pid, pid + len(pts))
        pmap.upsert_positions(ids, pts)
        for i in ids:
            set_point(pmap, int(i), label, 1.0)
        pid += len(pts)
    return pmap


class TestExtractEntities:
    def test_small_labels_dropped_and_order_ascending(self):
        pmap = populated_map()
        nodes = [extract_entity(pmap, label, min_points=10) for label in pmap.labels_in_use()]
        assert [node.label if node else None for node in nodes] == [1, 2, None]

    def test_obb_matches_direct_fit_of_filtered_points(self):
        pmap = populated_map()
        node = extract_entity(pmap, 1, min_points=10, mean_k=8, std_ratio=2.0)
        rows = pmap.label_rows(1)
        pts = pmap.positions[rows]
        keep = outlier_mask(pts, mean_k=8, std_ratio=2.0)
        expected = fit_obb(pts[keep])
        np.testing.assert_allclose(node.obb.center, expected.center)
        np.testing.assert_allclose(node.obb.dims, expected.dims)
        assert node.obb.yaw == expected.yaw
        np.testing.assert_array_equal(node.positions, pts[keep])

    def test_deterministic_under_point_id_permutation(self):
        rng = np.random.default_rng(5)
        pts = rng.normal(size=(30, 3))
        a = PointMap()
        a.upsert_positions(np.arange(1, 31), pts)
        perm = rng.permutation(30)
        b = PointMap()
        b.upsert_positions(np.arange(1, 31)[perm], pts[perm])
        for pmap in (a, b):
            for pid in range(1, 31):
                set_point(pmap, pid, 4, 1.0)
        na = extract_entity(a, 4, min_points=5)
        nb = extract_entity(b, 4, min_points=5)
        np.testing.assert_allclose(na.obb.center, nb.obb.center)
        np.testing.assert_allclose(na.obb.dims, nb.obb.dims)
        np.testing.assert_array_equal(
            na.positions[np.lexsort(na.positions.T)], nb.positions[np.lexsort(nb.positions.T)]
        )

    def test_empty_map(self):
        assert extract_entity(PointMap(), 1) is None

    def test_unchanged_snapshot_gives_equal_node_and_keeps_cache(self):
        # The back end extracts every live label at every tick; on a label
        # whose points did not change, its repaired neighbour table must
        # reproduce the node of a full query and stay as it was.
        pmap = populated_map()
        cache = NeighbourCache()
        first = extract_entity(pmap, 1, neighbours=cache)
        assert cache.dists.shape == (40, 17)
        kept = {name: getattr(cache, name).copy() for name in ("keys", "positions", "dists", "index")}
        for again in (
            extract_entity(pmap.snapshot(), 1, neighbours=cache),
            extract_entity(pmap.snapshot(), 1, neighbours=cache),
            extract_entity(pmap.snapshot(), 1),
        ):
            assert again.label == first.label
            np.testing.assert_array_equal(again.positions, first.positions)
            np.testing.assert_array_equal(again.obb.center, first.obb.center)
            np.testing.assert_array_equal(again.obb.dims, first.obb.dims)
            assert again.obb.yaw == first.obb.yaw
        for name, array in kept.items():
            assert getattr(cache, name).dtype == array.dtype, name
            np.testing.assert_array_equal(getattr(cache, name), array, err_msg=name)


def node_with_box(label, center, dims=(1.0, 1.0, 1.0), yaw=0.0):
    return EntityNode(
        label=label,
        positions=np.asarray(center, dtype=float).reshape(1, 3),
        obb=Obb(center=center, dims=dims, yaw=yaw),
    )


class TestBuildNeighbour:
    def test_margin_bridges_small_gap(self):
        a = node_with_box(1, [0.0, 0.0, 0.0])
        b = node_with_box(2, [1.9, 0.0, 0.0])  # gap 0.9
        src, dst = build_neighbour([a, b], margin=0.5)
        assert src.tolist() == [0, 1] and dst.tolist() == [1, 0]

    def test_far_boxes_no_edge(self):
        a = node_with_box(1, [0.0, 0.0, 0.0])
        b = node_with_box(2, [4.0, 0.0, 0.0])
        src, dst = build_neighbour([a, b], margin=0.5)
        assert len(src) == 0 and len(dst) == 0

    def test_no_and_one_node(self):
        for nodes in ([], [node_with_box(1, [0.0, 0.0, 0.0])]):
            src, dst = build_neighbour(nodes)
            assert len(src) == 0 and len(dst) == 0

    def test_symmetric_against_pairwise_oracle(self):
        rng = np.random.default_rng(13)
        gravity = GravityConfig()
        for margin in (0.0, 0.5):
            nodes = [
                node_with_box(
                    i + 1,
                    rng.uniform(-3, 3, size=3),
                    tuple(rng.uniform(0.3, 1.5, size=3)),
                    rng.uniform(0, 1.5),
                )
                for i in range(12)
            ]
            src, dst = build_neighbour(nodes, margin=margin, gravity=gravity)
            expected = [
                (i, j)
                for i, a in enumerate(nodes)
                for j, b in enumerate(nodes)
                if i != j and obb_collide_pairwise(a.obb, b.obb, margin, gravity)
            ]
            assert list(zip(src.tolist(), dst.tolist())) == expected
            assert set(expected) == {(j, i) for (i, j) in expected}
            assert 0 < len(expected) < 12 * 11

    def test_exactly_touching_boxes_at_zero_margin(self):
        # a row of unit cubes: each touches its neighbours face to face
        nodes = [node_with_box(i + 1, [float(i), 0.0, 0.0]) for i in range(4)]
        src, dst = build_neighbour(nodes, margin=0.0)
        assert list(zip(src.tolist(), dst.tolist())) == [
            (0, 1), (1, 0), (1, 2), (2, 1), (2, 3), (3, 2)
        ]
