import math

import numpy as np

from oracles import obb_collide_pairwise
from sgmap.entity_map import PointMap
from sgmap.geometry import (
    GravityConfig,
    Obb,
    RigidPose,
    fit_obb,
    look_at_pose,
    outlier_mask,
    rotation_about_axis,
)
from sgmap.graph_extract import (
    EntityNode,
    build_neighbour,
    extract_entity,
    mask_boxes,
    rotation_angle_deg,
    select_keyframe,
)


def pose_at(eye, target=(0.0, 0.0, 0.0)):
    return look_at_pose(np.asarray(eye, dtype=float), np.asarray(target, dtype=float))


def rotated_pose(pose, degrees):
    rot = rotation_about_axis(np.array([0.0, 0.0, 1.0]), math.radians(degrees))
    return RigidPose(rotation=rot @ pose.rotation, translation=pose.translation)


GOOD_BOX = [(250, 260)]


class TestSelectKeyframe:
    def test_identical_pose_rejected(self):
        pose = pose_at([0, -2, 0])
        assert not select_keyframe(pose, [pose], GOOD_BOX, min_box_px=200)

    def test_rotation_alone_unlocks(self):
        pose = pose_at([0, -2, 0])
        turned = rotated_pose(pose, 6.0)
        np.testing.assert_allclose(rotation_angle_deg(pose, turned), 6.0, atol=1e-9)
        assert select_keyframe(turned, [pose], GOOD_BOX, min_box_px=200)

    def test_small_motion_rejected(self):
        pose = pose_at([0, -2, 0])
        near = RigidPose(
            rotation=rotated_pose(pose, 2.0).rotation,
            translation=pose.translation + [0.1, 0.0, 0.0],
        )
        assert not select_keyframe(near, [pose], GOOD_BOX, min_box_px=200)

    def test_translation_alone_unlocks(self):
        pose = pose_at([0, -2, 0])
        far = RigidPose(rotation=pose.rotation, translation=pose.translation + [0.35, 0, 0])
        assert select_keyframe(far, [pose], GOOD_BOX, min_box_px=200)

    def test_or_combine_is_stricter(self):
        pose = pose_at([0, -2, 0])
        far = RigidPose(rotation=pose.rotation, translation=pose.translation + [0.35, 0, 0])
        assert not select_keyframe(far, [pose], GOOD_BOX, min_box_px=200, combine="or")

    def test_box_gate(self):
        pose = pose_at([0, -2, 0])
        assert not select_keyframe(pose, [], [(300, 150)], min_box_px=200)
        assert not select_keyframe(pose, [], [(200, 300)], min_box_px=200)  # strict >
        assert select_keyframe(pose, [], [(201, 300)], min_box_px=200)

    def test_mask_boxes_sizes(self):
        mask = np.zeros((50, 60), dtype=np.int64)
        mask[5:15, 10:40] = 3
        mask[20:22, 2:4] = 7
        assert mask_boxes(mask) == {3: (30, 10), 7: (2, 2)}


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
            pmap.set_point(int(i), label, 1.0)
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
        np.testing.assert_array_equal(node.point_ids, pmap.ids[rows][keep])

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
                pmap.set_point(pid, 4, 1.0)
        na = extract_entity(a, 4, min_points=5)
        nb = extract_entity(b, 4, min_points=5)
        np.testing.assert_allclose(na.obb.center, nb.obb.center)
        np.testing.assert_allclose(na.obb.dims, nb.obb.dims)
        assert sorted(na.point_ids) == sorted(nb.point_ids)

    def test_empty_map(self):
        assert extract_entity(PointMap(), 1) is None


def node_with_box(label, center, dims=(1.0, 1.0, 1.0), yaw=0.0):
    return EntityNode(
        label=label,
        point_ids=np.array([label]),
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
