import math

import numpy as np

from sgmap.entity_map import PointMap
from sgmap.geometry import (
    CameraIntrinsics,
    Obb,
    RigidPose,
    fit_obb,
    look_at_pose,
    outlier_mask,
    project_points,
    rotation_about_axis,
)
from sgmap.graph_extract import (
    Keyframe,
    build_neighbour,
    build_visibility,
    extract_entities,
    mask_boxes,
    rotation_angle_deg,
    select_keyframe,
)

K = CameraIntrinsics(fx=100, fy=100, cx=80, cy=60, width=160, height=120)


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
        nodes = extract_entities(populated_map(), min_points=10)
        assert [n.label for n in nodes] == [1, 2]

    def test_obb_matches_direct_fit_of_filtered_points(self):
        pmap = populated_map()
        nodes = extract_entities(pmap, min_points=10, mean_k=8, std_ratio=2.0)
        rows = pmap.label_rows(1)
        pts = pmap.positions[rows]
        keep = outlier_mask(pts, mean_k=8, std_ratio=2.0)
        expected = fit_obb(pts[keep])
        got = nodes[0].obb
        np.testing.assert_allclose(got.center, expected.center)
        np.testing.assert_allclose(got.dims, expected.dims)
        assert got.yaw == expected.yaw

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
        na = extract_entities(a, min_points=5)[0]
        nb = extract_entities(b, min_points=5)[0]
        np.testing.assert_allclose(na.obb.center, nb.obb.center)
        np.testing.assert_allclose(na.obb.dims, nb.obb.dims)
        assert sorted(na.point_ids) == sorted(nb.point_ids)

    def test_empty_map(self):
        assert extract_entities(PointMap()) == []


class TestBuildVisibility:
    def test_single_keyframe_edge(self):
        nodes = extract_entities(populated_map(), min_points=10)
        kf = Keyframe(id=0, pose=pose_at([0, -2, 0]), intrinsics=K)
        graph = build_visibility(nodes, [kf])
        assert (1, 0) in graph.edges
        witness = graph.witnesses[(1, 0)]
        assert witness in nodes[0].point_ids

    def test_node_behind_camera_isolated(self):
        nodes = extract_entities(populated_map(), min_points=10)
        kf = Keyframe(id=3, pose=pose_at([0, -2, 0], target=[0, -4, 0]), intrinsics=K)
        graph = build_visibility(nodes, [kf])
        assert graph.edges == set()

    def test_matches_per_point_projection_oracle(self):
        rng = np.random.default_rng(9)
        pmap = PointMap()
        pid = 1
        for label in range(1, 11):
            pts = rng.normal(scale=0.3, size=(12, 3)) + rng.uniform(-2, 2, size=3)
            ids = np.arange(pid, pid + 12)
            pmap.upsert_positions(ids, pts)
            for i in ids:
                pmap.set_point(int(i), label, 1.0)
            pid += 12
        nodes = extract_entities(pmap, min_points=3)
        keyframes = [
            Keyframe(id=k, pose=pose_at(rng.uniform(-4, 4, size=3)), intrinsics=K)
            for k in range(5)
        ]
        graph = build_visibility(nodes, keyframes)
        for node in nodes:
            for kf in keyframes:
                visible = any(
                    project_points(p.reshape(1, 3), kf.pose, kf.intrinsics)[2][0]
                    for p in node.positions
                )
                assert ((node.label, kf.id) in graph.edges) == visible


class TestBuildNeighbour:
    @staticmethod
    def node_with_box(label, center, dims=(1.0, 1.0, 1.0)):
        from sgmap.graph_extract import EntityNode

        return EntityNode(
            label=label,
            point_ids=np.array([label]),
            positions=np.asarray(center, dtype=float).reshape(1, 3),
            obb=Obb(center=center, dims=dims, yaw=0.0),
        )

    def test_margin_bridges_small_gap(self):
        a = self.node_with_box(1, [0.0, 0.0, 0.0])
        b = self.node_with_box(2, [1.9, 0.0, 0.0])  # gap 0.9
        graph = build_neighbour([a, b], margin=0.5)
        assert graph.edges == {(1, 2)}
        assert graph.neighbours(1) == [2]
        assert graph.directed_edges() == [(1, 2), (2, 1)]

    def test_far_boxes_no_edge(self):
        a = self.node_with_box(1, [0.0, 0.0, 0.0])
        b = self.node_with_box(2, [4.0, 0.0, 0.0])
        assert build_neighbour([a, b], margin=0.5).edges == set()

    def test_symmetric_against_pairwise_oracle(self):
        from sgmap.geometry import obb_collide

        rng = np.random.default_rng(13)
        nodes = [
            self.node_with_box(
                i + 1, rng.uniform(-3, 3, size=3), tuple(rng.uniform(0.3, 1.5, size=3))
            )
            for i in range(8)
        ]
        graph = build_neighbour(nodes, margin=0.5)
        for i, a in enumerate(nodes):
            for b in nodes[i + 1 :]:
                hit = obb_collide(a.obb, b.obb, 0.5)
                key = (min(a.label, b.label), max(a.label, b.label))
                assert (key in graph.edges) == hit
