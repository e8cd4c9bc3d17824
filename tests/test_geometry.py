import math

import numpy as np
import pytest
from scipy.spatial import cKDTree

from oracles import fit_obb_per_angle, obb_collide_pairwise, obb_contains, outlier_mask_fresh
from sgmap.errors import DegenerateGeometry, EmptyPointSet
from sgmap.geometry import (
    CameraIntrinsics,
    GravityConfig,
    NeighbourCache,
    Obb,
    RigidPose,
    fit_obb,
    look_at_pose,
    obb_collide,
    obb_collide_matrix,
    outlier_mask,
    project_points,
    rotation_about_axis,
)

HALF_PI = math.pi / 2.0


def naive_mean_knn_distance(points, k):
    """O(n^2) mean distance to the k nearest neighbours of each point."""
    points = np.asarray(points, dtype=float)
    out = np.zeros(len(points))
    for i, p in enumerate(points):
        dists = np.sort(np.linalg.norm(points - p, axis=1))
        out[i] = dists[1 : k + 1].mean()
    return out


def kept_points(points, **kwargs):
    """The points that statistical outlier removal keeps."""
    points = np.asarray(points, dtype=float)
    return points[outlier_mask(points, **kwargs)]


def project_one(point, pose, intrinsics):
    """(u, v, depth) of one visible world point, ``None`` when invisible."""
    uv, depth, visible = project_points(np.asarray(point).reshape(1, 3), pose, intrinsics)
    if not visible[0]:
        return None
    return float(uv[0, 0]), float(uv[0, 1]), float(depth[0])


def sweep_min_area(points_xy, step_deg=0.01):
    """Brute-force minimum rectangle area over a fine yaw sweep."""
    best = np.inf
    for deg in np.arange(0.0, 90.0, step_deg):
        a = math.radians(deg)
        c, s = math.cos(a), math.sin(a)
        u = points_xy[:, 0] * c + points_xy[:, 1] * s
        v = -points_xy[:, 0] * s + points_xy[:, 1] * c
        area = (u.max() - u.min()) * (v.max() - v.min())
        if area < best:
            best = area
    return best


def obb_equivalent(a: Obb, b: Obb, tol=1e-6):
    """Equality up to the quarter-turn rectangle symmetry."""
    if np.any(np.abs(a.center - b.center) > tol):
        return False
    if abs(a.dims[2] - b.dims[2]) > tol:
        return False
    dyaw = (a.yaw - b.yaw) % HALF_PI
    dyaw = min(dyaw, HALF_PI - dyaw)
    same = np.all(np.abs(a.dims[:2] - b.dims[:2]) <= tol)
    swapped = np.all(np.abs(a.dims[:2] - b.dims[::-1][1:]) <= tol)
    return dyaw <= tol and (same or swapped)


class TestRemoveOutliers:
    def test_far_point_removed_matches_naive_oracle(self):
        grid = np.array(
            [[x, y, 0.0] for x in range(10) for y in range(10)], dtype=float
        )
        pts = np.vstack([grid, [[100.0, 100.0, 100.0]]])
        kept = kept_points(pts, mean_k=8, std_ratio=2.0)
        assert len(kept) == 100
        assert not any(np.allclose(p, [100, 100, 100]) for p in kept)

        mean_d = naive_mean_knn_distance(pts, 8)
        thr = mean_d.mean() + 2.0 * mean_d.std()
        expect = pts[mean_d <= thr]
        np.testing.assert_allclose(np.sort(kept, axis=0), np.sort(expect, axis=0))

    def test_small_inputs_unchanged(self):
        pts = np.random.default_rng(0).normal(size=(5, 3))
        np.testing.assert_array_equal(kept_points(pts, mean_k=8), pts)

    def test_identical_points_all_retained(self):
        pts = np.tile([[1.0, 2.0, 3.0]], (20, 1))
        assert len(kept_points(pts, mean_k=4)) == 20

    def test_empty_raises(self):
        with pytest.raises(EmptyPointSet):
            outlier_mask(np.empty((0, 3)))

    def test_output_subset_of_input(self):
        rng = np.random.default_rng(3)
        pts = rng.normal(size=(80, 3))
        kept = kept_points(pts, mean_k=8)
        rows = {tuple(p) for p in pts}
        assert all(tuple(p) in rows for p in kept)

    def test_idempotent_when_inliers_fit_threshold(self):
        # Mean-plus-k-sigma trimming cascades when the surviving spread
        # still crosses the threshold (at ratio 2 the grid corners fall on
        # the second pass), so idempotence is only guaranteed once the
        # inlier spread fits inside the band.
        grid = np.array(
            [[x, y, 0.0] for x in range(10) for y in range(10)], dtype=float
        )
        pts = np.vstack([grid, [[100.0, 100.0, 100.0]]])
        once = kept_points(pts, mean_k=8, std_ratio=4.0)
        assert len(once) == 100
        twice = kept_points(once, mean_k=8, std_ratio=4.0)
        np.testing.assert_array_equal(once, twice)

        identical = np.tile([[0.5, 0.5, 0.5]], (30, 1))
        np.testing.assert_array_equal(
            kept_points(identical, mean_k=4),
            kept_points(kept_points(identical, mean_k=4), mean_k=4),
        )


class TestOutlierMaskRepair:
    """The repaired neighbour table must equal a fresh query bit for bit."""

    @staticmethod
    def check(points, keys, cache, mean_k=4, std_ratio=1.0):
        got = outlier_mask(points, mean_k=mean_k, std_ratio=std_ratio, keys=keys, neighbours=cache)
        np.testing.assert_array_equal(got, outlier_mask_fresh(points, mean_k, std_ratio))
        if len(points) > mean_k:
            fresh, _ = cKDTree(points).query(points, k=mean_k + 1)
            np.testing.assert_array_equal(cache.dists, fresh)
            # the cached neighbours realise the cached distances
            d = np.linalg.norm(points[cache.index] - points[:, None, :], axis=2)
            np.testing.assert_allclose(d, cache.dists, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("seed", range(9))
    def test_random_add_remove_move_sequences(self, seed):
        # Seeds 0-5 put coordinates on a coarse grid, where duplicate
        # positions and exact distance ties are common (an added point as
        # far as a row's last neighbour); seeds 6-8 draw them from a normal
        # distribution.
        rng = np.random.default_rng(seed)
        grid = None if seed >= 6 else (0.25 if seed % 2 else 1.0)

        def position():
            if grid is None:
                return rng.normal(size=3) * [1.3, 0.7, 2.9]
            return rng.integers(-6, 6, 3) * grid

        current = {}
        next_id = 0
        cache = NeighbourCache()
        for step in range(40):
            ids = np.array(sorted(current), dtype=np.int64)
            if len(ids):
                gone = rng.random(len(ids)) < rng.choice([0.0, 0.02, 0.1, 0.6])
                for pid in ids[gone]:
                    del current[pid]
                moved = ids[~gone][rng.random((~gone).sum()) < 0.03]
                for pid in moved:
                    current[pid] = position()
            for _ in range(int(rng.choice([0, 1, 3, 12, 80]))):
                current[next_id] = position()
                next_id += 1
            if not current:
                continue
            keys = np.array(sorted(current), dtype=np.int64)
            points = np.array([current[k] for k in keys], dtype=float)
            self.check(points, keys, cache)

    def test_label_shrinks_to_mean_k_and_grows_back(self):
        rng = np.random.default_rng(7)
        points = rng.normal(size=(30, 3))
        keys = np.arange(100, 130)
        cache = NeighbourCache()
        self.check(points, keys, cache)
        self.check(points[:4], keys[:4], cache)  # mean_k points: all kept
        self.check(points[:3], keys[:3], cache)
        grown = np.vstack([points[:3], rng.normal(size=(20, 3))])
        self.check(grown, np.arange(100, 123), cache)
        self.check(points, keys, cache)

    def test_many_added_points_and_other_mean_k(self):
        rng = np.random.default_rng(3)
        points = rng.normal(size=(200, 3))
        keys = np.arange(200) * 3
        cache = NeighbourCache()
        self.check(points[:50], keys[:50], cache)
        self.check(points[:170], keys[:170], cache)  # 120 added points
        self.check(points, keys, cache, mean_k=7)
        self.check(points, keys, cache, mean_k=4)

    def test_unchanged_set_reuses_the_table(self):
        rng = np.random.default_rng(5)
        points = rng.normal(size=(60, 3))
        keys = np.arange(60)
        cache = NeighbourCache()
        outlier_mask(points, mean_k=8, keys=keys, neighbours=cache)
        cache.dists[:, -1] += 1e-3  # a stale entry shows whether rows were kept
        outlier_mask(points, mean_k=8, keys=keys, neighbours=cache)
        fresh, _ = cKDTree(points).query(points, k=9)
        np.testing.assert_array_equal(cache.dists[:, -1], fresh[:, -1] + 1e-3)

    def test_far_added_point_keeps_the_other_rows(self):
        rng = np.random.default_rng(6)
        points = rng.normal(size=(60, 3))
        keys = np.arange(60)
        cache = NeighbourCache()
        outlier_mask(points, mean_k=8, keys=keys, neighbours=cache)
        cache.dists[:, -1] += 1e-3
        # an added point far from all the others enters no kept row
        grown = np.vstack([points, [[100.0, 0.0, 0.0]]])
        outlier_mask(grown, mean_k=8, keys=np.arange(61), neighbours=cache)
        fresh, _ = cKDTree(grown).query(grown, k=9)
        np.testing.assert_array_equal(cache.dists[:60, -1], fresh[:60, -1] + 1e-3)
        np.testing.assert_array_equal(cache.dists[60], fresh[60])

    def test_keys_must_ascend(self):
        points = np.random.default_rng(0).normal(size=(20, 3))
        with pytest.raises(ValueError):
            outlier_mask(points, keys=np.arange(20)[::-1], neighbours=NeighbourCache())
        with pytest.raises(ValueError):
            outlier_mask(points, keys=np.zeros(20, dtype=np.int64), neighbours=NeighbourCache())


class TestFitObb:
    def test_axis_aligned_unit_cube(self):
        pts = np.array(
            [[x, y, z] for x in (0, 1) for y in (0, 1) for z in (0, 1)], dtype=float
        )
        box = fit_obb(pts)
        np.testing.assert_allclose(box.center, [0.5, 0.5, 0.5], atol=1e-12)
        np.testing.assert_allclose(box.dims, [1, 1, 1], atol=1e-12)
        assert box.yaw == 0.0

    def test_rotated_square_recovers_yaw(self):
        rot = rotation_about_axis(np.array([0.0, 0.0, 1.0]), math.pi / 6)
        base = np.array(
            [[0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0], [0.5, 0.5, 0.3]], dtype=float
        )
        box = fit_obb(base @ rot.T)
        assert abs(box.yaw - math.pi / 6) < 1e-6
        np.testing.assert_allclose(box.dims[:2], [1, 1], atol=1e-9)

    def test_beats_yaw_sweep_on_random_clouds(self):
        rng = np.random.default_rng(11)
        for _ in range(5):
            pts = rng.normal(size=(50, 3)) * [2.0, 0.7, 0.4]
            box = fit_obb(pts)
            assert box.horizontal_area <= sweep_min_area(pts[:, :2]) + 1e-9

    def test_contains_all_points(self):
        rng = np.random.default_rng(5)
        for _ in range(5):
            pts = rng.normal(size=(40, 3))
            box = fit_obb(pts)
            assert obb_contains(box, pts, tol=1e-9)

    def test_invariant_under_translation_and_up_rotation(self):
        rng = np.random.default_rng(9)
        pts = rng.normal(size=(30, 3))
        base = fit_obb(pts)
        shift = np.array([3.0, -2.0, 7.0])
        moved = fit_obb(pts + shift)
        assert obb_equivalent(
            Obb(base.center + shift, base.dims, base.yaw), moved, tol=1e-6
        )
        angle = 0.77
        rot = rotation_about_axis(np.array([0.0, 0.0, 1.0]), angle)
        turned = fit_obb(pts @ rot.T)
        assert np.all(np.abs(turned.center - rot @ base.center) < 1e-6)
        assert abs(turned.horizontal_area - base.horizontal_area) < 1e-9
        dyaw = (turned.yaw - (base.yaw + angle)) % HALF_PI
        assert min(dyaw, HALF_PI - dyaw) < 1e-6

    def test_one_pass_matches_per_angle_loop(self):
        rng = np.random.default_rng(17)
        clouds = [rng.normal(size=(n, 3)) * [2.0, 0.7, 0.4] for n in (3, 4, 12, 60, 400)]
        # squares and grids: several angles give exactly the same area
        clouds.append(np.array([[x, y, z] for x in (0, 1) for y in (0, 1) for z in (0, 1)], float))
        clouds.append(rng.integers(0, 4, size=(50, 3)).astype(float))
        clouds.append(np.array([[math.cos(t), math.sin(t), math.sin(t)] for t in np.arange(8) * math.pi / 4]))
        for gravity in (GravityConfig(), GravityConfig(up=np.array([0.0, 1.0, 0.0]))):
            for pts in clouds:
                got = fit_obb(pts, gravity)
                want = fit_obb_per_angle(pts, gravity)
                np.testing.assert_array_equal(got.center, want.center)
                np.testing.assert_array_equal(got.dims, want.dims)
                assert got.yaw == want.yaw

    def test_degenerate_inputs_raise(self):
        with pytest.raises(DegenerateGeometry):
            fit_obb(np.array([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]]))
        colinear = np.array([[t, 2 * t, 0.0] for t in np.linspace(0, 1, 12)])
        with pytest.raises(DegenerateGeometry):
            fit_obb(colinear)

    def test_custom_gravity_axis(self):
        gravity = GravityConfig(up=np.array([0.0, 1.0, 0.0]))
        pts = np.array(
            [[x, y, z] for x in (0, 2) for y in (0, 0.5) for z in (0, 1)], dtype=float
        )
        box = fit_obb(pts, gravity)
        assert abs(box.dims[2] - 0.5) < 1e-9  # vertical extent along +y


class TestGravityConfig:
    def test_basis_computed_once_and_unchanged(self):
        for up in ([0.0, 0.0, 1.0], [0.0, 1.0, 0.0], [0.6, 0.0, 0.8], [-0.48, 0.6, 0.64]):
            gravity = GravityConfig(up=np.array(up))
            up = gravity.up
            axis = np.zeros(3)
            axis[int(np.argmin(np.abs(up)))] = 1.0
            h1 = axis - np.dot(axis, up) * up
            h1 /= np.linalg.norm(h1)
            h2 = np.cross(up, h1)
            got = gravity.basis
            assert gravity.basis is got
            np.testing.assert_array_equal(got[0], h1)
            np.testing.assert_array_equal(got[1], h2)
            assert not got[0].flags.writeable and not got[1].flags.writeable


class TestObbCollide:
    def test_identical_boxes_touch(self):
        a = Obb(center=[0, 0, 0], dims=[1, 1, 1], yaw=0.0)
        assert obb_collide(a, a, margin=0.0)

    def test_margin_arithmetic(self):
        a = Obb(center=[0, 0, 0], dims=[1, 1, 1], yaw=0.0)
        b = Obb(center=[1.4, 0, 0], dims=[1, 1, 1], yaw=0.0)
        assert obb_collide(a, b, margin=0.5)  # gap 0.4 < 2 * 0.5
        assert not obb_collide(a, b, margin=0.1)

    def test_vertical_separation(self):
        a = Obb(center=[0, 0, 0], dims=[1, 1, 1], yaw=0.0)
        b = Obb(center=[0, 0, 2.5], dims=[1, 1, 1], yaw=0.0)
        assert not obb_collide(a, b, margin=0.2)
        assert obb_collide(a, b, margin=0.75)

    def test_symmetric_on_random_pairs(self):
        rng = np.random.default_rng(21)
        for _ in range(60):
            a = Obb(rng.normal(size=3), rng.uniform(0.2, 2.0, 3), rng.uniform(0, 1.5))
            b = Obb(rng.normal(size=3), rng.uniform(0.2, 2.0, 3), rng.uniform(0, 1.5))
            m = rng.uniform(0, 0.5)
            assert obb_collide(a, b, m) == obb_collide(b, a, m)

    def test_rotated_rectangles_need_full_axis_test(self):
        a = Obb(center=[0, 0, 0], dims=[2.0, 0.2, 1.0], yaw=0.0)
        b = Obb(center=[0, 0.8, 0], dims=[2.0, 0.2, 1.0], yaw=math.pi / 4)
        assert obb_collide(a, b, margin=0.0)
        c = Obb(center=[0, 1.6, 0], dims=[2.0, 0.2, 1.0], yaw=0.0)
        assert not obb_collide(a, c, margin=0.0)

    @staticmethod
    def assert_matches_pairwise_oracle(boxes, margin, gravity):
        got = obb_collide_matrix(boxes, margin, gravity)
        assert got.shape == (len(boxes), len(boxes))
        for i, a in enumerate(boxes):
            for j, b in enumerate(boxes):
                expected = obb_collide_pairwise(a, b, margin, gravity)
                assert got[i, j] == expected, (i, j)
                assert obb_collide(a, b, margin, gravity) == expected

    def test_matrix_matches_pairwise_oracle_on_random_boxes(self):
        rng = np.random.default_rng(31)
        for up in ([0.0, 0.0, 1.0], [0.6, 0.0, 0.8], [0.48, 0.6, 0.64]):
            gravity = GravityConfig(up=np.array(up))
            for margin in (0.0, 0.01, 0.5):
                boxes = [
                    Obb(rng.uniform(-2, 2, 3), rng.uniform(0.2, 1.5, 3), rng.uniform(-3, 3))
                    for _ in range(12)
                ]
                self.assert_matches_pairwise_oracle(boxes, margin, gravity)

    def test_matrix_matches_pairwise_oracle_at_exact_contact(self):
        # unit cubes on an integer grid touch their face, edge and corner
        # neighbours exactly; yawed face-to-face pairs sit at contact up to
        # rounding, so the two tests must round alike to agree
        grid = [[i, j, k] for i in range(3) for j in range(3) for k in range(2)]
        for yaw in (0.0, HALF_PI, 0.3):
            boxes = [Obb(center, [1.0, 1.0, 1.0], yaw) for center in grid]
            self.assert_matches_pairwise_oracle(boxes, 0.0, GravityConfig())
        rng = np.random.default_rng(32)
        for _ in range(200):
            yaw = rng.uniform(0, HALF_PI)
            margin = float(rng.choice([0.0, 0.01, 0.25]))
            dims_a, dims_b = rng.uniform(0.2, 1.5, 3), rng.uniform(0.2, 1.5, 3)
            gap = 0.5 * dims_a[0] + 0.5 * dims_b[0] + 2.0 * margin
            a = Obb(rng.uniform(-2, 2, 3), dims_a, yaw)
            b = Obb(a.center + gap * np.array([math.cos(yaw), math.sin(yaw), 0.0]), dims_b, yaw)
            self.assert_matches_pairwise_oracle([a, b], margin, GravityConfig())

    def test_matrix_of_no_and_one_box(self):
        assert obb_collide_matrix([]).shape == (0, 0)
        box = Obb([0.0, 0.0, 0.0], [1.0, 1.0, 1.0], 0.0)
        np.testing.assert_array_equal(obb_collide_matrix([box]), [[True]])

    def test_negative_margin_rejected(self):
        box = Obb([0.0, 0.0, 0.0], [1.0, 1.0, 1.0], 0.0)
        with pytest.raises(ValueError):
            obb_collide_matrix([box, box], margin=-0.1)


class TestProjection:
    def setup_method(self):
        self.K = CameraIntrinsics(fx=100, fy=100, cx=80, cy=60, width=160, height=120)
        self.pose = look_at_pose(np.array([0.0, -2.0, 0.0]), np.array([0.0, 0.0, 0.0]))

    def test_optical_axis(self):
        hit = project_one(np.array([0.0, 0.0, 0.0]), self.pose, self.K)
        assert hit is not None
        u, v, depth = hit
        assert (u, v) == (self.K.cx, self.K.cy)
        assert depth == pytest.approx(2.0)

    def test_behind_camera_invisible(self):
        assert project_one(np.array([0.0, -4.0, 0.0]), self.pose, self.K) is None

    def test_right_edge_exclusive(self):
        # u = fx * x/z + cx = width  =>  x = z * (width - cx) / fx
        x = 2.0 * (self.K.width - self.K.cx) / self.K.fx
        assert project_one(np.array([x, 0.0, 0.0]), self.pose, self.K) is None
        eps = 1e-9
        assert project_one(np.array([x - eps, 0.0, 0.0]), self.pose, self.K) is not None

    def test_batch_matches_single(self):
        rng = np.random.default_rng(2)
        pts = rng.normal(size=(50, 3)) * 2.0
        uv, depth, visible = project_points(pts, self.pose, self.K)
        for i, p in enumerate(pts):
            single = project_one(p, self.pose, self.K)
            if visible[i]:
                assert single == (uv[i, 0], uv[i, 1], depth[i])
            else:
                assert single is None

    def test_pose_validation(self):
        with pytest.raises(ValueError):
            RigidPose(rotation=np.eye(3) * 2.0, translation=np.zeros(3))
