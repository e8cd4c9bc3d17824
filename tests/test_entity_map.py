from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    associate_loops,
    consistent_mask_loops,
    mean_confidence_loops,
    random_mask_pair,
    render_reference_splat,
)
from sgmap.entity_map import (
    UNLABELED,
    AssociationConfig,
    AssociationStrategy,
    PointMap,
    ReferenceRender,
    associate,
    fuse,
    mean_confidence,
    render_reference,
)
from sgmap.errors import InvalidLabel
from sgmap.geometry import CameraIntrinsics, look_at_pose


def make_render(ref_labels, ref_conf):
    """A render of the given rasters with no visible points."""
    empty = np.empty(0, dtype=np.int64)
    return ReferenceRender(
        ref_labels=np.asarray(ref_labels, dtype=np.int64),
        ref_conf=np.asarray(ref_conf, dtype=np.float64),
        visible_points=empty,
        visible_rows=empty.copy(),
        visible_cols=empty.copy(),
    )


def row_of(pmap, point_id):
    """Map row of one point id; ``KeyError`` names an unknown id."""
    at = np.flatnonzero(pmap.ids == point_id)
    if len(at) == 0:
        raise KeyError(point_id)
    return int(at[0])


def set_point(pmap, point_id, label, weight):
    """Give one existing map point a label and weight in place, as fusion
    would; ``KeyError`` names an unknown id."""
    if (label == UNLABELED) != (weight == 0.0):
        raise ValueError("label 0 must pair with weight 0 and vice versa")
    row = row_of(pmap, point_id)
    pmap.labels[row] = label
    pmap.weights[row] = weight
    pmap.next_label = max(pmap.next_label, label + 1)


def single_point_map(positions_labels_weights):
    pmap = PointMap()
    ids = np.arange(1, len(positions_labels_weights) + 1)
    pmap.upsert_positions(ids, np.array([p for p, _, _ in positions_labels_weights]))
    for pid, (_, lbl, w) in zip(ids, positions_labels_weights):
        if lbl:
            set_point(pmap, int(pid), lbl, w)
    return pmap


def point_state(pmap, point_id):
    """(label, weight) of one map point, as attributes."""
    row = row_of(pmap, point_id)
    return SimpleNamespace(label=int(pmap.labels[row]), weight=float(pmap.weights[row]))


class TestRenderReference:
    def setup_method(self):
        self.K = CameraIntrinsics(fx=100, fy=100, cx=80, cy=60, width=160, height=120)
        self.pose = look_at_pose(np.array([0.0, -2.0, 0.0]), np.array([0.0, 0.0, 0.0]))

    def test_empty_map_renders_zero(self):
        render = render_reference(PointMap(), self.pose, self.K)
        assert not render.ref_labels.any()
        assert not render.ref_conf.any()
        assert len(render.visible_points) == 0

    def test_single_point_splat_footprint(self):
        pmap = single_point_map([(np.zeros(3), 7, 0.9)])
        render = render_reference(pmap, self.pose, self.K, splat_radius=2)
        assert (render.ref_labels == 7).sum() == 25
        rows, cols = np.nonzero(render.ref_labels)
        assert rows.min() == 58 and rows.max() == 62
        assert cols.min() == 78 and cols.max() == 82
        np.testing.assert_array_equal(
            render.ref_conf[render.ref_labels == 7], np.full(25, 0.9)
        )

    def test_depth_contention_prefers_near_point(self):
        pmap = single_point_map(
            [((0.0, 0.0, 0.0), 1, 0.5), ((0.0, -1.0, 0.0), 2, 0.6)]
        )
        render = render_reference(pmap, self.pose, self.K, splat_radius=1)
        center = render.ref_labels[60, 80]
        assert center == 2  # depth 1 beats depth 2
        assert render.ref_conf[60, 80] == 0.6

    def test_equal_depth_tie_prefers_lower_id(self):
        pmap = single_point_map(
            [((0.0, 0.0, 0.0), 4, 0.5), ((0.0, 0.0, 0.0), 9, 0.6)]
        )
        render = render_reference(pmap, self.pose, self.K, splat_radius=0)
        assert render.ref_labels[60, 80] == 4
        assert render.ref_conf[60, 80] == 0.5

    def test_unlabeled_point_visible_but_unpainted(self):
        pmap = single_point_map(
            [((0.2, 0.0, 0.1), 3, 1.0), ((-0.3, 0.0, -0.2), 5, 0.4), ((0.0, 0.0, 0.9), 0, 0.0)]
        )
        render = render_reference(pmap, self.pose, self.K)
        np.testing.assert_array_equal(render.ref_conf > 0, render.ref_labels != 0)
        assert set(np.unique(render.ref_labels)) == {0, 3, 5}
        # the unlabeled point is still tracked for fusion, and paints nothing
        at = np.flatnonzero(pmap.ids[render.visible_points] == 3)
        assert len(at) == 1
        assert render.ref_labels[render.visible_rows[at], render.visible_cols[at]] == 0

    FIELDS = ("ref_labels", "ref_conf", "visible_points", "visible_rows", "visible_cols")

    def assert_matches_splat_oracle(self, pmap, radius):
        got = render_reference(pmap, self.pose, self.K, splat_radius=radius)
        want = render_reference_splat(pmap, self.pose, self.K, radius)
        for name in self.FIELDS:
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype, name
            np.testing.assert_array_equal(a, b, err_msg=name)

    @staticmethod
    def random_map(rng, n, labeled_share=0.7):
        """Points in front of the camera, many beyond the image border, on a
        few depth planes (equal depths) and some on shared positions, with
        unique ids in random order."""
        pos = np.column_stack(
            [
                rng.uniform(-3.0, 3.0, n),
                rng.choice([-0.5, 0.0, 0.25, 1.0], n) + rng.choice([0.0, 0.0, 0.1], n),
                rng.uniform(-2.5, 2.5, n),
            ]
        )
        dup = rng.random(n) < 0.1
        pos[dup] = pos[rng.integers(0, n, dup.sum())]
        pmap = PointMap()
        pmap.upsert_positions(rng.permutation(10 * n)[:n] + 1, pos)
        for pid in pmap.ids[rng.random(n) < labeled_share]:
            set_point(pmap, int(pid), int(rng.integers(1, 5)), float(rng.uniform(0.1, 2.0)))
        return pmap

    @pytest.mark.parametrize("radius", [0, 1, 2, 3])
    def test_matches_splat_oracle_on_random_maps(self, radius):
        rng = np.random.default_rng(40 + radius)
        for n in (1, 5, 60, 400):
            self.assert_matches_splat_oracle(self.random_map(rng, n), radius)

    def test_matches_splat_oracle_on_edge_cases(self):
        rng = np.random.default_rng(3)
        for radius in range(4):
            self.assert_matches_splat_oracle(PointMap(), radius)
            self.assert_matches_splat_oracle(self.random_map(rng, 80, labeled_share=0.0), radius)
        # centres on the four image borders and in the corners
        corners = []
        for u in (0.0, 0.5, 79.5, 159.0, 159.9):
            for v in (0.0, 0.3, 59.5, 119.0, 119.9):
                x = (u - self.K.cx) * 2.0 / self.K.fx
                z = -(v - self.K.cy) * 2.0 / self.K.fy
                corners.append([x, 0.0, z])
        pmap = PointMap()
        pmap.upsert_positions(np.arange(len(corners)) * 7 + 3, np.array(corners))
        for i, pid in enumerate(pmap.ids):
            set_point(pmap, int(pid), 1 + i % 3, 0.5 + i)
        for radius in range(4):
            self.assert_matches_splat_oracle(pmap, radius)

    def test_negative_radius_rejected(self):
        with pytest.raises(ValueError):
            render_reference(PointMap(), self.pose, self.K, splat_radius=-1)


class TestMeanConfidence:
    def test_documented_three_pixel_overlap(self):
        img = np.zeros((4, 4), dtype=np.int64)
        ref = np.zeros((4, 4), dtype=np.int64)
        conf = np.zeros((4, 4))
        img[0, :3] = 4
        ref[0, :3] = 9
        conf[0, :3] = [0.5, 1.0, 1.5]
        value = mean_confidence(4, 9, img, make_render(ref, conf))
        assert value == (0.5 + 1.0 + 1.5) / 3

    def test_disjoint_masks_zero(self):
        img = np.zeros((4, 4), dtype=np.int64)
        ref = np.zeros((4, 4), dtype=np.int64)
        img[0, 0] = 1
        ref[3, 3] = 2
        assert mean_confidence(1, 2, img, make_render(ref, np.ones((4, 4)))) == 0.0

    def test_constant_weights_return_constant(self):
        rng = np.random.default_rng(0)
        img, ref, _ = random_mask_pair(rng)
        conf = np.where(ref != 0, 0.37, 0.0)
        render = make_render(ref, conf)
        if ((img == 1) & (ref == 1)).any():
            assert mean_confidence(1, 1, img, render) == pytest.approx(0.37)

    def test_zero_label_rejected(self):
        render = make_render(np.zeros((2, 2), dtype=np.int64), np.zeros((2, 2)))
        with pytest.raises(InvalidLabel):
            mean_confidence(0, 1, np.zeros((2, 2), dtype=np.int64), render)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_matches_double_loop_oracle_exactly(self, seed):
        rng = np.random.default_rng(seed)
        img, ref, conf = random_mask_pair(rng)
        render = make_render(ref, conf)
        for il in range(1, 4):
            for rl in range(1, 4):
                expected = mean_confidence_loops(il, rl, img, ref, conf)
                assert mean_confidence(il, rl, img, render) == expected


class TestAssociate:
    def test_low_coverage_mints_new_label(self):
        img = np.zeros((10, 10), dtype=np.int64)
        ref = np.zeros((10, 10), dtype=np.int64)
        ref[:, :] = 3  # 100 reference pixels
        img[0, :5] = 1  # coverage 5/100 = 0.05 < 0.2
        pmap = PointMap(next_label=4)
        res = associate(img, np.ones((10, 10)), make_render(ref, np.ones((10, 10))),
                        AssociationConfig(theta=0.2), pmap)
        assert res.mapping == {1: 4}
        assert res.new_labels == (4,)
        assert pmap.next_label == 5

    def test_highest_mean_confidence_wins(self):
        img = np.zeros((4, 8), dtype=np.int64)
        ref = np.zeros((4, 8), dtype=np.int64)
        conf = np.zeros((4, 8))
        img[0:2, :] = 1
        ref[0, :] = 5
        ref[1, :] = 6
        conf[0, :] = 0.9
        conf[1, :] = 0.4
        res = associate(img, np.ones_like(conf), make_render(ref, conf),
                        AssociationConfig(theta=0.2), PointMap(next_label=7))
        assert res.mapping == {1: 5}
        # exhaustive check over both assignments
        both = {
            5: mean_confidence_loops(1, 5, img, ref, conf),
            6: mean_confidence_loops(1, 6, img, ref, conf),
        }
        assert res.mapping[1] == max(both, key=both.get)

    def test_one_to_one_second_claimer_falls_back(self):
        img = np.zeros((6, 8), dtype=np.int64)
        ref = np.zeros((6, 8), dtype=np.int64)
        conf = np.zeros((6, 8))
        ref[0:4, :] = 9
        conf[0:4, :] = 1.0
        img[0:2, :] = 1  # overlap 16 px, mean 1.0
        img[2:4, :] = 2  # overlap 16 px, mean 1.0 (tie -> lower input first)
        pmap = PointMap(next_label=10)
        res = associate(img, np.ones_like(conf), make_render(ref, conf),
                        AssociationConfig(theta=0.2), pmap)
        assert res.mapping[1] == 9
        assert res.mapping[2] == 10  # candidates exhausted -> fresh label
        assert (res.consistent[img == 1] == 9).all()
        assert (res.consistent[img == 2] == 10).all()

    def test_descending_best_score_order(self):
        img = np.zeros((6, 10), dtype=np.int64)
        ref = np.zeros((6, 10), dtype=np.int64)
        conf = np.zeros((6, 10))
        ref[0:4, :] = 7
        conf[0:2, :] = 0.6
        conf[2:4, :] = 0.9
        img[0:2, :] = 1  # mean confidence 0.6 on ref 7
        img[2:4, :] = 2  # mean confidence 0.9 on ref 7
        res = associate(img, np.ones_like(conf), make_render(ref, conf),
                        AssociationConfig(theta=0.2), PointMap(next_label=8))
        assert res.mapping[2] == 7  # higher score claims first
        assert res.mapping[1] == 8

    def test_equal_scores_prefer_lower_reference_label(self):
        img = np.zeros((4, 8), dtype=np.int64)
        ref = np.zeros((4, 8), dtype=np.int64)
        img[0:2, :] = 1
        ref[0, :] = 6  # the same coverage, count and mean confidence as 5
        ref[1, :] = 5
        for strategy in AssociationStrategy:
            res = associate(img, np.ones((4, 8)), make_render(ref, np.full((4, 8), 0.5)),
                            AssociationConfig(theta=0.2, strategy=strategy),
                            PointMap(next_label=7))
            assert res.mapping == {1: 5}, strategy

    def test_deterministic_given_identical_inputs(self):
        rng = np.random.default_rng(77)
        img, ref, conf = random_mask_pair(rng)
        for cfg in (
            AssociationConfig(),
            AssociationConfig(strategy=AssociationStrategy.MAX_OVERLAP),
            AssociationConfig(strategy=AssociationStrategy.IOU),
        ):
            a = associate(img, np.ones_like(conf), make_render(ref, conf), cfg,
                          PointMap(next_label=50))
            b = associate(img, np.ones_like(conf), make_render(ref, conf), cfg,
                          PointMap(next_label=50))
            assert a.mapping == b.mapping
            np.testing.assert_array_equal(a.consistent, b.consistent)

    def test_strategies_agree_on_disjoint_equal_weight_overlaps(self):
        # When every input label overlaps exactly one reference label and
        # all rendered weights are equal, the mean-confidence and
        # overlap-count rankings select the same assignment.
        rng = np.random.default_rng(31)
        for _ in range(20):
            ref = np.zeros((16, 16), dtype=np.int64)
            splits = sorted(rng.choice(np.arange(2, 14), size=2, replace=False))
            ref[: splits[0], :] = 1
            ref[splits[0] : splits[1], :] = 2
            ref[splits[1] :, :] = 3
            img = ref.copy()  # overlaps are exactly the diagonal pairs
            conf = np.full(ref.shape, 0.42)
            results = {}
            for strategy in (
                AssociationStrategy.MEAN_CONFIDENCE,
                AssociationStrategy.MAX_OVERLAP,
            ):
                res = associate(
                    img,
                    np.ones_like(conf),
                    make_render(ref, conf),
                    AssociationConfig(strategy=strategy),
                    PointMap(next_label=10),
                )
                results[strategy] = res.mapping
            assert results[AssociationStrategy.MEAN_CONFIDENCE] == results[
                AssociationStrategy.MAX_OVERLAP
            ]

    @settings(max_examples=30, deadline=None)
    @given(
        st.integers(min_value=0, max_value=10_000),
        st.sampled_from(list(AssociationStrategy)),
    )
    def test_matches_naive_assignment_oracle(self, seed, strategy):
        rng = np.random.default_rng(seed)
        img, ref, conf = random_mask_pair(rng)
        cfg = AssociationConfig(theta=0.2, strategy=strategy)
        got = associate(img, np.ones_like(conf), make_render(ref, conf), cfg,
                        PointMap(next_label=100))
        expected = associate_loops(img, ref, conf, 0.2, strategy, next_label=100)
        assert got.mapping == expected


    @pytest.mark.parametrize("seed", range(6))
    def test_consistent_mask_equals_per_label_loop(self, seed):
        """The one-lookup consistent mask against one comparison per input
        label, on small, huge and negative ids, a mask with no background
        and an empty one."""
        rng = np.random.default_rng(seed)
        img, ref, conf = random_mask_pair(rng, shape=(20, 24), img_labels=5, ref_labels=4)
        if seed == 1:
            img = np.where(img != 0, img + 2**31, 0)
        elif seed == 2:
            img = img + 1
        elif seed == 3:
            img = np.zeros_like(img)
        elif seed == 4:
            img = -img
        res = associate(img, np.ones_like(conf), make_render(ref, conf),
                        AssociationConfig(theta=0.2), PointMap(next_label=100))
        expected = consistent_mask_loops(img, res.mapping)
        assert res.consistent.dtype == expected.dtype
        assert np.array_equal(res.consistent, expected)


class TestFuse:
    def setup_method(self):
        self.K = CameraIntrinsics(fx=100, fy=100, cx=80, cy=60, width=160, height=120)
        self.pose = look_at_pose(np.array([0.0, -2.0, 0.0]), np.array([0.0, 0.0, 0.0]))

    def run_single_point(self, label, weight, observed, conf_value):
        pmap = single_point_map([(np.zeros(3), label, weight)])
        render = render_reference(pmap, self.pose, self.K, splat_radius=0)
        consistent = np.zeros((120, 160), dtype=np.int64)
        conf = np.zeros((120, 160))
        consistent[60, 80] = observed
        conf[60, 80] = conf_value
        fuse(pmap, consistent, conf, render)
        return point_state(pmap, 1)

    def test_agreement_adds_confidence(self):
        point = self.run_single_point(5, 0.5, observed=5, conf_value=0.3)
        assert point.label == 5
        assert point.weight == 0.5 + 0.3

    def test_disagreement_subtracts(self):
        point = self.run_single_point(5, 0.6, observed=6, conf_value=0.4)
        assert point.label == 5
        assert point.weight == 0.6 - 0.4

    def test_sign_flip_relabels(self):
        point = self.run_single_point(5, 0.2, observed=6, conf_value=0.5)
        assert point.label == 6
        assert point.weight == 0.5

    def test_exact_cancellation_also_relabels(self):
        # Evidence driven exactly to zero adopts the observation, keeping
        # every labeled point at strictly positive weight.
        point = self.run_single_point(5, 0.5, observed=6, conf_value=0.5)
        assert point.label == 6
        assert point.weight == 0.5

    def test_unlabeled_adopts(self):
        point = self.run_single_point(0, 0.0, observed=9, conf_value=0.7)
        assert point.label == 9
        assert point.weight == 0.7

    def test_observed_label_advances_the_counter(self):
        pmap = single_point_map([(np.zeros(3), 0, 0.0)])
        render = render_reference(pmap, self.pose, self.K, splat_radius=0)
        consistent = np.zeros((120, 160), dtype=np.int64)
        consistent[60, 80] = 9
        fuse(pmap, consistent, np.full((120, 160), 0.7), render)
        assert pmap.next_label == 10

    def test_background_pixels_are_noops(self):
        point = self.run_single_point(5, 0.5, observed=0, conf_value=0.9)
        assert point.label == 5 and point.weight == 0.5

    def test_weights_stay_positive_for_labeled_points(self):
        rng = np.random.default_rng(4)
        pmap = PointMap()
        n = 60
        ids = np.arange(1, n + 1)
        pts = rng.uniform(-0.5, 0.5, size=(n, 3))
        pmap.upsert_positions(ids, pts)
        for pid in ids[: n // 2]:
            set_point(pmap, int(pid), int(rng.integers(1, 4)), float(rng.uniform(0.1, 1.0)))
        for _ in range(6):
            render = render_reference(pmap, self.pose, self.K, splat_radius=1)
            consistent = rng.integers(0, 4, size=(120, 160)).astype(np.int64)
            conf = rng.uniform(0.0, 1.0, size=(120, 160))
            fuse(pmap, consistent, conf, render)
            labeled = pmap.labels != 0
            assert np.all(pmap.weights >= 0.0)
            assert np.all(pmap.weights[labeled] > 0.0)
            assert np.all(pmap.weights[~labeled] == 0.0)

    def test_replay_same_keyframe_is_stable(self):
        rng = np.random.default_rng(8)
        pmap = PointMap()
        ids = np.arange(1, 81)
        # spread chosen so both mask regions below contain map points; an
        # input label with zero map support would mint a fresh label on
        # every pass
        pts = np.column_stack(
            [
                rng.uniform(-0.6, 1.3, size=80),
                rng.uniform(-0.1, 0.1, size=80),
                rng.uniform(-0.9, 0.3, size=80),
            ]
        )
        pmap.upsert_positions(ids, pts)
        img = np.zeros((120, 160), dtype=np.int64)
        img[20:70, 30:80] = 1
        img[70:110, 90:150] = 2
        conf = np.where(img != 0, 0.8, 0.0)
        cfg = AssociationConfig()

        render = render_reference(pmap, self.pose, self.K)
        first = associate(img, conf, render, cfg, pmap)
        fuse(pmap, first.consistent, conf, render)
        labels_after_first = pmap.labels.copy()
        weights_after_first = pmap.weights.copy()

        render = render_reference(pmap, self.pose, self.K)
        second = associate(img, conf, render, cfg, pmap)
        fuse(pmap, second.consistent, conf, render)
        assert second.mapping == first.mapping
        np.testing.assert_array_equal(pmap.labels, labels_after_first)
        assert np.all(pmap.weights >= weights_after_first)


class TestPointMapIndex:
    def test_repeated_id_rejected_by_name(self):
        pmap = PointMap()
        with pytest.raises(ValueError, match="duplicate point id 5"):
            pmap.upsert_positions([5, 3, 5], np.zeros((3, 3)))
        assert len(pmap) == 0

    def test_rows_follow_insertion_and_refresh_in_place(self):
        pmap = PointMap()
        pmap.upsert_positions([40, 7, 19], np.arange(9.0).reshape(3, 3))
        pmap.upsert_positions([19, 2, 40], -np.arange(9.0).reshape(3, 3))
        # each call appends its new points in ascending id order
        np.testing.assert_array_equal(pmap.ids, [7, 19, 40, 2])
        np.testing.assert_array_equal(pmap.positions[[1, 3, 2]], -np.arange(9.0).reshape(3, 3))
        np.testing.assert_array_equal(pmap.positions[0], [3.0, 4.0, 5.0])

    def test_snapshot_index_is_independent(self):
        pmap = PointMap()
        pmap.upsert_positions([3, 1], np.zeros((2, 3)))
        snap = pmap.snapshot()
        pmap.upsert_positions([2], np.ones((1, 3)))
        assert len(snap) == 2
        assert 2 not in snap.ids
        set_point(snap, 1, 4, 1.0)
        assert point_state(pmap, 1).label == 0 and point_state(snap, 1).label == 4
