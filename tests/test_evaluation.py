import numpy as np
import pytest

from oracles import aos_loops, aos_summed_ratios_loops, map_segments_loops, recall_suite_loops
from sgmap.errors import EmptyInput
from sgmap.evaluation import (
    GroundTruth,
    PredictedGraph,
    SegmentMapping,
    aos,
    aos_summed_ratios,
    map_segments,
    recall_suite,
)


def scatter(rng, n, center):
    return rng.normal(scale=0.2, size=(n, 3)) + np.asarray(center, dtype=float)


class TestAos:
    def test_perfect_segmentation_scores_one(self):
        rng = np.random.default_rng(0)
        gt_a = scatter(rng, 30, [0, 0, 0])
        gt_b = scatter(rng, 20, [5, 0, 0])
        gt = np.vstack([gt_a, gt_b])
        inst = np.array([1] * 30 + [2] * 20)
        labels = np.array([10] * 30 + [11] * 20)
        assert aos(gt, labels, gt, inst) == 1.0

    def test_even_split_scores_half(self):
        rng = np.random.default_rng(1)
        gt = scatter(rng, 40, [0, 0, 0])
        inst = np.ones(40, dtype=int)
        labels = np.array([1] * 20 + [2] * 20)
        assert aos(gt, labels, gt, inst) == 0.5

    def test_matches_double_loop_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(5):
            gt = rng.uniform(-2, 2, size=(60, 3))
            inst = rng.integers(1, 5, size=60)
            est = gt + rng.normal(scale=0.01, size=gt.shape)
            labels = rng.integers(1, 6, size=60)
            got = aos(est, labels, gt, inst)
            expected = aos_loops(est, labels, gt, inst)
            assert got == pytest.approx(expected, abs=1e-12)

    def test_invariant_under_label_permutation(self):
        rng = np.random.default_rng(3)
        gt = rng.uniform(-1, 1, size=(50, 3))
        inst = rng.integers(1, 4, size=50)
        labels = rng.integers(1, 5, size=50)
        base = aos(gt, labels, gt, inst)
        remap = {1: 9, 2: 4, 3: 7, 4: 1}
        relabeled = np.array([remap[int(v)] for v in labels])
        assert aos(gt, relabeled, gt, inst) == base

    def test_summed_ratio_variant_can_exceed_one(self):
        rng = np.random.default_rng(4)
        gt_a = scatter(rng, 20, [0, 0, 0])
        gt_b = scatter(rng, 20, [5, 0, 0])
        gt = np.vstack([gt_a, gt_b])
        inst = np.array([1] * 20 + [2] * 20)
        labels = np.array([3] * 20 + [4] * 20)
        assert aos_summed_ratios(gt, labels, gt, inst) == pytest.approx(2.0)
        assert aos(gt, labels, gt, inst) == 1.0

    def test_summed_ratios_match_loop_oracle(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            n = int(rng.integers(5, 60))
            gt = rng.uniform(-2, 2, size=(n, 3))
            inst = rng.choice([7, 2, 30, 5], size=n)
            est = gt + rng.normal(scale=0.05, size=gt.shape)
            labels = rng.choice([40, -3, 8, 1, 15], size=n)
            got = aos_summed_ratios(est, labels, gt, inst)
            assert got == aos_summed_ratios_loops(est, labels, gt, inst)

    def test_negative_labels_are_scored(self):
        gt = np.array([[0, 0, 0], [10, 0, 0]], dtype=float)
        inst = np.array([1, 2])
        est = np.array([[0.1, 0, 0], [0.2, 0, 0], [0.3, 0, 0], [9.9, 0, 0]])
        labels = np.array([-4, -4, 6, 6])
        assert aos(est, labels, gt, inst) == 0.75
        assert aos(est, labels, gt, inst) == aos_loops(est, labels, gt, inst)

    def test_empty_inputs_rejected(self):
        with pytest.raises(EmptyInput):
            aos(np.empty((0, 3)), np.empty(0), np.ones((2, 3)), np.ones(2))


class TestMapSegments:
    def test_label_inside_one_instance(self):
        rng = np.random.default_rng(5)
        gt = np.vstack([scatter(rng, 25, [0, 0, 0]), scatter(rng, 25, [6, 0, 0])])
        inst = np.array([1] * 25 + [2] * 25)
        est = scatter(rng, 10, [6, 0, 0])
        mapping = map_segments(est, np.full(10, 3), gt, inst)
        assert mapping.mapping == {3: 2}
        assert mapping.point_counts == {3: 10}

    def test_majority_vote(self):
        gt = np.array([[0, 0, 0], [10, 0, 0]], dtype=float)
        inst = np.array([1, 2])
        est = np.vstack([np.tile([0.1, 0, 0], (6, 1)), np.tile([9.9, 0, 0], (4, 1))])
        mapping = map_segments(est, np.full(10, 8), gt, inst)
        assert mapping.mapping == {8: 1}  # 60/40 split

    def test_tie_goes_to_lower_instance(self):
        gt = np.array([[0, 0, 0], [10, 0, 0]], dtype=float)
        inst = np.array([4, 2])
        est = np.vstack([np.tile([0.1, 0, 0], (5, 1)), np.tile([9.9, 0, 0], (5, 1))])
        mapping = map_segments(est, np.full(10, 8), gt, inst)
        assert mapping.mapping == {8: 2}

    def test_matches_vote_loop_oracle(self):
        rng = np.random.default_rng(13)
        instance_ids = np.array([9, 3, 14, 1])
        for trial in range(30):
            n_gt = int(rng.integers(2, 12))
            gt = rng.uniform(-2, 2, size=(n_gt, 3))
            inst = rng.choice(instance_ids, size=n_gt)
            # Points sit on GT points, so small even splits tie the vote.
            n = int(rng.integers(1, 40))
            est = gt[rng.integers(0, n_gt, size=n)] + rng.normal(scale=1e-6, size=(n, 3))
            labels = rng.choice([50, 7, -2, 21, 3][: 2 + trial % 4], size=n)
            got = map_segments(est, labels, gt, inst)
            mapping, counts = map_segments_loops(est, labels, gt, inst)
            assert got.mapping == mapping
            assert got.point_counts == counts

    def test_three_way_tie_goes_to_lowest_instance(self):
        gt = np.array([[0, 0, 0], [1, 0, 0], [2, 0, 0]], dtype=float)
        inst = np.array([5, 2, 9])
        est = gt[[0, 1, 2, 0, 2, 1]]
        labels = np.array([4, 4, 4, 1, 1, 1])
        got = map_segments(est, labels, gt, inst)
        assert got.mapping == {1: 2, 4: 2}
        assert (got.mapping, got.point_counts) == map_segments_loops(est, labels, gt, inst)

    def test_empty_estimate_maps_nothing(self):
        mapping = map_segments(np.empty((0, 3)), np.empty(0), np.ones((2, 3)), np.ones(2))
        assert mapping == SegmentMapping(mapping={}, point_counts={})


def build_gt():
    rng = np.random.default_rng(6)
    centers = {1: [0, 0, 0], 2: [4, 0, 0], 3: [0, 4, 0]}
    points = []
    instances = []
    for inst, center in centers.items():
        pts = scatter(rng, 15, center)
        points.append(pts)
        instances += [inst] * 15
    return GroundTruth(
        points=np.vstack(points),
        instances=np.array(instances),
        instance_classes={1: 0, 2: 1, 3: 2},
        triplets=[(2, 1, 1), (3, 2, 1)],
    )


def one_hot(idx, size):
    v = np.zeros(size)
    v[idx] = 1.0
    return v


class TestRecallSuite:
    def test_ground_truth_as_prediction_scores_one(self):
        gt = build_gt()
        mapping = SegmentMapping(
            mapping={10: 1, 20: 2, 30: 3}, point_counts={10: 15, 20: 15, 30: 15}
        )
        pred = PredictedGraph(
            node_probs={10: one_hot(0, 3), 20: one_hot(1, 3), 30: one_hot(2, 3)},
            edge_probs={(20, 10): one_hot(1, 3), (30, 10): one_hot(2, 3)},
        )
        for include_none in (True, False):
            out = recall_suite(pred, mapping, gt, include_none=include_none)
            assert all(v == 1.0 for v in out.values()), out

    def test_half_right_classes(self):
        gt = GroundTruth(
            points=np.vstack([scatter(np.random.default_rng(7), 10, [0, 0, 0]),
                              scatter(np.random.default_rng(8), 30, [5, 0, 0])]),
            instances=np.array([1] * 10 + [2] * 30),
            instance_classes={1: 0, 2: 1},
            triplets=[],
        )
        mapping = SegmentMapping(mapping={5: 1, 6: 2}, point_counts={5: 10, 6: 30})
        pred = PredictedGraph(
            node_probs={5: one_hot(0, 3), 6: one_hot(0, 3)},  # 6 is wrong
            edge_probs={},
        )
        out = recall_suite(pred, mapping, gt)
        assert out["recall_obj"] == 0.5  # one of two instances
        assert out["mrecall_obj"] == 0.5  # class 0 right, class 1 wrong

    def test_largest_segment_represents_instance(self):
        gt = build_gt()
        mapping = SegmentMapping(
            mapping={10: 1, 11: 1, 20: 2, 30: 3},
            point_counts={10: 3, 11: 40, 20: 15, 30: 15},
        )
        pred = PredictedGraph(
            node_probs={
                10: one_hot(0, 3),  # small segment correct
                11: one_hot(2, 3),  # big segment wrong
                20: one_hot(1, 3),
                30: one_hot(2, 3),
            },
            edge_probs={},
        )
        out = recall_suite(pred, mapping, gt, include_none=False)
        assert out["recall_obj"] == pytest.approx(2 / 3)

    def test_matches_counting_oracle_on_random_cases(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            n_inst = int(rng.integers(2, 6))
            classes = {i + 1: int(rng.integers(0, 3)) for i in range(n_inst)}
            triplets = []
            for a in classes:
                for b in classes:
                    if a != b and rng.random() < 0.3:
                        triplets.append((a, int(rng.integers(1, 3)), b))
            gt = GroundTruth(
                points=rng.uniform(-1, 1, size=(n_inst * 5, 3)),
                instances=np.repeat(list(classes), 5),
                instance_classes=classes,
                triplets=triplets,
            )
            reps = {inst: 100 + inst for inst in classes}
            mapping = SegmentMapping(
                mapping={100 + inst: inst for inst in classes},
                point_counts={100 + inst: 5 for inst in classes},
            )
            node_probs = {}
            node_top1 = {}
            for inst in classes:
                cls = int(rng.integers(0, 3))
                node_probs[100 + inst] = one_hot(cls, 3)
                node_top1[100 + inst] = cls
            edge_probs = {}
            edge_top1 = {}
            for a in classes:
                for b in classes:
                    if a != b and rng.random() < 0.6:
                        p = int(rng.integers(0, 3))
                        edge_probs[(100 + a, 100 + b)] = one_hot(p, 3)
                        edge_top1[(100 + a, 100 + b)] = p
            pred = PredictedGraph(node_probs=node_probs, edge_probs=edge_probs)
            for include_none in (True, False):
                got = recall_suite(pred, mapping, gt, include_none=include_none)
                expected = recall_suite_loops(
                    node_top1, edge_top1, reps, classes, triplets, include_none
                )
                for key in expected:
                    assert got[key] == pytest.approx(expected[key], abs=1e-12), key
