"""Micro-benchmarks of the keyframe path's layers on fixed inputs.

They are kept out of the test suite (``testpaths = ["tests"]``), since
timings are noisy.  Run them from the root of a checkout with

    python -m pytest benchmarks/ --benchmark-only

Each input is built from a fixed seed, so runs are comparable.
"""

import copy

import numpy as np
import pytest

from sgmap.entity_map import PointMap, render_reference
from sgmap.geometry import (
    CameraIntrinsics,
    NeighbourCache,
    fit_obb,
    look_at_pose,
    outlier_mask,
)

# One entity of about the size a desk-large label has: 745 points, of which
# a keyframe removes 6 and adds 6.
ENTITY_POINTS = 745
TICK_CHANGE = 6


def entity_points(seed=0, n=ENTITY_POINTS):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(n, 3)) * [0.4, 0.25, 0.1] + [0.0, 0.0, 0.7]


@pytest.fixture(scope="module")
def keyframe_map():
    """3000 points in front of a 320x240 camera, two thirds labeled."""
    rng = np.random.default_rng(1)
    n = 3000
    pmap = PointMap()
    pmap.upsert_positions(rng.permutation(4 * n)[:n], rng.normal(size=(n, 3)) * [0.8, 0.3, 0.5])
    for pid in pmap.ids[: 2 * n // 3]:
        pmap.set_point(int(pid), int(pid) % 5 + 1, 1.0)
    intrinsics = CameraIntrinsics(fx=288.0, fy=288.0, cx=160.0, cy=120.0, width=320, height=240)
    pose = look_at_pose(np.array([0.0, -2.5, 0.4]), np.zeros(3))
    return pmap, pose, intrinsics


def test_render_reference(benchmark, keyframe_map):
    pmap, pose, intrinsics = keyframe_map
    benchmark(render_reference, pmap, pose, intrinsics, splat_radius=2)


def test_outlier_mask_from_scratch(benchmark):
    points = entity_points()
    benchmark(outlier_mask, points)


def test_outlier_mask_repaired(benchmark):
    points = entity_points(n=ENTITY_POINTS + TICK_CHANGE)
    keys = np.arange(len(points))
    before = NeighbourCache()
    outlier_mask(points[:ENTITY_POINTS], keys=keys[:ENTITY_POINTS], neighbours=before)
    # the next tick: the first points leave, as many new ones arrive
    after = slice(TICK_CHANGE, None)

    def setup():
        return (points[after],), {"keys": keys[after], "neighbours": copy.copy(before)}

    benchmark.pedantic(outlier_mask, setup=setup, rounds=200)


def test_fit_obb(benchmark):
    points = entity_points()
    benchmark(fit_obb, points)


def test_upsert_positions(benchmark, keyframe_map):
    pmap, _, _ = keyframe_map
    rng = np.random.default_rng(2)
    # a frame: 2500 known points in file order, 100 of them moved, 100 new
    ids = np.concatenate([rng.permutation(pmap.ids)[:2500], np.arange(10**6, 10**6 + 100)])
    positions = np.vstack([pmap.positions[pmap.rows_of(ids[:2500])], rng.normal(size=(100, 3))])
    positions[rng.choice(2500, 100, replace=False)] += 0.01

    def setup():
        return (pmap.snapshot(), ids, positions), {}

    benchmark.pedantic(lambda m, i, p: m.upsert_positions(i, p), setup=setup, rounds=200)
