"""Micro-benchmarks of the keyframe path's layers on fixed inputs.

They are kept out of the test suite (``testpaths = ["tests"]``), since
timings are noisy.  Run them from the root of a checkout with

    python -m pytest benchmarks/ --benchmark-only

Each input is built from a fixed seed, so runs are comparable.  pytest puts
``pyproject.toml``'s ``pythonpath = ["src"]`` ahead of ``PYTHONPATH``, so
``PYTHONPATH=<other checkout>/src`` still times this checkout's sources: to
time another commit, run pytest from inside a checkout of it.
"""

import copy

import numpy as np
import pytest

from sgmap import seqio, synth
from sgmap.entity_map import AssociationConfig, PointMap, associate, fuse, render_reference
from sgmap.geometry import (
    CameraIntrinsics,
    NeighbourCache,
    fit_obb,
    look_at_pose,
    outlier_mask,
)
from sgmap.graph_extract import EntityNode, build_neighbour, select_keyframe
from sgmap.ssgp import edge_geometry_rows

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
    labeled = slice(2 * n // 3)
    pmap.labels[labeled] = pmap.ids[labeled] % 5 + 1
    pmap.weights[labeled] = 1.0
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
    rows = rng.permutation(len(pmap))[:2500]
    ids = np.concatenate([pmap.ids[rows], np.arange(10**6, 10**6 + 100)])
    positions = np.vstack([pmap.positions[rows], rng.normal(size=(100, 3))])
    positions[rng.choice(2500, 100, replace=False)] += 0.01

    def setup():
        return (pmap.snapshot(), ids, positions), {}

    benchmark.pedantic(lambda m, i, p: m.upsert_positions(i, p), setup=setup, rounds=200)


def test_associate_and_fuse(benchmark, keyframe_map, stream_gate):
    """One keyframe's label fusion: render the map, match the four labels
    of the stream mask against it and fold the mask in."""
    pmap, pose, intrinsics = keyframe_map
    mask = stream_gate[3]
    conf = np.where(mask != 0, 0.8, 0.0)

    def label_fusion(target):
        render = render_reference(target, pose, intrinsics, splat_radius=2)
        result = associate(mask, conf, render, AssociationConfig(), target)
        fuse(target, result.consistent, conf, render)
        return result

    assert sorted(label_fusion(pmap.snapshot()).mapping) == [1, 2, 3, 4]
    benchmark.pedantic(label_fusion, setup=lambda: ((pmap.snapshot(),), {}), rounds=200)


@pytest.fixture(scope="module")
def clutter_nodes():
    """17 entities, as many as the clutter workload has: a floor and a 4x4
    grid of small boxes, 193 points each on average.  At the stock 0.5 m
    margin every pair of boxes collides: 272 directed edges, about the 271
    per back-end tick of that workload."""
    rng = np.random.default_rng(3)
    floor = rng.uniform(-1.5, 1.5, size=(600, 3)) * [1.0, 1.0, 0.0]
    point_sets = [floor]
    for row in range(4):
        for col in range(4):
            side = 0.2 + 0.02 * ((row + col) % 3)
            center = [-0.45 + 0.3 * col, -0.45 + 0.3 * row, side / 2.0]
            point_sets.append(rng.uniform(-side / 2, side / 2, size=(168, 3)) + center)
    return [
        EntityNode(label=i + 1, positions=p, obb=fit_obb(p))
        for i, p in enumerate(point_sets)
    ]


def test_neighbour_graph_and_edge_rows(benchmark, clutter_nodes):
    def edge_stage(nodes):
        src, dst = build_neighbour(nodes, margin=0.5)
        return edge_geometry_rows([n.obb for n in nodes], [n.positions for n in nodes], src, dst)

    assert edge_stage(clutter_nodes).shape == (272, 12)
    benchmark(edge_stage, clutter_nodes)


@pytest.fixture(scope="module")
def stream_gate():
    """66 keyframe poses on the ring of the stream workload, a 320x240 mask
    of a floor, a table and two boxes with ragged splat edges, and a
    candidate pose above the ring, which passes the pose test."""
    center = np.array([0.0, 0.0, 0.35])
    poses = [
        look_at_pose(center + [1.9 * np.cos(a), 1.9 * np.sin(a), 1.3], center)
        for a in np.linspace(0.0, 2.0 * np.pi, 66, endpoint=False)
    ]
    rotations = np.array([p.rotation for p in poses])
    translations = np.array([p.translation for p in poses])
    rng = np.random.default_rng(4)
    mask = np.zeros((240, 320), dtype=np.int64)
    for label, (r0, r1, c0, c1) in enumerate(
        [(90, 240, 0, 320), (100, 190, 60, 260), (70, 120, 120, 170), (150, 210, 250, 300)], 1
    ):
        for r in range(r0, r1):
            jag = rng.integers(-2, 3, size=2)
            mask[r, max(c0 + jag[0], 0):c1 + jag[1]] = label
    candidate = look_at_pose(center + [1.9, 0.0, 2.0], center)
    return candidate, rotations, translations, mask


def test_keyframe_gate_and_label_table(benchmark, stream_gate):
    reason, table = select_keyframe(*stream_gate, min_box_px=40)
    assert reason is None and sorted(table) == [1, 2, 3, 4]
    benchmark(select_keyframe, *stream_gate, min_box_px=40)


@pytest.fixture(scope="module")
def points_file(tmp_path_factory):
    """A frame file of 2,584 points written as ``sgmap synth`` writes them."""
    rng = np.random.default_rng(5)
    path = tmp_path_factory.mktemp("frame") / "000000.points"
    seqio.write_points(path, rng.permutation(4000)[:2584], rng.normal(size=(2584, 3)))
    return path


def test_read_points(benchmark, points_file):
    ids, positions = seqio.read_points(points_file)
    assert positions.shape == (2584, 3)
    benchmark(seqio.read_points, points_file)


def test_read_points_next_frame(benchmark, points_file):
    """The next frame read against the memory of ``points_file``: the same
    points in another order, 6 of them moved."""
    rng = np.random.default_rng(6)
    ids, positions = seqio.read_points(points_file)
    order = rng.permutation(len(ids))
    moved = positions.copy()
    moved[order[:TICK_CHANGE]] += 0.01
    next_file = points_file.with_name("000001.points")
    seqio.write_points(next_file, ids[order], moved[order])
    memory = seqio.PointsMemory()
    seqio.read_points(points_file, memory)
    assert seqio.read_points(next_file, copy.copy(memory))[1].tobytes() == moved[order].tobytes()

    def setup():
        return (next_file, copy.copy(memory)), {}

    benchmark.pedantic(seqio.read_points, setup=setup, rounds=200)


def test_synth_instance_mask(benchmark):
    """One 160x120 label mask of the desk scene (seed 7), first pose."""
    spec = synth.desk_scene(seed=7)
    scene = synth.sample_scene(spec)
    benchmark(synth._render_instance_mask, scene, spec.poses[0], spec.intrinsics)
