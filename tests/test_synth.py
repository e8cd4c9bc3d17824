import hashlib
from pathlib import Path

import numpy as np
import pytest

from oracles import read_dot, render_instance_mask_offsets
from sgmap import seqio, synth
from sgmap.errors import SceneSpecError
from sgmap.geometry import CameraIntrinsics, RigidPose, look_at_pose, project_points
from sgmap.synth import (
    NODE_CLASS_NAMES,
    PREDICATE_NAMES,
    PrimitiveSpec,
    SampledScene,
    SceneSpec,
)


def one_box_scene(seed=5):
    pose = look_at_pose(np.array([0.0, -2.0, 1.0]), np.array([0.0, 0.0, 0.25]))
    return SceneSpec(
        seed=seed,
        primitives=(
            PrimitiveSpec(
                kind="box",
                class_id=NODE_CLASS_NAMES.index("box"),
                instance=1,
                center=(0.0, 0.0, 0.25),
                dims=(0.5, 0.5, 0.5),
                density=400.0,
            ),
        ),
        intrinsics=synth.desk_intrinsics(),
        poses=(pose,),
    )


def dir_digest(root):
    digest = hashlib.sha256()
    for path in sorted(Path(root).rglob("*")):
        if path.is_file():
            digest.update(str(path.relative_to(root)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


class TestGenerate:
    def test_one_box_single_frame(self, tmp_path):
        out = tmp_path / "seq"
        info = synth.generate(one_box_scene(), out)
        assert info["instances"] == 1
        seq = seqio.read_sequence(out)
        mask = seq.frames[0].labels()
        assert set(np.unique(mask)) == {0, 1}
        classes, triplets, names, predicates = seqio.read_gt_graph(seq.gt_graph_path)
        assert classes == {1: NODE_CLASS_NAMES.index("box")}
        assert triplets == []
        assert names == NODE_CLASS_NAMES and predicates == PREDICATE_NAMES

    def test_box_on_plane_standing_predicate(self, tmp_path):
        pose = look_at_pose(np.array([0.0, -2.0, 1.0]), np.array([0.0, 0.0, 0.2]))
        spec = SceneSpec(
            seed=3,
            primitives=(
                PrimitiveSpec(
                    kind="plane", class_id=0, instance=1,
                    center=(0.0, 0.0, 0.0), dims=(2.0, 2.0, 0.0), density=200.0,
                ),
                PrimitiveSpec(
                    kind="box", class_id=2, instance=2,
                    center=(0.0, 0.0, 0.25), dims=(0.5, 0.5, 0.5), density=300.0,
                ),
            ),
            intrinsics=synth.desk_intrinsics(),
            poses=(pose,),
        )
        triplets = synth.derive_support_triplets(spec)
        standing = PREDICATE_NAMES.index("standing_on")
        assert (2, standing, 1) in triplets
        assert all(not (s == 1 and o == 2) for (s, p, o) in triplets)

    def test_adjacent_boxes_attached(self):
        spec = SceneSpec(
            seed=1,
            primitives=(
                PrimitiveSpec(kind="box", class_id=2, instance=1,
                              center=(0.0, 0.0, 0.25), dims=(0.5, 0.5, 0.5), density=100.0),
                PrimitiveSpec(kind="box", class_id=2, instance=2,
                              center=(0.505, 0.0, 0.25), dims=(0.5, 0.5, 0.5), density=100.0),
            ),
            intrinsics=synth.desk_intrinsics(),
            poses=(look_at_pose(np.array([0, -2, 1.0]), np.array([0, 0, 0.25])),),
        )
        attached = PREDICATE_NAMES.index("attached_to")
        triplets = synth.derive_support_triplets(spec)
        assert (1, attached, 2) in triplets and (2, attached, 1) in triplets

    def test_same_seed_byte_identical(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        spec = synth.desk_scene(seed=11, frames=3)
        synth.generate(spec, a)
        synth.generate(spec, b)
        assert dir_digest(a) == dir_digest(b)

    def test_different_seed_differs(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        synth.generate(one_box_scene(seed=5), a)
        synth.generate(one_box_scene(seed=6), b)
        assert dir_digest(a) != dir_digest(b)

    def test_masks_consistent_with_point_projection(self, tmp_path):
        out = tmp_path / "seq"
        spec = synth.desk_scene(seed=9, frames=2)
        synth.generate(spec, out)
        seq = seqio.read_sequence(out)
        scene = synth.sample_scene(spec)
        frame = seq.frames[0]
        mask = frame.labels()
        pose = frame.pose()
        # wherever a point is the nearest at its own pixel, the mask shows
        # its instance
        checked = 0
        sample = np.arange(0, len(scene.positions), 37)
        uv, _depth, visible = project_points(scene.positions[sample], pose, seq.intrinsics)
        for idx, (u, v), seen in zip(sample, uv, visible):
            if not seen:
                continue
            label = mask[int(v), int(u)]
            if label == scene.instances[idx]:
                checked += 1
        assert checked > 20

    def test_confidence_mask_zero_on_background(self, tmp_path):
        out = tmp_path / "seq"
        synth.generate(one_box_scene(), out)
        seq = seqio.read_sequence(out)
        mask = seq.frames[0].labels()
        conf = seq.frames[0].confidence()
        assert np.all(conf[mask == 0] == 0.0)
        assert np.all(conf[mask != 0] > 0.0)
        assert conf.max() <= 1.0

    def test_birth_frames_delay_observations(self, tmp_path):
        out = tmp_path / "seq"
        spec = synth.stress_scene_nonuniform()
        synth.generate(spec, out)
        seq = seqio.read_sequence(out)
        ids0, _ = seq.frames[0].points()
        ids1, _ = seq.frames[1].points()
        assert len(ids1) > len(ids0) * 2  # the late carpet zone is large

    def test_invalid_specs_rejected(self):
        with pytest.raises(SceneSpecError):
            PrimitiveSpec(kind="sphere", class_id=0, instance=1,
                          center=(0, 0, 0), dims=(1, 1, 1))
        with pytest.raises(SceneSpecError):
            PrimitiveSpec(kind="box", class_id=0, instance=0,
                          center=(0, 0, 0), dims=(1, 1, 1))
        with pytest.raises(SceneSpecError):
            SceneSpec(
                seed=0,
                primitives=(),
                intrinsics=synth.desk_intrinsics(),
                poses=(look_at_pose(np.array([0, -1, 0.0]), np.zeros(3)),),
            )


def random_scene(rng, n, radii):
    """``n`` points in and around the view of a 40x30 camera at the origin
    looking along +z: some behind it, some beyond the border, a quarter
    sharing the position of another point and a quarter sharing another's
    depth, with splat radii drawn from ``radii``."""
    positions = rng.uniform([-2.5, -2.0, -0.5], [2.5, 2.0, 3.0], size=(n, 3))
    twins = rng.choice(n, size=(n // 4, 2))
    positions[twins[:, 0]] = positions[twins[:, 1]]
    level = rng.choice(n, size=(n // 4, 2))
    positions[level[:, 0], 2] = positions[level[:, 1], 2]
    return SampledScene(
        positions=positions,
        instances=rng.integers(1, 9, size=n),
        classes=np.zeros(n, dtype=np.int64),
        birth_frames=np.zeros(n, dtype=np.int64),
        mask_splats=rng.choice(radii, size=n),
        instance_classes={},
    )


class TestInstanceMask:
    """The synth mask against the per-offset reference splat."""

    INTRINSICS = CameraIntrinsics(fx=24.0, fy=24.0, cx=20.0, cy=15.0, width=40, height=30)
    POSE = RigidPose(rotation=np.eye(3), translation=np.zeros(3))

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_offset_oracle_on_random_scenes(self, seed):
        rng = np.random.default_rng(seed)
        radii = [[0], [2], [1, 3], [0, 2, 7]][seed % 4]
        scene = random_scene(rng, int(rng.integers(1, 300)), radii)
        got = synth._render_instance_mask(scene, self.POSE, self.INTRINSICS)
        want = render_instance_mask_offsets(scene, self.POSE, self.INTRINSICS)
        np.testing.assert_array_equal(got, want)

    def test_edge_cases(self):
        rng = np.random.default_rng(9)
        behind = random_scene(rng, 20, [2])
        behind.positions[:, 2] = -1.0
        corners = random_scene(rng, 4, [7])
        corners.positions = np.array(
            [[-0.8333, -0.625, 1.0], [0.8, 0.6, 1.0], [-0.8333, 0.6, 1.0], [0.8, -0.625, 1.0]]
        )
        stacked = random_scene(rng, 6, [0, 5])
        stacked.positions[:] = [0.1, 0.1, 1.5]  # one pixel, one depth: least index wins
        for scene in (behind, corners, stacked):
            got = synth._render_instance_mask(scene, self.POSE, self.INTRINSICS)
            want = render_instance_mask_offsets(scene, self.POSE, self.INTRINSICS)
            np.testing.assert_array_equal(got, want)
        assert not synth._render_instance_mask(behind, self.POSE, self.INTRINSICS).any()


class TestSeqIo:
    def test_pgm_round_trip(self, tmp_path):
        raster = np.random.default_rng(0).integers(0, 65536, size=(7, 9))
        path = tmp_path / "x.pgm"
        seqio.write_pgm16(path, raster)
        np.testing.assert_array_equal(seqio.read_pgm16(path), raster)

    def test_pose_round_trip(self, tmp_path):
        pose = look_at_pose(np.array([1.0, -2.0, 0.5]), np.array([0.2, 0.1, 0.0]))
        path = tmp_path / "f.pose"
        seqio.write_pose(path, pose)
        loaded = seqio.read_pose(path)
        np.testing.assert_array_equal(loaded.rotation, pose.rotation)
        np.testing.assert_array_equal(loaded.translation, pose.translation)

    def test_points_round_trip(self, tmp_path):
        rng = np.random.default_rng(1)
        ids = rng.integers(0, 10_000, size=25)
        pts = rng.normal(size=(25, 3))
        path = tmp_path / "f.points"
        seqio.write_points(path, ids, pts)
        rids, rpts = seqio.read_points(path)
        np.testing.assert_array_equal(rids, ids)
        np.testing.assert_array_equal(rpts, pts)

    def test_features_round_trip(self, tmp_path):
        table = {3: np.array([0.5, -1.25, 3.0]), 9: np.array([0.0, 0.125, -2.5])}
        path = tmp_path / "f.feat"
        seqio.write_features(path, table)
        loaded = seqio.read_features(path)
        assert set(loaded) == {3, 9}
        for key in table:
            np.testing.assert_array_equal(loaded[key], table[key])

    def test_ply_round_trip(self, tmp_path):
        rng = np.random.default_rng(2)
        pts = rng.normal(size=(30, 3))
        labels = rng.integers(1, 6, size=30)
        weights = rng.uniform(0, 3, size=30)
        path = tmp_path / "map.ply"
        seqio.write_labeled_ply(path, pts, {"label": labels, "weight": weights})
        rpts, cols = seqio.read_labeled_ply(path)
        np.testing.assert_array_equal(rpts, pts)
        np.testing.assert_array_equal(cols["label"], labels)
        np.testing.assert_array_equal(cols["weight"], weights)
        assert cols["label"].dtype == np.int64

    def test_malformed_points_reports_line(self, tmp_path):
        path = tmp_path / "bad.points"
        # ``#`` is data, not a comment
        for text in ("1 0.0 0.0 0.0\n2 nope 0.0 0.0\n", "1 0 0 0\n2 0 0 0 # x\n"):
            path.write_text(text)
            with pytest.raises(seqio.SequenceFormatError) as err:
                seqio.read_points(path)
            assert "bad.points:2: expected 'id x y z'" in str(err.value)

    def test_ragged_points_lines_rejected(self, tmp_path):
        path = tmp_path / "ragged.points"
        # blank and whitespace-only lines count toward the line number
        for text, line in (
            ("1 0.1 0.2\n2 0.3 0.4 0.5 0.6\n", 1),
            ("\n1 0 0 0\n   \n\n2 0 0\n3 0 0 0\n", 5),
        ):
            path.write_text(text)
            with pytest.raises(seqio.SequenceFormatError) as err:
                seqio.read_points(path)
            assert f"ragged.points:{line}:" in str(err.value)

    def test_point_ids_parse_exactly_above_2_53(self, tmp_path):
        path = tmp_path / "big.points"
        for text in ("9007199254740993 0 0 0\n9007199254740992 1 1 1\n",
                     "9007199254740993 0 0 0\n\n9007199254740992 1 1 1"):
            path.write_text(text)
            ids, positions = seqio.read_points(path)
            assert ids.dtype == np.int64
            assert ids.tolist() == [9007199254740993, 9007199254740992]
            np.testing.assert_array_equal(positions, [[0, 0, 0], [1, 1, 1]])

    def test_fractional_point_id_rejected(self, tmp_path):
        path = tmp_path / "frac.points"
        path.write_text("2 0 0 0\n1.7 0 0 0\n")
        with pytest.raises(seqio.SequenceFormatError) as err:
            seqio.read_points(path)
        assert "frac.points:2" in str(err.value)

    def test_repeated_point_id_rejected(self, tmp_path):
        path = tmp_path / "dup.points"
        # the one-pass reader and the line reader (blank line) both name the
        # line of the repeat
        for text, line in (("4 0 0 0\n9 1 1 1\n4 2 2 2\n", 3), ("4 0 0 0\n\n9 1 1 1\n4 2 2 2", 4)):
            path.write_text(text)
            with pytest.raises(seqio.SequenceFormatError) as err:
                seqio.read_points(path)
            assert f"dup.points:{line}: point id 4 repeats line 1" in str(err.value)

    def test_non_finite_coordinate_rejected(self, tmp_path):
        path = tmp_path / "nan.points"
        # the one-pass reader and the line reader (blank line) both name the
        # line of the first non-finite coordinate
        for bad in ("nan", "inf", "-inf", "1e999"):
            for text, line in (
                (f"4 0 0 0\n9 1 {bad} 1\n5 2 2 2\n", 2),
                (f"4 0 0 0\n\n9 1 1 1\n5 2 2 {bad}", 4),
            ):
                path.write_text(text)
                with pytest.raises(seqio.SequenceFormatError) as err:
                    seqio.read_points(path)
                assert "nan.points:" + str(line) + ": point" in str(err.value)
                assert "non-finite" in str(err.value)

    def test_blank_points_file_is_empty(self, tmp_path):
        path = tmp_path / "blank.points"
        for text in ("", "\n", " \n\t\n"):
            path.write_text(text)
            ids, positions = seqio.read_points(path)
            assert ids.dtype == np.int64 and ids.shape == (0,)
            assert positions.shape == (0, 3)

    @pytest.mark.parametrize(
        "text, line",
        [
            ("3 0.5 1.0\n4 x 1.0\n", 2),
            ("3 0.5 1.0\n\n4 0.5\n", 3),
            ("3 0.5 1.0\n4 0.5 1.0 2.0\n", 2),
            ("3.5 0.5 1.0\n", 1),
        ],
    )
    def test_malformed_features_report_line(self, tmp_path, text, line):
        path = tmp_path / "f.feat"
        path.write_text(text)
        with pytest.raises(seqio.SequenceFormatError) as err:
            seqio.read_features(path)
        assert f"f.feat:{line}: expected 'label and 2 values'" in str(err.value)

    @pytest.mark.parametrize("bad", ["short", "text", "float-int"])
    def test_malformed_ply_row_reports_line_after_header(self, tmp_path, bad):
        path = tmp_path / "map.ply"
        seqio.write_labeled_ply(path, np.arange(12.0).reshape(4, 3), {"label": np.arange(4)})
        lines = path.read_text().splitlines()
        row = lines.index("end_header") + 3  # the third body row, 0-based
        cells = lines[row].split()
        cells = {
            "short": cells[:-1],
            "text": cells[:1] + ["x"] + cells[2:],
            "float-int": cells[:-1] + ["2.5"],
        }[bad]
        lines[row] = " ".join(cells)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(seqio.SequenceFormatError) as err:
            seqio.read_labeled_ply(path)
        assert f"map.ply:{row + 1}: expected 'x y z label'" in str(err.value)

    def test_ply_header_without_end_rejected(self, tmp_path):
        path = tmp_path / "map.ply"
        seqio.write_labeled_ply(path, np.zeros((1, 3)), {"label": np.arange(1)})
        path.write_text(path.read_text().replace("end_header\n", "\n"))
        with pytest.raises(seqio.SequenceFormatError) as err:
            seqio.read_labeled_ply(path)
        assert "map.ply: no end_header line" in str(err.value)

    def test_ply_with_fewer_rows_than_promised(self, tmp_path):
        path = tmp_path / "map.ply"
        seqio.write_labeled_ply(path, np.zeros((3, 3)), {"label": np.arange(3)})
        path.write_text(path.read_text().replace("element vertex 3", "element vertex 4"))
        with pytest.raises(seqio.SequenceFormatError) as err:
            seqio.read_labeled_ply(path)
        assert "header promises 4 vertices, found 3" in str(err.value)

    def test_raster_of_wrong_shape_rejected_when_read(self, tmp_path):
        out = tmp_path / "seq"
        synth.generate(one_box_scene(), out)
        frame = seqio.read_sequence(out).frames[0]
        height, width = frame.labels().shape
        assert frame.shape == (height, width)
        for path, read in ((frame.labels_path, frame.labels), (frame.conf_path, frame.confidence)):
            good = path.read_bytes()
            seqio.write_pgm16(path, np.zeros((height - 1, width), dtype=np.int64))
            with pytest.raises(seqio.SequenceFormatError) as err:
                read()
            assert path.name in str(err.value)
            assert f"{width}x{height - 1}" in str(err.value)
            path.write_bytes(good)

    def test_missing_frame_file_reported(self, tmp_path):
        out = tmp_path / "seq"
        synth.generate(one_box_scene(), out)
        (out / "frames" / "000000.conf.pgm").unlink()
        with pytest.raises(seqio.SequenceFormatError) as err:
            seqio.read_sequence(out)
        assert "conf.pgm" in str(err.value)

    def test_gt_graph_round_trip(self, tmp_path):
        path = tmp_path / "gt_graph.json"
        seqio.write_gt_graph(
            path, {1: 0, 2: 3}, [(1, 2, 2)], NODE_CLASS_NAMES, PREDICATE_NAMES
        )
        classes, triplets, names, preds = seqio.read_gt_graph(path)
        assert classes == {1: 0, 2: 3}
        assert triplets == [(1, 2, 2)]
        assert names == NODE_CLASS_NAMES and preds == PREDICATE_NAMES

    def test_dot_round_trip(self, tmp_path):
        path = tmp_path / "graph.dot"
        nodes = [(3, "3:table"), (1, "1:floor")]
        edges = [(3, 1, "standing_on"), (1, 3, "attached_to")]
        seqio.write_dot(path, nodes, edges)
        rnodes, redges = read_dot(path)
        assert rnodes == sorted(nodes)
        assert redges == sorted(edges)
