import dataclasses
import json
import shutil
from pathlib import Path

import numpy as np
import pytest

from oracles import read_dot
from sgmap import graph_extract, seqio, synth
from sgmap.cli import main
from sgmap.geometry import look_at_pose
from sgmap.pipeline import PipelineConfig, replay_frontend, run_sequence
from sgmap.ssgp import init_weights, save_weights


@pytest.fixture(scope="module")
def desk_sequence(tmp_path_factory):
    out = tmp_path_factory.mktemp("seq") / "desk"
    synth.generate(synth.desk_scene(seed=7, frames=8), out)
    return out


@pytest.fixture()
def small_config(tmp_path):
    config = PipelineConfig(min_box_px=12, node_dim=16, edge_dim=16, hidden_dim=16)
    path = tmp_path / "config.json"
    config.save(path)
    return config, path


class TestPipelineConfig:
    def test_round_trip(self, tmp_path):
        config = PipelineConfig(theta=0.25, strategy="iou", min_box_px=42)
        path = tmp_path / "c.json"
        config.save(path)
        assert PipelineConfig.load(path) == config

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"not_a_knob": 3}))
        with pytest.raises(ValueError):
            PipelineConfig.load(path)

    def test_defaults_match_documented_values(self):
        c = PipelineConfig()
        assert (c.theta, c.rho, c.omega_max, c.layers) == (0.2, 0.5, 100.0, 2)
        assert (c.rot_thresh_deg, c.trans_thresh_m, c.min_box_px) == (5.0, 0.3, 200)


class TestRunSequence:
    def test_outputs_and_round_trips(self, desk_sequence, small_config, tmp_path):
        config, _ = small_config
        out = tmp_path / "out"
        summary = run_sequence(desk_sequence, out, config)
        assert summary["keyframes"] > 0
        assert summary["graph_nodes"] > 0

        positions, columns = seqio.read_labeled_ply(out / "map.ply")
        assert len(positions) == summary["labeled_points"]
        assert np.all(columns["weight"] > 0)

        doc = json.loads((out / "scene_graph.json").read_text())
        for node in doc["nodes"]:
            assert set(node) == {"label", "class_id", "class_probs", "weight", "obb"}
            assert sum(node["class_probs"]) == pytest.approx(1.0, abs=1e-6)
        node_labels = {n["label"] for n in doc["nodes"]}
        for edge in doc["edges"]:
            assert edge["from"] in node_labels and edge["to"] in node_labels
            assert edge["from"] != edge["to"]

        dot_nodes, dot_edges = read_dot(out / "graph.dot")
        assert {label for label, _ in dot_nodes} == node_labels
        for src, dst, _pred in dot_edges:
            assert src in node_labels and dst in node_labels
        timings = json.loads((out / "timings.json").read_text())
        assert {"label_fusion", "graph_estimation"} <= set(timings)
        for stage in timings.values():
            assert set(stage) == {"count", "mean_ms", "p50_ms", "p95_ms", "max_ms"}
        metrics = json.loads((out / "metrics.json").read_text())
        assert 0.0 <= metrics["aos"] <= 1.0

    def test_replay_is_byte_identical(self, desk_sequence, small_config, tmp_path):
        config, _ = small_config
        a = tmp_path / "a"
        b = tmp_path / "b"
        run_sequence(desk_sequence, a, config)
        run_sequence(desk_sequence, b, config)
        for name in ("scene_graph.json", "map.ply", "graph.dot", "metrics.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes(), name

    def test_explicit_weights_file(self, desk_sequence, small_config, tmp_path):
        config, _ = small_config
        weights = init_weights(config.network(), seed=99)
        wpath = tmp_path / "weights.json"
        save_weights(weights, wpath)
        out = tmp_path / "out"
        summary = run_sequence(desk_sequence, out, config, weights_path=wpath)
        assert summary["graph_nodes"] > 0

    def test_single_entity_scene_exports_one_argmax_node(self, tmp_path):
        from test_synth import one_box_scene

        seq_dir = tmp_path / "seq"
        synth.generate(one_box_scene(seed=4), seq_dir)
        config = PipelineConfig(
            min_box_px=12, node_dim=16, edge_dim=16, hidden_dim=16, min_points=5
        )
        out = tmp_path / "out"
        run_sequence(seq_dir, out, config)
        doc = json.loads((out / "scene_graph.json").read_text())
        assert len(doc["nodes"]) == 1
        assert doc["edges"] == []
        node = doc["nodes"][0]
        assert node["class_id"] == int(np.argmax(node["class_probs"]))

    def test_frontend_only_replay(self, desk_sequence, small_config):
        config, _ = small_config
        pipeline = replay_frontend(seqio.read_sequence(desk_sequence), config)
        assert len(pipeline.records) == len(pipeline._rotations) > 0
        positions, labels, weights = pipeline.labeled_points()
        assert len(positions) == len(labels) == len(weights)
        assert np.all(weights > 0)


def gated_scene():
    """The desk scene with every pose shown twice, so that each repeat is
    turned away on pose, then two frames looking away from the desk, which
    have no entity box."""
    scene = synth.desk_scene(seed=7, frames=6)
    away = tuple(
        look_at_pose(np.array(eye), np.array(target))
        for eye, target in (([0.0, -1.9, 1.65], [0.0, -6.0, 1.65]),
                            ([1.9, 0.0, 1.65], [6.0, 0.0, 1.65]))
    )
    return dataclasses.replace(scene, poses=tuple(p for p in scene.poses for _ in (0, 1)) + away)


@pytest.fixture(scope="module")
def gated_sequence(tmp_path_factory):
    out = tmp_path_factory.mktemp("seq") / "gated"
    synth.generate(gated_scene(), out)
    return out


class TestKeyframeGate:
    @pytest.mark.parametrize("preset", ["desk-7", "gated"])
    def test_rejection_counts_add_up_to_frames(self, preset, gated_sequence, tmp_path):
        if preset == "gated":
            seq_dir = gated_sequence
            config_path = tmp_path / "config.json"
            PipelineConfig(min_box_px=12, node_dim=16, edge_dim=16, hidden_dim=16).save(config_path)
        else:
            seq_dir = tmp_path / "seq"
            assert main(["synth", "--preset", "desk", "--seed", "7", "--out", str(seq_dir)]) == 0
            config_path = seq_dir / "config.json"
        out = tmp_path / "out"
        assert main(["run", "--sequence", str(seq_dir), "--config", str(config_path),
                     "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        rejected = summary["keyframes_rejected"]
        assert set(rejected) == {"pose", "no_box"}
        assert summary["keyframes"] + rejected["pose"] + rejected["no_box"] == summary["frames"]
        if preset == "gated":
            assert summary["frames"] == 14
            assert (rejected["pose"], rejected["no_box"]) == (6, 2)

    def test_pose_rejected_frame_skips_the_mask_pass(self, gated_sequence, monkeypatch):
        calls = []
        mask_boxes = graph_extract.mask_boxes

        def counting(mask):
            calls.append(mask.shape)
            return mask_boxes(mask)

        monkeypatch.setattr(graph_extract, "mask_boxes", counting)
        config = PipelineConfig(min_box_px=12)
        pipeline = replay_frontend(seqio.read_sequence(gated_sequence), config)
        assert pipeline.rejected["pose"] == 6
        assert len(calls) == 14 - pipeline.rejected["pose"]
        assert len(calls) == len(pipeline.records) + pipeline.rejected["no_box"]


class TestCli:
    def test_synth_run_eval_round_trip(self, tmp_path, capsys):
        seq_dir = tmp_path / "seq"
        out_dir = tmp_path / "out"
        assert main(["synth", "--preset", "desk", "--seed", "3", "--out", str(seq_dir)]) == 0
        assert (seq_dir / "config.json").exists()
        assert main([
            "run",
            "--sequence", str(seq_dir),
            "--config", str(seq_dir / "config.json"),
            "--out", str(out_dir),
        ]) == 0
        assert main([
            "eval", "--pred", str(out_dir), "--gt", str(seq_dir),
        ]) == 0
        metrics = json.loads((out_dir / "metrics.json").read_text())
        assert "aos" in metrics and "recall_obj" in metrics

    def test_synth_from_scene_file(self, tmp_path):
        scene = {
            "seed": 4,
            "intrinsics": {"fx": 144, "fy": 144, "cx": 80, "cy": 60,
                           "width": 160, "height": 120},
            "poses": [{"eye": [0.0, -2.0, 1.0], "target": [0.0, 0.0, 0.2]}],
            "primitives": [
                {"kind": "box", "class_id": 2, "instance": 1,
                 "center": [0.0, 0.0, 0.25], "dims": [0.5, 0.5, 0.5],
                 "density": 300},
            ],
        }
        spec_path = tmp_path / "scene.json"
        spec_path.write_text(json.dumps(scene))
        out = tmp_path / "seq"
        assert main(["synth", "--spec", str(spec_path), "--out", str(out)]) == 0
        seq = seqio.read_sequence(out)
        assert len(seq.frames) == 1
        assert seq.has_ground_truth()

    def test_synth_malformed_scene_exits_2(self, tmp_path, capsys):
        spec_path = tmp_path / "scene.json"
        spec_path.write_text(json.dumps({"primitives": []}))
        assert main(["synth", "--spec", str(spec_path),
                     "--out", str(tmp_path / "seq")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_synth_determinism_round_trip(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        assert main(["synth", "--preset", "stress-nonuniform", "--out", str(a)]) == 0
        assert main(["synth", "--preset", "stress-nonuniform", "--out", str(b)]) == 0
        files_a = sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file())
        files_b = sorted(p.relative_to(b) for p in b.rglob("*") if p.is_file())
        assert files_a == files_b
        for rel in files_a:
            assert (a / rel).read_bytes() == (b / rel).read_bytes(), rel

    def test_eval_of_ground_truth_is_all_ones(self, tmp_path):
        seq_dir = tmp_path / "seq"
        synth.generate(synth.desk_scene(seed=5, frames=2), seq_dir)
        gt_positions, cols = seqio.read_labeled_ply(seq_dir / "gt_points.ply")
        classes, triplets, names, preds = seqio.read_gt_graph(seq_dir / "gt_graph.json")

        pred_dir = tmp_path / "pred"
        pred_dir.mkdir()
        seqio.write_labeled_ply(
            pred_dir / "map.ply",
            gt_positions,
            {"label": cols["instance"], "weight": np.ones(len(gt_positions))},
        )
        nodes = []
        for inst, cls in sorted(classes.items()):
            probs = [0.0] * len(names)
            probs[cls] = 1.0
            nodes.append({"label": inst, "class_id": cls, "class_probs": probs,
                          "weight": 1.0})
        edges = []
        for (s, p, o) in triplets:
            probs = [0.0] * len(preds)
            probs[p] = 1.0
            edges.append({"from": s, "to": o, "pred_probs": probs, "weight": 1.0})
        (pred_dir / "scene_graph.json").write_text(
            json.dumps({"nodes": nodes, "edges": edges})
        )
        assert main(["eval", "--pred", str(pred_dir), "--gt", str(seq_dir)]) == 0
        metrics = json.loads((pred_dir / "metrics.json").read_text())
        for key in ("aos", "recall_rel", "recall_obj", "recall_pred",
                    "mrecall_obj", "mrecall_pred"):
            assert metrics[key] == 1.0, (key, metrics)
        assert main(["eval", "--pred", str(pred_dir), "--gt", str(seq_dir),
                     "--without-none"]) == 0
        strict = json.loads((pred_dir / "metrics.json").read_text())
        for key in ("recall_rel", "recall_obj", "recall_pred",
                    "mrecall_obj", "mrecall_pred"):
            assert strict[key] == 1.0, (key, strict)

    def test_assoc_bench_orders_strategies_on_stress_scene(self, tmp_path, capsys):
        seq_dir = tmp_path / "seq"
        assert main(["synth", "--preset", "stress-nonuniform", "--out", str(seq_dir)]) == 0
        csv_path = tmp_path / "bench.csv"
        assert main([
            "assoc-bench",
            "--sequence", str(seq_dir),
            "--strategies", "mean_confidence,iou",
            "--config", str(seq_dir / "config.json"),
            "--out", str(csv_path),
        ]) == 0
        rows = csv_path.read_text().strip().splitlines()
        assert rows[0] == "strategy,aos"
        scores = {name: float(value) for name, value in
                  (row.split(",") for row in rows[1:])}
        assert scores["mean_confidence"] > scores["iou"]

    @pytest.mark.parametrize("bad", ["short", "text"])
    def test_malformed_ground_truth_row_exits_2_naming_line(self, tmp_path, capsys, bad):
        seq_dir, out_dir = tmp_path / "seq", tmp_path / "out"
        synth.generate(synth.desk_scene(seed=5, frames=2), seq_dir)
        assert main(["run", "--sequence", str(seq_dir), "--out", str(out_dir)]) == 0
        capsys.readouterr()
        ply = seq_dir / "gt_points.ply"
        lines = ply.read_text().splitlines()
        row = lines.index("end_header") + 4  # the fourth body row, 0-based
        cells = lines[row].split()
        lines[row] = " ".join(cells[:-1] if bad == "short" else cells[:1] + ["x"] + cells[2:])
        ply.write_text("\n".join(lines) + "\n")
        assert main(["eval", "--pred", str(out_dir), "--gt", str(seq_dir)]) == 2
        err = capsys.readouterr().err
        assert f"gt_points.ply:{row + 1}: expected 'x y z " in err

    def test_missing_sequence_exits_2(self, tmp_path, capsys):
        assert main(["run", "--sequence", str(tmp_path / "nope"),
                     "--out", str(tmp_path / "out")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_corrupt_pose_exits_2_with_context(self, tmp_path, capsys):
        seq_dir = tmp_path / "seq"
        synth.generate(synth.desk_scene(seed=5, frames=2), seq_dir)
        (seq_dir / "frames" / "000000.pose").write_text("1 2 3\n")
        code = main(["run", "--sequence", str(seq_dir), "--out", str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err
        assert "000000.pose" in err

    def test_repeated_point_id_exits_2_with_context(self, tmp_path, capsys):
        seq_dir = tmp_path / "seq"
        synth.generate(synth.desk_scene(seed=5, frames=2), seq_dir)
        points = seq_dir / "frames" / "000001.points"
        lines = points.read_text().splitlines()
        lines.append(lines[0].split(" ", 1)[0] + " 0 0 0")
        points.write_text("\n".join(lines) + "\n")
        code = main(["run", "--sequence", str(seq_dir), "--out", str(tmp_path / "out")])
        assert code == 2
        assert f"000001.points:{len(lines)}: point id" in capsys.readouterr().err

    def test_non_finite_point_exits_2_with_context(self, tmp_path, capsys):
        seq_dir = tmp_path / "seq"
        synth.generate(synth.desk_scene(seed=5, frames=2), seq_dir)
        points = seq_dir / "frames" / "000001.points"
        lines = points.read_text().splitlines()
        lines[2] = lines[2].split(" ", 1)[0] + " 0 nan 0"
        points.write_text("\n".join(lines) + "\n")
        code = main(["run", "--sequence", str(seq_dir), "--out", str(tmp_path / "out")])
        assert code == 2
        assert "000001.points:3: point" in capsys.readouterr().err

    @pytest.mark.parametrize("keyframe", [True, False])
    @pytest.mark.parametrize("suffix", ["labels.pgm", "conf.pgm"])
    def test_short_raster_exits_2_naming_file(self, tmp_path, capsys, keyframe, suffix):
        seq_dir = tmp_path / "seq"
        synth.generate(synth.desk_scene(seed=5, frames=2), seq_dir)
        # the small box gate accepts frame 1 as a keyframe, the stock one
        # (200 px) rejects it
        config = PipelineConfig(min_box_px=12) if keyframe else PipelineConfig()
        config.save(tmp_path / "config.json")
        accepted = replay_frontend(seqio.read_sequence(seq_dir), config).records
        assert (1 in [record.frame_index for record in accepted]) == keyframe
        raster = seq_dir / "frames" / f"000001.{suffix}"
        seqio.write_pgm16(raster, seqio.read_pgm16(raster)[:-1])
        code = main([
            "run", "--sequence", str(seq_dir), "--config", str(tmp_path / "config.json"),
            "--out", str(tmp_path / "out"),
        ])
        assert code == 2
        assert f"000001.{suffix}: raster is 160x119" in capsys.readouterr().err

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_non_finite_weights_exit_3(self, tmp_path, capsys):
        seq_dir = tmp_path / "seq"
        synth.generate(synth.desk_scene(seed=5, frames=2), seq_dir)
        config = PipelineConfig(min_box_px=12, node_dim=16, edge_dim=16, hidden_dim=16)
        (tmp_path / "config.json").write_text(json.dumps(config.to_dict()))
        weights = init_weights(config.network(), seed=0)
        weights["image_proj.weight"].value[:] = 1e308
        wpath = tmp_path / "weights.json"
        save_weights(weights, wpath)
        code = main([
            "run", "--sequence", str(seq_dir), "--weights", str(wpath),
            "--config", str(tmp_path / "config.json"),
            "--out", str(tmp_path / "out"),
        ])
        assert code == 3
        assert "numeric failure" in capsys.readouterr().err

    def test_bad_weights_shape_exits_2(self, tmp_path, capsys):
        seq_dir = tmp_path / "seq"
        synth.generate(synth.desk_scene(seed=5, frames=2), seq_dir)
        wpath = tmp_path / "weights.json"
        wpath.write_text(json.dumps({"gate.weight": {"shape": [2], "data": [0, 0]}}))
        code = main(["run", "--sequence", str(seq_dir), "--weights", str(wpath),
                     "--out", str(tmp_path / "out")])
        assert code == 2
