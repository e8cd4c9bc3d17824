"""Command-line pipeline driver.

Subcommands:
  run          replay a sequence and export map, scene graph, and metrics
  eval         score a prediction directory against ground truth
  synth        generate a synthetic sequence from a scene file or preset
  assoc-bench  compare association strategies by overlap score

Exit codes: 0 success, 2 malformed input, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import seqio, synth
from .errors import DivergenceError, SgmapError
from .evaluation import aos
from .pipeline import PipelineConfig, evaluate_against_gt, replay_frontend, run_sequence
from .seqio import SequenceFormatError

EXIT_OK = 0
EXIT_BAD_INPUT = 2
EXIT_NUMERIC = 3

PRESETS = {
    "desk": lambda seed: synth.desk_scene(seed=seed),
    "desk-large": lambda seed: synth.desk_scene(seed=seed, frames=200, rings=4),
    "stress-nonuniform": lambda seed: synth.stress_scene_nonuniform(seed=seed),
}


def _load_config(path: str | None) -> PipelineConfig:
    if path is None:
        return PipelineConfig()
    return PipelineConfig.load(path)


def cmd_run(args) -> int:
    config = _load_config(args.config)
    summary = run_sequence(
        args.sequence, args.out, config, weights_path=args.weights
    )
    print(json.dumps(summary, indent=1, sort_keys=True))
    return EXIT_OK


def cmd_eval(args) -> int:
    pred_dir = Path(args.pred)
    gt_dir = Path(args.gt)
    map_path = pred_dir / "map.ply"
    graph_path = pred_dir / "scene_graph.json"
    for required in (map_path, graph_path):
        if not required.exists():
            raise SequenceFormatError(f"{required}: missing prediction file")
    gt_points = gt_dir / "gt_points.ply"
    gt_graph = gt_dir / "gt_graph.json"
    for required in (gt_points, gt_graph):
        if not required.exists():
            raise SequenceFormatError(f"{required}: missing ground-truth file")
    positions, columns = seqio.read_labeled_ply(map_path)
    doc = json.loads(graph_path.read_text())
    metrics = evaluate_against_gt(
        positions, columns["label"], doc, gt_points, gt_graph,
        include_none=not args.without_none,
    )
    out_path = pred_dir / "metrics.json"
    out_path.write_text(json.dumps(metrics, indent=1, sort_keys=True) + "\n")
    print(json.dumps(metrics, indent=1, sort_keys=True))
    return EXIT_OK


def _scene_from_args(args) -> synth.SceneSpec:
    if args.preset is not None:
        return PRESETS[args.preset](args.seed)
    if args.spec is None:
        raise SequenceFormatError("synth needs --spec FILE or --preset NAME")
    doc = json.loads(Path(args.spec).read_text())
    preset = doc.get("preset")
    if preset is not None:
        if preset not in PRESETS:
            raise SequenceFormatError(f"{args.spec}: unknown preset {preset!r}")
        return PRESETS[preset](doc.get("seed", args.seed))
    return synth.scene_from_dict(doc)


def cmd_synth(args) -> int:
    spec = _scene_from_args(args)
    summary = synth.generate(spec, args.out)
    config = PipelineConfig(
        min_box_px=max(8, int(0.1 * min(spec.intrinsics.width, spec.intrinsics.height))),
        node_dim=16,
        edge_dim=16,
        hidden_dim=16,
    )
    config.save(Path(args.out) / "config.json")
    print(json.dumps(summary, indent=1, sort_keys=True))
    return EXIT_OK


def cmd_assoc_bench(args) -> int:
    sequence = seqio.read_sequence(args.sequence)
    if not sequence.has_ground_truth():
        raise SequenceFormatError(f"{args.sequence}: assoc-bench needs ground truth")
    gt_positions, columns = seqio.read_labeled_ply(sequence.gt_points_path)
    gt_instances = columns["instance"]
    base = _load_config(args.config)
    rows = ["strategy,aos"]
    for strategy in args.strategies.split(","):
        config = PipelineConfig.from_dict({**base.to_dict(), "strategy": strategy.strip()})
        pipeline = replay_frontend(sequence, config)
        positions, labels, _weights = pipeline.labeled_points()
        score = aos(positions, labels, gt_positions, gt_instances)
        rows.append(f"{strategy.strip()},{score!r}")
    csv_text = "\n".join(rows) + "\n"
    if args.out:
        Path(args.out).write_text(csv_text)
    print(csv_text, end="")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="sgmap", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="replay a sequence directory")
    p_run.add_argument("--sequence", required=True)
    p_run.add_argument("--weights", default=None, help="network weight file (JSON)")
    p_run.add_argument("--config", default=None, help="pipeline config (JSON)")
    p_run.add_argument("--out", required=True)
    p_run.set_defaults(func=cmd_run)

    p_eval = sub.add_parser("eval", help="score predictions against ground truth")
    p_eval.add_argument("--pred", required=True)
    p_eval.add_argument("--gt", required=True)
    p_eval.add_argument(
        "--without-none",
        action="store_true",
        help="score only annotated relationships (skip the none predicate)",
    )
    p_eval.set_defaults(func=cmd_eval)

    p_synth = sub.add_parser("synth", help="generate a synthetic sequence")
    p_synth.add_argument("--spec", default=None, help="scene file (JSON)")
    p_synth.add_argument("--preset", default=None, choices=sorted(PRESETS))
    p_synth.add_argument("--seed", type=int, default=7)
    p_synth.add_argument("--out", required=True)
    p_synth.set_defaults(func=cmd_synth)

    p_bench = sub.add_parser("assoc-bench", help="compare association strategies")
    p_bench.add_argument("--sequence", required=True)
    p_bench.add_argument(
        "--strategies", default="mean_confidence,max_overlap,iou"
    )
    p_bench.add_argument("--config", default=None)
    p_bench.add_argument("--out", default=None, help="CSV output path")
    p_bench.set_defaults(func=cmd_assoc_bench)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (SequenceFormatError, FileNotFoundError, json.JSONDecodeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except DivergenceError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except SgmapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())
