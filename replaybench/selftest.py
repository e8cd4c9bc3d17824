"""Self-test of the benchmark's correctness checks.

    python3 replaybench/selftest.py

Replays the small ``desk`` preset twice, confirms that the checks accept
the result, then corrupts one output or input at a time and confirms that
each corruption is reported.  A third replay raises in ``process_frame``;
a run that holds it, or that has only one good replay, must be judged
incorrect.  Exits 1 if any of these goes unreported.
"""

from __future__ import annotations

import contextlib
import json
import os
import shutil
import sys
from pathlib import Path

import replay  # the benchmark's replay loop
import run  # the benchmark's own checks, inputs and paths

sys.path.insert(0, str(run.SRC))

from sgmap import cli, pipeline  # noqa: E402

WORK = run.DATA / "selftest"


def drop_reverse_edge(out: Path, _seq: Path) -> None:
    path = out / "scene_graph.json"
    graph = json.loads(path.read_text())
    graph["edges"].pop(0)
    path.write_text(json.dumps(graph, indent=1, sort_keys=True) + "\n")


def scale_node_probs(out: Path, _seq: Path) -> None:
    path = out / "scene_graph.json"
    graph = json.loads(path.read_text())
    node = graph["nodes"][0]
    node["class_probs"] = [1.1 * p for p in node["class_probs"]]
    path.write_text(json.dumps(graph, indent=1, sort_keys=True) + "\n")


def relabel_map_point(out: Path, _seq: Path) -> None:
    """Give the first point of the map another label that is in use."""
    path = out / "map.ply"
    lines = path.read_text().splitlines()
    body = lines.index("end_header") + 1
    names, rows = run.checks.read_ply(path)
    col = names.index("label")
    used = sorted({int(r[col]) for r in rows})
    cells = rows[0]
    cells[col] = str(next(lbl for lbl in used if lbl != int(cells[col])))
    lines[body] = " ".join(cells)
    path.write_text("\n".join(lines) + "\n")


def change_input_file(_out: Path, seq: Path) -> None:
    path = seq / "frames" / "000003.conf.pgm"
    blob = bytearray(path.read_bytes())
    blob[-1] ^= 1
    path.write_bytes(bytes(blob))


def raise_in_process_frame(seq: Path, out: Path, config) -> dict:
    """``run_sequence`` with a ``process_frame`` that raises on its first call."""
    process_frame = pipeline.IncrementalPipeline.process_frame

    def failing(*_args, **_kwargs):
        raise RuntimeError("injected failure")

    pipeline.IncrementalPipeline.process_frame = failing
    try:
        return pipeline.run_sequence(seq, out, config)
    finally:
        pipeline.IncrementalPipeline.process_frame = process_frame


CORRUPTIONS = [drop_reverse_edge, scale_node_probs, relabel_map_point, change_input_file]


def independent_checks(out: Path, seq: Path, digest: str) -> list[str]:
    """What a run reports for a replay it checks in full, byte identity aside."""
    problems = [] if run.workloads.sequence_digest(seq) == digest else ["input digest differs"]
    return problems + run.checks.check_replay(out, seq, run.checks.input_facts(seq))


def main() -> int:
    if WORK.exists():
        shutil.rmtree(WORK)
    canonical = WORK / "canonical"
    with open(os.devnull, "w") as quiet, contextlib.redirect_stdout(quiet):
        cli.main(["synth", "--preset", "desk", "--seed", "7", "--out", str(canonical)])
    digest = run.workloads.sequence_digest(canonical)
    seq = WORK / "seq"
    run.workloads.seeded_copy(canonical, 1, seq)
    config = pipeline.PipelineConfig.load(seq / "config.json")
    replays = [replay.replay_once(pipeline.run_sequence, seq, WORK / "out" / name, config)
               for name in ("r00", "r01")]
    raising = replay.replay_once(raise_in_process_frame, seq, WORK / "out" / "r02", config)
    first, second = WORK / "out" / "r00", WORK / "out" / "r01"

    failures = 0
    baseline = independent_checks(first, seq, digest) + run.checks.check_identical(first, second)
    judged = run.judge(WORK / "out", seq, run.checks.input_facts(seq), replays)
    print(f"clean replay: {baseline or 'accepted'}; run of two replays: {judged[1] or 'accepted'}")
    failures += bool(baseline) + bool(judged[1])
    for name, held in [("a replay that raised", replays + [raising]),
                       ("one good replay", replays[:1] + [raising])]:
        failed, problems = run.judge(WORK / "out", seq, run.checks.input_facts(seq), held)
        print(f"run with {name}: {f'{failed} failed: ' + '; '.join(problems) if problems else 'NOT REPORTED'}")
        failures += not problems or failed != 1
    for corrupt in CORRUPTIONS:
        out = WORK / "out" / corrupt.__name__
        shutil.copytree(first, out)
        corrupted_seq = WORK / f"seq-{corrupt.__name__}"
        shutil.copytree(seq, corrupted_seq)
        corrupt(out, corrupted_seq)
        found = independent_checks(out, corrupted_seq, digest)
        print(f"{corrupt.__name__}: {'reported: ' + found[0] if found else 'NOT REPORTED'}")
        failures += not found
        if corrupt is not change_input_file:
            differs = run.checks.check_identical(second, out)
            print(f"{corrupt.__name__} against a second replay: {differs[0] if differs else 'NOT REPORTED'}")
            failures += not differs
    print("selftest", "failed" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
