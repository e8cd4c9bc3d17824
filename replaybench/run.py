"""Replay benchmark of sgmap.

    python3 replaybench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 replaybench/run.py --digests

Run from the root of a checkout.  The first form prepares the workload's
inputs (``sgmap synth`` output, cached under .replaybench/, reordered by
the seed), checks them against the digest recorded in README.md, replays
them in a fresh process for about S seconds, checks every replay's outputs
and prints one JSON line of metrics: the end-to-end metrics with --trace 0,
the per-layer metrics of a traced run with --trace 1.  The second form
generates every workload afresh and prints the digests for README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import re
import shutil
import subprocess
import sys
from collections import defaultdict
from pathlib import Path
from statistics import median
from time import perf_counter

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
DATA = ROOT / ".replaybench"
RUN_LIMIT_S = 170.0

sys.path.insert(0, str(BENCH))
import checks  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402

def recorded_digests() -> dict[str, str]:
    text = (BENCH / "README.md").read_text()
    return dict(re.findall(r"^([a-z-]+) +([0-9a-f]{64})$", text, flags=re.MULTILINE))


def canonical_sequence(name: str, fresh: bool = False) -> Path:
    """The workload's ``sgmap synth`` output, generated once per checkout."""
    target = DATA / "canonical" / name
    if fresh and target.exists():
        shutil.rmtree(target)
    if not target.exists():
        staging = DATA / "canonical" / f".{name}.partial"
        if staging.exists():
            shutil.rmtree(staging)
        with open(os.devnull, "w") as quiet, contextlib.redirect_stdout(quiet):
            workloads.generate(name, staging)
        staging.rename(target)
    return target


def spawn_replays(seq: Path, out: Path, seconds: int, trace: int) -> tuple[float, dict]:
    """Replay in a fresh interpreter; returns set-up seconds and its results."""
    # One thread: BLAS pools would otherwise add a thread per core.  A fixed
    # hash seed keeps the interpreter's own dict layouts the same in every run.
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(BENCH)]),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONHASHSEED="0")
    start = perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(BENCH / "replay.py"), str(seq), str(out), str(seconds), str(trace)],
        stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT,
    )
    try:
        ready = proc.stdout.readline()
        setup_s = perf_counter() - start
        proc.stdout.read()
        code = proc.wait(timeout=RUN_LIMIT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if ready.strip() != "ready" or code != 0:
        raise RuntimeError(f"replay process failed with exit code {code}")
    return setup_s, json.loads((out / "results.json").read_text())


def check_inputs(seq: Path, workload: str) -> list[str]:
    digest = workloads.sequence_digest(seq)
    expected = recorded_digests().get(workload)
    if digest == expected:
        return []
    return [f"{workload} inputs have digest {digest}, README.md records {expected}"]


def judge(out: Path, seq: Path, facts: dict, replays: list[dict]) -> tuple[int, list[str]]:
    """The number of replays that failed, and the run's problems.

    A replay fails when it raised or its outputs fail a check: the first
    good replay is checked in full, every other one must be byte-identical
    to it.  With fewer than two good replays byte identity is unchecked,
    which is a problem of the run too.
    """
    good = [r for r in replays if r["ok"]]
    failed = len(replays) - len(good)
    problems = [f"{r['out']}: the replay raised" for r in replays if not r["ok"]]
    for replay in good:
        if replay is good[0]:
            found = checks.check_replay(out / replay["out"], seq, facts)
        else:
            found = checks.check_identical(out / good[0]["out"], out / replay["out"])
        failed += bool(found)
        problems += [f"{replay['out']}: {problem}" for problem in found]
    if len(good) < 2:
        problems.append(f"{len(good)} good replays: byte identity is unchecked")
    return failed, problems


def layer_metrics(spans_path: Path, replays: list[dict]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of a traced run: medians over its good replays, with
    times at the reference speed of each replay's median probe."""
    from tracing import READ_SPANS, SPANS  # imports sgmap

    lines = spans_path.read_text().splitlines()
    counts = json.loads(lines[-1])["counts"]
    spans = [json.loads(line) for line in lines[:-1]]
    covered = [0.0] * len(spans)
    for name, start, end, parent, _replay in spans:
        if parent >= 0:
            covered[parent] += end - start
    self_s = defaultdict(float)
    total_s = defaultdict(float)
    calls = defaultdict(int)
    for (name, start, end, _parent, replay), child in zip(spans, covered):
        self_s[replay, name] += end - start - child
        total_s[replay, name] += end - start
        calls[replay, name] += 1

    per_replay = []
    for r, replay in enumerate(replays):
        if not replay["ok"]:
            continue
        c = counts[r]
        frames = np.array(replay["frames"])
        probes_s = float(np.sum(frames[:, 1] - frames[:, 0]))
        ms = 1000.0 * speed.REFERENCE_PROBE_S / float(np.median(frames[:, 2]))
        m = {f"{name}_ms": (self_s[r, name] * ms, "ms") for name in SPANS}
        read_s = sum(self_s[r, name] for name in READ_SPANS)
        extract_calls = calls[r, "graph_extract.extract_entity"]
        forward_calls = calls[r, "ssgp.forward"]
        m.update({
            "seqio.read_mb_per_s": (c["seqio.read_bytes"] / 1e6 / read_s, "MB/s"),
            "entity_map.map_points": (replay["map_points"], "count"),
            "entity_map.labels_minted": (c.get("entity_map.labels_minted", 0), "count"),
            "graph_extract.extract_calls": (extract_calls, "count"),
            "graph_extract.label_ticks": (c["graph_extract.label_ticks"], "count"),
            "graph_extract.extract_cache_hit_ratio": (
                1.0 - extract_calls / c["graph_extract.label_ticks"], "ratio"),
            "geometry.obb_collide_calls": (c.get("geometry.obb_collide_calls", 0), "count"),
            "ssgp.descriptor_calls": (calls[r, "ssgp.rel_pose_descriptor"], "count"),
            "ssgp.forward_calls": (forward_calls, "count"),
            "ssgp.graph_nodes_mean": (c["ssgp.graph_nodes"] / forward_calls, "count"),
            "ssgp.graph_edges_mean": (c["ssgp.graph_edges"] / forward_calls, "count"),
            "autodiff.tensors_created": (c["autodiff.tensors_created"], "count"),
            "runtime.gc_pause_ms": (c.get("runtime.gc_pause_s", 0.0) * ms, "ms"),
            "runtime.gc_collections": (c.get("runtime.gc_collections", 0), "count"),
            # The probes run inside the replay span, outside every layer.
            "pipeline.unaccounted_ms": ((self_s[r, "pipeline.replay"] - probes_s) * ms, "ms"),
            "pipeline.replay_ms": ((total_s[r, "pipeline.replay"] - probes_s) * ms, "ms"),
        })
        per_replay.append(m)
    return {
        key: (median(m[key][0] for m in per_replay), unit)
        for key, (_value, unit) in per_replay[0].items()
    }


def time_metrics(replays: list[tuple[float, np.ndarray]], setup_s: float) -> dict:
    """The end-to-end times from (replay seconds, frame milliseconds) pairs."""
    frame_ms = np.concatenate([f for _s, f in replays])
    return {
        "replay_s": (median(s for s, _f in replays), "s"),
        "frame_ms_p50": (float(np.percentile(frame_ms, 50)), "ms"),
        "frame_ms_p95": (float(np.percentile(frame_ms, 95)), "ms"),
        "setup_s": (setup_s, "s"),
    }


def report(correct: bool, attempted: int, failed: int, metrics: dict) -> None:
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


def bench(workload: str, seed: int, seconds: int, trace: int) -> int:
    canonical = canonical_sequence(workload)
    run_dir = DATA / "runs" / (workload + ("-trace" if trace else ""))
    if run_dir.exists():
        shutil.rmtree(run_dir)
    seq, out = run_dir / "seq", run_dir / "out"
    workloads.seeded_copy(canonical, seed, seq)
    out.mkdir()

    for problem in check_inputs(seq, workload):
        print(f"incorrect: {problem}", file=sys.stderr)
        frames = len(list((seq / "frames").glob("*.pose")))
        report(False, frames, frames, {})
        return 1

    facts = checks.input_facts(seq)
    setup_s, results = spawn_replays(seq, out, seconds, trace)
    replays = results["replays"]
    failed_replays, problems = judge(out, seq, facts, replays)
    frames = results["frames_per_replay"]
    attempted = frames * len(replays)
    failed = frames * failed_replays
    for problem in problems:
        print(f"incorrect: {problem}", file=sys.stderr)
    correct = not problems
    good = [r for r in replays if r["ok"]]
    if not good:
        report(correct, attempted, failed, {})
        return 1

    scaled = [speed.scaled_replay(r) for r in good]
    measured = [speed.scaled_replay(r, to_reference=False) for r in good]
    print(f"{workload}: {len(replays)} replays of {frames} frames; replay seconds "
          f"{[round(float(s), 3) for s, _f in scaled]} at the reference speed, "
          f"{[round(float(s), 3) for s, _f in measured]} as measured", file=sys.stderr)
    if trace:
        metrics = layer_metrics(out / "spans.jsonl", replays)
    else:
        metrics = time_metrics(scaled, speed.scaled_setup(setup_s, *results["setup_probes"]))
        metrics["peak_rss_mb"] = (results["peak_rss_mb"], "MB")
        as_measured = {k: round(v, 6) for k, (v, _u) in time_metrics(measured, setup_s).items()}
        print(f"as measured: {json.dumps(as_measured)}", file=sys.stderr)
    report(correct, attempted, failed, metrics)
    return 0 if correct else 1


def print_digests() -> int:
    for name in workloads.WORKLOADS:
        print(f"{name} {workloads.sequence_digest(canonical_sequence(name, fresh=True))}")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--digests", action="store_true",
                        help="generate every workload afresh and print its input digest")
    args = parser.parse_args()
    if not (SRC / "sgmap" / "__init__.py").is_file():
        print(f"error: no sgmap sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.digests:
        return print_digests()
    if args.workload is None:
        parser.error("--workload is required")
    return bench(args.workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    sys.exit(main())
