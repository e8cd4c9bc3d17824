"""Replay process: set up once, then replay a sequence until the time is up.

Usage: python3 replay.py SEQUENCE OUT SECONDS TRACE

Prints ``ready`` once the first frame could be processed (package imported,
config loaded, sequence read, weights initialised, first frame read), so
the parent can time set-up from this process's start.  Then it runs whole
``run_sequence`` replays into OUT/rNN and writes OUT/results.json with the
raw timestamps of each replay and frame; with TRACE = 1 it also writes
OUT/spans.jsonl.  Every frame is preceded by the speed probes, and the
set-up is bracketed by runs of them.
"""

from __future__ import annotations

import json
import resource
import sys
import traceback
from pathlib import Path
from time import perf_counter

from speed import SETUP_PROBES, frame_probe, timed_probes

MIN_REPLAYS = 2  # the second replay is compared byte for byte with the first


def replay_once(run_sequence, seq: Path, out: Path, config) -> dict:
    """One replay into OUT; a replay that raises is reported, not fatal."""
    start = perf_counter()
    try:
        summary = run_sequence(seq, out, config)
        ok = True
    except Exception:
        traceback.print_exc()
        summary, ok = None, False
    end = perf_counter()
    return {"out": out.name, "ok": ok, "start": start, "end": end,
            "map_points": summary["map_points"] if ok else None}


def main(seq: Path, out: Path, seconds: float, trace: bool) -> None:
    probes_before = timed_probes(SETUP_PROBES)
    from sgmap import pipeline, seqio, ssgp  # importing sgmap is part of the set-up

    config = pipeline.PipelineConfig.load(seq / "config.json")
    sequence = seqio.read_sequence(seq)
    ssgp.init_weights(config.network(), seed=config.weights_seed)
    first = sequence.frames[0]
    first.pose(), first.points(), first.labels(), first.confidence(), first.features()
    print("ready", flush=True)
    probes_after = timed_probes(SETUP_PROBES)

    frames: list[tuple[float, float, float, float]] = []
    process_frame = pipeline.IncrementalPipeline.process_frame

    def timed_process_frame(*args, **kwargs):
        probes_start = perf_counter()
        probe_s = frame_probe()
        start = perf_counter()
        result = process_frame(*args, **kwargs)
        frames.append((probes_start, start, probe_s, perf_counter()))
        return result

    pipeline.IncrementalPipeline.process_frame = timed_process_frame
    run_sequence = pipeline.run_sequence
    tracer = None
    if trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
        run_sequence = tracer.wrap_replay(run_sequence)

    replays = []
    began = perf_counter()
    while True:
        frames = []
        replay = replay_once(run_sequence, seq, out / f"r{len(replays):02d}", config)
        replay["frames"] = frames
        replays.append(replay)
        elapsed = replay["end"] - replay["start"]
        if tracer is not None:
            tracer.next_replay()
        # Start another replay only if it should end within the run time.
        if len(replays) >= MIN_REPLAYS and perf_counter() - began + elapsed > seconds:
            break

    results = {
        "frames_per_replay": len(sequence.frames),
        "setup_probes": [probes_before, probes_after],
        "replays": replays,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    (out / "results.json").write_text(json.dumps(results) + "\n")
    if tracer is not None:
        tracer.dump(out / "spans.jsonl")


if __name__ == "__main__":
    main(Path(sys.argv[1]), Path(sys.argv[2]), float(sys.argv[3]), sys.argv[4] == "1")
