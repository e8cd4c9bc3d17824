"""CPU speed probe and the scaling of measured times to a reference speed.

On a shared machine the speed of one core drifts by tens of percent within
minutes, which moves every wall time with it.  A fixed piece of work (the
probe: an interpreter loop and a sort of 20k doubles, about 0.35 ms) runs
just before every frame, outside the frame's timed span, and each measured
interval is scaled by REFERENCE_PROBE_S over the probe time around it.

The probe must not see the program.  Right after a frame the first probe
runs about 15 % slower than the next ones, because the frame has cooled the
caches; a program that touched more memory would then read a slower probe
and have its own slow-down scaled away.  So each frame is preceded by
PROBE_REPEATS probes back to back: the first only warms the caches, and the
fastest of the others is the frame's probe time.  The set-up, which has no
frames, is scaled by the median of runs of the probe just before and just
after it.  The result is the time the interval would have taken with the
probe at its reference speed.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

PROBE_LOOPS = 4000
_SORT_INPUT = np.random.default_rng(0).random(20_000)
# Median warm probe time on the 2-core reference machine (Python 3.11.7).
REFERENCE_PROBE_S = 0.00034
PROBE_REPEATS = 3  # per frame: one to warm the caches, two timed
SETUP_PROBES = 15
# Probes on each side of a frame that set its speed: one or two seconds.
WINDOW = 15


def probe() -> int:
    acc = 0
    for i in range(PROBE_LOOPS):
        acc += i * i % 7
    return acc + int(np.sort(_SORT_INPUT)[0] > 1.0)


def timed_probes(count: int) -> list[float]:
    times = []
    for _ in range(count):
        start = perf_counter()
        probe()
        times.append(perf_counter() - start)
    return times


def frame_probe() -> float:
    """The warm probe time: the fastest of the probes after the first."""
    return min(timed_probes(PROBE_REPEATS)[1:])


def scaled_setup(seconds: float, before: list[float], after: list[float]) -> float:
    """Set-up seconds at the reference speed, less the probes run inside it."""
    return (seconds - sum(before)) * REFERENCE_PROBE_S / float(np.median(before + after))


def frame_scales(probe_s: np.ndarray) -> np.ndarray:
    """Per frame, the reference probe time over the median probe time of
    the frames around it."""
    local = [np.median(probe_s[max(0, i - WINDOW) : i + WINDOW + 1]) for i in range(len(probe_s))]
    return REFERENCE_PROBE_S / np.asarray(local)


def scaled_replay(replay: dict, to_reference: bool = True) -> tuple[float, np.ndarray]:
    """Replay seconds and frame milliseconds at the reference speed, or as
    measured with ``to_reference`` false.

    ``replay`` holds the replay's start and end and, per frame, the start
    and end of its probes, its probe time and the frame's end.  The time
    between the end of one frame's probes and the start of the next frame's
    (a frame, then the next frame's reads) takes the scale of the first;
    the time before the first probes takes the scale of the first frame.
    Probe time is left out.
    """
    frames = np.asarray(replay["frames"], dtype=np.float64).reshape(-1, 4)
    probes_start, probes_end, probe_s, frame_end = frames.T
    scale = frame_scales(probe_s) if to_reference else np.ones_like(probe_s)
    gaps = np.append(probes_start[1:], replay["end"]) - probes_end
    seconds = (probes_start[0] - replay["start"]) * scale[0] + float(np.sum(gaps * scale))
    return seconds, (frame_end - probes_end) * scale * 1000.0
