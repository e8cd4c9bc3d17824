"""Workload inputs: one fixed synthetic scene per workload, generated by the
public ``sgmap synth`` command, plus a seeded reordering of the points.

The scene of a workload never depends on the benchmark seed, so its content
can be pinned by a digest (see README.md).  The seed only permutes the lines
of every ``.points`` file, a reordering the sequence format allows; the
digest is taken over the canonical form with those lines sorted by id.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
import shutil
from pathlib import Path

import numpy as np

# Camera model of the canned desk scenes (``synth.desk_intrinsics``).
_FOCAL_SHARE = 0.9

_DESK_CENTER = (0.0, 0.0, 0.35)


def _intrinsics(width: int, height: int) -> dict:
    f = _FOCAL_SHARE * width
    return {"fx": f, "fy": f, "cx": width / 2.0, "cy": height / 2.0,
            "width": width, "height": height}


def _orbit(center, radius: float, height: float, count: int, phase: float,
           dwell: int = 0, dwell_step_deg: float = 0.0) -> list[dict]:
    """``count`` viewpoints evenly spaced on a circle; after each one the
    camera pans on by ``dwell`` small steps, which the keyframe gate rejects."""
    poses = []
    for k in range(count):
        for j in range(dwell + 1):
            azimuth = 2.0 * math.pi * k / count + phase + math.radians(dwell_step_deg * j)
            eye = [center[0] + radius * math.cos(azimuth),
                   center[1] + radius * math.sin(azimuth),
                   center[2] + height]
            poses.append({"eye": eye, "target": list(center)})
    return poses


def clutter_spec() -> dict:
    """Floor plus a 4x4 grid of boxes seen from 30 viewpoints on two orbits:
    17 entities whose margin-inflated boxes mostly collide, so the
    neighbour graph is dense and the network back end dominates keyframes.
    The camera dwells after each viewpoint so that one replay has 210
    frames, enough for a 95th percentile over two replays."""
    primitives = [{"kind": "plane", "class_id": 0, "instance": 1,
                   "center": [0.0, 0.0, 0.0], "dims": [3.0, 3.0, 0.0],
                   "density": 150.0}]
    for row in range(4):
        for col in range(4):
            side = 0.2 + 0.02 * ((row + col) % 3)
            primitives.append({
                "kind": "box", "class_id": 2, "instance": 2 + 4 * row + col,
                "center": [-0.675 + 0.45 * col, -0.675 + 0.45 * row, side / 2.0],
                "dims": [side, side, side], "yaw": 0.15 * ((row * 4 + col) % 5),
                "density": 500.0,
            })
    center = (0.0, 0.0, 0.1)
    poses = (_orbit(center, 2.2, 1.4, 15, 0.0, dwell=6, dwell_step_deg=0.3)
             + _orbit(center, 2.8, 1.9, 15, 0.2, dwell=6, dwell_step_deg=0.3))
    return {"seed": 11, "primitives": primitives,
            "intrinsics": _intrinsics(160, 120), "poses": poses}


def stream_spec() -> dict:
    """The desk scene at 320x240 seen in 0.6 degree steps on one ring: most
    frames fail the keyframe gate and only refresh point positions."""
    from sgmap import synth

    primitives = [dataclasses.asdict(p) for p in synth.desk_scene().primitives]
    return {"seed": 7, "primitives": primitives,
            "intrinsics": _intrinsics(320, 240),
            "poses": _orbit(_DESK_CENTER, 1.9, 1.3, 600, 0.0)}


def desk_large_argv() -> list[str]:
    """The reference replay of the project roadmap."""
    return ["--preset", "desk-large", "--seed", "7"]


# Per workload, the ``sgmap synth`` arguments or the scene file it reads.
WORKLOADS = {
    "desk-large": desk_large_argv,
    "clutter": clutter_spec,
    "stream": stream_spec,
}


def generate(name: str, out_dir: Path) -> None:
    """Write the canonical sequence of a workload through ``sgmap synth``."""
    from sgmap import cli

    source = WORKLOADS[name]()
    out_dir.mkdir(parents=True)
    if isinstance(source, dict):
        spec_path = out_dir.parent / f"{name}.scene.json"
        spec_path.write_text(json.dumps(source, indent=1) + "\n")
        argv = ["--spec", str(spec_path)]
    else:
        argv = list(source)
    code = cli.main(["synth", *argv, "--out", str(out_dir)])
    if code != 0:
        raise RuntimeError(f"sgmap synth failed for {name} with exit code {code}")


def points_sort_key(line: str) -> int:
    return int(line.split(" ", 1)[0])


def seeded_copy(canonical: Path, seed: int, out_dir: Path) -> None:
    """Copy a sequence, permuting the lines of each points file by ``seed``.
    Other files are hard links, as nothing writes to a sequence."""
    if out_dir.exists():
        shutil.rmtree(out_dir)
    shutil.copytree(canonical, out_dir, ignore=shutil.ignore_patterns("*.points"),
                    copy_function=os.link)
    for path in sorted((canonical / "frames").glob("*.points")):
        lines = path.read_text().splitlines()
        rng = np.random.default_rng([seed % 2**63, int(path.stem)])
        order = rng.permutation(len(lines))
        text = "".join(lines[i] + "\n" for i in order)
        (out_dir / "frames" / path.name).write_text(text)


def sequence_digest(root: Path) -> str:
    """sha256 over every file of a sequence directory, in path order, with
    the lines of each points file sorted by point id."""
    digest = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        rel = path.relative_to(root).as_posix()
        data = path.read_bytes()
        if path.suffix == ".points":
            lines = sorted(data.decode("ascii").splitlines(), key=points_sort_key)
            data = "".join(line + "\n" for line in lines).encode("ascii")
        digest.update(f"{rel}\0{len(data)}\0".encode())
        digest.update(data)
    return digest.hexdigest()
