"""Behaviour pin: ``sgmap synth --preset desk --seed 7`` and ``sgmap synth
--preset stress-nonuniform``, and ``sgmap run`` on each output, against the
goldens in ``golden/desk_seed7.json`` and ``golden/stress_nonuniform.json``.

Every synth file, ``map.ply``, ``graph.dot``, ``metrics.json`` and
``summary.json`` are pinned by sha256.  ``scene_graph.json`` must match the
recorded document exactly, except that class and predicate probabilities
may differ by up to 1e-9.  A change meant to alter behaviour rewrites the
goldens with ``PYTHONPATH=src python tests/test_behaviour_pin.py [NAME ...]``
(all pins by default) and says so in its description.
"""

import hashlib
import json
import math
import shutil
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from sgmap import seqio
from sgmap.cli import main
from sgmap.pipeline import PipelineConfig, replay_frontend

GOLDEN_DIR = Path(__file__).parent / "golden"
# Golden file stem -> ``sgmap synth`` arguments.  stress-nonuniform's three
# keyframes flip points in both directions through fusion.
PINS = {
    "desk_seed7": ["--preset", "desk", "--seed", "7"],
    "stress_nonuniform": ["--preset", "stress-nonuniform"],
}
RUN_FILES = ("map.ply", "graph.dot", "metrics.json", "summary.json")
PROB_TOL = 1e-9


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _golden(name: str) -> Path:
    return GOLDEN_DIR / f"{name}.json"


def produce(root: Path, name: str = "desk_seed7") -> dict:
    """Synthesize pin ``name`` under ``root``, replay it, and collect what
    the goldens record."""
    seq, out = root / "seq", root / "out"
    assert main(["synth", *PINS[name], "--out", str(seq)]) == 0
    config = str(seq / "config.json")
    assert main(["run", "--sequence", str(seq), "--config", config, "--out", str(out)]) == 0
    return {
        "synth": {
            path.relative_to(seq).as_posix(): _sha256(path)
            for path in sorted(seq.rglob("*"))
            if path.is_file()
        },
        "run": {name: _sha256(out / name) for name in RUN_FILES},
        "scene_graph": json.loads((out / "scene_graph.json").read_text()),
    }


@pytest.fixture(scope="module")
def produced(tmp_path_factory):
    return produce(tmp_path_factory.mktemp("pin"))


@pytest.fixture(scope="module")
def golden():
    return json.loads(_golden("desk_seed7").read_text())


def assert_same_document(got, want, where="scene_graph", probs=False):
    """Equal structure and values; floats under a ``*_probs`` key may differ
    by up to PROB_TOL."""
    assert type(got) is type(want), where
    if isinstance(want, dict):
        assert sorted(got) == sorted(want), where
        for key in want:
            assert_same_document(got[key], want[key], f"{where}.{key}", key.endswith("_probs"))
    elif isinstance(want, list):
        assert len(got) == len(want), where
        for i, (g, w) in enumerate(zip(got, want)):
            assert_same_document(g, w, f"{where}[{i}]", probs)
    elif probs and isinstance(want, float):
        assert math.isclose(got, want, rel_tol=0.0, abs_tol=PROB_TOL), where
    else:
        assert got == want, where


def test_synth_files_match_golden(produced, golden):
    assert produced["synth"] == golden["synth"]


def test_run_files_match_golden(produced, golden):
    assert produced["run"] == golden["run"]


def test_scene_graph_matches_golden(produced, golden):
    assert_same_document(produced["scene_graph"], golden["scene_graph"])


def test_stress_nonuniform_matches_golden(tmp_path):
    produced = produce(tmp_path, "stress_nonuniform")
    golden = json.loads(_golden("stress_nonuniform").read_text())
    assert produced["synth"] == golden["synth"]
    assert produced["run"] == golden["run"]
    assert_same_document(produced["scene_graph"], golden["scene_graph"])


def test_point_line_order_does_not_show(tmp_path):
    """Permuting the lines of every ``.points`` file of desk seed 7 leaves
    every run output byte-identical."""
    seq, permuted = tmp_path / "seq", tmp_path / "permuted"
    assert main(["synth", *PINS["desk_seed7"], "--out", str(seq)]) == 0
    shutil.copytree(seq, permuted)
    rng = np.random.default_rng(17)
    for path in sorted((permuted / "frames").glob("*.points")):
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("".join(lines[i] for i in rng.permutation(len(lines))))
    assert (permuted / "frames" / "000000.points").read_text() != (
        seq / "frames" / "000000.points"
    ).read_text()
    config = str(seq / "config.json")
    outputs = []
    for sequence in (seq, permuted):
        out = tmp_path / f"out-{sequence.name}"
        assert main(["run", "--sequence", str(sequence), "--config", config, "--out", str(out)]) == 0
        outputs.append({name: (out / name).read_bytes() for name in (*RUN_FILES, "scene_graph.json")})
    assert outputs[0] == outputs[1]


def test_mask_id_renaming_does_not_show(tmp_path):
    """Renaming the ids of every labels mask of desk seed 7 by one bijection
    leaves the map's points and weights as they were and renames its labels
    one to one.  One new id is above the mask's pixel count, so the
    consistent mask takes the sorted-key lookup.  The scene graph is not
    compared: patch colours come from the input ids."""
    seq, renamed = tmp_path / "seq", tmp_path / "renamed"
    assert main(["synth", *PINS["desk_seed7"], "--out", str(seq)]) == 0
    shutil.copytree(seq, renamed)
    rename = np.zeros(5, dtype=np.int64)
    rename[1:] = [40000, 7, 1, 23]
    for path in sorted((renamed / "frames").glob("*.labels.pgm")):
        mask = seqio.read_pgm16(path)
        assert mask.max() < len(rename) and mask.size < 40000
        seqio.write_pgm16(path, rename[mask])
    config = PipelineConfig.load(seq / "config.json")
    a, b = (replay_frontend(seqio.read_sequence(s), config).map for s in (seq, renamed))
    np.testing.assert_array_equal(a.ids, b.ids)
    np.testing.assert_array_equal(a.positions, b.positions)
    np.testing.assert_array_equal(a.weights, b.weights)
    np.testing.assert_array_equal(a.labels == 0, b.labels == 0)
    pairs = set(zip(a.labels.tolist(), b.labels.tolist()))
    assert len(pairs) == len(set(a.labels.tolist())) == len(set(b.labels.tolist())) >= 4


def test_document_comparison_tolerates_only_probabilities(golden):
    doc = json.loads(json.dumps(golden["scene_graph"]))
    doc["nodes"][0]["class_probs"][0] += 0.5 * PROB_TOL
    assert_same_document(doc, golden["scene_graph"])
    doc["nodes"][0]["class_probs"][0] += 2 * PROB_TOL
    with pytest.raises(AssertionError):
        assert_same_document(doc, golden["scene_graph"])
    doc = json.loads(json.dumps(golden["scene_graph"]))
    doc["nodes"][0]["obb"]["yaw"] += 0.5 * PROB_TOL
    with pytest.raises(AssertionError):
        assert_same_document(doc, golden["scene_graph"])


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name in sys.argv[1:] or PINS:
        with tempfile.TemporaryDirectory() as tmp:
            doc = produce(Path(tmp), name)
        _golden(name).write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
        print(f"wrote {_golden(name)}", file=sys.stderr)
