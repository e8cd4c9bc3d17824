"""Spans and counts recorded around the program's public functions.

The tracer replaces functions and methods of the ``sgmap`` modules with
wrappers from outside; the program itself is not changed.  Spans (name,
start, end, parent, replay) stay in memory until :meth:`Tracer.dump`.
"""

from __future__ import annotations

import gc
import json
import os
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

import numpy as np

from sgmap import autodiff, entity_map, evaluation, geometry, graph_extract
from sgmap import graph_fusion, seqio, ssgp
from sgmap import pipeline  # noqa: F401  (loaded first, so its imported names get wrapped)

# Span name -> the callables it covers.  A function is replaced wherever an
# ``sgmap`` module refers to it, so calls through imported names are seen.
SPANS = {
    "seqio.read_points": [seqio.read_points],
    "seqio.read_pgm16": [seqio.read_pgm16],
    "seqio.read_pose": [seqio.read_pose],
    "entity_map.upsert": [(entity_map.PointMap, "upsert_positions")],
    "entity_map.render": [entity_map.render_reference],
    "entity_map.associate": [entity_map.associate],
    "entity_map.fuse": [entity_map.fuse],
    "graph_extract.mask_boxes": [graph_extract.mask_boxes],
    "graph_extract.select_keyframe": [graph_extract.select_keyframe],
    "graph_extract.extract_entity": [graph_extract.extract_entity],
    "graph_extract.build_neighbour": [graph_extract.build_neighbour],
    "geometry.outlier_mask": [geometry.outlier_mask],
    "geometry.fit_obb": [geometry.fit_obb],
    "ssgp.view_features": [
        (ssgp.PatchImageFeatureProvider, "feature"),
        (ssgp.MultiviewAccumulator, "add"),
    ],
    "ssgp.rel_pose_descriptor": [ssgp.rel_pose_descriptor],
    "ssgp.forward": [ssgp.forward],
    "graph_fusion.integrate": [(graph_fusion.GlobalSceneGraph, "integrate_prediction")],
    "graph_fusion.export": [(graph_fusion.GlobalSceneGraph, "export")],
    "evaluation.eval": [
        evaluation.aos,
        evaluation.aos_summed_ratios,
        evaluation.map_segments,
        evaluation.recall_suite,
    ],
}

READ_SPANS = ("seqio.read_points", "seqio.read_pgm16", "seqio.read_pose")


def _replace(target, wrap) -> None:
    if isinstance(target, tuple):
        cls, name = target
        setattr(cls, name, wrap(getattr(cls, name)))
        return
    wrapper = wrap(target)
    for name, module in list(sys.modules.items()):
        if name == "sgmap" or name.startswith("sgmap."):
            for attr, value in list(vars(module).items()):
                if value is target:
                    setattr(module, attr, wrapper)


class Tracer:
    def __init__(self):
        self.spans: list[tuple | None] = []
        self.stack: list[int] = []
        self.replay = 0
        self.counts: list[Counter] = [Counter()]
        self._gc_start = 0.0

    def next_replay(self) -> None:
        self.replay += 1
        self.counts.append(Counter())

    def count(self, name: str, amount=1) -> None:
        self.counts[self.replay][name] += amount

    def span(self, name: str, fn, on_call=None):
        spans, stack = self.spans, self.stack

        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, self.replay)
            if on_call is not None:
                on_call(args, result)
            return result

        return wrapper

    def counter(self, name: str | None, fn, on_call=None):
        """Count calls (unless ``name`` is None) without a span, so the time
        stays with the caller."""

        def wrapper(*args, **kwargs):
            if name is not None:
                self.counts[self.replay][name] += 1
            result = fn(*args, **kwargs)
            if on_call is not None:
                on_call(args, result)
            return result

        return wrapper

    def install(self) -> None:
        hooks = {
            "ssgp.forward": self._on_forward,
            **{name: self._on_read for name in READ_SPANS},
        }
        for name, targets in SPANS.items():
            for target in targets:
                _replace(target, lambda fn, name=name: self.span(name, fn, hooks.get(name)))
        _replace(
            (entity_map.PointMap, "snapshot"),
            lambda fn: self.counter(None, fn, self._on_snapshot),
        )
        _replace(geometry.obb_collide, lambda fn: self.counter("geometry.obb_collide_calls", fn))
        _replace((entity_map.PointMap, "allocate_label"), lambda fn: self.counter("entity_map.labels_minted", fn))
        _replace((autodiff.Tensor, "__init__"), lambda fn: self.counter("autodiff.tensors_created", fn))
        gc.callbacks.append(self._on_gc)

    def wrap_replay(self, fn):
        return self.span("pipeline.replay", fn)

    def _on_read(self, args, _result) -> None:
        self.count("seqio.read_bytes", os.path.getsize(args[0]))

    def _on_forward(self, args, _result) -> None:
        inputs = args[0]
        self.count("ssgp.graph_nodes", len(inputs.node_labels))
        self.count("ssgp.graph_edges", len(inputs.edges))

    def _on_snapshot(self, _args, snapshot) -> None:
        self.count("graph_extract.label_ticks", len(np.unique(snapshot.labels[snapshot.labels != 0])))

    def _on_gc(self, phase: str, _info: dict) -> None:
        if phase == "start":
            self._gc_start = perf_counter()
        else:
            self.count("runtime.gc_pause_s", perf_counter() - self._gc_start)
            self.count("runtime.gc_collections")

    def dump(self, path: Path) -> None:
        """Write one JSON line per span, then one line of counts per replay."""
        with open(path, "w") as fh:
            for name, start, end, parent, replay in self.spans:
                fh.write(json.dumps([name, start, end, parent, replay]) + "\n")
            fh.write(json.dumps({"counts": [dict(c) for c in self.counts]}) + "\n")
