"""Synthetic ground-truthed sequences: primitive surfaces sampled into
sparse point clouds, camera paths, rendered label/confidence masks, and
geometric support relationships.

Generation is fully seeded: grid sampling happens before jitter and all
randomness flows from one seed sequence, so identical specs produce
byte-identical directories.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import seqio
from .errors import SceneSpecError
from .geometry import (
    UNREACHED,
    CameraIntrinsics,
    Obb,
    RigidPose,
    look_at_pose,
    obb_collide_matrix,
    project_points,
    rotation_about_axis,
    splat_min,
)

NODE_CLASS_NAMES = ["floor", "table", "box", "wall"]
PREDICATE_NAMES = ["none", "standing_on", "attached_to"]

SUPPORT_GAP = 0.02  # max vertical gap for "standing on", meters
CONTACT_GAP = 0.02  # max face distance for "attached to", meters

DEFAULT_JITTER_SIGMA = 0.004
DEFAULT_CONF_RANGE = (0.7, 1.0)
DEFAULT_MASK_SPLAT = 2


@dataclass(frozen=True)
class PrimitiveSpec:
    """One sampled surface: a full box or a single horizontal rectangle.

    ``instance`` groups several primitives into one labeled entity;
    ``birth_frame`` delays the points' first appearance in the per-frame
    observation lists (mask rendering always sees the whole scene).
    """

    kind: str  # "box" | "plane"
    class_id: int
    instance: int
    center: tuple[float, float, float]
    dims: tuple[float, float, float]
    yaw: float = 0.0
    density: float = 100.0  # points per square meter
    birth_frame: int = 0
    mask_splat: int | None = None  # per-instance mask splat override

    def __post_init__(self):
        if self.kind not in ("box", "plane"):
            raise SceneSpecError(f"unknown primitive kind {self.kind!r}")
        if self.density <= 0:
            raise SceneSpecError("density must be positive")
        if min(self.dims) < 0:
            raise SceneSpecError("dims must be non-negative")
        if self.instance <= 0:
            raise SceneSpecError("instance ids start at 1")


@dataclass(frozen=True)
class SceneSpec:
    """Primitives, camera trajectory, and noise parameters."""

    seed: int
    primitives: tuple[PrimitiveSpec, ...]
    intrinsics: CameraIntrinsics
    poses: tuple[RigidPose, ...]
    jitter_sigma: float = DEFAULT_JITTER_SIGMA
    conf_range: tuple[float, float] = DEFAULT_CONF_RANGE
    mask_splat: int = DEFAULT_MASK_SPLAT

    def __post_init__(self):
        if not self.primitives:
            raise SceneSpecError("scene needs at least one primitive")
        if not self.poses:
            raise SceneSpecError("scene needs at least one camera pose")
        lo, hi = self.conf_range
        if not (0.0 <= lo <= hi <= 1.0):
            raise SceneSpecError("conf_range must satisfy 0 <= lo <= hi <= 1")


def _grid(n: int) -> np.ndarray:
    """n cell centers in (0, 1)."""
    return (np.arange(n) + 0.5) / n


def _face_points(
    origin: np.ndarray, edge_u: np.ndarray, edge_v: np.ndarray, density: float
) -> np.ndarray:
    len_u = float(np.linalg.norm(edge_u))
    len_v = float(np.linalg.norm(edge_v))
    spacing = 1.0 / math.sqrt(density)
    nu = max(1, int(round(len_u / spacing)))
    nv = max(1, int(round(len_v / spacing)))
    uu, vv = np.meshgrid(_grid(nu), _grid(nv), indexing="ij")
    return (
        origin[None, :]
        + uu.reshape(-1, 1) * edge_u[None, :]
        + vv.reshape(-1, 1) * edge_v[None, :]
    )


def primitive_obb(prim: PrimitiveSpec) -> Obb:
    dims = np.maximum(np.asarray(prim.dims, dtype=np.float64), 1e-9)
    return Obb(center=np.asarray(prim.center), dims=dims, yaw=prim.yaw)


def _primitive_axes(prim: PrimitiveSpec) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    c, s = math.cos(prim.yaw), math.sin(prim.yaw)
    ax = np.array([c, s, 0.0])
    ay = np.array([-s, c, 0.0])
    az = np.array([0.0, 0.0, 1.0])
    return ax, ay, az


def sample_primitive(prim: PrimitiveSpec) -> np.ndarray:
    """Grid-sample the primitive's surfaces (before jitter)."""
    center = np.asarray(prim.center, dtype=np.float64)
    dx, dy, dz = prim.dims
    ax, ay, az = _primitive_axes(prim)
    half = 0.5 * np.array([dx, dy, dz])

    if prim.kind == "plane":
        origin = center - half[0] * ax - half[1] * ay
        return _face_points(origin, dx * ax, dy * ay, prim.density)

    faces = []
    # top and bottom
    for sz in (+1, -1):
        origin = center + sz * half[2] * az - half[0] * ax - half[1] * ay
        faces.append(_face_points(origin, dx * ax, dy * ay, prim.density))
    # front and back (normal along ay)
    for sy in (+1, -1):
        origin = center + sy * half[1] * ay - half[0] * ax - half[2] * az
        faces.append(_face_points(origin, dx * ax, dz * az, prim.density))
    # left and right (normal along ax)
    for sx in (+1, -1):
        origin = center + sx * half[0] * ax - half[1] * ay - half[2] * az
        faces.append(_face_points(origin, dy * ay, dz * az, prim.density))
    return np.vstack(faces)


@dataclass
class SampledScene:
    """All scene points with their instance, class, and birth metadata."""

    positions: np.ndarray
    instances: np.ndarray
    classes: np.ndarray
    birth_frames: np.ndarray
    mask_splats: np.ndarray
    instance_classes: dict[int, int]


def sample_scene(spec: SceneSpec) -> SampledScene:
    rng = np.random.default_rng([spec.seed, 0])
    positions = []
    instances = []
    classes = []
    births = []
    splats = []
    instance_classes: dict[int, int] = {}
    for prim in spec.primitives:
        pts = sample_primitive(prim)
        if spec.jitter_sigma > 0:
            pts = pts + rng.normal(0.0, spec.jitter_sigma, size=pts.shape)
        positions.append(pts)
        instances.append(np.full(len(pts), prim.instance, dtype=np.int64))
        classes.append(np.full(len(pts), prim.class_id, dtype=np.int64))
        births.append(np.full(len(pts), prim.birth_frame, dtype=np.int64))
        splat = spec.mask_splat if prim.mask_splat is None else prim.mask_splat
        splats.append(np.full(len(pts), splat, dtype=np.int64))
        existing = instance_classes.get(prim.instance)
        if existing is not None and existing != prim.class_id:
            raise SceneSpecError(
                f"instance {prim.instance} has conflicting class ids"
            )
        instance_classes[prim.instance] = prim.class_id
    return SampledScene(
        positions=np.vstack(positions),
        instances=np.concatenate(instances),
        classes=np.concatenate(classes),
        birth_frames=np.concatenate(births),
        mask_splats=np.concatenate(splats),
        instance_classes=instance_classes,
    )


def _render_instance_mask(
    scene: SampledScene, pose: RigidPose, intrinsics: CameraIntrinsics
) -> np.ndarray:
    """Instance-id mask by splatting all scene points with depth contention.

    Points may carry different splat radii (solid masks for sparse
    instances).  A pixel shows the point of least (depth, scene index)
    among those whose splat covers it: the visible points are ranked in
    that order, each radius group is splatted on its own, and the groups'
    rasters are combined by their elementwise minimum.
    """
    h, w = intrinsics.height, intrinsics.width
    mask = np.zeros((h, w), dtype=np.int64)
    uv, depth, visible = project_points(scene.positions, pose, intrinsics)
    index = np.flatnonzero(visible)
    if not len(index):
        return mask
    rows = np.floor(uv[index, 1]).astype(np.int64)
    cols = np.floor(uv[index, 0]).astype(np.int64)
    order = np.lexsort((index, depth[index]))
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    best = np.full((h, w), UNREACHED, dtype=np.intp)
    radii = scene.mask_splats[index]
    for radius in np.unique(radii):
        group = radii == radius
        top, group_best = splat_min(rows[group], cols[group], rank[group], int(radius), (h, w))
        band = best[top : top + len(group_best)]
        np.minimum(band, group_best, out=band)
    hit = best != UNREACHED
    mask[hit] = scene.instances[index[order[best[hit]]]]
    return mask


def derive_support_triplets(scene_spec: SceneSpec) -> list[tuple[int, int, int]]:
    """GT predicates from primitive geometry.

    standing_on: the upper box's bottom face rests on the lower one's top
    face (vertical gap under 2 cm, horizontal rectangles overlapping).
    attached_to: boxes within 2 cm face distance that are not in a support
    relation, emitted in both directions.
    """
    standing = PREDICATE_NAMES.index("standing_on")
    attached = PREDICATE_NAMES.index("attached_to")
    boxes = [primitive_obb(p) for p in scene_spec.primitives]
    # Every box flattened to a unit slab at one height: two of them collide
    # exactly when the horizontal rectangles overlap.
    slabs = [
        Obb(box.center * [1, 1, 0] + [0, 0, 0.5], box.dims * [1, 1, 0] + [0, 0, 1], box.yaw)
        for box in boxes
    ]
    instance = np.array([p.instance for p in scene_spec.primitives])
    z = np.array([box.center[2] for box in boxes])
    half_height = np.array([0.5 * box.dims[2] for box in boxes])
    # (a, b) over ordered pairs of primitives: a is the subject, b the object.
    apart = instance[:, None] != instance[None, :]
    stands = (
        apart
        & obb_collide_matrix(slabs, 0.0)
        & (np.abs((z - half_height)[:, None] - (z + half_height)[None, :]) < SUPPORT_GAP)
    )
    touches = apart & ~stands & obb_collide_matrix(boxes, 0.5 * CONTACT_GAP)
    triplets = {
        (int(instance[a]), predicate, int(instance[b]))
        for predicate, pairs in ((standing, stands), (attached, touches))
        for a, b in zip(*np.nonzero(pairs))
    }
    # A support relation suppresses the symmetric contact pair.
    supported = {(s, o) for (s, p, o) in triplets if p == standing}
    cleaned = {
        (s, p, o)
        for (s, p, o) in triplets
        if p != attached or ((s, o) not in supported and (o, s) not in supported)
    }
    return sorted(cleaned)


def generate(spec: SceneSpec, out_dir) -> dict:
    """Write the sequence directory plus ground-truth files.

    Returns a small summary with point and frame counts.
    """
    out = Path(out_dir)
    frames_dir = out / "frames"
    frames_dir.mkdir(parents=True, exist_ok=True)
    scene = sample_scene(spec)
    point_ids = np.arange(len(scene.positions), dtype=np.int64)

    seqio.write_intrinsics(out / "intrinsics.txt", spec.intrinsics)

    for frame_idx, pose in enumerate(spec.poses):
        stem = seqio.frame_stem(frame_idx)
        seqio.write_pose(frames_dir / f"{stem}.pose", pose)

        born = scene.birth_frames <= frame_idx
        _, _, visible = project_points(scene.positions, pose, spec.intrinsics)
        observed = born & visible
        seqio.write_points(
            frames_dir / f"{stem}.points",
            point_ids[observed],
            scene.positions[observed],
        )

        mask = _render_instance_mask(scene, pose, spec.intrinsics)
        seqio.write_pgm16(frames_dir / f"{stem}.labels.pgm", mask)
        rng = np.random.default_rng([spec.seed, 1000 + frame_idx])
        lo, hi = spec.conf_range
        conf = np.zeros(mask.shape)
        nonzero = mask != 0
        conf[nonzero] = rng.uniform(lo, hi, size=int(nonzero.sum()))
        seqio.write_pgm16(frames_dir / f"{stem}.conf.pgm", seqio.confidence_to_pgm(conf))

    triplets = derive_support_triplets(spec)
    seqio.write_gt_graph(
        out / "gt_graph.json",
        scene.instance_classes,
        triplets,
        NODE_CLASS_NAMES,
        PREDICATE_NAMES,
    )
    seqio.write_labeled_ply(
        out / "gt_points.ply",
        scene.positions,
        {"instance": scene.instances, "class_id": scene.classes},
    )
    return {
        "points": int(len(scene.positions)),
        "frames": len(spec.poses),
        "instances": len(scene.instance_classes),
        "triplets": len(triplets),
    }


def scene_from_dict(doc: dict) -> SceneSpec:
    """Build a scene from a JSON document.

    Expected keys: ``seed``, ``primitives`` (kind/class_id/instance/center/
    dims plus optional yaw/density/birth_frame/mask_splat), ``intrinsics``
    (fx fy cx cy width height), ``poses`` (each either ``{"eye": [...],
    "target": [...]}`` or ``{"matrix": [16 row-major numbers]}``), and
    optional ``jitter_sigma`` / ``conf_range`` / ``mask_splat``.
    """
    try:
        intr = doc["intrinsics"]
        intrinsics = CameraIntrinsics(
            fx=float(intr["fx"]),
            fy=float(intr["fy"]),
            cx=float(intr["cx"]),
            cy=float(intr["cy"]),
            width=int(intr["width"]),
            height=int(intr["height"]),
        )
        poses = []
        for entry in doc["poses"]:
            if "matrix" in entry:
                mat = np.asarray(entry["matrix"], dtype=np.float64).reshape(4, 4)
                poses.append(RigidPose(rotation=mat[:3, :3], translation=mat[:3, 3]))
            else:
                poses.append(
                    look_at_pose(np.asarray(entry["eye"]), np.asarray(entry["target"]))
                )
        primitives = tuple(
            PrimitiveSpec(
                kind=prim["kind"],
                class_id=int(prim["class_id"]),
                instance=int(prim["instance"]),
                center=tuple(prim["center"]),
                dims=tuple(prim["dims"]),
                yaw=float(prim.get("yaw", 0.0)),
                density=float(prim.get("density", 100.0)),
                birth_frame=int(prim.get("birth_frame", 0)),
                mask_splat=prim.get("mask_splat"),
            )
            for prim in doc["primitives"]
        )
        return SceneSpec(
            seed=int(doc.get("seed", 0)),
            primitives=primitives,
            intrinsics=intrinsics,
            poses=tuple(poses),
            jitter_sigma=float(doc.get("jitter_sigma", DEFAULT_JITTER_SIGMA)),
            conf_range=tuple(doc.get("conf_range", DEFAULT_CONF_RANGE)),
            mask_splat=int(doc.get("mask_splat", DEFAULT_MASK_SPLAT)),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise SceneSpecError(f"malformed scene description: {exc}") from exc


# -- canned scenes -------------------------------------------------------


def desk_intrinsics(width: int = 160, height: int = 120) -> CameraIntrinsics:
    f = 0.9 * width
    return CameraIntrinsics(
        fx=f, fy=f, cx=width / 2.0, cy=height / 2.0, width=width, height=height
    )


def orbit_poses(
    center: np.ndarray,
    radii: list[float],
    height: float,
    frames_per_ring: int,
) -> list[RigidPose]:
    center = np.asarray(center, dtype=np.float64)
    poses = []
    for ring, radius in enumerate(radii):
        for k in range(frames_per_ring):
            azimuth = 2.0 * math.pi * k / frames_per_ring + 0.13 * ring
            eye = center + np.array(
                [radius * math.cos(azimuth), radius * math.sin(azimuth), height + 0.3 * ring]
            )
            poses.append(look_at_pose(eye, center))
    return poses


def desk_scene(seed: int = 7, frames: int = 12, rings: int = 1) -> SceneSpec:
    """A small desk-scale scene: floor, table, a box standing on the table,
    and a second box on the floor leaning against the table."""
    radii = [1.9 + 0.45 * r for r in range(rings)]
    poses = orbit_poses(
        center=np.array([0.0, 0.0, 0.35]),
        radii=radii,
        height=1.3,
        frames_per_ring=max(1, frames // rings),
    )
    primitives = (
        PrimitiveSpec(
            kind="plane",
            class_id=NODE_CLASS_NAMES.index("floor"),
            instance=1,
            center=(0.0, 0.0, 0.0),
            dims=(3.0, 3.0, 0.0),
            density=150.0,
        ),
        PrimitiveSpec(
            kind="box",
            class_id=NODE_CLASS_NAMES.index("table"),
            instance=2,
            center=(0.0, 0.0, 0.25),
            dims=(1.0, 0.6, 0.5),
            density=300.0,
        ),
        PrimitiveSpec(
            kind="box",
            class_id=NODE_CLASS_NAMES.index("box"),
            instance=3,
            center=(0.2, 0.1, 0.625),
            dims=(0.25, 0.25, 0.25),
            yaw=0.4,
            density=900.0,
        ),
        PrimitiveSpec(
            kind="box",
            class_id=NODE_CLASS_NAMES.index("box"),
            instance=4,
            center=(0.66, 0.0, 0.15),
            dims=(0.3, 0.3, 0.3),
            density=760.0,
        ),
    )
    return SceneSpec(
        seed=seed,
        primitives=primitives,
        intrinsics=desk_intrinsics(),
        poses=tuple(poses[:frames]),
    )


def stress_scene_nonuniform(seed: int = 2024) -> SceneSpec:
    """Dense floor next to a sparse table, swept by three keyframes.

    The carpet zone behind the table enters the map only at the second
    frame, hidden inside the table's mask, so its dense points adopt the
    table's label.  The third, overhead frame exposes that zone inside the
    floor mask: overlap-count scoring then hands the table's label to the
    floor (the table falls back to a fresh label), while mean-confidence
    scoring keeps both assignments and heals the contaminated points.
    Confidence is held constant so the weight arithmetic is deterministic:
    once-touched points flip on a single contradiction, twice-confirmed
    points survive it.
    """
    intrinsics = CameraIntrinsics(
        fx=120.0, fy=120.0, cx=80.0, cy=60.0, width=160, height=120
    )
    base = look_at_pose(np.array([0.0, -1.35, 0.62]), np.array([0.0, -0.25, 0.1]))
    # Second frame: same viewpoint rolled about the optical axis, which
    # passes the keyframe rotation gate while keeping the carpet zone
    # hidden behind the table.
    rolled = RigidPose(
        rotation=base.rotation
        @ rotation_about_axis(np.array([0.0, 0.0, 1.0]), math.radians(8.0)),
        translation=base.translation,
    )
    poses = (
        base,
        rolled,
        look_at_pose(np.array([0.0, -0.3, 3.4]), np.array([0.0, 0.8, 0.0])),
    )
    primitives = (
        # clean floor strip in front of the table, visible in every frame
        PrimitiveSpec(
            kind="plane",
            class_id=NODE_CLASS_NAMES.index("floor"),
            instance=1,
            center=(0.0, -0.70, 0.0),
            dims=(1.9, 0.28, 0.0),
            density=2000.0,
        ),
        # carpet zone behind the table: dense, appears in the map late
        PrimitiveSpec(
            kind="plane",
            class_id=NODE_CLASS_NAMES.index("floor"),
            instance=1,
            center=(0.0, 1.125, 0.0),
            dims=(1.9, 1.35, 0.0),
            density=2000.0,
            birth_frame=1,
        ),
        # sparse table with a solid rendered mask
        PrimitiveSpec(
            kind="box",
            class_id=NODE_CLASS_NAMES.index("table"),
            instance=2,
            center=(0.0, 0.0, 0.3),
            dims=(1.1, 0.7, 0.6),
            density=30.0,
            mask_splat=7,
        ),
    )
    return SceneSpec(
        seed=seed,
        primitives=primitives,
        intrinsics=intrinsics,
        poses=poses,
        jitter_sigma=0.003,
        conf_range=(0.9, 0.9),
    )
