"""Point-set geometry: statistical outlier removal, gravity-aligned
minimum-volume box fitting, margin-inflated box collision, pinhole
projection, and the depth-contended point splat shared by the reference
render and the synthetic label masks.

All functions operate on float64 numpy arrays and are pure, except that
:func:`outlier_mask` updates the neighbour cache it is given.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import ConvexHull, QhullError, cKDTree

from .errors import DegenerateGeometry, EmptyPointSet

HALF_PI = math.pi / 2.0

# Defaults for statistical outlier removal; the method fixes the rule, the
# parameters are conventional.
DEFAULT_MEAN_K = 16
DEFAULT_STD_RATIO = 2.0

# Extents are clamped to stay strictly positive so perfectly flat inputs
# still produce a valid box.
MIN_EXTENT = 1e-9


@dataclass(frozen=True)
class GravityConfig:
    """World up direction (the inverse of gravity). Must be unit length."""

    up: np.ndarray = field(default_factory=lambda: np.array([0.0, 0.0, 1.0]))

    def __post_init__(self):
        up = np.asarray(self.up, dtype=np.float64)
        if up.shape != (3,):
            raise ValueError(f"up must be a 3-vector, got shape {up.shape}")
        if abs(np.linalg.norm(up) - 1.0) > 1e-9:
            raise ValueError("up must be unit length within 1e-9")
        object.__setattr__(self, "up", up)
        # Deterministic right-handed horizontal basis (h1, h2) with
        # h2 = up x h1, computed once; see :func:`horizontal_basis`.
        axis = np.zeros(3)
        axis[int(np.argmin(np.abs(up)))] = 1.0
        h1 = axis - np.dot(axis, up) * up
        h1 /= np.linalg.norm(h1)
        h2 = np.cross(up, h1)
        h1.flags.writeable = False
        h2.flags.writeable = False
        object.__setattr__(self, "basis", (h1, h2))


DEFAULT_GRAVITY = GravityConfig()


@dataclass(frozen=True)
class CameraIntrinsics:
    """Pinhole intrinsics in pixels."""

    fx: float
    fy: float
    cx: float
    cy: float
    width: int
    height: int

    def __post_init__(self):
        if self.fx <= 0 or self.fy <= 0:
            raise ValueError("focal lengths must be positive")
        if self.width <= 0 or self.height <= 0:
            raise ValueError("image dimensions must be positive")


@dataclass(frozen=True)
class RigidPose:
    """World-from-camera rigid transform: x_world = R @ x_cam + t."""

    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        rot = np.asarray(self.rotation, dtype=np.float64)
        trans = np.asarray(self.translation, dtype=np.float64)
        if rot.shape != (3, 3) or trans.shape != (3,):
            raise ValueError("rotation must be 3x3 and translation a 3-vector")
        if not np.allclose(rot @ rot.T, np.eye(3), atol=1e-6):
            raise ValueError("rotation must be orthonormal within 1e-6")
        object.__setattr__(self, "rotation", rot)
        object.__setattr__(self, "translation", trans)

    def world_to_camera(self, points: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
        return (pts - self.translation) @ self.rotation


@dataclass(frozen=True)
class Obb:
    """Gravity-aligned oriented bounding box.

    ``dims`` are full extents: the first two along the horizontal axes
    rotated by ``yaw`` about the up direction, the third along up.  Yaw is
    kept canonical in [0, pi/2); reductions by quarter turns swap the two
    horizontal extents so the box geometry is unchanged.
    """

    center: np.ndarray
    dims: np.ndarray
    yaw: float

    def __post_init__(self):
        center = np.asarray(self.center, dtype=np.float64)
        dims = np.asarray(self.dims, dtype=np.float64)
        if center.shape != (3,) or dims.shape != (3,):
            raise ValueError("center and dims must be 3-vectors")
        if np.any(dims <= 0):
            raise ValueError("dims must be strictly positive")
        yaw, d0, d1 = canonical_yaw(float(self.yaw), float(dims[0]), float(dims[1]))
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "dims", np.array([d0, d1, dims[2]]))
        object.__setattr__(self, "yaw", yaw)

    @property
    def horizontal_area(self) -> float:
        return float(self.dims[0] * self.dims[1])


def canonical_yaw(yaw: float, d0: float, d1: float) -> tuple[float, float, float]:
    """Reduce a yaw angle modulo pi/2, swapping the two horizontal extents
    once per odd quarter turn so the represented rectangle is unchanged."""
    r = yaw % HALF_PI
    quarter_turns = round((yaw - r) / HALF_PI)
    if HALF_PI - r < 1e-12:
        r = 0.0
        quarter_turns += 1
    if quarter_turns % 2 != 0:
        d0, d1 = d1, d0
    return r, d0, d1


def horizontal_basis(gravity: GravityConfig = DEFAULT_GRAVITY) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic right-handed horizontal basis (h1, h2) with h2 = up x h1
    (read-only arrays, computed once per :class:`GravityConfig`)."""
    return gravity.basis


@dataclass
class NeighbourCache:
    """The k-nearest-neighbour table of one point set, kept by
    :func:`outlier_mask` so the next call on a slightly changed set can
    reuse it.

    ``keys`` (n,) are the caller's strictly ascending point keys, and
    ``positions`` (n, 3) the points' positions.  Row i of ``dists``
    (n, k+1) holds point i's ascending distances to its k+1 nearest points
    of the set (itself included), realised by the points at rows
    ``index[i]``.  An empty cache (the default) makes the next call a full
    query.
    """

    keys: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))
    positions: np.ndarray = field(default_factory=lambda: np.empty((0, 3)))
    dists: np.ndarray = field(default_factory=lambda: np.empty((0, 0)))
    index: np.ndarray = field(default_factory=lambda: np.empty((0, 0), dtype=np.intp))


def outlier_mask(
    points: np.ndarray,
    mean_k: int = DEFAULT_MEAN_K,
    std_ratio: float = DEFAULT_STD_RATIO,
    keys: np.ndarray | None = None,
    neighbours: NeighbourCache | None = None,
) -> np.ndarray:
    """Boolean mask of points kept by statistical outlier removal.

    A point is kept when its mean distance to its ``mean_k`` nearest
    neighbours is at most the global mean plus ``std_ratio`` standard
    deviations of those per-point means.  Inputs with at most ``mean_k``
    points are returned unchanged.

    With ``neighbours`` (and the points' strictly ascending ``keys``) the
    neighbour table of the previous call is repaired instead of recomputed,
    and the cache is updated in place.  A cached row is kept when its point
    and all of its k+1 cached neighbours are still present at unchanged
    positions, and no point added since then is about as close as its
    last neighbour (within a relative 1e-12, so no rounding can hide one
    that is closer).  Every other row is queried afresh, so the result
    equals a full query bit for bit.
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 3:
        pts = pts.reshape(-1, 3)
    if len(pts) == 0:
        raise EmptyPointSet("outlier removal needs at least one point")
    if mean_k < 1:
        raise ValueError("mean_k must be >= 1")
    if len(pts) <= mean_k:
        return np.ones(len(pts), dtype=bool)
    k1 = mean_k + 1
    n = len(pts)
    cache = NeighbourCache() if neighbours is None else neighbours
    if neighbours is not None:
        keys = np.asarray(keys, dtype=np.int64)
        if keys.shape != (n,) or np.any(keys[1:] <= keys[:-1]):
            raise ValueError("keys must be strictly ascending, one per point")

    # Map the cached points onto the current ones: a cached point survives
    # when its key is still present at the same position.
    old_n = len(cache.keys) if cache.dists.shape[1:] == (k1,) else 0
    new_of_old = np.full(old_n, -1, dtype=np.intp)
    if old_n:
        at = np.minimum(np.searchsorted(keys, cache.keys), n - 1)
        same = (keys[at] == cache.keys) & np.all(pts[at] == cache.positions, axis=1)
        new_of_old[same] = at[same]
    survived = new_of_old >= 0
    is_old = np.zeros(n, dtype=bool)
    is_old[new_of_old[survived]] = True
    added = np.nonzero(~is_old)[0]
    reuse = np.nonzero(survived & survived[cache.index[:old_n]].all(axis=1))[0]
    if len(reuse) and len(added):
        nearest_added, _ = cKDTree(pts[added]).query(pts[new_of_old[reuse]], k=1)
        reuse = reuse[nearest_added > cache.dists[reuse, -1] * (1.0 + 1e-12)]

    dists = np.empty((n, k1))
    index = np.empty((n, k1), dtype=np.intp)
    requery = np.ones(n, dtype=bool)
    if len(reuse):
        rows = new_of_old[reuse]
        requery[rows] = False
        dists[rows] = cache.dists[reuse]
        index[rows] = new_of_old[cache.index[reuse]]
    if requery.any():
        dists[requery], index[requery] = cKDTree(pts).query(pts[requery], k=k1)

    if neighbours is not None:
        cache.keys, cache.positions, cache.dists, cache.index = keys, pts.copy(), dists, index
    mean_dists = dists[:, 1:].mean(axis=1)
    threshold = mean_dists.mean() + std_ratio * mean_dists.std()
    return mean_dists <= threshold


def fit_obb(points: np.ndarray, gravity: GravityConfig = DEFAULT_GRAVITY) -> Obb:
    """Fit the minimum-volume gravity-aligned box around ``points``.

    Under gravity alignment the problem reduces to the minimum-area rotated
    rectangle of the horizontal projection, solved exactly by testing each
    convex-hull edge direction, extruded by the vertical extent.

    Raises:
        DegenerateGeometry: fewer than 3 points, or the horizontal
            projection is (near-)colinear.
    """
    pts = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    if len(pts) < 3:
        raise DegenerateGeometry(f"box fit needs >= 3 points, got {len(pts)}")
    h1, h2 = horizontal_basis(gravity)
    up = gravity.up
    xy = pts @ np.stack([h1, h2], axis=1)
    z = pts @ up
    try:
        hull = ConvexHull(xy)
    except QhullError as exc:
        raise DegenerateGeometry("horizontal projection is degenerate") from exc
    hp = xy[hull.vertices]
    edges = np.roll(hp, -1, axis=0) - hp
    angles = np.unique(np.mod(np.arctan2(edges[:, 1], edges[:, 0]), HALF_PI))

    # Every candidate angle at once: rows are angles, columns hull points.
    cos = np.array([math.cos(a) for a in angles])[:, None]
    sin = np.array([math.sin(a) for a in angles])[:, None]
    u = hp[:, 0] * cos + hp[:, 1] * sin
    v = -hp[:, 0] * sin + hp[:, 1] * cos
    u_lo, u_hi = u.min(axis=1), u.max(axis=1)
    v_lo, v_hi = v.min(axis=1), v.max(axis=1)
    best = int(np.argmin((u_hi - u_lo) * (v_hi - v_lo)))

    ang = float(angles[best])
    umin, umax, vmin, vmax = u_lo[best], u_hi[best], v_lo[best], v_hi[best]
    c, s = float(cos[best, 0]), float(sin[best, 0])
    cu = 0.5 * (umin + umax)
    cv = 0.5 * (vmin + vmax)
    cx = cu * c - cv * s
    cy = cu * s + cv * c
    cz = 0.5 * (z.min() + z.max())
    center = cx * h1 + cy * h2 + cz * up
    dims = np.array(
        [
            max(umax - umin, MIN_EXTENT),
            max(vmax - vmin, MIN_EXTENT),
            max(z.max() - z.min(), MIN_EXTENT),
        ]
    )
    return Obb(center=center, dims=dims, yaw=ang)


def obb_collide_matrix(
    boxes: Sequence[Obb], margin: float = 0.0, gravity: GravityConfig = DEFAULT_GRAVITY
) -> np.ndarray:
    """Symmetric (N, N) matrix, True where two boxes, each extent enlarged by
    ``2 * margin``, overlap.  The diagonal is True.

    Gravity alignment splits the test into a vertical interval check and a
    separating-axis test on the two horizontal rectangles: every box's
    four corners are projected on the two edge directions of every box
    (one (4, 2) @ (2,) product each), and a pair is apart when one of the
    four directions of its two boxes separates their projections.
    Touching boxes count as colliding.
    """
    if margin < 0:
        raise ValueError("margin must be non-negative")
    centers = np.array([box.center for box in boxes]).reshape(-1, 3)
    dims = np.array([box.dims for box in boxes]).reshape(-1, 3)
    cos_sin = np.array([(math.cos(box.yaw), math.sin(box.yaw)) for box in boxes]).reshape(-1, 2)
    h1, h2 = horizontal_basis(gravity)

    z = centers @ gravity.up
    reach = 0.5 * (dims[:, None, 2] + dims[None, :, 2]) + 2.0 * margin
    overlap = np.abs(z[:, None] - z[None, :]) <= reach

    # axes[n] = the unit directions (u, v) of box n's horizontal edges
    axes = np.stack([cos_sin, np.stack([-cos_sin[:, 1], cos_sin[:, 0]], axis=1)], axis=1)
    half_u = (0.5 * dims[:, 0] + margin)[:, None] * axes[:, 0]
    half_v = (0.5 * dims[:, 1] + margin)[:, None] * axes[:, 1]
    center = centers @ np.stack([h1, h2], axis=1)
    signs = np.array([[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]])
    corners = (
        center[:, None] + signs[:, :1] * half_u[:, None] + signs[:, 1:] * half_v[:, None]
    )
    # proj[n, m, t] = box n's corners on direction t of box m, one
    # (4, 2) @ (2,) matrix product each.  That rounds like the pairwise
    # reference in tests/oracles.py (an elementwise sum may not), so the
    # two agree even at exact contact, where the rounding decides.
    proj = np.matmul(corners[:, None, None], axes[None, :, :, :, None])[..., 0]
    hi, lo = proj.max(axis=3), proj.min(axis=3)
    own = np.arange(len(centers))
    own_hi, own_lo = hi[own, own][:, None], lo[own, own][:, None]
    # [n, m, t]: box m on direction t of box n
    other_hi, other_lo = hi.transpose(1, 0, 2), lo.transpose(1, 0, 2)
    apart = ((own_hi < other_lo) | (other_hi < own_lo)).any(axis=2)
    return overlap & ~apart & ~apart.T


def obb_collide(
    a: Obb, b: Obb, margin: float = 0.0, gravity: GravityConfig = DEFAULT_GRAVITY
) -> bool:
    """True when the boxes, each extent enlarged by ``2 * margin``, overlap
    (see :func:`obb_collide_matrix`)."""
    return bool(obb_collide_matrix([a, b], margin, gravity)[0, 1])


def project_points(
    points: np.ndarray, pose: RigidPose, intrinsics: CameraIntrinsics
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Project world points through a pinhole camera.

    Returns ``(uv, depth, visible)`` where ``uv`` holds float pixel
    coordinates, ``depth`` the camera-frame depth, and ``visible`` marks
    points with positive depth landing inside [0, width) x [0, height).
    """
    cam = pose.world_to_camera(points)
    depth = cam[:, 2]
    uv = np.full((len(cam), 2), np.nan)
    front = depth > 0
    uv[front, 0] = intrinsics.fx * cam[front, 0] / depth[front] + intrinsics.cx
    uv[front, 1] = intrinsics.fy * cam[front, 1] / depth[front] + intrinsics.cy
    visible = (
        front
        & (uv[:, 0] >= 0)
        & (uv[:, 0] < intrinsics.width)
        & (uv[:, 1] >= 0)
        & (uv[:, 1] < intrinsics.height)
    )
    return uv, depth, visible


# Raster value of a pixel that no splat reaches (see :func:`splat_min`).
UNREACHED = np.iinfo(np.intp).max


def splat_min(
    rows: np.ndarray, cols: np.ndarray, values: np.ndarray, radius: int, shape: tuple[int, int]
) -> tuple[int, np.ndarray]:
    """Splat each point's value over the (2r+1)^2 pixels around its centre
    pixel ``(rows[k], cols[k])``, clipped at the border of an image of
    ``shape`` (height, width); each pixel keeps the least value splatted
    onto it, :data:`UNREACHED` where none is.

    Returns ``(top, raster)``: the raster covers image rows ``top`` to
    ``top + len(raster)`` at full width, the band the splats can reach.
    Each centre pixel keeps its least value, then a sliding minimum runs
    over rows and over columns.  Needs at least one point; ``values`` are
    intp.
    """
    h, w = shape
    top = max(rows.min() - radius, 0)
    bottom = min(rows.max() + radius + 1, h)
    raster = np.full((bottom - top) * w, UNREACHED, dtype=np.intp)
    np.minimum.at(raster, (rows - top) * w + cols, values)
    raster = raster.reshape(-1, w)
    return top, _sliding_min(_sliding_min(raster, radius, axis=0), radius, axis=1)


def _sliding_min(img: np.ndarray, radius: int, axis: int) -> np.ndarray:
    """Minimum over a window of ``2 * radius + 1`` along ``axis``, clipped at
    the image border."""
    out = img.copy()
    n = img.shape[axis]
    for shift in range(1, min(radius, n - 1) + 1):
        lo = [slice(None)] * 2
        hi = [slice(None)] * 2
        lo[axis] = slice(0, n - shift)
        hi[axis] = slice(shift, n)
        lo, hi = tuple(lo), tuple(hi)
        np.minimum(out[lo], img[hi], out=out[lo])
        np.minimum(out[hi], img[lo], out=out[hi])
    return out


def rotation_about_axis(axis: np.ndarray, angle: float) -> np.ndarray:
    """Rodrigues rotation matrix about a unit axis."""
    axis = np.asarray(axis, dtype=np.float64)
    k = np.array(
        [
            [0.0, -axis[2], axis[1]],
            [axis[2], 0.0, -axis[0]],
            [-axis[1], axis[0], 0.0],
        ]
    )
    return np.eye(3) + math.sin(angle) * k + (1.0 - math.cos(angle)) * (k @ k)


def look_at_pose(
    eye: np.ndarray, target: np.ndarray, up_hint: np.ndarray = (0.0, 0.0, 1.0)
) -> RigidPose:
    """World-from-camera pose with +z looking from ``eye`` toward ``target``.

    The camera x-axis stays horizontal with respect to ``up_hint``; the
    y-axis completes a right-handed frame (pointing roughly downward for a
    z-up world, matching image row order).
    """
    eye = np.asarray(eye, dtype=np.float64)
    forward = np.asarray(target, dtype=np.float64) - eye
    norm = np.linalg.norm(forward)
    if norm < 1e-12:
        raise ValueError("eye and target coincide")
    forward = forward / norm
    up_hint = np.asarray(up_hint, dtype=np.float64)
    right = np.cross(forward, up_hint)
    if np.linalg.norm(right) < 1e-9:
        right = np.cross(forward, np.array([1.0, 0.0, 0.0]))
    right /= np.linalg.norm(right)
    down = np.cross(forward, right)
    rotation = np.stack([right, down, forward], axis=1)
    return RigidPose(rotation=rotation, translation=eye)
