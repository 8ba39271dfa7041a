"""View-frustum construction and the pairwise overlap score.

A camera's viewing volume is modelled two ways: as six inward-facing planes
(the containment test) and as a regular lattice of 3D points (the probe set).
The overlap of an (anchor, other) pair is the fraction of the other camera's
lattice points that fall inside the anchor's plane frustum, forced to zero
when the relative rotation exceeds a configurable gate.

The camera looks along +z; hfov spans x, vfov spans y.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import Pose, rotation_error


@dataclass(frozen=True)
class FrustumSpec:
    """Viewing-volume parameters shared by both frustum representations.

    Defaults approximate a Kinect-style indoor sensor. The lattice includes
    the cross-section corners at every depth, which makes a frustum contain
    its own probe points exactly (self-overlap is exactly 1).
    """

    hfov_deg: float = 58.0
    vfov_deg: float = 45.0
    near: float = 0.1
    far: float = 4.0
    grid_nx: int = 8
    grid_ny: int = 8
    grid_nz: int = 8
    boundary_epsilon: float = 1e-9

    def __post_init__(self):
        if not (0.0 < self.hfov_deg < 180.0 and 0.0 < self.vfov_deg < 180.0):
            raise ValueError("field of view must be in (0, 180) degrees")
        if not (0.0 < self.near < self.far):
            raise ValueError("require 0 < near < far")
        # corner-inclusive lattice needs both endpoints along every axis
        if min(self.grid_nx, self.grid_ny, self.grid_nz) < 2:
            raise ValueError("grid resolution must be >= 2 per axis")
        if self.boundary_epsilon < 0.0:
            raise ValueError("boundary_epsilon must be >= 0")

    @property
    def n_points(self) -> int:
        return self.grid_nx * self.grid_ny * self.grid_nz

    @property
    def half_tangents(self) -> tuple[float, float]:
        return (
            math.tan(math.radians(self.hfov_deg) / 2.0),
            math.tan(math.radians(self.vfov_deg) / 2.0),
        )


@dataclass(frozen=True)
class OverlapConfig:
    """Overlap-scoring configuration: frustum shape plus the rotation gate.

    The directional (anchor <- other) score is the default; `symmetric`
    scores both directions and keeps the minimum.
    """

    frustum: FrustumSpec = field(default_factory=FrustumSpec)
    max_relative_rotation_deg: float = 110.0
    symmetric: bool = False

    def __post_init__(self):
        if not (0.0 < self.max_relative_rotation_deg <= 180.0):
            raise ValueError("max_relative_rotation_deg must be in (0, 180]")


@dataclass(frozen=True, eq=False)
class PlaneFrustum:
    """Six oriented world-space planes; normals point inward.

    Plane order: near, far, left, right, bottom, top. A point is inside when
    its signed distance to every plane is >= -epsilon.
    """

    normals: np.ndarray  # (6, 3), unit rows
    offsets: np.ndarray  # (6,)
    epsilon: float


@dataclass(frozen=True, eq=False)
class PointFrustum:
    """World-space probe lattice of a camera's viewing volume."""

    points: np.ndarray  # (n_points, 3)


def camera_planes(spec: FrustumSpec):
    """Inward plane normals and offsets in the camera frame."""
    ta, tb = spec.half_tangents
    ca, sa = math.cos(math.atan(ta)), math.sin(math.atan(ta))
    cb, sb = math.cos(math.atan(tb)), math.sin(math.atan(tb))
    normals = np.array(
        [
            [0.0, 0.0, 1.0],   # near
            [0.0, 0.0, -1.0],  # far
            [ca, 0.0, sa],     # left
            [-ca, 0.0, sa],    # right
            [0.0, cb, sb],     # bottom
            [0.0, -cb, sb],    # top
        ]
    )
    offsets = np.array([-spec.near, spec.far, 0.0, 0.0, 0.0, 0.0])
    return normals, offsets


def camera_grid(spec: FrustumSpec) -> np.ndarray:
    """Probe lattice in the camera frame, shape (n_points, 3).

    Depths are linearly spaced over [near, far]; at each depth the lattice
    spans the full field-of-view cross-section, corners included. Point order
    is depth-major, then y, then x.
    """
    ta, tb = spec.half_tangents
    z = np.linspace(spec.near, spec.far, spec.grid_nz)
    ux = np.linspace(-1.0, 1.0, spec.grid_nx)
    uy = np.linspace(-1.0, 1.0, spec.grid_ny)
    zz = z[:, None, None]
    x = np.broadcast_to(zz * ta * ux[None, None, :], (spec.grid_nz, spec.grid_ny, spec.grid_nx))
    y = np.broadcast_to(zz * tb * uy[None, :, None], (spec.grid_nz, spec.grid_ny, spec.grid_nx))
    zfull = np.broadcast_to(zz, (spec.grid_nz, spec.grid_ny, spec.grid_nx))
    return np.stack([x, y, zfull], axis=-1).reshape(-1, 3)


def camera_corners(spec: FrustumSpec) -> np.ndarray:
    """The eight vertices of the truncated pyramid, camera frame."""
    ta, tb = spec.half_tangents
    corners = []
    for z in (spec.near, spec.far):
        for sy in (-1.0, 1.0):
            for sx in (-1.0, 1.0):
                corners.append([sx * z * ta, sy * z * tb, z])
    return np.array(corners)


def build_plane_frustum(pose: Pose, spec: FrustumSpec) -> PlaneFrustum:
    """Place the six planes at a camera pose, in world coordinates."""
    n_cam, d_cam = camera_planes(spec)
    r = pose.rotation.to_matrix()
    t = pose.translation.as_array()
    normals = n_cam @ r.T
    offsets = d_cam - normals @ t
    return PlaneFrustum(normals=normals, offsets=offsets, epsilon=spec.boundary_epsilon)


def build_point_frustum(pose: Pose, spec: FrustumSpec) -> PointFrustum:
    """Place the probe lattice at a camera pose, in world coordinates."""
    r = pose.rotation.to_matrix()
    t = pose.translation.as_array()
    return PointFrustum(points=camera_grid(spec) @ r.T + t)


def signed_distances(f: PlaneFrustum, points) -> np.ndarray:
    """Signed distance of each point to each plane, shape (..., 6)."""
    points = np.asarray(points, dtype=float)
    return points @ f.normals.T + f.offsets


def contains(f: PlaneFrustum, point) -> bool:
    """True iff the point is inside all six planes, within epsilon."""
    return bool(np.all(signed_distances(f, point) >= -f.epsilon))


def contains_points(f: PlaneFrustum, points) -> np.ndarray:
    """Vectorized containment verdicts for an (M, 3) array."""
    return np.all(signed_distances(f, points) >= -f.epsilon, axis=-1)


def camera_sphere(spec: FrustumSpec):
    """Camera-frame (center, radius) of a sphere covering the viewing volume
    inflated by boundary_epsilon, i.e. every point the containment test accepts.

    Moving each plane outward by eps keeps the truncated pyramid's shape: the
    depth range grows to [near - eps, far + eps] and each side plane shifts by
    eps / cos(half-angle), so the eight inflated vertices span it.
    """
    ta, tb = spec.half_tangents
    eps = spec.boundary_epsilon
    ex = eps / math.cos(math.atan(ta))
    ey = eps / math.cos(math.atan(tb))
    corners = np.array(
        [
            [sx * (z * ta + ex), sy * (z * tb + ey), z]
            for z in (spec.near - eps, spec.far + eps)
            for sy in (-1.0, 1.0)
            for sx in (-1.0, 1.0)
        ]
    )
    c_cam = camera_corners(spec).mean(axis=0)
    return c_cam, float(np.linalg.norm(corners - c_cam, axis=1).max())


def bounding_sphere(pose: Pose, spec: FrustumSpec):
    """A sphere covering the epsilon-inflated viewing volume (center, radius)."""
    c_cam, radius = camera_sphere(spec)
    center = pose.rotation.rotate(c_cam) + pose.translation.as_array()
    return center, radius


def _directional_score(anchor: Pose, other: Pose, spec: FrustumSpec, early_reject: bool) -> float:
    if early_reject:
        ca, r = bounding_sphere(anchor, spec)
        cb, _ = bounding_sphere(other, spec)
        # other's probes lie within r of cb, accepted points within r of ca;
        # the slack absorbs rounding
        if np.linalg.norm(ca - cb) > 2.0 * r + 1e-6:
            return 0.0
    planes = build_plane_frustum(anchor, spec)
    pts = build_point_frustum(other, spec).points
    return int(contains_points(planes, pts).sum()) / spec.n_points


def overlap_score(anchor: Pose, other: Pose, cfg: OverlapConfig, *, early_reject: bool = True) -> float:
    """Fraction of `other`'s probe points inside `anchor`'s frustum, in [0, 1].

    Returns 0 outright when the relative rotation exceeds the gate. With
    cfg.symmetric the minimum of the two directional scores is returned.
    The early bounding-sphere reject never changes the result, only skips
    point tests that would count zero: the sphere covers the frustum
    inflated by boundary_epsilon, so it holds every point the test accepts.
    This is the scalar reference; `generate_pairs` scores many pairs at once
    with the same plane distances and further rejects of its own.
    """
    if rotation_error(anchor.rotation, other.rotation) > cfg.max_relative_rotation_deg:
        return 0.0
    score = _directional_score(anchor, other, cfg.frustum, early_reject)
    if cfg.symmetric:
        score = min(score, _directional_score(other, anchor, cfg.frustum, early_reject))
    return score
