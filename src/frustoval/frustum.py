"""View-frustum construction and the pairwise overlap score.

A camera's viewing volume is modelled two ways: as six inward-facing planes
(the containment test) and as a regular lattice of 3D points (the probe set).
The overlap of an (anchor, other) pair is the fraction of the other camera's
lattice points that fall inside the anchor's plane frustum, forced to zero
when the relative rotation exceeds a configurable gate.

One kernel computes it, for two poses (`overlap_score`) or for a whole
trajectory (`pairgen.generate_pairs`). Scoring every ordered pair of N frames
is O(N^2 * n_points), so each anchor row runs three cheap rejects before the
point-containment test: the rotation gate, bounding-sphere separation (the
sphere covers the epsilon-inflated frustum), and plane separation (all eight
corners of the other frustum below one anchor plane). The rejects never
change a count. The survivors are point-tested in fixed-size candidate
blocks, and each row keeps only its nonzero (query, count) entries, so no
(N, N) array is ever built. Rows are independent and spread over one thread
pool, the only parallel layer, which makes the output bit-identical for any
thread count.

The camera looks along +z; hfov spans x, vfov spans y.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import geometry
from .geometry import Pose


@dataclass(frozen=True)
class FrustumSpec:
    """Viewing-volume parameters shared by both frustum representations.

    Defaults approximate a Kinect-style indoor sensor. The lattice includes
    the cross-section corners at every depth, so the outer probe points lie
    on the frustum's own planes. With boundary_epsilon > 0 a frustum
    contains all of its probe points and self-overlap is exactly 1; at
    boundary_epsilon = 0 rounding decides each boundary point, and a pose
    can score well below 1 against itself.
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
    return c_cam, float(geometry.vector_norms(corners - c_cam, "l2").max())


# Probe points per point-test block. A block's work arrays (about 1.3 MB)
# stay in cache, and its gemm, (6, 3) planes against (3, points), stays below
# the size at which OpenBLAS splits a gemm over threads (m*n*k = 524288 with
# OpenBLAS 0.3.31; here 294912), so the row pool is the only parallel layer.
# Smaller blocks make more, shorter numpy calls, which two row threads then
# spend handing the GIL back and forth.
_BLOCK_POINTS = 16384

# The separation reject drops a candidate only when its frustum corners fall
# this far (relative to the scene's coordinate scale) below an anchor plane's
# threshold, far more than the rounding between a probe point and the convex
# combination of corners it lies on.
_SEPARATION_MARGIN = 1e-9


class _FrustumBatch:
    """World-space frustum data of (N, 4) wxyz and (N, 3) camera-to-world
    pose rows, stacked for row-at-a-time scoring."""

    def __init__(self, quats: np.ndarray, trans: np.ndarray, cfg: OverlapConfig):
        spec = cfg.frustum
        self.n = len(quats)
        self.quats, self.trans = quats, trans
        rot = geometry.quats_to_matrices(self.quats)
        rot_t = np.transpose(rot, (0, 2, 1))
        self.points = np.matmul(camera_grid(spec), rot_t)  # (N, n_points, 3)
        self.points += self.trans[:, None, :]
        n_cam, d_cam = camera_planes(spec)
        self.normals = np.matmul(n_cam, rot_t)  # (N, 6, 3)
        self.offsets = d_cam[None, :] - np.einsum("nij,nj->ni", self.normals, self.trans)
        # containment as n.p >= threshold, one contiguous row per plane
        self.thresholds = -self.offsets - spec.boundary_epsilon
        c_cam, self.sphere_radius = camera_sphere(spec)
        self.centers = self.trans + np.einsum("nij,j->ni", rot, c_cam)
        self.corners = np.matmul(camera_corners(spec), rot_t) + self.trans[:, None, :]  # (N, 8, 3)
        self.margin = _SEPARATION_MARGIN * (1.0 + float(np.abs(self.corners).max()))
        self.block = max(1, _BLOCK_POINTS // spec.n_points)
        self.n_points = spec.n_points
        self.max_rot = cfg.max_relative_rotation_deg

    def spheres_meet(self, i: int, idx: np.ndarray) -> np.ndarray:
        """Mask of candidates whose bounding sphere reaches anchor i's."""
        d2 = np.sum((self.centers[idx] - self.centers[i]) ** 2, axis=1)
        return d2 <= (2.0 * self.sphere_radius + 1e-6) ** 2

    def separated(self, i: int, idx: np.ndarray) -> np.ndarray:
        """Mask of candidates with all eight frustum corners below one of
        anchor i's plane thresholds. Every probe point is a convex combination
        of those corners, so none of them can pass that plane."""
        top = (self.corners[idx] @ self.normals[i].T).max(axis=1)  # (M, 6)
        return np.any(top < self.thresholds[i] - self.margin, axis=1)

    def score_row(self, i: int, work: "_BlockArrays"):
        """Anchor i's nonzero directional probe counts as (js, counts)."""
        ang = geometry.quat_angle_deg_rows(self.quats, self.quats[i])
        cand = ang <= self.max_rot
        cand[i] = False
        idx = np.nonzero(cand)[0]
        idx = idx[self.spheres_meet(i, idx)]
        idx = idx[~self.separated(i, idx)]
        counts = np.empty(idx.size, dtype=np.int64)
        normals, thr = self.normals[i], self.thresholds[i][:, None]
        for lo in range(0, idx.size, self.block):
            blk = idx[lo:lo + self.block]
            size = blk.size * self.n_points
            # mode="clip" (the indices are in range) writes straight into out;
            # the default mode would gather into a temporary first
            pts = np.take(self.points, blk, axis=0, mode="clip",
                          out=work.points[:3 * size].reshape(blk.size, self.n_points, 3))
            # one flat gemm in plane-major layout: row k holds every probe's
            # distance along plane k
            dist = np.matmul(normals, pts.reshape(size, 3).T, out=work.dist[:6 * size].reshape(6, size))
            passed = np.greater_equal(dist, thr, out=work.passed[:6 * size].reshape(6, size))
            inside = np.logical_and.reduce(passed, axis=0, out=work.inside[:size])
            counts[lo:lo + blk.size] = inside.reshape(blk.size, self.n_points).sum(axis=1)
        keep = counts > 0
        return idx[keep], counts[keep]


class _BlockArrays:
    """One worker's point-test arrays, reused for every block it scores.
    Fresh block-sized temporaries would cost page faults whenever the
    allocator hands their pages back to the system between blocks."""

    def __init__(self, batch: _FrustumBatch):
        size = batch.block * batch.n_points
        self.points = np.empty(3 * size)
        self.dist = np.empty(6 * size)
        self.passed = np.empty(6 * size, dtype=bool)
        self.inside = np.empty(size, dtype=bool)


def _score_pairs(batch: _FrustumBatch, threads: int):
    """Nonzero directional counts as (anchors, queries, counts), sorted by
    (anchor, query). Each worker scores one contiguous range of anchor rows."""
    def run(lo, hi):
        work = _BlockArrays(batch)
        return [batch.score_row(i, work) for i in range(lo, hi)]

    if threads <= 1 or batch.n < 4:
        rows = run(0, batch.n)
    else:
        step = -(-batch.n // threads)
        with ThreadPoolExecutor(max_workers=threads) as pool:
            chunks = pool.map(lambda lo: run(lo, min(lo + step, batch.n)), range(0, batch.n, step))
            rows = [row for chunk in chunks for row in chunk]
    anchors = np.repeat(np.arange(batch.n), [js.size for js, _ in rows])
    queries = np.concatenate([js for js, _ in rows])
    counts = np.concatenate([c for _, c in rows])
    return anchors, queries, counts


def _reverse_counts(anchors, queries, counts, n: int) -> np.ndarray:
    """The (j, i) count of each (i, j) entry; 0 where (j, i) is absent."""
    keys = anchors * n + queries  # ascending
    rev = queries * n + anchors
    pos = np.minimum(np.searchsorted(keys, rev), keys.size - 1)
    return np.where(keys[pos] == rev, counts[pos], 0)


def overlap_score(anchor: Pose, other: Pose, cfg: OverlapConfig) -> float:
    """Fraction of `other`'s probe points inside `anchor`'s frustum, in [0, 1].

    Returns 0 outright when the relative rotation exceeds the gate. With
    cfg.symmetric the minimum of the two directional scores is returned.
    A two-pose batch through the kernel `generate_pairs` uses, so a pair's
    score here equals its row there.
    """
    batch = _FrustumBatch(np.stack([anchor.rotation.as_array(), other.rotation.as_array()]),
                          np.stack([anchor.translation.as_array(), other.translation.as_array()]), cfg)
    anchors, queries, counts = _score_pairs(batch, 1)
    if cfg.symmetric:
        counts = np.minimum(counts, _reverse_counts(anchors, queries, counts, batch.n))
    return int(counts[anchors == 0].sum()) / batch.n_points
