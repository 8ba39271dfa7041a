"""View-frustum construction and the pairwise overlap score.

A camera's viewing volume is modelled two ways: as six inward-facing planes
(the containment test) and as a regular lattice of 3D points (the probe set).
The overlap of an (anchor, other) pair is the fraction of the other camera's
probe points inside the anchor's plane frustum, tested in the other camera's
frame, forced to zero when the relative rotation exceeds a configurable gate.

One kernel, `score_pairs`, scores every ordered pair of a trajectory;
`overlap_score` (two poses) and `pairgen.generate_pairs` call it. Scoring
every ordered pair of N frames is O(N^2 * n_points), so pairs pass cheap
rejects before the point-containment test, in this order: grid neighbours
(sphere centres hashed into cells as wide as the sphere test's reach; an
anchor's candidates are the poses in the 27 cells around its own),
bounding-sphere separation (the sphere covers the epsilon-inflated frustum),
the rotation gate, plane separation (all eight corners of the other frustum
below one anchor plane) and the overlap window (a bound on the count, from
the lattice depths, columns and rows that the anchor's inflated corners span
in the other camera's frame, no higher than the window's lower end). The
rejects never change a count that the window keeps. They run on flat
(anchor, query) index arrays, _CHUNK_PAIRS candidates at a time, and each
chunk's survivors are point-tested as one flat batch in fixed-size blocks of
pairs, so every per-pair temporary is O(_CHUNK_PAIRS) whatever N is. Only
nonzero counts are kept, so no (N, N) array is ever built. Contiguous anchor
ranges are spread over one thread pool, the only parallel layer, and every
pair's arithmetic is the same however the anchors are split, which makes the
output bit-identical for any thread count.

The camera looks along +z; hfov spans x, vfov spans y.
"""

from __future__ import annotations

import functools
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
            raise ValueError(f"field of view must be in (0, 180) degrees, got {self.hfov_deg!r} x {self.vfov_deg!r}")
        if not (0.0 < self.near < self.far < math.inf):
            raise ValueError(f"require 0 < near < far < inf, got near={self.near!r}, far={self.far!r}")
        # corner-inclusive lattice needs both endpoints along every axis
        if min(self.grid_nx, self.grid_ny, self.grid_nz) < 2:
            raise ValueError("grid resolution must be >= 2 per axis")
        if not (0.0 <= self.boundary_epsilon < math.inf):
            raise ValueError(f"boundary_epsilon must be finite and >= 0, got {self.boundary_epsilon!r}")

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
            raise ValueError(f"max_relative_rotation_deg must be in (0, 180], got {self.max_relative_rotation_deg!r}")


def _per_spec(fn):
    """Compute fn once per frozen FrustumSpec and hand out read-only arrays:
    every batch, and so every overlap_score call, reads the same camera-frame
    data."""
    @functools.lru_cache(maxsize=32)
    @functools.wraps(fn)
    def cached(spec: FrustumSpec):
        out = fn(spec)
        for a in out if isinstance(out, tuple) else (out,):
            if isinstance(a, np.ndarray):
                a.flags.writeable = False
        return out

    return cached


@_per_spec
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


@_per_spec
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


@_per_spec
def lattice_axes(spec: FrustumSpec):
    """The probe lattice as a (4, n_points) array of rows x, y, z and 1, then
    its depths, its columns' x/z and its rows' y/z, each ascending."""
    ta, tb = spec.half_tangents
    return (np.vstack([camera_grid(spec).T, np.ones(spec.n_points)]), np.linspace(spec.near, spec.far, spec.grid_nz),
            ta * np.linspace(-1.0, 1.0, spec.grid_nx), tb * np.linspace(-1.0, 1.0, spec.grid_ny))


@_per_spec
def camera_corners(spec: FrustumSpec) -> np.ndarray:
    """The eight vertices of the truncated pyramid, camera frame."""
    ta, tb = spec.half_tangents
    corners = []
    for z in (spec.near, spec.far):
        for sy in (-1.0, 1.0):
            for sx in (-1.0, 1.0):
                corners.append([sx * z * ta, sy * z * tb, z])
    return np.array(corners)


@_per_spec
def inflated_corners(spec: FrustumSpec) -> np.ndarray:
    """The eight vertices of the viewing volume inflated by boundary_epsilon,
    camera frame: their convex hull holds every point the containment test
    accepts.

    Moving each plane outward by eps keeps the truncated pyramid's shape: the
    depth range grows to [near - eps, far + eps] and each side plane shifts by
    eps / cos(half-angle).
    """
    ta, tb = spec.half_tangents
    eps = spec.boundary_epsilon
    ex = eps / math.cos(math.atan(ta))
    ey = eps / math.cos(math.atan(tb))
    return np.array(
        [
            [sx * (z * ta + ex), sy * (z * tb + ey), z]
            for z in (spec.near - eps, spec.far + eps)
            for sy in (-1.0, 1.0)
            for sx in (-1.0, 1.0)
        ]
    )


@_per_spec
def camera_sphere(spec: FrustumSpec):
    """Camera-frame (center, radius) of a sphere covering the inflated corners,
    i.e. every point the containment test accepts."""
    c_cam = camera_corners(spec).mean(axis=0)
    return c_cam, float(geometry.vector_norms(inflated_corners(spec) - c_cam, "l2").max())


# Probe points per point-test block. A block's work arrays (about 0.9 MB)
# stay in cache, and its gemm, the (6J, 4) planes of J pairs against the
# (4, n_points) lattice, stays below the size at which OpenBLAS splits a gemm
# over threads (m*n*k = 524288 with OpenBLAS 0.3.31; here at most 393216), so
# the thread pool over anchor ranges is the only parallel layer. Smaller
# blocks make more, shorter numpy calls, which the pool's threads then spend
# handing the GIL back and forth.
_BLOCK_POINTS = 16384

# (anchor, query) candidates per reject chunk, and kept pairs per
# relative-pose chunk. The sphere reject takes a whole chunk at about 50 bytes
# of temporaries a pair (0.4 MB a worker); the stages after it take up to 500
# bytes a pair, so they take an eighth of a chunk at a time (_by_piece). All
# pairs of a 600-pose room at once would take 270 MB. Outdoor scenes, where
# most candidates die at the sphere reject, ran fastest on two threads at this
# size: at 2048 a chunk's short numpy calls left the two threads handing the
# GIL back and forth, and 16384 gained nothing.
_CHUNK_PAIRS = 8192

# The separation reject drops a candidate only when its frustum corners fall
# this far (relative to the scene's coordinate scale) below an anchor plane's
# threshold, far more than the rounding between a probe point and the convex
# combination of corners it lies on. The window reject widens its bound's
# ranges by the same margin.
_SEPARATION_MARGIN = 1e-9

# Grid cells per axis at most: coarser cells beyond that keep a cell key far
# inside int64.
_MAX_CELLS = 2 ** 20


def _within(ticks: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """How many of the ascending ticks lie in [lo, hi], per row."""
    return np.searchsorted(ticks, hi, side="right") - np.searchsorted(ticks, lo, side="left")


def _by_piece(method):
    """Run a per-pair method of _FrustumBatch over an eighth of a chunk of
    (anchor, query) pairs at a time and join the results, so that its
    (pairs, 8, 3) and (pairs, 6, 4) temporaries stay smaller than a chunk's."""
    @functools.wraps(method)
    def pieces(self, anchors: np.ndarray, queries: np.ndarray, *args):
        step = max(1, _CHUNK_PAIRS // 8)
        return np.concatenate([method(self, anchors[lo:lo + step], queries[lo:lo + step], *args)
                               for lo in range(0, max(anchors.size, 1), step)])

    return pieces


class _FrustumBatch:
    """Per-pose rotations, world-space planes, corners and sphere centres of
    (N, 4) wxyz and (N, 3) camera-to-world pose rows, for scoring in anchor
    chunks; every pose's probe points are the spec's one camera-frame lattice.
    Pairs scoring no higher than min_overlap may be left out."""

    def __init__(self, quats: np.ndarray, trans: np.ndarray, cfg: OverlapConfig, min_overlap: float = 0.0):
        spec = cfg.frustum
        self.n = len(quats)
        self.quats, self.trans = quats, trans
        self.rot = geometry.quats_to_matrices(self.quats)  # (N, 3, 3)
        rot_t = np.transpose(self.rot, (0, 2, 1))
        n_cam, d_cam = camera_planes(spec)
        self.normals = np.matmul(n_cam, rot_t)  # (N, 6, 3)
        self.offsets = d_cam[None, :] - np.einsum("nij,nj->ni", self.normals, self.trans)
        # containment as n.p >= threshold, one contiguous row per plane
        self.thresholds = -self.offsets - spec.boundary_epsilon
        c_cam, self.sphere_radius = camera_sphere(spec)
        self.reach = 2.0 * self.sphere_radius + 1e-6  # sphere centres further apart cannot overlap
        self.centers = self.trans + np.einsum("nij,j->ni", self.rot, c_cam)
        self.hull = np.matmul(inflated_corners(spec), rot_t) + self.trans[:, None, :]  # (N, 8, 3)
        self.margin = _SEPARATION_MARGIN * (1.0 + float(np.abs(self.hull).max()))
        self.lattice, self.depths, *self.slopes = lattice_axes(spec)
        self.block = max(1, _BLOCK_POINTS // spec.n_points)
        self.n_points = spec.n_points
        self.max_rot = cfg.max_relative_rotation_deg
        self.min_overlap = min_overlap

    @functools.cached_property
    def _grid(self):
        """(poses in cell-key order, their keys in that order, each pose's
        key, the key offsets of the 9 columns of cells around a cell).

        Cells are cubes no narrower than the sphere test's reach times
        1 + 1e-6 for rounding, so two centres it keeps lie in the same or
        adjacent cells along every axis. An empty border cell on each side
        keeps neighbour offsets from wrapping.
        """
        low = self.centers.min(axis=0)
        side = max(self.reach * (1.0 + 1e-6), float(np.max(self.centers.max(axis=0) - low)) / _MAX_CELLS)
        cell = ((self.centers - low) / side).astype(np.int64) + 1  # truncation floors the values >= 0
        _, ny, nz = (cell.max(axis=0) + 2).tolist()  # cells along y and z
        keys = cell @ np.array([ny * nz, nz, 1])
        order = np.argsort(keys)
        steps = np.array([(i * ny + j) * nz for i in (-1, 0, 1) for j in (-1, 0, 1)])
        return order, keys[order], keys, steps

    def grid_candidates(self, lo: int, hi: int):
        """Candidate queries of anchors lo..hi-1 as (order, starts, stops):
        anchor lo + k's candidates are order[starts[k, r]:stops[k, r]] over r,
        the poses in the 27 grid cells around its sphere centre (9 runs of 3
        cells adjacent along z), so every pair `spheres_meet` keeps is listed."""
        order, sorted_keys, keys, steps = self._grid
        middle = keys[lo:hi, None] + steps  # the middle cell of each run
        return (order, np.searchsorted(sorted_keys, middle - 1, side="left"),
                np.searchsorted(sorted_keys, middle + 1, side="right"))

    def spheres_meet(self, anchors: np.ndarray, queries: np.ndarray) -> np.ndarray:
        """Mask of (anchor, query) pairs whose bounding spheres meet."""
        d = self.centers[queries]
        d -= self.centers[anchors]
        d *= d
        return np.sum(d, axis=1) <= self.reach ** 2

    def query_planes(self, anchors: np.ndarray, queries: np.ndarray) -> np.ndarray:
        """(pairs, 6, 4): each anchor plane's normal n in the query's camera
        frame, n R, and n.t, so that a world point R p + t of the query's
        lattice lies n.(R p + t) = (n R).p + n.t along it."""
        normals = self.normals[anchors]
        planes = np.empty((anchors.size, 6, 4))
        np.matmul(normals, self.rot[queries], out=planes[..., :3])
        np.matmul(normals, self.trans[queries][:, :, None], out=planes[..., 3:])
        return planes

    @_by_piece
    def gate_open(self, anchors: np.ndarray, queries: np.ndarray) -> np.ndarray:
        """Mask of (anchor, query) pairs whose relative rotation is within the gate."""
        return geometry.quat_angle_deg_rows(self.quats[anchors], self.quats[queries]) <= self.max_rot

    @_by_piece
    def separated(self, anchors: np.ndarray, queries: np.ndarray) -> np.ndarray:
        """Mask of (anchor, query) pairs whose query frustum lies wholly below
        one of the anchor's plane thresholds. With the plane's normal n in the
        query's camera frame as m = n R, the query's corners (+-z ta, +-z tb,
        z) at z = near and far reach at most n.t + max(near s, far s) along n,
        s = ta |m_x| + tb |m_y| + m_z; every probe point is a convex
        combination of those corners, so none of them can pass that plane."""
        planes = self.query_planes(anchors, queries)
        m = np.abs(planes[..., :2])
        s = m[..., 0] * self.slopes[0][-1]
        s += m[..., 1] * self.slopes[1][-1]
        s += planes[..., 2]
        top = np.maximum(s * self.depths[0], s * self.depths[-1])
        top += planes[..., 3]
        return np.any(top < self.thresholds[anchors] - self.margin, axis=1)

    @_by_piece
    def count_bounds(self, anchors: np.ndarray, queries: np.ndarray) -> np.ndarray:
        """Upper bound on each (anchor, query) pair's count: the query's probe
        points whose depth lies within the depth range of the anchor's
        inflated corners in the query's camera frame, and, when all eight lie
        in front of that camera, whose x/z and y/z lie within their ranges.

        The inflated frustum is the convex hull of those corners, and x/z and
        y/z take their extremes over it at corners, so every point the point
        test accepts is counted. The ranges are widened by the separation
        margin, which is far more than the rounding of either side.
        """
        c = self.hull[anchors]
        c -= self.trans[queries][:, None, :]
        c = np.matmul(c, self.rot[queries])  # (pairs, 8, 3) in the query's camera frame
        z = c[..., 2]
        zlo = z.min(axis=1)
        counts = _within(self.depths, zlo - self.margin, z.max(axis=1) + self.margin)
        front = zlo > 0.0
        counts[~front] *= self.slopes[0].size * self.slopes[1].size
        slopes = c[front, :, :2] / z[front, :, None]  # (front pairs, 8, 2): x/z and y/z
        # |p/p_z - h/h_z| <= d (1 + |h/h_z|) / p_z for p within d of h, and the
        # lattice's depths start at near; a corner within rounding of the
        # camera plane makes this pad wider than the field of view
        pad = self.margin * (1.0 + np.abs(slopes).max(axis=(1, 2))) * (1.0 / self.depths[0] + 1.0 / zlo[front])
        lo, hi = slopes.min(axis=1), slopes.max(axis=1)
        for k, lattice in enumerate(self.slopes):
            counts[front] *= _within(lattice, lo[:, k] - pad, hi[:, k] + pad)
        return counts

    def rejects(self, anchors: np.ndarray, queries: np.ndarray):
        """The (anchor, query) pairs that may share a probe point and may score
        above the window's lower end: distinct poses past the sphere reject,
        the rotation gate, the separation reject and the window reject, in
        that order. A pair the window drops scores no higher than its bound,
        in the same float expression `generate_pairs` keeps rows by."""
        keep = self.spheres_meet(anchors, queries) & (anchors != queries)
        anchors, queries = anchors[keep], queries[keep]
        keep = self.gate_open(anchors, queries)
        anchors, queries = anchors[keep], queries[keep]
        keep = ~self.separated(anchors, queries)
        anchors, queries = anchors[keep], queries[keep]
        keep = self.count_bounds(anchors, queries) / self.n_points > self.min_overlap
        return anchors[keep], queries[keep]

    @_by_piece
    def point_counts(self, anchors: np.ndarray, queries: np.ndarray, work: "_BlockArrays") -> np.ndarray:
        """Probe points of each query inside its anchor, for flat (anchor,
        query) pairs. The planes of a piece's pairs are built at once; the
        gemm, compare, and-reduce and count then run over blocks of pairs."""
        # the anchor's planes in the query's camera frame: n.(R p + t) >= thr
        # is (n R).p + (n.t - thr) >= 0, with p a point of the camera lattice.
        # The gemm adds the fourth term last (as OpenBLAS does), and a rounded
        # difference has the exact sign, so this decides as (n R).p >= thr - n.t
        # does; a compare with 0 runs several times faster than one with a
        # column of cuts.
        planes = self.query_planes(anchors, queries)
        planes[..., 3] -= self.thresholds[anchors]
        planes = planes.reshape(-1, 4)
        counts = np.empty(anchors.size, dtype=np.int64)
        for lo in range(0, anchors.size, self.block):
            hi = min(lo + self.block, anchors.size)
            # one flat gemm: row 6j + k holds pair j's lattice distances past plane k
            dist = np.matmul(planes[6 * lo:6 * hi], self.lattice, out=work.dist[:6 * (hi - lo)])
            passed = np.greater_equal(dist, 0.0, out=work.passed[:6 * (hi - lo)])
            inside = np.logical_and.reduce(passed.reshape(hi - lo, 6, -1), axis=1, out=work.inside[:hi - lo])
            counts[lo:hi] = inside.sum(axis=1)
        return counts

    def score_range(self, lo: int, hi: int):
        """Nonzero directional counts of anchors lo..hi-1 as (anchors, queries,
        counts), sorted by (anchor, query). The anchors' grid candidates, in
        anchor order, pass the rejects and the point test _CHUNK_PAIRS at a
        time, and the range's nonzero counts are sorted once."""
        work = _BlockArrays(self)
        order, starts, stops = self.grid_candidates(lo, hi)
        width = stops.shape[1]
        ends = np.cumsum(stops - starts)
        shift = stops.ravel() - ends  # order position minus candidate position, per run
        total = int(ends[-1])
        out = []
        for p in range(0, total, _CHUNK_PAIRS):
            pos = np.arange(p, min(p + _CHUNK_PAIRS, total))
            run = np.searchsorted(ends, pos, side="right")
            anchors, queries = self.rejects(lo + run // width, order[pos + shift[run]])
            counts = self.point_counts(anchors, queries, work)
            keep = counts > 0
            out.append((anchors[keep], queries[keep], counts[keep]))
        anchors, queries, counts = (np.concatenate(col) for col in zip(*out))
        sort = np.argsort(pair_keys(anchors, queries, self.n))
        return anchors[sort], queries[sort], counts[sort]


class _BlockArrays:
    """One worker's point-test arrays, reused for every block of pairs.
    Fresh block-sized temporaries would cost page faults whenever the
    allocator hands their pages back to the system between blocks."""

    def __init__(self, batch: _FrustumBatch):
        self.dist = np.empty((6 * batch.block, batch.n_points))
        self.passed = np.empty(self.dist.shape, dtype=bool)
        self.inside = np.empty((batch.block, batch.n_points), dtype=bool)


def pair_keys(anchors, queries, n_ids: int) -> np.ndarray:
    """One int64 key per row of indices into a sorted vocabulary of n_ids
    ids; the keys ascend as the rows' (anchor_id, query_id) do."""
    return np.asarray(anchors, dtype=np.int64) * n_ids + queries


def score_pairs(quats: np.ndarray, trans: np.ndarray, cfg: OverlapConfig, min_overlap: float = 0.0,
                threads: int = 1):
    """(anchors, queries, counts) of the ordered pairs of (N, 4) wxyz and (N, 3)
    camera-to-world rows, sorted by (anchor, query): directional counts, or the
    minimum of both directions with cfg.symmetric. Every pair above
    min_overlap is listed and those at or below it may be. Each of `threads`
    workers scores a contiguous anchor range; the output never depends on it."""
    batch = _FrustumBatch(quats, trans, cfg, min_overlap)
    if threads <= 1:
        parts = [batch.score_range(0, batch.n)]
    else:
        step = -(-batch.n // threads)
        with ThreadPoolExecutor(max_workers=threads) as pool:
            parts = list(pool.map(lambda lo: batch.score_range(lo, min(lo + step, batch.n)),
                                  range(0, batch.n, step)))
    anchors, queries, counts = (np.concatenate(col) for col in zip(*parts))
    if cfg.symmetric:
        # the (j, i) count of each (i, j) entry, 0 where (j, i) is absent
        keys = pair_keys(anchors, queries, batch.n)  # ascending
        rev = pair_keys(queries, anchors, batch.n)
        pos = np.minimum(np.searchsorted(keys, rev), keys.size - 1)
        counts = np.minimum(counts, np.where(keys[pos] == rev, counts[pos], 0))
    return anchors, queries, counts


def overlap_score(anchor: Pose, other: Pose, cfg: OverlapConfig) -> float:
    """Fraction of `other`'s probe points inside `anchor`'s frustum, in [0, 1].

    Returns 0 outright when the relative rotation exceeds the gate. With
    cfg.symmetric the minimum of the two directional scores is returned. A
    two-pose `score_pairs` call, so a pair's score here equals its row in
    `generate_pairs`.
    """
    anchors, queries, counts = score_pairs(
        np.stack([anchor.rotation.as_array(), other.rotation.as_array()]),
        np.stack([anchor.translation.as_array(), other.translation.as_array()]), cfg)
    return int(counts[anchors == 0].sum()) / cfg.frustum.n_points
