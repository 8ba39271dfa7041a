"""All-pairs overlap scoring, overlap histograms, and subspace statistics.

Scoring every ordered pair of an N-frame trajectory is O(N^2 * n_points), so
each anchor row runs three cheap rejects before the point-containment test:
the rotation gate, bounding-sphere separation (the sphere covers the
epsilon-inflated frustum), and plane separation (all eight corners of the
other frustum below one anchor plane). The rejects never change a count. The
survivors are point-tested in fixed-size candidate blocks, and each row keeps
only its nonzero (query, count) entries, so no (N, N) array is ever built;
symmetric scores join each entry with its reverse. Rows are independent and
spread over one thread pool, the only parallel layer, which makes the output
bit-identical for any thread count.
"""

from __future__ import annotations

import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import dataset, geometry
from .dataset import PairTable, PoseSet
from .frustum import OverlapConfig, camera_corners, camera_grid, camera_planes, camera_sphere

DEFAULT_BIN_EDGES = (0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0)


@dataclass(frozen=True)
class OverlapBinning:
    """Left-open, right-closed overlap bins; the first bin excludes exact 0."""

    edges: tuple = DEFAULT_BIN_EDGES

    def __post_init__(self):
        e = np.asarray(self.edges, dtype=float)
        if e.ndim != 1 or e.size < 2:
            raise ValueError("need at least two bin edges")
        if np.any(np.diff(e) <= 0):
            raise ValueError("bin edges must be strictly ascending")
        if e[0] < 0.0 or e[-1] > 1.0:
            raise ValueError("bin edges must lie within [0, 1]")

    @property
    def n_bins(self) -> int:
        return len(self.edges) - 1

    def indices(self, scores) -> np.ndarray:
        """Bin index per score; raises if any score falls outside (lo, hi]."""
        scores = np.asarray(scores, dtype=float)
        idx = np.searchsorted(self.edges, scores, side="left") - 1
        if scores.size and (
            np.any(scores <= self.edges[0]) or np.any(scores > self.edges[-1])
        ):
            bad = scores[(scores <= self.edges[0]) | (scores > self.edges[-1])]
            raise ValueError(f"overlap {bad[0]} outside binning range ({self.edges[0]}, {self.edges[-1]}]")
        return idx


@dataclass(frozen=True)
class SubspaceStats:
    """Spread of relative-translation norms above an overlap threshold.

    diameter = mean + 2 * population std of the norms; all three fields are
    None when no pair clears the threshold (the diameter is undefined, not 0).
    """

    threshold: float
    count: int
    mean_norm: float | None
    std_norm: float | None
    diameter: float | None

    @property
    def defined(self) -> bool:
        return self.count > 0


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
    """Per-pose world-space frustum data stacked for row-at-a-time scoring."""

    def __init__(self, poses, cfg: OverlapConfig):
        spec = cfg.frustum
        self.n = len(poses)
        self.quats = geometry.quat_rows(p.rotation for p in poses)
        self.trans = geometry.translation_rows(p.translation for p in poses)
        rot = geometry.quats_to_matrices(self.quats)
        self.rot = rot
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

    def score_row(self, i: int, early_reject: bool, work: "_BlockArrays"):
        """Anchor i's nonzero directional probe counts as (js, counts)."""
        ang = geometry.quat_angle_deg_rows(self.quats, self.quats[i])
        cand = ang <= self.max_rot
        cand[i] = False
        idx = np.nonzero(cand)[0]
        if early_reject and idx.size:
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


def _score_pairs(batch: _FrustumBatch, threads: int, early_reject: bool):
    """Nonzero directional counts as (anchors, queries, counts), sorted by
    (anchor, query). Each worker scores one contiguous range of anchor rows."""
    def run(lo, hi):
        work = _BlockArrays(batch)
        return [batch.score_row(i, early_reject, work) for i in range(lo, hi)]

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


def _relative_rows(batch: _FrustumBatch, i: int, js: np.ndarray):
    """Ground-truth relative poses of anchor i to each query in js."""
    qi = np.broadcast_to(batch.quats[i], (js.size, 4))
    q_rel = geometry.quat_mul_rows(geometry.quat_conj_rows(qi), batch.quats[js])
    q_rel = geometry.normalize_quat_rows(q_rel)
    t_rel = (batch.trans[js] - batch.trans[i]) @ batch.rot[i]
    return q_rel, t_rel


def generate_pairs(poses: PoseSet, cfg: OverlapConfig, min_overlap: float = 0.0,
                   max_overlap: float = 1.0, *, unordered: bool = False,
                   threads: int = 1, early_reject: bool = True) -> PairTable:
    """All frame pairs with min_overlap < score <= max_overlap.

    Ordered pairs (both directions, directional score) by default; `unordered`
    keeps only anchor_id < query_id using the symmetric score. The table
    holds each pair's ground-truth relative pose and the configuration digest.
    Rows are sorted by (anchor_id, query_id) and independent of `threads`.
    """
    if not (0.0 <= min_overlap < max_overlap <= 1.0):
        raise ValueError("require 0 <= min_overlap < max_overlap <= 1")
    if unordered and not cfg.symmetric:
        raise ValueError("unordered pair generation uses the symmetric score; set cfg.symmetric=True")
    digest = dataset.config_digest(cfg)
    if len(poses) < 2:
        warnings.warn("fewer than 2 poses; no pairs can be generated", stacklevel=2)
        return PairTable([], [], np.empty((0, 4)), np.empty((0, 3)), np.empty(0), digest)
    batch = _FrustumBatch(poses.poses, cfg)
    anchors, queries, counts = _score_pairs(batch, threads, early_reject)
    if cfg.symmetric:
        counts = np.minimum(counts, _reverse_counts(anchors, queries, counts, batch.n))
    scores = counts / batch.n_points
    keep = (scores > min_overlap) & (scores <= max_overlap)
    if unordered:
        keep &= queries > anchors
    anchors, queries, scores = anchors[keep], queries[keep], scores[keep]
    rotations = np.empty((scores.size, 4))
    translations = np.empty((scores.size, 3))
    bounds = np.searchsorted(anchors, np.arange(batch.n + 1))
    for i in np.flatnonzero(np.diff(bounds)):
        lo, hi = bounds[i], bounds[i + 1]
        rotations[lo:hi], translations[lo:hi] = _relative_rows(batch, i, queries[lo:hi])
    ids = np.array(poses.ids(), dtype=object)
    return PairTable(ids[anchors].tolist(), ids[queries].tolist(), rotations, translations,
                     scores, digest)


def bin_histogram(pairs, binning: OverlapBinning = OverlapBinning()) -> np.ndarray:
    """Pair counts per overlap bin; the counts partition the pair set."""
    pairs = dataset.as_table(pairs)
    return np.bincount(binning.indices(pairs.overlaps), minlength=binning.n_bins)


def subspace_stats(pairs, threshold: float) -> SubspaceStats:
    """Relative-translation norm statistics over pairs with overlap >= threshold."""
    pairs = dataset.as_table(pairs)
    t = pairs.translations[pairs.overlaps >= threshold]
    # one dot product per row, the arithmetic of np.linalg.norm on a single
    # vector; norm(t, axis=1) rounds differently in the last bit
    norms = np.sqrt((t[:, None, :] @ t[:, :, None]).reshape(-1))
    if norms.size == 0:
        return SubspaceStats(threshold=threshold, count=0, mean_norm=None, std_norm=None, diameter=None)
    mean = float(norms.mean())
    std = float(norms.std())  # population std: descriptive statistic of the full set
    return SubspaceStats(
        threshold=threshold,
        count=int(norms.size),
        mean_norm=mean,
        std_norm=std,
        diameter=mean + 2.0 * std,
    )
