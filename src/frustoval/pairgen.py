"""All-pairs overlap scoring, overlap histograms, and subspace statistics.

`generate_pairs` scores every ordered pair of a trajectory with
`frustum.score_pairs`, keeps an overlap window and attaches each pair's
ground-truth relative pose. The kernel gets the window's lower end and may
leave out pairs scoring at or below it, which the window drops anyway.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from . import dataset, geometry
from .dataset import PairTable, PoseSet
from .frustum import _CHUNK_PAIRS, OverlapConfig, score_pairs

DEFAULT_BIN_EDGES = (0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0)


@dataclass(frozen=True)
class OverlapBinning:
    """Left-open, right-closed overlap bins; the first bin excludes exact 0."""

    edges: tuple = DEFAULT_BIN_EDGES

    def __post_init__(self):
        e = np.asarray(self.edges, dtype=float)
        if e.ndim != 1 or e.size < 2:
            raise ValueError("need at least two bin edges")
        if not np.all(np.diff(e) > 0):
            raise ValueError(f"bin edges must be strictly ascending, got {tuple(e.tolist())}")
        if not (0.0 <= e[0] and e[-1] <= 1.0):
            raise ValueError(f"bin edges must lie within [0, 1], got {tuple(e.tolist())}")

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


def generate_pairs(poses: PoseSet, cfg: OverlapConfig, min_overlap: float = 0.0,
                   max_overlap: float = 1.0, *, unordered: bool = False,
                   threads: int = 1) -> PairTable:
    """All frame pairs with min_overlap < score <= max_overlap.

    Ordered pairs (both directions, directional score) by default; `unordered`
    keeps only anchor_id < query_id using the symmetric score. The table
    holds each pair's ground-truth relative pose and the configuration digest.
    Rows are sorted by (anchor_id, query_id) and independent of `threads`.
    """
    dataset.check_window(min_overlap, max_overlap)
    if unordered and not cfg.symmetric:
        raise ValueError("unordered pair generation uses the symmetric score; set cfg.symmetric=True")
    digest = dataset.config_digest(cfg)
    if len(poses) < 2:
        warnings.warn("fewer than 2 poses; no pairs can be generated", stacklevel=2)
    anchors, queries, counts = score_pairs(poses.rotations, poses.translations, cfg, min_overlap, threads)
    scores = counts / cfg.frustum.n_points
    del counts
    keep = scores > min_overlap
    keep &= scores <= max_overlap
    if unordered:
        keep &= queries > anchors
    anchors, queries, scores = anchors[keep], queries[keep], scores[keep]
    rotations = np.empty((scores.size, 4))
    translations = np.empty((scores.size, 3))
    for lo in range(0, scores.size, _CHUNK_PAIRS):
        cut = slice(lo, lo + _CHUNK_PAIRS)
        rotations[cut], translations[cut] = geometry.relative_rows(
            poses.rotations, poses.translations, anchors[cut], queries[cut])
    return PairTable(poses.frame_ids, anchors, queries, rotations, translations, scores, digest)


def bin_histogram(pairs: PairTable, binning: OverlapBinning = OverlapBinning()) -> np.ndarray:
    """Pair counts per overlap bin; the counts partition the pair set. Only
    `pairs.overlaps` is read, so a `dataset.PairChunk` is counted alike."""
    return np.bincount(binning.indices(pairs.overlaps), minlength=binning.n_bins)


def subspace_stats(pairs: PairTable, threshold: float) -> SubspaceStats:
    """Relative-translation norm statistics over pairs with overlap >= threshold."""
    norms = geometry.dot_norms(pairs.translations[pairs.overlaps >= threshold])
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
