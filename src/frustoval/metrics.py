"""Evaluation criteria for relative-pose predictions.

Besides the standard mean/median translation and rotation errors, this module
implements the volume-aware alternatives: percentage error (MAPE), error
scaled by a mean-returning naive baseline (MASE), their combination (MAPSE),
a rotation MAPE over Euler angles, per-overlap-bin error curves with an AUC
summary, and the weighted training-loss value as a diagnostic score.

The scaled metrics are dimensionless and invariant to rescaling the scene,
which is exactly what the raw mean/median errors are not: those scale
linearly with the spanned volume of the relative-pose targets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import geometry
from .dataset import PairTable, pair_keys
from .geometry import Quaternion, RelativePose, Translation
from .pairgen import OverlapBinning, SubspaceStats, subspace_stats

_METRIC_NAMES = ("mape", "mase", "mapse", "rmape")

_trapezoid = getattr(np, "trapezoid", None) or np.trapz


class EvaluationError(Exception):
    """Inputs cannot be evaluated: mismatched keys, digests, or empty sets."""


@dataclass(frozen=True)
class MetricConfig:
    """Knobs shared by an evaluation run; echoed into the report."""

    norm: str = "l1"
    statistics: tuple = ("mean", "median")
    euler_gimbal_policy: str = "exclude"  # or "error"

    def __post_init__(self):
        if self.norm.lower() not in ("l1", "l2"):
            raise ValueError(f"unknown norm {self.norm!r}")
        if not self.statistics:
            raise ValueError("statistics must be non-empty")
        for s in self.statistics:
            if s not in ("mean", "median"):
                raise ValueError(f"unknown statistic {s!r}")
        if self.euler_gimbal_policy not in ("exclude", "error"):
            raise ValueError(f"unknown gimbal policy {self.euler_gimbal_policy!r}")


@dataclass(frozen=True)
class LossWeights:
    """Learned balance weights of the combined pose loss."""

    alpha: float = 0.0
    beta: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.alpha) and math.isfinite(self.beta)):
            raise ValueError("loss weights must be finite")


def _align(pairs: PairTable, predictions: PairTable) -> np.ndarray:
    """Row of `predictions` holding each pair's key, or -1 where none does.

    The prediction ids are mapped onto the pair vocabulary. Both are sorted,
    so the mapped keys stay ascending and a binary search joins them to the
    pair keys; a prediction with an id no pair uses matches nothing."""
    dupes = predictions.repeated_keys()
    if dupes:
        raise EvaluationError(f"duplicate prediction keys: {dupes[:10]}")
    index = {f: i for i, f in enumerate(pairs.frame_ids)}
    onto = np.array([index.get(f, -1) for f in predictions.frame_ids], dtype=np.int64)
    anchors, queries = onto[predictions.anchors], onto[predictions.queries]
    rows = np.flatnonzero((anchors >= 0) & (queries >= 0))
    keys = pair_keys(anchors[rows], queries[rows], len(pairs.frame_ids))
    want = pairs.key()
    at = np.searchsorted(keys, want)
    # a -1 past the end stands for "no such key": pair keys are never negative
    return np.where(np.append(keys, -1)[at] == want, np.append(rows, -1)[at], -1)


def match_predictions(pairs: PairTable, predictions: PairTable) -> np.ndarray:
    """Row of `predictions` for each pair, in pair order; refuses on missing or
    duplicate keys.

    Extra predictions (covering pairs not under evaluation) are ignored.
    """
    idx = _align(pairs, predictions)
    if (idx < 0).any():
        missing = pairs.id_pairs(np.flatnonzero(idx < 0)[:10])
        raise EvaluationError(f"predictions missing for pair keys: {missing}")
    return idx


def unmatched_predictions(pairs: PairTable, predictions: PairTable) -> list:
    """Keys of predictions that no pair holds."""
    hit = np.zeros(len(predictions), dtype=bool)
    idx = _align(pairs, predictions)
    hit[idx[idx >= 0]] = True
    return predictions.id_pairs(~hit)


def _paired_arrays(pairs: PairTable, predictions: PairTable):
    """(t, t_hat, q, q_hat) columns, predictions aligned to the pair rows."""
    idx = match_predictions(pairs, predictions)
    return (pairs.translations, predictions.translations[idx], pairs.rotations,
            predictions.rotations[idx])


@dataclass(frozen=True)
class StandardErrors:
    t_mean: float | None
    t_median: float | None
    q_mean: float | None
    q_median: float | None


def _standard_errors(t, t_hat, q, q_hat, cfg: MetricConfig) -> StandardErrors:
    t_err = geometry.vector_norms(t - t_hat, cfg.norm)
    q_err = geometry.quat_angle_deg_rows(q, q_hat)
    want_mean = "mean" in cfg.statistics
    want_median = "median" in cfg.statistics
    return StandardErrors(
        t_mean=float(t_err.mean()) if want_mean else None,
        t_median=float(np.median(t_err)) if want_median else None,
        q_mean=float(q_err.mean()) if want_mean else None,
        q_median=float(np.median(q_err)) if want_median else None,
    )


def standard_errors(pairs: PairTable, predictions: PairTable,
                    cfg: MetricConfig = MetricConfig()) -> StandardErrors:
    """Mean/median of the per-pair translation and rotation errors."""
    if not len(pairs):
        raise EvaluationError("cannot evaluate an empty pair set")
    return _standard_errors(*_paired_arrays(pairs, predictions), cfg)


def _mape(t, t_hat, norm: str) -> float | None:
    gt = geometry.vector_norms(t, norm)
    keep = gt > 0.0
    if not np.any(keep):
        return None
    ratios = geometry.vector_norms((t - t_hat)[keep], norm) / gt[keep]
    return float(ratios.mean())


def mape_translation(pairs: PairTable, predictions: PairTable, norm: str = "l1") -> float | None:
    """Mean of ||t - t_hat|| / ||t||; pairs with exactly zero ||t|| are excluded.

    Returns None when every pair is excluded.
    """
    t, t_hat, _, _ = _paired_arrays(pairs, predictions)
    return _mape(t, t_hat, norm)


def mape_zero_excluded(pairs: PairTable, norm: str = "l1") -> int:
    """How many pairs a percentage metric drops for zero ground-truth norm."""
    return int(np.sum(geometry.vector_norms(pairs.translations, norm) == 0.0))


def naive_mean_translation(source_pairs: PairTable) -> Translation:
    """Componentwise mean of the ground-truth relative translations."""
    if not len(source_pairs):
        raise EvaluationError("naive mean needs a non-empty source pair set")
    return Translation.from_array(source_pairs.translations.mean(axis=0))


def _mase(t, t_hat, naive_mean: Translation, norm: str) -> float | None:
    num = float(geometry.vector_norms(t - t_hat, norm).sum())
    den = float(geometry.vector_norms(t - naive_mean.as_array(), norm).sum())
    if den == 0.0:
        return None
    return num / den


def mase_translation(pairs: PairTable, predictions: PairTable, naive_mean: Translation,
                     norm: str = "l1") -> float | None:
    """Total model error over the total error of always predicting `naive_mean`.

    1.0 means no better than the naive baseline. None when the baseline error
    is zero (every ground truth equals the naive mean), which leaves the ratio
    undefined.
    """
    t, t_hat, _, _ = _paired_arrays(pairs, predictions)
    return _mase(t, t_hat, naive_mean, norm)


def _mapse(t, t_hat, naive_mean: Translation, norm: str) -> float | None:
    gt = geometry.vector_norms(t, norm)
    keep = gt > 0.0
    if not np.any(keep):
        return None
    mape = float((geometry.vector_norms((t - t_hat)[keep], norm) / gt[keep]).mean())
    naive_dev = float(geometry.vector_norms(t[keep] - naive_mean.as_array(), norm).sum())
    if naive_dev == 0.0:
        return None
    naive_relative = naive_dev / float(gt[keep].sum())
    return mape / naive_relative


def mapse_translation(pairs: PairTable, predictions: PairTable, naive_mean: Translation,
                      norm: str = "l1") -> float | None:
    """Percentage error scaled by the naive baseline's relative error.

    MAPE of the model divided by the naive model's total deviation relative
    to the total ground-truth magnitude (sum ||t - naive|| / sum ||t||). Both
    factors are dimensionless, so the result is invariant to rescaling the
    scene, and every sum stays bounded even when many ground truths are tiny.
    On a single pair this reduces to ||t - t_hat|| / ||t - naive||. Zero-norm
    ground truths are dropped throughout, as in MAPE.
    """
    t, t_hat, _, _ = _paired_arrays(pairs, predictions)
    return _mapse(t, t_hat, naive_mean, norm)


def _mape_rotation(q, q_hat, gimbal_policy: str):
    r, locked = geometry.euler_zyx_deg_rows(q)
    r_hat, locked_hat = geometry.euler_zyx_deg_rows(q_hat)
    bad = locked | locked_hat
    if gimbal_policy == "error":
        if np.any(bad):
            raise EvaluationError(f"{int(bad.sum())} pairs are gimbal-locked")
    elif gimbal_policy != "exclude":
        raise ValueError(f"unknown gimbal policy {gimbal_policy!r}")
    denom = geometry.vector_norms(r, "l1")
    keep = ~bad & (denom > 0.0)
    n_excluded = int(np.sum(~keep))
    if not np.any(keep):
        return None, n_excluded
    ratios = geometry.vector_norms((r - r_hat)[keep], "l1") / denom[keep]
    return float(ratios.mean()), n_excluded


def mape_rotation(pairs: PairTable, predictions: PairTable, gimbal_policy: str = "exclude"):
    """Rotation MAPE over Euler triples: mean of |r - r_hat|_1 / |r|_1.

    Gimbal-locked pairs (ground truth or prediction) follow the policy:
    'exclude' drops and counts them, 'error' raises. Identity ground truths
    (|r|_1 == 0) are always dropped and counted. Returns (value, n_excluded);
    value is None when nothing remains.
    """
    _, _, q, q_hat = _paired_arrays(pairs, predictions)
    return _mape_rotation(q, q_hat, gimbal_policy)


@dataclass(frozen=True)
class NaivePredictor:
    """Baseline that answers every query with the source set's mean relative pose."""

    mean_rel: RelativePose

    def predict(self, pairs: PairTable) -> PairTable:
        m = len(pairs)
        return PairTable(
            pairs.frame_ids, pairs.anchors, pairs.queries,
            np.broadcast_to(self.mean_rel.rotation.as_array(), (m, 4)),
            np.broadcast_to(self.mean_rel.translation.as_array(), (m, 3)),
            config_digest=pairs.config_digest,
        )


def naive_predictor(source_pairs: PairTable) -> NaivePredictor:
    """Fit the mean-returning baseline on a pair set.

    Translation is the componentwise mean; rotation is the normalized
    componentwise quaternion mean after aligning every sample to the first
    one's hemisphere.
    """
    if not len(source_pairs):
        raise EvaluationError("naive predictor needs a non-empty source pair set")
    q = source_pairs.rotations
    sign = np.where(q @ q[0] < 0.0, -1.0, 1.0)
    q_mean = (q * sign[:, None]).mean(axis=0)
    if geometry.vector_norms(q_mean, "l2") < 1e-12:
        raise EvaluationError("rotation mean is degenerate (cancels to zero)")
    q_mean = geometry.normalize_quat_rows(q_mean[None, :])[0]
    return NaivePredictor(
        mean_rel=RelativePose(
            rotation=Quaternion(*q_mean),
            translation=naive_mean_translation(source_pairs),
        )
    )


# ---------------------------------------------------------------------------
# error-vs-overlap curves
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CurveBin:
    lo: float
    mid: float
    hi: float
    t_stat: float | None
    q_stat: float | None
    n: int


@dataclass(frozen=True)
class ErrorCurve:
    """Per-overlap-bin error statistic plus its area-under-curve summaries.

    auc_* is the trapezoidal integral over the non-empty bin midpoints divided
    by the midpoint span, so curves over different bin coverage stay
    comparable; lower is better. raw_area_* is the unnormalized integral.
    """

    bins: tuple
    stat: str
    norm: str
    auc_t: float | None
    auc_q: float | None
    raw_area_t: float | None
    raw_area_q: float | None


def _auc(mids, values):
    if len(mids) == 0:
        return None, None
    if len(mids) == 1:
        return float(values[0]), 0.0
    raw = float(_trapezoid(values, mids))
    return raw / float(mids[-1] - mids[0]), raw


def error_curve(pairs: PairTable, predictions: PairTable, binning: OverlapBinning = OverlapBinning(),
                *, stat: str = "median", norm: str = "l1") -> ErrorCurve:
    """Bin pairs by overlap and reduce the errors inside each bin.

    Every pair's overlap must fall inside the binning range. Empty bins are
    kept in the output with n=0 but excluded from the integration.
    """
    if stat not in ("mean", "median"):
        raise ValueError(f"unknown statistic {stat!r}")
    if not len(pairs):
        raise EvaluationError("cannot build an error curve from an empty pair set")
    t, t_hat, q, q_hat = _paired_arrays(pairs, predictions)
    t_err = geometry.vector_norms(t - t_hat, norm)
    q_err = geometry.quat_angle_deg_rows(q, q_hat)
    idx = binning.indices(pairs.overlaps)
    reduce = np.mean if stat == "mean" else np.median
    edges = binning.edges
    bins = []
    mids, tv, qv = [], [], []
    for b in range(binning.n_bins):
        lo, hi = edges[b], edges[b + 1]
        mid = 0.5 * (lo + hi)
        sel = idx == b
        n = int(sel.sum())
        if n == 0:
            bins.append(CurveBin(lo, mid, hi, None, None, 0))
            continue
        ts, qs = float(reduce(t_err[sel])), float(reduce(q_err[sel]))
        bins.append(CurveBin(lo, mid, hi, ts, qs, n))
        mids.append(mid)
        tv.append(ts)
        qv.append(qs)
    auc_t, raw_t = _auc(mids, tv)
    auc_q, raw_q = _auc(mids, qv)
    return ErrorCurve(
        bins=tuple(bins), stat=stat, norm=norm,
        auc_t=auc_t, auc_q=auc_q, raw_area_t=raw_t, raw_area_q=raw_q,
    )


def combined_loss(pairs: PairTable, predictions: PairTable,
                  weights: LossWeights = LossWeights()) -> np.ndarray:
    """Balanced pose loss of each pair: a^2 + b^2 + e^(-a^2) * L_t + e^(-b^2) * L_q.

    L_t is the L2 translation distance; L_q the L2 distance between the
    ground-truth quaternion and the renormalized predicted quaternion.
    Returns the (M,) losses in pair order. Diagnostic only; nothing in the
    toolkit trains on it.
    """
    t, t_hat, q, q_hat = _paired_arrays(pairs, predictions)
    n = geometry.vector_norms(q_hat, "l2")
    if not n.all():
        raise EvaluationError("predicted quaternion has zero norm and cannot be renormalized")
    l_t = geometry.vector_norms(t - t_hat, "l2")
    l_q = geometry.vector_norms(q - q_hat / n[:, None], "l2")
    a2 = weights.alpha ** 2
    b2 = weights.beta ** 2
    return a2 + b2 + math.exp(-a2) * l_t + math.exp(-b2) * l_q


# ---------------------------------------------------------------------------
# full report
# ---------------------------------------------------------------------------


@dataclass
class MetricReport:
    """All criteria of one evaluation run plus the subspace they were run on."""

    n_pairs: int
    norm: str
    statistics: tuple
    euler_gimbal_policy: str
    naive_source: str
    config_digest: str
    subspace: SubspaceStats
    t_mean: float | None = None
    t_median: float | None = None
    q_mean: float | None = None
    q_median: float | None = None
    t_mape: float | None = None
    t_mase: float | None = None
    t_mapse: float | None = None
    r_mape: float | None = None
    mape_excluded_zero_norm: int = 0
    rmape_excluded: int = 0

    def to_items(self) -> dict:
        s = self.subspace
        return {
            "norm": self.norm,
            "statistics": ",".join(self.statistics),
            "euler_gimbal_policy": self.euler_gimbal_policy,
            "naive_source": self.naive_source,
            "config_digest": self.config_digest,
            "n_pairs": self.n_pairs,
            "t_mean_m": self.t_mean,
            "t_median_m": self.t_median,
            "q_mean_deg": self.q_mean,
            "q_median_deg": self.q_median,
            "t_mape": self.t_mape,
            "t_mase": self.t_mase,
            "t_mapse": self.t_mapse,
            "r_mape": self.r_mape,
            "mape_excluded_zero_norm": self.mape_excluded_zero_norm,
            "rmape_excluded": self.rmape_excluded,
            "subspace_threshold": s.threshold,
            "subspace_count": s.count,
            "subspace_mean_norm_m": s.mean_norm,
            "subspace_std_norm_m": s.std_norm,
            "subspace_diameter_m": s.diameter,
        }

    @classmethod
    def from_items(cls, items: dict) -> "MetricReport":
        return cls(
            n_pairs=int(items["n_pairs"]),
            norm=str(items["norm"]),
            statistics=tuple(str(items["statistics"]).split(",")),
            euler_gimbal_policy=str(items["euler_gimbal_policy"]),
            naive_source=str(items["naive_source"]),
            config_digest=str(items["config_digest"]),
            subspace=SubspaceStats(
                threshold=float(items["subspace_threshold"]),
                count=int(items["subspace_count"]),
                mean_norm=items["subspace_mean_norm_m"],
                std_norm=items["subspace_std_norm_m"],
                diameter=items["subspace_diameter_m"],
            ),
            t_mean=items.get("t_mean_m"),
            t_median=items.get("t_median_m"),
            q_mean=items.get("q_mean_deg"),
            q_median=items.get("q_median_deg"),
            t_mape=items.get("t_mape"),
            t_mase=items.get("t_mase"),
            t_mapse=items.get("t_mapse"),
            r_mape=items.get("r_mape"),
            mape_excluded_zero_norm=int(items.get("mape_excluded_zero_norm", 0)),
            rmape_excluded=int(items.get("rmape_excluded", 0)),
        )


def evaluate(pairs: PairTable, predictions: PairTable, cfg: MetricConfig = MetricConfig(), *,
             naive_source_pairs: PairTable | None = None, subspace_threshold: float | None = None,
             include=_METRIC_NAMES) -> MetricReport:
    """Run every configured criterion over one pair/prediction set.

    The naive baseline is fit on `naive_source_pairs` when given (the
    report's naive_source reads 'train_pairs'), otherwise on the evaluated
    pairs themselves ('eval_pairs'). The subspace statistics default to the
    evaluated set at its own minimum overlap.
    """
    if not len(pairs):
        raise EvaluationError("cannot evaluate an empty pair set")
    unknown = set(include) - set(_METRIC_NAMES)
    if unknown:
        raise ValueError(f"unknown metrics requested: {sorted(unknown)}")
    t, t_hat, q, q_hat = _paired_arrays(pairs, predictions)
    std = _standard_errors(t, t_hat, q, q_hat, cfg)
    source = pairs if naive_source_pairs is None else naive_source_pairs
    naive_mean = naive_mean_translation(source)
    threshold = subspace_threshold
    if threshold is None:
        threshold = float(pairs.overlaps.min())
    report = MetricReport(
        n_pairs=len(pairs),
        norm=cfg.norm,
        statistics=tuple(cfg.statistics),
        euler_gimbal_policy=cfg.euler_gimbal_policy,
        naive_source="eval_pairs" if naive_source_pairs is None else "train_pairs",
        config_digest=pairs.config_digest,
        subspace=subspace_stats(pairs, threshold),
        t_mean=std.t_mean,
        t_median=std.t_median,
        q_mean=std.q_mean,
        q_median=std.q_median,
    )
    if "mape" in include:
        report.t_mape = _mape(t, t_hat, cfg.norm)
        report.mape_excluded_zero_norm = mape_zero_excluded(pairs, cfg.norm)
    if "mase" in include:
        report.t_mase = _mase(t, t_hat, naive_mean, cfg.norm)
    if "mapse" in include:
        report.t_mapse = _mapse(t, t_hat, naive_mean, cfg.norm)
    if "rmape" in include:
        report.r_mape, report.rmape_excluded = _mape_rotation(q, q_hat, cfg.euler_gimbal_policy)
    return report
