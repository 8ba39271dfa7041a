"""Evaluation criteria for relative-pose predictions.

Besides the standard mean/median translation and rotation errors, this module
implements the volume-aware alternatives: percentage error (MAPE), error
scaled by a mean-returning naive baseline (MASE), their combination (MAPSE),
a rotation MAPE over Euler angles, per-overlap-bin error curves with an AUC
summary, and the weighted training-loss value as a diagnostic score.

The scaled metrics are dimensionless and invariant to rescaling the scene,
which is exactly what the raw mean/median errors are not: those scale
linearly with the spanned volume of the relative-pose targets.

Two functions compute the criteria: `evaluate` joins the predictions to the
pairs once and fills a `MetricReport` with every configured criterion, and
`error_curve` reduces the per-pair errors inside each overlap bin.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import geometry
from .dataset import PairTable
from .geometry import Quaternion, RelativePose, Translation
from .pairgen import OverlapBinning, SubspaceStats, subspace_stats
from .synth import SynthPredictor

_METRIC_NAMES = ("mape", "mase", "mapse", "rmape")

_trapezoid = getattr(np, "trapezoid", None) or np.trapz

# per-pair errors are computed this many pairs at a time
_CHUNK_PAIRS = 4096


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


def align_predictions(pairs: PairTable, predictions: PairTable) -> np.ndarray:
    """Row of `predictions` holding each pair's key, or -1 where none does;
    refuses repeated prediction keys.

    The pair ids are mapped onto the prediction vocabulary. Both are sorted,
    so a binary search finds each mapped pair key among the ascending
    prediction keys; a pair with an id no prediction uses matches nothing."""
    dupes = predictions.repeated_keys()
    if dupes:
        raise EvaluationError(f"duplicate prediction keys: {dupes[:10]}")
    if not len(predictions):
        return np.full(len(pairs), -1, dtype=np.int64)
    index = {f: i for i, f in enumerate(predictions.frame_ids)}
    onto = np.array([index.get(f, -1) for f in pairs.frame_ids], dtype=np.int64)
    have = predictions.key()
    want = onto[pairs.anchors]
    want *= len(index)
    want += onto[pairs.queries]
    rows = np.searchsorted(have, want)
    # a key past the last prediction key compares unequal to that key
    np.minimum(rows, len(have) - 1, out=rows)
    hit = have[rows] == want
    known = onto >= 0
    hit &= known[pairs.anchors]
    hit &= known[pairs.queries]
    rows[~hit] = -1
    return rows


def match_predictions(pairs: PairTable, predictions: PairTable, rows=None) -> np.ndarray:
    """Row of `predictions` for each pair, in pair order; refuses on missing or
    duplicate keys. `rows`, when given, is align_predictions' result for the
    same tables.

    Extra predictions (covering pairs not under evaluation) are ignored.
    """
    if rows is None:
        rows = align_predictions(pairs, predictions)
    if (rows < 0).any():
        missing = pairs.id_pairs(np.flatnonzero(rows < 0)[:10])
        raise EvaluationError(f"predictions missing for pair keys: {missing}")
    return rows


def unmatched_predictions(pairs: PairTable, predictions: PairTable, rows=None) -> list:
    """Keys of predictions that no pair holds. `rows`, when given, is
    align_predictions' result for the same tables."""
    if rows is None:
        rows = align_predictions(pairs, predictions)
    hit = np.zeros(len(predictions), dtype=bool)
    hit[rows[rows >= 0]] = True
    return predictions.id_pairs(~hit)


def _per_pair(pairs: PairTable, predictions: PairTable, rows, terms):
    """The (M,) arrays terms(t, t_hat, q, q_hat) gives for the pairs, filled
    _CHUNK_PAIRS pairs at a time; `rows` holds each pair's prediction row.

    Each array holds one value per pair, computed from that pair's row alone,
    so the chunk size changes no value, and the gathered prediction rows and
    every temporary of `terms` live for one chunk only."""
    m = len(pairs)
    out = None
    # with no pairs, one empty chunk still gives every array its dtype
    for lo in range(0, max(m, 1), _CHUNK_PAIRS):
        cut = slice(lo, lo + _CHUNK_PAIRS)
        at = rows[cut]
        values = terms(pairs.translations[cut], predictions.translations[at],
                       pairs.rotations[cut], predictions.rotations[at])
        if out is None:
            out = tuple(np.empty(m, v.dtype) for v in values)
        for column, v in zip(out, values):
            column[cut] = v
    return out


def _translation_terms(t, t_hat, norm: str, naive):
    """Per row: ||t - t_hat||, ||t||, their ratio (not finite where ||t|| is
    0) and ||t - naive||, the deviation from the naive mean translation."""
    t_err = geometry.vector_norms(t - t_hat, norm)
    gt = geometry.vector_norms(t, norm)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = t_err / gt
    return t_err, gt, ratio, geometry.vector_norms(t - naive, norm)


def _rotation_terms(q, q_hat):
    """Per row: |r - r_hat|_1 / |r|_1 over Euler triples, whether that ratio
    counts (neither side gimbal-locked and |r|_1 > 0), and whether either side
    is gimbal-locked."""
    r, locked = geometry.euler_zyx_deg_rows(q)
    r_hat, locked_hat = geometry.euler_zyx_deg_rows(q_hat)
    bad = locked | locked_hat
    denom = geometry.vector_norms(r, "l1")
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = geometry.vector_norms(r - r_hat, "l1") / denom
    return ratio, ~bad & (denom > 0.0), bad


def _mape(ratio, keep) -> float | None:
    """MAPE: the mean of ||t - t_hat|| / ||t|| over the pairs in `keep`, those
    whose ground truth has a non-zero norm; None when every pair is excluded."""
    if not np.any(keep):
        return None
    return float(ratio[keep].mean())


def naive_mean_translation(source_pairs: PairTable) -> Translation:
    """Componentwise mean of the ground-truth relative translations."""
    if not len(source_pairs):
        raise EvaluationError("naive mean needs a non-empty source pair set")
    return Translation.from_array(source_pairs.translations.mean(axis=0))


def _mase(t_err, dev) -> float | None:
    """MASE: the total model error over the total error of always predicting
    the naive mean, sum ||t - t_hat|| / sum ||t - naive||.

    1.0 means no better than the naive baseline. None when the baseline error
    is zero (every ground truth equals the naive mean), which leaves the ratio
    undefined.
    """
    num = float(t_err.sum())
    den = float(dev.sum())
    if den == 0.0:
        return None
    return num / den


def _mapse(ratio, gt, dev, keep) -> float | None:
    """MAPSE: percentage error scaled by the naive baseline's relative error.

    MAPE of the model divided by the naive model's total deviation relative
    to the total ground-truth magnitude (sum ||t - naive|| / sum ||t||). Both
    factors are dimensionless, so the result is invariant to rescaling the
    scene, and every sum stays bounded even when many ground truths are tiny.
    On a single pair this reduces to ||t - t_hat|| / ||t - naive||. Zero-norm
    ground truths (not in `keep`) are dropped throughout, as in MAPE; None
    when every pair is dropped or the naive deviation is zero.
    """
    if not np.any(keep):
        return None
    mape = float(ratio[keep].mean())
    naive_dev = float(dev[keep].sum())
    if naive_dev == 0.0:
        return None
    naive_relative = naive_dev / float(gt[keep].sum())
    return mape / naive_relative


def _mape_rotation(ratio, keep, bad, gimbal_policy: str):
    """Rotation MAPE over Euler triples, the mean of |r - r_hat|_1 / |r|_1:
    (value, n_excluded).

    Gimbal-locked pairs (ground truth or prediction) follow the policy:
    'exclude' drops and counts them, 'error' raises. Identity ground truths
    (|r|_1 == 0) are always dropped and counted. The value is None when
    nothing remains.
    """
    if gimbal_policy == "error" and np.any(bad):
        raise EvaluationError(f"{int(bad.sum())} pairs are gimbal-locked")
    n_excluded = int(np.sum(~keep))
    if not np.any(keep):
        return None, n_excluded
    return float(ratio[keep].mean()), n_excluded


def naive_predictor(source_pairs: PairTable) -> SynthPredictor:
    """Fit the mean-returning baseline on a pair set: a constant predictor
    for `synth.synth_predict` that answers every pair with the mean pose.

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
    return SynthPredictor(kind="constant", constant=RelativePose(
        rotation=Quaternion(*q_mean), translation=naive_mean_translation(source_pairs)))


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
    rows = match_predictions(pairs, predictions)
    t_err, q_err = _per_pair(pairs, predictions, rows, lambda t, t_hat, q, q_hat: (
        geometry.vector_norms(t - t_hat, norm), geometry.quat_angle_deg_rows(q, q_hat)))
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
    a2 = weights.alpha ** 2
    b2 = weights.beta ** 2

    def loss(t, t_hat, q, q_hat):
        n = geometry.vector_norms(q_hat, "l2")
        if not n.all():
            raise EvaluationError("predicted quaternion has zero norm and cannot be renormalized")
        l_t = geometry.vector_norms(t - t_hat, "l2")
        l_q = geometry.vector_norms(q - q_hat / n[:, None], "l2")
        return (a2 + b2 + math.exp(-a2) * l_t + math.exp(-b2) * l_q,)

    return _per_pair(pairs, predictions, match_predictions(pairs, predictions), loss)[0]


# ---------------------------------------------------------------------------
# full report
# ---------------------------------------------------------------------------


@dataclass
class MetricReport:
    """All criteria of one evaluation run plus the subspace they were run on.

    t_mean/t_median are the mean and median of ||t - t_hat|| under `norm`, in
    meters, and q_mean/q_median those of the rotation angle error, in
    degrees; each is None when `statistics` leaves it out. t_mape, t_mase,
    t_mapse and r_mape are defined on `_mape`, `_mase`, `_mapse` and
    `_mape_rotation`, and read None when not requested or undefined.
    mape_excluded_zero_norm counts the zero-norm ground truths MAPE and
    MAPSE drop; rmape_excluded the pairs rotation-MAPE drops.
    """

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


def evaluate(pairs: PairTable, predictions: PairTable, cfg: MetricConfig = MetricConfig(), *,
             naive_source_pairs: PairTable | None = None, subspace_threshold: float | None = None,
             include=_METRIC_NAMES, rows=None) -> MetricReport:
    """Run every configured criterion over one pair/prediction set.

    The naive baseline is fit on `naive_source_pairs` when given (the
    report's naive_source reads 'train_pairs'), otherwise on the evaluated
    pairs themselves ('eval_pairs'). The subspace statistics default to the
    evaluated set at its own minimum overlap. `rows`, when given, is
    align_predictions' result for the same tables.
    """
    if not len(pairs):
        raise EvaluationError("cannot evaluate an empty pair set")
    unknown = set(include) - set(_METRIC_NAMES)
    if unknown:
        raise ValueError(f"unknown metrics requested: {sorted(unknown)}")
    rows = match_predictions(pairs, predictions, rows)
    source = pairs if naive_source_pairs is None else naive_source_pairs
    naive = naive_mean_translation(source).as_array()
    threshold = subspace_threshold
    if threshold is None:
        threshold = float(pairs.overlaps.min())
    # its temporaries come and go before the per-pair arrays are made
    subspace = subspace_stats(pairs, threshold)
    rmape = "rmape" in include
    t_err, gt, ratio, dev, q_err, *rotation = _per_pair(
        pairs, predictions, rows, lambda t, t_hat, q, q_hat: (
            *_translation_terms(t, t_hat, cfg.norm, naive), geometry.quat_angle_deg_rows(q, q_hat),
            *(_rotation_terms(q, q_hat) if rmape else ())))
    want_mean = "mean" in cfg.statistics
    want_median = "median" in cfg.statistics
    report = MetricReport(
        n_pairs=len(pairs),
        norm=cfg.norm,
        statistics=tuple(cfg.statistics),
        euler_gimbal_policy=cfg.euler_gimbal_policy,
        naive_source="eval_pairs" if naive_source_pairs is None else "train_pairs",
        config_digest=pairs.config_digest,
        subspace=subspace,
        t_mean=float(t_err.mean()) if want_mean else None,
        t_median=float(np.median(t_err)) if want_median else None,
        q_mean=float(q_err.mean()) if want_mean else None,
        q_median=float(np.median(q_err)) if want_median else None,
    )
    keep = gt > 0.0
    if "mape" in include:
        report.t_mape = _mape(ratio, keep)
        report.mape_excluded_zero_norm = int(np.sum(gt == 0.0))
    if "mase" in include:
        report.t_mase = _mase(t_err, dev)
    if "mapse" in include:
        report.t_mapse = _mapse(ratio, gt, dev, keep)
    if rmape:
        report.r_mape, report.rmape_excluded = _mape_rotation(*rotation, cfg.euler_gimbal_policy)
    return report
