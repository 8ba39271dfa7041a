"""Error as a function of overlap, and one number to compare models with.

Evaluating the same predictor separately per overlap bin shows how strongly
the standard median error depends on the admitted overlap range, while the
scaled metrics stay flat. The per-bin curve is summarized by a span-normalized
area under the curve (lower is better), which compares models without fixing
a threshold first.

Run: python3 demos/04_error_curves.py
(CLI equivalent: frustoval curve --poses ... --pred ... --bins 0.1:0.9:0.1)
"""

import numpy as np

from frustoval import FrustumSpec, MetricConfig, OverlapConfig, error_curve, evaluate, generate_pairs
from frustoval.pairgen import OverlapBinning
from frustoval.synth import SynthPredictor, WalkConfig, generate_walk, synth_predict

spec = FrustumSpec(grid_nx=10, grid_ny=10, grid_nz=10, boundary_epsilon=0.03)
cfg = OverlapConfig(frustum=spec)
poses = generate_walk(WalkConfig(extents=(3, 2, 1), n_poses=200, max_tilt_deg=40,
                                 turn_deg=5, seed=0))
pairs = generate_pairs(poses, cfg, threads=4)
predictor = SynthPredictor(kind="noisy", sigma_t=0.12, sigma_q_deg=4.0, relative_noise=True)
preds = synth_predict(pairs, predictor, seed=11)

edges = tuple(round(0.1 + 0.1 * k, 12) for k in range(9))
binning = OverlapBinning(edges=edges)

print("per-bin evaluation of one fixed predictor:")
print("  bin          n      median t   MASE    MAPSE")
medians, mases, mapses = [], [], []
for lo, hi in zip(edges[:-1], edges[1:]):
    sel = (lo < pairs.overlaps) & (pairs.overlaps <= hi)
    sub, sp = pairs[sel], preds[sel]
    r = evaluate(sub, sp, MetricConfig(norm="l1"))
    med, mase, mapse = r.t_median, r.t_mase, r.t_mapse
    medians.append(med)
    mases.append(mase)
    mapses.append(mapse)
    print(f"  ({lo:.1f},{hi:.1f}] {len(sub):6d}   {med:7.4f} m  {mase:.4f}  {mapse:.4f}")


def cv(v):
    v = np.asarray(v)
    return v.std() / v.mean()


print(f"\nspread across bins (coefficient of variation):")
print(f"  median t: {cv(medians):.3f}   MASE: {cv(mases):.3f}   MAPSE: {cv(mapses):.3f}")
print("the median swings with the overlap range; the scaled metrics do not.\n")

in_range = pairs[(edges[0] < pairs.overlaps) & (pairs.overlaps <= edges[-1])]
curve = error_curve(in_range, preds, binning, stat="median", norm="l1")
print("curve summary over the same bins:")
print(f"  AUC translation: {curve.auc_t:.4f} m (raw area {curve.raw_area_t:.4f})")
print(f"  AUC rotation:    {curve.auc_q:.4f} deg")
print("two models over the same bins are compared by these areas alone;")
print("the smaller area wins regardless of any single threshold choice.")
