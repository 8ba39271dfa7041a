"""Why raw mean error misleads, and what the scaled metrics fix.

Scenario: a do-nothing baseline that always answers with the mean relative
pose is evaluated on easy high-overlap pairs, while an informative but noisy
predictor is evaluated on hard low-overlap pairs. The baseline posts the
better mean translation error; MASE exposes it immediately (a useful model
scores below 1, the baseline is 1 by construction).

Run: python3 demos/03_volume_aware_metrics.py
"""

from frustoval import FrustumSpec, MetricConfig, OverlapConfig, evaluate, generate_pairs
from frustoval.metrics import naive_predictor
from frustoval.synth import SynthPredictor, WalkConfig, generate_walk, synth_predict

spec = FrustumSpec(grid_nx=10, grid_ny=10, grid_nz=10, boundary_epsilon=0.03)
cfg = OverlapConfig(frustum=spec)
poses = generate_walk(WalkConfig(extents=(3, 2, 1), n_poses=200, max_tilt_deg=40,
                                 turn_deg=5, seed=0))
pairs = generate_pairs(poses, cfg, threads=4)

easy = pairs[pairs.overlaps > 0.7]
hard = pairs[(0.1 < pairs.overlaps) & (pairs.overlaps <= 0.4)]
print(f"easy set (overlap > 0.7):      {len(easy):6d} pairs")
print(f"hard set (0.1 < overlap <= 0.4): {len(hard):6d} pairs\n")

naive_preds = naive_predictor(easy).predict(easy)
noisy_preds = synth_predict(hard, SynthPredictor(kind="noisy", sigma_t=0.15, sigma_q_deg=5.0),
                            seed=5)

mc = MetricConfig(norm="l2")
r_naive = evaluate(easy, naive_preds, mc)
r_noisy = evaluate(hard, noisy_preds, mc)


def show(name, r):
    print(f"{name:28s} mean t {r.t_mean:.3f} m | median t {r.t_median:.3f} m | "
          f"MAPE {r.t_mape:.3f} | MASE {r.t_mase:.3f} | MAPSE {r.t_mapse:.3f}")


show("mean-baseline on easy pairs", r_naive)
show("noisy model on hard pairs", r_noisy)

print(f"""
By mean translation error the baseline ({r_naive.t_mean:.3f} m) looks BETTER than
the model that actually learned something ({r_noisy.t_mean:.3f} m) - it was just
evaluated on a {r_naive.subspace.diameter:.2f} m subspace instead of a
{r_noisy.subspace.diameter:.2f} m one. MASE normalizes by what the do-nothing
baseline achieves on the same pairs: the baseline lands exactly at
{r_naive.t_mase:.2f}, the noisy model at {r_noisy.t_mase:.2f}. Lower is better,
1.0 means 'learned nothing'.""")

print("Scaled metrics also ignore global scene rescaling: multiplying every")
print("translation by 10 multiplies mean/median by 10 and leaves MAPE, MASE")
print("and MAPSE untouched (see tests/test_acceptance.py, criterion 7).")
