"""Synthetic trajectories and predictors: determinism, noise behaviour, and
the overlap/accuracy tradeoff they must reproduce."""

import math

import numpy as np
import pytest

from frustoval import (
    FrustumSpec,
    MetricConfig,
    OverlapConfig,
    evaluate,
    generate_pairs,
    generate_trajectory,
    naive_predictor,
    subspace_stats,
    synth_predict,
)
from frustoval import dataset
from frustoval.metrics import (
    mapse_translation,
    mase_translation,
    naive_mean_translation,
    standard_errors,
)
from frustoval.synth import SynthConfig, SynthPredictor, WalkConfig, generate_walk

from conftest import pose_rows


class TestGenerateTrajectory:
    def test_same_seed_identical(self, tmp_path):
        cfg = SynthConfig(extents=(3, 2, 1), n_poses=40, seed=99)
        a = generate_trajectory(cfg)
        b = generate_trajectory(cfg)
        assert a == b
        fa, fb = tmp_path / "a.txt", tmp_path / "b.txt"
        dataset.write_poses(fa, a)
        dataset.write_poses(fb, b)
        assert fa.read_bytes() == fb.read_bytes()

    def test_different_seeds_differ(self):
        a = generate_trajectory(SynthConfig(n_poses=40, seed=1))
        b = generate_trajectory(SynthConfig(n_poses=40, seed=2))
        pos_a = {tuple(t) for t in a.translations.tolist()}
        pos_b = {tuple(t) for t in b.translations.tolist()}
        assert pos_a != pos_b

    def test_degenerate_box_collapses_to_origin(self):
        ps = generate_trajectory(SynthConfig(extents=(0, 0, 0), n_poses=10))
        for t in ps.translations:
            np.testing.assert_array_equal(t, [0, 0, 0])

    def test_positions_inside_box(self):
        ext = (3.0, 2.0, 1.0)
        ps = generate_trajectory(SynthConfig(extents=ext, n_poses=200, seed=5))
        pos = ps.translations
        assert np.all(np.abs(pos) <= np.array(ext) / 2 + 1e-9)

    def test_tilt_cone_respected(self):
        from frustoval.geometry import Quaternion, rotation_error

        ps = generate_trajectory(SynthConfig(n_poses=100, max_tilt_deg=15, seed=3))
        for p in pose_rows(ps):
            assert rotation_error(p.rotation, Quaternion.identity()) <= 15 + 1e-6

    def test_invalid_configs(self):
        with pytest.raises(ValueError):
            SynthConfig(n_poses=1)
        with pytest.raises(ValueError):
            SynthConfig(extents=(1, 2))
        with pytest.raises(ValueError):
            SynthConfig(max_tilt_deg=-1)

    @pytest.mark.parametrize("kwargs", [dict(extents=(math.nan, 1.0, 1.0)), dict(extents=(1.0, math.inf, 1.0)),
                                        dict(extents=(1.0, 1.0, -math.inf)), dict(max_tilt_deg=math.nan)])
    def test_non_finite_refused(self, kwargs):
        with pytest.raises(ValueError, match="got"):
            SynthConfig(**kwargs)


class TestGenerateWalk:
    def test_deterministic_and_inside_box(self):
        cfg = WalkConfig(extents=(3, 2, 1), n_poses=120, seed=4)
        a = generate_walk(cfg)
        assert a == generate_walk(cfg)
        pos = a.translations
        assert np.all(np.abs(pos) <= np.array([1.5, 1.0, 0.5]) + 1e-9)

    def test_steps_are_small(self):
        cfg = WalkConfig(extents=(3, 2, 1), n_poses=120, step_m=0.05, seed=4)
        pos = generate_walk(cfg).translations
        steps = np.linalg.norm(np.diff(pos, axis=0), axis=1)
        assert np.median(steps) < 0.2

    def test_tilt_cone_respected(self):
        from frustoval.geometry import Quaternion, rotation_error

        ps = generate_walk(WalkConfig(n_poses=200, max_tilt_deg=20, seed=7))
        for p in pose_rows(ps):
            assert rotation_error(p.rotation, Quaternion.identity()) <= 20 + 1e-6

    @pytest.mark.parametrize("kwargs", [dict(extents=(math.nan, 1.0, 1.0)), dict(extents=(1.0, 1.0, math.inf)),
                                        dict(step_m=math.nan), dict(step_m=math.inf), dict(turn_deg=math.nan),
                                        dict(turn_deg=math.inf), dict(dwell_fraction=math.nan),
                                        dict(max_tilt_deg=math.inf)])
    def test_non_finite_refused(self, kwargs):
        with pytest.raises(ValueError, match="got"):
            WalkConfig(**kwargs)


class TestSynthPredict:
    @staticmethod
    def pairs(n_poses=40, seed=11):
        ps = generate_trajectory(SynthConfig(extents=(2, 2, 1), n_poses=n_poses, seed=seed))
        spec = FrustumSpec(grid_nx=4, grid_ny=4, grid_nz=4)
        return generate_pairs(ps, OverlapConfig(frustum=spec))

    def test_perfect_zeroes_every_metric(self):
        pairs = self.pairs()
        preds = synth_predict(pairs, SynthPredictor(kind="perfect"))
        report = evaluate(pairs, preds)
        assert report.t_mean == 0 and report.t_mape == 0 and report.t_mase == 0
        assert report.t_mapse == 0 and report.r_mape == 0

    def test_constant_at_mean_equals_naive(self):
        pairs = self.pairs()
        mean_rel = naive_predictor(pairs).mean_rel
        const = synth_predict(pairs, SynthPredictor(kind="constant", constant=mean_rel))
        naive = synth_predict(pairs, SynthPredictor(kind="naive"))
        assert const == naive

    def test_noisy_error_grows_with_sigma(self):
        pairs = self.pairs()
        means = []
        for sigma in (0.01, 0.05, 0.1):
            preds = synth_predict(
                pairs, SynthPredictor(kind="noisy", sigma_t=sigma), seed=21
            )
            means.append(standard_errors(pairs, preds, MetricConfig(norm="l2")).t_mean)
        assert means[0] < means[1] < means[2]

    def test_noisy_rotation_perturbs(self):
        pairs = self.pairs()
        preds = synth_predict(
            pairs, SynthPredictor(kind="noisy", sigma_q_deg=5.0), seed=2
        )
        se = standard_errors(pairs, preds)
        assert se.q_mean > 1.0
        assert se.t_mean == 0.0

    def test_seeded_determinism(self):
        pairs = self.pairs()
        spec = SynthPredictor(kind="noisy", sigma_t=0.1, sigma_q_deg=2.0)
        assert synth_predict(pairs, spec, seed=5) == synth_predict(pairs, spec, seed=5)
        assert synth_predict(pairs, spec, seed=5) != synth_predict(pairs, spec, seed=6)

    def test_invalid_predictors(self):
        with pytest.raises(ValueError):
            SynthPredictor(kind="oracle")
        with pytest.raises(ValueError):
            SynthPredictor(kind="noisy", sigma_t=-1)
        with pytest.raises(ValueError):
            SynthPredictor(kind="constant")

    @pytest.mark.parametrize("kwargs", [dict(sigma_t=math.nan), dict(sigma_t=math.inf), dict(sigma_q_deg=math.nan),
                                        dict(sigma_q_deg=math.inf)])
    def test_non_finite_refused(self, kwargs):
        with pytest.raises(ValueError, match="got"):
            SynthPredictor(kind="noisy", **kwargs)


class TestTradeoffReproduction:
    """Rising overlap shrinks the subspace while the scaled metrics hold still."""

    def test_diameter_shrinks_but_scaled_metrics_stable(self):
        spec = FrustumSpec(grid_nx=10, grid_ny=10, grid_nz=10, boundary_epsilon=0.03)
        cfg = OverlapConfig(frustum=spec)
        ps = generate_walk(WalkConfig(extents=(3, 2, 1), n_poses=200, max_tilt_deg=40,
                                      turn_deg=5, seed=0))
        pairs = generate_pairs(ps, cfg, threads=4)
        predictor = SynthPredictor(kind="noisy", sigma_t=0.1, sigma_q_deg=3.0, relative_noise=True)
        preds = synth_predict(pairs, predictor, seed=8)
        thresholds = (0.2, 0.4, 0.6, 0.8)
        diameters, mases, mapses = [], [], []
        for th in thresholds:
            sel = pairs.overlaps >= th
            sub, sp = pairs[sel], preds[sel]
            assert len(sub), f"no pairs above {th}"
            nm = naive_mean_translation(sub)
            diameters.append(subspace_stats(sub, th).diameter)
            mases.append(mase_translation(sub, sp, nm, "l1"))
            mapses.append(mapse_translation(sub, sp, nm, "l1"))
        for lo, hi in zip(diameters[1:], diameters[:-1]):
            assert lo <= hi * 1.05
        assert diameters[-1] < 0.6 * diameters[0]
        for series in (mases, mapses):
            band = max(series) / min(series)
            assert band < 1.3, f"scaled metric drifted across thresholds: {series}"
