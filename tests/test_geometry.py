"""Rigid-transform math against independent matrix oracles and analytic cases."""

import math

import numpy as np
import pytest

from frustoval import (
    EulerAngles,
    MetricConfig,
    OverlapConfig,
    Pose,
    Quaternion,
    RelativePose,
    Translation,
    compose,
    evaluate,
    from_euler,
    generate_pairs,
    inverse,
    relative,
    rotation_error,
    to_euler,
    translation_error,
)
from frustoval.geometry import (
    euler_zyx_deg_rows,
    matrix_to_quat_rows,
    normalize_quat_rows,
    quat_angle_deg_rows,
    quat_rows,
    quats_to_matrices,
    vector_norms,
)
from frustoval.synth import SynthConfig, SynthPredictor, generate_trajectory, synth_predict

from conftest import assert_transform_close, oracle_matrix, pose_rows, random_pose, random_quat


class TestQuaternion:
    def test_unit_normalizes(self, rng):
        for _ in range(200):
            v = rng.normal(size=4) * 10
            q = Quaternion.unit(*v)
            assert abs(q.norm() ** 2 - 1.0) < 1e-9
            assert q.w >= 0.0

    def test_double_cover_resolved(self, rng):
        q = random_quat(rng)
        neg = Quaternion(-q.w, -q.x, -q.y, -q.z).normalized()
        np.testing.assert_allclose(neg.as_array(), q.as_array(), atol=1e-15)

    def test_matrix_round_trip(self, rng):
        for _ in range(100):
            q = random_quat(rng)
            q2 = Quaternion.from_matrix(q.to_matrix())
            np.testing.assert_allclose(q2.as_array(), q.as_array(), atol=1e-12)

    def test_matrix_rows_equal_scalar_shepperd(self, rng):
        # oracle: Shepperd's method one matrix at a time in Python floats,
        # then Quaternion.unit; rotations plus 1e-3 noise, every branch taken
        def shepperd(m):
            t = m[0, 0] + m[1, 1] + m[2, 2]
            if t > 0.0:
                s = math.sqrt(t + 1.0) * 2.0
                q, branch = (0.25 * s, (m[2, 1] - m[1, 2]) / s, (m[0, 2] - m[2, 0]) / s,
                             (m[1, 0] - m[0, 1]) / s), 0
            elif m[0, 0] >= m[1, 1] and m[0, 0] >= m[2, 2]:
                s = math.sqrt(1.0 + m[0, 0] - m[1, 1] - m[2, 2]) * 2.0
                q, branch = ((m[2, 1] - m[1, 2]) / s, 0.25 * s, (m[0, 1] + m[1, 0]) / s,
                             (m[0, 2] + m[2, 0]) / s), 1
            elif m[1, 1] >= m[2, 2]:
                s = math.sqrt(1.0 + m[1, 1] - m[0, 0] - m[2, 2]) * 2.0
                q, branch = ((m[0, 2] - m[2, 0]) / s, (m[0, 1] + m[1, 0]) / s, 0.25 * s,
                             (m[1, 2] + m[2, 1]) / s), 2
            else:
                s = math.sqrt(1.0 + m[2, 2] - m[0, 0] - m[1, 1]) * 2.0
                q, branch = ((m[1, 0] - m[0, 1]) / s, (m[0, 2] + m[2, 0]) / s,
                             (m[1, 2] + m[2, 1]) / s, 0.25 * s), 3
            return Quaternion.unit(*q), branch

        mats = quats_to_matrices(quat_rows([random_quat(rng) for _ in range(400)]))
        mats += rng.normal(scale=1e-3, size=mats.shape)
        rows = matrix_to_quat_rows(mats)
        branches = []
        for m, row in zip(mats, rows):
            want, branch = shepperd(m)
            branches.append(branch)
            assert Quaternion(*row.tolist()) == want
            assert Quaternion.from_matrix(m) == want
        assert min(np.bincount(branches, minlength=4)) >= 40

    def test_rotate_matches_matrix(self, rng):
        q = random_quat(rng)
        v = rng.normal(size=3)
        np.testing.assert_allclose(q.rotate(v), q.to_matrix() @ v, atol=1e-12)

    def test_zero_quaternion_rejected(self):
        with pytest.raises(ValueError):
            Quaternion(0, 0, 0, 0).normalized()


class TestCompose:
    def test_identity_left_right(self, rng):
        ident = RelativePose.identity()
        p = random_pose(rng)
        assert_transform_close(compose(ident, p), p)
        assert_transform_close(compose(p, ident), p)

    def test_inverse_gives_identity(self, rng):
        p = random_pose(rng)
        assert_transform_close(compose(p, inverse(p)), RelativePose.identity())

    def test_matches_matrix_product_oracle(self, rng):
        for _ in range(200):
            a, b = random_pose(rng), random_pose(rng)
            c = compose(a, b)
            expected = oracle_matrix(a) @ oracle_matrix(b)
            np.testing.assert_allclose(oracle_matrix(c), expected, atol=1e-9)

    def test_result_rotation_is_canonical(self, rng):
        for _ in range(100):
            c = compose(random_pose(rng), random_pose(rng))
            assert abs(c.rotation.norm() ** 2 - 1.0) < 1e-9
            assert c.rotation.w >= 0.0


class TestRelative:
    def test_self_pair_is_identity(self, rng):
        p = random_pose(rng)
        assert_transform_close(relative(p, p), RelativePose.identity())

    def test_pure_translation(self):
        a = Pose(Quaternion.identity(), Translation(0, 0, 0), "a")
        b = Pose(Quaternion.identity(), Translation(1, 0, 0), "b")
        rel = relative(a, b)
        np.testing.assert_allclose(rel.translation.as_array(), [1, 0, 0], atol=1e-15)
        assert rotation_error(rel.rotation, Quaternion.identity()) == 0.0

    def test_round_trip_property(self, rng):
        # compose(anchor, relative(anchor, query)) reproduces query
        for _ in range(1000):
            anchor, query = random_pose(rng), random_pose(rng)
            assert_transform_close(compose(anchor, relative(anchor, query)), query)


class TestTranslationError:
    def test_zero_for_equal(self):
        t = Translation(0.3, -1.2, 5.0)
        assert translation_error(t, t, "l2") == 0.0
        assert translation_error(t, t, "l1") == 0.0

    def test_analytic_l2(self):
        assert translation_error(Translation(1, 2, 2), Translation(0, 0, 0), "l2") == pytest.approx(3.0)

    def test_analytic_l1(self):
        err = translation_error(Translation(1, 1, 0), Translation(1.1, 0.9, 0), "l1")
        assert err == pytest.approx(0.2)

    def test_unknown_norm(self):
        with pytest.raises(ValueError):
            translation_error(Translation.zero(), Translation.zero(), "linf")

    def test_norm_equivalence_property(self, rng):
        # l2 <= l1 <= sqrt(3) * l2
        for _ in range(500):
            t = Translation(*rng.normal(size=3))
            s = Translation(*rng.normal(size=3))
            l1 = translation_error(t, s, "l1")
            l2 = translation_error(t, s, "l2")
            assert l2 <= l1 + 1e-12
            assert l1 <= math.sqrt(3) * l2 + 1e-12


class TestRotationError:
    def test_zero_for_equal(self, rng):
        q = random_quat(rng)
        assert rotation_error(q, q) == pytest.approx(0.0, abs=1e-9)

    def test_double_cover_zero(self, rng):
        q = random_quat(rng)
        neg = Quaternion(-q.w, -q.x, -q.y, -q.z)
        assert rotation_error(q, neg) == pytest.approx(0.0, abs=1e-9)

    def test_ninety_about_z(self):
        q90 = Quaternion(math.sqrt(2) / 2, 0, 0, math.sqrt(2) / 2)
        assert rotation_error(Quaternion.identity(), q90) == pytest.approx(90.0, abs=1e-9)

    def test_range_and_symmetry(self, rng):
        for _ in range(500):
            a, b = random_quat(rng), random_quat(rng)
            e = rotation_error(a, b)
            assert 0.0 <= e <= 180.0
            assert e == rotation_error(b, a)

    def test_triangle_inequality(self, rng):
        for _ in range(2000):
            a, b, c = (random_quat(rng) for _ in range(3))
            assert rotation_error(a, c) <= rotation_error(a, b) + rotation_error(b, c) + 1e-6

    def test_left_invariance(self, rng):
        for _ in range(500):
            a, b, r = (random_quat(rng) for _ in range(3))
            lhs = rotation_error(a, b)
            rhs = rotation_error((r * a).normalized(), (r * b).normalized())
            assert lhs == pytest.approx(rhs, abs=1e-9)


class TestEuler:
    def test_identity(self):
        e = to_euler(Quaternion.identity())
        assert (e.yaw, e.pitch, e.roll) == (0.0, 0.0, 0.0)
        assert not e.gimbal_locked

    def test_ninety_about_z(self):
        e = to_euler(Quaternion.from_axis_angle((0, 0, 1), 90))
        np.testing.assert_allclose([e.yaw, e.pitch, e.roll], [90.0, 0.0, 0.0], atol=1e-9)

    def test_round_trip_fixed_point(self, rng):
        n_checked = 0
        for _ in range(500):
            q = random_quat(rng)
            e1 = to_euler(q)
            if e1.gimbal_locked:
                continue
            e2 = to_euler(from_euler(e1.yaw, e1.pitch, e1.roll))
            np.testing.assert_allclose(e2.as_array(), e1.as_array(), atol=1e-6)
            n_checked += 1
        assert n_checked > 450

    def test_rotation_recovered(self, rng):
        # component comparison: rotation_error has an acos noise floor ~2e-6 deg
        for _ in range(200):
            q = random_quat(rng)
            e = to_euler(q)
            if e.gimbal_locked:
                continue
            q2 = from_euler(e.yaw, e.pitch, e.roll)
            np.testing.assert_allclose(q2.as_array(), q.as_array(), atol=1e-12)

    def test_pitch_range(self, rng):
        for _ in range(500):
            assert -90.0 <= to_euler(random_quat(rng)).pitch <= 90.0

    def test_gimbal_lock_flagged(self):
        e = to_euler(Quaternion.from_axis_angle((0, 1, 0), 90))
        assert e.gimbal_locked
        assert e.pitch == pytest.approx(90.0, abs=1e-6)
        e = to_euler(Quaternion.from_axis_angle((0, 1, 0), -90))
        assert e.gimbal_locked

    def test_near_lock_not_flagged(self):
        e = to_euler(Quaternion.from_axis_angle((0, 1, 0), 89.9))
        assert not e.gimbal_locked
        assert e.pitch == pytest.approx(89.9, abs=1e-6)


class TestRowOps:
    def test_rows_match_scalar(self, rng):
        quats = [random_quat(rng) for _ in range(50)]
        rows = quat_rows(quats)
        normed = normalize_quat_rows(rows)
        np.testing.assert_allclose(normed, rows, atol=1e-12)
        eulers, locked = euler_zyx_deg_rows(rows)
        for i, q in enumerate(quats):
            e = to_euler(q)
            assert e.gimbal_locked == bool(locked[i])
            np.testing.assert_allclose(eulers[i], e.as_array(), atol=1e-12)

    def test_scalar_functions_equal_pipeline_rows(self):
        # relative() equals the pair file's row, and the scalar errors equal
        # the per-pair values evaluate() reduces, bit for bit
        poses = generate_trajectory(SynthConfig(n_poses=60, seed=5))
        by_id = {p.frame_id: p for p in pose_rows(poses)}
        pairs = generate_pairs(poses, OverlapConfig())
        assert len(pairs) > 1000
        for row in pairs:
            rel = relative(by_id[row.anchor_id], by_id[row.query_id])
            assert rel == row.rel, row.key
        preds = synth_predict(pairs, SynthPredictor("noisy", sigma_t=0.3, sigma_q_deg=4.0), seed=2)
        q_err = quat_angle_deg_rows(pairs.rotations, preds.rotations)
        t_err = {n: vector_norms(pairs.translations - preds.translations, n) for n in ("l1", "l2")}
        for k, (row, pred) in enumerate(zip(pairs, preds)):
            assert rotation_error(row.rel.rotation, pred.rel.rotation) == q_err[k]
            for n in ("l1", "l2"):
                assert translation_error(row.rel.translation, pred.rel.translation, n) == t_err[n][k]
        for n in ("l1", "l2"):
            report = evaluate(pairs, preds, MetricConfig(norm=n), include=())
            assert report.t_median == np.median(t_err[n])
            assert report.q_median == np.median(q_err)

    def test_euler_angles_container(self):
        e = EulerAngles(1.0, 2.0, 3.0)
        np.testing.assert_array_equal(e.as_array(), [1.0, 2.0, 3.0])
