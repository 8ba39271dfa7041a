"""Every evaluation criterion against independent oracles and analytic cases."""

import math

import numpy as np
import pytest

from frustoval import (
    LossWeights,
    MetricConfig,
    OverlapBinning,
    Quaternion,
    Translation,
    combined_loss,
    error_curve,
    evaluate,
    from_euler,
    mape_rotation,
    mape_translation,
    mapse_translation,
    mase_translation,
    naive_predictor,
    standard_errors,
)
from frustoval.dataset import PairTable
from frustoval.geometry import quat_rows
from frustoval.metrics import (
    EvaluationError,
    match_predictions,
    naive_mean_translation,
)

from conftest import random_quat


def make_pairs(t, q=None, overlap=0.5, digest="d"):
    """A pair table of one row per translation, keyed a-NNNN/q-NNNN in row
    order; q is a list of Quaternions (identity when None)."""
    t = np.reshape(np.asarray(t, dtype=float), (-1, 3))
    m = len(t)
    q = np.tile([1.0, 0.0, 0.0, 0.0], (m, 1)) if q is None else quat_rows(q)
    return PairTable.from_ids([f"a-{i:04d}" for i in range(m)], [f"q-{i:04d}" for i in range(m)],
                              q, t, np.broadcast_to(np.asarray(overlap, dtype=float), (m,)), digest)


def make_preds(pairs, t, q=None):
    """Predictions for the keys of `pairs`; rotations from q, or the pairs' own."""
    return PairTable(pairs.frame_ids, pairs.anchors, pairs.queries,
                     pairs.rotations if q is None else quat_rows(q), t,
                     config_digest=pairs.config_digest)


def perfect_preds(pairs):
    return make_preds(pairs, pairs.translations)


def scaled(table, s):
    return PairTable(table.frame_ids, table.anchors, table.queries, table.rotations,
                     s * table.translations, table.overlaps, table.config_digest)


def empty_pairs():
    return make_pairs(np.empty((0, 3)))


def random_problem(rng, n=50, rot_scale=20.0):
    t, q, overlaps, t_hat, q_hat = [], [], [], [], []
    for _ in range(n):
        t.append(rng.normal(size=3))
        q.append(Quaternion.from_axis_angle(rng.normal(size=3), rng.uniform(1, rot_scale)))
        overlaps.append(float(rng.uniform(0.05, 1.0)))
        dq = Quaternion.from_axis_angle(rng.normal(size=3), rng.uniform(0, 5))
        t_hat.append(t[-1] + rng.normal(size=3) * 0.2)
        q_hat.append((dq * q[-1]).normalized())
    pairs = make_pairs(t, q, overlaps)
    return pairs, make_preds(pairs, t_hat, q_hat)


class TestMatching:
    def test_missing_key_listed(self):
        pairs = make_pairs([(1, 0, 0), (0, 1, 0)])
        preds = perfect_preds(pairs[:1])
        with pytest.raises(EvaluationError, match="a-0001"):
            match_predictions(pairs, preds)

    def test_duplicate_key_listed(self):
        pairs = make_pairs([(1, 0, 0)])
        preds = perfect_preds(pairs)[[0, 0]]
        with pytest.raises(EvaluationError) as e:
            match_predictions(pairs, preds)
        assert str(e.value) == "duplicate prediction keys: [('a-0000', 'q-0000')]"

    def test_extra_predictions_ignored(self):
        pairs = make_pairs([(1, 0, 0), (0, 1, 0)])
        preds = perfect_preds(pairs)
        assert len(match_predictions(pairs[:1], preds)) == 1


class TestStandardErrors:
    def test_perfect_is_zero(self, rng):
        rows = [(rng.normal(size=3), random_quat(rng)) for _ in range(10)]
        pairs = make_pairs([t for t, _ in rows], [q for _, q in rows])
        se = standard_errors(pairs, perfect_preds(pairs))
        assert se.t_mean == 0 and se.t_median == 0
        # identical quaternions land within the acos noise floor (~2e-6 deg)
        assert se.q_mean == pytest.approx(0, abs=1e-5)
        assert se.q_median == pytest.approx(0, abs=1e-5)

    def test_analytic_mean_median(self):
        pairs = make_pairs([(0, 0, 0), (0, 0, 0)])
        preds = make_preds(pairs, [(1, 0, 0), (3, 0, 0)])
        se = standard_errors(pairs, preds, MetricConfig(norm="l2"))
        assert se.t_mean == pytest.approx(2.0)
        assert se.t_median == pytest.approx(2.0)

    def test_matches_sort_oracle(self, rng):
        pairs, preds = random_problem(rng)
        cfg = MetricConfig(norm="l2")
        se = standard_errors(pairs, preds, cfg)
        t_errs = sorted(
            np.linalg.norm(t - t_hat) for t, t_hat in zip(pairs.translations, preds.translations)
        )
        n = len(t_errs)
        median = t_errs[n // 2] if n % 2 else 0.5 * (t_errs[n // 2 - 1] + t_errs[n // 2])
        assert se.t_median == pytest.approx(median, abs=1e-12)
        assert se.t_mean == pytest.approx(sum(t_errs) / n, abs=1e-12)

    def test_statistics_subset(self, rng):
        pairs, preds = random_problem(rng, n=5)
        se = standard_errors(pairs, preds, MetricConfig(statistics=("median",)))
        assert se.t_mean is None and se.q_mean is None
        assert se.t_median is not None

    def test_empty_refused(self):
        with pytest.raises(EvaluationError):
            standard_errors(empty_pairs(), perfect_preds(empty_pairs()))


class TestMape:
    def test_perfect_is_zero(self, rng):
        pairs, _ = random_problem(rng, n=10)
        assert mape_translation(pairs, perfect_preds(pairs)) == 0.0

    def test_analytic_l1(self):
        pair = make_pairs([(1, 1, 0)])
        pred = make_preds(pair, [(1.1, 0.9, 0)])
        assert mape_translation(pair, pred, "l1") == pytest.approx(0.1)

    def test_scale_equivariance(self, rng):
        pairs, preds = random_problem(rng)
        v1 = mape_translation(pairs, preds, "l1")
        v2 = mape_translation(scaled(pairs, 10), scaled(preds, 10), "l1")
        assert v2 == pytest.approx(v1, abs=1e-12)

    def test_zero_norm_excluded(self):
        pairs = make_pairs([(0, 0, 0), (1, 0, 0)])
        preds = make_preds(pairs, [(5, 0, 0), (1.5, 0, 0)])
        # the zero-norm pair would contribute an unbounded ratio; it must not
        assert mape_translation(pairs, preds, "l2") == pytest.approx(0.5)

    def test_all_zero_norm_undefined(self):
        pairs = make_pairs([(0, 0, 0)])
        assert mape_translation(pairs, perfect_preds(pairs)) is None


class TestMase:
    def test_naive_scores_exactly_one(self, rng):
        pairs, _ = random_problem(rng)
        naive = naive_predictor(pairs)
        preds = naive.predict(pairs)
        value = mase_translation(pairs, preds, naive_mean_translation(pairs), "l1")
        assert value == 1.0

    def test_perfect_is_zero(self, rng):
        pairs, _ = random_problem(rng)
        nm = naive_mean_translation(pairs)
        assert mase_translation(pairs, perfect_preds(pairs), nm, "l2") == 0.0

    def test_half_offset_ratio(self, rng):
        # predictor = truth + fixed offset of half the naive mean deviation
        pairs, _ = random_problem(rng)
        nm = naive_mean_translation(pairs)
        t = pairs.translations
        mean_dev = np.linalg.norm(t - nm.as_array(), axis=1).mean()
        offset = np.array([0.5 * mean_dev, 0.0, 0.0])
        preds = make_preds(pairs, t + offset)
        got = mase_translation(pairs, preds, nm, "l2")
        # direct-summation oracle
        num = sum(np.linalg.norm(offset) for _ in range(len(pairs)))
        den = sum(np.linalg.norm(row - nm.as_array()) for row in t)
        assert got == pytest.approx(num / den, abs=1e-12)
        assert got == pytest.approx(0.5, abs=1e-9)

    def test_degenerate_denominator_undefined(self):
        pairs = make_pairs([(1, 0, 0), (1, 0, 0)])
        nm = naive_mean_translation(pairs)
        assert mase_translation(pairs, perfect_preds(pairs), nm, "l1") is None


class TestMapse:
    def test_perfect_is_zero(self, rng):
        pairs, _ = random_problem(rng)
        nm = naive_mean_translation(pairs)
        assert mapse_translation(pairs, perfect_preds(pairs), nm, "l1") == 0.0

    def test_single_pair_reduces_to_error_ratio(self, rng):
        pair = make_pairs([(1.0, 2.0, -0.5)])
        pred = make_preds(pair, [(1.2, 1.9, -0.5)])
        nm = Translation(0.5, 0.5, 0.5)
        got = mapse_translation(pair, pred, nm, "l2")
        t, th = pair.translations[0], pred.translations[0]
        expected = np.linalg.norm(t - th) / np.linalg.norm(t - nm.as_array())
        assert got == pytest.approx(expected, abs=1e-12)

    def test_matches_direct_summation_oracle(self, rng):
        pairs, preds = random_problem(rng)
        nm = naive_mean_translation(pairs)
        got = mapse_translation(pairs, preds, nm, "l1")
        pct, dev, mag, n = 0.0, 0.0, 0.0, 0
        for t, t_hat in zip(pairs.translations, preds.translations):
            gt = np.abs(t).sum()
            if gt == 0.0:
                continue
            pct += np.abs(t - t_hat).sum() / gt
            dev += np.abs(t - nm.as_array()).sum()
            mag += gt
            n += 1
        assert got == pytest.approx((pct / n) / (dev / mag), abs=1e-12)

    def test_scale_invariant(self, rng):
        pairs, preds = random_problem(rng)
        nm = naive_mean_translation(pairs)
        v1 = mapse_translation(pairs, preds, nm, "l2")
        s = 10.0
        spairs = scaled(pairs, s)
        v2 = mapse_translation(spairs, scaled(preds, s), naive_mean_translation(spairs), "l2")
        assert v2 == pytest.approx(v1, abs=1e-12)


class TestMapeRotation:
    def test_perfect_is_zero(self, rng):
        pairs, _ = random_problem(rng)
        value, excluded = mape_rotation(pairs, perfect_preds(pairs))
        assert value == 0.0 and excluded == 0

    def test_analytic_yaw(self):
        pair = make_pairs([(1, 0, 0)], [from_euler(90, 0, 0)])
        pred = make_preds(pair, [(1, 0, 0)], [from_euler(99, 0, 0)])
        value, _ = mape_rotation(pair, pred)
        assert value == pytest.approx(0.1, abs=1e-9)

    def test_matches_direct_recomputation(self, rng):
        from frustoval.geometry import to_euler

        pairs, preds = random_problem(rng, rot_scale=40.0)
        got, excluded = mape_rotation(pairs, preds)
        acc, n = 0.0, 0
        for q, q_hat in zip(pairs.rotations, preds.rotations):
            e = to_euler(Quaternion(*q))
            eh = to_euler(Quaternion(*q_hat))
            if e.gimbal_locked or eh.gimbal_locked:
                continue
            den = abs(e.yaw) + abs(e.pitch) + abs(e.roll)
            if den == 0.0:
                continue
            num = abs(e.yaw - eh.yaw) + abs(e.pitch - eh.pitch) + abs(e.roll - eh.roll)
            acc += num / den
            n += 1
        assert n + excluded == len(pairs)
        assert got == pytest.approx(acc / n, abs=1e-12)

    def test_gimbal_policy_error_raises(self):
        pair = make_pairs([(1, 0, 0)], [from_euler(10, 90, 0)])
        with pytest.raises(EvaluationError, match="gimbal"):
            mape_rotation(pair, perfect_preds(pair), gimbal_policy="error")

    def test_gimbal_excluded_and_counted(self):
        # row 0 gimbal-locked, row 1 plain
        pairs = make_pairs([(1, 0, 0), (1, 0, 0)], [from_euler(10, 90, 0), from_euler(10, 20, 5)])
        value, excluded = mape_rotation(pairs, perfect_preds(pairs))
        assert excluded == 1
        assert value == 0.0

    def test_all_excluded_undefined(self):
        pair = make_pairs([(1, 0, 0)], [Quaternion.identity()])  # |r|_1 == 0
        value, excluded = mape_rotation(pair, perfect_preds(pair))
        assert value is None and excluded == 1


class TestNaivePredictor:
    def test_single_source_pair(self):
        pair = make_pairs([(1, 2, 3)], [from_euler(30, 10, -5)])
        naive = naive_predictor(pair)
        pred = naive.predict(pair)
        np.testing.assert_allclose(pred.translations[0], [1, 2, 3])
        np.testing.assert_allclose(pred.rotations[0], pair.rotations[0], atol=1e-12)

    def test_symmetric_translations_cancel(self):
        pairs = make_pairs([(1, 0, 0), (-1, 0, 0)])
        np.testing.assert_allclose(
            naive_predictor(pairs).mean_rel.translation.as_array(), [0, 0, 0]
        )

    def test_identity_mean(self):
        pairs = make_pairs([(0, 0, 1), (0, 0, 1)])
        assert naive_predictor(pairs).mean_rel.rotation == Quaternion.identity()

    def test_hemisphere_alignment(self):
        q = from_euler(170, 0, 0)
        neg = Quaternion(-q.w, -q.x, -q.y, -q.z)  # same rotation, other sheet
        pairs = make_pairs([(1, 0, 0), (1, 0, 0)], [q, neg])
        mean = naive_predictor(pairs).mean_rel.rotation
        np.testing.assert_allclose(np.abs(mean.as_array()), np.abs(q.as_array()), atol=1e-9)


class TestErrorCurve:
    @staticmethod
    def curve_problem(values_by_bin, binning=OverlapBinning()):
        """One pair per listed bin with an exact translation error."""
        mids = [0.5 * (binning.edges[b] + binning.edges[b + 1]) for b in values_by_bin]
        pairs = make_pairs([(1, 0, 0)] * len(mids), overlap=mids)
        return pairs, make_preds(pairs, [(1 + err, 0, 0) for err in values_by_bin.values()])

    def test_constant_curve_auc_is_constant(self):
        pairs, preds = self.curve_problem({b: 0.37 for b in range(10)})
        c = error_curve(pairs, preds)
        assert c.auc_t == pytest.approx(0.37, abs=1e-12)
        assert all(b.n == 1 for b in c.bins)

    def test_linear_curve_auc_half(self):
        # errors rising 0 -> 1 across the midpoints integrate to 1/2
        pairs, preds = self.curve_problem({b: b / 9.0 for b in range(10)})
        c = error_curve(pairs, preds)
        assert c.auc_t == pytest.approx(0.5, abs=1e-12)

    def test_matches_trapezoid_oracle(self, rng):
        values = {b: float(rng.uniform(0, 2)) for b in range(10)}
        pairs, preds = self.curve_problem(values)
        c = error_curve(pairs, preds, stat="median", norm="l2")
        mids = [0.05 + 0.1 * b for b in range(10)]
        ys = [values[b] for b in range(10)]
        area = sum(
            0.5 * (ys[i] + ys[i + 1]) * (mids[i + 1] - mids[i]) for i in range(9)
        )
        assert c.raw_area_t == pytest.approx(area, abs=1e-12)
        assert c.auc_t == pytest.approx(area / (mids[-1] - mids[0]), abs=1e-12)

    def test_empty_bin_excluded_from_integration(self):
        pairs, preds = self.curve_problem({0: 1.0, 1: 1.0, 5: 1.0})
        c = error_curve(pairs, preds)
        empty = [b for b in c.bins if b.n == 0]
        assert len(empty) == 7
        assert all(b.t_stat is None for b in empty)
        assert c.auc_t == pytest.approx(1.0, abs=1e-12)

    def test_single_bin_auc_is_value(self):
        pairs, preds = self.curve_problem({3: 0.25})
        c = error_curve(pairs, preds)
        assert c.auc_t == pytest.approx(0.25)
        assert c.raw_area_t == 0.0

    def test_out_of_range_overlap_rejected(self):
        pair = make_pairs([(1, 0, 0)], overlap=0.95)
        with pytest.raises(ValueError, match="outside"):
            error_curve(pair, perfect_preds(pair), OverlapBinning(edges=(0.1, 0.5, 0.9)))


class TestCombinedLoss:
    def test_perfect_zero_weights(self, rng):
        pairs, _ = random_problem(rng, n=1)
        assert combined_loss(pairs, perfect_preds(pairs))[0] == pytest.approx(0.0, abs=1e-12)

    def test_perfect_alpha_one(self, rng):
        pairs, _ = random_problem(rng, n=1)
        loss = combined_loss(pairs, perfect_preds(pairs), LossWeights(alpha=1.0))[0]
        assert loss == pytest.approx(1.0, abs=1e-12)

    def test_matches_direct_formula(self, rng):
        pairs, preds = random_problem(rng, n=20)
        w = LossWeights(alpha=0.7, beta=-0.3)
        losses = combined_loss(pairs, preds, w)
        assert losses.shape == (len(pairs),)
        rows = zip(pairs.translations, preds.translations, pairs.rotations, preds.rotations)
        for loss, (t, t_hat, q, qh) in zip(losses, rows):
            l_t = np.linalg.norm(t - t_hat)
            l_q = np.linalg.norm(q - qh / np.linalg.norm(qh))
            expected = (
                w.alpha**2 + w.beta**2
                + math.exp(-w.alpha**2) * l_t + math.exp(-w.beta**2) * l_q
            )
            assert loss == pytest.approx(expected, abs=1e-12)

    def test_unnormalized_prediction_renormalized(self):
        pair = make_pairs([(0, 0, 0)], [Quaternion.identity()])
        doubled = make_preds(pair, [(0, 0, 0)], [Quaternion(2.0, 0, 0, 0)])
        assert combined_loss(pair, doubled)[0] == pytest.approx(0.0, abs=1e-12)

    def test_zero_quaternion_rejected(self):
        pair = make_pairs([(0, 0, 0)])
        bad = make_preds(pair, [(0, 0, 0)], [Quaternion(0, 0, 0, 0)])
        with pytest.raises(EvaluationError, match="zero norm"):
            combined_loss(pair, bad)


class TestEvaluate:
    def test_full_report(self, rng):
        pairs, preds = random_problem(rng)
        report = evaluate(pairs, preds)
        items = report.to_items()
        for key in ("t_mean_m", "t_median_m", "q_mean_deg", "q_median_deg",
                    "t_mape", "t_mase", "t_mapse", "r_mape"):
            assert items[key] is not None and items[key] >= 0
        assert report.n_pairs == len(pairs)
        assert report.subspace.count == len(pairs)

    def test_round_trips_through_items(self, rng):
        from frustoval.metrics import MetricReport

        pairs, preds = random_problem(rng)
        report = evaluate(pairs, preds)
        again = MetricReport.from_items(report.to_items())
        assert again == report

    def test_scale_behavior(self, rng):
        # mean/median scale linearly; the volume-aware metrics do not move
        pairs, preds = random_problem(rng)
        r1 = evaluate(pairs, preds, MetricConfig(norm="l2"))
        s = 10.0
        r2 = evaluate(scaled(pairs, s), scaled(preds, s), MetricConfig(norm="l2"))
        assert r2.t_mean == pytest.approx(s * r1.t_mean, rel=1e-9)
        assert r2.t_median == pytest.approx(s * r1.t_median, rel=1e-9)
        assert abs(r2.t_mape - r1.t_mape) < 1e-12
        assert abs(r2.t_mase - r1.t_mase) < 1e-12
        assert abs(r2.t_mapse - r1.t_mapse) < 1e-12

    def test_permutation_invariance(self, rng):
        pairs, preds = random_problem(rng)
        r1 = evaluate(pairs, preds)
        order = rng.permutation(len(pairs))
        r2 = evaluate(pairs[order], preds[order])
        # reordering perturbs float sums by at most an ulp; the median is exact
        assert r1.t_mean == pytest.approx(r2.t_mean, rel=1e-12)
        assert r1.t_median == r2.t_median
        assert r1.t_mape == pytest.approx(r2.t_mape, rel=1e-12)
        assert r1.t_mase == pytest.approx(r2.t_mase, rel=1e-12)

    def test_norm_toggle_bounded(self, rng):
        pairs, preds = random_problem(rng)
        m1 = mape_translation(pairs, preds, "l1")
        m2 = mape_translation(pairs, preds, "l2")
        assert m1 <= math.sqrt(3) * m2 + 1e-12
        assert m2 <= math.sqrt(3) * m1 + 1e-12

    def test_source_pairs_switch_the_baseline(self, rng):
        # passing naive_source_pairs is what fits the baseline on them
        pairs, preds = random_problem(rng, n=20)
        train, _ = random_problem(rng, n=30)
        own = evaluate(pairs, preds, MetricConfig())
        other = evaluate(pairs, preds, MetricConfig(), naive_source_pairs=train)
        assert (own.naive_source, other.naive_source) == ("eval_pairs", "train_pairs")
        assert own.t_mase == mase_translation(pairs, preds, naive_mean_translation(pairs))
        assert other.t_mase == mase_translation(pairs, preds, naive_mean_translation(train))
        assert other.t_mase != own.t_mase

    def test_row_lists_refused(self, rng):
        # sets of pairs and predictions are tables; lists of rows are not converted
        pairs, preds = random_problem(rng, n=4)
        with pytest.raises(AttributeError):
            evaluate(list(pairs), list(preds))
