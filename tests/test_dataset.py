"""Parsers and the canonical file formats: round trips, digests, error paths."""

import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from frustoval import (
    FrustumSpec,
    OverlapConfig,
    Pose,
    Quaternion,
    Translation,
    config_digest,
    parse_cambridge,
    parse_sevenscenes,
    rotation_error,
)
from frustoval import dataset
from frustoval.dataset import (
    DigestMismatchError,
    FormatError,
    PairTable,
    ParseError,
    PoseSet,
    fnum,
    round9_array,
)

from conftest import FIXTURES, pose_rows, pose_set, random_pose, random_quat

CHESS_MINI = FIXTURES / "sevenscenes" / "chess_mini"
SHOP_MINI = FIXTURES / "cambridge" / "ShopMini"


def random_pairs(rng, n, digest="0" * 16, lo=0.05, hi=1.0):
    q, t, overlaps = [], [], []
    for _ in range(n):
        q.append(random_quat(rng).as_array())
        t.append(rng.normal(size=3))
        overlaps.append(rng.uniform(lo, hi))
    return PairTable.from_ids([f"a-{i:04d}" for i in range(n)], [f"b-{i:04d}" for i in range(n)],
                              round9_array(q), round9_array(t), round9_array(overlaps), digest)


def random_predictions(rng, n, digest=""):
    rows = [(random_quat(rng).as_array(), rng.normal(size=3)) for _ in range(n)]
    return PairTable.from_ids([f"a-{i}" for i in range(n)], [f"b-{i}" for i in range(n)],
                              [q for q, _ in rows], [t for _, t in rows], config_digest=digest)


class TestNumberFormat:
    def test_nine_significant_digits(self):
        assert fnum(1 / 3) == "0.333333333"
        assert fnum(0.1) == "0.1"
        assert fnum(4.0) == "4"
        assert fnum(1e-9) == "1e-09"
        assert fnum(-0.0) == "0"

    def test_round_trip_stable(self, rng):
        for _ in range(1000):
            x = float(rng.normal() * 10.0 ** rng.integers(-9, 9))
            assert fnum(float(fnum(x))) == fnum(x)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            fnum(math.inf)

    def test_record_format_equals_fnum(self):
        # the record writers print a number as "%.9g" % (x + 0.0)
        rng = np.random.default_rng(9)
        n = 200_000
        x = rng.uniform(1.0, 10.0, n) * 10.0 ** rng.integers(-30, 31, n) * rng.choice([-1.0, 1.0], n)
        tiny = rng.uniform(-1.0, 1.0, 1000) * sys.float_info.min  # subnormals
        edge = [0.0, -0.0, 5e-324, -5e-324, sys.float_info.min, sys.float_info.max, -sys.float_info.max]
        x = np.concatenate([x, tiny, edge])
        assert ["%.9g" % v for v in (x + 0.0).tolist()] == [fnum(v) for v in x.tolist()]

    def test_record_writers_refuse_non_finite(self, tmp_path, rng):
        cfg = OverlapConfig()
        pairs = random_pairs(rng, 3, config_digest(cfg))
        preds = random_predictions(rng, 3)
        poses = PoseSet("s", "train", ["a", "b", "c"], preds.rotations, preds.translations)
        out = tmp_path / "bad.txt"

        def spoiled(table, c, bad):
            v = np.hstack([table.rotations, table.translations])
            v[1, c] = bad
            return v[:, :4], v[:, 4:]

        for bad in (math.nan, math.inf, -math.inf):
            for c in range(7):
                q, t = spoiled(poses, c, bad)
                with pytest.raises(ValueError):
                    dataset.write_poses(out, replace(poses, rotations=q, translations=t))
                q, t = spoiled(pairs, c, bad)
                with pytest.raises(ValueError):
                    dataset.write_pairs(out, PairTable(pairs.frame_ids, pairs.anchors, pairs.queries, q, t,
                                                       pairs.overlaps, pairs.config_digest),
                                        cfg, min_overlap=0.0, max_overlap=1.0)
                q, t = spoiled(preds, c, bad)
                with pytest.raises(ValueError):
                    dataset.write_predictions(out, PairTable(preds.frame_ids, preds.anchors, preds.queries,
                                                             q, t), config_digest="")
            overlaps = pairs.overlaps.copy()
            overlaps[1] = bad
            with pytest.raises(ValueError):
                dataset.write_pairs(out, PairTable(pairs.frame_ids, pairs.anchors, pairs.queries,
                                                   pairs.rotations, pairs.translations, overlaps,
                                                   pairs.config_digest),
                                    cfg, min_overlap=0.0, max_overlap=1.0)
        assert not out.exists()


class TestSevenScenes:
    def test_split_counts(self):
        train = parse_sevenscenes(CHESS_MINI, split="train")
        test = parse_sevenscenes(CHESS_MINI, split="test")
        assert len(train) == 3
        assert len(test) == 2
        assert train.split == "train" and test.split == "test"
        assert train.scene_name == "chess_mini"

    def test_identity_matrix(self):
        ps = parse_sevenscenes(CHESS_MINI, split="train")
        p = pose_rows(ps)[0]
        assert p.frame_id == "seq-01/frame-000000"
        assert rotation_error(p.rotation, Quaternion.identity()) == 0.0
        np.testing.assert_array_equal(p.translation.as_array(), [0, 0, 0])

    def test_translation_column(self):
        ps = parse_sevenscenes(CHESS_MINI, split="train")
        np.testing.assert_array_equal(ps.translations[1], [1, 2, 3])

    def test_noisy_rotation_orthonormalized(self):
        # frame-000002 carries a 3-decimal, slightly non-orthogonal 90deg-about-z block
        ps = parse_sevenscenes(CHESS_MINI, split="train")
        q = pose_rows(ps)[2].rotation
        assert abs(q.norm() - 1.0) < 1e-8
        assert rotation_error(q, Quaternion.from_axis_angle((0, 0, 1), 90)) < 0.05

    def test_flat_directory(self):
        ps = parse_sevenscenes(CHESS_MINI / "seq-01", split="train")
        assert len(ps) == 3
        assert ps.frame_ids[0] == "frame-000000"

    def test_malformed_matrix_names_file(self, tmp_path):
        bad = tmp_path / "frame-000000.pose.txt"
        bad.write_text("1 0 0\n0 1 0\n")
        with pytest.raises(ParseError, match="frame-000000"):
            parse_sevenscenes(tmp_path)

    def test_non_finite_rejected(self, tmp_path):
        bad = tmp_path / "frame-000000.pose.txt"
        bad.write_text("1 0 0 0\n0 1 0 nan\n0 0 1 0\n0 0 0 1\n")
        with pytest.raises(ParseError, match="non-finite"):
            parse_sevenscenes(tmp_path)

    def test_non_orthogonal_rejected(self, tmp_path):
        bad = tmp_path / "frame-000000.pose.txt"
        bad.write_text("1 0.5 0 0\n0 1 0 0\n0 0 1 0\n0 0 0 1\n")
        with pytest.raises(ParseError, match="orthogonal"):
            parse_sevenscenes(tmp_path)

    def test_collect_errors_accounts_for_every_file(self, tmp_path):
        # a good matrix, then an unreadable file; a bad matrix, then an
        # unreadable file: one message per bad file, in file order
        good, bad_matrix = "1 0 0 0\n0 1 0 0\n0 0 1 0\n0 0 0 1\n", "1 0 0 0\n0 1 0 0\n0 0 1 0\n0 0 0 2\n"
        for first, want in ((good, ["frame-000001.pose.txt: non-numeric"]),
                            (bad_matrix, ["frame-000000.pose.txt: bottom row [0.0, 0.0, 0.0, 2.0]",
                                          "frame-000001.pose.txt: non-numeric"])):
            scene = tmp_path / str(len(want))
            scene.mkdir()
            (scene / "frame-000000.pose.txt").write_text(first)
            (scene / "frame-000001.pose.txt").write_text("garbage\n")
            errors = []
            ps = parse_sevenscenes(scene, collect_errors=errors)
            assert len(ps) + len(errors) == 2
            assert len(errors) == len(want)
            assert [e.startswith(f"{scene}/{w}") for e, w in zip(errors, want)] == [True] * len(want), errors


class TestCambridge:
    def test_counts_and_split_inference(self):
        train = parse_cambridge(SHOP_MINI / "dataset_train.txt")
        test = parse_cambridge(SHOP_MINI / "dataset_test.txt")
        assert len(train) == 3 and train.split == "train"
        assert len(test) == 2 and test.split == "test"
        assert train.scene_name == "ShopMini"

    def test_identity_line(self):
        ps = parse_cambridge(SHOP_MINI / "dataset_train.txt")
        p = pose_rows(ps)[0]
        assert rotation_error(p.rotation, Quaternion.identity()) == 0.0
        np.testing.assert_array_equal(p.translation.as_array(), [0, 0, 0])

    def test_world_to_camera_conjugated(self):
        # file line: 45 deg about y as world-to-camera; stored pose must be its inverse
        ps = parse_cambridge(SHOP_MINI / "dataset_train.txt")
        p = pose_rows(ps)[1]
        expected = Quaternion.from_axis_angle((0, 1, 0), -45)
        # 9-digit storage gives rotation_error a ~1e-3 deg acos noise floor
        assert rotation_error(p.rotation, expected) < 0.01
        np.testing.assert_allclose(p.translation.as_array(), [1.5, -2.0, 0.5])

    def test_non_unit_quaternion_warns(self, tmp_path):
        f = tmp_path / "dataset_train.txt"
        f.write_text("h\nh\nh\nim.png 0 0 0 1.01 0 0 0\n")
        with pytest.warns(UserWarning, match="unit norm"):
            ps = parse_cambridge(f)
        assert abs(pose_rows(ps)[0].rotation.norm() - 1.0) < 1e-8

    def test_non_finite_rejected(self, tmp_path):
        f = tmp_path / "dataset_train.txt"
        f.write_text("h\nh\nh\nim.png 0 inf 0 1 0 0 0\n")
        with pytest.raises(ParseError, match="non-finite"):
            parse_cambridge(f)

    def test_bad_lines_reported_in_line_order(self, tmp_path):
        f = tmp_path / "dataset_train.txt"
        f.write_text("h\nh\nh\nok.png 0 0 0 1 0 0 0\nzero.png 0 0 0 0 0 0 0\nshort.png 1 2\n"
                     "nan.png 0 nan 0 1 0 0 0\ntext.png 0 0 x 1 0 0 0\n")
        with pytest.raises(ParseError, match=r"dataset_train\.txt:5: zero quaternion"):
            parse_cambridge(f)
        errors = []
        ps = parse_cambridge(f, collect_errors=errors)
        assert ps.frame_ids == ["ok"]
        assert [e.split(f"{f}:", 1)[1] for e in errors] == [
            "5: zero quaternion", "6: expected 'path x y z w p q r', got 3 fields",
            "7: non-finite pose entry", "8: non-numeric pose entry"]

    def test_round_trip_identical_poseset(self, tmp_path):
        ps = parse_cambridge(SHOP_MINI / "dataset_train.txt")
        out = tmp_path / "poses.txt"
        dataset.write_poses(out, ps)
        again = dataset.read_poses(out)
        assert again == ps
        out2 = tmp_path / "poses2.txt"
        dataset.write_poses(out2, again)
        assert out.read_bytes() == out2.read_bytes()


class TestPoseSerialization:
    def test_empty_poseset(self, tmp_path):
        ps = PoseSet("empty", "train", [], [], [])
        f = tmp_path / "p.txt"
        dataset.write_poses(f, ps)
        back = dataset.read_poses(f)
        assert back == ps
        assert len(back) == 0

    def test_version_line_checked(self, tmp_path):
        f = tmp_path / "p.txt"
        f.write_text("# frustoval-format v999\n# kind=poses\n")
        with pytest.raises(FormatError, match="frustoval v1"):
            dataset.read_poses(f)

    def test_count_mismatch_detected(self, tmp_path):
        ps = pose_set("s", "train", [Pose(Quaternion.identity(), Translation.zero(), "f0")])
        f = tmp_path / "p.txt"
        dataset.write_poses(f, ps)
        truncated = "\n".join(f.read_text().splitlines()[:-1]) + "\n"
        f.write_text(truncated)
        with pytest.raises(FormatError, match="records"):
            dataset.read_poses(f)

    def test_records_sorted_by_id(self, tmp_path, rng):
        poses = [random_pose(rng, frame_id=f"f-{i}") for i in (3, 1, 2)]
        ps = pose_set("s", "train", poses)
        f = tmp_path / "p.txt"
        dataset.write_poses(f, ps)
        ids = dataset.read_poses(f).frame_ids
        assert ids == sorted(ids)

    def test_duplicate_frame_ids_rejected(self):
        p = Pose(Quaternion.identity(), Translation.zero(), "same")
        with pytest.raises(ValueError, match="unique"):
            pose_set("s", "train", [p, p])


class TestPairSerialization:
    def test_round_trip_byte_exact_twice(self, tmp_path, rng):
        cfg = OverlapConfig()
        pairs = random_pairs(rng, 100, digest=config_digest(cfg))
        f1, f2 = tmp_path / "a.pairs", tmp_path / "b.pairs"
        dataset.write_pairs(f1, pairs, cfg, min_overlap=0.0, max_overlap=1.0)
        data = dataset.read_pairs(f1)
        dataset.write_pairs(f2, data.pairs, cfg, min_overlap=0.0, max_overlap=1.0)
        assert f1.read_bytes() == f2.read_bytes()
        again = dataset.read_pairs(f2)
        assert again.pairs == pairs

    def test_header_reconstructs_config(self, tmp_path, rng):
        cfg = OverlapConfig(
            frustum=FrustumSpec(hfov_deg=70, vfov_deg=50, near=0.2, far=6.0,
                                grid_nx=4, grid_ny=6, grid_nz=8, boundary_epsilon=1e-6),
            max_relative_rotation_deg=95.0,
            symmetric=True,
        )
        f = tmp_path / "a.pairs"
        dataset.write_pairs(f, random_pairs(rng, 5, config_digest(cfg), lo=0.15, hi=0.9), cfg,
                            min_overlap=0.1, max_overlap=0.9)
        data = dataset.read_pairs(f)
        assert data.cfg == cfg
        assert data.min_overlap == 0.1 and data.max_overlap == 0.9

    def test_tampered_header_refused(self, tmp_path, rng):
        cfg = OverlapConfig()
        f = tmp_path / "a.pairs"
        dataset.write_pairs(f, random_pairs(rng, 3, config_digest(cfg)), cfg,
                            min_overlap=0.0, max_overlap=1.0)
        text = f.read_text().replace("# hfov_deg=58", "# hfov_deg=60")
        f.write_text(text)
        with pytest.raises(FormatError, match="digest"):
            dataset.read_pairs(f)

    def test_digest_disagreement_refused_at_write(self, tmp_path, rng):
        cfg = OverlapConfig()
        pairs = random_pairs(rng, 3, digest="deadbeefdeadbeef")
        with pytest.raises(ValueError, match="digest"):
            dataset.write_pairs(tmp_path / "a.pairs", pairs, cfg, min_overlap=0.0, max_overlap=1.0)

    def test_out_of_range_overlap_refused(self, tmp_path, rng):
        cfg = OverlapConfig()
        pairs = random_pairs(rng, 3, config_digest(cfg))
        with pytest.raises(ValueError, match="overlap"):
            dataset.write_pairs(tmp_path / "a.pairs", pairs, cfg, min_overlap=0.99, max_overlap=1.0)

    @pytest.mark.parametrize("lo, hi", [(-0.1, 1.0), (0.0, 1.5), (0.5, 0.5), (0.6, 0.4), (float("nan"), 1.0)])
    def test_window_outside_unit_interval_refused(self, tmp_path, lo, hi):
        # refused at write time, even with no pairs to check it against, and
        # refused in a header written by hand
        cfg = OverlapConfig()
        empty = PairTable.from_ids([], [], np.empty((0, 4)), np.empty((0, 3)), np.empty(0), config_digest(cfg))
        f = tmp_path / "a.pairs"
        with pytest.raises(ValueError, match="min_overlap < max_overlap"):
            dataset.write_pairs(f, empty, cfg, min_overlap=lo, max_overlap=hi)
        assert not f.exists()
        dataset.write_pairs(f, empty, cfg, min_overlap=0.0, max_overlap=1.0)
        text = f.read_text().replace("# min_overlap=0\n", f"# min_overlap={lo}\n")
        f.write_text(text.replace("# max_overlap=1\n", f"# max_overlap={hi}\n"))
        with pytest.raises(FormatError, match="min_overlap < max_overlap"):
            dataset.read_pairs(f)

    def test_self_pair_rejected(self, tmp_path):
        cfg = OverlapConfig()
        pairs = PairTable.from_ids(["x"], ["x"], [[1, 0, 0, 0]], [[0, 0, 0]], [0.5], config_digest(cfg))
        with pytest.raises(ValueError, match="distinct"):
            dataset.write_pairs(tmp_path / "a.pairs", pairs, cfg, min_overlap=0.0, max_overlap=1.0)


class TestPredictionSerialization:
    def test_round_trip(self, tmp_path, rng):
        preds = random_predictions(rng, 20)
        f = tmp_path / "p.pred"
        dataset.write_predictions(f, preds, config_digest="abc", predictor="external")
        data = dataset.read_predictions(f)
        assert data.digest == "abc"
        assert len(data.predictions) == 20
        f2 = tmp_path / "p2.pred"
        dataset.write_predictions(f2, data.predictions, config_digest="abc", predictor="external")
        assert f.read_bytes() == f2.read_bytes()

    def test_duplicate_keys_rejected(self, tmp_path):
        p = PairTable.from_ids(["a", "a"], ["b", "b"], [[1, 0, 0, 0]] * 2, [[0, 0, 0]] * 2)
        with pytest.raises(ValueError) as e:
            dataset.write_predictions(tmp_path / "never-written.pred", p, config_digest="x")
        assert str(e.value) == "duplicate prediction keys: [('a', 'b')]"
        # each repeated key once, in key order, at most 5 of them
        cfg = OverlapConfig()
        anchors = [f"a{k % 7}" for k in range(14)]
        pairs = PairTable.from_ids(anchors, ["b"] * 14, [[1, 0, 0, 0]] * 14, [[0, 0, 0]] * 14,
                                   [0.5] * 14, config_digest(cfg))
        with pytest.raises(ValueError) as e:
            dataset.write_pairs(tmp_path / "never-written.pairs", pairs, cfg, min_overlap=0.0,
                                max_overlap=1.0)
        assert str(e.value) == ("duplicate pair keys: [('a0', 'b'), ('a1', 'b'), ('a2', 'b'), "
                                "('a3', 'b'), ('a4', 'b')]")
        assert not list(tmp_path.iterdir())

    def test_digest_mismatch_check(self):
        with pytest.raises(DigestMismatchError, match="mismatch"):
            dataset.check_digest_match("aaaa", "bbbb")


class TestPairTableSelection:
    def test_mask_index_array_and_slice_select_the_same_rows(self, rng):
        pairs = random_pairs(rng, 30, digest="d")
        for rows in (np.arange(4, 20, 3), np.flatnonzero(pairs.overlaps > 0.5)):
            mask = np.zeros(len(pairs), dtype=bool)
            mask[rows] = True
            anchor_ids, query_ids = pairs.id_columns(rows)
            want = PairTable.from_ids(anchor_ids, query_ids, pairs.rotations[rows],
                                      pairs.translations[rows], pairs.overlaps[rows], "d")
            assert pairs[mask] == want
            assert pairs[rows] == want
            assert pairs[rows.tolist()] == want
        assert pairs[4:20:3] == pairs[np.arange(4, 20, 3)]
        assert pairs[pairs.overlaps > 2.0] == pairs[:0]
        assert len(pairs[:0]) == 0

    def test_selection_keeps_digest_and_kind(self, rng):
        pairs = random_pairs(rng, 10, digest="d")
        preds = random_predictions(rng, 10, digest="d")
        for sel in (slice(2, 7), np.arange(3), np.arange(10) % 2 == 0):
            assert pairs[sel].config_digest == "d" and pairs[sel].is_pairs
            assert preds[sel].config_digest == "d" and preds[sel].overlaps is None

    def test_index_array_rows_come_back_sorted(self, rng):
        pairs = random_pairs(rng, 12)
        assert pairs[np.arange(12)[::-1]] == pairs
        assert pairs[[5, 1]] == pairs[[1, 5]]

    def test_bare_integer_is_refused(self, rng):
        pairs = random_pairs(rng, 5)
        for k in (0, -1, np.int64(2)):
            with pytest.raises(TypeError):
                pairs[k]
        with pytest.raises(IndexError):
            pairs[np.ones(4, dtype=bool)]

    def test_iteration_yields_read_only_rows(self, rng):
        pairs = random_pairs(rng, 3, digest="d")
        preds = random_predictions(rng, 3)
        rows = list(pairs)
        assert [r.key for r in rows] == pairs.id_pairs(slice(None))
        assert [r.overlap for r in rows] == pairs.overlaps.tolist()
        assert [r.rel.translation.as_array().tolist() for r in rows] == pairs.translations.tolist()
        assert all(r.config_digest == "d" for r in rows)
        assert [r.overlap for r in preds] == [None] * 3
        with pytest.raises(AttributeError):
            rows[0].overlap = 0.5

    def test_tables_never_equal_lists(self, rng):
        pairs = random_pairs(rng, 3)
        assert pairs != list(pairs)
        assert pairs[:0] != []


class TestConfigDigest:
    def test_changes_on_every_field(self):
        base = OverlapConfig()
        d0 = config_digest(base)
        variants = [
            OverlapConfig(frustum=replace(base.frustum, hfov_deg=59)),
            OverlapConfig(frustum=replace(base.frustum, vfov_deg=46)),
            OverlapConfig(frustum=replace(base.frustum, near=0.2)),
            OverlapConfig(frustum=replace(base.frustum, far=5.0)),
            OverlapConfig(frustum=replace(base.frustum, grid_nx=9)),
            OverlapConfig(frustum=replace(base.frustum, grid_ny=9)),
            OverlapConfig(frustum=replace(base.frustum, grid_nz=9)),
            OverlapConfig(frustum=replace(base.frustum, boundary_epsilon=1e-8)),
            OverlapConfig(max_relative_rotation_deg=100.0),
            OverlapConfig(symmetric=True),
        ]
        digests = [config_digest(v) for v in variants]
        assert d0 not in digests
        assert len(set(digests)) == len(digests)

    def test_stable_across_runs(self):
        assert config_digest(OverlapConfig()) == config_digest(OverlapConfig())

    def test_convention_change_changes_digest(self, monkeypatch):
        before = config_digest(OverlapConfig())
        monkeypatch.setattr(dataset, "RELATIVE_CONVENTION", "inverse(query)*anchor")
        assert config_digest(OverlapConfig()) != before


class TestReportSerialization:
    def test_round_trip_with_undefined(self, tmp_path):
        items = {"n_pairs": 10, "t_mean_m": 0.25, "t_mase": None, "norm": "l1", "flag": True}
        f = tmp_path / "r.report"
        dataset.write_report(f, items)
        back = dataset.read_report(f)
        for k, v in items.items():
            assert back[k] == v or (v is None and back[k] is None)


class TestRecordParsing:
    def test_float_syntax_beyond_loadtxt_refused(self, tmp_path, rng):
        # digit separators and non-ASCII digits are read by Python's float()
        # but not by numpy.loadtxt, so a record holding one is refused
        cfg = OverlapConfig()
        f = tmp_path / "a.pairs"
        dataset.write_pairs(f, random_pairs(rng, 4, config_digest(cfg)), cfg,
                            min_overlap=0.0, max_overlap=1.0)
        lines = f.read_text().splitlines()
        fields = lines[-1].split()
        for tok in ("1_000.25", "\u0661\u0662"):
            fields[7] = tok
            f.write_text("\n".join([*lines[:-1], " ".join(fields)]) + "\n")
            with pytest.raises(FormatError) as e:
                dataset.read_pairs(f)
            assert str(e.value) == f"{f}:{len(lines)}: bad tx value {tok!r}"

    def test_non_unit_quaternion_normalized_like_scalar_path(self, tmp_path):
        f = tmp_path / "p.pred"
        f.write_text("# frustoval-format v1\n# kind=predictions\n# count=3\n"
                     "a b 2 0 0 0 1 2 3\n"
                     "a c -0.5 0.5 -0.5 0.5 0 0 0\n"
                     "b a 0 -3 4 0 0 0 0\n")
        got = dataset.read_predictions(f).predictions
        want = [Quaternion(2, 0, 0, 0).normalized(), Quaternion(-0.5, 0.5, -0.5, 0.5).normalized(),
                Quaternion(0, -3, 4, 0).normalized()]
        assert [p.rel.rotation for p in got] == want

    def test_zero_quaternion_names_line(self, tmp_path):
        f = tmp_path / "p.pred"
        f.write_text("# frustoval-format v1\n# kind=predictions\n# count=2\n"
                     "a b 1 0 0 0 1 2 3\n"
                     "a c 0 0 0 0 1 2 3\n")
        with pytest.raises(FormatError, match=r"p\.pred:5: zero quaternion"):
            dataset.read_predictions(f)


def _rewrite(path, lines):
    path.write_text("\n".join(lines) + "\n")


def _first_record(lines) -> int:
    return next(i for i, ln in enumerate(lines) if not ln.startswith("# "))


class TestRecordReader:
    """One read and one parse per file; the line of a refusal is looked up
    only when a check fails."""

    def test_refusals_named_at_first_middle_and_last_record(self, tmp_path, rng):
        cfg = OverlapConfig()
        f = tmp_path / "big.pairs"
        dataset.write_pairs(f, random_pairs(rng, 5000, config_digest(cfg)), cfg,
                            min_overlap=0.0, max_overlap=1.0)
        lines = f.read_text().splitlines()
        first = _first_record(lines)
        spoils = (
            (lambda t: [*t[:6], "0.5x", *t[7:]], "bad qz value '0.5x'"),
            (lambda t: t[:-1], "pair record needs 10 fields, got 9"),
            (lambda t: [*t, "1"], "pair record needs 10 fields, got 11"),
        )
        for i in (first, first + 2500, len(lines) - 1):
            for spoil, want in spoils:
                _rewrite(f, [*lines[:i], " ".join(spoil(lines[i].split())), *lines[i + 1:]])
                with pytest.raises(FormatError) as e:
                    dataset.read_pairs(f)
                assert str(e.value).startswith(f"{f}:{i + 1}: {want}"), (i, str(e.value))

    def test_first_of_two_refused_lines_named(self, tmp_path, rng):
        f = tmp_path / "p.pred"
        dataset.write_predictions(f, random_predictions(rng, 40), config_digest="")
        lines = f.read_text().splitlines()
        i = _first_record(lines) + 7
        lines[i + 20] += " 1"
        lines[i] = " ".join([*lines[i].split()[:-1], "1.2.3"])
        _rewrite(f, lines)
        with pytest.raises(FormatError, match=rf"p\.pred:{i + 1}: bad tz value '1\.2\.3'"):
            dataset.read_predictions(f)

    def test_blank_lines_skipped_and_later_lines_still_named(self, tmp_path, rng):
        f = tmp_path / "p.pred"
        preds = random_predictions(rng, 8)
        dataset.write_predictions(f, preds, config_digest="d")
        lines = f.read_text().splitlines()
        first = _first_record(lines)
        spaced = [*lines[:first + 1], "", "  \t", *lines[first + 1:first + 4], "", *lines[first + 4:], ""]
        _rewrite(f, spaced)
        got = dataset.read_predictions(f).predictions
        assert [r.key for r in got] == [r.key for r in preds]
        np.testing.assert_array_equal(got.translations, round9_array(preds.translations))
        # the 6th record now repeats the 5th; three blank lines come before it
        dup = first + 5 + 3
        spaced[dup] = spaced[dup - 1]
        _rewrite(f, spaced)
        with pytest.raises(FormatError, match=rf"p\.pred:{dup + 1}: duplicate prediction key"):
            dataset.read_predictions(f)

    def test_header_line_after_a_record_refused(self, tmp_path, rng):
        cfg = OverlapConfig()
        f = tmp_path / "a.pairs"
        dataset.write_pairs(f, random_pairs(rng, 6, config_digest(cfg)), cfg,
                            min_overlap=0.0, max_overlap=1.0)
        lines = f.read_text().splitlines()
        i = _first_record(lines) + 2
        # a header entry, then a "# " line with as many fields as a record
        for late in ("# note=late", "# b-9999 0.5 1 0 0 0 0 0 0"):
            _rewrite(f, [*lines[:i], late, *lines[i:]])
            with pytest.raises(FormatError, match=rf"a\.pairs:{i + 1}: header line .*after the first record"):
                dataset.read_pairs(f)
        h = tmp_path / "h.csv"
        dataset.write_histogram(h, [0.0, 0.5, 1.0], [3, 4])
        rows = h.read_text().splitlines()
        _rewrite(h, [*rows, "# note=late"])
        with pytest.raises(FormatError, match=rf"h\.csv:{len(rows) + 1}: header line '# note=late' after the first record"):
            dataset.read_header(h)

    def test_empty_record_files_read_as_zero_rows(self, tmp_path):
        cfg = OverlapConfig()
        pairs = PairTable([], [], [], np.empty((0, 4)), np.empty((0, 3)), np.empty(0), config_digest(cfg))
        fp, fq = tmp_path / "a.pairs", tmp_path / "a.pred"
        dataset.write_pairs(fp, pairs, cfg, min_overlap=0.0, max_overlap=1.0)
        dataset.write_predictions(fq, pairs[:0], config_digest=pairs.config_digest)
        for f in (fp, fq):
            f.write_text(f.read_text() + "\n  \n")  # blank lines only after the header
        assert dataset.read_pairs(fp).pairs == pairs
        got = dataset.read_predictions(fq).predictions
        assert len(got) == 0 and got.rotations.shape == (0, 4) and got.translations.shape == (0, 3)

    def test_a_refusal_reads_the_file_once(self, tmp_path, rng, monkeypatch):
        cfg = OverlapConfig()
        f = tmp_path / "a.pairs"
        dataset.write_pairs(f, random_pairs(rng, 30, config_digest(cfg)), cfg,
                            min_overlap=0.0, max_overlap=1.0)
        lines = f.read_text().splitlines()
        i = _first_record(lines) + 11
        count = next(k for k, ln in enumerate(lines) if ln.startswith("# count="))
        t = lines[i].split()
        spoiled = (
            [*lines[:i], " ".join([*t[:3], "0.5x", *t[4:]]), *lines[i + 1:]],  # bad number
            [*lines[:i], " ".join(t[:-1]), *lines[i + 1:]],  # wrong field count
            [*lines[:i], " ".join([*t[:3], "nan", *t[4:]]), *lines[i + 1:]],  # non-finite
            [*lines[:i], lines[i - 1], *lines[i + 1:]],  # duplicate key
            [*lines[:count], "# count=x", *lines[count + 1:]],  # unreadable header entry
        )
        reads = []
        read_text = Path.read_text
        monkeypatch.setattr(Path, "read_text", lambda self, *a, **k: reads.append(self) or read_text(self, *a, **k))
        for text in spoiled:
            _rewrite(f, text)
            reads.clear()
            with pytest.raises(FormatError, match=r"a\.pairs:\d+: "):
                dataset.read_pairs(f)
            assert reads == [f]
