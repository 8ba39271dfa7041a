"""Parsers and the canonical file formats: round trips, digests, error paths."""

import gc
import hashlib
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
from frustoval import dataset, geometry
from frustoval.dataset import (
    DigestMismatchError,
    FormatError,
    PairTable,
    ParseError,
    PoseSet,
    fnum,
    round9_array,
)
from frustoval.cli import main
from frustoval.pairgen import OverlapBinning, bin_histogram

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
                                                             q, t))
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

    def test_first_bad_file_named_in_file_order(self, tmp_path):
        # a good matrix, then an unreadable file; a bad matrix (found after
        # every file is read), then an unreadable file: the first bad file
        # in file order is named
        good, bad_matrix = "1 0 0 0\n0 1 0 0\n0 0 1 0\n0 0 0 1\n", "1 0 0 0\n0 1 0 0\n0 0 1 0\n0 0 0 2\n"
        for k, (first, want) in enumerate(((good, "frame-000001.pose.txt: non-numeric"),
                                           (bad_matrix, "frame-000000.pose.txt: bottom row [0.0, 0.0, 0.0, 2.0]"))):
            scene = tmp_path / str(k)
            scene.mkdir()
            (scene / "frame-000000.pose.txt").write_text(first)
            (scene / "frame-000001.pose.txt").write_text("garbage\n")
            with pytest.raises(ParseError) as e:
                parse_sevenscenes(scene)
            assert str(e.value).startswith(f"{scene}/{want}"), e.value


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
        # each kind of bad line first in turn, the others after it: each line
        # is checked as it is read, so the first bad one is named
        f = tmp_path / "dataset_train.txt"
        bad = ["zero.png 0 0 0 0 0 0 0", "short.png 1 2", "nan.png 0 nan 0 1 0 0 0", "text.png 0 0 x 1 0 0 0"]
        why = ["zero quaternion", "expected 'path x y z w p q r', got 3 fields", "non-finite pose entry",
               "non-numeric pose entry"]
        for k in range(len(bad)):
            f.write_text("h\nh\nh\nok.png 0 0 0 1 0 0 0\n" + "".join(ln + "\n" for ln in bad[k:] + bad[:k]))
            with pytest.raises(ParseError) as e:
                parse_cambridge(f)
            assert str(e.value) == f"{f}:5: {why[k]}"

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
        preds = random_predictions(rng, 20, digest="abc")
        f = tmp_path / "p.pred"
        dataset.write_predictions(f, preds, predictor="external")
        got = dataset.read_predictions(f)
        assert got.config_digest == "abc"
        assert len(got) == 20
        f2 = tmp_path / "p2.pred"
        dataset.write_predictions(f2, got, predictor="external")
        assert f.read_bytes() == f2.read_bytes()

    def test_duplicate_keys_rejected(self, tmp_path):
        p = PairTable.from_ids(["a", "a"], ["b", "b"], [[1, 0, 0, 0]] * 2, [[0, 0, 0]] * 2)
        with pytest.raises(ValueError) as e:
            dataset.write_predictions(tmp_path / "never-written.pred", p)
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

    def test_sha256_matches_hashlib(self):
        # lengths 0-200 cross the padding edges at 55, 56 and 64 bytes
        data = bytes(range(256))
        for n in range(201):
            assert dataset._sha256_hex(data[:n]) == hashlib.sha256(data[:n]).hexdigest(), n

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
        got = dataset.read_predictions(f)
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
        dataset.write_predictions(f, random_predictions(rng, 40))
        lines = f.read_text().splitlines()
        i = _first_record(lines) + 7
        lines[i + 20] += " 1"
        lines[i] = " ".join([*lines[i].split()[:-1], "1.2.3"])
        _rewrite(f, lines)
        with pytest.raises(FormatError, match=rf"p\.pred:{i + 1}: bad tz value '1\.2\.3'"):
            dataset.read_predictions(f)

    def test_blank_lines_skipped_and_later_lines_still_named(self, tmp_path, rng):
        f = tmp_path / "p.pred"
        preds = random_predictions(rng, 8, digest="d")
        dataset.write_predictions(f, preds)
        lines = f.read_text().splitlines()
        first = _first_record(lines)
        spaced = [*lines[:first + 1], "", "  \t", *lines[first + 1:first + 4], "", *lines[first + 4:], ""]
        _rewrite(f, spaced)
        got = dataset.read_predictions(f)
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
        dataset.write_predictions(fq, pairs[:0])
        for f in (fp, fq):
            f.write_text(f.read_text() + "\n  \n")  # blank lines only after the header
        assert dataset.read_pairs(fp).pairs == pairs
        got = dataset.read_predictions(fq)
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


def _earlier_key(t, earlier):
    """The record's numbers under the key of a record before it."""
    return [*earlier[:2], *t[2:]]


class TestChunkBoundaries:
    """Records are parsed a chunk of lines at a time. A refusal past the first
    chunk, after blank lines, keeps its message and names its line, whether the
    refused line ends the first chunk, starts the second or sits inside it. A
    pair file is refused alike by read_pairs and by the commands that stream
    it a chunk at a time, `synth --pairs` and `histogram`."""

    @staticmethod
    def refusals(f, tmp_path, capsys) -> list:
        """The refusal of the pair file `f` by read_pairs, `synth --pairs` and
        `histogram`. Each command exits 2 and leaves no output file."""
        with pytest.raises(FormatError) as e:
            dataset.read_pairs(f)
        got = [str(e.value)]
        for argv in (["synth", "--pairs", str(f), "--predictor", "noisy", "--sigma-t", "0.1", "--sigma-q", "1"],
                     ["histogram", "--pairs", str(f)]):
            assert main([*argv, "--out", str(tmp_path / "out")]) == 2, argv
            assert list(tmp_path.glob("out*")) == [], argv
            err = capsys.readouterr().err
            assert err.startswith("frustoval: error: ") and err.endswith("\n"), err
            got.append(err[len("frustoval: error: "):-1])
        return got

    BLANKS = ["", "  \t", ""]
    OFFSETS = ("last of the first chunk", "first of the second chunk", "inside the second chunk")

    @staticmethod
    def offset(where) -> int:
        """Line offset of the refused line from the first record line."""
        n = dataset._CHUNK_ROWS
        return {"last of the first chunk": n - 1, "first of the second chunk": n,
                "inside the second chunk": n + n // 2}[where]

    def spoil(self, f, lines, where, edit):
        """Put the blank lines before the record at `where` and replace that
        record by edit(fields, fields of the record two before); return the
        refused line's number and its new text."""
        i = _first_record(lines) + self.offset(where) - len(self.BLANKS)
        new = edit(lines[i].split(), lines[i - 2].split())
        new = new if isinstance(new, str) else " ".join(new)
        _rewrite(f, [*lines[:i], *self.BLANKS, new, *lines[i + 1:]])
        return i + len(self.BLANKS) + 1, new

    def pair_file(self, tmp_path, lo=0.0):
        cfg = OverlapConfig()
        f = tmp_path / "a.pairs"
        pairs = random_pairs(np.random.default_rng(7), 2 * dataset._CHUNK_ROWS + 50, config_digest(cfg),
                             lo=max(lo, 0.05))
        dataset.write_pairs(f, pairs, cfg, min_overlap=lo, max_overlap=1.0)
        return f, f.read_text().splitlines()

    PAIR_SPOILS = {
        "bad field": (lambda t, _: [*t[:6], "0.5x", *t[7:]], lambda t: "bad qz value '0.5x'"),
        "field count": (lambda t, _: t[:-1], lambda t: f"pair record needs 10 fields, got 9: {' '.join(t)!r}"),
        "non-finite": (lambda t, _: [*t[:3], "inf", *t[4:]], lambda t: "non-finite qw value 'inf'"),
        "late header": (lambda t, _: "# note=late", lambda t: "header line '# note=late' after the first record"),
        "late header with record fields": (
            lambda t, _: "# b-9999 0.5 1 0 0 0 0 0 0",
            lambda t: "header line '# b-9999 0.5 1 0 0 0 0 0 0' after the first record"),
        "unsorted key": (_earlier_key, lambda t: f"unsorted pair key ('{t[0]}', '{t[1]}'): records must be sorted "
                                              "by (anchor_id, query_id) without repeats"),
        "self pair": (lambda t, _: [t[0], t[0], *t[2:]], lambda t: f"pair must join two distinct frames, "
                                                                   f"got '{t[0]}' twice"),
        "hash query id": (lambda t, _: [t[0], "#", *t[2:]],
                          lambda t: "frame id '#' must be non-empty, whitespace-free and not '#'"),
        "zero quaternion": (lambda t, _: [*t[:3], "0", "0", "0", "0", *t[7:]],
                            lambda t: "zero quaternion cannot be normalized"),
        "overflowing quaternion": (lambda t, _: [*t[:3], "1e200", *t[4:]],
                                   lambda t: "quaternion's squared norm overflows"),
    }

    @pytest.mark.parametrize("where", OFFSETS)
    @pytest.mark.parametrize("spoil", PAIR_SPOILS)
    def test_pair_refusal(self, tmp_path, capsys, spoil, where):
        f, lines = self.pair_file(tmp_path)
        edit, message = self.PAIR_SPOILS[spoil]
        lineno, new = self.spoil(f, lines, where, edit)
        assert self.refusals(f, tmp_path, capsys) == [f"{f}:{lineno}: {message(new.split())}"] * 3

    @pytest.mark.parametrize("where", OFFSETS)
    def test_duplicate_key(self, tmp_path, capsys, where):
        f, lines = self.pair_file(tmp_path)
        i = _first_record(lines) + self.offset(where) - len(self.BLANKS)
        _rewrite(f, [*lines[:i], *self.BLANKS, lines[i - 1], *lines[i + 1:]])
        a, q = lines[i - 1].split()[:2]
        assert self.refusals(f, tmp_path, capsys) == [
            f"{f}:{i + len(self.BLANKS) + 1}: duplicate pair key ('{a}', '{q}'): "
            "records must be sorted by (anchor_id, query_id) without repeats"] * 3

    @pytest.mark.parametrize("where", OFFSETS)
    def test_overlap_outside_the_window(self, tmp_path, capsys, where):
        f, lines = self.pair_file(tmp_path, lo=0.3)
        lineno, _ = self.spoil(f, lines, where, lambda t, _: [*t[:2], "0.25", *t[3:]])
        assert self.refusals(f, tmp_path, capsys) == [f"{f}:{lineno}: overlap 0.25 outside the header's (0.3, 1]"] * 3

    @pytest.mark.parametrize("where", OFFSETS)
    def test_duplicate_frame_id(self, tmp_path, where):
        f = tmp_path / "p.poses"
        n = 2 * dataset._CHUNK_ROWS + 50
        rng = np.random.default_rng(3)
        dataset.write_poses(f, PoseSet("s", "train", [f"f{k:05d}" for k in range(n)],
                                       geometry.normalize_quat_rows(rng.normal(size=(n, 4))),
                                       rng.normal(size=(n, 3))))
        lineno, new = self.spoil(f, f.read_text().splitlines(), where, lambda t, prev: [prev[0], *t[1:]])
        with pytest.raises(FormatError) as e:
            dataset.read_poses(f)
        assert str(e.value) == f"{f}:{lineno}: duplicate frame id '{new.split()[0]}'"

    @pytest.mark.parametrize("where", OFFSETS)
    def test_count_mismatch(self, tmp_path, capsys, where):
        f, lines = self.pair_file(tmp_path)
        i = _first_record(lines) + self.offset(where) - len(self.BLANKS)
        _rewrite(f, [*lines[:i], *self.BLANKS, *lines[i + 1:]])
        n = len(lines) - _first_record(lines)
        assert self.refusals(f, tmp_path, capsys) == [f"{f}: header declares {n} records, found {n - 1}"] * 3

    def test_digest_mismatch(self, tmp_path, capsys):
        f, lines = self.pair_file(tmp_path)
        digest = next(ln for ln in lines if ln.startswith("# config_digest="))[len("# config_digest="):]
        _rewrite(f, ["# hfov_deg=70" if ln.startswith("# hfov_deg=") else ln for ln in lines])
        assert self.refusals(f, tmp_path, capsys) == [
            f"{f}: stored config_digest {digest} does not match the header configuration"] * 3

    def test_unreadable_line_in_a_later_chunk_named_before_an_earlier_non_finite(self, tmp_path, capsys):
        # as for a file parsed whole: a line np.loadtxt refuses comes first
        f, lines = self.pair_file(tmp_path)
        first = _first_record(lines)
        lines[first + 2] = " ".join([*lines[first + 2].split()[:3], "nan", *lines[first + 2].split()[4:]])
        lineno, _ = self.spoil(f, lines, "inside the second chunk", lambda t, _: [*t[:7], "1.2.3", *t[8:]])
        assert self.refusals(f, tmp_path, capsys) == [f"{f}:{lineno}: bad tx value '1.2.3'"] * 3

    @classmethod
    def defect(cls, name, lines, i):
        """Put the defect `name` into `lines` at the record line `i`, or into
        the header for "digest"."""
        t = lines[i].split()
        if name == "digest":
            lines[next(k for k, ln in enumerate(lines) if ln.startswith("# hfov_deg="))] = "# hfov_deg=70"
        elif name == "count":
            del lines[i]
        elif name == "overlap":
            lines[i] = " ".join([*t[:2], "0.25", *t[3:]])
        else:
            lines[i] = " ".join(cls.PAIR_SPOILS[name][0](t, lines[i - 2].split()))

    @pytest.mark.parametrize("early, late, wins", [
        # a header defect waits for the record defects a whole-file reader raises first
        ("digest", "non-finite", "late"), ("digest", "count", "late"), ("self pair", "digest", "late"),
        # a later record's defect of a kind checked first wins over an earlier record's
        ("unsorted key", "self pair", "late"), ("zero quaternion", "overlap", "late"),
        ("non-finite", "bad field", "late"), ("self pair", "unsorted key", "early"),
    ])
    def test_refusal_precedence_across_chunks(self, tmp_path, capsys, early, late, wins):
        f, lines = self.pair_file(tmp_path, lo=0.3)
        rows = {"early": _first_record(lines) + 5, "late": _first_record(lines) + dataset._CHUNK_ROWS + 7}
        names = {"early": early, "late": late}

        def spoil(*which):
            spoiled = list(lines)
            for when in sorted(which, key=rows.get, reverse=True):  # a deleted line moves no other
                self.defect(names[when], spoiled, rows[when])
            _rewrite(f, spoiled)

        spoil(wins)
        with pytest.raises(FormatError) as e:
            dataset.read_pairs(f)
        spoil("early", "late")
        assert self.refusals(f, tmp_path, capsys) == [str(e.value)] * 3

    def test_file_refused_before_the_command_s_own_error(self, tmp_path, capsys):
        # whole-file readers refused the file before parsing --bins or
        # --constant, or binning the overlaps; a stream reads on first
        f, lines = self.pair_file(tmp_path, lo=0.3)
        lineno, _ = self.spoil(f, lines, "inside the second chunk", lambda t, _: [*t[:3], "0", "0", "0", "0", *t[7:]])
        want = f"frustoval: error: {f}:{lineno}: zero quaternion cannot be normalized\n"
        for argv in (["histogram", "--pairs", str(f), "--bins", "0,nan,1"],
                     ["histogram", "--pairs", str(f), "--bins", "0.5:1:0.1"],
                     ["synth", "--pairs", str(f), "--predictor", "constant", "--constant", "0 0 0 0 0 0 0"],
                     ["synth", "--pairs", str(f), "--predictor", "noisy", "--sigma-t", "nan"]):
            assert main([*argv, "--out", str(tmp_path / "out")]) == 2, argv
            assert capsys.readouterr().err == want
            assert list(tmp_path.glob("out*")) == []

    def test_abandoned_stream_closes_its_file(self, tmp_path):
        # an open file left to the garbage collector warns, which fails the suite
        f, _ = self.pair_file(tmp_path)
        chunks = dataset.stream_pairs(f)
        head = next(chunks)
        assert len(head.pairs) == 0 and head.pairs.config_digest == config_digest(head.cfg)
        assert [len(next(chunks)) for _ in range(2)] == [dataset._CHUNK_ROWS] * 2
        del chunks
        gc.collect()
        chunks = dataset.stream_pairs(f)
        next(chunks)
        with pytest.raises(ValueError, match="outside binning range"):
            with dataset.refusals_first(chunks):
                for chunk in chunks:
                    bin_histogram(chunk, OverlapBinning((0.5, 1.0)))
        assert next(chunks, None) is None  # read to its end

    @pytest.mark.parametrize("chunk", [1, 3, 64])
    def test_chunk_size_changes_no_byte_and_no_table(self, tmp_path, monkeypatch, chunk):
        f, _ = self.pair_file(tmp_path)
        pairs = dataset.read_pairs(f).pairs
        preds = random_predictions(np.random.default_rng(2), 200, digest="d")
        g = tmp_path / "a.pred"
        dataset.write_predictions(g, preds)
        preds = dataset.read_predictions(g)
        monkeypatch.setattr(dataset, "_CHUNK_ROWS", chunk)
        assert dataset.read_pairs(f).pairs == pairs
        assert dataset.read_predictions(g) == preds
        for write, path, table, kw in ((dataset.write_pairs, f, pairs, dict(cfg=OverlapConfig(), min_overlap=0.0,
                                                                           max_overlap=1.0)),
                                       (dataset.write_predictions, g, preds, {})):
            again = tmp_path / ("again" + path.suffix)
            write(again, table, **kw)
            assert again.read_bytes() == path.read_bytes()

    @staticmethod
    def scramble(f):
        """Rewrite some quaternions of a record file off the canonical form:
        doubled, on the w < 0 hemisphere, or off unit norm by less than the
        parse slack. Return the file's lines and the rows that must be
        normalized."""
        lines = f.read_text().splitlines()
        first = _first_record(lines)
        q0 = len(lines[first].split()) - 7  # the first quaternion field
        redo = []
        for k in range(len(lines) - first):
            t = lines[first + k].split()
            q = [float(v) for v in t[q0:q0 + 4]]
            if k % 97 == 5:
                q, _ = [2 * v for v in q], redo.append(k)
            elif k % 89 == 7:
                q, _ = [-v for v in q], redo.append(k)
            elif k % 83 == 3:
                q = [v * (1 + 2e-9) for v in q]
            lines[first + k] = " ".join([*t[:q0], *(format(v, ".17g") for v in q), *t[q0 + 4:]])
        _rewrite(f, lines)
        return lines, redo

    @staticmethod
    def parsed(lines, redo):
        """The quaternion and translation rows of the records, normalized where `redo` says."""
        values = np.array([[float(v) for v in ln.split()[-7:]] for ln in lines[_first_record(lines):]])
        q = values[:, :4].copy()
        q[redo] = geometry.normalize_quat_rows(q[redo])
        return q, values[:, 4:]

    @pytest.mark.parametrize("chunk", [1, 3, 1024])
    def test_chunk_size_changes_no_parsed_table(self, tmp_path, monkeypatch, chunk):
        # rows that need normalizing sit in every chunk; the others are kept verbatim
        monkeypatch.setattr(dataset, "_CHUNK_ROWS", chunk)
        n = 2 * 1024 + 50
        rng = np.random.default_rng(4)
        cfg = OverlapConfig()
        f, g, h = tmp_path / "a.pairs", tmp_path / "a.pred", tmp_path / "a.poses"
        pairs = random_pairs(rng, n, config_digest(cfg))
        dataset.write_pairs(f, pairs, cfg, min_overlap=0.0, max_overlap=1.0)
        dataset.write_predictions(g, random_predictions(rng, n, digest="d"))
        dataset.write_poses(h, PoseSet("s", "train", [f"f{k:05d}" for k in range(n)],
                                       geometry.normalize_quat_rows(rng.normal(size=(n, 4))),
                                       rng.normal(size=(n, 3))))
        got = dataset.read_pairs(f).pairs
        lines, redo = self.scramble(f)
        q, t = self.parsed(lines, redo)
        assert dataset.read_pairs(f).pairs == PairTable(got.frame_ids, got.anchors, got.queries, q, t,
                                                        got.overlaps, got.config_digest)
        got = dataset.read_predictions(g)
        lines, redo = self.scramble(g)
        q, t = self.parsed(lines, redo)
        assert dataset.read_predictions(g) == PairTable(got.frame_ids, got.anchors, got.queries, q, t)
        got = dataset.read_poses(h)
        lines, redo = self.scramble(h)
        q, t = self.parsed(lines, redo)
        assert dataset.read_poses(h) == PoseSet("s", "train", got.frame_ids, q, t)

    @pytest.mark.parametrize("newline", ["\r\n", "\r"])
    def test_line_ends_read_as_newlines(self, tmp_path, monkeypatch, newline):
        # a file iterates into lines at CR and CRLF too; its columns are made
        # long enough for every such line
        monkeypatch.setattr(dataset, "_CHUNK_ROWS", 3)
        f, _ = self.pair_file(tmp_path)
        pairs = dataset.read_pairs(f).pairs
        f.write_bytes(f.read_bytes().replace(b"\n", newline.encode()))
        assert dataset.read_pairs(f).pairs == pairs
