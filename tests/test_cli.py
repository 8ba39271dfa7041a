"""End-to-end command-line pipeline: exit codes, header echoes, determinism,
and byte-equality with direct library calls."""

import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

from frustoval import FrustumSpec, MetricConfig, OverlapConfig, PairTable, config_digest
from frustoval import dataset, metrics, pairgen
from frustoval.cli import main
from frustoval.pairgen import OverlapBinning

from conftest import FIXTURES

GRID = "4x4x4"
SPEC = FrustumSpec(grid_nx=4, grid_ny=4, grid_nz=4)
FRUSTUM_FLAGS = ["--hfov", "58", "--vfov", "45", "--near", "0.1", "--far", "4.0",
                 "--grid", GRID, "--max-rot", "110"]


@pytest.fixture
def poses_file(tmp_path):
    out = tmp_path / "poses.txt"
    assert main(["synth", "--n-poses", "30", "--extents", "2x2x1", "--max-tilt", "25",
                 "--seed", "7", "--out", str(out)]) == 0
    return out


@pytest.fixture
def pairs_file(tmp_path, poses_file):
    out = tmp_path / "all.pairs"
    rc = main(["pairs", "--poses", str(poses_file), "--min-overlap", "0", "--max-overlap", "1",
               *FRUSTUM_FLAGS, "--threads", "2", "--out", str(out)])
    assert rc == 0
    return out


@pytest.fixture
def pred_file(tmp_path, pairs_file):
    out = tmp_path / "noisy.pred"
    rc = main(["synth", "--pairs", str(pairs_file), "--predictor", "noisy",
               "--sigma-t", "0.05", "--sigma-q", "2", "--seed", "3", "--out", str(out)])
    assert rc == 0
    return out


class TestBasics:
    def test_version_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as e:
            main(["--version"])
        assert e.value.code == 0
        out = capsys.readouterr().out
        assert "frustoval 0.1.0" in out and "v1" in out

    def test_unknown_flag_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as e:
            main(["pairs", "--poses", "x", "--out", "y", "--bogus-flag", "1"])
        assert e.value.code == 1

    def test_unknown_subcommand_is_usage_error(self):
        with pytest.raises(SystemExit) as e:
            main(["frobnicate"])
        assert e.value.code == 1

    def test_missing_input_is_data_error(self, tmp_path, capsys):
        rc = main(["histogram", "--pairs", str(tmp_path / "nope.pairs"),
                   "--out", str(tmp_path / "h.csv")])
        assert rc == 2
        assert "missing input file" in capsys.readouterr().err

    def test_console_script_installed(self):
        proc = subprocess.run([sys.executable, "-m", "frustoval.cli", "--version"],
                              capture_output=True, text=True)
        assert proc.returncode == 0
        assert "frustoval" in proc.stdout


class TestIngest:
    def test_sevenscenes(self, tmp_path, capsys):
        out = tmp_path / "chess.txt"
        rc = main(["ingest", "--format", "sevenscenes",
                   "--input", str(FIXTURES / "sevenscenes" / "chess_mini"),
                   "--split", "train", "--out", str(out)])
        assert rc == 0
        assert len(dataset.read_poses(out)) == 3
        assert "3 train poses" in capsys.readouterr().err

    def test_cambridge(self, tmp_path):
        out = tmp_path / "shop.txt"
        rc = main(["ingest", "--format", "cambridge",
                   "--input", str(FIXTURES / "cambridge" / "ShopMini" / "dataset_test.txt"),
                   "--out", str(out)])
        assert rc == 0
        ps = dataset.read_poses(out)
        assert len(ps) == 2 and ps.split == "test"


class TestPairs:
    def test_header_echoes_all_flags(self, pairs_file):
        text = pairs_file.read_text()
        for needle in ("hfov_deg=58", "vfov_deg=45", "near_m=0.1", "far_m=4",
                       "grid=4x4x4", "max_relative_rotation_deg=110",
                       "min_overlap=0", "max_overlap=1"):
            assert f"# {needle}\n" in text, needle

    def test_byte_equals_library(self, tmp_path, poses_file, pairs_file):
        ps = dataset.read_poses(poses_file)
        cfg = OverlapConfig(frustum=SPEC)
        lib = pairgen.generate_pairs(ps, cfg)
        expected = tmp_path / "lib.pairs"
        dataset.write_pairs(
            expected, lib, cfg, min_overlap=0.0, max_overlap=1.0,
            extra={"poses_scene": ps.scene_name, "poses_split": ps.split, "n_poses": len(ps)},
        )
        assert pairs_file.read_bytes() == expected.read_bytes()

    def test_threads_byte_identical(self, tmp_path, poses_file):
        blobs = []
        for threads in ("1", "5"):
            out = tmp_path / f"t{threads}.pairs"
            main(["pairs", "--poses", str(poses_file), *FRUSTUM_FLAGS,
                  "--threads", threads, "--out", str(out)])
            blobs.append(out.read_bytes())
        assert blobs[0] == blobs[1]

    def test_config_file_merged_under_flags(self, tmp_path, poses_file):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("hfov = 70\nmax_rot = 90\n")
        out = tmp_path / "c.pairs"
        # explicit --hfov wins over the config file; max_rot comes from the file
        rc = main(["pairs", "--poses", str(poses_file), "--hfov", "65",
                   "--grid", GRID, "--config", str(cfgfile), "--out", str(out)])
        assert rc == 0
        header = dataset.read_pairs(out).header
        assert header["hfov_deg"] == "65"
        assert header["max_relative_rotation_deg"] == "90"

    def test_bad_usage_exit_one(self, poses_file, tmp_path):
        rc = main(["pairs", "--poses", str(poses_file), "--min-overlap", "0.9",
                   "--max-overlap", "0.5", "--out", str(tmp_path / "x.pairs")])
        assert rc == 1


class TestPredictAndEval:
    def test_naive_predictions(self, tmp_path, pairs_file):
        out = tmp_path / "naive.pred"
        assert main(["naive", "--pairs", str(pairs_file), "--out", str(out)]) == 0
        data = dataset.read_predictions(out)
        assert data.digest == dataset.read_pairs(pairs_file).digest
        rels = {(p.rel.rotation, p.rel.translation) for p in data.predictions}
        assert len(rels) == 1  # one mean pose for every pair

    def test_eval_report_matches_library(self, tmp_path, pairs_file, pred_file):
        out = tmp_path / "run.report"
        rc = main(["eval", "--pairs", str(pairs_file), "--pred", str(pred_file),
                   "--norm", "l1", "--stats", "mean,median,mape,mase,mapse",
                   "--out", str(out)])
        assert rc == 0
        got = dataset.read_report(out)
        pf = dataset.read_pairs(pairs_file)
        pd = dataset.read_predictions(pred_file)
        want = metrics.evaluate(
            pf.pairs, pd.predictions, MetricConfig(norm="l1"),
            subspace_threshold=pf.min_overlap, include=("mape", "mase", "mapse"),
        )
        assert got["t_mean_m"] == float(dataset.fnum(want.t_mean))
        assert got["t_mase"] == float(dataset.fnum(want.t_mase))
        assert got["r_mape"] is None  # not requested
        assert got["n_pairs"] == want.n_pairs

    def test_digest_mismatch_refused(self, tmp_path, poses_file, pairs_file, pred_file, capsys):
        other_pairs = tmp_path / "other.pairs"
        main(["pairs", "--poses", str(poses_file), "--hfov", "70", "--grid", GRID,
              "--out", str(other_pairs)])
        rc = main(["eval", "--pairs", str(other_pairs), "--pred", str(pred_file),
                   "--out", str(tmp_path / "r.report")])
        assert rc == 2
        assert "digest mismatch" in capsys.readouterr().err

    def test_source_pairs_digest_warning(self, tmp_path, poses_file, pairs_file, pred_file, capsys):
        source = tmp_path / "source.pairs"
        main(["pairs", "--poses", str(poses_file), "--hfov", "70", "--grid", GRID,
              "--out", str(source)])
        capsys.readouterr()
        warning = (f"warning: source pairs digest {dataset.read_pairs(source).digest} differs "
                   f"from eval pairs digest {dataset.read_pairs(pairs_file).digest}\n")
        for argv in (["naive", "--pairs", str(pairs_file)],
                     ["eval", "--pairs", str(pairs_file), "--pred", str(pred_file)]):
            rc = main([*argv, "--source-pairs", str(source), "--out", str(tmp_path / "out")])
            assert rc == 0
            assert capsys.readouterr().err.startswith(warning)

    def test_missing_prediction_key_refused(self, tmp_path, pairs_file, pred_file, capsys):
        pd = dataset.read_predictions(pred_file)
        short = tmp_path / "short.pred"
        dataset.write_predictions(short, pd.predictions[:-1], config_digest=pd.digest)
        rc = main(["eval", "--pairs", str(pairs_file), "--pred", str(short),
                   "--out", str(tmp_path / "r.report")])
        assert rc == 2
        assert "missing" in capsys.readouterr().err

    def test_orphan_prediction_key_refused(self, tmp_path, pairs_file, pred_file, capsys):
        pd = dataset.read_predictions(pred_file)
        t = pd.predictions
        # one more row, a copy of the first under a key no pair holds
        with_stray = PairTable([*t.anchor_ids, "no-such"], [*t.query_ids, "pair"],
                               np.vstack([t.rotations, t.rotations[:1]]),
                               np.vstack([t.translations, t.translations[:1]]))
        padded = tmp_path / "padded.pred"
        dataset.write_predictions(padded, with_stray, config_digest=pd.digest)
        rc = main(["eval", "--pairs", str(pairs_file), "--pred", str(padded),
                   "--out", str(tmp_path / "r.report")])
        assert rc == 2
        assert "absent from the pair file" in capsys.readouterr().err

    def test_report_is_self_describing(self, tmp_path, pairs_file, pred_file):
        # re-running eval with only the report header as configuration
        # reproduces the report byte for byte
        first = tmp_path / "first.report"
        assert main(["eval", "--pairs", str(pairs_file), "--pred", str(pred_file),
                     "--out", str(first)]) == 0
        got = dataset.read_report(first)
        stats = got["statistics"].split(",") + [
            m for m in ("mape", "mase", "mapse", "rmape") if got[f"t_{m}" if m != "rmape" else "r_mape"] is not None
        ]
        second = tmp_path / "second.report"
        assert main(["eval", "--pairs", str(pairs_file), "--pred", str(pred_file),
                     "--norm", got["norm"], "--stats", ",".join(stats),
                     "--gimbal", got["euler_gimbal_policy"],
                     "--subspace-threshold", str(got["subspace_threshold"]),
                     "--out", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()


class TestHistogramAndDiameter:
    def test_histogram_partitions(self, tmp_path, pairs_file):
        out = tmp_path / "h.csv"
        assert main(["histogram", "--pairs", str(pairs_file), "--out", str(out)]) == 0
        kind, header, body = dataset.read_header(out)
        assert kind == "histogram"
        counts = [int(line.split(",")[2]) for line in body]
        assert sum(counts) == len(dataset.read_pairs(pairs_file).pairs)

    def test_diameter_rows(self, tmp_path, pairs_file):
        out = tmp_path / "d.csv"
        assert main(["diameter", "--pairs", str(pairs_file),
                     "--thresholds", "0.2,0.5", "--out", str(out)]) == 0
        kind, header, body = dataset.read_header(out)
        assert kind == "subspace_stats"
        assert len(body) == 2
        pf = dataset.read_pairs(pairs_file)
        want = pairgen.subspace_stats(pf.pairs, 0.2)
        lo = body[0].split(",")
        assert float(lo[0]) == 0.2 and int(lo[1]) == want.count
        assert lo[4] == dataset.fnum(want.diameter)


class TestCurve:
    def test_curve_byte_equals_library(self, tmp_path, poses_file, pairs_file, pred_file):
        out = tmp_path / "curve.csv"
        rc = main(["curve", "--poses", str(poses_file), "--pred", str(pred_file),
                   "--bins", "0.1:0.9:0.1", "--stat", "median", "--norm", "l1",
                   *FRUSTUM_FLAGS, "--threads", "2", "--out", str(out)])
        assert rc == 0
        # rebuild through the library with the same resolved configuration
        ps = dataset.read_poses(poses_file)
        cfg = OverlapConfig(frustum=SPEC)
        binning = OverlapBinning(edges=tuple(round(0.1 + 0.1 * k, 12) for k in range(9)))
        pairs = pairgen.generate_pairs(ps, cfg, binning.edges[0], binning.edges[-1], threads=2)
        preds = dataset.read_predictions(pred_file).predictions
        curve = metrics.error_curve(pairs, preds, binning, stat="median", norm="l1")
        expected = tmp_path / "expected.csv"
        dataset.write_curve(
            expected, curve,
            extra={"config_digest": config_digest(cfg), **dataset.config_header_entries(cfg),
                   **dataset.convention_entries(), "bins": "0.1:0.9:0.1",
                   "poses_scene": ps.scene_name, "n_pairs": len(pairs)},
        )
        assert out.read_bytes() == expected.read_bytes()

    def test_curve_digest_checked(self, tmp_path, poses_file, pred_file):
        rc = main(["curve", "--poses", str(poses_file), "--pred", str(pred_file),
                   "--hfov", "70", "--grid", GRID, "--out", str(tmp_path / "c.csv")])
        assert rc == 2


def _record_lines(path):
    """(lines, 0-based indices of the record lines) of a toolkit file."""
    lines = path.read_text().splitlines()
    return lines, [k for k, ln in enumerate(lines) if not ln.startswith("#")]


def _edit_record(path, k, edit):
    """Apply edit(fields, previous fields) to the k-th record; return its file line number."""
    lines, recs = _record_lines(path)
    i = recs[k]
    fields = lines[i].split()
    lines[i] = " ".join(edit(fields, lines[recs[k - 1]].split() if k else None))
    path.write_text("\n".join(lines) + "\n")
    return i + 1


class TestRecordValidation:
    """Malformed records exit 2 with a message naming the file and line, and
    writers refuse frame ids that their own files could not read back."""

    @staticmethod
    def refused(capsys, argv, path, lineno, needle):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert f"{path}:{lineno}: " in err, err
        assert needle in err, err

    def histogram(self, pairs_file, tmp_path):
        return ["histogram", "--pairs", str(pairs_file), "--out", str(tmp_path / "h.csv")]

    def test_duplicate_pair_key(self, tmp_path, pairs_file, capsys):
        lineno = _edit_record(pairs_file, 5, lambda f, prev: prev)
        self.refused(capsys, self.histogram(pairs_file, tmp_path), pairs_file, lineno, "duplicate pair key")

    def test_unsorted_pair_keys(self, tmp_path, pairs_file, capsys):
        lines, recs = _record_lines(pairs_file)
        lines[recs[3]], lines[recs[4]] = lines[recs[4]], lines[recs[3]]
        pairs_file.write_text("\n".join(lines) + "\n")
        self.refused(capsys, self.histogram(pairs_file, tmp_path), pairs_file, recs[4] + 1, "unsorted pair key")

    def test_self_pair(self, tmp_path, pairs_file, capsys):
        lineno = _edit_record(pairs_file, 7, lambda f, prev: [f[0], f[0], *f[2:]])
        self.refused(capsys, self.histogram(pairs_file, tmp_path), pairs_file, lineno, "two distinct frames")

    def test_overlap_outside_header_window(self, tmp_path, poses_file, capsys):
        narrow = tmp_path / "narrow.pairs"
        assert main(["pairs", "--poses", str(poses_file), "--min-overlap", "0.3", *FRUSTUM_FLAGS,
                     "--out", str(narrow)]) == 0
        # inside [0, 1] but not inside the header's (0.3, 1]
        lineno = _edit_record(narrow, 2, lambda f, prev: [f[0], f[1], "0.25", *f[3:]])
        self.refused(capsys, self.histogram(narrow, tmp_path), narrow, lineno, "outside")

    def test_bad_number(self, tmp_path, pairs_file, capsys):
        lineno = _edit_record(pairs_file, 9, lambda f, prev: [*f[:8], "1.2.3", f[9]])
        self.refused(capsys, self.histogram(pairs_file, tmp_path), pairs_file, lineno, "bad ty value")

    def test_non_finite_number(self, tmp_path, pairs_file, capsys):
        lineno = _edit_record(pairs_file, 11, lambda f, prev: [*f[:3], "nan", *f[4:]])
        self.refused(capsys, self.histogram(pairs_file, tmp_path), pairs_file, lineno, "non-finite qw value")

    def test_overflowing_pose_quaternion(self, tmp_path, poses_file, capsys):
        # 1e200 squared overflows: the row cannot be normalized, not even to zero
        lineno = _edit_record(poses_file, 3, lambda f, prev: [f[0], "1e200", *f[2:]])
        self.refused(capsys, ["pairs", "--poses", str(poses_file), *FRUSTUM_FLAGS,
                              "--out", str(tmp_path / "x.pairs")],
                     poses_file, lineno, "squared norm overflows")

    def test_overflowing_pair_quaternion(self, tmp_path, pairs_file, capsys):
        lineno = _edit_record(pairs_file, 6, lambda f, prev: [*f[:4], "-1e200", *f[5:]])
        self.refused(capsys, self.histogram(pairs_file, tmp_path), pairs_file, lineno,
                     "squared norm overflows")

    def test_overflowing_prediction_quaternion(self, tmp_path, pairs_file, pred_file, capsys):
        lineno = _edit_record(pred_file, 2, lambda f, prev: [*f[:2], "1e200", *f[3:]])
        self.refused(capsys, ["eval", "--pairs", str(pairs_file), "--pred", str(pred_file),
                              "--out", str(tmp_path / "r.report")],
                     pred_file, lineno, "squared norm overflows")

    def test_duplicate_prediction_key(self, tmp_path, pairs_file, pred_file, capsys):
        lineno = _edit_record(pred_file, 4, lambda f, prev: prev)
        self.refused(capsys, ["eval", "--pairs", str(pairs_file), "--pred", str(pred_file),
                              "--out", str(tmp_path / "r.report")],
                     pred_file, lineno, "duplicate prediction key")

    def test_unsorted_prediction_keys(self, tmp_path, pairs_file, pred_file, capsys):
        lines, recs = _record_lines(pred_file)
        lines[recs[0]], lines[recs[-1]] = lines[recs[-1]], lines[recs[0]]
        pred_file.write_text("\n".join(lines) + "\n")
        self.refused(capsys, ["eval", "--pairs", str(pairs_file), "--pred", str(pred_file),
                              "--out", str(tmp_path / "r.report")],
                     pred_file, recs[1] + 1, "unsorted prediction key")

    def test_duplicate_frame_id(self, tmp_path, poses_file, capsys):
        lineno = _edit_record(poses_file, 6, lambda f, prev: [prev[0], *f[1:]])
        self.refused(capsys, ["pairs", "--poses", str(poses_file), *FRUSTUM_FLAGS,
                              "--out", str(tmp_path / "x.pairs")],
                     poses_file, lineno, "duplicate frame id")

    def test_pose_writer_refuses_hash_id(self, tmp_path, poses_file):
        # the record line of id "#" starts with "# ", a header line
        ps = dataset.read_poses(poses_file)
        out = tmp_path / "hash.poses"
        with pytest.raises(ValueError, match="not '#'"):
            dataset.write_poses(out, replace(ps, frame_ids=["#", *ps.frame_ids[1:]]))
        assert not out.exists()

    def test_pair_writer_refuses_bad_ids(self, tmp_path, pairs_file):
        pf = dataset.read_pairs(pairs_file)
        t = pf.pairs
        for bad in ("a b", "#"):
            table = PairTable([bad, *t.anchor_ids[1:]], t.query_ids, t.rotations, t.translations,
                              t.overlaps, t.config_digest)
            out = tmp_path / "bad.pairs"
            with pytest.raises(ValueError, match="frame id"):
                dataset.write_pairs(out, table, pf.cfg, min_overlap=0.0, max_overlap=1.0)
            assert not out.exists()

    def test_prediction_writer_refuses_bad_ids(self, tmp_path, pred_file):
        pd = dataset.read_predictions(pred_file)
        t = pd.predictions
        for bad in ("a\tb", "#"):
            table = PairTable(t.anchor_ids, [bad, *t.query_ids[1:]], t.rotations, t.translations,
                              config_digest=t.config_digest)
            out = tmp_path / "bad.pred"
            with pytest.raises(ValueError, match="frame id"):
                dataset.write_predictions(out, table, config_digest=pd.digest)
            assert not out.exists()

    def test_bad_grid_is_usage_error(self, tmp_path, poses_file, capsys):
        rc = main(["pairs", "--poses", str(poses_file), "--grid", "8x8", "--out", str(tmp_path / "x.pairs")])
        assert rc == 1
        assert "bad --grid '8x8'" in capsys.readouterr().err
