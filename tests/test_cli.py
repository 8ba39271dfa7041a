"""End-to-end command-line pipeline: exit codes, header echoes, determinism,
and byte-equality with direct library calls."""

import json
import re
import shlex
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from frustoval import (FrustumSpec, MetricConfig, OverlapConfig, PairTable, Quaternion, RelativePose,
                       SynthPredictor, config_digest)
from frustoval import dataset, metrics, pairgen, synth
from frustoval.cli import main
from frustoval.pairgen import OverlapBinning

from conftest import FIXTURES, street_poses

GRID = "4x4x4"
SPEC = FrustumSpec(grid_nx=4, grid_ny=4, grid_nz=4)
FRUSTUM_FLAGS = ["--hfov", "58", "--vfov", "45", "--near", "0.1", "--far", "4.0",
                 "--grid", GRID, "--max-rot", "110"]


def peak_rss_mb(*argv, status: int = 0) -> float:
    """Peak RSS, in MB, of `frustoval argv` run in a child process that must exit with `status`."""
    # a process started straight from this one would count this process's
    # pages in its ru_maxrss, so a small launcher starts and measures it
    launcher = ("import os, subprocess, sys; p = subprocess.Popen(sys.argv[1:]); "
                "_, s, ru = os.wait4(p.pid, 0); print(os.waitstatus_to_exitcode(s), ru.ru_maxrss)")
    proc = subprocess.run([sys.executable, "-S", "-c", launcher, sys.executable, "-m", "frustoval.cli", *argv],
                          stdin=subprocess.DEVNULL, capture_output=True, text=True, check=True)
    code, max_rss_kb = map(int, proc.stdout.split())  # ru_maxrss is in kB on Linux
    assert code == status, proc.stderr
    return max_rss_kb / 1024


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

    @pytest.mark.parametrize("argv", [["pairs", "--poses", "p"], ["curve", "--poses", "p", "--pred", "q"]],
                             ids=["pairs", "curve"])
    @pytest.mark.parametrize("threads", ["0", "-2"])
    def test_threads_below_one_is_usage_error(self, tmp_path, capsys, argv, threads):
        with pytest.raises(SystemExit) as e:
            main([*argv, "--threads", threads, "--out", str(tmp_path / "out")])
        assert e.value.code == 1
        assert f"argument --threads: must be a whole number of at least 1, got '{threads}'" in capsys.readouterr().err

    def test_stages_load_no_openssl(self, tmp_path, pairs_file, pred_file, poses_file):
        # hashlib's SHA-256 loads OpenSSL's libcrypto into every process that
        # checks a digest; the digest is computed in Python instead
        stages = [["ingest", "--format", "sevenscenes", "--input", str(FIXTURES / "sevenscenes" / "chess_mini"),
                   "--split", "train", "--out", str(tmp_path / "chess.txt")],
                  ["pairs", "--poses", str(poses_file), *FRUSTUM_FLAGS, "--out", str(tmp_path / "p.pairs")],
                  ["histogram", "--pairs", str(pairs_file), "--out", str(tmp_path / "h.csv")],
                  ["diameter", "--pairs", str(pairs_file), "--out", str(tmp_path / "d.csv")],
                  ["naive", "--pairs", str(pairs_file), "--out", str(tmp_path / "n.pred")],
                  ["eval", "--pairs", str(pairs_file), "--pred", str(pred_file), "--out", str(tmp_path / "r")],
                  ["curve", "--poses", str(poses_file), "--pred", str(pred_file), *FRUSTUM_FLAGS,
                   "--bins", "0:1:0.25", "--out", str(tmp_path / "c.csv")]]
        code = ("import json, sys\nimport numpy\nprint('_hashlib' in sys.modules)\n"
                "from frustoval.cli import main\n"
                "for argv in json.loads(sys.argv[1]):\n    assert main(argv) == 0, argv\n"
                "print('_hashlib' in sys.modules)")
        proc = subprocess.run([sys.executable, "-c", code, json.dumps(stages)], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        by_numpy, by_stages = proc.stdout.split()
        if by_numpy == "True":
            pytest.skip("this numpy imports numpy.random, and with it OpenSSL, on import")
        assert by_stages == "False"

    def test_console_script_installed(self):
        proc = subprocess.run([sys.executable, "-m", "frustoval.cli", "--version"],
                              capture_output=True, text=True)
        assert proc.returncode == 0
        assert "frustoval" in proc.stdout


class TestNonFiniteFlags:
    """A non-finite number in a flag, an overlap threshold outside [0, 1] or
    a zero --constant quaternion is a usage error (exit 1) whose message
    names it, before any output is written."""

    @pytest.mark.parametrize("args, needle", [
        pytest.param(["pairs", "--poses", "{poses}", "--epsilon", "inf"],
                     "boundary_epsilon must be finite and >= 0, got inf", id="pairs --epsilon inf"),
        pytest.param(["pairs", "--poses", "{poses}", "--epsilon", "nan"],
                     "got nan", id="pairs --epsilon nan"),
        pytest.param(["pairs", "--poses", "{poses}", "--far", "inf"],
                     "got near=0.1, far=inf", id="pairs --far inf"),
        pytest.param(["curve", "--poses", "{poses}", "--pred", "{pred}", "--far", "inf"],
                     "far=inf", id="curve --far inf"),
        pytest.param(["histogram", "--pairs", "{pairs}", "--bins", "0,nan,1"],
                     "bad --bins '0,nan,1'", id="histogram --bins 0,nan,1"),
        pytest.param(["histogram", "--pairs", "{pairs}", "--bins", "0:inf:0.1"],
                     "bad --bins '0:inf:0.1'", id="histogram --bins 0:inf:0.1"),
        pytest.param(["synth", "--extents", "nanx1x1"],
                     "got (nan, 1.0, 1.0)", id="synth --extents nanx1x1"),
        pytest.param(["synth", "--pairs", "{pairs}", "--predictor", "noisy", "--sigma-t", "nan"],
                     "sigma_t=nan", id="synth --predictor noisy --sigma-t nan"),
        pytest.param(["synth", "--pairs", "{pairs}", "--predictor", "noisy", "--sigma-q", "inf"],
                     "sigma_q_deg=inf", id="synth --predictor noisy --sigma-q inf"),
        pytest.param(["synth", "--pairs", "{pairs}", "--predictor", "constant", "--constant", "0 0 0 0 0 0 0"],
                     "bad --constant '0 0 0 0 0 0 0': cannot normalize a zero quaternion",
                     id="synth --constant zero quaternion"),
        pytest.param(["synth", "--pairs", "{pairs}", "--predictor", "constant", "--constant", "nan 0 0 0 0 0 0"],
                     "bad --constant 'nan 0 0 0 0 0 0': need 7 finite numbers", id="synth --constant nan"),
        pytest.param(["synth", "--pairs", "{pairs}", "--predictor", "constant", "--constant", "1 0 0 0 inf 0 0"],
                     "bad --constant '1 0 0 0 inf 0 0': need 7 finite numbers", id="synth --constant inf"),
        pytest.param(["diameter", "--pairs", "{pairs}", "--thresholds", "0.2,nan"],
                     "bad --thresholds '0.2,nan'", id="diameter --thresholds 0.2,nan"),
        pytest.param(["diameter", "--pairs", "{pairs}", "--thresholds", "5,-1"],
                     "bad --thresholds '5,-1'", id="diameter --thresholds 5,-1"),
        pytest.param(["eval", "--pairs", "{pairs}", "--pred", "{pred}", "--subspace-threshold", "nan"],
                     "bad --subspace-threshold nan, expected an overlap in [0, 1]",
                     id="eval --subspace-threshold nan"),
        pytest.param(["eval", "--pairs", "{pairs}", "--pred", "{pred}", "--subspace-threshold", "1.5"],
                     "bad --subspace-threshold 1.5, expected an overlap in [0, 1]",
                     id="eval --subspace-threshold 1.5"),
        pytest.param(["eval", "--pairs", "{pairs}", "--pred", "{pred}", "--subspace-threshold", "-0.1"],
                     "bad --subspace-threshold -0.1", id="eval --subspace-threshold -0.1"),
    ])
    def test_refused(self, tmp_path, poses_file, pairs_file, pred_file, capsys, args, needle):
        argv = [a.format(poses=poses_file, pairs=pairs_file, pred=pred_file) for a in args]
        out = tmp_path / "out"
        assert main([*argv, "--out", str(out)]) == 1
        assert needle in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("c", ["1e200", "1e-200", "1e-160", "2e-162"])
    def test_constant_quaternion_beyond_float_range(self, tmp_path, pairs_file, c):
        # its squared norm overflows or underflows float64; the quaternion was
        # written as 0 0 0 0, which eval refused, refused as zero, or written
        # off unit length from a subnormal squared norm
        pred = tmp_path / "c.pred"
        assert main(["synth", "--pairs", str(pairs_file), "--predictor", "constant",
                     "--constant", f"{c} {c} 0 0 0 0 0", "--out", str(pred)]) == 0
        assert np.all(dataset.read_predictions(pred).rotations == [0.707106781, 0.707106781, 0.0, 0.0])
        assert main(["eval", "--pairs", str(pairs_file), "--pred", str(pred),
                     "--out", str(tmp_path / "r.report")]) == 0


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

    def test_sevenscenes_without_pose_files_refused(self, tmp_path, capsys):
        scene = tmp_path / "typo"
        scene.mkdir()
        out = tmp_path / "x.poses"
        rc = main(["ingest", "--format", "sevenscenes", "--input", str(scene), "--out", str(out)])
        assert rc == 2
        assert f"{scene}: no frame-*.pose.txt files for the train split" in capsys.readouterr().err
        assert not out.exists()

    def test_cambridge_without_pose_lines_refused(self, tmp_path, capsys):
        f = tmp_path / "dataset_train.txt"
        f.write_text("Visual Landmark Dataset V1\nImageFile, Camera Position [X Y Z W P Q R]\n\n")
        out = tmp_path / "x.poses"
        rc = main(["ingest", "--format", "cambridge", "--input", str(f), "--out", str(out)])
        assert rc == 2
        assert f"{f}: no pose lines after the three header lines" in capsys.readouterr().err
        assert not out.exists()


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

    def test_memory_bounded_at_20k_outdoor_poses(self, tmp_path):
        # 20,000 street cameras at outdoor density with 1,000 probe points
        # each: a world-space lattice of every pose alone would take 480 MB,
        # while per-pose rotations, planes and corners take about 12 MB
        poses = tmp_path / "street.poses"
        dataset.write_poses(poses, street_poses(20_000))
        assert peak_rss_mb("pairs", "--poses", str(poses), "--far", "30", "--grid", "10x10x10",
                           "--min-overlap", "0.3", "--threads", "2", "--out", str(tmp_path / "street.pairs")) < 200


@pytest.fixture(scope="class")
def pairs_246k(tmp_path_factory):
    """The pair file of 500 poses at a (0, 1] window, 246,426 rows and 30 MB
    of text, written by write_pairs from a synthetic table."""
    n, m = 500, 246_426
    anchors, queries = np.divmod(np.arange(n * n), n)
    distinct = anchors != queries
    anchors, queries = anchors[distinct][:m], queries[distinct][:m]
    rng = np.random.default_rng(5)
    rotations = rng.normal(size=(m, 4))
    rotations /= np.linalg.norm(rotations, axis=1, keepdims=True)
    cfg = OverlapConfig()
    pairs = PairTable([f"seq-01/frame-{k:06d}" for k in range(n)], anchors, queries, rotations,
                      rng.normal(size=(m, 3)), rng.uniform(0.01, 1.0, m), config_digest(cfg))
    out = tmp_path_factory.mktemp("big") / "all.pairs"
    dataset.write_pairs(out, pairs, cfg, min_overlap=0.0, max_overlap=1.0)
    return out


class TestRecordFileMemory:
    def test_memory_bounded_at_246k_pair_rows(self, tmp_path, pairs_246k):
        # a reader holding the whole file, its lines and their id strings, or a
        # writer holding every row as Python objects, took naive, eval and
        # histogram to 154-187 MB; a reader that joined its chunks, and eval's
        # whole-table temporaries, to 82-123 MB; holding each column once and
        # computing per-pair errors a chunk at a time, they take 59-104 MB,
        # most of it numpy and the columns; naive took 70 MB while its table
        # held the mean pose once per pair, 63 MB holding it once; the noisy
        # synth took 104 MB with whole-table temporaries, 72 filling its table
        # a chunk at a time; histogram and the noisy synth, which held the
        # pair table (54 and 72 MB), stream the file and take 33 and 39 MB
        pred = tmp_path / "naive.pred"
        assert peak_rss_mb("naive", "--pairs", str(pairs_246k), "--out", str(pred)) < 97
        assert peak_rss_mb("eval", "--pairs", str(pairs_246k), "--pred", str(pred),
                           "--out", str(tmp_path / "r.report")) < 115
        assert peak_rss_mb("histogram", "--pairs", str(pairs_246k), "--out", str(tmp_path / "h.csv")) < 45
        assert peak_rss_mb("synth", "--pairs", str(pairs_246k), "--predictor", "noisy",
                           "--out", str(tmp_path / "noisy.pred")) < 50

    @staticmethod
    def traced(fn, *args):
        """fn(*args), and the bytes it allocated at its peak and still holds
        when it returns, traced in-process."""
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            out = fn(*args)
            current, peak = tracemalloc.get_traced_memory()
            return out, peak - base, current - base
        finally:
            tracemalloc.stop()

    @staticmethod
    def size(table):
        """The bytes of a table's columns."""
        return sum(c.nbytes for c in (table.anchors, table.queries, table.rotations, table.translations,
                                      table.overlaps) if c is not None)

    def test_memory_bounded_refusing_the_last_of_246k_pair_rows(self, tmp_path, pairs_246k):
        # a refusal read the whole file again to find its line: histogram
        # took 105 MB, and read_pairs 5 times its table traced
        text = pairs_246k.read_bytes()
        last = text.rindex(b"\n", 0, -1) + 1
        fields = text[last:].split()
        spoiled = tmp_path / "nan.pairs"
        spoiled.write_bytes(text[:last] + b" ".join([*fields[:2], b"nan", *fields[3:]]) + b"\n")
        assert peak_rss_mb("histogram", "--pairs", str(spoiled), "--out", str(tmp_path / "h.csv"), status=2) < 45

        def refusal(path):
            with pytest.raises(dataset.FormatError) as e:
                dataset.read_pairs(path)
            return str(e.value)

        message, peak, _ = self.traced(refusal, spoiled)
        lineno = text.count(b"\n")
        assert message == f"{spoiled}:{lineno}: non-finite overlap value 'nan'"
        assert peak < 1.5 * self.size(dataset.read_pairs(pairs_246k).pairs)

    def test_readers_and_metrics_hold_each_table_once(self, tmp_path, pairs_246k):
        # a reader takes its table plus the checks' key columns (it took
        # 2.1-2.2 times the table while it joined its chunks) and keeps the
        # table (a CRLF file kept 1.89 times it while each CR LF counted as two
        # lines); evaluate and error_curve take a few per-pair arrays above
        # their tables (they took 176 and 112 bytes a pair)
        crlf = tmp_path / "crlf.pairs"
        crlf.write_bytes(pairs_246k.read_bytes().replace(b"\n", b"\r\n"))
        for path in (pairs_246k, crlf):
            pf, peak, kept = self.traced(dataset.read_pairs, path)
            assert peak < 1.5 * self.size(pf.pairs) and kept < 1.05 * self.size(pf.pairs), path.name
        pred = tmp_path / "naive.pred"
        dataset.write_predictions(pred, synth.synth_predict(pf.pairs, metrics.naive_predictor(pf.pairs)))
        preds, peak, kept = self.traced(dataset.read_predictions, pred)
        assert peak < 1.5 * self.size(preds) and kept < 1.05 * self.size(preds)
        m = len(pf.pairs)
        assert self.traced(metrics.evaluate, pf.pairs, preds)[1] < 86 * m
        assert self.traced(metrics.error_curve, pf.pairs, preds, OverlapBinning())[1] < 56 * m

    def test_noisy_predictions_a_chunk_at_a_time(self, pairs_246k):
        # the noisy predictor's temporaries are a chunk's; whole-table draws,
        # axes and quaternion products took 192 bytes a pair at their peak
        pairs = dataset.read_pairs(pairs_246k).pairs
        noisy = SynthPredictor(kind="noisy", sigma_t=0.05, sigma_q_deg=2.0, relative_noise=True)
        preds, peak, kept = self.traced(synth.synth_predict, pairs, noisy)
        assert len(preds) == len(pairs) and peak < 80 * len(pairs) and kept < 57 * len(pairs)

    def test_constant_predictions_hold_one_pose(self, pairs_246k):
        # a naive or constant prediction table holds its one pose broadcast
        # to every pair; materialized, it kept 56 bytes a pair
        pairs = dataset.read_pairs(pairs_246k).pairs
        constant = SynthPredictor(kind="constant", constant=RelativePose.identity())
        for make in (lambda: synth.synth_predict(pairs, metrics.naive_predictor(pairs)),
                     lambda: synth.synth_predict(pairs, constant)):
            preds, _, kept = self.traced(make)
            assert len(preds) == len(pairs) and kept < len(pairs)


class TestReadme:
    def test_pipeline_example_runs(self, tmp_path, monkeypatch):
        # the README's command-line chain as written, on 60 poses instead of
        # 500; `ingest` is left out because it reads a dataset from /data
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        block = re.search(r"## Command-line pipeline.*?```sh\n(.*?)```", readme, re.S).group(1)
        commands = [shlex.split(line) for line in block.replace("\\\n", " ").splitlines()
                    if line.strip() and not line.lstrip().startswith("#")]
        assert [argv[0] for argv in commands] == ["frustoval"] * len(commands)
        monkeypatch.chdir(tmp_path)
        ran = []
        for _, *argv in commands:
            if argv[0] == "ingest":
                continue
            if "--n-poses" in argv:
                argv[argv.index("--n-poses") + 1] = "60"
            assert main(argv) == 0, argv
            ran.append(argv[0])
        assert ran[0] == "synth" and ran[-1] == "curve" and len(ran) == 8


class TestPredictAndEval:
    def test_naive_predictions(self, tmp_path, pairs_file):
        out = tmp_path / "naive.pred"
        assert main(["naive", "--pairs", str(pairs_file), "--out", str(out)]) == 0
        preds = dataset.read_predictions(out)
        assert preds.config_digest == dataset.read_pairs(pairs_file).pairs.config_digest
        rels = {(p.rel.rotation, p.rel.translation) for p in preds}
        assert len(rels) == 1  # one mean pose for every pair

    def test_eval_report_matches_library(self, tmp_path, pairs_file, pred_file):
        out = tmp_path / "run.report"
        rc = main(["eval", "--pairs", str(pairs_file), "--pred", str(pred_file),
                   "--norm", "l1", "--stats", "mean,median,mape,mase,mapse",
                   "--out", str(out)])
        assert rc == 0
        got = dataset.read_report(out)
        pf = dataset.read_pairs(pairs_file)
        want = metrics.evaluate(
            pf.pairs, dataset.read_predictions(pred_file), MetricConfig(norm="l1"),
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
        warning = (f"warning: source pairs digest {dataset.read_pairs(source).pairs.config_digest} differs "
                   f"from eval pairs digest {dataset.read_pairs(pairs_file).pairs.config_digest}\n")
        for argv in (["naive", "--pairs", str(pairs_file)],
                     ["eval", "--pairs", str(pairs_file), "--pred", str(pred_file)]):
            rc = main([*argv, "--source-pairs", str(source), "--out", str(tmp_path / "out")])
            assert rc == 0
            assert capsys.readouterr().err.startswith(warning)

    def test_missing_prediction_key_refused(self, tmp_path, pairs_file, pred_file, capsys):
        t = dataset.read_predictions(pred_file)
        short = tmp_path / "short.pred"
        dataset.write_predictions(short, t[:-12])
        rc = main(["eval", "--pairs", str(pairs_file), "--pred", str(short),
                   "--out", str(tmp_path / "r.report")])
        assert rc == 2
        # the first 10 of the 12 keys, in pair order, as a list of tuples
        keys = [tuple(ln.split()[:2]) for ln in pairs_file.read_text().splitlines() if ln[:1] != "#"]
        listed = ", ".join(f"('{a}', '{q}')" for a, q in keys[-12:-2])
        assert capsys.readouterr().err == f"frustoval: error: predictions missing for pair keys: [{listed}]\n"
        assert listed.startswith("('pose-000029', 'pose-000017'), ('pose-000029', 'pose-000018'), ")

    def test_orphan_prediction_key_refused(self, tmp_path, pairs_file, pred_file, capsys):
        t = dataset.read_predictions(pred_file)
        # 12 more rows, copies of the first under keys no pair holds
        stray = [(f"no-such-{k:02d}", "pair") for k in range(12)]
        anchor_ids, query_ids = t.id_columns()
        with_stray = PairTable.from_ids([*anchor_ids, *(a for a, _ in stray)],
                                        [*query_ids, *(q for _, q in stray)],
                                        np.vstack([t.rotations, *[t.rotations[:1]] * 12]),
                                        np.vstack([t.translations, *[t.translations[:1]] * 12]),
                                        config_digest=t.config_digest)
        padded = tmp_path / "padded.pred"
        dataset.write_predictions(padded, with_stray)
        rc = main(["eval", "--pairs", str(pairs_file), "--pred", str(padded),
                   "--out", str(tmp_path / "r.report")])
        assert rc == 2
        listed = ", ".join(f"('no-such-{k:02d}', 'pair')" for k in range(10))
        assert capsys.readouterr().err == ("frustoval: error: predictions reference pair keys absent from "
                                           f"the pair file: [{listed}]\n")

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
        preds = dataset.read_predictions(pred_file)
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


def _key_refusal(problem, kind, path, lineno):
    """The reader's refusal of the record at `lineno`, its key as a tuple."""
    a, q = path.read_text().splitlines()[lineno - 1].split()[:2]
    return (f"{problem} {kind} key ('{a}', '{q}'): records must be sorted by (anchor_id, query_id) "
            "without repeats\n")


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
        self.refused(capsys, self.histogram(pairs_file, tmp_path), pairs_file, lineno,
                     f"{pairs_file}:{lineno}: " + _key_refusal("duplicate", "pair", pairs_file, lineno))

    def test_unsorted_pair_keys(self, tmp_path, pairs_file, capsys):
        lines, recs = _record_lines(pairs_file)
        lines[recs[3]], lines[recs[4]] = lines[recs[4]], lines[recs[3]]
        pairs_file.write_text("\n".join(lines) + "\n")
        lineno = recs[4] + 1
        self.refused(capsys, self.histogram(pairs_file, tmp_path), pairs_file, lineno,
                     f"{pairs_file}:{lineno}: " + _key_refusal("unsorted", "pair", pairs_file, lineno))

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

    # a quaternion whose squared norm overflows, or underflows, float64 reads
    # as Quaternion.unit normalizes it
    BEYOND_RANGE = ("1e200", "1e-200")

    @staticmethod
    def unit(c):
        return Quaternion.unit(float(c), float(c), 0.0, 0.0).as_array().tolist()

    def test_overflowing_pose_quaternion(self, tmp_path, poses_file):
        for c in self.BEYOND_RANGE:
            _edit_record(poses_file, 3, lambda f, prev: [f[0], c, c, "0", "0", *f[5:]])
            assert dataset.read_poses(poses_file).rotations[3].tolist() == self.unit(c)
            assert main(["pairs", "--poses", str(poses_file), *FRUSTUM_FLAGS,
                         "--out", str(tmp_path / "x.pairs")]) == 0

    def test_unknown_split(self, tmp_path, poses_file, capsys):
        lines = poses_file.read_text().splitlines()
        k = next(k for k, ln in enumerate(lines) if ln.startswith("# split="))
        lines[k] = "# split=val"
        poses_file.write_text("\n".join(lines) + "\n")
        self.refused(capsys, ["pairs", "--poses", str(poses_file), *FRUSTUM_FLAGS,
                              "--out", str(tmp_path / "x.pairs")],
                     poses_file, k + 1, "split must be 'train' or 'test', got 'val'")

    @staticmethod
    def set_header(path, key, value):
        """Set header entry `key` to `value`, or drop it for None; return its file line number."""
        lines = path.read_text().splitlines()
        k = next(k for k, ln in enumerate(lines) if ln.startswith(f"# {key}="))
        lines[k:k + 1] = [] if value is None else [f"# {key}={value}"]
        path.write_text("\n".join(lines) + "\n")
        return k + 1

    @pytest.mark.parametrize("key, value", [("boundary_epsilon_m", "inf"), ("far_m", "inf"), ("hfov_deg", "nan"),
                                            ("max_relative_rotation_deg", "nan"), ("min_overlap", "nan"),
                                            ("max_overlap", "inf")])
    def test_non_finite_header_value(self, tmp_path, pairs_file, capsys, key, value):
        self.set_header(pairs_file, key, value)
        assert main(self.histogram(pairs_file, tmp_path)) == 2
        err = capsys.readouterr().err
        assert f"{pairs_file}: " in err and value in err, err

    def test_unreadable_header_number(self, tmp_path, pairs_file, capsys):
        lineno = self.set_header(pairs_file, "min_overlap", "abc")
        self.refused(capsys, self.histogram(pairs_file, tmp_path), pairs_file, lineno,
                     "bad min_overlap value 'abc'")

    def test_unreadable_record_count(self, tmp_path, poses_file, capsys):
        lineno = self.set_header(poses_file, "count", "x")
        self.refused(capsys, ["pairs", "--poses", str(poses_file), *FRUSTUM_FLAGS,
                              "--out", str(tmp_path / "x.pairs")],
                     poses_file, lineno, "bad count value 'x'")

    def test_header_configuration_refused(self, tmp_path, pairs_file, capsys):
        # the check involves near and far together, so no one line is named
        self.set_header(pairs_file, "near_m", "-1")
        assert main(self.histogram(pairs_file, tmp_path)) == 2
        assert f"{pairs_file}: require 0 < near < far" in capsys.readouterr().err

    def test_missing_configuration_entry(self, tmp_path, pairs_file, capsys):
        self.set_header(pairs_file, "grid", None)
        assert main(self.histogram(pairs_file, tmp_path)) == 2
        assert f"{pairs_file}: header is missing configuration key 'grid'" in capsys.readouterr().err

    def test_overflowing_pair_quaternion(self, tmp_path, pairs_file):
        for c in self.BEYOND_RANGE:
            _edit_record(pairs_file, 6, lambda f, prev: [*f[:3], c, c, "0", "0", *f[7:]])
            assert dataset.read_pairs(pairs_file).pairs.rotations[6].tolist() == self.unit(c)
            assert main(self.histogram(pairs_file, tmp_path)) == 0

    def test_overflowing_prediction_quaternion(self, tmp_path, pairs_file, pred_file):
        for c in self.BEYOND_RANGE:
            _edit_record(pred_file, 2, lambda f, prev: [*f[:2], c, c, "0", "0", *f[6:]])
            assert dataset.read_predictions(pred_file).rotations[2].tolist() == self.unit(c)
            assert main(["eval", "--pairs", str(pairs_file), "--pred", str(pred_file),
                         "--out", str(tmp_path / "r.report")]) == 0

    def test_duplicate_prediction_key(self, tmp_path, pairs_file, pred_file, capsys):
        lineno = _edit_record(pred_file, 4, lambda f, prev: prev)
        self.refused(capsys, ["eval", "--pairs", str(pairs_file), "--pred", str(pred_file),
                              "--out", str(tmp_path / "r.report")],
                     pred_file, lineno, _key_refusal("duplicate", "prediction", pred_file, lineno))

    def test_unsorted_prediction_keys(self, tmp_path, pairs_file, pred_file, capsys):
        lines, recs = _record_lines(pred_file)
        lines[recs[0]], lines[recs[-1]] = lines[recs[-1]], lines[recs[0]]
        pred_file.write_text("\n".join(lines) + "\n")
        self.refused(capsys, ["eval", "--pairs", str(pairs_file), "--pred", str(pred_file),
                              "--out", str(tmp_path / "r.report")],
                     pred_file, recs[1] + 1, _key_refusal("unsorted", "prediction", pred_file, recs[1] + 1))

    def test_hash_query_id_in_prediction_file(self, tmp_path, pairs_file, pred_file, capsys):
        # the writers refuse the id "#"; so do the readers, in either id column
        lineno = _edit_record(pred_file, 3, lambda f, prev: [f[0], "#", *f[2:]])
        self.refused(capsys, ["eval", "--pairs", str(pairs_file), "--pred", str(pred_file),
                              "--out", str(tmp_path / "r.report")],
                     pred_file, lineno, "frame id '#' must be non-empty, whitespace-free and not '#'\n")
        assert not (tmp_path / "r.report").exists()

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
            anchor_ids, query_ids = t.id_columns()
            table = PairTable.from_ids([bad, *anchor_ids[1:]], query_ids, t.rotations, t.translations,
                                       t.overlaps, t.config_digest)
            out = tmp_path / "bad.pairs"
            with pytest.raises(ValueError, match="frame id"):
                dataset.write_pairs(out, table, pf.cfg, min_overlap=0.0, max_overlap=1.0)
            assert not out.exists()

    def test_prediction_writer_refuses_bad_ids(self, tmp_path, pred_file):
        t = dataset.read_predictions(pred_file)
        for bad in ("a\tb", "#"):
            anchor_ids, query_ids = t.id_columns()
            table = PairTable.from_ids(anchor_ids, [bad, *query_ids[1:]], t.rotations, t.translations,
                                       config_digest=t.config_digest)
            out = tmp_path / "bad.pred"
            with pytest.raises(ValueError, match="frame id"):
                dataset.write_predictions(out, table)
            assert not out.exists()

    def test_writers_refuse_a_zero_quaternion(self, tmp_path, poses_file, pairs_file, pred_file):
        # as their readers do; -0 is a zero too
        def zeroed(q):
            q = q.copy()
            q[1] = [-0.0, 0.0, 0.0, 0.0]
            return q

        ps, pf = dataset.read_poses(poses_file), dataset.read_pairs(pairs_file)
        pairs, preds = pf.pairs, dataset.read_predictions(pred_file)
        writes = {
            "a.poses": lambda out: dataset.write_poses(out, replace(ps, rotations=zeroed(ps.rotations))),
            "a.pairs": lambda out: dataset.write_pairs(
                out, PairTable(pairs.frame_ids, pairs.anchors, pairs.queries, zeroed(pairs.rotations),
                               pairs.translations, pairs.overlaps, pairs.config_digest),
                pf.cfg, min_overlap=0.0, max_overlap=1.0),
            "a.pred": lambda out: dataset.write_predictions(
                out, PairTable(preds.frame_ids, preds.anchors, preds.queries, zeroed(preds.rotations),
                               preds.translations, config_digest=preds.config_digest)),
        }
        for name, write in writes.items():
            with pytest.raises(ValueError, match="^zero quaternion cannot be normalized$"):
                write(tmp_path / name)
            assert not (tmp_path / name).exists()

    def test_pair_window_checked_as_the_header_prints_it(self, tmp_path, capsys):
        # --min-overlap 0.29999999999 prints as 0.3, and pairs of overlap 0.3
        # lie outside the header's window: no reader would take the file
        poses, out = tmp_path / "w.poses", tmp_path / "w.pairs"
        assert main(["synth", "--n-poses", "60", "--seed", "2", "--out", str(poses)]) == 0
        assert main(["pairs", "--poses", str(poses), "--grid", "10x10x10", "--min-overlap", "0.29999999999",
                     "--out", str(out)]) == 2
        assert "overlap 0.3 outside the header's (0.3, 1]\n" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_grid_is_usage_error(self, tmp_path, poses_file, capsys):
        rc = main(["pairs", "--poses", str(poses_file), "--grid", "8x8", "--out", str(tmp_path / "x.pairs")])
        assert rc == 1
        assert "bad --grid '8x8'" in capsys.readouterr().err
