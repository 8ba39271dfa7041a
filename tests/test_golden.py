"""The committed golden corpus: every artifact kind, regenerated byte for byte.

tests/fixtures/golden/ holds a 12-pose synthetic scene and every file the CLI
chain makes from it: ordered and symmetric unordered pair files, histogram,
diameter table, naive and noisy predictions, three reports and an error
curve. Regenerating them with the commands below must reproduce each file
exactly; any change to parsing, formatting or arithmetic shows up here.
"""

import pytest

from frustoval import (
    OverlapBinning,
    OverlapConfig,
    Pose,
    Quaternion,
    SynthPredictor,
    Translation,
    bin_histogram,
    combined_loss,
    dataset,
    error_curve,
    evaluate,
    generate_pairs,
    naive_predictor,
    subspace_stats,
    synth_predict,
)
from frustoval.cli import main

from conftest import FIXTURES

GOLDEN = FIXTURES / "golden"

# (output, argv) in chain order; {d} is the output directory
CHAIN = [
    ("poses.txt", "synth --n-poses 12 --extents 3x2x1 --max-tilt 25 --seed 5"),
    ("ordered.pairs", "pairs --poses {d}/poses.txt --threads 1"),
    ("unordered.pairs", "pairs --poses {d}/poses.txt --symmetric --unordered --min-overlap 0.1 --threads 1"),
    ("hist.csv", "histogram --pairs {d}/ordered.pairs --bins 0:1:0.1"),
    ("diam.csv", "diameter --pairs {d}/ordered.pairs --thresholds 0.2,0.4,0.6,0.8,0.9"),
    ("naive.pred", "naive --pairs {d}/ordered.pairs"),
    ("noisy.pred", "synth --pairs {d}/ordered.pairs --predictor noisy --sigma-t 0.05 --sigma-q 2 --seed 3"),
    ("naive.report", "eval --pairs {d}/ordered.pairs --pred {d}/naive.pred"),
    ("noisy.report", "eval --pairs {d}/ordered.pairs --pred {d}/noisy.pred"),
    ("curve.csv", "curve --poses {d}/poses.txt --pred {d}/noisy.pred --bins 0.1:0.9:0.1 --threads 1"),
    ("unordered.pred", "synth --pairs {d}/unordered.pairs --predictor noisy --sigma-t 0.1 --sigma-q 3 "
                       "--relative-noise --seed 4"),
    ("unordered.report", "eval --pairs {d}/unordered.pairs --pred {d}/unordered.pred --norm l2"),
]


def run_chain(out):
    for name, argv in CHAIN:
        assert main([*argv.format(d=out).split(), "--out", str(out / name)]) == 0, argv


def test_corpus_is_complete():
    assert sorted(p.name for p in GOLDEN.iterdir()) == sorted(name for name, _ in CHAIN)


def test_corpus_regenerates_byte_for_byte(tmp_path):
    run_chain(tmp_path)
    for name, _ in CHAIN:
        assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes(), name


def test_chain_builds_no_row_objects(tmp_path, monkeypatch):
    # the pipeline works on PoseSet and PairTable columns; a Pose or
    # PairRecord built anywhere on the way from pose file to metric, in the
    # CLI or through the library API, fails the run
    def refuse(self, *args, **kwargs):
        raise AssertionError(f"{type(self).__name__} built on the pipeline path")

    monkeypatch.setattr(dataset.PairRecord, "__init__", refuse)
    monkeypatch.setattr(Pose, "__init__", refuse)
    with pytest.raises(AssertionError):
        dataset.PairRecord("a", "b", 0.5, None, "")
    with pytest.raises(AssertionError):
        Pose(Quaternion.identity(), Translation.zero())
    run_chain(tmp_path)
    for name, _ in CHAIN:
        assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes(), name

    poses = dataset.read_poses(GOLDEN / "poses.txt")
    cfg = OverlapConfig()
    pairs = generate_pairs(poses, cfg, 0.1, 0.9)
    dataset.write_pairs(tmp_path / "lib.pairs", pairs, cfg, min_overlap=0.1, max_overlap=0.9)
    pairs = dataset.read_pairs(tmp_path / "lib.pairs").pairs
    preds = synth_predict(pairs, SynthPredictor("noisy", sigma_t=0.05, sigma_q_deg=2.0), seed=3)
    naive = synth_predict(pairs, naive_predictor(pairs))
    assert len(pairs) == len(preds) == len(naive) > 0
    assert bin_histogram(pairs).sum() == len(pairs)
    assert subspace_stats(pairs, 0.5).count == int((pairs.overlaps >= 0.5).sum())
    assert evaluate(pairs, preds).n_pairs == len(pairs)
    binning = OverlapBinning(edges=(0.1, 0.5, 0.9))
    assert sum(b.n for b in error_curve(pairs, naive, binning).bins) == len(pairs)
    assert combined_loss(pairs, preds).shape == (len(pairs),)
