"""The committed golden corpus: every artifact kind, regenerated byte for byte.

tests/fixtures/golden/ holds a 12-pose synthetic scene and every file the CLI
chain makes from it: ordered and symmetric unordered pair files, histogram,
diameter table, naive and noisy predictions, three reports and an error
curve. Regenerating them with the commands below must reproduce each file
exactly; any change to parsing, formatting or arithmetic shows up here.
"""

import pytest

from frustoval import dataset
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
    # the pipeline works on PairTable columns; a PairRecord or Prediction
    # built anywhere on the way from pose file to metric fails the run
    def refuse(self, *args, **kwargs):
        raise AssertionError(f"{type(self).__name__} built on the pipeline path")

    monkeypatch.setattr(dataset.PairRecord, "__init__", refuse)
    monkeypatch.setattr(dataset.Prediction, "__init__", refuse)
    with pytest.raises(AssertionError):
        dataset.Prediction("a", "b", None)
    run_chain(tmp_path)
    for name, _ in CHAIN:
        assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes(), name
