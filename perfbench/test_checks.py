"""The output checks pass on the program's artifacts and fail on corrupted ones.

    python3 -m pytest perfbench/test_checks.py -q

A small indoor chain runs once through the CLI; each test corrupts a copy of
one artifact and expects the matching check to raise.
"""

import shutil

import numpy as np
import pytest

import checks
import run
import scenes

SEED = 3
ALL = 10**4  # sample size above every pair count here, so every pair is checked


@pytest.fixture(scope="module")
def indoor(tmp_path_factory):
    work = tmp_path_factory.mktemp("indoor")
    scene = run.build("indoor-dense", SEED, work, n=24)
    with open(work / "stderr.log", "w") as log:
        ran = run.run_round(scene.stages, run.stage_env(), log, run.Tally())
    assert ran is not None, (work / "stderr.log").read_text()
    return scene, work


@pytest.fixture
def work_copy(indoor, tmp_path):
    scene, work = indoor
    shutil.copytree(work, tmp_path / "w")
    return tmp_path / "w"


def _edit_line(path, index, edit):
    """Apply `edit` to the tokens of the index-th record line."""
    lines = path.read_text().splitlines()
    body = [k for k, ln in enumerate(lines) if not ln.startswith("#")]
    toks = lines[body[index]].split()
    lines[body[index]] = " ".join(edit(toks))
    path.write_text("\n".join(lines) + "\n")


def test_checks_pass_on_program_output(indoor):
    scene, work = indoor
    run.check_outputs(scene, work, np.random.default_rng(0))


def test_overlap_off_by_one_probe_fails(work_copy):
    pairs = checks.Pairs(work_copy / "pairs")
    n_points = pairs.spec.n_points
    k = int(np.argmax(pairs.overlap < 1.0))
    _edit_line(work_copy / "pairs", k, lambda t: t[:2] + [format(float(t[2]) + 1 / n_points, ".9g")] + t[3:])
    with pytest.raises(checks.CheckError, match="probes are inside"):
        checks.check_pair_scores(checks.Pairs(work_copy / "pairs"), checks.Poses(work_copy / "poses"),
                                 np.random.default_rng(0), n_sample=ALL)


def test_dropped_pair_fails(work_copy):
    path = work_copy / "pairs"
    lines = path.read_text().splitlines()
    body = [k for k, ln in enumerate(lines) if not ln.startswith("#")]
    del lines[body[len(body) // 2]]
    lines = [f"# count={len(body) - 1}" if ln.startswith("# count=") else ln for ln in lines]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(checks.CheckError, match="unlisted pair"):
        checks.check_pair_scores(checks.Pairs(path), checks.Poses(work_copy / "poses"),
                                 np.random.default_rng(0), n_sample=ALL)


def test_perturbed_report_value_fails(work_copy):
    path = work_copy / "noisy.report"
    lines = path.read_text().splitlines()
    for k, ln in enumerate(lines):
        if ln.startswith("# t_mase="):
            lines[k] = f"# t_mase={float(ln.split('=')[1]) * (1 + 1e-6):.9g}"
    path.write_text("\n".join(lines) + "\n")
    pairs = checks.Pairs(work_copy / "pairs")
    with pytest.raises(checks.CheckError, match="t_mase"):
        checks.check_report(path, pairs, checks.Predictions(work_copy / "noisy.pred"), pairs)


@pytest.mark.parametrize("conjugate", [True, False])
def test_cambridge_quaternion_convention(tmp_path, conjugate):
    names, rot, centres = scenes.street_scene(SEED, 30)
    scenes.write_cambridge(tmp_path / "dataset_train.txt", names, rot, centres, conjugate=conjugate)
    stage = run.Stage("setup", ["ingest", "--format", "cambridge", "--input",
                                str(tmp_path / "dataset_train.txt"), "--out", str(tmp_path / "poses")])
    with open(tmp_path / "stderr.log", "w") as log:
        assert run.run_stage(stage, run.stage_env(), log).ok
    poses = checks.Poses(tmp_path / "poses")
    if conjugate:
        checks.check_cambridge_ingest(poses, names, rot, centres)
    else:
        with pytest.raises(checks.CheckError, match="rotation"):
            checks.check_cambridge_ingest(poses, names, rot, centres)
