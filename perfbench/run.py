"""End-to-end benchmark of the frustoval CLI chain on seeded scenes.

    python3 perfbench/run.py --workload indoor-dense --seed 1 --seconds 40 --trace 0

Each stage runs as its own `python -m frustoval.cli` process, as a user runs
it, started and measured with os.wait4 by launch.py. Whole rounds of the
chain repeat while a typical round still ends within --seconds, and every
metric is the median over rounds. The first round's artifacts pass the checks
in checks.py, and every later round must reproduce them byte for byte. With
--trace 1 each round also calls the same stages in-process through cli.main,
with spans around the program's public functions (tracing.py), and the run
prints the per-layer metrics instead. The last line of standard output is one
JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import os

# Stages, and the traced run in this process, get the BLAS threading a user
# gets by default. numpy reads these when it is first imported.
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
if __name__ == "__main__":
    for _var in BLAS_VARS:
        os.environ.pop(_var, None)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from contextlib import redirect_stderr  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
import scenes  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
LAUNCH = Path(__file__).resolve().parent / "launch.py"

# Scene sizes: large enough that the layer each workload stresses dominates
# its chain, small enough that a 40 s run holds at least four whole rounds.
INDOOR_N = 110
STREET_N = 1200
WALK_N = 100

E2E_UNITS = {"setup_s": "s", "pairs_s": "s", "stats_s": "s", "predict_s": "s", "eval_s": "s",
             "curve_s": "s", "chain_s": "s", "peak_rss_mb": "MB"}

# stage name -> end-to-end metric it is charged to
GROUP = {"setup": "setup_s", "pairs": "pairs_s", "histogram": "stats_s", "diameter": "stats_s",
         "naive": "predict_s", "predict": "predict_s", "eval": "eval_s", "curve": "curve_s"}
STAGES = tuple(GROUP)


@dataclass
class Stage:
    name: str
    argv: list


@dataclass
class Scene:
    """One workload's chain: its setup stages and how the rest of the chain runs."""

    setup: list
    check_setup: object  # callable() raising checks.CheckError
    scored: list  # (poses file, pairs file) per `pairs` stage; the last is evaluated
    flags: list  # frustum flags shared by `pairs` and `curve`
    lo: str  # the overlap window is (lo, 1]
    thresholds: str
    noise: tuple  # (sigma_t, sigma_q_deg, relative)
    split: bool = False  # naive baseline fit on the first (train) pair file
    stages: list = field(default_factory=list)  # the whole chain, from build()

    @property
    def evaluated(self):
        """Prediction files that `eval` scores."""
        return ("naive", "noisy") if self.split else ("noisy",)


def indoor_dense(seed, work, n=INDOOR_N):
    poses = str(work / "poses")

    def check_setup():
        checks.check_synth_poses(checks.Poses(poses), n, (3.0, 2.0, 1.0), 25.0)

    setup = [Stage("setup", ["synth", "--n-poses", str(n), "--extents", "3x2x1",
                             "--max-tilt", "25", "--seed", str(seed), "--out", poses])]
    return Scene(setup, check_setup, [("poses", "pairs")], [], "0",
                 "0.2,0.4,0.6,0.8,0.9", (0.05, 2.0, False))


def outdoor_sparse(seed, work, n=STREET_N):
    names, rot, centres = scenes.street_scene(seed, n)
    (work / "street").mkdir()
    scenes.write_cambridge(work / "street" / "dataset_train.txt", names, rot, centres)
    poses = str(work / "poses")

    def check_setup():
        checks.check_cambridge_ingest(checks.Poses(poses), names, rot, centres)

    setup = [Stage("setup", ["ingest", "--format", "cambridge", "--input",
                             str(work / "street" / "dataset_train.txt"), "--out", poses])]
    return Scene(setup, check_setup, [("poses", "pairs")], ["--far", "30", "--grid", "10x10x10"],
                 "0.3", "0.3,0.5,0.7,0.9", (0.05, 2.0, True))


def walk_split(seed, work, n=WALK_N):
    walks = {}
    for k, seq in ((1, "seq-01"), (2, "seq-02")):
        walks[seq] = scenes.walk_scene(seed, k, n)
        scenes.write_sevenscenes_sequence(work / "walk" / seq, *walks[seq])
    (work / "walk" / "TrainSplit.txt").write_text("sequence1\n")
    (work / "walk" / "TestSplit.txt").write_text("sequence2\n")

    def check_setup():
        checks.check_sevenscenes_ingest(checks.Poses(work / "train.poses"), "seq-01", *walks["seq-01"])
        checks.check_sevenscenes_ingest(checks.Poses(work / "test.poses"), "seq-02", *walks["seq-02"])

    setup = [Stage("setup", ["ingest", "--format", "sevenscenes", "--input", str(work / "walk"),
                             "--split", split, "--out", str(work / f"{split}.poses")])
             for split in ("train", "test")]
    return Scene(setup, check_setup, [("train.poses", "train.pairs"), ("test.poses", "test.pairs")],
                 ["--symmetric", "--grid", "10x10x10", "--epsilon", "0.03"], "0.2",
                 "0.2,0.4,0.6,0.8,0.9", (0.05, 2.0, False), split=True)


WORKLOADS = {"indoor-dense": indoor_dense, "outdoor-sparse": outdoor_sparse, "walk-split": walk_split}


def build(workload, seed, work: Path, **size) -> Scene:
    """Write the workload's inputs under `work` and lay out its chain."""
    scene = WORKLOADS[workload](seed, work, **size)
    scene.stages = chain(scene, work, seed)
    return scene


def chain(scene: Scene, work: Path, seed: int):
    """Every stage after setup, in the order a user runs them."""
    p = lambda name: str(work / name)  # noqa: E731
    poses, pairs = scene.scored[-1]
    bins = f"{scene.lo}:1:0.1"
    source = ["--source-pairs", p(scene.scored[0][1])] if scene.split else []
    sigma_t, sigma_q, relative = scene.noise
    stages = [Stage("pairs", ["pairs", "--poses", p(ps), "--min-overlap", scene.lo,
                              "--max-overlap", "1", *scene.flags, "--out", p(pf)])
              for ps, pf in scene.scored]
    stages += [
        Stage("histogram", ["histogram", "--pairs", p(pairs), "--bins", bins, "--out", p("hist.csv")]),
        Stage("diameter", ["diameter", "--pairs", p(pairs), "--thresholds", scene.thresholds,
                           "--out", p("diam.csv")]),
        Stage("naive", ["naive", "--pairs", p(pairs), *source, "--out", p("naive.pred")]),
        Stage("predict", ["synth", "--pairs", p(pairs), "--predictor", "noisy", "--sigma-t", str(sigma_t),
                          "--sigma-q", str(sigma_q), "--relative-noise" if relative else "--no-relative-noise",
                          "--seed", str(seed), "--out", p("noisy.pred")]),
    ]
    stages += [Stage("eval", ["eval", "--pairs", p(pairs), "--pred", p(f"{kind}.pred"), *source,
                              "--out", p(f"{kind}.report")])
               for kind in scene.evaluated]
    stages.append(Stage("curve", ["curve", "--poses", p(poses), "--pred", p("noisy.pred"), *scene.flags,
                                  "--bins", bins, "--out", p("curve.csv")]))
    return scene.setup + stages


def check_outputs(scene: Scene, work: Path, rng) -> None:
    scene.check_setup()
    scored = []
    for ps, pf in scene.scored:
        poses, pairs = checks.Poses(work / ps), checks.Pairs(work / pf)
        checks.require(pairs.lo == float(scene.lo) and pairs.hi == 1.0,
                       f"{pf}: window ({pairs.lo}, {pairs.hi}], expected ({scene.lo}, 1]")
        checks.require(pairs.symmetric == ("--symmetric" in scene.flags), f"{pf}: symmetric flag")
        checks.require(len(pairs) > 0, f"{pf}: no pairs")
        checks.check_pair_scores(pairs, poses, rng)
        checks.check_relative_poses(pairs, poses, rng)
        if pairs.symmetric:
            checks.check_symmetric(pairs)
        scored.append(pairs)
    pairs, source = scored[-1], scored[0]  # `poses` is the last scored split's
    checks.check_histogram(work / "hist.csv", pairs)
    checks.check_diameter(work / "diam.csv", pairs)
    preds = {kind: checks.Predictions(work / f"{kind}.pred") for kind in ("naive", "noisy")}
    checks.check_naive(preds["naive"], pairs, source)
    checks.check_noisy(preds["noisy"], pairs, *scene.noise)
    for kind in scene.evaluated:
        checks.check_report(work / f"{kind}.report", pairs, preds[kind], source)
    checks.check_curve(work / "curve.csv", pairs, poses, preds["noisy"])


def artifact_digests(work: Path):
    return {f.name: hashlib.sha256(f.read_bytes()).hexdigest()
            for f in sorted(work.iterdir()) if f.is_file() and f.name != "stderr.log"}


# ---------------------------------------------------------------------------
# running stages
# ---------------------------------------------------------------------------


def stage_env():
    env = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


@dataclass
class StageRun:
    name: str
    wall: float
    cpu: float
    rss_mb: float
    ok: bool


def run_stage(stage: Stage, env, log) -> StageRun:
    """One stage process, started and measured by launch.py."""
    out = subprocess.run([sys.executable, "-S", str(LAUNCH), sys.executable, "-m", "frustoval.cli",
                          *stage.argv], env=env, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                         stderr=log, check=True)
    r = json.loads(out.stdout)
    return StageRun(stage.name, r["wall"], r["cpu"], r["rss_mb"], r["code"] == 0)


@dataclass
class Tally:
    """Operations (stage runs) attempted and failed so far in this run."""

    attempted: int = 0
    failed: int = 0


def run_round(stages, env, log, tally: Tally):
    """All stages in order; after a failure the rest of the round counts as failed.
    Returns the stage runs, or None when a stage failed."""
    runs = []
    tally.attempted += len(stages)
    for st in stages:
        r = run_stage(st, env, log)
        runs.append(r)
        if not r.ok:
            tally.failed += len(stages) - len(runs) + 1
            return None
    return runs


def round_metrics(runs):
    m = dict.fromkeys(E2E_UNITS, 0.0)
    for r in runs:
        m[GROUP[r.name]] += r.wall
    m["chain_s"] = sum(r.wall for r in runs if r.name != "setup")
    m["peak_rss_mb"] = max(r.rss_mb for r in runs)
    return m


def another_round(t_start, durations, seconds):
    """Start a round only if a typical round still ends within the run length."""
    if not durations:
        return True
    return time.perf_counter() - t_start + statistics.median(durations) <= seconds


def medians(rows):
    return {k: statistics.median(r[k] for r in rows) for k in rows[0]}


# ---------------------------------------------------------------------------
# traced run
# ---------------------------------------------------------------------------


PER_LAYER_SPANS = {  # per-layer metric -> spans summed over one traced chain
    "dataset.ingest_s": ("dataset.parse_cambridge", "dataset.parse_sevenscenes"),
    "dataset.write_poses_s": ("dataset.write_poses",),
    "synth.generate_trajectory_s": ("synth.generate_trajectory",),
    "dataset.read_poses_s": ("dataset.read_poses",),
    "dataset.write_pairs_s": ("dataset.write_pairs",),
    "dataset.read_pairs_s": ("dataset.read_pairs",),
    "dataset.write_predictions_s": ("dataset.write_predictions",),
    "dataset.read_predictions_s": ("dataset.read_predictions",),
    "pairgen.bin_histogram_s": ("pairgen.bin_histogram",),
    "pairgen.subspace_stats_s": ("pairgen.subspace_stats",),
    "metrics.match_predictions_s": ("metrics.match_predictions",),
    "metrics.evaluate_s": ("metrics.evaluate",),
    "metrics.error_curve_s": ("metrics.error_curve",),
    "metrics.naive_predictor_s": ("metrics.naive_predictor",),
    "synth.synth_predict_s": ("synth.synth_predict",),
}


def traced_run(name, scene, work, env, log, seconds, seed, tally, tracer):
    """Rounds of: the chain untraced, one `--version` start, the chain traced
    in-process, then direct calls into the kernel; until the run length is used.
    Adjacent untraced and traced chains give the tracing overhead. Returns the
    per-layer medians over rounds, or None if a stage failed."""
    sys.path.insert(0, str(SRC))
    from frustoval import cli, dataset, geometry, pairgen, synth  # noqa: PLC0415
    from tracing import totals  # noqa: PLC0415

    checks.require(Path(cli.__file__).resolve().is_relative_to(SRC), f"frustoval imported from {cli.__file__}")
    first_poses, first_pairs = (work / f for f in scene.scored[0])
    threads = os.cpu_count() or 1  # the CLI's --threads default
    per_round, durations, want = [], [], None
    t_start = time.perf_counter()
    tracer.install()
    try:
        while another_round(t_start, durations, seconds):
            t_round = time.perf_counter()
            ref = run_round(scene.stages, env, log, tally)
            if ref is None:
                return None
            if want is None:
                check_outputs(scene, work, np.random.default_rng([seed, 99]))
                want = artifact_digests(work)
                cfg = dataset.config_from_header(dataset.read_header(first_pairs)[1])
                if not any(st.argv[0] == "ingest" for st in scene.setup):
                    # the chain never ingests: time the Cambridge parser on its poses instead
                    p = checks.Poses(first_poses)
                    (work / "probe").mkdir()
                    scenes.write_cambridge(work / "probe" / "dataset_train.txt", p.ids,
                                           scenes.quat_to_matrix(p.q), p.t)
            startup = run_stage(Stage("startup", ["--version"]), env, log).wall

            mark = len(tracer.spans)
            stage_spans = []
            tally.attempted += len(scene.stages)
            for k, st in enumerate(scene.stages):
                tracer.stage_id = f"{name}/r{len(per_round)}/{k}:{st.name}"
                stage_spans.append(len(tracer.spans))
                with redirect_stderr(io.StringIO()):
                    with tracer.span(f"cli.{st.name}"):
                        code = cli.main(st.argv)
                if code != 0:
                    tally.failed += len(scene.stages) - k
                    return None
            checks.require(artifact_digests(work) == want, "the traced chain's artifacts differ from untraced")
            dur, self_time = totals(tracer.spans[mark:], mark)
            m = {key: sum(dur.get(s, 0.0) for s in names) for key, names in PER_LAYER_SPANS.items()}
            for st in STAGES:
                m[f"cli.{st}.self_s"] = self_time.get(f"cli.{st}", 0.0)
            m["cli.startup_s"] = startup
            m["trace.overhead_s"] = sum(tracer.spans[i][2] - tracer.spans[i][1] - (r.wall - startup)
                                        for i, r in zip(stage_spans, ref))
            for st in ("pairs", "curve"):
                m[f"cli.{st}.cpu_s"] = sum(r.cpu for r in ref if r.name == st)
            for st in ("pairs", "eval", "curve"):
                m[f"cli.{st}.rss_mb"] = max(r.rss_mb for r in ref if r.name == st)

            tracer.stage_id = f"{name}/r{len(per_round)}/probes"
            poses = dataset.read_poses(first_poses)
            lo = float(scene.lo)
            t0 = time.perf_counter()
            pairgen.generate_pairs(poses, cfg, 1 - 1 / (2 * cfg.frustum.n_points), 1.0, threads=threads)
            t1 = time.perf_counter()
            many = pairgen.generate_pairs(poses, cfg, lo, 1.0, threads=threads)
            t2 = time.perf_counter()
            one = pairgen.generate_pairs(poses, cfg, lo, 1.0, threads=1)
            t3 = time.perf_counter()
            checks.require(many == one, "generate_pairs: threads=1 and default threads differ")
            geometry.quat_rows(p.rel.rotation for p in many)
            geometry.translation_rows(p.rel.translation for p in many)
            t4 = time.perf_counter()
            m.update({"pairgen.score_only_s": t1 - t0, "pairgen.generate_pairs_s": t2 - t1,
                      "pairgen.generate_pairs_1t_s": t3 - t2, "geometry.pair_rows_s": t4 - t3})
            if m["synth.generate_trajectory_s"] == 0.0:  # not on this chain: same pose count
                t0 = time.perf_counter()
                synth.generate_trajectory(synth.SynthConfig(n_poses=len(poses), seed=seed))
                m["synth.generate_trajectory_s"] = time.perf_counter() - t0
            if m["dataset.ingest_s"] == 0.0:
                t0 = time.perf_counter()
                dataset.parse_cambridge(work / "probe" / "dataset_train.txt")
                m["dataset.ingest_s"] = time.perf_counter() - t0
            per_round.append(m)
            durations.append(time.perf_counter() - t_round)
    finally:
        tracer.remove()
    return medians(per_round)


def layer_unit(key):
    return "MB" if key.endswith("_mb") else "s"


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "frustoval" / "cli.py").is_file():
        print(f"error: no frustoval source under {SRC}", file=sys.stderr)
        return 2

    work = OUT / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    tally, metrics, correct = Tally(), None, True
    try:
        scene = build(args.workload, args.seed, work)
        env = stage_env()
        with open(work / "stderr.log", "w") as log:
            run_stage(Stage("warmup", ["--version"]), env, log)  # page cache, not timed
            if args.trace:
                metrics = traced(args, scene, work, env, log, tally)
            else:
                metrics = untraced(args, scene, work, env, log, tally)
    except checks.CheckError as e:
        print(f"check failed: {e}", file=sys.stderr)
        correct = False
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({"correct": correct and not tally.failed, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics or {}}))
    return 0


def untraced(args, scene, work, env, log, tally):
    rounds, durations = [], []
    want = None
    t_start = time.perf_counter()
    while another_round(t_start, durations, args.seconds):
        t_round = time.perf_counter()
        runs = run_round(scene.stages, env, log, tally)
        if runs is None:
            return None
        durations.append(time.perf_counter() - t_round)
        rounds.append(round_metrics(runs))
        if want is None:
            # checks run between rounds, outside every timed stage
            check_outputs(scene, work, np.random.default_rng([args.seed, 99]))
            want = artifact_digests(work)
        else:
            checks.require(artifact_digests(work) == want, "a later round's artifacts differ from round 1")
    return {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in medians(rounds).items()}


def traced(args, scene, work, env, log, tally):
    from tracing import Tracer  # noqa: PLC0415

    tracer = Tracer()
    try:
        layers = traced_run(args.workload, scene, work, env, log, args.seconds, args.seed, tally, tracer)
    finally:
        trace_file = OUT / f"trace-{args.workload}-{args.seed}.json"
        trace_file.write_text(json.dumps({"columns": ["name", "start", "end", "parent", "stage"],
                                          "spans": tracer.spans}))
    return layers and {k: {"value": v, "unit": layer_unit(k)} for k, v in layers.items()}


if __name__ == "__main__":
    sys.exit(main())
