"""Command-line front end: ingest -> pairs -> stats -> predict -> eval -> curve.

Every run echoes its resolved configuration into the output file header, so
any artifact can be reproduced from its own header alone. Outputs are written
atomically. Exit codes: 0 success, 1 usage error, 2 data error.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import FORMAT_VERSION, __version__, dataset, metrics, pairgen, synth
from .frustum import FrustumSpec, OverlapConfig
from .geometry import Quaternion, RelativePose, Translation
from .metrics import EvaluationError, MetricConfig
from .pairgen import OverlapBinning
from .synth import RNG_KIND, SynthConfig, SynthPredictor

_COMMANDS = ("ingest", "pairs", "histogram", "diameter", "naive", "synth", "eval", "curve")

# options taking true/false in a --config file (they map to --x / --no-x)
_BOOL_OPTIONS = {"symmetric", "unordered", "relative-noise"}


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # usage problems exit 1; argparse's default would exit 2
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(1)


def _thread_count(text: str) -> int:
    if not (text.isdecimal() and int(text) >= 1):
        raise argparse.ArgumentTypeError(f"must be a whole number of at least 1, got {text!r}")
    return int(text)


def _parse_extents(text: str):
    try:
        ex, ey, ez = (float(v) for v in text.split("x"))
    except ValueError:
        raise UsageError(f"bad --extents {text!r}, expected AxBxC") from None
    return ex, ey, ez


def _parse_bins(text: str) -> OverlapBinning:
    try:
        if ":" in text:
            lo, hi, step = (float(v) for v in text.split(":"))
            if step <= 0:
                raise ValueError("step must be positive")
            n = int(round((hi - lo) / step))
            if n < 1 or abs(lo + n * step - hi) > 1e-9:
                raise ValueError("range is not a whole number of steps")
            edges = tuple(round(lo + k * step, 12) for k in range(n + 1))
        else:
            edges = tuple(float(v) for v in text.split(","))
        return OverlapBinning(edges=edges)
    except (ValueError, OverflowError) as e:  # round() of an infinite step count overflows
        raise UsageError(f"bad --bins {text!r}: {e}") from None


def _parse_constant(text: str) -> RelativePose:
    try:
        vals = [float(v) for v in text.split()]
        if len(vals) != 7 or not all(map(math.isfinite, vals)):  # normalizing inf would give nan
            raise ValueError("need 7 finite numbers: qw qx qy qz tx ty tz")
        return RelativePose(rotation=Quaternion.unit(*vals[:4]), translation=Translation(*vals[4:]))
    except ValueError as e:
        raise UsageError(f"bad --constant {text!r}: {e}") from None


def _overlap_config(args) -> OverlapConfig:
    try:
        nx, ny, nz = dataset.parse_grid(args.grid)
    except dataset.FormatError:
        raise UsageError(f"bad --grid {args.grid!r}, expected NXxNYxNZ") from None
    try:
        spec = FrustumSpec(
            hfov_deg=args.hfov, vfov_deg=args.vfov, near=args.near, far=args.far,
            grid_nx=nx, grid_ny=ny, grid_nz=nz, boundary_epsilon=args.epsilon,
        )
        symmetric = args.symmetric or getattr(args, "unordered", False)
        return OverlapConfig(
            frustum=spec, max_relative_rotation_deg=args.max_rot, symmetric=symmetric
        )
    except ValueError as e:
        raise UsageError(str(e)) from None


def _add_common(sp):
    sp.add_argument("--out", required=True, help="output file (written atomically)")
    sp.add_argument("--config", help="key=value file merged under explicit flags")


def _add_frustum_flags(sp):
    sp.add_argument("--hfov", type=float, default=58.0, help="horizontal FOV, degrees")
    sp.add_argument("--vfov", type=float, default=45.0, help="vertical FOV, degrees")
    sp.add_argument("--near", type=float, default=0.1, help="near plane, meters")
    sp.add_argument("--far", type=float, default=4.0, help="far plane, meters")
    sp.add_argument("--grid", default="8x8x8", help="probe lattice NXxNYxNZ")
    sp.add_argument("--epsilon", type=float, default=1e-9,
                    help="containment slack, meters; above 0 a frustum holds all of its own "
                         "probe points (at 0 rounding decides the boundary ones)")
    sp.add_argument("--max-rot", type=float, default=110.0,
                    help="relative-rotation gate, degrees")
    sp.add_argument("--symmetric", action=argparse.BooleanOptionalAction, default=False,
                    help="score both directions and keep the minimum")


def _add_threads(sp):
    # the CPUs this process may run on, where the platform reports them
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    sp.add_argument("--threads", type=_thread_count, default=cpus,
                    help="worker threads; defaults to the CPUs this process may use "
                         "(output is identical for any value)")


def build_parser() -> _Parser:
    parser = _Parser(prog="frustoval", description=__doc__)
    parser.add_argument(
        "--version", action="version",
        version=f"frustoval {__version__} (frustoval-format {FORMAT_VERSION})",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    sp = sub.add_parser("ingest", help="convert a public pose format to the canonical one")
    sp.add_argument("--format", required=True, choices=("sevenscenes", "cambridge"))
    sp.add_argument("--input", required=True, help="scene directory / dataset file")
    sp.add_argument("--scene", help="scene name override")
    sp.add_argument("--split", choices=("train", "test"),
                    help="which split (sevenscenes default: train; cambridge: from filename)")
    _add_common(sp)
    sp.set_defaults(func=cmd_ingest)

    sp = sub.add_parser("synth", help="generate a synthetic trajectory or predictions")
    sp.add_argument("--n-poses", type=int, default=100)
    sp.add_argument("--extents", default="3x2x1", help="box extents AxBxC in meters")
    sp.add_argument("--max-tilt", type=float, default=30.0, help="rotation cone, degrees")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--pairs", help="predict for this pair file instead of sampling poses")
    sp.add_argument("--predictor", choices=("perfect", "noisy", "constant"), default="perfect",
                    help="the naive baseline is the `naive` command")
    sp.add_argument("--sigma-t", type=float, default=0.0, help="translation noise, meters")
    sp.add_argument("--sigma-q", type=float, default=0.0, help="rotation noise, degrees")
    sp.add_argument("--relative-noise", action=argparse.BooleanOptionalAction, default=False,
                    help="scale translation noise by the ground-truth norm")
    sp.add_argument("--constant", help="fixed prediction 'qw qx qy qz tx ty tz'")
    _add_common(sp)
    sp.set_defaults(func=cmd_synth)

    sp = sub.add_parser("pairs", help="score all pose pairs and keep an overlap range")
    sp.add_argument("--poses", required=True)
    sp.add_argument("--min-overlap", type=float, default=0.0)
    sp.add_argument("--max-overlap", type=float, default=1.0)
    _add_frustum_flags(sp)
    sp.add_argument("--unordered", action=argparse.BooleanOptionalAction, default=False,
                    help="keep anchor<query only, with the symmetric score")
    _add_threads(sp)
    _add_common(sp)
    sp.set_defaults(func=cmd_pairs)

    sp = sub.add_parser("histogram", help="pair counts per overlap bin")
    sp.add_argument("--pairs", required=True)
    sp.add_argument("--bins", default="0:1:0.1", help="lo:hi:step or comma-separated edges")
    _add_common(sp)
    sp.set_defaults(func=cmd_histogram)

    sp = sub.add_parser("diameter", help="subspace statistics per overlap threshold")
    sp.add_argument("--pairs", required=True)
    sp.add_argument("--thresholds", default="0.2,0.4,0.6,0.8,0.9")
    _add_common(sp)
    sp.set_defaults(func=cmd_diameter)

    sp = sub.add_parser("naive", help="mean-returning baseline predictions")
    sp.add_argument("--pairs", required=True, help="pairs to predict for")
    sp.add_argument("--source-pairs", help="fit the mean on these pairs instead")
    _add_common(sp)
    sp.set_defaults(func=cmd_naive)

    sp = sub.add_parser("eval", help="score predictions against a pair file")
    sp.add_argument("--pairs", required=True)
    sp.add_argument("--pred", required=True)
    sp.add_argument("--norm", choices=("l1", "l2"), default="l1")
    sp.add_argument("--stats", default="mean,median,mape,mase,mapse,rmape",
                    help="comma list from: mean,median,mape,mase,mapse,rmape")
    sp.add_argument("--gimbal", choices=("exclude", "error"), default="exclude")
    sp.add_argument("--source-pairs", help="fit the naive baseline on these pairs")
    sp.add_argument("--subspace-threshold", type=float,
                    help="override the pair file's min overlap for subspace stats")
    _add_common(sp)
    sp.set_defaults(func=cmd_eval)

    sp = sub.add_parser(
        "curve", help="error per overlap bin, with AUC",
        description="Re-score the ordered pairs of --poses and bin the errors of --pred by "
                    "overlap. Ordered pairs only: predictions made for a 'pairs --unordered' "
                    "file are refused, since they lack the reverse direction of each pair.")
    sp.add_argument("--poses", required=True)
    sp.add_argument("--pred", required=True)
    sp.add_argument("--bins", default="0.1:0.9:0.1")
    sp.add_argument("--stat", choices=("mean", "median"), default="median")
    sp.add_argument("--norm", choices=("l1", "l2"), default="l1")
    _add_frustum_flags(sp)
    _add_threads(sp)
    _add_common(sp)
    sp.set_defaults(func=cmd_curve)

    return parser


# ---------------------------------------------------------------------------
# --config file support: entries become flags injected under the explicit ones
# ---------------------------------------------------------------------------


def _config_file_argv(path) -> list[str]:
    try:
        text = Path(path).read_text()
    except FileNotFoundError:
        raise dataset.FormatError(f"missing config file: {path}") from None
    out = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise dataset.FormatError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key = key.strip().replace("_", "-")
        value = value.strip()
        if key in _BOOL_OPTIONS:
            if value.lower() not in ("true", "false"):
                raise dataset.FormatError(f"{path}:{lineno}: {key} must be true or false")
            out.append(f"--{key}" if value.lower() == "true" else f"--no-{key}")
        else:
            out.extend([f"--{key}", value])
    return out


def _inject_config(argv: list[str]) -> list[str]:
    if not argv or argv[0] not in _COMMANDS:
        return argv
    path = None
    for i, tok in enumerate(argv):
        if tok == "--config" and i + 1 < len(argv):
            path = argv[i + 1]
        elif tok.startswith("--config="):
            path = tok.split("=", 1)[1]
    if path is None:
        return argv
    return [argv[0]] + _config_file_argv(path) + argv[1:]


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def _info(msg):
    print(msg, file=sys.stderr)


def _source_pairs(path, pf) -> dataset.PairTable:
    """The --source-pairs table; warns when its digest differs from the
    evaluated pair file's."""
    source = dataset.read_pairs(path).pairs
    if source.config_digest != pf.pairs.config_digest:
        _info(f"warning: source pairs digest {source.config_digest} differs from eval pairs digest "
              f"{pf.pairs.config_digest}")
    return source


def cmd_ingest(args) -> int:
    if args.format == "sevenscenes":
        ps = dataset.parse_sevenscenes(
            args.input, split=args.split or "train", scene_name=args.scene
        )
    else:
        ps = dataset.parse_cambridge(args.input, scene_name=args.scene, split=args.split)
    dataset.write_poses(args.out, ps)
    _info(f"wrote {len(ps)} {ps.split} poses of scene {ps.scene_name!r} to {args.out}")
    return 0


def cmd_synth(args) -> int:
    if args.pairs:
        constant = _parse_constant(args.constant) if args.constant else None
        try:
            predictor = SynthPredictor(
                kind=args.predictor, sigma_t=args.sigma_t, sigma_q_deg=args.sigma_q,
                relative_noise=args.relative_noise, constant=constant,
            )
        except ValueError as e:
            raise UsageError(str(e)) from None
        chunks = dataset.stream_pairs(args.pairs)
        pf = next(chunks)
        n = dataset.record_count(args.pairs, pf.header, dataset.PAIR_COLUMNS)
        predict = synth.chunk_predictor(predictor, n, seed=args.seed)
        dataset.write_prediction_chunks(
            args.out, pf.pairs.config_digest, n,
            (((c.anchor_ids, c.query_ids), predict(c.rotations, c.translations)) for c in chunks),
            predictor=predictor.describe(), extra={"rng": RNG_KIND, "seed": args.seed})
        _info(f"wrote {n} {predictor.describe()} predictions to {args.out}")
        return 0
    try:
        cfg = SynthConfig(
            extents=_parse_extents(args.extents), n_poses=args.n_poses,
            max_tilt_deg=args.max_tilt, seed=args.seed,
        )
    except ValueError as e:
        raise UsageError(str(e)) from None
    ps = synth.generate_trajectory(cfg)
    dataset.write_poses(
        args.out, ps,
        extra={"rng": RNG_KIND, "seed": cfg.seed,
               "extents_m": args.extents, "max_tilt_deg": dataset.fnum(cfg.max_tilt_deg)},
    )
    _info(f"wrote {len(ps)} synthetic poses to {args.out}")
    return 0


def cmd_pairs(args) -> int:
    ps = dataset.read_poses(args.poses)
    cfg = _overlap_config(args)
    dataset.check_window(args.min_overlap, args.max_overlap, UsageError)
    records = pairgen.generate_pairs(
        ps, cfg, args.min_overlap, args.max_overlap,
        unordered=args.unordered, threads=args.threads,
    )
    dataset.write_pairs(
        args.out, records, cfg,
        min_overlap=args.min_overlap, max_overlap=args.max_overlap,
        ordered=not args.unordered,
        extra={"poses_scene": ps.scene_name, "poses_split": ps.split, "n_poses": len(ps)},
    )
    _info(f"wrote {len(records)} pairs to {args.out}")
    return 0


def cmd_histogram(args) -> int:
    binning = _parse_bins(args.bins)
    counts = np.zeros(binning.n_bins, dtype=np.int64)
    chunks = dataset.stream_pairs(args.pairs)
    pf = next(chunks)
    n = 0
    for chunk in chunks:
        counts += pairgen.bin_histogram(chunk, binning)
        n += len(chunk)
    dataset.write_histogram(
        args.out, binning.edges, counts,
        extra={"config_digest": pf.pairs.config_digest, **dataset.config_header_entries(pf.cfg),
               **dataset.convention_entries(), "n_pairs": n},
    )
    _info(f"wrote {binning.n_bins}-bin histogram of {n} pairs to {args.out}")
    return 0


def cmd_diameter(args) -> int:
    pf = dataset.read_pairs(args.pairs)
    try:
        thresholds = [float(v) for v in args.thresholds.split(",")]
        if not all(0.0 <= t <= 1.0 for t in thresholds):  # NaN fails the test too
            raise ValueError
    except ValueError:
        raise UsageError(f"bad --thresholds {args.thresholds!r}") from None
    rows = [pairgen.subspace_stats(pf.pairs, t) for t in thresholds]
    dataset.write_subspace_table(
        args.out, rows,
        extra={"config_digest": pf.pairs.config_digest, **dataset.config_header_entries(pf.cfg),
               **dataset.convention_entries(), "n_pairs": len(pf.pairs)},
    )
    _info(f"wrote subspace statistics at {len(rows)} thresholds to {args.out}")
    return 0


def cmd_naive(args) -> int:
    pf = dataset.read_pairs(args.pairs)
    if args.source_pairs:
        source, source_kind = _source_pairs(args.source_pairs, pf), "train_pairs"
    else:
        source, source_kind = pf.pairs, "eval_pairs"
    preds = synth.synth_predict(pf.pairs, metrics.naive_predictor(source))
    dataset.write_predictions(args.out, preds, predictor="naive", extra={"naive_source": source_kind})
    _info(f"wrote {len(preds)} naive predictions to {args.out}")
    return 0


def cmd_eval(args) -> int:
    pf = dataset.read_pairs(args.pairs)
    preds = dataset.read_predictions(args.pred)
    dataset.check_digest_match(pf.pairs.config_digest, preds.config_digest)
    rows = metrics.align_predictions(pf.pairs, preds)
    orphans = metrics.unmatched_predictions(pf.pairs, preds, rows)
    if orphans:
        raise EvaluationError(
            f"predictions reference pair keys absent from the pair file: {orphans[:10]}"
        )
    requested = [s.strip() for s in args.stats.split(",") if s.strip()]
    unknown = set(requested) - {"mean", "median", "mape", "mase", "mapse", "rmape"}
    if unknown:
        raise UsageError(f"unknown --stats entries: {sorted(unknown)}")
    statistics = tuple(s for s in ("mean", "median") if s in requested) or ("mean", "median")
    include = tuple(m for m in ("mape", "mase", "mapse", "rmape") if m in requested)
    naive_source_pairs = _source_pairs(args.source_pairs, pf) if args.source_pairs else None
    cfg = MetricConfig(norm=args.norm, statistics=statistics, euler_gimbal_policy=args.gimbal)
    threshold = pf.min_overlap if args.subspace_threshold is None else args.subspace_threshold
    if not 0.0 <= threshold <= 1.0:
        raise UsageError(f"bad --subspace-threshold {threshold!r}, expected an overlap in [0, 1]")
    report = metrics.evaluate(pf.pairs, preds, cfg, naive_source_pairs=naive_source_pairs,
                              subspace_threshold=threshold, include=include, rows=rows)
    dataset.write_report(
        args.out, report.to_items(),
        extra={**dataset.config_header_entries(pf.cfg), **dataset.convention_entries()},
    )
    _info(f"wrote metric report over {report.n_pairs} pairs to {args.out}")
    return 0


def cmd_curve(args) -> int:
    ps = dataset.read_poses(args.poses)
    preds = dataset.read_predictions(args.pred)
    cfg = _overlap_config(args)
    digest = dataset.config_digest(cfg)
    dataset.check_digest_match(digest, preds.config_digest)
    binning = _parse_bins(args.bins)
    pairs = pairgen.generate_pairs(
        ps, cfg, min_overlap=binning.edges[0], max_overlap=binning.edges[-1],
        threads=args.threads,
    )
    curve = metrics.error_curve(pairs, preds, binning, stat=args.stat, norm=args.norm)
    dataset.write_curve(
        args.out, curve,
        extra={"config_digest": digest, **dataset.config_header_entries(cfg),
               **dataset.convention_entries(), "bins": args.bins,
               "poses_scene": ps.scene_name, "n_pairs": len(pairs)},
    )
    _info(f"wrote error curve over {len(pairs)} pairs to {args.out}")
    return 0


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser()
    try:
        argv = _inject_config(list(argv))
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as e:
        print(f"frustoval: error: {e}", file=sys.stderr)
        return 1
    except (dataset.FormatError, EvaluationError) as e:
        print(f"frustoval: error: {e}", file=sys.stderr)
        return 2
    except FileNotFoundError as e:
        print(f"frustoval: error: missing input file: {e.filename or e}", file=sys.stderr)
        return 2
    except ValueError as e:
        print(f"frustoval: error: {e}", file=sys.stderr)
        return 2


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
