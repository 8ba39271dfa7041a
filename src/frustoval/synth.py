"""Seeded synthetic trajectories and predictors.

These make the overlap/accuracy tradeoff demonstrable at desk scale: a box
trajectory stands in for a scanned scene, and the predictor family (perfect,
naive, noisy, constant) spans the behaviours the metrics must separate. All
sampling is driven by numpy's PCG64 stream, so a seed pins every output
bit-for-bit across runs and platforms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import metrics
from .dataset import PairTable, PoseSet, round9_array
from .geometry import (
    RelativePose,
    axis_angle_rows,
    dot_norms,
    normalize_quat_rows,
    quat_mul_rows,
    vector_norms,
)

RNG_KIND = "pcg64"


@dataclass(frozen=True)
class SynthConfig:
    """Uniform-box trajectory parameters.

    Positions are uniform in a box of the given extents centered at the
    origin. Orientations tilt away from a shared +z forward axis by a
    uniform angle up to max_tilt_deg about a uniform random axis; keeping the
    cone narrower than the rotation gate leaves usable pairs at every
    overlap level.
    """

    extents: tuple = (3.0, 2.0, 1.0)
    n_poses: int = 100
    max_tilt_deg: float = 30.0
    seed: int = 0

    def __post_init__(self):
        if len(self.extents) != 3 or not all(0.0 <= e < np.inf for e in self.extents):
            raise ValueError(f"extents must be three finite non-negative lengths, got {tuple(self.extents)!r}")
        if self.n_poses < 2:
            raise ValueError("n_poses must be >= 2")
        if not (0.0 <= self.max_tilt_deg <= 180.0):
            raise ValueError(f"max_tilt_deg must be in [0, 180], got {self.max_tilt_deg!r}")


def _random_axes(rng, n):
    axes = rng.normal(size=(n, 3))
    norms = vector_norms(axes, "l2")[:, None]
    norms[norms == 0.0] = 1.0
    return axes / norms


def _synthetic_poses(kind: str, cfg, quats, positions, note: str) -> PoseSet:
    """The sampled rows as a PoseSet named after the box, values rounded to
    file precision; the convention note records the sampler's settings."""
    ex = "x".join(format(e, "g") for e in cfg.extents)
    return PoseSet(f"synthetic-{kind}-{ex}", "train", [f"pose-{i:06d}" for i in range(cfg.n_poses)],
                   round9_array(quats), round9_array(positions), "synthetic",
                   f"rng={RNG_KIND} seed={cfg.seed} n_poses={cfg.n_poses} {note}")


def generate_trajectory(cfg: SynthConfig) -> PoseSet:
    """Sample a reproducible PoseSet; values are pre-rounded to file precision."""
    rng = np.random.default_rng(cfg.seed)
    extents = np.asarray(cfg.extents, dtype=float)
    positions = rng.uniform(-0.5, 0.5, size=(cfg.n_poses, 3)) * extents
    axes = _random_axes(rng, cfg.n_poses)
    angles = rng.uniform(0.0, cfg.max_tilt_deg, size=cfg.n_poses)
    return _synthetic_poses("box", cfg, axis_angle_rows(axes, angles), positions,
                            f"max_tilt_deg={format(cfg.max_tilt_deg, 'g')}")


@dataclass(frozen=True)
class WalkConfig:
    """Scanning-walk trajectory parameters.

    Mimics handheld video capture: positions follow a smooth random walk
    bouncing off the box walls, orientations drift inside the tilt cone, and
    `dwell_fraction` of the steps shrink to near-stationary motion. Unlike
    the uniform sampler this produces near-duplicate poses, which is what
    populates the highest overlap ranges in real scanned sequences.
    """

    extents: tuple = (3.0, 2.0, 1.0)
    n_poses: int = 300
    step_m: float = 0.06
    turn_deg: float = 2.0
    dwell_fraction: float = 0.25
    max_tilt_deg: float = 12.0
    seed: int = 0

    def __post_init__(self):
        if len(self.extents) != 3 or not all(0.0 <= e < np.inf for e in self.extents):
            raise ValueError(f"extents must be three finite non-negative lengths, got {tuple(self.extents)!r}")
        if self.n_poses < 2:
            raise ValueError("n_poses must be >= 2")
        if not (0.0 <= self.step_m < np.inf and 0.0 <= self.turn_deg < np.inf):
            raise ValueError(f"step sizes must be finite and >= 0, got {self.step_m!r} m, {self.turn_deg!r} deg")
        if not (0.0 <= self.dwell_fraction <= 1.0):
            raise ValueError(f"dwell_fraction must be in [0, 1], got {self.dwell_fraction!r}")
        if not (0.0 <= self.max_tilt_deg <= 180.0):
            raise ValueError(f"max_tilt_deg must be in [0, 180], got {self.max_tilt_deg!r}")


def generate_walk(cfg: WalkConfig) -> PoseSet:
    """Sample a reproducible scanning-walk PoseSet inside the box."""
    rng = np.random.default_rng(cfg.seed)
    half = np.asarray(cfg.extents, dtype=float) / 2.0
    n = cfg.n_poses
    dwell = rng.random(n) < cfg.dwell_fraction
    scale = np.where(dwell, 0.02, 1.0)
    steps = rng.normal(size=(n, 3)) * (cfg.step_m / np.sqrt(3.0)) * scale[:, None]
    pos = np.empty((n, 3))
    p = rng.uniform(-0.5, 0.5, size=3) * half
    for i in range(n):
        p = p + steps[i]
        # reflect off the walls to stay inside the box
        for k in range(3):
            if half[k] == 0.0:
                p[k] = 0.0
            elif p[k] > half[k]:
                p[k] = 2.0 * half[k] - p[k]
            elif p[k] < -half[k]:
                p[k] = -2.0 * half[k] - p[k]
        pos[i] = p
    turns = rng.normal(size=(n, 3)) * (cfg.turn_deg / np.sqrt(3.0)) * scale[:, None]
    tilt = np.empty((n, 3))
    v = np.zeros(3)
    for i in range(n):
        v = v + turns[i]
        mag = dot_norms(v[None, :])[0]
        if mag > cfg.max_tilt_deg:
            v = v * (cfg.max_tilt_deg / mag)
        tilt[i] = v
    mags = vector_norms(tilt, "l2")
    axes = np.where(mags[:, None] > 0, tilt / np.maximum(mags, 1e-300)[:, None], [0.0, 0.0, 1.0])
    return _synthetic_poses("walk", cfg, axis_angle_rows(axes, mags), pos,
                            f"walk step_m={format(cfg.step_m, 'g')} turn_deg={format(cfg.turn_deg, 'g')} "
                            f"dwell={format(cfg.dwell_fraction, 'g')} "
                            f"max_tilt_deg={format(cfg.max_tilt_deg, 'g')}")


@dataclass(frozen=True)
class SynthPredictor:
    """A synthetic predictor of one of four kinds.

    perfect   ground truth back unchanged
    naive     the mean relative pose of the evaluated pairs (the baseline)
    noisy     ground truth plus zero-mean noise; sigma_t meters on
              translation components and sigma_q_deg on the rotation angle.
              With relative_noise the translation scale is sigma_t times the
              ground-truth norm, mimicking models whose error grows with the
              spanned subspace.
    constant  one fixed relative pose for every pair
    """

    kind: str
    sigma_t: float = 0.0
    sigma_q_deg: float = 0.0
    relative_noise: bool = False
    constant: RelativePose | None = None

    def __post_init__(self):
        if self.kind not in ("perfect", "naive", "noisy", "constant"):
            raise ValueError(f"unknown predictor kind {self.kind!r}")
        if not (0.0 <= self.sigma_t < np.inf and 0.0 <= self.sigma_q_deg < np.inf):
            raise ValueError(f"noise scales must be finite and >= 0, got sigma_t={self.sigma_t!r}, "
                             f"sigma_q_deg={self.sigma_q_deg!r}")
        if self.kind == "constant" and self.constant is None:
            raise ValueError("constant predictor needs a relative pose")

    def describe(self) -> str:
        if self.kind == "noisy":
            mode = "relative" if self.relative_noise else "absolute"
            return (
                f"noisy(sigma_t={format(self.sigma_t, 'g')},"
                f"sigma_q_deg={format(self.sigma_q_deg, 'g')},{mode})"
            )
        return self.kind


def synth_predict(pairs: PairTable, predictor: SynthPredictor, seed: int = 0) -> PairTable:
    """Predictions for every pair, in pair order; deterministic for a seed."""
    if predictor.kind == "naive":
        return metrics.naive_predictor(pairs).predict(pairs)
    n = len(pairs)
    if predictor.kind == "perfect":
        q_hat, t_hat = pairs.rotations, pairs.translations
    elif predictor.kind == "constant":
        rel = predictor.constant
        q_hat = np.broadcast_to(rel.rotation.as_array(), (n, 4))
        t_hat = np.broadcast_to(rel.translation.as_array(), (n, 3))
    else:
        rng = np.random.default_rng(seed)
        t, q = pairs.translations, pairs.rotations
        dt = rng.normal(size=(n, 3)) * predictor.sigma_t
        if predictor.relative_noise:
            dt *= vector_norms(t, "l2")[:, None]
        t_hat = t + dt
        axes = _random_axes(rng, n)
        angles = rng.normal(0.0, predictor.sigma_q_deg, size=n) if predictor.sigma_q_deg > 0 else np.zeros(n)
        q_noise = axis_angle_rows(axes, angles)
        q_hat = normalize_quat_rows(quat_mul_rows(q_noise, q))
    return PairTable(pairs.frame_ids, pairs.anchors, pairs.queries, q_hat, t_hat,
                     config_digest=pairs.config_digest)
