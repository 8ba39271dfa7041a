"""Seeded input scenes and the reference geometry the output checks rely on.

Nothing here imports frustoval: the inputs and the conversions the checks
compare against must not move when the program changes.

Quaternions are (w, x, y, z); poses map camera to world and the camera looks
along +z, with +y pointing down in the image.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

# upright camera looking along world +x: camera x -> world -y, y -> -z, z -> +x
_UPRIGHT = np.array([[0.0, 0.0, 1.0], [-1.0, 0.0, 0.0], [0.0, -1.0, 0.0]])


def quat_to_matrix(q: np.ndarray) -> np.ndarray:
    """(..., 4) wxyz -> (..., 3, 3), by the textbook formula (no normalisation)."""
    w, x, y, z = np.moveaxis(np.asarray(q, dtype=float), -1, 0)
    return np.stack(
        [
            np.stack([1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)], -1),
            np.stack([2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)], -1),
            np.stack([2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)], -1),
        ],
        -2,
    )


def matrix_to_quat(m: np.ndarray) -> np.ndarray:
    """(N, 3, 3) rotations -> (N, 4) unit quaternions with w >= 0.

    Takes the largest of the four squared components as the pivot, which
    keeps every division well conditioned.
    """
    m = np.asarray(m, dtype=float)
    tr = np.trace(m, axis1=1, axis2=2)
    sq = np.stack(
        [1 + tr, 1 + 2 * m[:, 0, 0] - tr, 1 + 2 * m[:, 1, 1] - tr, 1 + 2 * m[:, 2, 2] - tr], 1
    )
    k = np.argmax(sq, axis=1)
    rows = np.arange(len(m))
    skew = np.stack([m[:, 2, 1] - m[:, 1, 2], m[:, 0, 2] - m[:, 2, 0], m[:, 1, 0] - m[:, 0, 1]], 1)
    sym = np.stack([m[:, 0, 1] + m[:, 1, 0], m[:, 0, 2] + m[:, 2, 0], m[:, 1, 2] + m[:, 2, 1]], 1)
    # for pivot k, row k of this table is proportional to q (w first); the
    # normalisation below removes the scale
    parts = np.stack(
        [
            np.stack([sq[:, 0], skew[:, 0], skew[:, 1], skew[:, 2]], 1),
            np.stack([skew[:, 0], sq[:, 1], sym[:, 0], sym[:, 1]], 1),
            np.stack([skew[:, 1], sym[:, 0], sq[:, 2], sym[:, 2]], 1),
            np.stack([skew[:, 2], sym[:, 1], sym[:, 2], sq[:, 3]], 1),
        ],
        1,
    )
    q = parts[rows, k]
    q /= np.linalg.norm(q, axis=1, keepdims=True)
    q[q[:, 0] < 0] *= -1.0
    return q


def axis_angle_matrix(axes: np.ndarray, angles_rad: np.ndarray) -> np.ndarray:
    """Rodrigues rotation for (N, 3) unit axes and (N,) angles."""
    k = np.zeros((len(axes), 3, 3))
    k[:, 0, 1], k[:, 0, 2], k[:, 1, 2] = -axes[:, 2], axes[:, 1], -axes[:, 0]
    k[:, 1, 0], k[:, 2, 0], k[:, 2, 1] = axes[:, 2], -axes[:, 1], axes[:, 0]
    s, c = np.sin(angles_rad)[:, None, None], np.cos(angles_rad)[:, None, None]
    return np.eye(3) + s * k + (1 - c) * (k @ k)


def _upright(yaw_rad, pitch_rad, roll_rad):
    """Camera-to-world rotations: heading about world z, then small pitch and roll."""
    n = len(yaw_rad)
    z, y, x = np.tile([0.0, 0.0, 1.0], (n, 1)), np.tile([0.0, 1.0, 0.0], (n, 1)), np.tile([1.0, 0.0, 0.0], (n, 1))
    r = axis_angle_matrix(z, yaw_rad) @ axis_angle_matrix(y, pitch_rad) @ axis_angle_matrix(x, roll_rad)
    return r @ _UPRIGHT


# ---------------------------------------------------------------------------
# outdoor street scene, Cambridge Landmarks format
# ---------------------------------------------------------------------------


def street_scene(seed: int, n: int, extents=(400.0, 200.0)):
    """Upright cameras at uniform positions and uniform heading in a flat street block.

    Returns (frame names, (N, 3, 3) camera-to-world rotations, (N, 3) centres).
    """
    rng = np.random.default_rng([seed, 1])
    xy = (rng.random((n, 2)) - 0.5) * np.asarray(extents)
    z = 1.6 + rng.normal(0.0, 0.1, n)
    yaw = rng.uniform(0.0, 2.0 * np.pi, n)
    pitch = np.radians(rng.normal(0.0, 1.0, n))
    roll = np.radians(rng.normal(0.0, 1.0, n))
    names = [f"seq{1 + i // 500}/frame{i % 500 + 1:05d}" for i in range(n)]
    return names, _upright(yaw, pitch, roll), np.column_stack([xy, z])


def write_cambridge(path: Path, names, rot_c2w, centres, conjugate: bool = True):
    """dataset_train.txt: `image x y z w p q r`, camera centre plus world-to-camera quaternion.

    `conjugate=False` writes the camera-to-world quaternion instead, which is
    the mistake the ingest check exists to catch.
    """
    q = matrix_to_quat(rot_c2w)
    if conjugate:
        q = q * np.array([1.0, -1.0, -1.0, -1.0])
    lines = ["Visual Landmark Dataset V1", "ImageFile, Camera Position [X Y Z W P Q R]", ""]
    for name, c, qq in zip(names, centres, q):
        nums = " ".join(repr(float(v)) for v in (*c, *qq))
        lines.append(f"{name}.png {nums}")
    Path(path).write_text("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# handheld scanning walk, 7-Scenes format
# ---------------------------------------------------------------------------


def walk_scene(seed: int, sequence: int, n: int, extents=(3.0, 2.0, 1.0), step_m=0.06,
               turn_deg=4.0, dwell_fraction=0.4, max_yaw_deg=30.0, max_tilt_deg=10.0):
    """A smooth random walk through a box, looking along +x with drifting heading.

    40% of the steps shrink 50-fold, so the walk dwells and leaves
    near-duplicate frames, as video capture does. Positions reflect off the
    walls. The heading stays within 30 degrees of +x, which keeps the number
    of overlapping pairs, and so the chain's work, nearly the same for every
    seed. Returns ((N, 3, 3) camera-to-world rotations, (N, 3) positions).
    """
    rng = np.random.default_rng([seed, 2, sequence])
    half = np.asarray(extents, dtype=float) / 2.0
    scale = np.where(rng.random(n) < dwell_fraction, 0.02, 1.0)
    steps = rng.normal(size=(n, 3)) * (step_m / np.sqrt(3.0)) * scale[:, None]
    turns = rng.normal(size=(n, 3)) * np.radians(turn_deg) * scale[:, None]
    pos = np.empty((n, 3))
    ang = np.empty((n, 3))
    p = (rng.random(3) - 0.5) * half
    a = np.zeros(3)
    limit = np.radians([max_yaw_deg, max_tilt_deg, max_tilt_deg])
    for i in range(n):
        p = p + steps[i]
        p = np.where(p > half, 2 * half - p, p)
        p = np.where(p < -half, -2 * half - p, p)
        a = np.clip(a + turns[i], -limit, limit)
        pos[i], ang[i] = p, a
    return _upright(ang[:, 0], ang[:, 1], ang[:, 2]), pos


def write_sevenscenes_sequence(seq_dir: Path, rot_c2w, positions):
    """frame-NNNNNN.pose.txt files, each a 4x4 camera-to-world matrix."""
    seq_dir.mkdir(parents=True, exist_ok=True)
    for i, (r, t) in enumerate(zip(rot_c2w, positions)):
        m = np.eye(4)
        m[:3, :3], m[:3, 3] = r, t
        rows = ["\t".join(f"{v:.17g}" for v in row) for row in m]
        (seq_dir / f"frame-{i:06d}.pose.txt").write_text("\n".join(rows) + "\n")
