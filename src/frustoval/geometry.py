"""Rigid-body math: quaternions, camera poses, relative transforms, and the
per-pair error primitives the evaluation metrics are built on.

Each operation is implemented once, as a row function over (N, 4) quaternion
and (N, 3) translation arrays; the scalar types call it with a single row.

Conventions (echoed into every output file header):

* quaternions are stored ``(w, x, y, z)``, unit norm, with ``w >= 0`` so the
  double cover is resolved at storage time;
* poses map camera coordinates to world coordinates;
* the relative transform of an (anchor, query) pair is
  ``inverse(anchor) * query``, i.e. the query pose expressed in the anchor
  camera frame;
* Euler angles are intrinsic Z-Y-X (yaw, pitch, roll) in degrees, with pitch
  restricted to [-90, 90].
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# |w^2+x^2+y^2+z^2 - 1| stays below this after any normalizing operation.
UNIT_NORM_TOL = 1e-9

# |pitch| within this many degrees of 90 is reported as gimbal-locked.
GIMBAL_TOL_DEG = 1e-6


@dataclass(frozen=True)
class Quaternion:
    """Rotation as a unit quaternion, component order (w, x, y, z)."""

    w: float
    x: float
    y: float
    z: float

    @staticmethod
    def identity() -> "Quaternion":
        return Quaternion(1.0, 0.0, 0.0, 0.0)

    @classmethod
    def unit(cls, w: float, x: float, y: float, z: float) -> "Quaternion":
        """Construct from arbitrary components, normalizing and resolving the sign."""
        return cls(w, x, y, z).normalized()

    @classmethod
    def from_axis_angle(cls, axis, angle_deg: float) -> "Quaternion":
        ax = np.asarray(axis, dtype=float)
        n = vector_norms(ax, "l2")
        if n == 0.0:
            raise ValueError("rotation axis must be non-zero")
        return cls(*axis_angle_rows((ax / n)[None, :], np.array([angle_deg]))[0].tolist())

    @classmethod
    def from_matrix(cls, m) -> "Quaternion":
        """Nearest unit quaternion for a 3x3 rotation matrix (Shepperd's method)."""
        return cls(*matrix_to_quat_rows(np.asarray(m, dtype=float)[None])[0].tolist())

    def norm(self) -> float:
        return float(vector_norms(self.as_array(), "l2"))

    def normalized(self) -> "Quaternion":
        """Unit norm, with the sign resolved to the w >= 0 hemisphere."""
        return Quaternion(*normalize_quat_rows(self.as_array()[None, :])[0].tolist())

    def conjugate(self) -> "Quaternion":
        return Quaternion(self.w, -self.x, -self.y, -self.z)

    def dot(self, other: "Quaternion") -> float:
        return self.w * other.w + self.x * other.x + self.y * other.y + self.z * other.z

    def __mul__(self, o: "Quaternion") -> "Quaternion":
        # Hamilton product; callers renormalize where unit output is promised.
        return Quaternion(*quat_mul_rows(self.as_array()[None, :], o.as_array()[None, :])[0].tolist())

    def rotate(self, v) -> np.ndarray:
        """Rotate a 3-vector."""
        return self.to_matrix() @ np.asarray(v, dtype=float)

    def to_matrix(self) -> np.ndarray:
        return quats_to_matrices(self.as_array()[None, :])[0]

    def as_array(self) -> np.ndarray:
        return np.array([self.w, self.x, self.y, self.z])


@dataclass(frozen=True)
class Translation:
    """Position offset in meters."""

    x: float
    y: float
    z: float

    @staticmethod
    def zero() -> "Translation":
        return Translation(0.0, 0.0, 0.0)

    @classmethod
    def from_array(cls, a) -> "Translation":
        return cls(float(a[0]), float(a[1]), float(a[2]))

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z])


@dataclass(frozen=True)
class Pose:
    """Camera-to-world rigid transform for one frame."""

    rotation: Quaternion
    translation: Translation
    frame_id: str = ""


@dataclass(frozen=True)
class RelativePose:
    """Rigid transform between two camera frames (query in anchor coordinates)."""

    rotation: Quaternion
    translation: Translation

    @staticmethod
    def identity() -> "RelativePose":
        return RelativePose(Quaternion.identity(), Translation.zero())


def compose(a, b) -> RelativePose:
    """Composition a*b: the transform applying b first, then a.

    Accepts any mix of Pose / RelativePose; the result's rotation is
    renormalized to the canonical hemisphere.
    """
    q = (a.rotation * b.rotation).normalized()
    t = a.rotation.rotate(b.translation.as_array()) + a.translation.as_array()
    return RelativePose(q, Translation.from_array(t))


def inverse(t) -> RelativePose:
    """Inverse of a Pose or RelativePose."""
    qc = t.rotation.conjugate().normalized()
    return RelativePose(qc, Translation.from_array(-qc.rotate(t.translation.as_array())))


def relative(anchor: Pose, query: Pose) -> RelativePose:
    """Query pose expressed in the anchor camera frame: inverse(anchor) * query.

    The one-row case of `relative_rows`, so it equals the pair file's row.
    """
    q, t = relative_rows(np.stack([anchor.rotation.as_array(), query.rotation.as_array()]),
                         np.stack([anchor.translation.as_array(), query.translation.as_array()]),
                         np.array([0]), np.array([1]))
    return RelativePose(Quaternion(*q[0].tolist()), Translation.from_array(t[0]))


def translation_error(t: Translation, t_hat: Translation, norm: str = "l2") -> float:
    """Distance between a translation and its estimate, in meters."""
    return float(vector_norms(t.as_array() - t_hat.as_array(), norm))


def rotation_error(q: Quaternion, q_hat: Quaternion) -> float:
    """Geodesic angle between two rotations in degrees, in [0, 180]."""
    return float(quat_angle_deg_rows(q.as_array()[None, :], q_hat.as_array()[None, :])[0])


@dataclass(frozen=True)
class EulerAngles:
    """Intrinsic Z-Y-X decomposition in degrees; pitch in [-90, 90]."""

    yaw: float
    pitch: float
    roll: float
    gimbal_locked: bool = False

    def as_array(self) -> np.ndarray:
        return np.array([self.yaw, self.pitch, self.roll])


def to_euler(q: Quaternion) -> EulerAngles:
    """Decompose into (yaw, pitch, roll) degrees; flags gimbal-locked inputs."""
    ypr, locked = euler_zyx_deg_rows(q.as_array()[None, :])
    return EulerAngles(float(ypr[0, 0]), float(ypr[0, 1]), float(ypr[0, 2]), bool(locked[0]))


def from_euler(yaw_deg: float, pitch_deg: float, roll_deg: float) -> Quaternion:
    """Quaternion for intrinsic Z-Y-X angles in degrees."""
    qz = Quaternion.from_axis_angle((0, 0, 1), yaw_deg)
    qy = Quaternion.from_axis_angle((0, 1, 0), pitch_deg)
    qx = Quaternion.from_axis_angle((1, 0, 0), roll_deg)
    return (qz * qy * qx).normalized()


# ---------------------------------------------------------------------------
# Row functions: the one implementation of each operation above. They work on
# (N, 4) quaternion and (N, 3) translation arrays, which is how the pair
# pipeline and the metric reductions hold poses; the scalar types call them
# with one row, so a scalar result equals its row in a pair set bit for bit.
# ---------------------------------------------------------------------------


def quat_rows(quaternions) -> np.ndarray:
    """Stack Quaternion objects into an (N, 4) wxyz array."""
    return np.array([[q.w, q.x, q.y, q.z] for q in quaternions], dtype=float).reshape(-1, 4)


def translation_rows(translations) -> np.ndarray:
    return np.array([[t.x, t.y, t.z] for t in translations], dtype=float).reshape(-1, 3)


def vector_norms(rows: np.ndarray, norm: str) -> np.ndarray:
    """L1 or L2 norm along the last axis: of each row, or of one vector."""
    if norm.lower() == "l2":
        return np.linalg.norm(rows, axis=-1)
    if norm.lower() == "l1":
        return np.abs(rows).sum(axis=-1)
    raise ValueError(f"unknown norm {norm!r}; expected 'l1' or 'l2'")


def dot_norms(rows: np.ndarray) -> np.ndarray:
    """L2 norm of each row from one dot product per row, the rounding of
    np.linalg.norm on a single vector. It differs from vector_norms' "l2"
    (a reduction over the squares) in the last bit on about one row in nine;
    the subspace statistics are defined with this one."""
    return np.sqrt((rows[:, None, :] @ rows[:, :, None]).reshape(-1))


def normalize_quat_rows(rows: np.ndarray) -> np.ndarray:
    """Unit-normalize rows and flip them to the w >= 0 hemisphere, with a
    lexicographic tie-break at w == 0."""
    rows = np.asarray(rows, dtype=float)
    n = vector_norms(rows, "l2")[:, None]
    if np.any(n == 0.0):
        raise ValueError("cannot normalize a zero quaternion")
    rows = rows / n
    w, x, y, z = rows.T
    flip = (w < 0) | ((w == 0) & ((x < 0) | ((x == 0) & ((y < 0) | ((y == 0) & (z < 0))))))
    rows[flip] *= -1.0
    return rows


def quat_mul_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise Hamilton product of (N, 4) arrays."""
    aw, ax, ay, az = a[:, 0], a[:, 1], a[:, 2], a[:, 3]
    bw, bx, by, bz = b[:, 0], b[:, 1], b[:, 2], b[:, 3]
    return np.stack(
        [
            aw * bw - ax * bx - ay * by - az * bz,
            aw * bx + ax * bw + ay * bz - az * by,
            aw * by - ax * bz + ay * bw + az * bx,
            aw * bz + ax * by - ay * bx + az * bw,
        ],
        axis=-1,
    )


def quat_conj_rows(rows: np.ndarray) -> np.ndarray:
    out = np.array(rows, dtype=float)
    out[:, 1:] *= -1.0
    return out


def quats_to_matrices(rows: np.ndarray) -> np.ndarray:
    """(N, 4) wxyz -> (N, 3, 3) rotation matrices."""
    w, x, y, z = rows[:, 0], rows[:, 1], rows[:, 2], rows[:, 3]
    m = np.empty(rows.shape[:-1] + (3, 3))
    m[:, 0, 0] = 1 - 2 * (y * y + z * z)
    m[:, 0, 1] = 2 * (x * y - w * z)
    m[:, 0, 2] = 2 * (x * z + w * y)
    m[:, 1, 0] = 2 * (x * y + w * z)
    m[:, 1, 1] = 1 - 2 * (x * x + z * z)
    m[:, 1, 2] = 2 * (y * z - w * x)
    m[:, 2, 0] = 2 * (x * z - w * y)
    m[:, 2, 1] = 2 * (y * z + w * x)
    m[:, 2, 2] = 1 - 2 * (x * x + y * y)
    return m


def quat_angle_deg_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise geodesic angle in degrees between (N, 4) arrays.

    The dot product is taken in absolute value so q and -q compare equal,
    then clamped before acos to stay inside its domain.
    """
    d = np.minimum(np.abs(np.sum(a * b, axis=-1)), 1.0)
    return np.degrees(2.0 * np.arccos(d))


def matrix_to_quat_rows(m: np.ndarray) -> np.ndarray:
    """(N, 3, 3) rotation matrices -> (N, 4) unit wxyz rows by Shepperd's method.

    A row takes branch 0 (w) when its trace is positive, else the branch of
    its largest diagonal entry (x, y or z). In branch b, k[b, b] is the
    radicand, s = 2 sqrt(k[b, b]), component b is s / 4 and every other
    component j is k[b, j] / s.
    """
    (m00, m01, m02), (m10, m11, m12), (m20, m21, m22) = np.moveaxis(m, (1, 2), (0, 1))
    k = np.empty(m.shape[:1] + (4, 4))
    k[:, 0, 0] = m00 + m11 + m22 + 1.0
    k[:, 1, 1] = 1.0 + m00 - m11 - m22
    k[:, 2, 2] = 1.0 + m11 - m00 - m22
    k[:, 3, 3] = 1.0 + m22 - m00 - m11
    k[:, 0, 1] = k[:, 1, 0] = m21 - m12
    k[:, 0, 2] = k[:, 2, 0] = m02 - m20
    k[:, 0, 3] = k[:, 3, 0] = m10 - m01
    k[:, 1, 2] = k[:, 2, 1] = m01 + m10
    k[:, 1, 3] = k[:, 3, 1] = m02 + m20
    k[:, 2, 3] = k[:, 3, 2] = m12 + m21
    branch = np.where(m00 + m11 + m22 > 0.0, 0,
                      np.where((m00 >= m11) & (m00 >= m22), 1, np.where(m11 >= m22, 2, 3)))
    rows = np.arange(len(m))
    s = np.sqrt(k[rows, branch, branch]) * 2.0
    q = k[rows, branch] / s[:, None]
    q[rows, branch] = 0.25 * s
    return normalize_quat_rows(q)


def axis_angle_rows(axes: np.ndarray, angles_deg: np.ndarray) -> np.ndarray:
    """(N, 4) unit quaternions turning by angles_deg about (N, 3) unit axes."""
    half = np.radians(angles_deg) / 2.0
    q = np.concatenate([np.cos(half)[:, None], np.sin(half)[:, None] * axes], axis=1)
    return normalize_quat_rows(q)


def relative_rows(quats: np.ndarray, trans: np.ndarray, anchors: np.ndarray, queries: np.ndarray):
    """inverse(a) * b for each (anchors[k], queries[k]) index pair into
    (N, 4) wxyz and (N, 3) pose rows: ((M, 4) rotations, (M, 3) translations).

    Rotations are elementwise. Adjacent pairs of one anchor share one
    (tb - ta) @ R_a product, with R_a built once per run of them; adjacency
    saves time and is not required.
    """
    q_rel = quat_mul_rows(quat_conj_rows(quats[anchors]), quats[queries])
    t_rel = np.empty((len(anchors), 3))
    first = np.flatnonzero(np.diff(anchors, prepend=-1))
    for r, lo, hi in zip(quats_to_matrices(quats[anchors[first]]), first, [*first[1:], len(anchors)]):
        t_rel[lo:hi] = (trans[queries[lo:hi]] - trans[anchors[lo]]) @ r
    return normalize_quat_rows(q_rel), t_rel


def euler_zyx_deg_rows(rows: np.ndarray):
    """(N, 4) wxyz -> ((N, 3) yaw/pitch/roll degrees, (N,) gimbal-lock mask).

    At the singularity only yaw - roll (or yaw + roll) is observable; roll is
    reported as 0 there and the row is flagged so callers can exclude it.
    """
    w, x, y, z = rows[:, 0], rows[:, 1], rows[:, 2], rows[:, 3]
    s = np.clip(2.0 * (w * y - x * z), -1.0, 1.0)
    pitch = np.degrees(np.arcsin(s))
    yaw = np.degrees(np.arctan2(2.0 * (x * y + w * z), 1.0 - 2.0 * (y * y + z * z)))
    roll = np.degrees(np.arctan2(2.0 * (y * z + w * x), 1.0 - 2.0 * (x * x + y * y)))
    locked = np.abs(pitch) >= 90.0 - GIMBAL_TOL_DEG
    if np.any(locked):
        # r01 = 2(xy - wz), r11 = 1 - 2(xx + zz)
        yaw_lock = np.degrees(np.arctan2(-2.0 * (x * y - w * z), 1.0 - 2.0 * (x * x + z * z)))
        yaw = np.where(locked, yaw_lock, yaw)
        roll = np.where(locked, 0.0, roll)
    return np.stack([yaw, pitch, roll], axis=-1), locked
