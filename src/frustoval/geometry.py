"""Rigid-body math: quaternions, camera poses, relative transforms, and the
per-pair error primitives the evaluation metrics are built on.

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

import math
from dataclasses import dataclass

import numpy as np

# |w^2+x^2+y^2+z^2 - 1| stays below this after any normalizing operation.
UNIT_NORM_TOL = 1e-9

# |pitch| within this many degrees of 90 is reported as gimbal-locked.
GIMBAL_TOL_DEG = 1e-6


def _canonical_sign(w, x, y, z):
    """Flip to the w >= 0 hemisphere, with a lexicographic tie-break at w == 0."""
    if w < 0.0:
        return -w, -x, -y, -z
    if w == 0.0:
        for c in (x, y, z):
            if c > 0.0:
                break
            if c < 0.0:
                return -w, -x, -y, -z
    return w, x, y, z


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
        n = float(np.linalg.norm(ax))
        if n == 0.0:
            raise ValueError("rotation axis must be non-zero")
        half = math.radians(angle_deg) / 2.0
        s = math.sin(half) / n
        return cls.unit(math.cos(half), ax[0] * s, ax[1] * s, ax[2] * s)

    @classmethod
    def from_matrix(cls, m) -> "Quaternion":
        """Nearest unit quaternion for a 3x3 rotation matrix (Shepperd's method)."""
        m = np.asarray(m, dtype=float)
        t = m[0, 0] + m[1, 1] + m[2, 2]
        if t > 0.0:
            s = math.sqrt(t + 1.0) * 2.0
            w = 0.25 * s
            x = (m[2, 1] - m[1, 2]) / s
            y = (m[0, 2] - m[2, 0]) / s
            z = (m[1, 0] - m[0, 1]) / s
        elif m[0, 0] >= m[1, 1] and m[0, 0] >= m[2, 2]:
            s = math.sqrt(1.0 + m[0, 0] - m[1, 1] - m[2, 2]) * 2.0
            w = (m[2, 1] - m[1, 2]) / s
            x = 0.25 * s
            y = (m[0, 1] + m[1, 0]) / s
            z = (m[0, 2] + m[2, 0]) / s
        elif m[1, 1] >= m[2, 2]:
            s = math.sqrt(1.0 + m[1, 1] - m[0, 0] - m[2, 2]) * 2.0
            w = (m[0, 2] - m[2, 0]) / s
            x = (m[0, 1] + m[1, 0]) / s
            y = 0.25 * s
            z = (m[1, 2] + m[2, 1]) / s
        else:
            s = math.sqrt(1.0 + m[2, 2] - m[0, 0] - m[1, 1]) * 2.0
            w = (m[1, 0] - m[0, 1]) / s
            x = (m[0, 2] + m[2, 0]) / s
            y = (m[1, 2] + m[2, 1]) / s
            z = 0.25 * s
        return cls.unit(w, x, y, z)

    def norm(self) -> float:
        return math.sqrt(self.w * self.w + self.x * self.x + self.y * self.y + self.z * self.z)

    def normalized(self) -> "Quaternion":
        n = self.norm()
        if n == 0.0:
            raise ValueError("cannot normalize a zero quaternion")
        w, x, y, z = _canonical_sign(self.w / n, self.x / n, self.y / n, self.z / n)
        return Quaternion(w, x, y, z)

    def conjugate(self) -> "Quaternion":
        return Quaternion(self.w, -self.x, -self.y, -self.z)

    def dot(self, other: "Quaternion") -> float:
        return self.w * other.w + self.x * other.x + self.y * other.y + self.z * other.z

    def __mul__(self, o: "Quaternion") -> "Quaternion":
        # Hamilton product; callers renormalize where unit output is promised.
        return Quaternion(
            self.w * o.w - self.x * o.x - self.y * o.y - self.z * o.z,
            self.w * o.x + self.x * o.w + self.y * o.z - self.z * o.y,
            self.w * o.y - self.x * o.z + self.y * o.w + self.z * o.x,
            self.w * o.z + self.x * o.y - self.y * o.x + self.z * o.w,
        )

    def rotate(self, v) -> np.ndarray:
        """Rotate a 3-vector."""
        v = np.asarray(v, dtype=float)
        u = np.array([self.x, self.y, self.z])
        t = 2.0 * np.cross(u, v)
        return v + self.w * t + np.cross(u, t)

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
    """Query pose expressed in the anchor camera frame: inverse(anchor) * query."""
    return compose(inverse(anchor), query)


def translation_error(t: Translation, t_hat: Translation, norm: str = "l2") -> float:
    """Distance between a translation and its estimate, in meters."""
    d = t.as_array() - t_hat.as_array()
    norm = norm.lower()
    if norm == "l2":
        return float(np.linalg.norm(d))
    if norm == "l1":
        return float(np.abs(d).sum())
    raise ValueError(f"unknown norm {norm!r}; expected 'l1' or 'l2'")


def rotation_error(q: Quaternion, q_hat: Quaternion) -> float:
    """Geodesic angle between two rotations in degrees, in [0, 180].

    The dot product is taken in absolute value so q and -q compare equal,
    then clamped before acos to stay inside its domain.
    """
    d = min(abs(q.dot(q_hat)), 1.0)
    return math.degrees(2.0 * math.acos(d))


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
# Row-vectorized twins of the scalar operations. The pair pipeline and metric
# reductions work on (N, 4) quaternion and (N, 3) translation arrays built
# once from the domain objects.
# ---------------------------------------------------------------------------


def quat_rows(quaternions) -> np.ndarray:
    """Stack Quaternion objects into an (N, 4) wxyz array."""
    return np.array([[q.w, q.x, q.y, q.z] for q in quaternions], dtype=float).reshape(-1, 4)


def translation_rows(translations) -> np.ndarray:
    return np.array([[t.x, t.y, t.z] for t in translations], dtype=float).reshape(-1, 3)


def normalize_quat_rows(rows: np.ndarray) -> np.ndarray:
    """Unit-normalize rows and resolve the sign the same way normalized() does."""
    rows = np.asarray(rows, dtype=float)
    n = np.linalg.norm(rows, axis=1, keepdims=True)
    if np.any(n == 0.0):
        raise ValueError("cannot normalize a zero quaternion")
    return canonical_sign_rows(rows / n)


def canonical_sign_rows(rows: np.ndarray) -> np.ndarray:
    """Flip rows in place to the w >= 0 hemisphere with normalized()'s
    lexicographic tie-break at w == 0; returns them."""
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
    """Row-wise rotation_error in degrees between (N, 4) arrays."""
    d = np.minimum(np.abs(np.sum(a * b, axis=-1)), 1.0)
    return np.degrees(2.0 * np.arccos(d))


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
