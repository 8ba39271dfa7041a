import math
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from frustoval import Pose, PoseSet, Quaternion, Translation
from frustoval.frustum import _FrustumBatch, camera_grid
from frustoval.geometry import axis_angle_rows, matrix_to_quat_rows, quat_mul_rows

FIXTURES = Path(__file__).parent / "fixtures"


def random_quat(rng) -> Quaternion:
    """Uniform random rotation (Gaussian 4-vector normalized)."""
    v = rng.normal(size=4)
    return Quaternion.unit(*v)


def random_pose(rng, box=2.0, frame_id="") -> Pose:
    t = rng.uniform(-box, box, size=3)
    return Pose(rotation=random_quat(rng), translation=Translation(*t), frame_id=frame_id)


def pose_set(scene_name, split, poses, source_format="canonical") -> PoseSet:
    """A PoseSet of Pose objects, for tests that describe their poses one by one."""
    return PoseSet(scene_name, split, [p.frame_id for p in poses],
                   [p.rotation.as_array() for p in poses], [p.translation.as_array() for p in poses],
                   source_format)


def pose_rows(ps: PoseSet) -> list:
    """The rows of a PoseSet as Pose objects, in frame-id order: the inputs of
    the scalar-oracle loops."""
    return [Pose(Quaternion(*q), Translation(*t), f)
            for f, q, t in zip(ps.frame_ids, ps.rotations.tolist(), ps.translations.tolist())]


def world_lattice(*poses, spec) -> np.ndarray:
    """Each pose's probe lattice in world coordinates, shape (len(poses),
    n_points, 3): camera_grid(spec) @ R.T + t. The kernel tests points in
    the camera frame and never builds this."""
    return np.stack([camera_grid(spec) @ p.rotation.to_matrix().T + p.translation.as_array() for p in poses])


def street_poses(n: int, seed: int = 1) -> PoseSet:
    """An outdoor street block with 1,200 cameras per 400 x 200 m: uniform
    positions about 1.6 m above the ground and uniform heading, each camera
    upright (looking horizontally, image y down) with about 1 degree of pitch
    and roll."""
    rng = np.random.default_rng([seed, 1])
    xy = (rng.random((n, 2)) - 0.5) * (np.array([400.0, 200.0]) * math.sqrt(n / 1200))
    z = 1.6 + rng.normal(0.0, 0.1, n)
    axes = np.eye(3)
    # camera x -> world -y, y -> -z, z -> +x
    upright = matrix_to_quat_rows(np.array([[[0.0, 0.0, 1.0], [-1.0, 0.0, 0.0], [0.0, -1.0, 0.0]]]))
    q = np.repeat(upright, n, axis=0)
    for axis, angles in ((0, rng.normal(0.0, 1.0, n)), (1, rng.normal(0.0, 1.0, n)),
                         (2, rng.uniform(0.0, 360.0, n))):  # roll, pitch, then heading
        q = quat_mul_rows(axis_angle_rows(np.tile(axes[axis], (n, 1)), angles), q)
    return PoseSet("street", "train", [f"frame{i:06d}" for i in range(n)], q, np.column_stack([xy, z]))


def oracle_matrix(transform) -> np.ndarray:
    """4x4 homogeneous matrix of a transform, built from its unit quaternion
    without any frustoval code."""
    q = transform.rotation
    w, x, y, z = q.w, q.x, q.y, q.z
    r = np.array(
        [
            [w * w + x * x - y * y - z * z, 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), w * w - x * x + y * y - z * z, 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), w * w - x * x - y * y + z * z],
        ]
    )
    m = np.eye(4)
    m[:3, :3] = r
    m[:3, 3] = transform.translation.as_array()
    return m


def oracle_relative(anchor, query) -> np.ndarray:
    """inverse(anchor) * query as a 4x4 matrix product."""
    return np.linalg.inv(oracle_matrix(anchor)) @ oracle_matrix(query)


def assert_transform_close(a, b, tol=1e-9):
    """Componentwise closeness of two transforms, sign-resolving the rotation."""
    qa, qb = a.rotation, b.rotation
    sign = 1.0 if qa.dot(qb) >= 0 else -1.0
    np.testing.assert_allclose(qa.as_array(), sign * qb.as_array(), atol=tol)
    np.testing.assert_allclose(
        a.translation.as_array(), b.translation.as_array(), atol=tol
    )


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def all_pairs(batch, lo, hi):
    """grid_candidates without the grid: one run of every pose per anchor."""
    return np.arange(batch.n), np.zeros((hi - lo, 1), dtype=np.int64), np.full((hi - lo, 1), batch.n)


@contextmanager
def without_rejects():
    """Score with the grid, sphere, separation and window rejects turned off:
    every distinct pair past the rotation gate is point-tested, whatever the
    overlap window."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_FrustumBatch, "grid_candidates", all_pairs)
        mp.setattr(_FrustumBatch, "spheres_meet", lambda self, a, q: np.ones(a.size, dtype=bool))
        mp.setattr(_FrustumBatch, "separated", lambda self, a, q: np.zeros(a.size, dtype=bool))
        mp.setattr(_FrustumBatch, "count_bounds", lambda self, a, q: np.full(a.size, self.n_points))
        yield


@pytest.fixture
def no_rejects():
    """`with no_rejects(): ...` scores with the grid, sphere, separation and
    window rejects turned off, so every pair past the rotation gate is
    point-tested: the reference that reject-equivalence tests compare the
    kernel against."""
    return without_rejects
