from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from frustoval import Pose, PoseSet, Quaternion, Translation
from frustoval.frustum import _FrustumBatch

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


@contextmanager
def _no_rejects():
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_FrustumBatch, "spheres_meet", lambda self, i, idx: np.ones(idx.size, dtype=bool))
        mp.setattr(_FrustumBatch, "separated", lambda self, i, idx: np.zeros(idx.size, dtype=bool))
        yield


@pytest.fixture
def no_rejects():
    """`with no_rejects(): ...` scores with the sphere and separation rejects
    turned off, so every candidate past the rotation gate is point-tested:
    the reference that reject-equivalence tests compare the kernel against."""
    return _no_rejects
