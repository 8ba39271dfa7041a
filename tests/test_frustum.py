"""Frustum construction and overlap scoring against camera-frame oracles."""

import math

import numpy as np
import pytest

from frustoval import (
    FrustumSpec,
    OverlapConfig,
    Pose,
    Quaternion,
    Translation,
    compose,
    overlap_score,
)
from frustoval.frustum import _FrustumBatch, camera_grid
from frustoval.geometry import quat_rows, translation_rows

from conftest import random_pose

IDENT = Pose(Quaternion.identity(), Translation(0, 0, 0), "ident")


def batch_of(*poses, spec=FrustumSpec()):
    """The scoring kernel's world-space frustum data for the given poses."""
    return _FrustumBatch(quat_rows(p.rotation for p in poses), translation_rows(p.translation for p in poses),
                         OverlapConfig(frustum=spec))


def plane_distances(batch, k, points):
    """Signed distance of each point to each of pose k's planes, shape (..., 6)."""
    return np.asarray(points, dtype=float) @ batch.normals[k].T + batch.offsets[k]


def kernel_contains(batch, k, points):
    """Pose k's containment verdicts in the kernel's form, n.p >= threshold."""
    return np.all(np.atleast_2d(points) @ batch.normals[k].T >= batch.thresholds[k], axis=-1)


# -----------------------------------------------------------------------
# oracle: containment via camera-frame depth and angular bounds, with the
# same epsilon-in-meters semantics as the plane distances
# -----------------------------------------------------------------------


def oracle_contains(pose, spec, points):
    points = np.atleast_2d(np.asarray(points, dtype=float))
    r = pose.rotation.to_matrix()
    t = pose.translation.as_array()
    p = (points - t) @ r  # world -> camera
    x, y, z = p[:, 0], p[:, 1], p[:, 2]
    ta = math.tan(math.radians(spec.hfov_deg) / 2.0)
    tb = math.tan(math.radians(spec.vfov_deg) / 2.0)
    ca = math.cos(math.atan(ta))
    cb = math.cos(math.atan(tb))
    eps = spec.boundary_epsilon
    ok = (z - spec.near >= -eps) & (spec.far - z >= -eps)
    ok &= ((z * ta - x) * ca >= -eps) & ((z * ta + x) * ca >= -eps)
    ok &= ((z * tb - y) * cb >= -eps) & ((z * tb + y) * cb >= -eps)
    return ok


def oracle_overlap(anchor, other, cfg):
    """Independent brute-force count of other's lattice inside anchor's volume."""
    from frustoval.geometry import rotation_error

    if rotation_error(anchor.rotation, other.rotation) > cfg.max_relative_rotation_deg:
        return 0.0
    spec = cfg.frustum
    # rebuild the lattice by hand
    ta = math.tan(math.radians(spec.hfov_deg) / 2.0)
    tb = math.tan(math.radians(spec.vfov_deg) / 2.0)
    pts = []
    for z in np.linspace(spec.near, spec.far, spec.grid_nz):
        for uy in np.linspace(-1.0, 1.0, spec.grid_ny):
            for ux in np.linspace(-1.0, 1.0, spec.grid_nx):
                pts.append([z * ta * ux, z * tb * uy, z])
    pts = np.array(pts)
    r = other.rotation.to_matrix()
    world = pts @ r.T + other.translation.as_array()
    count = int(oracle_contains(anchor, spec, world).sum())
    score = count / spec.n_points
    if cfg.symmetric:
        rev = OverlapConfig(
            frustum=spec, max_relative_rotation_deg=cfg.max_relative_rotation_deg
        )
        score = min(score, oracle_overlap(other, anchor, rev))
    return score


class TestFrustumSpec:
    def test_defaults_valid(self):
        spec = FrustumSpec()
        assert spec.n_points == 512

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(hfov_deg=0.0),
            dict(hfov_deg=180.0),
            dict(vfov_deg=-10.0),
            dict(near=0.0),
            dict(near=5.0, far=4.0),
            dict(grid_nx=1),
            dict(boundary_epsilon=-1e-9),
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            FrustumSpec(**kwargs)


class TestPlaneFrustum:
    def test_far_corners_on_side_planes(self):
        # 90 deg FOVs: half-angle 45 deg, so corners sit at x=|z|, y=|z|
        spec = FrustumSpec(hfov_deg=90, vfov_deg=90, near=1, far=2, grid_nx=2, grid_ny=2, grid_nz=2)
        f = batch_of(IDENT, spec=spec)
        for sx in (-2, 2):
            for sy in (-2, 2):
                d = plane_distances(f, 0, [sx, sy, 2.0])
                # far plane and the two touching side planes are at 0
                assert abs(d[1]) < 1e-9
                assert np.sort(np.abs(d))[:3].max() < 1e-9
                assert np.all(d >= -1e-9)

    def test_camera_center_outside(self):
        f = batch_of(IDENT)
        assert not kernel_contains(f, 0, [0.0, 0.0, 0.0]).any()

    def test_axis_midpoint_inside(self, rng):
        spec = FrustumSpec()
        mid_cam = np.array([0.0, 0.0, (spec.near + spec.far) / 2.0])
        for _ in range(50):
            pose = random_pose(rng)
            f = batch_of(pose, spec=spec)
            mid_world = pose.rotation.rotate(mid_cam) + pose.translation.as_array()
            assert np.all(plane_distances(f, 0, mid_world) > 0)

    def test_contains_matches_oracle(self, rng):
        spec = FrustumSpec()
        pose = random_pose(rng)
        f = batch_of(pose, spec=spec)
        pts = rng.uniform(-6, 6, size=(10_000, 3))
        got = kernel_contains(f, 0, pts)
        want = oracle_contains(pose, spec, pts)
        # verdicts may only differ within epsilon of a face
        margin = np.abs(plane_distances(f, 0, pts) + spec.boundary_epsilon).min(axis=1)
        decisive = margin > 1e-12
        assert np.array_equal(got[decisive], want[decisive])
        assert decisive.sum() > 9_990


class TestPointFrustum:
    def test_grid_corners_2x2x2(self):
        spec = FrustumSpec(hfov_deg=90, vfov_deg=90, near=1, far=2, grid_nx=2, grid_ny=2, grid_nz=2)
        pts = batch_of(IDENT, spec=spec).points[0]
        expected = {
            (-1, -1, 1), (1, -1, 1), (-1, 1, 1), (1, 1, 1),
            (-2, -2, 2), (2, -2, 2), (-2, 2, 2), (2, 2, 2),
        }
        got = {tuple(np.round(p, 9)) for p in pts}
        assert got == expected

    def test_depth_and_fov_bounds(self, rng):
        spec = FrustumSpec()
        pose = random_pose(rng)
        pts = batch_of(pose, spec=spec).points[0]
        r = pose.rotation.to_matrix()
        cam = (pts - pose.translation.as_array()) @ r
        z = cam[:, 2]
        assert np.all(z >= spec.near - 1e-12) and np.all(z <= spec.far + 1e-12)
        ta, tb = spec.half_tangents
        assert np.all(np.abs(cam[:, 0]) <= z * ta + 1e-9)
        assert np.all(np.abs(cam[:, 1]) <= z * tb + 1e-9)

    def test_translation_shifts_points(self):
        spec = FrustumSpec()
        base, moved = batch_of(
            IDENT, Pose(Quaternion.identity(), Translation(2.5, 0, 0), "m"), spec=spec
        ).points
        np.testing.assert_allclose(moved - base, [[2.5, 0, 0]] * len(base), atol=1e-12)

    def test_point_count(self):
        spec = FrustumSpec(grid_nx=3, grid_ny=4, grid_nz=5)
        assert len(batch_of(IDENT, spec=spec).points[0]) == 60 == spec.n_points


class TestOverlapScore:
    def test_self_pair_is_exactly_one(self, rng):
        # holds for any boundary_epsilon > 0, in small and large scenes
        for eps in (1e-9, 0.03):
            cfg = OverlapConfig(frustum=FrustumSpec(boundary_epsilon=eps))
            for box in (2.0, 5000.0):
                for _ in range(25):
                    p = random_pose(rng, box=box)
                    assert overlap_score(p, p, cfg) == 1.0, (eps, box)

    def test_opposite_facing_gated_to_zero(self):
        cfg = OverlapConfig()
        back = Pose(Quaternion.from_axis_angle((0, 1, 0), 180), Translation(0, 0, 0), "b")
        assert overlap_score(IDENT, back, cfg) == 0.0

    def test_gate_straddling(self):
        cfg = OverlapConfig(max_relative_rotation_deg=110.0)
        for angle in (109.0, 109.9):
            other = Pose(Quaternion.from_axis_angle((0, 1, 0), angle), Translation(0, 0, 0), "o")
            assert overlap_score(IDENT, other, cfg) >= 0.0  # gate open (may still be 0)
        for angle in (110.1, 111.0, 179.0):
            other = Pose(Quaternion.from_axis_angle((1, 0, 0), angle), Translation(0.1, 0, 0.5), "o")
            assert overlap_score(IDENT, other, cfg) == 0.0

    def test_forward_offset_analytic(self):
        # +z offset beyond far*1.5 leaves no probe point inside
        cfg = OverlapConfig()
        far_out = Pose(Quaternion.identity(), Translation(0, 0, cfg.frustum.far * 1.5), "f")
        assert overlap_score(IDENT, far_out, cfg) == oracle_overlap(IDENT, far_out, cfg)

    @pytest.mark.parametrize(
        "cfg",
        [
            OverlapConfig(),
            OverlapConfig(frustum=FrustumSpec(hfov_deg=20.0, vfov_deg=15.0)),
            OverlapConfig(frustum=FrustumSpec(hfov_deg=150.0, vfov_deg=120.0)),
            OverlapConfig(frustum=FrustumSpec(grid_nx=3, grid_ny=4, grid_nz=5)),
            OverlapConfig(frustum=FrustumSpec(boundary_epsilon=0.03)),
            OverlapConfig(frustum=FrustumSpec(boundary_epsilon=0.1)),
            OverlapConfig(symmetric=True),
            OverlapConfig(max_relative_rotation_deg=180.0),
        ],
        ids=["default", "narrow-fov", "wide-fov", "grid-3x4x5", "eps-0.03", "eps-0.1",
             "symmetric", "gate-180"],
    )
    def test_matches_bruteforce_oracle(self, rng, cfg):
        for _ in range(100):
            a = random_pose(rng, box=1.5)
            b = random_pose(rng, box=1.5)
            assert overlap_score(a, b, cfg) == oracle_overlap(a, b, cfg)

    def test_early_reject_never_changes_score(self, rng, no_rejects):
        cfg = OverlapConfig()
        for _ in range(50):
            a = random_pose(rng, box=6.0)
            b = random_pose(rng, box=6.0)
            score = overlap_score(a, b, cfg)
            with no_rejects():
                assert score == overlap_score(a, b, cfg)

    def test_range_property(self, rng):
        cfg = OverlapConfig(frustum=FrustumSpec(grid_nx=4, grid_ny=4, grid_nz=4))
        for _ in range(10_000):
            a = random_pose(rng, box=3.0)
            b = random_pose(rng, box=3.0)
            assert 0.0 <= overlap_score(a, b, cfg) <= 1.0

    def test_rigid_invariance(self, rng):
        cfg = OverlapConfig()
        n_b = cfg.frustum.n_points
        for _ in range(100):
            a = random_pose(rng, box=1.0)
            b = random_pose(rng, box=1.0)
            g = random_pose(rng, box=3.0)
            ga = compose(g, a)
            gb = compose(g, b)
            ga = Pose(ga.rotation, ga.translation, "ga")
            gb = Pose(gb.rotation, gb.translation, "gb")
            before = overlap_score(a, b, cfg)
            after = overlap_score(ga, gb, cfg)
            assert abs(before - after) <= 1.0 / n_b + 1e-12

    def test_directional_not_symmetric(self):
        cfg = OverlapConfig()
        # one camera slightly behind the other sees it differently
        a = IDENT
        b = Pose(Quaternion.identity(), Translation(0, 0, 1.0), "b")
        assert overlap_score(a, b, cfg) != overlap_score(b, a, cfg)

    def test_symmetric_mode_is_symmetric(self, rng):
        cfg = OverlapConfig(symmetric=True)
        for _ in range(25):
            a = random_pose(rng, box=1.0)
            b = random_pose(rng, box=1.0)
            assert overlap_score(a, b, cfg) == overlap_score(b, a, cfg)

    def test_disjoint_bounding_boxes_score_zero(self, rng):
        cfg = OverlapConfig()
        spec = cfg.frustum
        for _ in range(25):
            a = random_pose(rng, box=1.0)
            # displace far beyond any reachable extent
            b_t = a.translation.as_array() + np.array([3 * spec.far, 0, 0]) + rng.uniform(0, 1, 3)
            b = Pose(a.rotation, Translation(*b_t), "b")
            assert overlap_score(a, b, cfg) == 0.0

    def test_sphere_covers_lattice(self, rng):
        # the sphere must hold every point the containment test accepts: the
        # lattice, and the far vertices of the epsilon-inflated frustum
        for eps in (1e-9, 0.03, 0.1):
            spec = FrustumSpec(boundary_epsilon=eps)
            ta, tb = spec.half_tangents
            ex = eps / math.cos(math.atan(ta))
            ey = eps / math.cos(math.atan(tb))
            z = spec.far + eps
            far_cam = np.array([[sx * (z * ta + ex), sy * (z * tb + ey), z]
                                for sx in (-1, 1) for sy in (-1, 1)])
            # pulled 1 um toward the axis so rounding cannot push them outside
            far_cam -= 1e-6 * np.sign(far_cam)
            for _ in range(25):
                pose = random_pose(rng)
                batch = batch_of(pose, spec=spec)
                center, radius = batch.centers[0], batch.sphere_radius
                pts = batch.points[0]
                assert np.linalg.norm(pts - center, axis=1).max() <= radius + 1e-9
                far_world = far_cam @ pose.rotation.to_matrix().T + pose.translation.as_array()
                assert oracle_contains(pose, spec, far_world).all()
                assert np.linalg.norm(far_world - center, axis=1).max() <= radius + 1e-9


class TestCameraGrid:
    def test_lattice_is_corner_inclusive(self):
        spec = FrustumSpec()
        grid = camera_grid(spec)
        ta, tb = spec.half_tangents
        near_slab = grid[np.isclose(grid[:, 2], spec.near)]
        assert np.isclose(np.abs(near_slab[:, 0]).max(), spec.near * ta)
        assert np.isclose(np.abs(near_slab[:, 1]).max(), spec.near * tb)
        far_slab = grid[np.isclose(grid[:, 2], spec.far)]
        assert np.isclose(np.abs(far_slab[:, 0]).max(), spec.far * ta)
