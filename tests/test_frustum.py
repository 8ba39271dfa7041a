"""Frustum construction and overlap scoring against camera-frame oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frustoval import (
    FrustumSpec,
    OverlapConfig,
    Pose,
    PoseSet,
    Quaternion,
    Translation,
    compose,
    generate_pairs,
    overlap_score,
)
from frustoval.frustum import _FrustumBatch, camera_grid, score_pairs
from frustoval.geometry import quat_rows, translation_rows

from conftest import random_pose, street_poses, without_rejects, world_lattice

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


def oracle_distances(pose, spec, points):
    """Signed distances of world points inside pose's six faces, shape (n, 6):
    near, far, then the side faces, each from camera-frame coordinates."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    r = pose.rotation.to_matrix()
    t = pose.translation.as_array()
    p = (points - t) @ r  # world -> camera
    x, y, z = p[:, 0], p[:, 1], p[:, 2]
    ta = math.tan(math.radians(spec.hfov_deg) / 2.0)
    tb = math.tan(math.radians(spec.vfov_deg) / 2.0)
    ca = math.cos(math.atan(ta))
    cb = math.cos(math.atan(tb))
    return np.stack([z - spec.near, spec.far - z, (z * ta - x) * ca, (z * ta + x) * ca,
                     (z * tb - y) * cb, (z * tb + y) * cb], axis=1)


def oracle_contains(pose, spec, points):
    return np.all(oracle_distances(pose, spec, points) >= -spec.boundary_epsilon, axis=1)


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

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name", ["hfov_deg", "vfov_deg", "near", "far", "boundary_epsilon"])
    def test_non_finite_refused(self, name, value):
        # boundary_epsilon = inf used to pass and score a pose 0 against itself
        with pytest.raises(ValueError, match=f"got .*{value!r}"):
            FrustumSpec(**{name: value})


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
        pts = world_lattice(IDENT, spec=spec)[0]
        expected = {
            (-1, -1, 1), (1, -1, 1), (-1, 1, 1), (1, 1, 1),
            (-2, -2, 2), (2, -2, 2), (-2, 2, 2), (2, 2, 2),
        }
        got = {tuple(np.round(p, 9)) for p in pts}
        assert got == expected

    def test_depth_and_fov_bounds(self, rng):
        spec = FrustumSpec()
        pose = random_pose(rng)
        pts = world_lattice(pose, spec=spec)[0]
        r = pose.rotation.to_matrix()
        cam = (pts - pose.translation.as_array()) @ r
        z = cam[:, 2]
        assert np.all(z >= spec.near - 1e-12) and np.all(z <= spec.far + 1e-12)
        ta, tb = spec.half_tangents
        assert np.all(np.abs(cam[:, 0]) <= z * ta + 1e-9)
        assert np.all(np.abs(cam[:, 1]) <= z * tb + 1e-9)

    def test_translation_shifts_points(self):
        spec = FrustumSpec()
        base, moved = world_lattice(
            IDENT, Pose(Quaternion.identity(), Translation(2.5, 0, 0), "m"), spec=spec
        )
        np.testing.assert_allclose(moved - base, [[2.5, 0, 0]] * len(base), atol=1e-12)

    def test_point_count(self):
        spec = FrustumSpec(grid_nx=3, grid_ny=4, grid_nz=5)
        assert len(world_lattice(IDENT, spec=spec)[0]) == 60 == spec.n_points


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
                pts = world_lattice(pose, spec=spec)[0]
                assert np.linalg.norm(pts - center, axis=1).max() <= radius + 1e-9
                far_world = far_cam @ pose.rotation.to_matrix().T + pose.translation.as_array()
                assert oracle_contains(pose, spec, far_world).all()
                assert np.linalg.norm(far_world - center, axis=1).max() <= radius + 1e-9


class TestQueryFrameExactness:
    """The kernel moves the anchor's planes into each query's camera frame and
    tests the camera lattice there; the oracle tests the world lattice in the
    anchor's camera frame. Their counts may differ only by probe points within
    1e-12 * (1 + |coordinates|) of a plane moved out by epsilon."""

    @staticmethod
    def scene(rng, spec, origin):
        """Anchors near `origin`, each with a twin and with copies moved by
        whole lattice steps along its optical axis, so that many probe points
        fall on the anchor's planes; then poses scattered among them."""
        step = (spec.far - spec.near) / (spec.grid_nz - 1)
        poses = []
        for _ in range(4):
            a = random_pose(rng, box=1.0)
            t, axis = a.translation.as_array() + origin, a.rotation.to_matrix()[:, 2]
            poses += [Pose(a.rotation, Translation(*(t + k * step * axis)), "") for k in (0, 0, -2, -1, 1, 3)]
        for _ in range(8):
            b = random_pose(rng, box=1.0)
            poses.append(Pose(b.rotation, Translation(*(b.translation.as_array() + origin)), ""))
        return poses

    @pytest.mark.parametrize("eps", [0.0, 1e-9, 0.03])
    @pytest.mark.parametrize("origin", [(0.0, 0.0, 0.0), (600.0, -600.0, 529.2)], ids=["origin", "1km"])
    def test_counts_match_world_oracle(self, rng, eps, origin):
        spec = FrustumSpec(boundary_epsilon=eps)
        cfg = OverlapConfig(frustum=spec, max_relative_rotation_deg=180.0)
        poses = self.scene(rng, spec, np.array(origin))
        anchors, queries, counts = score_pairs(quat_rows(p.rotation for p in poses),
                                               translation_rows(p.translation for p in poses), cfg)
        got = np.zeros((len(poses), len(poses)), dtype=np.int64)
        got[anchors, queries] = counts
        lattices = world_lattice(*poses, spec=spec)
        tol = 1e-12 * (1.0 + np.abs(lattices).max(axis=2))  # (poses, n_points)
        unsure = 0
        for i, anchor in enumerate(poses):
            dist = oracle_distances(anchor, spec, lattices.reshape(-1, 3)).reshape(len(poses), spec.n_points, 6)
            dist += eps
            sure = np.all(dist > tol[..., None], axis=2).sum(axis=1)
            maybe = np.all(dist >= -tol[..., None], axis=2).sum(axis=1)
            others = np.arange(len(poses)) != i
            assert np.all(sure[others] <= got[i, others]), (i, sure, got[i])
            assert np.all(got[i, others] <= maybe[others]), (i, maybe, got[i])
            unsure += int((maybe - sure)[others].sum())
        assert got.sum() > 0
        # the bounds pin nearly every count: few probe points lie that close to a plane
        assert unsure < 0.25 * got.sum()


class TestWindowReject:
    """The window reject drops a candidate only when its count bound B gives
    B / n_points <= min_overlap, so it never drops a pair the window keeps."""

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.sampled_from([0.0, 1e-9, 0.03]),
           st.sampled_from([(0.0, 0.0, 0.0), (600.0, -600.0, 529.2)]))
    def test_bound_covers_every_count(self, seed, eps, origin):
        # twins and whole-lattice-step copies put many probe points on the
        # anchor's planes and the bound's corners on lattice depths, columns
        # and rows, where only the rounding pad keeps B above the count; twins
        # nudged by half of epsilon put points inside the inflation alone
        spec = FrustumSpec(boundary_epsilon=eps)
        rng = np.random.default_rng(seed)
        poses = TestQueryFrameExactness.scene(rng, spec, np.array(origin))
        for p in poses[:24:6]:
            nudge = rng.normal(size=3)
            nudge *= 0.5 * eps / np.linalg.norm(nudge)
            poses.append(Pose(p.rotation, Translation(*(p.translation.as_array() + nudge)), ""))
        n = len(poses)
        ps = PoseSet("window", "train", [f"p{k:02d}" for k in range(n)], quat_rows(p.rotation for p in poses),
                     translation_rows(p.translation for p in poses))
        cfg = OverlapConfig(frustum=spec, max_relative_rotation_deg=180.0)
        with without_rejects():
            anchors, queries, counts = score_pairs(ps.rotations, ps.translations, cfg)
        got = np.zeros((n, n), dtype=np.int64)
        got[anchors, queries] = counts
        a, q = np.nonzero(~np.eye(n, dtype=bool))
        bound = _FrustumBatch(ps.rotations, ps.translations, cfg).count_bounds(a, q)
        assert np.all(got[a, q] <= bound), np.flatnonzero(got[a, q] > bound)
        assert np.count_nonzero(bound < spec.n_points) > 0
        for symmetric in (False, True):
            cfg = OverlapConfig(frustum=spec, max_relative_rotation_deg=180.0, symmetric=symmetric)
            for lo in (0.0, 0.3, 0.7):
                with without_rejects():
                    want = generate_pairs(ps, cfg, lo)
                assert generate_pairs(ps, cfg, lo) == want, (symmetric, lo)

    @pytest.mark.parametrize("symmetric", [False, True])
    def test_drops_point_tests_on_a_street(self, monkeypatch, symmetric):
        # outdoor-style poses: most pairs past the separation reject share
        # only a sliver of the lattice, so the bound drops them before the
        # point test without changing a row
        ps = street_poses(300)
        cfg = OverlapConfig(frustum=FrustumSpec(far=30.0, grid_nx=10, grid_ny=10, grid_nz=10), symmetric=symmetric)
        with without_rejects():
            want = generate_pairs(ps, cfg, 0.3)
        tested = []
        point_counts = _FrustumBatch.point_counts

        def counting(batch, a, q, work):
            tested.append(a.size)
            return point_counts(batch, a, q, work)

        monkeypatch.setattr(_FrustumBatch, "point_counts", counting)
        got = generate_pairs(ps, cfg, 0.3)
        assert got == want and len(got) > 0
        with_window = sum(tested)
        monkeypatch.setattr(_FrustumBatch, "count_bounds", lambda self, a, q: np.full(a.size, self.n_points))
        tested.clear()
        assert generate_pairs(ps, cfg, 0.3) == want
        assert with_window < 0.8 * sum(tested), (with_window, sum(tested))


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
