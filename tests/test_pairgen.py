"""The all-pairs pipeline against a brute-force double-loop oracle, plus
binning and subspace statistics."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frustoval import (
    FrustumSpec,
    OverlapBinning,
    OverlapConfig,
    PoseSet,
    Quaternion,
    Translation,
    bin_histogram,
    config_digest,
    generate_pairs,
    overlap_score,
    subspace_stats,
)
from frustoval import dataset, frustum, geometry, pairgen
from frustoval.dataset import PairTable
from frustoval.frustum import camera_corners, camera_sphere
from frustoval.geometry import Pose
from frustoval.synth import SynthConfig, generate_trajectory

from conftest import oracle_matrix, oracle_relative, pose_rows, pose_set, street_poses, without_rejects

from test_frustum import oracle_overlap

SMALL_SPEC = FrustumSpec(grid_nx=4, grid_ny=4, grid_nz=4)


def scored(translations, overlaps=0.5):
    """A pair table with identity rotations: one row per translation, all keyed (a, b)."""
    t = np.reshape(np.asarray(translations, dtype=float), (-1, 3))
    m = len(t)
    return PairTable.from_ids(["a"] * m, ["b"] * m, np.tile([1.0, 0.0, 0.0, 0.0], (m, 1)), t,
                              np.broadcast_to(np.asarray(overlaps, dtype=float), (m,)), "d")


def small_poses(n=20, seed=3, tilt=30.0):
    return generate_trajectory(SynthConfig(extents=(2, 2, 1), n_poses=n, max_tilt_deg=tilt, seed=seed))


class TestGeneratePairs:
    def test_single_pose_warns_empty(self):
        ps = small_poses(n=2)
        ps = PoseSet(ps.scene_name, ps.split, ps.frame_ids[:1], ps.rotations[:1], ps.translations[:1],
                     ps.source_format)
        with pytest.warns(UserWarning, match="fewer than 2"):
            assert len(generate_pairs(ps, OverlapConfig())) == 0

    def test_no_poses_score_nothing(self):
        # the kernel returns three empty arrays at any thread count, and
        # generate_pairs warns and builds the same empty table as for one pose
        for symmetric in (False, True):
            cfg = OverlapConfig(symmetric=symmetric)
            for threads in (1, 2):
                got = frustum.score_pairs(np.empty((0, 4)), np.empty((0, 3)), cfg, threads=threads)
                assert [a.size for a in got] == [0, 0, 0]
        empty = PairTable([], [], [], np.empty((0, 4)), np.empty((0, 3)), np.empty(0), config_digest(cfg))
        one = small_poses(n=2)
        for n in (0, 1):
            ps = PoseSet("few", "train", one.frame_ids[:n], one.rotations[:n], one.translations[:n])
            with pytest.warns(UserWarning, match="fewer than 2"):
                assert generate_pairs(ps, cfg, threads=2) == empty

    def test_two_identical_poses(self):
        p = Pose(Quaternion.identity(), Translation(0, 0, 0), "a")
        q = Pose(Quaternion.identity(), Translation(0, 0, 0), "b")
        ps = pose_set("twins", "train", [p, q], "synthetic")
        pairs = generate_pairs(ps, OverlapConfig(), min_overlap=0.5)
        assert len(pairs) == 2
        assert {r.key for r in pairs} == {("a", "b"), ("b", "a")}
        assert all(r.overlap == 1.0 for r in pairs)

    def test_matches_sequential_double_loop(self):
        # oracle: brute-force oracle_overlap + a 4x4 matrix product over every ordered pair
        cfg = OverlapConfig(frustum=SMALL_SPEC)
        ps = small_poses(n=20)
        got = generate_pairs(ps, cfg, min_overlap=0.0, max_overlap=1.0)
        digest = config_digest(cfg)
        expected = []
        rows = pose_rows(ps)
        for a in rows:
            for b in rows:
                if a.frame_id == b.frame_id:
                    continue
                s = oracle_overlap(a, b, cfg)
                if s > 0.0:
                    expected.append((a.frame_id, b.frame_id, s, oracle_relative(a, b)))
        expected.sort(key=lambda r: (r[0], r[1]))
        assert [r.key for r in got] == [(e[0], e[1]) for e in expected]
        for rec, exp in zip(got, expected):
            assert rec.overlap == exp[2]
            assert rec.config_digest == digest
            np.testing.assert_allclose(oracle_matrix(rec.rel), exp[3], atol=1e-12)

    def test_rows_equal_overlap_score(self):
        # the single-pair score and the all-pairs kernel agree on every
        # ordered pair. At eps=0 a twin (one pose under two frame ids) has
        # its lattice corners exactly on the other's planes, where any
        # difference in the arithmetic of the two entry points would show;
        # the twins sit 1 km apart so only twins overlap
        twins = pose_set("twins", "train", [
            Pose(p.rotation, Translation(p.translation.x + 1000.0 * k, p.translation.y, p.translation.z),
                 f"{p.frame_id}{tag}")
            for k, p in enumerate(pose_rows(small_poses(n=30))) for tag in "ab"
        ], "synthetic")
        twin_cfg = OverlapConfig(frustum=FrustumSpec(boundary_epsilon=0.0))
        twin_pairs = generate_pairs(twins, twin_cfg)
        assert len(twin_pairs) == 60
        by_id = {p.frame_id: p for p in pose_rows(twins)}
        for r in twin_pairs:
            assert overlap_score(by_id[r.anchor_id], by_id[r.query_id], twin_cfg) == r.overlap, r.key
        ps = small_poses(n=15)
        rows = pose_rows(ps)
        for symmetric in (False, True):
            cfg = OverlapConfig(frustum=SMALL_SPEC, symmetric=symmetric)
            got = {r.key: r.overlap for r in generate_pairs(ps, cfg)}
            assert got
            for a in rows:
                for b in rows:
                    if a is not b:
                        assert overlap_score(a, b, cfg) == got.get((a.frame_id, b.frame_id), 0.0)

    def test_overlap_window_filters(self):
        cfg = OverlapConfig(frustum=SMALL_SPEC)
        ps = small_poses(n=15)
        full = generate_pairs(ps, cfg)
        window = generate_pairs(ps, cfg, min_overlap=0.3, max_overlap=0.7)
        expected = {r.key for r in full if 0.3 < r.overlap <= 0.7}
        assert {r.key for r in window} == expected

    def test_threshold_monotonicity(self):
        cfg = OverlapConfig(frustum=SMALL_SPEC)
        ps = small_poses(n=15)
        lower = {r.key for r in generate_pairs(ps, cfg, min_overlap=0.2)}
        higher = {r.key for r in generate_pairs(ps, cfg, min_overlap=0.5)}
        assert higher <= lower

    def test_thread_counts_byte_identical(self, tmp_path):
        cfg = OverlapConfig(frustum=SMALL_SPEC)
        ps = small_poses(n=40)
        blobs = []
        for threads in (1, 4, 16):
            pairs = generate_pairs(ps, cfg, threads=threads)
            out = tmp_path / f"t{threads}.pairs"
            dataset.write_pairs(out, pairs, cfg, min_overlap=0.0, max_overlap=1.0)
            blobs.append(out.read_bytes())
        assert blobs[0] == blobs[1] == blobs[2]

    @pytest.mark.parametrize("symmetric", [False, True])
    def test_thread_counts_equal_with_a_window(self, symmetric):
        # outdoor-style poses and window (0.3, 1]: the window reject and the
        # point test run on flat pairs whose chunks depend on the split
        ps = street_poses(400)
        cfg = OverlapConfig(frustum=FrustumSpec(far=30.0, grid_nx=10, grid_ny=10, grid_nz=10), symmetric=symmetric)
        one = generate_pairs(ps, cfg, 0.3, threads=1)
        assert len(one) > 0
        assert generate_pairs(ps, cfg, 0.3, threads=3) == one

    def test_early_reject_changes_nothing(self, monkeypatch, no_rejects):
        # spread poses so the grid, the bounding-sphere reject and the
        # plane-separation reject all fire, and count how many pairs each one
        # drops; small chunks split these 24 poses' candidates across several
        # reject chunks and the pieces cut from each
        monkeypatch.setattr(frustum, "_CHUNK_PAIRS", 64)
        dropped ={"grid_candidates": 0, "spheres_meet": 0, "separated": 0}

        def counting(name, keeps):
            orig = getattr(frustum._FrustumBatch, name)

            def wrapper(batch, a, q):
                mask = orig(batch, a, q)
                dropped[name] += int(np.count_nonzero(mask != keeps))
                return mask

            monkeypatch.setattr(frustum._FrustumBatch, name, wrapper)

        def counting_grid(batch, lo, hi):
            order, starts, stops = grid(batch, lo, hi)
            dropped["grid_candidates"] += (hi - lo) * batch.n - int((stops - starts).sum())
            return order, starts, stops

        grid = frustum._FrustumBatch.grid_candidates
        monkeypatch.setattr(frustum._FrustumBatch, "grid_candidates", counting_grid)
        counting("spheres_meet", keeps=True)
        counting("separated", keeps=False)
        # every third camera turned 150 degrees, so the two gates differ
        turn = Quaternion.from_axis_angle([0, 1, 0], 150.0)
        base = small_poses(n=24)
        # the same placement near the world origin and 1e7 m from it
        for origin in (np.zeros(3), np.array([1e7, -1e7, 1e7])):
            spread = [
                Pose(p.rotation * turn if i % 3 == 0 else p.rotation,
                     Translation(*(p.translation.as_array() + [6.0 * (i % 4), 0.0, 0.0] + origin)), p.frame_id)
                for i, p in enumerate(pose_rows(base))
            ]
            ps = pose_set("spread", "train", spread, "synthetic")
            for eps in (1e-9, 0.03, 0.1):
                for gate in (110.0, 180.0):
                    for symmetric in (False, True):
                        spec = FrustumSpec(grid_nx=4, grid_ny=4, grid_nz=4, boundary_epsilon=eps)
                        cfg = OverlapConfig(frustum=spec, max_relative_rotation_deg=gate, symmetric=symmetric)
                        dropped.update(grid_candidates=0, spheres_meet=0, separated=0)
                        with_reject = generate_pairs(ps, cfg)
                        assert min(dropped.values()) > 0, (dropped, origin, eps, gate, symmetric)
                        with no_rejects():
                            without = generate_pairs(ps, cfg)
                        assert with_reject == without, (origin, eps, gate, symmetric)
                        assert with_reject

    def test_inflated_frustum_reject_regression(self, no_rejects):
        # an eps-inflated far corner meets the other camera's far corner tip
        # to tip while the sphere centres sit more than 2r + 1e-6 apart, r
        # the radius of the uninflated frustum: neither reject may drop it
        eps = 0.03
        spec = FrustumSpec(boundary_epsilon=eps)
        cfg = OverlapConfig(frustum=spec, max_relative_rotation_deg=180.0)
        corners = camera_corners(spec)
        c_cam = corners.mean(axis=0)
        r_plain = np.linalg.norm(corners - c_cam, axis=1).max()
        ta, tb = spec.half_tangents
        tip = np.array([2 * spec.far * ta, 2 * spec.far * tb, 2 * spec.far])
        anchor = Pose(Quaternion.identity(), Translation(0, 0, 0), "anchor")
        rng = np.random.default_rng(7)
        poses, scored = [], 0
        for _ in range(300):
            # turned about 180 degrees about y: the far faces look at each other
            q = Quaternion.from_axis_angle([0, 1, 0] + rng.normal(0, 0.01, 3), 180.0 - abs(rng.normal(0, 0.2)))
            t = tip + rng.uniform(-2 * eps, 2 * eps, 3)
            if np.linalg.norm(q.rotate(c_cam) + t - c_cam) <= 2 * r_plain + 1e-6:
                continue
            other = Pose(q, Translation(*t), "other")
            with no_rejects():
                score = overlap_score(anchor, other, cfg)
            assert overlap_score(anchor, other, cfg) == score
            scored += score > 0
            # the same placement, 1 km from the previous one
            shift = np.array([1000.0 * len(poses), 0.0, 0.0])
            poses.append(Pose(anchor.rotation, Translation(*shift), f"p{len(poses):04d}"))
            poses.append(Pose(q, Translation(*(t + shift)), f"p{len(poses):04d}"))
        assert scored > 0
        ps = pose_set("tips", "train", poses, "synthetic")
        with_reject = generate_pairs(ps, cfg)
        assert len(with_reject) == 2 * scored
        with no_rejects():
            assert with_reject == generate_pairs(ps, cfg)

    def test_memory_stays_below_a_dense_matrix(self):
        # a dense (2000, 2000) float64 score matrix alone would take 32 MB
        n = 2000
        ps = generate_trajectory(SynthConfig(extents=(400, 400, 2), n_poses=n, max_tilt_deg=20.0, seed=5))
        cfg = OverlapConfig(frustum=FrustumSpec(grid_nx=2, grid_ny=2, grid_nz=2))
        tracemalloc.start()
        try:
            pairs = generate_pairs(ps, cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert pairs
        assert peak < n * n * 8

    def test_reject_chunks_bound_memory(self):
        # 600 poses in a 3x2x1 m box: nearly every one of the 359,400 pairs
        # reaches the separation reject, and the reject temporaries of all of
        # them at once peak near 270 MB; chunked, the whole call peaks near 13 MB.
        # Its 107,595 rows take 72 bytes a pair; with int64 indices from the
        # kernel and masks applied to copies, the call peaked at 113
        n = 600
        ps = generate_trajectory(SynthConfig(extents=(3, 2, 1), n_poses=n, max_tilt_deg=25.0, seed=5))
        cfg = OverlapConfig(frustum=FrustumSpec(grid_nx=2, grid_ny=2, grid_nz=2))
        tracemalloc.start()
        try:
            pairs = generate_pairs(ps, cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(pairs) > n * n // 4
        assert peak < 64e6 and peak < 90 * len(pairs)

    def test_unordered_requires_symmetric(self):
        ps = small_poses(n=6)
        with pytest.raises(ValueError, match="symmetric"):
            generate_pairs(ps, OverlapConfig(frustum=SMALL_SPEC), unordered=True)

    def test_unordered_keeps_lower_triangle(self):
        cfg = OverlapConfig(frustum=SMALL_SPEC, symmetric=True)
        ps = small_poses(n=12)
        ordered = generate_pairs(ps, cfg)
        unordered = generate_pairs(ps, cfg, unordered=True)
        assert all(r.anchor_id < r.query_id for r in unordered)
        by_key = {r.key: r.overlap for r in ordered}
        for r in unordered:
            assert r.overlap == by_key[r.key] == by_key[(r.query_id, r.anchor_id)]

    def test_symmetric_scores_are_minimum(self):
        cfg_dir = OverlapConfig(frustum=SMALL_SPEC)
        cfg_sym = OverlapConfig(frustum=SMALL_SPEC, symmetric=True)
        ps = small_poses(n=10)
        directional = {r.key: r.overlap for r in generate_pairs(ps, cfg_dir)}
        for r in generate_pairs(ps, cfg_sym):
            fwd = directional.get(r.key, 0.0)
            rev = directional.get((r.query_id, r.anchor_id), 0.0)
            assert r.overlap == min(fwd, rev)

    def test_invalid_window_rejected(self):
        ps = small_poses(n=4)
        with pytest.raises(ValueError):
            generate_pairs(ps, OverlapConfig(), min_overlap=0.5, max_overlap=0.5)


GRID_SPEC = FrustumSpec(grid_nx=2, grid_ny=2, grid_nz=2)
GRID_CENTRE, GRID_RADIUS = camera_sphere(GRID_SPEC)
REACH = 2.0 * GRID_RADIUS + 1e-6  # the sphere test's own reach
SIDE = REACH * (1.0 + 1e-6)  # the grid's cell side for GRID_SPEC


@st.composite
def grid_scenes(draw):
    """(unit quaternions, translations) whose sphere centres stress the grid:
    one cell, cell boundaries, pairs just within the sphere reach, clusters
    5 km apart, a 1e6 m offset or a line."""
    n = draw(st.one_of(st.sampled_from([2, 3]), st.integers(4, 30)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    layout = draw(st.sampled_from(["one-cell", "boundaries", "near-reach", "clusters", "offset", "collinear"]))
    if layout == "one-cell":
        centres = rng.uniform(0.0, 0.999 * SIDE, (n, 3))
    elif layout == "boundaries":
        # whole multiples of the cell side, or of the sphere reach just below it
        centres = draw(st.sampled_from([SIDE, REACH])) * rng.integers(0, 4, (n, 3))
    elif layout == "near-reach":
        # pairs whose spheres just meet along a grid axis, anywhere in a cell
        centres = rng.uniform(0.0, 3.0 * SIDE, (n, 3))
        centres[1::2] = centres[:n // 2 * 2:2] + 0.999 * REACH * np.eye(3)[rng.integers(0, 3, n // 2)]
    elif layout == "clusters":
        centres = rng.uniform(0.0, 2.0 * SIDE, (n, 3)) + 5000.0 * rng.integers(0, 3, (n, 1)) * rng.normal(size=3)
    elif layout == "offset":
        centres = 1e6 + rng.uniform(0.0, 3.0 * SIDE, (n, 3))
    else:
        direction = rng.normal(size=3)
        centres = rng.integers(0, 9, (n, 1)) * (REACH / 2.0) * direction / np.linalg.norm(direction)
    quats = geometry.normalize_quat_rows(rng.normal(size=(n, 4)))
    return quats, centres - geometry.quats_to_matrices(quats) @ GRID_CENTRE


class TestCandidateGrid:
    """The grid enumerates every pair the sphere test keeps, and scoring
    through it, in chunks of any size, equals the all-pairs reference."""

    @settings(max_examples=150, deadline=None)
    @given(grid_scenes())
    def test_grid_holds_every_sphere_pair(self, scene):
        quats, trans = scene
        n = len(quats)
        batch = frustum._FrustumBatch(quats, trans, OverlapConfig(frustum=GRID_SPEC))
        order, starts, stops = batch.grid_candidates(0, n)
        listed = [order[lo:hi] for k in range(n) for lo, hi in zip(starts[k], stops[k])]
        anchors = np.repeat(np.arange(n), [sum(stops[k] - starts[k]) for k in range(n)])
        queries = np.concatenate(listed)
        assert np.unique(anchors * n + queries).size == anchors.size  # no pair twice
        every = np.arange(n * n)
        meet = batch.spheres_meet(every // n, every % n)
        assert set(every[meet].tolist()) <= set((anchors * n + queries).tolist())

    @settings(max_examples=60, deadline=None)
    @given(grid_scenes(), st.sampled_from([1, 7, 64, frustum._CHUNK_PAIRS]), st.sampled_from([110.0, 180.0]),
           st.booleans())
    def test_chunked_grid_scoring_equals_all_pairs(self, scene, chunk, gate, symmetric):
        quats, trans = scene
        ps = PoseSet("grid", "train", [f"p{k:02d}" for k in range(len(quats))], quats, trans)
        cfg = OverlapConfig(frustum=GRID_SPEC, max_relative_rotation_deg=gate, symmetric=symmetric)
        with without_rejects():
            want = generate_pairs(ps, cfg)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(frustum, "_CHUNK_PAIRS", chunk)
            mp.setattr(pairgen, "_CHUNK_PAIRS", chunk)
            assert generate_pairs(ps, cfg) == want
            assert generate_pairs(ps, cfg, threads=2) == want
            # the kernel's own order, which the symmetric join relies on
            anchors, queries, _ = frustum.score_pairs(quats, trans, cfg)
            assert np.all(np.diff(anchors * len(quats) + queries) > 0)


class TestBinning:
    def test_default_edges(self):
        b = OverlapBinning()
        assert b.n_bins == 10
        assert b.edges[0] == 0.0 and b.edges[-1] == 1.0

    def test_invalid_edges(self):
        with pytest.raises(ValueError):
            OverlapBinning(edges=(0.0, 0.5, 0.5, 1.0))
        with pytest.raises(ValueError):
            OverlapBinning(edges=(0.0, 1.2))
        with pytest.raises(ValueError):
            OverlapBinning(edges=(0.5,))

    @pytest.mark.parametrize("edges", [(0.0, float("nan"), 1.0), (float("nan"), 1.0), (0.0, float("nan")),
                                       (0.0, 0.5, float("inf")), (float("-inf"), 0.5)])
    def test_non_finite_edges_refused(self, edges):
        with pytest.raises(ValueError, match="got"):
            OverlapBinning(edges=edges)

    def test_left_open_right_closed(self):
        b = OverlapBinning()
        assert b.indices([0.1])[0] == 0  # 0.1 belongs to (0, 0.1]
        assert b.indices([0.15])[0] == 1
        assert b.indices([1.0])[0] == 9
        with pytest.raises(ValueError, match="outside"):
            b.indices([0.0])

    def test_histogram_empty(self):
        assert bin_histogram(scored([]), OverlapBinning()).tolist() == [0] * 10

    def test_histogram_analytic(self):
        counts = bin_histogram(scored([(0, 0, 0)] * 3, [0.15, 0.15, 0.85]))
        assert counts[1] == 2
        assert counts[8] == 1
        assert counts.sum() == 3

    def test_histogram_partitions_pairs(self):
        cfg = OverlapConfig(frustum=SMALL_SPEC)
        pairs = generate_pairs(small_poses(n=15), cfg)
        assert bin_histogram(pairs).sum() == len(pairs)


class TestSubspaceStats:
    def test_unit_norms(self):
        pairs = scored([(1, 0, 0), (0, 1, 0), (0, 0, -1)])
        s = subspace_stats(pairs, threshold=0.0)
        assert s.count == 3
        assert s.mean_norm == pytest.approx(1.0)
        assert s.std_norm == pytest.approx(0.0)
        assert s.diameter == pytest.approx(1.0)

    def test_analytic_zero_two(self):
        pairs = scored([(0, 0, 0), (2, 0, 0)])
        s = subspace_stats(pairs, threshold=0.0)
        assert s.mean_norm == pytest.approx(1.0)
        assert s.std_norm == pytest.approx(1.0)  # population std
        assert s.diameter == pytest.approx(3.0)

    def test_empty_is_undefined_not_zero(self):
        s = subspace_stats(scored([(1, 0, 0)], 0.3), threshold=0.9)
        assert s.count == 0
        assert s.diameter is None and s.mean_norm is None and s.std_norm is None
        assert not s.defined

    def test_threshold_inclusive(self):
        pairs = scored([(1, 0, 0)], 0.5)
        assert subspace_stats(pairs, threshold=0.5).count == 1

    def test_matches_per_row_norm(self):
        # reference: np.linalg.norm of each translation alone, the arithmetic
        # pair files were produced with; the column version agrees to the bit
        # (np.linalg.norm(t, axis=1) differs in the last bit on some rows)
        rng = np.random.default_rng(5)
        for t in rng.normal(size=(500, 3)) * 10.0 ** rng.integers(-3, 4, size=(500, 1)):
            assert subspace_stats(scored([t]), 0.0).mean_norm == np.linalg.norm(t)

    def test_diameter_identity(self):
        pairs = scored(np.random.default_rng(0).normal(size=(50, 3)))
        s = subspace_stats(pairs, threshold=0.0)
        assert s.diameter == s.mean_norm + 2.0 * s.std_norm
