"""Property tests: metric scale invariance and the symmetric pair score.

Multiplying every translation of a pair set and its predictions by a power
of two is exact in floating point, so the dimensionless MASE and MAPSE must
come out bit-equal. An unordered pair's score is the minimum of the two
directional `overlap_score`s, for any poses and any configuration.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from frustoval import (
    FrustumSpec,
    MetricConfig,
    OverlapConfig,
    PoseSet,
    Pose,
    Quaternion,
    Translation,
    evaluate,
    generate_pairs,
    overlap_score,
)
from frustoval.dataset import PairTable

# magnitudes kept well away from overflow and from the subnormal range, where
# a power-of-two scale would stop being exact
coord = st.one_of(st.just(0.0), st.floats(1e-6, 1e6), st.floats(-1e6, -1e-6))
quat = st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4).filter(
    lambda v: sum(c * c for c in v) > 1e-6
)


@st.composite
def problems(draw):
    """A pair table and its predictions with the same keys."""
    n = draw(st.integers(2, 12))
    t = np.array(draw(st.lists(coord, min_size=3 * n, max_size=3 * n))).reshape(n, 3)
    t_hat = np.array(draw(st.lists(coord, min_size=3 * n, max_size=3 * n))).reshape(n, 3)
    q = np.array(draw(st.lists(quat, min_size=2 * n, max_size=2 * n)))
    q /= np.linalg.norm(q, axis=1, keepdims=True)
    anchors = [f"a{k:02d}" for k in range(n)]
    queries = [f"q{k:02d}" for k in range(n)]
    overlaps = np.linspace(0.5, 1.0, n)
    return (PairTable(anchors, queries, q[:n], t, overlaps, "d"),
            PairTable(anchors, queries, q[n:], t_hat, None, "d"))


def scaled(table, factor):
    return PairTable(table.anchor_ids, table.query_ids, table.rotations,
                     table.translations * factor, table.overlaps, table.config_digest)


@settings(max_examples=200, deadline=None)
@given(problems(), st.integers(-20, 20), st.sampled_from(["l1", "l2"]))
def test_mase_mapse_scale_invariant(problem, exponent, norm):
    pairs, preds = problem
    factor = 2.0 ** exponent
    cfg = MetricConfig(norm=norm)
    before = evaluate(pairs, preds, cfg, include=("mase", "mapse"))
    after = evaluate(scaled(pairs, factor), scaled(preds, factor), cfg, include=("mase", "mapse"))
    assert after.t_mase == before.t_mase
    assert after.t_mapse == before.t_mapse


pose = st.tuples(quat, st.lists(st.floats(-2.0, 2.0), min_size=3, max_size=3))


@settings(max_examples=100, deadline=None)
@given(st.lists(pose, min_size=2, max_size=4), st.sampled_from([1e-9, 0.03, 0.1]),
       st.sampled_from([110.0, 180.0]))
def test_unordered_score_is_min_of_directions(drawn, eps, gate):
    poses = [Pose(Quaternion.unit(*q), Translation(*t), f"p{k}") for k, (q, t) in enumerate(drawn)]
    spec = FrustumSpec(grid_nx=4, grid_ny=4, grid_nz=4, boundary_epsilon=eps)
    directional = OverlapConfig(frustum=spec, max_relative_rotation_deg=gate)
    symmetric = OverlapConfig(frustum=spec, max_relative_rotation_deg=gate, symmetric=True)
    got = {r.key: r.overlap
           for r in generate_pairs(PoseSet("drawn", "test", poses, "synthetic"), symmetric, unordered=True)}
    for i, a in enumerate(poses):
        for b in poses[i + 1:]:
            want = min(overlap_score(a, b, directional), overlap_score(b, a, directional))
            assert got.get((a.frame_id, b.frame_id), 0.0) == want
