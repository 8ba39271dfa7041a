"""Property tests: metric scale invariance, the prediction join, the
symmetric pair score and rigid invariance.

Multiplying every translation of a pair set and its predictions by a power
of two is exact in floating point, so the dimensionless MASE and MAPSE must
come out bit-equal. An unordered pair's score is the minimum of the two
directional `overlap_score`s, for any poses and any configuration. Moving
both poses of a pair by one rigid motion leaves their relative pose
unchanged up to rounding, and their score up to one probe point. Matching
predictions to pairs gives the rows, and the refusals, of a join through a
dict keyed by (anchor_id, query_id) tuples, whatever ids each table holds.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from frustoval import (
    FrustumSpec,
    MetricConfig,
    OverlapConfig,
    Pose,
    Quaternion,
    Translation,
    compose,
    evaluate,
    generate_pairs,
    overlap_score,
    relative,
)
from frustoval.dataset import PairTable
from frustoval.metrics import EvaluationError, match_predictions, unmatched_predictions

from conftest import assert_transform_close, pose_set

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
    return (PairTable.from_ids(anchors, queries, q[:n], t, overlaps, "d"),
            PairTable.from_ids(anchors, queries, q[n:], t_hat, None, "d"))


def scaled(table, factor):
    return PairTable(table.frame_ids, table.anchors, table.queries, table.rotations,
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


# ids where one is a prefix of another ("a" < "a-1" < "a-10" < "a-2" < "a0"),
# which probe the order of the vocabularies the join maps between
join_ids = st.one_of(st.sampled_from(["a", "a-1", "a-10", "a-2", "a0", "a00", "a.", "A", "b", "ab"]),
                     st.text(st.characters(min_codepoint=33, max_codepoint=126), min_size=1, max_size=4))
join_key = st.tuples(join_ids, join_ids).filter(lambda k: k[0] != k[1])


def oracle_join(pair_keys, pred_keys):
    """What match_predictions and unmatched_predictions return, or the text
    they refuse with, computed with a dict from key tuples to prediction
    rows. Both key lists are in row order."""
    dupes = sorted({a for a, b in zip(pred_keys, pred_keys[1:]) if a == b})
    if dupes:
        refusal = f"duplicate prediction keys: {dupes[:10]}"
        return refusal, refusal
    row = {k: i for i, k in enumerate(pred_keys)}
    idx = [row.get(k, -1) for k in pair_keys]
    missing = [k for k, i in zip(pair_keys, idx) if i < 0]
    hit = set(idx)
    unmatched = [k for i, k in enumerate(pred_keys) if i not in hit]
    return (f"predictions missing for pair keys: {missing[:10]}" if missing else idx), unmatched


def outcome(fn, *args):
    try:
        got = fn(*args)
    except EvaluationError as e:
        return str(e)
    return got if isinstance(got, list) else got.tolist()


@settings(max_examples=300, deadline=None)
@given(st.lists(join_key, unique=True, max_size=25), st.data())
def test_join_matches_tuple_dict_oracle(pair_keys, data):
    """Prediction tables that hold a subset of the pair keys (missing rows),
    keys of their own, some with ids no pair uses (orphans), and now and then a
    repeated key; the pair table's vocabulary may hold ids no row uses."""
    kept = data.draw(st.lists(st.booleans(), min_size=len(pair_keys), max_size=len(pair_keys)))
    extra = data.draw(st.lists(join_key, max_size=6))
    pred_keys = [k for k, keep in zip(pair_keys, kept) if keep] + extra
    unused = data.draw(st.lists(join_ids, max_size=3))
    frame_ids = sorted({*unused, *(f for k in pair_keys for f in k)})
    index = {f: i for i, f in enumerate(frame_ids)}
    m, n = len(pair_keys), len(pred_keys)
    pairs = PairTable(frame_ids, [index[a] for a, _ in pair_keys], [index[q] for _, q in pair_keys],
                      np.tile([1.0, 0.0, 0.0, 0.0], (m, 1)), np.zeros((m, 3)), np.full(m, 0.5), "d")
    preds = PairTable.from_ids([a for a, _ in pred_keys], [q for _, q in pred_keys],
                               np.tile([1.0, 0.0, 0.0, 0.0], (n, 1)), np.arange(3.0 * n).reshape(n, 3))
    want_match, want_unmatched = oracle_join([r.key for r in pairs], [r.key for r in preds])
    assert outcome(match_predictions, pairs, preds) == want_match
    assert outcome(unmatched_predictions, pairs, preds) == want_unmatched


def test_join_oracle_sees_repeats_and_missing_rows():
    assert oracle_join([("a", "b")], [("a", "b"), ("a", "b")])[0] == "duplicate prediction keys: [('a', 'b')]"
    assert oracle_join([("a", "b"), ("a", "c")], [("a", "c"), ("x", "y")]) == (
        "predictions missing for pair keys: [('a', 'b')]", [("x", "y")])


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
           for r in generate_pairs(pose_set("drawn", "test", poses, "synthetic"), symmetric, unordered=True)}
    for i, a in enumerate(poses):
        for b in poses[i + 1:]:
            want = min(overlap_score(a, b, directional), overlap_score(b, a, directional))
            assert got.get((a.frame_id, b.frame_id), 0.0) == want


@settings(max_examples=200, deadline=None)
@given(pose, pose, st.tuples(quat, st.lists(st.floats(-1e3, 1e3), min_size=3, max_size=3)))
def test_rigid_invariance(a, b, g):
    a, b, g = (Pose(Quaternion.unit(*q), Translation(*t), f"p{k}") for k, (q, t) in enumerate((a, b, g)))
    ga, gb = (Pose(c.rotation, c.translation, p.frame_id) for p, c in ((a, compose(g, a)), (b, compose(g, b))))
    assert_transform_close(relative(ga, gb), relative(a, b), tol=1e-9)
    cfg = OverlapConfig()
    assert abs(overlap_score(ga, gb, cfg) - overlap_score(a, b, cfg)) <= 1.0 / cfg.frustum.n_points
