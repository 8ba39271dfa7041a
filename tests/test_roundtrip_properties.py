"""Property tests: PoseSet and PairTable write -> read -> write is a byte
fixed point.

For any finite floats, whitespace-free ids and unit or non-unit quaternions,
the file written after one read never changes again, and it equals the
first file whenever reading keeps every quaternion verbatim (within 1e-8 of
unit norm with w >= 0). Values read back equal Python's float() of the
written text. A pair table read back has the row ids of the table written,
as the same frame-id vocabulary and index columns: a table drops the ids no
row uses, so one built from a whole pose set's ids equals the one read back.
"""

import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from frustoval import OverlapConfig, config_digest, generate_pairs
from frustoval import dataset
from frustoval.dataset import PairTable, PoseSet, fnum, round9_array

from conftest import pose_set, random_pose

CFG = OverlapConfig()

ids = st.text(st.characters(min_codepoint=33, max_codepoint=126), min_size=1, max_size=8).filter(
    lambda s: s != "#"  # a record line starting with "# " would read as a header line
)
finite = st.floats(allow_nan=False, allow_infinity=False)
unit_quat = st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4).filter(
    lambda v: sum(c * c for c in v) > 1e-6
).map(lambda v: list(np.copysign(1.0, v[0]) * np.asarray(v) / np.linalg.norm(v)))  # w >= 0
any_quat = st.lists(st.floats(-100.0, 100.0), min_size=4, max_size=4).filter(
    lambda v: sum(c * c for c in v) > 1e-6
)
row = st.tuples(st.floats(0.0, 1.0, exclude_min=True), st.one_of(unit_quat, any_quat),
                st.lists(finite, min_size=3, max_size=3))


@st.composite
def tables(draw, pairs: bool):
    """A table in any row order, over a vocabulary that may hold ids no row
    uses, as generate_pairs builds one from a pose set's ids."""
    keys = draw(st.lists(st.tuples(ids, ids).filter(lambda k: k[0] != k[1]),
                         unique=True, max_size=20))
    rows = draw(st.lists(row, min_size=len(keys), max_size=len(keys)))
    frame_ids = sorted({*draw(st.lists(ids, max_size=3)), *(f for k in keys for f in k)})
    index = {f: i for i, f in enumerate(frame_ids)}
    return PairTable(
        frame_ids, [index[a] for a, _ in keys], [index[q] for _, q in keys],
        np.array([r[1] for r in rows]).reshape(-1, 4), np.array([r[2] for r in rows]).reshape(-1, 3),
        overlaps=np.array([r[0] for r in rows]) if pairs else None,
        config_digest=config_digest(CFG),
    )


@st.composite
def pose_sets(draw):
    frame_ids = draw(st.lists(ids, unique=True, max_size=20))
    rows = draw(st.lists(st.tuples(st.one_of(unit_quat, any_quat), st.lists(finite, min_size=3, max_size=3)),
                         min_size=len(frame_ids), max_size=len(frame_ids)))
    return PoseSet("drawn", "train", frame_ids, np.array([r[0] for r in rows]).reshape(-1, 4),
                   np.array([r[1] for r in rows]).reshape(-1, 3))


def keys(table):
    return table.frame_ids if isinstance(table, PoseSet) else [r.key for r in table]


def write(path, table):
    if isinstance(table, PoseSet):
        dataset.write_poses(path, table)
        return dataset.read_poses(path)
    if table.is_pairs:
        dataset.write_pairs(path, table, CFG, min_overlap=0.0, max_overlap=1.0)
        return dataset.read_pairs(path).pairs
    dataset.write_predictions(path, table)
    return dataset.read_predictions(path)


def kept_verbatim(rotations) -> bool:
    """The reader's rule, applied to the written (9-digit) components."""
    for q in rotations.tolist():
        w, x, y, z = (float(fnum(c)) for c in q)
        if not (abs(w * w + x * x + y * y + z * z - 1.0) <= 1e-8 and w >= 0.0):
            return False
    return True


def check_fixed_point(table):
    with tempfile.TemporaryDirectory() as tmp:
        f1, f2, f3 = (Path(tmp) / name for name in ("1", "2", "3"))
        t1 = write(f1, table)
        t2 = write(f2, t1)
        t3 = write(f3, t2)
        assert f2.read_bytes() == f3.read_bytes()
        assert t2 == t3
        assert keys(t1) == keys(table)
        if isinstance(table, PairTable):
            assert t1 == PairTable(table.frame_ids, table.anchors, table.queries, t1.rotations,
                                   t1.translations, t1.overlaps, table.config_digest)
        written = [[float(fnum(v)) for v in r] for r in table.translations.tolist()]
        np.testing.assert_array_equal(t1.translations, np.reshape(written, (-1, 3)))
        if getattr(table, "overlaps", None) is not None:
            np.testing.assert_array_equal(t1.overlaps, [float(fnum(v)) for v in table.overlaps.tolist()])
        if kept_verbatim(table.rotations):
            assert f1.read_bytes() == f2.read_bytes()


@settings(max_examples=150, deadline=None)
@given(tables(pairs=True))
def test_pair_files_are_a_fixed_point(table):
    check_fixed_point(table)


@settings(max_examples=150, deadline=None)
@given(tables(pairs=False))
def test_prediction_files_are_a_fixed_point(table):
    check_fixed_point(table)


@settings(max_examples=150, deadline=None)
@given(tables(pairs=True), st.data())
def test_selection_equals_the_table_built_from_its_ids(table, data):
    mask = np.array(data.draw(st.lists(st.booleans(), min_size=len(table), max_size=len(table))), dtype=bool)
    built = PairTable.from_ids(*table.id_columns(mask), table.rotations[mask], table.translations[mask],
                               table.overlaps[mask], table.config_digest)
    assert table[mask] == built
    assert built.frame_ids == sorted({f for k in keys(built) for f in k})


def test_generated_pairs_read_back_equal():
    # the last pose is far from the others: no pair holds it, yet the pose
    # set's ids, all of them, are the vocabulary generate_pairs starts from
    rng = np.random.default_rng(5)
    poses = [random_pose(rng, frame_id=f"f{k:02d}") for k in range(12)]
    poses.append(random_pose(rng, box=1e4, frame_id="f99"))
    generated = generate_pairs(pose_set("s", "train", poses), CFG, 0.0, 1.0)
    assert 0 < len(generated) and "f99" not in generated.frame_ids
    # numbers as a file holds them, so that reading back loses nothing
    table = PairTable(generated.frame_ids, generated.anchors, generated.queries,
                      round9_array(generated.rotations), round9_array(generated.translations),
                      round9_array(generated.overlaps), generated.config_digest)
    assert kept_verbatim(table.rotations)
    with tempfile.TemporaryDirectory() as tmp:
        assert write(Path(tmp) / "g.pairs", table) == table


@settings(max_examples=150, deadline=None)
@given(pose_sets())
def test_pose_files_are_a_fixed_point(poses):
    check_fixed_point(poses)
