"""Property tests: PairTable write -> read -> write is a byte fixed point.

For any finite floats, whitespace-free ids and unit or non-unit quaternions,
the file written after one read never changes again, and it equals the
first file whenever reading keeps every quaternion verbatim (within 1e-8 of
unit norm with w >= 0). Values read back equal Python's float() of the
written text.
"""

import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from frustoval import OverlapConfig, config_digest
from frustoval import dataset
from frustoval.dataset import PairTable, fnum

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
    keys = draw(st.lists(st.tuples(ids, ids).filter(lambda k: k[0] != k[1]),
                         unique=True, max_size=20))
    rows = draw(st.lists(row, min_size=len(keys), max_size=len(keys)))
    return PairTable(
        [a for a, _ in keys], [q for _, q in keys],
        np.array([r[1] for r in rows]).reshape(-1, 4), np.array([r[2] for r in rows]).reshape(-1, 3),
        overlaps=np.array([r[0] for r in rows]) if pairs else None,
        config_digest=config_digest(CFG),
    )


def write(path, table):
    if table.is_pairs:
        dataset.write_pairs(path, table, CFG, min_overlap=0.0, max_overlap=1.0)
        return dataset.read_pairs(path).pairs
    dataset.write_predictions(path, table, config_digest=table.config_digest)
    return dataset.read_predictions(path).predictions


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
        assert t1.keys() == table.keys()
        written = [[float(fnum(v)) for v in r] for r in table.translations.tolist()]
        np.testing.assert_array_equal(t1.translations, np.reshape(written, (-1, 3)))
        if table.is_pairs:
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
