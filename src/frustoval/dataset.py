"""The columnar pose and pair sets, pose-format parsers and the canonical
on-disk formats for every artifact. A `PoseSet` is a list of frame ids plus
(N, 4) wxyz and (N, 3) arrays; a `PairTable` holds its ids once, as a sorted
vocabulary, with int32 anchor and query indices into it per row. Rows are
sorted by id.

All toolkit files are line-oriented text: a `# frustoval-format v1` magic
line, a `# key=value` header block echoing the full configuration, then one
record per line; blank lines are ignored. Floats are printed with 9
significant digits and records are sorted by their ids, so identical logical
content serializes byte-identically and write -> read -> write is a fixed
point.

Pose, pair and prediction files are read once and their records parsed by
one structured `np.loadtxt` call, so numbers take the syntax loadtxt reads.
A refusal names `path:LINE:` when one line is at fault and `path:` otherwise;
the line is looked up only after a check fails.

Ingested poses (public datasets, synthetic trajectories) are rounded to the
same 9-significant-digit precision (`round9_array`) before they become a
PoseSet, which makes parse -> serialize -> parse an exact identity as well.
"""

from __future__ import annotations

import hashlib
import math
import operator
import os
import re
import tempfile
import warnings
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__, geometry
from .frustum import FrustumSpec, OverlapConfig, pair_keys
from .geometry import Quaternion, RelativePose, Translation

FORMAT_LINE = "# frustoval-format v1"
POSE_CONVENTION = "camera-to-world"
QUATERNION_ORDER = "wxyz"
RELATIVE_CONVENTION = "inverse(anchor)*query"

# parsed quaternions are kept verbatim when this close to unit norm, so that
# canonical files survive read/write cycles byte-exactly
_PARSE_NORM_SLACK = 1e-8


class FormatError(Exception):
    """A toolkit file is malformed, truncated, or of an unsupported version."""


class ParseError(FormatError):
    """An external dataset file could not be ingested."""


class DigestMismatchError(FormatError):
    """Pair and prediction files were produced under different configurations."""


def fnum(x: float) -> str:
    """Canonical 9-significant-digit rendering of a finite float."""
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"cannot serialize non-finite number {x!r}")
    if x == 0.0:
        x = 0.0  # never emit -0
    return format(x, ".9g")


def round9_array(values) -> np.ndarray:
    """Every element rounded to the canonical serialized precision, as
    float(fnum(x)): the values as a file stores them."""
    values = np.asarray(values, dtype=float)
    return np.array([float(fnum(x)) for x in values.ravel().tolist()]).reshape(values.shape)


# ---------------------------------------------------------------------------
# domain records
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class PoseSet:
    """The camera poses of one scene split as columns, rows sorted by frame id.

    `frame_ids` is a list of unique ids, `rotations` an (N, 4) wxyz array and
    `translations` an (N, 3) array: camera-to-world poses. Rows given out of
    order are sorted on construction; repeated ids and columns of different
    lengths are refused. Equality compares names, notes and columns.
    """

    scene_name: str
    split: str
    frame_ids: list
    rotations: np.ndarray
    translations: np.ndarray
    source_format: str = "canonical"
    convention_note: str = ""

    def __post_init__(self):
        if self.split not in ("train", "test"):
            raise ValueError(f"split must be 'train' or 'test', got {self.split!r}")
        self.frame_ids = list(self.frame_ids)
        self.rotations = np.ascontiguousarray(self.rotations, dtype=float).reshape(-1, 4)
        self.translations = np.ascontiguousarray(self.translations, dtype=float).reshape(-1, 3)
        if not len(self.frame_ids) == len(self.rotations) == len(self.translations):
            raise ValueError("pose set columns differ in length")
        if not all(map(operator.le, self.frame_ids, self.frame_ids[1:])):
            order = sorted(range(len(self.frame_ids)), key=self.frame_ids.__getitem__)
            self.frame_ids = [self.frame_ids[k] for k in order]
            self.rotations, self.translations = self.rotations[order], self.translations[order]
        if any(map(operator.eq, self.frame_ids, self.frame_ids[1:])):
            raise ValueError("frame ids must be unique")

    def __len__(self):
        return len(self.frame_ids)

    def __eq__(self, other):
        if not isinstance(other, PoseSet):
            return NotImplemented
        names = ("scene_name", "split", "source_format", "convention_note", "frame_ids")
        return ([getattr(self, n) for n in names] == [getattr(other, n) for n in names]
                and np.array_equal(self.rotations, other.rotations)
                and np.array_equal(self.translations, other.translations))


@dataclass(frozen=True)
class PairRecord:
    """One row of a pair or prediction table, as iterating the table yields it:
    an ordered frame pair, its overlap score (None for a prediction), the
    relative pose and the table's config digest. Read-only; nothing takes it
    as input."""

    anchor_id: str
    query_id: str
    overlap: float | None
    rel: RelativePose
    config_digest: str

    @property
    def key(self):
        return (self.anchor_id, self.query_id)


def _encode_ids(anchor_ids, query_ids):
    """(frame_ids, anchors, queries): the sorted set of the ids and int32 indices into it."""
    frame_ids = sorted({*anchor_ids, *query_ids})
    index = {f: i for i, f in enumerate(frame_ids)}
    return (frame_ids, np.fromiter(map(index.get, anchor_ids), np.int32),
            np.fromiter(map(index.get, query_ids), np.int32))


class PairTable:
    """A pair set or a prediction set as columns, rows sorted by (anchor_id, query_id).

    `frame_ids` is the sorted list of the ids the rows use and `anchors` and
    `queries` are int32 indices into it, so integer order is id order and
    `key()` one ascending int64 per row. `rotations` is an (M, 4) wxyz array
    and `translations` an (M, 3) array. A pair set also has an (M,)
    `overlaps` array and the `config_digest` it was scored under; a
    prediction set has `overlaps` None and carries the digest of the pairs it
    was made for ('' when unknown). Construction sorts the rows and drops
    the ids no row uses; repeated keys are kept, for writers and evaluation
    to refuse. `from_ids` builds a table from id strings. Tables are not
    modified in place.

    `table[rows]` selects rows by a slice, a boolean mask or an integer index
    array and returns a table with the same digest. Iterating yields
    read-only PairRecord rows. Tables with the same row ids and numbers, so
    the same columns, compare equal.
    """

    __slots__ = ("frame_ids", "anchors", "queries", "overlaps", "rotations", "translations",
                 "config_digest")

    def __init__(self, frame_ids, anchors, queries, rotations, translations, overlaps=None,
                 config_digest: str = ""):
        self.frame_ids = list(frame_ids)
        if any(map(operator.ge, self.frame_ids, self.frame_ids[1:])):
            raise ValueError("pair table frame ids must be sorted and unique")
        self.anchors = np.ascontiguousarray(anchors, dtype=np.int32).reshape(-1)
        self.queries = np.ascontiguousarray(queries, dtype=np.int32).reshape(-1)
        self.rotations = np.ascontiguousarray(rotations, dtype=float).reshape(-1, 4)
        self.translations = np.ascontiguousarray(translations, dtype=float).reshape(-1, 3)
        self.overlaps = None if overlaps is None else np.ascontiguousarray(overlaps, dtype=float).reshape(-1)
        self.config_digest = config_digest
        columns = (self.queries, self.rotations, self.translations, self.overlaps)
        if {len(c) for c in columns if c is not None} != {len(self.anchors)}:
            raise ValueError("pair table columns differ in length")
        used = np.zeros(len(self.frame_ids), dtype=bool)
        used[self.anchors] = used[self.queries] = True
        if not used.all():
            self.frame_ids = [self.frame_ids[k] for k in np.flatnonzero(used).tolist()]
            index = np.cumsum(used, dtype=np.int32) - 1
            self.anchors, self.queries = index[self.anchors], index[self.queries]
        if (np.diff(self.key()) < 0).any():
            order = np.argsort(self.key(), kind="stable")
            for name in ("anchors", "queries", "rotations", "translations", "overlaps"):
                column = getattr(self, name)
                setattr(self, name, None if column is None else column[order])

    @classmethod
    def from_ids(cls, anchor_ids, query_ids, rotations, translations, overlaps=None, config_digest=""):
        """A table whose rows hold the given anchor and query id strings."""
        return cls(*_encode_ids(anchor_ids, query_ids), rotations, translations, overlaps, config_digest)

    @property
    def is_pairs(self) -> bool:
        return self.overlaps is not None

    def key(self) -> np.ndarray:
        return pair_keys(self.anchors, self.queries, len(self.frame_ids))

    def id_columns(self, rows=slice(None)):
        """The anchor ids and the query ids of the selected rows, as two lists."""
        ids = np.array(self.frame_ids, dtype=object)
        return ids[self.anchors[rows]].tolist(), ids[self.queries[rows]].tolist()

    def id_pairs(self, rows) -> list:
        """(anchor_id, query_id) of the selected rows, in row order."""
        return list(zip(*self.id_columns(rows)))

    def repeated_keys(self) -> list:
        """(anchor_id, query_id) of each key more than one row holds, in order."""
        key = self.key()
        rows = np.flatnonzero(np.diff(key) == 0)
        return self.id_pairs(rows[np.diff(key[rows], prepend=-1) != 0])

    def __len__(self):
        return len(self.anchors)

    def __iter__(self):
        overlaps = [None] * len(self) if self.overlaps is None else self.overlaps.tolist()
        for a, q, overlap, r, t in zip(*self.id_columns(), overlaps,
                                       self.rotations.tolist(), self.translations.tolist()):
            yield PairRecord(a, q, overlap, RelativePose(Quaternion(*r), Translation(*t)),
                             self.config_digest)

    def __getitem__(self, rows):
        if isinstance(rows, (int, np.integer)):
            raise TypeError("select table rows with a slice, a boolean mask or an integer "
                            "index array; iterate for single rows")
        rows = np.arange(len(self))[rows]  # an index array: a slice would share memory
        return PairTable(self.frame_ids, self.anchors[rows], self.queries[rows],
                         self.rotations[rows], self.translations[rows],
                         None if self.overlaps is None else self.overlaps[rows], self.config_digest)

    def __eq__(self, other):
        if not isinstance(other, PairTable):
            return NotImplemented
        if self.is_pairs != other.is_pairs:
            return False
        return (self.frame_ids == other.frame_ids and np.array_equal(self.anchors, other.anchors)
                and np.array_equal(self.queries, other.queries)
                and np.array_equal(self.rotations, other.rotations)
                and np.array_equal(self.translations, other.translations)
                and (not self.is_pairs or (self.config_digest == other.config_digest
                                           and np.array_equal(self.overlaps, other.overlaps))))

    __hash__ = None

    def __repr__(self):
        kind = "pairs" if self.is_pairs else "predictions"
        return f"PairTable({len(self)} {kind}, config_digest={self.config_digest!r})"


# ---------------------------------------------------------------------------
# configuration digest
# ---------------------------------------------------------------------------


def convention_entries() -> dict:
    return {
        "pose_convention": POSE_CONVENTION,
        "quaternion_order": QUATERNION_ORDER,
        "relative_convention": RELATIVE_CONVENTION,
    }


def config_header_entries(cfg: OverlapConfig) -> dict:
    f = cfg.frustum
    return {
        "hfov_deg": fnum(f.hfov_deg),
        "vfov_deg": fnum(f.vfov_deg),
        "near_m": fnum(f.near),
        "far_m": fnum(f.far),
        "grid": f"{f.grid_nx}x{f.grid_ny}x{f.grid_nz}",
        "boundary_epsilon_m": fnum(f.boundary_epsilon),
        "max_relative_rotation_deg": fnum(cfg.max_relative_rotation_deg),
        "symmetric": "true" if cfg.symmetric else "false",
    }


def config_digest(cfg: OverlapConfig) -> str:
    """Hash of the overlap configuration and the pose conventions.

    Stored in pair files and copied into prediction files; evaluation refuses
    to mix files with different digests.
    """
    entries = {**convention_entries(), **config_header_entries(cfg)}
    blob = "|".join(f"{k}={v}" for k, v in sorted(entries.items()))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def parse_grid(text: str):
    """(nx, ny, nz) of an 'NXxNYxNZ' probe lattice."""
    m = re.fullmatch(r"(\d+)x(\d+)x(\d+)", text)
    if not m:
        raise FormatError(f"bad grid specification {text!r}, expected NXxNYxNZ")
    return tuple(int(g) for g in m.groups())


class _Refused(FormatError):
    """A check failed on one header entry (`key`) or one record (`row`,
    counted from 0); the reader adds the file and that line."""

    def __init__(self, message: str, *, key: str | None = None, row: int | None = None):
        super().__init__(message)
        self.key, self.row = key, row


def _entry(header: dict, key: str, convert=float, default=None):
    """header[key], or `default` when absent, through `convert`."""
    value = header.get(key, default)
    if value is None:
        raise FormatError(f"header is missing configuration key {key!r}")
    try:
        return convert(value)
    except (ValueError, FormatError):
        raise _Refused(f"bad {key} value {value!r}", key=key) from None


def config_from_header(header: dict) -> OverlapConfig:
    """The OverlapConfig a pair file's header echoes. A missing or unreadable
    entry, or values the configuration refuses, raise FormatError."""
    nx, ny, nz = _entry(header, "grid", parse_grid)
    try:
        spec = FrustumSpec(
            hfov_deg=_entry(header, "hfov_deg"), vfov_deg=_entry(header, "vfov_deg"),
            near=_entry(header, "near_m"), far=_entry(header, "far_m"), grid_nx=nx, grid_ny=ny,
            grid_nz=nz, boundary_epsilon=_entry(header, "boundary_epsilon_m"),
        )
        return OverlapConfig(
            frustum=spec, max_relative_rotation_deg=_entry(header, "max_relative_rotation_deg"),
            symmetric=_entry(header, "symmetric", str) == "true",
        )
    except ValueError as e:
        raise FormatError(str(e)) from None


# ---------------------------------------------------------------------------
# header block + atomic writing
# ---------------------------------------------------------------------------


@contextmanager
def atomic_write(path):
    """Write via a temp file and rename, so interrupted runs leave no partial files."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", newline="\n") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _write_header(fh, kind: str, entries: dict):
    fh.write(FORMAT_LINE + "\n")
    fh.write(f"# kind={kind}\n")
    fh.write(f"# toolkit_version={__version__}\n")
    for k, v in entries.items():
        fh.write("# {}={}\n".format(k, str(v).replace("\n", " ")))


def _read_lines(path):
    try:
        text = Path(path).read_text()
    except FileNotFoundError:
        raise FormatError(f"missing input file: {path}") from None
    return text.splitlines()


def _header_block(path, lines, expected: str | None = None):
    """(kind, header dict, index of the first record line): the magic line,
    then the consecutive `# key=value` lines. Blank lines among them are
    skipped and a repeated key keeps its last value. A kind other than
    `expected`, when given, is refused."""
    if not lines or lines[0] != FORMAT_LINE:
        raise FormatError(
            f"{path}: not a frustoval v1 file (expected first line {FORMAT_LINE!r})"
        )
    header = {}
    for end in range(1, len(lines)):
        ln = lines[end]
        if ln.startswith("# "):
            key, sep, value = ln[2:].partition("=")
            if not sep:
                raise FormatError(f"{path}:{end + 1}: malformed header line {ln!r}")
            header[key] = value
        elif ln.strip():
            break
    else:
        end = len(lines)
    kind = header.pop("kind", None)
    if kind is None:
        raise FormatError(f"{path}: header has no kind entry")
    if expected not in (None, kind):
        raise FormatError(f"{path}: expected a {expected} file, found kind={kind}")
    return kind, header, end


def read_header(path):
    """Return (kind, header dict, record lines) of a canonical file."""
    lines = _read_lines(path)
    kind, header, start = _header_block(path, lines)
    late = next((i for i in range(start, len(lines)) if lines[i].startswith("# ")), None)
    if late is not None:
        raise FormatError(f"{path}:{late + 1}: header line {lines[late]!r} after the first record")
    return kind, header, [ln for ln in lines[start:] if ln.strip()]


def _record_lineno(lines, k: int) -> int:
    """File line number of the k-th record: the k-th non-blank line from the
    first line after the header block. Only refusals call this, so readers
    never track line numbers while parsing."""
    first = next(i for i, ln in enumerate(lines) if i and ln.strip() and not ln.startswith("# "))
    return [i for i in range(first, len(lines)) if lines[i].strip()][k] + 1


@contextmanager
def _located(path, lines):
    """Prefix a FormatError raised inside with the file and, for a _Refused,
    its line: the record's, or the header entry's last (the one kept)."""
    try:
        yield
    except _Refused as e:
        if e.key is None:
            lineno = _record_lineno(lines, e.row)
        else:
            lineno = max(n for n, ln in enumerate(lines, start=1) if ln.startswith(f"# {e.key}="))
        raise FormatError(f"{path}:{lineno}: {e}") from None
    except FormatError as e:
        raise FormatError(f"{path}: {e}") from None


def _loadtxt(lines, dtype):
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "loadtxt: input contained no data")
        return np.loadtxt(lines, dtype=dtype, comments=None, ndmin=1)


def _first_refused(body, dtype) -> int:
    """Index of the first line of `body` that np.loadtxt refuses, found by
    bisecting with the same call: each line is refused or not on its own."""
    lo, hi = 0, len(body)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        try:
            _loadtxt(body[lo:mid], dtype)
            lo = mid
        except ValueError:
            hi = mid
    return lo


def _refusal(line: str, names, n_ids: int, record: str) -> str:
    """Why a record line was refused, found on that line alone."""
    tokens = line.split()
    if tokens[:1] == ["#"]:
        return f"header line {line!r} after the first record"
    if len(tokens) != len(names):
        return f"{record} record needs {len(names)} fields, got {len(tokens)}: {line!r}"
    for name, tok in zip(names[n_ids:], tokens[n_ids:]):
        try:
            if not np.isfinite(_loadtxt([tok], np.float64)).all():
                return f"non-finite {name} value {tok!r}"
        except ValueError:
            return f"bad {name} value {tok!r}"
    return f"unreadable {record} record {line!r}"


def _read_records(path, kind: str, columns: str):
    """Read a record file once: (header, id columns as lists of str, (M,
    fields) float64 array of the numbers, lines). One structured np.loadtxt
    parses every line after the header block, skipping blank ones; the line
    of a refused record is looked up only then."""
    lines = _read_lines(path)
    _, header, start = _header_block(path, lines, kind)
    names = columns.split()
    n_ids = sum(name.endswith("_id") for name in names)
    dtype = np.dtype([*((name, object) for name in names[:n_ids]),
                      ("values", np.float64, (len(names) - n_ids,))])
    try:
        table = _loadtxt(lines[start:], dtype)
    except ValueError:
        i = start + _first_refused(lines[start:], dtype)
    else:
        ids, values = [table[name].tolist() for name in names[:n_ids]], table["values"]
        bad = ~np.isfinite(values).all(axis=1)
        if "#" in ids[0]:  # a header line with as many fields as a record
            bad[ids[0].index("#")] = True
        if not bad.any():
            with _located(path, lines):
                declared = _entry(header, "count", int, len(values))
                if declared != len(values):
                    raise FormatError(f"header declares {declared} records, found {len(values)}")
            return header, ids, values, lines
        i = _record_lineno(lines, int(np.argmax(bad))) - 1
    raise FormatError(f"{path}:{i + 1}: {_refusal(lines[i], names, n_ids, kind[:-1])}")


def _parsed_quats(q: np.ndarray) -> np.ndarray:
    """(M, 4) parsed wxyz rows, each kept verbatim when within
    _PARSE_NORM_SLACK of unit norm with w >= 0, otherwise normalized to the
    canonical hemisphere, so canonical files survive read/write cycles
    byte-exactly."""
    w, x, y, z = q.T
    with np.errstate(over="ignore"):
        nsq = w * w + x * x + y * y + z * z
    q = np.array(q)
    redo = ~((np.abs(nsq - 1.0) <= _PARSE_NORM_SLACK) & (w >= 0.0))
    if redo.any():
        rows = np.flatnonzero(redo)
        bad = rows[(nsq[rows] == 0.0) | ~np.isfinite(nsq[rows])]
        if bad.size:
            k = int(bad[0])
            raise _Refused("zero quaternion cannot be normalized" if nsq[k] == 0.0
                           else "quaternion's squared norm overflows", row=k)
        q[rows] = geometry.normalize_quat_rows(q[rows])
    return q


def _check_keys(frame_ids, anchors, queries, kind: str):
    """Refuse keys that repeat or are out of order."""
    step = np.diff(pair_keys(anchors, queries, len(frame_ids)))
    if (step <= 0).any():
        k = int(np.argmax(step <= 0)) + 1
        problem = "duplicate" if step[k - 1] == 0 else "unsorted"
        raise _Refused(f"{problem} {kind} key {(frame_ids[anchors[k]], frame_ids[queries[k]])}: "
                       "records must be sorted by (anchor_id, query_id) without repeats", row=k)


def _check_ids(frame_ids):
    """Refuse ids a record line cannot hold; `frame_ids` are unique."""
    # an id "#" would start a record line that reads back as a header line
    for frame_id in frame_ids:
        if not frame_id or frame_id == "#" or any(c.isspace() for c in frame_id):
            raise ValueError(f"frame id {frame_id!r} must be non-empty, whitespace-free and not '#'")


def _write_table(path, kind: str, entries: dict, columns: str, count: int, lines):
    """Write the header, ending with the row count and the column names, then the lines."""
    with atomic_write(path) as fh:
        _write_header(fh, kind, {**entries, "count": count, "columns": columns})
        fh.writelines(lines)


def _write_records(path, kind: str, entries: dict, columns: str, ids, numbers):
    """Write a record file: one line per row of the id columns and the numeric
    columns, each number as fnum prints it, through one %-format per row. A
    non-finite number is refused."""
    values = np.column_stack(numbers) + 0.0  # + 0.0 turns -0 into 0, as fnum does
    if not np.isfinite(values).all():
        raise ValueError(f"cannot serialize non-finite number {float(values[~np.isfinite(values)][0])!r}")
    line = " ".join(["%s"] * len(ids) + ["%.9g"] * values.shape[1]) + "\n"
    _write_table(path, kind, entries, columns, len(values),
                 (line % row for row in zip(*ids, *values.T.tolist())))


# ---------------------------------------------------------------------------
# pose sets
# ---------------------------------------------------------------------------

_POSE_COLUMNS = "frame_id qw qx qy qz tx ty tz"


def write_poses(path, ps: PoseSet, extra: dict | None = None):
    entries = {
        "scene": ps.scene_name,
        "split": ps.split,
        "source_format": ps.source_format,
        **convention_entries(),
        "convention_note": ps.convention_note,
        **(extra or {}),
    }
    _check_ids(ps.frame_ids)
    _write_records(path, "poses", entries, _POSE_COLUMNS, (ps.frame_ids,),
                   (*ps.rotations.T, *ps.translations.T))


def read_poses(path) -> PoseSet:
    header, (ids,), values, lines = _read_records(path, "poses", _POSE_COLUMNS)
    with _located(path, lines):
        split = header.get("split", "train")
        if split not in ("train", "test"):
            raise _Refused(f"split must be 'train' or 'test', got {split!r}", key="split")
        if len(set(ids)) != len(ids):
            seen = set()
            k = next(k for k, f in enumerate(ids) if f in seen or seen.add(f))
            raise _Refused(f"duplicate frame id {ids[k]!r}", row=k)
        rotations = _parsed_quats(values[:, 0:4])
    return PoseSet(
        scene_name=header.get("scene", ""),
        split=split,
        frame_ids=ids,
        rotations=rotations,
        translations=values[:, 4:7],
        source_format=header.get("source_format", "canonical"),
        convention_note=header.get("convention_note", ""),
    )


# ---------------------------------------------------------------------------
# pair files
# ---------------------------------------------------------------------------

_PAIR_COLUMNS = "anchor_id query_id overlap qw qx qy qz tx ty tz"


def check_window(min_overlap: float, max_overlap: float, error=ValueError):
    """Raise `error` unless (min_overlap, max_overlap] is a non-empty part of [0, 1]."""
    if not (0.0 <= min_overlap < max_overlap <= 1.0):
        raise error(f"require 0 <= min_overlap < max_overlap <= 1, got ({min_overlap}, {max_overlap}]")


@dataclass
class PairFileData:
    pairs: PairTable
    cfg: OverlapConfig
    digest: str
    min_overlap: float
    max_overlap: float
    ordered: bool
    header: dict


def write_pairs(path, pairs: PairTable, cfg: OverlapConfig, *, min_overlap: float, max_overlap: float,
                ordered: bool = True, extra: dict | None = None):
    check_window(min_overlap, max_overlap)
    digest = config_digest(cfg)
    if not pairs.is_pairs:
        raise ValueError("write_pairs needs a pair table, got predictions")
    if len(pairs) and pairs.config_digest != digest:
        raise ValueError(
            f"pairs carry digest {pairs.config_digest}, file is being written under {digest}"
        )
    outside = ~((pairs.overlaps > min_overlap) & (pairs.overlaps <= max_overlap))
    if outside.any():
        k = int(np.argmax(outside))
        raise ValueError(f"pair {pairs.id_pairs([k])[0]} overlap {pairs.overlaps[k]} outside "
                         f"({min_overlap}, {max_overlap}]")
    if (pairs.anchors == pairs.queries).any():
        raise ValueError("pair must join two distinct frames")
    _check_ids(pairs.frame_ids)
    dupes = pairs.repeated_keys()
    if dupes:
        raise ValueError(f"duplicate pair keys: {dupes[:5]}")
    entries = {
        "config_digest": digest,
        **config_header_entries(cfg),
        "ordered": "true" if ordered else "false",
        "min_overlap": fnum(min_overlap),
        "max_overlap": fnum(max_overlap),
        **convention_entries(),
        **(extra or {}),
    }
    _write_records(path, "pairs", entries, _PAIR_COLUMNS, pairs.id_columns(),
                   (pairs.overlaps, *pairs.rotations.T, *pairs.translations.T))


def read_pairs(path) -> PairFileData:
    header, (anchor_ids, query_ids), values, lines = _read_records(path, "pairs", _PAIR_COLUMNS)
    with _located(path, lines):
        cfg = config_from_header(header)
        lo = _entry(header, "min_overlap", default="0")
        hi = _entry(header, "max_overlap", default="1")
        check_window(lo, hi, FormatError)
        digest = header.get("config_digest", "")
        if config_digest(cfg) != digest:
            raise FormatError(f"stored config_digest {digest} does not match the header configuration")
        frame_ids, anchors, queries = _encode_ids(anchor_ids, query_ids)
        same = anchors == queries
        if same.any():
            k = int(np.argmax(same))
            raise _Refused(f"pair must join two distinct frames, got {anchor_ids[k]!r} twice", row=k)
        overlaps = values[:, 0]
        inside = (overlaps > lo) & (overlaps <= hi)
        if not inside.all():
            k = int(np.argmin(inside))
            raise _Refused(f"overlap {float(overlaps[k])} outside the header's "
                           f"({header.get('min_overlap', '0')}, {header.get('max_overlap', '1')}]", row=k)
        _check_keys(frame_ids, anchors, queries, "pair")
        pairs = PairTable(frame_ids, anchors, queries, _parsed_quats(values[:, 1:5]), values[:, 5:8],
                          overlaps=overlaps, config_digest=digest)
    return PairFileData(pairs=pairs, cfg=cfg, digest=digest, min_overlap=lo, max_overlap=hi,
                        ordered=header.get("ordered", "true") == "true", header=header)


# ---------------------------------------------------------------------------
# prediction files
# ---------------------------------------------------------------------------

_PRED_COLUMNS = "anchor_id query_id qw qx qy qz tx ty tz"


@dataclass
class PredictionFileData:
    predictions: PairTable
    digest: str
    header: dict


def write_predictions(path, predictions: PairTable, *, config_digest: str, predictor: str = "external",
                      extra: dict | None = None):
    _check_ids(predictions.frame_ids)
    dupes = predictions.repeated_keys()
    if dupes:
        raise ValueError(f"duplicate prediction keys: {dupes[:5]}")
    entries = {
        "config_digest": config_digest,
        "predictor": predictor,
        **convention_entries(),
        **(extra or {}),
    }
    _write_records(path, "predictions", entries, _PRED_COLUMNS, predictions.id_columns(),
                   (*predictions.rotations.T, *predictions.translations.T))


def read_predictions(path) -> PredictionFileData:
    header, (anchor_ids, query_ids), values, lines = _read_records(path, "predictions", _PRED_COLUMNS)
    digest = header.get("config_digest", "")
    with _located(path, lines):
        frame_ids, anchors, queries = _encode_ids(anchor_ids, query_ids)
        _check_keys(frame_ids, anchors, queries, "prediction")
        rotations = _parsed_quats(values[:, 0:4])
    predictions = PairTable(frame_ids, anchors, queries, rotations, values[:, 4:7], config_digest=digest)
    return PredictionFileData(predictions=predictions, digest=digest, header=header)


def check_digest_match(pairs_digest: str, predictions_digest: str):
    if pairs_digest != predictions_digest:
        raise DigestMismatchError(
            "pair/prediction config digest mismatch: pairs were scored under "
            f"{pairs_digest or '<none>'} but predictions reference {predictions_digest or '<none>'}"
        )


# ---------------------------------------------------------------------------
# report and CSV-style artifacts
# ---------------------------------------------------------------------------


def _report_text(v) -> str:
    if v is None or isinstance(v, bool):
        return "undefined" if v is None else str(v).lower()
    return fnum(v) if isinstance(v, float) else str(v)


def write_report(path, items: dict, extra: dict | None = None):
    """Serialize a metric report: each value is a key=value header line, None
    as undefined, booleans as true/false, floats as fnum prints them."""
    with atomic_write(path) as fh:
        _write_header(fh, "report", {**(extra or {}), **{k: _report_text(v) for k, v in items.items()}})


_REPORT_WORDS = {"undefined": None, "true": True, "false": False}


def _report_value(v: str):
    """What read_report makes of a value _report_text wrote."""
    if v in _REPORT_WORDS:
        return _REPORT_WORDS[v]
    for convert in (int, float):
        try:
            return convert(v)
        except ValueError:
            pass
    return v


def read_report(path) -> dict:
    _, header, _ = _header_block(path, _read_lines(path), "report")
    return {k: _report_value(v) for k, v in header.items()}


def _cell(v):
    """A CSV cell: the number as fnum prints it, or nan when undefined."""
    return "nan" if v is None else fnum(v)


def write_histogram(path, edges, counts, extra: dict | None = None):
    edges = list(edges)
    rows = [f"{fnum(lo)},{fnum(hi)},{int(c)}\n" for lo, hi, c in zip(edges[:-1], edges[1:], counts)]
    _write_table(path, "histogram", extra or {}, "bin_lo,bin_hi,count", len(rows), rows)


def write_subspace_table(path, stats_rows, extra: dict | None = None):
    """One subspace-statistics row per threshold; undefined values print as nan."""
    rows = [f"{fnum(s.threshold)},{s.count},{_cell(s.mean_norm)},{_cell(s.std_norm)},{_cell(s.diameter)}\n"
            for s in stats_rows]
    _write_table(path, "subspace_stats", extra or {}, "threshold,count,mean_norm,std_norm,diameter",
                 len(rows), rows)


def write_curve(path, curve, extra: dict | None = None):
    """Plot-ready CSV of an error curve plus its area summaries."""
    entries = {
        **(extra or {}),
        "stat": curve.stat,
        "norm": curve.norm,
        "auc_t": _cell(curve.auc_t),
        "auc_q": _cell(curve.auc_q),
        "raw_area_t": _cell(curve.raw_area_t),
        "raw_area_q": _cell(curve.raw_area_q),
        "empty_bins": sum(1 for b in curve.bins if b.n == 0),
    }
    rows = [f"{fnum(b.lo)},{fnum(b.mid)},{fnum(b.hi)},{_cell(b.t_stat)},{_cell(b.q_stat)},{b.n}\n"
            for b in curve.bins]
    _write_table(path, "error_curve", entries, "bin_lo,bin_mid,bin_hi,t_stat,q_stat,n", len(rows), rows)


# ---------------------------------------------------------------------------
# public dataset ingest
# ---------------------------------------------------------------------------


def _snap_pose_matrices(m: np.ndarray):
    """Check (K, 4, 4) camera-to-world matrices and snap each rotation block to
    the nearest rotation by polar decomposition: ((K, 3, 3) rotations,
    {row: problem}). A row is refused for the first of: a non-finite entry, a
    bottom row other than [0 0 0 1], a rotation block more than 1e-2
    (Frobenius) from that rotation."""
    problems = {}
    finite = np.isfinite(m).all(axis=(1, 2))
    bottom = np.isclose(m[:, 3], [0.0, 0.0, 0.0, 1.0], atol=1e-6).all(axis=1)
    for k in np.flatnonzero(~finite).tolist():
        problems[k] = "pose matrix contains non-finite entries"
    for k in np.flatnonzero(finite & ~bottom).tolist():
        problems[k] = f"bottom row {m[k, 3].tolist()} is not [0 0 0 1]"
    rows = np.flatnonzero(finite & bottom)
    u, _, vt = np.linalg.svd(m[rows, :3, :3])
    u[np.linalg.det(u @ vt) < 0, :, -1] *= -1
    r = np.zeros((len(m), 3, 3))
    r[rows] = u @ vt
    deviation = geometry.dot_norms((m[rows, :3, :3] - r[rows]).reshape(-1, 9))
    for k, d in zip(rows[deviation > 1e-2].tolist(), deviation[deviation > 1e-2].tolist()):
        problems[k] = f"rotation block deviates from orthogonal by {d:.3g} (Frobenius)"
    return r, problems


_SEQ_LINE = re.compile(r"sequence\s*(\d+)", re.IGNORECASE)


def _sevenscenes_sequence_dirs(scene_dir: Path, split: str):
    split_file = scene_dir / ("TrainSplit.txt" if split == "train" else "TestSplit.txt")
    if not split_file.exists():
        return None
    dirs = []
    for ln in split_file.read_text().splitlines():
        ln = ln.strip()
        if not ln:
            continue
        m = _SEQ_LINE.fullmatch(ln)
        name = f"seq-{int(m.group(1)):02d}" if m else ln
        d = scene_dir / name
        if not d.is_dir():
            raise ParseError(f"{split_file}: split names {name!r} but {d} is not a directory")
        dirs.append(d)
    return dirs


def parse_sevenscenes(scene_dir, split: str = "train", scene_name: str | None = None,
                      collect_errors: list | None = None) -> PoseSet:
    """Ingest a 7-Scenes style scene directory.

    The directory may either hold `frame-NNNNNN.pose.txt` files directly, or
    contain sequence folders plus TrainSplit.txt / TestSplit.txt naming them.
    Each pose file is a whitespace-separated 4x4 camera-to-world matrix; the
    rotation block is snapped to the nearest rotation before conversion.

    Malformed files raise ParseError naming the first of them, or, when
    `collect_errors` is a list, are skipped with their messages appended to
    it in file order.
    """
    scene_dir = Path(scene_dir)
    if not scene_dir.is_dir():
        raise ParseError(f"{scene_dir}: not a directory")
    seq_dirs = _sevenscenes_sequence_dirs(scene_dir, split)
    roots = seq_dirs if seq_dirs is not None else [scene_dir]
    pose_files = []
    for root in roots:
        pose_files.extend(sorted(root.glob("frame-*.pose.txt")))
    errors, read, values = {}, [], []
    for k, pf in enumerate(pose_files):
        try:
            row = [float(tok) for tok in pf.read_text().split()]
        except ValueError as e:
            errors[k] = f"{pf}: non-numeric pose matrix entry ({e})"
            continue
        if len(row) != 16:
            errors[k] = f"{pf}: expected 16 matrix entries, found {len(row)}"
            continue
        read.append(k)
        values.append(row)
    m = np.reshape(values, (-1, 4, 4))
    rot, problems = _snap_pose_matrices(m)
    errors.update((read[j], f"{pose_files[read[j]]}: {msg}") for j, msg in problems.items())
    if errors:
        messages = [errors[k] for k in sorted(errors)]
        if collect_errors is None:
            raise ParseError(messages[0])
        collect_errors.extend(messages)
    keep = [j for j in range(len(read)) if j not in problems]
    return PoseSet(
        scene_name=scene_name or scene_dir.name,
        split=split,
        frame_ids=[pose_files[read[j]].relative_to(scene_dir).as_posix()[: -len(".pose.txt")]
                   for j in keep],
        rotations=round9_array(geometry.matrix_to_quat_rows(rot[keep])),
        translations=round9_array(m[keep, :3, 3]),
        source_format="sevenscenes",
        convention_note="4x4 camera-to-world matrices; rotation orthonormalized by polar decomposition",
    )


def parse_cambridge(dataset_file, scene_name: str | None = None, split: str | None = None,
                    collect_errors: list | None = None) -> PoseSet:
    """Ingest a Cambridge-Landmarks dataset_train.txt / dataset_test.txt file.

    Lines carry `image-path x y z w p q r` after three header lines, where the
    position is the camera center in world coordinates and the quaternion is
    the world-to-camera rotation. Both are converted to the toolkit's
    camera-to-world convention here, so no other layer needs to know the
    difference.
    """
    dataset_file = Path(dataset_file)
    if split is None:
        stem = dataset_file.name.lower()
        if "train" in stem:
            split = "train"
        elif "test" in stem:
            split = "test"
        else:
            raise ParseError(f"{dataset_file}: cannot infer split from filename; pass split=")
    try:
        lines = dataset_file.read_text().splitlines()
    except FileNotFoundError:
        raise ParseError(f"missing input file: {dataset_file}") from None
    errors, linenos, ids, values = [], [], [], []
    for lineno, ln in enumerate(lines[3:], start=4):
        if not ln.strip():
            continue
        toks = ln.split()
        if len(toks) != 8:
            errors.append((lineno, f"expected 'path x y z w p q r', got {len(toks)} fields"))
            continue
        try:
            row = [float(v) for v in toks[1:]]
        except ValueError:
            errors.append((lineno, "non-numeric pose entry"))
            continue
        if not all(math.isfinite(v) for v in row):
            errors.append((lineno, "non-finite pose entry"))
            continue
        linenos.append(lineno)
        ids.append(toks[0].rsplit(".", 1)[0])
        values.append(row)
    values = np.reshape(values, (-1, 7))
    norms = geometry.vector_norms(values[:, 3:], "l2")
    keep = norms != 0.0
    errors += [(lineno, "zero quaternion") for lineno, k in zip(linenos, keep) if not k]
    if errors:
        messages = [f"{dataset_file}:{lineno}: {msg}" for lineno, msg in sorted(errors)]
        if collect_errors is None:
            raise ParseError(messages[0])
        collect_errors.extend(messages)
    bad_norms = int(np.sum(np.abs(norms[keep] - 1.0) > 1e-3))
    # file stores world-to-camera rotation; camera-to-world is its conjugate
    q_c2w = geometry.normalize_quat_rows(
        geometry.quat_conj_rows(geometry.normalize_quat_rows(values[keep, 3:])))
    if bad_norms:
        warnings.warn(
            f"{dataset_file}: {bad_norms} quaternions deviated from unit norm by more "
            "than 1e-3 before normalization",
            stacklevel=2,
        )
    return PoseSet(
        scene_name=scene_name or dataset_file.parent.name,
        split=split,
        frame_ids=[f for f, k in zip(ids, keep) if k],
        rotations=round9_array(q_c2w),
        translations=round9_array(values[keep, :3]),
        source_format="cambridge",
        convention_note="camera centers kept; world-to-camera rotations conjugated to camera-to-world",
    )
