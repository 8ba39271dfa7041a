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

Pose, pair and prediction files are read and written `_CHUNK_ROWS` lines at
a time. One record stream parses each chunk of lines with one structured
`np.loadtxt` call, so numbers take the syntax loadtxt reads, and checks it;
a writer gathers, checks and %-formats one chunk of rows at a time. The
table readers (`read_poses`, `read_pairs`, `read_predictions`) fill each
column once from the stream, encoding the ids into one growing frame-id
vocabulary, so they hold their table and one chunk. `stream_pairs` hands
the checked chunks of a pair file out one at a time, so `synth --pairs` and
`histogram` hold one chunk whatever the file's size; `naive`, `diameter`,
`eval` and `curve` still hold whole tables. A refusal names `path:LINE:`
when one line is at fault and `path:` otherwise; only after a check fails
is the file read again to find that line.

Ingested poses (public datasets, synthetic trajectories) are rounded to the
same 9-significant-digit precision (`round9_array`) before they become a
PoseSet, which makes parse -> serialize -> parse an exact identity as well.
"""

from __future__ import annotations

import itertools
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

# record files are parsed, and formatted, this many lines at a time
_CHUNK_ROWS = 1024

# why writers, and readers, refuse a frame id; an id "#" would start a record
# line that reads back as a header line
_ID_REFUSAL = "frame id {!r} must be non-empty, whitespace-free and not '#'"


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
    modified in place, so a table keeps the arrays it is given, read-only
    broadcasts included, and copies only columns it must convert or sort.

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
        self.anchors = np.asarray(anchors, dtype=np.int32).reshape(-1)
        self.queries = np.asarray(queries, dtype=np.int32).reshape(-1)
        self.rotations = np.asarray(rotations, dtype=float).reshape(-1, 4)
        self.translations = np.asarray(translations, dtype=float).reshape(-1, 3)
        self.overlaps = None if overlaps is None else np.asarray(overlaps, dtype=float).reshape(-1)
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
        key = self.key()
        if (key[1:] < key[:-1]).any():
            order = np.argsort(key, kind="stable")
            del key
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
    return _sha256_hex(blob.encode())[:16]


# SHA-256's round constants and initial hash value (FIPS 180-4, 4.2.2 and
# 5.3.3): the first 32 bits of the fractional parts of the cube roots of the
# first 64 primes and of the square roots of the first 8
_SHA256_K = (
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
)
_SHA256_H0 = (0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19)


def _rotr(x: int, n: int) -> int:
    return (x >> n | x << (32 - n)) & 0xFFFFFFFF


def _sha256_hex(data: bytes) -> str:
    """SHA-256 of `data` as 64 hex digits (FIPS 180-4), in plain Python.
    hashlib's SHA-256 loads OpenSSL's libcrypto, 3.6 MB of every process's
    peak RSS, while the few hundred bytes of a configuration hash in well
    under a millisecond here."""
    mask = 0xFFFFFFFF
    # pad to a whole number of 64-byte blocks: 0x80, zeros, the bit length
    data = bytes(data) + b"\x80" + bytes((55 - len(data)) % 64) + (8 * len(data)).to_bytes(8, "big")
    h = _SHA256_H0
    for block in range(0, len(data), 64):
        w = [int.from_bytes(data[i:i + 4], "big") for i in range(block, block + 64, 4)]
        for t in range(16, 64):
            s0 = _rotr(w[t - 15], 7) ^ _rotr(w[t - 15], 18) ^ w[t - 15] >> 3
            s1 = _rotr(w[t - 2], 17) ^ _rotr(w[t - 2], 19) ^ w[t - 2] >> 10
            w.append((w[t - 16] + s0 + w[t - 7] + s1) & mask)
        a, b, c, d, e, f, g, k = h
        for kt, wt in zip(_SHA256_K, w):
            t1 = k + (_rotr(e, 6) ^ _rotr(e, 11) ^ _rotr(e, 25)) + (e & f ^ ~e & g) + kt + wt
            t2 = (_rotr(a, 2) ^ _rotr(a, 13) ^ _rotr(a, 22)) + (a & b ^ a & c ^ b & c)
            a, b, c, d, e, f, g, k = (t1 + t2) & mask, a, b, c, (d + t1) & mask, e, f, g
        h = tuple((x + y) & mask for x, y in zip(h, (a, b, c, d, e, f, g, k)))
    return "".join(f"{x:08x}" for x in h)


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


def _open(path):
    try:
        return open(path)
    except FileNotFoundError:
        raise FormatError(f"missing input file: {path}") from None


def _read_lines(path):
    """Every line of a file, split where iterating the open file splits it."""
    try:
        return Path(path).read_text().split("\n")
    except FileNotFoundError:
        raise FormatError(f"missing input file: {path}") from None


def _header_block(path, lines, expected: str | None = None):
    """(kind, header dict, the lines from the first record line on): reads the
    magic line, then the consecutive `# key=value` lines, from the iterator
    `lines`. Blank lines among them are skipped and a repeated key keeps its
    last value. A kind other than `expected`, when given, is refused."""
    if next(lines, "").rstrip("\n") != FORMAT_LINE:
        raise FormatError(
            f"{path}: not a frustoval v1 file (expected first line {FORMAT_LINE!r})"
        )
    header, first = {}, ()
    for lineno, ln in enumerate(lines, start=2):
        ln = ln.rstrip("\n")
        if ln.startswith("# "):
            key, sep, value = ln[2:].partition("=")
            if not sep:
                raise FormatError(f"{path}:{lineno}: malformed header line {ln!r}")
            header[key] = value
        elif ln.strip():
            first = (ln,)
            break
    kind = header.pop("kind", None)
    if kind is None:
        raise FormatError(f"{path}: header has no kind entry")
    if expected not in (None, kind):
        raise FormatError(f"{path}: expected a {expected} file, found kind={kind}")
    return kind, header, itertools.chain(first, lines)


def read_header(path):
    """Return (kind, header dict, record lines) of a canonical file."""
    lines = _read_lines(path)
    kind, header, records = _header_block(path, iter(lines))
    records = list(records)
    late = next((i for i, ln in enumerate(records) if ln.startswith("# ")), None)
    if late is not None:
        lineno = len(lines) - len(records) + late + 1
        raise FormatError(f"{path}:{lineno}: header line {records[late]!r} after the first record")
    return kind, header, [ln for ln in records if ln.strip()]


def _record_lineno(lines, k: int) -> int:
    """File line number of the k-th record: the k-th non-blank line from the
    first line after the header block. Only refusals call this, so readers
    never track line numbers while parsing."""
    first = next(i for i, ln in enumerate(lines) if i and ln.strip() and not ln.startswith("# "))
    return [i for i in range(first, len(lines)) if lines[i].strip()][k] + 1


@contextmanager
def _located(path):
    """Prefix a FormatError raised inside with the file and, for a _Refused,
    its line: the record's, or the header entry's last (the one kept). The
    file is read again to find that line."""
    try:
        yield
    except _Refused as e:
        lines = _read_lines(path)
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
    line = line.rstrip("\n")
    tokens = line.split()
    if tokens[:1] == ["#"]:
        return f"header line {line!r} after the first record"
    if len(tokens) != len(names):
        return f"{record} record needs {len(names)} fields, got {len(tokens)}: {line!r}"
    if "#" in tokens[:n_ids]:
        return _ID_REFUSAL.format("#")
    for name, tok in zip(names[n_ids:], tokens[n_ids:]):
        try:
            if not np.isfinite(_loadtxt([tok], np.float64)).all():
                return f"non-finite {name} value {tok!r}"
        except ValueError:
            return f"bad {name} value {tok!r}"
    return f"unreadable {record} record {line!r}"


def _line_count(path) -> int:
    """At least as many as the lines iterating the open file yields: one more
    than its line ends, a CR LF counted once (twice when it straddles two
    read blocks)."""
    with open(path, "rb") as fh:
        return 1 + sum(block.count(b"\n") + block.count(b"\r") - block.count(b"\r\n")
                       for block in iter(lambda: fh.read(1 << 16), b""))


def _read_records(path, kind: str, columns: str, widths, check=None):
    """Read a record file as a stream: its header dict, then per chunk of
    records (row, ids, groups): the row number of the chunk's first record,
    per id column a list of the id strings, and per entry of `widths` an
    (M, width) float64 array of the next `width` numbers of each record.

    The records are parsed _CHUNK_ROWS lines at a time, each chunk by one
    structured np.loadtxt call that skips blank lines, so no line or id
    string outlives its chunk unless the consumer keeps it. `check`, when
    given, checks the header (`check.header`) and each chunk's records
    (`check.records`, which may rewrite the numbers in place).

    Once a defect is found the stream hands out no more chunks. It reads on
    only to find the refusal a reader of the whole file would raise first,
    then raises it. That is, in this order: the first line np.loadtxt
    refuses; the first record with a non-finite number or a frame id "#", or
    read from a late header line; a record count other than the header's; the header check's
    refusal; the refusal `check.records` ranks first (rank, then row)."""
    names = columns.split()
    n_ids = sum(name.endswith("_id") for name in names)
    dtype = np.dtype([*((name, object) for name in names[:n_ids]),
                      ("values", np.float64, (len(names) - n_ids,))])
    bounds = list(itertools.accumulate(widths, initial=0))
    with _open(path) as fh:
        _, header, records = _header_block(path, fh, kind)
        with _located(path):
            # (rank, row, refusal) of the refusal to raise, as far as read; rank
            # -2 is an unreadable record, -1 the header check, 0 on check.records'
            found = None
            if check is not None:
                try:
                    check.header(header)
                except FormatError as e:
                    found = (-1, 0, e)
            if found is None:
                yield header
            rows = 0
            while chunk := list(itertools.islice(records, _CHUNK_ROWS)):
                try:
                    table = _loadtxt(chunk, dtype)
                except ValueError:
                    i = _first_refused(chunk, dtype)
                    raise _Refused(_refusal(chunk[i], names, n_ids, kind[:-1]),
                                   row=rows + sum(1 for ln in chunk[:i] if ln.strip())) from None
                ids = [table[name].tolist() for name in names[:n_ids]]
                bad = ~np.isfinite(table["values"]).all(axis=1)
                # no frame id is "#"; first on a line it starts a header line
                for column in ids:
                    if "#" in column:
                        bad[column.index("#")] = True
                if bad.any() and (found is None or found[0] != -2):
                    k = int(np.argmax(bad))
                    line = [ln for ln in chunk if ln.strip()][k]
                    found = (-2, rows + k, _Refused(_refusal(line, names, n_ids, kind[:-1]), row=rows + k))
                del chunk  # parsed: the lines need not outlive the yield below
                groups = [table["values"][:, lo:hi] for lo, hi in zip(bounds, bounds[1:])]
                if check is not None and (found is None or found[0] >= 0):
                    first = check.records(rows, ids, groups)
                    if first is not None and (found is None or first[:2] < found[:2]):
                        found = first
                if found is None:
                    yield rows, ids, groups
                rows += len(table)
            if found is not None and found[0] == -2:
                raise found[2]
            declared = _entry(header, "count", int, rows)
            if declared != rows:
                raise FormatError(f"header declares {declared} records, found {rows}")
            if found is not None:
                raise found[2]


def _read_columns(path, kind: str, columns: str, widths, check=None):
    """Read a record file whole: (header, the sorted frame ids its records
    use, per id column an int32 array of indices into them, per entry of
    `widths` an (M, width) float64 array).

    Each chunk of the record stream is written into columns made once, as
    long as the file has lines, so the reader holds every column once and
    never joins or copies it; each chunk's ids are encoded into one growing
    id -> index dict as they arrive."""
    records = _read_records(path, kind, columns, widths, check)
    header = next(records)
    size = _line_count(path)
    codes = [np.empty(size, np.int32) for name in columns.split() if name.endswith("_id")]
    groups = [np.empty((size, width)) for width in widths]
    index, rows = {}, 0
    for row, ids, values in records:
        rows = row + len(ids[0])
        for column, chunk_ids in zip(codes, ids):
            new = set(chunk_ids).difference(index)
            index.update(zip(new, range(len(index), len(index) + len(new))))
            column[row:rows] = np.fromiter(map(index.__getitem__, chunk_ids), np.int32, len(chunk_ids))
        for group, chunk_values in zip(groups, values):
            group[row:rows] = chunk_values
    frame_ids = list(index)
    order = sorted(range(len(frame_ids)), key=frame_ids.__getitem__)
    rank = np.empty(len(order), dtype=np.int32)
    rank[order] = np.arange(len(order), dtype=np.int32)
    return (header, [frame_ids[k] for k in order], tuple(rank[column[:rows]] for column in codes),
            tuple(group[:rows] for group in groups))


def _parsed_quats(q: np.ndarray, row: int = 0) -> np.ndarray:
    """The (M, 4) parsed wxyz rows `q`, each kept verbatim when within
    _PARSE_NORM_SLACK of unit norm with w >= 0, otherwise normalized, in
    place, to the canonical hemisphere, so canonical files survive read/write
    cycles byte-exactly. Rows are checked _CHUNK_ROWS at a time; a refusal
    names its record as `row` plus its index in `q`."""
    for lo in range(0, len(q), _CHUNK_ROWS):
        part = q[lo:lo + _CHUNK_ROWS]
        w, x, y, z = part.T
        with np.errstate(over="ignore"):
            nsq = w * w + x * x + y * y + z * z
        rows = np.flatnonzero(~((np.abs(nsq - 1.0) <= _PARSE_NORM_SLACK) & (w >= 0.0)))
        if rows.size:
            bad = rows[(nsq[rows] == 0.0) | ~np.isfinite(nsq[rows])]
            if bad.size:
                k = int(bad[0])
                raise _Refused("zero quaternion cannot be normalized" if nsq[k] == 0.0
                               else "quaternion's squared norm overflows", row=row + lo + k)
            part[rows] = geometry.normalize_quat_rows(part[rows])
    return q


class _KeyedRecordCheck:
    """The checks of pair or prediction records (`kind` "pair" or
    "prediction"), a chunk at a time, for `_read_records`.

    `header` reads a pair file's configuration and overlap window, refusing
    them as a reader of the whole file would, and the digest of either kind.
    `records` returns the first refusal among a chunk's records as (rank,
    row, refusal), ranked as a whole-file reader checks them: a self pair,
    an overlap outside the window, a repeated or unsorted key (keys compare
    across chunk boundaries), a quaternion that cannot be normalized. It
    normalizes the others in place (`_parsed_quats`)."""

    def __init__(self, kind: str):
        self.kind = kind
        self.last_key = None

    def header(self, header: dict):
        self.digest = header.get("config_digest", "")
        if self.kind == "pair":
            self.cfg = config_from_header(header)
            self.lo = _entry(header, "min_overlap", default="0")
            self.hi = _entry(header, "max_overlap", default="1")
            self.window = f"({header.get('min_overlap', '0')}, {header.get('max_overlap', '1')}]"
            check_window(self.lo, self.hi, FormatError)
            if config_digest(self.cfg) != self.digest:
                raise FormatError(f"stored config_digest {self.digest} does not match the header configuration")

    def records(self, row: int, ids, groups):
        anchors, queries = ids
        found = []
        if self.kind == "pair":
            overlaps, rotations, _ = groups
            same = list(map(operator.eq, anchors, queries))
            if True in same:
                k = same.index(True)
                found.append((0, row + k, _Refused(f"pair must join two distinct frames, got {anchors[k]!r} twice",
                                                   row=row + k)))
            inside = (overlaps[:, 0] > self.lo) & (overlaps[:, 0] <= self.hi)
            if not inside.all():
                k = int(np.argmin(inside))
                found.append((1, row + k, _Refused(f"overlap {float(overlaps[k, 0])} outside the header's "
                                                   f"{self.window}", row=row + k)))
        else:
            rotations, _ = groups
        keys = list(zip(anchors, queries))
        if self.last_key is not None:
            keys.insert(0, self.last_key)
        ordered = list(map(operator.lt, keys, keys[1:]))
        if False in ordered:
            j = ordered.index(False)
            k = row + j + (self.last_key is None)
            problem = "duplicate" if keys[j] == keys[j + 1] else "unsorted"
            found.append((2, k, _Refused(f"{problem} {self.kind} key {keys[j + 1]}: records must be sorted "
                                         "by (anchor_id, query_id) without repeats", row=k)))
        if keys:
            self.last_key = keys[-1]
        try:
            _parsed_quats(rotations, row)
        except _Refused as e:
            found.append((3, e.row, e))
        return min(found, key=lambda f: f[:2], default=None)


def _check_ids(frame_ids):
    """Refuse ids a record line cannot hold; `frame_ids` are unique."""
    for frame_id in frame_ids:
        if not frame_id or frame_id == "#" or any(c.isspace() for c in frame_id):
            raise ValueError(_ID_REFUSAL.format(frame_id))


def _write_table(path, kind: str, entries: dict, columns: str, count: int, lines):
    """Write the header, ending with the row count and the column names, then the lines."""
    with atomic_write(path) as fh:
        _write_header(fh, kind, {**entries, "count": count, "columns": columns})
        fh.writelines(lines)


def _write_records(path, kind: str, entries: dict, columns: str, count: int, chunks):
    """Write a record file of `count` rows, given as an iterable of row
    chunks (ids, numbers): per id column a list of id strings, and the
    numeric columns, (M,) or (M, width) arrays. Each number is printed as
    fnum prints it, through one %-format per row, and a non-finite number is
    refused; only one chunk is formatted at a time."""
    names = columns.split()
    n_ids = sum(name.endswith("_id") for name in names)
    line = " ".join(["%s"] * n_ids + ["%.9g"] * (len(names) - n_ids)) + "\n"

    def lines():
        for ids, numbers in chunks:
            values = np.column_stack(numbers) + 0.0  # + 0.0 turns -0 into 0, as fnum does
            if not np.isfinite(values).all():
                raise ValueError(f"cannot serialize non-finite number {float(values[~np.isfinite(values)][0])!r}")
            yield "".join(map(line.__mod__, zip(*ids, *values.T.tolist())))

    _write_table(path, kind, entries, columns, count, lines())


def _table_chunks(table: PairTable, *numbers):
    """The row chunks of a pair table for _write_records: its anchor and
    query ids and the given columns, _CHUNK_ROWS rows at a time."""
    ids = np.array(table.frame_ids, dtype=object)
    for lo in range(0, len(table), _CHUNK_ROWS):
        rows = slice(lo, lo + _CHUNK_ROWS)
        yield (ids[table.anchors[rows]].tolist(), ids[table.queries[rows]].tolist()), [c[rows] for c in numbers]


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
    _write_records(path, "poses", entries, _POSE_COLUMNS, len(ps),
                   (([ps.frame_ids[lo:lo + _CHUNK_ROWS]],
                     (ps.rotations[lo:lo + _CHUNK_ROWS], ps.translations[lo:lo + _CHUNK_ROWS]))
                    for lo in range(0, len(ps), _CHUNK_ROWS)))


def read_poses(path) -> PoseSet:
    header, frame_ids, (codes,), (rotations, translations) = _read_columns(
        path, "poses", _POSE_COLUMNS, (4, 3))
    with _located(path):
        split = header.get("split", "train")
        if split not in ("train", "test"):
            raise _Refused(f"split must be 'train' or 'test', got {split!r}", key="split")
        if len(frame_ids) != len(codes):
            order = np.argsort(codes, kind="stable")
            k = int(order[1:][np.diff(codes[order]) == 0].min())  # the first row of an id seen before
            raise _Refused(f"duplicate frame id {frame_ids[codes[k]]!r}", row=k)
        _parsed_quats(rotations)
    return PoseSet(
        scene_name=header.get("scene", ""),
        split=split,
        frame_ids=[frame_ids[k] for k in codes.tolist()],
        rotations=rotations,
        translations=translations,
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
    """A read pair file; its digest is `pairs.config_digest`."""

    pairs: PairTable
    cfg: OverlapConfig
    min_overlap: float
    max_overlap: float
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
    try:  # values a reader refuses once printed with 9 digits, such as a FOV of 179.9999999999
        _KeyedRecordCheck("pair").header(entries)
    except FormatError as e:
        raise ValueError(f"header refused at file precision: {e}") from None
    _write_records(path, "pairs", entries, _PAIR_COLUMNS, len(pairs),
                   _table_chunks(pairs, pairs.overlaps, pairs.rotations, pairs.translations))


def read_pairs(path) -> PairFileData:
    check = _KeyedRecordCheck("pair")
    header, frame_ids, (anchors, queries), (overlaps, rotations, translations) = _read_columns(
        path, "pairs", _PAIR_COLUMNS, (1, 4, 3), check)
    pairs = PairTable(frame_ids, anchors, queries, rotations, translations, overlaps[:, 0], check.digest)
    return PairFileData(pairs=pairs, cfg=check.cfg, min_overlap=check.lo, max_overlap=check.hi, header=header)


class PairChunk:
    """Consecutive records of a pair file, as `stream_pairs` hands them out:
    their anchor and query id strings, (M,) overlaps, (M, 4) wxyz rotations
    and (M, 3) translations. A plain class: a frozen dataclass would cost
    every process 0.7 ms at import."""

    __slots__ = ("anchor_ids", "query_ids", "overlaps", "rotations", "translations")

    def __init__(self, anchor_ids: list, query_ids: list, overlaps, rotations, translations):
        self.anchor_ids, self.query_ids = anchor_ids, query_ids
        self.overlaps, self.rotations, self.translations = overlaps, rotations, translations

    def __len__(self):
        return len(self.overlaps)


def stream_pairs(path):
    """Read a pair file a chunk of records at a time: yield its PairFileData
    with no rows (`pairs` is empty and carries the digest), then a PairChunk
    per _CHUNK_ROWS records, so no more than one chunk is held.

    The records pass the checks of `read_pairs` and a defect is refused as
    `read_pairs` refuses it, with its message and line, after the stream has
    read on to find it; no chunk is handed out from the first defect on."""
    check = _KeyedRecordCheck("pair")
    records = _read_records(path, "pairs", _PAIR_COLUMNS, (1, 4, 3), check)
    header = next(records)
    empty = PairTable([], [], [], np.empty((0, 4)), np.empty((0, 3)), np.empty(0), check.digest)
    yield PairFileData(pairs=empty, cfg=check.cfg, min_overlap=check.lo, max_overlap=check.hi, header=header)
    for _, (anchor_ids, query_ids), (overlaps, rotations, translations) in records:
        yield PairChunk(anchor_ids, query_ids, overlaps[:, 0], rotations, translations)


def pair_count(path, header: dict) -> int:
    """The records a pair file with this header holds if it is valid: its
    declared count, or, when it declares none or more than its size allows
    (every field takes two bytes), its non-blank lines after the header,
    counted in a pass over the file."""
    try:
        declared = int(header["count"])
    except (KeyError, ValueError):
        declared = -1
    if 0 <= declared <= os.path.getsize(path) // (2 * len(_PAIR_COLUMNS.split())):
        return declared
    with _open(path) as fh:
        return sum(1 for ln in _header_block(path, fh)[2] if ln.strip())


@contextmanager
def refusals_first(stream):
    """Run a block that consumes the record stream `stream`. When the block
    raises, the rest of the stream is read first, so that a refusal of the
    file, which reading it whole before the block would have raised, is
    raised instead of the block's own error."""
    try:
        yield
    except Exception:
        for _ in stream:
            pass
        raise


# ---------------------------------------------------------------------------
# prediction files
# ---------------------------------------------------------------------------

_PRED_COLUMNS = "anchor_id query_id qw qx qy qz tx ty tz"


def write_predictions(path, predictions: PairTable, *, predictor: str = "external", extra: dict | None = None):
    """Write a prediction table under the digest of the pairs it was made for."""
    _check_ids(predictions.frame_ids)
    dupes = predictions.repeated_keys()
    if dupes:
        raise ValueError(f"duplicate prediction keys: {dupes[:5]}")
    write_prediction_chunks(path, predictions.config_digest, len(predictions),
                            _table_chunks(predictions, predictions.rotations, predictions.translations),
                            predictor=predictor, extra=extra)


def write_prediction_chunks(path, config_digest: str, count: int, chunks, *, predictor: str = "external",
                            extra: dict | None = None):
    """Write `count` predictions in key order under the digest of the pairs
    they were made for, given a chunk at a time as ((anchor ids, query ids),
    ((M, 4) rotations, (M, 3) translations)). Ids `write_predictions` would
    refuse are refused."""
    seen = set()

    def checked():
        for ids, numbers in chunks:
            new = set(ids[0]).union(ids[1]).difference(seen)
            _check_ids(new)
            seen.update(new)
            yield ids, numbers

    entries = {"config_digest": config_digest, "predictor": predictor, **convention_entries(), **(extra or {})}
    _write_records(path, "predictions", entries, _PRED_COLUMNS, count, checked())


def read_predictions(path) -> PairTable:
    """The prediction table of a file, carrying the digest of the pairs it was
    made for ('' when the header names none)."""
    check = _KeyedRecordCheck("prediction")
    _, frame_ids, (anchors, queries), (rotations, translations) = _read_columns(
        path, "predictions", _PRED_COLUMNS, (4, 3), check)
    return PairTable(frame_ids, anchors, queries, rotations, translations, config_digest=check.digest)


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
    with _open(path) as fh:
        _, header, _ = _header_block(path, fh, "report")
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


def parse_sevenscenes(scene_dir, split: str = "train", scene_name: str | None = None) -> PoseSet:
    """Ingest a 7-Scenes style scene directory.

    The directory may either hold `frame-NNNNNN.pose.txt` files directly, or
    contain sequence folders plus TrainSplit.txt / TestSplit.txt naming them.
    Each pose file is a whitespace-separated 4x4 camera-to-world matrix; the
    rotation block is snapped to the nearest rotation before conversion.
    A malformed file raises ParseError naming the first of them in file
    order, and so does a split with no pose file.
    """
    scene_dir = Path(scene_dir)
    if not scene_dir.is_dir():
        raise ParseError(f"{scene_dir}: not a directory")
    seq_dirs = _sevenscenes_sequence_dirs(scene_dir, split)
    roots = seq_dirs if seq_dirs is not None else [scene_dir]
    pose_files = []
    for root in roots:
        pose_files.extend(sorted(root.glob("frame-*.pose.txt")))
    if not pose_files:
        raise ParseError(f"{scene_dir}: no frame-*.pose.txt files for the {split} split")
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
        raise ParseError(errors[min(errors)])
    return PoseSet(
        scene_name=scene_name or scene_dir.name,
        split=split,
        frame_ids=[pf.relative_to(scene_dir).as_posix()[: -len(".pose.txt")] for pf in pose_files],
        rotations=round9_array(geometry.matrix_to_quat_rows(rot)),
        translations=round9_array(m[:, :3, 3]),
        source_format="sevenscenes",
        convention_note="4x4 camera-to-world matrices; rotation orthonormalized by polar decomposition",
    )


def parse_cambridge(dataset_file, scene_name: str | None = None, split: str | None = None) -> PoseSet:
    """Ingest a Cambridge-Landmarks dataset_train.txt / dataset_test.txt file.

    Lines carry `image-path x y z w p q r` after three header lines, where the
    position is the camera center in world coordinates and the quaternion is
    the world-to-camera rotation. Both are converted to the toolkit's
    camera-to-world convention here, so no other layer needs to know the
    difference. A malformed line raises ParseError naming the first of them;
    a file with no pose line raises ParseError too.
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
    ids, values = [], []
    for lineno, ln in enumerate(lines[3:], start=4):
        toks = ln.split()
        if not toks:
            continue
        if len(toks) != 8:
            raise ParseError(f"{dataset_file}:{lineno}: expected 'path x y z w p q r', got {len(toks)} fields")
        try:
            row = [float(v) for v in toks[1:]]
        except ValueError:
            raise ParseError(f"{dataset_file}:{lineno}: non-numeric pose entry") from None
        if not all(map(math.isfinite, row)):
            raise ParseError(f"{dataset_file}:{lineno}: non-finite pose entry")
        if not any(v * v for v in row[3:]):  # the rows whose vector_norms l2 norm is 0
            raise ParseError(f"{dataset_file}:{lineno}: zero quaternion")
        ids.append(toks[0].rsplit(".", 1)[0])
        values.append(row)
    if not ids:
        raise ParseError(f"{dataset_file}: no pose lines after the three header lines")
    values = np.array(values)
    norms = geometry.vector_norms(values[:, 3:], "l2")
    bad_norms = int(np.sum(np.abs(norms - 1.0) > 1e-3))
    # file stores world-to-camera rotation; camera-to-world is its conjugate
    q_c2w = geometry.normalize_quat_rows(
        geometry.quat_conj_rows(geometry.normalize_quat_rows(values[:, 3:])))
    if bad_norms:
        warnings.warn(
            f"{dataset_file}: {bad_norms} quaternions deviated from unit norm by more "
            "than 1e-3 before normalization",
            stacklevel=2,
        )
    return PoseSet(
        scene_name=scene_name or dataset_file.parent.name,
        split=split,
        frame_ids=ids,
        rotations=round9_array(q_c2w),
        translations=round9_array(values[:, :3]),
        source_format="cambridge",
        convention_note="camera centers kept; world-to-camera rotations conjugated to camera-to-world",
    )
