"""The columnar pose and pair sets (`PoseSet`, `PairTable`: id lists plus
(N, 4) wxyz and (N, 3) arrays, rows sorted by id), pose-format parsers and
the canonical on-disk formats for every artifact.

All toolkit files are line-oriented text: a `# frustoval-format v1` magic
line, a `# key=value` header block echoing the full configuration, then one
record per line. Floats are printed with 9 significant digits and records are
sorted by their ids, so identical logical content serializes byte-identically
and write -> read -> write is a fixed point.

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
from .frustum import FrustumSpec, OverlapConfig
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


def _key_order(keys: list):
    """Row order sorting the keys (stable), or None when they are sorted already."""
    if all(map(operator.le, keys, keys[1:])):
        return None
    return sorted(range(len(keys)), key=keys.__getitem__)


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
        order = _key_order(self.frame_ids)
        if order is not None:
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


class PairTable:
    """A pair set or a prediction set as columns, rows sorted by (anchor_id, query_id).

    `anchor_ids` and `query_ids` are lists of frame ids, `rotations` an (M, 4)
    wxyz array and `translations` an (M, 3) array. A pair set also has an
    (M,) `overlaps` array and the `config_digest` it was scored under; a
    prediction set has `overlaps` None and carries the digest of the pairs it
    was made for ('' when unknown). Rows given out of order are sorted on
    construction. Tables are not modified in place.

    `table[rows]` selects rows by a slice, a boolean mask or an integer index
    array and returns a table with the same digest. Iterating yields
    read-only PairRecord rows. Tables compare equal to tables with the same
    columns.
    """

    __slots__ = ("anchor_ids", "query_ids", "overlaps", "rotations", "translations",
                 "config_digest")

    def __init__(self, anchor_ids, query_ids, rotations, translations, overlaps=None,
                 config_digest: str = ""):
        self.anchor_ids = list(anchor_ids)
        self.query_ids = list(query_ids)
        self.rotations = np.ascontiguousarray(rotations, dtype=float).reshape(-1, 4)
        self.translations = np.ascontiguousarray(translations, dtype=float).reshape(-1, 3)
        self.overlaps = None if overlaps is None else np.ascontiguousarray(overlaps, dtype=float).reshape(-1)
        self.config_digest = config_digest
        m = len(self.anchor_ids)
        sizes = {len(self.query_ids), len(self.rotations), len(self.translations)}
        if self.overlaps is not None:
            sizes.add(len(self.overlaps))
        if sizes != {m}:
            raise ValueError("pair table columns differ in length")
        order = _key_order(self.keys())
        if order is not None:
            (self.anchor_ids, self.query_ids, self.rotations, self.translations,
             self.overlaps) = self._take(order)

    def _take(self, rows):
        """Every column at the given row indices, in constructor order."""
        return ([self.anchor_ids[k] for k in rows], [self.query_ids[k] for k in rows],
                self.rotations[rows], self.translations[rows],
                None if self.overlaps is None else self.overlaps[rows])

    @property
    def is_pairs(self) -> bool:
        return self.overlaps is not None

    def keys(self) -> list:
        return list(zip(self.anchor_ids, self.query_ids))

    def duplicate_keys(self) -> list:
        """Keys held by more than one row, in order."""
        keys = self.keys()
        return sorted({a for a, b in zip(keys, keys[1:]) if a == b})

    def __len__(self):
        return len(self.anchor_ids)

    def __iter__(self):
        overlaps = [None] * len(self) if self.overlaps is None else self.overlaps.tolist()
        for a, q, overlap, r, t in zip(self.anchor_ids, self.query_ids, overlaps,
                                       self.rotations.tolist(), self.translations.tolist()):
            yield PairRecord(a, q, overlap, RelativePose(Quaternion(*r), Translation(*t)),
                             self.config_digest)

    def __getitem__(self, rows):
        if isinstance(rows, (int, np.integer)):
            raise TypeError("select table rows with a slice, a boolean mask or an integer "
                            "index array; iterate for single rows")
        return PairTable(*self._take(np.arange(len(self))[rows].tolist()),
                         config_digest=self.config_digest)

    def __eq__(self, other):
        if not isinstance(other, PairTable):
            return NotImplemented
        if self.is_pairs != other.is_pairs:
            return False
        return (self.anchor_ids == other.anchor_ids and self.query_ids == other.query_ids
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


def config_from_header(header: dict) -> OverlapConfig:
    try:
        nx, ny, nz = parse_grid(header["grid"])
        spec = FrustumSpec(
            hfov_deg=float(header["hfov_deg"]),
            vfov_deg=float(header["vfov_deg"]),
            near=float(header["near_m"]),
            far=float(header["far_m"]),
            grid_nx=nx,
            grid_ny=ny,
            grid_nz=nz,
            boundary_epsilon=float(header["boundary_epsilon_m"]),
        )
        return OverlapConfig(
            frustum=spec,
            max_relative_rotation_deg=float(header["max_relative_rotation_deg"]),
            symmetric=header["symmetric"] == "true",
        )
    except KeyError as e:
        raise FormatError(f"header is missing configuration key {e.args[0]!r}") from None


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
        v = str(v)
        if "\n" in v:
            v = v.replace("\n", " ")
        fh.write(f"# {k}={v}\n")


def _read_lines(path):
    try:
        text = Path(path).read_text()
    except FileNotFoundError:
        raise FormatError(f"missing input file: {path}") from None
    return text.splitlines()


def read_header(path):
    """Return (kind, header dict, record lines) of a canonical file."""
    lines = _read_lines(path)
    if not lines or lines[0] != FORMAT_LINE:
        raise FormatError(
            f"{path}: not a frustoval v1 file (expected first line {FORMAT_LINE!r})"
        )
    header = {}
    body = []
    for ln in lines[1:]:
        if ln.startswith("# "):
            key, sep, value = ln[2:].partition("=")
            if not sep:
                raise FormatError(f"{path}: malformed header line {ln!r}")
            header[key] = value
        elif ln.strip():
            body.append(ln)
    kind = header.pop("kind", None)
    if kind is None:
        raise FormatError(f"{path}: header has no kind entry")
    return kind, header, body


def _expect_kind(path, kind, expected):
    if kind != expected:
        raise FormatError(f"{path}: expected a {expected} file, found kind={kind}")


def _expect_count(path, header, body):
    declared = int(header.get("count", len(body)))
    if declared != len(body):
        raise FormatError(f"{path}: header declares {declared} records, found {len(body)}")


def _record_lineno(path, k: int) -> int:
    """File line number of the k-th record line. Only error paths call this,
    so readers never track line numbers while parsing."""
    seen = -1
    lines = _read_lines(path)
    for lineno, ln in enumerate(lines[1:], start=2):
        if not ln.startswith("# ") and ln.strip():
            seen += 1
            if seen == k:
                return lineno
    return len(lines)


def _record_error(path, k: int, message: str) -> FormatError:
    return FormatError(f"{path}:{_record_lineno(path, k)}: {message}")


def _header_error(path, key: str, message: str) -> FormatError:
    """FormatError naming the file line of header entry `key` (its last
    occurrence, the one read_header keeps)."""
    lines = _read_lines(path)
    lineno = max(k for k, ln in enumerate(lines, start=1) if ln.startswith(f"# {key}="))
    return FormatError(f"{path}:{lineno}: {message}")


def _parse_records(path, body, columns: str, kind: str):
    """Split record lines into their id columns (the leading `*_id` fields)
    and one (M, fields) float64 array of the numeric fields, parsed by one
    np.loadtxt call. A wrong field count or a bad or non-finite number is
    refused with the file and line."""
    names = columns.split()
    n_ids = sum(name.endswith("_id") for name in names)
    parts = [ln.split(None, n_ids) for ln in body]
    if body and all(len(p) == n_ids + 1 for p in parts):
        try:
            values = np.loadtxt([p[-1] for p in parts], dtype=np.float64, comments=None, ndmin=2)
        except ValueError:
            values = None
        if values is not None and values.shape[1] == len(names) - n_ids and np.isfinite(values).all():
            return [list(c) for c in list(zip(*parts))[:n_ids]], values
    return _parse_tokens(path, body, names, n_ids, kind)


def _parse_tokens(path, body, names, n_ids, kind):
    """_parse_records token by token, with Python's float() as the parser:
    finds the offending line, and reads what float() accepts but loadtxt
    does not (digit separators, non-ASCII digits)."""
    rows = [ln.split() for ln in body]
    bad = next((k for k, r in enumerate(rows) if len(r) != len(names)), None)
    if bad is not None:
        raise _record_error(path, bad, f"{kind} record needs {len(names)} fields, "
                                       f"got {len(rows[bad])}: {body[bad]!r}")
    values = np.empty((len(rows), len(names) - n_ids))
    for k, r in enumerate(rows):
        for c, (name, tok) in enumerate(zip(names[n_ids:], r[n_ids:])):
            try:
                values[k, c] = v = float(tok)
            except ValueError:
                raise _record_error(path, k, f"bad {name} value {tok!r}") from None
            if not math.isfinite(v):
                raise _record_error(path, k, f"non-finite {name} value {tok!r}")
    return [[r[c] for r in rows] for c in range(n_ids)], values


def _parsed_quats(path, q: np.ndarray) -> np.ndarray:
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
            raise _record_error(path, k, "zero quaternion cannot be normalized" if nsq[k] == 0.0
                                else "quaternion's squared norm overflows")
        q[rows] = geometry.normalize_quat_rows(q[rows])
    return q


def _check_keys(path, anchor_ids, query_ids, kind: str):
    """Refuse, with the file and line, keys that repeat or are out of order."""
    keys = list(zip(anchor_ids, query_ids))
    ascending = list(map(operator.lt, keys, keys[1:]))
    if False in ascending:
        k = ascending.index(False) + 1
        problem = "duplicate" if keys[k] == keys[k - 1] else "unsorted"
        raise _record_error(path, k, f"{problem} {kind} key {keys[k]}: records must be sorted "
                                     "by (anchor_id, query_id) without repeats")


def _check_frame_id(frame_id: str):
    # a record line starting with "# " would read back as a header line
    if not frame_id or frame_id == "#" or any(c.isspace() for c in frame_id):
        raise ValueError(f"frame id {frame_id!r} must be non-empty, whitespace-free and not '#'")
    return frame_id


def _check_ids(frame_ids):
    for frame_id in dict.fromkeys(frame_ids):
        _check_frame_id(frame_id)


def _write_records(path, kind: str, entries: dict, columns: str, ids, numbers):
    """Write a record file: the header, ending with the record count and the
    column names, then one line per row of the id columns and the numeric
    columns, each number as fnum prints it, through one %-format per row. A
    non-finite number is refused."""
    values = np.column_stack(numbers) + 0.0  # + 0.0 turns -0 into 0, as fnum does
    if not np.isfinite(values).all():
        raise ValueError(f"cannot serialize non-finite number {float(values[~np.isfinite(values)][0])!r}")
    line = " ".join(["%s"] * len(ids) + ["%.9g"] * values.shape[1]) + "\n"
    with atomic_write(path) as fh:
        _write_header(fh, kind, {**entries, "count": len(values), "columns": columns})
        fh.writelines(line % row for row in zip(*ids, *values.T.tolist()))


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
    kind, header, body = read_header(path)
    _expect_kind(path, kind, "poses")
    _expect_count(path, header, body)
    split = header.get("split", "train")
    if split not in ("train", "test"):
        raise _header_error(path, "split", f"split must be 'train' or 'test', got {split!r}")
    (ids,), values = _parse_records(path, body, _POSE_COLUMNS, "pose")
    if len(set(ids)) != len(ids):
        seen = set()
        k = next(k for k, f in enumerate(ids) if f in seen or seen.add(f))
        raise _record_error(path, k, f"duplicate frame id {ids[k]!r}")
    return PoseSet(
        scene_name=header.get("scene", ""),
        split=split,
        frame_ids=ids,
        rotations=_parsed_quats(path, values[:, 0:4]),
        translations=values[:, 4:7],
        source_format=header.get("source_format", "canonical"),
        convention_note=header.get("convention_note", ""),
    )


# ---------------------------------------------------------------------------
# pair files
# ---------------------------------------------------------------------------

_PAIR_COLUMNS = "anchor_id query_id overlap qw qx qy qz tx ty tz"


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
        raise ValueError(f"pair {pairs.keys()[k]} overlap {pairs.overlaps[k]} outside "
                         f"({min_overlap}, {max_overlap}]")
    if any(map(operator.eq, pairs.anchor_ids, pairs.query_ids)):
        raise ValueError("pair must join two distinct frames")
    _check_ids(pairs.anchor_ids + pairs.query_ids)
    dupes = pairs.duplicate_keys()
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
    _write_records(path, "pairs", entries, _PAIR_COLUMNS, (pairs.anchor_ids, pairs.query_ids),
                   (pairs.overlaps, *pairs.rotations.T, *pairs.translations.T))


def read_pairs(path) -> PairFileData:
    kind, header, body = read_header(path)
    _expect_kind(path, kind, "pairs")
    _expect_count(path, header, body)
    cfg = config_from_header(header)
    digest = header.get("config_digest", "")
    if config_digest(cfg) != digest:
        raise FormatError(
            f"{path}: stored config_digest {digest} does not match the header configuration"
        )
    lo = float(header.get("min_overlap", "0"))
    hi = float(header.get("max_overlap", "1"))
    (anchor_ids, query_ids), values = _parse_records(path, body, _PAIR_COLUMNS, "pair")
    same = list(map(operator.eq, anchor_ids, query_ids))
    if True in same:
        k = same.index(True)
        raise _record_error(path, k, f"pair must join two distinct frames, got {anchor_ids[k]!r} twice")
    overlaps = values[:, 0]
    inside = (overlaps > lo) & (overlaps <= hi) & (overlaps >= 0.0) & (overlaps <= 1.0)
    if not inside.all():
        k = int(np.argmin(inside))
        raise _record_error(path, k, f"overlap {body[k].split()[2]} outside the header's "
                                     f"({header.get('min_overlap', '0')}, {header.get('max_overlap', '1')}]")
    _check_keys(path, anchor_ids, query_ids, "pair")
    pairs = PairTable(anchor_ids, query_ids, _parsed_quats(path, values[:, 1:5]), values[:, 5:8],
                      overlaps=overlaps, config_digest=digest)
    return PairFileData(
        pairs=pairs,
        cfg=cfg,
        digest=digest,
        min_overlap=lo,
        max_overlap=hi,
        ordered=header.get("ordered", "true") == "true",
        header=header,
    )


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
    _check_ids(predictions.anchor_ids + predictions.query_ids)
    dupes = predictions.duplicate_keys()
    if dupes:
        raise ValueError(f"duplicate prediction keys: {dupes[:5]}")
    entries = {
        "config_digest": config_digest,
        "predictor": predictor,
        **convention_entries(),
        **(extra or {}),
    }
    _write_records(path, "predictions", entries, _PRED_COLUMNS,
                   (predictions.anchor_ids, predictions.query_ids),
                   (*predictions.rotations.T, *predictions.translations.T))


def read_predictions(path) -> PredictionFileData:
    kind, header, body = read_header(path)
    _expect_kind(path, kind, "predictions")
    _expect_count(path, header, body)
    digest = header.get("config_digest", "")
    (anchor_ids, query_ids), values = _parse_records(path, body, _PRED_COLUMNS, "prediction")
    _check_keys(path, anchor_ids, query_ids, "prediction")
    predictions = PairTable(anchor_ids, query_ids, _parsed_quats(path, values[:, 0:4]),
                            values[:, 4:7], config_digest=digest)
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


def write_report(path, items: dict, extra: dict | None = None):
    """Serialize a metric report; values are written as key=value header lines."""
    entries = dict(extra or {})
    for k, v in items.items():
        if v is None:
            entries[k] = "undefined"
        elif isinstance(v, bool):
            entries[k] = "true" if v else "false"
        elif isinstance(v, float):
            entries[k] = fnum(v)
        else:
            entries[k] = str(v)
    with atomic_write(path) as fh:
        _write_header(fh, "report", entries)


def read_report(path) -> dict:
    kind, header, body = read_header(path)
    _expect_kind(path, kind, "report")
    out = {}
    for k, v in header.items():
        if v == "undefined":
            out[k] = None
        elif v == "true":
            out[k] = True
        elif v == "false":
            out[k] = False
        else:
            try:
                out[k] = int(v)
            except ValueError:
                try:
                    out[k] = float(v)
                except ValueError:
                    out[k] = v
    return out


def write_histogram(path, edges, counts, extra: dict | None = None):
    edges = list(edges)
    counts = list(counts)
    entries = {
        **(extra or {}),
        "count": len(counts),
        "columns": "bin_lo,bin_hi,count",
    }
    with atomic_write(path) as fh:
        _write_header(fh, "histogram", entries)
        for lo, hi, c in zip(edges[:-1], edges[1:], counts):
            fh.write(f"{fnum(lo)},{fnum(hi)},{int(c)}\n")


def write_subspace_table(path, stats_rows, extra: dict | None = None):
    """One subspace-statistics row per threshold; undefined values print as nan."""
    entries = {
        **(extra or {}),
        "count": len(stats_rows),
        "columns": "threshold,count,mean_norm,std_norm,diameter",
    }

    def cell(v):
        return "nan" if v is None else fnum(v)

    with atomic_write(path) as fh:
        _write_header(fh, "subspace_stats", entries)
        for s in stats_rows:
            fh.write(
                f"{fnum(s.threshold)},{s.count},{cell(s.mean_norm)},{cell(s.std_norm)},{cell(s.diameter)}\n"
            )


def write_curve(path, curve, extra: dict | None = None):
    """Plot-ready CSV of an error curve plus its area summaries."""

    def cell(v):
        return "nan" if v is None else fnum(v)

    entries = {
        **(extra or {}),
        "stat": curve.stat,
        "norm": curve.norm,
        "auc_t": cell(curve.auc_t),
        "auc_q": cell(curve.auc_q),
        "raw_area_t": cell(curve.raw_area_t),
        "raw_area_q": cell(curve.raw_area_q),
        "empty_bins": sum(1 for b in curve.bins if b.n == 0),
        "count": len(curve.bins),
        "columns": "bin_lo,bin_mid,bin_hi,t_stat,q_stat,n",
    }
    with atomic_write(path) as fh:
        _write_header(fh, "error_curve", entries)
        for b in curve.bins:
            fh.write(
                f"{fnum(b.lo)},{fnum(b.mid)},{fnum(b.hi)},{cell(b.t_stat)},{cell(b.q_stat)},{b.n}\n"
            )


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
