"""Output checks computed outside the program.

Every check reads the artifacts from disk with its own parser and compares
them with the benchmark's own computations (scenes.py geometry, numpy
reductions) or with properties the method must have. None compares against
a stored copy of earlier output. A failed check raises CheckError.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from scenes import matrix_to_quat, quat_to_matrix

FORMAT_LINE = "# frustoval-format v1"

# canonical files print 9 significant digits: two units of that last digit
REL_TOL = 1e-8


class CheckError(Exception):
    pass


def require(ok, message):
    if not ok:
        raise CheckError(message)


# ---------------------------------------------------------------------------
# reading the canonical text formats
# ---------------------------------------------------------------------------


def read_file(path):
    """(header dict, record token lists) of a `# frustoval-format v1` file."""
    lines = Path(path).read_text().splitlines()
    require(lines and lines[0] == FORMAT_LINE, f"{path}: missing format line")
    header, body = {}, []
    for ln in lines[1:]:
        if ln.startswith("# "):
            key, _, value = ln[2:].partition("=")
            header[key] = value
        elif ln.strip():
            body.append(ln.split(",") if "," in ln else ln.split())
    if "count" in header:
        require(int(header["count"]) == len(body),
                f"{path}: header count {header['count']} but {len(body)} records")
    return header, body


def _quats(cols):
    """Quaternion columns as the file format defines them: used as written
    when within 1e-8 of unit norm with w >= 0, else normalised."""
    q = np.array(cols, dtype=float).reshape(-1, 4)
    nsq = np.sum(q * q, axis=1)
    fix = (np.abs(nsq - 1.0) > 1e-8) | (q[:, 0] < 0)
    if np.any(fix):
        q[fix] /= np.sqrt(nsq[fix])[:, None]
        q[fix & (q[:, 0] < 0)] *= -1.0
    return q


class Poses:
    def __init__(self, path):
        self.header, body = read_file(path)
        require(self.header.get("kind") == "poses", f"{path}: not a pose file")
        self.ids = [r[0] for r in body]
        self.q = _quats([r[1:5] for r in body])
        self.t = np.array([r[5:8] for r in body], dtype=float).reshape(-1, 3)
        self.index = {fid: i for i, fid in enumerate(self.ids)}
        require(len(self.index) == len(self.ids), f"{path}: duplicate frame ids")


class Pairs:
    def __init__(self, path):
        self.path = path
        self.header, body = read_file(path)
        require(self.header.get("kind") == "pairs", f"{path}: not a pair file")
        self.keys = [(r[0], r[1]) for r in body]
        self.overlap_text = [r[2] for r in body]
        self.overlap = np.array(self.overlap_text, dtype=float)
        self.q = _quats([r[3:7] for r in body])
        self.t = np.array([r[7:10] for r in body], dtype=float).reshape(-1, 3)
        h = self.header
        self.lo, self.hi = float(h["min_overlap"]), float(h["max_overlap"])
        self.symmetric = h["symmetric"] == "true"
        self.spec = FrustumSpec(h)
        require(self.keys == sorted(self.keys), f"{path}: records not sorted by key")
        require(len(set(self.keys)) == len(self.keys), f"{path}: duplicate pair keys")

    def __len__(self):
        return len(self.keys)


class Predictions:
    def __init__(self, path):
        self.header, body = read_file(path)
        require(self.header.get("kind") == "predictions", f"{path}: not a prediction file")
        self.keys = [(r[0], r[1]) for r in body]
        self.q = _quats([r[2:6] for r in body])
        self.t = np.array([r[6:9] for r in body], dtype=float).reshape(-1, 3)

    def aligned(self, pairs: Pairs):
        """(t_hat, q_hat) rows in the pair file's order."""
        where = {k: i for i, k in enumerate(self.keys)}
        missing = [k for k in pairs.keys if k not in where]
        require(not missing, f"predictions missing for {missing[:3]}")
        idx = np.array([where[k] for k in pairs.keys], dtype=int)
        return self.t[idx], self.q[idx]


def read_table(path):
    """(header, float rows) of a comma-separated artifact; 'nan' cells stay nan."""
    header, body = read_file(path)
    return header, np.array(body, dtype=float).reshape(len(body), -1)


def read_report(path):
    header, _ = read_file(path)
    require(header.get("kind") == "report", f"{path}: not a report")
    return header


# ---------------------------------------------------------------------------
# geometry of the frustum, in the anchor camera's frame
# ---------------------------------------------------------------------------


class FrustumSpec:
    """The frustum as echoed in a pair file header."""

    def __init__(self, h):
        self.hfov, self.vfov = float(h["hfov_deg"]), float(h["vfov_deg"])
        self.near, self.far = float(h["near_m"]), float(h["far_m"])
        self.grid = tuple(int(g) for g in h["grid"].split("x"))
        self.eps = float(h["boundary_epsilon_m"])
        self.max_rot = float(h["max_relative_rotation_deg"])
        self.n_points = self.grid[0] * self.grid[1] * self.grid[2]

    def lattice(self):
        """Probe points in the camera frame: corner-inclusive, near to far."""
        nx, ny, nz = self.grid
        ta, tb = math.tan(math.radians(self.hfov) / 2), math.tan(math.radians(self.vfov) / 2)
        z, uy, ux = np.meshgrid(np.linspace(self.near, self.far, nz), np.linspace(-1, 1, ny),
                                np.linspace(-1, 1, nx), indexing="ij")
        return np.stack([z * ta * ux, z * tb * uy, z], -1).reshape(-1, 3)

    def inside(self, p):
        """Containment in the camera frame: depth slab and four side wedges, each
        as a signed distance to the bounding plane, with the file's slack."""
        ta, tb = math.tan(math.radians(self.hfov) / 2), math.tan(math.radians(self.vfov) / 2)
        x, y, z = p[..., 0], p[..., 1], p[..., 2]
        e = -self.eps
        ca, cb = 1 / math.sqrt(1 + ta * ta), 1 / math.sqrt(1 + tb * tb)
        return ((z - self.near >= e) & (self.far - z >= e)
                & ((z * ta + x) * ca >= e) & ((z * ta - x) * ca >= e)
                & ((z * tb + y) * cb >= e) & ((z * tb - y) * cb >= e))


def rotation_angle_deg(qa, qb):
    d = np.minimum(np.abs(np.sum(qa * qb, axis=-1)), 1.0)
    return np.degrees(2.0 * np.arccos(d))


def oracle_counts(poses: Poses, spec: FrustumSpec, ia, ib):
    """Probe points of frame ib inside frame ia's frustum, per pair, with the
    rotation gate applied (gated pairs count 0)."""
    ia, ib = np.asarray(ia), np.asarray(ib)
    ra, rb = quat_to_matrix(poses.q[ia]), quat_to_matrix(poses.q[ib])
    g = spec.lattice()
    world = np.einsum("pk,njk->npj", g, rb) + poses.t[ib][:, None, :]
    cam = np.einsum("npk,nkj->npj", world - poses.t[ia][:, None, :], ra)  # R_a^T (p - t_a)
    counts = spec.inside(cam).sum(axis=1)
    gated = rotation_angle_deg(poses.q[ia], poses.q[ib]) > spec.max_rot
    return np.where(gated, 0, counts)


def _oracle_scores(poses, spec, symmetric, ia, ib):
    counts = oracle_counts(poses, spec, ia, ib)
    if symmetric:
        counts = np.minimum(counts, oracle_counts(poses, spec, ib, ia))
    return counts


def check_pair_scores(pairs: Pairs, poses: Poses, rng, n_sample=256):
    """Recount a seeded sample of listed pairs exactly, and check that a sample
    of unlisted ordered pairs scores outside the window."""
    spec = pairs.spec
    n = len(poses.ids)
    ids = poses.index
    pos = [(ids[a], ids[b]) for a, b in pairs.keys]
    require(all(a != b for a, b in pos), f"{pairs.path}: a pair joins a frame to itself")
    pick = rng.choice(len(pos), size=min(n_sample, len(pos)), replace=False) if pos else []
    if len(pick):
        ia = [pos[k][0] for k in pick]
        ib = [pos[k][1] for k in pick]
        counts = _oracle_scores(poses, spec, pairs.symmetric, ia, ib)
        listed = np.rint(pairs.overlap[pick] * spec.n_points).astype(int)
        bad = np.nonzero(counts != listed)[0]
        if bad.size:
            raise CheckError(f"{pairs.path}: pair {pairs.keys[pick[bad[0]]]} lists overlap "
                             f"{pairs.overlap[pick[bad[0]]]} but {counts[bad[0]]}/{spec.n_points} probes are inside")
    listed = set(pos)
    if n * (n - 1) <= 4 * n_sample:
        cand = [(a, b) for a in range(n) for b in range(n)]
    else:
        cand = list(zip(rng.integers(0, n, 4 * n_sample), rng.integers(0, n, 4 * n_sample)))
    unlisted = [(a, b) for a, b in cand if a != b and (a, b) not in listed]
    if pairs.header.get("ordered", "true") == "false":
        unlisted = [(a, b) for a, b in unlisted if poses.ids[a] < poses.ids[b]]
    unlisted = unlisted[:n_sample]
    if unlisted:
        ia, ib = zip(*unlisted)
        scores = _oracle_scores(poses, spec, pairs.symmetric, ia, ib) / spec.n_points
        inside = (scores > pairs.lo) & (scores <= pairs.hi)
        require(not np.any(inside),
                f"{pairs.path}: unlisted pair {unlisted[int(np.argmax(inside))]} scores "
                f"{scores[int(np.argmax(inside))]} inside ({pairs.lo}, {pairs.hi}]")


def check_relative_poses(pairs: Pairs, poses: Poses, rng, n_sample=256):
    """inverse(A) * B from 4x4 matrices of the normalised pose quaternions,
    against the listed relative pose. The tolerance adds to the output rounding
    the pose quaternions' own norm error, which the format lets through up to
    1e-8 and the program does not remove."""
    tol = 3 * REL_TOL
    pick = rng.choice(len(pairs), size=min(n_sample, len(pairs)), replace=False)
    ia = [poses.index[pairs.keys[k][0]] for k in pick]
    ib = [poses.index[pairs.keys[k][1]] for k in pick]

    def mats(i):
        q = poses.q[i] / np.linalg.norm(poses.q[i], axis=1, keepdims=True)
        m = np.tile(np.eye(4), (len(i), 1, 1))
        m[:, :3, :3], m[:, :3, 3] = quat_to_matrix(q), poses.t[i]
        return m

    rel = np.linalg.inv(mats(ia)) @ mats(ib)
    t_ref = rel[:, :3, 3]
    bad = np.nonzero(np.abs(t_ref - pairs.t[pick]).max(axis=1) > tol * np.linalg.norm(t_ref, axis=1) + 1e-12)[0]
    if bad.size:
        raise CheckError(f"{pairs.path}: relative translation of {pairs.keys[pick[bad[0]]]} is "
                         f"{pairs.t[pick[bad[0]]]}, expected {t_ref[bad[0]]}")
    _same_rotations(f"{pairs.path}: relative pose", pairs.q[pick], matrix_to_quat(rel[:, :3, :3]), tol)


def check_symmetric(pairs: Pairs):
    """(i, j) is listed exactly when (j, i) is, with the same overlap."""
    listed = dict(zip(pairs.keys, pairs.overlap_text))
    for (a, b), ov in listed.items():
        require(listed.get((b, a)) == ov,
                f"{pairs.path}: ({a}, {b}) lists {ov} but ({b}, {a}) lists {listed.get((b, a))}")


# ---------------------------------------------------------------------------
# poses against the generated scene
# ---------------------------------------------------------------------------


def _same_rotations(what, q_file, q_ref, tol=REL_TOL):
    """Quaternions equal componentwise, up to the sign of the double cover."""
    sign = np.where(np.sum(q_file * q_ref, axis=1) < 0, -1.0, 1.0)[:, None]
    bad = np.nonzero(np.abs(q_file * sign - q_ref).max(axis=1) > tol)[0]
    if bad.size:
        raise CheckError(f"{what}: rotation {q_file[bad[0]]} differs from expected {q_ref[bad[0]]}")


def _same_positions(what, t_file, t_ref):
    tol = REL_TOL * np.abs(t_ref) + 1e-12
    bad = np.nonzero(np.any(np.abs(t_file - t_ref) > tol, axis=1))[0]
    if bad.size:
        raise CheckError(f"{what}: position {t_file[bad[0]]} differs from expected {t_ref[bad[0]]}")


def check_cambridge_ingest(poses: Poses, names, rot_c2w, centres):
    """Camera centre kept; camera-to-world rotation is the conjugate of the file's
    world-to-camera quaternion, i.e. the generated rotation."""
    require(sorted(poses.ids) == sorted(names), "cambridge ingest: frame ids differ from the file")
    idx = [poses.index[n] for n in names]
    _same_rotations("cambridge ingest", poses.q[idx], matrix_to_quat(rot_c2w))
    _same_positions("cambridge ingest", poses.t[idx], centres)


def check_sevenscenes_ingest(poses: Poses, seq, rot_c2w, positions):
    ids = [f"{seq}/frame-{i:06d}" for i in range(len(positions))]
    require(poses.ids == ids, f"7-scenes ingest: frame ids differ from the {seq} files")
    r = quat_to_matrix(poses.q)
    bad = np.nonzero(np.abs(r - rot_c2w).max(axis=(1, 2)) > REL_TOL)[0]
    if bad.size:
        raise CheckError(f"7-scenes ingest: rotation of {ids[bad[0]]} differs from its 4x4 matrix")
    _same_positions("7-scenes ingest", poses.t, positions)


def check_synth_poses(poses: Poses, n, extents, max_tilt_deg):
    require(len(poses.ids) == n, f"synth: {len(poses.ids)} poses, expected {n}")
    half = np.asarray(extents) / 2.0
    require(np.all(np.abs(poses.t) <= half * (1 + REL_TOL)), "synth: a pose lies outside the box")
    require(np.all(np.abs(np.linalg.norm(poses.q, axis=1) - 1.0) <= 1e-8), "synth: non-unit quaternion")
    require(np.all(poses.q[:, 0] >= 0.0), "synth: quaternion with w < 0")
    axis_z = quat_to_matrix(poses.q)[:, 2, 2]  # z component of the optical axis
    tilt = np.degrees(np.arccos(np.clip(axis_z, -1.0, 1.0)))
    require(np.all(tilt <= max_tilt_deg + 1e-6), f"synth: tilt {tilt.max()} deg above {max_tilt_deg}")


# ---------------------------------------------------------------------------
# statistics, predictions, reports, curves
# ---------------------------------------------------------------------------


def _close(what, got, want, rtol=REL_TOL, atol=1e-12):
    try:
        ok = abs(float(got) - want) <= rtol * abs(want) + atol
    except ValueError:  # "undefined" where a value was expected
        ok = False
    require(ok, f"{what}: {got}, expected {want}")


def bin_counts(values, edges):
    """Left-open, right-closed bins, recounted with a plain loop."""
    counts = [0] * (len(edges) - 1)
    for v in values:
        for b in range(len(edges) - 1):
            if edges[b] < v <= edges[b + 1]:
                counts[b] += 1
                break
    return counts


def check_histogram(path, pairs: Pairs):
    _, rows = read_table(path)
    edges = list(rows[:, 0]) + [rows[-1, 1]]
    want = bin_counts(pairs.overlap, edges)
    require(list(rows[:, 2].astype(int)) == want, f"{path}: counts {rows[:, 2]}, recount {want}")
    require(sum(want) == len(pairs), f"{path}: bins hold {sum(want)} of {len(pairs)} pairs")


def check_diameter(path, pairs: Pairs):
    _, rows = read_table(path)
    norms = np.linalg.norm(pairs.t, axis=1)
    for thr, count, mean, std, diam in rows:
        sel = norms[pairs.overlap >= thr]
        require(int(count) == sel.size, f"{path}: {int(count)} pairs at {thr}, expected {sel.size}")
        if sel.size:
            _close(f"{path} mean@{thr}", mean, float(sel.mean()))
            _close(f"{path} std@{thr}", std, float(sel.std()))
            _close(f"{path} diameter@{thr}", diam, float(sel.mean() + 2.0 * sel.std()))


def check_naive(pred: Predictions, pairs: Pairs, source: Pairs):
    """Every prediction is the source set's mean pose, and its MASE on that set is 1."""
    require(pred.keys == pairs.keys, "naive: prediction keys differ from the pair file")
    mean_t = source.t.mean(axis=0)
    _same_positions("naive translation", pred.t, np.broadcast_to(mean_t, pred.t.shape))
    q = source.q * np.where(source.q @ source.q[0] < 0.0, -1.0, 1.0)[:, None]
    q_mean = q.mean(axis=0)
    q_mean = q_mean / np.linalg.norm(q_mean)
    _same_rotations("naive rotation", pred.q, np.broadcast_to(q_mean, pred.q.shape))
    num = np.abs(source.t - pred.t[0]).sum()
    den = np.abs(source.t - mean_t).sum()
    _close("naive MASE on its own source", num / den, 1.0, rtol=1e-6)


def check_noisy(pred: Predictions, pairs: Pairs, sigma_t, sigma_q_deg, relative):
    """Residuals match the noise model within five standard errors."""
    t_hat, q_hat = pred.aligned(pairs)
    m = len(pairs)
    res = t_hat - pairs.t
    if relative:
        res = res / np.linalg.norm(pairs.t, axis=1, keepdims=True)
    k = res.size
    require(abs(res.mean()) <= 5 * sigma_t / math.sqrt(k),
            f"noisy: translation residual mean {res.mean()} over {k} components")
    require(abs(res.std() - sigma_t) <= 5 * sigma_t / math.sqrt(2 * k) + 1e-8,
            f"noisy: translation residual std {res.std()}, sigma_t {sigma_t}")
    ang = rotation_angle_deg(pairs.q, q_hat)
    want = sigma_q_deg * math.sqrt(2 / math.pi)
    se = sigma_q_deg * math.sqrt(1 - 2 / math.pi) / math.sqrt(m)
    require(abs(ang.mean() - want) <= 5 * se + 1e-6,
            f"noisy: mean rotation residual {ang.mean()} deg, expected {want}")


def _norms(rows, norm):
    return np.abs(rows).sum(axis=-1) if norm == "l1" else np.linalg.norm(rows, axis=-1)


def euler_zyx_deg(q):
    """Intrinsic Z-Y-X angles and the gimbal-lock mask (|pitch| within 1e-6 deg of 90)."""
    w, x, y, z = q.T
    pitch = np.degrees(np.arcsin(np.clip(2 * (w * y - x * z), -1, 1)))
    yaw = np.degrees(np.arctan2(2 * (x * y + w * z), 1 - 2 * (y * y + z * z)))
    roll = np.degrees(np.arctan2(2 * (y * z + w * x), 1 - 2 * (x * x + y * y)))
    return np.stack([yaw, pitch, roll], -1), np.abs(pitch) >= 90 - 1e-6


def check_report(path, pairs: Pairs, pred: Predictions, source: Pairs):
    """Recompute every report value from the pair and prediction files."""
    rep = read_report(path)
    norm = rep["norm"]
    t_hat, q_hat = pred.aligned(pairs)
    t, q = pairs.t, pairs.q
    t_err = _norms(t - t_hat, norm)
    q_err = rotation_angle_deg(q, q_hat)
    require(int(rep["n_pairs"]) == len(pairs), f"{path}: n_pairs {rep['n_pairs']}")
    _close(f"{path} t_mean_m", rep["t_mean_m"], float(t_err.mean()))
    _close(f"{path} t_median_m", rep["t_median_m"], float(np.median(t_err)))
    _close(f"{path} q_mean_deg", rep["q_mean_deg"], float(q_err.mean()))
    _close(f"{path} q_median_deg", rep["q_median_deg"], float(np.median(q_err)))
    gt = _norms(t, norm)
    keep = gt > 0
    mape = float((t_err[keep] / gt[keep]).mean())
    _close(f"{path} t_mape", rep["t_mape"], mape)
    require(int(rep["mape_excluded_zero_norm"]) == int((~keep).sum()), f"{path}: zero-norm exclusions")
    naive = source.t.mean(axis=0)
    _close(f"{path} t_mase", rep["t_mase"], float(t_err.sum() / _norms(t - naive, norm).sum()))
    naive_rel = _norms(t[keep] - naive, norm).sum() / gt[keep].sum()
    _close(f"{path} t_mapse", rep["t_mapse"], mape / naive_rel)
    r, locked = euler_zyx_deg(q)
    r_hat, locked_hat = euler_zyx_deg(q_hat)
    denom = np.abs(r).sum(axis=1)
    ok = ~(locked | locked_hat) & (denom > 0)
    require(int(rep["rmape_excluded"]) == int((~ok).sum()), f"{path}: rmape exclusions")
    _close(f"{path} r_mape", rep["r_mape"], float((np.abs(r - r_hat)[ok].sum(axis=1) / denom[ok]).mean()))
    thr = float(rep["subspace_threshold"])
    require(thr == pairs.lo, f"{path}: subspace threshold {thr}, pair file minimum {pairs.lo}")
    sel = np.linalg.norm(t, axis=1)[pairs.overlap >= thr]
    require(int(rep["subspace_count"]) == sel.size, f"{path}: subspace count")
    _close(f"{path} subspace_mean_norm_m", rep["subspace_mean_norm_m"], float(sel.mean()))
    _close(f"{path} subspace_std_norm_m", rep["subspace_std_norm_m"], float(sel.std()))
    _close(f"{path} subspace_diameter_m", rep["subspace_diameter_m"], float(sel.mean() + 2 * sel.std()))


def quat_mul(a, b):
    aw, ax, ay, az = a.T
    bw, bx, by, bz = b.T
    return np.stack([aw * bw - ax * bx - ay * by - az * bz, aw * bx + ax * bw + ay * bz - az * by,
                     aw * by - ax * bz + ay * bw + az * bx, aw * bz + ax * by - ay * bx + az * bw], -1)


def relative_from_poses(poses: Poses, keys):
    """inverse(A) * B for each key, at full precision: conj(q_a) q_b normalised,
    and R_a^T (t_b - t_a)."""
    ia = np.array([poses.index[a] for a, _ in keys], dtype=int)
    ib = np.array([poses.index[b] for _, b in keys], dtype=int)
    q = quat_mul(poses.q[ia] * np.array([1.0, -1.0, -1.0, -1.0]), poses.q[ib])
    q /= np.linalg.norm(q, axis=1, keepdims=True)
    t = np.einsum("nk,nkj->nj", poses.t[ib] - poses.t[ia], quat_to_matrix(poses.q[ia]))
    return t, q


def check_curve(path, pairs: Pairs, poses: Poses, pred: Predictions, stat="median", norm="l1"):
    """Per-bin n from the pair file's overlaps; per-bin statistic of the errors
    against ground truth recomputed from the poses, as `curve` re-scores them;
    and the span-normalised AUC."""
    header, rows = read_table(path)
    t_hat, q_hat = pred.aligned(pairs)
    t, q = relative_from_poses(poses, pairs.keys)
    t_err = _norms(t - t_hat, norm)
    q_err = rotation_angle_deg(q, q_hat)
    reduce = np.median if stat == "median" else np.mean
    mids, tv, qv = [], [], []
    for lo, mid, hi, t_stat, q_stat, n in rows:
        sel = (pairs.overlap > lo) & (pairs.overlap <= hi)
        require(int(n) == int(sel.sum()), f"{path}: bin ({lo}, {hi}] holds {int(n)}, recount {int(sel.sum())}")
        if sel.any():
            _close(f"{path} t@{mid}", t_stat, float(reduce(t_err[sel])))
            _close(f"{path} q@{mid}", q_stat, float(reduce(q_err[sel])))
            mids.append(mid)
            tv.append(float(reduce(t_err[sel])))
            qv.append(float(reduce(q_err[sel])))
    require(sum(rows[:, 5]) == len(pairs), f"{path}: bins hold {sum(rows[:, 5])} of {len(pairs)} pairs")
    for key, vals in (("auc_t", tv), ("auc_q", qv)):
        area = sum((mids[k + 1] - mids[k]) * (vals[k] + vals[k + 1]) / 2 for k in range(len(mids) - 1))
        want = vals[0] if len(mids) == 1 else area / (mids[-1] - mids[0])
        _close(f"{path} {key}", header[key], want, rtol=1e-7)
