"""Print the machine and the work each workload gives the scoring kernel.

    python3 perfbench/describe.py --seed 1

Runs each workload's setup and `pairs` stages once, then counts with the
benchmark's own geometry: ordered pairs, pairs past the rotation gate, pairs
past the bounding-sphere reject, probe-point tests and pairs kept. The output
is the Markdown that perfbench/README.md quotes.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import os
import shutil
import subprocess
import sys

import numpy as np

import checks
import run
from scenes import quat_to_matrix


def blas():
    """(library and version, threads it would use) of numpy's BLAS."""
    info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    name = f"{info['name']} {info['version']}"
    for lib in glob.glob(os.path.join(os.path.dirname(np.__file__), "..", "numpy.libs", "*openblas*")):
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(lib), sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return name, fn()
    return name, "unknown"


def pair_counts(poses: checks.Poses, spec: checks.FrustumSpec):
    """Work the scoring kernel does: ordered pairs, past the rotation gate, past
    the bounding-sphere reject, and probe-point tests on the survivors."""
    n = len(poses.ids)
    ang = np.degrees(2 * np.arccos(np.minimum(np.abs(poses.q @ poses.q.T), 1.0)))
    gate = ang <= spec.max_rot
    np.fill_diagonal(gate, False)
    ta, tb = np.tan(np.radians(spec.hfov) / 2), np.tan(np.radians(spec.vfov) / 2)
    corners = np.array([[sx * z * ta, sy * z * tb, z] for z in (spec.near, spec.far)
                        for sy in (-1, 1) for sx in (-1, 1)])
    c_cam = corners.mean(axis=0)
    radius = np.linalg.norm(corners - c_cam, axis=1).max()
    centres = poses.t + quat_to_matrix(poses.q) @ c_cam
    d2 = np.sum((centres[:, None, :] - centres[None, :, :]) ** 2, axis=-1)
    sphere = gate & (d2 <= (2 * radius + 1e-6) ** 2)
    return {"ordered": n * (n - 1), "gate_pass": int(gate.sum()), "sphere_pass": int(sphere.sum()),
            "point_tests": int(sphere.sum()) * spec.n_points}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()
    for var in run.BLAS_VARS:
        os.environ.pop(var, None)
    name, threads = blas()
    nproc = subprocess.run(["nproc"], capture_output=True, text=True, check=True).stdout.strip()
    print(f"- `nproc`: {nproc}; CPU affinity: "
          f"{sorted(os.sched_getaffinity(0))}; `os.cpu_count()`: {os.cpu_count()}")
    print(f"- BLAS: {name}, {threads} threads with the thread variables unset")
    print(f"- Python {sys.version.split()[0]}, numpy {np.__version__}\n")
    print("| workload | seed | ordered pairs | past rotation gate | past sphere reject "
          "| point tests | pairs kept |")
    print("| --- | --- | --- | --- | --- | --- | --- |")
    for wl in run.WORKLOADS:
        work = run.OUT / f"describe-{wl}-{args.seed}"
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        try:
            scene = run.build(wl, args.seed, work)
            with open(work / "stderr.log", "w") as log:
                ran = run.run_round([s for s in scene.stages if s.name in ("setup", "pairs")],
                                    run.stage_env(), log, run.Tally())
            if ran is None:
                raise SystemExit(f"{wl}: a stage failed:\n{(work / 'stderr.log').read_text()}")
            total = {"ordered": 0, "gate_pass": 0, "sphere_pass": 0, "point_tests": 0, "kept": 0}
            for ps, pf in scene.scored:
                pairs = checks.Pairs(work / pf)
                c = pair_counts(checks.Poses(work / ps), pairs.spec)
                c["kept"] = len(pairs)
                for k in total:
                    total[k] += c[k]
            o = total["ordered"]
            cells = [f"{total[k]:,} ({100 * total[k] / o:.2f}%)"
                     for k in ("gate_pass", "sphere_pass", "kept")]
            print(f"| {wl} | {args.seed} | {o:,} | {cells[0]} | {cells[1]} "
                  f"| {total['point_tests']:,} | {cells[2]} |")
        finally:
            shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    main()
