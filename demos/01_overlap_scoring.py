"""How two camera viewpoints are scored for shared visible volume.

One camera contributes six bounding planes, the other a lattice of probe
points spanning its viewing volume; the score is the fraction of probe points
inside the planes. A relative-rotation gate zeroes the score for view pairs
that face apart, however close their volumes are.

Run: python3 demos/01_overlap_scoring.py
"""

import numpy as np

from frustoval import (
    FrustumSpec,
    OverlapConfig,
    Pose,
    Quaternion,
    Translation,
    overlap_score,
)
from frustoval.frustum import camera_grid, camera_planes

spec = FrustumSpec()  # Kinect-like: 58 x 45 deg, 0.1-4 m, 8x8x8 probe lattice
cfg = OverlapConfig(frustum=spec)
ident = Pose(Quaternion.identity(), Translation(0, 0, 0), "reference")

print(f"frustum: {spec.hfov_deg}x{spec.vfov_deg} deg, "
      f"{spec.near}-{spec.far} m, {spec.n_points} probe points")
print(f"rotation gate: {cfg.max_relative_rotation_deg} deg\n")

print("A camera fully overlaps itself:")
print(f"  score(reference, reference) = {overlap_score(ident, ident, cfg):.4f}\n")

print("Sliding a second identical camera sideways sheds boundary points:")
for dx in (0.05, 0.2, 0.5, 1.0, 2.0, 5.0):
    other = Pose(Quaternion.identity(), Translation(dx, 0, 0), "slid")
    print(f"  {dx:4.2f} m -> {overlap_score(ident, other, cfg):.4f}")

print("\nRotating it in place decays the score and then hits the gate:")
for angle in (10, 30, 60, 90, 109, 111, 150):
    other = Pose(Quaternion.from_axis_angle((0, 1, 0), angle), Translation(0, 0, 0), "turned")
    score = overlap_score(ident, other, cfg)
    note = "  <- gated" if angle > cfg.max_relative_rotation_deg else ""
    print(f"  {angle:3d} deg -> {score:.4f}{note}")

print("\nThe directional score is not symmetric; a camera standing inside")
print("another's volume sees less of it than the reverse:")
ahead = Pose(Quaternion.identity(), Translation(0, 0, 1.0), "ahead")
fwd = overlap_score(ident, ahead, cfg)
rev = overlap_score(ahead, ident, cfg)
sym = overlap_score(ident, ahead, OverlapConfig(frustum=spec, symmetric=True))
print(f"  forward {fwd:.4f}, reverse {rev:.4f}, symmetric(min) {sym:.4f}")

print("\nUnder the hood: plane containment of individual world points")
# the reference camera sits at the origin, so its camera frame is the world
normals, offsets = camera_planes(spec)  # inward unit normals: n.p + d >= 0 inside
for point in ([0, 0, 2.0], [0, 0, 0.0], [0, 0, 5.0], [1.0, 0, 2.0]):
    inside = bool(np.all(normals @ point + offsets >= -spec.boundary_epsilon))
    print(f"  {str(point):16s} inside={inside}")
# a pose carries the camera-frame lattice into the world
probe = camera_grid(spec) @ ahead.rotation.to_matrix().T + ahead.translation.as_array()
depths = probe[:, 2]
print(f"\nthe probe lattice of the 'ahead' camera spans z = "
      f"[{depths.min():.2f}, {depths.max():.2f}] m at {len(probe)} points")
