"""Procedural part-labeled point clouds, farthest-point sampling, rigid
poses, and PLY / JSON-lines persistence.

Shapes are unions of analytic surface patches (rectangles, cylinder
sides, disks), each tagged with a part label.  Points are allocated to
patches by exact surface area (largest-remainder rounding) and sampled
uniformly within each patch, so the per-part point fraction tracks the
analytic area ratio.
"""

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import FormatError, InvalidArgumentError
from .rng import rng_from

CATEGORIES = (
    "box_with_lid",
    "pot_with_handle",
    "drawer_cabinet",
    "bottle_with_cap",
    "microwave_with_door",
)

# microwave_with_door is held out as the unseen category for OC evaluation.
SEEN_CATEGORIES = CATEGORIES[:4]

PART_VOCAB = {
    "box_with_lid": ["body", "lid"],
    "pot_with_handle": ["body", "handle", "lid"],
    "drawer_cabinet": ["frame", "drawer", "handle"],
    "bottle_with_cap": ["body", "cap"],
    "microwave_with_door": ["body", "door", "handle"],
}


@dataclass
class PartLabeledCloud:
    """N points with per-point part labels.

    points: (N, 3) float64, meters.  labels: (N,) int32, indices into
    part_names.  Regenerating with the same (category, seed, N) is
    bitwise identical.
    """

    points: np.ndarray
    labels: np.ndarray
    part_names: list
    category: str
    seed: int

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int32)
        if self.points.ndim != 2 or self.points.shape[1] != 3:
            raise InvalidArgumentError("points must be (N, 3)")
        if len(self.points) < 1:
            raise InvalidArgumentError("cloud must contain at least one point")
        if not np.all(np.isfinite(self.points)):
            raise InvalidArgumentError("points contain non-finite values")
        if len(self.labels) != len(self.points):
            raise InvalidArgumentError("labels must align with points")
        if self.labels.min() < 0 or self.labels.max() >= len(self.part_names):
            raise InvalidArgumentError("labels must index into part_names")

    @property
    def n_points(self) -> int:
        return len(self.points)

    def subset(self, indices) -> "PartLabeledCloud":
        """A new cloud over the selected point indices."""
        return PartLabeledCloud(
            self.points[indices].copy(),
            self.labels[indices].copy(),
            list(self.part_names),
            self.category,
            self.seed,
        )


@dataclass(frozen=True)
class RigidPose:
    """Rotation (3x3, orthonormal, det +1) and translation (3,)."""

    rotation: np.ndarray = field(default_factory=lambda: np.eye(3))
    translation: np.ndarray = field(default_factory=lambda: np.zeros(3))

    def __post_init__(self):
        object.__setattr__(self, "rotation", np.asarray(self.rotation, dtype=np.float64))
        object.__setattr__(self, "translation", np.asarray(self.translation, dtype=np.float64))
        R = self.rotation
        if R.shape != (3, 3) or self.translation.shape != (3,):
            raise InvalidArgumentError("pose shapes must be (3,3) and (3,)")
        if np.max(np.abs(R.T @ R - np.eye(3))) > 1e-9 or abs(np.linalg.det(R) - 1.0) > 1e-9:
            raise InvalidArgumentError("rotation must be orthonormal with det +1")

    def inverse(self) -> "RigidPose":
        return RigidPose(self.rotation.T, -self.rotation.T @ self.translation)


def rotation_about_z(angle: float) -> np.ndarray:
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


# ---------------------------------------------------------------------------
# surface patches

class _Rect:
    """Planar parallelogram patch origin + s*u + t*v, s,t in [0,1]."""

    def __init__(self, origin, u, v):
        self.origin = np.asarray(origin, dtype=np.float64)
        self.u = np.asarray(u, dtype=np.float64)
        self.v = np.asarray(v, dtype=np.float64)
        self.area = float(np.linalg.norm(np.cross(self.u, self.v)))

    def sample(self, rng, count):
        st = rng.random((count, 2))
        return self.origin + st[:, :1] * self.u + st[:, 1:] * self.v


class _CylSide:
    """Open cylinder side, axis +z from base center, optional angular span."""

    def __init__(self, center, radius, height, theta0=0.0, theta1=2 * math.pi):
        self.center = np.asarray(center, dtype=np.float64)
        self.radius = float(radius)
        self.height = float(height)
        self.theta0 = float(theta0)
        self.theta1 = float(theta1)
        self.area = (self.theta1 - self.theta0) * self.radius * self.height

    def sample(self, rng, count):
        theta = self.theta0 + rng.random(count) * (self.theta1 - self.theta0)
        z = rng.random(count) * self.height
        pts = np.empty((count, 3))
        pts[:, 0] = self.radius * np.cos(theta)
        pts[:, 1] = self.radius * np.sin(theta)
        pts[:, 2] = z
        return pts + self.center


class _Disk:
    """Horizontal annulus at a fixed height, normal +z."""

    def __init__(self, center, radius, inner_radius=0.0):
        self.center = np.asarray(center, dtype=np.float64)
        self.radius = float(radius)
        self.inner = float(inner_radius)
        self.area = math.pi * (self.radius ** 2 - self.inner ** 2)

    def sample(self, rng, count):
        u = rng.random(count)
        r = np.sqrt(self.inner ** 2 + u * (self.radius ** 2 - self.inner ** 2))
        theta = rng.random(count) * 2 * math.pi
        pts = np.empty((count, 3))
        pts[:, 0] = r * np.cos(theta)
        pts[:, 1] = r * np.sin(theta)
        pts[:, 2] = 0.0
        return pts + self.center


def _box_patches(origin, size, skip=()):
    """The six faces of an axis-aligned box; `skip` drops faces by name
    ('top', 'bottom', 'front'(-y), 'back'(+y), 'left'(-x), 'right'(+x))."""
    ox, oy, oz = origin
    sx, sy, sz = size
    ex = np.array([sx, 0, 0.0])
    ey = np.array([0, sy, 0.0])
    ez = np.array([0, 0, sz])
    faces = {
        "bottom": _Rect([ox, oy, oz], ex, ey),
        "top": _Rect([ox, oy, oz + sz], ex, ey),
        "front": _Rect([ox, oy, oz], ex, ez),
        "back": _Rect([ox, oy + sy, oz], ex, ez),
        "left": _Rect([ox, oy, oz], ey, ez),
        "right": _Rect([ox + sx, oy, oz], ey, ez),
    }
    return [f for name, f in faces.items() if name not in skip]


def _uniform(rng, lo, hi):
    return float(lo + rng.random() * (hi - lo))


def _build_patches(category: str, seed: int):
    """Seeded parametric construction: list of (label, patch).

    Dimension ranges are documented inline; everything is workspace
    scale (~0.1-0.5 m), objects rest on z=0 centered at the origin.
    """
    rng = rng_from(seed, category, "dims")
    patches = []

    def add(label, *ps):
        patches.extend((label, p) for p in ps)

    if category == "box_with_lid":
        w = _uniform(rng, 0.16, 0.30)   # width (x)
        d = _uniform(rng, 0.14, 0.26)   # depth (y)
        h = _uniform(rng, 0.08, 0.18)   # body height
        hl = _uniform(rng, 0.02, 0.04)    # lid rim height
        ov = _uniform(rng, 0.02, 0.035)   # lid overhang past the body
        org = np.array([-w / 2, -d / 2, 0.0])
        # body: open box (no top)
        add(0, *_box_patches(org, (w, d, h), skip=("top",)))
        # lid: overhanging slab sitting on the body (overhang keeps its
        # edges radially distinct from the body walls)
        lorg = np.array([-w / 2 - ov, -d / 2 - ov, h])
        add(1, *_box_patches(lorg, (w + 2 * ov, d + 2 * ov, hl)))
    elif category == "pot_with_handle":
        r = _uniform(rng, 0.07, 0.13)
        h = _uniform(rng, 0.09, 0.16)
        hw = _uniform(rng, 0.04, 0.06)   # handle bar length
        hh = _uniform(rng, 0.018, 0.028)  # handle bar thickness
        knob_r = _uniform(rng, 0.012, 0.022)
        knob_h = _uniform(rng, 0.015, 0.03)
        add(0, _CylSide([0, 0, 0], r, h), _Disk([0, 0, 0], r))
        # two stub handles on opposite sides, boxes poking outward in +-x
        for sx in (1.0, -1.0):
            org = np.array([sx * r - (0 if sx > 0 else hw), -hh / 2, h - 2 * hh])
            add(1, *_box_patches(org, (hw, hh, hh), skip=("left" if sx > 0 else "right",)))
        # lid: top disk plus center knob
        add(2, _Disk([0, 0, h], r, inner_radius=0.0),
            _CylSide([0, 0, h], knob_r, knob_h), _Disk([0, 0, h + knob_h], knob_r))
    elif category == "drawer_cabinet":
        w = _uniform(rng, 0.20, 0.34)
        d = _uniform(rng, 0.18, 0.30)
        h = _uniform(rng, 0.14, 0.24)
        t = _uniform(rng, 0.05, 0.09)    # drawer pull-out depth
        bar = _uniform(rng, 0.10, 0.16)  # handle bar width
        bt = _uniform(rng, 0.025, 0.035)  # handle bar thickness
        bp = _uniform(rng, 0.035, 0.05)  # handle protrusion from the front
        org = np.array([-w / 2, -d / 2, 0.0])
        # frame: closed box missing the front face (-y)
        add(0, *_box_patches(org, (w, d, h), skip=("front",)))
        # drawer: half-height tray pulled out of the front
        dh = h / 2
        dorg = np.array([-w / 2 + 0.01, -d / 2 - t, 0.02])
        add(1, *_box_patches(dorg, (w - 0.02, t, dh), skip=("back",)))
        # handle: chunky horizontal bar protruding from the drawer front
        horg = np.array([-bar / 2, -d / 2 - t - bp, 0.02 + dh / 2 - bt / 2])
        add(2, *_box_patches(horg, (bar, bp, bt), skip=("back",)))
    elif category == "bottle_with_cap":
        r = _uniform(rng, 0.035, 0.06)
        h = _uniform(rng, 0.16, 0.28)
        cr = _uniform(rng, 0.016, 0.026)
        ch = _uniform(rng, 0.025, 0.045)
        add(0, _CylSide([0, 0, 0], r, h), _Disk([0, 0, 0], r),
            _Disk([0, 0, h], r, inner_radius=cr))
        add(1, _CylSide([0, 0, h], cr, ch), _Disk([0, 0, h + ch], cr))
    elif category == "microwave_with_door":
        w = _uniform(rng, 0.30, 0.45)
        d = _uniform(rng, 0.22, 0.34)
        h = _uniform(rng, 0.18, 0.28)
        bar = _uniform(rng, 0.015, 0.025)
        org = np.array([-w / 2, -d / 2, 0.0])
        # body: box missing the front face
        add(0, *_box_patches(org, (w, d, h), skip=("front",)))
        # door: flat front panel covering ~3/4 of the width
        dw = 0.75 * w
        add(1, _Rect([-w / 2, -d / 2, 0.0], [dw, 0, 0], [0, 0, h]))
        # handle: vertical bar at the door's free edge
        horg = np.array([-w / 2 + dw - bar, -d / 2 - bar, h * 0.1])
        add(2, *_box_patches(horg, (bar, bar, h * 0.8), skip=("back",)))
    else:
        raise InvalidArgumentError(f"unknown category: {category!r}")
    return patches


def part_surface_areas(category: str, seed: int) -> dict:
    """Analytic per-part surface area for the seeded instance."""
    names = PART_VOCAB[category]
    areas = {name: 0.0 for name in names}
    for label, patch in _build_patches(category, seed):
        areas[names[label]] += patch.area
    return areas


def generate_object(category: str, seed: int, n_points: int) -> PartLabeledCloud:
    """Sample a part-labeled cloud uniformly by area from a seeded shape.

    Point counts per patch follow exact area weights with
    largest-remainder rounding; within a patch, points are uniform.
    Deterministic in (category, seed, n_points).
    """
    if category not in CATEGORIES:
        raise InvalidArgumentError(f"unknown category: {category!r}")
    if n_points < 8:
        raise InvalidArgumentError("n_points must be >= 8")
    patches = _build_patches(category, seed)
    areas = np.array([p.area for _, p in patches])
    quotas = n_points * areas / areas.sum()
    counts = np.floor(quotas).astype(int)
    remainder = n_points - counts.sum()
    if remainder > 0:
        order = np.argsort(-(quotas - counts), kind="stable")
        counts[order[:remainder]] += 1
    points, labels = [], []
    for i, ((label, patch), count) in enumerate(zip(patches, counts)):
        if count == 0:
            continue
        rng = rng_from(seed, category, "points", i)
        points.append(patch.sample(rng, count))
        labels.append(np.full(count, label, dtype=np.int32))
    return PartLabeledCloud(
        np.concatenate(points), np.concatenate(labels),
        list(PART_VOCAB[category]), category, seed)


# ---------------------------------------------------------------------------
# farthest-point sampling

def farthest_point_sample(cloud, m: int, start: int = 0) -> np.ndarray:
    """Greedy max-min selection of m point indices, first pick = start.

    Ties break toward the lowest index (np.argmax convention), which
    pins down bitwise reproducibility.  Each pick updates the running
    min-distance in place from contiguous coordinate columns; the
    distance is the Euclidean norm summed coordinate by coordinate, the
    order np.linalg.norm uses below 8 columns, so the picks match the
    norm-based loop bit for bit.  The argmax stays on true distances:
    two squared distances can round to one square root.
    """
    points = cloud.points if isinstance(cloud, PartLabeledCloud) else np.asarray(cloud)
    n = len(points)
    if not 1 <= m <= n:
        raise InvalidArgumentError(f"m must be in [1, {n}], got {m}")
    if not 0 <= start < n:
        raise InvalidArgumentError(f"start must be in [0, {n}), got {start}")
    cols = np.ascontiguousarray(points.T, dtype=np.float64)
    diff, d = np.empty(n), np.empty(n)

    def distances_to(i, out):
        np.subtract(cols[0], cols[0, i], out=out)
        np.multiply(out, out, out=out)
        for col in cols[1:]:
            np.subtract(col, col[i], out=diff)
            np.multiply(diff, diff, out=diff)
            np.add(out, diff, out=out)
        return np.sqrt(out, out=out)

    selected = np.empty(m, dtype=np.int64)
    selected[0] = start
    dist = distances_to(start, np.empty(n))
    for i in range(1, m):
        nxt = int(np.argmax(dist))
        selected[i] = nxt
        np.minimum(dist, distances_to(nxt, d), out=dist)
    return selected


def apply_pose(cloud: PartLabeledCloud, pose: RigidPose) -> PartLabeledCloud:
    """points' = R @ points + t; labels unchanged."""
    return PartLabeledCloud(
        cloud.points @ pose.rotation.T + pose.translation,
        cloud.labels.copy(), list(cloud.part_names), cloud.category, cloud.seed)


# ---------------------------------------------------------------------------
# PLY persistence (binary little-endian, x y z float32 + r g b + label uchar)

_PLY_VERTEX = np.dtype([
    ("x", "<f4"), ("y", "<f4"), ("z", "<f4"),
    ("red", "u1"), ("green", "u1"), ("blue", "u1"), ("label", "u1"),
])

_PALETTE = np.array([
    [228, 26, 28], [55, 126, 184], [77, 175, 74], [152, 78, 163],
    [255, 127, 0], [255, 255, 51], [166, 86, 40], [247, 129, 191],
], dtype=np.uint8)


def save_cloud_ply(path, cloud: PartLabeledCloud, colors=None) -> None:
    """Write the cloud as binary little-endian PLY.

    colors: optional (N, 3) floats in [0, 1] or uint8; defaults to a
    per-label palette.  Category/seed/part names ride along as comments.
    """
    n = cloud.n_points
    if colors is None:
        rgb = _PALETTE[cloud.labels % len(_PALETTE)]
    else:
        colors = np.asarray(colors)
        if colors.dtype != np.uint8:
            rgb = np.clip(np.round(colors * 255.0), 0, 255).astype(np.uint8)
        else:
            rgb = colors
    header = (
        "ply\n"
        "format binary_little_endian 1.0\n"
        f"comment category {cloud.category}\n"
        f"comment seed {cloud.seed}\n"
        f"comment part_names {','.join(cloud.part_names)}\n"
        f"element vertex {n}\n"
        "property float x\nproperty float y\nproperty float z\n"
        "property uchar red\nproperty uchar green\nproperty uchar blue\n"
        "property uchar label\n"
        "end_header\n"
    )
    rec = np.empty(n, dtype=_PLY_VERTEX)
    rec["x"], rec["y"], rec["z"] = cloud.points.astype(np.float32).T
    rec["red"], rec["green"], rec["blue"] = rgb.T
    rec["label"] = cloud.labels.astype(np.uint8)
    with open(path, "wb") as f:
        f.write(header.encode("ascii"))
        f.write(rec.tobytes())


def load_cloud_ply(path) -> PartLabeledCloud:
    """Read a PLY written by save_cloud_ply.

    Raises FormatError naming the byte offset of the first problem.
    """
    with open(path, "rb") as f:
        blob = f.read()
    if not blob.startswith(b"ply\n"):
        raise FormatError("not a PLY file: bad magic at byte 0")
    end = blob.find(b"end_header\n")
    if end < 0:
        raise FormatError(f"missing end_header within {len(blob)} bytes")
    body_off = end + len(b"end_header\n")
    header = blob[:end].decode("ascii", errors="replace")
    n = None
    category, seed, part_names = "unknown", 0, None
    for line in header.splitlines():
        if line.startswith("element vertex "):
            n = int(line.split()[-1])
        elif line.startswith("comment category "):
            category = line.split(" ", 2)[2]
        elif line.startswith("comment seed "):
            seed = int(line.split(" ", 2)[2])
        elif line.startswith("comment part_names "):
            part_names = line.split(" ", 2)[2].split(",")
    if n is None:
        raise FormatError(f"header lacks 'element vertex' before byte {body_off}")
    expected = n * _PLY_VERTEX.itemsize
    if len(blob) - body_off != expected:
        raise FormatError(
            f"vertex payload is {len(blob) - body_off} bytes at byte {body_off}, "
            f"expected {expected}")
    rec = np.frombuffer(blob, dtype=_PLY_VERTEX, count=n, offset=body_off)
    labels = rec["label"].astype(np.int32)
    if part_names is None:
        part_names = [f"part_{i}" for i in range(int(labels.max()) + 1)]
    points = np.stack([rec["x"], rec["y"], rec["z"]], axis=1).astype(np.float64)
    return PartLabeledCloud(points, labels, part_names, category, seed)


# ---------------------------------------------------------------------------
# JSON-lines dataset persistence (lossless float64 via repr round-trip)

def cloud_to_record(cloud: PartLabeledCloud) -> dict:
    return {
        "category": cloud.category,
        "seed": cloud.seed,
        "part_names": list(cloud.part_names),
        "points": cloud.points.tolist(),
        "labels": cloud.labels.tolist(),
    }


def cloud_from_record(rec: dict) -> PartLabeledCloud:
    return PartLabeledCloud(
        np.array(rec["points"], dtype=np.float64),
        np.array(rec["labels"], dtype=np.int32),
        list(rec["part_names"]), rec["category"], int(rec["seed"]))


def save_dataset(path, clouds) -> None:
    with open(path, "w") as f:
        for cloud in clouds:
            f.write(json.dumps(cloud_to_record(cloud)) + "\n")


def load_dataset(path) -> list:
    clouds = []
    with open(path) as f:
        lines = f.read().splitlines()
    if not any(line.strip() for line in lines):
        raise FormatError(f"empty dataset file: {path}")
    for i, line in enumerate(lines):
        if not line.strip():
            continue
        try:
            rec = json.loads(line)
            clouds.append(cloud_from_record(rec))
        except (ValueError, KeyError, TypeError, OverflowError) as exc:
            raise FormatError(f"bad dataset record at line {i + 1}: {exc}") from exc
    return clouds
