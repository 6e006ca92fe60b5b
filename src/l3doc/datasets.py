"""Point-cloud ingestion, preprocessing, task splits, and synthetic shapes.

File formats:
  OFF   standard Object File Format; both "OFF\\n<v f e>" and the fused
        "OFF<v f e>" header variant are accepted, polygons beyond
        triangles are fan-triangulated.
  PTS   text point clouds: line 1 is "n d", then n lines of d
        space-separated decimal floats (UTF-8, LF).

Dataset directory layout: <root>/<class_name>/{train,test}/*.{off,pts}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import ConfigError, DataError

PRIMITIVES = ("sphere", "cube", "cylinder", "cone", "torus", "plane", "helix", "cross")

# Defaults of the optional keys of a run config's two dataset sources; the
# CLI's config resolver and `l3doc gen-synth` both read them.
SYNTHETIC_DEFAULTS = {"class_pool": PRIMITIVES, "per_class": 20, "points": 128,
                      "noise_sigma": 0.01}
DIRECTORY_DEFAULTS = {"points": 1024, "normalize": True}
POINT_FILE_SUFFIXES = (".off", ".pts")


@dataclass
class Mesh:
    vertices: np.ndarray
    faces: np.ndarray


@dataclass
class PointCloud:
    points: np.ndarray
    source: str | None = None

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=np.float64)
        if self.points.ndim != 2 or self.points.shape[0] < 1:
            raise DataError(f"point cloud must be (n_pts, d) with n_pts >= 1, got {self.points.shape}")


@dataclass
class TaskDataset:
    task_id: int
    class_names: tuple[str, ...]
    train: list[tuple[PointCloud, int]]
    test: list[tuple[PointCloud, int]]

    def __post_init__(self):
        c = len(self.class_names)
        if not self.train or not self.test:
            raise DataError(f"task {self.task_id}: both splits must be non-empty")
        for _, label in [*self.train, *self.test]:
            if not 0 <= label < c:
                raise DataError(f"task {self.task_id}: label {label} outside [0, {c})")
        shapes = {cloud.points.shape for cloud, _ in [*self.train, *self.test]}
        if len(shapes) != 1:
            raise DataError(f"task {self.task_id}: point clouds disagree on shape: {sorted(shapes)}")

    @property
    def n_classes(self) -> int:
        return len(self.class_names)


@dataclass(frozen=True)
class SplitPlan:
    seed: int
    tasks: tuple[tuple[str, ...], ...]


# ---------------------------------------------------------------- OFF files

def _utf8_text(data: bytes) -> str:
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as e:
        lineno = data.count(b"\n", 0, e.start) + 1
        raise DataError(f"line {lineno}: not UTF-8 text") from None


def parse_off(text: str | bytes) -> Mesh:
    """Parse an OFF mesh; malformed input raises DataError with a line number."""
    if isinstance(text, bytes):
        text = _utf8_text(text)
    rows = [(i + 1, line.split("#", 1)[0].split()) for i, line in enumerate(text.splitlines())]
    rows = [(n, toks) for n, toks in rows if toks]
    if not rows:
        raise DataError("line 1: empty OFF document")

    def ints(lineno, toks, k):
        try:
            return [int(t) for t in toks[:k]]
        except ValueError:
            raise DataError(f"line {lineno}: expected integers, got {toks!r}") from None

    lineno, head = rows[0]
    if not head[0].startswith("OFF"):
        raise DataError(f"line {lineno}: expected OFF header, got {head[0]!r}")
    fused = head[0][3:]
    counts_toks = ([fused] if fused else []) + head[1:]
    body = rows[1:]
    if len(counts_toks) < 3:
        if not body:
            raise DataError(f"line {lineno}: missing vertex/face counts")
        lineno, counts_toks = body[0]
        body = body[1:]
    if len(counts_toks) < 3:
        raise DataError(f"line {lineno}: expected vertex, face and edge counts, got {counts_toks!r}")
    n_v, n_f, _ = ints(lineno, counts_toks, 3)
    if n_v < 0 or n_f < 0 or len(body) < n_v + n_f:
        raise DataError(f"line {lineno}: counts {n_v} {n_f} exceed file contents")

    vertices = np.zeros((n_v, 3))
    for i in range(n_v):
        ln, toks = body[i]
        try:
            x, y, z = (float(t) for t in toks[:3])
        except ValueError:
            raise DataError(f"line {ln}: expected 3 vertex coordinates, got {toks!r}") from None
        vertices[i] = x, y, z
    bad = ~np.isfinite(vertices).all(axis=1)
    if bad.any():
        ln, toks = body[int(bad.argmax())]
        raise DataError(f"line {ln}: non-finite vertex coordinate in {toks!r}")

    faces = []
    for i in range(n_f):
        ln, toks = body[n_v + i]
        vals = ints(ln, toks, len(toks))
        k = vals[0]
        if k < 3 or len(vals) < 1 + k:
            raise DataError(f"line {ln}: face needs >= 3 vertex indices, got {toks!r}")
        idx = vals[1:1 + k]
        for j in idx:
            if not 0 <= j < n_v:
                raise DataError(f"line {ln}: face index {j} out of range [0, {n_v})")
        for a, b in zip(idx[1:], idx[2:]):  # fan triangulation
            faces.append((idx[0], a, b))
    return Mesh(vertices=vertices, faces=np.asarray(faces, dtype=np.int64).reshape(-1, 3))


def serialize_off(mesh: Mesh) -> str:
    lines = ["OFF", f"{len(mesh.vertices)} {len(mesh.faces)} 0"]
    lines += [" ".join(repr(float(x)) for x in v) for v in mesh.vertices]
    lines += ["3 " + " ".join(str(int(i)) for i in f) for f in mesh.faces]
    return "\n".join(lines) + "\n"


def sample_mesh(mesh: Mesh, n_pts: int, seed) -> np.ndarray:
    """Sample points on the surface: triangles by area, uniform within each."""
    if len(mesh.faces) == 0:
        raise DataError("mesh has no faces to sample")
    a = mesh.vertices[mesh.faces[:, 0]]
    b = mesh.vertices[mesh.faces[:, 1]]
    c = mesh.vertices[mesh.faces[:, 2]]
    areas = 0.5 * np.linalg.norm(np.cross(b - a, c - a), axis=1)
    total = areas.sum()
    if not 0.0 < total < np.inf:  # zero, or overflowed to inf or nan
        raise DataError(f"mesh surface area is {total}, cannot sample")
    rng = np.random.default_rng(seed)
    pick = rng.choice(len(mesh.faces), size=n_pts, p=areas / total)
    r1 = np.sqrt(rng.uniform(size=(n_pts, 1)))
    r2 = rng.uniform(size=(n_pts, 1))
    return (1 - r1) * a[pick] + r1 * (1 - r2) * b[pick] + r1 * r2 * c[pick]


# ----------------------------------------------------------- preprocessing

def farthest_point_sampling(pts: np.ndarray, k: int, start_index: int = 0) -> np.ndarray:
    """Greedy max-min subset of k point indices, ties to the lowest index.

    The (n, d) cloud is copied once as d contiguous length-n rows, one per
    coordinate, and each pick updates the nearest-selected distances with a
    few in-place passes over those rows: O(k·n·d) time, O(n·d) memory.  The
    squared distance adds its terms in coordinate order, as ``np.sum`` over
    a length-d axis does for d < 8, so for those the distances, and hence
    the indices, are bit for bit those of ``np.sum((pts - p) ** 2, axis=1)``.
    """
    pts = np.asarray(pts, dtype=np.float64)
    n = pts.shape[0]
    if not 1 <= k <= n:
        raise DataError(f"cannot select {k} points from {n}")
    if not 0 <= start_index < n:
        raise DataError(f"start index {start_index} out of range [0, {n})")
    cols = np.ascontiguousarray(pts.T)
    dist = np.full(n, np.inf)
    sq, term = np.empty(n), np.empty(n)
    chosen = np.empty(k, dtype=np.int64)
    chosen[0] = start_index
    for i in range(1, k):
        p = chosen[i - 1]
        np.subtract(cols[0], cols[0, p], out=sq)
        np.multiply(sq, sq, out=sq)
        for col in cols[1:]:
            np.subtract(col, col[p], out=term)
            np.multiply(term, term, out=term)
            np.add(sq, term, out=sq)
        np.minimum(dist, sq, out=dist)
        dist[p] = -1.0  # never re-pick a selected point
        chosen[i] = dist.argmax()
    return chosen


def normalize_unit_sphere(pts: np.ndarray) -> np.ndarray:
    """Center on the centroid and scale the farthest point to radius 1."""
    centered = pts - pts.mean(axis=0)
    radius = np.linalg.norm(centered, axis=1).max()
    if radius <= 1e-12:
        raise DataError("degenerate cloud: zero radius after centering")
    if not np.isfinite(radius):
        raise DataError("cloud radius overflows float64 after centering")
    return centered / radius


def make_split_plan(class_names: Sequence[str], num_tasks: int,
                    classes_per_task: int, seed) -> SplitPlan:
    """Each task draws classes without replacement; tasks reuse the pool
    freely (ten 5-class tasks from a 10-class pool force reuse)."""
    names = tuple(class_names)
    if num_tasks < 1 or classes_per_task < 1:
        raise ConfigError(f"num_tasks and classes_per_task must be >= 1, got {num_tasks}, {classes_per_task}")
    if len(set(names)) != len(names):
        raise ConfigError(f"class pool repeats a name: {list(names)}")
    if classes_per_task > len(names):
        raise ConfigError(f"cannot draw {classes_per_task} distinct classes from {len(names)}")
    rng = np.random.default_rng(seed)
    tasks = tuple(tuple(rng.choice(names, size=classes_per_task, replace=False).tolist())
                  for _ in range(num_tasks))
    return SplitPlan(seed=seed, tasks=tasks)


# ------------------------------------------------------- synthetic shapes

def _unit_rows(rng, n):
    v = rng.normal(size=(n, 3))
    norms = np.linalg.norm(v, axis=1, keepdims=True)
    while np.any(norms < 1e-12):
        bad = norms[:, 0] < 1e-12
        v[bad] = rng.normal(size=(int(bad.sum()), 3))
        norms = np.linalg.norm(v, axis=1, keepdims=True)
    return v / norms


def _sphere(rng, n):
    return _unit_rows(rng, n)


def _box_surface(rng, n, hx, hy, hz):
    areas = np.array([hy * hz, hy * hz, hx * hz, hx * hz, hx * hy, hx * hy])
    face = rng.choice(6, size=n, p=areas / areas.sum())
    u = rng.uniform(-1.0, 1.0, size=n)
    v = rng.uniform(-1.0, 1.0, size=n)
    pts = np.empty((n, 3))
    axis = face // 2
    sign = np.where(face % 2 == 0, 1.0, -1.0)
    half = np.array([hx, hy, hz])
    for a in range(3):
        m = axis == a
        o1, o2 = [d for d in range(3) if d != a]
        pts[m, a] = sign[m] * half[a]
        pts[m, o1] = u[m] * half[o1]
        pts[m, o2] = v[m] * half[o2]
    return pts


def _cube(rng, n):
    return _box_surface(rng, n, 1.0, 1.0, 1.0)


def _cylinder(rng, n):
    lateral, cap = 4 * np.pi, np.pi
    part = rng.choice(3, size=n, p=np.array([lateral, cap, cap]) / (lateral + 2 * cap))
    theta = rng.uniform(0, 2 * np.pi, size=n)
    z = rng.uniform(-1.0, 1.0, size=n)
    r = np.sqrt(rng.uniform(size=n))
    pts = np.empty((n, 3))
    side = part == 0
    pts[side] = np.column_stack([np.cos(theta[side]), np.sin(theta[side]), z[side]])
    for which, zcap in ((1, 1.0), (2, -1.0)):
        m = part == which
        pts[m] = np.column_stack([r[m] * np.cos(theta[m]), r[m] * np.sin(theta[m]),
                                  np.full(int(m.sum()), zcap)])
    return pts


def _cone(rng, n):
    # apex (0,0,1), unit base circle at z = -1
    lateral, base = np.pi * np.sqrt(5.0), np.pi
    on_side = rng.uniform(size=n) < lateral / (lateral + base)
    theta = rng.uniform(0, 2 * np.pi, size=n)
    frac = np.sqrt(rng.uniform(size=n))  # area-uniform distance fraction from apex
    r_disk = np.sqrt(rng.uniform(size=n))
    pts = np.empty((n, 3))
    pts[on_side] = np.column_stack([frac[on_side] * np.cos(theta[on_side]),
                                    frac[on_side] * np.sin(theta[on_side]),
                                    1.0 - 2.0 * frac[on_side]])
    m = ~on_side
    pts[m] = np.column_stack([r_disk[m] * np.cos(theta[m]), r_disk[m] * np.sin(theta[m]),
                              np.full(int(m.sum()), -1.0)])
    return pts


def _torus(rng, n, big_r=1.0, small_r=0.4):
    phi = np.empty(n)
    filled = 0
    while filled < n:
        cand = rng.uniform(0, 2 * np.pi, size=2 * (n - filled))
        keep = cand[rng.uniform(size=cand.size) < (big_r + small_r * np.cos(cand)) / (big_r + small_r)]
        take = keep[:n - filled]
        phi[filled:filled + take.size] = take
        filled += take.size
    theta = rng.uniform(0, 2 * np.pi, size=n)
    ring = big_r + small_r * np.cos(phi)
    return np.column_stack([ring * np.cos(theta), ring * np.sin(theta), small_r * np.sin(phi)])


def _plane(rng, n):
    xy = rng.uniform(-1.0, 1.0, size=(n, 2))
    return np.column_stack([xy, np.zeros(n)])


def _helix(rng, n):
    t = rng.uniform(0, 4 * np.pi, size=n)
    return np.column_stack([0.5 * np.cos(t), 0.5 * np.sin(t), t / (2 * np.pi) - 1.0])


def _cross(rng, n):
    arm = rng.choice(3, size=n)
    pts = np.empty((n, 3))
    for a in range(3):
        m = arm == a
        half = [0.1, 0.1, 0.1]
        half[a] = 1.0
        pts[m] = _box_surface(rng, int(m.sum()), *half)
    return pts


_SAMPLERS = {
    "sphere": _sphere, "cube": _cube, "cylinder": _cylinder, "cone": _cone,
    "torus": _torus, "plane": _plane, "helix": _helix, "cross": _cross,
}


def random_rotation(rng) -> np.ndarray:
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    d = np.sign(np.diag(r))
    d[d == 0] = 1.0
    q = q * d
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def _check_task(classes: Sequence[str], n_pts: int) -> None:
    """The config values every task builder takes: class names and point count."""
    if not classes or len(set(classes)) != len(classes):
        raise ConfigError(f"a task needs a non-empty list of distinct class names, got {list(classes)}")
    if n_pts < 1:
        raise ConfigError(f"points must be >= 1, got {n_pts}")


def _test_count(per_class: int) -> int:
    return max(1, round(0.2 * per_class))


def gen_synthetic(classes: Sequence[str], per_class: int, n_pts: int,
                  noise_sigma: float, seed, task_id: int = 1) -> TaskDataset:
    """Surface-sampled primitives with random rotation and Gaussian jitter,
    split 80/20 into train/test per class."""
    _check_task(classes, n_pts)
    for name in classes:
        if name not in _SAMPLERS:
            raise ConfigError(f"unknown synthetic class {name!r}; choose from {PRIMITIVES}")
    if per_class < 2:
        raise ConfigError("per_class must be >= 2 to populate both splits")
    if not (math.isfinite(noise_sigma) and noise_sigma >= 0):
        raise ConfigError(f"noise_sigma must be finite and >= 0, got {noise_sigma}")
    rng = np.random.default_rng(seed)
    train, test = [], []
    n_test = _test_count(per_class)
    for label, name in enumerate(classes):
        for i in range(per_class):
            pts = _SAMPLERS[name](rng, n_pts) @ random_rotation(rng).T
            if noise_sigma > 0:
                pts = pts + rng.normal(0.0, noise_sigma, size=pts.shape)
            cloud = PointCloud(pts, source=f"{name}/{i}")
            (train if i < per_class - n_test else test).append((cloud, label))
    return TaskDataset(task_id=task_id, class_names=tuple(classes), train=train, test=test)


# ----------------------------------------------------------------- file IO

def write_pts(path: Path, points: np.ndarray) -> None:
    points = np.asarray(points, dtype=np.float64)
    lines = [f"{points.shape[0]} {points.shape[1]}"]
    lines += [" ".join(repr(float(x)) for x in row) for row in points]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_pts(data: bytes) -> np.ndarray:
    """Parse a PTS document; malformed input raises DataError."""
    lines = _utf8_text(data).splitlines()
    if not lines:
        raise DataError("empty PTS file")
    try:
        n, d = (int(t) for t in lines[0].split())
    except ValueError:
        raise DataError(f"line 1: expected 'n d' header, got {lines[0]!r}") from None
    if d < 1:
        raise DataError(f"line 1: point dimension must be >= 1, got {d}")
    if len(lines) < 1 + n:
        raise DataError(f"header promises {n} points, file has {len(lines) - 1}")
    try:
        pts = np.array([[float(t) for t in lines[1 + i].split()] for i in range(n)])
    except ValueError as e:
        raise DataError(f"bad float in point block: {e}") from None
    if pts.shape != (n, d):
        raise DataError(f"point block shape {pts.shape} != header ({n}, {d})")
    bad = ~np.isfinite(pts).all(axis=1)
    if bad.any():
        raise DataError(f"line {2 + int(bad.argmax())}: non-finite coordinate")
    return pts


def write_dataset_dir(root: Path, dataset: TaskDataset) -> list[Path]:
    """Write a TaskDataset as <root>/<class>/{train,test}/*.pts."""
    root = Path(root)
    written = []
    counters: dict[tuple[str, str], int] = {}
    for split_name, pairs in (("train", dataset.train), ("test", dataset.test)):
        for cloud, label in pairs:
            cls = dataset.class_names[label]
            i = counters.get((cls, split_name), 0)
            counters[(cls, split_name)] = i + 1
            path = root / cls / split_name / f"{cls}_{i:04d}.pts"
            path.parent.mkdir(parents=True, exist_ok=True)
            write_pts(path, cloud.points)
            written.append(path)
    return written


def _load_cloud(path: Path, n_pts: int, seed, normalize: bool) -> PointCloud:
    """A point file as a task's cloud; every failure is a DataError naming the file."""
    try:
        # An overflow is rejected as a DataError; numpy need not warn about it first.
        with np.errstate(over="ignore", invalid="ignore"):
            data = path.read_bytes()
            if path.suffix == ".off":
                # Area-weighted random samples clump; FPS thins 4x as many to
                # n_pts that cover the surface evenly.
                pts = sample_mesh(parse_off(data), 4 * n_pts, seed)
            else:
                pts = read_pts(data)
            if pts.shape[0] < n_pts:
                raise DataError(f"{pts.shape[0]} points < requested {n_pts}")
            if pts.shape[0] > n_pts:
                pts = pts[farthest_point_sampling(pts, n_pts)]
            if normalize:
                pts = normalize_unit_sphere(pts)
    except OSError as e:  # a directory or an unreadable entry named like a point file
        raise DataError(f"{path}: cannot read: {e.strerror or e}") from None
    except DataError as e:
        raise DataError(f"{path}: {e}") from None
    return PointCloud(pts, source=str(path))


def load_task_from_dir(root: Path, class_names: Sequence[str], task_id: int,
                       n_pts: int, seed=0, normalize: bool = True) -> TaskDataset:
    """Build a TaskDataset from the directory layout; files are taken in
    path-sorted order so ingestion is deterministic."""
    _check_task(class_names, n_pts)
    root = Path(root)
    train, test = [], []
    for label, cls in enumerate(class_names):
        cls_dir = root / cls
        if not cls_dir.is_dir():
            raise DataError(f"missing class directory {cls_dir}")
        for split_name, bucket in (("train", train), ("test", test)):
            files = [f for f in sorted((cls_dir / split_name).glob("*"))
                     if f.suffix in POINT_FILE_SUFFIXES]
            if not files:
                raise DataError(f"no point files under {cls_dir / split_name}")
            bucket.extend((_load_cloud(f, n_pts, seed, normalize), label) for f in files)
    return TaskDataset(task_id=task_id, class_names=tuple(class_names), train=train, test=test)
