"""Benchmark workloads and the seeded OFF mesh generator.

Each workload is a raw l3doc config (the JSON a user would pass to
``l3doc run``) plus, for directory datasets, the recipe for the OFF meshes
the benchmark writes before anything is timed.  The reasons each workload
exists are in README.md next to this file; the same reasons, shortened,
are the ``why`` fields of BENCHMARK.json.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Geometry of scripts/desk_config.json (acceptance criterion 7).  It is
# copied rather than read so that an edit to the shipped example config
# cannot silently change what the benchmark measures; test_smoke.py checks
# the two still agree.  Two settings differ, and neither changes the work
# in a step: 10 epochs rather than 60, and a learning rate of 0.003 rather
# than 0.001, so that every seed ends clearly above chance (README.md).
# The task plan is the one the shipped config draws at its seed, 0, fixed
# so that every seed generates the same classes: the seed then changes the
# point clouds but not the work of set-up (generating a cube costs about
# ten times what a plane does).
DESK_CONFIG = {
    "schema_version": 1,
    "mode": "l3doc",
    "epochs": 10,
    "batch_size": 24,
    "lr": 0.003,
    "spec": {"n_hat": 8, "l_hat": 8, "s": 2},
    "backbone": {"widths": [3, 32, 32, 64], "head_widths": [32], "loss_kind": "squared"},
    "mam": {"lambda_l": 10.0, "detach_attention": True},
    "dataset": {
        "type": "synthetic",
        "tasks": [["plane", "cylinder", "sphere"], ["cube", "cone", "sphere"],
                  ["cylinder", "torus", "plane"], ["cube", "plane", "sphere"],
                  ["cube", "cone", "sphere"]],
        "per_class": 50,
        "points": 128,
        "noise_sigma": 0.02,
    },
}


def _many_tasks_config() -> dict:
    raw = copy.deepcopy(DESK_CONFIG)
    del raw["dataset"]["tasks"]
    # With no class_pool, build_tasks draws each task from all 8 primitives.
    raw["dataset"].update(num_tasks=10, classes_per_task=3)
    raw["epochs"] = 3
    return raw


POINTNET_CONFIG = {
    "schema_version": 1,
    "mode": "l3doc",
    "epochs": 2,
    "batch_size": 16,
    "lr": 0.001,
    "spec": {"n_hat": 16, "l_hat": 32, "s": 2},
    "backbone": {"widths": [3, 64, 64, 128, 128, 1024], "head_widths": [256],
                 "loss_kind": "squared"},
    "mam": {"lambda_l": 1.0, "detach_attention": True},
    # "root" is filled in with the directory the generator writes.
    "dataset": {"type": "directory", "tasks": [["ellipsoid", "box"], ["box", "torus"]],
                "points": 1024, "normalize": True},
}


@dataclass(frozen=True)
class MeshSet:
    """Recipe for a directory of generated OFF meshes, per class and split."""

    classes: tuple[str, ...]
    train_per_class: int
    test_per_class: int


@dataclass(frozen=True)
class Workload:
    name: str
    config: dict
    setup_rounds: int
    meshes: MeshSet | None = None
    # A run whose final APA is lower has failed: a model that no longer
    # learns (zeroed or sign-flipped gradients, a broken optimizer) ends
    # at chance.  0 where the workload stops training before it learns.
    min_final_apa: float = 0.0


# A round of synthetic set-ups takes about 2 s (run.SETUP_ROUND_S); an OFF
# set-up takes about 10 s, so a pointnet_off round is one set-up, and two
# rounds keep its run near one minute.
WORKLOADS = {
    # Chance is 1/3; over seeds 0-29 the final APA was 0.55 to 0.87.
    "desk": Workload("desk", DESK_CONFIG, setup_rounds=3, min_final_apa=0.40),
    "pointnet_off": Workload(
        "pointnet_off", POINTNET_CONFIG,
        meshes=MeshSet(classes=("ellipsoid", "box", "torus"), train_per_class=8, test_per_class=4),
        setup_rounds=2),
    "many_tasks": Workload("many_tasks", _many_tasks_config(), setup_rounds=3),
}


def raw_config(workload: Workload, data_dir: Path | None) -> dict:
    """The workload's config, pointed at its generated data if it has any."""
    raw = copy.deepcopy(workload.config)
    if workload.meshes is not None:
        raw["dataset"]["root"] = str(data_dir)
    return raw


# ------------------------------------------------------------ OFF meshes

# Tessellation of every generated mesh: about 1900 vertices and 3800 faces,
# well over the 1024 points a cloud keeps.
RINGS = 40
SEGMENTS = 48


def _signed_pow(x: np.ndarray, e: float) -> np.ndarray:
    return np.sign(x) * np.abs(x) ** e


def _sphere_grid(rings: int, segments: int):
    """Unit-sphere angles and faces of a closed UV grid: rings-1 latitude
    rows of ``segments`` vertices, plus one vertex at each pole."""
    theta = np.linspace(0.0, np.pi, rings + 1)[1:-1]
    phi = np.linspace(0.0, 2 * np.pi, segments, endpoint=False)
    th, ph = np.meshgrid(theta, phi, indexing="ij")
    north, south = (rings - 1) * segments, (rings - 1) * segments + 1
    faces = []
    for r in range(rings - 2):
        for s in range(segments):
            a, b = r * segments + s, r * segments + (s + 1) % segments
            c, d = a + segments, b + segments
            faces += [(a, c, b), (b, c, d)]
    last = (rings - 2) * segments
    for s in range(segments):
        faces.append((north, s, (s + 1) % segments))
        faces.append((south, last + (s + 1) % segments, last + s))
    return th.ravel(), ph.ravel(), np.asarray(faces, dtype=np.int64)


def _superquadric(rng, rings, segments, e1, e2):
    """Closed superquadric surface: e=1 is an ellipsoid, small exponents
    give box-like flat faces."""
    th, ph, faces = _sphere_grid(rings, segments)
    axes = rng.uniform(0.7, 1.3, size=3)
    ct, st = np.cos(th), np.sin(th)
    xyz = np.column_stack([_signed_pow(st, e1) * _signed_pow(np.cos(ph), e2),
                           _signed_pow(st, e1) * _signed_pow(np.sin(ph), e2),
                           _signed_pow(ct, e1)])
    poles = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]])
    return np.vstack([xyz, poles]) * axes, faces


def _torus(rng, rings, segments):
    big = rng.uniform(0.8, 1.2)
    small = big * rng.uniform(0.25, 0.45)
    u = np.linspace(0.0, 2 * np.pi, segments, endpoint=False)
    v = np.linspace(0.0, 2 * np.pi, rings, endpoint=False)
    uu, vv = np.meshgrid(u, v, indexing="ij")
    ring = big + small * np.cos(vv)
    verts = np.column_stack([(ring * np.cos(uu)).ravel(), (ring * np.sin(uu)).ravel(),
                             (small * np.sin(vv)).ravel()])
    faces = []
    for i in range(segments):
        for j in range(rings):
            a = i * rings + j
            b = ((i + 1) % segments) * rings + j
            c = i * rings + (j + 1) % rings
            d = ((i + 1) % segments) * rings + (j + 1) % rings
            faces += [(a, b, c), (c, b, d)]
    return verts, np.asarray(faces, dtype=np.int64)


def _family_mesh(name: str, rng, rings: int, segments: int):
    if name == "ellipsoid":
        return _superquadric(rng, rings, segments, rng.uniform(0.9, 1.1), rng.uniform(0.9, 1.1))
    if name == "box":
        return _superquadric(rng, rings, segments, rng.uniform(0.1, 0.25), rng.uniform(0.1, 0.25))
    if name == "torus":
        return _torus(rng, rings, segments)
    raise ValueError(f"unknown mesh family {name!r}")


def generate_meshes(mesh_set: MeshSet, seed: int, root: Path) -> dict:
    """Write ``<root>/<class>/{train,test}/*.off`` and return the counts.

    Every object gets its own shape parameters, a smooth radial bump field,
    a random rotation and offset, all drawn from ``seed``.
    """
    from l3doc import datasets

    rng = np.random.default_rng([seed, 7001])
    stats = {"objects": 0, "vertices": 0, "faces": 0, "min_vertices": None}
    for cls in mesh_set.classes:
        for split, count in (("train", mesh_set.train_per_class), ("test", mesh_set.test_per_class)):
            out = root / cls / split
            out.mkdir(parents=True, exist_ok=True)
            for i in range(count):
                verts, faces = _family_mesh(cls, rng, RINGS, SEGMENTS)
                freq = rng.integers(1, 4, size=3)
                phase = rng.uniform(0, 2 * np.pi, size=3)
                bump = 1.0 + 0.05 * np.prod(np.sin(freq * verts + phase), axis=1)
                verts = (verts * bump[:, None]) @ datasets.random_rotation(rng).T
                verts = verts + rng.normal(0.0, 0.1, size=3)
                mesh = datasets.Mesh(vertices=verts, faces=faces)
                (out / f"{cls}_{i:04d}.off").write_text(datasets.serialize_off(mesh), encoding="utf-8")
                stats["objects"] += 1
                stats["vertices"] += len(verts)
                stats["faces"] += len(faces)
                low = stats["min_vertices"]
                stats["min_vertices"] = len(verts) if low is None else min(low, len(verts))
    return stats
