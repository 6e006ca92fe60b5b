"""Seeded OFF octahedra in the dataset directory layout, for tests that
need a directory dataset on disk."""

import numpy as np

from l3doc import datasets as ds

UNIT = np.array([[1.0, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0], [0, 0, 1], [0, 0, -1]])
FACES = np.array([[0, 2, 4], [2, 1, 4], [1, 3, 4], [3, 0, 4],
                  [2, 0, 5], [1, 2, 5], [3, 1, 5], [0, 3, 5]])


def octahedron(rng, scale=1.0) -> ds.Mesh:
    """An octahedron whose six vertices are the unit ones scaled by
    U(0.5, 2) and jittered by N(0, 0.1), then multiplied by ``scale`` (a
    number, or one factor per axis)."""
    verts = UNIT * rng.uniform(0.5, 2.0, size=(6, 1)) + rng.normal(0, 0.1, size=(6, 3))
    return ds.Mesh(vertices=verts * scale, faces=FACES)


def octahedron_off(seed, scale=1.0) -> bytes:
    """One octahedron as the bytes of an OFF file."""
    return ds.serialize_off(octahedron(np.random.default_rng(seed), scale)).encode()


def write_octahedra(root, classes, train=3, test=2, seed=17):
    """Write <root>/<class>/{train,test}/<i>.off: ``train`` and ``test``
    octahedra per class, all drawn from one generator in class, split and
    file order.  Returns ``root``."""
    rng = np.random.default_rng(seed)
    for cls in classes:
        for split, count in (("train", train), ("test", test)):
            (root / cls / split).mkdir(parents=True, exist_ok=True)
            for i in range(count):
                (root / cls / split / f"{i}.off").write_text(ds.serialize_off(octahedron(rng)))
    return root
