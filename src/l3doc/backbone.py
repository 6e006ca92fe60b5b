"""Permutation-invariant point-cloud classifier built from reconstructed kernels.

Every point passes independently through a shared MLP whose per-layer
weights are the (1,1,w_in,w_out) kernels handed in by the factorization;
a global max over the point axis pools each object into one feature
vector, and a small per-task head maps it to class scores.  The shared
MLP and the pool are one graph node, ``ad.max_pool_points``, which never
builds a layer's (b, n_pts, w) activation for the whole batch and
backpropagates over the critical points only; ``ad.relu`` is each hidden
layer of the head.

Points are canonically ordered (lexicographic sort) before the MLP:
mathematically a no-op for this architecture, it guarantees the logits
are *bit-identical* under any permutation of an object's points, which
BLAS-backed matmuls do not promise on their own.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import ShapeError, Tensor
from .errors import ConfigError, DataError
from .factorization import POINTNET_WIDTHS


@dataclass(frozen=True)
class BackboneConfig:
    widths: tuple[int, ...] = POINTNET_WIDTHS
    head_widths: tuple[int, ...] = (256,)
    # One value only; the key stays so that configs naming it stay valid.
    loss_kind: str = "squared"

    def __post_init__(self):
        object.__setattr__(self, "widths", tuple(int(w) for w in self.widths))
        object.__setattr__(self, "head_widths", tuple(int(w) for w in self.head_widths))
        if any(w < 1 for w in self.head_widths):
            raise ConfigError(f"head_widths must be >= 1, got {self.head_widths}")
        if self.loss_kind != "squared":
            raise ConfigError(f"loss_kind must be 'squared', got {self.loss_kind!r}")

    def head_dims(self, n_classes: int) -> tuple[int, ...]:
        return (self.widths[-1], *self.head_widths, n_classes)


def canonical_order(points: np.ndarray) -> np.ndarray:
    """Sort each (n, d) point set of an (..., n, d) array lexicographically
    by coordinates, all sets in one stable sort along the point axis."""
    order = np.lexsort(np.moveaxis(points, -1, 0)[::-1], axis=-1)
    return np.take_along_axis(points, order[..., None], axis=-2)


def forward(batch: np.ndarray, kernels: Sequence[Tensor], biases: Sequence[Tensor],
            head_weights: Sequence[Tensor], head_biases: Sequence[Tensor]) -> Tensor:
    """Class scores (b, c) for a (b, n_pts, d) batch of point clouds."""
    batch = np.asarray(batch, dtype=np.float64)
    if batch.ndim != 3 or batch.shape[1] < 1:
        raise ShapeError(f"forward: batch must be (b, n_pts, d), got {batch.shape}")
    d = batch.shape[2]
    chain = [d] + [int(k.shape[3]) for k in kernels]
    for i, k in enumerate(kernels):
        if k.shape[:2] != (1, 1) or k.shape[2] != chain[i]:
            raise ShapeError(f"forward: layer {i + 1} kernel {k.shape} breaks width chain {chain}")
    x = ad.constant(canonical_order(batch))
    ws = [ad.reshape(k, (int(k.shape[2]), int(k.shape[3]))) for k in kernels]
    h = ad.max_pool_points(x, ws, biases)
    for w, b in zip(head_weights[:-1], head_biases[:-1]):
        h = ad.relu(h, w, b)
    return ad.add(ad.matmul(h, head_weights[-1]), head_biases[-1])


def one_hot(labels: Sequence[int], n_classes: int) -> np.ndarray:
    labels = np.asarray(labels, dtype=np.int64)
    if labels.ndim != 1:
        raise DataError(f"labels must be a flat index vector, got shape {labels.shape}")
    if labels.size and (labels.min() < 0 or labels.max() >= n_classes):
        raise DataError(f"label index out of range [0, {n_classes}): {labels}")
    out = np.zeros((labels.size, n_classes))
    out[np.arange(labels.size), labels] = 1.0
    return out


def classification_loss(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Mean per-object sum of squared differences between softmax
    probabilities and one-hot targets."""
    targets = np.asarray(targets, dtype=np.float64)
    if tuple(targets.shape) != tuple(logits.shape):
        raise ShapeError(f"classification_loss: targets {targets.shape} vs logits {logits.shape}")
    b = targets.shape[0]
    probs = ad.softmax(logits, axis=-1)
    return ad.scale(ad.sq_l2_diff(probs, ad.constant(targets)), 1.0 / b)


def accuracy(logits, labels: Sequence[int]) -> float:
    """Argmax match rate; ties resolve to the lowest class index."""
    scores = logits.data if isinstance(logits, Tensor) else np.asarray(logits)
    labels = np.asarray(labels, dtype=np.int64)
    pred = np.argmax(scores, axis=-1)
    return float(np.mean(pred == labels))
