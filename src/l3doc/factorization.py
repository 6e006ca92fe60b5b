"""Shared point-knowledge base, per-task factors, and parameter accounting.

Each pointwise convolution kernel W (1 x 1 x w_in x w_out) of the backbone
is never stored directly.  Per layer, it is the task-specific contraction
vector C (1 x 1 x n) applied to the shared knowledge tensor L
(n x w_in x l_out) after a task-specific transposed-convolution kernel
K (s x s x w_out x l_out) has expanded L into an n x w_in x w_out block.
That block is never built: C is contracted into shifted rows of L first,
and K expands only the s rows that result.  The latent channel counts
shrink with the layer width:

    n = w_out / n_hat        l_out = w_out / l_hat

so the shared base holds most of the parameters while K and C stay small.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import ShapeError, Tensor
from .errors import ConfigError

INIT_STD = 0.05

# Backbone MLP widths for which the per-task baseline holds 159936 kernel
# parameters; see the README's parameter-accounting section.
POINTNET_WIDTHS = (3, 64, 64, 128, 128, 1024)


def _check_widths(widths: tuple[int, ...]) -> None:
    if len(widths) < 2 or any(w < 1 for w in widths):
        raise ConfigError(f"widths must chain at least one layer of positive sizes, got {widths}")


def _check_task_count(t_max: int) -> None:
    if t_max < 0:
        raise ConfigError(f"task count must be >= 0, got {t_max}")


def latent_channels(w_out: int, n_hat: int) -> int:
    """Latent channel count n = w_out / n_hat; the divisor must be exact."""
    if n_hat < 1 or w_out < 1 or w_out % n_hat != 0:
        raise ConfigError(f"latent shrinkage {n_hat} does not divide layer width {w_out}")
    return w_out // n_hat


def knowledge_channels(w_out: int, l_hat: int) -> int:
    """Knowledge channel count l_out = w_out / l_hat; the divisor must be exact."""
    if l_hat < 1 or w_out < 1 or w_out % l_hat != 0:
        raise ConfigError(f"knowledge shrinkage {l_hat} does not divide layer width {w_out}")
    return w_out // l_hat


@dataclass(frozen=True)
class FactorSpec:
    """Factorization geometry: shrinkage divisors, kernel size, layer widths."""

    widths: tuple[int, ...] = POINTNET_WIDTHS
    n_hat: int = 16
    l_hat: int = 32
    s: int = 2

    def __post_init__(self):
        object.__setattr__(self, "widths", tuple(int(w) for w in self.widths))
        _check_widths(self.widths)
        if self.s < 1:
            raise ConfigError(f"kernel spatial size must be >= 1, got {self.s}")
        for w_out in self.widths[1:]:
            latent_channels(w_out, self.n_hat)
            knowledge_channels(w_out, self.l_hat)

    @classmethod
    def group1(cls, widths: Sequence[int] = POINTNET_WIDTHS) -> "FactorSpec":
        return cls(widths=tuple(widths), n_hat=16, l_hat=32, s=2)

    @classmethod
    def group2(cls, widths: Sequence[int] = POINTNET_WIDTHS) -> "FactorSpec":
        return cls(widths=tuple(widths), n_hat=32, l_hat=32, s=2)

    @property
    def num_layers(self) -> int:
        return len(self.widths) - 1

    def layer_dims(self, layer: int) -> tuple[int, int, int, int]:
        """(w_in, w_out, n, l_out) for the given 0-based layer."""
        w_in, w_out = self.widths[layer], self.widths[layer + 1]
        return w_in, w_out, latent_channels(w_out, self.n_hat), knowledge_channels(w_out, self.l_hat)

    def knowledge_shape(self, layer: int) -> tuple[int, int, int]:
        w_in, _, n, l_out = self.layer_dims(layer)
        return (n, w_in, l_out)

    def kernel_shape(self, layer: int) -> tuple[int, int, int, int]:
        _, w_out, _, l_out = self.layer_dims(layer)
        return (self.s, self.s, w_out, l_out)

    def contraction_shape(self, layer: int) -> tuple[int, int, int]:
        return (1, 1, self.layer_dims(layer)[2])


def frozen_copy(tensors: Sequence[Tensor]) -> tuple[np.ndarray, ...]:
    """Read-only copies of the tensors' values, for state that training must not move."""
    copies = tuple(np.array(t.data, copy=True) for t in tensors)
    for arr in copies:
        arr.flags.writeable = False
    return copies


class KnowledgeBase:
    """Per-layer shared knowledge tensors plus the previous task's frozen copy."""

    def __init__(self, layers: Sequence[Tensor]):
        self.layers = list(layers)
        self.take_snapshot()

    def take_snapshot(self) -> None:
        self.snapshot = frozen_copy(self.layers)


def init_knowledge_base(spec: FactorSpec, seed) -> KnowledgeBase:
    rng = np.random.default_rng(seed)
    layers = [ad.parameter(rng.normal(0.0, INIT_STD, spec.knowledge_shape(l)))
              for l in range(spec.num_layers)]
    return KnowledgeBase(layers)


@dataclass
class TaskFactors:
    """One task's trainable state: deconv kernels, contractions, biases, head."""

    task_id: int
    kernels: list[Tensor]
    contractions: list[Tensor]
    biases: list[Tensor]
    head_weights: list[Tensor]
    head_biases: list[Tensor]

    def groups(self) -> tuple[list[Tensor], ...]:
        """The five factor groups in field order.  It reads the fields by
        name, so ``TaskFactors.groups(entry)`` also lists an archive entry's."""
        return (self.kernels, self.contractions, self.biases, self.head_weights, self.head_biases)

    def trainable(self) -> list[Tensor]:
        return [t for group in self.groups() for t in group]


def _init_head(head_dims: Sequence[int], rng: np.random.Generator):
    # Final layer starts near zero so each task opens with near-uniform
    # class probabilities: a squared loss on saturated softmax outputs has
    # no usable gradient, and inherited features can be large.  Near zero
    # rather than zero keeps gradients flowing to every factor from the
    # first step.
    weights, biases = [], []
    for i, (d_in, d_out) in enumerate(zip(head_dims, head_dims[1:])):
        last = i == len(head_dims) - 2
        std = 1e-4 if last else math.sqrt(2.0 / d_in)
        weights.append(ad.parameter(rng.normal(0.0, std, (d_in, d_out))))
        biases.append(ad.parameter(np.zeros(d_out)))
    return weights, biases


def factor_init_std(spec: FactorSpec, layer: int) -> float:
    """Per-layer std for fresh K and C draws, chosen so the reconstructed
    kernel starts at rectifier-friendly magnitude: the product of the three
    factor scales times sqrt(n * s^2 * l_out) lands near sqrt(2 / w_in).
    Starting all factors at the knowledge-base scale parks the product in a
    saddle where desk-scale training never leaves chance level.
    """
    w_in, _, n, l_out = spec.layer_dims(layer)
    target = math.sqrt(2.0 / w_in)
    reconstructed = INIT_STD * math.sqrt(n * spec.s * spec.s * l_out)
    return math.sqrt(target / reconstructed)


def init_or_inherit_factors(prev: TaskFactors | None, spec: FactorSpec,
                            head_dims: Sequence[int], seed, task_id: int) -> TaskFactors:
    """First task draws fresh factors; later tasks deep-copy the previous
    task's kernels/contractions/biases and redraw only the head (the class
    count may change between tasks)."""
    rng = np.random.default_rng(seed)
    if prev is None:
        stds = [factor_init_std(spec, l) for l in range(spec.num_layers)]
        kernels = [ad.parameter(rng.normal(0.0, stds[l], spec.kernel_shape(l)))
                   for l in range(spec.num_layers)]
        contractions = [ad.parameter(rng.normal(0.0, stds[l], spec.contraction_shape(l)))
                        for l in range(spec.num_layers)]
        biases = [ad.parameter(np.zeros(spec.widths[l + 1])) for l in range(spec.num_layers)]
    else:
        kernels, contractions, biases = ([ad.parameter(t.data) for t in group]
                                         for group in prev.groups()[:3])
    head_weights, head_biases = _init_head(head_dims, rng)
    return TaskFactors(task_id, kernels, contractions, biases, head_weights, head_biases)


def reconstruct_kernel(knowledge: Tensor, kernel: Tensor, contraction: Tensor) -> Tensor:
    """Rebuild one layer's pointwise kernel (1,1,w_in,w_out) from its factors.

    The kernel is defined on the knowledge tensor as an n x w_in spatial
    grid carrying l_out channels: the task kernel expands it to w_out
    channels and the contraction vector collapses the latent axis,

        W = channel_contract(C, transposed_conv2d(L, K)).

    The contraction is done first.  Row dy of K only meets the row pairs
    (y, y+dy), so W = sum_dy rowconv(M_dy, K[dy]) with
    M_dy = sum_y C[y+dy] * L[y].  The M_dy are stacked into an s-row grid
    (row s-1-dy holds M_dy), which the transposed convolution expands; the
    grid's last row is W.  No node is larger than s x w_in x w_out, and the
    result stays inside the differentiable graph, so gradients reach all
    three factors.
    """
    if knowledge.data.ndim != 3 or kernel.data.ndim != 4 or kernel.shape[0] < 1:
        raise ShapeError(f"reconstruct_kernel: knowledge {knowledge.shape}, kernel {kernel.shape}")
    n, w_in, l_out = knowledge.shape
    s = kernel.shape[0]
    # Column block j of `shift` moves C up by s-1-j rows: row j of `shifted`.
    shift = np.concatenate([np.eye(n, k=j + 1 - s) for j in range(s)], axis=1)
    shifted = ad.reshape(ad.matmul(contraction, ad.constant(shift)), (s, n))
    mixed = ad.matmul(shifted, ad.reshape(knowledge, (n, w_in * l_out)))
    expanded = ad.transposed_conv2d(ad.reshape(mixed, (s, w_in, l_out)), kernel)
    return ad.channel_contract(ad.constant(np.eye(s)[None, None, -1]), expanded)


def reconstruct_layer_kernels(layers: Sequence[Tensor], factors: TaskFactors) -> list[Tensor]:
    return [reconstruct_kernel(l, k, c)
            for l, k, c in zip(layers, factors.kernels, factors.contractions)]


def count_stl(widths: Sequence[int], t_max: int) -> int:
    """Kernel parameters for independent per-task models: sum(w_in*w_out) * t_max.

    Bias/head parameters are deliberately excluded as negligible.
    """
    _check_widths(tuple(widths))
    _check_task_count(t_max)
    per_model = sum(wi * wo for wi, wo in zip(widths, widths[1:]))
    return per_model * t_max


def l3doc_layer_counts(spec: FactorSpec, t_max: int) -> list[dict]:
    """Per-layer accounting: per-task factor cost (C and K) times t_max,
    plus the one-off shared knowledge cost."""
    _check_task_count(t_max)
    rows = []
    for layer in range(spec.num_layers):
        w_in, w_out, n, l_out = spec.layer_dims(layer)
        per_task = n + spec.s * spec.s * w_out * l_out
        shared = n * w_in * l_out
        rows.append({
            "layer": layer + 1,
            "w_in": w_in,
            "w_out": w_out,
            "per_task": per_task,
            "shared": shared,
            "total": per_task * t_max + shared,
        })
    return rows


def count_l3doc(spec: FactorSpec, t_max: int) -> int:
    return sum(row["total"] for row in l3doc_layer_counts(spec, t_max))


def _factor_elements(task: TaskFactors) -> int:
    return sum(int(t.data.size) for t in [*task.kernels, *task.contractions])


def parameter_census(kb: KnowledgeBase, tasks: Sequence[TaskFactors]) -> int:
    """Actually allocated elements of all L, K, C tensors (heads and biases
    are not counted)."""
    shared = sum(int(t.data.size) for t in kb.layers)
    return shared + sum(_factor_elements(task) for task in tasks)
