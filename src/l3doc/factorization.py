"""Shared point-knowledge base, per-task factors, and parameter accounting.

Each pointwise convolution kernel W (1 x 1 x w_in x w_out) of the backbone
is never stored directly.  Per layer, a shared knowledge tensor
L (n x w_in x l_out) is expanded by a task-specific transposed-convolution
kernel K (s x s x w_out x l_out) into an intermediate block
D (n x w_in x w_out), which a task-specific contraction vector C (1 x 1 x n)
collapses into W.  The latent channel counts shrink with the layer width:

    n = w_out / n_hat        l_out = w_out / l_hat

so the shared base holds most of the parameters while K and C stay small.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ConfigError

INIT_STD = 0.05

# Backbone MLP widths for which the per-task baseline holds 159936 kernel
# parameters; see the README's parameter-accounting section.
POINTNET_WIDTHS = (3, 64, 64, 128, 128, 1024)


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
        if len(self.widths) < 2 or any(w < 1 for w in self.widths):
            raise ConfigError(f"widths must chain at least one layer of positive sizes, got {self.widths}")
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


class KnowledgeBase:
    """Per-layer shared knowledge tensors plus the previous task's frozen copy.

    ``snapshot`` reads are counted so baseline modes can prove they never
    touch cross-task state.
    """

    def __init__(self, spec: FactorSpec, layers: Sequence[Tensor]):
        self.spec = spec
        self.layers = list(layers)
        self._snapshot = [np.array(t.data, copy=True) for t in self.layers]
        self.snapshot_reads = 0

    @property
    def snapshot(self) -> list[np.ndarray]:
        self.snapshot_reads += 1
        return self._snapshot

    def take_snapshot(self) -> None:
        self._snapshot = [np.array(t.data, copy=True) for t in self.layers]


def init_knowledge_base(spec: FactorSpec, seed) -> KnowledgeBase:
    rng = np.random.default_rng(seed)
    layers = [ad.parameter(None, rng, spec.knowledge_shape(l), std=INIT_STD)
              for l in range(spec.num_layers)]
    return KnowledgeBase(spec, layers)


@dataclass
class TaskFactors:
    """One task's trainable state: deconv kernels, contractions, biases, head."""

    task_id: int
    kernels: list[Tensor]
    contractions: list[Tensor]
    biases: list[Tensor]
    head_weights: list[Tensor]
    head_biases: list[Tensor]

    def trainable(self) -> list[Tensor]:
        return [*self.kernels, *self.contractions, *self.biases,
                *self.head_weights, *self.head_biases]


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
        weights.append(ad.parameter(None, rng, (d_in, d_out), std=std))
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
        kernels = [ad.parameter(None, rng, spec.kernel_shape(l), std=stds[l])
                   for l in range(spec.num_layers)]
        contractions = [ad.parameter(None, rng, spec.contraction_shape(l), std=stds[l])
                        for l in range(spec.num_layers)]
        biases = [ad.parameter(np.zeros(spec.widths[l + 1])) for l in range(spec.num_layers)]
    else:
        kernels = [ad.parameter(np.array(t.data, copy=True)) for t in prev.kernels]
        contractions = [ad.parameter(np.array(t.data, copy=True)) for t in prev.contractions]
        biases = [ad.parameter(np.array(t.data, copy=True)) for t in prev.biases]
    head_weights, head_biases = _init_head(head_dims, rng)
    return TaskFactors(task_id, kernels, contractions, biases, head_weights, head_biases)


def reconstruct_kernel(knowledge: Tensor, kernel: Tensor, contraction: Tensor) -> Tensor:
    """Rebuild one layer's pointwise kernel (1,1,w_in,w_out) from its factors.

    The knowledge tensor is treated as an n x w_in spatial grid carrying
    l_out channels; the task kernel expands it to w_out channels and the
    contraction vector collapses the latent axis.  The result stays inside
    the differentiable graph, so gradients reach all three factors.
    """
    expanded = ad.transposed_conv2d(knowledge, kernel)
    return ad.channel_contract(contraction, expanded)


def reconstruct_layer_kernels(layers: Sequence[Tensor], factors: TaskFactors) -> list[Tensor]:
    return [reconstruct_kernel(l, k, c)
            for l, k, c in zip(layers, factors.kernels, factors.contractions)]


def count_stl(widths: Sequence[int], t_max: int) -> int:
    """Kernel parameters for independent per-task models: sum(w_in*w_out) * t_max.

    Bias/head parameters are deliberately excluded as negligible.
    """
    per_model = sum(wi * wo for wi, wo in zip(widths, widths[1:]))
    return per_model * t_max


def count_dfcnn(widths: Sequence[int], u: int, v_h: int, v_w: int,
                l_h: int, l_w: int, l_c: int, t_max: int) -> int:
    """Deconvolutional-factorized baseline count:
    u*(N_W + v_h*v_w*l_h)*t_max + l_h*l_w*l_c."""
    n_w = count_stl(widths, 1)
    return u * (n_w + v_h * v_w * l_h) * t_max + l_h * l_w * l_c


def l3doc_layer_counts(spec: FactorSpec, t_max: int) -> list[dict]:
    """Per-layer accounting: per-task factor cost (C and K) times t_max,
    plus the one-off shared knowledge cost."""
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
