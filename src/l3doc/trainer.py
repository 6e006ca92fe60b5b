"""Sequential task training with factor inheritance and archival.

One pass over the task sequence: the first task draws fresh factors,
later tasks inherit the previous task's kernels/contractions (heads are
always redrawn, class counts may differ).  Every optimizer step rebuilds
the pointwise kernels from the live knowledge base, runs the backbone,
and minimizes ``mam.total_loss`` in every mode: the plain classification
loss when the archive it is handed is empty, else the attention-weighted
total.  After a task finishes, its factors are frozen into an
``ArchivedTask`` appended to the archive (a plain list), the knowledge
base is snapshotted for the next task's gap penalty, and every seen task
is re-evaluated under the *current* knowledge base with its archived
factors; that re-evaluation is where forgetting shows up.

Modes: "l3doc" (full method), "finetune" (shared state, no regularizers),
"stl" (fresh knowledge base and factors per task; its archive entries
carry their own frozen base, so old tasks cannot degrade by construction).
Only "l3doc" hands ``mam.total_loss`` the archive, so only "l3doc"
training reads cross-task state (the snapshot and the archive, through
``mam.knowledge_gap_loss`` and ``mam.factor_gap_losses`` alone).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import autodiff as ad
from . import mam as mam_mod
from .autodiff import Tensor
from .backbone import BackboneConfig, accuracy, classification_loss, forward, one_hot
from .datasets import TaskDataset
from .errors import ConfigError, DataError, NumericError
from .factorization import (FactorSpec, KnowledgeBase, TaskFactors, frozen_copy,
                            init_knowledge_base, init_or_inherit_factors,
                            reconstruct_layer_kernels)
from .mam import MamConfig
from .metrics import BoundaryRecord, EpochRecord, RunLog

MODES = ("l3doc", "stl", "finetune")


@dataclass(frozen=True)
class ExperimentConfig:
    mode: str = "l3doc"
    spec: FactorSpec = field(default_factory=FactorSpec)
    backbone: BackboneConfig = field(default_factory=BackboneConfig)
    mam: MamConfig = field(default_factory=MamConfig)
    epochs: int = 10
    batch_size: int = 16
    lr: float = 1e-3
    seed: int = 0

    def __post_init__(self):
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.epochs < 1 or self.batch_size < 1:
            raise ConfigError("epochs and batch_size must be >= 1")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if not (math.isfinite(self.lr) and self.lr >= 0):
            raise ConfigError(f"lr must be finite and >= 0, got {self.lr}")
        if self.spec.widths != self.backbone.widths:
            raise ConfigError(f"factor widths {self.spec.widths} != backbone widths {self.backbone.widths}")


@dataclass
class OptimizerState:
    m: list[np.ndarray]
    v: list[np.ndarray]
    step: int = 0


def adam_state(params: Sequence[Tensor]) -> OptimizerState:
    return OptimizerState(m=[np.zeros_like(p.data) for p in params],
                          v=[np.zeros_like(p.data) for p in params])


def adam_step(params: Sequence[Tensor], grads: Sequence[np.ndarray], state: OptimizerState,
              lr: float = 1e-3, beta1: float = 0.9, beta2: float = 0.999,
              eps: float = 1e-8) -> None:
    """Standard adaptive-moment update.

    ``m``, ``v`` and every ``p.data`` change in place (the arrays stay the
    same objects), so a graph built from the parameters before the update
    must not be read after it.  Per parameter, two temporaries of its size
    hold the terms of ``p - lr * m_hat / (sqrt(v_hat) + eps)``, computed
    with the same operations in the same order as that expression.
    """
    state.step += 1
    t = state.step
    for p, g, m, v in zip(params, grads, state.m, state.v):
        step = np.multiply(1 - beta1, g)
        m *= beta1
        m += step
        np.multiply(1 - beta2, g, out=step)
        step *= g
        v *= beta2
        v += step
        np.divide(m, 1 - beta1 ** t, out=step)
        step *= lr
        denom = np.divide(v, 1 - beta2 ** t)
        np.sqrt(denom, out=denom)
        denom += eps
        step /= denom
        p.data -= step


@dataclass(frozen=True)
class ArchivedTask:
    """Immutable end-of-task state: factors, head, and evaluation inputs."""

    task_id: int
    kernels: tuple[np.ndarray, ...]
    contractions: tuple[np.ndarray, ...]
    biases: tuple[np.ndarray, ...]
    head_weights: tuple[np.ndarray, ...]
    head_biases: tuple[np.ndarray, ...]
    kb_layers: tuple[np.ndarray, ...] | None
    dataset: TaskDataset
    peak_accuracy: float


def archive_task(task_id: int, factors: TaskFactors, dataset: TaskDataset,
                 peak_accuracy: float, kb: KnowledgeBase | None = None) -> ArchivedTask:
    return ArchivedTask(task_id, *map(frozen_copy, factors.groups()),
                        kb_layers=frozen_copy(kb.layers) if kb is not None else None,
                        dataset=dataset, peak_accuracy=peak_accuracy)


def _stack_split(pairs) -> tuple[np.ndarray, np.ndarray]:
    batch = np.stack([cloud.points for cloud, _ in pairs])
    labels = np.array([label for _, label in pairs], dtype=np.int64)
    return batch, labels


def _value(x) -> np.ndarray:
    return x.data if isinstance(x, Tensor) else np.asarray(x)


def _constant_view(factors) -> TaskFactors:
    """Constant copies of all five factor groups of live factors or of an
    archive entry, so evaluation records no backward."""
    return TaskFactors(factors.task_id, *([ad.constant(_value(t)) for t in group]
                                          for group in TaskFactors.groups(factors)))


def _eval_accuracy(pairs, layers, factors) -> float:
    batch, labels = _stack_split(pairs)
    view = _constant_view(factors)
    kernels = reconstruct_layer_kernels([ad.constant(_value(v)) for v in layers], view)
    logits = forward(batch, kernels, view.biases, view.head_weights, view.head_biases)
    return accuracy(logits, labels)


def evaluate_task(dataset: TaskDataset, kb: KnowledgeBase, factors: TaskFactors) -> float:
    return _eval_accuracy(dataset.test, kb.layers, factors)


def evaluate_archive(kb: KnowledgeBase, archive: Sequence[ArchivedTask]) -> dict[int, float]:
    """Accuracy of every archived task: its frozen factors and head applied
    to the live knowledge base (or its own frozen base, for independent
    per-task entries)."""
    accuracies = {}
    for entry in archive:
        layers = entry.kb_layers if entry.kb_layers is not None else kb.layers
        accuracies[entry.task_id] = _eval_accuracy(entry.dataset.test, layers, entry)
    return accuracies


def train_task(task_id: int, dataset: TaskDataset, kb: KnowledgeBase,
               archive: Sequence[ArchivedTask], cfg: ExperimentConfig,
               prev_factors: TaskFactors | None = None) -> tuple[TaskFactors, list[EpochRecord]]:
    """One task's optimization loop; mutates kb in place and returns the
    trained factors plus per-epoch records."""
    head_dims = cfg.backbone.head_dims(dataset.n_classes)
    factors = init_or_inherit_factors(prev_factors, cfg.spec, head_dims,
                                      seed=[cfg.seed, task_id, 1], task_id=task_id)
    rng = np.random.default_rng([cfg.seed, task_id, 2])
    params = [*kb.layers, *factors.trainable()]
    state = adam_state(params)
    train_batch, train_labels = _stack_split(dataset.train)
    n = len(dataset.train)
    steps_per_epoch = -(-n // cfg.batch_size)
    records = []
    for epoch in range(1, cfg.epochs + 1):
        order = rng.permutation(n)
        losses = []
        wall_ms = 0.0
        for b in range(steps_per_epoch):
            idx = order[b * cfg.batch_size:(b + 1) * cfg.batch_size]
            t0 = time.perf_counter()
            kernels = reconstruct_layer_kernels(kb.layers, factors)
            logits = forward(train_batch[idx], kernels, factors.biases,
                             factors.head_weights, factors.head_biases)
            targets = one_hot(train_labels[idx], dataset.n_classes)
            lc = classification_loss(logits, targets)
            total = mam_mod.total_loss(lc, kb, factors, archive if cfg.mode == "l3doc" else [], cfg.mam)
            # The graph is not read after the update, which changes the parameters in place.
            loss = float(total.data)
            if not math.isfinite(loss):
                raise NumericError(f"non-finite loss {loss} at task {task_id} epoch {epoch} step {b + 1}")
            grads = ad.gradients(total, params)
            adam_step(params, grads, state, cfg.lr)
            wall_ms += (time.perf_counter() - t0) * 1e3
            losses.append(loss)
            # Free this step's graph before the next step or the evaluation builds its own.
            del kernels, logits, lc, total, grads
        if not all(np.isfinite(p.data).all() for p in params):
            raise NumericError(f"non-finite parameter after task {task_id} epoch {epoch}")
        records.append(EpochRecord(task_id=task_id, epoch=epoch,
                                   train_loss=sum(losses) / len(losses),
                                   test_acc=evaluate_task(dataset, kb, factors),
                                   wall_ms=wall_ms, steps=steps_per_epoch))
    return factors, records


def check_tasks(cfg: ExperimentConfig, tasks: Sequence[TaskDataset]) -> None:
    """Reject an empty sequence, or a task whose point dimension is not the
    backbone's input width (TaskDataset gives a task's clouds one shape)."""
    if not tasks:
        raise DataError("run_sequence: no tasks")
    for task_id, dataset in enumerate(tasks, start=1):
        dim = dataset.train[0][0].points.shape[1]
        if dim != cfg.backbone.widths[0]:
            raise DataError(f"task {task_id}: point dimension {dim} != backbone input {cfg.backbone.widths[0]}")


def run_sequence(cfg: ExperimentConfig, tasks: Sequence[TaskDataset]) -> tuple[list[ArchivedTask], RunLog]:
    """Train the whole sequence, archiving and re-evaluating after each task."""
    check_tasks(cfg, tasks)  # every task, before any trains
    archive: list[ArchivedTask] = []
    log = RunLog()
    kb = init_knowledge_base(cfg.spec, seed=[cfg.seed, 0, 0])
    prev_factors: TaskFactors | None = None
    for task_id, dataset in enumerate(tasks, start=1):
        if cfg.mode == "stl":
            kb = init_knowledge_base(cfg.spec, seed=[cfg.seed, task_id, 0])
            prev_factors = None
        factors, records = train_task(task_id, dataset, kb, archive, cfg, prev_factors)
        log.epochs.extend(records)
        # The last epoch's evaluation saw the finished factors and base.
        archive.append(archive_task(task_id, factors, dataset, records[-1].test_acc,
                                    kb=kb if cfg.mode == "stl" else None))
        kb.take_snapshot()
        for seen_id, acc in sorted(evaluate_archive(kb, archive).items()):
            log.boundaries.append(BoundaryRecord(after_task=task_id, task_id=seen_id, test_acc=acc))
        prev_factors = factors
    return archive, log
