"""Memory attention: gap regularizers and the soft-attended total loss.

Two kinds of drift are penalized while a new task trains.  The shared
knowledge base is pulled toward its frozen end-of-previous-task copy
(knowledge gap), and the task's factors are pulled toward each archived
task's factors (factor gaps), with per-past-task weights set by a softmax
over the gaps themselves: the more a past task's factors differ from the
current ones, the more optimization attends to keeping them reachable.
Each weight family sums to 1/l_max, l_max being the factorized layer count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import ShapeError, Tensor
from .errors import ConfigError
from .factorization import KnowledgeBase, TaskFactors


@dataclass(frozen=True)
class MamConfig:
    lambda_l: float = 1.0
    # One value only; the key stays so that configs naming it stay valid.
    detach_attention: bool = True

    def __post_init__(self):
        if not (math.isfinite(self.lambda_l) and self.lambda_l >= 0):
            raise ConfigError(f"knowledge-gap weight must be finite and >= 0, got {self.lambda_l}")
        if self.detach_attention is not True:
            raise ConfigError(f"detach_attention must be true, got {self.detach_attention!r}")


@dataclass(frozen=True)
class AttentionScores:
    """Per-past-task weights; each family sums to 1/l_max."""

    k_weights: np.ndarray
    c_weights: np.ndarray


def knowledge_gap_loss(kb: KnowledgeBase) -> Tensor:
    """Sum over layers of the squared distance to the frozen snapshot.

    Differentiable w.r.t. the live knowledge tensors only.
    """
    gaps = [ad.sq_l2_diff(ad.constant(prev), live) for prev, live in zip(kb.snapshot, kb.layers)]
    return ad.sum_all(ad.stack_scalars(gaps))


def factor_gap_losses(current: TaskFactors, archive: Sequence) -> list[tuple[Tensor, Tensor]]:
    """Per past task: (kernel gap, contraction gap), layer-summed.

    Archived factors enter as constants, so gradients reach only the
    current task's factors.
    """
    out = []
    for past in archive:
        k_terms = [ad.sq_l2_diff(ad.constant(np.asarray(pk)), ck)
                   for pk, ck in zip(past.kernels, current.kernels)]
        c_terms = [ad.sq_l2_diff(ad.constant(np.asarray(pc)), cc)
                   for pc, cc in zip(past.contractions, current.contractions)]
        out.append((ad.sum_all(ad.stack_scalars(k_terms)), ad.sum_all(ad.stack_scalars(c_terms))))
    return out


def attention_scores(k_gaps: Sequence[float], c_gaps: Sequence[float], l_max: int) -> AttentionScores:
    """Softmax over past-task gaps, scaled by 1/l_max."""
    if len(k_gaps) == 0 or len(c_gaps) == 0:
        raise ShapeError("attention_scores: empty gap list")
    kw = ad.softmax(Tensor(np.asarray(k_gaps, dtype=np.float64))).data / l_max
    cw = ad.softmax(Tensor(np.asarray(c_gaps, dtype=np.float64))).data / l_max
    return AttentionScores(k_weights=kw, c_weights=cw)


def total_loss(lc: Tensor, kb: KnowledgeBase, current: TaskFactors,
               archive: Sequence, cfg: MamConfig,
               pinned_scores: AttentionScores | None = None) -> Tensor:
    """Training objective for the current task.

    With no past tasks this *is* the classification loss (the same node).
    Otherwise the knowledge and factor gaps are added, the factor gaps
    weighted by attention scores recomputed from the current values.  The
    scores act as constants ("detached"), i.e. selection weights rather
    than a differentiated quantity.  ``pinned_scores`` bypasses
    recomputation (used by gradient checks to evaluate the same objective
    the backward pass differentiates).
    """
    if not archive:
        return lc
    gaps = factor_gap_losses(current, archive)
    total = ad.add(lc, ad.scale(knowledge_gap_loss(kb), cfg.lambda_l))
    scores = pinned_scores if pinned_scores is not None else attention_scores(
        [float(k.data) for k, _ in gaps], [float(c.data) for _, c in gaps], len(kb.layers))
    for (k_gap, c_gap), wk, wc in zip(gaps, scores.k_weights, scores.c_weights):
        total = ad.add(total, ad.add(ad.scale(k_gap, wk), ad.scale(c_gap, wc)))
    return total
