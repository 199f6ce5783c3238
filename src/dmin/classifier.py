"""Cosine classifier with a learnable temperature, plus the two losses.

The same classifier scores both stages of training: against the base
weight matrix during supervised pretraining, and against induced class
vectors during episodic training.  Scores are ``tau * cos(e, w)``; the
temperature is stored as ``log tau`` so it stays positive no matter
what the optimizer does.  A classifier is built once per forward pass
and computes ``tau = exp(log tau)`` then, so one pass records one ``exp``
however many scores it takes.  :func:`base_scores` scores a whole (B, d)
stack of inputs as one broadcast cosine node, so a pretraining batch or
a full accuracy pass records one scoring node, not one per item;
:func:`few_scores` likewise scores the (Q, d) stack of an episode's
queries against their (Q, C, d) class vectors as one node, in training
and in evaluation alike, and evaluation scores a batch of E episodes'
(E, Q, d) queries as one node too.

Both losses are one :func:`dmin.numerics.cross_entropy` node over a
score Tensor with one row per item or query; they differ only in the
constant row weights.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import numerics as nm
from .numerics import EPS, Tensor

TAU_INIT = 10.0
W_BASE_INIT_STD = 0.02


@dataclass
class CosineClassifier:
    w_base: Tensor   # (num_base_classes, embed_dim)
    log_tau: Tensor  # 0-d
    tau: Tensor = field(init=False)  # exp(log_tau)

    def __post_init__(self):
        if self.w_base.array.ndim != 2:
            raise ValueError(
                f"w_base must be rank-2, got shape {self.w_base.array.shape}")
        if self.log_tau.array.ndim != 0:
            raise ValueError(
                f"log_tau must be a scalar, got shape "
                f"{self.log_tau.array.shape}")
        self.tau = nm.exp(self.log_tau)

    @property
    def embed_dim(self) -> int:
        return self.w_base.array.shape[1]


def _check_nonzero(vec: Tensor, what: str) -> None:
    # the smallest row norm, so one (near) zero row of a stack is caught
    if float(np.linalg.norm(vec.array, axis=-1).min()) <= EPS:
        raise ValueError(f"{what} has zero norm; cosine scores are undefined")


def base_scores(clf: CosineClassifier, e: Tensor) -> Tensor:
    """Scaled cosine of ``e`` against every base-class weight row.

    ``e`` is one (d,) vector, scored to (num_base,), or a (B, d) stack,
    scored as one (B, num_base) cosine node.
    """
    d = clf.embed_dim
    if e.ndim not in (1, 2) or e.shape[-1] != d:
        raise ValueError(
            f"input has shape {e.shape}, classifier expects ({d},) or "
            f"(B, {d})")
    _check_nonzero(e, "input vector")
    if e.ndim == 2:  # (B, 1, d) broadcasts against the (num_base, d) rows
        e = nm.reshape(e, (e.shape[0], 1, d))
    return nm.mul(clf.tau, nm.cosine(clf.w_base, e))


def few_scores(clf: CosineClassifier, e_q: Tensor,
               class_vectors: Tensor) -> Tensor:
    """Scaled cosine of queries against per-episode class vectors.

    ``e_q`` is one (d,) query, scored to (C,), or a (..., Q, d) stack,
    scored to (..., Q, C) as one broadcast cosine node.  ``class_vectors``
    is a (C, d) matrix, which every query shares, or, for a stack, a
    (..., Q, C, d) stack of each query's own matrix, whose length-1 axes
    broadcast: (E, 1, C, d) gives each episode's queries one matrix.
    """
    shape = class_vectors.shape
    if e_q.ndim < 1 or len(shape) not in (2, e_q.ndim + 1) \
            or shape[-1] != e_q.shape[-1] or not all(
                c in (1, q) for c, q in zip(shape[:-2], e_q.shape[:-1])):
        raise ValueError(
            f"class vectors have shape {shape}, queries {e_q.shape}; "
            f"need (C, d) or (..., Q, C, d) class vectors for (d,) or "
            f"(..., Q, d) queries")
    if shape[-2] < 2:
        raise ValueError(f"need at least 2 class vectors, got {shape[-2]}")
    _check_nonzero(e_q, "query vector")
    if e_q.ndim >= 2:  # (..., Q, 1, d) broadcasts against the class axis
        e_q = nm.reshape(e_q, e_q.shape[:-1] + (1, e_q.shape[-1]))
    return nm.mul(clf.tau, nm.cosine(class_vectors, e_q))


def loss_supervised(scores: Tensor, labels) -> Tensor:
    """Mean cross-entropy of softmaxed score rows against their labels.

    ``scores`` is one (C,) row with an int label, or a (B, C) stack with
    B labels.
    """
    labels = np.asarray(labels)
    return nm.cross_entropy(scores, labels,
                            np.full(labels.shape, 1.0 / labels.size))


def loss_episode(all_scores: Tensor, labels: Sequence[int]) -> Tensor:
    """Mean over classes of the mean cross-entropy of that class's queries.

    ``all_scores`` is the (Q, C) Tensor of the episode's scores.  Each row
    is weighted by ``1 / (classes * queries of its class)``.  With the
    same number of queries per class this equals the flat mean; with
    uneven counts every class still contributes equally.
    """
    if len(labels) == 0:
        raise ValueError("empty query set")
    if all_scores.ndim != 2 or all_scores.shape[0] != len(labels):
        raise ValueError(f"scores of shape {all_scores.shape} but "
                         f"{len(labels)} labels")
    labels = np.asarray(labels)
    classes, inverse, counts = np.unique(labels, return_inverse=True,
                                         return_counts=True)
    weights = 1.0 / (len(classes) * counts[inverse])
    return nm.cross_entropy(all_scores, labels, weights)


def init_classifier_arrays(num_base_classes: int, embed_dim: int,
                           rng: np.random.Generator) -> dict:
    """Fresh classifier arrays: small-normal weight rows, tau at its default."""
    return {
        "w_base": rng.normal(0.0, W_BASE_INIT_STD,
                             (num_base_classes, embed_dim)),
        "log_tau": np.array(np.log(TAU_INIT)),
    }
