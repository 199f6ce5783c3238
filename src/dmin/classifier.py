"""Cosine classifier with a learnable temperature, plus the two losses.

The same classifier scores both stages of training: against the base
weight matrix during supervised pretraining, and against induced class
vectors during episodic training.  Scores are ``tau * cos(e, w)``; the
temperature is stored as ``log tau`` so it stays positive no matter
what the optimizer does.
"""

from __future__ import annotations

from dataclasses import dataclass
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

    def __post_init__(self):
        if self.w_base.array.ndim != 2:
            raise ValueError(
                f"w_base must be rank-2, got shape {self.w_base.array.shape}")
        if self.log_tau.array.ndim != 0:
            raise ValueError(
                f"log_tau must be a scalar, got shape "
                f"{self.log_tau.array.shape}")

    @property
    def num_base_classes(self) -> int:
        return self.w_base.array.shape[0]

    @property
    def embed_dim(self) -> int:
        return self.w_base.array.shape[1]

    def tau(self) -> Tensor:
        return nm.exp(self.log_tau)


def _check_nonzero(vec: Tensor, what: str) -> None:
    if float(np.linalg.norm(vec.array)) <= EPS:
        raise ValueError(f"{what} has zero norm; cosine scores are undefined")


def base_scores(clf: CosineClassifier, e: Tensor) -> Tensor:
    """Scaled cosine of ``e`` against every base-class weight row."""
    _check_nonzero(e, "input vector")
    if e.array.shape != (clf.embed_dim,):
        raise ValueError(
            f"input has shape {e.array.shape}, classifier expects "
            f"({clf.embed_dim},)")
    return nm.mul(clf.tau(), nm.cosine(clf.w_base, e))


def few_scores(clf: CosineClassifier, e_q: Tensor, class_vectors) -> Tensor:
    """Scaled cosine of a query against per-episode class vectors."""
    _check_nonzero(e_q, "query vector")
    if isinstance(class_vectors, Tensor):
        mat = class_vectors
    else:
        if len(class_vectors) < 2:
            raise ValueError(
                f"need at least 2 class vectors, got {len(class_vectors)}")
        mat = nm.stack_rows(class_vectors)
    if mat.array.shape[0] < 2:
        raise ValueError(
            f"need at least 2 class vectors, got {mat.array.shape[0]}")
    if mat.array.shape[1] != e_q.array.shape[0]:
        raise ValueError(
            f"class vectors have dimension {mat.array.shape[1]}, query has "
            f"{e_q.array.shape[0]}")
    return nm.mul(clf.tau(), nm.cosine(mat, e_q))


def loss_supervised(scores: Tensor, label: int) -> Tensor:
    """Cross-entropy of softmaxed scores against a one-hot label."""
    n = scores.array.shape[0]
    if not 0 <= label < n:
        raise ValueError(f"label {label} out of range for {n} classes")
    return nm.sub(nm.logsumexp(scores), nm.index(scores, label))


def loss_episode(all_scores: Sequence[Tensor],
                 labels: Sequence[int]) -> Tensor:
    """Mean over classes of the mean cross-entropy of that class's queries.

    With the same number of queries per class this equals the flat mean;
    with uneven counts every class still contributes equally.
    """
    if len(all_scores) == 0:
        raise ValueError("empty query set")
    if len(all_scores) != len(labels):
        raise ValueError(
            f"{len(all_scores)} score vectors but {len(labels)} labels")
    by_class: dict[int, list[Tensor]] = {}
    for scores, label in zip(all_scores, labels):
        by_class.setdefault(int(label), []).append(
            loss_supervised(scores, int(label)))
    class_means = []
    for label in sorted(by_class):
        losses = by_class[label]
        total = losses[0]
        for extra in losses[1:]:
            total = nm.add(total, extra)
        class_means.append(nm.scale(total, 1.0 / len(losses)))
    overall = class_means[0]
    for extra in class_means[1:]:
        overall = nm.add(overall, extra)
    return nm.scale(overall, 1.0 / len(class_means))


def init_classifier_arrays(num_base_classes: int, embed_dim: int,
                           rng: np.random.Generator) -> dict:
    """Fresh classifier arrays: small-normal weight rows, tau at its default."""
    return {
        "w_base": rng.normal(0.0, W_BASE_INIT_STD,
                             (num_base_classes, embed_dim)),
        "log_tau": np.array(np.log(TAU_INIT)),
    }
