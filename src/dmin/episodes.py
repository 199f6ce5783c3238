"""Datasets, base/novel splits, and C-way K-shot episode sampling.

A :class:`Dataset` is an immutable list of labeled payloads (either raw
text strings or fixed-length vectors) with dense integer class ids.
Episodes draw C classes and K+L items per class without replacement;
the order statistics come from a PCG64 generator seeded by
``SeedSequence([seed, episode_index])``, so any episode can be
regenerated on its own, in any order, on any worker.

File formats:

* TSV — one ``label<TAB>text`` record per line, UTF-8, no header.
* JSONL — one ``{"label": ..., "vector": [...]}`` object per line.
"""

from __future__ import annotations

import json
import logging
import math
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

log = logging.getLogger(__name__)

_F64_MAX = float(np.finfo(np.float64).max)


class DataError(ValueError):
    """Malformed input data (bad file, bad record, unusable dataset)."""


@dataclass
class Dataset:
    """Labeled payloads with dense class ids in [0, num_classes)."""

    payloads: list
    labels: list
    class_names: list
    by_class: dict = field(init=False, repr=False)

    def __post_init__(self):
        if len(self.payloads) != len(self.labels):
            raise DataError(
                f"{len(self.payloads)} payloads but {len(self.labels)} labels")
        if not self.payloads:
            raise DataError("dataset is empty")
        self.labels = [int(c) for c in self.labels]
        n_classes = len(self.class_names)
        self.by_class = {c: [] for c in range(n_classes)}
        for i, c in enumerate(self.labels):
            if not 0 <= c < n_classes:
                raise DataError(
                    f"label {c} out of range for {n_classes} classes")
            self.by_class[c].append(i)
        for c, idx in self.by_class.items():
            if not idx:
                raise DataError(
                    f"class {c} ({self.class_names[c]!r}) has no items")

    @property
    def num_classes(self) -> int:
        return len(self.class_names)

    @property
    def num_items(self) -> int:
        return len(self.payloads)

    @property
    def dim(self):
        """Vector dimension, or None for text payloads."""
        first = self.payloads[0]
        return len(first) if isinstance(first, np.ndarray) else None

    def eligible_classes(self, min_items: int) -> list:
        return [c for c, idx in self.by_class.items()
                if len(idx) >= min_items]


@dataclass(frozen=True)
class EpisodeConfig:
    way: int = 5       # C
    shot: int = 1      # K
    queries: int = 10  # L, per class
    seed: int = 0

    def __post_init__(self):
        if self.way < 2:
            raise ValueError(f"way must be >= 2, got {self.way}")
        if self.shot < 1:
            raise ValueError(f"shot must be >= 1, got {self.shot}")
        if self.queries < 1:
            raise ValueError(f"queries must be >= 1, got {self.queries}")
        if not 0 <= self.seed < 2 ** 64:
            raise ValueError(f"seed must be a 64-bit unsigned int, got "
                             f"{self.seed}")


@dataclass
class Episode:
    """One C-way K-shot task with episode-local labels in [0, C)."""

    class_ids: tuple             # local label -> original class id
    support: list                # C*K of (local_label, payload)
    queries: list                # C*L of (local_label, payload)
    support_indices: list        # dataset indices, aligned with support
    query_indices: list


def episode_rng(seed: int, episode_index: int) -> np.random.Generator:
    """The episode PRNG: PCG64 keyed by (seed, episode_index)."""
    return np.random.Generator(
        np.random.PCG64(np.random.SeedSequence([seed, episode_index])))


def sample_episode(dataset: Dataset, cfg: EpisodeConfig,
                   episode_index: int) -> Episode:
    """Draw C classes, then K support + L query items per class."""
    if episode_index < 0:
        raise ValueError(f"episode_index must be >= 0, got {episode_index}")
    need = cfg.shot + cfg.queries
    eligible = dataset.eligible_classes(need)
    if len(eligible) < cfg.way:
        raise DataError(
            f"need {cfg.way} classes with at least {need} items, dataset has "
            f"{len(eligible)}")
    rng = episode_rng(cfg.seed, episode_index)
    classes = rng.choice(np.array(sorted(eligible)), size=cfg.way,
                         replace=False)
    support, queries, sup_idx, qry_idx = [], [], [], []
    for local, c in enumerate(classes):
        pool = dataset.by_class[int(c)]
        picks = rng.choice(len(pool), size=need, replace=False)
        for p in picks[:cfg.shot]:
            sup_idx.append(pool[int(p)])
            support.append((local, dataset.payloads[pool[int(p)]]))
        for p in picks[cfg.shot:]:
            qry_idx.append(pool[int(p)])
            queries.append((local, dataset.payloads[pool[int(p)]]))
    return Episode(class_ids=tuple(int(c) for c in classes), support=support,
                   queries=queries, support_indices=sup_idx,
                   query_indices=qry_idx)


# ---------------------------------------------------------------------------
# file formats
# ---------------------------------------------------------------------------

def _dense_ids(names: Sequence[str]):
    ids, order = {}, []
    labels = []
    for name in names:
        if name not in ids:
            ids[name] = len(order)
            order.append(name)
        labels.append(ids[name])
    return labels, order


@contextmanager
def _open_utf8(path):
    """``path`` opened as UTF-8 text; a decoding error inside the block
    becomes a DataError naming the file."""
    with open(path, encoding="utf-8") as fh:
        try:
            yield fh
        except UnicodeDecodeError as err:
            raise DataError(f"{path}: not valid UTF-8: {err}") from None


def load_tsv(path) -> Dataset:
    """``label<TAB>text`` per line; labels become ids by first appearance."""
    names, texts = [], []
    with _open_utf8(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.rstrip("\n")
            if not line:
                continue
            label, tab, text = line.partition("\t")
            if not tab or not label or not text.strip():
                raise DataError(
                    f"{path}: line {lineno}: expected 'label<TAB>text', got "
                    f"{line[:50]!r}")
            names.append(label)
            texts.append(text)
    if not texts:
        raise DataError(f"{path}: no records")
    labels, order = _dense_ids(names)
    return Dataset(payloads=texts, labels=labels, class_names=order)


def save_tsv(dataset: Dataset, path) -> None:
    if dataset.dim is not None:
        raise DataError("save_tsv needs text payloads")
    with open(path, "w", encoding="utf-8") as fh:
        for text, label in zip(dataset.payloads, dataset.labels):
            fh.write(f"{dataset.class_names[label]}\t{text}\n")


def load_jsonl_vectors(path) -> Dataset:
    """``{"label": ..., "vector": [...]}`` per line; blank lines skipped.

    Vector entries must be finite numbers: JSON's ``NaN`` and ``Infinity``
    literals are refused here rather than failing later in training.
    """
    names, vectors, skipped = [], [], 0
    dim = None
    with _open_utf8(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                skipped += 1
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as err:
                raise DataError(
                    f"{path}: line {lineno}: invalid JSON: {err}") from None
            if (not isinstance(record, dict) or "label" not in record
                    or "vector" not in record):
                raise DataError(
                    f"{path}: line {lineno}: expected keys 'label' and "
                    f"'vector'")
            vec = record["vector"]
            # abs(x) <= max also refuses NaN, infinities and integers that
            # overflow float64
            if (not isinstance(vec, list)
                    or not all(isinstance(x, (int, float))
                               and not isinstance(x, bool)
                               and abs(x) <= _F64_MAX for x in vec)):
                raise DataError(
                    f"{path}: line {lineno}: vector must be a list of "
                    f"finite numbers")
            if dim is None:
                dim = len(vec)
            elif len(vec) != dim:
                raise DataError(
                    f"{path}: line {lineno}: vector has dimension "
                    f"{len(vec)}, earlier records have {dim}")
            names.append(str(record["label"]))
            vectors.append(np.asarray(vec, dtype=np.float64))
    if not vectors:
        raise DataError(f"{path}: no records")
    if skipped:
        log.warning("%s: skipped %d blank line(s)", path, skipped)
    labels, order = _dense_ids(names)
    return Dataset(payloads=vectors, labels=labels, class_names=order)


def save_jsonl_vectors(dataset: Dataset, path) -> None:
    if dataset.dim is None:
        raise DataError("save_jsonl_vectors needs vector payloads")
    with open(path, "w", encoding="utf-8") as fh:
        for vec, label in zip(dataset.payloads, dataset.labels):
            fh.write(json.dumps({"label": dataset.class_names[label],
                                 "vector": [float(x) for x in vec]}) + "\n")


# ---------------------------------------------------------------------------
# synthetic data and splits
# ---------------------------------------------------------------------------

def gen_synthetic(num_classes: int, per_class: int, dim: int,
                  separation: float, noise_sigma: float,
                  seed: int) -> Dataset:
    """Gaussian blobs around centers on a sphere of radius sep * sigma."""
    if num_classes < 1 or per_class < 1 or dim < 1:
        raise ValueError("num_classes, per_class and dim must be positive")
    for name, v in (("separation", separation), ("noise_sigma", noise_sigma)):
        if not (math.isfinite(v) and v > 0):
            raise ValueError(f"{name} must be a finite number > 0, got {v}")
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed])))
    centers = rng.normal(size=(num_classes, dim))
    centers /= np.linalg.norm(centers, axis=1, keepdims=True)
    centers *= separation * noise_sigma
    payloads, labels = [], []
    with np.errstate(over="ignore"):  # an overflow is refused below
        for c in range(num_classes):
            noise = rng.normal(0.0, noise_sigma, size=(per_class, dim))
            rows = centers[c] + noise
            if not np.isfinite(rows).all():
                raise DataError(
                    f"separation {separation} and noise_sigma {noise_sigma} "
                    f"give vectors beyond the float range")
            for row in rows:
                payloads.append(row)
                labels.append(c)
    names = [f"class_{c:02d}" for c in range(num_classes)]
    return Dataset(payloads=payloads, labels=labels, class_names=names)


def subset_by_classes(dataset: Dataset, class_ids: Sequence[int]) -> Dataset:
    """New dataset holding only the given classes, relabeled densely."""
    keep = list(dict.fromkeys(int(c) for c in class_ids))
    for c in keep:
        if not 0 <= c < dataset.num_classes:
            raise ValueError(f"class id {c} out of range")
    remap = {c: i for i, c in enumerate(keep)}
    payloads, labels = [], []
    for i, c in enumerate(dataset.labels):
        if c in remap:
            payloads.append(dataset.payloads[i])
            labels.append(remap[c])
    return Dataset(payloads=payloads, labels=labels,
                   class_names=[dataset.class_names[c] for c in keep])


def split_base_novel(dataset: Dataset, num_base: int,
                     seed: int = 0) -> tuple:
    """Seeded class shuffle; first ``num_base`` classes become the base set."""
    if not 1 <= num_base < dataset.num_classes:
        raise ValueError(
            f"num_base must be in [1, {dataset.num_classes - 1}], got "
            f"{num_base}")
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed])))
    order = rng.permutation(dataset.num_classes)
    base = subset_by_classes(dataset, order[:num_base])
    novel = subset_by_classes(dataset, order[num_base:])
    return base, novel
