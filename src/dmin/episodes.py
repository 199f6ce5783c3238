"""Datasets, base/novel splits, and C-way K-shot episode sampling.

A :class:`Dataset` is an immutable list of labeled payloads (either raw
text strings or fixed-length vectors) with dense integer class ids; a
vector dataset keeps its vectors as one (N, d) array.  Episodes draw C
classes and K+L items per class without replacement, and hold the
dataset indices they drew, so a forward reads a batch's vectors with one
``take``.  The order statistics come from a PCG64 generator seeded by
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

from .numerics import EPS

log = logging.getLogger(__name__)

_F64_MAX = float(np.finfo(np.float64).max)


class DataError(ValueError):
    """Malformed input data (bad file, bad record, unusable dataset)."""


@dataclass
class Dataset:
    """Labeled payloads with dense class ids in [0, num_classes).

    A vector dataset holds its vectors once, as the read-only (N, d)
    float64 array ``vectors``, checked when the dataset is built: finite
    floating-point rows of one shape, given as a list or as one array.
    Its ``payloads`` are views of those rows.  ``by_class`` holds each
    class's item indices in dataset order, as an int64 array.
    """

    payloads: list
    labels: list
    class_names: list
    vectors: np.ndarray | None = field(init=False, repr=False, compare=False)
    by_class: dict = field(init=False, repr=False, compare=False)
    _eligible: dict = field(init=False, repr=False, compare=False,
                            default_factory=dict)

    def __post_init__(self):
        if len(self.payloads) != len(self.labels):
            raise DataError(
                f"{len(self.payloads)} payloads but {len(self.labels)} labels")
        if not len(self.payloads):
            raise DataError("dataset is empty")
        self.vectors = None
        if isinstance(self.payloads[0], np.ndarray):
            self.vectors = _vector_rows(self.payloads)
            self.payloads = list(self.vectors)
        labels = np.asarray(self.labels)
        if labels.dtype.kind not in "iu":
            labels = np.array([int(c) for c in self.labels])
        self.labels, n_classes = labels.tolist(), len(self.class_names)
        bad = labels[(labels < 0) | (labels >= n_classes)].tolist()
        if bad:
            raise DataError(
                f"label {bad[0]} out of range for {n_classes} classes")
        sizes = np.bincount(labels, minlength=n_classes)
        for c in np.flatnonzero(sizes == 0).tolist()[:1]:
            raise DataError(
                f"class {c} ({self.class_names[c]!r}) has no items")
        self.by_class = dict(enumerate(np.split(
            np.argsort(labels, kind="stable"), np.cumsum(sizes)[:-1])))

    @property
    def num_classes(self) -> int:
        return len(self.class_names)

    @property
    def num_items(self) -> int:
        return len(self.payloads)

    @property
    def dim(self):
        """Vector dimension, or None for text payloads."""
        return None if self.vectors is None else self.vectors.shape[1]

    @property
    def source(self):
        """``vectors``, or the text payloads: what an index reads."""
        return self.payloads if self.vectors is None else self.vectors

    def eligible_classes(self, min_items: int) -> np.ndarray:
        """Ids of the classes with at least ``min_items`` items, ascending,
        as a read-only array kept per ``min_items``: every episode drawn
        from the dataset asks for it."""
        if min_items not in self._eligible:
            ids = np.flatnonzero([len(idx) >= min_items
                                  for idx in self.by_class.values()])
            ids.flags.writeable = False
            self._eligible[min_items] = ids
        return self._eligible[min_items]


def _vector_rows(payloads) -> np.ndarray:
    """Vector payloads as a read-only (N, d) float64 array of their own; a
    :class:`DataError` names the first way in which they are malformed."""
    rows = payloads
    if not isinstance(rows, np.ndarray):
        shapes = sorted({np.shape(p) for p in payloads})  # text: ()
        if len(shapes) > 1:
            raise DataError(f"vector payloads have different shapes "
                            f"{shapes[0]} and {shapes[1]}")
        rows = np.stack(payloads)
    if rows.dtype.kind != "f" or rows.ndim != 2 or not rows.shape[1]:
        raise DataError(f"vector payloads must be floating-point arrays of "
                        f"shape (d,), got {rows.dtype} of shape "
                        f"{rows.shape[1:]}")
    if not math.isfinite(rows.sum()) and not np.isfinite(rows).all():
        bad = np.flatnonzero(~np.isfinite(rows).all(axis=1))[0]
        raise DataError(f"vector payload {bad} is not finite")
    rows = np.array(rows, dtype=np.float64, order="C")
    rows.flags.writeable = False  # so that the checks above stay true
    return rows


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


class Episode:
    """One C-way K-shot task with episode-local labels in [0, C).

    :func:`sample_episode` builds one from its dataset and ``picks``: row
    c holds the dataset indices of local class c's K supports, then of its
    L queries, and ``support_indices`` and ``query_indices`` read them in
    that order.  ``support`` and ``queries`` list (local label, payload)
    items, made from the picks when first read; from then on they are the
    episode's items, and a forward scores what they hold, edits included.
    An episode can also be built from the two lists, with the dataset
    indices that they came from or none.
    """

    def __init__(self, class_ids, support=None, queries=None,
                 support_indices=(), query_indices=(), *, dataset=None,
                 picks=None, shot=0):
        self.class_ids, self.dataset = tuple(class_ids), dataset
        self.picks, self.shot, self._lists = picks, shot, [support, queries]
        self._given = [list(support_indices), list(query_indices)]

    support = property(lambda self: self._items(0))
    queries = property(lambda self: self._items(1))
    support_indices = property(lambda self: self._indices(0))
    query_indices = property(lambda self: self._indices(1))

    def _part(self, part: int) -> np.ndarray:
        return self.picks[:, self.shot:] if part else self.picks[:, :self.shot]

    def _indices(self, part: int) -> list:
        return (self._given[part] if self.picks is None
                else self._part(part).ravel().tolist())

    def _items(self, part: int) -> list:
        if self._lists[part] is None:
            self._lists[part] = [
                (local, self.dataset.payloads[i])
                for local, row in enumerate(self._part(part).tolist())
                for i in row]
        return self._lists[part]

    def drawn(self):
        """``picks`` while neither list has been read, else None."""
        return self.picks if self._lists == [None, None] else None


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
    classes = rng.choice(eligible, size=cfg.way, replace=False).tolist()
    pools = [dataset.by_class[c] for c in classes]
    picks = np.array([pool[rng.choice(len(pool), size=need, replace=False)]
                      for pool in pools])
    return Episode(classes, dataset=dataset, picks=picks, shot=cfg.shot)


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
    literals are refused here rather than failing later in training.  So
    is a vector whose norm is at most ``numerics.EPS``, which no cosine
    can score.
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
            vec = np.asarray(vec, dtype=np.float64)
            if not np.linalg.norm(vec) > EPS:
                raise DataError(
                    f"{path}: line {lineno}: vector has zero norm; cosine "
                    f"scores are undefined")
            names.append(str(record["label"]))
            vectors.append(vec)
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
    """Gaussian blobs around centers on a sphere of radius sep * sigma;
    vectors beyond the float range or of zero norm raise DataError."""
    if num_classes < 1 or per_class < 1 or dim < 1:
        raise ValueError("num_classes, per_class and dim must be positive")
    for name, v in (("separation", separation), ("noise_sigma", noise_sigma)):
        if not (math.isfinite(v) and v > 0):
            raise ValueError(f"{name} must be a finite number > 0, got {v}")
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed])))
    centers = rng.normal(size=(num_classes, dim))
    centers /= np.linalg.norm(centers, axis=1, keepdims=True)
    centers *= separation * noise_sigma
    with np.errstate(over="ignore"):  # an overflow is refused below
        blocks = [centers[c] + rng.normal(0.0, noise_sigma,
                                          size=(per_class, dim))
                  for c in range(num_classes)]
    rows = np.concatenate(blocks)
    if not np.isfinite(rows).all():
        raise DataError(
            f"separation {separation} and noise_sigma {noise_sigma} "
            f"give vectors beyond the float range")
    if not np.sqrt(np.einsum("ij,ij->i", rows, rows)).min() > EPS:
        raise DataError(
            f"separation {separation} and noise_sigma {noise_sigma} "
            f"give vectors of zero norm, which no cosine can score")
    names = [f"class_{c:02d}" for c in range(num_classes)]
    return Dataset(payloads=rows,
                   labels=[c for c in range(num_classes)
                           for _ in range(per_class)],
                   class_names=names)


def subset_by_classes(dataset: Dataset, class_ids: Sequence[int]) -> Dataset:
    """New dataset holding only the given classes, relabeled densely."""
    keep = list(dict.fromkeys(int(c) for c in class_ids))
    for c in keep:
        if not 0 <= c < dataset.num_classes:
            raise ValueError(f"class id {c} out of range")
    remap = np.full(dataset.num_classes, -1)
    remap[keep] = np.arange(len(keep))
    labels = remap[dataset.labels]
    rows = np.flatnonzero(labels >= 0)
    return Dataset(payloads=(dataset.vectors.take(rows, axis=0)
                             if dataset.vectors is not None else
                             [dataset.payloads[i] for i in rows.tolist()]),
                   labels=labels[rows].tolist(),
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
