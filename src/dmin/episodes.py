"""Datasets, base/novel splits, and C-way K-shot episode sampling.

A :class:`Dataset` holds each labeled payload once, with dense integer
class ids: a vector dataset's payloads are one read-only (N, d) array,
a text dataset's a list of strings.  Episodes draw C classes and K+L
items per class without replacement, and hold their positions in the
dataset's payloads, so a forward reads a batch's vectors with one
``take``.  The order statistics come from a PCG64 generator seeded by
``SeedSequence([seed, episode_index])``, so any episode can be
regenerated on its own, in any order, on any worker.

File formats:

* TSV — one ``label<TAB>text`` record per line, UTF-8, no header.
* JSONL — one ``{"label": ..., "vector": [...]}`` object per line.
"""

from __future__ import annotations

import functools
import json
import logging
import math
import numbers
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .numerics import EPS

log = logging.getLogger(__name__)

_F64_MAX = float(np.finfo(np.float64).max)


class DataError(ValueError):
    """Malformed input data (bad file, bad record, unusable dataset)."""


@dataclass(eq=False)
class Dataset:
    """Labeled payloads with dense class ids in [0, num_classes).

    A vector dataset's ``payloads`` are one read-only (N, d) float64
    array, checked when the dataset is built: finite floating-point rows
    of one shape, given as a list or as one array.  A text dataset's
    payloads are a list of non-blank strings.  ``labels`` is a list of
    ints, refused unless each is an integer in range (:func:`_label_ids`).
    ``class_sizes`` holds each class's item count and ``by_class`` its
    item indices in dataset order, as int64 arrays.  Two datasets compare
    equal only when they are one object: a field-wise ``==`` would ask
    numpy for the truth of an array.
    """

    payloads: list | np.ndarray
    labels: list
    class_names: list
    class_sizes: np.ndarray = field(init=False, repr=False)
    by_class: dict = field(init=False, repr=False)

    def __post_init__(self):
        if len(self.payloads) != len(self.labels):
            raise DataError(
                f"{len(self.payloads)} payloads but {len(self.labels)} labels")
        if not len(self.payloads):
            raise DataError("dataset is empty")
        if isinstance(self.payloads[0], np.ndarray):
            self.payloads = _vector_rows(self.payloads)
        else:
            for i, p in enumerate(self.payloads):
                if not isinstance(p, str) or not p.strip():
                    raise DataError(f"text payload {i} is " + (
                        "blank" if isinstance(p, str)
                        else f"of type {type(p).__name__}, not str"))
        n_classes = len(self.class_names)
        labels = _label_ids(self.labels, n_classes, DataError)
        self.labels = labels.tolist()
        self.class_sizes = np.bincount(labels, minlength=n_classes)
        for c in np.flatnonzero(self.class_sizes == 0).tolist()[:1]:
            raise DataError(
                f"class {c} ({self.class_names[c]!r}) has no items")
        self.by_class = dict(enumerate(np.split(
            np.argsort(labels, kind="stable"),
            np.cumsum(self.class_sizes)[:-1])))

    @property
    def num_classes(self) -> int:
        return len(self.class_names)

    @property
    def num_items(self) -> int:
        return len(self.payloads)

    @property
    def dim(self):
        """Vector dimension, or None for text payloads."""
        return (self.payloads.shape[1]
                if isinstance(self.payloads, np.ndarray) else None)

    def eligible_classes(self, min_items: int) -> np.ndarray:
        """Ids of the classes with at least ``min_items`` items, ascending."""
        return (self.class_sizes >= min_items).nonzero()[0]


def _label_ids(labels, num_classes: int, error=ValueError) -> np.ndarray:
    """``labels`` as an int64 array in [0, num_classes).  The first label
    that is not an integer (a bool is not one) or is out of range is
    refused with a one-line ``error``."""
    ids = np.asarray(labels)
    if (ids.dtype.kind not in "iu" or ids.ndim != 1
            or not isinstance(labels, np.ndarray)
            and not {bool, np.bool_}.isdisjoint(map(type, labels))):
        # numpy reads a float label or a bool as a number: check each one
        items = (labels.tolist() if isinstance(labels, np.ndarray)
                 else list(labels))
        for x in items:
            if isinstance(x, bool) or not isinstance(x, numbers.Integral):
                raise error(f"label {x!r} is not an integer")
            if not 0 <= x < num_classes:
                raise error(f"label {x} out of range for {num_classes} "
                            f"classes")
        return np.array(items, dtype=np.int64)
    bad = ids[(ids < 0) | (ids >= num_classes)].tolist()
    if bad:
        raise error(f"label {bad[0]} out of range for {num_classes} classes")
    return ids.astype(np.int64, copy=False)


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

    Its items are positions in one ``source``, read-only (N, d) vectors or
    a list of text lines (a dataset's ``payloads``, or those it was built
    from): row c of the (C, K) ``support_at`` holds local class c's
    supports, and the (Q,) ``query_at`` the queries, whose labels are
    ``labels``.  :func:`sample_episode` draws them from a dataset,
    :meth:`from_items` builds them from (label, payload) lists.
    ``support`` and ``queries`` list (label, payload) items, and
    ``support_indices`` and ``query_indices`` the positions, made anew on
    each read, so no edit of one reaches a forward.
    """

    def __init__(self, class_ids, source, support_at, query_at, labels):
        self.class_ids, self.source = tuple(class_ids), source
        self.support_at, self.query_at, self.labels = (support_at, query_at,
                                                       labels)

    @classmethod
    def from_items(cls, class_ids, support, queries) -> "Episode":
        """An episode of the (local label, payload) items ``support`` and
        ``queries``, refused with a one-line :class:`ValueError` unless
        every label is an integer in [0, C), every class has the same
        number of supports, at least one, and there is a query.  Vector payloads
        become one checked read-only array (:func:`_vector_rows`); text
        stays a list."""
        way, parts = len(class_ids), (list(support), list(queries))
        labels = _label_ids([lab for part in parts for lab, _ in part], way)
        shots = len(parts[0])
        if shots == len(labels):
            raise ValueError("an episode needs at least one query")
        counts = np.bincount(labels[:shots], minlength=way)
        if not counts.min():
            raise ValueError(f"class {counts.argmin()} has no support")
        if counts.min() != counts.max():
            raise ValueError(f"an episode needs the same number of shots "
                             f"in every class, got {counts.tolist()}")
        source = [payload for part in parts for _, payload in part]
        if isinstance(source[0], np.ndarray):
            source = _vector_rows(source)
        return cls(class_ids, source,
                   np.argsort(labels[:shots], kind="stable").reshape(way, -1),
                   np.arange(shots, len(source)),
                   tuple(labels[shots:].tolist()))

    support_indices = property(lambda self: self.support_at.ravel().tolist())
    query_indices = property(lambda self: self.query_at.tolist())
    support = property(lambda self: [
        (c, self.source[i]) for c, row in enumerate(self.support_at.tolist())
        for i in row])
    queries = property(lambda self: [
        (c, self.source[i]) for c, i in zip(self.labels, self.query_indices)])


@functools.lru_cache(maxsize=16)
def _query_labels(way: int, queries: int) -> tuple:
    """A drawn episode's query labels, one tuple per (way, queries)."""
    return tuple(c for c in range(way) for _ in range(queries))


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
    return Episode(classes, dataset.payloads, picks[:, :cfg.shot],
                   picks[:, cfg.shot:].reshape(-1),
                   _query_labels(cfg.way, cfg.queries))


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
                   labels=np.repeat(np.arange(num_classes), per_class),
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
    return Dataset(payloads=(dataset.payloads.take(rows, axis=0)
                             if dataset.dim is not None else
                             [dataset.payloads[i] for i in rows.tolist()]),
                   labels=labels[rows],
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
