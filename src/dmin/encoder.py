"""The text encoder's hashing and the encoder configuration.

The ``"feature_hash"`` encoder lowercases text, splits on whitespace,
hashes each token with 64-bit FNV-1a into one of ``vocab_buckets`` count
buckets, L2-normalizes the counts, and maps them through a learned
projection followed by tanh.  A line's counts are kept sparse, as the ids
of the buckets its tokens hit and their normalized weights
(:func:`hash_counts`), and :meth:`dmin.model.Model.encode` makes one
``embed`` node that gathers only those projection columns and applies the
tanh, so an item and its gradient cost what its tokens cost, not the
whole vocabulary, and an encoded line is one tape node.  The projection
is the only trainable piece and participates in both training stages.

:class:`EncoderConfig` also names the ``"precomputed"`` kind: datasets of
externally computed vectors, which :meth:`dmin.model.Model.encode` passes
through unchanged, so that kind has no parameters.

Hashing is plain arithmetic on documented constants, so bucket
assignment is identical across runs and platforms.  Bounded memos of
each token's bucket and of each line's sparse weights, 16,384 entries
each, keep a repeated token or line from being hashed again.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

FNV_OFFSET = 14695981039346656037
FNV_PRIME = 1099511628211
_MASK64 = (1 << 64) - 1
PROJECTION_INIT_STD = 0.5
_MEMO_ENTRIES = 1 << 14  # the bound of each hashing memo
# hash buckets a config may declare: the projection is (embed_dim, buckets)
MAX_VOCAB_BUCKETS = 1 << 20
# projection entries a config may declare: 64 x MAX_VOCAB_BUCKETS, 512 MiB
MAX_PROJECTION_ENTRIES = 1 << 26


def fnv1a64(data: bytes) -> int:
    """64-bit FNV-1a hash (offset 14695981039346656037, prime 1099511628211)."""
    h = FNV_OFFSET
    for byte in data:
        h = ((h ^ byte) * FNV_PRIME) & _MASK64
    return h


# FNV-1a runs byte by byte in Python, so each (token, buckets) pair is
# hashed once; the bound caps the memo at a few MB on a large vocabulary
@functools.lru_cache(maxsize=_MEMO_ENTRIES)
def token_bucket(token: str, buckets: int) -> int:
    return fnv1a64(token.encode("utf-8")) % buckets


@dataclass(frozen=True)
class EncoderConfig:
    kind: str = "feature_hash"  # "feature_hash" or "precomputed"
    embed_dim: int = 64
    vocab_buckets: int = 4096

    def __post_init__(self):
        if self.kind not in ("feature_hash", "precomputed"):
            raise ValueError(
                f"kind must be 'feature_hash' or 'precomputed', got "
                f"{self.kind!r}")
        if self.embed_dim < 2:
            raise ValueError(f"embed_dim must be >= 2, got {self.embed_dim}")
        if self.kind == "feature_hash" and self.vocab_buckets < self.embed_dim:
            raise ValueError(
                f"vocab_buckets ({self.vocab_buckets}) must be >= embed_dim "
                f"({self.embed_dim})")
        if self.kind == "feature_hash" and \
                self.vocab_buckets > MAX_VOCAB_BUCKETS:
            raise ValueError(f"vocab_buckets must be <= {MAX_VOCAB_BUCKETS}, "
                             f"got {self.vocab_buckets}")
        entries = self.embed_dim * self.vocab_buckets
        if self.kind == "feature_hash" and entries > MAX_PROJECTION_ENTRIES:
            raise ValueError(f"embed_dim * vocab_buckets must be <= "
                             f"{MAX_PROJECTION_ENTRIES}, got {entries}")


def hash_counts(text: str, buckets: int) -> tuple[np.ndarray, np.ndarray]:
    """A line's L2-normalized token counts over hash buckets, sparse.

    Returns ``(ids, weights)``: the strictly increasing int64 ids, in
    ``[0, buckets)``, of the buckets the line's tokens hit, and the
    normalized counts at those ids, one positive finite float64 each: the
    nonzero entries of the dense count vector divided by its norm, bit
    for bit.  Both arrays are read-only and shared by every call on the
    same line.  :meth:`dmin.model.Model.encode` relies on these
    guarantees and embeds them without checking them again.
    """
    if not isinstance(text, str) or not text.strip():
        raise ValueError("text must be a non-empty string")
    return _line_weights(text, buckets)


# A line is hashed once per bucket count; an entry holds two short arrays
# (about 600 B for a six-token line), so the bound caps this memo near
# 10 MB
@functools.lru_cache(maxsize=_MEMO_ENTRIES)
def _line_weights(text: str, buckets: int) -> tuple[np.ndarray, np.ndarray]:
    ids, counts = np.unique(
        [token_bucket(token, buckets) for token in text.lower().split()],
        return_counts=True)
    # a sum of squares of small integers is exact, so this is the dense
    # vector's norm to the bit
    weights = counts / np.sqrt(float(counts @ counts))
    ids.flags.writeable = weights.flags.writeable = False
    return ids, weights


def init_encoder_arrays(cfg: EncoderConfig, rng: np.random.Generator) -> dict:
    """Fresh trainable arrays for an encoder (empty for precomputed)."""
    if cfg.kind != "feature_hash":
        return {}
    return {"projection": rng.normal(0.0, PROJECTION_INIT_STD,
                                     (cfg.embed_dim, cfg.vocab_buckets))}
