"""The text encoder and the encoder configuration.

:class:`FeatureHashEncoder` lowercases text, splits on whitespace, hashes
each token with 64-bit FNV-1a into one of ``vocab_buckets`` count buckets,
L2-normalizes the counts, and maps them through a learned projection
followed by tanh.  The projection step gathers only the columns of the
buckets a line's tokens hit (:func:`dmin.numerics.embed`), so an item and
its gradient cost what its tokens cost, not the whole vocabulary.  The
projection is the only trainable piece and participates in both training
stages.

:class:`EncoderConfig` also names the ``"precomputed"`` kind: datasets of
externally computed vectors, which :meth:`dmin.model.Model.encode` passes
through unchanged, so that kind has no encoder object and no parameters.

Hashing is plain arithmetic on documented constants, so bucket
assignment is identical across runs and platforms.  A bounded memo of
each token's bucket keeps repeated tokens from being hashed again.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import numerics as nm
from .numerics import Tensor

FNV_OFFSET = 14695981039346656037
FNV_PRIME = 1099511628211
_MASK64 = (1 << 64) - 1
PROJECTION_INIT_STD = 0.5


def fnv1a64(data: bytes) -> int:
    """64-bit FNV-1a hash (offset 14695981039346656037, prime 1099511628211)."""
    h = FNV_OFFSET
    for byte in data:
        h = ((h ^ byte) * FNV_PRIME) & _MASK64
    return h


# FNV-1a runs byte by byte in Python, so each (token, buckets) pair is
# hashed once; the bound caps the memo at a few MB on a large vocabulary
@functools.lru_cache(maxsize=1 << 14)
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


def hash_counts(text: str, buckets: int) -> np.ndarray:
    """L2-normalized token-count vector over hash buckets."""
    if not isinstance(text, str) or not text.strip():
        raise ValueError("text must be a non-empty string")
    counts = np.zeros(buckets)
    for token in text.lower().split():
        counts[token_bucket(token, buckets)] += 1.0
    return counts / np.linalg.norm(counts)


@dataclass
class FeatureHashEncoder:
    """Trainable text encoder: hashed counts -> projection columns -> tanh."""

    config: EncoderConfig
    projection: Tensor  # (embed_dim, vocab_buckets)

    def __post_init__(self):
        expected = (self.config.embed_dim, self.config.vocab_buckets)
        if self.projection.array.shape != expected:
            raise ValueError(
                f"projection has shape {self.projection.array.shape}, "
                f"expected {expected}")

    def encode(self, item: str) -> Tensor:
        counts = hash_counts(item, self.config.vocab_buckets)
        # nonzero of the bool mask is about 5x faster than of the floats
        ids = (counts != 0).nonzero()[0]
        return nm.tanh(nm.embed(self.projection, ids, counts[ids]))


def init_encoder_arrays(cfg: EncoderConfig, rng: np.random.Generator) -> dict:
    """Fresh trainable arrays for an encoder (empty for precomputed)."""
    if cfg.kind != "feature_hash":
        return {}
    return {"projection": rng.normal(0.0, PROJECTION_INIT_STD,
                                     (cfg.embed_dim, cfg.vocab_buckets))}
