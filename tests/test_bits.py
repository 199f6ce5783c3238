"""Digests of results that later changes must reproduce bit for bit.

Each test recomputes one result from fixed inputs and compares the sha256
of its bytes.  Evaluation scores pass through stacked matrix products, so
CI runs this file on one BLAS thread as well as on its default.
"""

import hashlib
from pathlib import Path

import numpy as np
import pytest

from dmin.episodes import (Dataset, EpisodeConfig, gen_synthetic,
                           sample_episode, split_base_novel)
from dmin.harness import episode_scores
from dmin.model import load_checkpoint

FIXTURE = Path(__file__).resolve().parents[1] / "bench" / "fixture" / \
    "c4_model.ckpt"
EPISODES = 30


def _novel():
    """The criterion-4 fixture's novel split."""
    return split_base_novel(gen_synthetic(30, 50, 32, 6.0, 1.0, seed=1), 20,
                            seed=1)[1]


def _text():
    names = [f"t{c}" for c in range(8)]
    return Dataset(payloads=[f"topic{c} item{i} word{c * i % 7}"
                             for c in range(8) for i in range(12)],
                   labels=[c for c in range(8) for _ in range(12)],
                   class_names=names)


def test_fixture_evaluation_scores():
    """``episode_scores`` of the fixture model on 30 novel 5-way 5-shot
    episodes at 10 queries."""
    model, novel = load_checkpoint(FIXTURE), _novel()
    tensors, digest = model.tensors(), hashlib.sha256()
    for index in range(EPISODES):
        episode = sample_episode(novel, EpisodeConfig(5, 5, 10, 7), index)
        scores, _ = episode_scores(model, tensors, episode, frozenset())
        digest.update(scores.array.tobytes())
    assert digest.hexdigest() == \
        "20b1bf47bc4e65e7acff03fe60895ed5ce7b2286bfbf0327aaa0978e599f6e62"


@pytest.mark.parametrize("data, cfg, indices, items", [
    (_novel, EpisodeConfig(5, 5, 10, 7),
     "7039c369525afe400cbb35b6543bae8da60cc06de5dacc236b1cdf4d9b9e87c3",
     "135b6ceaa8f68a731ced7821f8ef1bf5e209a38f6bed79554b760bcf1d8dd727"),
    (_novel, EpisodeConfig(5, 1, 5, 7),
     "3596c06732aed3ac2fb31bdd877493a73efe33c92b7c6ec094d42382b072ece2",
     "64e4ded06c7c6785fa3e17664fafed22d204e40dace376f590488046286b99c2"),
    (_text, EpisodeConfig(4, 2, 3, 11),
     "1251b190a6a5ee0a2616991aa79ac3971b4a902e9ef420d274ca7cf2aa374874",
     "5452a78f057edd7295f1d2f6b756cb72951b060682941307fcdfcfdca88e9726"),
], ids=["5w5s", "5w1s", "text"])
def test_episode_draws(data, cfg, indices, items):
    """30 episodes' dataset indices, and their (label, payload) items."""
    dataset = data()
    by_index, by_item = hashlib.sha256(), hashlib.sha256()
    for index in range(EPISODES):
        episode = sample_episode(dataset, cfg, index)
        by_index.update(np.asarray(episode.support_indices
                                   + episode.query_indices, np.int64)
                        .tobytes())
        for label, payload in episode.support + episode.queries:
            by_item.update(np.int64(label).tobytes())
            by_item.update(payload.tobytes() if dataset.dim
                           else payload.encode())
    assert (by_index.hexdigest(), by_item.hexdigest()) == (indices, items)
