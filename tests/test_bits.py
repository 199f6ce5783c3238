"""Digests of results that later changes must reproduce bit for bit.

Each test recomputes one result from fixed inputs and compares the sha256
of its bytes.  Evaluation scores and training steps pass through matrix
products, so CI runs these tests on one BLAS thread as well as on its
default.
"""

import hashlib
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from dmin.encoder import EncoderConfig
from dmin.episodes import (Dataset, EpisodeConfig, gen_synthetic,
                           sample_episode, split_base_novel)
from dmin.harness import (Stage2Config, TrainConfig, episode_scores,
                          meta_train, model_config_from)
from dmin.model import init_model, load_checkpoint

BENCH = Path(__file__).resolve().parents[1] / "bench"
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402

FIXTURE = BENCH / "fixture" / "c4_model.ckpt"
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


# stage 2 on _text(): 4-way 2-shot episodes at 3 queries, through a
# 16 x 256 hash encoder
TEXT_CONFIG = TrainConfig(
    stage2=Stage2Config(episodes=4, learning_rate=1e-3, C=4, K=2, L=3),
    encoder=EncoderConfig(embed_dim=16, vocab_buckets=256), seed=11)


def _text_model():
    return init_model(model_config_from(TEXT_CONFIG, 8), seed=5)


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


def test_text_evaluation_scores():
    """``episode_scores`` of a fresh feature-hash model on 30 text
    episodes at 4-way 2-shot: every line through the hash encoder."""
    model, text = _text_model(), _text()
    tensors, digest = model.tensors(), hashlib.sha256()
    for index in range(EPISODES):
        episode = sample_episode(text, EpisodeConfig(4, 2, 3, 11), index)
        scores, _ = episode_scores(model, tensors, episode, frozenset())
        digest.update(scores.array.tobytes())
    assert digest.hexdigest() == \
        "db9aac048710b8183e1852d25de89ce7e6237117f3e826fee4e33a8250679274"


def test_text_meta_training_parameters():
    """``param_digest`` after 4 ``meta_train`` episodes on text from a
    fresh feature-hash model: the projection's gradient reaches stage 2."""
    model = _text_model()
    meta_train(model, _text(), TEXT_CONFIG)
    assert model.param_digest() == \
        "c62a44e0f293232477013608415bbf413a0ec37bf1d08f0a3d2b45205cac622b"


def test_stage1_text_parameters():
    """``param_digest`` after the ``pretrain_text`` benchmark workload's
    set-up with seed 3 and its calls with seeds 0, 1 and 2: 60 steps of
    stage 1 on text, through the hash encoder and Adam's live columns."""
    work = workloads.PretrainText()
    state = work.setup(3)
    for seed in range(3):
        work.call(state, seed)
    assert state["model"].param_digest() == \
        "59bc931de7ff488c275d1ae7045932ed16d1f3a46b6e2f24fcc577518b026284"


def test_fixture_meta_training_parameters():
    """``param_digest`` after 5 ``meta_train`` episodes at 5-way 1-shot
    from the fixture checkpoint on its novel split."""
    model = load_checkpoint(FIXTURE)
    cfg = workloads.C4_CONFIG
    meta_train(model, _novel(),
               replace(cfg, stage2=replace(cfg.stage2, episodes=5)))
    assert model.param_digest() == \
        "0fe5bddb843cf16991f392757028ab4762606b194d68e68fe0f4d5663b358611"
