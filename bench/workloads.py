"""The three benchmark workloads.

Each workload drives only the public stage functions of
:mod:`dmin.harness` (``pretrain``, ``meta_train``, ``evaluate``).  Set-up
is everything before the timed stage call; one timed call runs a fixed
number of steps, and the benchmark repeats calls until its time is up.
Every input comes from the workload seed, so the same seed gives the
same inputs; a call's own seed is derived from the workload seed and
the call index, so successive calls see fresh episodes or batches.

Why these three (see ``PREDICTIONS.md`` for what each should show):

* ``meta_train_5w1s`` is stage 2 of the criterion-4 fixture, almost all
  of the reference run; QIM routing and tape backward dominate it.
* ``eval_5w5s`` is forward-only (no tape, no Adam) and routes 5 memory
  rows per QIM call; it is the only workload that runs the evaluation
  thread pool.
* ``pretrain_text`` makes no routing call at all; it is the only
  workload that uses the hashing encoder, and backward there is made of
  64 x 4096 outer products.
"""

from __future__ import annotations

import hashlib
import json
import math
import statistics
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from dmin import model as dmodel
from dmin.encoder import EncoderConfig
from dmin.classifier import loss_episode
from dmin.episodes import (Dataset, EpisodeConfig, gen_synthetic,
                           sample_episode, split_base_novel)
from dmin.harness import (EvalSettings, RoutingPair, Stage1Config,
                          Stage2Config, TrainConfig, episode_forward,
                          evaluate, meta_train, model_config_from, pretrain)
from dmin.model import init_model
from dmin.routing import RoutingConfig

HERE = Path(__file__).resolve().parent
FIXTURE = HERE / "fixture" / "c4_model.ckpt"
FIXTURE_RECORD = HERE / "fixture" / "c4_model.json"

# The criterion-4 fixture of tests/test_acceptance.py.
C4_DATA = (30, 50, 32, 6.0, 1.0)
C4_NUM_BASE = 20
C4_PAIR = RoutingPair(
    dmm=RoutingConfig(32, capsule_count=2, capsule_dim=16, iterations=2),
    qim=RoutingConfig(32, capsule_count=2, capsule_dim=16, iterations=2))
C4_CONFIG = TrainConfig(
    stage1=Stage1Config(steps=600, batch_size=32, learning_rate=1e-3),
    stage2=Stage2Config(episodes=1000, learning_rate=1e-3, C=5, K=1, L=5),
    eval=EvalSettings(episodes=100, queries_per_class=10),
    encoder=EncoderConfig(kind="precomputed", embed_dim=32),
    routing=C4_PAIR, seed=1, num_base=C4_NUM_BASE, meta_source="novel")


def call_seed(seed: int, index: int) -> int:
    """Seed of timed call ``index`` in a run with workload seed ``seed``."""
    return seed * 10_000 + index


def snapshot(model):
    return {name: arr.copy() for name, arr in model.params.items()}


def restore(model, saved) -> None:
    for name, arr in saved.items():
        model.params[name] = arr.copy()


PROBE_EPISODES = 8
PROBE_CALL = 9999  # a call index no run reaches, so no call draws these


def probe_loss(model, dataset, seed: int) -> float:
    """Mean episode loss of the model on fixed 5-way 1-shot episodes."""
    ep_cfg = EpisodeConfig(way=5, shot=1, queries=5,
                           seed=call_seed(seed, PROBE_CALL))
    tensors = model.tensors()
    total = 0.0
    for index in range(PROBE_EPISODES):
        episode = sample_episode(dataset, ep_cfg, index)
        scores, labels = episode_forward(model, tensors, episode, frozenset())
        total += loss_episode(scores, labels).item()
    return total / PROBE_EPISODES


@dataclass
class Output:
    """What one timed call produced; compared exactly between runs."""

    losses: tuple = ()
    accuracies: tuple = ()


class MetaTrain5w1s:
    """``meta_train`` at C=5, K=1, L=5, lr 1e-3 on the criterion-4 novel
    split, after the fixture's 600-step supervised pretraining."""

    name = "meta_train_5w1s"
    steps_per_call = 5       # training episodes per meta_train call
    trains = True
    pooled = False

    def setup(self, seed: int):
        dataset = gen_synthetic(*C4_DATA, seed=seed)
        base, novel = split_base_novel(dataset, C4_NUM_BASE, seed=seed)
        cfg = replace(C4_CONFIG, seed=seed,
                      stage2=replace(C4_CONFIG.stage2,
                                     episodes=self.steps_per_call))
        model = pretrain(base, cfg).model
        return {"model": model, "novel": novel, "cfg": cfg,
                "initial": snapshot(model)}

    def call(self, state, seed: int) -> Output:
        result = meta_train(state["model"], state["novel"],
                            replace(state["cfg"], seed=seed))
        return Output(losses=tuple(result.losses))

    def check(self, state, outputs) -> list:
        losses = [x for out in outputs for x in out.losses]
        if not all(math.isfinite(x) for x in losses):
            return ["a training loss is not finite"]
        # Successive episodes differ, so training losses are too noisy to
        # show a short run's progress; fixed probe episodes are not.
        model = state["model"]
        before = probe_loss(dmodel.Model(model.config, state["initial"]),
                            state["novel"], state["cfg"].seed)
        after = probe_loss(model, state["novel"], state["cfg"].seed)
        if not after < before:
            return [f"loss did not fall: probe loss {before:.4f} before the "
                    f"run, {after:.4f} after"]
        return []


class Eval5w5s:
    """``evaluate`` at 5-way 5-shot, 10 queries per class, on the novel
    split of the criterion-4 dataset, from the fixture checkpoint.  The
    workload seed varies only the evaluation episode seed, because the
    checkpoint is tied to that dataset."""

    name = "eval_5w5s"
    steps_per_call = 8       # evaluation episodes per evaluate call
    trains = False
    pooled = True
    min_accuracy = 0.95      # 0.9990 measured over 40 episodes

    def setup(self, seed: int):
        record = json.loads(FIXTURE_RECORD.read_text(encoding="utf-8"))
        digest = hashlib.sha256(FIXTURE.read_bytes()).hexdigest()
        if digest != record["sha256"]:
            raise RuntimeError(
                f"{FIXTURE.name}: sha256 {digest} does not match the "
                f"recorded {record['sha256']}; regenerate it with "
                f"bench/make_fixture.py")
        dataset = gen_synthetic(*C4_DATA, seed=C4_CONFIG.seed)
        _, novel = split_base_novel(dataset, C4_NUM_BASE,
                                    seed=C4_CONFIG.seed)
        # looked up on the module so that the tracer can wrap it
        model = dmodel.load_checkpoint(FIXTURE)
        return {"model": model, "novel": novel}

    def call(self, state, seed: int) -> Output:
        report = evaluate(state["model"], state["novel"], C4_CONFIG,
                          episodes=self.steps_per_call, way=5, shot=5,
                          queries=10, seed=seed)
        return Output(accuracies=tuple(report.per_episode))

    def check(self, state, outputs) -> list:
        accs = [a for out in outputs for a in out.accuracies]
        mean = statistics.fmean(accs)
        if mean < self.min_accuracy:
            return [f"mean accuracy {mean:.4f} < {self.min_accuracy}"]
        return []


TEXT_TOPICS = 20
TEXT_LINES = 50
TEXT_TOPIC_WORDS = 10
TEXT_SHARED_WORDS = 40


def text_corpus(seed: int) -> Dataset:
    """Topic lines in the style of ``demos/05_text_pipeline.py``.

    Each topic has its own small vocabulary of made-up words; a line
    takes four words of its topic and two from a vocabulary shared by
    all topics, in random order.
    """
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(
        [seed, 5])))
    letters = np.array(list("abcdefghijklmnopqrstuvwxyz"))

    def word():
        return "".join(rng.choice(letters, size=int(rng.integers(4, 10))))

    shared = [word() for _ in range(TEXT_SHARED_WORDS)]
    payloads, labels = [], []
    for topic in range(TEXT_TOPICS):
        own = [word() for _ in range(TEXT_TOPIC_WORDS)]
        for _ in range(TEXT_LINES):
            words = (list(rng.choice(own, size=4, replace=False))
                     + list(rng.choice(shared, size=2, replace=False)))
            rng.shuffle(words)
            payloads.append(" ".join(words))
            labels.append(topic)
    return Dataset(payloads=payloads, labels=labels,
                   class_names=[f"topic_{t:02d}" for t in range(TEXT_TOPICS)])


class PretrainText:
    """``pretrain`` with batch 32 on a 20-topic x 50-line text corpus and
    the default encoder (feature hashing, 64 x 4096).  A call includes
    ``pretrain``'s closing train-accuracy pass over the whole corpus."""

    name = "pretrain_text"
    steps_per_call = 20      # supervised batches per pretrain call
    trains = True
    pooled = False
    min_train_accuracy = 0.95  # 0.93 after 40 steps, 0.996 after 80

    def setup(self, seed: int):
        dataset = text_corpus(seed)
        cfg = TrainConfig(stage1=Stage1Config(steps=self.steps_per_call,
                                              batch_size=32,
                                              learning_rate=1e-3),
                          encoder=EncoderConfig(), seed=seed)
        model = init_model(model_config_from(cfg, dataset.num_classes),
                           seed=seed)
        return {"model": model, "dataset": dataset, "cfg": cfg}

    def call(self, state, seed: int) -> Output:
        result = pretrain(state["dataset"], replace(state["cfg"], seed=seed),
                          model=state["model"])
        return Output(losses=tuple(result.losses),
                      accuracies=(result.train_accuracy,))

    def check(self, state, outputs) -> list:
        problems = []
        first, last = outputs[0].losses, outputs[-1].losses
        if not all(math.isfinite(x) for out in outputs for x in out.losses):
            problems.append("a training loss is not finite")
        elif len(outputs) > 1 and not (statistics.fmean(last)
                                       < statistics.fmean(first)):
            problems.append(
                f"loss did not fall: first call mean "
                f"{statistics.fmean(first):.4f}, last call "
                f"{statistics.fmean(last):.4f}")
        acc = outputs[-1].accuracies[0]
        if acc < self.min_train_accuracy:
            problems.append(f"train accuracy {acc:.4f} < "
                            f"{self.min_train_accuracy}")
        return problems


WORKLOADS = {w.name: w for w in (MetaTrain5w1s(), Eval5w5s(), PretrainText())}
