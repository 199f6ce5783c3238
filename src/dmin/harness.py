"""Two-stage training, evaluation protocol, ablations, and reports.

Stage 1 (:func:`pretrain`) fits the encoder, the base weight rows and
the temperature with a supervised cross-entropy over base classes; its
batches and its closing accuracy pass encode as an episode does (below).
Stage 2 (:func:`meta_train`) draws C-way K-shot episodes and trains
every parameter through the full pipeline: encode, adapt supports
against the base weight rows, induce a per-query class vector from the
adapted supports, score by scaled cosine, and minimize the episode
loss.  Ablations cut individual pieces: ``no_dmm`` skips adaptation,
``no_qim`` replaces induction with the mean of the adapted supports;
combined they reduce to a prototypical mean-of-supports baseline.

Training (:func:`episode_forward`) and evaluation
(:func:`episode_scores`) share one episode forward: both stack the
supports and queries, score one (Q, C) Tensor with one
:func:`few_scores` call and hand it to :func:`loss_episode`.  An episode
holds the positions of its items in one source, and a vector episode's
supports and queries are two ``take``s from that (N, d) array
(training's per-pair calls take views of their rows); text is encoded
line by line and stacked.  They differ only in the two routing steps.
Evaluation scores a batch of episodes at a time with an episode axis in
front of every stack, and makes 2 routing calls per batch: one adapts
every support, and one induces every (query, class) vector.  Training
routes each support and each (query, class) pair in its own call, and
stacks the outputs, until the benchmark counts routed pairs instead of
calls (ROADMAP item 1).

Evaluation is forward-only and runs its batches one after another in
the caller's thread, under the caller's numpy error state.  Every episode
is regenerated from ``(seed, episode_index)`` and gets the same bits in
any batch, so an episode's accuracy does not depend on how many episodes
run or in what order.
"""

from __future__ import annotations

import csv
import hashlib
import json
import logging
import time
from dataclasses import asdict, dataclass, replace

import numpy as np

from . import numerics as nm
from .classifier import few_scores, loss_episode, loss_supervised, base_scores
from .encoder import EncoderConfig
from .episodes import (DataError, Dataset, EpisodeConfig, Episode,
                       sample_episode, split_base_novel)
from .model import Adam, Model, ModelConfig, config_from_dict, init_model
from .routing import RoutingConfig, dmm_adapt, qim_induce
from .silhouette import silhouette_score

log = logging.getLogger(__name__)

ABLATIONS = ("full", "no_dmm", "no_qim", "no_dmm+no_qim")
MAX_EVAL_EPISODES = 1_000_000  # evaluate keeps one accuracy per episode
# the bytes that the largest routed copy of an evaluation batch may take:
# 1.25 MiB stays within a 2 MiB L2 cache
EVAL_BATCH_BYTES = 5 * 2 ** 18


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Stage1Config:
    steps: int = 500
    batch_size: int = 32
    learning_rate: float = 1e-3


@dataclass(frozen=True)
class Stage2Config:
    episodes: int = 300
    learning_rate: float = 1e-4
    C: int = 5
    K: int = 1
    L: int = 10


@dataclass(frozen=True)
class EvalSettings:
    episodes: int = 100
    queries_per_class: int = 10


@dataclass(frozen=True)
class RoutingPair:
    dmm: RoutingConfig
    qim: RoutingConfig
    share_params: bool = False

    def __post_init__(self):
        if self.share_params and self.dmm != self.qim:
            raise ValueError("share_params requires identical dmm and qim "
                             "configs")


@dataclass(frozen=True)
class TrainConfig:
    stage1: Stage1Config = Stage1Config()
    stage2: Stage2Config = Stage2Config()
    eval: EvalSettings = EvalSettings()
    encoder: EncoderConfig = EncoderConfig(kind="precomputed", embed_dim=32)
    routing: RoutingPair | None = None  # None: 4 capsules, 3 iterations
    seed: int = 0
    ablation: str = "full"
    num_base: int | None = None   # base classes when splitting one dataset
    meta_source: str = "novel"    # which split feeds stage-2 episodes
    freeze_tau: bool = False

    def __post_init__(self):
        if self.ablation not in ABLATIONS:
            raise ValueError(
                f"ablation must be one of {ABLATIONS}, got {self.ablation!r}")
        if self.meta_source not in ("base", "novel"):
            raise ValueError(
                f"meta_source must be 'base' or 'novel', got "
                f"{self.meta_source!r}")
        # zero steps/episodes mean "skip that stage"; C >= 2, the rest >= 1
        for name, v, floor in (
                ("stage1.steps", self.stage1.steps, 0),
                ("stage2.episodes", self.stage2.episodes, 0),
                ("stage2.C", self.stage2.C, 2),
                ("stage1.batch_size", self.stage1.batch_size, 1),
                ("stage2.K", self.stage2.K, 1),
                ("stage2.L", self.stage2.L, 1),
                ("eval.episodes", self.eval.episodes, 1),
                ("eval.queries_per_class", self.eval.queries_per_class, 1),
                ("num_base", 1 if self.num_base is None else self.num_base,
                 1)):
            if v < floor:
                raise ValueError(f"{name} must be >= {floor}, got {v}")
        if self.eval.episodes > MAX_EVAL_EPISODES:
            raise ValueError(f"eval.episodes must be <= {MAX_EVAL_EPISODES}"
                             f", got {self.eval.episodes}")
        if not 0 <= self.seed < 2 ** 64:
            raise ValueError(f"seed must be in [0, 2**64), got {self.seed}")
        for name, v in (("stage1.learning_rate", self.stage1.learning_rate),
                        ("stage2.learning_rate", self.stage2.learning_rate)):
            if not v > 0:
                raise ValueError(f"{name} must be > 0, got {v}")

    @property
    def ablation_flags(self) -> frozenset:
        return (frozenset() if self.ablation == "full"
                else frozenset(self.ablation.split("+")))

    def routing_pair(self) -> RoutingPair:
        if self.routing is not None:
            return self.routing
        rc = RoutingConfig.for_pipeline(self.encoder.embed_dim)
        return RoutingPair(dmm=rc, qim=rc, share_params=False)


def train_config_to_dict(cfg: TrainConfig) -> dict:
    out = asdict(cfg)
    out["routing"] = asdict(cfg.routing_pair())
    return out


def train_config_from_dict(raw: dict) -> TrainConfig:
    """Build a TrainConfig from a (possibly partial) JSON object."""
    return config_from_dict(TrainConfig, raw)


def config_hash_hex(obj) -> str:
    return hashlib.sha256(
        json.dumps(obj, sort_keys=True, separators=(",", ":"),
                   default=str).encode()).hexdigest()[:16]


def model_config_from(cfg: TrainConfig, num_base_classes: int) -> ModelConfig:
    pair = cfg.routing_pair()
    return ModelConfig(embed_dim=cfg.encoder.embed_dim,
                       num_base_classes=num_base_classes,
                       encoder=cfg.encoder, dmm=pair.dmm, qim=pair.qim,
                       share_routing=pair.share_params)


# ---------------------------------------------------------------------------
# episode forward pass
# ---------------------------------------------------------------------------

def _encode(model: Model, tensors: dict, source, at: tuple,
            rows: bool) -> list:
    """For each index array in ``at``, the sample vectors of ``source``'s
    items there: one (n, d) Tensor and, if ``rows``, a list of its n (d,)
    Tensors too.  A source of (N, d) vectors makes one constant per array,
    whose rows are views of it; a list of text lines is encoded line by
    line and stacked."""
    if isinstance(source, np.ndarray):
        # rows of a checked constant need no check of their own
        return [(stack, [nm.Tensor(v) for v in stack.array] if rows
                 else None) for stack in model.encode_vectors(source, *at)]
    items = [[model.encode(tensors, source[i]) for i in index.tolist()]
             for index in at]
    return [(nm.stack_rows(part), part) for part in items]


def _batch_items(episodes: list) -> tuple:
    """A batch's items as positions in the one ``source`` its episodes
    share: the (E, C, K) supports of each class in local-label order, the
    (E*Q,) queries in episode order, and each episode's query labels.  A
    batch whose episodes read different sources is refused."""
    source = episodes[0].source
    if any(episode.source is not source for episode in episodes):
        raise ValueError("the episodes of a batch must share one source")
    return (source, np.stack([episode.support_at for episode in episodes]),
            np.concatenate([episode.query_at for episode in episodes]),
            [list(episode.labels) for episode in episodes])


def _episode(model: Model, tensors: dict, episodes: list,
             flags: frozenset, per_pair: bool):
    """The scores and labels of :func:`episode_forward` (``per_pair``) and
    of :func:`episode_scores`, which differ only in the two routing steps.
    More than one episode, all of one shape and never ``per_pair``, puts
    an episode axis in front of every stack, the (E, Q, C) scores and the
    labels.  Vector episodes take their supports and queries from their
    source's array with one ``take`` each, after one check of its
    dimension (:meth:`Model.encode_vectors`)."""
    lead = (len(episodes),) if len(episodes) > 1 else ()
    one = (1,) * len(lead)  # an axis that an episode's queries share
    source, at, query_at, labels = _batch_items(episodes)
    way, shot = at.shape[1:]
    shots = way * shot
    # class-major (C, K) for induction; shot-major (K, C) for the mean,
    # whose vecmat sums the shot axis
    if "no_qim" in flags:
        at = at.swapaxes(1, 2)
    (supports, rows), (q_stack, queries) = _encode(
        model, tensors, source, (at.reshape(-1), query_at), per_pair)
    dim = q_stack.shape[-1]
    num_q = q_stack.shape[0] // len(episodes)
    if lead:
        supports = nm.reshape(supports, lead + (shots, dim))
        q_stack = nm.reshape(q_stack, lead + (num_q, dim))
    if "no_dmm" not in flags:  # routing step 1: each support alone, or all
        dmm = (model.dmm_params(tensors), model.config.dmm,
               tensors["clf.w_base"])
        if per_pair:
            rows = [dmm_adapt(*dmm, e) for e in rows]
            supports = nm.stack_rows(rows)
        else:
            supports = dmm_adapt(*dmm, supports)
    if "no_qim" in flags:
        class_vectors = nm.vecmat(
            nm.constant(np.full(lead + (shot,) + one + (way,), 1.0 / shot)),
            nm.reshape(supports, lead + (shot,) + one + (way, dim)),
            batch=len(lead))
    else:  # routing step 2: induce each (query, class) pair alone, or all
        qim = (model.qim_params(tensors), model.config.qim)
        if per_pair:
            stacks = [nm.stack_rows(rows[c * shot:(c + 1) * shot])
                      for c in range(way)]
            class_vectors = nm.reshape(nm.stack_rows(
                [qim_induce(*qim, stk, e) for e in queries for stk in stacks]),
                (num_q, way, dim))
        else:
            class_vectors = qim_induce(
                *qim, nm.reshape(supports, lead + one + (way, shot, dim)),
                nm.reshape(q_stack, lead + (num_q, 1, dim)))
    return few_scores(model.classifier(tensors), q_stack, class_vectors), \
        labels if lead else labels[0]


def episode_forward(model: Model, tensors: dict, episode: Episode,
                    flags: frozenset):
    """Scores of every query in an episode as one (Q, C) Tensor, and the
    query labels; training's forward pass.

    The supports are stacked by class, which needs the same number of
    shots in every class (:meth:`Episode.from_items` refuses others).  One
    :func:`dmm_adapt` call per support and one :func:`qim_induce` call per
    (query, class) pair, stacked to (Q, C, d) class vectors, because the
    benchmark pins these per-pair calls (ROADMAP items 1-2).  ``no_dmm``
    skips adaptation; ``no_qim`` takes each class's mean of adapted
    supports, which every query shares.
    """
    return _episode(model, tensors, [episode], flags, per_pair=True)


def episode_scores(model: Model, tensors: dict, episode: Episode,
                   flags: frozenset):
    """:func:`episode_forward` with two routing calls in all: one adapts
    every support, one routes the (Q, 1) query axis against the (C,) class
    axis of the (C, K) adapted stacks.  Each pair gets the bits it gets
    when routed alone, but the transforms are matrix products over the
    stacks, so scores agree with :func:`episode_forward` to about 1e-13.

    It is the one-episode case of :func:`evaluate`'s batched forward,
    which stacks E episodes to (E, C*K, d) supports and (E, Q, 1, d)
    queries against (E, 1, C, K, d) class stacks, to (E, Q, C) scores.
    Each episode's slice has the bytes this gives it: routing gives each
    pair its own bits, numpy's stacked matmul runs one episode's product
    per slice, and ``vecmat(batch=1)`` orders each episode's shots alone.
    """
    return _episode(model, tensors, [episode], flags, per_pair=False)


def episode_accuracy(scores: np.ndarray, labels) -> list:
    """Per episode, the share of its queries whose top class is the label:
    (E, Q, C) ``scores`` against (E, Q) ``labels``."""
    hits = np.count_nonzero(scores.argmax(axis=-1) == labels, axis=-1)
    return (hits / np.shape(labels)[-1]).tolist()


def episode_step(model: Model, episode: Episode, optimizer: Adam,
                 flags: frozenset, freeze_tau: bool = False) -> float:
    """One taped forward/backward/update on a single episode."""
    tape = nm.Tape()
    tensors = model.tensors(tape)
    scores, labels = episode_forward(model, tensors, episode, flags)
    loss = loss_episode(scores, labels)
    grads = nm.backward(tape, loss)
    named = {name: grads[t.node_id] for name, t in tensors.items()}
    if freeze_tau:  # Adam never sees tau's gradient, so it is scanned here
        tau = named.pop("clf.log_tau", None)
        if tau is not None and not np.isfinite(tau).all():
            raise nm.NumericError(f"non-finite gradient for clf.log_tau at "
                                  f"step {optimizer.t + 1}")
    optimizer.step(model.params, named)
    return loss.item()


# ---------------------------------------------------------------------------
# stage 1: supervised pretraining
# ---------------------------------------------------------------------------

@dataclass
class PretrainResult:
    model: Model
    losses: list
    train_accuracy: float


def pretrain(base_dataset: Dataset, cfg: TrainConfig,
             model: Model | None = None) -> PretrainResult:
    """Minimize supervised cross-entropy over the base classes.

    Pass ``model`` to resume training an existing model; by default a
    fresh one is initialized from the config and seed.
    """
    if model is None:
        model = init_model(model_config_from(cfg, base_dataset.num_classes),
                           seed=cfg.seed)
    elif model.config.num_base_classes != base_dataset.num_classes:
        raise DataError(
            f"model has {model.config.num_base_classes} base classes, "
            f"dataset has {base_dataset.num_classes}")
    rng = np.random.Generator(
        np.random.PCG64(np.random.SeedSequence([cfg.seed, 1])))
    optimizer = Adam(lr=cfg.stage1.learning_rate)
    losses = []
    n = base_dataset.num_items
    for _ in range(cfg.stage1.steps):
        batch = rng.choice(n, size=min(cfg.stage1.batch_size, n),
                           replace=False)
        tape = nm.Tape()
        tensors = model.tensors(tape)
        clf = model.classifier(tensors)
        scores = base_scores(clf, _encode(
            model, tensors, base_dataset.payloads, (batch,), False)[0][0])
        loss = loss_supervised(scores,
                               [base_dataset.labels[int(i)] for i in batch])
        grads = nm.backward(tape, loss)
        optimizer.step(model.params,
                       {name: grads[t.node_id]
                        for name, t in tensors.items()})
        losses.append(loss.item())
    model.meta["pretrained"] = True
    return PretrainResult(model=model, losses=losses,
                          train_accuracy=_train_accuracy(model, base_dataset))


def _train_accuracy(model: Model, dataset: Dataset) -> float:
    tensors = model.tensors()
    scores = base_scores(model.classifier(tensors), _encode(
        model, tensors, dataset.payloads, (np.arange(dataset.num_items),),
        False)[0][0])
    hits = np.count_nonzero(scores.array.argmax(axis=1) == dataset.labels)
    return hits / dataset.num_items


# ---------------------------------------------------------------------------
# stage 2: episodic meta training
# ---------------------------------------------------------------------------

@dataclass
class MetaTrainResult:
    model: Model
    losses: list


def meta_train(model: Model, dataset: Dataset,
               cfg: TrainConfig) -> MetaTrainResult:
    """Episode-by-episode training of the full pipeline (in place)."""
    s2 = cfg.stage2
    ep_cfg = EpisodeConfig(way=s2.C, shot=s2.K, queries=s2.L, seed=cfg.seed)
    optimizer = Adam(lr=s2.learning_rate)
    flags = cfg.ablation_flags
    losses = []
    for index in range(s2.episodes):
        episode = sample_episode(dataset, ep_cfg, index)
        losses.append(episode_step(model, episode, optimizer, flags,
                                   freeze_tau=cfg.freeze_tau))
    model.meta["meta_trained"] = True
    return MetaTrainResult(model=model, losses=losses)


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

@dataclass
class EvalReport:
    mean_accuracy: float
    std_accuracy: float
    episodes: int
    per_episode: list
    config_hash: str
    wall_time_ms: int
    std_undefined: bool = False


def evaluate(model: Model, dataset: Dataset, cfg: TrainConfig, *,
             episodes: int | None = None, way: int | None = None,
             shot: int | None = None, queries: int | None = None,
             seed: int | None = None, ablation: str | None = None)\
        -> EvalReport:
    """Forward-only accuracy over freshly sampled episodes.

    Episodes are scored in near-equal batches of consecutive indices by
    :func:`episode_scores`' forward with an episode axis in front: one
    DMM, one QIM and one :func:`few_scores` call per batch.  A batch holds
    as many episodes as keep its largest routed copy, QIM's (E, Q, C, K,
    d) or DMM's (E, C*K, base rows, d) float64 operand, within
    ``EVAL_BATCH_BYTES``; a larger episode runs alone.  Each episode gets
    the bytes it gets alone, so ``per_episode`` ignores the batching.
    """
    episodes = cfg.eval.episodes if episodes is None else episodes
    way = cfg.stage2.C if way is None else way
    shot = cfg.stage2.K if shot is None else shot
    queries = cfg.eval.queries_per_class if queries is None else queries
    seed = cfg.seed if seed is None else seed
    if not 1 <= episodes <= MAX_EVAL_EPISODES:
        raise ValueError(f"episodes must be in [1, {MAX_EVAL_EPISODES}], "
                         f"got {episodes}")
    flags = (cfg.ablation_flags if ablation is None
             else replace(cfg, ablation=ablation).ablation_flags)
    ep_cfg = EpisodeConfig(way=way, shot=shot, queries=queries, seed=seed)
    tensors = model.tensors()  # constants: evaluation never mutates params
    copy = 8 * way * shot * model.config.embed_dim * max(
        way * queries, model.config.num_base_classes)  # float64 bytes
    batches = -(-episodes // max(1, EVAL_BATCH_BYTES // copy))
    bounds = [episodes * b // batches for b in range(batches + 1)]
    start = time.monotonic()
    accs = []
    for lo, hi in zip(bounds, bounds[1:]):
        batch = [sample_episode(dataset, ep_cfg, i) for i in range(lo, hi)]
        scores, labels = _episode(model, tensors, batch, flags, False)
        accs += episode_accuracy(scores.array.reshape(hi - lo, -1, way),
                                 np.reshape(labels, (hi - lo, -1)))
    wall_ms = int((time.monotonic() - start) * 1000.0)
    mean = float(np.mean(accs))
    undefined = episodes < 2
    std = 0.0 if undefined else float(np.std(accs, ddof=1))
    digest = config_hash_hex({
        "model": asdict(model.config),
        "params": model.param_digest(),
        "eval": {"episodes": episodes, "way": way, "shot": shot,
                 "queries": queries, "seed": seed,
                 "ablation": sorted(flags)},
    })
    return EvalReport(mean_accuracy=mean, std_accuracy=std,
                      episodes=episodes, per_episode=accs,
                      config_hash=digest, wall_time_ms=wall_ms,
                      std_undefined=undefined)


# ---------------------------------------------------------------------------
# separation report
# ---------------------------------------------------------------------------

@dataclass
class SeparationReport:
    silhouette_before: float
    silhouette_after: float
    labels: list
    vectors_before: np.ndarray
    vectors_after: np.ndarray


def separation_report(model: Model, dataset: Dataset, *, way: int = 10,
                      shot: int = 5, seed: int = 1,
                      csv_path=None) -> SeparationReport:
    """Silhouette of support vectors before and after memory adaptation."""
    if not model.meta.get("pretrained") and not model.meta.get(
            "meta_trained"):
        log.warning("separation report on an untrained model")
    way = min(way, dataset.num_classes)
    if way < 2:
        raise DataError("separation report needs at least 2 classes")
    ep_cfg = EpisodeConfig(way=way, shot=shot, queries=1, seed=seed)
    episode = sample_episode(dataset, ep_cfg, 0)
    tensors = model.tensors()
    labels = np.repeat(np.arange(way), shot).tolist()
    before = _encode(model, tensors, episode.source,
                     (episode.support_at.reshape(-1),), False)[0][0]
    after = dmm_adapt(model.dmm_params(tensors), model.config.dmm,
                      tensors["clf.w_base"], before).array
    before = before.array
    rep = SeparationReport(
        silhouette_before=silhouette_score(before, labels),
        silhouette_after=silhouette_score(after, labels),
        labels=labels, vectors_before=before, vectors_after=after)
    if csv_path is not None:
        _write_vectors_csv(rep, csv_path)
    return rep


def _write_vectors_csv(rep: SeparationReport, path) -> None:
    dim = rep.vectors_before.shape[1]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["stage", "label"] + [f"v{i}" for i in range(dim)])
        for stage, mat in (("before", rep.vectors_before),
                           ("after", rep.vectors_after)):
            for lab, row in zip(rep.labels, mat):
                writer.writerow([stage, lab] + [f"{x:.10g}" for x in row])


# ---------------------------------------------------------------------------
# full pipeline and ablation suite
# ---------------------------------------------------------------------------

@dataclass
class PipelineResult:
    model: Model
    report: EvalReport
    stage1_losses: list
    stage2_losses: list


def pipeline_split(dataset: Dataset, cfg: TrainConfig) -> tuple:
    """The seeded (base, novel) class split that :func:`run_pipeline`
    trains and evaluates on: ``cfg.num_base`` base classes, or half."""
    num_base = (dataset.num_classes // 2 if cfg.num_base is None
                else cfg.num_base)
    return split_base_novel(dataset, num_base, seed=cfg.seed)


def run_pipeline(dataset: Dataset, cfg: TrainConfig) -> PipelineResult:
    """Split, pretrain on the base classes, meta-train, and evaluate.

    Stage-2 episodes come from the split named by ``cfg.meta_source``:
    by default the novel split, whose classes the evaluation episodes
    are then drawn from; the supervised stage only ever sees base.
    """
    base, novel = pipeline_split(dataset, cfg)
    pre = pretrain(base, cfg)
    meta_ds = base if cfg.meta_source == "base" else novel
    meta = meta_train(pre.model, meta_ds, cfg)
    report = evaluate(meta.model, novel, cfg)
    return PipelineResult(model=meta.model, report=report,
                          stage1_losses=pre.losses, stage2_losses=meta.losses)


ABLATION_ROWS = (("w/o DMM", "no_dmm", None),
                 ("w/o QIM", "no_qim", None),
                 ("DMIN", "full", 1),
                 ("DMIN", "full", 2),
                 ("DMIN", "full", 3))
ABLATION_SHOTS = (1, 5)


def run_ablation_suite(dataset: Dataset, cfg: TrainConfig,
                       csv_path=None) -> list:
    """Train/evaluate the five model variants at 1-shot and 5-shot."""
    rows = []
    for name, ablation, iters in ABLATION_ROWS:
        pair = cfg.routing_pair()
        if iters is not None:
            pair = RoutingPair(dmm=replace(pair.dmm, iterations=iters),
                               qim=replace(pair.qim, iterations=iters),
                               share_params=pair.share_params)
        accs = {}
        for shot in ABLATION_SHOTS:
            variant = replace(cfg, ablation=ablation, routing=pair,
                              stage2=replace(cfg.stage2, K=shot))
            accs[shot] = run_pipeline(dataset, variant).report.mean_accuracy
        rows.append({"model": name,
                     "iterations": (iters if iters is not None
                                    else pair.dmm.iterations),
                     "acc_1shot": accs[1], "acc_5shot": accs[5]})
    if csv_path is not None:
        with open(csv_path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["model", "iterations", "acc_1shot",
                             "acc_5shot"])
            for row in rows:
                writer.writerow([row["model"], row["iterations"],
                                 f"{row['acc_1shot']:.4f}",
                                 f"{row['acc_5shot']:.4f}"])
    return rows
