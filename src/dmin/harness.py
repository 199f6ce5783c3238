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
:func:`few_scores` call and hand it to :func:`loss_episode`.  A vector
episode's supports are one constant and its queries another, made
without an encode per item (training's per-pair calls take views of
their rows); text is encoded item by item and stacked.  They
differ only in the two routing steps.  An evaluation episode makes 2
routing calls: one adapts every support, and one induces every
(query, class) vector.  Training routes each support and each
(query, class) pair in its own call, and stacks the outputs, until the
benchmark counts routed pairs instead of calls (ROADMAP item 1).

Evaluation is forward-only and runs its episodes one after another in
the caller's thread, under the caller's numpy error state.  Every episode
is regenerated from ``(seed, episode_index)``, so an episode's accuracy
does not depend on how many episodes run or in what order.
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

def _encode(model: Model, tensors: dict, payloads: list, rows: bool):
    """The payloads' sample vectors as one (N, d) Tensor and, if ``rows``,
    as a list of N (d,) Tensors too.  Vector payloads make one constant,
    whose rows are views of it; text payloads are encoded one by one and
    stacked."""
    if all(isinstance(p, np.ndarray) for p in payloads):
        stack = model.encode_vectors(payloads)
        return stack, [nm.constant(v) for v in stack.array] if rows else None
    items = [model.encode(tensors, p) for p in payloads]
    return nm.stack_rows(items), items


def _episode(model: Model, tensors: dict, episode: Episode,
             flags: frozenset, per_pair: bool):
    """The episode forward of :func:`episode_forward` (``per_pair``) and
    :func:`episode_scores`, which differ only in the two routing steps."""
    way, shots = len(episode.class_ids), len(episode.support)
    counts = np.bincount([lab for lab, _ in episode.support],
                         minlength=way)
    if counts.min() != counts.max():
        raise ValueError(f"an episode forward needs the same number of "
                         f"shots in every class, got {counts.tolist()}")
    shot = shots // way
    # class-major (C, K) for induction; shot-major (K, C) for the mean,
    # whose vecmat sums the leading axis
    by_class = sorted(range(shots), key=lambda i: episode.support[i][0])
    order = (np.reshape(by_class, (way, shot)).T.reshape(-1)
             if "no_qim" in flags else by_class)
    supports, rows = _encode(model, tensors,
                             [episode.support[i][1] for i in order], per_pair)
    q_stack, queries = _encode(model, tensors,
                               [payload for _, payload in episode.queries],
                               per_pair)
    num_q, dim = q_stack.shape
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
            nm.constant(np.full((shot, way), 1.0 / shot)),
            nm.reshape(supports, (shot, way, dim)))
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
                *qim, nm.reshape(supports, (way, shot, dim)),
                nm.reshape(q_stack, (num_q, 1, dim)))
    scores = few_scores(model.classifier(tensors), q_stack, class_vectors)
    return scores, [lab for lab, _ in episode.queries]


def episode_forward(model: Model, tensors: dict, episode: Episode,
                    flags: frozenset):
    """Scores of every query in an episode as one (Q, C) Tensor, and the
    query labels; training's forward pass.

    The supports are stacked by class, which needs the same number of
    shots in every class (``sample_episode`` always draws that).  One
    :func:`dmm_adapt` call per support and one :func:`qim_induce` call per
    (query, class) pair, stacked to (Q, C, d) class vectors, because the
    benchmark pins these per-pair calls (ROADMAP items 1-2).  ``no_dmm``
    skips adaptation; ``no_qim`` takes each class's mean of adapted
    supports, which every query shares.
    """
    return _episode(model, tensors, episode, flags, per_pair=True)


def episode_scores(model: Model, tensors: dict, episode: Episode,
                   flags: frozenset):
    """:func:`episode_forward` with two routing calls in all: one adapts
    every support, one routes the (Q, 1) query axis against the (C,) class
    axis of the (C, K) adapted stacks.  Each pair gets the bits it gets
    when routed alone, but the transforms are matrix products over the
    stacks, so scores agree with :func:`episode_forward` to about 1e-13.
    """
    return _episode(model, tensors, episode, flags, per_pair=False)


def episode_accuracy(scores: nm.Tensor, labels) -> float:
    """Share of the rows of (Q, C) ``scores`` whose top class is the label."""
    hits = np.count_nonzero(scores.array.argmax(axis=1) == labels)
    return hits / len(labels)


def episode_step(model: Model, episode: Episode, optimizer: Adam,
                 flags: frozenset, freeze_tau: bool = False) -> float:
    """One taped forward/backward/update on a single episode."""
    tape = nm.Tape()
    tensors = model.tensors(tape)
    scores, labels = episode_forward(model, tensors, episode, flags)
    loss = loss_episode(scores, labels)
    grads = nm.backward(tape, loss)
    named = {name: grads[t.node_id] for name, t in tensors.items()}
    if freeze_tau:
        named.pop("clf.log_tau", None)
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
            model, tensors, [base_dataset.payloads[int(i)] for i in batch],
            False)[0])
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
    scores = base_scores(model.classifier(tensors),
                         _encode(model, tensors, dataset.payloads, False)[0])
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
    """Forward-only accuracy over freshly sampled episodes."""
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
    start = time.monotonic()
    accs = []
    for index in range(episodes):
        episode = sample_episode(dataset, ep_cfg, index)
        accs.append(episode_accuracy(
            *episode_scores(model, tensors, episode, flags)))
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
    labels = [lab for lab, _ in episode.support]
    before = _encode(model, tensors,
                     [payload for _, payload in episode.support], False)[0]
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
