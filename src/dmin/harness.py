"""Two-stage training, evaluation protocol, ablations, and reports.

Stage 1 (:func:`pretrain`) fits the encoder, the base weight rows and
the temperature with a supervised cross-entropy over base classes.
Stage 2 (:func:`meta_train`) draws C-way K-shot episodes and trains
every parameter through the full pipeline: encode, adapt supports
against the base weight rows, induce a per-query class vector from the
adapted supports, score by scaled cosine, and minimize the episode
loss.  Ablations cut individual pieces: ``no_dmm`` skips adaptation,
``no_qim`` replaces induction with the mean of the adapted supports;
combined they reduce to a prototypical mean-of-supports baseline.

Evaluation is forward-only and episode-parallel: every episode is
regenerated from ``(seed, episode_index)``, so results are identical
whatever the thread count.  ``DMIN_THREADS`` caps the pool size.
"""

from __future__ import annotations

import csv
import hashlib
import json
import logging
import os
import time
from concurrent.futures import ThreadPoolExecutor
from contextvars import copy_context
from dataclasses import asdict, dataclass, replace

import numpy as np

from . import numerics as nm
from .classifier import few_scores, loss_episode, loss_supervised, base_scores
from .encoder import EncoderConfig
from .episodes import (DataError, Dataset, EpisodeConfig, Episode,
                       sample_episode, split_base_novel)
from .model import Adam, Model, ModelConfig, init_model
from .routing import RoutingConfig, dmm_adapt, qim_induce
from .silhouette import silhouette_score

log = logging.getLogger(__name__)

ABLATIONS = ("full", "no_dmm", "no_qim", "no_dmm+no_qim")


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
        # zero steps/episodes mean "skip that stage"; the rest must be >= 1
        for name, v, floor in (
                ("stage1.steps", self.stage1.steps, 0),
                ("stage2.episodes", self.stage2.episodes, 0),
                ("stage1.batch_size", self.stage1.batch_size, 1),
                ("eval.episodes", self.eval.episodes, 1),
                ("eval.queries_per_class", self.eval.queries_per_class, 1)):
            if v < floor:
                raise ValueError(f"{name} must be >= {floor}, got {v}")
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


def _build(cls, key: str, val):
    """A config dataclass from a JSON object; int fields must hold JSON
    integers and float fields JSON numbers, and booleans are neither."""
    if val is None:
        return cls()
    if not isinstance(val, dict):
        raise DataError(f"config key {key!r} must be an object")
    fields = cls.__dataclass_fields__
    unknown = set(val) - set(fields)
    if unknown:
        raise DataError(
            f"config key {key!r} has unknown fields {sorted(unknown)}")
    for name, v in val.items():
        if fields[name].type in (int, "int"):
            _require_int(f"{key}.{name}", v)
        elif fields[name].type in (float, "float") \
                and type(v) not in (int, float):
            raise DataError(
                f"config field {key}.{name} must be a number, got {v!r}")
    return cls(**val)


def _require_int(name: str, v) -> None:
    if type(v) is not int:  # rejects bools and floats such as 2.0
        raise DataError(f"config field {name} must be an integer, got {v!r}")


def _require_bool(name: str, v) -> bool:
    if type(v) is not bool:  # "false" or 0 would otherwise read as a flag
        raise DataError(f"config field {name} must be true or false, "
                        f"got {v!r}")
    return v


def train_config_from_dict(raw: dict) -> TrainConfig:
    """Build a TrainConfig from a (possibly partial) plain dict."""
    known_top = {"stage1", "stage2", "eval", "encoder", "routing", "seed",
                 "ablation", "num_base", "meta_source", "freeze_tau"}
    unknown = set(raw) - known_top
    if unknown:
        raise DataError(f"unknown config keys {sorted(unknown)}")
    seed, num_base = raw.get("seed", 0), raw.get("num_base")
    _require_int("seed", seed)
    if num_base is not None:
        _require_int("num_base", num_base)
    try:
        routing = None
        if raw.get("routing") is not None:
            r = raw["routing"]
            routing = RoutingPair(
                dmm=_build(RoutingConfig, "routing.dmm", r["dmm"]),
                qim=_build(RoutingConfig, "routing.qim", r["qim"]),
                share_params=_require_bool("routing.share_params",
                                           r.get("share_params", False)),
            )
        return TrainConfig(
            stage1=_build(Stage1Config, "stage1", raw.get("stage1")),
            stage2=_build(Stage2Config, "stage2", raw.get("stage2")),
            eval=_build(EvalSettings, "eval", raw.get("eval")),
            encoder=_build(EncoderConfig, "encoder", raw.get("encoder")),
            routing=routing,
            seed=seed,
            ablation=raw.get("ablation", "full"),
            num_base=num_base,
            meta_source=raw.get("meta_source", "novel"),
            freeze_tau=_require_bool("freeze_tau",
                                     raw.get("freeze_tau", False)),
        )
    except (TypeError, KeyError) as err:
        raise DataError(f"bad train config: {err}") from err


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

def _mean_tensor(row):
    total = row[0]
    for extra in row[1:]:
        total = nm.add(total, extra)
    return nm.scale(total, 1.0 / len(row))


def episode_forward(model: Model, tensors: dict, episode: Episode,
                    flags: frozenset):
    """Scores for every query in an episode; returns (score Tensors, labels)."""
    way = len(episode.class_ids)
    sup_by_class = [[] for _ in range(way)]
    for lab, payload in episode.support:
        sup_by_class[lab].append(model.encode(tensors, payload))

    if "no_dmm" in flags:
        adapted = sup_by_class
    else:
        dparams = model.dmm_params(tensors)
        w_base = tensors["clf.w_base"]
        adapted = [[dmm_adapt(dparams, model.config.dmm, w_base, e)
                    for e in row] for row in sup_by_class]

    clf = model.classifier(tensors)
    scores, labels = [], []
    if "no_qim" in flags:
        class_vectors = [_mean_tensor(row) for row in adapted]
        for lab, payload in episode.queries:
            e_q = model.encode(tensors, payload)
            scores.append(few_scores(clf, e_q, class_vectors))
            labels.append(lab)
    else:
        qparams = model.qim_params(tensors)
        stacks = [nm.stack_rows(row) for row in adapted]
        for lab, payload in episode.queries:
            e_q = model.encode(tensors, payload)
            class_vectors = [qim_induce(qparams, model.config.qim, stk, e_q)
                             for stk in stacks]
            scores.append(few_scores(clf, e_q, class_vectors))
            labels.append(lab)
    return scores, labels


def episode_accuracy(scores, labels) -> float:
    hits = sum(int(np.argmax(s.array)) == lab
               for s, lab in zip(scores, labels))
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
        total = None
        for i in batch:
            e = model.encode(tensors, base_dataset.payloads[int(i)])
            item_loss = loss_supervised(base_scores(clf, e),
                                        base_dataset.labels[int(i)])
            total = item_loss if total is None else nm.add(total, item_loss)
        loss = nm.scale(total, 1.0 / len(batch))
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
    clf = model.classifier(tensors)
    hits = 0
    for payload, label in zip(dataset.payloads, dataset.labels):
        s = base_scores(clf, model.encode(tensors, payload))
        hits += int(np.argmax(s.array)) == label
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

    def to_dict(self) -> dict:
        return {"mean_accuracy": self.mean_accuracy,
                "std_accuracy": self.std_accuracy,
                "episodes": self.episodes,
                "per_episode": self.per_episode,
                "config_hash": self.config_hash,
                "wall_time_ms": self.wall_time_ms,
                "std_undefined": self.std_undefined}


def _eval_workers() -> int:
    cap = os.environ.get("DMIN_THREADS")
    default = min(8, os.cpu_count() or 1)
    if cap is None:
        return default
    try:
        cap = int(cap)
    except ValueError:
        raise DataError(f"DMIN_THREADS must be an integer, got {cap!r}")
    if cap < 1:
        raise DataError(f"DMIN_THREADS must be >= 1, got {cap}")
    return min(default, cap)


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
    if episodes < 1:
        raise ValueError(f"episodes must be >= 1, got {episodes}")
    flags = (cfg.ablation_flags if ablation is None
             else replace(cfg, ablation=ablation).ablation_flags)
    ep_cfg = EpisodeConfig(way=way, shot=shot, queries=queries, seed=seed)
    tensors = model.tensors()  # constants: evaluation never mutates params

    def run(index: int) -> float:
        episode = sample_episode(dataset, ep_cfg, index)
        scores, labels = episode_forward(model, tensors, episode, flags)
        return episode_accuracy(scores, labels)

    start = time.monotonic()
    workers = _eval_workers()
    if workers <= 1 or episodes == 1:
        accs = [run(i) for i in range(episodes)]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            # each episode runs in a copy of the caller's context, so the
            # caller's numpy error state applies in the workers too
            futures = [pool.submit(copy_context().run, run, i)
                       for i in range(episodes)]
            accs = [f.result() for f in futures]
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
    dparams = model.dmm_params(tensors)
    w_base = tensors["clf.w_base"]
    labels, before, after = [], [], []
    for lab, payload in episode.support:
        e = model.encode(tensors, payload)
        labels.append(lab)
        before.append(e.array)
        after.append(dmm_adapt(dparams, model.config.dmm, w_base, e).array)
    before = np.stack(before)
    after = np.stack(after)
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


def run_pipeline(dataset: Dataset, cfg: TrainConfig) -> PipelineResult:
    """Split, pretrain on the base classes, meta-train, and evaluate.

    Stage-2 episodes come from the split named by ``cfg.meta_source``:
    by default the novel split, whose classes the evaluation episodes
    are then drawn from; the supervised stage only ever sees base.
    """
    num_base = cfg.num_base or dataset.num_classes // 2
    base, novel = split_base_novel(dataset, num_base, seed=cfg.seed)
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
        for shot in (1, 5):
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
