"""Few-shot classification with dynamic memory routing.

The package splits into a numeric core and a modeling layer:

* :mod:`dmin.numerics` — dense float64 tensors on a reverse-mode tape;
* :mod:`dmin.routing` — capsule-style dynamic memory routing;
* :mod:`dmin.encoder` — feature-hashing text encoder and encoder config;
* :mod:`dmin.classifier` — cosine classifier with a learnable scale;
* :mod:`dmin.episodes` — datasets, C-way K-shot sampling, file formats;
* :mod:`dmin.silhouette` — cluster-separation score;
* :mod:`dmin.model` — parameter bundle, Adam, checkpoints;
* :mod:`dmin.harness` — two-stage training, evaluation, ablations;
* :mod:`dmin.cli` — command-line front end over the harness.

The most common entry points are re-exported here.
"""

from .classifier import CosineClassifier, base_scores, few_scores
from .encoder import EncoderConfig
from .episodes import (DataError, Dataset, EpisodeConfig, gen_synthetic,
                       load_jsonl_vectors, load_tsv, sample_episode,
                       split_base_novel)
from .harness import (EvalReport, EvalSettings, RoutingPair, Stage1Config,
                      Stage2Config, TrainConfig, evaluate, meta_train,
                      pretrain, run_ablation_suite, run_pipeline,
                      separation_report)
from .model import (Adam, CheckpointError, Model, ModelConfig, init_model,
                    load_checkpoint, save_checkpoint)
from .numerics import NumericError, Tape, Tensor, backward, constant
from .routing import RoutingConfig, RoutingParams, dmr, dmm_adapt, qim_induce
from .silhouette import silhouette_score

__all__ = [
    "Adam",
    "CheckpointError",
    "CosineClassifier",
    "DataError",
    "Dataset",
    "EncoderConfig",
    "EpisodeConfig",
    "EvalReport",
    "EvalSettings",
    "Model",
    "ModelConfig",
    "NumericError",
    "RoutingConfig",
    "RoutingPair",
    "RoutingParams",
    "Stage1Config",
    "Stage2Config",
    "Tape",
    "Tensor",
    "TrainConfig",
    "backward",
    "base_scores",
    "constant",
    "dmr",
    "dmm_adapt",
    "evaluate",
    "few_scores",
    "gen_synthetic",
    "init_model",
    "load_checkpoint",
    "load_jsonl_vectors",
    "load_tsv",
    "meta_train",
    "pretrain",
    "qim_induce",
    "run_ablation_suite",
    "run_pipeline",
    "sample_episode",
    "save_checkpoint",
    "separation_report",
    "silhouette_score",
    "split_base_novel",
]
