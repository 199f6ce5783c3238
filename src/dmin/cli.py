"""Command-line front end for training, evaluation, and analysis.

Subcommands mirror the pipeline stages: ``synth`` makes a vector dataset,
``pretrain`` fits the encoder and base classifier, ``metatrain`` runs
episode training, ``eval`` measures few-shot accuracy, ``ablate`` runs the
variant table, and ``separation`` writes before/after support vectors with
silhouette scores.

Exit codes: 0 success, 1 usage error, 2 data error (unreadable or
malformed files, mismatched shapes, sizes that do not fit in memory), 3
numeric failure (divergence, overflow).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import asdict, replace

import numpy as np

from . import numerics as nm
from .encoder import EncoderConfig
from .episodes import (DataError, Dataset, gen_synthetic,
                       load_jsonl_vectors, load_tsv, save_jsonl_vectors)
from .harness import (ABLATION_SHOTS, ABLATIONS, MAX_EVAL_EPISODES,
                      TrainConfig, evaluate, meta_train, model_config_from,
                      pipeline_split, pretrain, run_ablation_suite,
                      separation_report, train_config_from_dict)
from .model import load_checkpoint, save_checkpoint
from .routing import PIPELINE_CAPSULES

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on usage errors; this tool reserves 2
    for data problems, so usage errors are remapped to 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def load_dataset(path) -> Dataset:
    """Pick the loader from the file extension (.tsv text, .jsonl vectors)."""
    name = str(path)
    if name.endswith(".tsv"):
        return load_tsv(path)
    if name.endswith(".jsonl"):
        return load_jsonl_vectors(path)
    raise DataError(
        f"cannot tell the format of {name!r}: expected .tsv (label<TAB>text "
        "lines) or .jsonl (vector records)")


def _load_config(path) -> tuple[dict, TrainConfig]:
    """(JSON object, validated config) of a config file, or the defaults
    when ``path`` is None; every error names the file."""
    if path is None:
        return {}, train_config_from_dict({})
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as err:
        raise DataError(f"cannot read config {path}: {err}") from err
    try:
        return raw, train_config_from_dict(raw)
    except ValueError as err:  # DataError included
        raise DataError(f"{path}: {err}") from err


def _config_for(path, dataset: Dataset, data) -> TrainConfig:
    """Load a train config and reconcile its encoder with the dataset
    read from ``data``.

    When the file does not pin an encoder (or no file is given), the
    encoder is inferred from the data: vectors use a pass-through of the
    observed dimension, text uses feature hashing.  An explicitly
    configured encoder that cannot consume the data is an error, and so
    are routing dimensions that differ from the settled encoder's, and a
    dimension that unset routing's default capsules cannot split.
    """
    raw, cfg = _load_config(path)
    explicit = "encoder" in raw
    enc = cfg.encoder
    if dataset.dim is None:  # text payloads
        if enc.kind != "feature_hash":
            if explicit:
                raise DataError(
                    f"{path}: text data needs encoder.kind='feature_hash', "
                    f"config says {enc.kind!r}")
            cfg = replace(cfg, encoder=EncoderConfig(kind="feature_hash"))
    elif enc.kind != "precomputed" or enc.embed_dim != dataset.dim:
        if explicit:
            raise DataError(
                f"{path}: config encoder (kind={enc.kind!r}, "
                f"embed_dim={enc.embed_dim}) cannot consume vector data of "
                f"dimension {dataset.dim}")
        try:
            enc = EncoderConfig(kind="precomputed", embed_dim=dataset.dim)
        except ValueError as err:  # the data, not a config, set the dim
            raise DataError(f"{data}: vectors of dimension {dataset.dim} "
                            f"cannot be embedded ({err})") from err
        cfg = replace(cfg, encoder=enc)
    try:
        model_config_from(cfg, dataset.num_classes)
    except ValueError as err:
        if cfg.routing is None:  # the default routing refused the dim
            where = f" in {path}" if path else ""
            raise DataError(
                f"{data}: routing is unset{where}, and its default of "
                f"{PIPELINE_CAPSULES} capsules cannot route embedding "
                f"dimension {cfg.encoder.embed_dim}: {err}") from err
        # ModelConfig calls the routing configs dmm and qim; a config
        # file nests them under routing
        raise DataError(f"{path}: routing.{err}") from err
    return cfg


def _check_way(source, dataset: Dataset, way, shot, queries,
               pool: str = "dataset") -> None:
    """Refuse an episode shape that ``dataset`` cannot fill, before any
    episode runs.  ``way``, ``shot`` and ``queries`` are (value, name)
    pairs, named by the flag (``--shot``) or the config key (``stage2.K``)
    that set the value, or by ``""`` for a value the command fixes; the
    line starts with ``source``, the config file or ``default config``,
    when a config key set any of them."""
    (c, c_name), (k, k_name), (q, q_name) = way, shot, queries
    have = len(dataset.eligible_classes(k + q))
    if have < c:
        def said(name, v, noun=""):
            return (f"{name} {v}" if name.startswith("-")
                    else f"{name} = {v}" if name else f"{v} {noun}")
        keys = any("." in name for name in (c_name, k_name, q_name))
        raise DataError(
            f"{source or 'default config'}: " * keys
            + f"{said(c_name, c)} needs {c} classes with at least {k + q} "
            f"items ({said(k_name, k, 'shots')} plus "
            f"{said(q_name, q, 'queries')}), {pool} has {have}")


def _check_classes(path, dataset: Dataset, what: str) -> None:
    """Refuse a data file of fewer than the 2 classes ``what`` needs."""
    if dataset.num_classes < 2:
        raise DataError(f"{path}: {what} needs at least 2 classes, got "
                        f"{dataset.num_classes}")


def _flag(args, flag: str):
    """The parsed value of ``flag``, such as ``--per-class``."""
    return getattr(args, flag.lstrip("-").replace("-", "_"))


def _check_out(args, out: str, *inputs: str) -> None:
    """Refuse an output flag ``out`` that names the same file as one of the
    input flags, such as ``--data``: writing it would destroy that input."""
    target = _flag(args, out)
    for flag in inputs:
        path = _flag(args, flag)
        if os.path.exists(target) and os.path.exists(path) \
                and os.path.samefile(target, path):
            raise DataError(f"{out} {target} is the {flag} file; "
                            f"refusing to overwrite it")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_pretrain(args) -> int:
    _check_out(args, "--out", "--data")
    dataset = load_dataset(args.data)
    _check_classes(args.data, dataset, "pretraining")  # 1 class: loss 0
    cfg = _config_for(args.config, dataset, args.data)
    result = pretrain(dataset, cfg)
    save_checkpoint(result.model, args.out)
    print(f"pretrained {cfg.stage1.steps} steps over "
          f"{dataset.num_classes} classes; train accuracy "
          f"{result.train_accuracy:.4f}")
    print(f"wrote {args.out}")
    return EXIT_OK


def _cmd_metatrain(args) -> int:
    _check_out(args, "--out", "--data")  # rewriting --model is fine
    model = load_checkpoint(args.model)
    dataset = load_dataset(args.data)
    cfg = _load_config(args.config)[1]
    s2 = cfg.stage2
    if s2.episodes:
        _check_way(args.config, dataset, (s2.C, "stage2.C"),
                   (s2.K, "stage2.K"), (s2.L, "stage2.L"))
    result = meta_train(model, dataset, cfg)
    save_checkpoint(model, args.out)
    tail = (f"; final loss {result.losses[-1]:.4f}" if result.losses else "")
    print(f"meta-trained {cfg.stage2.episodes} episodes "
          f"({cfg.stage2.C}-way {cfg.stage2.K}-shot){tail}")
    print(f"wrote {args.out}")
    return EXIT_OK


def _cmd_eval(args) -> int:
    _check_out(args, "--out", "--data", "--model")
    model = load_checkpoint(args.model)
    dataset = load_dataset(args.data)
    cfg = _load_config(args.config)[1]

    def pick(flag, value, key, default):
        return (default, key) if value is None else (value, flag)

    _check_way(args.config, dataset,
               pick("--way", args.way, "stage2.C", cfg.stage2.C),
               pick("--shot", args.shot, "stage2.K", cfg.stage2.K),
               pick("--queries", args.queries, "eval.queries_per_class",
                    cfg.eval.queries_per_class))
    report = evaluate(model, dataset, cfg, episodes=args.episodes,
                      way=args.way, shot=args.shot, queries=args.queries,
                      seed=args.seed, ablation=args.ablation)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(asdict(report), fh, indent=2, sort_keys=True)
        fh.write("\n")
    spread = ("n/a" if report.std_undefined
              else f"{report.std_accuracy:.4f}")
    print(f"mean_accuracy {report.mean_accuracy:.4f} (std {spread}) over "
          f"{report.episodes} episodes in {report.wall_time_ms} ms")
    print(f"wrote {args.out}")
    return EXIT_OK


def _cmd_synth(args) -> int:
    try:
        dataset = gen_synthetic(args.classes, args.per_class, args.dim,
                                args.separation, args.sigma, args.seed)
    except DataError as err:  # vectors beyond the float range
        raise DataError(f"--separation {args.separation} with --sigma "
                        f"{args.sigma}: {err}") from err
    except ValueError as err:  # arrays too large for numpy to make
        raise DataError(f"--classes {args.classes}, --per-class "
                        f"{args.per_class}, --dim {args.dim}: {err}") from err
    save_jsonl_vectors(dataset, args.out)
    print(f"wrote {dataset.num_items} vectors ({dataset.num_classes} "
          f"classes, dim {args.dim}) to {args.out}")
    return EXIT_OK


def _cmd_ablate(args) -> int:
    _check_out(args, "--out", "--data")
    dataset = load_dataset(args.data)
    _check_classes(args.data, dataset, "the base/novel split")
    cfg = _config_for(args.config, dataset, args.data)
    if cfg.num_base is not None and cfg.num_base >= dataset.num_classes:
        raise DataError(
            f"{args.config}: num_base must be below the dataset's "
            f"{dataset.num_classes} classes, got {cfg.num_base}")
    # the split is seeded, so the suite's episodes can be checked against
    # it before any training, at the suite's largest shot count
    base, novel = pipeline_split(dataset, cfg)
    way, shot = (cfg.stage2.C, "stage2.C"), (max(ABLATION_SHOTS), "")
    if cfg.stage2.episodes:
        _check_way(args.config, novel if cfg.meta_source == "novel" else base,
                   way, shot, (cfg.stage2.L, "stage2.L"),
                   f"the {cfg.meta_source} split")
    _check_way(args.config, novel, way, shot,
               (cfg.eval.queries_per_class, "eval.queries_per_class"),
               "the novel split")
    rows = run_ablation_suite(dataset, cfg, csv_path=args.out)
    for row in rows:
        print(f"{row['model']:<8s} r={row['iterations']}  "
              f"1-shot {row['acc_1shot']:.4f}  5-shot {row['acc_5shot']:.4f}")
    print(f"wrote {args.out}")
    return EXIT_OK


def _cmd_separation(args) -> int:
    _check_out(args, "--out-csv", "--data", "--model")
    model = load_checkpoint(args.model)
    dataset = load_dataset(args.data)
    _check_classes(args.data, dataset, "separation report")
    _check_way(None, dataset, (min(args.way, dataset.num_classes), "--way"),
               (args.shot, "--shot"), (1, ""))  # the report draws 1 query
    rep = separation_report(model, dataset, way=args.way, shot=args.shot,
                            seed=args.seed, csv_path=args.out_csv)
    print(f"silhouette before {rep.silhouette_before:.4f}, "
          f"after {rep.silhouette_after:.4f}")
    print(f"wrote {args.out_csv}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

# A rule is (requirement, test): main refuses a set flag whose value fails
# the test with "FLAG must be REQUIREMENT, got VALUE".
def _ge(floor):
    return f">= {floor}", lambda v: v >= floor


def _le(ceiling):
    return f"<= {ceiling}", lambda v: v <= ceiling


SEED = (_ge(0), _le(2**64 - 1))
POSITIVE = ("a finite number > 0", lambda v: math.isfinite(v) and v > 0)
IN_A_DIR = ("a file in an existing directory",
            lambda v: os.path.isdir(os.path.dirname(v) or ".")
            and not os.path.isdir(v or "."))


def _add(p, flag: str, *rules, **kwargs) -> None:
    """``p.add_argument(flag, **kwargs)``, recording the flag's ``rules``
    in ``p``'s ``rules`` default for :func:`main` to check."""
    p.add_argument(flag, **kwargs)
    p.set_defaults(rules=[*(p.get_default("rules") or ()),
                          *((flag, rule) for rule in rules)])


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="dmin",
                     description="Few-shot text classification with dynamic "
                                 "memory routing.")
    sub = parser.add_subparsers(dest="command", metavar="command",
                                required=True)

    p = sub.add_parser("pretrain",
                       help="fit the encoder and base-class classifier")
    p.add_argument("--config", help="train config JSON")
    p.add_argument("--data", required=True, help="base-class dataset "
                   "(.tsv or .jsonl)")
    _add(p, "--out", IN_A_DIR, required=True, help="checkpoint to write")
    p.set_defaults(func=_cmd_pretrain)

    p = sub.add_parser("metatrain",
                       help="episode training of the full pipeline")
    p.add_argument("--config", help="train config JSON")
    p.add_argument("--model", required=True, help="checkpoint to start from")
    p.add_argument("--data", required=True, help="episode source dataset")
    _add(p, "--out", IN_A_DIR, required=True, help="checkpoint to write")
    p.set_defaults(func=_cmd_metatrain)

    p = sub.add_parser("eval", help="few-shot accuracy over fresh episodes")
    p.add_argument("--model", required=True, help="trained checkpoint")
    p.add_argument("--data", required=True, help="test-class dataset")
    _add(p, "--episodes", _ge(1), _le(MAX_EVAL_EPISODES), type=int,
         metavar="E")
    _add(p, "--way", _ge(2), type=int, metavar="C")
    _add(p, "--shot", _ge(1), type=int, metavar="K")
    _add(p, "--queries", _ge(1), type=int, metavar="L",
         help="query items per class")
    _add(p, "--seed", *SEED, type=int, help="episode sampling seed")
    _add(p, "--ablation", (f"one of {', '.join(ABLATIONS)}",
                           lambda v: v in ABLATIONS),
         help="full, no_dmm, no_qim, or no_dmm+no_qim")
    p.add_argument("--config", help="train config JSON supplying defaults")
    _add(p, "--out", IN_A_DIR, required=True, help="report JSON to write")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("synth", help="generate a synthetic vector dataset")
    _add(p, "--classes", _ge(1), type=int, required=True, metavar="N")
    _add(p, "--per-class", _ge(1), type=int, required=True, metavar="M")
    _add(p, "--dim", _ge(1), type=int, required=True, metavar="D")
    _add(p, "--separation", POSITIVE, type=float, required=True, metavar="S",
         help="class-center sphere radius in noise units")
    _add(p, "--sigma", POSITIVE, type=float, default=1.0,
         help="per-item noise scale (default 1.0)")
    _add(p, "--seed", *SEED, type=int, default=0)
    _add(p, "--out", IN_A_DIR, required=True, help="JSONL file to write")
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("ablate",
                       help="train and score the five model variants")
    p.add_argument("--config", help="train config JSON")
    p.add_argument("--data", required=True, help="full dataset to split")
    _add(p, "--out", IN_A_DIR, required=True, help="CSV table to write")
    p.set_defaults(func=_cmd_ablate)

    p = sub.add_parser("separation",
                       help="support-vector silhouette before/after "
                            "memory adaptation")
    p.add_argument("--model", required=True, help="trained checkpoint")
    p.add_argument("--data", required=True, help="dataset to sample from")
    _add(p, "--way", _ge(2), type=int, default=10)
    _add(p, "--shot", _ge(1), type=int, default=5)
    _add(p, "--seed", *SEED, type=int, default=1)
    _add(p, "--out-csv", IN_A_DIR, required=True, help="vector CSV to write")
    p.set_defaults(func=_cmd_separation)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        for flag, (must, test) in args.rules:
            v = _flag(args, flag)
            if v is not None and not test(v):
                raise DataError(f"{flag} must be {must}, got {v!r}")
        # every op checks its own result and Adam each gradient, raising
        # NumericError, so numpy's floating-point warnings would only
        # repeat that one line
        with np.errstate(all="ignore"):
            return args.func(args)
    except SystemExit as err:  # argparse --help or a usage error
        return err.code if isinstance(err.code, int) else EXIT_USAGE
    except nm.NumericError as err:
        print(f"dmin: numeric failure: {err}", file=sys.stderr)
        return EXIT_NUMERIC
    except ValueError as err:  # DataError and CheckpointError included
        print(f"dmin: data error: {err}", file=sys.stderr)
        return EXIT_DATA
    except MemoryError as err:  # sizes that the inputs ask for
        print(f"dmin: data error: out of memory"
              + (f": {err}" if str(err) else ""), file=sys.stderr)
        return EXIT_DATA
    except OSError as err:
        print(f"dmin: {err}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
