"""End-to-end checks of the command-line interface.

Most tests drive ``cli.main`` in-process with an argv list and assert on
the exit code and the files it writes.  Exit-code contract: 0 success,
1 usage error, 2 data error, 3 numeric failure.
"""

import argparse
import csv
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dmin import cli
from dmin.episodes import gen_synthetic, load_jsonl_vectors, save_jsonl_vectors
from dmin.encoder import EncoderConfig
from dmin.harness import TrainConfig, model_config_from
from dmin.model import init_model, load_checkpoint, save_checkpoint


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("cli")


@pytest.fixture(scope="module")
def data_path(workdir):
    ds = gen_synthetic(6, 12, 8, 6.0, 1.0, seed=3)
    path = workdir / "data.jsonl"
    save_jsonl_vectors(ds, path)
    return path


@pytest.fixture(scope="module")
def config_path(workdir):
    cfg = {"stage1": {"steps": 30, "batch_size": 16},
           "stage2": {"episodes": 5, "C": 3, "K": 1, "L": 2},
           "eval": {"episodes": 4, "queries_per_class": 2},
           "seed": 0}
    path = workdir / "config.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return path


@pytest.fixture(scope="module")
def pretrained_path(workdir, data_path, config_path):
    out = workdir / "pre.ckpt"
    rc = cli.main(["pretrain", "--config", str(config_path),
                   "--data", str(data_path), "--out", str(out)])
    assert rc == 0
    return out


@pytest.fixture(scope="module")
def trained_path(workdir, data_path, config_path, pretrained_path):
    out = workdir / "meta.ckpt"
    rc = cli.main(["metatrain", "--config", str(config_path),
                   "--model", str(pretrained_path),
                   "--data", str(data_path), "--out", str(out)])
    assert rc == 0
    return out


@pytest.fixture()
def text_path(tmp_path):
    lines = []
    for label, vocab in [("red", "crimson scarlet ruby cherry brick"),
                         ("green", "lime olive emerald moss fern"),
                         ("blue", "navy azure cobalt teal sapphire")]:
        for word in vocab.split():
            lines.append(f"{label}\t{word} {label} tone")
    path = tmp_path / "text.tsv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def _eval_args(model, data, out, **over):
    args = ["eval", "--model", str(model), "--data", str(data),
            "--out", str(out)]
    for key, val in over.items():
        args += [f"--{key}", str(val)]
    return args


# ---------------------------------------------------------------------------
# happy paths
# ---------------------------------------------------------------------------

def test_synth_writes_loadable_jsonl(tmp_path):
    out = tmp_path / "synth.jsonl"
    rc = cli.main(["synth", "--classes", "4", "--per-class", "5",
                   "--dim", "6", "--separation", "6.0", "--sigma", "1.0",
                   "--seed", "9", "--out", str(out)])
    assert rc == 0
    ds = load_jsonl_vectors(out)
    assert ds.num_classes == 4
    assert ds.num_items == 20
    assert ds.dim == 6


def test_synth_same_seed_same_bytes(tmp_path):
    outs = []
    for name in ("a.jsonl", "b.jsonl"):
        out = tmp_path / name
        assert cli.main(["synth", "--classes", "3", "--per-class", "4",
                         "--dim", "5", "--separation", "4.0",
                         "--seed", "7", "--out", str(out)]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]
    other = tmp_path / "c.jsonl"
    assert cli.main(["synth", "--classes", "3", "--per-class", "4",
                     "--dim", "5", "--separation", "4.0",
                     "--seed", "8", "--out", str(other)]) == 0
    assert other.read_bytes() != outs[0]


def test_pretrain_writes_checkpoint(pretrained_path, data_path):
    model = load_checkpoint(pretrained_path)
    assert model.meta.get("pretrained") is True
    # encoder inferred from the vector data, not the config default
    assert model.config.encoder.kind == "precomputed"
    assert model.config.embed_dim == 8
    assert model.config.num_base_classes == 6


def test_metatrain_marks_checkpoint(trained_path):
    model = load_checkpoint(trained_path)
    assert model.meta.get("pretrained") is True
    assert model.meta.get("meta_trained") is True


def test_eval_writes_report(tmp_path, trained_path, data_path, config_path):
    out = tmp_path / "report.json"
    rc = cli.main(_eval_args(trained_path, data_path, out,
                             config=config_path))
    assert rc == 0
    report = json.loads(out.read_text(encoding="utf-8"))
    assert set(report) == {"mean_accuracy", "std_accuracy", "episodes",
                          "per_episode", "config_hash", "wall_time_ms",
                          "std_undefined"}
    assert report["episodes"] == 4
    assert len(report["per_episode"]) == 4
    assert 0.0 <= report["mean_accuracy"] <= 1.0


def test_eval_flags_override_defaults(tmp_path, trained_path, data_path):
    out = tmp_path / "report.json"
    rc = cli.main(_eval_args(trained_path, data_path, out,
                             episodes=3, way=4, shot=2, queries=2, seed=5))
    assert rc == 0
    report = json.loads(out.read_text(encoding="utf-8"))
    assert report["episodes"] == 3
    assert len(report["per_episode"]) == 3


def test_eval_repeat_runs_agree(tmp_path, trained_path, data_path):
    reports = []
    for name in ("r1.json", "r2.json"):
        out = tmp_path / name
        assert cli.main(_eval_args(trained_path, data_path, out,
                                   episodes=4, way=3, shot=1,
                                   queries=2, seed=0)) == 0
        reports.append(json.loads(out.read_text(encoding="utf-8")))
    a, b = reports
    assert a["per_episode"] == b["per_episode"]
    assert a["config_hash"] == b["config_hash"]
    assert a["mean_accuracy"] == b["mean_accuracy"]


def test_eval_seed_changes_config_hash(tmp_path, trained_path, data_path):
    hashes = []
    for seed in (0, 1):
        out = tmp_path / f"s{seed}.json"
        assert cli.main(_eval_args(trained_path, data_path, out,
                                   episodes=2, way=3, shot=1, queries=2,
                                   seed=seed)) == 0
        hashes.append(json.loads(out.read_text(encoding="utf-8"))
                      ["config_hash"])
    assert hashes[0] != hashes[1]


def test_eval_ablation_flag(tmp_path, trained_path, data_path):
    hashes = []
    for ablation in ("full", "no_dmm+no_qim"):
        out = tmp_path / "r.json"
        assert cli.main(_eval_args(trained_path, data_path, out,
                                   episodes=2, way=3, shot=1, queries=2,
                                   seed=0, ablation=ablation)) == 0
        hashes.append(json.loads(out.read_text(encoding="utf-8"))
                      ["config_hash"])
    assert hashes[0] != hashes[1]


def test_pretrain_on_text_uses_feature_hash(tmp_path, text_path, config_path):
    out = tmp_path / "text.ckpt"
    rc = cli.main(["pretrain", "--config", str(config_path),
                   "--data", str(text_path), "--out", str(out)])
    assert rc == 0
    model = load_checkpoint(out)
    assert model.config.encoder.kind == "feature_hash"
    assert "enc.projection" in model.params


def test_separation_writes_csv(tmp_path, trained_path, data_path):
    out = tmp_path / "vectors.csv"
    rc = cli.main(["separation", "--model", str(trained_path),
                   "--data", str(data_path), "--way", "3", "--shot", "2",
                   "--out-csv", str(out)])
    assert rc == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "stage,label," + ",".join(f"v{i}" for i in range(8))
    assert len(lines) == 1 + 2 * 3 * 2  # header + before/after x way x shot


def test_separation_on_one_class_is_data_error(tmp_path, trained_path,
                                               data_path, capsys):
    one = tmp_path / "one.jsonl"
    lines = data_path.read_text(encoding="utf-8").splitlines()
    one.write_text(_jsonl_one_class(None, lines), encoding="utf-8")
    out = tmp_path / "vectors.csv"
    capsys.readouterr()
    rc = cli.main(["separation", "--model", str(trained_path),
                   "--data", str(one), "--out-csv", str(out)])
    assert rc == 2 and not out.exists()
    assert capsys.readouterr().err == (f"dmin: data error: {one}: separation "
                                       f"report needs at least 2 classes, "
                                       f"got 1\n")


def test_ablate_writes_five_row_table(tmp_path, data_path):
    cfg = {"stage1": {"steps": 10, "batch_size": 8},
           "stage2": {"episodes": 2, "C": 3, "K": 1, "L": 2},
           "eval": {"episodes": 2, "queries_per_class": 2},
           "seed": 0}
    cfg_path = tmp_path / "tiny.json"
    cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
    out = tmp_path / "table.csv"
    rc = cli.main(["ablate", "--config", str(cfg_path),
                   "--data", str(data_path), "--out", str(out)])
    assert rc == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "model,iterations,acc_1shot,acc_5shot"
    assert len(lines) == 6
    assert [ln.split(",")[0] for ln in lines[1:]] == \
        ["w/o DMM", "w/o QIM", "DMIN", "DMIN", "DMIN"]


def test_module_invocation_smoke():
    proc = _run_cli(["--help"])
    assert proc.returncode == 0
    assert "pretrain" in proc.stdout


# ---------------------------------------------------------------------------
# exit codes
# ---------------------------------------------------------------------------

def test_no_subcommand_is_usage_error(capsys):
    assert cli.main([]) == 1
    assert "error" in capsys.readouterr().err


def test_unknown_subcommand_is_usage_error():
    assert cli.main(["bogus"]) == 1


def test_missing_required_flag_is_usage_error():
    assert cli.main(["eval", "--model", "x.ckpt"]) == 1


def test_bad_int_flag_is_usage_error(tmp_path):
    assert cli.main(["synth", "--classes", "three", "--per-class", "4",
                     "--dim", "5", "--separation", "4.0",
                     "--out", str(tmp_path / "x.jsonl")]) == 1


def test_help_exits_zero(capsys):
    assert cli.main(["--help"]) == 0
    assert "pretrain" in capsys.readouterr().out


def test_missing_data_file_is_data_error(tmp_path, capsys):
    rc = cli.main(["pretrain", "--data", str(tmp_path / "absent.jsonl"),
                   "--out", str(tmp_path / "m.ckpt")])
    assert rc == 2
    assert "dmin:" in capsys.readouterr().err


def test_unknown_extension_is_data_error(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("a,b\n", encoding="utf-8")
    assert cli.main(["pretrain", "--data", str(path),
                     "--out", str(tmp_path / "m.ckpt")]) == 2


def test_malformed_tsv_is_data_error(tmp_path):
    path = tmp_path / "bad.tsv"
    path.write_text("label-without-tab\n", encoding="utf-8")
    assert cli.main(["pretrain", "--data", str(path),
                     "--out", str(tmp_path / "m.ckpt")]) == 2


def test_bad_config_json_is_data_error(tmp_path, data_path):
    cfg = tmp_path / "broken.json"
    cfg.write_text("not json", encoding="utf-8")
    assert cli.main(["pretrain", "--config", str(cfg),
                     "--data", str(data_path),
                     "--out", str(tmp_path / "m.ckpt")]) == 2


def test_unknown_config_key_is_data_error(tmp_path, data_path):
    cfg = tmp_path / "odd.json"
    cfg.write_text(json.dumps({"stagex": {}}), encoding="utf-8")
    assert cli.main(["pretrain", "--config", str(cfg),
                     "--data", str(data_path),
                     "--out", str(tmp_path / "m.ckpt")]) == 2


def test_explicit_encoder_mismatch_is_data_error(tmp_path, data_path,
                                                 capsys):
    cfg = tmp_path / "enc.json"
    cfg.write_text(json.dumps(
        {"encoder": {"kind": "precomputed", "embed_dim": 32}}),
        encoding="utf-8")
    rc = cli.main(["pretrain", "--config", str(cfg),
                   "--data", str(data_path),
                   "--out", str(tmp_path / "m.ckpt")])
    assert rc == 2
    assert "dimension 8" in capsys.readouterr().err


def test_text_data_on_vector_model_is_data_error(tmp_path, trained_path,
                                                 text_path):
    rc = cli.main(["metatrain", "--model", str(trained_path),
                   "--data", str(text_path),
                   "--out", str(tmp_path / "m.ckpt")])
    assert rc == 2


def test_bad_ablation_value_is_data_error(tmp_path, trained_path, data_path):
    assert cli.main(_eval_args(trained_path, data_path,
                               tmp_path / "r.json", episodes=1,
                               ablation="bogus")) == 2


def test_overflowing_model_is_numeric_failure(tmp_path, data_path, capsys):
    cfg = TrainConfig(encoder=EncoderConfig(kind="precomputed", embed_dim=8))
    model = init_model(model_config_from(cfg, 6), seed=0)
    model.params["clf.log_tau"] = np.asarray(1000.0)
    ckpt = tmp_path / "hot.ckpt"
    save_checkpoint(model, ckpt)
    rc = cli.main(_eval_args(ckpt, data_path, tmp_path / "r.json",
                             episodes=1, way=3, shot=1, queries=2))
    assert rc == 3
    assert "numeric failure" in capsys.readouterr().err


def _resealed(body: dict) -> str:
    """Checkpoint text for ``body`` with a valid checksum."""
    body = {k: v for k, v in body.items() if k != "checksum"}
    canonical = json.dumps(body, sort_keys=True, separators=(",", ":"))
    body["checksum"] = hashlib.sha256(canonical.encode()).hexdigest()
    return json.dumps(body, sort_keys=True, separators=(",", ":"))


# Each maker turns the trained checkpoint's body and the data file's lines
# into the text of one malformed file.
def _ckpt_without(key):
    return lambda body, lines: _resealed(
        {k: v for k, v in body.items() if k != key})


def _ckpt_with(key, value):
    return lambda body, lines: _resealed({**body, key: value})


def _ckpt_with_shape(shape):
    def make(body, lines):
        entry = {**body["params"]["clf.log_tau"], "shape": shape}
        return _resealed(
            {**body, "params": {**body["params"], "clf.log_tau": entry}})
    return make


def _ckpt_with_param(name, entry):
    """The checkpoint with array entry ``name`` set to ``entry``."""
    def make(body, lines):
        return _resealed(
            {**body, "params": {**body["params"], name: entry}})
    return make


def _ckpt_config_with(dotted, value, *more):
    """The checkpoint with config field ``dotted`` set to ``value``, and
    each further ``(dotted, value)`` pair of ``more`` likewise."""
    def make(body, lines):
        config = json.loads(json.dumps(body["config"]))
        for key, v in ((dotted, value), *more):
            *outer, last = key.split(".")
            node = config
            for part in outer:
                node = node[part]
            node[last] = v
        return _resealed({**body, "config": config})
    return make


def _jsonl_with(literal):
    """The data file with one vector entry replaced by ``literal``."""
    def make(body, lines):
        record = json.loads(lines[2])
        record["vector"][0] = 12345.5
        lines = list(lines)
        lines[2] = json.dumps(record).replace("12345.5", literal)
        return "\n".join(lines) + "\n"
    return make


def _jsonl_zero_vector(body, lines):
    """The data file with the third record's vector all zeros."""
    record = json.loads(lines[2])
    record["vector"] = [0.0] * len(record["vector"])
    return "\n".join([*lines[:2], json.dumps(record), *lines[3:]]) + "\n"


def _jsonl_dim(dim):
    """The data file with every vector cut to its first ``dim`` entries."""
    def make(body, lines):
        records = [json.loads(line) for line in lines]
        return "".join(json.dumps({**r, "vector": r["vector"][:dim]}) + "\n"
                       for r in records)
    return make


def _jsonl_without(key):
    """The data file with ``key`` dropped from its third record."""
    def make(body, lines):
        record = json.loads(lines[2])
        del record[key]
        return "\n".join([*lines[:2], json.dumps(record), *lines[3:]]) + "\n"
    return make


def _jsonl_one_class(body, lines):
    """The data file cut to the records of its first record's label."""
    label = json.loads(lines[0])["label"]
    return "".join(line + "\n" for line in lines
                   if json.loads(line)["label"] == label)


def _config(obj):
    return lambda body, lines: json.dumps(obj)


def _text(content):
    """A fixed file body: JSON that ``json.dumps`` cannot write, or bytes."""
    return lambda body, lines: content


# argv templates: BAD is the malformed file, MODEL the trained checkpoint,
# CONFIG a valid config that sets no routing
BAD, MODEL, DATA, TEXT, OUT = "{bad}", "{model}", "{data}", "{text}", "{out}"
CONFIG = "{config}"
EVAL = ["eval", "--model", BAD, "--data", DATA, "--episodes", "1",
        "--out", OUT]
EVAL_CONFIG = ["eval", "--config", BAD, "--model", MODEL, "--data", DATA,
               "--episodes", "1", "--out", OUT]
EVAL_DATA = ["eval", "--model", MODEL, "--data", BAD, "--episodes", "1",
             "--out", OUT]
PRETRAIN_CONFIG = ["pretrain", "--config", BAD, "--data", DATA, "--out", OUT]
METATRAIN_CONFIG = ["metatrain", "--config", BAD, "--model", MODEL,
                    "--data", DATA, "--out", OUT]
ABLATE_CONFIG = ["ablate", "--config", BAD, "--data", DATA, "--out", OUT]
ROUTING_BOOL = {"input_dim": 8, "capsule_count": True, "capsule_dim": 8}
ROUTING_OK = {"input_dim": 8, "capsule_count": 2, "capsule_dim": 4}
ROUTING_WIDE = {"input_dim": 8, "capsule_count": 4, "capsule_dim": 2}
ROUTING_NARROW = {"input_dim": 6, "capsule_count": 2, "capsule_dim": 3}
ONE_EPISODE = {"episodes": 1, "C": 3, "K": 1, "L": 2}
# small enough that the parent's reading of num_base 0 ran to exit 0
TINY_ABLATION = {"stage1": {"steps": 1, "batch_size": 4},
                 "stage2": ONE_EPISODE,
                 "eval": {"episodes": 1, "queries_per_class": 1}}

# (case, file suffix, file maker, argv, substrings stderr must hold besides
# the file's name: the dotted key of a bad config or checkpoint field)
MALFORMED = [
    ("ckpt_no_config", ".ckpt", _ckpt_without("config"), EVAL,
     ["config must be an object"]),
    ("ckpt_no_params", ".ckpt", _ckpt_without("params"), EVAL, ["'params'"]),
    ("ckpt_params_not_object", ".ckpt", _ckpt_with("params", "x"), EVAL,
     ["'params'"]),
    ("ckpt_meta_not_object", ".ckpt", _ckpt_with("meta", 3),
     ["separation", "--model", BAD, "--data", DATA, "--way", "2",
      "--shot", "1", "--out-csv", OUT], ["'meta'"]),
    ("ckpt_float_shape", ".ckpt", _ckpt_with_shape([1.0]), EVAL,
     ["'clf.log_tau'"]),
    ("ckpt_not_an_object", ".ckpt", _text("[1, 2]"), EVAL,
     ["not a checkpoint file"]),
    ("ckpt_entry_without_data", ".ckpt",
     _ckpt_with_param("clf.log_tau", {"shape": []}), EVAL,
     ["bad array entry 'clf.log_tau'"]),
    ("ckpt_shape_beyond_values", ".ckpt", _ckpt_with_shape([2]), EVAL,
     ["array 'clf.log_tau' has 1 values, shape (2,) needs 2"]),
    # shapes whose size overflows int64, compared exactly: neither an
    # OverflowError nor a size that wraps to the 0 values given
    ("ckpt_shape_beyond_int64", ".ckpt", _ckpt_with_shape([2**70]), EVAL,
     [f"array 'clf.log_tau' has 1 values, shape ({2**70},) needs {2**70}"]),
    ("ckpt_shape_wrapping_int64", ".ckpt",
     _ckpt_with_param("clf.log_tau", {"shape": [2**40, 2**40], "data": ""}),
     EVAL, [f"array 'clf.log_tau' has 0 values, shape ({2**40}, {2**40}) "
            f"needs {2**80}"]),
    ("ckpt_unexpected_parameter", ".ckpt",
     _ckpt_with_param("clf.extra", {"shape": [], "data": "AAAAAAAAAAA="}),
     EVAL, ["unexpected parameters ['clf.extra']"]),
    ("ckpt_float_embed_dim", ".ckpt", _ckpt_config_with("embed_dim", 8.0),
     EVAL, ["config field embed_dim must be an integer"]),
    ("ckpt_float_num_base_classes", ".ckpt",
     _ckpt_config_with("num_base_classes", 6.0), EVAL,
     ["config field num_base_classes must be an integer"]),
    ("ckpt_string_share_routing", ".ckpt",
     _ckpt_config_with("share_routing", "no"), EVAL,
     ["config field share_routing must be true or false"]),
    ("ckpt_unknown_config_field", ".ckpt", _ckpt_config_with("dmm.bogus", 1),
     EVAL, ["config key 'dmm'", "'bogus'"]),
    # a nested config's own check, prefixed with its key
    ("ckpt_zero_capsule_count", ".ckpt",
     _ckpt_config_with("dmm.capsule_count", 0), EVAL,
     ["dmm.capsule_count must be a positive integer, got 0"]),
    # sizes beyond their bounds: a model that loaded would route 2**70
    # times per call, or make a (64, 2**40) projection
    ("ckpt_dmm_iterations", ".ckpt",
     _ckpt_config_with("dmm.iterations", 2**70), EVAL,
     [f"dmm.iterations must be <= 100, got {2**70}"]),
    ("config_routing_iterations", ".json",
     _config({"routing": {"dmm": {**ROUTING_OK, "iterations": 2**70},
                          "qim": ROUTING_OK}}), PRETRAIN_CONFIG,
     [f"routing.dmm.iterations must be <= 100, got {2**70}"]),
    # a model of 2**40-d routing in 2**39 capsules, which passes every
    # other check and would name 2**39 checkpoint arrays before reading one
    ("ckpt_capsule_count", ".ckpt",
     _ckpt_config_with("embed_dim", 2**40, ("encoder.embed_dim", 2**40),
                       *[(f"{op}.{key}", v) for op in ("dmm", "qim")
                         for key, v in (("input_dim", 2**40),
                                        ("capsule_count", 2**39),
                                        ("capsule_dim", 2))]), EVAL,
     [f"dmm.capsule_count must be <= 1024, got {2**39}"]),
    ("config_routing_transform_entries", ".json",
     _config({"encoder": {"kind": "precomputed", "embed_dim": 2**20},
              "routing": {op: {"input_dim": 2**20, "capsule_count": 4,
                               "capsule_dim": 2**18}
                          for op in ("dmm", "qim")}}), PRETRAIN_CONFIG,
     [f"routing.dmm.input_dim * output_dim must be <= 67108864, "
      f"got {2**40}"]),
    ("config_vocab_buckets", ".json",
     _config({"encoder": {"vocab_buckets": 2**40}}),
     ["pretrain", "--config", BAD, "--data", TEXT, "--out", OUT],
     [f"encoder.vocab_buckets must be <= 1048576, got {2**40}"]),
    ("config_projection_entries", ".json",
     _config({"encoder": {"kind": "feature_hash", "embed_dim": 2**20,
                          "vocab_buckets": 2**20}}),
     ["pretrain", "--config", BAD, "--data", TEXT, "--out", OUT],
     [f"encoder.embed_dim * vocab_buckets must be <= 67108864, "
      f"got {2**40}"]),
    ("config_float_int", ".json", _config({"stage1": {"steps": 2.5}}),
     PRETRAIN_CONFIG, ["stage1.steps"]),
    ("config_bool_int", ".json", _config({"eval": {"episodes": True}}),
     EVAL_CONFIG, ["eval.episodes"]),
    ("config_float_shot", ".json",
     _config({"stage2": {"episodes": 1, "K": 1.0}}), METATRAIN_CONFIG,
     ["stage2.K"]),
    ("config_bool_float", ".json",
     _config({"stage2": {**ONE_EPISODE, "learning_rate": True}}),
     METATRAIN_CONFIG, ["stage2.learning_rate"]),
    ("config_string_freeze_tau", ".json",
     _config({"freeze_tau": "false", "stage2": ONE_EPISODE}),
     METATRAIN_CONFIG, ["config field freeze_tau"]),
    ("config_string_share_params", ".json",
     _config({"routing": {"dmm": ROUTING_OK, "qim": ROUTING_OK,
                          "share_params": "no"}}),
     PRETRAIN_CONFIG, ["routing.share_params"]),
    ("config_unequal_shared_routing", ".json",
     _config({"routing": {"dmm": ROUTING_OK, "qim": ROUTING_WIDE,
                          "share_params": True}}),
     PRETRAIN_CONFIG, ["routing.share_params"]),
    ("config_routing_dim_for_vectors", ".json",
     _config({"routing": {"dmm": ROUTING_NARROW, "qim": ROUTING_NARROW}}),
     PRETRAIN_CONFIG, ["routing.dmm.input_dim"]),
    ("config_routing_qim_missing", ".json",
     _config({"routing": {"dmm": ROUTING_OK}}), PRETRAIN_CONFIG,
     ["routing.qim"]),
    ("config_routing_capsule_dim_1", ".json",
     _config({"routing": {"dmm": {**ROUTING_WIDE, "capsule_dim": 1},
                          "qim": {"input_dim": 8}}}),
     PRETRAIN_CONFIG, ["routing.dmm.capsule_dim must be >= 2"]),
    ("config_encoder_embed_dim_1", ".json",
     _config({"encoder": {"kind": "precomputed", "embed_dim": 1}}),
     PRETRAIN_CONFIG, ["encoder.embed_dim must be >= 2"]),
    ("config_routing_not_object", ".json", _config({"routing": [1]}),
     PRETRAIN_CONFIG, ["'routing'"]),
    ("config_null_stage", ".json", _config({"stage1": None}),
     PRETRAIN_CONFIG, ["'stage1'"]),
    ("config_encoder_dim_for_vectors", ".json",
     _config({"encoder": {"kind": "precomputed", "embed_dim": 5}}),
     PRETRAIN_CONFIG, ["encoder", "embed_dim=5"]),
    ("config_vector_encoder_for_text", ".json",
     _config({"encoder": {"kind": "precomputed", "embed_dim": 8}}),
     ["pretrain", "--config", BAD, "--data", TEXT, "--out", OUT],
     ["encoder.kind"]),
    ("config_string_seed", ".json", _config({"seed": "3"}), EVAL_CONFIG,
     ["config field seed"]),
    ("config_overflowing_stage1_lr", ".json",
     _text('{"stage1": {"learning_rate": 1e999}}'), PRETRAIN_CONFIG,
     ["stage1.learning_rate"]),
    ("config_overflowing_stage2_lr", ".json",
     _text('{"stage2": {"episodes": 1, "C": 3, "K": 1, "L": 2, '
           '"learning_rate": 1e999}}'), METATRAIN_CONFIG,
     ["stage2.learning_rate"]),
    ("config_infinity_lr", ".json",
     _config({"stage1": {"learning_rate": float("inf")}}), PRETRAIN_CONFIG,
     ["stage1.learning_rate"]),
    ("config_zero_stage1_lr", ".json",
     _config({"stage1": {"learning_rate": 0.0}}), PRETRAIN_CONFIG,
     ["stage1.learning_rate must be > 0, got 0.0"]),
    ("config_negative_stage2_lr", ".json",
     _config({"stage2": {**ONE_EPISODE, "learning_rate": -0.001}}),
     METATRAIN_CONFIG, ["stage2.learning_rate must be > 0, got -0.001"]),
    ("config_bool_routing", ".json",
     _config({"routing": {"dmm": ROUTING_BOOL, "qim": ROUTING_BOOL}}),
     PRETRAIN_CONFIG, ["routing.dmm.capsule_count"]),
    ("config_one_way", ".json", _config({"stage2": {**ONE_EPISODE, "C": 1}}),
     METATRAIN_CONFIG, ["stage2.C must be >= 2"]),
    ("config_zero_shot", ".json",
     _config({"stage2": {**ONE_EPISODE, "K": 0}}), METATRAIN_CONFIG,
     ["stage2.K must be >= 1"]),
    ("config_zero_queries", ".json",
     _config({"stage2": {**ONE_EPISODE, "L": 0}}), METATRAIN_CONFIG,
     ["stage2.L must be >= 1"]),
    ("config_episodes_beyond_ceiling", ".json",
     _config({"eval": {"episodes": 10**6 + 1}}), EVAL_CONFIG,
     ["eval.episodes must be <= 1000000"]),
    ("config_negative_seed", ".json",
     _config({"seed": -1, "stage2": ONE_EPISODE}), METATRAIN_CONFIG,
     ["seed must be in [0, 2**64)"]),
    ("config_zero_num_base", ".json",
     _config({**TINY_ABLATION, "num_base": 0}), ABLATE_CONFIG,
     ["num_base must be >= 1"]),
    # values that only the dataset (6 classes of 12 items) refutes
    ("config_way_beyond_data", ".json",
     _config({"stage2": {**ONE_EPISODE, "C": 7}}), METATRAIN_CONFIG,
     ["stage2.C = 7"]),
    ("config_items_beyond_data", ".json",
     _config({"stage2": {**ONE_EPISODE, "L": 12}}), METATRAIN_CONFIG,
     ["stage2.C = 3", "at least 13 items"]),
    ("config_way_beyond_data_eval", ".json", _config({"stage2": {"C": 7}}),
     EVAL_CONFIG, ["stage2.C = 7"]),
    ("config_num_base_beyond_data", ".json",
     _config({**TINY_ABLATION, "num_base": 6}), ABLATE_CONFIG,
     ["num_base", "6 classes"]),
    # 3 of the 6 classes are novel; refused before stage 1 runs
    ("config_way_beyond_novel_split", ".json",
     _config({**TINY_ABLATION, "stage2": {**ONE_EPISODE, "C": 4}}),
     ABLATE_CONFIG, ["stage2.C = 4", "novel split has 3"]),
    ("jsonl_nan", ".jsonl", _jsonl_with("NaN"),
     ["pretrain", "--data", BAD, "--out", OUT], []),
    ("jsonl_infinity", ".jsonl", _jsonl_with("-Infinity"),
     ["eval", "--model", MODEL, "--data", BAD, "--episodes", "1",
      "--out", OUT], []),
    ("jsonl_huge_int", ".jsonl", _jsonl_with("1" + "0" * 400),
     ["pretrain", "--data", BAD, "--out", OUT], []),
    ("jsonl_record_without_vector", ".jsonl", _jsonl_without("vector"),
     ["pretrain", "--data", BAD, "--out", OUT],
     ["line 3: expected keys 'label' and 'vector'"]),
    ("jsonl_record_without_label", ".jsonl", _jsonl_without("label"),
     EVAL_DATA, ["line 3: expected keys 'label' and 'vector'"]),
    ("jsonl_blank_lines_only", ".jsonl", _text("\n   \n\n"), EVAL_DATA,
     [": no records"]),
    ("jsonl_zero_vector", ".jsonl", _jsonl_zero_vector,
     ["pretrain", "--data", BAD, "--out", OUT], ["line 3", "zero norm"]),
    # unset routing takes 4 capsules of at least 2 coordinates each
    ("jsonl_dim_4_default_routing", ".jsonl", _jsonl_dim(4),
     ["pretrain", "--data", BAD, "--out", OUT],
     ["routing is unset,", "default of 4 capsules", "dimension 4"]),
    ("jsonl_dim_4_default_routing_config", ".jsonl", _jsonl_dim(4),
     ["ablate", "--config", CONFIG, "--data", BAD, "--out", OUT],
     ["routing is unset in", "config.json", "dimension 4"]),
    ("jsonl_dim_6_default_routing", ".jsonl", _jsonl_dim(6),
     ["ablate", "--data", BAD, "--out", OUT],
     ["routing is unset,", "default of 4 capsules", "dimension 6"]),
    ("jsonl_dim_6_default_routing_config", ".jsonl", _jsonl_dim(6),
     ["pretrain", "--config", CONFIG, "--data", BAD, "--out", OUT],
     ["routing is unset in", "config.json", "dimension 6"]),
    # the data, not a config, sets a dimension the model cannot take
    ("jsonl_dim_1", ".jsonl", _jsonl_dim(1),
     ["pretrain", "--data", BAD, "--out", OUT], ["vectors of dimension 1"]),
    ("jsonl_dim_1_ablate", ".jsonl", _jsonl_dim(1),
     ["ablate", "--data", BAD, "--out", OUT], ["vectors of dimension 1"]),
    ("jsonl_one_class_ablate", ".jsonl", _jsonl_one_class,
     ["ablate", "--data", BAD, "--out", OUT],
     ["base/novel split needs at least 2 classes, got 1"]),
    ("jsonl_one_class_pretrain", ".jsonl", _jsonl_one_class,
     ["pretrain", "--data", BAD, "--out", OUT],
     ["pretraining needs at least 2 classes, got 1"]),
    ("jsonl_invalid_utf8", ".jsonl",
     _text(b'{"label": "a\xff", "vector": [1.0, 2.0]}\n'),
     ["pretrain", "--data", BAD, "--out", OUT], []),
    ("tsv_no_tab", ".tsv", _text("red\tcrimson scarlet\nblue navy azure\n"),
     ["pretrain", "--data", BAD, "--out", OUT], []),
    ("tsv_invalid_utf8", ".tsv", _text(b"red\tcrimson\nblue\tn\xffvy\n"),
     ["pretrain", "--data", BAD, "--out", OUT], []),
]


@pytest.mark.parametrize("case,suffix,make,argv,named", MALFORMED,
                         ids=[row[0] for row in MALFORMED])
def test_malformed_file_is_one_line_data_error(tmp_path, trained_path,
                                               data_path, text_path,
                                               config_path, capsys,
                                               monkeypatch, case, suffix,
                                               make, argv, named):
    _refuse_stages(monkeypatch)  # every refusal comes before any stage
    body = json.loads(trained_path.read_text(encoding="utf-8"))
    lines = data_path.read_text(encoding="utf-8").splitlines()
    bad = tmp_path / f"{case}{suffix}"
    content = make(body, lines)
    bad.write_bytes(content if isinstance(content, bytes)
                    else content.encode("utf-8"))
    names = {"bad": bad, "model": trained_path, "data": data_path,
             "text": text_path, "config": config_path,
             "out": tmp_path / "out"}
    capsys.readouterr()
    assert cli.main([arg.format(**names) for arg in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("dmin: data error:"), err
    assert err.count("\n") == 1 and err.endswith("\n"), err
    assert "Traceback" not in err
    for part in [bad.name, *named]:
        assert part in err, err


SYNTH = ["synth", "--classes", "3", "--per-class", "4", "--dim", "5",
         "--out", OUT]
# (case, argv, substrings stderr must hold); DATA is a copy of the data
# file here, so a refusal that fails cannot clobber the shared one
BAD_FLAGS = [
    ("synth_infinite_separation", SYNTH + ["--separation", "inf"],
     ["--separation", "inf"]),
    ("synth_infinite_sigma", SYNTH + ["--separation", "6", "--sigma", "inf"],
     ["--sigma", "inf"]),
    ("synth_nan_sigma", SYNTH + ["--separation", "6", "--sigma", "nan"],
     ["--sigma", "nan"]),
    ("synth_overflowing_vectors",
     SYNTH + ["--separation", "1e200", "--sigma", "1e200"],
     ["--separation", "--sigma", "float range"]),
    ("synth_vanishing_vectors",
     SYNTH + ["--separation", "3", "--sigma", "1e-320"],
     ["--separation 3.0 with --sigma 1e-320", "zero norm"]),
    ("eval_unknown_ablation",
     ["eval", "--model", MODEL, "--data", DATA, "--ablation", "bogus",
      "--out", OUT], ["--ablation must be one of", "'bogus'"]),
    ("eval_shot_beyond_data",
     ["eval", "--model", MODEL, "--data", DATA, "--shot", "40",
      "--out", OUT], ["--shot 40", "at least 50 items"]),
    ("eval_queries_beyond_data",
     ["eval", "--model", MODEL, "--data", DATA, "--shot", "1",
      "--queries", "12", "--way", "3", "--out", OUT],
     ["--queries 12", "at least 13 items"]),
    ("eval_way_beyond_data",
     ["eval", "--model", MODEL, "--data", DATA, "--way", "50",
      "--episodes", "1", "--out", OUT], ["--way 50", "dataset has 6"]),
    ("eval_one_way",
     ["eval", "--model", MODEL, "--data", DATA, "--way", "1",
      "--out", OUT], ["--way must be >= 2"]),
    ("separation_zero_shot",
     ["separation", "--model", MODEL, "--data", DATA, "--shot", "0",
      "--out-csv", OUT], ["--shot must be >= 1"]),
    ("pretrain_out_is_data",
     ["pretrain", "--data", DATA, "--out", DATA], ["--out", "--data"]),
    ("metatrain_out_is_data",
     ["metatrain", "--model", MODEL, "--data", DATA, "--out", DATA],
     ["--out", "--data"]),
    ("eval_out_is_model",
     ["eval", "--model", MODEL, "--data", DATA, "--out", MODEL],
     ["--out", "--model"]),
    ("separation_out_csv_is_data",
     ["separation", "--model", MODEL, "--data", DATA, "--out-csv", DATA],
     ["--out-csv", "is the --data file"]),
    ("separation_out_csv_is_model",
     ["separation", "--model", MODEL, "--data", DATA, "--out-csv", MODEL],
     ["--out-csv", "is the --model file"]),
    ("eval_seed_beyond_64_bits",
     ["eval", "--model", MODEL, "--data", DATA, "--seed", str(2**64),
      "--out", OUT], ["--seed must be <= 18446744073709551615"]),
    ("separation_seed_beyond_64_bits",
     ["separation", "--model", MODEL, "--data", DATA, "--seed", str(2**64),
      "--out-csv", OUT], ["--seed must be <= 18446744073709551615"]),
    ("separation_shot_beyond_data",
     ["separation", "--model", MODEL, "--data", DATA, "--shot", str(2**64),
      "--out-csv", OUT], [f"--way 6 needs 6 classes with at least "
                          f"{2**64 + 1} items (--shot {2**64} plus",
                          "dataset has 0"]),
    ("synth_classes_beyond_64_bits",
     SYNTH + ["--separation", "6", "--classes", str(2**64)],
     [f"--classes {2**64}, --per-class 4, --dim 5: "]),
    ("synth_per_class_beyond_64_bits",
     SYNTH + ["--separation", "6", "--per-class", str(2**64)],
     [f"--classes 3, --per-class {2**64}, --dim 5: "]),
    ("synth_dim_beyond_64_bits",
     SYNTH + ["--separation", "6", "--dim", str(2**64)],
     [f"--classes 3, --per-class 4, --dim {2**64}: "]),
    ("synth_seed_beyond_64_bits",
     SYNTH + ["--separation", "6", "--seed", str(2**64)],
     ["--seed must be <= 18446744073709551615"]),
    ("eval_episodes_beyond_ceiling",
     ["eval", "--model", MODEL, "--data", DATA, "--episodes", str(2**64),
      "--out", OUT], ["--episodes must be <= 1000000"]),
    # OUT is never made, so a file inside it has no directory
    ("pretrain_out_in_missing_directory",
     ["pretrain", "--data", DATA, "--out", OUT + "/m.ckpt"],
     ["--out must be a file in an existing directory"]),
    ("ablate_out_in_missing_directory",
     ["ablate", "--data", DATA, "--out", OUT + "/t.csv"],
     ["--out must be a file in an existing directory"]),
    ("eval_out_is_a_directory",
     ["eval", "--model", MODEL, "--data", DATA, "--out", "{dir}"],
     ["--out must be a file in an existing directory"]),
]


def _refuse_stages(monkeypatch):
    """Make every training or evaluation stage the CLI calls fail the
    test, so that a refusal is shown to come before any of them."""
    def ran(*args, **kwargs):
        raise AssertionError("a stage ran before the refusal")
    for stage in ("pretrain", "meta_train", "evaluate", "run_ablation_suite",
                  "separation_report"):
        monkeypatch.setattr(cli, stage, ran)


@pytest.mark.parametrize("stage,argv", [
    ("gen_synthetic", ["synth", "--classes", "1000", "--per-class",
                       "100000", "--dim", "1000", "--separation", "6",
                       "--out", "{out}"]),
    ("pretrain", ["pretrain", "--data", "{text}", "--out", "{out}"]),
], ids=["synth", "pretrain"])
def test_memory_error_is_one_line_data_error(tmp_path, text_path, capsys,
                                             monkeypatch, stage, argv):
    # the stage raises as numpy does when it cannot allocate; nothing
    # of that size is asked for
    def oom(*args, **kwargs):
        raise MemoryError("Unable to allocate 745. GiB for an array with "
                          "shape (100000000, 1000) and data type float64")
    monkeypatch.setattr(cli, stage, oom)
    out = tmp_path / "out.jsonl"
    capsys.readouterr()
    assert cli.main([a.format(out=out, text=text_path) for a in argv]) == 2
    err = capsys.readouterr().err
    assert err == ("dmin: data error: out of memory: Unable to allocate "
                   "745. GiB for an array with shape (100000000, 1000) and "
                   "data type float64\n"), err
    assert not out.exists()


def test_memory_error_without_a_reason_is_one_complete_line(
        text_path, tmp_path, capsys, monkeypatch):
    def oom(*args, **kwargs):
        raise MemoryError()
    monkeypatch.setattr(cli, "pretrain", oom)
    capsys.readouterr()
    assert cli.main(["pretrain", "--data", str(text_path), "--out",
                     str(tmp_path / "m.ckpt")]) == 2
    assert capsys.readouterr().err == "dmin: data error: out of memory\n"


@pytest.mark.parametrize("case,argv,named", BAD_FLAGS,
                         ids=[row[0] for row in BAD_FLAGS])
def test_bad_flag_is_one_line_data_error_naming_it(tmp_path, trained_path,
                                                   data_path, capsys,
                                                   monkeypatch, case, argv,
                                                   named):
    _refuse_stages(monkeypatch)
    names = {"model": tmp_path / "model.ckpt", "data": tmp_path / "d.jsonl",
             "out": tmp_path / "out", "dir": tmp_path}
    names["model"].write_bytes(trained_path.read_bytes())
    names["data"].write_bytes(data_path.read_bytes())
    capsys.readouterr()
    assert cli.main([arg.format(**names) for arg in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("dmin: data error:"), err
    assert err.count("\n") == 1 and "Traceback" not in err, err
    for part in named:
        assert part in err, err
    assert names["data"].read_bytes() == data_path.read_bytes()
    assert names["model"].read_bytes() == trained_path.read_bytes()
    assert not names["out"].exists()


def _subcommands(parser) -> dict:
    return next(action.choices for action in parser._actions
                if isinstance(action, argparse._SubParsersAction))


# every int or float flag of every subcommand, with each awkward value
FLAG_TABLE = [(command, action.option_strings[0], value)
              for command, sub in _subcommands(cli.build_parser()).items()
              for action in sub._actions if action.type in (int, float)
              for value in ("0", "-1", str(2**64), "nan", "inf")]


@pytest.mark.parametrize("command,flag,value", FLAG_TABLE,
                         ids=[f"{c}{f}={v}" for c, f, v in FLAG_TABLE])
def test_numeric_flag_is_parsed_or_refused_in_one_line(tmp_path, monkeypatch,
                                                       capsys, command, flag,
                                                       value):
    """Only parsing and the declared rules are judged: every subcommand
    runs a stub, and the other required flags get harmless values."""
    parser = cli.build_parser()
    ran = []
    for sub in _subcommands(parser).values():
        sub.set_defaults(func=lambda args: ran.append(args) or 0)
    monkeypatch.setattr(cli, "build_parser", lambda: parser)
    argv = [command]
    for action in _subcommands(parser)[command]._actions:
        if action.required and flag not in action.option_strings:
            argv += [action.option_strings[0],
                     "3" if action.type else str(tmp_path / "file")]
    capsys.readouterr()
    rc = cli.main([*argv, f"{flag}={value}"])
    err = capsys.readouterr().err
    assert "Traceback" not in err, err
    if rc == 0:
        assert len(ran) == 1 and err == "", err
    elif rc == 1:  # argparse's usage error, only for a non-integer
        assert value in ("nan", "inf"), err
        assert f"argument {flag}: invalid int value" in err, err
    else:
        assert rc == 2 and not ran, (rc, err)
        assert err.startswith(f"dmin: data error: {flag} must be "), err
        assert err.count("\n") == 1, err


TINY_RUN = {"stage1": {"steps": 5, "batch_size": 4},
            "stage2": {"episodes": 2, "C": 2, "K": 1, "L": 1},
            "eval": {"episodes": 2, "queries_per_class": 1}}


def _finite(values) -> bool:
    return all(math.isfinite(float(v)) for v in values)


@settings(max_examples=5, deadline=None)
@given(classes=st.integers(4, 6), per_class=st.integers(7, 9),
       dim=st.sampled_from([8, 12]), separation=st.floats(2.0, 8.0),
       sigma=st.floats(0.5, 2.0), seed=st.integers(0, 2**64 - 1))
def test_every_written_file_loads_back_finite(tmp_path_factory, classes,
                                              per_class, dim, separation,
                                              sigma, seed):
    d = tmp_path_factory.mktemp("round_trip")
    cfg = d / "cfg.json"
    cfg.write_text(json.dumps(TINY_RUN), encoding="utf-8")
    data, pre, meta = d / "d.jsonl", d / "pre.ckpt", d / "meta.ckpt"
    report, vectors, table = d / "r.json", d / "v.csv", d / "t.csv"
    for argv in (
            ["synth", "--classes", classes, "--per-class", per_class,
             "--dim", dim, "--separation", separation, "--sigma", sigma,
             "--seed", seed, "--out", data],
            ["pretrain", "--config", cfg, "--data", data, "--out", pre],
            ["metatrain", "--config", cfg, "--model", pre, "--data", data,
             "--out", meta],
            ["eval", "--config", cfg, "--model", meta, "--data", data,
             "--out", report],
            ["separation", "--model", meta, "--data", data, "--way", "2",
             "--shot", "1", "--out-csv", vectors],
            ["ablate", "--config", cfg, "--data", data, "--out", table]):
        assert cli.main([str(arg) for arg in argv]) == 0, argv
    ds = load_jsonl_vectors(data)
    assert (ds.num_classes, ds.num_items) == (classes, classes * per_class)
    assert np.isfinite(np.stack(ds.payloads)).all()
    for ckpt in (pre, meta):
        assert all(np.isfinite(v).all()
                   for v in load_checkpoint(ckpt).params.values())
    rep = json.loads(report.read_text(encoding="utf-8"))
    assert _finite([rep["mean_accuracy"], rep["std_accuracy"],
                    *rep["per_episode"]])
    with open(vectors, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 1 + 2 * 2 and all(_finite(r[2:]) for r in rows[1:])
    with open(table, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 6 and all(_finite(r[1:]) for r in rows[1:])


def test_metatrain_may_rewrite_its_model_in_place(tmp_path, trained_path,
                                                  data_path, config_path):
    model = tmp_path / "model.ckpt"
    model.write_bytes(trained_path.read_bytes())
    assert cli.main(["metatrain", "--config", str(config_path),
                     "--model", str(model), "--data", str(data_path),
                     "--out", str(model)]) == 0
    assert model.read_bytes() != trained_path.read_bytes()
    load_checkpoint(model)


def _run_cli(argv, env_extra=None):
    """Run the CLI in a fresh interpreter, where numpy warnings would print."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src, **(env_extra or {})}
    return subprocess.run([sys.executable, "-m", "dmin.cli",
                           *map(str, argv)],
                          capture_output=True, text=True, env=env,
                          timeout=300)


def _assert_one_line_numeric_failure(proc):
    assert proc.returncode == 3, proc.stderr
    assert proc.stderr.startswith("dmin: numeric failure:"), proc.stderr
    assert proc.stderr.count("\n") == 1, proc.stderr
    assert "Warning" not in proc.stderr


def test_overflowing_training_is_one_line(tmp_path, pretrained_path,
                                          data_path):
    cfg = tmp_path / "hot.json"
    cfg.write_text(json.dumps(
        {"stage2": {**ONE_EPISODE, "episodes": 2, "learning_rate": 1e300}}),
        encoding="utf-8")
    _assert_one_line_numeric_failure(_run_cli(
        ["metatrain", "--config", cfg, "--model", pretrained_path,
         "--data", data_path, "--out", tmp_path / "m.ckpt"]))


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_nonfinite_checkpoint_is_one_line_data_error(tmp_path, trained_path,
                                                     data_path, bad):
    """A checkpoint is checked where it is read, so the bad array is named
    before any episode runs."""
    model = load_checkpoint(trained_path)
    model.params["clf.w_base"][2, 3] = float(bad)
    ckpt = tmp_path / "bad.ckpt"
    save_checkpoint(model, ckpt)
    proc = _run_cli(_eval_args(ckpt, data_path, tmp_path / "r.json",
                               episodes=1, way=3, shot=1, queries=2))
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr == \
        f"dmin: data error: {ckpt}: array 'clf.w_base' has a non-finite " \
        f"entry\n"
    assert not (tmp_path / "r.json").exists()


def test_overflowing_eval_is_one_line(tmp_path, pretrained_path, data_path):
    """The 4 episodes are one batch, so the overflow is raised inside it."""
    model = load_checkpoint(pretrained_path)
    w = model.params["dmm.w"].copy()
    w[:model.config.dmm.capsule_dim] *= 1e300  # capsule 0's rows
    model.params["dmm.w"] = w
    ckpt = tmp_path / "huge.ckpt"
    save_checkpoint(model, ckpt)
    _assert_one_line_numeric_failure(_run_cli(
        _eval_args(ckpt, data_path, tmp_path / "r.json", episodes=4, way=3,
                   shot=1, queries=2)))
