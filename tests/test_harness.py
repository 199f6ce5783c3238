import dataclasses
import json
import logging
import math
import typing
from dataclasses import asdict
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings, strategies as st

from dmin import harness, model as dmin_model, numerics as nm
from dmin.classifier import base_scores, loss_episode
from dmin.encoder import EncoderConfig
from dmin.episodes import (DataError, Dataset, Episode, EpisodeConfig,
                           gen_synthetic, sample_episode, split_base_novel)
from dmin.harness import (ABLATIONS, MAX_EVAL_EPISODES, EvalSettings,
                          MetaTrainResult,
                          PipelineResult, RoutingPair, Stage1Config,
                          Stage2Config, TrainConfig, config_hash_hex,
                          episode_accuracy, episode_forward,
                          episode_scores, episode_step, evaluate,
                          meta_train, model_config_from,
                          pretrain, run_ablation_suite, run_pipeline,
                          separation_report, train_config_from_dict,
                          train_config_to_dict)
from dmin.model import (Adam, ModelConfig, config_from_dict, init_model,
                        load_checkpoint)
from dmin.routing import RoutingConfig
from oracles import (assert_gradients_close, episode_reference,
                     finite_difference_gradients, prototype_predict)
from test_acceptance import C4_CONFIG
from test_model import _textbook_adam_step

FIXTURE = Path(__file__).resolve().parents[1] / "bench" / "fixture" / \
    "c4_model.ckpt"


def small_cfg(dim=8, **kwargs):
    rc = RoutingConfig.for_pipeline(dim, capsule_count=2, iterations=2)
    defaults = dict(
        stage1=Stage1Config(steps=20, batch_size=8, learning_rate=1e-3),
        stage2=Stage2Config(episodes=5, learning_rate=1e-3, C=3, K=2, L=3),
        eval=EvalSettings(episodes=4, queries_per_class=3),
        encoder=EncoderConfig(kind="precomputed", embed_dim=dim),
        routing=RoutingPair(dmm=rc, qim=rc),
        seed=5,
    )
    defaults.update(kwargs)
    return TrainConfig(**defaults)


def blob_dataset(num_classes=8, per_class=20, dim=8, separation=4.0, seed=0):
    return gen_synthetic(num_classes, per_class, dim, separation, 1.0, seed)


# classes enough for C = 5 and items enough for K + L = 6
_CONFIG_FUZZ_DATA = blob_dataset(num_classes=6, per_class=7)


class TestTrainConfig:
    def test_dict_round_trip_is_canonical(self):
        cfg = small_cfg()
        d1 = train_config_to_dict(cfg)
        d2 = train_config_to_dict(train_config_from_dict(d1))
        assert d1 == d2
        assert d1["stage2"]["C"] == 3 and d1["stage2"]["K"] == 2

    def test_partial_dict_uses_defaults(self):
        cfg = train_config_from_dict({"seed": 9, "stage2": {"episodes": 7}})
        assert cfg.seed == 9
        assert cfg.stage2.episodes == 7
        assert cfg.stage2.C == 5
        assert cfg.stage1.learning_rate == 1e-3
        assert cfg.eval.episodes == 100

    @pytest.mark.parametrize("stage, rate", [
        ("stage1", 0.0), ("stage1", -1e-3), ("stage2", 0.0),
        ("stage2", -2.5)])
    def test_learning_rate_must_be_positive(self, stage, rate):
        stages = {"stage1": Stage1Config(learning_rate=rate),
                  "stage2": Stage2Config(learning_rate=rate)}
        with pytest.raises(ValueError, match=rf"^{stage}.learning_rate must "
                                             rf"be > 0, got {rate}$"):
            small_cfg(**{stage: stages[stage]})

    def test_unknown_keys_rejected(self):
        with pytest.raises(DataError,
                           match=r"config has unknown fields \['stage3'\]"):
            train_config_from_dict({"stage3": {}})
        with pytest.raises(DataError):
            train_config_from_dict({"stage1": {"nope": 1}})

    def test_shared_routing_needs_equal_configs(self):
        rc = {"input_dim": 8, "capsule_count": 2, "capsule_dim": 4}
        raw = {"routing": {"dmm": rc, "qim": {**rc, "iterations": 2},
                           "share_params": True}}
        with pytest.raises(ValueError, match="share_params"):
            train_config_from_dict(raw)
        raw["routing"]["share_params"] = False
        assert train_config_from_dict(raw).routing.qim.iterations == 2

    @pytest.mark.parametrize("routing,message", [
        ({"dmm": {"input_dim": 8}}, "config key routing.qim is missing"),
        ({"qim": {"input_dim": 8}}, "config key routing.dmm is missing"),
        ({"dmm": {"input_dim": 8}, "qim": {"capsule_count": 2}},
         "config key routing.qim.input_dim is missing"),
        ([1], "config key 'routing' must be an object"),
        ("dmm", "config key 'routing' must be an object"),
        ({"dmm": {"input_dim": 8}, "qim": {"input_dim": 8}, "shared": True},
         "config key 'routing' has unknown fields ['shared']"),
    ])
    def test_routing_errors_say_which_key(self, routing, message):
        with pytest.raises(DataError) as err:
            train_config_from_dict({"routing": routing})
        assert str(err.value) == message

    def test_ablation_values(self):
        assert small_cfg(ablation="no_dmm").ablation_flags == {"no_dmm"}
        assert small_cfg(ablation="no_dmm+no_qim").ablation_flags == {
            "no_dmm", "no_qim"}
        assert small_cfg().ablation_flags == frozenset()
        with pytest.raises(ValueError):
            small_cfg(ablation="no_everything")

    def test_json_file_round_trip(self, tmp_path):
        cfg = small_cfg(seed=11, ablation="no_qim")
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(train_config_to_dict(cfg)))
        loaded = train_config_from_dict(json.loads(p.read_text()))
        assert train_config_to_dict(loaded) == train_config_to_dict(cfg)

    def test_validation(self):
        with pytest.raises(ValueError):
            small_cfg(stage1=Stage1Config(steps=-1))
        with pytest.raises(ValueError):
            small_cfg(eval=EvalSettings(episodes=0))
        with pytest.raises(ValueError):
            small_cfg(meta_source="sideways")
        for key, over in (("stage2.C", {"stage2": Stage2Config(C=1)}),
                          ("stage2.K", {"stage2": Stage2Config(K=0)}),
                          ("stage2.L", {"stage2": Stage2Config(L=0)}),
                          ("seed", {"seed": -1}),
                          ("seed", {"seed": 2 ** 64}),
                          ("num_base", {"num_base": 0}),
                          ("eval.episodes", {"eval": EvalSettings(
                              episodes=MAX_EVAL_EPISODES + 1)})):
            with pytest.raises(ValueError, match=key):
                small_cfg(**over)
        assert small_cfg(seed=2 ** 64 - 1, num_base=1).num_base == 1
        assert small_cfg(eval=EvalSettings(
            episodes=MAX_EVAL_EPISODES)).eval.episodes == MAX_EVAL_EPISODES

    def test_evaluate_refuses_episode_counts_out_of_range(self):
        cfg = small_cfg()
        model = init_model(model_config_from(cfg, 8), seed=0)
        for episodes in (0, MAX_EVAL_EPISODES + 1):
            with pytest.raises(ValueError, match="episodes must be in"):
                evaluate(model, blob_dataset(), cfg, episodes=episodes)

    def test_config_hash_stable(self):
        cfg = small_cfg()
        d = train_config_to_dict(cfg)
        assert config_hash_hex(d) == config_hash_hex(
            train_config_to_dict(small_cfg()))
        assert config_hash_hex(d) != config_hash_hex(
            train_config_to_dict(small_cfg(seed=99)))


# wrong JSON values for each scalar field type; a bool is not an int
WRONG_VALUES = {int: [True, 2.0], bool: ["false"], float: [1e999, True],
                str: [3]}
# (config class, its decoder, a valid JSON object for it)
CONFIG_ROOTS = [
    (TrainConfig, train_config_from_dict,
     train_config_to_dict(TrainConfig())),
    (ModelConfig, lambda raw: config_from_dict(ModelConfig, raw),
     asdict(model_config_from(TrainConfig(), 4))),
]


def _config_fields(cls, prefix=""):
    """(dotted key, type, takes null) for each field of config dataclass
    ``cls`` and, recursively, of the config dataclasses it holds."""
    hints = typing.get_type_hints(cls)
    for f in dataclasses.fields(cls):
        tp, key = hints[f.name], prefix + f.name
        args = typing.get_args(tp)
        nullable = type(None) in args
        if nullable:
            (tp,) = [a for a in args if a is not type(None)]
        yield key, tp, nullable
        if dataclasses.is_dataclass(tp):
            yield from _config_fields(tp, key + ".")


def _with_value(raw, key, value):
    """A deep copy of the JSON object ``raw`` with ``key`` (dotted) set."""
    raw = json.loads(json.dumps(raw))
    *outer, last = key.split(".")
    node = raw
    for part in outer:
        node = node[part]
    node[last] = value
    return raw


class TestConfigDecoder:
    """The one decoder of train configs and checkpoint configs, checked
    against a type table read from the dataclasses, so that a field added
    later is covered without editing this test."""

    @pytest.mark.parametrize("cls,decode,base", CONFIG_ROOTS,
                             ids=[root[0].__name__ for root in CONFIG_ROOTS])
    def test_every_field_rejects_wrong_types_and_null(self, cls, decode,
                                                      base):
        assert isinstance(decode(base), cls)
        seen, failures = set(), []
        for key, tp, nullable in _config_fields(cls):
            assert tp in WRONG_VALUES or dataclasses.is_dataclass(tp), key
            seen.add(tp)
            cases = [] if nullable else [None]
            cases += WRONG_VALUES.get(tp, [])
            for value in cases:
                try:
                    decode(_with_value(base, key, value))
                    failures.append(f"{key} = {value!r} accepted")
                except DataError as err:
                    if key not in str(err):
                        failures.append(f"{key} = {value!r}: {err}")
            if nullable:
                assert decode(_with_value(base, key, None)) is not None
        assert seen >= {int, bool, str}, seen
        assert failures == []

    def test_only_num_base_and_routing_take_null(self):
        nullable = {key for key, _, takes_null
                    in _config_fields(TrainConfig) if takes_null}
        assert nullable == {"num_base", "routing"}
        assert not any(takes_null for *_, takes_null
                       in _config_fields(ModelConfig))
        cfg = train_config_from_dict({"num_base": None, "routing": None})
        assert cfg == TrainConfig()
        with pytest.raises(DataError, match="'stage1' must be an object"):
            train_config_from_dict({"stage1": None})

    @pytest.mark.parametrize("cfg", [TrainConfig(), C4_CONFIG],
                             ids=["default", "criterion_4"])
    def test_train_config_round_trip(self, cfg):
        assert train_config_from_dict(json.loads(json.dumps(asdict(cfg)))) \
            == cfg

    def test_fixture_checkpoint_config(self):
        rc = RoutingConfig(32, capsule_count=2, capsule_dim=16, iterations=2)
        expected = ModelConfig(
            embed_dim=32, num_base_classes=20,
            encoder=EncoderConfig(kind="precomputed", embed_dim=32),
            dmm=rc, qim=rc, share_routing=False)
        raw = json.loads(FIXTURE.read_text(encoding="utf-8"))["config"]
        assert config_from_dict(ModelConfig, raw) == expected
        assert load_checkpoint(FIXTURE).config == expected

    def test_checkpoint_config_fields_name_the_key(self):
        raw = _with_value(CONFIG_ROOTS[1][2], "dmm.bogus", 1)
        with pytest.raises(DataError,
                           match=r"config key 'dmm' has unknown fields "
                                 r"\['bogus'\]"):
            config_from_dict(ModelConfig, raw)
        del raw["dmm"]
        with pytest.raises(DataError, match="config key dmm is missing"):
            config_from_dict(ModelConfig, raw)


def _text_dataset(rng, items):
    """Lines of 2-7 words over three overlapping 14-word vocabularies."""
    words = [f"w{i}" for i in range(40)]
    payloads = [" ".join(rng.choice(words[10 * (k % 3):10 * (k % 3) + 14],
                                    size=rng.integers(2, 8)))
                for k in range(items)]
    return Dataset(payloads=payloads, labels=[k % 3 for k in range(items)],
                   class_names=["a", "b", "c"])


class TestPretrain:
    def test_three_separated_classes_reach_095(self):
        ds = blob_dataset(num_classes=3, per_class=30, dim=16,
                          separation=6.0, seed=2)
        rc = RoutingConfig.for_pipeline(16, capsule_count=2, iterations=2)
        cfg = small_cfg(dim=16,
                        routing=RoutingPair(dmm=rc, qim=rc),
                        stage1=Stage1Config(steps=200, batch_size=16,
                                            learning_rate=1e-3))
        result = pretrain(ds, cfg)
        assert result.train_accuracy >= 0.95
        assert len(result.losses) == 200

    def test_zero_steps_equals_initialization(self):
        ds = blob_dataset(num_classes=4)
        cfg = small_cfg(stage1=Stage1Config(steps=0))
        result = pretrain(ds, cfg)
        fresh = init_model(model_config_from(cfg, 4), seed=cfg.seed)
        for k in fresh.params:
            npt.assert_array_equal(result.model.params[k], fresh.params[k])
        assert result.losses == []

    def test_step0_loss_is_log_c_under_uniform_scores(self):
        ds = blob_dataset(num_classes=5, per_class=10)
        cfg = small_cfg(stage1=Stage1Config(steps=1, batch_size=8,
                                            learning_rate=1e-9))
        model = init_model(model_config_from(cfg, 5), seed=1)
        # identical weight rows -> identical cosines -> uniform softmax
        model.params["clf.w_base"][:] = np.ones((5, 8))
        tensors = model.tensors()
        clf = model.classifier(tensors)
        from dmin.classifier import loss_supervised
        losses = [loss_supervised(base_scores(
            clf, model.encode_vectors(ds.payloads, [i])[0]), [lab]).item()
            for i, lab in enumerate(ds.labels[:20])]
        npt.assert_allclose(losses, math.log(5.0), atol=1e-12)

    def test_step0_loss_near_log_c_for_random_init(self):
        # random weight rows give cosines with spread ~1/sqrt(d); tau=10
        # inflates that, so the bound is loose and uses a larger d
        ds = blob_dataset(num_classes=8, per_class=10, dim=64)
        rc = RoutingConfig.for_pipeline(64, capsule_count=2, iterations=2)
        cfg = small_cfg(dim=64, routing=RoutingPair(dmm=rc, qim=rc),
                        stage1=Stage1Config(steps=1, batch_size=32,
                                            learning_rate=1e-9))
        result = pretrain(ds, cfg)
        assert 0.5 * math.log(8.0) < result.losses[0] < math.log(8.0) + 2.5

    def test_divergence_raises_numeric_error(self):
        ds = blob_dataset(num_classes=3, per_class=10)
        cfg = small_cfg(stage1=Stage1Config(steps=30, batch_size=8))
        model = init_model(model_config_from(cfg, 3), seed=1)
        model.params["clf.log_tau"] = np.array(1000.0)  # exp overflows
        with pytest.raises(nm.NumericError):
            pretrain(ds, cfg, model=model)

    def test_resume_rejects_class_count_mismatch(self):
        ds = blob_dataset(num_classes=3, per_class=10)
        cfg = small_cfg()
        model = init_model(model_config_from(cfg, 5), seed=1)
        with pytest.raises(DataError):
            pretrain(ds, cfg, model=model)

    def test_train_accuracy_counts_what_the_per_item_loop_counts(self):
        ds = _text_dataset(np.random.default_rng(7), 60)
        cfg = small_cfg(encoder=EncoderConfig(embed_dim=8, vocab_buckets=64),
                        stage1=Stage1Config(steps=4, batch_size=8,
                                            learning_rate=1e-2))
        result = pretrain(ds, cfg)
        model = result.model
        tensors = model.tensors()
        clf = model.classifier(tensors)
        hits = sum(int(np.argmax(base_scores(
            clf, model.encode(tensors, payload)).array)) == label
            for payload, label in zip(ds.payloads, ds.labels))
        assert 0 < hits < ds.num_items  # neither count is trivial
        assert result.train_accuracy == hits / ds.num_items

    def test_a_text_batch_records_at_most_45_tape_nodes(self, monkeypatch):
        # 32 items of one embed node each, 7 parameter leaves and one node
        # each for tau, stacking, reshaping, cosine, tau * cosine and the
        # loss: 45, where a separate tanh per item recorded 77 and
        # per-item scoring 150
        sizes, real = [], nm.backward
        monkeypatch.setattr(nm, "backward", lambda tape, root: (
            sizes.append(len(tape)), real(tape, root))[1])
        cfg = TrainConfig(stage1=Stage1Config(steps=2, batch_size=32),
                          encoder=EncoderConfig())
        pretrain(_text_dataset(np.random.default_rng(8), 40), cfg)
        assert len(sizes) == 2 and max(sizes) <= 45, sizes

    def test_a_c4_training_episode_records_at_most_256_tape_nodes(
            self, monkeypatch):
        # 5-way 1-shot, 5 queries per class, at the criterion-4 shapes:
        # 6 parameter leaves (one w and one b per routing operator), 130
        # routing nodes, and one cosine and one mul for all the scores
        tapes, real = [], nm.backward
        monkeypatch.setattr(nm, "backward", lambda tape, root: (
            tapes.append([node.op for node in tape.nodes]),
            real(tape, root))[1])
        cfg = dataclasses.replace(C4_CONFIG, stage2=dataclasses.replace(
            C4_CONFIG.stage2, episodes=1))
        model = init_model(model_config_from(cfg, 20), seed=1)
        meta_train(model, blob_dataset(num_classes=6, per_class=6, dim=32),
                   cfg)
        assert len(tapes) == 1
        assert len(tapes[0]) <= 256 and tapes[0].count("leaf") <= 6, (
            len(tapes[0]), tapes[0].count("leaf"))

    def test_text_pretraining_is_deterministic(self):
        ds = _text_dataset(np.random.default_rng(6), 30)
        cfg = small_cfg(encoder=EncoderConfig(embed_dim=8, vocab_buckets=64),
                        stage1=Stage1Config(steps=15, batch_size=8,
                                            learning_rate=1e-2))
        first, second = pretrain(ds, cfg), pretrain(ds, cfg)
        assert first.losses == second.losses
        assert first.model.param_digest() == second.model.param_digest()
        fresh = init_model(model_config_from(cfg, 3), seed=cfg.seed)
        assert first.model.param_digest() != fresh.param_digest()

    def test_marks_pretrained(self):
        ds = blob_dataset(num_classes=3, per_class=10)
        result = pretrain(ds, small_cfg(stage1=Stage1Config(steps=2)))
        assert result.model.meta["pretrained"] is True


class TestMetaTrain:
    def test_one_step_changes_routing_params(self):
        ds = blob_dataset()
        cfg = small_cfg(stage2=Stage2Config(episodes=1, learning_rate=1e-3,
                                            C=3, K=2, L=3))
        model = init_model(model_config_from(cfg, ds.num_classes), seed=3)
        # capsule 0's rows of each operator's stacked weight
        rows = slice(model.config.dmm.capsule_dim)
        before_dmm = model.params["dmm.w"][rows].copy()
        before_qim = model.params["qim.w"][rows].copy()
        meta_train(model, ds, cfg)
        assert not np.array_equal(model.params["dmm.w"][rows], before_dmm)
        assert not np.array_equal(model.params["qim.w"][rows], before_qim)
        assert model.meta["meta_trained"] is True

    def test_an_episode_records_one_exp_and_one_cross_entropy(self):
        ds = blob_dataset()
        cfg = small_cfg()
        model = init_model(model_config_from(cfg, ds.num_classes), seed=3)
        episode = sample_episode(ds, EpisodeConfig(way=3, shot=2, queries=3,
                                                   seed=1), 0)
        for flags in map(frozenset, ([], ["no_dmm"], ["no_qim"])):
            tape = nm.Tape()
            scores, labels = episode_forward(model, model.tensors(tape),
                                             episode, flags)
            nm.backward(tape, loss_episode(scores, labels))
            ops = [node.op for node in tape.nodes]
            assert ops.count("exp") == ops.count("cross_entropy") == 1

    def test_frozen_episode_loss_decreases_over_50_steps(self):
        ds = blob_dataset(num_classes=6, per_class=15)
        cfg = small_cfg()
        model = init_model(model_config_from(cfg, 6), seed=4)
        episode = sample_episode(
            ds, EpisodeConfig(way=3, shot=2, queries=2, seed=8), 0)
        opt = Adam(lr=1e-3)
        losses = [episode_step(model, episode, opt, frozenset())
                  for _ in range(50)]
        assert losses[-1] < losses[0]
        assert min(losses) == min(losses[-10:])  # still improving late

    @settings(max_examples=30, deadline=None)
    @given(C=st.integers(2, 5), K=st.integers(1, 3), L=st.integers(1, 3),
           dmm_caps=st.sampled_from([1, 2, 4]),
           qim_caps=st.sampled_from([1, 2, 4]),
           dmm_iters=st.integers(1, 3), qim_iters=st.integers(1, 3),
           share=st.booleans(), ablation=st.sampled_from(ABLATIONS),
           freeze_tau=st.booleans(), seed=st.integers(0, 2**31 - 1),
           episode=st.integers(0, 99))
    def test_random_configs_round_trip_and_train_one_episode(
            self, C, K, L, dmm_caps, qim_caps, dmm_iters, qim_iters, share,
            ablation, freeze_tau, seed, episode):
        dim = 8

        def routing(caps, iters):
            return {"input_dim": dim, "capsule_count": caps,
                    "capsule_dim": dim // caps, "iterations": iters}

        raw = {"stage2": {"episodes": 1, "learning_rate": 1e-3,
                          "C": C, "K": K, "L": L},
               "encoder": {"kind": "precomputed", "embed_dim": dim},
               "routing": {"dmm": routing(dmm_caps, dmm_iters),
                           # shared params need one routing config
                           "qim": (routing(dmm_caps, dmm_iters) if share
                                   else routing(qim_caps, qim_iters)),
                           "share_params": share},
               "seed": seed, "ablation": ablation, "freeze_tau": freeze_tau}
        cfg = train_config_from_dict(raw)
        as_json = json.loads(json.dumps(train_config_to_dict(cfg)))
        assert train_config_from_dict(as_json) == cfg
        ds = _CONFIG_FUZZ_DATA

        def run():
            model = init_model(model_config_from(cfg, 4), seed=cfg.seed)
            ep = sample_episode(ds, EpisodeConfig(way=C, shot=K, queries=L,
                                                  seed=cfg.seed), episode)
            scores, _ = episode_forward(model, model.tensors(), ep,
                                        cfg.ablation_flags)
            loss = episode_step(model, ep, Adam(lr=cfg.stage2.learning_rate),
                                cfg.ablation_flags, freeze_tau=cfg.freeze_tau)
            return scores.array, loss, model.params

        scores, loss, params = run()
        assert math.isfinite(loss)
        assert scores.shape == (C * L, C)
        again_scores, again_loss, again_params = run()
        npt.assert_array_equal(again_scores, scores)
        assert again_loss == loss
        assert again_params.keys() == params.keys()
        for name, arr in params.items():
            npt.assert_array_equal(again_params[name], arr)

    def test_freeze_tau(self):
        ds = blob_dataset()
        cfg = small_cfg(freeze_tau=True,
                        stage2=Stage2Config(episodes=2, learning_rate=1e-2,
                                            C=3, K=1, L=2))
        model = init_model(model_config_from(cfg, ds.num_classes), seed=3)
        before = float(model.params["clf.log_tau"])
        meta_train(model, ds, cfg)
        assert float(model.params["clf.log_tau"]) == before

    def test_divergence_detected(self):
        ds = blob_dataset()
        cfg = small_cfg(stage2=Stage2Config(episodes=1, C=3, K=1, L=2,
                                            learning_rate=1e-3))
        model = init_model(model_config_from(cfg, ds.num_classes), seed=3)
        model.params["clf.log_tau"] = np.array(1000.0)  # exp overflows
        with pytest.raises(nm.NumericError):
            meta_train(model, ds, cfg)


class TestNonFiniteGradient:
    """``nm.backward`` returns its gradients unchecked, so a nan in one must
    be refused by the training stage before any parameter or Adam state
    moves: by ``Adam.step``, or, for the tau gradient that ``freeze_tau``
    keeps from Adam, by ``episode_step``."""

    @pytest.mark.parametrize("freeze_tau", [False, True])
    @pytest.mark.parametrize("leaf", ["tau", "largest"])
    @pytest.mark.parametrize("stage", ["pretrain", "meta_train"])
    def test_raises_before_anything_moves(self, monkeypatch, stage, leaf,
                                          freeze_tau):
        if stage == "pretrain":  # text, through the embed node
            ds = _text_dataset(np.random.default_rng(9), 30)
            cfg = small_cfg(encoder=EncoderConfig(embed_dim=8,
                                                  vocab_buckets=64),
                            stage1=Stage1Config(steps=2, batch_size=8),
                            freeze_tau=freeze_tau)
        else:
            ds = blob_dataset()
            cfg = small_cfg(stage2=Stage2Config(episodes=2, C=3, K=1, L=2),
                            freeze_tau=freeze_tau)
        model = init_model(model_config_from(cfg, ds.num_classes), seed=3)
        before = {k: v.copy() for k, v in model.params.items()}
        made, real = [], nm.backward

        class RecordedAdam(Adam):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                made.append(self)

        def poisoned(tape, root):
            # tau is the one rank-0 leaf; else the leaf with most entries
            grads = real(tape, root)
            k = max((k for k, g in grads.items()
                     if (g.ndim == 0) == (leaf == "tau")),
                    key=lambda k: grads[k].size)
            grads[k] = grads[k].copy()
            grads[k].reshape(-1)[-1] = np.nan
            return grads

        monkeypatch.setattr(harness, "Adam", RecordedAdam)
        monkeypatch.setattr(nm, "backward", poisoned)
        name = "clf.log_tau" if leaf == "tau" else ".+"
        with pytest.raises(nm.NumericError,
                           match=f"non-finite gradient for {name} at step 1"):
            if stage == "pretrain":
                pretrain(ds, cfg, model=model)
            else:
                meta_train(model, ds, cfg)
        assert len(made) == 1
        assert made[0].t == 0 and not made[0].m and not made[0].v
        for k, v in before.items():
            npt.assert_array_equal(model.params[k], v)


class TestLiveColumnAdam:
    """Stage 1 through ``Adam``'s live-column update gives the bits of a
    dense textbook Adam over every parameter."""

    def test_pretrain_matches_a_dense_textbook_adam(self, monkeypatch):
        # 1,000 words hash into about 640 of 1,024 buckets, so the
        # projection's compact block grows past 32K entries while some
        # columns are never hit
        rng = np.random.default_rng(12)
        words = [f"t{i}" for i in range(1000)]
        ds = Dataset(payloads=[" ".join(rng.choice(words, size=10))
                               for _ in range(240)],
                     labels=[k % 3 for k in range(240)],
                     class_names=["a", "b", "c"])
        cfg = small_cfg(dim=64,
                        encoder=EncoderConfig(embed_dim=64,
                                              vocab_buckets=1024),
                        stage1=Stage1Config(steps=12, batch_size=32))
        made = []

        class RecordedAdam(Adam):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                made.append(self)

        class TextbookAdam(Adam):
            def step(self, params, grads):
                _textbook_adam_step(self, params, grads)

        digests = []
        for adam in (RecordedAdam, TextbookAdam):
            monkeypatch.setattr(harness, "Adam", adam)
            model = init_model(model_config_from(cfg, 3), seed=4)
            before = {k: v.copy() for k, v in model.params.items()}
            pretrain(ds, cfg, model=model)
            digests.append(model.param_digest())
            for k in before:
                moved = not np.array_equal(model.params[k].view(np.int64),
                                           before[k].view(np.int64))
                assert moved == k.startswith(("enc.", "clf.")), k
        assert digests[0] == digests[1]
        opt = made[0]
        rows, live = opt.m["enc.projection"].shape
        assert rows * live > 1 << 15 and live < 1024
        assert not any(k.startswith(("dmm.", "qim.")) and k.endswith(".w")
                       for k in opt.m)


class TestAblations:
    def test_prototype_equivalence_on_fixed_episodes(self):
        ds = blob_dataset(num_classes=6, per_class=12, separation=3.0)
        cfg = small_cfg()
        model = init_model(model_config_from(cfg, 6), seed=6)
        tensors = model.tensors()
        for index in range(5):
            ep = sample_episode(
                ds, EpisodeConfig(way=3, shot=2, queries=3, seed=21), index)
            scores, labels = episode_forward(
                model, tensors, ep, frozenset({"no_dmm", "no_qim"}))
            support_by_class = [[] for _ in range(3)]
            for lab, payload in ep.support:
                support_by_class[lab].append(payload)
            for s, (lab, payload) in zip(scores.array, ep.queries):
                assert int(np.argmax(s)) == prototype_predict(
                    support_by_class, payload)

    def test_no_dmm_skips_adaptation(self):
        ds = blob_dataset(num_classes=6)
        cfg = small_cfg()
        model = init_model(model_config_from(cfg, 6), seed=6)
        tensors = model.tensors()
        ep = sample_episode(ds, EpisodeConfig(way=3, shot=1, queries=2,
                                              seed=3), 0)
        a, la = episode_forward(model, tensors, ep, frozenset({"no_dmm"}))
        b, lb = episode_forward(model, tensors, ep, frozenset())
        assert la == lb
        assert not all(np.allclose(x, y) for x, y in zip(a.array, b.array))


# the config space of the episode tests: C, K, L, routing shapes, shared
# params, all four ablations, text or vector payloads, uneven queries
_EPISODE_CASES = st.fixed_dictionaries(dict(
    C=st.integers(2, 5), K=st.integers(1, 3), L=st.integers(1, 3),
    dmm_caps=st.sampled_from([1, 2, 4]), qim_caps=st.sampled_from([1, 2, 4]),
    dmm_iters=st.integers(1, 3), qim_iters=st.integers(1, 3),
    share=st.booleans(), ablation=st.sampled_from(ABLATIONS),
    text=st.booleans(), uneven=st.booleans(),
    seed=st.integers(0, 2**31 - 1)))


def _drawn_case(C, K, L, dmm_caps, qim_caps, dmm_iters, qim_iters, share,
                ablation, text, uneven, seed):
    """(model, episode, ablation flags) of one drawn episode case."""
    dim = 8

    def routing(caps, iters):
        return RoutingConfig(dim, capsule_count=caps,
                             capsule_dim=dim // caps, iterations=iters)

    dmm = routing(dmm_caps, dmm_iters)
    cfg = small_cfg(
        encoder=EncoderConfig(kind="feature_hash" if text
                              else "precomputed", embed_dim=dim,
                              vocab_buckets=32),
        routing=RoutingPair(dmm=dmm, share_params=share,
                            qim=dmm if share
                            else routing(qim_caps, qim_iters)),
        ablation=ablation, seed=seed)
    model = init_model(model_config_from(cfg, 4), seed=seed)
    rng = np.random.default_rng(seed)
    words = [f"w{i}" for i in range(20)]

    def item(c):
        if text:
            return " ".join(rng.choice(words[4 * c:4 * c + 6], size=3))
        return rng.normal(size=dim) + 3.0 * np.eye(dim)[c]

    # uneven: 0 to L queries per class, at least one in all
    counts = (rng.integers(0, L + 1, C) if uneven
              else np.full(C, L))
    counts[0] = max(counts[0], 1)
    episode = Episode.from_items(
        class_ids=tuple(range(C)),
        support=[(c, item(c)) for c in range(C) for _ in range(K)],
        queries=[(c, item(c)) for c in range(C)
                 for _ in range(counts[c])])
    return model, episode, cfg.ablation_flags


class TestEpisodeScores:
    """The batched episode forward against the per-pair one."""

    @staticmethod
    def stacked(model, tensors, episode, flags):
        scores, labels = episode_forward(model, tensors, episode, flags)
        return scores.array, labels

    @settings(max_examples=40, deadline=None)
    @given(case=_EPISODE_CASES)
    def test_scores_match_the_per_pair_forward(self, case):
        """Within 1e-12 of the largest score: the transforms and the
        scores are matrix products over the stacks, not per vector."""
        model, episode, flags = _drawn_case(**case)
        tensors = model.tensors()
        got, labels = episode_scores(model, tensors, episode, flags)
        want, want_labels = self.stacked(model, tensors, episode, flags)
        assert labels == want_labels
        assert got.shape == want.shape == (len(episode.queries),
                                           len(episode.class_ids))
        assert np.abs(got.array - want).max() <= 1e-12 * np.abs(want).max()

    def test_gradients_match_the_per_pair_forward(self):
        ds = blob_dataset()
        cfg = small_cfg()
        model = init_model(model_config_from(cfg, ds.num_classes), seed=3)
        episode = sample_episode(ds, EpisodeConfig(way=3, shot=2, queries=3,
                                                   seed=1), 0)
        for flags in map(frozenset, ([], ["no_dmm"], ["no_qim"],
                                     ["no_dmm", "no_qim"])):
            grads = []
            for forward in (episode_scores, episode_forward):
                tape = nm.Tape()
                tensors = model.tensors(tape)
                loss = loss_episode(*forward(model, tensors, episode, flags))
                g = nm.backward(tape, loss)
                grads.append({k: g[t.node_id] for k, t in tensors.items()})
            for name, want in grads[1].items():
                npt.assert_allclose(grads[0][name], want, rtol=0,
                                    atol=1e-12 * max(np.abs(want).max(), 1),
                                    err_msg=f"{sorted(flags)} {name}")

    def test_an_episode_makes_at_most_two_routing_calls(self):
        ds = blob_dataset()
        cfg = small_cfg()
        model = init_model(model_config_from(cfg, ds.num_classes), seed=3)
        episode = sample_episode(ds, EpisodeConfig(way=3, shot=2, queries=3,
                                                   seed=1), 0)
        for flags, calls in (([], 2), (["no_dmm"], 1), (["no_qim"], 1),
                             (["no_dmm", "no_qim"], 0)):
            tape = nm.Tape()
            episode_scores(model, model.tensors(tape), episode,
                           frozenset(flags))
            ops = [node.op for node in tape.nodes]
            assert ops.count("route") == calls, flags
            # vector payloads and no routing leave nothing to record
            assert ops.count("cosine") == min(calls, 1), flags

    def test_unequal_shots_are_refused(self):
        ds = blob_dataset()
        episode = sample_episode(ds, EpisodeConfig(way=3, shot=2, queries=1,
                                                   seed=1), 0)
        with pytest.raises(ValueError, match="same number of shots"):
            Episode.from_items(episode.class_ids, episode.support[:-1],
                               episode.queries)

    def test_a_vector_of_the_wrong_dimension_is_refused(self):
        ds = blob_dataset()
        model = init_model(model_config_from(small_cfg(), ds.num_classes),
                           seed=3)
        message = r"vector payload has shape \(9,\), model expects \(8,\)"
        with pytest.raises(ValueError, match=message):
            evaluate(model, blob_dataset(dim=9), small_cfg(), episodes=1)
        ep_cfg = EpisodeConfig(way=3, shot=2, queries=2, seed=1)
        nine = sample_episode(blob_dataset(dim=9), ep_cfg, 0)
        nine = Episode.from_items(nine.class_ids, nine.support, nine.queries)
        for forward in (episode_scores, episode_forward):
            with pytest.raises(ValueError, match=message):
                forward(model, model.tensors(), nine, frozenset())
        # a wrong row last, first or in the middle; an (8, 1) one holds
        # the right entries in the wrong shape
        for part in (0, 1):
            for where, payload in ((-1, np.zeros(9)), (0, np.zeros(9)),
                                   (3, np.zeros(9)), (3, np.zeros((8, 1)))):
                episode = sample_episode(ds, ep_cfg, 0)
                items = [episode.support, episode.queries]
                items[part][where] = (items[part][where][0], payload)
                with pytest.raises(DataError,
                                   match="vector payloads have different "
                                         "shapes"):
                    Episode.from_items(episode.class_ids, *items)

    @pytest.mark.parametrize("text", [False, True])
    def test_an_episode_built_from_drawn_items_scores_the_same_bytes(
            self, text):
        """An episode that :meth:`Episode.from_items` builds from a drawn
        episode's items holds them in a source of its own, and every
        forward scores it to the drawn episode's bytes."""
        ds = (_text_dataset(np.random.default_rng(4), 60) if text
              else blob_dataset(num_classes=6, per_class=10))
        ep_cfg = EpisodeConfig(way=3, shot=2, queries=3, seed=1)
        cfg = small_cfg(encoder=EncoderConfig(
            kind="feature_hash" if text else "precomputed", embed_dim=8,
            vocab_buckets=32))
        model = init_model(model_config_from(cfg, 4), seed=3)
        tensors = model.tensors()
        for index in range(3):
            drawn = sample_episode(ds, ep_cfg, index)
            built = Episode.from_items(drawn.class_ids, drawn.support,
                                       drawn.queries)
            assert built.source is not drawn.source
            assert built.support_indices == list(range(6))
            for ablation in ABLATIONS:
                flags = frozenset(ablation.split("+")) - {"full"}
                for forward in (episode_scores, episode_forward):
                    (a, la), (b, lb) = (forward(model, tensors, e, flags)
                                        for e in (drawn, built))
                    assert la == lb == [lab for lab, _ in drawn.queries]
                    assert a.array.tobytes() == b.array.tobytes()

    def test_edits_of_the_returned_lists_change_no_score(self):
        ds = blob_dataset()
        model = init_model(model_config_from(small_cfg(), ds.num_classes),
                           seed=3)
        tensors = model.tensors()
        ep_cfg = EpisodeConfig(way=3, shot=2, queries=2, seed=1)
        drawn = sample_episode(ds, ep_cfg, 2)
        built = Episode.from_items(drawn.class_ids, drawn.support,
                                   drawn.queries)
        for episode in (drawn, built):
            for forward in (episode_scores, episode_forward):
                before = forward(model, tensors, episode, frozenset())
                episode.support.pop()
                episode.queries[0] = (1, np.zeros(8))
                after = forward(model, tensors, episode, frozenset())
                assert before[1] == after[1]
                assert (before[0].array.tobytes()
                        == after[0].array.tobytes())

    def test_a_batch_of_two_sources_is_refused(self):
        ds = blob_dataset()
        model = init_model(model_config_from(small_cfg(), ds.num_classes),
                           seed=3)
        drawn = sample_episode(ds, EpisodeConfig(way=3, shot=2, queries=2,
                                                 seed=1), 0)
        built = Episode.from_items(drawn.class_ids, drawn.support,
                                   drawn.queries)
        with pytest.raises(ValueError, match="^the episodes of a batch must "
                                             "share one source$"):
            harness._episode(model, model.tensors(), [drawn, built],
                             frozenset(), False)

    def test_evaluate_matches_the_per_pair_path_on_fixture_episodes(self):
        model = load_checkpoint(FIXTURE)
        _, novel = split_base_novel(gen_synthetic(30, 50, 32, 6.0, 1.0,
                                                  seed=1), 20, seed=1)
        ep_cfg = EpisodeConfig(way=5, shot=5, queries=10, seed=3)
        report = evaluate(model, novel, C4_CONFIG, episodes=20, way=5,
                          shot=5, queries=10, seed=3)
        tensors = model.tensors()
        per_pair = []
        for index in range(20):
            episode = sample_episode(novel, ep_cfg, index)
            want, labels = self.stacked(model, tensors, episode,
                                        frozenset())
            got = episode_scores(model, tensors, episode, frozenset())[0]
            npt.assert_array_equal(got.array.argmax(axis=1),
                                   want.argmax(axis=1))
            per_pair.append(np.count_nonzero(want.argmax(axis=1) == labels)
                            / len(labels))
        assert report.per_episode == per_pair


def _assert_matches_oracle(model, episode, flags) -> None:
    """Both episode forwards and the episode loss against the plain numpy
    transcription, within 1e-12 of the largest score and of the loss."""
    want, want_loss = episode_reference(model.params, model.config, episode,
                                        flags)
    tensors = model.tensors()
    per_pair, labels = episode_forward(model, tensors, episode, flags)
    batched, batched_labels = episode_scores(model, tensors, episode, flags)
    assert labels == batched_labels == [lab for lab, _ in episode.queries]
    scale = np.abs(want).max()
    for got in (per_pair.array, batched.array):
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-12 * scale
    for scores in (per_pair, batched):
        loss = loss_episode(scores, labels).item()
        assert abs(loss - want_loss) <= 1e-12 * abs(want_loss)


class TestEpisodeOracle:
    """The pipeline's episode scores and loss against
    :func:`oracles.episode_reference`, which shares no code with it."""

    @settings(max_examples=40, deadline=None)
    @given(case=_EPISODE_CASES)
    def test_drawn_episodes_match_the_oracle(self, case):
        _assert_matches_oracle(*_drawn_case(**case))

    def test_fixture_5_way_5_shot_episodes_match_the_oracle(self):
        model = load_checkpoint(FIXTURE)
        _, novel = split_base_novel(gen_synthetic(30, 50, 32, 6.0, 1.0,
                                                  seed=1), 20, seed=1)
        ep_cfg = EpisodeConfig(way=5, shot=5, queries=4, seed=5)
        for index, ablation in enumerate(ABLATIONS):
            flags = frozenset(ablation.split("+")) - {"full"}
            _assert_matches_oracle(model, sample_episode(novel, ep_cfg,
                                                         index), flags)

    @pytest.mark.parametrize("ablation,share", [
        ("full", False), ("full", True), ("no_dmm", True),
        ("no_qim", False)])
    def test_episode_loss_gradients_match_finite_differences(
            self, ablation, share):
        """Every parameter's gradient of the episode loss, at criterion
        2's tolerances (criterion 2 covers text payloads)."""
        model, episode, flags = _drawn_case(
            C=3, K=2, L=2, dmm_caps=2, qim_caps=4, dmm_iters=2, qim_iters=3,
            share=share, ablation=ablation, text=False, uneven=True, seed=17)

        def loss(tensors):
            return loss_episode(*episode_forward(model, tensors, episode,
                                                 flags))

        tape = nm.Tape()
        tensors = model.tensors(tape)
        grads = nm.backward(tape, loss(tensors))

        def value(params):
            model.params.update(params)
            return loss(model.tensors()).item()

        numeric = finite_difference_gradients(
            value, {k: v.copy() for k, v in model.params.items()}, h=1e-5)
        assert_gradients_close({k: grads[t.node_id]
                                for k, t in tensors.items()}, numeric,
                               rel=1e-4, near_zero=1e-7)


class TestEvaluate:
    def test_chance_level_on_unseparable_data(self):
        ds = gen_synthetic(8, 20, 8, separation=0.01, noise_sigma=1.0,
                           seed=13)
        cfg = small_cfg(stage2=Stage2Config(C=5, K=1, L=5),
                        eval=EvalSettings(episodes=100, queries_per_class=5))
        model = init_model(model_config_from(cfg, 8), seed=0)
        report = evaluate(model, ds, cfg)
        assert abs(report.mean_accuracy - 0.2) <= 0.05

    def test_never_mutates_model(self):
        ds = blob_dataset()
        cfg = small_cfg()
        model = init_model(model_config_from(cfg, 8), seed=1)
        digest = model.param_digest()
        evaluate(model, ds, cfg)
        assert model.param_digest() == digest

    def test_each_episode_depends_only_on_seed_and_index(self):
        ds = blob_dataset()
        cfg = small_cfg(eval=EvalSettings(episodes=6, queries_per_class=2))
        model = init_model(model_config_from(cfg, 8), seed=2)
        short = evaluate(model, ds, cfg, episodes=3)
        full = evaluate(model, ds, cfg)
        again = evaluate(model, ds, cfg)
        assert len(full.per_episode) == 6
        assert short.per_episode == full.per_episode[:3]
        assert again.per_episode == full.per_episode
        assert again.config_hash == full.config_hash
        assert again.mean_accuracy == full.mean_accuracy

    def test_single_episode_std_flagged(self):
        ds = blob_dataset()
        cfg = small_cfg()
        model = init_model(model_config_from(cfg, 8), seed=2)
        report = evaluate(model, ds, cfg, episodes=1)
        assert report.std_accuracy == 0.0
        assert report.std_undefined is True

    def test_report_dict_keys(self):
        ds = blob_dataset()
        cfg = small_cfg()
        model = init_model(model_config_from(cfg, 8), seed=2)
        d = asdict(evaluate(model, ds, cfg, episodes=2))
        assert set(d) == {"mean_accuracy", "std_accuracy", "episodes",
                          "per_episode", "config_hash", "wall_time_ms",
                          "std_undefined"}
        assert d["episodes"] == 2 and len(d["per_episode"]) == 2
        npt.assert_allclose(np.mean(d["per_episode"]), d["mean_accuracy"])
        npt.assert_allclose(np.std(d["per_episode"], ddof=1),
                            d["std_accuracy"])

    def test_mean_std_recomputable(self):
        ds = blob_dataset()
        cfg = small_cfg(eval=EvalSettings(episodes=8, queries_per_class=2))
        model = init_model(model_config_from(cfg, 8), seed=3)
        r = evaluate(model, ds, cfg)
        npt.assert_allclose(float(np.mean(r.per_episode)), r.mean_accuracy)
        npt.assert_allclose(float(np.std(r.per_episode, ddof=1)),
                            r.std_accuracy)


class TestBatchedEvaluation:
    """``evaluate`` scores a batch of episodes in one forward; each
    episode's slice of it has the bytes of that episode scored alone."""

    @staticmethod
    def episodes(ablation, text, shot):
        cfg = small_cfg(ablation=ablation, encoder=EncoderConfig(
            kind="feature_hash" if text else "precomputed", embed_dim=8,
            vocab_buckets=32))
        ds = (_text_dataset(np.random.default_rng(4), 60) if text
              else blob_dataset(num_classes=6, per_class=10))
        model = init_model(model_config_from(cfg, 4), seed=7)
        ep_cfg = EpisodeConfig(way=3, shot=shot, queries=2, seed=11)
        return model, [sample_episode(ds, ep_cfg, i) for i in range(4)], \
            cfg.ablation_flags

    # at shot 3 no_qim's mean and QIM's mix order 3 rows by their bytes
    @pytest.mark.parametrize("shot", [1, 3])
    @pytest.mark.parametrize("text", [False, True])
    @pytest.mark.parametrize("ablation", ABLATIONS)
    def test_each_episode_of_a_batch_has_the_bytes_it_has_alone(
            self, ablation, text, shot):
        model, (episode, *others), flags = self.episodes(ablation, text,
                                                         shot)
        tensors = model.tensors()
        alone = {id(e): episode_scores(model, tensors, e, flags)[0]
                 .array.tobytes() for e in (episode, *others)}
        # the same episode first, in the middle and last
        for batch in ([episode, *others], [others[0], episode, *others[1:]],
                      [*others, episode]):
            got, labels = harness._episode(model, tensors, batch, flags,
                                           False)
            assert got.shape == (4, 6, 3)
            assert labels == [[lab for lab, _ in e.queries] for e in batch]
            for scores, e in zip(got.array, batch):
                assert scores.tobytes() == alone[id(e)]

    def test_a_batch_makes_one_routing_call_within_the_budget(
            self, monkeypatch):
        ds = blob_dataset()
        cfg = small_cfg()  # 3-way 2-shot, 3 queries per class, d = 8
        model = init_model(model_config_from(cfg, 8), seed=2)
        induce, batches = harness.qim_induce, []

        def counted(params, rc, supports, query):
            batches.append(query.shape[0] if query.ndim == 4 else 1)
            return induce(params, rc, supports, query)

        monkeypatch.setattr(harness, "qim_induce", counted)
        one_call = evaluate(model, ds, cfg, episodes=8)
        assert batches == [8]
        # an episode's largest routed copy: 9 queries x 3 x 2 x 8 float64s
        copy = 8 * 9 * 3 * 2 * 8
        for budget, sizes in ((3 * copy, [2, 3, 3]), (copy - 1, [1] * 8)):
            batches.clear()
            monkeypatch.setattr(harness, "EVAL_BATCH_BYTES", budget)
            report = evaluate(model, ds, cfg, episodes=8)
            assert batches == sizes
            assert report.per_episode == one_call.per_episode


class TestSeparation:
    def test_report_and_csv(self, tmp_path):
        ds = blob_dataset(num_classes=6, per_class=10, separation=5.0)
        cfg = small_cfg()
        result = pretrain(ds, small_cfg(stage1=Stage1Config(steps=10)))
        p = tmp_path / "vectors.csv"
        rep = separation_report(result.model, ds, way=4, shot=3, seed=1,
                                csv_path=p)
        assert -1.0 <= rep.silhouette_before <= 1.0
        assert -1.0 <= rep.silhouette_after <= 1.0
        assert rep.vectors_before.shape == (12, 8)
        lines = p.read_text().splitlines()
        assert lines[0] == "stage,label," + ",".join(
            f"v{i}" for i in range(8))
        assert len(lines) == 1 + 2 * 12
        assert lines[1].startswith("before,")
        assert lines[13].startswith("after,")

    def test_one_class_is_refused(self):
        ds = blob_dataset(num_classes=1, per_class=8)
        model = init_model(model_config_from(small_cfg(), 4), seed=1)
        with pytest.raises(DataError, match="^separation report needs at "
                                            "least 2 classes$"):
            separation_report(model, ds, way=3, shot=2)

    def test_untrained_model_warns(self, caplog):
        ds = blob_dataset(num_classes=4, per_class=8)
        cfg = small_cfg()
        model = init_model(model_config_from(cfg, 4), seed=1)
        with caplog.at_level(logging.WARNING, logger="dmin.harness"):
            separation_report(model, ds, way=3, shot=2)
        assert any("untrained" in r.message for r in caplog.records)


class TestPipelineAndAblationSuite:
    def tiny_cfg(self):
        rc = RoutingConfig.for_pipeline(8, capsule_count=2, iterations=2)
        return TrainConfig(
            stage1=Stage1Config(steps=5, batch_size=8, learning_rate=1e-3),
            stage2=Stage2Config(episodes=2, learning_rate=1e-3, C=3, K=1,
                                L=3),
            eval=EvalSettings(episodes=2, queries_per_class=3),
            encoder=EncoderConfig(kind="precomputed", embed_dim=8),
            routing=RoutingPair(dmm=rc, qim=rc),
            seed=3, num_base=5)

    def test_pipeline_smoke(self):
        ds = blob_dataset(num_classes=10, per_class=12)
        out = run_pipeline(ds, self.tiny_cfg())
        assert isinstance(out, PipelineResult)
        assert out.report.episodes == 2
        assert len(out.stage1_losses) == 5
        assert len(out.stage2_losses) == 2
        assert 0.0 <= out.report.mean_accuracy <= 1.0

    def test_ablation_suite_shape_and_determinism(self, tmp_path):
        ds = blob_dataset(num_classes=10, per_class=12)
        cfg = self.tiny_cfg()
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        rows = run_ablation_suite(ds, cfg, csv_path=p1)
        run_ablation_suite(ds, cfg, csv_path=p2)
        assert [r["model"] for r in rows] == ["w/o DMM", "w/o QIM", "DMIN",
                                              "DMIN", "DMIN"]
        assert [r["iterations"] for r in rows][2:] == [1, 2, 3]
        lines = p1.read_text().splitlines()
        assert lines[0] == "model,iterations,acc_1shot,acc_5shot"
        assert len(lines) == 6
        assert p1.read_bytes() == p2.read_bytes()
