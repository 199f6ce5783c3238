"""Tests of the benchmark's tracer and runner.

Run from the repository root:

    python3 -m pytest -q bench/tests
"""

import sys
from dataclasses import replace
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import pytest  # noqa: E402

import bench  # noqa: E402
import hostref  # noqa: E402
import tracer as tracer_mod  # noqa: E402
import workloads  # noqa: E402
from dmin import harness  # noqa: E402
from dmin.encoder import EncoderConfig  # noqa: E402
from dmin.episodes import gen_synthetic, split_base_novel  # noqa: E402
from dmin.harness import (Stage1Config, Stage2Config, evaluate,  # noqa: E402
                          meta_train, model_config_from, pretrain)
from dmin.model import init_model  # noqa: E402
from tracer import Tracer, _union  # noqa: E402

# A small version of the criterion-4 pipeline: 3-way 2-shot, 2 queries.
SMALL = replace(workloads.C4_CONFIG,
                stage1=Stage1Config(steps=20, batch_size=16,
                                    learning_rate=1e-3),
                stage2=Stage2Config(episodes=3, learning_rate=1e-3,
                                    C=3, K=2, L=2))


@pytest.fixture(scope="module")
def small():
    dataset = gen_synthetic(8, 10, 32, 6.0, 1.0, seed=3)
    base, novel = split_base_novel(dataset, 4, seed=3)
    return pretrain(base, SMALL).model, novel


def test_tracing_changes_no_loss_or_accuracy(small, monkeypatch):
    model, novel = small
    saved = workloads.snapshot(model)
    plain = meta_train(model, novel, SMALL).losses
    plain_eval = evaluate(model, novel, SMALL, episodes=4, queries=2,
                          seed=9)
    workloads.restore(model, saved)
    with Tracer() as tr, tr.stage():
        traced = meta_train(model, novel, SMALL).losses
    monkeypatch.setenv("DMIN_THREADS", "2")
    with Tracer() as tr_eval, tr_eval.stage():
        traced_eval = evaluate(model, novel, SMALL, episodes=4, queries=2,
                               seed=9)
    assert traced == plain
    assert traced_eval.per_episode == plain_eval.per_episode
    assert not tr.absent and not tr_eval.absent
    # 3 episodes of 3 classes x 2 queries, each routed against every class
    assert tr.counts["routing.qim.calls"] == 3 * 3 * 2 * 3
    assert tr.counts["routing.qim.rows"] == 3 * 3 * 2 * 3 * 2
    assert tr.counts["routing.dmm.calls"] == 3 * 3 * 2
    assert tr.counts["routing.dmm.rows"] == 3 * 3 * 2 * 4
    assert tr.counts["numerics.backward.calls"] == 3
    assert sum(tr.ops.values()) == tr.counts["numerics.tape_nodes"]
    assert tr_eval.counts["numerics.backward.calls"] == 0


def test_tracing_changes_no_text_pretraining():
    dataset = workloads.text_corpus(2)
    cfg = replace(SMALL, encoder=EncoderConfig(embed_dim=16,
                                               vocab_buckets=64),
                  stage1=Stage1Config(steps=3, batch_size=8), routing=None)
    model = init_model(model_config_from(cfg, dataset.num_classes), seed=2)
    saved = workloads.snapshot(model)
    plain = pretrain(dataset, cfg, model=model)
    workloads.restore(model, saved)
    with Tracer() as tr, tr.stage():
        traced = pretrain(dataset, cfg, model=model)
    assert traced.losses == plain.losses
    assert traced.train_accuracy == plain.train_accuracy
    # 3 batches of 8, then one accuracy pass over the corpus
    assert tr.counts["model.encode.calls"] == 3 * 8 + dataset.num_items
    assert tr.counts["encoder.hash.calls"] == 3 * 8 + dataset.num_items
    assert tr.counts["routing.qim.calls"] == 0
    assert tr.counts["model.adam.rows"] == 3 * sum(
        a.size for a in model.params.values())


def test_wrappers_are_removed_on_exit():
    before = (harness.qim_induce, harness.Adam.step, harness.nm.backward)
    with Tracer():
        assert harness.qim_induce is not before[0]
    assert (harness.qim_induce, harness.Adam.step,
            harness.nm.backward) == before


def test_missing_name_is_an_absent_layer():
    targets = (("dmin.harness", "no_such_function", "x"),
               ("dmin.model", "NoSuchClass.step", "y"),
               ("dmin.no_such_module", "f", "z"),
               ("dmin.harness", "qim_induce", "routing.qim"))
    with Tracer(targets) as tr:
        pass
    assert tr.absent == ["dmin.harness.no_such_function",
                         "dmin.model.NoSuchClass.step",
                         "dmin.no_such_module.f"]


def test_stage_self_time_excludes_children_on_any_thread():
    tr = Tracer(())
    tr.spans = [tracer_mod.Span("harness.stage", 0.0, 10.0, None, 1),
                tracer_mod.Span("routing.qim", 1.0, 4.0, 0, 2),
                tracer_mod.Span("routing.qim", 2.0, 6.0, 0, 3),
                tracer_mod.Span("routing.dmm", 2.5, 3.5, 2, 3)]
    summary = tr.summary()
    assert summary["self_s"]["harness.stage"] == pytest.approx(5.0)
    assert summary["self_s"]["routing.qim"] == pytest.approx(6.0)
    assert summary["self_s"]["routing.dmm"] == pytest.approx(1.0)
    assert _union([(0, 1), (0.5, 2), (3, 4), (3.5, 3.6)]) == 3.0


def test_memory_rows_counts_every_leading_axis():
    import numpy as np
    assert tracer_mod.memory_rows(np.zeros((5, 32))) == 5
    assert tracer_mod.memory_rows(np.zeros((4, 5, 32))) == 20
    assert tracer_mod.memory_rows([np.zeros(32)] * 3) == 3
    assert tracer_mod.memory_rows(np.zeros(32)) == 1


def test_host_speed_is_relative_to_the_reference():
    assert hostref.kernel_seconds() > 0
    assert hostref.speed([hostref.REFERENCE_S]) == 1.0
    assert hostref.speed([hostref.REFERENCE_S / 2] * 2) == 2.0


def test_fixture_checkpoint_matches_its_record():
    state = workloads.Eval5w5s().setup(seed=0)
    assert state["model"].config.num_base_classes == workloads.C4_NUM_BASE


def test_text_corpus_is_seeded():
    a, b = workloads.text_corpus(4), workloads.text_corpus(4)
    assert a.payloads == b.payloads and a.labels == b.labels
    assert a.payloads != workloads.text_corpus(5).payloads
    assert a.num_items == workloads.TEXT_TOPICS * workloads.TEXT_LINES


def test_without_the_package_the_benchmark_fails(monkeypatch, tmp_path,
                                                 capsys):
    monkeypatch.setattr(bench, "SRC", tmp_path / "src")
    code = bench.main(["--workload", "eval_5w5s", "--seed", "1",
                       "--seconds", "1", "--trace", "0"])
    assert code != 0
    assert capsys.readouterr().out == ""
