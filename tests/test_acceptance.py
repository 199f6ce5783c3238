"""Acceptance gate: nine headline behaviors, one printed line each.

Each criterion prints a ``[criterion N] PASS/FAIL`` line straight to the
terminal (capture suspended via ``capsys.disabled()``, so the lines show
up with or without ``-s``) and then asserts.  Tolerances are stated
inline; the heavyweight end-to-end fixture (criterion 4) is shared by
criteria 7-9.
"""

import time

import numpy as np
import pytest

import oracles
from dmin import numerics as nm
from dmin.classifier import CosineClassifier, base_scores, loss_episode
from dmin.encoder import EncoderConfig
from dmin.episodes import (Episode, EpisodeConfig, gen_synthetic,
                           sample_episode, split_base_novel)
from dmin.harness import (EvalSettings, RoutingPair, Stage1Config,
                          Stage2Config, TrainConfig, episode_forward,
                          evaluate, meta_train, model_config_from, pretrain,
                          run_ablation_suite, separation_report)
from dmin.model import init_model, load_checkpoint, save_checkpoint
from dmin.routing import RoutingConfig, RoutingParams, RoutingTrace, dmr
from dmin.silhouette import silhouette_score


def _report(capsys, criterion: int, ok: bool, detail: str) -> None:
    line = f"[criterion {criterion}] {'PASS' if ok else 'FAIL'} - {detail}"
    with capsys.disabled():
        print(line, flush=True)
    assert ok, line


def _random_routing(rng, n_max=8, d_in_max=16, l_max=4, r_max=3):
    n = int(rng.integers(1, n_max + 1))
    d_in = int(rng.integers(2, d_in_max + 1))
    l = int(rng.integers(1, l_max + 1))
    d_v = int(rng.integers(2, 7))
    r = int(rng.integers(1, r_max + 1))
    cfg = RoutingConfig(input_dim=d_in, capsule_count=l, capsule_dim=d_v,
                        iterations=r)
    ws = [rng.normal(0, 0.6, (d_v, d_in)) for _ in range(l)]
    bs = [rng.normal(0, 0.3, d_v) for _ in range(l)]
    params = RoutingParams(w=nm.constant(np.concatenate(ws)),
                           b=nm.constant(np.concatenate(bs)))
    memory = rng.normal(0, 1.0, (n, d_in))
    query = rng.normal(0, 1.0, d_in)
    return cfg, params, ws, bs, memory, query


# ---------------------------------------------------------------------------
# criterion 1: routing oracle equivalence, 1e-12, 100 instances, < 10 s
# ---------------------------------------------------------------------------

def test_criterion_1_routing_oracle_equivalence(capsys):
    rng = np.random.default_rng(1001)
    start = time.monotonic()
    worst = 0.0
    for _ in range(100):
        cfg, params, ws, bs, memory, query = _random_routing(rng)
        got = dmr(params, cfg, nm.constant(memory), nm.constant(query))
        want = oracles.dmr_reference(ws, bs, memory, query, cfg.iterations)
        worst = max(worst, float(np.max(np.abs(got.array - want))))
    elapsed = time.monotonic() - start
    ok = worst <= 1e-12 and elapsed < 10.0
    _report(capsys, 1, ok, f"100 random instances, max |diff| {worst:.2e} "
                   f"(tol 1e-12) in {elapsed:.1f}s (limit 10s)")


# ---------------------------------------------------------------------------
# criterion 2: full-chain gradients vs central finite differences
# ---------------------------------------------------------------------------

def test_criterion_2_full_chain_gradient_check(capsys):
    # Seed-42 micro-instance: C=3 classes, K=2 shots, d=8, text payloads so
    # the hashing encoder's projection participates in the graph.
    rng = np.random.default_rng(42)
    enc = EncoderConfig(kind="feature_hash", embed_dim=8, vocab_buckets=8)
    pair = RoutingPair(
        dmm=RoutingConfig(8, capsule_count=2, capsule_dim=4, iterations=2),
        qim=RoutingConfig(8, capsule_count=2, capsule_dim=4, iterations=2))
    cfg = TrainConfig(encoder=enc, routing=pair, seed=42)
    model = init_model(model_config_from(cfg, 4), seed=42)

    words = ["ion", "flux", "gate", "node", "arc", "lens", "rift", "coil",
             "vane", "helm", "mast", "keel"]
    def text():
        k = int(rng.integers(2, 5))
        return " ".join(rng.choice(words, size=k, replace=False))

    episode = Episode.from_items(
        class_ids=(0, 1, 2),
        support=[(c, text()) for c in range(3) for _ in range(2)],
        queries=[(c, text()) for c in range(3)])

    def loss_value() -> float:
        tensors = model.tensors()
        scores, labels = episode_forward(model, tensors, episode,
                                         frozenset())
        return loss_episode(scores, labels).item()

    start = time.monotonic()
    tape = nm.Tape()
    tensors = model.tensors(tape)
    scores, labels = episode_forward(model, tensors, episode, frozenset())
    loss = loss_episode(scores, labels)
    grads = nm.backward(tape, loss)
    analytic = {name: grads[t.node_id] for name, t in tensors.items()}

    def f(params):
        model.params.update(params)
        return loss_value()

    numeric = oracles.finite_difference_gradients(
        f, {k: v.copy() for k, v in model.params.items()}, h=1e-5)
    elapsed = time.monotonic() - start
    oracles.assert_gradients_close(analytic, numeric, rel=1e-4,
                                   near_zero=1e-7)
    entries = sum(np.asarray(v).size for v in model.params.values())
    ok = elapsed < 120.0
    _report(capsys, 2, ok, f"{entries} parameter entries over encode->adapt->"
                   f"induce->score->loss, h=1e-5, rel tol 1e-4 "
                   f"(abs 1e-7 near zero), {elapsed:.1f}s (limit 120s)")


# ---------------------------------------------------------------------------
# criterion 3: invariant suite, 1000 randomized cases each, < 30 s
# ---------------------------------------------------------------------------

def test_criterion_3_invariant_suite(capsys):
    rng = np.random.default_rng(3003)
    start = time.monotonic()

    for _ in range(1000):  # squash output norm < 1
        v = rng.normal(0, rng.uniform(0.1, 30), int(rng.integers(1, 12)))
        assert float(np.linalg.norm(nm.squash(nm.constant(v)).array)) < 1.0

    for _ in range(1000):  # softmax sums to 1
        v = rng.normal(0, 5, int(rng.integers(1, 12)))
        assert abs(float(nm.softmax(nm.constant(v)).array.sum()) - 1) < 1e-12

    for _ in range(1000):  # pccs in [-1,1] and affine-invariant
        d = int(rng.integers(2, 12))
        a, b = rng.normal(0, 2, d), rng.normal(0, 2, d)
        p = float(nm.pccs(nm.constant(a), nm.constant(b)).item())
        assert -1.0 <= p <= 1.0
        scale, shift = float(rng.uniform(0.2, 5)), float(rng.normal(0, 3))
        p2 = float(nm.pccs(nm.constant(scale * a + shift),
                           nm.constant(b)).item())
        assert abs(p - p2) < 1e-9

    for case in range(1000):  # coupling rows sum to 1 at every iteration
        cfg, params, _, _, memory, query = _random_routing(
            rng, n_max=5, d_in_max=8, l_max=3, r_max=3)
        trace = RoutingTrace()
        dmr(params, cfg, nm.constant(memory), nm.constant(query),
            trace=trace)
        assert len(trace.coupling) == cfg.iterations
        for coupling in trace.coupling:
            np.testing.assert_allclose(coupling.sum(axis=1), 1.0,
                                       atol=1e-12)

    for case in range(1000):  # memory-permutation invariance, exact
        cfg, params, _, _, memory, query = _random_routing(
            rng, n_max=5, d_in_max=8, l_max=3, r_max=2)
        out = dmr(params, cfg, nm.constant(memory), nm.constant(query))
        perm = rng.permutation(memory.shape[0])
        out2 = dmr(params, cfg, nm.constant(memory[perm]),
                   nm.constant(query))
        np.testing.assert_array_equal(out.array, out2.array)

    for _ in range(1000):  # classifier argmax invariant to positive scaling
        d, c = int(rng.integers(2, 10)), int(rng.integers(2, 6))
        w = rng.normal(0, 1, (c, d))
        e = rng.normal(0, 1, d)
        clf = CosineClassifier(w_base=nm.constant(w),
                               log_tau=nm.constant(np.log(10.0)))
        s1 = base_scores(clf, nm.constant(e)).array
        row_scale = rng.uniform(0.1, 9, size=(c, 1))
        clf2 = CosineClassifier(w_base=nm.constant(w * row_scale),
                                log_tau=nm.constant(np.log(10.0)))
        s2 = base_scores(clf2, nm.constant(e * rng.uniform(0.1, 9))).array
        assert int(np.argmax(s1)) == int(np.argmax(s2))

    elapsed = time.monotonic() - start
    ok = elapsed < 30.0
    _report(capsys, 3, ok, f"six invariant families x 1000 randomized cases "
                   f"(3000 taped routing calls), {elapsed:.1f}s (limit 30s)")


# ---------------------------------------------------------------------------
# criterion 4 fixture: the scaled end-to-end synthetic experiment
# ---------------------------------------------------------------------------

C4_PAIR = RoutingPair(
    dmm=RoutingConfig(32, capsule_count=2, capsule_dim=16, iterations=2),
    qim=RoutingConfig(32, capsule_count=2, capsule_dim=16, iterations=2))
C4_CONFIG = TrainConfig(
    stage1=Stage1Config(steps=600, batch_size=32, learning_rate=1e-3),
    stage2=Stage2Config(episodes=1000, learning_rate=1e-3, C=5, K=1, L=5),
    eval=EvalSettings(episodes=100, queries_per_class=10),
    encoder=EncoderConfig(kind="precomputed", embed_dim=32),
    routing=C4_PAIR, seed=1, num_base=20, meta_source="novel")


@pytest.fixture(scope="module")
def end_to_end():
    """Train the headline model once; criteria 4 and 7-9 all read it.

    The supervised stage sees only the 20 base classes; episodic training
    then draws its episodes from the 10-class novel split (the default
    meta_source), and evaluation samples fresh episodes from that split.
    """
    start = time.monotonic()
    dataset = gen_synthetic(30, 50, 32, 6.0, 1.0, seed=1)
    base, novel = split_base_novel(dataset, 20, seed=C4_CONFIG.seed)
    model = pretrain(base, C4_CONFIG).model
    meta_train(model, novel, C4_CONFIG)
    report = evaluate(model, novel, C4_CONFIG)
    elapsed = time.monotonic() - start
    return {"model": model, "novel": novel, "report": report,
            "elapsed": elapsed}


def test_criterion_4_end_to_end_synthetic(end_to_end, capsys):
    rep = end_to_end["report"]
    elapsed = end_to_end["elapsed"]
    ok = rep.mean_accuracy >= 0.95 and elapsed < 300.0
    _report(capsys, 4, ok, f"novel 5-way 1-shot mean accuracy "
                   f"{rep.mean_accuracy:.4f} (>= 0.95) over E=100, L=10; "
                   f"gen+train+eval {elapsed:.0f}s (limit 300s)")


# ---------------------------------------------------------------------------
# criterion 5: ablation table shape and byte-identical reruns
# ---------------------------------------------------------------------------

def test_criterion_5_ablation_table(tmp_path, capsys):
    dataset = gen_synthetic(8, 16, 16, 6.0, 1.0, seed=6)
    pair = RoutingPair(
        dmm=RoutingConfig(16, capsule_count=2, capsule_dim=8, iterations=2),
        qim=RoutingConfig(16, capsule_count=2, capsule_dim=8, iterations=2))
    cfg = TrainConfig(
        stage1=Stage1Config(steps=25, batch_size=16, learning_rate=1e-3),
        stage2=Stage2Config(episodes=4, learning_rate=1e-3, C=3, K=1, L=3),
        eval=EvalSettings(episodes=4, queries_per_class=3),
        encoder=EncoderConfig(kind="precomputed", embed_dim=16),
        routing=pair, seed=2, num_base=4)
    paths = [tmp_path / "t1.csv", tmp_path / "t2.csv"]
    rows = run_ablation_suite(dataset, cfg, csv_path=paths[0])
    run_ablation_suite(dataset, cfg, csv_path=paths[1])

    names = [r["model"] for r in rows]
    iters = [r["iterations"] for r in rows]
    shape_ok = (names == ["w/o DMM", "w/o QIM", "DMIN", "DMIN", "DMIN"]
                and iters[2:] == [1, 2, 3]
                and all(set(r) == {"model", "iterations", "acc_1shot",
                                   "acc_5shot"} for r in rows))
    header_ok = paths[0].read_text(encoding="utf-8").splitlines()[0] == \
        "model,iterations,acc_1shot,acc_5shot"
    byte_ok = paths[0].read_bytes() == paths[1].read_bytes()
    sweep = ", ".join(f"r={r['iterations']}:{r['acc_1shot']:.2f}"
                      for r in rows[2:])
    ok = shape_ok and header_ok and byte_ok
    _report(capsys, 5, ok, f"5-row table {{w/o DMM, w/o QIM, DMIN r=1,2,3}} x "
                   f"{{1,5}}-shot, rerun byte-identical; iteration effect "
                   f"(1-shot, reported not asserted): {sweep}")


# ---------------------------------------------------------------------------
# criterion 6: double ablation == prototypical baseline, 20 fixed episodes
# ---------------------------------------------------------------------------

def test_criterion_6_prototypical_equivalence(capsys):
    dataset = gen_synthetic(10, 20, 16, 4.0, 1.0, seed=8)
    enc = EncoderConfig(kind="precomputed", embed_dim=16)
    cfg = TrainConfig(encoder=enc, seed=3,
                      stage2=Stage2Config(episodes=0, C=4, K=3, L=4),
                      eval=EvalSettings(episodes=20, queries_per_class=4))
    model = init_model(model_config_from(cfg, num_base_classes=10), seed=3)
    tensors = model.tensors()
    flags = frozenset({"no_dmm", "no_qim"})
    ep_cfg = EpisodeConfig(way=4, shot=3, queries=4, seed=cfg.seed)

    ours, oracle = [], []
    for index in range(20):
        episode = sample_episode(dataset, ep_cfg, index)
        scores, labels = episode_forward(model, tensors, episode, flags)
        ours.append(sum(int(np.argmax(s)) == lab
                        for s, lab in zip(scores.array, labels)))
        by_class = [[] for _ in episode.class_ids]
        for lab, payload in episode.support:
            by_class[lab].append(np.asarray(payload))
        oracle.append(sum(
            oracles.prototype_predict(by_class, np.asarray(payload)) == lab
            for lab, payload in episode.queries))
    ok = ours == oracle
    _report(capsys, 6, ok, f"no_dmm+no_qim vs mean-of-supports cosine oracle on 20 "
                   f"fixed episodes: per-episode hits identical "
                   f"({sum(ours)}/{20 * 16} total)")


# ---------------------------------------------------------------------------
# criterion 7: separation improves on the trained model; silhouette oracle
# ---------------------------------------------------------------------------

def test_criterion_7_separation(end_to_end, capsys):
    rng = np.random.default_rng(77)
    worst = 0.0
    for _ in range(25):  # silhouette vs brute-force oracle, 1e-12
        pts = rng.normal(0, 1, (int(rng.integers(4, 20)), 3))
        labs = rng.integers(0, 3, len(pts))
        if len(set(labs.tolist())) < 2:
            labs[0] = (labs[0] + 1) % 3
            labs[1] = (labs[0] + 1) % 3
        got = silhouette_score(pts, labs.tolist())
        want = oracles.silhouette_reference(pts, labs.tolist())
        worst = max(worst, abs(got - want))

    rep = separation_report(end_to_end["model"], end_to_end["novel"],
                            way=10, shot=5, seed=1)
    ok = worst <= 1e-12 and rep.silhouette_after >= rep.silhouette_before
    _report(capsys, 7, ok, f"silhouette oracle max |diff| {worst:.2e} (tol 1e-12); "
                   f"10-way 5-shot seed-1 fixture: before "
                   f"{rep.silhouette_before:+.4f} -> after "
                   f"{rep.silhouette_after:+.4f}")


# ---------------------------------------------------------------------------
# criterion 8: protocol arithmetic (75-item episodes; E=100 default, 300 ok)
# ---------------------------------------------------------------------------

def test_criterion_8_protocol_arithmetic(end_to_end, capsys):
    dataset = gen_synthetic(7, 20, 8, 4.0, 1.0, seed=9)
    episode = sample_episode(dataset,
                             EpisodeConfig(way=5, shot=5, queries=10,
                                           seed=0), 0)
    support, queries = len(episode.support), len(episode.queries)
    default_e = EvalSettings().episodes
    rep300 = evaluate(end_to_end["model"], end_to_end["novel"], C4_CONFIG,
                      episodes=300, ablation="no_dmm+no_qim")
    ok = (support == 25 and queries == 50 and support + queries == 75
          and default_e == 100 and rep300.episodes == 300
          and len(rep300.per_episode) == 300)
    _report(capsys, 8, ok, f"5-way 5-shot 10-query episode = {support}+{queries}"
                   f"=75 items; eval default E={default_e}, E=300 run "
                   f"returned {len(rep300.per_episode)} per-episode entries")


# ---------------------------------------------------------------------------
# criterion 9: persistence round trip reproduces the evaluation
# ---------------------------------------------------------------------------

def test_criterion_9_persistence(end_to_end, tmp_path, capsys):
    model = end_to_end["model"]
    path = tmp_path / "model.ckpt"
    save_checkpoint(model, path)
    clone = load_checkpoint(path)
    settings = dict(episodes=20, way=5, shot=1, queries=10, seed=4)
    before = evaluate(model, end_to_end["novel"], C4_CONFIG, **settings)
    after = evaluate(clone, end_to_end["novel"], C4_CONFIG, **settings)
    ok = (before.config_hash == after.config_hash
          and before.per_episode == after.per_episode)
    _report(capsys, 9, ok, f"save->load->evaluate: config hash "
                   f"{after.config_hash} and all {len(after.per_episode)} "
                   f"per-episode accuracies identical")
