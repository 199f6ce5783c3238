import base64
import hashlib
import json
import math
import os
import signal
import sys
import threading
import time
import warnings
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest

from dmin import model as dmin_model
from dmin import numerics as nm
from dmin.encoder import EncoderConfig
from dmin.harness import RoutingPair, TrainConfig, model_config_from
from dmin.model import (Adam, CheckpointError, Model, ModelConfig,
                        init_model, load_checkpoint, save_checkpoint)
from dmin.routing import RoutingConfig
from oracles import adam_reference

FIXTURE = Path(__file__).resolve().parents[1] / "bench" / "fixture"


def small_config(kind="precomputed", share=False):
    rc = RoutingConfig.for_pipeline(8, capsule_count=2, iterations=2)
    cfg = TrainConfig(
        encoder=EncoderConfig(kind=kind, embed_dim=8, vocab_buckets=16),
        routing=RoutingPair(dmm=rc, qim=rc, share_params=share))
    return model_config_from(cfg, 4)


class TestModelInit:
    def test_param_shapes_precomputed(self):
        m = init_model(small_config(), seed=0)
        assert m.params["clf.w_base"].shape == (4, 8)
        assert m.params["clf.log_tau"].shape == ()
        assert m.params["dmm.w"].shape == (8, 8)
        assert m.params["qim.b"].shape == (8,)
        assert "enc.projection" not in m.params

    def test_param_shapes_feature_hash(self):
        m = init_model(small_config(kind="feature_hash"), seed=0)
        assert m.params["enc.projection"].shape == (8, 16)

    def test_share_routing_drops_qim_set(self):
        m = init_model(small_config(share=True), seed=0)
        assert not any(k.startswith("qim.") for k in m.params)
        tensors = m.tensors()
        qp = m.qim_params(tensors)
        dp = m.dmm_params(tensors)
        dmm_w = m.params["dmm.w"]
        npt.assert_array_equal(qp.w.array, dmm_w)
        npt.assert_array_equal(dp.w.array, dmm_w)
        npt.assert_array_equal(qp.b.array, dp.b.array)

    def test_seeded_determinism(self):
        a = init_model(small_config(), seed=7)
        b = init_model(small_config(), seed=7)
        for k in a.params:
            npt.assert_array_equal(a.params[k], b.params[k])

    def test_tensors_leaf_vs_constant(self):
        m = init_model(small_config(), seed=1)
        consts = m.tensors()
        assert all(t.tape is None for t in consts.values())
        tape = nm.Tape()
        leaves = m.tensors(tape)
        assert all(t.tape is tape for t in leaves.values())

    def test_encode_vector_payload(self):
        m = init_model(small_config(), seed=1)
        v = np.arange(8.0)
        npt.assert_array_equal(m.encode(m.tensors(), v).array, v)
        with pytest.raises(ValueError):
            m.encode(m.tensors(), np.arange(5.0))

    def test_encode_text_payload(self):
        m = init_model(small_config(kind="feature_hash"), seed=1)
        out = m.encode(m.tensors(), "hello world")
        assert out.array.shape == (8,)

    def test_config_cross_checks(self):
        enc = EncoderConfig(kind="precomputed", embed_dim=8)
        r8 = RoutingConfig.for_pipeline(8, capsule_count=2)
        r16 = RoutingConfig.for_pipeline(16, capsule_count=2)
        with pytest.raises(ValueError):
            ModelConfig(embed_dim=16, num_base_classes=3, encoder=enc,
                        dmm=r16, qim=r16)
        with pytest.raises(ValueError):
            ModelConfig(embed_dim=8, num_base_classes=3, encoder=enc,
                        dmm=r16, qim=r8)
        with pytest.raises(ValueError):
            ModelConfig(embed_dim=8, num_base_classes=3, encoder=enc,
                        dmm=r8, qim=RoutingConfig(input_dim=8,
                                                  capsule_count=2,
                                                  capsule_dim=4,
                                                  iterations=1),
                        share_routing=True)


BLOCK = dmin_model._CHUNK  # entries per block of a large Adam update


class _CountingPool(ThreadPoolExecutor):
    """A one-worker pool that counts the block halves handed to it."""

    def __init__(self):
        super().__init__(1)
        self.submitted = 0

    def submit(self, *args, **kwargs):
        self.submitted += 1
        return super().submit(*args, **kwargs)


def _adam_pools(monkeypatch):
    """Give Adam each of three worker pools in turn, yielding the pool the
    test owns or None: the process's own (made only with 2 or more usable
    CPUs), a one-worker pool of the test's own whatever the CPU count, and
    none (the one-CPU path)."""
    yield None
    pool = _CountingPool()
    try:
        with monkeypatch.context() as patch:
            patch.setattr(dmin_model, "_pool", pool)
            yield pool
    finally:
        pool.shutdown()
    with monkeypatch.context() as patch:
        patch.setattr(dmin_model, "_pool", False)
        yield None


class TestAdam:
    def test_matches_reference_trajectory(self):
        rng = np.random.default_rng(30)
        x0 = rng.normal(size=(3, 4))
        grads = [rng.normal(size=(3, 4)) for _ in range(25)]
        opt = Adam(lr=0.01)
        params = {"x": x0.copy()}
        for g in grads:
            opt.step(params, {"x": g})
        npt.assert_allclose(params["x"], adam_reference(x0, grads, lr=0.01),
                            atol=1e-12)

    def test_first_step_magnitude_close_to_lr(self):
        params = {"x": np.zeros(4)}
        Adam(lr=0.123).step(params, {"x": np.array([1.0, -1.0, 5.0, -0.5])})
        npt.assert_allclose(np.abs(params["x"]), np.full(4, 0.123),
                            rtol=1e-6)

    def test_unseen_parameter_untouched(self):
        opt = Adam(lr=0.1)
        params = {"x": np.ones(2), "y": np.ones(2)}
        opt.step(params, {"x": np.ones(2)})
        npt.assert_array_equal(params["y"], np.ones(2))

    def test_rejects_nonfinite_gradient(self):
        with pytest.raises(nm.NumericError):
            Adam(lr=0.1).step({"x": np.zeros(2)},
                              {"x": np.array([1.0, np.nan])})

    def test_in_place_step_is_bit_identical_to_the_textbook_formula(
            self, monkeypatch):
        for pool in _adam_pools(monkeypatch):
            self._check_textbook_bits(pool)

    @staticmethod
    def _check_textbook_bits(pool):
        rng = np.random.default_rng(31)
        # "big" is updated in 32K-entry blocks with a short last block,
        # "two" is exactly 2 blocks, "odd" 3 and "one_plus" a block and one
        # entry: with a worker, each is split between two threads; "big_t"
        # is as large but not C-contiguous, so it is updated whole
        shapes = {"w": (3, 4), "tau": (), "late": (5,),
                  "big": (3 * BLOCK + 7,), "two": (2 * BLOCK,),
                  "odd": (3, BLOCK), "one_plus": (BLOCK + 1,),
                  "big_t": (64, 1030)}
        start = {k: rng.normal(size=shape) for k, shape in shapes.items()}
        start["big_t"] = start["big_t"].T
        got, want = {k: v.copy("K") for k, v in start.items()}, \
            {k: v.copy("K") for k, v in start.items()}
        assert not got["big_t"].flags.c_contiguous
        opt, ref = Adam(lr=0.01), Adam(lr=0.01)
        for step in range(25):
            grads = {k: rng.normal(0.0, 10.0 ** rng.integers(-6, 3),
                                   start[k].shape)
                     for k in shapes
                     if k != "late" or step >= 7}  # first seen at step 8
            opt.step(got, grads)
            _textbook_adam_step(ref, want, grads)
            for k in got:
                for a, b in ((got[k], want[k]), (opt.m.get(k), ref.m.get(k)),
                             (opt.v.get(k), ref.v.get(k))):
                    if a is None:
                        assert b is None
                        continue
                    assert np.asarray(a).shape == np.asarray(b).shape
                    npt.assert_array_equal(np.asarray(a).view(np.int64),
                                           np.asarray(b).view(np.int64))
        assert opt.t == ref.t == 25
        assert type(got["tau"]) is np.ndarray and got["tau"].ndim == 0
        if pool is not None:  # one split per large contiguous step
            assert pool.submitted == 4 * 25

    def test_finite_gradient_whose_sum_overflows_is_accepted(self):
        params = {"x": np.zeros(2)}
        with np.errstate(over="ignore"):  # g * g overflows in v
            Adam(lr=0.1).step(params, {"x": np.array([1e308, 1e308])})
        assert np.all(np.isfinite(params["x"]))

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_nonfinite_gradient_names_the_parameter(self, bad):
        with pytest.raises(nm.NumericError, match="gradient for b at step 1"):
            Adam(lr=0.1).step({"a": np.zeros(2), "b": np.zeros(2)},
                              {"a": np.ones(2), "b": np.array([1.0, bad])})

    def test_rejected_step_leaves_params_and_state_unchanged(self,
                                                             monkeypatch):
        for _ in _adam_pools(monkeypatch):
            opt = Adam(lr=0.1)
            params = {"big": np.ones(3 * BLOCK + 1), "a": np.ones(2),
                      "b": np.ones(2), "c": np.ones(())}
            opt.step(params, {"big": np.full(3 * BLOCK + 1, 0.25),
                              "a": np.ones(2), "c": np.array(0.5)})
            before = ({k: v.copy() for k, v in params.items()},
                      {k: v.copy() for k, v in opt.m.items()},
                      {k: v.copy() for k, v in opt.v.items()})
            # the large parameter comes before the bad gradient
            with pytest.raises(nm.NumericError, match="for b at step 2"):
                opt.step(params, {"big": np.full(3 * BLOCK + 1, 0.25),
                                  "a": np.ones(2), "c": np.array(0.5),
                                  "b": np.array([1.0, np.nan])})
            assert opt.t == 1
            assert set(opt.m) == set(opt.v) == {"big", "a", "c"}
            for want, got in zip(before, (params, opt.m, opt.v)):
                for k in want:
                    npt.assert_array_equal(got[k], want[k])

    @staticmethod
    def _overflowing_tail():
        """A large parameter whose gradient overflows ``g * g`` only in
        its last block, which a worker would update."""
        g = np.ones(3 * BLOCK + 5)
        g[-BLOCK:] = 1e200
        return {"w": np.zeros(g.shape)}, {"w": g}

    def test_ignored_overflow_warns_in_no_thread(self, monkeypatch):
        for _ in _adam_pools(monkeypatch):
            params, grads = self._overflowing_tail()
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with np.errstate(over="ignore"):
                    Adam(lr=0.1).step(params, grads)
            assert np.all(np.isfinite(params["w"]))

    def test_raised_overflow_surfaces_from_step(self, monkeypatch):
        for _ in _adam_pools(monkeypatch):
            params, grads = self._overflowing_tail()
            with np.errstate(over="raise"), \
                    pytest.raises(FloatingPointError):
                Adam(lr=0.1).step(params, grads)

    def test_concurrent_callers_share_the_worker_and_keep_their_bits(
            self, monkeypatch):
        # more threads than CPUs, switching often: each caller's blocks
        # must go through its own scratch rows
        pool = _CountingPool()
        monkeypatch.setattr(dmin_model, "_pool", pool)
        rng = np.random.default_rng(32)
        starts = [rng.normal(size=2 * BLOCK + 3) for _ in range(3)]
        grads = [[rng.normal(size=x.shape) for _ in range(5)] for x in starts]
        want = []
        for x, gs in zip(starts, grads):
            ref, params = Adam(lr=0.01), {"x": x.copy()}
            for g in gs:
                _textbook_adam_step(ref, params, {"x": g})
            want.append(params["x"])
        got = [{"x": x.copy()} for x in starts]

        def steps(k):
            opt = Adam(lr=0.01)
            for g in grads[k]:
                opt.step(got[k], {"x": g})

        threads = [threading.Thread(target=steps, args=(k,))
                   for k in range(len(starts))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
            pool.shutdown()
        assert not any(t.is_alive() for t in threads)
        assert pool.submitted == 3 * 5
        for params, x in zip(got, want):
            npt.assert_array_equal(params["x"].view(np.int64),
                                   x.view(np.int64))

    def test_worker_pool_needs_two_usable_cpus(self, monkeypatch):
        for cpus, made in (({0}, False), ({0, 1}, True)):
            monkeypatch.setattr(dmin_model, "_pool", None)
            monkeypatch.setattr(os, "sched_getaffinity", lambda _: cpus,
                                raising=False)
            pool = dmin_model._worker_pool()
            assert (pool is not None) == made
            assert dmin_model._worker_pool() is pool  # made once
            if pool is not None:
                pool.shutdown()

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_forked_child_makes_its_own_worker(self, monkeypatch):
        pool = _CountingPool()
        monkeypatch.setattr(dmin_model, "_pool", pool)
        params, grads = {"w": np.zeros(3 * BLOCK)}, {"w": np.ones(3 * BLOCK)}
        Adam(lr=0.1).step(params, grads)
        assert pool.submitted == 1  # the parent's worker thread exists
        want = params["w"].copy()
        pid = os.fork()
        if pid == 0:  # child: an inherited pool's thread would never answer
            try:
                params["w"][:] = 0.0
                Adam(lr=0.1).step(params, grads)
                os._exit(0 if np.array_equal(params["w"], want) else 1)
            finally:
                os._exit(2)
        pool.shutdown()
        deadline = time.monotonic() + 30
        while (done := os.waitpid(pid, os.WNOHANG))[0] == 0:
            if time.monotonic() > deadline:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                pytest.fail("a step in a forked child did not return")
            time.sleep(0.01)
        assert os.waitstatus_to_exitcode(done[1]) == 0


def _textbook_adam_step(opt, params, grads):
    """Adam.step as written before it updated through scratch arrays: the
    reference its in-place form must equal bit for bit."""
    opt.t += 1
    for name, g in grads.items():
        m = opt.m.get(name)
        if m is None:
            m = np.zeros_like(params[name])
            opt.m[name] = m
            opt.v[name] = np.zeros_like(params[name])
        v = opt.v[name]
        m *= opt.beta1
        m += (1.0 - opt.beta1) * g
        v *= opt.beta2
        v += (1.0 - opt.beta2) * g * g
        mhat = m / (1.0 - opt.beta1 ** opt.t)
        vhat = v / (1.0 - opt.beta2 ** opt.t)
        params[name] -= opt.lr * mhat / (np.sqrt(vhat) + opt.eps)


class TestCheckpoint:
    def test_round_trip_values(self, tmp_path):
        m = init_model(small_config(kind="feature_hash"), seed=3)
        p = tmp_path / "model.ckpt"
        save_checkpoint(m, p)
        again = load_checkpoint(p)
        assert again.config == m.config
        assert set(again.params) == set(m.params)
        for k in m.params:
            npt.assert_array_equal(again.params[k], m.params[k])

    def test_save_load_save_byte_identical(self, tmp_path):
        m = init_model(small_config(), seed=4)
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(m, p1)
        save_checkpoint(load_checkpoint(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_truncated_file_is_corruption(self, tmp_path):
        m = init_model(small_config(), seed=5)
        p = tmp_path / "model.ckpt"
        save_checkpoint(m, p)
        p.write_bytes(p.read_bytes()[:200])
        with pytest.raises(CheckpointError):
            load_checkpoint(p)

    def test_bit_flip_fails_checksum(self, tmp_path):
        m = init_model(small_config(), seed=6)
        p = tmp_path / "model.ckpt"
        save_checkpoint(m, p)
        raw = bytearray(p.read_bytes())
        i = raw.index(b'"data":"'[0:7]) + 20
        raw[i] = ord("A") if raw[i] != ord("A") else ord("B")
        p.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError, match="checksum"):
            load_checkpoint(p)

    def test_unknown_version_rejected(self, tmp_path):
        m = init_model(small_config(), seed=7)
        p = tmp_path / "model.ckpt"
        save_checkpoint(m, p)
        import json
        body = json.loads(p.read_text())
        body["format_version"] = 99
        p.write_text(json.dumps(body))
        with pytest.raises(CheckpointError, match="version"):
            load_checkpoint(p)

    def test_dimension_mismatch_names_both_shapes(self, tmp_path):
        m = init_model(small_config(), seed=8)
        m.params["clf.w_base"] = np.zeros((3, 5))
        p = tmp_path / "model.ckpt"
        save_checkpoint(m, p)
        with pytest.raises(CheckpointError,
                           match=r"\(3, 5\).*\(4, 8\)"):
            load_checkpoint(p)

    @staticmethod
    def _resave(path, edit) -> None:
        """Apply ``edit`` to the checkpoint body at ``path`` and seal it
        again with a valid checksum."""
        body = json.loads(path.read_text())
        del body["checksum"]
        edit(body)
        body["checksum"] = hashlib.sha256(json.dumps(
            body, sort_keys=True, separators=(",", ":")).encode()).hexdigest()
        path.write_text(json.dumps(body))

    def test_missing_parameter_rejected(self, tmp_path):
        m = init_model(small_config(), seed=9)
        p = tmp_path / "model.ckpt"
        save_checkpoint(m, p)
        self._resave(p, lambda body: body["params"].pop("dmm.b_0"))
        with pytest.raises(CheckpointError, match="dmm.b_0"):
            load_checkpoint(p)

    @pytest.mark.parametrize("key,shape", [
        ("dmm.w_1", (4, 7)), ("qim.w_0", (8, 4)), ("qim.b_1", (5,)),
        ("dmm.b_0", (4, 1))])
    def test_capsule_key_of_the_wrong_shape_is_named(self, tmp_path, key,
                                                     shape):
        m = init_model(small_config(), seed=9)
        p = tmp_path / "model.ckpt"
        save_checkpoint(m, p)

        def reshape(body):
            data = base64.b64encode(np.ones(shape).tobytes()).decode()
            body["params"][key] = {"shape": list(shape), "data": data}

        self._resave(p, reshape)
        with pytest.raises(CheckpointError,
                           match=rf"parameter '{key}' has shape"):
            load_checkpoint(p)

    def test_disk_layout_is_one_key_per_capsule(self, tmp_path):
        m = init_model(small_config(), seed=11)
        p = tmp_path / "model.ckpt"
        save_checkpoint(m, p)
        arrays = json.loads(p.read_text())["params"]
        assert {k for k in arrays if k[:4] in ("dmm.", "qim.")} == {
            f"{op}.{c}_{j}" for op in ("dmm", "qim") for c in "wb"
            for j in range(2)}
        w_1 = np.frombuffer(base64.b64decode(arrays["qim.w_1"]["data"]))
        npt.assert_array_equal(w_1.reshape(4, 8), m.params["qim.w"][4:])
        loaded = load_checkpoint(p)
        assert loaded.params.keys() == m.params.keys()
        assert loaded.param_digest() == m.param_digest()

    def test_fixture_load_save_reproduces_its_recorded_sha256(self,
                                                               tmp_path):
        record = json.loads((FIXTURE / "c4_model.json").read_text())
        model = load_checkpoint(FIXTURE / record["file"])
        assert model.params["dmm.w"].shape == (32, 32)
        p = tmp_path / "again.ckpt"
        save_checkpoint(model, p)
        assert hashlib.sha256(p.read_bytes()).hexdigest() == record["sha256"]

    def test_param_digest_tracks_changes(self):
        m = init_model(small_config(), seed=10)
        before = m.param_digest()
        assert before == m.param_digest()
        m.params["clf.log_tau"] = m.params["clf.log_tau"] + 0.1
        assert m.param_digest() != before
