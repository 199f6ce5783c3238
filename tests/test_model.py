import math

import numpy as np
import numpy.testing as npt
import pytest

from dmin import numerics as nm
from dmin.encoder import EncoderConfig
from dmin.harness import RoutingPair, TrainConfig, model_config_from
from dmin.model import (Adam, CheckpointError, Model, ModelConfig,
                        init_model, load_checkpoint, save_checkpoint)
from dmin.routing import RoutingConfig
from oracles import adam_reference


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
        assert m.params["dmm.w_0"].shape == (4, 8)
        assert m.params["qim.b_1"].shape == (4,)
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
        dmm_w = np.concatenate([m.params["dmm.w_0"], m.params["dmm.w_1"]])
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

    def test_missing_parameter_rejected(self, tmp_path):
        m = init_model(small_config(), seed=9)
        del m.params["dmm.b_0"]
        p = tmp_path / "model.ckpt"
        save_checkpoint(m, p)
        with pytest.raises(CheckpointError, match="dmm.b_0"):
            load_checkpoint(p)

    def test_param_digest_tracks_changes(self):
        m = init_model(small_config(), seed=10)
        before = m.param_digest()
        assert before == m.param_digest()
        m.params["clf.log_tau"] = m.params["clf.log_tau"] + 0.1
        assert m.param_digest() != before
