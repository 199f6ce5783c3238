import base64
import hashlib
import json
import math
import re
import sys
import threading
import warnings
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
from dmin.routing import MAX_ITERATIONS, RoutingConfig
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

    def test_tensors_are_contiguous_float64_and_unscanned(self):
        # a parameter assigned as a strided view or as another dtype
        # still becomes a C-contiguous float64 leaf; a non-finite one,
        # which its writers would have refused, is not scanned again
        m = init_model(small_config(), seed=1)
        w = m.params["clf.w_base"]
        m.params["clf.w_base"] = np.asfortranarray(w)
        m.params["clf.log_tau"] = np.float32(0.5)
        m.params["dmm.b"] = np.full(m.params["dmm.b"].shape, np.nan)
        for tape in (None, nm.Tape()):
            made = m.tensors(tape)
            for k, t in made.items():
                assert t.array.dtype == np.float64, k
                assert t.array.ndim == 0 or t.array.flags.c_contiguous, k
            npt.assert_array_equal(made["clf.w_base"].array, w)
            assert made["clf.log_tau"].array.shape == ()
            assert np.isnan(made["dmm.b"].array).all()
        assert [n.op for n in tape.nodes] == ["leaf"] * len(m.params)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_refuses_a_nonfinite_initial_array(self, monkeypatch, bad):
        real = dmin_model.init_classifier_arrays

        def poisoned(*args):
            arrays = real(*args)
            arrays["w_base"][1, 2] = bad
            return arrays

        monkeypatch.setattr(dmin_model, "init_classifier_arrays", poisoned)
        with pytest.raises(nm.NumericError,
                           match="init_model: initial clf.w_base is not "
                                 "finite"):
            init_model(small_config(), seed=0)

    def test_encode_vector_payload(self):
        m = init_model(small_config(), seed=1)
        v = np.arange(24.0).reshape(3, 8)
        rows, first = m.encode_vectors(v, np.array([2, 0]), [0])
        npt.assert_array_equal(rows.array, v[[2, 0]])
        npt.assert_array_equal(first.array, v[:1])
        with pytest.raises(ValueError):
            m.encode_vectors(np.ones((3, 5)), [0])

    def test_config_refusals_name_the_field(self):
        enc = EncoderConfig(kind="precomputed", embed_dim=8)
        r8 = RoutingConfig.for_pipeline(8, capsule_count=2)
        r6 = RoutingConfig.for_pipeline(6, capsule_count=2)
        narrow = RoutingConfig(input_dim=8, capsule_count=2, capsule_dim=3)
        for kwargs, message in (
                ({"qim": r6}, "qim.input_dim 6 != embed_dim 8"),
                ({"dmm": narrow}, "dmm output dimension 6 != embed_dim 8"),
                ({"qim": narrow}, "qim output dimension 6 != embed_dim 8"),
                ({"num_base_classes": 0},
                 "num_base_classes must be >= 1, got 0")):
            with pytest.raises(ValueError, match=f"^{message}$"):
                ModelConfig(**{"embed_dim": 8, "num_base_classes": 3,
                               "encoder": enc, "dmm": r8, "qim": r8,
                               **kwargs})

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


BLOCK = 1 << 15  # 32K entries: large parameters below straddle its multiples


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

    def test_in_place_step_is_bit_identical_to_the_textbook_formula(self):
        rng = np.random.default_rng(31)
        # "big" has 3 * 32K + 7 entries, "two" 2 * 32K, "odd" 3 * 32K and
        # "one_plus" 32K + 1; "big_t" is as large but not C-contiguous
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

    def test_blocked_update_writes_through_a_contiguous_view(self):
        # parameters of more than 32K entries that are C-contiguous views
        # into larger buffers: every entry must land in the buffer, and
        # nothing outside the view may move
        rng = np.random.default_rng(34)
        bufs = {"vec": rng.normal(size=3 * BLOCK + 20),
                "rows": rng.normal(size=(20, 4096))}
        got_bufs = {k: b.copy() for k, b in bufs.items()}
        got = {"vec": got_bufs["vec"][7:7 + 3 * BLOCK + 1],
               "rows": got_bufs["rows"][2:18]}
        want = {"vec": bufs["vec"][7:7 + 3 * BLOCK + 1].copy(),
                "rows": bufs["rows"][2:18].copy()}
        assert all(p.flags.c_contiguous and p.size > BLOCK
                   and p.base is not None for p in got.values())
        opt, ref = Adam(lr=0.01), Adam(lr=0.01)
        for _ in range(3):
            grads = {k: rng.normal(size=p.shape) for k, p in got.items()}
            opt.step(got, grads)
            _textbook_adam_step(ref, want, grads)
        for k in got:
            npt.assert_array_equal(got[k].view(np.int64),
                                   want[k].view(np.int64))
        npt.assert_array_equal(got_bufs["vec"][7:7 + 3 * BLOCK + 1],
                               want["vec"])
        npt.assert_array_equal(got_bufs["vec"][:7], bufs["vec"][:7])
        npt.assert_array_equal(got_bufs["vec"][7 + 3 * BLOCK + 1:],
                               bufs["vec"][7 + 3 * BLOCK + 1:])
        npt.assert_array_equal(got_bufs["rows"][2:18], want["rows"])
        npt.assert_array_equal(got_bufs["rows"][:2], bufs["rows"][:2])
        npt.assert_array_equal(got_bufs["rows"][18:], bufs["rows"][18:])

    @staticmethod
    def _live_column_grads(rng, steps):
        """Gradients of four matrices whose columns go live at different
        steps.  "wide" (8 x 4400): column 0 is never hit, column 1 holds
        only -0.0, column 2 is first hit at step 8, columns 3-4199 at step
        1 (a compact block of 33,576 entries, more than 32K) and the
        rest at random steps or never.  "small" (3 x 5) has every column
        live from step 5; "wide_t" is a non-C-contiguous (6 x 40) matrix
        with half its columns live; "zero" is never hit."""
        first = {"wide": np.concatenate([[steps + 1, steps + 1, 8],
                                         np.ones(4197, int),
                                         rng.integers(2, 2 * steps, 200)]),
                 "small": np.array([1, 3, 5, 3, 1]),
                 "wide_t": np.where(np.arange(40) % 2, 1, steps + 1)}
        for step in range(1, steps + 1):
            grads = {"zero": np.zeros((4, 7))}
            for name, hit in first.items():
                # a column is hit on its first step, later at random
                live = (hit == step) | ((hit < step)
                                        & (rng.random(len(hit)) < 0.8))
                g = rng.normal(0.0, 10.0 ** rng.integers(-6, 3),
                               (len(live), {"wide": 8, "small": 3,
                                            "wide_t": 6}[name])).T
                g[rng.random(g.shape) < 0.1] = 0.0
                g[:, ~live] = 0.0
                if name == "wide":
                    g[:, 1] = -0.0
                grads[name] = g.copy("K") if name == "wide_t" else \
                    np.ascontiguousarray(g)
            yield grads

    def test_live_column_update_is_bit_identical_to_the_textbook_formula(
            self):
        rng = np.random.default_rng(33)
        start = {"wide": rng.normal(size=(8, 4400)),
                 "small": rng.normal(size=(3, 5)),
                 "wide_t": rng.normal(size=(40, 6)).T,
                 "zero": rng.normal(size=(4, 7))}
        got = {k: v.copy("K") for k, v in start.items()}
        want = {k: v.copy("K") for k, v in start.items()}
        assert not got["wide_t"].flags.c_contiguous
        opt, ref = Adam(lr=0.01), Adam(lr=0.01)
        steps, big_steps = 25, 0
        for grads in TestAdam._live_column_grads(rng, steps):
            opt.step(got, grads)
            _textbook_adam_step(ref, want, grads)
            big_steps += opt.m["wide"].size > BLOCK
            for k in got:
                npt.assert_array_equal(got[k].view(np.int64),
                                       want[k].view(np.int64))
                if k not in opt.m:  # a matrix never hit keeps no state
                    assert k not in opt.cols and k not in opt.v
                    assert not ref.m[k].view(np.int64).any()
                    assert not ref.v[k].view(np.int64).any()
                    continue
                ids = opt.cols[k]
                dead = np.setdiff1d(np.arange(got[k].shape[1]), ids)
                for a, b in ((opt.m[k], ref.m[k]), (opt.v[k], ref.v[k])):
                    assert a.shape == (got[k].shape[0], len(ids))
                    npt.assert_array_equal(a.view(np.int64),
                                           b[:, ids].view(np.int64))
                    assert not b[:, dead].view(np.int64).any()  # +0.0
        assert opt.t == ref.t == steps
        assert list(opt.cols["small"]) == list(range(5))
        assert opt.m["small"].shape == (3, 5)
        assert 0 not in opt.cols["wide"] and 1 not in opt.cols["wide"]
        assert 2 in opt.cols["wide"] and len(opt.cols["wide"]) < 4400
        assert big_steps == steps

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_entry_in_a_never_live_column_moves_nothing(
            self, bad):
        opt = Adam(lr=0.1)
        grad = np.zeros((8, 4400))
        grad[:, 3:4200] = 0.5  # a compact block of more than 32K entries
        params = {"big": np.ones(3 * BLOCK + 1), "w": np.ones((8, 4400)),
                  "late": np.ones((2, 3))}
        good = {"big": np.full(3 * BLOCK + 1, 0.25), "w": grad}
        opt.step(params, good)
        before = ({k: v.copy() for k, v in params.items()},
                  {k: v.copy() for k, v in opt.m.items()},
                  {k: v.copy() for k, v in opt.v.items()},
                  {k: v.copy() for k, v in opt.cols.items()})
        poisoned = grad.copy()
        poisoned[5, 4300] = bad  # column 4300 has never been live
        # the large parameter and "late", whose columns would go live
        # on this step, come before the bad gradient
        with pytest.raises(nm.NumericError, match="for w at step 2"):
            opt.step(params, {"big": good["big"],
                              "late": np.ones((2, 3)), "w": poisoned})
        assert opt.t == 1
        assert set(opt.cols) == {"w"}
        for want, got in zip(before, (params, opt.m, opt.v, opt.cols)):
            assert set(got) == set(want)
            for k in want:
                npt.assert_array_equal(got[k], want[k])

    @pytest.mark.parametrize("where", ["vector", "scalar", "block",
                                       "matrix"])
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_refuses_to_leave_a_nonfinite_parameter(self, where, sign):
        # p = 1.7e308 moved by about lr = 1e308 overflows to inf; "block"
        # has 2 * 32K + 5 entries, the bad entry past the first 32K, and
        # "matrix" is updated through its compact block of live columns
        params = {"vector": np.zeros(3), "scalar": np.zeros(()),
                  "block": np.zeros(2 * BLOCK + 5),
                  "matrix": np.zeros((4, 10)), "after": np.zeros(2)}
        grads = {k: np.ones(p.shape) for k, p in params.items()}
        grads["matrix"][:, ::2] = 0.0
        at = {"vector": 1, "scalar": (), "block": BLOCK + 3,
              "matrix": (2, 5)}[where]
        params[where][at] = 1.7e308 * sign
        grads[where][at] = -sign
        opt = Adam(lr=1e308)
        # the moved entries overflow, and their sum may be inf - inf
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
                nm.NumericError,
                match=f"^step 1 left a non-finite entry in {where}$"):
            opt.step(params, grads)
        # the refusal comes after the whole step
        assert params[where][at] == np.inf * sign
        assert opt.t == 1 and set(opt.m) == set(params)
        assert (params["after"] < -9e307).all()
        assert (params["matrix"][:, ::2] == 0.0).all()
        assert opt.m["matrix"].shape == (4, 5)

    def test_stateless_vector_and_scalar_skip_all_zero_gradients(self):
        # "b", "tau" and "neg" see only zero gradients (of -0.0 in "neg")
        # for 4 steps and keep no state; from step 5 they must hold the
        # bits of a dense update that kept +0.0 moments all along, also
        # through a later all-zero gradient
        rng = np.random.default_rng(35)
        start = {"b": rng.normal(size=6), "tau": np.array(rng.normal()),
                 "neg": np.array([-0.0, 0.5, -2.0])}
        got = {k: v.copy() for k, v in start.items()}
        want = {k: v.copy() for k, v in start.items()}
        opt, ref = Adam(lr=0.01), Adam(lr=0.01)
        for step in range(1, 13):
            grads = {k: rng.normal(0.0, 10.0 ** rng.integers(-6, 3),
                                   v.shape) for k, v in start.items()}
            for g in grads.values():
                if step > 5:
                    g[rng.random(g.shape) < 0.3] = 0.0
            if step <= 4 or step == 9:
                grads = {k: np.zeros(v.shape) for k, v in start.items()}
                grads["neg"] = np.full(3, -0.0)
            opt.step(got, grads)
            _textbook_adam_step(ref, want, grads)
            if step <= 4:
                assert not opt.m and not opt.v
            else:
                assert set(opt.m) == set(opt.v) == set(start)
            for k in start:
                npt.assert_array_equal(got[k].view(np.int64),
                                       want[k].view(np.int64))
                if k in opt.m:
                    for a, b in ((opt.m[k], ref.m[k]), (opt.v[k], ref.v[k])):
                        npt.assert_array_equal(a.view(np.int64),
                                               b.view(np.int64))
        assert opt.t == ref.t == 12
        assert got["tau"].ndim == 0

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

    def test_rejected_step_leaves_params_and_state_unchanged(self):
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

    @pytest.mark.parametrize("name, bad, match", [
        # broadcasting would spread a (1,) gradient over every entry, and
        # a (3,) one over every row
        ("b", np.ones(1), r"for b has shape \(1,\), but the parameter has "
                          r"shape \(3,\)"),
        ("w", np.ones(3), r"for w has shape \(3,\), but the parameter has "
                          r"shape \(2, 3\)"),
        ("c", np.ones(1), r"for c has shape \(1,\), but the parameter has "
                          r"shape \(\)"),
        ("nope", np.ones(3), r"for nope .* no such parameter"),
    ])
    def test_refuses_a_misshaped_or_unknown_gradient_before_anything_moves(
            self, name, bad, match):
        opt = Adam(lr=0.1)
        params = {"big": np.ones(3 * BLOCK + 1), "b": np.ones(3),
                  "w": np.ones((2, 3)), "c": np.ones(())}
        good = {"big": np.full(3 * BLOCK + 1, 0.25), "b": np.ones(3),
                "w": np.ones((2, 3)), "c": np.array(0.5)}
        opt.step(params, good)
        before = ({k: v.copy() for k, v in params.items()},
                  {k: v.copy() for k, v in opt.m.items()},
                  {k: v.copy() for k, v in opt.v.items()})
        # the large parameter comes before the bad gradient
        with pytest.raises(ValueError, match=match):
            opt.step(params, {**good, name: bad})
        assert opt.t == 1 and "nope" not in params
        for want, got in zip(before, (params, opt.m, opt.v)):
            assert set(got) == set(want)
            for k in want:
                npt.assert_array_equal(got[k], want[k])

    @staticmethod
    def _overflowing_tail():
        """A large parameter whose gradient overflows ``g * g`` only in
        its last 32K entries."""
        g = np.ones(3 * BLOCK + 5)
        g[-BLOCK:] = 1e200
        return {"w": np.zeros(g.shape)}, {"w": g}

    def test_ignored_overflow_does_not_warn(self):
        params, grads = self._overflowing_tail()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with np.errstate(over="ignore"):
                Adam(lr=0.1).step(params, grads)
        assert np.all(np.isfinite(params["w"]))

    def test_raised_overflow_surfaces_from_step(self):
        params, grads = self._overflowing_tail()
        with np.errstate(over="raise"), \
                pytest.raises(FloatingPointError):
            Adam(lr=0.1).step(params, grads)

    def test_concurrent_callers_keep_their_bits(self):
        # more threads than CPUs, switching often: each caller's update
        # must go through its own scratch arrays
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
        assert not any(t.is_alive() for t in threads)
        for params, x in zip(got, want):
            npt.assert_array_equal(params["x"].view(np.int64),
                                   x.view(np.int64))

    def test_large_update_starts_no_thread(self):
        before = threading.active_count()
        grad = np.zeros((8, 4400))
        grad[:, 3:4200] = 0.5  # a compact block of more than 32K entries
        params = {"big": np.zeros(3 * BLOCK + 1), "w": np.zeros((8, 4400))}
        opt = Adam(lr=0.1)
        opt.step(params, {"big": np.full(3 * BLOCK + 1, 0.25), "w": grad})
        assert opt.m["w"].size > BLOCK and opt.m["w"].shape[1] < 4400
        assert not [t.name for t in threading.enumerate()
                    if t.name.startswith("dmin-adam")]
        assert threading.active_count() == before


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
        # a character inside the first array's base64, which stays valid
        i = raw.index(b'"data":"') + len(b'"data":"') + 2
        raw[i] = ord("A") if raw[i] != ord("A") else ord("B")
        p.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError,
                           match=r"checksum mismatch \(file corrupt\)"):
            load_checkpoint(p)

    def test_unknown_version_rejected(self, tmp_path):
        m = init_model(small_config(), seed=7)
        p = tmp_path / "model.ckpt"
        save_checkpoint(m, p)
        import json
        body = json.loads(p.read_text())
        body["format_version"] = 99
        p.write_text(json.dumps(body))
        with pytest.raises(CheckpointError,
                           match="format version 99 not supported"):
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

    @pytest.mark.parametrize("text", ["[1, 2]", '{"params": {}}', "3"])
    def test_json_that_is_not_a_checkpoint_is_refused(self, tmp_path, text):
        p = tmp_path / "model.ckpt"
        p.write_text(text)
        with pytest.raises(CheckpointError) as err:
            load_checkpoint(p)
        assert str(err.value) == f"{p}: not a checkpoint file"

    @pytest.mark.parametrize("entry, message", [
        ({"shape": []}, "bad array entry 'clf.log_tau': 'data'"),
        ({"data": "AAAAAAAAAAA="}, "bad array entry 'clf.log_tau': 'shape'"),
        ({"shape": [], "data": "not base64!"},
         "bad array entry 'clf.log_tau': .*"),
        ({"shape": 3, "data": "AAAAAAAAAAA="},
         "bad array entry 'clf.log_tau': 'int' object is not iterable"),
        ({"shape": [2], "data": "AAAAAAAAAAA="},
         r"array 'clf.log_tau' has 1 values, shape \(2,\) needs 2"),
    ])
    def test_malformed_array_entry_is_named(self, tmp_path, entry, message):
        m = init_model(small_config(), seed=9)
        p = tmp_path / "model.ckpt"
        save_checkpoint(m, p)
        self._resave(p, lambda body: body["params"].update(
            {"clf.log_tau": entry}))
        with pytest.raises(CheckpointError) as err:
            load_checkpoint(p)
        assert "\n" not in str(err.value)
        assert re.fullmatch(f"{re.escape(str(p))}: {message}", str(err.value))

    def test_iterations_beyond_the_bound_are_refused_on_load(self, tmp_path):
        # refused while the config is decoded, before an array is read,
        # where a model that loaded would route 2**70 times per call
        m = init_model(small_config(), seed=9)
        p = tmp_path / "model.ckpt"
        save_checkpoint(m, p)
        self._resave(p, lambda body: body["config"]["dmm"].update(
            iterations=2**70))
        with pytest.raises(CheckpointError) as err:
            load_checkpoint(p)
        assert str(err.value) == (f"{p}: dmm.iterations must be <= "
                                  f"{MAX_ITERATIONS}, got {2**70}")

    def test_unexpected_parameter_rejected(self, tmp_path):
        m = init_model(small_config(), seed=9)
        p = tmp_path / "model.ckpt"
        save_checkpoint(m, p)
        extra = {"shape": [], "data": "AAAAAAAAAAA="}
        self._resave(p, lambda body: body["params"].update(
            {"clf.extra": extra, "dmm.w_2": extra}))
        with pytest.raises(CheckpointError) as err:
            load_checkpoint(p)
        assert str(err.value) == (f"{p}: unexpected parameters "
                                  f"['clf.extra', 'dmm.w_2']")

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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_entry_is_refused_naming_the_array(self, tmp_path,
                                                         bad):
        m = init_model(small_config(), seed=11)
        m.params["dmm.w"][5, 1] = bad  # capsule 1's rows: dmm.w_1 on disk
        p = tmp_path / "model.ckpt"
        save_checkpoint(m, p)
        with pytest.raises(CheckpointError) as err:
            load_checkpoint(p)
        assert str(err.value) == \
            f"{p}: array 'dmm.w_1' has a non-finite entry"

    def test_param_digest_tracks_changes(self):
        m = init_model(small_config(), seed=10)
        before = m.param_digest()
        assert before == m.param_digest()
        m.params["clf.log_tau"] = m.params["clf.log_tau"] + 0.1
        assert m.param_digest() != before
