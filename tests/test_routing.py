import time

import numpy as np
import numpy.testing as npt
import pytest

from dmin import numerics as nm
from dmin.routing import (RoutingConfig, RoutingParams, RoutingTrace, dmr,
                          dmm_adapt, init_routing_arrays, params_from_tensors,
                          qim_induce)
from oracles import assert_gradients_close, dmr_reference, finite_difference_gradients


def make_params(rng, cfg, std=0.5):
    ws = [rng.normal(0.0, std, (cfg.capsule_dim, cfg.input_dim))
          for _ in range(cfg.capsule_count)]
    bs = [rng.normal(0.0, std, cfg.capsule_dim)
          for _ in range(cfg.capsule_count)]
    return ws, bs


def as_constant_params(ws, bs):
    return RoutingParams(ws=tuple(nm.constant(w) for w in ws),
                         bs=tuple(nm.constant(b) for b in bs))


class TestConfig:
    def test_output_dim(self):
        cfg = RoutingConfig(input_dim=32, capsule_count=4, capsule_dim=8)
        assert cfg.output_dim == 32

    def test_for_pipeline(self):
        cfg = RoutingConfig.for_pipeline(32, capsule_count=4, iterations=2)
        assert (cfg.capsule_dim, cfg.iterations) == (8, 2)
        with pytest.raises(ValueError):
            RoutingConfig.for_pipeline(30, capsule_count=4)

    def test_rejects_bad_fields(self):
        with pytest.raises(ValueError):
            RoutingConfig(input_dim=8, iterations=0)
        with pytest.raises(ValueError):
            RoutingConfig(input_dim=8, capsule_dim=1)
        with pytest.raises(ValueError):
            RoutingConfig(input_dim=0)


class TestDmrBasics:
    def test_zero_params_zero_output(self):
        cfg = RoutingConfig(input_dim=5, capsule_count=2, capsule_dim=3,
                            iterations=3)
        params = as_constant_params(
            [np.zeros((3, 5))] * 2, [np.zeros(3)] * 2)
        out = dmr(params, cfg, nm.constant(np.ones((4, 5))),
                  nm.constant(np.ones(5)))
        npt.assert_array_equal(out.array, np.zeros(6))

    def test_deterministic(self):
        rng = np.random.default_rng(3)
        cfg = RoutingConfig(input_dim=6, capsule_count=2, capsule_dim=3,
                            iterations=3)
        params = as_constant_params(*make_params(rng, cfg))
        mem = nm.constant(rng.normal(size=(5, 6)))
        q = nm.constant(rng.normal(size=6))
        a = dmr(params, cfg, mem, q).array
        b = dmr(params, cfg, mem, q).array
        npt.assert_array_equal(a, b)

    def test_memory_permutation_invariance_is_exact(self):
        rng = np.random.default_rng(4)
        cfg = RoutingConfig(input_dim=7, capsule_count=3, capsule_dim=4,
                            iterations=3)
        params = as_constant_params(*make_params(rng, cfg))
        mem = rng.normal(size=(6, 7))
        q = nm.constant(rng.normal(size=7))
        base = dmr(params, cfg, nm.constant(mem), q).array
        for _ in range(5):
            perm = rng.permutation(6)
            out = dmr(params, cfg, nm.constant(mem[perm]), q).array
            npt.assert_array_equal(out, base)

    def test_seed42_matches_straight_line_transcription(self):
        rng = np.random.default_rng(42)
        cfg = RoutingConfig(input_dim=3, capsule_count=1, capsule_dim=3,
                            iterations=1)
        ws, bs = make_params(rng, cfg)
        mem = rng.normal(size=(2, 3))
        q = rng.normal(size=3)
        got = dmr(as_constant_params(ws, bs), cfg, nm.constant(mem),
                  nm.constant(q)).array
        want = dmr_reference(ws, bs, mem, q, iterations=1)
        npt.assert_allclose(got, want, atol=1e-12, rtol=0)

    def test_errors(self):
        cfg = RoutingConfig(input_dim=4, capsule_count=2, capsule_dim=2,
                            iterations=1)
        rng = np.random.default_rng(0)
        params = as_constant_params(*make_params(rng, cfg))
        q = nm.constant(np.ones(4))
        with pytest.raises(ValueError):
            dmr(params, cfg, [], q)
        with pytest.raises(ValueError):  # rows must be stacked first
            dmr(params, cfg, [nm.constant(np.ones(4))] * 2, q)
        with pytest.raises(ValueError):
            dmr(params, cfg, nm.constant(np.ones((0, 4))), q)
        with pytest.raises(ValueError):
            dmr(params, cfg, nm.constant(np.ones((2, 5))), q)
        with pytest.raises(ValueError):
            dmr(params, cfg, nm.constant(np.ones((2, 4))),
                nm.constant(np.ones(5)))
        short = RoutingParams(ws=params.ws[:1], bs=params.bs[:1])
        with pytest.raises(ValueError):
            dmr(short, cfg, nm.constant(np.ones((2, 4))), q)


class TestOracleEquivalence:
    def test_100_random_instances_within_1e12(self):
        rng = np.random.default_rng(99)
        start = time.monotonic()
        for _ in range(100):
            n = int(rng.integers(1, 9))
            d_in = int(rng.integers(2, 17))
            l = int(rng.integers(1, 5))
            d_v = int(rng.integers(2, 7))
            r = int(rng.integers(1, 4))
            cfg = RoutingConfig(input_dim=d_in, capsule_count=l,
                                capsule_dim=d_v, iterations=r)
            ws, bs = make_params(rng, cfg)
            mem = rng.normal(size=(n, d_in))
            q = rng.normal(size=d_in)
            got = dmr(as_constant_params(ws, bs), cfg, nm.constant(mem),
                      nm.constant(q)).array
            want = dmr_reference(ws, bs, mem, q, iterations=r)
            npt.assert_allclose(got, want, atol=1e-12, rtol=0)
        assert time.monotonic() - start < 10.0


class TestTraceInvariants:
    def test_coupling_rows_sum_to_one_each_iteration(self):
        rng = np.random.default_rng(21)
        cfg = RoutingConfig(input_dim=8, capsule_count=4, capsule_dim=2,
                            iterations=3)
        params = as_constant_params(*make_params(rng, cfg))
        trace = RoutingTrace()
        dmr(params, cfg, nm.constant(rng.normal(size=(5, 8))),
            nm.constant(rng.normal(size=8)), trace=trace)
        assert len(trace.coupling) == 3
        for d in trace.coupling:
            assert d.shape == (5, 4)
            npt.assert_allclose(d.sum(axis=1), np.ones(5), atol=1e-12)

    def test_gates_in_open_interval_and_capsules_bounded(self):
        rng = np.random.default_rng(22)
        cfg = RoutingConfig(input_dim=6, capsule_count=2, capsule_dim=3,
                            iterations=3)
        for _ in range(20):
            params = as_constant_params(*make_params(rng, cfg, std=2.0))
            trace = RoutingTrace()
            dmr(params, cfg, nm.constant(rng.normal(size=(4, 6))),
                nm.constant(rng.normal(size=6)), trace=trace)
            for p in trace.gates:
                assert np.all(p > -1.0) and np.all(p < 1.0)
            norms = np.linalg.norm(trace.capsule_outputs, axis=1)
            assert np.all(norms < 1.0)


class TestDmmQim:
    def test_dmm_single_memory_row(self):
        rng = np.random.default_rng(31)
        cfg = RoutingConfig.for_pipeline(8, capsule_count=2, iterations=2)
        params = as_constant_params(*make_params(rng, cfg))
        out = dmm_adapt(params, cfg, nm.constant(rng.normal(size=(1, 8))),
                        nm.constant(rng.normal(size=8)))
        assert out.array.shape == (8,)
        assert np.all(np.isfinite(out.array))

    def test_dmm_purity(self):
        rng = np.random.default_rng(32)
        cfg = RoutingConfig.for_pipeline(12, capsule_count=3, iterations=3)
        params = as_constant_params(*make_params(rng, cfg))
        base = nm.constant(rng.normal(size=(6, 12)))
        s = nm.constant(rng.normal(size=12))
        npt.assert_array_equal(dmm_adapt(params, cfg, base, s).array,
                               dmm_adapt(params, cfg, base, s).array)

    def test_dmm_20_base_rows_matches_oracle(self):
        rng = np.random.default_rng(7)
        cfg = RoutingConfig.for_pipeline(32, capsule_count=4, iterations=3)
        ws, bs = make_params(rng, cfg)
        w_base = rng.normal(size=(20, 32))
        support = rng.normal(size=32)
        got = dmm_adapt(as_constant_params(ws, bs), cfg,
                        nm.constant(w_base), nm.constant(support)).array
        want = dmr_reference(ws, bs, w_base, support, iterations=3)
        npt.assert_allclose(got, want, atol=1e-12, rtol=0)

    def test_qim_one_shot(self):
        rng = np.random.default_rng(33)
        cfg = RoutingConfig.for_pipeline(8, capsule_count=2, iterations=3)
        params = as_constant_params(*make_params(rng, cfg))
        sup = nm.constant(rng.normal(size=(1, 8)))
        q = nm.constant(rng.normal(size=8))
        a = qim_induce(params, cfg, sup, q).array
        b = qim_induce(params, cfg, sup, q).array
        npt.assert_array_equal(a, b)
        assert np.all(np.isfinite(a))

    def test_qim_duplicate_supports_swap_invariant(self):
        rng = np.random.default_rng(34)
        cfg = RoutingConfig.for_pipeline(8, capsule_count=2, iterations=2)
        params = as_constant_params(*make_params(rng, cfg))
        s = rng.normal(size=8)
        q = nm.constant(rng.normal(size=8))
        sup = nm.constant(np.stack([s, s]))
        npt.assert_array_equal(qim_induce(params, cfg, sup, q).array,
                               qim_induce(params, cfg, sup, q).array)

    def test_qim_5shot_matches_oracle(self):
        rng = np.random.default_rng(11)
        cfg = RoutingConfig.for_pipeline(32, capsule_count=4, iterations=3)
        ws, bs = make_params(rng, cfg)
        supports = rng.normal(size=(5, 32))
        query = rng.normal(size=32)
        got = qim_induce(as_constant_params(ws, bs), cfg,
                         nm.constant(supports), nm.constant(query)).array
        want = dmr_reference(ws, bs, supports, query, iterations=3)
        npt.assert_allclose(got, want, atol=1e-12, rtol=0)

    def test_qim_differs_per_query(self):
        rng = np.random.default_rng(35)
        cfg = RoutingConfig.for_pipeline(16, capsule_count=4, iterations=2)
        params = as_constant_params(*make_params(rng, cfg))
        sup = nm.constant(rng.normal(size=(5, 16)))
        out1 = qim_induce(params, cfg, sup, nm.constant(rng.normal(size=16)))
        out2 = qim_induce(params, cfg, sup, nm.constant(rng.normal(size=16)))
        assert not np.allclose(out1.array, out2.array)


class TestGradients:
    def test_full_graph_matches_finite_differences(self):
        rng = np.random.default_rng(42)
        cfg = RoutingConfig(input_dim=8, capsule_count=2, capsule_dim=4,
                            iterations=3)
        arrays = {
            "memory": rng.normal(size=(3, 8)),
            "query": rng.normal(size=8),
        }
        for j in range(cfg.capsule_count):
            arrays[f"w_{j}"] = rng.normal(0.0, 0.5, (4, 8))
            arrays[f"b_{j}"] = rng.normal(0.0, 0.5, 4)
        probe = rng.normal(size=cfg.output_dim)

        def forward(tensors):
            params = params_from_tensors(tensors, "", cfg)
            out = dmr(params, cfg, tensors["memory"], tensors["query"])
            return nm.dot(out, nm.constant(probe))

        tape = nm.Tape()
        leaves = {k: tape.leaf(v) for k, v in arrays.items()}
        grads = nm.backward(tape, forward(leaves))
        analytic = {k: grads[t.node_id] for k, t in leaves.items()}
        numeric = finite_difference_gradients(
            lambda a: forward({k: nm.constant(v) for k, v in a.items()}).item(),
            arrays)
        assert_gradients_close(analytic, numeric)

    def test_init_helper_shapes(self):
        cfg = RoutingConfig.for_pipeline(16, capsule_count=4)
        arrays = init_routing_arrays(cfg, np.random.default_rng(0))
        assert set(arrays) == {f"{c}_{j}" for c in "wb" for j in range(4)}
        assert arrays["w_0"].shape == (4, 16)
        assert arrays["b_3"].shape == (4,)
