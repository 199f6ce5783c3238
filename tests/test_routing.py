import math
import time

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings, strategies as st

from dmin import numerics as nm
from dmin.routing import (MAX_CAPSULES, MAX_ITERATIONS,
                          MAX_TRANSFORM_ENTRIES, RoutingConfig, RoutingParams,
                          RoutingTrace, dmr, dmm_adapt, init_routing_arrays,
                          qim_induce)
from oracles import assert_gradients_close, dmr_reference, finite_difference_gradients


def make_params(rng, cfg, std=0.5):
    ws = [rng.normal(0.0, std, (cfg.capsule_dim, cfg.input_dim))
          for _ in range(cfg.capsule_count)]
    bs = [rng.normal(0.0, std, cfg.capsule_dim)
          for _ in range(cfg.capsule_count)]
    return ws, bs


def as_constant_params(ws, bs):
    return RoutingParams(w=nm.constant(np.concatenate(ws)),
                         b=nm.constant(np.concatenate(bs)))


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

    def test_iterations_are_bounded(self):
        assert RoutingConfig(input_dim=8,
                             iterations=MAX_ITERATIONS).iterations == 100
        with pytest.raises(ValueError, match=r"^iterations must be <= 100, "
                                             r"got 101$"):
            RoutingConfig(input_dim=8, iterations=MAX_ITERATIONS + 1)

    def test_capsule_count_is_bounded(self):
        # a checkpoint of 2**39 capsules would name 2**39 arrays
        assert RoutingConfig(input_dim=2, capsule_count=MAX_CAPSULES,
                             capsule_dim=2).capsule_count == 1024
        for count in (MAX_CAPSULES + 1, 2**39):
            with pytest.raises(ValueError, match=rf"^capsule_count must be "
                                                 rf"<= 1024, got {count}$"):
                RoutingConfig(input_dim=2**40, capsule_count=count,
                              capsule_dim=2)

    def test_transform_entries_are_bounded(self):
        # input_dim * capsule_count * capsule_dim entries of one transform
        assert MAX_TRANSFORM_ENTRIES == 2**26
        assert RoutingConfig(input_dim=2**13, capsule_count=4,
                             capsule_dim=2**11).output_dim == 2**13
        for dim, caps, cap_dim in ((2**13 + 1, 4, 2**11), (2**40, 4, 2),
                                   (1, 1, 2**26 + 1), (2**40, 4, 2**38)):
            entries = dim * caps * cap_dim
            with pytest.raises(ValueError, match=rf"^input_dim \* output_dim "
                                                 rf"must be <= 67108864, "
                                                 rf"got {entries}$"):
                RoutingConfig(input_dim=dim, capsule_count=caps,
                              capsule_dim=cap_dim)
        with pytest.raises(ValueError, match="got 1099511627776$"):
            RoutingConfig.for_pipeline(2**20)
        with pytest.raises(ValueError, match=rf"got {2**82}$"):  # no wrap
            RoutingConfig(input_dim=np.int64(2**40), capsule_count=4,
                          capsule_dim=np.int64(2**40))


def test_identity_blocks_need_equal_input_and_output_dims():
    cfg = RoutingConfig(input_dim=8, capsule_count=2, capsule_dim=3)
    with pytest.raises(ValueError, match="^identity_blocks needs output_dim "
                                         "== input_dim, got 6 != 8$"):
        init_routing_arrays(cfg, np.random.default_rng(0),
                            identity_blocks=True)
    arrays = init_routing_arrays(cfg, np.random.default_rng(0))
    assert arrays["w"].shape == (6, 8)


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
        short = RoutingParams(w=nm.constant(params.w.array[:2]),
                              b=nm.constant(params.b.array[:2]))
        with pytest.raises(ValueError):
            dmr(short, cfg, nm.constant(np.ones((2, 4))), q)

    def test_tape_nodes_do_not_depend_on_capsule_count(self):
        rng = np.random.default_rng(43)
        counts = set()
        for l in (1, 2, 4, 8):
            cfg = RoutingConfig(input_dim=8, capsule_count=l, capsule_dim=3,
                                iterations=3)
            tape = nm.Tape()
            leaves = {k: tape.leaf(v) for k, v in
                      init_routing_arrays(cfg, rng).items()}
            params = RoutingParams(**leaves)
            before = len(tape)
            dmr(params, cfg, nm.constant(rng.normal(size=(5, 8))),
                nm.constant(rng.normal(size=8)))
            counts.add(len(tape) - before)
        assert len(counts) == 1, counts

    def test_check_rejects_each_bad_shape(self):
        cfg = RoutingConfig(input_dim=4, capsule_count=2, capsule_dim=3)
        w, b = np.ones((6, 4)), np.ones(6)
        RoutingParams(w=nm.constant(w), b=nm.constant(b)).check(cfg)
        # a transposed map, unstacked capsule blocks, a short stack of
        # rows, and a bias of the wrong length or rank
        for bad_w, bad_b in ((w.T, b), (w.reshape(2, 3, 4), b),
                             (w[:3], b), (w, b[:3]), (w, b.reshape(2, 3))):
            with pytest.raises(ValueError, match=r"\(6, 4\) / \(6,\)"):
                RoutingParams(w=nm.constant(bad_w),
                              b=nm.constant(bad_b)).check(cfg)


def _new_nodes_unreached(tape, start, out):
    """Ids of nodes recorded from ``start`` on that ``out`` does not read."""
    reached, todo = set(), [out.node_id]
    while todo:
        k = todo.pop()
        if k is not None and k >= start and k not in reached:
            reached.add(k)
            todo.extend(tape.nodes[k].parent_ids)
    return set(range(start, len(tape))) - reached


class TestSharedTransforms:
    """One params object per forward pass shares transforms across calls;
    outputs must equal those of fresh params bit for bit."""

    def test_dmm_over_supports_matches_fresh_params(self):
        rng = np.random.default_rng(51)
        cfg = RoutingConfig.for_pipeline(16, capsule_count=4, iterations=3)
        ws, bs = make_params(rng, cfg)
        shared = as_constant_params(ws, bs)
        w_base = nm.constant(rng.normal(size=(10, 16)))
        for _ in range(6):
            s = nm.constant(rng.normal(size=16))
            npt.assert_array_equal(
                dmm_adapt(shared, cfg, w_base, s).array,
                dmm_adapt(as_constant_params(ws, bs), cfg, w_base, s).array)

    def test_qim_over_queries_and_stacks_matches_fresh_params(self):
        rng = np.random.default_rng(52)
        cfg = RoutingConfig.for_pipeline(16, capsule_count=4, iterations=3)
        ws, bs = make_params(rng, cfg)
        shared = as_constant_params(ws, bs)
        stacks = [nm.constant(rng.normal(size=(k, 16))) for k in (1, 2, 5)]
        for _ in range(4):
            q = nm.constant(rng.normal(size=16))
            for stk in stacks:
                npt.assert_array_equal(
                    qim_induce(shared, cfg, stk, q).array,
                    qim_induce(as_constant_params(ws, bs), cfg, stk,
                               q).array)

    def test_dmr_records_no_node_its_output_does_not_read(self):
        rng = np.random.default_rng(53)
        for r in (1, 2, 3):
            cfg = RoutingConfig(input_dim=8, capsule_count=2, capsule_dim=4,
                                iterations=r)
            tape = nm.Tape()
            leaves = {k: tape.leaf(v) for k, v in
                      init_routing_arrays(cfg, rng).items()}
            params = RoutingParams(**leaves)
            memory = tape.leaf(rng.normal(size=(3, 8)))
            query = tape.leaf(rng.normal(size=8))
            start = len(tape)
            out = dmr(params, cfg, memory, query)
            assert _new_nodes_unreached(tape, start, out) == set(), r

    def test_second_call_with_the_same_memory_records_3_fewer_nodes(self):
        rng = np.random.default_rng(54)
        cfg = RoutingConfig(input_dim=8, capsule_count=2, capsule_dim=4,
                            iterations=3)
        tape = nm.Tape()
        leaves = {k: tape.leaf(v) for k, v in
                  init_routing_arrays(cfg, rng).items()}
        params = RoutingParams(**leaves)
        memory = nm.constant(rng.normal(size=(5, 8)))
        counts = []
        for _ in range(3):
            before = len(tape)
            dmr(params, cfg, memory, nm.constant(rng.normal(size=8)))
            counts.append(len(tape) - before)
        # linear, reshape and squash of the memory are recorded once
        assert counts[0] - counts[1] == 3 and counts[1] == counts[2]

    def test_a_call_on_transformed_inputs_records_one_node(self):
        rng = np.random.default_rng(58)
        for r in (1, 3):
            cfg = RoutingConfig(input_dim=8, capsule_count=2, capsule_dim=4,
                                iterations=r)
            tape = nm.Tape()
            leaves = {k: tape.leaf(v) for k, v in
                      init_routing_arrays(cfg, rng).items()}
            params = RoutingParams(**leaves)
            memory = tape.leaf(rng.normal(size=(5, 8)))
            query = tape.leaf(rng.normal(size=8))
            params.transform(cfg, memory)
            params.transform(cfg, query)
            before = len(tape)
            out = dmr(params, cfg, memory, query)
            assert len(tape) - before == 1, r
            assert tape.nodes[out.node_id].op == "route"

    def test_configs_of_equal_output_dim_keep_their_own_transforms(self):
        rng = np.random.default_rng(55)
        cfg_a = RoutingConfig(input_dim=8, capsule_count=2, capsule_dim=4)
        cfg_b = RoutingConfig(input_dim=8, capsule_count=4, capsule_dim=2)
        w, b = rng.normal(0.0, 0.5, (8, 8)), rng.normal(0.0, 0.5, 8)

        def fresh():
            return RoutingParams(w=nm.constant(w), b=nm.constant(b))

        shared = fresh()
        memory = nm.constant(rng.normal(size=(4, 8)))
        query = nm.constant(rng.normal(size=8))
        for cfg in (cfg_a, cfg_b, cfg_a):
            npt.assert_array_equal(dmr(shared, cfg, memory, query).array,
                                   dmr(fresh(), cfg, memory, query).array)

    def test_params_compare_and_print_without_the_memo(self):
        rng = np.random.default_rng(56)
        cfg = RoutingConfig(input_dim=4, capsule_count=2, capsule_dim=2)
        params = as_constant_params(*make_params(rng, cfg))
        before = repr(params)
        dmr(params, cfg, nm.constant(np.ones((2, 4))), nm.constant(np.ones(4)))
        assert repr(params) == before
        assert params == RoutingParams(w=params.w, b=params.b)

    def test_vecmat_of_one_or_two_rows_equals_fsum(self):
        rng = np.random.default_rng(57)
        for _ in range(2000):
            n, k = int(rng.integers(1, 3)), int(rng.integers(1, 5))
            w = rng.normal(size=(n, 3))
            m = rng.normal(size=(n, 3, k)) * 10.0 ** rng.integers(
                -200, 200, size=(n, 3, k))
            m[rng.random(m.shape) < 0.2] = 0.0
            m[rng.random(m.shape) < 0.2] = -0.0
            w[rng.random(w.shape) < 0.2] *= -1.0
            got = nm.vecmat(nm.constant(w), nm.constant(m)).array
            prods = (w[..., None] * m).reshape(n, -1)
            want = np.array([math.fsum(c) for c in prods.T.tolist()])
            npt.assert_array_equal(got.view(np.int64).reshape(-1),
                                   want.view(np.int64))


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 5), d_in=st.integers(2, 9), l=st.integers(1, 3),
       d_v=st.integers(2, 4), r=st.integers(1, 3),
       pairs=st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2)),
                      min_size=1, max_size=6),
       seed=st.integers(0, 2**32 - 1))
def test_shared_params_match_fresh_params(n, d_in, l, d_v, r, pairs, seed):
    """Over (memory, query) pairs that repeat memories and queries, one
    shared params object gives fresh params' outputs bit for bit, and its
    gradients to 1e-12: shared nodes change only the order in which
    adjoints are summed."""
    rng = np.random.default_rng(seed)
    cfg = RoutingConfig(input_dim=d_in, capsule_count=l, capsule_dim=d_v,
                        iterations=r)
    w = rng.normal(0.0, 0.5, (l * d_v, d_in))
    b = rng.normal(0.0, 0.5, l * d_v)
    memories = [rng.normal(size=(n, d_in)) for _ in range(3)]
    queries = [rng.normal(size=d_in) for _ in range(3)]
    probes = [rng.normal(size=l * d_v) for _ in pairs]

    def run(shared):
        tape = nm.Tape()
        wt, bt = tape.leaf(w), tape.leaf(b)
        mems = [tape.leaf(m) for m in memories]
        qs = [tape.leaf(q) for q in queries]
        params = RoutingParams(w=wt, b=bt)
        outs, loss = [], None
        for (i, j), probe in zip(pairs, probes):
            if not shared:
                params = RoutingParams(w=wt, b=bt)
            out = dmr(params, cfg, mems[i], qs[j])
            outs.append(out.array)
            term = nm.dot(out, nm.constant(probe))
            loss = term if loss is None else nm.add(loss, term)
        grads = nm.backward(tape, loss)
        return outs, [grads[t.node_id] for t in [wt, bt] + mems + qs]

    outs_s, grads_s = run(shared=True)
    outs_f, grads_f = run(shared=False)
    for a, c in zip(outs_s, outs_f):
        npt.assert_array_equal(a, c)
    for a, c in zip(grads_s, grads_f):
        npt.assert_allclose(a, c, rtol=0, atol=1e-12)


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


    def test_a_trace_is_refused_where_routes_are_deferred(self):
        rng = np.random.default_rng(24)
        cfg = RoutingConfig(input_dim=6, capsule_count=2, capsule_dim=3)
        params = as_constant_params(*make_params(rng, cfg))
        memory = nm.constant(rng.normal(size=(4, 6)))
        query = nm.constant(rng.normal(size=6))
        trace = RoutingTrace()
        with nm._deferred_routes():
            with pytest.raises(ValueError, match="^dmr: a RoutingTrace "
                                                 "cannot be filled inside a "
                                                 "deferred-routes scope$"):
                dmr(params, cfg, memory, query, trace=trace)
        assert trace == RoutingTrace()
        dmr(params, cfg, memory, query, trace=trace)
        assert len(trace.gates) == cfg.iterations

    def test_trace_holds_what_each_iteration_mixed_with(self):
        rng = np.random.default_rng(23)
        cfg = RoutingConfig(input_dim=6, capsule_count=2, capsule_dim=3,
                            iterations=3)
        params = as_constant_params(*make_params(rng, cfg))
        memory = nm.constant(rng.normal(size=(4, 6)))
        query = nm.constant(rng.normal(size=6))
        trace = RoutingTrace()
        dmr(params, cfg, memory, query, trace=trace)
        mhat = params.transform(cfg, memory)
        qhat = params.transform(cfg, query)
        npt.assert_array_equal(trace.gates[0],
                               nm.tanh(nm.pccs(mhat, qhat)).array)
        npt.assert_array_equal(trace.coupling[0], np.full((4, 2), 0.5))
        npt.assert_array_equal(
            trace.coupling[-1], nm.softmax(nm.constant(trace.logits)).array)
        last = nm.add(nm.constant(trace.coupling[-1]),
                      nm.constant(trace.gates[-1]))
        npt.assert_array_equal(trace.capsule_outputs,
                               nm.squash(nm.vecmat(last, mhat)).array)

    @pytest.mark.parametrize("memory,query", [((5, 6), (6,)),
                                              ((3, 4, 6), (2, 1, 6))])
    def test_first_round_coupling_is_one_over_l(self, memory, query):
        """Round 1 mixes with the softmax of zero logits: 1/l everywhere,
        kept as a (..., n, l) array for a single pair and a batch alike."""
        rng = np.random.default_rng(24)
        for count in (1, 2, 3):
            cfg = RoutingConfig(input_dim=6, capsule_count=count,
                                capsule_dim=2, iterations=2)
            params = as_constant_params(*make_params(rng, cfg))
            trace = RoutingTrace()
            dmr(params, cfg, nm.constant(rng.normal(size=memory)),
                nm.constant(rng.normal(size=query)), trace=trace)
            lead = np.broadcast_shapes(memory[:-2], query[:-1])
            first = trace.coupling[0]
            assert type(first) is np.ndarray
            assert first.shape == lead + (memory[-2], count)
            npt.assert_array_equal(first, np.full(first.shape, 1.0 / count))


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
        ws, bs = [], []
        for j in range(cfg.capsule_count):
            ws.append(rng.normal(0.0, 0.5, (4, 8)))
            bs.append(rng.normal(0.0, 0.5, 4))
        arrays.update(w=np.concatenate(ws), b=np.concatenate(bs))
        probe = rng.normal(size=cfg.output_dim)

        def forward(tensors):
            params = RoutingParams(w=tensors["w"], b=tensors["b"])
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
        assert set(arrays) == {"w", "b"}
        assert arrays["w"].shape == (16, 16)
        assert arrays["b"].shape == (16,)
        # capsule by capsule: W_j's draw, then b_j's, into rows 4j..4j+3
        rng = np.random.default_rng(0)
        for j in range(4):
            rows = slice(4 * j, 4 * j + 4)
            npt.assert_array_equal(arrays["w"][rows],
                                   rng.normal(0.0, 0.1, (4, 16)))
            npt.assert_array_equal(arrays["b"][rows], rng.normal(0.0, 0.1, 4))
