import gc
import math
import weakref

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import example, given, settings, strategies as st

from dmin import numerics as nm
from oracles import (assert_gradients_close, backward_reference,
                     finite_difference_gradients)


def c(x):
    return nm.constant(x)


class TestBasicOps:
    def test_matvec_identity(self):
        npt.assert_array_equal(nm.linear(c([1.0, 2.0, 3.0]), c(np.eye(3))).array,
                               [1.0, 2.0, 3.0])

    def test_matvec_zero(self):
        npt.assert_array_equal(nm.linear(c([4.0, 5.0, 6.0]), c(np.zeros((2, 3)))).array,
                               [0.0, 0.0])

    def test_matvec_direct(self):
        npt.assert_allclose(nm.linear(c([1.0, 1.0]), c([[1.0, 2.0], [3.0, 4.0]])).array,
                            [3.0, 7.0])
        npt.assert_allclose(
            nm.linear(c([[1.0, 1.0], [0.0, 2.0]]), c([[1.0, 2.0], [3.0, 4.0]]),
                      c([0.5, -1.0])).array,
            [[3.5, 6.0], [4.5, 7.0]])

    def test_matvec_shape_mismatch(self):
        with pytest.raises(ValueError):
            nm.linear(c([1.0, 2.0]), c(np.eye(3)))
        with pytest.raises(ValueError):
            nm.linear(c([1.0, 2.0, 3.0]), c(np.eye(3)), c([1.0, 2.0]))

    def test_squash_zero(self):
        npt.assert_array_equal(nm.squash(c([0.0, 0.0, 0.0])).array, np.zeros(3))

    def test_squash_unit(self):
        u = np.array([1.0, 0.0])
        npt.assert_allclose(nm.squash(c(u)).array, 0.5 * u, atol=1e-15)

    def test_squash_direct(self):
        npt.assert_allclose(nm.squash(c([3.0, 4.0])).array, [15.0 / 26.0, 20.0 / 26.0],
                            atol=1e-15)

    def test_softmax_symmetry(self):
        npt.assert_allclose(nm.softmax(c([0.0, 0.0])).array, [0.5, 0.5])
        npt.assert_allclose(nm.softmax(c([7.0] * 4)).array, [0.25] * 4)

    def test_softmax_analytic(self):
        npt.assert_allclose(nm.softmax(c([math.log(1.0), math.log(3.0)])).array,
                            [0.25, 0.75], atol=1e-15)

    def test_pccs_affine_relations(self):
        assert nm.pccs(c([1.0, 2.0, 3.0]), c([2.0, 4.0, 6.0])).item() == pytest.approx(1.0)
        assert nm.pccs(c([1.0, 2.0, 3.0]), c([3.0, 2.0, 1.0])).item() == pytest.approx(-1.0)

    def test_pccs_zero_variance(self):
        assert nm.pccs(c([5.0, 5.0, 5.0]), c([1.0, 2.0, 3.0])).item() == 0.0

    def test_pccs_needs_two_samples(self):
        with pytest.raises(ValueError):
            nm.pccs(c([1.0]), c([2.0]))

    def test_cosine_cases(self):
        assert nm.cosine(c([1.0, 0.0]), c([1.0, 0.0])).item() == pytest.approx(1.0)
        assert nm.cosine(c([1.0, 0.0]), c([0.0, 1.0])).item() == 0.0
        assert nm.cosine(c([1.0, 1.0]), c([-1.0, -1.0])).item() == pytest.approx(-1.0)

    def test_cosine_zero_vector_guard(self):
        assert nm.cosine(c([0.0, 0.0]), c([1.0, 2.0])).item() == 0.0

    def test_finite_enforcement(self):
        with pytest.raises(nm.NumericError):
            nm.exp(c([1000.0]))
        with pytest.raises(nm.NumericError):
            nm.constant([np.nan])


class TestTape:
    def test_square_gradient(self):
        tape = nm.Tape()
        x = tape.leaf([3.0])
        y = nm.dot(x, x)
        grads = nm.backward(tape, y)
        npt.assert_allclose(grads[x.node_id], [6.0])

    def test_softmax_gradient_analytic(self):
        tape = nm.Tape()
        x = tape.leaf([0.0, 0.0])
        y = nm.dot(nm.softmax(x), c([1.0, 0.0]))
        grads = nm.backward(tape, y)
        npt.assert_allclose(grads[x.node_id], [0.25, -0.25])

    def test_topological_order(self):
        tape = nm.Tape()
        x = tape.leaf([1.0, 2.0])
        y = nm.tanh(nm.squash(x))
        z = nm.dot(y, y)
        for k, node in enumerate(tape.nodes):
            for pid in node.parent_ids:
                assert pid is None or pid < k
        assert z.node_id == len(tape.nodes) - 1

    def test_root_must_be_scalar(self):
        tape = nm.Tape()
        x = tape.leaf([1.0, 2.0])
        with pytest.raises(ValueError):
            nm.backward(tape, nm.tanh(x))

    def test_root_must_be_recorded(self):
        tape = nm.Tape()
        tape.leaf([1.0])
        with pytest.raises(ValueError):
            nm.backward(tape, nm.dot(c([1.0]), c([1.0])))

    def test_unreached_leaf_gets_zero_gradient(self):
        tape = nm.Tape()
        x = tape.leaf([1.0, 2.0])
        unused = tape.leaf([[3.0, 4.0]])
        grads = nm.backward(tape, nm.dot(x, x))
        npt.assert_array_equal(grads[unused.node_id], np.zeros((1, 2)))

    def test_mixing_tapes_is_an_error(self):
        t1, t2 = nm.Tape(), nm.Tape()
        with pytest.raises(ValueError):
            nm.add(t1.leaf([1.0]), t2.leaf([2.0]))

    def test_constant_inputs_do_not_record(self):
        out = nm.add(c([1.0]), c([2.0]))
        assert out.tape is None and out.node_id is None


class TestInvariants:
    def test_squash_norm_bounded_and_monotone(self):
        rng = np.random.default_rng(11)
        for _ in range(300):
            d = int(rng.integers(1, 9))
            x = rng.uniform(-50.0, 50.0, d)
            n1 = np.linalg.norm(nm.squash(c(x)).array)
            n2 = np.linalg.norm(nm.squash(c(1.5 * x)).array)
            assert n1 < 1.0
            if np.linalg.norm(x) > 1e-6:
                assert n2 > n1

    def test_softmax_sum_and_shift_invariance(self):
        rng = np.random.default_rng(12)
        for _ in range(300):
            x = rng.normal(0.0, 5.0, int(rng.integers(1, 9)))
            y = nm.softmax(c(x)).array
            assert abs(y.sum() - 1.0) <= 1e-12
            shifted = nm.softmax(c(x + rng.normal(0.0, 10.0))).array
            npt.assert_allclose(y, shifted, atol=1e-12)

    def test_pccs_symmetry_range_affine(self):
        rng = np.random.default_rng(13)
        for _ in range(300):
            d = int(rng.integers(2, 10))
            a = rng.normal(0.0, 2.0, d)
            b = rng.normal(0.0, 2.0, d)
            r = nm.pccs(c(a), c(b)).item()
            assert -1.0 <= r <= 1.0
            assert r == pytest.approx(nm.pccs(c(b), c(a)).item(), abs=1e-12)
            lam = float(rng.uniform(0.1, 4.0))
            mu = float(rng.normal(0.0, 3.0))
            assert r == pytest.approx(nm.pccs(c(lam * a + mu), c(b)).item(), abs=1e-9)

    def test_cosine_bounds_and_self_similarity(self):
        rng = np.random.default_rng(14)
        for _ in range(300):
            d = int(rng.integers(1, 10))
            a = rng.normal(0.0, 3.0, d)
            b = rng.normal(0.0, 3.0, d)
            assert abs(nm.cosine(c(a), c(b)).item()) <= 1.0
            if np.linalg.norm(a) > 1e-9:
                assert nm.cosine(c(a), c(a)).item() == pytest.approx(1.0, abs=1e-12)
            lam = float(rng.uniform(0.1, 5.0))
            assert nm.cosine(c(lam * a), c(b)).item() == pytest.approx(
                nm.cosine(c(a), c(b)).item(), abs=1e-12)


@settings(max_examples=200, deadline=None)
@given(n=st.integers(3, 20), lead=st.integers(1, 3), d=st.integers(1, 5),
       values=st.sampled_from(["normal", "ties", "wide"]),
       zero_column=st.booleans(), seed=st.integers(0, 2**32 - 1),
       data=st.data())
def test_vecmat_is_order_fixed_and_close_to_fsum(n, lead, d, values,
                                                 zero_column, seed, data):
    """With 3+ rows the mix is bit-identical under any joint permutation
    of the rows of ``w`` and ``m``, and within ``n * 2**-53 * sum|prods|``
    of the exactly rounded sum, ties and signed zeros included."""
    rng = np.random.default_rng(seed)
    shape = (n, lead, d)
    if values == "ties":
        w = rng.choice([-1.0, 0.5, 1.0], size=shape[:2])
        m = rng.choice([-1.5, -0.25, 0.25, 2.0], size=shape)
    else:
        w = rng.normal(size=shape[:2])
        m = rng.normal(size=shape)
        if values == "wide":
            m *= 10.0 ** rng.integers(-30, 30, size=shape)
    m[rng.random(shape) < 0.15] = 0.0
    m[rng.random(shape) < 0.15] = -0.0
    if zero_column:
        m[..., int(rng.integers(d))] = rng.choice([0.0, -0.0], size=shape[:2])
    perm = np.array(data.draw(st.permutations(range(n))))
    got = nm.vecmat(c(w), c(m)).array
    permuted = nm.vecmat(c(w[perm]), c(m[perm])).array
    npt.assert_array_equal(got.view(np.int64), permuted.view(np.int64))
    prods = (w[..., None] * m).reshape(n, -1)
    exact = np.array([math.fsum(col) for col in prods.T.tolist()])
    bound = n * 2.0**-53 * np.abs(prods).sum(axis=0)
    assert np.all(np.abs(got.reshape(-1) - exact) <= bound)


@settings(max_examples=60, deadline=None)
@given(batch=st.integers(1, 4), n=st.integers(1, 6), lead=st.integers(1, 3),
       d=st.integers(1, 5), seed=st.integers(0, 2**32 - 1))
def test_batched_vecmat_gives_each_entry_its_own_bits(batch, n, lead, d,
                                                      seed):
    """Entry b of a ``batch=1`` vecmat, and its gradients, have the bytes
    of ``vecmat(w[b], m[b])``: each entry adds its rows in its own order."""
    rng = np.random.default_rng(seed)
    w = rng.normal(size=(batch, n, lead))
    m = rng.normal(size=(batch, n, lead, d))
    probe = rng.normal(size=(batch, lead, d))

    def run(wa, ma, pa, **kwargs):
        tape = nm.Tape()
        wt, mt = tape.leaf(wa), tape.leaf(ma)
        out = nm.vecmat(wt, mt, **kwargs)
        grads = nm.backward(tape, nm.dot(nm.reshape(out, (out.array.size,)),
                                         c(pa.reshape(-1))))
        return out.array, grads[wt.node_id], grads[mt.node_id]

    got = run(w, m, probe, batch=1)
    for b in range(batch):
        for x, want in zip(got, run(w[b], m[b], probe[b])):
            assert x[b].tobytes() == want.tobytes()
    with pytest.raises(ValueError, match="vecmat: shape mismatch"):
        nm.vecmat(c(w[0, :, 0]), c(m[0, :, 0]), batch=1)


def test_cross_entropy_value_and_argument_checks():
    rng = np.random.default_rng(9)
    m = rng.normal(0.0, 4.0, (5, 3))
    labels, weights = np.array([0, 2, 1, 1, 0]), rng.uniform(0.1, 1.0, 5)
    lse = np.log(np.exp(m).sum(axis=1))
    want = math.fsum(weights * (lse - m[np.arange(5), labels]))
    got = nm.cross_entropy(c(m), labels, weights).item()
    assert got == pytest.approx(want, abs=1e-14)
    perm = rng.permutation(5)
    assert nm.cross_entropy(c(m[perm]), labels[perm],
                            weights[perm]).item() == got
    # a margin whose softmax underflows still gives a finite loss
    assert nm.cross_entropy(c([-900.0, 0.0]), 0, 1.0).item() == 900.0
    for bad_labels, bad_weights in (([0, 2, 1, 1, 3], weights),
                                    ([0, 2, 1, 1, -1], weights),
                                    ([0.0, 2.0, 1.0, 1.0, 0.0], weights),
                                    ([True] * 5, weights),
                                    (labels[:4], weights),
                                    (labels, weights[:4])):
        with pytest.raises(ValueError):
            nm.cross_entropy(c(m), bad_labels, bad_weights)


@settings(max_examples=150, deadline=None)
@given(rows=st.integers(1, 6), cols=st.integers(1, 40),
       uses=st.lists(st.sampled_from(["sparse", "dense", "self_add",
                                      "add_other"]), min_size=1, max_size=6),
       seed=st.integers(0, 2**32 - 1))
def test_embed_equals_linear_of_the_dense_row(rows, cols, uses, seed):
    """Forward within the summation-order bound, and weight gradients
    equal entry for entry, whatever the order of the column-block and
    dense contributions and whether an ``add`` aliases the adjoints.

    Each use of ``w`` is ``embed`` in one tape and ``linear`` of the same
    row written out densely in the other: ``sparse`` reads ``w``,
    ``self_add`` reads ``add(w, w)`` and ``add_other`` reads ``add(w, u)``,
    whose VJP hands ``w`` and ``u`` one array.  ``dense`` is an ordinary
    ``linear`` of ``w`` in both tapes.  The dense tape multiplies each
    ``linear`` by the constant ``1 - y*y`` of the embed's own output
    ``y``, so its adjoint is the one embed's tanh hands its product."""
    rng = np.random.default_rng(seed)
    w, u = rng.normal(size=(rows, cols)), rng.normal(size=(rows, cols))
    args = []
    for _ in uses:
        ids = np.sort(rng.choice(cols, int(rng.integers(0, min(cols, 12) + 1)),
                                 replace=False))
        vals = rng.uniform(-2.0, 2.0, len(ids))
        dense = np.zeros(cols)
        dense[ids] = vals
        args.append((ids, vals, dense, rng.normal(size=cols)))
    probe = rng.normal(size=len(uses) * rows)

    def run(ys):
        """The sparse tape when ``ys`` is None, else the dense one."""
        tape = nm.Tape()
        wt, ut = tape.leaf(w), tape.leaf(u)
        outs, pres = [], []
        for i, (use, (ids, vals, dense, x)) in enumerate(zip(uses, args)):
            if use == "dense":
                outs.append(nm.linear(c(x), wt))
                pres.append(outs[-1].array)
                continue
            src = {"sparse": wt, "self_add": nm.add(wt, wt),
                   "add_other": nm.add(wt, ut)}[use]
            if ys is None:
                outs.append(nm.embed(src, ids, vals))
                continue
            pre = nm.linear(c(dense), src)
            pres.append(pre.array)
            outs.append(nm.mul(pre, c(1.0 - ys[i] * ys[i])))
        flat = nm.reshape(nm.stack_rows(outs), (len(uses) * rows,))
        grads = nm.backward(tape, nm.dot(flat, c(probe)))
        return [o.array for o in outs], pres, grads[wt.node_id], \
            grads[ut.node_id]

    got, _, gw, gu = run(None)
    _, want, dw, du = run(got)
    npt.assert_array_equal(gw, dw)
    npt.assert_array_equal(gu, du)
    srcs = {"dense": w, "sparse": w, "self_add": w + w, "add_other": w + u}
    for i, (use, (ids, vals, dense, _)) in enumerate(zip(uses, args)):
        if use == "dense":
            npt.assert_array_equal(got[i], want[i])
            continue
        # the product as embed forms it, then its tanh, bit for bit
        npt.assert_array_equal(
            got[i], np.tanh(srcs[use].take(ids, axis=1) @ vals))
        # each side rounds a sum of len(ids) products, in its own order;
        # tanh is 1-Lipschitz, and each side's tanh adds its own error
        bound = max(len(ids), 1) * 2.0**-52 \
            * (np.abs(srcs[use]) @ np.abs(dense)) + 2.0**-51
        assert np.all(np.abs(got[i] - np.tanh(want[i])) <= bound)


def test_embed_checks_its_arguments():
    w = c(np.arange(12.0).reshape(3, 4))
    npt.assert_array_equal(nm.embed(w, [1, 3], [2.0, -1.0]).array,
                           np.tanh([-1.0, 3.0, 7.0]))
    npt.assert_array_equal(nm.embed(w, np.array([], int), []).array,
                           np.zeros(3))
    for ids, vals in (([1, 4], [1.0, 1.0]),  # out of range
                      ([-1, 2], [1.0, 1.0]),
                      ([2, 2], [1.0, 1.0]),  # duplicate
                      ([3, 1], [1.0, 1.0]),  # unsorted
                      ([1, 3], [1.0]),  # length mismatch
                      ([1.0, 3.0], [1.0, 1.0]),  # not integers
                      ([[1, 3]], [[1.0, 1.0]])):  # not 1-D
        with pytest.raises(ValueError):
            nm.embed(w, ids, vals)
    with pytest.raises(ValueError):
        nm.embed(c(np.ones(4)), [1], [1.0])


@pytest.mark.parametrize("dtype", [np.uint64, np.uint32, np.int32])
def test_embed_gradient_is_the_same_for_every_integer_id_type(dtype):
    # ids of any integer type give the bits of int64 ids: a uint64 id plus
    # backward's int64 row offsets would be a float64 index
    start = np.random.default_rng(40).normal(size=(2, 5))
    grads = []
    for ids in (np.array([1, 3], np.int64), np.array([1, 3], dtype)):
        tape = nm.Tape()
        w = tape.leaf(start.copy())
        y = nm.embed(w, ids, [1.0, 2.0])
        grads.append(nm.backward(tape, nm.dot(y, c([0.5, -1.5])))[w.node_id])
    assert grads[1].tobytes() == grads[0].tobytes()
    assert grads[0][:, [1, 3]].all() and not grads[0][:, [0, 2, 4]].any()


@pytest.mark.parametrize("vals", [[1.0, 1.0], [-1.0, -1.0], [1.0, np.nan]])
def test_embed_refuses_a_product_that_is_not_finite(vals):
    # 1e308 + 1e308 overflows to +-inf, which tanh would turn into +-1;
    # the leaf's own check overflows its sum too, before confirming
    tape = nm.Tape()
    with np.errstate(over="ignore", invalid="ignore"):
        w = tape.leaf(np.array([[1e308, 1e308], [0.0, 0.0]]))
        with pytest.raises(nm.NumericError, match="embed"):
            nm.embed(w, [0, 1], vals)
    assert len(tape) == 1  # nothing recorded


@pytest.mark.parametrize("seed", range(4))
def test_column_blocks_add_as_one_block_at_a_time(seed):
    """Leaf gradients equal, bit for bit and sign of zero included, those
    of adding each column block into its adjoint as it arrives.

    ``w`` gets many blocks whose ids repeat across blocks, with dense
    contributions between them.  ``add(v, v)``, a non-leaf, gets blocks
    and dense contributions of its own.  ``w``'s last dense use, the first
    that backward visits, leaves -0.0 in columns 1 and 2; two blocks then
    add -0.0 twice to column 1 and cancel to +0.0 in column 4, and no
    other use moves those zeros off their sign."""
    rng = np.random.default_rng(seed)
    rows, cols = 3, 8
    tape = nm.Tape()
    w, v = (tape.leaf(rng.normal(size=(rows, cols))) for _ in range(2))
    vv = nm.add(v, v)

    def dense():
        x = rng.normal(size=cols)
        x[[1, 2, 4]] = -0.0, -0.0, 0.0
        return x

    def block(cols_from):
        return (np.sort(rng.choice(cols_from, 4, replace=False)),
                rng.uniform(-2.0, 2.0, 4))

    free = [0, 3, 5, 6, 7]  # the columns whose zeros are not checked
    outs = [nm.linear(c(dense()), vv) if i % 3 == 2
            else nm.embed(vv, *block(cols)) for i in range(7)]
    outs += [nm.linear(c(dense()), w) if i % 3 == 2
             else nm.embed(w, *block(free)) for i in range(10)]
    outs += [nm.embed(w, [1, 4], [-0.0, 0.75]),
             nm.embed(w, [1, 4], [-0.0, -0.75]), nm.linear(c(dense()), w)]
    # a positive adjoint for every output keeps each product's zero sign;
    # the two signed-zero blocks get one adjoint, so their entries cancel
    probe = rng.uniform(0.5, 1.5, (len(outs), rows))
    probe[-2] = probe[-3]
    root = nm.dot(nm.reshape(nm.stack_rows(outs), (probe.size,)),
                  c(probe.reshape(-1)))
    want = backward_reference(tape.nodes, root.node_id)
    got = nm.backward(tape, root)
    assert sorted(got) == sorted(want) == [w.node_id, v.node_id]
    for k in got:
        assert got[k].shape == want[k].shape
        assert got[k].tobytes() == want[k].tobytes()
    gw = want[w.node_id]
    assert np.all(gw[:, [1, 2, 4]] == 0.0)
    assert np.all(np.signbit(gw[:, [1, 2]])) and not np.any(
        np.signbit(gw[:, 4]))


# ---------------------------------------------------------------------------
# finite-difference check of every differentiable op
# ---------------------------------------------------------------------------

def _probe(out, rng):
    """Reduce an op output to a scalar with a fixed random linear probe."""
    if out.ndim == 0:
        return out
    w = rng.normal(0.0, 1.0, out.shape)
    flat = (out.array.size,)
    return nm.dot(nm.reshape(out, flat), nm.constant(w.reshape(flat)))


def _op_cases(rng):
    d = int(rng.integers(2, 6))
    n = int(rng.integers(1, 5))
    m = int(rng.integers(2, 5))
    vec = lambda k: rng.normal(0.0, 2.0, k)
    mat = lambda r, cdim: rng.normal(0.0, 2.0, (r, cdim))
    cube = lambda r: rng.normal(0.0, 2.0, (r, m, d))
    # "op/variant" names a further case of the same op
    return [
        ("add", {"a": vec(d), "b": vec(d)}, lambda t: nm.add(t["a"], t["b"])),
        # a leading axis missing from a, and length-1 axes in both
        ("add/broadcast", {"a": mat(n, 1), "b": rng.normal(0.0, 2.0, (m, 1, d))},
         lambda t: nm.add(t["a"], t["b"])),
        ("mul", {"a": vec(d), "b": vec(d)}, lambda t: nm.mul(t["a"], t["b"])),
        ("mul/scalar", {"a": np.array(rng.normal()), "b": vec(d)},
         lambda t: nm.mul(t["a"], t["b"])),
        ("mul/broadcast", {"a": mat(n, 1), "b": vec(d)},
         lambda t: nm.mul(t["a"], t["b"])),
        ("linear", {"x": vec(d), "w": mat(m, d)}, lambda t: nm.linear(t["x"], t["w"])),
        ("linear/bias", {"x": vec(d), "w": mat(m, d), "b": vec(m)},
         lambda t: nm.linear(t["x"], t["w"], t["b"])),
        ("linear/rows", {"x": mat(n, d), "w": mat(m, d), "b": vec(m)},
         lambda t: nm.linear(t["x"], t["w"], t["b"])),
        # scaled, like route's, so that tanh does not saturate
        ("embed", {"w": 0.3 * mat(m, d)},
         lambda t, ids=np.sort(rng.choice(d, 2, replace=False)),
         vals=rng.normal(0.0, 1.0, 2): nm.embed(t["w"], ids, vals)),
        # the dense adjoint of linear reaches w first, so backward copies
        # it before adding embed's column block
        ("embed/shared", {"x": vec(d), "w": 0.3 * mat(m, d)},
         lambda t, ids=np.arange(0, d, 2),
         vals=rng.normal(0.0, 1.0, (d + 1) // 2):
         nm.add(nm.embed(t["w"], ids, vals), nm.linear(t["x"], t["w"]))),
        ("vecmat", {"w": vec(n), "m": mat(n, d)}, lambda t: nm.vecmat(t["w"], t["m"])),
        ("vecmat/lead", {"w": mat(n, m), "m": cube(n)},
         lambda t: nm.vecmat(t["w"], t["m"])),
        ("tanh", {"a": vec(d)}, lambda t: nm.tanh(t["a"])),
        ("exp", {"a": np.array(rng.normal())}, lambda t: nm.exp(t["a"])),
        ("squash", {"a": vec(d)}, lambda t: nm.squash(t["a"])),
        ("squash/rows", {"m": mat(n, d)}, lambda t: nm.squash(t["m"])),
        ("softmax", {"a": vec(d)}, lambda t: nm.softmax(t["a"])),
        ("softmax/rows", {"m": mat(n, d)}, lambda t: nm.softmax(t["m"])),
        ("cross_entropy", {"a": vec(d)},
         lambda t: nm.cross_entropy(t["a"], d - 1, 1.0)),
        ("cross_entropy/rows", {"m": mat(n, d)},
         lambda t, labels=rng.integers(0, d, n), weights=rng.uniform(
             0.1, 2.0, n): nm.cross_entropy(t["m"], labels, weights)),
        ("dot", {"a": vec(d), "b": vec(d)}, lambda t: nm.dot(t["a"], t["b"])),
        ("dot/broadcast", {"m": cube(n), "q": mat(m, d)},
         lambda t: nm.dot(t["m"], t["q"])),
        ("dot/batched", {"m": mat(n, d), "q": rng.normal(0.0, 2.0, (m, 1, d))},
         lambda t: nm.dot(t["m"], t["q"])),
        ("stack_rows", {"a": vec(d), "b": vec(d)},
         lambda t: nm.stack_rows([t["a"], t["b"]])),
        ("stack_rows/matrices", {"a": mat(n, d), "b": mat(n, d)},
         lambda t: nm.stack_rows([t["a"], t["b"]])),
        ("reshape", {"m": mat(n, d)}, lambda t: nm.reshape(t["m"], (d, n))),
        ("cosine", {"a": vec(d), "b": vec(d)}, lambda t: nm.cosine(t["a"], t["b"])),
        ("cosine/rows", {"m": mat(n, d), "q": vec(d)},
         lambda t: nm.cosine(t["m"], t["q"])),
        # leading axes broadcast: every query row against every m row, and
        # query row i against the rows of m[i]
        ("cosine/broadcast", {"m": mat(n, d), "q": rng.normal(0.0, 2.0, (m, 1, d))},
         lambda t: nm.cosine(t["m"], t["q"])),
        ("cosine/batched", {"m": rng.normal(0.0, 2.0, (m, n, d)),
                            "q": rng.normal(0.0, 2.0, (m, 1, d))},
         lambda t: nm.cosine(t["m"], t["q"])),
        ("pccs", {"a": vec(d), "b": vec(d)}, lambda t: nm.pccs(t["a"], t["b"])),
        ("pccs/rows", {"m": mat(n, d), "q": vec(d)},
         lambda t: nm.pccs(t["m"], t["q"])),
        ("pccs/broadcast", {"m": cube(n), "q": mat(m, d)},
         lambda t: nm.pccs(t["m"], t["q"])),
        ("pccs/batched", {"m": mat(n, d), "q": rng.normal(0.0, 2.0, (m, 1, d))},
         lambda t: nm.pccs(t["m"], t["q"])),
        ("route", {"m": 0.3 * cube(n), "q": 0.3 * mat(m, d)},
         lambda t: nm.route(t["m"], t["q"], 3)[0]),
        # a batch of 2 pairs, and 3 queries against each of 2 memories
        ("route/batched", {"m": 0.3 * rng.normal(0.0, 2.0, (2, n, m, d)),
                           "q": 0.3 * rng.normal(0.0, 2.0, (2, m, d))},
         lambda t: nm.route(t["m"], t["q"], 3)[0]),
        ("route/broadcast", {"m": 0.3 * rng.normal(0.0, 2.0, (2, n, m, d)),
                             "q": 0.3 * rng.normal(0.0, 2.0, (3, 1, m, d))},
         lambda t: nm.route(t["m"], t["q"], 2)[0]),
    ]


def test_gradients_match_finite_differences_across_ops():
    """1000 randomized cases cycling through every differentiable op."""
    rng = np.random.default_rng(202)
    cases_done = 0
    while cases_done < 1000:
        for name, params, build in _op_cases(rng):
            probe_seed = int(rng.integers(0, 2**63))

            def run(arrays, taped):
                tape = nm.Tape() if taped else None
                tensors = {k: (tape.leaf(v) if taped else nm.constant(v))
                           for k, v in arrays.items()}
                out = _probe(build(tensors), np.random.default_rng(probe_seed))
                return tape, tensors, out

            tape, tensors, out = run(params, taped=True)
            grads = nm.backward(tape, out)
            analytic = {k: grads[t.node_id] for k, t in tensors.items()}
            numeric = finite_difference_gradients(
                lambda arrays: float(run(arrays, taped=False)[2].item()), params)
            try:
                assert_gradients_close(analytic, numeric)
            except AssertionError as err:
                raise AssertionError(f"op {name}: {err}") from err
            cases_done += 1
            if cases_done >= 1000:
                break


def test_tapes_are_freed_without_the_cycle_collector():
    # a node must not hold its input Tensors: they point back at the tape,
    # and the cycle would keep every array on it alive until a gc pass
    gc.disable()
    try:
        for name, params, build in _op_cases(np.random.default_rng(3)):
            tape = nm.Tape()
            out = build({k: tape.leaf(v) for k, v in params.items()})
            ref = weakref.ref(tape)
            del tape, out
            assert ref() is None, name
    finally:
        gc.enable()


# ---------------------------------------------------------------------------
# row ops: EPS guards, row consistency, and the public op list
# ---------------------------------------------------------------------------

def _probe_grads(build, arrays):
    """Output array and probe gradients of ``build`` on taped ``arrays``."""
    tape = nm.Tape()
    tensors = {k: tape.leaf(v) for k, v in arrays.items()}
    out = build(tensors)
    grads = nm.backward(tape, _probe(out, np.random.default_rng(5)))
    return out.array, {k: grads[t.node_id] for k, t in tensors.items()}


def test_eps_guards_give_exact_zeros_and_zero_gradients():
    # rows: all zero, constant (zero variance), ordinary
    m = np.array([[0.0, 0.0, 0.0], [0.1, 0.1, 0.1], [1.0, -2.0, 0.5]])
    q = np.array([0.3, -1.2, 2.0])
    for name, build, guarded in (
            ("squash", lambda t: nm.squash(t["m"]), [0]),
            ("cosine", lambda t: nm.cosine(t["m"], t["q"]), [0]),
            ("pccs", lambda t: nm.pccs(t["m"], t["q"]), [0, 1])):
        out, grads = _probe_grads(build, {"m": m, "q": q})
        for i in range(3):
            if i in guarded:
                assert np.all(out[i] == 0.0), name
                assert np.all(grads["m"][i] == 0.0), name
            else:
                assert np.any(out[i] != 0.0), name
                assert np.any(grads["m"][i] != 0.0), name
    # a guarded query zeroes every row and both gradients
    for name, build, dead_q in (
            ("cosine", lambda t: nm.cosine(t["m"], t["q"]), np.zeros(3)),
            ("pccs", lambda t: nm.pccs(t["m"], t["q"]), np.full(3, 0.1))):
        out, grads = _probe_grads(build, {"m": m, "q": dead_q})
        assert np.all(out == 0.0), name
        assert np.all(grads["m"] == 0.0) and np.all(grads["q"] == 0.0), name


def test_row_ops_match_single_row_calls():
    rng = np.random.default_rng(31)
    for _ in range(300):
        n, d = int(rng.integers(1, 8)), int(rng.integers(2, 20))
        m = rng.normal(0.0, 2.0, (n, d))
        q = rng.normal(0.0, 2.0, d)
        for op in (nm.squash, nm.softmax):
            whole = op(c(m)).array
            for i in range(n):
                npt.assert_array_equal(whole[i], op(c(m[i])).array)
        # the row dot is one matrix-vector product, so only the last bit
        # may differ from one dot per row
        for op in (nm.cosine, nm.pccs):
            whole = op(c(m), c(q)).array
            for i in range(n):
                assert abs(whole[i] - op(c(m[i]), c(q)).item()) <= 1e-15
        # a rank-2 q pairs its row j with row j of every m[i]
        l = int(rng.integers(1, 4))
        m3 = rng.normal(0.0, 2.0, (n, l, d))
        q2 = rng.normal(0.0, 2.0, (l, d))
        for op in (nm.cosine, nm.pccs):
            whole = op(c(m3), c(q2)).array
            for j in range(l):
                npt.assert_allclose(whole[:, j], op(c(m3[:, j]), c(q2[j])).array,
                                    rtol=0, atol=1e-15)


@settings(max_examples=200, deadline=None)
@given(b=st.integers(1, 5), n=st.integers(1, 6), d=st.integers(1, 40),
       batched=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_broadcast_cosine_rows_match_rows_computed_alone(b, n, d, batched,
                                                         seed):
    """Entry (i, j) of a (n, d) or (b, n, d) ``m`` against a (b, 1, d)
    ``q`` is the cosine of that row of ``m`` with ``q[i, 0]`` computed as
    two vectors, within ``4 * d * 2**-53 * sum|m * q| / (|m| |q|)``: both
    sides round a d-term dot and two d-term norms, in their own order."""
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(b, n, d) if batched else (n, d))
    m *= 10.0 ** rng.integers(-5, 6, size=m.shape[:-1] + (1,))
    m[rng.random(m.shape[:-1]) < 0.1] = 0.0  # guarded rows
    q = rng.normal(size=(b, 1, d)) * 10.0 ** rng.integers(-5, 6, (b, 1, 1))
    got = nm.cosine(c(m), c(q)).array
    assert got.shape == (b, n)
    for i in range(b):
        for j in range(n):
            row, query = (m[i, j] if batched else m[j]), q[i, 0]
            alone = nm.cosine(c(row), c(query)).item()
            norms = np.linalg.norm(row) * np.linalg.norm(query)
            bound = 0.0 if norms == 0.0 else \
                4 * d * 2.0**-53 * np.abs(row * query).sum() / norms
            assert abs(got[i, j] - alone) <= bound, (i, j)


def test_cosine_refuses_shapes_that_do_not_broadcast():
    """Every two-operand op refuses shapes that do not broadcast; the row
    ops also refuse a scalar and rows of unequal length, and ``pccs`` rows
    of length 1."""
    ops = ("add", "mul", "dot", "cosine", "pccs")
    cases = [(op, ms, qs) for op in ops for ms, qs in (
        ((5, 4), (3, 2, 4)), ((5, 4), (5, 3)), ((2, 5, 4), (3, 1, 4)))]
    cases += [(op, ms, qs) for op in ops[2:] for ms, qs in (
        ((4,), ()), ((5, 1), (5, 3)))]
    for op, ms, qs in cases + [("pccs", (5, 1), (1,))]:
        with pytest.raises(ValueError, match=f"{op}: shape mismatch"):
            getattr(nm, op)(c(np.ones(ms)), c(np.ones(qs)))
    for op in ops[:2]:  # elementwise ops broadcast those
        assert getattr(nm, op)(c(np.ones((5, 1))), c(np.ones((5, 3)))).shape \
            == (5, 3)
        assert getattr(nm, op)(c(np.ones(4)), c(np.ones(()))).shape == (4,)


NOT_OPS = {"EPS", "NumericError", "Tensor", "Tape", "constant", "backward"}


def test_all_names_exactly_the_public_callables():
    defined = {name for name, obj in vars(nm).items()
               if callable(obj) and not name.startswith("_")
               and getattr(obj, "__module__", None) == nm.__name__}
    assert len(set(nm.__all__)) == len(nm.__all__)
    assert set(nm.__all__) - {"EPS"} == defined


def test_every_differentiable_op_has_a_gradient_case():
    covered = {name.split("/")[0]
               for name, _, _ in _op_cases(np.random.default_rng(0))}
    assert covered == set(nm.__all__) - NOT_OPS


# ---------------------------------------------------------------------------
# the fused routing op against the same loop composed from the public ops
# ---------------------------------------------------------------------------

def _composed_route(m, q, iterations):
    gates = nm.tanh(nm.pccs(m, q))
    logits = nm.constant(np.zeros(m.shape[:2]))
    for it in range(iterations):
        if it:
            logits = nm.add(logits, nm.mul(gates, nm.dot(m, caps)))
            q = nm.mul(nm.add(q, caps), nm.constant(0.5))
            gates = nm.tanh(nm.pccs(m, q))
        coupling = nm.softmax(logits)
        caps = nm.squash(nm.vecmat(nm.add(coupling, gates), m))
    return nm.reshape(caps, (caps.array.size,))


@settings(max_examples=150, deadline=None)
@given(n=st.integers(1, 20), l=st.integers(1, 10), d_v=st.integers(2, 6),
       r=st.integers(1, 4),
       inputs=st.sampled_from(["random", "zero", "constant_rows",
                               "zero_row"]),
       recorded=st.sampled_from(["mq", "m", "q"]),
       seed=st.integers(0, 2**32 - 1))
def test_route_equals_the_composed_loop_bit_for_bit(n, l, d_v, r, inputs,
                                                    recorded, seed):
    """Forward output and every gradient, on squashed capsules as the
    transforms make them; degenerate inputs hit the EPS guards."""
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(n, l, d_v))
    q = rng.normal(size=(l, d_v))
    if inputs == "zero":  # zero transforms
        m[:], q[:] = 0.0, 0.0
    elif inputs == "constant_rows":
        m[:] = rng.normal(size=(n, l, 1))
    elif inputs == "zero_row":
        m[int(rng.integers(n))] = 0.0
    m, q = nm.squash(c(m)).array, nm.squash(c(q)).array
    probe = rng.normal(size=l * d_v)

    def run(build):
        tape = nm.Tape()
        mt = tape.leaf(m) if "m" in recorded else c(m)
        qt = tape.leaf(q) if "q" in recorded else c(q)
        out = build(mt, qt)
        grads = nm.backward(tape, nm.dot(out, c(probe)))
        return [out.array] + [grads[t.node_id] for t in (mt, qt)
                              if t.node_id is not None]

    fused = run(lambda mt, qt: nm.route(mt, qt, r)[0])
    for got, want in zip(fused, run(lambda mt, qt: _composed_route(mt, qt, r))):
        npt.assert_array_equal(got.view(np.int64), want.view(np.int64))


@settings(max_examples=150, deadline=None)
@given(stacks=st.integers(1, 4), n=st.integers(3, 20),
       queries=st.integers(1, 3), l=st.integers(1, 10), d_v=st.integers(2, 6),
       r=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
def test_permuting_each_memory_of_a_stack_changes_no_bit(
        stacks, n, queries, l, d_v, r, seed):
    """A (C, n, l, d_v) stack of memories routed against (Q, 1, l, d_v)
    queries, as induction routes a class's supports, gives the same bits
    when each memory's rows are permuted on their own; every memory holds
    a duplicated row, a zero row and signed zeros."""
    rng = np.random.default_rng(seed)
    m = nm.squash(c(rng.normal(size=(stacks, n, l, d_v)))).array.copy()
    signed = rng.random(m.shape) < 0.1
    m[signed] = rng.choice([0.0, -0.0], size=int(signed.sum()))
    for memory in m:
        src, dst, zero = rng.choice(n, 3, replace=False)
        memory[dst] = memory[src]
        memory[zero] = rng.choice([0.0, -0.0], size=(l, d_v))
    q = nm.squash(c(rng.normal(size=(queries, 1, l, d_v)))).array
    perm = np.array([rng.permutation(n) for _ in range(stacks)])
    permuted = np.take_along_axis(m, perm[:, :, None, None], axis=1)
    got = nm.route(c(m), c(q), r)[0].array
    want = nm.route(c(permuted), c(q), r)[0].array
    npt.assert_array_equal(got.view(np.int64), want.view(np.int64))


def _sum_in_order(g, shape):
    """``g`` summed over the axes along which an operand of ``shape`` was
    broadcast: ``0 + g[0] + g[1] + ...`` in index order, so a sum of one
    -0.0 is +0.0."""
    while g.ndim > len(shape):
        g = sum(g)
    for axis, size in enumerate(shape):
        if size == 1 < g.shape[axis]:
            g = np.expand_dims(sum(np.moveaxis(g, axis, 0)), axis)
    return g


# (memory, query) leading axes: one pair per entry, a memory shared by
# every query, a query shared by every memory, and every query against
# every memory
ROUTE_LAYOUTS = {"batched": (("b",), ("b",)), "shared_memory": ((), ("b",)),
                 "shared_query": (("b",), ()),
                 "outer": (("k",), ("b", 1))}


@settings(max_examples=150, deadline=None)
@given(n=st.integers(1, 20), l=st.integers(1, 10), d_v=st.integers(2, 6),
       r=st.integers(1, 4), b=st.integers(1, 4), k=st.integers(1, 4),
       layout=st.sampled_from(sorted(ROUTE_LAYOUTS)),
       inputs=st.sampled_from(["random", "zero", "constant_rows",
                               "zero_row"]),
       seed=st.integers(0, 2**32 - 1))
# the pipeline's shapes, 2 capsules of 16: induction in 5-way 5-shot
# evaluation (50 queries x 5 classes of 5 rows) and adaptation of its
# 25 supports against 20 base rows, then both steps of a batched 5-way
# 1-shot training episode (25 queries x 5 classes of 1 row, 5 supports)
@example(n=5, l=2, d_v=16, r=2, b=50, k=5, layout="outer",
         inputs="zero_row", seed=23)
@example(n=20, l=2, d_v=16, r=2, b=25, k=1, layout="shared_memory",
         inputs="random", seed=24)
@example(n=1, l=2, d_v=16, r=3, b=25, k=5, layout="outer",
         inputs="random", seed=25)
@example(n=20, l=2, d_v=16, r=3, b=5, k=1, layout="shared_memory",
         inputs="zero_row", seed=26)
def test_each_pair_of_a_routed_batch_has_the_bits_it_has_alone(
        n, l, d_v, r, b, k, layout, inputs, seed):
    """Output and gradients of every pair of a batch against the pair
    routed alone, on squashed capsules; the degenerate inputs of the
    composed-loop test go into the first pair.  An operand shared along
    a batch axis gets the pairs' gradients summed along it in index
    order."""
    rng = np.random.default_rng(seed)
    sizes = {"b": b, "k": k, 1: 1}
    mlead, qlead = (tuple(sizes[a] for a in axes)
                    for axes in ROUTE_LAYOUTS[layout])
    m = rng.normal(size=mlead + (n, l, d_v))
    q = rng.normal(size=qlead + (l, d_v))
    first = (0,) * len(mlead)
    if inputs == "zero":  # zero transforms
        m[first], q[(0,) * len(qlead)] = 0.0, 0.0
    elif inputs == "constant_rows":
        m[first] = rng.normal(size=(n, l, 1))
    elif inputs == "zero_row":
        m[first + (int(rng.integers(n)),)] = 0.0
    m, q = nm.squash(c(m)).array, nm.squash(c(q)).array
    lead = np.broadcast_shapes(mlead, qlead)
    probe = rng.normal(size=lead + (l * d_v,))

    def run(mv, qv, pv):
        tape = nm.Tape()
        mt, qt = tape.leaf(mv), tape.leaf(qv)
        out = nm.route(mt, qt, r)[0]
        assert out.shape == pv.shape
        grads = nm.backward(tape, nm.dot(nm.reshape(out, (pv.size,)),
                                         c(pv.reshape(-1))))
        return out.array, grads[mt.node_id], grads[qt.node_id]

    def same_bits(got, want):
        npt.assert_array_equal(got.view(np.int64), want.view(np.int64))

    out, g_m, g_q = run(m, q, probe)
    ms = np.broadcast_to(m, lead + m.shape[-3:])
    qs = np.broadcast_to(q, lead + q.shape[-2:])
    g_ms, g_qs = np.empty(ms.shape), np.empty(qs.shape)
    for idx in np.ndindex(*lead):
        alone, g_ms[idx], g_qs[idx] = run(ms[idx], qs[idx], probe[idx])
        same_bits(out[idx], alone)
    same_bits(g_m, _sum_in_order(g_ms, m.shape))
    same_bits(g_q, _sum_in_order(g_qs, q.shape))


def test_row_ops_refuse_a_scalar_and_stack_rows_checks_its_rows():
    for op in (nm.squash, nm.softmax):
        with pytest.raises(ValueError, match=rf"^{op.__name__}: expected "
                                             rf"rows, got shape \(\)$"):
            op(c(np.array(1.0)))
    with pytest.raises(ValueError, match="^stack_rows: empty input$"):
        nm.stack_rows([])
    with pytest.raises(ValueError,
                       match="^stack_rows: inputs have differing shapes$"):
        nm.stack_rows([c(np.ones(3)), c(np.ones(4))])


def test_route_refuses_leading_axes_that_do_not_broadcast():
    m, q = c(np.full((3, 4, 2, 3), 0.1)), c(np.full((2, 2, 3), 0.1))
    with pytest.raises(ValueError, match="leading axes that broadcast"):
        nm.route(m, q, 2)
    assert nm.route(m, c(np.full((2, 1, 2, 3), 0.1)), 2)[0].shape == (2, 3, 6)


def test_route_returns_its_rounds_and_checks_its_arguments():
    rng = np.random.default_rng(8)
    m = c(nm.squash(c(rng.normal(size=(4, 2, 3)))).array)
    q = c(nm.squash(c(rng.normal(size=(2, 3)))).array)
    out, seen = nm.route(m, q, 3)
    assert out.tape is None and out.shape == (6,)
    assert len(seen["coupling"]) == len(seen["gates"]) == 3
    with pytest.raises(ValueError):
        nm.route(m, c(np.ones((2, 4))), 3)
    with pytest.raises(ValueError):
        nm.route(m, q, 0)
