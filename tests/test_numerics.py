import gc
import math
import weakref

import numpy as np
import numpy.testing as npt
import pytest

from dmin import numerics as nm
from oracles import assert_gradients_close, finite_difference_gradients


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
        y = nm.index(nm.softmax(x), 0)
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
        ("sub", {"a": vec(d), "b": vec(d)}, lambda t: nm.sub(t["a"], t["b"])),
        ("mul", {"a": vec(d), "b": vec(d)}, lambda t: nm.mul(t["a"], t["b"])),
        ("mul/scalar", {"a": np.array(rng.normal()), "b": vec(d)},
         lambda t: nm.mul(t["a"], t["b"])),
        ("scale", {"a": vec(d)}, lambda t: nm.scale(t["a"], -1.7)),
        ("linear", {"x": vec(d), "w": mat(m, d)}, lambda t: nm.linear(t["x"], t["w"])),
        ("linear/bias", {"x": vec(d), "w": mat(m, d), "b": vec(m)},
         lambda t: nm.linear(t["x"], t["w"], t["b"])),
        ("linear/rows", {"x": mat(n, d), "w": mat(m, d), "b": vec(m)},
         lambda t: nm.linear(t["x"], t["w"], t["b"])),
        ("vecmat", {"w": vec(n), "m": mat(n, d)}, lambda t: nm.vecmat(t["w"], t["m"])),
        ("vecmat/lead", {"w": mat(n, m), "m": cube(n)},
         lambda t: nm.vecmat(t["w"], t["m"])),
        ("tanh", {"a": vec(d)}, lambda t: nm.tanh(t["a"])),
        ("exp", {"a": np.array(rng.normal())}, lambda t: nm.exp(t["a"])),
        ("squash", {"a": vec(d)}, lambda t: nm.squash(t["a"])),
        ("squash/rows", {"m": mat(n, d)}, lambda t: nm.squash(t["m"])),
        ("softmax", {"a": vec(d)}, lambda t: nm.softmax(t["a"])),
        ("softmax/rows", {"m": mat(n, d)}, lambda t: nm.softmax(t["m"])),
        ("logsumexp", {"a": vec(d)}, lambda t: nm.logsumexp(t["a"])),
        ("dot", {"a": vec(d), "b": vec(d)}, lambda t: nm.dot(t["a"], t["b"])),
        ("dot/broadcast", {"m": cube(n), "q": mat(m, d)},
         lambda t: nm.dot(t["m"], t["q"])),
        ("index", {"a": vec(d)}, lambda t: nm.index(t["a"], d - 1)),
        ("stack_rows", {"a": vec(d), "b": vec(d)},
         lambda t: nm.stack_rows([t["a"], t["b"]])),
        ("stack_rows/matrices", {"a": mat(n, d), "b": mat(n, d)},
         lambda t: nm.stack_rows([t["a"], t["b"]])),
        ("reshape", {"m": mat(n, d)}, lambda t: nm.reshape(t["m"], (d, n))),
        ("cosine", {"a": vec(d), "b": vec(d)}, lambda t: nm.cosine(t["a"], t["b"])),
        ("cosine/rows", {"m": mat(n, d), "q": vec(d)},
         lambda t: nm.cosine(t["m"], t["q"])),
        ("pccs", {"a": vec(d), "b": vec(d)}, lambda t: nm.pccs(t["a"], t["b"])),
        ("pccs/rows", {"m": mat(n, d), "q": vec(d)},
         lambda t: nm.pccs(t["m"], t["q"])),
        ("pccs/broadcast", {"m": cube(n), "q": mat(m, d)},
         lambda t: nm.pccs(t["m"], t["q"])),
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
