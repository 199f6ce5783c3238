"""Dense float64 tensors plus a reverse-mode differentiation tape.

Everything else in the package is written against this module: vectors and
matrices are immutable :class:`Tensor` values, and training records forward
operations on a :class:`Tape` so that :func:`backward` can accumulate exact
adjoints for every leaf parameter.

Conventions:

- scalars are rank-0 and vectors rank-1.  :func:`linear`, :func:`squash`,
  :func:`softmax`, :func:`dot`, :func:`cosine` and :func:`pccs` act along
  the last axis and treat any leading axes as independent rows, so a
  rank-1 input is simply a single row.  :func:`embed` is :func:`linear`
  of one sparse constant row, given as the strictly increasing indices of
  its nonzero columns and their values.  The second operand of :func:`dot`
  and :func:`pccs` has the shape of the first's trailing axes and is
  broadcast over its leading ones.  The leading axes of :func:`cosine`'s
  two operands broadcast by numpy's rules, so a (n, d) ``m`` against a
  (B, 1, d) ``q`` scores B rows against n in one node; its VJP sums each
  operand's gradient over the axes that operand was broadcast along.
  :func:`route`'s (..., n, l, d_v) memory and (..., l, d_v) query
  broadcast their leading axes the same way: each entry of the batch is
  one (memory, query) pair, routed with the bits it has when routed
  alone, and the VJP sums over broadcast axes as :func:`cosine`'s does.
  :func:`vecmat` weights and sums the leading axis of its second operand.
  :func:`cross_entropy` takes one label and one weight per row and sums
  the rows to a scalar; its labels and weights are plain constants, never
  recorded.  There is no other broadcasting except scalar-times-tensor in
  :func:`mul`,
- :func:`vecmat`'s sum over rows (and so :func:`route`'s capsule mix) is
  order-fixed: the rows are added in the order of their bytes, so the
  result does not depend on the order they come in,
- every public operation validates that its result is finite and raises
  :class:`NumericError` otherwise (silent NaN/Inf propagation is a bug).
  :func:`route` checks its output only: its intermediates are bounded
  (gates in [-1, 1], coupling in [0, 1], capsule norms below 1), and
  :func:`backward` checks every leaf gradient,
- :func:`route`, :func:`cross_entropy` and the public row ops share
  private forward/VJP pairs, so each formula is written once,
- a result is recorded on a tape iff at least one input is recorded; mixing
  inputs from two different tapes is an error,
- a VJP closes over arrays, never over Tensors: their tape link would make
  a cycle that keeps the whole tape alive until a gc pass,
- a VJP returns one dense gradient per input, except :func:`embed`, whose
  weight gradient is a column block: the tuple of the column indices and
  a (rows, k) block, zero elsewhere.  :func:`backward` keeps every
  adjoint dense and adds a block into its columns in place; it writes in
  place only into an adjoint array it allocated itself, never into one a
  VJP returned, since those may alias (``add`` returns one array for both
  inputs, ``stack_rows`` and ``reshape`` return views),
- norm and variance denominators are guarded by ``EPS = 1e-12``: squash maps
  (near-)zero rows to zero, and cosine and pccs of a (near-)zero or constant
  row are 0, with zero gradient.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

# what np.einsum, np.clip, .sum and .max call, minus their Python dispatch
# layers; the results are bit-identical
try:
    from numpy._core.multiarray import c_einsum as _einsum
    from numpy._core.umath import clip as _clip
except ImportError:  # numpy < 2
    from numpy.core.umath import clip as _clip
    _einsum = np.einsum
_add, _max = np.add.reduce, np.maximum.reduce

EPS = 1e-12

__all__ = [
    "EPS",
    "NumericError",
    "Tensor",
    "Tape",
    "constant",
    "add",
    "mul",
    "scale",
    "linear",
    "embed",
    "vecmat",
    "tanh",
    "exp",
    "squash",
    "softmax",
    "cross_entropy",
    "dot",
    "stack_rows",
    "reshape",
    "cosine",
    "pccs",
    "route",
    "backward",
]


class NumericError(Exception):
    """A numeric invariant was violated (non-finite value, divergence)."""


_F64 = np.dtype(np.float64)


def _as_f64(array) -> np.ndarray:
    # Fast path: freshly computed op results are already float64 ndarrays.
    if type(array) is np.ndarray and array.dtype == _F64 and (
            array.ndim == 0 or array.flags["C_CONTIGUOUS"]):
        return array
    # np.ascontiguousarray would promote rank-0 to rank-1; keep scalars rank-0.
    arr = np.asarray(array, dtype=np.float64)
    if arr.ndim > 0 and not arr.flags["C_CONTIGUOUS"]:
        arr = np.ascontiguousarray(arr)
    return arr


class Tensor:
    """Immutable dense array of float64, optionally recorded on a tape.

    Made by :func:`constant`, :meth:`Tape.leaf` and the operations, which
    convert the array to contiguous float64 and check it first.
    """

    __slots__ = ("array", "tape", "node_id")

    def __init__(self, array: np.ndarray, tape: "Tape | None" = None,
                 node_id: int | None = None):
        self.array = array
        self.tape = tape
        self.node_id = node_id

    @property
    def shape(self) -> tuple[int, ...]:
        return self.array.shape

    @property
    def ndim(self) -> int:
        return self.array.ndim

    def item(self) -> float:
        return float(self.array)

    def __repr__(self) -> str:
        tag = f", node_id={self.node_id}" if self.node_id is not None else ""
        return f"Tensor(shape={self.shape}{tag})"


class _Node:
    __slots__ = ("op", "parent_ids", "value", "vjp")

    def __init__(self, op, parent_ids, value, vjp):
        self.op = op
        self.parent_ids = parent_ids
        self.value = value
        self.vjp = vjp


class Tape:
    """Append-only record of forward operations.

    Node ids are topologically ordered by construction: an operation can only
    consume tensors that already exist, so every parent id is smaller than the
    id of the node itself.
    """

    def __init__(self):
        self.nodes: list[_Node] = []

    def __len__(self) -> int:
        return len(self.nodes)

    def leaf(self, array) -> Tensor:
        """Record ``array`` as a differentiable leaf and return its Tensor."""
        value = _as_f64(array)
        _ensure_finite("leaf", value)
        self.nodes.append(_Node("leaf", (), value, None))
        return Tensor(value, self, len(self.nodes) - 1)


def constant(array) -> Tensor:
    """Wrap an array as an un-recorded Tensor (no gradient flows into it)."""
    value = _as_f64(array)
    _ensure_finite("constant", value)
    return Tensor(value)


def _ensure_finite(op: str, value: np.ndarray) -> None:
    # Summing is far cheaper than isfinite().all() and any nan/inf entry
    # makes the sum non-finite.  A finite array can still overflow in the
    # sum, so confirm with the exact check before raising.
    if not math.isfinite(value.sum()) and not np.isfinite(value).all():
        raise NumericError(f"{op}: non-finite result")


def _result(op: str, value, parents: Sequence[Tensor],
            vjp: Callable[[np.ndarray], tuple] | None) -> Tensor:
    value = _as_f64(value)
    _ensure_finite(op, value)
    tape = None
    for p in parents:
        if p.tape is None:
            continue
        if tape is None:
            tape = p.tape
        elif tape is not p.tape:
            raise ValueError("inputs recorded on different tapes")
    if tape is None:
        return Tensor(value)
    # an un-recorded parent has node_id None, so backward skips it
    tape.nodes.append(_Node(op, tuple([p.node_id for p in parents]), value, vjp))
    return Tensor(value, tape, len(tape.nodes) - 1)


def _rowdot(a, b):
    """Dot products of corresponding rows (along the last axis)."""
    return _einsum("...i,...i->...", a, b)


# ---------------------------------------------------------------------------
# elementwise and linear-algebra operations
# ---------------------------------------------------------------------------

def add(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ValueError(f"add: shape mismatch {a.shape} vs {b.shape}")
    return _result("add", a.array + b.array, (a, b), lambda g: (g, g))


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise product; one operand may be a scalar (rank-0)."""
    av, bv = a.array, b.array
    if a.shape != b.shape and a.ndim != 0 and b.ndim != 0:
        raise ValueError(f"mul: shape mismatch {a.shape} vs {b.shape}")

    def vjp(g):
        ga = g * bv
        gb = g * av
        if av.ndim == 0 and g.ndim != 0:
            ga = np.sum(g * bv)
        if bv.ndim == 0 and g.ndim != 0:
            gb = np.sum(g * av)
        return ga, gb

    return _result("mul", av * bv, (a, b), vjp)


def scale(x: Tensor, c: float) -> Tensor:
    """Multiply by a plain (non-differentiated) float constant."""
    c = float(c)
    return _result("scale", x.array * c, (x,), lambda g: (g * c,))


def linear(x: Tensor, w: Tensor, b: Tensor | None = None) -> Tensor:
    """Affine map of the last axis: ``x @ w.T``, plus ``b`` if given.

    ``x`` is one vector or a stack of rows of length ``w.shape[1]``; ``b``
    has length ``w.shape[0]``.
    """
    if (x.ndim < 1 or w.ndim != 2 or x.shape[-1] != w.shape[1]
            or (b is not None and b.shape != (w.shape[0],))):
        raise ValueError(
            f"linear: shape mismatch x={x.shape} w={w.shape} "
            f"b={None if b is None else b.shape}")
    xv, wv = x.array, w.array
    bv = None if b is None else b.array
    out = xv @ wv.T
    if bv is None:
        parents = (x, w)
    else:
        out = out + bv
        parents = (x, w, b)

    def vjp(g):
        # gw sums one outer product per row; for a single row, such as a
        # routing transform of one query, np.outer gives the same products
        # as a matmul with inner dimension 1: as fast at 32 x 32, 25%
        # faster at 64 x 64
        rows = g.reshape(-1, wv.shape[0])
        xrows = xv.reshape(-1, wv.shape[1])
        gw = np.outer(rows, xrows) if len(rows) == 1 else rows.T @ xrows
        grads = (g @ wv, gw)
        return grads if bv is None else grads + (rows.sum(axis=0),)

    return _result("linear", out, parents, vjp)


def embed(w: Tensor, ids, vals) -> Tensor:
    """Sparse matrix-vector product ``w[:, ids] @ vals``.

    Equal to ``linear(x, w)`` for the constant vector ``x`` that holds
    ``vals`` at the columns ``ids`` and zeros elsewhere, at the cost of
    ``len(ids)`` columns instead of all of them.  ``ids`` are strictly
    increasing column indices of the matrix ``w``; ``vals`` are plain
    floats, one per index, never recorded.  The gradient of ``w`` is the
    column block ``np.outer(g, vals)`` at ``ids``, which :func:`backward`
    adds into those columns only.
    """
    ids = np.asarray(ids)
    vals = np.asarray(vals, dtype=np.float64)
    if w.ndim != 2 or ids.ndim != 1 or ids.dtype.kind not in "iu" \
            or vals.shape != ids.shape or (len(ids) and (
                ids[0] < 0 or ids[-1] >= w.shape[1]
                or np.count_nonzero(ids[1:] <= ids[:-1]))):
        raise ValueError(
            f"embed: need a matrix and strictly increasing column indices "
            f"in [0, {w.shape[-1] if w.ndim else 0}) with one value each, "
            f"got w={w.shape}, ids={ids.tolist()}, vals={vals.shape}")
    # g[:, None] * vals is np.outer(g, vals), without its reshaping layers
    return _result("embed", w.array.take(ids, axis=1) @ vals, (w,),
                   lambda g: ((ids, g[:, None] * vals),))


def _row_order(rows, *leads):
    """Flat indices that put each (n, k) set of C-contiguous (..., n, k)
    ``rows`` in the stable order of their bytes, one per shape in ``leads``."""
    keys = rows.view(np.dtype((np.void, rows.itemsize * rows.shape[-1])))
    order, n = np.argsort(keys[..., 0], kind="stable"), rows.shape[-2]
    return [(order + n * np.arange(math.prod(s)).reshape(s + (1,))).reshape(-1)
            for s in leads]


def _mix(wv, mv, axis, ms, take):
    """Row mixture ``sum_i wv[i] * mv[i]`` along ``axis`` of ``mv``, kept as
    a length-1 axis, and its VJP; ``ms`` holds ``mv``'s rows in the order
    that the flat index ``take`` (None: as given) puts ``wv``'s rows in."""
    ws = wv if take is None else \
        wv.reshape(len(take), -1)[take].reshape(wv.shape)
    return (_add(ws[..., None] * ms, axis=axis, keepdims=True) + 0.0,
            lambda g: (_rowdot(mv, g), wv[..., None] * g))


def vecmat(w: Tensor, m: Tensor) -> Tensor:
    """Row mixture ``sum_i w[i, ...] * m[i, ...]`` over the leading axis.

    ``w`` has the shape of ``m`` without its last axis, so each weight
    scales one row of length ``m.shape[-1]``; the result has shape
    ``m.shape[1:]``.  The reduction over ``i`` is order-fixed: the rows
    are added in the order of the bytes of each (``m`` row, ``w`` row)
    pair, so the result is bit-identical under any permutation of ``i``
    applied to ``w`` and ``m`` together; :func:`route`'s capsule mix adds
    its rows the same way.  One or two rows are added as given: one IEEE
    add is exactly rounded and commutative, so the result equals
    ``math.fsum``.  The error of a longer sum is at most
    ``n * 2**-53 * sum(|products|)``.  ``+ 0.0`` turns a sum of negative
    zeros into ``+0.0``.
    """
    if m.ndim < 2 or w.shape != m.shape[:-1]:
        raise ValueError(f"vecmat: shape mismatch {w.shape} @ {m.shape}")
    wv, mv = w.array, m.array
    take = None if len(mv) < 3 or not mv.size else _row_order(np.concatenate(
        (mv.reshape(len(mv), -1), wv.reshape(len(mv), -1)), 1), ())[0]
    out, vjp = _mix(wv, mv, 0, mv if take is None else mv[take], take)
    return _result("vecmat", out[0], (w, m), vjp)


def tanh(x: Tensor) -> Tensor:
    y = np.tanh(x.array)
    return _result("tanh", y, (x,), lambda g: (g * (1.0 - y * y),))


def exp(x: Tensor) -> Tensor:
    with np.errstate(over="ignore"):
        y = np.exp(x.array)
    return _result("exp", y, (x,), lambda g: (g * y,))


# ---------------------------------------------------------------------------
# capsule nonlinearity
# ---------------------------------------------------------------------------

def _squash(xv):
    """``squash``'s rows and their VJP."""
    n2 = _rowdot(xv, xv)
    live = n2 > EPS * EPS
    # masks instead of np.where keep a single row on cheap numpy scalars;
    # a dead row gets n = sqrt(n2 + 1) > 0 and factor 0
    n = np.sqrt(n2 + ~live)
    f = (n / (1.0 + n2) * live)[..., None]

    def vjp(g):
        fp = (1.0 - n2) / ((1.0 + n2) ** 2)  # d/dn of n/(1+n^2)
        coef = fp * _rowdot(g, xv) / n * live
        return f * g + coef[..., None] * xv

    return f * xv, vjp


def squash(x: Tensor) -> Tensor:
    """Norm-bounding nonlinearity of each row: ``x * ||x|| / (1 + ||x||^2)``.

    Maps (near-)zero rows to zero; otherwise preserves direction and maps
    the norm to ``n^2/(1+n^2)``, which lies in [0, 1).
    """
    if x.ndim < 1:
        raise ValueError(f"squash: expected rows, got shape {x.shape}")
    y, vjp = _squash(x.array)
    return _result("squash", y, (x,), lambda g: (vjp(g),))


# ---------------------------------------------------------------------------
# softmax family
# ---------------------------------------------------------------------------

def _softmax(xv):
    """``softmax``'s rows, their VJP, and a function that gives each row's
    log-sum-exp (only the loss asks for it, so it is made on demand)."""
    top = _max(xv, axis=-1, keepdims=True)
    z = np.exp(xv - top)
    total = _add(z, axis=-1, keepdims=True)
    y = z / total
    return (y, lambda g: y * (g - _rowdot(g, y)[..., None]),
            lambda: (top + np.log(total))[..., 0])


def softmax(x: Tensor) -> Tensor:
    """Stable softmax of each row (max-subtracted; entries sum to 1)."""
    if x.ndim < 1:
        raise ValueError(f"softmax: expected rows, got shape {x.shape}")
    y, vjp, _ = _softmax(x.array)
    return _result("softmax", y, (x,), lambda g: (vjp(g),))


def cross_entropy(scores: Tensor, labels, weights) -> Tensor:
    """Weighted softmax cross-entropy of every row, summed to a scalar.

    ``scores`` is one row of C class scores or a stack of such rows;
    ``labels`` (ints in [0, C)) and ``weights`` (plain floats, never
    differentiated) have the shape of its leading axes.  The result is
    ``sum_r weights[r] * (logsumexp(scores[r]) - scores[r, labels[r]])``,
    summed exactly rounded (``math.fsum``), so the order of the rows does
    not matter; the gradient of row ``r`` is
    ``weights[r] * (softmax(scores[r]) - onehot(labels[r]))``.
    """
    labels, weights = np.asarray(labels), np.asarray(weights, np.float64)
    n = scores.shape[-1] if scores.ndim else 0
    if not labels.shape == weights.shape == scores.shape[:-1] \
            or labels.dtype.kind not in "iu" or np.any(labels >= n) \
            or np.any(labels < 0):
        raise ValueError(
            f"cross_entropy: need one integer label in [0, {n}) and one "
            f"weight per row of scores {scores.shape}, got labels "
            f"{labels.tolist()} and weights of shape {weights.shape}")
    sv = scores.array
    onehot = labels[..., None] == np.arange(n)
    y, _, lse = _softmax(sv)
    loss = math.fsum((weights * (lse() - sv[onehot].reshape(labels.shape)))
                     .reshape(-1).tolist())
    return _result("cross_entropy", loss, (scores,),
                   lambda g: ((y - onehot) * (g * weights)[..., None],))


# ---------------------------------------------------------------------------
# reductions and assembly
# ---------------------------------------------------------------------------

def _check_trailing(op: str, m: Tensor, q: Tensor, min_len: int = 1) -> None:
    if q.ndim < 1 or m.shape[m.ndim - q.ndim:] != q.shape:
        raise ValueError(f"{op}: shape mismatch {m.shape} vs {q.shape}")
    if q.shape[-1] < min_len:
        raise ValueError(
            f"{op}: need rows of length >= {min_len}, got shape {m.shape}")


def dot(a: Tensor, b: Tensor) -> Tensor:
    """Dot product of each row of ``a`` with the matching row of ``b``.

    ``b`` has the shape of ``a``'s trailing axes and is broadcast over the
    leading ones; the result has shape ``a.shape[:-1]``.
    """
    _check_trailing("dot", a, b)
    av, bv = a.array, b.array
    lead = tuple(range(a.ndim - b.ndim))
    return _result("dot", _rowdot(av, bv), (a, b),
                   lambda g: (g[..., None] * bv,
                              (g[..., None] * av).sum(axis=lead)))


def stack_rows(rows: Sequence[Tensor]) -> Tensor:
    """Stack equal-shape tensors along a new leading axis."""
    if not rows:
        raise ValueError("stack_rows: empty input")
    if len({r.shape for r in rows}) != 1:
        raise ValueError("stack_rows: inputs have differing shapes")

    return _result("stack_rows", np.stack([r.array for r in rows]), tuple(rows),
                   lambda g: tuple(g))


def reshape(x: Tensor, shape: tuple) -> Tensor:
    """The same entries, in row-major order, with a new shape."""
    old = x.shape
    return _result("reshape", x.array.reshape(shape), (x,),
                   lambda g: (g.reshape(old),))


# ---------------------------------------------------------------------------
# correlation and similarity
# ---------------------------------------------------------------------------

def _centre(a):
    # sum / count is exactly how numpy computes mean(), minus its overhead
    return a - _add(a, axis=-1, keepdims=True) / a.shape[-1]


def _sum_to(g, shape):
    """Sum ``g`` over the axes along which an operand of ``shape`` was
    broadcast to ``g.shape``: its missing leading axes and its length-1
    axes."""
    if g.shape == shape:
        return g
    if g.shape[1:] == shape:  # one added leading axis (routing): no tuple work
        return _add(g, axis=0)
    lead = g.ndim - len(shape)
    axes = tuple(range(lead)) + tuple(
        lead + i for i, k in enumerate(shape) if k == 1 < g.shape[lead + i])
    return _add(g, axis=axes, keepdims=True).reshape(shape)


def _cosines(mv, qv, nrows=None, centred=False, row_axis=False):
    """Cosine of each row of ``mv`` with the matching row of ``qv`` and its
    VJP to (row, query) gradients.  The leading axes of ``mv`` and ``qv``
    broadcast by numpy's rules; each gradient is summed over the axes its
    operand was broadcast along.

    ``nrows`` may pass in the row norms of ``mv``.  ``centred`` inputs are
    mean-centred (Pearson): centring is a symmetric projection, so the VJP
    applies it unchanged to both gradients.  ``row_axis`` says that ``qv``
    is (..., 1, l, d) against a (..., n, l, d) ``mv`` of the same leading
    axes, as in :func:`route`: the query's gradient is then summed over
    that axis even when n is 1, which turns a -0.0 into +0.0 exactly as
    the sum over n rows of a (l, d) query does.
    """
    nq = np.sqrt(_rowdot(qv, qv))
    if nrows is None:
        nrows = np.sqrt(_rowdot(mv, mv))
    live = (nrows > EPS) & (nq > EPS)
    safe_rows = np.where(live, nrows, 1.0)
    safe_q = nq + (nq <= EPS)  # every row of a dead query is masked
    norms = safe_rows * safe_q
    c = np.where(live, _rowdot(mv, qv) / norms, 0.0)

    def vjp(g):
        gl = np.where(live, g, 0.0)
        a = gl / norms
        glc = gl * c
        gm = _sum_to(a[..., None] * qv
                     - (glc / (safe_rows * safe_rows))[..., None] * mv,
                     mv.shape)
        if row_axis:
            gq = _add(a[..., None] * mv, axis=-3, keepdims=True) - qv * (
                _add(glc, axis=-2, keepdims=True)
                / (safe_q * safe_q))[..., None]
        else:
            gq = _sum_to(a[..., None] * mv, qv.shape) - qv * (
                _sum_to(glc, nq.shape) / (safe_q * safe_q))[..., None]
        return (_centre(gm), _centre(gq)) if centred else (gm, gq)

    return _clip(c, -1.0, 1.0), vjp


def cosine(m: Tensor, q: Tensor) -> Tensor:
    """Cosine similarity of each row of ``m`` with the matching row of ``q``.

    The rows have one length; the leading axes of ``m`` and ``q``
    broadcast by numpy's rules and give the shape of the result, so a
    (n, d) ``m`` against a (B, 1, d) ``q`` gives (B, n) scores.  0 where
    either norm is below EPS.  A rank-1 operand is one row, broadcast like
    any other, so two rank-1 operands give a scalar.
    """
    if m.ndim < 1 or q.ndim < 1 or m.shape[-1] != q.shape[-1] or not all(
            a == b or 1 in (a, b) for a, b in zip(m.shape[-2::-1],
                                                  q.shape[-2::-1])):
        raise ValueError(f"cosine: shape mismatch {m.shape} vs {q.shape}")
    c, vjp = _cosines(m.array, q.array)
    return _result("cosine", c, (m, q), vjp)


def pccs(m: Tensor, q: Tensor) -> Tensor:
    """Pearson correlation of each row of ``m`` with the matching row of ``q``.

    ``q`` has the shape of ``m``'s trailing axes.  The entries of a row are
    paired samples, so rows need length 2 or more: a single sample has no
    variance to correlate.  Equal to the cosine of the mean-centred rows,
    so rows with (near) zero variance yield 0, a neutral value for routing.
    Centring is fused into the node.
    """
    _check_trailing("pccs", m, q, 2)
    c, vjp = _cosines(_centre(m.array), _centre(q.array), centred=True)
    return _result("pccs", c, (m, q), vjp)


# ---------------------------------------------------------------------------
# dynamic routing
# ---------------------------------------------------------------------------

def route(m: Tensor, q: Tensor, iterations: int) -> tuple[Tensor, dict]:
    """Dynamic routing of memory capsules ``m`` (..., n, l, d_v) toward query
    capsules ``q`` (..., l, d_v) as one node: the loop ``routing.dmr``
    documents.

    The leading axes of ``m`` and ``q`` broadcast by numpy's rules, and
    each entry of the broadcast batch is one (memory, query) pair, routed
    on its own: its output has the same bits as when it is routed alone.
    A memory shared by many queries, or a query by many memories, is
    never copied per pair.  Output and gradients equal, bit for bit, those
    of the same loop built from the public ops; the VJP replays the rounds
    in reverse, sums each adjoint in that chain's order, and then sums
    each operand's gradient over the axes it was broadcast along.  Without
    a recorded input no per-round state is kept.  Returns the
    (..., l * d_v) capsules and numpy snapshots: per-round lists
    ``coupling`` and ``gates``, and ``logits``, each (..., n, l).
    """
    mv, qv = m.array, q.array
    mshape, qshape = mv.shape, qv.shape
    lead = None
    if len(mshape) >= 3 and len(qshape) >= 2 and iterations >= 1 \
            and qshape[-2:] == mshape[-2:] and qshape[-1] >= 2 \
            and mshape[-3]:
        try:
            lead = () if len(mshape) + len(qshape) == 5 else \
                np.broadcast_shapes(mshape[:-3], qshape[:-2])
        except ValueError:
            pass
    if lead is None:
        raise ValueError(f"route: need n >= 1, d_v >= 2, leading axes that "
                         f"broadcast and iterations >= 1, got {mshape}, "
                         f"{qshape}, {iterations!r}")
    mc = _centre(mv)
    nrows = np.sqrt(_rowdot(mc, mc))
    # the mix's byte order of rows; vecmat's agrees: equal rows, equal weights
    n, ms, take = mshape[-3], mv, None
    if n > 2:
        own, take = _row_order(mv.reshape(*mshape[:-2], -1), mshape[:-3], lead)
        ms = mv.reshape(len(own), -1)[own].reshape(mshape)
    # every array is kept at the batch shape, with a length-1 row axis on
    # the query and the capsules; broadcast operands are views
    qv = qv[..., None, :, :]
    if lead:
        full = lead + mshape[-3:]
        if mshape != full:
            mv, mc = np.broadcast_to(mv, full), np.broadcast_to(mc, full)
            nrows = np.broadcast_to(nrows, full[:-1])
        if qshape[:-2] != lead:
            qv = np.broadcast_to(qv, lead + qv.shape[-3:])
    logits = np.zeros(mv.shape[:-1])
    seen = {"coupling": [], "gates": []}
    steps = []
    gates = caps = agree = None
    for it in range(iterations):
        last_gates, last_caps = gates, caps
        if it:
            agree = _rowdot(mv, caps)
            logits = logits + gates * agree
            qv = (qv + caps) * 0.5
        corr, corr_vjp = _cosines(mc, _centre(qv), nrows, centred=True,
                                  row_axis=True)
        gates = np.tanh(corr)
        coupling, soft_vjp, _ = _softmax(logits)
        mixed, mix_vjp = _mix(coupling + gates, mv, -3, ms, take)
        caps, squash_vjp = _squash(mixed)
        seen["coupling"].append(coupling)
        seen["gates"].append(gates)
        if m.tape is not None or q.tape is not None:
            steps.append((last_gates, last_caps, agree, gates, corr_vjp,
                          soft_vjp, mix_vjp, squash_vjp))
    seen["logits"] = logits

    def vjp(g):
        g_caps = g.reshape(caps.shape)
        g_m = g_logits = g_gates = g_q = None
        for (last_gates, last_caps, agree, gates, corr_vjp, soft_vjp,
             mix_vjp, squash_vjp) in reversed(steps):
            g_weights, gm = mix_vjp(squash_vjp(g_caps))
            g_m = gm if g_m is None else g_m + gm
            g_gates = g_weights if g_gates is None else g_gates + g_weights
            if agree is not None:  # round 1's logits are a constant
                g_soft = soft_vjp(g_weights)
                g_logits = g_soft if g_logits is None else g_logits + g_soft
            gm, gq = corr_vjp(g_gates * (1.0 - gates * gates))
            g_m = g_m + gm
            g_q = gq if g_q is None else g_q + gq
            if agree is None:
                break
            # back through the round's query, logit and agreement updates
            g_q = g_caps = g_q * 0.5
            g_gates = g_logits * agree
            g_agree = g_logits * last_gates
            g_m = g_m + g_agree[..., None] * last_caps
            g_caps = g_caps + _add(g_agree[..., None] * mv, axis=-3,
                                   keepdims=True)
        return (_sum_to(g_m, mshape),
                _sum_to(g_q.reshape(lead + qshape[-2:]), qshape))

    return _result("route", caps.reshape(lead + (-1,)), (m, q), vjp), seen


# ---------------------------------------------------------------------------
# reverse pass
# ---------------------------------------------------------------------------

def backward(tape: Tape, root: Tensor) -> dict[int, np.ndarray]:
    """Accumulate adjoints from a recorded scalar root back to every leaf.

    Visits nodes exactly once in reverse id order (valid because parent ids
    are always smaller), so each adjoint entry sums its contributions in
    that order, column blocks included.  Returns a dict mapping each leaf's
    node id to the gradient of ``root`` with respect to that leaf; leaves
    the root does not depend on get zero gradients.
    """
    if root.tape is not tape or root.node_id is None:
        raise ValueError("backward: root is not recorded on this tape")
    if root.ndim != 0:
        raise ValueError(f"backward: root must be a scalar, got shape {root.shape}")

    adjoints: list[np.ndarray | None] = [None] * len(tape.nodes)
    # 1 where adjoints[k] is an array allocated here, safe to write into
    owned = bytearray(len(tape.nodes))
    adjoints[root.node_id] = np.ones(())
    for k in range(root.node_id, -1, -1):
        g = adjoints[k]
        node = tape.nodes[k]
        if g is None or node.vjp is None:
            continue
        for pid, pg in zip(node.parent_ids, node.vjp(g)):
            if pid is None or pg is None:
                continue
            acc = adjoints[pid]
            if type(pg) is tuple:  # a column block
                if not owned[pid]:
                    acc = adjoints[pid] = (
                        np.zeros(tape.nodes[pid].value.shape) if acc is None
                        else acc.copy())
                    owned[pid] = 1
                acc[:, pg[0]] += pg[1]
            elif acc is None:
                adjoints[pid] = np.asarray(pg, dtype=np.float64)
            else:
                adjoints[pid] = acc + pg

    grads: dict[int, np.ndarray] = {}
    for k, node in enumerate(tape.nodes):
        if node.op != "leaf":
            continue
        g = adjoints[k]
        if g is None:
            g = np.zeros_like(node.value)
        else:
            g = np.asarray(g, dtype=np.float64)
            _ensure_finite("backward", g)
        grads[k] = g
    return grads
