"""Dense float64 tensors plus a reverse-mode differentiation tape.

Everything else in the package is written against this module: vectors and
matrices are immutable :class:`Tensor` values, and training records forward
operations on a :class:`Tape` so that :func:`backward` can accumulate exact
adjoints for every leaf parameter.

Conventions:

- scalars are rank-0 and vectors rank-1.  :func:`linear`, :func:`squash`,
  :func:`softmax`, :func:`dot`, :func:`cosine` and :func:`pccs` act along
  the last axis and treat any leading axes as independent rows, so a
  rank-1 input is simply a single row.  :func:`embed` is the tanh of
  :func:`linear` of one sparse constant row, given as the strictly
  increasing indices of its nonzero columns and their values,
- one broadcasting rule, numpy's: the shapes of the two operands of
  :func:`add`, :func:`mul`, :func:`dot`, :func:`cosine` and :func:`pccs`
  broadcast, and so do the leading axes of :func:`route`'s (..., n, l,
  d_v) memory and (..., l, d_v) query, each entry of whose batch is one
  pair routed with the bits it has alone.  ``dot``, ``cosine`` and
  ``pccs`` also need rows of one length (2 or more for ``pccs``).  Each
  VJP sums an operand's gradient over the axes it was broadcast along.
  There is no other broadcasting: :func:`vecmat`'s weights and
  :func:`cross_entropy`'s labels and weights have the shape of the other
  operand without its last axis,
- :func:`vecmat`'s sum over rows (and so :func:`route`'s capsule mix) is
  order-fixed: the rows are added in the order of their bytes, so the
  result does not depend on the order they come in,
- every public operation validates that its result is finite and raises
  :class:`NumericError` otherwise (silent NaN/Inf propagation is a bug).
  :func:`route` checks its output only: its intermediates are bounded
  (gates in [-1, 1], coupling in [0, 1], capsule norms below 1).
  :func:`embed` checks its product before the tanh, which would map an
  overflow to +-1.  :func:`backward` does not check the leaf gradients it
  returns: their consumer scans each once, as ``Adam.step`` does before
  any update,
- the rule behind these checks: a value is checked where it is written,
  and nowhere else.  An op checks its result, a gradient's consumer the
  gradient, and :meth:`Tape.leaf`, :func:`constant` and :func:`embed`
  their arguments from outside.  A model parameter is checked by its
  writers alone: ``init_model``, ``load_checkpoint`` and ``Adam.step``,
  which checks the entries it moved.  So ``Model.tensors`` makes the
  parameters leaves or constants through :func:`_prechecked`, without a
  scan.  A hashed line's bucket ids and weights are made valid by their
  writer, ``encoder.hash_counts``, so the text encoder embeds them
  through :func:`_embed`, without :func:`embed`'s argument checks,
- :func:`route`, :func:`cross_entropy` and the public row ops share
  private forward/VJP pairs, so each formula is written once,
- :func:`route`'s forward works at the shape each quantity has: the
  centred memory rows, their norms and their byte order once per memory;
  the query's centring and norms at the query's shape, which is the
  batch's only from round 2 on; the gates, logits, coupling and
  capsules per pair.  Its dots and its capsule mix contract the operands
  with the bits of a broadcast multiply and sum.  Round 1's coupling is
  the constant 1/l, a softmax of zero logits bit for bit,
- a :func:`route` call of more than one pair copies the per-pair operand
  of each row dot (the centred query, the capsules, and in the VJP the
  capsules' gradient) to a contiguous array of the batch's (..., n, l,
  d_v) row shape before it contracts, unless it already is one.  einsum
  runs the same kernel over the same d_v products either way, so no bit
  changes; it only skips the loop per output that it takes for an
  operand broadcast along the row axis.  A single pair dots its operand
  as it is: the copy would cost more than it saves,
- :func:`backward` runs the VJPs of a tape's same-shape :func:`route`
  nodes as one batch, with the bits each has alone, and hands each node
  its slice when the walk reaches it, so no adjoint's sum changes order,
- inside the private :func:`_deferred_routes` scope, which training's
  per-pair forward opens, :func:`route` records its node and defers its
  forward to the scope's exit, where each group of one shape and
  iteration count runs as one stacked call, with the bits each pair
  has alone,
- a result is recorded on a tape iff at least one input is recorded; mixing
  inputs from two different tapes is an error,
- a VJP closes over arrays, never over Tensors: their tape link would make
  a cycle that keeps the whole tape alive until a gc pass,
- a VJP returns one dense gradient per input, except :func:`embed`, whose
  weight gradient is a column block ``(ids, vals, g, y)``: the (rows, k)
  block ``np.outer(g * (1 - y*y), vals)`` at the columns ``ids``, zero
  elsewhere.  :func:`backward` keeps every adjoint dense.  It holds an
  adjoint's blocks until the adjoint is read, then builds them with one
  product and adds them with one ``np.add.at`` into a zeroed or copied
  array, never into one a VJP returned, since those may alias (``add``
  returns one array for both inputs, ``stack_rows`` and ``reshape``
  return views),
- norm and variance denominators are guarded by ``EPS = 1e-12``: squash maps
  (near-)zero rows to zero, and cosine and pccs of a (near-)zero or constant
  row are 0, with zero gradient.
"""

from __future__ import annotations

import contextlib
import math
import threading
from typing import Callable, Sequence

import numpy as np

# what np.einsum, np.clip and .sum call, minus their Python dispatch
# layers; the results are bit-identical
try:
    from numpy._core.multiarray import c_einsum as _einsum
    from numpy._core.umath import clip as _clip
except ImportError:  # numpy < 2
    from numpy.core.umath import clip as _clip
    _einsum = np.einsum
_add = np.add.reduce

EPS = 1e-12

__all__ = [
    "EPS",
    "NumericError",
    "Tensor",
    "Tape",
    "constant",
    "add",
    "mul",
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
        return self._leaf(value)

    def _leaf(self, value: np.ndarray) -> Tensor:
        self.nodes.append(_Node("leaf", (), value, None))
        return Tensor(value, self, len(self.nodes) - 1)


def constant(array) -> Tensor:
    """Wrap an array as an un-recorded Tensor (no gradient flows into it)."""
    value = _as_f64(array)
    _ensure_finite("constant", value)
    return Tensor(value)


def _prechecked(arrays: dict, tape: Tape | None = None) -> dict:
    """Each of ``arrays`` as :meth:`Tape.leaf` of ``tape`` would make it,
    or as :func:`constant` without a tape, but with no finiteness scan:
    for arrays that their writer has checked, a model's parameters."""
    if tape is None:
        return {k: Tensor(_as_f64(v)) for k, v in arrays.items()}
    return {k: tape._leaf(_as_f64(v)) for k, v in arrays.items()}


def _finite(value: np.ndarray) -> bool:
    """Whether every entry of ``value`` is finite, as :func:`_ensure_finite`
    tests it."""
    return math.isfinite(_add(value, axis=None)) or \
        bool(np.isfinite(value).all())


def _ensure_finite(op: str, value: np.ndarray) -> None:
    # Summing is far cheaper than isfinite().all() and any nan/inf entry
    # makes the sum non-finite.  A finite array can still overflow in the
    # sum, so confirm with the exact check before raising.  Every op runs
    # this, so it does not call _finite.
    if not math.isfinite(_add(value, axis=None)) \
            and not np.isfinite(value).all():
        raise NumericError(f"{op}: non-finite result")


def _result(op: str, value, parents: Sequence[Tensor],
            vjp: Callable[[np.ndarray], tuple] | None) -> Tensor:
    value = _as_f64(value)
    _ensure_finite(op, value)
    return _record(op, value, parents, vjp)


def _record(op: str, value: np.ndarray, parents: Sequence[Tensor],
            vjp: Callable[[np.ndarray], tuple] | None) -> Tensor:
    """:func:`_result` of a contiguous float64 ``value`` that its op has
    already checked."""
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


def _check_operands(op: str, a: Tensor, b: Tensor, row: int = 0) -> None:
    """Refuse operands whose shapes do not broadcast by numpy's rules; a
    row op (``row`` >= 1) also needs rows of one length, at least ``row``."""
    sa, sb = a.shape, b.shape
    if row and not (sa and sb and sa[-1] == sb[-1] >= row) or not all(
            x == y or 1 in (x, y) for x, y in zip(sa[::-1], sb[::-1])):
        raise ValueError(f"{op}: shape mismatch {sa} vs {sb}"
                         + (f"; rows need one length >= {row}" if row else ""))


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


# ---------------------------------------------------------------------------
# elementwise and linear-algebra operations
# ---------------------------------------------------------------------------

def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum; the shapes broadcast by numpy's rules."""
    _check_operands("add", a, b)
    av, bv = a.array, b.array
    return _result("add", av + bv, (a, b),
                   lambda g: (_sum_to(g, av.shape), _sum_to(g, bv.shape)))


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise product; the shapes broadcast by numpy's rules, so a
    rank-0 operand scales every entry of the other."""
    _check_operands("mul", a, b)
    av, bv = a.array, b.array
    return _result("mul", av * bv, (a, b),
                   lambda g: (_sum_to(g * bv, av.shape),
                              _sum_to(g * av, bv.shape)))


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
        # routing transform of one query, np.outer is as fast as a matmul
        # with inner dimension 1 at 32 x 32 and 25% faster at 64 x 64, and
        # it keeps the sign of a -0.0 product, which the matmul gives as
        # +0.0 (test_column_blocks_add_as_one_block_at_a_time pins it)
        rows = g.reshape(-1, wv.shape[0])
        xrows = xv.reshape(-1, wv.shape[1])
        gw = np.outer(rows, xrows) if len(rows) == 1 else rows.T @ xrows
        grads = (g @ wv, gw)
        return grads if bv is None else grads + (rows.sum(axis=0),)

    return _result("linear", out, parents, vjp)


def embed(w: Tensor, ids, vals) -> Tensor:
    """``tanh(w[:, ids] @ vals)``: a sparse matrix-vector product and its
    tanh, as one node.

    Equal to ``tanh(linear(x, w))`` for the constant vector ``x`` that
    holds ``vals`` at the columns ``ids`` and zeros elsewhere, at the cost
    of ``len(ids)`` columns instead of all of them.  ``ids`` are strictly
    increasing column indices of the matrix ``w``; ``vals`` are plain
    floats, one per index, never recorded.  The product is checked before
    the tanh, so an overflow that tanh would map to +-1 still raises
    :class:`NumericError`.  The VJP is tanh's, ``g * (1 - y*y)`` of the
    output ``y``, then the product's: the weight gradient is the column
    block ``np.outer(g * (1 - y*y), vals)`` at ``ids``, which
    :func:`backward` builds and adds into those columns only.
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
    # intp, so that backward's column offsets stay integers: a uint64 id
    # plus an int64 offset is a float64
    return _embed(w, ids.astype(np.intp, copy=False), vals)


def _embed(w: Tensor, ids: np.ndarray, vals: np.ndarray) -> Tensor:
    """:func:`embed` without its argument checks, for ``ids`` and ``vals``
    that their writer guarantees, as :func:`dmin.encoder.hash_counts`
    does, and a matrix whose shape its writer checked.  The product's
    finiteness check stays."""
    z = w.array.take(ids, axis=1) @ vals
    _ensure_finite("embed", z)
    y = np.tanh(z)
    return _record("embed", y, (w,), lambda g: ((ids, vals, g, y),))


def _row_order(rows, *leads):
    """Flat indices that put each (n, k) set of C-contiguous (..., n, k)
    ``rows`` in the stable order of their bytes, one per shape in ``leads``."""
    keys = rows.view(np.dtype((np.void, rows.itemsize * rows.shape[-1])))
    order, n = np.argsort(keys[..., 0], kind="stable"), rows.shape[-2]
    return [(order + n * np.arange(math.prod(s)).reshape(s + (1,))).reshape(-1)
            for s in leads]


def _rowsdot(mv, v):
    """Dots of the rows of ``mv`` with ``v`` broadcast against them, as
    :func:`route` takes them.  In a batch of pairs, ``v`` is first copied
    to the broadcast shape, unless it is already a C-contiguous array of
    that shape (one row, n = 1): einsum then runs the same kernel over the
    same products as with ``v`` itself, so no bit changes, without the
    loop per output that it takes for an operand broadcast along the row
    axis.  A single pair, (n, l, d) rows against a (1, l, d) ``v``, dots
    ``v`` as it is: there the copy costs more than it saves."""
    if mv.ndim > 3 or v.ndim > 3:
        shape = np.broadcast(mv, v).shape
        if v.shape != shape or not v.flags.c_contiguous:
            full = np.empty(shape)
            full[...] = v
            v = full
    return _rowdot(mv, v)


def _mix(wv, mv, ms, take, subscripts):
    """Row mixture ``sum_i wv[i] * mv[i]`` as the einsum ``subscripts``
    contracts it, and its VJP, which takes the gradient with a row axis;
    ``ms`` holds ``mv``'s rows in the order that the flat index ``take``
    (None: as given) puts ``wv``'s rows in.  The contraction adds the
    products row by row, the bits of a multiply and a sum over that axis."""
    ws = wv if take is None else \
        wv.reshape(len(take), -1).take(take, axis=0).reshape(wv.shape)
    return (_einsum(subscripts, ws, ms) + 0.0,
            lambda g: (_rowsdot(mv, g), wv[..., None] * g))


def vecmat(w: Tensor, m: Tensor, batch: int = 0) -> Tensor:
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
    zeros into ``+0.0``.  With ``batch=1`` the first axis is a batch axis
    and the sum runs over the second: entry ``b`` of the result is
    ``vecmat(w[b], m[b])`` bit for bit, its rows in their own order.
    """
    if batch not in (0, 1) or m.ndim < 2 + batch \
            or w.shape != m.shape[:-1]:
        raise ValueError(f"vecmat: shape mismatch {w.shape} @ {m.shape}")
    wv, mv = w.array, m.array
    lead, n = mv.shape[:batch], mv.shape[batch]
    take = None if n < 3 or not mv.size else _row_order(np.concatenate(
        (mv.reshape(*lead, n, -1), wv.reshape(*lead, n, -1)), -1), lead)[0]
    ms = mv if take is None else \
        mv.reshape(len(take), -1)[take].reshape(mv.shape)
    out, vjp = _mix(wv, mv, ms, take,
                    "bn...,bn...k->b...k" if batch else "n...,n...k->...k")
    return _result("vecmat", out, (w, m),
                   (lambda g: vjp(g[:, None])) if batch else vjp)


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

def _last(ufunc, xv):
    """``ufunc`` reduced over the last axis of ``xv``, kept as a length-1
    axis.  numpy reduces a short inner axis slowly, row by row, so an axis
    of fewer than 8 entries is reduced by one elementwise call per entry.
    A sum of positive entries, such as softmax's, is then added in order,
    which is what numpy's reduce does there, bit for bit."""
    k = xv.shape[-1]
    if k >= 8:
        return ufunc.reduce(xv, axis=-1, keepdims=True)
    out = xv[..., :1]
    for j in range(1, k):
        out = ufunc(out, xv[..., j:j + 1])
    return out


def _softmax(xv):
    """``softmax``'s rows, their VJP, and a function that gives each row's
    log-sum-exp (only the loss asks for it, so it is made on demand)."""
    top = _last(np.maximum, xv)
    z = np.exp(xv - top)
    total = _last(np.add, z)
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

def dot(a: Tensor, b: Tensor) -> Tensor:
    """Dot product of each row of ``a`` with the matching row of ``b``;
    the leading axes broadcast and give the shape of the result."""
    _check_operands("dot", a, b, 1)
    av, bv = a.array, b.array
    return _result("dot", _rowdot(av, bv), (a, b),
                   lambda g: (_sum_to(g[..., None] * bv, av.shape),
                              _sum_to(g[..., None] * av, bv.shape)))


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


def _row_norms(xv):
    """Whether each row of ``xv`` has a norm above EPS, and the row norms
    with each other row's replaced by 1, a safe divisor."""
    norms = np.sqrt(_rowdot(xv, xv))
    live = norms > EPS
    return live, np.where(live, norms, 1.0)


def _cosines(mv, qv, rows=None, centred=False, row_axis=False):
    """Cosine of each row of ``mv`` with the matching row of ``qv`` and its
    VJP to (row, query) gradients, each summed over the axes its operand
    was broadcast along.

    ``rows`` may pass in ``_row_norms(mv)``.  ``centred`` inputs are
    mean-centred (Pearson): centring is a symmetric projection, so the VJP
    applies it unchanged to both gradients.  ``row_axis`` says that ``qv``
    is a (..., l, d) query against (..., n, l, d) rows, as in
    :func:`route`: the dots take the query through :func:`_rowsdot`, and
    the query's norms are taken at the query's shape.  The rows' gradient
    is then left at the shape of the batch, for the caller to sum, and the
    query's is summed over the row axis even when n is 1, which turns a
    -0.0 into +0.0 exactly as the sum over n rows of a (l, d) query does.
    A pair with a dead row or query is 0 and gets zero gradient, so the
    divisor a dead one gets does not change a bit.
    """
    live_q, safe_q = _row_norms(qv)
    live_m, safe_m = _row_norms(mv) if rows is None else rows
    if row_axis:
        qrows, live_qr, safe_qr = qv[..., None, :, :], live_q[..., None, :], \
            safe_q[..., None, :]
        dots = _rowsdot(mv, qrows)
    else:
        dots, qrows, live_qr, safe_qr = _rowdot(mv, qv), qv, live_q, safe_q
    live = live_m & live_qr
    norms = safe_m * safe_qr
    c = np.where(live, dots / norms, 0.0)

    def vjp(g):
        gl = np.where(live, g, 0.0)
        a = gl / norms
        glc = gl * c
        # two arrays of the batch's row shape, not four: the rows' product
        # is subtracted in place, and the query's product reuses its array
        gm = a[..., None] * qrows
        am = (glc / (safe_m * safe_m))[..., None] * mv
        gm -= am
        np.multiply(a[..., None], mv, out=am)
        if row_axis:
            gq = _add(am, axis=-3) - qv * (
                _add(glc, axis=-2) / (safe_q * safe_q))[..., None]
        else:
            gm = _sum_to(gm, mv.shape)
            gq = _sum_to(am, qv.shape) - qv * (
                _sum_to(glc, safe_q.shape) / (safe_q * safe_q))[..., None]
        return (_centre(gm), _centre(gq)) if centred else (gm, gq)

    return _clip(c, -1.0, 1.0), vjp


def cosine(m: Tensor, q: Tensor) -> Tensor:
    """Cosine similarity of each row of ``m`` with the matching row of ``q``.

    The leading axes give the shape of the result: a (n, d) ``m`` against
    a (B, 1, d) ``q`` gives (B, n) scores, and two rank-1 operands a
    scalar.  0 where either norm is below EPS.
    """
    _check_operands("cosine", m, q, 1)
    c, vjp = _cosines(m.array, q.array)
    return _result("cosine", c, (m, q), vjp)


def pccs(m: Tensor, q: Tensor) -> Tensor:
    """Pearson correlation of each row of ``m`` with the matching row of ``q``.

    Shapes broadcast as in :func:`cosine`.  The entries of a row are
    paired samples, so rows need length 2 or more: a single sample has no
    variance to correlate.  Equal to the cosine of the mean-centred rows,
    so rows with (near) zero variance yield 0, a neutral value for routing.
    Centring is fused into the node.
    """
    _check_operands("pccs", m, q, 2)
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
    never copied per pair: what depends on the memory alone (centred
    rows, row norms, row order) is computed once per memory, the query's
    centring and norms at the query's shape, and only the gates, logits,
    coupling and capsules per pair.  Round 1 mixes with the coupling
    1/l, what a softmax of its zero logits gives.  Output and gradients
    equal, bit for bit, those of the same loop built from the public ops;
    the VJP replays the rounds in reverse at the batch's shape, sums each
    adjoint in that chain's order, and then sums each operand's gradient
    over the axes it was broadcast along.  Without a recorded input no
    per-round state is kept.  Returns the (..., l * d_v) capsules and
    numpy snapshots: per-round lists ``coupling`` and ``gates``, and
    ``logits``, each (..., n, l).  The VJP keeps the inputs and
    ``iterations`` as ``vjp.inputs`` for :func:`backward`'s replay: an
    input may be a constant, which the tape does not record.

    Inside :func:`_deferred_routes` the shapes are checked now, but the
    output's value, and its node's, are written when the scope exits,
    from a stacked call of every deferred pair of these shapes and
    iterations; ``seen`` is None, and reading the value before raises.
    Stacked pairs keep their own bits, so the values and gradients are
    those of calls made one at a time.
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
    scopes = getattr(_deferral, "scopes", None)
    if not scopes:
        return _route(m, q, iterations, lead)

    def vjp(g):  # the node's own VJP, for a node that no replay batches
        out = _route(*map(Tape()._leaf, (mv, qv)), iterations, lead)[0]
        return out.tape.nodes[out.node_id].vjp(g)

    vjp.inputs = mv, qv, iterations
    out = _record("route", None, (m, q), vjp)
    out.__class__ = _Deferred
    scopes[-1].setdefault((mshape, qshape, iterations, lead), []).append(
        (out, (mv, qv)))
    return out, None


def _route(m: Tensor, q: Tensor, iterations: int, lead: tuple):
    """:func:`route` of checked inputs, now, for a batch of shape ``lead``."""
    mv, qv = m.array, q.array
    mshape, qshape = mv.shape, qv.shape
    # per memory: the centred rows, their norms and live mask, and the
    # mix's byte order of rows (vecmat's agrees: equal rows, equal weights)
    n, l = mshape[-3:-1]
    mc = _centre(mv)
    rows = _row_norms(mc)
    ms, take = mv, None
    if n > 2:
        own, take = _row_order(mv.reshape(*mshape[:-2], -1), mshape[:-3], lead)
        ms = mv.reshape(len(own), -1)[own].reshape(mshape)
    # per pair: (..., n, l) gates, logits and coupling, (..., l, d_v)
    # capsules; the query keeps its own shape until round 2 moves it
    logits = np.zeros(lead + (n, l))
    seen = {"coupling": [], "gates": []}
    steps = []
    gates = caps = agree = soft_vjp = None
    for it in range(iterations):
        last_gates, last_caps = gates, caps
        if it:
            agree = _rowsdot(mv, caps[..., None, :, :])
            logits = logits + gates * agree
            qv = (qv + caps) * 0.5
            coupling, soft_vjp, _ = _softmax(logits)
        else:  # the softmax of zero logits, bit for bit
            coupling = np.full(logits.shape, 1.0 / l)
        corr, corr_vjp = _cosines(mc, _centre(qv), rows, centred=True,
                                  row_axis=True)
        gates = np.tanh(corr)
        mixed, mix_vjp = _mix(coupling + gates, mv, ms, take,
                              "...nl,...nld->...ld")
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
            g_weights, gm = mix_vjp(squash_vjp(g_caps)[..., None, :, :])
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
            g_m = g_m + g_agree[..., None] * last_caps[..., None, :, :]
            g_caps = g_caps + _add(g_agree[..., None] * mv, axis=-3)
        return _sum_to(g_m, mshape), _sum_to(g_q, qshape)

    vjp.inputs = m.array, q.array, iterations
    return _result("route", caps.reshape(lead + (-1,)), (m, q), vjp), seen


class _Deferred(Tensor):  # a route's result until its scope writes it
    __slots__ = ()

    @property
    def array(self):
        raise RuntimeError("route: a deferred value was read before its "
                           "_deferred_routes scope exited")


_deferral = threading.local()  # .scopes: each open scope's deferred routes


def _stacked(inputs, mshape, qshape) -> tuple:
    """The memories and queries of same-shape routes' ``inputs``, each at
    the rank of its pair's batch, stacked on a new leading axis."""
    rank = len(np.broadcast_shapes(mshape[:-3], qshape[:-2]))
    return tuple(np.stack([
        x[i].reshape((1,) * (rank + 3 - i - len(shape)) + shape)
        for x in inputs]) for i, shape in enumerate((mshape, qshape)))


@contextlib.contextmanager
def _deferred_routes():
    """Defer this thread's :func:`route` forwards until the scope exits,
    then run each group of one memory shape, query shape and iterations
    as one stacked call and write each pair's slice into its Tensor and
    tape node.  An exception inside drops the scope's deferred routes."""
    pending = {}  # (memory shape, query shape, iterations, lead): routes
    scopes = _deferral.__dict__.setdefault("scopes", [])
    scopes.append(pending)
    try:
        yield
    finally:
        scopes.pop()
    for (mshape, qshape, its, lead), group in pending.items():
        outs, inputs = zip(*group)
        batch = _route(*map(Tensor, _stacked(inputs, mshape, qshape)), its,
                       (len(outs),) + lead)[0]
        for out, value in zip(outs, batch.array):
            out.__class__ = Tensor
            out.array = value
            if out.tape is not None:
                out.tape.nodes[out.node_id].value = value


# ---------------------------------------------------------------------------
# reverse pass
# ---------------------------------------------------------------------------

def backward(tape: Tape, root: Tensor) -> dict[int, np.ndarray]:
    """Accumulate adjoints from a recorded scalar root back to every leaf.

    Visits nodes exactly once in reverse id order (valid because parent ids
    are always smaller), so each adjoint entry sums its contributions in
    that order, column blocks included: a matrix's blocks wait until its
    adjoint is read, by a dense contribution or at its own node, and are
    then added by one sequential scatter, bit for bit one at a time.

    When the walk reaches a :func:`route` node that no group holds, it
    groups it with every earlier such node of the same memory shape,
    query shape and iterations that the root reaches and whose consumers
    all come after the current node, so that its adjoint is final.
    A group of 2 or more runs :func:`route` and its VJP once on the
    members' own inputs and adjoints, stacked on a new leading axis, and
    each member's slice goes to its parents when the walk reaches that
    member: every pair of a batch has the bits it has alone, and every
    adjoint sums in reverse id order, so no bit changes.  Returns a dict
    mapping each leaf's node id to the gradient of ``root`` with respect
    to that leaf; leaves the root does not depend on get zero gradients.
    The gradients are not checked for finiteness: their consumer scans
    them once, as :meth:`dmin.model.Adam.step` does before it moves
    anything.
    """
    if root.tape is not tape or root.node_id is None:
        raise ValueError("backward: root is not recorded on this tape")
    if root.ndim != 0:
        raise ValueError(f"backward: root must be a scalar, got shape {root.shape}")

    adjoints: list[np.ndarray | None] = [None] * len(tape.nodes)
    blocks: dict[int, list] = {}  # column blocks not yet added, in order

    def scatter(k):
        # all blocks' products in one multiply, ids by rows; add.at is
        # sequential: each entry gets one add per block, in order
        ids, vals, g, y = zip(*blocks.pop(k))
        g, y = np.stack(g), np.stack(y)
        acc = adjoints[k] = np.zeros(tape.nodes[k].value.shape) \
            if adjoints[k] is None else adjoints[k].copy()
        at = np.concatenate(ids)[:, None] + acc.shape[1] * np.arange(len(acc))
        d = np.repeat(g * (1.0 - y * y), [len(i) for i in ids], axis=0)
        np.add.at(acc.reshape(-1), at.reshape(-1),
                  (np.concatenate(vals)[:, None] * d).reshape(-1))

    first_use: dict[int, int] = {}  # each node's smallest consumer id
    replayed: dict[int, tuple] = {}  # group members' parent gradients

    def replay(k):  # route node k's parent gradients, batched when it can
        def key(j):
            mv, qv, its = tape.nodes[j].vjp.inputs
            return mv.shape, qv.shape, its
        if not first_use:
            for j in range(root.node_id, -1, -1):
                for pid in tape.nodes[j].parent_ids:
                    first_use[pid] = j
        group = [j for j in range(k) if tape.nodes[j].op == "route"
                 and adjoints[j] is not None and first_use[j] > k
                 and j not in replayed and j not in blocks
                 and key(j) == key(k)] + [k]
        if len(group) == 1:
            return tape.nodes[k].vjp(adjoints[k])
        mshape, qshape, its = key(k)
        private = Tape()
        m, q = map(private._leaf, _stacked(
            [tape.nodes[j].vjp.inputs for j in group], mshape, qshape))
        gm, gq = private.nodes[route(m, q, its)[0].node_id].vjp(
            np.stack([adjoints[j] for j in group]))
        for i, j in enumerate(group):
            replayed[j] = gm[i].reshape(mshape), gq[i].reshape(qshape)
        return replayed.pop(k)

    adjoints[root.node_id] = np.ones(())
    for k in range(root.node_id, -1, -1):
        if k in blocks:
            scatter(k)
        g = adjoints[k]
        node = tape.nodes[k]
        if g is None or node.vjp is None:
            continue
        parent_grads = replayed.pop(k, None) or (
            replay(k) if node.op == "route" else node.vjp(g))
        for pid, pg in zip(node.parent_ids, parent_grads):
            if pid is None or pg is None:
                continue
            if type(pg) is tuple:  # a column block
                blocks.setdefault(pid, []).append(pg)
                continue
            if pid in blocks:
                scatter(pid)
            acc = adjoints[pid]
            adjoints[pid] = np.asarray(pg, dtype=np.float64) if acc is None \
                else acc + pg

    grads: dict[int, np.ndarray] = {}
    for k, node in enumerate(tape.nodes):
        if node.op != "leaf":
            continue
        g = adjoints[k]
        grads[k] = np.zeros_like(node.value) if g is None else \
            np.asarray(g, dtype=np.float64)
    return grads
