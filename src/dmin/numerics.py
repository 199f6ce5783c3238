"""Dense float64 tensors plus a reverse-mode differentiation tape.

Everything else in the package is written against this module: vectors and
matrices are immutable :class:`Tensor` values, and training records forward
operations on a :class:`Tape` so that :func:`backward` can accumulate exact
adjoints for every leaf parameter.

Conventions:

- scalars are rank-0 and vectors rank-1.  :func:`linear`, :func:`squash`,
  :func:`softmax`, :func:`dot`, :func:`cosine` and :func:`pccs` act along
  the last axis and treat any leading axes as independent rows, so a
  rank-1 input is simply a single row.  The second operand of :func:`dot`,
  :func:`cosine` and :func:`pccs` has the shape of the first's trailing
  axes and is broadcast over its leading ones; :func:`vecmat` weights and
  sums the leading axis of its second operand.  There is no other
  broadcasting except scalar-times-tensor in :func:`mul`,
- every public operation validates that its result is finite and raises
  :class:`NumericError` otherwise (silent NaN/Inf propagation is a bug),
- a result is recorded on a tape iff at least one input is recorded; mixing
  inputs from two different tapes is an error,
- a VJP closes over arrays, never over Tensors: their tape link would make
  a cycle that keeps the whole tape alive until a gc pass,
- norm and variance denominators are guarded by ``EPS = 1e-12``: squash maps
  (near-)zero rows to zero, and cosine and pccs of a (near-)zero or constant
  row are 0, with zero gradient.
"""

from __future__ import annotations

import math
import operator
from typing import Callable, Sequence

import numpy as np

EPS = 1e-12

__all__ = [
    "EPS",
    "NumericError",
    "Tensor",
    "Tape",
    "constant",
    "add",
    "sub",
    "mul",
    "scale",
    "linear",
    "vecmat",
    "tanh",
    "exp",
    "squash",
    "softmax",
    "logsumexp",
    "dot",
    "index",
    "stack_rows",
    "reshape",
    "cosine",
    "pccs",
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


def _need_shape(op: str, t: Tensor, ndim: int) -> None:
    if t.ndim != ndim:
        raise ValueError(f"{op}: expected rank-{ndim} tensor, got shape {t.shape}")


def _rowdot(a, b):
    """Dot products of corresponding rows (along the last axis)."""
    return np.einsum("...i,...i->...", a, b)


# ---------------------------------------------------------------------------
# elementwise and linear-algebra operations
# ---------------------------------------------------------------------------

def add(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ValueError(f"add: shape mismatch {a.shape} vs {b.shape}")
    return _result("add", a.array + b.array, (a, b), lambda g: (g, g))


def sub(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ValueError(f"sub: shape mismatch {a.shape} vs {b.shape}")
    return _result("sub", a.array - b.array, (a, b), lambda g: (g, -g))


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
        # gw sums one outer product per row; np.outer computes a single
        # row's about 4x faster than a matmul with inner dimension 1
        rows = g.reshape(-1, wv.shape[0])
        xrows = xv.reshape(-1, wv.shape[1])
        gw = np.outer(rows, xrows) if len(rows) == 1 else rows.T @ xrows
        grads = (g @ wv, gw)
        return grads if bv is None else grads + (rows.sum(axis=0),)

    return _result("linear", out, parents, vjp)


def vecmat(w: Tensor, m: Tensor) -> Tensor:
    """Row mixture ``sum_i w[i, ...] * m[i, ...]`` over the leading axis.

    ``w`` has the shape of ``m`` without its last axis, so each weight
    scales one row of length ``m.shape[-1]``; the result has shape
    ``m.shape[1:]``.  The reduction over ``i`` is done with exactly rounded
    summation (``math.fsum``) so the result is bit-identical under any
    permutation of ``i`` applied to ``w`` and ``m`` together.  This is the
    only place a memory-indexed sum occurs in dynamic routing, which makes
    routing output exactly permutation invariant.
    """
    if m.ndim < 2 or w.shape != m.shape[:-1]:
        raise ValueError(f"vecmat: shape mismatch {w.shape} @ {m.shape}")
    wv, mv = w.array, m.array
    prods = (wv[..., None] * mv).reshape(mv.shape[0], -1)
    out = np.array([math.fsum(c) for c in prods.T.tolist()])
    return _result("vecmat", out.reshape(mv.shape[1:]), (w, m),
                   lambda g: (_rowdot(mv, g), wv[..., None] * g))


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

def squash(x: Tensor) -> Tensor:
    """Norm-bounding nonlinearity of each row: ``x * ||x|| / (1 + ||x||^2)``.

    Maps (near-)zero rows to zero; otherwise preserves direction and maps
    the norm to ``n^2/(1+n^2)``, which lies in [0, 1).
    """
    if x.ndim < 1:
        raise ValueError(f"squash: expected rows, got shape {x.shape}")
    xv = x.array
    n2 = _rowdot(xv, xv)
    live = n2 > EPS * EPS
    # masks instead of np.where keep a single row on cheap numpy scalars;
    # a dead row gets n = sqrt(n2 + 1) > 0 and factor 0
    n = np.sqrt(n2 + ~live)
    f = (n / (1.0 + n2) * live)[..., None]

    def vjp(g):
        fp = (1.0 - n2) / ((1.0 + n2) ** 2)  # d/dn of n/(1+n^2)
        coef = fp * _rowdot(g, xv) / n * live
        return (f * g + coef[..., None] * xv,)

    return _result("squash", f * xv, (x,), vjp)


# ---------------------------------------------------------------------------
# softmax family
# ---------------------------------------------------------------------------

def softmax(x: Tensor) -> Tensor:
    """Stable softmax of each row (max-subtracted; entries sum to 1)."""
    if x.ndim < 1:
        raise ValueError(f"softmax: expected rows, got shape {x.shape}")
    xv = x.array
    z = np.exp(xv - xv.max(axis=-1, keepdims=True))
    y = z / z.sum(axis=-1, keepdims=True)

    def vjp(g):
        inner = _rowdot(g, y)
        return (y * (g - inner[..., None]),)

    return _result("softmax", y, (x,), vjp)


def logsumexp(x: Tensor) -> Tensor:
    """Stable log(sum(exp(x))) as a scalar."""
    _need_shape("logsumexp", x, 1)
    m = float(np.max(x.array))
    z = np.exp(x.array - m)
    s = float(z.sum())
    return _result("logsumexp", m + math.log(s), (x,), lambda g: (float(g) * z / s,))


# ---------------------------------------------------------------------------
# reductions, selection and assembly
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


def index(x: Tensor, i: int) -> Tensor:
    """Select entry ``i`` of a vector as a scalar."""
    _need_shape("index", x, 1)
    i, n = int(i), x.shape[0]
    if not 0 <= i < n:
        raise ValueError(f"index: {i} out of range for length {n}")

    def vjp(g):
        gx = np.zeros(n)
        gx[i] = float(g)
        return (gx,)

    return _result("index", x.array[i], (x,), vjp)


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
    return a - a.sum(axis=-1, keepdims=True) / a.shape[-1]


def _row_cosines(op, mv, qv, parents, project):
    """Cosine of each row of ``mv`` with the matching row of ``qv``.

    ``qv`` has the shape of ``mv``'s trailing axes.  Recorded as one node;
    ``project`` maps the (row, query) gradients of the cosine to those of
    ``parents``.
    """
    # a rank-1 query keeps the arithmetic the classifier's scores are
    # pinned to: one matrix-vector product for the row dots and for the
    # query's gradient
    rank1 = qv.ndim == 1
    rowdot = operator.matmul if rank1 else _rowdot
    nq = np.sqrt(rowdot(qv, qv))
    nrows = np.sqrt(_rowdot(mv, mv))
    live = (nrows > EPS) & (nq > EPS)
    safe_rows = np.where(live, nrows, 1.0)
    safe_q = nq + (nq <= EPS)  # every row of a dead query is masked
    c = np.where(live, rowdot(mv, qv) / (safe_rows * safe_q), 0.0)

    def vjp(g):
        gl = np.where(live, g, 0.0)
        a = gl / (safe_rows * safe_q)
        gm = a[..., None] * qv \
            - (gl * c / (safe_rows * safe_rows))[..., None] * mv
        if rank1:
            gq = mv.reshape(-1, qv.shape[0]).T @ a.reshape(-1) \
                - qv * float((gl * c).sum()) / (safe_q * safe_q)
        else:
            lead = tuple(range(mv.ndim - qv.ndim))
            gq = (a[..., None] * mv).sum(axis=lead) - qv * (
                (gl * c).sum(axis=lead) / (safe_q * safe_q))[..., None]
        return project(gm, gq)

    return _result(op, np.clip(c, -1.0, 1.0), parents, vjp)


def cosine(m: Tensor, q: Tensor) -> Tensor:
    """Cosine similarity of each row of ``m`` with the matching row of ``q``.

    ``q`` has the shape of ``m``'s trailing axes.  0 where either norm is
    below EPS.  A rank-1 ``m`` gives a scalar.
    """
    _check_trailing("cosine", m, q)
    return _row_cosines("cosine", m.array, q.array, (m, q),
                        lambda gm, gq: (gm, gq))


def pccs(m: Tensor, q: Tensor) -> Tensor:
    """Pearson correlation of each row of ``m`` with the matching row of ``q``.

    ``q`` has the shape of ``m``'s trailing axes.  The entries of a row are
    paired samples, so rows need length 2 or more: a single sample has no
    variance to correlate.  Equal to the cosine of the mean-centred rows,
    so rows with (near) zero variance yield 0, a neutral value for routing.
    Centring is fused into the node: it is a symmetric projection, so the
    VJP applies it unchanged to the incoming gradients.
    """
    _check_trailing("pccs", m, q, 2)
    return _row_cosines("pccs", _centre(m.array), _centre(q.array), (m, q),
                        lambda gu, gw: (_centre(gu), _centre(gw)))


# ---------------------------------------------------------------------------
# reverse pass
# ---------------------------------------------------------------------------

def backward(tape: Tape, root: Tensor) -> dict[int, np.ndarray]:
    """Accumulate adjoints from a recorded scalar root back to every leaf.

    Visits nodes exactly once in reverse id order (valid because parent ids
    are always smaller).  Returns a dict mapping each leaf's node id to the
    gradient of ``root`` with respect to that leaf; leaves the root does not
    depend on get zero gradients.
    """
    if root.tape is not tape or root.node_id is None:
        raise ValueError("backward: root is not recorded on this tape")
    if root.ndim != 0:
        raise ValueError(f"backward: root must be a scalar, got shape {root.shape}")

    adjoints: list[np.ndarray | None] = [None] * len(tape.nodes)
    adjoints[root.node_id] = np.ones(())
    for k in range(root.node_id, -1, -1):
        g = adjoints[k]
        node = tape.nodes[k]
        if g is None or node.vjp is None:
            continue
        for pid, pg in zip(node.parent_ids, node.vjp(g)):
            if pid is None or pg is None:
                continue
            if adjoints[pid] is None:
                adjoints[pid] = np.asarray(pg, dtype=np.float64)
            else:
                adjoints[pid] = adjoints[pid] + pg

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
