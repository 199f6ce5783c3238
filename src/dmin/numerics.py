"""Dense float64 tensors plus a reverse-mode differentiation tape.

Everything else in the package is written against this module: vectors and
matrices are immutable :class:`Tensor` values, and training records forward
operations on a :class:`Tape` so that :func:`backward` can accumulate exact
adjoints for every leaf parameter.

Conventions:

- scalars are rank-0, vectors rank-1, matrices rank-2.  :func:`linear`,
  :func:`squash`, :func:`softmax`, :func:`cosine` and :func:`pccs` act
  along the last axis and treat any leading axes as independent rows; the
  rank-1 ``q`` of :func:`cosine` and :func:`pccs` is broadcast against
  every row, so a rank-1 input is simply a single row.  There is no other
  broadcasting except scalar-times-tensor in :func:`mul`,
- every public operation validates that its result is finite and raises
  :class:`NumericError` otherwise (silent NaN/Inf propagation is a bug),
- a result is recorded on a tape iff at least one input is recorded; mixing
  inputs from two different tapes is an error,
- norm and variance denominators are guarded by ``EPS = 1e-12``: squash maps
  (near-)zero rows to zero, and cosine and pccs of a (near-)zero or constant
  row are 0, with zero gradient.
"""

from __future__ import annotations

import math
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
    "col",
    "concat",
    "stack_rows",
    "stack_cols",
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
        if a.ndim == 0 and g.ndim != 0:
            ga = np.sum(g * bv)
        if b.ndim == 0 and g.ndim != 0:
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
    out = xv @ wv.T
    if b is None:
        parents = (x, w)
    else:
        out = out + b.array
        parents = (x, w, b)

    def vjp(g):
        # gw sums one outer product per row; np.outer computes a single
        # row's about 4x faster than a matmul with inner dimension 1
        rows = g.reshape(-1, wv.shape[0])
        xrows = xv.reshape(-1, wv.shape[1])
        gw = np.outer(rows, xrows) if len(rows) == 1 else rows.T @ xrows
        grads = (g @ wv, gw)
        return grads if b is None else grads + (rows.sum(axis=0),)

    return _result("linear", out, parents, vjp)


def vecmat(w: Tensor, m: Tensor) -> Tensor:
    """Row mixture ``w @ m`` = sum_i w_i * m[i].

    The reduction over rows is done with exactly rounded summation
    (``math.fsum``) so the result is bit-identical under any permutation of
    the rows together with ``w``.  This is the only place a memory-indexed
    sum occurs in dynamic routing, which makes routing output exactly
    permutation invariant.
    """
    _need_shape("vecmat", w, 1)
    _need_shape("vecmat", m, 2)
    if w.shape[0] != m.shape[0]:
        raise ValueError(f"vecmat: shape mismatch {w.shape} @ {m.shape}")
    wv, mv = w.array, m.array
    prods = wv[:, None] * mv
    out = np.array([math.fsum(prods[:, k]) for k in range(mv.shape[1])])
    return _result("vecmat", out, (w, m),
                   lambda g: (mv @ g, np.outer(wv, g)))


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

def dot(a: Tensor, b: Tensor) -> Tensor:
    _need_shape("dot", a, 1)
    _need_shape("dot", b, 1)
    if a.shape != b.shape:
        raise ValueError(f"dot: shape mismatch {a.shape} vs {b.shape}")
    av, bv = a.array, b.array
    return _result("dot", av @ bv, (a, b),
                   lambda g: (float(g) * bv, float(g) * av))


def index(x: Tensor, i: int) -> Tensor:
    """Select entry ``i`` of a vector as a scalar."""
    _need_shape("index", x, 1)
    i = int(i)
    if not 0 <= i < x.shape[0]:
        raise ValueError(f"index: {i} out of range for length {x.shape[0]}")

    def vjp(g):
        gx = np.zeros(x.shape)
        gx[i] = float(g)
        return (gx,)

    return _result("index", x.array[i], (x,), vjp)


def col(a: Tensor, j: int) -> Tensor:
    """Select column ``j`` of a matrix as a vector."""
    _need_shape("col", a, 2)
    j = int(j)
    if not 0 <= j < a.shape[1]:
        raise ValueError(f"col: {j} out of range for {a.shape[1]} columns")

    def vjp(g):
        ga = np.zeros(a.shape)
        ga[:, j] = g
        return (ga,)

    return _result("col", a.array[:, j].copy(), (a,), vjp)


def concat(parts: Sequence[Tensor]) -> Tensor:
    """Concatenate vectors into one vector."""
    if not parts:
        raise ValueError("concat: empty input")
    for p in parts:
        _need_shape("concat", p, 1)
    sizes = [p.shape[0] for p in parts]
    offsets = np.cumsum([0] + sizes)

    def vjp(g):
        return tuple(g[offsets[k]:offsets[k + 1]] for k in range(len(parts)))

    return _result("concat", np.concatenate([p.array for p in parts]), tuple(parts), vjp)


def stack_rows(rows: Sequence[Tensor]) -> Tensor:
    """Stack equal-length vectors as the rows of a matrix."""
    if not rows:
        raise ValueError("stack_rows: empty input")
    for r in rows:
        _need_shape("stack_rows", r, 1)
    if len({r.shape[0] for r in rows}) != 1:
        raise ValueError("stack_rows: rows have differing lengths")

    def vjp(g):
        return tuple(g[k] for k in range(len(rows)))

    return _result("stack_rows", np.stack([r.array for r in rows]), tuple(rows), vjp)


def stack_cols(cols: Sequence[Tensor]) -> Tensor:
    """Stack equal-length vectors as the columns of a matrix."""
    if not cols:
        raise ValueError("stack_cols: empty input")
    for c in cols:
        _need_shape("stack_cols", c, 1)
    if len({c.shape[0] for c in cols}) != 1:
        raise ValueError("stack_cols: columns have differing lengths")

    def vjp(g):
        return tuple(g[:, k] for k in range(len(cols)))

    return _result("stack_cols", np.stack([c.array for c in cols], axis=1),
                   tuple(cols), vjp)


# ---------------------------------------------------------------------------
# correlation and similarity
# ---------------------------------------------------------------------------

def _centre(a):
    # sum / count is exactly how numpy computes mean(), minus its overhead
    return a - a.sum(axis=-1, keepdims=True) / a.shape[-1]


def _check_rows_vs_query(op: str, m: Tensor, q: Tensor, min_len: int) -> None:
    if m.ndim < 1 or q.ndim != 1 or m.shape[-1] != q.shape[0]:
        raise ValueError(f"{op}: shape mismatch {m.shape} vs {q.shape}")
    if q.shape[0] < min_len:
        raise ValueError(
            f"{op}: need rows of length >= {min_len}, got shape {m.shape}")


def _row_cosines(op, mv, qv, parents, project):
    """Cosine of each row of ``mv`` with ``qv``, recorded as one node.

    ``project`` maps the (row, query) gradients of the cosine to those of
    ``parents``.
    """
    nq = math.sqrt(float(qv @ qv))
    nrows = np.sqrt(_rowdot(mv, mv))
    live = (nrows > EPS) & (nq > EPS)
    safe_rows = np.where(live, nrows, 1.0)
    safe_q = nq if nq > EPS else 1.0
    c = np.where(live, (mv @ qv) / (safe_rows * safe_q), 0.0)

    def vjp(g):
        gl = np.where(live, g, 0.0)
        a = gl / (safe_rows * safe_q)
        gm = a[..., None] * qv \
            - (gl * c / (safe_rows * safe_rows))[..., None] * mv
        gq = mv.reshape(-1, qv.shape[0]).T @ a.reshape(-1) \
            - qv * float((gl * c).sum()) / (safe_q * safe_q)
        return project(gm, gq)

    return _result(op, np.clip(c, -1.0, 1.0), parents, vjp)


def cosine(m: Tensor, q: Tensor) -> Tensor:
    """Cosine similarity of each row of ``m`` with ``q``.

    0 where either norm is below EPS.  A rank-1 ``m`` gives a scalar.
    """
    _check_rows_vs_query("cosine", m, q, 1)
    return _row_cosines("cosine", m.array, q.array, (m, q),
                        lambda gm, gq: (gm, gq))


def pccs(m: Tensor, q: Tensor) -> Tensor:
    """Pearson correlation of each row of ``m`` with ``q``.

    The entries of a row and of ``q`` are paired samples, so rows need
    length 2 or more: a single sample has no variance to correlate.  Equal
    to the cosine of the mean-centred row and query, so rows with (near)
    zero variance yield 0, a neutral value for routing.  Centring is fused
    into the node: it is a symmetric projection, so the VJP applies it
    unchanged to the incoming gradients.
    """
    _check_rows_vs_query("pccs", m, q, 2)
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
