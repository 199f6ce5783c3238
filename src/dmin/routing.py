"""Dynamic memory routing between a memory matrix and a query vector.

The routing operator transforms every memory row and the query into ``l``
capsule spaces, then iteratively re-weights memory contributions by the
agreement between each transformed row and the evolving output capsules.
A correlation gate (tanh of the Pearson coefficient between transformed
row and transformed query) lets individual rows encourage or penalize
their own routing weight.  Two wrappers specialize the operator:

* :func:`dmm_adapt` routes a support vector against the rows of the base
  classifier weight matrix, grounding it in previously learned classes.
* :func:`qim_induce` routes a query vector against the adapted support
  vectors of one class, producing a query-conditioned class vector.

All arithmetic goes through :mod:`dmin.numerics`, so outputs are
differentiable whenever the inputs carry a tape.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import numerics as nm
from .numerics import Tensor


@dataclass(frozen=True)
class RoutingConfig:
    """Shape and iteration-count hyperparameters for one routing operator.

    ``capsule_count * capsule_dim`` is the output dimension.  Inside the
    classification pipeline both routing operators map d -> d, so there
    ``capsule_count * capsule_dim`` must equal ``input_dim``; the operator
    itself accepts any combination.
    """

    input_dim: int
    capsule_count: int = 4
    capsule_dim: int = 8
    iterations: int = 3

    def __post_init__(self):
        for name in ("input_dim", "capsule_count", "capsule_dim", "iterations"):
            v = getattr(self, name)
            if not isinstance(v, (int, np.integer)) or v < 1:
                raise ValueError(f"{name} must be a positive integer, got {v!r}")
        if self.capsule_dim < 2:
            # the correlation gate centers each capsule; a 1-d capsule has
            # zero variance by construction and the gate would always be 0
            raise ValueError(
                f"capsule_dim must be >= 2 (correlation needs at least two "
                f"coordinates), got {self.capsule_dim}")

    @property
    def output_dim(self) -> int:
        return self.capsule_count * self.capsule_dim

    @classmethod
    def for_pipeline(cls, dim: int, capsule_count: int = 4,
                     iterations: int = 3) -> "RoutingConfig":
        """Config whose output dimension equals ``dim`` (d -> d routing)."""
        if dim % capsule_count != 0:
            raise ValueError(
                f"embedding dim {dim} is not divisible by capsule_count "
                f"{capsule_count}")
        return cls(input_dim=dim, capsule_count=capsule_count,
                   capsule_dim=dim // capsule_count, iterations=iterations)


@dataclass
class RoutingParams:
    """One transform ``(W_j, b_j)`` per output capsule, shared across rows."""

    ws: tuple  # capsule_count tensors of shape (capsule_dim, input_dim)
    bs: tuple  # capsule_count tensors of shape (capsule_dim,)

    def check(self, cfg: RoutingConfig) -> None:
        if len(self.ws) != cfg.capsule_count or len(self.bs) != cfg.capsule_count:
            raise ValueError(
                f"expected {cfg.capsule_count} capsule transforms, got "
                f"{len(self.ws)} weights / {len(self.bs)} biases")
        for j, (w, b) in enumerate(zip(self.ws, self.bs)):
            if w.shape != (cfg.capsule_dim, cfg.input_dim):
                raise ValueError(
                    f"W[{j}] has shape {w.shape}, expected "
                    f"({cfg.capsule_dim}, {cfg.input_dim})")
            if b.shape != (cfg.capsule_dim,):
                raise ValueError(
                    f"b[{j}] has shape {b.shape}, expected ({cfg.capsule_dim},)")


@dataclass
class RoutingTrace:
    """Numpy snapshots of routing internals, for inspection and testing.

    ``coupling`` and ``gates`` hold one (n, capsule_count) array per
    iteration; the remaining fields are final-iteration values.
    """

    coupling: list = field(default_factory=list)
    gates: list = field(default_factory=list)
    capsule_outputs: np.ndarray | None = None  # (capsule_count, capsule_dim)
    logits: np.ndarray | None = None           # (n, capsule_count)


def dmr(params: RoutingParams, cfg: RoutingConfig, memory: Tensor,
        query: Tensor, trace: RoutingTrace | None = None) -> Tensor:
    """Route ``memory`` rows toward ``query``; returns the concatenated capsules.

    ``memory`` is a rank-2 Tensor (n, input_dim) with n >= 1.  The result
    has dimension ``cfg.output_dim`` and is exactly invariant under
    permutations of the memory rows: every cross-row reduction is an
    exactly-rounded sum.
    """
    params.check(cfg)
    if not isinstance(memory, Tensor) or memory.ndim != 2 \
            or memory.shape[0] < 1:
        raise ValueError(
            f"memory must be a non-empty rank-2 Tensor, got {memory!r}")
    n, d_in = memory.shape
    if d_in != cfg.input_dim:
        raise ValueError(
            f"memory rows have dimension {d_in}, config expects "
            f"{cfg.input_dim}")
    if query.array.shape != (cfg.input_dim,):
        raise ValueError(
            f"query has shape {query.array.shape}, config expects "
            f"({cfg.input_dim},)")

    # transform every row and the query into each capsule space
    mhat = [nm.squash(nm.linear(memory, params.ws[j], params.bs[j]))
            for j in range(cfg.capsule_count)]
    qhat = [nm.squash(nm.linear(query, params.ws[j], params.bs[j]))
            for j in range(cfg.capsule_count)]
    gates = [nm.tanh(nm.pccs(mhat[j], qhat[j]))
             for j in range(cfg.capsule_count)]
    logits = [nm.constant(np.zeros(n)) for _ in range(cfg.capsule_count)]

    capsules = [None] * cfg.capsule_count
    for _ in range(cfg.iterations):
        coupling = nm.softmax(nm.stack_cols(logits))
        for j in range(cfg.capsule_count):
            weight = nm.add(nm.col(coupling, j), gates[j])
            pre = nm.vecmat(weight, mhat[j])
            capsules[j] = nm.squash(pre)
            agree = nm.linear(capsules[j], mhat[j])
            logits[j] = nm.add(logits[j], nm.mul(gates[j], agree))
            qhat[j] = nm.scale(nm.add(qhat[j], capsules[j]), 0.5)
            gates[j] = nm.tanh(nm.pccs(mhat[j], qhat[j]))
        if trace is not None:
            trace.coupling.append(coupling.array.copy())
            trace.gates.append(
                np.stack([g.array for g in gates], axis=1))
    if trace is not None:
        trace.capsule_outputs = np.stack([v.array for v in capsules])
        trace.logits = np.stack([a.array for a in logits], axis=1)
    return nm.concat(capsules)


def dmm_adapt(params: RoutingParams, cfg: RoutingConfig, w_base,
              support: Tensor) -> Tensor:
    """Adapt one support vector against the rows of the base weight matrix."""
    return dmr(params, cfg, w_base, support)


def qim_induce(params: RoutingParams, cfg: RoutingConfig, adapted_supports,
               query: Tensor) -> Tensor:
    """Induce a class vector from adapted supports, conditioned on a query."""
    return dmr(params, cfg, adapted_supports, query)


def init_routing_arrays(cfg: RoutingConfig, rng: np.random.Generator,
                        std: float = 0.1, bias_std: float = 0.1,
                        identity_blocks: bool = False) -> dict:
    """Fresh parameter arrays for one routing operator, keyed w_0..b_{l-1}.

    With ``identity_blocks`` (requires output_dim == input_dim) each W_j
    starts as the j-th block-row of the identity plus noise, so the
    concatenated capsules initially preserve the input's direction
    blockwise instead of scrambling it.  Biases start at small nonzero
    values: squash sends a vector of norm n to norm n^2 for small n, so
    with zero biases two chained routing operators can crush tiny memory
    rows (e.g. freshly initialized classifier weights) below the
    zero-vector guard, which silently kills every gradient.
    """
    if identity_blocks and cfg.output_dim != cfg.input_dim:
        raise ValueError(
            f"identity_blocks needs output_dim == input_dim, got "
            f"{cfg.output_dim} != {cfg.input_dim}")
    out = {}
    for j in range(cfg.capsule_count):
        w = rng.normal(0.0, std, (cfg.capsule_dim, cfg.input_dim))
        if identity_blocks:
            w += np.eye(cfg.input_dim)[j * cfg.capsule_dim:
                                       (j + 1) * cfg.capsule_dim]
        out[f"w_{j}"] = w
        out[f"b_{j}"] = rng.normal(0.0, bias_std, cfg.capsule_dim)
    return out


def params_from_tensors(tensors: dict, prefix: str,
                        cfg: RoutingConfig) -> RoutingParams:
    """Collect ``{prefix}w_j`` / ``{prefix}b_j`` tensors into RoutingParams."""
    try:
        ws = tuple(tensors[f"{prefix}w_{j}"] for j in range(cfg.capsule_count))
        bs = tuple(tensors[f"{prefix}b_{j}"] for j in range(cfg.capsule_count))
    except KeyError as missing:
        raise ValueError(f"missing routing parameter {missing}") from None
    p = RoutingParams(ws=ws, bs=bs)
    p.check(cfg)
    return p
