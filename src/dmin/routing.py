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

Both wrappers take stacks as well as single vectors: memories and queries
have leading batch axes that broadcast against each other, so one call
adapts every support of an episode against the shared base rows, and one
call induces a class vector for every (query, class) pair of an episode.
The routing op gives each pair in a batch the bits it gets alone; the
capsule transforms of a stack are one matrix product, whose last bits
can differ from those of one product per vector.

All arithmetic goes through :mod:`dmin.numerics`, so outputs are
differentiable whenever the inputs carry a tape.  One routing call
records one tape node, :func:`dmin.numerics.route`, after the transforms.

Within one forward pass the same memory (``W_base``, a class's support
stack) and the same query meet the same transforms in many calls.
:meth:`RoutingParams.transform` maps each input into capsule space once
and hands the result to every later call.  The model builds fresh
params on each forward pass, so that memo lives exactly one pass.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import numerics as nm
from .numerics import Tensor


# capsules per operator of the d -> d routing a pipeline gets by default
PIPELINE_CAPSULES = 4
# spread of the noise in fresh capsule transforms' weights and biases
W_INIT_STD = 0.1
B_INIT_STD = 0.1
# routing iterations a config may declare; each is unrolled in every call
MAX_ITERATIONS = 100


@dataclass(frozen=True)
class RoutingConfig:
    """Shape and iteration-count hyperparameters for one routing operator.

    ``capsule_count * capsule_dim`` is the output dimension.  Inside the
    classification pipeline both routing operators map d -> d, so there
    ``capsule_count * capsule_dim`` must equal ``input_dim``; the operator
    itself accepts any combination.  ``iterations`` is at most
    :data:`MAX_ITERATIONS`.
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
        if self.iterations > MAX_ITERATIONS:
            raise ValueError(f"iterations must be <= {MAX_ITERATIONS}, "
                             f"got {self.iterations}")
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
    def for_pipeline(cls, dim: int, capsule_count: int = PIPELINE_CAPSULES,
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
    """The ``l`` capsule transforms ``(W_j, b_j)``, stacked into one map.

    Rows ``j * capsule_dim`` to ``(j + 1) * capsule_dim`` of ``w`` and
    ``b`` are capsule ``j``'s transform, shared across memory rows.
    """

    w: Tensor  # (capsule_count * capsule_dim, input_dim)
    b: Tensor  # (capsule_count * capsule_dim,)
    _memo: dict = field(default_factory=dict, init=False, repr=False,
                        compare=False)

    def check(self, cfg: RoutingConfig) -> None:
        if self.w.shape != (cfg.output_dim, cfg.input_dim) \
                or self.b.shape != (cfg.output_dim,):
            raise ValueError(
                f"W / b have shapes {self.w.shape} / {self.b.shape}, expected "
                f"({cfg.output_dim}, {cfg.input_dim}) / ({cfg.output_dim},)")

    def transform(self, cfg: RoutingConfig, x: Tensor) -> Tensor:
        """``x``'s rows mapped into every capsule space: (..., l, d_v).

        Memoised per input Tensor and capsule shape for the life of these
        params.  An entry keeps ``x`` alive, so its ``id`` cannot be
        reused; params kept across passes keep every input alive.
        """
        caps = (cfg.capsule_count, cfg.capsule_dim)
        key = (id(x), caps)
        hit = self._memo.get(key)
        if hit is None:
            hit = self._memo[key] = (x, nm.squash(nm.reshape(
                nm.linear(x, self.w, self.b), x.shape[:-1] + caps)))
        return hit[1]


@dataclass
class RoutingTrace:
    """Numpy snapshots of routing internals, for inspection and testing.

    ``coupling[i]`` and ``gates[i]`` are the (n, capsule_count) coupling
    and gates that iteration ``i`` mixes the memory rows with, so
    ``gates[0]`` holds the initial gates and ``coupling[0]`` is
    ``1 / capsule_count`` everywhere.  ``capsule_outputs`` are the
    final capsules and ``logits`` the logits behind the last coupling.
    A batched call puts its batch axes in front of each of these.
    """

    coupling: list = field(default_factory=list)
    gates: list = field(default_factory=list)
    capsule_outputs: np.ndarray | None = None  # (capsule_count, capsule_dim)
    logits: np.ndarray | None = None           # (n, capsule_count)


def dmr(params: RoutingParams, cfg: RoutingConfig, memory: Tensor,
        query: Tensor, trace: RoutingTrace | None = None) -> Tensor:
    """Route ``memory`` rows toward ``query``; returns the concatenated capsules.

    ``memory`` is a (..., n, input_dim) Tensor with n >= 1 and ``query`` a
    (..., input_dim) Tensor.  Their leading axes broadcast by numpy's
    rules, and each entry of the broadcast batch is one memory routed
    toward one query: a (n, d) memory against a (B, d) query stack routes
    B queries against one shared memory, and a (C, n, d) stack against a
    (Q, 1, d) stack routes every query against every memory, to
    (Q, C, output_dim).  All capsules are routed together: transformed
    rows are (..., n, l, d_v), the query and the output capsules
    (..., l, d_v), and gates, logits and coupling (..., n, l).  The
    result has dimension ``cfg.output_dim`` on its last axis and is
    exactly invariant under permutations of the memory rows: the one
    cross-row reduction, the capsule mix, adds each memory's rows in the
    order of their bytes.

    Memory and query go through ``params.transform``, so a call reuses
    the transforms of any earlier call with the same params and the same
    Tensors.  The iterations are one tape node, :func:`nm.route`.  The
    agreement, logit, query and gate updates run at the top of iterations
    2..r: after the last iteration nothing reads them.
    """
    params.check(cfg)
    if not isinstance(memory, Tensor) or memory.ndim < 2 \
            or memory.shape[-2] < 1 or memory.shape[-1] != cfg.input_dim:
        raise ValueError(f"memory must be a non-empty (..., n, "
                         f"{cfg.input_dim}) Tensor, got {memory!r}")
    if query.ndim < 1 or query.shape[-1] != cfg.input_dim:
        raise ValueError(f"query has shape {query.shape}, config expects "
                         f"(..., {cfg.input_dim})")

    out, seen = nm.route(params.transform(cfg, memory),
                         params.transform(cfg, query), cfg.iterations)
    if trace is not None:
        trace.coupling.extend(seen["coupling"])
        trace.gates.extend(seen["gates"])
        trace.capsule_outputs = out.array.reshape(
            out.shape[:-1] + (cfg.capsule_count, cfg.capsule_dim))
        trace.logits = seen["logits"]
    return out


def dmm_adapt(params: RoutingParams, cfg: RoutingConfig, w_base,
              support: Tensor) -> Tensor:
    """Adapt one (d,) support vector, or every row of a (..., d) stack,
    against the rows of the base weight matrix, which all share."""
    return dmr(params, cfg, w_base, support)


def qim_induce(params: RoutingParams, cfg: RoutingConfig, adapted_supports,
               query: Tensor) -> Tensor:
    """Induce class vectors from adapted supports, conditioned on queries.

    ``adapted_supports`` is one class's (K, d) stack or a (C, K, d) stack
    of every class's; ``query`` is one (d,) query or a stack whose
    leading axes broadcast against the class axes, such as (Q, 1, d) for
    every query against every class: (Q, C, d) class vectors.
    """
    return dmr(params, cfg, adapted_supports, query)


def init_routing_arrays(cfg: RoutingConfig, rng: np.random.Generator,
                        identity_blocks: bool = False) -> dict:
    """Fresh parameter arrays ``{"w", "b"}`` for one routing operator.

    Capsule j's (W_j, b_j) is drawn in turn, j = 0..l-1, into its rows
    of ``w`` and ``b``, the layout :class:`RoutingParams` reads.  With
    ``identity_blocks`` (requires output_dim == input_dim) ``w`` starts
    as the identity plus noise, so the concatenated capsules initially
    preserve the input's direction blockwise instead of scrambling it.
    Biases start at small nonzero values: squash sends a vector of norm
    n to norm n^2 for small n, so with zero biases two chained routing
    operators can crush tiny memory rows (e.g. freshly initialized
    classifier weights) below the zero-vector guard, which silently
    kills every gradient.
    """
    if identity_blocks and cfg.output_dim != cfg.input_dim:
        raise ValueError(
            f"identity_blocks needs output_dim == input_dim, got "
            f"{cfg.output_dim} != {cfg.input_dim}")
    ws, bs = [], []
    for _ in range(cfg.capsule_count):
        ws.append(rng.normal(0.0, W_INIT_STD,
                             (cfg.capsule_dim, cfg.input_dim)))
        bs.append(rng.normal(0.0, B_INIT_STD, cfg.capsule_dim))
    w = np.concatenate(ws)
    if identity_blocks:
        w += np.eye(cfg.input_dim)
    return {"w": w, "b": np.concatenate(bs)}
