"""Model parameters, the Adam update rule, checkpoints, and config decoding.

A model is a flat ``name -> float64 array`` dictionary plus a
:class:`ModelConfig` describing shapes.  Parameter names are prefixed
by component: ``enc.`` (encoder projection), ``clf.`` (base weight
rows and log-temperature), ``dmm.`` / ``qim.`` (routing transforms:
one ``w`` and one ``b`` per operator, every capsule's rows stacked as
:class:`RoutingParams` reads them).  With ``share_routing`` both
routing operators read the ``dmm.`` set and no ``qim.`` parameters
exist.

Checkpoints are single JSON files: a manifest with config, format
version and a sha256 checksum, and each array embedded as base64 of
its little-endian float64 bytes.  Serialization is canonical (sorted
keys, fixed separators), so save -> load -> save is byte-identical.
Format version 1 stores each routing ``w`` / ``b`` as one ``w_j`` /
``b_j`` per capsule; load stacks them again, and
:meth:`Model.param_digest` hashes this on-disk layout.
"""

from __future__ import annotations

import base64
import hashlib
import json
import math
import sys
from dataclasses import MISSING, asdict, dataclass, field, fields

import numpy as np

from . import numerics as nm
from .classifier import CosineClassifier, init_classifier_arrays
from .encoder import EncoderConfig, FeatureHashEncoder, init_encoder_arrays
from .episodes import _F64_MAX, DataError
from .numerics import Tensor
from .routing import RoutingConfig, RoutingParams, init_routing_arrays

CHECKPOINT_VERSION = 1


class CheckpointError(ValueError):
    """Unreadable, corrupt, or incompatible checkpoint file."""


@dataclass(frozen=True)
class ModelConfig:
    embed_dim: int
    num_base_classes: int
    encoder: EncoderConfig
    dmm: RoutingConfig
    qim: RoutingConfig
    share_routing: bool = False

    def __post_init__(self):
        if self.embed_dim != self.encoder.embed_dim:
            raise ValueError(
                f"embed_dim {self.embed_dim} != encoder.embed_dim "
                f"{self.encoder.embed_dim}")
        for name, rc in (("dmm", self.dmm), ("qim", self.qim)):
            if rc.input_dim != self.embed_dim:
                raise ValueError(
                    f"{name}.input_dim {rc.input_dim} != embed_dim "
                    f"{self.embed_dim}")
            if rc.output_dim != self.embed_dim:
                raise ValueError(
                    f"{name} output dimension {rc.output_dim} != embed_dim "
                    f"{self.embed_dim}")
        if self.num_base_classes < 1:
            raise ValueError(
                f"num_base_classes must be >= 1, got {self.num_base_classes}")
        if self.share_routing and self.dmm != self.qim:
            raise ValueError(
                "share_routing requires identical dmm and qim configs")

    @property
    def routing_owners(self) -> dict:
        """Prefix -> config of each routing operator that owns parameters:
        ``dmm.``, and ``qim.`` unless qim reads dmm's (``share_routing``)."""
        return ({"dmm.": self.dmm} if self.share_routing
                else {"dmm.": self.dmm, "qim.": self.qim})


# per scalar field type: the JSON values it takes, and their wording; a
# bool is not an int, and abs(v) <= max refuses NaN, inf and huge ints
_SCALARS = {
    "int": (lambda v: type(v) is int, "an integer"),
    "bool": (lambda v: type(v) is bool, "true or false"),
    "float": (lambda v: type(v) in (int, float) and abs(v) <= _F64_MAX,
              "a finite number"),
    "str": (lambda v: type(v) is str, "a string"),
}


def config_from_dict(cls, raw, key: str = ""):
    """Config dataclass ``cls`` from the JSON object ``raw``, typed by
    ``cls``'s annotations: nested config dataclasses recurse, only
    ``T | None`` fields take null, and scalars take what :data:`_SCALARS`
    allows.  Unknown, missing or mistyped fields raise :class:`DataError`
    naming the dotted key below ``key``, and so does a nested config's
    own refusal, prefixed with ``key``."""
    what = f"config key {key!r}" if key else "config"
    if type(raw) is not dict:
        raise DataError(f"{what} must be an object")
    declared = fields(cls)
    unknown = set(raw).difference(f.name for f in declared)
    if unknown:
        raise DataError(f"{what} has unknown fields {sorted(unknown)}")
    scope = vars(sys.modules[cls.__module__])  # where annotations resolve
    values = {}
    for f in declared:
        name = f"{key}.{f.name}" if key else f.name
        if f.name not in raw:
            if f.default is MISSING:
                raise DataError(f"config key {name} is missing")
            continue
        v = values[f.name] = raw[f.name]
        # annotations are strings under postponed evaluation: "T | None"
        type_name, _, optional = f.type.partition(" | ")
        if v is None and optional:
            continue
        if type_name not in _SCALARS:
            values[f.name] = config_from_dict(scope[type_name], v, name)
        elif not _SCALARS[type_name][0](v):
            raise DataError(f"config field {name} must be "
                            f"{_SCALARS[type_name][1]}, got {v!r}")
    try:
        return cls(**values)
    except ValueError as err:
        if not key:  # the top level's refusals name their own keys
            raise
        raise DataError(f"{key}.{err}") from err


@dataclass
class Model:
    config: ModelConfig
    params: dict  # name -> np.ndarray, float64
    meta: dict = field(default_factory=dict)  # e.g. which stages have run

    def tensors(self, tape: nm.Tape | None = None) -> dict:
        """All parameters as Tensors: tape leaves when training, else constants."""
        if tape is None:
            return {k: nm.constant(v) for k, v in self.params.items()}
        return {k: tape.leaf(v) for k, v in self.params.items()}

    def classifier(self, tensors: dict) -> CosineClassifier:
        return CosineClassifier(w_base=tensors["clf.w_base"],
                                log_tau=tensors["clf.log_tau"])

    def dmm_params(self, tensors: dict) -> RoutingParams:
        return RoutingParams(w=tensors["dmm.w"], b=tensors["dmm.b"])

    def qim_params(self, tensors: dict) -> RoutingParams:
        p = "qim." if "qim." in self.config.routing_owners else "dmm."
        return RoutingParams(w=tensors[p + "w"], b=tensors[p + "b"])

    def encode(self, tensors: dict, payload) -> Tensor:
        """Sample vector for one payload: text through the hash encoder,
        precomputed vectors passed straight through."""
        if isinstance(payload, np.ndarray):
            self._check_vector(payload)
            return nm.constant(payload)
        if self.config.encoder.kind != "feature_hash":
            raise ValueError(
                f"text payloads need a feature_hash encoder, model was "
                f"built with {self.config.encoder.kind!r}")
        enc = FeatureHashEncoder(self.config.encoder,
                                 tensors["enc.projection"])
        return enc.encode(payload)

    def encode_vectors(self, vectors: np.ndarray, *at) -> list:
        """Sample vectors of a dataset's (N, d) ``vectors``, which the
        dataset checked: for each index array in ``at``, the rows there as
        one constant, as :meth:`encode` of each would give them stacked.
        The dimension is checked once."""
        self._check_vector(vectors[0])
        return [Tensor(vectors.take(index, axis=0)) for index in at]

    def _check_vector(self, payload: np.ndarray) -> None:
        if payload.shape != (self.config.embed_dim,):
            raise ValueError(
                f"vector payload has shape {payload.shape}, model "
                f"expects ({self.config.embed_dim},)")

    def param_digest(self) -> str:
        """sha256 of the parameters in the checkpoint layout."""
        h = hashlib.sha256()
        for name, arr in _disk_arrays(self).items():
            h.update(name.encode())
            h.update(arr.tobytes())
        return h.hexdigest()


def init_model(config: ModelConfig, seed: int = 0) -> Model:
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed])))
    parts = [("enc.", init_encoder_arrays(config.encoder, rng)),
             ("clf.", init_classifier_arrays(config.num_base_classes,
                                             config.embed_dim, rng))]
    parts += [(prefix, init_routing_arrays(rc, rng, identity_blocks=True))
              for prefix, rc in config.routing_owners.items()]
    return Model(config=config, params={
        prefix + k: v for prefix, arrays in parts for k, v in arrays.items()})


# ---------------------------------------------------------------------------
# optimizer
# ---------------------------------------------------------------------------

# entries per block of a large parameter's Adam update: six float64 blocks
# (parameter, gradient, two moments, two scratch rows) take 1.5 MB
_CHUNK = 1 << 15


@dataclass
class Adam:
    """Adam update rule; state is kept per parameter name.

    ``m`` and ``v`` hold the first and second moments.  For a matrix
    parameter, ``cols`` holds the sorted ids of the columns that have ever
    had a nonzero gradient entry, and ``m`` and ``v`` are compact, of
    shape (rows, live columns): a column's moments start at zero when it
    first goes live.  A column that has never been live is skipped, and
    that is exact: an entry whose gradient and moments are all +-0 keeps
    zero moments, and its parameter moves by exactly 0.  A matrix with no
    live column keeps no state; once every column is live, its moments
    have the parameter's shape and it is updated in place.  Other
    parameters are always updated whole.

    An update larger than one block runs in 32K-entry blocks that stay
    in cache, one after another on the caller's thread.  Every entry gets
    the same operations in the same order, so the result is bit-identical
    to a whole-array update of every entry.
    """

    lr: float
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    t: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)
    cols: dict = field(default_factory=dict)

    def step(self, params: dict, grads: dict) -> None:
        """One update of every parameter named in ``grads``, in place.

        Before any parameter or state moves, raises :class:`ValueError`
        if a gradient names no parameter or has a shape other than its
        parameter's, and :class:`NumericError` if it has a nan or inf
        entry.  That is the one finiteness scan of a training step's
        gradients: :func:`dmin.numerics.backward` does not check them.
        A matrix with a column not yet live is scanned for its live
        columns first, and only those are checked; a nan or inf entry is
        nonzero, so its column is among them.
        """
        updates = []
        for name, g in grads.items():
            p = params.get(name)
            if p is None or g.shape != p.shape:
                raise ValueError(
                    f"gradient for {name} has shape {g.shape}, but "
                    + ("there is no such parameter" if p is None
                       else f"the parameter has shape {p.shape}"))
            ids, live = None, self.cols.get(name)
            if p.ndim == 2 and (live is None or len(live) < p.shape[1]):
                hit = g.any(axis=0)
                if live is not None:
                    hit[live] = True
                ids = np.flatnonzero(hit)
                if not len(ids):  # never hit: nothing to check or move
                    continue
                if len(ids) < p.shape[1]:
                    g = g.take(ids, axis=1)
            # the sum is the cheap test (any nan or inf makes it
            # non-finite); a finite gradient may still overflow it
            if not math.isfinite(g.sum()) and not np.isfinite(g).all():
                raise nm.NumericError(
                    f"non-finite gradient for {name} at step {self.t + 1}")
            updates.append((name, p, g, ids))
        self.t += 1
        c1, c2 = 1.0 - self.beta1 ** self.t, 1.0 - self.beta2 ** self.t
        for name, p, g, ids in updates:
            if ids is not None:
                m, v = self._moments(name, ids, p.shape[0])
                if len(ids) < p.shape[1]:
                    block = p.take(ids, axis=1)
                    self._apply(block, m, v, g, c1, c2)
                    p.put(ids + p.shape[1] * np.arange(p.shape[0])[:, None],
                          block)
                    continue
            elif name not in self.m:
                self.m[name] = np.zeros(p.shape)  # C-contiguous
                self.v[name] = np.zeros(p.shape)
            self._apply(p, self.m[name], self.v[name], g, c1, c2)

    def _moments(self, name, ids, rows):
        """The compact moments of a matrix at its live columns ``ids``, a
        superset of the columns they held: zero for the new ones."""
        live = self.cols.get(name)
        if live is not None and len(live) == len(ids):
            return self.m[name], self.v[name]
        m, v = np.zeros((rows, len(ids))), np.zeros((rows, len(ids)))
        if live is not None:
            at = np.searchsorted(ids, live)
            m[:, at], v[:, at] = self.m[name], self.v[name]
        self.m[name], self.v[name], self.cols[name] = m, v, ids
        return m, v

    def _apply(self, p, m, v, g, c1, c2) -> None:
        """:meth:`_update` of the C-contiguous moments ``m`` and ``v`` and
        their parameter ``p`` by ``g``: whole when it fits one block or
        ``p`` is not C-contiguous, else one ``_CHUNK``-entry block at a
        time, through one pair of scratch rows of its own."""
        if m.size <= _CHUNK or not p.flags.c_contiguous:
            self._update(p, m, v, g, np.empty_like(m), np.empty_like(m),
                         c1, c2)
            return
        scratch = np.empty((2, _CHUNK))
        p, m, v, g = p.reshape(-1), m.reshape(-1), v.reshape(-1), g.reshape(-1)
        for a in range(0, p.size, _CHUNK):
            b = min(a + _CHUNK, p.size)
            self._update(p[a:b], m[a:b], v[a:b], g[a:b],
                         scratch[0, :b - a], scratch[1, :b - a], c1, c2)

    def _update(self, p, m, v, g, s, u, c1, c2) -> None:
        """m = b1*m + (1-b1)*g, v = b2*v + (1-b2)*g*g and
        p -= lr*(m/c1) / (sqrt(v/c2) + eps), in place and in that
        operation order, through the scratch arrays ``s`` and ``u``;
        out= keeps a rank-0 result an array, where the plain ufunc would
        return a scalar."""
        b1, b2 = self.beta1, self.beta2
        m *= b1
        m += np.multiply(1.0 - b1, g, out=s)
        v *= b2
        np.multiply(1.0 - b2, g, out=s)
        s *= g
        v += s
        np.divide(m, c1, out=s)
        np.divide(v, c2, out=u)
        np.sqrt(u, out=u)
        u += self.eps
        s *= self.lr
        s /= u
        p -= s


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------

def _capsule_split(config: ModelConfig):
    """Each stacked routing parameter, its v1 checkpoint keys and their
    shape: ``dmm.w_j`` holds capsule j's block of rows of ``dmm.w``."""
    for prefix, rc in config.routing_owners.items():
        for name, shape in (("w", (rc.capsule_dim, rc.input_dim)),
                            ("b", (rc.capsule_dim,))):
            yield (prefix + name, [f"{prefix}{name}_{j}" for j in
                                   range(rc.capsule_count)], shape)


def _disk_arrays(model: Model) -> dict:
    """``model.params`` in the v1 checkpoint layout, sorted by name, as
    little-endian float64: routing parameters as per-capsule row slices."""
    arrays = dict(model.params)
    for name, keys, _ in _capsule_split(model.config):
        arrays.update(zip(keys, np.split(arrays.pop(name), len(keys))))
    return {k: np.asarray(arrays[k], dtype="<f8") for k in sorted(arrays)}


def _manifest(model: Model) -> dict:
    arrays = {name: {"shape": list(arr.shape),
                     "data": base64.b64encode(arr.tobytes()).decode("ascii")}
              for name, arr in _disk_arrays(model).items()}
    return {
        "format_version": CHECKPOINT_VERSION,
        "config": asdict(model.config),
        "meta": model.meta,
        "params": arrays,
    }


def _canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def save_checkpoint(model: Model, path) -> None:
    body = _manifest(model)
    body["checksum"] = hashlib.sha256(
        _canonical({k: body[k] for k in body if k != "checksum"})
        .encode()).hexdigest()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_canonical(body))
        fh.write("\n")


def load_checkpoint(path) -> Model:
    try:
        with open(path, encoding="utf-8") as fh:
            body = json.load(fh)
    except (OSError, json.JSONDecodeError) as err:
        raise CheckpointError(f"cannot read checkpoint {path}: {err}") from err
    if not isinstance(body, dict) or "format_version" not in body:
        raise CheckpointError(f"{path}: not a checkpoint file")
    if body["format_version"] != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"{path}: format version {body['format_version']} not supported "
            f"(this build reads version {CHECKPOINT_VERSION})")
    recorded = body.get("checksum")
    actual = hashlib.sha256(
        _canonical({k: body[k] for k in body if k != "checksum"})
        .encode()).hexdigest()
    if recorded != actual:
        raise CheckpointError(
            f"{path}: checksum mismatch (file corrupt): recorded "
            f"{str(recorded)[:12]}.., computed {actual[:12]}..")
    raw_config, arrays, meta = (body.get("config"), body.get("params"),
                                body.get("meta", {}))
    for key, value in (("params", arrays), ("meta", meta)):
        if not isinstance(value, dict):
            raise CheckpointError(f"{path}: {key!r} must be a JSON object")
    try:
        config = config_from_dict(ModelConfig, raw_config)
    except ValueError as err:  # DataError included
        raise CheckpointError(f"{path}: {err}") from err
    params = {}
    for name, entry in arrays.items():
        try:
            raw = base64.b64decode(entry["data"], validate=True)
            shape = tuple(entry["shape"])
        except (KeyError, TypeError, ValueError) as err:
            raise CheckpointError(
                f"{path}: bad array entry {name!r}: {err}") from err
        if not all(type(k) is int and k >= 0 for k in shape):
            raise CheckpointError(
                f"{path}: array {name!r} has a bad shape {list(shape)}")
        arr = np.frombuffer(raw, dtype="<f8")
        if arr.size != int(np.prod(shape, dtype=np.int64)):
            raise CheckpointError(
                f"{path}: array {name!r} has {arr.size} values, shape "
                f"{shape} needs {int(np.prod(shape, dtype=np.int64))}")
        params[name] = arr.reshape(shape).astype(np.float64)
    _check_shapes(config, params, path)
    for name, keys, _ in _capsule_split(config):
        params[name] = np.concatenate([params.pop(k) for k in keys])
    return Model(config=config, params=params, meta=dict(meta))


def _check_shapes(cfg: ModelConfig, params: dict, path) -> None:
    expected = {"clf.w_base": (cfg.num_base_classes, cfg.embed_dim),
                "clf.log_tau": ()}
    if cfg.encoder.kind == "feature_hash":
        expected["enc.projection"] = (cfg.embed_dim,
                                      cfg.encoder.vocab_buckets)
    for _, keys, shape in _capsule_split(cfg):
        expected.update(dict.fromkeys(keys, shape))
    for name, shape in expected.items():
        if name not in params:
            raise CheckpointError(f"{path}: missing parameter {name!r}")
        if params[name].shape != shape:
            raise CheckpointError(
                f"{path}: parameter {name!r} has shape {params[name].shape}"
                f", config requires {shape}")
    extras = set(params) - set(expected)
    if extras:
        raise CheckpointError(
            f"{path}: unexpected parameters {sorted(extras)}")
