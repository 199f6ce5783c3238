"""Independent reference implementations used to cross-check the library.

Everything here is deliberately written straight-line with plain loops and
no imports from ``dmin``, so that a test comparing library output against
these functions is a genuine two-route check.
"""

from __future__ import annotations

import math

import numpy as np


# ---------------------------------------------------------------------------
# dynamic memory routing, transcribed naively
# ---------------------------------------------------------------------------

def _squash_ref(v):
    n2 = sum(float(x) * float(x) for x in v)
    if n2 <= 1e-24:
        return np.zeros_like(np.asarray(v, dtype=float))
    n = math.sqrt(n2)
    return (n2 / (1.0 + n2)) * (np.asarray(v, dtype=float) / n)


def _pccs_ref(x1, x2):
    x1 = np.asarray(x1, dtype=float)
    x2 = np.asarray(x2, dtype=float)
    cov = float(np.mean((x1 - x1.mean()) * (x2 - x2.mean())))
    s1 = float(x1.std())
    s2 = float(x2.std())
    if s1 <= 1e-12 or s2 <= 1e-12:
        return 0.0
    return cov / (s1 * s2)


def _softmax_ref(row):
    row = np.asarray(row, dtype=float)
    z = np.exp(row - row.max())
    return z / z.sum()


def dmr_reference(ws, bs, memory, query, iterations):
    """Plain transcription of the routing process.

    ws: list of l arrays (d_v, d_in); bs: list of l arrays (d_v,);
    memory: array (n, d_in); query: array (d_in,).  Returns the concatenated
    output capsules, an array of length l*d_v.
    """
    memory = np.asarray(memory, dtype=float)
    query = np.asarray(query, dtype=float)
    n = memory.shape[0]
    l = len(ws)

    mhat = [[_squash_ref(ws[j] @ memory[i] + bs[j]) for j in range(l)]
            for i in range(n)]
    qhat = [_squash_ref(ws[j] @ query + bs[j]) for j in range(l)]
    alpha = [[0.0 for _ in range(l)] for _ in range(n)]
    p = [[math.tanh(_pccs_ref(mhat[i][j], qhat[j])) for j in range(l)]
         for i in range(n)]

    v = [None] * l
    for _ in range(iterations):
        d = [_softmax_ref(alpha[i]) for i in range(n)]
        for j in range(l):
            vhat = np.zeros_like(qhat[j])
            for i in range(n):
                vhat = vhat + (d[i][j] + p[i][j]) * mhat[i][j]
            v[j] = _squash_ref(vhat)
        for i in range(n):
            for j in range(l):
                alpha[i][j] = alpha[i][j] + p[i][j] * float(mhat[i][j] @ v[j])
        for j in range(l):
            qhat[j] = (qhat[j] + v[j]) / 2.0
        for i in range(n):
            for j in range(l):
                p[i][j] = math.tanh(_pccs_ref(mhat[i][j], qhat[j]))

    return np.concatenate(v)


# ---------------------------------------------------------------------------
# one episode of the pipeline, end to end
# ---------------------------------------------------------------------------

def episode_reference(arrays, model_config, episode, flags):
    """Scores and loss of one episode, transcribed pair by pair.

    ``arrays`` maps parameter names to arrays; each routing operator's
    ``w`` / ``b`` stack its capsule transforms row-wise.  Only the capsule
    counts, iterations, ``share_routing`` and the encoder's bucket count
    are read from ``model_config``.  ``episode`` has ``class_ids`` and
    ``support`` / ``queries`` lists of (label, payload); a text payload is
    encoded with :func:`hash_encode_reference`, a vector passes as is.

    Each support is routed against the ``w_base`` rows (skipped under
    ``no_dmm``); each (query, class) vector routes that class's supports
    toward the query (under ``no_qim``, the supports' mean).  Returns the
    (Q, C) scores tau * cos and the loss: each query's cross-entropy,
    weighted by 1 / (classes with queries * queries of its class).
    """
    def capsules(prefix, rc):
        split = [np.split(np.asarray(arrays[prefix + k], dtype=float),
                          rc.capsule_count) for k in ("w", "b")]
        return split[0], split[1], rc.iterations

    def encode(payload):
        if isinstance(payload, str):
            return hash_encode_reference(
                payload, model_config.encoder.vocab_buckets,
                arrays["enc.projection"])
        return np.asarray(payload, dtype=float)

    dmm = capsules("dmm.", model_config.dmm)
    qim = capsules("dmm." if model_config.share_routing else "qim.",
                   model_config.qim)
    w_base = np.asarray(arrays["clf.w_base"], dtype=float)
    supports = [[] for _ in episode.class_ids]
    for label, payload in episode.support:
        e = encode(payload)
        if "no_dmm" not in flags:
            e = dmr_reference(dmm[0], dmm[1], w_base, e, dmm[2])
        supports[label].append(e)
    tau = math.exp(float(arrays["clf.log_tau"]))
    scores = []
    for _, payload in episode.queries:
        q = encode(payload)
        row = []
        for stack in supports:
            if "no_qim" in flags:
                v = sum(stack) / len(stack)
            else:
                v = dmr_reference(qim[0], qim[1], np.array(stack), q, qim[2])
            cos = float(q @ v) / (math.sqrt(float(q @ q))
                                  * math.sqrt(float(v @ v)))
            row.append(tau * cos)
        scores.append(row)
    labels = [label for label, _ in episode.queries]
    loss = 0.0
    for row, label in zip(scores, labels):
        top = max(row)
        ce = top + math.log(sum(math.exp(s - top) for s in row)) - row[label]
        loss += ce / (len(set(labels)) * labels.count(label))
    return np.array(scores), loss


# ---------------------------------------------------------------------------
# finite differences
# ---------------------------------------------------------------------------

def finite_difference_gradients(f, params, h=1e-5):
    """Central-difference gradients of scalar f(params) per parameter entry.

    ``params`` is a dict of name -> ndarray.  The function must not retain
    references to the arrays across calls.
    """
    grads = {}
    for name, value in params.items():
        value = np.asarray(value, dtype=float)
        g = np.zeros_like(value)
        flat = value.reshape(-1)
        gflat = g.reshape(-1)
        for k in range(flat.size):
            orig = flat[k]
            flat[k] = orig + h
            up = f(params)
            flat[k] = orig - h
            down = f(params)
            flat[k] = orig
            gflat[k] = (up - down) / (2.0 * h)
        grads[name] = g
    return grads


def assert_gradients_close(analytic, numeric, rel=1e-4, near_zero=1e-7):
    """Require |a-n| <= near_zero or |a-n|/max(|a|,|n|) <= rel, entrywise."""
    for name in numeric:
        a = np.asarray(analytic[name], dtype=float).reshape(-1)
        n = np.asarray(numeric[name], dtype=float).reshape(-1)
        assert a.shape == n.shape, name
        diff = np.abs(a - n)
        denom = np.maximum(np.abs(a), np.abs(n))
        bad = (diff > near_zero) & (diff > rel * denom)
        if np.any(bad):
            k = int(np.argmax(np.where(bad, diff, 0.0)))
            raise AssertionError(
                f"gradient mismatch for {name}[{k}]: analytic={a[k]!r} "
                f"numeric={n[k]!r} absdiff={diff[k]:.3e}")


# ---------------------------------------------------------------------------
# reverse pass, one column block at a time
# ---------------------------------------------------------------------------

def backward_reference(nodes, root_id):
    """Leaf gradients of the scalar node ``root_id``, by node id.

    ``nodes`` are recorded nodes, each with ``op``, ``parent_ids``,
    ``value`` and ``vjp``.  Each node's VJP runs once, in reverse id
    order, and each contribution is added to its parent's adjoint as it
    arrives.  A column block ``(ids, block)`` is added entry by entry into
    a copy of the adjoint, or into zeros if there is none yet; embed's
    ``(ids, vals, g, y)`` is first made into its block as the tuple
    ``(ids, np.outer(g * (1 - y*y), vals))``.
    """
    adjoints = {root_id: np.ones(())}
    for k in range(root_id, -1, -1):
        if k not in adjoints or nodes[k].vjp is None:
            continue
        for pid, pg in zip(nodes[k].parent_ids, nodes[k].vjp(adjoints[k])):
            if pid is None or pg is None:
                continue
            if isinstance(pg, tuple):
                if len(pg) == 4:
                    ids, vals, g, y = pg
                    pg = ids, (g * (1.0 - y * y))[:, None] * vals
                ids, block = pg
                acc = np.array(adjoints[pid] if pid in adjoints
                               else np.zeros(nodes[pid].value.shape))
                for r in range(block.shape[0]):
                    for j, col in enumerate(ids):
                        acc[r, col] = acc[r, col] + block[r, j]
                adjoints[pid] = acc
            elif pid in adjoints:
                adjoints[pid] = adjoints[pid] + pg
            else:
                adjoints[pid] = np.asarray(pg, dtype=float)
    return {k: adjoints[k] if k in adjoints else np.zeros(node.value.shape)
            for k, node in enumerate(nodes) if node.op == "leaf"}


# ---------------------------------------------------------------------------
# silhouette, O(n^2) by definition
# ---------------------------------------------------------------------------

def silhouette_reference(points, labels):
    """Mean silhouette coefficient with a(i)=0 for singletons and the
    degenerate all-zero-distance case scored 0."""
    points = np.asarray(points, dtype=float)
    labels = list(labels)
    n = len(labels)
    scores = []
    for i in range(n):
        same = [j for j in range(n) if j != i and labels[j] == labels[i]]
        if same:
            a = sum(math.dist(points[i], points[j]) for j in same) / len(same)
        else:
            a = 0.0
        b = math.inf
        for other in set(labels) - {labels[i]}:
            members = [j for j in range(n) if labels[j] == other]
            d = sum(math.dist(points[i], points[j]) for j in members) / len(members)
            b = min(b, d)
        if math.isinf(b):
            raise ValueError("silhouette needs at least two clusters")
        m = max(a, b)
        scores.append(0.0 if m == 0.0 else (b - a) / m)
    return sum(scores) / n


# ---------------------------------------------------------------------------
# classifiers used as behavioural baselines
# ---------------------------------------------------------------------------

def nearest_center_predict(centers, x):
    dists = [float(np.linalg.norm(np.asarray(x) - c)) for c in centers]
    return int(np.argmin(dists))

def prototype_predict(support_by_class, query):
    """Mean-of-supports cosine classifier: argmax_c cos(query, mean_c)."""
    query = np.asarray(query, dtype=float)
    qn = np.linalg.norm(query)
    best, best_c = -math.inf, -1
    for c, vectors in enumerate(support_by_class):
        proto = np.mean(np.asarray(vectors, dtype=float), axis=0)
        pn = np.linalg.norm(proto)
        s = 0.0 if qn <= 1e-12 or pn <= 1e-12 else float(query @ proto) / (qn * pn)
        if s > best:
            best, best_c = s, c
    return best_c


# ---------------------------------------------------------------------------
# feature hashing pipeline, straight-line
# ---------------------------------------------------------------------------

def fnv1a64_reference(data: bytes) -> int:
    h = 14695981039346656037
    for byte in data:
        h = h ^ byte
        h = (h * 1099511628211) % (1 << 64)
    return h


def hash_encode_reference(text, buckets, projection):
    """lowercase -> whitespace split -> FNV-1a bucket counts -> L2 norm ->
    projection -> tanh, written without any shared helpers."""
    counts = [0.0] * buckets
    for token in text.lower().split():
        counts[fnv1a64_reference(token.encode("utf-8")) % buckets] += 1.0
    norm = math.sqrt(sum(c * c for c in counts))
    if norm > 0:
        counts = [c / norm for c in counts]
    projected = []
    for row in np.asarray(projection, dtype=float):
        projected.append(math.tanh(sum(float(r) * c for r, c in zip(row, counts))))
    return np.array(projected)


def adam_reference(initial, grad_sequence, lr, beta1=0.9, beta2=0.999,
                   eps=1e-8):
    """Straight-line Adam update rule applied to a single array."""
    x = np.array(initial, dtype=float)
    m = np.zeros_like(x)
    v = np.zeros_like(x)
    for t, g in enumerate(grad_sequence, start=1):
        g = np.asarray(g, dtype=float)
        m = beta1 * m + (1.0 - beta1) * g
        v = beta2 * v + (1.0 - beta2) * g * g
        mhat = m / (1.0 - beta1 ** t)
        vhat = v / (1.0 - beta2 ** t)
        x = x - lr * mhat / (np.sqrt(vhat) + eps)
    return x
