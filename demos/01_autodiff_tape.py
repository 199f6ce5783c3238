"""A tour of the reverse-mode tape: record, differentiate, verify.

Everything trainable in this package flows through the same small set of
taped operations, so this is the place to start.  We build a scalar out of
a few ops, pull gradients back, and check one of them against a central
finite difference.
"""

import numpy as np

from dmin import numerics as nm

rng = np.random.default_rng(7)

# Leaves are recorded on a tape; constants are not and get no gradient.
tape = nm.Tape()
w = tape.leaf(rng.normal(size=(3, 5)))
x = nm.constant(rng.normal(size=5))

# y = tanh(W x), loss = y . y
y = nm.tanh(nm.linear(x, w))
loss = nm.dot(y, y)
print(f"loss value: {loss.item():.6f}")
print(f"tape length: {len(tape)} nodes")

grads = nm.backward(tape, loss)
gw = grads[w.node_id]
print(f"dloss/dW has shape {gw.shape}")

# Wiggle one weight entry and compare against the tape's answer.
h = 1e-6
base = w.array.copy()


def loss_at(delta):
    probe = base.copy()
    probe[1, 2] += delta
    yv = np.tanh(probe @ x.array)
    return float(yv @ yv)


fd = (loss_at(h) - loss_at(-h)) / (2 * h)
print(f"tape grad  [1,2]: {gw[1, 2]: .10f}")
print(f"finite diff[1,2]: {fd: .10f}")
assert abs(gw[1, 2] - fd) < 1e-6

# Non-finite values are refused at the op that produces them.
try:
    nm.exp(nm.constant(np.array([1000.0])))
except nm.NumericError as err:
    print(f"overflow is caught eagerly: {err}")
