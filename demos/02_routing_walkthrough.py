"""Watch dynamic memory routing move coupling weights between capsules.

A routing call reads a memory (a stack of vectors) and a query, then runs a
fixed number of agreement iterations.  The trace records the coupling
matrix and correlation gates each iteration mixes the memory with, so we
can watch them drift.
"""

import numpy as np

from dmin import numerics as nm
from dmin.routing import (RoutingConfig, RoutingParams, RoutingTrace, dmr,
                          init_routing_arrays)

rng = np.random.default_rng(3)
cfg = RoutingConfig(input_dim=8, capsule_count=2, capsule_dim=4, iterations=3)

# one stacked weight and bias hold the transforms of both capsules
arrays = init_routing_arrays(cfg, rng)
params = RoutingParams(w=nm.constant(arrays["w"]), b=nm.constant(arrays["b"]))

memory = nm.constant(rng.normal(size=(5, 8)))
query = nm.constant(rng.normal(size=8))

trace = RoutingTrace()
out = dmr(params, cfg, memory, query, trace=trace)
print(f"output dimension: {out.shape[0]} (= capsule_count x capsule_dim)")

for it, coupling in enumerate(trace.coupling):
    print(f"iteration {it}: coupling rows (one per memory entry)")
    for row in coupling:
        print("   " + "  ".join(f"{v:.3f}" for v in row))
print("each row sums to 1: the capsules compete for every memory entry")

print("correlation gates used in the last iteration "
      "(rows = memory entries, cols = capsules):")
for row in trace.gates[-1]:
    print("   " + "  ".join(f"{v:+.3f}" for v in row))

# The output never depends on the order of memory rows — exactly.
perm = rng.permutation(5)
out_perm = dmr(params, cfg, nm.constant(memory.array[perm]), query)
np.testing.assert_array_equal(out.array, out_perm.array)
print("memory permutation changed nothing, bit for bit")
