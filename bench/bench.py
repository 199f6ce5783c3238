"""dmin benchmark: throughput, set-up time and memory of the training and
evaluation stages, with a separate traced run for per-layer numbers.

Run from the repository root:

    python3 bench/bench.py --workload meta_train_5w1s --seed 1 \\
        --seconds 25 --trace 0

Workloads are defined in ``workloads.py``; ``BENCHMARK.json`` at the
repository root lists them with the metrics and their bounds.

``--trace 0`` sets the workload up several times (reporting the median
set-up time), then repeats timed stage calls until ``--seconds`` have
passed and reports end-to-end metrics:

* ``steps_per_s``: median over calls of steps per second of one call;
* ``setup_s``: median set-up time;
* ``peak_rss_mb``: peak resident memory of the process.

Both timings are scaled to the speed of the machine the benchmark was
sized on, by a host-speed kernel timed next to them (see ``hostref.py``).
The record line keeps the raw times and the speed factors.

``--trace 1`` sets up once and then runs pairs of calls from the same
state: one untraced, one under :class:`tracer.Tracer`.  It checks that
the two give identical outputs and reports per-layer metrics per step of
the traced calls.  Every ``*_ms`` metric is self time: time inside that
layer and not inside another traced layer.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  The line before it records
the machine, the settings and details that are not metrics.  A step that
raises ``NumericError``, ``DataError`` or ``ValueError`` counts as
failed, and so does every step of a run whose output check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

import hostref

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# Tape op names at the time the benchmark was defined; ops added later
# are counted under ``numerics.tape_nodes.other``.
TAPE_OPS = ("leaf", "add", "sub", "mul", "scale", "exp", "tanh", "index",
            "col", "concat", "stack_rows", "stack_cols", "matvec", "vecmat",
            "linear_rows", "squash", "squash_rows", "softmax_rows",
            "logsumexp", "cosine_rows", "pccs_rows")

# Set-up runs at least SETUP_REPEATS times and until SETUP_SECONDS have
# passed; setup_s is the median, so a cheap set-up is sampled many times.
SETUP_REPEATS = 3
SETUP_SECONDS = 1.0

# (metric, span) for each layer's self time and share of traced time.
LAYER_TIMES = (
    ("routing.qim", "routing.qim"),
    ("routing.dmm", "routing.dmm"),
    ("numerics.backward", "numerics.backward"),
    ("classifier.score", "classifier.score"),
    ("classifier.loss", "classifier.loss"),
    ("model.adam", "model.adam"),
    ("model.encode", "model.encode"),
    ("model.tensors", "model.tensors"),
    ("encoder.hash", "encoder.hash"),
    ("episodes.sample", "episodes.sample"),
    ("harness.forward", "harness.forward"),
    ("harness.stage_self", "harness.stage"),
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not args.seconds > 0:
        parser.error("--seconds must be > 0")
    return args


def git_commit() -> str | None:
    """HEAD of the checkout, read without running git; None outside one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(
                encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def machine_record() -> dict:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version', '')}".strip()
    except (TypeError, KeyError, ValueError):
        blas_name = None
    return {"nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "blas": blas_name,
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
            "DMIN_THREADS": os.environ.get("DMIN_THREADS"),
            "platform": platform.platform(),
            "git_commit": git_commit()}


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Run:
    """Attempt and failure counts of one benchmark run."""

    def __init__(self, workload):
        from dmin.episodes import DataError
        from dmin.numerics import NumericError
        self.workload = workload
        self.errors = (NumericError, DataError, ValueError)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def call(self, state, seed):
        """One timed stage call; returns (output or None, seconds)."""
        self.attempted += self.workload.steps_per_call
        start = time.perf_counter()
        try:
            out = self.workload.call(state, seed)
        except self.errors as err:
            self.failed += self.workload.steps_per_call
            self.problems.append(f"call seed {seed}: "
                                 f"{type(err).__name__}: {err}")
            return None, time.perf_counter() - start
        return out, time.perf_counter() - start

    def finish(self, state, outputs) -> bool:
        if outputs:
            self.problems += self.workload.check(state, outputs)
        else:
            self.problems.append("no stage call succeeded")
        if self.problems:
            # a failed output check makes every step of the run failed work
            self.failed = self.attempted
            return False
        return True


def run_timed(workload, seed, seconds):
    from workloads import call_seed

    setup_s, refs = [], []
    while len(setup_s) < SETUP_REPEATS or sum(setup_s) < SETUP_SECONDS:
        if len(setup_s) < SETUP_REPEATS:
            refs.append(hostref.kernel_seconds())
        start = time.perf_counter()
        state = workload.setup(seed)
        setup_s.append(time.perf_counter() - start)
    refs.append(hostref.kernel_seconds())
    setup_speed = hostref.speed(refs)

    run = Run(workload)
    outputs, raw_rates, speeds, rates = [], [], [], []
    start = time.perf_counter()
    ref = hostref.kernel_seconds()
    index = 0
    while index < 3 or time.perf_counter() - start < seconds:
        out, elapsed = run.call(state, call_seed(seed, index))
        index += 1
        ref_next = hostref.kernel_seconds()
        speed = hostref.speed((ref, ref_next))
        ref = ref_next
        if out is not None:
            outputs.append(out)
            raw_rates.append(workload.steps_per_call / elapsed)
            speeds.append(speed)
            rates.append(raw_rates[-1] / speed)
    correct = run.finish(state, outputs)
    metrics = {
        "steps_per_s": (statistics.median(rates) if rates else 0.0, "1/s"),
        "setup_s": (statistics.median(setup_s) * setup_speed, "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    details = {"calls": index, "steps_per_call": workload.steps_per_call,
               "raw_setup_s": setup_s, "setup_host_speed": setup_speed,
               "raw_steps_per_s": raw_rates, "host_speed": speeds,
               "problems": run.problems}
    return run, correct, metrics, details


def run_traced(workload, seed, seconds):
    from tracer import TARGETS, Tracer
    from workloads import call_seed, restore, snapshot

    loader = Tracer([t for t in TARGETS if t[2] == "model.load_checkpoint"])
    with loader:
        state = workload.setup(seed)
    load_s = loader.summary()["self_s"]["model.load_checkpoint"]

    run = Run(workload)
    tracer = Tracer()
    outputs, overhead, cpu_per_wall = [], [], []
    traced_steps = 0
    start = time.perf_counter()
    index = 0
    while index < 2 or time.perf_counter() - start < seconds:
        seed_i = call_seed(seed, index)
        index += 1
        saved = snapshot(state["model"]) if workload.trains else None
        cpu0 = time.process_time()
        plain, plain_s = run.call(state, seed_i)
        cpu_per_wall.append((time.process_time() - cpu0) / plain_s)
        if saved is not None:
            restore(state["model"], saved)
        with tracer, tracer.stage():
            traced, traced_s = run.call(state, seed_i)
        traced_steps += workload.steps_per_call
        if plain is None or traced is None:
            continue
        if traced != plain:
            run.problems.append(f"call seed {seed_i}: traced output differs "
                                f"from untraced")
        outputs.append(traced)
        overhead.append(traced_s / plain_s)
    correct = run.finish(state, outputs)
    metrics = layer_metrics(tracer, traced_steps, workload)
    metrics["model.load_checkpoint_ms"] = (load_s * 1e3, "ms")
    metrics["harness.cpu_per_wall"] = (statistics.median(cpu_per_wall),
                                       "ratio")
    metrics["harness.trace_overhead"] = (
        statistics.median(overhead) if overhead else 0.0, "ratio")
    details = {"calls": index, "steps_per_call": workload.steps_per_call,
               "traced_steps": traced_steps,
               "absent_layers": tracer.absent + loader.absent,
               "unlisted_ops": sorted(set(tracer.ops) - set(TAPE_OPS)),
               "problems": run.problems}
    return run, correct, metrics, details


def layer_metrics(tracer, steps, workload) -> dict:
    summary = tracer.summary()
    self_s, counts = summary["self_s"], tracer.counts
    per_step = 1.0 / steps
    traced_total = sum(self_s[span] for _, span in LAYER_TIMES)
    m = {}
    nodes = counts["numerics.tape_nodes"]
    m["numerics.tape_nodes"] = (nodes * per_step, "count")
    for op in TAPE_OPS:
        m[f"numerics.tape_nodes.{op}"] = (tracer.ops[op] * per_step, "count")
    m["numerics.tape_nodes.other"] = (
        sum(n for op, n in tracer.ops.items() if op not in TAPE_OPS)
        * per_step, "count")
    m["numerics.tape_reached_ratio"] = (
        counts["numerics.tape_reached"] / nodes if nodes else 0.0, "ratio")
    for prefix in ("routing.qim", "routing.dmm"):
        m[f"{prefix}_calls"] = (counts[prefix + ".calls"] * per_step, "count")
        m[f"{prefix}_rows"] = (counts[prefix + ".rows"] * per_step, "count")
    m["classifier.score_calls"] = (
        counts["classifier.score.calls"] * per_step, "count")
    m["model.encode_calls"] = (counts["model.encode.calls"] * per_step,
                               "count")
    m["model.adam_params"] = (counts["model.adam.rows"] * per_step, "count")
    for metric, span in LAYER_TIMES:
        m[f"{metric}_ms"] = (self_s[span] * 1e3 * per_step, "ms")
        m[f"{metric}_share"] = (
            self_s[span] / traced_total if traced_total else 0.0, "ratio")
    m["harness.eval_concurrency"] = (
        summary["episode_span_s"] / summary["stage_wall_s"]
        if workload.pooled else 0.0, "ratio")
    return m


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "dmin" / "__init__.py").is_file():
        print(f"bench: no dmin package under {SRC}; run from a checkout of "
              f"the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"bench: unknown workload {args.workload!r}; choose from "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    runner = run_traced if args.trace else run_timed
    run, correct, metrics, details = runner(workload, args.seed, args.seconds)
    record = {"workload": workload.name, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "machine": machine_record(), **details}
    print(json.dumps(record))
    print(json.dumps({
        "correct": correct, "attempted": run.attempted, "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
