"""Regenerate the ``eval_5w5s`` fixture checkpoint.

Trains the criterion-4 model of ``tests/test_acceptance.py``: the
synthetic dataset ``gen_synthetic(30, 50, 32, 6.0, 1.0, seed=1)``, split
into 20 base and 10 novel classes, then 600 supervised steps and 1,000
5-way 1-shot episodes.  Writes ``fixture/c4_model.ckpt`` and
``fixture/c4_model.json``, which records the file's sha256 and the
model's novel 5-way 1-shot accuracy (100 episodes, 10 queries per class).
The benchmark refuses a checkpoint whose sha256 differs from the record.

Run from the repository root (takes about 4 minutes):

    python3 bench/make_fixture.py
"""

import hashlib
import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from dmin.episodes import gen_synthetic, split_base_novel  # noqa: E402
from dmin.harness import evaluate, meta_train, pretrain  # noqa: E402
from dmin.model import save_checkpoint  # noqa: E402
from workloads import (C4_CONFIG, C4_DATA, C4_NUM_BASE, FIXTURE,  # noqa: E402
                       FIXTURE_RECORD)


def main() -> int:
    start = time.monotonic()
    dataset = gen_synthetic(*C4_DATA, seed=C4_CONFIG.seed)
    base, novel = split_base_novel(dataset, C4_NUM_BASE, seed=C4_CONFIG.seed)
    model = pretrain(base, C4_CONFIG).model
    meta_train(model, novel, C4_CONFIG)
    report = evaluate(model, novel, C4_CONFIG)
    FIXTURE.parent.mkdir(exist_ok=True)
    save_checkpoint(model, FIXTURE)
    digest = hashlib.sha256(FIXTURE.read_bytes()).hexdigest()
    record = {"file": FIXTURE.name, "sha256": digest,
              "accuracy_5w1s": round(report.mean_accuracy, 4),
              "eval": {"episodes": report.episodes, "way": 5, "shot": 1,
                       "queries": C4_CONFIG.eval.queries_per_class,
                       "seed": C4_CONFIG.seed},
              "recipe": "tests/test_acceptance.py C4_CONFIG, "
                        "gen_synthetic(30, 50, 32, 6.0, 1.0, seed=1), "
                        "20 base classes"}
    FIXTURE_RECORD.write_text(json.dumps(record, indent=2) + "\n",
                              encoding="utf-8")
    print(f"wrote {FIXTURE} sha256 {digest} accuracy "
          f"{report.mean_accuracy:.4f} in {time.monotonic() - start:.0f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
