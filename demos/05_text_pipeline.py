"""Few-shot classification of raw text lines via feature hashing.

No pretrained embeddings here: each line is lowercased, whitespace-split,
token-hashed into buckets (FNV-1a), L2-normalized, then projected through a
trainable matrix with a tanh.  The rest of the pipeline is identical to the
vector case.
"""

import numpy as np

from dmin.encoder import EncoderConfig, hash_counts
from dmin.episodes import Dataset
from dmin.harness import (EvalSettings, RoutingPair, Stage1Config,
                          Stage2Config, TrainConfig, evaluate, meta_train,
                          pretrain)
from dmin.routing import RoutingConfig

VOCAB = {
    "astronomy": "comet nebula orbit telescope eclipse quasar parallax",
    "cooking": "simmer braise saute whisk marinade caramelize knead",
    "sailing": "jib halyard keel tack leeward mainsail rudder",
    "geology": "basalt stratum magma sediment fault erosion quartz",
}

rng = np.random.default_rng(13)
payloads, labels = [], []
for label, (topic, words) in enumerate(VOCAB.items()):
    pool = words.split()
    for _ in range(12):
        take = rng.choice(pool, size=4, replace=False)
        payloads.append(" ".join(take))
        labels.append(label)
ds = Dataset(payloads=payloads, labels=labels,
             class_names=list(VOCAB))
print(f"{ds.num_items} lines over {ds.num_classes} topics, e.g.:")
print(f"  {ds.class_names[0]!r}: {ds.payloads[0]!r}")

enc = EncoderConfig(kind="feature_hash", embed_dim=16, vocab_buckets=256)
ids, weights = hash_counts(ds.payloads[0], enc.vocab_buckets)
print(f"hashed counts: {len(ids)} active of "
      f"{enc.vocab_buckets} buckets, L2 norm {np.linalg.norm(weights):.3f}")

pair = RoutingPair(
    dmm=RoutingConfig(16, capsule_count=2, capsule_dim=8, iterations=2),
    qim=RoutingConfig(16, capsule_count=2, capsule_dim=8, iterations=2))
cfg = TrainConfig(
    stage1=Stage1Config(steps=120, batch_size=24, learning_rate=1e-3),
    stage2=Stage2Config(episodes=40, learning_rate=1e-3, C=3, K=2, L=3),
    eval=EvalSettings(episodes=20, queries_per_class=3),
    encoder=enc, routing=pair, seed=1)

result = pretrain(ds, cfg)
print(f"pretrain loss {result.losses[0]:.3f} -> {result.losses[-1]:.3f}, "
      f"train accuracy {result.train_accuracy:.3f}")
meta = meta_train(result.model, ds, cfg)
print(f"meta loss {meta.losses[0]:.3f} -> {meta.losses[-1]:.3f} "
      f"over {len(meta.losses)} episodes")

# Few-shot episodes over the same four topics, 3-way 2-shot.
report = evaluate(result.model, ds, cfg, way=3, shot=2, queries=3, seed=9)
print(f"episode accuracy {report.mean_accuracy:.3f} "
      f"+/- {report.std_accuracy:.3f} over {report.episodes} episodes")
