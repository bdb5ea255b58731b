#!/usr/bin/env python3
"""Per-class cosine similarity between student certainty and teacher IoU.

The label-free certainty table should rank teachers the way their true
per-class IoU does; cosine values near 1 for every class are the evidence
that backs the certainty-aware policy.
"""

import argparse
import os

from segfuse.distill import TrainConfig, certainty_selection_protocol
from segfuse.fileio import write_text_atomic
from segfuse.metrics import certainty_iou_cosine, dataset_iou
from segfuse.synth import BenchmarkConfig, make_benchmark
from segfuse.unify import unify
from segfuse.util import rows_to_csv

parser = argparse.ArgumentParser(description=__doc__)
parser.add_argument("--outdir", default="results")
parser.add_argument("--seed", type=int, default=0)
parser.add_argument("--seeds", type=int, default=3)
parser.add_argument("--iterations", type=int, default=200)
args = parser.parse_args()

config = BenchmarkConfig()
tc = TrainConfig(iterations=args.iterations, seed=args.seed)
rows = []
for seed in range(args.seed, args.seed + args.seeds):
    bench = make_benchmark(config, seed)
    unified = [[unify(pm) for pm in maps] for maps in bench.teacher_probs]
    reports = [dataset_iou(maps, bench.gts) for maps in unified]
    proto = certainty_selection_protocol(list(bench.teacher_probs), bench.feats, config=tc)
    sims = certainty_iou_cosine(proto.table, reports)
    for c, sim in enumerate(sims):
        rows.append((seed, c, float(sim)))

os.makedirs(args.outdir, exist_ok=True)
out = os.path.join(args.outdir, "certainty_iou_cosine.csv")
write_text_atomic(out, rows_to_csv(["seed", "class", "cosine"], rows))
positive = sum(1 for _, _, s in rows if s > 0)
print(f"wrote {out}; {positive}/{len(rows)} class entries positively correlated")
