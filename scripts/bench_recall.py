"""Time the recall engine on a synthetic corpus and print one JSON record.

    PYTHONPATH=src python3 scripts/bench_recall.py --items 320 --queries 20

The corpus is the synthetic news corpus of ``gateformer synth`` (its news
items only). A query is a keyword bag like the gate's output: 3 random
tokens from each of 6 random items, each with a weight drawn from
U(0.05, 1). Doc and user embeddings are random normal vectors (d=64), so the
timings do not depend on a model. Timed per query: ``recall_sparse`` and
``recall_dense`` at n=100 and ``recall_hybrid`` with n=n_sparse=100; timed
per repeat: ``build_index`` + ``save_index`` + ``load_index``. The record
also holds a SHA-256 over every query's three result lists, so runs of two
versions on the same arguments can be checked for identical rankings.

Only public names that every index format version has are used, so the
script runs against any checkout on ``PYTHONPATH``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import tempfile
import time
from pathlib import Path

import numpy as np

from gateformer import recall
from gateformer.text import synth_corpus_full

N = 100
DIM = 64
QUERY_ITEMS = 6
KEYWORDS_PER_ITEM = 3


def summary(seconds: list[float]) -> dict:
    ms = [s * 1e3 for s in seconds]
    return {"mean_ms": statistics.fmean(ms), "median_ms": statistics.median(ms), "n": len(ms)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--items", type=int, default=320)
    parser.add_argument("--filler-pool", type=int, default=120)
    parser.add_argument("--distractors", type=int, default=2)
    parser.add_argument("--queries", type=int, default=20)
    parser.add_argument("--repeats", type=int, default=5, help="index round trips")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)

    news = synth_corpus_full(
        args.seed, n_users=160, n_items=args.items, n_topics=8, tokens_per_item=30,
        filler_pool=args.filler_pool, n_distract=args.distractors,
    ).news
    rng = np.random.default_rng(args.seed)
    doc_ids = sorted(news)
    doc_embs = {doc_id: rng.normal(size=DIM) for doc_id in doc_ids}

    roundtrip = []
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "index.bin"
        for _ in range(args.repeats):
            t0 = time.perf_counter()
            recall.save_index(recall.build_index(news), path)
            index = recall.load_index(path)
            roundtrip.append(time.perf_counter() - t0)
        index_bytes = path.stat().st_size

    times = {"sparse": [], "dense": [], "hybrid": []}
    digest = hashlib.sha256()
    for _ in range(args.queries):
        pairs = []
        for j in rng.choice(len(doc_ids), size=QUERY_ITEMS, replace=False):
            ids = news[doc_ids[j]].ids
            for pos in rng.choice(len(ids), size=KEYWORDS_PER_ITEM, replace=False):
                pairs.append((int(ids[pos]), float(rng.uniform(0.05, 1.0))))
        u = rng.normal(size=DIM)
        query = recall.UserQuery.from_pairs(pairs, user_embedding=u)
        calls = {
            "sparse": lambda: recall.recall_sparse(index, query, N),
            "dense": lambda: recall.recall_dense(u, doc_embs, N),
            "hybrid": lambda: recall.recall_hybrid(index, query, doc_embs, N, N),
        }
        for name, call in calls.items():
            t0 = time.perf_counter()
            result = call()
            times[name].append(time.perf_counter() - t0)
            digest.update(("\n".join(result) + "\0").encode("utf-8"))

    record = {
        "args": vars(args),
        "n_docs": len(news),
        "index_bytes": index_bytes,
        "index_roundtrip": summary(roundtrip),
        **{f"recall_{name}": summary(t) for name, t in times.items()},
        "results_sha256": digest.hexdigest(),
    }
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
