"""Benchmark workloads: inputs, set-up, the timed operations and their checks.

Every workload runs the same five operation families on its own generated
corpus, so every end-to-end metric is measured on every workload; what
differs is the corpus shape and each family's share of the measured window,
which decide which layers dominate. Each family is a closed loop with one
client: a call starts after the previous one returns.

    train   training.train for a fixed step count (B=32) from a fresh seeded
            model; its closing evaluate is timed apart, on all of val the
            first time (for val_auc) and on one impression after that
    eval    training.evaluate(threads=1) on the first 32 val impressions with
            the restored checkpoint
    serve   per-sample user_embedding for 32 distinct users, then the same
            users through batch_user_embeddings
    recall  one val user's most recent items through user_embedding and
            user_keywords, then recall_sparse, recall_dense and recall_hybrid
            (n = n_sparse = 100)
    index   build_index, save_index, load_index

Operations are short, so that every family's calls spread over the whole
window and its mean averages over the host's slow and fast stretches.

Every timing is also scaled to a reference host speed. On a shared host the
same code runs at one of two speeds about 1.6x apart, and which one holds
drifts over minutes, so ten runs in a row can differ by more than any
change worth measuring. Before and after each operation and each set-up
the benchmark times ``reference_probe``, a fixed loop of Python arithmetic
and small numpy products that shares no code with gateformer. A timing t
whose probes took p0 before and p1 after is reported as
t * REF_PROBE_S / ((p0 + p1) / 2): what it would have taken on a host where
the probe takes REF_PROBE_S. A change to gateformer cannot move the probe,
so it moves the scaled timings as it moves the raw ones. The run record
keeps every raw timing and every probe.

The program only ever sees the MIND-format files ``gateformer synth`` writes
and a checkpoint read back by ``cli.restore_model``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import shutil
import statistics
import time
import traceback
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from gateformer import cli, efficiency, recall, training, transformer
from gateformer import numerics as nm
from gateformer.config import RunConfig, load_config
from gateformer.text import UserHistory

from tracing import Span, Tracer

BATCH = 32            # users per batched user-embedding call; samples per train step
RECALL_N = 100        # recall cut-off n, and the hybrid sparse shortlist n_sparse
EVAL_IMPRESSIONS = 32  # val impressions one eval operation scores
TRAIN_STEPS = 2       # optimizer steps per train operation
QUERY_ITEMS = 6       # a recall query is built from the user's most recent items
ORACLE_QUERIES = 3    # queries whose sparse top-n is checked against every doc's BM25
SETUP_REPEATS = 3     # setup_s is the median of this many complete set-ups
SPEEDUP_USERS = 8     # histories measure_speedup cycles through (traced runs)
SPEEDUP_REPEATS = 5
EMBED_TOL = 1e-9      # batched vs per-sample user embedding, max abs difference
FLOP_TOL = 0.05       # counted vs modelled user-side FLOPs, relative
REF_PROBE_S = 1.5e-3  # reference_probe on the fast state of the host the baselines come from

# the first pass runs them in this order: recall queries the index built last
FAMILIES = ("index", "recall", "serve", "eval", "train")


@dataclass(frozen=True)
class Workload:
    name: str
    synth: dict          # SynthConfig overrides; every other setting is the default
    shares: dict         # family -> share of the measured window after the first pass

    def overrides(self, seed: int) -> list[str]:
        sets = [f"synth.{k}={v}" for k, v in sorted(self.synth.items())]
        return sets + [
            f"train.seed={seed}",
            f"train.steps={TRAIN_STEPS}",
            f"train.eval_interval={TRAIN_STEPS}",
            f"train.batch_size={BATCH}",
            "train.warmup=1",
            "train.threads=1",
        ]

    def fingerprint(self) -> str:
        """Hash of the workload definition and the benchmark constants."""
        spec = {
            **asdict(self),
            "batch": BATCH, "recall_n": RECALL_N, "query_items": QUERY_ITEMS,
            "eval_impressions": EVAL_IMPRESSIONS, "train_steps": TRAIN_STEPS,
            "oracle_queries": ORACLE_QUERIES, "setup_repeats": SETUP_REPEATS,
            "ref_probe_s": REF_PROBE_S,
        }
        canon = json.dumps(spec, sort_keys=True)
        return hashlib.sha256(canon.encode("utf-8")).hexdigest()[:12]


WORKLOADS = {
    w.name: w
    for w in (
        # default corpus: 320 items, 6-item histories; training dominates
        Workload("train", {},
                 {"train": 0.5, "serve": 0.1, "eval": 0.1, "recall": 0.25, "index": 0.05}),
        # 30-item histories: the gate reads 900 tokens per user and keeps 90.
        # 2048 docs: filler postings of about 57 docs, signal postings of 256;
        # recall queries use the 6 most recent items, so the recall engine
        # does as much work here as on a 6-item-history corpus of that size.
        # With distractor tokens, how many 512-doc signal postings a query
        # touches depends on what a seed's untrained gate keeps, and sparse
        # cost then differs by about 30% from seed to seed.
        Workload("serve-long",
                 {"items": 2048, "history_len": 30, "filler_pool": 1000, "distractors": 0},
                 {"train": 0.3, "serve": 0.2, "eval": 0.1, "recall": 0.35, "index": 0.05}),
    )
}


@dataclass
class Run:
    """State of one benchmark run: inputs, the restored model and the samples."""

    workload: Workload
    seed: int
    work: Path
    tracer: Tracer | None = None
    cfg: RunConfig | None = None
    dataset: object = None
    model: object = None
    doc_embs: dict = field(default_factory=dict)
    doc_ids: list = field(default_factory=list)
    doc_matrix: np.ndarray | None = None
    users: list = field(default_factory=list)      # one history per distinct user
    queries: list = field(default_factory=list)    # val users, recall query order
    postings: dict = field(default_factory=dict)   # token -> docs, built from the news
    index: object = None                           # loaded by the latest index op
    built: object = None                           # built by the latest index op
    samples: dict = field(default_factory=dict)    # timing -> [seconds, probe index] per call
    probes: list = field(default_factory=list)     # reference_probe seconds, between timed steps
    query_tokens: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    train_outcome: tuple | None = None
    val_auc: float | None = None
    eval_auc: float | None = None
    traced_s: float = 0.0
    untraced_s: float = 0.0

    def span(self, name: str):
        if self.tracer is not None and self.tracer.on:
            return self.tracer.span(name)
        return contextlib.nullcontext(Span(name, -1, -1, 0.0))

    def probe(self) -> int:
        """Time reference_probe; returns its index, which the timings that
        follow until the next probe are recorded with."""
        self.probes.append(reference_probe())
        return len(self.probes) - 1

    def add(self, samples: dict, probe: int) -> None:
        for key, values in samples.items():
            self.samples.setdefault(key, []).extend([v, probe] for v in values)

    def scaled(self, pairs) -> list[float]:
        """[seconds, probe index] pairs as seconds at the reference speed,
        from the probes just before and just after each timing."""
        p = self.probes
        return [t * REF_PROBE_S * 2 / (p[j] + p[j + 1]) for t, j in pairs]

    def tracing(self):
        if self.tracer is None:
            return contextlib.nullcontext()
        return self.tracer.enabled()


_PROBE_A = np.linspace(-1.0, 1.0, 64 * 64).reshape(64, 64)


def reference_probe() -> float:
    """Wall seconds of a fixed mix of Python arithmetic and small numpy
    products, the two kinds of work gateformer does; it calls no gateformer
    code."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(10000):
        acc += i * i
    x = _PROBE_A
    for _ in range(25):
        x = np.tanh(x @ _PROBE_A)
    return time.perf_counter() - t0


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------

def setup(run: Run) -> float:
    """Generate the corpus, load it, checkpoint a seeded model, restore it and
    encode every doc for dense recall; returns the wall time in seconds."""
    data, ckpt = run.work / "data", run.work / "run"
    shutil.rmtree(data, ignore_errors=True)
    shutil.rmtree(ckpt, ignore_errors=True)
    overrides = run.workload.overrides(run.seed)
    argv = ["synth", "--out", str(data), "--seed", str(run.seed)]
    for item in overrides:
        argv += ["--set", item]
    t0 = time.perf_counter()
    cfg = load_config(None, overrides)
    with run.span("setup.synth"), contextlib.redirect_stdout(io.StringIO()):
        args = cli.make_parser().parse_args(argv)
        if args.fn(args) != 0:
            raise RuntimeError("gateformer synth failed")
    with run.span("setup.load_dataset"):
        dataset = cli.load_dataset(cfg, data)
    seeded = cli.build_model(cfg, len(dataset.vocab), dataset.stats)
    ckpt.mkdir(parents=True)
    cfg.dump(ckpt / "config.ini")
    with run.span("setup.save_checkpoint"):
        transformer.save_checkpoint(seeded.named_tensors(), ckpt / "best")
    with run.span("setup.restore_model"):
        model = cli.restore_model(cli.load_run(ckpt, []), ckpt, dataset)
    with run.span("setup.doc_encode"):
        doc_embs = {
            doc_id: cli.encode_candidate(seq, model.trans).data
            for doc_id, seq in sorted(dataset.news.items())
        }
    elapsed = time.perf_counter() - t0
    run.cfg, run.dataset, run.model, run.doc_embs = cfg, dataset, model, doc_embs
    return elapsed


def prepare(run: Run) -> None:
    """Benchmark-side bookkeeping after set-up; not part of setup_s."""
    ds = run.dataset
    run.users = _distinct_histories(ds.train_samples + ds.val_samples)
    run.queries = _distinct_histories(ds.val_samples)
    run.doc_ids = sorted(run.doc_embs)
    run.doc_matrix = np.stack([run.doc_embs[d] for d in run.doc_ids])
    for doc_id, seq in ds.news.items():
        for tok in set(seq.ids):
            run.postings.setdefault(tok, set()).add(doc_id)
    if len(run.users) < BATCH:
        raise ValueError(f"workload has {len(run.users)} users, a batch needs {BATCH}")


def _distinct_histories(samples) -> list[UserHistory]:
    seen: dict[tuple, UserHistory] = {}
    for s in samples:
        seen.setdefault(tuple(s.history_ids), s.history)
    return list(seen.values())


# ---------------------------------------------------------------------------
# operations: each returns (samples, ok) and may be run twice with the same i.
# Samples are wall seconds per call; the work per call is fixed per workload.
# ---------------------------------------------------------------------------

def op_train(run: Run, i: int):
    cfg, ds = run.cfg, run.dataset
    model = cli.build_model(cfg, len(ds.vocab), ds.stats)
    # the closing evaluate is timed apart and left out of the train time. Only
    # the first run needs it on all of val, for val_auc; later runs need it
    # only so that train returns the final parameters rather than the initial
    val = ds.val_samples if i == 0 else ds.val_samples[:1]
    evaluate = training.evaluate
    inner: list[float] = []

    def timed_evaluate(*args, **kwargs):
        t0 = time.perf_counter()
        try:
            return evaluate(*args, **kwargs)
        finally:
            inner.append(time.perf_counter() - t0)

    training.evaluate = timed_evaluate
    try:
        t0 = time.perf_counter()
        result = training.train(
            model, ds.train_samples, val,
            steps=cfg.train.steps, batch_size=cfg.train.batch_size,
            peak_lr=cfg.train.peak_lr, warmup=cfg.train.warmup, seed=cfg.train.seed,
            eval_interval=cfg.train.steps, log_interval=0,
            clip_norm=cfg.train.clip_norm, threads=cfg.train.threads,
        )
        elapsed = time.perf_counter() - t0
    finally:
        training.evaluate = evaluate
    # one evaluation, so the model train returns holds the final parameters
    digest = hashlib.sha256()
    for name, tensor in sorted(result.model.named_tensors().items()):
        digest.update(name.encode("utf-8") + tensor.data.tobytes())
    samples = {"train": [elapsed - sum(inner)]}
    outcome = (result.losses[-1], digest.hexdigest())
    # bit-identical parameters from every run of one seed; with the eval checks'
    # determinism, that makes val_auc bit-identical too
    ok = run.train_outcome is None or outcome == run.train_outcome
    run.train_outcome = outcome
    if i == 0:
        run.val_auc = result.final_report.auc
    return samples, ok


def op_eval(run: Run, i: int):
    val = run.dataset.val_samples[:EVAL_IMPRESSIONS]
    t0 = time.perf_counter()
    report = training.evaluate(run.model, val, threads=1)
    elapsed = time.perf_counter() - t0
    ok = run.eval_auc is None or report.auc == run.eval_auc
    if run.eval_auc is None:
        run.eval_auc = report.auc
    return {"evaluate": [elapsed]}, ok


def op_serve(run: Run, i: int):
    idx = [(i * BATCH + j) % len(run.users) for j in range(BATCH)]
    histories = [run.users[k] for k in idx]
    single, rows = [], []
    for k, h in zip(idx, histories):
        t0 = time.perf_counter()
        rows.append(training.user_embedding(run.model, h, k).data)
        single.append(time.perf_counter() - t0)
    t0 = time.perf_counter()
    batch = training.batch_user_embeddings(run.model, histories, idx)
    elapsed = time.perf_counter() - t0
    ok = float(np.max(np.abs(batch.data - np.stack(rows)))) <= EMBED_TOL
    return {"user_embedding": single, "batch_user_embeddings": [elapsed]}, ok


def _query(run: Run, i: int):
    history = run.queries[i % len(run.queries)]
    recent = UserHistory(history.items[-QUERY_ITEMS:])
    u = training.user_embedding(run.model, recent, i).data
    pairs = training.user_keywords(run.model, recent, i)
    return recall.UserQuery.from_pairs(pairs, user_embedding=u)


def op_recall(run: Run, i: int):
    query = _query(run, i)
    u = query.user_embedding
    t0 = time.perf_counter()
    sparse = recall.recall_sparse(run.index, query, RECALL_N)
    t1 = time.perf_counter()
    dense = recall.recall_dense(u, run.doc_embs, RECALL_N)
    t2 = time.perf_counter()
    hybrid = recall.recall_hybrid(run.index, query, run.doc_embs, RECALL_N, RECALL_N)
    t3 = time.perf_counter()
    run.query_tokens.append([tok for tok, _ in query.keywords])

    scores = run.doc_matrix @ u / math.sqrt(len(u))
    score_of = dict(zip(run.doc_ids, scores.tolist()))
    want_dense = [run.doc_ids[j] for j in np.lexsort((np.arange(len(scores)), -scores))[:RECALL_N]]
    want_hybrid = sorted(sparse, key=lambda d: (-score_of[d], d))[:RECALL_N]
    ok = same_ranking(dense, want_dense, score_of) and same_ranking(hybrid, want_hybrid, score_of)
    return {"recall_sparse": [t1 - t0], "recall_dense": [t2 - t1], "recall_hybrid": [t3 - t2]}, ok


def op_index(run: Run, i: int):
    path = run.work / "index.bin"
    t0 = time.perf_counter()
    with run.span("index.build"):
        built = recall.build_index(run.dataset.news)
    with run.span("index.save") as save:
        recall.save_index(built, path)
    with run.span("index.load"):
        loaded = recall.load_index(path)
    elapsed = time.perf_counter() - t0
    save.attrs["bytes"] = path.stat().st_size
    run.built, run.index = built, loaded
    return {"index_roundtrip": [elapsed]}, True


OPS = {"train": op_train, "eval": op_eval, "serve": op_serve, "recall": op_recall, "index": op_index}


def same_ranking(got: list[str], want: list[str], score: dict[str, float]) -> bool:
    """``got`` equals ``want`` except for swaps between near-equal scores."""
    if len(got) != len(want):
        return False
    for a, b in zip(got, want):
        if a != b and abs(score[a] - score[b]) > 1e-9 * max(1.0, abs(score[b])):
            return False
    return True


# ---------------------------------------------------------------------------
# the measured window
# ---------------------------------------------------------------------------

def _execute(run: Run, family: str, i: int) -> None:
    """One operation; a traced run runs it both untraced and traced, first one
    then the other in turn, so the ratio of the wall times is the overhead."""
    passes = [False] if run.tracer is None else [i % 2 == 1, i % 2 == 0]
    for traced in passes:
        run.attempted += 1
        probe = run.probe()
        t0 = time.perf_counter()
        try:
            with run.tracing() if traced else contextlib.nullcontext():
                with run.span(f"op.{family}"):
                    samples, ok = OPS[family](run, i)
        except Exception:
            traceback.print_exc()
            run.failed += 1
            continue
        elapsed = time.perf_counter() - t0
        if traced:
            run.traced_s += elapsed
        elif run.tracer is not None:
            run.untraced_s += elapsed
        run.add(samples, probe)
        if not ok:
            print(f"check failed: {family} operation {i}", flush=True)
            run.failed += 1


def measure(run: Run, seconds: float) -> dict[str, int]:
    """Run operations until ``seconds`` have passed; after the first pass the
    family furthest behind its share of the window goes next. Every family
    runs at least twice: a p90 needs two samples, and two same-seed train
    runs are compared bit for bit."""
    counts = dict.fromkeys(FAMILIES, 0)
    spent = dict.fromkeys(FAMILIES, 0.0)

    def one(family):
        t0 = time.perf_counter()
        _execute(run, family, counts[family])
        counts[family] += 1
        spent[family] += time.perf_counter() - t0

    start = time.perf_counter()
    for family in FAMILIES:
        one(family)
    shares = run.workload.shares
    while time.perf_counter() - start < seconds:
        one(min(shares, key=lambda f: spent[f] / shares[f]))
    for family in FAMILIES:
        while counts[family] < 2:
            one(family)
    run.probe()   # the probe after the last operation
    return counts


# ---------------------------------------------------------------------------
# checks and extra measurements outside the window
# ---------------------------------------------------------------------------

def _check(run: Run, name: str, ok: bool) -> None:
    run.attempted += 1
    if not ok:
        print(f"check failed: {name}", flush=True)
        run.failed += 1


def check_sparse_oracle(run: Run) -> None:
    """recall_sparse on the loaded index against a ranking of every doc by
    bm25_score on the built index, ties broken by doc id."""
    for i in range(min(ORACLE_QUERIES, len(run.queries))):
        query = _query(run, i)
        got = recall.recall_sparse(run.index, query, RECALL_N)
        score = {d: recall.bm25_score(run.built, query, d) for d in run.doc_ids}
        ranked = sorted((d for d in run.doc_ids if score[d] > 0), key=lambda d: (-score[d], d))
        _check(run, f"sparse oracle query {i}", same_ranking(got, ranked[:RECALL_N], score))


def model_dims(run: Run) -> efficiency.ModelDims:
    m = run.model
    return efficiency.ModelDims(
        d=m.trans.d, layers=len(m.trans.layers), heads=m.trans.heads,
        n_filters=m.gate.n_filters, window=m.gate.window,
        k=m.k, item_len=run.cfg.synth.tokens_per_item,
    )


def check_flop_model(run: Run) -> float:
    """Counted user-side FLOPs of one user embedding against user_side_flops;
    returns the relative error. A traced run reads the delta of the one armed
    counter rather than arming a second, nested one."""
    history = run.users[0]
    if run.tracer is None:
        with nm.count_flops() as counter:
            training.user_embedding(run.model, history, 0)
        counted = counter.flops
    else:
        with run.tracer.enabled(), run.tracer.span("check.user_flops") as span:
            training.user_embedding(run.model, history, 0)
        counted = span.flops
    predicted = efficiency.user_side_flops(model_dims(run), len(history), gated=True)
    rel_err = abs(counted - predicted) / predicted
    _check(run, "user-side FLOP model", rel_err <= FLOP_TOL)
    return rel_err


def traced_extras(run: Run) -> dict[str, float]:
    """Per-layer figures the benchmark measures itself rather than from spans."""
    postings, scored = [], []
    for tokens in run.query_tokens:
        postings.append(sum(len(run.postings.get(t, ())) for t in tokens))
        scored.append(len(set().union(*(run.postings.get(t, set()) for t in tokens))))
    histories = run.users[:SPEEDUP_USERS]
    speed = efficiency.measure_speedup(run.model, histories, repeats=SPEEDUP_REPEATS)
    cost = efficiency.CostModel.from_dims(model_dims(run), len(histories[0]))
    return {
        "query_postings_per_query": float(statistics.median(postings)),
        "sparse_docs_scored_per_query": float(statistics.median(scored)),
        "dense_docs_scored_per_query": float(len(run.doc_embs)),
        "measured_speedup": speed["speedup"],
        "analytic_lower_bound": efficiency.acceleration_ratio(cost).lower_bound,
        "overhead_ratio": run.traced_s / run.untraced_s,
    }


def end_to_end(run: Run, setups: list) -> dict[str, tuple[float, str]]:
    """Typical costs are means over every call in the window, throughputs are
    fixed work over mean call time, and p90 is the tail over every call; all
    at the reference speed.

    Means, not medians: on a shared host the same call runs at one of two
    speeds, about 1.6x apart, for seconds at a time. A median jumps between
    them as a run's share of slow time crosses one half; a mean moves in
    proportion to it. ``setup_s`` is the median of the set-ups."""
    s, cfg, scaled = run.samples, run.cfg, run.scaled

    def mean_ms(key):
        return float(statistics.fmean(scaled(s[key]))) * 1e3

    def p90_ms(key):
        return float(statistics.quantiles(scaled(s[key]), n=10)[-1]) * 1e3

    def per_s(key, work):
        return work / float(statistics.fmean(scaled(s[key])))

    evaluated = min(EVAL_IMPRESSIONS, len(run.dataset.val_samples))
    return {
        "setup_s": (float(statistics.median(scaled(setups))), "s"),
        "train_samples_per_s": (per_s("train", cfg.train.steps * cfg.train.batch_size), "samples/s"),
        "val_auc": (run.val_auc, "auc"),
        "eval_impressions_per_s": (per_s("evaluate", evaluated), "impressions/s"),
        "user_embed_mean_ms": (mean_ms("user_embedding"), "ms"),
        "user_embed_p90_ms": (p90_ms("user_embedding"), "ms"),
        "user_batch_users_per_s": (per_s("batch_user_embeddings", BATCH), "users/s"),
        "recall_sparse_mean_ms": (mean_ms("recall_sparse"), "ms"),
        "recall_sparse_p90_ms": (p90_ms("recall_sparse"), "ms"),
        "recall_dense_mean_ms": (mean_ms("recall_dense"), "ms"),
        "recall_hybrid_mean_ms": (mean_ms("recall_hybrid"), "ms"),
        "index_roundtrip_ms": (mean_ms("index_roundtrip"), "ms"),
    }
