"""Command-line entry point: synth, train, eval, bench, recall, analyze.

One binary, subcommand style. Settings come from an INI config file plus
``--set section.key=value`` overrides. Each config flag of ``synth`` and
``train`` (``_ALIASES``) is another spelling of one ``--set`` key, applied
after the ``--set`` items so it wins, and checked by the config's rules
like any other value. Every emitted table starts with a
``# config <fingerprint>`` comment so results are traceable. All commands
are deterministic given the seed. The environment variable
``GATEFORMER_DATA_DIR`` provides the default data root.
:func:`load_dataset` builds the news corpus's :class:`recall.InvertedIndex`
once, as ``Dataset.stats``: the bm25 selector's statistics and ``recall``'s
ranker.
"""

from __future__ import annotations

import argparse
import csv
import logging
import os
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .config import RunConfig, load_config
from .efficiency import bench, keyword_position_histogram, measure_speedup
from .recall import (
    InvertedIndex, UserQuery, build_index, recall_at_k, recall_dense, recall_hybrid, recall_sparse,
)
from .text import (
    TokenSequence,
    Vocabulary,
    load_mind_behaviors,
    load_mind_news,
    synth_corpus_full,
    write_mind_files,
)
from .training import (
    Model,
    evaluate,
    gate_history,
    init_model,
    keyword_pairs,
    split_samples,
    train,
)
from .transformer import (  # noqa: F401  encode_candidate: perfbench encodes its docs through this name
    apply_checkpoint,
    encode_candidate,
    encode_user,
    load_checkpoint,
)


@dataclass
class Dataset:
    vocab: Vocabulary
    news: dict[str, TokenSequence]
    train_samples: list
    val_samples: list
    stats: InvertedIndex  # of the news corpus: recall ranks with it, the bm25 selector reads it


def _data_root(args) -> Path:
    if args.data is not None:
        return Path(args.data)
    return Path(os.environ.get("GATEFORMER_DATA_DIR", "."))


def load_dataset(cfg: RunConfig, data_dir: Path) -> Dataset:
    vocab = Vocabulary.from_file(data_dir / cfg.data.vocab)
    news = load_mind_news(
        data_dir / cfg.data.news, vocab, l_max=cfg.data.l_max,
        title_only=cfg.data.title_only,
    )
    stats = build_index(news)
    samples = load_mind_behaviors(
        data_dir / cfg.data.behaviors, news, k_neg=cfg.data.k_neg,
        n_max=cfg.data.n_max, seed=cfg.train.seed,
    )
    val_path = data_dir / "behaviors_val.tsv"
    if val_path.exists():
        val = load_mind_behaviors(
            val_path, news, k_neg=cfg.data.k_neg, n_max=cfg.data.n_max,
            seed=cfg.train.seed + 1,
        )
        return Dataset(vocab, news, samples, val, stats)
    tr, va = split_samples(samples, cfg.data.val_fraction, cfg.train.seed)
    return Dataset(vocab, news, tr, va, stats)


def build_model(cfg: RunConfig, vocab_size: int, stats: InvertedIndex) -> Model:
    return init_model(
        vocab_size=vocab_size,
        d=cfg.model.d,
        n_layers=cfg.model.layers,
        heads=cfg.model.heads,
        max_positions=cfg.max_positions,
        n_filters=cfg.gate.filters,
        window=cfg.gate.window,
        seed=cfg.train.seed,
        k=cfg.gate.k,
        gate_method=cfg.gate.method,
        user_encoder=cfg.gate.user_encoder,
        stats=stats,
    )


def load_run(run_dir: Path, overrides: list[str]) -> RunConfig:
    cfg_path = run_dir / "config.ini"
    if not cfg_path.exists():
        raise FileNotFoundError(f"no config.ini in run directory {run_dir}")
    return load_config(cfg_path, overrides)


def restore_model(cfg: RunConfig, run_dir: Path, dataset: Dataset) -> Model:
    prefix = run_dir / "best"
    if not Path(f"{prefix}.manifest.json").exists():
        raise FileNotFoundError(f"no checkpoint at {prefix}.manifest.json")
    model = build_model(cfg, len(dataset.vocab), dataset.stats)
    apply_checkpoint(model.named_tensors(), load_checkpoint(prefix))
    return model


def _open_run(args) -> tuple[Path, RunConfig, Dataset, Model]:
    """The run directory of ``--run``, its config with ``--set`` applied, the
    dataset it names and the model restored from its checkpoint."""
    run_dir = Path(args.run)
    cfg = load_run(run_dir, args.set)
    dataset = load_dataset(cfg, _data_root(args))
    return run_dir, cfg, dataset, restore_model(cfg, run_dir, dataset)


def _write_table(path: Path, fingerprint: str, header: str, rows: list) -> None:
    """A table under a ``# config`` line, each row's fields formatted by
    :func:`_fmt` and written by :mod:`csv`, which quotes a field holding a
    comma or a quote, so it reads back whole."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as f:
        f.write(f"# config {fingerprint}\n")
        f.write(header + "\n")
        csv.writer(f, lineterminator="\n").writerows([_fmt(x) for x in row] for row in rows)


def _fmt(x) -> str:
    return repr(float(x)) if isinstance(x, (float, np.floating)) else str(x)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_synth(args) -> int:
    cfg = load_config(args.config, _overrides(args))
    out = Path(args.out) if args.out else _data_root(args)
    if out.exists() and any(out.iterdir()) and not args.force:
        print(f"error: output dir {out} is not empty (use --force)", file=sys.stderr)
        return 2
    s = cfg.synth
    corpus = synth_corpus_full(
        seed=cfg.train.seed, n_users=s.users, n_items=s.items, n_topics=s.topics,
        tokens_per_item=s.tokens_per_item, signal_positions=s.policy,
        n_signal=s.signals, n_distract=s.distractors, filler_pool=s.filler_pool,
        history_len=s.history_len,
        impressions_per_user=s.impressions_per_user, k_neg=cfg.data.k_neg,
        noise=s.noise, val_fraction=s.val_fraction,
    )
    write_mind_files(corpus, out)
    print(
        f"wrote {len(corpus.news)} news items, "
        f"{len(corpus.train_indices)} train / {len(corpus.val_indices)} val samples to {out}"
    )
    return 0


def cmd_train(args) -> int:
    cfg = load_config(args.config, _overrides(args))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    dataset = load_dataset(cfg, _data_root(args))
    model = build_model(cfg, len(dataset.vocab), dataset.stats)
    result = train(
        model,
        dataset.train_samples,
        dataset.val_samples,
        steps=cfg.train.steps,
        batch_size=cfg.train.batch_size,
        peak_lr=cfg.train.peak_lr,
        warmup=cfg.train.warmup,
        seed=cfg.train.seed,
        eval_interval=cfg.train.eval_interval,
        log_interval=cfg.train.log_interval,
        clip_norm=cfg.train.clip_norm,
        out_dir=out,
        threads=cfg.train.threads,
    )
    cfg.dump(out / "config.ini")
    _write_table(
        out / "metrics.csv", cfg.fingerprint(), "step,loss,auc,mrr,ndcg5,ndcg10",
        result.history,
    )
    if result.final_report is not None:
        r = result.final_report
        print(
            f"final: auc={r.auc:.4f} mrr={r.mrr:.4f} ndcg5={r.ndcg5:.4f} "
            f"ndcg10={r.ndcg10:.4f} (n={r.n_impressions})"
        )
        print(f"best:  auc={result.best_auc:.4f} at step {result.best_step}")
    else:
        print(f"trained {len(result.losses)} steps without evaluation; wrote the final parameters")
    return 0


def cmd_eval(args) -> int:
    run_dir, cfg, dataset, model = _open_run(args)
    samples = {
        "val": dataset.val_samples,
        "train": dataset.train_samples,
        "all": dataset.train_samples + dataset.val_samples,
    }[args.split]
    report = evaluate(model, samples, threads=cfg.train.threads)
    out = Path(args.out) if args.out else run_dir / "eval.csv"
    _write_table(
        out, cfg.fingerprint(),
        "auc,mrr,ndcg5,ndcg10,n_impressions",
        [[*report.row(), report.n_impressions]],
    )
    print(
        f"auc={report.auc:.6f} mrr={report.mrr:.6f} ndcg5={report.ndcg5:.6f} "
        f"ndcg10={report.ndcg10:.6f} (n={report.n_impressions})"
    )
    return 0


def _cutoffs(raw: str, flag: str) -> list[int]:
    """The comma-separated cutoffs of ``flag``, in order; a ``ValueError``
    naming the flag on an entry that is not an integer or is below 1."""
    try:
        values = [int(v) for v in raw.split(",")]
    except ValueError:
        raise ValueError(f"{flag} takes comma-separated integers, got {raw!r}") from None
    if min(values) < 1:
        raise ValueError(f"{flag} cutoffs must be at least 1, got {min(values)}")
    return values


def cmd_bench(args) -> int:
    k_values = _cutoffs(args.k, "--k")
    run_dir, cfg, dataset, model = _open_run(args)
    rows = bench(model, dataset.val_samples, k_values, repeats=args.repeats)
    out = Path(args.out) if args.out else run_dir / "bench.csv"
    _write_table(
        out, cfg.fingerprint(),
        "k,wall_time_per_user,flops,auc",
        [[r[c] for c in ("k", "wall_time_per_user", "flops", "auc")] for r in rows],
    )
    for r in rows:
        print(
            f"k={r['k']:3d} time={r['wall_time_per_user']*1e3:8.3f}ms "
            f"flops={r['flops']:.3e} auc={r['auc']:.4f}"
        )
    if args.speedup:
        histories = [s.history for s in dataset.val_samples[:30]]
        sp = measure_speedup(model, histories, repeats=args.repeats)
        print(
            f"measured wall-clock speedup (gated vs full input): "
            f"{sp['speedup']:.2f}x ({sp['t_full']*1e3:.2f}ms -> {sp['t_gated']*1e3:.2f}ms)"
        )
    return 0


def cmd_recall(args) -> int:
    n_values = sorted(_cutoffs(args.n, "--n"))
    if args.max_impressions < 0:
        raise ValueError(f"--max-impressions must be at least 0, got {args.max_impressions}")
    run_dir, cfg, dataset, model = _open_run(args)
    n_max = max(n_values)
    n_sparse = max(args.n_sparse, n_max)

    doc_ids = sorted(dataset.news)
    doc_embs = dict(zip(
        doc_ids, model.items.rows([dataset.news[d] for d in doc_ids], model.trans)
    ))
    samples = dataset.val_samples[: args.max_impressions or len(dataset.val_samples)]
    if not samples:
        print("error: no validation impressions for recall", file=sys.stderr)
        return 1
    sums = {(m, n): 0.0 for m in ("sparse", "dense", "hybrid") for n in n_values}
    for i, sample in enumerate(samples):
        relevant = {sample.positive_id}
        # one gating feeds both the dense embedding and the sparse keywords
        gated = gate_history(sample.history, model, i)
        u = encode_user(gated.rows, model.trans).data
        query = UserQuery.from_pairs(keyword_pairs(gated), user_embedding=u)
        results = {
            "sparse": recall_sparse(dataset.stats, query, n_max),
            "dense": recall_dense(u, doc_embs, n_max),
            "hybrid": recall_hybrid(dataset.stats, query, doc_embs, n_sparse, n_max),
        }
        for m, res in results.items():
            for n in n_values:
                sums[(m, n)] += recall_at_k(res, relevant, n)
    means = {key: total / len(samples) for key, total in sums.items()}
    out = Path(args.out) if args.out else run_dir / "recall.csv"
    _write_table(
        out, cfg.fingerprint(), "method,n,recall",
        [[m, n, value] for (m, n), value in means.items()],
    )
    for (m, n), value in means.items():
        print(f"{m:7s} recall@{n:>4d} = {value:.4f}")
    return 0


def cmd_analyze(args) -> int:
    if args.users < 0:
        raise ValueError(f"--users must be at least 0, got {args.users}")
    run_dir, cfg, dataset, model = _open_run(args)
    out_dir = Path(args.out) if args.out else run_dir
    samples = dataset.val_samples or dataset.train_samples

    # one gating per sample feeds both tables
    gatings = [gate_history(s.history, model, i) for i, s in enumerate(samples)]
    counts, freq = keyword_position_histogram(gatings)
    _write_table(
        out_dir / "positions.csv", cfg.fingerprint(),
        "position,count,frequency",
        [[i, int(c), f] for i, (c, f) in enumerate(zip(counts, freq))],
    )

    rows = []
    for i, (sample, gated) in enumerate(zip(samples[: args.users], gatings)):
        item_of = np.repeat(np.arange(len(gated)), np.diff(gated.offsets))
        scores = gated.scores.data[gated.token_start[item_of] + gated.positions]
        for item_pos, p, tok, score, w in zip(
            item_of.tolist(), gated.positions.tolist(), gated.token_ids.tolist(),
            scores.tolist(), gated.weights.data.tolist(),
        ):
            rows.append([i, sample.history_ids[item_pos], p, dataset.vocab.token_of(tok), score, w])
    _write_table(
        out_dir / "keywords.csv", cfg.fingerprint(),
        "impression,item,position,token,score,weight", rows,
    )
    top = np.argsort(-counts)[:5]
    print(f"position histogram over {int(counts.sum())} selections; top positions: {top.tolist()}")
    print(f"wrote {out_dir / 'positions.csv'} and {out_dir / 'keywords.csv'}")
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="INI config file")
    p.add_argument(
        "--set", action="append", default=[], metavar="SECTION.KEY=VALUE",
        help="override one config value (repeatable)",
    )
    p.add_argument("--data", help="data directory (default: $GATEFORMER_DATA_DIR or .)")


# command -> its flags, each another spelling of one config key
_ALIASES = {
    "synth": {"--seed": "train.seed", "--policy": "synth.policy"},
    "train": {"--seed": "train.seed", "--steps": "train.steps", "--gate.method": "gate.method"},
}


def _aliases(p: argparse.ArgumentParser, command: str) -> None:
    for flag, key in _ALIASES[command].items():
        p.add_argument(flag, dest=key, metavar="VALUE", help=f"same as --set {key}=VALUE")


def _overrides(args) -> list[str]:
    """The ``--set`` items, then one item per alias flag given, so flags win."""
    given = [(key, getattr(args, key)) for key in _ALIASES[args.command].values()]
    return args.set + [f"{key}={value}" for key, value in given if value is not None]


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gateformer",
        description="Gated-input transformer recommender: train, evaluate, benchmark, recall.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic corpus in MIND format")
    _common(p)
    p.add_argument("--out", help="output directory (default: data dir)")
    _aliases(p, "synth")
    p.add_argument("--force", action="store_true", help="overwrite non-empty output dir")
    p.set_defaults(fn=cmd_synth)

    p = sub.add_parser("train", help="train a model on MIND-format data")
    _common(p)
    p.add_argument("--out", required=True, help="run output directory")
    _aliases(p, "train")
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("eval", help="evaluate a trained run")
    _common(p)
    p.add_argument("--run", required=True, help="run directory from train")
    p.add_argument("--split", choices=("val", "train", "all"), default="val")
    p.add_argument("--out", help="output CSV (default: <run>/eval.csv)")
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("bench", help="accuracy/efficiency table across k")
    _common(p)
    p.add_argument("--run", required=True)
    p.add_argument("--k", default="1,2,3,5,10", help="comma-separated k values")
    p.add_argument("--repeats", type=int, default=30)
    p.add_argument("--speedup", action="store_true",
                   help="also measure gated vs full-input wall clock")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_bench)

    p = sub.add_parser("recall", help="sparse/dense/hybrid recall evaluation")
    _common(p)
    p.add_argument("--run", required=True)
    p.add_argument("--n", default="10,50,100", help="comma-separated cutoffs")
    p.add_argument("--n-sparse", dest="n_sparse", type=int, default=100)
    p.add_argument("--max-impressions", dest="max_impressions", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_recall)

    p = sub.add_parser("analyze", help="keyword position histogram and dumps")
    _common(p)
    p.add_argument("--run", required=True)
    p.add_argument("--users", type=int, default=20, help="impressions to dump keywords for")
    p.add_argument("--out", help="output directory (default: run dir)")
    p.set_defaults(fn=cmd_analyze)
    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    args = make_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
