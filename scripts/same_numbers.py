"""Check that a change computes the same numbers, bit for bit, as its parent.

    python3 scripts/same_numbers.py --parent HEAD
    python3 scripts/same_numbers.py --parent HEAD~1 --blas-threads default
    python3 scripts/same_numbers.py --parent HEAD --corpora tiny --cases learned-lstm

Like ``bench_pairs.py``, the parent is ``git archive <parent>`` and the
change is the tracked files of the working tree (``git stash create``, or
``HEAD`` when the tree is clean), each unpacked into its own temporary
directory. Each side runs this script's worker in a fresh interpreter with
its own checkout's ``src`` first on ``PYTHONPATH``. The worker calls only
names that both trees are expected to have: the CLI subcommands and
``cli.load_run``, ``load_dataset``, ``restore_model``, ``training.evaluate``,
``batch_loss``, ``batch_user_embeddings``, ``impression_logits``,
``ItemStore`` and its ``rows``, ``ENCODE_CHUNK``, ``numerics.Tape``,
``constant``, ``backward`` and ``recall.save_index``, and it reads no field
of a token sequence.

For every corpus and every case (a selector, and for the learned gate a
user encoder) the worker writes the corpus with ``gateformer synth`` (seed
1), trains ``STEPS`` steps with two evaluations through ``gateformer
train``, restores the kept checkpoint and records a sha256 of each field:

* ``checkpoint``: the bytes of ``best.bin`` and ``best.manifest.json``;
* ``metrics_csv``: ``metrics.csv``, the reports of the two evaluations;
* ``trained_parameters``: every named tensor of the restored model;
* ``evaluate_cold`` / ``evaluate_warm``: the report of ``evaluate`` on all
  validation impressions, on a fresh item store and then on the warm one;
* ``batch_loss``: the tape length and the loss bits of one B=32 step on the
  first training samples; ``batch_loss_grads``: the gradients it leaves;
* ``batch_user_embeddings``: the (B, d) output for the first 48 validation
  histories, without a tape;
* ``impression_logits_cold`` / ``impression_logits_warm``: the scores
  ``evaluate`` ranks, of every validation impression, made as it makes
  them (per ``ENCODE_CHUNK`` slice: batched user embeddings, the
  candidates' rows from the item store, ``impression_logits``), on an
  empty item store and then on the warm one; ``candidate_rows``: the
  store's rows of those candidates on the cold pass. The ``evaluate`` and
  bench fields hash rank metrics, which a change to score bits that
  reorders no impression leaves alone; these do not;
* ``index_file``: the corpus index written by ``recall.save_index``;
* ``recall_csv``: ``gateformer recall`` on 32 impressions;
* ``analyze_csv``: the ``positions.csv`` and ``keywords.csv`` of
  ``gateformer analyze --users 8``, the per-sample gate's position counts
  and the raw scores and weights of the tokens it keeps;
* ``bench_csv``: ``gateformer bench --k 1,3``, without its
  ``wall_time_per_user`` column, since timings are not bits.

The corpora are the benchmark workloads' (``train``, ``serve-long``), each
with one item length and one history length, a ``tiny`` one for the smoke
test, and ``ragged``: the ``train`` corpus with each news title cut to a
seeded random count of its words (1-30) and each behaviors history to a
seeded random count of its most recent items (1-6), so that batches hold
several item lengths, item counts and K_eff values, some below ``gate.k``.

It prints one line per field, ``<corpus>/<case>/<field> same`` or
``differs``, and exits 1 when any field differs (2 when a side fails to
run). BLAS runs on ``--blas-threads`` threads; ``default`` leaves the BLAS
library's own choice, since the worker imports numpy before the package pins
it to one thread. Bits may differ across BLAS builds and thread counts, so
compare sides on one machine and one setting.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

from bench_pairs import checkout, git, tree_commit

SEED = 1
STEPS = 4  # training steps per case, with an evaluation every STEPS // 2
TINY_MODEL = [
    "model.d=16", "model.layers=1", "model.heads=2", "gate.filters=8", "gate.k=2",
    "data.l_max=8", "data.n_max=6", "train.batch_size=4", "train.warmup=2",
]
# synth and model settings per corpus: the benchmark workloads' corpora with
# the default model, and a tiny one for the smoke test
CORPORA = {
    "tiny": [
        "synth.users=12", "synth.items=48", "synth.topics=3", "synth.tokens_per_item=8",
        "synth.signals=2", "synth.distractors=0", "synth.filler_pool=20",
        "synth.history_len=3", "synth.impressions_per_user=2", "synth.val_fraction=0.25",
        *TINY_MODEL,
    ],
    "train": [],
    "serve-long": ["synth.items=2048", "synth.history_len=30",
                   "synth.filler_pool=1000", "synth.distractors=0"],
    "ragged": [],
}
RAGGED_WORDS = 30  # a ragged title keeps 1..RAGGED_WORDS of its words
RAGGED_ITEMS = 6   # a ragged history keeps its 1..RAGGED_ITEMS most recent items
CASES = {
    "learned-lstm": ("learned", "lstm"),
    "learned-attn": ("learned", "attn"),
    "random": ("random", "lstm"),
    "first": ("first", "lstm"),
    "bm25": ("bm25", "lstm"),
}
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def sha(*parts: bytes) -> str:
    digest = hashlib.sha256()
    for part in parts:
        digest.update(len(part).to_bytes(8, "little") + part)
    return digest.hexdigest()


def without_column(path: Path, column: str) -> bytes:
    """A CSV table written by the CLI, its comment lines kept, less one column."""
    lines = path.read_text(encoding="utf-8").splitlines()
    comments = [line for line in lines if line.startswith("#")]
    rows = list(csv.reader(line for line in lines if not line.startswith("#")))
    drop = rows[0].index(column)
    kept = [",".join(v for i, v in enumerate(row) if i != drop) for row in rows]
    return "\n".join(comments + kept).encode("utf-8")


def make_ragged(data: Path) -> None:
    """Cut the written corpus in ``data`` to ragged lengths: each news title
    to its first 1..RAGGED_WORDS words and each behaviors history to its
    1..RAGGED_ITEMS most recent items, every count a seeded random draw."""
    import numpy as np

    rng = np.random.default_rng(SEED)

    def cut(path: Path, most: int, keep) -> None:
        rows = [line.split("\t") for line in path.read_text(encoding="utf-8").splitlines()]
        for row in rows:
            # column 3 is a news row's title and a behaviors row's history
            row[3] = " ".join(keep(row[3].split(), int(rng.integers(1, most + 1))))
        path.write_text("".join("\t".join(row) + "\n" for row in rows), encoding="utf-8")

    cut(data / "news.tsv", RAGGED_WORDS, lambda words, n: words[:n])
    for name in ("behaviors.tsv", "behaviors_val.tsv"):
        cut(data / name, RAGGED_ITEMS, lambda items, n: items[-n:])


def flags(sets: list[str]) -> list[str]:
    return [f for s in sets for f in ("--set", s)]


def cli_run(args: list[str]) -> None:
    """One ``gateformer`` command with its printed output dropped."""
    from gateformer import cli

    with open(os.devnull, "w") as quiet, contextlib.redirect_stdout(quiet):
        rc = cli.main(args)
    if rc != 0:
        raise RuntimeError(f"gateformer {args[0]} exited {rc}")


def case_fields(data: Path, run: Path, sets: list[str], method: str, encoder: str) -> dict[str, str]:
    """The hashed fields of one case, trained on the corpus in ``data``."""
    from gateformer import cli, recall, training
    from gateformer import numerics as nm

    cli_run([
        "train", "--data", str(data), "--out", str(run), "--seed", str(SEED),
        "--steps", str(STEPS), *flags(sets),
        "--set", f"train.eval_interval={STEPS // 2}", "--set", "train.log_interval=0",
        "--set", f"gate.method={method}", "--set", f"gate.user_encoder={encoder}",
    ])
    cli_run(["recall", "--run", str(run), "--data", str(data),
             "--n", "5,10", "--n-sparse", "20", "--max-impressions", "32"])
    cli_run(["bench", "--run", str(run), "--data", str(data), "--k", "1,3", "--repeats", "2"])
    cli_run(["analyze", "--run", str(run), "--data", str(data), "--users", "8"])

    fields = {
        "checkpoint": sha((run / "best.bin").read_bytes(), (run / "best.manifest.json").read_bytes()),
        "metrics_csv": sha((run / "metrics.csv").read_bytes()),
    }
    cfg = cli.load_run(run, [])
    dataset = cli.load_dataset(cfg, data)
    model = cli.restore_model(cfg, run, dataset)
    named = model.named_tensors()
    fields["trained_parameters"] = sha(*(
        name.encode("utf-8") + named[name].data.tobytes() for name in sorted(named)
    ))
    for when in ("cold", "warm"):
        fields[f"evaluate_{when}"] = sha(repr(training.evaluate(model, dataset.val_samples)).encode())

    batch = dataset.train_samples[:32]
    for t in named.values():
        t.zero_grad()
    with nm.Tape() as tape:
        loss = training.batch_loss(model, batch, list(range(len(batch))))
    fields["batch_loss"] = sha(str(len(tape)).encode(), loss.data.tobytes())
    nm.backward(tape, loss)
    fields["batch_loss_grads"] = sha(*(
        name.encode("utf-8") + (b"" if named[name].grad is None else named[name].grad.tobytes())
        for name in sorted(named)
    ))

    fields.update(score_fields(model, dataset.val_samples))

    histories = [s.history for s in dataset.val_samples[:48]]
    users = training.batch_user_embeddings(model, histories, list(range(len(histories))))
    fields["batch_user_embeddings"] = sha(users.data.tobytes())

    recall.save_index(dataset.stats, run / "index.bin")
    fields["index_file"] = sha((run / "index.bin").read_bytes())
    fields["recall_csv"] = sha((run / "recall.csv").read_bytes())
    fields["analyze_csv"] = sha((run / "positions.csv").read_bytes(), (run / "keywords.csv").read_bytes())
    fields["bench_csv"] = sha(without_column(run / "bench.csv", "wall_time_per_user"))
    return fields


def score_fields(model, samples) -> dict[str, str]:
    """The hashed impression scores of ``samples`` on an empty item store and
    on the warm one, and the candidate rows the cold pass read."""
    import numpy as np

    from gateformer import training
    from gateformer import numerics as nm

    model.items = training.ItemStore()
    fields = {}
    for when in ("cold", "warm"):
        scores, rows = [], []
        for start in range(0, len(samples), training.ENCODE_CHUNK):
            chunk = samples[start:start + training.ENCODE_CHUNK]
            users = training.batch_user_embeddings(
                model, [s.history for s in chunk], list(range(start, start + len(chunk)))
            )
            cands = model.items.rows(
                [seq for s in chunk for seq in (s.positive, *s.negatives)], model.trans
            )
            rows.append(cands.tobytes())
            n_cands = np.array([1 + len(s.negatives) for s in chunk])
            for members, z in training.impression_logits(users, nm.constant(cands), n_cands):
                scores += [members.astype(np.int64).tobytes(), z.data.tobytes()]
        fields[f"impression_logits_{when}"] = sha(*scores)
        if when == "cold":
            fields["candidate_rows"] = sha(*rows)
    return fields


def worker(root: Path, corpora: list[str], cases: list[str]) -> dict[str, str]:
    """Every field of every corpus and case, computed by the package under
    ``root/src``."""
    import numpy  # noqa: F401  before gateformer, so an unset BLAS setting stays unset

    import gateformer

    package = Path(gateformer.__file__).resolve()
    if not package.is_relative_to(root.resolve() / "src"):
        raise RuntimeError(f"imported gateformer from {package}, not from {root}/src")
    out: dict[str, str] = {}
    with tempfile.TemporaryDirectory(prefix="same-numbers-") as tmp:
        for corpus in corpora:
            data = Path(tmp) / corpus
            synth_sets = [s for s in CORPORA[corpus] if s.startswith("synth.")]
            cli_run(["synth", "--out", str(data), "--seed", str(SEED), *flags(synth_sets)])
            if corpus == "ragged":
                make_ragged(data)
            model_sets = [s for s in CORPORA[corpus] if not s.startswith("synth.")]
            for case in cases:
                fields = case_fields(data, Path(tmp) / f"{corpus}-{case}", model_sets, *CASES[case])
                out.update({f"{corpus}/{case}/{name}": value for name, value in fields.items()})
    return out


def run_side(root: Path, corpora: list[str], cases: list[str], blas_threads: str) -> dict[str, str]:
    """This script's worker on the checkout at ``root``, in a fresh interpreter."""
    env = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
    if blas_threads != "default":
        env.update({var: blas_threads for var in BLAS_VARS})
    env["PYTHONPATH"] = str(root / "src")
    with tempfile.NamedTemporaryFile(suffix=".json") as out:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--worker", str(root),
             "--corpora", ",".join(corpora), "--cases", ",".join(cases),
             "--out", out.name],
            cwd=root, env=env, capture_output=True, text=True,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"worker on {root} exited {proc.returncode}:\n{proc.stderr[-3000:]}")
        return json.loads(Path(out.name).read_text(encoding="utf-8"))


def compare(before: dict[str, str], after: dict[str, str]) -> list[str]:
    """One ``<field> same|differs`` line per field of either side; a field
    only one side has differs."""
    return [
        f"{name} {'same' if before.get(name) == after.get(name) else 'differs'}"
        for name in dict.fromkeys([*before, *after])
    ]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", default="HEAD", help="git revision to compare against")
    parser.add_argument("--corpora", default="train,serve-long,ragged",
                        help=f"comma-separated, of {', '.join(CORPORA)}")
    parser.add_argument("--cases", default=",".join(CASES),
                        help=f"comma-separated, of {', '.join(CASES)}")
    parser.add_argument("--blas-threads", default="1", help="a count, or 'default'")
    parser.add_argument("--worker", metavar="ROOT", help=argparse.SUPPRESS)
    parser.add_argument("--out", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    corpora, cases = args.corpora.split(","), args.cases.split(",")
    for name, known in ((corpora, CORPORA), (cases, CASES)):
        unknown = [n for n in name if n not in known]
        if unknown:
            parser.error(f"unknown {', '.join(unknown)}; choose from {', '.join(known)}")

    if args.worker:
        fields = worker(Path(args.worker), corpora, cases)
        Path(args.out).write_text(json.dumps(fields, indent=1), encoding="utf-8")
        return 0

    parent = git("rev-parse", args.parent).decode().strip()
    change = tree_commit()
    print(f"# parent {parent}, change {change}, blas threads {args.blas_threads}", flush=True)
    with tempfile.TemporaryDirectory(prefix="same-numbers-") as tmp:
        sides = {}
        for side, rev in (("before", parent), ("after", change)):
            checkout(rev, Path(tmp) / side)
            try:
                sides[side] = run_side(Path(tmp) / side, corpora, cases, args.blas_threads)
            except RuntimeError as err:
                print(f"error: {side}: {err}", file=sys.stderr)
                return 2
    lines = compare(sides["before"], sides["after"])
    print("\n".join(lines))
    return int(any(line.endswith(" differs") for line in lines))


if __name__ == "__main__":
    raise SystemExit(main())
