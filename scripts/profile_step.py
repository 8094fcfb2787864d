"""Per-op profile of B=32 training steps on the benchmark workloads' corpora
and a ragged one.

    python3 scripts/profile_step.py                 # every corpus, 5 steps each
    python3 scripts/profile_step.py --workload serve-long --steps 10

For each corpus the script writes the synthetic data with ``gateformer
synth`` into a temporary directory (and for ``ragged`` cuts it with
``same_numbers.make_ragged``), builds a seeded model and runs one
unmeasured warm-up step and then ``--steps`` measured steps of the training
loop's own pieces (``batch_loss`` on a tape, ``backward``, ``adam_step``),
with BLAS on one thread. It prints one markdown table per corpus:

* per op of ``gateformer.numerics``: calls, forward ms, backward ms and tape
  nodes per step (means over the measured steps). Forward time is the op's
  own call; an op called inside another op counts towards the outer one, and
  so do its tape nodes and their backward time.
* per step (medians): forward, backward and Adam ms, tape nodes, and minor
  page faults during forward and backward (``resource.getrusage``). The
  forward time no op accounts for is the Python around the ops.
* forward only, with no tape: ms of ``batch_user_embeddings`` on B=32
  distinct training histories, of ``evaluate`` on 32 val impressions, and
  of the item store's read of each row kind alone (the candidates of those
  impressions, and the gate features of those histories' items), each cold
  (a fresh model, so an empty item store) and warm (a second call on it,
  which is the store's snapshot check and one gather).

Then one table of the batch-of-one forward path, in us per call: the mean
over 32 distinct histories of one ``user_embedding`` each, and over 32 items
of one ``encode_candidate`` each; each row is the median over ``REPEATS``
rounds, after one unmeasured round. ``user_embedding`` is timed as it is
and then again with its parts wrapped, and the split comes from the
wrapped round:

* ``gate_history``: its kernels (``item_features``, ``lstm_last`` or the
  attention user encoder's ``attention_pool``, and ``cosine``),
  ``select_positions``, and the rest, the gate's bookkeeping;
* ``encode_user``: its layer stack and pooling (``encode_sequence`` and
  ``weighted_pool``) and the rest, the encoder's bookkeeping.

The wrappers' own cost falls in the bookkeeping rows.

The corpora are ``same_numbers.CORPORA``'s ``train``, ``serve-long`` and
``ragged``: the two benchmark workloads' synth settings, and the ``train``
corpus cut to ragged lengths, so that a batch holds many item lengths and
item counts. The script shares no code with the benchmark.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import functools
import inspect
import io
import resource
import statistics
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from gateformer import cli, gating, training, transformer  # noqa: E402
from gateformer import numerics as nm  # noqa: E402
from gateformer.config import load_config  # noqa: E402
from same_numbers import CORPORA, make_ragged  # noqa: E402

BATCH = 32
SEED = 1
WORKLOADS = ("train", "serve-long", "ragged")  # CORPORA less the smoke test's tiny one
# numerics functions that are not ops: they build or read tensors and tapes
NOT_OPS = {"tensor", "constant", "backward"}
REPEATS = 5  # measured rounds of the batch-of-one table
# the batch-of-one table's stages and the parts timed inside them, each
# (module, name) wrapped in the module its caller looks it up in
STAGES = {"gate": (training, "gate_history"), "encoder": (training, "encode_user"),
          "candidate": (transformer, "encode_candidate")}
PARTS = {
    "kernels": [(gating, "item_features"), (nm, "lstm_last"), (nm, "attention_pool"),
                (nm, "cosine"), (transformer, "encode_sequence"),
                (transformer, "weighted_pool")],
    "select": [(gating, "select_positions")],
}


class OpProfile:
    """Wraps every op of ``gateformer.numerics`` wherever a gateformer module
    holds it, timing the outermost call and each tape node it records."""

    def __init__(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.fwd: dict[str, float] = defaultdict(float)
        self.bwd: dict[str, float] = defaultdict(float)
        self.nodes: dict[str, int] = defaultdict(int)
        self._depth = 0
        self._patched: list[tuple[object, str, object]] = []

    def _timed_bwd(self, name, bwd):
        def run(g):
            t0 = time.perf_counter()
            out = bwd(g)
            self.bwd[name] += time.perf_counter() - t0
            return out
        return run

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def op(*args, **kwargs):
            if self._depth:
                return fn(*args, **kwargs)
            tape = nm._tape()
            before = len(tape.nodes) if tape is not None else 0
            self._depth += 1
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.fwd[name] += time.perf_counter() - t0
                self._depth -= 1
                self.calls[name] += 1
                if tape is not None:
                    for node in tape.nodes[before:]:
                        node.bwd = self._timed_bwd(name, node.bwd)
                    self.nodes[name] += len(tape.nodes) - before
        return op

    def __enter__(self) -> "OpProfile":
        ops = {
            fn: self._wrap(name, fn)
            for name, fn in vars(nm).items()
            if inspect.isfunction(fn) and fn.__module__ == nm.__name__
            and not name.startswith("_") and name not in NOT_OPS
        }
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "gateformer" and not mod_name.startswith("gateformer."):
                continue
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in ops:
                    self._patched.append((mod, attr, value))
                    setattr(mod, attr, ops[value])
        return self

    def __exit__(self, *exc) -> None:
        for mod, attr, value in self._patched:
            setattr(mod, attr, value)
        self._patched.clear()

    def reset(self) -> None:
        for table in (self.calls, self.fwd, self.bwd, self.nodes):
            table.clear()


def _minflt() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def profile_corpus(name: str, steps: int, seed: int, work: Path) -> str:
    overrides = CORPORA[name] + [f"train.seed={seed}", f"train.batch_size={BATCH}"]
    data = work / name
    argv = ["synth", "--out", str(data), "--seed", str(seed)]
    for item in overrides:
        argv += ["--set", item]
    with contextlib.redirect_stdout(io.StringIO()):
        args = cli.make_parser().parse_args(argv)
        if args.fn(args) != 0:
            raise RuntimeError("gateformer synth failed")
    if name == "ragged":
        make_ragged(data)
    cfg = load_config(None, overrides)
    ds = cli.load_dataset(cfg, data)
    model = cli.build_model(cfg, len(ds.vocab), ds.stats)
    trainable = model.trainable_tensors()
    state = training.OptimState(peak_lr=cfg.train.peak_lr, warmup_steps=1,
                                total_steps=steps + 1)
    # distinct random batches, as the training loop draws them
    order = np.random.default_rng([seed, 15485863]).permutation(len(ds.train_samples))
    totals: dict[str, list[float]] = defaultdict(list)
    with OpProfile() as prof:
        for step in range(steps + 1):
            if step == 1:
                prof.reset()
            idx = order[(step * BATCH + np.arange(BATCH)) % len(order)].tolist()
            training.zero_grads(trainable)
            f0, t0 = _minflt(), time.perf_counter()
            with nm.Tape() as tape:
                loss = training.batch_loss(model, [ds.train_samples[i] for i in idx], idx)
            f1, t1 = _minflt(), time.perf_counter()
            training.backward(tape, loss)
            f2, t2 = _minflt(), time.perf_counter()
            training.adam_step(trainable, state)
            t3 = time.perf_counter()
            if step == 0:
                continue
            totals["forward ms"].append((t1 - t0) * 1e3)
            totals["backward ms"].append((t2 - t1) * 1e3)
            totals["adam ms"].append((t3 - t2) * 1e3)
            totals["tape nodes"].append(len(tape))
            totals["minor faults, forward"].append(f1 - f0)
            totals["minor faults, backward"].append(f2 - f1)

    forward = forward_table(cfg, ds)
    rows = sorted(prof.calls, key=lambda k: -(prof.fwd[k] + prof.bwd[k]))
    lines = [
        f"### {name}: B={BATCH}, seed {seed}, {steps} steps after one warm-up, one BLAS thread",
        "",
        "| op | calls/step | fwd ms | bwd ms | tape nodes/step |",
        "| --- | ---: | ---: | ---: | ---: |",
    ]
    for op in rows:
        lines.append(f"| {op} | {prof.calls[op] / steps:.1f} | {prof.fwd[op] * 1e3 / steps:.2f} "
                     f"| {prof.bwd[op] * 1e3 / steps:.2f} | {prof.nodes[op] / steps:.1f} |")
    op_fwd = sum(prof.fwd.values()) * 1e3 / steps
    lines += ["", "| per step (median) | value |", "| --- | ---: |"]
    for key, values in totals.items():
        lines.append(f"| {key} | {statistics.median(values):.1f} |")
    lines.append(f"| forward ms outside ops (mean) | "
                 f"{statistics.mean(totals['forward ms']) - op_fwd:.1f} |")
    return "\n".join(lines + [""] + forward + [""] + single_table(cfg, ds))


def forward_table(cfg, ds) -> list[str]:
    """Cold and warm ms of the forward-only batched entries, as table lines."""
    # distinct histories: a batch dedups equal ones before gating
    distinct = {tuple(seq.key for seq in s.history.items): s.history for s in ds.train_samples}
    histories = list(distinct.values())[:BATCH]
    idx = list(range(len(histories)))
    val = ds.val_samples[:BATCH]
    cands = [seq for s in val for seq in (s.positive, *s.negatives)]
    # the item keys and (G, L) token ids per item length, as the gate groups them
    items = [seq for h in histories for seq in h.items]
    by_len = [[seq for seq in items if len(seq) == n] for n in sorted({len(seq) for seq in items})]
    groups = [([seq.key for seq in g], np.stack([seq.ids for seq in g])) for g in by_len]
    calls = {
        f"batch_user_embeddings, B={len(histories)}":
            lambda model: training.batch_user_embeddings(model, histories, idx),
        f"evaluate, {len(val)} val impressions": lambda model: training.evaluate(model, val, cfg.train.threads),
        f"ItemStore.rows, {len(cands)} candidates":
            lambda model: model.items.rows(cands, model.trans),
        f"ItemStore.gate_rows, {len(items)} history items":
            lambda model: model.items.gate_rows(groups, model.gate),
    }
    lines = ["| forward only, no tape | cold ms | warm ms |", "| --- | ---: | ---: |"]
    for label, call in calls.items():
        model = cli.build_model(cfg, len(ds.vocab), ds.stats)
        times = []
        for _ in range(2):
            t0 = time.perf_counter()
            call(model)
            times.append((time.perf_counter() - t0) * 1e3)
        lines.append(f"| {label} | {times[0]:.1f} | {times[1]:.1f} |")
    return lines


class PartTimer:
    """Wraps the batch-of-one table's stages and parts; a part is timed under
    the stage running it, and a part called inside another part counts
    towards the outer one."""

    def __init__(self) -> None:
        self.us: dict[tuple[str, str], float] = defaultdict(float)
        self._stage: str | None = None
        self._in_part = False
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, mod, attr, stage=None, part=None) -> None:
        fn = getattr(mod, attr)

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            if part is not None and (self._in_part or self._stage is None):
                return fn(*args, **kwargs)
            outer = (self._stage, self._in_part)
            if stage is not None:
                self._stage = stage
            else:
                self._in_part = True
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.us[self._stage, part or "total"] += (time.perf_counter() - t0) * 1e6
                self._stage, self._in_part = outer

        self._patched.append((mod, attr, fn))
        setattr(mod, attr, timed)

    def __enter__(self) -> "PartTimer":
        for stage, (mod, attr) in STAGES.items():
            self._wrap(mod, attr, stage=stage)
        for part, targets in PARTS.items():
            for mod, attr in targets:
                self._wrap(mod, attr, part=part)
        return self

    def __exit__(self, *exc) -> None:
        for mod, attr, fn in reversed(self._patched):
            setattr(mod, attr, fn)
        self._patched.clear()


def single_table(cfg, ds) -> list[str]:
    """The batch-of-one table's lines."""
    model = cli.build_model(cfg, len(ds.vocab), ds.stats)
    distinct = {tuple(seq.key for seq in s.history.items): s.history
                for s in ds.train_samples + ds.val_samples}
    histories = list(distinct.values())[:BATCH]
    items = [ds.news[n] for n in sorted(ds.news)[:BATCH]]
    rows: dict[str, list[float]] = defaultdict(list)
    for round_ in range(REPEATS + 1):
        t0 = time.perf_counter()
        for i, h in enumerate(histories):
            training.user_embedding(model, h, i)
        plain = (time.perf_counter() - t0) * 1e6 / len(histories)
        with PartTimer() as timer:
            for i, h in enumerate(histories):
                training.user_embedding(model, h, i)
            for seq in items:
                transformer.encode_candidate(seq, model.trans)
        if not round_:
            continue
        calls = {"gate": len(histories), "encoder": len(histories), "candidate": len(items)}
        us = {(stage, part): v / calls[stage] for (stage, part), v in timer.us.items()}
        gate, enc, cand = us["gate", "total"], us["encoder", "total"], us["candidate", "total"]
        for label, value in (
            ("user_embedding", plain),
            ("gate_history", gate),
            ("gate kernels", us["gate", "kernels"]),
            ("select_positions", us["gate", "select"]),
            ("gate bookkeeping", gate - us["gate", "kernels"] - us["gate", "select"]),
            ("encode_user", enc),
            ("encoder layers and pooling", us["encoder", "kernels"]),
            ("encoder bookkeeping", enc - us["encoder", "kernels"]),
            ("encode_candidate", cand),
            ("candidate layers and pooling", us["candidate", "kernels"]),
            ("candidate bookkeeping", cand - us["candidate", "kernels"]),
        ):
            rows[label].append(value)
    # a ragged corpus's histories hold from fewest to most items
    fewest, most = min(map(len, histories)), max(map(len, histories))
    n_items = fewest if fewest == most else f"{fewest}-{most}"
    lines = [f"| batch of one, {n_items}-item histories, no tape | us per call |",
             "| --- | ---: |"]
    lines += [f"| {label} | {statistics.median(values):.0f} |" for label, values in rows.items()]
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--steps", type=int, default=5, help="measured steps per corpus")
    args = parser.parse_args(argv)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    with tempfile.TemporaryDirectory(prefix="profile-step-") as tmp:
        for name in names:
            print(profile_corpus(name, args.steps, SEED, Path(tmp)), flush=True)
            print()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
