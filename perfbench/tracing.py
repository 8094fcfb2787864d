"""Span tracing from outside the program, and the per-layer metrics it yields.

The tracer replaces public gateformer names with wrappers *where callers look
them up*: ``training`` imports its helpers by name, so ``batch_loss`` calls
``gateformer.training.encode_candidates``, not the ``transformer`` attribute.
Every wrapped call opens a span (name, start, end, parent, operation id and
the FLOPs counted while it was open). FLOPs come from one ``count_flops``
counter armed while tracing is on; a span's FLOPs are the counter's delta.
Counters are never nested: a nested ``count_flops`` restores the outer one
on exit without adding its own count, so the outer total would come out low.

High-frequency calls (``bm25_score``, ``encode_candidate``) are counted, not
spanned: each call adds one to the named count of every open span.

Spans stay in memory and are written out when the run ends.
"""

from __future__ import annotations

import statistics
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field

from gateformer import cli, recall, training
from gateformer import numerics as nm


@dataclass
class Span:
    name: str
    parent: int                  # index into Tracer.spans; -1 for a root
    op: int                      # shared by every span of one root operation
    start: float
    end: float = 0.0
    flops: int = 0
    attrs: dict = field(default_factory=dict)
    counts: dict = field(default_factory=dict)

    @property
    def ms(self) -> float:
        return (self.end - self.start) * 1e3


def _tokens(args, kwargs, result) -> dict:
    history = args[0]
    return {
        "tokens_read": sum(len(seq) for seq in history.items),
        "tokens_kept": sum(sel.k_eff for sel in result),
    }


def _cand_rows(args, kwargs, result) -> dict:
    seqs = args[0]
    # one TokenSequence object per news id, so object identity is the news id
    return {"rows": len(seqs), "unique": len({id(s) for s in seqs})}


def _tape_nodes(args, kwargs, result) -> dict:
    return {"tape_nodes": len(args[0])}


def _impressions(args, kwargs, result) -> dict:
    return {"impressions": len(args[1])}


# (module, attribute, span attributes taken from the call) for spanned names
SPANNED = [
    (training, "batch_loss", None),
    (training, "backward", _tape_nodes),
    (training, "adam_step", None),
    (training, "evaluate", _impressions),
    (training, "batch_user_embeddings", None),
    (training, "encode_candidates", _cand_rows),
    (training, "encode_sequence", None),
    (training, "weighted_pool", None),
    (training, "gate_history", _tokens),
    (training, "encode_user", None),
    (recall, "recall_sparse", None),
    (cli, "load_checkpoint", None),
]
COUNTED = [
    (training, "encode_candidate"),
    (recall, "bm25_score"),
]


class Tracer:
    """Collects spans while enabled; disabled, it leaves every name untouched."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._counter: nm.FlopCounter | None = None
        self._ops = 0
        self.on = False

    def _flops(self) -> int:
        return self._counter.flops if self._counter is not None else 0

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        if parent < 0:
            op = self._ops
            self._ops += 1
        else:
            op = self.spans[parent].op
        self.spans.append(Span(name, parent, op, time.perf_counter(), flops=self._flops()))
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def _close(self, idx: int) -> None:
        span = self.spans[idx]
        span.end = time.perf_counter()
        span.flops = self._flops() - span.flops
        self._stack.pop()

    @contextmanager
    def span(self, name: str, **attrs):
        """A span opened by the benchmark itself around a call it makes."""
        idx = self._open(name)
        self.spans[idx].attrs.update(attrs)
        try:
            yield self.spans[idx]
        finally:
            self._close(idx)

    def _spanned(self, module, attr, describe):
        original = getattr(module, attr)
        name = f"{module.__name__.rsplit('.', 1)[-1]}.{attr}"

        def wrapper(*args, **kwargs):
            idx = self._open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                self._close(idx)
            if describe is not None:
                self.spans[idx].attrs.update(describe(args, kwargs, result))
            return result

        return original, wrapper

    def _counted(self, module, attr):
        original = getattr(module, attr)

        def wrapper(*args, **kwargs):
            for idx in self._stack:
                counts = self.spans[idx].counts
                counts[attr] = counts.get(attr, 0) + 1
            return original(*args, **kwargs)

        return original, wrapper

    @contextmanager
    def enabled(self):
        """Install every wrapper and arm the one FLOP counter for the block."""
        patches = [(m, a, *self._spanned(m, a, d)) for m, a, d in SPANNED]
        patches += [(m, a, *self._counted(m, a)) for m, a in COUNTED]
        for module, attr, _, wrapper in patches:
            setattr(module, attr, wrapper)
        arm = nm.count_flops()
        self._counter = arm.__enter__()
        self.on = True
        try:
            yield self
        finally:
            self.on = False
            arm.__exit__(None, None, None)
            self._counter = None
            for module, attr, original, _ in reversed(patches):
                setattr(module, attr, original)

    def dump(self) -> list[dict]:
        return [asdict(s) for s in self.spans]


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

def _median(values) -> float:
    return float(statistics.median(list(values)))


def layer_metrics(spans: list[Span], extra: dict[str, float]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from the traced spans plus the benchmark's own
    measurements (``extra``); values are medians over spans unless noted."""
    by_name: dict[str, list[Span]] = {}
    children: dict[int, list[int]] = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s.name, []).append(s)
        children.setdefault(s.parent, []).append(i)

    def self_ms(name: str) -> list[float]:
        """Duration minus the time its child spans cover."""
        return [
            s.ms - sum(spans[c].ms for c in children.get(i, ()))
            for i, s in enumerate(spans) if s.name == name
        ]

    def ms(name):
        return [s.ms for s in by_name[name]]

    def attr(name, key):
        return [s.attrs[key] for s in by_name[name]]

    loss = by_name["training.batch_loss"]
    # evaluate calls of eval operations; train's closing evaluate scores
    # other impression counts
    evals = [s for s in by_name["training.evaluate"]
             if s.parent >= 0 and spans[s.parent].name == "op.eval"]
    cands = by_name["training.encode_candidates"]
    sparse = by_name["recall.recall_sparse"]
    return {
        "numerics.backward_ms_per_step": (_median(ms("training.backward")), "ms"),
        "numerics.tape_nodes_per_step": (_median(attr("training.backward", "tape_nodes")), "count"),
        "numerics.fwd_flops_per_step": (_median(s.flops for s in loss), "flop"),
        "numerics.fwd_gflops_per_s": (
            sum(s.flops for s in loss) / sum(s.ms for s in loss) / 1e6, "GFLOP/s"),
        "text.synth_ms": (_median(ms("setup.synth")), "ms"),
        "text.load_dataset_ms": (_median(ms("setup.load_dataset")), "ms"),
        "training.batch_loss_ms_per_step": (_median(s.ms for s in loss), "ms"),
        "training.adam_ms_per_step": (_median(ms("training.adam_step")), "ms"),
        "training.evaluate_ms_per_impression": (
            _median(s.ms / s.attrs["impressions"] for s in evals), "ms"),
        "training.eval_cand_encodes_per_impression": (
            _median(s.counts.get("encode_candidate", 0) / s.attrs["impressions"] for s in evals),
            "count"),
        "gating.select_ms_per_user": (_median(self_ms("training.gate_history")), "ms"),
        # the children of batch_user_embeddings are its encode_sequence and
        # weighted_pool calls, so its self time is the grouped gate selection
        "gating.batch_select_ms": (_median(self_ms("training.batch_user_embeddings")), "ms"),
        "gating.tokens_read_per_user": (_median(attr("training.gate_history", "tokens_read")), "count"),
        "gating.tokens_kept_per_user": (_median(attr("training.gate_history", "tokens_kept")), "count"),
        "transformer.encode_candidates_ms_per_step": (_median(s.ms for s in cands), "ms"),
        "transformer.cand_rows_per_step": (_median(s.attrs["rows"] for s in cands), "count"),
        "transformer.cand_unique_ratio": (
            sum(s.attrs["unique"] for s in cands) / sum(s.attrs["rows"] for s in cands), "ratio"),
        "transformer.encode_user_ms_per_user": (_median(ms("training.encode_user")), "ms"),
        "transformer.checkpoint_save_ms": (_median(ms("setup.save_checkpoint")), "ms"),
        "transformer.checkpoint_load_ms": (_median(ms("cli.load_checkpoint")), "ms"),
        "transformer.doc_encode_ms": (_median(ms("setup.doc_encode")), "ms"),
        "efficiency.user_flops_model_rel_err": (extra["user_flops_model_rel_err"], "ratio"),
        "efficiency.measured_speedup": (extra["measured_speedup"], "x"),
        "efficiency.analytic_lower_bound": (extra["analytic_lower_bound"], "x"),
        "recall.index_build_ms": (_median(ms("index.build")), "ms"),
        "recall.index_save_ms": (_median(ms("index.save")), "ms"),
        "recall.index_load_ms": (_median(ms("index.load")), "ms"),
        "recall.index_bytes": (_median(attr("index.save", "bytes")), "bytes"),
        "recall.sparse_docs_scored_per_query": (extra["sparse_docs_scored_per_query"], "count"),
        "recall.bm25_score_calls_per_query": (
            _median(s.counts.get("bm25_score", 0) for s in sparse), "count"),
        "recall.query_postings_per_query": (extra["query_postings_per_query"], "count"),
        "recall.dense_docs_scored_per_query": (extra["dense_docs_scored_per_query"], "count"),
        "cli.restore_model_ms": (_median(ms("setup.restore_model")), "ms"),
        "trace.overhead_ratio": (extra["overhead_ratio"], "ratio"),
    }
