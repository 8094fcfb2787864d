"""Analytic FLOP cost model, acceleration-ratio analysis, and benchmarks.

FLOPs are counted as multiply-adds x2, plus the same fixed per-element
constants the numerics layer charges for transcendental work (softmax 5,
layer norm 7, sqrt/sigmoid/tanh 4, elementwise 1). The closed forms below
mirror the gate's and the transformer's forward ops one by one, so they
track the instrumented counter to well under the 5% tolerance the tests
enforce (the gate's count is exact when every item selects k tokens).

Gate cost per token t of an item with L tokens (n_filters f, window w,
embedding dim d, selection size k; the gate's LSTM hidden size equals f):

    conv           2 f (2w+1) d + f     (matmul + bias)
    relu           f
    pooling        2f (scores) + 5 (softmax) + 2f (weighted sum)
    scoring        4f + 7 (cosine numerators, norms, divide)

plus per item:

    lstm step      8 f^2 + 8 f^2 + 32 f   (w_ih = w_hh = f here)
    scoring extra  2f + 5                  (interest-vector norm)
    selection      5k + k d                (weight softmax + row scaling)

Transformer cost for a length-n sequence, per layer:

    attention      8 n d^2 + 4 n^2 d  (q/k/v/o projections, scores, values)
    ffn            16 n d^2
    small terms    6 H n^2 + 29 n d   (softmax+scale, norms, biases, relu,
                                       residuals)

plus once per sequence: 5 n d + 5 n (positions and weighted pooling).
The attention/ffn leading terms make the cost strictly superlinear in n.

These are the costs of a cold gate, as the per-sample path always runs it.
A forward-only batched call that reads the model's item store skips the
conv, relu and pooling of every item the store already holds; it pays a
bit comparison of the tensors those rows read and one gather instead.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import cycle

import numpy as np

from . import numerics as nm
from . import training, transformer
from .gating import GroupedSelection
from .text import ImpressionSample, UserHistory


@dataclass
class ModelDims:
    """Shape parameters the cost model needs."""

    d: int
    layers: int
    heads: int
    n_filters: int
    window: int
    k: int
    item_len: int           # tokens per history item (L)

    def __post_init__(self):
        for name in ("d", "layers", "heads", "n_filters", "window", "k", "item_len"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")


def flops_gate(dims: ModelDims, n_tokens: int) -> float:
    """Full gate forward cost (interest encoding + scoring + selection)."""
    if n_tokens <= 0:
        return 0.0
    f, d, w, k = dims.n_filters, dims.d, dims.window, dims.k
    span = 2 * w + 1
    per_token = (2 * f * span * d + f) + f + (2 * f + 5 + 2 * f) + (4 * f + 7)
    n_items = n_tokens / dims.item_len
    per_item = (8 * f * f + 8 * f * f + 32 * f) + (2 * f + 5) + (5 * k + k * d)
    return per_token * n_tokens + per_item * n_items


def flops_transformer(dims: ModelDims, seq_len: int) -> float:
    """Transformer encode + pooling cost for one length-n sequence."""
    if seq_len < 1:
        raise ValueError("seq_len must be >= 1")
    n = seq_len
    return transformer_linear_coeff(dims) * n + transformer_quadratic_coeff(dims) * n * n


def transformer_linear_coeff(dims: ModelDims) -> float:
    """Per-token coefficient of the linear part of the transformer cost."""
    d = dims.d
    return dims.layers * (24 * d * d + 29 * d) + 5 * d + 5


def transformer_quadratic_coeff(dims: ModelDims) -> float:
    return dims.layers * (4 * dims.d + 6 * dims.heads)


@dataclass
class CostModel:
    """Unit costs plus input sizes for the acceleration analysis."""

    lambda1: float          # gate FLOPs per input token
    lambda2: float          # transformer FLOPs per token, linear part
    quad: float             # transformer FLOPs per token^2
    i_org: int              # original user-input token count
    i_flt: int              # gated token count

    def __post_init__(self):
        if self.lambda1 <= 0 or self.lambda2 <= 0:
            raise ValueError("unit costs must be positive")
        if self.i_flt > self.i_org:
            raise ValueError(f"filtered size {self.i_flt} exceeds original {self.i_org}")

    @classmethod
    def from_dims(cls, dims: ModelDims, n_items: int) -> "CostModel":
        i_org = n_items * dims.item_len
        i_flt = n_items * min(dims.k, dims.item_len)
        return cls(
            lambda1=flops_gate(dims, i_org) / i_org,
            lambda2=transformer_linear_coeff(dims),
            quad=transformer_quadratic_coeff(dims),
            i_org=i_org,
            i_flt=i_flt,
        )

    def t_gate(self, n: int) -> float:
        return self.lambda1 * n

    def t_trans(self, n: int) -> float:
        return self.lambda2 * n + self.quad * n * n

    @property
    def compression(self) -> float:
        return self.i_org / self.i_flt


@dataclass
class AccelReport:
    gamma: float            # analytic acceleration ratio
    lower_bound: float      # 1 / (lambda1/lambda2 + |I_flt|/|I_org|)
    compression: float      # |I_org| / |I_flt|


def acceleration_ratio(cm: CostModel) -> AccelReport:
    """Acceleration of gate-then-encode over encoding the full input.

    The closed-form lower bound drops the superlinear part of the
    transformer cost; whenever that part is present (quad > 0) the analytic
    ratio strictly exceeds the bound, which is asserted here.
    """
    gamma = cm.t_trans(cm.i_org) / (cm.t_gate(cm.i_org) + cm.t_trans(cm.i_flt))
    bound = 1.0 / (cm.lambda1 / cm.lambda2 + cm.i_flt / cm.i_org)
    if cm.quad > 0 and cm.i_org > cm.i_flt:
        assert gamma > bound, f"analytic ratio {gamma} under bound {bound}"
    return AccelReport(gamma=gamma, lower_bound=bound, compression=cm.compression)


def user_side_flops(dims: ModelDims, n_items: int, gated: bool) -> float:
    """Cost of producing one user embedding, gated or full-input."""
    i_org = n_items * dims.item_len
    if not gated:
        return flops_transformer(dims, i_org)
    i_flt = n_items * min(dims.k, dims.item_len)
    return flops_gate(dims, i_org) + flops_transformer(dims, i_flt)


# ---------------------------------------------------------------------------
# measured benchmarks
# ---------------------------------------------------------------------------

def _median_seconds(fn, repeats: int) -> float:
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    times = []
    fn()  # warm
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return float(np.median(times))


def bench(
    model: training.Model, samples: list[ImpressionSample], k_values: list[int], repeats: int = 30
) -> list[dict]:
    """Accuracy/efficiency table across selection sizes of one model.

    Each row reports the median wall time of one user encoding, the
    analytic user-side FLOPs, and the evaluation AUC at that k. ``k`` does
    not reach the candidate encoder, so the evaluations after the first
    take every candidate row from the model's item store. An empty sample
    list raises ``ValueError``.
    """
    if not samples:
        raise ValueError("bench needs at least one impression sample, got none")
    rows = []
    histories = [s.history for s in samples[:repeats]]
    for k in k_values:
        old_k = model.k
        model.k = k
        try:
            turns = cycle(histories)
            wall = _median_seconds(lambda: training.user_embedding(model, next(turns)), repeats)
            n_items = int(np.mean([len(h.items) for h in histories]))
            item_len = int(np.mean([len(seq) for h in histories for seq in h.items]))
            dims = ModelDims(
                d=model.trans.d,
                layers=len(model.trans.layers),
                heads=model.trans.heads,
                n_filters=model.gate.n_filters,
                window=model.gate.window,
                k=k,
                item_len=item_len,
            )
            flops = user_side_flops(dims, n_items, gated=True)
            auc = training.evaluate(model, samples).auc
            rows.append({"k": k, "wall_time_per_user": wall, "flops": flops, "auc": auc})
        finally:
            model.k = old_k
    return rows


def measure_speedup(model: training.Model, histories: list[UserHistory], repeats: int = 30) -> dict:
    """Median wall time of gated vs full-input user encoding; an empty
    history list raises ``ValueError``."""
    if not histories:
        raise ValueError("measure_speedup needs at least one history, got none")
    def full_rows(history):
        ids = np.concatenate([seq.ids for seq in history.items])
        return nm.gather_rows(model.gate.word_embeddings, ids)

    # each timing cycles through the histories from the first, so both
    # medians cover the same histories in the same order
    gated, full = cycle(histories), cycle(histories)
    t_gated = _median_seconds(lambda: training.user_embedding(model, next(gated)), repeats)
    t_full = _median_seconds(
        lambda: transformer.encode_user(full_rows(next(full)), model.trans), repeats
    )
    return {
        "t_gated": t_gated,
        "t_full": t_full,
        "speedup": t_full / t_gated if t_gated > 0 else float("inf"),
    }


def keyword_position_histogram(gatings: list[GroupedSelection]) -> tuple[np.ndarray, np.ndarray]:
    """Counts and frequencies of the selected tokens' positions in their
    items, over the given gatings; there is one count per position of the
    longest item gated. No gatings raise ``ValueError``."""
    if not gatings:
        raise ValueError("no impressions to analyze")
    max_len = max(int(np.diff(g.token_start).max()) for g in gatings)
    counts = np.bincount(np.concatenate([g.positions for g in gatings]), minlength=max_len)
    total = counts.sum()
    freq = counts / total if total else counts.astype(float)
    return counts, freq
