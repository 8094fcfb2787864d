"""Personalized, lightweight, end-to-end learnable keyword gate.

The gate reads every token of a user's history, summarizes the user's
interest with a tiny CNN + pooled LSTM, scores each token by cosine
similarity against that interest vector, and keeps the top-K tokens per
item. Selection itself is discrete; gradients reach the rest of the model
through two differentiable paths:

* the gathered token embeddings (the one-hot gather acts as a constant
  template, so embedding rows receive gradient), and
* the selected scores, which are softmax-normalized into weights that
  scale the gathered embeddings row-wise.

Unselected tokens still receive gradient through the interest-encoding
path, which is what lets the gate learn which tokens to keep.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numerics as nm
from .numerics import LSTMParams, Tensor, constant, gather_rows, tensor
from .recall import bm25_term_weight
from .text import PAD_ID, CorpusStats, TokenSequence, UserHistory

NEG_MASK = -1e30  # additive log-space mask; finite to keep forwards NaN-free

GATE_METHODS = ("learned", "first", "bm25", "random")


@dataclass
class GateParams:
    """Learnable gate tensors. The word embedding table is shared with the
    transformer module; the gate's own space is n_filters-dimensional and
    the LSTM hidden size must equal it."""

    word_embeddings: Tensor          # (V, d)
    filters: Tensor                  # (N_f, (2w+1) * d)
    bias: Tensor                     # (N_f,)
    pool_v: Tensor                   # (N_f,)
    lstm: LSTMParams                 # input N_f, hidden N_f
    attn_v: Tensor                   # (N_f,) query for the attention user encoder
    window: int = 1
    user_encoder: str = "lstm"       # lstm | attn
    granularity: str = "token"       # token | word

    def __post_init__(self):
        n_f = self.filters.data.shape[0]
        if self.lstm.hidden != n_f or self.lstm.input_dim != n_f:
            raise ValueError(
                f"gate LSTM dims {self.lstm.input_dim}->{self.lstm.hidden} "
                f"must equal n_filters {n_f}"
            )
        if self.window < 1:
            raise ValueError("gate window must be >= 1")

    @property
    def n_filters(self) -> int:
        return self.filters.data.shape[0]

    @property
    def embed_dim(self) -> int:
        return self.word_embeddings.data.shape[1]

    def named_tensors(self) -> dict[str, Tensor]:
        return {
            "gate.conv.filters": self.filters,
            "gate.conv.bias": self.bias,
            "gate.pool.v": self.pool_v,
            "gate.lstm.w_ih": self.lstm.w_ih,
            "gate.lstm.w_hh": self.lstm.w_hh,
            "gate.lstm.bias": self.lstm.bias,
            "gate.attn.v": self.attn_v,
        }


def _orthonormal(rows: int, cols: int, rng: np.random.Generator) -> np.ndarray:
    a = rng.normal(size=(max(rows, cols), min(rows, cols)))
    q, _ = np.linalg.qr(a)
    return q[:rows, :cols] if rows >= cols else q[:cols, :rows].T


def init_gate_params(
    word_embeddings: Tensor,
    n_filters: int,
    window: int,
    rng: np.random.Generator,
    user_encoder: str = "lstm",
    granularity: str = "token",
) -> GateParams:
    """Initialize the gate so token geometry survives to the cosine scorer.

    The selection scores compare the interest vector against per-token
    context features, and the only training pressure on that comparison is
    the soft weighting of already-selected tokens, which is weak. Starting
    from an arbitrary rotation the scorer takes very long to become
    informative, so the init makes the whole chain feature-preserving from
    step 0: the convolution's center tap is an orthonormal projection of the
    embedding (neighbor taps small noise), and the LSTM opens its input,
    forget, and output gates with an orthonormal candidate path so its state
    stays in the same feature space as the per-token contexts. Training
    remains fully end-to-end.
    """
    d = word_embeddings.data.shape[1]
    span = 2 * window + 1

    def glorot(shape):
        lim = np.sqrt(6.0 / (shape[0] + shape[-1]))
        return tensor(rng.uniform(-lim, lim, size=shape), requires_grad=True)

    filters = rng.normal(0, 0.05, size=(n_filters, span * d))
    filters[:, window * d:(window + 1) * d] += _orthonormal(n_filters, d, rng)

    g = n_filters
    w_ih = rng.normal(0, 0.05, size=(4 * g, g))
    w_ih[2 * g:3 * g] += _orthonormal(g, g, rng)      # candidate path passes through
    w_hh = rng.normal(0, 0.05, size=(4 * g, g))
    bias = np.zeros(4 * g)
    bias[0:g] = 0.5                                    # input gate mostly open
    bias[g:2 * g] = 1.0                                # remember earlier items
    bias[3 * g:4 * g] = 1.0                            # expose the state

    return GateParams(
        word_embeddings=word_embeddings,
        filters=tensor(filters, requires_grad=True),
        bias=tensor(np.zeros(n_filters), requires_grad=True),
        pool_v=glorot((n_filters,)),
        lstm=LSTMParams(
            tensor(w_ih, requires_grad=True),
            tensor(w_hh, requires_grad=True),
            tensor(bias, requires_grad=True),
        ),
        attn_v=glorot((n_filters,)),
        window=window,
        user_encoder=user_encoder,
        granularity=granularity,
    )


@dataclass
class GateSelection:
    """Selected token positions for one item, plus the differentiable pieces.

    ``positions`` are distinct, ordered by descending score with smaller
    index winning ties, and never repeat a token id (first occurrence only).
    ``weights`` are positive and sum to 1. ``gathered`` holds the selected
    token embeddings already scaled row-wise by ``weights``.
    """

    positions: list[int]
    raw_scores: Tensor               # (L,)
    weights: Tensor                  # (K_eff,)
    gathered: Tensor                 # (K_eff, d)

    @property
    def k_eff(self) -> int:
        return len(self.positions)


def _valid_mask(seq: TokenSequence) -> np.ndarray:
    return np.asarray([t != PAD_ID for t in seq.ids], dtype=bool)


def _embed(seq: TokenSequence, params: GateParams) -> Tensor:
    return gather_rows(params.word_embeddings, seq.ids)


def _encode_embedded(emb: Tensor, valid: np.ndarray, params: GateParams):
    """CNN + masked weighted pooling over one already-embedded item."""
    pre = nm.conv1d(emb, params.filters, params.bias, params.window)
    ctx = nm.relu(pre)
    scores = nm.matmul(ctx, params.pool_v)
    if not valid.all():
        scores = nm.add(scores, constant(np.where(valid, 0.0, NEG_MASK)))
    alpha = nm.softmax(scores)
    pooled = nm.matmul(alpha, ctx)
    return ctx, pooled


def encode_item(seq: TokenSequence, params: GateParams):
    """Context-aware token embeddings (L, N_f) and their pooled summary (N_f,).

    Padding positions are masked out of the pooling softmax.
    """
    if len(seq) < 1:
        raise ValueError("cannot encode an empty token sequence")
    return _encode_embedded(_embed(seq, params), _valid_mask(seq), params)


def encode_user_interest(history: UserHistory, params: GateParams) -> Tensor:
    """User interest vector: last LSTM state over per-item summaries."""
    pooled = [encode_item(seq, params)[1] for seq in history.items]
    return _aggregate_user(pooled, params)


def _aggregate_user(pooled: list[Tensor], params: GateParams) -> Tensor:
    if params.user_encoder == "attn":
        return attn_user_variant(pooled, params)
    stacked = nm.concat_rows([nm.reshape(h, (1, params.n_filters)) for h in pooled])
    return nm.lstm_last(stacked, params.lstm)


def attn_user_variant(items_h: list[Tensor], params: GateParams) -> Tensor:
    """Attention-pooling user encoder: drop-in replacement for the LSTM."""
    if not items_h:
        raise ValueError("attention user encoder needs at least one item")
    stacked = nm.concat_rows([nm.reshape(h, (1, params.n_filters)) for h in items_h])
    alpha = nm.softmax(nm.matmul(stacked, params.attn_v))
    return nm.matmul(alpha, stacked)


def word_average_matrix(word_groups) -> np.ndarray:
    """(..., L, L) row-averaging matrices for (..., L) word groups: entry
    [j, k] is 1/n when tokens j and k belong to the same n-token word."""
    groups = np.asarray(word_groups)
    same = groups[..., :, None] == groups[..., None, :]
    return same / same.sum(axis=-1, keepdims=True)


def _word_average(ctx: Tensor, word_group: list[int]) -> Tensor:
    """Replace each row by the mean over its surface word's rows."""
    return nm.matmul(constant(word_average_matrix(word_group)), ctx)


def score_tokens(
    ctx: Tensor,
    user_interest: Tensor,
    word_group: list[int] | None = None,
) -> Tensor:
    """Per-token importance: cosine(user interest, context embedding).

    With ``word_group`` given, context rows are first averaged within each
    surface word so importance is scored per word rather than per token.
    Padding handling lives in :func:`select_topk`, which masks pad positions
    out of the ranking entirely.
    """
    if ctx.data.shape[1] != user_interest.data.shape[0]:
        raise ValueError(
            f"score_tokens dims mismatch: ctx {ctx.data.shape} vs "
            f"interest {user_interest.data.shape}"
        )
    if word_group is not None:
        ctx = _word_average(ctx, word_group)
    eps = 1e-12
    num = nm.matmul(ctx, user_interest)
    row_sq = nm.vsum(nm.mul(ctx, ctx), axis=1)
    row_norm = nm.sqrt(nm.clamp_min(row_sq, eps * eps))
    u_norm = nm.sqrt(nm.clamp_min(nm.dot(user_interest, user_interest), eps * eps))
    return nm.div(num, nm.mul(row_norm, u_norm))


def _selectable_scores(seq: TokenSequence, scores: np.ndarray) -> np.ndarray:
    """Scores with pads and duplicate token ids (non-first) masked to -inf."""
    masked = scores.astype(float).copy()
    seen: set[int] = set()
    for j, tok in enumerate(seq.ids):
        if tok == PAD_ID or tok in seen:
            masked[j] = -np.inf
        else:
            seen.add(tok)
    return masked


def select_positions(seq: TokenSequence, scores: np.ndarray, k: int) -> list[int]:
    """Top-k positions by score; pads and duplicate ids excluded, ties go to
    the smaller index, order is descending score."""
    if k < 1:
        raise ValueError("k must be >= 1")
    masked = _selectable_scores(seq, scores)
    order = np.argsort(-masked, kind="stable")
    out: list[int] = []
    for j in order:
        if masked[j] == -np.inf or len(out) >= k:
            break
        out.append(int(j))
    return out


def select_topk(
    seq: TokenSequence,
    raw_scores: Tensor,
    embeddings: Tensor,
    k: int,
) -> GateSelection:
    """Differentiable top-k gather of token embeddings.

    The argsort itself is discrete: the selected index set acts as a constant
    template, so no gradient flows through its construction. Gradient flows
    into ``embeddings`` via the gather and into ``raw_scores`` via the
    softmax-normalized weights that scale each gathered row.

    If the item has fewer than ``k`` distinct non-pad tokens, all of them are
    selected (K_eff < k); downstream concatenation handles ragged lengths.
    """
    positions = select_positions(seq, raw_scores.data, k)
    if not positions:
        raise ValueError("no selectable tokens in item (all padding)")
    selected_scores = gather_rows(raw_scores, positions)
    weights = nm.softmax(selected_scores)
    gathered = gather_rows(embeddings, positions)
    scaled = nm.mul(gathered, nm.reshape(weights, (len(positions), 1)))
    return GateSelection(
        positions=positions,
        raw_scores=raw_scores,
        weights=weights,
        gathered=scaled,
    )


def gate_history(history: UserHistory, params: GateParams, k: int) -> list[GateSelection]:
    """Run the full gate over a user's history: one selection per item."""
    if len(history) < 1:
        raise ValueError("history must be non-empty")
    embedded = [_embed(seq, params) for seq in history.items]
    encoded = [
        _encode_embedded(emb, _valid_mask(seq), params)
        for emb, seq in zip(embedded, history.items)
    ]
    interest = _aggregate_user([pooled for _, pooled in encoded], params)
    selections = []
    for seq, emb, (ctx, _) in zip(history.items, embedded, encoded):
        group = seq.word_group if params.granularity == "word" else None
        scores = score_tokens(ctx, interest, group)
        selections.append(select_topk(seq, scores, emb, k))
    return selections


def heuristic_scores(
    seq: TokenSequence,
    method: str,
    stats: CorpusStats | None = None,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Per-token scores for the non-learned selectors. Uniform scores make
    the index tie-break reproduce first-k selection."""
    L = len(seq)
    if method == "first":
        return np.zeros(L)
    if method == "random":
        return rng.random(L)
    _, inverse, counts = np.unique(seq.ids, return_inverse=True, return_counts=True)
    return bm25_term_weight(
        tf=counts[inverse],
        df=np.array([stats.doc_freq.get(tok, 0) for tok in seq.ids], dtype=np.int64),
        doc_len=L,
        avg_len=stats.avg_len,
        n_docs=stats.n_docs,
    )


def heuristic_gate(
    history: UserHistory,
    method: str,
    k: int,
    params: GateParams,
    stats: CorpusStats | None = None,
    rng: np.random.Generator | None = None,
) -> list[GateSelection]:
    """Non-learned selector baselines: first-k, BM25 term weight, or random.

    Selected embeddings stay differentiable (the embedding table still
    trains); the weights are constant and uniform at 1/K_eff.
    """
    if method not in ("first", "bm25", "random"):
        raise ValueError(f"unknown heuristic gate method: {method}")
    if method == "bm25" and stats is None:
        raise ValueError("bm25 gating requires corpus stats")
    if method == "random" and rng is None:
        raise ValueError("random gating requires an rng")

    selections = []
    for seq in history.items:
        scores = heuristic_scores(seq, method, stats, rng)
        positions = select_positions(seq, scores, k)
        if not positions:
            raise ValueError("no selectable tokens in item (all padding)")
        k_eff = len(positions)
        weights = constant(np.full(k_eff, 1.0 / k_eff))
        gathered = gather_rows(_embed(seq, params), positions)
        scaled = nm.mul(gathered, nm.reshape(weights, (k_eff, 1)))
        selections.append(
            GateSelection(
                positions=positions,
                raw_scores=constant(scores),
                weights=weights,
                gathered=scaled,
            )
        )
    return selections
