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
path, but none that moves them towards selection: a token's score reaches
the loss only through the softmax over the K tokens already kept, so a
token left out is never pushed in. Training-time exploration (ROADMAP
item 1, step 2: Gumbel-perturbed top-k) is the planned fix.

:func:`gate_groups` is the one gate implementation. It gates many histories
in one pass of grouped tensor ops: items bucketed by length for the CNN,
pooling, scoring and a vectorised top-k, histories bucketed by item count
for the user encoder, and the kept scores bucketed by K_eff for their
softmax; each bucketing is one :func:`numerics.by_length`. The per-item
part (embedding gather, CNN, ReLU and pooling) is :func:`item_features`; it
depends only on the item's token ids, the word embeddings, the conv and the
item pooling query, so a forward-only caller may pass a
:class:`training.ItemStore` that keeps each item's features, checks those
tensors' bits against a private copy of them, and computes only the items
it lacks. Each length group's item pooling and the attention user encoder
are one :func:`numerics.attention_pool` node each, and each length group's
scores one :func:`numerics.cosine` node. The heuristic selectors (first,
bm25, random) share its selection and gather; bm25 reads its statistics
from the news corpus's :class:`recall.InvertedIndex`, the index sparse
recall ranks with.

Its output, a :class:`GroupedSelection`, is compressed sparse rows at two
levels: histories own runs of items, and each item owns a run of tokens
in one flat score tensor and a run of kept rows. The kept rows are one
gather of the word embeddings times one weight vector, ready for the user
encoder and lined up with their positions and token ids. It also reads as
a sequence of per-item :class:`GateSelection` objects, each holding only
that item's kept positions (and so its K_eff); every tensor stays flat.
bm25 scores compose the three BM25 factors of :mod:`recall`, as the
index's posting weights do.
:func:`training.gate_history` runs the gate on one history of a model.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from . import numerics as nm
from .config import GATE_METHODS, USER_ENCODERS
from .numerics import Tensor, constant, gather_rows, glorot, tensor
from .recall import InvertedIndex, bm25_idf, bm25_length_norm, bm25_weight
from .text import TokenSequence, UserHistory


@dataclass
class GateParams:
    """Learnable gate tensors. The word embedding table is shared with the
    transformer module; the gate's own space is n_filters-dimensional, the
    input and hidden size of the LSTM user encoder, whose ``lstm_w_ih``,
    ``lstm_w_hh`` and ``lstm_bias`` hold its gates' rows in the order i, f, g, o."""

    word_embeddings: Tensor          # (V, d)
    filters: Tensor                  # (N_f, (2w+1) * d)
    bias: Tensor                     # (N_f,)
    pool_v: Tensor                   # (N_f,)
    lstm_w_ih: Tensor                # (4 N_f, N_f)
    lstm_w_hh: Tensor                # (4 N_f, N_f)
    lstm_bias: Tensor                # (4 N_f,)
    attn_v: Tensor                   # (N_f,) query for the attention user encoder
    window: int
    user_encoder: str                # lstm | attn

    def __post_init__(self):
        n_f = self.filters.data.shape[0]
        shapes = (self.lstm_w_ih.data.shape, self.lstm_w_hh.data.shape, self.lstm_bias.data.shape)
        if shapes != ((4 * n_f, n_f), (4 * n_f, n_f), (4 * n_f,)):
            raise ValueError(f"gate LSTM shapes {shapes} do not fit n_filters {n_f}")
        if self.window < 1:
            raise ValueError("gate window must be >= 1")
        if self.user_encoder not in USER_ENCODERS:
            raise ValueError(
                f"gate user_encoder must be one of {USER_ENCODERS}, got {self.user_encoder!r}"
            )

    @property
    def n_filters(self) -> int:
        return self.filters.data.shape[0]

    def named_tensors(self) -> dict[str, Tensor]:
        return {
            "gate.conv.filters": self.filters,
            "gate.conv.bias": self.bias,
            "gate.pool.v": self.pool_v,
            "gate.lstm.w_ih": self.lstm_w_ih,
            "gate.lstm.w_hh": self.lstm_w_hh,
            "gate.lstm.bias": self.lstm_bias,
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
    user_encoder: str,
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
        pool_v=glorot((n_filters,), rng),
        lstm_w_ih=tensor(w_ih, requires_grad=True),
        lstm_w_hh=tensor(w_hh, requires_grad=True),
        lstm_bias=tensor(bias, requires_grad=True),
        attn_v=glorot((n_filters,), rng),
        window=window,
        user_encoder=user_encoder,
    )


@dataclass
class GateSelection:
    """Selected token positions for one item.

    ``positions`` are distinct, ordered by descending score with smaller
    index winning ties, and never repeat a token id (first occurrence only);
    an item with L >= 1 tokens has min(k, its distinct ids) of them. The
    item's scores, weights and weighted rows stay in the flat tensors of
    the :class:`GroupedSelection` it came from.
    """

    positions: list[int]

    @property
    def k_eff(self) -> int:
        return len(self.positions)


@dataclass(frozen=True, eq=False)
class GroupedSelection(Sequence):
    """The gate's output for a list of histories, in compressed sparse rows.

    Items are numbered history-major across the histories: history h owns
    items ``item_start[h]:item_start[h + 1]``. Item i owns tokens
    ``token_start[i]:token_start[i + 1]`` of ``scores``, its raw scores in
    token order, and kept rows ``offsets[i]:offsets[i + 1]``, in selection
    order; ``weights``, ``positions`` and ``token_ids`` line up with
    ``rows``. As a read-only sequence it holds one :class:`GateSelection`
    per item, that item's slice of ``positions``, made each time the item is
    asked for; it copies no tensor and records nothing on a tape.
    """

    item_start: np.ndarray           # (n_histories + 1,)
    token_start: np.ndarray          # (n_items + 1,)
    scores: Tensor                   # (n_tokens,) every token's raw score
    offsets: np.ndarray              # (n_items + 1,)
    rows: Tensor                     # (n_kept, d) weight-scaled embeddings
    weights: Tensor                  # (n_kept,)
    positions: np.ndarray            # (n_kept,) each row's position in its item
    token_ids: np.ndarray            # (n_kept,) each row's token id

    def __len__(self) -> int:
        return len(self.offsets) - 1

    def __getitem__(self, i: int) -> GateSelection:
        n = len(self)
        if not -n <= i < n:
            raise IndexError(f"item {i} out of range for {n} items")
        i %= n
        lo, hi = self.offsets[i:i + 2].tolist()
        return GateSelection(self.positions[lo:hi].tolist())


def select_positions(ids, scores, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Row-wise top-k over (G, L) token ids and their scores.

    Returns the (G, min(k, L)) positions in selection order and each row's
    count of selected ones, min(k, its distinct ids): row g selects
    ``order[g, :counts[g]]``. Every id is an ordinary token; repeated ids
    (after their first occurrence) are never selected, ties go to the
    smaller index, and order is descending score.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    ids = np.asarray(ids)
    # first occurrence of each id in its row: a stable sort puts it first
    # among its equals
    by_id = np.argsort(ids, axis=1, kind="stable")
    row = np.arange(len(ids))[:, None]
    sorted_ids = ids[row, by_id]
    first_sorted = np.ones(ids.shape, dtype=bool)
    first_sorted[:, 1:] = sorted_ids[:, 1:] != sorted_ids[:, :-1]
    first = np.empty_like(first_sorted)
    first[row, by_id] = first_sorted
    masked = np.where(first, np.asarray(scores, dtype=float), -np.inf)
    return np.argsort(-masked, axis=1, kind="stable")[:, :k], np.minimum(first.sum(axis=1), k)


def bm25_scores(ids: np.ndarray, stats: InvertedIndex) -> np.ndarray:
    """(G, L) BM25 weights of a length group's (G, L) token ids, each token's
    term frequency counted in its own item, with the statistics of the
    corpus index ``stats``."""
    tf = (ids[:, :, None] == ids[:, None, :]).sum(axis=-1)
    norm = bm25_length_norm(ids.shape[1], stats.avg_len)
    return bm25_weight(bm25_idf(stats.doc_freq(ids), stats.n_docs), tf, norm)


def item_features(params: GateParams, ids: np.ndarray) -> tuple[Tensor, Tensor]:
    """The gate's per-item work on a length group's (G, L) token ids: the
    (G, L, n_f) ReLU conv context and the (G, n_f) attention pooling of
    it. Each item's rows depend only on its ids, ``window``, the word
    embeddings, ``filters``, ``bias`` and ``pool_v``; not on the LSTM or
    ``attn_v``."""
    emb3 = gather_rows(params.word_embeddings, ids)
    ctx3 = nm.relu(nm.conv1d(emb3, params.filters, params.bias, params.window))
    return ctx3, nm.attention_pool(ctx3, params.pool_v)


def _interest_scores(
    params: GateParams,
    items: list[TokenSequence],
    item_start: np.ndarray,
    groups: list[tuple[np.ndarray, np.ndarray, np.ndarray]],
    store,
) -> Tensor:
    """(n_tokens,) cosine scores of every token against the interest vector
    of the history that holds it, item by item; history h holds
    ``items[item_start[h]:item_start[h + 1]]``, and each length group is
    ``(members, at, ids)``: its items, their (G, L) places in the flat
    tokens and their token ids. The per-item features come from ``store``
    as constants when one is given, else from :func:`item_features` on the
    current tape."""
    n_f = params.n_filters
    if store is None:
        features = [item_features(params, ids) for _, _, ids in groups]
    else:
        keyed = [([items[i].key for i in members.tolist()], ids) for members, _, ids in groups]
        features = [(constant(ctx3), constant(pooled))
                    for ctx3, pooled in store.gate_rows(keyed, params)]
    pooled = nm.assemble_rows(
        [p for _, p in features], np.concatenate([m for m, _, _ in groups])
    )

    # user interest, per count of items: the LSTM's last state or attention pooling
    n_items = np.diff(item_start)
    u_chunks, u_order = [], []
    for N, hs, at in nm.by_length(item_start[:-1], n_items):
        stacked = nm.reshape(gather_rows(pooled, at.ravel()), (len(hs), N, n_f))
        if params.user_encoder == "attn":
            u = nm.attention_pool(stacked, params.attn_v)
        else:
            u = nm.lstm_last(stacked, params.lstm_w_ih, params.lstm_w_hh, params.lstm_bias)
        u_chunks.append(u)
        u_order.append(hs)
    interest = nm.assemble_rows(u_chunks, np.concatenate(u_order))

    # cosine scores of each item's (G, L) context rows against its history's
    # interest vector, gathered as a (G, 1) row
    owner = np.repeat(np.arange(len(n_items)), n_items)
    scores = [
        nm.reshape(nm.cosine(ctx3, gather_rows(interest, owner[members][:, None])), (at.size,))
        for (members, at, _), (ctx3, _) in zip(groups, features)
    ]
    return nm.assemble_rows(scores, np.concatenate([at.ravel() for _, at, _ in groups]))


def gate_groups(
    histories: list[UserHistory],
    params: GateParams,
    k: int,
    method: str,
    stats: InvertedIndex | None = None,
    rngs: list[np.random.Generator] | None = None,
    store=None,
) -> GroupedSelection:
    """Gate every item of every history in one pass of grouped tensor ops.

    ``method`` is the learned gate or one of the heuristic selectors; the
    heuristics' weights are constant and uniform at 1/K_eff, and ``random``
    draws each history's scores, item by item, from its own ``rngs`` entry.
    ``store`` (a :class:`training.ItemStore`) supplies the learned gate's
    per-item features as constants; it is for forward-only calls, so one
    given while a tape records is rejected, as no gradient would reach the
    tensors those features read.
    """
    if method not in GATE_METHODS:
        raise ValueError(f"unknown gate method: {method}")
    if store is not None and nm.recording():
        raise ValueError("an item store cannot feed the gate while a tape records")
    if method == "bm25" and stats is None:
        raise ValueError("bm25 gating requires corpus stats")
    if method == "random" and (rngs is None or len(rngs) != len(histories) or None in rngs):
        raise ValueError("random gating requires an rng per history")
    if not histories:
        raise ValueError("no histories to gate")
    items = [seq for h in histories for seq in h.items]
    lengths = [len(seq) for seq in items]
    if 0 in lengths:
        raise ValueError("cannot gate an empty token sequence")
    token_start = np.array([0, *accumulate(lengths)])
    item_start = np.array([0, *accumulate(len(h) for h in histories)])
    flat_ids = np.concatenate([seq.ids for seq in items])
    # per length group: its items, their (G, L) places in the flat tokens, their ids
    spans = nm.by_length(token_start[:-1], lengths)
    groups = [(members, at, flat_ids[at]) for _, members, at in spans]

    if method == "learned":
        scores = _interest_scores(params, items, item_start, groups, store)
    elif method == "random":
        # each history's draws run through its items in order, as its tokens do
        n_tokens = token_start[item_start[1:]] - token_start[item_start[:-1]]
        draws = [rng.random(n) for rng, n in zip(rngs, n_tokens.tolist())]
        scores = constant(np.concatenate(draws))
    else:
        # uniform scores make the index tie-break reproduce first-k selection
        flat = np.zeros(token_start[-1])
        if method == "bm25":
            for _, at, ids in groups:
                flat[at] = bm25_scores(ids, stats)
        scores = constant(flat)

    # top-k per length group: item i keeps positions chosen[i, :k_eff[i]]
    picks = [select_positions(ids, scores.data[at], k) for _, at, ids in groups]
    chosen = np.zeros((len(items), max(order.shape[1] for order, _ in picks)), dtype=np.intp)
    k_eff = np.empty(len(items), dtype=np.intp)
    for (members, _, _), (order, counts) in zip(groups, picks):
        chosen[members, :order.shape[1]] = order
        k_eff[members] = counts
    offsets = np.array([0, *accumulate(k_eff.tolist())])
    positions = chosen[np.arange(chosen.shape[1]) < k_eff[:, None]]
    kept = np.repeat(token_start[:-1], k_eff) + positions  # each kept row's token in scores
    token_ids = flat_ids[kept]

    if method == "learned":
        # one softmax over the kept scores of each K_eff bucket
        buckets = nm.by_length(offsets[:-1], k_eff)
        weights = nm.assemble_rows(
            [nm.reshape(nm.softmax(gather_rows(scores, kept[at])), (at.size,))
             for _, _, at in buckets],
            np.concatenate([at.ravel() for _, _, at in buckets]),
        )
    else:
        weights = constant(np.repeat(1.0 / k_eff, k_eff))
    picked = gather_rows(params.word_embeddings, token_ids)
    rows = nm.mul(picked, nm.reshape(weights, (len(kept), 1)))
    return GroupedSelection(
        item_start=item_start,
        token_start=token_start,
        scores=scores,
        offsets=offsets,
        rows=rows,
        weights=weights,
        positions=positions,
        token_ids=token_ids,
    )
