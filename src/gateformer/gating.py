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

:func:`gate_groups` is the one gate implementation. It gates many histories
in one pass of grouped tensor ops: items bucketed by length for the CNN,
pooling and scoring, histories bucketed by item count for the user encoder,
and a vectorised top-k per length group. The per-item part (embedding
gather, CNN, ReLU and masked pooling) is :func:`item_features`; it depends
only on the item's token ids and on the tensors
:meth:`GateParams.item_fingerprint` covers, so a forward-only caller may
pass a :class:`training.ItemStore` that keeps each item's features and
computes only the items it lacks. Each length group's masked item pooling
and the attention user encoder are one :func:`numerics.attention_pool` node
each, and each length group's scores one :func:`numerics.cosine` node.
The heuristic selectors (first, bm25, random) share its selection and
gather. Its :class:`GroupedSelection` is flat: the selected rows of every
item in order, ready for the user encoder, lined up with their weights,
positions and token ids. It also reads as a sequence of per-item
:class:`GateSelection` objects, each narrowed out of the grouped tensors
only when asked for.
:func:`training.gate_history` runs the gate on one history of a model.
"""

from __future__ import annotations

from collections.abc import Sequence
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

    def item_fingerprint(self) -> str:
        """:func:`numerics.fingerprint` of ``window`` and exactly the tensors
        :func:`item_features` reads: the word embeddings, the conv and the
        item pooling query. The LSTM and ``attn_v`` are left out."""
        return nm.fingerprint(f"window={self.window}", {
            "embed.word": self.word_embeddings,
            "gate.conv.filters": self.filters,
            "gate.conv.bias": self.bias,
            "gate.pool.v": self.pool_v,
        })

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


@dataclass(frozen=True, eq=False)
class GroupedSelection(Sequence):
    """The gate's output for a list of histories.

    Items are numbered history-major across the histories, and the selected
    rows run item by item in selection order; ``weights``, ``positions`` and
    ``token_ids`` line up with ``rows``. As a read-only sequence it holds one
    :class:`GateSelection` per item, narrowed out of the grouped tensors each
    time that item is asked for.
    """

    rows: Tensor                     # (n_selected, d) weight-scaled embeddings
    weights: Tensor                  # (n_selected,)
    positions: np.ndarray            # (n_selected,) each row's position in its item
    token_ids: np.ndarray            # (n_selected,) each row's token id
    offsets: np.ndarray              # (n_items + 1,): item i owns rows offsets[i]:offsets[i + 1]
    item_start: np.ndarray           # (n_histories + 1,): history h owns items item_start[h]:...
    scores: list[Tensor]             # per length group: its (G * L,) raw scores, row-major
    score_at: np.ndarray             # (n_items, 3): (length group, start, length) in scores

    def spans(self) -> list[tuple[int, int]]:
        """(first row, row count) of each history's selected rows."""
        bounds = self.offsets[self.item_start]
        return [(int(a), int(b - a)) for a, b in zip(bounds[:-1], bounds[1:])]

    def __len__(self) -> int:
        return len(self.score_at)

    def __getitem__(self, i: int) -> GateSelection:
        n = len(self.score_at)
        if not -n <= i < n:
            raise IndexError(f"item {i} out of range for {n} items")
        i %= n
        g, start, L = self.score_at[i].tolist()
        lo, hi = self.offsets[i:i + 2].tolist()
        return GateSelection(
            positions=self.positions[lo:hi].tolist(),
            raw_scores=nm.narrow(self.scores[g], 0, start, L),
            weights=nm.narrow(self.weights, 0, lo, hi - lo),
            gathered=nm.narrow(self.rows, 0, lo, hi - lo),
        )


def word_average_matrix(word_groups) -> np.ndarray:
    """(..., L, L) row-averaging matrices for (..., L) word groups: entry
    [j, k] is 1/n when tokens j and k belong to the same n-token word."""
    groups = np.asarray(word_groups)
    same = groups[..., :, None] == groups[..., None, :]
    return same / same.sum(axis=-1, keepdims=True)


def select_positions(ids, scores, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Row-wise top-k over (G, L) token ids and their scores.

    Returns the (G, min(k, L)) positions in selection order and each row's
    count of selected ones: row g selects ``order[g, :counts[g]]``. Pads and
    repeated ids (after their first occurrence) are never selected, ties go
    to the smaller index, and order is descending score.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    ids = np.asarray(ids)
    # first occurrence of each id in its row: a stable sort puts it first
    # among its equals
    by_id = np.argsort(ids, axis=1, kind="stable")
    sorted_ids = np.take_along_axis(ids, by_id, axis=1)
    first_sorted = np.ones(ids.shape, dtype=bool)
    first_sorted[:, 1:] = sorted_ids[:, 1:] != sorted_ids[:, :-1]
    first = np.empty_like(first_sorted)
    np.put_along_axis(first, by_id, first_sorted, axis=1)
    masked = np.where(first & (ids != PAD_ID), np.asarray(scores, dtype=float), -np.inf)
    counts = np.minimum((masked > -np.inf).sum(axis=1), k)
    if not counts.all():
        raise ValueError("no selectable tokens in item (all padding)")
    return np.argsort(-masked, axis=1, kind="stable")[:, :k], counts


def heuristic_scores(ids: np.ndarray, method: str, stats: CorpusStats | None = None) -> np.ndarray:
    """(G, L) scores of a length group's (G, L) token ids under the first or
    bm25 selector. Uniform scores make the index tie-break reproduce first-k
    selection."""
    if method == "first":
        return np.zeros(ids.shape)
    tf = (ids[:, :, None] == ids[:, None, :]).sum(axis=-1)
    df = np.array([stats.doc_freq.get(tok, 0) for tok in ids.ravel().tolist()], dtype=np.int64)
    return bm25_term_weight(
        tf=tf, df=df.reshape(ids.shape), doc_len=ids.shape[1],
        avg_len=stats.avg_len, n_docs=stats.n_docs,
    )


def item_features(params: GateParams, ids: np.ndarray) -> tuple[Tensor, Tensor]:
    """The gate's per-item work on a length group's (G, L) token ids: the
    (G, L, n_f) ReLU conv context and the (G, n_f) masked attention pooling
    of it. Each item's rows depend only on its ids and on the tensors
    :meth:`GateParams.item_fingerprint` covers."""
    valid = ids != PAD_ID
    emb3 = gather_rows(params.word_embeddings, ids)
    ctx3 = nm.relu(nm.conv1d(emb3, params.filters, params.bias, params.window))
    mask = None if valid.all() else np.where(valid, 0.0, NEG_MASK)
    return ctx3, nm.attention_pool(ctx3, params.pool_v, mask)


def _interest_scores(
    params: GateParams,
    histories: list[UserHistory],
    groups: list[tuple[np.ndarray, np.ndarray]],
    items: list[TokenSequence],
    store=None,
) -> list[Tensor]:
    """(G, L) cosine scores of every length group's tokens against the
    interest vector of the history that holds them. The per-item features
    come from ``store`` as constants when one is given, else from
    :func:`item_features` on the current tape."""
    n_f = params.n_filters
    if store is None:
        features = [item_features(params, ids) for _, ids in groups]
    else:
        features = [
            (constant(ctx3), constant(pooled))
            for ctx3, pooled in store.gate_rows([ids for _, ids in groups], params)
        ]
    ctxs = [ctx3 for ctx3, _ in features]
    pooled = nm.assemble_rows(
        [p for _, p in features], np.concatenate([m for m, _ in groups])
    )

    # user interest, per count of items: the LSTM's last state or attention pooling
    n_items = np.array([len(h) for h in histories])
    start = np.concatenate([[0], np.cumsum(n_items)])
    u_chunks, u_order = [], []
    for N in np.unique(n_items):
        hs = np.flatnonzero(n_items == N)
        if len(hs) == len(histories):
            stacked = nm.reshape(pooled, (len(hs), N, n_f))
        else:
            flat = (start[hs][:, None] + np.arange(N)).ravel()
            stacked = nm.reshape(gather_rows(pooled, flat), (len(hs), N, n_f))
        if params.user_encoder == "attn":
            u = nm.attention_pool(stacked, params.attn_v)
        else:
            u = nm.lstm_last(stacked, params.lstm)
        u_chunks.append(u)
        u_order.append(hs)
    interest = nm.assemble_rows(u_chunks, np.concatenate(u_order))

    # cosine scores of each item's (G, L) context rows against its history's
    # interest vector, gathered as a (G, 1) row; word granularity first
    # averages context rows within words
    owner = np.repeat(np.arange(len(histories)), n_items)
    scores = []
    for (members, ids), ctx3 in zip(groups, ctxs):
        if params.granularity == "word":
            avg = word_average_matrix([items[i].word_group for i in members])
            ctx3 = nm.matmul(constant(avg), ctx3)
        scores.append(nm.cosine(ctx3, gather_rows(interest, owner[members][:, None])))
    return scores


def gate_groups(
    histories: list[UserHistory],
    params: GateParams,
    k: int,
    method: str = "learned",
    stats: CorpusStats | None = None,
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
    if any(len(seq) < 1 for seq in items):
        raise ValueError("cannot gate an empty token sequence")
    lengths = np.array([len(seq) for seq in items])
    item_start = np.concatenate([[0], np.cumsum([len(h) for h in histories])])
    groups = []
    for L in np.unique(lengths):
        members = np.flatnonzero(lengths == L)
        groups.append((members, np.array([items[i].ids for i in members], dtype=np.intp)))

    if method == "learned":
        scores = _interest_scores(params, histories, groups, items, store)
    elif method == "random":
        # each history's draws run through its items in order
        token_start = np.concatenate([[0], np.cumsum(lengths)])
        n_tokens = token_start[item_start[1:]] - token_start[item_start[:-1]]
        draws = np.concatenate([rng.random(n) for rng, n in zip(rngs, n_tokens.tolist())])
        scores = [
            constant(draws[token_start[members][:, None] + np.arange(ids.shape[1])])
            for members, ids in groups
        ]
    else:
        scores = [constant(heuristic_scores(ids, method, stats)) for _, ids in groups]

    # top-k per length group, then gather and weight per (group, K_eff)
    n_items = len(items)
    picks = [select_positions(ids, r.data, k) for (_, ids), r in zip(groups, scores)]
    k_eff = np.empty(n_items, dtype=np.intp)
    for (members, _), (_, counts) in zip(groups, picks):
        k_eff[members] = counts
    offsets = np.concatenate([[0], np.cumsum(k_eff)])
    score_at = np.empty((n_items, 3), dtype=np.intp)
    flat_scores = []
    row_chunks, weight_chunks, pos_chunks, id_chunks, row_order = [], [], [], [], []
    for g, ((members, ids), r, (order, counts)) in enumerate(zip(groups, scores, picks)):
        G, L = ids.shape
        r_flat = nm.reshape(r, (G * L,))
        flat_scores.append(r_flat)
        score_at[members, 0] = g
        score_at[members, 1] = np.arange(G) * L
        score_at[members, 2] = L
        for kk in np.unique(counts):
            rows = np.flatnonzero(counts == kk)
            pos = order[rows, :kk]
            flat_idx = (rows[:, None] * L + pos).ravel()
            if method == "learned":
                beta = nm.softmax(nm.reshape(gather_rows(r_flat, flat_idx), (len(rows), kk)), axis=-1)
            else:
                beta = constant(np.full((len(rows), kk), 1.0 / kk))
            beta = nm.reshape(beta, (len(rows) * kk,))
            token_ids = ids.ravel()[flat_idx]
            picked = gather_rows(params.word_embeddings, token_ids)
            row_chunks.append(nm.mul(picked, nm.reshape(beta, (len(rows) * kk, 1))))
            weight_chunks.append(beta)
            pos_chunks.append(pos.ravel())
            id_chunks.append(token_ids)
            row_order.append((offsets[members[rows]][:, None] + np.arange(kk)).ravel())
    row_order = np.concatenate(row_order)
    positions = np.empty(len(row_order), dtype=np.intp)
    positions[row_order] = np.concatenate(pos_chunks)
    token_ids = np.empty(len(row_order), dtype=np.intp)
    token_ids[row_order] = np.concatenate(id_chunks)
    return GroupedSelection(
        rows=nm.assemble_rows(row_chunks, row_order),
        weights=nm.assemble_rows(weight_chunks, row_order),
        positions=positions,
        token_ids=token_ids,
        offsets=offsets,
        item_start=item_start,
        scores=flat_scores,
        score_at=score_at,
    )
