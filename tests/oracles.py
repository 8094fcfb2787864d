"""Independent reference implementations used as test oracles.

Everything here is deliberately written the dumb way (loops, O(n^2) pair
counting, central differences) and never calls into the package's fast paths
it is checking.

The composed forms of the fused kernels are built from the package's plain
tape ops plus the generic ones only they need: ``div``, ``sigmoid``,
``tanh``, ``sqrt``, ``clamp_min``, ``matmul`` and ``transpose`` live here,
on the tape and FLOP counter of ``gateformer.numerics``, so each kernel's
values, gradients and FLOP count are pinned to an op-by-op reference.
"""

import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from gateformer import numerics as nm
from gateformer.numerics import Tape, Tensor, backward, constant, gather_rows
from gateformer.numerics import _as_tensor, _count, _make, _unbroadcast
from gateformer.recall import B, K1
from gateformer.transformer import encode_sequence, weighted_pool


# ---------------------------------------------------------------------------
# the generic tape ops of the composed forms
# ---------------------------------------------------------------------------

TRANSCENDENTAL_FLOPS = 4  # per element of sqrt, sigmoid and tanh


def div(a, b):
    a, b = _as_tensor(a), _as_tensor(b)
    data = a.data / b.data
    _count(data.size)
    return _make(
        data, (a, b),
        lambda g: (
            _unbroadcast(g / b.data, a.data.shape),
            _unbroadcast(-g * a.data / (b.data * b.data), b.data.shape),
        ),
    )


def sigmoid(x):
    x = _as_tensor(x)
    data = 1.0 / (1.0 + np.exp(-x.data))
    _count(TRANSCENDENTAL_FLOPS * data.size)
    return _make(data, (x,), lambda g: (g * data * (1.0 - data),))


def tanh(x):
    x = _as_tensor(x)
    data = np.tanh(x.data)
    _count(TRANSCENDENTAL_FLOPS * data.size)
    return _make(data, (x,), lambda g: (g * (1.0 - data * data),))


def sqrt(x):
    x = _as_tensor(x)
    data = np.sqrt(x.data)
    _count(TRANSCENDENTAL_FLOPS * data.size)
    return _make(data, (x,), lambda g: (g / (2.0 * data),))


def clamp_min(x, lo: float):
    x = _as_tensor(x)
    data = np.maximum(x.data, lo)
    _count(data.size)
    return _make(data, (x,), lambda g: (g * (x.data > lo),))


def matmul(a, b):
    """Matrix product with numpy's rule for every operand rank.

    A 1-D ``a`` is a row and a 1-D ``b`` a column, and the result drops
    them; leading axes broadcast. The backward pass is one product per
    operand on the row/column forms, summed back to that operand's shape.
    The FLOP count is ``2 * out.size * contract``.
    """
    a, b = _as_tensor(a), _as_tensor(b)
    ad, bd = a.data, b.data
    if ad.ndim == 0 or bd.ndim == 0 or ad.shape[-1] != bd.shape[-2 if bd.ndim > 1 else 0]:
        raise ValueError(f"matmul dimension mismatch: {ad.shape} @ {bd.shape}")
    data = ad @ bd
    _count(2 * data.size * ad.shape[-1])
    a2 = ad[None, :] if ad.ndim == 1 else ad
    b2 = bd[:, None] if bd.ndim == 1 else bd

    def bwd(g):
        if bd.ndim == 1:
            g = g[..., None]
        if ad.ndim == 1:
            g = g[..., None, :]
        ga = _unbroadcast(g @ b2.swapaxes(-1, -2), a2.shape)
        gb = _unbroadcast(a2.swapaxes(-1, -2) @ g, b2.shape)
        return (ga.reshape(ad.shape), gb.reshape(bd.shape))

    return _make(data, (a, b), bwd)


def transpose(x, axes: tuple):
    """General axis permutation; backward applies the inverse permutation."""
    x = _as_tensor(x)
    inv = tuple(np.argsort(axes))
    return _make(x.data.transpose(axes), (x,), lambda g: (g.transpose(inv),))


def total(x):
    """The sum of every entry of ``x``, a shape-() value, in tape ops: the
    loss the gradient tests take of an op's output."""
    return nm.vsum(nm.reshape(x, (-1,)), axis=0)


def rel_err(a: np.ndarray, b: np.ndarray) -> float:
    """Max absolute difference scaled by the larger magnitude."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = max(np.abs(a).max(initial=0.0), np.abs(b).max(initial=0.0), 1e-12)
    return float(np.abs(a - b).max(initial=0.0) / denom)


def finite_diff_grad(f, x: np.ndarray, eps: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of the scalar function ``f`` w.r.t. ``x``.

    ``f`` takes no arguments and must read ``x`` (by reference) on each call.
    """
    grad = np.zeros_like(x)
    flat = x.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        fp = f()
        flat[i] = orig - eps
        fm = f()
        flat[i] = orig
        gflat[i] = (fp - fm) / (2.0 * eps)
    return grad


def autodiff_grads(build_loss, params):
    """Run one taped forward/backward; return a grad copy per parameter."""
    for p in params:
        p.zero_grad()
    with Tape() as tape:
        loss = build_loss()
    backward(tape, loss)
    return [None if p.grad is None else p.grad.copy() for p in params]


def fd_grads(build_loss, params, eps: float = 1e-5):
    """Central-difference gradients of build_loss() w.r.t. each parameter."""
    return [finite_diff_grad(lambda: build_loss().item(), p.data, eps) for p in params]


def check_grads(build_loss, params, eps: float = 1e-5, tol: float = 1e-5) -> float:
    """Assert autodiff matches finite differences; returns the worst rel err.

    Parameters whose true gradient is ~0 (below the central-difference noise
    floor) count as agreement: the relative error is meaningless at 0 vs 0.
    """
    ad = autodiff_grads(build_loss, params)
    fd = fd_grads(build_loss, params, eps)
    worst = 0.0
    for p, a, b in zip(params, ad, fd):
        assert a is not None, f"no gradient reached parameter of shape {p.data.shape}"
        if max(np.abs(a).max(), np.abs(b).max()) < 1e-8:
            continue
        e = rel_err(a, b)
        worst = max(worst, e)
        assert e < tol, f"gradient mismatch {e:.3e} >= {tol} on shape {p.data.shape}"
    return worst


def conv1d_oracle(x: np.ndarray, filters: np.ndarray, bias: np.ndarray, w: int) -> np.ndarray:
    """Direct sliding-window convolution, zero padded by w on both sides."""
    L, d = x.shape
    span = 2 * w + 1
    padded = np.zeros((L + 2 * w, d))
    padded[w:w + L] = x
    out = np.zeros((L, filters.shape[0]))
    for j in range(L):
        out[j] = filters @ padded[j:j + span].reshape(-1) + bias
    return out


def conv1d_window_oracle(x, filters, bias, w: int):
    """conv1d of one (L, d) tensor in composed tape ops: zero-pad, lay the
    2w+1 shifted copies side by side into (L, (2w+1) d) windows, and apply
    the filters to the windows in one product."""
    L, d = x.data.shape
    span = 2 * w + 1
    pad = constant(np.zeros((w, d)))
    padded = nm.concat_rows([pad, x, pad])
    shifted = nm.reshape(nm.concat_rows([nm.narrow(padded, 0, i, L) for i in range(span)]),
                         (span, L, d))
    windows = nm.reshape(transpose(shifted, (1, 0, 2)), (L, span * d))
    return nm.add(matmul(windows, transpose(filters, (1, 0))), bias)


def attention_oracle(x, w_qkv, b_qkv, wo, bo, heads: int):
    """Multi-head self attention over (B, n, d) in composed tape ops: the
    (d, 3d) weight and (3d,) bias narrowed into the textbook three
    projections, one projection per q/k/v, heads split by reshape and
    transpose, all heads in one batched product."""
    B, n, d = x.data.shape
    dh = d // heads
    scale = 1.0 / math.sqrt(dh)

    def split(t):  # (B, n, d) -> (B, heads, n, dh)
        return transpose(nm.reshape(t, (B, n, heads, dh)), (0, 2, 1, 3))

    def project(i):  # i = 0, 1, 2: queries, keys, values
        w = nm.narrow(w_qkv, 1, i * d, d)
        b = nm.narrow(b_qkv, 0, i * d, d)
        return split(nm.add(matmul(x, w), b))

    q, k, v = project(0), project(1), project(2)
    scores = nm.mul(matmul(q, transpose(k, (0, 1, 3, 2))), scale)
    alpha = nm.softmax(scores)
    ctx = nm.reshape(transpose(matmul(alpha, v), (0, 2, 1, 3)), (B, n, d))
    return nm.add(matmul(ctx, wo), bo)


def feed_forward_oracle(x, w1, b1, w2, b2):
    """Position-wise feed-forward in composed tape ops."""
    hidden = nm.relu(nm.add(matmul(x, w1), b1))
    return nm.add(matmul(hidden, w2), b2)


def layer_norm_oracle(x, gamma, beta, eps: float = 1e-5):
    """Layer normalization over the last axis in composed tape ops."""
    d = x.data.shape[-1]
    rows = x.data.shape[:-1] + (1,)

    def row_mean(t):  # np.add.reduce and one division, as ndarray.mean
        return nm.reshape(div(nm.vsum(t, axis=-1), d), rows)

    xc = nm.sub(x, row_mean(x))
    var = row_mean(nm.mul(xc, xc))
    return nm.add(nm.mul(div(xc, sqrt(nm.add(var, eps))), gamma), beta)


def attention_pool_oracle(x, query):
    """softmax(x @ query)-weighted rows of each sequence of a (G, n, d)
    stack, in composed tape ops."""
    alpha = nm.softmax(matmul(x, query))
    G, n, d = x.data.shape
    return nm.reshape(matmul(nm.reshape(alpha, (G, 1, n)), x), (G, d))


def cosine_oracle(a, b, eps: float = 1e-12):
    """Cosine of each row of a (G, L, f) stack with its stack's (G, 1, f)
    row, by broadcasting in composed tape ops; squared norms are clamped at
    eps ** 2."""
    num = nm.vsum(nm.mul(a, b), axis=-1)
    na = sqrt(clamp_min(nm.vsum(nm.mul(a, a), axis=-1), eps * eps))
    nb = sqrt(clamp_min(nm.vsum(nm.mul(b, b), axis=-1), eps * eps))
    return div(num, nm.mul(na, nb))


def gather_rows_oracle(x: np.ndarray, indices, g: np.ndarray):
    """Rows x[indices] and the gradient w.r.t. x of a loss whose gradient at
    the rows is g: ``np.add.at`` into a zeroed array."""
    idx = np.asarray(indices, dtype=np.intp)
    gx = np.zeros_like(x)
    np.add.at(gx, idx, g)
    return x[idx], gx


def softmax_oracle(x: np.ndarray) -> np.ndarray:
    e = np.exp(x - x.max())
    return e / e.sum()


def basic_tokenize_oracle(text: str) -> list[str]:
    """Words of a text by a character loop: runs of ``str.isalnum``
    characters, each lowered on its own, and every other non-space
    character (``str.isspace``) as a word of its own, unchanged."""
    words: list[str] = []
    cur: list[str] = []
    for ch in text:
        if ch.isalnum():
            cur.append(ch.lower())
        else:
            if cur:
                words.append("".join(cur))
                cur = []
            if not ch.isspace():
                words.append(ch)
    if cur:
        words.append("".join(cur))
    return words


def greedy_pieces_oracle(word: str, vocab) -> list[str] | None:
    """Longest-match-first subword split that tries every end of the word,
    from the last down; None if any remainder is unmatchable."""
    pieces: list[str] = []
    start = 0
    while start < len(word):
        end = len(word)
        found = None
        while start < end:
            sub = word[start:end]
            if start > 0:
                sub = "##" + sub
            if sub in vocab:
                found = sub
                break
            end -= 1
        if found is None:
            return None
        pieces.append(found)
        start = end
    return pieces


def auc_oracle(scores, labels) -> float:
    """Pairwise P(score_pos > score_neg) with ties counted 1/2."""
    pos = [s for s, y in zip(scores, labels) if y == 1]
    neg = [s for s, y in zip(scores, labels) if y == 0]
    total = 0.0
    for p in pos:
        for n in neg:
            if p > n:
                total += 1.0
            elif p == n:
                total += 0.5
    return total / (len(pos) * len(neg))


def mrr_oracle(scores, labels) -> float:
    """1 / rank of the best-ranked positive (desc score, index tiebreak)."""
    order = sorted(range(len(scores)), key=lambda i: (-scores[i], i))
    for rank, i in enumerate(order, start=1):
        if labels[i] == 1:
            return 1.0 / rank
    return 0.0


def ndcg_oracle(scores, labels, k: int) -> float:
    """Binary-gain NDCG@k via full sort (desc score, index tiebreak)."""
    order = sorted(range(len(scores)), key=lambda i: (-scores[i], i))
    dcg = 0.0
    for rank, i in enumerate(order[:k], start=1):
        if labels[i] == 1:
            dcg += 1.0 / np.log2(rank + 1)
    n_pos = sum(labels)
    idcg = sum(1.0 / np.log2(r + 1) for r in range(1, min(k, n_pos) + 1))
    return dcg / idcg if idcg > 0 else 0.0


def evaluate_oracle(model, samples) -> tuple:
    """Mean (AUC, MRR, NDCG@5, NDCG@10) one impression at a time: a user
    embedding through the reference gate, then one encode_candidate_oracle
    call per candidate, cached by news id where the sample has ids."""
    cache = {}

    def cand(seq, item_id):
        if not item_id:
            return encode_candidate_oracle(seq, model.trans).data
        if item_id not in cache:
            cache[item_id] = encode_candidate_oracle(seq, model.trans).data
        return cache[item_id]

    rows = []
    for idx, sample in enumerate(samples):
        u = user_embedding_oracle(model, sample.history, idx).data
        items = [(sample.positive, sample.positive_id)] + list(
            zip(sample.negatives, sample.negative_ids or [""] * len(sample.negatives))
        )
        scores = [float(u @ cand(seq, iid)) / math.sqrt(len(u)) for seq, iid in items]
        labels = [1] + [0] * len(sample.negatives)
        rows.append((
            auc_oracle(scores, labels),
            mrr_oracle(scores, labels),
            ndcg_oracle(scores, labels, 5),
            ndcg_oracle(scores, labels, 10),
        ))
    return tuple(float(x) for x in np.mean(rows, axis=0))


def recall_at_k_oracle(results, relevant, k: int) -> float:
    return len(set(results[:k]) & set(relevant)) / len(relevant)


def bm25_term_weight(tf, df, doc_len, avg_len, n_docs, k1: float = K1, b: float = B):
    """Okapi BM25 contribution of one term occurring tf times in a document,
    in one expression of the textbook formula. Every argument may be a scalar
    or an array (they broadcast); the result is an array, zero where
    tf <= 0."""
    tf = np.asarray(tf, dtype=np.float64)
    idf = np.log((n_docs - df + 0.5) / (df + 0.5) + 1.0)
    weight = idf * tf * (k1 + 1.0) / (tf + k1 * (1.0 - b + b * doc_len / avg_len))
    return np.where(tf > 0, weight, 0.0)


def bm25_oracle(query_terms, doc_terms, all_docs, k1: float = 1.2, b: float = 0.75) -> float:
    """Okapi BM25 of one doc for a weighted query, stats from ``all_docs``."""
    n_docs = len(all_docs)
    avg_len = sum(len(d) for d in all_docs) / n_docs
    doc_len = len(doc_terms)
    score = 0.0
    for term, weight in query_terms:
        df = sum(1 for d in all_docs if term in d)
        idf = np.log((n_docs - df + 0.5) / (df + 0.5) + 1.0)
        tf = doc_terms.count(term)
        denom = tf + k1 * (1.0 - b + b * doc_len / avg_len)
        score += weight * idf * tf * (k1 + 1.0) / denom if tf > 0 else 0.0
    return score


def bm25_rank_oracle(docs, pairs, n: int) -> list:
    """BM25 top-n the loop-per-document way. ``docs`` maps doc id -> token
    list and ``pairs`` are (token, weight) with repeated tokens' weights
    summed. Every doc holding a query token is scored on its own, term by
    term in ascending token order, then all are sorted by (-score, doc id).

    Term weights come from the package's scalar BM25 formula and are added in
    the same order as recall_sparse adds them, so equal docs tie exactly and
    the ranking must match recall_sparse's exactly."""
    merged = {}
    for tok, w in pairs:
        merged[tok] = merged.get(tok, 0.0) + w
    keywords = sorted(merged.items())
    n_docs = len(docs)
    avg_len = sum(len(terms) for terms in docs.values()) / n_docs
    df = {tok: sum(1 for terms in docs.values() if tok in terms) for tok, _ in keywords}
    scored = []
    for doc_id in sorted(docs):
        terms = list(docs[doc_id])
        if not any(tok in terms for tok, _ in keywords):
            continue
        score = 0.0
        for tok, w in keywords:
            tf = terms.count(tok)
            if tf:
                score += w * bm25_term_weight(tf, df[tok], len(terms), avg_len, n_docs)
        scored.append((-score, doc_id))
    scored.sort()
    return [doc_id for _, doc_id in scored[:n]]


def sparse_scores_oracle(index, query) -> tuple:
    """(doc keys, BM25 scores) of every doc holding a query keyword, keys
    ascending, accumulated term at a time: each keyword in the query's order
    adds its weighted postings into a dense score array."""
    score = np.zeros(index.n_docs)
    touched = np.zeros(index.n_docs, dtype=bool)
    for tok, w in query.keywords:
        span = index.span(tok)
        keys = index.keys[span]
        score[keys] += w * index.weights[span]
        touched[keys] = True
    cands = np.flatnonzero(touched)
    return cands, score[cands]


def dense_rank_oracle(user_embedding, doc_embeddings, n: int) -> list:
    """Dense top-n by sorting every doc on (-scaled dot product, doc id)."""
    scale = 1.0 / np.sqrt(user_embedding.shape[0])
    scored = sorted(
        (-float(user_embedding @ e) * scale, doc_id) for doc_id, e in doc_embeddings.items()
    )
    return [doc_id for _, doc_id in scored[:n]]


def postings_oracle(docs) -> dict:
    """token -> [(doc key, tf)] with keys the positions of the sorted doc ids,
    built one doc at a time from a Counter of its tokens."""
    postings = {}
    for key, doc_id in enumerate(sorted(docs)):
        for tok, tf in Counter(docs[doc_id]).items():
            postings.setdefault(tok, []).append((key, tf))
    return dict(sorted(postings.items()))


def build_index_oracle(docs) -> dict:
    """Every field of ``build_index`` over ``docs`` (doc id -> token ids) as
    plain lists: the CSR arrays read off :func:`postings_oracle`, and each
    posting's weight from the scalar BM25 formula with its token's df and its
    doc's length, counted on its own."""
    doc_ids = sorted(docs)
    lengths = [len(docs[doc_id]) for doc_id in doc_ids]
    avg_len = sum(lengths) / len(doc_ids)
    postings = postings_oracle(docs)
    fields = {"doc_ids": doc_ids, "tokens": list(postings), "offsets": [0], "keys": [],
              "tfs": [], "avg_len": avg_len, "weights": [],
              "doc_keys": {doc_id: key for key, doc_id in enumerate(doc_ids)}}
    for plist in postings.values():
        for key, tf in plist:
            fields["keys"].append(key)
            fields["tfs"].append(tf)
            fields["weights"].append(
                float(bm25_term_weight(tf, len(plist), lengths[key], avg_len, len(doc_ids)))
            )
        fields["offsets"].append(len(fields["keys"]))
    return fields


# ---------------------------------------------------------------------------
# reference gate: one item at a time, in composed tape ops
# ---------------------------------------------------------------------------

def lstm_last_oracle(seq, params):
    """Last hidden state of the LSTM over the rows of (N, in), or of each
    chain of (B, N, in), one composed op per cell equation."""
    batched = seq.data.ndim == 3
    g = params.hidden
    lead = (seq.data.shape[0],) if batched else ()
    axis = len(lead)
    h = constant(np.zeros((*lead, g)))
    c = constant(np.zeros((*lead, g)))
    w_ih_t = transpose(params.w_ih, (1, 0))
    w_hh_t = transpose(params.w_hh, (1, 0))
    for t in range(seq.data.shape[-2]):
        x_t = nm.reshape(nm.narrow(seq, axis, t, 1), (*lead, params.input_dim))
        z = nm.add(nm.add(matmul(x_t, w_ih_t), matmul(h, w_hh_t)), params.bias)
        i_g = sigmoid(nm.narrow(z, axis, 0, g))
        f_g = sigmoid(nm.narrow(z, axis, g, g))
        c_hat = tanh(nm.narrow(z, axis, 2 * g, g))
        o_g = sigmoid(nm.narrow(z, axis, 3 * g, g))
        c = nm.add(nm.mul(f_g, c), nm.mul(i_g, c_hat))
        h = nm.mul(o_g, tanh(c))
    return h


def encode_item(seq, params):
    """Context-aware token embeddings (L, N_f) of one item and their pooled
    summary (N_f,)."""
    if len(seq) < 1:
        raise ValueError("cannot encode an empty token sequence")
    # the conv runs on a stack of one item, read back as the item's (L, N_f)
    ctx = nm.relu(nm.reshape(
        nm.conv1d(gather_rows(params.word_embeddings, seq.ids[None]),
                  params.filters, params.bias, params.window),
        (len(seq), params.n_filters),
    ))
    return ctx, matmul(nm.softmax(matmul(ctx, params.pool_v)), ctx)


def attn_user_variant(items_h, params):
    """Attention pooling over per-item summaries."""
    if not items_h:
        raise ValueError("attention user encoder needs at least one item")
    stacked = nm.concat_rows([nm.reshape(h, (1, params.n_filters)) for h in items_h])
    alpha = nm.softmax(matmul(stacked, params.attn_v))
    return matmul(alpha, stacked)


def _aggregate_user(pooled, params):
    if params.user_encoder == "attn":
        return attn_user_variant(pooled, params)
    stacked = nm.concat_rows([nm.reshape(h, (1, params.n_filters)) for h in pooled])
    return lstm_last_oracle(stacked, params.lstm)


def encode_user_interest(history, params):
    """User interest vector from the per-item summaries."""
    return _aggregate_user([encode_item(seq, params)[1] for seq in history.items], params)


def score_tokens(ctx, user_interest):
    """Cosine of each context row with the interest vector."""
    eps = 1e-12
    num = matmul(ctx, user_interest)
    row_norm = sqrt(clamp_min(nm.vsum(nm.mul(ctx, ctx), axis=1), eps * eps))
    u_norm = sqrt(clamp_min(matmul(user_interest, user_interest), eps * eps))
    return div(num, nm.mul(row_norm, u_norm))


def _selectable_scores(seq, scores):
    """Scores with repeated token ids (after the first) at -inf."""
    masked = np.asarray(scores, dtype=float).copy()
    seen = set()
    for j, tok in enumerate(seq.ids):
        if tok in seen:
            masked[j] = -np.inf
        else:
            seen.add(tok)
    return masked


def select_positions_oracle(seq, scores, k):
    """Top-k positions of one item by a full sort on (-score, index)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    masked = _selectable_scores(seq, scores)
    ranked = sorted((j for j in range(len(masked)) if masked[j] > -np.inf),
                    key=lambda j: (-masked[j], j))
    return ranked[:k]


@dataclass
class ItemSelection:
    """One item's gate output as the reference gate returns it: the kept
    positions, the item's raw scores, the kept scores' weights, which are
    positive and sum to 1, and the kept embeddings scaled row-wise by them."""

    positions: list[int]
    raw_scores: Tensor               # (L,)
    weights: Tensor                  # (K_eff,)
    gathered: Tensor                 # (K_eff, d)

    @property
    def k_eff(self) -> int:
        return len(self.positions)


def item_views(gated):
    """A ``GroupedSelection`` as one :class:`ItemSelection` per item, each
    item's runs narrowed out of the flat ``scores``, ``weights`` and ``rows``
    on the current tape, so gradients flow through them."""
    views = []
    for i in range(len(gated)):
        start, stop = gated.token_start[i:i + 2].tolist()
        lo, hi = gated.offsets[i:i + 2].tolist()
        views.append(ItemSelection(
            positions=gated.positions[lo:hi].tolist(),
            raw_scores=nm.narrow(gated.scores, 0, start, stop - start),
            weights=nm.narrow(gated.weights, 0, lo, hi - lo),
            gathered=nm.narrow(gated.rows, 0, lo, hi - lo),
        ))
    return views


def select_topk(seq, raw_scores, embeddings, k):
    """Top-k gather of one item's embeddings, scaled by the softmax of the
    selected scores."""
    positions = select_positions_oracle(seq, raw_scores.data, k)
    weights = nm.softmax(gather_rows(raw_scores, positions))
    gathered = nm.mul(gather_rows(embeddings, positions),
                      nm.reshape(weights, (len(positions), 1)))
    return ItemSelection(positions=positions, raw_scores=raw_scores,
                         weights=weights, gathered=gathered)


def gate_history_oracle(history, params, k):
    """The learned gate, one item at a time."""
    interest = encode_user_interest(history, params)
    sels = []
    for seq in history.items:
        scores = score_tokens(encode_item(seq, params)[0], interest)
        sels.append(select_topk(seq, scores, gather_rows(params.word_embeddings, seq.ids), k))
    return sels


def heuristic_scores_oracle(seq, method, stats=None, rng=None):
    """One item's scores under a heuristic selector: zeros for first, the
    item's own draws for random, per-token BM25 weights for bm25, with
    each token's df read through the index's scalar ``span``."""
    L = len(seq)
    if method == "first":
        return np.zeros(L)
    if method == "random":
        return rng.random(L)
    _, inverse, counts = np.unique(seq.ids, return_inverse=True, return_counts=True)
    spans = [stats.span(tok) for tok in seq.ids]
    return bm25_term_weight(
        tf=counts[inverse],
        df=np.array([span.stop - span.start for span in spans]),
        doc_len=L,
        avg_len=stats.avg_len,
        n_docs=stats.n_docs,
    )


def heuristic_gate_oracle(history, method, k, params, stats=None, rng=None):
    """A heuristic selector, one item at a time, with uniform weights."""
    sels = []
    for seq in history.items:
        scores = heuristic_scores_oracle(seq, method, stats, rng)
        positions = select_positions_oracle(seq, scores, k)
        weights = constant(np.full(len(positions), 1.0 / len(positions)))
        gathered = nm.mul(gather_rows(params.word_embeddings, [seq.ids[p] for p in positions]),
                          nm.reshape(weights, (len(positions), 1)))
        sels.append(ItemSelection(positions=positions, raw_scores=constant(scores),
                                  weights=weights, gathered=gathered))
    return sels


def select_history_oracle(model, history, sample_index=0):
    """The model's selector through the reference gate, with the random
    selector's draws keyed as the package keys them."""
    if model.gate_method == "learned":
        return gate_history_oracle(history, model.gate, model.k)
    rng = np.random.default_rng([model.seed, 7919, sample_index])
    return heuristic_gate_oracle(history, model.gate_method, model.k, model.gate,
                                 model.stats, rng)


def encode_rows_oracle(x, trans):
    """One (T, d) sequence on its own: positions 0..T-1 added, encoded as a
    stack of one and pooled."""
    T, d = x.data.shape
    x = nm.add(x, nm.narrow(trans.pos_embeddings, 0, 0, T))
    encoded = encode_sequence(nm.reshape(x, (1, T, d)), trans)
    return nm.reshape(weighted_pool(encoded, trans.pool_q), (d,))


def encode_user_oracle(selections, trans):
    """User embedding from per-item selections: their gathered rows
    concatenated item by item, then encoded as one sequence."""
    return encode_rows_oracle(nm.concat_rows([s.gathered for s in selections]), trans)


def encode_candidate_oracle(seq, trans):
    """Candidate embedding of one full token sequence, encoded on its own."""
    return encode_rows_oracle(gather_rows(trans.word_embeddings, seq.ids), trans)


def user_embedding_oracle(model, history, sample_index=0):
    return encode_user_oracle(select_history_oracle(model, history, sample_index), model.trans)


def score(user, cand):
    """Scaled inner product z = <u, c> / sqrt(d) of one user and one candidate."""
    if user.data.shape != cand.data.shape:
        raise ValueError(
            f"score dim mismatch: {user.data.shape} vs {cand.data.shape}"
        )
    d = user.data.shape[0]
    return nm.mul(matmul(user, cand), 1.0 / math.sqrt(d))


def click_loss(user, positive, negatives):
    """Sampled-softmax click loss of one impression:
    -log p(positive | positive + negatives)."""
    if not negatives:
        raise ValueError("click_loss needs at least one negative")
    z_pos = score(user, positive)
    zs = [z_pos] + [score(user, n) for n in negatives]
    stacked = nm.concat_rows([nm.reshape(z, (1,)) for z in zs])
    return nm.sub(nm.logsumexp(stacked), z_pos)


def sample_loss(model, sample, sample_index=0):
    """Click loss of one impression: reference gate, per-candidate encoder."""
    user = user_embedding_oracle(model, sample.history, sample_index)
    pos = encode_candidate_oracle(sample.positive, model.trans)
    negs = [encode_candidate_oracle(n, model.trans) for n in sample.negatives]
    return click_loss(user, pos, negs)
