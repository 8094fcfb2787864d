"""Click-prediction training: model assembly, Adam, metrics, train loop.

A model is the gate plus the transformer sharing one word-embedding table.
A training step records one tape for the whole batch: ``batch_loss`` runs
the grouped gate (:func:`gating.gate_groups`) and both encoders on grouped
tensors, with samples grouped by negative count. Tests pin it to a
per-sample reference loss built from the oracle gate. Its ops and their
reductions run in a fixed order, so runs are bit-reproducible for a fixed
seed. Evaluation runs the same batched encoders without a tape and reads
candidate rows through the model's :class:`ItemStore`, which keeps them
while the encoder's parameters are unchanged. Validation AUC selects the
checkpoint that is kept.
"""

from __future__ import annotations

import logging
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import numerics as nm
from .gating import (
    GateParams,
    GroupedSelection,
    assemble_rows,
    gate_groups,
    gate_history,
    init_gate_params,
)
from .numerics import Tape, Tensor, backward, tensor
from .text import CorpusStats, ImpressionSample, TokenSequence, UserHistory
from .transformer import (
    TransformerParams,
    encode_candidate,
    encode_candidates,
    encode_sequence,
    encode_user,
    init_transformer_params,
    save_checkpoint,
    weighted_pool,
)

log = logging.getLogger(__name__)

# Inputs per batched encoder call where a caller splits a long list
# (evaluate's impressions and candidates, recall's news items); it bounds the
# size of the (rows, heads, L, L) attention arrays.
ENCODE_CHUNK = 32


class ItemStore:
    """Forward-only candidate rows of one model, keyed by token ids.

    A candidate's row depends only on its token ids and on the encoder's
    tensors. The store keeps the rows it has encoded under the encoder's
    :meth:`TransformerParams.fingerprint`, which it recomputes on every
    call and which covers in-place edits (Adam, ``apply_checkpoint``) as
    well as replaced arrays; when it differs, every row is dropped. Rows it
    lacks are encoded by :func:`encode_candidate_rows` in order of first
    occurrence. Rows are handed out read-only. Each :class:`Model` owns
    one, so models never share rows.
    """

    def __init__(self) -> None:
        self._fingerprint: str | None = None
        self._rows: dict[tuple[int, ...], np.ndarray] = {}

    def __len__(self) -> int:
        return len(self._rows)

    def rows(
        self, seqs: list[TokenSequence], params: TransformerParams, map_fn=map
    ) -> list[np.ndarray]:
        """One read-only (d,) row per sequence, in input order; ``map_fn``
        runs the encoder's slices as in :func:`encode_candidate_rows`."""
        fingerprint = params.fingerprint()
        if fingerprint != self._fingerprint:
            self._fingerprint, self._rows = fingerprint, {}
        rows = self._rows
        keys = [tuple(seq.ids) for seq in seqs]
        missing: dict[tuple[int, ...], TokenSequence] = {}
        for key, seq in zip(keys, seqs):
            if key not in rows:
                missing.setdefault(key, seq)
        if missing:
            block = encode_candidate_rows(list(missing.values()), params, map_fn)
            block.flags.writeable = False
            rows.update(zip(missing, block))
        return [rows[key] for key in keys]


@dataclass
class Model:
    gate: GateParams
    trans: TransformerParams
    k: int = 3
    gate_method: str = "learned"
    stats: CorpusStats | None = None
    seed: int = 0
    items: ItemStore = field(default_factory=ItemStore, init=False, repr=False, compare=False)

    def named_tensors(self) -> dict[str, Tensor]:
        return {
            "embed.word": self.gate.word_embeddings,
            **self.gate.named_tensors(),
            **self.trans.named_tensors(),
        }

    def trainable_tensors(self) -> dict[str, Tensor]:
        named = self.named_tensors()
        if self.gate_method != "learned":
            named = {k: v for k, v in named.items() if not k.startswith("gate.")}
        return named


def init_model(
    vocab_size: int,
    d: int,
    n_layers: int,
    heads: int,
    max_positions: int,
    n_filters: int,
    window: int,
    seed: int,
    k: int = 3,
    gate_method: str = "learned",
    user_encoder: str = "lstm",
    granularity: str = "token",
    stats: CorpusStats | None = None,
) -> Model:
    rng = np.random.default_rng(seed)
    emb = tensor(rng.normal(0, 0.1, size=(vocab_size, d)), requires_grad=True)
    gate = init_gate_params(
        emb, n_filters, window, rng, user_encoder=user_encoder, granularity=granularity
    )
    trans = init_transformer_params(emb, n_layers, heads, max_positions, rng)
    return Model(gate=gate, trans=trans, k=k, gate_method=gate_method, stats=stats, seed=seed)


def select_history(model: Model, history: UserHistory, sample_index: int = 0) -> GroupedSelection:
    """Selection policy dispatch; heuristic randomness is derived from the
    model seed and the sample index so it is stable across epochs."""
    rng = None
    if model.gate_method == "random":
        rng = np.random.default_rng([model.seed, 7919, sample_index])
    return gate_history(history, model.gate, model.k, model.gate_method, model.stats, rng)


def user_embedding(model: Model, history: UserHistory, sample_index: int = 0) -> Tensor:
    return encode_user(select_history(model, history, sample_index).rows, model.trans)


def keyword_pairs(history: UserHistory, gated: GroupedSelection) -> list[tuple[int, float]]:
    """(token id, weight) pairs of one gating of ``history``, for recall queries."""
    weights = gated.weights.data.tolist()
    return [
        (seq.ids[pos], weights[lo + j])
        for seq, positions, lo in zip(history.items, gated.positions, gated.offsets.tolist())
        for j, pos in enumerate(positions)
    ]


def user_keywords(model: Model, history: UserHistory, sample_index: int = 0) -> list[tuple[int, float]]:
    """(token id, weight) pairs across the gated history, for recall queries."""
    return keyword_pairs(history, select_history(model, history, sample_index))


# ---------------------------------------------------------------------------
# batched forward
# ---------------------------------------------------------------------------

def batch_user_embeddings(
    model: Model, histories: list[UserHistory], sample_indices: list[int]
) -> Tensor:
    """(B, d) user embeddings for a batch of histories on the current tape.

    Histories with equal content (the items' token ids, and their word
    groups under word granularity) are encoded once and share one row,
    except under the random selector whose draws are keyed to the sample
    index.
    """
    word = model.gate.granularity == "word"
    unique: list[UserHistory] = []
    rngs: list = []
    mapping: list[int] = []
    seen: dict[tuple, int] = {}
    for idx, h in zip(sample_indices, histories):
        if model.gate_method == "random":
            rngs.append(np.random.default_rng([model.seed, 7919, idx]))
        else:
            key = tuple(
                (tuple(seq.ids), tuple(seq.word_group)) if word else tuple(seq.ids)
                for seq in h.items
            )
            if key in seen:
                mapping.append(seen[key])
                continue
            seen[key] = len(unique)
        mapping.append(len(unique))
        unique.append(h)

    gated = gate_groups(
        unique, model.gate, model.k, model.gate_method, model.stats, rngs or None
    )
    spans = gated.spans()
    trans = model.trans
    by_t: dict[int, list[int]] = {}
    for u_i, (_, length) in enumerate(spans):
        by_t.setdefault(length, []).append(u_i)
    chunks, order = [], []
    for T in sorted(by_t):
        mem = by_t[T]
        flat = np.concatenate([np.arange(spans[u][0], spans[u][0] + T) for u in mem])
        seq3 = nm.reshape(nm.gather_rows(gated.rows, flat), (len(mem), T, trans.d))
        if T > trans.max_positions:
            raise ValueError(f"sequence length {T} exceeds max positions {trans.max_positions}")
        x = nm.add(seq3, nm.narrow(trans.pos_embeddings, 0, 0, T))
        encoded = encode_sequence(x, trans)
        chunks.append(weighted_pool(encoded, trans.pool_q))
        order.extend(mem)
    users_unique = assemble_rows(chunks, np.array(order))
    if mapping == list(range(len(histories))):
        return users_unique
    return nm.gather_rows(users_unique, mapping)


def batch_loss(model: Model, samples: list[ImpressionSample], sample_indices: list[int]) -> Tensor:
    """Mean click loss over a batch, computed on grouped tensors.

    Users and candidates are encoded in one call each; the scores and
    per-sample losses run per group of samples with equal negative counts.
    """
    users = batch_user_embeddings(model, [s.history for s in samples], sample_indices)
    cand_seqs = []
    for s in samples:
        cand_seqs.append(s.positive)
        cand_seqs.extend(s.negatives)
    cands = encode_candidates(cand_seqs, model.trans)
    B = len(samples)
    d = model.trans.d
    n_cands = np.array([1 + len(s.negatives) for s in samples])
    first = np.concatenate([[0], np.cumsum(n_cands)[:-1]])
    losses = []
    for C in np.unique(n_cands):
        mem = np.flatnonzero(n_cands == C)
        if len(mem) == B:
            u, c = users, cands
        else:
            u = nm.gather_rows(users, mem)
            c = nm.gather_rows(cands, (first[mem][:, None] + np.arange(C)).ravel())
        G = len(mem)
        z = nm.mul(
            nm.vsum(nm.mul(nm.reshape(c, (G, C, d)), nm.reshape(u, (G, 1, d))), axis=2),
            1.0 / math.sqrt(d),
        )
        lse = nm.logsumexp(z, axis=-1)
        z_pos = nm.reshape(nm.narrow(z, 1, 0, 1), (G,))
        losses.append(nm.sub(lse, z_pos))
    return nm.mean(losses[0] if len(losses) == 1 else nm.concat_rows(losses))


# ---------------------------------------------------------------------------
# optimizer
# ---------------------------------------------------------------------------

@dataclass
class OptimState:
    peak_lr: float
    warmup_steps: int
    total_steps: int
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step: int = 0
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)


def lr_at(state: OptimState, t: int) -> float:
    """Linear warmup to peak_lr, then linear decay to zero at total_steps."""
    if state.warmup_steps > 0 and t <= state.warmup_steps:
        return state.peak_lr * t / state.warmup_steps
    span = state.total_steps - state.warmup_steps
    if span <= 0:
        return state.peak_lr
    return state.peak_lr * max(0.0, (state.total_steps - t) / span)


def adam_step(named: dict[str, Tensor], state: OptimState) -> float:
    """One Adam update with bias correction; returns the lr used.

    Parameters without a populated gradient are treated as zero-gradient.
    A NaN gradient aborts the step before any parameter moves.
    """
    for name, p in named.items():
        if p.grad is not None and not np.isfinite(p.grad).all():
            raise RuntimeError(f"non-finite gradient in {name}; aborting step")
    state.step += 1
    t = state.step
    lr = lr_at(state, t)
    bc1 = 1.0 - state.beta1 ** t
    bc2 = 1.0 - state.beta2 ** t
    for name, p in named.items():
        g = p.grad if p.grad is not None else np.zeros_like(p.data)
        m = state.m.setdefault(name, np.zeros_like(p.data))
        v = state.v.setdefault(name, np.zeros_like(p.data))
        m *= state.beta1
        m += (1.0 - state.beta1) * g
        v *= state.beta2
        v += (1.0 - state.beta2) * g * g
        p.data -= lr * (m / bc1) / (np.sqrt(v / bc2) + state.eps)
    return lr


def clip_gradients(named: dict[str, Tensor], max_norm: float) -> float:
    """Scale all gradients so the global norm is at most max_norm."""
    total = 0.0
    for p in named.values():
        if p.grad is not None:
            total += float((p.grad * p.grad).sum())
    norm = math.sqrt(total)
    if max_norm > 0 and norm > max_norm:
        scale = max_norm / norm
        for p in named.values():
            if p.grad is not None:
                p.grad = p.grad * scale
    return norm


def zero_grads(named: dict[str, Tensor]) -> None:
    for p in named.values():
        p.zero_grad()


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

@dataclass
class EvalReport:
    auc: float
    mrr: float
    ndcg5: float
    ndcg10: float
    n_impressions: int

    def row(self) -> tuple[float, float, float, float]:
        return (self.auc, self.mrr, self.ndcg5, self.ndcg10)


def auc_score(scores, labels) -> float:
    """Rank-based AUC with ties counted half (Mann-Whitney)."""
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels)
    order = np.argsort(scores, kind="stable")
    ranks = np.empty(len(scores))
    i = 0
    while i < len(scores):
        j = i
        while j + 1 < len(scores) and scores[order[j + 1]] == scores[order[i]]:
            j += 1
        ranks[order[i:j + 1]] = (i + j) / 2.0 + 1.0  # average rank, 1-based
        i = j + 1
    n_pos = int(labels.sum())
    n_neg = len(labels) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ValueError("AUC needs at least one positive and one negative")
    pos_rank_sum = float(ranks[labels == 1].sum())
    return (pos_rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def _ranking(scores) -> list[int]:
    return sorted(range(len(scores)), key=lambda i: (-scores[i], i))


def mrr_score(scores, labels) -> float:
    for rank, i in enumerate(_ranking(scores), start=1):
        if labels[i] == 1:
            return 1.0 / rank
    return 0.0


def ndcg_at_k(scores, labels, k: int) -> float:
    order = _ranking(scores)
    dcg = 0.0
    for rank, i in enumerate(order[:k], start=1):
        if labels[i] == 1:
            dcg += 1.0 / math.log2(rank + 1)
    n_pos = int(sum(labels))
    idcg = sum(1.0 / math.log2(r + 1) for r in range(1, min(k, n_pos) + 1))
    return dcg / idcg if idcg > 0 else 0.0


def encode_candidate_rows(
    seqs: list[TokenSequence], params: TransformerParams, map_fn=map
) -> np.ndarray:
    """(len(seqs), d) forward-only candidate embeddings in input order, made
    by :func:`encode_candidates` calls on slices of ``ENCODE_CHUNK``
    sequences. ``map_fn`` runs the slices: the builtin ``map``, or a thread
    pool's ``map``."""
    slices = [seqs[i:i + ENCODE_CHUNK] for i in range(0, len(seqs), ENCODE_CHUNK)]
    return np.concatenate(list(map_fn(lambda part: encode_candidates(part, params).data, slices)))


def evaluate(model: Model, samples: list[ImpressionSample], threads: int = 1) -> EvalReport:
    """Mean AUC/MRR/NDCG over impressions; forward-only, no tape.

    User embeddings come from one :func:`batch_user_embeddings` call per
    ``ENCODE_CHUNK`` impressions, with each impression's index in
    ``samples`` as its sample index (so the random selector draws as it does
    per sample). Candidate rows come from the model's :class:`ItemStore`:
    each distinct token-id sequence is encoded once while the encoder's
    parameters are unchanged, whatever its news id and however many
    objects or calls hold it. With ``threads`` > 1 the encoder calls run on
    a thread pool of that size and the report equals the single-threaded
    one.

    A row reused from an earlier call was encoded in another slice of
    candidates, so the report also depends on the store's state. With a
    BLAS whose products give a row the same bits whatever rows share its
    batch it does not change; the tests check that a warm report equals a
    cold one.
    """
    if not samples:
        raise ValueError("cannot evaluate on an empty sample list")
    seqs = [seq for s in samples for seq in (s.positive, *s.negatives)]

    def user_chunk(start: int) -> np.ndarray:
        chunk = samples[start:start + ENCODE_CHUNK]
        return batch_user_embeddings(
            model, [s.history for s in chunk], list(range(start, start + len(chunk)))
        ).data

    def encode_all(map_fn):
        user_parts = map_fn(user_chunk, range(0, len(samples), ENCODE_CHUNK))
        rows = model.items.rows(seqs, model.trans, map_fn)
        return np.concatenate(list(user_parts)), np.stack(rows)

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            users, cands = encode_all(pool.map)
    else:
        users, cands = encode_all(map)

    sqrt_d = math.sqrt(users.shape[1])
    metrics = []
    start = 0
    for u, s in zip(users, samples):
        labels = [1] + [0] * len(s.negatives)
        # vecdot takes each row's dot product on its own: equal rows tie exactly
        scores = np.vecdot(cands[start:start + len(labels)], u) / sqrt_d
        start += len(labels)
        metrics.append((
            auc_score(scores, labels),
            mrr_score(scores, labels),
            ndcg_at_k(scores, labels, 5),
            ndcg_at_k(scores, labels, 10),
        ))
    mean = np.asarray(metrics).mean(axis=0)
    return EvalReport(
        auc=float(mean[0]), mrr=float(mean[1]), ndcg5=float(mean[2]),
        ndcg10=float(mean[3]), n_impressions=len(samples),
    )


# ---------------------------------------------------------------------------
# training loop
# ---------------------------------------------------------------------------

@dataclass
class TrainResult:
    model: Model
    history: list[tuple]            # (step, loss, auc, mrr, ndcg5, ndcg10)
    losses: list[float]             # per-step batch losses
    best_auc: float
    best_step: int
    final_report: EvalReport | None


def split_samples(samples: list[ImpressionSample], val_fraction: float, seed: int):
    """Deterministic shuffle split into (train, validation)."""
    rng = np.random.default_rng([seed, 104729])
    order = rng.permutation(len(samples))
    n_val = int(round(len(samples) * val_fraction))
    val_idx = set(order[:n_val].tolist())
    train = [s for i, s in enumerate(samples) if i not in val_idx]
    val = [s for i, s in enumerate(samples) if i in val_idx]
    return train, val


def train(
    model: Model,
    train_samples: list[ImpressionSample],
    val_samples: list[ImpressionSample],
    steps: int,
    batch_size: int,
    peak_lr: float,
    warmup: int,
    seed: int,
    eval_interval: int = 200,
    log_interval: int = 50,
    clip_norm: float = 0.0,
    out_dir: str | Path | None = None,
    threads: int = 1,
) -> TrainResult:
    """Mini-batch training with best-validation-AUC checkpoint retention.

    With ``out_dir`` set, writes ``best.manifest.json``/``best.bin`` (the
    best-AUC parameters, or the initial ones when no evaluation ran) there.
    """
    if not train_samples and steps > 0:
        raise ValueError("no training samples")
    named = model.named_tensors()
    trainable = model.trainable_tensors()
    state = OptimState(peak_lr=peak_lr, warmup_steps=warmup, total_steps=steps)
    rng = np.random.default_rng([seed, 15485863])

    history: list[tuple] = []
    losses: list[float] = []
    best_auc = -1.0
    best_step = 0
    best_snapshot = {k: v.data.copy() for k, v in named.items()}
    final_report: EvalReport | None = None

    order: list[int] = []

    def next_batch():
        nonlocal order
        batch = []
        while len(batch) < batch_size:
            if not order:
                order = rng.permutation(len(train_samples)).tolist()
            batch.append(order.pop())
        return batch

    for step in range(1, steps + 1):
        batch = next_batch()
        zero_grads(trainable)
        with Tape() as tape:
            loss = batch_loss(model, [train_samples[i] for i in batch], batch)
        value = loss.item()
        if not math.isfinite(value):
            raise RuntimeError(f"diverged: non-finite loss {value} at step {step}")
        backward(tape, loss)
        log_step = bool(log_interval) and step % log_interval == 0
        # the pre-clip norm; without clipping it is computed only to be logged
        if clip_norm > 0 or log_step:
            grad_norm = clip_gradients(trainable, clip_norm)
        adam_step(trainable, state)
        losses.append(value)

        if log_step:
            log.info("step %d loss %.4f lr %.2e grad_norm %.4e",
                     step, value, lr_at(state, step), grad_norm)
        if val_samples and eval_interval and (step % eval_interval == 0 or step == steps):
            report = evaluate(model, val_samples, threads=threads)
            history.append((step, value, *report.row()))
            final_report = report
            if report.auc > best_auc:
                best_auc = report.auc
                best_step = step
                best_snapshot = {k: v.data.copy() for k, v in named.items()}

    # restore the retained parameters so the returned model is the best one
    for k, v in named.items():
        v.data[...] = best_snapshot[k]
    if out_dir is not None:
        save_checkpoint(named, Path(out_dir) / "best")
    return TrainResult(
        model=model,
        history=history,
        losses=losses,
        best_auc=best_auc,
        best_step=best_step,
        final_report=final_report,
    )


def write_metrics_csv(path, history: list[tuple], fingerprint: str) -> None:
    """Metrics history as CSV with a config-fingerprint comment line."""
    with open(path, "w", encoding="utf-8") as f:
        f.write(f"# config {fingerprint}\n")
        f.write("step,loss,auc,mrr,ndcg5,ndcg10\n")
        for row in history:
            f.write(",".join(repr(x) if isinstance(x, float) else str(x) for x in row) + "\n")
