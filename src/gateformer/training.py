"""Click-prediction training: model assembly, Adam, metrics, train loop.

A model is the gate plus the transformer sharing one word-embedding table.
A training step records one tape for the whole batch: ``batch_loss`` runs
the grouped gate (:func:`gating.gate_groups`) and both sides of the
transformer on grouped tensors, each through one
:func:`transformer.encode_sequences` call (the users' gated rows, and the
candidates' distinct token ids), and scores them with
:func:`impression_logits`, per group of samples with equal negative counts;
each of these ragged batches is bucketed by :func:`numerics.by_length`.
Tests pin it to a per-sample reference loss built from the oracle gate. Its
ops and their reductions run in a fixed order, so runs are bit-reproducible
for a fixed seed. Evaluation scores its impressions slice by slice, each
``ENCODE_CHUNK`` slice start to finish with the same batched encoders and
the same scoring without a tape, and reads through the model's
:class:`ItemStore`, which keeps candidate rows while the encoder's
parameters are unchanged and the gate's per-item features while the tensors
they read are unchanged, each row under its item's
:attr:`text.TokenSequence.key`.
Only :func:`batch_user_embeddings` with no tape recording reads gate
features from it, so training (always on a tape) computes them and its
gradients reach the tensors they read. Every impression holds one positive,
so :func:`rank_metrics` reads AUC, MRR and NDCG from how many negatives
score above and level with it; the general reference metrics live in the
tests. Validation AUC selects the checkpoint that is kept; a run that never
evaluates keeps its final parameters.

Per sample, :func:`gate_history` is the one gate entry: the grouped gate on
a batch of one history, with the model's selector, never reading the store.
Its flat output feeds both :func:`user_embedding` (the gated rows) and
:func:`user_keywords` (the selected token ids and their weights).
:func:`sample_rngs` is where the random selector gets one generator per
sample, for the per-sample and the batched entry alike.
"""

from __future__ import annotations

import logging
import math
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import numerics as nm
from .gating import GateParams, GroupedSelection, gate_groups, init_gate_params, item_features
from .numerics import Tape, Tensor, backward, tensor
from .recall import InvertedIndex
from .text import ImpressionSample, TokenSequence, UserHistory, first_occurrences
# encode_candidate, encode_sequence and weighted_pool are not called here:
# perfbench/tracing.py wraps them under these names
from .transformer import (  # noqa: F401
    TransformerParams,
    encode_candidate,
    encode_candidates,
    encode_sequence,
    encode_sequences,
    encode_user,
    init_transformer_params,
    save_checkpoint,
    weighted_pool,
)

log = logging.getLogger(__name__)

# Inputs per batched encoder call where a long list is split (evaluate's
# impressions, the candidates an ItemStore read encodes); it bounds the size
# of the (rows, heads, L, L) attention arrays.
ENCODE_CHUNK = 32


def same_bits(array: np.ndarray, copy: np.ndarray) -> bool:
    """Whether a float64 array has the shape and the bit pattern of a float64
    copy: -0.0 differs from 0.0, and NaNs are equal only with one payload."""
    return array.dtype == copy.dtype and np.array_equal(array.view(np.int64), copy.view(np.int64))


class _Table:
    """Rows in contiguous arrays with a dict from each key to its row. The
    capacity doubles as rows are appended; rows once written never change,
    and growth copies them into new arrays, so arrays handed out stay valid."""

    def __init__(self) -> None:
        self.at: dict = {}
        self.arrays: list[np.ndarray] = []

    def index(self, keys: list, compute) -> np.ndarray:
        """The row of each key; ``compute`` makes the rows of the keys not
        held from the positions in ``keys`` of their first occurrences."""
        at = self.at
        first, inverse = first_occurrences(keys)
        missing = [i for i in first if keys[i] not in at]
        if missing:
            parts = compute(missing)
            n, stop = len(at), len(at) + len(missing)
            if not self.arrays or stop > len(self.arrays[0]):
                grown = [np.empty((max(stop, 2 * n), *part.shape[1:])) for part in parts]
                for new, old in zip(grown, self.arrays):
                    new[:n] = old[:n]
                self.arrays = grown
            for table, part in zip(self.arrays, parts):
                table[n:stop] = part
            at.update(zip([keys[i] for i in missing], range(n, stop)))
        return np.array([at[keys[i]] for i in first], dtype=np.intp)[inverse]


class _Rows:
    """Rows of one kind, one :class:`_Table` per item length, kept while the
    tensors they read hold the bits of the kind's private copy of them. A
    lock makes each call's check, look-ups and insertions one step."""

    def __init__(self) -> None:
        self.snapshot: tuple[int, list[np.ndarray]] | None = None
        self.tables: dict[int, _Table] = {}
        self.lock = threading.Lock()

    def __len__(self) -> int:
        return sum(len(table.at) for table in self.tables.values())

    def get(self, setting: int, tensors: list[Tensor], parts: list) -> list[list[np.ndarray]]:
        """For each ``(length, keys, compute)`` of ``parts``, the rows of
        ``keys`` in order, one read-only array per array of the table of
        ``length`` (the item length; 0 for candidates). The tensors are
        checked once per call: a new ``setting``, or a tensor whose shape or
        bits differ from the copy, drops every row and renews the copy."""
        with self.lock:
            if self.snapshot is None or setting != self.snapshot[0] or not all(
                map(same_bits, (t.data for t in tensors), self.snapshot[1])
            ):
                self.snapshot = (setting, [np.array(t.data, dtype=np.float64) for t in tensors])
                self.tables = {}
            found = []
            for length, keys, compute in parts:
                table = self.tables.setdefault(length, _Table())
                found.append((table.index(keys, compute), table.arrays))
        out = [[array[index] for array in arrays] for index, arrays in found]
        for rows in out:
            for array in rows:
                array.flags.writeable = False
        return out


class ItemStore:
    """Forward-only rows of one model's items, keyed by their
    :attr:`text.TokenSequence.key` (the bytes of the int64 token ids), of two
    kinds: candidate rows and the learned gate's per-item features (an
    item's (L, n_f) ReLU conv context and (n_f,) pooled vector,
    :func:`gating.item_features`).

    Each kind keeps a private copy of the tensors its rows read (candidates:
    ``embed.word`` and :meth:`TransformerParams.named_tensors`, with
    ``heads``; gate rows: ``embed.word``, the conv and ``pool_v``, with
    ``window``) and compares their shapes and bits with it on every call, so
    in-place edits (Adam, ``apply_checkpoint``) and replaced arrays are
    seen; on a difference every row of that kind is dropped. Rows live in
    contiguous tables, one (N, d) table of candidates and one pair of gate
    tables per item length, read with one gather. Rows a call lacks are
    computed once per distinct key, in order of first occurrence; calls
    return new read-only arrays. With ``threads`` > 1, ``evaluate`` scores
    its slices of impressions on several threads, each reading the store;
    each kind's lock keeps its calls apart. Each :class:`Model` owns one
    store, so models never share rows.
    """

    def __init__(self) -> None:
        self._candidates = _Rows()
        self._gate = _Rows()

    def __len__(self) -> int:
        """Candidate rows held."""
        return len(self._candidates)

    def rows(self, seqs: list[TokenSequence], params: TransformerParams) -> np.ndarray:
        """Read-only (len(seqs), d) candidate rows in input order; the rows
        missing are made by :func:`encode_candidates` calls on slices of
        ``ENCODE_CHUNK`` distinct sequences."""
        def compute(first: list[int]) -> list[np.ndarray]:
            return [np.concatenate([
                encode_candidates([seqs[i] for i in first[j:j + ENCODE_CHUNK]], params).data
                for j in range(0, len(first), ENCODE_CHUNK)
            ])]

        tensors = [params.word_embeddings, *params.named_tensors().values()]
        keys = [seq.key for seq in seqs]
        return self._candidates.get(params.heads, tensors, [(0, keys, compute)])[0][0]

    def gate_rows(
        self, groups: list[tuple[list[bytes], np.ndarray]], params: GateParams
    ) -> list[tuple[np.ndarray, np.ndarray]]:
        """For each length group's item keys and (G, L) token ids, the
        (G, L, n_f) context and (G, n_f) pooled arrays
        :func:`gating.item_features` makes, all read under one check of the
        tensors; the distinct missing items of a group are computed in one
        call."""
        tensors = [params.word_embeddings, params.filters, params.bias, params.pool_v]
        parts = [(ids.shape[1], keys,
                  lambda first, ids=ids: [t.data for t in item_features(params, ids[first])])
                 for keys, ids in groups]
        return [tuple(rows) for rows in self._gate.get(params.window, tensors, parts)]


@dataclass
class Model:
    gate: GateParams
    trans: TransformerParams
    k: int = 3
    gate_method: str = "learned"
    stats: InvertedIndex | None = None  # the corpus index; the bm25 selector reads it
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
    stats: InvertedIndex | None = None,
) -> Model:
    rng = np.random.default_rng(seed)
    emb = tensor(rng.normal(0, 0.1, size=(vocab_size, d)), requires_grad=True)
    gate = init_gate_params(emb, n_filters, window, rng, user_encoder=user_encoder)
    trans = init_transformer_params(emb, n_layers, heads, max_positions, rng)
    return Model(gate=gate, trans=trans, k=k, gate_method=gate_method, stats=stats, seed=seed)


def sample_rngs(model: Model, sample_indices: list[int]) -> list[np.random.Generator] | None:
    """The random selector's draws, one generator per sample, keyed to the
    model seed and the sample index so they are stable across epochs; None
    for the other selectors, which draw nothing."""
    if model.gate_method != "random":
        return None
    return [np.random.default_rng([model.seed, 7919, i]) for i in sample_indices]


def gate_history(history: UserHistory, model: Model, sample_index: int = 0) -> GroupedSelection:
    """Gate one user's history with the model's selector:
    :func:`gating.gate_groups` on a batch of one.

    It never reads the item store: the benchmark's FLOP-model check counts
    one per-sample ``user_embedding`` against the cold
    ``efficiency.user_side_flops``, which a warm store would undercut.
    """
    return gate_groups(
        [history], model.gate, model.k, model.gate_method, model.stats,
        sample_rngs(model, [sample_index]),
    )


def user_embedding(model: Model, history: UserHistory, sample_index: int = 0) -> Tensor:
    return encode_user(gate_history(history, model, sample_index).rows, model.trans)


def keyword_pairs(gated: GroupedSelection) -> list[tuple[int, float]]:
    """(token id, weight) pairs of one gating, for recall queries."""
    return list(zip(gated.token_ids.tolist(), gated.weights.data.tolist()))


def user_keywords(model: Model, history: UserHistory, sample_index: int = 0) -> list[tuple[int, float]]:
    """(token id, weight) pairs across the gated history, for recall queries."""
    return keyword_pairs(gate_history(history, model, sample_index))


# ---------------------------------------------------------------------------
# batched forward
# ---------------------------------------------------------------------------

def batch_user_embeddings(
    model: Model, histories: list[UserHistory], sample_indices: list[int]
) -> Tensor:
    """(B, d) user embeddings for a batch of histories on the current tape.

    Histories with equal content (the tuple of their items' keys) are
    encoded once and share one row, except under the random selector whose
    draws are keyed to the sample index. With no tape recording, the learned
    gate reads its per-item features from the model's :class:`ItemStore`; on
    a tape (``batch_loss``) it computes them, so gradients reach the tensors
    they read.
    """
    rngs = sample_rngs(model, sample_indices)
    keys = range(len(histories)) if rngs is not None else [
        tuple(seq.key for seq in h.items) for h in histories
    ]
    first, inverse = first_occurrences(keys)
    unique = [histories[i] for i in first]

    store = None if nm.recording() else model.items
    gated = gate_groups(unique, model.gate, model.k, model.gate_method, model.stats, rngs, store)
    bounds = gated.offsets[gated.item_start]  # history h's rows: bounds[h]:bounds[h + 1]
    rows = encode_sequences(gated.rows, np.arange(bounds[-1]), bounds, model.trans)
    return nm.gather_rows(rows, inverse)


def impression_logits(
    users: Tensor, cands: Tensor, n_cands: np.ndarray
) -> list[tuple[np.ndarray, Tensor]]:
    """``(members, logits)`` per distinct candidate count C, in increasing C.

    ``users`` is (B, d); ``cands`` (N, d) holds each sample's candidates in
    sample order, positive first, ``n_cands[i]`` of them for sample i.
    ``members`` are the indices of the G samples with C candidates and
    ``logits`` their (G, C) scores ``<user, candidate> / sqrt(d)``, the
    positive in column 0. Each score is one row's own product and sum, so
    equal candidate rows of an impression score equally.
    """
    d = users.data.shape[1]
    first = np.concatenate([[0], np.cumsum(n_cands)[:-1]])
    out = []
    for C, mem, at in nm.by_length(first, n_cands):
        u = nm.gather_rows(users, mem)
        c = nm.gather_rows(cands, at.ravel())
        G = len(mem)
        z = nm.mul(
            nm.vsum(nm.mul(nm.reshape(c, (G, C, d)), nm.reshape(u, (G, 1, d))), axis=2),
            1.0 / math.sqrt(d),
        )
        out.append((mem, z))
    return out


def batch_loss(model: Model, samples: list[ImpressionSample], sample_indices: list[int]) -> Tensor:
    """Mean click loss over a batch, computed on grouped tensors.

    Users and candidates are encoded in one call each; the scores
    (:func:`impression_logits`) and per-sample losses run per group of
    samples with equal negative counts.
    """
    users = batch_user_embeddings(model, [s.history for s in samples], sample_indices)
    cands = encode_candidates(
        [seq for s in samples for seq in (s.positive, *s.negatives)], model.trans
    )
    n_cands = np.array([1 + len(s.negatives) for s in samples])
    losses = []
    for mem, z in impression_logits(users, cands, n_cands):
        lse = nm.logsumexp(z)
        z_pos = nm.reshape(nm.narrow(z, 1, 0, 1), (len(mem),))
        losses.append(nm.sub(lse, z_pos))
    return nm.mean(nm.concat_rows(losses))


# ---------------------------------------------------------------------------
# optimizer
# ---------------------------------------------------------------------------

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class OptimState:
    peak_lr: float
    warmup_steps: int
    total_steps: int
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
    """One Adam update with bias correction, betas ``ADAM_BETA1`` and
    ``ADAM_BETA2`` and epsilon ``ADAM_EPS``; returns the lr used.

    Parameters without a populated gradient are treated as zero-gradient.
    A NaN gradient aborts the step before any parameter moves.
    """
    for name, p in named.items():
        if p.grad is not None and not np.isfinite(p.grad).all():
            raise RuntimeError(f"non-finite gradient in {name}; aborting step")
    state.step += 1
    t = state.step
    lr = lr_at(state, t)
    bc1 = 1.0 - ADAM_BETA1 ** t
    bc2 = 1.0 - ADAM_BETA2 ** t
    for name, p in named.items():
        g = p.grad if p.grad is not None else np.zeros_like(p.data)
        m = state.m.setdefault(name, np.zeros_like(p.data))
        v = state.v.setdefault(name, np.zeros_like(p.data))
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * g * g
        p.data -= lr * (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)
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


def rank_metrics(z: np.ndarray) -> np.ndarray:
    """(G, 4) rows of AUC, MRR, nDCG@5 and nDCG@10 for a (G, C) score
    matrix whose column 0 holds each impression's one positive and whose
    other columns hold its negatives.

    Each row's metrics follow from how many negatives score above, level
    with and below the positive. Ties count half towards the AUC and rank
    after the positive, which is first in its impression.
    """
    pos, neg = z[:, :1], z[:, 1:]
    above = (neg > pos).sum(axis=1)
    tied = (neg == pos).sum(axis=1)
    less = neg.shape[1] - above - tied
    rank = 1 + above
    gain = 1.0 / np.log2(1 + rank)
    return np.stack([
        (less + 0.5 * tied) / neg.shape[1],
        1.0 / rank,
        np.where(rank <= 5, gain, 0.0),
        np.where(rank <= 10, gain, 0.0),
    ], axis=1)


def evaluate(model: Model, samples: list[ImpressionSample], threads: int = 1) -> EvalReport:
    """Mean AUC, MRR, NDCG@5 and NDCG@10 over impressions; forward-only, no
    tape.

    Each ``ENCODE_CHUNK`` slice of impressions is scored start to finish:
    one :func:`batch_user_embeddings` call, with each impression's index in
    ``samples`` as its sample index (so the random selector draws as it does
    per sample); one read of the slice's candidates from the model's
    :class:`ItemStore`, which encodes each distinct token-id sequence once
    while the encoder's tensors keep their bits, whatever its news id and
    however many objects, slices or calls hold it (the learned gate's
    per-item features come from the same store); :func:`impression_logits`,
    the scoring ``batch_loss`` trains; and :func:`rank_metrics`, from where
    its positive (the impression's one click) falls among its negatives. So
    only one slice's rows are held at a time, besides the store. With
    ``threads`` > 1 the slices are scored on a thread pool of that size and
    the report equals the single-threaded one. An impression without
    negatives, or with a non-finite score, raises ``ValueError`` naming the
    first one.

    A row reused from an earlier call (or another slice) was computed in
    another batch, so the report also depends on the store's state. With a
    BLAS whose products give a row the same bits whatever rows share its
    batch it does not change; the tests check that a warm report equals a
    cold one and an uncached one.
    """
    if not samples:
        raise ValueError("cannot evaluate on an empty sample list")
    n_cands = np.array([1 + len(s.negatives) for s in samples])
    if (n_cands < 2).any():
        raise ValueError(f"impression {int(np.argmin(n_cands))} has no negatives to rank")

    def score(start: int) -> tuple[np.ndarray, np.ndarray]:
        """The (G, 4) metrics of the slice's G impressions and whether each
        one's scores are finite."""
        chunk = samples[start:start + ENCODE_CHUNK]
        users = batch_user_embeddings(
            model, [s.history for s in chunk], list(range(start, start + len(chunk)))
        )
        cands = nm.constant(model.items.rows(
            [seq for s in chunk for seq in (s.positive, *s.negatives)], model.trans
        ))
        metrics = np.empty((len(chunk), 4))
        finite = np.empty(len(chunk), dtype=bool)
        for mem, z in impression_logits(users, cands, n_cands[start:start + len(chunk)]):
            finite[mem] = np.isfinite(z.data).all(axis=1)
            metrics[mem] = rank_metrics(z.data)
        return metrics, finite

    starts = range(0, len(samples), ENCODE_CHUNK)
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            parts = list(pool.map(score, starts))
    else:
        parts = list(map(score, starts))
    metrics, finite = (np.concatenate(part) for part in zip(*parts))
    if not finite.all():
        raise ValueError(f"non-finite score in impression {int(np.argmin(finite))}")
    mean = metrics.mean(axis=0)
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

    The returned model holds the parameters of the best evaluation, or the
    final ones when no evaluation ran (no validation samples, or
    ``eval_interval`` 0). With ``out_dir`` set, writes those parameters
    there as ``best.manifest.json``/``best.bin``.
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
    best_snapshot: dict[str, np.ndarray] | None = None
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
    if best_snapshot is not None:
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
