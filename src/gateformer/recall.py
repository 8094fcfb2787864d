"""Sparse, dense, and hybrid candidate recall over gated keywords.

Sparse recall is an exact inverted-index + Okapi BM25 ranker (k1=1.2,
b=0.75); dense recall is exact brute-force scaled inner product; hybrid
retrieves sparsely then re-ranks densely. No approximate pruning anywhere:
desk-scale corpora make exactness cheap. The news corpus's index is also the
bm25 selector's statistics: :meth:`InvertedIndex.doc_freq`, ``n_docs`` and
``avg_len``.

Sparse scoring is term-at-a-time accumulation (Turtle & Flood, 1995) done
as one array pass: one ``searchsorted`` finds the postings of every query
keyword, one index array gathers them all in keyword order, and one
weighted ``np.bincount`` adds each doc's contributions in that order from
0.0, so the scores are the bits a loop over the keywords would add up. A
query of q keywords reading P postings over m docs costs O(q log t) for the
lookup in the t indexed tokens, O(P) for the gather and O(P + m) for the
sums and the touched-doc mask; top-n then selects among the c touched docs
as dense top-n does, O(c) plus O(n log n).

Dense top-n scores every doc, then selects rather than sorts: it finds the
n-th best score with ``np.partition``, keeps every doc at least that good
(so ties at the cut survive) and sorts only the kept ones by (-score, doc
id). A query over m docs of dimension d costs one O(m d) copy of the dict
into a matrix, O(m d) for the scores, O(m) for the selection and
O(n log n) for the sort; the copy dominates. A score that is not finite
raises rather than ranking silently.

Postings are CSR (compressed sparse rows): the postings of ``tokens[r]``
are ``keys[offsets[r]:offsets[r + 1]]`` with term frequencies ``tfs`` at the
same positions, keys ascending. A doc key indexes ``doc_ids``, the sorted
external ids, so key order and id order coincide.

Index file layout, format version 2 (little-endian, no padding):

    magic   b"GFIX"
    u32     format version (2)
    u32     n_docs
    u32     n_tokens
    u64     n_postings
    u64     id_bytes                   total utf-8 bytes of the doc ids
    i64     offsets[n_tokens + 1]      0, ..., n_postings; strictly increasing
    u32     tokens[n_tokens]           strictly increasing token ids
    u32     keys[n_postings]           < n_docs; strictly increasing per token
    u32     tfs[n_postings]            >= 1
    u32     id_lens[n_docs]            utf-8 byte length of each doc id
    u8      ids[id_bytes]              doc ids, strictly increasing

Doc lengths (the per-doc sum of tfs), the average length and the BM25
weight of every posting are derived on build and on load, never stored: one
idf per token from its posting count, one length normalisation per doc, then
one array pass over the postings; the id -> key map is built on first use.
No step walks the postings in Python. At 2,048 docs and 61,440 postings,
about a third of a build is the ``np.fromiter`` over the docs' id lists and
most of the rest the sort of the (token, doc) codes and the derived fields.
A load is mostly the checks and the derived fields, then the doc ids, which
decode in one call and are sliced at their byte offsets when they are pure
ASCII; other ids decode one by one, which also rejects a character split
across two ids.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from pathlib import Path

import numpy as np

from .text import TokenSequence

K1 = 1.2
B = 0.75

MAGIC = b"GFIX"
VERSION = 2
HEADER = struct.Struct("<4sIIIQQ")  # magic, version, n_docs, n_tokens, n_postings, id_bytes


def bm25_idf(df, n_docs):
    """BM25 inverse document frequency of a term held by ``df`` of the
    ``n_docs`` documents."""
    return np.log((n_docs - df + 0.5) / (df + 0.5) + 1.0)


def bm25_length_norm(doc_len, avg_len, k1: float = K1, b: float = B):
    """BM25 length normalisation of a document of ``doc_len`` tokens."""
    return k1 * (1.0 - b + b * doc_len / avg_len)


def bm25_weight(idf, tf, norm, k1: float = K1):
    """BM25 contribution of a term of inverse document frequency ``idf``
    occurring tf >= 1 times in a document of length normalisation ``norm``."""
    return idf * tf * (k1 + 1.0) / (tf + norm)


def bm25_term_weight(tf, df, doc_len, avg_len, n_docs, k1: float = K1, b: float = B):
    """Okapi BM25 contribution of one term occurring tf times in a document.

    Every argument may be a scalar or an array (they broadcast); the result
    is an array, zero where tf <= 0.
    """
    tf = np.asarray(tf, dtype=np.float64)
    weight = bm25_weight(bm25_idf(df, n_docs), tf, bm25_length_norm(doc_len, avg_len, k1, b), k1)
    return np.where(tf > 0, weight, 0.0)


@dataclass(eq=False)
class InvertedIndex:
    """CSR postings over the docs ``doc_ids`` (sorted; a doc's key is its
    position). Doc lengths, the average length, the per-posting BM25 weights
    and the id -> key map are derived from the postings."""

    doc_ids: list[str]
    tokens: np.ndarray   # int64 [n_tokens], strictly increasing
    offsets: np.ndarray  # int64 [n_tokens + 1]
    keys: np.ndarray     # int64 [n_postings]
    tfs: np.ndarray      # int64 [n_postings]
    doc_lengths: np.ndarray = field(init=False)
    avg_len: float = field(init=False)
    weights: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        n_docs = len(self.doc_ids)
        self.doc_lengths = np.bincount(self.keys, weights=self.tfs, minlength=n_docs).astype(np.int64)
        self.avg_len = int(self.doc_lengths.sum()) / n_docs
        # idf depends on a token's df alone and the length normalisation on a
        # doc's length alone: each is computed once per token or doc, then
        # repeated over the postings. Every indexed tf is at least 1.
        df = np.diff(self.offsets)
        # avg_len is 0 only in an index without postings, which has no weights
        norm = bm25_length_norm(self.doc_lengths, self.avg_len) if self.avg_len else self.doc_lengths
        self.weights = bm25_weight(
            np.repeat(bm25_idf(df, n_docs), df), self.tfs.astype(np.float64), norm[self.keys]
        )

    @cached_property
    def doc_keys(self) -> dict[str, int]:
        """doc id -> key, built on first use."""
        return {doc_id: key for key, doc_id in enumerate(self.doc_ids)}

    @property
    def n_docs(self) -> int:
        return len(self.doc_ids)

    def _postings(self, toks) -> tuple[np.ndarray, np.ndarray]:
        """(start, count) of every token id's postings in ``keys``/``tfs``/
        ``weights``, both shaped like ``toks``; count 0 for a token not
        indexed. One ``searchsorted`` for all of them."""
        toks = np.asarray(toks)
        if not len(self.tokens):
            return np.zeros(toks.shape, dtype=np.int64), np.zeros(toks.shape, dtype=np.int64)
        rows = np.minimum(np.searchsorted(self.tokens, toks), len(self.tokens) - 1)
        hit = self.tokens[rows] == toks
        starts = self.offsets[rows]
        return starts, np.where(hit, self.offsets[rows + 1] - starts, 0)

    def doc_freq(self, toks) -> np.ndarray:
        """Document frequency of every token id in ``toks`` (any shape): its
        posting count, 0 for a token not indexed."""
        return self._postings(toks)[1]

    def span(self, tok: int) -> slice:
        """Where ``tok``'s postings sit in ``keys``/``tfs``/``weights``;
        empty when the token is not indexed."""
        row = int(np.searchsorted(self.tokens, tok))
        if row < len(self.tokens) and self.tokens[row] == tok:
            return slice(int(self.offsets[row]), int(self.offsets[row + 1]))
        return slice(0, 0)


def build_index(docs: dict[str, TokenSequence]) -> InvertedIndex:
    """Deterministic index build; docs are keyed in sorted-id order."""
    if not docs:
        raise ValueError("cannot index an empty corpus")
    doc_ids = sorted(docs)
    n_docs = len(doc_ids)
    id_lists = [docs[doc_id].ids for doc_id in doc_ids]
    lengths = list(map(len, id_lists))
    flat = np.fromiter(chain.from_iterable(id_lists), dtype=np.int64, count=sum(lengths))
    if flat.size and (flat.min() < 0 or flat.max() >= 2**32):
        raise ValueError("token ids must lie in [0, 2**32)")
    # one code per (token, doc key) pair; sorting the codes orders postings
    # by token, then by key. Both factors are below 2**32, so uint64 holds it.
    n = np.uint64(n_docs)
    codes = flat.astype(np.uint64) * n + np.repeat(np.arange(n_docs, dtype=np.uint64), lengths)
    pairs, tfs = np.unique(codes, return_counts=True)
    token_of = pairs // n
    keys = (pairs - token_of * n).astype(np.int64)
    # a token's postings start where the sorted token column changes
    first = np.ones(len(token_of), dtype=bool)
    first[1:] = token_of[1:] != token_of[:-1]
    starts = np.flatnonzero(first)
    tokens = token_of[starts].astype(np.int64)
    offsets = np.append(starts, len(pairs)).astype(np.int64)
    return InvertedIndex(doc_ids, tokens, offsets, keys, tfs.astype(np.int64))


@dataclass
class UserQuery:
    """Weighted keyword bag for one user, deduplicated with weights summed."""

    keywords: list[tuple[int, float]]
    user_embedding: np.ndarray | None = None

    @classmethod
    def from_pairs(
        cls, pairs: list[tuple[int, float]], user_embedding: np.ndarray | None = None
    ) -> "UserQuery":
        merged: dict[int, float] = {}
        for tok, w in pairs:
            if not (w > 0 and math.isfinite(w)):
                raise ValueError(f"keyword weights must be positive and finite, got {w}")
            merged[tok] = merged.get(tok, 0.0) + w
        keywords = sorted(merged.items())
        return cls(keywords=keywords, user_embedding=user_embedding)


def bm25_score(index: InvertedIndex, query: UserQuery, doc_id: str) -> float:
    """Weighted BM25 of one document for the query's keyword bag. It adds the
    same per-posting weights in the same order as ``sparse_scores``, so the
    two agree bit for bit."""
    key = index.doc_keys[doc_id]
    score = 0.0
    for tok, w in query.keywords:
        span = index.span(tok)
        pos = span.start + int(np.searchsorted(index.keys[span], key))
        if pos < span.stop and index.keys[pos] == key:
            score += w * index.weights[pos]
    return float(score)


def sparse_scores(index: InvertedIndex, query: UserQuery) -> tuple[np.ndarray, np.ndarray]:
    """(doc keys, BM25 scores) of every doc holding a query keyword, keys
    ascending. Every keyword's postings are gathered into one array in
    keyword order, and one weighted ``bincount`` adds each doc's
    contributions in that order from 0.0: the additions of a term-at-a-time
    loop, so the scores are the same bits."""
    toks = np.array([tok for tok, _ in query.keywords], dtype=np.int64)
    w = np.array([w for _, w in query.keywords], dtype=np.float64)
    starts, counts = index._postings(toks)
    # posting j of keyword i sits at starts[i] + j; its place in the gathered
    # array is ends[i] - counts[i] + j
    ends = np.cumsum(counts)
    pos = np.arange(counts.sum()) + np.repeat(starts - ends + counts, counts)
    keys = index.keys[pos]
    weights = np.repeat(w, counts) * index.weights[pos]
    # bincount of no keys counts in int64 even when given weights
    score = np.bincount(keys, weights=weights, minlength=index.n_docs).astype(np.float64, copy=False)
    touched = np.zeros(index.n_docs, dtype=bool)
    touched[keys] = True
    cands = np.flatnonzero(touched)
    return cands, score[cands]


def recall_sparse(index: InvertedIndex, query: UserQuery, n: int) -> list[str]:
    """Exact BM25 top-n over the union of the query terms' postings; ties
    broken by doc id."""
    if n < 1:
        raise ValueError("n must be >= 1")
    keys, scores = sparse_scores(index, query)
    # keep every doc at least as good as the n-th best, so ties at the cut
    # survive, then order only those by (-score, doc key)
    neg = -scores
    if n < len(keys):
        keep = np.flatnonzero(neg <= np.partition(neg, n - 1)[n - 1])
        keys, neg = keys[keep], neg[keep]
    return [index.doc_ids[key] for key in keys[np.lexsort((keys, neg))[:n]]]


def recall_dense(
    user_embedding: np.ndarray, doc_embeddings: dict[str, np.ndarray], n: int
) -> list[str]:
    """Exact top-n by scaled inner product; ties broken by doc id. A score
    that is not finite (from the user embedding or a doc's) raises."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if not doc_embeddings:
        return []
    d = user_embedding.shape[0]
    doc_ids = list(doc_embeddings)
    try:
        matrix = np.array(list(doc_embeddings.values()))
    except ValueError:  # ragged rows
        matrix = None
    if matrix is None or matrix.shape != (len(doc_ids), d):
        doc_id = next(i for i in sorted(doc_ids) if np.shape(doc_embeddings[i]) != (d,))
        shape = np.shape(doc_embeddings[doc_id])
        raise ValueError(f"embedding dim mismatch: user {d} vs doc {doc_id} shape {shape}")
    # vecdot takes one dot product per row, so equal rows score equally
    # (a BLAS matrix-vector product may round them differently)
    scores = np.vecdot(matrix, user_embedding) * (1.0 / math.sqrt(d))
    finite = np.isfinite(scores)
    if not finite.all():
        doc_id = min(doc_ids[j] for j in np.flatnonzero(~finite))
        raise ValueError(f"dense score of doc {doc_id} is not finite")
    # keep every row at least as good as the n-th best, so ties at the cut
    # survive, then order only those by (-score, doc id)
    neg = -scores
    if n < len(doc_ids):
        keep = np.flatnonzero(neg <= np.partition(neg, n - 1)[n - 1])
        neg, doc_ids = neg[keep], [doc_ids[j] for j in keep.tolist()]
    ranked = sorted(zip(neg.tolist(), doc_ids))
    return [doc_id for _, doc_id in ranked[:n]]


def recall_hybrid(
    index: InvertedIndex,
    query: UserQuery,
    doc_embeddings: dict[str, np.ndarray],
    n_sparse: int,
    n: int,
) -> list[str]:
    """Sparse top-n_sparse, densely re-ranked, truncated to n. A shortlisted
    doc without an entry in ``doc_embeddings`` raises."""
    if n > n_sparse:
        raise ValueError(f"n ({n}) must be <= n_sparse ({n_sparse})")
    if query.user_embedding is None:
        raise ValueError("hybrid recall needs a user embedding on the query")
    shortlist = recall_sparse(index, query, n_sparse)
    try:
        subset = {doc_id: doc_embeddings[doc_id] for doc_id in shortlist}
    except KeyError as e:
        raise ValueError(f"no embedding for doc {e.args[0]} on the sparse shortlist") from None
    if not subset:
        return []
    return recall_dense(query.user_embedding, subset, min(n, len(subset)))


def recall_at_k(results: list[str], relevant: set[str], k: int) -> float:
    """|top-k hits| / |relevant|; undefined (raises) for an empty relevant set."""
    if not relevant:
        raise ValueError("recall undefined for an empty relevant set")
    return len(set(results[:k]) & set(relevant)) / len(relevant)


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------

def save_index(index: InvertedIndex, path) -> None:
    """Write ``index`` in the version-2 layout of the module docstring."""
    text = "".join(index.doc_ids)
    blob = text.encode("utf-8")
    # pure ASCII encodes one character to one byte, so an id's length in
    # characters is its length in bytes
    id_lens = map(len, index.doc_ids) if len(blob) == len(text) else (
        len(doc_id.encode("utf-8")) for doc_id in index.doc_ids
    )
    parts = [
        HEADER.pack(MAGIC, VERSION, index.n_docs, len(index.tokens), len(index.keys), len(blob)),
        index.offsets.astype("<i8").tobytes(),
        index.tokens.astype("<u4").tobytes(),
        index.keys.astype("<u4").tobytes(),
        index.tfs.astype("<u4").tobytes(),
        np.fromiter(id_lens, dtype="<u4", count=index.n_docs).tobytes(),
        blob,
    ]
    Path(path).write_bytes(b"".join(parts))


def load_index(path) -> InvertedIndex:
    """Read a version-2 index file. Every size, offset, key and id is checked
    against the file before use; a bad file raises ValueError naming it."""
    buf = Path(path).read_bytes()

    def bad(why: str) -> ValueError:
        return ValueError(f"corrupt index file {path}: {why}")

    if buf[:4] != MAGIC:
        raise ValueError(f"not an index file: {path}")
    if len(buf) < 8:
        raise bad("truncated header")
    (version,) = struct.unpack_from("<I", buf, 4)
    if version != VERSION:
        raise ValueError(f"unsupported index version {version} in {path} (expected {VERSION})")
    if len(buf) < HEADER.size:
        raise bad("truncated header")
    _, _, n_docs, n_tokens, n_postings, id_bytes = HEADER.unpack_from(buf)
    sections = [
        ("<i8", n_tokens + 1), ("<u4", n_tokens), ("<u4", n_postings),
        ("<u4", n_postings), ("<u4", n_docs),
    ]
    size = HEADER.size + sum(np.dtype(dt).itemsize * count for dt, count in sections) + id_bytes
    if len(buf) < size:
        raise bad(f"truncated: {len(buf)} bytes, the header needs {size}")
    if len(buf) > size:
        raise bad(f"{len(buf) - size} trailing bytes after {size}")
    if n_docs == 0:
        raise bad("no documents")

    arrays, off = [], HEADER.size
    for dt, count in sections:
        arrays.append(np.frombuffer(buf, dtype=dt, count=count, offset=off).astype(np.int64))
        off += np.dtype(dt).itemsize * count
    offsets, tokens, keys, tfs, id_lens = arrays

    if offsets[0] != 0 or offsets[-1] != n_postings:
        raise bad(f"offsets must run from 0 to {n_postings}")
    if np.any(np.diff(offsets) <= 0):
        raise bad("offsets are not strictly increasing")
    if np.any(np.diff(tokens) <= 0):
        raise bad("token ids are not strictly increasing")
    if n_postings and keys.max() >= n_docs:
        raise bad(f"doc key {int(keys.max())} out of range for {n_docs} docs")
    within = np.ones(max(n_postings - 1, 0), dtype=bool)
    within[offsets[1:-1] - 1] = False  # a token's first key may be below the last one's
    if np.any(np.diff(keys)[within] <= 0):
        raise bad("doc keys are not strictly increasing within a token")
    if np.any(tfs < 1):
        raise bad("term frequency below 1")
    if int(id_lens.sum()) != id_bytes:
        raise bad(f"doc id lengths sum to {int(id_lens.sum())}, the header says {id_bytes}")

    ends = np.cumsum(id_lens).tolist()
    bounds = list(zip([0] + ends, ends))
    try:
        # the ids section ends the file. Pure ASCII decodes one byte to one
        # character, so its byte offsets slice the decoded text; otherwise
        # each id decodes on its own, which also catches a character split
        # across two ids
        text = buf[off:].decode("utf-8")
        if len(text) == id_bytes:
            doc_ids = [text[a:b] for a, b in bounds]
        else:
            doc_ids = [buf[off + a:off + b].decode("utf-8") for a, b in bounds]
    except UnicodeDecodeError as e:
        raise bad(f"doc id is not utf-8 ({e.reason})") from None
    if any(map(str.__ge__, doc_ids, doc_ids[1:])):
        raise bad("doc ids are not strictly increasing")
    return InvertedIndex(doc_ids, tokens, offsets, keys, tfs)
