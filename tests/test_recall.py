import math
import re
import struct

import numpy as np
import pytest

from gateformer.recall import (
    HEADER,
    MAGIC,
    UserQuery,
    bm25_score,
    bm25_term_weight,
    build_index,
    load_index,
    recall_at_k,
    recall_dense,
    recall_hybrid,
    recall_sparse,
    save_index,
    sparse_scores,
)
from gateformer.text import TokenSequence
from oracles import (
    bm25_oracle,
    bm25_rank_oracle,
    build_index_oracle,
    dense_rank_oracle,
    postings_oracle,
    recall_at_k_oracle,
    sparse_scores_oracle,
)


def seq_of(ids):
    return TokenSequence(list(ids), list(range(len(ids))), [0] * len(ids))


def random_docs(rng, n_docs, vocab=40, min_len=3, max_len=12):
    return {
        f"D{i:03d}": seq_of(rng.integers(1, vocab, size=rng.integers(min_len, max_len)).tolist())
        for i in range(n_docs)
    }


def with_duplicates(rng, docs, n_dup):
    """``docs`` plus copies of random docs under new ids, so scores tie."""
    out = dict(docs)
    for j, src in enumerate(rng.choice(sorted(docs), size=n_dup)):
        out[f"X{j:03d}"] = docs[src]
    return out


def duplicate_rows(n_docs, d):
    """Docs sharing a few embeddings, each in its own array: equal embeddings
    must score equally wherever their rows sit, so ties break by id."""
    rng = np.random.default_rng(300 + n_docs)
    bases = rng.normal(size=(n_docs // 4 + 1, d))
    embs = {f"D{i:04d}": bases[rng.integers(len(bases))].copy() for i in range(n_docs)}
    return rng.normal(size=d), embs, (1, 10, n_docs, n_docs + 3)


def tie_across_cut():
    """Scores 3, 3, 3, then six docs tied at 2 from distinct rows, then 1, 1,
    under shuffled ids; every n from 1 to past the doc count puts the n-th
    place before, at either edge of, inside and after the tied run."""
    scores = [3, 3, 3, 2, 2, 2, 2, 2, 2, 1, 1]
    ids = np.random.default_rng(9).permutation(len(scores)).tolist()
    embs = {f"T{j:02d}": np.array([float(s), float(j)]) for s, j in zip(scores, ids)}
    return np.array([1.0, 0.0]), embs, range(1, len(scores) + 3)


def signed_zero_scores():
    """Docs scoring zero from -0.0 and 0.0 entries, between positive and
    negative scores: -0.0 and 0.0 tie and break by id."""
    rows = [[-0.0, 0.0], [1.0, 2.0], [0.0, -0.0], [-1.0, 5.0], [0.0, 3.0], [-0.0, -0.0], [2.0, -1.0]]
    embs = {f"Z{i}": np.array(row) for i, row in enumerate(rows)}
    return np.array([1.0, -0.0]), embs, range(1, len(rows) + 2)


def zero_user():
    """A user embedding of -0.0: every score is zero, so the ranking is id order."""
    rng = np.random.default_rng(10)
    embs = {f"U{i:02d}": rng.normal(size=4) for i in rng.permutation(30)}
    return np.full(4, -0.0), embs, (1, 7, 30)


def oracle_corpus(seed):
    """Random docs with empty docs, repeated tokens, the token ids 0 and
    2**32 - 1 and non-ASCII doc ids."""
    rng = np.random.default_rng(seed)
    vocab = np.array([0, 1, 2, 5, 9, 2**31, 2**32 - 2, 2**32 - 1])
    prefixes = ["D", "é", "ß", "文", "z"]
    return {
        f"{prefixes[i % len(prefixes)]}{i:02d}": seq_of(rng.choice(vocab, size=rng.integers(0, 10)).tolist())
        for i in range(int(rng.integers(1, 30)))
    }


ORACLE_CORPORA = [oracle_corpus(seed) for seed in range(6)] + [{"é": seq_of([]), "a": seq_of([])}]


def assert_same_index(got, want):
    """Field-by-field equality, the weights compared through their int64 bits."""
    assert got.doc_ids == want.doc_ids and got.doc_keys == want.doc_keys
    assert got.avg_len == want.avg_len
    for name in ("tokens", "offsets", "keys", "tfs", "doc_lengths", "weights"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and np.array_equal(a.view(np.int64), b.view(np.int64)), name


def csr_postings(idx):
    """token -> [(doc key, tf)] read back from the CSR arrays."""
    return {
        int(tok): list(zip(idx.keys[s:e].tolist(), idx.tfs[s:e].tolist()))
        for tok, s, e in zip(idx.tokens, idx.offsets[:-1], idx.offsets[1:])
    }


class TestBuildIndex:
    def test_single_doc_single_token(self):
        idx = build_index({"D1": seq_of([7])})
        assert idx.tokens.tolist() == [7]
        assert idx.offsets.tolist() == [0, 1]
        assert idx.keys.tolist() == [0]
        assert idx.tfs.tolist() == [1]
        assert idx.doc_lengths.tolist() == [1]
        assert idx.avg_len == 1.0

    def test_absent_token_has_no_postings(self):
        idx = build_index({"D1": seq_of([7, 8])})
        assert 99 not in idx.tokens
        assert idx.keys[idx.span(99)].size == 0

    def test_three_doc_fixture_matches_hand_postings(self):
        idx = build_index({
            "A": seq_of([3, 3, 4]),
            "B": seq_of([4, 5]),
            "C": seq_of([5, 5, 5, 6]),
        })
        assert idx.doc_ids == ["A", "B", "C"]
        assert idx.tokens.tolist() == [3, 4, 5, 6]
        assert idx.offsets.tolist() == [0, 1, 3, 5, 6]
        assert idx.keys.tolist() == [0, 0, 1, 1, 2, 2]
        assert idx.tfs.tolist() == [2, 1, 1, 1, 3, 1]
        assert csr_postings(idx) == {
            3: [(0, 2)], 4: [(0, 1), (1, 1)], 5: [(1, 1), (2, 3)], 6: [(2, 1)],
        }
        assert idx.tfs[idx.span(5)].tolist() == [1, 3]
        assert idx.doc_lengths.tolist() == [3, 2, 4]
        assert idx.avg_len == 3.0
        assert idx.doc_keys == {"A": 0, "B": 1, "C": 2}

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError):
            build_index({})

    def test_postings_sorted_no_duplicates(self):
        rng = np.random.default_rng(0)
        idx = build_index(random_docs(rng, 30))
        assert np.all(np.diff(idx.tokens) > 0)
        for plist in csr_postings(idx).values():
            keys = [k for k, _ in plist]
            assert keys == sorted(set(keys))

    @pytest.mark.parametrize("n_docs", [1, 9, 120])
    def test_matches_postings_oracle(self, n_docs):
        rng = np.random.default_rng(n_docs)
        docs = random_docs(rng, n_docs, min_len=0)
        idx = build_index(docs)
        assert csr_postings(idx) == postings_oracle({d: s.ids for d, s in docs.items()})
        assert idx.doc_lengths.tolist() == [len(docs[d]) for d in sorted(docs)]
        assert idx.avg_len == sum(len(s) for s in docs.values()) / n_docs

    def test_all_empty_docs_index_nothing(self):
        idx = build_index({"A": seq_of([]), "B": seq_of([])})
        assert idx.tokens.size == 0 and idx.offsets.tolist() == [0]
        assert recall_sparse(idx, UserQuery.from_pairs([(3, 1.0)]), 5) == []

    def test_weights_are_the_scalar_formula(self):
        rng = np.random.default_rng(11)
        idx = build_index(random_docs(rng, 25))
        for s, e in zip(idx.offsets[:-1], idx.offsets[1:]):
            for pos in range(s, e):
                key = idx.keys[pos]
                assert idx.weights[pos] == bm25_term_weight(
                    int(idx.tfs[pos]), int(e - s), int(idx.doc_lengths[key]),
                    idx.avg_len, idx.n_docs,
                )

    @pytest.mark.parametrize("docs", ORACLE_CORPORA)
    def test_every_field_matches_counter_oracle(self, docs):
        idx = build_index(docs)
        want = build_index_oracle({doc_id: seq.ids for doc_id, seq in docs.items()})
        for name in ("tokens", "offsets", "keys", "tfs", "doc_lengths"):
            got = getattr(idx, name)
            assert got.dtype == np.int64 and got.tolist() == want[name], name
        weights = np.array(want["weights"], dtype=np.float64)
        assert idx.weights.view(np.int64).tolist() == weights.view(np.int64).tolist()
        assert idx.doc_ids == want["doc_ids"] and idx.avg_len == want["avg_len"]
        assert idx.doc_keys == want["doc_keys"]

    def test_doc_keys_built_on_first_use(self):
        idx = build_index({"b": seq_of([1]), "é": seq_of([2, 2]), "a": seq_of([])})
        assert "doc_keys" not in vars(idx)
        assert idx.doc_keys == {"a": 0, "b": 1, "é": 2}
        assert idx.doc_keys is idx.doc_keys
        q = UserQuery.from_pairs([(2, 1.0)])
        assert bm25_score(idx, q, "é") == sparse_scores(idx, q)[1][0] > 0

    def test_negative_token_id_rejected(self):
        with pytest.raises(ValueError, match="token ids"):
            build_index({"A": seq_of([3, -1])})


class TestIndexStats:
    """The index as the bm25 selector's corpus statistics."""

    def test_counts(self):
        a, b = 1, 2
        idx = build_index({"N1": seq_of([a, b]), "N2": seq_of([a, a])})
        assert idx.n_docs == 2
        assert idx.avg_len == 2.0
        assert idx.doc_freq(a) == 2
        assert idx.doc_freq(b) == 1

    @pytest.mark.parametrize("n_docs", [1, 9, 120])
    def test_doc_freq_matches_counted_docs_and_spans(self, n_docs):
        rng = np.random.default_rng(40 + n_docs)
        docs = random_docs(rng, n_docs, min_len=0)
        idx = build_index(docs)
        # every indexed token, tokens below, between and past them, in a 2-d shape
        toks = np.arange(-3, 48).reshape(3, 17)
        counted = [[sum(t in s.ids for s in docs.values()) for t in row] for row in toks.tolist()]
        df = idx.doc_freq(toks)
        assert df.shape == toks.shape
        assert df.tolist() == counted
        assert df.ravel().tolist() == [
            idx.span(t).stop - idx.span(t).start for t in toks.ravel().tolist()
        ]

    def test_doc_freq_of_an_index_without_tokens_is_zero(self):
        idx = build_index({"A": seq_of([]), "B": seq_of([])})
        assert idx.doc_freq(np.array([[0, 3], [7, 9]])).tolist() == [[0, 0], [0, 0]]


class TestBm25Score:
    def test_absent_query_term_contributes_zero(self):
        idx = build_index({"A": seq_of([3, 4])})
        q = UserQuery.from_pairs([(9, 1.0)])
        assert bm25_score(idx, q, "A") == 0.0

    def test_single_doc_single_term_hand_value(self):
        idx = build_index({"A": seq_of([3, 3, 4])})
        q = UserQuery.from_pairs([(3, 2.0)])
        idf = math.log((1 - 1 + 0.5) / (1 + 0.5) + 1.0)
        expected = 2.0 * idf * 2 * 2.2 / (2 + 1.2 * (1 - 0.75 + 0.75 * 3 / 3))
        assert bm25_score(idx, q, "A") == pytest.approx(expected, abs=1e-12)

    def test_matches_brute_force_on_20_docs(self):
        rng = np.random.default_rng(1)
        docs = random_docs(rng, 20)
        idx = build_index(docs)
        all_terms = [list(seq.ids) for _, seq in sorted(docs.items())]
        pairs = [(int(t), float(w)) for t, w in zip(rng.integers(1, 40, 6), rng.uniform(0.5, 2, 6))]
        q = UserQuery.from_pairs(pairs)
        for doc_id, seq in docs.items():
            expected = bm25_oracle(q.keywords, list(seq.ids), all_terms)
            assert bm25_score(idx, q, doc_id) == pytest.approx(expected, abs=1e-10)

    def test_unknown_doc_rejected(self):
        idx = build_index({"A": seq_of([3])})
        with pytest.raises(KeyError):
            bm25_score(idx, UserQuery.from_pairs([(3, 1.0)]), "Z")

    @pytest.mark.parametrize("n_docs", [5, 40, 200])
    def test_equals_sparse_scores_bit_for_bit(self, n_docs):
        rng = np.random.default_rng(100 + n_docs)
        docs = with_duplicates(rng, random_docs(rng, n_docs), n_docs // 4 + 1)
        idx = build_index(docs)
        pairs = [(int(t), float(w)) for t, w in zip(rng.integers(1, 40, 9), rng.uniform(0.1, 3, 9))]
        q = UserQuery.from_pairs(pairs)
        keys, scores = sparse_scores(idx, q)
        got = dict(zip(keys.tolist(), scores.tolist()))
        for key, doc_id in enumerate(idx.doc_ids):
            assert bm25_score(idx, q, doc_id) == got.get(key, 0.0)


def same_scores(got, want):
    """Equal keys, and scores equal bit for bit (so -0.0 != 0.0 and NaN
    matches only the same NaN)."""
    (got_keys, got_scores), (want_keys, want_scores) = got, want
    return (
        np.array_equal(got_keys, want_keys)
        and got_scores.dtype == want_scores.dtype == np.float64
        and np.array_equal(got_scores.view(np.int64), want_scores.view(np.int64))
    )


class TestSparseScores:
    @pytest.mark.parametrize("n_docs", [1, 6, 50, 300])
    def test_matches_term_at_a_time_oracle_on_random_corpora(self, n_docs):
        rng = np.random.default_rng(500 + n_docs)
        docs = with_duplicates(rng, random_docs(rng, n_docs, min_len=0), n_docs // 3 + 1)
        idx = build_index(docs)
        for _ in range(8):
            # tokens 0 and 40-44 are never indexed (random_docs draws 1-39)
            toks = rng.integers(0, 45, size=rng.integers(1, 20)).tolist()
            pairs = [(t, float(w)) for t, w in zip(toks, rng.uniform(0.05, 3.0, len(toks)))]
            q = UserQuery.from_pairs(pairs)
            assert same_scores(sparse_scores(idx, q), sparse_scores_oracle(idx, q))

    def test_hand_built_query_keeps_its_order_and_repeats(self):
        # not from from_pairs: keywords unsorted, token 7 twice; each keyword
        # adds its postings in the query's order, as the oracle does
        rng = np.random.default_rng(11)
        idx = build_index(with_duplicates(rng, random_docs(rng, 60, vocab=12), 10))
        q = UserQuery(keywords=[(7, 0.3), (3, 1.1), (9, 0.7), (7, 0.9), (5, 0.2), (3, 1e-3)])
        assert same_scores(sparse_scores(idx, q), sparse_scores_oracle(idx, q))

    def test_tokens_not_indexed(self):
        idx = build_index({"A": seq_of([3, 5, 5]), "B": seq_of([5, 9]), "C": seq_of([9, 3])})
        # below, between and above the indexed ids 3, 5 and 9
        missing = UserQuery.from_pairs([(0, 1.0), (4, 1.0), (7, 2.0), (10, 1.0), (2**40, 1.0)])
        keys, scores = sparse_scores(idx, missing)
        assert keys.tolist() == [] and scores.tolist() == []
        mixed = UserQuery.from_pairs([(0, 1.0), (4, 0.5), (5, 1.0), (7, 2.0), (12, 1.0)])
        got = sparse_scores(idx, mixed)
        assert got[0].tolist() == [0, 1]
        assert same_scores(got, sparse_scores_oracle(idx, mixed))

    def test_empty_keyword_list(self):
        idx = build_index({"A": seq_of([3]), "B": seq_of([4])})
        keys, scores = sparse_scores(idx, UserQuery(keywords=[]))
        assert keys.shape == scores.shape == (0,)
        assert recall_sparse(idx, UserQuery(keywords=[]), 5) == []

    def test_index_of_empty_docs(self):
        idx = build_index({"A": seq_of([]), "B": seq_of([])})
        q = UserQuery.from_pairs([(0, 1.0), (3, 2.0)])
        keys, scores = sparse_scores(idx, q)
        assert keys.shape == scores.shape == (0,)
        assert recall_sparse(idx, q, 5) == []


class TestRecallSparse:
    def test_n_larger_than_candidates_returns_all(self):
        idx = build_index({"A": seq_of([3]), "B": seq_of([3]), "C": seq_of([9])})
        got = recall_sparse(idx, UserQuery.from_pairs([(3, 1.0)]), 10)
        assert sorted(got) == ["A", "B"]

    def test_disjoint_vocab_returns_empty(self):
        idx = build_index({"A": seq_of([3])})
        assert recall_sparse(idx, UserQuery.from_pairs([(99, 1.0)]), 5) == []

    def test_matches_exhaustive_oracle_on_100_docs(self):
        rng = np.random.default_rng(2)
        docs = random_docs(rng, 100)
        idx = build_index(docs)
        pairs = [(int(t), float(w)) for t, w in zip(rng.integers(1, 40, 8), rng.uniform(0.5, 2, 8))]
        q = UserQuery.from_pairs(pairs)
        got = recall_sparse(idx, q, 15)
        # exhaustive: score every doc, drop zero-candidates not matching any term
        q_tokens = {t for t, _ in q.keywords}
        cands = [d for d in sorted(docs) if q_tokens & set(docs[d].ids)]
        ranked = sorted(cands, key=lambda d: (-bm25_score(idx, q, d), d))
        assert got == ranked[:15]

    def test_repeat_queries_identical(self):
        rng = np.random.default_rng(3)
        idx = build_index(random_docs(rng, 50))
        q = UserQuery.from_pairs([(5, 1.0), (7, 0.5)])
        assert recall_sparse(idx, q, 10) == recall_sparse(idx, q, 10)

    @pytest.mark.parametrize("n_docs", [1, 6, 50, 300])
    def test_matches_rank_oracle_on_random_corpora(self, n_docs):
        rng = np.random.default_rng(200 + n_docs)
        docs = with_duplicates(rng, random_docs(rng, n_docs, vocab=30), n_docs // 3 + 1)
        idx = build_index(docs)
        terms = {d: list(s.ids) for d, s in docs.items()}
        for _ in range(5):
            # repeated tokens: their weights are summed into one keyword
            toks = rng.integers(1, 34, size=10).tolist()
            toks += toks[:3]
            pairs = [(t, float(w)) for t, w in zip(toks, rng.uniform(0.05, 2.0, len(toks)))]
            q = UserQuery.from_pairs(pairs)
            for n in (1, 7, len(docs) + 5):
                assert recall_sparse(idx, q, n) == bm25_rank_oracle(terms, pairs, n)

    def test_ties_across_the_cut_match_rank_oracle(self):
        # 3 docs tied at the top, 6 tied below them, 2 below those and 3 that
        # hold no query token, under shuffled ids; every n from 1 to past the
        # 11 touched docs puts the n-th place before, at either edge of,
        # inside and after a tied run
        items = [[3, 4, 4]] * 3 + [[3, 5]] * 6 + [[3, 6, 6, 6]] * 2 + [[7, 8]] * 3
        names = np.random.default_rng(9).permutation(len(items)).tolist()
        docs = {f"T{j:02d}": seq_of(ids) for j, ids in zip(names, items)}
        idx = build_index(docs)
        terms = {d: list(s.ids) for d, s in docs.items()}
        pairs = [(3, 1.0), (4, 1.0)]
        q = UserQuery.from_pairs(pairs)
        for n in range(1, 14):
            assert recall_sparse(idx, q, n) == bm25_rank_oracle(terms, pairs, n)
        assert len(recall_sparse(idx, q, 13)) == 11

    def test_duplicate_docs_tie_broken_by_id(self):
        idx = build_index({"C": seq_of([3, 4]), "A": seq_of([3, 4]), "B": seq_of([3, 9])})
        assert recall_sparse(idx, UserQuery.from_pairs([(3, 1.0), (4, 1.0)]), 3) == ["A", "C", "B"]

    def test_nonpositive_n_rejected(self):
        idx = build_index({"A": seq_of([3])})
        with pytest.raises(ValueError):
            recall_sparse(idx, UserQuery.from_pairs([(3, 1.0)]), 0)


class TestRecallDense:
    def test_n1_returns_argmax(self):
        embs = {"A": np.array([1.0, 0.0]), "B": np.array([0.0, 2.0])}
        assert recall_dense(np.array([0.0, 1.0]), embs, 1) == ["B"]

    def test_identical_embeddings_tiebreak_by_id(self):
        e = np.array([1.0, 1.0])
        embs = {f"D{i}": e for i in range(5)}
        assert recall_dense(e, embs, 3) == ["D0", "D1", "D2"]

    def test_matches_full_sort_oracle_on_200_docs(self):
        rng = np.random.default_rng(4)
        embs = {f"D{i:03d}": rng.normal(size=8) for i in range(200)}
        u = rng.normal(size=8)
        got = recall_dense(u, embs, 25)
        ranked = sorted(embs, key=lambda d: (-(u @ embs[d]) / math.sqrt(8), d))
        assert got == ranked[:25]

    def test_dim_mismatch_rejected(self):
        with pytest.raises(ValueError, match="dim"):
            recall_dense(np.zeros(3), {"A": np.zeros(4)}, 1)
        with pytest.raises(ValueError, match="dim"):
            recall_dense(np.zeros(3), {"A": np.zeros(3), "B": np.zeros(2)}, 1)
        with pytest.raises(ValueError, match="dim"):
            recall_dense(np.zeros(3), {"A": np.zeros(())}, 1)
        # a bad row must not slip through when the sizes still add up to n * d
        for bad in (np.zeros(4), np.zeros((1, 3))):
            with pytest.raises(ValueError, match="doc B shape"):
                recall_dense(np.zeros(3), {"A": np.zeros(3), "B": bad, "C": np.zeros(3)}, 1)
        with pytest.raises(ValueError, match="doc B shape"):
            recall_dense(np.zeros(3), {"A": np.zeros(3), "B": np.zeros(4), "C": np.zeros(2)}, 1)

    def test_no_docs_returns_empty(self):
        assert recall_dense(np.zeros(3), {}, 5) == []

    @pytest.mark.parametrize("case", [
        pytest.param(lambda: duplicate_rows(n_docs, d), id=f"{n_docs}-{d}")
        for n_docs, d in [(1, 4), (7, 33), (13, 64), (101, 16), (2051, 33)]
    ] + [
        pytest.param(tie_across_cut, id="tie-across-cut"),
        pytest.param(signed_zero_scores, id="signed-zero-scores"),
        pytest.param(zero_user, id="zero-user"),
    ])
    def test_matches_sorted_loop_oracle_with_duplicates(self, case):
        u, embs, ns = case()
        ids = list(embs)
        perm = np.random.default_rng(len(ids)).permutation(len(ids)).tolist()
        # the ranking must not depend on the dict's insertion order
        for order in (ids, ids[::-1], [ids[j] for j in perm]):
            shuffled = {doc_id: embs[doc_id] for doc_id in order}
            for n in ns:
                assert recall_dense(u, shuffled, n) == dense_rank_oracle(u, embs, n)

    @pytest.mark.parametrize("u,bad,first", [
        pytest.param(np.array([np.nan, 1.0]), 1.0, "A", id="nan-user"),
        pytest.param(np.ones(2), np.nan, "B2", id="nan-doc"),
        pytest.param(np.ones(2), np.inf, "B2", id="inf-doc"),
        pytest.param(np.ones(2), -np.inf, "B2", id="neg-inf-doc"),
    ])
    def test_nonfinite_score_rejected(self, u, bad, first):
        # the first bad doc in id order is named, not the first inserted
        embs = {
            "D": np.ones(2), "C": np.array([bad, 0.0]), "A": np.ones(2),
            "B2": np.array([0.0, bad]), "B1": np.ones(2),
        }
        with pytest.raises(ValueError, match=f"doc {first} is not finite"):
            recall_dense(u, embs, 1)


class TestRecallHybrid:
    def make_fixture(self, rng, n=30):
        # every doc contains token 1, so the sparse union covers the corpus
        docs = {
            f"D{i:03d}": seq_of([1] + rng.integers(2, 20, size=5).tolist())
            for i in range(n)
        }
        embs = {d: rng.normal(size=6) for d in docs}
        return docs, embs

    def test_full_sparse_pool_equals_dense(self):
        rng = np.random.default_rng(5)
        docs, embs = self.make_fixture(rng)
        idx = build_index(docs)
        u = rng.normal(size=6)
        q = UserQuery.from_pairs([(1, 1.0)], user_embedding=u)
        hybrid = recall_hybrid(idx, q, embs, n_sparse=len(docs), n=10)
        assert hybrid == recall_dense(u, embs, 10)

    def test_n_equals_n_sparse_is_sparse_set_dense_ordered(self):
        rng = np.random.default_rng(6)
        docs, embs = self.make_fixture(rng)
        idx = build_index(docs)
        u = rng.normal(size=6)
        q = UserQuery.from_pairs([(1, 1.0), (7, 2.0)], user_embedding=u)
        sparse = recall_sparse(idx, q, 8)
        hybrid = recall_hybrid(idx, q, embs, n_sparse=8, n=8)
        assert sorted(hybrid) == sorted(sparse)
        assert hybrid == recall_dense(u, {d: embs[d] for d in sparse}, 8)

    def test_composed_oracle(self):
        rng = np.random.default_rng(7)
        docs, embs = self.make_fixture(rng)
        idx = build_index(docs)
        u = rng.normal(size=6)
        q = UserQuery.from_pairs([(3, 1.5), (1, 0.5)], user_embedding=u)
        got = recall_hybrid(idx, q, embs, n_sparse=12, n=5)
        shortlist = recall_sparse(idx, q, 12)
        reranked = sorted(shortlist, key=lambda d: (-(u @ embs[d]), d))
        assert got == reranked[:5]

    def test_nan_user_embedding_rejected(self):
        rng = np.random.default_rng(12)
        docs, embs = self.make_fixture(rng)
        idx = build_index(docs)
        q = UserQuery.from_pairs([(2, 1.0), (3, 1.0)], user_embedding=np.full(6, np.nan))
        first = min(recall_sparse(idx, q, 10))
        with pytest.raises(ValueError, match=f"doc {first} is not finite"):
            recall_hybrid(idx, q, embs, n_sparse=10, n=5)

    def test_missing_doc_embedding_rejected(self):
        idx = build_index({"A": seq_of([1, 2]), "B": seq_of([2, 3])})
        q = UserQuery.from_pairs([(3, 1.0)], user_embedding=np.zeros(2))
        with pytest.raises(ValueError, match="doc B"):
            recall_hybrid(idx, q, {"A": np.zeros(2)}, n_sparse=2, n=1)

    def test_n_exceeding_n_sparse_rejected(self):
        idx = build_index({"A": seq_of([1])})
        q = UserQuery.from_pairs([(1, 1.0)], user_embedding=np.zeros(2))
        with pytest.raises(ValueError):
            recall_hybrid(idx, q, {"A": np.zeros(2)}, n_sparse=1, n=2)


class TestRecallAtK:
    def test_all_relevant_in_topk(self):
        assert recall_at_k(["A", "B", "C"], {"A", "B"}, 2) == 1.0

    def test_none_in_topk(self):
        assert recall_at_k(["A", "B"], {"C"}, 2) == 0.0

    def test_random_fixture_matches_set_oracle(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            results = [f"D{i}" for i in rng.permutation(20)]
            relevant = {f"D{i}" for i in rng.choice(20, size=5, replace=False)}
            k = int(rng.integers(1, 20))
            assert recall_at_k(results, relevant, k) == recall_at_k_oracle(
                results, relevant, k
            )

    def test_empty_relevant_undefined(self):
        with pytest.raises(ValueError):
            recall_at_k(["A"], set(), 1)


class TestUserQuery:
    def test_duplicates_merge_with_summed_weights(self):
        q = UserQuery.from_pairs([(3, 0.5), (4, 1.0), (3, 0.25)])
        assert q.keywords == [(3, 0.75), (4, 1.0)]

    def test_nonpositive_weight_rejected(self):
        with pytest.raises(ValueError):
            UserQuery.from_pairs([(3, 0.0)])

    @pytest.mark.parametrize(
        "w", [math.nan, math.inf, np.float64(np.nan)], ids=["nan", "inf", "np-nan"]
    )
    def test_nonfinite_weight_rejected(self, w):
        with pytest.raises(ValueError, match="finite"):
            UserQuery.from_pairs([(3, 0.5), (4, w)])


class TestPersistence:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(9)
        idx = build_index(random_docs(rng, 40))
        path = tmp_path / "corpus.idx"
        save_index(idx, path)
        loaded = load_index(path)
        assert loaded.doc_ids == idx.doc_ids
        assert loaded.doc_keys == idx.doc_keys
        assert loaded.avg_len == idx.avg_len
        for name in ("tokens", "offsets", "keys", "tfs", "doc_lengths", "weights"):
            a, b = getattr(loaded, name), getattr(idx, name)
            assert a.dtype == b.dtype and np.array_equal(a, b), name
        assert csr_postings(loaded) == csr_postings(idx)

    def test_queries_identical_after_reload(self, tmp_path):
        rng = np.random.default_rng(10)
        docs = random_docs(rng, 40)
        idx = build_index(docs)
        save_index(idx, tmp_path / "c.idx")
        loaded = load_index(tmp_path / "c.idx")
        q = UserQuery.from_pairs([(4, 1.0), (9, 2.0)])
        assert recall_sparse(idx, q, 10) == recall_sparse(loaded, q, 10)

    @pytest.mark.parametrize("docs", ORACLE_CORPORA + [random_docs(np.random.default_rng(4), 60)])
    def test_load_of_save_keeps_every_field(self, tmp_path, docs):
        idx = build_index(docs)
        save_index(idx, tmp_path / "r.idx")
        assert_same_index(load_index(tmp_path / "r.idx"), idx)

    def test_bad_magic_rejected(self, tmp_path):
        p = tmp_path / "junk.idx"
        p.write_bytes(b"NOPE1234")
        with pytest.raises(ValueError, match="index"):
            load_index(p)

    def test_non_ascii_ids_round_trip(self, tmp_path):
        idx = build_index({"é1": seq_of([3]), "ß": seq_of([3, 4]), "A": seq_of([4])})
        save_index(idx, tmp_path / "u.idx")
        assert load_index(tmp_path / "u.idx").doc_ids == sorted(["é1", "ß", "A"])


SECTIONS = [("offsets", "<i8"), ("tokens", "<u4"), ("keys", "<u4"), ("tfs", "<u4"),
            ("id_lens", "<u4"), ("ids", "u1")]


def layout(raw):
    """Section name -> (byte offset, dtype, count), read from the header as
    the module docstring documents it."""
    _, _, n_docs, n_tokens, n_postings, id_bytes = HEADER.unpack_from(raw)
    counts = [n_tokens + 1, n_tokens, n_postings, n_postings, n_docs, id_bytes]
    out, off = {}, HEADER.size
    for (name, dt), count in zip(SECTIONS, counts):
        out[name] = (off, dt, count)
        off += np.dtype(dt).itemsize * count
    return out


def patched(raw, section, i, value):
    off, dt, _ = layout(raw)[section]
    size = np.dtype(dt).itemsize
    out = bytearray(raw)
    out[off + i * size:off + (i + 1) * size] = np.array([value], dtype=dt).tobytes()
    return bytes(out)


def element(raw, section, i):
    off, dt, count = layout(raw)[section]
    return int(np.frombuffer(raw, dtype=dt, count=count, offset=off)[i])


class TestCorruptIndex:
    @pytest.fixture
    def raw(self, tmp_path):
        idx = build_index({
            "A": seq_of([3, 3, 4]),
            "B": seq_of([4, 5]),
            "C": seq_of([5, 5, 5, 6]),
        })
        save_index(idx, tmp_path / "good.idx")
        return (tmp_path / "good.idx").read_bytes()

    def rejects(self, tmp_path, data, match):
        path = tmp_path / "bad.idx"
        path.write_bytes(data)
        with pytest.raises(ValueError, match=match) as err:
            load_index(path)
        assert str(path) in str(err.value)

    def test_fixture_loads(self, tmp_path, raw):
        (tmp_path / "ok.idx").write_bytes(raw)
        assert load_index(tmp_path / "ok.idx").doc_ids == ["A", "B", "C"]

    def test_cut_off_at_every_byte(self, tmp_path, raw):
        for cut in range(len(raw)):
            self.rejects(tmp_path, raw[:cut], "index|truncated")

    def test_trailing_bytes(self, tmp_path, raw):
        self.rejects(tmp_path, raw + b"\0", "trailing")

    def test_doc_key_out_of_range(self, tmp_path, raw):
        self.rejects(tmp_path, patched(raw, "keys", 5, 3), "doc key 3")

    def test_offsets_not_monotone(self, tmp_path, raw):
        self.rejects(tmp_path, patched(raw, "offsets", 2, 0), "offsets")
        self.rejects(tmp_path, patched(raw, "offsets", 2, element(raw, "offsets", 1)), "offsets")

    def test_offsets_run_past_the_end(self, tmp_path, raw):
        n_postings = element(raw, "offsets", -1)
        self.rejects(tmp_path, patched(raw, "offsets", 4, n_postings + 1), "offsets")
        self.rejects(tmp_path, patched(raw, "offsets", 2, n_postings + 7), "offsets")

    def test_version_1_file(self, tmp_path):
        # the version-1 layout: magic, version, n_docs, avg_len, then records
        v1 = MAGIC + struct.pack("<IId", 1, 1, 1.0) + struct.pack("<H", 1) + b"A"
        v1 += struct.pack("<I", 1) + struct.pack("<I", 1) + struct.pack("<IIII", 7, 1, 0, 1)
        self.rejects(tmp_path, v1, "version 1")

    @pytest.mark.parametrize("section,i,value,match", [
        ("tokens", 1, 3, "token ids"),
        ("keys", 2, 0, re.escape("within a token")),
        ("tfs", 0, 0, "term frequency"),
        ("id_lens", 0, 2, "id lengths"),
        ("ids", 0, 0xFF, "utf-8"),
        ("ids", 1, ord("A"), "doc ids"),
    ])
    def test_inconsistent_section(self, tmp_path, raw, section, i, value, match):
        self.rejects(tmp_path, patched(raw, section, i, value), match)

    def test_character_split_across_two_ids(self, tmp_path):
        save_index(build_index({"aé": seq_of([1]), "b": seq_of([1])}), tmp_path / "s.idx")
        raw = (tmp_path / "s.idx").read_bytes()
        # the ids' bytes 61 C3 A9 62 are utf-8 as a whole; lengths 2 and 2
        # cut the é in two
        self.rejects(tmp_path, patched(patched(raw, "id_lens", 0, 2), "id_lens", 1, 2), "utf-8")

    def test_no_documents(self, tmp_path):
        empty = HEADER.pack(MAGIC, 2, 0, 0, 0, 0) + np.zeros(1, "<i8").tobytes()
        self.rejects(tmp_path, empty, "no documents")

    def test_every_single_byte_flip_loads_or_raises_value_error(self, tmp_path, raw):
        path = tmp_path / "flip.idx"
        for pos in range(len(raw)):
            for mask in (0x01, 0x80, 0xFF):
                data = bytearray(raw)
                data[pos] ^= mask
                path.write_bytes(bytes(data))
                try:
                    idx = load_index(path)
                except ValueError:
                    continue
                assert len(idx.weights) == len(idx.keys) == idx.offsets[-1]


class TestBm25TermWeight:
    def test_zero_tf_is_zero(self):
        assert bm25_term_weight(0, 3, 10, 10.0, 100) == 0.0

    def test_idf_decreases_with_df(self):
        hi = bm25_term_weight(1, 1, 10, 10.0, 100)
        lo = bm25_term_weight(1, 50, 10, 10.0, 100)
        assert hi > lo > 0

    def test_array_arguments_match_scalar_calls(self):
        tf, df, dl = np.array([0, 1, 3, 2]), np.array([4, 1, 7, 2]), np.array([9, 3, 12, 5])
        got = bm25_term_weight(tf, df, dl, 7.5, 20)
        want = [bm25_term_weight(int(a), int(b), int(c), 7.5, 20) for a, b, c in zip(tf, df, dl)]
        assert got.tolist() == want
        assert got[0] == 0.0
