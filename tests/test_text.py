import numpy as np
import pytest

from gateformer.text import (
    ImpressionSample,
    TokenSequence,
    UserHistory,
    Vocabulary,
    corpus_stats,
    load_mind_behaviors,
    load_mind_news,
    synth_corpus_full,
    wordpiece_tokenize,
)
from oracles import auc_oracle


def make_vocab(*words):
    return Vocabulary(["[PAD]", "[UNK]", *words])


class TestWordpiece:
    def test_single_known_word(self):
        vocab = make_vocab("hello")
        seq = wordpiece_tokenize("hello", vocab)
        assert seq.ids == [vocab.id_of["hello"]]
        assert seq.word_group == [0]
        assert seq.source_positions == [0]

    def test_greedy_longest_match(self):
        # un|##afford|##able: the matcher must prefer "##afford" over any
        # shorter prefix piece.
        vocab = make_vocab("un", "##afford", "##able", "##a")
        seq = wordpiece_tokenize("unaffordable", vocab)
        assert [vocab.token_of(i) for i in seq.ids] == ["un", "##afford", "##able"]
        assert seq.word_group == [0, 0, 0]
        assert seq.source_positions == [0, 2, 8]

    def test_unmatched_word_maps_to_unk(self):
        vocab = make_vocab("hello")
        seq = wordpiece_tokenize("qzx", vocab)
        assert seq.ids == [vocab.unk_id]
        assert seq.word_group == [0]

    def test_empty_text(self):
        seq = wordpiece_tokenize("", make_vocab("a"))
        assert len(seq) == 0

    def test_punctuation_and_case(self):
        vocab = make_vocab("hello", "world", ",")
        seq = wordpiece_tokenize("Hello, World", vocab)
        assert [vocab.token_of(i) for i in seq.ids] == ["hello", ",", "world"]
        assert seq.word_group == [0, 1, 2]
        assert seq.source_positions == [0, 5, 7]

    def test_partial_match_falls_back_to_unk(self):
        # "un" matches but "usual" has no continuation piece: whole word -> unk
        vocab = make_vocab("un")
        seq = wordpiece_tokenize("unusual", vocab)
        assert seq.ids == [vocab.unk_id]

    def test_deterministic_and_idempotent_at_id_level(self):
        vocab = make_vocab("re", "##al", "##ly", "nice")
        a = wordpiece_tokenize("Really nice!", vocab)
        b = wordpiece_tokenize("Really nice!", vocab)
        assert a == b
        rejoined = " ".join(vocab.token_of(i).removeprefix("##") for i in a.ids)
        assert wordpiece_tokenize(rejoined, vocab).ids[: len(a.ids)]  # re-tokenizable

    def test_vocab_roundtrip(self, tmp_path):
        vocab = make_vocab("alpha", "##beta")
        vocab.save(tmp_path / "v.txt")
        loaded = Vocabulary.from_file(tmp_path / "v.txt")
        assert loaded.tokens == vocab.tokens
        for i, t in enumerate(loaded.tokens):
            assert loaded.lookup(t) == i
        assert loaded.pad_id == 0


NEWS_FIXTURE = (
    "N1\tsports\tsoccer\tbig match tonight\tteams ready\t-\t[]\t[]\n"
    "N2\ttech\tai\tnew chip\t\t-\t[]\t[]\n"
    "bogus-row\n"
    "N3\tfinance\tstocks\tmarket up\tinvestors cheer loudly\t-\t[]\t[]\n"
)


@pytest.fixture
def news_vocab():
    return make_vocab(
        "big", "match", "tonight", "teams", "ready", "new", "chip",
        "market", "up", "investors", "cheer", "loudly",
    )


class TestLoadMindNews:
    def test_fixture_parses_expected_ids(self, tmp_path, news_vocab):
        path = tmp_path / "news.tsv"
        path.write_text(NEWS_FIXTURE, encoding="utf-8")
        news = load_mind_news(path, news_vocab)
        assert set(news) == {"N1", "N2", "N3"}
        ids = lambda *words: [news_vocab.id_of[w] for w in words]
        assert news["N1"].ids == ids("big", "match", "tonight", "teams", "ready")
        assert news["N3"].ids == ids("market", "up", "investors", "cheer", "loudly")

    def test_empty_abstract_uses_title_alone(self, tmp_path, news_vocab):
        path = tmp_path / "news.tsv"
        path.write_text(NEWS_FIXTURE, encoding="utf-8")
        news = load_mind_news(path, news_vocab)
        assert news["N2"].ids == [news_vocab.id_of["new"], news_vocab.id_of["chip"]]

    def test_truncation_to_l_max(self, tmp_path, news_vocab):
        path = tmp_path / "news.tsv"
        path.write_text(NEWS_FIXTURE, encoding="utf-8")
        news = load_mind_news(path, news_vocab, l_max=2)
        assert all(len(seq) <= 2 for seq in news.values())
        assert news["N1"].ids == [news_vocab.id_of["big"], news_vocab.id_of["match"]]

    def test_malformed_row_skipped_with_warning(self, tmp_path, news_vocab, caplog):
        path = tmp_path / "news.tsv"
        path.write_text(NEWS_FIXTURE, encoding="utf-8")
        with caplog.at_level("WARNING"):
            news = load_mind_news(path, news_vocab)
        assert "bogus-row" not in news
        assert any("skipped 1" in r.message for r in caplog.records)

    def test_missing_file_is_fatal(self, news_vocab):
        with pytest.raises(FileNotFoundError):
            load_mind_news("/nonexistent/news.tsv", news_vocab)

    def test_title_only_flag(self, tmp_path, news_vocab):
        path = tmp_path / "news.tsv"
        path.write_text(NEWS_FIXTURE, encoding="utf-8")
        news = load_mind_news(path, news_vocab, title_only=True)
        assert news["N1"].ids == [
            news_vocab.id_of[w] for w in ("big", "match", "tonight")
        ]


BEHAVIORS_FIXTURE = (
    "1\tU1\t0\tN1 N2\tN3-1 N1-0 N2-0 N3-0 N2-0\n"   # note: N3 also shown unclicked
    "2\tU2\t0\t\tN1-1 N2-0\n"                        # empty history: no samples
    "3\tU3\t0\tN3\tN1-1 N2-0 N3-1\n"                  # two clicks: two samples
)


class TestLoadMindBehaviors:
    def make_news(self, news_vocab, tmp_path):
        path = tmp_path / "news.tsv"
        path.write_text(NEWS_FIXTURE, encoding="utf-8")
        return load_mind_news(path, news_vocab)

    def test_negatives_are_permutation_when_exact(self, tmp_path, news_vocab):
        news = self.make_news(news_vocab, tmp_path)
        path = tmp_path / "behaviors.tsv"
        path.write_text("9\tU9\t0\tN1\tN3-1 N1-0 N2-0 N1-0 N2-0\n", encoding="utf-8")
        samples = load_mind_behaviors(path, news, k_neg=4)
        assert len(samples) == 1
        assert sorted(samples[0].negative_ids) == ["N1", "N1", "N2", "N2"]

    def test_empty_history_contributes_nothing(self, tmp_path, news_vocab):
        news = self.make_news(news_vocab, tmp_path)
        path = tmp_path / "behaviors.tsv"
        path.write_text(BEHAVIORS_FIXTURE, encoding="utf-8")
        samples = load_mind_behaviors(path, news, k_neg=2)
        assert all(s.history_ids for s in samples)
        assert not any(s.positive_id == "N1" and s.history_ids == [] for s in samples)

    def test_fixture_yields_hand_enumerated_multiset(self, tmp_path, news_vocab):
        news = self.make_news(news_vocab, tmp_path)
        path = tmp_path / "behaviors.tsv"
        path.write_text(BEHAVIORS_FIXTURE, encoding="utf-8")
        samples = load_mind_behaviors(path, news, k_neg=2)
        got = sorted((tuple(s.history_ids), s.positive_id) for s in samples)
        # row 1: one click (N3), history [N1, N2]; row 2 skipped;
        # row 3: clicks N1 and N3 with history [N3]
        assert got == [(("N1", "N2"), "N3"), (("N3",), "N1"), (("N3",), "N3")]
        for s in samples:
            assert s.positive_id not in s.negative_ids
            assert len(s.negatives) == 2

    def test_sampling_reproducible_under_seed(self, tmp_path, news_vocab):
        news = self.make_news(news_vocab, tmp_path)
        path = tmp_path / "behaviors.tsv"
        path.write_text(BEHAVIORS_FIXTURE, encoding="utf-8")
        a = load_mind_behaviors(path, news, k_neg=2, seed=7)
        b = load_mind_behaviors(path, news, k_neg=2, seed=7)
        assert [s.negative_ids for s in a] == [s.negative_ids for s in b]

    def test_malformed_rows_skipped_with_warning(self, tmp_path, news_vocab, caplog):
        news = self.make_news(news_vocab, tmp_path)
        path = tmp_path / "behaviors.tsv"
        path.write_text(BEHAVIORS_FIXTURE + "4\tU4\t0\n5\tU5\n", encoding="utf-8")
        with caplog.at_level("WARNING"):
            samples = load_mind_behaviors(path, news, k_neg=2)
        assert len(samples) == 3
        assert any("skipped 2 malformed behavior rows" in r.message for r in caplog.records)

    def test_well_formed_file_logs_no_warning(self, tmp_path, news_vocab, caplog):
        news = self.make_news(news_vocab, tmp_path)
        path = tmp_path / "behaviors.tsv"
        path.write_text(BEHAVIORS_FIXTURE, encoding="utf-8")
        with caplog.at_level("WARNING"):
            load_mind_behaviors(path, news, k_neg=2)
        assert not any("behavior" in r.message for r in caplog.records)

    def test_history_truncates_to_most_recent(self, tmp_path, news_vocab):
        news = self.make_news(news_vocab, tmp_path)
        path = tmp_path / "behaviors.tsv"
        path.write_text("1\tU1\t0\tN1 N2 N3\tN1-1 N2-0\n", encoding="utf-8")
        samples = load_mind_behaviors(path, news, k_neg=1, n_max=2)
        assert samples[0].history_ids == ["N2", "N3"]


class TestSynthCorpus:
    def test_same_seed_identical(self):
        a = synth_corpus_full(5, n_users=4, n_items=24, n_topics=3, tokens_per_item=10)
        b = synth_corpus_full(5, n_users=4, n_items=24, n_topics=3, tokens_per_item=10)
        assert {k: v.ids for k, v in a.news.items()} == {k: v.ids for k, v in b.news.items()}
        assert [s.positive_id for s in a.samples] == [s.positive_id for s in b.samples]
        assert [s.negative_ids for s in a.samples] == [s.negative_ids for s in b.samples]

    def test_front_policy_places_signals_first(self):
        corpus = synth_corpus_full(
            3, n_users=2, n_items=24, n_topics=3, tokens_per_item=12,
            signal_positions="front", n_signal=2,
        )
        for item_id, seq in corpus.news.items():
            topic = corpus.item_topic[item_id]
            words = [corpus.vocab.token_of(t) for t in seq.ids]
            assert words[0] == f"topic{topic}sig0"
            assert words[1] == f"topic{topic}sig1"
            assert not any(w.startswith("topic") for w in words[2:])

    def test_back_policy(self):
        corpus = synth_corpus_full(
            3, n_users=2, n_items=24, n_topics=3, tokens_per_item=12,
            signal_positions="back", n_signal=2,
        )
        for item_id, seq in corpus.news.items():
            words = [corpus.vocab.token_of(t) for t in seq.ids]
            assert words[-2].startswith("topic") and words[-1].startswith("topic")

    def test_item_tokens_distinct(self):
        news = synth_corpus_full(2, n_users=2, n_items=24, n_topics=3, tokens_per_item=20).news
        for seq in news.values():
            assert len(set(seq.ids)) == len(seq.ids)

    def test_bayes_optimal_auc_above_095(self):
        corpus = synth_corpus_full(
            11, n_users=40, n_items=64, n_topics=4, tokens_per_item=12, noise=0.05
        )
        aucs = []
        for i, sample in enumerate(corpus.samples):
            pref = corpus.user_pref[corpus.sample_user[i]]
            items = [sample.positive_id] + sample.negative_ids
            labels = [1] + [0] * len(sample.negative_ids)
            scores = [1.0 if corpus.item_topic[x] == pref else 0.0 for x in items]
            aucs.append(auc_oracle(scores, labels))
        assert np.mean(aucs) > 0.95

    def test_invalid_policy_rejected(self):
        with pytest.raises(ValueError, match="signal_positions"):
            synth_corpus_full(0, 2, 24, 3, 10, signal_positions="middle")

    def test_needs_two_topics(self):
        with pytest.raises(ValueError, match="topics"):
            synth_corpus_full(0, 2, 24, 1, 10)


class TestCorpusStats:
    def test_counts(self):
        vocab = make_vocab("a", "b", "c")
        news = {
            "N1": TokenSequence([vocab.id_of["a"], vocab.id_of["b"]], [0, 1], [0, 2]),
            "N2": TokenSequence([vocab.id_of["a"], vocab.id_of["a"]], [0, 1], [0, 2]),
        }
        stats = corpus_stats(news)
        assert stats.n_docs == 2
        assert stats.avg_len == 2.0
        assert stats.doc_freq[vocab.id_of["a"]] == 2
        assert stats.doc_freq[vocab.id_of["b"]] == 1


class TestTypes:
    def test_empty_history_rejected(self):
        with pytest.raises(ValueError):
            UserHistory([])

    def test_truncated_never_exceeds_l_max(self):
        seq = TokenSequence(list(range(1, 9)), [0] * 8, [0] * 8)
        assert len(seq.truncated(3)) == 3
        assert len(seq.truncated(20)) == 8
