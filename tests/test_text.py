import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gateformer.text import (
    TokenSequence,
    UserHistory,
    Vocabulary,
    _basic_tokenize,
    _greedy_pieces,
    _token_ids,
    first_occurrences,
    load_mind_behaviors,
    load_mind_news,
    synth_corpus_full,
)
from oracles import auc_oracle, basic_tokenize_oracle, greedy_pieces_oracle


def make_vocab(*words):
    return Vocabulary(["[PAD]", "[UNK]", *words])


def wordpiece_tokenize(text, vocab):
    """The ids ``load_mind_news`` gives one text, before its ``l_max`` cut."""
    return TokenSequence(_token_ids(text, vocab, {}))


class TestWordpiece:
    def test_single_known_word(self):
        vocab = make_vocab("hello")
        seq = wordpiece_tokenize("hello", vocab)
        assert seq.ids.tolist() == [vocab.id_of["hello"]]

    def test_greedy_longest_match(self):
        # un|##afford|##able: the matcher must prefer "##afford" over any
        # shorter prefix piece.
        vocab = make_vocab("un", "##afford", "##able", "##a")
        seq = wordpiece_tokenize("unaffordable", vocab)
        assert [vocab.token_of(i) for i in seq.ids] == ["un", "##afford", "##able"]
        # a word after a space starts fresh: no continuation piece opens it
        seq = wordpiece_tokenize("un able", vocab)
        assert [vocab.token_of(i) for i in seq.ids] == ["un", "[UNK]"]

    def test_unmatched_word_maps_to_unk(self):
        vocab = make_vocab("hello")
        seq = wordpiece_tokenize("qzx", vocab)
        assert seq.ids.tolist() == [vocab.unk_id]

    def test_empty_text(self):
        seq = wordpiece_tokenize("", make_vocab("a"))
        assert len(seq) == 0

    def test_punctuation_and_case(self):
        vocab = make_vocab("hello", "world", ",")
        seq = wordpiece_tokenize("Hello, World", vocab)
        assert [vocab.token_of(i) for i in seq.ids] == ["hello", ",", "world"]

    def test_partial_match_falls_back_to_unk(self):
        # "un" matches but "usual" has no continuation piece: whole word -> unk
        vocab = make_vocab("un")
        seq = wordpiece_tokenize("unusual", vocab)
        assert seq.ids.tolist() == [vocab.unk_id]

    def test_deterministic_and_idempotent_at_id_level(self):
        vocab = make_vocab("re", "##al", "##ly", "nice")
        a = wordpiece_tokenize("Really nice!", vocab)
        b = wordpiece_tokenize("Really nice!", vocab)
        assert a == b
        rejoined = " ".join(vocab.token_of(i).removeprefix("##") for i in a.ids)
        assert wordpiece_tokenize(rejoined, vocab).ids[: len(a.ids)].tolist()  # re-tokenizable

    @settings(max_examples=300, deadline=None)
    @given(st.text(max_size=40))
    def test_words_match_the_character_loop(self, text):
        assert _basic_tokenize(text) == basic_tokenize_oracle(text)

    @pytest.mark.parametrize("text", [
        "ΟΔΟΣ ΣΟΦΟΣ aΣ Σ", "İstanbul", "snake_case __init__", "x²+y₂ ½ Ⅻ",
        "Ⓐ ⓐ 𝐀𝐁", "tab\tnew\nline\x1c\u2028end", "e\u0301 ǅ ß ﬁ", "",
    ])
    def test_hard_characters_match_the_character_loop(self, text):
        # final sigma, multi-character lowering, the underscore, numerics,
        # symbols with case, the separators str.isspace() counts, combining
        # marks, title case
        assert _basic_tokenize(text) == basic_tokenize_oracle(text)

    def test_longest_match_bounded_by_the_longest_piece(self):
        rng = np.random.default_rng(40)
        pieces = ["a", "b", "ab", "abc", "##a", "##b", "##c", "##bc", "##cab", "c"]
        for _ in range(300):
            vocab = make_vocab(*rng.choice(pieces, size=int(rng.integers(1, 8)), replace=False))
            word = "".join(rng.choice(list("abcd"), size=int(rng.integers(1, 12))))
            assert _greedy_pieces(word, vocab) == greedy_pieces_oracle(word, vocab)

    def test_long_word_costs_a_bounded_number_of_lookups(self):
        # a vocabulary of the 26 letters and their continuation pieces, as
        # any BERT vocabulary holds; each position of a 4,000-character word
        # tries at most as many pieces as the longest token is long
        class CountingVocabulary(Vocabulary):
            lookups = 0

            def __contains__(self, token):
                CountingVocabulary.lookups += 1
                return super().__contains__(token)

        letters = [chr(c) for c in range(ord("a"), ord("z") + 1)]
        vocab = CountingVocabulary(["[PAD]", "[UNK]", *letters, *("##" + c for c in letters)])
        word = "".join(letters[i % 26] for i in range(4000))
        seq = wordpiece_tokenize(word, vocab)
        assert [vocab.token_of(i) for i in seq.ids[:3]] == ["a", "##b", "##c"]
        assert len(seq) == 4000
        assert CountingVocabulary.lookups <= vocab.longest * len(word)

    def test_vocab_roundtrip(self, tmp_path):
        vocab = make_vocab("alpha", "##beta")
        vocab.save(tmp_path / "v.txt")
        loaded = Vocabulary.from_file(tmp_path / "v.txt")
        assert loaded.tokens == vocab.tokens
        for i, t in enumerate(loaded.tokens):
            assert loaded.id_of[t] == i


# a BERT-style vocabulary: [PAD] on line 0, beside tokens and pieces that
# spell it out
PAD_FIRST = ["[PAD]", "[UNK]", "[", "]", "pad", "p", "##ad", "##a", "##d", "[pad]"]
# text built around the spellings of [PAD], with arbitrary text between them
PAD_TEXT = st.lists(
    st.one_of(st.sampled_from(["[PAD]", "[pad]", "[Pad]", "[", "]", "pad", "##ad", " "]),
              st.text(max_size=6)),
    max_size=12,
).map("".join)


class TestIdZero:
    """Id 0 is an ordinary token to the model; the tokenizer never yields it
    from a vocabulary whose line 0 is [PAD], since [ and ] are words of
    their own."""

    def test_pad_spelled_out_is_three_words(self):
        vocab = Vocabulary(PAD_FIRST)
        seq = wordpiece_tokenize("[PAD] [pad]", vocab)
        assert [vocab.token_of(i) for i in seq.ids] == ["[", "pad", "]"] * 2

    @settings(max_examples=300, deadline=None)
    @given(text=PAD_TEXT)
    def test_wordpiece_never_yields_id_0(self, text):
        assert 0 not in wordpiece_tokenize(text, Vocabulary(PAD_FIRST)).ids.tolist()

    @settings(max_examples=100, deadline=None)
    @given(texts=st.lists(PAD_TEXT, min_size=1, max_size=4))
    def test_load_mind_news_never_yields_id_0(self, tmp_path_factory, texts):
        # tabs and line breaks would split the row itself
        texts = [t.translate({ord(c): " " for c in "\t\n\r"}) for t in texts]
        path = tmp_path_factory.mktemp("news") / "news.tsv"
        path.write_text("".join(f"N{i}\tc\ts\t{t}\t{t[::-1]}\t-\t[]\t[]\n"
                                for i, t in enumerate(texts)), encoding="utf-8")
        news = load_mind_news(path, Vocabulary(PAD_FIRST))
        assert all(0 not in seq.ids.tolist() for seq in news.values())


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
        assert news["N1"].ids.tolist() == ids("big", "match", "tonight", "teams", "ready")
        assert news["N3"].ids.tolist() == ids("market", "up", "investors", "cheer", "loudly")

    def test_empty_abstract_uses_title_alone(self, tmp_path, news_vocab):
        path = tmp_path / "news.tsv"
        path.write_text(NEWS_FIXTURE, encoding="utf-8")
        news = load_mind_news(path, news_vocab)
        assert news["N2"].ids.tolist() == [news_vocab.id_of["new"], news_vocab.id_of["chip"]]

    def test_truncation_to_l_max(self, tmp_path, news_vocab):
        path = tmp_path / "news.tsv"
        path.write_text(NEWS_FIXTURE, encoding="utf-8")
        news = load_mind_news(path, news_vocab, l_max=2)
        assert all(len(seq) <= 2 for seq in news.values())
        assert news["N1"].ids.tolist() == [news_vocab.id_of["big"], news_vocab.id_of["match"]]
        # a row shorter than l_max keeps every id
        assert len(load_mind_news(path, news_vocab, l_max=20)["N1"]) == 5

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

    def test_row_without_tokens_skipped_and_counted(self, tmp_path, news_vocab, caplog):
        path = tmp_path / "news.tsv"
        path.write_text(NEWS_FIXTURE + "N9\tt0\t-\t\t\t-\t[]\t[]\n", encoding="utf-8")
        with caplog.at_level("WARNING"):
            news = load_mind_news(path, news_vocab)
        assert set(news) == {"N1", "N2", "N3"}
        assert any("skipped 2 malformed or empty news rows" in r.message for r in caplog.records)

    def test_title_only_flag(self, tmp_path, news_vocab):
        path = tmp_path / "news.tsv"
        path.write_text(NEWS_FIXTURE, encoding="utf-8")
        news = load_mind_news(path, news_vocab, title_only=True)
        assert news["N1"].ids.tolist() == [
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
        # the fixture less its row 2, whose empty history the warning counts
        news = self.make_news(news_vocab, tmp_path)
        path = tmp_path / "behaviors.tsv"
        rows = BEHAVIORS_FIXTURE.splitlines(keepends=True)
        path.write_text(rows[0] + rows[2], encoding="utf-8")
        with caplog.at_level("WARNING"):
            assert len(load_mind_behaviors(path, news, k_neg=2)) == 3
        assert not any("behavior" in r.message for r in caplog.records)

    def test_dropped_impressions_and_clicks_are_counted(self, tmp_path, news_vocab, caplog):
        news = self.make_news(news_vocab, tmp_path)
        path = tmp_path / "behaviors.tsv"
        path.write_text(
            BEHAVIORS_FIXTURE                   # row 2: an empty history
            + "4\tU4\t0\tN77 N78\tN1-1 N2-0\n"   # no history item is known
            + "5\tU5\t0\tN1\tN2-1\n"             # the click is the only candidate
            + "6\tU6\t0\tN1\tN2-1 N3-1 N77-0\n"  # two clicks, no known other candidate
            + "7\tU7\n",                        # malformed
            encoding="utf-8",
        )
        with caplog.at_level("WARNING"):
            samples = load_mind_behaviors(path, news, k_neg=2)
        assert len(samples) == 3
        assert [r.message for r in caplog.records if "behavior" in r.message] == [
            f"skipped 1 malformed behavior rows, 2 impressions with no known history item "
            f"and 3 clicks with no other candidate in {path}"
        ]

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
        assert {k: v.ids.tolist() for k, v in a.news.items()} == {k: v.ids.tolist() for k, v in b.news.items()}
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

    def test_a_held_out_share_of_no_user_rejected(self):
        # round(1 * 0.5) is 0: the corpus would have no validation impressions
        with pytest.raises(ValueError, match=r"^synth\.val_fraction=0\.5 of synth\.users=1 "):
            synth_corpus_full(0, 1, 48, 3, 10, val_fraction=0.5)
        corpus = synth_corpus_full(0, 2, 48, 3, 10, val_fraction=0.5)
        assert corpus.val_indices and corpus.train_indices


class TestTypes:
    def test_empty_history_rejected(self):
        with pytest.raises(ValueError):
            UserHistory([])

    def test_ids_are_one_read_only_int64_array(self):
        seq = TokenSequence([3, 1, 2])
        assert seq.ids.dtype == np.int64 and seq.ids.shape == (3,)
        with pytest.raises(ValueError, match="read-only"):
            seq.ids[0] = 7
        with pytest.raises(AttributeError):
            seq.ids = np.array([1])
        # the caller's array is copied, so editing it leaves the sequence alone
        src = np.array([4, 5])
        kept = TokenSequence(src)
        src[0] = 9
        assert kept.ids.tolist() == [4, 5]

    def test_key_is_the_bytes_of_the_ids(self):
        seq = TokenSequence([3, 1, 2])
        assert seq.key == seq.ids.tobytes()
        assert TokenSequence(np.array([3, 1, 2], dtype=np.int32)).key == seq.key
        assert TokenSequence([3, 1, 2]) == seq and TokenSequence([3, 2, 1]) != seq

    def test_different_lengths_never_share_a_key(self):
        seqs = [TokenSequence([0] * n) for n in range(5)] + [TokenSequence([1, 0]), TokenSequence([1])]
        assert len({seq.key for seq in seqs}) == len(seqs)
        assert TokenSequence(TokenSequence([5, 6, 7]).ids[:2]).key == TokenSequence([5, 6]).key

    def test_nested_ids_rejected(self):
        with pytest.raises(ValueError, match="one sequence"):
            TokenSequence([[1, 2], [3, 4]])


class TestFirstOccurrences:
    @pytest.mark.parametrize("keys", [
        [], [b"a"], [b"b", b"a", b"b", b"c", b"a", b"a"], [(b"x", b"y"), (b"x",), (b"x", b"y")],
        list(range(5)),
    ])
    def test_positions_and_inverse_rebuild_the_keys(self, keys):
        first, inverse = first_occurrences(keys)
        distinct = list(dict.fromkeys(keys))
        assert first == [keys.index(key) for key in distinct]
        assert inverse.dtype == np.intp and len(inverse) == len(keys)
        assert [distinct[j] for j in inverse] == keys
