"""Tokenization, vocabulary, corpus ingestion, and synthetic corpora.

File formats:

* vocab file — one token per line, line index = token id; continuation
  subword pieces carry a ``##`` prefix; line 0 is the padding token and
  ``[UNK]`` must be present.
* news file — tab-separated, UTF-8, columns: news_id, category, subcategory,
  title, abstract, url, title_entities, abstract_entities.
* behaviors file — tab-separated: impression_id, user_id, time, history
  (space-separated news ids, oldest first), impressions (space-separated
  ``<news_id>-<0|1>`` pairs).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

log = logging.getLogger(__name__)

PAD_ID = 0
UNK_TOKEN = "[UNK]"

POLICIES = ("front", "random", "back")


class Vocabulary:
    """Dense token id space; id 0 is padding."""

    def __init__(self, tokens: list[str]):
        if UNK_TOKEN not in tokens:
            raise ValueError(f"vocabulary must contain {UNK_TOKEN}")
        self.tokens = list(tokens)
        self.id_of = {t: i for i, t in enumerate(self.tokens)}
        if len(self.id_of) != len(self.tokens):
            raise ValueError("vocabulary contains duplicate tokens")
        self.pad_id = PAD_ID
        self.unk_id = self.id_of[UNK_TOKEN]

    def __len__(self) -> int:
        return len(self.tokens)

    def __contains__(self, token: str) -> bool:
        return token in self.id_of

    def lookup(self, token: str) -> int:
        return self.id_of.get(token, self.unk_id)

    def token_of(self, idx: int) -> str:
        return self.tokens[idx]

    @classmethod
    def from_file(cls, path) -> "Vocabulary":
        with open(path, encoding="utf-8") as f:
            tokens = [line.rstrip("\n") for line in f]
        return cls(tokens)

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            for t in self.tokens:
                f.write(t + "\n")


@dataclass
class TokenSequence:
    """Tokenized item text; parallel lists, one entry per subword token.

    ``word_group`` is non-decreasing and groups the subword pieces of one
    surface word; ``source_positions`` holds each token's character offset in
    the original text.
    """

    ids: list[int]
    word_group: list[int]
    source_positions: list[int]

    def __len__(self) -> int:
        return len(self.ids)

    def truncated(self, l_max: int) -> "TokenSequence":
        return TokenSequence(
            self.ids[:l_max], self.word_group[:l_max], self.source_positions[:l_max]
        )


@dataclass
class UserHistory:
    """Chronological click history, most recent last."""

    items: list[TokenSequence]

    def __post_init__(self):
        if not self.items:
            raise ValueError("user history must contain at least one item")

    def __len__(self) -> int:
        return len(self.items)


@dataclass
class ImpressionSample:
    """One training/evaluation event: a history, a click, and negatives."""

    history: UserHistory
    positive: TokenSequence
    negatives: list[TokenSequence]
    history_ids: list[str] = field(default_factory=list)
    positive_id: str = ""
    negative_ids: list[str] = field(default_factory=list)


def _basic_tokenize(text: str) -> list[tuple[str, int]]:
    """Lowercased words with their character offsets; punctuation chars are
    standalone words."""
    words: list[tuple[str, int]] = []
    cur: list[str] = []
    cur_start = 0
    for i, ch in enumerate(text):
        if ch.isalnum():
            if not cur:
                cur_start = i
            cur.append(ch.lower())
        else:
            if cur:
                words.append(("".join(cur), cur_start))
                cur = []
            if not ch.isspace():
                words.append((ch, i))
    if cur:
        words.append(("".join(cur), cur_start))
    return words


def _greedy_pieces(word: str, vocab: Vocabulary) -> list[tuple[str, int]] | None:
    """Longest-match-first subword split; None if any remainder is unmatchable."""
    pieces: list[tuple[str, int]] = []
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
        pieces.append((found, start))
        start = end
    return pieces


def wordpiece_tokenize(text: str, vocab: Vocabulary) -> TokenSequence:
    """Greedy WordPiece over lowercased, punctuation-split words."""
    ids: list[int] = []
    word_group: list[int] = []
    source_positions: list[int] = []
    for group, (word, offset) in enumerate(_basic_tokenize(text)):
        pieces = _greedy_pieces(word, vocab)
        if pieces is None:
            ids.append(vocab.unk_id)
            word_group.append(group)
            source_positions.append(offset)
            continue
        for piece, within in pieces:
            ids.append(vocab.id_of[piece])
            word_group.append(group)
            source_positions.append(offset + within)
    return TokenSequence(ids, word_group, source_positions)


# ---------------------------------------------------------------------------
# MIND-format ingestion
# ---------------------------------------------------------------------------

def load_mind_news(
    path,
    vocab: Vocabulary,
    l_max: int = 30,
    title_only: bool = False,
) -> dict[str, TokenSequence]:
    """Parse a news file into truncated token sequences keyed by news id."""
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"news file not found: {path}")
    news: dict[str, TokenSequence] = {}
    skipped = 0
    with open(path, encoding="utf-8") as f:
        for line in f:
            line = line.rstrip("\n")
            if not line:
                continue
            cols = line.split("\t")
            if len(cols) < 5:
                skipped += 1
                continue
            news_id, _category, _subcategory, title, abstract = cols[:5]
            text = title if title_only else f"{title} {abstract}"
            news[news_id] = wordpiece_tokenize(text, vocab).truncated(l_max)
    if skipped:
        log.warning("skipped %d malformed news rows in %s", skipped, path)
    return news


def load_mind_behaviors(
    path,
    news: dict[str, TokenSequence],
    k_neg: int = 4,
    n_max: int = 50,
    seed: int = 0,
) -> list[ImpressionSample]:
    """Expand an impression log into one sample per clicked item.

    Negatives are drawn uniformly without replacement from the impression's
    non-clicked items; if fewer than ``k_neg`` are shown, draws fall back to
    sampling with replacement. Histories keep the most recent ``n_max`` items.
    """
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"behaviors file not found: {path}")
    rng = np.random.default_rng(seed)
    samples: list[ImpressionSample] = []
    skipped = 0

    def known(item_id: str) -> bool:
        seq = news.get(item_id)
        return seq is not None and len(seq) > 0

    with open(path, encoding="utf-8") as f:
        for line in f:
            line = line.rstrip("\n")
            if not line:
                continue
            cols = line.split("\t")
            if len(cols) < 5:
                skipped += 1
                continue
            _imp_id, _user_id, _time, history_field, impression_field = cols[:5]
            hist_ids = [h for h in history_field.split() if known(h)][-n_max:]
            if not hist_ids:
                continue
            history = UserHistory([news[h] for h in hist_ids])

            clicked: list[str] = []
            non_clicked: list[str] = []
            for entry in impression_field.split():
                item_id, _, label = entry.rpartition("-")
                if label not in ("0", "1") or not known(item_id):
                    continue
                (clicked if label == "1" else non_clicked).append(item_id)

            for pos_id in clicked:
                pool = [n for n in non_clicked if n != pos_id]
                if not pool:
                    continue
                if len(pool) >= k_neg:
                    neg_ids = list(rng.choice(len(pool), size=k_neg, replace=False))
                else:
                    neg_ids = list(rng.integers(0, len(pool), size=k_neg))
                negs = [pool[i] for i in neg_ids]
                samples.append(
                    ImpressionSample(
                        history=history,
                        positive=news[pos_id],
                        negatives=[news[n] for n in negs],
                        history_ids=hist_ids,
                        positive_id=pos_id,
                        negative_ids=negs,
                    )
                )
    if skipped:
        log.warning("skipped %d malformed behavior rows in %s", skipped, path)
    return samples


@dataclass
class CorpusStats:
    """Document frequencies and length statistics over a news corpus."""

    doc_freq: dict[int, int]
    n_docs: int
    avg_len: float


def corpus_stats(news: dict[str, TokenSequence]) -> CorpusStats:
    df: dict[int, int] = {}
    total = 0
    for seq in news.values():
        total += len(seq)
        for tok in set(seq.ids):
            df[tok] = df.get(tok, 0) + 1
    n = len(news)
    return CorpusStats(doc_freq=df, n_docs=n, avg_len=total / n if n else 0.0)


# ---------------------------------------------------------------------------
# synthetic corpus
# ---------------------------------------------------------------------------

@dataclass
class SynthCorpus:
    """Synthetic topic corpus plus the ground truth the generator used.

    With nonzero validation fractions, validation users browse and are shown
    only held-out items, so validation performance measures what transfers
    through token semantics rather than memorized user or item fingerprints.
    """

    news: dict[str, TokenSequence]
    samples: list[ImpressionSample]
    vocab: Vocabulary
    item_topic: dict[str, int]
    user_pref: dict[str, int]
    user_history_ids: dict[str, list[str]]
    sample_user: list[str]
    train_indices: list[int]
    val_indices: list[int]

    def split(self) -> tuple[list[ImpressionSample], list[ImpressionSample]]:
        return (
            [self.samples[i] for i in self.train_indices],
            [self.samples[i] for i in self.val_indices],
        )


def synth_corpus_full(
    seed: int,
    n_users: int,
    n_items: int,
    n_topics: int,
    tokens_per_item: int,
    signal_positions: str = "random",
    n_signal: int = 2,
    filler_pool: int = 60,
    history_len: int = 6,
    impressions_per_user: int = 4,
    k_neg: int = 4,
    noise: float = 0.0,
    val_fraction: float = 0.0,
    n_distract: int = 0,
) -> SynthCorpus:
    """Generate a topic-separable corpus with planted signal tokens.

    Every item belongs to one topic and carries ``n_signal`` topic-signal
    tokens placed per ``signal_positions`` (front | random | back) among
    filler tokens drawn without replacement from a shared pool, so item
    tokens are distinct. Every user prefers one topic; clicks follow the
    preference except for a ``noise`` fraction of impressions.

    ``n_distract`` plants that many off-topic signal tokens (random other
    topics, random positions) in every item. The item's own topic still has
    the plurality, but any single signal-like token is ambiguous evidence,
    so selectors that cannot condition on the user's interest lose accuracy.

    ``val_fraction`` > 0 holds out that share of users and of each topic's
    items; held-out users see held-out items only, so validation measures
    semantic generalization, not fingerprint memorization.
    """
    if n_topics < 2:
        raise ValueError("need at least 2 topics")
    if signal_positions not in POLICIES:
        raise ValueError(f"signal_positions must be one of {POLICIES}")
    if n_distract > 0 and n_signal < 2:
        raise ValueError("distractors need n_signal >= 2 so the true topic keeps plurality")
    if n_distract > n_topics - 1:
        raise ValueError("n_distract must leave enough distinct foreign topics")
    if tokens_per_item < n_signal + n_distract:
        raise ValueError("tokens_per_item must cover signal and distractor tokens")
    if filler_pool < tokens_per_item - n_signal - n_distract:
        raise ValueError("filler pool too small for distinct tokens per item")
    per_topic = n_items // n_topics
    n_val_items = int(round(per_topic * val_fraction))
    if per_topic - n_val_items < history_len + 1:
        raise ValueError("too few training items per topic for the requested history length")
    if val_fraction > 0 and n_val_items < history_len + 1:
        raise ValueError("too few held-out items per topic for the requested history length")

    rng = np.random.default_rng(seed)
    signal_words = [[f"topic{t}sig{j}" for j in range(n_signal)] for t in range(n_topics)]
    filler_words = [f"filler{i}" for i in range(filler_pool)]
    tokens = ["[PAD]", UNK_TOKEN]
    for group in signal_words:
        tokens.extend(group)
    tokens.extend(filler_words)
    vocab = Vocabulary(tokens)

    item_topic: dict[str, int] = {}
    news: dict[str, TokenSequence] = {}
    topic_items: list[list[str]] = [[] for _ in range(n_topics)]
    for i in range(n_items):
        topic = i % n_topics
        item_id = f"N{i:04d}"
        n_fill = tokens_per_item - n_signal - n_distract
        fillers = rng.choice(filler_pool, size=n_fill, replace=False)
        if signal_positions == "front":
            slots = np.arange(n_signal)
        elif signal_positions == "back":
            slots = np.arange(tokens_per_item - n_signal, tokens_per_item)
        else:
            slots = np.sort(rng.choice(tokens_per_item, size=n_signal, replace=False))
        words = [""] * tokens_per_item
        for j, s in enumerate(slots):
            words[s] = signal_words[topic][j]
        if n_distract:
            # one token from each of n_distract distinct foreign topics, at
            # random free positions: ambiguous evidence for any single draw
            foreign = [t for t in range(n_topics) if t != topic]
            d_topics = rng.choice(len(foreign), size=n_distract, replace=False)
            free = [p for p in range(tokens_per_item) if not words[p]]
            d_slots = rng.choice(len(free), size=n_distract, replace=False)
            for dt, ds in zip(d_topics, d_slots):
                ft = foreign[dt]
                words[free[ds]] = signal_words[ft][int(rng.integers(0, n_signal))]
        fit = iter(fillers)
        for p in range(tokens_per_item):
            if not words[p]:
                words[p] = filler_words[next(fit)]
        ids = [vocab.id_of[w] for w in words]
        offsets = np.cumsum([0] + [len(w) + 1 for w in words[:-1]]).tolist()
        news[item_id] = TokenSequence(ids, list(range(tokens_per_item)), offsets)
        item_topic[item_id] = topic
        topic_items[topic].append(item_id)

    # last n_val_items of each topic are the held-out pool
    train_pool = [items[: per_topic - n_val_items] for items in topic_items]
    val_pool = [items[per_topic - n_val_items:] for items in topic_items]
    n_val_users = int(round(n_users * val_fraction))
    val_users = set(rng.permutation(n_users)[:n_val_users].tolist())

    samples: list[ImpressionSample] = []
    user_pref: dict[str, int] = {}
    user_history_ids: dict[str, list[str]] = {}
    sample_user: list[str] = []
    train_indices: list[int] = []
    val_indices: list[int] = []
    for u in range(n_users):
        user_id = f"U{u:04d}"
        is_val = u in val_users
        pools = val_pool if is_val else train_pool
        pref = int(rng.integers(0, n_topics))
        user_pref[user_id] = pref
        own = pools[pref]
        hist_idx = rng.choice(len(own), size=history_len, replace=False)
        hist_ids = [own[i] for i in hist_idx]
        user_history_ids[user_id] = hist_ids
        history = UserHistory([news[h] for h in hist_ids])
        for _ in range(impressions_per_user):
            if noise > 0 and rng.random() < noise:
                pos_topic = int(rng.integers(0, n_topics))
            else:
                pos_topic = pref
            pos_id = pools[pos_topic][int(rng.integers(0, len(pools[pos_topic])))]
            negs: list[str] = []
            while len(negs) < k_neg:
                t = int(rng.integers(0, n_topics))
                if t == pref:
                    continue
                cand = pools[t][int(rng.integers(0, len(pools[t])))]
                if cand != pos_id and cand not in negs:
                    negs.append(cand)
            (val_indices if is_val else train_indices).append(len(samples))
            samples.append(
                ImpressionSample(
                    history=history,
                    positive=news[pos_id],
                    negatives=[news[n] for n in negs],
                    history_ids=hist_ids,
                    positive_id=pos_id,
                    negative_ids=negs,
                )
            )
            sample_user.append(user_id)
    return SynthCorpus(
        news=news,
        samples=samples,
        vocab=vocab,
        item_topic=item_topic,
        user_pref=user_pref,
        user_history_ids=user_history_ids,
        sample_user=sample_user,
        train_indices=train_indices,
        val_indices=val_indices,
    )


def write_mind_files(corpus: SynthCorpus, out_dir) -> None:
    """Write a synthetic corpus as MIND-format news/behaviors plus its vocab.

    When the corpus carries a held-out split, the held-out impressions go to
    ``behaviors_val.tsv`` so the generalization split survives the round trip
    through files.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    corpus.vocab.save(out / "vocab.txt")
    with open(out / "news.tsv", "w", encoding="utf-8") as f:
        for item_id in sorted(corpus.news):
            seq = corpus.news[item_id]
            title = " ".join(corpus.vocab.token_of(t) for t in seq.ids)
            topic = corpus.item_topic[item_id]
            f.write(f"{item_id}\tt{topic}\t-\t{title}\t\t-\t[]\t[]\n")

    def write_behaviors(path, indices):
        with open(path, "w", encoding="utf-8") as f:
            for i in indices:
                sample = corpus.samples[i]
                user_id = corpus.sample_user[i]
                history = " ".join(sample.history_ids)
                shown = [f"{sample.positive_id}-1"] + [f"{n}-0" for n in sample.negative_ids]
                f.write(f"{i}\t{user_id}\t0\t{history}\t{' '.join(shown)}\n")

    write_behaviors(out / "behaviors.tsv", corpus.train_indices)
    if corpus.val_indices:
        write_behaviors(out / "behaviors_val.tsv", corpus.val_indices)
