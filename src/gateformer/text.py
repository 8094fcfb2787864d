"""Tokenization, vocabulary, corpus ingestion, and synthetic corpora.

File formats:

* vocab file — one token per line, line index = token id; continuation
  subword pieces carry a ``##`` prefix and ``[UNK]`` must be present. Line
  0 holds ``[PAD]`` by convention (BERT's); nothing treats id 0 apart, and
  tokenizing never yields it, since ``[`` and ``]`` split off as words.
* news file — tab-separated, UTF-8, columns: news_id, category, subcategory,
  title, abstract, url, title_entities, abstract_entities.
* behaviors file — tab-separated: impression_id, user_id, time, history
  (space-separated news ids, oldest first), impressions (space-separated
  ``<news_id>-<0|1>`` pairs).
"""

from __future__ import annotations

import logging
import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .config import POLICIES, DataConfig, SynthConfig

log = logging.getLogger(__name__)

UNK_TOKEN = "[UNK]"


class Vocabulary:
    """Dense token id space: a token's id is its line in the vocab file."""

    def __init__(self, tokens: list[str]):
        if UNK_TOKEN not in tokens:
            raise ValueError(f"vocabulary must contain {UNK_TOKEN}")
        self.tokens = list(tokens)
        self.id_of = {t: i for i, t in enumerate(self.tokens)}
        if len(self.id_of) != len(self.tokens):
            raise ValueError("vocabulary contains duplicate tokens")
        self.unk_id = self.id_of[UNK_TOKEN]
        self.longest = max(map(len, self.tokens))  # no piece is longer

    def __len__(self) -> int:
        return len(self.tokens)

    def __contains__(self, token: str) -> bool:
        return token in self.id_of

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


@dataclass(frozen=True)
class TokenSequence:
    """Tokenized item text: its subword token ids in text order, one read-only
    int64 array, and ``key``, that array's bytes, both made once. ``key`` is
    every content key (store rows, dedupe) and what equality compares."""

    ids: np.ndarray = field(compare=False)
    key: bytes = field(init=False, repr=False)

    def __post_init__(self):
        ids = np.array(self.ids, dtype=np.int64)
        if ids.ndim != 1:
            raise ValueError(f"token ids must be one sequence, got shape {ids.shape}")
        ids.flags.writeable = False
        object.__setattr__(self, "ids", ids)
        object.__setattr__(self, "key", ids.tobytes())

    def __len__(self) -> int:
        return len(self.ids)


def first_occurrences(keys) -> tuple[list[int], np.ndarray]:
    """Positions of the distinct ``keys``' first occurrences, in input order,
    and each key's index among them: ``gather_rows(rows, inverse)``."""
    slot: dict = {}
    first: list[int] = []
    for i, key in enumerate(keys):
        if key not in slot:
            slot[key] = len(first)
            first.append(i)
    return first, np.fromiter(map(slot.__getitem__, keys), dtype=np.intp, count=len(keys))


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
    history_ids: list[str]
    positive_id: str
    negative_ids: list[str]


# a word is a run of alphanumeric characters (re's \w is str.isalnum() and
# the underscore); any other character that is not a space (str.isspace())
# is a punctuation word of its own
_WORDS = re.compile(r"([^\W_]+)|(\S)")


def _lower(word: str) -> str:
    """The word with each character lowered on its own. ``str.lower`` does
    that too, except that it gives a capital sigma at the end of a word the
    final form, so such a word is lowered character by character."""
    return word.lower() if "\u03a3" not in word else "".join(map(str.lower, word))


def _basic_tokenize(text: str) -> list[str]:
    """Lowercased words; punctuation chars are standalone words, as they are."""
    return [_lower(word) if word else punct for word, punct in _WORDS.findall(text)]


def _greedy_pieces(word: str, vocab: Vocabulary) -> list[str] | None:
    """Longest-match-first subword split; None if any remainder is unmatchable.
    A match is tried from the vocabulary's longest piece down, so a long
    word costs each position a bounded number of look-ups."""
    pieces: list[str] = []
    start = 0
    while start < len(word):
        end = min(len(word), start + vocab.longest)
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


def _token_ids(text: str, vocab: Vocabulary, split: dict[str, list[int]]) -> list[int]:
    """Greedy WordPiece ids of a text; each distinct word is split once per
    ``split``, which maps a word to its ids."""
    ids: list[int] = []
    for word in _basic_tokenize(text):
        word_ids = split.get(word)
        if word_ids is None:
            pieces = _greedy_pieces(word, vocab)
            word_ids = split[word] = (
                [vocab.unk_id] if pieces is None else [vocab.id_of[piece] for piece in pieces]
            )
        ids.extend(word_ids)
    return ids


# ---------------------------------------------------------------------------
# MIND-format ingestion
# ---------------------------------------------------------------------------

def _tsv_rows(path, what: str):
    """The tab-separated columns of each non-blank line of a MIND file; a
    missing one raises ``FileNotFoundError`` naming it the ``what`` file."""
    if not Path(path).exists():
        raise FileNotFoundError(f"{what} file not found: {path}")
    with open(path, encoding="utf-8") as f:
        for line in f:
            line = line.rstrip("\n")
            if line:
                yield line.split("\t")


def load_mind_news(path, vocab: Vocabulary, data: DataConfig) -> dict[str, TokenSequence]:
    """Parse a news file into token sequences of at most ``data.l_max`` ids
    (of the title alone with ``data.title_only``), keyed by news id; rows
    with too few columns or no token are skipped, with one warning. Each
    distinct word is split into pieces once per call."""
    news: dict[str, TokenSequence] = {}
    split: dict[str, list[int]] = {}
    skipped = 0
    for cols in _tsv_rows(path, "news"):
        if len(cols) >= 5:
            news_id, _category, _subcategory, title, abstract = cols[:5]
            text = title if data.title_only else f"{title} {abstract}"
            ids = _token_ids(text, vocab, split)[:data.l_max]
            if ids:
                news[news_id] = TokenSequence(ids)
                continue
        skipped += 1
    if skipped:
        log.warning("skipped %d malformed or empty news rows in %s", skipped, path)
    return news


def load_mind_behaviors(
    path, news: dict[str, TokenSequence], data: DataConfig, seed: int
) -> list[ImpressionSample]:
    """Expand an impression log into one sample per clicked item.

    Negatives, ``data.k_neg`` per click, are drawn uniformly without
    replacement from the impression's non-clicked items by a generator of
    ``seed``; if fewer are shown, draws fall back to sampling with
    replacement. Histories keep the most recent ``data.n_max`` items.
    One warning counts what yields no sample: malformed rows, impressions
    whose history holds no known item, and clicks whose impression shows no
    other candidate.
    """
    rng = np.random.default_rng(seed)
    samples: list[ImpressionSample] = []
    malformed = no_history = no_negative = 0
    for cols in _tsv_rows(path, "behaviors"):
        if len(cols) < 5:
            malformed += 1
            continue
        _imp_id, _user_id, _time, history_field, impression_field = cols[:5]
        hist_ids = [h for h in history_field.split() if h in news][-data.n_max:]
        if not hist_ids:
            no_history += 1
            continue
        history = UserHistory([news[h] for h in hist_ids])

        clicked: list[str] = []
        non_clicked: list[str] = []
        for entry in impression_field.split():
            item_id, _, label = entry.rpartition("-")
            if label not in ("0", "1") or item_id not in news:
                continue
            (clicked if label == "1" else non_clicked).append(item_id)

        for pos_id in clicked:
            pool = [n for n in non_clicked if n != pos_id]
            if not pool:
                no_negative += 1
                continue
            if len(pool) >= data.k_neg:
                neg_ids = list(rng.choice(len(pool), size=data.k_neg, replace=False))
            else:
                neg_ids = list(rng.integers(0, len(pool), size=data.k_neg))
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
    if malformed or no_history or no_negative:
        log.warning(
            "skipped %d malformed behavior rows, %d impressions with no known history item "
            "and %d clicks with no other candidate in %s", malformed, no_history, no_negative, path,
        )
    return samples


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
    sample_user: list[str]
    train_indices: list[int]
    val_indices: list[int]


def synth_corpus_full(synth: SynthConfig, seed: int, k_neg: int) -> SynthCorpus:
    """Generate a topic-separable corpus with planted signal tokens, drawn
    by a generator of ``seed``, with ``k_neg`` negatives per impression.

    Every item belongs to one topic and carries ``synth.signals``
    topic-signal tokens placed per ``synth.policy`` (front | random | back)
    among filler tokens drawn without replacement from a shared pool, so
    item tokens are distinct. Every user prefers one topic; clicks follow
    the preference except for a ``synth.noise`` fraction of impressions.

    ``synth.distractors`` plants that many off-topic signal tokens (random
    other topics, random positions) in every item. The item's own topic
    still has the plurality, but any single signal-like token is ambiguous
    evidence, so selectors that cannot condition on the user's interest
    lose accuracy.

    ``synth.val_fraction`` > 0 holds out that share of users and of each
    topic's items; held-out users see held-out items only, so validation
    measures semantic generalization, not fingerprint memorization.
    """
    if synth.topics < 2:
        raise ValueError("synth.topics must be at least 2")
    if synth.policy not in POLICIES:
        raise ValueError(f"synth.policy must be one of {POLICIES}, got {synth.policy!r}")
    if synth.distractors > 0 and synth.signals < 2:
        raise ValueError(
            "synth.distractors need synth.signals >= 2 so the true topic keeps plurality"
        )
    if synth.distractors > synth.topics - 1:
        raise ValueError("synth.distractors must leave enough distinct foreign topics")
    if synth.tokens_per_item < synth.signals + synth.distractors:
        raise ValueError("synth.tokens_per_item must cover signal and distractor tokens")
    if synth.filler_pool < synth.tokens_per_item - synth.signals - synth.distractors:
        raise ValueError("synth.filler_pool too small for distinct tokens per item")
    per_topic = synth.items // synth.topics
    n_val_items = int(round(per_topic * synth.val_fraction))
    if per_topic - n_val_items < synth.history_len + 1:
        raise ValueError("too few training items per topic for the requested history length")
    if synth.val_fraction > 0 and n_val_items < synth.history_len + 1:
        raise ValueError("too few held-out items per topic for the requested history length")
    n_val_users = int(round(synth.users * synth.val_fraction))
    if synth.val_fraction > 0 and not n_val_users:
        raise ValueError(
            f"synth.val_fraction={synth.val_fraction} of synth.users={synth.users} "
            "holds out no user"
        )

    rng = np.random.default_rng(seed)
    signal_words = [[f"topic{t}sig{j}" for j in range(synth.signals)] for t in range(synth.topics)]
    filler_words = [f"filler{i}" for i in range(synth.filler_pool)]
    tokens = ["[PAD]", UNK_TOKEN]
    for group in signal_words:
        tokens.extend(group)
    tokens.extend(filler_words)
    vocab = Vocabulary(tokens)

    item_topic: dict[str, int] = {}
    news: dict[str, TokenSequence] = {}
    topic_items: list[list[str]] = [[] for _ in range(synth.topics)]
    for i in range(synth.items):
        topic = i % synth.topics
        item_id = f"N{i:04d}"
        n_fill = synth.tokens_per_item - synth.signals - synth.distractors
        fillers = rng.choice(synth.filler_pool, size=n_fill, replace=False)
        if synth.policy == "front":
            slots = np.arange(synth.signals)
        elif synth.policy == "back":
            slots = np.arange(synth.tokens_per_item - synth.signals, synth.tokens_per_item)
        else:
            slots = np.sort(rng.choice(synth.tokens_per_item, size=synth.signals, replace=False))
        words = [""] * synth.tokens_per_item
        for j, s in enumerate(slots):
            words[s] = signal_words[topic][j]
        if synth.distractors:
            # one token from each of synth.distractors distinct foreign
            # topics, at random free positions: ambiguous evidence for any
            # single draw
            foreign = [t for t in range(synth.topics) if t != topic]
            d_topics = rng.choice(len(foreign), size=synth.distractors, replace=False)
            free = [p for p in range(synth.tokens_per_item) if not words[p]]
            d_slots = rng.choice(len(free), size=synth.distractors, replace=False)
            for dt, ds in zip(d_topics, d_slots):
                ft = foreign[dt]
                words[free[ds]] = signal_words[ft][int(rng.integers(0, synth.signals))]
        fit = iter(fillers)
        for p in range(synth.tokens_per_item):
            if not words[p]:
                words[p] = filler_words[next(fit)]
        news[item_id] = TokenSequence([vocab.id_of[w] for w in words])
        item_topic[item_id] = topic
        topic_items[topic].append(item_id)

    # last n_val_items of each topic are the held-out pool
    train_pool = [items[: per_topic - n_val_items] for items in topic_items]
    val_pool = [items[per_topic - n_val_items:] for items in topic_items]
    val_users = set(rng.permutation(synth.users)[:n_val_users].tolist())

    samples: list[ImpressionSample] = []
    user_pref: dict[str, int] = {}
    sample_user: list[str] = []
    train_indices: list[int] = []
    val_indices: list[int] = []
    for u in range(synth.users):
        user_id = f"U{u:04d}"
        is_val = u in val_users
        pools = val_pool if is_val else train_pool
        pref = int(rng.integers(0, synth.topics))
        user_pref[user_id] = pref
        own = pools[pref]
        hist_idx = rng.choice(len(own), size=synth.history_len, replace=False)
        hist_ids = [own[i] for i in hist_idx]
        history = UserHistory([news[h] for h in hist_ids])
        for _ in range(synth.impressions_per_user):
            if synth.noise > 0 and rng.random() < synth.noise:
                pos_topic = int(rng.integers(0, synth.topics))
            else:
                pos_topic = pref
            pos_id = pools[pos_topic][int(rng.integers(0, len(pools[pos_topic])))]
            negs: list[str] = []
            while len(negs) < k_neg:
                t = int(rng.integers(0, synth.topics))
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
        sample_user=sample_user,
        train_indices=train_indices,
        val_indices=val_indices,
    )


def write_mind_files(corpus: SynthCorpus, out_dir) -> None:
    """Write a synthetic corpus as MIND-format news/behaviors plus its vocab.

    When the corpus carries a held-out split, the held-out impressions go to
    ``behaviors_val.tsv`` so the generalization split survives the round trip
    through files; otherwise a ``behaviors_val.tsv`` left in ``out_dir`` by an
    earlier corpus is removed, so the loader cannot validate on it.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    corpus.vocab.save(out / "vocab.txt")
    with open(out / "news.tsv", "w", encoding="utf-8") as f:
        for item_id in sorted(corpus.news):
            seq = corpus.news[item_id]
            title = " ".join(corpus.vocab.token_of(t) for t in seq.ids.tolist())
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
    else:
        (out / "behaviors_val.tsv").unlink(missing_ok=True)
