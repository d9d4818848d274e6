"""Seeded inputs for the amem benchmark: note texts, queries and timestamps.

Everything here is a pure function of the seed, so the same seed gives the
same texts, the same timestamps and therefore (with the mock backend, the
hash encoder and a fixed id seed) the same store bytes.

Note texts mix the sentences of ``tests/data/dialogue.txt`` with synthetic
sentences. A synthetic sentence names one topic word twice, which makes it
the first keyword of the mock s1 analysis, and some sentences name a second
topic word twice as well. Neighbours that share one keyword are linked by
the mock s3 rule; neighbours that share two are also rewritten and
re-encoded. The topic count and the share of two-topic sentences set how
often that happens.

Words are drawn from a fixed space of pseudo-words: word ``n`` is the
base-80 spelling of a scrambled ``n`` in consonant-vowel syllables, so
distinct numbers give distinct words. Note texts use about 20k words, which
fits the hash encoder's 65,536-token coordinate cache; queries also draw on
100k words of their own, which does not.
"""

from __future__ import annotations

import random
from datetime import datetime, timedelta
from pathlib import Path

_SYLLABLES = tuple(c + v for c in "bdfgklmnprstvz" for v in "aeiou") + (
    "cha", "che", "chi", "cho", "chu", "sha", "she", "shi", "sho", "shu",
)
_BASE = len(_SYLLABLES)
_WORD_SYLLABLES = 4
_SPACE = _BASE**_WORD_SYLLABLES
# Odd and not a multiple of 5, so it is coprime with 80**4 and the scramble
# is a bijection.
_SCRAMBLE = 2654435761

FILLER_WORDS = 20_000
TOPICS = 2000
TOPIC_SKEW = 0.5
WORDS_PER_TOPIC = 4
QUERY_WORDS = 100_000

_TOPIC_BASE = FILLER_WORDS
_QUERY_BASE = FILLER_WORDS + TOPICS * WORDS_PER_TOPIC

DIALOGUE_SHARE = 0.15
TWO_TOPIC_SHARE = 0.2
FILLERS_PER_SENTENCE = 9
QUERY_NOTE_WORDS = 3
QUERY_OWN_WORDS = 5

_START = datetime(2024, 1, 1)


def word(n: int) -> str:
    """The n-th pseudo-word; distinct n give distinct words."""
    value = (n * _SCRAMBLE) % _SPACE
    letters = []
    for _ in range(_WORD_SYLLABLES):
        value, digit = divmod(value, _BASE)
        letters.append(_SYLLABLES[digit])
    return "".join(letters)


def load_dialogue(path: Path) -> list[str]:
    lines = [line.strip() for line in path.read_text("utf-8").splitlines()]
    return [line for line in lines if line]


def timestamp(i: int) -> str:
    """A canonical UTC timestamp, one minute after that of i - 1."""
    return (_START + timedelta(minutes=i)).strftime("%Y-%m-%dT%H:%M:%SZ")


def apportion(total: int, weights: list[float]) -> list[int]:
    """Split total into integer counts proportional to weights.

    Largest remainder: every count is its quota rounded down, and the units
    left over go to the largest fractional parts, lower index first on ties.
    """
    scale = total / sum(weights)
    quotas = [weight * scale for weight in weights]
    counts = [int(quota) for quota in quotas]
    order = sorted(range(len(weights)), key=lambda i: (counts[i] - quotas[i], i))
    for i in order[: total - sum(counts)]:
        counts[i] += 1
    return counts


class TextSource:
    """Seeded note texts and queries.

    A batch of notes has a fixed mix for its size: the number of dialogue
    lines, of sentences per topic and of two-topic sentences depends only
    on the batch size. The seed picks their order, the topic words and the
    filler words. That keeps the amount of linking and rewriting nearly the
    same from seed to seed, so the seed varies the inputs without varying
    the work much.
    """

    def __init__(self, seed: int, dialogue: list[str]) -> None:
        self._rng = random.Random(seed)
        self._dialogue = dialogue
        # Topic popularity falls off as a power of its rank, so a few topics
        # recur often and most recur rarely.
        self._topic_weights = [(rank + 1) ** -TOPIC_SKEW for rank in range(TOPICS)]

    def _topic_word_pair(self, topic: int) -> list[str]:
        first = _TOPIC_BASE + topic * WORDS_PER_TOPIC
        return [word(first + i) for i in self._rng.sample(range(WORDS_PER_TOPIC), 2)]

    def _sentence(self, topic: int, two_topic: bool) -> str:
        rng = self._rng
        main, second = self._topic_word_pair(topic)
        words = [main, main, second] + ([second] if two_topic else [])
        words += [word(rng.randrange(FILLER_WORDS)) for _ in range(FILLERS_PER_SENTENCE)]
        rng.shuffle(words)
        return " ".join(words).capitalize() + "."

    def notes(self, count: int) -> list[str]:
        rng = self._rng
        dialogue = round(count * DIALOGUE_SHARE)
        synthetic = count - dialogue
        topics = [
            topic
            for topic, times in enumerate(apportion(synthetic, self._topic_weights))
            for _ in range(times)
        ]
        rng.shuffle(topics)
        two_topic = round(synthetic * TWO_TOPIC_SHARE)
        doubles = [True] * two_topic + [False] * (synthetic - two_topic)
        rng.shuffle(doubles)
        texts = [self._sentence(topic, double) for topic, double in zip(topics, doubles)]
        texts += [self._dialogue[i % len(self._dialogue)] for i in range(dialogue)]
        rng.shuffle(texts)
        return texts

    def query(self) -> str:
        rng = self._rng
        topic = rng.choices(range(TOPICS), weights=self._topic_weights)[0]
        words = self._topic_word_pair(topic)[:1]
        words += [word(rng.randrange(FILLER_WORDS)) for _ in range(QUERY_NOTE_WORDS - 1)]
        words += [word(_QUERY_BASE + rng.randrange(QUERY_WORDS)) for _ in range(QUERY_OWN_WORDS)]
        rng.shuffle(words)
        return " ".join(words)
