"""Text evaluation metrics over a fixed tokenizer.

Implements the exact formulas this package is evaluated with: token-multiset
F1, BLEU-1 with brevity penalty, ROUGE-L (LCS-based F with beta=1.2),
ROUGE-2 (clipped bigram recall), a simplified exact-match METEOR with
fragmentation penalty 0.5*(chunks/matches)^3, and embedding cosine
similarity. The METEOR here deliberately omits stemming and synonym
matching, so values diverge from standard METEOR implementations.

Every function is total: degenerate inputs (empty sequences, no bigrams,
zero matches) score 0.0, and all scores lie in [0, 1].

The tokenizer is fixed because every example value depends on it: lowercase
the text, split on Unicode whitespace, strip leading and trailing
punctuation from each piece, drop empties.
"""

from __future__ import annotations

import math
import unicodedata
from collections import Counter
from dataclasses import dataclass, fields
from typing import Sequence

from .embedding import Encoder
from .index import cosine

TokenSequence = Sequence[str]


def _strip_punctuation(token: str) -> str:
    start, end = 0, len(token)
    while start < end and unicodedata.category(token[start]).startswith("P"):
        start += 1
    while end > start and unicodedata.category(token[end - 1]).startswith("P"):
        end -= 1
    return token[start:end]


def tokenize(text: str) -> list[str]:
    """Lowercase, split on Unicode whitespace, strip edge punctuation, drop empties."""
    tokens = []
    for piece in text.lower().split():
        token = _strip_punctuation(piece)
        if token:
            tokens.append(token)
    return tokens


def f1(prediction: TokenSequence, reference: TokenSequence) -> float:
    """Harmonic mean of token-multiset precision and recall.

    True positives are counted per token occurrence: each prediction token
    matches at most one reference occurrence of the same token.
    """
    if not prediction or not reference:
        return 0.0
    true_positive = sum((Counter(prediction) & Counter(reference)).values())
    if true_positive == 0:
        return 0.0
    precision = true_positive / len(prediction)
    recall = true_positive / len(reference)
    return 2.0 * precision * recall / (precision + recall)


def bleu1(candidate: TokenSequence, reference: TokenSequence) -> float:
    """Clipped unigram precision times the brevity penalty.

    BP is 1 when the candidate is longer than the reference, otherwise
    e^(1 - r/c) with c the candidate length and r the reference length.
    """
    if not candidate:
        return 0.0
    clipped = sum((Counter(candidate) & Counter(reference)).values())
    p1 = clipped / len(candidate)
    c, r = len(candidate), len(reference)
    brevity = 1.0 if c > r else math.exp(1.0 - r / c)
    return brevity * p1


def lcs_length(a: TokenSequence, b: TokenSequence) -> int:
    """Length of the longest common subsequence, O(len(a)*len(b)) two-row DP."""
    if not a or not b:
        return 0
    previous = [0] * (len(b) + 1)
    for token in a:
        current = [0]
        for j, other in enumerate(b, start=1):
            if token == other:
                current.append(previous[j - 1] + 1)
            else:
                current.append(max(previous[j], current[j - 1]))
        previous = current
    return previous[-1]


def rouge_l(candidate: TokenSequence, reference: TokenSequence, beta: float = 1.2) -> float:
    """LCS-based F-score: recall against the reference, precision against the candidate."""
    lcs = lcs_length(reference, candidate)
    if lcs == 0:
        return 0.0
    recall = lcs / len(reference)
    precision = lcs / len(candidate)
    beta_sq = beta * beta
    return (1.0 + beta_sq) * recall * precision / (recall + beta_sq * precision)


def _bigrams(tokens: TokenSequence) -> Counter:
    return Counter(zip(tokens, tokens[1:]))


def rouge_2(candidate: TokenSequence, reference: TokenSequence) -> float:
    """Clipped bigram overlap divided by the reference bigram count."""
    reference_bigrams = _bigrams(reference)
    total = sum(reference_bigrams.values())
    if total == 0:
        return 0.0
    matched = sum((reference_bigrams & _bigrams(candidate)).values())
    return matched / total


def meteor(candidate: TokenSequence, reference: TokenSequence) -> float:
    """Simplified METEOR: exact unigram alignment with a fragmentation penalty.

    Alignment is greedy left to right; each candidate token takes the first
    unused identical reference position. A chunk is a maximal run of matches
    contiguous in both sequences. F_mean weights recall 9:1 over precision;
    the penalty is 0.5*(chunks/matches)^3, applied unconditionally.
    """
    if not candidate or not reference:
        return 0.0
    used = [False] * len(reference)
    pairs: list[tuple[int, int]] = []
    for i, token in enumerate(candidate):
        for j, other in enumerate(reference):
            if not used[j] and other == token:
                used[j] = True
                pairs.append((i, j))
                break
    matches = len(pairs)
    if matches == 0:
        return 0.0
    chunks = 0
    previous: tuple[int, int] | None = None
    for i, j in pairs:
        if previous is None or i != previous[0] + 1 or j != previous[1] + 1:
            chunks += 1
        previous = (i, j)
    precision = matches / len(candidate)
    recall = matches / len(reference)
    f_mean = 10.0 * precision * recall / (recall + 9.0 * precision)
    penalty = 0.5 * (chunks / matches) ** 3
    return f_mean * (1.0 - penalty)


def embed_sim(a: str, b: str, encoder: Encoder) -> float:
    """Embedding similarity for reports: the cosine of the two encodings,
    clamped below at 0."""
    return max(0.0, cosine(encoder.encode(a), encoder.encode(b)))


@dataclass(frozen=True)
class MetricReport:
    """All metric values for one prediction/reference pair, each in [0, 1]."""

    f1: float
    bleu1: float
    rouge_l: float
    rouge_2: float
    meteor: float
    embed_sim: float

    def as_dict(self) -> dict[str, float]:
        return {item.name: getattr(self, item.name) for item in fields(self)}


METRIC_NAMES = tuple(item.name for item in fields(MetricReport))


def evaluate_pair(prediction: str, reference: str, encoder: Encoder) -> MetricReport:
    """Score one prediction against one reference on every metric."""
    pred_tokens = tokenize(prediction)
    ref_tokens = tokenize(reference)
    return MetricReport(
        f1=f1(pred_tokens, ref_tokens),
        bleu1=bleu1(pred_tokens, ref_tokens),
        rouge_l=rouge_l(pred_tokens, ref_tokens),
        rouge_2=rouge_2(pred_tokens, ref_tokens),
        meteor=meteor(pred_tokens, ref_tokens),
        embed_sim=embed_sim(prediction, reference, encoder),
    )


def mean_report(reports: Sequence[MetricReport]) -> MetricReport:
    """Arithmetic mean of each metric over a non-empty batch."""
    if not reports:
        raise ValueError("cannot average zero reports")
    n = len(reports)
    return MetricReport(
        **{
            name: sum(getattr(report, name) for report in reports) / n
            for name in METRIC_NAMES
        }
    )
