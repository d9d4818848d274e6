"""Metric tests: hand-computed values, oracle agreement, and the golden file.

The oracles in oracles.py compute the same quantities through different
algorithms (pool-removal counting, recursive LCS, taken-set alignment), so
agreement over randomized inputs checks the arithmetic, not the code twice.
"""

import csv
import itertools
import math
import random

import pytest

from amem.embedding import HashEncoder
from amem.index import cosine
from amem.metrics import (
    METRIC_NAMES,
    MetricReport,
    bleu1,
    embed_sim,
    evaluate_pair,
    f1,
    lcs_length,
    mean_report,
    meteor,
    rouge_2,
    rouge_l,
    tokenize,
)
from oracles import (
    DATA_DIR,
    load_pairs,
    oracle_bleu1,
    oracle_embed_sim,
    oracle_f1,
    oracle_meteor,
    oracle_report,
    oracle_rouge_2,
    oracle_rouge_l,
    oracle_tokenize,
    recursive_lcs,
)

ENCODER = HashEncoder(dimension=64, seed=0)


def random_tokens(rng, max_len=10, vocab="abcdef"):
    return [rng.choice(vocab) for _ in range(rng.randrange(max_len + 1))]


# ---------------------------------------------------------------------------
# tokenizer


def test_tokenize_basics():
    assert tokenize("Hello, World!") == ["hello", "world"]
    assert tokenize("  spaced\tout\nlines ") == ["spaced", "out", "lines"]
    assert tokenize("") == []
    assert tokenize("...") == []


def test_tokenize_keeps_inner_punctuation():
    assert tokenize("don't stop") == ["don't", "stop"]
    assert tokenize("state-of-the-art!") == ["state-of-the-art"]
    assert tokenize('"quoted" (parenthesized)') == ["quoted", "parenthesized"]


def test_tokenize_handles_unicode_punctuation_and_whitespace():
    assert tokenize("«guillemets» café。") == ["guillemets", "café"]
    assert tokenize("wide　space") == ["wide", "space"]
    assert tokenize("‘curly’ “quotes”…") == ["curly", "quotes"]


def test_tokenize_is_idempotent_and_matches_oracle():
    rng = random.Random(11)
    samples = [
        "The quick brown fox, again!",
        "¡Hola! ¿Cómo estás?",
        "numbers 123 and under_scores",
        "mixed　「brackets」 here",
    ]
    for _ in range(200):
        samples.append(
            " ".join(
                rng.choice(["Word", "two,", "(three)", "don't", "x…", "«y»", "!!!"])
                for _ in range(rng.randrange(8))
            )
        )
    for text in samples:
        tokens = tokenize(text)
        assert tokens == oracle_tokenize(text)
        assert tokenize(" ".join(tokens)) == tokens


# ---------------------------------------------------------------------------
# hand-computed metric values


def test_f1_known_values():
    assert f1(["a", "b", "c"], ["b", "c", "d"]) == pytest.approx(2.0 / 3.0)
    assert f1(["x"], ["x"]) == 1.0
    assert f1(["x"], ["y"]) == 0.0
    assert f1([], ["x"]) == 0.0
    assert f1(["x"], []) == 0.0
    # multiset clipping: a repeated prediction token matches once per occurrence
    assert f1(["the", "the", "the", "cat"], ["the", "cat"]) == pytest.approx(
        2 * (2 / 4) * (2 / 2) / ((2 / 4) + (2 / 2))
    )


def test_bleu1_known_values():
    # short candidate: brevity penalty e^(1 - 3/2), clipped precision 1/2
    assert bleu1(["a", "a"], ["a", "b", "c"]) == pytest.approx(
        0.5 * math.exp(1.0 - 1.5)
    )
    # long candidate: no brevity penalty
    assert bleu1(["a", "b", "c", "d", "e"], ["a", "b", "c"]) == pytest.approx(0.6)
    assert bleu1([], ["a"]) == 0.0
    assert bleu1(["a"], []) == 0.0


def test_rouge_l_known_values():
    # lcs("a b c", "a x b y c") = 3; recall 1, precision 3/5, beta = 1.2
    beta_sq = 1.44
    expected = (1 + beta_sq) * 1.0 * 0.6 / (1.0 + beta_sq * 0.6)
    assert rouge_l(["a", "x", "b", "y", "c"], ["a", "b", "c"]) == pytest.approx(expected)
    assert rouge_l(["a"], ["b"]) == 0.0
    assert rouge_l([], ["b"]) == 0.0


def test_rouge_2_known_values():
    assert rouge_2(["the", "the", "the", "cat"], ["the", "cat"]) == 1.0
    assert rouge_2(["a", "b", "c"], ["b", "c", "d"]) == pytest.approx(0.5)
    # a single-token reference has no bigrams
    assert rouge_2(["some", "words"], ["words"]) == 0.0


def test_meteor_known_values():
    # identity: one chunk, penalty 0.5 * (1/2)^3
    assert meteor(["hello", "world"], ["hello", "world"]) == pytest.approx(0.9375)
    # full match but maximally fragmented: penalty 0.5 * (3/3)^3 = 0.5
    assert meteor(["cafe", "deja", "vu"], ["cafe", "vu", "deja"]) == pytest.approx(0.5)
    assert meteor(["a"], ["b"]) == 0.0
    assert meteor([], ["b"]) == 0.0


def test_meteor_recall_weighting():
    # precision 1, recall 1/2: F_mean = 10PR/(R+9P) favors recall heavily
    value = meteor(["a"], ["a", "b"])
    f_mean = 10 * 1.0 * 0.5 / (0.5 + 9 * 1.0)
    assert value == pytest.approx(f_mean * (1 - 0.5))


# ---------------------------------------------------------------------------
# LCS cross-checks


def test_lcs_matches_recursive_reference_exhaustively():
    alphabet = "ab"
    sequences = [[]]
    for length in (1, 2, 3):
        sequences.extend(list(s) for s in itertools.product(alphabet, repeat=length))
    for a in sequences:
        for b in sequences:
            assert lcs_length(a, b) == recursive_lcs(tuple(a), tuple(b))


def test_lcs_random_cross_check():
    rng = random.Random(23)
    for _ in range(200):
        a = random_tokens(rng, max_len=8)
        b = random_tokens(rng, max_len=8)
        assert lcs_length(a, b) == recursive_lcs(tuple(a), tuple(b))


# ---------------------------------------------------------------------------
# oracle agreement over randomized inputs


def test_token_metrics_match_oracles_on_random_pairs():
    rng = random.Random(37)
    for _ in range(300):
        a = random_tokens(rng)
        b = random_tokens(rng)
        assert f1(a, b) == pytest.approx(oracle_f1(a, b), abs=1e-12)
        assert bleu1(a, b) == pytest.approx(oracle_bleu1(a, b), abs=1e-12)
        assert rouge_l(a, b) == pytest.approx(oracle_rouge_l(a, b), abs=1e-12)
        assert rouge_2(a, b) == pytest.approx(oracle_rouge_2(a, b), abs=1e-12)
        assert meteor(a, b) == pytest.approx(oracle_meteor(a, b), abs=1e-12)
        for value in (f1(a, b), bleu1(a, b), rouge_l(a, b), rouge_2(a, b), meteor(a, b)):
            assert 0.0 <= value <= 1.0


def test_embed_sim_matches_oracle_and_properties():
    words = ["camera", "soup", "trail", "chess", "tomato", "night", "lens", "vinegar"]
    rng = random.Random(41)
    for _ in range(50):
        a = " ".join(rng.choice(words) for _ in range(rng.randrange(1, 6)))
        b = " ".join(rng.choice(words) for _ in range(rng.randrange(1, 6)))
        value = embed_sim(a, b, ENCODER)
        assert value == pytest.approx(oracle_embed_sim(a, b, ENCODER), abs=1e-9)
        assert 0.0 <= value <= 1.0
        assert value == embed_sim(b, a, ENCODER)
    assert embed_sim("same words here", "same words here", ENCODER) == pytest.approx(1.0)
    # raw similarity may go negative; the report value is clamped
    assert cosine(ENCODER.encode("a"), ENCODER.encode("b")) >= -1.0
    assert embed_sim("", "", ENCODER) == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# reports


def test_evaluate_pair_assembles_all_metrics():
    report = evaluate_pair("the cat sat", "the cat stood", ENCODER)
    assert set(report.as_dict()) == set(METRIC_NAMES)
    pred, ref = tokenize("the cat sat"), tokenize("the cat stood")
    assert report.f1 == f1(pred, ref)
    assert report.bleu1 == bleu1(pred, ref)
    assert report.rouge_l == rouge_l(pred, ref)
    assert report.rouge_2 == rouge_2(pred, ref)
    assert report.meteor == meteor(pred, ref)
    assert report.embed_sim == embed_sim("the cat sat", "the cat stood", ENCODER)


def test_mean_report():
    a = MetricReport(f1=1.0, bleu1=0.5, rouge_l=0.0, rouge_2=1.0, meteor=0.25, embed_sim=0.8)
    b = MetricReport(f1=0.0, bleu1=0.5, rouge_l=1.0, rouge_2=0.0, meteor=0.75, embed_sim=0.2)
    mean = mean_report([a, b])
    assert mean == MetricReport(
        f1=0.5, bleu1=0.5, rouge_l=0.5, rouge_2=0.5, meteor=0.5, embed_sim=0.5
    )
    assert mean_report([a]) == a
    with pytest.raises(ValueError):
        mean_report([])


# ---------------------------------------------------------------------------
# golden file


def test_golden_file_matches_library_and_oracles():
    pairs = load_pairs(DATA_DIR / "pairs.jsonl")
    with open(DATA_DIR / "golden_eval.csv", newline="", encoding="utf-8") as handle:
        rows = list(csv.DictReader(handle))
    assert len(rows) == len(pairs) + 1
    assert rows[-1]["pair"] == "mean"

    encoder = HashEncoder()
    reports = []
    for row, (prediction, reference) in zip(rows, pairs):
        library = evaluate_pair(prediction, reference, encoder)
        oracle = oracle_report(prediction, reference, encoder)
        reports.append(library)
        for name in METRIC_NAMES:
            golden = float(row[name])
            assert abs(getattr(library, name) - golden) < 1e-9
            assert abs(oracle[name] - golden) < 1e-9
    mean = mean_report(reports)
    for name in METRIC_NAMES:
        assert abs(getattr(mean, name) - float(rows[-1][name])) < 1e-9
