"""Encoder tests: determinism, unit norm, degenerate inputs, remote plumbing.

The hash encoder is the reference implementation every integrity check in
the system leans on, so its contract (same seed + same text = same bytes,
unit norm, fixed empty-text vector) is pinned tightly here.
"""

import hashlib
import random
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from amem import embedding
from amem.embedding import (
    _TOKEN_LIMIT,
    DEFAULT_DIMENSION,
    HashEncoder,
    RemoteEncoder,
    basis_vector,
)
from amem.errors import BackendUnavailable, DimensionMismatch
from oracles import oracle_hash_encode

DIALOGUE = Path(__file__).parent / "data" / "dialogue.txt"

WORDS = (
    "photography camera hiking trail soup recipe chess opening garden tomato "
    "light shadow river stone bread salt morning evening paper pencil"
).split()


def random_text(rng, max_words=12):
    return " ".join(rng.choice(WORDS) for _ in range(rng.randint(1, max_words)))


def test_default_dimension_and_flags():
    enc = HashEncoder()
    assert enc.dimension == DEFAULT_DIMENSION == 384
    assert enc.deterministic is True


def test_encode_returns_unit_float32():
    enc = HashEncoder(dimension=64, seed=3)
    rng = random.Random(0)
    for _ in range(50):
        vec = enc.encode(random_text(rng))
        assert vec.dtype == np.float32
        assert vec.shape == (64,)
        assert abs(np.linalg.norm(vec.astype(np.float64)) - 1.0) <= 1e-6


def test_same_seed_same_text_same_bytes():
    rng = random.Random(1)
    texts = [random_text(rng) for _ in range(30)]
    a = HashEncoder(dimension=96, seed=11)
    b = HashEncoder(dimension=96, seed=11)
    for text in texts:
        assert a.encode(text).tobytes() == b.encode(text).tobytes()


def test_different_seed_changes_output():
    text = "photography camera trail"
    a = HashEncoder(dimension=384, seed=0).encode(text)
    b = HashEncoder(dimension=384, seed=1).encode(text)
    assert not np.array_equal(a, b)


def test_token_order_does_not_matter():
    enc = HashEncoder(dimension=128, seed=5)
    a = enc.encode("garden tomato compost soil")
    b = enc.encode("soil compost tomato garden")
    assert np.array_equal(a, b)


def test_token_frequency_does_matter():
    enc = HashEncoder(dimension=128, seed=5)
    once = enc.encode("garden tomato")
    twice = enc.encode("garden garden tomato")
    assert not np.array_equal(once, twice)


def test_case_and_punctuation_fold_into_word_tokens():
    enc = HashEncoder(dimension=128, seed=5)
    assert np.array_equal(enc.encode("Hello, World!"), enc.encode("hello world"))


def test_empty_text_maps_to_basis_vector():
    enc = HashEncoder(dimension=32, seed=9)
    expected = basis_vector(32)
    for text in ("", "   ", "\n\t", "!!! ... ???"):
        got = enc.encode(text)
        assert np.array_equal(got, expected)
    assert expected[0] == 1.0 and float(np.abs(expected[1:]).sum()) == 0.0


def test_encode_many_matches_encode():
    enc = HashEncoder(dimension=48, seed=2)
    rng = random.Random(3)
    texts = [random_text(rng) for _ in range(10)] + [""]
    many = enc.encode_many(texts)
    assert len(many) == len(texts)
    for text, vec in zip(texts, many):
        assert np.array_equal(vec, enc.encode(text))


# Tokens include repeats, case folds and non-ASCII words; separators
# include punctuation, so some texts hold no token at all. Two tokens are
# longer than 124 UTF-8 bytes, so that a token and its 4-byte block number
# span two 128-byte blake2b blocks: 130 ASCII bytes, and 126 bytes of
# "straße" (7 bytes each).
LONG_TOKENS = ["river" * 26, "straße" * 18]
TEXTS = st.lists(
    st.tuples(
        st.sampled_from(
            ["a", "b", "c", "A", "river", "é", "日本", "straße", "x1", "_", *LONG_TOKENS]
        ),
        st.sampled_from([" ", "  ", "\n", "\t", ", ", "!", "\u00a0"]),
    ),
    max_size=12,
).map(lambda parts: "".join(token + sep for token, sep in parts))


def vector_bytes(vectors):
    return [(vec.dtype, vec.shape, vec.tobytes()) for vec in vectors]


@settings(max_examples=80, deadline=None)
@given(
    dimension=st.sampled_from([1, 8, 48, 128, 129, 384, 1000]),
    texts=st.lists(st.one_of(TEXTS, st.sampled_from(["", "   ", "\n\t", "a a b"])), max_size=8),
    warmup=st.lists(TEXTS, max_size=4),
)
@example(dimension=1, texts=["a a b", "a b", "b a c", "", "a"], warmup=[])
@example(dimension=8, texts=["a a b", "a a b", "  "], warmup=["a"])
# 1000 dimensions take 8 digests per token. A token of 124 bytes fills its
# first block with the block number; one of 128 fills it alone.
@example(dimension=1000, texts=["b" * 124, "c" * 128 + " " + " ".join(LONG_TOKENS)], warmup=[])
def test_encode_many_matches_encode_byte_for_byte(dimension, texts, warmup):
    expected = vector_bytes([HashEncoder(dimension, seed=3).encode(text) for text in texts])
    assert expected == vector_bytes([oracle_hash_encode(text, dimension, 3) for text in texts])
    fresh = HashEncoder(dimension, seed=3)
    assert vector_bytes(fresh.encode_many(texts)) == expected
    # warm from its own batch, and warm from other texts
    assert vector_bytes(fresh.encode_many(texts)) == expected
    warm = HashEncoder(dimension, seed=3)
    warm.encode_many(warmup)
    assert vector_bytes(warm.encode_many(texts)) == expected
    assert vector_bytes(warm.encode(text) for text in texts) == expected


@pytest.mark.parametrize("dimension, dtype", [(32768, np.uint16), (32769, np.uint32)])
def test_the_widest_slot_dtypes_match_the_oracle(dimension, dtype):
    # The signed-slot table holds slots up to 2 * dimension - 1, so these
    # two dimensions sit on either side of the uint16 bound.
    texts = ["river stone river bread", "日本 straße x1 _ river", "", "a a a b"]
    enc = HashEncoder(dimension, seed=3)
    assert enc._coords.dtype == dtype
    expected = vector_bytes([oracle_hash_encode(text, dimension, 3) for text in texts])
    assert vector_bytes(enc.encode_many(texts)) == expected
    assert vector_bytes(enc.encode(text) for text in texts) == expected


def test_cancelled_signs_give_the_basis_vector():
    # At dimension 1 each token adds +-frequency to the one coordinate, so
    # two tokens of opposite sign cancel.
    enc = HashEncoder(dimension=1, seed=0)
    words = [f"w{i}" for i in range(20)]
    positive = next(w for w in words if enc.encode(w)[0] > 0)
    negative = next(w for w in words if enc.encode(w)[0] < 0)
    assert enc.encode(f"{negative} {negative} {positive}")[0] == -1.0
    for vec in enc.encode_many([f"{positive} {negative}", f"{negative} {positive}"]):
        assert np.array_equal(vec, basis_vector(1))


# Characters where a byte split and \w could part ways: the separators
# \x1c-\x1f, which str.split takes for whitespace; "_" and digits, which
# \w matches; non-ASCII letters, digits and spaces; and KELVIN SIGN, whose
# lowercase is the ASCII "k".
TOKENIZER_CHARS = st.one_of(
    st.sampled_from(list("aZ09_ \t\n\r\x0b\x0c\x1c\x1d\x1e\x1f\x00\x7f.,-'")),
    st.sampled_from(list("\u212a\u0130\u00e9\u00df\u65e5\u0661\u00a0\u2028\u3000")),
    st.characters(),
)


@settings(max_examples=300, deadline=None)
@given(text=st.text(TOKENIZER_CHARS, max_size=40))
@example(text="a\x1cb\x1dc\x1ed\x1fe")
@example(text="snake_case 42 x1_y2 __")
@example(text="\u212aelvin K\u212a")
@example(text="mixed \u65e5\u672c\u8a9e words \u0661\u0662 stra\u00dfe")
def test_the_tokenizer_gives_the_regex_tokens(text):
    assert embedding._tokenize(text) == embedding._TOKEN_RE.findall(text.lower())


class CountingHasher:
    """Wraps a blake2b hasher and its copies, counting every digest and,
    when given a list for it, the length of every update."""

    def __init__(self, inner, digests, fed=None):
        self._inner = inner
        self._digests = digests
        self._fed = [] if fed is None else fed

    def copy(self):
        return CountingHasher(self._inner.copy(), self._digests, self._fed)

    def update(self, data):
        self._fed.append(len(data))
        self._inner.update(data)

    def digest(self):
        self._digests.append(1)
        return self._inner.digest()


def test_a_cold_batch_hashes_each_distinct_token_once():
    # 384 dimensions take 48 coordinates of 4 bytes per token: three 64-byte
    # digests. A warm batch finds every token in the table.
    texts = DIALOGUE.read_text("utf-8").splitlines()
    enc = HashEncoder()
    expected = vector_bytes(HashEncoder().encode_many(texts))
    digests = []
    enc._hasher = CountingHasher(enc._hasher, digests)
    distinct = {token for text in texts for token in embedding._TOKEN_RE.findall(text.lower())}
    assert vector_bytes(enc.encode_many(texts)) == expected
    assert len(digests) == 3 * len(distinct)
    del digests[:]
    assert vector_bytes(enc.encode_many(texts)) == expected
    assert digests == []


@pytest.mark.parametrize("dimension, digests_per_token", [(64, 1), (384, 3), (1000, 8)])
def test_a_cold_batch_feeds_each_distinct_token_to_the_hash_once(dimension, digests_per_token):
    # Every digest of a token hashes the same key block and token bytes
    # before its 4-byte block number, so that prefix is fed once per token
    # and each digest adds only its block number.
    texts = DIALOGUE.read_text("utf-8").splitlines() + [" ".join(LONG_TOKENS), "日本 é 日本"]
    enc = HashEncoder(dimension, seed=3)
    expected = vector_bytes(HashEncoder(dimension, seed=3).encode_many(texts))
    digests, fed = [], []
    enc._hasher = CountingHasher(enc._hasher, digests, fed)
    distinct = {token for text in texts for token in embedding._TOKEN_RE.findall(text.lower())}
    assert vector_bytes(enc.encode_many(texts)) == expected
    assert len(digests) == digests_per_token * len(distinct)
    token_bytes = sum(len(token.encode("utf-8")) for token in distinct)
    assert sum(fed) == token_bytes + 4 * len(digests)


def test_a_batch_crossing_the_token_bound_encodes_like_single_texts():
    enc = HashEncoder(dimension=8, seed=1)
    enc.encode(" ".join(f"warm{i}" for i in range(_TOKEN_LIMIT - 1000)))
    # 3000 new tokens take the table past its bound mid-batch; then one batch
    # holds more distinct tokens than the bound on its own.
    crossing = [" ".join(f"c{j}x{i} warm{i}" for i in range(100)) for j in range(30)]
    larger = [" ".join(f"l{j}x{i}" for i in range(1000)) for j in range(_TOKEN_LIMIT // 1000 + 2)]
    for batch in (crossing, larger, crossing):
        expected = vector_bytes([HashEncoder(dimension=8, seed=1).encode(t) for t in batch])
        assert vector_bytes(enc.encode_many(batch)) == expected
        assert len(enc._rows) <= _TOKEN_LIMIT and len(enc._coords) <= _TOKEN_LIMIT


def test_threads_sharing_an_encoder_get_single_threaded_bytes(monkeypatch):
    # A tiny table makes every few batches grow or restart it, under a short
    # switch interval, so a lookup racing a restart would read wrong rows.
    monkeypatch.setattr(embedding, "_TOKEN_LIMIT", 64)
    monkeypatch.setattr(embedding, "_MIN_TABLE_ROWS", 8)
    rng = random.Random(5)
    words = [f"v{i}" for i in range(400)]
    work = [
        [" ".join(rng.sample(words, rng.randint(1, 12))) for _ in range(150)] for _ in range(6)
    ]
    expected = [vector_bytes(HashEncoder(48, seed=2).encode(t) for t in texts) for texts in work]
    shared = HashEncoder(48, seed=2)
    results = [None] * len(work)

    def run(slot):
        results[slot] = vector_bytes(
            vec for pair in zip(work[slot][::2], work[slot][1::2])
            for vec in shared.encode_many(pair)
        )

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(slot,)) for slot in range(len(work))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert results == expected


@pytest.mark.parametrize(
    "dimension, seed, digest",
    [
        (DEFAULT_DIMENSION, 0, "4d4c2b5a49820f115c784d78833d6d6b67b0c93a66505bc7430d90f3181c4a22"),
        (64, 7, "49946f3f57fbd21afa758ae43d71fbba558479b2ae604540f6d2d675ff835925"),
    ],
    ids=["default", "d64-seed7"],
)
def test_hash_encoder_golden_digest(dimension, seed, digest):
    # Pins the encoder's exact bytes: stored embeddings and the embedding
    # check on open depend on every bit staying the same.
    enc = HashEncoder(dimension=dimension, seed=seed)
    stream = hashlib.sha256()
    for line in DIALOGUE.read_text("utf-8").splitlines():
        stream.update(enc.encode(line).tobytes())
    assert stream.hexdigest() == digest


def test_output_is_read_only():
    enc = HashEncoder(dimension=16, seed=0)
    vec = enc.encode("stone")
    with pytest.raises(ValueError):
        vec[0] = 2.0


def test_small_dimensions_still_work():
    for dimension in (1, 2, 3, 7, 8):
        enc = HashEncoder(dimension=dimension, seed=4)
        vec = enc.encode("river stone bread")
        assert vec.shape == (dimension,)
        assert abs(np.linalg.norm(vec.astype(np.float64)) - 1.0) <= 1e-6


def test_constructor_guards():
    with pytest.raises(ValueError):
        HashEncoder(dimension=0)
    with pytest.raises(ValueError):
        HashEncoder(seed=-1)
    with pytest.raises(ValueError):
        HashEncoder(seed=2**64)


@pytest.mark.parametrize("dimension", [True, 8.7])
def test_hash_encoder_refuses_a_dimension_that_is_not_a_count(dimension):
    with pytest.raises(ValueError, match="dimension"):
        HashEncoder(dimension=dimension)


@pytest.mark.parametrize("seed", [1.5, True])
def test_hash_encoder_refuses_a_seed_that_is_not_an_int(seed):
    with pytest.raises(ValueError, match="seed"):
        HashEncoder(seed=seed)


def test_remote_encoder_refuses_a_dimension_that_is_not_a_count():
    with pytest.raises(ValueError, match="dimension"):
        RemoteEncoder(url="http://e", model="m", dimension=2.5)


@pytest.mark.parametrize("seconds", [True, "30"])
def test_remote_encoder_refuses_a_timeout_that_is_not_a_number(seconds):
    with pytest.raises(ValueError, match="embedding timeout must be"):
        RemoteEncoder(url="http://e", model="m", timeout=seconds)


def test_disjoint_vocabularies_score_near_zero():
    # spread of random disjoint-token pairs stays decorrelated
    enc = HashEncoder(dimension=384, seed=0)
    rng = random.Random(7)
    left_words = [f"alpha{i}" for i in range(200)]
    right_words = [f"omega{i}" for i in range(200)]
    for _ in range(100):
        a = enc.encode(" ".join(rng.sample(left_words, 6)))
        b = enc.encode(" ".join(rng.sample(right_words, 6)))
        raw = float(np.dot(a.astype(np.float64), b.astype(np.float64)))
        assert abs(raw) < 0.2


# ---------------------------------------------------------------------------
# remote encoder against a canned HTTP session


class FakeResponse:
    def __init__(self, status_code, body):
        self.status_code = status_code
        self._body = body

    def json(self):
        return self._body


class FakeSession:
    def __init__(self, responses):
        self.responses = list(responses)
        self.requests = []

    def post(self, url, json=None, headers=None, timeout=None):
        self.requests.append({"url": url, "json": json, "headers": headers})
        return self.responses.pop(0)


def embedding_body(vectors):
    return {
        "data": [
            {"index": i, "embedding": list(map(float, vec))}
            for i, vec in enumerate(vectors)
        ]
    }


def test_remote_encoder_normalizes_and_orders_rows():
    session = FakeSession(
        [FakeResponse(200, embedding_body([[3.0, 0.0, 0.0], [0.0, 0.0, 2.0]]))]
    )
    enc = RemoteEncoder(url="http://e", model="m", dimension=3, session=session)
    assert enc.deterministic is False
    vecs = enc.encode_many(["one", "two"])
    assert np.allclose(vecs[0], [1.0, 0.0, 0.0])
    assert np.allclose(vecs[1], [0.0, 0.0, 1.0])
    assert session.requests[0]["json"] == {"model": "m", "input": ["one", "two"]}


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("scale", [1e200, 1e-200])
def test_remote_encoder_normalizes_rows_whose_squares_leave_float64(scale):
    # the plain norm of these rows overflows to inf or underflows to 0
    session = FakeSession([FakeResponse(200, embedding_body([[scale, scale, 0.0, 0.0]]))])
    enc = RemoteEncoder(url="http://e", model="m", dimension=4, session=session)
    expected = (np.array([1.0, 1.0, 0.0, 0.0]) / np.sqrt(2.0)).astype(np.float32)
    assert np.array_equal(enc.encode("text"), expected)


def test_remote_encoder_handles_blank_texts_locally():
    session = FakeSession([FakeResponse(200, embedding_body([[0.0, 5.0, 0.0]]))])
    enc = RemoteEncoder(url="http://e", model="m", dimension=3, session=session)
    vecs = enc.encode_many(["", "real text", "  "])
    assert np.array_equal(vecs[0], basis_vector(3))
    assert np.allclose(vecs[1], [0.0, 1.0, 0.0])
    assert np.array_equal(vecs[2], basis_vector(3))
    # only the non-blank text went over the wire
    assert session.requests[0]["json"]["input"] == ["real text"]


def test_remote_encoder_error_paths():
    enc = RemoteEncoder(
        url="http://e",
        model="m",
        dimension=3,
        session=FakeSession([FakeResponse(503, {})]),
    )
    with pytest.raises(BackendUnavailable):
        enc.encode("text")

    enc = RemoteEncoder(
        url="http://e",
        model="m",
        dimension=3,
        session=FakeSession([FakeResponse(200, {"nope": []})]),
    )
    with pytest.raises(BackendUnavailable):
        enc.encode("text")

    enc = RemoteEncoder(
        url="http://e",
        model="m",
        dimension=3,
        session=FakeSession([FakeResponse(200, embedding_body([[1.0, 0.0]]))]),
    )
    with pytest.raises(DimensionMismatch):
        enc.encode("text")

    enc = RemoteEncoder(
        url="http://e",
        model="m",
        dimension=3,
        session=FakeSession([FakeResponse(200, embedding_body([[0.0, 0.0, 0.0]]))]),
    )
    with pytest.raises(BackendUnavailable):
        enc.encode("text")

    # Rows must carry the indices 0..n-1, each embedding a flat array of
    # JSON numbers; anything else is the service's fault, not a dimension.
    one = [1.0, 0.0, 0.0]
    for rows in (
        [{"index": 0, "embedding": {"x": 1.0}}],
        [{"index": 0, "embedding": ["x", 0.0, 0.0]}],
        [{"index": 0, "embedding": [True, 0.0, 0.0]}],
        [{"index": 0, "embedding": [[1.0]] * 3}],
        [{"index": 0, "embedding": [10**400, 0.0, 0.0]}],
        [{"index": 0, "embedding": [float("inf"), 0.0, 0.0]}],
        [{"index": 0, "embedding": [float("nan"), 1.0, 0.0]}],
        [{"index": True, "embedding": one}],
        [{"index": "0", "embedding": one}],
        [{"index": 1, "embedding": one}, {"index": 1, "embedding": one}],
        [{"index": 5, "embedding": one}, {"index": 7, "embedding": one}],
    ):
        session = FakeSession([FakeResponse(200, {"data": rows})])
        enc = RemoteEncoder(url="http://e", model="m", dimension=3, session=session)
        with pytest.raises(BackendUnavailable):
            enc.encode_many(["text"] * len(rows))


def test_remote_encoder_sends_api_key_header():
    session = FakeSession([FakeResponse(200, embedding_body([[1.0, 0.0, 0.0]]))])
    enc = RemoteEncoder(
        url="http://e", model="m", dimension=3, session=session, api_key="sekrit"
    )
    enc.encode("text")
    assert session.requests[0]["headers"]["Authorization"] == "Bearer sekrit"
