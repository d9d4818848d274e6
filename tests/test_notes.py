"""Note model tests: ids, timestamps, invariants, and the canonical encoding.

The canonical encoding is the backbone of persistence and change detection,
so the round-trip property gets hammered with randomized notes: encode,
decode, re-encode must reproduce the exact bytes, embeddings included.
"""

import json
import random
import sys
import zlib
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from amem.errors import EmptyContent, InvalidTimestamp
from amem.notes import (
    CANONICAL_FIELDS,
    IdGenerator,
    MemoryNote,
    canonical_json,
    compose_note_text,
    embedding_crc,
    is_derived_record,
    is_note_id,
    join_float32,
    normalize_terms,
    note_text,
    now_timestamp,
    record_text,
    revise,
    validate_timestamp,
)
from oracles import per_element_embedding, read_back, strptime_timestamp_ok

IDS = IdGenerator(seed=7)


def make_note(rng, dimension=16, links=()):
    vec = np.asarray([rng.uniform(-2.0, 2.0) for _ in range(dimension)], dtype=np.float32)
    keywords = tuple(f"kw{rng.randrange(1000)}-{i}" for i in range(rng.randint(1, 4)))
    tags = tuple(f"topic:t{rng.randrange(1000)}-{i}" for i in range(rng.randint(1, 4)))
    return MemoryNote(
        id=IDS.fresh(),
        content=rng.choice(
            [
                "plain ascii content",
                "unicode content: straße, 東京, héron",
                'quotes "inside" and back\\slashes',
                "line one\nline two",
                "  padded  spacing  ",
            ]
        )
        + f" #{rng.randrange(10**6)}",
        timestamp=f"2023-{rng.randint(1, 12):02d}-{rng.randint(1, 28):02d}T{rng.randint(0, 23):02d}:{rng.randint(0, 59):02d}:{rng.randint(0, 59):02d}Z",
        keywords=keywords,
        tags=tags,
        context=rng.choice(["Discusses things.", "Context with ünicode."]),
        embedding=vec,
        links=frozenset(links),
    )


# ---------------------------------------------------------------------------
# ids


def test_id_generator_seeded_replay():
    a = IdGenerator(seed=42)
    b = IdGenerator(seed=42)
    ids_a = [a.fresh() for _ in range(20)]
    ids_b = [b.fresh() for _ in range(20)]
    assert ids_a == ids_b
    assert len(set(ids_a)) == 20
    for note_id in ids_a:
        assert is_note_id(note_id)


def test_id_generator_skips_taken_ids():
    gen = IdGenerator(seed=42)
    first = gen.fresh()
    redraw = IdGenerator(seed=42).fresh(taken={first})
    assert redraw != first
    assert is_note_id(redraw)


def test_id_generator_unseeded_draws_unique():
    gen = IdGenerator()
    drawn = {gen.fresh() for _ in range(50)}
    assert len(drawn) == 50


def test_is_note_id_rejects_malformed():
    assert not is_note_id("xyz")
    assert not is_note_id("A" * 32)
    assert not is_note_id("0" * 31)
    # canonical_json writes ids between literal quotes
    assert not is_note_id("0" * 32 + "\n")
    assert not is_note_id(123)
    assert is_note_id("0" * 32)


# ---------------------------------------------------------------------------
# timestamps


def test_validate_timestamp_accepts_canonical_form():
    assert validate_timestamp("2023-11-17T10:54:00Z") == "2023-11-17T10:54:00Z"
    assert validate_timestamp("1999-01-01T00:00:00Z") == "1999-01-01T00:00:00Z"


def test_validate_timestamp_rejects_bad_shapes():
    for bad in (
        "2023-11-17 10:54:00",
        "2023-11-17T10:54:00",
        "2023-11-17T10:54Z",
        "23-11-17T10:54:00Z",
        "2023-13-01T00:00:00Z",
        "2023-02-30T00:00:00Z",
        "2023-11-17T24:00:00Z",
        "2023-11-17T10:54:00Z\n",
        "\u0662\u0660\u0662\u0663-11-17T10:54:00Z",
        "",
        None,
    ):
        with pytest.raises(InvalidTimestamp):
            validate_timestamp(bad)


def _two_digits(low, high):
    return st.integers(low, high).map("{:02d}".format)


@settings(max_examples=500, deadline=None)
@given(
    value=st.one_of(
        st.tuples(
            st.integers(0, 9999).map("{:04d}".format),
            _two_digits(0, 13),
            _two_digits(0, 32),
            _two_digits(0, 25),
            _two_digits(0, 61),
            _two_digits(0, 62),
        ).map(lambda p: f"{p[0]}-{p[1]}-{p[2]}T{p[3]}:{p[4]}:{p[5]}Z"),
        st.sampled_from(
            [
                "0000-01-01T00:00:00Z",
                "0001-01-01T00:00:00Z",
                "2023-06-01T12:00:60Z",
                "2023-06-01T12:00:61Z",
                "2024-02-29T00:00:00Z",
                "2023-02-29T00:00:00Z",
                "1900-02-29T00:00:00Z",
                "2000-02-29T00:00:00Z",
                "9999-12-31T23:59:59Z",
            ]
        ),
    )
)
def test_validate_timestamp_agrees_with_strptime(value):
    try:
        validate_timestamp(value)
        accepted = True
    except InvalidTimestamp:
        accepted = False
    assert accepted == strptime_timestamp_ok(value)


def test_valid_timestamps_sort_chronologically():
    stamps = [
        "2022-12-31T23:59:59Z",
        "2023-01-01T00:00:00Z",
        "2023-01-01T00:00:01Z",
        "2023-10-09T07:00:00Z",
    ]
    assert sorted(stamps) == stamps


def test_now_timestamp_is_canonical():
    validate_timestamp(now_timestamp())


# ---------------------------------------------------------------------------
# term normalization and note text


def test_normalize_terms_lowercases_trims_dedups():
    assert normalize_terms([" Photography", "photography", "CAMERA ", "", "  "]) == (
        "photography",
        "camera",
    )


def test_normalize_terms_preserves_first_seen_order():
    assert normalize_terms(["b", "a", "B", "c", "a"]) == ("b", "a", "c")


def test_compose_note_text_layout():
    text = compose_note_text("content here", ("k1", "k2"), ("t1",), "the context")
    assert text == "content here\nk1, k2\nt1\nthe context"


def test_note_text_uses_note_fields(rng=random.Random(0)):
    note = make_note(rng)
    assert note_text(note) == compose_note_text(
        note.content, note.keywords, note.tags, note.context
    )


# ---------------------------------------------------------------------------
# note invariants


def test_note_rejects_malformed_id():
    rng = random.Random(1)
    good = make_note(rng)
    with pytest.raises(ValueError):
        MemoryNote(
            id="nope",
            content=good.content,
            timestamp=good.timestamp,
            keywords=good.keywords,
            tags=good.tags,
            context=good.context,
            embedding=good.embedding,
        )


def test_note_rejects_empty_content_and_context():
    rng = random.Random(2)
    good = make_note(rng)
    with pytest.raises(EmptyContent):
        MemoryNote(
            id=IDS.fresh(),
            content="  ",
            timestamp=good.timestamp,
            keywords=good.keywords,
            tags=good.tags,
            context=good.context,
            embedding=good.embedding,
        )
    with pytest.raises(ValueError):
        MemoryNote(
            id=IDS.fresh(),
            content="fine",
            timestamp=good.timestamp,
            keywords=good.keywords,
            tags=good.tags,
            context="   ",
            embedding=good.embedding,
        )


def test_note_requires_normalized_nonempty_terms():
    rng = random.Random(3)
    good = make_note(rng)
    base = dict(
        id=IDS.fresh(),
        content="fine",
        timestamp=good.timestamp,
        context="ok context",
        embedding=good.embedding,
    )
    with pytest.raises(ValueError):
        MemoryNote(keywords=(), tags=("t",), **base)
    with pytest.raises(ValueError):
        MemoryNote(keywords=("k",), tags=(), **base)
    with pytest.raises(ValueError):
        MemoryNote(keywords=("Upper",), tags=("t",), **base)
    with pytest.raises(ValueError):
        MemoryNote(keywords=(" padded",), tags=("t",), **base)
    with pytest.raises(ValueError):
        MemoryNote(keywords=("dup", "dup"), tags=("t",), **base)


def test_note_embedding_checks():
    rng = random.Random(4)
    good = make_note(rng)
    base = dict(
        id=IDS.fresh(),
        content="fine",
        timestamp=good.timestamp,
        keywords=("k",),
        tags=("t",),
        context="ok",
    )
    with pytest.raises(ValueError):
        MemoryNote(embedding=np.zeros((2, 2), dtype=np.float32), **base)
    with pytest.raises(ValueError):
        MemoryNote(embedding=np.zeros(0, dtype=np.float32), **base)
    with pytest.raises(ValueError):
        MemoryNote(embedding=np.asarray([1.0, np.nan], dtype=np.float32), **base)
    with pytest.raises(ValueError):
        MemoryNote(embedding=np.asarray([np.inf, 0.0], dtype=np.float32), **base)


def test_note_embedding_is_an_isolated_readonly_copy():
    source = np.asarray([1.0, 2.0, 3.0], dtype=np.float32)
    note = MemoryNote(
        id=IDS.fresh(),
        content="c",
        timestamp="2023-01-01T00:00:00Z",
        keywords=("k",),
        tags=("t",),
        context="ctx",
        embedding=source,
    )
    source[0] = 99.0
    assert note.embedding[0] == 1.0
    with pytest.raises(ValueError):
        note.embedding[0] = 5.0


def test_note_rejects_self_link_and_bad_link_ids():
    note_id = IDS.fresh()
    base = dict(
        content="c",
        timestamp="2023-01-01T00:00:00Z",
        keywords=("k",),
        tags=("t",),
        context="ctx",
        embedding=np.ones(4, dtype=np.float32),
    )
    with pytest.raises(ValueError):
        MemoryNote(id=note_id, links=frozenset({note_id}), **base)
    with pytest.raises(ValueError):
        MemoryNote(id=note_id, links=frozenset({"not-an-id"}), **base)


@pytest.mark.parametrize(
    "name, value, error",
    [
        ("content", None, EmptyContent),
        ("keywords", None, ValueError),
        ("keywords", ("k", 1), ValueError),
        ("tags", ["t", 1], ValueError),
        ("context", 5, ValueError),
    ],
)
def test_a_field_that_is_not_text_gets_its_own_checks_verdict(name, value, error):
    # The note text cannot be composed of these values; the field's own
    # check refuses them, with its class, before the text is checked.
    base = dict(
        id=IDS.fresh(),
        content="c",
        timestamp="2023-01-01T00:00:00Z",
        keywords=("k",),
        tags=("t",),
        context="ctx",
        embedding=np.ones(4, dtype=np.float32),
    )
    with pytest.raises(error):
        MemoryNote(**{**base, name: value})


def test_note_rejects_lone_surrogates():
    base = dict(
        id=IDS.fresh(),
        content="c",
        timestamp="2023-01-01T00:00:00Z",
        keywords=("k",),
        tags=("t",),
        context="ctx",
        embedding=np.ones(4, dtype=np.float32),
    )
    for name, value in (
        ("content", "bad \udcff note"),
        ("context", "\ud800 context"),
        ("keywords", ("ok", "k\udfff")),
        ("tags", ("t\ud83d",)),
    ):
        with pytest.raises(ValueError, match="lone surrogate"):
            MemoryNote(**{**base, name: value})
    # a surrogate pair written as two code points is two lone surrogates
    with pytest.raises(ValueError, match="lone surrogate"):
        MemoryNote(**{**base, "content": "\ud83d\ude00"})
    MemoryNote(**{**base, "content": "\U0001f600 fine"})


def test_note_equality_covers_every_field():
    rng = random.Random(5)
    note = make_note(rng)
    same = read_back(json.loads(canonical_json(note)))
    assert note == same
    assert hash(note) == hash(same)
    bumped = np.array(note.embedding)
    bumped[0] += 1.0
    other = MemoryNote(
        id=note.id,
        content=note.content,
        timestamp=note.timestamp,
        keywords=note.keywords,
        tags=note.tags,
        context=note.context,
        embedding=bumped,
        links=note.links,
    )
    assert note != other


def test_note_equality_agrees_with_canonical_bytes_on_signed_zeros():
    rng = random.Random(6)
    note = make_note(rng, dimension=2)
    pair = [
        MemoryNote(
            id=note.id,
            content=note.content,
            timestamp=note.timestamp,
            keywords=note.keywords,
            tags=note.tags,
            context=note.context,
            embedding=np.array(values, dtype=np.float32),
        )
        for values in ([1.0, 0.0], [1.0, -0.0])
    ]
    assert canonical_json(pair[0]).encode() != canonical_json(pair[1]).encode()
    assert pair[0] != pair[1]


# ---------------------------------------------------------------------------
# canonical encoding


def test_join_float32_round_trips_bitwise():
    rng = random.Random(6)
    values = [rng.uniform(-1e6, 1e6) for _ in range(500)]
    values += [0.0, -0.0, 1e-30, -1e-30, 3.4e38, 1.1754944e-38]
    narrowed = np.asarray(values, dtype=np.float32)
    reparsed = np.asarray([float(text) for text in join_float32(narrowed).split(",")], dtype=np.float32)
    assert reparsed.tobytes() == narrowed.tobytes()


def test_canonical_json_field_order_and_separators():
    rng = random.Random(7)
    note = make_note(rng)
    text = canonical_json(note)
    data = json.loads(text)
    assert tuple(data.keys()) == CANONICAL_FIELDS
    # compact separators: every field name is followed directly by its value
    for name in CANONICAL_FIELDS:
        assert f'"{name}":' in text
        assert f'"{name}": ' not in text
    assert text.startswith('{"id":')
    assert text.endswith("}")


def test_canonical_json_sorts_links():
    rng = random.Random(8)
    linked = sorted(IDS.fresh() for _ in range(5))
    note = make_note(rng, links=linked)
    data = json.loads(canonical_json(note))
    assert data["links"] == linked


def test_every_linkless_note_shares_one_empty_link_set():
    rng = random.Random(9)
    note = make_note(rng)
    linked = make_note(rng, links=[IDS.fresh()])
    record = json.loads(canonical_json(note))
    derived = json.loads(canonical_json(note, derived=True))
    linkless = [
        note,
        make_note(rng, links=[]),
        replace(linked, links=()),
        read_back(record),
        read_back(derived, note.embedding),
        revise(linked, links=[]),
        revise(linked, links=frozenset()),
        revise(note, tags=("topic:other",)),
    ]
    assert all(built.links == frozenset() for built in linkless)
    assert len({id(built.links) for built in linkless}) == 1
    assert linked.links and revise(linked, context="Other.").links is linked.links


def test_canonical_json_keeps_unicode_raw():
    note = MemoryNote(
        id=IDS.fresh(),
        content="東京 héron straße",
        timestamp="2023-01-01T00:00:00Z",
        keywords=("kéy",),
        tags=("topic:ünï",),
        context="ctx",
        embedding=np.ones(3, dtype=np.float32),
    )
    blob = canonical_json(note).encode()
    assert "東京".encode("utf-8") in blob
    assert b"\\u" not in blob


def test_canonical_round_trip_randomized():
    rng = random.Random(9)
    for _ in range(100):
        note = make_note(rng, dimension=rng.randint(1, 48), links=[IDS.fresh() for _ in range(rng.randint(0, 4))])
        blob = canonical_json(note).encode()
        back = read_back(json.loads(blob))
        assert back == note
        assert back.embedding.dtype == np.float32
        assert canonical_json(back).encode() == blob


def dumps(value):
    return json.dumps(value, ensure_ascii=False, separators=(",", ":"))


def reference_json(note, derived=False):
    """A note's canonical JSON as json.dumps writes it, field by field."""
    if derived:
        embedding = f'"embedding_crc":{zlib.crc32(note.embedding.astype("<f4").tobytes())}'
    else:
        embedding = f'"embedding":{per_element_embedding(note.embedding)}'
    return (
        f'{{"id":{dumps(note.id)},"content":{dumps(note.content)},'
        f'"timestamp":{dumps(note.timestamp)},"keywords":{dumps(list(note.keywords))},'
        f'"tags":{dumps(list(note.tags))},"context":{dumps(note.context)},'
        f'{embedding},"links":{dumps(sorted(note.links))}}}'
    )


def test_canonical_json_matches_a_json_dumps_reference():
    # canonical_json calls no json.dumps; the text must be what json.dumps
    # would have written.
    rng = random.Random(11)
    for n_links in (0, 1, 2, 5):
        note = make_note(rng, links=[IDS.fresh() for _ in range(n_links)])
        assert canonical_json(note) == reference_json(note)
        assert canonical_json(note, derived=True) == reference_json(note, derived=True)


def _float32s(*values):
    return np.asarray(values, dtype=np.float32)


@pytest.mark.parametrize(
    "vec",
    [
        _float32s(0.0, -0.0, 0.0, 1.0, -0.0),
        _float32s(-0.0, 0.0, -0.0),
        _float32s(1e-45, -1e-45, 1.17549435e-38, 1e-45, 0.0),
        _float32s(3.40282347e38, -3.40282347e38, 3.40282347e38),
        _float32s(1e-05, 1e09, -1e-05, 1e09, 0.1),
        np.full(384, 0.0510310382, dtype=np.float32),
        _float32s(-0.0),
        _float32s(0.25),
        np.arange(-8, 8, dtype=np.float32) / np.float32(3.0),
    ],
    ids=[
        "signed-zeros",
        "negative-zero-first",
        "subnormals",
        "max-finite",
        "exponent-form",
        "all-one-value",
        "one-negative-zero",
        "one-element",
        "all-distinct",
    ],
)
def test_encode_embedding_matches_per_element_oracle(vec):
    assert "[" + join_float32(vec) + "]" == per_element_embedding(vec)


# Any finite float32 by its bits, with the signed zeros, the smallest
# subnormals and the largest finite values drawn often.
FINITE_FLOAT32_BITS = st.one_of(
    st.sampled_from([0x00000000, 0x80000000, 0x00000001, 0x80000001, 0x7F7FFFFF, 0xFF7FFFFF]),
    st.integers(0, 2**32 - 1).filter(lambda b: (b >> 23) & 0xFF != 0xFF),
)


@settings(max_examples=300, deadline=None)
@given(
    pool=st.lists(FINITE_FLOAT32_BITS, min_size=1, max_size=400),
    picks=st.lists(st.integers(0, 399), min_size=1, max_size=400),
)
def test_encode_embedding_matches_per_element_oracle_property(pool, picks):
    # Vectors drawn from raw bit patterns: every finite float32, signed
    # zeros and subnormals included, with as many repeats as the pool allows.
    vec = np.asarray([pool[i % len(pool)] for i in picks], dtype=np.uint32).view(np.float32)
    assert "[" + join_float32(vec) + "]" == per_element_embedding(vec)


def test_is_derived_record_rejects_wrong_key_sets():
    rng = random.Random(10)
    note = make_note(rng)
    data = json.loads(canonical_json(note))
    missing = dict(data)
    del missing["tags"]
    with pytest.raises(ValueError):
        is_derived_record(missing)
    extra = dict(data)
    extra["surprise"] = 1
    with pytest.raises(ValueError):
        is_derived_record(extra)
    with pytest.raises(ValueError):
        is_derived_record(["not", "a", "dict"])



@pytest.mark.parametrize("name", ["id", "content", "timestamp", "context"])
def test_is_derived_record_rejects_a_text_field_that_is_not_text(name):
    data = json.loads(canonical_json(make_note(random.Random(10))))
    with pytest.raises(ValueError, match=f"^{name} must be text$"):
        is_derived_record({**data, name: 5})


def test_a_derived_record_swaps_the_floats_for_their_crc():
    note = make_note(random.Random(11))
    stored = json.loads(canonical_json(note))
    derived = json.loads(canonical_json(note, derived=True))
    assert list(derived) == [
        "embedding_crc" if key == "embedding" else key for key in CANONICAL_FIELDS
    ]
    crc = derived.pop("embedding_crc")
    assert derived == {key: value for key, value in stored.items() if key != "embedding"}
    derived["embedding_crc"] = crc
    # the CRC-32 of the little-endian float32 bytes
    assert derived["embedding_crc"] == zlib.crc32(note.embedding.astype("<f4").tobytes())
    assert record_text(derived) == note_text(note)
    back = read_back(derived, note.embedding)
    assert back == note and canonical_json(back, derived=True) == canonical_json(note, derived=True)
    flipped = note.embedding.copy()
    flipped.view(np.uint32)[3] ^= 1
    with pytest.raises(ValueError, match="does not match its embedding_crc"):
        read_back(derived, flipped)
    # Without a deterministic encoder the load refuses the record before
    # any note is built: test_a_derived_record_refuses_a_non_deterministic_encoder.


@pytest.mark.parametrize(
    "vec",
    [
        np.arange(40, dtype=np.float32)[::3],
        np.asfortranarray(np.arange(12, dtype=np.float32).reshape(3, 4)),
        (np.arange(9, dtype=np.float32) - 4.5).astype(">f4"),
        np.linspace(-1.0, 1.0, 9),
    ],
    ids=["strided", "fortran-order", "big-endian", "float64"],
)
def test_embedding_crc_is_the_crc_of_the_little_endian_float32_bytes(vec):
    expected = zlib.crc32(vec.astype("<f4").tobytes())
    assert embedding_crc(vec) == expected
    frozen = vec.copy()
    frozen.setflags(write=False)
    assert embedding_crc(frozen) == expected


# Any text. Lone surrogates are all but absent from it, so one is put into
# a drawn field of about half the notes.
ANY_TEXT = st.text(st.characters(codec=None, exclude_categories=()), min_size=1, max_size=12)
# Any text, with what JSON escapes or may be mis-escaped drawn often:
# quotes, backslashes, control characters, U+2028/U+2029 and characters
# beyond the BMP.
ESCAPE_TEXT = ANY_TEXT | st.text(
    st.sampled_from('"\\/\x00\x08\x1f\x7f\x85\n\r\t\u2028\u2029\ufeff\U0001f600\U0010ffff')
    | st.characters(codec=None, exclude_categories=("Cs",)),
    min_size=1,
    max_size=12,
)
NOTE_IDS = st.integers(0, 2**128 - 1).map("{:032x}".format)
LONE_SURROGATE = st.tuples(
    st.sampled_from(["content", "context", "keywords", "tags"]),
    st.sampled_from("\ud800\udbff\udc00\udfff"),
)


@settings(max_examples=400, deadline=None)
@given(
    note_id=NOTE_IDS,
    content=ANY_TEXT,
    moment=st.datetimes(),
    keywords=st.lists(ANY_TEXT, min_size=1, max_size=3),
    tags=st.lists(ANY_TEXT, min_size=1, max_size=3),
    context=ANY_TEXT,
    bits=st.lists(FINITE_FLOAT32_BITS, min_size=1, max_size=24),
    links=st.lists(NOTE_IDS, max_size=3),
    surrogate=st.none() | LONE_SURROGATE,
)
def test_every_accepted_note_round_trips_bit_for_bit(
    note_id, content, moment, keywords, tags, context, bits, links, surrogate
):
    # Either MemoryNote refuses the draw, or the UTF-8 bytes of its
    # canonical JSON read back to an equal note with the same text.
    text_fields = {
        "content": content,
        "context": context,
        "keywords": normalize_terms(keywords),
        "tags": normalize_terms(tags),
    }
    if surrogate is not None:
        name, char = surrogate
        text_fields[name] += (char,) if name in ("keywords", "tags") else char
    timestamp = (
        f"{moment.year:04d}-{moment.month:02d}-{moment.day:02d}"
        f"T{moment.hour:02d}:{moment.minute:02d}:{moment.second:02d}Z"
    )
    try:
        note = MemoryNote(
            id=note_id,
            timestamp=timestamp,
            embedding=np.asarray(bits, dtype=np.uint32).view(np.float32),
            links=frozenset(links),
            **text_fields,
        )
    except (ValueError, EmptyContent):
        return
    text = canonical_json(note)
    back = read_back(json.loads(text.encode("utf-8")))
    assert back == note
    assert canonical_json(back) == text


@settings(max_examples=400, deadline=None)
@given(
    note_id=NOTE_IDS,
    content=ESCAPE_TEXT,
    keywords=st.lists(ESCAPE_TEXT, min_size=1, max_size=3),
    tags=st.lists(ESCAPE_TEXT, min_size=1, max_size=3),
    context=ESCAPE_TEXT,
    bits=st.lists(FINITE_FLOAT32_BITS, min_size=1, max_size=8),
    links=st.lists(NOTE_IDS, max_size=3),
)
def test_canonical_json_matches_a_json_dumps_reference_on_any_text(
    note_id, content, keywords, tags, context, bits, links
):
    try:
        note = MemoryNote(
            id=note_id,
            content=content,
            timestamp="2024-02-29T23:59:59Z",
            keywords=normalize_terms(keywords),
            tags=normalize_terms(tags),
            context=context,
            embedding=np.asarray(bits, dtype=np.uint32).view(np.float32),
            links=frozenset(links),
        )
    except (ValueError, EmptyContent):
        return
    for derived in (False, True):
        assert canonical_json(note, derived) == reference_json(note, derived)


def test_a_replaced_note_renders_its_own_fields_not_its_parents():
    # The derived text a note keeps is its own: replace builds a note that
    # carries none, so each generation renders from its own fields.
    parent = make_note(random.Random(13))
    parent_text = canonical_json(parent, derived=True)
    relinked = replace(parent, links=frozenset([IDS.fresh()]))
    assert canonical_json(relinked, derived=True) == reference_json(relinked, derived=True)
    assert canonical_json(relinked, derived=True) != parent_text
    recontexted = replace(relinked, context="A rewritten context.")
    assert canonical_json(recontexted, derived=True) == reference_json(recontexted, derived=True)
    assert canonical_json(parent, derived=True) == parent_text


@settings(max_examples=200, deadline=None)
@given(
    note_id=NOTE_IDS,
    content=ESCAPE_TEXT,
    keywords=st.lists(ESCAPE_TEXT, min_size=1, max_size=3),
    tags=st.lists(ESCAPE_TEXT, min_size=1, max_size=3),
    context=ESCAPE_TEXT,
    bits=st.lists(FINITE_FLOAT32_BITS, min_size=1, max_size=8),
    links=st.lists(NOTE_IDS, max_size=3),
    calls=st.lists(st.booleans(), min_size=1, max_size=6),
)
def test_a_note_renders_what_a_fresh_equal_note_renders_in_any_call_order(
    note_id, content, keywords, tags, context, bits, links, calls
):
    # The derived text a note keeps never answers a stored-form call, and
    # neither form changes with the calls made before it.
    def build():
        return MemoryNote(
            id=note_id,
            content=content,
            timestamp="2024-02-29T23:59:59Z",
            keywords=normalize_terms(keywords),
            tags=normalize_terms(tags),
            context=context,
            embedding=np.asarray(bits, dtype=np.uint32).view(np.float32),
            links=frozenset(links),
        )

    try:
        note = build()
    except (ValueError, EmptyContent):
        return
    for derived in calls:
        assert canonical_json(note, derived) == canonical_json(build(), derived)


def test_threads_that_render_the_same_notes_at_once_all_get_their_records():
    # A note's derived text may be rendered by two threads at once (a
    # journal append and a snapshot); each writes the same text.
    rng = random.Random(17)
    notes = [make_note(rng, links=[IDS.fresh() for _ in range(i % 4)]) for i in range(300)]
    expected = [reference_json(note, derived=True) for note in notes]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            futures = [
                pool.submit(lambda: [canonical_json(note, derived=True) for note in notes])
                for _ in range(8)
            ]
            results = [future.result(timeout=60) for future in futures]
    finally:
        sys.setswitchinterval(interval)
    assert all(result == expected for result in results)
    assert [canonical_json(note, derived=True) for note in notes] == expected


# ---------------------------------------------------------------------------
# once-checked builds give the public constructor's verdict

VALID_TEXT = st.text(st.characters(codec="utf-8"), min_size=1, max_size=12).filter(str.strip)
VALID_TERMS = st.lists(VALID_TEXT, min_size=1, max_size=3).map(normalize_terms).filter(bool)
FLOAT32_VECTORS = st.lists(FINITE_FLOAT32_BITS, min_size=1, max_size=8).map(
    lambda bits: np.asarray(bits, dtype=np.uint32).view(np.float32)
)
# Changes to the fields revise changes, and those only a record brings.
CHANGES = (
    "none", "bad_link", "self_link", "new_links", "blank_context", "new_context",
    "unnormalized_tag", "duplicate_tag", "new_tags", "lone_surrogate",
    "nan_embedding", "new_embedding", "misshapen_embedding",
)
RECORD_CHANGES = ("blank_content", "bad_timestamp", "bad_id", "unnormalized_keyword")


@st.composite
def valid_fields(draw):
    note_id = draw(NOTE_IDS)
    moment = draw(st.datetimes())
    return dict(
        id=note_id,
        content=draw(VALID_TEXT),
        timestamp=(
            f"{moment.year:04d}-{moment.month:02d}-{moment.day:02d}"
            f"T{moment.hour:02d}:{moment.minute:02d}:{moment.second:02d}Z"
        ),
        keywords=draw(VALID_TERMS),
        tags=draw(VALID_TERMS),
        context=draw(VALID_TEXT),
        embedding=draw(FLOAT32_VECTORS),
        links=frozenset(draw(st.lists(NOTE_IDS, max_size=4))) - {note_id},
    )


def draw_change(data, fields, record):
    """One drawn change to fields, of a kind MemoryNote may refuse or not:
    to any field for a record, else only to the fields revise changes."""
    kind = data.draw(st.sampled_from(CHANGES + RECORD_CHANGES if record else CHANGES))
    if kind == "bad_link":
        bad = data.draw(st.sampled_from(["not-an-id", "A" * 32, "0" * 31, "0" * 32 + "\n", 7]))
        return {"links": fields["links"] | {bad}}
    if kind == "self_link":
        return {"links": fields["links"] | {fields["id"]}}
    if kind == "new_links":
        return {"links": fields["links"] | set(data.draw(st.lists(NOTE_IDS, max_size=3)))}
    if kind == "blank_context":
        return {"context": data.draw(st.sampled_from(["", " ", "\n\t "]))}
    if kind == "new_context":
        return {"context": data.draw(ANY_TEXT)}
    if kind == "unnormalized_tag":
        bad = data.draw(st.sampled_from(["Upper", " pad", "", "x\t"]))
        return {"tags": fields["tags"] + (bad,)}
    if kind == "duplicate_tag":
        return {"tags": fields["tags"] + fields["tags"][:1]}
    if kind == "new_tags":
        return {"tags": normalize_terms(data.draw(st.lists(ANY_TEXT, max_size=3)))}
    if kind == "lone_surrogate":
        names = ["content", "keywords", "tags", "context"] if record else ["tags", "context"]
        name = data.draw(st.sampled_from(names))
        char = data.draw(st.sampled_from("\ud800\udbff\udc00\udfff"))
        terms = name in ("keywords", "tags")
        return {name: fields[name] + ((char,) if terms else char)}
    if kind == "nan_embedding":
        vec = fields["embedding"].copy()
        vec[data.draw(st.integers(0, vec.size - 1))] = data.draw(
            st.sampled_from([np.nan, np.inf, -np.inf])
        )
        return {"embedding": vec}
    if kind == "new_embedding":
        return {"embedding": data.draw(FLOAT32_VECTORS)}
    if kind == "misshapen_embedding":
        shape = data.draw(st.sampled_from([(0,), (2, 2)]))
        return {"embedding": np.ones(shape, dtype=np.float32)}
    if kind == "blank_content":
        return {"content": data.draw(st.sampled_from(["", "  \n"]))}
    if kind == "bad_timestamp":
        bad = data.draw(st.sampled_from(["2023-02-30T00:00:00Z", "2023-1-01T00:00:00Z"]))
        return {"timestamp": bad}
    if kind == "bad_id":
        return {"id": data.draw(st.sampled_from(["nope", "F" * 32]))}
    if kind == "unnormalized_keyword":
        return {"keywords": fields["keywords"] + ("Mixed",)}
    return {}


def verdict(build):
    """The note build() returns, or the class of what it raises."""
    try:
        note = build()
    except Exception as exc:  # the verdict is the exception's class
        return type(exc)
    assert not note.embedding.flags.writeable
    assert type(note.links) is frozenset
    return note


@settings(max_examples=400, deadline=None)
@given(fields=valid_fields(), data=st.data())
def test_note_from_fields_gives_the_constructors_verdict(fields, data):
    changed = {**fields, **draw_change(data, fields, record=True)}
    record = {
        **changed,
        "keywords": list(changed["keywords"]),
        "tags": list(changed["tags"]),
        "links": list(changed["links"]),
        "embedding": changed["embedding"].tolist(),
    }
    derived = {key: value for key, value in record.items() if key != "embedding"}
    derived["embedding_crc"] = embedding_crc(changed["embedding"])
    expected = verdict(lambda: MemoryNote(**changed))
    assert verdict(lambda: read_back(record)) == expected
    assert verdict(lambda: read_back(derived, changed["embedding"])) == expected


@settings(max_examples=400, deadline=None)
@given(fields=valid_fields(), data=st.data())
def test_revise_gives_the_constructors_verdict(fields, data):
    note = MemoryNote(**fields)
    change = draw_change(data, fields, record=False)
    revised = verdict(lambda: revise(note, **change))
    assert revised == verdict(lambda: replace(note, **change))
    if isinstance(revised, MemoryNote) and "embedding" not in change:
        assert revised.embedding is note.embedding
