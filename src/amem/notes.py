"""Core note model: ids, timestamps, the note record, and its canonical encoding.

A memory note is an immutable record of one agent interaction plus the
structure layered on top of it: keywords, tags, a one-sentence context
summary, an embedding of the enriched text, and links to related notes.
Notes are value objects; evolution replaces a note with a rewritten copy
rather than mutating it in place.

The canonical encoding is the one codec of a note: canonical_json writes
it, and a load reads it back in three steps: is_derived_record checks the
record's shape, the load fills the record's row of its embedding matrix,
and note_from_fields builds the note on that row. The journal writes a
note that evolution rewrote as a delta record of the fields evolution
changes (delta_json), and replay merges it onto the note's whole record
(merge_record) before those steps. A record carries the embedding in one
of two ways, never both:

- "embedding": [...], the float32 components as text, stored. Every note
  MemoryNote accepts comes back bit for bit from the UTF-8 bytes of this
  record, and encodes again to the same text. Two notes are equal exactly
  when these texts are.
- "embedding_crc": N, derived. N is the CRC-32 of the embedding's
  little-endian float32 bytes, an integer in [0, 2**32). The reader
  derives the embedding by encoding the note text again with the
  deterministic encoder that wrote the record, and note_from_fields checks
  the derived vector against N.

Each check of a note's values runs once, where the note enters:

- MemoryNote(...) runs every check of every field: _check_fields, then
  the embedding's and the links' checks. The engine builds each new note
  this way.
- note_from_fields runs the same checks, once each, on a loaded record's
  values, then builds the note without __post_init__ (_assemble). It is
  given the record, the record's read-only row of the load's embedding
  matrix, which the load checked once for its whole chunk, and the
  record_text the load composed for its encode_many batch.
- revise builds an evolved note from a checked one and checks only what
  changed: new tags or context and the text they make, a new embedding,
  the links the note did not have. It keeps the note's embedding array,
  and with it the embedding's CRC.

The once-checked builds refuse exactly what the constructor would refuse
of the same values, with the same exception class. All three give every
note without links the one shared empty set, _NO_LINKS.

A note keeps the derived record it was rendered to: canonical_json
renders it once per note object and returns the same text on every later
call. The journal renders each note it adds before the note is
published, and a snapshot sees only published notes, so a snapshot
renders only the notes a rewrite changed (the journal writes their delta,
which is not kept) and each note of a freshly opened store. A links-only
change carries its note's record over, with the links replaced. A note
also keeps its embedding's CRC once known: the load verified it, or a
render computed it, and revise keeps it while the embedding stays. So an
engine computes each embedding's CRC at most once. A note is immutable,
so neither can go stale; dataclasses.replace builds a new note that
carries neither. A rendered note holds its record's text, about
0.1 KB more than the record's length. Stored records are not kept: one
is about 4.6 KB, three times the float32 embedding it spells out. Two
threads may render one note at once: both write the same text.
"""

from __future__ import annotations

import random
import re
import zlib
from dataclasses import dataclass, fields
from datetime import datetime, timezone
from json.encoder import encode_basestring
from typing import Any, Collection, Iterable

import numpy as np

from .errors import EmptyContent, InvalidTimestamp

NoteId = str

_ID_RE = re.compile(r"[0-9a-f]{32}")
_TIMESTAMP_RE = re.compile(r"\d{4}-\d\d-\d\dT\d\d:\d\d:\d\dZ", re.ASCII)
_TIMESTAMP_FMT = "%Y-%m-%dT%H:%M:%SZ"


def is_note_id(value: Any) -> bool:
    """True when value is a 32-character lowercase hex note id."""
    return isinstance(value, str) and _ID_RE.fullmatch(value) is not None


class IdGenerator:
    """Draws fresh 128-bit note ids.

    Seeded generators replay the same id sequence, which keeps full pipeline
    runs byte-reproducible. When a drawn id collides with an existing one the
    generator draws again, so uniqueness never depends on the seed.
    """

    def __init__(self, seed: int | None = None) -> None:
        self._rng: random.Random = (
            random.Random(seed) if seed is not None else random.SystemRandom()
        )

    def fresh(self, taken: Collection[str] = frozenset()) -> NoteId:
        while True:
            candidate = f"{self._rng.getrandbits(128):032x}"
            if candidate not in taken:
                return candidate


def validate_timestamp(value: str) -> str:
    """Return value unchanged if it is a canonical UTC timestamp.

    The only accepted shape is 'YYYY-MM-DDTHH:MM:SSZ' with zero-padded
    fields, so lexicographic order on valid timestamps matches time order.
    Raises InvalidTimestamp otherwise.
    """
    if not isinstance(value, str) or _TIMESTAMP_RE.fullmatch(value) is None:
        raise InvalidTimestamp(f"timestamp not in YYYY-MM-DDTHH:MM:SSZ form: {value!r}")
    try:
        # On this shape, the verdict of strptime with _TIMESTAMP_FMT, at a
        # twentieth of its cost.
        datetime.fromisoformat(value[:-1])
    except ValueError as exc:
        raise InvalidTimestamp(f"timestamp has impossible date or time: {value!r}") from exc
    return value


def now_timestamp() -> str:
    """Current UTC time in canonical timestamp form (seconds precision)."""
    return datetime.now(timezone.utc).strftime(_TIMESTAMP_FMT)


def normalize_terms(terms: Iterable[str]) -> tuple[str, ...]:
    """Lowercase, trim, drop empties, and deduplicate, preserving first-seen order."""
    out: list[str] = []
    seen: set[str] = set()
    for term in terms:
        cleaned = str(term).strip().lower()
        if cleaned and cleaned not in seen:
            seen.add(cleaned)
            out.append(cleaned)
    return tuple(out)


def compose_note_text(
    content: str, keywords: Iterable[str], tags: Iterable[str], context: str
) -> str:
    """Build the enriched text that gets embedded for a note.

    Content, comma-joined keywords, comma-joined tags, and context, one per
    line. Queries are embedded raw and never pass through this composition.
    """
    return "\n".join([content, ", ".join(keywords), ", ".join(tags), context])


def note_text(note: "MemoryNote") -> str:
    """The enriched text a stored note's embedding must correspond to."""
    return compose_note_text(note.content, note.keywords, note.tags, note.context)


# The checks of one field each. MemoryNote's constructor and
# note_from_fields run all of them, the first seven through _check_fields;
# revise runs only those of the fields it changes.


def _check_id(value: Any) -> None:
    if not is_note_id(value):
        raise ValueError(f"malformed note id: {value!r}")


def _check_content(value: Any) -> None:
    if not isinstance(value, str) or not value.strip():
        raise EmptyContent("note content is empty or whitespace-only")


def _check_terms(label: str, terms: tuple[str, ...]) -> None:
    if not isinstance(terms, tuple) or len(terms) < 1:
        raise ValueError(f"{label} must be a non-empty tuple")
    seen: set[str] = set()
    for term in terms:
        if not isinstance(term, str) or not term or term != term.strip().lower():
            raise ValueError(f"{label} entry not normalized lowercase text: {term!r}")
        if term in seen:
            raise ValueError(f"duplicate {label} entry: {term!r}")
        seen.add(term)


def _check_context(value: Any) -> None:
    if not isinstance(value, str) or not value.strip():
        raise ValueError("note context is empty")


def _check_text(text: str) -> None:
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:
        raise ValueError("note text holds a lone surrogate; UTF-8 cannot encode it") from None


def _check_fields(
    note_id: Any,
    content: Any,
    timestamp: Any,
    keywords: tuple[str, ...],
    tags: tuple[str, ...],
    context: Any,
    text: str,
) -> None:
    """Every check of a note's values but its embedding's and links', in
    the constructor's order; text is the note text of these values."""
    _check_id(note_id)
    _check_content(content)
    validate_timestamp(timestamp)
    _check_terms("keywords", keywords)
    _check_terms("tags", tags)
    _check_context(context)
    _check_text(text)


def _check_vector(vec: np.ndarray) -> None:
    if vec.ndim != 1 or vec.size < 1:
        raise ValueError("embedding must be a non-empty 1-D vector")
    if not np.isfinite(vec).all():
        raise ValueError("embedding contains NaN or Inf")


_FLOAT32 = np.dtype(np.float32)
_LITTLE_FLOAT32 = np.dtype("<f4")


def _frozen_vector(vec: Any) -> np.ndarray:
    """A checked vector that is already a read-only float32 array, as
    encoders return them, unchanged; any other, a read-only float32 copy."""
    if not isinstance(vec, np.ndarray) or vec.dtype is not _FLOAT32 or vec.flags.writeable:
        vec = np.array(vec, dtype=np.float32)
        vec.setflags(write=False)
    _check_vector(vec)
    return vec


# Ids joined by commas: a set of n links passes when the joined text is this
# long and matches, which it does exactly when every link is a note id.
_JOINED_IDS_RE = re.compile(r"[0-9a-f]{32}(?:,[0-9a-f]{32})*")


def _check_links(note_id: str, links: frozenset[Any]) -> None:
    if links:
        try:
            joined = ",".join(links)
        except TypeError:
            joined = ""
        if len(joined) != 33 * len(links) - 1 or _JOINED_IDS_RE.fullmatch(joined) is None:
            bad = next(link for link in links if not is_note_id(link))
            raise ValueError(f"malformed link id: {bad!r}")
    if note_id in links:
        raise ValueError("note may not link to itself")


# The links of every linkless note: one shared empty set, where a set of
# its own would cost each note 216 bytes.
_NO_LINKS: frozenset[str] = frozenset()


@dataclass(frozen=True, eq=False)
class MemoryNote:
    """One immutable memory record.

    Invariants are enforced at construction: well-formed id and timestamp,
    non-empty content and context, normalized duplicate-free keywords and
    tags with at least one entry each, text that UTF-8 can encode, a finite
    1-D float32 embedding, and links that resolve to other notes (never to
    the note itself). The fields, in this order, are the canonical fields.
    """

    id: NoteId
    content: str
    timestamp: str
    keywords: tuple[str, ...]
    tags: tuple[str, ...]
    context: str
    embedding: np.ndarray
    links: frozenset[NoteId] = _NO_LINKS

    def __post_init__(self) -> None:
        try:
            text = note_text(self)
        except TypeError:  # a field that is not text, which _check_fields refuses first
            text = ""
        _check_fields(
            self.id, self.content, self.timestamp, self.keywords, self.tags, self.context, text
        )
        vec = np.asarray(self.embedding, dtype=np.float32)
        _check_vector(vec)
        vec = vec.copy()
        vec.setflags(write=False)
        object.__setattr__(self, "embedding", vec)
        links = self.links if isinstance(self.links, frozenset) else frozenset(self.links)
        object.__setattr__(self, "links", links or _NO_LINKS)
        _check_links(self.id, self.links)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MemoryNote):
            return NotImplemented
        return (
            self.id == other.id
            and self.content == other.content
            and self.timestamp == other.timestamp
            and self.keywords == other.keywords
            and self.tags == other.tags
            and self.context == other.context
            and self.links == other.links
            # Bit for bit, as canonical JSON sees them: 0.0 == -0.0 as values.
            and np.array_equal(self.embedding.view(np.uint32), other.embedding.view(np.uint32))
        )

    def __hash__(self) -> int:
        return hash(self.id)

    # The derived record canonical_json rendered this note to, and the CRC
    # of its embedding, kept on the note once known; class attributes, not
    # fields.
    _derived_json = None
    _embedding_crc = None


# Field order of the canonical JSON encoding. note_from_fields requires
# exactly these keys and canonical_json writes them in exactly this order.
CANONICAL_FIELDS = tuple(f.name for f in fields(MemoryNote))


_NEGATIVE_ZERO_BITS = np.float32(-0.0).view(np.uint32)


def join_float32(vec: np.ndarray) -> str:
    """Comma-joined text of every component of a float32 vector.

    Each component is written at 9 significant digits ("%.9g" of the value
    widened to a Python float). Nine digits are enough to round-trip any
    float32 exactly through a decimal string, so canonical JSON stays
    bitwise stable across encode and decode cycles. A negative zero is
    written "-0.0": "%.9g" writes "-0", which JSON reads as the integer 0.

    Each distinct value is formatted once and its text reused wherever the
    value recurs: a HashEncoder embedding holds about a dozen distinct
    values in 384 slots. Distinct values are keyed on their bit patterns,
    not on the values, since -0.0 == 0.0 and the two are written apart.
    """
    bits = np.ascontiguousarray(vec, dtype=np.float32).view(np.uint32)
    distinct, inverse = np.unique(bits, return_inverse=True)
    # One %-format call renders every distinct value; no text holds a comma.
    values = distinct.view(np.float32).tolist()
    texts = np.array((("%.9g," * len(values))[:-1] % tuple(values)).split(","), dtype=object)
    texts[distinct == _NEGATIVE_ZERO_BITS] = "-0.0"
    return ",".join(texts[inverse].tolist())


def embedding_crc(vec: np.ndarray) -> int:
    """CRC-32 of a vector's little-endian float32 bytes: what a derived
    record stores in place of the embedding."""
    return zlib.crc32(np.ascontiguousarray(vec, dtype=_LITTLE_FLOAT32))


def canonical_json(note: MemoryNote, derived: bool = False) -> str:
    """Canonical JSON text for a note: fixed field order, 9-digit floats.

    With derived, the record carries "embedding_crc" in place of the
    embedding's floats, for a reader that derives them with the
    deterministic encoder. The text is what json.dumps with
    ensure_ascii=False and separators=(",", ":") writes: content, context,
    keywords and tags go through encode_basestring, the escaper json.dumps
    calls, without the encoder json.dumps builds on every call. Ids (the
    note's and its links') and the timestamp go between literal quotes:
    validation admits no quote, backslash or control character in them,
    the only characters that escaper changes.

    A derived record is rendered once per note object, in one pass, and
    kept on the note, and every later derived call returns that text: the
    journal's render is reused by every snapshot, so a snapshot renders
    only the notes changed since their last render. It costs the note
    about its record's length in memory. The CRC is computed at most once
    per note: a note keeps the CRC its load verified or its first derived
    render computed, and revise passes it on with the embedding. A stored
    record, three times the size of the embedding it spells out, is
    rendered on every call. Concurrent calls on one note are safe: the
    note is immutable, and each call writes the same text.
    """
    if derived:
        text = note._derived_json
        if text is None:
            text = _render(note, _embedding_json(note, True))
            object.__setattr__(note, "_derived_json", text)
        return text
    return _render(note, _embedding_json(note, False))


def delta_json(note: MemoryNote, derived: bool = False) -> str:
    """The delta record of a note that evolution rewrote, as the journal
    writes it: the id, tags, context and embedding (its CRC with derived)
    as canonical_json writes them, in that order. These are the fields
    evolution changes, but for the new note's backlink, which replay gives
    back from the new note's record; merge_record reads the delta back onto
    the note's record. It is rendered on every call and not kept on the
    note, so a snapshot renders the note's whole record; the CRC it
    computes is kept, so that render does not compute it again."""
    return (
        f'{{"id":"{note.id}","tags":[{",".join(map(encode_basestring, note.tags))}],'
        f'"context":{encode_basestring(note.context)}{_embedding_json(note, derived)}}}'
    )


def _embedding_json(note: MemoryNote, derived: bool) -> str:
    if derived:
        crc = note._embedding_crc
        if crc is None:
            crc = embedding_crc(note.embedding)
            object.__setattr__(note, "_embedding_crc", crc)
        return f',"embedding_crc":{crc}'
    return f',"embedding":[{join_float32(note.embedding)}]'


def _links_tail(links: frozenset[NoteId]) -> str:
    """A note record's end: its links field, the ids sorted, and the brace
    that closes the record."""
    if not links:
        return ',"links":[]}'
    joined = '","'.join(sorted(links))
    return f',"links":["{joined}"]}}'


def _render(note: MemoryNote, embedding: str) -> str:
    return (
        f'{{"id":"{note.id}","content":{encode_basestring(note.content)},'
        f'"timestamp":"{note.timestamp}",'
        f'"keywords":[{",".join(map(encode_basestring, note.keywords))}],'
        f'"tags":[{",".join(map(encode_basestring, note.tags))}],'
        f'"context":{encode_basestring(note.context)}{embedding}{_links_tail(note.links)}'
    )


_STORED_KEYS = frozenset(CANONICAL_FIELDS)
_DERIVED_KEYS = _STORED_KEYS - {"embedding"} | {"embedding_crc"}
_TEXT_FIELDS = ("id", "content", "timestamp", "context")
_TERM_FIELDS = ("keywords", "tags", "links")
# The types json.loads gives a JSON number; bool, a subclass of int, is not one.
_NUMBER_TYPES = frozenset((int, float))


def is_text_list(value: Any) -> bool:
    return isinstance(value, list) and all(isinstance(entry, str) for entry in value)


def is_derived_record(data: Any) -> bool:
    """Check a decoded note record's shape; True if it carries embedding_crc.

    The record must hold the canonical keys with exactly one of "embedding"
    and "embedding_crc", text where the note holds text, lists of text for
    keywords, tags and links, a list of numbers for the embedding, and a
    uint32 for the CRC; ValueError otherwise. MemoryNote checks the values
    themselves.
    """
    if not isinstance(data, dict):
        raise ValueError("note record must be a JSON object")
    derived = data.keys() == _DERIVED_KEYS
    if not derived and data.keys() != _STORED_KEYS:
        raise ValueError(f"note record has wrong field set: {sorted(data)}")
    for name in _TEXT_FIELDS:
        if not isinstance(data[name], str):
            raise ValueError(f"{name} must be text")
    for name in _TERM_FIELDS:
        if not is_text_list(data[name]):
            raise ValueError(f"{name} must be a list of text")
    if derived:
        crc = data["embedding_crc"]
        if type(crc) is not int or not 0 <= crc <= 0xFFFFFFFF:
            raise ValueError(f"embedding_crc must be an integer in [0, 2**32): {crc!r}")
    elif not isinstance(data["embedding"], list) or not _NUMBER_TYPES.issuperset(
        map(type, data["embedding"])
    ):
        raise ValueError("embedding must be a list of numbers")
    return derived


# A later record's fields other than its embedding's: a whole record's, or
# a delta's (delta_json's).
_EMBEDDING_KEYS = frozenset(("embedding", "embedding_crc"))
_LATER_KEYS = (_STORED_KEYS - _EMBEDDING_KEYS, frozenset(("id", "tags", "context")))


def merge_record(record: dict[str, Any], later: dict[str, Any]) -> dict[str, Any]:
    """The record a later record of a change leaves: later merged onto
    record, the note's current record, after record's embedding is dropped.
    A whole record replaces every field; a delta replaces its own and keeps
    the rest, links included. ValueError for a later record that is
    neither, for a merged record that is_derived_record refuses, and for
    stored floats of another width than record's."""
    if later.keys() - _EMBEDDING_KEYS not in _LATER_KEYS:
        raise ValueError(f"note record has wrong field set: {sorted(later)}")
    merged = {key: value for key, value in record.items() if key not in _EMBEDDING_KEYS}
    merged.update(later)
    derived = is_derived_record(merged)
    old = record.get("embedding")
    if not derived and old is not None and len(merged["embedding"]) != len(old):
        raise ValueError(
            f"stored embedding of {len(merged['embedding'])} floats replaces one of {len(old)}"
        )
    return merged


def record_text(data: dict[str, Any]) -> str:
    """The note text of a record that is_derived_record accepted."""
    return compose_note_text(data["content"], data["keywords"], data["tags"], data["context"])


def _assemble(
    note_id: NoteId,
    content: str,
    timestamp: str,
    keywords: tuple[str, ...],
    tags: tuple[str, ...],
    context: str,
    embedding: np.ndarray,
    links: frozenset[NoteId],
    crc: int | None,
) -> MemoryNote:
    """A note of fields its caller has checked, built without __post_init__,
    keeping crc, its embedding's CRC if known, for canonical_json."""
    note = object.__new__(MemoryNote)
    note.__dict__.update(
        id=note_id,
        content=content,
        timestamp=timestamp,
        keywords=keywords,
        tags=tags,
        context=context,
        embedding=embedding,
        links=links,
        _embedding_crc=crc,
    )
    return note


def _stored_floats(values: list[Any], out: np.ndarray) -> None:
    """Parse a stored record's floats into out, a load's float32 row for
    them; ValueError for an integer no float holds. A float beyond float32
    range becomes an Inf without a warning, for the load's finiteness check
    to refuse; the values are not otherwise checked here."""
    try:
        with np.errstate(over="ignore"):
            out[...] = values
    except OverflowError:
        raise ValueError("embedding holds an integer beyond float range") from None


def note_from_fields(data: dict[str, Any], embedding: np.ndarray, text: str) -> MemoryNote:
    """Build the note of a loaded record, as the load reads it back.

    data is a record that is_derived_record accepted, embedding its row of
    the load's matrix (read-only, finite, 1-D float32, kept as it is, not
    copied) and text its record_text. A stored record's row holds its
    parsed floats; a derived record's holds the encoding of its text, which
    must match the record's embedding_crc; the note keeps that CRC, so its
    first derived render does not compute it again. Every other check of
    MemoryNote's constructor then runs once, in its order, on the record's
    values, and MemoryNote refuses exactly the records this refuses.
    """
    crc = data.get("embedding_crc")
    if crc is not None and embedding_crc(embedding) != crc:
        raise ValueError("derived embedding does not match its embedding_crc")
    note_id, content, timestamp, context = (
        data["id"], data["content"], data["timestamp"], data["context"]
    )
    keywords, tags = tuple(data["keywords"]), tuple(data["tags"])
    _check_fields(note_id, content, timestamp, keywords, tags, context, text)
    links = frozenset(data["links"]) if data["links"] else _NO_LINKS
    _check_links(note_id, links)
    return _assemble(note_id, content, timestamp, keywords, tags, context, embedding, links, crc)


def revise(
    note: MemoryNote,
    *,
    tags: tuple[str, ...] | None = None,
    context: str | None = None,
    embedding: np.ndarray | None = None,
    links: Iterable[NoteId] | None = None,
) -> MemoryNote:
    """The note with the given fields changed, as dataclasses.replace builds
    it, checking only what changed: the new tags or context and the text
    they add, the new embedding (a read-only float32 vector is kept, not
    copied), and the links the note did not have. Unchanged fields are the
    note's own, its embedding included.

    A note that keeps its embedding keeps its embedding's CRC, if known.
    When only the links change, a note whose derived record is kept gets
    that record with its links replaced: the text up to ',"links":' is the
    same. Any other change leaves the new note's record to render."""
    if tags is not None:
        _check_terms("tags", tags)
    if context is not None:
        _check_context(context)
    new_tags = note.tags if tags is None else tags
    new_context = note.context if context is None else context
    if tags is not None or context is not None:
        _check_text(compose_note_text(note.content, note.keywords, new_tags, new_context))
    embedding = note.embedding if embedding is None else _frozen_vector(embedding)
    if links is None:
        links = note.links
    else:
        links = (links if isinstance(links, frozenset) else frozenset(links)) or _NO_LINKS
        _check_links(note.id, links - note.links)
    kept = embedding is note.embedding
    revised = _assemble(
        note.id,
        note.content,
        note.timestamp,
        note.keywords,
        new_tags,
        new_context,
        embedding,
        links,
        note._embedding_crc if kept else None,
    )
    text = note._derived_json
    if text is not None and kept and tags is None and context is None:
        text = text[: text.rindex(',"links":')] + _links_tail(links)
        object.__setattr__(revised, "_derived_json", text)
    return revised
