"""Durable storage: append-only journal, snapshots, and state reconstruction.

The journal is a JSON-lines file; each line carries a strictly increasing
sequence number, an event kind, a canonical payload, and a CRC-32 of the
payload text. Three event kinds exist: note_added and note_evolved carry a
full note record in canonical encoding, links_changed carries a small
delta. Events are ordered so that any byte prefix of the journal
reconstructs a store with no dangling references: a note always enters the
log before anything points at it.

A snapshot captures the whole store (note records sorted by id), the
engine config, and the last applied sequence number, written atomically
via temp-file-and-rename. Loading a snapshot and replaying the journal
events past its sequence number reproduces the live store exactly, byte
for byte.

Store format 2 does not store what the encoder derives: under a
deterministic encoder a note record carries "embedding_crc" (the CRC-32 of
the embedding's little-endian float32 bytes) in place of its floats, and
any other encoder's records store the floats, as format 1 did. Format 1
stores still load; a writable open of one appends format 2 records.

A load keeps records until its end: read_snapshot and replay_events check
each record's shape, and load_store then builds every note in one pass
that encodes the note texts 256 at a time. So a store opened with another
encoder (another kind, seed or dimension) fails note by note with
LoadIntegrityError, and so does a CRC record opened with a
non-deterministic encoder or none. A record that a later event replaces
gets only the shape check.
"""

from __future__ import annotations

import json
import logging
import os
import re
import zlib
from contextlib import suppress
from dataclasses import dataclass
from itertools import chain, takewhile
from json.encoder import encode_basestring
from pathlib import Path
from typing import Any, Iterable, Iterator, Mapping

import numpy as np

from .embedding import Encoder, HashEncoder
from .engine import _VERIFY_CHUNK, EngineConfig, MemoryEngine
from .errors import (
    EmptyContent,
    InvalidTimestamp,
    LoadIntegrityError,
    SequenceGap,
    VersionMismatch,
)
from .gateway import LlmGateway
from .notes import (
    MemoryNote,
    canonical_json,
    is_derived_record,
    json_text_list,
    note_from_fields,
    record_text,
)

logger = logging.getLogger(__name__)

SNAPSHOT_FILENAME = "store.snapshot.json"
JOURNAL_FILENAME = "store.journal.jsonl"
FORMAT_VERSION = 2
# Snapshot versions this code reads: format 1 differs only in having no
# derived records.
READABLE_VERSIONS = (1, 2)

EVENT_KINDS = ("note_added", "note_evolved", "links_changed")

_LINE_RE = re.compile(
    r'^\{"seq":(\d+),"kind":"(' + "|".join(map(re.escape, EVENT_KINDS)) + r')",'
    r'"payload":(.*),"crc":(\d+)\}\s*$'
)


def payload_crc(payload_json: str) -> int:
    return zlib.crc32(payload_json.encode("utf-8")) & 0xFFFFFFFF


@dataclass(frozen=True)
class JournalEvent:
    """One journal line: sequence number, kind, and canonical payload text."""

    seq: int
    kind: str
    payload_json: str

    def line(self) -> str:
        crc = payload_crc(self.payload_json)
        return f'{{"seq":{self.seq},"kind":"{self.kind}","payload":{self.payload_json},"crc":{crc}}}\n'


def _parse_line(text: str) -> JournalEvent:
    """Check one journal line's framing: shape, checksum and seq >= 1.

    The payload is not parsed here. Raises ValueError for a line that fails
    a check, which only a torn write produces.
    """
    match = _LINE_RE.match(text)
    if match is None:
        raise ValueError("journal line does not match the event shape")
    seq = int(match.group(1))
    payload_json = match.group(3)
    if payload_crc(payload_json) != int(match.group(4)):
        raise ValueError("journal line checksum mismatch")
    if seq < 1:
        raise ValueError("journal sequence numbers start at 1")
    return JournalEvent(seq=seq, kind=match.group(2), payload_json=payload_json)


class Journal:
    """Writable handle on a journal file, and the only code that shortens it.

    Appends buffer in process memory until sync(), which writes and fsyncs
    them; the engine syncs once per mutating operation, after the last event
    of that operation. So events not synced at close() belong to a change
    that failed and was never acknowledged: close() drops them, and cuts
    off any bytes a failed sync() left past the last successful one. Given
    torn_at, the offset of a torn tail, it first cuts the file back to it:
    appends after a torn line would be unreachable. With derived, note
    records carry embedding_crc in place of the embedding (for an engine
    whose encoder is deterministic).
    """

    def __init__(
        self,
        path: str | os.PathLike[str],
        last_seq: int = 0,
        torn_at: int | None = None,
        derived: bool = False,
    ) -> None:
        self._path = Path(path)
        self._derived = derived
        self._file = open(self._path, "ab", buffering=0)
        self._synced = os.fstat(self._file.fileno()).st_size
        self._pending: list[bytes] = []
        self._last = int(last_seq)
        if torn_at is not None:
            dropped = self._synced - torn_at
            try:
                self._cut(torn_at)
            except BaseException:
                self._file.close()
                raise
            logger.warning(
                "journal %s: truncated a torn tail of %d bytes at byte %d",
                self._path, dropped, torn_at,
            )

    @property
    def path(self) -> Path:
        return self._path

    @property
    def last_seq(self) -> int:
        return self._last

    def append(self, event: JournalEvent) -> None:
        if event.kind not in EVENT_KINDS:
            raise ValueError(f"unknown journal event kind: {event.kind!r}")
        if event.seq != self._last + 1:
            raise SequenceGap(
                f"journal expected seq {self._last + 1}, got {event.seq}"
            )
        self._pending.append(event.line().encode("utf-8"))
        self._last = event.seq

    def note_added(self, note: MemoryNote) -> None:
        payload = canonical_json(note, self._derived)
        self.append(JournalEvent(self._last + 1, "note_added", payload))

    def note_evolved(self, note: MemoryNote) -> None:
        payload = canonical_json(note, self._derived)
        self.append(JournalEvent(self._last + 1, "note_evolved", payload))

    def links_changed(self, note_id: str, added: Iterable[str], removed: Iterable[str]) -> None:
        payload = (
            f'{{"id":{encode_basestring(note_id)},"added":{json_text_list(sorted(added))},'
            f'"removed":{json_text_list(sorted(removed))}}}'
        )
        self.append(JournalEvent(self._last + 1, "links_changed", payload))

    def sync(self) -> None:
        data = b"".join(self._pending)
        self._pending.clear()
        rest = memoryview(data)
        while rest:
            rest = rest[self._file.write(rest):]
        os.fsync(self._file.fileno())
        self._synced += len(data)

    def _cut(self, length: int) -> None:
        """Drop the pending events and cut the file to `length` bytes, durably.
        The durable length is set first, so close() never pads after a failure."""
        self._pending.clear()
        self._synced = length
        self._file.truncate(length)
        os.fsync(self._file.fileno())

    def truncate(self) -> None:
        """Discard all journal bytes; the sequence counter keeps counting."""
        self._cut(0)

    def close(self) -> None:
        """Close the file, keeping exactly what the last sync() made durable."""
        if self._file.closed:
            return
        try:
            if os.fstat(self._file.fileno()).st_size > self._synced:
                self._cut(self._synced)
        finally:
            self._file.close()

    def __enter__(self) -> "Journal":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


def read_journal(
    path: str | os.PathLike[str], after: int = 0
) -> tuple[list[JournalEvent], int | None]:
    """Read the events past seq `after` from a journal file.

    Returns (events, truncation_offset). Only framing is checked here: line
    shape, checksum, seq >= 1 and contiguity; replay_events parses the
    payloads. Reading stops at the first line that fails shape, checksum or
    seq >= 1, or that lacks its newline, which is how a crash-truncated tail
    is skipped; the byte offset of that line is reported, or None for a
    clean file. A framed line that breaks contiguity raises SequenceGap,
    since truncation can never produce gaps. Lines with seq <= after (the
    events a snapshot already covers) get the same checks but are not
    returned, so every verdict is the same for every `after`.
    """
    data = Path(path).read_bytes()
    events: list[JournalEvent] = []
    truncated: int | None = None
    pos = 0
    last_seq: int | None = None
    while pos < len(data):
        newline = data.find(b"\n", pos)
        line_bytes = data[pos:] if newline == -1 else data[pos:newline]
        if line_bytes.strip() == b"" or newline == -1:
            # Every append ends its line with a newline, so a last line
            # without one was cut off, even when what is left of it parses.
            if data[pos:].strip() != b"":
                truncated = pos
            break
        try:
            event = _parse_line(line_bytes.decode("utf-8"))
        except (ValueError, UnicodeDecodeError):
            truncated = pos
            break
        if last_seq is not None and event.seq != last_seq + 1:
            raise SequenceGap(
                f"journal jumps from seq {last_seq} to {event.seq} at byte {pos}"
            )
        if event.seq > after:
            events.append(event)
        last_seq = event.seq
        pos = newline + 1
    return events, truncated


def _is_string_list(value: Any) -> bool:
    return isinstance(value, list) and all(isinstance(entry, str) for entry in value)


def replay_events(
    records: dict[str, dict[str, Any]], events: Iterable[JournalEvent], start_after: int = 0
) -> int:
    """Apply journal events to note records by id, in place. Returns the last seq applied.

    This is the one place a journal payload is parsed, once per event. Each
    event must be seq start_after + 1, then the next, or SequenceGap is
    raised; a payload that is not a valid event raises LoadIntegrityError.
    A note record enters the map shape-checked, and links_changed edits its
    links; load_store builds the notes.
    """
    last = start_after
    for event in events:
        if event.seq != last + 1:
            raise SequenceGap(f"journal event seq {event.seq} does not follow seq {last}")
        try:
            payload = json.loads(event.payload_json)
            if event.kind != "links_changed":
                is_derived_record(payload)
                note_id = payload["id"]
                if event.kind == "note_added" and note_id in records:
                    raise ValueError(f"note {note_id} added twice")
                if event.kind == "note_evolved" and note_id not in records:
                    raise ValueError(f"evolved note {note_id} does not exist")
                records[note_id] = payload
            else:
                if not isinstance(payload, dict) or set(payload) != {"id", "added", "removed"}:
                    raise ValueError("links_changed payload has wrong fields")
                if not (
                    isinstance(payload["id"], str)
                    and _is_string_list(payload["added"])
                    and _is_string_list(payload["removed"])
                ):
                    raise ValueError("links_changed payload has wrong types")
                record = records.get(payload["id"])
                if record is None:
                    raise ValueError(f"links_changed for unknown note {payload['id']}")
                links = set(record["links"]) | set(payload["added"])
                record["links"] = sorted(links - set(payload["removed"]))
        except ValueError as exc:
            raise LoadIntegrityError(f"journal event seq {event.seq}: {exc}") from exc
        last = event.seq
    return last


# Note records that write_snapshot encodes and writes with one call; bounds
# the memory of a snapshot however large the store.
_SNAPSHOT_CHUNK = 256


def _snapshot_parts(
    notes: Mapping[str, MemoryNote], config: EngineConfig, last_seq: int, derived: bool
) -> Iterator[str]:
    config_json = json.dumps(
        config.to_mapping(), ensure_ascii=False, separators=(",", ":"), sort_keys=True
    )
    yield (
        f'{{"format_version":{FORMAT_VERSION},"config":{config_json},'
        f'"last_seq":{last_seq},"notes":['
    )
    ids = sorted(notes)
    for start in range(0, len(ids), _SNAPSHOT_CHUNK):
        records = ",".join(
            canonical_json(notes[nid], derived) for nid in ids[start:start + _SNAPSHOT_CHUNK]
        )
        yield ("," if start else "") + records
    yield "]}"


def _fsync_dir(path: Path) -> None:
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def write_snapshot(
    path: str | os.PathLike[str],
    notes: Mapping[str, MemoryNote],
    config: EngineConfig,
    last_seq: int,
    derived: bool = False,
) -> None:
    """Write a snapshot atomically: temp file in the same directory, then rename.

    The text is written 256 note records at a time, so no copy of the
    whole snapshot is ever held in memory. A write that fails deletes its
    temp file. With derived, note records carry embedding_crc in place of
    the embedding.
    """
    target = Path(path)
    tmp = target.with_name(target.name + ".tmp")
    try:
        with open(tmp, "wb") as handle:
            for part in _snapshot_parts(notes, config, last_seq, derived):
                handle.write(part.encode("utf-8"))
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, target)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    _fsync_dir(target.parent)


def read_snapshot(
    path: str | os.PathLike[str],
) -> tuple[dict[str, dict[str, Any]], EngineConfig, int]:
    """Parse a snapshot of format 1 or 2: its note records by id, config
    and last_seq. Each record's shape is checked; load_store builds the
    notes."""
    try:
        document = json.loads(Path(path).read_text("utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise LoadIntegrityError(f"snapshot is not valid JSON: {exc}") from exc
    if not isinstance(document, dict):
        raise LoadIntegrityError("snapshot must be a JSON object")
    version = document.get("format_version")
    if type(version) is not int or version not in READABLE_VERSIONS:
        raise VersionMismatch(
            f"snapshot format_version {version!r}, expected one of {READABLE_VERSIONS}"
        )
    for key in ("config", "last_seq", "notes"):
        if key not in document:
            raise LoadIntegrityError(f"snapshot missing key {key!r}")
    last_seq = document["last_seq"]
    if type(last_seq) is not int or last_seq < 0:
        raise LoadIntegrityError("snapshot last_seq must be a non-negative integer")
    if not isinstance(document["notes"], list):
        raise LoadIntegrityError("snapshot notes must be a JSON array")
    records: dict[str, dict[str, Any]] = {}
    for record in document["notes"]:
        try:
            is_derived_record(record)
        except ValueError as exc:
            raise LoadIntegrityError(f"snapshot note invalid: {exc}") from exc
        if record["id"] in records:
            raise LoadIntegrityError(f"snapshot holds note {record['id']} twice")
        records[record["id"]] = record
    if not isinstance(document["config"], dict):
        raise LoadIntegrityError("snapshot config must be a JSON object")
    try:
        config = EngineConfig.from_mapping(document["config"])
    except (ValueError, TypeError) as exc:
        raise LoadIntegrityError(f"snapshot config invalid: {exc}") from exc
    return records, config, last_seq


def _build_notes(
    records: dict[str, dict[str, Any]], encoder: Encoder | None
) -> dict[str, MemoryNote]:
    """Build the note of every record in id order, or raise
    LoadIntegrityError for the first that fails.

    Under a deterministic encoder one encode_many per chunk gives a derived
    record its embedding, checked against its embedding_crc, and a stored
    record the encoding its floats must equal bit for bit. With a
    non-deterministic encoder that check degrades to a warning, and a
    derived record fails, as with no encoder. A stored embedding of another
    dimension than the encoder's and a dangling link always fail.
    """
    verify = encoder if encoder is not None and encoder.deterministic else None
    if encoder is not None and verify is None:
        logger.warning("encoder is not deterministic; skipping embedding verification")
    notes: dict[str, MemoryNote] = {}
    ordered = sorted(records)
    for start in range(0, len(ordered), _VERIFY_CHUNK):
        chunk = [records[note_id] for note_id in ordered[start:start + _VERIFY_CHUNK]]
        if verify is not None:
            encoded = verify.encode_many([record_text(record) for record in chunk])
        else:
            encoded = [None] * len(chunk)
        for record, vector in zip(chunk, encoded):
            note_id = record["id"]
            derived = "embedding_crc" in record
            try:
                note = note_from_fields(record, vector, derived)
            except (ValueError, EmptyContent, InvalidTimestamp) as exc:
                raise LoadIntegrityError(f"note {note_id}: {exc}") from exc
            if not derived and encoder is not None and note.embedding.size != encoder.dimension:
                raise LoadIntegrityError(
                    f"stored embeddings of dimension [{note.embedding.size}], "
                    f"encoder's {encoder.dimension}"
                )
            for link in sorted(note.links):
                if link not in records:
                    raise LoadIntegrityError(f"note {note_id} links to unknown id {link}")
            if not derived and vector is not None and not np.array_equal(vector, note.embedding):
                raise LoadIntegrityError(f"note {note_id} embedding does not match its text")
            notes[note_id] = note
    return notes


@dataclass
class LoadResult:
    notes: dict[str, MemoryNote]
    last_seq: int
    config: EngineConfig | None
    journal_truncated_at: int | None


def load_store(
    snapshot_path: str | os.PathLike[str],
    journal_path: str | os.PathLike[str],
    encoder: Encoder | None = None,
) -> LoadResult:
    """Reconstruct a store from snapshot and journal files.

    Either file may be absent; both absent yields an empty store. Records
    are shape-checked as they are read; then _build_notes builds and
    verifies every note, and a record that fails there fails the load as
    "note <id>: ...".
    """
    records: dict[str, dict[str, Any]] = {}
    config: EngineConfig | None = None
    last_seq = 0
    truncated: int | None = None

    snapshot_file = Path(snapshot_path)
    if snapshot_file.exists():
        records, config, last_seq = read_snapshot(snapshot_file)

    journal_file = Path(journal_path)
    if journal_file.exists():
        fresh, truncated = read_journal(journal_file, after=last_seq)
        last_seq = replay_events(records, fresh, start_after=last_seq)

    return LoadResult(_build_notes(records, encoder), last_seq, config, truncated)


def store_paths(store_dir: str | os.PathLike[str]) -> tuple[Path, Path]:
    base = Path(store_dir)
    return base / SNAPSHOT_FILENAME, base / JOURNAL_FILENAME


def open_engine(
    store_dir: str | os.PathLike[str],
    encoder: Encoder | None = None,
    gateway: LlmGateway | None = None,
    config: EngineConfig | None = None,
    id_seed: int | None = None,
    read_only: bool = False,
) -> MemoryEngine:
    """Open (or initialize) a store directory and return a live engine.

    Config precedence: explicit argument, then the snapshot's config echo,
    then defaults. Read-only engines get no journal handle: their mutations
    stay in memory and never reach disk. A writable open creates the store
    directory if needed, and its journal cuts a torn tail back to the last
    good event before anything is appended; a read-only open writes nothing,
    not even the directory. Under a deterministic encoder the journal writes
    derived records. An open that fails after the load closes the journal
    it opened, and removes the journal file and directories it created.
    """
    snapshot_path, journal_path = store_paths(store_dir)
    if encoder is None:
        encoder = HashEncoder()
    result = load_store(snapshot_path, journal_path, encoder=encoder)
    config = config if config is not None else result.config
    journal = None
    new_dirs: list[Path] = []
    new_journal = False
    try:
        if not read_only:
            base = journal_path.parent
            new_journal = not journal_path.exists()
            if new_journal:
                missing = takewhile(lambda path: not path.exists(), chain([base], base.parents))
                new_dirs = list(missing)
            if new_dirs:
                base.mkdir(parents=True)
            journal = Journal(
                journal_path,
                result.last_seq,
                result.journal_truncated_at,
                derived=encoder.deterministic,
            )
        engine = MemoryEngine(encoder, gateway, config, journal=journal, id_seed=id_seed)
        engine.adopt_state(result.notes, result.last_seq)
    except BaseException:
        if journal is not None:
            journal.close()
        with suppress(OSError):
            if new_journal:
                journal_path.unlink(missing_ok=True)
            for directory in new_dirs:
                directory.rmdir()
        raise
    return engine


def snapshot_engine(engine: MemoryEngine, store_dir: str | os.PathLike[str], compact: bool = False) -> Path:
    """Snapshot a live engine's store; optionally drop journaled history.

    The engine writes one snapshot at a time. A plain snapshot takes no
    writer lock. A compacting one runs under the engine's writer lock, so
    no commit lands between the snapshot and the journal truncation; it
    must go into the directory of the engine's own journal, or ValueError
    is raised before anything is written.
    """
    snapshot_path, journal_path = store_paths(store_dir)
    journal = engine.journal
    if compact and journal is not None and journal.path.resolve() != journal_path.resolve():
        raise ValueError(f"a compaction goes into the engine's own store, {journal.path.parent}")

    derived = engine.encoder.deterministic

    def write(notes: Mapping[str, MemoryNote], last_seq: int) -> None:
        write_snapshot(snapshot_path, notes, engine.config, last_seq, derived=derived)

    engine.snapshot(write, compact)
    return snapshot_path
