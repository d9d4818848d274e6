"""Durable storage: append-only journal, snapshots, and state reconstruction.

The journal is a JSON-lines file with one line per change (journal format
3): {"seq":N,"kind":"note_added","payload":[N,R0,R1,...],"crc":C}. R0 is
the new note's final record, with its links and any evolved tags folded
in; R1... are the final records of the neighbors the change rewrote, in
rank order; C is the CRC-32 of the payload text, so it covers the seq as
well. A neighbor whose links alone change is not written: on replay every
note R0 links to gets R0's id back, as evolution gave it. So a torn tail
never splits a change, and any byte prefix of the journal reconstructs a
store with no dangling or one-sided link.

Journals of formats 1 and 2 hold one line per event, each with its own
seq and a CRC of its payload alone: note_added and note_evolved carry a
full note record, links_changed a small delta. They still replay, and a
writable open of such a store appends format 3 lines after them, the seq
counting on. An older build frames a format 3 line as note_added and
refuses its array payload with LoadIntegrityError, so it never cuts such
lines as a torn tail.

A snapshot captures the whole store (note records sorted by id), the
engine config, and the last applied sequence number, written atomically
via temp-file-and-rename. Loading a snapshot and replaying the journal
events past its sequence number reproduces the live store exactly, byte
for byte. The journal is read back from its end only as far as the
snapshot does not cover (redo starts at the checkpoint), so the lines it
covers are not framed. Past it, any line that fails its framing is a
tail, which every open logs and a writable open cuts, unless a
note_added line frames after it: that is damage, and the load fails.

Store format 2 does not store what the encoder derives: under a
deterministic encoder a note record carries "embedding_crc" (the CRC-32 of
the embedding's little-endian float32 bytes) in place of its floats, and
any other encoder's records store the floats, as format 1 did. Format 1
stores still load; a writable open of one appends format 2 records, in
format 3 lines. Format 3 changes only the journal: a snapshot keeps
format_version 2.

A load keeps records until its end: read_snapshot and replay_events check
each record's shape (is_derived_record), and load_store then builds every
note in one pass under the encoder it is given. The pass fills one
float32 embedding matrix 256 rows at a time: the encodings of the note
texts, then stored floats parsed straight into their rows, then one
finiteness check of the chunk; note_from_fields builds each note on its
row and record_text, and the index adopts the matrix. So a store opened
with another encoder (another kind, seed or dimension) fails with
LoadIntegrityError, and so does a CRC record opened with a
non-deterministic encoder, before any note is built. A record that a
later event replaces gets only the shape check.
"""

from __future__ import annotations

import fcntl
import json
import logging
import os
import re
import zlib
from contextlib import suppress
from dataclasses import dataclass
from itertools import chain, takewhile
from pathlib import Path
from typing import Any, BinaryIO, Iterable, Iterator, Mapping, NamedTuple

import numpy as np

from .embedding import Encoder, HashEncoder
from .engine import _PASS_CHUNK, EngineConfig, MemoryEngine, _Event
from .errors import (
    EmptyContent,
    InvalidTimestamp,
    LoadIntegrityError,
    SequenceGap,
    StoreLocked,
    VersionMismatch,
)
from .gateway import LlmGateway
from .notes import (
    MemoryNote,
    _stored_floats,
    canonical_json,
    is_derived_record,
    is_text_list,
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

# The kinds a journal line may carry: format 3 writes note_added alone,
# and the other two are read from format 1 and 2 journals.
EVENT_KINDS = ("note_added", "note_evolved", "links_changed")

# A journal line as the writer writes it, over its bytes: ASCII digits and
# ASCII whitespace only, framed with no decode. Under DOTALL the payload's
# .* jumps to the end of the line (which holds no newline) and steps back
# to the last comma, so the payload is never scanned.
_FRAME_RE = re.compile(
    rb'\{"seq":([0-9]+),"kind":"(' + "|".join(EVENT_KINDS).encode() + rb')",'
    rb'"payload":(.*),"crc":([0-9]+)\}[ \t\n\r\x0b\x0c]*',
    re.DOTALL,
)


def payload_crc(payload_json: str) -> int:
    return zlib.crc32(payload_json.encode("utf-8")) & 0xFFFFFFFF


class JournalEvent(NamedTuple):
    """One journal line: sequence number, kind, and canonical payload text.
    A named tuple, which a read builds for every line past the snapshot at
    a fraction of a frozen dataclass's cost."""

    seq: int
    kind: str
    payload_json: str

    def line(self) -> str:
        crc = payload_crc(self.payload_json)
        return f'{{"seq":{self.seq},"kind":"{self.kind}","payload":{self.payload_json},"crc":{crc}}}\n'


# A framed line's seq, kind and payload bytes.
_Frame = tuple[int, str, bytes]


def _frame(data: bytes, start: int, end: int) -> _Frame | None:
    """The seq, kind and payload bytes of the journal line data[start:end],
    or None if it fails its framing: the shape, the checksum, seq >= 1, a
    UTF-8 payload, or for a note_added array (a format 3 change) a payload
    that begins with the line's own seq, which the checksum so covers. The
    payload is not parsed here."""
    match = _FRAME_RE.fullmatch(data, start, end)
    if match is not None:
        seq, kind, payload, crc = match.groups()
        try:
            if (
                zlib.crc32(payload) == int(crc)
                and int(seq) >= 1
                and (
                    kind != b"note_added"
                    or not payload.startswith(b"[")
                    or payload.startswith(b"[" + seq + b",")
                )
                and (payload.isascii() or payload.decode("utf-8"))
            ):
                return int(seq), kind.decode("ascii"), payload
        except ValueError:  # more digits than int() reads, or no UTF-8
            pass
    return None


# Bytes read first from a journal's end; each further read takes four times
# as many.
_TAIL_BYTES = 16384


def _lines_back(fd: int, size: int) -> Iterator[tuple[int, _Frame | None]]:
    """The lines of the journal open as fd, of `size` bytes, from its last
    back to its first, each as (byte offset, _frame's frame), framed as
    they are reached. The file is read from its end in spans that grow
    fourfold, so a caller that stops early reads at most a span more than
    the lines it was given, and frames none of it. A last line without its
    newline was cut off, so it frames as None even when what is left of it
    would frame, and a line of whitespace alone fails like any other."""
    start, data, span = size, b"", _TAIL_BYTES
    end = size  # where the next line ends, before its newline
    while True:
        # data holds the file's bytes from offset start to size.
        begin = data.rfind(b"\n", 0, end - start) + 1
        if begin == 0 and start > 0:
            # The line may begin before what was read.
            read_from = max(0, start - span)
            data = os.pread(fd, start - read_from, read_from) + data
            start, span = read_from, span * 4
            continue
        if end < size:
            yield start + begin, _frame(data, begin, end - start)
        elif start + begin < size:
            yield start + begin, None
        if start + begin == 0:
            return
        end = start + begin - 1


def lock_journal(path: str | os.PathLike[str]) -> tuple[BinaryIO, bool]:
    """Open a journal file for appending, creating it if it is missing, and
    take its exclusive flock without waiting. Returns the file and whether
    this call created it. A Journal holds the lock from a writable open to
    close, and snapshot_engine for a write into a store it does not hold.
    Raises StoreLocked if another writer holds the lock, or if the path no
    longer names the file locked: a failed open, and such a snapshot,
    unlink a journal they created, so a file locked after that is not the
    store's."""
    path = Path(path)
    flags = os.O_WRONLY | os.O_APPEND | os.O_CREAT
    try:
        fd, created = os.open(path, flags | os.O_EXCL, 0o666), True
    except FileExistsError:
        fd, created = os.open(path, flags, 0o666), False
    file = open(fd, "ab", buffering=0)
    try:
        fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
        if not os.path.samestat(os.fstat(fd), os.stat(path)):
            raise FileNotFoundError(path)
    except OSError as exc:
        file.close()
        raise StoreLocked(f"store {path.parent} is locked: open for writing elsewhere") from exc
    return file, created


class Journal:
    """Writable handle on a journal file, and the only code that shortens it.

    Changes buffer in process memory until sync(), which writes each as one
    line and fsyncs them; write() journals one change and then syncs. So a
    change not synced at close() failed and was never acknowledged: close()
    drops it, and cuts off any bytes a failed sync() left past the last
    successful one.
    open_engine continues it from the loaded last_seq through _adopt,
    which first cuts a torn tail back to its offset: appends after a torn
    line would be unreachable. With derived, note records carry
    embedding_crc in place of the embedding (for an engine whose encoder
    is deterministic).

    A journal takes its file's exclusive flock through lock_journal and
    holds it until close(), so a store has one writer at a time; created
    says whether that call created the file. Its first successful sync()
    also fsyncs the journal's directory, so the file's entry is durable
    before the first change it acknowledges.
    """

    def __init__(self, path: str | os.PathLike[str], derived: bool = False) -> None:
        self._path = Path(path)
        self._derived = derived
        self._last = 0
        # The changes begun since the last sync: each its seq, then its records.
        self._pending: list[tuple[int, list[str]]] = []
        self._dir_synced = False
        self._file, self._created = lock_journal(self._path)
        try:
            self._synced = os.fstat(self._file.fileno()).st_size
        except BaseException:
            self._file.close()
            raise

    def _adopt(self, last_seq: int, torn_at: int | None) -> None:
        """Continue from last_seq, first cutting a torn tail at torn_at."""
        self._last = int(last_seq)
        if torn_at is not None:
            dropped = self._synced - torn_at
            self._cut(torn_at)
            logger.warning(
                "journal %s: truncated a torn tail of %d bytes at byte %d",
                self._path, dropped, torn_at,
            )

    @property
    def created(self) -> bool:
        return self._created

    @property
    def path(self) -> Path:
        return self._path

    @property
    def last_seq(self) -> int:
        return self._last

    def write(self, events: Iterable[_Event]) -> None:
        """Journal one change as one line, then sync. The change's
        note_added and each note_evolved render their records through the
        method of their kind; a links_changed note is not written, since its
        new links are backlinks to the change's new note, which replay
        gives back from the new note's record."""
        for kind, note in events:
            if kind == "note_added":
                self.note_added(note)
            elif kind == "note_evolved":
                self.note_evolved(note)
        self.sync()

    def note_added(self, note: MemoryNote) -> None:
        """Begin the next change, at the next seq, with note's record."""
        record = canonical_json(note, self._derived)
        self._last += 1
        self._pending.append((self._last, [record]))

    def note_evolved(self, note: MemoryNote) -> None:
        """Add note's record, a rewritten neighbor's, to the begun change."""
        self._pending[-1][1].append(canonical_json(note, self._derived))

    def sync(self) -> None:
        """Write the begun changes, one line each, and fsync them."""
        data = b"".join(
            JournalEvent(seq, "note_added", f"[{seq},{','.join(records)}]").line().encode("utf-8")
            for seq, records in self._pending
        )
        self._pending.clear()
        rest = memoryview(data)
        while rest:
            rest = rest[self._file.write(rest):]
        os.fsync(self._file.fileno())
        if not self._dir_synced:
            _fsync_dir(self._path.parent)
            self._dir_synced = True
        self._synced += len(data)

    def _cut(self, length: int) -> None:
        """Drop the pending changes and cut the file to `length` bytes, durably.
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
    shape, checksum, seq >= 1 and contiguity, each line once by _frame;
    replay_events parses the payloads.

    The file is read back from its end to the last line that frames with a
    seq of at most after + 1 (the first one past after, or after's own
    line), the stop, or to its start when no line does. The stop is checked
    against the nearest framed line before it, which must be one seq lower,
    or lower across lines that fail; else SequenceGap (a format 2 line's
    checksum does not cover its seq). The lines before the stop are what a
    snapshot at `after` already covers: past that one check they are not
    framed, nor read beyond the span that holds it, so damage or a gap
    among them is not seen. From the stop on, a framed line that breaks
    contiguity raises SequenceGap, since a crash never leaves a gap. The
    first line that fails its framing, or lacks its newline, ends the read,
    even one of whitespace alone, which the writer never writes:
    - if a note_added line frames after it, it is damage and not a torn
      write, since every change's first line frames as note_added (a format
      3 change is that one line) and no change follows a torn one:
      LoadIntegrityError names its offset;
    - otherwise it is a tail: its offset is returned, and logged as a
      warning with the bytes it skips.
    """
    with open(path, "rb") as handle:
        fd = handle.fileno()
        size = os.fstat(fd).st_size
        walk = _lines_back(fd, size)
        lines = []
        for line in walk:
            lines.append(line)
            stop = line[1]
            if stop is not None and stop[0] <= after + 1:
                failed = False
                for _, frame in walk:
                    if frame is not None:
                        if frame[0] != stop[0] - 1 and (not failed or frame[0] >= stop[0]):
                            raise SequenceGap(
                                f"journal jumps from seq {frame[0]} to {stop[0]} at byte {line[0]}"
                            )
                        break
                    failed = True
                break
    lines.reverse()
    events: list[JournalEvent] = []
    last_seq: int | None = None
    for index, (offset, frame) in enumerate(lines):
        if frame is None:
            if any(later is not None and later[1] == "note_added" for _, later in lines[index:]):
                raise LoadIntegrityError(
                    f"journal line at byte {offset} is damaged and acknowledged "
                    "changes follow it"
                )
            logger.warning(
                "journal %s: read stops at a torn tail of %d bytes at byte %d",
                path, size - offset, offset,
            )
            return events, offset
        seq, kind, payload = frame
        if last_seq is not None and seq != last_seq + 1:
            raise SequenceGap(f"journal jumps from seq {last_seq} to {seq} at byte {offset}")
        if seq > after:
            events.append(JournalEvent(seq, kind, payload.decode("utf-8")))
        last_seq = seq
    return events, None


def replay_events(
    records: dict[str, dict[str, Any]], events: Iterable[JournalEvent], start_after: int = 0
) -> int:
    """Apply journal events to note records by id, in place. Returns the last seq applied.

    This is the one place a journal payload is parsed, once per event. Each
    event must be seq start_after + 1, then the next, or SequenceGap is
    raised; a payload that is not a valid event raises LoadIntegrityError.
    A note record enters the map shape-checked, and load_store builds the
    notes. A format 3 change, a note_added whose payload is the array
    [seq, new note's record, rewritten notes' records...], adds the new
    note, replaces the rewritten ones, and gives every note the new note
    links to its backlink. Of format 2's events, links_changed edits one
    note's links.
    """
    last = start_after
    for event in events:
        if event.seq != last + 1:
            raise SequenceGap(f"journal event seq {event.seq} does not follow seq {last}")
        try:
            payload = json.loads(event.payload_json)
            if event.kind == "note_added" and isinstance(payload, list):
                _replay_change(records, event.seq, payload)
            elif event.kind != "links_changed":
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
                    and is_text_list(payload["added"])
                    and is_text_list(payload["removed"])
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


def _replay_change(records: dict[str, dict[str, Any]], seq: int, change: list[Any]) -> None:
    """Apply a format 3 change, [seq, added, *evolved], to records; ValueError
    for one that is not a change at seq of records that fit them."""
    if len(change) < 2 or type(change[0]) is not int or change[0] != seq:
        raise ValueError(f"change must be [{seq}, note record, ...]")
    added, *evolved = change[1:]
    for record in change[1:]:
        is_derived_record(record)
    note_id = added["id"]
    if note_id in records:
        raise ValueError(f"note {note_id} added twice")
    for record in evolved:
        if record["id"] not in records:
            raise ValueError(f"evolved note {record['id']} does not exist")
    records[note_id] = added
    records.update((record["id"], record) for record in evolved)
    for link in added["links"]:
        record = records.get(link)
        if record is None:
            raise ValueError(f"note {note_id} links to unknown id {link}")
        if note_id not in record["links"]:
            record["links"] = sorted([*record["links"], note_id])


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
    for start in range(0, len(ids), _PASS_CHUNK):
        records = ",".join(
            canonical_json(notes[nid], derived) for nid in ids[start:start + _PASS_CHUNK]
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
    records: dict[str, dict[str, Any]], encoder: Encoder
) -> tuple[dict[str, MemoryNote], np.ndarray]:
    """Build the note of every record in id order, or raise
    LoadIntegrityError for the first that fails. Returns the notes and the
    read-only float32 matrix of their embeddings, one row per note in id
    order, whose rows the notes view.

    Each chunk of records fills its rows of the matrix: under a
    deterministic encoder one encode_many gives every record its encoding,
    and a stored record's floats are then parsed straight into its row, so
    the row keeps the stored bits (a -0.0 where the encoding has +0.0,
    say). Stored floats of another width than the encoder's fail at once.
    With a non-deterministic encoder nothing is encoded: a derived record
    fails where its row would be filled, before any note is built, and the
    check of stored floats against their encoding degrades to a warning.
    One finiteness check over the chunk's rows then names the first note
    whose embedding holds a NaN or Inf, and note_from_fields builds each
    note on its row, a read-only view, and the text composed for
    encode_many, running every other check once. A derived record's
    embedding must match its embedding_crc, and a stored record's floats
    must equal its encoding bit for bit. A note's links are checked against
    the records as one set, and only a failure sorts them, to name the
    first dangling link.
    """
    verify = encoder.deterministic
    if not verify:
        logger.warning("encoder is not deterministic; skipping embedding verification")
    width = encoder.dimension
    ordered = sorted(records)
    notes: dict[str, MemoryNote] = {}
    # Every row is filled below, or the load fails first.
    matrix = np.empty((len(ordered), width), dtype=np.float32)
    for start in range(0, len(ordered), _PASS_CHUNK):
        chunk = [records[note_id] for note_id in ordered[start:start + _PASS_CHUNK]]
        texts = [record_text(record) for record in chunk]
        rows = matrix[start:start + len(chunk)]
        if verify:
            encodings = encoder.encode_many(texts)
            try:
                np.stack(encodings, out=rows)
            except ValueError as exc:
                raise LoadIntegrityError(
                    f"the encoder's {len(encodings)} encodings of {len(chunk)} note texts "
                    f"are not each a 1-D vector of its dimension {width}"
                ) from exc
            # The rows hold them now: free the encoder's batch before the next.
            del encodings
        # The encodings that stored floats must equal, by row.
        expected: dict[int, np.ndarray] = {}
        for at, record in enumerate(chunk):
            if "embedding_crc" in record:
                if verify:
                    continue
                raise LoadIntegrityError(
                    f"note {record['id']}: record stores embedding_crc; only the "
                    "deterministic encoder that wrote it can derive its embedding"
                )
            floats = record["embedding"]
            if len(floats) != width:
                raise LoadIntegrityError(
                    f"stored embeddings of dimension [{len(floats)}], encoder's {width}"
                )
            if verify:
                expected[at] = rows[at].copy()
            try:
                _stored_floats(floats, rows[at])
            except ValueError as exc:
                raise LoadIntegrityError(f"note {record['id']}: {exc}") from exc
        finite = np.isfinite(rows).all(axis=1)
        if not finite.all():
            note_id = chunk[int(np.argmin(finite))]["id"]
            raise LoadIntegrityError(f"note {note_id}: embedding contains NaN or Inf")
        rows.setflags(write=False)
        for at, (record, text, row) in enumerate(zip(chunk, texts, rows)):
            note_id = record["id"]
            try:
                note = note_from_fields(record, row, text)
            except (ValueError, EmptyContent, InvalidTimestamp) as exc:
                raise LoadIntegrityError(f"note {note_id}: {exc}") from exc
            if not records.keys() >= note.links:
                link = min(note.links - records.keys())
                raise LoadIntegrityError(f"note {note_id} links to unknown id {link}")
            if at in expected and not np.array_equal(row, expected[at]):
                raise LoadIntegrityError(f"note {note_id} embedding does not match its text")
            notes[note_id] = note
    matrix.setflags(write=False)
    return notes, matrix


@dataclass
class LoadResult:
    """A loaded store: its notes, and the read-only matrix of their
    embeddings in id order, whose rows the notes view, for adopt_state to
    hand the index as it stands (no rows for an empty store)."""

    notes: dict[str, MemoryNote]
    last_seq: int
    config: EngineConfig | None
    journal_truncated_at: int | None
    embeddings: np.ndarray


# Reads in a row that a compaction may spoil before load_store gives up.
_LOAD_ATTEMPTS = 5


def _still_names(path: Path, fd: int | None) -> bool:
    """Whether path names the file open as fd, or, for None, names nothing."""
    try:
        now = os.stat(path)
    except FileNotFoundError:
        return fd is None
    return fd is not None and os.path.samestat(os.fstat(fd), now)


def load_store(
    snapshot_path: str | os.PathLike[str],
    journal_path: str | os.PathLike[str],
    encoder: Encoder,
) -> LoadResult:
    """Reconstruct a store from snapshot and journal files, under the
    encoder that derives and checks its embeddings.

    Either file may be absent; both absent yields an empty store. Records
    are shape-checked as they are read; then _build_notes builds and
    verifies every note, and a record that fails there fails the load as
    "note <id>: ...". The result carries the read-only matrix of every
    embedding in id order, whose rows the notes view; open_engine hands it
    to adopt_state, and the index copies it only before its first write
    into it (an insert or an update), so no note's embedding ever changes.
    Until that write the store holds each embedding once; after it the
    notes still view the load's matrix and the index holds its own copy.

    The read takes no lock: it holds the snapshot open, reads it and then
    the journal, and is done again if the snapshot path no longer names the
    held file. A compaction renames its snapshot before it cuts the journal,
    so an unchanged snapshot proves the journal read whole, and only then is
    a SequenceGap or a damaged line damage. After _LOAD_ATTEMPTS replaced
    snapshots: StoreLocked.
    """
    snapshot_file, journal_file = Path(snapshot_path), Path(journal_path)
    for _ in range(_LOAD_ATTEMPTS):
        try:
            held: int | None = os.open(snapshot_file, os.O_RDONLY)
        except FileNotFoundError:
            held = None
        truncated: int | None = None
        try:
            records, config, last_seq = (
                read_snapshot(snapshot_file) if held is not None else ({}, None, 0)
            )
            # A writable open of a new store has just created an empty
            # journal, and a snapshot into a store without one unlinks the
            # empty journal its lock created: either reads as no journal.
            try:
                journal_size = journal_file.stat().st_size
            except FileNotFoundError:
                journal_size = 0
            if journal_size:
                fresh, truncated = read_journal(journal_file, after=last_seq)
                last_seq = replay_events(records, fresh, start_after=last_seq)
        except (SequenceGap, LoadIntegrityError):
            if _still_names(snapshot_file, held):
                raise
        else:
            if _still_names(snapshot_file, held):
                notes, embeddings = _build_notes(records, encoder)
                return LoadResult(notes, last_seq, config, truncated, embeddings)
        finally:
            if held is not None:
                os.close(held)
    raise StoreLocked(
        f"store {snapshot_file.parent} is locked: a compaction replaced its "
        f"snapshot under {_LOAD_ATTEMPTS} reads in a row"
    )


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
    then defaults. A read-only engine gets no journal handle and refuses
    mutations with EngineFailed, so it never holds a note the store lacks.
    A writable open creates the store directory if needed, fsyncing the
    parent of each directory it creates, and builds the Journal, which
    takes the journal's lock, before it loads; so a second writer gets
    StoreLocked and no writer loads a store that another is appending to.
    The engine's close() releases the lock. After the load the journal
    continues from the loaded last_seq, and cuts a torn tail back to the
    last good event before anything is appended. A read-only open takes no
    lock (the journal's is a store's only one) and writes nothing, not even
    the directory; its load is validated instead. Under a deterministic
    encoder the journal writes derived records. An open that fails removes
    the journal file (when the journal created it) and the directories it
    created, then closes the journal.
    """
    snapshot_path, journal_path = store_paths(store_dir)
    if encoder is None:
        encoder = HashEncoder()
    journal: Journal | None = None
    new_dirs: list[Path] = []
    try:
        if not read_only:
            base = journal_path.parent
            new_dirs = list(takewhile(lambda path: not path.exists(), chain([base], base.parents)))
            if new_dirs:
                base.mkdir(parents=True)
                for directory in new_dirs:
                    _fsync_dir(directory.parent)
            journal = Journal(journal_path, derived=encoder.deterministic)
        result = load_store(snapshot_path, journal_path, encoder=encoder)
        config = config if config is not None else result.config
        if journal is not None:
            journal._adopt(result.last_seq, result.journal_truncated_at)
        engine = MemoryEngine(encoder, gateway, config, journal=journal, id_seed=id_seed)
        engine.adopt_state(result.notes, result.last_seq, result.embeddings)
        if read_only:
            engine._failed = "the store was opened read-only; open it writable to add"
    except BaseException:
        # Remove what this open created while it still holds the lock.
        with suppress(OSError):
            if journal is not None and journal.created:
                journal_path.unlink(missing_ok=True)
            for directory in new_dirs:
                directory.rmdir()
        if journal is not None:
            journal.close()
        raise
    return engine


# The start of a snapshot as _snapshot_parts writes it, around its config.
_HEADER_HEAD_RE = re.compile(
    r'\{"format_version":(?:' + "|".join(map(str, READABLE_VERSIONS)) + r'),"config":'
)
_HEADER_TAIL_RE = re.compile(r',"last_seq":(0|[1-9][0-9]*),"notes":\[')
# Bytes read for a snapshot's header.
_HEADER_BYTES = 4096


def _snapshot_last_seq(path: Path) -> int:
    """A snapshot's last_seq, read from its header and not its notes; 0 when
    there is no snapshot. A header not laid out as _snapshot_parts writes
    it, or longer than _HEADER_BYTES, is read with the whole snapshot."""
    try:
        handle = open(path, "rb")
    except FileNotFoundError:
        return 0
    with handle:
        head = handle.read(_HEADER_BYTES)
    try:
        text = head.decode("utf-8")
        start = _HEADER_HEAD_RE.match(text)
        if start is not None:
            _, end = json.JSONDecoder().raw_decode(text, start.end())
            match = _HEADER_TAIL_RE.match(text, end)
            if match is not None:
                return int(match.group(1))
    except ValueError:
        pass
    return read_snapshot(path)[2]


def _journal_last_seq(path: Path, size: int) -> int:
    """The seq of the last line of a journal of `size` bytes that _frame
    accepts, read back from the end, so a torn tail is passed over; 0 when
    no line frames."""
    if not size:
        return 0
    with open(path, "rb") as handle:
        return next((frame[0] for _, frame in _lines_back(handle.fileno(), size) if frame), 0)


def snapshot_engine(engine: MemoryEngine, store_dir: str | os.PathLike[str], compact: bool = False) -> Path:
    """Snapshot a live engine's store; optionally drop journaled history.

    The engine writes one snapshot at a time. A plain snapshot does not
    hold the engine's writer lock. A compacting one does, so no commit
    lands between the snapshot and the journal truncation; it must go into
    the directory of the engine's own journal, or ValueError is raised
    before anything is written. A snapshot into a store whose journal the
    engine does not hold takes that journal's lock for the write
    (lock_journal), so it raises StoreLocked while a writer holds that
    store and changes none of its files; a journal file the lock created
    is removed before the lock is released. Under that lock it writes only
    when the store's last_seq, read from the snapshot's header and the
    journal's last framed line, is 0 (an empty directory) or the engine's,
    and raises ValueError otherwise, so an engine that fell behind a store
    never replaces its newer snapshot. The directory must exist: into a
    missing one lock_journal raises FileNotFoundError and creates nothing.
    """
    snapshot_path, journal_path = store_paths(store_dir)
    journal = engine.journal
    own = journal is not None and _still_names(journal_path, journal._file.fileno())
    if compact and journal is not None and not own:
        raise ValueError(f"a compaction goes into the engine's own store, {journal.path.parent}")

    derived = engine.encoder.deterministic

    def write(notes: Mapping[str, MemoryNote], last_seq: int) -> None:
        if own:
            write_snapshot(snapshot_path, notes, engine.config, last_seq, derived=derived)
            return
        lock, created = lock_journal(journal_path)
        with lock:
            try:
                stored = max(
                    _snapshot_last_seq(snapshot_path),
                    _journal_last_seq(journal_path, os.fstat(lock.fileno()).st_size),
                )
                if stored not in (0, last_seq):
                    raise ValueError(
                        f"store {journal_path.parent} is at seq {stored} and the engine "
                        f"at seq {last_seq}; only an engine at the store's last seq "
                        "may snapshot into it"
                    )
                write_snapshot(snapshot_path, notes, engine.config, last_seq, derived=derived)
            finally:
                if created:
                    journal_path.unlink()

    engine.snapshot(write, compact)
    return snapshot_path
