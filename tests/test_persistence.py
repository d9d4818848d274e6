"""Persistence tests: journal format, crash recovery, snapshots, reload.

The central property: a snapshot plus replayed journal tail reproduces the
live store byte for byte, and ANY byte prefix of a journal loads to a
consistent store. Prefix loading is exercised exhaustively over every
possible truncation point of a real journal.
"""

import errno
import hashlib
import json
import logging
import os
import re
import shutil
import stat
import tempfile
import threading
import warnings
import zlib
from dataclasses import FrozenInstanceError, replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, precondition, rule

from amem import persistence
from amem.embedding import HashEncoder, basis_vector
from amem.engine import Change, EngineConfig, MemoryEngine
from amem.errors import (
    BackendUnavailable,
    EngineFailed,
    LoadIntegrityError,
    SequenceGap,
    StoreLocked,
    VersionMismatch,
)
from amem.gateway import LlmGateway
from amem import notes as notes_module
from amem.notes import (
    IdGenerator,
    MemoryNote,
    canonical_json,
    delta_json,
    is_derived_record,
    note_from_fields,
    note_text,
)
from amem.persistence import (
    FORMAT_VERSION,
    JOURNAL_FILENAME,
    SNAPSHOT_FILENAME,
    Journal,
    JournalEvent,
    load_store,
    lock_journal,
    open_engine,
    payload_crc,
    read_journal,
    read_snapshot,
    replay_events,
    snapshot_engine,
    store_paths,
    write_snapshot,
)
from oracles import oracle_read_journal

CONTENT_A = "photography camera tripod photography camera"
CONTENT_B = "photography camera darkroom darkroom photography camera"
CONTENT_C = "camera lens aperture aperture lens camera"
CONTENT_D = "soup recipe lentil soup recipe"

TS = ["2023-06-01T00:%02d:00Z" % i for i in range(60)]

DIM = 32


def encoder():
    return HashEncoder(dimension=DIM, seed=0)


def live_engine(journal=None, config=None):
    return MemoryEngine(
        encoder(), gateway=LlmGateway(), config=config, journal=journal, id_seed=7
    )


def populated(tmp_path, contents=(CONTENT_A, CONTENT_B, CONTENT_C, CONTENT_D)):
    journal = Journal(tmp_path / JOURNAL_FILENAME)
    engine = live_engine(journal=journal)
    for i, content in enumerate(contents):
        engine.add_memory(content, TS[i])
    # A closed engine still serves reads and plain snapshots.
    engine.close()
    return engine, tmp_path / JOURNAL_FILENAME


def state_map(notes):
    return {nid: canonical_json(note) for nid, note in notes.items()}


def note_record(note, derived=False):
    """A note's record as read_snapshot and replay_events keep it."""
    return json.loads(canonical_json(note, derived))


def hand_note(ids, keyword, links=(), embedding=None):
    content = f"{keyword} note body"
    text = f"{content}\n{keyword}\ntopic:{keyword}\nDiscusses {keyword}."
    return MemoryNote(
        id=ids.fresh(),
        content=content,
        timestamp="2023-06-01T00:00:00Z",
        keywords=(keyword,),
        tags=("topic:" + keyword,),
        context=f"Discusses {keyword}.",
        links=frozenset(links),
        embedding=encoder().encode(text) if embedding is None else embedding,
    )


def change_line(seq, *notes):
    """The format 3 journal line of a change: its seq, then the notes'
    records, the new note's first."""
    records = ",".join(canonical_json(note) for note in notes)
    return JournalEvent(seq, "note_added", f"[{seq},{records}]").line()


# ---------------------------------------------------------------------------
# journal line format


def test_event_line_shape_and_checksum():
    event = JournalEvent(1, "links_changed", '{"id":"x","added":[],"removed":[]}')
    line = event.line()
    crc = payload_crc(event.payload_json)
    assert line == (
        '{"seq":1,"kind":"links_changed",'
        f'"payload":{{"id":"x","added":[],"removed":[]}},"crc":{crc}}}\n'
    )
    assert json.loads(line)["crc"] == crc


def test_a_damaged_seq_digit_fails_the_framing_of_a_change_line(tmp_path):
    # A change's checksum covers its payload, which begins with its seq, so
    # no other seq frames: also not on a journal's first line, which has no
    # line before it to check its seq against, and read as covered when its
    # seq could be damaged. Damage before a framed change fails the load;
    # on the last line it is a tail, as any damage there is.
    store = tmp_path / "store"
    engine = open_engine(store, encoder=encoder(), id_seed=7)
    for i in range(12):
        if i == 10:
            snapshot_engine(engine, store, compact=True)
        engine.add_memory(f"note {i} about {('tea', 'rain', 'maps')[i % 3]} and more", TS[i])
    engine.close()
    journal_path = store / JOURNAL_FILENAME
    lines = journal_path.read_bytes().splitlines(keepends=True)
    assert [json.loads(line)["seq"] for line in lines] == [11, 12]
    for index, line in enumerate(lines):
        for at in range(len(b'{"seq":'), len(b'{"seq":12')):
            for digit in set(b"0123456789") - {line[at]}:
                damaged = line[:at] + bytes([digit]) + line[at + 1:]
                assert persistence._frame(damaged, 0, len(damaged) - 1) is None
                if index == 0:
                    journal_path.write_bytes(damaged + lines[1])
                    with pytest.raises(LoadIntegrityError, match="at byte 0 "):
                        read_journal(journal_path, after=10)
                    journal_path.write_bytes(damaged)
                    assert read_journal(journal_path, after=10) == ([], 0)
                else:
                    journal_path.write_bytes(lines[0] + damaged)
                    events, truncated = read_journal(journal_path, after=10)
                    assert [event.seq for event in events] == [11]
                    assert truncated == len(lines[0])


def test_an_older_build_frames_a_change_line_and_refuses_its_payload(tmp_path):
    # A format 2 build frames a line by _FRAME_RE and a checksum of its
    # payload, then checks the payload of a note_added with
    # is_derived_record: a change line passes the first two steps and fails
    # the third, so that build fails the load and cuts nothing.
    ids = IdGenerator(seed=4)
    line = change_line(1, hand_note(ids, "alpha"), hand_note(ids, "beta")).encode("utf-8")
    match = persistence._FRAME_RE.fullmatch(line)
    assert match is not None
    seq, kind, payload, crc = match.groups()
    assert (seq, kind) == (b"1", b"note_added") and zlib.crc32(payload) == int(crc)
    with pytest.raises(ValueError, match="JSON object"):
        is_derived_record(json.loads(payload))


def test_journal_round_trip(tmp_path):
    ids = IdGenerator(seed=3)
    a = hand_note(ids, "alpha")
    b = hand_note(ids, "beta")
    path = tmp_path / "j.jsonl"
    with Journal(path) as journal:
        journal.write([Change(a), Change(b, rewritten=(a,))])
        assert journal.last_seq == 2

    events, truncated = read_journal(path)
    assert truncated is None
    # one line per change: its seq, its new note, then the notes it rewrote
    assert [e.seq for e in events] == [1, 2]
    assert [e.kind for e in events] == ["note_added", "note_added"]
    assert events[0].payload_json == f"[1,{canonical_json(a)}]"
    # a rewritten note is written as its delta record
    assert events[1].payload_json == f"[2,{canonical_json(b)},{delta_json(a)}]"
    assert path.read_text("utf-8") == (
        change_line(1, a) + JournalEvent(2, "note_added", events[1].payload_json).line()
    )


# Damage read_journal must read exactly as the line oracle does.
JOURNAL_DAMAGE = ("cut", "flip", "blank", "crlf", "unicode_digits", "unicode_space", "seq")


def damaged_journal(data, lines, damage):
    """Apply one drawn damage to the journal bytes built from lines."""
    raw = b"".join(lines)
    starts = [sum(len(line) for line in lines[:i]) for i in range(len(lines) + 1)]
    line = data.draw(st.integers(0, len(lines) - 1))
    head, tail = raw[: starts[line]], raw[starts[line + 1]:]
    if damage == "cut":
        return raw[: data.draw(st.integers(0, len(raw)))]
    if damage == "flip":
        at = data.draw(st.integers(0, len(raw) - 1))
        return raw[:at] + bytes([raw[at] ^ data.draw(st.integers(1, 255))]) + raw[at + 1:]
    if damage == "blank":
        blank = data.draw(st.sampled_from([b"\n", b"  \n", b"\t\r\n", b" "]))
        return head + blank + raw[starts[line]:]
    if damage == "crlf":
        return head + lines[line][:-1] + b"\r\n" + tail
    if damage == "seq":
        # Another seq, which the checksum (over the payload only) lets frame.
        seq = re.match(rb'\{"seq":([0-9]+)', lines[line])
        if seq is None:
            return raw
        other = str(data.draw(st.integers(0, 20))).encode()
        return head + b'{"seq":' + other + lines[line][seq.end():] + tail
    if damage == "unicode_digits":
        # The same seq in Arabic-Indic digits, which a text pattern's \d reads.
        seq = re.match(rb'\{"seq":([0-9]+)', lines[line])
        if seq is None:
            return raw
        digits = "".join(chr(0x660 + int(d)) for d in seq.group(1).decode())
        return head + b'{"seq":' + digits.encode("utf-8") + lines[line][seq.end():] + tail
    space = data.draw(st.sampled_from(["\u00a0", "\u3000", "\x1c", "\x85"]))
    return head + lines[line][:-1] + space.encode("utf-8") + b"\n" + tail


def framing_outcome(read, path, after):
    try:
        return read(path, after)
    except Exception as exc:  # the verdict is the exception's class
        return type(exc)


@settings(max_examples=300, deadline=None)
@given(
    first=st.integers(0, 12),
    events=st.lists(
        st.tuples(
            st.sampled_from(persistence.EVENT_KINDS),
            st.sampled_from(
                [
                    '{"id":"a","added":[],"removed":[]}',
                    '{"id":"h\u00e9ron \u6771\u4eac","added":["b"],"removed":[]}',
                    '{"a":1,"crc":5}',
                    '{"a":"x"},"crc":7}',
                ]
            )
            | st.text(st.characters(codec="utf-8", exclude_categories=("Cs",)), max_size=12),
        ),
        min_size=1,
        max_size=5,
    ),
    damages=st.lists(st.sampled_from(JOURNAL_DAMAGE), max_size=3),
    data=st.data(),
)
def test_read_journal_gives_the_line_oracles_verdict(first, events, damages, data):
    lines = [
        JournalEvent(first + i, kind, payload).line().encode("utf-8")
        for i, (kind, payload) in enumerate(events)
    ]
    raw = b"".join(lines)
    for damage in damages:
        raw = damaged_journal(data, lines, damage)
        lines = raw.splitlines(keepends=True) or [b"\n"]
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / JOURNAL_FILENAME
        path.write_bytes(raw)
        for after in range(first + len(events) + 1):
            assert framing_outcome(read_journal, path, after) == framing_outcome(
                oracle_read_journal, path, after
            )


def test_read_journal_rejects_sequence_gaps(tmp_path):
    path = tmp_path / "j.jsonl"
    lines = [
        JournalEvent(1, "links_changed", '{"id":"a","added":[],"removed":[]}').line(),
        JournalEvent(3, "links_changed", '{"id":"a","added":[],"removed":[]}').line(),
    ]
    path.write_text("".join(lines), "utf-8")
    with pytest.raises(SequenceGap):
        read_journal(path)


def test_read_journal_stops_at_checksum_mismatch(tmp_path):
    path = tmp_path / "j.jsonl"
    good = JournalEvent(1, "links_changed", '{"id":"a","added":[],"removed":[]}').line()
    bad = JournalEvent(2, "links_changed", '{"id":"b","added":[],"removed":[]}').line()
    # flip one payload byte without fixing the checksum
    bad = bad.replace('"id":"b"', '"id":"c"')
    path.write_text(good + bad, "utf-8")
    events, truncated = read_journal(path)
    assert [e.seq for e in events] == [1]
    assert truncated == len(good.encode("utf-8"))


def test_read_journal_stops_at_partial_tail(tmp_path):
    path = tmp_path / "j.jsonl"
    good = JournalEvent(1, "links_changed", '{"id":"a","added":[],"removed":[]}').line()
    path.write_text(good + '{"seq":2,"kind":"note_ad', "utf-8")
    events, truncated = read_journal(path)
    assert len(events) == 1
    assert truncated == len(good.encode("utf-8"))


def test_journal_truncate_keeps_the_sequence_counter(tmp_path):
    ids = IdGenerator(seed=3)
    path = tmp_path / "j.jsonl"
    journal = Journal(path)
    journal.write([Change(hand_note(ids, "alpha")), Change(hand_note(ids, "beta"))])
    journal.truncate()
    assert path.read_bytes() == b""
    assert journal.last_seq == 2
    journal.write([Change(hand_note(ids, "gamma"))])
    journal.close()
    events, truncated = read_journal(path)
    assert truncated is None
    assert [e.seq for e in events] == [3]


# ---------------------------------------------------------------------------
# replay


def test_replay_rejects_inconsistent_streams():
    ids = IdGenerator(seed=4)
    note = hand_note(ids, "alpha")
    added = JournalEvent(1, "note_added", canonical_json(note))

    with pytest.raises(LoadIntegrityError, match="seq 2"):
        replay_events({}, [added, JournalEvent(2, "note_added", canonical_json(note))])
    with pytest.raises(LoadIntegrityError, match="seq 1"):
        replay_events({}, [JournalEvent(1, "note_evolved", canonical_json(note))])
    with pytest.raises(LoadIntegrityError, match="seq 1"):
        replay_events(
            {}, [JournalEvent(1, "links_changed", '{"id":"x","added":[]}')]
        )
    with pytest.raises(LoadIntegrityError, match="unknown note"):
        replay_events(
            {},
            [JournalEvent(1, "links_changed", '{"id":"x","added":[],"removed":[]}')],
        )
    # a format 3 change: a note added twice, and a change not at its line's seq
    with pytest.raises(LoadIntegrityError, match=f"seq 2: note {note.id} added twice"):
        replay_events(
            {}, [JournalEvent(i, "note_added", f"[{i},{canonical_json(note)}]") for i in (1, 2)]
        )
    for first in ("2", "true"):
        with pytest.raises(LoadIntegrityError, match=re.escape("change must be [1, note record")):
            replay_events({}, [JournalEvent(1, "note_added", f"[{first},{canonical_json(note)}]")])


def test_replay_rejects_an_event_at_or_below_start_after():
    ids = IdGenerator(seed=4)
    note = hand_note(ids, "alpha")
    events = [
        JournalEvent(1, "note_added", canonical_json(note)),
        JournalEvent(2, "links_changed", f'{{"id":"{note.id}","added":[],"removed":[]}}'),
    ]
    for start_after in (1, 2):
        records = {note.id: note_record(note)}
        with pytest.raises(SequenceGap):
            replay_events(records, events, start_after=start_after)
        assert records == {note.id: note_record(note)}
    records = {note.id: note_record(note)}
    assert replay_events(records, events[1:], start_after=1) == 2
    assert records[note.id] == note_record(note)


# ---------------------------------------------------------------------------
# the prefix property: every truncation point yields a loadable store


def test_every_journal_prefix_loads_consistently(tmp_path):
    _, journal_path = populated(tmp_path)
    data = journal_path.read_bytes()
    assert len(data) > 0
    prefix_path = tmp_path / "prefix.jsonl"
    sizes_seen = set()
    for cut in range(len(data) + 1):
        prefix_path.write_bytes(data[:cut])
        events, _ = read_journal(prefix_path)
        records = {}
        replay_events(records, events)
        for record in records.values():
            for link in record["links"]:
                assert link in records
        sizes_seen.add(len(records))
    # truncation actually swept through every store size
    assert sizes_seen == {0, 1, 2, 3, 4}


def test_every_crash_prefix_of_a_change_journal_opens_to_its_whole_changes(tmp_path):
    # Four adds, the fourth linking a neighbor it rewrites and one it leaves
    # as it was, then a plain snapshot and a fifth add. A crash leaves a
    # prefix of the journal, and the snapshot only once the four lines it
    # covers were synced, or not yet. Each prefix opens writable to exactly
    # the changes whose line is whole, with every link's backlink.
    store = tmp_path / "store"
    engine = open_engine(store, encoder=encoder(), id_seed=7)
    contents = (
        CONTENT_A,
        CONTENT_C,
        CONTENT_D,
        "aperture lens tripod aperture lens tripod",
        "soup lentil broth soup lentil",
    )
    states = [{}]
    for i, content in enumerate(contents):
        if i == 4:
            snapshot_engine(engine, store)
        engine.add_memory(content, TS[i])
        states.append(state_map(engine.state_snapshot()[0]))
    engine.close()
    snapshot_path, journal_path = store_paths(store)
    data, snapshot = journal_path.read_bytes(), snapshot_path.read_bytes()
    added, rewritten = json.loads(data.splitlines()[3])["payload"][1:]
    assert len(added["links"]) == 2 and rewritten["id"] in added["links"]
    ends = [at + 1 for at, byte in enumerate(data) if byte == ord("\n")]
    assert len(ends) == 5

    prefix = tmp_path / "prefix"
    prefix.mkdir()
    prefix_snapshot, prefix_journal = store_paths(prefix)
    for cut in range(len(data) + 1):
        whole = sum(end <= cut for end in ends)
        for with_snapshot in {False, whole >= 4}:
            prefix_journal.write_bytes(data[:cut])
            if with_snapshot:
                prefix_snapshot.write_bytes(snapshot)
            reopened = open_engine(prefix, encoder=encoder())
            assert state_map(reopened.state_snapshot()[0]) == states[whole]
            assert reopened.audit() == []
            reopened.close()
            prefix_snapshot.unlink(missing_ok=True)


def assert_after_matches_full_read(path):
    """read_journal(path, after=k) returns the full read's events past k
    and the same truncation offset, for every k."""
    events, truncated = read_journal(path)
    for after in range(len(events) + 3):
        assert read_journal(path, after=after) == (
            [event for event in events if event.seq > after],
            truncated,
        )


def test_reading_past_a_seq_agrees_with_a_full_read_on_every_prefix(tmp_path):
    ids = IdGenerator(seed=5)
    a, b, c = hand_note(ids, "alpha"), hand_note(ids, "beta"), hand_note(ids, "gamma")
    path = tmp_path / "j.jsonl"
    # two format 2 lines, as an older build wrote them, then format 3 changes
    path.write_text(
        JournalEvent(1, "note_added", canonical_json(a)).line()
        + JournalEvent(2, "links_changed", f'{{"id":"{a.id}","added":[],"removed":[]}}').line(),
        "utf-8",
    )
    with Journal(path) as journal:
        journal._adopt(2, None)
        journal.write([Change(b, rewritten=(a,)), Change(c)])
    data = path.read_bytes()
    prefix = tmp_path / "prefix.jsonl"
    for cut in range(len(data) + 1):
        prefix.write_bytes(data[:cut])
        assert_after_matches_full_read(prefix)


def test_a_line_with_a_bad_checksum_is_refused_unless_covered(tmp_path):
    # Notes are added after seq 2, so a crash cannot have torn it: before
    # the snapshot covers it, it is damage; after, it is not read.
    _, journal_path = populated(tmp_path)
    lines = journal_path.read_bytes().splitlines(keepends=True)
    head, crc = lines[1].rsplit(b'"crc":', 1)
    lines[1] = head + b'"crc":' + str(int(crc[:-2]) ^ 1).encode() + b"}\n"
    data = b"".join(lines)
    journal_path.write_bytes(data)
    for after in (0, 1):
        with pytest.raises(LoadIntegrityError, match=f"at byte {len(lines[0])} "):
            read_journal(journal_path, after=after)
    for after in range(2, len(lines) + 2):
        events, truncated = read_journal(journal_path, after=after)
        assert [event.seq for event in events] == list(range(after + 1, len(lines) + 1))
        assert truncated is None
    assert journal_path.read_bytes() == data


@pytest.mark.parametrize("followed", [False, True], ids=["tail", "damage"])
def test_a_line_whose_checksummed_payload_is_not_utf8_fails_its_framing(tmp_path, followed):
    # Its checksum matches, so only the UTF-8 check refuses it: as the last
    # line it is a torn tail, before a note_added it is damage.
    ids = IdGenerator(seed=4)
    payload = b'[2,"\xff"]'
    bad = b'{"seq":2,"kind":"note_added","payload":%s,"crc":%d}\n' % (payload, zlib.crc32(payload))
    good = change_line(1, hand_note(ids, "alpha")).encode("utf-8")
    after = change_line(3, hand_note(ids, "beta")).encode("utf-8") if followed else b""
    path = tmp_path / JOURNAL_FILENAME
    path.write_bytes(good + bad + after)
    assert persistence._FRAME_RE.fullmatch(bad) is not None
    if followed:
        with pytest.raises(LoadIntegrityError, match=f"at byte {len(good)} is damaged"):
            read_journal(path)
    else:
        events, truncated = read_journal(path)
        assert [event.seq for event in events] == [1] and truncated == len(good)


def test_read_journal_frames_only_the_lines_past_after(tmp_path, monkeypatch):
    _, journal_path = populated(tmp_path)
    full, _ = read_journal(journal_path)
    framed = []

    def counting_frame(data, start, end):
        framed.append(start)
        return frame(data, start, end)

    frame = persistence._frame
    monkeypatch.setattr(persistence, "_frame", counting_frame)
    for after in range(len(full) + 2):
        framed.clear()
        events, truncated = read_journal(journal_path, after=after)
        assert events == full[after:] and truncated is None
        # the line the walk stops at and the framed line before it
        assert len(framed) <= len(events) + 2


@pytest.mark.parametrize("span", [1, 7, 300])
def test_reading_back_in_small_spans_gives_the_line_oracles_verdict(tmp_path, monkeypatch, span):
    # Each damage lands on lines that the spans split.
    _, journal_path = populated(tmp_path)
    data = journal_path.read_bytes()
    cut = data.index(b"\n", len(data) // 2) + 1
    flipped = bytearray(data)
    flipped[cut + 30] ^= 1
    damaged = [
        data,
        data[:-5],
        data + b"  \n\t",
        data[:cut] + b"\n" + data[cut:],
        bytes(flipped),
        bytes(flipped[: len(data) - 100]),
    ]
    monkeypatch.setattr(persistence, "_TAIL_BYTES", span)
    for raw in damaged:
        journal_path.write_bytes(raw)
        for after in range(12):
            assert framing_outcome(read_journal, journal_path, after) == framing_outcome(
                oracle_read_journal, journal_path, after
            )
    journal_path.write_bytes(data[:-5])
    assert persistence._journal_last_seq(journal_path, len(data) - 5) == 3


def test_a_framed_line_with_a_bad_payload_is_read_and_fails_the_replay(tmp_path):
    # Framing holds, so this is no torn tail, whatever the snapshot covers.
    note = hand_note(IdGenerator(seed=4), "alpha")
    snapshot_path, journal_path = store_paths(tmp_path)
    journal_path.write_text(
        JournalEvent(1, "links_changed", "[1]").line()
        + JournalEvent(2, "links_changed", f'{{"id":"{note.id}","added":[],"removed":[]}}').line(),
        "utf-8",
    )
    for after in range(4):
        events, truncated = read_journal(journal_path, after=after)
        assert [event.seq for event in events] == [1, 2][after:] and truncated is None

    write_snapshot(snapshot_path, {note.id: note}, EngineConfig(), 0)
    with pytest.raises(LoadIntegrityError, match="seq 1"):
        load_store(snapshot_path, journal_path, encoder=encoder())
    write_snapshot(snapshot_path, {note.id: note}, EngineConfig(), 1)
    result = load_store(snapshot_path, journal_path, encoder=encoder())
    assert result.notes == {note.id: note} and result.last_seq == 2


# ---------------------------------------------------------------------------
# snapshots


def test_snapshot_round_trip_is_byte_stable(tmp_path):
    engine, _ = populated(tmp_path)
    notes, last_seq = engine.state_snapshot()
    path, again = tmp_path / SNAPSHOT_FILENAME, tmp_path / "again.json"
    write_snapshot(path, notes, engine.config, last_seq)
    write_snapshot(again, notes, engine.config, last_seq)
    assert path.read_bytes() == again.read_bytes()

    records, config, loaded_seq = read_snapshot(path)
    assert records == {nid: note_record(note) for nid, note in notes.items()}
    loaded_notes = load_store(path, tmp_path / "no-journal", encoder=encoder()).notes
    assert loaded_seq == last_seq
    assert config == engine.config
    assert state_map(loaded_notes) == state_map(notes)
    for nid in notes:
        assert np.array_equal(loaded_notes[nid].embedding, notes[nid].embedding)


def test_read_snapshot_rejects_damage(tmp_path):
    engine, _ = populated(tmp_path, contents=(CONTENT_A,))
    notes, last_seq = engine.state_snapshot()
    path = tmp_path / SNAPSHOT_FILENAME
    write_snapshot(path, notes, engine.config, last_seq)
    good = path.read_text("utf-8")

    path.write_text("not json", "utf-8")
    with pytest.raises(LoadIntegrityError):
        read_snapshot(path)

    path.write_text(good.replace(f'"format_version":{FORMAT_VERSION}', '"format_version":99'), "utf-8")
    with pytest.raises(VersionMismatch):
        read_snapshot(path)

    path.write_text(good.replace('"last_seq"', '"wrong_key"'), "utf-8")
    with pytest.raises(LoadIntegrityError):
        read_snapshot(path)

    body = canonical_json(next(iter(notes.values())))
    duplicated = good.replace(f'"notes":[{body}]', f'"notes":[{body},{body}]')
    path.write_text(duplicated, "utf-8")
    with pytest.raises(LoadIntegrityError, match="twice"):
        read_snapshot(path)


def read_snapshot_text(path, text):
    path.write_text(text, "utf-8")
    return read_snapshot(path)


def read_snapshot_with(path, **overrides):
    document = {"format_version": FORMAT_VERSION, "config": {}, "last_seq": 0, "notes": []}
    return read_snapshot_text(path, json.dumps({**document, **overrides}))


def nested_link_note():
    fields = json.loads(canonical_json(hand_note(IdGenerator(seed=4), "alpha")))
    return {**fields, "links": [["nested"]]}


def replay_links_changed(added, removed):
    note = hand_note(IdGenerator(seed=4), "alpha")
    payload = json.dumps({"id": note.id, "added": added, "removed": removed})
    replay_events({note.id: note_record(note)}, [JournalEvent(1, "links_changed", payload)])


@pytest.mark.parametrize(
    "load",
    [
        pytest.param(lambda p: read_snapshot_text(p, "[]"), id="document-array"),
        pytest.param(lambda p: read_snapshot_with(p, config=[]), id="config-array"),
        pytest.param(lambda p: read_snapshot_with(p, notes=5), id="notes-int"),
        pytest.param(lambda p: read_snapshot_with(p, notes=None), id="notes-null"),
        pytest.param(lambda p: read_snapshot_with(p, notes=True), id="notes-bool"),
        pytest.param(lambda p: read_snapshot_with(p, last_seq=True), id="seq-bool"),
        pytest.param(lambda p: read_snapshot_with(p, notes=[nested_link_note()]), id="link-list"),
        pytest.param(lambda p: read_snapshot_with(p, config={"k_by_category": 5}), id="k-map-int"),
        pytest.param(lambda p: read_snapshot_with(p, config={"k_link": 0}), id="k-link-zero"),
        pytest.param(lambda p: read_snapshot_with(p, config={"k_link": True}), id="k-link-bool"),
        pytest.param(lambda p: read_snapshot_with(p, config={"k_retrieve": True}), id="k-bool"),
        pytest.param(
            lambda p: read_snapshot_with(p, config={"k_by_category": {"a": True}}), id="k-map-bool"
        ),
        pytest.param(
            lambda p: read_snapshot_with(p, config={"enable_evolution": "no"}), id="flag-str"
        ),
        pytest.param(
            lambda p: read_snapshot_with(p, config={"enable_link_expansion": 1}), id="flag-int"
        ),
        pytest.param(lambda p: replay_links_changed(5, []), id="added-int"),
        pytest.param(lambda p: replay_links_changed([], None), id="removed-null"),
    ],
)
def test_loaders_reject_wrongly_typed_fields(tmp_path, load):
    with pytest.raises(LoadIntegrityError):
        load(tmp_path / SNAPSHOT_FILENAME)


# ---------------------------------------------------------------------------
# load_store


def test_journal_only_load_reproduces_the_store(tmp_path):
    engine, journal_path = populated(tmp_path)
    live, _ = engine.state_snapshot()
    result = load_store(tmp_path / SNAPSHOT_FILENAME, journal_path, encoder=encoder())
    assert state_map(result.notes) == state_map(live)
    assert result.config is None
    assert result.journal_truncated_at is None


def test_snapshot_plus_tail_equals_full_replay(tmp_path):
    journal = Journal(tmp_path / JOURNAL_FILENAME)
    engine = live_engine(journal=journal)
    engine.add_memory(CONTENT_A, TS[0])
    engine.add_memory(CONTENT_D, TS[1])
    snapshot_engine(engine, tmp_path)
    engine.add_memory(CONTENT_B, TS[2])
    engine.add_memory(CONTENT_C, TS[3])
    live, live_seq = engine.state_snapshot()
    engine.close()

    snapshot_path, journal_path = store_paths(tmp_path)
    dual = load_store(snapshot_path, journal_path, encoder=encoder())
    assert state_map(dual.notes) == state_map(live)
    assert dual.last_seq == live_seq

    full = load_store(tmp_path / "missing.json", journal_path, encoder=encoder())
    assert state_map(full.notes) == state_map(live)


def test_load_store_rejects_gap_between_snapshot_and_journal(tmp_path):
    engine, journal_path = populated(tmp_path, contents=(CONTENT_A,))
    snapshot_engine(engine, tmp_path)
    _, last_seq = engine.state_snapshot()
    journal_path.unlink()
    with Journal(journal_path) as journal:
        journal._adopt(last_seq + 5, None)
        journal.write([Change(hand_note(IdGenerator(seed=9), "omega"))])
    with pytest.raises(SequenceGap):
        load_store(tmp_path / SNAPSHOT_FILENAME, journal_path, encoder=encoder())


def test_load_store_rejects_dangling_links(tmp_path):
    ids = IdGenerator(seed=9)
    ghost = ids.fresh()
    note = hand_note(ids, "alpha", links={ghost})
    path = tmp_path / JOURNAL_FILENAME
    with Journal(path) as journal:
        journal.write([Change(note)])
    with pytest.raises(LoadIntegrityError, match="unknown id"):
        load_store(tmp_path / SNAPSHOT_FILENAME, path, encoder=encoder())


@pytest.mark.parametrize("source", ["the snapshot", "journal seq 2"])
def test_a_dangling_link_no_replay_checks_fails_the_load_naming_its_record(tmp_path, source):
    # Replay checks a format 3 or 4 change's links; a snapshot record's, or
    # those a format 2 links_changed adds, are checked as the notes are built.
    ids = IdGenerator(seed=9)
    ghost = ids.fresh()
    note = hand_note(ids, "alpha")
    snapshot_path, journal_path = store_paths(tmp_path)
    if source == "the snapshot":
        dangling = replace(note, links=frozenset({ghost}))
        write_snapshot(snapshot_path, {note.id: dangling}, EngineConfig(), 0)
    else:
        links = json.dumps({"id": note.id, "added": [ghost], "removed": []})
        journal_path.write_text(
            JournalEvent(1, "note_added", canonical_json(note)).line()
            + JournalEvent(2, "links_changed", links).line(),
            "utf-8",
        )
    message = f"note {note.id} links to unknown id {ghost} (record from {source})"
    with pytest.raises(LoadIntegrityError, match=f"^{re.escape(message)}$"):
        load_store(snapshot_path, journal_path, encoder=encoder())


def test_load_store_verifies_embeddings_deterministically(tmp_path):
    ids = IdGenerator(seed=9)
    stale = hand_note(ids, "alpha", embedding=basis_vector(DIM))
    path = tmp_path / JOURNAL_FILENAME
    with Journal(path) as journal:
        journal.write([Change(stale)])
    # a non-deterministic encoder cannot check embeddings
    result = load_store(tmp_path / SNAPSHOT_FILENAME, path, encoder=UndeclaredHashEncoder(DIM))
    assert len(result.notes) == 1
    with pytest.raises(LoadIntegrityError, match="embedding"):
        load_store(tmp_path / SNAPSHOT_FILENAME, path, encoder=encoder())


def test_a_stale_embedding_past_the_first_verification_chunk_fails_the_load(tmp_path):
    ids = IdGenerator(seed=9)
    notes = {note.id: note for note in (hand_note(ids, f"kw{i}") for i in range(300))}
    ordered = sorted(notes)
    stale_id, dangling_id = ordered[256], ordered[299]
    notes[stale_id] = replace(notes[stale_id], embedding=notes[ordered[0]].embedding)
    snapshot_path, journal_path = store_paths(tmp_path)
    write_snapshot(snapshot_path, notes, EngineConfig(), 0)
    stale = f"note {stale_id} embedding does not match its text"
    with pytest.raises(LoadIntegrityError, match=rf"^{stale} \(record from the snapshot\)$"):
        load_store(snapshot_path, journal_path, encoder=encoder())

    ghost = ids.fresh()
    notes[dangling_id] = replace(notes[dangling_id], links=frozenset({ghost}))
    engine = live_engine()
    engine.adopt_state(notes)
    assert engine.audit() == [stale, f"note {dangling_id} links to unknown id {ghost}"]


def test_load_store_reports_truncation_offset(tmp_path):
    _, journal_path = populated(tmp_path, contents=(CONTENT_A, CONTENT_D))
    data = journal_path.read_bytes()
    journal_path.write_bytes(data[:-10])
    result = load_store(tmp_path / SNAPSHOT_FILENAME, journal_path, encoder=encoder())
    assert result.journal_truncated_at is not None
    assert len(result.notes) == 1


def test_load_store_empty_directory(tmp_path):
    result = load_store(*store_paths(tmp_path), encoder=encoder())
    assert result.notes == {} and result.last_seq == 0


# ---------------------------------------------------------------------------
# open_engine / snapshot_engine


def test_open_engine_round_trip(tmp_path):
    store = tmp_path / "store"
    engine = open_engine(store, encoder=encoder(), id_seed=7)
    for i, content in enumerate((CONTENT_A, CONTENT_B, CONTENT_C, CONTENT_D)):
        engine.add_memory(content, TS[i])
    live = state_map(engine.state_snapshot()[0])
    engine.close()

    reopened = open_engine(store, encoder=encoder(), id_seed=7)
    assert state_map(reopened.state_snapshot()[0]) == live
    assert reopened.audit() == []
    # the journal resumes at the right sequence number
    reopened.add_memory("fresh note content here", TS[10])
    events, truncated = read_journal(store / JOURNAL_FILENAME)
    assert truncated is None
    assert [e.seq for e in events] == list(range(1, len(events) + 1))
    reopened.close()


def test_open_engine_config_precedence(tmp_path):
    store = tmp_path / "store"
    saved = EngineConfig(k_link=3, enable_evolution=False)
    engine = open_engine(store, encoder=encoder(), config=saved)
    engine.add_memory(CONTENT_A, TS[0])
    snapshot_engine(engine, store)
    engine.close()

    from_snapshot = open_engine(store, encoder=encoder())
    assert from_snapshot.config == saved
    from_snapshot.close()

    override = EngineConfig(k_link=9)
    explicit = open_engine(store, encoder=encoder(), config=override)
    assert explicit.config == override
    explicit.close()



def test_an_engine_config_cannot_change_into_an_unloadable_snapshot(tmp_path):
    store = tmp_path / "store"
    engine = open_engine(store, encoder=encoder(), config=EngineConfig(k_by_category={"qa": 2}))
    engine.add_memory(CONTENT_A, TS[0])
    with pytest.raises(FrozenInstanceError):
        engine.config.k_link = 0
    with pytest.raises(TypeError):
        engine.config.k_by_category["qa"] = 0
    snapshot_engine(engine, store)
    # a whole new config is how an engine's behavior changes
    engine.config = EngineConfig(k_link=4)
    snapshot_engine(engine, store)
    engine.close()

    reopened = open_engine(store, encoder=encoder())
    assert reopened.config == EngineConfig(k_link=4)
    reopened.close()

def test_open_engine_read_only_has_no_journal(tmp_path):
    store = tmp_path / "store"
    engine = open_engine(store, encoder=encoder())
    engine.add_memory(CONTENT_A, TS[0])
    engine.close()
    before = (store / JOURNAL_FILENAME).read_bytes()

    reader = open_engine(store, encoder=encoder(), read_only=True)
    assert reader.journal is None
    assert len(reader.retrieve("camera", k=1)) == 1
    # a reader never holds a note the store lacks: its add is refused
    with pytest.raises(EngineFailed, match="read-only"):
        reader.add_memory(CONTENT_D, TS[1])
    assert len(reader) == 1
    reader.close()
    assert (store / JOURNAL_FILENAME).read_bytes() == before


def test_a_read_only_add_is_refused_and_changes_no_store_file(tmp_path):
    store = tmp_path / "store"
    engine = open_engine(store, encoder=encoder(), id_seed=7)
    engine.add_memory(CONTENT_A, TS[0])
    snapshot_engine(engine, store)
    engine.add_memory(CONTENT_B, TS[1])
    engine.close()
    files = {path.name: path.read_bytes() for path in store.iterdir()}
    assert sorted(files) == [JOURNAL_FILENAME, SNAPSHOT_FILENAME]

    reader = open_engine(store, encoder=encoder(), read_only=True)
    live = state_map(reader.state_snapshot()[0])
    with pytest.raises(EngineFailed, match="opened read-only"):
        reader.add_memory(CONTENT_D, TS[2])
    assert state_map(reader.state_snapshot()[0]) == live
    reader.close()
    assert {path.name: path.read_bytes() for path in store.iterdir()} == files


def test_read_only_open_publishes_the_loaded_last_seq(tmp_path):
    store = tmp_path / "store"
    engine = open_engine(store, encoder=encoder(), id_seed=7)
    engine.add_memory(CONTENT_A, TS[0])
    engine.add_memory(CONTENT_B, TS[1])
    live, last_seq = engine.state_snapshot()
    engine.close()

    reader = open_engine(store, encoder=encoder(), read_only=True)
    assert reader.state_snapshot()[1] == last_seq
    # a snapshot of the reader covers the journal, so a load replays nothing twice
    snapshot_engine(reader, store)
    reader.close()
    reloaded = load_store(*store_paths(store), encoder=encoder())
    assert reloaded.last_seq == last_seq
    assert state_map(reloaded.notes) == state_map(live)


def test_compaction_drops_history_but_not_state(tmp_path):
    store = tmp_path / "store"
    engine = open_engine(store, encoder=encoder(), id_seed=7)
    engine.add_memory(CONTENT_A, TS[0])
    engine.add_memory(CONTENT_B, TS[1])
    snapshot_engine(engine, store, compact=True)
    assert (store / JOURNAL_FILENAME).read_bytes() == b""
    engine.add_memory(CONTENT_C, TS[2])
    live = state_map(engine.state_snapshot()[0])
    engine.close()

    reopened = open_engine(store, encoder=encoder())
    assert state_map(reopened.state_snapshot()[0]) == live
    assert reopened.audit() == []
    reopened.close()


def test_reload_then_continue_then_reload_again(tmp_path):
    store = tmp_path / "store"
    engine = open_engine(store, encoder=encoder(), id_seed=7)
    engine.add_memory(CONTENT_A, TS[0])
    engine.close()

    second = open_engine(store, encoder=encoder(), id_seed=7)
    second.add_memory(CONTENT_B, TS[1])
    live = state_map(second.state_snapshot()[0])
    second.close()

    third = open_engine(store, encoder=encoder())
    assert state_map(third.state_snapshot()[0]) == live
    # the rewrite that linked A and B survived both reloads
    linked = [note for note in third.iter_notes() if note.links]
    assert len(linked) == 2
    third.close()


def test_writes_after_a_torn_tail_survive_reopen(tmp_path, caplog):
    # A tail is what fails framing at the journal's end: a line cut short
    # (tail None: the last 40 bytes go), or whitespace alone, which the
    # writer never writes. Each is cut before the next append.
    for number, tail in enumerate((None, b"\n", b"  ", b"\t\r\n")):
        store = tmp_path / f"store{number}"
        engine = open_engine(store, encoder=encoder(), id_seed=7)
        for i, content in enumerate((CONTENT_A, CONTENT_B, CONTENT_C, CONTENT_D)):
            engine.add_memory(content, TS[i])
        engine.close()
        journal_path = store / JOURNAL_FILENAME
        whole = journal_path.read_bytes()
        torn = whole[:-40] if tail is None else whole + tail
        journal_path.write_bytes(torn)
        before = load_store(*store_paths(store), encoder=encoder())
        torn_at = before.journal_truncated_at
        assert torn_at is not None
        assert tail is None or torn_at == len(whole)

        # a read-only open recovers in memory, says so, and leaves the file alone
        with caplog.at_level(logging.WARNING, logger="amem.persistence"):
            reader = open_engine(store, encoder=encoder(), read_only=True)
        assert f"torn tail of {len(torn) - torn_at} bytes at byte {torn_at}" in caplog.text
        caplog.clear()
        assert len(reader.state_snapshot()[0]) == len(before.notes)
        reader.close()
        assert journal_path.read_bytes() == torn

        with caplog.at_level(logging.WARNING, logger="amem.persistence"):
            recovered = open_engine(store, encoder=encoder(), id_seed=8)
        assert journal_path.read_bytes() == torn[:torn_at]
        assert f"at byte {torn_at}" in caplog.text
        caplog.clear()
        recovered.add_memory("fresh note written after the recovery", TS[10])
        live = state_map(recovered.state_snapshot()[0])
        recovered.close()
        assert len(live) == len(before.notes) + 1

        reloaded = load_store(*store_paths(store), encoder=encoder())
        assert reloaded.journal_truncated_at is None
        assert state_map(reloaded.notes) == live
        reopened = open_engine(store, encoder=encoder())
        assert state_map(reopened.state_snapshot()[0]) == live
        assert reopened.audit() == []
        reopened.close()



def test_a_last_line_without_its_newline_is_a_torn_tail(tmp_path):
    # An append cut off just before its newline leaves a line that parses.
    # Read as an event, the next append would share its line and be lost.
    store = tmp_path / "store"
    engine = open_engine(store, encoder=encoder(), id_seed=7)
    engine.add_memory(CONTENT_A, TS[0])
    notes, last_seq = engine.state_snapshot()
    engine.close()
    journal_path = store / JOURNAL_FILENAME
    good = journal_path.read_bytes()
    note = next(iter(notes.values()))
    unfinished = JournalEvent(last_seq + 1, "note_evolved", canonical_json(note)).line()
    journal_path.write_bytes(good + unfinished[:-1].encode("utf-8"))
    assert read_journal(journal_path)[1] == len(good)

    recovered = open_engine(store, encoder=encoder(), id_seed=8)
    assert journal_path.read_bytes() == good
    recovered.add_memory(CONTENT_D, TS[1])
    live = state_map(recovered.state_snapshot()[0])
    recovered.close()
    reloaded = load_store(*store_paths(store), encoder=encoder())
    assert reloaded.journal_truncated_at is None
    assert state_map(reloaded.notes) == live

def test_a_framed_line_with_a_bad_payload_fails_a_writable_open_and_cuts_nothing(tmp_path):
    # A torn write cannot produce a line whose checksum holds, so the events
    # after such a line are acknowledged adds that must not be cut off.
    ids = IdGenerator(seed=6)
    a, b, c = hand_note(ids, "alpha"), hand_note(ids, "beta"), hand_note(ids, "gamma")
    snapshot_path, journal_path = store_paths(tmp_path)
    journal_path.write_text(
        change_line(1, a)
        + JournalEvent(2, "links_changed", "[1]").line()
        + change_line(3, b)
        + change_line(4, c),
        "utf-8",
    )
    write_snapshot(snapshot_path, {a.id: a}, EngineConfig(), 1)
    data = journal_path.read_bytes()
    with pytest.raises(LoadIntegrityError, match="seq 2"):
        open_engine(tmp_path, encoder=encoder())
    assert journal_path.read_bytes() == data


def nine_adds_with_a_plain_snapshot_after_six(store):
    """A store of 9 adds whose plain snapshot covers the first 6, and the
    offsets of each add's journal lines."""
    engine = open_engine(store, encoder=encoder(), id_seed=7)
    starts = []
    for i in range(9):
        if i == 6:
            snapshot_engine(engine, store)
        starts.append(engine.state_snapshot()[1])
        engine.add_memory(f"note {i} about {('tea', 'rain', 'maps')[i % 3]} and more", TS[i])
    engine.close()
    lines = (store / JOURNAL_FILENAME).read_bytes().splitlines(keepends=True)
    offsets = [sum(map(len, lines[:seq])) for seq in range(len(lines) + 1)]
    return lines, [offsets[seq] for seq in starts]


def flip_a_payload_byte(store, offset):
    path = store / JOURNAL_FILENAME
    data = bytearray(path.read_bytes())
    at = data.index(b'"content":"', offset) + len(b'"content":"')
    data[at] ^= 1
    path.write_bytes(bytes(data))


def test_a_damaged_covered_line_costs_no_acknowledged_add(tmp_path):
    store = tmp_path / "store"
    lines, _ = nine_adds_with_a_plain_snapshot_after_six(store)
    flip_a_payload_byte(store, len(lines[0]))
    files = store_files(store)
    for read_only in (True, False):
        engine = open_engine(store, encoder=encoder(), read_only=read_only)
        assert len(engine) == 9
        engine.close()
        assert store_files(store) == files


def test_a_damaged_line_before_an_add_fails_both_opens_and_cuts_nothing(tmp_path):
    store = tmp_path / "store"
    _, add_starts = nine_adds_with_a_plain_snapshot_after_six(store)
    flip_a_payload_byte(store, add_starts[6])
    files = store_files(store)
    for read_only in (True, False):
        with pytest.raises(LoadIntegrityError, match=f"at byte {add_starts[6]} "):
            open_engine(store, encoder=encoder(), read_only=read_only)
        assert store_files(store) == files


@pytest.mark.parametrize("torn_before", [False, True])
@pytest.mark.parametrize("lower", [0, 1, 5])
def test_a_last_line_whose_seq_reads_as_covered_fails_both_opens(tmp_path, lower, torn_before):
    # A format 2 line's checksum covers its payload only, so a damaged seq
    # still frames (a change line's payload begins with its seq). The last
    # add is rewritten as such a line: read_journal frames lines of either
    # format alike. Read back from the end, the last line would stop the
    # walk at once and hide the uncovered adds before it, also across a
    # line that fails.
    store = tmp_path / "store"
    nine_adds_with_a_plain_snapshot_after_six(store)
    after = read_snapshot(store / SNAPSHOT_FILENAME)[2]
    path = store / JOURNAL_FILENAME
    lines = path.read_bytes().splitlines(keepends=True)
    last = json.loads(lines[-1])
    assert last["seq"] > after + 1
    record = json.dumps(last["payload"][1], ensure_ascii=False, separators=(",", ":"))
    lines[-1] = JournalEvent(after + 1 - lower, "note_added", record).line().encode("utf-8")
    if torn_before:
        head, crc = lines[-2].rsplit(b'"crc":', 1)
        lines[-2] = head + b'"crc":' + str(int(crc[:-2]) ^ 1).encode() + b"}\n"
    path.write_bytes(b"".join(lines))
    files = store_files(store)
    for read_only in (True, False):
        with pytest.raises(SequenceGap, match=f"to {after + 1 - lower} "):
            open_engine(store, encoder=encoder(), read_only=read_only)
        assert store_files(store) == files


def test_read_only_open_of_a_missing_store_writes_nothing(tmp_path):
    store = tmp_path / "missing" / "store"
    reader = open_engine(store, encoder=encoder(), read_only=True)
    assert len(reader) == 0
    reader.close()
    assert not (tmp_path / "missing").exists()


# ---------------------------------------------------------------------------
# races and journal faults


class GatedJournal(Journal):
    """Once armed, blocks in its next write until released."""

    def __init__(self, path):
        super().__init__(path)
        self.armed = False
        self.entered = threading.Event()
        self.release = threading.Event()

    def write(self, changes):
        if self.armed:
            self.armed = False
            self.entered.set()
            assert self.release.wait(10)
        super().write(changes)


def run_in_thread(target, *args):
    """Start target(*args) in a thread; returns the thread and its errors."""
    errors = []

    def run():
        try:
            target(*args)
        except BaseException as exc:  # reported by the joining test
            errors.append(exc)

    thread = threading.Thread(target=run)
    thread.start()
    return thread, errors


def test_snapshot_taken_while_an_add_journals_reloads_to_the_live_store(tmp_path):
    journal = GatedJournal(tmp_path / JOURNAL_FILENAME)
    engine = live_engine(journal=journal)
    engine.add_memory(CONTENT_A, TS[0])
    journal.armed = True
    writer, errors = run_in_thread(engine.add_memory, CONTENT_B, TS[1])
    assert journal.entered.wait(10)
    # the add is between its gateway calls and its journal write
    snapshot_engine(engine, tmp_path)
    journal.release.set()
    writer.join(10)
    assert not writer.is_alive() and errors == []
    live = state_map(engine.state_snapshot()[0])
    engine.close()

    reloaded = load_store(*store_paths(tmp_path), encoder=encoder())
    assert state_map(reloaded.notes) == live
    assert len(live) == 2
    # A second snapshot, from this thread, reuses the record the writer
    # thread's journal rendered.
    snapshot_engine(engine, tmp_path)
    reloaded = load_store(*store_paths(tmp_path), encoder=encoder())
    assert state_map(reloaded.notes) == live


def count_renders(monkeypatch):
    """Counts derived records rendered from here on: each calls embedding_crc once."""
    renders = []
    real = notes_module.embedding_crc

    def counted(vec):
        renders.append(1)
        return real(vec)

    monkeypatch.setattr(notes_module, "embedding_crc", counted)
    return renders


def test_a_second_snapshot_of_an_unchanged_engine_renders_no_record(tmp_path, monkeypatch):
    engine, _ = populated(tmp_path)
    snapshot_engine(engine, tmp_path)
    renders = count_renders(monkeypatch)
    snapshot_engine(engine, tmp_path)
    assert renders == []
    reloaded = load_store(*store_paths(tmp_path), encoder=encoder())
    assert state_map(reloaded.notes) == state_map(engine.state_snapshot()[0])


def test_add_racing_a_compaction_survives_reopen(tmp_path, monkeypatch):
    store = tmp_path / "store"
    engine = open_engine(store, encoder=encoder(), id_seed=7)
    engine.add_memory(CONTENT_A, TS[0])
    engine.add_memory(CONTENT_B, TS[1])
    writing = threading.Event()
    added = threading.Event()
    real_write = persistence.write_snapshot

    def slow_write(*args, **kwargs):
        writing.set()
        # Give the racing add time to finish inside the write, if the
        # engine lets it; with the writer lock held it waits instead.
        added.wait(1.0)
        real_write(*args, **kwargs)

    def add_during_the_write():
        assert writing.wait(10)
        engine.add_memory(CONTENT_C, TS[2])
        added.set()

    monkeypatch.setattr(persistence, "write_snapshot", slow_write)
    racer, errors = run_in_thread(add_during_the_write)
    snapshot_engine(engine, store, compact=True)
    racer.join(10)
    assert not racer.is_alive() and errors == []
    engine.add_memory(CONTENT_D, TS[3])
    live = state_map(engine.state_snapshot()[0])
    engine.close()

    reopened = open_engine(store, encoder=encoder())
    assert state_map(reopened.state_snapshot()[0]) == live
    assert len(live) == 4
    assert reopened.audit() == []
    reopened.close()


def gate_snapshot_writes(monkeypatch):
    """Arms the next snapshot write to stop after its first part until the
    returned gate's release is set; its entered is set once it stops."""
    gate = SimpleNamespace(armed=True, entered=threading.Event(), release=threading.Event())
    real_parts = persistence._snapshot_parts

    def parts(*args):
        held, gate.armed = gate.armed, False
        for number, part in enumerate(real_parts(*args)):
            yield part
            if held and number == 0:
                gate.entered.set()
                assert gate.release.wait(10)

    monkeypatch.setattr(persistence, "_snapshot_parts", parts)
    return gate


@pytest.mark.parametrize("compact", [False, True], ids=["plain", "compacting"])
def test_a_snapshot_racing_a_held_snapshot_reloads_to_the_live_store(
    tmp_path, monkeypatch, compact
):
    store = tmp_path / "store"
    engine = open_engine(store, encoder=encoder(), id_seed=7)
    engine.add_memory(CONTENT_A, TS[0])
    engine.add_memory(CONTENT_B, TS[1])
    gate = gate_snapshot_writes(monkeypatch)
    held, held_errors = run_in_thread(snapshot_engine, engine, store)
    assert gate.entered.wait(10)

    def add_then_snapshot():
        engine.add_memory(CONTENT_C, TS[2])
        snapshot_engine(engine, store, compact=compact)

    racer, racer_errors = run_in_thread(add_then_snapshot)
    # Time for the racer to finish its snapshot inside the held one, if
    # the engine lets it; one snapshot at a time makes it wait instead.
    racer.join(0.5)
    gate.release.set()
    for thread in (held, racer):
        thread.join(10)
        assert not thread.is_alive()
    assert held_errors == [] and racer_errors == []
    engine.add_memory(CONTENT_D, TS[3])
    live = state_map(engine.state_snapshot()[0])
    engine.close()
    assert sorted(path.name for path in store.iterdir()) == [JOURNAL_FILENAME, SNAPSHOT_FILENAME]

    reopened = open_engine(store, encoder=encoder())
    assert state_map(reopened.state_snapshot()[0]) == live
    assert len(live) == 4
    assert reopened.audit() == []
    reopened.close()


def test_a_compaction_into_another_directory_is_refused(tmp_path):
    store, elsewhere = tmp_path / "a", tmp_path / "b"
    elsewhere.mkdir()
    engine = open_engine(store, encoder=encoder(), id_seed=7)
    for i, content in enumerate((CONTENT_A, CONTENT_B, CONTENT_C)):
        engine.add_memory(content, TS[i])
    with pytest.raises(ValueError, match="own store"):
        snapshot_engine(engine, elsewhere, compact=True)
    assert list(elsewhere.iterdir()) == []
    engine.add_memory(CONTENT_D, TS[3])
    # the engine's own store, however the path is spelled
    snapshot_engine(engine, elsewhere / ".." / "a", compact=True)
    live = state_map(engine.state_snapshot()[0])
    engine.close()

    reopened = open_engine(store, encoder=encoder())
    assert state_map(reopened.state_snapshot()[0]) == live
    assert len(live) == 4
    reopened.close()


def test_a_failed_snapshot_write_deletes_its_temp_file(tmp_path, monkeypatch):
    store = tmp_path / "store"
    engine = open_engine(store, encoder=encoder(), id_seed=7)
    engine.add_memory(CONTENT_A, TS[0])
    snapshot_engine(engine, store)
    before = (store / SNAPSHOT_FILENAME).read_bytes()
    engine.add_memory(CONTENT_B, TS[1])

    def failing_parts(*args):
        yield "{"
        raise OSError(errno.ENOSPC, "injected full disk")

    monkeypatch.setattr(persistence, "_snapshot_parts", failing_parts)
    with pytest.raises(OSError):
        snapshot_engine(engine, store)
    assert sorted(path.name for path in store.iterdir()) == [JOURNAL_FILENAME, SNAPSHOT_FILENAME]
    assert (store / SNAPSHOT_FILENAME).read_bytes() == before
    monkeypatch.undo()
    snapshot_engine(engine, store)
    live = state_map(engine.state_snapshot()[0])
    engine.close()

    reopened = open_engine(store, encoder=encoder())
    assert state_map(reopened.state_snapshot()[0]) == live
    reopened.close()


def test_a_note_utf8_cannot_encode_is_refused_before_it_is_journaled(tmp_path):
    bad = "bad \udcff note about the camera"
    store = tmp_path / "store"
    engine = open_engine(store, encoder=encoder(), id_seed=7)
    engine.add_memory(CONTENT_A, TS[0])
    journaled = (store / JOURNAL_FILENAME).read_bytes()
    with pytest.raises(ValueError, match="lone surrogate"):
        engine.add_memory(bad, TS[1])
    assert (store / JOURNAL_FILENAME).read_bytes() == journaled
    # the engine stays writable, and its snapshots loadable
    engine.add_memory(CONTENT_B, TS[2])
    snapshot_engine(engine, store)
    live = state_map(engine.state_snapshot()[0])
    engine.close()
    reopened = open_engine(store, encoder=encoder())
    assert state_map(reopened.state_snapshot()[0]) == live
    reopened.close()

    in_memory = live_engine()
    with pytest.raises(ValueError, match="lone surrogate"):
        in_memory.add_memory(bad, TS[1])
    assert len(in_memory) == 0


def test_a_failed_journal_sync_stops_later_mutations(tmp_path, monkeypatch):
    store = tmp_path / "store"
    engine = open_engine(store, encoder=encoder(), id_seed=7)
    engine.add_memory(CONTENT_A, TS[0])
    live = state_map(engine.state_snapshot()[0])
    monkeypatch.setattr(os, "fsync", fail_the_next_fsync_of(store / JOURNAL_FILENAME))

    with pytest.raises(OSError):
        engine.add_memory(CONTENT_B, TS[1])
    # nothing was published: memory is not ahead of disk
    assert len(engine) == 1
    assert state_map(engine.state_snapshot()[0]) == live
    with pytest.raises(EngineFailed):
        engine.add_memory(CONTENT_C, TS[2])
    with pytest.raises(EngineFailed):
        snapshot_engine(engine, store, compact=True)
    # reads and plain snapshots go on
    assert len(engine.retrieve("camera", k=1)) == 1
    snapshot_engine(engine, store)
    engine.close()

    reopened = open_engine(store, encoder=encoder())
    # the failed add was never acknowledged, and close() cut its unsynced line
    assert state_map(reopened.state_snapshot()[0]) == live
    assert reopened.audit() == []
    reopened.close()


def test_a_closed_engine_refuses_writes(tmp_path):
    store = tmp_path / "store"
    engine = open_engine(store, encoder=encoder(), id_seed=7)
    engine.add_memory(CONTENT_A, TS[0])
    live = state_map(engine.state_snapshot()[0])
    engine.close()

    with pytest.raises(EngineFailed, match="closed"):
        engine.add_memory(CONTENT_B, TS[1])
    with pytest.raises(EngineFailed, match="closed"):
        snapshot_engine(engine, store, compact=True)
    with pytest.raises(EngineFailed, match="closed"):
        engine.adopt_state({})
    # reads go on, and a second close is a no-op
    assert len(engine) == 1
    assert len(engine.retrieve("camera", k=1)) == 1
    engine.close()

    reopened = open_engine(store, encoder=encoder())
    assert state_map(reopened.state_snapshot()[0]) == live
    reopened.close()


def test_close_keeps_the_reason_of_an_earlier_failure(tmp_path, monkeypatch):
    engine = open_engine(tmp_path / "store", encoder=encoder(), id_seed=7)
    monkeypatch.setattr(os, "fsync", fail_the_next_fsync_of(engine.journal.path))
    with pytest.raises(OSError):
        engine.add_memory(CONTENT_A, TS[0])
    engine.close()
    with pytest.raises(EngineFailed, match="journal write failed"):
        engine.add_memory(CONTENT_B, TS[1])


def test_a_failed_sync_of_an_evolving_add_keeps_none_of_it(tmp_path, monkeypatch):
    # B links to and rewrites A; the note, its links and the rewrite are one
    # change, so none of them may survive the failed sync.
    store = tmp_path / "store"
    journal_path = store / JOURNAL_FILENAME
    engine = open_engine(store, encoder=encoder(), id_seed=7)
    id_a = engine.add_memory(CONTENT_A, TS[0])
    live = state_map(engine.state_snapshot()[0])
    acknowledged = journal_path.read_bytes()
    monkeypatch.setattr(os, "fsync", fail_the_next_fsync_of(journal_path))
    with pytest.raises(OSError):
        engine.add_memory(CONTENT_B, TS[1])
    # the fsync failed after the change's line was written: B, then A's delta
    events, _ = read_journal(journal_path)
    _, added, *rewritten = json.loads(events[-1].payload_json)
    assert added["links"] == [id_a] and [delta["id"] for delta in rewritten] == [id_a]
    assert state_map(engine.state_snapshot()[0]) == live
    engine.close()
    assert journal_path.read_bytes() == acknowledged

    reopened = open_engine(store, encoder=encoder(), read_only=True)
    assert state_map(reopened.state_snapshot()[0]) == live
    reopened.close()


class FlakyEncoder:
    """A HashEncoder whose encode raises BackendUnavailable on one chosen call."""

    def __init__(self):
        self.inner = encoder()
        self.dimension = self.inner.dimension
        self.deterministic = self.inner.deterministic
        self.fail_in = None

    def encode(self, text):
        if self.fail_in is not None:
            self.fail_in -= 1
            if self.fail_in < 0:
                self.fail_in = None
                raise BackendUnavailable("injected encoder outage")
        return self.inner.encode(text)

    def encode_many(self, texts):
        return [self.encode(text) for text in texts]


def test_a_failed_evolution_reencode_leaves_the_store_untouched(tmp_path):
    store = tmp_path / "store"
    flaky = FlakyEncoder()
    engine = open_engine(store, encoder=flaky, id_seed=7)
    engine.add_memory(CONTENT_A, TS[0])
    live = state_map(engine.state_snapshot()[0])
    # B's own encode succeeds; the re-encode of A, rewritten by B, fails.
    flaky.fail_in = 1
    with pytest.raises(BackendUnavailable):
        engine.add_memory(CONTENT_B, TS[1])
    assert len(engine) == 1
    assert state_map(engine.state_snapshot()[0]) == live
    reader = open_engine(store, encoder=encoder(), read_only=True)
    assert state_map(reader.state_snapshot()[0]) == live
    reader.close()

    # the engine is not failed: the retry stores B once, linked and evolved
    id_b = engine.add_memory(CONTENT_B, TS[1])
    live = state_map(engine.state_snapshot()[0])
    engine.close()
    assert len(live) == 2 and engine.get_note(id_b).links
    reopened = open_engine(store, encoder=encoder())
    assert state_map(reopened.state_snapshot()[0]) == live
    assert reopened.audit() == []
    reopened.close()


def test_close_cuts_off_the_bytes_of_a_failed_fsync(tmp_path, monkeypatch):
    # The failed add's events reach the file, then the fsync raises: they
    # sit past the last successful sync, and close() must not keep them.
    store = tmp_path / "store"
    engine = open_engine(store, encoder=encoder(), id_seed=7)
    engine.add_memory(CONTENT_A, TS[0])
    acknowledged = store.joinpath(JOURNAL_FILENAME).read_bytes()
    real_fsync = os.fsync
    calls = []

    def failing_fsync(fd):
        calls.append(fd)
        if len(calls) == 1:
            raise OSError(errno.EIO, "injected fsync failure")
        real_fsync(fd)

    monkeypatch.setattr(os, "fsync", failing_fsync)
    with pytest.raises(OSError):
        engine.add_memory(CONTENT_B, TS[1])
    assert len(engine) == 1
    engine.close()

    assert store.joinpath(JOURNAL_FILENAME).read_bytes() == acknowledged
    reopened = open_engine(store, encoder=encoder())
    assert len(reopened) == 1
    reopened.close()


def fail_the_next_fsync_of(path):
    """An os.fsync that raises EIO once, at the next fsync of the file at path."""
    real_fsync = os.fsync
    armed = [True]

    def fsync(fd):
        if armed[0] and os.path.samestat(os.fstat(fd), os.stat(path)):
            armed[0] = False
            raise OSError(errno.EIO, "injected fsync failure")
        real_fsync(fd)

    return fsync


def test_a_journal_whose_cut_failed_closes_without_padding(tmp_path, monkeypatch):
    ids = IdGenerator(seed=3)
    path = tmp_path / "j.jsonl"
    journal = Journal(path)
    journal.write([Change(hand_note(ids, "alpha"))])
    monkeypatch.setattr(os, "fsync", fail_the_next_fsync_of(path))
    with pytest.raises(OSError):
        journal.truncate()
    journal.write([Change(hand_note(ids, "beta"))])
    written = path.read_bytes()
    journal.close()
    # close() cuts only bytes past the durable length, and never pads
    assert path.read_bytes() == written
    events, truncated = read_journal(path)
    assert truncated is None and [e.seq for e in events] == [2]


def test_a_failed_compaction_cut_stops_the_engine(tmp_path, monkeypatch):
    store = tmp_path / "store"
    journal_path = store / JOURNAL_FILENAME
    engine = open_engine(store, encoder=encoder(), id_seed=7)
    for i, content in enumerate((CONTENT_A, CONTENT_B, CONTENT_C, CONTENT_D)):
        engine.add_memory(content, TS[i])
    live = state_map(engine.state_snapshot()[0])
    monkeypatch.setattr(os, "fsync", fail_the_next_fsync_of(journal_path))
    with pytest.raises(OSError):
        snapshot_engine(engine, store, compact=True)
    cut = journal_path.stat().st_size
    with pytest.raises(EngineFailed, match="journal write failed"):
        engine.add_memory("a note after the failed compaction", TS[10])
    assert state_map(engine.state_snapshot()[0]) == live
    engine.close()

    data = journal_path.read_bytes()
    assert b"\0" not in data and len(data) <= cut
    # the snapshot was renamed into place before the cut, so it covers all
    reloaded = load_store(*store_paths(store), encoder=encoder())
    assert reloaded.journal_truncated_at is None
    assert state_map(reloaded.notes) == live


# ---------------------------------------------------------------------------
# pinned store bytes

DIALOGUE = Path(__file__).parent / "data" / "dialogue.txt"
# The store of write_pipeline_store as format 1 wrote it, committed as it was.
V1_STORE = Path(__file__).parent / "data" / "v1_store"
# And as format 2 wrote it: one journal line per event, each with its seq.
V2_STORE = Path(__file__).parent / "data" / "v2_store"
# And as format 3 wrote it: one line per change, whole records throughout.
V3_STORE = Path(__file__).parent / "data" / "v3_store"


# The fields of a rewritten neighbor's delta record, derived.
DERIVED_DELTA_KEYS = {"id", "tags", "context", "embedding_crc"}


def pipeline_engine(store, encoder=None):
    # Full-size HashEncoder embeddings, with evolution and a snapshot taken
    # partway through the run; the engine is left open.
    lines = DIALOGUE.read_text("utf-8").splitlines()
    contents = lines + [f"{line} Revisited a second time." for line in lines[:12]]
    engine = open_engine(
        store, encoder=encoder or HashEncoder(), gateway=LlmGateway(), id_seed=20231117
    )
    for i, content in enumerate(contents):
        if i == 40:
            snapshot_engine(engine, store)
        engine.add_memory(content, "2024-03-01T%02d:%02d:00Z" % divmod(i, 60))
    return engine


def write_pipeline_store(store, encoder=None):
    pipeline_engine(store, encoder).close()


def file_digest(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_mock_pipeline_store_bytes_are_pinned(tmp_path):
    # The referee for every change to the write path: the same adds, ids and
    # timestamps must give the same journal and the same snapshot, byte for
    # byte.
    write_pipeline_store(tmp_path)
    events, truncated = read_journal(tmp_path / JOURNAL_FILENAME)
    assert truncated is None
    # one line per add, which carries 66 rewritten neighbors in all, each
    # as its delta record
    assert len(events) == 62
    rewritten = [record for e in events for record in json.loads(e.payload_json)[2:]]
    assert len(rewritten) == 66
    assert all(record.keys() == DERIVED_DELTA_KEYS for record in rewritten)

    assert file_digest(tmp_path / JOURNAL_FILENAME) == (
        "c9622c7082bd60f3ff13efe641c689a0cb2e09f055cdcf3df56f0d2031113f91"
    )
    assert file_digest(tmp_path / SNAPSHOT_FILENAME) == (
        "8dc844e96f4b910965c4bc682b6f20584ab4a689a42ec4cffab7a5eb9b47e844"
    )


def test_snapshots_of_reused_records_are_the_bytes_of_a_fresh_render(tmp_path, monkeypatch):
    # The journal rendered each added or evolved note, and the snapshot at
    # the 40th add the notes of that moment; the first snapshot here renders
    # the rest, the second none.
    engine = pipeline_engine(tmp_path / "store")
    notes, last_seq = engine.state_snapshot()
    renders = count_renders(monkeypatch)
    first = tmp_path / "first"
    first.mkdir()
    snapshot_engine(engine, first)
    rendered = len(renders)
    second = tmp_path / "second"
    second.mkdir()
    snapshot_engine(engine, second)
    engine.close()
    assert 0 < rendered < len(notes)
    assert len(renders) == rendered
    fresh = tmp_path / "fresh.json"
    copies = {nid: replace(note) for nid, note in notes.items()}
    write_snapshot(fresh, copies, engine.config, last_seq, derived=True)
    assert len(renders) == rendered + len(notes)
    snapshot_bytes = (first / SNAPSHOT_FILENAME).read_bytes()
    assert (second / SNAPSHOT_FILENAME).read_bytes() == snapshot_bytes
    assert fresh.read_bytes() == snapshot_bytes


class UndeclaredHashEncoder(HashEncoder):
    """HashEncoder that does not declare itself deterministic, so its
    store keeps every embedding's floats."""

    deterministic = False


def test_mock_pipeline_float_record_store_bytes_are_pinned(tmp_path):
    # The same referee for records that store their floats: the 9-digit
    # float text and the codec around it must not change a byte.
    write_pipeline_store(tmp_path, UndeclaredHashEncoder())
    journal = (tmp_path / JOURNAL_FILENAME).read_bytes()
    assert b'"embedding":[' in journal and b"embedding_crc" not in journal

    assert file_digest(tmp_path / JOURNAL_FILENAME) == (
        "49d603e252bcc0466242cfa0d3e87cda602e5f4b79a0498e15eba8e5611b5da5"
    )
    assert file_digest(tmp_path / SNAPSHOT_FILENAME) == (
        "b8c840d9d486b059b9fd064cb00d09c2b021950198a0ba155fd74d8371590eee"
    )


def test_the_v1_fixture_loads_to_the_notes_of_the_same_v2_store(tmp_path):
    assert file_digest(V1_STORE / JOURNAL_FILENAME) == (
        "70097fcbf074621894f057456b93e7508869155974860e14b296e74ce6ec6c82"
    )
    assert file_digest(V1_STORE / SNAPSHOT_FILENAME) == (
        "7111fd3062a35704de2322a8545ac05ccb6d2883c49891f99bc51197e37d0d17"
    )
    assert json.loads((V1_STORE / SNAPSHOT_FILENAME).read_text("utf-8"))["format_version"] == 1
    write_pipeline_store(tmp_path)
    v1 = load_store(*store_paths(V1_STORE), encoder=HashEncoder())
    v2 = load_store(*store_paths(tmp_path), encoder=HashEncoder())
    assert len(v2.notes) == 62
    assert state_map(v1.notes) == state_map(v2.notes)
    assert v1.config == v2.config
    # formats 1 and 2 count events, format 3 changes
    assert v1.last_seq == load_store(*store_paths(V2_STORE), encoder=HashEncoder()).last_seq
    # and each snapshot alone, with no journal tail
    assert state_map(
        load_store(V1_STORE / SNAPSHOT_FILENAME, tmp_path / "none", encoder=HashEncoder()).notes
    ) == state_map(
        load_store(tmp_path / SNAPSHOT_FILENAME, tmp_path / "none", encoder=HashEncoder()).notes
    )


def test_the_v2_fixture_loads_to_the_notes_of_the_same_format_3_store(tmp_path):
    # The fixture's bytes are those the pinned digests gave before format 3.
    assert file_digest(V2_STORE / JOURNAL_FILENAME) == (
        "350c724e0ede0a943009f18540af9d161c6fa9ba2a9724a9a591691b39f0bf44"
    )
    assert file_digest(V2_STORE / SNAPSHOT_FILENAME) == (
        "f5ac8741e6d5b6ac37b013bb7920addf9bb5f59f57c915bd5f3127d0ec5b7b88"
    )
    write_pipeline_store(tmp_path)
    v2 = load_store(*store_paths(V2_STORE), encoder=HashEncoder())
    v3 = load_store(*store_paths(tmp_path), encoder=HashEncoder())
    assert len(v3.notes) == 62
    assert state_map(v2.notes) == state_map(v3.notes)
    assert v2.config == v3.config
    # one seq per event against one per change
    assert (v2.last_seq, v3.last_seq) == (
        len((V2_STORE / JOURNAL_FILENAME).read_bytes().splitlines()),
        62,
    )
    # the snapshots differ only in their header's last_seq
    v2_head, notes = (V2_STORE / SNAPSHOT_FILENAME).read_bytes().split(b',"notes":', 1)
    v3_head, v3_notes = (tmp_path / SNAPSHOT_FILENAME).read_bytes().split(b',"notes":', 1)
    assert v3_notes == notes
    assert re.sub(rb'"last_seq":[0-9]+', b"", v2_head) == re.sub(rb'"last_seq":[0-9]+', b"", v3_head)


def test_a_writable_open_of_the_v2_fixture_appends_change_lines(tmp_path):
    store = tmp_path / "store"
    shutil.copytree(V2_STORE, store)
    v2_journal = (store / JOURNAL_FILENAME).read_bytes()
    engine = open_engine(store, encoder=HashEncoder(), gateway=LlmGateway(), id_seed=5)
    first = engine.state_snapshot()[1]
    for i, content in enumerate((CONTENT_A, CONTENT_B, CONTENT_C)):
        engine.add_memory(content, TS[i])
    live, live_seq = engine.state_snapshot()
    engine.close()

    # after the format 2 lines, one change line per add, the seq counting on
    journal = (store / JOURNAL_FILENAME).read_bytes()
    assert journal.startswith(v2_journal)
    tail = [json.loads(line) for line in journal[len(v2_journal):].splitlines()]
    assert [line["seq"] for line in tail] == [first + 1, first + 2, first + 3] == [
        line["payload"][0] for line in tail
    ]
    assert {line["kind"] for line in tail} == {"note_added"} and live_seq == first + 3
    assert any(line["payload"][1]["links"] for line in tail)
    for read_only in (True, False):
        reopened = open_engine(store, encoder=HashEncoder(), read_only=read_only)
        assert reopened.state_snapshot()[1] == live_seq
        assert state_map(reopened.state_snapshot()[0]) == state_map(live)
        assert reopened.audit() == []
        reopened.close()


def test_the_v3_fixture_loads_to_the_notes_of_the_same_format_4_store(tmp_path):
    # The fixture's bytes are those the pinned digests gave before format 4:
    # the same journal lines but with whole records for rewritten neighbors,
    # and the very snapshot.
    assert file_digest(V3_STORE / JOURNAL_FILENAME) == (
        "acf8302374beed5a38d2de35deaede7fa337d5ec84c68968b4277716bbd68014"
    )
    assert file_digest(V3_STORE / SNAPSHOT_FILENAME) == (
        "8dc844e96f4b910965c4bc682b6f20584ab4a689a42ec4cffab7a5eb9b47e844"
    )
    write_pipeline_store(tmp_path)
    v3 = load_store(*store_paths(V3_STORE), encoder=HashEncoder())
    v4 = load_store(*store_paths(tmp_path), encoder=HashEncoder())
    assert len(v4.notes) == 62
    assert state_map(v3.notes) == state_map(v4.notes)
    assert (v3.config, v3.last_seq) == (v4.config, v4.last_seq) == (v4.config, 62)
    assert (tmp_path / SNAPSHOT_FILENAME).read_bytes() == (
        V3_STORE / SNAPSHOT_FILENAME
    ).read_bytes()
    # the journals differ only in the rewritten neighbors' records
    v3_lines = (V3_STORE / JOURNAL_FILENAME).read_bytes().splitlines()
    v4_lines = (tmp_path / JOURNAL_FILENAME).read_bytes().splitlines()
    assert len(v4_lines) == len(v3_lines) == 62
    for v3_line, v4_line in zip(v3_lines, v4_lines):
        v3_payload, v4_payload = json.loads(v3_line)["payload"], json.loads(v4_line)["payload"]
        assert v4_payload[:2] == v3_payload[:2]
        assert [
            {key: record[key] for key in DERIVED_DELTA_KEYS} for record in v3_payload[2:]
        ] == v4_payload[2:]


def test_a_writable_open_of_the_v3_fixture_appends_format_4_lines(tmp_path):
    store = tmp_path / "store"
    shutil.copytree(V3_STORE, store)
    v3_journal = (store / JOURNAL_FILENAME).read_bytes()
    engine = open_engine(store, encoder=HashEncoder(), gateway=LlmGateway(), id_seed=5)
    lines = DIALOGUE.read_text("utf-8").splitlines()
    for i, content in enumerate(lines[:3]):
        engine.add_memory(f"{content} Seen a third time.", TS[i])
    live, live_seq = engine.state_snapshot()
    engine.close()

    # after the format 3 lines, one format 4 line per add, the seq counting on
    journal = (store / JOURNAL_FILENAME).read_bytes()
    assert journal.startswith(v3_journal)
    tail = [json.loads(line)["payload"] for line in journal[len(v3_journal):].splitlines()]
    assert [change[0] for change in tail] == [63, 64, 65] and live_seq == 65
    rewritten = [record for change in tail for record in change[2:]]
    assert rewritten and all(record.keys() == DERIVED_DELTA_KEYS for record in rewritten)
    for read_only in (True, False):
        reopened = open_engine(store, encoder=HashEncoder(), read_only=read_only)
        assert reopened.state_snapshot()[1] == live_seq
        assert state_map(reopened.state_snapshot()[0]) == state_map(live)
        assert reopened.audit() == []
        reopened.close()


def derived_records(notes):
    return {nid: note_record(note, derived=True) for nid, note in notes.items()}


def test_each_change_line_replays_onto_the_records_before_it_to_the_commits_notes(
    tmp_path, monkeypatch
):
    # The commit and replay agree: each line of the pinned history, replayed
    # onto the records of the notes before its add, gives exactly the
    # records of the notes after it, its links-only neighbors' included.
    states = [{}]
    commit = MemoryEngine._commit

    def recording_commit(engine, events):
        commit(engine, events)
        states.append(engine.state_snapshot()[0])

    monkeypatch.setattr(MemoryEngine, "_commit", recording_commit)
    pipeline_engine(tmp_path).close()
    events, truncated = read_journal(tmp_path / JOURNAL_FILENAME)
    assert truncated is None and len(events) == len(states) - 1 == 62
    links_only = 0
    for event, before, after in zip(events, states, states[1:]):
        records = derived_records(before)
        assert replay_events(records, [event], start_after=event.seq - 1) == event.seq
        assert records == derived_records(after)
        change = json.loads(event.payload_json)
        for delta in change[2:]:
            assert delta.keys() == DERIVED_DELTA_KEYS
            assert not delta.keys() & {"content", "keywords", "timestamp", "links"}
        written = {record["id"] for record in change[1:]}
        links_only += sum(
            nid not in written and after[nid] is not before[nid] for nid in before
        )
    assert links_only > 0


def delta_store(tmp_path, edit=lambda delta: delta, derived=True):
    """A journal of two changes: alpha added, then beta added and linked to
    alpha, whose context it rewrites, as its delta record with edit applied.
    Returns the store, and alpha as the delta leaves it unedited."""
    ids = IdGenerator(seed=6)
    alpha, beta = hand_note(ids, "alpha"), hand_note(ids, "beta")
    beta = replace(beta, links=frozenset({alpha.id}))
    context = "Discusses alpha beside beta."
    text = note_text(replace(alpha, context=context))
    evolved = replace(alpha, context=context, embedding=encoder().encode(text))
    delta = edit(json.loads(delta_json(evolved, derived)))
    store = tmp_path / "store"
    store.mkdir()
    (store / JOURNAL_FILENAME).write_text(
        JournalEvent(1, "note_added", f"[1,{canonical_json(alpha, derived)}]").line()
        + JournalEvent(
            2, "note_added", f"[2,{canonical_json(beta, derived)},{json.dumps(delta)}]"
        ).line(),
        "utf-8",
    )
    return store, replace(evolved, links=frozenset({beta.id}))


@pytest.mark.parametrize("derived", [True, False], ids=["derived", "stored"])
def test_a_delta_record_keeps_what_it_does_not_carry(tmp_path, derived):
    store, evolved = delta_store(tmp_path, derived=derived)
    loader = encoder() if derived else UndeclaredHashEncoder(dimension=DIM, seed=0)
    loaded = load_store(*store_paths(store), encoder=loader)
    assert canonical_json(loaded.notes[evolved.id]) == canonical_json(evolved)


@pytest.mark.parametrize(
    "edit, derived, error",
    [
        (lambda d: {**d, "id": "f" * 32}, True, "does not exist"),
        (lambda d: [d], True, "JSON object with a text id"),
        (lambda d: {**d, "links": []}, True, "wrong field set"),
        (lambda d: {**d, "content": "alpha note body"}, True, "wrong field set"),
        (lambda d: {key: d[key] for key in ("id", "tags", "context")}, True, "wrong field set"),
        (lambda d: {**d, "embedding_crc": -1}, True, "embedding_crc must be"),
        (lambda d: {**d, "embedding_crc": 2**32}, True, "embedding_crc must be"),
        (lambda d: {**d, "embedding_crc": "1"}, True, "embedding_crc must be"),
        (lambda d: {**d, "embedding": d["embedding"][:-1]}, False, "of 31 floats"),
        (lambda d: {**d, "embedding": [*d["embedding"], 0.0]}, False, "of 33 floats"),
    ],
    ids=[
        "unknown-note",
        "not-an-object",
        "links",
        "content",
        "no-embedding",
        "negative-crc",
        "wide-crc",
        "text-crc",
        "narrow-floats",
        "wide-floats",
    ],
)
def test_a_bad_delta_record_fails_both_opens_naming_its_seq(tmp_path, edit, derived, error):
    # The line frames, so it is never a tail: the load fails and no open
    # cuts anything.
    store, _ = delta_store(tmp_path, edit, derived)
    journal = (store / JOURNAL_FILENAME).read_bytes()
    loader = encoder() if derived else UndeclaredHashEncoder(dimension=DIM, seed=0)
    for read_only in (True, False):
        with pytest.raises(LoadIntegrityError, match=f"^journal event seq 2: .*{error}"):
            open_engine(store, encoder=loader, read_only=read_only)
    assert (store / JOURNAL_FILENAME).read_bytes() == journal


def test_a_delta_whose_crc_does_not_match_its_text_fails_the_load(tmp_path):
    # A well-formed CRC is checked where every derived record's is, against
    # the encoding of the merged record's text.
    store, evolved = delta_store(tmp_path, lambda d: {**d, "embedding_crc": d["embedding_crc"] ^ 1})
    with pytest.raises(LoadIntegrityError, match=f"note {evolved.id}: .*embedding_crc"):
        load_store(*store_paths(store), encoder=encoder())


def test_a_load_error_names_the_journal_line_that_last_wrote_the_record(tmp_path, monkeypatch):
    # alpha's record is written at seq 1 and its bad delta at seq 2: the
    # error names seq 2, and a load that succeeds never asks.
    store, evolved = delta_store(tmp_path, lambda d: {**d, "embedding_crc": d["embedding_crc"] ^ 1})
    message = rf"^note {evolved.id}: .* \(record from journal seq 2\)$"
    with pytest.raises(LoadIntegrityError, match=message):
        load_store(*store_paths(store), encoder=encoder())

    def unasked(*args):
        raise AssertionError("a successful load named a record's source")

    monkeypatch.setattr(persistence, "_note_error", unasked)
    (tmp_path / "good").mkdir()
    good, _ = delta_store(tmp_path / "good")
    assert evolved.id in load_store(*store_paths(good), encoder=encoder()).notes


def test_a_format_3_build_refuses_a_delta_record(tmp_path):
    # A format 3 build shape-checks every record of a change with
    # is_derived_record, which refuses a delta's field set, so that build
    # fails the load and cuts nothing.
    store, evolved = delta_store(tmp_path)
    events, truncated = read_journal(store / JOURNAL_FILENAME)
    assert truncated is None and [event.seq for event in events] == [1, 2]
    delta = json.loads(events[1].payload_json)[2]
    whole = note_record(evolved, derived=True)
    assert delta == {key: whole[key] for key in DERIVED_DELTA_KEYS}
    with pytest.raises(ValueError, match="wrong field set"):
        is_derived_record(delta)


def test_a_v1_snapshot_with_a_v2_journal_tail_loads(tmp_path):
    store = tmp_path / "store"
    shutil.copytree(V1_STORE, store)
    v1_journal = (store / JOURNAL_FILENAME).read_bytes()
    engine = open_engine(store, encoder=HashEncoder(), gateway=LlmGateway(), id_seed=5)
    for i, content in enumerate((CONTENT_A, CONTENT_B, CONTENT_C)):
        engine.add_memory(content, TS[i])
    live, live_seq = engine.state_snapshot()
    engine.close()

    # the old records are kept as they were; the appended ones are derived
    journal = (store / JOURNAL_FILENAME).read_bytes()
    assert journal.startswith(v1_journal)
    tail = [json.loads(line)["payload"] for line in journal[len(v1_journal):].splitlines()]
    records = [record for change in tail for record in change[1:]]
    assert records and all("embedding_crc" in r and "embedding" not in r for r in records)
    assert b'"embedding_crc"' not in v1_journal

    reloaded = load_store(*store_paths(store), encoder=HashEncoder())
    assert reloaded.last_seq == live_seq
    assert state_map(reloaded.notes) == state_map(live)
    reopened = open_engine(store, encoder=HashEncoder(), read_only=True)
    assert reopened.audit() == []
    reopened.close()


def v2_store(tmp_path, compact):
    """A store of four notes written under encoder(): snapshot only with
    compact, journal only without."""
    store = tmp_path / "store"
    engine = open_engine(store, encoder=encoder(), id_seed=7)
    for i, content in enumerate((CONTENT_A, CONTENT_B, CONTENT_C, CONTENT_D)):
        engine.add_memory(content, TS[i])
    if compact:
        snapshot_engine(engine, store, compact=True)
    engine.close()
    return store


@pytest.mark.parametrize("compact", [True, False], ids=["snapshot", "journal-only"])
def test_a_derived_store_refuses_an_encoder_of_another_seed(tmp_path, compact):
    store = v2_store(tmp_path, compact)
    assert b'"embedding_crc":' in b"".join(path.read_bytes() for path in store.iterdir())
    assert b'"embedding":' not in b"".join(path.read_bytes() for path in store.iterdir())
    assert len(load_store(*store_paths(store), encoder=encoder()).notes) == 4
    for other in (HashEncoder(dimension=DIM, seed=1), HashEncoder(dimension=DIM + 1, seed=0)):
        with pytest.raises(LoadIntegrityError, match="does not match its embedding_crc"):
            load_store(*store_paths(store), encoder=other)
        with pytest.raises(LoadIntegrityError):
            open_engine(store, encoder=other, read_only=True)


class FakeRemoteEncoder:
    """A non-deterministic encoder: every call draws fresh vectors from a
    seeded generator, negative zeros and subnormals among them."""

    deterministic = False
    dimension = DIM

    def __init__(self, seed=0):
        self.rng = np.random.default_rng(seed)

    def encode(self, text):
        return self.encode_many([text])[0]

    def encode_many(self, texts):
        rows = self.rng.standard_normal((len(texts), self.dimension)).astype(np.float32)
        rows[:, 0] = -0.0
        rows[:, 1] = np.float32(1e-40)
        return list(rows)


def test_a_derived_record_refuses_a_non_deterministic_encoder(tmp_path):
    store = v2_store(tmp_path, compact=False)
    with pytest.raises(LoadIntegrityError, match="embedding_crc"):
        load_store(*store_paths(store), encoder=FakeRemoteEncoder())


def test_a_derived_record_fails_a_non_deterministic_load_before_any_note_is_built(
    tmp_path, monkeypatch
):
    store = v2_store(tmp_path, compact=True)
    records, _, _ = read_snapshot(store / SNAPSHOT_FILENAME)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[0]["id"])
        return note_from_fields(*args, **kwargs)

    monkeypatch.setattr(persistence, "note_from_fields", counted)
    message = (
        f"note {min(records)}: record stores embedding_crc; only the "
        "deterministic encoder that wrote it can derive its embedding (record from the snapshot)"
    )
    with pytest.raises(LoadIntegrityError, match=f"^{re.escape(message)}$"):
        load_store(*store_paths(store), encoder=FakeRemoteEncoder())
    assert calls == []


def test_a_non_deterministic_encoders_store_keeps_its_floats_bit_for_bit(tmp_path):
    store = tmp_path / "store"
    engine = open_engine(store, encoder=FakeRemoteEncoder(), id_seed=7)
    for i, content in enumerate((CONTENT_A, CONTENT_B)):
        engine.add_memory(content, TS[i])
    snapshot_engine(engine, store)
    for i, content in enumerate((CONTENT_C, CONTENT_D), start=2):
        engine.add_memory(content, TS[i])
    live, live_seq = engine.state_snapshot()
    engine.close()
    data = b"".join(path.read_bytes() for path in store.iterdir())
    assert b'"embedding":[-0.0,' in data and b"embedding_crc" not in data

    reopened = open_engine(store, encoder=FakeRemoteEncoder(seed=1), read_only=True)
    notes, last_seq = reopened.state_snapshot()
    reopened.close()
    assert last_seq == live_seq and notes == live
    for nid, note in live.items():
        assert notes[nid].embedding.tobytes() == note.embedding.tobytes()


def derived_record(note, **changes):
    fields = json.loads(canonical_json(note, derived=True))
    fields.update(changes)
    return {key: value for key, value in fields.items() if value is not None}


def record_loads(record, loader=encoder):
    """The two loads of a record under loader(): as a snapshot's only note,
    and as a journal's only event."""

    def snapshot(path):
        read_snapshot_with(path, notes=[record])
        return load_store(path, path.with_name("no-journal"), encoder=loader())

    def journal(path):
        path.write_text(JournalEvent(1, "note_added", json.dumps(record)).line(), "utf-8")
        return load_store(path.with_name("no-snapshot"), path, encoder=loader())

    return snapshot, journal


@pytest.mark.parametrize(
    "changes",
    [
        pytest.param({"embedding": [0.5] * DIM}, id="both-keys"),
        pytest.param({"embedding_crc": None}, id="neither-key"),
        pytest.param({"embedding_crc": -1}, id="crc-negative"),
        pytest.param({"embedding_crc": 2**32}, id="crc-too-big"),
        pytest.param({"embedding_crc": 12.0}, id="crc-float"),
        pytest.param({"embedding_crc": True}, id="crc-bool"),
        pytest.param({"embedding_crc": "12"}, id="crc-string"),
    ],
)
def test_a_malformed_derived_record_fails_the_load(tmp_path, changes):
    note = hand_note(IdGenerator(seed=4), "alpha")
    for load in record_loads(derived_record(note, **changes)):
        with pytest.raises(LoadIntegrityError):
            load(tmp_path / "file.json")
    # the same record untouched loads
    for load in record_loads(derived_record(note)):
        assert load(tmp_path / "file.json").notes == {note.id: note}


@pytest.mark.parametrize(
    "entries, loader",
    [
        # "%.9g" text reads back as the same float32, so the record passes
        # the check against its text
        pytest.param(lambda vec: ["%.9g" % value for value in vec], encoder, id="strings"),
        # true and false read back as 1.0 and 0.0; a non-deterministic
        # encoder does not check the floats against the text
        pytest.param(lambda vec: [value != 0 for value in vec], FakeRemoteEncoder, id="booleans"),
        # a number no float holds is refused, not raised as OverflowError
        pytest.param(lambda vec: [10**400] + vec[1:], FakeRemoteEncoder, id="huge-integer"),
        # JSON NaN, and a float beyond float32 range, which is cast to an
        # Inf: the load's finiteness check refuses both, with no warning
        pytest.param(lambda vec: vec[:-1] + [float("nan")], encoder, id="nan"),
        pytest.param(
            lambda vec: vec[:-1] + [float("nan")], FakeRemoteEncoder, id="nan-nondeterministic"
        ),
        pytest.param(lambda vec: [1e39] + vec[1:], encoder, id="beyond-float32"),
        pytest.param(
            lambda vec: [1e39] + vec[1:], FakeRemoteEncoder, id="beyond-float32-nondeterministic"
        ),
    ],
)
def test_a_stored_embedding_of_other_than_numbers_fails_the_load(tmp_path, entries, loader):
    # canonical_json writes no such record, so a load of it would give a
    # note that writes back as other bytes.
    embedding = None if loader is encoder else basis_vector(DIM)
    note = hand_note(IdGenerator(seed=4), "alpha", embedding=embedding)
    record = json.loads(canonical_json(note))
    for load in record_loads(record, loader):
        assert load(tmp_path / "file.json").notes == {note.id: note}
    record["embedding"] = entries(record["embedding"])
    for load in record_loads(record, loader):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(LoadIntegrityError, match="embedding"):
                load(tmp_path / "file.json")


@pytest.mark.parametrize("read_only", [True, False], ids=["read-only", "writable"])
@pytest.mark.parametrize(
    "loader", [HashEncoder, UndeclaredHashEncoder], ids=["deterministic", "nondeterministic"]
)
def test_stored_floats_of_another_width_fail_the_open_and_change_no_file(
    tmp_path, loader, read_only
):
    store = tmp_path / "store"
    engine = open_engine(store, encoder=UndeclaredHashEncoder(DIM), id_seed=7)
    for i, content in enumerate((CONTENT_A, CONTENT_B, CONTENT_C)):
        engine.add_memory(content, TS[i])
        if i == 1:
            snapshot_engine(engine, store)
    engine.close()
    files = {path.name: path.read_bytes() for path in store.iterdir()}
    assert loader().dimension == 384 != DIM
    message = re.escape(f"stored embeddings of dimension [{DIM}], encoder's 384")
    with pytest.raises(LoadIntegrityError, match=f"^{message}$"):
        open_engine(store, encoder=loader(), read_only=read_only)
    assert {path.name: path.read_bytes() for path in store.iterdir()} == files


@pytest.mark.parametrize("loader", [HashEncoder, UndeclaredHashEncoder], ids=["derived", "stored"])
def test_a_load_checks_each_records_shape_once(tmp_path, monkeypatch, loader):
    write_pipeline_store(tmp_path, loader())
    snapshot = json.loads((tmp_path / SNAPSHOT_FILENAME).read_text("utf-8"))
    events, _ = read_journal(tmp_path / JOURNAL_FILENAME, after=snapshot["last_seq"])
    records = len(snapshot["notes"]) + sum(
        len(json.loads(event.payload_json)) - 1 for event in events
    )

    calls = []

    def counted(data):
        calls.append(data["id"])
        return is_derived_record(data)

    monkeypatch.setattr(persistence, "is_derived_record", counted)
    monkeypatch.setattr(notes_module, "is_derived_record", counted)
    assert len(load_store(*store_paths(tmp_path), encoder=loader()).notes) == 62
    assert len(calls) == records


@pytest.mark.parametrize("loader", [HashEncoder, UndeclaredHashEncoder], ids=["derived", "stored"])
def test_a_load_builds_each_note_once_through_note_from_fields(tmp_path, monkeypatch, loader):
    write_pipeline_store(tmp_path, loader())
    calls = []

    def counted(*args, **kwargs):
        note = note_from_fields(*args, **kwargs)
        calls.append(note.id)
        return note

    monkeypatch.setattr(persistence, "note_from_fields", counted)
    notes = load_store(*store_paths(tmp_path), encoder=loader()).notes
    assert len(notes) == 62
    assert sorted(calls) == sorted(notes)


@pytest.mark.parametrize("loader", [HashEncoder, UndeclaredHashEncoder], ids=["derived", "stored"])
def test_a_load_checks_each_record_once_without_post_init(tmp_path, monkeypatch, loader):
    # A journaled store: a snapshot partway, then a journal that runs on.
    write_pipeline_store(tmp_path, loader())
    built, post_inits = [], []

    def counted(*args, **kwargs):
        note = note_from_fields(*args, **kwargs)
        built.append(note.id)
        return note

    def counted_post_init(note):
        post_inits.append(note.id)

    monkeypatch.setattr(persistence, "note_from_fields", counted)
    monkeypatch.setattr(MemoryNote, "__post_init__", counted_post_init)
    notes = load_store(*store_paths(tmp_path), encoder=loader()).notes
    assert sorted(built) == sorted(notes)
    assert post_inits == []
    for note in notes.values():
        assert not note.embedding.flags.writeable
        assert type(note.links) is frozenset


@pytest.mark.parametrize(
    "writer, loader",
    [
        (HashEncoder, HashEncoder),
        (UndeclaredHashEncoder, HashEncoder),
        (UndeclaredHashEncoder, UndeclaredHashEncoder),
    ],
    ids=["derived", "stored", "stored-nondeterministic"],
)
def test_an_open_puts_every_embedding_in_one_read_only_index_matrix(tmp_path, writer, loader):
    write_pipeline_store(tmp_path, writer())
    engine = open_engine(tmp_path, encoder=loader(), read_only=True)
    rows = engine._index._rows
    notes = list(engine.iter_notes())
    assert not rows.flags.writeable
    # the rows adopt_state would stack, bit for bit, in id order
    assert rows.tobytes() == np.stack([note.embedding for note in notes]).tobytes()
    for note in notes:
        assert not note.embedding.flags.writeable
        # a derived record's note views its row, and so does a stored one
        assert np.shares_memory(note.embedding, rows)
    engine.close()


def test_a_stored_negative_zero_reaches_the_index_bit_for_bit(tmp_path):
    # The encoding has +0.0 where the record stores -0.0: equal values, so
    # the record loads, and both its note and its index row keep its bits.
    note = hand_note(IdGenerator(seed=4), "alpha")
    vec = note.embedding.copy()
    vec[np.flatnonzero(vec == 0)[0]] = -0.0
    note = replace(note, embedding=vec)
    write_snapshot(tmp_path / SNAPSHOT_FILENAME, {note.id: note}, EngineConfig(), 0)
    engine = open_engine(tmp_path, encoder=encoder(), read_only=True)
    assert engine.get_note(note.id).embedding.tobytes() == vec.tobytes()
    assert engine._index._rows[0].tobytes() == vec.tobytes()
    engine.close()


def test_a_load_checks_its_encodings_once_per_batch(tmp_path, monkeypatch):
    write_pipeline_store(tmp_path)
    calls = []

    def counted(vec):
        calls.append(vec)
        return notes_module._check_vector(vec)

    monkeypatch.setattr(notes_module, "_check_vector", counted)
    assert len(load_store(*store_paths(tmp_path), encoder=HashEncoder()).notes) == 62
    assert calls == []


class NonFiniteEncoder(HashEncoder):
    """A HashEncoder whose encodings of one text hold a NaN."""

    def __init__(self, text):
        super().__init__()
        self.text = text

    def encode_many(self, texts):
        vectors = [vec.copy() for vec in super().encode_many(texts)]
        for text, vec in zip(texts, vectors):
            if text == self.text:
                vec[3] = np.nan
        return vectors


def test_a_non_finite_encoding_fails_the_load_naming_its_note(tmp_path):
    write_pipeline_store(tmp_path)
    notes = load_store(*store_paths(tmp_path), encoder=HashEncoder()).notes
    victim = sorted(notes)[40]
    encoder = NonFiniteEncoder(note_text(notes[victim]))
    # The victim's record is last written by the change at seq 49 of the
    # pinned history.
    message = rf"^note {victim}: embedding contains NaN or Inf \(record from journal seq 49\)$"
    with pytest.raises(LoadIntegrityError, match=message):
        load_store(*store_paths(tmp_path), encoder=encoder)


class ShortEncoder(HashEncoder):
    """A HashEncoder whose encodings are one coordinate short of its dimension."""

    def encode_many(self, texts):
        return [vec[:-1] for vec in super().encode_many(texts)]


def test_encodings_not_of_the_encoders_dimension_fail_the_load(tmp_path):
    write_pipeline_store(tmp_path)
    with pytest.raises(LoadIntegrityError, match="not each a 1-D vector of its dimension 384"):
        load_store(*store_paths(tmp_path), encoder=ShortEncoder())


def test_an_update_before_any_insert_copies_the_loaded_matrix(tmp_path):
    write_pipeline_store(tmp_path)
    engine = open_engine(tmp_path, read_only=True)
    index = engine._index
    first, second = list(engine.iter_notes())[:2]
    held = first.embedding.tobytes()
    index.update(first.id, second.embedding)
    assert index._rows.flags.writeable
    assert not np.shares_memory(index._rows, first.embedding)
    assert first.embedding.tobytes() == held
    assert index._rows[0].tobytes() == second.embedding.tobytes()
    engine.close()


def test_a_note_held_across_an_evolving_add_keeps_its_embedding(tmp_path):
    write_pipeline_store(tmp_path)
    engine = open_engine(tmp_path, gateway=LlmGateway(), id_seed=5)
    held = list(engine.iter_notes())
    before = [note.embedding.tobytes() for note in held]
    content = DIALOGUE.read_text("utf-8").splitlines()[0] + " Revisited a third time."
    engine.add_memory(content, "2024-03-02T00:00:00Z")
    after = [engine.get_note(note.id).embedding.tobytes() for note in held]
    assert after != before  # the add re-encoded a neighbour
    assert [note.embedding.tobytes() for note in held] == before
    assert engine.audit() == []
    engine.close()


def test_a_stored_embedding_of_another_dimension_fails_the_load(tmp_path):
    note = hand_note(IdGenerator(seed=4), "alpha", embedding=basis_vector(16))
    path = tmp_path / JOURNAL_FILENAME
    with Journal(path) as journal:
        journal.write([Change(note)])
    with pytest.raises(LoadIntegrityError, match=r"dimension \[16\], encoder's 32"):
        load_store(tmp_path / SNAPSHOT_FILENAME, path, encoder=encoder())


class ClosingJournal(Journal):
    """Records every journal it closes."""

    closed = []

    def close(self):
        ClosingJournal.closed.append(self)
        super().close()


class DimensionlessEncoder:
    deterministic = True
    dimension = 0

    def encode_many(self, texts):
        raise AssertionError("an empty store encodes nothing")


def test_a_failed_open_closes_its_journal_and_removes_what_it_created(tmp_path, monkeypatch):
    monkeypatch.setattr(persistence, "Journal", ClosingJournal)
    monkeypatch.setattr(ClosingJournal, "closed", [])
    store = tmp_path / "new" / "store"
    with pytest.raises(ValueError):
        open_engine(store, encoder=DimensionlessEncoder())
    assert len(ClosingJournal.closed) == 1
    assert list(tmp_path.iterdir()) == []

    # a directory and journal that were there before stay
    store.mkdir(parents=True)
    (store / JOURNAL_FILENAME).write_bytes(b"")
    with pytest.raises(ValueError):
        open_engine(store, encoder=DimensionlessEncoder())
    assert len(ClosingJournal.closed) == 2
    assert [path.name for path in store.iterdir()] == [JOURNAL_FILENAME]


def test_a_second_writer_is_refused_and_every_acknowledged_add_survives(tmp_path):
    store = tmp_path / "new" / "store"
    first = open_engine(store, encoder=encoder(), id_seed=7)
    first.add_memory(CONTENT_A, TS[0])
    with pytest.raises(StoreLocked):
        open_engine(store, encoder=encoder(), id_seed=8)
    # the refused open removed nothing of the store the first one created
    assert (store / JOURNAL_FILENAME).exists()
    first.add_memory(CONTENT_B, TS[1])
    reader = open_engine(store, encoder=encoder(), read_only=True)
    assert len(reader) == 2
    acknowledged = state_map(first.state_snapshot()[0])
    first.close()

    reopened = open_engine(store, encoder=encoder(), id_seed=8)
    assert state_map(reopened.state_snapshot()[0]) == acknowledged
    reopened.close()


def test_a_writable_open_loads_under_the_journal_lock(tmp_path, monkeypatch):
    loads = []
    real_load = persistence.load_store

    def load_while_probing_the_lock(snapshot_path, journal_path, encoder=None):
        with pytest.raises(StoreLocked):
            lock_journal(journal_path)
        loads.append(journal_path)
        return real_load(snapshot_path, journal_path, encoder=encoder)

    monkeypatch.setattr(persistence, "load_store", load_while_probing_the_lock)
    store = tmp_path / "store"
    for _ in range(2):
        open_engine(store, encoder=encoder()).close()
    assert loads == [store / JOURNAL_FILENAME] * 2


def record_fsyncs(monkeypatch):
    """Make os.fsync record the stat of each file or directory it syncs."""
    synced = []
    real_fsync = os.fsync

    def recording_fsync(fd):
        synced.append(os.fstat(fd))
        real_fsync(fd)

    monkeypatch.setattr(os, "fsync", recording_fsync)
    return synced


def synced_since(synced, *directories):
    """Which of directories were fsynced, in order, and how many files were,
    since the last call; then forget them."""
    names = [
        next((d for d in directories if os.path.samestat(os.stat(d), s)), "?")
        for s in synced if stat.S_ISDIR(s.st_mode)
    ]
    files = sum(stat.S_ISREG(s.st_mode) for s in synced)
    synced.clear()
    return names, files


def test_a_new_store_is_durable_before_its_first_add_returns(tmp_path, monkeypatch):
    synced = record_fsyncs(monkeypatch)
    store = tmp_path / "new" / "store"
    engine = open_engine(store, encoder=encoder(), id_seed=7)
    try:
        # the open syncs the parent of each directory it created
        assert synced_since(synced, tmp_path, tmp_path / "new", store) == (
            [tmp_path / "new", tmp_path], 0
        )
        # the first add syncs the journal, then the directory holding it
        engine.add_memory(CONTENT_A, TS[0])
        assert synced_since(synced, tmp_path, tmp_path / "new", store) == ([store], 1)
        engine.add_memory(CONTENT_D, TS[1])
        assert synced_since(synced, tmp_path, tmp_path / "new", store) == ([], 1)
    finally:
        engine.close()


def test_a_write_of_several_changes_writes_a_line_each_and_fsyncs_once(tmp_path, monkeypatch):
    # The shape a group commit needs: one write() of three changes.
    ids = IdGenerator(seed=3)
    a, b, c = (hand_note(ids, keyword) for keyword in ("alpha", "beta", "gamma"))
    path = tmp_path / "j.jsonl"
    synced = record_fsyncs(monkeypatch)
    with Journal(path) as journal:
        journal.write([Change(a), Change(b, rewritten=(a,)), Change(c)])
        # one fsync of the file, and the one of its directory a first write makes
        assert synced_since(synced, tmp_path) == ([tmp_path], 1)
        assert journal.last_seq == 3
    events, truncated = read_journal(path)
    assert truncated is None and [event.seq for event in events] == [1, 2, 3]
    assert path.read_bytes().count(b"\n") == 3
    assert [event.payload_json for event in events] == [
        f"[1,{canonical_json(a)}]",
        f"[2,{canonical_json(b)},{delta_json(a)}]",
        f"[3,{canonical_json(c)}]",
    ]


def test_opening_an_existing_empty_directory_fsyncs_nothing(tmp_path, monkeypatch):
    # The open that perfbench's ingest setup times: no fsync, one empty file.
    synced = record_fsyncs(monkeypatch)
    engine = open_engine(tmp_path, encoder=encoder(), id_seed=7)
    assert synced == []
    engine.close()
    assert synced == []
    assert [(path.name, path.read_bytes()) for path in tmp_path.iterdir()] == [
        (JOURNAL_FILENAME, b"")
    ]


def store_files(store):
    return {path.name: path.read_bytes() for path in store.iterdir()}


def test_a_snapshot_into_a_store_a_live_writer_holds_is_refused(tmp_path):
    store = tmp_path / "store"
    writer = open_engine(store, encoder=encoder(), id_seed=7)
    try:
        for i, content in enumerate((CONTENT_A, CONTENT_B, CONTENT_C)):
            writer.add_memory(content, TS[i])
        reader = open_engine(store, encoder=encoder(), read_only=True)
        writer.add_memory(CONTENT_D, TS[3])
        snapshot_engine(writer, store, compact=True)
        writer.add_memory("a fifth note about lentil soup", TS[4])
        files = store_files(store)
        # the reader predates the compaction: the journal would not follow its snapshot
        with pytest.raises(StoreLocked, match="locked"):
            snapshot_engine(reader, store)
        reader.close()
        assert store_files(store) == files
        acknowledged = state_map(writer.state_snapshot()[0])
    finally:
        writer.close()

    reopened = open_engine(store, encoder=encoder())
    assert len(reopened) == 5
    assert state_map(reopened.state_snapshot()[0]) == acknowledged
    reopened.close()


def test_an_in_memory_snapshot_into_an_empty_directory_leaves_only_the_snapshot(tmp_path):
    engine = live_engine()
    engine.add_memory(CONTENT_A, TS[0])
    # the directory must exist: a snapshot creates none
    with pytest.raises(FileNotFoundError):
        snapshot_engine(engine, tmp_path / "missing")
    assert not (tmp_path / "missing").exists()
    assert snapshot_engine(engine, tmp_path) == tmp_path / SNAPSHOT_FILENAME
    assert [path.name for path in tmp_path.iterdir()] == [SNAPSHOT_FILENAME]
    reloaded = load_store(*store_paths(tmp_path), encoder=encoder())
    assert state_map(reloaded.notes) == state_map(engine.state_snapshot()[0])


def test_a_snapshot_by_a_reader_behind_a_closed_writer_is_refused(tmp_path):
    store = tmp_path / "store"
    writer = open_engine(store, encoder=encoder(), id_seed=7)
    for i, content in enumerate((CONTENT_A, CONTENT_B, CONTENT_C)):
        writer.add_memory(content, TS[i])
    reader = open_engine(store, encoder=encoder(), read_only=True)
    writer.add_memory(CONTENT_D, TS[3])
    snapshot_engine(writer, store, compact=True)
    writer.add_memory("a fifth note about lentil soup", TS[4])
    notes, last_seq = writer.state_snapshot()
    acknowledged = state_map(notes)
    writer.close()
    files = store_files(store)
    # The reader stopped at seq 3; the store's snapshot and journal run on.
    assert reader.state_snapshot()[1] == 3
    with pytest.raises(ValueError, match=f"at seq {last_seq} and the engine at seq 3"):
        snapshot_engine(reader, store)
    reader.close()
    assert store_files(store) == files

    reopened = open_engine(store, encoder=encoder())
    assert len(reopened) == 5
    assert state_map(reopened.state_snapshot()[0]) == acknowledged
    reopened.close()


def test_a_reader_at_the_stores_last_seq_snapshots_past_a_torn_tail(tmp_path):
    store = tmp_path / "store"
    writer = open_engine(store, encoder=encoder(), id_seed=7)
    for i, content in enumerate((CONTENT_A, CONTENT_B, CONTENT_C)):
        writer.add_memory(content, TS[i])
    notes, last_seq = writer.state_snapshot()
    acknowledged = state_map(notes)
    writer.close()
    torn = JournalEvent(last_seq + 1, "links_changed", '{"id":"a","added":[],"removed":[]}').line()
    with open(store / JOURNAL_FILENAME, "ab") as handle:
        handle.write(torn.encode("utf-8")[:-1])
    reader = open_engine(store, encoder=encoder(), read_only=True)
    snapshot_engine(reader, store)
    reader.close()
    assert read_snapshot(store / SNAPSHOT_FILENAME)[2] == last_seq

    reopened = open_engine(store, encoder=encoder())
    assert state_map(reopened.state_snapshot()[0]) == acknowledged
    reopened.close()


def test_the_snapshot_check_reads_no_whole_store(tmp_path, monkeypatch):
    # perfbench's reopen shape: a writer snapshots into a copy of its store,
    # which holds a snapshot and a journal that runs past it.
    store = tmp_path / "store"
    writer = open_engine(store, encoder=encoder(), id_seed=7)
    writer.add_memory(CONTENT_A, TS[0])
    writer.add_memory(CONTENT_B, TS[1])
    snapshot_engine(writer, store)
    writer.add_memory(CONTENT_C, TS[2])
    behind = tmp_path / "behind"
    shutil.copytree(store, behind)
    writer.add_memory(CONTENT_D, TS[3])
    current = tmp_path / "current"
    shutil.copytree(store, current)
    stored_seq = read_snapshot(store / SNAPSHOT_FILENAME)[2]
    behind_seq = read_journal(behind / JOURNAL_FILENAME)[0][-1].seq
    last_seq = writer.state_snapshot()[1]
    assert stored_seq < behind_seq < last_seq

    def whole_store_read(*args, **kwargs):
        raise AssertionError("the snapshot check read the whole store")

    monkeypatch.setattr(persistence, "read_snapshot", whole_store_read)
    monkeypatch.setattr(persistence, "read_journal", whole_store_read)
    try:
        snapshot_engine(writer, current)
        files = store_files(behind)
        # An engine ahead of a store may not replace it either.
        refusal = f"at seq {behind_seq} and the engine at seq {last_seq}"
        with pytest.raises(ValueError, match=refusal):
            snapshot_engine(writer, behind)
        assert store_files(behind) == files
    finally:
        writer.close()
        monkeypatch.undo()
    assert read_snapshot(current / SNAPSHOT_FILENAME)[2] == last_seq


@pytest.mark.parametrize(
    "categories, content, whole_reads",
    [
        pytest.param({"last_seq": 3, "a": 2}, None, 0, id="categories0"),
        pytest.param({f"c{i:05d}": 1 for i in range(900)}, None, 1, id="categories1"),
        pytest.param({}, "記憶" * 800, 0, id="split_character"),
    ],
)
def test_a_snapshot_header_gives_the_last_seq_read_snapshot_gives(
    tmp_path, monkeypatch, categories, content, whole_reads
):
    # A category named last_seq; a config longer than the bytes read for a
    # header, which then falls back on the whole snapshot; and a note whose
    # text the end of those bytes cuts inside a character.
    path = tmp_path / SNAPSHOT_FILENAME
    notes = {}
    if content is not None:
        note = replace(hand_note(IdGenerator(seed=1), "memory"), content=content)
        notes[note.id] = note
    write_snapshot(path, notes, EngineConfig(k_by_category=categories), 17)
    if content is not None:
        # 10xxxxxx: a UTF-8 continuation byte
        assert path.read_bytes()[persistence._HEADER_BYTES] >> 6 == 0b10
    reads = []

    def counted_read(*args):
        reads.append(args)
        return read_snapshot(*args)

    monkeypatch.setattr(persistence, "read_snapshot", counted_read)
    assert persistence._snapshot_last_seq(path) == read_snapshot(path)[2] == 17
    assert len(reads) == whole_reads
    assert persistence._snapshot_last_seq(tmp_path / "absent.json") == 0


def test_a_snapshot_of_a_format_this_build_cannot_read_is_not_replaced(tmp_path):
    # The header does not match, so the whole snapshot is read and refused.
    store = tmp_path / "store"
    store.mkdir()
    path = store / SNAPSHOT_FILENAME
    write_snapshot(path, {}, EngineConfig(), 5)
    data = path.read_bytes().replace(
        f'"format_version":{FORMAT_VERSION}'.encode(), b'"format_version":99'
    )
    path.write_bytes(data)
    engine = live_engine()
    engine.add_memory(CONTENT_A, TS[0])
    with pytest.raises(VersionMismatch, match="format_version 99"):
        snapshot_engine(engine, store)
    assert path.read_bytes() == data
    assert [entry.name for entry in store.iterdir()] == [SNAPSHOT_FILENAME]


@pytest.fixture
def six_note_writer(tmp_path):
    """A writer whose store holds three notes in a snapshot and three more
    in the journal after it."""
    writer = open_engine(tmp_path, encoder=encoder(), gateway=LlmGateway(), id_seed=7)
    try:
        for i, content in enumerate((CONTENT_A, CONTENT_B, CONTENT_C) * 2):
            if i == 3:
                snapshot_engine(writer, tmp_path)
            writer.add_memory(content, TS[i])
        yield writer
    finally:
        writer.close()


def compact_after_snapshot_reads(monkeypatch, writer, store, compactions, add=False):
    """Make each of the next `compactions` snapshot reads compact the
    writer's store after it returns, then add one note if `add`. Returns the
    list of paths read under a compaction."""
    real_read = persistence.read_snapshot
    raced = []

    def read_then_compact(path):
        result = real_read(path)
        if len(raced) < compactions:
            raced.append(path)
            snapshot_engine(writer, store, compact=True)
            if add:
                writer.add_memory(CONTENT_D, TS[10 + len(raced)])
        return result

    monkeypatch.setattr(persistence, "read_snapshot", read_then_compact)
    return raced


def read_only_state(store):
    reader = open_engine(store, encoder=encoder(), read_only=True)
    try:
        assert reader.audit() == []
        notes, last_seq = reader.state_snapshot()
        return state_map(notes), last_seq
    finally:
        reader.close()


def test_a_read_only_open_raced_by_a_compaction_and_an_add_reads_again(
    tmp_path, monkeypatch, six_note_writer
):
    raced = compact_after_snapshot_reads(monkeypatch, six_note_writer, tmp_path, 1, add=True)
    state = read_only_state(tmp_path)
    assert raced == [tmp_path / SNAPSHOT_FILENAME]
    notes, last_seq = six_note_writer.state_snapshot()
    assert len(notes) == 7
    assert state == (state_map(notes), last_seq)


def test_a_read_only_open_raced_by_a_compaction_sees_every_acknowledged_add(
    tmp_path, monkeypatch, six_note_writer
):
    acknowledged = six_note_writer.state_snapshot()
    compact_after_snapshot_reads(monkeypatch, six_note_writer, tmp_path, 1)
    state = read_only_state(tmp_path)
    assert len(state[0]) == 6
    assert state == (state_map(acknowledged[0]), acknowledged[1])


def test_a_damaged_read_under_a_compaction_is_read_again(tmp_path, monkeypatch, six_note_writer):
    # The spans read back from a journal's end before and after a
    # compaction's cut can mix two journals; the replaced snapshot says so.
    real_read = persistence.read_journal

    def read_under_a_compaction(path, after=0):
        monkeypatch.setattr(persistence, "read_journal", real_read)
        snapshot_engine(six_note_writer, tmp_path, compact=True)
        raise LoadIntegrityError("journal line at byte 0 is damaged")

    monkeypatch.setattr(persistence, "read_journal", read_under_a_compaction)
    notes, last_seq = six_note_writer.state_snapshot()
    assert read_only_state(tmp_path) == (state_map(notes), last_seq)


def test_a_read_only_open_reads_a_journal_unlinked_under_its_probe_as_none(
    tmp_path, monkeypatch
):
    # A snapshot into a store with no journal locks through a journal it
    # creates empty and then unlinks; here the unlink lands right after the
    # open's first look at the journal.
    engine = live_engine()
    engine.add_memory(CONTENT_A, TS[0])
    snapshot_engine(engine, tmp_path)
    journal_path = tmp_path / JOURNAL_FILENAME
    assert not journal_path.exists()
    journal_path.touch()
    probes = []

    def probe(real):
        def probed(path, *args, **kwargs):
            result = real(path, *args, **kwargs)
            if path == journal_path and not probes:
                probes.append(path)
                path.unlink()
            return result

        return probed

    monkeypatch.setattr(Path, "exists", probe(Path.exists))
    monkeypatch.setattr(Path, "stat", probe(Path.stat))
    reader = open_engine(tmp_path, encoder=encoder(), read_only=True)
    assert probes == [journal_path] and not journal_path.exists()
    assert state_map(reader.state_snapshot()[0]) == state_map(engine.state_snapshot()[0])
    reader.close()


def test_a_snapshot_replaced_under_every_read_fails_the_open(
    tmp_path, monkeypatch, six_note_writer
):
    descriptors = len(os.listdir("/proc/self/fd"))
    raced = compact_after_snapshot_reads(monkeypatch, six_note_writer, tmp_path, 100)
    with pytest.raises(StoreLocked, match="locked"):
        open_engine(tmp_path, encoder=encoder(), read_only=True)
    assert len(raced) == persistence._LOAD_ATTEMPTS
    assert len(os.listdir("/proc/self/fd")) == descriptors


# ---------------------------------------------------------------------------
# crash and reopen, as random sequences of operations


MACHINE_WORDS = (
    "camera", "photography", "tripod", "darkroom", "lens",
    "aperture", "soup", "recipe", "lentil", "garden",
)


class DurableStoreMachine(RuleBasedStateMachine):
    """Adds, snapshots, compactions, failed compactions, torn writes,
    whitespace tails, refused second writers, read-only opens, snapshots by
    a kept reader, closes and reopens in any order.

    The model is the state the live engine acknowledged last: its notes as
    canonical JSON and its last_seq. A reopen and a read-only open must
    reproduce exactly that state, whatever a torn write or whitespace left
    at the end of the journal, and neither a second writer nor a snapshot
    by a reader opened at an earlier step may change the model or the
    store's files while the writer is open. Once the writer is closed,
    such a snapshot goes in only from a reader at the acknowledged
    last_seq; from any other it changes no file.
    """

    def __init__(self):
        super().__init__()
        self.root = Path(tempfile.mkdtemp(prefix="amem-machine-"))
        self.store = self.root / "store"
        self.encoder = HashEncoder(dimension=16, seed=0)
        self.engine = self.open()
        self.acked = {}
        self.acked_seq = 0
        self.clock = 0
        # set by a failed compaction, cleared by a reopen
        self.failed = False
        # a read-only engine opened at an earlier step
        self.reader = None

    def open(self):
        return open_engine(self.store, encoder=self.encoder, id_seed=11)

    def teardown(self):
        if self.engine is not None:
            self.engine.close()
        if self.reader is not None:
            self.reader.close()
        shutil.rmtree(self.root, ignore_errors=True)

    def is_open(self):
        return self.engine is not None

    def is_writable(self):
        return self.engine is not None and not self.failed

    @precondition(is_open)
    @rule(words=st.lists(st.sampled_from(MACHINE_WORDS), min_size=2, max_size=5))
    def add(self, words):
        self.clock += 1
        args = (" ".join(words), "2023-06-01T%02d:%02d:00Z" % divmod(self.clock, 60))
        if self.failed:
            with pytest.raises(EngineFailed, match="journal write failed"):
                self.engine.add_memory(*args)
            return
        self.engine.add_memory(*args)
        notes, self.acked_seq = self.engine.state_snapshot()
        self.acked = state_map(notes)

    @precondition(is_writable)
    @rule(compact=st.booleans())
    def snapshot(self, compact):
        snapshot_engine(self.engine, self.store, compact=compact)

    @precondition(is_writable)
    @rule()
    def failed_compaction(self):
        # The snapshot is written and renamed; then the fsync of the journal
        # just cut to 0 bytes fails.
        real_fsync = os.fsync
        os.fsync = fail_the_next_fsync_of(self.store / JOURNAL_FILENAME)
        try:
            with pytest.raises(OSError):
                snapshot_engine(self.engine, self.store, compact=True)
        finally:
            os.fsync = real_fsync
        self.failed = True

    @precondition(is_open)
    @rule(data=st.data())
    def torn_write(self, data):
        # What an append interrupted by a crash leaves: a proper prefix of
        # the next journal line, possibly all of it but the newline.
        self.engine.close()
        self.engine = None
        note = hand_note(IdGenerator(seed=self.clock), "unfinished")
        note = replace(note, embedding=self.encoder.encode(note_text(note)))
        line = JournalEvent(self.acked_seq + 1, "note_added", canonical_json(note)).line()
        raw = line.encode("utf-8")
        cut = data.draw(st.one_of(st.just(len(raw) - 1), st.integers(1, len(raw) - 1)))
        with open(self.store / JOURNAL_FILENAME, "ab") as handle:
            handle.write(raw[:cut])

    @precondition(is_open)
    @rule(tail=st.sampled_from([b"\n", b"  ", b"\t\r\n"]))
    def whitespace_tail(self, tail):
        # Whitespace past the last line, which the writer never writes, is a
        # tail like a torn write's: both opens read the acknowledged state,
        # and the writable one cuts the tail before anything is appended.
        self.engine.close()
        self.engine = None
        journal_path = self.store / JOURNAL_FILENAME
        whole = journal_path.read_bytes()
        journal_path.write_bytes(whole + tail)
        self.read_only_open()
        self.reopen()
        assert journal_path.read_bytes() == whole

    @precondition(is_open)
    @rule()
    def second_writer(self):
        files = {path.name: path.read_bytes() for path in self.store.iterdir()}
        with pytest.raises(StoreLocked):
            self.open()
        assert {path.name: path.read_bytes() for path in self.store.iterdir()} == files
        notes, last_seq = self.engine.state_snapshot()
        assert state_map(notes) == self.acked
        assert last_seq == self.acked_seq

    @rule()
    def read_only_open(self):
        reader = open_engine(self.store, encoder=self.encoder, read_only=True)
        try:
            notes, last_seq = reader.state_snapshot()
            assert state_map(notes) == self.acked
            assert last_seq == self.acked_seq
            assert reader.audit() == []
        finally:
            reader.close()

    @precondition(is_open)
    @rule()
    def close_writer(self):
        self.engine.close()
        self.engine = None

    @rule()
    def keep_reader(self):
        if self.reader is not None:
            self.reader.close()
        self.reader = open_engine(self.store, encoder=self.encoder, read_only=True)

    @precondition(lambda self: self.reader is not None)
    @rule()
    def reader_snapshot(self):
        files = store_files(self.store)
        if self.engine is not None:
            with pytest.raises(StoreLocked):
                snapshot_engine(self.reader, self.store)
            assert store_files(self.store) == files
            notes, last_seq = self.engine.state_snapshot()
            assert state_map(notes) == self.acked
            assert last_seq == self.acked_seq
            return
        # With the writer closed, the snapshot goes in only from a reader
        # at the store's last seq, and then it holds the acknowledged state.
        notes, last_seq = self.reader.state_snapshot()
        if last_seq != self.acked_seq:
            with pytest.raises(ValueError, match="only an engine at the store's last seq"):
                snapshot_engine(self.reader, self.store)
            assert store_files(self.store) == files
            return
        snapshot_engine(self.reader, self.store)
        assert state_map(notes) == self.acked
        loaded = load_store(*store_paths(self.store), encoder=self.encoder)
        assert state_map(loaded.notes) == self.acked
        assert loaded.last_seq == self.acked_seq

    @rule()
    def reopen(self):
        if self.engine is not None:
            self.engine.close()
        self.engine = self.open()
        self.failed = False
        notes, last_seq = self.engine.state_snapshot()
        assert state_map(notes) == self.acked
        assert last_seq == self.acked_seq
        assert self.engine.audit() == []


TestDurableStoreMachine = DurableStoreMachine.TestCase
# The fewest examples and steps found to catch, in each of 12 seeded runs of
# the generate phase, a whitespace tail that only a later add and reopen
# expose; about 4 s on a 2-core host.
TestDurableStoreMachine.settings = settings(
    max_examples=100, stateful_step_count=50, deadline=None, database=None
)
