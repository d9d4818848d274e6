"""Memory engine: note construction, autonomous linking, evolution, retrieval.

Adding a memory runs the full pipeline. The gateway analyzes the content
into keywords, context, and tags; the enriched note text is embedded and
the note staged for insertion. If the store already holds notes, the
nearest neighbors by cosine similarity are fetched and the gateway is asked
whether the new memory should evolve; an affirmative opinion yields a
concrete directive that links the new note to chosen neighbors (both
directions), extends the new note's tags, and may rewrite neighbor context
or tags. Rewritten notes replace the originals and are re-encoded so every
stored embedding always matches its note text. The new note and all that
its evolution changes are journaled, synced and published as one change.

Backend calls and re-encodes happen strictly before anything is written,
so a backend failure leaves the store exactly as it was.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field, fields, replace
from types import MappingProxyType
from typing import Any, Callable, Iterator, Mapping, NamedTuple, Sequence

import numpy as np

from .embedding import Encoder
from .errors import EmptyContent, EmptyQuery, EngineFailed, UnknownId
from .gateway import EvolutionDirective, LlmGateway
from .index import VectorIndex, _is_count, cosine
from .notes import (
    IdGenerator,
    MemoryNote,
    NoteId,
    compose_note_text,
    normalize_terms,
    note_text,
    now_timestamp,
    validate_timestamp,
)


@dataclass(frozen=True)
class EngineConfig:
    """Behavior switches for the memory pipeline.

    k_link controls how many neighbors the link-generation phase sees;
    k_retrieve is the default result count for queries, overridable per
    query category through k_by_category. The three enable flags are
    ablation switches: link generation gates the whole neighbor phase,
    evolution gates neighbor rewrites, and link expansion appends linked
    notes to retrieval results.

    A config is checked once, when it is built, so it cannot change after:
    the fields are frozen and k_by_category is a read-only copy. Change an
    engine's behavior by giving it a new config.
    """

    k_link: int = 10
    k_retrieve: int = 10
    enable_link_generation: bool = True
    enable_evolution: bool = True
    enable_link_expansion: bool = False
    k_by_category: Mapping[str, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "k_by_category", MappingProxyType(dict(self.k_by_category)))
        if not _is_count(self.k_link):
            raise ValueError("k_link must be an integer >= 1")
        if not _is_count(self.k_retrieve):
            raise ValueError("k_retrieve must be an integer >= 1")
        for category, value in self.k_by_category.items():
            if not _is_count(value):
                raise ValueError(f"k for category {category!r} must be an integer >= 1")
        for name in ("enable_link_generation", "enable_evolution", "enable_link_expansion"):
            if not isinstance(getattr(self, name), bool):
                raise ValueError(f"{name} must be true or false")

    def k_for(self, category: str | None = None) -> int:
        if category is not None and category in self.k_by_category:
            return self.k_by_category[category]
        return self.k_retrieve

    def to_mapping(self) -> dict[str, Any]:
        data = {f.name: getattr(self, f.name) for f in fields(self)}
        data["k_by_category"] = dict(sorted(self.k_by_category.items()))
        return data

    @classmethod
    def from_mapping(cls, data: Mapping[str, Any]) -> "EngineConfig":
        names = [f.name for f in fields(cls)]
        unknown = set(data) - set(names)
        if unknown:
            raise ValueError(f"unknown engine config keys: {sorted(unknown)}")
        return cls(**{key: data[key] for key in names if key in data})


@dataclass(frozen=True)
class RetrievedMemory:
    """One retrieval hit: the note, its cosine score, and how it got here."""

    note: MemoryNote
    score: float
    expanded: bool = False


def _evolve(
    new_note: MemoryNote, neighbors: Sequence[MemoryNote], directive: EvolutionDirective
) -> list[MemoryNote]:
    """The notes a directive changes, the new note first, then the neighbors
    by rank. The new note links to the neighbors the directive suggests and
    each of them links back, so links stay inside the neighbor set. A pure
    step: rewritten notes keep their old embeddings; _commit re-encodes."""
    if not directive.should_evolve:
        return []

    suggested = set(directive.suggested_connections)
    contexts = directive.new_context_neighborhood
    tag_lists = directive.new_tags_neighborhood
    connections: list[NoteId] = []
    changed: list[MemoryNote] = []
    for position, neighbor in enumerate(neighbors):
        update: dict[str, Any] = {}
        if neighbor.id in suggested:
            connections.append(neighbor.id)
            update["links"] = neighbor.links | {new_note.id}
        # Blank or missing entries mean "leave this neighbor alone".
        new_context = contexts[position].strip() if position < len(contexts) else ""
        rewrite_tags = normalize_terms(tag_lists[position] if position < len(tag_lists) else ())
        if new_context and new_context != neighbor.context:
            update["context"] = new_context
        if rewrite_tags and rewrite_tags != neighbor.tags:
            update["tags"] = rewrite_tags
        if update:
            changed.append(replace(neighbor, **update))

    new_links = new_note.links.union(connections)
    # Stored tags hold no duplicates, so this appends only unseen terms.
    new_tags = tuple(dict.fromkeys(new_note.tags + normalize_terms(directive.tags_to_update)))
    if new_links != new_note.links or new_tags != new_note.tags:
        changed.insert(0, replace(new_note, links=new_links, tags=new_tags))
    return changed


# Notes whose embeddings audit and load_store encode in one batch; bounds
# the memory of a verification however large the store.
_VERIFY_CHUNK = 256


def _note_problems(
    notes: Mapping[NoteId, MemoryNote], encoder: Encoder | None, check_symmetry: bool
) -> Iterator[str]:
    """The note checks of audit, in id order: dangling links, optionally
    missing backlinks, and, given an encoder, stale embeddings. One
    encode_many per chunk of notes."""
    ordered = sorted(notes)
    for start in range(0, len(ordered), _VERIFY_CHUNK):
        chunk = ordered[start:start + _VERIFY_CHUNK]
        if encoder is not None:
            expected = encoder.encode_many([note_text(notes[note_id]) for note_id in chunk])
        else:
            expected = [None] * len(chunk)
        for note_id, vector in zip(chunk, expected):
            note = notes[note_id]
            for link in sorted(note.links):
                if link not in notes:
                    yield f"note {note_id} links to unknown id {link}"
                elif check_symmetry and note_id not in notes[link].links:
                    yield f"link {note_id} -> {link} has no backlink"
            if vector is not None and not np.array_equal(vector, note.embedding):
                yield f"note {note_id} embedding does not match its text"


class ReadWriteLock:
    """Many concurrent readers or one writer. A waiting writer goes first,
    so a steady stream of readers cannot starve it."""

    def __init__(self) -> None:
        self._cond = threading.Condition()
        self._readers = self._waiting = 0
        self._writer = False

    @contextmanager
    def read(self) -> Iterator[None]:
        with self._cond:
            self._cond.wait_for(lambda: not (self._writer or self._waiting))
            self._readers += 1
        try:
            yield
        finally:
            with self._cond:
                self._readers -= 1
                if self._readers == 0:
                    self._cond.notify_all()

    @contextmanager
    def write(self) -> Iterator[None]:
        with self._cond:
            self._waiting += 1
            self._cond.wait_for(lambda: not (self._writer or self._readers))
            self._waiting -= 1
            self._writer = True
        try:
            yield
        finally:
            with self._cond:
                self._writer = False
                self._cond.notify_all()


class _State(NamedTuple):
    """The published store: a notes map never mutated once published, and
    the last journaled sequence number it includes."""

    notes: dict[NoteId, MemoryNote]
    last_seq: int


class MemoryEngine:
    """Owns the note store and wires encoder, index, gateway, and journal.

    Mutations hold the writer lock and commit through _commit. Reads of the
    notes (get_note, iter_notes, len, membership, state_snapshot) take no
    lock: they read the published _State. retrieve and audit also read the
    index, which changes in place, so they hold the view lock for reading
    while _commit holds it for writing. snapshot writes one snapshot at a
    time. After a failed journal write or close() the engine refuses
    mutations (EngineFailed), giving the first reason; reads go on.
    """

    def __init__(
        self,
        encoder: Encoder,
        gateway: LlmGateway | None = None,
        config: EngineConfig | None = None,
        journal: Any = None,
        id_seed: int | None = None,
    ) -> None:
        self._encoder = encoder
        self._gateway = gateway if gateway is not None else LlmGateway()
        self.config = config if config is not None else EngineConfig()
        self._journal = journal
        self._ids = IdGenerator(id_seed)
        self._state = _State({}, journal.last_seq if journal is not None else 0)
        self._index = VectorIndex(encoder.dimension)
        self._mutate = threading.Lock()
        self._view = ReadWriteLock()
        # Taken after _mutate, never before it.
        self._snapshotting = threading.Lock()
        # Why mutations are refused, once a journal write failed or the
        # engine was closed.
        self._failed: str | None = None

    @property
    def encoder(self) -> Encoder:
        return self._encoder

    @property
    def journal(self) -> Any:
        return self._journal

    def __len__(self) -> int:
        return len(self._state.notes)

    def __contains__(self, note_id: str) -> bool:
        return note_id in self._state.notes

    def iter_notes(self) -> Iterator[MemoryNote]:
        """Notes in ascending id order, from one consistent snapshot."""
        notes = self._state.notes
        for note_id in sorted(notes):
            yield notes[note_id]

    def get_note(self, note_id: NoteId) -> MemoryNote:
        note = self._state.notes.get(note_id)
        if note is None:
            raise UnknownId(f"no note with id {note_id}")
        return note

    # -- mutation pipeline --------------------------------------------------

    @contextmanager
    def _writing(self) -> Iterator[None]:
        """Hold the writer lock; refuse once a journal write failed or the
        engine was closed."""
        with self._mutate:
            if self._failed is not None:
                raise EngineFailed(self._failed)
            yield

    @contextmanager
    def _fail_stop(self) -> Iterator[None]:
        """Fail the engine if the journal write inside raises: the journal may
        end in torn or unsynced bytes, or hold events memory lacks."""
        try:
            yield
        except BaseException as exc:
            self._failed = f"a journal write failed ({exc!r}); reopen the store"
            raise

    def add_memory(self, content: str, timestamp: str | None = None) -> NoteId:
        """Construct, link, and evolve one new memory. Returns its id.

        Gateway calls run first; then the note and every change its
        evolution makes are committed together, so a backend or journal
        failure leaves the store untouched. The neighbor query runs against
        the store as it was before this note, which is exactly a
        self-excluding top-k over the store with the note inserted.
        """
        if not isinstance(content, str) or not content.strip():
            raise EmptyContent("note content is empty or whitespace-only")
        ts = validate_timestamp(timestamp) if timestamp is not None else now_timestamp()
        with self._writing():
            notes = self._state.notes
            attrs = self._gateway.generate_note_attributes(content, ts)
            keywords = normalize_terms(attrs.keywords)
            tags = normalize_terms(attrs.tags)
            context = attrs.context
            text = compose_note_text(content, keywords, tags, context)
            note = MemoryNote(
                id=self._ids.fresh(notes.keys()),
                content=content,
                timestamp=ts,
                keywords=keywords,
                tags=tags,
                context=context,
                embedding=self._encoder.encode(text),
            )

            changes = [note]
            if self.config.enable_link_generation and notes:
                # Only a writer changes the index, and this thread is the
                # writer, so the scan needs no view lock.
                ranked = self._index.top_k(note.embedding, self.config.k_link)
                neighbors = [notes[nid] for nid, _ in ranked]
                opinion = self._gateway.opine_links(note, neighbors)
                if opinion.should_evolve:
                    directive = self._gateway.propose_evolution(note, neighbors)
                    if not self.config.enable_evolution:
                        directive = directive.without_rewrites()
                    changes += _evolve(note, neighbors, directive)
            self._commit(changes)
            return note.id

    def _commit(self, changes: Sequence[MemoryNote]) -> None:
        """Journal one change, then publish it. Called with the writer lock.

        changes lists notes in event order, each applied on top of the ones
        before it and classified once against its id's latest note:
        an insert, new context, tags or keywords (re-encoded, note_evolved,
        index update), or else a links delta. Re-encoding comes first, so a
        backend failure leaves the store and engine as they were. The events
        are synced before anything is published (the write-ahead rule); then
        the index is changed and the notes and last_seq are published at once.
        """
        before = self._state.notes
        latest: dict[NoteId, MemoryNote] = {}
        steps: list[tuple[str, MemoryNote, MemoryNote | None]] = []
        for note in changes:
            old = latest.get(note.id, before.get(note.id))
            if old is None:
                kind = "note_added"
            elif (note.context, note.tags, note.keywords) != (old.context, old.tags, old.keywords):
                kind = "note_evolved"
                note = replace(note, embedding=self._encoder.encode(note_text(note)))
            else:
                kind = "links_changed"
            latest[note.id] = note
            steps.append((kind, note, old))

        journal = self._journal
        with self._fail_stop():
            if journal is not None:
                for kind, note, old in steps:
                    if kind == "note_added":
                        journal.note_added(note)
                    elif kind == "note_evolved":
                        journal.note_evolved(note)
                    else:
                        journal.links_changed(
                            note.id, note.links - old.links, old.links - note.links
                        )
                journal.sync()
            notes = {**before, **latest}
            with self._view.write():
                for kind, note, _ in steps:
                    if kind == "note_added":
                        self._index.insert(note.id, note.embedding)
                    elif kind == "note_evolved":
                        self._index.update(note.id, note.embedding)
                last_seq = journal.last_seq if journal is not None else self._state.last_seq
                self._state = _State(notes, last_seq)

    # -- reads ---------------------------------------------------------------

    def retrieve(
        self, query: str, k: int | None = None, category: str | None = None
    ) -> list[RetrievedMemory]:
        """Top-k most relevant notes for a raw text query.

        With link expansion enabled, linked notes of the ranked hits are
        appended after the ranked block, deduplicated, in ascending id
        order, flagged as expansion results.
        """
        if not isinstance(query, str) or not query.strip():
            raise EmptyQuery("query is empty or whitespace-only")
        if k is None:
            k = self.config.k_for(category)
        if not _is_count(k):
            raise ValueError("k must be >= 1")
        query_vec = self._encoder.encode(query)
        # The lock is kept because VectorIndex.update overwrites rows in
        # place; a copy-on-write matrix would cost O(n*d) per evolution.
        # The notes are read under it too, so they match the ranked ids.
        with self._view.read():
            ranked = self._index.top_k(query_vec, k)
            notes = self._state.notes
        results = [RetrievedMemory(notes[nid], score) for nid, score in ranked]
        if self.config.enable_link_expansion:
            seen = {nid for nid, _ in ranked}
            linked = sorted(
                {lid for hit in results for lid in hit.note.links if lid not in seen}
            )
            results.extend(
                RetrievedMemory(notes[lid], cosine(query_vec, notes[lid].embedding), expanded=True)
                for lid in linked
            )
        return results

    # -- integrity -----------------------------------------------------------

    def audit(
        self,
        verify_embeddings: bool | None = None,
        check_symmetry: bool = True,
    ) -> list[str]:
        """Check store invariants; returns human-readable problem strings.

        Embedding verification defaults to on under a deterministic encoder.
        Symmetry checking is optional because a journal prefix recovered
        after a crash may legitimately hold a half-linked pair.
        """
        verify = self._encoder.deterministic if verify_embeddings is None else verify_embeddings
        problems: list[str] = []
        with self._view.read():
            notes = self._state.notes
            index_ids = set(self._index.ids())
        note_ids = set(notes)
        for missing in sorted(note_ids - index_ids):
            problems.append(f"note {missing} missing from index")
        for missing in sorted(index_ids - note_ids):
            problems.append(f"index id {missing} has no note")
        problems.extend(_note_problems(notes, self._encoder if verify else None, check_symmetry))
        return problems

    # -- wiring used by persistence and tools ---------------------------------

    def adopt_state(self, notes: Mapping[NoteId, MemoryNote], last_seq: int = 0) -> None:
        """Install a loaded note set wholesale, with the last journal
        sequence number it includes. Only for empty engines."""
        with self._writing():
            if self._state.notes:
                raise RuntimeError("adopt_state requires an empty engine")
            ordered = sorted(notes)
            with self._view.write():
                if ordered:
                    matrix = np.stack([notes[nid].embedding for nid in ordered])
                    self._index.bulk_load(ordered, matrix)
                self._state = _State({nid: notes[nid] for nid in ordered}, last_seq)

    def state_snapshot(self) -> tuple[dict[NoteId, MemoryNote], int]:
        """Current notes map plus the last journaled sequence number it holds.

        Both come from one published state. Commits publish a new dict, so
        holding this one is safe.
        """
        return self._state

    def snapshot(
        self, write: Callable[[dict[NoteId, MemoryNote], int], None], compact: bool
    ) -> None:
        """Pass the current notes and last_seq to write, one snapshot at a
        time. With compact, hold the writer lock too and then empty the
        journal, so no commit lands between the saved state and the cut. A
        failed cut fails the engine as a failed commit does."""
        with self._writing() if compact else nullcontext(), self._snapshotting:
            write(*self._state)
            if compact and self._journal is not None:
                with self._fail_stop():
                    self._journal.truncate()

    def close(self) -> None:
        """Close the journal. Later mutations raise EngineFailed; reads go on."""
        with self._mutate:
            self._failed = self._failed or "the engine was closed; reopen the store"
            if self._journal is not None:
                self._journal.close()
                self._journal = None
