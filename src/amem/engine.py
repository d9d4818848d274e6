"""Memory engine: note construction, autonomous linking, evolution, retrieval.

Adding a memory runs the full pipeline. The gateway analyzes the content
into keywords, context, and tags; the enriched note text is embedded and
the note staged for insertion. If the store already holds notes, the
nearest neighbors by cosine similarity are fetched and the gateway is asked
whether the new memory should evolve; an affirmative opinion yields a
concrete directive that links the new note to chosen neighbors (both
directions), extends the new note's tags, and may rewrite neighbor context
or tags. Evolution turns the directive into one Change, each changed note
built once; a rewritten note carries its re-encoded embedding, so every
stored embedding matches its note text. The commit only journals, syncs
and publishes the Change, whole.

Backend calls and re-encodes happen strictly before anything is written,
so a backend failure leaves the store exactly as it was.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field, fields
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
    revise,
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
    # Out of the hash, which a read-only mapping cannot give; still compared.
    k_by_category: Mapping[str, int] = field(default_factory=dict, hash=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "k_by_category", MappingProxyType(dict(self.k_by_category)))
        if not _is_count(self.k_link):
            raise ValueError("k_link must be an integer >= 1")
        if not _is_count(self.k_retrieve):
            raise ValueError("k_retrieve must be an integer >= 1")
        for category, value in self.k_by_category.items():
            if not isinstance(category, str):
                raise ValueError(f"category {category!r} must be text")
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


class Change(NamedTuple):
    """One add, as the journal writes it in one line and the commit
    publishes it at once: added, the new note as the change leaves it;
    rewritten, the neighbors whose context or tags changed, re-encoded;
    relinked, those whose links alone changed; both in rank order. The
    backlink rule, which _replay_change applies to records too: relinked is
    exactly the notes added links to less those in rewritten, and each note
    added links to has added.id among its links."""

    added: MemoryNote
    rewritten: tuple[MemoryNote, ...] = ()
    relinked: tuple[MemoryNote, ...] = ()


def _evolve(
    new_note: MemoryNote,
    neighbors: Sequence[MemoryNote],
    directive: EvolutionDirective,
    encoder: Encoder,
    rewrite_neighbors: bool,
) -> Change:
    """The change that adds new_note under a directive. Here alone a
    directive meets the neighbors: connections outside them and entries
    past them are ignored, and without rewrite_neighbors (evolution off) no
    context or tags are rewritten. relinked follows from added's links by
    the backlink rule. Each changed note is built once, by revise, with its
    final fields and, if its text changed, its embedding from one
    encode_many. revise checks only what changed, so a relinked note keeps
    its embedding and checks one new link, however many it has."""
    if not directive.should_evolve:
        return Change(new_note)

    suggested = set(directive.suggested_connections)
    contexts = directive.new_context_neighborhood if rewrite_neighbors else ()
    tag_lists = directive.new_tags_neighborhood if rewrite_neighbors else ()
    # Stored tags hold no duplicates, so this appends only unseen terms.
    new_tags = tuple(dict.fromkeys(new_note.tags + normalize_terms(directive.tags_to_update)))
    rewrites = [(new_note, {"tags": new_tags})] if new_tags != new_note.tags else []
    for position, neighbor in enumerate(neighbors):
        update: dict[str, Any] = {}
        # Blank or missing entries mean "leave this neighbor alone".
        new_context = contexts[position].strip() if position < len(contexts) else ""
        rewrite_tags = normalize_terms(tag_lists[position] if position < len(tag_lists) else ())
        if new_context and new_context != neighbor.context:
            update["context"] = new_context
        if rewrite_tags and rewrite_tags != neighbor.tags:
            update["tags"] = rewrite_tags
        if update:
            rewrites.append((neighbor, update))
    texts = [
        compose_note_text(n.content, n.keywords, u.get("tags", n.tags), u.get("context", n.context))
        for n, u in rewrites
    ]
    for (_, update), vector in zip(rewrites, encoder.encode_many(texts) if texts else ()):
        update["embedding"] = vector
    updates = {note.id: update for note, update in rewrites}

    links = new_note.links.union(n.id for n in neighbors if n.id in suggested)
    added = revise(new_note, links=links, **updates.pop(new_note.id, {}))

    def finished(note: MemoryNote, update: dict[str, Any]) -> MemoryNote:
        if note.id in links:
            update["links"] = note.links | {added.id}
        return revise(note, **update)

    relinked = links.difference(updates)
    return Change(
        added,
        tuple(finished(n, updates[n.id]) for n in neighbors if n.id in updates),
        tuple(finished(n, {}) for n in neighbors if n.id in relinked),
    )


# Notes per call of a whole-store pass (audit's and load_store's encodes,
# write_snapshot's writes); bounds the pass's memory however large the store.
_PASS_CHUNK = 256


def _note_problems(
    notes: Mapping[NoteId, MemoryNote], encoder: Encoder | None, check_symmetry: bool
) -> Iterator[str]:
    """The note checks of audit, in id order: dangling links, optionally
    missing backlinks, and, given an encoder, stale embeddings. One
    encode_many per chunk of notes."""
    ordered = sorted(notes)
    for start in range(0, len(ordered), _PASS_CHUNK):
        chunk = ordered[start:start + _PASS_CHUNK]
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


class MemoryEngine:
    """Owns the note store and wires encoder, index, gateway, and journal.

    The store is one notes dict, its last journaled sequence number, and the
    index. Only _commit and adopt_state change them, holding the writer lock
    (_mutate) and the view lock for writing. Every other read holds the view
    lock for reading, except the writer's own reads in add_memory, _decide,
    _commit and adopt_state, which no other thread can race. The view lock is not
    re-entrant and a waiting writer blocks new readers, so no method holding
    it calls another that takes it, and iter_notes holds no lock between
    yields. snapshot writes one snapshot at a time. After a failed journal
    write or close() the engine refuses mutations (EngineFailed), giving the
    first reason; reads go on.
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
        self._notes: dict[NoteId, MemoryNote] = {}
        self._last_seq = journal.last_seq if journal is not None else 0
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
        with self._view.read():
            return len(self._notes)

    def __contains__(self, note_id: str) -> bool:
        with self._view.read():
            return note_id in self._notes

    def iter_notes(self) -> Iterator[MemoryNote]:
        """Notes in ascending id order, from one state_snapshot; no lock between yields."""
        notes, _ = self.state_snapshot()
        for note_id in sorted(notes):
            yield notes[note_id]

    def get_note(self, note_id: NoteId) -> MemoryNote:
        with self._view.read():
            note = self._notes.get(note_id)
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
        end in torn or unsynced bytes, or hold a change memory lacks."""
        try:
            yield
        except BaseException as exc:
            self._failed = f"a journal write failed ({exc!r}); reopen the store"
            raise

    def add_memory(self, content: str, timestamp: str | None = None) -> NoteId:
        """Construct, link, and evolve one new memory. Returns its id.

        The draft (s1 and the note's encode) reads no store state, and the
        id is drawn after it, so a failed draft draws none. _decide turns
        the note into its Change and _commit writes it whole, so a backend
        or journal failure leaves the store untouched.
        """
        if not isinstance(content, str) or not content.strip():
            raise EmptyContent("note content is empty or whitespace-only")
        ts = validate_timestamp(timestamp) if timestamp is not None else now_timestamp()
        with self._writing():
            attrs = self._gateway.generate_note_attributes(content, ts)
            keywords, tags = normalize_terms(attrs.keywords), normalize_terms(attrs.tags)
            text = compose_note_text(content, keywords, tags, attrs.context)
            embedding = self._encoder.encode(text)
            note = MemoryNote(
                id=self._ids.fresh(self._notes.keys()),
                content=content,
                timestamp=ts,
                keywords=keywords,
                tags=tags,
                context=attrs.context,
                embedding=embedding,
            )
            self._commit(self._decide(note))
            return note.id

    def _decide(self, note: MemoryNote) -> Change:
        """The Change adding note makes, as _evolve maps s3's directive to it;
        without one, note alone. The neighbors are ranked in the store as it
        was before this note, exactly a self-excluding top-k over the store
        with the note inserted. A writer's read: it changes nothing."""
        notes = self._notes
        if not (self.config.enable_link_generation and notes):
            return Change(note)
        ranked = self._index.top_k(note.embedding, self.config.k_link)
        neighbors = [notes[nid] for nid, _ in ranked]
        if not self._gateway.opine_links(note, neighbors).should_evolve:
            return Change(note)
        directive = self._gateway.propose_evolution(note, neighbors)
        return _evolve(note, neighbors, directive, self._encoder, self.config.enable_evolution)

    def _commit(self, change: Change) -> None:
        """Journal and sync one change, then publish it (the write-ahead rule):
        under the view lock, the index (added's row inserted, each rewritten
        row updated), the notes and last_seq change at once. Called with the
        writer lock."""
        journal, (added, rewritten, relinked) = self._journal, change
        with self._fail_stop():
            if journal is not None:
                journal.write([change])
            with self._view.write():
                self._index.insert(added.id, added.embedding)
                for note in rewritten:
                    self._index.update(note.id, note.embedding)
                self._notes.update((note.id, note) for note in (added, *rewritten, *relinked))
                if journal is not None:
                    self._last_seq = journal.last_seq

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
        # The index and the notes change in place: rank, build the hits and
        # gather the linked notes in one view-lock section; cosines come after.
        with self._view.read():
            ranked = self._index.top_k(query_vec, k)
            notes = self._notes
            results = [RetrievedMemory(notes[nid], score) for nid, score in ranked]
            links: set[NoteId] = set()
            if self.config.enable_link_expansion:
                links = {lid for hit in results for lid in hit.note.links}
                links -= {nid for nid, _ in ranked}
            linked = [notes[lid] for lid in sorted(links)]
        results.extend(
            RetrievedMemory(note, cosine(query_vec, note.embedding), expanded=True)
            for note in linked
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
            notes = dict(self._notes)
            index_ids = set(self._index.ids())
        note_ids = set(notes)
        for missing in sorted(note_ids - index_ids):
            problems.append(f"note {missing} missing from index")
        for missing in sorted(index_ids - note_ids):
            problems.append(f"index id {missing} has no note")
        problems.extend(_note_problems(notes, self._encoder if verify else None, check_symmetry))
        return problems

    # -- wiring used by persistence and tools ---------------------------------

    def adopt_state(
        self,
        notes: Mapping[NoteId, MemoryNote],
        last_seq: int = 0,
        embeddings: np.ndarray | None = None,
    ) -> None:
        """Install a loaded note set wholesale, with the last journal
        sequence number it includes. Only for empty engines: a non-empty
        one raises RuntimeError before the index is touched, and the
        index's bulk_load fills only an empty index.

        embeddings, when given, is the read-only matrix of the notes'
        embeddings in id order that load_store builds, whose rows the notes
        view; the index adopts it with no copy, and copies it only before
        its first write into it. Without it the index stacks the notes'
        embeddings, in id order, straight into its own buffer, sized as
        inserts grow it, so each embedding is copied once and the inserts
        that follow do not copy the matrix again."""
        with self._writing():
            if self._notes:
                raise RuntimeError("adopt_state requires an empty engine")
            ordered = sorted(notes)
            with self._view.write():
                if ordered:
                    if embeddings is None:
                        embeddings = [notes[nid].embedding for nid in ordered]
                    self._index.bulk_load(ordered, embeddings)
                self._notes = {nid: notes[nid] for nid in ordered}
                self._last_seq = last_seq

    def state_snapshot(self) -> tuple[dict[NoteId, MemoryNote], int]:
        """A copy of the notes map, the caller's own, and its last_seq, from one read."""
        with self._view.read():
            return dict(self._notes), self._last_seq

    def snapshot(
        self, write: Callable[[dict[NoteId, MemoryNote], int], None], compact: bool
    ) -> None:
        """Pass the current notes and last_seq to write, one snapshot at a
        time. With compact, hold the writer lock too and then empty the
        journal, so no commit lands between the saved state and the cut. A
        failed cut fails the engine as a failed commit does."""
        with self._writing() if compact else nullcontext(), self._snapshotting:
            write(*self.state_snapshot())
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
