"""Engine tests: the insert pipeline, evolution, retrieval, and audits.

Everything runs against the deterministic mock backend and hash encoder,
so expected keywords, links, and rewrites can be stated exactly. Contents
are chosen so the mock keyword rule (top three non-stopword tokens by
frequency, alphabetical on ties) yields known keyword sets.
"""

import json
import os
import random
from collections import Counter
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from amem.embedding import HashEncoder, basis_vector
from amem.engine import EngineConfig, MemoryEngine, RetrievedMemory, _evolve
from amem.errors import (
    BackendUnavailable,
    EmptyContent,
    EmptyQuery,
    InvalidTimestamp,
    SchemaViolation,
)
from amem import gateway as gateway_module
from amem import notes as notes_module
from amem.gateway import EvolutionDirective, LinkOpinion, LlmGateway, MockBackend
from amem.index import cosine
from amem.notes import IdGenerator, MemoryNote, canonical_json, compose_note_text, note_text
from amem.persistence import Journal, read_journal
from oracles import full_sort_top_k

# keyword sets under the mock rule:
#   A -> camera, photography, tripod
#   B -> camera, darkroom, photography   (shares 2 with A: rewrite)
#   C -> aperture, camera, lens          (shares 1 with A: strengthen only)
#   D -> lentil, recipe, soup            (shares 0 with A)
CONTENT_A = "photography camera tripod photography camera"
CONTENT_B = "photography camera darkroom darkroom photography camera"
CONTENT_C = "camera lens aperture aperture lens camera"
CONTENT_D = "soup recipe lentil soup recipe"

TS = ["2023-06-01T00:%02d:00Z" % i for i in range(60)]


def fresh_engine(config=None, dimension=48, journal=None, backend=None):
    gateway = LlmGateway(backend) if backend is not None else LlmGateway()
    return MemoryEngine(
        HashEncoder(dimension=dimension, seed=0),
        gateway=gateway,
        config=config,
        journal=journal,
        id_seed=99,
    )


@pytest.fixture
def journal(tmp_path):
    """A journal at tmp_path / "j.jsonl", closed after the test."""
    with Journal(tmp_path / "j.jsonl") as handle:
        yield handle


class RecordingBackend:
    """Delegates to the mock backend and keeps the task call log."""

    name = "recording"

    def __init__(self, fail_task=None, error=None):
        self.inner = MockBackend()
        self.calls = []
        self.fail_task = fail_task
        self.error = error

    def complete(self, task, payload):
        self.calls.append(task)
        if task == self.fail_task:
            if self.error is not None:
                raise self.error
            return {"garbage": True}
        return self.inner.complete(task, payload)


# ---------------------------------------------------------------------------
# config


def test_config_defaults_and_guards():
    config = EngineConfig()
    assert config.k_link == 10 and config.k_retrieve == 10
    assert config.enable_link_generation and config.enable_evolution
    assert not config.enable_link_expansion
    with pytest.raises(ValueError):
        EngineConfig(k_link=0)
    with pytest.raises(ValueError):
        EngineConfig(k_retrieve=-1)
    with pytest.raises(ValueError):
        EngineConfig(k_retrieve=True)
    with pytest.raises(ValueError):
        EngineConfig(k_by_category={"chat": 0})


@pytest.mark.parametrize("k_by_category", [{1: 5, "a": 3}, {1: 5}])
def test_config_refuses_category_names_that_are_not_text(k_by_category):
    # {1: 5} would snapshot as "1" and reload as another config; a mix of
    # keys would not sort in to_mapping.
    with pytest.raises(ValueError, match="must be text"):
        EngineConfig(k_by_category=k_by_category)


def test_config_k_for_category():
    config = EngineConfig(k_retrieve=7, k_by_category={"qa": 3})
    assert config.k_for() == 7
    assert config.k_for("qa") == 3
    assert config.k_for("other") == 7


def test_config_hashes_and_compares_its_category_ks():
    config = EngineConfig(k_link=4, k_by_category={"qa": 3})
    same = EngineConfig(k_link=4, k_by_category={"qa": 3})
    assert hash(config) == hash(same)
    assert len({config, same, EngineConfig()}) == 2
    assert config != EngineConfig(k_link=4, k_by_category={"qa": 2})
    assert config != EngineConfig(k_link=4)


def test_config_mapping_round_trip():
    config = EngineConfig(
        k_link=4, enable_evolution=False, k_by_category={"b": 2, "a": 5}
    )
    data = config.to_mapping()
    assert list(data["k_by_category"]) == ["a", "b"]
    assert EngineConfig.from_mapping(data) == config
    assert EngineConfig.from_mapping({"k_link": 3}).k_retrieve == 10
    with pytest.raises(ValueError):
        EngineConfig.from_mapping({"k_link": 3, "mystery": 1})


# ---------------------------------------------------------------------------
# insert pipeline


def test_first_note_is_complete_and_unlinked():
    engine = fresh_engine()
    note_id = engine.add_memory(CONTENT_A, TS[0])
    note = engine.get_note(note_id)
    assert note.content == CONTENT_A
    assert note.timestamp == TS[0]
    assert note.keywords == ("camera", "photography", "tripod")
    assert note.tags == ("topic:camera", "topic:photography", "topic:tripod")
    assert note.context == "Discusses camera and related topics."
    assert note.links == frozenset()
    assert np.array_equal(note.embedding, engine.encoder.encode(note_text(note)))
    assert len(engine) == 1 and note_id in engine



def test_mock_adds_render_no_prompt(monkeypatch):
    # Only a remote backend needs a prompt; the mock reads the payload.
    def refuse(template_id, slots):
        raise AssertionError(f"rendered {template_id} for the mock backend")

    monkeypatch.setattr(gateway_module, "render_prompt", refuse)
    engine = fresh_engine()
    id_a = engine.add_memory(CONTENT_A, TS[0])
    id_b = engine.add_memory(CONTENT_B, TS[1])
    assert engine.get_note(id_a).links == frozenset({id_b})
    assert engine.get_note(id_a).context != "Discusses camera and related topics."

def test_insert_guards():
    engine = fresh_engine()
    with pytest.raises(EmptyContent):
        engine.add_memory("   ")
    with pytest.raises(InvalidTimestamp):
        engine.add_memory("hello world", "June 1st")
    assert len(engine) == 0


def test_two_shared_keywords_link_and_rewrite_neighbor():
    engine = fresh_engine()
    id_a = engine.add_memory(CONTENT_A, TS[0])
    before = engine.get_note(id_a)
    id_b = engine.add_memory(CONTENT_B, TS[1])
    after = engine.get_note(id_a)
    note_b = engine.get_note(id_b)

    # bidirectional link
    assert note_b.links == frozenset({id_a})
    assert after.links == frozenset({id_b})
    # the neighbor was rewritten in place: same id, fresh context
    assert after.context == "Expands on camera and photography with newer material."
    assert after.content == before.content
    assert after.timestamp == before.timestamp
    assert after.keywords == before.keywords
    assert after.tags == before.tags
    # and re-encoded to match its new enriched text, bitwise
    assert not np.array_equal(after.embedding, before.embedding)
    assert np.array_equal(after.embedding, engine.encoder.encode(note_text(after)))
    assert engine.audit() == []


def test_one_shared_keyword_strengthens_without_rewrite():
    engine = fresh_engine()
    id_a = engine.add_memory(CONTENT_A, TS[0])
    before = engine.get_note(id_a)
    id_c = engine.add_memory(CONTENT_C, TS[1])
    after = engine.get_note(id_a)

    assert after.links == frozenset({id_c})
    assert engine.get_note(id_c).links == frozenset({id_a})
    assert after.context == before.context
    assert after.tags == before.tags
    assert np.array_equal(after.embedding, before.embedding)
    assert engine.audit() == []


def test_unrelated_notes_stay_unlinked():
    engine = fresh_engine()
    id_a = engine.add_memory(CONTENT_A, TS[0])
    id_d = engine.add_memory(CONTENT_D, TS[1])
    assert engine.get_note(id_a).links == frozenset()
    assert engine.get_note(id_d).links == frozenset()


def test_insert_is_deterministic_across_engines():
    def run():
        engine = fresh_engine()
        for i, content in enumerate((CONTENT_A, CONTENT_B, CONTENT_C, CONTENT_D)):
            engine.add_memory(content, TS[i])
        return [canonical_json(note) for note in engine.iter_notes()]

    assert run() == run()


# ---------------------------------------------------------------------------
# atomicity: a backend failure mid-pipeline must leave the store untouched


def snapshot_bytes(engine):
    return "\n".join(canonical_json(note) for note in engine.iter_notes())


def test_backend_outage_during_linking_leaves_store_untouched(tmp_path, journal):
    backend = RecordingBackend(fail_task="link_opinion", error=BackendUnavailable("down"))
    engine = fresh_engine(journal=journal, backend=backend)
    engine.add_memory(CONTENT_A, TS[0])
    before_state = snapshot_bytes(engine)
    before_journal = (tmp_path / "j.jsonl").read_bytes()

    with pytest.raises(BackendUnavailable):
        engine.add_memory(CONTENT_B, TS[1])

    assert snapshot_bytes(engine) == before_state
    assert (tmp_path / "j.jsonl").read_bytes() == before_journal
    assert len(engine) == 1


def test_schema_failure_during_evolution_leaves_store_untouched(tmp_path, journal):
    # evolution has no mock fallback, so persistent garbage becomes an error
    backend = RecordingBackend(fail_task="evolution_directive")
    engine = fresh_engine(journal=journal, backend=backend)
    engine.add_memory(CONTENT_A, TS[0])
    before_state = snapshot_bytes(engine)
    before_journal = (tmp_path / "j.jsonl").read_bytes()

    with pytest.raises(SchemaViolation):
        engine.add_memory(CONTENT_B, TS[1])

    assert snapshot_bytes(engine) == before_state
    assert (tmp_path / "j.jsonl").read_bytes() == before_journal
    assert backend.calls.count("evolution_directive") == 3


def test_a_keyword_with_a_lone_surrogate_falls_back_to_the_mock(tmp_path, journal):
    # JSON allows "\ud800"; no note may hold it, so the answer is a
    # schema violation, retried and then replaced by the mock's.
    class SurrogateBackend(RecordingBackend):
        def complete(self, task, payload):
            answer = super().complete(task, payload)
            if task == "note_attributes":
                answer = {**answer, "keywords": ["alpha\ud800", *answer["keywords"][1:]]}
            return answer

    backend = SurrogateBackend()
    engine = fresh_engine(journal=journal, backend=backend)
    note_id = engine.add_memory(CONTENT_A, TS[0])
    assert backend.calls == ["note_attributes"] * 3
    assert engine.get_note(note_id).keywords == ("camera", "photography", "tripod")
    assert record_ids(parsed_changes(tmp_path / "j.jsonl")) == [[note_id]]
    assert engine.audit() == []


def test_a_rewritten_context_with_a_lone_surrogate_leaves_store_untouched(tmp_path, journal):
    backend = FixedDirectiveBackend()
    engine = fresh_engine(journal=journal, backend=backend)
    engine.add_memory(CONTENT_A, TS[0])
    before_state = snapshot_bytes(engine)
    before_journal = (tmp_path / "j.jsonl").read_bytes()
    backend.directive = fixed_directive(contexts=["Rewritten \ud800 beside a soup recipe."])

    with pytest.raises(SchemaViolation, match="lone surrogate"):
        engine.add_memory(CONTENT_D, TS[1])

    assert snapshot_bytes(engine) == before_state
    assert (tmp_path / "j.jsonl").read_bytes() == before_journal
    assert backend.calls.count("evolution_directive") == 3


# ---------------------------------------------------------------------------
# journal event stream


def parsed_changes(path):
    """Each journal line's change: its note records, the new note's first."""
    events, truncated = read_journal(path)
    assert truncated is None
    assert all(e.kind == "note_added" for e in events)
    return [json.loads(e.payload_json)[1:] for e in events]


def record_ids(changes):
    return [[record["id"] for record in change] for change in changes]


def test_journal_event_order_for_a_rewriting_insert(tmp_path, journal):
    engine = fresh_engine(journal=journal)
    id_a = engine.add_memory(CONTENT_A, TS[0])
    id_b = engine.add_memory(CONTENT_B, TS[1])

    changes = parsed_changes(tmp_path / "j.jsonl")
    # one line per add: the new note, then the neighbor it rewrote
    assert record_ids(changes) == [[id_a], [id_b, id_a]]
    # the new note's record is the note as the change left it, links
    # included; the neighbor's is the delta of what evolution rewrote
    assert changes[1][0]["links"] == [id_a]
    assert set(changes[1][1]) == {"id", "tags", "context", "embedding"}
    assert changes[1][1]["context"] == (
        "Expands on camera and photography with newer material."
    )
    assert engine.get_note(id_a).links == frozenset({id_b})


def test_an_evolving_add_syncs_once(tmp_path, monkeypatch):
    path = tmp_path / "j.jsonl"
    # Each fsync, as whether it was of the journal file (else its directory).
    syncs = []
    real_fsync = os.fsync

    def recording_fsync(fd):
        syncs.append(os.path.samestat(os.fstat(fd), os.stat(path)))
        real_fsync(fd)

    with Journal(path) as journal:
        monkeypatch.setattr(os, "fsync", recording_fsync)
        engine = fresh_engine(journal=journal)
        engine.add_memory(CONTENT_A, TS[0])
        # the first write also syncs the directory, once
        assert syncs == [True, False]
        engine.add_memory(CONTENT_B, TS[1])
        # B was inserted, linked and rewrote A: one change, one line, one sync
        assert journal.last_seq == 2
        assert syncs == [True, False, True]


def test_journal_prefix_never_dangles(tmp_path, journal):
    # every change references only its own new note and notes added before
    engine = fresh_engine(journal=journal)
    for i, content in enumerate((CONTENT_A, CONTENT_B, CONTENT_C, CONTENT_D)):
        engine.add_memory(content, TS[i])

    seen = set()
    for added, *evolved in parsed_changes(tmp_path / "j.jsonl"):
        assert added["id"] not in seen
        seen.add(added["id"])
        assert set(added["links"]) <= seen
        for record in evolved:
            assert record["id"] in seen
            assert "links" not in record


# ---------------------------------------------------------------------------
# fixed directives through add_memory, the one way into evolution


class FixedDirectiveBackend(RecordingBackend):
    """The mock backend, except that s2 always says evolve and s3 answers
    self.directive, a raw response set once the neighbor ids are known."""

    def __init__(self):
        super().__init__()
        self.directive = None

    def complete(self, task, payload):
        if task == "link_opinion":
            self.calls.append(task)
            return {"should_evolve": True, "rationale": "fixed"}
        if task == "evolution_directive":
            self.calls.append(task)
            return self.directive
        return super().complete(task, payload)


def fixed_directive(connections=(), tags=(), contexts=(), tag_lists=()):
    return {
        "should_evolve": True,
        "actions": ["strengthen"],
        "suggested_connections": list(connections),
        "tags_to_update": list(tags),
        "new_context_neighborhood": list(contexts),
        "new_tags_neighborhood": [list(t) for t in tag_lists],
    }


def test_evolution_extends_the_new_notes_tags(tmp_path, journal):
    backend = FixedDirectiveBackend()
    engine = fresh_engine(journal=journal, backend=backend)
    id_a = engine.add_memory(CONTENT_A, TS[0])
    backend.directive = fixed_directive(connections=[id_a], tags=["topic:gear", "topic:soup"])
    id_d = engine.add_memory(CONTENT_D, TS[1])

    note_d = engine.get_note(id_d)
    assert note_d.links == frozenset({id_a})
    assert engine.get_note(id_a).links == frozenset({id_d})
    # topic:soup is already present, so only topic:gear is appended
    assert note_d.tags == ("topic:recipe", "topic:soup", "topic:lentil", "topic:gear")
    # the tag change feeds the enriched text, so the embedding moved with it
    assert np.array_equal(note_d.embedding, engine.encoder.encode(note_text(note_d)))
    # D is written once, with its links and tags; A, linked only, not at all
    changes = parsed_changes(tmp_path / "j.jsonl")[1:]
    assert record_ids(changes) == [[id_d]]
    assert changes[0][0]["links"] == [id_a]
    assert changes[0][0]["tags"] == list(note_d.tags)
    assert engine.audit() == []


EVOLVE_ENCODER = HashEncoder(dimension=48, seed=0)


def evolve_note(ids, word, links=()):
    content, keywords, tags, context = f"{word} note body", (word,), (f"topic:{word}",), f"On {word}."
    return MemoryNote(
        id=ids.fresh(),
        content=content,
        timestamp=TS[0],
        keywords=keywords,
        tags=tags,
        context=context,
        links=frozenset(links),
        embedding=EVOLVE_ENCODER.encode(compose_note_text(content, keywords, tags, context)),
    )


@st.composite
def evolutions(draw):
    """A new note, its ranked neighbors (some with links of their own), an
    s3 directive naming neighbors and other ids, and the evolution switch."""
    ids = IdGenerator(seed=draw(st.integers(0, 2**16)))
    outside = ids.fresh()
    count = draw(st.integers(1, 5))
    neighbors = [
        evolve_note(ids, f"n{i}", links=draw(st.sampled_from([(), (outside,)])))
        for i in range(count)
    ]
    new_note = evolve_note(ids, "fresh")
    named = [note.id for note in neighbors] + [outside, new_note.id, ids.fresh()]
    context = st.sampled_from(["", "  ", "On n0.", "A rewritten context."])
    tags = st.lists(st.sampled_from(["", " ", "topic:n0", "Rewritten", "extra"]), max_size=3)
    directive = EvolutionDirective(
        should_evolve=draw(st.booleans()),
        suggested_connections=tuple(draw(st.lists(st.sampled_from(named), max_size=6))),
        tags_to_update=tuple(draw(tags)),
        new_context_neighborhood=tuple(draw(st.lists(context, max_size=count + 1))),
        new_tags_neighborhood=tuple(map(tuple, draw(st.lists(tags, max_size=count + 1)))),
    )
    return new_note, neighbors, directive, draw(st.booleans())


@settings(max_examples=150, deadline=None)
@given(evolutions())
def test_an_evolved_change_follows_the_one_backlink_rule(case):
    new_note, neighbors, directive, rewrite_neighbors = case
    added, rewritten, relinked = _evolve(
        new_note, neighbors, directive, EVOLVE_ENCODER, rewrite_neighbors
    )
    before = {note.id: note for note in neighbors}
    rewritten_ids = [note.id for note in rewritten]
    relinked_ids = [note.id for note in relinked]
    every = [added.id, *rewritten_ids, *relinked_ids]
    assert len(set(every)) == len(every)
    assert set(relinked_ids) == added.links - set(rewritten_ids)
    assert added.links <= before.keys()
    for note in (*rewritten, *relinked):
        backlink = {added.id} if note.id in added.links else set()
        assert note.links == before[note.id].links | backlink
    for note in relinked:
        assert note.embedding is before[note.id].embedding
    for note in (added, *rewritten):
        assert np.array_equal(note.embedding, EVOLVE_ENCODER.encode(note_text(note)))
    # a rewritten neighbor's text changed; none changes with evolution off
    for note in rewritten:
        assert note_text(note) != note_text(before[note.id])
    if not rewrite_neighbors:
        assert rewritten == ()


def test_a_linked_and_rewritten_neighbor_is_one_evolved_event(tmp_path, journal):
    backend = FixedDirectiveBackend()
    engine = fresh_engine(journal=journal, backend=backend)
    id_a = engine.add_memory(CONTENT_A, TS[0])
    backend.directive = fixed_directive(
        connections=[id_a], contexts=["Rewritten beside a soup recipe."]
    )
    id_d = engine.add_memory(CONTENT_D, TS[1])

    changes = parsed_changes(tmp_path / "j.jsonl")[1:]
    assert record_ids(changes) == [[id_d, id_a]]
    rewritten = changes[0][1]
    # its backlink is implied by D's record, so the delta carries no links
    assert "links" not in rewritten
    assert rewritten["context"] == "Rewritten beside a soup recipe."
    note_a = engine.get_note(id_a)
    assert note_a.links == frozenset({id_d})
    assert np.array_equal(note_a.embedding, engine.encoder.encode(note_text(note_a)))
    assert engine.audit() == []


class RankedDirectiveBackend(FixedDirectiveBackend):
    """s3 answers self.directive(ids), given the neighbor ids by rank."""

    def complete(self, task, payload):
        if task == "evolution_directive":
            self.calls.append(task)
            return self.directive([note.id for note in payload["neighbors"]])
        return super().complete(task, payload)


def test_an_evolving_add_builds_each_changed_note_once(tmp_path, journal, monkeypatch):
    backend = RankedDirectiveBackend()
    engine = fresh_engine(journal=journal, backend=backend)
    backend.directive = lambda ranked: fixed_directive()
    engine.add_memory(CONTENT_A, TS[0])
    engine.add_memory(CONTENT_C, TS[1])
    before = len(parsed_changes(tmp_path / "j.jsonl"))

    # A note is built by MemoryNote's constructor or, for a revision of a
    # checked note, by notes._assemble; count both.
    built = []
    post_init = MemoryNote.__post_init__
    assemble = notes_module._assemble

    def counting_post_init(note):
        built.append(note.id)
        post_init(note)

    def counting_assemble(note_id, *fields):
        built.append(note_id)
        return assemble(note_id, *fields)

    monkeypatch.setattr(MemoryNote, "__post_init__", counting_post_init)
    monkeypatch.setattr(notes_module, "_assemble", counting_assemble)
    shown = []

    def directive(ranked):
        shown.extend(ranked)
        # rewrite the first neighbor; link the second without rewriting it
        return fixed_directive(connections=ranked[1:], contexts=["Rewritten beside a soup."])

    backend.directive = directive
    id_d = engine.add_memory(CONTENT_D, TS[2])

    # the new note is built, then rebuilt with its links; each neighbor once
    assert Counter(built) == Counter({id_d: 2, shown[0]: 1, shown[1]: 1})
    # the links-only neighbor is not written: its backlink is implied
    assert record_ids(parsed_changes(tmp_path / "j.jsonl")[before:]) == [[id_d, shown[0]]]
    assert engine.get_note(shown[1]).links == frozenset({id_d})
    rewritten = engine.get_note(shown[0])
    assert rewritten.context == "Rewritten beside a soup."
    assert np.array_equal(rewritten.embedding, engine.encoder.encode(note_text(rewritten)))
    assert engine.audit() == []


def test_a_links_only_change_keeps_its_notes_embedding(tmp_path, journal):
    backend = RankedDirectiveBackend()
    engine = fresh_engine(journal=journal, backend=backend)
    backend.directive = lambda ranked: fixed_directive()
    engine.add_memory(CONTENT_A, TS[0])
    engine.add_memory(CONTENT_C, TS[1])
    before = {note.id: note for note in engine.iter_notes()}
    backend.directive = lambda ranked: fixed_directive(connections=ranked)
    id_d = engine.add_memory(CONTENT_D, TS[2])

    for note_id, old in before.items():
        linked = engine.get_note(note_id)
        assert linked.links == old.links | {id_d}
        # the same read-only array, neither copied nor checked again
        assert linked.embedding is old.embedding
    assert engine.audit() == []


class CountingEncoder(HashEncoder):
    """A HashEncoder that logs each call as (method, text count), and can
    fail its batch calls with BackendUnavailable."""

    def __init__(self):
        super().__init__(dimension=48, seed=0)
        self.calls = []
        self.fail_batches = False

    def encode(self, text):
        self.calls.append(("encode", 1))
        return super().encode_many([text])[0]

    def encode_many(self, texts):
        self.calls.append(("encode_many", len(texts)))
        if self.fail_batches:
            raise BackendUnavailable("embedding service down")
        return super().encode_many(texts)


def test_an_add_re_encodes_its_rewritten_notes_in_one_call(tmp_path, journal):
    backend = FixedDirectiveBackend()
    encoder = CountingEncoder()
    engine = MemoryEngine(encoder, LlmGateway(backend), journal=journal, id_seed=99)
    ids = []
    for position, content in enumerate((CONTENT_A, CONTENT_B, CONTENT_C)):
        backend.directive = fixed_directive()
        ids.append(engine.add_memory(content, TS[position]))
    # every neighbor's context and the new note's tags change
    backend.directive = fixed_directive(
        connections=ids[:1],
        tags=["topic:gear"],
        contexts=["First rewrite.", "Second rewrite.", "Third rewrite."],
    )
    encoder.calls.clear()
    id_d = engine.add_memory(CONTENT_D, TS[3])
    # the new note once, then the new note and its three neighbors together
    assert encoder.calls == [("encode", 1), ("encode_many", 4)]
    for note_id in ids + [id_d]:
        note = engine.get_note(note_id)
        assert np.array_equal(note.embedding, HashEncoder(48).encode(note_text(note)))
    assert engine.audit() == []

    # a failed re-encode leaves the store and the journal as they were
    before_state = snapshot_bytes(engine)
    before_journal = (tmp_path / "j.jsonl").read_bytes()
    encoder.fail_batches = True
    backend.directive = fixed_directive(contexts=["Never written."])
    with pytest.raises(BackendUnavailable):
        engine.add_memory(CONTENT_A, TS[4])
    assert snapshot_bytes(engine) == before_state
    assert (tmp_path / "j.jsonl").read_bytes() == before_journal


class UnsanitizedGateway(LlmGateway):
    """Always evolves, with a directive no parser cleaned: the first
    neighbor twice, the new note itself, every id in known, an id no note
    has, and neighborhood lists longer than the neighbor list."""

    def __init__(self):
        super().__init__()
        self.known = []
        self.pairs = []

    def opine_links(self, new_note, neighbors):
        return LinkOpinion(should_evolve=True, rationale="forced")

    def propose_evolution(self, new_note, neighbors):
        first = neighbors[0].id
        self.pairs.append((new_note.id, first))
        extra = len(neighbors) + 2
        return EvolutionDirective(
            should_evolve=True,
            suggested_connections=(first, first, new_note.id, *self.known, "f" * 32),
            tags_to_update=("topic:forced",),
            new_context_neighborhood=("",) * extra,
            new_tags_neighborhood=((),) * extra,
        )


def test_an_unsanitized_directive_links_only_to_neighbors():
    gateway = UnsanitizedGateway()
    engine = MemoryEngine(
        HashEncoder(dimension=48, seed=0), gateway, EngineConfig(k_link=1), id_seed=99
    )
    for i, content in enumerate((CONTENT_A, CONTENT_B, CONTENT_C, CONTENT_D)):
        gateway.known.append(engine.add_memory(content, TS[i]))

    expected = {note_id: set() for note_id in gateway.known}
    for new_id, neighbor_id in gateway.pairs:
        expected[new_id].add(neighbor_id)
        expected[neighbor_id].add(new_id)
    assert len(gateway.pairs) == 3
    assert {note.id: set(note.links) for note in engine.iter_notes()} == expected
    assert engine.audit() == []


# ---------------------------------------------------------------------------
# ablation switches


def test_link_generation_off_never_consults_neighbors():
    backend = RecordingBackend()
    engine = fresh_engine(
        config=EngineConfig(enable_link_generation=False), backend=backend
    )
    for i, content in enumerate((CONTENT_A, CONTENT_B, CONTENT_C)):
        engine.add_memory(content, TS[i])
    assert all(note.links == frozenset() for note in engine.iter_notes())
    assert set(backend.calls) == {"note_attributes"}


def test_evolution_off_links_but_freezes_existing_notes():
    engine = fresh_engine(config=EngineConfig(enable_evolution=False))
    id_a = engine.add_memory(CONTENT_A, TS[0])
    before = engine.get_note(id_a)
    id_b = engine.add_memory(CONTENT_B, TS[1])
    after = engine.get_note(id_a)

    # links still form both ways
    assert after.links == frozenset({id_b})
    assert engine.get_note(id_b).links == frozenset({id_a})
    # but every content-derived field of the pre-existing note is frozen
    assert after.content == before.content
    assert after.timestamp == before.timestamp
    assert after.keywords == before.keywords
    assert after.tags == before.tags
    assert after.context == before.context
    assert after.embedding.tobytes() == before.embedding.tobytes()
    assert engine.audit() == []


def test_evolution_off_keeps_links_and_tags_but_rewrites_no_neighbor(tmp_path, journal):
    backend = FixedDirectiveBackend()
    engine = fresh_engine(
        config=EngineConfig(enable_evolution=False), journal=journal, backend=backend
    )
    id_a = engine.add_memory(CONTENT_A, TS[0])
    before = engine.get_note(id_a)
    backend.directive = fixed_directive(
        connections=[id_a],
        tags=["topic:gear"],
        contexts=["Rewritten beside a soup recipe."],
        tag_lists=[["topic:soup", "topic:gear"]],
    )
    id_d = engine.add_memory(CONTENT_D, TS[1])

    note_a, note_d = engine.get_note(id_a), engine.get_note(id_d)
    assert note_a.links == frozenset({id_d})
    assert note_d.links == frozenset({id_a})
    assert note_d.tags == ("topic:recipe", "topic:soup", "topic:lentil", "topic:gear")
    assert note_a.context == before.context
    assert note_a.tags == before.tags
    assert note_a.embedding.tobytes() == before.embedding.tobytes()
    assert record_ids(parsed_changes(tmp_path / "j.jsonl")[1:]) == [[id_d]]
    assert engine.audit() == []


def test_rewrites_past_the_neighbor_list_change_nothing(tmp_path, journal):
    backend = FixedDirectiveBackend()
    engine = fresh_engine(config=EngineConfig(k_link=1), journal=journal, backend=backend)
    backend.directive = fixed_directive()
    engine.add_memory(CONTENT_A, TS[0])
    engine.add_memory(CONTENT_B, TS[1])
    before_state = snapshot_bytes(engine)
    # entry 1 would be the second-ranked note, which is not a neighbor at k_link=1
    backend.directive = fixed_directive(
        contexts=["", "Rewritten past the neighbors."], tag_lists=[[], ["topic:past"]]
    )
    id_d = engine.add_memory(CONTENT_D, TS[2])

    assert backend.calls.count("evolution_directive") == 2
    assert record_ids(parsed_changes(tmp_path / "j.jsonl")[2:]) == [[id_d]]
    engine_without_d = [note for note in engine.iter_notes() if note.id != id_d]
    assert "\n".join(canonical_json(note) for note in engine_without_d) == before_state
    assert engine.audit() == []


def test_an_add_whose_encode_fails_draws_no_id(monkeypatch):
    engine = fresh_engine()

    def down(text):
        raise BackendUnavailable("embedding service down")

    monkeypatch.setattr(engine.encoder, "encode", down)
    with pytest.raises(BackendUnavailable):
        engine.add_memory(CONTENT_A, TS[0])
    monkeypatch.undo()
    assert len(engine) == 0
    assert engine.add_memory(CONTENT_B, TS[1]) == fresh_engine().add_memory(CONTENT_B, TS[1])


# ---------------------------------------------------------------------------
# retrieval


def corpus_engine(config=None):
    engine = fresh_engine(config=config)
    contents = [
        CONTENT_A,
        CONTENT_B,
        CONTENT_C,
        CONTENT_D,
        "chess opening study chess opening",
        "garden tomato compost garden tomato",
        "hiking trail boots hiking trail",
        "camera tripod night camera night",
        "soup vinegar lentil soup vinegar",
        "trail snacks hiking trail snacks",
    ]
    for i, content in enumerate(contents):
        engine.add_memory(content, TS[i])
    return engine


def test_retrieve_matches_full_sort_oracle():
    engine = corpus_engine()
    notes = list(engine.iter_notes())
    ids = [note.id for note in notes]
    vectors = np.stack([note.embedding for note in notes])
    for query in ("camera tripod", "soup recipe", "trail hiking boots", "chess"):
        query_vec = engine.encoder.encode(query)
        for k in (1, 3, 10, 25):
            got = engine.retrieve(query, k=k)
            assert [hit.note.id for hit in got] == full_sort_top_k(
                ids, vectors, query_vec, k
            )
            for hit in got:
                assert hit.score == pytest.approx(
                    cosine(query_vec, hit.note.embedding), abs=1e-12
                )
                assert hit.expanded is False
            scores = [hit.score for hit in got]
            assert scores == sorted(scores, reverse=True)


def test_retrieve_k_defaults_and_category_override():
    engine = corpus_engine(
        config=EngineConfig(k_retrieve=2, k_by_category={"wide": 6})
    )
    assert len(engine.retrieve("camera")) == 2
    assert len(engine.retrieve("camera", category="wide")) == 6
    assert len(engine.retrieve("camera", category="unknown")) == 2
    assert len(engine.retrieve("camera", k=4)) == 4


def test_retrieve_guards():
    engine = corpus_engine()
    with pytest.raises(EmptyQuery):
        engine.retrieve("  ")
    for k in (0, True):
        with pytest.raises(ValueError):
            engine.retrieve("camera", k=k)


def test_link_expansion_appends_linked_notes_in_id_order():
    engine = corpus_engine(config=EngineConfig(enable_link_expansion=True))
    query = "photography darkroom camera"
    query_vec = engine.encoder.encode(query)
    results = engine.retrieve(query, k=1)

    head = results[0]
    assert head.expanded is False
    tail = results[1:]
    expected_ids = sorted(head.note.links - {head.note.id})
    assert [hit.note.id for hit in tail] == expected_ids
    for hit in tail:
        assert hit.expanded is True
        assert hit.score == pytest.approx(
            cosine(query_vec, hit.note.embedding), abs=1e-12
        )
    # ranked hits are never duplicated by expansion
    wide = engine.retrieve(query, k=len(engine))
    assert len({hit.note.id for hit in wide}) == len(wide)
    assert all(not hit.expanded for hit in wide)


def test_link_expansion_off_by_default():
    engine = corpus_engine()
    results = engine.retrieve("photography darkroom camera", k=1)
    assert len(results) == 1


def test_retrieve_while_adding_stays_consistent():
    # Readers scan the index and read the notes while a writer inserts and,
    # through evolution, rewrites notes and rows in place; the engine's view
    # lock keeps them apart. Every snapshot a reader takes resolves all of
    # its links inside itself, and the note count a reader sees never falls.
    engine = fresh_engine()
    engine.add_memory(CONTENT_A, TS[0])
    words = "camera photography tripod darkroom lens soup recipe lentil trail hiking".split()
    rng = random.Random(5)
    contents = [" ".join(rng.choices(words, k=6)) for _ in range(80)]
    queries = ["camera tripod", "soup recipe", "trail hiking boots", "darkroom lens"]
    stop = threading.Event()
    errors = []
    reads = []

    def reader(query):
        try:
            while not stop.is_set():
                hits = engine.retrieve(query, k=5)
                scores = [hit.score for hit in hits]
                if scores != sorted(scores, reverse=True):
                    errors.append(f"unsorted: {scores}")
                for hit in hits:
                    assert engine.get_note(hit.note.id) is not None
                reads.append(len(hits))
        except BaseException as exc:
            errors.append(repr(exc))

    def snapshot_reader(take):
        try:
            seen = 0
            while not stop.is_set():
                notes = take()
                dangling = [
                    (nid, lid) for nid, n in notes.items() for lid in n.links if lid not in notes
                ]
                if dangling:
                    errors.append(f"links leave the snapshot: {dangling}")
                if len(notes) < seen:
                    errors.append(f"note count fell from {seen} to {len(notes)}")
                seen = len(notes)
                reads.append(seen)
        except BaseException as exc:
            errors.append(repr(exc))

    def lookup_reader():
        try:
            seen = 0
            while not stop.is_set():
                count = len(engine)
                if count < seen:
                    errors.append(f"len fell from {seen} to {count}")
                seen = count
                for note in list(engine.iter_notes())[-3:]:
                    if note.id not in engine or engine.get_note(note.id).id != note.id:
                        errors.append(f"note {note.id} vanished")
                reads.append(count)
        except BaseException as exc:
            errors.append(repr(exc))

    readers = [(reader, (q,)) for q in queries] + [
        (snapshot_reader, (lambda: engine.state_snapshot()[0],)),
        (snapshot_reader, (lambda: {note.id: note for note in engine.iter_notes()},)),
        (lookup_reader, ()),
    ]
    # Daemon threads: a deadlock fails the is_alive check below instead of
    # hanging the interpreter at exit.
    threads = [threading.Thread(target=run, args=args, daemon=True) for run, args in readers]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for i, content in enumerate(contents, start=1):
            engine.add_memory(content, "2023-06-01T%02d:%02d:00Z" % divmod(i, 60))
    finally:
        stop.set()
        for thread in threads:
            thread.join(10)
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert reads
    assert len(engine) == 81
    assert engine.audit() == []


# ---------------------------------------------------------------------------
# audits and adopted state


def hand_note(ids, keyword, dimension=48, links=(), embedding=None):
    encoder = HashEncoder(dimension=dimension, seed=0)
    content = f"{keyword} note body"
    fields = dict(
        id=ids.fresh(),
        content=content,
        timestamp="2023-06-01T00:00:00Z",
        keywords=(keyword,),
        tags=("topic:" + keyword,),
        context=f"Discusses {keyword}.",
        links=frozenset(links),
    )
    text = f"{content}\n{keyword}\ntopic:{keyword}\nDiscusses {keyword}."
    fields["embedding"] = encoder.encode(text) if embedding is None else embedding
    return MemoryNote(**fields)


def test_audit_reports_dangling_and_asymmetric_links():
    ids = IdGenerator(seed=5)
    ghost = ids.fresh()
    a = hand_note(ids, "alpha")
    b = hand_note(ids, "beta", links={a.id, ghost})
    engine = fresh_engine()
    engine.adopt_state({a.id: a, b.id: b})

    problems = engine.audit()
    assert any("unknown id" in p and ghost in p for p in problems)
    assert any("no backlink" in p for p in problems)
    # a crash-recovered prefix may hold half-linked pairs legitimately
    relaxed = engine.audit(check_symmetry=False)
    assert not any("backlink" in p for p in relaxed)
    assert any("unknown id" in p for p in relaxed)


def test_audit_reports_embedding_drift():
    ids = IdGenerator(seed=6)
    stale = hand_note(ids, "gamma", embedding=basis_vector(48))
    engine = fresh_engine()
    engine.adopt_state({stale.id: stale})
    assert any("embedding" in p for p in engine.audit())
    assert engine.audit(verify_embeddings=False) == []


def test_adopt_state_requires_empty_engine():
    ids = IdGenerator(seed=7)
    note = hand_note(ids, "delta")
    engine = fresh_engine()
    engine.add_memory(CONTENT_A, TS[0])
    with pytest.raises(RuntimeError):
        engine.adopt_state({note.id: note})


def test_adopted_state_is_queryable():
    ids = IdGenerator(seed=8)
    a = hand_note(ids, "alpha")
    b = hand_note(ids, "beta")
    engine = fresh_engine()
    engine.adopt_state({a.id: a, b.id: b})
    assert [note.id for note in engine.iter_notes()] == sorted([a.id, b.id])
    hits = engine.retrieve("alpha note body", k=1)
    assert hits[0].note.id == a.id
    assert engine.audit() == []


def many_notes(n, dimension, seed=9):
    ids = IdGenerator(seed=seed)
    rows = np.random.default_rng(seed).standard_normal((n, dimension)).astype(np.float32)
    notes = {}
    for i, row in enumerate(rows):
        note = MemoryNote(
            id=ids.fresh(),
            content=f"note {i} body",
            timestamp=TS[0],
            keywords=(f"kw{i}",),
            tags=("topic:bulk",),
            context="Filler.",
            embedding=row,
        )
        notes[note.id] = note
    return notes


def test_an_add_after_adopt_state_writes_into_the_adopted_buffer():
    notes = many_notes(1500, 48)
    engine = fresh_engine()
    engine.adopt_state(notes)
    rows = engine._index._rows
    # the rows inserts grow to: 1024, doubled until they fit
    assert rows.shape == (2048, 48)
    assert rows[:1500].tobytes() == np.stack([notes[nid].embedding for nid in sorted(notes)]).tobytes()
    engine.add_memory(CONTENT_A, TS[1])
    assert engine._index._rows is rows
    assert len(engine) == 1501
    assert engine.audit(verify_embeddings=False) == []


def test_adopt_state_and_an_add_copy_each_embedding_once():
    n, dimension = 3000, 384
    notes = many_notes(n, dimension)
    engine = fresh_engine(dimension=dimension)
    tracemalloc.start()
    try:
        engine.adopt_state(notes)
        engine.add_memory(CONTENT_A, TS[1])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # Stacking a matrix of n rows and then doubling it for the add's
    # insert, with the stacked one still alive, peaks at about 3 n x d x 4.
    assert peak < 2.5 * n * dimension * 4


def test_state_snapshot_is_stable_under_later_writes():
    engine = fresh_engine()
    engine.add_memory(CONTENT_A, TS[0])
    notes, last_seq = engine.state_snapshot()
    assert last_seq == 0
    held = dict(notes)
    engine.add_memory(CONTENT_B, TS[1])
    # the snapshot is a copy; commits change only the engine's own map
    assert notes == held
    assert len(engine) == 2


def test_state_snapshot_belongs_to_the_caller():
    engine = fresh_engine()
    engine.add_memory(CONTENT_A, TS[0])
    engine.add_memory(CONTENT_B, TS[1])
    notes, _ = engine.state_snapshot()
    notes.clear()
    assert len(engine) == 2
    assert len(engine.retrieve("photography camera", k=2)) == 2
    assert engine.audit() == []


def test_retrieved_memory_is_immutable():
    engine = corpus_engine()
    hit = engine.retrieve("camera", k=1)[0]
    assert isinstance(hit, RetrievedMemory)
    with pytest.raises(AttributeError):
        hit.score = 0.5
