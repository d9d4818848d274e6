"""Gateway tests: templates, response validation, mock rules, retry policy.

The three prompt templates are frozen byte for byte (hash-pinned) because
rendered prompts feed deterministic pipelines; the structured-output parsers
are the only door through which backend responses reach the engine, so their
sanitization rules get exercised with hostile inputs.
"""

import hashlib
import json
import logging

import numpy as np
import pytest

from amem.errors import BackendUnavailable, EmptyContent, MissingSlot, SchemaViolation
from amem.gateway import (
    _RESPONSE_SCHEMAS,
    EvolutionDirective,
    LlmGateway,
    MockBackend,
    RemoteChatBackend,
    load_template,
    mock_evolution_directive,
    mock_link_opinion,
    mock_note_attributes,
    parse_evolution_directive,
    parse_link_opinion,
    parse_note_attributes,
    render_neighbors,
    render_prompt,
)
from amem.notes import IdGenerator, MemoryNote

IDS = IdGenerator(seed=17)

TEMPLATE_SHA256 = {
    "s1": "3383585c7eb9444a9a82845966b0211ec8ee3e1d3b72c62b122e171027c442fc",
    "s2": "9e049b8a2d89e9be6e5275bbfdd00cc13d514026101c1a9d242d2c887ac7b956",
    "s3": "772b631d51c81291af091947cbe252ba8050c3dcfdd923b00f536a94d44b1abd",
}


def note_with(keywords, tags=None, content="some content", context="Some context."):
    return MemoryNote(
        id=IDS.fresh(),
        content=content,
        timestamp="2023-11-17T10:54:00Z",
        keywords=tuple(keywords),
        tags=tuple(tags) if tags else tuple("topic:" + k for k in keywords),
        context=context,
        embedding=np.ones(8, dtype=np.float32),
    )


# ---------------------------------------------------------------------------
# templates


def test_template_bytes_are_frozen():
    for template_id, digest in TEMPLATE_SHA256.items():
        text = load_template(template_id)
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest


def test_analysis_template_layout():
    text = load_template("s1")
    assert text.endswith("Content for analysis:\n{content}")
    assert "Interaction timestamp: {timestamp}" in text
    assert '"keywords":' in text and '"context":' in text and '"tags":' in text


def test_render_prompt_substitutes_all_slots():
    rendered = render_prompt(
        "s1", {"content": "CONTENT-HERE", "timestamp": "2023-11-17T10:54:00Z"}
    )
    assert rendered.endswith("Content for analysis:\nCONTENT-HERE")
    assert "Interaction timestamp: 2023-11-17T10:54:00Z" in rendered
    assert "{content}" not in rendered and "{timestamp}" not in rendered


def test_render_prompt_keeps_literal_braces():
    rendered = render_prompt(
        "s1", {"content": "x", "timestamp": "2023-11-17T10:54:00Z"}
    )
    # the embedded JSON example keeps its braces after substitution
    assert "{" in rendered and "}" in rendered


def test_render_prompt_missing_slot():
    with pytest.raises(MissingSlot):
        render_prompt("s1", {"content": "x"})
    with pytest.raises(ValueError):
        render_prompt("nope", {})


def test_decision_templates_take_neighbor_slots():
    slots = {
        "context": "CTX",
        "content": "BODY",
        "keywords": "k1, k2",
        "nearest_neighbors_memories": "NEIGHBOR-BLOCK",
    }
    for template_id in ("s2", "s3"):
        rendered = render_prompt(template_id, slots)
        assert "NEIGHBOR-BLOCK" in rendered
        assert "BODY" in rendered
        assert "{context}" not in rendered
    assert "should_evolve" in load_template("s2")
    assert "suggested_connections" in load_template("s3")


def test_a_slot_value_holding_a_marker_keeps_it_as_text():
    slots = {
        "context": "CTX",
        "content": "see {nearest_neighbors_memories} and {keywords} here",
        "keywords": "k1, k2",
        "nearest_neighbors_memories": "NEIGHBOR-BLOCK",
    }
    for template_id in ("s2", "s3"):
        rendered = render_prompt(template_id, slots)
        assert rendered.count("NEIGHBOR-BLOCK") == 1
        assert rendered.count("k1, k2") == 1
        assert "see {nearest_neighbors_memories} and {keywords} here" in rendered


def test_render_neighbors_block_shape_and_order():
    a = note_with(["alpha"], content="first neighbor")
    b = note_with(["beta"], content="second neighbor")
    block = render_neighbors([a, b])
    lines = block.split("\n")
    assert lines[0] == f"memory id: {a.id}"
    assert lines[1] == "content: first neighbor"
    assert lines[2] == f"context: {a.context}"
    assert lines[3] == "keywords: alpha"
    assert lines[4] == "tags: topic:alpha"
    assert lines[5] == f"timestamp: {a.timestamp}"
    assert lines[6] == f"memory id: {b.id}"
    assert block.index(a.id) < block.index(b.id)


# ---------------------------------------------------------------------------
# response parsing


def test_parse_note_attributes_happy_path():
    attrs = parse_note_attributes(
        {"keywords": ["a", "b", "c"], "context": "ctx", "tags": ["x", "y", "z"]}
    )
    assert attrs.keywords == ("a", "b", "c")
    assert attrs.context == "ctx"
    assert attrs.tags == ("x", "y", "z")


def test_parse_note_attributes_rejections():
    good = {"keywords": ["a", "b", "c"], "context": "ctx", "tags": ["x", "y", "z"]}
    for mutate in (
        lambda d: d.pop("context"),
        lambda d: d.update(extra=1),
        lambda d: d.update(keywords=["a", "b"]),
        lambda d: d.update(keywords=["a", "b", 3]),
        lambda d: d.update(keywords=["a", "b", " "]),
        lambda d: d.update(tags="not-a-list"),
        lambda d: d.update(context="  "),
        lambda d: d.update(context=7),
    ):
        bad = {key: list(v) if isinstance(v, list) else v for key, v in good.items()}
        mutate(bad)
        with pytest.raises(SchemaViolation):
            parse_note_attributes(bad)
    with pytest.raises(SchemaViolation):
        parse_note_attributes(["not", "a", "dict"])


def test_parse_link_opinion():
    opinion = parse_link_opinion({"should_evolve": True, "rationale": "because"})
    assert opinion.should_evolve is True
    assert opinion.rationale == "because"
    for bad in (
        {"should_evolve": True},
        {"rationale": "x"},
        {"should_evolve": "yes", "rationale": "x"},
        {"should_evolve": True, "rationale": 5},
        {"should_evolve": True, "rationale": "x", "confidence": 0.9},
        [],
    ):
        with pytest.raises(SchemaViolation):
            parse_link_opinion(bad)


def test_response_schema_table_is_pinned():
    # RemoteChatBackend sends these entries; the request bytes must not drift.
    # The plain dump keeps key order, which is what goes on the wire.
    sorted_dump = json.dumps(_RESPONSE_SCHEMAS, sort_keys=True).encode("utf-8")
    assert hashlib.sha256(sorted_dump).hexdigest() == (
        "70c200186b4d886250fcca0b44f813abc9513c387a5536372d904c1988882ccc"
    )
    assert hashlib.sha256(json.dumps(_RESPONSE_SCHEMAS).encode("utf-8")).hexdigest() == (
        "0efad045284d7336e3dbe54af00d48a8d62d07821679fd09b6291b00b991ff6e"
    )


def full_directive(neighbors, **overrides):
    raw = {
        "should_evolve": True,
        "actions": ["strengthen"],
        "suggested_connections": list(neighbors),
        "tags_to_update": ["topic:new"],
        "new_context_neighborhood": [""] * len(neighbors),
        "new_tags_neighborhood": [[] for _ in neighbors],
    }
    raw.update(overrides)
    return raw


def test_parse_directive_happy_path():
    ids = [IDS.fresh(), IDS.fresh()]
    directive = parse_evolution_directive(full_directive(ids))
    assert directive.should_evolve is True
    assert directive.suggested_connections == tuple(ids)
    assert directive.tags_to_update == ("topic:new",)


def test_parse_directive_drops_unknown_actions(caplog):
    # unknown actions are logged and do not reject the directive
    ids = [IDS.fresh()]
    raw = full_directive(ids, actions=["strengthen", "merge", "prune", "update_neighbor"])
    with caplog.at_level(logging.WARNING, logger="amem.gateway"):
        directive = parse_evolution_directive(raw)
    assert directive == parse_evolution_directive(full_directive(ids))
    warnings = [record.getMessage() for record in caplog.records]
    assert warnings == [
        "ignoring unsupported evolution action 'merge'",
        "ignoring unsupported evolution action 'prune'",
    ]


def test_parse_directive_keeps_the_answer_as_given():
    # the engine, not the parser, maps a directive onto the neighbors
    ids = [IDS.fresh(), IDS.fresh()]
    foreign = IDS.fresh()
    raw = full_directive(
        ids,
        suggested_connections=[ids[1], foreign, ids[0]],
        new_context_neighborhood=["one", "two", "three", "four"],
        new_tags_neighborhood=[["a"], ["b"], ["c"]],
    )
    directive = parse_evolution_directive(raw)
    assert directive.suggested_connections == (ids[1], foreign, ids[0])
    assert directive.new_context_neighborhood == ("one", "two", "three", "four")
    assert directive.new_tags_neighborhood == (("a",), ("b",), ("c",))


def test_parse_directive_false_collapses_to_no_op():
    ids = [IDS.fresh()]
    raw = full_directive(ids, should_evolve=False)
    directive = parse_evolution_directive(raw)
    assert directive == EvolutionDirective.no_op()


def test_parse_directive_rejections():
    ids = [IDS.fresh()]
    for mutate in (
        lambda d: d.pop("actions"),
        lambda d: d.pop("new_tags_neighborhood"),
        lambda d: d.update(should_evolve="yes"),
        lambda d: d.update(actions="strengthen"),
        lambda d: d.update(new_tags_neighborhood=["flat", "strings"]),
        lambda d: d.update(suggested_connections=[1, 2]),
        lambda d: d.update(confidence=0.9),
        # an entry past the neighbor count is checked too, not skipped
        lambda d: d.update(new_tags_neighborhood=[[], "flat"]),
    ):
        raw = full_directive(ids)
        mutate(raw)
        with pytest.raises(SchemaViolation):
            parse_evolution_directive(raw)


# ---------------------------------------------------------------------------
# mock rules


def test_mock_attributes_ranks_by_frequency_then_alphabet():
    raw = mock_note_attributes(
        "Dave has taken up photography and loves photography walks in nature",
        "2023-11-17T10:54:00Z",
    )
    assert raw["keywords"] == ["photography", "dave", "loves"]
    assert raw["context"] == "Discusses photography and related topics."
    assert raw["tags"] == ["topic:photography", "topic:dave", "topic:loves"]


def test_mock_attributes_pads_short_content():
    raw = mock_note_attributes("x", "2023-11-17T10:54:00Z")
    assert raw["keywords"] == ["x", "x-note", "x-topic"]


def test_mock_attributes_totality_on_degenerate_content():
    # stopword-only content falls back to raw tokens
    raw = mock_note_attributes("the and of", "2023-11-17T10:54:00Z")
    assert raw["keywords"] == ["and", "of", "the"]
    # content with no word tokens at all still yields three keywords
    raw = mock_note_attributes("!!! ... ???", "2023-11-17T10:54:00Z")
    assert raw["keywords"] == ["text", "text-note", "text-topic"]
    parse_note_attributes(raw)


def test_mock_attributes_are_deterministic():
    a = mock_note_attributes("garden tomato compost", "2023-11-17T10:54:00Z")
    b = mock_note_attributes("garden tomato compost", "2024-01-01T00:00:00Z")
    assert a == b


def test_mock_link_opinion_requires_shared_keyword():
    new = note_with(["photography", "camera", "film"])
    stranger = note_with(["soup", "recipe", "leek"])
    friend = note_with(["camera", "tripod", "night"])
    no = parse_link_opinion(mock_link_opinion(new, [stranger]))
    assert no.should_evolve is False
    yes = parse_link_opinion(mock_link_opinion(new, [stranger, friend]))
    assert yes.should_evolve is True
    assert "camera" in yes.rationale


def test_mock_directive_strengthen_vs_rewrite():
    new = note_with(["photography", "camera", "film"])
    one_shared = note_with(["camera", "tripod", "night"])
    two_shared = note_with(["camera", "photography", "street"])
    stranger = note_with(["soup", "recipe", "leek"])

    raw = mock_evolution_directive(new, [stranger, one_shared, two_shared])
    assert raw["actions"] == ["strengthen", "update_neighbor"]
    directive = parse_evolution_directive(raw)
    assert directive.should_evolve is True
    assert directive.suggested_connections == (one_shared.id, two_shared.id)
    assert "topic:camera" in directive.tags_to_update
    assert "topic:photography" in directive.tags_to_update
    # positional lists: stranger untouched, one_shared untouched, two_shared rewritten
    assert directive.new_context_neighborhood[0] == ""
    assert directive.new_context_neighborhood[1] == ""
    assert (
        directive.new_context_neighborhood[2]
        == "Expands on camera and photography with newer material."
    )
    assert directive.new_tags_neighborhood[0] == ()
    assert directive.new_tags_neighborhood[1] == ()
    assert set(directive.new_tags_neighborhood[2]) == set(two_shared.tags) | {
        "topic:camera",
        "topic:photography",
    }


def test_mock_directive_no_overlap_is_no_op():
    new = note_with(["photography", "camera", "film"])
    stranger = note_with(["soup", "recipe", "leek"])
    raw = mock_evolution_directive(new, [stranger])
    assert raw["should_evolve"] is False
    directive = parse_evolution_directive(raw)
    assert directive == EvolutionDirective.no_op()


def test_mock_backend_dispatch():
    backend = MockBackend()
    new = note_with(["camera", "photography", "street"])
    friend = note_with(["camera", "photography", "club"])
    attrs = backend.complete(
        "note_attributes",
        {"content": "camera camera photography", "timestamp": "2023-01-01T00:00:00Z"},
    )
    assert attrs["keywords"][0] == "camera"
    opinion = backend.complete("link_opinion", {"new_note": new, "neighbors": [friend]})
    assert opinion["should_evolve"] is True
    directive = backend.complete(
        "evolution_directive", {"new_note": new, "neighbors": [friend]}
    )
    assert friend.id in directive["suggested_connections"]
    with pytest.raises(ValueError):
        backend.complete("unknown_task", {})


# ---------------------------------------------------------------------------
# gateway retry and fallback policy


class ScriptedBackend:
    """Replays a fixed list of responses; callables raise or build on demand."""

    name = "scripted"

    def __init__(self, responses):
        self.responses = list(responses)
        self.calls = []

    def complete(self, task, payload):
        self.calls.append(task)
        action = self.responses.pop(0)
        if isinstance(action, Exception):
            raise action
        if callable(action):
            return action(task, payload)
        return action


GOOD_ATTRS = {"keywords": ["a", "b", "c"], "context": "ctx", "tags": ["x", "y", "z"]}


def test_gateway_retries_then_succeeds():
    backend = ScriptedBackend([{"bad": 1}, {"bad": 2}, GOOD_ATTRS])
    gateway = LlmGateway(backend)
    attrs = gateway.generate_note_attributes("hello world", "2023-11-17T10:54:00Z")
    assert attrs.keywords == ("a", "b", "c")
    assert len(backend.calls) == 3


def test_gateway_attribute_fallback_after_retries():
    backend = ScriptedBackend([{"bad": 1}, {"bad": 2}, {"bad": 3}])
    gateway = LlmGateway(backend)
    attrs = gateway.generate_note_attributes(
        "garden tomato compost soil", "2023-11-17T10:54:00Z"
    )
    # deterministic rule took over
    assert attrs.keywords == ("compost", "garden", "soil")
    assert len(backend.calls) == 3


def test_gateway_rejects_empty_content_before_calling_backend():
    backend = ScriptedBackend([])
    gateway = LlmGateway(backend)
    with pytest.raises(EmptyContent):
        gateway.generate_note_attributes("   ", "2023-11-17T10:54:00Z")
    assert backend.calls == []


def test_gateway_opinion_always_produces_an_answer():
    new = note_with(["camera", "photography", "street"])
    friend = note_with(["camera", "photography", "club"])
    backend = ScriptedBackend([{"bad": 1}, {"bad": 2}, {"bad": 3}])
    gateway = LlmGateway(backend)
    opinion = gateway.opine_links(new, [friend])
    assert opinion.should_evolve is True
    with pytest.raises(ValueError):
        gateway.opine_links(new, [])


def test_gateway_evolution_raises_after_retries():
    new = note_with(["camera", "photography", "street"])
    friend = note_with(["camera", "photography", "club"])
    backend = ScriptedBackend([{"bad": 1}, {"bad": 2}, {"bad": 3}])
    gateway = LlmGateway(backend)
    with pytest.raises(SchemaViolation):
        gateway.propose_evolution(new, [friend])
    assert len(backend.calls) == 3
    with pytest.raises(ValueError):
        gateway.propose_evolution(new, [])


def test_gateway_backend_outage_propagates_without_retry():
    backend = ScriptedBackend([BackendUnavailable("down")])
    gateway = LlmGateway(backend)
    with pytest.raises(BackendUnavailable):
        gateway.generate_note_attributes("hello world", "2023-11-17T10:54:00Z")
    assert len(backend.calls) == 1


def test_gateway_default_backend_is_mock():
    gateway = LlmGateway()
    attrs = gateway.generate_note_attributes(
        "garden tomato compost", "2023-11-17T10:54:00Z"
    )
    assert len(attrs.keywords) == 3


# ---------------------------------------------------------------------------
# remote chat backend plumbing


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


def chat_body(content):
    return {"choices": [{"message": {"content": content}}]}


def remote_payload(task):
    """A payload the remote backend can render the task's prompt from."""
    if task == "note_attributes":
        return {"content": "hello world", "timestamp": "2023-11-17T10:54:00Z"}
    return {"new_note": note_with(["camera", "lens"]), "neighbors": [note_with(["camera"])]}


def test_remote_chat_backend_round_trip():
    session = FakeSession([FakeResponse(200, chat_body('{"answer": 42}'))])
    backend = RemoteChatBackend(url="http://llm", model="m", session=session)
    new, friend = note_with(["camera", "lens"]), note_with(["camera"])
    result = backend.complete("link_opinion", {"new_note": new, "neighbors": [friend]})
    assert result == {"answer": 42}
    sent = session.requests[0]["json"]
    assert sent["model"] == "m"
    prompt = render_prompt(
        "s2",
        {
            "context": new.context,
            "content": new.content,
            "keywords": "camera, lens",
            "nearest_neighbors_memories": render_neighbors([friend]),
        },
    )
    assert sent["messages"] == [{"role": "user", "content": prompt}]
    assert sent["response_format"]["json_schema"]["name"] == "link_opinion"


def test_remote_chat_backend_sends_the_schema_the_parser_enforces():
    ids = [IDS.fresh()]
    valid = {
        "note_attributes": (GOOD_ATTRS, parse_note_attributes),
        "link_opinion": ({"should_evolve": True, "rationale": "r"}, parse_link_opinion),
        "evolution_directive": (
            full_directive(ids),
            parse_evolution_directive,
        ),
    }
    assert set(valid) == set(_RESPONSE_SCHEMAS)
    for task, (response, parse) in valid.items():
        session = FakeSession([FakeResponse(200, chat_body(json.dumps(response)))])
        backend = RemoteChatBackend(url="http://llm", model="m", session=session)
        parse(backend.complete(task, remote_payload(task)))
        schema = session.requests[0]["json"]["response_format"]["json_schema"]["schema"]
        assert schema == _RESPONSE_SCHEMAS[task]
        # the parser takes exactly the keys the backend was told to send
        assert set(schema["required"]) == set(response)
        assert schema["additionalProperties"] is False
        for key in schema["required"]:
            with pytest.raises(SchemaViolation):
                parse({k: v for k, v in response.items() if k != key})
        with pytest.raises(SchemaViolation):
            parse({**response, "unlisted": []})


def test_remote_chat_backend_strips_code_fences():
    session = FakeSession(
        [FakeResponse(200, chat_body('```json\n{"should_evolve": true}\n```'))]
    )
    backend = RemoteChatBackend(url="http://llm", model="m", session=session)
    result = backend.complete("link_opinion", remote_payload("link_opinion"))
    assert result == {"should_evolve": True}


def test_remote_chat_backend_error_mapping():
    backend = RemoteChatBackend(
        url="http://llm", model="m", session=FakeSession([FakeResponse(500, {})])
    )
    with pytest.raises(BackendUnavailable):
        backend.complete("link_opinion", remote_payload("link_opinion"))

    backend = RemoteChatBackend(
        url="http://llm", model="m", session=FakeSession([FakeResponse(200, {"weird": 1})])
    )
    with pytest.raises(BackendUnavailable):
        backend.complete("link_opinion", remote_payload("link_opinion"))

    backend = RemoteChatBackend(
        url="http://llm",
        model="m",
        session=FakeSession([FakeResponse(200, chat_body("not json at all"))]),
    )
    with pytest.raises(SchemaViolation):
        backend.complete("link_opinion", remote_payload("link_opinion"))


@pytest.mark.parametrize("slots", [2.5, True])
def test_remote_chat_backend_refuses_a_max_in_flight_that_is_not_a_count(slots):
    # A BoundedSemaphore(2.5) lets any number of acquire() calls through:
    # its value falls past 0 and acquire waits only at exactly 0.
    with pytest.raises(ValueError, match=f"max_in_flight must be >= 1, got {slots}"):
        RemoteChatBackend(url="http://llm", model="m", session=FakeSession([]), max_in_flight=slots)


@pytest.mark.parametrize("seconds", [True, "30"])
def test_remote_chat_backend_refuses_a_timeout_that_is_not_a_number(seconds):
    with pytest.raises(ValueError, match="chat timeout must be"):
        RemoteChatBackend(url="http://llm", model="m", session=FakeSession([]), timeout=seconds)


def test_remote_request_bodies_are_pinned():
    # One s1, one s2 and one s3 call through the gateway; the digests are of
    # the bytes requests puts on the wire for json=body.
    def pinned_note(note_id, keywords, content, context):
        return MemoryNote(
            id=note_id,
            content=content,
            timestamp="2023-11-17T10:54:00Z",
            keywords=tuple(keywords),
            tags=tuple("topic:" + k for k in keywords),
            context=context,
            embedding=np.ones(8, dtype=np.float32),
        )

    new = pinned_note("a" * 32, ["camera", "lens"], "New lens for the café.", "Gear talk.")
    first = pinned_note("b" * 32, ["camera", "film"], "Film camera.", "Analog photos.")
    second = pinned_note("c" * 32, ["soup"], "Leek soup {recipe}.", "Cooking.")
    directive = full_directive([first.id, second.id])
    session = FakeSession(
        [
            FakeResponse(200, chat_body(json.dumps(GOOD_ATTRS))),
            FakeResponse(200, chat_body('{"should_evolve": true, "rationale": "r"}')),
            FakeResponse(200, chat_body(json.dumps(directive))),
        ]
    )
    gateway = LlmGateway(RemoteChatBackend(url="http://llm", model="m", session=session))
    gateway.generate_note_attributes("Bought a new lens.\nIt is sharp.", "2023-11-17T10:54:00Z")
    gateway.opine_links(new, [first, second])
    gateway.propose_evolution(new, [first, second])
    digests = [
        hashlib.sha256(json.dumps(sent["json"], allow_nan=False).encode("utf-8")).hexdigest()
        for sent in session.requests
    ]
    assert digests == [
        "05d235cc4871ac9b8f761e01e3d47216dccd4a9dab35398ec9fc1daf5c618047",
        "667665520386949d2de17808ea42c48ffc23f0546bfcf97bd3d389ff257dc8df",
        "2b51499c33ab652c5f31bdd9b2e3b3c6eafe595893a0340fb0825fdc8192cb9d",
    ]
