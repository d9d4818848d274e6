"""LLM gateway: prompt templates, structured-output validation, and backends.

Three prompts drive the memory pipeline. Template s1 asks for a structured
analysis of new content (keywords, context, tags). Template s2 asks whether
a new note should evolve given its nearest neighbors. Template s3 asks for
the concrete evolution decision: which neighbors to connect, which tags the
new note gains, and rewritten context/tags for neighbors.

One schema table, _RESPONSE_SCHEMAS, declares the JSON shape each template
returns. The remote backend sends it to the model as the response format,
and the gateway validates every response against the same entry. One rule
holds for all three tasks: a response carries exactly the keys its schema
lists. Malformed completions are retried a bounded number of times, so
whatever the gateway hands to the engine is schema-valid. The mock backend
is a pure function of its inputs and makes the whole pipeline runnable
offline with reproducible results; it also serves as the fallback when a
live backend keeps returning garbage for attribute extraction or the link
opinion.
"""

from __future__ import annotations

import functools
import json
import logging
import os
import re
import threading
from collections import Counter
from dataclasses import dataclass
from importlib import resources
from typing import Any, Callable, Mapping, Protocol, Sequence

import requests

from .embedding import _tokenize, post_json
from .errors import BackendUnavailable, EmptyContent, MissingSlot, SchemaViolation
from .index import _is_count
from .notes import MemoryNote, validate_timestamp

logger = logging.getLogger(__name__)

LLM_API_KEY_ENV = "AMEM_LLM_API_KEY"

SUPPORTED_ACTIONS = ("strengthen", "update_neighbor")

# Retries of a schema-violating model response before the gateway gives up.
MAX_RETRIES = 2

TEMPLATE_SLOTS: dict[str, tuple[str, ...]] = {
    "s1": ("timestamp", "content"),
    "s2": ("context", "content", "keywords", "nearest_neighbors_memories"),
    "s3": ("context", "content", "keywords", "nearest_neighbors_memories"),
}


@functools.cache
def load_template(template_id: str) -> str:
    """Raw template text shipped with the package, read once per id."""
    if template_id not in TEMPLATE_SLOTS:
        raise ValueError(f"unknown template id: {template_id!r}")
    return resources.files("amem").joinpath(f"prompts/{template_id}.txt").read_text("utf-8")


def render_prompt(template_id: str, slots: Mapping[str, str]) -> str:
    """Substitute slot values into a template.

    One pass replaces only the raw template's declared {slot} markers, so
    the literal braces in the templates' JSON examples pass through
    untouched, and a value holding a marker keeps it as text.
    """
    template = load_template(template_id)
    names = TEMPLATE_SLOTS[template_id]
    for name in names:
        if name not in slots:
            raise MissingSlot(f"template {template_id} needs slot {name!r}")
    marker = r"\{(" + "|".join(names) + r")\}"
    return re.sub(marker, lambda match: str(slots[match.group(1)]), template)


def render_neighbors(neighbors: Sequence[MemoryNote]) -> str:
    """One block per neighbor, in retrieval-rank order."""
    blocks = []
    for note in neighbors:
        blocks.append(
            "memory id: {id}\n"
            "content: {content}\n"
            "context: {context}\n"
            "keywords: {keywords}\n"
            "tags: {tags}\n"
            "timestamp: {timestamp}".format(
                id=note.id,
                content=note.content,
                context=note.context,
                keywords=", ".join(note.keywords),
                tags=", ".join(note.tags),
                timestamp=note.timestamp,
            )
        )
    return "\n".join(blocks)


@dataclass(frozen=True)
class NoteAttributes:
    """Structured analysis of new content: what s1 returns."""

    keywords: tuple[str, ...]
    context: str
    tags: tuple[str, ...]


@dataclass(frozen=True)
class LinkOpinion:
    """Yes/no answer to 'should this new memory be evolved?', with rationale."""

    should_evolve: bool
    rationale: str


@dataclass(frozen=True)
class EvolutionDirective:
    """An s3 evolution decision as the model gave it. The engine maps it
    onto the ranked neighbors and applies its own evolution switch.

    suggested_connections name neighbors the new note should link to.
    tags_to_update are tags appended to the new note. The neighborhood lists
    are positional: entry i rewrites neighbor i's context or tags, an empty
    entry leaves that neighbor untouched.
    """

    should_evolve: bool
    suggested_connections: tuple[str, ...] = ()
    tags_to_update: tuple[str, ...] = ()
    new_context_neighborhood: tuple[str, ...] = ()
    new_tags_neighborhood: tuple[tuple[str, ...], ...] = ()

    @classmethod
    def no_op(cls) -> "EvolutionDirective":
        return cls(should_evolve=False)


def _array(items: dict[str, Any], **limits: int) -> dict[str, Any]:
    return {"type": "array", "items": items, **limits}


def _exact_object(**properties: dict[str, Any]) -> dict[str, Any]:
    """An object schema whose keys are exactly the given properties."""
    return {
        "type": "object",
        "properties": properties,
        "required": list(properties),
        "additionalProperties": False,
    }


_STRING: dict[str, Any] = {"type": "string"}
_BOOLEAN: dict[str, Any] = {"type": "boolean"}

# The one declaration of the s1/s2/s3 output shapes. RemoteChatBackend sends
# each entry as the task's response format, and the parse_* functions
# enforce the same entry through _validate.
_RESPONSE_SCHEMAS: dict[str, dict[str, Any]] = {
    "note_attributes": _exact_object(
        keywords=_array(_STRING, minItems=3),
        context=_STRING,
        tags=_array(_STRING, minItems=3),
    ),
    "link_opinion": _exact_object(should_evolve=_BOOLEAN, rationale=_STRING),
    "evolution_directive": _exact_object(
        should_evolve=_BOOLEAN,
        actions=_array(_STRING),
        suggested_connections=_array(_STRING),
        tags_to_update=_array(_STRING),
        new_context_neighborhood=_array(_STRING),
        new_tags_neighborhood=_array(_array(_STRING)),
    ),
}

_JSON_TYPES: dict[str, type] = {"object": dict, "array": list, "string": str, "boolean": bool}


def _validate(value: Any, schema: Mapping[str, Any], label: str) -> None:
    """Raise SchemaViolation unless value fits schema, in the JSON-Schema
    subset _RESPONSE_SCHEMAS uses: type (object, array, string, boolean),
    required, additionalProperties false, items and minItems. A string
    must also be one UTF-8 can encode: JSON allows a lone surrogate such
    as "\\ud800", which no note may hold."""
    kind = schema["type"]
    if not isinstance(value, _JSON_TYPES[kind]):
        raise SchemaViolation(f"{label} must be of type {kind}")
    if kind == "string":
        if not value.isascii():
            try:
                value.encode("utf-8")
            except UnicodeEncodeError as exc:
                raise SchemaViolation(f"{label} holds a lone surrogate") from exc
    elif kind == "object":
        properties = schema["properties"]
        missing = [key for key in schema["required"] if key not in value]
        if missing:
            raise SchemaViolation(f"{label} is missing keys {missing}")
        if schema.get("additionalProperties") is False:
            extra = [key for key in value if key not in properties]
            if extra:
                raise SchemaViolation(f"{label} has unexpected keys {extra}")
        for key, child in properties.items():
            if key in value:
                _validate(value[key], child, key)
    elif kind == "array":
        minimum = schema.get("minItems", 0)
        if len(value) < minimum:
            raise SchemaViolation(f"{label} needs at least {minimum} entries")
        items, entry = schema["items"], label + "[]"
        for item in value:
            _validate(item, items, entry)


def parse_note_attributes(raw: Any) -> NoteAttributes:
    """Validate a backend response against the s1 schema; nothing may be blank."""
    _validate(raw, _RESPONSE_SCHEMAS["note_attributes"], "note_attributes")
    keywords, tags, context = tuple(raw["keywords"]), tuple(raw["tags"]), raw["context"]
    if not (all(term.strip() for term in keywords + tags) and context.strip()):
        raise SchemaViolation("keywords, tags and context must not be blank")
    return NoteAttributes(keywords=keywords, context=context, tags=tags)


def parse_link_opinion(raw: Any) -> LinkOpinion:
    """Validate a backend response against the s2 schema."""
    _validate(raw, _RESPONSE_SCHEMAS["link_opinion"], "link_opinion")
    return LinkOpinion(should_evolve=raw["should_evolve"], rationale=raw["rationale"])


def parse_evolution_directive(raw: Any) -> EvolutionDirective:
    """Validate a backend response against the s3 schema and convert it.

    Unknown actions are logged, not rejected, since live models occasionally
    emit actions nobody defined semantics for; the engine reads no action
    list. Nothing else is filtered here: the engine maps the directive onto
    the ranked neighbors and applies its own evolution switch.
    """
    _validate(raw, _RESPONSE_SCHEMAS["evolution_directive"], "evolution_directive")
    for action in raw["actions"]:
        if action not in SUPPORTED_ACTIONS:
            logger.warning("ignoring unsupported evolution action %r", action)
    if not raw["should_evolve"]:
        return EvolutionDirective.no_op()
    return EvolutionDirective(
        should_evolve=True,
        suggested_connections=tuple(raw["suggested_connections"]),
        tags_to_update=tuple(raw["tags_to_update"]),
        new_context_neighborhood=tuple(raw["new_context_neighborhood"]),
        new_tags_neighborhood=tuple(tuple(tags) for tags in raw["new_tags_neighborhood"]),
    )


# ---------------------------------------------------------------------------
# Deterministic mock rules


_STOPWORDS = frozenset(
    """
    a about above after again all am an and any are aren as at be because
    been before being below between both but by can cannot could d did didn
    do does doesn doing don down during each few for from further had hadn
    has hasn have haven having he her here hers him his how i if in into is
    isn it its itself just ll m me more most my myself no nor not of off on
    once only or other our ours out over own re s same she should shouldn so
    some such t than that the their theirs them then there these they this
    those through to too under until up ve very was wasn we were weren what
    when where which while who whom why will with won would wouldn you your
    yours
    """.split()
)


def mock_note_attributes(content: str, timestamp: str) -> dict[str, Any]:
    """Deterministic attribute extraction used by the mock backend.

    Keywords are the top 3 non-stopword tokens ranked by frequency with an
    alphabetical tie-break. When content yields fewer than 3 keywords, the
    first keyword k is padded with "k-note" and "k-topic". Context names the
    top keyword; tags mirror keywords with a "topic:" prefix.
    """
    tokens = _tokenize(content)
    candidates = [token for token in tokens if token not in _STOPWORDS]
    if not candidates:
        candidates = tokens
    counts = Counter(candidates)
    ranked = sorted(counts, key=lambda token: (-counts[token], token))
    keywords = ranked[:3]
    base = keywords[0] if keywords else "text"
    if not keywords:
        # Content with no word tokens at all still needs three keywords.
        keywords = [base]
    for suffix in ("-note", "-topic"):
        if len(keywords) >= 3:
            break
        padded = base + suffix
        if padded not in keywords:
            keywords.append(padded)
    context = f"Discusses {keywords[0]} and related topics."
    tags = ["topic:" + keyword for keyword in keywords]
    return {"keywords": keywords, "context": context, "tags": tags}


def _shared_keywords(new_note: MemoryNote, neighbor: MemoryNote) -> list[str]:
    return sorted(set(new_note.keywords) & set(neighbor.keywords))


def mock_link_opinion(new_note: MemoryNote, neighbors: Sequence[MemoryNote]) -> dict[str, Any]:
    """Mock rule: evolve exactly when any neighbor shares a keyword."""
    shared: list[str] = []
    for neighbor in neighbors:
        for keyword in _shared_keywords(new_note, neighbor):
            if keyword not in shared:
                shared.append(keyword)
    if shared:
        return {
            "should_evolve": True,
            "rationale": "Shares keywords with neighbors: " + ", ".join(sorted(shared)) + ".",
        }
    return {"should_evolve": False, "rationale": "No keyword overlap with any neighbor."}


def mock_evolution_directive(
    new_note: MemoryNote, neighbors: Sequence[MemoryNote]
) -> dict[str, Any]:
    """Mock rule for the s3 decision.

    A neighbor sharing at least one keyword gets connected, and each shared
    keyword k contributes tag "topic:k" for the new note. A neighbor sharing
    two or more keywords is additionally rewritten: fresh context naming the
    first two shared keywords, and tags extended with the shared topics.
    """
    connections: list[str] = []
    tags_to_update: list[str] = []
    contexts = [""] * len(neighbors)
    tag_lists: list[list[str]] = [[] for _ in neighbors]
    any_rewrite = False
    for position, neighbor in enumerate(neighbors):
        shared = _shared_keywords(new_note, neighbor)
        if not shared:
            continue
        connections.append(neighbor.id)
        for keyword in shared:
            tag = "topic:" + keyword
            if tag not in tags_to_update:
                tags_to_update.append(tag)
        if len(shared) >= 2:
            any_rewrite = True
            contexts[position] = (
                f"Expands on {shared[0]} and {shared[1]} with newer material."
            )
            merged = list(neighbor.tags)
            for keyword in shared:
                tag = "topic:" + keyword
                if tag not in merged:
                    merged.append(tag)
            tag_lists[position] = merged
    if not connections:
        keys = _RESPONSE_SCHEMAS["evolution_directive"]["required"]
        return {**{key: [] for key in keys}, "should_evolve": False}
    actions = ["strengthen"] + (["update_neighbor"] if any_rewrite else [])
    return {
        "should_evolve": True,
        "actions": actions,
        "suggested_connections": connections,
        "tags_to_update": tags_to_update,
        "new_context_neighborhood": contexts,
        "new_tags_neighborhood": tag_lists,
    }


# ---------------------------------------------------------------------------
# Backends


class ChatBackend(Protocol):
    """A backend turns one task payload into a parsed JSON object: s1's holds
    content and timestamp, s2's and s3's new_note and its ranked neighbors."""

    name: str

    def complete(self, task: str, payload: Mapping[str, Any]) -> Any: ...


class MockBackend:
    """Offline backend driven entirely by the deterministic rules above."""

    name = "mock"

    def complete(self, task: str, payload: Mapping[str, Any]) -> Any:
        if task == "note_attributes":
            return mock_note_attributes(payload["content"], payload["timestamp"])
        if task == "link_opinion":
            return mock_link_opinion(payload["new_note"], payload["neighbors"])
        if task == "evolution_directive":
            return mock_evolution_directive(payload["new_note"], payload["neighbors"])
        raise ValueError(f"unknown gateway task: {task!r}")


def _strip_code_fences(text: str) -> str:
    stripped = text.strip()
    if not stripped.startswith("```"):
        return stripped
    lines = stripped.splitlines()
    if lines and lines[0].startswith("```"):
        lines = lines[1:]
    if lines and lines[-1].strip() == "```":
        lines = lines[:-1]
    return "\n".join(lines).strip()


def _task_prompt(task: str, payload: Mapping[str, Any]) -> str:
    """The task's template (s1, s2 or s3) rendered from its payload."""
    if task == "note_attributes":
        return render_prompt("s1", payload)
    new_note = payload["new_note"]
    return render_prompt(
        {"link_opinion": "s2", "evolution_directive": "s3"}[task],
        {
            "context": new_note.context,
            "content": new_note.content,
            "keywords": ", ".join(new_note.keywords),
            "nearest_neighbors_memories": render_neighbors(payload["neighbors"]),
        },
    )


class RemoteChatBackend:
    """Chat-completion client for an OpenAI-style HTTP endpoint.

    Each request carries the model name, a single user message, and a JSON
    schema response-format block for the task at hand. A semaphore bounds
    the requests in flight to max_in_flight, an int >= 1 and not a bool.
    Transport failures and malformed response envelopes raise
    BackendUnavailable; completion text that fails to parse as a JSON
    object raises SchemaViolation so the gateway's retry loop can ask again.
    """

    name = "remote"

    def __init__(
        self,
        url: str,
        model: str,
        timeout: float = 60.0,
        session: requests.Session | None = None,
        api_key: str | None = None,
        max_in_flight: int = 4,
    ) -> None:
        if not _is_count(max_in_flight):
            raise ValueError(f"max_in_flight must be >= 1, got {max_in_flight}")
        self.url = url
        self.model = model
        self.timeout = timeout
        self._session = session if session is not None else requests.Session()
        self._api_key = api_key if api_key is not None else os.environ.get(LLM_API_KEY_ENV)
        self._slots = threading.BoundedSemaphore(max_in_flight)

    def complete(self, task: str, payload: Mapping[str, Any]) -> Any:
        prompt = _task_prompt(task, payload)
        body = {
            "model": self.model,
            "messages": [{"role": "user", "content": prompt}],
            "response_format": {
                "type": "json_schema",
                "json_schema": {"name": task, "schema": _RESPONSE_SCHEMAS[task]},
            },
        }
        logger.debug(
            "chat request: task=%s model=%s prompt=[redacted %d chars]",
            task,
            self.model,
            len(prompt),
        )
        with self._slots:
            response = post_json(
                self._session, self.url, body, self._api_key, self.timeout, "chat"
            )
        try:
            envelope = response.json()
            content = envelope["choices"][0]["message"]["content"]
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            raise BackendUnavailable(f"malformed completion envelope: {exc}") from exc
        if not isinstance(content, str):
            raise BackendUnavailable("completion content is not text")
        logger.debug("chat response: task=%s content=[redacted %d chars]", task, len(content))
        try:
            parsed = json.loads(_strip_code_fences(content))
        except json.JSONDecodeError as exc:
            raise SchemaViolation(f"completion is not valid JSON: {exc}") from exc
        return parsed


# ---------------------------------------------------------------------------
# Gateway


class LlmGateway:
    """Validated front door to whichever chat backend is configured.

    Each call hands the backend one payload through _ask, the one retry
    path: a schema-violating response is retried up to MAX_RETRIES times.
    After that, attribute extraction and the link opinion fall back to
    asking MockBackend the same payload (an answer is always produced), and
    the evolution directive raises, since silently inventing rewrites would
    be worse than skipping evolution.
    """

    def __init__(self, backend: ChatBackend | None = None) -> None:
        self._backend: ChatBackend = backend if backend is not None else MockBackend()

    def _ask(self, task: str, payload: Mapping[str, Any], parse: Callable[[Any], Any]) -> Any:
        for attempt in range(MAX_RETRIES + 1):
            try:
                return parse(self._backend.complete(task, payload))
            except SchemaViolation as exc:
                error = exc
                logger.warning(
                    "schema violation from %s backend on %s (attempt %d/%d): %s",
                    self._backend.name,
                    task,
                    attempt + 1,
                    MAX_RETRIES + 1,
                    exc,
                )
        if task == "evolution_directive":
            raise error
        logger.warning("falling back to the mock backend on %s", task)
        return parse(MockBackend().complete(task, payload))

    def generate_note_attributes(self, content: str, timestamp: str) -> NoteAttributes:
        """Run the s1 analysis for new content."""
        if not isinstance(content, str) or not content.strip():
            raise EmptyContent("cannot analyze empty content")
        validate_timestamp(timestamp)
        payload = {"content": content, "timestamp": timestamp}
        return self._ask("note_attributes", payload, parse_note_attributes)

    def opine_links(self, new_note: MemoryNote, neighbors: Sequence[MemoryNote]) -> LinkOpinion:
        """Run the s2 should-this-memory-evolve question."""
        if not neighbors:
            raise ValueError("opine_links requires at least one neighbor")
        payload = {"new_note": new_note, "neighbors": list(neighbors)}
        return self._ask("link_opinion", payload, parse_link_opinion)

    def propose_evolution(
        self, new_note: MemoryNote, neighbors: Sequence[MemoryNote]
    ) -> EvolutionDirective:
        """Run the s3 evolution decision. The directive comes back as the
        model gave it; the engine maps it onto the neighbors."""
        if not neighbors:
            raise ValueError("propose_evolution requires at least one neighbor")
        payload = {"new_note": new_note, "neighbors": list(neighbors)}
        return self._ask("evolution_directive", payload, parse_evolution_directive)
