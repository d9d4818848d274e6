"""In-memory span tracing around the calls into each amem layer.

A traced run records one span per call at each layer boundary: its name,
start and end (``perf_counter_ns``), the index of the enclosing span, and
the id of the benchmark operation it belongs to. Spans are kept in a list
and written out when the run ends.

The spans are taken from this benchmark's own files, never from inside the
engine. The injected encoder and gateway are wrapped; timing subclasses of
``VectorIndex`` and ``Journal`` replace the classes that ``amem.engine`` and
``amem.persistence`` construct; and the module-level functions of
``amem.persistence`` (plus the ``amem.notes`` functions it calls) are
replaced by timing wrappers for the length of the traced run.

A span's self time is its duration minus the durations of its direct
children, so the self times of an operation's spans add up to the
operation's traced time.
"""

from __future__ import annotations

import functools
import json
import logging
import statistics
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter_ns
from typing import Any, Callable, Iterator

import amem.engine as engine_module
import amem.persistence as persistence
from amem import Journal, LlmGateway, MemoryNote, VectorIndex

# The persistence functions whose time the per-layer metrics report.
PERSISTENCE_FUNCTIONS = (
    "load_store",
    "read_snapshot",
    "read_journal",
    "replay_events",
    "write_snapshot",
)
# amem.notes functions as amem.persistence imported them.
NOTES_FUNCTIONS = ("canonical_json", "note_from_fields")


class Tracer:
    """Collects spans for the operations a traced run times.

    Spans are recorded only inside an operation opened with ``op``; calls
    made while building a workload's starting state leave no spans.
    """

    def __init__(self) -> None:
        # Each span is [name, start_ns, end_ns, parent_index, op_id].
        self.spans: list[list[Any]] = []
        self.counts: Counter[str] = Counter()
        self._stack: list[int] = []
        self._op = 0
        self._neighbors: list[MemoryNote] = []

    @contextmanager
    def op(self, name: str) -> Iterator[None]:
        """One benchmark operation: the root span of its own op id."""
        self._op += 1
        self._neighbors = []
        with self._record(name):
            yield

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        if not self._stack:
            yield
            return
        with self._record(name):
            yield

    @contextmanager
    def _record(self, name: str) -> Iterator[None]:
        record = [name, 0, 0, self._stack[-1] if self._stack else -1, self._op]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        record[1] = perf_counter_ns()
        try:
            yield
        finally:
            record[2] = perf_counter_ns()
            self._stack.pop()

    def count(self, name: str, amount: int = 1) -> None:
        if self._stack:
            self.counts[name] += amount

    def saw_neighbors(self, neighbors: list[MemoryNote]) -> None:
        if self._stack:
            self._neighbors = neighbors

    def after_add(self, engine: Any, note_id: str) -> None:
        """Count the links and neighbour rewrites of the add that just ended."""
        self.counts["engine.links"] += len(engine.get_note(note_id).links)
        for before in self._neighbors:
            after = engine.get_note(before.id)
            if after.context != before.context or after.tags != before.tags:
                self.counts["engine.rewrites"] += 1
        self._neighbors = []

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent, op in self.spans:
                handle.write(
                    json.dumps(
                        {"name": name, "start_ns": start, "end_ns": end, "parent": parent, "op": op},
                        separators=(",", ":"),
                    )
                    + "\n"
                )


class TracedEncoder:
    """The injected encoder, with a span around each call."""

    def __init__(self, inner: Any, tracer: Tracer) -> None:
        self._inner = inner
        self._tracer = tracer
        self.dimension = inner.dimension
        self.deterministic = inner.deterministic

    def encode(self, text: str) -> Any:
        with self._tracer.span("embedding.encode"):
            return self._inner.encode(text)

    def encode_many(self, texts: Any) -> Any:
        with self._tracer.span("embedding.encode_many"):
            return self._inner.encode_many(texts)


class TracedGateway(LlmGateway):
    """The gateway with a span around each of the three model calls."""

    def __init__(self, tracer: Tracer) -> None:
        super().__init__()
        self._tracer = tracer

    def generate_note_attributes(self, content: str, timestamp: str) -> Any:
        with self._tracer.span("gateway.s1"):
            return super().generate_note_attributes(content, timestamp)

    def opine_links(self, new_note: MemoryNote, neighbors: Any) -> Any:
        self._tracer.saw_neighbors(list(neighbors))
        with self._tracer.span("gateway.s2"):
            return super().opine_links(new_note, neighbors)

    def propose_evolution(self, new_note: MemoryNote, neighbors: Any) -> Any:
        with self._tracer.span("gateway.s3"):
            return super().propose_evolution(new_note, neighbors)


def _index_class(tracer: Tracer) -> type:
    class TracedIndex(VectorIndex):
        def insert(self, note_id: str, vector: Any) -> None:
            with tracer.span("index.insert"):
                super().insert(note_id, vector)

        def update(self, note_id: str, vector: Any) -> None:
            with tracer.span("index.update"):
                super().update(note_id, vector)

        def bulk_load(self, ids: Any, vectors: Any) -> None:
            with tracer.span("index.bulk_load"):
                super().bulk_load(ids, vectors)

        def top_k(self, query: Any, k: int, exclude: Any = ()) -> Any:
            tracer.count("index.rows_scanned", len(self))
            with tracer.span("index.top_k"):
                return super().top_k(query, k, exclude)

    return TracedIndex


def _journal_class(tracer: Tracer) -> type:
    class TracedJournal(Journal):
        def note_added(self, note: MemoryNote) -> None:
            with tracer.span("journal.append"):
                super().note_added(note)

        def note_evolved(self, note: MemoryNote) -> None:
            with tracer.span("journal.append"):
                super().note_evolved(note)

        def links_changed(self, note_id: str, added: Any, removed: Any) -> None:
            with tracer.span("journal.append"):
                super().links_changed(note_id, added, removed)

        def sync(self) -> None:
            with tracer.span("journal.sync"):
                super().sync()

        def close(self) -> None:
            with tracer.span("journal.close"):
                super().close()

    return TracedJournal


def _traced_function(tracer: Tracer, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
    @functools.wraps(fn)
    def traced(*args: Any, **kwargs: Any) -> Any:
        with tracer.span(name):
            result = fn(*args, **kwargs)
        if name == "persistence.read_journal":
            tracer.count("persistence.events_parsed", len(result[0]))
        elif name == "persistence.replay_events":
            start_after = kwargs.get("start_after", args[2] if len(args) > 2 else 0)
            tracer.count("persistence.events_replayed", result - start_after)
        return result

    return traced


class _GatewayLogCounter(logging.Handler):
    """Counts the gateway's retry and fallback warnings."""

    def __init__(self, tracer: Tracer) -> None:
        super().__init__(logging.WARNING)
        self._tracer = tracer

    def emit(self, record: logging.LogRecord) -> None:
        message = record.getMessage()
        if message.startswith("schema violation"):
            self._tracer.count("gateway.schema_retries")
        elif message.startswith("falling back"):
            self._tracer.count("gateway.fallbacks")


@contextmanager
def installed(tracer: Tracer) -> Iterator[None]:
    """Substitute the timing classes and wrappers for the traced run."""
    patches: list[tuple[Any, str, Any]] = [
        (engine_module, "VectorIndex", _index_class(tracer)),
        (persistence, "Journal", _journal_class(tracer)),
    ]
    for name in PERSISTENCE_FUNCTIONS:
        fn = getattr(persistence, name)
        patches.append((persistence, name, _traced_function(tracer, "persistence." + name, fn)))
    for name in NOTES_FUNCTIONS:
        fn = getattr(persistence, name)
        patches.append((persistence, name, _traced_function(tracer, "notes." + name, fn)))
    saved = [(module, name, getattr(module, name)) for module, name, _ in patches]
    handler = _GatewayLogCounter(tracer)
    gateway_logger = logging.getLogger("amem.gateway")
    gateway_logger.addHandler(handler)
    try:
        for module, name, value in patches:
            setattr(module, name, value)
        yield
    finally:
        for module, name, value in saved:
            setattr(module, name, value)
        gateway_logger.removeHandler(handler)


# ---------------------------------------------------------------------------
# Per-layer metrics

# (name, unit, better) of every per-layer metric, in report order. Most are
# work or time, where lower is better; the useful-outcome ratios are higher.
LAYER_METRICS = (
    ("embedding.encode.calls", "count", "lower"),
    ("embedding.encode.self_ms", "ms", "lower"),
    ("embedding.encode.p50_us", "us", "lower"),
    ("index.top_k.calls", "count", "lower"),
    ("index.top_k.p50_us", "us", "lower"),
    ("index.top_k.self_ms", "ms", "lower"),
    ("index.rows_scanned_per_query", "rows", "lower"),
    ("index.insert.ms", "ms", "lower"),
    ("index.update.ms", "ms", "lower"),
    ("index.bulk_load.ms", "ms", "lower"),
    ("gateway.s1.calls", "count", "lower"),
    ("gateway.s1.self_ms", "ms", "lower"),
    ("gateway.s2.calls", "count", "lower"),
    ("gateway.s2.self_ms", "ms", "lower"),
    ("gateway.s3.calls", "count", "lower"),
    ("gateway.s3.self_ms", "ms", "lower"),
    ("gateway.s3_per_s2", "ratio", "higher"),
    ("gateway.schema_retries", "count", "lower"),
    ("gateway.fallbacks", "count", "lower"),
    ("engine.add.calls", "count", "lower"),
    ("engine.add.ms", "ms", "lower"),
    ("engine.add.self_ms", "ms", "lower"),
    ("engine.links_per_add", "ratio", "higher"),
    ("engine.rewrites_per_add", "ratio", "higher"),
    ("engine.reencodes_per_add", "ratio", "lower"),
    ("engine.retrieve.calls", "count", "lower"),
    ("engine.retrieve.self_ms", "ms", "lower"),
    ("notes.canonical_json.calls", "count", "lower"),
    ("notes.canonical_json.ms", "ms", "lower"),
    ("notes.note_from_fields.calls", "count", "lower"),
    ("notes.note_from_fields.ms", "ms", "lower"),
    ("persistence.journal.append_ms", "ms", "lower"),
    ("persistence.journal.sync_ms", "ms", "lower"),
    ("persistence.journal.syncs_per_add", "ratio", "lower"),
    ("persistence.journal.events_per_add", "ratio", "lower"),
    ("persistence.open_engine.ms", "ms", "lower"),
    ("persistence.read_snapshot_ms", "ms", "lower"),
    ("persistence.read_journal_ms", "ms", "lower"),
    ("persistence.replay_ms", "ms", "lower"),
    ("persistence.verify_ms", "ms", "lower"),
    ("persistence.events_parsed", "count", "lower"),
    ("persistence.events_replayed", "count", "lower"),
    ("persistence.snapshot_engine.ms", "ms", "lower"),
    ("persistence.write_snapshot_ms", "ms", "lower"),
    ("trace.spans", "count", "lower"),
    ("trace.overhead_ms", "ms", "lower"),
    ("trace.overhead_pct", "%", "lower"),
)

# Children of load_store that are not embedding verification.
_LOAD_PARTS = ("persistence.read_snapshot", "persistence.read_journal", "persistence.replay_events")


class SpanStats:
    """Calls, total, self time and durations of each span name.

    With ``ops`` given, only the spans of those operations are counted.
    """

    def __init__(self, spans: list[list[Any]], ops: set[int] | None = None) -> None:
        durations = [end - start for _, start, end, _, _ in spans]
        child_ns = [0] * len(spans)
        load_parts_ns = [0] * len(spans)
        for index, (name, _, _, parent, _) in enumerate(spans):
            if parent >= 0:
                child_ns[parent] += durations[index]
                if name in _LOAD_PARTS:
                    load_parts_ns[parent] += durations[index]
        root_of_op = {op: name for name, _, _, parent, op in spans if parent < 0}
        self.calls: Counter[str] = Counter()
        self.total_ns: Counter[str] = Counter()
        self.self_ns: Counter[str] = Counter()
        self.durations: defaultdict[str, list[int]] = defaultdict(list)
        self.verify_ns = 0
        self.add_encodes = 0
        for index, (name, _, _, _, op) in enumerate(spans):
            if ops is not None and op not in ops:
                continue
            self.calls[name] += 1
            self.total_ns[name] += durations[index]
            self.self_ns[name] += durations[index] - child_ns[index]
            self.durations[name].append(durations[index])
            if name == "persistence.load_store":
                self.verify_ns += durations[index] - load_parts_ns[index]
            elif name == "embedding.encode" and root_of_op[op] == "engine.add":
                self.add_encodes += 1

    def p50(self, name: str) -> float:
        values = self.durations.get(name)
        return statistics.median(values) if values else 0.0


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(tracer: Tracer, overhead_s: float, baseline_s: float) -> dict[str, float]:
    """Every per-layer metric, from the spans and counts of a traced run."""
    stats = SpanStats(tracer.spans)
    counts = tracer.counts
    adds = stats.calls["engine.add"]
    ms = 1e-6
    values = {
        "embedding.encode.calls": stats.calls["embedding.encode"],
        "embedding.encode.self_ms": stats.self_ns["embedding.encode"] * ms,
        "embedding.encode.p50_us": stats.p50("embedding.encode") * 1e-3,
        "index.top_k.calls": stats.calls["index.top_k"],
        "index.top_k.p50_us": stats.p50("index.top_k") * 1e-3,
        "index.top_k.self_ms": stats.self_ns["index.top_k"] * ms,
        "index.rows_scanned_per_query": _ratio(
            counts["index.rows_scanned"], stats.calls["index.top_k"]
        ),
        "index.insert.ms": stats.total_ns["index.insert"] * ms,
        "index.update.ms": stats.total_ns["index.update"] * ms,
        "index.bulk_load.ms": stats.total_ns["index.bulk_load"] * ms,
        "gateway.schema_retries": counts["gateway.schema_retries"],
        "gateway.fallbacks": counts["gateway.fallbacks"],
        "gateway.s3_per_s2": _ratio(stats.calls["gateway.s3"], stats.calls["gateway.s2"]),
        "engine.add.calls": adds,
        "engine.add.ms": stats.total_ns["engine.add"] * ms,
        "engine.add.self_ms": stats.self_ns["engine.add"] * ms,
        "engine.links_per_add": _ratio(counts["engine.links"], adds),
        "engine.rewrites_per_add": _ratio(counts["engine.rewrites"], adds),
        "engine.reencodes_per_add": _ratio(stats.add_encodes - adds, adds),
        "engine.retrieve.calls": stats.calls["engine.retrieve"],
        "engine.retrieve.self_ms": stats.self_ns["engine.retrieve"] * ms,
        "notes.canonical_json.calls": stats.calls["notes.canonical_json"],
        "notes.canonical_json.ms": stats.total_ns["notes.canonical_json"] * ms,
        "notes.note_from_fields.calls": stats.calls["notes.note_from_fields"],
        "notes.note_from_fields.ms": stats.total_ns["notes.note_from_fields"] * ms,
        "persistence.journal.append_ms": stats.total_ns["journal.append"] * ms,
        "persistence.journal.sync_ms": stats.total_ns["journal.sync"] * ms,
        "persistence.journal.syncs_per_add": _ratio(stats.calls["journal.sync"], adds),
        "persistence.journal.events_per_add": _ratio(stats.calls["journal.append"], adds),
        "persistence.open_engine.ms": stats.total_ns["persistence.open_engine"] * ms,
        "persistence.read_snapshot_ms": stats.total_ns["persistence.read_snapshot"] * ms,
        "persistence.read_journal_ms": stats.total_ns["persistence.read_journal"] * ms,
        "persistence.replay_ms": stats.total_ns["persistence.replay_events"] * ms,
        "persistence.verify_ms": stats.verify_ns * ms,
        "persistence.events_parsed": counts["persistence.events_parsed"],
        "persistence.events_replayed": counts["persistence.events_replayed"],
        "persistence.snapshot_engine.ms": stats.total_ns["persistence.snapshot_engine"] * ms,
        "persistence.write_snapshot_ms": stats.total_ns["persistence.write_snapshot"] * ms,
        "trace.spans": len(tracer.spans),
        "trace.overhead_ms": overhead_s * 1e3,
        "trace.overhead_pct": _ratio(overhead_s, baseline_s) * 100.0,
    }
    for call in ("s1", "s2", "s3"):
        values[f"gateway.{call}.calls"] = stats.calls[f"gateway.{call}"]
        values[f"gateway.{call}.self_ms"] = stats.self_ns[f"gateway.{call}"] * ms
    return {name: values[name] for name, _, _ in LAYER_METRICS}


def add_breakdown(tracer: Tracer) -> dict[str, float]:
    """Milliseconds of every span under the add operations, by self time.

    The values add up to the traced add time, which is how the report shows
    that the child spans plus the add's own self time account for it.
    """
    add_ops = {op for name, _, _, parent, op in tracer.spans if parent < 0 and name == "engine.add"}
    stats = SpanStats(tracer.spans, add_ops)
    return {name: stats.self_ns[name] * 1e-6 for name in sorted(stats.self_ns)}
