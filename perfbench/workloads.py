"""The workloads of the amem benchmark, their timed loops and output checks.

Each workload is a closed loop with one client in one thread: the next call
starts when the previous one returned. Every run uses the mock backend, the
hash encoder, explicit timestamps and a fixed id seed, so one seed always
builds the same store. The flush policy is the engine's own: one fsync per
add, plus one more when the add evolves neighbours.

A workload builds its starting state (``setup``), runs a few untimed
warm-up units, then repeats ``unit`` while the next one should end within
``seconds`` or the run lacks samples, then checks its outputs. Each timed call into amem goes through ``Recorder.call``, which is
also where a traced run opens the root span of an operation.

See README.md in this directory for why each workload exists and which
metrics each layer should move.
"""

from __future__ import annotations

import hashlib
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Any, Callable

import numpy as np

from amem import (
    HashEncoder,
    IdGenerator,
    LlmGateway,
    MemoryEngine,
    MemoryNote,
    basis_vector,
    note_text,
    open_engine,
    snapshot_engine,
)

import spans
from inputs import TextSource, timestamp
from reference import Reference

RETRIEVE_K = 10


class OpFailed(Exception):
    """A timed call raised; the unit it belongs to stops there."""


@dataclass
class Recorder:
    """Samples (in seconds), counts and problems of one run.

    With a reference kernel, each timed call is followed by as many bursts
    of the kernel as keep it at its share of the time (see reference.py).
    """

    tracer: spans.Tracer | None = None
    reference: Reference | None = None
    op: list[float] = field(default_factory=list)
    aux: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def call(self, span: str, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> tuple[Any, float]:
        """Time one call into amem. Returns (result, seconds)."""
        self.attempted += 1
        try:
            if self.tracer is None:
                start = time.perf_counter()
                result = fn(*args, **kwargs)
                elapsed = time.perf_counter() - start
                if self.reference is not None:
                    self.reference.keep_up(elapsed)
                return result, elapsed
            with self.tracer.op(span):
                start = time.perf_counter()
                result = fn(*args, **kwargs)
                elapsed = time.perf_counter() - start
            return result, elapsed
        except Exception as exc:
            self.failed += 1
            self.problems.append(f"{span} raised {exc!r}")
            traceback.print_exc(file=sys.stderr)
            raise OpFailed(span) from exc

    def checks(self, count: int, problems: list[str]) -> None:
        """Count output checks, each as one operation; a failed one as failed."""
        self.attempted += count
        self.failed += len(problems)
        self.problems += problems

    def check(self, ok: bool, problem: str) -> None:
        self.checks(1, [] if ok else [problem])


@dataclass(frozen=True)
class Sizes:
    """Input sizes; ``scale`` shrinks them for the benchmark's own tests."""

    ingest_adds: int = 3000
    recall_notes: int = 10_000
    recall_min_queries: int = 1000
    reopen_before_snapshot: int = 400
    reopen_after_snapshot: int = 100

    @classmethod
    def scaled(cls, scale: float) -> "Sizes":
        base = cls()
        return cls(
            **{f.name: max(2, int(getattr(base, f.name) * scale)) for f in fields(base)}
        )


def store_digest(store_dir: Path) -> str:
    """sha256 over the store's files, in name order."""
    digest = hashlib.sha256()
    for path in sorted(store_dir.iterdir()):
        digest.update(path.name.encode("utf-8") + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def store_bytes(store_dir: Path) -> int:
    return sum(path.stat().st_size for path in store_dir.iterdir())


class Workload:
    """Shared plumbing: fresh store directories and traced components."""

    name = ""
    setups = 3
    warmup_units = 0
    # The reference kernels that op_p50_rel and aux_p50_rel divide by (see
    # reference.py): for each operation, the one whose time moves with it.
    kernels = ("python", "python")

    def __init__(self, seed: int, sizes: Sizes, workdir: Path, source: TextSource) -> None:
        self.seed = seed
        self.sizes = sizes
        self.workdir = workdir
        self.source = source
        self.tracer: spans.Tracer | None = None
        self._dirs = 0
        self.store_sha256 = ""
        self.snapshot_sha256 = ""
        self.store_bytes_per_note = 0.0
        self.snapshot_bytes_per_note = 0.0

    def fresh_dir(self, label: str) -> Path:
        self._dirs += 1
        path = self.workdir / f"{label}-{self._dirs}"
        path.mkdir()
        return path

    def encoder(self) -> Any:
        # A fresh encoder per engine, so every engine starts with a cold
        # token cache, as it would in a new process.
        encoder = HashEncoder()
        return encoder if self.tracer is None else spans.TracedEncoder(encoder, self.tracer)

    def gateway(self) -> LlmGateway:
        return LlmGateway() if self.tracer is None else spans.TracedGateway(self.tracer)

    def add(self, rec: Recorder, engine: MemoryEngine, text: str, ts: str) -> tuple[str, float]:
        note_id, elapsed = rec.call("engine.add", engine.add_memory, text, ts)
        if rec.tracer is not None:
            rec.tracer.after_add(engine, note_id)
        return note_id, elapsed

    def setup(self) -> None:
        raise NotImplementedError

    def discard(self) -> None:
        """Drop the starting state built by setup."""
        raise NotImplementedError

    def unit(self, index: int, rec: Recorder) -> None:
        raise NotImplementedError

    def enough(self, rec: Recorder, units: int) -> bool:
        return units >= 1

    def trace_units(self) -> int:
        """Units in each half of a traced run."""
        return 1

    def check(self, rec: Recorder) -> None:
        """Check the outputs and record the store's size and digest."""
        raise NotImplementedError


class Ingest(Workload):
    """About 3000 adds into an empty durable store, then snapshots.

    One unit is one pass over the whole stream, starting from an empty
    store. The secondary operation is snapshot_engine of the ingested store.
    """

    name = "ingest"
    setups = 25
    # An add at up to 3000 notes is bound by its top_k scan and its copy of
    # the notes dict; a snapshot by canonical JSON.
    kernels = ("scan", "python")
    snapshots_per_pass = 10

    def __init__(self, *args: Any) -> None:
        super().__init__(*args)
        self.texts = self.source.notes(self.sizes.ingest_adds)
        self.digests: set[str] = set()

    def setup(self) -> None:
        self.dir = self.fresh_dir("ingest")
        self.engine = open_engine(
            self.dir, encoder=self.encoder(), gateway=self.gateway(), id_seed=self.seed
        )

    def discard(self) -> None:
        self.engine.close()
        self.engine = None
        shutil.rmtree(self.dir)

    def unit(self, index: int, rec: Recorder) -> None:
        if index > 0:
            self.discard()
            self.setup()
        for i, text in enumerate(self.texts):
            rec.op.append(self.add(rec, self.engine, text, timestamp(i))[1])
        for _ in range(self.snapshots_per_pass):
            self.snapshot, elapsed = rec.call(
                "persistence.snapshot_engine", snapshot_engine, self.engine, self.dir
            )
            rec.aux.append(elapsed)
        self.digests.add(store_digest(self.dir))
    def check(self, rec: Recorder) -> None:
        live = list(self.engine.iter_notes())
        # Reload the store as written, and a copy without its snapshot, so
        # that the journal alone is replayed as well.
        journal_only = self.workdir / "journal-only"
        shutil.copytree(self.dir, journal_only, ignore=shutil.ignore_patterns(self.snapshot.name))
        for store in (self.dir, journal_only):
            reloaded = open_engine(store, encoder=HashEncoder(), read_only=True)
            rec.check(
                list(reloaded.iter_notes()) == live,
                f"ingest: the store reloaded from {store.name} differs from the live engine",
            )
            reloaded.close()
        shutil.rmtree(journal_only)
        problems = self.engine.audit()
        rec.check(not problems, f"ingest: audit found {problems[:3]}")
        rec.check(
            len(self.digests) == 1, "ingest: passes over the same stream wrote different bytes"
        )
        rec.check(len(live) == len(self.texts), "ingest: note count differs from adds")
        self.store_sha256 = store_digest(self.dir)
        self.snapshot_sha256 = hashlib.sha256(self.snapshot.read_bytes()).hexdigest()
        self.store_bytes_per_note = store_bytes(self.dir) / len(live)
        self.snapshot_bytes_per_note = self.snapshot.stat().st_size / len(live)
        self.discard()


def oracle_top_k(
    engine: MemoryEngine, row_order: list[str], queries: list[str], k: int
) -> list[list[tuple[str, float]]]:
    """Exact top-k by one float64 matrix product and a full sort.

    Scores follow the index's documented arithmetic: the float32 rows,
    widened to float64 and kept in insertion order, times the float64
    query, over the product of float64 norms, clipped to [-1, 1]. Every
    row is then sorted by descending score with ids ascending on ties.
    """
    notes = {note.id: note for note in engine.iter_notes()}
    matrix = np.stack([notes[nid].embedding for nid in row_order]).astype(np.float64)
    norms = [float(np.sqrt(np.dot(row, row))) for row in matrix]
    results = []
    for query in queries:
        q = engine.encoder.encode(query).astype(np.float64)
        q_norm = float(np.sqrt(np.dot(q, q)))
        dots = matrix @ q
        scored = []
        for nid, dot, norm in zip(row_order, dots, norms):
            denom = norm * q_norm
            score = float(dot) / denom if denom > 0.0 else 0.0
            scored.append((-max(-1.0, min(1.0, score)), nid))
        scored.sort()
        results.append([(nid, -negative) for negative, nid in scored[:k]])
    return results


def ranking_mismatches(engine: Any, row_order: list[str], queries: list[str]) -> list[str]:
    """One problem per query whose retrieve ranking differs from the oracle's.

    Ids and scores must both match exactly.
    """
    want = oracle_top_k(engine, row_order, queries, RETRIEVE_K)
    problems = []
    for query, expected in zip(queries, want):
        got = [(hit.note.id, hit.score) for hit in engine.retrieve(query, RETRIEVE_K)]
        if got != expected:
            problems.append(f"recall: query {query!r} ranked {got[:2]}, oracle {expected[:2]}")
    return problems


class Recall(Workload):
    """Retrieve over a store of about 10k notes, with one add per 20 queries.

    The store is installed with adopt_state from notes built the way the
    pipeline builds them, and has no journal. The secondary operation is
    the interleaved add_memory.
    """

    name = "recall"
    warmup_units = 2
    kernels = ("scan", "scan")
    queries_per_add = 20
    check_queries = 25
    add_batch = 500

    def __init__(self, *args: Any) -> None:
        super().__init__(*args)
        self.texts = self.source.notes(self.sizes.recall_notes)
        self.adds: list[str] = []

    def setup(self) -> None:
        encoder = self.encoder()
        gateway = self.gateway()
        ids = IdGenerator(self.seed)
        blank = basis_vector(encoder.dimension)
        notes: dict[str, MemoryNote] = {}
        for i, text in enumerate(self.texts):
            ts = timestamp(i)
            attrs = gateway.generate_note_attributes(text, ts)
            draft = MemoryNote(
                id=ids.fresh(notes.keys()),
                content=text,
                timestamp=ts,
                keywords=tuple(attrs.keywords),
                tags=tuple(attrs.tags),
                context=attrs.context,
                embedding=blank,
            )
            notes[draft.id] = replace(draft, embedding=encoder.encode(note_text(draft)))
        self.engine = MemoryEngine(encoder, gateway, id_seed=self.seed + 1)
        self.engine.adopt_state(notes)
        # adopt_state loads rows in id order; adds append after them.
        self.row_order = sorted(notes)

    def discard(self) -> None:
        self.engine.close()
        self.engine = None

    def unit(self, index: int, rec: Recorder) -> None:
        for _ in range(self.queries_per_add):
            query = self.source.query()
            rec.op.append(rec.call("engine.retrieve", self.engine.retrieve, query, RETRIEVE_K)[1])
        if index >= len(self.adds):
            self.adds += self.source.notes(self.add_batch)
        ts = timestamp(len(self.texts) + index)
        note_id, elapsed = self.add(rec, self.engine, self.adds[index], ts)
        rec.aux.append(elapsed)
        self.row_order.append(note_id)

    def enough(self, rec: Recorder, units: int) -> bool:
        return len(rec.op) >= self.sizes.recall_min_queries

    def trace_units(self) -> int:
        return max(1, self.sizes.recall_min_queries // self.queries_per_add)

    def check(self, rec: Recorder) -> None:
        queries = [self.source.query() for _ in range(self.check_queries)]
        rec.checks(len(queries), ranking_mismatches(self.engine, self.row_order, queries))
        problems = self.engine.audit(verify_embeddings=False)
        rec.check(not problems, f"recall: audit found {problems[:3]}")
        store = self.fresh_dir("recall-snapshot")
        snapshot = snapshot_engine(self.engine, store)
        self.store_sha256 = self.snapshot_sha256 = hashlib.sha256(snapshot.read_bytes()).hexdigest()
        self.store_bytes_per_note = store_bytes(store) / len(self.engine)
        self.snapshot_bytes_per_note = snapshot.stat().st_size / len(self.engine)
        shutil.rmtree(store)
        self.discard()


class Reopen(Workload):
    """Repeated open_engine + close of a durable store, and snapshots of it.

    Setup writes the store through the real pipeline: 400 adds, an
    uncompacted snapshot, then 100 more adds, so the journal holds
    events both covered and not covered by the snapshot. The secondary
    operation is snapshot_engine of the reopened store into a copy of it.
    """

    name = "reopen"
    warmup_units = 1
    min_units = 3

    def __init__(self, *args: Any) -> None:
        super().__init__(*args)
        before = self.sizes.reopen_before_snapshot
        self.texts = self.source.notes(before + self.sizes.reopen_after_snapshot)
        self.before = before
        self.setup_digests: set[str] = set()
        self.snapshot_digests: set[str] = set()

    def setup(self) -> None:
        self.dir = self.fresh_dir("reopen")
        engine = open_engine(
            self.dir, encoder=self.encoder(), gateway=self.gateway(), id_seed=self.seed
        )
        try:
            for i, text in enumerate(self.texts):
                if i == self.before:
                    snapshot_engine(engine, self.dir)
                engine.add_memory(text, timestamp(i))
            self.expected = list(engine.iter_notes())
        finally:
            engine.close()
        self.setup_digests.add(store_digest(self.dir))

    def discard(self) -> None:
        shutil.rmtree(self.dir)

    def unit(self, index: int, rec: Recorder) -> None:
        engine, open_s = rec.call(
            "persistence.open_engine",
            open_engine,
            self.dir,
            encoder=self.encoder(),
            gateway=self.gateway(),
            id_seed=self.seed,
        )
        try:
            rec.check(
                list(engine.iter_notes()) == self.expected,
                "reopen: reopened notes differ from the notes that wrote the store",
            )
            copy = self.workdir / f"copy-{index}"
            shutil.copytree(self.dir, copy)
            snapshot, snapshot_s = rec.call(
                "persistence.snapshot_engine", snapshot_engine, engine, copy
            )
            rec.aux.append(snapshot_s)
            self.snapshot_digests.add(hashlib.sha256(snapshot.read_bytes()).hexdigest())
            self.snapshot_bytes_per_note = snapshot.stat().st_size / len(self.expected)
            shutil.rmtree(copy)
        finally:
            _, close_s = rec.call("engine.close", engine.close)
        rec.op.append(open_s + close_s)

    def enough(self, rec: Recorder, units: int) -> bool:
        return units >= self.min_units

    def trace_units(self) -> int:
        return 2

    def check(self, rec: Recorder) -> None:
        rec.check(
            len(self.setup_digests) == 1, "reopen: repeated setups wrote different store bytes"
        )
        rec.check(
            len(self.snapshot_digests) == 1, "reopen: snapshots of the same store differ"
        )
        self.store_sha256 = store_digest(self.dir)
        self.snapshot_sha256 = min(self.snapshot_digests, default="")
        self.store_bytes_per_note = store_bytes(self.dir) / len(self.expected)
        self.discard()


WORKLOADS: dict[str, type[Workload]] = {
    workload.name: workload for workload in (Ingest, Recall, Reopen)
}


@dataclass
class RunResult:
    workload: Workload
    rec: Recorder
    setup_s: list[float]
    loop_s: float
    units: int
    peak_rss_mb: float
    reference_s: dict[str, list[float]] = field(default_factory=dict)
    trace_baseline_s: float = 0.0
    trace_traced_s: float = 0.0


def _run_units(workload: Workload, rec: Recorder, first: int, count: int) -> float:
    start = time.perf_counter()
    for index in range(first, first + count):
        try:
            workload.unit(index, rec)
        except OpFailed:
            pass
    return time.perf_counter() - start


def _check(workload: Workload, rec: Recorder) -> None:
    try:
        workload.check(rec)
    except Exception as exc:
        traceback.print_exc(file=sys.stderr)
        rec.check(False, f"{workload.name}: check raised {exc!r}")


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run(
    name: str, seed: int, seconds: float, sizes: Sizes, workdir: Path, dialogue: list[str]
) -> RunResult:
    """The untraced run: repeated setups, warm-up, then units until time and samples suffice.

    A unit starts only if, at the mean unit time so far, it should end within
    ``seconds``, so a run of long units (an ingest pass) does not overrun
    by a whole unit. Warm-up units count as attempted operations, but their
    samples are dropped.
    """
    workload = WORKLOADS[name](seed, sizes, workdir, TextSource(seed, dialogue))
    setup_s = []
    for attempt in range(workload.setups):
        if attempt:
            workload.discard()
        start = time.perf_counter()
        workload.setup()
        setup_s.append(time.perf_counter() - start)
    reference = Reference()
    rec = Recorder(reference=reference)
    warmup = workload.warmup_units
    _run_units(workload, rec, 0, warmup)
    rec.op.clear()
    rec.aux.clear()
    reference.restart()
    start = time.perf_counter()
    units = 0
    peak = 0.0
    while True:
        elapsed = time.perf_counter() - start
        due = not units or elapsed + elapsed / units <= seconds
        if not due and workload.enough(rec, units):
            break
        _run_units(workload, rec, warmup + units, 1)
        units += 1
        if not peak and workload.enough(rec, units):
            # Read once the fixed minimum of work is done, so the figure
            # does not grow with the number of units that fit in the time.
            peak = _peak_rss_mb()
    loop_s = time.perf_counter() - start
    rec.reference = None
    _check(workload, rec)
    return RunResult(workload, rec, setup_s, loop_s, units, peak, reference.samples)


def run_traced(
    name: str, seed: int, sizes: Sizes, workdir: Path, dialogue: list[str]
) -> RunResult:
    """The traced run: a fixed number of units untraced, then as many traced.

    The counts of the traced units repeat exactly for a seed. The untraced
    units run on an engine built without the timing wrappers; the traced
    time minus their time is the tracing overhead.
    """
    workload = WORKLOADS[name](seed, sizes, workdir, TextSource(seed, dialogue))
    rec = Recorder()
    units = workload.trace_units()
    workload.setup()
    baseline_s = _run_units(workload, rec, 0, units)
    workload.discard()
    tracer = spans.Tracer()
    with spans.installed(tracer):
        workload.tracer = tracer
        workload.setup()
        rec.tracer = tracer
        traced_s = _run_units(workload, rec, units, units)
        rec.tracer = None
        peak = _peak_rss_mb()
        _check(workload, rec)
    return RunResult(
        workload, rec, [], baseline_s + traced_s, 2 * units, peak, {}, baseline_s, traced_s
    )


# (name, unit) of every end-to-end metric, in report order.
END_TO_END_METRICS = (
    ("setup_s", "s"),
    ("op_p50_rel", "x"),
    ("aux_p50_rel", "x"),
    ("peak_rss_mb", "MB"),
    ("store_bytes_per_note", "B"),
    ("snapshot_bytes_per_note", "B"),
)


def end_to_end(result: RunResult) -> dict[str, float]:
    """The end-to-end metrics of an untraced run."""
    rec, workload = result.rec, result.workload
    op = rec.op or [0.0]
    aux = rec.aux or [0.0]
    op_kernel, aux_kernel = (statistics.median(result.reference_s[k]) for k in workload.kernels)
    return {
        "setup_s": statistics.median(result.setup_s),
        "op_p50_rel": statistics.median(op) / op_kernel,
        "aux_p50_rel": statistics.median(aux) / aux_kernel,
        "peak_rss_mb": result.peak_rss_mb,
        "store_bytes_per_note": workload.store_bytes_per_note,
        "snapshot_bytes_per_note": workload.snapshot_bytes_per_note,
    }


def medians_ms(result: RunResult) -> dict[str, float]:
    """Median times in ms of the operations and of the reference kernels."""
    samples = {"op": result.rec.op, "aux": result.rec.aux}
    samples.update({f"kernel.{name}": values for name, values in result.reference_s.items()})
    return {name: statistics.median(values) * 1e3 for name, values in samples.items() if values}


def percentile(values: list[float], pct: int) -> float:
    """The pct-th percentile, interpolated between the closest ranks."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def tail(values: list[float]) -> dict[str, float] | None:
    """The highest of p99 and p90 with at least ten samples beyond it, in ms.

    Reported beside the metrics but not one of them: on a shared host a
    tail moves with the other tenants' load more than a median does.
    """
    for pct in (99, 90):
        if len(values) * (100 - pct) >= 1000:
            return {"pct": pct, "ms": percentile(values, pct) * 1e3, "samples": len(values)}
    return None
