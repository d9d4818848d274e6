"""Scaling benchmark: memory usage and retrieval latency across store sizes.

Populates an exact-scan index with seeded synthetic unit vectors at each
requested size, runs a fixed batch of top-k queries per size, and reports
exact vector storage bytes plus latency mean and standard deviation. Vector
data is deterministic per seed; timings of course are not. Synthetic vectors
rather than encoded text keep encoder cost out of the measurement.

Absolute latencies are hardware-dependent and are published as measured;
the stable claims are exact storage linearity (n * dimension * 4 bytes) and
latency growing with store size for an exact scan.
"""

from __future__ import annotations

import statistics
import threading
import time
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .embedding import DEFAULT_DIMENSION
from .errors import ResourceExhausted
from .index import VectorIndex

CSV_HEADER = "n_entries,vector_bytes,overhead_bytes,mean_latency_us,stddev_latency_us,queries"

CONCURRENT_CSV_HEADER = "n_entries,threads,total_queries,elapsed_s,throughput_qps"

DEFAULT_QUERIES = 200
DEFAULT_SEED = 42
DEFAULT_K = 10

# Upper bound on raw vector bytes for one benchmark size: 4 GiB.
DEFAULT_BUDGET_BYTES = 4 * 2**30

_WARMUP_QUERIES = 10

_NORMALIZE_CHUNK = 65536


@dataclass(frozen=True)
class BenchRow:
    """One line of the scaling report."""

    n_entries: int
    vector_bytes: int
    overhead_bytes: int
    mean_latency_us: float
    stddev_latency_us: float
    queries: int

    def __post_init__(self) -> None:
        if self.n_entries <= 0:
            raise ValueError("n_entries must be positive")
        if self.mean_latency_us < 0 or self.stddev_latency_us < 0:
            raise ValueError("latencies must be non-negative")
        if self.queries < 100:
            raise ValueError("a row needs at least 100 timed queries")


@dataclass(frozen=True)
class ConcurrentRow:
    """One line of the concurrent-reader throughput report."""

    n_entries: int
    threads: int
    total_queries: int
    elapsed_s: float
    throughput_qps: float


def synthetic_ids(n: int) -> list[str]:
    return [f"{i:032x}" for i in range(n)]


def synthetic_unit_vectors(
    rng: np.random.Generator, n: int, dimension: int
) -> np.ndarray:
    """(n, dimension) float32 matrix of unit-norm rows drawn from the generator."""
    matrix = rng.standard_normal((n, dimension), dtype=np.float32)
    for start in range(0, n, _NORMALIZE_CHUNK):
        stop = min(start + _NORMALIZE_CHUNK, n)
        block = matrix[start:stop].astype(np.float64)
        norms = np.sqrt(np.einsum("ij,ij->i", block, block))
        norms[norms == 0.0] = 1.0
        matrix[start:stop] = (block / norms[:, None]).astype(np.float32)
    return matrix


def _check_run_args(sizes: Sequence[int], queries_per_size: int, dimension: int, k: int) -> None:
    if not sizes:
        raise ValueError("sizes must be non-empty")
    for size in sizes:
        if not isinstance(size, int) or size <= 0:
            raise ValueError(f"sizes must be positive integers, got {size!r}")
    if list(sizes) != sorted(set(sizes)):
        raise ValueError("sizes must be strictly ascending")
    if queries_per_size < 100:
        raise ValueError("queries_per_size must be at least 100")
    if dimension < 1:
        raise ValueError("dimension must be >= 1")
    if k < 1:
        raise ValueError("k must be >= 1")


def _seeded_index(
    rng: np.random.Generator, n: int, dimension: int, budget_bytes: int
) -> VectorIndex:
    """An index of n seeded unit vectors; ResourceExhausted if they exceed budget_bytes."""
    needed = n * dimension * 4
    if needed > budget_bytes:
        raise ResourceExhausted(
            f"{n} vectors of dimension {dimension} need {needed} bytes, "
            f"budget is {budget_bytes}"
        )
    index = VectorIndex(dimension)
    index.bulk_load(synthetic_ids(n), synthetic_unit_vectors(rng, n, dimension))
    return index


def run_scaling(
    sizes: Sequence[int],
    queries_per_size: int = DEFAULT_QUERIES,
    seed: int = DEFAULT_SEED,
    dimension: int = DEFAULT_DIMENSION,
    k: int = DEFAULT_K,
    budget_bytes: int = DEFAULT_BUDGET_BYTES,
) -> list[BenchRow]:
    """Measure storage and query latency at each store size.

    Each size gets a fresh index filled with seeded unit vectors, 10
    discarded warm-up queries, then queries_per_size timed queries on a
    monotonic clock. Raises ResourceExhausted before allocating any size
    whose raw vectors would exceed budget_bytes.
    """
    _check_run_args(sizes, queries_per_size, dimension, k)
    rng = np.random.default_rng(seed)
    rows: list[BenchRow] = []
    for n in sizes:
        index = _seeded_index(rng, n, dimension, budget_bytes)
        queries = synthetic_unit_vectors(rng, queries_per_size, dimension)

        for q in queries[:_WARMUP_QUERIES]:
            index.top_k(q, k)
        timings_us: list[float] = []
        for q in queries:
            started = time.perf_counter_ns()
            index.top_k(q, k)
            timings_us.append((time.perf_counter_ns() - started) / 1000.0)

        vector_bytes, overhead_bytes = index.memory_bytes()
        rows.append(
            BenchRow(
                n_entries=n,
                vector_bytes=vector_bytes,
                overhead_bytes=overhead_bytes,
                mean_latency_us=statistics.fmean(timings_us),
                stddev_latency_us=statistics.stdev(timings_us) if len(timings_us) > 1 else 0.0,
                queries=queries_per_size,
            )
        )
        del index
    return rows


def run_concurrent(
    n_entries: int,
    threads: int,
    queries_per_thread: int = DEFAULT_QUERIES,
    seed: int = DEFAULT_SEED,
    dimension: int = DEFAULT_DIMENSION,
    k: int = DEFAULT_K,
    budget_bytes: int = DEFAULT_BUDGET_BYTES,
) -> ConcurrentRow:
    """Throughput of concurrent readers against one shared index."""
    if threads < 1:
        raise ValueError("threads must be >= 1")
    if n_entries < 1 or dimension < 1 or k < 1 or queries_per_thread < 1:
        raise ValueError("n_entries, dimension, k, and queries_per_thread must be >= 1")
    rng = np.random.default_rng(seed)
    index = _seeded_index(rng, n_entries, dimension, budget_bytes)
    query_sets = [
        synthetic_unit_vectors(rng, queries_per_thread, dimension) for _ in range(threads)
    ]

    barrier = threading.Barrier(threads + 1)

    def worker(queries: np.ndarray) -> None:
        barrier.wait()
        for q in queries:
            index.top_k(q, k)

    pool = [threading.Thread(target=worker, args=(qs,)) for qs in query_sets]
    for thread in pool:
        thread.start()
    barrier.wait()
    started = time.perf_counter()
    for thread in pool:
        thread.join()
    elapsed = time.perf_counter() - started
    total = threads * queries_per_thread
    return ConcurrentRow(
        n_entries=n_entries,
        threads=threads,
        total_queries=total,
        elapsed_s=elapsed,
        throughput_qps=total / elapsed if elapsed > 0 else 0.0,
    )


def rows_to_csv(rows: Sequence[BenchRow]) -> str:
    """Fixed-schema CSV, one row per size, trailing newline."""
    lines = [CSV_HEADER]
    for row in rows:
        lines.append(
            f"{row.n_entries},{row.vector_bytes},{row.overhead_bytes},"
            f"{row.mean_latency_us:.3f},{row.stddev_latency_us:.3f},{row.queries}"
        )
    return "\n".join(lines) + "\n"


def concurrent_rows_to_csv(rows: Sequence[ConcurrentRow]) -> str:
    lines = [CONCURRENT_CSV_HEADER]
    for row in rows:
        lines.append(
            f"{row.n_entries},{row.threads},{row.total_queries},"
            f"{row.elapsed_s:.6f},{row.throughput_qps:.3f}"
        )
    return "\n".join(lines) + "\n"
