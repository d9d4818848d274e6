"""Exact in-memory vector index with deterministic cosine ranking.

Brute force by design: every query scores every stored vector, so results
are exact and reproducible. Vectors are stored as float32. A score is the
float64 cosine: the row widened to float64 times the float64 query, over
the product of the float64 norms, clipped to [-1, 1]. Ties are broken by
ascending id, so a given store and query always produce the identical
ranking.

A query scans the unmodified float32 matrix with one BLAS product, then
rescores a proven candidate set in float64. In any summation order the
float32 dot product of row r and query q is within γ_d(2⁻²⁴)·‖r‖‖q‖ of the
exact one, where γ_d(u) = d·u/(1−d·u) (Higham, *Accuracy and Stability of
Numerical Algorithms*, §3.1). So every row whose float64 score reaches the
k-th best lies within 2ε of the k-th best float32 score, and only those
rows are rescored. A rescored row gets the bits that a float64 product over
the whole matrix would give it on one BLAS thread. A gathered row would not:
BLAS computes a row's dot from that row and the query alone, but the order
of the sum depends on the row's position inside aligned groups of at most
64 rows, and on whether the row is in the tail, so the last ulp can differ.
So each candidate row r is widened into slot r mod 64 of a zeroed 64-row
float64 buffer, which puts it where its aligned 64-row block would, and is
read back from that buffer's product with the query. Candidates that share
a slot go into successive rounds of the buffer, one product each. The last
block, which has the tail, is multiplied whole as it stands. At the
dimensions of text embeddings a 64-row product is too small for BLAS to
split across threads, so the ranking and the scores are those of the
whole-matrix float64 scan, whatever the BLAS thread count.

The index takes no lock. Concurrent queries are safe on their own, but
insert, update and bulk_load change the arrays in place, so a caller that
mutates the index while others query must keep them apart; MemoryEngine
does so with its view lock.
"""

from __future__ import annotations

from typing import Any, Iterable, Sequence

import numpy as np

from .errors import DimensionMismatch, DuplicateId, UnknownId

# A candidate is rescored in its slot of a float64 buffer of this many rows,
# a multiple of every row grouping of the BLAS kernels.
_RESCORE_BLOCK = 64

# _set_norms widens this many rows to float64 at a time, which bounds the
# temporary copy.
_NORM_CHUNK = 1024

_INITIAL_CAPACITY = 1024

# Rough per-entry bookkeeping bytes besides the raw vector: the id string
# object, its hash-table slot, the row list slot, and the cached norm.
_PER_ENTRY_OVERHEAD = 160


def _is_count(value: Any) -> bool:
    """An int >= 1; a bool is not a count."""
    return isinstance(value, int) and not isinstance(value, bool) and value >= 1


def cosine(a: np.ndarray, b: np.ndarray) -> float:
    """Cosine similarity with float64 accumulation, clamped to [-1, 1].

    If either vector has zero norm the similarity is defined as 0.0.
    """
    va = np.asarray(a, dtype=np.float64)
    vb = np.asarray(b, dtype=np.float64)
    if va.ndim != 1 or vb.ndim != 1:
        raise DimensionMismatch("cosine expects 1-D vectors")
    if va.size != vb.size:
        raise DimensionMismatch(f"vector sizes differ: {va.size} != {vb.size}")
    norm_a = float(np.sqrt(np.dot(va, va)))
    norm_b = float(np.sqrt(np.dot(vb, vb)))
    if norm_a == 0.0 or norm_b == 0.0:
        return 0.0
    value = float(np.dot(va, vb)) / (norm_a * norm_b)
    return max(-1.0, min(1.0, value))


def _cosines(dots: np.ndarray, denom: np.ndarray) -> np.ndarray:
    """dots / denom clipped to [-1, 1]; a zero denominator gives 0.0."""
    scores = np.divide(dots, denom, out=np.zeros_like(dots), where=denom > 0.0)
    return np.clip(scores, -1.0, 1.0, out=scores)


def _score_error_bound(dimension: int) -> float:
    """ε: how far a float32-scanned score can lie from the float64 score.

    One γ_d each for the float32 and the float64 dot product; 4·2⁻⁵³ covers
    the two divisions by the shared denominator, the rounding of the cut
    kth − 2ε, and the 2⁻⁵³ that float32 underflow may cost a row whose
    ‖r‖‖q‖ is at least d·2⁻⁹⁶.
    """

    def gamma(u: float) -> float:
        return dimension * u / (1.0 - dimension * u) if dimension * u < 1.0 else np.inf

    return gamma(2.0**-24) + gamma(2.0**-53) + 4 * 2.0**-53


class VectorIndex:
    """Flat store of (id, float32 vector) rows supporting exact top-k queries."""

    def __init__(self, dimension: int) -> None:
        if not _is_count(dimension):
            raise ValueError("dimension must be a positive integer")
        self._dim = dimension
        self._epsilon = _score_error_bound(dimension)
        self._rows = np.empty((0, dimension), dtype=np.float32)
        self._norms = np.empty(0, dtype=np.float64)
        self._ids: list[str] = []
        self._slot: dict[str, int] = {}

    def __len__(self) -> int:
        return len(self._ids)

    def __contains__(self, note_id: str) -> bool:
        return note_id in self._slot

    def ids(self) -> list[str]:
        return list(self._ids)

    def _check_vector(self, vector: np.ndarray) -> np.ndarray:
        vec = np.asarray(vector, dtype=np.float32)
        if vec.ndim != 1:
            raise DimensionMismatch("expected a 1-D vector")
        if vec.size != self._dim:
            raise DimensionMismatch(f"vector has dimension {vec.size}, index wants {self._dim}")
        if not np.all(np.isfinite(vec)):
            raise ValueError("vector contains NaN or Inf")
        return vec

    def _room(self, extra: int) -> tuple[np.ndarray, np.ndarray]:
        """Row and norm buffers with room for extra more rows in a matrix
        the index may write: its own when they have it, else new ones of
        _INITIAL_CAPACITY rows doubled until they fit, holding its rows.
        An adopted read-only matrix is copied before the first write."""
        count = len(self._ids)
        needed = count + extra
        capacity = self._rows.shape[0]
        if needed <= capacity and self._rows.flags.writeable:
            return self._rows, self._norms
        new_capacity = max(_INITIAL_CAPACITY, capacity)
        while new_capacity < needed:
            new_capacity *= 2
        rows = np.empty((new_capacity, self._dim), dtype=np.float32)
        rows[:count] = self._rows[:count]
        norms = np.empty(new_capacity, dtype=np.float64)
        norms[:count] = self._norms[:count]
        return rows, norms

    def _set_norms(self, norms: np.ndarray, start: int, rows: np.ndarray) -> None:
        """Store the float64 norms of rows in norms from position start on.
        vecdot rounds each row as the per-row np.dot of the oracles does.
        The rows are widened into one buffer, so one chunk's copy is alive
        at a time. A float32 row is finite exactly when its norm is: no
        finite float32 row's sum of squares overflows float64."""
        buffer = np.empty((min(len(rows), _NORM_CHUNK), self._dim))
        for offset in range(0, len(rows), _NORM_CHUNK):
            chunk = rows[offset : offset + _NORM_CHUNK]
            wide = buffer[: len(chunk)]
            wide[...] = chunk
            at = start + offset
            norms[at : at + len(wide)] = np.sqrt(np.vecdot(wide, wide))

    def insert(self, note_id: str, vector: np.ndarray) -> None:
        vec = self._check_vector(vector)
        if note_id in self._slot:
            raise DuplicateId(f"id already present in index: {note_id}")
        self._rows, self._norms = self._room(1)
        row = len(self._ids)
        self._rows[row] = vec
        self._set_norms(self._norms, row, vec[None, :])
        self._ids.append(note_id)
        self._slot[note_id] = row

    def update(self, note_id: str, vector: np.ndarray) -> None:
        vec = self._check_vector(vector)
        row = self._slot.get(note_id)
        if row is None:
            raise UnknownId(f"id not present in index: {note_id}")
        self._rows, self._norms = self._room(0)
        self._rows[row] = vec
        self._set_norms(self._norms, row, vec[None, :])

    def bulk_load(self, ids: Sequence[str], vectors: np.ndarray | Sequence[np.ndarray]) -> None:
        """Fill an empty index with many rows at once. Equivalent to repeated
        insert, much faster. A non-empty index raises ValueError.

        A sequence of 1-D vectors is stacked straight into the index's own
        buffer, grown as insert grows it (_INITIAL_CAPACITY rows, doubled
        until they fit), so each vector is copied once and no temporary
        matrix is made. The spare rows are pages nothing has written, which
        cost no memory until inserts fill them without a reallocation. A
        sequence that does not stack so is read as a matrix, and raises what
        that matrix would.

        A matrix the index adopts as float32 and C-contiguous, with no copy
        when it already is. A writeable matrix the caller must not mutate
        afterwards; a read-only one, such as the embedding matrix whose rows
        a load's notes view, the index copies before its first write (an
        update, or an insert, which outgrows it), so no row a note views
        ever changes.

        Either way the checks are the same: shape, one vector per id, no
        duplicate id, finite values, read off the rows' norms, which are
        computed before anything is published. A load that fails them
        leaves the index empty.
        """
        if self._ids:
            raise ValueError("bulk_load fills an empty index")
        matrix = None
        if not isinstance(vectors, np.ndarray):
            try:
                rows, norms = self._room(len(vectors))
                matrix = np.stack(vectors, out=rows[: len(vectors)], casting="unsafe")
            except (TypeError, ValueError):
                pass
        if matrix is None:
            matrix = rows = np.ascontiguousarray(vectors, dtype=np.float32)
            norms = np.empty(len(rows), dtype=np.float64)
        if matrix.ndim != 2 or matrix.shape[1] != self._dim:
            raise DimensionMismatch(
                f"expected shape (n, {self._dim}), got {matrix.shape}"
            )
        if len(ids) != matrix.shape[0]:
            raise ValueError(f"{len(ids)} ids for {matrix.shape[0]} vectors")
        if len(set(ids)) != len(ids):
            raise DuplicateId("duplicate id inside bulk batch")
        n = matrix.shape[0]
        if n == 0:
            return
        self._set_norms(norms, 0, matrix)
        if not np.isfinite(norms[:n]).all():
            raise ValueError("bulk batch contains NaN or Inf")
        self._rows, self._norms = rows, norms
        self._ids = list(ids)
        self._slot = dict(zip(self._ids, range(n)))

    def top_k(
        self, query: np.ndarray, k: int, exclude: Iterable[str] = ()
    ) -> list[tuple[str, float]]:
        """The k most cosine-similar entries, descending score, ids ascending on ties.

        Excluded ids never appear. A zero-norm query scores every entry 0.0,
        which leaves pure id-order ranking. Returns fewer than k pairs only
        when the index holds fewer eligible entries.
        """
        if not _is_count(k):
            raise ValueError("k must be a positive integer")
        q = self._check_vector(query)
        q64 = q.astype(np.float64)
        q_norm = float(np.sqrt(np.dot(q64, q64)))
        n = len(self._ids)
        if n == 0:
            return []
        denom = self._norms[:n] * q_norm
        # ε holds when the float32 product neither overflows, which
        # leaves a non-finite dot, nor underflows on a row with a tiny
        # ‖r‖‖q‖. Such rows are always rescored.
        with np.errstate(over="ignore", invalid="ignore"):
            dots = (self._rows[:n] @ q).astype(np.float64)
        scores = _cosines(dots, denom)
        unsure = ~np.isfinite(dots) | (
            (denom > 0.0) & (denom < self._dim * 2.0**-96)
        )
        for excluded in exclude:
            row = self._slot.get(excluded)
            if row is not None:
                unsure[row] = False
                scores[row] = -np.inf
        scores[unsure] = -np.inf
        take = min(k, n)
        kth = float(np.partition(scores, n - take)[n - take])
        # Scores lie in [-1, 1]: a cut of -2 keeps every row but the -inf
        # ones, when fewer than k rows are eligible or ε is unbounded.
        cut = max(kth - 2.0 * self._epsilon, -2.0)
        candidates = np.flatnonzero((scores >= cut) | unsure)
        exact = self._rescore(candidates, q64, denom)
        ranked = sorted(
            zip([self._ids[row] for row in candidates], exact.tolist()),
            key=lambda pair: (-pair[1], pair[0]),
        )
        return ranked[:k]

    def _rescore(self, rows: np.ndarray, q64: np.ndarray, denom: np.ndarray) -> np.ndarray:
        """Float64 scores of the given ascending rows, bit-identical to a
        float64 product over the whole matrix.

        A row r before the last aligned 64-row block is widened into slot
        r mod 64 of a zeroed 64-row buffer, and its dot is read from the
        buffer's product with the query: its own row at its own position,
        so its own bits. Rows that share a slot go into successive rounds
        of the buffer, one 64-row product each. The last block is multiplied
        whole, so its rows keep the tail kernel; a last block of one row
        joins the block before it, since numpy computes a one-row product
        with a dot kernel, not the matrix-vector kernel that a product over
        more rows uses. Zero-denominator rows score 0.0 and need no product.
        """
        n = len(self._ids)
        dots = np.zeros(rows.size, dtype=np.float64)
        tail_start = max(n - 2, 0) // _RESCORE_BLOCK * _RESCORE_BLOCK
        tail: list[int] = []
        rounds: list[list[int]] = []
        taken: dict[int, int] = {}
        live = np.flatnonzero(denom[rows] > 0.0)
        for at, row in zip(live.tolist(), rows[live].tolist()):
            if row >= tail_start:
                tail.append(at)
                continue
            slot = row % _RESCORE_BLOCK
            used = taken.get(slot, 0)
            taken[slot] = used + 1
            if used == len(rounds):
                rounds.append([])
            rounds[used].append(at)
        if tail:
            product = self._rows[tail_start:n].astype(np.float64) @ q64
            dots[tail] = product[rows[tail] - tail_start]
        if rounds:
            # Rows an earlier round left in the buffer change no other row's dot.
            buffer = np.zeros((_RESCORE_BLOCK, self._dim))
            for members in rounds:
                picked = rows[members]
                slots = picked % _RESCORE_BLOCK
                buffer[slots] = self._rows[picked]
                dots[members] = (buffer @ q64)[slots]
        return _cosines(dots, denom[rows])

    def memory_bytes(self) -> tuple[int, int]:
        """(exact vector payload bytes, estimated bookkeeping bytes)."""
        return len(self) * self._dim * 4, len(self) * _PER_ENTRY_OVERHEAD
