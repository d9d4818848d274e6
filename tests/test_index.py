"""Vector index tests: exactness against full-sort oracles, determinism, locks.

The index is the benchmarkable hot path, so correctness is established by
comparing every ranking against independently coded oracles, including
stores salted with duplicate vectors to force score ties. Rankings are
checked against per-row dot products plus one full sort; ids and scores,
bit for bit, against one float64 product over the whole matrix.
"""

import json
import os
import random
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import amem
from amem.errors import DimensionMismatch, DuplicateId, UnknownId
from amem.index import VectorIndex, _cosines, cosine
from oracles import full_product_top_k, full_sort_top_k, naive_cosine


def seeded_ids(n, prefix=0):
    return [f"{prefix:08x}{i:024x}" for i in range(n)]


def unit_rows(rng, n, dimension):
    rows = rng.standard_normal((n, dimension)).astype(np.float32)
    norms = np.linalg.norm(rows.astype(np.float64), axis=1)
    norms[norms == 0.0] = 1.0
    return (rows.astype(np.float64) / norms[:, None]).astype(np.float32)


def build_index(ids, rows):
    index = VectorIndex(rows.shape[1])
    for note_id, row in zip(ids, rows):
        index.insert(note_id, row)
    return index


# ---------------------------------------------------------------------------
# cosine


def test_cosine_matches_naive_oracle():
    rng = np.random.default_rng(0)
    for _ in range(100):
        a = rng.standard_normal(24)
        b = rng.standard_normal(24)
        assert abs(cosine(a, b) - naive_cosine(a, b)) < 1e-6


def test_cosine_basics():
    v = np.asarray([0.6, 0.8], dtype=np.float32)
    assert abs(cosine(v, v) - 1.0) < 1e-6
    a = np.asarray([1.0, 0.0], dtype=np.float32)
    b = np.asarray([0.0, 1.0], dtype=np.float32)
    assert cosine(a, b) == cosine(b, a) == 0.0
    assert cosine(np.zeros(2), a) == 0.0
    with pytest.raises(DimensionMismatch):
        cosine(np.ones(3), np.ones(4))


# ---------------------------------------------------------------------------
# insert / update / get guards


def test_insert_then_self_query_ranks_first():
    rng = np.random.default_rng(1)
    rows = unit_rows(rng, 5, 16)
    ids = seeded_ids(5)
    index = build_index(ids, rows)
    top = index.top_k(rows[3], 1)
    assert top[0][0] == ids[3]
    assert abs(top[0][1] - 1.0) < 1e-6


def test_duplicate_insert_rejected():
    index = VectorIndex(4)
    index.insert("a" * 32, np.ones(4, dtype=np.float32))
    with pytest.raises(DuplicateId):
        index.insert("a" * 32, np.ones(4, dtype=np.float32))


def test_dimension_and_finite_guards():
    index = VectorIndex(4)
    with pytest.raises(DimensionMismatch):
        index.insert("a" * 32, np.ones(5, dtype=np.float32))
    with pytest.raises(DimensionMismatch):
        index.insert("a" * 32, np.ones((2, 2), dtype=np.float32))
    with pytest.raises(ValueError):
        index.insert("a" * 32, np.asarray([1.0, np.nan, 0.0, 0.0]))
    with pytest.raises(ValueError):
        VectorIndex(0)
    for k in (0, True):
        with pytest.raises(ValueError):
            index.top_k(np.ones(4, dtype=np.float32), k)


@pytest.mark.parametrize("dimension", [True, 0, -1, 2.5])
def test_index_refuses_a_dimension_that_is_not_a_count(dimension):
    with pytest.raises(ValueError):
        VectorIndex(dimension)


def test_update_replaces_vector():
    rng = np.random.default_rng(2)
    rows = unit_rows(rng, 10, 8)
    ids = seeded_ids(10)
    index = build_index(ids, rows)
    query = unit_rows(rng, 1, 8)[0]
    index.update(ids[7], query)
    top = index.top_k(query, 1)
    assert top[0][0] == ids[7]
    assert abs(top[0][1] - 1.0) < 1e-6
    with pytest.raises(UnknownId):
        index.update("f" * 32, query)
    # the failed update added no row, and the stored row is exactly the query
    assert "f" * 32 not in index
    expected = build_index(ids, np.vstack([rows[:7], query, rows[8:]]))
    for probe in unit_rows(rng, 5, 8):
        assert index.top_k(probe, 10) == expected.top_k(probe, 10)


def test_update_never_leaves_stale_ranking():
    rng = np.random.default_rng(3)
    dimension = 12
    rows = unit_rows(rng, 30, dimension)
    ids = seeded_ids(30)
    index = build_index(ids, rows)
    current = {note_id: row for note_id, row in zip(ids, rows)}
    python_rng = random.Random(4)
    for _ in range(40):
        victim = python_rng.choice(ids)
        fresh = unit_rows(rng, 1, dimension)[0]
        index.update(victim, fresh)
        current[victim] = fresh
        query = unit_rows(rng, 1, dimension)[0]
        got = [note_id for note_id, _ in index.top_k(query, 5)]
        want = full_sort_top_k(ids, [current[i] for i in ids], query, 5)
        assert got == want


# ---------------------------------------------------------------------------
# top_k oracle equivalence


def test_top_k_matches_full_sort_oracle():
    rng = np.random.default_rng(5)
    dimension = 32
    rows = unit_rows(rng, 400, dimension)
    # duplicate a block of vectors so exact score ties exercise the id order
    rows[50:70] = rows[0:20]
    rows[200:210] = rows[100:110]
    ids = seeded_ids(400)
    index = build_index(ids, rows)
    queries = unit_rows(rng, 25, dimension)
    for k in (1, 3, 10, 50, 400, 500):
        for query in queries:
            got = [note_id for note_id, _ in index.top_k(query, k)]
            want = full_sort_top_k(ids, rows, query, k)
            assert got == want


def test_top_k_scores_non_increasing_and_ids_distinct():
    rng = np.random.default_rng(6)
    rows = unit_rows(rng, 100, 16)
    rows[10:20] = rows[0:10]
    index = build_index(seeded_ids(100), rows)
    result = index.top_k(unit_rows(rng, 1, 16)[0], 30)
    scores = [score for _, score in result]
    assert scores == sorted(scores, reverse=True)
    assert len({note_id for note_id, _ in result}) == len(result)
    assert all(-1.0 <= s <= 1.0 for s in scores)


def test_tied_scores_break_by_ascending_id():
    index = VectorIndex(4)
    vec = np.asarray([0.5, 0.5, 0.5, 0.5], dtype=np.float32)
    ids = ["c" * 32, "a" * 32, "b" * 32]
    for note_id in ids:
        index.insert(note_id, vec)
    result = index.top_k(vec, 2)
    assert [note_id for note_id, _ in result] == ["a" * 32, "b" * 32]


def test_exclusion_promotes_next_rank():
    rng = np.random.default_rng(7)
    rows = unit_rows(rng, 50, 16)
    ids = seeded_ids(50)
    index = build_index(ids, rows)
    query = unit_rows(rng, 1, 16)[0]
    plain = [note_id for note_id, _ in index.top_k(query, 3)]
    excluded = [note_id for note_id, _ in index.top_k(query, 3, exclude={plain[0]})]
    assert excluded[0] == plain[1]
    assert plain[0] not in excluded
    want = full_sort_top_k(ids, rows, query, 3, exclude={plain[0]})
    assert excluded == want


def test_exclude_everything_yields_empty():
    rng = np.random.default_rng(8)
    rows = unit_rows(rng, 5, 8)
    ids = seeded_ids(5)
    index = build_index(ids, rows)
    assert index.top_k(rows[0], 3, exclude=set(ids)) == []


def test_k_larger_than_store_returns_all():
    rng = np.random.default_rng(9)
    rows = unit_rows(rng, 3, 8)
    index = build_index(seeded_ids(3), rows)
    assert len(index.top_k(rows[0], 10)) == 3
    assert VectorIndex(8).top_k(rows[0], 5) == []


def test_query_scale_invariance():
    rng = np.random.default_rng(10)
    rows = unit_rows(rng, 60, 16)
    ids = seeded_ids(60)
    index = build_index(ids, rows)
    query = unit_rows(rng, 1, 16)[0]
    base = [note_id for note_id, _ in index.top_k(query, 10)]
    for scale in (0.001, 7.0, 2500.0):
        scaled = [note_id for note_id, _ in index.top_k(query * scale, 10)]
        assert scaled == base


def test_zero_query_scores_all_zero():
    rng = np.random.default_rng(11)
    rows = unit_rows(rng, 10, 8)
    ids = seeded_ids(10)
    index = build_index(ids, rows)
    result = index.top_k(np.zeros(8, dtype=np.float32), 4)
    assert [note_id for note_id, _ in result] == sorted(ids)[:4]
    assert all(score == 0.0 for _, score in result)


def test_determinism_same_store_same_query():
    rng = np.random.default_rng(12)
    rows = unit_rows(rng, 200, 24)
    index = build_index(seeded_ids(200), rows)
    query = unit_rows(rng, 1, 24)[0]
    first = index.top_k(query, 20)
    for _ in range(5):
        assert index.top_k(query, 20) == first


# ---------------------------------------------------------------------------
# bit-exact scores against one float64 product over the whole matrix
#
# That product is a reproducible referee only while BLAS runs it on one
# thread. OpenBLAS threads a float64 matrix-vector product from about 460,800
# elements and may split the rows at a position that is not 4-aligned, which
# moves the last ulp of the rows beside the split. The in-process stores stay
# below that size; the subprocess test pins the thread count for a larger one.

EXACT_DIMENSION = 96


def near_tie_rows(rng, base, count):
    """Copies of base, each moved by one float32 ulp in one coordinate."""
    rows = np.repeat(base[None, :], count, axis=0)
    for row in rows:
        j = rng.integers(base.size)
        row[j] = np.nextafter(row[j], np.float32(np.inf if rng.random() < 0.5 else -np.inf))
    return rows


@pytest.mark.parametrize("n", [1, 3, 63, 64, 65, 1001, 4099])
def test_top_k_scores_equal_whole_product_oracle(n):
    rng = np.random.default_rng(n)
    dimension = EXACT_DIMENSION
    # not unit length, so the norms take part
    rows = (rng.standard_normal((n, dimension)) * rng.uniform(0.5, 2.0, (n, 1))).astype(
        np.float32
    )
    queries = [rng.standard_normal(dimension).astype(np.float32), np.zeros(dimension, np.float32)]
    if n >= 3:
        rows[n // 2] = rows[0]
        rows[1] = 0.0
    if n >= 63:
        # a cluster of near-ties, far inside 2ε of each other, that the
        # k = 10 cut of the second query falls inside
        cluster = rng.choice(np.arange(2, n), size=24, replace=False)
        rows[cluster] = near_tie_rows(rng, rows[cluster[0]], cluster.size)
        queries.append(rows[cluster[0]].copy())
    ordered = seeded_ids(n)
    ids = [ordered[i] for i in rng.permutation(n)]
    index = VectorIndex(dimension)
    index.bulk_load(ids, rows)
    excluded = {ids[0], ids[n // 2], "f" * 32}
    for query in queries:
        for k in (1, 10, n, n + 5):
            for exclude in ((), excluded):
                got = index.top_k(query, k, exclude)
                assert got == full_product_top_k(ids, rows, query, k, exclude)


def test_top_k_rescores_rows_outside_the_float32_bound():
    # the float32 scan's error bound fails where its product overflows or
    # underflows; those rows must still rank by their float64 scores
    ids = seeded_ids(3)
    tiny = np.float32(2.0**-149)
    cases = [
        # 3e38 * 3e38 overflows: inf, and inf - inf is NaN, for a true score 0
        (np.float32([[3e38, -3e38], [1.0, -1.0001], [-1.0, -1.0]]), np.float32([3e38, 3e38])),
        # the overflowing row reads as 1.0 but scores 0.9487 < 0.995
        (np.float32([[3e38, 1e38], [1.0, 0.1], [-1.0, 0.0]]), np.float32([3e38, 0.0])),
        # a subnormal row loses a sixth of its dot product to underflow, yet
        # ties exactly with its copy scaled by 2**100 and wins on id
        (
            np.float32([[3 * tiny, 3 * tiny], [3 * 2.0**-49, 3 * 2.0**-49], [1.0, -1.0]]),
            np.float32([0.4, 0.4]),
        ),
    ]
    for rows, query in cases:
        index = build_index(ids, rows)
        for k in (1, 2, 3):
            assert index.top_k(query, k) == full_product_top_k(ids, rows, query, k)


def test_inserted_and_updated_rows_score_like_the_whole_product_oracle():
    # the norms of insert and update must round as bulk_load's do
    rng = np.random.default_rng(11)
    n = 300
    rows = (rng.standard_normal((n, EXACT_DIMENSION)) * rng.uniform(0.5, 2.0, (n, 1))).astype(
        np.float32
    )
    ids = seeded_ids(n)
    index = VectorIndex(EXACT_DIMENSION)
    index.bulk_load(ids[:100], rows[:100])
    for note_id, row in zip(ids[100:], rows[100:]):
        index.insert(note_id, row)
    for position in rng.choice(n, size=40, replace=False).tolist():
        rows[position] = rng.standard_normal(EXACT_DIMENSION).astype(np.float32) * 3.0
        index.update(ids[position], rows[position])
    for query in (rng.standard_normal(EXACT_DIMENSION).astype(np.float32), rows[7].copy()):
        for k in (1, 10, n):
            assert index.top_k(query, k) == full_product_top_k(ids, rows, query, k)


def test_bulk_load_of_a_read_only_matrix_stays_updatable():
    ids = seeded_ids(4)
    rows = np.eye(4, dtype=np.float32)
    rows.flags.writeable = False
    index = VectorIndex(4)
    index.bulk_load(ids, rows)
    index.update(ids[0], np.float32([0.0, 1.0, 0.0, 0.0]))
    assert rows[0, 0] == 1.0
    assert index.top_k(np.float32([0.0, 1.0, 0.0, 0.0]), 2) == [(ids[0], 1.0), (ids[1], 1.0)]


FLOAT32 = st.floats(width=32, allow_nan=False, allow_infinity=False)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_top_k_equals_whole_product_oracle_property(data):
    # every finite float32, subnormal and near-overflow ones included
    dimension = data.draw(st.integers(1, 12))
    n = data.draw(st.integers(1, 80))
    distinct = data.draw(
        hnp.arrays(np.float32, (data.draw(st.integers(1, n)), dimension), elements=FLOAT32)
    )
    picks = data.draw(st.lists(st.integers(0, len(distinct) - 1), min_size=n, max_size=n))
    rows = distinct[picks]
    query = data.draw(hnp.arrays(np.float32, dimension, elements=FLOAT32))
    ids = data.draw(st.permutations(seeded_ids(n)))
    exclude = data.draw(st.sets(st.sampled_from(ids)))
    k = data.draw(st.integers(1, n + 2))
    index = build_index(ids, rows)
    assert index.top_k(query, k, exclude) == full_product_top_k(ids, rows, query, k, exclude)


# A store of 66 rows or more has rows before its last block; row r takes
# slot r mod 64, so rows 5, 69, 133 and 197 of a 300-row store share a slot
# and need four rounds.
RESCORE_SIZES = st.one_of(st.integers(1, 300), st.sampled_from([63, 64, 65, 66, 127, 128, 129]))


@st.composite
def rescore_cases(draw):
    """(rows, query, ascending candidate rows) for _rescore."""
    dimension = draw(st.integers(1, 48))
    n = draw(RESCORE_SIZES)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = (rng.standard_normal((n, dimension)) * rng.uniform(0.5, 2.0, (n, 1))).astype(
        np.float32
    )
    special = draw(st.lists(st.integers(0, n - 1), max_size=4))
    rows[special] = draw(hnp.arrays(np.float32, (len(special), dimension), elements=FLOAT32))
    rows[draw(st.lists(st.integers(0, n - 1), max_size=4))] = 0.0
    query = rng.standard_normal(dimension).astype(np.float32)
    slot = draw(st.integers(0, 63))
    candidates = draw(
        st.one_of(
            st.sets(st.integers(0, n - 1)),
            st.sets(st.integers(0, n - 1)).map(lambda extra: extra | set(range(slot, n, 64))),
            st.just(set(range(n))),
        )
    )
    return rows, query, np.array(sorted(candidates), dtype=np.intp)


def rescore_case(n, dimension, candidates, zero=()):
    rng = np.random.default_rng(n)
    rows = rng.standard_normal((n, dimension)).astype(np.float32)
    rows[list(zero)] = 0.0
    query = rng.standard_normal(dimension).astype(np.float32)
    return rows, query, np.array(candidates, dtype=np.intp)


@settings(max_examples=200, deadline=None)
@given(case=rescore_cases())
@example(case=rescore_case(300, 40, [5, 69, 133, 197, 260, 299]))
@example(case=rescore_case(129, 33, range(129), zero=[0, 64, 128]))
@example(case=rescore_case(66, 17, [0, 1, 63, 64, 65], zero=[1]))
def test_rescore_equals_the_whole_product_for_any_candidate_rows(case):
    # candidates that share a slot, rows of the last block, zero rows and
    # every row at once, bit for bit against one product over the matrix
    rows, query, candidates = case
    index = VectorIndex(rows.shape[1])
    index.bulk_load(seeded_ids(len(rows)), rows)
    q64 = query.astype(np.float64)
    denom = index._norms[: len(rows)] * float(np.sqrt(np.dot(q64, q64)))
    want = _cosines(rows.astype(np.float64) @ q64, denom)[candidates]
    got = index._rescore(candidates, q64, denom)
    assert got.tobytes() == want.tobytes()


_THREADS_SCRIPT = """
import json, sys
import numpy as np
sys.path[:0] = sys.argv[1:3]
from amem.index import VectorIndex
from oracles import full_product_top_k
rng = np.random.default_rng(0)
n, dimension = 4099, 384
rows = rng.standard_normal((n, dimension)).astype(np.float32)
ids = [f"{i:032x}" for i in range(n)]
index = VectorIndex(dimension)
index.bulk_load(ids, rows)
queries = rng.standard_normal((3, dimension)).astype(np.float32)
got = [index.top_k(q, n) for q in queries]
agrees = got == [full_product_top_k(ids, rows, q, n) for q in queries]
print(json.dumps({"got": got, "oracle_agrees": agrees}))
"""


def run_with_blas_threads(threads):
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(threads)
    source = str(Path(amem.__file__).resolve().parents[1])
    tests = str(Path(__file__).resolve().parent)
    done = subprocess.run(
        [sys.executable, "-c", _THREADS_SCRIPT, source, tests],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return json.loads(done.stdout)


def test_scores_do_not_depend_on_blas_threads():
    # 4099 x 384 is past the size at which BLAS threads a float64 product;
    # every row is ranked, so the rows beside a thread split are compared too
    one = run_with_blas_threads(1)
    two = run_with_blas_threads(2)
    assert one["oracle_agrees"]
    assert two["got"] == one["got"]


# ---------------------------------------------------------------------------
# bulk load


def test_bulk_load_equivalent_to_repeated_insert():
    rng = np.random.default_rng(13)
    rows = unit_rows(rng, 300, 16)
    ids = seeded_ids(300)
    one = build_index(ids, rows)
    two = VectorIndex(16)
    two.bulk_load(ids, rows.copy())
    queries = unit_rows(rng, 10, 16)
    for query in queries:
        assert one.top_k(query, 25) == two.top_k(query, 25)
    assert one.memory_bytes() == two.memory_bytes()


def test_bulk_load_refuses_a_non_empty_index():
    rng = np.random.default_rng(14)
    rows = unit_rows(rng, 5, 8)
    ids = seeded_ids(5)
    index = VectorIndex(8)
    index.insert(ids[0], rows[0])
    held = (len(index), index.ids(), index.top_k(rows[1], 5))
    for vectors in (list(rows[1:]), rows[1:].copy()):
        with pytest.raises(ValueError, match="bulk_load fills an empty index"):
            index.bulk_load(ids[1:], vectors)
        assert (len(index), index.ids(), index.top_k(rows[1], 5)) == held


def test_bulk_load_guards_leave_index_untouched():
    rng = np.random.default_rng(15)
    rows = unit_rows(rng, 10, 8)
    ids = seeded_ids(10)
    index = VectorIndex(8)

    with pytest.raises(DuplicateId):
        index.bulk_load([ids[2], ids[2]], rows[:2])
    bad = rows[:2].copy()
    bad[1, 3] = np.nan
    with pytest.raises(ValueError):
        index.bulk_load([ids[3], ids[4]], bad)
    with pytest.raises(ValueError):
        index.bulk_load([ids[5]], rows[:2])
    with pytest.raises(DimensionMismatch):
        index.bulk_load([ids[6]], np.ones((1, 9), dtype=np.float32))

    # the failed loads must not have mutated anything
    assert len(index) == 0 and index.ids() == []
    index.insert(ids[1], rows[1])
    assert len(index) == 1
    assert index.top_k(rows[1], 3) == [(ids[1], pytest.approx(1.0))]

    # an empty index refuses a matrix it would adopt, and keeps none of it
    empty = VectorIndex(8)
    adoptable = rows[:3].copy()
    adoptable[2, 5] = np.nan
    assert adoptable.dtype == np.float32 and adoptable.flags["C_CONTIGUOUS"]
    held = adoptable.tobytes()
    with pytest.raises(ValueError):
        empty.bulk_load(ids[:3], adoptable)
    assert len(empty) == 0 and empty.ids() == []
    empty.insert(ids[0], rows[4])
    assert adoptable.tobytes() == held
    assert not np.shares_memory(empty._rows, adoptable)
    assert empty.top_k(rows[4], 3) == [(ids[0], pytest.approx(1.0))]


@pytest.mark.parametrize("before", [0], ids=["empty"])
def test_bulk_load_of_a_list_is_repeated_insert_bit_for_bit(before):
    rng = np.random.default_rng(17)
    n = 1500
    rows = unit_rows(rng, n, 24) * rng.uniform(0.5, 4.0, (n, 1)).astype(np.float32)
    ids = seeded_ids(n)
    reference = build_index(ids, rows)
    index = build_index(ids[:before], rows[:before])
    # 1-D vectors of any float dtype, as insert takes them
    vectors = [row.astype(np.float64) if i % 3 else row for i, row in enumerate(rows[before:])]
    index.bulk_load(ids[before:], vectors)
    assert index.ids() == reference.ids()
    # the buffer repeated inserts grow, holding the same rows and norms
    assert index._rows.shape == reference._rows.shape
    assert index._rows[:n].tobytes() == reference._rows[:n].tobytes()
    assert index._norms[:n].tobytes() == reference._norms[:n].tobytes()
    for query in (*unit_rows(rng, 5, 24), rows[3]):
        for k in (1, 10, n):
            assert index.top_k(query, k) == reference.top_k(query, k)
            assert index.top_k(query, k) == full_product_top_k(ids, rows, query, k)


def test_an_insert_after_bulk_loading_a_list_writes_into_the_same_buffer():
    rng = np.random.default_rng(18)
    rows = unit_rows(rng, 1100, 8)
    ids = seeded_ids(1101)
    index = VectorIndex(8)
    index.bulk_load(ids[:1100], list(rows))
    buffer = index._rows
    index.insert(ids[1100], rows[0])
    assert index._rows is buffer
    assert len(index) == 1101


@pytest.mark.parametrize("before", [0], ids=["empty"])
def test_bulk_load_guards_raise_for_a_list_what_they_raise_for_a_matrix(before):
    rng = np.random.default_rng(19)
    rows = unit_rows(rng, 10, 8)
    ids = seeded_ids(10)
    index = build_index(ids[:before], rows[:before])
    query = rows[0]
    held = (len(index), index.ids(), index.top_k(query, 10))
    nan = [row.copy() for row in rows[5:7]]
    nan[1][3] = np.nan
    cases = [
        (DimensionMismatch, [ids[5]], [np.ones(9, dtype=np.float32)]),
        (DimensionMismatch, ids[5:7], [np.ones((2, 8), dtype=np.float32)] * 2),
        (ValueError, ids[5:7], [rows[5], np.ones(9, dtype=np.float32)]),
        (ValueError, ids[5:7], nan),
        (ValueError, ids[5:6], list(rows[5:7])),
        (DuplicateId, [ids[5], ids[5]], list(rows[5:7])),
    ]
    for error, batch_ids, vectors in cases:
        with pytest.raises(error) as raised:
            index.bulk_load(batch_ids, vectors)
        # the same vectors as one matrix (a ragged list cannot be one)
        with pytest.raises(error) as from_matrix:
            index.bulk_load(batch_ids, np.asarray(vectors, dtype=np.float32))
        assert str(raised.value) == str(from_matrix.value)
        assert (len(index), index.ids(), index.top_k(query, 10)) == held


def test_bulk_load_empty_batch_is_noop():
    index = VectorIndex(8)
    index.bulk_load([], np.empty((0, 8), dtype=np.float32))
    assert len(index) == 0


# ---------------------------------------------------------------------------
# memory accounting


def test_memory_bytes_exact_vector_payload():
    index = VectorIndex(384)
    assert index.memory_bytes()[0] == 0
    rng = np.random.default_rng(16)
    rows = unit_rows(rng, 1000, 384)
    index.bulk_load(seeded_ids(1000), rows)
    vector_bytes, overhead = index.memory_bytes()
    assert vector_bytes == 1000 * 384 * 4 == 1_536_000
    assert overhead > 0


def test_memory_bytes_linear_in_count():
    rng = np.random.default_rng(17)
    per_size = {}
    for n in (10, 100):
        index = VectorIndex(64)
        index.bulk_load(seeded_ids(n), unit_rows(rng, n, 64))
        per_size[n] = index.memory_bytes()[0]
    assert per_size[100] == 10 * per_size[10]


# ---------------------------------------------------------------------------
# concurrency smoke


def test_concurrent_readers_see_consistent_results():
    rng = np.random.default_rng(18)
    rows = unit_rows(rng, 200, 16)
    ids = seeded_ids(200)
    index = build_index(ids, rows)
    query = unit_rows(rng, 1, 16)[0]
    expected = index.top_k(query, 10)
    failures = []

    def reader():
        for _ in range(50):
            if index.top_k(query, 10) != expected:
                failures.append("mismatch")

    pool = [threading.Thread(target=reader) for _ in range(8)]
    for thread in pool:
        thread.start()
    for thread in pool:
        thread.join()
    assert not failures
