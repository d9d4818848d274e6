"""Independently coded reference implementations used to cross-check the library.

Every function here deliberately uses a different algorithm or accumulation
strategy than the production code: metric counting runs on explicit loops
instead of Counter arithmetic, LCS is recursive instead of iterative DP,
cosine runs on compensated Python sums instead of numpy dot products, and
top-k ranks with a single full sort per query. Agreement between these and
the library is the evidence that the library computes the right thing.

Run as a script to regenerate tests/data/golden_eval.csv from
tests/data/pairs.jsonl.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
import sys
import unicodedata
import zlib
from datetime import datetime
from functools import lru_cache
from pathlib import Path

import numpy as np

DATA_DIR = Path(__file__).parent / "data"


# ---------------------------------------------------------------------------
# tokenizer (independent implementation of the fixed contract)


def oracle_tokenize(text: str) -> list[str]:
    tokens = []
    for raw in text.lower().split():
        chars = list(raw)
        while chars and unicodedata.category(chars[0]).startswith("P"):
            chars.pop(0)
        while chars and unicodedata.category(chars[-1]).startswith("P"):
            chars.pop()
        if chars:
            tokens.append("".join(chars))
    return tokens


# ---------------------------------------------------------------------------
# vector math


def naive_cosine(a, b) -> float:
    """Cosine via compensated Python sums; zero-norm vectors score 0.0."""
    xs = [float(v) for v in a]
    ys = [float(v) for v in b]
    assert len(xs) == len(ys)
    dot = math.fsum(x * y for x, y in zip(xs, ys))
    norm_a = math.sqrt(math.fsum(x * x for x in xs))
    norm_b = math.sqrt(math.fsum(y * y for y in ys))
    if norm_a == 0.0 or norm_b == 0.0:
        return 0.0
    return max(-1.0, min(1.0, dot / (norm_a * norm_b)))


def oracle_hash_encode(text: str, dimension: int, seed: int) -> np.ndarray:
    """HashEncoder's vector, one token and one coordinate at a time, summed
    in Python integers: a fresh keyed hasher per 64-byte block, the words
    decoded with int.from_bytes, no table and no batch."""
    per_token = max(1, dimension // 8)
    blocks = -(-per_token * 4 // 64)
    key = seed.to_bytes(8, "big")
    frequency: dict[str, int] = {}
    for token in re.findall(r"\w+", text.lower()):
        frequency[token] = frequency.get(token, 0) + 1
    acc = [0] * dimension
    for token, count in frequency.items():
        data = token.encode("utf-8")
        stream = b"".join(
            hashlib.blake2b(data + block.to_bytes(4, "big"), key=key, digest_size=64).digest()
            for block in range(blocks)
        )
        for i in range(per_token):
            word = int.from_bytes(stream[4 * i : 4 * i + 4], "big")
            acc[(word >> 1) % dimension] += count if word & 1 else -count
    if not any(acc):
        acc[0] = 1
    norm = math.sqrt(sum(value * value for value in acc))
    return (np.array(acc, dtype=np.float64) / norm).astype(np.float32)


def full_sort_top_k(ids, vectors, query, k, exclude=()):
    """Rank every row with a per-row float64 dot product, then one full sort.

    Ties break by ascending id. Returns the id list only, which is what the
    equivalence checks compare.
    """
    q = np.asarray(query, dtype=np.float64)
    q_norm = float(np.sqrt(np.dot(q, q)))
    excluded = set(exclude)
    scored = []
    for note_id, row in zip(ids, vectors):
        if note_id in excluded:
            continue
        r = np.asarray(row, dtype=np.float64)
        r_norm = float(np.sqrt(np.dot(r, r)))
        if q_norm == 0.0 or r_norm == 0.0:
            score = 0.0
        else:
            score = float(np.dot(r, q)) / (r_norm * q_norm)
            score = max(-1.0, min(1.0, score))
        scored.append((note_id, score))
    scored.sort(key=lambda pair: (-pair[1], pair[0]))
    return [note_id for note_id, _ in scored[:k]]


def full_product_top_k(ids, rows, query, k, exclude=()):
    """(id, score) pairs from one float64 product over the whole matrix.

    Scores follow the index's documented arithmetic: the float32 rows
    widened to float64, times the widened float32 query, over the product
    of the float64 norms, clipped to [-1, 1], 0.0 where that product is 0.
    Every row is then sorted by descending score, ids ascending on ties.
    This is the bit-exact reference for the index's returned scores.
    """
    matrix = np.asarray(rows, dtype=np.float32).astype(np.float64)
    q = np.asarray(query, dtype=np.float32).astype(np.float64)
    q_norm = float(np.sqrt(np.dot(q, q)))
    dots = matrix @ q
    excluded = set(exclude)
    scored = []
    for note_id, row, dot in zip(ids, matrix, dots):
        if note_id in excluded:
            continue
        denom = float(np.sqrt(np.dot(row, row))) * q_norm
        score = max(-1.0, min(1.0, float(dot) / denom)) if denom > 0.0 else 0.0
        scored.append((note_id, score))
    scored.sort(key=lambda pair: (-pair[1], pair[0]))
    return scored[:k]


# ---------------------------------------------------------------------------
# canonical float text


def per_element_embedding(vec) -> str:
    """JSON array text of a float32 vector, one format call per element.

    This is the canonical encoding's original per-element join: each
    component widened to a Python float and written at 9 significant digits,
    except that a negative zero is written "-0.0", which JSON reads back as
    a float where "-0" reads as the integer 0.
    """
    texts = (format(float(v), ".9g") for v in vec)
    return "[" + ",".join("-0.0" if text == "-0" else text for text in texts) + "]"


# ---------------------------------------------------------------------------
# reading one note record back


def read_back(record, encoding=None):
    """The note a load builds of one decoded record, step by step as
    persistence._build_notes takes it: the shape check, then the row (the
    record's stored floats parsed, or else the given encoding of its text),
    then the row checked as the load's matrix guarantees it (1-D, non-empty,
    finite) and made read-only, then note_from_fields on the row and the
    record's text. Raises what the first failing step raises."""
    from amem.notes import _stored_floats, is_derived_record, note_from_fields, record_text

    if is_derived_record(record):
        row = np.array(encoding, dtype=np.float32)
    else:
        row = np.empty(len(record["embedding"]), dtype=np.float32)
        _stored_floats(record["embedding"], row)
    if row.ndim != 1 or row.size < 1 or not np.isfinite(row).all():
        raise ValueError("embedding is not a non-empty, finite 1-D vector")
    row.setflags(write=False)
    return note_from_fields(record, row, record_text(record))


# ---------------------------------------------------------------------------
# timestamps


_TIMESTAMP_SHAPE = re.compile(r"\d{4}-\d\d-\d\dT\d\d:\d\d:\d\dZ", re.ASCII)


def strptime_timestamp_ok(value: str) -> bool:
    """Whether value is a canonical UTC timestamp, by datetime.strptime:
    zero-padded ASCII fields of a date and time that exist."""
    if _TIMESTAMP_SHAPE.fullmatch(value) is None:
        return False
    try:
        datetime.strptime(value, "%Y-%m-%dT%H:%M:%SZ")
    except ValueError:
        return False
    return True


# ---------------------------------------------------------------------------
# journal framing


_JOURNAL_LINE = re.compile(
    r'^\{"seq":(\d+),"kind":"(note_added|note_evolved|links_changed)",'
    r'"payload":(.*),"crc":(\d+)\}\s*$',
    re.ASCII,
)


def oracle_read_journal(path, after: int = 0):
    """read_journal's verdict from a forward parse of every line: each line
    decoded, matched by a text pattern whose payload is a greedy (.*), and
    CRC'd after encoding the payload back. Returns (events, truncation
    offset); a gap raises SequenceGap.

    This is the line-by-line reading that read_journal once did, under
    three rules that read_journal added to it:
    1. Only ASCII digits and ASCII whitespace frame (re.ASCII above).
    2. Covered lines are not read: the read starts at the last line that
       parses with a seq of at most after + 1, or at the first line when
       none does. Before it, only the nearest line that parses is looked
       at: its seq must be one lower, or lower when lines that fail lie
       between them, else SequenceGap. The rest is ignored.
    3. A failing line is a torn tail only when no later line parses as
       note_added; otherwise LoadIntegrityError. A line of whitespace
       alone fails like any other, since the writer never writes one.
    """
    from amem.errors import LoadIntegrityError, SequenceGap
    from amem.persistence import JournalEvent

    def parse(text: str) -> JournalEvent:
        match = _JOURNAL_LINE.match(text)
        if match is None:
            raise ValueError("journal line does not match the event shape")
        seq = int(match.group(1))
        payload_json = match.group(3)
        crc = zlib.crc32(payload_json.encode("utf-8")) & 0xFFFFFFFF
        if crc != int(match.group(4)):
            raise ValueError("journal line checksum mismatch")
        if seq < 1:
            raise ValueError("journal sequence numbers start at 1")
        return JournalEvent(seq=seq, kind=match.group(2), payload_json=payload_json)

    data = Path(path).read_bytes()
    parsed = []  # (offset, event or None), one per line
    pos = 0
    while pos < len(data):
        newline = data.find(b"\n", pos)
        if newline == -1:
            parsed.append((pos, None))  # a line without its newline was cut off
            break
        try:
            event = parse(data[pos:newline].decode("utf-8"))
        except (ValueError, UnicodeDecodeError):
            event = None
        parsed.append((pos, event))
        pos = newline + 1

    start = None
    for index, (_, event) in enumerate(parsed):
        if event is not None and event.seq <= after + 1:
            start = index
    if start is None:
        start = 0
    else:
        stop_at, stop = parsed[start]
        for index in range(start - 1, -1, -1):
            earlier = parsed[index][1]
            if earlier is not None:
                adjacent = index == start - 1
                if not (earlier.seq == stop.seq - 1 or (not adjacent and earlier.seq < stop.seq)):
                    raise SequenceGap(f"journal jumps from seq {earlier.seq} to {stop.seq} at byte {stop_at}")
                break

    events = []
    last_seq = None
    for index in range(start, len(parsed)):
        pos, event = parsed[index]
        if event is None:
            for _, later in parsed[index + 1:]:
                if later is not None and later.kind == "note_added":
                    raise LoadIntegrityError(f"damaged journal line at byte {pos}")
            return events, pos
        if last_seq is not None and event.seq != last_seq + 1:
            raise SequenceGap(f"journal jumps from seq {last_seq} to {event.seq} at byte {pos}")
        if event.seq > after:
            events.append(event)
        last_seq = event.seq
    return events, None


# ---------------------------------------------------------------------------
# metric oracles


def _clipped_matches(candidate: list[str], reference: list[str]) -> int:
    """Occurrence-level overlap counted by knocking tokens out of a pool."""
    pool = list(reference)
    matched = 0
    for token in candidate:
        if token in pool:
            pool.remove(token)
            matched += 1
    return matched


def oracle_f1(prediction: list[str], reference: list[str]) -> float:
    if not prediction or not reference:
        return 0.0
    tp = _clipped_matches(prediction, reference)
    if tp == 0:
        return 0.0
    precision = tp / len(prediction)
    recall = tp / len(reference)
    return 2.0 * precision * recall / (precision + recall)


def oracle_bleu1(candidate: list[str], reference: list[str]) -> float:
    if not candidate:
        return 0.0
    p1 = _clipped_matches(candidate, reference) / len(candidate)
    c, r = len(candidate), len(reference)
    brevity = 1.0 if c > r else math.exp(1.0 - r / c)
    return brevity * p1


def recursive_lcs(a: tuple[str, ...], b: tuple[str, ...]) -> int:
    """Textbook recursive LCS. Exponential; only for short sequences."""
    if not a or not b:
        return 0
    if a[-1] == b[-1]:
        return 1 + recursive_lcs(a[:-1], b[:-1])
    return max(recursive_lcs(a[:-1], b), recursive_lcs(a, b[:-1]))


@lru_cache(maxsize=None)
def _memo_lcs(a: tuple[str, ...], b: tuple[str, ...]) -> int:
    if not a or not b:
        return 0
    if a[-1] == b[-1]:
        return 1 + _memo_lcs(a[:-1], b[:-1])
    return max(_memo_lcs(a[:-1], b), _memo_lcs(a, b[:-1]))


def oracle_rouge_l(candidate: list[str], reference: list[str], beta: float = 1.2) -> float:
    lcs = _memo_lcs(tuple(reference), tuple(candidate))
    if lcs == 0:
        return 0.0
    recall = lcs / len(reference)
    precision = lcs / len(candidate)
    beta_sq = beta * beta
    return (1.0 + beta_sq) * recall * precision / (recall + beta_sq * precision)


def oracle_rouge_2(candidate: list[str], reference: list[str]) -> float:
    ref_bigrams = [(reference[i], reference[i + 1]) for i in range(len(reference) - 1)]
    if not ref_bigrams:
        return 0.0
    cand_bigrams = [(candidate[i], candidate[i + 1]) for i in range(len(candidate) - 1)]
    pool = list(ref_bigrams)
    matched = 0
    for bigram in cand_bigrams:
        if bigram in pool:
            pool.remove(bigram)
            matched += 1
    return matched / len(ref_bigrams)


def oracle_meteor(candidate: list[str], reference: list[str]) -> float:
    if not candidate or not reference:
        return 0.0
    taken: set[int] = set()
    pairs = []
    for ci, token in enumerate(candidate):
        hit = None
        for ri in range(len(reference)):
            if ri not in taken and reference[ri] == token:
                hit = ri
                break
        if hit is not None:
            taken.add(hit)
            pairs.append((ci, hit))
    m = len(pairs)
    if m == 0:
        return 0.0
    chunks = 1
    for (ci, ri), (pci, pri) in zip(pairs[1:], pairs):
        if ci != pci + 1 or ri != pri + 1:
            chunks += 1
    precision = m / len(candidate)
    recall = m / len(reference)
    f_mean = 10.0 * precision * recall / (recall + 9.0 * precision)
    penalty = 0.5 * (chunks / m) ** 3
    return f_mean * (1.0 - penalty)


def oracle_embed_sim(a: str, b: str, encoder) -> float:
    return max(0.0, naive_cosine(encoder.encode(a), encoder.encode(b)))


ORACLE_METRICS = ("f1", "bleu1", "rouge_l", "rouge_2", "meteor", "embed_sim")


def oracle_report(prediction: str, reference: str, encoder) -> dict[str, float]:
    pred = oracle_tokenize(prediction)
    ref = oracle_tokenize(reference)
    return {
        "f1": oracle_f1(pred, ref),
        "bleu1": oracle_bleu1(pred, ref),
        "rouge_l": oracle_rouge_l(pred, ref),
        "rouge_2": oracle_rouge_2(pred, ref),
        "meteor": oracle_meteor(pred, ref),
        "embed_sim": oracle_embed_sim(prediction, reference, encoder),
    }


# ---------------------------------------------------------------------------
# golden-file generation


def load_pairs(path: Path) -> list[tuple[str, str]]:
    pairs = []
    for line in path.read_text("utf-8").splitlines():
        if not line.strip():
            continue
        record = json.loads(line)
        pairs.append((record["prediction"], record["reference"]))
    return pairs


def golden_csv_text(pairs: list[tuple[str, str]], encoder) -> str:
    reports = [oracle_report(p, r, encoder) for p, r in pairs]
    lines = ["pair," + ",".join(ORACLE_METRICS)]
    for number, report in enumerate(reports, start=1):
        lines.append(f"{number}," + ",".join(repr(report[name]) for name in ORACLE_METRICS))
    means = {
        name: sum(report[name] for report in reports) / len(reports)
        for name in ORACLE_METRICS
    }
    lines.append("mean," + ",".join(repr(means[name]) for name in ORACLE_METRICS))
    return "\n".join(lines) + "\n"


def main() -> int:
    from amem import HashEncoder

    pairs = load_pairs(DATA_DIR / "pairs.jsonl")
    text = golden_csv_text(pairs, HashEncoder())
    out = DATA_DIR / "golden_eval.csv"
    out.write_text(text, encoding="utf-8")
    print(f"wrote {out} ({len(pairs)} pairs)", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
