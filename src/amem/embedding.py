"""Text encoders producing unit-length float32 vectors.

Two implementations share one contract: `encode` maps text to a 1-D float32
vector of fixed dimension with unit L2 norm (within 1e-6), and empty or
whitespace-only text maps to the fixed first basis vector. Stored notes are
encoded from their enriched note text; queries are encoded raw.

HashEncoder is the deterministic reference encoder used for offline runs and
integrity checks: no model weights, no network, bitwise-stable output across
platforms and runs. RemoteEncoder calls an HTTP embedding service.
"""

from __future__ import annotations

import hashlib
import os
import re
import string
import threading
from itertools import chain
from typing import Any, Protocol, Sequence

import numpy as np
import requests

from .errors import BackendUnavailable, DimensionMismatch
from .index import _is_count

_TOKEN_RE = re.compile(r"\w+")

# A bytes.translate table that keeps the bytes \w matches in ASCII text,
# [0-9A-Za-z_], and maps every other byte to a space.
_SPACE_NON_WORD = bytes(
    b if chr(b) in string.ascii_letters + string.digits + "_" else 0x20 for b in range(256)
)

DEFAULT_DIMENSION = 384

# HashEncoder keeps the coordinates of at most _TOKEN_LIMIT tokens, in a
# table of at least _MIN_TABLE_ROWS rows that doubles as it fills.
_TOKEN_LIMIT = 65536
_MIN_TABLE_ROWS = 1024

EMBED_API_KEY_ENV = "AMEM_EMBED_API_KEY"


def _is_timeout(value: Any) -> bool:
    """An int or float of seconds, finite and above 0; a bool is not one."""
    return type(value) in (int, float) and 0 < value < float("inf")


def post_json(
    session: requests.Session,
    url: str,
    body: Any,
    api_key: str | None,
    timeout: float,
    service: str,
) -> requests.Response:
    """POST body as JSON, with a bearer token when api_key is set, and
    return the HTTP 200 response. A transport failure or any other status
    raises BackendUnavailable naming the service. The one HTTP call of the
    remote encoder and the remote chat backend."""
    headers = {"Content-Type": "application/json"}
    if api_key:
        headers["Authorization"] = f"Bearer {api_key}"
    try:
        response = session.post(url, json=body, headers=headers, timeout=timeout)
    except requests.RequestException as exc:
        raise BackendUnavailable(f"{service} endpoint unreachable: {exc}") from exc
    if response.status_code != 200:
        raise BackendUnavailable(f"{service} endpoint returned HTTP {response.status_code}")
    return response


class Encoder(Protocol):
    """Contract shared by all text encoders."""

    dimension: int
    deterministic: bool

    def encode(self, text: str) -> np.ndarray: ...

    def encode_many(self, texts: Sequence[str]) -> list[np.ndarray]: ...


def _tokenize(text: str) -> list[str]:
    """_TOKEN_RE.findall(text.lower()), with one bytes.translate and a
    split when the lowercased text is ASCII (see HashEncoder)."""
    lowered = text.lower()
    if lowered.isascii():
        return lowered.encode("ascii").translate(_SPACE_NON_WORD).decode("ascii").split()
    return _TOKEN_RE.findall(lowered)


def basis_vector(dimension: int) -> np.ndarray:
    """The fixed unit vector assigned to empty text: (1, 0, ..., 0)."""
    vec = np.zeros(dimension, dtype=np.float32)
    vec[0] = 1.0
    vec.setflags(write=False)
    return vec


class HashEncoder:
    r"""Deterministic reference encoder built on keyed blake2b hashing.

    Text is lowercased and split into word tokens, the runs of \w. When the
    lowercased text is ASCII, one bytes.translate maps every byte outside
    [0-9A-Za-z_] to a space and a whitespace split takes the tokens: on
    ASCII text \w matches exactly those bytes, so with only they and spaces
    left the split ends each token where the regex does. (str.split alone
    would also split at the separators \x1c-\x1f, which are spaces by
    then.) Other text goes through the regex. The ASCII test comes after
    lowercasing, which can make text ASCII: "K" (KELVIN SIGN) becomes "k".

    Each distinct token's seeded 64-bit-keyed hash stream, read as
    big-endian 32-bit words, selects dimension/8 signed coordinates: word
    >> 1 modulo the dimension is the coordinate and the low bit its sign.
    The stream is the concatenated 64-byte blake2b digests of the token's
    UTF-8 bytes followed by a big-endian 4-byte block number, 0, 1, ...
    Those messages share a prefix, so a cold token's bytes reach the keyed
    hash once, and its key block is compressed once rather than once per
    digest; each digest then adds only its block number.
    Every occurrence of a token adds 1 to each of its coordinates with that
    sign (the signed hashing trick of Weinberger et al., 2009), and the
    summed vector is L2-normalized in float64, then narrowed to float32 once
    at the end. Every sum is a small integer, exact in float64, so neither
    the order of tokens in the text nor the order of the additions (one
    vectorized bincount per batch of texts) can change a bit.

    Same seed, same text, same vector, on any platform, whether the text is
    encoded alone or in a batch.
    """

    deterministic = True

    def __init__(self, dimension: int = DEFAULT_DIMENSION, seed: int = 0) -> None:
        if not _is_count(dimension):
            raise ValueError("dimension must be an integer >= 1")
        if isinstance(seed, bool) or not isinstance(seed, int) or not 0 <= seed < 2**64:
            raise ValueError("seed must be an integer that fits in 64 bits")
        self.dimension = dimension
        self.seed = seed
        self._hasher = hashlib.blake2b(key=seed.to_bytes(8, "big"), digest_size=64)
        self._coords_per_token = max(1, self.dimension // 8)
        # 64-byte digests needed for 4 bytes per coordinate
        digests_per_token = -(-self._coords_per_token * 4 // 64)
        self._block_suffixes = [block.to_bytes(4, "big") for block in range(digests_per_token)]
        # The signed-slot table: row r holds, for each coordinate c of the
        # token that _rows maps to r, the slot 2*c + 1 when its sign is + and
        # 2*c when it is -. It grows by doubling and is emptied once a batch
        # would take it past _TOKEN_LIMIT tokens.
        self._rows: dict[str, int] = {}
        self._coords = np.empty(
            (0, self._coords_per_token), dtype=np.min_scalar_type(2 * self.dimension - 1)
        )
        self._table_lock = threading.Lock()

    def _learn(self, tokens: list[str]) -> None:
        """Hash tokens into the next rows of the signed-slot table."""
        start = len(self._rows)
        end = start + len(tokens)
        if end > len(self._coords):
            capacity = max(len(self._coords), _MIN_TABLE_ROWS)
            while capacity < end:
                capacity *= 2
            grown = np.empty((capacity, self._coords_per_token), dtype=self._coords.dtype)
            grown[:start] = self._coords[:start]
            self._coords = grown
        # A keyed blake2b hashes its zero-padded key as the first message
        # block, so every message of a token shares the key block and the
        # token's bytes. That prefix is fed once per token; each digest but
        # the last comes from a copy of it fed its block number, the last
        # from the prefix itself.
        *copied, last = self._block_suffixes
        digests = []
        for token in tokens:
            prefix = self._hasher.copy()
            prefix.update(token.encode("utf-8"))
            for suffix in copied:
                hasher = prefix.copy()
                hasher.update(suffix)
                digests.append(hasher.digest())
            prefix.update(last)
            digests.append(prefix.digest())
        words = np.frombuffer(b"".join(digests), dtype=">u4").reshape(len(tokens), -1)
        words = words[:, : self._coords_per_token]
        # The slot (word >> 1) % dimension * 2 + (word & 1) equals
        # word - (word >> 1) // dimension * 2 * dimension, because word is
        # (word >> 1) * 2 + (word & 1). numpy divides a uint32 array by a
        # scalar about ten times faster than it takes the remainder, and
        # every step writes into one uint32 buffer: a fresh temporary per
        # step would cost more than the division saves.
        slots = np.right_shift(words, 1, dtype=np.uint32)
        slots //= self.dimension
        slots *= self.dimension
        slots <<= 1
        np.subtract(words, slots, out=slots)
        self._coords[start:end] = slots
        self._rows.update(zip(tokens, range(start, end)))

    def _token_table(self, texts: list[list[str]]) -> np.ndarray:
        """The signed slots of every token occurrence, one row each, in order."""
        rows = self._rows
        with self._table_lock:
            distinct = dict.fromkeys(chain.from_iterable(texts))
            new = [token for token in distinct if token not in rows]
            if new:
                if len(rows) + len(new) > _TOKEN_LIMIT:
                    # A full table starts over, from this batch's tokens.
                    rows.clear()
                    new = list(distinct)
                self._learn(new)
            occurrences = sum(map(len, texts))
            found = map(rows.__getitem__, chain.from_iterable(texts))
            slots = self._coords[np.fromiter(found, np.intp, occurrences)]
            if len(self._coords) > _TOKEN_LIMIT:
                # Only a batch with more distinct tokens than the limit
                # gets here; it leaves an empty table behind.
                rows.clear()
                self._coords = self._coords[:0].copy()
        return slots

    def encode(self, text: str) -> np.ndarray:
        return self.encode_many([text])[0]

    def encode_many(self, texts: Sequence[str]) -> list[np.ndarray]:
        tokens = [_tokenize(text) for text in texts]
        n, dimension = len(tokens), self.dimension
        slots = self._token_table(tokens)
        if n > 1:
            offsets = np.arange(n, dtype=np.intp) * (2 * dimension)
            offsets = np.repeat(offsets, [len(t) for t in tokens])
            slots = np.add(slots, offsets[:, None], dtype=np.intp)
        else:
            slots = slots.astype(np.intp)
        # Text i's coordinate c sums to counts[i, c, 1] - counts[i, c, 0].
        # Freeing the slots first keeps the batch's peak memory at the bincount.
        counts = np.bincount(slots.ravel(), minlength=n * dimension * 2).reshape(n, dimension, 2)
        del slots
        acc = np.subtract(counts[..., 1], counts[..., 0], dtype=np.float64)
        norms = np.sqrt(np.einsum("ij,ij->i", acc, acc))
        # Rows with no tokens, or whose signed contributions all cancelled,
        # get the empty-text vector.
        empty = norms == 0.0
        norms[empty] = 1.0
        acc /= norms[:, None]
        out = acc.astype(np.float32)
        out[empty, 0] = 1.0
        out.setflags(write=False)
        return list(out)


class RemoteEncoder:
    """Encoder backed by an HTTP embedding endpoint.

    Sends {"model", "input"} and expects {"data": [{"index", "embedding"}]}.
    Returned vectors are re-normalized locally so downstream cosine math sees
    unit vectors regardless of service behavior, whatever the rows' scale.
    Transport failures, non-200 statuses and malformed responses or rows,
    among them a row of zeros or one holding a non-finite value, raise
    BackendUnavailable. The timeout is a finite number of seconds above 0.
    """

    deterministic = False

    def __init__(
        self,
        url: str,
        model: str,
        dimension: int = DEFAULT_DIMENSION,
        timeout: float = 30.0,
        session: requests.Session | None = None,
        api_key: str | None = None,
    ) -> None:
        if not _is_count(dimension):
            raise ValueError("dimension must be an integer >= 1")
        if not _is_timeout(timeout):
            raise ValueError(f"embedding timeout must be finite and > 0 seconds, got {timeout}")
        self.url = url
        self.model = model
        self.dimension = dimension
        self.timeout = timeout
        self._session = session if session is not None else requests.Session()
        self._api_key = api_key if api_key is not None else os.environ.get(EMBED_API_KEY_ENV)

    def encode(self, text: str) -> np.ndarray:
        return self.encode_many([text])[0]

    def encode_many(self, texts: Sequence[str]) -> list[np.ndarray]:
        texts = list(texts)
        # blank texts never go over the wire; the shared basis vector is read-only
        out = [basis_vector(self.dimension)] * len(texts)
        remote_indices = [i for i, text in enumerate(texts) if text.strip()]
        if remote_indices:
            vectors = self._fetch([texts[i] for i in remote_indices])
            for slot, vec in zip(remote_indices, vectors):
                out[slot] = vec
        return out

    def _fetch(self, texts: list[str]) -> list[np.ndarray]:
        payload = {"model": self.model, "input": texts}
        response = post_json(
            self._session, self.url, payload, self._api_key, self.timeout, "embedding"
        )
        try:
            rows = sorted(response.json()["data"], key=lambda row: row["index"])
            indices = [row["index"] for row in rows]
            if indices != list(range(len(texts))) or any(type(i) is not int for i in indices):
                raise ValueError(f"row indices are not 0..{len(texts) - 1}")
            raw = [row["embedding"] for row in rows]
            # JSON numbers only: a bool would pass for 1, a string for a float
            if not all(isinstance(v, list) and all(type(x) in (int, float) for x in v) for v in raw):
                raise ValueError("an embedding is not a flat array of numbers")
            arrays = [np.array(values, dtype=np.float64) for values in raw]
        except (ValueError, KeyError, TypeError, OverflowError) as exc:
            raise BackendUnavailable(f"malformed embedding response: {exc}") from exc
        vectors: list[np.ndarray] = []
        for vec in arrays:
            if vec.size != self.dimension:
                raise DimensionMismatch(
                    f"embedding response dimension {vec.size} != {self.dimension}"
                )
            if not (np.all(np.isfinite(vec)) and vec.any()):
                raise BackendUnavailable("embedding response contains a degenerate vector")
            with np.errstate(over="ignore", under="ignore"):
                norm = float(np.linalg.norm(vec))
            if norm == 0.0 or norm == np.inf:
                # The squares left float64's range: scale the largest entry to 1 first.
                vec = vec / np.abs(vec).max()
                norm = float(np.linalg.norm(vec))
            out = (vec / norm).astype(np.float32)
            out.setflags(write=False)
            vectors.append(out)
        return vectors
