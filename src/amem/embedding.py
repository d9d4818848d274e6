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
from collections import Counter
from typing import Protocol, Sequence

import numpy as np
import requests

from .errors import BackendUnavailable, DimensionMismatch

_TOKEN_RE = re.compile(r"\w+")

DEFAULT_DIMENSION = 384

EMBED_API_KEY_ENV = "AMEM_EMBED_API_KEY"


class Encoder(Protocol):
    """Contract shared by all text encoders."""

    dimension: int
    deterministic: bool

    def encode(self, text: str) -> np.ndarray: ...

    def encode_many(self, texts: Sequence[str]) -> list[np.ndarray]: ...


def basis_vector(dimension: int) -> np.ndarray:
    """The fixed unit vector assigned to empty text: (1, 0, ..., 0)."""
    vec = np.zeros(dimension, dtype=np.float32)
    vec[0] = 1.0
    vec.setflags(write=False)
    return vec


def is_unit(vec: np.ndarray, tol: float = 1e-6) -> bool:
    return abs(float(np.linalg.norm(np.asarray(vec, dtype=np.float64))) - 1.0) <= tol


class HashEncoder:
    """Deterministic reference encoder built on keyed blake2b hashing.

    Text is lowercased and split into word tokens. Each distinct token's
    seeded 64-bit-keyed hash stream, read as big-endian 32-bit words, selects
    dimension/8 signed coordinates: word >> 1 modulo the dimension is the
    coordinate and the low bit its sign. Each selected coordinate
    accumulates the token's frequency with that sign, and the accumulated
    vector is L2-normalized in float64, then narrowed to float32 once at the
    end. Every accumulated value is a small integer, exact in float64, so
    neither the order of tokens in the text nor the order of the additions
    (one vectorized bincount per text) can change a bit.

    Same seed, same text, same vector, on any platform.
    """

    deterministic = True

    def __init__(self, dimension: int = DEFAULT_DIMENSION, seed: int = 0) -> None:
        if dimension < 1:
            raise ValueError("dimension must be >= 1")
        if not 0 <= seed < 2**64:
            raise ValueError("seed must fit in 64 bits")
        self.dimension = int(dimension)
        self.seed = int(seed)
        self._key = seed.to_bytes(8, "big")
        self._coords_per_token = max(1, self.dimension // 8)
        # 64-byte digests needed for 4 bytes per coordinate
        self._digests_per_token = -(-self._coords_per_token * 4 // 64)
        self._coord_cache: dict[str, tuple[np.ndarray, np.ndarray]] = {}

    def _coordinates(self, token: str) -> tuple[np.ndarray, np.ndarray]:
        """The token's coordinates (intp) and their signs (float64 +-1)."""
        cached = self._coord_cache.get(token)
        if cached is not None:
            return cached
        data = token.encode("utf-8")
        stream = b"".join(
            hashlib.blake2b(
                data + block.to_bytes(4, "big"), key=self._key, digest_size=64
            ).digest()
            for block in range(self._digests_per_token)
        )
        words = np.frombuffer(stream, dtype=">u4", count=self._coords_per_token)
        result = (
            ((words >> 1) % self.dimension).astype(np.intp),
            np.where(words & 1, 1.0, -1.0),
        )
        if len(self._coord_cache) >= 65536:
            self._coord_cache.clear()
        self._coord_cache[token] = result
        return result

    def encode(self, text: str) -> np.ndarray:
        counts = Counter(_TOKEN_RE.findall(text.lower()))
        if not counts:
            return basis_vector(self.dimension)
        coords = [self._coordinates(token) for token in counts]
        frequency = np.fromiter(counts.values(), dtype=np.float64, count=len(counts))
        weights = np.concatenate([signs for _, signs in coords])
        weights *= np.repeat(frequency, self._coords_per_token)
        acc = np.bincount(
            np.concatenate([index for index, _ in coords]),
            weights=weights,
            minlength=self.dimension,
        )
        norm = float(np.sqrt(np.dot(acc, acc)))
        if norm == 0.0:
            # All signed contributions cancelled; fall back to the empty-text vector.
            return basis_vector(self.dimension)
        out = (acc / norm).astype(np.float32)
        out.setflags(write=False)
        return out

    def encode_many(self, texts: Sequence[str]) -> list[np.ndarray]:
        return [self.encode(text) for text in texts]


class RemoteEncoder:
    """Encoder backed by an HTTP embedding endpoint.

    Sends {"model", "input"} and expects {"data": [{"index", "embedding"}]}.
    Returned vectors are re-normalized locally so downstream cosine math sees
    unit vectors regardless of service behavior. Transport failures, non-200
    statuses, and malformed response envelopes raise BackendUnavailable.
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
        if dimension < 1:
            raise ValueError("dimension must be >= 1")
        self.url = url
        self.model = model
        self.dimension = int(dimension)
        self.timeout = timeout
        self._session = session if session is not None else requests.Session()
        self._api_key = api_key if api_key is not None else os.environ.get(EMBED_API_KEY_ENV)

    def _headers(self) -> dict[str, str]:
        headers = {"Content-Type": "application/json"}
        if self._api_key:
            headers["Authorization"] = f"Bearer {self._api_key}"
        return headers

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
        try:
            response = self._session.post(
                self.url, json=payload, headers=self._headers(), timeout=self.timeout
            )
        except requests.RequestException as exc:
            raise BackendUnavailable(f"embedding endpoint unreachable: {exc}") from exc
        if response.status_code != 200:
            raise BackendUnavailable(
                f"embedding endpoint returned HTTP {response.status_code}"
            )
        try:
            body = response.json()
            rows = sorted(body["data"], key=lambda row: row["index"])
            raw = [row["embedding"] for row in rows]
        except (ValueError, KeyError, TypeError) as exc:
            raise BackendUnavailable(f"malformed embedding response: {exc}") from exc
        if len(raw) != len(texts):
            raise BackendUnavailable(
                f"embedding response row count {len(raw)} != request count {len(texts)}"
            )
        vectors: list[np.ndarray] = []
        for values in raw:
            vec = np.asarray(values, dtype=np.float64)
            if vec.ndim != 1 or vec.size != self.dimension:
                raise DimensionMismatch(
                    f"embedding response dimension {vec.size} != {self.dimension}"
                )
            norm = float(np.linalg.norm(vec))
            if norm == 0.0 or not np.all(np.isfinite(vec)):
                raise BackendUnavailable("embedding response contains a degenerate vector")
            out = (vec / norm).astype(np.float32)
            out.setflags(write=False)
            vectors.append(out)
        return vectors
