"""Exception types shared across the package.

Every error raised deliberately by this package derives from AmemError, so
callers can catch one base class at integration boundaries. Plain ValueError
and OSError still surface for programming mistakes and raw I/O faults.
"""

from __future__ import annotations


class AmemError(Exception):
    """Base class for all errors raised by this package."""


class EmptyContent(AmemError):
    """Note content was empty or whitespace-only."""


class EmptyQuery(AmemError):
    """Retrieval query was empty or whitespace-only."""


class InvalidTimestamp(AmemError):
    """Timestamp string is not canonical UTC 'YYYY-MM-DDTHH:MM:SSZ' form."""


class BackendUnavailable(AmemError):
    """A remote model backend could not be reached or returned a transport-level failure."""


class SchemaViolation(AmemError):
    """A model response did not match the required output schema after retries."""


class MissingSlot(AmemError):
    """A prompt template slot was not supplied at render time."""


class DimensionMismatch(AmemError):
    """A vector's dimensionality does not match the index or encoder."""


class DuplicateId(AmemError):
    """An id was inserted twice into the same store or index."""


class UnknownId(AmemError):
    """An id does not resolve to any stored note or index entry."""


class SequenceGap(AmemError):
    """Journal sequence numbers are not strictly increasing."""


class EngineFailed(AmemError):
    """A journal write failed or the engine was closed; it refuses mutations
    until the store is reopened."""


class LoadIntegrityError(AmemError):
    """Persisted state failed integrity checks during load."""


class VersionMismatch(AmemError):
    """Persisted state was written by an incompatible format version."""


class ResourceExhausted(AmemError):
    """An operation would exceed the configured memory budget."""


class StoreLocked(AmemError):
    """Another writer holds the journal's lock, or a compaction replaced the
    snapshot under every read of a read-only open."""
