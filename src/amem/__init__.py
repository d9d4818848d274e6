"""Agentic memory engine: linked notes, deterministic retrieval, offline backends.

The package builds structured memory notes from raw interactions, links new
notes to their nearest neighbors, lets new information rewrite old notes
(memory evolution), and retrieves contextually relevant memories by cosine
similarity. A deterministic mock LLM backend and a hash-based reference
encoder make the entire pipeline reproducible without network access.
"""

from .bench import BenchRow, ConcurrentRow, run_concurrent, run_scaling
from .embedding import DEFAULT_DIMENSION, Encoder, HashEncoder, RemoteEncoder, basis_vector
from .engine import EngineConfig, MemoryEngine, RetrievedMemory
from .errors import (
    AmemError,
    BackendUnavailable,
    DimensionMismatch,
    DuplicateId,
    EmptyContent,
    EmptyQuery,
    EngineFailed,
    InvalidTimestamp,
    LoadIntegrityError,
    MissingSlot,
    ResourceExhausted,
    SchemaViolation,
    SequenceGap,
    StoreLocked,
    UnknownId,
    VersionMismatch,
)
from .gateway import (
    EvolutionDirective,
    LinkOpinion,
    LlmGateway,
    MockBackend,
    NoteAttributes,
    RemoteChatBackend,
    render_prompt,
)
from .index import VectorIndex, cosine
from .metrics import (
    MetricReport,
    bleu1,
    embed_sim,
    evaluate_pair,
    evaluate_pairs,
    f1,
    meteor,
    rouge_2,
    rouge_l,
    tokenize,
)
from .notes import (
    IdGenerator,
    MemoryNote,
    canonical_json,
    note_text,
    now_timestamp,
    validate_timestamp,
)
from .persistence import Journal, load_store, open_engine, snapshot_engine

__version__ = "0.1.0"

__all__ = [
    "AmemError",
    "BackendUnavailable",
    "BenchRow",
    "ConcurrentRow",
    "DEFAULT_DIMENSION",
    "DimensionMismatch",
    "DuplicateId",
    "EmptyContent",
    "EmptyQuery",
    "Encoder",
    "EngineConfig",
    "EngineFailed",
    "EvolutionDirective",
    "HashEncoder",
    "IdGenerator",
    "InvalidTimestamp",
    "Journal",
    "LinkOpinion",
    "LlmGateway",
    "LoadIntegrityError",
    "MemoryEngine",
    "MemoryNote",
    "MetricReport",
    "MissingSlot",
    "MockBackend",
    "NoteAttributes",
    "RemoteChatBackend",
    "RemoteEncoder",
    "ResourceExhausted",
    "RetrievedMemory",
    "SchemaViolation",
    "SequenceGap",
    "StoreLocked",
    "UnknownId",
    "VectorIndex",
    "VersionMismatch",
    "basis_vector",
    "bleu1",
    "canonical_json",
    "cosine",
    "embed_sim",
    "evaluate_pair",
    "evaluate_pairs",
    "f1",
    "load_store",
    "meteor",
    "note_text",
    "now_timestamp",
    "open_engine",
    "render_prompt",
    "rouge_2",
    "rouge_l",
    "run_concurrent",
    "run_scaling",
    "snapshot_engine",
    "tokenize",
    "validate_timestamp",
]
