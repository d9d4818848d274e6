"""Command-line front door: ingest, query, export, benchmark, evaluate.

stdout carries only machine-readable payloads (JSON or CSV); every
diagnostic goes to stderr. Exit codes: 0 success, 2 usage or input error,
3 backend error, 4 I/O error.

A command that writes takes the journal's lock, so a second writer exits
4; --read-only takes no lock and writes nothing. The default mock backend
runs fully offline and, paired with the fixed id seed, makes whole command
sequences byte-reproducible.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Iterator

from . import bench as bench_mod
from .embedding import DEFAULT_DIMENSION, HashEncoder, RemoteEncoder
from .engine import EngineConfig, MemoryEngine
from .errors import (
    AmemError,
    BackendUnavailable,
    DimensionMismatch,
    EmptyContent,
    EmptyQuery,
    InvalidTimestamp,
    LoadIntegrityError,
    ResourceExhausted,
    SchemaViolation,
    SequenceGap,
    StoreLocked,
    UnknownId,
    VersionMismatch,
)
from .gateway import LlmGateway, MockBackend, RemoteChatBackend
from .metrics import METRIC_NAMES, evaluate_pairs, mean_report
from .notes import join_float32
from .persistence import open_engine, snapshot_engine

logger = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_BACKEND = 3
EXIT_IO = 4

# Fixed id-generator seed for mock runs, so repeating a command sequence on a
# fresh store reproduces the journal byte for byte.
MOCK_ID_SEED = 0


class UsageError(AmemError):
    """Bad command-line input that argparse itself cannot catch."""


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="amem",
        description="Agentic memory engine: linked notes with exact cosine retrieval.",
    )
    parser.add_argument(
        "--store", default="amem-store", help="store directory (default: ./amem-store)"
    )
    parser.add_argument("--config", default=None, help="path to a JSON config file")
    parser.add_argument(
        "--backend",
        choices=("mock", "remote"),
        default=None,
        help="model backend (default: config file setting, else mock)",
    )
    parser.add_argument(
        "--mock", action="store_true", help="shorthand for --backend mock"
    )
    parser.add_argument(
        "--read-only",
        action="store_true",
        help="open without writing or locking; mutating commands are refused",
    )
    parser.add_argument("--pretty", action="store_true", help="indent JSON output")
    parser.add_argument(
        "-v",
        "--verbose",
        action="count",
        default=0,
        help="-v for progress on stderr, -vv for debug",
    )
    parser.add_argument(
        "--id-seed",
        type=int,
        default=None,
        help="seed for note id generation (default: 0 under mock backend)",
    )

    commands = parser.add_subparsers(dest="command", required=True)

    cmd = commands.add_parser("add", help="construct, link, and store one memory")
    cmd.add_argument("content", nargs="?", default=None, help="memory content text")
    cmd.add_argument("--file", default=None, help="read content from this file instead")
    cmd.add_argument("--timestamp", default=None, help="UTC time as YYYY-MM-DDTHH:MM:SSZ")
    cmd.set_defaults(handler=cmd_add)

    cmd = commands.add_parser("query", help="retrieve the most relevant memories")
    cmd.add_argument("text", help="query text")
    cmd.add_argument("--k", type=int, default=None, help="result count")
    cmd.add_argument("--category", default=None, help="query category for per-category k")
    cmd.set_defaults(handler=cmd_query)

    cmd = commands.add_parser(
        "export-embeddings", help="dump all note embeddings as CSV"
    )
    cmd.add_argument("--out", required=True, help="output CSV path")
    cmd.set_defaults(handler=cmd_export_embeddings)

    cmd = commands.add_parser("bench", help="run the scaling benchmark")
    cmd.add_argument(
        "--sizes", default="1000,10000,100000", help="comma-separated store sizes"
    )
    cmd.add_argument("--queries", type=int, default=bench_mod.DEFAULT_QUERIES)
    cmd.add_argument("--seed", type=int, default=bench_mod.DEFAULT_SEED)
    cmd.add_argument("--dimension", type=int, default=DEFAULT_DIMENSION)
    cmd.add_argument("--k", type=int, default=bench_mod.DEFAULT_K)
    cmd.add_argument(
        "--threads",
        type=int,
        default=None,
        help="measure concurrent-reader throughput with this many threads",
    )
    cmd.add_argument("--out", default=None, help="write CSV here instead of stdout")
    cmd.set_defaults(handler=cmd_bench)

    cmd = commands.add_parser("eval", help="score prediction/reference pairs")
    cmd.add_argument("pairs", help="JSON-lines file of {\"prediction\", \"reference\"}")
    cmd.add_argument("--out", default=None, help="write CSV here instead of stdout")
    cmd.set_defaults(handler=cmd_eval)

    cmd = commands.add_parser("snapshot", help="write a snapshot of the store")
    cmd.add_argument(
        "--compact", action="store_true", help="drop journaled history after snapshotting"
    )
    cmd.set_defaults(handler=cmd_snapshot)

    return parser


def load_cli_config(path: str | None) -> dict[str, Any]:
    if path is None:
        return {}
    try:
        data = json.loads(Path(path).read_text("utf-8"))
    except json.JSONDecodeError as exc:
        raise UsageError(f"config file is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise UsageError("config file must hold a JSON object")
    return data


def resolve_backend_mode(args: argparse.Namespace, cfg: dict[str, Any]) -> str:
    if args.mock and args.backend == "remote":
        raise UsageError("--mock conflicts with --backend remote")
    if args.mock:
        return "mock"
    if args.backend is not None:
        return args.backend
    mode = cfg.get("backend", "mock")
    if mode not in ("mock", "remote"):
        raise UsageError(f"config backend must be 'mock' or 'remote', got {mode!r}")
    return mode


def _setting(section: dict[str, Any], key: str, default: int | float, where: str = "") -> Any:
    """section[key], or default, checked against the type of default.

    An int setting takes a JSON integer; a float setting takes any JSON
    number. true and false are neither, and 3.7 is no integer: a value of
    the wrong type is a usage error, never a crash or a silent coercion.
    """
    value = section.get(key, default)
    integral = isinstance(default, int)
    if isinstance(value, bool) or not isinstance(value, int if integral else (int, float)):
        kind = "an integer" if integral else "a number"
        raise UsageError(f"config {where}{key} must be {kind}, got {value!r}")
    return type(default)(value)


def _build_encoder(args: argparse.Namespace, cfg: dict[str, Any]) -> tuple[str, Any]:
    """The backend mode and the encoder for this invocation. The remote
    encoder needs the config's embedding section and no other."""
    mode = resolve_backend_mode(args, cfg)
    embed_cfg = cfg.get("embedding", {})
    if not isinstance(embed_cfg, dict):
        raise UsageError("config embedding must be a JSON object")
    dimension = _setting(embed_cfg, "dimension", DEFAULT_DIMENSION, "embedding.")
    encoder_seed = _setting(cfg, "encoder_seed", 0)
    embed_timeout = _setting(embed_cfg, "timeout", 30.0, "embedding.")
    if mode == "mock":
        return mode, HashEncoder(dimension=dimension, seed=encoder_seed)
    if "url" not in embed_cfg or "model" not in embed_cfg:
        raise UsageError(
            "remote backend needs embedding.url and embedding.model in the config file"
        )
    return mode, RemoteEncoder(
        url=embed_cfg["url"], model=embed_cfg["model"], dimension=dimension, timeout=embed_timeout
    )


def build_components(
    args: argparse.Namespace, cfg: dict[str, Any]
) -> tuple[Any, LlmGateway, EngineConfig | None, int | None]:
    """Encoder, gateway, engine config, and id seed for this invocation."""
    mode, encoder = _build_encoder(args, cfg)
    llm_cfg = cfg.get("llm", {})
    if not isinstance(llm_cfg, dict):
        raise UsageError("config llm must be a JSON object")
    llm_timeout = _setting(llm_cfg, "timeout", 60.0, "llm.")
    max_in_flight = _setting(llm_cfg, "max_in_flight", 4, "llm.")
    config_id_seed = _setting(cfg, "id_seed", 0) if "id_seed" in cfg else None

    if mode == "mock":
        gateway = LlmGateway(MockBackend())
    else:
        if "url" not in llm_cfg or "model" not in llm_cfg:
            raise UsageError("remote backend needs llm.url and llm.model in the config file")
        gateway = LlmGateway(
            RemoteChatBackend(
                url=llm_cfg["url"],
                model=llm_cfg["model"],
                timeout=llm_timeout,
                max_in_flight=max_in_flight,
            )
        )

    engine_config = None
    if "engine" in cfg:
        try:
            engine_config = EngineConfig.from_mapping(cfg["engine"])
        except (ValueError, TypeError) as exc:
            raise UsageError(f"bad engine config: {exc}") from exc

    id_seed = args.id_seed if args.id_seed is not None else config_id_seed
    if id_seed is None and mode == "mock":
        id_seed = MOCK_ID_SEED
    return encoder, gateway, engine_config, id_seed


def emit_json(payload: Any, pretty: bool) -> None:
    if pretty:
        sys.stdout.write(json.dumps(payload, ensure_ascii=False, indent=2) + "\n")
    else:
        sys.stdout.write(json.dumps(payload, ensure_ascii=False, separators=(",", ":")) + "\n")


@contextmanager
def _open_store_engine(args: argparse.Namespace, read_only: bool) -> Iterator[MemoryEngine]:
    cfg = load_cli_config(args.config)
    encoder, gateway, engine_config, id_seed = build_components(args, cfg)
    engine = open_engine(
        Path(args.store),
        encoder=encoder,
        gateway=gateway,
        config=engine_config,
        id_seed=id_seed,
        read_only=read_only,
    )
    try:
        yield engine
    finally:
        engine.close()


def _reads_only(args: argparse.Namespace) -> bool:
    """Whether a read command opens its store read-only: under --read-only,
    and when the store does not exist, so that the read creates nothing."""
    return args.read_only or not Path(args.store).exists()


def cmd_add(args: argparse.Namespace) -> int:
    if args.read_only:
        raise UsageError("add is a mutating command; drop --read-only")
    if (args.content is None) == (args.file is None):
        raise UsageError("provide content text or --file, not both or neither")
    content = args.content
    if args.file is not None:
        content = Path(args.file).read_text("utf-8")
    with _open_store_engine(args, read_only=False) as engine:
        note_id = engine.add_memory(content, args.timestamp)
        note = engine.get_note(note_id)
        emit_json(
            {
                "id": note.id,
                "timestamp": note.timestamp,
                "keywords": list(note.keywords),
                "tags": list(note.tags),
                "context": note.context,
                "links": len(note.links),
            },
            args.pretty,
        )
    return EXIT_OK


def cmd_query(args: argparse.Namespace) -> int:
    if args.k is not None and args.k < 1:
        raise UsageError("--k must be >= 1")
    with _open_store_engine(args, read_only=_reads_only(args)) as engine:
        hits = engine.retrieve(args.text, k=args.k, category=args.category)
        emit_json(
            [
                {
                    "id": hit.note.id,
                    "score": hit.score,
                    "content": hit.note.content,
                    "context": hit.note.context,
                    "expanded": hit.expanded,
                }
                for hit in hits
            ],
            args.pretty,
        )
    return EXIT_OK


def cmd_export_embeddings(args: argparse.Namespace) -> int:
    with _open_store_engine(args, read_only=_reads_only(args)) as engine:
        notes = list(engine.iter_notes())
        dimension = engine.encoder.dimension
        with open(args.out, "w", encoding="utf-8", newline="") as handle:
            header = ["id"] + [f"dim_{i}" for i in range(dimension)]
            handle.write(",".join(header) + "\n")
            for note in notes:
                handle.write(f"{note.id},{join_float32(note.embedding)}\n")
    logger.info("wrote %d embedding rows to %s", len(notes), args.out)
    return EXIT_OK


def _write_text(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        Path(path).write_text(text, encoding="utf-8")


def cmd_bench(args: argparse.Namespace) -> int:
    try:
        sizes = [int(piece) for piece in args.sizes.split(",") if piece.strip()]
    except ValueError as exc:
        raise UsageError(f"--sizes must be comma-separated integers: {exc}") from exc
    if args.threads is not None:
        rows = [
            bench_mod.run_concurrent(
                n_entries=size,
                threads=args.threads,
                queries_per_thread=args.queries,
                seed=args.seed,
                dimension=args.dimension,
                k=args.k,
            )
            for size in sizes
        ]
        _write_text(args.out, bench_mod.concurrent_rows_to_csv(rows))
        return EXIT_OK
    rows = bench_mod.run_scaling(
        sizes,
        queries_per_size=args.queries,
        seed=args.seed,
        dimension=args.dimension,
        k=args.k,
    )
    _write_text(args.out, bench_mod.rows_to_csv(rows))
    return EXIT_OK


def read_pairs_file(path: str) -> list[tuple[str, str]]:
    pairs: list[tuple[str, str]] = []
    with open(path, "r", encoding="utf-8") as handle:
        for line_number, raw in enumerate(handle, start=1):
            line = raw.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise UsageError(f"{path} line {line_number}: not valid JSON ({exc})") from exc
            if (
                not isinstance(record, dict)
                or not isinstance(record.get("prediction"), str)
                or not isinstance(record.get("reference"), str)
            ):
                raise UsageError(
                    f"{path} line {line_number}: need object with string "
                    f"'prediction' and 'reference'"
                )
            pairs.append((record["prediction"], record["reference"]))
    if not pairs:
        raise UsageError(f"{path} holds no pairs")
    return pairs


def cmd_eval(args: argparse.Namespace) -> int:
    cfg = load_cli_config(args.config)
    _, encoder = _build_encoder(args, cfg)
    pairs = read_pairs_file(args.pairs)
    reports = evaluate_pairs(pairs, encoder)
    lines = ["pair," + ",".join(METRIC_NAMES)]
    for number, report in enumerate(reports, start=1):
        values = report.as_dict()
        lines.append(f"{number}," + ",".join(repr(values[name]) for name in METRIC_NAMES))
    mean_values = mean_report(reports).as_dict()
    lines.append("mean," + ",".join(repr(mean_values[name]) for name in METRIC_NAMES))
    _write_text(args.out, "\n".join(lines) + "\n")
    return EXIT_OK


def cmd_snapshot(args: argparse.Namespace) -> int:
    if args.read_only:
        raise UsageError("snapshot writes to the store; drop --read-only")
    with _open_store_engine(args, read_only=False) as engine:
        path = snapshot_engine(engine, args.store, compact=args.compact)
        notes, last_seq = engine.state_snapshot()
        emit_json(
            {"snapshot": str(path), "notes": len(notes), "last_seq": last_seq},
            args.pretty,
        )
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    level = logging.WARNING
    if args.verbose == 1:
        level = logging.INFO
    elif args.verbose >= 2:
        level = logging.DEBUG
    logging.basicConfig(stream=sys.stderr, level=level, format="%(levelname)s %(name)s: %(message)s")
    try:
        return args.handler(args)
    except (UsageError, EmptyContent, EmptyQuery, InvalidTimestamp, UnknownId, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (BackendUnavailable, SchemaViolation, DimensionMismatch) as exc:
        print(f"backend error: {exc}", file=sys.stderr)
        return EXIT_BACKEND
    except (
        StoreLocked,
        LoadIntegrityError,
        VersionMismatch,
        SequenceGap,
        ResourceExhausted,
        OSError,
    ) as exc:
        print(f"store error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
