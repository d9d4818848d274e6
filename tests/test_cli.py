"""CLI tests: exit codes, JSON output shapes, locking, determinism.

Commands run in process through main(argv) with captured streams, so the
suite exercises the real argument parsing and error mapping without
spawning interpreters.
"""

import csv
import io
import json
from contextlib import redirect_stderr, redirect_stdout
from types import SimpleNamespace

import pytest
import requests

from amem.bench import CONCURRENT_CSV_HEADER, CSV_HEADER
from amem.embedding import DEFAULT_DIMENSION, HashEncoder
from amem.cli import (
    EXIT_BACKEND,
    EXIT_IO,
    EXIT_OK,
    EXIT_USAGE,
    main,
)
from amem.metrics import METRIC_NAMES
from amem.notes import is_note_id
from amem.gateway import LlmGateway, MockBackend
from amem.persistence import (
    JOURNAL_FILENAME,
    SNAPSHOT_FILENAME,
    lock_journal,
    open_engine,
)
from oracles import DATA_DIR, per_element_embedding

CONTENT_A = "photography camera tripod photography camera"
CONTENT_B = "photography camera darkroom darkroom photography camera"


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def store_args(tmp_path, name="store"):
    return ["--store", str(tmp_path / name), "--mock"]


def add(tmp_path, content, timestamp, name="store"):
    return run_cli(
        store_args(tmp_path, name) + ["add", content, "--timestamp", timestamp]
    )


# ---------------------------------------------------------------------------
# add / query


def test_add_emits_note_summary(tmp_path):
    code, out, err = add(tmp_path, CONTENT_A, "2023-06-01T00:00:00Z")
    assert code == EXIT_OK, err
    record = json.loads(out)
    assert set(record) == {"id", "timestamp", "keywords", "tags", "context", "links"}
    assert is_note_id(record["id"])
    assert record["timestamp"] == "2023-06-01T00:00:00Z"
    assert record["keywords"] == ["camera", "photography", "tripod"]
    assert record["links"] == 0


def test_second_add_links_and_query_finds_both(tmp_path):
    add(tmp_path, CONTENT_A, "2023-06-01T00:00:00Z")
    code, out, _ = add(tmp_path, CONTENT_B, "2023-06-01T00:01:00Z")
    assert code == EXIT_OK
    assert json.loads(out)["links"] == 1

    code, out, _ = run_cli(
        store_args(tmp_path) + ["query", "camera photography", "--k", "2"]
    )
    assert code == EXIT_OK
    hits = json.loads(out)
    assert len(hits) == 2
    for hit in hits:
        assert set(hit) == {"id", "score", "content", "context", "expanded"}
        assert hit["expanded"] is False
    assert hits[0]["score"] >= hits[1]["score"]


def test_pretty_output_is_indented(tmp_path):
    code, out, _ = run_cli(
        store_args(tmp_path)
        + ["--pretty", "add", CONTENT_A, "--timestamp", "2023-06-01T00:00:00Z"]
    )
    assert code == EXIT_OK
    assert out.startswith("{\n")
    assert json.loads(out)["links"] == 0


def test_add_from_file(tmp_path):
    source = tmp_path / "note.txt"
    source.write_text(CONTENT_A, "utf-8")
    code, out, _ = run_cli(
        store_args(tmp_path)
        + ["add", "--file", str(source), "--timestamp", "2023-06-01T00:00:00Z"]
    )
    assert code == EXIT_OK
    assert json.loads(out)["keywords"] == ["camera", "photography", "tripod"]


def test_runs_are_byte_identical(tmp_path):
    def one_run(name):
        transcript = []
        for content, ts in (
            (CONTENT_A, "2023-06-01T00:00:00Z"),
            (CONTENT_B, "2023-06-01T00:01:00Z"),
        ):
            code, out, _ = add(tmp_path, content, ts, name=name)
            assert code == EXIT_OK
            transcript.append(out)
        code, out, _ = run_cli(
            store_args(tmp_path, name) + ["query", "camera darkroom", "--k", "2"]
        )
        assert code == EXIT_OK
        transcript.append(out)
        return "".join(transcript)

    assert one_run("store-one") == one_run("store-two")
    journal_one = (tmp_path / "store-one" / JOURNAL_FILENAME).read_bytes()
    journal_two = (tmp_path / "store-two" / JOURNAL_FILENAME).read_bytes()
    assert journal_one == journal_two


# ---------------------------------------------------------------------------
# usage errors


def test_usage_errors_exit_2(tmp_path):
    base = store_args(tmp_path)
    cases = [
        base + ["add"],  # neither content nor --file
        base + ["add", "text", "--file", "also.txt"],
        base + ["add", "   ", "--timestamp", "2023-06-01T00:00:00Z"],
        base + ["add", "hello world", "--timestamp", "June 1st"],
        base + ["query", "camera", "--k", "0"],
        ["--store", str(tmp_path / "s"), "--mock", "--backend", "remote", "query", "x"],
        ["--store", str(tmp_path / "s"), "--backend", "remote", "query", "x"],
    ]
    for argv in cases:
        code, _, err = run_cli(argv)
        assert code == EXIT_USAGE, argv
        assert "error" in err


def test_read_only_refuses_mutations(tmp_path):
    add(tmp_path, CONTENT_A, "2023-06-01T00:00:00Z")
    code, _, err = run_cli(
        store_args(tmp_path)
        + ["--read-only", "add", CONTENT_B, "--timestamp", "2023-06-01T00:01:00Z"]
    )
    assert code == EXIT_USAGE and "read-only" in err
    code, _, err = run_cli(store_args(tmp_path) + ["--read-only", "snapshot"])
    assert code == EXIT_USAGE
    # reads are fine under --read-only
    code, out, _ = run_cli(
        store_args(tmp_path) + ["--read-only", "query", "camera", "--k", "1"]
    )
    assert code == EXIT_OK
    assert len(json.loads(out)) == 1


def test_read_only_query_of_a_missing_store_writes_nothing(tmp_path):
    code, out, _ = run_cli(
        ["--store", str(tmp_path / "missing" / "store"), "--mock", "--read-only", "query", "x"]
    )
    assert code == EXIT_OK
    assert json.loads(out) == []
    assert not (tmp_path / "missing").exists()


def test_a_store_holds_only_its_journal_and_snapshot(tmp_path):
    add(tmp_path, CONTENT_A, "2023-06-01T00:00:00Z")
    code, _, _ = run_cli(store_args(tmp_path) + ["snapshot"])
    assert code == EXIT_OK
    names = sorted(path.name for path in (tmp_path / "store").iterdir())
    assert names == sorted([JOURNAL_FILENAME, SNAPSHOT_FILENAME])


def test_read_only_query_of_a_store_without_a_lock_file_writes_nothing(tmp_path):
    store = tmp_path / "emptystore"
    store.mkdir()
    code, out, _ = run_cli(["--store", str(store), "--mock", "--read-only", "query", "x"])
    assert code == EXIT_OK
    assert json.loads(out) == []
    assert list(store.iterdir()) == []


def test_a_snapshot_config_of_the_wrong_type_exits_4(tmp_path):
    add(tmp_path, CONTENT_A, "2023-06-01T00:00:00Z")
    run_cli(store_args(tmp_path) + ["snapshot"])
    snapshot = tmp_path / "store" / SNAPSHOT_FILENAME
    text = snapshot.read_text("utf-8")
    cases = [
        ('"enable_evolution":true', '"enable_evolution":"no"'),
        ('"k_link":10', '"k_link":true'),
    ]
    for field, wrong in cases:
        assert field in text
        snapshot.write_text(text.replace(field, wrong), "utf-8")
        code, _, err = run_cli(store_args(tmp_path) + ["--read-only", "query", "camera"])
        assert code == EXIT_IO
        assert "store error" in err


def test_config_file_errors(tmp_path):
    bad = tmp_path / "cfg.json"
    bad.write_text("{not json", "utf-8")
    code, _, _ = run_cli(
        store_args(tmp_path) + ["--config", str(bad), "query", "x"]
    )
    assert code == EXIT_USAGE
    bad.write_text("[1, 2]", "utf-8")
    code, _, _ = run_cli(
        store_args(tmp_path) + ["--config", str(bad), "query", "x"]
    )
    assert code == EXIT_USAGE
    embedding = {"url": "http://localhost:1", "model": "m"}
    for config in (
        {"embedding": 5},
        {"llm": 5, "backend": "remote", "embedding": embedding},
        {"llm": "url model", "backend": "remote", "embedding": embedding},
    ):
        bad.write_text(json.dumps(config), "utf-8")
        code, _, err = run_cli(
            store_args(tmp_path) + ["--config", str(bad), "query", "x"]
        )
        assert code == EXIT_USAGE
        assert "must be a JSON object" in err
    # integer settings take JSON integers only, number settings any number
    for config in (
        {"embedding": {"dimension": [1]}},
        {"embedding": {"dimension": 3.7}},
        {"embedding": {"dimension": True}},
        {"embedding": {"timeout": "30"}},
        {"id_seed": None},
        {"id_seed": 1.0},
        {"encoder_seed": False},
        {"llm": {"max_in_flight": 2.5}},
        {"llm": {"timeout": True}},
    ):
        bad.write_text(json.dumps(config), "utf-8")
        code, _, err = run_cli(
            store_args(tmp_path) + ["--read-only", "--config", str(bad), "query", "x"]
        )
        assert code == EXIT_USAGE, config
        assert "must be an integer" in err or "must be a number" in err
        assert "Traceback" not in err


def test_config_file_shapes_the_engine(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps({"embedding": {"dimension": 16}, "engine": {"k_retrieve": 1}}),
        "utf-8",
    )
    base = store_args(tmp_path) + ["--config", str(cfg)]
    run_cli(base + ["add", CONTENT_A, "--timestamp", "2023-06-01T00:00:00Z"])
    run_cli(base + ["add", CONTENT_B, "--timestamp", "2023-06-01T00:01:00Z"])
    code, out, _ = run_cli(base + ["query", "camera"])
    assert code == EXIT_OK
    assert len(json.loads(out)) == 1  # k_retrieve from config

    out_path = tmp_path / "vectors.csv"
    code, _, _ = run_cli(base + ["export-embeddings", "--out", str(out_path)])
    assert code == EXIT_OK
    header = out_path.read_text("utf-8").splitlines()[0]
    assert header == "id," + ",".join(f"dim_{i}" for i in range(16))


# ---------------------------------------------------------------------------
# io errors


def test_locked_store_exits_4(tmp_path):
    store = tmp_path / "store"
    store.mkdir()
    holder, _ = lock_journal(store / JOURNAL_FILENAME)
    try:
        code, _, err = add(tmp_path, CONTENT_A, "2023-06-01T00:00:00Z")
        assert code == EXIT_IO
        # the printed path holds this test's name, so look past it
        assert "locked" in err.replace(str(tmp_path), "")
    finally:
        holder.close()
    code, _, _ = add(tmp_path, CONTENT_A, "2023-06-01T00:00:00Z")
    assert code == EXIT_OK


def test_a_read_only_query_reads_a_store_a_writer_holds(tmp_path):
    writer = open_engine(
        tmp_path / "store", gateway=LlmGateway(MockBackend()), id_seed=0
    )
    try:
        ids = {
            writer.add_memory(CONTENT_A, "2023-06-01T00:00:00Z"),
            writer.add_memory(CONTENT_B, "2023-06-01T00:01:00Z"),
        }
        code, out, err = run_cli(
            store_args(tmp_path) + ["--read-only", "query", "camera", "--k", "2"]
        )
        assert code == EXIT_OK, err
        assert {hit["id"] for hit in json.loads(out)} == ids
        code, _, err = run_cli(store_args(tmp_path) + ["query", "camera"])
        assert code == EXIT_IO and "locked" in err
    finally:
        writer.close()


def test_missing_content_file_exits_4(tmp_path):
    code, _, _ = run_cli(
        store_args(tmp_path) + ["add", "--file", str(tmp_path / "absent.txt")]
    )
    assert code == EXIT_IO


def test_damaged_snapshot_exits_4(tmp_path):
    add(tmp_path, CONTENT_A, "2023-06-01T00:00:00Z")
    code, _, _ = run_cli(store_args(tmp_path) + ["snapshot"])
    assert code == EXIT_OK
    snapshot = tmp_path / "store" / SNAPSHOT_FILENAME
    snapshot.write_text(
        snapshot.read_text("utf-8").replace('"format_version":2', '"format_version":9'),
        "utf-8",
    )
    code, _, err = run_cli(store_args(tmp_path) + ["query", "camera"])
    assert code == EXIT_IO
    assert "store error" in err


class FakeEmbeddingSession:
    """Stands in for requests.Session: every text gets a vector of `width`
    copies of `entry`."""

    width = 7
    entry = 1.0

    def post(self, url, json=None, headers=None, timeout=None):
        rows = [
            {"index": i, "embedding": [self.entry] * self.width} for i in range(len(json["input"]))
        ]
        return SimpleNamespace(status_code=200, json=lambda: {"data": rows})


def remote_config(tmp_path, monkeypatch, width):
    """A remote-backend config file whose embedding service answers with
    vectors of `width` floats; the config asks for the default dimension."""
    monkeypatch.setattr(FakeEmbeddingSession, "width", width)
    monkeypatch.setattr(requests, "Session", FakeEmbeddingSession)
    cfg = tmp_path / "remote.json"
    service = {"url": "http://models.invalid", "model": "m"}
    cfg.write_text(
        json.dumps({"backend": "remote", "llm": service, "embedding": service}), "utf-8"
    )
    return str(cfg)


@pytest.mark.parametrize("slots", [0, -3])
def test_a_max_in_flight_below_one_exits_2_before_the_store_opens(tmp_path, monkeypatch, slots):
    cfg = remote_config(tmp_path, monkeypatch, width=DEFAULT_DIMENSION)
    with open(cfg, encoding="utf-8") as handle:
        data = json.load(handle)
    data["llm"]["max_in_flight"] = slots
    with open(cfg, "w", encoding="utf-8") as handle:
        json.dump(data, handle)
    code, out, err = run_cli(["--store", str(tmp_path / "store"), "--config", cfg, "query", "camera"])
    assert code == EXIT_USAGE
    assert out == ""
    assert f"max_in_flight must be >= 1, got {slots}" in err
    assert not (tmp_path / "store").exists()


def test_an_encoder_vector_of_the_wrong_dimension_exits_3(tmp_path, monkeypatch):
    cfg = remote_config(tmp_path, monkeypatch, width=7)
    code, out, err = run_cli(["--store", str(tmp_path / "store"), "--config", cfg, "query", "camera"])
    assert code == EXIT_BACKEND
    assert out == ""
    assert "backend error" in err and "dimension 7" in err


@pytest.mark.parametrize("entry", [[1.0], "x", True], ids=["nested", "string", "bool"])
def test_an_encoder_vector_of_non_numbers_exits_3(tmp_path, monkeypatch, entry):
    cfg = remote_config(tmp_path, monkeypatch, width=DEFAULT_DIMENSION)
    monkeypatch.setattr(FakeEmbeddingSession, "entry", entry)
    code, out, err = run_cli(["--store", str(tmp_path / "store"), "--config", cfg, "query", "camera"])
    assert code == EXIT_BACKEND
    assert out == ""
    assert "backend error" in err and "not a flat array of numbers" in err


def test_a_store_of_another_dimension_exits_4(tmp_path, monkeypatch):
    small = tmp_path / "small.json"
    small.write_text(json.dumps({"embedding": {"dimension": 16}}), "utf-8")
    code, _, _ = run_cli(
        store_args(tmp_path)
        + ["--config", str(small), "add", CONTENT_A, "--timestamp", "2023-06-01T00:00:00Z"]
    )
    assert code == EXIT_OK

    cfg = remote_config(tmp_path, monkeypatch, width=DEFAULT_DIMENSION)
    code, _, err = run_cli(["--store", str(tmp_path / "store"), "--config", cfg, "query", "camera"])
    # The store's records carry embedding_crc, which no other encoder derives.
    assert code == EXIT_IO
    assert "store error" in err and "embedding_crc" in err
    monkeypatch.undo()
    code, _, err = run_cli(store_args(tmp_path) + ["query", "camera"])
    assert code == EXIT_IO
    assert "store error" in err and "does not match its embedding_crc" in err


# ---------------------------------------------------------------------------
# export


def test_export_embeddings_round_trip(tmp_path):
    add(tmp_path, CONTENT_A, "2023-06-01T00:00:00Z")
    add(tmp_path, CONTENT_B, "2023-06-01T00:01:00Z")
    out_path = tmp_path / "vectors.csv"
    code, _, _ = run_cli(
        store_args(tmp_path) + ["export-embeddings", "--out", str(out_path)]
    )
    assert code == EXIT_OK
    with open(out_path, newline="", encoding="utf-8") as handle:
        rows = list(csv.reader(handle))
    assert rows[0][0] == "id" and rows[0][1] == "dim_0"
    assert len(rows) == 3
    assert len(rows[1]) == 1 + 384
    for value in rows[1][1:]:
        float(value)
    # each row holds the note's embedding as canonical JSON writes it
    engine = open_engine(tmp_path / "store", read_only=True)
    embeddings = {note.id: note.embedding for note in engine.iter_notes()}
    engine.close()
    for row in rows[1:]:
        assert "[" + ",".join(row[1:]) + "]" == per_element_embedding(embeddings[row[0]])


def test_export_embeddings_empty_store(tmp_path):
    out_path = tmp_path / "vectors.csv"
    code, _, _ = run_cli(
        store_args(tmp_path) + ["export-embeddings", "--out", str(out_path)]
    )
    assert code == EXIT_OK
    assert out_path.read_text("utf-8").count("\n") == 1


# ---------------------------------------------------------------------------
# bench


def test_bench_scaling_csv(tmp_path):
    code, out, _ = run_cli(
        ["bench", "--sizes", "50,100", "--queries", "100", "--dimension", "16", "--k", "5"]
    )
    assert code == EXIT_OK
    lines = out.splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 3
    assert lines[1].startswith("50,3200,")
    assert lines[2].startswith("100,6400,")


def test_bench_concurrent_csv(tmp_path):
    out_path = tmp_path / "bench.csv"
    code, out, _ = run_cli(
        [
            "bench",
            "--sizes",
            "50",
            "--queries",
            "20",
            "--dimension",
            "16",
            "--threads",
            "2",
            "--out",
            str(out_path),
        ]
    )
    assert code == EXIT_OK
    assert out == ""
    lines = out_path.read_text("utf-8").splitlines()
    assert lines[0] == CONCURRENT_CSV_HEADER
    assert lines[1].startswith("50,2,40,")


def test_bench_rejects_bad_sizes():
    code, _, err = run_cli(["bench", "--sizes", "ten,20"])
    assert code == EXIT_USAGE
    code, _, _ = run_cli(["bench", "--sizes", "100,50"])
    assert code == EXIT_USAGE


# ---------------------------------------------------------------------------
# eval


def test_eval_matches_the_golden_file(tmp_path):
    code, out, _ = run_cli(["--mock", "eval", str(DATA_DIR / "pairs.jsonl")])
    assert code == EXIT_OK
    got = list(csv.DictReader(io.StringIO(out)))
    with open(DATA_DIR / "golden_eval.csv", newline="", encoding="utf-8") as handle:
        golden = list(csv.DictReader(handle))
    assert len(got) == len(golden)
    assert got[-1]["pair"] == "mean"
    for mine, theirs in zip(got, golden):
        assert mine["pair"] == theirs["pair"]
        for name in METRIC_NAMES:
            assert abs(float(mine[name]) - float(theirs[name])) < 1e-9


def test_eval_is_deterministic(tmp_path):
    argv = ["--mock", "eval", str(DATA_DIR / "pairs.jsonl")]
    assert run_cli(argv) == run_cli(argv)


class UnreachableSession:
    """Stands in for requests.Session: no service answers."""

    def post(self, url, json=None, headers=None, timeout=None):
        raise requests.ConnectionError("connection refused")


def test_eval_needs_only_the_embedding_settings(tmp_path, monkeypatch):
    # eval only encodes: a remote config without an llm section passes the
    # config check, and the unreachable encoder is a backend error.
    monkeypatch.setattr(requests, "Session", UnreachableSession)
    cfg = tmp_path / "remote.json"
    cfg.write_text(
        json.dumps({"backend": "remote", "embedding": {"url": "http://models.invalid", "model": "m"}}),
        "utf-8",
    )
    code, out, err = run_cli(["--config", str(cfg), "eval", str(DATA_DIR / "pairs.jsonl")])
    assert code == EXIT_BACKEND
    assert out == ""
    assert "embedding endpoint unreachable" in err


class CountingEmbeddingSession:
    """Stands in for requests.Session: an embedding service that answers
    each request with HashEncoder vectors and keeps each request's inputs."""

    encoder = HashEncoder(dimension=DEFAULT_DIMENSION, seed=0)
    inputs = []

    def post(self, url, json=None, headers=None, timeout=None):
        self.inputs.append(json["input"])
        vectors = self.encoder.encode_many(json["input"])
        data = [{"index": i, "embedding": v.tolist()} for i, v in enumerate(vectors)]
        return SimpleNamespace(status_code=200, json=lambda: {"data": data})


def test_eval_embeds_the_whole_file_in_one_request(tmp_path, monkeypatch):
    monkeypatch.setattr(CountingEmbeddingSession, "inputs", [])
    monkeypatch.setattr(requests, "Session", CountingEmbeddingSession)
    cfg = tmp_path / "remote.json"
    cfg.write_text(
        json.dumps({"backend": "remote", "embedding": {"url": "http://models.invalid", "model": "m"}}),
        "utf-8",
    )
    code, out, _ = run_cli(["--config", str(cfg), "eval", str(DATA_DIR / "pairs.jsonl")])
    assert code == EXIT_OK
    pairs = [json.loads(line) for line in (DATA_DIR / "pairs.jsonl").read_text("utf-8").splitlines()]
    texts = [text for pair in pairs for text in (pair["prediction"], pair["reference"])]
    assert CountingEmbeddingSession.inputs == [[text for text in texts if text.strip()]]
    assert len(list(csv.DictReader(io.StringIO(out)))) == len(pairs) + 1


def test_eval_reports_the_bad_line(tmp_path):
    pairs = tmp_path / "pairs.jsonl"
    pairs.write_text(
        '{"prediction": "a", "reference": "a"}\n{broken\n', "utf-8"
    )
    code, _, err = run_cli(["--mock", "eval", str(pairs)])
    assert code == EXIT_USAGE
    assert "line 2" in err

    pairs.write_text('{"prediction": "a"}\n', "utf-8")
    code, _, err = run_cli(["--mock", "eval", str(pairs)])
    assert code == EXIT_USAGE
    assert "line 1" in err

    pairs.write_text("\n\n", "utf-8")
    code, _, err = run_cli(["--mock", "eval", str(pairs)])
    assert code == EXIT_USAGE


# ---------------------------------------------------------------------------
# snapshot


def test_snapshot_then_compact_then_reload(tmp_path):
    add(tmp_path, CONTENT_A, "2023-06-01T00:00:00Z")
    add(tmp_path, CONTENT_B, "2023-06-01T00:01:00Z")
    code, out, _ = run_cli(store_args(tmp_path) + ["snapshot", "--compact"])
    assert code == EXIT_OK
    record = json.loads(out)
    assert record["notes"] == 2
    assert record["last_seq"] >= 2
    assert (tmp_path / "store" / SNAPSHOT_FILENAME).exists()
    assert (tmp_path / "store" / JOURNAL_FILENAME).read_bytes() == b""

    code, out, _ = run_cli(store_args(tmp_path) + ["query", "camera", "--k", "2"])
    assert code == EXIT_OK
    assert len(json.loads(out)) == 2
