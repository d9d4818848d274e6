"""Tests of the benchmark itself: output schema, metric names, input
determinism, and that the recall check catches a wrong ranking."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import inputs  # noqa: E402
import workloads  # noqa: E402

DEFINITION = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
SMOKE_SCALE = "0.01"


def run_benchmark(args: list[str], cwd: Path) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )


@pytest.mark.parametrize("workload", [entry["name"] for entry in DEFINITION["workloads"]])
@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_run_prints_every_metric(tmp_path, workload, trace):
    done = run_benchmark(
        ["--workload", workload, "--seed", "3", "--seconds", "0", "--trace", trace,
         "--scale", SMOKE_SCALE, "--workdir", str(tmp_path)],
        ROOT,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    listed = DEFINITION["per_layer" if trace == "1" else "end_to_end"]
    assert list(result["metrics"]) == [metric["name"] for metric in listed]
    for metric in listed:
        value = result["metrics"][metric["name"]]
        assert value["unit"] == metric["unit"]
        assert isinstance(value["value"], (int, float))
        if trace == "0":
            assert value["value"] > 0, metric["name"]
    report = json.loads(
        (tmp_path / "reports" / f"{workload}-seed3-trace{trace}.json").read_text("utf-8")
    )
    assert len(report["store_sha256"]) == 64
    assert report["machine"]["cores"] >= 1
    assert not list(tmp_path.glob("run-*")), "the run left its store directories behind"


def test_traced_ingest_accounts_for_the_add_time(tmp_path):
    done = run_benchmark(
        ["--workload", "ingest", "--seed", "4", "--seconds", "0", "--trace", "1",
         "--scale", SMOKE_SCALE, "--workdir", str(tmp_path)],
        ROOT,
    )
    assert done.returncode == 0, done.stderr
    metrics = json.loads(done.stdout.strip().splitlines()[-1])["metrics"]
    report = json.loads((tmp_path / "reports" / "ingest-seed4-trace1.json").read_text("utf-8"))
    assert sum(report["add_self_ms"].values()) == pytest.approx(metrics["engine.add.ms"]["value"])
    assert metrics["gateway.s1.calls"]["value"] == metrics["engine.add.calls"]["value"]


def test_benchmark_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("work", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = run_benchmark(
        ["--workload", "ingest", "--seed", "1", "--seconds", "1", "--trace", "0"], tmp_path
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_inputs_repeat_for_a_seed():
    dialogue = inputs.load_dialogue(ROOT / "tests" / "data" / "dialogue.txt")
    first = inputs.TextSource(7, dialogue)
    second = inputs.TextSource(7, dialogue)
    assert first.notes(200) == second.notes(200)
    assert [first.query() for _ in range(5)] == [second.query() for _ in range(5)]
    assert inputs.TextSource(8, dialogue).notes(200) != inputs.TextSource(7, dialogue).notes(200)
    assert len({inputs.word(n) for n in range(50_000)}) == 50_000
    assert sum(inputs.apportion(997, [3.0, 1.0, 0.5, 0.25])) == 997


def test_wrong_ranking_trips_the_recall_check(tmp_path):
    dialogue = inputs.load_dialogue(ROOT / "tests" / "data" / "dialogue.txt")
    sizes = workloads.Sizes.scaled(0.01)
    recall = workloads.Recall(5, sizes, tmp_path, inputs.TextSource(5, dialogue))
    recall.setup()
    queries = [recall.source.query() for _ in range(5)]
    assert workloads.ranking_mismatches(recall.engine, recall.row_order, queries) == []

    right = recall.engine.retrieve
    recall.engine.retrieve = lambda query, k: list(reversed(right(query, k)))
    rec = workloads.Recorder()
    recall.check(rec)
    assert rec.failed >= 1
    assert any(problem.startswith("recall: query") for problem in rec.problems)
