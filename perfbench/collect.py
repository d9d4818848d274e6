"""Run the benchmark over several seeds and summarise each metric's spread.

    python3 perfbench/collect.py --workloads ingest,recall,reopen --seeds 1-10 \\
        --seconds 10 --out perfbench/results/seed.json

Each run is one ``perfbench/run.py`` process, started one after another and
waited for. For every workload and metric the summary gives the median, the
first and third quartiles (``statistics.quantiles(values, n=4)``) and the
spread: the distance between the quartiles as a share of the median. For an
end-to-end metric it also compares the spread with a third of the metric's
bound in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 900


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        first, _, last = part.partition("-")
        seeds.extend(range(int(first), int(last or first) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    command = [
        sys.executable, str(HERE / "run.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    start = time.perf_counter()
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    wall = time.perf_counter() - start
    if done.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {done.returncode}:\n{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    result["wall_s"] = wall
    return result


def summarise(values: list[float]) -> dict[str, float]:
    median = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = median
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default="ingest,recall,reopen")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args(argv)

    definition = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    seconds = args.seconds if args.seconds is not None else definition["run_seconds"]
    bounds = {metric["name"]: metric["bound"] for metric in definition["end_to_end"]}
    summary: dict[str, dict] = {}
    ok = True
    for workload in args.workloads.split(","):
        runs = []
        for seed in parse_seeds(args.seeds):
            result = run_once(workload, seed, seconds, args.trace)
            print(
                f"{workload} seed {seed}: correct {result['correct']} "
                f"failed {result['failed']}/{result['attempted']} wall {result['wall_s']:.1f} s",
                flush=True,
            )
            ok = ok and result["correct"]
            runs.append(result)
        metrics = {}
        for name, first in runs[0]["metrics"].items():
            stats = summarise([run["metrics"][name]["value"] for run in runs])
            stats["unit"] = first["unit"]
            bound = bounds.get(name)
            flag = ""
            if bound is not None and name != "setup_s" and stats["spread"] >= bound / 3:
                flag = f"  SPREAD >= bound/3 ({bound / 3:.4f})"
            print(
                f"  {name:<40} median {stats['median']:14.4f} {stats['unit']:<6} "
                f"spread {stats['spread']:.4f}{flag}"
            )
            metrics[name] = stats
        summary[workload] = {
            "seeds": parse_seeds(args.seeds),
            "wall_s": summarise([run["wall_s"] for run in runs]),
            "metrics": metrics,
        }
    if args.out is not None:
        reports = HERE / "work" / "reports"
        first_report = next(iter(sorted(reports.glob("*-trace*.json"))), None)
        machine = json.loads(first_report.read_text())["machine"] if first_report else {}
        document = {"seconds": seconds, "trace": args.trace, "machine": machine, "workloads": summary}
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(document, indent=2) + "\n", "utf-8")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
