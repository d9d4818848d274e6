"""Run one workload of the amem benchmark and print its metrics.

    python3 perfbench/run.py --workload ingest --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout: amem is imported from ``src/`` of
that checkout, never from an installed copy, and the note texts draw on
``tests/data/dialogue.txt``. With ``--trace 0`` the run measures the
end-to-end metrics with tracing off, its latencies relative to the
reference kernels of ``reference.py``; with ``--trace 1`` it makes a separate
traced run and reports the per-layer metrics. Either way it prints every
metric with its name and unit, then, as the last line, one JSON object
with the keys correct, attempted, failed and metrics. A full report (and,
for a traced run, the spans) goes to ``perfbench/work/reports/``.

The run uses one process and one thread, and limits BLAS to one thread.
"""

from __future__ import annotations

import os

# Before numpy is imported: a single-threaded run, and a fixed BLAS thread
# count, so the float64 scores the recall check compares are reproducible.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SOURCE = ROOT / "src"
DIALOGUE = ROOT / "tests" / "data" / "dialogue.txt"

FLUSH_POLICY = "one fsync per add (the engine's own), plus one when an add evolves neighbours"
DISK_NOTE = (
    "fsync and disk reads are served by the host's page cache on the filesystem "
    "named here; they are not timed against a real storage device"
)


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("ingest", "recall", "reopen"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # For the benchmark's own tests: shrink every input size.
    parser.add_argument("--scale", type=float, default=1.0, help=argparse.SUPPRESS)
    parser.add_argument("--workdir", type=Path, default=HERE / "work", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _filesystem(path: Path) -> str:
    """Filesystem type of the mount holding path, from /proc/mounts."""
    best, kind = "", "unknown"
    try:
        lines = Path("/proc/mounts").read_text().splitlines()
    except OSError:
        return kind
    resolved = str(path.resolve())
    for line in lines:
        parts = line.split()
        if len(parts) > 2 and resolved.startswith(parts[1]) and len(parts[1]) > len(best):
            best, kind = parts[1], parts[2]
    return kind


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def machine(workdir: Path) -> dict[str, object]:
    import numpy

    return {
        "cores": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "filesystem": _filesystem(workdir),
        "disk_note": DISK_NOTE,
    }


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SOURCE / "amem" / "__init__.py").is_file() or not DIALOGUE.is_file():
        print(f"run from a source checkout: need {SOURCE}/amem and {DIALOGUE}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SOURCE))

    import amem
    import spans
    import workloads
    from inputs import load_dialogue

    if Path(amem.__file__).resolve().parent != (SOURCE / "amem").resolve():
        print(f"amem was imported from {amem.__file__}, not {SOURCE}", file=sys.stderr)
        return 2

    sizes = workloads.Sizes.scaled(args.scale)
    dialogue = load_dialogue(DIALOGUE)
    reports = args.workdir / "reports"
    reports.mkdir(parents=True, exist_ok=True)
    rundir = args.workdir / f"run-{args.workload}-{os.getpid()}"
    shutil.rmtree(rundir, ignore_errors=True)
    rundir.mkdir()
    try:
        if args.trace:
            result = workloads.run_traced(args.workload, args.seed, sizes, rundir, dialogue)
            tracer = result.workload.tracer
            overhead_s = result.trace_traced_s - result.trace_baseline_s
            values = spans.layer_metrics(tracer, overhead_s, result.trace_baseline_s)
            units = {name: unit for name, unit, _ in spans.LAYER_METRICS}
        else:
            result = workloads.run(args.workload, args.seed, args.seconds, sizes, rundir, dialogue)
            values = workloads.end_to_end(result)
            units = dict(workloads.END_TO_END_METRICS)
    finally:
        shutil.rmtree(rundir, ignore_errors=True)

    rec, workload = result.rec, result.workload
    metrics = {name: {"value": value, "unit": units[name]} for name, value in values.items()}
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "scale": args.scale,
        "machine": machine(args.workdir),
        "flush_policy": FLUSH_POLICY,
        "store_sha256": workload.store_sha256,
        "snapshot_sha256": workload.snapshot_sha256,
        "units": result.units,
        "loop_s": result.loop_s,
        "op_samples": len(rec.op),
        "aux_samples": len(rec.aux),
        "kernels": dict(zip(("op", "aux"), workload.kernels)),
        "kernel_samples": {name: len(values) for name, values in result.reference_s.items()},
        "medians_ms": workloads.medians_ms(result),
        "tails": {"op": workloads.tail(rec.op), "aux": workloads.tail(rec.aux)},
        "setup_samples_s": result.setup_s,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "error_rate": rec.failed / rec.attempted if rec.attempted else 1.0,
        "problems": rec.problems,
        "metrics": metrics,
        "op_samples_s": rec.op,
        "aux_samples_s": rec.aux,
    }
    label = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        report["add_self_ms"] = spans.add_breakdown(tracer)
        tracer.write(reports / f"spans-{args.workload}-seed{args.seed}.jsonl")
    (reports / f"{label}.json").write_text(json.dumps(report, indent=2) + "\n", "utf-8")

    for problem in rec.problems:
        print(f"FAILED CHECK: {problem}", file=sys.stderr)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for key in ("machine", "flush_policy", "store_sha256", "snapshot_sha256"):
        print(f"{key}: {report[key]}")
    print(
        f"operations attempted {rec.attempted}  failed {rec.failed}  "
        f"error_rate {report['error_rate']:.6f}  samples op {len(rec.op)} aux {len(rec.aux)}"
    )
    for op, median in report["medians_ms"].items():
        print(f"{op} p50 {median:.6f} ms (not a metric)")
    for op, tail in report["tails"].items():
        if tail is not None:
            print(f"{op} p{tail['pct']} {tail['ms']:.6f} ms over {tail['samples']} samples (not a metric)")
    if args.trace:
        for name, value in report["add_self_ms"].items():
            print(f"  add self time  {name:<32} {value:12.3f} ms")
    for name, metric in metrics.items():
        print(f"{name:<40} {metric['value']:>16.6f} {metric['unit']}")
    summary = {
        "correct": rec.failed == 0,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "metrics": metrics,
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
