"""Benchmark of the wastefactor package and CLI.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout: it imports the package from ./src and
writes only under ./.bench_work.  Each run is one closed-loop client with no
threads.  It draws its inputs from --seed, runs operations for --seconds,
checks every operation's outputs, and prints a readable summary followed by
one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json,
scaled to a reference host speed (see calibration.py); with --trace 1 they
are its per-layer metrics (see layers.py), measured in a separate traced
run.  bench/README.md explains the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from calibration import Calibrator

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
NPROC = len(os.sched_getaffinity(0))  # before main() pins the process to one core
SETUP_PROBES = 5
# Operation pairs (untraced, traced) a traced run makes for its workload's
# tracing overhead: about 15 s of pairs or fewer.
TRACED_PAIRS = {"netsim-sweep": 5, "netsim-wide": 2, "link-studies": 30, "cli-session": 15}
END_TO_END_UNITS = {
    "setup_s": "s",
    "throughput_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mb": "MB",
}


@dataclass
class Ops:
    """What a sequence of operations did."""

    times: list[float] = field(default_factory=list)  # wall seconds
    units: int = 0
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    child_rss_mb: list[float] = field(default_factory=list)
    texts: dict[int, str] = field(default_factory=dict)


def do_op(workload, index: int, ops: Ops, keep_text: bool, tracer=None) -> None:
    """Run, time and check operation `index`; only the program call is timed."""
    inputs = workload.make_input(index)
    ops.attempted += 1
    try:
        if tracer is None:
            start = perf_counter()
            outputs = workload.run(inputs)
            ops.times.append(perf_counter() - start)
        else:
            with tracer.patched():
                start = perf_counter()
                with tracer.op(index, f"bench.{workload.name}"):
                    outputs = workload.run(inputs)
                ops.times.append(perf_counter() - start)
        checked = workload.check(inputs, outputs)
    except Exception as exc:  # noqa: BLE001 - a failing operation is counted, not fatal
        ops.failed += 1
        ops.problems.append(f"op {index}: {type(exc).__name__}: {exc}")
        return
    ops.units += checked.units
    if checked.rss_mb is not None:
        ops.child_rss_mb.append(checked.rss_mb)
    if checked.problems:
        ops.failed += 1
        ops.problems.append(f"op {index}: " + "; ".join(checked.problems[:3]))
    if keep_text:
        ops.texts[index] = checked.text


def digest(texts: dict[int, str], count: int) -> str:
    """sha256 over the rendered outputs of operations 0 .. count-1."""
    h = hashlib.sha256()
    for index in range(count):
        h.update(texts.get(index, "<missing>").encode("utf-8"))
        h.update(b"\0")
    return h.hexdigest()


def percentiles_ms(times: list[float]) -> tuple[float, float]:
    if len(times) < 2:
        return times[0] * 1e3, times[0] * 1e3
    return statistics.median(times) * 1e3, statistics.quantiles(times, n=10)[8] * 1e3


def peak_rss_mb(ops: Ops) -> float:
    if ops.child_rss_mb:
        return max(ops.child_rss_mb)
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def setup_seconds(args, calibrator: Calibrator) -> tuple[float, float]:
    """Median reference-speed and raw wall time of fresh interpreters that
    only set the workload up."""
    times, points = [], []
    for _ in range(SETUP_PROBES):
        points.append(calibrator.point())
        start = perf_counter()
        subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", "0", "--setup-only"],
            check=True, stdout=subprocess.DEVNULL,
        )
        times.append(perf_counter() - start)
    calibrator.point()
    scaled = [calibrator.scale(t, k) for t, k in zip(times, points)]
    return statistics.median(scaled), statistics.median(times)


def machine_facts() -> dict:
    import numpy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((l.split(":", 1)[1].strip() for l in handle if l.startswith("model name")), cpu)
    except OSError:
        pass
    sources = sorted((SRC / "wastefactor").glob("*.py"))
    return {
        "nproc": NPROC,
        "cpu": cpu,
        "memory_gib": round(os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2**30, 2),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "src_lines": sum(p.read_bytes().count(b"\n") for p in sources),
    }


def measured_run(workload, args, calibrator: Calibrator) -> tuple[Ops, dict, dict]:
    """Operations run for --seconds; reference-speed and raw metrics."""
    ops = Ops()
    min_ops = 1 if args.tiny else workload.min_ops
    deadline = perf_counter() + args.seconds
    points = []
    index = 0
    while index < max(min_ops, workload.digest_ops) or perf_counter() < deadline:
        point = calibrator.point()
        do_op(workload, index, ops, keep_text=index < workload.digest_ops)
        if len(ops.times) > len(points):
            points.append(point)
        index += 1
    calibrator.point()
    scaled = [calibrator.scale(t, k) for t, k in zip(ops.times, points)]
    metrics = []
    for times in (scaled, ops.times):
        p50, p90 = percentiles_ms(times) if times else (float("nan"), float("nan"))
        metrics.append({
            "throughput_per_s": ops.units / sum(times) if times else float("nan"),
            "op_p50_ms": p50,
            "op_p90_ms": p90,
            "peak_rss_mb": peak_rss_mb(ops),
        })
    return ops, metrics[0], metrics[1]


def traced_run(workload, args, work_dir: Path) -> tuple[Ops, dict, dict]:
    """Per-layer metrics, then TRACED_PAIRS[workload] pairs of untraced and
    traced operations on the same inputs for the workload's tracing overhead.

    A traced run does this fixed work whatever --seconds says.
    """
    import layers
    from tracing import Tracer

    total = Ops()

    def run_pairs(other, count: int, tracer) -> tuple[Ops, Ops]:
        plain, traced = Ops(), Ops()
        for index in range(count):
            do_op(other, index, plain, keep_text=True)
            do_op(other, index, traced, keep_text=True, tracer=tracer)
            if traced.texts.get(index) != plain.texts.get(index):
                traced.failed += 1
                traced.problems.append(f"{other.name} op {index}: traced output differs from untraced output")
            plain.texts.clear()
            traced.texts.clear()
        for ops in (plain, traced):
            total.attempted += ops.attempted
            total.failed += ops.failed
            total.problems += ops.problems
        return plain, traced

    metrics, tracers = layers.measure(args.seed, work_dir, run_pairs)
    tracer = Tracer()
    plain, traced = run_pairs(workload, TRACED_PAIRS[workload.name], tracer)
    tracers[workload.name + "-own"] = tracer
    total.times = plain.times
    # Per pair, so that the two operations of a pair share the host's speed.
    metrics["trace.overhead_ms"] = statistics.median(
        (b - a) * 1e3 for a, b in zip(plain.times, traced.times)
    )
    metrics["trace.overhead_share"] = statistics.median(
        (b - a) / a for a, b in zip(plain.times, traced.times)
    )
    return total, metrics, tracers


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--tiny", action="store_true", help="self-check size: no floor on the operation count"
    )
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    # One core for the benchmark and its children, so the calibration loop and
    # the operation it calibrates run on the same core.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    if not (SRC / "wastefactor" / "__init__.py").is_file():
        print(f"bench: no package source at {SRC / 'wastefactor'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; one of {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    work_dir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    work_dir.mkdir(parents=True)
    try:
        if args.setup_only:
            WORKLOADS[args.workload](args.seed, work_dir)
            return 0
        return report(args, WORKLOADS[args.workload], work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


def report(args, cls, work_dir: Path) -> int:
    calibrator = None if args.trace else Calibrator()
    setup_s, raw_setup_s = (None, None) if args.trace else setup_seconds(args, calibrator)
    workload = cls(args.seed, work_dir)
    import wastefactor

    if not Path(wastefactor.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"bench: imported wastefactor from {wastefactor.__file__}, not {SRC}", file=sys.stderr)
        return 2

    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    record = {"workload": workload.name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace}
    lines = []
    if args.trace:
        import layers

        ops, values, tracers = traced_run(workload, args, work_dir)
        units = layers.PER_LAYER
        traces = WORK / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        for part, tracer in tracers.items():
            tracer.write(traces / f"{stem}-{part}.jsonl.gz", {**record, "part": part})
    else:
        ops, values, raw = measured_run(workload, args, calibrator)
        values["setup_s"], raw["setup_s"] = setup_s, raw_setup_s
        units = END_TO_END_UNITS
        # The same numbers under the names the workload's users know them by,
        # then the wall times before calibration and the kernel's median time.
        extra = [
            (f"{workload.unit_name}_per_s", values["throughput_per_s"], "1/s"),
            (f"{workload.op_name}_p50_ms", values["op_p50_ms"], "ms"),
            (f"{workload.op_name}_p90_ms", values["op_p90_ms"], "ms"),
            *((f"raw_{name}", raw[name], units[name]) for name in units if name != "peak_rss_mb"),
            ("calibration_kernel_ms", statistics.median(calibrator.points) * 1e3, "ms"),
        ]
        for name, value, unit in extra:
            lines.append(f"  {name:<44} {value:.6g} {unit}")
            record[name] = value
        sha = digest(ops.texts, workload.digest_ops)
        recorded_path = BENCH / "digests.json"
        recorded = json.loads(recorded_path.read_text(encoding="utf-8"))
        key = f"{workload.name}:{args.seed}"
        verdict = "none" if key not in recorded else ("match" if recorded[key] == sha else "mismatch")
        record["digest"] = {"sha256": sha, "operations": workload.digest_ops, "recorded": verdict}
        record["raw_op_ms"] = [t * 1e3 for t in ops.times]
        record["calibration_kernel_ms_points"] = [t * 1e3 for t in calibrator.points]
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    error_rate = ops.failed / ops.attempted
    machine = machine_facts()
    record.update(
        machine=machine, metrics=metrics, error_rate=error_rate, attempted=ops.attempted,
        failed=ops.failed, timed_operations=len(ops.times), problems=ops.problems,
    )
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    print(f"workload {workload.name} seed {args.seed} trace {args.trace}: "
          f"{ops.attempted} operations, {ops.failed} failed, {len(ops.times)} timed")
    for name, entry in metrics.items():
        print(f"  {name:<44} {entry['value']:.6g} {entry['unit']}")
    print("\n".join(lines + [f"  {'error_rate':<44} {error_rate:.6g} ratio"]))
    for problem in ops.problems[:10]:
        print(f"  FAILED {problem}")
    if "digest" in record:
        print(f"digest {workload.name} seed={args.seed} ops={workload.digest_ops} sha256={sha} recorded={verdict}")
    print("machine " + json.dumps(machine))
    print(json.dumps({
        "correct": ops.failed == 0,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
