"""Fast self-check of the benchmark harness.

    python3 bench/selfcheck.py

From the root of a checkout, it runs every workload of BENCHMARK.json once at
a tiny size and one workload traced, and fails unless

- each run exits 0 and ends with a result line that is correct, with no
  failed operation;
- the result holds every end-to-end metric (traced: every per-layer metric)
  of BENCHMARK.json with its unit, and the summary prints each of them and
  an error_rate of 0;
- the output digest of seed 1 equals the one recorded in bench/digests.json;
- in a directory holding only BENCHMARK.json and bench/, the benchmark exits
  non-zero without printing a result.

It takes about 45 s on a 2-core machine.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TRACED_WORKLOAD = "link-studies"


def run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def check_run(workload: str, trace: int, declared: list[dict], recorded: dict) -> list[str]:
    proc = run(ROOT, workload, trace)
    tag = f"{workload} trace {trace}"
    if proc.returncode != 0:
        return [f"{tag}: exit {proc.returncode}: {proc.stderr[-500:]}"]
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    errors = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"{tag}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
        errors.append(f"{tag}: {result['failed']} of {result['attempted']} operations failed")
    if set(result["metrics"]) != {m["name"] for m in declared}:
        errors.append(f"{tag}: metrics {sorted(result['metrics'])} differ from BENCHMARK.json")
    summary = {line.split()[0]: line.split()[1:] for line in lines[:-1] if line.startswith("  ")}
    for metric in declared:
        entry = result["metrics"].get(metric["name"], {})
        if entry.get("unit") != metric["unit"] or not isinstance(entry.get("value"), (int, float)):
            errors.append(f"{tag}: {metric['name']} printed as {entry!r}, unit {metric['unit']}")
        if summary.get(metric["name"], [None, None])[1] != metric["unit"]:
            errors.append(f"{tag}: summary line for {metric['name']} missing or without its unit")
    if summary.get("error_rate") != ["0", "ratio"]:
        errors.append(f"{tag}: error_rate {summary.get('error_rate')}")
    if not trace:
        digest = next((line for line in lines if line.startswith("digest ")), "")
        sha = digest.partition("sha256=")[2].split(" ")[0]
        expected = recorded.get(f"{workload}:1")
        if sha != expected:
            errors.append(f"{tag}: digest {sha} differs from the recorded {expected}")
    return errors


def check_bare_directory() -> list[str]:
    bare = ROOT / ".bench_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(ROOT / "bench", bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(bare, TRACED_WORKLOAD, 0)
        if proc.returncode == 0 or '"correct"' in proc.stdout:
            return [f"without src/ the benchmark exited {proc.returncode} and printed {proc.stdout[-200:]!r}"]
        return []
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    recorded = json.loads((ROOT / "bench" / "digests.json").read_text(encoding="utf-8"))
    errors = []
    for workload in (w["name"] for w in bench["workloads"]):
        errors += check_run(workload, 0, bench["end_to_end"], recorded)
    errors += check_run(TRACED_WORKLOAD, 1, bench["per_layer"], recorded)
    errors += check_bare_directory()
    for error in errors:
        print("FAIL", error)
    print("selfcheck:", "failed" if errors else "ok")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
