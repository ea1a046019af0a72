"""Steadiness check for the benchmark.

    python3 perfbench/steady.py

Runs two sets, one after the other.  In each set every workload of
BENCHMARK.json runs once per seed 1..10 through ``run.py``, with the
``run_seconds`` of BENCHMARK.json.  For every end-to-end metric of every
workload it then checks, per set, the spread: the distance between the first
and third quartiles (``statistics.quantiles(values, n=4)``) as a share of
the median, which fails at or above the metric's bound and is flagged above
a third of it; and between the sets, the shift of the median as a share of
the first set's median, which fails above the bound.  Every job's exact work
counts must be identical in both sets.  Exits 1 on any failure.
"""
from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path as FilePath

ROOT = FilePath(__file__).resolve().parent.parent
RUNS = ROOT / ".perfbench" / "runs"
SEEDS = 10


def run_once(workload: str, seed: int, seconds: int) -> tuple[dict, dict]:
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=200,
    )
    if done.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed:\n{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    record = json.loads((RUNS / f"{workload}-seed{seed}-trace0.json").read_text())
    counts = {
        job["key"]: job.get("counts")
        for entry in record["lists"] for r in entry.values() for job in r["jobs"]
    }
    return result, counts


def run_set(number: int, workloads: list[str], bounds: dict, seconds: int) -> tuple[dict, dict, bool]:
    """One set: values[workload][metric] over the seeds, and the work counts
    of every job by (workload, seed)."""
    values = {w: {name: [] for name in bounds} for w in workloads}
    counts, correct = {}, True
    for workload in workloads:
        for seed in range(1, SEEDS + 1):
            result, counts[workload, seed] = run_once(workload, seed, seconds)
            correct &= result["correct"]
            for name in bounds:
                values[workload][name].append(result["metrics"][name]["value"])
            print(f"set {number} {workload} seed {seed}: " + ", ".join(
                f"{n}={result['metrics'][n]['value']:.4g}" for n in bounds), flush=True)
    return values, counts, correct


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    workloads = [w["name"] for w in bench["workloads"]]
    sets = [run_set(n, workloads, bounds, bench["run_seconds"]) for n in (1, 2)]
    ok = all(correct for _, _, correct in sets)
    for workload in workloads:
        for name, bound in bounds.items():
            medians = []
            for number, (values, _, _) in enumerate(sets, 1):
                q1, median, q3 = statistics.quantiles(values[workload][name], n=4)
                spread = (q3 - q1) / median
                verdict = "FAIL" if spread >= bound else "wide" if spread > bound / 3 else "ok"
                ok &= verdict != "FAIL"
                medians.append(median)
                print(f"  set {number} {workload:13s} {name:12s} median {median:.6g}"
                      f"  spread {spread:.4f}  bound {bound}  {verdict}")
            shift = (medians[1] - medians[0]) / medians[0]
            verdict = "FAIL" if abs(shift) > bound else "ok"
            ok &= verdict != "FAIL"
            print(f"  shift {workload:13s} {name:12s} {shift:+.4f}  bound {bound}  {verdict}")
    (_, first, _), (_, second, _) = sets
    same = first == second and all(first.values())
    print(f"work counts of every job identical in both sets: {same}")
    return 0 if ok and same else 1


if __name__ == "__main__":
    sys.exit(main())
