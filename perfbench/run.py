"""Benchmark entry point: one workload, one seed, one run.

    python3 perfbench/run.py --workload bulk-migrate --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; catmigrate is imported from ``src/``
and nothing is installed.  The run executes the workload's job lists, each
in a fresh interpreter with a fixed ``PYTHONHASHSEED`` (``worker.py``), as
many as take about ``--seconds`` on the reference machine; between them an
untraced run times ``import catmigrate`` in fresh interpreters
(``setup_s``).  It prints every metric with its unit, and as its last line
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``--trace 0`` reports the end-to-end metrics, ``--trace 1``
the per-layer metrics of a traced run.  The full run record (per-job times,
work counts, spans) is written under ``.perfbench/runs/``.  The exit code is
0 only when every job's outputs passed their checks.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path as FilePath

import metrics as metrics_of

HERE = FilePath(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
# Nominal time of one job list of each workload on the machine the benchmark
# was sized on (2 vCPUs, Python 3.11); it fixes how many lists a run holds.
LIST_SECONDS = {"bulk-migrate": 7.0, "pi-join": 6.0, "engine-check": 6.0}
WORKLOADS = tuple(LIST_SECONDS)
DEADLINE_S = 170.0  # the whole run, workers included, ends within this
IMPORTS = 48  # fresh interpreters timed for setup_s, after one that fills the bytecode cache
HASH_SEED = "0"

IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import catmigrate; "
    "print(time.perf_counter() - t)"
)


def child_env() -> dict[str, str]:
    """The children's environment.  Bytecode is always cached, under
    ``.perfbench/``, as an installed package's is, so that ``setup_s`` does not
    depend on whether the caller's environment turns caching off."""
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPYCACHEPREFIX"] = str(OUT / "pycache")
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = HASH_SEED
    return env


def import_times(count: int, deadline: float) -> list[float]:
    times = []
    for _ in range(count):
        done = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE], env=child_env(), cwd=ROOT, capture_output=True,
            text=True, timeout=max(1.0, deadline - time.monotonic()), check=True,
        )
        times.append(float(done.stdout.strip()))
    return times


def run_list(workload: str, seed: int, number: int, mode: str, deadline: float) -> dict:
    """One job list in a fresh worker interpreter; returns its record."""
    path = OUT / "tmp" / f"{workload}-seed{seed}-{mode}{number}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    subprocess.run(
        [sys.executable, str(HERE / "worker.py"), workload, str(seed), str(number), mode, str(path)],
        env=child_env(), cwd=ROOT, check=True, timeout=max(1.0, deadline - time.monotonic()),
    )
    record = json.loads(path.read_text(encoding="utf-8"))
    path.unlink()
    return record


def run_lists(workload: str, seed: int, seconds: float, traced: bool,
              deadline: float) -> tuple[list[dict], list[float]]:
    """A fixed number of job lists: as many as take ``seconds`` at the
    workload's nominal list time, so that a faster or slower engine runs the
    same jobs.  Traced, half as many lists run, each job of them untraced and
    traced in one interpreter, and a workload that scales adds one
    quarter-size job per list.  Untraced, the fresh imports timed for
    ``setup_s`` are spread over the lists, so that they sample the whole run;
    one import first fills the bytecode cache."""
    count = max(1, round(seconds / LIST_SECONDS[workload]))
    imports: list[float] = []
    lists = []
    if not traced:
        import_times(1, deadline)
        for number in range(count):
            imports += import_times(-(-IMPORTS // count), deadline)
            lists.append({"plain": run_list(workload, seed, number, "plain", deadline)})
        return lists, imports
    for number in range(max(1, count // 2)):
        entry = {"traced": run_list(workload, seed, number, "traced", deadline)}
        if workload in metrics_of.SCALED:
            entry["quarter"] = run_list(workload, seed, number, "quarter", deadline)
        lists.append(entry)
    return lists, imports


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = time.monotonic() + DEADLINE_S

    if not (SRC / "catmigrate" / "__init__.py").is_file():
        print(f"error: no catmigrate sources under {SRC}", file=sys.stderr)
        return 2

    try:
        lists, imports = run_lists(args.workload, args.seed, args.seconds, bool(args.trace), deadline)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.trace:
        metrics = metrics_of.per_layer(lists, args.workload)
    else:
        metrics = metrics_of.end_to_end(lists)
        metrics["setup_s"] = (statistics.median(imports), "s")
    metrics = {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()}
    records = [r for entry in lists for r in entry.values()]
    jobs = [job for r in records for job in r["jobs"]]
    failed = [job for job in jobs if job["problems"]]
    runs = OUT / "runs"
    runs.mkdir(parents=True, exist_ok=True)
    record_path = runs / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps({"metrics": metrics, "lists": lists}), encoding="utf-8")

    for job in failed[:5]:
        print(f"FAILED job {job['key']}: {' | '.join(job['problems'])}", file=sys.stderr)
    for name in sorted(metrics):
        samples = f"  (over {len(jobs)} jobs)" if name == "job_tail_s" else ""
        print(f"{name:42s} {metrics[name]['value']:>14.6g} {metrics[name]['unit']}{samples}")
    print(f"{'jobs':42s} {len(jobs):>14d} ({len(failed)} failed)")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(jobs),
        "failed": len(failed),
        "metrics": metrics,
    }))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
