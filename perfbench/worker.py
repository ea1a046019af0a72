"""Runs one job list of one workload and writes its record as JSON.

Usage: ``worker.py <workload> <seed> <list> <plain|traced|quarter> <record>``.
``run.py`` starts one worker per job list, in a fresh interpreter with a
fixed ``PYTHONHASHSEED``, so every list starts like a fresh command-line run.

Jobs run one after another in this single thread.  Job ``i`` draws its
inputs from ``random.Random("<workload>:<seed>:<i>")``.  ``traced`` runs
every job twice in this process, untraced and traced, on two inputs of the
same shape whose names differ, so that no cache answers the second run; the
order alternates from job to job, and the pair gives ``trace.overhead_frac``.
``quarter`` runs one traced job with every size divided by 4, for the
scaling exponents.
"""
from __future__ import annotations

import gc
import json
import random
import resource
import sys
import time
import traceback
from pathlib import Path as FilePath

from jobs import WORKLOADS, job_parts
from spans import NullTracer, Tracer

PART = "part:"  # the span around one part of a job; its name follows


def reset() -> None:
    """Empty catmigrate's memo tables and collect garbage before a job.
    Distinct names already make every lookup miss; the entries that earlier
    jobs leave behind would still slow later jobs through garbage
    collection, which a fresh command-line run never pays."""
    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("catmigrate"):
            for value in list(vars(module).values()):
                if hasattr(value, "cache_clear"):
                    value.cache_clear()
    gc.collect()


def run_job(workloads: dict, name: str, key: str, tag: str, tracer, kind: str) -> dict:
    record = {"key": key, "kind": kind}
    try:
        parts = job_parts(workloads, name, random.Random(key), tag, kind)
        tracer.job += 1
        record["span_job"] = tracer.job
        with tracer.span("job"):
            start = time.perf_counter()
            outputs = []
            for w, inputs in parts:
                with tracer.span(PART + w.name):
                    outputs.append(w.run(inputs, tracer))
            record["wall_s"] = time.perf_counter() - start
        problems, counts = [], {}
        for (w, inputs), out in zip(parts, outputs):
            found, part_counts = w.check(inputs, out)
            problems += found if w.name == name else [f"{w.name} probe: {m}" for m in found]
            for k, v in part_counts.items():
                if isinstance(v, int):  # whole-job totals, probe parts included
                    counts[k] = counts.get(k, 0) + v
                else:
                    counts[f"{w.name}.{k}"] = v
        record["counts"] = counts
    except Exception:  # a job that raises counts as failed, and the run goes on
        problems = [traceback.format_exc(limit=4)]
    record["problems"] = problems[:3]
    return record


def paired_job(workloads: dict, name: str, key: str, tag: str, tracer: Tracer, kind: str,
               traced_first: bool, reset_between: bool) -> dict:
    """The job run untraced and traced in this process, in the given order;
    the traced run's record, with the untraced wall time as ``plain_s``."""
    order = (True, False) if traced_first else (False, True)
    runs = {}
    for traced in order:
        if reset_between and traced != order[0]:
            reset()
        runs[traced] = run_job(workloads, name, key, tag + ("t" if traced else "p"),
                               tracer if traced else NullTracer(), kind)
    record, plain = runs[True], runs[False]
    if "wall_s" in plain:
        record["plain_s"] = plain["wall_s"]
    problems = plain["problems"] + record["problems"]
    if plain.get("counts") != record.get("counts"):
        problems.append("untraced and traced runs differ in their work counts")
    record["problems"] = problems[:3]
    return record


def layer_times(tracer: Tracer, name: str) -> dict[int, dict]:
    """Per job: ``job``, the job span's time; ``layers``, the summed time of
    each name among the spans directly under the job's parts, plus
    ``<name>.max`` for the longest such span; ``own``, the same sums over the
    workload's own part only, probe parts left out."""
    part_of = {i: s.name[len(PART):] for i, s in enumerate(tracer.spans) if s.name.startswith(PART)}
    times: dict[int, dict] = {}
    for s in tracer.spans:
        t = (s.end - s.start) / 1e9
        job = times.setdefault(s.job, {"job": 0.0, "layers": {}, "own": {}})
        if s.name == "job":
            job["job"] = t
        elif s.parent in part_of:
            layers = job["layers"]
            layers[s.name] = layers.get(s.name, 0.0) + t
            layers[s.name + ".max"] = max(layers.get(s.name + ".max", 0.0), t)
            if part_of[s.parent] == name:
                job["own"][s.name] = job["own"].get(s.name, 0.0) + t
    return times


def main(argv: list[str]) -> int:
    name, seed, number, mode, out = argv
    seed, number = int(seed), int(number)
    workloads = {n: cls(FilePath(out).parent) for n, cls in WORKLOADS.items()}
    workload = workloads[name]
    tracer = NullTracer() if mode == "plain" else Tracer()
    jobs = []
    if mode == "quarter":
        reset()
        jobs.append(run_job(workloads, name, f"{name}:{seed}:q{number}", f"q{number}", tracer, "quarter"))
    else:
        # Hard cases and probe jobs sit evenly through the list, so that they
        # sample the whole run rather than one stretch of it.
        kinds = {}
        for kind, count in (("hard", workload.hard_per_list), ("probe", workload.probe_per_list)):
            step = workload.list_size // max(1, count)
            offset = step // 2 if kind == "hard" else step // 4
            kinds.update({offset + i * step: kind for i in range(count)})
        for k in range(workload.list_size):
            index = number * workload.list_size + k
            kind = kinds.get(k, "full")
            if k % workload.reset_every == 0 or kind == "hard":
                reset()
            key, tag = f"{name}:{seed}:{index}", f"j{index}"
            if mode == "traced":
                jobs.append(paired_job(workloads, name, key, tag, tracer, kind,
                                       (number + k) % 2 == 1, workload.reset_every == 1))
            else:
                jobs.append(run_job(workloads, name, key, tag, tracer, kind))
    record = {
        "jobs": jobs,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if isinstance(tracer, Tracer):
        times = layer_times(tracer, name)
        for job in jobs:
            job.update(times.get(job.get("span_job"), {}))
        record["spans"] = [[s.name, s.start, s.end, s.parent, s.job] for s in tracer.spans]
    FilePath(out).write_text(json.dumps(record), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
