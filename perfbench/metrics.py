"""End-to-end and per-layer metrics from the records of a run's job lists.

Each entry of ``lists`` holds the worker record of the list's plain run or,
in a traced run, of its traced run and quarter-size job (see ``worker.py``).
Every metric is returned as ``name -> (value, unit)``.
"""
from __future__ import annotations

import math
import statistics

LAYERS = (
    "dsl.parse_document",
    "dsl.print_document",
    "schemas.paths_equivalent",
    "instances.validate_instance",
    "instances.count_morphisms",
    "migration.check_translation",
    "migration.delta",
    "migration.sigma",
    "migration.pi",
    "typed.typechange_sigma",
    "typed.typechange_delta",
    "typed.typechange_pi",
    "typed.implied_typing_instance",
    "rdf.grothendieck",
    "rdf.ungrothendieck",
    "rdf.export_triples",
    "cli.main",
)
# The layers whose input size a workload's own part scales.  Their ``.exp``
# is measured there; on any other workload it reads 0, "not measured".
SCALED = {
    "bulk-migrate": (
        "dsl.parse_document",
        "instances.validate_instance",
        "migration.delta",
        "migration.sigma",
        "rdf.ungrothendieck",
    ),
    "pi-join": ("dsl.parse_document", "migration.pi"),
}
EXPONENTS = sorted({layer for layers in SCALED.values() for layer in layers})


def timed(records: list[dict]) -> list[dict]:
    return [job for record in records for job in record["jobs"] if "wall_s" in job]


def tail(values: list[float]) -> float:
    """The highest order statistic with at least ten samples above it; the
    maximum when there are ten samples or fewer."""
    ordered = sorted(values)
    return ordered[len(ordered) - 11] if len(ordered) > 10 else ordered[-1]


def end_to_end(lists: list[dict]) -> dict:
    plain = [entry["plain"] for entry in lists]
    walls = [job["wall_s"] for job in timed(plain)]
    return {
        "run_s": (statistics.mean(sum(j["wall_s"] for j in timed([r])) for r in plain), "s"),
        "job_p50_s": (statistics.median(walls), "s"),
        "job_tail_s": (tail(walls), "s"),
        "peak_rss_mb": (max(r["peak_rss_mb"] for r in plain), "MB"),
    }


def per_layer(lists: list[dict], workload: str) -> dict:
    full = timed([entry["traced"] for entry in lists])
    quarter = timed([entry["quarter"] for entry in lists if "quarter" in entry])

    def median(jobs: list[dict], layer: str, key: str = "layers") -> float:
        times = [j[key][layer] for j in jobs if layer in j[key]]
        return statistics.median(times) if times else 0.0

    def counts(key: str) -> list:
        return [j["counts"].get(key, 0) for j in full]

    m: dict = {}
    for layer in LAYERS:
        m[f"{layer}.s"] = (median(full, layer), "s")
    for layer in EXPONENTS:
        big, small = median(full, layer, "own"), median(quarter, layer, "own")
        scaled = layer in SCALED.get(workload, ()) and big and small
        m[f"{layer}.exp"] = (math.log(big / small) / math.log(4) if scaled else 0.0, "1")
    parse_s = sum(j["layers"].get("dsl.parse_document", 0.0) for j in full)
    m["dsl.parse_document.mb_per_s"] = (sum(counts("dsl.bytes")) / 1e6 / parse_s if parse_s else 0.0, "MB/s")
    m["migration.sigma.rounds"] = (statistics.median(counts("sigma.rounds")), "count")
    m["migration.sigma.rows"] = (statistics.median(counts("sigma.rows")), "count")
    m["migration.pi.rows"] = (statistics.median(counts("pi.rows")), "count")
    calls = sum(counts("paths_equivalent.calls"))
    m["schemas.paths_equivalent.calls"] = (calls / len(full), "count")
    m["schemas.paths_equivalent.max_s"] = (
        max(j["layers"].get("schemas.paths_equivalent.max", 0.0) for j in full), "s"
    )
    m["schemas.paths_equivalent.proved_frac"] = (
        sum(counts("paths_equivalent.proved")) / calls if calls else 0.0, "1"
    )
    m["instances.count_morphisms.calls"] = (sum(counts("count_morphisms.calls")) / len(full), "count")
    # Each traced job ran beside an untraced twin in the same process.
    pairs = [j["wall_s"] / j["plain_s"] for j in full if "plain_s" in j]
    m["trace.overhead_frac"] = (statistics.median(pairs) - 1.0 if pairs else 0.0, "1")
    spanned = sum(t for j in full for name, t in j["layers"].items() if not name.endswith(".max"))
    m["trace.coverage_frac"] = (spanned / sum(j["job"] for j in full), "1")
    return m
