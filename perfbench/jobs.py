"""The three workloads: their jobs, the spans around each call into
catmigrate, and the checks of every job's outputs.

A workload builds a job's inputs from a seeded generator (untimed), runs the
job with each call into catmigrate wrapped in a span named
``<module>.<function>`` (timed), then checks the outputs against references
that the generator computed from the data, or against properties checked
here without the engine (untimed).  ``check`` also returns the job's exact
work counts, read from public return values only.
"""
from __future__ import annotations

import contextlib
import io
import random
from pathlib import Path as FilePath

from catmigrate import (
    MigrationLog,
    TypingAuxiliary,
    check_translation,
    count_morphisms,
    delta,
    export_triples,
    grothendieck,
    identity_translation,
    implied_typing_instance,
    parse_document,
    paths_equivalent,
    pi,
    print_document,
    sigma,
    typechange_delta,
    typechange_pi,
    typechange_sigma,
    ungrothendieck,
    validate_instance,
)
from catmigrate.cli import main as cli_main

import gen

BASE_URI = "http://example.org/bench"


def table_sizes(instance) -> dict[str, int]:
    return {v: len(instance.rows[v]) for v in instance.schema.vertices}


def well_formed(instance) -> list[str]:
    """Instance invariants checked directly on the tables: distinct rows,
    total columns landing in their target tables, equations holding on every
    row.  Independent of ``validate_instance``."""
    schema = instance.schema
    problems = []
    rows = {v: set(instance.rows[v]) for v in schema.vertices}
    for v in schema.vertices:
        if len(rows[v]) != len(instance.rows[v]):
            problems.append(f"table {v} repeats a row")
    for a in schema.arrows:
        col = instance.columns[a.name]
        if set(col) != rows[a.source]:
            problems.append(f"column {a.name} is not total on {a.source}")
        elif any(x not in rows[a.target] for x in col.values()):
            problems.append(f"column {a.name} leaves {a.target}")
    if problems:
        return problems
    for eq in schema.equivalences:
        for r in instance.rows[eq.lhs.source]:
            if walk(instance, eq.lhs.arrows, r) != walk(instance, eq.rhs.arrows, r):
                problems.append(f"equation {eq} fails on {r}")
                break
    return problems


def walk(instance, arrows, row: str) -> str:
    for name in arrows:
        row = instance.columns[name][row]
    return row


def expect(problems: list[str], what: str, got, want) -> None:
    if got != want:
        problems.append(f"{what}: got {got!r}, expected {want!r}")


def chase_counts(log: MigrationLog) -> tuple[int, dict[str, int]]:
    """Chase rounds and the elements per target vertex after the last round."""
    rounds = log.saturation_rounds
    return len(rounds), dict(rounds[-1]) if rounds else {}


class BulkMigrate:
    """Large data, few equations: parse, validate, delta, two sigmas, print,
    the RDF round trip and export, the typed filter, and one CLI sigma."""

    name = "bulk-migrate"
    list_size = 1
    hard_per_list = 0
    probe_per_list = 0
    reset_every = 1
    # rows per fact table, their vocabulary, employees, departments
    SIZES = {"full": (2000, 40, 4000, 40), "quarter": (500, 10, 1000, 10), "probe": (8, 2, 16, 2)}

    def __init__(self, workdir: FilePath):
        self.workdir = workdir

    def make(self, rng: random.Random, tag: str, size: str) -> dict:
        rows, vocab, employees, departments = self.SIZES[size]
        facts = gen.two_facts(rng, tag, rows, vocab)
        staff = gen.company(rng, tag, employees, departments)
        payroll = gen.roster(rng, tag, rows, vocab)
        path = self.workdir / f"{tag}.cat"
        path.write_text(facts.text, encoding="utf-8")
        # The default bound of 1000 elements per table rejects these sizes.
        bound = 4 * (facts.t1 + facts.t2 + staff.employees)
        return {"facts": facts, "staff": staff, "payroll": payroll, "path": path, "bound": bound}

    def run(self, x: dict, tr) -> dict:
        facts, staff, payroll, bound = x["facts"], x["staff"], x["payroll"], x["bound"]
        o: dict = {}
        with tr.span("dsl.parse_document"):
            doc = parse_document(facts.text)
        I, J = doc.instance(facts.instance_i), doc.instance(facts.instance_j)
        F = doc.translation(facts.translation)
        with tr.span("instances.validate_instance"):
            o["valid_in"] = [validate_instance(I), validate_instance(J)]
        with tr.span("migration.delta"):
            o["delta"] = delta(F, J)
        o["log_f"] = MigrationLog()
        with tr.span("migration.sigma"):
            o["sigma_f"] = sigma(F, I, saturation_bound=bound, log=o["log_f"])
        with tr.span("dsl.print_document"):
            text = print_document(doc)
        with tr.span("dsl.parse_document"):
            o["reparsed"] = parse_document(text)
        with tr.span("rdf.grothendieck"):
            store = grothendieck(I)
        with tr.span("rdf.ungrothendieck"):
            o["unflattened"] = ungrothendieck(store)
        with tr.span("rdf.export_triples"):
            o["triples"] = export_triples(store, BASE_URI)

        with tr.span("dsl.parse_document"):
            cdoc = parse_document(staff.text)
        S, G = cdoc.instance(staff.instance), cdoc.translation(staff.translation)
        with tr.span("instances.validate_instance"):
            o["valid_in"].append(validate_instance(S))
        o["log_g"] = MigrationLog()
        with tr.span("migration.sigma"):
            o["sigma_g"] = sigma(G, S, saturation_bound=bound, log=o["log_g"])

        with tr.span("dsl.parse_document"):
            pdoc = parse_document(payroll.text)
        below, typed = pdoc.morphism(payroll.below), pdoc.typed(payroll.typed)
        with tr.span("typed.typechange_delta"):
            o["filtered"] = typechange_delta(below, typed)
        with tr.span("typed.typechange_sigma"):
            o["retyped"] = typechange_sigma(below, o["filtered"])

        outputs = [o["delta"], o["sigma_f"], o["unflattened"], o["sigma_g"], o["filtered"].instance]
        with tr.span("instances.validate_instance"):
            o["valid_out"] = [validate_instance(out) for out in outputs]

        out, err = io.StringIO(), io.StringIO()
        argv = ["migrate", "sigma", facts.translation, facts.instance_i, str(x["path"]),
                "--saturation-bound", str(bound)]
        with tr.span("cli.main"), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            o["cli_rc"] = cli_main(argv)
        o["cli_out"], o["cli_err"] = out.getvalue(), err.getvalue()
        o["doc"] = doc
        o["instance_i"] = I
        o["parsed_bytes"] = len(facts.text) + len(text) + len(staff.text) + len(payroll.text)
        return o

    def check(self, x: dict, o: dict) -> tuple[list[str], dict]:
        facts, staff, payroll = x["facts"], x["staff"], x["payroll"]
        x["path"].unlink()
        p: list[str] = []
        for report in o["valid_in"] + o["valid_out"]:
            expect(p, "validate_instance", report, [])
        v = facts.vocab
        leaves = {"SSN": facts.ssn, "First": v, "Last": v, "Salary": v}
        delta_rows = table_sizes(o["delta"])
        expect(p, "delta rows", delta_rows, {"T1": facts.j_rows, "T2": facts.j_rows, **leaves})
        sigma_rows = table_sizes(o["sigma_f"])
        expect(p, "sigma rows", sigma_rows, {
            "T": facts.t1 + facts.t2, "SSN": facts.ssn + facts.t2,
            "First": v, "Last": v, "Salary": v + facts.t1,
        })
        company_rows = table_sizes(o["sigma_g"])
        s1, s2, s3 = staff.strings
        expect(p, "company sigma rows", company_rows, {
            "Employee": staff.employees, "Department": staff.departments,
            "String1": s1, "String2": s2, "String3": s3,
        })
        expect(p, "print/parse round trip", o["reparsed"].declarations == o["doc"].declarations, True)
        expect(p, "RDF round trip", o["unflattened"] == o["instance_i"], True)
        expect(p, "exported triples", o["triples"].count("\n"), facts.cells)
        filtered = o["filtered"].instance
        expect(p, "filtered rows", table_sizes(filtered), {
            "Employee": payroll.kept_employees, "Name": payroll.names,
            "Salary": payroll.kept_salaries,
        })
        expect(p, "retyped instance", o["retyped"].instance == filtered, True)
        for k in ("delta", "sigma_f", "sigma_g"):
            p += [f"{k}: {m}" for m in well_formed(o[k])]
        p += [f"filtered: {m}" for m in well_formed(filtered)]
        expect(p, "cli exit code", o["cli_rc"], 0)
        cli_rows = {
            line.split()[1].rstrip(":"): int(line.split()[2])
            for line in o["cli_err"].splitlines() if line.startswith("table ")
        }
        expect(p, "cli rows", cli_rows, sigma_rows)
        rounds_f, elements_f = chase_counts(o["log_f"])
        rounds_g, elements_g = chase_counts(o["log_g"])
        counts = {
            "sigma.rounds": rounds_f + rounds_g,
            "sigma.elements": {**{f"F.{k}": n for k, n in elements_f.items()},
                               **{f"G.{k}": n for k, n in elements_g.items()}},
            "sigma.rows": sum(sigma_rows.values()) + sum(company_rows.values()),
            "delta.rows": sum(delta_rows.values()),
            "typed.rows": sum(table_sizes(filtered).values()),
            "rdf.triples": o["triples"].count("\n"),
            "cli.bytes": len(o["cli_out"]),
            "dsl.bytes": o["parsed_bytes"],
        }
        return p, counts


class PiJoin:
    """Little data, pi-heavy: the two-fact join, pi along an identity
    translation, an implied typing instance and a dependent product."""

    name = "pi-join"
    list_size = 1
    hard_per_list = 0
    probe_per_list = 0
    reset_every = 1
    # rows per fact table, their vocabulary, rows of A and B, rates, people, items
    SIZES = {
        "full": (64, 8, 1000, 200, 48, 480),
        "quarter": (16, 2, 250, 50, 12, 120),
        "probe": (8, 2, 40, 8, 6, 24),
    }

    def __init__(self, workdir: FilePath):
        self.workdir = workdir

    def make(self, rng: random.Random, tag: str, size: str) -> dict:
        rows, vocab, pair, rates, people, items = self.SIZES[size]
        return {
            "facts": gen.two_facts(rng, tag, rows, vocab),
            "pair": gen.arrow_pair(rng, tag, pair),
            "rates": gen.rate_typing(rng, tag, rates),
            "groups": gen.groups(rng, tag, people, items, 3),
        }

    def run(self, x: dict, tr) -> dict:
        facts, pair, rates, groups = x["facts"], x["pair"], x["rates"], x["groups"]
        o: dict = {}
        with tr.span("dsl.parse_document"):
            doc = parse_document(facts.text)
        with tr.span("migration.pi"):
            o["join"] = pi(doc.translation(facts.translation), doc.instance(facts.instance_i))
        with tr.span("dsl.parse_document"):
            doc = parse_document(pair.text)
        with tr.span("migration.pi"):
            o["copy"] = pi(doc.translation(pair.translation), doc.instance(pair.instance))
        with tr.span("dsl.parse_document"):
            doc = parse_document(rates.text)
        aux = TypingAuxiliary(
            doc.schema(rates.bridge), doc.instance(rates.values), doc.translation(rates.attachment)
        )
        with tr.span("typed.implied_typing_instance"):
            o["typing"] = implied_typing_instance(aux)
        with tr.span("dsl.parse_document"):
            doc = parse_document(groups.text)
        with tr.span("typed.typechange_pi"):
            o["product"] = typechange_pi(doc.morphism(groups.grouping), doc.typed(groups.typed))
        return o

    def check(self, x: dict, o: dict) -> tuple[list[str], dict]:
        facts, pair, rates, groups = x["facts"], x["pair"], x["rates"], x["groups"]
        p: list[str] = []
        v = facts.vocab
        join = table_sizes(o["join"])
        expect(p, "join rows", join, {
            "T": facts.join_rows, "SSN": facts.ssn, "First": v, "Last": v, "Salary": v,
        })
        copy = table_sizes(o["copy"])
        expect(p, "identity pi rows", copy, {"A": pair.rows, "B": pair.rows})
        typing = table_sizes(o["typing"])
        expect(p, "implied typing rows", typing, {
            "X": rates.rates, "Y": rates.rates, "Z": rates.amounts,
        })
        product = table_sizes(o["product"].instance)
        expect(p, "dependent product rows", product, {"L": groups.sections, "M": 1})
        for k in ("join", "copy", "typing"):
            p += [f"{k}: {m}" for m in well_formed(o[k])]
        p += [f"product: {m}" for m in well_formed(o["product"].instance)]
        counts = {
            "pi.rows": sum(join.values()) + sum(copy.values()) + sum(typing.values()),
            "typed.rows": sum(product.values()),
            "dsl.bytes": sum(len(x[k].text) for k in ("facts", "pair", "rates", "groups")),
        }
        return p, counts


class EngineCheck:
    """Equation-heavy, tiny data: one fresh small random schema per job, and
    a few times per list the fixed-size hard NOT_PROVED search of
    ``gen.hard_case``.

    The hard search gets a rewrite budget of 10 steps, about 0.45 s; with
    the default of 64 it runs into the engine's 60 000-state cap after about
    1.6 s, and a run could hold only a dozen.  With about 25 of them a run,
    ``job_tail_s`` (the eleventh-longest job) is near their median, an order
    statistic that the machine's speed moves about as much as a mean, and
    not one of the fastest of a few, which it moves by up to a third."""

    name = "engine-check"
    list_size = 3000
    hard_per_list = 5
    hard_budget = 10
    probe_per_list = 4
    reset_every = 100
    queries = 8
    hom_space = 729

    def __init__(self, workdir: FilePath):
        self.workdir = workdir

    def make(self, rng: random.Random, tag: str, size: str) -> dict:
        """``full``: a random schema, half of them cyclic; ``hard``: the
        hard case; ``probe``: an acyclic random schema, on which every call
        of the job runs."""
        not_proved, budget = [], {}
        if size == "hard":
            schema, pairs = gen.hard_case(tag)
            cyclic, not_proved, budget = True, pairs, {"budget": self.hard_budget}
        else:
            cyclic = size == "full" and rng.random() < 0.5
            schema = gen.random_schema(rng, tag, cyclic)
            pairs = gen.walk_pairs(rng, schema, self.queries)
        while True:
            translation = gen.random_translation(rng, schema, tag)
            source = gen.random_instance(rng, translation.source)
            target = gen.random_instance(rng, schema)
            # Tiny data: the hom-sets counted grow as powers of products over
            # paths, so a few draws would decide the run time; keep them small.
            if cyclic or gen.hom_space(translation, source, target) <= self.hom_space:
                break
        return {
            "schema": schema,
            "cyclic": cyclic,
            "pairs": pairs,
            "not_proved": not_proved,
            "budget": budget,
            "translation": translation,
            "source": source,
            "target": target,
        }

    def run(self, x: dict, tr) -> dict:
        S, F, I, J = x["schema"], x["translation"], x["source"], x["target"]
        o: dict = {}
        with tr.span("migration.check_translation"):
            o["translation_report"] = check_translation(F)
        o["verdicts"] = []
        for p, q in x["pairs"]:
            with tr.span("schemas.paths_equivalent"):
                o["verdicts"].append(paths_equivalent(S, p, q, **x["budget"]))
        with tr.span("instances.validate_instance"):
            o["valid_in"] = [validate_instance(I), validate_instance(J)]
        if x["cyclic"]:
            # Sigma along F into a cyclic target can be infinite and pi along
            # it is not bounded, so cyclic schemas push J along the identity.
            F, I = identity_translation(S), J
        o["log"] = MigrationLog()
        with tr.span("migration.sigma"):
            o["sigma"] = sigma(F, I, log=o["log"])
        with tr.span("migration.delta"):
            o["delta"] = delta(F, J)
        homs = []
        with tr.span("instances.count_morphisms"):
            homs.append(count_morphisms(o["sigma"], J))
        with tr.span("instances.count_morphisms"):
            homs.append(count_morphisms(I, o["delta"]))
        if not x["cyclic"]:
            with tr.span("migration.pi"):
                o["pi"] = pi(F, I)
            with tr.span("instances.count_morphisms"):
                homs.append(count_morphisms(o["delta"], I))
            with tr.span("instances.count_morphisms"):
                homs.append(count_morphisms(J, o["pi"]))
        o["homs"] = homs
        return o

    def check(self, x: dict, o: dict) -> tuple[list[str], dict]:
        J = x["target"]
        p: list[str] = []
        expect(p, "check_translation", o["translation_report"], [])
        for report in o["valid_in"]:
            expect(p, "validate_instance", report, [])
        proved = 0
        for (a, b), verdict in zip(x["pairs"], o["verdicts"]):
            if verdict.name == "EQUIVALENT":
                proved += 1
                for r in J.rows[a.source]:
                    if walk(J, a.arrows, r) != walk(J, b.arrows, r):
                        p.append(f"{a} = {b} was proved but fails on row {r}")
                if (a, b) in x["not_proved"]:
                    p.append(f"{a} = {b} was proved but the two differ in their first arrow")
        homs = o["homs"]
        expect(p, "sigma adjunction hom-sets", homs[0], homs[1])
        if len(homs) == 4:
            expect(p, "pi adjunction hom-sets", homs[2], homs[3])
        for k in ("sigma", "delta", "pi"):
            if k in o:
                p += [f"{k}: {m}" for m in well_formed(o[k])]
        rounds, elements = chase_counts(o["log"])
        counts = {
            "paths_equivalent.calls": len(o["verdicts"]),
            "paths_equivalent.proved": proved,
            "sigma.rounds": rounds,
            "sigma.elements": sum(elements.values()),
            "sigma.rows": sum(table_sizes(o["sigma"]).values()),
            "pi.rows": sum(table_sizes(o["pi"]).values()) if "pi" in o else 0,
            "count_morphisms.calls": len(homs),
            "homs": homs,
        }
        return p, counts


WORKLOADS = {w.name: w for w in (BulkMigrate, PiJoin, EngineCheck)}


def job_parts(workloads: dict, name: str, rng: random.Random, tag: str, kind: str) -> list:
    """The parts of one job of workload ``name``, as (workload, inputs).

    A ``probe`` part is another workload's job at its probe size: a few rows
    that cost milliseconds.  Every bulk-migrate and pi-join job carries the
    probe parts of the other two workloads, and each engine-check list holds
    a few jobs (kind ``probe``) made of nothing else, so that every layer is
    timed on every workload and a layer that should stay flat there can be
    seen to.  The other kinds (``full``, ``quarter``, ``hard``) are the
    workload's own part.
    """
    own = workloads[name]
    parts = [] if kind == "probe" else [(own, own.make(rng, tag, kind))]
    if kind == "probe" or not own.probe_per_list:
        parts += [(w, w.make(rng, f"{tag}{w.name[0]}", "probe"))
                  for other, w in workloads.items() if other != name]
    return parts
