"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; any assertion failure marks that criterion red.
"""
from __future__ import annotations

import random
import time

import pytest

from catmigrate import dsl
from catmigrate.cli import main
from catmigrate.instances import (
    EquationViolation,
    Instance,
    compose_morphisms,
    count_morphisms,
    evaluate_path,
    find_isomorphism,
    identity_morphism,
    validate_instance,
)
from catmigrate.migration import (
    delta,
    delta_on_morphism,
    pi,
    pi_counit,
    pi_full,
    pi_on_morphism,
    pi_unit,
    sigma,
    sigma_counit,
    sigma_full,
    sigma_on_morphism,
    sigma_unit,
)
from catmigrate.rdf import export_triples, grothendieck, ungrothendieck
from catmigrate.schemas import Equivalence, Path, path_target, paths_equivalent
from catmigrate.typed import typechange_delta, typechange_pi, typechange_sigma, validate_typed

from .conftest import GOLDEN_DIR
from .generators import (
    rand_acyclic_schema,
    rand_cyclic_schema,
    rand_instance,
    rand_translation,
)
from .oracles import assert_pi_matches, assert_sigma_matches


def _pass(number: int, message: str) -> None:
    print(f"ACCEPTANCE {number}: PASS - {message}")


def g(name: str) -> str:
    return str(GOLDEN_DIR / name)


_PAPER_FILES = ["two_facts.cat", "table_t.cat", "translation_f.cat"]


def _paper_env(*extra: str) -> dict:
    env: dict = {}
    for name in _PAPER_FILES + list(extra):
        doc = dsl.parse_document((GOLDEN_DIR / name).read_text(encoding="utf-8"), env)
        env.update(dsl.document_env(doc))
    return env


def _migrate(tmp_path, kind: str, translation: str, instance: str, *extra: str):
    out = tmp_path / f"{kind}.cat"
    argv = [
        "migrate",
        kind,
        translation,
        instance,
        *[g(n) for n in _PAPER_FILES + list(extra)],
        "--out",
        str(out),
    ]
    started = time.perf_counter()
    code = main(argv)
    elapsed = time.perf_counter() - started
    assert code == 0
    env = _paper_env(*extra)
    doc = dsl.parse_document(out.read_text(encoding="utf-8"), env)
    return doc.declarations[0].instance, elapsed


def test_criterion_1_golden_pullback(tmp_path, capsys):
    pulled, elapsed = _migrate(tmp_path, "delta", "F", "J")
    assert elapsed < 1.0, f"delta took {elapsed:.3f}s"
    assert len(pulled.row_set("T1")) == 3
    assert len(pulled.row_set("T2")) == 3
    env = _paper_env("pullback_expected.cat")
    expected = env[("instance", "PullbackExpected")]
    iso = find_isomorphism(pulled, expected)
    assert iso is not None, "no row-id bijection matches the transcribed tables"
    with capsys.disabled():
        _pass(1, f"delta splits T into the transcribed T1/T2 in {elapsed:.3f}s")


def test_criterion_2_golden_join(tmp_path, capsys):
    joined, elapsed = _migrate(tmp_path, "pi", "F", "I")
    assert elapsed < 1.0, f"pi took {elapsed:.3f}s"
    rows = joined.row_set("T")
    assert len(rows) == 2
    cells = [
        (
            joined.column("SSN")[r],
            joined.column("First")[r],
            joined.column("Last")[r],
            joined.column("Salary")[r],
        )
        for r in rows
    ]
    assert set(cells) == {
        ("122-988", "Sue", "Smith", "$300"),
        ("198-877", "Alice", "Jones", "$100"),
    }
    env = _paper_env()
    original = env[("instance", "I")]
    for leaf in ("SSN", "First", "Last", "Salary"):
        assert joined.row_set(leaf) == original.row_set(leaf), f"leaf {leaf} changed"
    with capsys.disabled():
        _pass(2, f"pi joins T1 and T2 into the 2-row table in {elapsed:.3f}s")


def test_criterion_3_golden_union(tmp_path, capsys):
    pushed, elapsed = _migrate(tmp_path, "sigma", "F", "I")
    assert elapsed < 1.0, f"sigma took {elapsed:.3f}s"
    assert pushed.row_set("T") == (
        "T1-001",
        "T1-002",
        "T1-003",
        "T2-A101",
        "T2-A102",
        "T2-A104",
        "T2-A110",
    )
    expected_cells = {
        "T1-001": ("115-234", "Bob", "Smith", "T1-001.Salary"),
        "T1-002": ("122-988", "Sue", "Smith", "T1-002.Salary"),
        "T1-003": ("198-877", "Alice", "Jones", "T1-003.Salary"),
        "T2-A101": ("T2-A101.SSN", "Alice", "Jones", "$100"),
        "T2-A102": ("T2-A102.SSN", "Sam", "Miller", "$150"),
        "T2-A104": ("T2-A104.SSN", "Sue", "Smith", "$300"),
        "T2-A110": ("T2-A110.SSN", "Carl", "Pratt", "$200"),
    }
    for row, cells in expected_cells.items():
        actual = (
            pushed.column("SSN")[row],
            pushed.column("First")[row],
            pushed.column("Last")[row],
            pushed.column("Salary")[row],
        )
        assert actual == cells, f"row {row}: {actual} != {cells}"
    with capsys.disabled():
        _pass(3, f"sigma unions the fact tables with Skolem cells in {elapsed:.3f}s")


def test_criterion_4_equation_enforcement(capsys):
    env: dict = {}
    doc = dsl.parse_document((GOLDEN_DIR / "employee.cat").read_text(), env)
    staff = doc.instance("Staff")
    assert validate_instance(staff) == []
    columns = {a: dict(col) for a, col in staff.columns.items()}
    columns["Mgr"]["101"] = "102"
    mutated = Instance(staff.schema, dict(staff.rows), columns)
    report = validate_instance(mutated)
    violations = [v for v in report if isinstance(v, EquationViolation)]
    assert violations, "mutation not caught"
    assert any(
        v.row == "101" and "Mgr.isIn = isIn" in v.equation for v in violations
    ), f"wrong witness: {violations}"
    with capsys.disabled():
        _pass(4, "employee instance validates; the 101.Mgr mutation names row 101 and Mgr.isIn = isIn")


def test_criterion_5_equivalence_round_trip(capsys):
    env = _paper_env("equivalence.cat")
    feq = env[("translation", "Feq")]
    j = env[("instance", "J")]
    seed = env[("instance", "EquivPullbackExpected")]

    pulled = delta(feq, j)
    for row in pulled.row_set("T1"):
        assert pulled.column("i12")[row] == row
    for row in pulled.row_set("T2"):
        assert pulled.column("i21")[row] == row
    assert find_isomorphism(pulled, seed) is not None, "pullback display mismatch"

    round_c = delta(feq, sigma(feq, seed))
    iso_c = find_isomorphism(round_c, seed)
    assert iso_c is not None, "delta(sigma(.)) not isomorphic on the C side"

    round_d = sigma(feq, delta(feq, j))
    iso_d = find_isomorphism(round_d, j)
    assert iso_d is not None, "sigma(delta(.)) not isomorphic on the D side"
    with capsys.disabled():
        _pass(5, "both equivalence round trips admit explicit isomorphisms")


def test_criterion_6_grothendieck(capsys):
    env: dict = {}
    doc = dsl.parse_document((GOLDEN_DIR / "employee.cat").read_text(), env)
    staff = doc.instance("Staff")
    store = grothendieck(staff)
    assert len(store.triples) == 16
    assert ("Employee/101", "isIn", "Department/q10") in store.triples
    exported = export_triples(store, "http://example.org/company")
    assert len(exported.splitlines()) == 16
    assert ungrothendieck(store) == staff
    with capsys.disabled():
        _pass(6, "16 triples incl <101 isIn q10>; ungrothendieck(grothendieck(I)) == I")


def test_criterion_7_typing_goldens(capsys):
    env: dict = {}
    for name in ("times50.cat", "satisfaction.cat", "filtering.cat"):
        doc = dsl.parse_document((GOLDEN_DIR / name).read_text(), env)
        env.update(dsl.document_env(doc))

    # times 50: validate, then break one cell
    contracts = env[("typedinstance", "TypedContracts")]
    assert validate_typed(contracts) == []
    instance = contracts.instance
    columns = {a: dict(col) for a, col in instance.columns.items()}
    columns["d"]["CtrX13"] = "$201"
    mutated = Instance(instance.schema, dict(instance.rows), columns)
    from catmigrate.instances import InstanceMorphism
    from catmigrate.typed import TypedInstance

    broken = TypedInstance(
        InstanceMorphism(mutated, contracts.typing_instance, contracts.typing.components)
    )
    assert any(
        "arrow 'd' on row 'CtrX13'" in item.describe() for item in validate_typed(broken)
    )

    # sigma-hat: threshold typing
    retyped = typechange_sigma(env[("morphism", "threshold")], contracts)
    typing_z = retyped.typing.component("Z")
    debts = [
        typing_z[instance.column("d")[row]] for row in ("CtrX13", "CtrX14", "CtrX15")
    ]
    assert debts == ["True", "True", "False"]

    # delta-hat: salary filter
    filtered = typechange_delta(env[("morphism", "below100")], env[("typedinstance", "TypedStaff")])
    names = {
        filtered.instance.column("name")[r]
        for r in filtered.instance.row_set("Employee")
    }
    assert names == {"Smith", "Lee", "Carlsson"}

    # pi-hat: group satisfaction
    grouped = typechange_pi(env[("morphism", "grouping")], env[("typedinstance", "TypedItems")])
    assert grouped.instance.row_set("L") == (
        "(a,b)",
        "(a,e)",
        "(a,g)",
        "(c,b)",
        "(c,e)",
        "(c,g)",
        "(d,f)",
    )
    typing_l = grouped.typing.component("L")
    assert [typing_l[r] for r in grouped.instance.row_set("L")] == ["x"] * 6 + ["y"]
    with capsys.disabled():
        _pass(7, "times-50, threshold, salary filter, and group satisfaction all match")


def _iterated_limit_estimate(translation, pi_result) -> int:
    """Upper bound on the largest table of pi(delta(pi(I))): per vertex, the
    product over comma components of the first-level family counts."""
    worst = 1
    for data in pi_result.data.values():
        product = 1
        for c, _ in data.comps:
            product *= max(
                1, len(pi_result.instance.row_set(translation.vertex_image(c)))
            )
        worst = max(worst, product)
    return worst


def test_criterion_8_property_suite(capsys):
    started = time.perf_counter()
    rng = random.Random(2026)
    cases = 0
    while cases < 200:
        target = rand_acyclic_schema(rng, f"D{cases}", max_vertices=4, max_arrows=5, max_equations=2)
        translation = rand_translation(rng, target, name_prefix=f"c{cases}_")
        source_instance = rand_instance(rng, translation.source, max_rows=3)
        target_instance = rand_instance(rng, target, max_rows=3)
        cases += 1

        # (a) pushforwards match the brute-force oracles element for element
        sigma_result = sigma_full(translation, source_instance)
        assert_sigma_matches(translation, source_instance, sigma_result)
        pi_result = pi_full(translation, source_instance)
        assert_pi_matches(translation, source_instance, pi_result)

        # (d) every migration output validates
        pulled = delta(translation, target_instance)
        assert validate_instance(pulled) == []
        assert validate_instance(sigma_result.instance) == []
        assert validate_instance(pi_result.instance) == []

        # (b) both adjunction bijections as hom-set counts
        assert count_morphisms(sigma_result.instance, target_instance) == count_morphisms(
            source_instance, pulled
        )
        assert count_morphisms(pulled, source_instance) == count_morphisms(
            target_instance, pi_result.instance
        )

        # (c) both triangle identities, componentwise.  The pi triangle walks
        # through pi(delta(pi(I))), whose size is a product of products; draw
        # the instances it uses small enough for that second-level limit to
        # stay enumerable (still random, still within 3 rows per table).
        tri_source, tri_pi = source_instance, pi_result
        rows_cap = 3
        while _iterated_limit_estimate(translation, tri_pi) > 20_000 and rows_cap > 0:
            rows_cap -= 1
            tri_source = rand_instance(rng, translation.source, max_rows=rows_cap)
            tri_pi = pi_full(translation, tri_source)
        tri_sigma = (
            sigma_result
            if tri_source is source_instance
            else sigma_full(translation, tri_source)
        )

        unit = sigma_unit(translation, tri_source)
        left = compose_morphisms(
            sigma_on_morphism(translation, unit),
            sigma_counit(translation, tri_sigma.instance),
        )
        assert left == identity_morphism(tri_sigma.instance)
        right = compose_morphisms(
            sigma_unit(translation, pulled),
            delta_on_morphism(translation, sigma_counit(translation, target_instance)),
        )
        assert right == identity_morphism(pulled)
        top = compose_morphisms(
            pi_unit(translation, tri_pi.instance),
            pi_on_morphism(translation, pi_counit(translation, tri_source)),
        )
        assert top == identity_morphism(tri_pi.instance)
        bottom = compose_morphisms(
            delta_on_morphism(translation, pi_unit(translation, target_instance)),
            pi_counit(translation, pulled),
        )
        assert bottom == identity_morphism(pulled)

        # (e) DSL round trip on the whole generated cast
        doc = dsl.Document(
            [
                dsl.SchemaDecl(target.name, target),
                dsl.SchemaDecl(translation.source.name, translation.source),
                dsl.TranslationDecl("F", translation.source.name, target.name, translation),
                dsl.InstanceDecl("I", translation.source.name, source_instance),
                dsl.InstanceDecl("J", target.name, target_instance),
            ]
        )
        assert dsl.parse_document(dsl.print_document(doc)) == doc

    elapsed = time.perf_counter() - started
    assert elapsed < 60.0, f"property suite took {elapsed:.1f}s"
    with capsys.disabled():
        _pass(8, f"200 random schema pairs: oracles, adjunctions, triangles, validity, round trip in {elapsed:.1f}s")


def test_criterion_9_cper_engine(capsys):
    rng = random.Random(77)
    schemas = []
    for i in range(500):
        if i % 2 == 0:
            schemas.append(rand_cyclic_schema(rng, f"s{i}"))
        else:
            schemas.append(rand_acyclic_schema(rng, f"s{i}"))

    soundness_checks = 0
    for schema in schemas:
        graph = schema.graph
        # conditions 1-2: mismatched endpoints are never equivalent
        if len(schema.vertices) >= 2 and schema.arrows:
            arrow = schema.arrows[0]
            other = next((v for v in schema.vertices if v != arrow.source), None)
            if other is not None:
                verdict = paths_equivalent(
                    schema, Path(arrow.source, (arrow.name,)), Path(other, ())
                )
                assert verdict is Equivalence.NOT_PROVED

        # condition 3: precomposition with any arrow, within one step
        for eq in schema.equivalences:
            for arrow in schema.arrows:
                if arrow.target == eq.lhs.source:
                    p = Path(arrow.source, (arrow.name,) + eq.lhs.arrows)
                    q = Path(arrow.source, (arrow.name,) + eq.rhs.arrows)
                    assert paths_equivalent(schema, p, q, budget=1) is Equivalence.EQUIVALENT

        # condition 4: postcomposition with any arrow, within one step
        for eq in schema.equivalences:
            tail = path_target(graph, eq.lhs)
            for arrow in schema.arrows:
                if arrow.source == tail:
                    p = Path(eq.lhs.source, eq.lhs.arrows + (arrow.name,))
                    q = Path(eq.rhs.source, eq.rhs.arrows + (arrow.name,))
                    assert paths_equivalent(schema, p, q, budget=1) is Equivalence.EQUIVALENT

        # composition lemma: both generators proved in 1 step, composite in 2
        for left in schema.equivalences:
            for right in schema.equivalences:
                if path_target(graph, left.lhs) != right.lhs.source:
                    continue
                p = Path(left.lhs.source, left.lhs.arrows + right.lhs.arrows)
                q = Path(left.rhs.source, left.rhs.arrows + right.rhs.arrows)
                assert paths_equivalent(schema, p, q, budget=2) is Equivalence.EQUIVALENT

        # soundness: a proved equivalence is satisfied by every valid instance
        instances = [rand_instance(rng, schema, max_rows=3) for _ in range(2)]
        for instance in instances:
            assert validate_instance(instance) == []
        candidate_pairs = [(eq.lhs, eq.rhs) for eq in schema.equivalences]
        for _ in range(4):
            start = rng.choice(schema.vertices)
            walks = []
            for _ in range(2):
                at, arrows = start, []
                for _ in range(rng.randint(0, 3)):
                    options = graph.out_arrows(at)
                    if not options:
                        break
                    arrow = rng.choice(options)
                    arrows.append(arrow.name)
                    at = arrow.target
                walks.append(Path(start, tuple(arrows)))
            p, q = walks
            if path_target(graph, p) == path_target(graph, q):
                candidate_pairs.append((p, q))
        for p, q in candidate_pairs:
            if paths_equivalent(schema, p, q) is Equivalence.EQUIVALENT:
                for instance in instances:
                    for row in instance.row_set(p.source):
                        assert evaluate_path(instance, p, row) == evaluate_path(
                            instance, q, row
                        )
                        soundness_checks += 1

    assert soundness_checks > 0
    with capsys.disabled():
        _pass(9, f"CPER conditions, lemma, and soundness hold on 500 schemas ({soundness_checks} pointwise checks)")
