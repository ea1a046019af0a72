from __future__ import annotations

import dataclasses
import random

import pytest

from catmigrate.errors import CompositionError, StructuralError
from catmigrate.schemas import (
    Arrow,
    Equivalence,
    Graph,
    Path,
    PathEquivalence,
    Schema,
    compose_paths,
    path_target,
    paths_equivalent,
    trivial_path,
)

from .conftest import load_documents
from .generators import rand_cyclic_schema
from .oracles import all_paths


@pytest.fixture(scope="module")
def self_email():
    graph = Graph(
        ("A", "B", "C"),
        (Arrow("f", "A", "B"), Arrow("g", "B", "C"), Arrow("h", "B", "C")),
    )
    return Schema(
        "SelfEmail", graph, (PathEquivalence(Path("A", ("f", "g")), Path("A", ("f", "h"))),)
    )


@pytest.fixture(scope="module")
def employee():
    graph = Graph(
        ("Employee", "Department", "String1", "String2", "String3"),
        (
            Arrow("First", "Employee", "String1"),
            Arrow("Last", "Employee", "String2"),
            Arrow("Mgr", "Employee", "Employee"),
            Arrow("isIn", "Employee", "Department"),
            Arrow("Name", "Department", "String3"),
            Arrow("Secr", "Department", "Employee"),
        ),
    )
    return Schema(
        "Company",
        graph,
        (
            PathEquivalence(Path("Employee", ("Mgr", "isIn")), Path("Employee", ("isIn",))),
            PathEquivalence(Path("Department", ("Secr", "isIn")), Path("Department", ())),
        ),
    )


def test_compose_trivial_is_identity(self_email):
    q = Path("A", ("f", "g"))
    assert compose_paths(self_email.graph, trivial_path("A"), q) == q
    assert compose_paths(self_email.graph, q, trivial_path("C")) == q


def test_compose_one_arrow_after_trivial(self_email):
    assert compose_paths(self_email.graph, trivial_path("A"), Path("A", ("f",))) == Path(
        "A", ("f",)
    )


def test_compose_builds_length_two_path(self_email):
    fg = compose_paths(self_email.graph, Path("A", ("f",)), Path("B", ("g",)))
    assert fg == Path("A", ("f", "g"))
    assert path_target(self_email.graph, fg) == "C"


def test_compose_endpoint_mismatch_names_both_vertices(self_email):
    with pytest.raises(CompositionError) as err:
        compose_paths(self_email.graph, Path("A", ("f",)), Path("A", ("f",)))
    assert err.value.left_target == "B"
    assert err.value.right_source == "A"


def test_graph_rejects_duplicates_and_bad_endpoints():
    with pytest.raises(StructuralError):
        Graph(("A", "A"), ())
    with pytest.raises(StructuralError):
        Graph(("A",), (Arrow("f", "A", "B"),))
    with pytest.raises(StructuralError):
        Graph(("A", "B"), (Arrow("f", "A", "B"), Arrow("f", "B", "A")))


def test_equal_values_built_apart_compare_and_hash_equal():
    _, first = load_documents("employee.cat")
    _, second = load_documents("employee.cat")
    a, b = first[("schema", "Company")], second[("schema", "Company")]
    assert a is not b and a.graph is not b.graph
    assert a.graph == b.graph and hash(a.graph) == hash(b.graph)
    assert a == b and hash(a) == hash(b)


def test_values_differing_in_one_part_compare_unequal(employee):
    fewer = dataclasses.replace(employee, equivalences=employee.equivalences[:1])
    assert fewer != employee
    swapped = dataclasses.replace(
        employee.graph, arrows=employee.graph.arrows[1:] + employee.graph.arrows[:1]
    )
    assert swapped != employee.graph
    assert Schema("Company", swapped, employee.equivalences) != employee


def test_replace_rebuilds_the_indexes(employee):
    graph = employee.graph
    grown = dataclasses.replace(
        graph,
        vertices=graph.vertices + ("Office",),
        arrows=graph.arrows + (Arrow("sits", "Employee", "Office"),),
    )
    assert grown.has_vertex("Office") and not graph.has_vertex("Office")
    assert grown.arrow("sits").target == "Office"
    assert grown.vertex_index("Office") == 5 and grown.arrow_order("sits") == 6
    assert [a.name for a in grown.out_arrows("Employee")][-1] == "sits"
    assert [a.name for a in graph.out_arrows("Employee")][-1] == "isIn"
    with pytest.raises(StructuralError, match="unknown arrow 'sits'"):
        graph.arrow("sits")
    lhs, rhs = Path("Employee", ("Mgr", "isIn")), Path("Employee", ("isIn",))
    bare = dataclasses.replace(employee, equivalences=())
    assert paths_equivalent(employee, lhs, rhs) is Equivalence.EQUIVALENT
    assert paths_equivalent(bare, lhs, rhs) is Equivalence.NOT_PROVED


def test_schema_rejects_equation_with_mismatched_endpoints(self_email):
    with pytest.raises(StructuralError):
        Schema(
            "bad",
            self_email.graph,
            (PathEquivalence(Path("A", ("f",)), Path("A", ("f", "g"))),),
        )


def test_reflexivity_zero_steps(self_email):
    p = Path("A", ("f", "g"))
    assert paths_equivalent(self_email, p, p, budget=0) is Equivalence.EQUIVALENT


def test_declared_equation_proved(employee):
    assert (
        paths_equivalent(
            employee, Path("Employee", ("Mgr", "isIn")), Path("Employee", ("isIn",))
        )
        is Equivalence.EQUIVALENT
    )


def test_double_manager_needs_two_steps(employee):
    p = Path("Employee", ("Mgr", "Mgr", "isIn"))
    q = Path("Employee", ("isIn",))
    # independent check: depth-bounded exhaustive rewriting says 2 steps suffice
    assert paths_equivalent(employee, p, q, budget=1) is Equivalence.NOT_PROVED
    assert paths_equivalent(employee, p, q, budget=2) is Equivalence.EQUIVALENT
    assert paths_equivalent(employee, p, q, budget=3) is Equivalence.EQUIVALENT


def test_unequal_endpoints_answer_not_proved(employee):
    assert (
        paths_equivalent(employee, Path("Employee", ("isIn",)), Path("Employee", ("Mgr",)))
        is Equivalence.NOT_PROVED
    )
    assert (
        paths_equivalent(
            employee, Path("Employee", ("Mgr",)), Path("Department", ("Secr",))
        )
        is Equivalence.NOT_PROVED
    )


def test_invalid_path_raises(employee):
    with pytest.raises(StructuralError):
        paths_equivalent(
            employee, Path("Employee", ("Name",)), Path("Employee", ("isIn",))
        )


def test_identity_insertion_rewrite(employee):
    # Secr.isIn = id lets the engine grow a path before shrinking it.
    p = Path("Department", ("Secr", "isIn", "Name"))
    q = Path("Department", ("Name",))
    assert paths_equivalent(employee, p, q) is Equivalence.EQUIVALENT


def _declared_closure_cases(rng: random.Random, count: int):
    for i in range(count):
        schema = rand_cyclic_schema(rng, f"s{i}")
        if schema.equivalences:
            yield schema


def test_cper_precomposition_closure_on_random_schemas():
    # condition: m.p = m.q within one rewrite step, for declared p = q
    rng = random.Random(11)
    for schema in _declared_closure_cases(rng, 150):
        for eq in schema.equivalences:
            for arrow in schema.arrows:
                if arrow.target != eq.lhs.source:
                    continue
                p = Path(arrow.source, (arrow.name,) + eq.lhs.arrows)
                q = Path(arrow.source, (arrow.name,) + eq.rhs.arrows)
                assert paths_equivalent(schema, p, q, budget=1) is Equivalence.EQUIVALENT


def test_cper_postcomposition_closure_on_random_schemas():
    rng = random.Random(12)
    for schema in _declared_closure_cases(rng, 150):
        for eq in schema.equivalences:
            tail = path_target(schema.graph, eq.lhs)
            for arrow in schema.arrows:
                if arrow.source != tail:
                    continue
                p = Path(eq.lhs.source, eq.lhs.arrows + (arrow.name,))
                q = Path(eq.rhs.source, eq.rhs.arrows + (arrow.name,))
                assert paths_equivalent(schema, p, q, budget=1) is Equivalence.EQUIVALENT


def test_composition_lemma_within_doubled_budget():
    # p = q and r = s proved within B imply p.r = q.s within 2B
    rng = random.Random(13)
    for schema in _declared_closure_cases(rng, 150):
        eqs = schema.equivalences
        for left in eqs:
            for right in eqs:
                if path_target(schema.graph, left.lhs) != right.lhs.source:
                    continue
                p = Path(left.lhs.source, left.lhs.arrows + right.lhs.arrows)
                q = Path(left.rhs.source, left.rhs.arrows + right.rhs.arrows)
                assert paths_equivalent(schema, p, q, budget=2) is Equivalence.EQUIVALENT


def test_engine_agrees_with_exhaustive_closure_on_acyclic():
    # on acyclic schemas the full closure is computable; the budgeted engine
    # must prove exactly the pairs the closure relates (budget ample)
    from .generators import rand_acyclic_schema
    from .oracles import path_partition

    rng = random.Random(14)
    for i in range(120):
        schema = rand_acyclic_schema(rng, f"s{i}")
        for v in schema.vertices:
            paths = all_paths(schema, v)
            roots = path_partition(schema, paths)
            for a in range(len(paths)):
                for b in range(a + 1, len(paths)):
                    verdict = paths_equivalent(schema, paths[a], paths[b], budget=32)
                    if roots[a] == roots[b]:
                        assert verdict is Equivalence.EQUIVALENT
                    else:
                        assert verdict is Equivalence.NOT_PROVED
