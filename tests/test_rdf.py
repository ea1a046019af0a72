from __future__ import annotations

import random

import pytest

from catmigrate.errors import TripleStoreError
from catmigrate.instances import Instance
from catmigrate.rdf import (
    TripleStore,
    export_triples,
    grothendieck,
    ungrothendieck,
    validate_store,
)
from catmigrate.schemas import Arrow, Graph, Schema

from .generators import _adversarial_ids, rand_acyclic_schema, rand_instance
from .oracles import per_triple_export, triple_by_triple_validate_store


@pytest.fixture(scope="module")
def staff(paper_env):
    return paper_env[("instance", "Staff")]


def test_employee_store_has_sixteen_triples(staff):
    store = grothendieck(staff)
    assert len(store.triples) == 16
    assert ("Employee/101", "isIn", "Department/q10") in store.triples
    assert ("Employee/102", "Last", "String2/Russell") in store.triples
    assert validate_store(store) == []


def test_triple_ends_are_the_node_id_objects(staff):
    """Each node id is built once; every triple at it holds that string."""
    store = grothendieck(staff)
    node_ids = {node: node for node, _ in store.nodes}
    for subject, _, obj in store.triples:
        assert subject is node_ids[subject]
        assert obj is node_ids[obj]


def test_triple_count_formula(staff):
    store = grothendieck(staff)
    expected = sum(
        len(staff.row_set(a.source)) for a in staff.schema.arrows
    )
    assert len(store.triples) == expected


def test_empty_instance_empty_store(staff):
    store = grothendieck(Instance(staff.schema))
    assert store.nodes == () and store.triples == ()
    assert ungrothendieck(store) == Instance(staff.schema)


def test_loop_instance_single_self_triple():
    schema = Schema("Loop", Graph(("W",), (Arrow("a", "W", "W"),)))
    instance = Instance(schema, {"W": ("w",)}, {"a": {"w": "w"}})
    store = grothendieck(instance)
    assert store.nodes == (("W/w", "W"),)
    assert store.triples == (("W/w", "a", "W/w"),)


def test_round_trip_on_employee(staff):
    assert ungrothendieck(grothendieck(staff)) == staff


def test_round_trip_on_random_instances():
    rng = random.Random(17)
    for case in range(25):
        schema = rand_acyclic_schema(rng, f"s{case}")
        instance = rand_instance(rng, schema)
        assert ungrothendieck(grothendieck(instance)) == instance


def test_missing_triple_is_an_error(staff):
    store = grothendieck(staff)
    pruned = TripleStore(
        store.schema,
        store.nodes,
        tuple(t for t in store.triples if t != ("Employee/101", "Mgr", "Employee/103")),
    )
    with pytest.raises(TripleStoreError) as err:
        ungrothendieck(pruned)
    assert err.value.node == "Employee/101"
    assert err.value.predicate == "Mgr"


def test_nodes_collapsing_to_one_row_id_are_an_error():
    schema = Schema("S", Graph(("A",), ()))
    # "A/x" strips its type prefix, "x" has none: both become row "x"
    store = TripleStore(schema, (("A/x", "A"), ("A/y", "A"), ("x", "A")), ())
    assert validate_store(store) == []
    with pytest.raises(TripleStoreError, match="collapse to row id 'x'") as err:
        ungrothendieck(store)
    assert err.value.node == "x"


def test_duplicate_predicate_is_reported(staff):
    store = grothendieck(staff)
    doubled = TripleStore(
        store.schema,
        store.nodes,
        store.triples + (("Employee/101", "Mgr", "Employee/102"),),
    )
    assert any("not functional" in p for p in validate_store(doubled))
    with pytest.raises(TripleStoreError):
        ungrothendieck(doubled)


def test_unknown_predicate_is_reported(staff):
    store = grothendieck(staff)
    stray = TripleStore(
        store.schema, store.nodes, store.triples + (("Employee/101", "ghost", "Employee/102"),)
    )
    assert validate_store(stray) == ["triple predicate 'ghost' is not a schema arrow"]


def test_schema_equations_commute_in_the_store(staff):
    # chasing Mgr then isIn from any employee node lands where isIn does
    store = grothendieck(staff)
    value = {(s, p): o for s, p, o in store.triples}
    for node, vertex in store.nodes:
        if vertex != "Employee":
            continue
        via_manager = value[(value[(node, "Mgr")], "isIn")]
        assert via_manager == value[(node, "isIn")]


def test_export_is_sorted_and_deterministic(staff):
    store = grothendieck(staff)
    text = export_triples(store, "http://example.org/company")
    lines = text.splitlines()
    assert len(lines) == 16
    assert lines == sorted(lines)
    assert all(line.endswith(" .") for line in lines)
    assert (
        "<http://example.org/company/Employee/101> "
        "<http://example.org/company/isIn> "
        "<http://example.org/company/Department/q10> ." in lines
    )
    assert export_triples(store, "http://example.org/company") == text


def test_export_empty_store(staff):
    assert export_triples(grothendieck(Instance(staff.schema)), "http://x") == ""


def test_export_percent_encodes_spaces():
    schema = Schema("S", Graph(("A", "B"), (Arrow("to", "A", "B"),)))
    instance = Instance(
        schema, {"A": ("has space",), "B": ("plain",)}, {"to": {"has space": "plain"}}
    )
    text = export_triples(grothendieck(instance), "http://x")
    assert "has%20space" in text
    assert "has space" not in text


def test_vertex_names_holding_slash_or_percent_keep_node_ids_distinct():
    # vertex a's row b/c and vertex a/b's row c would both be node a/b/c
    # without encoding the vertex part; a% and a%2F would then collide too
    vertices = ("a", "a/b", "a%", "a%2F")
    schema = Schema(
        "Slash", Graph(vertices, (Arrow("to", "a/b", "a"), Arrow("back", "a%", "a%2F")))
    )
    instance = Instance(
        schema,
        {"a": ("b/c", "c"), "a/b": ("c",), "a%": ("2F/x",), "a%2F": ("x", "/x")},
        {"to": {"c": "b/c"}, "back": {"2F/x": "/x"}},
    )
    store = grothendieck(instance)
    ids = [node for node, _ in store.nodes]
    assert len(ids) == len(set(ids)) == 6
    assert ("a%2Fb/c", "to", "a/b/c") in store.triples
    assert ("a%25/2F/x", "back", "a%252F//x") in store.triples
    assert validate_store(store) == []
    assert ungrothendieck(store) == instance


def test_export_matches_a_per_triple_reference():
    # row ids and vertex names hold every character that gets quoted or
    # percent-encoded, and ids recur across tables and as arrow names
    rng = random.Random(5150)
    for case in range(60):
        shape = rand_acyclic_schema(rng, f"S{case}", max_vertices=4, max_arrows=5)
        names = _adversarial_ids(rng, len(shape.vertices) + len(shape.arrows))
        rename = dict(zip(shape.vertices, ["v " + n for n in names]))
        arrows = tuple(
            Arrow(name + "/" + a.name, rename[a.source], rename[a.target])
            for a, name in zip(shape.arrows, names[len(shape.vertices):])
        )
        schema = Schema(f"S{case}", Graph(tuple(rename.values()), arrows))
        rows = {v: tuple(_adversarial_ids(rng, rng.randint(1, 6))) for v in schema.vertices}
        columns = {
            a.name: {r: rng.choice(rows[a.target]) for r in rows[a.source]} for a in arrows
        }
        store = grothendieck(Instance(schema, rows, columns))
        for base in ("http://example.org/x", "http://example.org/x/", "", "urn:a b"):
            assert export_triples(store, base) == per_triple_export(store, base), case


def _store_faults(rng: random.Random, store: TripleStore) -> TripleStore:
    """``store`` with one to three faults of random kinds, a repeated triple
    among them, and often its triples shuffled, so that a predicate's
    triples come in several runs."""
    nodes, triples = list(store.nodes), list(store.triples)
    types = dict(store.nodes)
    of_type: dict[str, list[str]] = {}
    for node, vertex in store.nodes:
        of_type.setdefault(vertex, []).append(node)
    for _ in range(rng.randint(1, 3)):
        kind = rng.randrange(7)
        if not triples:  # no arrow, or only empty tables
            kind = min(kind, 2)
        if kind == 0 and nodes:  # a node declared twice
            nodes.insert(rng.randrange(len(nodes) + 1), rng.choice(nodes))
        elif kind == 1 and nodes:  # a node of an unknown type
            at = rng.randrange(len(nodes))
            nodes[at] = (nodes[at][0], "Nowhere")
        elif kind == 2:  # a predicate that is no arrow
            node = rng.choice(nodes)[0] if nodes else "ghost"
            triples.insert(rng.randrange(len(triples) + 1), (node, "nope", node))
        elif kind >= 3:
            at = rng.randrange(len(triples))
            s, p, o = triples[at]
            if kind == 3:  # a subject or an object that is no node
                triples[at] = (s, p, "ghost") if rng.random() < 0.5 else ("ghost", p, o)
            elif kind == 4:  # a subject or an object of any type
                other = rng.choice(store.nodes)[0] if store.nodes else "ghost"
                triples[at] = (s, p, other) if rng.random() < 0.5 else (other, p, o)
            elif kind == 5:  # a second object for a subject, maybe the same one
                o = rng.choice(of_type.get(types.get(o), [o]))
                triples.insert(rng.randrange(len(triples) + 1), (s, p, o))
            else:  # a triple repeated
                triples.insert(rng.randrange(len(triples) + 1), (s, p, o))
    if rng.random() < 0.7:
        rng.shuffle(triples)
    return TripleStore(store.schema, tuple(nodes), tuple(triples))


_STORE_FAULTS = {
    "declared twice": "declared twice",
    "unknown type": "has unknown type",
    "no arrow": "is not a schema arrow",
    "subject no node": "triple subject",
    "object no node": "triple object",
    "subject type": "but predicate",
    "not functional": "is not functional",
}


def test_validate_store_matches_the_triple_by_triple_walk():
    # A predicate at a time on valid stores, and the walk's messages in its
    # order on stores with every kind of fault, their predicates interleaved
    rng = random.Random(6060)
    kinds = set()
    interleaved = valid = 0
    for case in range(400):
        schema = rand_acyclic_schema(rng, f"R{case}", max_vertices=4, max_arrows=5)
        store = grothendieck(rand_instance(rng, schema, max_rows=5))
        if case % 4:
            store = _store_faults(rng, store)
        else:
            triples = rng.sample(store.triples, len(store.triples))
            store = TripleStore(schema, store.nodes, tuple(triples))
        want = triple_by_triple_validate_store(store)
        assert validate_store(store) == want, case
        predicates = [p for _, p, _ in store.triples]
        runs = sum(1 for k, p in enumerate(predicates) if k == 0 or p != predicates[k - 1])
        interleaved += runs > len(set(predicates))
        valid += not want
        kinds.update(k for k, text in _STORE_FAULTS.items() for m in want if text in m)
    assert interleaved >= 100 and valid >= 100, (interleaved, valid)
    assert kinds == set(_STORE_FAULTS)
