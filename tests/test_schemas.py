from __future__ import annotations

import os
import random
import subprocess
import sys

import pytest

from catmigrate import schemas
from catmigrate.errors import CompositionError, StructuralError
from catmigrate.instances import evaluate_path
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

from . import oracles
from .conftest import load_documents
from .generators import rand_acyclic_schema, rand_cyclic_schema, rand_instance
from .oracles import all_paths, one_sided_search


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
    fewer = Schema(employee.name, employee.graph, employee.equivalences[:1])
    assert fewer != employee
    swapped = Graph(employee.graph.vertices, employee.graph.arrows[1:] + employee.graph.arrows[:1])
    assert swapped != employee.graph
    assert Schema("Company", swapped, employee.equivalences) != employee


def test_constructor_rebuilds_the_indexes(employee):
    graph = employee.graph
    grown = Graph(
        graph.vertices + ("Office",), graph.arrows + (Arrow("sits", "Employee", "Office"),)
    )
    assert grown.has_vertex("Office") and not graph.has_vertex("Office")
    assert grown.arrow("sits").target == "Office"
    assert grown.vertex_index("Office") == 5 and grown.arrow_order("sits") == 6
    assert [a.name for a in grown.out_arrows("Employee")][-1] == "sits"
    assert [a.name for a in graph.out_arrows("Employee")][-1] == "isIn"
    with pytest.raises(StructuralError, match="unknown arrow 'sits'"):
        graph.arrow("sits")
    lhs, rhs = Path("Employee", ("Mgr", "isIn")), Path("Employee", ("isIn",))
    bare = Schema(employee.name, employee.graph, ())
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


def _schema(vertices, arrows, equations, name="T"):
    """A schema from (name, source, target) arrows and (source, lhs, rhs) equations."""
    graph = Graph(tuple(vertices), tuple(Arrow(*a) for a in arrows))
    return Schema(
        name, graph, tuple(PathEquivalence(Path(s, l), Path(s, r)) for s, l, r in equations)
    )


def test_long_endpoint_proved_whichever_end_sorts_first():
    # f.b^32 is 33 arrows long, one past the default length cap.
    schema = _schema(
        ("u", "v"),
        (("f", "u", "v"), ("g", "u", "v"), ("b", "v", "v")),
        (("v", ("b", "b"), ("b",)), ("u", ("g",), ("f", "b"))),
    )
    long = Path("u", ("f",) + ("b",) * 32)
    g, fb = Path("u", ("g",)), Path("u", ("f", "b"))
    assert paths_equivalent(schema, long, g) is Equivalence.EQUIVALENT
    assert paths_equivalent(schema, g, fb) is Equivalence.EQUIVALENT
    assert paths_equivalent(schema, long, fb) is Equivalence.EQUIVALENT
    assert paths_equivalent(schema, fb, long) is Equivalence.EQUIVALENT


def test_length_cap_bounds_the_paths_between_the_endpoints(monkeypatch):
    # g = f.b.b.b is the only rewrite of g; at cap 3 it may be an endpoint
    # but not a step on the way to f.b.
    schema = _schema(
        ("u", "v"),
        (("f", "u", "v"), ("g", "u", "v"), ("b", "v", "v")),
        (("v", ("b", "b"), ("b",)), ("u", ("g",), ("f", "b", "b", "b"))),
    )
    g, fb, fbbb = Path("u", ("g",)), Path("u", ("f", "b")), Path("u", ("f", "b", "b", "b"))
    monkeypatch.setattr(schemas, "DEFAULT_PATH_LENGTH_CAP", 3)
    assert paths_equivalent(schema, g, fbbb, budget=1) is Equivalence.EQUIVALENT
    assert paths_equivalent(schema, g, fb) is Equivalence.NOT_PROVED
    # both endpoints over the cap, one rewrite apart
    long = Path("u", ("f",) + ("b",) * 5)
    longer = Path("u", ("f",) + ("b",) * 6)
    assert paths_equivalent(schema, long, longer, budget=1) is Equivalence.EQUIVALENT
    assert paths_equivalent(schema, long, longer, budget=0) is Equivalence.NOT_PROVED
    monkeypatch.setattr(schemas, "DEFAULT_PATH_LENGTH_CAP", 4)
    assert paths_equivalent(schema, g, fb, budget=3) is Equivalence.EQUIVALENT


def test_proved_at_exactly_the_rewrite_distance():
    # e0 = e1 = ... = e5, and dead-end spurs d1..d4 at e0, so that one end's
    # frontier outgrows the other's and the search alternates sides.
    chain = _schema(
        ("u", "v"),
        [(f"e{i}", "u", "v") for i in range(6)] + [(f"d{j}", "u", "v") for j in range(1, 5)],
        [("u", (f"e{i}",), (f"e{i + 1}",)) for i in range(5)]
        + [("u", ("e0",), (f"d{j}",)) for j in range(1, 5)],
        name="Chain",
    )
    collapse = _schema(
        ("u", "v"), (("f", "u", "v"), ("b", "v", "v")), (("v", ("b", "b"), ("b",)),), "Collapse"
    )
    for k in range(1, 6):
        pairs = [
            (chain, Path("u", ("e0",)), Path("u", (f"e{k}",))),
            (chain, Path("u", (f"d{1 + k % 4}",)), Path("u", (f"e{k - 1}",))),
            (collapse, Path("u", ("f",) + ("b",) * (k + 1)), Path("u", ("f", "b"))),
        ]
        for schema, p, q in pairs:
            for a, b in ((p, q), (q, p)):
                assert paths_equivalent(schema, a, b, budget=k) is Equivalence.EQUIVALENT
                assert paths_equivalent(schema, a, b, budget=k - 1) is Equivalence.NOT_PROVED


def test_state_cap_stops_only_the_side_that_passes_it(monkeypatch):
    # a0 - a1 - a2 - a3 by renaming, a spur s at a0 and six spurs t1..t6 at
    # a3.  Growing from a3 passes a cap of 6 states at once; the side of a0
    # must go on and meet it, as the one-sided search from a0 does.
    schema = _schema(
        ("u", "v"),
        [(n, "u", "v") for n in ("a0", "a1", "a2", "a3", "s", "t1", "t2", "t3", "t4", "t5", "t6")],
        [("u", (f"a{i}",), (f"a{i + 1}",)) for i in range(3)]
        + [("u", ("a0",), ("s",))]
        + [("u", ("a3",), (f"t{j}",)) for j in range(1, 7)],
    )
    p, q = Path("u", ("a0",)), Path("u", ("a3",))
    for cap, verdict in ((6, Equivalence.EQUIVALENT), (2, Equivalence.NOT_PROVED)):
        monkeypatch.setattr(schemas, "_MAX_VISITED_STATES", cap)
        monkeypatch.setattr(oracles, "_MAX_VISITED_STATES", cap)
        assert paths_equivalent(schema, p, q, budget=3) is verdict
        assert one_sided_search(schema, p, q, 3, 32) is verdict


def test_identity_rules_insert_only_at_their_vertex(monkeypatch, employee):
    # Secr.isIn = id matches at every position of a path; only the positions
    # at Department may take it, so every path the search reaches is valid.
    rewrites = schemas._rewrites

    def checked(schema, source, arrows, length_cap, goal):
        for path in rewrites(schema, source, arrows, length_cap, goal):
            path_target(schema.graph, Path(source, path))
            yield path

    monkeypatch.setattr(schemas, "_rewrites", checked)
    p = Path("Employee", ("isIn", "Secr", "Mgr"))
    assert paths_equivalent(employee, p, Path("Employee", ())) is Equivalence.NOT_PROVED
    p, q = Path("Department", ("Secr", "isIn", "Name")), Path("Department", ("Name",))
    assert paths_equivalent(employee, p, q) is Equivalence.EQUIVALENT


def _one_sided(schema, p, q, budget, length_cap, caps_hit):
    """The reference, after the shortcut for equal paths and the ordering
    that ``paths_equivalent`` puts before its search; the callers pass
    paths with equal endpoints."""
    if p == q:
        return Equivalence.EQUIVALENT
    if (q.arrows, q.source) < (p.arrows, p.source):
        p, q = q, p
    return one_sided_search(schema, p, q, budget, length_cap, caps_hit)


def _walk(rng, graph, start, steps):
    at, arrows = start, []
    for _ in range(steps):
        options = graph.out_arrows(at)
        if not options:
            break
        arrow = rng.choice(options)
        arrows.append(arrow.name)
        at = arrow.target
    return Path(start, tuple(arrows))


def test_search_from_both_ends_agrees_with_one_sided_search(monkeypatch):
    # Identical verdicts wherever the reference hit no state cap and both
    # endpoints fit the length cap; elsewhere a superset of its proofs, each
    # extra one sound on random instances.  Every third schema runs with a
    # state cap of 3, so that capped searches occur.
    rng = random.Random(16)
    same = extra = capped = 0
    for i in range(300):
        make = rand_cyclic_schema if i % 2 else rand_acyclic_schema
        schema = make(rng, f"s{i}")
        graph = schema.graph
        length_cap = rng.choice((2, 3, 4, 6))
        pairs = []
        for _ in range(6):
            start = rng.choice(schema.vertices)
            p, q = (_walk(rng, graph, start, rng.randint(0, 6)) for _ in range(2))
            if path_target(graph, p) == path_target(graph, q):
                pairs.append((p, q))
        instances = [rand_instance(rng, schema) for _ in range(2)]
        with monkeypatch.context() as patch:
            patch.setattr(schemas, "DEFAULT_PATH_LENGTH_CAP", length_cap)
            if i % 3 == 0:
                patch.setattr(schemas, "_MAX_VISITED_STATES", 3)
                patch.setattr(oracles, "_MAX_VISITED_STATES", 3)
            for p, q in pairs:
                for budget in (0, 1, 2, 3, 5, 8, 64):
                    caps_hit: list = []
                    want = _one_sided(schema, p, q, budget, length_cap, caps_hit)
                    got = paths_equivalent(schema, p, q, budget)
                    fits = max(len(p.arrows), len(q.arrows)) <= length_cap
                    if not caps_hit and fits:
                        assert got is want, (schema, p, q, budget, length_cap)
                        same += 1
                        continue
                    capped += bool(caps_hit)
                    if want is Equivalence.EQUIVALENT:
                        assert got is Equivalence.EQUIVALENT, (schema, p, q, budget)
                    elif got is Equivalence.EQUIVALENT:
                        extra += 1
                        for instance in instances:
                            for row in instance.row_set(p.source):
                                assert evaluate_path(instance, p, row) == evaluate_path(
                                    instance, q, row
                                )
    assert same > 1000 and extra > 0 and capped > 0, (same, extra, capped)


def test_search_from_both_ends_expands_far_fewer_paths(monkeypatch):
    # x = x.x.y: every path equal to x starts with x, so x against y.x is a
    # NOT_PROVED search that grows without end on the side of x.
    schema = _schema(
        ("h",), (("x", "h", "h"), ("y", "h", "h")), (("h", ("x",), ("x", "x", "y")),)
    )
    p, q = Path("h", ("x",)), Path("h", ("y", "x"))
    expanded = {"new": 0, "reference": 0}

    def counting(key, generator):
        def counted(*args):
            expanded[key] += 1
            return generator(*args)

        return counted

    monkeypatch.setattr(schemas, "_rewrites", counting("new", schemas._rewrites))
    monkeypatch.setattr(oracles, "_neighbors", counting("reference", oracles._neighbors))
    assert paths_equivalent(schema, p, q, budget=10) is Equivalence.NOT_PROVED
    assert one_sided_search(schema, p, q, 10, 32) is Equivalence.NOT_PROVED
    assert expanded["new"] * 20 <= expanded["reference"], expanded


def test_a_pickled_schema_hashes_as_one_built_under_another_hash_seed(tmp_path):
    """A graph and a schema hash as the tuple of their strings, which holds
    only under one hash seed; loaded under another, each must still be found
    in a set of its equals."""
    src = os.path.dirname(os.path.dirname(schemas.__file__))
    build = (
        "from catmigrate.schemas import Arrow, Graph, Path, PathEquivalence, Schema\n"
        "g = Graph(('Employee', 'Department'), (Arrow('worksIn', 'Employee', 'Department'),"
        " Arrow('mgr', 'Employee', 'Employee')))\n"
        "s = Schema('Company', g, (PathEquivalence(Path('Employee', ('mgr', 'worksIn')),"
        " Path('Employee', ('worksIn',))),))\n"
    )
    pickled = str(tmp_path / "schema.pickle")
    dump = build + f"import pickle; open({pickled!r}, 'wb').write(pickle.dumps((g, s)))\n"
    load = build + (
        f"import pickle; h, t = pickle.loads(open({pickled!r}, 'rb').read())\n"
        "assert (h, t) == (g, s)\n"
        "print(h in {g}, t in {s}, hash(h) == hash(g), hash(t) == hash(s))\n"
    )

    def run(script: str, seed: str) -> str:
        env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=seed)
        return subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
        ).stdout

    run(dump, "1")
    assert run(load, "2").split() == ["True"] * 4
