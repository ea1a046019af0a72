from __future__ import annotations

import dataclasses
import itertools
import random

import pytest

from catmigrate import instances
from catmigrate.errors import (
    EnumerationCapError,
    SchemaMismatchError,
    StructuralError,
    UnknownRowError,
)
from catmigrate.instances import (
    EquationViolation,
    Instance,
    InstanceMorphism,
    compose_morphisms,
    count_morphisms,
    enumerate_morphisms,
    evaluate_path,
    find_isomorphism,
    identity_morphism,
    instance_fiber_product,
    validate_instance,
    validate_morphism,
)
from catmigrate.schemas import Arrow, Graph, Path, Schema

from .generators import (
    damaged,
    rand_acyclic_schema,
    rand_cover,
    rand_cyclic_schema,
    rand_instance,
    shuffled_rows,
)
from .oracles import nested_loop_pairs, row_by_row_validate_instance, slot_search_morphisms


@pytest.fixture(scope="module")
def staff(paper_env):
    return paper_env[("instance", "Staff")]


@pytest.fixture(scope="module")
def emails(paper_env):
    return paper_env[("instance", "Emails")]


def test_evaluate_manager_department(staff):
    assert evaluate_path(staff, Path("Employee", ("Mgr", "isIn")), "101") == "q10"


def test_evaluate_trivial_path_returns_row(staff):
    assert evaluate_path(staff, Path("Employee", ()), "102") == "102"


def test_evaluate_self_email_composite(emails):
    assert evaluate_path(emails, Path("A", ("f", "g")), "SEm1207") == "Carl"


def test_evaluate_unknown_row(staff):
    with pytest.raises(UnknownRowError):
        evaluate_path(staff, Path("Employee", ("Mgr",)), "999")


def test_employee_instance_is_valid(staff):
    assert validate_instance(staff) == []


def test_single_cell_mutation_breaks_equation(staff):
    columns = {a: dict(col) for a, col in staff.columns.items()}
    columns["Mgr"]["101"] = "102"
    mutated = Instance(staff.schema, dict(staff.rows), columns)
    report = validate_instance(mutated)
    violations = [v for v in report if isinstance(v, EquationViolation)]
    assert len(violations) == 1
    v = violations[0]
    assert v.row == "101"
    assert "Mgr.isIn = isIn" in v.equation
    assert v.lhs_value == "x02"
    assert v.rhs_value == "q10"


def test_empty_instance_is_valid(staff):
    assert validate_instance(Instance(staff.schema)) == []


def test_construction_leaves_caller_dicts_alone():
    schema = Schema("S", Graph(("A", "B"), (Arrow("f", "A", "B"),)))
    rows: dict = {}
    columns: dict = {}
    instance = Instance(schema, rows, columns)
    assert rows == {} and columns == {}
    assert instance.row_set("A") == () and instance.column("f") == {}


def test_construction_keeps_no_position_map():
    """The closure and duplicate checks use sets dropped when the
    constructor returns; ``positions`` builds a table's map on first use."""
    schema = Schema("S", Graph(("A", "B"), (Arrow("f", "A", "B"), Arrow("g", "B", "B"))))
    instance = Instance(
        schema,
        {"A": ("a1", "a2"), "B": ("b1", "b2", "b3")},
        {"f": {"a1": "b2", "a2": "b2"}, "g": {"b1": "b1", "b2": "b3", "b3": "b1"}},
    )
    identity_morphism(instance)
    assert instance._positions == {}
    assert instance.positions("B") == {"b1": 0, "b2": 1, "b3": 2}
    assert instance.positions("A") == {"a1": 0, "a2": 1}


def test_caller_list_change_leaves_rows_alone():
    schema = Schema("S", Graph(("A", "B"), (Arrow("f", "A", "B"),)))
    table = ["a", "b"]
    instance = Instance(schema, {"A": table, "B": ["x"]}, {"f": {"a": "x", "b": "x"}})
    assert instance.positions("A") == {"a": 0, "b": 1}
    table.append("c")
    table.remove("a")
    assert instance.row_set("A") == ("a", "b")
    assert instance.positions("A") == {"a": 0, "b": 1}
    assert evaluate_path(instance, Path("A", ("f",)), "a") == "x"


def test_caller_column_change_leaves_columns_alone():
    # a column dict is copied, so the instance's row maps and column loops
    # see the columns it was built with
    schema = Schema("S", Graph(("A", "B"), (Arrow("f", "A", "B"),)))
    column = {"a": "x", "b": "x"}
    instance = Instance(schema, {"A": ("a", "b"), "B": ("x", "y")}, {"f": column})
    column["a"] = "y"
    column["c"] = "x"
    del column["b"]
    assert instance.column("f") == {"a": "x", "b": "x"}
    assert evaluate_path(instance, Path("A", ("f",)), "b") == "x"
    assert validate_instance(instance) == []


def test_rows_and_columns_are_read_only():
    schema = Schema("S", Graph(("A", "B"), (Arrow("f", "A", "B"),)))
    instance = Instance(schema, {"A": ("a",), "B": ("x",)}, {"f": {"a": "x"}})
    with pytest.raises(TypeError):
        instance.rows["A"] = ("a", "b")
    with pytest.raises(TypeError):
        instance.columns["f"] = {}
    with pytest.raises(dataclasses.FrozenInstanceError):
        instance.rows = {"A": ("a", "b")}
    assert instance.row_set("A") == ("a",)


def test_columns_are_read_only_views():
    # a frozen instance's column cannot be changed after its check
    schema = Schema("S", Graph(("A", "B"), (Arrow("f", "A", "B"),)))
    instance = Instance(schema, {"A": ("a",), "B": ("x",)}, {"f": {"a": "x"}})
    with pytest.raises(TypeError):
        instance.column("f")["a"] = "zzz"
    with pytest.raises(TypeError):
        instance.columns["f"]["a"] = "zzz"
    assert instance.column("f") == {"a": "x"}
    assert validate_instance(instance) == []


def test_duplicate_row_rejected():
    schema = Schema("S", Graph(("A", "B"), (Arrow("f", "A", "B"),)))
    with pytest.raises(StructuralError, match="duplicate row 'a' in table 'A'"):
        Instance(schema, {"A": ("a", "b", "a"), "B": ("x",)}, {"f": {"a": "x", "b": "x"}})


def test_dangling_value_reported():
    graph = Graph(("A", "B"), (Arrow("f", "A", "B"),))
    schema = Schema("S", graph)
    with pytest.raises(StructuralError) as err:
        Instance(schema, {"A": ("a",), "B": ("b",)}, {"f": {"a": "zzz"}})
    assert str(err.value) == (
        "column 'f' sends row 'a' to 'zzz', which is not a row of the target table"
    )


@pytest.mark.parametrize("first", ["missing", "dangling"])
def test_instance_names_its_first_faulty_cell_in_table_order(first):
    # a2 and a3 are faulty, one of each kind, and the column lists a3 first:
    # the constructor names a2, the first in table order, with its kind's text
    schema = Schema("S", Graph(("A", "B"), (Arrow("f", "A", "B"),)))
    second = "dangling" if first == "missing" else "missing"
    column = {"a4": "x"}
    for row, kind in (("a3", second), ("a2", first)):
        if kind == "dangling":
            column[row] = "zzz"
    column["a1"] = "x"
    texts = {
        "missing": "row 'a2' has no value for column 'f'",
        "dangling": "column 'f' sends row 'a2' to 'zzz', which is not a row of the target table",
    }
    with pytest.raises(StructuralError) as err:
        Instance(schema, {"A": ("a1", "a2", "a3", "a4"), "B": ("x",)}, {"f": column})
    assert str(err.value) == texts[first]

def test_stray_column_key_rejected():
    schema = Schema("S", Graph(("A", "B"), (Arrow("f", "A", "B"),)))
    with pytest.raises(StructuralError, match="'f' has a value for 'ghost'"):
        Instance(schema, {"A": ("a",), "B": ("x",)}, {"f": {"a": "x", "ghost": "nowhere"}})


def test_validation_matches_the_row_by_row_reference():
    # missing, dangling and moved cells, several to an instance, on schemas
    # with equations: the constructor refuses the reference's first missing
    # or dangling cell with its text, and validation of what it accepts gives
    # the reference's report, item for item, in order.  Half the cases only
    # move cells, as only those reach validation
    rng = random.Random(5323)
    kinds: dict[str, int] = {}
    for case in range(2000):
        schema = rand_acyclic_schema(rng, f"V{case}", max_vertices=4, max_arrows=6, max_equations=3)
        instance = rand_instance(rng, schema, max_rows=4)
        rows, columns = dict(instance.rows), dict(instance.columns)
        if case % 4 == 3:
            rows, columns = damaged(rng, instance, cells=rng.randint(1, 4))
        elif case % 4:
            rows, columns = damaged(rng, instance, cells=rng.randint(1, 4), kinds=("other",))
        want = row_by_row_validate_instance(schema, rows, columns)
        structural = [item for item in want if not isinstance(item, EquationViolation)]
        if structural:
            with pytest.raises(StructuralError) as err:
                Instance(schema, rows, columns)
            assert str(err.value) == structural[0].describe(), case
            want = structural[:1]
        else:
            assert validate_instance(Instance(schema, rows, columns)) == want, case
        for item in want:
            kinds[type(item).__name__] = kinds.get(type(item).__name__, 0) + 1
    assert len(kinds) == 3 and min(kinds.values()) >= 40, kinds


def test_identity_and_composition(staff):
    ident = identity_morphism(staff)
    assert validate_morphism(ident) == []
    assert compose_morphisms(ident, ident).components == ident.components


def test_instances_and_morphisms_compare_by_their_tables_alone():
    schema = Schema("S", Graph(("A", "B"), (Arrow("f", "A", "B"),)))
    rows = {"A": ("a1", "a2"), "B": ("x", "y")}
    inst = Instance(schema, rows, {"f": {"a1": "x", "a2": "y"}})
    # built apart, from a column listing its keys in another order
    same = Instance(schema, {"B": ("x", "y"), "A": ("a1", "a2")}, {"f": {"a2": "y", "a1": "x"}})
    other = Instance(schema, rows, {"f": {"a1": "x", "a2": "x"}})
    assert same is not inst and same == inst and not same != inst
    assert other != inst
    swap = {"A": {"a1": "a2", "a2": "a1"}, "B": {"x": "y", "y": "x"}}
    m = InstanceMorphism(inst, same, swap)
    assert m == InstanceMorphism(same, inst, {v: dict(c) for v, c in swap.items()})
    assert m != identity_morphism(inst)
    assert inst != m and m != inst
    for value in (inst, m):
        with pytest.raises(TypeError):
            hash(value)


def test_compose_accepts_an_equal_middle_built_apart():
    schema = Schema("S", Graph(("A", "B"), (Arrow("f", "A", "B"),)))
    rows, columns = {"A": ("a",), "B": ("x", "y")}, {"f": {"a": "x"}}
    inst, middle, twin = (Instance(schema, rows, columns) for _ in range(3))
    ident = {"A": {"a": "a"}, "B": {"x": "x", "y": "y"}}
    first, then = InstanceMorphism(inst, middle, ident), InstanceMorphism(twin, inst, ident)
    assert middle is not twin
    assert compose_morphisms(first, then) == identity_morphism(inst)
    bigger = Instance(schema, {"A": ("a",), "B": ("x", "y", "z")}, columns)
    into = InstanceMorphism(inst, bigger, ident)
    with pytest.raises(SchemaMismatchError, match="middle instances differ"):
        compose_morphisms(into, then)

def test_naturality_violation_detected(staff):
    components = {v: {r: r for r in staff.row_set(v)} for v in staff.schema.vertices}
    components["Department"]["q10"] = "x02"
    broken = InstanceMorphism(staff, staff, components)
    report = validate_morphism(broken)
    assert any(item.describe().startswith("naturality fails") for item in report)


def test_caller_component_change_leaves_the_morphism_alone(staff):
    components = {v: {r: r for r in staff.row_set(v)} for v in staff.schema.vertices}
    m = InstanceMorphism(staff, staff, components)
    components["Department"]["q10"] = "x02"
    components["Employee"].clear()
    del components["Department"]
    assert m.component("Department")["q10"] == "q10"
    assert m.component("Employee") == {r: r for r in staff.row_set("Employee")}
    assert m == identity_morphism(staff)
    assert validate_morphism(m) == []
    with pytest.raises(TypeError):
        m.component("Department")["q10"] = "x02"


def test_morphism_faults_rejected_at_construction():
    schema = Schema("S", Graph(("A", "B"), (Arrow("f", "A", "B"),)))
    instance = Instance(schema, {"A": ("a",), "B": ("x",)}, {"f": {"a": "x"}})
    with pytest.raises(StructuralError, match="no component value for row 'a' at vertex 'A'"):
        InstanceMorphism(instance, instance, {"B": {"x": "x"}})
    with pytest.raises(StructuralError, match="sends 'a' to 'zz', which is not a target row"):
        InstanceMorphism(instance, instance, {"A": {"a": "zz"}, "B": {"x": "x"}})
    with pytest.raises(StructuralError, match="'ghost', which is not a source row"):
        InstanceMorphism(instance, instance, {"A": {"a": "a", "ghost": "a"}, "B": {"x": "x"}})
    with pytest.raises(StructuralError, match="unknown vertex 'Q'"):
        InstanceMorphism(instance, instance, {"A": {"a": "a"}, "B": {"x": "x"}, "Q": {}})
    other = Instance(Schema("S2", schema.graph), dict(instance.rows), dict(instance.columns))
    with pytest.raises(SchemaMismatchError):
        InstanceMorphism(instance, other, {"A": {"a": "a"}, "B": {"x": "x"}})


# -- fiber products ----------------------------------------------------------


def _two_table_schema():
    return Schema("S", Graph(("A", "B"), (Arrow("f", "A", "B"),)))


def _instance(schema, a_rows, b_rows, f):
    return Instance(
        schema,
        {"A": tuple(a_rows), "B": tuple(b_rows)},
        {"f": dict(f)},
    )


def test_fiber_product_of_identities_is_diagonal(staff):
    ident = identity_morphism(staff)
    product, p1, p2 = instance_fiber_product(ident, ident)
    assert validate_morphism(p1) == [] and validate_morphism(p2) == []
    for v in staff.schema.vertices:
        assert len(product.row_set(v)) == len(staff.row_set(v))
    iso = find_isomorphism(product, staff)
    assert iso is not None


def test_fiber_product_pullback_of_mono_is_subinstance():
    schema = _two_table_schema()
    big = _instance(schema, ["a1", "a2", "a3"], ["b"], {"a1": "b", "a2": "b", "a3": "b"})
    small = _instance(schema, ["a1", "a2"], ["b"], {"a1": "b", "a2": "b"})
    include = InstanceMorphism(
        small, big, {"A": {"a1": "a1", "a2": "a2"}, "B": {"b": "b"}}
    )
    product, p1, p2 = instance_fiber_product(include, identity_morphism(big))
    assert len(product.row_set("A")) == 2
    image = {p2.component("A")[r] for r in product.row_set("A")}
    assert image == {"a1", "a2"}


def test_fiber_product_overlap_intersection():
    # two 2-row subinstances of a 3-row instance overlapping in 1 row;
    # expected rows computed by enumerating pairs and filtering equality
    schema = _two_table_schema()
    big = _instance(schema, ["a1", "a2", "a3"], ["b"], {"a1": "b", "a2": "b", "a3": "b"})
    left = _instance(schema, ["a1", "a2"], ["b"], {"a1": "b", "a2": "b"})
    right = _instance(schema, ["a2", "a3"], ["b"], {"a2": "b", "a3": "b"})
    f = InstanceMorphism(left, big, {"A": {"a1": "a1", "a2": "a2"}, "B": {"b": "b"}})
    g = InstanceMorphism(right, big, {"A": {"a2": "a2", "a3": "a3"}, "B": {"b": "b"}})
    expected_pairs = [
        (x, y)
        for x in left.row_set("A")
        for y in right.row_set("A")
        if f.component("A")[x] == g.component("A")[y]
    ]
    assert expected_pairs == [("a2", "a2")]
    product, p1, p2 = instance_fiber_product(f, g)
    assert len(product.row_set("A")) == 1
    row = product.row_set("A")[0]
    assert (p1.component("A")[row], p2.component("A")[row]) == ("a2", "a2")


def test_fiber_product_universal_property_small_random():
    # every cone over (f, g) factors uniquely through the fiber product
    rng = random.Random(7)
    for case in range(25):
        schema = rand_acyclic_schema(rng, f"s{case}", max_vertices=2, max_arrows=2)
        base = rand_instance(rng, schema, max_rows=2)
        legs = []
        for _ in range(2):
            cand = rand_instance(rng, schema, max_rows=2)
            found = None
            for m in enumerate_morphisms(cand, base):
                found = m
                break
            if found is None:
                break
            legs.append(found)
        if len(legs) < 2:
            continue
        f, g = legs
        product, p1, p2 = instance_fiber_product(f, g)
        assert validate_morphism(p1) == [] and validate_morphism(p2) == []
        apex = rand_instance(rng, schema, max_rows=2)
        for h in enumerate_morphisms(apex, f.source):
            for k in enumerate_morphisms(apex, g.source):
                hf = compose_morphisms(h, f)
                kg = compose_morphisms(k, g)
                if any(
                    hf.component(v) != kg.component(v) for v in schema.vertices
                ):
                    continue
                mediating = [
                    m
                    for m in enumerate_morphisms(apex, product)
                    if all(
                        compose_morphisms(m, p1).component(v) == h.component(v)
                        and compose_morphisms(m, p2).component(v) == k.component(v)
                        for v in schema.vertices
                    )
                ]
                assert len(mediating) == 1


def test_fiber_product_hash_join_keeps_nested_loop_order(monkeypatch):
    rng = random.Random(404)
    for case in range(120):
        make = rand_cyclic_schema if case % 3 == 0 else rand_acyclic_schema
        schema = make(rng, f"fp{case}", max_vertices=3, max_arrows=4)
        base = rand_instance(rng, schema, max_rows=4)
        f = rand_cover(rng, base, max_copies=rng.randint(1, 3), tag="a")
        g = rand_cover(rng, base, max_copies=rng.randint(1, 3), tag="b")
        got = instance_fiber_product(f, g)
        with monkeypatch.context() as patch:
            patch.setattr(instances, "equal_image_pairs", nested_loop_pairs)
            want = instance_fiber_product(f, g)
        product, left, right = got
        assert list(product.rows.items()) == list(want[0].rows.items()), f"case {case}"
        for a in schema.arrows:
            assert list(product.column(a.name).items()) == list(
                want[0].column(a.name).items()
            ), f"case {case}: column {a.name!r}"
        for mine, theirs in ((left, want[1]), (right, want[2])):
            for v in schema.vertices:
                assert list(mine.component(v).items()) == list(
                    theirs.component(v).items()
                ), f"case {case}: projection at {v!r}"


def test_fiber_product_schema_mismatch():
    schema = _two_table_schema()
    other = Schema("S2", Graph(("A",), ()))
    i1 = _instance(schema, ["a"], ["b"], {"a": "b"})
    i2 = Instance(other, {"A": ("a",)}, {})
    with pytest.raises(SchemaMismatchError):
        instance_fiber_product(identity_morphism(i1), identity_morphism(i2))


# -- morphism search ----------------------------------------------------------


def test_count_matches_enumeration_on_random_instances():
    rng = random.Random(21)
    for case in range(30):
        schema = rand_acyclic_schema(rng, f"s{case}", max_vertices=3, max_arrows=3)
        source = rand_instance(rng, schema)
        target = rand_instance(rng, schema)
        enumerated = sum(1 for _ in enumerate_morphisms(source, target))
        assert count_morphisms(source, target) == enumerated


def test_find_isomorphism_respects_columns():
    schema = _two_table_schema()
    # two rows with different images: the only isomorphism is the swap
    left = _instance(schema, ["a1", "a2"], ["b1", "b2"], {"a1": "b1", "a2": "b2"})
    right = _instance(schema, ["x2", "x1"], ["y2", "y1"], {"x1": "y1", "x2": "y2"})
    iso = find_isomorphism(left, right)
    assert iso is not None
    assert iso.component("B")[left.column("f")["a1"]] == right.column("f")[
        iso.component("A")["a1"]
    ]
    # no isomorphism when structure differs
    collapsed = _instance(schema, ["x1", "x2"], ["y1", "y2"], {"x1": "y1", "x2": "y1"})
    assert find_isomorphism(left, collapsed) is None


def _components(m):
    return [list(m.component(v).items()) for v in m.source.schema.vertices]


def _first_injective(morphisms):
    for m in morphisms:
        if all(
            len(set(m.component(v).values())) == len(m.component(v))
            for v in m.source.schema.vertices
        ):
            return m
    return None


def test_morphism_search_keeps_slot_search_order():
    # against ``a`` itself and against a random ``b``, each with its rows
    # shuffled so that row position and row id disagree
    rng = random.Random(606)
    for case in range(240):
        make = rand_cyclic_schema if case % 2 else rand_acyclic_schema
        schema = make(rng, f"ms{case}", max_vertices=3, max_arrows=4)
        a = rand_instance(rng, schema)
        for b in (shuffled_rows(rng, a), shuffled_rows(rng, rand_instance(rng, schema))):
            want = list(slot_search_morphisms(a, b))
            got = list(enumerate_morphisms(a, b))
            assert [_components(m) for m in got] == [_components(m) for m in want], case
            assert count_morphisms(a, b) == len(want), case
            same_sizes = all(len(a.row_set(v)) == len(b.row_set(v)) for v in schema.vertices)
            iso = find_isomorphism(a, b)
            ref = _first_injective(want) if same_sizes else None
            assert (iso and _components(iso)) == (ref and _components(ref)), case


def test_loop_fixing_a_row_constrains_the_morphism_search():
    # ``a`` fixes q0 and q2, so a natural map sends them to fixed rows: 5 of
    # the 15 maps that respect the other column values
    schema = Schema("Loop", Graph(("P", "Q"), (Arrow("a", "Q", "Q"), Arrow("f", "P", "Q"))))
    inst = Instance(
        schema,
        {"P": ("p0", "p1", "p2"), "Q": ("q0", "q1", "q2")},
        {"a": {"q0": "q0", "q1": "q0", "q2": "q2"}, "f": {"p0": "q1", "p1": "q2", "p2": "q1"}},
    )
    morphisms = list(enumerate_morphisms(inst, inst))
    assert len(morphisms) == count_morphisms(inst, inst) == 5
    assert all(validate_morphism(m) == [] for m in morphisms)


def _bare_table(rows: int) -> Instance:
    return Instance(Schema("Bare", Graph(("A",), ())), {"A": tuple(f"r{i}" for i in range(rows))})


def test_count_morphisms_cap_on_the_exact_power():
    # a row with no column is a component with no constraint: it is not
    # searched, so no cap is reached, however large the count
    assert count_morphisms(_bare_table(3), _bare_table(3), cap=1) == 27
    assert count_morphisms(_bare_table(40), _bare_table(50), cap=1) == 50**40
    assert count_morphisms(_bare_table(2), _bare_table(0), cap=1) == 0


def test_count_morphisms_factors_over_the_element_diagram():
    # A -f-> B is one connected schema, but its element diagram here has four
    # components: (a_i, b_i) for each i, searched at 4 rows tried and 4
    # morphisms each, and the lone b4, free to go to either y.
    schema = _two_table_schema()
    source = _instance(
        schema,
        ["a1", "a2", "a3"],
        ["b1", "b2", "b3", "b4"],
        {"a1": "b1", "a2": "b2", "a3": "b3"},
    )
    target = _instance(
        schema,
        ["x1", "x2", "x3", "x4"],
        ["y1", "y2"],
        {"x1": "y1", "x2": "y1", "x3": "y2", "x4": "y2"},
    )
    assert count_morphisms(source, target, cap=4) == 4**3 * 2
    assert count_morphisms(source, target) == sum(1 for _ in enumerate_morphisms(source, target))
    with pytest.raises(EnumerationCapError):
        count_morphisms(source, target, cap=3)


def test_count_morphisms_cap_on_a_searched_component():
    schema = _two_table_schema()
    source = _instance(schema, ["a1", "a2", "a3"], ["b"], {r: "b" for r in ("a1", "a2", "a3")})
    target = _instance(schema, ["x1", "x2", "x3"], ["y"], {r: "y" for r in ("x1", "x2", "x3")})
    assert count_morphisms(source, target) == 27
    with pytest.raises(EnumerationCapError):
        count_morphisms(source, target, cap=26)
    # the cap also bounds the rows tried: finding 27 morphisms tries more
    with pytest.raises(EnumerationCapError):
        count_morphisms(source, target, cap=30)


def _joined_count(source: Instance, target: Instance, cap: int) -> int:
    """The count as the join's own yield on each part of the element
    diagram, each part at work cap ``cap``; or the first part's cap error."""
    total = 1
    for comps, constraints in instances._connected_parts(*instances._element_diagram(source)):
        if constraints:
            total *= sum(1 for _ in instances.assignments(target, comps, constraints, work_cap=cap))
        else:
            total *= len(target.rows[comps[0][0]])
    return total


def test_count_walk_matches_enumeration_and_the_joins_cap():
    rng = random.Random(4242)
    zeros = free_rows = capped = 0
    for case in range(300):
        make = rand_cyclic_schema if case % 2 else rand_acyclic_schema
        schema = make(rng, f"cw{case}", max_vertices=3, max_arrows=4)
        source = rand_instance(rng, schema)
        target = shuffled_rows(rng, rand_instance(rng, schema))
        count = count_morphisms(source, target)
        assert count == sum(1 for _ in enumerate_morphisms(source, target)), case
        zeros += count == 0
        parts = instances._connected_parts(*instances._element_diagram(source))
        free_rows += any(not constraints for _, constraints in parts)
        for cap in range(0, 40, 3):
            try:
                want = _joined_count(source, target, cap)
            except EnumerationCapError as error:
                with pytest.raises(EnumerationCapError) as got:
                    count_morphisms(source, target, cap)
                assert str(got.value) == str(error), (case, cap)
                capped += 1
            else:
                assert count_morphisms(source, target, cap) == want, (case, cap)
    assert zeros and free_rows and capped > 100, (zeros, free_rows, capped)


def test_enumerate_morphisms_yields_in_order_as_asked():
    every = list(enumerate_morphisms(_bare_table(2), _bare_table(3)))
    assert len(every) == 9
    search = enumerate_morphisms(_bare_table(2), _bare_table(3))
    assert [_components(next(search)) for _ in range(4)] == [_components(m) for m in every[:4]]


def test_find_isomorphism_prunes_collapsed_column_within_work_cap():
    # without pruning rows while it searches, the search would try 8**8 maps
    schema = _two_table_schema()
    a_rows = [f"a{i}" for i in range(8)]
    b_rows = [f"b{i}" for i in range(8)]
    source = _instance(schema, a_rows, b_rows, {f"a{i}": f"b{i}" for i in range(8)})
    collapsed = _instance(schema, a_rows, b_rows, {r: "b0" for r in a_rows})
    assert find_isomorphism(source, collapsed) is None
    mirrored = _instance(schema, a_rows, b_rows, {f"a{i}": f"b{7 - i}" for i in range(8)})
    iso = find_isomorphism(source, mirrored)
    assert iso is not None and validate_morphism(iso) == []


def test_find_isomorphism_work_cap_raises(monkeypatch):
    schema = _two_table_schema()
    left = _instance(schema, ["a1", "a2"], ["b1", "b2"], {"a1": "b1", "a2": "b2"})
    monkeypatch.setattr(instances, "DEFAULT_ISOMORPHISM_WORK_CAP", 1)
    with pytest.raises(EnumerationCapError):
        find_isomorphism(left, left)


def test_evaluate_respects_composition():
    from catmigrate.schemas import compose_paths

    rng = random.Random(41)
    for case in range(20):
        schema = rand_acyclic_schema(rng, f"s{case}")
        instance = rand_instance(rng, schema)
        for v in schema.vertices:
            for p_len in (0, 1, 2):
                # sample a composable pair of paths from v by random walking
                at, left = v, []
                for _ in range(p_len):
                    options = schema.graph.out_arrows(at)
                    if not options:
                        break
                    arrow = rng.choice(options)
                    left.append(arrow.name)
                    at = arrow.target
                mid, right = at, []
                for _ in range(2):
                    options = schema.graph.out_arrows(mid)
                    if not options:
                        break
                    arrow = rng.choice(options)
                    right.append(arrow.name)
                    mid = arrow.target
                p = Path(v, tuple(left))
                q = Path(at, tuple(right))
                composite = compose_paths(schema.graph, p, q)
                for row in instance.row_set(v):
                    assert evaluate_path(instance, composite, row) == evaluate_path(
                        instance, q, evaluate_path(instance, p, row)
                    )
