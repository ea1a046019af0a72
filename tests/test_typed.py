from __future__ import annotations

import random
import re

import pytest

from catmigrate import instances
from catmigrate.errors import EnumerationCapError, StructuralError, TypeChangeError
from catmigrate.instances import (
    Instance,
    InstanceMorphism,
    compose_morphisms,
    count_morphisms,
    find_isomorphism,
    identity_morphism,
    validate_instance,
    validate_morphism,
)
from catmigrate.migration import pi_full
from catmigrate.schemas import Arrow, Graph, Path, Schema
from catmigrate.typed import (
    TypedInstance,
    TypingAuxiliary,
    count_typed_morphisms,
    implied_typing_instance,
    typechange_delta,
    typechange_pi,
    typechange_sigma,
    validate_typed,
)

from .generators import (
    rand_acyclic_schema,
    rand_cover,
    rand_cyclic_schema,
    rand_instance,
    rand_pi_hat_input,
)
from .oracles import (
    PiOracle,
    enumerate_typed_morphisms,
    nested_loop_pairs,
    pairwise_delta_hat,
    sectionwise_typechange_pi,
)


@pytest.fixture(scope="module")
def typed_contracts(paper_env):
    return paper_env[("typedinstance", "TypedContracts")]


@pytest.fixture(scope="module")
def threshold(paper_env):
    return paper_env[("morphism", "threshold")]


# -- the times-50 example -----------------------------------------------------


def test_typed_contracts_validate(typed_contracts):
    assert validate_typed(typed_contracts) == []


def test_dollar_mutation_breaks_naturality(typed_contracts):
    # repoint the d cell of CtrX13 at the $201 row; typing no longer commutes
    instance = typed_contracts.instance
    columns = {a: dict(col) for a, col in instance.columns.items()}
    columns["d"]["CtrX13"] = "$201"
    mutated = Instance(instance.schema, dict(instance.rows), columns)
    typing = InstanceMorphism(
        mutated, typed_contracts.typing_instance, typed_contracts.typing.components
    )
    report = validate_typed(TypedInstance(typing))
    assert any(
        item.describe().startswith("naturality fails for arrow 'd' on row 'CtrX13'")
        for item in report
    )


def test_implied_typing_instance_is_multiplication_by_50(paper_env):
    aux = TypingAuxiliary(
        paper_env[("schema", "Bridge")],
        paper_env[("instance", "Values")],
        paper_env[("translation", "Attach")],
    )
    implied = implied_typing_instance(aux)
    assert validate_instance(implied) == []
    # Y and Z keep their value ranges verbatim; X holds the graph of the rate
    assert implied.row_set("Y") == tuple(str(i) for i in range(11))
    assert set(implied.row_set("Z")) == set(paper_env[("instance", "Values")].row_set("Zp"))
    assert len(implied.row_set("X")) == 11
    for i in range(11):
        assert implied.column("r")[str(i)] == f"${50 * i}"
    for row in implied.row_set("X"):
        hours = implied.column("t")[row]
        assert implied.column("d")[row] == f"${50 * int(hours)}"
    # and it is isomorphic to the hand-declared typing instance P
    assert find_isomorphism(implied, paper_env[("instance", "P")]) is not None


def test_implied_typing_identity_attachment(paper_env):
    values = paper_env[("instance", "Values")]
    from catmigrate.migration import identity_translation

    aux = TypingAuxiliary(values.schema, values, identity_translation(values.schema))
    assert implied_typing_instance(aux) == values


def test_threshold_retyping(typed_contracts, threshold):
    retyped = typechange_sigma(threshold, typed_contracts)
    assert retyped.instance == typed_contracts.instance
    assert validate_typed(retyped) == []
    instance = retyped.instance
    typing_z = retyped.typing.component("Z")
    debts = [
        typing_z[instance.column("d")[row]] for row in ("CtrX13", "CtrX14", "CtrX15")
    ]
    assert debts == ["True", "True", "False"]


def test_sigma_hat_identity_and_constant(typed_contracts):
    ident = identity_morphism(typed_contracts.typing_instance)
    same = typechange_sigma(ident, typed_contracts)
    assert same.instance == typed_contracts.instance
    assert same.typing.components == typed_contracts.typing.components


# -- filtering ------------------------------------------------------------------


def test_salary_filter_returns_low_earners(paper_env):
    typed_staff = paper_env[("typedinstance", "TypedStaff")]
    below = paper_env[("morphism", "below100")]
    filtered = typechange_delta(below, typed_staff)
    assert validate_typed(filtered) == []
    instance = filtered.instance
    assert instance.row_set("Employee") == ("Em101", "Em104", "Em105")
    names = {instance.column("name")[r] for r in instance.row_set("Employee")}
    assert names == {"Smith", "Lee", "Carlsson"}
    assert set(instance.row_set("Salary")) == {"$65", "$90", "$80"}
    assert instance.row_set("Name") == typed_staff.instance.row_set("Name")


def test_delta_hat_identity_keeps_instance(paper_env):
    typed_staff = paper_env[("typedinstance", "TypedStaff")]
    ident = identity_morphism(typed_staff.typing_instance)
    same = typechange_delta(ident, typed_staff)
    assert same.instance == typed_staff.instance


def test_delta_hat_empty_source_empties_instance(paper_env):
    typed_staff = paper_env[("typedinstance", "TypedStaff")]
    q = typed_staff.typing_instance
    nothing = Instance(q.schema)
    empty_k = InstanceMorphism(nothing, q, {v: {} for v in q.schema.vertices})
    emptied = typechange_delta(empty_k, typed_staff)
    assert emptied.instance.total_rows() == 0


def _delta_hat_cases():
    """120 random (case, schema, k, t); every other k is injective, which
    keeps the typed rows' own ids.  Then one duplicating case whose ids spell
    a pair, a ``uniquify`` suffix and the escape character: the pair ids are
    distinct as they stand (an ``Instance`` refuses a repeated row)."""
    rng = random.Random(505)
    for case in range(120):
        make = rand_cyclic_schema if case % 3 == 0 else rand_acyclic_schema
        schema = make(rng, f"dh{case}", max_vertices=3, max_arrows=4)
        types = rand_instance(rng, schema, max_rows=4)
        t = TypedInstance(rand_cover(rng, types, max_copies=3, tag="x"))
        k = rand_cover(rng, types, max_copies=1 + case % 2, tag="p")
        yield case, schema, k, t
    schema = Schema("Loop", Graph(("A",), (Arrow("s", "A", "A"),)))
    q = Instance(schema, {"A": ("q",)}, {"s": {"q": "q"}})
    p_rows = ("(a", "b)", "x#2", "%")
    p = Instance(schema, {"A": p_rows}, {"s": dict(zip(p_rows, p_rows[1:] + p_rows[:1]))})
    k = InstanceMorphism(p, q, {"A": dict.fromkeys(p_rows, "q")})
    x_rows = ("(a,b)", "x#2", "%", "x", "a", "(x,x#2)")
    x = Instance(schema, {"A": x_rows}, {"s": dict(zip(x_rows, reversed(x_rows)))})
    yield "adversarial", schema, k, TypedInstance(
        InstanceMorphism(x, q, {"A": dict.fromkeys(x_rows, "q")})
    )


def _assert_same_typed(got: TypedInstance, want: TypedInstance, schema, case) -> None:
    """Equal rows, columns and typing, each in the same order."""
    got, want = got.typing, want.typing
    assert list(got.source.rows.items()) == list(want.source.rows.items()), f"case {case}"
    for a in schema.arrows:
        assert list(got.source.column(a.name).items()) == list(
            want.source.column(a.name).items()
        ), f"case {case}: column {a.name!r}"
    for v in schema.vertices:
        assert list(got.component(v).items()) == list(
            want.component(v).items()
        ), f"case {case}: typing at {v!r}"


def test_delta_hat_hash_join_keeps_nested_loop_order(monkeypatch):
    for case, schema, k, t in _delta_hat_cases():
        got = typechange_delta(k, t)
        with monkeypatch.context() as patch:
            patch.setattr(instances, "equal_image_pairs", nested_loop_pairs)
            want = typechange_delta(k, t)
        _assert_same_typed(got, want, schema, case)


def test_delta_hat_matches_pairwise_construction():
    # the fiber product (duplicating k) and the filter (injective k) against
    # the construction that pairs every typed row with every row of k's source
    for case, schema, k, t in _delta_hat_cases():
        _assert_same_typed(typechange_delta(k, t), pairwise_delta_hat(k, t), schema, case)


def test_delta_hat_noninjective_duplicates(paper_env):
    # folding two typing rows onto one duplicates the rows typed by the image
    schema = Schema("One", Graph(("A",), ()))
    p = Instance(schema, {"A": ("p1", "p2")}, {})
    q = Instance(schema, {"A": ("q1",)}, {})
    fold = InstanceMorphism(p, q, {"A": {"p1": "q1", "p2": "q1"}})
    data = Instance(schema, {"A": ("x", "y")}, {})
    typed = TypedInstance(InstanceMorphism(data, q, {"A": {"x": "q1", "y": "q1"}}))
    doubled = typechange_delta(fold, typed)
    assert len(doubled.instance.row_set("A")) == 4
    assert validate_typed(doubled) == []


@pytest.mark.parametrize("p_rows", [("p",), ("p1", "p2")], ids=["filter", "fiber-product"])
def test_delta_hat_refuses_a_typing_that_is_not_natural(p_rows):
    # the loop f sends x to y, but x is typed q and y is typed r, and Q's f
    # fixes both: the typing is not natural at f on x.  k sends P onto q, so
    # x is kept and y is not; the filter used to leave f dangling, and the
    # fiber product raised a bare KeyError
    schema = Schema("Loop", Graph(("X",), (Arrow("f", "X", "X"),)))
    q = Instance(schema, {"X": ("q", "r")}, {"f": {"q": "q", "r": "r"}})
    p = Instance(schema, {"X": p_rows}, {"f": {row: row for row in p_rows}})
    k = InstanceMorphism(p, q, {"X": dict.fromkeys(p_rows, "q")})
    x = Instance(schema, {"X": ("x", "y")}, {"f": {"x": "y", "y": "y"}})
    t = TypedInstance(InstanceMorphism(x, q, {"X": {"x": "q", "y": "r"}}))
    p0 = p_rows[0]
    message = (
        f"arrow 'f' sends 'x' to 'y' and {p0!r} to {p0!r}, "
        "which lie over different rows: a leg is not natural"
    )
    with pytest.raises(StructuralError, match=re.escape(message)):
        typechange_delta(k, t)



@pytest.mark.parametrize("seed", [44, 45])
def test_sigma_hat_refuses_a_k_that_is_not_natural(seed):
    # on these noise-0 draws t is natural and k is not, and composing the
    # typing with k gives one that is not natural either
    k, t = rand_pi_hat_input(random.Random(seed))
    assert validate_typed(t) == []
    assert validate_morphism(k) != []
    assert validate_morphism(compose_morphisms(t.typing, k)) != []
    with pytest.raises(StructuralError, match="^k is not natural: naturality fails for arrow"):
        typechange_sigma(k, t)

def test_filtering_auxiliary_implied_instance(paper_env):
    # the bridge holding only the sub-$100 salaries induces: Employee rows are
    # salary choices, Name collapses to a point, Salary keeps the range
    aux = TypingAuxiliary(
        paper_env[("schema", "SalaryOnly")],
        paper_env[("instance", "SubValues")],
        paper_env[("translation", "AttachSalary")],
    )
    implied = implied_typing_instance(aux)
    assert validate_instance(implied) == []
    assert len(implied.row_set("Employee")) == 3
    assert len(implied.row_set("Name")) == 1
    assert set(implied.row_set("Salary")) == {"$65", "$80", "$90"}
    # agreement with the brute-force comma oracle
    oracle = PiOracle(
        paper_env[("translation", "AttachSalary")],
        paper_env[("instance", "SubValues")],
    )
    for vertex in ("Employee", "Name", "Salary"):
        assert len(implied.row_set(vertex)) == len(oracle.families_at[vertex])


# -- group satisfaction ------------------------------------------------------------


def test_group_satisfaction_table(paper_env):
    typed_items = paper_env[("typedinstance", "TypedItems")]
    grouping = paper_env[("morphism", "grouping")]
    result = typechange_pi(grouping, typed_items)
    assert validate_typed(result) == []
    instance = result.instance
    assert instance.row_set("L") == (
        "(a,b)",
        "(a,e)",
        "(a,g)",
        "(c,b)",
        "(c,e)",
        "(c,g)",
        "(d,f)",
    )
    typing_l = result.typing.component("L")
    assert [typing_l[r] for r in instance.row_set("L")] == ["x"] * 6 + ["y"]
    # fiber cardinalities multiply: |sections over x| = 2 * 3, over y = 1 * 1
    assert sum(1 for r in instance.row_set("L") if typing_l[r] == "x") == 2 * 3
    assert sum(1 for r in instance.row_set("L") if typing_l[r] == "y") == 1 * 1


def test_empty_item_fiber_empties_the_group(paper_env):
    # take away person 4's item: group y has no joint offering
    typed_items = paper_env[("typedinstance", "TypedItems")]
    grouping = paper_env[("morphism", "grouping")]
    instance = typed_items.instance
    rows = {v: instance.row_set(v) for v in instance.schema.vertices}
    rows["L"] = tuple(r for r in rows["L"] if r != "f")
    columns = {"f": {r: "m0" for r in rows["L"]}}
    smaller = Instance(instance.schema, rows, columns)
    tau = {
        "L": {r: typed_items.typing.component("L")[r] for r in rows["L"]},
        "M": dict(typed_items.typing.component("M")),
    }
    typed = TypedInstance(
        InstanceMorphism(smaller, typed_items.typing_instance, tau)
    )
    result = typechange_pi(grouping, typed)
    typing_l = result.typing.component("L")
    assert sum(1 for r in result.instance.row_set("L") if typing_l[r] == "y") == 0
    assert sum(1 for r in result.instance.row_set("L") if typing_l[r] == "x") == 6


def test_pi_hat_bijective_k_is_isomorphism(paper_env):
    typed_items = paper_env[("typedinstance", "TypedItems")]
    ident = identity_morphism(typed_items.typing_instance)
    result = typechange_pi(ident, typed_items)
    assert find_isomorphism(result.instance, typed_items.instance) is not None


# -- slice adjunctions at desk scale -------------------------------------------------


def _point_schema():
    return Schema("Pt", Graph(("A",), ()))


def _typed(schema, rows, typing_rows, tau):
    instance = Instance(schema, {"A": tuple(rows)}, {})
    typing_instance = Instance(schema, {"A": tuple(typing_rows)}, {})
    return TypedInstance(
        InstanceMorphism(instance, typing_instance, {"A": dict(tau)})
    )


def test_slice_adjunctions_by_enumeration():
    schema = _point_schema()
    p_rows = ("p1", "p2", "p3")
    q_rows = ("q1", "q2")
    p = Instance(schema, {"A": p_rows}, {})
    q = Instance(schema, {"A": q_rows}, {})
    k = InstanceMorphism(p, q, {"A": {"p1": "q1", "p2": "q1", "p3": "q2"}})

    t = _typed(schema, ("x1", "x2", "x3"), p_rows, {"x1": "p1", "x2": "p2", "x3": "p1"})
    t = TypedInstance(InstanceMorphism(t.instance, p, t.typing.components))
    u = _typed(schema, ("y1", "y2"), q_rows, {"y1": "q1", "y2": "q2"})
    u = TypedInstance(InstanceMorphism(u.instance, q, u.typing.components))

    # sigma-hat -| delta-hat
    left = count_typed_morphisms(typechange_sigma(k, t), u)
    right = count_typed_morphisms(t, typechange_delta(k, u))
    assert left == right and left > 0

    # delta-hat -| pi-hat
    t2 = _typed(schema, ("z1", "z2"), p_rows, {"z1": "p1", "z2": "p3"})
    t2 = TypedInstance(InstanceMorphism(t2.instance, p, t2.typing.components))
    left2 = count_typed_morphisms(typechange_delta(k, u), t2)
    right2 = count_typed_morphisms(u, typechange_pi(k, t2))
    assert left2 == right2


# -- typed hom-sets on the category of elements --------------------------------


def test_typed_endomorphisms_of_the_grouped_items(paper_env):
    typed_items = paper_env[("typedinstance", "TypedItems")]
    assert count_typed_morphisms(typed_items, typed_items) == 108


def _natural_draws():
    """``(seed, k, t)`` for the noise-0 ``rand_pi_hat_input`` draws whose k
    and typing are both natural."""
    for seed in range(200):
        k, t = rand_pi_hat_input(random.Random(seed))
        if not validate_morphism(k) and not validate_typed(t):
            yield seed, k, t


def _within(count, *args, cap: int = 2_000):
    """``count(*args, cap=cap)``, or None where a component's search tries
    more than ``cap`` rows."""
    try:
        return count(*args, cap=cap)
    except EnumerationCapError:
        return None


def test_typed_homsets_match_enumerate_and_filter():
    # t against u = delta-hat sigma-hat t, both ways; the reference walks the
    # plain hom-set, so a pair is compared only where that has at most 20 000
    # morphisms and counting it tries at most 2 000 rows per component
    sizes = {"zero": 0, "one": 0, "more": 0}
    for seed, k, t in _natural_draws():
        u = typechange_delta(k, typechange_sigma(k, t))
        for a, b in ((t, t), (t, u), (u, t), (u, u)):
            plain = _within(count_morphisms, a.instance, b.instance)
            if plain is None or plain > 20_000:
                continue
            want = sum(1 for _ in enumerate_typed_morphisms(a, b))
            assert count_typed_morphisms(a, b) == want, seed
            sizes[("zero", "one", "more")[min(want, 2)]] += 1
    assert sum(sizes.values()) >= 200 and min(sizes.values()) >= 10, sizes


def test_slice_adjunctions_on_schemas_with_arrows():
    # sigma-hat -| delta-hat at (t, sigma-hat t), delta-hat -| pi-hat at
    # (sigma-hat t, t); a check is skipped where pi-hat is undefined or a
    # count tries more than 2 000 rows in one component
    checked = {"sigma-delta": 0, "delta-pi": 0}
    for seed, k, t in _natural_draws():
        s = typechange_sigma(k, t)
        u = typechange_delta(k, s)
        left = _within(count_typed_morphisms, s, s)
        right = _within(count_typed_morphisms, t, u)
        if left is not None and right is not None:
            assert left == right, seed
            checked["sigma-delta"] += 1
        try:
            product = typechange_pi(k, t)
        except TypeChangeError:
            continue
        left = _within(count_typed_morphisms, u, t)
        right = _within(count_typed_morphisms, s, product)
        if left is not None and right is not None:
            assert left == right, seed
            checked["delta-pi"] += 1
    assert min(checked.values()) >= 60, checked


def test_typed_homsets_refuse_typings_that_are_not_natural():
    # even at noise 0 a draw can be ill-typed: an empty pool falls back to
    # any row.  The empty instance typed over P is natural, so it isolates
    # each end's check
    refused = 0
    for seed in range(200):
        k, t = rand_pi_hat_input(random.Random(seed))
        if not validate_typed(t):
            continue
        P = t.typing_instance
        empty = TypedInstance(InstanceMorphism(Instance(P.schema), P, {}))
        with pytest.raises(StructuralError, match="^typing of the source is not natural"):
            count_typed_morphisms(t, empty)
        with pytest.raises(StructuralError, match="^typing of the target is not natural"):
            count_typed_morphisms(empty, t)
        refused += 1
    assert refused >= 50, refused


def test_pi_hat_fiber_product_of_cardinalities():
    schema = _point_schema()
    p = Instance(schema, {"A": ("p1", "p2")}, {})
    q = Instance(schema, {"A": ("q1",)}, {})
    k = InstanceMorphism(p, q, {"A": {"p1": "q1", "p2": "q1"}})
    t = _typed(
        schema,
        ("x1", "x2", "x3", "x4", "x5"),
        ("p1", "p2"),
        {"x1": "p1", "x2": "p1", "x3": "p2", "x4": "p2", "x5": "p2"},
    )
    t = TypedInstance(InstanceMorphism(t.instance, p, t.typing.components))
    result = typechange_pi(k, t)
    assert len(result.instance.row_set("A")) == 2 * 3


def _pair_input(k_l, p_f, k_m, tau_l, tau_m, x_f):
    """k : P -> Q and an instance typed over P, on ``L -f-> M``.  Each table
    of P and of the typed instance is its component's keys, in order; Q's
    tables are the components' values, and Q's f sends every L row to Q's
    first M row."""
    schema = Schema("Pair", Graph(("L", "M"), (Arrow("f", "L", "M"),)))
    q_l = tuple(dict.fromkeys(k_l.values()))
    q_m = tuple(dict.fromkeys(k_m.values()))
    q = Instance(schema, {"L": q_l, "M": q_m}, {"f": {x: q_m[0] for x in q_l}})
    p = Instance(schema, {"L": tuple(k_l), "M": tuple(k_m)}, {"f": p_f})
    k = InstanceMorphism(p, q, {"L": k_l, "M": k_m})
    instance = Instance(schema, {"L": tuple(tau_l), "M": tuple(tau_m)}, {"f": x_f})
    return k, TypedInstance(InstanceMorphism(instance, p, {"L": tau_l, "M": tau_m}))


def _pi_error(k, typed) -> str:
    with pytest.raises(TypeChangeError) as err:
        typechange_pi(k, typed)
    return str(err.value)


_ONE_GROUP = {"1": "x", "2": "x"}
_TWO_GROUPS = {"1": "x", "2": "y"}
_AMBIGUOUS = "pointwise action of 'f' on row {!r} is ambiguous at type 'pm'"
_UNCOVERED = "pointwise action of 'f' on row {!r} does not cover the fiber of 'qm'"
_STRAY = "action of 'f' on row {!r} does not land in a constructed family; input is inconsistent"


def test_pi_hat_inconsistent_action_errors():
    # two people in one group whose items map to different M rows: the
    # pointwise action cannot choose
    k, typed = _pair_input(
        _ONE_GROUP, {"1": "pm", "2": "pm"}, {"pm": "qm"},
        {"a": "1", "b": "2"}, {"m1": "pm", "m2": "pm"}, {"a": "m1", "b": "m2"},
    )
    assert _pi_error(k, typed) == _AMBIGUOUS.format("(a,b)")


@pytest.mark.parametrize(
    "k_l, p_f, k_m, tau_l, tau_m, x_f, message",
    [
        pytest.param(
            # two images, neither typed pm, still differ
            _ONE_GROUP, {"1": "pm", "2": "pm"}, {"pm": "qm", "pm2": "qm2"},
            {"a": "1", "b": "2"}, {"m2": "pm2", "m3": "pm2"}, {"a": "m2", "b": "m3"},
            _AMBIGUOUS.format("(a,b)"),
            id="ambiguous-untyped-images",
        ),
        pytest.param(
            # the images cover pm but not pm2, both over qm
            _TWO_GROUPS, {"1": "pm", "2": "pm"}, {"pm": "qm", "pm2": "qm"},
            {"a": "1", "b": "2"}, {"m1": "pm", "m2": "pm2"}, {"a": "m1", "b": "m1"},
            _UNCOVERED.format("(a)"),
            id="uncovered",
        ),
        pytest.param(
            # a's image m2 is typed pm2, not pm
            _TWO_GROUPS, {"1": "pm", "2": "pm"}, {"pm": "qm", "pm2": "qm2"},
            {"a": "1", "b": "2"}, {"m1": "pm", "m2": "pm2"}, {"a": "m2", "b": "m1"},
            _STRAY.format("(a)"),
            id="stray",
        ),
        pytest.param(
            # ambiguous and not covering: ambiguity is checked first
            _ONE_GROUP, {"1": "pm", "2": "pm"}, {"pm": "qm", "pm2": "qm"},
            {"a": "1", "b": "2"}, {"m1": "pm", "m2": "pm"}, {"a": "m1", "b": "m2"},
            _AMBIGUOUS.format("(a,b)"),
            id="ambiguous-before-uncovered",
        ),
        pytest.param(
            # not covering, and the image is typed pm2: coverage is checked first
            _TWO_GROUPS, {"1": "pm", "2": "pm"}, {"pm": "qm", "pm2": "qm"},
            {"a": "1", "b": "2"}, {"m1": "pm", "m2": "pm2"}, {"a": "m2", "b": "m2"},
            _UNCOVERED.format("(a)"),
            id="uncovered-before-stray",
        ),
        pytest.param(
            # x's first section (a,b) is unambiguous, its second (a,c) is not;
            # x does not cover qm's fiber, which is found at the first section
            _ONE_GROUP, {"1": "pm", "2": "pm"}, {"pm": "qm", "pm2": "qm"},
            {"a": "1", "b": "2", "c": "2"}, {"m1": "pm", "m2": "pm"},
            {"a": "m1", "b": "m1", "c": "m2"},
            _UNCOVERED.format("(a,b)"),
            id="uncovered-at-first-section",
        ),
        pytest.param(
            # the same with the ambiguous section first
            _ONE_GROUP, {"1": "pm", "2": "pm"}, {"pm": "qm", "pm2": "qm"},
            {"a": "1", "c": "2", "b": "2"}, {"m1": "pm", "m2": "pm"},
            {"a": "m1", "b": "m1", "c": "m2"},
            _AMBIGUOUS.format("(a,c)"),
            id="ambiguous-at-first-section",
        ),
        pytest.param(
            # (a,b) lands nowhere and comes before the ambiguous (a,c)
            _ONE_GROUP, {"1": "pm", "2": "pm"}, {"pm": "qm", "pm2": "qm2"},
            {"a": "1", "b": "2", "c": "2"}, {"m2": "pm", "m3": "pm2"},
            {"a": "m3", "b": "m3", "c": "m2"},
            _STRAY.format("(a,b)"),
            id="stray-before-later-ambiguous",
        ),
    ],
)
def test_pi_hat_error_text_and_order(k_l, p_f, k_m, tau_l, tau_m, x_f, message):
    k, typed = _pair_input(k_l, p_f, k_m, tau_l, tau_m, x_f)
    assert _pi_error(k, typed) == message
    with pytest.raises(TypeChangeError, match=re.escape(message)):
        sectionwise_typechange_pi(k, typed)


def test_pi_hat_uncovered_fiber_without_sections_is_no_error():
    # group y's only person, 3, holds no item, so y has no section, and its
    # fiber {3} does not cover qm's fiber {pm, pm2}: nothing is raised
    k, typed = _pair_input(
        {"1": "x", "2": "x", "3": "y"}, {"1": "pm", "2": "pm2", "3": "pm"},
        {"pm": "qm", "pm2": "qm"}, {"a": "1", "b": "2"}, {"m1": "pm", "m2": "pm2"},
        {"a": "m1", "b": "m2"},
    )
    result = typechange_pi(k, typed)
    assert result.instance.row_set("L") == ("(a,b)",)
    assert result.instance.row_set("M") == ("(m1,m2)",)
    assert result.instance.column("f") == {"(a,b)": "(m1,m2)"}
    assert result.typing.components == {"L": {"(a,b)": "x"}, "M": {"(m1,m2)": "qm"}}


def _pi_outcome(construct, k, typed):
    """The product's rows, columns and typing, each in order, or the error text."""
    try:
        result = construct(k, typed)
    except TypeChangeError as err:
        return str(err)
    instance = result.instance
    return (
        {v: instance.row_set(v) for v in instance.schema.vertices},
        {a.name: list(instance.column(a.name).items()) for a in instance.schema.arrows},
        {v: list(result.typing.component(v).items()) for v in instance.schema.vertices},
    )


def test_pi_hat_matches_sectionwise_reference():
    kinds = {"rows": 0, "ambiguous": 0, "cover": 0, "land": 0}
    for seed in range(600):
        rng = random.Random(seed)
        k, typed = rand_pi_hat_input(rng, noise=rng.choice((0.0, 0.1, 0.3)))
        expected = _pi_outcome(sectionwise_typechange_pi, k, typed)
        assert _pi_outcome(typechange_pi, k, typed) == expected, seed
        if isinstance(expected, str):
            kinds[next(kind for kind in ("ambiguous", "cover", "land") if kind in expected)] += 1
        else:
            kinds["rows"] += 1
            assert validate_typed(typechange_pi(k, typed)) == []
    # every outcome is reached often enough to be compared
    assert min(kinds.values()) >= 10, kinds


def test_pi_hat_ids_are_distinct_on_adversarial_ids():
    # ids holding every encoded character, ids that spell a section's id,
    # empty fibers (whose one section is named ()@q) and an empty id
    schema = _point_schema()
    p_rows = ("1", "2", "3")
    q_rows = ("q", "(a,b)", "", "()@q")
    p = Instance(schema, {"A": p_rows}, {})
    q = Instance(schema, {"A": q_rows}, {})
    k = InstanceMorphism(p, q, {"A": {"1": "q", "2": "q", "3": "(a,b)"}})
    x_rows = ("a", "b", "a,b", "", "()@q", "(a,b)", "%2C", "b)", "(a", "@", "=;%")
    tau = {x: p_rows[i % 2] for i, x in enumerate(x_rows[:-1])}
    tau[x_rows[-1]] = "3"
    typed = TypedInstance(
        InstanceMorphism(Instance(schema, {"A": x_rows}, {}), p, {"A": tau})
    )
    result = typechange_pi(k, typed)
    ids = result.instance.row_set("A")
    assert len(ids) == len(set(ids)) == 5 * 5 + 1 + 1 + 1
    assert "()@" in ids and "()@()@q" in ids
    for seed in range(100):
        k, typed = rand_pi_hat_input(random.Random(seed))
        try:
            instance = typechange_pi(k, typed).instance
        except TypeChangeError:
            continue
        for v in instance.schema.vertices:
            assert len(set(instance.row_set(v))) == len(instance.row_set(v))


def test_all_typechange_outputs_validate(paper_env):
    typed_items = paper_env[("typedinstance", "TypedItems")]
    grouping = paper_env[("morphism", "grouping")]
    typed_staff = paper_env[("typedinstance", "TypedStaff")]
    below = paper_env[("morphism", "below100")]
    threshold = paper_env[("morphism", "threshold")]
    contracts = paper_env[("typedinstance", "TypedContracts")]
    for result in (
        typechange_pi(grouping, typed_items),
        typechange_delta(below, typed_staff),
        typechange_sigma(threshold, contracts),
    ):
        assert validate_typed(result) == []
        assert validate_instance(result.instance) == []


def test_sigma_hat_constant_typing(typed_contracts):
    # a constant retyping lands every row on a single point per table
    q = typed_contracts.typing_instance
    schema = q.schema
    point = Instance(
        schema,
        {"X": ("px",), "Y": ("py",), "Z": ("pz",)},
        {"t": {"px": "py"}, "d": {"px": "pz"}, "r": {"py": "pz"}},
    )
    collapse = InstanceMorphism(
        q,
        point,
        {
            "X": {r: "px" for r in q.row_set("X")},
            "Y": {r: "py" for r in q.row_set("Y")},
            "Z": {r: "pz" for r in q.row_set("Z")},
        },
    )
    retyped = typechange_sigma(collapse, typed_contracts)
    assert validate_typed(retyped) == []
    assert set(retyped.typing.component("X").values()) == {"px"}
    assert set(retyped.typing.component("Z").values()) == {"pz"}
