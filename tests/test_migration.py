from __future__ import annotations

import random

import pytest

from catmigrate import migration
from catmigrate.errors import (
    EngineError,
    EnumerationCapError,
    PathBoundInstabilityError,
    SaturationOverflowError,
    SchemaMismatchError,
)
from catmigrate.instances import (
    Instance,
    InstanceMorphism,
    compose_morphisms,
    count_morphisms,
    find_isomorphism,
    identity_morphism,
    morphisms_equal,
    validate_instance,
    validate_morphism,
)
from catmigrate.migration import (
    MigrationLog,
    MigrationPipeline,
    PipelineStep,
    StepKind,
    Translation,
    TranslationEquality,
    UnverifiedEquivalence,
    adjunction_unit_counit,
    check_translation,
    compose_translations,
    delta,
    delta_on_morphism,
    identity_translation,
    pi,
    pi_full,
    pi_on_morphism,
    pi_unit,
    pi_counit,
    run_pipeline,
    sigma,
    sigma_full,
    sigma_on_morphism,
    sigma_unit,
    sigma_counit,
    translations_equal,
)
from catmigrate.schemas import Arrow, Graph, Path, PathEquivalence, Schema

from .generators import (
    company_staff,
    rand_acyclic_schema,
    rand_inclusion,
    rand_instance,
    rand_translation,
    shuffled_rows,
)
from .oracles import (
    assert_pi_matches,
    assert_sigma_matches,
    merge_back_sigma_full,
    nested_loop_families,
    tag_term,
    tagged_root_order_key,
    tagged_term_sort_key,
)


@pytest.fixture(scope="module")
def F(paper_env):
    return paper_env[("translation", "F")]


@pytest.fixture(scope="module")
def I(paper_env):
    return paper_env[("instance", "I")]


@pytest.fixture(scope="module")
def J(paper_env):
    return paper_env[("instance", "J")]


@pytest.fixture(scope="module")
def Feq(paper_env):
    return paper_env[("translation", "Feq")]


# -- translation validation ----------------------------------------------------


def test_paper_translation_is_valid(F):
    assert check_translation(F) == []


def test_equivalence_translation_is_valid(Feq):
    # both composite equations land on the trivial path, which is equal to itself
    assert check_translation(Feq) == []


def test_endpoint_violation_detected(F):
    broken = Translation(
        F.source,
        F.target,
        dict(F.vertex_map),
        {**F.arrow_map, "ssn": Path("SSN", ())},
    )
    report = check_translation(broken)
    assert any("ssn" in item.describe() for item in report)


def test_unverified_equivalence_reported(paper_env):
    # a source equation whose image cannot be proved: two parallel arrows
    # with no target equations
    src = Schema(
        "Csrc",
        Graph(("A", "B"), (Arrow("u", "A", "B"), Arrow("w", "A", "B"))),
        (PathEquivalence(Path("A", ("u",)), Path("A", ("w",))),),
    )
    tgt = Schema("Dtgt", Graph(("X", "Y"), (Arrow("p", "X", "Y"), Arrow("q", "X", "Y"))))
    f = Translation(
        src, tgt, {"A": "X", "B": "Y"}, {"u": Path("X", ("p",)), "w": Path("X", ("q",))}
    )
    report = check_translation(f)
    assert len(report) == 1
    assert isinstance(report[0], UnverifiedEquivalence)


def test_translations_equal_reflexive(F):
    assert translations_equal(F, F) is TranslationEquality.EQUAL


def test_translations_equal_up_to_declared_equivalence(paper_env):
    ceq = paper_env[("schema", "Ceq")]
    loop = Schema("Loop", Graph(("W",), (Arrow("a", "W", "W"),)))
    f = Translation(loop, ceq, {"W": "T1"}, {"a": Path("T1", ("i12", "i21"))})
    g = Translation(loop, ceq, {"W": "T1"}, {"a": Path("T1", ())})
    assert translations_equal(f, g) is TranslationEquality.EQUAL


def test_translations_equal_not_proved_and_different(paper_env):
    plain = Schema("Plain", Graph(("X", "Y"), (Arrow("p", "X", "Y"), Arrow("q", "X", "Y"))))
    loop = Schema("LoopB", Graph(("W", "Z"), (Arrow("a", "W", "Z"),)))
    f = Translation(loop, plain, {"W": "X", "Z": "Y"}, {"a": Path("X", ("p",))})
    g = Translation(loop, plain, {"W": "X", "Z": "Y"}, {"a": Path("X", ("q",))})
    assert translations_equal(f, g) is TranslationEquality.NOT_PROVED
    h = Translation(loop, plain, {"W": "Y", "Z": "Y"}, {"a": Path("Y", ())})
    assert translations_equal(f, h) is TranslationEquality.DIFFERENT


# -- delta ----------------------------------------------------------------------


def test_delta_splits_table_t(F, J, paper_env):
    pulled = delta(F, J)
    assert validate_instance(pulled) == []
    assert pulled.row_set("T1") == ("XF667", "XF891", "XF221")
    assert pulled.row_set("T2") == ("XF667", "XF891", "XF221")
    assert pulled.column("ssn")["XF667"] == "115-234"
    assert pulled.column("first_1")["XF667"] == "Bob"
    assert pulled.column("last_1")["XF667"] == "Smith"
    # leaves verbatim
    for leaf in ("SSN", "First", "Last", "Salary"):
        assert pulled.row_set(leaf) == J.row_set(leaf)
    # cell-for-cell match with the transcribed tables, up to row-id bijection
    expected = paper_env[("instance", "PullbackExpected")]
    assert find_isomorphism(pulled, expected) is not None


def test_delta_identity_translation(J):
    assert delta(identity_translation(J.schema), J) == J


def test_delta_equivalence_pullback_links_are_identities(Feq, J, paper_env):
    pulled = delta(Feq, J)
    assert validate_instance(pulled) == []
    for row in pulled.row_set("T1"):
        assert pulled.column("i12")[row] == row
    for row in pulled.row_set("T2"):
        assert pulled.column("i21")[row] == row
    expected = paper_env[("instance", "EquivPullbackExpected")]
    assert find_isomorphism(pulled, expected) is not None


def test_delta_functoriality(F, J):
    # identity and composition, as value equality
    ident_d = identity_translation(F.target)
    assert delta(compose_translations(F, ident_d), J) == delta(F, J)
    composed = compose_translations(identity_translation(F.source), F)
    assert delta(composed, J) == delta(F, J)


def test_delta_on_morphism(F, J):
    ident = identity_morphism(J)
    image = delta_on_morphism(F, ident)
    assert morphisms_equal(image, identity_morphism(delta(F, J)))
    # an inclusion of one extra T row maps to inclusions on both T1 and T2
    smaller = Instance(
        J.schema,
        {**{v: J.row_set(v) for v in J.schema.vertices}, "T": ("XF667", "XF891")},
        {
            **{a: dict(col) for a, col in J.columns.items()},
            **{
                a.name: {r: J.column(a.name)[r] for r in ("XF667", "XF891")}
                for a in J.schema.graph.out_arrows("T")
            },
        },
    )
    include = InstanceMorphism(
        smaller,
        J,
        {v: {r: r for r in smaller.row_set(v)} for v in J.schema.vertices},
    )
    assert validate_morphism(include) == []
    pulled = delta_on_morphism(F, include)
    assert validate_morphism(pulled) == []
    assert set(pulled.component("T1")) == {"XF667", "XF891"}
    assert set(pulled.component("T2")) == {"XF667", "XF891"}


# -- pi ---------------------------------------------------------------------------


def test_pi_is_the_join(F, I):
    joined = pi(F, I)
    assert validate_instance(joined) == []
    rows = joined.row_set("T")
    assert len(rows) == 2
    cells = {
        tuple(joined.column(a)[r] for a in ("SSN", "First", "Last", "Salary"))
        for r in rows
    }
    assert cells == {
        ("122-988", "Sue", "Smith", "$300"),
        ("198-877", "Alice", "Jones", "$100"),
    }
    # row order is deterministic: Sue's row enumerates first
    assert joined.column("First")[rows[0]] == "Sue"
    for leaf in ("SSN", "First", "Last", "Salary"):
        assert joined.row_set(leaf) == I.row_set(leaf)


def test_pi_identity_translation(I, J):
    assert pi(identity_translation(J.schema), J) == J
    assert pi(identity_translation(I.schema), I) == I


def test_pi_matches_oracle_on_paper_case(F, I):
    assert_pi_matches(F, I, pi_full(F, I))


def test_pi_unstable_bound_raises():
    # a loop arrow makes the comma category at W infinite
    loop = Schema("LoopC", Graph(("W",), (Arrow("a", "W", "W"),)))
    point = Schema("Pt", Graph(("P",), ()))
    f = Translation(point, loop, {"P": "W"}, {})
    instance = Instance(point, {"P": ("x", "y")}, {})
    with pytest.raises(PathBoundInstabilityError) as err:
        pi(f, instance, path_bound=3)
    assert err.value.vertex == "W"


def test_pi_on_morphism_identity_and_merge(F, I):
    image = pi_on_morphism(F, identity_morphism(I))
    assert morphisms_equal(image, identity_morphism(pi(F, I)))


def _reference_pi(monkeypatch, translation, instance, **bounds):
    """pi_full with the join swapped for the plain nested loop."""
    with monkeypatch.context() as patch:
        patch.setattr(migration, "_compatible_families", nested_loop_families)
        return pi_full(translation, instance, **bounds)


def _reversed_source(f: Translation) -> Translation:
    """The same translation with its source vertices listed in reverse, so
    that arrows run from later components to earlier ones."""
    C = f.source
    graph = Graph(tuple(reversed(C.vertices)), C.graph.arrows)
    source = Schema(C.name, graph, C.equivalences)
    return Translation(source, f.target, f.vertex_map, f.arrow_map)


def test_pi_join_keeps_nested_loop_order(monkeypatch):
    rng = random.Random(1212)
    for case in range(150):
        target = rand_acyclic_schema(rng, f"Ord{case}", max_vertices=4, max_arrows=5)
        f = rand_translation(rng, target, name_prefix=f"o{case}_")
        if case % 2:
            f = _reversed_source(f)
        instance = shuffled_rows(rng, rand_instance(rng, f.source, max_rows=4))
        got = pi_full(f, instance)
        want = _reference_pi(monkeypatch, f, instance)
        for d in target.vertices:
            assert got.data[d].comps == want.data[d].comps
            assert list(got.data[d].rows.items()) == list(
                want.data[d].rows.items()
            ), f"case {case}: families at {d!r} differ"
        assert got.instance.rows == want.instance.rows
        for arrow in target.arrows:
            assert list(got.instance.column(arrow.name).items()) == list(
                want.instance.column(arrow.name).items()
            )


def test_pi_join_skips_column_values_outside_their_table(monkeypatch):
    # an unvalidated instance whose column points past its target table
    schema = Schema("Dangle", Graph(("A", "B"), (Arrow("f", "A", "B"),)))
    instance = Instance(
        schema, {"A": ("a1", "a2"), "B": ("b",)}, {"f": {"a1": "zzz", "a2": "b"}}
    )
    identity = identity_translation(schema)
    got = pi_full(identity, instance)
    want = _reference_pi(monkeypatch, identity, instance)
    assert list(got.data["A"].rows.items()) == list(want.data["A"].rows.items())
    assert list(got.data["A"].rows) == [("a2", "b")]


def test_pi_join_family_cap_raises_as_nested_loop(monkeypatch, F, I):
    with pytest.raises(EnumerationCapError) as got:
        pi_full(F, I, family_cap=1)
    with pytest.raises(EnumerationCapError) as want:
        _reference_pi(monkeypatch, F, I, family_cap=1)
    assert str(got.value) == str(want.value)
    assert got.value.vertex == want.value.vertex


def _count_vertex_computations(monkeypatch) -> list[tuple[str, int]]:
    calls: list[tuple[str, int]] = []
    compute = migration._families_at

    def counted(translation, instance, vertex, path_bound, *rest):
        calls.append((vertex, path_bound))
        return compute(translation, instance, vertex, path_bound, *rest)

    monkeypatch.setattr(migration, "_families_at", counted)
    return calls


def test_pi_on_acyclic_target_skips_the_probe(monkeypatch, F, I):
    calls = _count_vertex_computations(monkeypatch)
    joined = pi(F, I)
    assert sorted(calls) == sorted((d, 16) for d in F.target.vertices)
    assert len(joined.row_set("T")) == 2


def test_pi_probes_a_chain_as_long_as_the_bound(monkeypatch):
    chain = Schema(
        "Chain",
        Graph(
            ("X0", "X1", "X2", "X3"),
            (Arrow("a1", "X0", "X1"), Arrow("a2", "X1", "X2"), Arrow("a3", "X2", "X3")),
        ),
    )
    instance = Instance(
        chain,
        {"X0": ("p", "q"), "X1": ("p1",), "X2": ("p2",), "X3": ("p3",)},
        {"a1": {"p": "p1", "q": "p1"}, "a2": {"p1": "p2"}, "a3": {"p2": "p3"}},
    )
    identity = identity_translation(chain)
    calls = _count_vertex_computations(monkeypatch)
    for bound, probed in ((3, ["X0"]), (4, [])):
        calls.clear()
        assert pi(identity, instance, path_bound=bound) == instance
        assert [d for d, b in calls if b == bound + 1] == probed
        assert sorted(d for d, b in calls if b == bound) == list(chain.vertices)


def test_pi_runs_every_probe_before_comparing_counts():
    # W1's row count grows with the bound; W2's probe overflows the class cap.
    # The cap error of the later vertex wins, as when every vertex is probed.
    loops = Schema(
        "Loops",
        Graph(
            ("W1", "W2"),
            (Arrow("a", "W1", "W1"), Arrow("b", "W2", "W2"), Arrow("c", "W2", "W2")),
        ),
    )
    point = Schema("Pt2", Graph(("P", "Q"), ()))
    f = Translation(point, loops, {"P": "W1", "Q": "W2"}, {})
    instance = Instance(point, {"P": ("x", "y")}, {})
    with pytest.raises(PathBoundInstabilityError) as err:
        pi(f, instance, path_bound=2, element_cap=10)
    assert err.value.vertex == "W2"
    assert "path classes" in str(err.value)


# -- sigma -------------------------------------------------------------------------


def test_sigma_is_the_union_with_skolems(F, I):
    pushed = sigma(F, I)
    assert validate_instance(pushed) == []
    assert pushed.row_set("T") == (
        "T1-001",
        "T1-002",
        "T1-003",
        "T2-A101",
        "T2-A102",
        "T2-A104",
        "T2-A110",
    )
    # the three T1 rows Skolemize their salaries
    assert pushed.column("Salary")["T1-001"] == "T1-001.Salary"
    assert pushed.column("Salary")["T1-002"] == "T1-002.Salary"
    assert pushed.column("Salary")["T1-003"] == "T1-003.Salary"
    # the four T2 rows Skolemize their SSNs
    for row in ("T2-A101", "T2-A102", "T2-A104", "T2-A110"):
        assert pushed.column("SSN")[row] == f"{row}.SSN"
    # known cells survive verbatim
    assert pushed.column("SSN")["T1-001"] == "115-234"
    assert pushed.column("Salary")["T2-A101"] == "$100"
    assert pushed.column("First")["T2-A110"] == "Carl"
    # leaf tables: original values plus the new Skolems
    assert pushed.row_set("Salary") == (
        "$100",
        "$150",
        "$200",
        "$250",
        "$300",
        "T1-001.Salary",
        "T1-002.Salary",
        "T1-003.Salary",
    )
    assert len(pushed.row_set("SSN")) == 5 + 4
    assert pushed.row_set("First") == I.row_set("First")
    assert pushed.row_set("Last") == I.row_set("Last")


def test_sigma_identity_translation(I, J):
    assert sigma(identity_translation(I.schema), I) == I
    assert sigma(identity_translation(J.schema), J) == J


def test_sigma_matches_oracle_on_paper_case(F, I):
    assert_sigma_matches(F, I, sigma_full(F, I))


def test_sigma_nontermination_names_the_vertex():
    # sending a point into a loop: its images under the loop arrow never close
    loop = Schema("LoopD", Graph(("W",), (Arrow("a", "W", "W"),)))
    point = Schema("Pt2", Graph(("P",), ()))
    f = Translation(point, loop, {"P": "W"}, {})
    instance = Instance(point, {"P": ("x",)}, {})
    with pytest.raises(SaturationOverflowError) as err:
        sigma(f, instance, saturation_bound=40)
    assert err.value.vertex == "W"
    assert "Skolem paths past 16" in str(err.value)


def _sign(a, b) -> int:
    return (a > b) - (a < b)


def test_sigma_term_orders_match_the_tagged_keys():
    # three source vertices sharing row ids (one holding a dot, so a seed and
    # a Skolem element can display alike), each listing them in its own order
    source = Schema("Src", Graph(("C0", "C1", "C2"), ()))
    arrows = tuple(Arrow(a, "X", "X") for a in ("h", "f", "g"))
    target = Schema("Tgt", Graph(("X",), arrows))
    f = Translation(source, target, {c: "X" for c in source.vertices}, {})
    ids = ["a", "a.f", "b", "a.f.g"]
    rng = random.Random(4242)
    rows = {}
    for c in source.vertices:
        rng.shuffle(ids)
        rows[c] = tuple(ids)
    engine = migration._SigmaEngine(f, Instance(source, rows, {}), 1000, None)
    for _ in range(200):
        terms = list(
            dict.fromkeys(
                (
                    rng.choice(source.vertices),
                    rng.choice(ids),
                    tuple(rng.choice("fgh") for _ in range(rng.choice((0, 0, 1, 2, 3)))),
                )
                for _ in range(rng.randint(1, 25))
            )
        )
        engine.terms = terms
        engine.rep = {i: i for i in range(len(terms))}
        new_keys = [migration._term_sort_key(t) for t in terms]
        old_keys = [tagged_term_sort_key(tag_term(t)) for t in terms]
        new_roots = [engine._root_order_key(i) for i in range(len(terms))]
        old_roots = [tagged_root_order_key(engine, tag_term(t)) for t in terms]
        for i in range(len(terms)):
            for j in range(len(terms)):
                assert _sign(new_keys[i], new_keys[j]) == _sign(old_keys[i], old_keys[j])
                assert _sign(new_roots[i], new_roots[j]) == _sign(old_roots[i], old_roots[j])



def test_sigma_settles_equations_without_merging_skolems_back(monkeypatch):
    # sigma must infer every employee's department.  Making both sides of
    # Mgr.isIn = isIn in full made about three Skolems per employee and
    # merged nearly all of them back
    translation, instance = company_staff(random.Random(2024), 200, 8)
    merges = []
    union = migration._SigmaEngine.union

    def counting_union(self, a, b):
        merges.append(union(self, a, b))
        return merges[-1]

    monkeypatch.setattr(migration._SigmaEngine, "union", counting_union)
    engine = migration._SigmaEngine(translation, instance, 1000, None)
    engine.run()
    out = engine.extract().instance
    sizes = {v: len(out.row_set(v)) for v in out.schema.vertices}
    assert sizes == {"Employee": 200, "Department": 8, "String1": 10, "String2": 20, "String3": 8}
    assert validate_instance(out) == []
    assert len(engine.terms) < 1.1 * sum(sizes.values())
    assert sum(merges) <= 2 * 8
    # every employee's isIn step is charged, made or asserted, and the bound
    # stops the chase at the first charge past it.  Shuffled, a manager may
    # come after its staff, so both of an equation's last steps can be missing
    for shuffle in (False, True):
        translation, instance = company_staff(random.Random(2024), 200, 8, shuffle)
        engine = migration._SigmaEngine(translation, instance, 1000, None)
        engine.run()
        charged = engine.per_vertex["Department"]
        assert charged >= 8 + 200
        with pytest.raises(SaturationOverflowError, match="'Department'"):
            sigma(translation, instance, saturation_bound=charged - 1)


def test_sigma_asserted_step_still_names_its_class():
    # x2 manages itself and x1, so x2.d is made first; x1's d step is then
    # asserted into x2.d's class, and its term x1.d sorts first and names it
    source = Schema("Src", Graph(("E", "D"), (Arrow("m", "E", "E"),)))
    arrows = (Arrow("m", "E", "E"), Arrow("d", "E", "D"))
    equation = PathEquivalence(Path("E", ("m", "d")), Path("E", ("d",)))
    target = Schema("Tgt", Graph(("E", "D"), arrows), (equation,))
    f = Translation(source, target, {"E": "E", "D": "D"}, {"m": Path("E", ("m",))})
    instance = Instance(source, {"E": ("x2", "x1")}, {"m": {"x2": "x2", "x1": "x2"}})
    out = sigma(f, instance)
    assert out.row_set("D") == ("x1.d",)
    assert out.column("d") == {"x2": "x1.d", "x1": "x1.d"}
    want = merge_back_sigma_full(f, instance).instance
    assert out.rows == want.rows and dict(out.columns) == dict(want.columns)


def _sigma_draw(rng: random.Random, case: int) -> tuple[Translation, Instance, int]:
    """An acyclic ``rand_translation`` input, a cyclic inclusion, or a small
    company input with its rows shuffled, in turn, each with a bound that
    small inputs can overflow."""
    bound = rng.choice((6, 12, 30, 1000))
    if case % 3 == 0:
        target = rand_acyclic_schema(rng, f"A{case}", max_vertices=4, max_arrows=5, max_equations=3)
        f = rand_translation(rng, target, name_prefix=f"a{case}_")
        return f, shuffled_rows(rng, rand_instance(rng, f.source, max_rows=4)), bound
    if case % 3 == 1:
        return (*rand_inclusion(rng, f"C{case}"), bound)
    departments = rng.randint(1, 4)
    employees = rng.randint(departments, 12)
    return (*company_staff(rng, employees, departments, shuffle=True), bound)


def _chase(run, translation, instance, bound):
    log = MigrationLog()
    try:
        return run(translation, instance, bound, log), log, None
    except EngineError as error:
        return None, log, error


def test_sigma_matches_the_merge_back_chase():
    # The reference makes both sides of each equation and merges them; it
    # charges the bound for Skolems it merges back, so it may overflow where
    # the settling chase does not, but never the other way round.  Row ids
    # may differ: each is the least term the chase happened to make
    rng = random.Random(8128)
    outcomes = {"same": 0, "failed": 0, "only the reference failed": 0}
    other_ids = 0
    for case in range(2400):
        f, instance, bound = _sigma_draw(rng, case)
        got, got_log, got_error = _chase(sigma_full, f, instance, bound)
        want, want_log, want_error = _chase(merge_back_sigma_full, f, instance, bound)
        if got_error is not None:
            assert type(want_error) is type(got_error), (case, got_error, want_error)
            outcomes["failed"] += 1
            continue
        if want_error is not None:
            outcomes["only the reference failed"] += 1
            want, want_log, want_error = _chase(merge_back_sigma_full, f, instance, 100_000)
            assert want_error is None, (case, want_error)
        else:
            outcomes["same"] += 1
        a, b = got.instance, want.instance
        assert got_log.saturation_rounds == want_log.saturation_rounds, case
        assert {v: len(a.row_set(v)) for v in a.schema.vertices} == {
            v: len(b.row_set(v)) for v in b.schema.vertices
        }, case
        assert find_isomorphism(a, b) is not None, case
        other_ids += a.rows != b.rows or dict(a.columns) != dict(b.columns)
    assert min(outcomes.values()) >= 50, outcomes
    # 2 of the 1 796 draws that succeed print other row ids
    assert other_ids <= 0.01 * (outcomes["same"] + outcomes["only the reference failed"])

def test_sigma_on_morphism_inclusion_and_merge(F, I):
    # identity maps to identity
    assert morphisms_equal(
        sigma_on_morphism(F, identity_morphism(I)), identity_morphism(sigma(F, I))
    )
    # dropping one T1 row includes into the full pushout
    rows = {v: I.row_set(v) for v in I.schema.vertices}
    rows["T1"] = ("T1-001", "T1-002")
    columns = {a: dict(col) for a, col in I.columns.items()}
    for a in I.schema.graph.out_arrows("T1"):
        columns[a.name] = {r: I.column(a.name)[r] for r in rows["T1"]}
    smaller = Instance(I.schema, rows, columns)
    include = InstanceMorphism(
        smaller, I, {v: {r: r for r in smaller.row_set(v)} for v in I.schema.vertices}
    )
    image = sigma_on_morphism(F, include)
    assert validate_morphism(image) == []
    assert image.component("T")["T1-001"] == "T1-001"


def test_schema_mismatch_errors(F, I, J):
    with pytest.raises(SchemaMismatchError):
        delta(F, I)
    with pytest.raises(SchemaMismatchError):
        sigma(F, J)
    with pytest.raises(SchemaMismatchError):
        pi(F, J)


# -- adjunction witnesses -------------------------------------------------------


def test_units_counits_identity_translation(I):
    ident = identity_translation(I.schema)
    w = adjunction_unit_counit(ident, I, I)
    for m in (w.unit_sigma, w.counit_sigma, w.unit_pi, w.counit_pi):
        assert morphisms_equal(m, identity_morphism(I))


def test_pi_counit_projects_join_members(F, I):
    eps = pi_counit(F, I)
    assert validate_morphism(eps) == []
    image_t1 = set(eps.component("T1").values())
    assert image_t1 == {"T1-002", "T1-003"}


def test_sigma_counit_collapses_seeds(F, J):
    eps = sigma_counit(F, J)
    assert validate_morphism(eps) == []
    # six seeded classes at T (three per fact table), mapping back pairwise
    assert len(eps.component("T")) == 6
    assert sorted(set(eps.component("T").values())) == ["XF221", "XF667", "XF891"]
    counts = {}
    for value in eps.component("T").values():
        counts[value] = counts.get(value, 0) + 1
    assert set(counts.values()) == {2}


def test_hom_set_bijection_on_truncated_paper_instances(F, paper_env):
    # enumeration is feasible on the small closures of I and J
    i_small = paper_env[("instance", "Ismall")]
    j_small = paper_env[("instance", "Jsmall")]
    pushed = sigma(F, i_small)
    pulled = delta(F, j_small)
    sigma_side = count_morphisms(pushed, j_small)
    delta_side = count_morphisms(i_small, pulled)
    assert sigma_side == delta_side and sigma_side > 0
    limit = pi(F, i_small)
    pi_left = count_morphisms(pulled, i_small)
    pi_right = count_morphisms(j_small, limit)
    assert pi_left == pi_right and pi_right > 0


def test_triangle_identities_on_paper_instances(F, I, J):
    # sigma -| delta: (counit at sigma I) after (sigma of unit) is the identity
    unit = sigma_unit(F, I)
    sigma_of_unit = sigma_on_morphism(F, unit)
    counit_at_sigma = sigma_counit(F, sigma(F, I))
    left = compose_morphisms(sigma_of_unit, counit_at_sigma)
    assert morphisms_equal(left, identity_morphism(sigma(F, I)))
    # ... and (delta of counit) after (unit at delta J) is the identity
    pulled = delta(F, J)
    unit_at_delta = sigma_unit(F, pulled)
    delta_of_counit = delta_on_morphism(F, sigma_counit(F, J))
    right = compose_morphisms(unit_at_delta, delta_of_counit)
    assert morphisms_equal(right, identity_morphism(pulled))
    # delta -| pi: (pi of counit) after (unit at pi I) is the identity
    limit = pi(F, I)
    unit_at_pi = pi_unit(F, limit)
    pi_of_counit = pi_on_morphism(F, pi_counit(F, I))
    top = compose_morphisms(unit_at_pi, pi_of_counit)
    assert morphisms_equal(top, identity_morphism(limit))
    # ... and (counit at delta J) after (delta of unit) is the identity
    delta_of_unit = delta_on_morphism(F, pi_unit(F, J))
    counit_at_delta = pi_counit(F, delta(F, J))
    bottom = compose_morphisms(delta_of_unit, counit_at_delta)
    assert morphisms_equal(bottom, identity_morphism(pulled))


# -- the equivalence round trip ---------------------------------------------------


def test_equivalence_round_trips_are_isomorphisms(Feq, J, paper_env):
    seed = paper_env[("instance", "EquivPullbackExpected")]
    # sigma then delta on the C side
    pushed = sigma(Feq, seed)
    assert validate_instance(pushed) == []
    assert len(pushed.row_set("T")) == 3
    round_c = delta(Feq, pushed)
    assert find_isomorphism(round_c, seed) is not None
    # delta then sigma on the D side
    pulled = delta(Feq, J)
    round_d = sigma(Feq, pulled)
    assert find_isomorphism(round_d, J) is not None


# -- pipelines ----------------------------------------------------------------------


def test_empty_pipeline_returns_start(I):
    assert run_pipeline(MigrationPipeline(()), I) is I


def test_single_delta_step_equals_delta(F, J):
    result = run_pipeline(
        MigrationPipeline((PipelineStep(StepKind.DELTA, translation=F),)), J
    )
    assert result == delta(F, J)


def test_delta_then_sigma_composes_with_counit(F, J):
    result = run_pipeline(
        MigrationPipeline(
            (
                PipelineStep(StepKind.DELTA, translation=F),
                PipelineStep(StepKind.SIGMA, translation=F),
            )
        ),
        J,
    )
    eps = sigma_counit(F, J)
    assert result == eps.source


def test_pipeline_step_mismatch_raises(F, I):
    from catmigrate.errors import PipelineError

    with pytest.raises(PipelineError):
        run_pipeline(
            MigrationPipeline((PipelineStep(StepKind.DELTA, translation=F),)), I
        )


# -- migrations preserve validity on random cases ------------------------------------


def test_migrations_preserve_validity_randomized(paper_env):
    rng = random.Random(31)
    target = paper_env[("schema", "D")]
    for case in range(10):
        f = rand_translation(rng, target, name_prefix=f"t{case}_")
        instance = rand_instance(rng, f.source)
        assert validate_instance(instance) == []
        assert validate_instance(delta(f, rand_instance(rng, target))) == []
        assert validate_instance(sigma(f, instance)) == []
        assert validate_instance(pi(f, instance)) == []


def test_pipeline_with_typed_steps(paper_env):
    from catmigrate.typed import typechange_pi, typechange_sigma

    typed_items = paper_env[("typedinstance", "TypedItems")]
    grouping = paper_env[("morphism", "grouping")]
    result = run_pipeline(
        MigrationPipeline((PipelineStep(StepKind.PI_HAT, type_morphism=grouping),)),
        typed_items,
    )
    direct = typechange_pi(grouping, typed_items)
    assert result.instance == direct.instance
    assert result.typing.components == direct.typing.components
    # typed step on a plain instance is a pipeline error
    from catmigrate.errors import PipelineError

    with pytest.raises(PipelineError):
        run_pipeline(
            MigrationPipeline((PipelineStep(StepKind.SIGMA_HAT, type_morphism=grouping),)),
            typed_items.instance,
        )


def test_sigma_log_records_round_counts(F, I):
    log = MigrationLog()
    sigma(F, I, log=log)
    assert log.bounds["saturation_bound"] == 1000
    assert log.saturation_rounds, "no per-round element counts recorded"
    final = log.saturation_rounds[-1]
    assert final["T"] == 7
    assert final["Salary"] == 8


def test_pi_log_records_unverified_incidents(paper_env):
    # with a zero rewrite budget the composite t.r cannot be placed in the d
    # class: the dropped comma morphism is reported, and the restriction maps
    # then fail loudly rather than silently truncate
    attach = paper_env[("translation", "Attach")]
    values = paper_env[("instance", "Values")]
    log = MigrationLog()
    with pytest.raises(PathBoundInstabilityError):
        pi(attach, values, path_bound=1, budget=0, log=log)
    assert any("no comma morphism" in w for w in log.warnings)
    # an ample budget places every composite: no incidents, correct result
    clean = MigrationLog()
    result = pi(attach, values, path_bound=1, budget=64, log=clean)
    assert clean.warnings == []
    assert len(result.row_set("X")) == 11


def test_pushforwards_on_merging_morphism():
    # merging two rows with equal columns merges their chase classes
    src = Schema("Csm", Graph(("A", "B"), (Arrow("f", "A", "B"),)))
    tgt = Schema("Dsm", Graph(("X", "Y"), (Arrow("g", "X", "Y"),)))
    F = Translation(src, tgt, {"A": "X", "B": "Y"}, {"f": Path("X", ("g",))})
    two = Instance(src, {"A": ("a1", "a2"), "B": ("b",)}, {"f": {"a1": "b", "a2": "b"}})
    one = Instance(src, {"A": ("a",), "B": ("b",)}, {"f": {"a": "b"}})
    m = InstanceMorphism(two, one, {"A": {"a1": "a", "a2": "a"}, "B": {"b": "b"}})
    assert validate_morphism(m) == []
    sigma_image = sigma_on_morphism(F, m)
    assert validate_morphism(sigma_image) == []
    assert sigma_image.component("X")["a1"] == sigma_image.component("X")["a2"]
    pi_image = pi_on_morphism(F, m)
    assert validate_morphism(pi_image) == []
    assert len(set(pi_image.component("X").values())) == 1
