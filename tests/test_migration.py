from __future__ import annotations

import gc
import hashlib
import pathlib
import random

import pytest

from catmigrate import migration
from catmigrate.errors import (
    EngineError,
    EnumerationCapError,
    PathBoundInstabilityError,
    SaturationOverflowError,
    SchemaMismatchError,
    StructuralError,
)
from catmigrate.instances import (
    EquationViolation,
    Instance,
    InstanceMorphism,
    compose_morphisms,
    count_morphisms,
    find_isomorphism,
    identity_morphism,
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
    damaged,
    rand_acyclic_schema,
    rand_cyclic_schema,
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
    row_by_row_delta,
    row_by_row_validate_instance,
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
    with pytest.raises(StructuralError, match="ssn"):
        Translation(
            F.source,
            F.target,
            dict(F.vertex_map),
            {**F.arrow_map, "ssn": Path("SSN", ())},
        )


def test_caller_map_change_leaves_the_translation_alone(F):
    vertex_map, arrow_map = dict(F.vertex_map), dict(F.arrow_map)
    G = Translation(F.source, F.target, vertex_map, arrow_map)
    vertex, arrow = F.source.vertices[0], F.source.arrows[0].name
    vertex_map[vertex] = "nowhere"
    arrow_map[arrow] = Path("nowhere", ())
    vertex_map.clear()
    assert G.vertex_image(vertex) == F.vertex_image(vertex)
    assert G.arrow_image(arrow) == F.arrow_image(arrow)
    assert G == F
    with pytest.raises(TypeError):
        G.vertex_map[vertex] = "nowhere"


def test_stray_translation_keys_rejected():
    schema = Schema("S", Graph(("A",), (Arrow("f", "A", "A"),)))
    arrows = {"f": Path("A", ("f",))}
    with pytest.raises(StructuralError, match="'Q', which is not a source vertex"):
        Translation(schema, schema, {"A": "A", "Q": "A"}, arrows)
    with pytest.raises(StructuralError, match="'zz', which is not a source arrow"):
        Translation(schema, schema, {"A": "A"}, {**arrows, "zz": Path("A", ())})


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
    assert image == identity_morphism(delta(F, J))
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


def _translation_with_a_path(rng: random.Random, name: str) -> Translation:
    """A ``rand_translation`` that sends some arrow to a path of one or more
    arrows, so that delta evaluates columns."""
    while True:
        target = rand_acyclic_schema(rng, name, max_vertices=4, max_arrows=6, max_equations=2)
        f = rand_translation(rng, target, name_prefix=f"{name}_", max_arrows=6)
        if any(image.arrows for image in f.arrow_map.values()):
            return f


def _delta_outcome(run, translation, instance):
    """The pulled-back rows and columns, each column's cells in order, or
    the error's type and arguments."""
    try:
        out = run(translation, instance)
    except EngineError as error:
        return type(error), error.args, getattr(error, "vertex", None), getattr(error, "row", None)
    return out.schema, dict(out.rows), {name: list(col.items()) for name, col in out.columns.items()}


def test_delta_matches_the_row_by_row_reference():
    # valid instances, and instances with missing, dangling or moved cells:
    # the constructor refuses the first missing or dangling cell, by arrow
    # and then by row, with the reference validation's text, so delta only
    # meets total, closed columns, and there it matches the reference
    rng = random.Random(6151)
    outcomes = {"same instance": 0, "refused when built": 0}
    for case in range(450):
        f = _translation_with_a_path(rng, f"D{case}")
        instance = rand_instance(rng, f.target, max_rows=4)
        if case % 3:
            rows, columns = damaged(rng, instance, cells=rng.randint(1, 8))
            faults = [
                item
                for item in row_by_row_validate_instance(f.target, rows, columns)
                if not isinstance(item, EquationViolation)
            ]
            if faults:
                with pytest.raises(StructuralError) as err:
                    Instance(f.target, rows, columns)
                assert str(err.value) == faults[0].describe(), case
                outcomes["refused when built"] += 1
                continue
            instance = Instance(f.target, rows, columns)
        want = _delta_outcome(row_by_row_delta, f, instance)
        assert _delta_outcome(delta, f, instance) == want, case
        outcomes["same instance"] += 1
    assert min(outcomes.values()) >= 50, outcomes


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
    assert image == identity_morphism(pi(F, I))


def _reference_pi(monkeypatch, translation, instance):
    """pi_full with the join swapped for the plain nested loop."""
    with monkeypatch.context() as patch:
        patch.setattr(migration, "_compatible_families", nested_loop_families)
        return pi_full(translation, instance)


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


def test_pi_refuses_a_result_that_breaks_an_equation():
    # a ~ c takes two rewrites, so at budget 1 the class search splits one
    # true class at v in two, and the families over both halves break
    # v : b = c; the result is checked against the equations and refused
    S = Schema(
        "ABC",
        Graph(("v", "w"), (Arrow("a", "v", "w"), Arrow("b", "v", "w"), Arrow("c", "v", "w"))),
        (
            PathEquivalence(Path("v", ("a",)), Path("v", ("b",))),
            PathEquivalence(Path("v", ("b",)), Path("v", ("c",))),
        ),
    )
    W = Schema("Wonly", Graph(("w",), ()))
    f = Translation(W, S, {"w": "w"}, {})
    instance = Instance(W, {"w": ("w1", "w2")}, {})
    with pytest.raises(PathBoundInstabilityError) as err:
        pi(f, instance, budget=1)
    assert err.value.vertex == "v"
    assert "equation v : b = c fails" in str(err.value)
    joined = pi(f, instance, budget=2)
    assert len(joined.row_set("v")) == 2
    assert validate_instance(joined) == []


def test_pi_join_family_cap_raises_as_nested_loop(monkeypatch, F, I):
    monkeypatch.setattr(migration, "DEFAULT_FAMILY_CAP", 1)
    with pytest.raises(EnumerationCapError) as got:
        pi_full(F, I)
    with pytest.raises(EnumerationCapError) as want:
        _reference_pi(monkeypatch, F, I)
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


def test_pi_runs_every_probe_before_comparing_counts(monkeypatch):
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
    monkeypatch.setattr(migration, "DEFAULT_ELEMENT_CAP", 10)
    with pytest.raises(PathBoundInstabilityError) as err:
        pi(f, instance, path_bound=2)
    assert err.value.vertex == "W2"
    assert "path classes" in str(err.value)


PI_DRAWS = pathlib.Path(__file__).resolve().parent / "expected" / "pi_draws.txt"


def _pi_draw(rng: random.Random, case: int) -> tuple[Translation, Instance, int, int]:
    """In turn, an acyclic ``rand_translation`` input at rewrite budget 1, 2
    or 64, where budget 1 leaves searches unfinished, and the inclusion of
    some arrows of a small cyclic schema at path bound 2, 3 or 4, where the
    small bounds run the stability probe and its errors."""
    if case % 3 != 2:
        target = rand_acyclic_schema(rng, f"P{case}", max_vertices=4, max_arrows=5, max_equations=3)
        f = rand_translation(rng, target, name_prefix=f"p{case}_")
        instance = shuffled_rows(rng, rand_instance(rng, f.source, max_rows=3))
        return f, instance, migration.DEFAULT_PATH_BOUND, rng.choice((1, 2, 64))
    # Small schemas and budgets: a cyclic search at budget 64 can take seconds.
    target = rand_cyclic_schema(rng, f"Q{case}", max_vertices=3, max_arrows=2, max_equations=3)
    kept = tuple(a for a in target.arrows if rng.random() < 0.5)
    source = Schema(f"Q{case}src", Graph(target.vertices, kept))
    f = Translation(
        source,
        target,
        {v: v for v in target.vertices},
        {a.name: Path(a.source, (a.name,)) for a in kept},
    )
    instance = shuffled_rows(rng, rand_instance(rng, source, max_rows=2))
    return f, instance, rng.choice((2, 3, 4)), rng.choice((1, 2, 4))


def _pi_digest(translation: Translation, instance: Instance, path_bound: int, budget: int) -> str:
    """A short sha256 of all that ``pi_full`` gives on one input: its rows,
    its columns as sorted items, and each vertex's classes and components;
    or else its error's type and text.  The facts end in an empty list, where
    pi's warnings stood when it kept a log, so the digests of results stay
    as they were."""
    try:
        result = pi_full(translation, instance, path_bound, budget)
    except EngineError as error:
        facts = (type(error).__name__, str(error))
    else:
        out = result.instance
        facts = (
            dict(out.rows),
            sorted((name, sorted(column.items())) for name, column in out.columns.items()),
            [(d, list(map(str, data.classes)), data.comps) for d, data in result.data.items()],
            [],
        )
    return hashlib.sha256(repr(facts).encode()).hexdigest()[:16]


def _pi_draw_digests() -> list[str]:
    rng = random.Random(3141)
    return [_pi_digest(*_pi_draw(rng, case)) for case in range(1200)]


def test_pi_prints_the_locked_output_on_every_draw():
    # pi's exact output, row ids, class order and error texts included, one
    # digest a line.  Regenerate the file with ``python -m tests.test_migration``
    want = PI_DRAWS.read_text(encoding="utf-8").split()
    got = _pi_draw_digests()
    assert len(want) == len(got) == 1200
    assert [case for case in range(1200) if got[case] != want[case]] == []


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


def test_sigma_builds_no_row_maps_and_gives_sigma_fulls_instance(monkeypatch, F, I):
    full = sigma_full(F, I)
    # sigma_full's result is a plain record of three built fields
    assert vars(full).keys() == {"instance", "seed_row", "row_term"}
    assert type(full.seed_row) is dict and type(full.row_term) is dict
    named_tables = migration._SigmaEngine.named_tables

    def without_row_maps(engine):
        rows, columns, _ = named_tables(engine)

        def row_maps():
            raise AssertionError("sigma built its row maps")

        return rows, columns, row_maps

    monkeypatch.setattr(migration._SigmaEngine, "named_tables", without_row_maps)
    assert sigma(F, I) == full.instance
    with pytest.raises(AssertionError, match="sigma built its row maps"):
        sigma_full(F, I)

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


def test_sigma_names_the_arrow_and_first_row_of_a_bad_column():
    # a bad column never reaches sigma: the instance is refused when it is
    # built, at its first missing or dangling value in table order, with the
    # text that names the arrow and the row
    source = Schema("S", Graph(("A", "B"), (Arrow("f", "A", "B"),)))
    cases = (
        ({"a1": "b1", "a3": "b1"}, "row 'a2' has no value for column 'f'"),
        (
            {"a1": "b1", "a2": "zz"},
            "column 'f' sends row 'a2' to 'zz', which is not a row of the target table",
        ),
        (
            {"a1": "b1", "a2": "b1", "a3": "yy"},
            "column 'f' sends row 'a3' to 'yy', which is not a row of the target table",
        ),
    )
    for column, message in cases:
        with pytest.raises(StructuralError) as err:
            Instance(source, {"A": ("a1", "a2", "a3"), "B": ("b1",)}, {"f": column})
        assert str(err.value) == message


def test_sigma_charges_every_seed_against_the_bound():
    # two source tables seed one target table, which holds 5 elements
    source = Schema("Two", Graph(("A", "B"), ()))
    target = Schema("One", Graph(("X", "Y"), ()))
    f = Translation(source, target, {"A": "X", "B": "X"}, {})
    instance = Instance(source, {"A": ("a1", "a2"), "B": ("b1", "b2", "b3")}, {})
    assert sigma(f, instance, saturation_bound=5).row_set("X") == ("a1", "a2", "b1", "b2", "b3")
    for bound in (0, 1, 2, 4):
        with pytest.raises(SaturationOverflowError, match=f"exceeded {bound} elements") as err:
            sigma(f, instance, saturation_bound=bound)
        assert err.value.vertex == "X"


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
    engine.seed()
    made = {}

    def element(term):
        """The element of ``term``, made with its prefix chain on first use."""
        c, r, arrows = term
        if not arrows:
            return engine.seeds[c][r]
        if term not in made:
            made[term] = engine.make(element((c, r, arrows[:-1])), arrows[-1], "X")
        return made[term]

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
        tids = [element(t) for t in terms]
        assert [engine.term(tid) for tid in tids] == terms
        new_keys = [migration._term_sort_key(engine.term(tid)) for tid in tids]
        old_keys = [tagged_term_sort_key(tag_term(t)) for t in terms]
        new_roots = [engine._root_order_key(tid) for tid in tids]
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
    made = len(engine.parent)
    out = engine.extract()[0]
    sizes = {v: len(out.row_set(v)) for v in out.schema.vertices}
    assert sizes == {"Employee": 200, "Department": 8, "String1": 10, "String2": 20, "String3": 8}
    assert validate_instance(out) == []
    assert made < 1.1 * sum(sizes.values())
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


class _ReadCounting(list):
    """One arrow's images in the chase, noting which element's image each
    read asks for."""

    reads: list = []

    def __getitem__(self, tid):
        self.reads.append(tid)
        return super().__getitem__(tid)


def _chase_round_work(monkeypatch, translation, instance):
    """Per round of the chase: the element count when it began, the elements
    its walks start from, its step_create calls, the roots its passes
    visit, and the elements whose images it reads; and the round log."""
    rounds: list[dict] = []
    engine_class = migration._SigmaEngine
    apply_equations = engine_class.apply_equations
    walk_create = engine_class.walk_create
    step_create = engine_class.step_create
    roots_since = engine_class.roots_since

    def counted_apply(self):
        made = len(self.parent)
        rounds.append({"made": made, "walks": [], "steps": 0, "visits": [], "reads": []})
        _ReadCounting.reads = rounds[-1]["reads"]
        return apply_equations(self)

    def counted_walk(self, eid, arrows):
        if rounds:
            rounds[-1]["walks"].append((eid, len(arrows)))
        return walk_create(self, eid, arrows)

    def counted_step(self, eid, arrow):
        if rounds:
            rounds[-1]["steps"] += 1
        return step_create(self, eid, arrow)

    def counted_roots(self, since):
        roots = roots_since(self, since)
        if rounds:
            rounds[-1]["visits"] += roots
        return roots

    with monkeypatch.context() as patch:
        patch.setattr(engine_class, "apply_equations", counted_apply)
        patch.setattr(engine_class, "walk_create", counted_walk)
        patch.setattr(engine_class, "step_create", counted_step)
        patch.setattr(engine_class, "roots_since", counted_roots)
        patch.setattr(_ReadCounting, "reads", [])
        log = MigrationLog()
        engine = engine_class(translation, instance, 100_000, log)
        engine.img = {name: _ReadCounting() for name in engine.img}
        engine.run()
    return rounds, log.saturation_rounds


def test_sigma_round_revisits_only_new_elements(monkeypatch, F, I):
    # A pass that ran over a class leaves it total and its equations
    # settled, so the last round, which changes nothing, visits, starts
    # walks from and reads the images of only elements made since the round
    # before.  Rescanning every root, the last round visited 35 roots on the
    # two-fact input, and walked from all 200 employees on the company's
    company = {"Employee": 200, "Department": 8, "String1": 10, "String2": 20, "String3": 8}
    facts = {"T": 7, "SSN": 9, "First": 6, "Last": 5, "Salary": 8}
    cases = {
        # the last round visits the 8 departments that the first round's
        # equation at Employee made, and that equation passes over them
        "company": (*company_staff(random.Random(2024), 200, 8), [company] * 2, 2 * 200, 8),
        # the last round visits the 7 Skolems the first made, all leaves
        "two facts": (F, I, [facts] * 2, 0, 7),
    }
    for name, (translation, instance, want_log, first_walks, want_visits) in cases.items():
        rounds, log = _chase_round_work(monkeypatch, translation, instance)
        assert log == want_log, name
        assert len(rounds[0]["walks"]) >= first_walks, name
        before, last = rounds[-2], rounds[-1]
        assert all(eid >= before["made"] for eid, _ in last["walks"]), name
        assert all(tid >= before["made"] for tid in last["visits"]), name
        assert all(tid >= before["made"] for tid in last["reads"]), name
        assert len(last["visits"]) == want_visits, name
        assert last["steps"] <= sum(steps for _, steps in last["walks"]), name


def _containers_made_by_chase(employees: int) -> int:
    """How many more objects the garbage collector tracks after the chase
    of a company input than before it, counted with collection off."""
    translation, instance = company_staff(random.Random(2024), employees, 8)
    engine = migration._SigmaEngine(translation, instance, 100_000, None)
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        before = len(gc.get_objects())
        engine.run()
        return len(gc.get_objects()) - before
    finally:
        if enabled:
            gc.enable()


def test_sigma_chase_state_is_flat():
    # The chase keeps its state in lists indexed by element, so it holds no
    # container per element: a dict of images and a term tuple each grew
    # the count by 624 at 500 employees and by 2 349 at 2 000
    assert _containers_made_by_chase(2000) - _containers_made_by_chase(500) < 50


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


class _RescannedRounds(list):
    """A chase's round log that checks each round's counts, kept as running
    totals, against a rescan of the chase's roots."""

    def __init__(self, engine):
        super().__init__()
        self.engine = engine

    def append(self, counts):
        engine = self.engine
        rescan = {v: 0 for v in engine.D.vertices}
        for tid, parent in enumerate(engine.parent):
            if parent == tid:
                rescan[engine.vertex_of[tid]] += 1
        assert list(counts.items()) == list(rescan.items())
        super().append(counts)


def test_sigma_matches_the_merge_back_chase(monkeypatch):
    # The reference makes both sides of each equation and merges them; it
    # charges the bound for Skolems it merges back, so it may overflow where
    # the settling chase does not, but never the other way round.  Row ids
    # may differ: each is the least term the chase happened to make
    run = migration._SigmaEngine.run
    rescanned = []

    def run_with_rescans(self):
        self.log.saturation_rounds = _RescannedRounds(self)
        rescanned.append(self.log.saturation_rounds)
        run(self)

    monkeypatch.setattr(migration._SigmaEngine, "run", run_with_rescans)
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
    # every draw's round log, 3 525 rounds, was checked against a rescan
    assert len(rescanned) == 2400 and sum(map(len, rescanned)) > 3000
    # 2 of the 1 796 draws that succeed print other row ids
    assert other_ids <= 0.01 * (outcomes["same"] + outcomes["only the reference failed"])


SIGMA_DRAWS = pathlib.Path(__file__).resolve().parent / "expected" / "sigma_draws.txt"


def _sigma_digest(translation: Translation, instance: Instance, bound: int) -> str:
    """A short sha256 of all that ``sigma_full`` gives on one input: its
    rows, its columns as sorted items, its round log, ``seed_row`` and
    ``row_term``; or else its error's type and text."""
    log = MigrationLog()
    try:
        result = sigma_full(translation, instance, bound, log)
    except EngineError as error:
        facts = (type(error).__name__, str(error))
    else:
        out = result.instance
        facts = (
            dict(out.rows),
            sorted((name, sorted(column.items())) for name, column in out.columns.items()),
            log.saturation_rounds,
            sorted(result.seed_row.items()),
            sorted(result.row_term.items()),
        )
    return hashlib.sha256(repr(facts).encode()).hexdigest()[:16]


def _sigma_draw_digests() -> list[str]:
    rng = random.Random(8128)
    return [_sigma_digest(*_sigma_draw(rng, case)) for case in range(2400)]


def test_sigma_prints_the_locked_output_on_every_draw():
    # The chase's exact output, row ids and error texts included, on the
    # draws of test_sigma_matches_the_merge_back_chase, one digest a line.
    # Regenerate the file with ``python -m tests.test_migration``
    want = SIGMA_DRAWS.read_text(encoding="utf-8").split()
    got = _sigma_draw_digests()
    assert len(want) == len(got) == 2400
    assert [case for case in range(2400) if got[case] != want[case]] == []


def test_sigma_on_morphism_inclusion_and_merge(F, I):
    # identity maps to identity
    assert sigma_on_morphism(F, identity_morphism(I)) == identity_morphism(sigma(F, I))
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
        assert m == identity_morphism(I)


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
    assert left == identity_morphism(sigma(F, I))
    # ... and (delta of counit) after (unit at delta J) is the identity
    pulled = delta(F, J)
    unit_at_delta = sigma_unit(F, pulled)
    delta_of_counit = delta_on_morphism(F, sigma_counit(F, J))
    right = compose_morphisms(unit_at_delta, delta_of_counit)
    assert right == identity_morphism(pulled)
    # delta -| pi: (pi of counit) after (unit at pi I) is the identity
    limit = pi(F, I)
    unit_at_pi = pi_unit(F, limit)
    pi_of_counit = pi_on_morphism(F, pi_counit(F, I))
    top = compose_morphisms(unit_at_pi, pi_of_counit)
    assert top == identity_morphism(limit)
    # ... and (counit at delta J) after (delta of unit) is the identity
    delta_of_unit = delta_on_morphism(F, pi_unit(F, J))
    counit_at_delta = pi_counit(F, delta(F, J))
    bottom = compose_morphisms(delta_of_unit, counit_at_delta)
    assert bottom == identity_morphism(pulled)


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
    assert log.saturation_rounds, "no per-round element counts recorded"
    final = log.saturation_rounds[-1]
    assert final["T"] == 7
    assert final["Salary"] == 8


def test_pi_raises_where_it_cannot_place_a_comma_morphism(paper_env):
    # with a zero rewrite budget the composite t.r cannot be placed in the d
    # class: pi fails loudly at the comma morphism rather than drop it
    attach = paper_env[("translation", "Attach")]
    values = paper_env[("instance", "Values")]
    with pytest.raises(PathBoundInstabilityError) as caught:
        pi(attach, values, path_bound=1, budget=0)
    assert caught.value.vertex == "X"
    assert "comma morphism of source arrow" in str(caught.value)
    assert "composite t.r has no path class at 'X'" in str(caught.value)
    # an ample budget places every composite: correct result
    result = pi(attach, values, path_bound=1, budget=64)
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


if __name__ == "__main__":
    for path, digests in ((SIGMA_DRAWS, _sigma_draw_digests()), (PI_DRAWS, _pi_draw_digests())):
        path.write_text("".join(digest + "\n" for digest in digests), encoding="utf-8")
