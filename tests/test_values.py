"""The value classes, pinned one example each: constructors, ``repr``,
``==``, ``hash``, frozenness, and copying and pickling of schemas.

A frozen value refuses assignment and deletion with
``dataclasses.FrozenInstanceError``; a mutable record accepts both and is
unhashable.  ``==`` compares the tuples of the fields between two values of
one class, and is ``NotImplemented`` against anything else, a subclass too.
``hash`` is the hash of that tuple, except on the values that hold tables,
which are unhashable.
"""
from __future__ import annotations

import copy
import dataclasses
import pickle

import pytest

from catmigrate import dsl, migration, rdf
from catmigrate.instances import (
    EquationViolation,
    Instance,
    InstanceMorphism,
    NaturalityViolation,
)
from catmigrate.migration import (
    AdjunctionWitnesses,
    MigrationLog,
    MigrationPipeline,
    PiResult,
    PipelineStep,
    SigmaResult,
    StepKind,
    Translation,
    UnverifiedEquivalence,
    identity_translation,
    sigma_full,
)
from catmigrate.schemas import (
    Arrow,
    Equivalence,
    Graph,
    Path,
    PathEquivalence,
    Schema,
    paths_equivalent,
)
from catmigrate.typed import TypedInstance, TypingAuxiliary

from .conftest import load_documents

FROZEN = {
    Arrow, Graph, Path, PathEquivalence, Schema,
    Instance, EquationViolation,
    InstanceMorphism, NaturalityViolation,
    Translation, UnverifiedEquivalence, TypedInstance,
}
UNHASHABLE_FROZEN = {Instance, InstanceMorphism, Translation}


def _examples():
    """(class, field names, arguments, arguments differing in one field)."""
    graph = Graph(("A", "B"), (Arrow("f", "A", "B"),))
    looped = Graph(("A", "B"), (Arrow("f", "A", "B"), Arrow("g", "B", "B")))
    schema = Schema("S", graph)
    eq = PathEquivalence(Path("B", ("g", "g")), Path("B", ("g",)))
    rows, cols = {"A": ("a",), "B": ("x",)}, {"f": {"a": "x"}}
    inst = Instance(schema, rows, cols)
    typing = Instance(schema, {"A": ("t",), "B": ("u",)}, {"f": {"t": "u"}})
    ident = {"A": {"a": "a"}, "B": {"x": "x"}}
    m = InstanceMorphism(inst, inst, ident)
    typed_m = InstanceMorphism(inst, typing, {"A": {"a": "t"}, "B": {"x": "u"}})
    F = identity_translation(schema)
    looped_schema = Schema("S", looped)
    step = PipelineStep(StepKind.DELTA, F)
    decl = dsl.SchemaDecl("S", schema)
    return [
        (Arrow, ("name", "source", "target"), ("f", "A", "B"), ("f", "A", "C")),
        (Graph, ("vertices", "arrows"), (graph.vertices, graph.arrows),
         (looped.vertices, looped.arrows)),
        (Path, ("source", "arrows"), ("A", ("f",)), ("A", ())),
        (PathEquivalence, ("lhs", "rhs"), (eq.lhs, eq.rhs), (eq.lhs, eq.lhs)),
        (Schema, ("name", "graph", "equivalences"), ("S", looped, (eq,)), ("S", looped, ())),
        (Instance, ("schema", "rows", "columns"), (schema, rows, cols),
         (schema, {"A": ("a",), "B": ("y",)}, {"f": {"a": "y"}})),
        (EquationViolation, ("equation", "row", "lhs_value", "rhs_value"),
         ("B : g.g = g", "x", "y", "z"), ("B : g.g = g", "x", "y", "x")),
        (InstanceMorphism, ("source", "target", "components"), (inst, inst, ident),
         (inst, typing, {"A": {"a": "t"}, "B": {"x": "u"}})),
        (NaturalityViolation, ("arrow", "row", "via_target", "via_source"),
         ("f", "a", "x", "y"), ("f", "a", "x", "x")),
        (MigrationLog, ("warnings", "saturation_rounds"), (["w"], [{"A": 1}]), (["w"], [])),
        (Translation, ("source", "target", "vertex_map", "arrow_map"),
         (schema, schema, {"A": "A", "B": "B"}, {"f": Path("A", ("f",))}),
         (schema, looped_schema, {"A": "A", "B": "B"}, {"f": Path("A", ("f",))})),
        (UnverifiedEquivalence, ("equation", "lhs_image", "rhs_image", "budget"),
         ("B : g.g = g", "g.g", "g", 64), ("B : g.g = g", "g.g", "g", 1)),
        (SigmaResult, ("instance", "seed_row", "row_term"),
         (inst, {("A", "a"): "a"}, {("A", "a"): ("A", "a", ())}),
         (inst, {("A", "a"): "b"}, {("A", "a"): ("A", "a", ())})),
        (migration._VertexFamilies,
         ("classes", "targets", "placed", "comps", "rows", "exhausted"),
         ([Path("A")], ["A"], {(): 0}, [("A", 0)], {("a",): "a"}, True),
         ([Path("A")], ["A"], {(): 0}, [("A", 0)], {("a",): "a"}, False)),
        (PiResult, ("instance", "data"), (inst, {}), (typing, {})),
        (AdjunctionWitnesses, ("unit_sigma", "counit_sigma", "unit_pi", "counit_pi"),
         (m, m, m, m), (m, m, m, typed_m)),
        (PipelineStep, ("kind", "translation", "type_morphism"),
         (StepKind.DELTA, F, None), (StepKind.SIGMA, F, None)),
        (MigrationPipeline, ("steps",), ((step,),), ((),)),
        (dsl.SchemaDecl, ("name", "schema"), ("S", schema), ("T", schema)),
        (dsl.InstanceDecl, ("name", "schema_name", "instance"), ("I", "S", inst), ("I", "S", typing)),
        (dsl.TranslationDecl, ("name", "source_name", "target_name", "translation"),
         ("F", "S", "S", F), ("G", "S", "S", F)),
        (dsl.MorphismDecl, ("name", "source_name", "target_name", "morphism"),
         ("m", "I", "I", m), ("m", "I", "P", typed_m)),
        (dsl.TypedInstanceDecl, ("name", "instance_name", "typing_name", "typed"),
         ("T", "I", "P", TypedInstance(typed_m)), ("U", "I", "P", TypedInstance(typed_m))),
        (dsl.Document, ("declarations",), ([decl],), ([],)),
        (TypedInstance, ("typing",), (typed_m,), (m,)),
        (TypingAuxiliary, ("bridge", "values", "attachment"), (schema, inst, F), (schema, typing, F)),
        (rdf.TripleStore, ("schema", "nodes", "triples"),
         (schema, (("A/a", "A"), ("B/x", "B")), (("A/a", "f", "B/x"),)),
         (schema, (("A/a", "A"), ("B/x", "B")), ())),
    ]


EXAMPLES = _examples()
IDS = [cls.__name__ for cls, *_ in EXAMPLES]
FROZEN_EXAMPLES = [example for example in EXAMPLES if example[0] in FROZEN]
MUTABLE_EXAMPLES = [example for example in EXAMPLES if example[0] not in FROZEN]


def test_every_value_class_has_an_example():
    assert len(EXAMPLES) == 27 and len(set(IDS)) == 27
    assert {cls for cls, *_ in EXAMPLES} >= FROZEN


def _field_tuple(value, names):
    return tuple(getattr(value, name) for name in names)


@pytest.mark.parametrize(("cls", "names", "args", "other"), EXAMPLES, ids=IDS)
def test_repr_names_every_field_in_order(cls, names, args, other):
    value = cls(*args)
    shown = ", ".join(f"{name}={field!r}" for name, field in zip(names, _field_tuple(value, names)))
    assert repr(value) == f"{cls.__name__}({shown})"


@pytest.mark.parametrize(("cls", "names", "args", "other"), EXAMPLES, ids=IDS)
def test_keywords_build_the_same_value(cls, names, args, other):
    assert cls(**dict(zip(names, args))) == cls(*args)


@pytest.mark.parametrize(("cls", "names", "args", "other"), EXAMPLES, ids=IDS)
def test_equality_is_field_tuple_equality_within_one_class(cls, names, args, other):
    value, twin, different = cls(*args), cls(*args), cls(*other)
    assert value is not twin and value == twin and not value != twin
    assert value != different and not value == different
    assert (_field_tuple(value, names) == _field_tuple(different, names)) is False
    assert value.__eq__(_field_tuple(value, names)) is NotImplemented
    assert value.__eq__(object()) is NotImplemented
    assert value != _field_tuple(value, names)

    class Sub(cls):
        pass

    assert value.__eq__(Sub(*args)) is NotImplemented
    assert value != Sub(*args)


@pytest.mark.parametrize(("cls", "names", "args", "other"), EXAMPLES, ids=IDS)
def test_hash_is_the_field_tuples_or_refused(cls, names, args, other):
    value = cls(*args)
    if cls not in FROZEN or cls in UNHASHABLE_FROZEN:
        assert cls.__hash__ is None
        with pytest.raises(TypeError, match="unhashable type"):
            hash(value)
    elif cls is TypedInstance:  # its one field, a morphism, is unhashable
        with pytest.raises(TypeError, match="unhashable type"):
            hash(value)
    else:
        assert hash(value) == hash(_field_tuple(value, names)) == hash(cls(*args))


@pytest.mark.parametrize(
    ("cls", "names", "args", "other"), FROZEN_EXAMPLES, ids=[e[0].__name__ for e in FROZEN_EXAMPLES]
)
def test_frozen_values_refuse_assignment_and_deletion(cls, names, args, other):
    value = cls(*args)
    before = repr(value)
    for name in names + ("extra",):
        with pytest.raises(dataclasses.FrozenInstanceError) as info:
            setattr(value, name, None)
        assert str(info.value) == f"cannot assign to field {name!r}"
        assert isinstance(info.value, AttributeError)
    for name in names:
        with pytest.raises(dataclasses.FrozenInstanceError) as info:
            delattr(value, name)
        assert str(info.value) == f"cannot delete field {name!r}"
    assert repr(value) == before


@pytest.mark.parametrize(
    ("cls", "names", "args", "other"), MUTABLE_EXAMPLES, ids=[e[0].__name__ for e in MUTABLE_EXAMPLES]
)
def test_mutable_records_take_assignment(cls, names, args, other):
    value, target = cls(*args), cls(*other)
    for name in names:
        setattr(value, name, getattr(target, name))
    assert value == target


def test_repr_texts():
    graph = Graph(("A", "B"), (Arrow("f", "A", "B"),))
    schema = Schema("S", graph)
    assert repr(Arrow("f", "A", "B")) == "Arrow(name='f', source='A', target='B')"
    assert repr(Path("A")) == "Path(source='A', arrows=())"
    assert repr(graph) == (
        "Graph(vertices=('A', 'B'), arrows=(Arrow(name='f', source='A', target='B'),))"
    )
    assert repr(schema) == f"Schema(name='S', graph={graph!r}, equivalences=())"
    assert repr(PathEquivalence(Path("A"), Path("A"))) == (
        "PathEquivalence(lhs=Path(source='A', arrows=()), rhs=Path(source='A', arrows=()))"
    )
    instance = Instance(schema, {"A": ("a",), "B": ("x",)}, {"f": {"a": "x"}})
    assert repr(instance) == (
        f"Instance(schema={schema!r}, rows=mappingproxy({{'A': ('a',), 'B': ('x',)}}), "
        "columns=mappingproxy({'f': mappingproxy({'a': 'x'})}))"
    )
    assert repr(MigrationLog()) == "MigrationLog(warnings=[], saturation_rounds=[])"
    assert repr(PipelineStep(StepKind.PI)) == (
        "PipelineStep(kind=<StepKind.PI: 'pi'>, translation=None, type_morphism=None)"
    )
    assert repr(MigrationPipeline()) == "MigrationPipeline(steps=())"
    assert repr(dsl.Document()) == "Document(declarations=[])"
    assert repr(rdf.TripleStore(schema)) == f"TripleStore(schema={schema!r}, nodes=(), triples=())"


def test_defaults():
    schema = Schema("S")
    assert schema.graph == Graph() == Graph((), ())
    assert Instance(schema) == Instance(schema, {}, {})
    instance = Instance(schema)
    assert InstanceMorphism(instance, instance).components == {}
    first, second = MigrationLog(), MigrationLog()
    first.warn("w")
    assert second.warnings == [] and second.saturation_rounds == []
    assert dsl.Document().declarations == [] and dsl.Document().declarations is not (
        dsl.Document().declarations
    )
    assert PipelineStep(StepKind.PI) == PipelineStep(StepKind.PI, None, None)
    assert rdf.TripleStore(schema) == rdf.TripleStore(schema, (), ())


def test_graph_and_schema_hash_their_field_tuple():
    _, env = load_documents("employee.cat")
    employee = env[("schema", "Company")]
    assert hash(employee.graph) == hash((employee.graph.vertices, employee.graph.arrows))
    assert hash(employee) == hash((employee.name, employee.graph, employee.equivalences))


@pytest.mark.parametrize(
    "clone",
    [copy.copy, copy.deepcopy, lambda s: pickle.loads(pickle.dumps(s))],
    ids=["copy", "deepcopy", "pickle"],
)
def test_schema_copies_and_pickles(clone):
    _, env = load_documents("employee.cat")
    employee = env[("schema", "Company")]
    twin = clone(employee)
    assert twin == employee and hash(twin) == hash(employee) and repr(twin) == repr(employee)
    assert twin.graph.arrow("Mgr") == employee.graph.arrow("Mgr")
    assert twin.graph.out_arrows("Employee") == employee.graph.out_arrows("Employee")
    assert twin.graph.arrow_order("isIn") == employee.graph.arrow_order("isIn")
    lhs, rhs = Path("Employee", ("Mgr", "isIn")), Path("Employee", ("isIn",))
    assert paths_equivalent(twin, lhs, rhs) is Equivalence.EQUIVALENT
    with pytest.raises(dataclasses.FrozenInstanceError):
        twin.name = "Other"


def test_sigma_result_reads_as_its_field_tuple():
    _, env = load_documents("employee.cat", "inferred_departments.cat")
    F, source = env[("translation", "Infer")], env[("instance", "Crew")]
    first, second = sigma_full(F, source), sigma_full(F, source)
    shown = repr(first)  # before either field of ``first`` was read
    assert shown == (
        f"SigmaResult(instance={second.instance!r}, seed_row={second.seed_row!r}, "
        f"row_term={second.row_term!r})"
    )
    assert first == second == SigmaResult(second.instance, second.seed_row, second.row_term)
    assert list(first.seed_row) == [
        (c, r) for c in F.source.vertices for r in source.row_set(c)
    ]
    assert list(first.row_term) == [
        (d, row) for d in F.target.vertices for row in first.instance.row_set(d)
    ]
