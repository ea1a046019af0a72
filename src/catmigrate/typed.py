"""Typed instances and type-change functors.

A typed instance is an instance together with a morphism into a fixed typing
instance (an object of the slice category over that typing instance).  A
morphism k between typing instances induces three type-change functors:

* ``typechange_sigma`` post-composes the typing with k (retyping cells);
* ``typechange_delta`` pulls back along k (filtering when k is injective,
  duplication otherwise);
* ``typechange_pi`` forms the dependent product: over each target type the
  rows are the choice functions picking one source row per k-preimage.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import SchemaMismatchError, TypeChangeError
from .instances import (
    Instance,
    InstanceMorphism,
    compose_morphisms,
    enumerate_morphisms,
    instance_fiber_product,
    validate_morphism,
)
from .migration import (
    DEFAULT_ELEMENT_CAP,
    DEFAULT_PATH_BOUND,
    MigrationLog,
    Translation,
    pi,
)
from .naming import tuple_id, uniquify
from .schemas import DEFAULT_REWRITE_BUDGET, Schema


@dataclass
class TypedInstance:
    """An instance with a typing morphism into a typing instance."""

    typing: InstanceMorphism

    @property
    def instance(self) -> Instance:
        return self.typing.source

    @property
    def typing_instance(self) -> Instance:
        return self.typing.target


@dataclass
class TypingAuxiliary:
    """A bridge schema, its extensional value assignment, and the attachment
    translation into the data schema; the implied typing instance is the
    right pushforward of the values along the attachment."""

    bridge: Schema
    values: Instance
    attachment: Translation

    def __post_init__(self):
        if self.values.schema != self.bridge:
            raise SchemaMismatchError("typing auxiliary values are not on the bridge schema")
        if self.attachment.source != self.bridge:
            raise SchemaMismatchError("typing auxiliary attachment does not start at the bridge")


def implied_typing_instance(
    aux: TypingAuxiliary,
    path_bound: int = DEFAULT_PATH_BOUND,
    budget: int = DEFAULT_REWRITE_BUDGET,
    element_cap: int = DEFAULT_ELEMENT_CAP,
    log: MigrationLog | None = None,
) -> Instance:
    return pi(
        aux.attachment,
        aux.values,
        path_bound=path_bound,
        budget=budget,
        element_cap=element_cap,
        log=log,
    )


def validate_typed(t: TypedInstance) -> list:
    """Typing enforcement is exactly naturality checking of the typing morphism."""
    return validate_morphism(t.typing)


def typechange_sigma(k: InstanceMorphism, t: TypedInstance) -> TypedInstance:
    """Left pushforward: same instance, typing post-composed with k."""
    if t.typing.target != k.source:
        raise SchemaMismatchError("typechange_sigma: typing does not land in k's source")
    return TypedInstance(compose_morphisms(t.typing, k))


def typechange_delta(k: InstanceMorphism, t: TypedInstance) -> TypedInstance:
    """Pullback along k: the fiber product of the instance with k's source.

    When k is injective this is a filter: the rows typed inside k's image
    keep their ids, and the columns are restricted to them.  Otherwise rows
    are duplicated with pair ids, as the right leg of the fiber product.
    """
    if t.typing.target != k.target:
        raise SchemaMismatchError("typechange_delta: typing does not land in k's target")
    schema = t.instance.schema
    injective = all(
        len(set(k.component(v).values())) == len(k.component(v))
        for v in schema.vertices
    )
    if not injective:
        return TypedInstance(instance_fiber_product(t.typing, k)[2])

    rows: dict[str, tuple[str, ...]] = {}
    typing: dict[str, dict[str, str]] = {}
    for v in schema.vertices:
        kv = k.component(v)
        preimage = {kv[p]: p for p in k.source.row_set(v)}
        tau = t.typing.component(v)
        typing[v] = {x: preimage[tau[x]] for x in t.instance.row_set(v) if tau[x] in preimage}
        rows[v] = tuple(typing[v])
    columns: dict[str, dict[str, str]] = {}
    for arrow in schema.arrows:
        column = t.instance.column(arrow.name)
        columns[arrow.name] = {x: column[x] for x in rows[arrow.source]}
    pulled = Instance(schema, rows, columns)
    return TypedInstance(InstanceMorphism(pulled, k.source, typing))


def typechange_pi(k: InstanceMorphism, t: TypedInstance) -> TypedInstance:
    """Right pushforward (group satisfaction): over each target type q the
    rows are the choice functions assigning to every p in the k-fiber of q
    a row typed p.  Arrow actions are pointwise and must be well defined,
    otherwise the input is inconsistent and the construction errors."""
    if t.typing.target != k.source:
        raise SchemaMismatchError("typechange_pi: typing does not land in k's source")
    P = k.source
    Q = k.target
    schema = t.instance.schema

    fibers: dict[str, dict[str, list[str]]] = {}  # vertex -> q -> ordered ps
    tau_fibers: dict[str, dict[str, list[str]]] = {}  # vertex -> p -> ordered rows
    for v in schema.vertices:
        kv = k.component(v)
        fibers[v] = {q: [p for p in P.row_set(v) if kv[p] == q] for q in Q.row_set(v)}
        tau = t.typing.component(v)
        tau_fibers[v] = {p: [] for p in P.row_set(v)}
        for x in t.instance.row_set(v):
            tau_fibers[v][tau[x]].append(x)

    rows: dict[str, tuple[str, ...]] = {}
    data: dict[str, list[tuple[str, dict[str, str]]]] = {}  # vertex -> [(q, section)]
    index: dict[str, dict[tuple[str, frozenset], str]] = {}
    typing_comp: dict[str, dict[str, str]] = {}
    for v in schema.vertices:
        entries: list[tuple[str, dict[str, str]]] = []
        names: list[str] = []
        for q in Q.row_set(v):
            ps = fibers[v][q]
            pools = [tau_fibers[v][p] for p in ps]
            for choice in itertools.product(*pools):
                section = dict(zip(ps, choice))
                entries.append((q, section))
                if ps:
                    names.append(tuple_id(tuple(choice)))
                else:
                    names.append(f"()@{q}")
        names = uniquify(names)
        rows[v] = tuple(names)
        data[v] = entries
        index[v] = {
            (q, frozenset(section.items())): name
            for (q, section), name in zip(entries, names)
        }
        typing_comp[v] = {name: q for (q, _), name in zip(entries, names)}

    columns: dict[str, dict[str, str]] = {}
    for arrow in schema.arrows:
        v, w = arrow.source, arrow.target
        col = t.instance.column(arrow.name)
        p_col = P.column(arrow.name)
        q_col = Q.column(arrow.name)
        mapping = {}
        for (q, section), name in zip(data[v], rows[v]):
            q_out = q_col[q]
            out_section: dict[str, str] = {}
            for p, x in section.items():
                p_out = p_col[p]
                image = col[x]
                if out_section.get(p_out, image) != image:
                    raise TypeChangeError(
                        f"pointwise action of {arrow.name!r} on row {name!r} is "
                        f"ambiguous at type {p_out!r}"
                    )
                out_section[p_out] = image
            required = set(fibers[w][q_out])
            if set(out_section) != required:
                raise TypeChangeError(
                    f"pointwise action of {arrow.name!r} on row {name!r} does not "
                    f"cover the fiber of {q_out!r}"
                )
            out = index[w].get((q_out, frozenset(out_section.items())))
            if out is None:
                raise TypeChangeError(
                    f"action of {arrow.name!r} on row {name!r} does not land in a "
                    "constructed family; input is inconsistent"
                )
            mapping[name] = out
        columns[arrow.name] = mapping

    product = Instance(schema, rows, columns)
    typing = InstanceMorphism(product, Q, typing_comp)
    return TypedInstance(typing)


def enumerate_typed_morphisms(t: TypedInstance, u: TypedInstance, cap: int | None = None):
    """All slice morphisms t -> u: instance morphisms commuting with the typings."""
    if t.typing_instance != u.typing_instance:
        raise SchemaMismatchError("typed morphisms need a shared typing instance")
    for m in enumerate_morphisms(t.instance, u.instance, cap):
        composite = compose_morphisms(m, u.typing)
        if all(
            composite.component(v) == t.typing.component(v)
            for v in t.instance.schema.vertices
        ):
            yield m


def count_typed_morphisms(t: TypedInstance, u: TypedInstance, cap: int | None = None) -> int:
    return sum(1 for _ in enumerate_typed_morphisms(t, u, cap))
