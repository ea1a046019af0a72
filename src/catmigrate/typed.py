"""Typed instances and type-change functors.

A typed instance is an instance together with a morphism into a fixed typing
instance (an object of the slice category over that typing instance).  A
morphism k between typing instances induces three type-change functors:

* ``typechange_sigma`` post-composes the typing with k (retyping cells);
* ``typechange_delta`` pulls back along k (filtering when k is injective,
  duplication otherwise);
* ``typechange_pi`` forms the dependent product: over each target type the
  rows are the choice functions picking one source row per k-preimage.

The slice category over a typing instance P is the category of instances on
P's category of elements, so typed hom-sets are counted as plain ones there.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import SchemaMismatchError, StructuralError, TypeChangeError
from .instances import (
    Instance,
    InstanceMorphism,
    compose_morphisms,
    count_morphisms,
    instance_fiber_product,
    require_natural,
    unpaired_images,
    validate_morphism,
)
from .migration import (
    DEFAULT_ELEMENT_CAP,
    DEFAULT_PATH_BOUND,
    MigrationLog,
    Translation,
    pi,
)
from .naming import encode_component, pair_id
from .schemas import DEFAULT_REWRITE_BUDGET, Arrow, Graph, Schema


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
    """Left pushforward: same instance, typing post-composed with k.  A k that
    is not natural would give a typing that is not natural, so it raises
    ``StructuralError``."""
    if t.typing.target != k.source:
        raise SchemaMismatchError("typechange_sigma: typing does not land in k's source")
    require_natural(k, "k")
    return TypedInstance(compose_morphisms(t.typing, k))


def typechange_delta(k: InstanceMorphism, t: TypedInstance) -> TypedInstance:
    """Pullback along k: the fiber product of the instance with k's source.

    When k is injective this is a filter: the rows typed inside k's image
    keep their ids, and the columns are restricted to them.  Otherwise rows
    are duplicated with pair ids, as the right leg of the fiber product.
    Either way a column value whose pair of images is not a row, which only
    a typing or a k that is not natural gives, raises ``StructuralError``.
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
        p_column = k.source.column(arrow.name)
        over = typing[arrow.target]
        columns[arrow.name] = mapping = {}
        for x, p in typing[arrow.source].items():
            y = mapping[x] = column[x]
            # the fiber product's row (y, p's image) exists iff y is kept over it
            if over.get(y) != p_column[p]:
                raise StructuralError(unpaired_images(arrow.name, x, y, p, p_column[p]))
    pulled = Instance(schema, rows, columns)
    return TypedInstance(InstanceMorphism(pulled, k.source, typing))


def typechange_pi(k: InstanceMorphism, t: TypedInstance) -> TypedInstance:
    """Right pushforward (group satisfaction): over each target type q the
    rows are the choice functions assigning to every p in the k-fiber of q
    a row typed p.  Arrow actions are pointwise and must be well defined,
    otherwise the input is inconsistent and the construction errors.

    A section over q is a mixed-radix number: its digits are the positions
    of its rows in the pools of q's fiber, last digit fastest, the order in
    which ``itertools.product`` lists them.  A row's place is its digit
    times its pool's stride, so an arrow sends a section to the first
    section over the image of q plus the places of its images.
    """
    if t.typing.target != k.source:
        raise SchemaMismatchError("typechange_pi: typing does not land in k's source")
    P = k.source
    Q = k.target
    instance = t.instance
    schema = instance.schema

    fibers: dict[str, dict[str, list[str]]] = {}  # vertex -> q -> ordered ps
    pools: dict[str, dict[str, list[str]]] = {}  # vertex -> p -> ordered rows
    for v in schema.vertices:
        kv = k.component(v)
        fibers[v] = {q: [] for q in Q.row_set(v)}
        for p in P.row_set(v):
            fibers[v].setdefault(kv[p], []).append(p)
        tau = t.typing.component(v)
        pools[v] = {p: [] for p in P.row_set(v)}
        for x in instance.row_set(v):
            pools[v][tau[x]].append(x)

    rows: dict[str, tuple[str, ...]] = {}
    spans: dict[str, dict[str, tuple[int, int]]] = {}  # vertex -> q -> its sections' positions
    places: dict[str, dict[tuple[str, str], int]] = {}  # vertex -> (p, row typed p) -> place
    typing_comp: dict[str, dict[str, str]] = {}
    for v in schema.vertices:
        names: list[str] = []
        spans[v] = {}
        places[v] = place = {}
        typing_comp[v] = {}
        for q in Q.row_set(v):
            ps = fibers[v][q]
            stride = 1
            for p in reversed(ps):
                for digit, x in enumerate(pools[v][p]):
                    place[p, x] = digit * stride
                stride *= len(pools[v][p])
            if ps:
                encoded = [[encode_component(x) for x in pools[v][p]] for p in ps]
                block = ["(" + ",".join(choice) + ")" for choice in itertools.product(*encoded)]
            else:
                block = [f"()@{q}"]
            spans[v][q] = (len(names), len(names) + len(block))
            names += block
            typing_comp[v].update(dict.fromkeys(block, q))
        rows[v] = tuple(names)

    columns: dict[str, dict[str, str]] = {}
    for arrow in schema.arrows:
        v, w = arrow.source, arrow.target
        col = instance.column(arrow.name)
        p_col = P.column(arrow.name)
        q_col = Q.column(arrow.name)
        mapping = {}
        for q, (start, stop) in spans[v].items():
            if start == stop:
                continue
            ps = fibers[v][q]
            q_out = q_col[q]
            p_outs = [p_col[p] for p in ps]
            covered = set(p_outs) == set(fibers[w][q_out])
            # per position and digit: the image, and its place if it is typed p_out
            options = [
                [(col[x], places[w].get((p_out, col[x]))) for x in pools[v][p]]
                for p, p_out in zip(ps, p_outs)
            ]
            # each position's image must agree with that at the first position of its p_out
            first_of = [p_outs.index(p_out) for p_out in p_outs]
            repeats = [(i, j) for i, j in enumerate(first_of) if j < i]
            firsts = [i for i, j in enumerate(first_of) if j == i]
            base = spans[w][q_out][0]
            for name, choice in zip(rows[v][start:stop], itertools.product(*options)):
                for i, j in repeats:
                    if choice[i][0] != choice[j][0]:
                        raise TypeChangeError(
                            f"pointwise action of {arrow.name!r} on row {name!r} is "
                            f"ambiguous at type {p_outs[i]!r}"
                        )
                if not covered:
                    raise TypeChangeError(
                        f"pointwise action of {arrow.name!r} on row {name!r} does not "
                        f"cover the fiber of {q_out!r}"
                    )
                out = base
                for i in firsts:
                    image_place = choice[i][1]
                    if image_place is None:
                        raise TypeChangeError(
                            f"action of {arrow.name!r} on row {name!r} does not land in a "
                            "constructed family; input is inconsistent"
                        )
                    out += image_place
                mapping[name] = rows[w][out]
        columns[arrow.name] = mapping

    product = Instance(schema, rows, columns)
    typing = InstanceMorphism(product, Q, typing_comp)
    return TypedInstance(typing)


def _on_elements(t: TypedInstance) -> Instance:
    """``t`` as a plain instance on the category of elements of its typing
    instance P: an instance typed over P is an instance on that category.

    Vertex ``(v,p)`` holds the rows of ``t`` typed p, in table order, and
    arrow ``(a,p)`` goes from ``(v,p)`` to the vertex of P's image of p, its
    column being a's restricted to the rows typed p.  The category of
    elements gets no equations: both ends of a morphism already satisfy the
    schema's, and whether a map is natural does not depend on them.
    """
    P = t.typing_instance
    schema = P.schema
    rows: dict[str, list[str]] = {}
    for v in schema.vertices:
        typed_as = {p: rows.setdefault(pair_id(v, p), []) for p in P.row_set(v)}
        tau = t.typing.component(v)
        for x in t.instance.row_set(v):
            typed_as[tau[x]].append(x)
    arrows = []
    columns: dict[str, dict[str, str]] = {}
    for a in schema.arrows:
        column = t.instance.column(a.name)
        p_column = P.column(a.name)
        for p in P.row_set(a.source):
            name = pair_id(a.name, p)
            source = pair_id(a.source, p)
            arrows.append(Arrow(name, source, pair_id(a.target, p_column[p])))
            columns[name] = {x: column[x] for x in rows[source]}
    graph = Graph(tuple(rows), tuple(arrows))
    return Instance(Schema(pair_id("elements", schema.name), graph), rows, columns)


def count_typed_morphisms(t: TypedInstance, u: TypedInstance, cap: int = 5_000_000) -> int:
    """Count slice morphisms t -> u: instance morphisms commuting with the
    typings.  They are the plain morphisms between t and u read as instances
    on the category of elements of the shared typing instance, so they are
    counted by ``count_morphisms`` there, with its ``cap``.  Both typings must
    be natural."""
    if t.typing_instance != u.typing_instance:
        raise SchemaMismatchError("typed morphisms need a shared typing instance")
    require_natural(t.typing, "typing of the source")
    require_natural(u.typing, "typing of the target")
    return count_morphisms(_on_elements(t), _on_elements(u), cap)
