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
from .migration import Translation, pi
from .naming import encode_component, pair_id
from .schemas import Arrow, Graph, Schema
from .values import Record, Value


class TypedInstance(Value):
    """An instance with a typing morphism into a typing instance; the
    morphism checked, when it was built, that every row is typed."""

    _fields = ("typing",)

    def __init__(self, typing: InstanceMorphism):
        object.__setattr__(self, "typing", typing)

    @property
    def instance(self) -> Instance:
        return self.typing.source

    @property
    def typing_instance(self) -> Instance:
        return self.typing.target


class TypingAuxiliary(Record):
    """A bridge schema, its extensional value assignment, and the attachment
    translation into the data schema; the implied typing instance is the
    right pushforward of the values along the attachment."""

    _fields = ("bridge", "values", "attachment")

    def __init__(self, bridge: Schema, values: Instance, attachment: Translation):
        self.bridge = bridge
        self.values = values
        self.attachment = attachment
        if values.schema != bridge:
            raise SchemaMismatchError("typing auxiliary values are not on the bridge schema")
        if attachment.source != bridge:
            raise SchemaMismatchError("typing auxiliary attachment does not start at the bridge")


def implied_typing_instance(aux: TypingAuxiliary) -> Instance:
    return pi(aux.attachment, aux.values)


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

    The sections over q form a block: a mixed-radix number per section, its
    digits the positions of its rows in the pools of q's fiber, last digit
    fastest, the order in which ``itertools.product`` lists them.  A block's
    names are built a level (a position of the fiber) at a time.  A row's
    place is its digit times its pool's stride, so an arrow sends a section
    to the first section over the image of q plus the places of its images,
    and the block's targets are built a level at a time too.  Only a block
    where some section's action is not well defined walks its sections, to
    raise at the first such section (``_raise_first_fault``).
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
    places: dict[str, dict[str, dict[str, int]]] = {}  # vertex -> p -> row typed p -> place
    typing_comp: dict[str, dict[str, str]] = {}
    for v in schema.vertices:
        names: list[str] = []
        spans[v] = {}
        places[v] = {}
        typing_comp[v] = {}
        for q in Q.row_set(v):
            ps = fibers[v][q]
            stride = 1
            for p in reversed(ps):
                places[v][p] = {x: digit * stride for digit, x in enumerate(pools[v][p])}
                stride *= len(pools[v][p])
            if ps:
                block = ["("]
                for i, p in enumerate(ps):
                    end = "," if i < len(ps) - 1 else ")"
                    level = [encode_component(x) + end for x in pools[v][p]]
                    block = [head + x for head in block for x in level]
            else:
                block = [f"()@{q}"]
            spans[v][q] = (len(names), len(names) + len(block))
            names += block
            typing_comp[v].update(zip(block, itertools.repeat(q)))
        rows[v] = tuple(names)

    columns: dict[str, dict[str, str]] = {}
    for arrow in schema.arrows:
        v, w = arrow.source, arrow.target
        col = instance.column(arrow.name)
        p_col = P.column(arrow.name)
        q_col = Q.column(arrow.name)
        targets: list[int] = []  # per section, its image's position in rows[w]
        for q, (start, stop) in spans[v].items():
            if start == stop:
                continue
            ps = fibers[v][q]
            q_out = q_col[q]
            p_outs = [p_col[p] for p in ps]
            # per position: the images of its pool's rows, and what each adds
            # to the target's position; a position whose p_out an earlier one
            # has must agree with it, and adds 0
            images = [list(map(col.__getitem__, pools[v][p])) for p in ps]
            first_of = [p_outs.index(p_out) for p_out in p_outs]
            repeats = [(i, j) for i, j in enumerate(first_of) if j < i]
            steps = [
                list(map(places[w][p_out].get, image)) if j == i else [0] * len(image)
                for i, (j, p_out, image) in enumerate(zip(first_of, p_outs, images))
            ]
            covered = set(p_outs) == set(fibers[w][q_out])
            if (
                not covered
                or any(len(set(images[i]).union(images[j])) > 1 for i, j in repeats)
                or any(None in step for step in steps)
            ):
                _raise_first_fault(
                    arrow.name, rows[v][start:stop], p_outs, q_out, covered, repeats,
                    images, steps,
                )
            outs = [spans[w][q_out][0]]
            for step in steps:
                outs = [out + s for out in outs for s in step]
            targets += outs
        # the blocks with sections, in order, are rows[v]
        out_rows = rows[w]
        columns[arrow.name] = dict(zip(rows[v], [out_rows[i] for i in targets]))

    product = Instance(schema, rows, columns)
    typing = InstanceMorphism(product, Q, typing_comp)
    return TypedInstance(typing)


def _raise_first_fault(arrow, names, p_outs, q_out, covered, repeats, images, steps):
    """Walk a block's sections in order and raise at the first whose action
    is not well defined.  ``typechange_pi`` calls it only for a block that
    has such a section: one that does not cover the fiber of ``q_out``, has
    two images at one type (a position of ``repeats`` and its first), or has
    an image with no place in a family (a ``None`` step)."""
    options = [list(zip(image, step)) for image, step in zip(images, steps)]
    for name, choice in zip(names, itertools.product(*options)):
        for i, j in repeats:
            if choice[i][0] != choice[j][0]:
                raise TypeChangeError(
                    f"pointwise action of {arrow!r} on row {name!r} is "
                    f"ambiguous at type {p_outs[i]!r}"
                )
        if not covered:
            raise TypeChangeError(
                f"pointwise action of {arrow!r} on row {name!r} does not "
                f"cover the fiber of {q_out!r}"
            )
        if any(step is None for _, step in choice):
            raise TypeChangeError(
                f"action of {arrow!r} on row {name!r} does not land in a "
                "constructed family; input is inconsistent"
            )


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


def count_typed_morphisms(t: TypedInstance, u: TypedInstance) -> int:
    """Count slice morphisms t -> u: instance morphisms commuting with the
    typings.  They are the plain morphisms between t and u read as instances
    on the category of elements of the shared typing instance, so they are
    counted by ``count_morphisms`` there, at its default ``cap``.  Both
    typings must be natural."""
    if t.typing_instance != u.typing_instance:
        raise SchemaMismatchError("typed morphisms need a shared typing instance")
    require_natural(t.typing, "typing of the source")
    require_natural(u.typing, "typing of the target")
    return count_morphisms(_on_elements(t), _on_elements(u))
