"""Instances (set-valued functors on a schema) and their morphisms.

An instance holds one ordered row set per vertex and one total column function
per arrow, each into its target table; ``Instance`` refuses any other, so no
operation here or downstream meets a missing or dangling cell.  Operations
here are the semantic core the rest of the engine leans on: path evaluation,
validation against the declared equations, fiber products, and the one
indexed join, ``assignments``, that finds every assignment of rows to a
finite diagram respecting its columns.  pi's compatible families are such
assignments, and so are morphisms of instances: enumeration and isomorphism
search run the join on the source instance's diagram of elements, and
counting, which the adjunction checks use, walks the join's plan on each
connected component of that diagram, building no morphism, and multiplies
the counts.
"""
from __future__ import annotations

from collections.abc import Mapping
from types import MappingProxyType

from .errors import (
    EnumerationCapError,
    SchemaMismatchError,
    StructuralError,
    UnknownRowError,
)
from .naming import pair_id
from .schemas import Path, Schema, path_target
from .values import Value

DEFAULT_ISOMORPHISM_WORK_CAP = 2_000_000  # rows tried by find_isomorphism, fixed
_EMPTY: Mapping = MappingProxyType({})  # the default tables, columns and components


class Instance(Value):
    """One ordered row set per vertex and one column per arrow.

    Every column is checked once, here: it must send each row of its source
    table to a row of its target table, and nothing else.  The first
    missing or dangling cell, by arrow and then by row, or else a key that
    is not a source row, raises ``StructuralError``.  The check keeps no
    position map: repeated rows are looked for one table at a time, and
    closure against a set of each table that some arrow points into, all
    dropped when the constructor returns.  ``positions`` builds a table's
    row -> position map on its first call.  The instance is frozen, every
    table is a tuple, and ``rows``, ``columns`` and each column are
    read-only views of copies of the caller's mappings, so neither that
    check, nor a position map, nor a loop over a column can go stale under
    a change the caller makes.
    """

    _fields = ("schema", "rows", "columns")

    def __init__(
        self,
        schema: Schema,
        rows: Mapping[str, tuple[str, ...]] = _EMPTY,
        columns: Mapping[str, Mapping[str, str]] = _EMPTY,
    ):
        init = object.__setattr__
        init(self, "schema", schema)
        init(self, "_positions", {})
        graph = schema.graph
        # Copies, so that filling in the empty tables leaves the caller's dicts alone.
        rows = {v: tuple(table) for v, table in rows.items()}
        columns = {name: dict(column) for name, column in columns.items()}
        for v in schema.vertices:
            rows.setdefault(v, ())
        for a in schema.arrows:
            columns.setdefault(a.name, {})
        targets = {a.target for a in schema.arrows}
        members: dict[str, set[str]] = {}  # each target table's rows, for the closure check
        vertex_order = graph._vertex_order
        for v, table in rows.items():
            if v not in vertex_order:
                raise StructuralError(f"rows declared for unknown vertex {v!r}")
            row_set = set(table)
            if len(row_set) != len(table):
                seen: set[str] = set()
                for row in table:
                    if row in seen:
                        raise StructuralError(f"duplicate row {row!r} in table {v!r}")
                    seen.add(row)
            if v in targets:
                members[v] = row_set
        by_name = graph._arrow_by_name
        for name in columns:
            if name not in by_name:
                graph.arrow(name)  # raises, naming the arrow
        init(self, "rows", MappingProxyType(rows))
        init(
            self,
            "columns",
            MappingProxyType({name: MappingProxyType(c) for name, c in columns.items()}),
        )
        for arrow in schema.arrows:
            column, table = columns[arrow.name], rows[arrow.source]
            # A missing cell gives None, which is no row.
            target_rows = members[arrow.target]
            if not target_rows.issuperset(map(column.get, table)):
                row = next(row for row in table if column.get(row) not in target_rows)
                if row not in column:
                    raise StructuralError(f"row {row!r} has no value for column {arrow.name!r}")
                raise StructuralError(
                    f"column {arrow.name!r} sends row {row!r} to {column[row]!r}, "
                    "which is not a row of the target table"
                )
            if len(column) != len(table):  # every row is a key, so a surplus key is a stray
                sources = set(table)
                stray = next(key for key in column if key not in sources)
                raise StructuralError(
                    f"column {arrow.name!r} has a value for {stray!r}, "
                    "which is not a row of its source table"
                )

    __hash__ = None  # instances compare by their tables, which are not hashable

    def row_set(self, vertex: str) -> tuple[str, ...]:
        if not self.schema.graph.has_vertex(vertex):
            raise StructuralError(f"unknown vertex {vertex!r}")
        return self.rows[vertex]

    def positions(self, vertex: str) -> dict[str, int]:
        """Row -> position in its table; built on first use, then kept."""
        index = self._positions.get(vertex)
        if index is None:
            index = {row: i for i, row in enumerate(self.row_set(vertex))}
            self._positions[vertex] = index
        return index

    def column(self, arrow: str) -> Mapping[str, str]:
        self.schema.graph.arrow(arrow)
        return self.columns[arrow]

    def total_rows(self) -> int:
        return sum(len(r) for r in self.rows.values())


def evaluate_path(instance: Instance, path: Path, row: str) -> str:
    """Apply each arrow's column function in order; a trivial path returns ``row``."""
    path_target(instance.schema.graph, path)
    if row not in instance.positions(path.source):
        raise UnknownRowError(path.source, row)
    for name in path.arrows:
        row = instance.column(name)[row]
    return row


def path_values(instance: Instance, path: Path, rows) -> list:
    """``path``'s value at each of ``rows``, composed a column at a time;
    the path runs in the instance's own schema, which the caller vouches for."""
    values = list(rows)
    columns = instance.columns
    for name in path.arrows:
        values = list(map(columns[name].__getitem__, values))
    return values


class EquationViolation(Value):
    _fields = ("equation", "row", "lhs_value", "rhs_value")

    def __init__(self, equation: str, row: str, lhs_value: str, rhs_value: str):
        object.__setattr__(self, "equation", equation)
        object.__setattr__(self, "row", row)
        object.__setattr__(self, "lhs_value", lhs_value)
        object.__setattr__(self, "rhs_value", rhs_value)

    def describe(self) -> str:
        return (
            f"equation {self.equation} fails on row {self.row!r}: "
            f"{self.lhs_value!r} != {self.rhs_value!r}"
        )


def validate_instance(instance: Instance) -> list:
    """Report every violated equation, per (equation, witness row) with both
    evaluated sides; an empty report means valid.

    Every column is total and closed, as ``Instance`` checked when it was
    built, so the equations are all there is left to check.
    """
    report = []
    for eq in instance.schema.equivalences:
        table = instance.rows[eq.lhs.source]
        lhs = path_values(instance, eq.lhs, table)
        rhs = path_values(instance, eq.rhs, table)
        if lhs == rhs:
            continue
        for row, left, right in zip(table, lhs, rhs):
            if left != right:
                report.append(EquationViolation(str(eq), row, left, right))
    return report


class InstanceMorphism(Value):
    """One component per vertex, from the source's table into the target's.

    Every component is checked once, here: both instances must share a
    schema, or ``SchemaMismatchError`` is raised, and each component must
    send each row of its source table to a row of its target table, and
    nothing else.  The first missing or dangling value, by vertex and then
    by row, or else a key that is not a source row, raises
    ``StructuralError``.  Each component is checked against a set of its
    target table, dropped when the next vertex is checked, so neither
    instance gains a position map.  A vertex left out gets an empty
    component.  ``components`` and each component are read-only views of
    copies of the caller's mappings.  Naturality is ``validate_morphism``'s
    business.
    """

    _fields = ("source", "target", "components")

    def __init__(
        self,
        source: Instance,
        target: Instance,
        components: Mapping[str, Mapping[str, str]] = _EMPTY,
    ):
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        schema = source.schema
        if schema != target.schema:
            raise SchemaMismatchError("morphism endpoints live on different schemas")
        components = {v: dict(comp) for v, comp in components.items()}
        for v in components:
            if not schema.graph.has_vertex(v):
                raise StructuralError(f"component for unknown vertex {v!r}")
        for v in schema.vertices:
            comp, table = components.setdefault(v, {}), source.rows[v]
            targets = set(target.rows[v])
            if not targets.issuperset(map(comp.get, table)):  # a missing value gives None
                row = next(row for row in table if comp.get(row) not in targets)
                if row not in comp:
                    raise StructuralError(f"no component value for row {row!r} at vertex {v!r}")
                raise StructuralError(
                    f"component at {v!r} sends {row!r} to {comp[row]!r}, "
                    "which is not a target row"
                )
            if len(comp) != len(table):  # every row is a key, so a surplus key is a stray
                sources = set(table)
                stray = next(row for row in comp if row not in sources)
                raise StructuralError(f"component at {v!r} maps {stray!r}, which is not a source row")
        object.__setattr__(
            self,
            "components",
            MappingProxyType({v: MappingProxyType(comp) for v, comp in components.items()}),
        )

    __hash__ = None  # morphisms compare by their components, which are not hashable

    def component(self, vertex: str) -> Mapping[str, str]:
        return self.components[vertex]

    def apply(self, vertex: str, row: str) -> str:
        try:
            return self.components[vertex][row]
        except KeyError:
            raise UnknownRowError(vertex, row) from None


class NaturalityViolation(Value):
    _fields = ("arrow", "row", "via_target", "via_source")

    def __init__(self, arrow: str, row: str, via_target: str, via_source: str):
        object.__setattr__(self, "arrow", arrow)
        object.__setattr__(self, "row", row)
        object.__setattr__(self, "via_target", via_target)
        object.__setattr__(self, "via_source", via_source)

    def describe(self) -> str:
        return (
            f"naturality fails for arrow {self.arrow!r} on row {self.row!r}: "
            f"map-then-act gives {self.via_source!r} but act-then-map gives {self.via_target!r}"
        )


def validate_morphism(m: InstanceMorphism) -> list:
    """Report every naturality violation, per (arrow, witness row) with both
    ways round the square; an empty report means natural.

    Every component is total and lands in the target, as ``InstanceMorphism``
    checked when it was built, so naturality is all there is left to check.
    """
    report = []
    for arrow in m.source.schema.arrows:
        src_col = m.source.column(arrow.name)
        tgt_col = m.target.column(arrow.name)
        comp_s = m.component(arrow.source)
        comp_t = m.component(arrow.target)
        for row in m.source.row_set(arrow.source):
            via_target = comp_t[src_col[row]]
            via_source = tgt_col[comp_s[row]]
            if via_target != via_source:
                report.append(NaturalityViolation(arrow.name, row, via_target, via_source))
    return report


def require_natural(m: InstanceMorphism, what: str) -> InstanceMorphism:
    report = validate_morphism(m)
    if report:
        detail = "; ".join(item.describe() for item in report[:3])
        raise StructuralError(f"{what} is not natural: {detail}")
    return m


def identity_morphism(instance: Instance) -> InstanceMorphism:
    return InstanceMorphism(
        instance,
        instance,
        {v: {r: r for r in instance.row_set(v)} for v in instance.schema.vertices},
    )


def compose_morphisms(first: InstanceMorphism, then: InstanceMorphism) -> InstanceMorphism:
    """Diagrammatic composition: ``first`` followed by ``then``."""
    if first.target != then.source:
        raise SchemaMismatchError("morphisms do not compose: middle instances differ")
    components = {}
    for v in first.source.schema.vertices:
        f = first.component(v)
        g = then.component(v)
        components[v] = {r: g[f[r]] for r in first.source.row_set(v)}
    return InstanceMorphism(first.source, then.target, components)


def equal_image_pairs(
    left: tuple[str, ...], f: dict[str, str], right: tuple[str, ...], g: dict[str, str]
) -> list[tuple[str, str]]:
    """Every pair ``(a, b)`` of ``left`` x ``right`` with ``f[a] == g[b]``, in
    nested-loop order (by ``a``, then by ``b``), joined through ``right``'s
    rows grouped by image."""
    by_image: dict[str, list[str]] = {}
    for b in right:
        by_image.setdefault(g[b], []).append(b)
    return [(a, b) for a in left for b in by_image.get(f[a], ())]


def unpaired_images(arrow: str, a: str, a_out: str, b: str, b_out: str) -> str:
    """The error text for a pair ``(a, b)`` over one row whose images by
    ``arrow`` lie over different rows, so that the pair has no image."""
    return (
        f"arrow {arrow!r} sends {a!r} to {a_out!r} and {b!r} to {b_out!r}, "
        "which lie over different rows: a leg is not natural"
    )


def instance_fiber_product(
    f: InstanceMorphism, g: InstanceMorphism
) -> tuple[Instance, InstanceMorphism, InstanceMorphism]:
    """Pointwise pullback of f and g over their shared target, with projections.

    Row ``(a,b)`` pairs rows with one image; ``pair_id`` is injective, so the
    ids need no disambiguation.  When f or g is not natural, a column can
    send a pair to one that is not a row, and ``StructuralError`` names it.
    """
    if f.target != g.target:
        raise SchemaMismatchError("fiber product needs morphisms into the same instance")
    schema = f.source.schema
    if schema != g.source.schema:
        raise SchemaMismatchError("fiber product legs live on different schemas")

    rows: dict[str, tuple[str, ...]] = {}
    pairs: dict[str, dict[str, tuple[str, str]]] = {}  # vertex -> row id -> its pair
    left: dict[str, dict[str, str]] = {}
    right: dict[str, dict[str, str]] = {}
    for v in schema.vertices:
        pair_of = pairs[v] = {
            pair_id(a, b): (a, b)
            for a, b in equal_image_pairs(
                f.source.row_set(v), f.component(v), g.source.row_set(v), g.component(v)
            )
        }
        rows[v] = tuple(pair_of)
        left[v] = {n: a for n, (a, _) in pair_of.items()}
        right[v] = {n: b for n, (_, b) in pair_of.items()}

    columns: dict[str, dict[str, str]] = {}
    for arrow in schema.arrows:
        col_a = f.source.column(arrow.name)
        col_b = g.source.column(arrow.name)
        reverse = {pair: n for n, pair in pairs[arrow.target].items()}
        mapping = {}
        for n, (a, b) in pairs[arrow.source].items():
            image = reverse.get((col_a[a], col_b[b]))
            if image is None:
                raise StructuralError(
                    unpaired_images(arrow.name, a, col_a[a], b, col_b[b])
                )
            mapping[n] = image
        columns[arrow.name] = mapping

    product = Instance(schema, rows, columns)
    proj_left = InstanceMorphism(product, f.source, left)
    proj_right = InstanceMorphism(product, g.source, right)
    return product, proj_left, proj_right


def assignments(
    target: Instance,
    comps: list[tuple],
    constraints: list[tuple[int, int, str]],
    *,
    injective: bool = False,
    work_cap: int | None = None,
):
    """Every choice of one row of ``target`` per component that satisfies
    every constraint ``(i, j, arrow)``: ``column(arrow)[row i] == row j``.

    A component is a tuple whose first item is the vertex it draws its row
    from.  This one join serves pi, whose components are comma objects, and
    the morphism search, whose components are source rows (see
    ``_element_diagram``).  The choices come out as tuples, in nested-loop
    order: lexicographic over the components in index order, by row
    position.  With ``injective``, components on one vertex get distinct
    rows, pruned as the search runs.  Trying more than ``work_cap`` rows
    raises ``EnumerationCapError``.
    """
    steps = _join_plan(target, comps, constraints)
    if not steps:
        yield ()
        return
    values: list = [None] * len(comps)
    used: set[tuple[str, str]] | None = set() if injective else None  # (vertex, row)
    last = len(steps) - 1
    work = 0

    def extend(s: int):
        nonlocal work
        k, driver, pool, lookups, checks = steps[s]
        if driver is not None:
            pool = pool.get(values[driver], ())
        if work_cap is not None:
            work += len(pool)
            if work > work_cap:
                raise EnumerationCapError(f"search exceeded work cap {work_cap}")
        filled = [k, *(j for j, *_ in lookups)] if injective else ()
        for row in pool:
            values[k] = row
            for j, i, column in lookups:
                values[j] = column[values[i]]
            for i, j, column in checks:
                if column[values[i]] != values[j]:
                    break
            else:
                if used is not None:
                    claimed = {(comps[c][0], values[c]) for c in filled}
                    if len(claimed) < len(filled) or not used.isdisjoint(claimed):
                        continue
                    used.update(claimed)
                if s == last:
                    yield tuple(values)
                else:
                    yield from extend(s + 1)
                if used is not None:
                    used.difference_update(claimed)

    yield from extend(0)


def _join_plan(
    target: Instance,
    comps: list[tuple],
    constraints: list[tuple[int, int, str]],
) -> list[tuple]:
    """The join's steps, planned once because columns are functions.

    Each step branches on the lowest-index unassigned component: it is drawn
    from a column's preimage index when a constraint ties it to an assigned
    component, and enumerated otherwise.  Then every component a constraint
    reaches from an assigned one is looked up in that column, and every
    other constraint is checked once both its ends are assigned.  A
    looked-up component is a function of the components assigned before it,
    so it never tells two assignments apart; the branches, taken in index
    order, keep the nested loop's order.

    A step is ``(branch, driver, pool, lookups, checks)``: ``pool`` holds the
    branch's rows, or with a ``driver`` component its preimage index keyed by
    the driver's row.
    """
    out_of: list[list[tuple[int, int, str]]] = [[] for _ in comps]
    for n, (i, j, name) in enumerate(constraints):
        out_of[i].append((n, j, name))
    assigned = [False] * len(comps)
    planned = [False] * len(constraints)  # used as a tie or a lookup
    preimages: dict[tuple[str, str], dict[str, list[str]]] = {}
    steps: list[tuple] = []
    for k in range(len(comps)):
        if assigned[k]:
            continue
        vertex = comps[k][0]
        driver, pool = None, target.rows[vertex]
        tie = next((con for con in out_of[k] if assigned[con[1]]), None)
        if tie is not None:
            n, driver, name = tie
            planned[n] = True
            pool = preimages.get((vertex, name))
            if pool is None:
                column = target.columns[name]
                pool = preimages[vertex, name] = {}
                for row in target.rows[vertex]:
                    pool.setdefault(column[row], []).append(row)
        assigned[k] = True
        filled = [k]
        lookups = []
        for c in filled:  # grows as lookups assign components
            for n, j, name in out_of[c]:
                if not assigned[j]:
                    planned[n] = assigned[j] = True
                    filled.append(j)
                    lookups.append((j, c, target.columns[name]))
        # A constraint out of a component assigned at an earlier step had its
        # other end assigned then too, so what is left to check starts here.
        checks = [
            (c, j, target.columns[name])
            for c in filled
            for n, j, name in out_of[c]
            if not planned[n]
        ]
        steps.append((k, driver, pool, lookups, checks))
    return steps


def _element_diagram(source: Instance) -> tuple[list[tuple[str, str]], list[tuple[int, int, str]]]:
    """A morphism out of ``source`` as an assignment (see ``assignments``):
    one component per source row ``(v, r)``, in vertex then row order, and
    one constraint per column value."""
    rows = source.rows
    comps = [(v, r) for v in source.schema.vertices for r in rows[v]]
    slot = {comp: k for k, comp in enumerate(comps)}
    constraints = []
    for arrow in source.schema.arrows:
        column = source.columns[arrow.name]
        for r in rows[arrow.source]:
            constraints.append((slot[arrow.source, r], slot[arrow.target, column[r]], arrow.name))
    return comps, constraints


def _connected_parts(comps: list, constraints: list) -> list[tuple[list, list]]:
    """The connected components of a diagram, found by a union-find over its
    constraints: each a diagram of its own, renumbered in order."""
    root = list(range(len(comps)))
    for i, j, _ in constraints:
        while root[i] != i:
            root[i] = i = root[root[i]]
        while root[j] != j:
            root[j] = j = root[root[j]]
        root[i] = j
    parts: dict[int, tuple[list, list]] = {}
    local = []  # a component's index in its part
    for k, comp in enumerate(comps):
        while root[root[k]] != root[k]:
            root[k] = root[root[k]]
        part = parts.get(root[k]) or parts.setdefault(root[k], ([], []))
        local.append(len(part[0]))
        part[0].append(comp)
    for i, j, name in constraints:
        parts[root[i]][1].append((local[i], local[j], name))
    return list(parts.values())


def _morphism(
    source: Instance, target: Instance, comps: list[tuple[str, str]], values: tuple
) -> InstanceMorphism:
    components: dict[str, dict[str, str]] = {v: {} for v in source.schema.vertices}
    for (v, r), value in zip(comps, values):
        components[v][r] = value
    return InstanceMorphism(source, target, components)


def enumerate_morphisms(source: Instance, target: Instance):
    """Yield every natural transformation source -> target, lexicographic
    over the source rows (vertex, then row order) by target row position.
    Each is found as it is asked for, so a caller that wants a few stops."""
    if source.schema != target.schema:
        raise SchemaMismatchError("morphism search needs a shared schema")
    comps, constraints = _element_diagram(source)
    for values in assignments(target, comps, constraints):
        yield _morphism(source, target, comps, values)


def count_morphisms(source: Instance, target: Instance, cap: int = 5_000_000) -> int:
    """Count natural transformations source -> target without materializing them.

    Rows that no chain of column values links choose their images
    independently, so the count is the product of the counts on the connected
    components of the element diagram.  A component with no constraint is one
    row, free to go to any row of its table; every other one is counted by
    ``_count_assignments``.  ``cap`` bounds the rows each count tries, not
    the count, which comes back exact.
    """
    if source.schema != target.schema:
        raise SchemaMismatchError("morphism search needs a shared schema")
    total = 1
    for comps, constraints in _connected_parts(*_element_diagram(source)):
        if constraints:
            total *= _count_assignments(target, comps, constraints, cap)
        else:
            total *= len(target.rows[comps[0][0]])
    return total


def _count_assignments(
    target: Instance, comps: list[tuple], constraints: list[tuple[int, int, str]], work_cap: int
) -> int:
    """How many choices ``assignments(target, comps, constraints,
    work_cap=work_cap)`` yields, counted without building them: the same
    plan, walked depth-first in the same order, adds 1 at each full
    assignment.  It charges each step's pool as the join does, so past
    ``work_cap`` it raises at the same point, with the same text."""
    steps = _join_plan(target, comps, constraints)
    values: list = [None] * len(comps)
    last = len(steps) - 1
    work = 0

    def count(s: int) -> int:
        nonlocal work
        k, driver, pool, lookups, checks = steps[s]
        if driver is not None:
            pool = pool.get(values[driver], ())
        work += len(pool)
        if work > work_cap:
            raise EnumerationCapError(f"search exceeded work cap {work_cap}")
        if s == last and not checks:  # every row completes one: a lookup cannot fail
            return len(pool)
        found = 0
        for row in pool:
            values[k] = row
            for j, i, column in lookups:
                values[j] = column[values[i]]
            for i, j, column in checks:
                if column[values[i]] != values[j]:
                    break
            else:
                found += 1 if s == last else count(s + 1)
        return found

    return count(0)


def find_isomorphism(source: Instance, target: Instance) -> InstanceMorphism | None:
    """Search for an isomorphism source -> target; None if none exists.

    Adds per-vertex injectivity to the morphism search.  Every choice the
    search yields is natural, and with equal row counts per vertex an
    injective natural transformation is a bijection at each vertex, whose
    inverse is natural too: it is an isomorphism.  Intended for desk-scale
    golden comparisons: trying more than ``DEFAULT_ISOMORPHISM_WORK_CAP``
    rows raises ``EnumerationCapError``.
    """
    if source.schema != target.schema:
        raise SchemaMismatchError("isomorphism search needs a shared schema")
    for v in source.schema.vertices:
        if len(source.row_set(v)) != len(target.row_set(v)):
            return None
    comps, constraints = _element_diagram(source)
    work_cap = DEFAULT_ISOMORPHISM_WORK_CAP
    found = next(assignments(target, comps, constraints, injective=True, work_cap=work_cap), None)
    if found is None:
        return None
    return _morphism(source, target, comps, found)
