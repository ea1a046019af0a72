"""Instances (set-valued functors on a schema) and their morphisms.

An instance holds one ordered row set per vertex and one total column function
per arrow.  Operations here are the semantic core the rest of the engine leans
on: path evaluation, validation against the declared equations, fiber
products, and small-scale morphism search (enumeration, counting, isomorphism
search) used by the adjunction checks.
"""
from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from types import MappingProxyType

from .errors import (
    EnumerationCapError,
    SchemaMismatchError,
    StructuralError,
    UnknownRowError,
)
from .naming import pair_id, uniquify
from .schemas import Path, Schema, path_target


@dataclass(frozen=True)
class Instance:
    """One ordered row set per vertex and one column per arrow.

    The instance is frozen, every table is a tuple, and ``rows`` and
    ``columns`` are read-only views of copies of the caller's mappings, so
    the row -> position map of a table, built on its first membership or
    position query, cannot go stale.  The column dicts themselves are still
    shared with the caller.
    """

    schema: Schema
    rows: Mapping[str, tuple[str, ...]] = field(default_factory=dict)
    columns: Mapping[str, dict[str, str]] = field(default_factory=dict)
    _positions: dict[str, dict[str, int]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def __post_init__(self):
        graph = self.schema.graph
        # Copies, so that filling in the empty tables leaves the caller's dicts alone.
        rows = {v: tuple(table) for v, table in self.rows.items()}
        columns = dict(self.columns)
        for v in self.schema.vertices:
            rows.setdefault(v, ())
        for a in self.schema.arrows:
            columns.setdefault(a.name, {})
        for v, table in rows.items():
            if not graph.has_vertex(v):
                raise StructuralError(f"rows declared for unknown vertex {v!r}")
            if len(set(table)) != len(table):
                seen: set[str] = set()
                for row in table:
                    if row in seen:
                        raise StructuralError(f"duplicate row {row!r} in table {v!r}")
                    seen.add(row)
        for name in columns:
            graph.arrow(name)
        object.__setattr__(self, "rows", MappingProxyType(rows))
        object.__setattr__(self, "columns", MappingProxyType(columns))

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

    def column(self, arrow: str) -> dict[str, str]:
        self.schema.graph.arrow(arrow)
        return self.columns.get(arrow, {})

    def total_rows(self) -> int:
        return sum(len(r) for r in self.rows.values())


def evaluate_path(instance: Instance, path: Path, row: str) -> str:
    """Apply each arrow's column function in order; a trivial path returns ``row``."""
    path_target(instance.schema.graph, path)
    if row not in instance.positions(path.source):
        raise UnknownRowError(path.source, row)
    at = row
    for name in path.arrows:
        column = instance.column(name)
        if at not in column:
            arrow = instance.schema.graph.arrow(name)
            raise UnknownRowError(arrow.source, at)
        at = column[at]
    return at


@dataclass(frozen=True)
class MissingColumnValue:
    arrow: str
    row: str

    def describe(self) -> str:
        return f"row {self.row!r} has no value for column {self.arrow!r}"


@dataclass(frozen=True)
class DanglingColumnValue:
    arrow: str
    row: str
    value: str

    def describe(self) -> str:
        return (
            f"column {self.arrow!r} sends row {self.row!r} to {self.value!r}, "
            "which is not a row of the target table"
        )


@dataclass(frozen=True)
class EquationViolation:
    equation: str
    row: str
    lhs_value: str
    rhs_value: str

    def describe(self) -> str:
        return (
            f"equation {self.equation} fails on row {self.row!r}: "
            f"{self.lhs_value!r} != {self.rhs_value!r}"
        )


def validate_instance(instance: Instance) -> list:
    """Report every violated instance invariant; an empty report means valid.

    Structural problems (missing or dangling column values) are reported per
    (arrow, row); equation problems per (equation, witness row) with both
    evaluated sides.
    """
    report = []
    schema = instance.schema
    broken_rows: set[tuple[str, str]] = set()
    for arrow in schema.arrows:
        column = instance.column(arrow.name)
        targets = instance.positions(arrow.target)
        for row in instance.row_set(arrow.source):
            if row not in column:
                report.append(MissingColumnValue(arrow.name, row))
                broken_rows.add((arrow.source, row))
            elif column[row] not in targets:
                report.append(DanglingColumnValue(arrow.name, row, column[row]))
                broken_rows.add((arrow.source, row))
    for eq in schema.equivalences:
        for row in instance.row_set(eq.lhs.source):
            try:
                lhs = evaluate_path(instance, eq.lhs, row)
                rhs = evaluate_path(instance, eq.rhs, row)
            except UnknownRowError:
                continue  # already reported structurally
            if lhs != rhs:
                report.append(EquationViolation(str(eq), row, lhs, rhs))
    return report


@dataclass
class InstanceMorphism:
    source: Instance
    target: Instance
    components: dict[str, dict[str, str]] = field(default_factory=dict)

    def component(self, vertex: str) -> dict[str, str]:
        return self.components.get(vertex, {})

    def apply(self, vertex: str, row: str) -> str:
        try:
            return self.components[vertex][row]
        except KeyError:
            raise UnknownRowError(vertex, row) from None


@dataclass(frozen=True)
class MissingComponentValue:
    vertex: str
    row: str

    def describe(self) -> str:
        return f"no component value for row {self.row!r} at vertex {self.vertex!r}"


@dataclass(frozen=True)
class DanglingComponentValue:
    vertex: str
    row: str
    value: str

    def describe(self) -> str:
        return (
            f"component at {self.vertex!r} sends {self.row!r} to {self.value!r}, "
            "which is not a target row"
        )


@dataclass(frozen=True)
class NaturalityViolation:
    arrow: str
    row: str
    via_target: str
    via_source: str

    def describe(self) -> str:
        return (
            f"naturality fails for arrow {self.arrow!r} on row {self.row!r}: "
            f"map-then-act gives {self.via_source!r} but act-then-map gives {self.via_target!r}"
        )


def validate_morphism(m: InstanceMorphism) -> list:
    """Report totality, membership, and naturality violations of a morphism."""
    report = []
    if m.source.schema != m.target.schema:
        raise SchemaMismatchError("morphism endpoints live on different schemas")
    schema = m.source.schema
    for v in schema.vertices:
        comp = m.component(v)
        targets = set(m.target.row_set(v))
        for row in m.source.row_set(v):
            if row not in comp:
                report.append(MissingComponentValue(v, row))
            elif comp[row] not in targets:
                report.append(DanglingComponentValue(v, row, comp[row]))
    for arrow in schema.arrows:
        src_col = m.source.column(arrow.name)
        tgt_col = m.target.column(arrow.name)
        comp_s = m.component(arrow.source)
        comp_t = m.component(arrow.target)
        for row in m.source.row_set(arrow.source):
            if row not in comp_s or row not in src_col:
                continue
            acted = src_col[row]
            if acted not in comp_t or comp_s[row] not in tgt_col:
                continue
            via_target = comp_t[acted]
            via_source = tgt_col[comp_s[row]]
            if via_target != via_source:
                report.append(NaturalityViolation(arrow.name, row, via_target, via_source))
    return report


def require_natural(m: InstanceMorphism, what: str = "morphism") -> InstanceMorphism:
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
    if first.target is not then.source and first.target != then.source:
        raise SchemaMismatchError("morphisms do not compose: middle instances differ")
    components = {}
    for v in first.source.schema.vertices:
        f = first.component(v)
        g = then.component(v)
        components[v] = {r: g[f[r]] for r in first.source.row_set(v)}
    return InstanceMorphism(first.source, then.target, components)


def morphisms_equal(m: InstanceMorphism, n: InstanceMorphism) -> bool:
    return (
        m.source == n.source
        and m.target == n.target
        and all(
            m.component(v) == n.component(v)
            for v in m.source.schema.vertices
        )
    )


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


def instance_fiber_product(
    f: InstanceMorphism, g: InstanceMorphism
) -> tuple[Instance, InstanceMorphism, InstanceMorphism]:
    """Pointwise pullback of f and g over their shared target, with projections."""
    if f.target != g.target:
        raise SchemaMismatchError("fiber product needs morphisms into the same instance")
    schema = f.source.schema
    if schema != g.source.schema:
        raise SchemaMismatchError("fiber product legs live on different schemas")

    rows: dict[str, tuple[str, ...]] = {}
    pairs: dict[str, dict[str, tuple[str, str]]] = {}
    left: dict[str, dict[str, str]] = {}
    right: dict[str, dict[str, str]] = {}
    for v in schema.vertices:
        names = []
        pair_of: dict[str, tuple[str, str]] = {}
        for a, b in equal_image_pairs(
            f.source.row_set(v), f.component(v), g.source.row_set(v), g.component(v)
        ):
            names.append(pair_id(a, b))
            pair_of[names[-1]] = (a, b)
        names = uniquify(names)
        rows[v] = tuple(names)
        pairs[v] = pair_of
        left[v] = {n: pair_of[n][0] for n in names}
        right[v] = {n: pair_of[n][1] for n in names}

    columns: dict[str, dict[str, str]] = {}
    for arrow in schema.arrows:
        col_a = f.source.column(arrow.name)
        col_b = g.source.column(arrow.name)
        reverse = {pairs[arrow.target][n]: n for n in rows[arrow.target]}
        mapping = {}
        for n in rows[arrow.source]:
            a, b = pairs[arrow.source][n]
            mapping[n] = reverse[(col_a[a], col_b[b])]
        columns[arrow.name] = mapping

    product = Instance(schema, rows, columns)
    proj_left = InstanceMorphism(product, f.source, left)
    proj_right = InstanceMorphism(product, g.source, right)
    return product, proj_left, proj_right


def _components_of_schema(schema: Schema) -> list[list[str]]:
    """Connected components of the underlying undirected graph."""
    neighbors: dict[str, set[str]] = {v: set() for v in schema.vertices}
    for a in schema.arrows:
        neighbors[a.source].add(a.target)
        neighbors[a.target].add(a.source)
    seen: set[str] = set()
    components = []
    for v in schema.vertices:
        if v in seen:
            continue
        stack = [v]
        comp = []
        seen.add(v)
        while stack:
            u = stack.pop()
            comp.append(u)
            for w in neighbors[u]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        components.append(sorted(comp, key=schema.graph.vertex_index))
    return components


class _MorphismSearch:
    """Backtracking over (vertex, row) slots with column-consistency pruning.

    Preimage indexes make each consistency check proportional to the slot's
    arrow degree rather than the size of the partial assignment.
    """

    def __init__(self, source: Instance, target: Instance, vertices: list[str]):
        self.source = source
        self.target = target
        self.slots = [(v, r) for v in vertices for r in source.row_set(v)]
        inside = set(vertices)
        self.out_edges: dict[tuple[str, str], list[tuple[str, str, str]]] = {}
        self.in_edges: dict[tuple[str, str], list[tuple[str, str, str]]] = {}
        for arrow in source.schema.arrows:
            if arrow.source not in inside and arrow.target not in inside:
                continue
            col = source.column(arrow.name)
            for r in source.row_set(arrow.source):
                image = col.get(r)
                if image is None:
                    continue
                self.out_edges.setdefault((arrow.source, r), []).append(
                    (arrow.name, arrow.target, image)
                )
                self.in_edges.setdefault((arrow.target, image), []).append(
                    (arrow.name, arrow.source, r)
                )
        self.assignment: dict[tuple[str, str], str] = {}

    def consistent(self, slot: tuple[str, str], value: str) -> bool:
        assignment = self.assignment
        target = self.target
        for name, w, image in self.out_edges.get(slot, ()):
            assigned = assignment.get((w, image))
            if assigned is not None and target.column(name).get(value) != assigned:
                return False
        for name, w, s in self.in_edges.get(slot, ()):
            assigned = assignment.get((w, s))
            if assigned is not None and target.column(name).get(assigned) != value:
                return False
        return True


def enumerate_morphisms(source: Instance, target: Instance, cap: int | None = None):
    """Yield every natural transformation source -> target (backtracking search)."""
    if source.schema != target.schema:
        raise SchemaMismatchError("morphism search needs a shared schema")
    search = _MorphismSearch(source, target, list(source.schema.vertices))
    slots = search.slots
    produced = 0

    def recurse(i: int):
        nonlocal produced
        if i == len(slots):
            components: dict[str, dict[str, str]] = {v: {} for v in source.schema.vertices}
            for (v, r), val in search.assignment.items():
                components[v][r] = val
            produced += 1
            if cap is not None and produced > cap:
                raise EnumerationCapError(f"morphism enumeration exceeded cap {cap}")
            yield InstanceMorphism(source, target, components)
            return
        slot = slots[i]
        v, _ = slot
        for value in target.row_set(v):
            if search.consistent(slot, value):
                search.assignment[slot] = value
                yield from recurse(i + 1)
                del search.assignment[slot]

    yield from recurse(0)


def count_morphisms(source: Instance, target: Instance, cap: int = 5_000_000) -> int:
    """Count natural transformations source -> target without materializing them.

    The count factors over connected components of the schema; a component
    with no arrows contributes an exact power.
    """
    if source.schema != target.schema:
        raise SchemaMismatchError("morphism search needs a shared schema")
    total = 1
    for comp in _components_of_schema(source.schema):
        if not any(a.source in comp for a in source.schema.arrows):
            for v in comp:
                total *= len(target.row_set(v)) ** len(source.row_set(v))
                if total > cap:
                    raise EnumerationCapError(f"morphism count exceeded cap {cap}")
            continue
        search = _MorphismSearch(source, target, comp)
        slots = search.slots
        work = 0

        def recurse(i: int) -> int:
            nonlocal work
            work += 1
            if work > cap:
                raise EnumerationCapError(f"morphism count exceeded work cap {cap}")
            if i == len(slots):
                return 1
            slot = slots[i]
            v, _ = slot
            found = 0
            for value in target.row_set(v):
                if search.consistent(slot, value):
                    search.assignment[slot] = value
                    found += recurse(i + 1)
                    del search.assignment[slot]
            return found

        total *= recurse(0)
        if total > cap:
            raise EnumerationCapError(f"morphism count exceeded cap {cap}")
    return total


def find_isomorphism(
    source: Instance, target: Instance, work_cap: int = 2_000_000
) -> InstanceMorphism | None:
    """Search for an isomorphism source -> target; None if none exists.

    Adds per-vertex injectivity to the morphism search; with equal row counts
    per vertex, an injective natural transformation whose inverse is checked
    natural is an isomorphism.  Intended for desk-scale golden comparisons.
    """
    if source.schema != target.schema:
        raise SchemaMismatchError("isomorphism search needs a shared schema")
    for v in source.schema.vertices:
        if len(source.row_set(v)) != len(target.row_set(v)):
            return None
    search = _MorphismSearch(source, target, list(source.schema.vertices))
    slots = search.slots
    used: dict[str, set[str]] = {v: set() for v in source.schema.vertices}
    work = 0

    def recurse(i: int):
        nonlocal work
        work += 1
        if work > work_cap:
            raise EnumerationCapError(f"isomorphism search exceeded work cap {work_cap}")
        if i == len(slots):
            return dict(search.assignment)
        slot = slots[i]
        v, _ = slot
        for value in target.row_set(v):
            if value in used[v]:
                continue
            if search.consistent(slot, value):
                search.assignment[slot] = value
                used[v].add(value)
                result = recurse(i + 1)
                if result is not None:
                    return result
                used[v].remove(value)
                del search.assignment[slot]
        return None

    assignment = recurse(0)
    if assignment is None:
        return None
    components: dict[str, dict[str, str]] = {v: {} for v in source.schema.vertices}
    for (v, r), val in assignment.items():
        components[v][r] = val
    iso = InstanceMorphism(source, target, components)
    if validate_morphism(iso):
        return None
    return iso
