"""Graphs, paths, schemas, and the bounded path-equivalence decision procedure.

A schema is a finite graph together with declared path equivalences; two paths
are equivalent when one rewrites to the other using the declared equivalences
as bidirectional rules at any position.  The word problem is undecidable in
general, so the decision procedure is budgeted and three-valued: it answers
``EQUIVALENT`` or ``NOT_PROVED`` (never "provably different").
"""
from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache

from .errors import CompositionError, StructuralError

DEFAULT_REWRITE_BUDGET = 64
DEFAULT_PATH_LENGTH_CAP = 32
# Safety valve for the rewrite search; hitting it degrades to NOT_PROVED.
_MAX_VISITED_STATES = 60_000


@dataclass(frozen=True)
class Arrow:
    name: str
    source: str
    target: str


@dataclass(frozen=True)
class Graph:
    """A finite directed multigraph.

    Its lookups and its hash are built once, in ``__post_init__``; the fields
    holding them take no part in ``==``, ``repr`` or ``__init__``, so
    ``dataclasses.replace`` builds fresh ones.
    """

    vertices: tuple[str, ...] = ()
    arrows: tuple[Arrow, ...] = ()
    _vertex_order: dict[str, int] = field(init=False, repr=False, compare=False)
    _arrow_by_name: dict[str, Arrow] = field(init=False, repr=False, compare=False)
    _arrow_order: dict[str, int] = field(init=False, repr=False, compare=False)
    _out_arrows: dict[str, tuple[Arrow, ...]] = field(init=False, repr=False, compare=False)
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        vertex_order: dict[str, int] = {}
        for i, v in enumerate(self.vertices):
            if v in vertex_order:
                raise StructuralError(f"duplicate vertex {v!r}")
            vertex_order[v] = i
        by_name: dict[str, Arrow] = {}
        out: dict[str, list[Arrow]] = {v: [] for v in self.vertices}
        for a in self.arrows:
            if a.name in by_name:
                raise StructuralError(f"duplicate arrow {a.name!r}")
            by_name[a.name] = a
            if a.source not in vertex_order:
                raise StructuralError(f"arrow {a.name!r} has unknown source {a.source!r}")
            if a.target not in vertex_order:
                raise StructuralError(f"arrow {a.name!r} has unknown target {a.target!r}")
            out[a.source].append(a)
        init = object.__setattr__
        init(self, "_vertex_order", vertex_order)
        init(self, "_arrow_by_name", by_name)
        init(self, "_arrow_order", {name: i for i, name in enumerate(by_name)})
        init(self, "_out_arrows", {v: tuple(arrows) for v, arrows in out.items()})
        init(self, "_hash", hash((self.vertices, self.arrows)))

    def __hash__(self) -> int:
        return self._hash

    def arrow(self, name: str) -> Arrow:
        try:
            return self._arrow_by_name[name]
        except KeyError:
            raise StructuralError(f"unknown arrow {name!r}") from None

    def has_vertex(self, name: str) -> bool:
        return name in self._vertex_order

    def out_arrows(self, vertex: str) -> tuple[Arrow, ...]:
        return self._out_arrows.get(vertex, ())

    def vertex_index(self, name: str) -> int:
        return self._vertex_order[name]

    def arrow_order(self, name: str) -> int:
        return self._arrow_order[name]


@dataclass(frozen=True)
class Path:
    """A head-to-tail arrow sequence; the empty sequence is the trivial path."""

    source: str
    arrows: tuple[str, ...] = ()

    @property
    def is_trivial(self) -> bool:
        return not self.arrows

    def __str__(self) -> str:
        if not self.arrows:
            return "id"
        return ".".join(self.arrows)


def trivial_path(vertex: str) -> Path:
    return Path(vertex, ())


def path_target(graph: Graph, path: Path) -> str:
    """Target vertex of a path, validating head-to-tail structure as it goes."""
    if not graph.has_vertex(path.source):
        raise StructuralError(f"path source {path.source!r} is not a vertex")
    at = path.source
    for name in path.arrows:
        arrow = graph.arrow(name)
        if arrow.source != at:
            raise StructuralError(
                f"path is not head-to-tail: arrow {name!r} starts at "
                f"{arrow.source!r}, expected {at!r}"
            )
        at = arrow.target
    return at


def validate_path(graph: Graph, path: Path) -> None:
    path_target(graph, path)


def compose_paths(graph: Graph, p: Path, q: Path) -> Path:
    """Concatenate p then q; composing with a trivial path is the identity."""
    if path_target(graph, p) != q.source:
        raise CompositionError(path_target(graph, p), q.source)
    validate_path(graph, q)
    return Path(p.source, p.arrows + q.arrows)


@dataclass(frozen=True)
class PathEquivalence:
    lhs: Path
    rhs: Path

    def __str__(self) -> str:
        return f"{self.lhs.source} : {self.lhs} = {self.rhs}"


@dataclass(frozen=True)
class Schema:
    """A finitely presented category; like ``Graph``, it builds its rewrite
    rules and its hash once, at construction."""

    name: str
    graph: Graph = field(default_factory=Graph)
    equivalences: tuple[PathEquivalence, ...] = ()
    # The declared equivalences as (source vertex, lhs arrows, rhs arrows),
    # in both directions.
    _rules: tuple[tuple[str, tuple[str, ...], tuple[str, ...]], ...] = field(
        init=False, repr=False, compare=False
    )
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        rules = []
        for eq in self.equivalences:
            if eq.lhs.source != eq.rhs.source:
                raise StructuralError(
                    f"equation sides start at different vertices: {eq}"
                )
            lt = path_target(self.graph, eq.lhs)
            rt = path_target(self.graph, eq.rhs)
            if lt != rt:
                raise StructuralError(
                    f"equation sides end at different vertices ({lt!r} vs {rt!r}): {eq}"
                )
            rules.append((eq.lhs.source, eq.lhs.arrows, eq.rhs.arrows))
            rules.append((eq.rhs.source, eq.rhs.arrows, eq.lhs.arrows))
        object.__setattr__(self, "_rules", tuple(rules))
        object.__setattr__(self, "_hash", hash((self.name, self.graph, self.equivalences)))

    def __hash__(self) -> int:
        return self._hash

    @property
    def vertices(self) -> tuple[str, ...]:
        return self.graph.vertices

    @property
    def arrows(self) -> tuple[Arrow, ...]:
        return self.graph.arrows


class Equivalence(Enum):
    """Outcome of the bounded word-problem search; NOT_PROVED is never a disproof."""

    EQUIVALENT = "equivalent"
    NOT_PROVED = "not-proved-within-budget"


def _vertex_at(graph: Graph, path: Path, i: int) -> str:
    if i == 0:
        return path.source
    return graph.arrow(path.arrows[i - 1]).target


def _neighbors(schema: Schema, path: Path, length_cap: int):
    """All single-rule rewrites of ``path``, applied at any position."""
    graph = schema.graph
    arrows = path.arrows
    n = len(arrows)
    for src, lhs, rhs in schema._rules:
        k = len(lhs)
        if n - k + len(rhs) > length_cap:
            continue
        for i in range(n - k + 1):
            if arrows[i : i + k] != lhs:
                continue
            if _vertex_at(graph, path, i) != src:
                continue
            yield Path(path.source, arrows[:i] + rhs + arrows[i + k :])


def paths_equivalent(
    schema: Schema,
    p: Path,
    q: Path,
    budget: int = DEFAULT_REWRITE_BUDGET,
    length_cap: int = DEFAULT_PATH_LENGTH_CAP,
) -> Equivalence:
    """Decide whether q is reachable from p by at most ``budget`` rewrite steps.

    Paths with unequal endpoints are never equivalent (CPER endpoint
    conditions) and answer NOT_PROVED immediately.  Invalid paths raise.
    """
    pt = path_target(schema.graph, p)
    qt = path_target(schema.graph, q)
    if p.source != q.source or pt != qt:
        return Equivalence.NOT_PROVED
    if p == q:
        return Equivalence.EQUIVALENT
    # The relation is symmetric; canonicalize the memo key.
    if (q.arrows, q.source) < (p.arrows, p.source):
        p, q = q, p
    return _search(schema, p, q, budget, length_cap)


@lru_cache(maxsize=65536)
def _search(schema: Schema, p: Path, q: Path, budget: int, length_cap: int) -> Equivalence:
    visited = {p}
    frontier = [p]
    for _ in range(budget):
        if not frontier:
            break
        next_frontier = []
        for current in frontier:
            for neighbor in _neighbors(schema, current, length_cap):
                if neighbor in visited:
                    continue
                if neighbor == q:
                    return Equivalence.EQUIVALENT
                visited.add(neighbor)
                next_frontier.append(neighbor)
        if len(visited) > _MAX_VISITED_STATES:
            return Equivalence.NOT_PROVED
        frontier = next_frontier
    return Equivalence.NOT_PROVED
