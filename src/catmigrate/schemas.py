"""Graphs, paths, schemas, and the bounded path-equivalence decision procedure.

A schema is a finite graph together with declared path equivalences; two paths
are equivalent when one rewrites to the other using the declared equivalences
as bidirectional rules at any position.  The word problem is undecidable in
general, so the decision procedure is budgeted and answers ``EQUIVALENT`` or
``NOT_PROVED``, never "provably different".  A pair is proved iff a chain of
at most ``budget`` single rewrites joins the two paths in which every path but
the two endpoints is at most ``length_cap`` long (the endpoints may be of any
length), unless the state cap stops the search first.  The search grows one
ball of rewrites from each endpoint; a side whose visited set passes
``_MAX_VISITED_STATES`` stops growing while the other goes on, and once both
have stopped the pair is left unproved.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache

from .errors import CompositionError, StructuralError

DEFAULT_REWRITE_BUDGET = 64
DEFAULT_PATH_LENGTH_CAP = 32
# Safety valve for each side of the rewrite search; a side past it stops growing.
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


def compose_paths(graph: Graph, p: Path, q: Path) -> Path:
    """Concatenate p then q; composing with a trivial path is the identity."""
    if path_target(graph, p) != q.source:
        raise CompositionError(path_target(graph, p), q.source)
    path_target(graph, q)
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


def _rewrites(
    schema: Schema, source: str, arrows: tuple[str, ...], length_cap: int, goal: tuple[str, ...]
):
    """Every single-rule rewrite of the path ``source: arrows``, at any
    position, that is at most ``length_cap`` long or is ``goal``."""
    n = len(arrows)
    for src, lhs, rhs in schema._rules:
        k = len(lhs)
        m = n - k + len(rhs)
        if m > length_cap and m != len(goal):
            continue
        for i in range(n - k + 1):
            if arrows[i : i + k] != lhs:
                continue
            # A nonempty lhs fixes the vertex by its first arrow; an empty
            # one matches at every position, so check the vertex there.
            if not k and src != (
                schema.graph._arrow_by_name[arrows[i - 1]].target if i else source
            ):
                continue
            path = arrows[:i] + rhs + arrows[i + k :]
            if m <= length_cap or path == goal:
                yield path


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
    # States are arrow tuples: no rewrite moves the source.  Side 0 grows from
    # p, side 1 from q; each layer grows the live side with the smaller frontier.
    starts = (p.arrows, q.arrows)
    seen = ({p.arrows}, {q.arrows})
    frontiers = [[p.arrows], [q.arrows]]
    live = [0, 1]
    for _ in range(budget):
        if len(live) == 2:
            side = 1 if len(frontiers[1]) < len(frontiers[0]) else 0
        else:
            side = live[0]
        mine, theirs, goal = seen[side], seen[1 - side], starts[1 - side]
        grown = []
        for current in frontiers[side]:
            for path in _rewrites(schema, p.source, current, length_cap, goal):
                if path in mine:
                    continue
                if path in theirs:
                    return Equivalence.EQUIVALENT
                mine.add(path)
                grown.append(path)
        if not grown:
            return Equivalence.NOT_PROVED
        frontiers[side] = grown
        if len(mine) > _MAX_VISITED_STATES:
            live.remove(side)
            if not live:
                break
    return Equivalence.NOT_PROVED
