"""Translations between schemas and the three data migration functors.

delta composes an instance with a translation (projection/duplication).
sigma is the left adjoint, computed by a chase on integer tables, whose
elements get row names only at the end: seed every source row, assert
naturality along translated arrows, invent Skolem elements for missing column
values, and close under the target schema's equations with a union-find
congruence.  An equation's two sides are walked to the element before their
last arrow, and a missing last step is asserted to be the other side's
element, not invented and merged back; it still counts against the bounds.
pi is the right adjoint, computed pointwise as compatible families over a
bounded comma category, and its result is checked against the target
schema's equations.  Both pushforwards are infinite in general, so they
run under explicit bounds and fail loudly when exceeded.
"""
from __future__ import annotations

from collections import deque
from collections.abc import Mapping
from enum import Enum
from itertools import islice, repeat
from operator import itemgetter
from types import MappingProxyType

from .errors import (
    EnumerationCapError,
    PathBoundInstabilityError,
    PipelineError,
    SaturationOverflowError,
    SchemaMismatchError,
    StructuralError,
)
from .instances import (
    Instance,
    InstanceMorphism,
    assignments,
    evaluate_path,
    path_values,
    require_natural,
    validate_instance,
)
from .naming import keyed_ids, uniquify
from .schemas import (
    DEFAULT_REWRITE_BUDGET,
    Equivalence,
    Path,
    Schema,
    _equivalent,
    path_target,
    paths_equivalent,
    trivial_path,
)
from .values import Record, Value

DEFAULT_SATURATION_BOUND = 1000
DEFAULT_PATH_BOUND = 16
# Fixed caps, read where they are checked; passing one raises.
DEFAULT_SKOLEM_PATH_CAP = 16  # arrows in a Skolem term's path
DEFAULT_ELEMENT_CAP = 1000  # path classes in one comma category
DEFAULT_FAMILY_CAP = 200_000  # pi rows at one vertex


class MigrationLog(Record):
    """Optional round log of sigma: the chase's element counts per vertex
    after each round.  pi keeps no log; where it cannot place a path it
    raises."""

    _fields = ("saturation_rounds",)

    def __init__(self, saturation_rounds: list[dict[str, int]] | None = None):
        self.saturation_rounds = [] if saturation_rounds is None else saturation_rounds


class Translation(Value):
    """A schema morphism: vertices to vertices, arrows to target paths.

    It is checked once, here, to be a graph morphism: every source vertex and
    arrow is mapped, every vertex image is a target vertex, every arrow image
    is a target path from the image of the arrow's source to the image of
    its target, and no key lies outside the source.  The first fault, by
    vertex and then by arrow, raises ``StructuralError``.  ``vertex_map``
    and ``arrow_map`` are read-only views of copies of the caller's
    mappings, so the check cannot go stale.  Whether the source's equations
    hold in the target is ``check_translation``'s business.
    """

    _fields = ("source", "target", "vertex_map", "arrow_map")

    def __init__(
        self,
        source: Schema,
        target: Schema,
        vertex_map: Mapping[str, str],
        arrow_map: Mapping[str, Path],
    ):
        vertex_map = dict(vertex_map)
        arrow_map = dict(arrow_map)
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "vertex_map", MappingProxyType(vertex_map))
        object.__setattr__(self, "arrow_map", MappingProxyType(arrow_map))
        src, tgt = source.graph, target.graph
        for v in src.vertices:
            if v not in vertex_map:
                raise StructuralError(f"translation does not map vertex {v!r}")
            if not tgt.has_vertex(vertex_map[v]):
                raise StructuralError(
                    f"vertex {v!r} image {vertex_map[v]!r} is not a target vertex"
                )
        for a in src.arrows:
            path = arrow_map.get(a.name)
            if path is None:
                raise StructuralError(f"translation does not map arrow {a.name!r}")
            try:
                end = path_target(tgt, path)
            except StructuralError as exc:
                raise StructuralError(f"arrow {a.name!r} image breaks endpoints: {exc}") from None
            if path.source != vertex_map[a.source]:
                raise StructuralError(
                    f"arrow {a.name!r} image breaks endpoints: "
                    f"image starts at {path.source!r}, expected {vertex_map[a.source]!r}"
                )
            if end != vertex_map[a.target]:
                raise StructuralError(
                    f"arrow {a.name!r} image breaks endpoints: "
                    f"image ends at {end!r}, expected {vertex_map[a.target]!r}"
                )
        # Every source vertex and arrow is a key, so a surplus key is a stray.
        if len(vertex_map) != len(src.vertices):
            stray = next(v for v in vertex_map if not src.has_vertex(v))
            raise StructuralError(f"translation maps {stray!r}, which is not a source vertex")
        if len(arrow_map) != len(src.arrows):
            names = {a.name for a in src.arrows}
            stray = next(a for a in arrow_map if a not in names)
            raise StructuralError(f"translation maps {stray!r}, which is not a source arrow")

    __hash__ = None  # translations compare by their maps, which are not hashable

    def vertex_image(self, vertex: str) -> str:
        try:
            return self.vertex_map[vertex]
        except KeyError:
            raise StructuralError(f"translation does not map vertex {vertex!r}") from None

    def arrow_image(self, arrow: str) -> Path:
        try:
            return self.arrow_map[arrow]
        except KeyError:
            raise StructuralError(f"translation does not map arrow {arrow!r}") from None

    def translate_path(self, path: Path) -> Path:
        """Image of a source path: concatenation of its arrows' image paths."""
        arrows: tuple[str, ...] = ()
        for name in path.arrows:
            arrows += self.arrow_image(name).arrows
        return Path(self.vertex_image(path.source), arrows)


def identity_translation(schema: Schema) -> Translation:
    return Translation(
        schema,
        schema,
        {v: v for v in schema.vertices},
        {a.name: Path(a.source, (a.name,)) for a in schema.arrows},
    )


def compose_translations(first: Translation, then: Translation) -> Translation:
    if first.target != then.source:
        raise SchemaMismatchError("translations do not compose: middle schemas differ")
    return Translation(
        first.source,
        then.target,
        {v: then.vertex_image(w) for v, w in first.vertex_map.items()},
        {a: then.translate_path(p) for a, p in first.arrow_map.items()},
    )


class UnverifiedEquivalence(Value):
    _fields = ("equation", "lhs_image", "rhs_image", "budget")

    def __init__(self, equation: str, lhs_image: str, rhs_image: str, budget: int):
        object.__setattr__(self, "equation", equation)
        object.__setattr__(self, "lhs_image", lhs_image)
        object.__setattr__(self, "rhs_image", rhs_image)
        object.__setattr__(self, "budget", budget)

    def describe(self) -> str:
        return (
            f"could not verify within budget {self.budget} that the image of "
            f"{self.equation} holds: {self.lhs_image} = {self.rhs_image} unproved"
        )


def check_translation(
    translation: Translation, budget: int = DEFAULT_REWRITE_BUDGET
) -> list:
    """One ``UnverifiedEquivalence`` for each declared source equation whose
    image the target's equations do not prove within ``budget``; an empty
    report means valid.  ``Translation`` checked the endpoints when it was
    built.  The engine never claims a disproof of condition (b)."""
    report = []
    for eq in translation.source.equivalences:
        lhs = translation.translate_path(eq.lhs)
        rhs = translation.translate_path(eq.rhs)
        verdict = paths_equivalent(translation.target, lhs, rhs, budget)
        if verdict is not Equivalence.EQUIVALENT:
            report.append(UnverifiedEquivalence(str(eq), str(lhs), str(rhs), budget))
    return report


class TranslationEquality(Enum):
    EQUAL = "equal"
    DIFFERENT = "different"
    NOT_PROVED = "not-proved-within-budget"


def translations_equal(f: Translation, g: Translation) -> TranslationEquality:
    """Equality of translations up to target path equivalence on arrow images."""
    if f.source != g.source or f.target != g.target:
        raise SchemaMismatchError("translations compared across different schemas")
    for v in f.source.vertices:
        if f.vertex_image(v) != g.vertex_image(v):
            return TranslationEquality.DIFFERENT
    unproved = False
    for a in f.source.arrows:
        verdict = paths_equivalent(f.target, f.arrow_image(a.name), g.arrow_image(a.name))
        if verdict is not Equivalence.EQUIVALENT:
            unproved = True
    return TranslationEquality.NOT_PROVED if unproved else TranslationEquality.EQUAL


# ---------------------------------------------------------------------------
# delta: composition with the translation
# ---------------------------------------------------------------------------


def delta(translation: Translation, instance: Instance) -> Instance:
    """Pull a target-schema instance back to the source schema.

    Row sets are reused verbatim; each source arrow's column is the target
    instance evaluated along the arrow's image path, a column at a time.
    """
    if instance.schema != translation.target:
        raise SchemaMismatchError("delta: instance is not on the translation's target")
    vertex_map, arrow_map = translation.vertex_map, translation.arrow_map
    rows = {c: instance.rows[vertex_map[c]] for c in translation.source.vertices}
    columns: dict[str, dict[str, str]] = {}
    for arrow in translation.source.arrows:
        image = arrow_map[arrow.name]
        table = rows[arrow.source]
        columns[arrow.name] = dict(zip(table, path_values(instance, image, table)))
    return Instance(translation.source, rows, columns)


def delta_on_morphism(translation: Translation, m: InstanceMorphism) -> InstanceMorphism:
    """Whisker a morphism of target instances with the translation."""
    source = delta(translation, m.source)
    target = delta(translation, m.target)
    image = translation.vertex_image
    components = {c: m.component(image(c)) for c in translation.source.vertices}
    return InstanceMorphism(source, target, components)


# ---------------------------------------------------------------------------
# sigma: the chase
# ---------------------------------------------------------------------------

# A term (c, r, arrows) is the element reached from the image of source row
# r at vertex c along the given target-schema arrows: with no arrows it is
# that row's seed, otherwise a Skolem element.  The engine holds no terms:
# an element is a seed, or a prefix element and one arrow, and its term is
# read off that chain when a key or a name needs it.


def _term_display(term: tuple) -> str:
    _, r, arrows = term
    return r + "." + ".".join(arrows) if arrows else r


def _term_sort_key(term: tuple) -> tuple:
    return (len(term[2]), _term_display(term), term[0])


class _SigmaEngine:
    """The chase on integer tables: every per-element fact is a list indexed
    by element id, and every image is a list per target arrow, read at
    roots.  Elements are named only at ``extract``."""

    def __init__(
        self,
        translation: Translation,
        instance: Instance,
        saturation_bound: int,
        log: MigrationLog | None,
    ):
        self.F = translation
        self.I = instance
        self.D = translation.target
        self.bound = saturation_bound
        self.log = log
        # source vertex -> source row -> the id of its seed.  ``seed`` makes
        # the seeds first, in source vertex and table order, so a seed's id
        # is its row's place in that order.
        self.seeds: dict[str, dict[str, int]] = {}
        start = 0
        for c in translation.source.vertices:
            table = instance.rows[c]
            self.seeds[c] = dict(zip(table, range(start, start + len(table))))
            start += len(table)
        self.seed_vertex: list[str] = []  # seed -> its source vertex
        self.seed_row: list[str] = []  # seed -> its source row
        # element -> its prefix element and last arrow, None for a seed
        self.prefix: list[int | None] = []
        self.last: list[str | None] = []
        self.depth: list[int] = []  # element -> the arrows in its term
        self.vertex_of: list[str] = []
        self.parent: list[int] = []
        self.size: list[int] = []  # class size, read at roots only
        self.rep: list[int] = []  # the class's least element by term, read at roots only
        # arrow -> element -> its image, None while it has none; read at roots
        self.img: dict[str, list[int | None]] = {a.name: [] for a in self.D.arrows}
        self.target_of = {a.name: a.target for a in self.D.arrows}
        self.queue: deque[tuple[int, int]] = deque()
        self.per_vertex: dict[str, int] = dict.fromkeys(self.D.vertices, 0)  # charges
        # roots per vertex: +1 as an element is made, -1 as a union merges two
        self.classes: dict[str, int] = dict.fromkeys(self.D.vertices, 0)
        # The element count when totalize, and when each equation's pass in
        # apply_equations, last took its roots: a pass visits only roots made
        # since (see those two passes).
        self.totalized = 0
        self.settled = [0] * len(self.D.equivalences)

    # -- union-find ---------------------------------------------------------

    def find(self, x: int) -> int:
        parent = self.parent
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(self, a: int, b: int) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        size = self.size
        if size[ra] < size[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        size[ra] += size[rb]
        vertex = self.vertex_of[ra]
        self.classes[vertex] -= 1
        rep = self.rep
        if _term_sort_key(self.term(rep[rb])) < _term_sort_key(self.term(rep[ra])):
            rep[ra] = rep[rb]
        img = self.img
        for arrow in self.D.graph.out_arrows(vertex):
            images = img[arrow.name]
            t = images[rb]
            if t is not None:
                held = images[ra]
                if held is None:
                    images[ra] = t
                else:
                    self.queue.append((t, held))
        return True

    def process_queue(self) -> bool:
        changed = False
        while self.queue:
            a, b = self.queue.popleft()
            changed |= self.union(a, b)
        return changed

    # -- elements --------------------------------------------------------------

    # An element rep + arrow is only ever made where the class holding rep
    # has no image under arrow, and a class keeps its elements and its
    # images, so no term is made twice.

    def term(self, tid: int) -> tuple:
        """The term of element ``tid``, read off its prefix chain."""
        prefix, last = self.prefix, self.last
        arrows = []
        while prefix[tid] is not None:
            arrows.append(last[tid])
            tid = prefix[tid]
        arrows.reverse()
        return (self.seed_vertex[tid], self.seed_row[tid], tuple(arrows))

    def step_term(self, root: int, arrow: str) -> tuple:
        c, r, arrows = self.term(self.rep[root])
        return (c, r, arrows + (arrow,))

    def charge(self, depth: int, vertex: str) -> None:
        """Count an element of ``depth`` arrows against the Skolem path cap
        and the bound at its vertex."""
        if depth > DEFAULT_SKOLEM_PATH_CAP:
            raise SaturationOverflowError(
                f"chase keeps extending Skolem paths past {DEFAULT_SKOLEM_PATH_CAP} at "
                f"vertex {vertex!r}; the colimit there is infinite or the bound too low",
                vertex=vertex,
            )
        count = self.per_vertex[vertex] + 1
        if count > self.bound:
            raise SaturationOverflowError(
                f"chase exceeded {self.bound} elements at vertex {vertex!r}; "
                "the colimit there is infinite or the bound too low",
                vertex=vertex,
            )
        self.per_vertex[vertex] = count

    def make(self, prefix: int, arrow: str, vertex: str) -> int:
        """A new element, ``prefix`` and one arrow, alone in its class;
        ``charge`` has counted it."""
        tid = len(self.parent)
        self.prefix.append(prefix)
        self.last.append(arrow)
        self.depth.append(self.depth[prefix] + 1)
        self.vertex_of.append(vertex)
        self.parent.append(tid)
        self.size.append(1)
        self.rep.append(tid)
        for images in self.img.values():
            images.append(None)
        self.classes[vertex] += 1
        return tid

    def step(self, root: int, arrow: str, vertex: str) -> int:
        """A new element, the root's representative and one arrow, charged."""
        prefix = self.rep[root]
        self.charge(self.depth[prefix] + 1, vertex)
        return self.make(prefix, arrow, vertex)

    def step_create(self, eid: int, arrow: str) -> int:
        """Image of an element under one arrow, creating a Skolem if missing."""
        root = self.find(eid)
        images = self.img[arrow]
        existing = images[root]
        if existing is not None:
            return self.find(existing)
        tid = self.step(root, arrow, self.target_of[arrow])
        images[root] = tid
        return tid

    def walk_create(self, eid: int, arrows: tuple[str, ...]) -> int:
        for name in arrows:
            eid = self.step_create(eid, name)
        return eid

    def settle(self, a: int, f: str | None, b: int, g: str | None) -> bool:
        """Equate the f-image of a with the g-image of b, where None stands
        for no step.  A missing image is asserted to be the other side's
        element instead of being made and merged back; it is still charged,
        and if its term would have named the class it is made and merged, as
        before.  When both are missing, only the term that sorts first is
        made.  True when the two were not yet equal."""
        a, b = self.find(a), self.find(b)
        img = self.img
        x = a if f is None else img[f][a]
        y = b if g is None else img[g][b]
        if x is not None and y is not None:
            if self.find(x) == self.find(y):
                return False
            self.queue.append((x, y))
            return True
        if x is None and y is None:
            vertex = self.target_of[f]
            if a == b and f == g:  # one term: a root's representative is its own
                img[f][a] = self.step(a, f, vertex)
                return False
            rep, depth = self.rep, self.depth
            self.charge(depth[rep[a]] + 1, vertex)
            self.charge(depth[rep[b]] + 1, vertex)
            if _term_sort_key(self.step_term(b, g)) < _term_sort_key(self.step_term(a, f)):
                tid = self.make(rep[b], g, vertex)
            else:
                tid = self.make(rep[a], f, vertex)
            img[f][a] = img[g][b] = tid
            return True
        if x is None:
            at, arrow, x = a, f, y
        else:
            at, arrow = b, g
        vertex = self.vertex_of[x]
        if _term_sort_key(self.step_term(at, arrow)) < _term_sort_key(
            self.term(self.rep[self.find(x)])
        ):
            tid = self.step(at, arrow, vertex)
            self.queue.append((tid, x))
        else:
            self.charge(self.depth[self.rep[at]] + 1, vertex)
            tid = x
        img[arrow][at] = tid
        return True

    # -- chase phases ---------------------------------------------------------

    def seed(self) -> None:
        """Make every source row's seed, each table's at once, with the ids
        of ``self.seeds``: the chase starts here.  A table's seeds are
        charged together, and past the bound the charge of the first seed
        past it raises."""
        for c, seeds in self.seeds.items():
            n = len(seeds)
            if not n:
                continue
            vertex = self.F.vertex_image(c)
            past = self.bound - self.per_vertex[vertex]  # the first row past the bound
            if past < n:
                self.per_vertex[vertex] = self.bound
                self.charge(0, vertex)
            self.per_vertex[vertex] += n
            self.classes[vertex] += n
            self.seed_vertex.extend(repeat(c, n))
            self.seed_row.extend(seeds)
            self.vertex_of.extend(repeat(vertex, n))
        ids = list(range(len(self.seed_row)))
        self.parent.extend(ids)
        self.rep.extend(ids)
        n = len(ids)
        self.size.extend(repeat(1, n))
        self.depth.extend(repeat(0, n))
        self.prefix.extend(repeat(None, n))
        self.last.extend(repeat(None, n))
        for images in self.img.values():
            images.extend(repeat(None, n))

    def assert_naturality(self) -> None:
        """Assert each source column along its image path, one column at a
        time: the walk along the image's first arrows from each row's seed
        gets its value's seed as the image's last step.  No union runs here,
        so every element is a root."""
        for arrow in self.F.source.arrows:
            image = self.F.arrow_image(arrow.name).arrows
            values = map(self.I.columns[arrow.name].__getitem__, self.I.rows[arrow.source])
            ends = map(self.seeds[arrow.target].__getitem__, values)
            pairs = zip(self.seeds[arrow.source].values(), ends)
            if not image:
                self.queue.extend(pairs)
                continue
            walk, images = image[:-1], self.img[image[-1]]
            for start, end in pairs:
                at = self.walk_create(start, walk) if walk else start
                existing = images[at]
                if existing is None:
                    images[at] = end
                else:
                    self.queue.append((existing, end))

    # A pass of apply_equations or totalize visits the roots in id order, and
    # the queue is emptied before the next pass.  Unions only merge classes,
    # and a merged class keeps every image of both, so what a pass did for a
    # class holds for every class that grows out of it.  So a class that
    # holds an element older than the pass's last run needs nothing from it:
    # totalize made it total, and apply_equations settled the equation at it.
    # A visit would walk images that exist and find both sides equal, making,
    # charging and changing nothing.  Each pass visits only the roots made
    # since it last ran, and does all that a visit of every root would.

    def roots_since(self, since: int) -> list[int]:
        """The roots made at or after element ``since``, in id order."""
        parent = self.parent
        return [tid for tid in range(since, len(parent)) if parent[tid] == tid]

    def apply_equations(self) -> bool:
        changed = False
        vertex_of = self.vertex_of
        for k, eq in enumerate(self.D.equivalences):
            lhs, rhs = eq.lhs.arrows, eq.rhs.arrows
            f = lhs[-1] if lhs else None
            g = rhs[-1] if rhs else None
            since, self.settled[k] = self.settled[k], len(self.parent)
            v = eq.lhs.source
            for root in [r for r in self.roots_since(since) if vertex_of[r] == v]:
                a = self.walk_create(root, lhs[:-1])
                b = self.walk_create(root, rhs[:-1])
                changed |= self.settle(a, f, b, g)
        return changed

    def totalize(self) -> bool:
        changed = False
        out_arrows = self.D.graph.out_arrows
        img = self.img
        since, self.totalized = self.totalized, len(self.parent)
        for root in self.roots_since(since):  # no union runs here
            for arrow in out_arrows(self.vertex_of[root]):
                images = img[arrow.name]
                if images[root] is None:
                    images[root] = self.step(root, arrow.name, arrow.target)
                    changed = True
        return changed

    def run(self) -> None:
        self.seed()
        self.assert_naturality()
        self.process_queue()
        while True:
            changed = self.apply_equations()
            changed |= self.process_queue()
            changed |= self.totalize()
            changed |= self.process_queue()
            if self.log is not None:
                self.log.saturation_rounds.append(dict(self.classes))
            if not changed:
                return

    # -- extraction ------------------------------------------------------------

    def _root_order_key(self, root: int) -> tuple:
        """Seeds in source vertex and table order, then Skolem elements by
        their seed's place, path length and arrow order.  A seed's id is its
        place (see ``self.seeds``), and the seed of a representative's term
        ends its prefix chain."""
        tid = self.rep[root]
        order, prefix, last = self.D.graph._arrow_order, self.prefix, self.last
        arrows = []
        while prefix[tid] is not None:
            arrows.append(order[last[tid]])
            tid = prefix[tid]
        if not arrows:
            return (False, tid)
        arrows.reverse()
        return (True, tid, len(arrows), tuple(arrows))

    def extract(self) -> tuple:
        """The instance of ``named_tables``, and its ``row_maps``.  Only
        ``term`` reads the chase after naming, so the chase's other tables go
        before the instance copies the columns."""
        rows, columns, row_maps = self.named_tables()
        self.img = self.parent = self.size = self.rep = self.depth = self.vertex_of = None
        return Instance(self.D, rows, columns), row_maps

    def named_tables(self) -> tuple:
        """The rows and columns of sigma's instance, and the ``row_maps`` of
        its result.  Each class is a row, named by its representative's term
        and placed by ``_root_order_key``; each element's row is read off
        one list, once every element points at its root."""
        rep, parent = self.rep, self.parent
        for tid in range(len(parent)):  # after this, parent[tid] is tid's root
            if parent[parent[tid]] != parent[tid]:
                parent[tid] = self.find(tid)
        roots_by_vertex: dict[str, list[int]] = {v: [] for v in self.D.vertices}
        vertex_of = self.vertex_of
        for tid in range(len(parent)):
            if parent[tid] == tid:
                roots_by_vertex[vertex_of[tid]].append(tid)
        rows: dict[str, tuple[str, ...]] = {}
        row_of: list = [None] * len(parent)  # root -> its row
        named: list[tuple[str, list[str], list[int]]] = []  # (vertex, rows, their reps)
        prefix, source_row, term = self.prefix, self.seed_row, self.term
        for v, roots in roots_by_vertex.items():
            if not roots:
                rows[v] = ()
                continue
            if len(roots) > 1:
                roots.sort(key=self._root_order_key)  # now in table order
            reps = list(map(rep.__getitem__, roots))
            names = uniquify(
                [
                    source_row[tid] if prefix[tid] is None else _term_display(term(tid))
                    for tid in reps
                ]
            )
            rows[v] = tuple(names)
            for root, name in zip(roots, names):
                row_of[root] = name
            named.append((v, names, reps))
        row_of = list(map(row_of.__getitem__, parent))  # element -> its row
        columns: dict[str, dict[str, str]] = {}
        for arrow in self.D.arrows:
            images = map(self.img[arrow.name].__getitem__, roots_by_vertex[arrow.source])
            columns[arrow.name] = dict(zip(rows[arrow.source], map(row_of.__getitem__, images)))
        seeds = self.seeds

        def row_maps():
            seed_row = {(c, r): row_of[tid] for c, ids in seeds.items() for r, tid in ids.items()}
            row_term = {
                (v, name): term(tid) for v, names, reps in named for name, tid in zip(names, reps)
            }
            return seed_row, row_term

        return rows, columns, row_maps


class SigmaResult(Record):
    """sigma's instance, where each source row went, and the term that
    names each output row.  ``sigma_full`` builds ``seed_row`` and
    ``row_term``: ``sigma`` needs neither, and does not."""

    _fields = ("instance", "seed_row", "row_term")

    def __init__(
        self,
        instance: Instance,
        seed_row: dict[tuple[str, str], str],  # (source vertex, source row) -> output row
        row_term: dict[tuple[str, str], tuple],  # (target vertex, output row) -> canonical term
    ):
        self.instance = instance
        self.seed_row = seed_row
        self.row_term = row_term


def _chase(
    translation: Translation, instance: Instance, saturation_bound: int, log: MigrationLog | None
) -> tuple:
    """sigma's instance and the ``row_maps`` that build the rest of its result."""
    if instance.schema != translation.source:
        raise SchemaMismatchError("sigma: instance is not on the translation's source")
    engine = _SigmaEngine(translation, instance, saturation_bound, log)
    engine.run()
    return engine.extract()


def sigma_full(
    translation: Translation,
    instance: Instance,
    saturation_bound: int = DEFAULT_SATURATION_BOUND,
    log: MigrationLog | None = None,
) -> SigmaResult:
    result, row_maps = _chase(translation, instance, saturation_bound, log)
    return SigmaResult(result, *row_maps())


def sigma(
    translation: Translation,
    instance: Instance,
    saturation_bound: int = DEFAULT_SATURATION_BOUND,
    log: MigrationLog | None = None,
) -> Instance:
    return _chase(translation, instance, saturation_bound, log)[0]


def sigma_on_morphism(translation: Translation, m: InstanceMorphism) -> InstanceMorphism:
    """Induced map on chase classes: a class named by (seed, path) goes to the
    class reached by walking the same path from the image seed."""
    src = sigma_full(translation, m.source)
    tgt = sigma_full(translation, m.target)
    components: dict[str, dict[str, str]] = {v: {} for v in translation.target.vertices}
    for d in translation.target.vertices:
        for row in src.instance.row_set(d):
            c, r, arrows = src.row_term[(d, row)]
            at = tgt.seed_row[(c, m.apply(c, r))]
            for arrow in arrows:
                at = tgt.instance.column(arrow)[at]
            components[d][row] = at
    return require_natural(
        InstanceMorphism(src.instance, tgt.instance, components), "sigma image"
    )


# ---------------------------------------------------------------------------
# pi: compatible families over the comma category
# ---------------------------------------------------------------------------


class _VertexFamilies(Record):
    _fields = ("classes", "targets", "placed", "comps", "rows", "exhausted")

    def __init__(
        self,
        classes: list[Path],  # representative target paths out of this vertex
        targets: list[str],  # each class's target vertex
        placed: dict[tuple[str, ...], int],  # arrows of a path the class search placed -> its class
        comps: list[tuple[str, int]],  # (source vertex, class index)
        rows: dict[tuple[str, ...], str],  # join tuple (a row per comp) -> row id, join order
        exhausted: bool,  # the class search ran out of new classes within the bound
    ):
        self.classes = classes
        self.targets = targets
        self.placed = placed
        self.comps = comps
        self.rows = rows
        self.exhausted = exhausted


class PiResult(Record):
    _fields = ("instance", "data")

    def __init__(self, instance: Instance, data: dict[str, _VertexFamilies]):
        self.instance = instance
        self.data = data


def _comma_classes(
    schema: Schema, start: str, path_bound: int, budget: int
) -> tuple[list[Path], list[str], dict[tuple[str, ...], int], bool]:
    """Equivalence classes of paths out of ``start``, one representative each;
    each class's target; every path the search placed, by its arrows, with
    the class it matched or made; and whether the search ran out of new
    classes within ``path_bound``.

    Breadth-first over classes: extending only representatives is complete
    because the closure conditions let any extension be rewritten onto the
    representative's extension.  When the frontier empties, a larger bound
    finds exactly the same classes.

    A placement is what ``_match_class`` gives the path on the final classes
    too: the class list only grows, so a path matched to class k matches no
    earlier class then or later, and a path that became class j matches no
    class before j and is j's own representative.
    """
    classes: list[Path] = [trivial_path(start)]
    targets = [start]
    placed: dict[tuple[str, ...], int] = {(): 0}
    frontier = [0]
    for _ in range(path_bound):
        if not frontier:
            break
        next_frontier: list[int] = []
        for idx in frontier:
            rep = classes[idx]
            for arrow in schema.graph.out_arrows(targets[idx]):
                candidate = Path(start, rep.arrows + (arrow.name,))
                k = _match_class(schema, classes, targets, candidate, arrow.target, budget)
                if k is None:
                    k = len(classes)
                    classes.append(candidate)
                    targets.append(arrow.target)
                    next_frontier.append(k)
                    if len(classes) > DEFAULT_ELEMENT_CAP:
                        raise PathBoundInstabilityError(
                            f"comma category at vertex {start!r} exceeded "
                            f"{DEFAULT_ELEMENT_CAP} path classes",
                            vertex=start,
                        )
                placed[candidate.arrows] = k
        frontier = next_frontier
    return classes, targets, placed, not frontier


def _match_class(
    schema: Schema, classes: list[Path], targets: list[str], path: Path, target: str, budget: int
) -> int | None:
    """The first class that ``path``, a valid path from the classes' source
    to ``target``, is proved equivalent to, or None."""
    for i, rep in enumerate(classes):
        if targets[i] == target and (
            _equivalent(schema, path, rep, budget) is Equivalence.EQUIVALENT
        ):
            return i
    return None


def _place(
    schema: Schema,
    classes: list[Path],
    targets: list[str],
    placed: dict[tuple[str, ...], int],
    arrows: tuple[str, ...],
    target: str,
    budget: int,
    what: str,
) -> int:
    """The class of the path along ``arrows`` from the classes' source to
    ``target``: where the class search placed it, if it did, and otherwise
    ``_match_class``'s answer.  A path in no class raises
    ``PathBoundInstabilityError`` at the source, its text led by ``what``."""
    k = placed.get(arrows)
    if k is not None:
        return k
    path = Path(classes[0].source, arrows)
    k = _match_class(schema, classes, targets, path, target, budget)
    if k is None:
        raise PathBoundInstabilityError(
            f"{what}: composite {path} has no path class at {path.source!r} within bounds",
            vertex=path.source,
        )
    return k


def _families_at(
    translation: Translation,
    instance: Instance,
    vertex: str,
    path_bound: int,
    budget: int,
) -> _VertexFamilies:
    D = translation.target
    C = translation.source
    classes, targets, placed, exhausted = _comma_classes(D, vertex, path_bound, budget)
    vertex_map = translation.vertex_map
    comps: list[tuple[str, int]] = []
    for c in C.vertices:
        image = vertex_map[c]
        comps.extend((c, i) for i, t in enumerate(targets) if t == image)
    comp_index = {comp: k for k, comp in enumerate(comps)}

    # Comma morphisms induced by source arrows whose translated triangle commutes.
    constraints: list[tuple[int, int, str]] = []  # (from comp, to comp, source arrow)
    for arrow in C.arrows:
        image = translation.arrow_map[arrow.name].arrows
        start, end = vertex_map[arrow.source], vertex_map[arrow.target]
        what = f"pi cannot place the comma morphism of source arrow {arrow.name!r}"
        for i, t in enumerate(targets):
            if t != start:
                continue
            j = _place(D, classes, targets, placed, classes[i].arrows + image, end, budget, what)
            constraints.append(
                (comp_index[(arrow.source, i)], comp_index[(arrow.target, j)], arrow.name)
            )

    families = _compatible_families(instance, comps, constraints, vertex)
    rows = dict(zip(families, _family_row_ids(comps, families, classes)))
    return _VertexFamilies(classes, targets, placed, comps, rows, exhausted)


def _compatible_families(
    instance: Instance,
    comps: list[tuple[str, int]],
    constraints: list[tuple[int, int, str]],
    vertex: str,
) -> list[tuple[str, ...]]:
    """Every choice of one row per component that satisfies every constraint
    ``column(arrow)[row i] == row j``, in nested-loop order (see
    ``instances.assignments``)."""
    families = list(islice(assignments(instance, comps, constraints), DEFAULT_FAMILY_CAP + 1))
    if len(families) > DEFAULT_FAMILY_CAP:
        raise EnumerationCapError(
            f"pi produced more than {DEFAULT_FAMILY_CAP} rows at vertex {vertex!r}",
            vertex=vertex,
        )
    return families


def _family_row_ids(
    comps: list[tuple[str, int]],
    families: list[tuple[str, ...]],
    classes: list[Path],
) -> list[str]:
    """Deterministic family ids.

    When the trivial-path components already determine each family the id is
    built from them alone (a single such component keeps the bare row id, so
    tables copied through unchanged keep their original ids); otherwise every
    component is serialized.
    """
    if not families:
        return []
    if not comps:
        return uniquify(["()" for _ in families])
    trivial_comps = [k for k, (_, cls) in enumerate(comps) if classes[cls].is_trivial]
    if len(trivial_comps) == 1:
        ids = list(map(itemgetter(trivial_comps[0]), families))
        if len(set(ids)) == len(ids):
            return ids
    elif trivial_comps:
        restricted = [tuple(fam[k] for k in trivial_comps) for fam in families]
        if len(set(restricted)) == len(families):
            return uniquify(keyed_ids([comps[k][0] for k in trivial_comps], restricted))
    return uniquify(keyed_ids([f"{c}[{classes[cls]}]" for c, cls in comps], families))


def _tuple_getter(indices: list[int]):
    """A function from a tuple to the tuple of its items at ``indices``."""
    if len(indices) == 1:
        k = indices[0]
        return lambda values: (values[k],)
    if not indices:
        return lambda values: ()
    return itemgetter(*indices)


def pi_full(
    translation: Translation,
    instance: Instance,
    path_bound: int = DEFAULT_PATH_BOUND,
    budget: int = DEFAULT_REWRITE_BUDGET,
) -> PiResult:
    if instance.schema != translation.source:
        raise SchemaMismatchError("pi: instance is not on the translation's source")
    D = translation.target
    data = {d: _families_at(translation, instance, d, path_bound, budget) for d in D.vertices}
    # Mandatory stability check: one more unit of path bound must not change
    # any row count, otherwise the comma category was not exhausted.  Where
    # the class search ran out of new classes within the bound, the classes,
    # and so the families, are the same one unit higher, so only the other
    # vertices are recomputed.  All of them are recomputed before any count is
    # compared, so a run that fails in several ways raises the same error as
    # when every vertex is probed.
    unsettled = [d for d in D.vertices if not data[d].exhausted]
    probe = {d: _families_at(translation, instance, d, path_bound + 1, budget) for d in unsettled}
    for d in unsettled:
        if len(data[d].rows) != len(probe[d].rows):
            raise PathBoundInstabilityError(
                f"pi row count at vertex {d!r} changed when the path bound was "
                f"raised from {path_bound} to {path_bound + 1}; raise the bound "
                "or the result is infinite/undetermined",
                vertex=d,
            )

    rows = {d: tuple(data[d].rows.values()) for d in D.vertices}
    columns: dict[str, dict[str, str]] = {}
    for arrow in D.arrows:
        src_data = data[arrow.source]
        tgt_data = data[arrow.target]
        src_comp_index = {comp: k for k, comp in enumerate(src_data.comps)}
        # Precompute, per target component, which source component restricts
        # to it: the class of the arrow followed by the component's class.
        comp_map: list[int] = []
        what = f"pi cannot restrict along arrow {arrow.name!r}"
        for (c, cls) in tgt_data.comps:
            arrows = (arrow.name,) + tgt_data.classes[cls].arrows
            idx = _place(
                D, src_data.classes, src_data.targets, src_data.placed, arrows,
                tgt_data.targets[cls], budget, what,
            )
            comp_map.append(src_comp_index[(c, idx)])
        outs = list(map(tgt_data.rows.get, map(_tuple_getter(comp_map), src_data.rows)))
        if None in outs:
            raise PathBoundInstabilityError(
                f"pi restriction along {arrow.name!r} produced a family not "
                f"present at {arrow.target!r}; raise the path bound",
                vertex=arrow.target,
            )
        columns[arrow.name] = dict(zip(src_data.rows.values(), outs))
    result = Instance(D, rows, columns)
    # A true path class that the rewrite search could not join is split in
    # two, and the families over both halves then break an equation of D.
    report = validate_instance(result)
    if report:
        first = report[0]
        vertex = next(eq.lhs.source for eq in D.equivalences if str(eq) == first.equation)
        raise PathBoundInstabilityError(
            f"pi result at vertex {vertex!r}: {first.describe()}; a path class "
            "there rests on an unfinished rewrite search, so raise the rewrite budget",
            vertex=vertex,
        )
    return PiResult(result, data)


def pi(
    translation: Translation,
    instance: Instance,
    path_bound: int = DEFAULT_PATH_BOUND,
    budget: int = DEFAULT_REWRITE_BUDGET,
) -> Instance:
    return pi_full(translation, instance, path_bound, budget).instance


def pi_on_morphism(translation: Translation, m: InstanceMorphism) -> InstanceMorphism:
    """Induced map on compatible families: post-compose every component."""
    src = pi_full(translation, m.source)
    tgt = pi_full(translation, m.target)
    components: dict[str, dict[str, str]] = {}
    for d in translation.target.vertices:
        sdata, tdata = src.data[d], tgt.data[d]
        mapping = {}
        for fam, rid in sdata.rows.items():
            image = tuple(m.apply(c, row) for (c, _), row in zip(sdata.comps, fam))
            out = tdata.rows.get(image)
            if out is None:
                raise PathBoundInstabilityError(
                    f"pi image family missing at vertex {d!r}", vertex=d
                )
            mapping[rid] = out
        components[d] = mapping
    return require_natural(
        InstanceMorphism(src.instance, tgt.instance, components), "pi image"
    )


# ---------------------------------------------------------------------------
# adjunction witnesses
# ---------------------------------------------------------------------------


class AdjunctionWitnesses(Record):
    _fields = ("unit_sigma", "counit_sigma", "unit_pi", "counit_pi")

    def __init__(
        self,
        unit_sigma: InstanceMorphism,  # I -> delta(sigma(I))
        counit_sigma: InstanceMorphism,  # sigma(delta(J)) -> J
        unit_pi: InstanceMorphism,  # J -> pi(delta(J))
        counit_pi: InstanceMorphism,  # delta(pi(I)) -> I
    ):
        self.unit_sigma = unit_sigma
        self.counit_sigma = counit_sigma
        self.unit_pi = unit_pi
        self.counit_pi = counit_pi


def sigma_unit(translation: Translation, instance: Instance) -> InstanceMorphism:
    """eta_I: each source row goes to the chase class of its seed."""
    result = sigma_full(translation, instance)
    pulled = delta(translation, result.instance)
    components = {
        c: {r: result.seed_row[(c, r)] for r in instance.row_set(c)}
        for c in translation.source.vertices
    }
    return require_natural(
        InstanceMorphism(instance, pulled, components), "sigma unit"
    )


def sigma_counit(translation: Translation, instance: Instance) -> InstanceMorphism:
    """epsilon_J: a chase class named (seed, path) evaluates its path in J."""
    pulled = delta(translation, instance)
    result = sigma_full(translation, pulled)
    components: dict[str, dict[str, str]] = {v: {} for v in translation.target.vertices}
    for d in translation.target.vertices:
        for row in result.instance.row_set(d):
            c, r, arrows = result.row_term[(d, row)]
            components[d][row] = evaluate_path(
                instance, Path(translation.vertex_image(c), arrows), r
            )
    return require_natural(
        InstanceMorphism(result.instance, instance, components), "sigma counit"
    )


def pi_unit(translation: Translation, instance: Instance) -> InstanceMorphism:
    """eta'_J: a row becomes the family of all its path evaluations."""
    pulled = delta(translation, instance)
    result = pi_full(translation, pulled)
    components: dict[str, dict[str, str]] = {}
    for d in translation.target.vertices:
        data = result.data[d]
        mapping = {}
        for row in instance.row_set(d):
            family = tuple(
                evaluate_path(instance, Path(d, data.classes[cls].arrows), row)
                for _, cls in data.comps
            )
            out = data.rows.get(family)
            if out is None:
                raise PathBoundInstabilityError(
                    f"pi unit family missing at vertex {d!r}", vertex=d
                )
            mapping[row] = out
        components[d] = mapping
    return require_natural(
        InstanceMorphism(instance, result.instance, components), "pi unit"
    )


def pi_counit(translation: Translation, instance: Instance) -> InstanceMorphism:
    """epsilon'_I: project a compatible family at its trivial-path component."""
    result = pi_full(translation, instance)
    pulled = delta(translation, result.instance)
    components: dict[str, dict[str, str]] = {}
    for c in translation.source.vertices:
        d = translation.vertex_image(c)
        data = result.data[d]
        # ``_comma_classes`` puts the trivial path at d first, as class 0.
        k = data.comps.index((c, 0))
        components[c] = {rid: fam[k] for fam, rid in data.rows.items()}
    return require_natural(
        InstanceMorphism(pulled, instance, components), "pi counit"
    )


def adjunction_unit_counit(
    translation: Translation,
    instance_on_source: Instance,
    instance_on_target: Instance,
) -> AdjunctionWitnesses:
    """The four canonical morphisms witnessing sigma -| delta -| pi."""
    return AdjunctionWitnesses(
        unit_sigma=sigma_unit(translation, instance_on_source),
        counit_sigma=sigma_counit(translation, instance_on_target),
        unit_pi=pi_unit(translation, instance_on_target),
        counit_pi=pi_counit(translation, instance_on_source),
    )


# ---------------------------------------------------------------------------
# pipelines
# ---------------------------------------------------------------------------


class StepKind(Enum):
    DELTA = "delta"
    SIGMA = "sigma"
    PI = "pi"
    SIGMA_HAT = "sigma-hat"
    DELTA_HAT = "delta-hat"
    PI_HAT = "pi-hat"


class PipelineStep(Record):
    _fields = ("kind", "translation", "type_morphism")

    def __init__(
        self,
        kind: StepKind,
        translation: Translation | None = None,
        type_morphism: InstanceMorphism | None = None,
    ):
        self.kind = kind
        self.translation = translation
        self.type_morphism = type_morphism


class MigrationPipeline(Record):
    _fields = ("steps",)

    def __init__(self, steps: tuple[PipelineStep, ...] = ()):
        self.steps = steps


def run_pipeline(pipeline: MigrationPipeline, start):
    """Evaluate the steps left to right; a step whose input does not line up
    raises ``PipelineError`` naming it."""
    from . import typed as typed_module  # local import: typed builds on migration

    plain = {StepKind.DELTA: delta, StepKind.SIGMA: sigma, StepKind.PI: pi}
    retype = {
        StepKind.SIGMA_HAT: typed_module.typechange_sigma,
        StepKind.DELTA_HAT: typed_module.typechange_delta,
        StepKind.PI_HAT: typed_module.typechange_pi,
    }
    value = start
    for i, step in enumerate(pipeline.steps):
        if step.kind in plain:
            if not isinstance(value, Instance):
                raise PipelineError(f"step {i}: {step.kind.value} needs a plain instance")
            if step.translation is None:
                raise PipelineError(f"step {i}: {step.kind.value} needs a translation")
            run, by = plain[step.kind], step.translation
        else:
            if step.type_morphism is None:
                raise PipelineError(f"step {i}: {step.kind.value} needs a typing morphism")
            if not isinstance(value, typed_module.TypedInstance):
                raise PipelineError(f"step {i}: {step.kind.value} needs a typed instance")
            run, by = retype[step.kind], step.type_morphism
        try:
            value = run(by, value)
        except SchemaMismatchError as exc:
            raise PipelineError(f"step {i}: {exc}") from exc
    return value
