"""Translations between schemas and the three data migration functors.

delta composes an instance with a translation (projection/duplication).
sigma is the left adjoint, computed by a chase: seed every source row, assert
naturality along translated arrows, invent Skolem elements for missing column
values, and close under the target schema's equations with a union-find
congruence.  An equation's two sides are walked to the element before their
last arrow, and a missing last step is asserted to be the other side's
element, not invented and merged back; it still counts against the bounds.
pi is the right adjoint, computed pointwise as compatible families over a
bounded comma category.  Both pushforwards are infinite in general, so they
run under explicit bounds and fail loudly when exceeded.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from enum import Enum

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
    require_natural,
)
from .naming import keyed_id, uniquify
from .schemas import (
    DEFAULT_REWRITE_BUDGET,
    Equivalence,
    Path,
    Schema,
    path_target,
    paths_equivalent,
    trivial_path,
)

DEFAULT_SATURATION_BOUND = 1000
DEFAULT_SKOLEM_PATH_CAP = 16
DEFAULT_PATH_BOUND = 16
DEFAULT_ELEMENT_CAP = 1000
DEFAULT_FAMILY_CAP = 200_000


@dataclass
class MigrationLog:
    """Optional run log: bound settings, unverified-equivalence incidents,
    and per-round element counts from the chase."""

    bounds: dict = field(default_factory=dict)
    warnings: list[str] = field(default_factory=list)
    saturation_rounds: list[dict[str, int]] = field(default_factory=list)

    def warn(self, message: str) -> None:
        self.warnings.append(message)


@dataclass
class Translation:
    """A schema morphism: vertices to vertices, arrows to target paths."""

    source: Schema
    target: Schema
    vertex_map: dict[str, str]
    arrow_map: dict[str, Path]

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


@dataclass(frozen=True)
class MissingMapping:
    kind: str  # "vertex" | "arrow"
    name: str

    def describe(self) -> str:
        return f"translation does not map {self.kind} {self.name!r}"


@dataclass(frozen=True)
class EndpointViolation:
    arrow: str
    detail: str

    def describe(self) -> str:
        return f"arrow {self.arrow!r} image breaks endpoints: {self.detail}"


@dataclass(frozen=True)
class UnverifiedEquivalence:
    equation: str
    lhs_image: str
    rhs_image: str
    budget: int

    def describe(self) -> str:
        return (
            f"could not verify within budget {self.budget} that the image of "
            f"{self.equation} holds: {self.lhs_image} = {self.rhs_image} unproved"
        )


def structural_violations(translation: Translation) -> list:
    """Violations of the endpoint condition (totality plus source/target match)."""
    report = []
    src, tgt = translation.source, translation.target
    for v in src.vertices:
        image = translation.vertex_map.get(v)
        if image is None:
            report.append(MissingMapping("vertex", v))
        elif not tgt.graph.has_vertex(image):
            report.append(
                EndpointViolation(v, f"vertex image {image!r} is not a target vertex")
            )
    for a in src.arrows:
        path = translation.arrow_map.get(a.name)
        if path is None:
            report.append(MissingMapping("arrow", a.name))
            continue
        try:
            actual_target = path_target(tgt.graph, path)
        except StructuralError as exc:
            report.append(EndpointViolation(a.name, str(exc)))
            continue
        expected_source = translation.vertex_map.get(a.source)
        expected_target = translation.vertex_map.get(a.target)
        if expected_source is not None and path.source != expected_source:
            report.append(
                EndpointViolation(
                    a.name,
                    f"image starts at {path.source!r}, expected {expected_source!r}",
                )
            )
        if expected_target is not None and actual_target != expected_target:
            report.append(
                EndpointViolation(
                    a.name,
                    f"image ends at {actual_target!r}, expected {expected_target!r}",
                )
            )
    return report


def require_structural(translation: Translation) -> Translation:
    report = structural_violations(translation)
    if report:
        raise StructuralError("; ".join(item.describe() for item in report[:3]))
    return translation


def check_translation(
    translation: Translation, budget: int = DEFAULT_REWRITE_BUDGET
) -> list:
    """Full validation report: endpoint violations plus, for every declared
    source equation, either nothing (image proved equivalent) or an
    Unverified item.  The engine never claims a disproof of condition (b)."""
    report = structural_violations(translation)
    if report:
        return report
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


def translations_equal(
    f: Translation, g: Translation, budget: int = DEFAULT_REWRITE_BUDGET
) -> TranslationEquality:
    """Equality of translations up to target path equivalence on arrow images."""
    if f.source != g.source or f.target != g.target:
        raise SchemaMismatchError("translations compared across different schemas")
    for v in f.source.vertices:
        if f.vertex_image(v) != g.vertex_image(v):
            return TranslationEquality.DIFFERENT
    unproved = False
    for a in f.source.arrows:
        verdict = paths_equivalent(f.target, f.arrow_image(a.name), g.arrow_image(a.name), budget)
        if verdict is not Equivalence.EQUIVALENT:
            unproved = True
    return TranslationEquality.NOT_PROVED if unproved else TranslationEquality.EQUAL


# ---------------------------------------------------------------------------
# delta: composition with the translation
# ---------------------------------------------------------------------------


def delta(translation: Translation, instance: Instance) -> Instance:
    """Pull a target-schema instance back to the source schema.

    Row sets are reused verbatim; each source arrow's column is the target
    instance evaluated along the arrow's image path.
    """
    require_structural(translation)
    if instance.schema != translation.target:
        raise SchemaMismatchError("delta: instance is not on the translation's target")
    rows = {c: instance.row_set(translation.vertex_image(c)) for c in translation.source.vertices}
    columns: dict[str, dict[str, str]] = {}
    for arrow in translation.source.arrows:
        image = translation.arrow_image(arrow.name)
        columns[arrow.name] = {
            r: evaluate_path(instance, image, r) for r in rows[arrow.source]
        }
    return Instance(translation.source, rows, columns)


def delta_on_morphism(translation: Translation, m: InstanceMorphism) -> InstanceMorphism:
    """Whisker a morphism of target instances with the translation."""
    source = delta(translation, m.source)
    target = delta(translation, m.target)
    components = {
        c: dict(m.component(translation.vertex_image(c)))
        for c in translation.source.vertices
    }
    return InstanceMorphism(source, target, components)


# ---------------------------------------------------------------------------
# sigma: the chase
# ---------------------------------------------------------------------------

# A term (c, r, arrows) is the element reached from the image of source row
# r at vertex c along the given target-schema arrows: with no arrows it is
# that row's seed, otherwise a Skolem element.


def _term_display(term: tuple) -> str:
    _, r, arrows = term
    return r + "." + ".".join(arrows) if arrows else r


def _term_sort_key(term: tuple) -> tuple:
    return (len(term[2]), _term_display(term), term[0])


class _SigmaEngine:
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
        self.terms: list[tuple] = []
        self.vertex_of: list[str] = []
        self.parent: list[int] = []
        self.size: list[int] = []  # class size, read at roots only
        self.rep: dict[int, int] = {}
        self.img: dict[int, dict[str, int]] = {}
        self.queue: deque[tuple[int, int]] = deque()
        self.per_vertex: dict[str, int] = {v: 0 for v in self.D.vertices}
        self.seeds: dict[tuple[str, str], int] = {}

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
        if self.size[ra] < self.size[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        self.size[ra] += self.size[rb]
        if _term_sort_key(self.terms[self.rep[rb]]) < _term_sort_key(self.terms[self.rep[ra]]):
            self.rep[ra] = self.rep[rb]
        del self.rep[rb]
        target_img = self.img[ra]
        for name, t in self.img.pop(rb).items():
            if name in target_img:
                self.queue.append((t, target_img[name]))
            else:
                target_img[name] = t
        return True

    def process_queue(self) -> bool:
        changed = False
        while self.queue:
            a, b = self.queue.popleft()
            changed |= self.union(a, b)
        return changed

    # -- terms ---------------------------------------------------------------

    # A term rep + (arrow,) is only ever made where the class holding rep has
    # no image under arrow, and a class keeps its terms and its images, so no
    # term is made twice.

    def charge(self, term: tuple, vertex: str) -> None:
        """Count a term against the Skolem path cap and the bound at its vertex."""
        if len(term[2]) > DEFAULT_SKOLEM_PATH_CAP:
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

    def make_term(self, term: tuple, vertex: str) -> int:
        """A new element, alone in its class; ``charge`` has counted it."""
        tid = len(self.terms)
        self.terms.append(term)
        self.vertex_of.append(vertex)
        self.parent.append(tid)
        self.size.append(1)
        self.rep[tid] = tid
        self.img[tid] = {}
        return tid

    def new_term(self, term: tuple, vertex: str) -> int:
        self.charge(term, vertex)
        return self.make_term(term, vertex)

    def step_term(self, root: int, arrow: str) -> tuple:
        c, r, arrows = self.terms[self.rep[root]]
        return (c, r, arrows + (arrow,))

    def step_create(self, eid: int, arrow: str) -> int:
        """Image of an element under one arrow, creating a Skolem if missing."""
        root = self.find(eid)
        existing = self.img[root].get(arrow)
        if existing is not None:
            return self.find(existing)
        tid = self.new_term(self.step_term(root, arrow), self.D.graph.arrow(arrow).target)
        self.img[root][arrow] = tid
        return tid

    def step_assert(self, eid: int, arrow: str, target: int) -> None:
        root = self.find(eid)
        existing = self.img[root].get(arrow)
        if existing is None:
            self.img[root][arrow] = target
        else:
            self.queue.append((existing, target))

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
        x = a if f is None else self.img[a].get(f)
        y = b if g is None else self.img[b].get(g)
        if x is not None and y is not None:
            if self.find(x) == self.find(y):
                return False
            self.queue.append((x, y))
            return True
        if x is None and y is None:
            s, t = self.step_term(a, f), self.step_term(b, g)
            vertex = self.D.graph.arrow(f).target
            if s == t:
                self.img[a][f] = self.new_term(s, vertex)
                return False
            self.charge(s, vertex)
            self.charge(t, vertex)
            tid = self.make_term(min(s, t, key=_term_sort_key), vertex)
            self.img[a][f] = self.img[b][g] = tid
            return True
        if x is None:
            at, arrow, x = a, f, y
        else:
            at, arrow = b, g
        term = self.step_term(at, arrow)
        vertex = self.vertex_of[x]
        if _term_sort_key(term) < _term_sort_key(self.terms[self.rep[self.find(x)]]):
            tid = self.new_term(term, vertex)
            self.queue.append((tid, x))
        else:
            self.charge(term, vertex)
            tid = x
        self.img[at][arrow] = tid
        return True

    # -- chase phases ---------------------------------------------------------

    def seed(self) -> None:
        for c in self.F.source.vertices:
            vertex = self.F.vertex_image(c)
            for r in self.I.row_set(c):
                self.seeds[(c, r)] = self.new_term((c, r, ()), vertex)

    def assert_naturality(self) -> None:
        for arrow in self.F.source.arrows:
            image = self.F.arrow_image(arrow.name)
            column = self.I.column(arrow.name)
            for r in self.I.row_set(arrow.source):
                start = self.seeds[(arrow.source, r)]
                end = self.seeds[(arrow.target, column[r])]
                if not image.arrows:
                    self.queue.append((start, end))
                    continue
                at = self.walk_create(start, image.arrows[:-1])
                self.step_assert(at, image.arrows[-1], end)

    def apply_equations(self) -> bool:
        changed = False
        for eq in self.D.equivalences:
            lhs, rhs = eq.lhs.arrows, eq.rhs.arrows
            f = lhs[-1] if lhs else None
            g = rhs[-1] if rhs else None
            roots = [r for r in self.rep if self.vertex_of[r] == eq.lhs.source]
            for root in roots:
                a = self.walk_create(root, lhs[:-1])
                b = self.walk_create(root, rhs[:-1])
                changed |= self.settle(a, f, b, g)
        return changed

    def totalize(self) -> bool:
        changed = False
        for root in list(self.rep):  # rep holds only roots; no union runs here
            img = self.img[root]
            for arrow in self.D.graph.out_arrows(self.vertex_of[root]):
                if arrow.name not in img:
                    self.step_create(root, arrow.name)
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
                counts: dict[str, int] = {v: 0 for v in self.D.vertices}
                for root in self.rep:
                    counts[self.vertex_of[root]] += 1
                self.log.saturation_rounds.append(counts)
            if not changed:
                return

    # -- extraction ------------------------------------------------------------

    def _root_order_key(self, root: int) -> tuple:
        """Seeds in source table order, then Skolem elements by their seed's
        place, path length and arrow order."""
        c, r, arrows = self.terms[self.rep[root]]
        positions = self.I._positions
        at = (positions[c] if c in positions else self.I.positions(c))[r]
        if not arrows:
            return (False, self.F.source.graph._vertex_order[c], at)
        order = self.D.graph._arrow_order
        return (
            True,
            self.F.source.graph._vertex_order[c],
            at,
            len(arrows),
            tuple([order[a] for a in arrows]),
        )

    def extract(self) -> "SigmaResult":
        terms, rep, find, img = self.terms, self.rep, self.find, self.img
        roots_by_vertex: dict[str, list[int]] = {v: [] for v in self.D.vertices}
        for root in rep:
            roots_by_vertex[self.vertex_of[root]].append(root)
        rows: dict[str, tuple[str, ...]] = {}
        display: dict[int, str] = {}
        row_term: dict[tuple[str, str], tuple] = {}
        for v in self.D.vertices:
            ordered = sorted(roots_by_vertex[v], key=self._root_order_key)
            names = [_term_display(terms[rep[root]]) for root in ordered]
            if len(set(names)) < len(names):
                names = uniquify(names)
            rows[v] = tuple(names)
            for root, name in zip(ordered, names):
                display[root] = name
                row_term[(v, name)] = terms[rep[root]]
        columns: dict[str, dict[str, str]] = {}
        for arrow in self.D.arrows:
            name = arrow.name
            columns[name] = {
                display[root]: display[find(img[root][name])]
                for root in roots_by_vertex[arrow.source]
            }
        instance = Instance(self.D, rows, columns)
        seed_row = {key: display[find(tid)] for key, tid in self.seeds.items()}
        return SigmaResult(instance, seed_row, row_term)


@dataclass
class SigmaResult:
    instance: Instance
    seed_row: dict[tuple[str, str], str]  # (source vertex, source row) -> output row
    row_term: dict[tuple[str, str], tuple]  # (target vertex, output row) -> canonical term


def sigma_full(
    translation: Translation,
    instance: Instance,
    saturation_bound: int = DEFAULT_SATURATION_BOUND,
    log: MigrationLog | None = None,
) -> SigmaResult:
    require_structural(translation)
    if instance.schema != translation.source:
        raise SchemaMismatchError("sigma: instance is not on the translation's source")
    if log is not None:
        log.bounds.setdefault("saturation_bound", saturation_bound)
        log.bounds.setdefault("skolem_path_cap", DEFAULT_SKOLEM_PATH_CAP)
    engine = _SigmaEngine(translation, instance, saturation_bound, log)
    engine.run()
    return engine.extract()


def sigma(
    translation: Translation,
    instance: Instance,
    saturation_bound: int = DEFAULT_SATURATION_BOUND,
    log: MigrationLog | None = None,
) -> Instance:
    return sigma_full(translation, instance, saturation_bound, log=log).instance


def sigma_on_morphism(
    translation: Translation,
    m: InstanceMorphism,
    saturation_bound: int = DEFAULT_SATURATION_BOUND,
) -> InstanceMorphism:
    """Induced map on chase classes: a class named by (seed, path) goes to the
    class reached by walking the same path from the image seed."""
    src = sigma_full(translation, m.source, saturation_bound)
    tgt = sigma_full(translation, m.target, saturation_bound)
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


@dataclass
class _VertexFamilies:
    classes: list[Path]  # representative target paths out of this vertex
    comps: list[tuple[str, int]]  # (source vertex, class index)
    rows: dict[tuple[str, ...], str]  # join tuple (a row per comp) -> row id, join order
    exhausted: bool  # the class search ran out of new classes within the bound


@dataclass
class PiResult:
    instance: Instance
    data: dict[str, _VertexFamilies]


def _comma_classes(
    schema: Schema,
    start: str,
    path_bound: int,
    budget: int,
    element_cap: int,
) -> tuple[list[Path], bool]:
    """Equivalence classes of paths out of ``start``, one representative each,
    and whether the search ran out of new classes within ``path_bound``.

    Breadth-first over classes: extending only representatives is complete
    because the closure conditions let any extension be rewritten onto the
    representative's extension.  When the frontier empties, a larger bound
    finds exactly the same classes.
    """
    classes: list[Path] = [trivial_path(start)]
    frontier = [0]
    for _ in range(path_bound):
        if not frontier:
            break
        next_frontier: list[int] = []
        for idx in frontier:
            rep = classes[idx]
            at = path_target(schema.graph, rep)
            for arrow in schema.graph.out_arrows(at):
                candidate = Path(start, rep.arrows + (arrow.name,))
                if _match_class(schema, classes, candidate, budget) is None:
                    classes.append(candidate)
                    next_frontier.append(len(classes) - 1)
                    if len(classes) > element_cap:
                        raise PathBoundInstabilityError(
                            f"comma category at vertex {start!r} exceeded "
                            f"{element_cap} path classes",
                            vertex=start,
                        )
        frontier = next_frontier
    return classes, not frontier


def _match_class(
    schema: Schema, classes: list[Path], path: Path, budget: int
) -> int | None:
    target = path_target(schema.graph, path)
    for i, rep in enumerate(classes):
        if path_target(schema.graph, rep) != target:
            continue
        if paths_equivalent(schema, path, rep, budget) is Equivalence.EQUIVALENT:
            return i
    return None


def _families_at(
    translation: Translation,
    instance: Instance,
    vertex: str,
    path_bound: int,
    budget: int,
    element_cap: int,
    family_cap: int,
    log: MigrationLog | None,
) -> _VertexFamilies:
    D = translation.target
    C = translation.source
    classes, exhausted = _comma_classes(D, vertex, path_bound, budget, element_cap)
    class_target = [path_target(D.graph, rep) for rep in classes]
    comps: list[tuple[str, int]] = []
    for c in C.vertices:
        image = translation.vertex_image(c)
        for i in range(len(classes)):
            if class_target[i] == image:
                comps.append((c, i))
    comp_index = {comp: k for k, comp in enumerate(comps)}

    # Comma morphisms induced by source arrows whose translated triangle commutes.
    constraints: list[tuple[int, int, str]] = []  # (from comp, to comp, source arrow)
    for arrow in C.arrows:
        image = translation.arrow_image(arrow.name)
        for i, rep in enumerate(classes):
            if class_target[i] != translation.vertex_image(arrow.source):
                continue
            composite = Path(vertex, rep.arrows + image.arrows)
            j = _match_class(D, classes, composite, budget)
            if j is None:
                if log is not None:
                    log.warn(
                        f"pi at {vertex!r}: could not place composite {composite} "
                        f"in any path class; treating as no comma morphism"
                    )
                continue
            constraints.append(
                (comp_index[(arrow.source, i)], comp_index[(arrow.target, j)], arrow.name)
            )

    families = _compatible_families(instance, comps, constraints, family_cap, vertex)
    rows = dict(zip(families, _family_row_ids(comps, families, classes)))
    return _VertexFamilies(classes, comps, rows, exhausted)


def _compatible_families(
    instance: Instance,
    comps: list[tuple[str, int]],
    constraints: list[tuple[int, int, str]],
    family_cap: int,
    vertex: str,
) -> list[tuple[str, ...]]:
    """Every choice of one row per component that satisfies every constraint
    ``column(arrow)[row i] == row j``, in nested-loop order (see
    ``instances.assignments``)."""
    families: list[tuple[str, ...]] = []
    for values in assignments(instance, comps, constraints):
        families.append(values)
        if len(families) > family_cap:
            raise EnumerationCapError(
                f"pi produced more than {family_cap} rows at vertex {vertex!r}",
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
    if not comps:
        return uniquify(["()" for _ in families])
    trivial_comps = [k for k, (_, cls) in enumerate(comps) if classes[cls].is_trivial]
    if trivial_comps:
        restricted = [tuple(fam[k] for k in trivial_comps) for fam in families]
        if len(set(restricted)) == len(families):
            if len(trivial_comps) == 1:
                return uniquify([fam[trivial_comps[0]] for fam in families])
            return uniquify(
                [
                    keyed_id([(comps[k][0], fam[k]) for k in trivial_comps])
                    for fam in families
                ]
            )
    ids = []
    for fam in families:
        pairs = [
            (f"{comps[k][0]}[{classes[comps[k][1]]}]", fam[k]) for k in range(len(comps))
        ]
        ids.append(keyed_id(pairs))
    return uniquify(ids)


def pi_full(
    translation: Translation,
    instance: Instance,
    path_bound: int = DEFAULT_PATH_BOUND,
    budget: int = DEFAULT_REWRITE_BUDGET,
    element_cap: int = DEFAULT_ELEMENT_CAP,
    family_cap: int = DEFAULT_FAMILY_CAP,
    log: MigrationLog | None = None,
) -> PiResult:
    require_structural(translation)
    if instance.schema != translation.source:
        raise SchemaMismatchError("pi: instance is not on the translation's source")
    if log is not None:
        log.bounds.setdefault("path_bound", path_bound)
        log.bounds.setdefault("rewrite_budget", budget)
    D = translation.target
    data = {
        d: _families_at(
            translation, instance, d, path_bound, budget, element_cap, family_cap, log
        )
        for d in D.vertices
    }
    # Mandatory stability check: one more unit of path bound must not change
    # any row count, otherwise the comma category was not exhausted.  Where
    # the class search ran out of new classes within the bound, the classes,
    # and so the families, are the same one unit higher, so only the other
    # vertices are recomputed.  All of them are recomputed before any count is
    # compared, so a run that fails in several ways raises the same error as
    # when every vertex is probed.
    unsettled = [d for d in D.vertices if not data[d].exhausted]
    probe = {
        d: _families_at(
            translation, instance, d, path_bound + 1, budget, element_cap, family_cap, None
        )
        for d in unsettled
    }
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
        # Precompute, per target component, which source component restricts to it.
        comp_map: list[int] = []
        for (c, cls) in tgt_data.comps:
            composite = Path(
                arrow.source, (arrow.name,) + tgt_data.classes[cls].arrows
            )
            idx = _match_class(D, src_data.classes, composite, budget)
            if idx is None or (c, idx) not in src_comp_index:
                raise PathBoundInstabilityError(
                    f"pi cannot restrict along arrow {arrow.name!r}: composite "
                    f"{composite} has no path class at {arrow.source!r} within bounds",
                    vertex=arrow.source,
                )
            comp_map.append(src_comp_index[(c, idx)])
        mapping: dict[str, str] = {}
        for fam, rid in src_data.rows.items():
            out = tgt_data.rows.get(tuple(fam[k] for k in comp_map))
            if out is None:
                raise PathBoundInstabilityError(
                    f"pi restriction along {arrow.name!r} produced a family not "
                    f"present at {arrow.target!r}; raise the path bound",
                    vertex=arrow.target,
                )
            mapping[rid] = out
        columns[arrow.name] = mapping
    return PiResult(Instance(D, rows, columns), data)


def pi(
    translation: Translation,
    instance: Instance,
    path_bound: int = DEFAULT_PATH_BOUND,
    budget: int = DEFAULT_REWRITE_BUDGET,
    element_cap: int = DEFAULT_ELEMENT_CAP,
    family_cap: int = DEFAULT_FAMILY_CAP,
    log: MigrationLog | None = None,
) -> Instance:
    return pi_full(
        translation, instance, path_bound, budget, element_cap, family_cap, log
    ).instance


def pi_on_morphism(
    translation: Translation,
    m: InstanceMorphism,
    path_bound: int = DEFAULT_PATH_BOUND,
    budget: int = DEFAULT_REWRITE_BUDGET,
) -> InstanceMorphism:
    """Induced map on compatible families: post-compose every component."""
    src = pi_full(translation, m.source, path_bound, budget)
    tgt = pi_full(translation, m.target, path_bound, budget)
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


@dataclass
class AdjunctionWitnesses:
    unit_sigma: InstanceMorphism  # I -> delta(sigma(I))
    counit_sigma: InstanceMorphism  # sigma(delta(J)) -> J
    unit_pi: InstanceMorphism  # J -> pi(delta(J))
    counit_pi: InstanceMorphism  # delta(pi(I)) -> I


def sigma_unit(
    translation: Translation,
    instance: Instance,
    saturation_bound: int = DEFAULT_SATURATION_BOUND,
) -> InstanceMorphism:
    """eta_I: each source row goes to the chase class of its seed."""
    result = sigma_full(translation, instance, saturation_bound)
    pulled = delta(translation, result.instance)
    components = {
        c: {r: result.seed_row[(c, r)] for r in instance.row_set(c)}
        for c in translation.source.vertices
    }
    return require_natural(
        InstanceMorphism(instance, pulled, components), "sigma unit"
    )


def sigma_counit(
    translation: Translation,
    instance: Instance,
    saturation_bound: int = DEFAULT_SATURATION_BOUND,
) -> InstanceMorphism:
    """epsilon_J: a chase class named (seed, path) evaluates its path in J."""
    pulled = delta(translation, instance)
    result = sigma_full(translation, pulled, saturation_bound)
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


def pi_unit(
    translation: Translation,
    instance: Instance,
    path_bound: int = DEFAULT_PATH_BOUND,
    budget: int = DEFAULT_REWRITE_BUDGET,
) -> InstanceMorphism:
    """eta'_J: a row becomes the family of all its path evaluations."""
    pulled = delta(translation, instance)
    result = pi_full(translation, pulled, path_bound, budget)
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


def pi_counit(
    translation: Translation,
    instance: Instance,
    path_bound: int = DEFAULT_PATH_BOUND,
    budget: int = DEFAULT_REWRITE_BUDGET,
) -> InstanceMorphism:
    """epsilon'_I: project a compatible family at its trivial-path component."""
    result = pi_full(translation, instance, path_bound, budget)
    pulled = delta(translation, result.instance)
    components: dict[str, dict[str, str]] = {}
    for c in translation.source.vertices:
        d = translation.vertex_image(c)
        data = result.data[d]
        k = None
        for idx, (cc, cls) in enumerate(data.comps):
            if cc == c and data.classes[cls].is_trivial:
                k = idx
                break
        if k is None:
            raise PathBoundInstabilityError(
                f"pi counit: no trivial-path component for {c!r} at {d!r}", vertex=d
            )
        components[c] = {rid: fam[k] for fam, rid in data.rows.items()}
    return require_natural(
        InstanceMorphism(pulled, instance, components), "pi counit"
    )


def adjunction_unit_counit(
    translation: Translation,
    instance_on_source: Instance,
    instance_on_target: Instance,
    saturation_bound: int = DEFAULT_SATURATION_BOUND,
    path_bound: int = DEFAULT_PATH_BOUND,
    budget: int = DEFAULT_REWRITE_BUDGET,
) -> AdjunctionWitnesses:
    """The four canonical morphisms witnessing sigma -| delta -| pi."""
    return AdjunctionWitnesses(
        unit_sigma=sigma_unit(translation, instance_on_source, saturation_bound),
        counit_sigma=sigma_counit(translation, instance_on_target, saturation_bound),
        unit_pi=pi_unit(translation, instance_on_target, path_bound, budget),
        counit_pi=pi_counit(translation, instance_on_source, path_bound, budget),
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


@dataclass
class PipelineStep:
    kind: StepKind
    translation: Translation | None = None
    type_morphism: InstanceMorphism | None = None


@dataclass
class MigrationPipeline:
    steps: tuple[PipelineStep, ...] = ()


def run_pipeline(pipeline: MigrationPipeline, start, log: MigrationLog | None = None):
    """Evaluate the steps left to right; each step's input must line up."""
    from . import typed as typed_module  # local import: typed builds on migration

    value = start
    for i, step in enumerate(pipeline.steps):
        if step.kind in (StepKind.DELTA, StepKind.SIGMA, StepKind.PI):
            if not isinstance(value, Instance):
                raise PipelineError(f"step {i}: {step.kind.value} needs a plain instance")
            if step.translation is None:
                raise PipelineError(f"step {i}: {step.kind.value} needs a translation")
            F = step.translation
            if step.kind is StepKind.DELTA:
                if value.schema != F.target:
                    raise PipelineError(f"step {i}: delta input is not on the target schema")
                value = delta(F, value)
            elif step.kind is StepKind.SIGMA:
                if value.schema != F.source:
                    raise PipelineError(f"step {i}: sigma input is not on the source schema")
                value = sigma(F, value, log=log)
            else:
                if value.schema != F.source:
                    raise PipelineError(f"step {i}: pi input is not on the source schema")
                value = pi(F, value, log=log)
            continue
        if step.type_morphism is None:
            raise PipelineError(f"step {i}: {step.kind.value} needs a typing morphism")
        if not isinstance(value, typed_module.TypedInstance):
            raise PipelineError(f"step {i}: {step.kind.value} needs a typed instance")
        k = step.type_morphism
        if step.kind is StepKind.SIGMA_HAT:
            if value.typing.target != k.source:
                raise PipelineError(f"step {i}: sigma-hat typing does not match k's source")
            value = typed_module.typechange_sigma(k, value)
        elif step.kind is StepKind.DELTA_HAT:
            if value.typing.target != k.target:
                raise PipelineError(f"step {i}: delta-hat typing does not match k's target")
            value = typed_module.typechange_delta(k, value)
        else:
            if value.typing.target != k.source:
                raise PipelineError(f"step {i}: pi-hat typing does not match k's source")
            value = typed_module.typechange_pi(k, value)
    return value
