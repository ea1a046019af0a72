"""Brute-force oracles for the pushforward functors, independent of the engine.

These work only on acyclic target schemas, where the path set is finite and
can be enumerated completely, the path-equivalence closure computed by
exhaustive positional rewriting, and the colimit/limit taken literally:
the colimit as a quotient of all (seed, path) terms, the limit as filtered
assignments over all comma objects.  The dependent product's reference is
``sectionwise_typechange_pi``, the typed hom-set's the enumerate-and-filter
``enumerate_typed_morphisms``, the .cat lexer's the character-by-character
``_tokenize`` at the end.  ``MergeBackSigmaEngine`` is the sigma chase that
made both sides of every equation and merged them, ``per_triple_export``
the RDF export that quoted every component where it printed it, and
``triple_by_triple_validate_store`` the store check that walked every triple.  The bulk
layers that now move a column at a time keep their cell-by-cell forms here:
``cell_by_cell_print_instance``, ``row_by_row_delta`` and
``row_by_row_validate_instance``.
"""
from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass
from urllib.parse import quote

from catmigrate import migration
from catmigrate.dsl import InstanceDecl, format_name
from catmigrate.errors import (
    EnumerationCapError,
    ParseError,
    SaturationOverflowError,
    SchemaMismatchError,
    StructuralError,
    TypeChangeError,
)
from catmigrate.instances import (
    EquationViolation,
    Instance,
    InstanceMorphism,
    compose_morphisms,
    enumerate_morphisms,
    evaluate_path,
)
from catmigrate.migration import (
    DEFAULT_SATURATION_BOUND,
    DEFAULT_SKOLEM_PATH_CAP,
    MigrationLog,
    SigmaResult,
    Translation,
    _term_display,
    _term_sort_key,
)
from catmigrate.naming import tuple_id, uniquify
from catmigrate.rdf import TripleStore
from catmigrate.typed import TypedInstance
from catmigrate.schemas import _MAX_VISITED_STATES, Equivalence, Graph, Path, Schema, path_target


def all_paths(schema: Schema, source: str, cap: int = 50_000) -> list[Path]:
    """Every path out of ``source``; the graph must be acyclic."""
    out: list[Path] = []
    stack = [Path(source, ())]
    while stack:
        path = stack.pop()
        out.append(path)
        if len(out) > cap:
            raise RuntimeError("path enumeration exploded; schema is not acyclic?")
        at = path_target(schema.graph, path)
        for arrow in schema.graph.out_arrows(at):
            stack.append(Path(source, path.arrows + (arrow.name,)))
    out.sort(key=lambda p: (len(p.arrows), p.arrows))
    return out


class _UnionFind:
    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a: int, b: int) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        if rb < ra:
            ra, rb = rb, ra
        self.parent[rb] = ra
        return True


def _rewrites(schema: Schema, arrows: tuple[str, ...], source: str):
    """All single positional rewrites of a path by the declared equations."""
    graph = schema.graph

    def vertex_at(i: int) -> str:
        return source if i == 0 else graph.arrow(arrows[i - 1]).target

    for eq in schema.equivalences:
        for lhs, rhs in ((eq.lhs, eq.rhs), (eq.rhs, eq.lhs)):
            k = len(lhs.arrows)
            for i in range(len(arrows) - k + 1):
                if arrows[i : i + k] == lhs.arrows and vertex_at(i) == lhs.source:
                    yield arrows[:i] + rhs.arrows + arrows[i + k :]


def path_partition(schema: Schema, paths: list[Path]) -> list[int]:
    """Class (root index) of each path under the declared-equation closure."""
    index = {p.arrows: i for i, p in enumerate(paths)}
    uf = _UnionFind(len(paths))
    for i, path in enumerate(paths):
        for rewritten in _rewrites(schema, path.arrows, path.source):
            uf.union(i, index[rewritten])
    return [uf.find(i) for i in range(len(paths))]


# ---------------------------------------------------------------------------
# path equivalence: the one-sided breadth-first search
# ---------------------------------------------------------------------------


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


def one_sided_search(
    schema: Schema, p: Path, q: Path, budget: int, length_cap: int, caps_hit: list | None = None
) -> Equivalence:
    """The search ``schemas.paths_equivalent`` ran before it grew from both
    ends: breadth-first from ``p`` alone, up to ``budget`` layers.  Verbatim
    but for ``caps_hit``, which gets an entry when the state cap ends the
    search, and the memo table it no longer has.  Every path it reaches,
    ``q`` included, is at most ``length_cap`` long."""
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
            if caps_hit is not None:
                caps_hit.append(len(visited))
            return Equivalence.NOT_PROVED
        frontier = next_frontier
    return Equivalence.NOT_PROVED


# ---------------------------------------------------------------------------
# sigma oracle: quotient of all (seed, path) terms
# ---------------------------------------------------------------------------


class SigmaOracle:
    """classes_at[d] is a list of frozensets of terms (c, r, path-arrows)."""

    def __init__(self, translation: Translation, instance: Instance):
        self.F = translation
        self.I = instance
        D = translation.target
        terms: list[tuple[str, str, tuple[str, ...]]] = []
        for c in translation.source.vertices:
            start = translation.vertex_image(c)
            paths = all_paths(D, start)
            for r in instance.row_set(c):
                for p in paths:
                    terms.append((c, r, p.arrows))
        index = {t: i for i, t in enumerate(terms)}
        uf = _UnionFind(len(terms))
        for i, (c, r, arrows) in enumerate(terms):
            # naturality: walking a translated source arrow equals moving the seed
            for a in translation.source.graph.out_arrows(c):
                image = translation.arrow_image(a.name).arrows
                if arrows[: len(image)] == image:
                    moved = (a.target, instance.column(a.name)[r], arrows[len(image):])
                    uf.union(i, index[moved])
            # target equations at any position
            start = translation.vertex_image(c)
            for rewritten in _rewrites(D, arrows, start):
                uf.union(i, index[(c, r, rewritten)])

        vertex_of_term = [
            path_target(D.graph, Path(translation.vertex_image(c), arrows))
            for (c, _, arrows) in terms
        ]
        self.terms = terms
        self._root = [uf.find(i) for i in range(len(terms))]
        self.classes_at: dict[str, list[frozenset]] = {v: [] for v in D.vertices}
        by_root: dict[int, list[int]] = {}
        for i, root in enumerate(self._root):
            by_root.setdefault(root, []).append(i)
        for root, members in sorted(by_root.items()):
            self.classes_at[vertex_of_term[root]].append(
                frozenset(terms[i] for i in members)
            )


def assert_sigma_matches(translation: Translation, instance: Instance, result) -> None:
    """Engine output must realize exactly the oracle's term partition."""
    oracle = SigmaOracle(translation, instance)

    def engine_element(term: tuple[str, str, tuple[str, ...]]) -> str:
        c, r, arrows = term
        at = result.seed_row[(c, r)]
        for name in arrows:
            at = result.instance.column(name)[at]
        return at

    for d in translation.target.vertices:
        oracle_classes = oracle.classes_at[d]
        assert len(result.instance.row_set(d)) == len(oracle_classes), (
            f"row count mismatch at {d!r}: engine "
            f"{len(result.instance.row_set(d))}, oracle {len(oracle_classes)}"
        )
        for cls in oracle_classes:
            images = {engine_element(t) for t in cls}
            assert len(images) == 1, f"oracle class maps to several engine rows: {cls}"
    # column actions agree: appending an arrow to a term moves its class
    for d in translation.target.vertices:
        for cls in oracle.classes_at[d]:
            term = next(iter(cls))
            row = engine_element(term)
            for arrow in translation.target.graph.out_arrows(d):
                extended = (term[0], term[1], term[2] + (arrow.name,))
                assert result.instance.column(arrow.name)[row] == engine_element(extended)


# ---------------------------------------------------------------------------
# sigma reference: the chase that builds both sides of every equation
# ---------------------------------------------------------------------------

# The chase as it was before equations were settled by assertion: it creates
# a Skolem element for every missing step on both sides of an equation and
# lets the union merge them back.  Verbatim apart from its name.


class MergeBackSigmaEngine:
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
        self.term_ids: dict[tuple, int] = {}
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

    def new_term(self, term: tuple, vertex: str) -> int:
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
        tid = len(self.terms)
        self.terms.append(term)
        self.term_ids[term] = tid
        self.vertex_of.append(vertex)
        self.parent.append(tid)
        self.size.append(1)
        self.rep[tid] = tid
        self.img[tid] = {}
        return tid

    def step_create(self, eid: int, arrow: str) -> int:
        """Image of an element under one arrow, creating a Skolem if missing."""
        root = self.find(eid)
        existing = self.img[root].get(arrow)
        if existing is not None:
            return self.find(existing)
        c, r, arrows = self.terms[self.rep[root]]
        term = (c, r, arrows + (arrow,))
        tid = self.term_ids.get(term)
        if tid is None:
            tid = self.new_term(term, self.D.graph.arrow(arrow).target)
        self.img[root][arrow] = tid
        return self.find(tid)

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
            roots = [r for r in list(self.rep) if self.vertex_of[r] == eq.lhs.source]
            for root in roots:
                if root not in self.rep:  # merged away mid-loop
                    continue
                lhs = self.walk_create(root, eq.lhs.arrows)
                rhs = self.walk_create(root, eq.rhs.arrows)
                if self.find(lhs) != self.find(rhs):
                    self.queue.append((lhs, rhs))
                    changed = True
        return changed

    def totalize(self) -> bool:
        changed = False
        for root in list(self.rep):
            if root not in self.rep:
                continue
            for arrow in self.D.graph.out_arrows(self.vertex_of[root]):
                if arrow.name not in self.img[self.find(root)]:
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
        c, r, arrows = self.terms[self.rep[root]]
        c_idx = self.F.source.graph.vertex_index(c)
        r_idx = self.I.positions(c)[r]
        arrow_order = tuple(self.D.graph.arrow_order(a) for a in arrows)
        return (bool(arrows), c_idx, r_idx, len(arrows), arrow_order)

    def extract(self) -> "SigmaResult":
        roots_by_vertex: dict[str, list[int]] = {v: [] for v in self.D.vertices}
        for root in self.rep:
            roots_by_vertex[self.vertex_of[root]].append(root)
        rows: dict[str, tuple[str, ...]] = {}
        display: dict[int, str] = {}
        row_term: dict[tuple[str, str], tuple] = {}
        for v in self.D.vertices:
            ordered = sorted(roots_by_vertex[v], key=self._root_order_key)
            names = uniquify([_term_display(self.terms[self.rep[r]]) for r in ordered])
            rows[v] = tuple(names)
            for root, name in zip(ordered, names):
                display[root] = name
                row_term[(v, name)] = self.terms[self.rep[root]]
        columns: dict[str, dict[str, str]] = {}
        for arrow in self.D.arrows:
            mapping = {}
            for root in roots_by_vertex[arrow.source]:
                mapping[display[root]] = display[self.find(self.img[root][arrow.name])]
            columns[arrow.name] = mapping
        instance = Instance(self.D, rows, columns)
        seed_row = {key: display[self.find(tid)] for key, tid in self.seeds.items()}
        return SigmaResult(instance, seed_row, row_term)


def merge_back_sigma_full(
    translation: Translation,
    instance: Instance,
    saturation_bound: int = DEFAULT_SATURATION_BOUND,
    log: MigrationLog | None = None,
) -> SigmaResult:
    """``sigma_full`` on the reference chase, for differential tests."""
    engine = MergeBackSigmaEngine(translation, instance, saturation_bound, log)
    engine.run()
    return engine.extract()


# ---------------------------------------------------------------------------
# RDF export reference: every component quoted where it is printed
# ---------------------------------------------------------------------------


def _uri(base: str, component: str) -> str:
    return "<" + base.rstrip("/") + "/" + quote(component, safe="/:$-_.~()") + ">"


def per_triple_export(store: TripleStore, base: str) -> str:
    """``rdf.export_triples`` as it was, quoting three components per triple."""
    lines = [
        f"{_uri(base, s)} {_uri(base, p)} {_uri(base, o)} ."
        for s, p, o in store.triples
    ]
    return "".join(line + "\n" for line in sorted(lines))


def triple_by_triple_validate_store(store: TripleStore) -> list[str]:
    """``rdf.validate_store`` as it was, a node and then a triple at a time."""
    problems = []
    types: dict[str, str] = {}
    for node, vertex in store.nodes:
        if node in types:
            problems.append(f"node {node!r} declared twice")
        types[node] = vertex
        if not store.schema.graph.has_vertex(vertex):
            problems.append(f"node {node!r} has unknown type {vertex!r}")
    seen: dict[tuple[str, str], str] = {}
    for subject, predicate, obj in store.triples:
        try:
            arrow = store.schema.graph.arrow(predicate)
        except StructuralError:
            problems.append(f"triple predicate {predicate!r} is not a schema arrow")
            continue
        if subject not in types:
            problems.append(f"triple subject {subject!r} is not a node")
        elif types[subject] != arrow.source:
            problems.append(
                f"subject {subject!r} has type {types[subject]!r}, "
                f"but predicate {predicate!r} needs {arrow.source!r}"
            )
        if obj not in types:
            problems.append(f"triple object {obj!r} is not a node")
        elif types[obj] != arrow.target:
            problems.append(
                f"object {obj!r} has type {types[obj]!r}, "
                f"but predicate {predicate!r} needs {arrow.target!r}"
            )
        key = (subject, predicate)
        if key in seen and seen[key] != obj:
            problems.append(
                f"predicate {predicate!r} is not functional on subject {subject!r}"
            )
        seen[key] = obj
    return problems


# The chase's orders over the tagged terms it once used: ('b', c, r) for the
# seed of source row r at vertex c, ('s', c, r, arrows) for a Skolem element.
# The references for ``migration._term_sort_key`` and ``_root_order_key``.


def tag_term(term: tuple[str, str, tuple[str, ...]]) -> tuple:
    c, r, arrows = term
    return ("s", c, r, arrows) if arrows else ("b", c, r)


def _tagged_term_display(term: tuple) -> str:
    if term[0] == "b":
        return term[2]
    return term[2] + "." + ".".join(term[3])


def tagged_term_sort_key(term: tuple) -> tuple:
    if term[0] == "b":
        return (0, term[2], term[1])
    return (1, len(term[3]), _tagged_term_display(term), term[1])


def tagged_root_order_key(engine, term: tuple) -> tuple:
    """``_SigmaEngine._root_order_key`` of a root whose representative is
    the tagged ``term``."""
    c_idx = engine.F.source.graph.vertex_index(term[1])
    r_idx = engine.I.positions(term[1])[term[2]]
    if term[0] == "b":
        return (0, c_idx, r_idx)
    arrow_order = tuple(engine.D.graph.arrow_order(a) for a in term[3])
    return (1, c_idx, r_idx, len(term[3]), arrow_order)


# ---------------------------------------------------------------------------
# pi oracle: filtered assignments over all comma objects
# ---------------------------------------------------------------------------


class PiOracle:
    def __init__(self, translation: Translation, instance: Instance):
        self.F = translation
        self.I = instance
        D = translation.target
        C = translation.source
        self.objects_at: dict[str, list[tuple[str, int]]] = {}
        self.families_at: dict[str, list[dict]] = {}
        self._paths: dict[str, list[Path]] = {}
        self._roots: dict[str, list[int]] = {}
        for d in D.vertices:
            paths = all_paths(D, d)
            roots = path_partition(D, paths)
            self._paths[d] = paths
            self._roots[d] = roots
            index = {p.arrows: i for i, p in enumerate(paths)}
            class_roots = sorted(set(roots))
            target_of = {
                root: path_target(D.graph, paths[root]) for root in class_roots
            }
            objects = [
                (c, root)
                for c in C.vertices
                for root in class_roots
                if target_of[root] == translation.vertex_image(c)
            ]
            self.objects_at[d] = objects
            obj_index = {o: k for k, o in enumerate(objects)}

            constraints = []
            for a in C.arrows:
                image = translation.arrow_image(a.name).arrows
                for root in class_roots:
                    if target_of[root] != translation.vertex_image(a.source):
                        continue
                    composite = paths[root].arrows + image
                    croot = roots[index[composite]]
                    constraints.append(
                        (obj_index[(a.source, root)], obj_index[(a.target, croot)], a.name)
                    )

            pools = [instance.row_set(c) for c, _ in objects]
            families = []
            for combo in itertools.product(*pools):
                ok = True
                for i, j, arrow in constraints:
                    if instance.column(arrow)[combo[i]] != combo[j]:
                        ok = False
                        break
                if ok:
                    families.append({k: combo[k] for k in range(len(objects))})
            self.families_at[d] = families

    def restrict(self, arrow_name: str, d: str, d2: str, family: dict) -> dict:
        """Family at d restricted along arrow d -> d2."""
        paths_d = self._paths[d]
        roots_d = self._roots[d]
        index_d = {p.arrows: i for i, p in enumerate(paths_d)}
        obj_index_d = {o: k for k, o in enumerate(self.objects_at[d])}
        out = {}
        for k2, (c, root2) in enumerate(self.objects_at[d2]):
            composite = (arrow_name,) + self._paths[d2][root2].arrows
            root = roots_d[index_d[composite]]
            out[k2] = family[obj_index_d[(c, root)]]
        return out


def nested_loop_families(
    instance: Instance,
    comps: list[tuple[str, int]],
    constraints: list[tuple[int, int, str]],
    vertex: str,
) -> list[tuple[str, ...]]:
    """pi's compatible families at one vertex by the plain nested loop: every
    row of every component in index order, each constraint checked once both
    its ends are assigned.  A drop-in for ``migration._compatible_families``
    that fixes the order the engine's join must reproduce, under the same
    ``migration.DEFAULT_FAMILY_CAP``, read when it is called."""
    family_cap = migration.DEFAULT_FAMILY_CAP
    check_at: dict[int, list[tuple[int, int, str]]] = {}
    for con in constraints:
        check_at.setdefault(max(con[0], con[1]), []).append(con)
    families: list[tuple[str, ...]] = []
    assignment: dict[int, str] = {}

    def recurse(k: int) -> None:
        if k == len(comps):
            families.append(tuple(assignment[i] for i in range(len(comps))))
            if len(families) > family_cap:
                raise EnumerationCapError(
                    f"pi produced more than {family_cap} rows at vertex {vertex!r}",
                    vertex=vertex,
                )
            return
        for row in instance.row_set(comps[k][0]):
            assignment[k] = row
            if all(
                instance.column(arrow).get(assignment[i]) == assignment[j]
                for i, j, arrow in check_at.get(k, ())
            ):
                recurse(k + 1)
            del assignment[k]

    recurse(0)
    return families


def assert_pi_matches(translation: Translation, instance: Instance, result) -> None:
    """Engine families must biject with oracle families, components and all."""
    oracle = PiOracle(translation, instance)
    D = translation.target
    correspondence: dict[str, dict[int, int]] = {}
    for d in D.vertices:
        data = result.data[d]
        paths = oracle._paths[d]
        roots = oracle._roots[d]
        index = {p.arrows: i for i, p in enumerate(paths)}
        obj_index = {o: k for k, o in enumerate(oracle.objects_at[d])}
        mapping: dict[int, int] = {}
        for k, (c, cls) in enumerate(data.comps):
            rep = data.classes[cls]
            root = roots[index[rep.arrows]]
            key = (c, root)
            assert key in obj_index, f"engine component {key} unknown to oracle at {d!r}"
            assert obj_index[key] not in mapping.values(), (
                f"engine split one comma object into several at {d!r}"
            )
            mapping[k] = obj_index[key]
        assert len(mapping) == len(oracle.objects_at[d]), (
            f"engine comma at {d!r} has {len(mapping)} objects, "
            f"oracle has {len(oracle.objects_at[d])}"
        )
        correspondence[d] = mapping

        engine_families = {
            frozenset((mapping[k], v) for k, v in enumerate(fam)) for fam in data.rows
        }
        oracle_families = {frozenset(f.items()) for f in oracle.families_at[d]}
        assert engine_families == oracle_families, f"family sets differ at {d!r}"

    # columns agree under the correspondence
    for arrow in D.arrows:
        d, d2 = arrow.source, arrow.target
        family_of = {rid: fam for fam, rid in result.data[d2].rows.items()}
        for fam, rid in result.data[d].rows.items():
            oracle_fam = {correspondence[d][k]: v for k, v in enumerate(fam)}
            expected = oracle.restrict(arrow.name, d, d2, oracle_fam)
            out_fam = {
                correspondence[d2][k]: v
                for k, v in enumerate(family_of[result.instance.column(arrow.name)[rid]])
            }
            assert out_fam == expected, f"column {arrow.name!r} disagrees on {rid!r}"


def nested_loop_pairs(
    left: tuple[str, ...], f: dict[str, str], right: tuple[str, ...], g: dict[str, str]
) -> list[tuple[str, str]]:
    """The pairs of ``left`` x ``right`` with equal images by the plain nested
    loop.  A drop-in for ``instances.equal_image_pairs`` that fixes the order
    the fiber product and ``typechange_delta`` must reproduce."""
    return [(a, b) for a in left for b in right if f[a] == g[b]]


# ---------------------------------------------------------------------------
# morphism search: slot-by-slot backtracking
# ---------------------------------------------------------------------------


class _SlotSearch:
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
            # a row a loop arrow fixes is its own image: check it at once
            assigned = value if (w, image) == slot else assignment.get((w, image))
            if assigned is not None and target.column(name).get(value) != assigned:
                return False
        for name, w, s in self.in_edges.get(slot, ()):
            assigned = assignment.get((w, s))
            if assigned is not None and target.column(name).get(assigned) != value:
                return False
        return True


def slot_search_morphisms(source: Instance, target: Instance):
    """Every natural transformation source -> target by plain slot-by-slot
    backtracking: each source row in turn tries every target row of its
    vertex.  A drop-in for ``instances.enumerate_morphisms`` that fixes the
    order the engine's join must reproduce.  This is the engine's former
    search, with one fix: it skipped the constraint of a loop arrow at a row
    that the loop fixes, and so also counted maps that are not natural."""
    if source.schema != target.schema:
        raise SchemaMismatchError("morphism search needs a shared schema")
    search = _SlotSearch(source, target, list(source.schema.vertices))
    slots = search.slots

    def recurse(i: int):
        if i == len(slots):
            components: dict[str, dict[str, str]] = {v: {} for v in source.schema.vertices}
            for (v, r), val in search.assignment.items():
                components[v][r] = val
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


# ---------------------------------------------------------------------------
# typed hom-sets: enumerate and filter
# ---------------------------------------------------------------------------


def enumerate_typed_morphisms(t: TypedInstance, u: TypedInstance):
    """All slice morphisms t -> u: instance morphisms commuting with the typings.

    The engine's former typed hom-set: every untyped morphism, kept when its
    composite with u's typing is t's typing.  The reference that
    ``typed.count_typed_morphisms`` must agree with on natural typings."""
    if t.typing_instance != u.typing_instance:
        raise SchemaMismatchError("typed morphisms need a shared typing instance")
    for m in enumerate_morphisms(t.instance, u.instance):
        composite = compose_morphisms(m, u.typing)
        if all(
            composite.component(v) == t.typing.component(v)
            for v in t.instance.schema.vertices
        ):
            yield m


# ---------------------------------------------------------------------------
# delta-hat: pairwise construction
# ---------------------------------------------------------------------------


def pairwise_delta_hat(k: InstanceMorphism, t: TypedInstance) -> TypedInstance:
    """``typed.typechange_delta`` built pair by pair: every (typed row, row of
    k's source) pair with one image, named by the typed row when k is
    injective and by the pair otherwise, with each column sending a pair to
    the pair of its images.  The engine's former construction, with the pairs
    from the plain nested loop; it fixes the rows, columns, typing and order
    that the fiber product and the injective filter must reproduce."""
    if t.typing.target != k.target:
        raise SchemaMismatchError("typechange_delta: typing does not land in k's target")
    P = k.source
    schema = t.instance.schema
    injective = all(
        len(set(k.component(v).values())) == len(k.component(v))
        for v in schema.vertices
    )

    rows: dict[str, tuple[str, ...]] = {}
    chosen: dict[str, dict[str, tuple[str, str]]] = {}
    for v in schema.vertices:
        pairs = nested_loop_pairs(
            t.instance.row_set(v), t.typing.component(v), P.row_set(v), k.component(v)
        )
        names = uniquify([x if injective else tuple_id((x, p)) for x, p in pairs])
        rows[v] = tuple(names)
        chosen[v] = dict(zip(names, pairs))

    columns: dict[str, dict[str, str]] = {}
    for arrow in schema.arrows:
        col_i = t.instance.column(arrow.name)
        col_p = P.column(arrow.name)
        reverse = {pair: n for n, pair in chosen[arrow.target].items()}
        mapping = {}
        for n, (x, p) in chosen[arrow.source].items():
            mapping[n] = reverse[(col_i[x], col_p[p])]
        columns[arrow.name] = mapping

    pulled = Instance(schema, rows, columns)
    typing = InstanceMorphism(
        pulled,
        P,
        {v: {n: chosen[v][n][1] for n in rows[v]} for v in schema.vertices},
    )
    return TypedInstance(typing)


# ---------------------------------------------------------------------------
# pi-hat: section dicts
# ---------------------------------------------------------------------------

# The construction ``typed.typechange_pi`` used before it computed sections by
# arithmetic: each section a dict from the fiber's ps to rows, each arrow's
# target section looked up by its frozen items.  The reference for the rows
# (in order), columns, typing and error text of ``typechange_pi``.
def sectionwise_typechange_pi(k: InstanceMorphism, t: TypedInstance) -> TypedInstance:
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


# The generator that ``naming.encode_component`` was before it became one
# ``str.translate``; the reference for its table.
def encode_component_by_chars(s: str) -> str:
    return "".join(f"%{ord(c):02X}" if c in "%,()=;@" else c for c in s)


# The character-by-character lexer that .cat parsing used before it lexed
# with one regular expression; the reference for ``dsl._lex``.
_IDENT_CHARS = set("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789_$-")
_PUNCT_CHARS = set("{}():;,.=")


@dataclass(frozen=True)
class Token:
    kind: str  # "ident" | "string" | "punct" | "eof"
    text: str
    line: int
    col: int


def _tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    i, line, col = 0, 1, 1
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if ch == '"':
            start_line, start_col = line, col
            i += 1
            col += 1
            out = []
            while True:
                if i >= n:
                    raise ParseError("unterminated string", start_line, start_col)
                c = text[i]
                if c == "\n":
                    raise ParseError("unterminated string", start_line, start_col)
                if c == "\\":
                    if i + 1 >= n or text[i + 1] not in '\\"':
                        raise ParseError("bad escape in string", line, col)
                    out.append(text[i + 1])
                    i += 2
                    col += 2
                    continue
                if c == '"':
                    i += 1
                    col += 1
                    break
                out.append(c)
                i += 1
                col += 1
            tokens.append(Token("string", "".join(out), start_line, start_col))
            continue
        if ch == "-" and i + 1 < n and text[i + 1] == ">":
            tokens.append(Token("punct", "->", line, col))
            i += 2
            col += 2
            continue
        if ch in _IDENT_CHARS:
            start_line, start_col = line, col
            j = i
            while j < n and text[j] in _IDENT_CHARS:
                if text[j] == "-" and j + 1 < n and text[j + 1] == ">":
                    break
                j += 1
            tokens.append(Token("ident", text[i:j], start_line, start_col))
            col += j - i
            i = j
            continue
        if ch in _PUNCT_CHARS:
            tokens.append(Token("punct", ch, line, col))
            i += 1
            col += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", line, col)
    tokens.append(Token("eof", "", line, col))
    return tokens


# ---------------------------------------------------------------------------
# bulk layers: a cell or a row at a time
# ---------------------------------------------------------------------------

# ``dsl._print_instance``, ``migration.delta`` and ``instances.validate_instance``
# as they were before they moved a column at a time, the references for
# those three's text, rows, columns and reports.  An ``Instance`` now refuses
# a missing or dangling cell when it is built, so the printer has no missing
# cell to report, and the validation reference takes raw rows and columns:
# it reports their missing and dangling cells, by arrow and then by row, in
# the order the constructor meets them.


def cell_by_cell_print_instance(decl: InstanceDecl) -> str:
    instance = decl.instance
    schema = instance.schema
    lines = [f"instance {format_name(decl.name)} on {format_name(decl.schema_name)} {{"]
    for v in schema.vertices:
        lines.append(f"  table {format_name(v)} {{")
        out_arrows = schema.graph.out_arrows(v)
        for row in instance.row_set(v):
            if out_arrows:
                cells = ", ".join(
                    f"{format_name(a.name)} = {format_name(instance.column(a.name)[row])}"
                    for a in out_arrows
                )
                lines.append(f"    {format_name(row)} -> ({cells})")
            else:
                lines.append(f"    {format_name(row)}")
        lines.append("  }")
    lines.append("}")
    return "\n".join(lines)


def row_by_row_delta(translation: Translation, instance: Instance) -> Instance:
    """Pull a target-schema instance back to the source schema.

    Row sets are reused verbatim; each source arrow's column is the target
    instance evaluated along the arrow's image path.
    """
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


@dataclass(frozen=True)
class MissingCell:
    arrow: str
    row: str

    def describe(self) -> str:
        return f"row {self.row!r} has no value for column {self.arrow!r}"


@dataclass(frozen=True)
class DanglingCell:
    arrow: str
    row: str
    value: str

    def describe(self) -> str:
        return (
            f"column {self.arrow!r} sends row {self.row!r} to {self.value!r}, "
            "which is not a row of the target table"
        )


def row_by_row_validate_instance(schema: Schema, rows: dict, columns: dict) -> list:
    """Report every violated instance invariant of raw rows and columns; an
    empty report means valid.

    Structural problems (missing or dangling column values) are reported per
    (arrow, row), each with the text ``Instance`` refuses it with; equation
    problems per (equation, witness row) with both evaluated sides, skipping
    a row where either side has no value.
    """
    report = []
    for arrow in schema.arrows:
        column = columns.get(arrow.name, {})
        targets = set(rows.get(arrow.target, ()))
        for row in rows.get(arrow.source, ()):
            if row not in column:
                report.append(MissingCell(arrow.name, row))
            elif column[row] not in targets:
                report.append(DanglingCell(arrow.name, row, column[row]))

    def walk(path: Path, row: str):
        for name in path.arrows:
            column = columns.get(name, {})
            if row not in column:
                return None
            row = column[row]
        return row

    for eq in schema.equivalences:
        for row in rows.get(eq.lhs.source, ()):
            lhs = walk(eq.lhs, row)
            rhs = walk(eq.rhs, row)
            if lhs is None or rhs is None:
                continue  # already reported structurally
            if lhs != rhs:
                report.append(EquationViolation(str(eq), row, lhs, rhs))
    return report
