"""Seeded random schemas, instances, and translations for the property suites.

Instances are made valid by a repair pass: rows are merged until every
declared equation holds (a congruence-style quotient), so generated data
always satisfies its schema.
"""
from __future__ import annotations

import random

from catmigrate.instances import Instance, InstanceMorphism
from catmigrate.migration import Translation
from catmigrate.schemas import Arrow, Graph, Path, PathEquivalence, Schema, path_target
from catmigrate.typed import TypedInstance

from .oracles import all_paths, path_partition


def rand_acyclic_schema(
    rng: random.Random,
    name: str,
    max_vertices: int = 4,
    max_arrows: int = 5,
    max_equations: int = 2,
    prefix: str = "",
) -> Schema:
    k = rng.randint(1, max_vertices)
    vertices = tuple(f"{prefix}v{i}" for i in range(k))
    arrows = []
    if k >= 2:
        for n in range(rng.randint(0, max_arrows)):
            i = rng.randrange(0, k - 1)
            j = rng.randrange(i + 1, k)
            arrows.append(Arrow(f"{prefix}a{n}", vertices[i], vertices[j]))
    graph = Graph(vertices, tuple(arrows))
    bare = Schema(name, graph, ())

    # candidate equations: distinct parallel path pairs
    candidates = []
    for v in vertices:
        paths = all_paths(bare, v)
        by_target: dict[str, list[Path]] = {}
        for p in paths:
            by_target.setdefault(path_target(graph, p), []).append(p)
        for group in by_target.values():
            for a in range(len(group)):
                for b in range(a + 1, len(group)):
                    candidates.append(PathEquivalence(group[a], group[b]))
    rng.shuffle(candidates)
    equations = tuple(candidates[: rng.randint(0, max_equations)])
    return Schema(name, graph, equations)


def rand_cyclic_schema(
    rng: random.Random,
    name: str,
    max_vertices: int = 4,
    max_arrows: int = 5,
    max_equations: int = 2,
) -> Schema:
    """Arbitrary (possibly cyclic) graph; equations drawn from short paths."""
    k = rng.randint(1, max_vertices)
    vertices = tuple(f"v{i}" for i in range(k))
    arrows = tuple(
        Arrow(f"a{n}", rng.choice(vertices), rng.choice(vertices))
        for n in range(rng.randint(0, max_arrows))
    )
    graph = Graph(vertices, arrows)

    def short_paths(v: str, depth: int) -> list[Path]:
        out = [Path(v, ())]
        frontier = [Path(v, ())]
        for _ in range(depth):
            nxt = []
            for p in frontier:
                at = path_target(graph, p)
                for a in graph.out_arrows(at):
                    q = Path(v, p.arrows + (a.name,))
                    nxt.append(q)
                    out.append(q)
            frontier = nxt
        return out

    candidates = []
    for v in vertices:
        paths = short_paths(v, 3)
        by_target: dict[str, list[Path]] = {}
        for p in paths:
            by_target.setdefault(path_target(graph, p), []).append(p)
        for group in by_target.values():
            for a in range(len(group)):
                for b in range(a + 1, len(group)):
                    candidates.append(PathEquivalence(group[a], group[b]))
    rng.shuffle(candidates)
    equations = tuple(candidates[: rng.randint(0, max_equations)])
    return Schema(name, graph, equations)


def rand_instance(rng: random.Random, schema: Schema, max_rows: int = 3) -> Instance:
    counts = {v: rng.randint(0, max_rows) for v in schema.vertices}
    # a nonempty table cannot point at an empty one
    changed = True
    while changed:
        changed = False
        for a in schema.arrows:
            if counts[a.source] > 0 and counts[a.target] == 0:
                counts[a.source] = 0
                changed = True
    rows = {v: tuple(f"r{i}" for i in range(counts[v])) for v in schema.vertices}
    columns = {
        a.name: {r: rng.choice(rows[a.target]) for r in rows[a.source]}
        for a in schema.arrows
    }
    return repair_instance(Instance(schema, rows, columns))


def rand_cover(
    rng: random.Random, base: Instance, max_copies: int = 2, tag: str = "x"
) -> InstanceMorphism:
    """A random instance mapping onto ``base``, with that projection.

    Each base row gets 0 to ``max_copies`` copies, at least one where a
    column value lands on it; each table's copies come in a random order, and
    a copy's column value is a random copy of its base row's value.  With
    ``max_copies`` 1 the projection is injective.
    """
    schema = base.schema
    hit: dict[str, set[str]] = {v: set() for v in schema.vertices}
    for a in schema.arrows:
        hit[a.target].update(base.column(a.name).values())
    image: dict[str, dict[str, str]] = {}
    copies: dict[str, dict[str, list[str]]] = {}
    for v in schema.vertices:
        image[v] = {}
        copies[v] = {}
        for r in base.row_set(v):
            n = rng.randint(1 if r in hit[v] else 0, max_copies)
            copies[v][r] = [f"{tag}{i}.{r}" for i in range(n)]
            image[v].update((c, r) for c in copies[v][r])
    rows = {v: tuple(rng.sample(list(image[v]), len(image[v]))) for v in schema.vertices}
    columns = {
        a.name: {
            c: rng.choice(copies[a.target][base.column(a.name)[image[a.source][c]]])
            for c in rows[a.source]
        }
        for a in schema.arrows
    }
    return InstanceMorphism(Instance(schema, rows, columns), base, image)


# Row ids drawn from these hold every character that ``naming`` percent-encodes.
_ADVERSARIAL_CHARS = "ab%,()=;@\u00e9"


def _adversarial_ids(rng: random.Random, n: int) -> list[str]:
    """``n`` distinct ids of 0 to 4 characters from ``_ADVERSARIAL_CHARS``."""
    ids: set[str] = set()
    while len(ids) < n:
        ids.add("".join(rng.choice(_ADVERSARIAL_CHARS) for _ in range(rng.randint(0, 4))))
    return rng.sample(sorted(ids), n)


def _onto(n: int, m: int) -> bool:
    """Whether a set of ``n`` elements maps onto one of ``m``."""
    return m <= n and (m > 0 or n == 0)


def rand_pi_hat_input(
    rng: random.Random, noise: float = 0.0
) -> tuple[InstanceMorphism, TypedInstance]:
    """A morphism k : P -> Q and an instance typed over P, for ``typechange_pi``.

    The schema has 1 to 3 vertices and 2 to 4 arrows (loops allowed) and no
    equations.  Each table of Q has 1 to 3 rows; each q gets a fiber of 0 to
    3 rows of P and each p a pool of 0 to 3 typed rows, at least one of each
    per table.  All ids come from ``_adversarial_ids``.  Q's columns send a
    type to one whose fiber its own fiber can map onto, P's send each fiber
    onto the fiber of the image type, and the typed rows over ps that share
    an image type all share one image, so most sections have a well-defined
    action.  With probability ``noise`` a column value is any row of its
    target table instead (for a typed row, any row of its image's pool),
    which is how the inputs reach each of ``typechange_pi``'s three errors.
    """
    vertices = tuple(f"v{i}" for i in range(rng.randint(1, 3)))
    arrows = tuple(
        Arrow(f"f{i}", rng.choice(vertices), rng.choice(vertices))
        for i in range(rng.randint(2, 4))
    )
    schema = Schema("PiHat", Graph(vertices, arrows))

    def split(parents: tuple[str, ...]) -> tuple[dict[str, list[str]], dict[str, str]]:
        """0 to 3 new rows under each parent, at least one in all; each new row's parent."""
        widths = [rng.choice((0, 1, 1, 2, 2, 3)) for _ in parents]
        if not any(widths):
            widths[rng.randrange(len(widths))] = 1
        ids = _adversarial_ids(rng, sum(widths))
        under: dict[str, list[str]] = {}
        for parent, width in zip(parents, widths):
            under[parent], ids = ids[:width], ids[width:]
        return under, {row: parent for parent, rows in under.items() for row in rows}

    q_rows = {v: tuple(_adversarial_ids(rng, rng.randint(1, 3))) for v in vertices}
    fiber, k_comp = {}, {}
    pool, tau = {}, {}
    for v in vertices:
        fiber[v], k_comp[v] = split(q_rows[v])
        pool[v], tau[v] = split(tuple(k_comp[v]))
    p_rows = {v: tuple(rng.sample(list(k_comp[v]), len(k_comp[v]))) for v in vertices}
    x_rows = {v: tuple(rng.sample(list(tau[v]), len(tau[v]))) for v in vertices}

    def noisy(natural: list[str], anything: tuple[str, ...]) -> str:
        return rng.choice(natural if natural and rng.random() >= noise else anything)

    q_cols, p_cols, x_cols = {}, {}, {}
    for a in arrows:
        v, w = a.source, a.target
        q_col = q_cols[a.name] = {}
        for q in q_rows[v]:
            onto_types = [r for r in q_rows[w] if _onto(len(fiber[v][q]), len(fiber[w][r]))]
            q_col[q] = noisy(onto_types, q_rows[w])
        p_col = p_cols[a.name] = {}
        x_col = x_cols[a.name] = {}
        for q in q_rows[v]:
            ps, targets = fiber[v][q], fiber[w][q_col[q]]
            onto = rng.sample(ps, len(ps))
            for i, p in enumerate(onto):
                natural = [targets[i]] if i < len(targets) else targets
                p_col[p] = noisy(natural, p_rows[w])
            shared = {
                p_out: noisy(pool[w][p_out], x_rows[w])
                for p_out in dict.fromkeys(p_col[p] for p in ps)
            }
            for p in ps:
                image_pool = tuple(pool[w][p_col[p]]) or x_rows[w]
                for x in pool[v][p]:
                    x_col[x] = noisy([shared[p_col[p]]], image_pool)

    Q = Instance(schema, q_rows, q_cols)
    P = Instance(schema, p_rows, p_cols)
    X = Instance(schema, x_rows, x_cols)
    return InstanceMorphism(P, Q, k_comp), TypedInstance(InstanceMorphism(X, P, tau))


def shuffled_rows(rng: random.Random, instance: Instance) -> Instance:
    """The same instance with each table's rows in a random order, so that
    row position and row id disagree."""
    rows = {
        v: tuple(rng.sample(instance.row_set(v), len(instance.row_set(v))))
        for v in instance.schema.vertices
    }
    return Instance(instance.schema, rows, instance.columns)


def repair_instance(instance: Instance) -> Instance:
    """Quotient rows until every declared equation holds (congruence merge)."""
    schema = instance.schema
    order = {
        (v, r): i for v in schema.vertices for i, r in enumerate(instance.row_set(v))
    }
    parent: dict[tuple[str, str], tuple[str, str]] = {
        key: key for key in order
    }

    def find(key):
        while parent[key] != key:
            parent[key] = parent[parent[key]]
            key = parent[key]
        return key

    cols = {a.name: dict(instance.column(a.name)) for a in schema.arrows}
    target_of = {a.name: a.target for a in schema.arrows}

    def union(v: str, r1: str, r2: str):
        k1, k2 = find((v, r1)), find((v, r2))
        if k1 == k2:
            return
        if order[k2] < order[k1]:
            k1, k2 = k2, k1
        parent[k2] = k1
        for a in schema.graph.out_arrows(v):
            col = cols[a.name]
            i1, i2 = col.get(k1[1]), col.get(k2[1])
            if i1 is None and i2 is not None:
                col[k1[1]] = i2
            elif i1 is not None and i2 is not None and i1 != i2:
                union(a.target, i1, i2)

    def walk(v: str, r: str, arrows: tuple[str, ...]) -> tuple[str, str]:
        at = find((v, r))
        for name in arrows:
            value = cols[name][at[1]]
            at = find((target_of[name], value))
        return at

    changed = True
    while changed:
        changed = False
        for eq in schema.equivalences:
            v = eq.lhs.source
            for r in instance.row_set(v):
                lhs = walk(v, r, eq.lhs.arrows)
                rhs = walk(v, r, eq.rhs.arrows)
                if lhs != rhs:
                    union(lhs[0], lhs[1], rhs[1])
                    changed = True

    rows = {
        v: tuple(r for r in instance.row_set(v) if find((v, r)) == (v, r))
        for v in schema.vertices
    }
    columns = {}
    for a in schema.arrows:
        col = cols[a.name]
        columns[a.name] = {
            r: find((a.target, col[r]))[1] for r in rows[a.source]
        }
    return Instance(schema, rows, columns)


def rand_translation(
    rng: random.Random,
    target: Schema,
    name_prefix: str = "c",
    max_vertices: int = 4,
    max_arrows: int = 5,
    max_equations: int = 2,
) -> Translation:
    """A random acyclic source schema with a valid translation onto ``target``.

    Arrow images are sampled from actual target paths, so endpoints hold by
    construction; source equations are only kept when their images are
    provably equivalent by the exact (oracle) closure.
    """
    k = rng.randint(1, max_vertices)
    vertices = tuple(f"{name_prefix}{i}" for i in range(k))
    vertex_map = {v: rng.choice(target.vertices) for v in vertices}

    target_paths: dict[str, list[Path]] = {}
    roots: dict[str, list[int]] = {}
    for d in set(vertex_map.values()):
        target_paths[d] = all_paths(target, d)
        roots[d] = path_partition(target, target_paths[d])

    arrows = []
    arrow_map: dict[str, Path] = {}
    if k >= 2:
        for n in range(rng.randint(0, max_arrows)):
            i = rng.randrange(0, k - 1)
            j = rng.randrange(i + 1, k)
            src, tgt = vertices[i], vertices[j]
            options = [
                p
                for p in target_paths[vertex_map[src]]
                if path_target(target.graph, p) == vertex_map[tgt]
            ]
            if not options:
                continue
            arrow = Arrow(f"{name_prefix}f{n}", src, tgt)
            arrows.append(arrow)
            arrow_map[arrow.name] = rng.choice(options)

    graph = Graph(vertices, tuple(arrows))
    bare = Schema(f"{name_prefix}src", graph, ())

    def image_root(path: Path) -> int:
        d = vertex_map[path.source]
        arrows_out: tuple[str, ...] = ()
        for a in path.arrows:
            arrows_out += arrow_map[a].arrows
        index = {p.arrows: i for i, p in enumerate(target_paths[d])}
        return roots[d][index[arrows_out]]

    candidates = []
    for v in vertices:
        paths = all_paths(bare, v)
        by_target: dict[str, list[Path]] = {}
        for p in paths:
            by_target.setdefault(path_target(graph, p), []).append(p)
        for group in by_target.values():
            for a in range(len(group)):
                for b in range(a + 1, len(group)):
                    if image_root(group[a]) == image_root(group[b]):
                        candidates.append(PathEquivalence(group[a], group[b]))
    rng.shuffle(candidates)
    equations = tuple(candidates[: rng.randint(0, max_equations)])
    source = Schema(f"{name_prefix}src", graph, equations)
    return Translation(source, target, vertex_map, arrow_map)


def company_staff(
    rng: random.Random, employees: int, departments: int, shuffle: bool = False
) -> tuple[Translation, Instance]:
    """Staff on ``Company`` without ``isIn``, and the inclusion into it.

    Shaped like the benchmark's company input: each department's manager
    chains stay inside it and end at a self-managed head, and its secretary
    works in it, so sigma along the inclusion infers every employee's
    department from ``Mgr.isIn = isIn`` and ``Secr.isIn = id`` and makes no
    new employees.  Needs at least one employee per department.  With
    ``shuffle`` the tables list their rows in random order, so a manager may come after its staff.
    """
    vertices = ("Employee", "Department", "String1", "String2", "String3")
    common = (
        Arrow("First", "Employee", "String1"),
        Arrow("Last", "Employee", "String2"),
        Arrow("Mgr", "Employee", "Employee"),
        Arrow("Name", "Department", "String3"),
        Arrow("Secr", "Department", "Employee"),
    )
    source = Schema("CompanySrc", Graph(vertices, common))
    target = Schema(
        "Company",
        Graph(vertices, common + (Arrow("isIn", "Employee", "Department"),)),
        (
            PathEquivalence(Path("Employee", ("Mgr", "isIn")), Path("Employee", ("isIn",))),
            PathEquivalence(Path("Department", ("Secr", "isIn")), Path("Department", ())),
        ),
    )
    emps = [f"e{i:05d}" for i in range(employees)]
    firsts = [f"first{i:03d}" for i in range(max(1, employees // 20))]
    lasts = [f"last{i:03d}" for i in range(max(1, employees // 10))]
    names = [f"dept{i:03d}" for i in range(departments)]
    depts = [f"d{i:03d}" for i in range(departments)]
    members: list[list[str]] = [[] for _ in range(departments)]
    mgr: dict[str, str] = {}
    for i, e in enumerate(emps):
        d = i if i < departments else rng.randrange(departments)
        mgr[e] = rng.choice(members[d]) if members[d] else e
        members[d].append(e)
    rows = {
        "Employee": emps,
        "Department": depts,
        "String1": firsts,
        "String2": lasts,
        "String3": names,
    }
    if shuffle:
        for table in rows.values():
            rng.shuffle(table)
    columns = {
        "First": {e: rng.choice(firsts) for e in emps},
        "Last": {e: rng.choice(lasts) for e in emps},
        "Mgr": mgr,
        "Name": dict(zip(depts, names)),
        "Secr": {d: rng.choice(staff) for d, staff in zip(depts, members)},
    }
    translation = Translation(
        source,
        target,
        {v: v for v in vertices},
        {a.name: Path(a.source, (a.name,)) for a in common},
    )
    return translation, Instance(source, {v: tuple(t) for v, t in rows.items()}, columns)


def rand_inclusion(rng: random.Random, name: str) -> tuple[Translation, Instance]:
    """A random cyclic schema, a source that keeps its vertices and some of
    its arrows with no equations, the inclusion, and a random instance on the
    source: sigma must infer the dropped arrows from the equations, as it
    infers ``isIn`` on the company input."""
    target = rand_cyclic_schema(rng, name, max_equations=3)
    kept = tuple(a for a in target.arrows if rng.random() < 0.5)
    source = Schema(f"{name}src", Graph(target.vertices, kept))
    translation = Translation(
        source,
        target,
        {v: v for v in target.vertices},
        {a.name: Path(a.source, (a.name,)) for a in kept},
    )
    return translation, rand_instance(rng, source)
