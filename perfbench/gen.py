"""Seeded input generators for the benchmark workloads.

Each generator takes a ``random.Random`` and a job tag and returns inputs plus
the reference values the job's outputs are checked against.  References are
computed here from the generated data in closed form, never by calling the
engine.  Every identifier carries the job tag, so no schema name or row id
repeats between jobs of one process and the engine's memo tables start cold
on every job, as they do for a fresh command-line run.

The shapes follow the repository's goldens (two fact tables, the employee
schema, the salary filter, the rate typing, group satisfaction) and the
random schema, instance and translation generators of the property suite;
they are re-implemented here so that a change to the tests cannot change a
workload.
"""
from __future__ import annotations

import math
import random
from collections import Counter
from dataclasses import dataclass

from catmigrate import (
    Arrow,
    Graph,
    Instance,
    Path,
    PathEquivalence,
    Schema,
    Translation,
)


def _table(lines: list[str]) -> str:
    return "".join(f"    {line}\n" for line in lines)


def _deck(rng: random.Random, items: list, n: int) -> list:
    """n draws that use every item equally often (up to one), in shuffled
    order: the shape of the data, and so the work, is the same on every
    seed; only which names land where changes."""
    out: list = []
    while len(out) < n:
        hand = items[:]
        rng.shuffle(hand)
        out.extend(hand[: n - len(out)])
    return out


# ---------------------------------------------------------------------------
# two fact tables collapsed onto one (golden/two_facts.cat, translation_f.cat)
# ---------------------------------------------------------------------------


@dataclass
class TwoFacts:
    text: str
    instance_i: str
    instance_j: str
    translation: str
    t1: int
    t2: int
    ssn: int
    vocab: int
    j_rows: int
    join_rows: int  # (T1, T2) pairs that agree on First and Last
    cells: int  # column cells of I, one triple each


def two_facts(rng: random.Random, tag: str, n: int, vocab: int) -> TwoFacts:
    """Instance I on C (T1, T2 with n rows each) and J on D (T with n rows).
    T1 and T2 each use every (First, Last) pair equally often, so the join
    of the two has the same size on every seed."""
    firsts = [f"{tag}-fn{i:02d}" for i in range(vocab)]
    lasts = [f"{tag}-ln{i:02d}" for i in range(vocab)]
    salaries = [f"{tag}-s{i:02d}" for i in range(vocab)]
    ssns = [f"{tag}-ssn{i:05d}" for i in range(n)]
    C, D, I, J, F = (f"{x}_{tag}" for x in ("C", "D", "I", "J", "F"))

    schema_c = (
        f"schema {C} {{\n  nodes T1, T2, SSN, First, Last, Salary;\n  arrows\n"
        "    ssn : T1 -> SSN;\n    first_1 : T1 -> First;\n    last_1 : T1 -> Last;\n"
        "    first_2 : T2 -> First;\n    last_2 : T2 -> Last;\n    salary : T2 -> Salary;\n}\n"
    )
    schema_d = (
        f"schema {D} {{\n  nodes T, SSN, First, Last, Salary;\n  arrows\n"
        "    SSN : T -> SSN;\n    First : T -> First;\n    Last : T -> Last;\n"
        "    Salary : T -> Salary;\n}\n"
    )
    leaves = (
        f"  table SSN {{\n{_table(ssns)}  }}\n"
        f"  table First {{\n{_table(firsts)}  }}\n"
        f"  table Last {{\n{_table(lasts)}  }}\n"
        f"  table Salary {{\n{_table(salaries)}  }}\n"
    )

    ssn_order = ssns[:]
    rng.shuffle(ssn_order)
    pairs = [(fn, ln) for fn in firsts for ln in lasts]
    names1, names2 = _deck(rng, pairs, n), _deck(rng, pairs, n)
    t1 = [
        f"{tag}-T1-{i:05d} -> (ssn = {ssn_order[i]}, first_1 = {fn}, last_1 = {ln})"
        for i, (fn, ln) in enumerate(names1)
    ]
    t2 = [
        f"{tag}-T2-{i:05d} -> (first_2 = {fn}, last_2 = {ln}, salary = {sal})"
        for i, ((fn, ln), sal) in enumerate(zip(names2, _deck(rng, salaries, n)))
    ]
    inst_i = (
        f"instance {I} on {C} {{\n  table T1 {{\n{_table(t1)}  }}\n"
        f"  table T2 {{\n{_table(t2)}  }}\n{leaves}}}\n"
    )

    t = [
        f"{tag}-T-{i:05d} -> (SSN = {ssn_order[i]}, First = {rng.choice(firsts)}, "
        f"Last = {rng.choice(lasts)}, Salary = {rng.choice(salaries)})"
        for i in range(n)
    ]
    inst_j = f"instance {J} on {D} {{\n  table T {{\n{_table(t)}  }}\n{leaves}}}\n"

    translation = (
        f"translation {F} : {C} -> {D} {{\n"
        "  nodes T1 -> T, T2 -> T, SSN -> SSN, First -> First, Last -> Last, Salary -> Salary;\n"
        "  arrows\n    ssn -> SSN;\n    first_1 -> First;\n    last_1 -> Last;\n"
        "    first_2 -> First;\n    last_2 -> Last;\n    salary -> Salary;\n}\n"
    )
    count2 = Counter(names2)
    join_rows = sum(count2[key] for key in names1)
    return TwoFacts(
        text=schema_c + inst_i + schema_d + inst_j + translation,
        instance_i=I,
        instance_j=J,
        translation=F,
        t1=n,
        t2=n,
        ssn=n,
        vocab=vocab,
        j_rows=n,
        join_rows=join_rows,
        cells=3 * n + 3 * n,
    )


# ---------------------------------------------------------------------------
# employees and departments (golden/employee.cat), isIn left to sigma
# ---------------------------------------------------------------------------


@dataclass
class Company:
    text: str
    instance: str
    translation: str
    employees: int
    departments: int
    strings: tuple[int, int, int]


def company(rng: random.Random, tag: str, employees: int, departments: int) -> Company:
    """Staff on a source schema without ``isIn``; sigma along the inclusion
    into ``Company`` must infer every employee's department from the two
    equations.  Each department's manager chains stay inside it and end at a
    self-managed head, and its secretary works in it, so the chase finds
    exactly ``departments`` departments and no new employees."""
    S, T, I, G = (f"{x}_{tag}" for x in ("CompanySrc", "Company", "Staff", "G"))
    vocab1 = [f"{tag}-first{i:03d}" for i in range(max(1, employees // 20))]
    vocab2 = [f"{tag}-last{i:03d}" for i in range(max(1, employees // 10))]
    names = [f"{tag}-dept{i:03d}" for i in range(departments)]
    emps = [f"{tag}-e{i:05d}" for i in range(employees)]
    dept_of = [i % departments if i < departments else rng.randrange(departments)
               for i in range(employees)]
    members: list[list[int]] = [[] for _ in range(departments)]
    mgr = [0] * employees
    for e in range(employees):
        d = dept_of[e]
        mgr[e] = rng.choice(members[d]) if members[d] else e
        members[d].append(e)
    emp_rows = [
        f"{emps[e]} -> (First = {rng.choice(vocab1)}, Last = {rng.choice(vocab2)}, "
        f"Mgr = {emps[mgr[e]]})"
        for e in range(employees)
    ]
    dept_rows = [
        f"{tag}-d{d:03d} -> (Name = {names[d]}, Secr = {emps[rng.choice(members[d])]})"
        for d in range(departments)
    ]
    nodes = "  nodes Employee, Department, String1, String2, String3;\n"
    common = (
        "    First : Employee -> String1;\n    Last : Employee -> String2;\n"
        "    Mgr : Employee -> Employee;\n    Name : Department -> String3;\n"
        "    Secr : Department -> Employee;\n"
    )
    text = (
        f"schema {S} {{\n{nodes}  arrows\n{common}}}\n"
        f"schema {T} {{\n{nodes}  arrows\n{common}    isIn : Employee -> Department;\n"
        "  equations\n    Employee : Mgr.isIn = isIn;\n    Department : Secr.isIn = id;\n}\n"
        f"instance {I} on {S} {{\n"
        f"  table Employee {{\n{_table(emp_rows)}  }}\n"
        f"  table Department {{\n{_table(dept_rows)}  }}\n"
        f"  table String1 {{\n{_table(vocab1)}  }}\n"
        f"  table String2 {{\n{_table(vocab2)}  }}\n"
        f"  table String3 {{\n{_table(names)}  }}\n}}\n"
        f"translation {G} : {S} -> {T} {{\n"
        "  nodes Employee -> Employee, Department -> Department, String1 -> String1,\n"
        "    String2 -> String2, String3 -> String3;\n"
        "  arrows\n    First -> First;\n    Last -> Last;\n    Mgr -> Mgr;\n"
        "    Name -> Name;\n    Secr -> Secr;\n}\n"
    )
    return Company(text, I, G, employees, departments, (len(vocab1), len(vocab2), len(names)))


# ---------------------------------------------------------------------------
# salary filter (golden/filtering.cat)
# ---------------------------------------------------------------------------


@dataclass
class Roster:
    text: str
    below: str  # morphism SubSalaries -> AllSalaries
    typed: str  # roster typed over AllSalaries
    names: int
    kept_employees: int  # employees paid a figure in SubSalaries
    kept_salaries: int


def roster(rng: random.Random, tag: str, employees: int, figures: int) -> Roster:
    """A payroll typed by salary figure, and the inclusion of the lower half
    of the figures into all of them; pulling back along it filters."""
    P = f"Payroll_{tag}"
    figs = [f"{tag}-usd{i:04d}" for i in range(figures)]
    sub = figs[: figures // 2]
    names = [f"{tag}-name{i:05d}" for i in range(employees)]
    salary = [rng.choice(figs) for _ in range(employees)]
    emp = [f"{tag}-em{i:05d}" for i in range(employees)]
    roster_rows = [f"{emp[i]} -> (name = {names[i]}, salary = {salary[i]})" for i in range(employees)]
    paid = sorted(set(salary), key=figs.index)
    all_rows = [f"{tag}-all-{f} -> (name = pt, salary = {f})" for f in figs]
    sub_rows = [f"{tag}-sub-{f} -> (name = pt, salary = {f})" for f in sub]
    text = (
        f"schema {P} {{\n  nodes Employee, Name, Salary;\n  arrows\n"
        "    name : Employee -> Name;\n    salary : Employee -> Salary;\n}\n"
        f"instance Roster_{tag} on {P} {{\n  table Employee {{\n{_table(roster_rows)}  }}\n"
        f"  table Name {{\n{_table(names)}  }}\n  table Salary {{\n{_table(paid)}  }}\n}}\n"
        f"instance All_{tag} on {P} {{\n  table Employee {{\n{_table(all_rows)}  }}\n"
        f"  table Name {{\n    pt\n  }}\n  table Salary {{\n{_table(figs)}  }}\n}}\n"
        f"instance Sub_{tag} on {P} {{\n  table Employee {{\n{_table(sub_rows)}  }}\n"
        f"  table Name {{\n    pt\n  }}\n  table Salary {{\n{_table(sub)}  }}\n}}\n"
        f"morphism Below_{tag} : Sub_{tag} -> All_{tag} {{\n"
        f"  Employee {{\n{_table([f'{tag}-sub-{f} -> {tag}-all-{f}' for f in sub])}  }}\n"
        f"  Name {{\n    pt -> pt\n  }}\n"
        f"  Salary {{\n{_table([f'{f} -> {f}' for f in sub])}  }}\n}}\n"
        f"typedinstance Typed_{tag} {{\n  instance Roster_{tag};\n  typing All_{tag};\n"
        "  components {\n"
        f"    Employee {{\n{_table([f'  {emp[i]} -> {tag}-all-{salary[i]}' for i in range(employees)])}    }}\n"
        f"    Name {{\n{_table([f'  {x} -> pt' for x in names])}    }}\n"
        f"    Salary {{\n{_table([f'  {f} -> {f}' for f in paid])}    }}\n"
        "  }\n}\n"
    )
    sub_set = set(sub)
    return Roster(
        text,
        f"Below_{tag}",
        f"Typed_{tag}",
        employees,
        sum(1 for s in salary if s in sub_set),
        sum(1 for f in paid if f in sub_set),
    )


# ---------------------------------------------------------------------------
# pi-join inputs
# ---------------------------------------------------------------------------


@dataclass
class ArrowPair:
    text: str
    instance: str
    translation: str
    rows: int


def arrow_pair(rng: random.Random, tag: str, n: int) -> ArrowPair:
    """``A -f-> B`` with n rows per table and the identity translation."""
    S = f"AB_{tag}"
    b = [f"{tag}-b{i:05d}" for i in range(n)]
    a = [f"{tag}-a{i:05d} -> (f = {rng.choice(b)})" for i in range(n)]
    text = (
        f"schema {S} {{\n  nodes A, B;\n  arrows\n    f : A -> B;\n}}\n"
        f"instance I_{tag} on {S} {{\n  table A {{\n{_table(a)}  }}\n"
        f"  table B {{\n{_table(b)}  }}\n}}\n"
        f"translation Id_{tag} : {S} -> {S} {{\n  nodes A -> A, B -> B;\n"
        "  arrows\n    f -> f;\n}\n"
    )
    return ArrowPair(text, f"I_{tag}", f"Id_{tag}", n)


@dataclass
class RateTyping:
    text: str
    bridge: str
    values: str
    attachment: str
    rates: int  # rows of Yp; the implied typing has this many X and Y rows
    amounts: int  # rows of Zp, one more than rates


def rate_typing(rng: random.Random, tag: str, m: int) -> RateTyping:
    """golden/times50.cat scaled to m rates: hours h map to amount 50*h, plus
    one amount no rate reaches; the implied typing is computed by pi."""
    H, B = f"Hours_{tag}", f"Bridge_{tag}"
    hours = [f"{tag}-h{i:04d}" for i in range(m)]
    amounts = [f"{tag}-usd{50 * i}" for i in range(m)] + [f"{tag}-usd-odd"]
    order = list(range(m))
    rng.shuffle(order)
    yp = [f"{hours[i]} -> (rp = {amounts[i]})" for i in order]
    text = (
        f"schema {H} {{\n  nodes X, Y, Z;\n  arrows\n    t : X -> Y;\n    d : X -> Z;\n"
        "    r : Y -> Z;\n  equations\n    X : d = t.r;\n}\n"
        f"schema {B} {{\n  nodes Yp, Zp;\n  arrows\n    rp : Yp -> Zp;\n}}\n"
        f"instance Values_{tag} on {B} {{\n  table Yp {{\n{_table(yp)}  }}\n"
        f"  table Zp {{\n{_table(amounts)}  }}\n}}\n"
        f"translation Attach_{tag} : {B} -> {H} {{\n  nodes Yp -> Y, Zp -> Z;\n"
        "  arrows\n    rp -> r;\n}\n"
    )
    return RateTyping(text, B, f"Values_{tag}", f"Attach_{tag}", m, m + 1)


@dataclass
class Groups:
    text: str
    grouping: str
    typed: str
    items: int
    sections: int  # rows of the dependent product at L


def groups(rng: random.Random, tag: str, people: int, items: int, group_size: int) -> Groups:
    """golden/satisfaction.cat scaled: items dealt out evenly to people,
    people in groups of ``group_size``; the product over groups lists each group's
    joint offerings, one row per choice of an item from every member."""
    S = f"Holdings_{tag}"
    persons = [f"{tag}-p{i:03d}" for i in range(people)]
    gnames = [f"{tag}-g{i:03d}" for i in range(people // group_size)]
    group_of = [gnames[i // group_size] for i in range(people)]
    owner = _deck(rng, persons, items)
    its = [f"{tag}-it{i:04d}" for i in range(items)]
    held = Counter(owner)
    sections = 0
    for g in gnames:
        prod = 1
        for i, p in enumerate(persons):
            if group_of[i] == g:
                prod *= held[p]
        sections += prod
    text = (
        f"schema {S} {{\n  nodes L, M;\n  arrows\n    f : L -> M;\n}}\n"
        f"instance Items_{tag} on {S} {{\n"
        f"  table L {{\n{_table([f'{x} -> (f = m0)' for x in its])}  }}\n"
        "  table M {\n    m0\n  }\n}\n"
        f"instance People_{tag} on {S} {{\n"
        f"  table L {{\n{_table([f'{p} -> (f = pt)' for p in persons])}  }}\n"
        "  table M {\n    pt\n  }\n}\n"
        f"instance Groups_{tag} on {S} {{\n"
        f"  table L {{\n{_table([f'{g} -> (f = pt)' for g in gnames])}  }}\n"
        "  table M {\n    pt\n  }\n}\n"
        f"morphism Grouping_{tag} : People_{tag} -> Groups_{tag} {{\n"
        f"  L {{\n{_table([f'{p} -> {group_of[i]}' for i, p in enumerate(persons)])}  }}\n"
        "  M {\n    pt -> pt\n  }\n}\n"
        f"typedinstance TypedItems_{tag} {{\n  instance Items_{tag};\n  typing People_{tag};\n"
        "  components {\n"
        f"    L {{\n{_table([f'  {x} -> {owner[i]}' for i, x in enumerate(its)])}    }}\n"
        "    M {\n      m0 -> pt\n    }\n  }\n}\n"
    )
    return Groups(text, f"Grouping_{tag}", f"TypedItems_{tag}", items, sections)


# ---------------------------------------------------------------------------
# engine-check: small random schemas, instances and translations
# ---------------------------------------------------------------------------


def _out(graph: Graph, v: str) -> list[Arrow]:
    return [a for a in graph.arrows if a.source == v]


def _walk(rng: random.Random, graph: Graph, start: str, max_len: int) -> tuple[str, ...]:
    at, arrows = start, []
    for _ in range(rng.randint(0, max_len)):
        options = _out(graph, at)
        if not options:
            break
        a = rng.choice(options)
        arrows.append(a.name)
        at = a.target
    return tuple(arrows)


def _target(graph: Graph, start: str, arrows: tuple[str, ...]) -> str:
    at = start
    for name in arrows:
        at = next(a.target for a in graph.arrows if a.name == name)
    return at


def _short_paths(graph: Graph, v: str, depth: int) -> list[tuple[tuple[str, ...], str]]:
    """Every path from v of length at most ``depth``, with its end."""
    out = frontier = [((), v)]
    for _ in range(depth):
        frontier = [(p + (a.name,), a.target) for p, end in frontier for a in _out(graph, end)]
        out = out + frontier
    return out


def random_schema(rng: random.Random, tag: str, cyclic: bool,
                  max_vertices: int = 4, max_arrows: int = 5, max_equations: int = 2) -> Schema:
    """An arbitrary graph when ``cyclic``, else arrows only go forward;
    equations are drawn from parallel paths of length at most 3.

    On cyclic graphs both sides of an equation have the same length.  A
    length-changing equation on a cycle lets the rewrite search grow paths up
    to its length cap, and the few such schemas a seed happens to draw would
    decide the whole run time; that case is measured by ``hard_case`` at a
    fixed rate instead.
    """
    k = rng.randint(1, max_vertices)
    vertices = tuple(f"{tag}v{i}" for i in range(k))
    arrows = []
    for n in range(rng.randint(0, max_arrows)):
        if cyclic:
            s, t = rng.choice(vertices), rng.choice(vertices)
        elif k >= 2:
            i = rng.randrange(0, k - 1)
            s, t = vertices[i], vertices[rng.randrange(i + 1, k)]
        else:
            break
        arrows.append(Arrow(f"{tag}a{n}", s, t))
    graph = Graph(vertices, tuple(arrows))
    candidates = []
    for v in vertices:
        by_target: dict[str, list[tuple[str, ...]]] = {}
        for p, end in _short_paths(graph, v, 3):
            by_target.setdefault(end, []).append(p)
        for group in by_target.values():
            for a in range(len(group)):
                for b in range(a + 1, len(group)):
                    if cyclic and len(group[a]) != len(group[b]):
                        continue
                    candidates.append((v, group[a], group[b]))
    rng.shuffle(candidates)
    equations = tuple(
        PathEquivalence(Path(v, p), Path(v, q))
        for v, p, q in candidates[: rng.randint(0, max_equations)]
    )
    return Schema(f"S_{tag}", graph, equations)


def hard_case(tag: str) -> tuple[Schema, list[tuple[Path, Path]]]:
    """One vertex with loops x and y and the equation x = x.x.y, queried on
    x against y.x.  Both sides of the equation start with x, so every path
    equivalent to x starts with x and y.x is not among them; the rewrite
    search grows x without end.  Run with a rewrite budget of
    ``jobs.EngineCheck.hard_budget`` steps, it is a NOT_PROVED search of
    fixed size."""
    v, x, y = f"{tag}h", f"{tag}x", f"{tag}y"
    graph = Graph((v,), (Arrow(x, v, v), Arrow(y, v, v)))
    schema = Schema(f"H_{tag}", graph, (PathEquivalence(Path(v, (x,)), Path(v, (x, x, y))),))
    return schema, [(Path(v, (x,)), Path(v, (y, x)))]


def random_instance(rng: random.Random, schema: Schema, max_rows: int = 3) -> Instance:
    """Random columns, then rows merged until every equation holds."""
    counts = {v: rng.randint(0, max_rows) for v in schema.vertices}
    changed = True
    while changed:  # a nonempty table cannot point at an empty one
        changed = False
        for a in schema.arrows:
            if counts[a.source] > 0 and counts[a.target] == 0:
                counts[a.source] = 0
                changed = True
    tag = schema.name
    rows = {v: [f"{tag}.{v}.r{i}" for i in range(counts[v])] for v in schema.vertices}
    cols = {a.name: {r: rng.choice(rows[a.target]) for r in rows[a.source]} for a in schema.arrows}
    return _repair(schema, rows, cols)


def _repair(schema: Schema, rows: dict[str, list[str]], cols: dict[str, dict[str, str]]) -> Instance:
    parent = {(v, r): (v, r) for v in schema.vertices for r in rows[v]}
    order = {key: i for i, key in enumerate(parent)}
    target_of = {a.name: a.target for a in schema.arrows}

    def find(key):
        while parent[key] != key:
            parent[key] = parent[parent[key]]
            key = parent[key]
        return key

    def union(v, r1, r2):
        k1, k2 = find((v, r1)), find((v, r2))
        if k1 == k2:
            return
        if order[k2] < order[k1]:
            k1, k2 = k2, k1
        parent[k2] = k1
        for a in schema.arrows:
            if a.source != v:
                continue
            i1, i2 = cols[a.name].get(k1[1]), cols[a.name].get(k2[1])
            if i1 is not None and i2 is not None and i1 != i2:
                union(a.target, i1, i2)

    def walk(v, r, arrows):
        at = find((v, r))
        for name in arrows:
            at = find((target_of[name], cols[name][at[1]]))
        return at

    changed = True
    while changed:
        changed = False
        for eq in schema.equivalences:
            for r in rows[eq.lhs.source]:
                lhs = walk(eq.lhs.source, r, eq.lhs.arrows)
                rhs = walk(eq.lhs.source, r, eq.rhs.arrows)
                if lhs != rhs:
                    union(lhs[0], lhs[1], rhs[1])
                    changed = True
    kept = {v: tuple(r for r in rows[v] if find((v, r)) == (v, r)) for v in schema.vertices}
    columns = {
        a.name: {r: find((a.target, cols[a.name][r]))[1] for r in kept[a.source]}
        for a in schema.arrows
    }
    return Instance(schema, kept, columns)


def random_translation(rng: random.Random, target: Schema, tag: str) -> Translation:
    """A valid translation into ``target`` by construction.

    The source is a forward-only graph whose arrows map to random walks in
    the target.  Each target equation ``lhs = rhs`` at v is also copied into
    the source as a parallel pair of arrows with that equation, mapped to
    the two sides, so every source equation's image is one declared
    rewrite step and the translation is valid without consulting the oracle.
    """
    graph = target.graph
    k = rng.randint(1, 3)
    vertices = [f"{tag}c{i}" for i in range(k)]
    vmap = {c: rng.choice(target.vertices) for c in vertices}
    arrows, amap, equations = [], {}, []
    for n in range(rng.randint(0, 4)):
        if k < 2:
            break
        i = rng.randrange(0, k - 1)
        s, t = vertices[i], vertices[rng.randrange(i + 1, k)]
        walk = _walk(rng, graph, vmap[s], 3)
        vmap_t = _target(graph, vmap[s], walk)
        if vmap[t] != vmap_t:
            continue
        name = f"{tag}f{n}"
        arrows.append(Arrow(name, s, t))
        amap[name] = Path(vmap[s], walk)
    for e, eq in enumerate(target.equivalences):
        s, t = f"{tag}e{e}s", f"{tag}e{e}t"
        vertices += [s, t]
        vmap[s], vmap[t] = eq.lhs.source, _target(graph, eq.lhs.source, eq.lhs.arrows)
        arrows += [Arrow(f"{tag}e{e}l", s, t), Arrow(f"{tag}e{e}r", s, t)]
        amap[f"{tag}e{e}l"], amap[f"{tag}e{e}r"] = eq.lhs, eq.rhs
        equations.append(PathEquivalence(Path(s, (f"{tag}e{e}l",)), Path(s, (f"{tag}e{e}r",))))
    source = Schema(f"Src_{tag}", Graph(tuple(vertices), tuple(arrows)), tuple(equations))
    return Translation(source, target, vmap, amap)


def hom_space(translation: Translation, source: Instance, target: Instance) -> int:
    """An upper bound on the maps a hom-set count may try, over the four
    adjunction hom-sets of an acyclic target, and on the families pi tries:
    for a hom-set, the product over vertices of |codomain rows| ** |domain
    rows|.  Sigma's rows at d are
    bounded by one per (source row, path from its image to d), pi's by one
    choice of source row per (source vertex, path from d to its image);
    equations and columns only cut these down."""
    D = translation.target
    depth = len(D.vertices)
    paths = {d: _short_paths(D.graph, d, depth) for d in D.vertices}
    sigma_rows = {d: 0 for d in D.vertices}
    pi_rows = {d: 1 for d in D.vertices}
    for c, image in translation.vertex_map.items():
        n = len(source.rows[c])
        for _, end in paths[image]:
            sigma_rows[end] += n
        for d in D.vertices:
            pi_rows[d] *= max(1, n) ** sum(1 for _, end in paths[d] if end == image)
    J = {d: len(target.rows[d]) for d in D.vertices}
    delta_rows = {c: J[image] for c, image in translation.vertex_map.items()}
    I = {c: len(source.rows[c]) for c in translation.vertex_map}
    spaces = [
        math.prod(J[d] ** sigma_rows[d] for d in D.vertices),
        math.prod(delta_rows[c] ** I[c] for c in I),
        math.prod(I[c] ** delta_rows[c] for c in I),
        math.prod(pi_rows[d] ** J[d] for d in D.vertices),
        max(pi_rows.values()),  # the families pi itself enumerates
    ]
    return max(spaces)


def walk_pairs(rng: random.Random, schema: Schema, count: int) -> list[tuple[Path, Path]]:
    """Up to ``count`` parallel pairs of random walks of length at most 3 from
    a common start, as in the soundness part of acceptance criterion 9."""
    pairs = []
    for _ in range(4 * count):
        start = rng.choice(schema.vertices)
        p = _walk(rng, schema.graph, start, 3)
        q = _walk(rng, schema.graph, start, 3)
        if _target(schema.graph, start, p) == _target(schema.graph, start, q):
            pairs.append((Path(start, p), Path(start, q)))
            if len(pairs) == count:
                break
    return pairs
