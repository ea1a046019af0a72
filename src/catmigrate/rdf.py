"""Flattening instances into subject/predicate/object triple stores and back.

Every (vertex, row) becomes a typed node; every (arrow, row) becomes one
triple.  Node ids are namespaced ``vertex/row`` because row ids are only
unique per table, with ``%`` and ``/`` percent-encoded in the vertex part, so
the first ``/`` of an id ends its vertex and ids of distinct nodes differ.
The reverse construction rebuilds tables from node types and triples, and
the export writes deterministic N-Triples-shaped lines.
"""
from __future__ import annotations

from itertools import groupby, repeat
from operator import itemgetter

from .errors import StructuralError, TripleStoreError
from .instances import Instance
from .schemas import Schema
from .values import Record


class TripleStore(Record):
    _fields = ("schema", "nodes", "triples")

    def __init__(
        self,
        schema: Schema,
        nodes: tuple[tuple[str, str], ...] = (),  # (node id, type vertex)
        triples: tuple[tuple[str, str, str], ...] = (),  # (subject, predicate arrow, object)
    ):
        self.schema = schema
        self.nodes = nodes
        self.triples = triples


def validate_store(store: TripleStore) -> list[str]:
    """Typing and functionality violations, one message per problem, in the
    order of the nodes and then of the triples.  A store that passes
    ``_is_valid`` has none; only a store that fails it is walked a triple
    at a time, to write the messages."""
    if _is_valid(store):
        return []
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


def _is_valid(store: TripleStore) -> bool:
    """Whether ``validate_store`` finds nothing, checked a run of triples
    with one predicate at a time: their subjects' and objects' types as
    sets, and their subjects as new keys of the predicate's subject ->
    object map.  False also where a subject repeats with the same object,
    which is no fault: the triple-at-a-time walk then decides."""
    graph = store.schema.graph
    types = dict(store.nodes)
    if len(types) != len(store.nodes) or not all(map(graph.has_vertex, set(types.values()))):
        return False
    objects_of: dict[str, dict[str, str]] = {}  # predicate -> subject -> object
    for predicate, run in groupby(store.triples, itemgetter(1)):
        try:
            arrow = graph.arrow(predicate)
        except StructuralError:
            return False
        run = list(run)
        subjects = list(map(itemgetter(0), run))
        objects = list(map(itemgetter(2), run))
        if set(map(types.get, subjects)) != {arrow.source}:
            return False
        if set(map(types.get, objects)) != {arrow.target}:
            return False
        found = objects_of.setdefault(predicate, {})
        before = len(found)
        found.update(zip(subjects, objects))
        if len(found) != before + len(run):
            return False
    return True


_VERTEX_ESCAPES = str.maketrans({"%": "%25", "/": "%2F"})


def node_prefix(vertex: str) -> str:
    """The part of a node id before its row: the encoded vertex and a ``/``.
    A node's id is its vertex's prefix followed by its row id."""
    return vertex.translate(_VERTEX_ESCAPES) + "/"


def grothendieck(instance: Instance) -> TripleStore:
    """One node per (vertex, row), one triple per (arrow, source row).  Each
    node id is built once, and the triples at it hold that string."""
    schema = instance.schema
    node_ids: dict[str, dict[str, str]] = {}  # vertex -> row -> node id
    nodes = []
    for v in schema.vertices:
        table = instance.row_set(v)
        ids = node_ids[v] = dict(zip(table, map(node_prefix(v).__add__, table)))
        nodes.extend(zip(ids.values(), repeat(v)))
    triples = []
    for arrow in schema.arrows:
        column = instance.column(arrow.name)
        table = instance.row_set(arrow.source)
        objects = map(node_ids[arrow.target].__getitem__, map(column.__getitem__, table))
        triples.extend(zip(node_ids[arrow.source].values(), repeat(arrow.name), objects))
    return TripleStore(schema, tuple(nodes), tuple(triples))


def ungrothendieck(store: TripleStore) -> Instance:
    """Rebuild tables from a store; requires a triple for every (node, outgoing
    arrow) pair and exactly one object per (subject, predicate)."""
    problems = validate_store(store)
    if problems:
        raise TripleStoreError("; ".join(problems[:3]))

    prefixes = {v: node_prefix(v) for v in store.schema.vertices}

    def strip(node: str, vertex: str) -> str:
        prefix = prefixes[vertex]
        return node[len(prefix):] if node.startswith(prefix) else node

    rows: dict[str, list[str]] = {v: [] for v in store.schema.vertices}
    row_sets: dict[str, set[str]] = {v: set() for v in store.schema.vertices}
    nodes_of: dict[str, list[str]] = {v: [] for v in store.schema.vertices}
    row_of_node: dict[str, str] = {}
    for node, vertex in store.nodes:
        row = strip(node, vertex)
        if row in row_sets[vertex]:
            raise TripleStoreError(
                f"two nodes of type {vertex!r} collapse to row id {row!r}", node=node
            )
        rows[vertex].append(row)
        row_sets[vertex].add(row)
        nodes_of[vertex].append(node)
        row_of_node[node] = row

    objects: dict[str, dict[str, str]] = {a.name: {} for a in store.schema.arrows}
    for subject, predicate, obj in store.triples:
        objects[predicate][subject] = obj

    columns: dict[str, dict[str, str]] = {}
    for arrow in store.schema.arrows:
        found = objects[arrow.name]
        mapping = {}
        for node in nodes_of[arrow.source]:
            obj = found.get(node)
            if obj is None:
                raise TripleStoreError(
                    f"store has no triple <{node} {arrow.name} _>; column is partial",
                    node=node,
                    predicate=arrow.name,
                )
            mapping[row_of_node[node]] = row_of_node[obj]
        columns[arrow.name] = mapping

    return Instance(
        store.schema,
        {v: tuple(r) for v, r in rows.items()},
        columns,
    )


def export_triples(store: TripleStore, base: str) -> str:
    """One sorted line per triple: ``<base/subj> <base/pred> <base/obj> .``

    Each distinct component is quoted once: node ids recur across triples,
    and predicates in every one.  A component made only of characters that
    ``quote`` keeps is used as it is."""
    from urllib.parse import quote  # loaded by an export, not by every import

    safe = "/:$-_.~()"
    # ``quote`` keeps ASCII letters and digits, "_.-~" and the safe characters.
    kept = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789_.-~" + safe)
    prefix = "<" + base.rstrip("/") + "/"
    uri = {}
    for component in {c for triple in store.triples for c in triple}:
        text = component if kept.issuperset(component) else quote(component, safe=safe)
        uri[component] = prefix + text + ">"
    lines = sorted(f"{uri[s]} {uri[p]} {uri[o]} ." for s, p, o in store.triples)
    lines.append("")  # so that a nonempty text ends with a newline
    return "\n".join(lines)
