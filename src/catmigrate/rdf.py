"""Flattening instances into subject/predicate/object triple stores and back.

Every (vertex, row) becomes a typed node; every (arrow, row) becomes one
triple.  Node ids are namespaced ``vertex/row`` because row ids are only
unique per table, with ``%`` and ``/`` percent-encoded in the vertex part, so
the first ``/`` of an id ends its vertex and ids of distinct nodes differ.
The reverse construction rebuilds tables from node types and triples, and
the export writes deterministic N-Triples-shaped lines.
"""
from __future__ import annotations

from dataclasses import dataclass
from urllib.parse import quote

from .errors import TripleStoreError
from .instances import Instance
from .schemas import Schema


@dataclass
class TripleStore:
    schema: Schema
    nodes: tuple[tuple[str, str], ...] = ()  # (node id, type vertex)
    triples: tuple[tuple[str, str, str], ...] = ()  # (subject, predicate arrow, object)


def validate_store(store: TripleStore) -> list[str]:
    """Typing and functionality violations, one message per problem."""
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
        except Exception:
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


_VERTEX_ESCAPES = str.maketrans({"%": "%25", "/": "%2F"})


def node_prefix(vertex: str) -> str:
    """The part of a node id before its row: the encoded vertex and a ``/``.
    A node's id is its vertex's prefix followed by its row id."""
    return vertex.translate(_VERTEX_ESCAPES) + "/"


def grothendieck(instance: Instance) -> TripleStore:
    """One node per (vertex, row), one triple per (arrow, source row)."""
    prefix = {v: node_prefix(v) for v in instance.schema.vertices}
    nodes = []
    for v in instance.schema.vertices:
        for r in instance.row_set(v):
            nodes.append((prefix[v] + r, v))
    triples = []
    for arrow in instance.schema.arrows:
        column = instance.column(arrow.name)
        source, target = prefix[arrow.source], prefix[arrow.target]
        for r in instance.row_set(arrow.source):
            triples.append((source + r, arrow.name, target + column[r]))
    return TripleStore(instance.schema, tuple(nodes), tuple(triples))


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
    and predicates in every one."""
    prefix = "<" + base.rstrip("/") + "/"
    uri = {
        component: prefix + quote(component, safe="/:$-_.~()") + ">"
        for component in {c for triple in store.triples for c in triple}
    }
    lines = sorted(f"{uri[s]} {uri[p]} {uri[o]} ." for s, p, o in store.triples)
    return "".join(line + "\n" for line in lines)
