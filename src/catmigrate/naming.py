"""Deterministic row-id construction for generated instances.

Generated ids must be injective per table even when user row-ids contain the
separator characters, so structural characters inside components are
percent-encoded before joining.  The encoding is one ``str.translate`` by
``_ENCODE``, a table from each structural character to its ``%XX`` escape.
"""
from __future__ import annotations

_STRUCTURAL = "%,()=;@"
_ENCODE = {ord(c): f"%{ord(c):02X}" for c in _STRUCTURAL}


def encode_component(s: str) -> str:
    return s.translate(_ENCODE)


def tuple_id(parts: tuple[str, ...] | list[str]) -> str:
    """``(a,b,c)`` — the shape of fiber-product and dependent-product ids."""
    return "(" + ",".join(map(encode_component, parts)) + ")"


def pair_id(a: str, b: str) -> str:
    return tuple_id((a, b))


def keyed_id(pairs: list[tuple[str, str]]) -> str:
    """``k1=v1;k2=v2`` sorted by key — the shape of limit-family ids."""
    return ";".join(
        f"{encode_component(k)}={encode_component(v)}" for k, v in sorted(pairs)
    )


def keyed_ids(keys: list[str], families: list[tuple[str, ...]]) -> list[str]:
    """``keyed_id(list(zip(keys, family)))`` for each of ``families``, built a
    key at a time: each key and each distinct row is encoded once, and each
    id joins its precomputed ``key=row`` cells.  Distinct keys fix the sort
    order; where two keys coincide the rows break the tie, so each family
    then goes through ``keyed_id``."""
    if not keys or len(set(keys)) < len(keys):
        return [keyed_id(list(zip(keys, family))) for family in families]
    encoded: dict[str, str] = {}  # row -> its encoding, shared by every key
    columns = []
    for k in sorted(range(len(keys)), key=keys.__getitem__):
        column = [family[k] for family in families]
        distinct = set(column)
        for row in distinct.difference(encoded):
            encoded[row] = encode_component(row)
        head = encode_component(keys[k]) + "="
        cell = {row: head + encoded[row] for row in distinct}
        columns.append(map(cell.__getitem__, column))
    return list(map(";".join, zip(*columns)))


def uniquify(names: list[str]) -> list[str]:
    """Disambiguate duplicate display names in order, appending ``#2``, ``#3``, ...

    Injective even when the input already carries ``#n`` suffixes: a proposed
    name is bumped until it is genuinely unused.  Distinct names come back as
    they are, in a new list.
    """
    used = set(names)  # reserve literal occurrences so suffixes never shadow them
    if len(used) == len(names):
        return list(names)
    taken: set[str] = set()
    counters: dict[str, int] = {}
    out = []
    for name in names:
        if name not in taken:
            taken.add(name)
            out.append(name)
            continue
        k = counters.get(name, 1)
        while True:
            k += 1
            candidate = f"{name}#{k}"
            if candidate not in used and candidate not in taken:
                break
        counters[name] = k
        taken.add(candidate)
        out.append(candidate)
    return out
