from __future__ import annotations

import random

from catmigrate.naming import (
    encode_component,
    keyed_id,
    keyed_ids,
    pair_id,
    tuple_id,
    uniquify,
)

from .oracles import encode_component_by_chars


def test_encode_component_matches_the_character_generator():
    texts = [
        "",
        "plain",
        "%,()=;@",
        "%41",
        "a,b(c)=d;e@f%",
        "été",
        "日本,語",
        "\U0001f600@",
        "\x00\n\t#\\\"",
    ]
    texts += [chr(c) for c in range(0x300)]
    for text in texts:
        assert encode_component(text) == encode_component_by_chars(text), text


def test_ids_are_joined_from_encoded_components():
    assert tuple_id(("a,b", "()", "@q")) == "(a%2Cb,%28%29,%40q)"
    assert pair_id("%", "=") == "(%25,%3D)"
    assert keyed_id([("k;2", "v"), ("k1", "x=y")]) == "k1=x%3Dy;k%3B2=v"


def test_keyed_ids_match_keyed_id_family_by_family():
    """Keys and rows that need encoding, keys whose raw and encoded orders
    differ (``%`` sorts before ``;`` raw, ``%3B`` after ``%25``), and
    coinciding keys, where the rows decide the order."""
    alphabet = ["a", "b", "%", ";", "=", "@", ",", "(", ")", "é", ""]
    rng = random.Random(5)
    key_sets = [
        [],
        ["k"],
        ["k;2", "k1"],
        ["A[id]", "B[f]", "A[f.g]"],
        ["%", ";", "=", "a"],
        ["x", "x"],
        ["a.b", "a", "a.b"],
    ]
    for _ in range(200):
        width = rng.randint(1, 4)
        key_sets.append(["".join(rng.choices(alphabet[:6], k=2)) for _ in range(width)])
    for keys in key_sets:
        families = [
            tuple("".join(rng.choices(alphabet, k=rng.randint(0, 3))) for _ in keys)
            for _ in range(rng.randint(0, 6))
        ]
        expected = [keyed_id(list(zip(keys, family))) for family in families]
        assert keyed_ids(keys, families) == expected, (keys, families)


def test_uniquify_returns_distinct_names_in_order():
    names = ["b", "a", "c#2", "()"]
    assert uniquify(names) == ["b", "a", "c#2", "()"]


def test_uniquify_skips_a_suffix_already_taken():
    assert uniquify(["a", "a", "a#2"]) == ["a", "a#3", "a#2"]


def test_uniquify_never_returns_the_callers_list():
    for names in ([], ["a", "b"], ["a", "a"]):
        assert uniquify(names) is not names
