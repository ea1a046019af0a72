from __future__ import annotations

from catmigrate.naming import encode_component, keyed_id, pair_id, tuple_id, uniquify

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


def test_uniquify_returns_distinct_names_in_order():
    names = ["b", "a", "c#2", "()"]
    assert uniquify(names) == ["b", "a", "c#2", "()"]


def test_uniquify_skips_a_suffix_already_taken():
    assert uniquify(["a", "a", "a#2"]) == ["a", "a#3", "a#2"]


def test_uniquify_never_returns_the_callers_list():
    for names in ([], ["a", "b"], ["a", "a"]):
        assert uniquify(names) is not names
