from __future__ import annotations

import random
import re
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from catmigrate import dsl
from catmigrate.errors import ParseError, StructuralError
from catmigrate.instances import Instance
from catmigrate.typed import TypedInstance

from .conftest import ALL_GOLDEN_FILES, GOLDEN_DIR, load_documents
from .generators import rand_acyclic_schema, rand_cover, rand_instance
from .oracles import MissingCell, _tokenize, cell_by_cell_print_instance


def test_employee_schema_transcription_shape():
    docs, env = load_documents("employee.cat")
    schema = env[("schema", "Company")]
    assert len(schema.vertices) == 5
    assert len(schema.arrows) == 6
    assert len(schema.equivalences) == 2


def test_empty_schema():
    doc = dsl.parse_document("schema Empty {}")
    schema = doc.schema("Empty")
    assert schema.vertices == ()
    assert schema.arrows == ()


def test_empty_document_round_trip():
    assert dsl.print_document(dsl.parse_document("")) == ""
    assert dsl.parse_document("") == dsl.Document([])


def test_missing_row_reference_is_positioned_resolution_error():
    # the employee document with one leaf row removed: the First column of
    # row 101 now dangles
    text = (GOLDEN_DIR / "employee.cat").read_text(encoding="utf-8")
    broken = text.replace("    David\n", "")
    with pytest.raises(ParseError) as err:
        dsl.parse_document(broken)
    assert "First" in str(err.value)
    assert "David" in str(err.value)
    assert err.value.line > 0 and err.value.column > 0


def test_missing_column_names_arrow_and_row():
    text = """
schema S { nodes A, B; arrows f : A -> B; }
instance I on S { table A { a1 } table B { b1 } }
"""
    with pytest.raises(ParseError) as err:
        dsl.parse_document(text)
    assert "a1" in str(err.value) and "f" in str(err.value)


def test_printer_names_the_first_missing_cell():
    # An instance with a missing cell is refused when it is built, so it
    # never reaches the printer; the first gap is named by arrow, then by row
    from catmigrate.schemas import Arrow, Graph, Schema

    schema = Schema("S", Graph(("A", "B"), (Arrow("f", "A", "B"), Arrow("g", "A", "B"))))
    rows = {"A": ("a1", "a2", "a3"), "B": ("b1",)}
    for columns, message in (
        (
            {"f": {"a1": "b1", "a2": "b1"}, "g": {"a1": "b1", "a3": "b1"}},
            "row 'a3' has no value for column 'f'",
        ),
        (
            {"f": {"a1": "b1"}, "g": {"a1": "b1", "a2": "b1"}},
            "row 'a2' has no value for column 'f'",
        ),
    ):
        with pytest.raises(StructuralError) as err:
            Instance(schema, rows, columns)
        assert str(err.value) == message


def test_duplicate_row_is_positioned_at_the_second_occurrence():
    text = """schema S { nodes A; }
instance I on S {
  table A {
    a
    b
    a
  }
}
"""
    with pytest.raises(ParseError) as err:
        dsl.parse_document(text)
    assert "duplicate row 'a' in table 'A'" in str(err.value)
    assert (err.value.line, err.value.column) == (6, 5)


def test_syntax_error_carries_position_and_expected_set():
    with pytest.raises(ParseError) as err:
        dsl.parse_document("schema S { nodes A B; }")
    assert err.value.line == 1
    assert err.value.expected


def test_duplicate_declaration_rejected():
    with pytest.raises(ParseError) as err:
        dsl.parse_document("schema S {}\nschema S {}")
    assert "duplicate" in str(err.value)


def test_forward_reference_rejected():
    with pytest.raises(ParseError) as err:
        dsl.parse_document("instance I on S { }\nschema S {}")
    assert "unknown schema" in str(err.value)


def test_reserved_word_needs_quoting():
    with pytest.raises(ParseError) as err:
        dsl.parse_document("schema table {}")
    assert "reserved" in str(err.value)
    doc = dsl.parse_document('schema "table" {}')
    assert doc.declarations[0].name == "table"


def test_quoted_ids_with_dots_and_spaces_round_trip():
    text = (
        'schema S { nodes A; }\n'
        'instance I on S { table A { "T1-001.Salary" "with space" "say \\"hi\\"" } }\n'
    )
    doc = dsl.parse_document(text)
    instance = doc.instance("I")
    assert instance.row_set("A") == ("T1-001.Salary", "with space", 'say "hi"')
    assert dsl.parse_document(dsl.print_document(doc)) == doc


def test_print_is_canonical_and_idempotent():
    for name in ("employee.cat", "two_facts.cat", "times50.cat", "satisfaction.cat"):
        docs, _ = load_documents(*(
            ["table_t.cat", name] if name == "equivalence.cat" else [name]
        ))
        doc = docs[name]
        once = dsl.print_document(doc)
        assert dsl.print_document(dsl.parse_document(once)) == once


FILTERING_DECLARATIONS = [
    ("schema", "Payroll"),
    ("instance", "Roster"),
    ("morphism", "below100"),
    ("typedinstance", "TypedStaff"),
    ("translation", "AttachSalary"),
]


@pytest.mark.parametrize(
    "kind, name", FILTERING_DECLARATIONS, ids=[kind for kind, _ in FILTERING_DECLARATIONS]
)
def test_each_declaration_kind_is_found_printed_and_read_back(kind, name):
    docs, env = load_documents("filtering.cat")
    doc = docs["filtering.cat"]
    getters = {
        "schema": doc.schema,
        "instance": doc.instance,
        "translation": doc.translation,
        "morphism": doc.morphism,
        "typedinstance": doc.typed,
    }
    value = getters[kind](name)
    assert env[(kind, name)] is value
    for other, get in getters.items():
        if other != kind:
            with pytest.raises(KeyError, match=f"no {other} named {name!r}"):
                get(name)
    # printed alone, the declaration reads back equal, given the ones before it
    index = next(i for i, decl in enumerate(doc.declarations) if decl.name == name)
    decl = doc.declarations[index]
    earlier = dsl.document_env(dsl.Document(doc.declarations[:index]))
    text = dsl.print_document(dsl.Document([decl]))
    assert text.startswith(f"{kind} {name}")
    assert dsl.parse_document(text, earlier).declarations == [decl]

def test_shuffled_tables_reprint_in_schema_order():
    shuffled = """
schema S { nodes A, B; arrows f : A -> B; }
instance I on S {
  table B { b2 b1 }
  table A { a1 -> (f = b2) }
}
"""
    canonical = (
        "schema S {\n"
        "  nodes A, B;\n"
        "  arrows\n"
        "    f : A -> B;\n"
        "}\n"
        "\n"
        "instance I on S {\n"
        "  table A {\n"
        "    a1 -> (f = b2)\n"
        "  }\n"
        "  table B {\n"
        "    b2\n"
        "    b1\n"
        "  }\n"
        "}\n"
    )
    assert dsl.print_document(dsl.parse_document(shuffled)) == canonical


def test_round_trip_all_golden_files(paper_env, golden_paths):
    env: dict = {}
    for name, path in golden_paths.items():
        text = Path(path).read_text(encoding="utf-8")
        doc = dsl.parse_document(text, env)
        assert dsl.parse_document(dsl.print_document(doc), env) == doc
        env.update(dsl.document_env(doc))


def test_round_trip_random_documents():
    rng = random.Random(99)
    for case in range(40):
        schema = rand_acyclic_schema(rng, f"S{case}")
        instance = rand_instance(rng, schema)
        doc = dsl.Document(
            [
                dsl.SchemaDecl(f"S{case}", schema),
                dsl.InstanceDecl(f"I{case}", f"S{case}", instance),
            ]
        )
        printed = dsl.print_document(doc)
        assert dsl.parse_document(printed) == doc


_ident = st.text(
    alphabet="ABCdef123_$-",
    min_size=1,
    max_size=8,
).filter(lambda s: s not in dsl.RESERVED)

_weird = st.text(min_size=0, max_size=8).filter(
    lambda s: "\n" not in s
)


@settings(max_examples=60, deadline=None)
@given(rows=st.lists(st.one_of(_ident, _weird), min_size=0, max_size=6, unique=True))
@example(rows=["\x00"])
def test_round_trip_arbitrary_row_ids(rows):
    from catmigrate.schemas import Graph, Schema

    schema = Schema("S", Graph(("A",), ()))
    instance = Instance(schema, {"A": tuple(rows)}, {})
    doc = dsl.Document([dsl.SchemaDecl("S", schema), dsl.InstanceDecl("I", "S", instance)])
    assert dsl.parse_document(dsl.print_document(doc)) == doc


@pytest.mark.parametrize("name", ["abc\n", "a\nb", "\n"])
def test_a_name_holding_a_newline_is_not_printed(name):
    # a string token cannot span lines, so such a name has no .cat spelling;
    # "abc\n" used to print bare and parse back as "abc"
    from catmigrate.schemas import Graph, Schema

    with pytest.raises(StructuralError, match=re.escape(repr(name))):
        dsl.format_name(name)
    schema = Schema("S", Graph(("A",), ()))
    instance = Instance(schema, {"A": ("ok", name)}, {})
    doc = dsl.Document([dsl.SchemaDecl("S", schema), dsl.InstanceDecl("I", "S", instance)])
    with pytest.raises(StructuralError, match=re.escape(repr(name))):
        dsl.print_document(doc)


# Names the printer must quote or escape, or can print bare, for the
# differential tests below
_AWKWARD = [
    "ok", "r-1", "$v", "_", "table", "id", "on", "nodes", 'say "hi"', "back\\slash",
    'mix\\"', "a->b", "->", "-", "#note", "a # b", "cr\r", "", " ", "a.b", "x = y",
    "(p)", "naïve", "日本語", "Ωmega", "e\u0301",
]


def _awkward_names(rng: random.Random, n: int, newline: float = 0.0) -> list[str]:
    """n distinct awkward names; each holds a newline with the given chance."""
    names: list[str] = []
    while len(names) < n:
        name = rng.choice(_AWKWARD) + rng.choice(["", "", str(rng.randrange(50))])
        if rng.random() < newline:
            cut = rng.randrange(len(name) + 1)
            name = name[:cut] + "\n" + name[cut:]
        if name not in names:
            names.append(name)
    return names


def _awkward_parts(rng: random.Random, newline: float = 0.0):
    """A schema, rows and total columns whose names, vertex, arrow and row
    names included, are drawn from ``_AWKWARD``."""
    from catmigrate.schemas import Arrow, Graph, Schema

    vertices = _awkward_names(rng, rng.randint(1, 4), newline / 4)
    arrow_names = _awkward_names(rng, rng.randint(0, 5), newline / 4)
    arrows = tuple(Arrow(a, rng.choice(vertices), rng.choice(vertices)) for a in arrow_names)
    schema = Schema("S", Graph(tuple(vertices), arrows))
    rows = {v: tuple(_awkward_names(rng, rng.randint(1, 5), newline / 8)) for v in vertices}
    columns = {
        a.name: {r: rng.choice(rows[a.target]) for r in rows[a.source]} for a in arrows
    }
    return schema, rows, columns


def _awkward_instance_decl(rng: random.Random, newline: float = 0.0):
    """An instance declaration on ``_awkward_parts``."""
    schema, rows, columns = _awkward_parts(rng, newline)
    decl_name, schema_name = _awkward_names(rng, 2)
    return dsl.InstanceDecl(decl_name, schema_name, Instance(schema, rows, columns))


def _printed(print_instance, decl):
    try:
        return print_instance(decl)
    except StructuralError as error:
        return type(error), str(error)


def test_printer_matches_the_reference_on_every_golden_instance(paper_env, golden_paths):
    env: dict = {}
    decls = 0
    for path in golden_paths.values():
        doc = dsl.parse_document(Path(path).read_text(encoding="utf-8"), env)
        env.update(dsl.document_env(doc))
        for decl in doc.declarations:
            if isinstance(decl, dsl.InstanceDecl):
                assert dsl._print_instance(decl) == cell_by_cell_print_instance(decl)
                decls += 1
    assert decls >= 10


def test_printer_matches_the_reference_on_awkward_names():
    rng = random.Random(1207)
    for _ in range(300):
        decl = _awkward_instance_decl(rng)
        text = cell_by_cell_print_instance(decl)
        assert dsl._print_instance(decl) == text
        doc = dsl.Document([decl])
        env = {("schema", decl.schema_name): decl.instance.schema}
        assert dsl.parse_document(dsl.print_document(doc), env) == doc


def test_printer_fails_as_the_reference_does():
    # Names holding a newline (in a row id, a column value or an arrow name,
    # often several in one instance): the same error, so the first name that
    # cannot be printed is the one reported.  A missing cell is refused when
    # the instance is built, naming the cell, so it never reaches a printer
    rng = random.Random(3301)
    raised = {"holds a newline": 0, "has no value": 0}
    for case in range(600):
        if case % 4 == 0:
            schema, rows, columns = _awkward_parts(rng, newline=0.3)
            if schema.arrows:
                arrow = rng.choice(schema.arrows)
                row = rng.choice(rows[arrow.source])
                del columns[arrow.name][row]
                with pytest.raises(StructuralError) as err:
                    Instance(schema, rows, columns)
                assert str(err.value) == MissingCell(arrow.name, row).describe()
                raised["has no value"] += 1
            continue
        decl = _awkward_instance_decl(rng, newline=0.3)
        want = _printed(cell_by_cell_print_instance, decl)
        assert _printed(dsl._print_instance, decl) == want, case
        if isinstance(want, tuple):
            assert want[0] is StructuralError and "holds a newline" in want[1], want
            raised["holds a newline"] += 1
    assert min(raised.values()) >= 30, raised


def test_parse_never_raises_unpositioned_errors():
    rng = random.Random(5)
    base = (GOLDEN_DIR / "employee.cat").read_text(encoding="utf-8")
    for _ in range(60):
        i = rng.randrange(len(base))
        j = min(len(base), i + rng.randrange(1, 12))
        mangled = base[:i] + base[j:]
        try:
            dsl.parse_document(mangled)
        except ParseError as err:
            assert err.line > 0 and err.column > 0


# -- the lexer against its character-by-character reference -------------------


def _lexed(text: str):
    """``dsl._lex``'s tokens as (kind, text, line, column), or its error.
    Each position counts newlines from the token before, so a long text
    costs no more than its length."""
    try:
        raws = dsl._lex(text)
    except ParseError as err:
        return ("error", err.message, err.line, err.column)
    offsets = dsl._token_offsets(text)
    assert len(offsets) == len(raws)
    lexed, line, line_start, before = [], 1, 0, 0
    for raw, at in zip(raws, offsets):
        newlines = text.count("\n", before, at)
        if newlines:
            line += newlines
            line_start = text.rindex("\n", before, at) + 1
        lexed.append((*dsl._describe(raw), line, at - line_start + 1))
        before = at
    return lexed


def _lexed_by_oracle(text: str):
    try:
        return [(t.kind, t.text, t.line, t.col) for t in _tokenize(text)]
    except ParseError as err:
        return ("error", err.message, err.line, err.column)


# Blanks to str.split() but stray characters to the lexer, and NUL, a stray
# character outside a string and a name character inside one.
_SPLIT_BLANKS = "\x0b\x0c\x1c\x85\xa0\u2028\u3000"
_MUTATION_CHARS = '{}():;,.=->"\\#' + " \t\r\nabzAZ09_$@" + _SPLIT_BLANKS + "\x00"


def _mutate(rng: random.Random, text: str) -> str:
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(len(text) + 1)
        edit = rng.choice(("insert", "delete", "replace"))
        if edit == "insert":
            text = text[:i] + rng.choice(_MUTATION_CHARS) + text[i:]
        elif edit == "delete":
            text = text[:i] + text[i + 1 :]
        else:
            text = text[:i] + rng.choice(_MUTATION_CHARS) + text[i + 1 :]
    return text


def test_lexer_matches_the_reference_on_every_golden_file():
    for name in ALL_GOLDEN_FILES:
        text = (GOLDEN_DIR / name).read_text(encoding="utf-8")
        assert _lexed(text) == _lexed_by_oracle(text), name


# the golden files quote few names, so escapes get a base text of their own
_QUOTED = 'instance I on S { table A { "a b" -> (f = "c\\"d") "e\\\\f" } }  # "x"\n'
# quoted Skolem ids among bare names, as printed sigma output has them
_SKOLEM = (
    "instance Out on D {\n  table T {\n"
    '    "T1-001.Salary" -> (SSN = s1, Salary = "T1-001.Salary")\n'
    '    T2-001 -> (SSN = "T2-001.SSN", Salary = p0)\n  }\n'
    '  table SSN {\n    s1\n    "T2-001.SSN"\n  }\n'
    '  table Salary {\n    p0\n    "T1-001.Salary"\n  }\n}\n'
)


def test_lexer_matches_the_reference_on_mutated_golden_files():
    rng = random.Random(7)
    outcomes = set()
    bases = {name: (GOLDEN_DIR / name).read_text(encoding="utf-8") for name in ALL_GOLDEN_FILES}
    bases["quoted"] = _QUOTED
    bases["skolem"] = _SKOLEM
    for name, base in bases.items():
        for _ in range(150):
            text = _mutate(rng, base)
            expected = _lexed_by_oracle(text)
            assert _lexed(text) == expected, (name, text)
            outcomes.add(expected[1] if expected[0] == "error" else "tokens")
    # the mutations reach every lexer diagnostic, not just clean token streams
    assert {"tokens", "unterminated string", "bad escape in string"} <= outcomes
    assert any(o.startswith("unexpected character") for o in outcomes)


@pytest.mark.parametrize(
    "text",
    [
        "a-->b",
        "x-",
        "-",
        "->",
        "x->y",
        '"a\\\\b\\"c"',
        '"\\q"',
        '"ab\\',
        '"abc\ndef"',
        '"abc',
        "a\r\nb",
        "a\tb\t\tc",
        "a @ b",
        "@",
        "",
        "   \n\t ",
        '""',
        "a # comment\nb",
        "a # comment at the end",
        '# "not a string\n"string" # and #nested',
        *(f"a{c}b" for c in _SPLIT_BLANKS + "\x00"),
        *_SPLIT_BLANKS,
        "\x00",
        '"a\x00b"',
        '"\x00" -> x',
        'a\x00"b"',
        '"b" \x00',
        '"a">b',
        '"a"->b',
        '"-">',
        '-"x">',
        "a # c\n>b",
        "a-# c\n>b",
        "a-# c>",
        "a\ud800b",
    ],
)
def test_lexer_edge_cases_match_the_reference(text):
    assert _lexed(text) == _lexed_by_oracle(text)


def test_arrow_ends_an_identifier():
    assert dsl._lex("a-->b") == ["a-", "->", "b", ""]
    assert dsl._lex("x- - ->") == ["x-", "-", "->", ""]


def test_lexer_holds_each_distinct_token_once():
    # A text of several blocks, its strings, escapes and comments on every
    # line, gives one object per distinct token, and the tokens of the
    # character-by-character reference, each where it stands, so the token
    # offsets hold across block boundaries
    lines = [
        f'  r{i % 700} -> (f = "s {i % 300}", g = "e\\"{i % 50}\\\\", h = x{i % 900}) # c{i}\n'
        for i in range(4000)
    ]
    text = "instance I on S {\n  table A {\n" + "".join(lines) + "  }\n}\n"
    assert len(text) > 3 * 65536
    tokens = dsl._lex(text)
    assert len({id(token) for token in tokens}) == len(set(tokens))
    assert _lexed(text) == _lexed_by_oracle(text)
    # a stray character in the last block is reported where it stands
    at = text.rindex("r7 ")
    stray = text[:at] + "@" + text[at:]
    assert _lexed(stray) == _lexed_by_oracle(stray)


@pytest.mark.parametrize("read", ["slices", "tokens"])
def test_quoted_and_bare_names_parse_to_one_object(monkeypatch, read):
    # A name spelled bare in one place and quoted in another is one object,
    # across instances, whether a body is read as slices or a token at a time
    if read == "tokens":
        monkeypatch.setattr(dsl._Parser, "table_slices", lambda self, *args: False)
    text = (
        "schema S { nodes A, B; arrows f : A -> B; }\n"
        'instance I on S { table A { a1 -> (f = "b1") "a2" -> ("f" = b1) } table B { b1 } }\n'
        'instance J on S { table A { a2 -> (f = b1) } table B { "b1" } }\n'
    )
    doc = dsl.parse_document(text)
    I, J = doc.instance("I"), doc.instance("J")
    b1 = [*I.columns["f"].values(), I.rows["B"][0], J.rows["B"][0], *J.columns["f"].values()]
    a2 = [I.rows["A"][1], *list(I.columns["f"])[1:], J.rows["A"][0], *J.columns["f"]]
    assert b1 == ["b1"] * 5 and a2 == ["a2"] * 4
    assert len(set(map(id, b1))) == 1 and len(set(map(id, a2))) == 1


# -- the slice read against the token loop ----------------------------------


def _bodies_document(rng: random.Random, case: int) -> str:
    """A schema, a base instance with no empty table, a cover of it, and the
    cover as a morphism and as a typed instance, printed; the cover's row ids
    are quoted."""
    schema = rand_acyclic_schema(rng, "S", max_arrows=8)
    rows = {v: tuple(f"r{i}" for i in range(rng.randint(1, 4))) for v in schema.vertices}
    columns = {
        a.name: {r: rng.choice(rows[a.target]) for r in rows[a.source]} for a in schema.arrows
    }
    cover = rand_cover(rng, Instance(schema, rows, columns), tag=f"c{case}-")
    return dsl.print_document(
        dsl.Document(
            [
                dsl.SchemaDecl("S", schema),
                dsl.InstanceDecl("B", "S", cover.target),
                dsl.InstanceDecl("C", "S", cover.source),
                dsl.MorphismDecl("m", "C", "B", cover),
                dsl.TypedInstanceDecl("t", "C", "B", TypedInstance(cover)),
            ]
        )
    )


_ROW = re.compile(r"^( +)(\S+) -> \((.+ = .+)\)$")  # a table row with cells
_COMPONENT = re.compile(r"^( +)(\S+) -> (\S+)$")  # a component block's row
_LEAF = re.compile(r"^( {4})([^ {}]+)$")  # a row of a leaf table
_BODY = re.compile(r"^( +)(table )?\S+ \{$")  # a table or a component block
_RESERVED = sorted(dsl.RESERVED)
_CELL_EDITS = (
    "reorder", "quote", "reserved row", "reserved arrow", "reserved value",
    "missing cell", "extra cell", "repeated cell", "dangling value", "no cells",
)
_EDITS = _CELL_EDITS + (
    "duplicate", "empty body", "missing brace", "unknown source", "unknown target",
    "map twice", "swapped punctuation", "missing punctuation",
)


def _quote(name: str) -> str:
    return name if name.startswith('"') else f'"{name}"'


def _edit_cells(m: re.Match, rng: random.Random, edit: str) -> str:
    indent, row, cells = m.group(1), m.group(2), m.group(3).split(", ")
    i = rng.randrange(len(cells))
    arrow, value = cells[i].split(" = ")
    if edit == "reorder":
        cells.insert(0, cells.pop(i or len(cells) - 1))
    elif edit == "quote":
        cells[i] = f"{_quote(arrow)} = {_quote(value)}"
        row = _quote(row)
    elif edit == "reserved row":
        row = rng.choice(_RESERVED)
    elif edit == "reserved arrow":
        cells[i] = f"{rng.choice(_RESERVED)} = {value}"
    elif edit == "reserved value":
        cells[i] = f"{arrow} = {rng.choice(_RESERVED)}"
    elif edit == "missing cell":
        del cells[i]
    elif edit == "extra cell":
        cells.insert(i, "zz = r0")
    elif edit == "repeated cell" and len(cells) > 1 and rng.random() < 0.5:
        j = (i + 1) % len(cells)  # the row keeps its length: cell j loses its column
        cells[j] = f"{arrow} = {cells[j].split(' = ')[1]}"
    elif edit == "repeated cell":
        cells.insert(i, cells[i])
    elif edit == "dangling value":
        cells[i] = f"{arrow} = nowhere"
    else:  # no cells
        cells = []
    return f"{indent}{row} -> ({', '.join(cells)})"


def _edit_line(rng: random.Random, edit: str, lines: list[str], i: int) -> bool:
    """Apply ``edit`` at line ``i`` if that line admits it."""
    line = lines[i]
    row, component, leaf = _ROW.match(line), _COMPONENT.match(line), _LEAF.match(line)
    reserved = rng.choice(_RESERVED)
    if row and edit in _CELL_EDITS and (edit != "reorder" or ", " in row.group(3)):
        lines[i] = _edit_cells(row, rng, edit)
    elif component and edit in ("quote", "reserved row", "reserved value", "unknown source",
                                "unknown target", "map twice"):
        indent, source, target = component.groups()
        lines[i] = indent + {
            "quote": f"{_quote(source)} -> {_quote(target)}",
            "reserved row": f"{reserved} -> {target}",
            "reserved value": f"{source} -> {reserved}",
            "unknown source": f"ghost -> {target}",
            "unknown target": f"{source} -> ghost",
            "map twice": f"{source} -> {target}\n{indent}{source} -> {source}",
        }[edit]
    elif leaf and edit in ("quote", "reserved row", "no cells"):
        indent, name = leaf.groups()
        lines[i] = indent + {
            "quote": _quote(name), "reserved row": reserved, "no cells": f"{name} -> ()"
        }[edit]
    elif (edit == "swapped punctuation" and row) or (edit == "missing punctuation" and component):
        # a table row's punctuation token becomes another, so the row keeps
        # its length; a component row's goes
        old = rng.choice([p for p in ("->", "(", "=", ",", ")") if p in line])
        at = rng.choice([at for at in range(len(line)) if line.startswith(old, at)])
        new = rng.choice([p for p in ("->", "(", "=", ",", ")", ":") if p != old]) if row else ""
        lines[i] = line[:at] + new + line[at + len(old) :]
    elif edit == "duplicate" and (row or component or leaf):
        lines.insert(i + rng.randint(0, 1), line)
    elif edit == "empty body" and (body := _BODY.match(line)) and "components" not in line:
        end = lines.index(body.group(1) + "}", i)
        del lines[i + 1 : end]
    elif edit == "missing brace" and line.strip() == "}" and line != "}":
        del lines[i]
    else:
        return False
    return True


def _mutate_body(rng: random.Random, text: str) -> tuple[str, str]:
    """``text`` with one edit to a table body or a component block, and the
    edit ("" if no line of ``text`` admits one)."""
    lines = text.split("\n")
    for edit in rng.sample(_EDITS, len(_EDITS)):
        for i in rng.sample(range(len(lines)), len(lines)):
            if _edit_line(rng, edit, lines, i):
                return "\n".join(lines), edit
    return text, ""


def _outcome(text: str):
    try:
        return dsl.parse_document(text)
    except ParseError as err:
        return ("error", err.message, err.line, err.column)


def test_slice_read_matches_the_token_loop_on_mutated_bodies(monkeypatch):
    # Each text parses to the same document, or fails with the same message,
    # line and column, whether or not the slice read may take its bodies.
    rng = random.Random(4242)
    texts = []
    edits = []
    for case in range(400):
        text = _bodies_document(rng, case)
        texts.append(text)
        for _ in range(rng.randint(1, 2)):
            text, edit = _mutate_body(rng, text)
            texts.append(text)
            edits.append(edit)
    read: dict[str, list[bool]] = {"table_slices": [], "component_slices": []}
    for method, results in read.items():
        original = getattr(dsl._Parser, method)

        def counted(self, *args, original=original, results=results):
            results.append(original(self, *args))
            return results[-1]

        monkeypatch.setattr(dsl._Parser, method, counted)
    by_slices = [_outcome(text) for text in texts]
    for method in read:
        monkeypatch.setattr(dsl._Parser, method, lambda self, *args: False)
    by_tokens = [_outcome(text) for text in texts]
    for text, got, want in zip(texts, by_slices, by_tokens):
        assert got == want, text
    # both readers took part, and the mutations reached many diagnostics
    for results in read.values():
        assert sum(results) >= 100 and results.count(False) >= 20
    errors = {re.sub("'[^']*'", "_", o[1]) for o in by_tokens if isinstance(o, tuple)}
    assert len(errors) >= 12, errors
    assert min(map(edits.count, _EDITS)) >= 5
    assert sum(isinstance(o, dsl.Document) for o in by_tokens) >= len(texts) // 3


_SHARED_ROWS = """
schema S { nodes A, B; arrows f : A -> B; h : A -> B; g : B -> B; }
instance I on S {
  table A { a1 -> (f = b1, h = b2) a2 -> (f = b2, h = b2) }
  table B { b1 -> (g = b2) b2 -> (g = b2) }
}
instance J on S {
  table A { x1 -> (f = y1, h = y1) }
  table B { y1 -> (g = y1) }
}
morphism m : I -> J { A { a1 -> x1 a2 -> x1 } B { b1 -> y1 b2 -> y1 } }
typedinstance T {
  instance I;
  typing J;
  components { A { a1 -> x1 a2 -> x1 } B { b1 -> y1 b2 -> y1 } }
}
"""


@pytest.mark.parametrize("read", ["slices", "tokens"])
def test_parsed_cells_and_components_are_their_tables_row_objects(monkeypatch, read):
    # Each row id is held once: a column value is its target table's row,
    # and a component's key and value are its source's and target's rows,
    # whether a body is read as slices or a token at a time.
    if read == "tokens":
        for method in ("table_slices", "component_slices"):
            monkeypatch.setattr(dsl._Parser, method, lambda self, *args: False)
    doc = dsl.parse_document(_SHARED_ROWS)

    def row_objects(instance, vertex):
        return {row: row for row in instance.rows[vertex]}

    for instance in (doc.instance("I"), doc.instance("J")):
        for arrow in instance.schema.arrows:
            sources = row_objects(instance, arrow.source)
            targets = row_objects(instance, arrow.target)
            for key, value in instance.columns[arrow.name].items():
                assert key is sources[key] and value is targets[value], (arrow.name, key)
    for morphism in (doc.morphism("m"), doc.typed("T").typing):
        for v, component in morphism.components.items():
            sources = row_objects(morphism.source, v)
            targets = row_objects(morphism.target, v)
            assert len(component) == len(sources)
            for key, value in component.items():
                assert key is sources[key] and value is targets[value], (v, key)


# -- diagnostics pinned with their exact text and position -------------------


def _error(text: str) -> ParseError:
    with pytest.raises(ParseError) as err:
        dsl.parse_document(text)
    return err.value


_ONE_TABLE = "schema S { nodes A; arrows f : A -> A; } instance I on S { table A { "


@pytest.mark.parametrize(
    "text, message, line, column",
    [
        (_ONE_TABLE + "a -> (g = a) } }", "table 'A' has no column 'g'", 1, 76),
        (_ONE_TABLE + "a -> (f = a, f = a) } }", "column 'f' assigned twice", 1, 83),
        (
            _ONE_TABLE + "table -> (f = a) } }",
            "'table' is a reserved word; quote it to use it as a row id",
            1,
            70,
        ),
        (_ONE_TABLE + "a -> f = a) } }", "expected '(', found 'f'", 1, 75),
        (_ONE_TABLE + "a -> (f a) } }", "expected '=', found 'a'", 1, 78),
        (_ONE_TABLE + "a -> (f = a } }", "expected ')', found '}'", 1, 82),
        (_ONE_TABLE + "a -> (f = ) } }", "expected a row id", 1, 80),
        (_ONE_TABLE + "a -> (= a) } }", "expected a column name", 1, 76),
        (
            "schema S { nodes A, B; arrows f : A -> B; g : A -> B; }\n"
            "instance I on S { table A { a -> (g = b) } table B { b } }",
            "row 'a' of table 'A' is missing columns: f",
            2,
            29,
        ),
        (
            _ONE_TABLE + "a -> (f = b) } }",
            "column 'f' of row 'a' refers to 'b', which is not a row of table 'A'",
            1,
            80,
        ),
        (
            "schema S { nodes A, B; arrows f : A -> B; }\ninstance I on S {\n"
            "  table A { a1 -> (f = b1)\n    a2 -> (f = b9) a3 -> (f = b8) }\n"
            "  table B { b1 }\n}",
            "column 'f' of row 'a2' refers to 'b9', which is not a row of table 'B'",
            4,
            16,
        ),
        (
            # the first dangling value in text order, though the constructor
            # meets f's before g's
            "schema S { nodes A, B; arrows f : A -> B; g : A -> B; }\ninstance I on S { "
            "table A { a1 -> (g = zz, f = b1) a2 -> (f = yy, g = b1) } table B { b1 } }",
            "column 'g' of row 'a1' refers to 'zz', which is not a row of table 'B'",
            2,
            40,
        ),
    ],
)
def test_instance_row_diagnostics_are_pinned(text, message, line, column):
    err = _error(text)
    assert (err.message, err.line, err.column) == (message, line, column)


@pytest.mark.parametrize(
    "text, message, line, column",
    [
        (
            "schema S { nodes A, B; }\nschema T { nodes X; }\n"
            "translation F : S -> T { nodes A -> X; }",
            "translation does not map vertex 'B'",
            3,
            13,
        ),
        (
            "schema S { nodes A; arrows f : A -> A; }\n"
            "translation F : S -> S { nodes A -> A; }",
            "translation does not map arrow 'f'",
            2,
            13,
        ),
        (
            "schema S { nodes A; }\ninstance I on S { table A { a b } }\n"
            "morphism m : I -> I { A { a -> a } }",
            "no component value for row 'b' at vertex 'A'",
            3,
            10,
        ),
        (
            "schema S { nodes A; }\ninstance I on S { table A { a b } }\n"
            "typedinstance t { instance I; typing I; components { A { b -> a } } }",
            "no component value for row 'a' at vertex 'A'",
            3,
            15,
        ),
    ],
)
def test_unmapped_names_are_reported_at_the_declaration(text, message, line, column):
    # the constructor's error, positioned at the declaration's name
    err = _error(text)
    assert (err.message, err.line, err.column) == (message, line, column)


_TWO_SCHEMAS = (
    "schema S { nodes A, B; arrows f : A -> B; }\nschema T { nodes X, Y; arrows g : X -> Y; }\n"
    "translation F : S -> T { "
)
_ONE_ROW = "schema S { nodes A; }\ninstance I on S { table A { a } }\n"
_APART = (
    "schema S { nodes A; }\nschema T { nodes A; }\ninstance I on S { table A { a } }\n"
    "instance J on T { table A { a } }\n"
)


@pytest.mark.parametrize(
    "text, message, line, column",
    [
        (
            "schema S { nodes A, B; arrows f : A -> B; g : A -> B; equations A : f.g = f; }",
            "arrow 'g' starts at 'A', but the path is at 'B'",
            1,
            71,
        ),
        ("schema S { nodes A, B, A; }", "duplicate vertex 'A'", 1, 24),
        ("schema S { nodes A; arrows f : A -> A;\n  f : A -> A; }", "duplicate arrow 'f'", 2, 3),
        (
            "schema S { nodes A, B; arrows f : A -> B; equations A : f = id; }",
            "equation sides end at different vertices ('B' vs 'A')",
            1,
            61,
        ),
        (
            "schema S { nodes A; }\ninstance I on S { table A { a } table A { b } }",
            "duplicate table 'A'",
            2,
            39,
        ),
        (_TWO_SCHEMAS + "nodes C -> X; }", "schema 'S' has no vertex 'C'", 3, 32),
        (_TWO_SCHEMAS + "nodes A -> Z; }", "schema 'T' has no vertex 'Z'", 3, 37),
        (_TWO_SCHEMAS + "nodes A -> X, A -> Y; }", "vertex 'A' mapped twice", 3, 40),
        (
            _TWO_SCHEMAS + "nodes A -> X, B -> Y; arrows h -> g; }",
            "schema 'S' has no arrow 'h'",
            3,
            55,
        ),
        (
            _TWO_SCHEMAS + "nodes A -> X, B -> Y; arrows f -> g; f -> g; }",
            "arrow 'f' mapped twice",
            3,
            63,
        ),
        (
            _TWO_SCHEMAS + "nodes B -> Y; arrows f -> g; }",
            "arrow 'f' mapped before its source vertex 'A'",
            3,
            47,
        ),
        (
            _TWO_SCHEMAS + "nodes A -> X; arrows f -> g; }",
            "arrow 'f' mapped before its target vertex 'B'",
            3,
            47,
        ),
        (
            _TWO_SCHEMAS + "nodes A -> X, B -> X; arrows f -> g; }",
            "image of arrow 'f' ends at 'Y', expected 'X'",
            3,
            60,
        ),
        (_ONE_ROW + "morphism m : I -> I { B { } }", "schema has no vertex 'B'", 3, 23),
        (
            _ONE_ROW + "morphism m : I -> I { A { a -> a } A { a -> a } }",
            "duplicate component block 'A'",
            3,
            36,
        ),
        (
            _APART + "morphism m : I -> J { }",
            "morphism endpoints live on different schemas",
            5,
            10,
        ),
        (
            _APART + "typedinstance t { instance I; typing J; components { } }",
            "instance and typing instance live on different schemas",
            5,
            38,
        ),
    ],
    ids=[
        "path-wrong-start",
        "duplicate-vertex",
        "duplicate-arrow",
        "equation-ends-apart",
        "duplicate-table",
        "unknown-source-vertex",
        "unknown-target-vertex",
        "vertex-mapped-twice",
        "unknown-source-arrow",
        "arrow-mapped-twice",
        "arrow-before-source-vertex",
        "arrow-before-target-vertex",
        "image-wrong-end",
        "component-unknown-vertex",
        "duplicate-component-block",
        "morphism-schemas-apart",
        "typed-schemas-apart",
    ],
)
def test_declaration_diagnostics_are_pinned(text, message, line, column):
    err = _error(text)
    assert (err.message, err.line, err.column) == (message, line, column)


def test_end_of_input_after_a_trailing_comment_is_reported_at_the_comment():
    # The column does not advance inside a comment, so a file that ends in
    # one without a final newline reports the end of input at its '#'.
    err = _error("schema S { nodes A; # trailing")
    assert str(err) == "line 1, column 21: expected '}', found 'end of input' (expected })"


def test_empty_quoted_name_is_not_reported_as_end_of_input():
    err = _error('schema S { nodes A ""; }')
    assert str(err) == "line 1, column 20: expected ';', found '' (expected ;)"
