"""The .cat text format: parser and canonical pretty-printer.

One document holds named declarations (schemas, instances, translations,
morphisms, typed instances) with no forward references; earlier files on a
command line act as an environment for later ones.  Parsing performs
structural validation (name resolution, endpoints, column totality and
closure) but not semantic validation (equation satisfaction, naturality) —
that is the job of the validate operations.

Identifiers are ``[A-Za-z0-9_$-]+``, but ``->`` ends one (``a-->b`` is
``a-``, ``->``, ``b``); anything else (dots, spaces, reserved words) must be
double-quoted.  A string's only escapes are ``\\\\`` and ``\\"``, and it
does not span lines.  ``#`` starts a line comment.  Any other character
outside a string or a comment, a Unicode blank included, is an error.
Positions are 1-based; a tab is one column.

Bulk data is read with string and list operations that run in C, not a
token at a time.  The lexer cuts strings and comments out with one regex,
spaces out the punctuation of the plain text left and splits it with
``str.split``, a block of lines at a time.  Every token, and every name a
string spells, goes through one dict per parse, so each distinct name is
held once: a cell's value is its row's own object.  A table body or
component block of canonical rows is read as whole columns of list slices.
Any other body goes through a loop over its tokens, which is also the one
place that positions a body's diagnostics; offsets are worked out only when
a diagnostic is raised.
"""
from __future__ import annotations

import re
from collections.abc import Mapping
from operator import attrgetter

from .errors import ParseError, StructuralError
from .instances import Instance, InstanceMorphism
from .migration import Translation
from .schemas import Arrow, Graph, Path, PathEquivalence, Schema, path_target
from .typed import TypedInstance
from .values import Record

RESERVED = {
    "schema",
    "instance",
    "translation",
    "morphism",
    "typedinstance",
    "table",
    "nodes",
    "arrows",
    "equations",
    "on",
    "typing",
    "components",
    "id",
}

_IDENT_RE = re.compile(r"[A-Za-z0-9_$-]+")

# A string (with its quotes and escapes) or a comment: what the lexer cuts
# out of the text before it splits the rest.
_CUT_RE = re.compile(r'("[^"\\\n]*(?:\\[\\"][^"\\\n]*)*"|#[^\n]*)')
# The characters outside strings and comments that are part of a token or
# a blank.  Any other (a '"' there starts a string that is unterminated or
# holds a bad escape), and a '>' not after '-', is a stray.
_TOKEN_CHARS = b"- \t\r\nABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789_${}():;,.=>"
# Patterns that only a fault or an escape reads, so compiled where read.
_STRAY = "[^" + re.escape(_TOKEN_CHARS.decode()) + "]|(?<!-)>"
_GAP = r"[ \t\r\n]*(?:#[^\n]*[ \t\r\n]*)*"  # the blanks and comments before a token
_ESCAPE = r"\\(.)"
# '->' first: no other punctuation holds '-' or '>'.
_PUNCT = ("->", "{", "}", "(", ")", ":", ";", ",", ".", "=")
# Stands for a string in the text that ``str.split`` reads.  NUL is a stray
# character, so the plain text never holds one of its own.
_HOLE = "\x00"
# Raw token texts that are not a bare name: end of input, punctuation, keywords.
_NOT_NAMES = frozenset({""} | set(_PUNCT) | RESERVED)


def _lex(text: str, names: dict[str, str] | None = None) -> list[str]:
    """The raw text of each token; the last, ``""``, is the end of input.

    The text is read a block of whole lines, some 64 KiB, at a time.  No
    token spans a line, so a block holds whole tokens, and only one block's
    tokens are new objects at a time: each goes through ``names``, which
    maps a text to its one object (a new dict when None), so the list holds
    each distinct token once.
    """
    if names is None:
        names = {}
    canonical = names.setdefault
    tokens: list[str] = []
    start, end = 0, len(text)
    while start < end:
        stop = text.find("\n", start + 65536) + 1 or end
        block = _split(text, text[start:stop])
        tokens += map(canonical, block, block)
        start = stop
    tokens.append("")
    return tokens


def _split(text: str, block: str) -> list[str]:
    """The raw tokens of ``block``, whole lines of ``text``.

    Strings and comments are cut out first, by one regex, and only when the
    block holds a '"' or a '#'.  In the plain text left, each string becomes
    a hole, the punctuation is spaced out and ``str.split`` makes the tokens;
    the strings then go back into their holes in order.  So the work done in
    Python is per string, not per token.  Before the split, ``_has_stray``
    looks for a stray character, as ``str.split`` would take some of them
    (``\x0b``, ``\xa0``, ...) for blanks; only then is its place in
    ``text`` found.  No string or comment spans a line, so the blocks before
    this one held no stray, and the first in ``text`` is this block's.
    """
    strings: list[str] = []
    if '"' in block or "#" in block:
        pieces = _CUT_RE.split(block)
        if _has_stray(" ".join(pieces[0::2])):
            _raise_first_stray(text)
        cuts = pieces[1::2]
        if "#" in block:
            strings = [cut for cut in cuts if cut[0] == '"']
            pieces[1::2] = [f" {_HOLE} " if cut[0] == '"' else " " for cut in cuts]
        else:
            strings = cuts
            pieces[1::2] = [f" {_HOLE} "] * len(cuts)
        block = "".join(pieces)
    elif _has_stray(block):
        _raise_first_stray(text)
    for punct in _PUNCT:
        if punct in block:
            block = block.replace(punct, " " + punct + " ")
    tokens = block.split()
    at = -1
    for string in strings:
        at = tokens.index(_HOLE, at + 1)
        tokens[at] = string
    return tokens


def _has_stray(plain: str) -> bool:
    """Whether text outside strings and comments holds a stray character:
    one ``bytes.translate`` that deletes every token character and blank,
    and a count of the '>' outside '->'."""
    return (
        not plain.isascii()
        or bool(plain.encode().translate(None, _TOKEN_CHARS))
        or plain.count(">") != plain.count("->")
    )


def _raise_first_stray(text: str) -> None:
    """Raise the diagnostic for the first place in ``text``, outside strings
    and comments, where no token starts."""
    bounds = [0]
    for cut in _CUT_RE.finditer(text):
        bounds += cut.span()
    bounds.append(len(text))
    for start, end in zip(bounds[0::2], bounds[1::2]):
        stray = re.compile(_STRAY).search(text, start, end)
        if stray:
            _raise_stray(text, stray.start())
    raise AssertionError("the text holds no stray character")


def _raise_stray(text: str, at: int) -> None:
    """Raise the diagnostic for ``text[at]``, where no token starts: a stray
    character, or a string that is unterminated or holds a bad escape.  Such
    a string meets no closing quote first, or the lexer would have cut it
    out."""
    if text[at] != '"':
        raise ParseError(f"unexpected character {text[at]!r}", *_position(text, at))
    i = at + 1
    while i < len(text) and text[i] != "\n":
        if text[i] == "\\":
            if text[i + 1 : i + 2] not in ("\\", '"'):
                raise ParseError("bad escape in string", *_position(text, i))
            i += 2
        else:
            i += 1
    raise ParseError("unterminated string", *_position(text, at))


def _unquote(raw: str) -> str:
    body = raw[1:-1]
    return re.sub(_ESCAPE, r"\1", body) if "\\" in body else body


def _describe(raw: str) -> tuple[str, str]:
    """A token's kind ("ident", "string", "punct" or "eof") and its text."""
    if not raw:
        return "eof", ""
    if raw[0] == '"':
        return "string", _unquote(raw)
    return ("punct" if raw in _PUNCT else "ident"), raw


def _token_offsets(text: str) -> list[int]:
    """The offset of each token of ``_lex(text)``; diagnostics only.  It
    steps over the blanks and comments before each token."""
    offsets = []
    at = 0
    tokens = _lex(text)
    for raw in tokens[:-1]:
        at = re.compile(_GAP).match(text, at).end()
        offsets.append(at)
        at += len(raw)
    # The column does not advance inside a comment, so a comment that runs to
    # the end of the text puts the end of input at its '#'.
    comment = text.find("#", max(at, text.rfind("\n", at) + 1))
    offsets.append(comment if comment >= 0 else len(text))
    return offsets


def _position(text: str, offset: int) -> tuple[int, int]:
    """1-based line and column of an offset; a tab is one column."""
    return text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset)


# ---------------------------------------------------------------------------
# document model
# ---------------------------------------------------------------------------


class SchemaDecl(Record):
    _fields = ("name", "schema")

    def __init__(self, name: str, schema: Schema):
        self.name = name
        self.schema = schema


class InstanceDecl(Record):
    _fields = ("name", "schema_name", "instance")

    def __init__(self, name: str, schema_name: str, instance: Instance):
        self.name = name
        self.schema_name = schema_name
        self.instance = instance


class TranslationDecl(Record):
    _fields = ("name", "source_name", "target_name", "translation")

    def __init__(self, name: str, source_name: str, target_name: str, translation: Translation):
        self.name = name
        self.source_name = source_name
        self.target_name = target_name
        self.translation = translation


class MorphismDecl(Record):
    _fields = ("name", "source_name", "target_name", "morphism")

    def __init__(self, name: str, source_name: str, target_name: str, morphism: InstanceMorphism):
        self.name = name
        self.source_name = source_name
        self.target_name = target_name
        self.morphism = morphism


class TypedInstanceDecl(Record):
    _fields = ("name", "instance_name", "typing_name", "typed")

    def __init__(self, name: str, instance_name: str, typing_name: str, typed: TypedInstance):
        self.name = name
        self.instance_name = instance_name
        self.typing_name = typing_name
        self.typed = typed


Declaration = SchemaDecl | InstanceDecl | TranslationDecl | MorphismDecl | TypedInstanceDecl


class Document(Record):
    _fields = ("declarations",)

    def __init__(self, declarations: list[Declaration] | None = None):
        self.declarations = [] if declarations is None else declarations

    def schema(self, name: str) -> Schema:
        return self._get("schema", name)

    def instance(self, name: str) -> Instance:
        return self._get("instance", name)

    def translation(self, name: str) -> Translation:
        return self._get("translation", name)

    def morphism(self, name: str) -> InstanceMorphism:
        return self._get("morphism", name)

    def typed(self, name: str) -> TypedInstance:
        return self._get("typedinstance", name)

    def _get(self, kind: str, name: str):
        for decl in self.declarations:
            decl_kind, value, *_ = _DECLARATIONS[type(decl)]
            if decl.name == name and decl_kind == kind:
                return value(decl)
        raise KeyError(f"no {kind} named {name!r}")


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


class _Parser:
    """Recursive descent over the raw token texts of ``_lex``.

    A token is referred to by its index in ``tokens``; only ``fail`` turns an
    index into a line and column.  A table body or component block is first
    offered to its slice read (``table_slices``, ``component_slices``), which
    takes a body of canonical rows whole or refuses it having read nothing;
    the token loop reads a refused body and reports its first fault.
    """

    def __init__(self, text: str, env: dict[tuple[str, str], object]):
        self.text = text
        self.canonical: dict[str, str] = {}  # text -> its one object, for tokens and names
        self.tokens = _lex(text, self.canonical)
        self.pos = 0
        self.names: dict[tuple[str, str], object] = dict(env)

    # -- token plumbing -----------------------------------------------------

    def peek(self) -> str:
        return self.tokens[self.pos]

    def fail(self, message: str, at: int | None = None, expected: tuple[str, ...] = ()):
        offset = _token_offsets(self.text)[self.pos if at is None else at]
        raise ParseError(message, *_position(self.text, offset), expected)

    def fail_expected(self, text: str, at: int):
        kind, found = _describe(self.tokens[at])
        found = "end of input" if kind == "eof" else found
        self.fail(f"expected {text!r}, found {found!r}", at, (text,))

    def fail_name(self, what: str, at: int):
        raw = self.tokens[at]
        if raw in RESERVED:
            self.fail(f"{raw!r} is a reserved word; quote it to use it as {what}", at)
        self.fail(f"expected {what}", at, (what,))

    def expect_punct(self, text: str) -> None:
        if self.tokens[self.pos] != text:
            self.fail_expected(text, self.pos)
        self.pos += 1

    def accept(self, text: str) -> bool:
        """Step over the next token if it is the punctuation or bare keyword
        ``text``; a quoted string never is, as its raw text keeps the quotes."""
        if self.tokens[self.pos] == text:
            self.pos += 1
            return True
        return False

    def expect_keyword(self, word: str) -> None:
        if self.tokens[self.pos] != word:
            self.fail(f"expected keyword {word!r}", expected=(word,))
        self.pos += 1

    def name(self, what: str) -> tuple[str, int]:
        """A user name, a bare identifier (reserved words excluded) or a
        string, and its token index."""
        at = self.pos
        raw = self.tokens[at]
        if raw in _NOT_NAMES:
            self.fail_name(what, at)
        self.pos = at + 1
        return self.spelled(raw), at

    def spelled(self, raw: str) -> str:
        """The name a name token spells, as the one object held for it."""
        if raw[0] != '"':
            return raw
        name = _unquote(raw)
        return self.canonical.setdefault(name, name)

    def names_of(self, raws: list[str]) -> list[str] | None:
        """The names that raw tokens spell, or None if one is not a name."""
        if not _NOT_NAMES.isdisjoint(raws):
            return None
        joined = "\n".join(raws)
        if '"' not in joined:
            return raws
        if "\\" not in joined:
            # Without escapes every '"' is a string's delimiter, and no token
            # holds a newline.
            names = joined.replace('"', "").split("\n")
            return list(map(self.canonical.setdefault, names, names))
        return list(map(self.spelled, raws))

    # -- shared pieces --------------------------------------------------------

    def lookup(self, kind: str, name: str, at: int):
        value = self.names.get((kind, name))
        if value is None:
            self.fail(f"unknown {kind} {name!r}", at)
        return value

    def declare(self, kind: str, name: str, value, at: int):
        if (kind, name) in self.names:
            self.fail(f"duplicate {kind} name {name!r}", at)
        self.names[(kind, name)] = value

    def path_arrows(self) -> list[tuple[str, int]]:
        """A dotted arrow list, or the single keyword ``id`` for a trivial path."""
        if self.accept("id"):
            return []
        arrows = [self.name("an arrow name")]
        while self.accept("."):
            arrows.append(self.name("an arrow name"))
        return arrows

    def resolve_path(self, graph: Graph, source: str, arrows: list[tuple[str, int]]) -> Path:
        at = source
        names = []
        for name, name_at in arrows:
            try:
                arrow = graph.arrow(name)
            except StructuralError:
                self.fail(f"unknown arrow {name!r}", name_at)
            if arrow.source != at:
                self.fail(
                    f"arrow {name!r} starts at {arrow.source!r}, "
                    f"but the path is at {at!r}",
                    name_at,
                )
            names.append(name)
            at = arrow.target
        return Path(source, tuple(names))

    # -- declarations ----------------------------------------------------------

    def document(self) -> Document:
        decls: list[Declaration] = []
        while self.peek():
            for kind, _, _, read in _DECLARATIONS.values():
                if kind == self.peek():
                    decls.append(read(self))
                    break
            else:
                kind, text = _describe(self.peek())
                message = f"unknown declaration {text!r}" if kind == "ident" else "expected a declaration"
                self.fail(message, expected=tuple(row[0] for row in _DECLARATIONS.values()))
        return Document(decls)

    def schema_decl(self) -> SchemaDecl:
        self.expect_keyword("schema")
        name, name_at = self.name("a schema name")
        self.expect_punct("{")

        vertices: list[str] = []
        seen_vertices: set[str] = set()
        if self.accept("nodes"):
            while True:
                v, v_at = self.name("a vertex name")
                if v in seen_vertices:
                    self.fail(f"duplicate vertex {v!r}", v_at)
                seen_vertices.add(v)
                vertices.append(v)
                if self.accept(","):
                    continue
                self.expect_punct(";")
                break

        arrows: list[Arrow] = []
        seen_arrows: set[str] = set()
        if self.accept("arrows"):
            while True:
                a, a_at = self.name("an arrow name")
                if a in seen_arrows:
                    self.fail(f"duplicate arrow {a!r}", a_at)
                seen_arrows.add(a)
                self.expect_punct(":")
                src, src_at = self.name("a vertex name")
                if src not in seen_vertices:
                    self.fail(f"unknown vertex {src!r}", src_at)
                self.expect_punct("->")
                tgt, tgt_at = self.name("a vertex name")
                if tgt not in seen_vertices:
                    self.fail(f"unknown vertex {tgt!r}", tgt_at)
                self.expect_punct(";")
                arrows.append(Arrow(a, src, tgt))
                if self.peek() in ("equations", "}"):
                    break

        graph = Graph(tuple(vertices), tuple(arrows))

        equivalences: list[PathEquivalence] = []
        if self.accept("equations"):
            while True:
                src, src_at = self.name("a vertex name")
                if src not in seen_vertices:
                    self.fail(f"unknown vertex {src!r}", src_at)
                self.expect_punct(":")
                lhs = self.resolve_path(graph, src, self.path_arrows())
                self.expect_punct("=")
                rhs_at = self.pos
                rhs = self.resolve_path(graph, src, self.path_arrows())
                if path_target(graph, lhs) != path_target(graph, rhs):
                    self.fail(
                        f"equation sides end at different vertices "
                        f"({path_target(graph, lhs)!r} vs {path_target(graph, rhs)!r})",
                        rhs_at,
                    )
                equivalences.append(PathEquivalence(lhs, rhs))
                self.expect_punct(";")
                if self.peek() == "}":
                    break

        self.expect_punct("}")
        schema = Schema(name, graph, tuple(equivalences))
        self.declare("schema", name, schema, name_at)
        return SchemaDecl(name, schema)

    def instance_decl(self) -> InstanceDecl:
        self.expect_keyword("instance")
        name, name_at = self.name("an instance name")
        self.expect_keyword("on")
        schema_name, schema_at = self.name("a schema name")
        schema: Schema = self.lookup("schema", schema_name, schema_at)
        graph = schema.graph
        self.expect_punct("{")
        body = self.pos

        # Each table is an ordered dict of its row ids, each mapped to itself.
        tables: dict[str, dict[str, str]] = {v: {} for v in schema.vertices}
        columns: dict[str, dict[str, str]] = {a.name: {} for a in schema.arrows}
        seen_tables: set[str] = set()
        while self.accept("table"):
            vertex, vertex_at = self.name("a vertex name")
            if not graph.has_vertex(vertex):
                self.fail(f"schema {schema_name!r} has no vertex {vertex!r}", vertex_at)
            if vertex in seen_tables:
                self.fail(f"duplicate table {vertex!r}", vertex_at)
            seen_tables.add(vertex)
            self.expect_punct("{")
            out_columns = {a.name: columns[a.name] for a in graph.out_arrows(vertex)}
            if not self.table_slices(tables[vertex], out_columns):
                self.table_rows(vertex, tables[vertex], out_columns)
            self.expect_punct("}")

        self.expect_punct("}")
        try:
            instance = Instance(schema, {v: tuple(rows) for v, rows in tables.items()}, columns)
        except StructuralError:  # every row has its cells, so a value dangles
            self.fail_dangling(graph, tables, body)
            raise
        self.declare("instance", name, instance, name_at)
        return InstanceDecl(name, schema_name, instance)

    def braced_body(self) -> list[str]:
        """The tokens from the next one up to the next '}', none if no '}'
        follows."""
        try:
            return self.tokens[self.pos : self.tokens.index("}", self.pos)]
        except ValueError:
            return []

    def table_slices(
        self, table: dict[str, str], out_columns: dict[str, dict[str, str]]
    ) -> bool:
        """Read a table body of canonical rows into ``table`` and
        ``out_columns`` a column at a time; return False, having read
        nothing, for any other body.

        With w columns a canonical row is the 3 + 4w tokens
        ``row -> (a = v, ..., a = v)``, its cells in the order of the first
        row's; in a leaf table it is the row id alone.  So each slot of the
        row is one slice of the body, checked by one list comparison: every
        row id, every arrow token, every value and every separator.
        """
        body = self.braced_body()
        width = len(out_columns)
        span = 3 + 4 * width if width else 1
        n, rest = divmod(len(body), span)
        if rest or not n:
            return False
        rows = self.names_of(body[0::span])
        if rows is None or len(set(rows)) != n:
            return False
        if width and (body[1::span] != ["->"] * n or body[2::span] != ["("] * n):
            return False
        cells: dict[str, list[str]] = {}
        for k in range(width):
            arrows = self.names_of(body[3 + 4 * k :: span])
            values = self.names_of(body[5 + 4 * k :: span])
            separator = ")" if k == width - 1 else ","
            if (
                arrows is None
                or values is None
                or arrows != arrows[:1] * n
                or body[4 + 4 * k :: span] != ["="] * n
                or body[6 + 4 * k :: span] != [separator] * n
            ):
                return False
            cells[arrows[0]] = values
        if cells.keys() != out_columns.keys():  # a column missing, repeated or unknown
            return False
        table.update(zip(rows, rows))
        for arrow, values in cells.items():
            out_columns[arrow].update(zip(rows, values))
        self.pos += len(body)
        return True

    def table_rows(
        self, vertex: str, table: dict[str, str], out_columns: dict[str, dict[str, str]]
    ) -> None:
        """Read rows ``row`` or ``row -> (arrow = value, ...)`` up to the
        table's closing brace into ``table`` and ``out_columns``.

        One loop over the token list, a token at a time: the general path,
        for any body ``table_slices`` refuses, and the one that positions
        every diagnostic of a table body.  Where a token is not what the
        grammar wants, it hands the index to the ``fail_*`` method that
        ``name`` or ``expect_punct`` would have raised from.
        """
        tokens = self.tokens
        width = len(out_columns)
        i = self.pos
        while tokens[i] != "}":
            raw = tokens[i]
            if raw in _NOT_NAMES:
                self.fail_name("a row id", i)
            row = self.spelled(raw)
            if row in table:
                self.fail(f"duplicate row {row!r} in table {vertex!r}", i)
            table[row] = row
            row_at = i
            i += 1
            filled = 0
            if tokens[i] == "->":
                i += 1
                if tokens[i] != "(":
                    self.fail_expected("(", i)
                while True:
                    i += 1
                    raw = tokens[i]
                    if raw in _NOT_NAMES:
                        self.fail_name("a column name", i)
                    arrow = self.spelled(raw)
                    column = out_columns.get(arrow)
                    if column is None:
                        self.fail(f"table {vertex!r} has no column {arrow!r}", i)
                    if row in column:
                        self.fail(f"column {arrow!r} assigned twice", i)
                    i += 1
                    if tokens[i] != "=":
                        self.fail_expected("=", i)
                    i += 1
                    raw = tokens[i]
                    if raw in _NOT_NAMES:
                        self.fail_name("a row id", i)
                    column[row] = self.spelled(raw)
                    filled += 1
                    i += 1
                    if tokens[i] != ",":
                        break
                if tokens[i] != ")":
                    self.fail_expected(")", i)
                i += 1
            if filled != width:
                missing = sorted(a for a, column in out_columns.items() if row not in column)
                self.fail(
                    f"row {row!r} of table {vertex!r} is missing columns: " + ", ".join(missing),
                    row_at,
                )
        self.pos = i

    def fail_dangling(self, graph: Graph, tables: dict[str, dict[str, str]], body: int):
        """Raise for the first cell, in text order, of the instance body that
        starts at token ``body`` whose value is not a row of the arrow's
        target table."""
        tokens = self.tokens
        for i in range(body, self.pos):
            if tokens[i] != "=":  # in an instance body, '=' is always a cell's
                continue
            arrow, value = _describe(tokens[i - 1])[1], _describe(tokens[i + 1])[1]
            target = graph.arrow(arrow).target
            if value not in tables[target]:
                row_at = i
                while tokens[row_at] != "(":
                    row_at -= 1
                row = _describe(tokens[row_at - 2])[1]
                self.fail(
                    f"column {arrow!r} of row {row!r} refers to {value!r}, "
                    f"which is not a row of table {target!r}",
                    i + 1,
                )

    def translation_decl(self) -> TranslationDecl:
        self.expect_keyword("translation")
        name, name_at = self.name("a translation name")
        self.expect_punct(":")
        source_name, source_at = self.name("a schema name")
        source: Schema = self.lookup("schema", source_name, source_at)
        self.expect_punct("->")
        target_name, target_at = self.name("a schema name")
        target: Schema = self.lookup("schema", target_name, target_at)
        self.expect_punct("{")

        vertex_map: dict[str, str] = {}
        if self.accept("nodes"):
            while True:
                v, v_at = self.name("a source vertex")
                if not source.graph.has_vertex(v):
                    self.fail(f"schema {source_name!r} has no vertex {v!r}", v_at)
                if v in vertex_map:
                    self.fail(f"vertex {v!r} mapped twice", v_at)
                self.expect_punct("->")
                w, w_at = self.name("a target vertex")
                if not target.graph.has_vertex(w):
                    self.fail(f"schema {target_name!r} has no vertex {w!r}", w_at)
                vertex_map[v] = w
                if self.accept(","):
                    continue
                self.expect_punct(";")
                break

        arrow_map: dict[str, Path] = {}
        if self.accept("arrows"):
            while True:
                a, a_at = self.name("a source arrow")
                try:
                    arrow = source.graph.arrow(a)
                except StructuralError:
                    self.fail(f"schema {source_name!r} has no arrow {a!r}", a_at)
                if a in arrow_map:
                    self.fail(f"arrow {a!r} mapped twice", a_at)
                self.expect_punct("->")
                path_at = self.pos
                expected_source = vertex_map.get(arrow.source)
                if expected_source is None:
                    self.fail(
                        f"arrow {a!r} mapped before its source vertex {arrow.source!r}",
                        a_at,
                    )
                image = self.resolve_path(target.graph, expected_source, self.path_arrows())
                actual_target = path_target(target.graph, image)
                expected_target = vertex_map.get(arrow.target)
                if expected_target is None:
                    self.fail(
                        f"arrow {a!r} mapped before its target vertex {arrow.target!r}",
                        a_at,
                    )
                if actual_target != expected_target:
                    self.fail(
                        f"image of arrow {a!r} ends at {actual_target!r}, "
                        f"expected {expected_target!r}",
                        path_at,
                    )
                arrow_map[a] = image
                self.expect_punct(";")
                if self.peek() == "}":
                    break

        self.expect_punct("}")

        try:
            translation = Translation(source, target, vertex_map, arrow_map)
        except StructuralError as exc:  # every mapping was checked, so one is missing
            self.fail(str(exc), name_at)
        self.declare("translation", name, translation, name_at)
        return TranslationDecl(name, source_name, target_name, translation)

    def component_blocks(self, source: Instance, target: Instance, owner: int) -> InstanceMorphism:
        """Read the component blocks of a morphism from ``source`` to
        ``target``; a row left unmapped is reported at token ``owner``.

        Each row and value is checked against, and then pointed at, the row
        object of its instance's table, through a row -> row map of that
        table, so that a component holds no row id of its own."""
        schema = source.schema
        components: dict[str, dict[str, str]] = {v: {} for v in schema.vertices}
        seen_blocks: set[str] = set()
        while self.peek() != "}":
            vertex, vertex_at = self.name("a vertex name")
            if not schema.graph.has_vertex(vertex):
                self.fail(f"schema has no vertex {vertex!r}", vertex_at)
            if vertex in seen_blocks:
                self.fail(f"duplicate component block {vertex!r}", vertex_at)
            seen_blocks.add(vertex)
            source_rows = _row_map(source.rows[vertex])
            target_rows = _row_map(target.rows[vertex])
            self.expect_punct("{")
            component = components[vertex]
            if not self.component_slices(component, source_rows, target_rows):
                self.component_rows(vertex, component, source_rows, target_rows)
            self.expect_punct("}")
        try:
            return InstanceMorphism(source, target, components)
        except StructuralError as exc:  # every value was checked, so a row is unmapped
            self.fail(str(exc), owner)

    def component_rows(
        self,
        vertex: str,
        component: dict[str, str],
        source_rows: Mapping[str, str],
        target_rows: Mapping[str, str],
    ) -> None:
        """Read rows ``row -> value`` up to the block's closing brace into
        ``component``, a token at a time: the general path, for any block
        ``component_slices`` refuses, and the one that positions every
        diagnostic of a component block."""
        while self.peek() != "}":
            row, row_at = self.name("a row id")
            if row not in source_rows:
                self.fail(f"{row!r} is not a row of the source at {vertex!r}", row_at)
            if row in component:
                self.fail(f"row {row!r} mapped twice", row_at)
            self.expect_punct("->")
            value, value_at = self.name("a row id")
            if value not in target_rows:
                self.fail(f"{value!r} is not a row of the target at {vertex!r}", value_at)
            component[source_rows[row]] = target_rows[value]

    def component_slices(
        self,
        component: dict[str, str],
        source_rows: Mapping[str, str],
        target_rows: Mapping[str, str],
    ) -> bool:
        """Read a component block of rows ``row -> value`` into ``component``
        a column at a time, as three slices of its body; return False, having
        read nothing, unless every row is a distinct source row mapped to a
        target row."""
        body = self.braced_body()
        n, rest = divmod(len(body), 3)
        if rest or not n or body[1::3] != ["->"] * n:
            return False
        rows, values = self.names_of(body[0::3]), self.names_of(body[2::3])
        if rows is None or values is None:
            return False
        keys = set(rows)
        if (
            len(keys) != n
            or not source_rows.keys() >= keys
            or not target_rows.keys() >= set(values)
        ):
            return False
        component.update(
            zip(map(source_rows.__getitem__, rows), map(target_rows.__getitem__, values))
        )
        self.pos += len(body)
        return True

    def morphism_decl(self) -> MorphismDecl:
        self.expect_keyword("morphism")
        name, name_at = self.name("a morphism name")
        self.expect_punct(":")
        source_name, source_at = self.name("an instance name")
        source: Instance = self.lookup("instance", source_name, source_at)
        self.expect_punct("->")
        target_name, target_at = self.name("an instance name")
        target: Instance = self.lookup("instance", target_name, target_at)
        if source.schema != target.schema:
            self.fail("morphism endpoints live on different schemas", name_at)
        self.expect_punct("{")
        morphism = self.component_blocks(source, target, name_at)
        self.expect_punct("}")
        self.declare("morphism", name, morphism, name_at)
        return MorphismDecl(name, source_name, target_name, morphism)

    def typedinstance_decl(self) -> TypedInstanceDecl:
        self.expect_keyword("typedinstance")
        name, name_at = self.name("a typed instance name")
        self.expect_punct("{")
        self.expect_keyword("instance")
        instance_name, instance_at = self.name("an instance name")
        instance: Instance = self.lookup("instance", instance_name, instance_at)
        self.expect_punct(";")
        self.expect_keyword("typing")
        typing_name, typing_at = self.name("an instance name")
        typing_instance: Instance = self.lookup("instance", typing_name, typing_at)
        self.expect_punct(";")
        if instance.schema != typing_instance.schema:
            self.fail("instance and typing instance live on different schemas", typing_at)
        self.expect_keyword("components")
        self.expect_punct("{")
        typing = self.component_blocks(instance, typing_instance, name_at)
        self.expect_punct("}")
        self.expect_punct("}")
        typed = TypedInstance(typing)
        self.declare("typedinstance", name, typed, name_at)
        return TypedInstanceDecl(name, instance_name, typing_name, typed)


def _row_map(table: tuple[str, ...]) -> dict[str, str]:
    """Each row of ``table`` mapped to itself: a membership test that also
    hands back the table's own row object."""
    return dict(zip(table, table))


def parse_document(text: str, env: dict[tuple[str, str], object] | None = None) -> Document:
    """Parse one .cat document; ``env`` supplies declarations from earlier files."""
    return _Parser(text, env or {}).document()


def document_env(*documents: Document) -> dict[tuple[str, str], object]:
    env: dict[tuple[str, str], object] = {}
    for doc in documents:
        for decl in doc.declarations:
            kind, value, *_ = _DECLARATIONS[type(decl)]
            env[(kind, decl.name)] = value(decl)
    return env


# ---------------------------------------------------------------------------
# printer
# ---------------------------------------------------------------------------


def format_name(name: str) -> str:
    """``name`` bare if it lexes as one identifier, quoted otherwise.  A string
    cannot span lines, so a name holding a newline has no spelling."""
    if _IDENT_RE.fullmatch(name) and name not in RESERVED:
        return name
    if "\n" in name:
        raise StructuralError(f"name {name!r} holds a newline and cannot be printed")
    return '"' + name.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _format_path(path: Path) -> str:
    if path.is_trivial:
        return "id"
    return ".".join(format_name(a) for a in path.arrows)


def _print_schema(decl: SchemaDecl) -> str:
    schema = decl.schema
    lines = [f"schema {format_name(decl.name)} {{"]
    if schema.vertices:
        lines.append("  nodes " + ", ".join(format_name(v) for v in schema.vertices) + ";")
    if schema.arrows:
        lines.append("  arrows")
        for a in schema.arrows:
            lines.append(
                f"    {format_name(a.name)} : {format_name(a.source)} -> {format_name(a.target)};"
            )
    if schema.equivalences:
        lines.append("  equations")
        for eq in schema.equivalences:
            lines.append(
                f"    {format_name(eq.lhs.source)} : "
                f"{_format_path(eq.lhs)} = {_format_path(eq.rhs)};"
            )
    lines.append("}")
    return "\n".join(lines)


class _Formatted(dict):
    """name -> ``format_name(name)``, each name formatted on its first lookup."""

    def __missing__(self, name: str) -> str:
        text = self[name] = format_name(name)
        return text


def _print_instance(decl: InstanceDecl) -> str:
    """One line per row, its cells a column at a time: each arrow's name is
    formatted once per table and each distinct value once per instance.  A
    name that cannot be printed is reported in the order of a cell-by-cell
    printer: the arrow names and values of a row's cells in turn, then the
    row."""
    instance = decl.instance
    schema = instance.schema
    columns = instance.columns
    formatted = _Formatted()
    lines = [f"instance {format_name(decl.name)} on {format_name(decl.schema_name)} {{"]
    for v in schema.vertices:
        lines.append(f"  table {format_name(v)} {{")
        table = instance.rows[v]
        out_arrows = schema.graph.out_arrows(v)
        if table and out_arrows:
            cells: list[tuple[str, Mapping[str, str]]] = []
            for a in out_arrows:
                try:
                    head = formatted[a.name] + " = "
                except StructuralError:
                    for _, earlier in cells:  # the first row's earlier values come first
                        formatted[earlier[table[0]]]
                    raise
                cells.append((head, columns[a.name]))
            for row in table:
                text = ", ".join([head + formatted[column[row]] for head, column in cells])
                lines.append(f"    {formatted[row]} -> ({text})")
        else:
            lines.extend([f"    {formatted[row]}" for row in table])
        lines.append("  }")
    lines.append("}")
    return "\n".join(lines)


def _print_translation(decl: TranslationDecl) -> str:
    t = decl.translation
    lines = [
        f"translation {format_name(decl.name)} : "
        f"{format_name(decl.source_name)} -> {format_name(decl.target_name)} {{"
    ]
    if t.source.vertices:
        lines.append(
            "  nodes "
            + ", ".join(
                f"{format_name(v)} -> {format_name(t.vertex_image(v))}"
                for v in t.source.vertices
            )
            + ";"
        )
    if t.source.arrows:
        lines.append("  arrows")
        for a in t.source.arrows:
            lines.append(
                f"    {format_name(a.name)} -> {_format_path(t.arrow_image(a.name))};"
            )
    lines.append("}")
    return "\n".join(lines)


def _print_component_blocks(schema: Schema, source: Instance, components, indent: str) -> list[str]:
    lines = []
    for v in schema.vertices:
        lines.append(f"{indent}{format_name(v)} {{")
        for row in source.row_set(v):
            lines.append(
                f"{indent}  {format_name(row)} -> {format_name(components[v][row])}"
            )
        lines.append(f"{indent}}}")
    return lines


def _print_morphism(decl: MorphismDecl) -> str:
    m = decl.morphism
    lines = [
        f"morphism {format_name(decl.name)} : "
        f"{format_name(decl.source_name)} -> {format_name(decl.target_name)} {{"
    ]
    lines.extend(_print_component_blocks(m.source.schema, m.source, m.components, "  "))
    lines.append("}")
    return "\n".join(lines)


def _print_typedinstance(decl: TypedInstanceDecl) -> str:
    t = decl.typed
    lines = [
        f"typedinstance {format_name(decl.name)} {{",
        f"  instance {format_name(decl.instance_name)};",
        f"  typing {format_name(decl.typing_name)};",
        "  components {",
    ]
    lines.extend(
        _print_component_blocks(t.instance.schema, t.instance, t.typing.components, "    ")
    )
    lines.append("  }")
    lines.append("}")
    return "\n".join(lines)


# Each declaration class: its kind, the value it declares, its printer and
# its reader.
_DECLARATIONS = {
    SchemaDecl: ("schema", attrgetter("schema"), _print_schema, _Parser.schema_decl),
    InstanceDecl: ("instance", attrgetter("instance"), _print_instance, _Parser.instance_decl),
    TranslationDecl: (
        "translation", attrgetter("translation"), _print_translation, _Parser.translation_decl
    ),
    MorphismDecl: ("morphism", attrgetter("morphism"), _print_morphism, _Parser.morphism_decl),
    TypedInstanceDecl: (
        "typedinstance", attrgetter("typed"), _print_typedinstance, _Parser.typedinstance_decl
    ),
}


def print_document(doc: Document) -> str:
    """Canonical text: declarations in document order, members in declaration
    order, one row per line.  parse(print(d)) reproduces d exactly."""
    chunks = [_DECLARATIONS[type(decl)][2](decl) for decl in doc.declarations]
    if not chunks:
        return ""
    return "\n\n".join(chunks) + "\n"
