"""The .cat text format: parser and canonical pretty-printer.

One document holds named declarations (schemas, instances, translations,
morphisms, typed instances) with no forward references; earlier files on a
command line act as an environment for later ones.  Parsing performs
structural validation (name resolution, endpoints, column totality) but not
semantic validation (equation satisfaction, naturality) — that is the job of
the validate operations.

Identifiers are ``[A-Za-z0-9_$-]+``; anything else (dots, spaces, reserved
words) must be double-quoted.  ``#`` starts a line comment.
"""
from __future__ import annotations

import re
from dataclasses import dataclass, field

from .errors import ParseError
from .instances import Instance, InstanceMorphism
from .migration import Translation
from .schemas import Arrow, Graph, Path, PathEquivalence, Schema, path_target
from .typed import TypedInstance

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

_IDENT_RE = re.compile(r"^[A-Za-z0-9_$-]+$")
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
# document model
# ---------------------------------------------------------------------------


@dataclass
class SchemaDecl:
    name: str
    schema: Schema


@dataclass
class InstanceDecl:
    name: str
    schema_name: str
    instance: Instance


@dataclass
class TranslationDecl:
    name: str
    source_name: str
    target_name: str
    translation: Translation


@dataclass
class MorphismDecl:
    name: str
    source_name: str
    target_name: str
    morphism: InstanceMorphism


@dataclass
class TypedInstanceDecl:
    name: str
    instance_name: str
    typing_name: str
    typed: TypedInstance


Declaration = SchemaDecl | InstanceDecl | TranslationDecl | MorphismDecl | TypedInstanceDecl


@dataclass
class Document:
    declarations: list[Declaration] = field(default_factory=list)

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
            if decl.name == name and _decl_kind(decl) == kind:
                return _decl_value(decl)
        raise KeyError(f"no {kind} named {name!r}")


def _decl_kind(decl: Declaration) -> str:
    return {
        SchemaDecl: "schema",
        InstanceDecl: "instance",
        TranslationDecl: "translation",
        MorphismDecl: "morphism",
        TypedInstanceDecl: "typedinstance",
    }[type(decl)]


def _decl_value(decl: Declaration):
    if isinstance(decl, SchemaDecl):
        return decl.schema
    if isinstance(decl, InstanceDecl):
        return decl.instance
    if isinstance(decl, TranslationDecl):
        return decl.translation
    if isinstance(decl, MorphismDecl):
        return decl.morphism
    return decl.typed


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


class _Parser:
    def __init__(self, tokens: list[Token], env: dict[tuple[str, str], object]):
        self.tokens = tokens
        self.pos = 0
        self.names: dict[tuple[str, str], object] = dict(env)

    # -- token plumbing -----------------------------------------------------

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        token = self.tokens[self.pos]
        if token.kind != "eof":
            self.pos += 1
        return token

    def fail(self, message: str, token: Token | None = None, expected: tuple[str, ...] = ()):
        token = token or self.peek()
        raise ParseError(message, token.line, token.col, expected)

    def expect_punct(self, text: str) -> Token:
        token = self.peek()
        if token.kind == "punct" and token.text == text:
            return self.advance()
        self.fail(f"expected {text!r}, found {token.text or 'end of input'!r}", token, (text,))

    def accept_punct(self, text: str) -> bool:
        token = self.peek()
        if token.kind == "punct" and token.text == text:
            self.advance()
            return True
        return False

    def at_keyword(self, word: str) -> bool:
        token = self.peek()
        return token.kind == "ident" and token.text == word

    def expect_keyword(self, word: str) -> Token:
        token = self.peek()
        if token.kind == "ident" and token.text == word:
            return self.advance()
        self.fail(f"expected keyword {word!r}", token, (word,))

    def name(self, what: str) -> tuple[str, Token]:
        """A user name: a bare identifier (reserved words excluded) or a string."""
        token = self.peek()
        if token.kind == "string":
            self.advance()
            return token.text, token
        if token.kind == "ident":
            if token.text in RESERVED:
                self.fail(
                    f"{token.text!r} is a reserved word; quote it to use it as {what}",
                    token,
                )
            self.advance()
            return token.text, token
        self.fail(f"expected {what}", token, (what,))

    # -- shared pieces --------------------------------------------------------

    def lookup(self, kind: str, name: str, token: Token):
        value = self.names.get((kind, name))
        if value is None:
            self.fail(f"unknown {kind} {name!r}", token)
        return value

    def declare(self, kind: str, name: str, value, token: Token):
        if (kind, name) in self.names:
            self.fail(f"duplicate {kind} name {name!r}", token)
        self.names[(kind, name)] = value

    def path_arrows(self) -> list[tuple[str, Token]]:
        """A dotted arrow list, or the single keyword ``id`` for a trivial path."""
        token = self.peek()
        if token.kind == "ident" and token.text == "id":
            self.advance()
            return []
        arrows = []
        name, tok = self.name("an arrow name")
        arrows.append((name, tok))
        while self.accept_punct("."):
            name, tok = self.name("an arrow name")
            arrows.append((name, tok))
        return arrows

    def resolve_path(self, graph: Graph, source: str, arrows: list[tuple[str, Token]], token: Token) -> Path:
        at = source
        names = []
        for name, tok in arrows:
            try:
                arrow = graph.arrow(name)
            except Exception:
                self.fail(f"unknown arrow {name!r}", tok)
            if arrow.source != at:
                self.fail(
                    f"arrow {name!r} starts at {arrow.source!r}, "
                    f"but the path is at {at!r}",
                    tok,
                )
            names.append(name)
            at = arrow.target
        return Path(source, tuple(names))

    # -- declarations ----------------------------------------------------------

    def document(self) -> Document:
        decls: list[Declaration] = []
        while True:
            token = self.peek()
            if token.kind == "eof":
                break
            if token.kind != "ident":
                self.fail(
                    "expected a declaration",
                    token,
                    ("schema", "instance", "translation", "morphism", "typedinstance"),
                )
            if token.text == "schema":
                decls.append(self.schema_decl())
            elif token.text == "instance":
                decls.append(self.instance_decl())
            elif token.text == "translation":
                decls.append(self.translation_decl())
            elif token.text == "morphism":
                decls.append(self.morphism_decl())
            elif token.text == "typedinstance":
                decls.append(self.typedinstance_decl())
            else:
                self.fail(
                    f"unknown declaration {token.text!r}",
                    token,
                    ("schema", "instance", "translation", "morphism", "typedinstance"),
                )
        return Document(decls)

    def schema_decl(self) -> SchemaDecl:
        self.expect_keyword("schema")
        name, name_token = self.name("a schema name")
        self.expect_punct("{")

        vertices: list[str] = []
        seen_vertices: dict[str, Token] = {}
        if self.at_keyword("nodes"):
            self.advance()
            while True:
                v, tok = self.name("a vertex name")
                if v in seen_vertices:
                    self.fail(f"duplicate vertex {v!r}", tok)
                seen_vertices[v] = tok
                vertices.append(v)
                if self.accept_punct(","):
                    continue
                self.expect_punct(";")
                break

        arrows: list[Arrow] = []
        seen_arrows: dict[str, Token] = {}
        if self.at_keyword("arrows"):
            self.advance()
            while True:
                a, tok = self.name("an arrow name")
                if a in seen_arrows:
                    self.fail(f"duplicate arrow {a!r}", tok)
                seen_arrows[a] = tok
                self.expect_punct(":")
                src, src_tok = self.name("a vertex name")
                if src not in seen_vertices:
                    self.fail(f"unknown vertex {src!r}", src_tok)
                self.expect_punct("->")
                tgt, tgt_tok = self.name("a vertex name")
                if tgt not in seen_vertices:
                    self.fail(f"unknown vertex {tgt!r}", tgt_tok)
                self.expect_punct(";")
                arrows.append(Arrow(a, src, tgt))
                if self.at_keyword("equations") or (
                    self.peek().kind == "punct" and self.peek().text == "}"
                ):
                    break

        graph = Graph(tuple(vertices), tuple(arrows))

        equivalences: list[PathEquivalence] = []
        if self.at_keyword("equations"):
            self.advance()
            while True:
                src, src_tok = self.name("a vertex name")
                if src not in seen_vertices:
                    self.fail(f"unknown vertex {src!r}", src_tok)
                self.expect_punct(":")
                lhs_tok = self.peek()
                lhs = self.resolve_path(graph, src, self.path_arrows(), lhs_tok)
                self.expect_punct("=")
                rhs_tok = self.peek()
                rhs = self.resolve_path(graph, src, self.path_arrows(), rhs_tok)
                if path_target(graph, lhs) != path_target(graph, rhs):
                    self.fail(
                        f"equation sides end at different vertices "
                        f"({path_target(graph, lhs)!r} vs {path_target(graph, rhs)!r})",
                        rhs_tok,
                    )
                equivalences.append(PathEquivalence(lhs, rhs))
                self.expect_punct(";")
                if self.peek().kind == "punct" and self.peek().text == "}":
                    break

        self.expect_punct("}")
        schema = Schema(name, graph, tuple(equivalences))
        self.declare("schema", name, schema, name_token)
        return SchemaDecl(name, schema)

    def instance_decl(self) -> InstanceDecl:
        self.expect_keyword("instance")
        name, name_token = self.name("an instance name")
        self.expect_keyword("on")
        schema_name, schema_token = self.name("a schema name")
        schema: Schema = self.lookup("schema", schema_name, schema_token)
        self.expect_punct("{")

        rows: dict[str, list[str]] = {v: [] for v in schema.vertices}
        row_sets: dict[str, set[str]] = {v: set() for v in schema.vertices}
        # (vertex, row, arrow) -> (value, token); resolved after all tables load.
        pending: dict[tuple[str, str, str], tuple[str, Token]] = {}
        seen_tables: set[str] = set()

        while self.at_keyword("table"):
            self.advance()
            vertex, vertex_token = self.name("a vertex name")
            if not schema.graph.has_vertex(vertex):
                self.fail(f"schema {schema_name!r} has no vertex {vertex!r}", vertex_token)
            if vertex in seen_tables:
                self.fail(f"duplicate table {vertex!r}", vertex_token)
            seen_tables.add(vertex)
            out_arrows = {a.name: a for a in schema.graph.out_arrows(vertex)}
            self.expect_punct("{")
            while not (self.peek().kind == "punct" and self.peek().text == "}"):
                row, row_token = self.name("a row id")
                if row in row_sets[vertex]:
                    self.fail(f"duplicate row {row!r} in table {vertex!r}", row_token)
                rows[vertex].append(row)
                row_sets[vertex].add(row)
                assigned: dict[str, tuple[str, Token]] = {}
                if self.accept_punct("->"):
                    self.expect_punct("(")
                    while True:
                        arrow_name, arrow_token = self.name("a column name")
                        if arrow_name not in out_arrows:
                            self.fail(
                                f"table {vertex!r} has no column {arrow_name!r}",
                                arrow_token,
                            )
                        if arrow_name in assigned:
                            self.fail(f"column {arrow_name!r} assigned twice", arrow_token)
                        self.expect_punct("=")
                        value, value_token = self.name("a row id")
                        assigned[arrow_name] = (value, value_token)
                        if self.accept_punct(","):
                            continue
                        self.expect_punct(")")
                        break
                missing = [a for a in out_arrows if a not in assigned]
                if missing:
                    self.fail(
                        f"row {row!r} of table {vertex!r} is missing columns: "
                        + ", ".join(sorted(missing)),
                        row_token,
                    )
                for arrow_name, (value, value_token) in assigned.items():
                    pending[(vertex, row, arrow_name)] = (value, value_token)
            self.expect_punct("}")

        self.expect_punct("}")

        columns: dict[str, dict[str, str]] = {a.name: {} for a in schema.arrows}
        for (vertex, row, arrow_name), (value, value_token) in pending.items():
            target = schema.graph.arrow(arrow_name).target
            if value not in row_sets[target]:
                self.fail(
                    f"column {arrow_name!r} of row {row!r} refers to {value!r}, "
                    f"which is not a row of table {target!r}",
                    value_token,
                )
            columns[arrow_name][row] = value

        instance = Instance(schema, {v: tuple(r) for v, r in rows.items()}, columns)
        self.declare("instance", name, instance, name_token)
        return InstanceDecl(name, schema_name, instance)

    def translation_decl(self) -> TranslationDecl:
        self.expect_keyword("translation")
        name, name_token = self.name("a translation name")
        self.expect_punct(":")
        source_name, source_token = self.name("a schema name")
        source: Schema = self.lookup("schema", source_name, source_token)
        self.expect_punct("->")
        target_name, target_token = self.name("a schema name")
        target: Schema = self.lookup("schema", target_name, target_token)
        self.expect_punct("{")

        vertex_map: dict[str, str] = {}
        if self.at_keyword("nodes"):
            self.advance()
            while True:
                v, v_tok = self.name("a source vertex")
                if not source.graph.has_vertex(v):
                    self.fail(f"schema {source_name!r} has no vertex {v!r}", v_tok)
                if v in vertex_map:
                    self.fail(f"vertex {v!r} mapped twice", v_tok)
                self.expect_punct("->")
                w, w_tok = self.name("a target vertex")
                if not target.graph.has_vertex(w):
                    self.fail(f"schema {target_name!r} has no vertex {w!r}", w_tok)
                vertex_map[v] = w
                if self.accept_punct(","):
                    continue
                self.expect_punct(";")
                break

        arrow_map: dict[str, Path] = {}
        if self.at_keyword("arrows"):
            self.advance()
            while True:
                a, a_tok = self.name("a source arrow")
                try:
                    arrow = source.graph.arrow(a)
                except Exception:
                    self.fail(f"schema {source_name!r} has no arrow {a!r}", a_tok)
                if a in arrow_map:
                    self.fail(f"arrow {a!r} mapped twice", a_tok)
                self.expect_punct("->")
                path_token = self.peek()
                expected_source = vertex_map.get(arrow.source)
                if expected_source is None:
                    self.fail(
                        f"arrow {a!r} mapped before its source vertex {arrow.source!r}",
                        a_tok,
                    )
                image = self.resolve_path(
                    target.graph, expected_source, self.path_arrows(), path_token
                )
                actual_target = path_target(target.graph, image)
                expected_target = vertex_map.get(arrow.target)
                if expected_target is None:
                    self.fail(
                        f"arrow {a!r} mapped before its target vertex {arrow.target!r}",
                        a_tok,
                    )
                if actual_target != expected_target:
                    self.fail(
                        f"image of arrow {a!r} ends at {actual_target!r}, "
                        f"expected {expected_target!r}",
                        path_token,
                    )
                arrow_map[a] = image
                self.expect_punct(";")
                if self.peek().kind == "punct" and self.peek().text == "}":
                    break

        self.expect_punct("}")

        for v in source.vertices:
            if v not in vertex_map:
                self.fail(f"translation does not map vertex {v!r}", name_token)
        for a in source.arrows:
            if a.name not in arrow_map:
                self.fail(f"translation does not map arrow {a.name!r}", name_token)

        translation = Translation(source, target, vertex_map, arrow_map)
        self.declare("translation", name, translation, name_token)
        return TranslationDecl(name, source_name, target_name, translation)

    def component_blocks(
        self, schema: Schema, source: Instance, target: Instance, owner: Token
    ) -> dict[str, dict[str, str]]:
        components: dict[str, dict[str, str]] = {v: {} for v in schema.vertices}
        seen_blocks: set[str] = set()
        while not (self.peek().kind == "punct" and self.peek().text == "}"):
            vertex, vertex_token = self.name("a vertex name")
            if not schema.graph.has_vertex(vertex):
                self.fail(f"schema has no vertex {vertex!r}", vertex_token)
            if vertex in seen_blocks:
                self.fail(f"duplicate component block {vertex!r}", vertex_token)
            seen_blocks.add(vertex)
            source_rows = set(source.row_set(vertex))
            target_rows = set(target.row_set(vertex))
            self.expect_punct("{")
            while not (self.peek().kind == "punct" and self.peek().text == "}"):
                row, row_token = self.name("a row id")
                if row not in source_rows:
                    self.fail(f"{row!r} is not a row of the source at {vertex!r}", row_token)
                if row in components[vertex]:
                    self.fail(f"row {row!r} mapped twice", row_token)
                self.expect_punct("->")
                value, value_token = self.name("a row id")
                if value not in target_rows:
                    self.fail(f"{value!r} is not a row of the target at {vertex!r}", value_token)
                components[vertex][row] = value
            self.expect_punct("}")
        for v in schema.vertices:
            for row in source.row_set(v):
                if row not in components[v]:
                    self.fail(f"no component value for row {row!r} at vertex {v!r}", owner)
        return components

    def morphism_decl(self) -> MorphismDecl:
        self.expect_keyword("morphism")
        name, name_token = self.name("a morphism name")
        self.expect_punct(":")
        source_name, source_token = self.name("an instance name")
        source: Instance = self.lookup("instance", source_name, source_token)
        self.expect_punct("->")
        target_name, target_token = self.name("an instance name")
        target: Instance = self.lookup("instance", target_name, target_token)
        if source.schema != target.schema:
            self.fail("morphism endpoints live on different schemas", name_token)
        self.expect_punct("{")
        components = self.component_blocks(source.schema, source, target, name_token)
        self.expect_punct("}")
        morphism = InstanceMorphism(source, target, components)
        self.declare("morphism", name, morphism, name_token)
        return MorphismDecl(name, source_name, target_name, morphism)

    def typedinstance_decl(self) -> TypedInstanceDecl:
        self.expect_keyword("typedinstance")
        name, name_token = self.name("a typed instance name")
        self.expect_punct("{")
        self.expect_keyword("instance")
        instance_name, instance_token = self.name("an instance name")
        instance: Instance = self.lookup("instance", instance_name, instance_token)
        self.expect_punct(";")
        self.expect_keyword("typing")
        typing_name, typing_token = self.name("an instance name")
        typing_instance: Instance = self.lookup("instance", typing_name, typing_token)
        self.expect_punct(";")
        if instance.schema != typing_instance.schema:
            self.fail("instance and typing instance live on different schemas", typing_token)
        self.expect_keyword("components")
        self.expect_punct("{")
        components = self.component_blocks(
            instance.schema, instance, typing_instance, name_token
        )
        self.expect_punct("}")
        self.expect_punct("}")
        typed = TypedInstance(InstanceMorphism(instance, typing_instance, components))
        self.declare("typedinstance", name, typed, name_token)
        return TypedInstanceDecl(name, instance_name, typing_name, typed)


def parse_document(text: str, env: dict[tuple[str, str], object] | None = None) -> Document:
    """Parse one .cat document; ``env`` supplies declarations from earlier files."""
    parser = _Parser(_tokenize(text), env or {})
    return parser.document()


def document_env(*documents: Document) -> dict[tuple[str, str], object]:
    env: dict[tuple[str, str], object] = {}
    for doc in documents:
        for decl in doc.declarations:
            env[(_decl_kind(decl), decl.name)] = _decl_value(decl)
    return env


# ---------------------------------------------------------------------------
# printer
# ---------------------------------------------------------------------------


def format_name(name: str) -> str:
    if _IDENT_RE.match(name) and name not in RESERVED:
        return name
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


def _print_instance(decl: InstanceDecl) -> str:
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


def print_document(doc: Document) -> str:
    """Canonical text: declarations in document order, members in declaration
    order, one row per line.  parse(print(d)) reproduces d exactly."""
    chunks = []
    for decl in doc.declarations:
        if isinstance(decl, SchemaDecl):
            chunks.append(_print_schema(decl))
        elif isinstance(decl, InstanceDecl):
            chunks.append(_print_instance(decl))
        elif isinstance(decl, TranslationDecl):
            chunks.append(_print_translation(decl))
        elif isinstance(decl, MorphismDecl):
            chunks.append(_print_morphism(decl))
        else:
            chunks.append(_print_typedinstance(decl))
    if not chunks:
        return ""
    return "\n\n".join(chunks) + "\n"
