"""Recursive-descent parser for the protocol description language.

Concrete syntax summary::

    global protocol Name(role A, role B) { ... }
    local protocol Name at A(role A, role B) { ... }

Statements inside a block:

- interaction: ``Label(sort:name, ...) from A to B;`` (global) or
  ``Label(...) to B;`` / ``Label(...) from A;`` (local); the payload list may
  be omitted entirely for empty payloads, and a bare sort ``data`` is
  shorthand for ``data:data``.
- ``@{ expr }`` on the line before a message attaches a payload assertion to
  that message, compiled here once (``predicates.compile_predicate``).
- ``choice at R { ... } or { ... }`` and ``rec X { ... }`` must be the last
  statement of their block (the tree gives them no continuation).
- ``X;`` with a bare identifier continues the recursion named X, and must
  also be last in its block.
- ``parallel { ... } and { ... }`` runs blocks concurrently; statements after
  it are its continuation.
- ``//`` starts a line comment.

``parse_global`` and ``parse_local`` validate the result before returning it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .protocol import (
    END,
    SORTS,
    Choice,
    Continue,
    GlobalProtocol,
    Interaction,
    LocalProtocol,
    MessageSignature,
    Parallel,
    PayloadField,
    Rec,
    Receive,
    Send,
    validate_global,
    validate_local,
)
from .predicates import CompiledPredicate, PredicateSyntaxError, compile_predicate

RESERVED = frozenset(
    {"global", "local", "protocol", "role", "at", "from", "to",
     "choice", "or", "rec", "parallel", "and"}
)

_PUNCT = {"{", "}", "(", ")", ",", ":", ";"}


class ParseError(Exception):
    """Syntax error with position and the token kinds that were expected."""

    def __init__(self, line: int, column: int, expected: tuple, found: str):
        expected = tuple(expected)
        shown = ", ".join(expected)
        super().__init__(f"line {line}, column {column}: expected {shown}, found {found}")
        self.line = line
        self.column = column
        self.expected = expected
        self.found = found


@dataclass(frozen=True)
class _Token:
    kind: str  # 'ident', 'punct', 'assertion', 'eof'
    value: str
    line: int
    column: int


def _tokenize(source: str):
    tokens = []
    line = 1
    col = 1
    i = 0
    n = len(source)
    while i < n:
        ch = source[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
        elif ch in " \t\r":
            i += 1
            col += 1
        elif source.startswith("//", i):
            while i < n and source[i] != "\n":
                i += 1
        elif ch in _PUNCT:
            tokens.append(_Token("punct", ch, line, col))
            i += 1
            col += 1
        elif ch == "@":
            start_line, start_col = line, col
            i += 1
            col += 1
            if i >= n or source[i] != "{":
                raise ParseError(line, col, ("{",), source[i] if i < n else "end of input")
            i += 1
            col += 1
            text, i, line, col = _scan_assertion(source, i, line, col, start_line, start_col)
            tokens.append(_Token("assertion", text.strip(), start_line, start_col))
        elif ch.isalpha() or ch == "_":
            start = i
            start_col = col
            while i < n and (source[i].isalnum() or source[i] == "_"):
                i += 1
                col += 1
            tokens.append(_Token("ident", source[start:i], line, start_col))
        else:
            raise ParseError(line, col, ("statement",), repr(ch))
    tokens.append(_Token("eof", "", line, col))
    return tokens


def _scan_assertion(source, i, line, col, start_line, start_col):
    """Consume up to the brace matching ``@{``, skipping quoted strings."""
    n = len(source)
    depth = 1
    out = []
    while i < n:
        ch = source[i]
        if ch in "'\"":
            quote = ch
            out.append(ch)
            i += 1
            col += 1
            while i < n and source[i] != quote:
                if source[i] == "\\" and i + 1 < n:
                    out.append(source[i])
                    i += 1
                    col += 1
                if source[i] == "\n":
                    line += 1
                    col = 0
                out.append(source[i])
                i += 1
                col += 1
            if i < n:
                out.append(quote)
                i += 1
                col += 1
            continue
        if ch == "{":
            depth += 1
        elif ch == "}":
            depth -= 1
            if depth == 0:
                return "".join(out), i + 1, line, col + 1
        if ch == "\n":
            line += 1
            col = 0
        out.append(ch)
        i += 1
        col += 1
    raise ParseError(start_line, start_col, ("}",), "end of input")


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0

    def peek(self, ahead: int = 0) -> _Token:
        return self.tokens[min(self.pos + ahead, len(self.tokens) - 1)]

    def next(self) -> _Token:
        tok = self.peek()
        self.pos += 1
        return tok

    def fail(self, *expected) -> ParseError:
        tok = self.peek()
        found = tok.value if tok.kind != "eof" else "end of input"
        return ParseError(tok.line, tok.column, expected, found)

    def expect_punct(self, value: str) -> _Token:
        tok = self.peek()
        if tok.kind != "punct" or tok.value != value:
            raise self.fail(value)
        return self.next()

    def expect_keyword(self, word: str) -> _Token:
        tok = self.peek()
        if tok.kind != "ident" or tok.value != word:
            raise self.fail(word)
        return self.next()

    def at_keyword(self, word: str) -> bool:
        tok = self.peek()
        return tok.kind == "ident" and tok.value == word

    def expect_name(self, what: str = "identifier") -> str:
        tok = self.peek()
        if tok.kind != "ident":
            raise self.fail(what)
        if tok.value in RESERVED:
            raise self.fail(what)
        return self.next().value

    # Headers ------------------------------------------------------------

    def parse_global(self) -> GlobalProtocol:
        self.expect_keyword("global")
        self.expect_keyword("protocol")
        name = self.expect_name("protocol name")
        roles = self.parse_role_decls()
        body = self.parse_block(is_global=True)
        tok = self.peek()
        if tok.kind != "eof":
            raise self.fail("end of input")
        return GlobalProtocol(name, roles, body)

    def parse_local(self) -> LocalProtocol:
        self.expect_keyword("local")
        self.expect_keyword("protocol")
        name = self.expect_name("protocol name")
        self.expect_keyword("at")
        self_role = self.expect_name("role name")
        roles = self.parse_role_decls()
        body = self.parse_block(is_global=False)
        tok = self.peek()
        if tok.kind != "eof":
            raise self.fail("end of input")
        return LocalProtocol(name, self_role, roles, body)

    def parse_role_decls(self) -> tuple:
        self.expect_punct("(")
        roles = []
        while True:
            self.expect_keyword("role")
            roles.append(self.expect_name("role name"))
            tok = self.peek()
            if tok.kind == "punct" and tok.value == ",":
                self.next()
                continue
            break
        self.expect_punct(")")
        return tuple(roles)

    # Statements ---------------------------------------------------------

    def parse_block(self, is_global: bool):
        self.expect_punct("{")
        node = self.parse_statements(is_global)
        self.expect_punct("}")
        return node

    def at_block_end(self) -> bool:
        tok = self.peek()
        return tok.kind == "punct" and tok.value == "}"

    def parse_statements(self, is_global: bool):
        """Parse statements up to the closing brace of the current block."""
        if self.at_block_end():
            return END
        tok = self.peek()

        if tok.kind == "assertion":
            self.next()
            try:
                assertion = compile_predicate(tok.value)
            except PredicateSyntaxError as exc:
                raise ParseError(tok.line, tok.column, ("assertion expression",), str(exc))
            return self.parse_message(is_global, assertion)

        if self.at_keyword("choice"):
            node = self.parse_choice(is_global)
            if not self.at_block_end():
                raise self.fail("} (a choice ends its block)")
            return node

        if self.at_keyword("rec"):
            node = self.parse_rec(is_global)
            if not self.at_block_end():
                raise self.fail("} (a rec ends its block)")
            return node

        if self.at_keyword("parallel"):
            return self.parse_parallel(is_global)

        if tok.kind == "ident" and tok.value not in RESERVED:
            after = self.peek(1)
            if after.kind == "punct" and after.value == ";":
                var = self.expect_name()
                self.expect_punct(";")
                if not self.at_block_end():
                    raise self.fail("} (a continue ends its block)")
                return Continue(var)
            return self.parse_message(is_global, None)

        raise self.fail("statement")

    def parse_choice(self, is_global: bool) -> Choice:
        self.expect_keyword("choice")
        self.expect_keyword("at")
        at = self.expect_name("role name")
        branches = [self.parse_block(is_global)]
        while self.at_keyword("or"):
            self.next()
            branches.append(self.parse_block(is_global))
        return Choice(at, tuple(branches))

    def parse_rec(self, is_global: bool) -> Rec:
        self.expect_keyword("rec")
        var = self.expect_name("recursion label")
        return Rec(var, self.parse_block(is_global))

    def parse_parallel(self, is_global: bool) -> Parallel:
        self.expect_keyword("parallel")
        branches = [self.parse_block(is_global)]
        while self.at_keyword("and"):
            self.next()
            branches.append(self.parse_block(is_global))
        cont = self.parse_statements(is_global)
        return Parallel(tuple(branches), cont)

    def parse_message(self, is_global: bool, assertion: Optional[CompiledPredicate]):
        sig = self.parse_signature()
        if is_global:
            self.expect_keyword("from")
            src = self.expect_name("role name")
            self.expect_keyword("to")
            dst = self.expect_name("role name")
            self.expect_punct(";")
            cont = self.parse_statements(is_global)
            return Interaction(sig, src, dst, cont, assertion)
        if self.at_keyword("to"):
            self.next()
            dst = self.expect_name("role name")
            self.expect_punct(";")
            return Send(sig, dst, self.parse_statements(is_global), assertion)
        if self.at_keyword("from"):
            self.next()
            src = self.expect_name("role name")
            self.expect_punct(";")
            return Receive(sig, src, self.parse_statements(is_global), assertion)
        raise self.fail("from", "to")

    def parse_signature(self) -> MessageSignature:
        label = self.expect_name("message label")
        tok = self.peek()
        if not (tok.kind == "punct" and tok.value == "("):
            return MessageSignature(label)
        self.next()
        fields = []
        if not (self.peek().kind == "punct" and self.peek().value == ")"):
            while True:
                fields.append(self.parse_payload_field())
                tok = self.peek()
                if tok.kind == "punct" and tok.value == ",":
                    self.next()
                    continue
                break
        self.expect_punct(")")
        return MessageSignature(label, tuple(fields))

    def parse_payload_field(self) -> PayloadField:
        tok = self.peek()
        if tok.kind != "ident" or tok.value not in SORTS:
            raise self.fail(*(f"payload sort ({s})" for s in SORTS))
        sort = self.next().value
        tok = self.peek()
        if tok.kind == "punct" and tok.value == ":":
            self.next()
            name = self.expect_name("payload name")
            return PayloadField(name, sort)
        return PayloadField(sort, sort)


def parse_global(source: str) -> GlobalProtocol:
    """Parse and validate a global protocol."""
    protocol = _Parser(_tokenize(source)).parse_global()
    validate_global(protocol)
    return protocol


def parse_local(source: str) -> LocalProtocol:
    """Parse and validate a local protocol."""
    protocol = _Parser(_tokenize(source)).parse_local()
    validate_local(protocol)
    return protocol


def parse_protocol(source: str):
    """Parse either kind, deciding by the leading keyword."""
    tokens = _tokenize(source)
    if tokens and tokens[0].kind == "ident" and tokens[0].value == "local":
        protocol = _Parser(tokens).parse_local()
        validate_local(protocol)
        return protocol
    protocol = _Parser(tokens).parse_global()
    validate_global(protocol)
    return protocol
