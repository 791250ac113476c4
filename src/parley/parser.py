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

Space, tab, CR and LF are the only blanks. A name starts with a letter or
``_`` and goes on with letters, digits or ``_`` (``str.isalpha``/``isalnum``).

The lexer is one compiled pattern, matched once per token. Tokens are
``(kind, value, offset)`` tuples; a ``ParseError`` computes its line and
column from the offset, so positions cost nothing until an error is raised.

``parse_global`` and ``parse_local`` validate the result before returning it.
"""

from __future__ import annotations

import re
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


# One match per token: the blanks and comments before it, then the token.
# Only space, tab, CR and LF are blanks. A comment that no newline ends is
# where the input ends, and the end of input is placed at its start. A name
# that starts with an ASCII letter or ``_`` is an ``ident`` at once; any other
# run of word characters (``word``) is one only if it starts with a letter.
_TOKEN = re.compile(
    r"(?:[ \t\r\n]+|//[^\n]*\n)*"
    r"(?:(?P<punct>[{}(),:;])|(?P<ident>[A-Za-z_]\w*)|(?P<word>\w+)|(?P<at>@)"
    r"|(?P<eof>(?://[^\n]*)?\Z)|(?P<other>.))"
)


def _error(source: str, offset: int, expected: tuple, found: str) -> ParseError:
    """A ParseError at ``offset``, with its line and column counted from 1."""
    line = source.count("\n", 0, offset) + 1
    return ParseError(line, offset - source.rfind("\n", 0, offset), expected, found)


def _tokenize(source: str) -> list:
    """Tokens as ``(kind, value, offset)`` tuples, kinds ``punct``, ``ident``,
    ``assertion`` and ``eof``; two ``eof`` tokens end the list, so the parser
    may look one token past the last without a bounds check."""
    tokens = []
    append = tokens.append
    match = _TOKEN.match
    pos = 0
    while True:
        m = match(source, pos)
        kind = m.lastgroup
        pos = m.end()
        if kind == "punct" or kind == "ident":
            append((kind, m[kind], m.start(kind)))
        elif kind == "eof":
            eof = ("eof", "", m.start(kind))
            append(eof)
            append(eof)
            return tokens
        elif kind == "word":
            value = m[kind]
            if not (value[0].isalpha() or value[0] == "_"):
                raise _error(source, m.start(kind), ("statement",), repr(value[0]))
            append(("ident", value, m.start(kind)))
        elif kind == "at":
            if source.startswith("{", pos):
                start = m.start(kind)
                close = _scan_assertion(source, pos + 1, start)
                append(("assertion", source[pos + 1:close].strip(), start))
                pos = close + 1
            else:
                found = source[pos] if pos < len(source) else "end of input"
                raise _error(source, pos, ("{",), found)
        else:
            raise _error(source, m.start(kind), ("statement",), repr(m[kind]))


def _scan_assertion(source: str, i: int, start: int) -> int:
    """The offset of the brace matching the ``@{`` at ``start``, from ``i``
    just past it; braces inside quoted strings do not count."""
    n = len(source)
    depth = 1
    while i < n:
        ch = source[i]
        if ch in "'\"":
            i += 1
            while i < n and source[i] != ch:
                if source[i] == "\\":
                    i += 1
                i += 1
        elif ch == "{":
            depth += 1
        elif ch == "}":
            depth -= 1
            if depth == 0:
                return i
        i += 1
    raise _error(source, start, ("}",), "end of input")


class _Parser:
    """A cursor over the token list: every look is one index into it."""

    def __init__(self, source: str):
        self.source = source
        self.tokens = _tokenize(source)
        self.pos = 0

    def fail(self, *expected) -> ParseError:
        kind, value, offset = self.tokens[self.pos]
        return _error(self.source, offset, expected, value if kind != "eof" else "end of input")

    def at_punct(self, value: str) -> bool:
        tok = self.tokens[self.pos]
        return tok[1] == value and tok[0] == "punct"

    def at_keyword(self, word: str) -> bool:
        tok = self.tokens[self.pos]
        return tok[1] == word and tok[0] == "ident"

    def expect_punct(self, value: str) -> None:
        tok = self.tokens[self.pos]
        if tok[1] != value or tok[0] != "punct":
            raise self.fail(value)
        self.pos += 1

    def expect_keyword(self, word: str) -> None:
        tok = self.tokens[self.pos]
        if tok[1] != word or tok[0] != "ident":
            raise self.fail(word)
        self.pos += 1

    def expect_name(self, what: str = "identifier") -> str:
        tok = self.tokens[self.pos]
        if tok[0] != "ident" or tok[1] in RESERVED:
            raise self.fail(what)
        self.pos += 1
        return tok[1]

    def expect_end(self) -> None:
        if self.tokens[self.pos][0] != "eof":
            raise self.fail("end of input")

    # Headers ------------------------------------------------------------

    def parse_global(self) -> GlobalProtocol:
        self.expect_keyword("global")
        self.expect_keyword("protocol")
        name = self.expect_name("protocol name")
        roles = self.parse_role_decls()
        body = self.parse_block(is_global=True)
        self.expect_end()
        return GlobalProtocol(name, roles, body)

    def parse_local(self) -> LocalProtocol:
        self.expect_keyword("local")
        self.expect_keyword("protocol")
        name = self.expect_name("protocol name")
        self.expect_keyword("at")
        self_role = self.expect_name("role name")
        roles = self.parse_role_decls()
        body = self.parse_block(is_global=False)
        self.expect_end()
        return LocalProtocol(name, self_role, roles, body)

    def parse_role_decls(self) -> tuple:
        self.expect_punct("(")
        roles = []
        while True:
            self.expect_keyword("role")
            roles.append(self.expect_name("role name"))
            if not self.at_punct(","):
                break
            self.pos += 1
        self.expect_punct(")")
        return tuple(roles)

    # Statements ---------------------------------------------------------

    def parse_block(self, is_global: bool):
        self.expect_punct("{")
        node = self.parse_statements(is_global)
        self.expect_punct("}")
        return node

    def parse_statements(self, is_global: bool):
        """Parse statements up to the closing brace of the current block."""
        kind, value, offset = self.tokens[self.pos]
        if kind == "punct" and value == "}":
            return END

        if kind == "assertion":
            self.pos += 1
            try:
                assertion = compile_predicate(value)
            except PredicateSyntaxError as exc:
                raise _error(self.source, offset, ("assertion expression",), str(exc))
            return self.parse_message(is_global, assertion)

        if kind != "ident":
            raise self.fail("statement")

        if value == "choice":
            node = self.parse_choice(is_global)
            if not self.at_punct("}"):
                raise self.fail("} (a choice ends its block)")
            return node

        if value == "rec":
            node = self.parse_rec(is_global)
            if not self.at_punct("}"):
                raise self.fail("} (a rec ends its block)")
            return node

        if value == "parallel":
            return self.parse_parallel(is_global)

        if value in RESERVED:
            raise self.fail("statement")
        after = self.tokens[self.pos + 1]
        if after[1] == ";" and after[0] == "punct":
            self.pos += 2
            if not self.at_punct("}"):
                raise self.fail("} (a continue ends its block)")
            return Continue(value)
        return self.parse_message(is_global, None)

    def parse_choice(self, is_global: bool) -> Choice:
        self.pos += 1  # choice
        self.expect_keyword("at")
        at = self.expect_name("role name")
        branches = [self.parse_block(is_global)]
        while self.at_keyword("or"):
            self.pos += 1
            branches.append(self.parse_block(is_global))
        return Choice(at, tuple(branches))

    def parse_rec(self, is_global: bool) -> Rec:
        self.pos += 1  # rec
        var = self.expect_name("recursion label")
        return Rec(var, self.parse_block(is_global))

    def parse_parallel(self, is_global: bool) -> Parallel:
        self.pos += 1  # parallel
        branches = [self.parse_block(is_global)]
        while self.at_keyword("and"):
            self.pos += 1
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
            self.pos += 1
            dst = self.expect_name("role name")
            self.expect_punct(";")
            return Send(sig, dst, self.parse_statements(is_global), assertion)
        if self.at_keyword("from"):
            self.pos += 1
            src = self.expect_name("role name")
            self.expect_punct(";")
            return Receive(sig, src, self.parse_statements(is_global), assertion)
        raise self.fail("from", "to")

    def parse_signature(self) -> MessageSignature:
        label = self.expect_name("message label")
        if not self.at_punct("("):
            return MessageSignature(label)
        self.pos += 1
        fields = []
        if not self.at_punct(")"):
            while True:
                fields.append(self.parse_payload_field())
                if not self.at_punct(","):
                    break
                self.pos += 1
        self.expect_punct(")")
        return MessageSignature(label, tuple(fields))

    def parse_payload_field(self) -> PayloadField:
        kind, sort, _ = self.tokens[self.pos]
        if kind != "ident" or sort not in SORTS:
            raise self.fail(*(f"payload sort ({s})" for s in SORTS))
        self.pos += 1
        if self.at_punct(":"):
            self.pos += 1
            return PayloadField(self.expect_name("payload name"), sort)
        return PayloadField(sort, sort)


def parse_global(source: str) -> GlobalProtocol:
    """Parse and validate a global protocol."""
    protocol = _Parser(source).parse_global()
    validate_global(protocol)
    return protocol


def parse_local(source: str) -> LocalProtocol:
    """Parse and validate a local protocol."""
    protocol = _Parser(source).parse_local()
    validate_local(protocol)
    return protocol


def parse_protocol(source: str):
    """Parse either kind, deciding by the leading keyword."""
    parser = _Parser(source)
    if parser.at_keyword("local"):
        protocol = parser.parse_local()
        validate_local(protocol)
        return protocol
    protocol = parser.parse_global()
    validate_global(protocol)
    return protocol
