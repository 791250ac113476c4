from dataclasses import dataclass
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from parley import parser as parser_mod
from parley.parser import ParseError, parse_global, parse_local, parse_protocol
from parley.printer import serialize
from parley.projection import project
from parley.protocol import (
    Choice,
    Continue,
    END,
    Interaction,
    Parallel,
    PayloadField,
    Rec,
    Receive,
    Send,
    ValidationError,
)

import protogen
from conftest import DAQ_GLOBAL_SRC, DAQ_LOCAL_A_SRC


# The character-stepping lexer the one-pattern lexer replaced, kept as the
# oracle the differential tests below hold it to.
_PUNCT = {"{", "}", "(", ")", ",", ":", ";"}


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


def test_parse_global_header(daq_global):
    assert daq_global.name == "DataAquisition"
    assert daq_global.roles == ("U", "A", "I")


def test_parse_global_structure(daq_global):
    first = daq_global.body
    assert isinstance(first, Interaction)
    assert first.sig.label == "Request"
    assert first.sig.payload == (PayloadField("info", "string"),)
    assert (first.src, first.dst) == ("U", "A")
    second = first.cont
    assert (second.src, second.dst) == ("A", "I")
    outer = second.cont
    assert isinstance(outer, Choice) and outer.at == "I"
    assert len(outer.branches) == 2
    supported = outer.branches[0]
    assert supported.sig.label == "Support"
    assert isinstance(supported.cont, Rec)


def test_assertion_binds_to_following_message(daq_global):
    rec = daq_global.body.cont.cont.branches[0].cont
    poll = rec.body
    inner = poll.cont
    raw = inner.branches[0]
    assert raw.sig.label == "Raw"
    assert raw.assertion is not None
    assert raw.assertion.source_text == "size(data) <= 512"
    assert raw.assertion.free_vars == frozenset({"data"})
    # the other branch head carries no assertion
    assert inner.branches[1].assertion is None


def test_parse_local_header(daq_local_a):
    assert daq_local_a.name == "DataAquisition"
    assert daq_local_a.self_role == "A"
    assert daq_local_a.roles == ("U", "A", "I")
    assert isinstance(daq_local_a.body, Receive)
    assert isinstance(daq_local_a.body.cont, Send)


def test_parse_protocol_dispatch():
    assert parse_protocol(DAQ_GLOBAL_SRC).name == "DataAquisition"
    assert parse_protocol(DAQ_LOCAL_A_SRC).self_role == "A"


def test_bare_sort_payload():
    g = parse_global(
        "global protocol P(role A, role B) { M(data) from A to B; }"
    )
    assert g.body.sig.payload == (PayloadField("data", "data"),)


def test_empty_payload_forms_agree():
    with_parens = parse_global("global protocol P(role A, role B) { M() from A to B; }")
    without = parse_global("global protocol P(role A, role B) { M from A to B; }")
    assert with_parens == without


def test_comments_are_skipped():
    g = parse_global(
        """
        // leading comment
        global protocol P(role A, role B) {
            M from A to B; // trailing comment
        }
        """
    )
    assert g.body.sig.label == "M"


def test_parallel_with_continuation():
    g = parse_global(
        """
        global protocol P(role A, role B) {
            parallel {
                M from A to B;
            } and {
                N from B to A;
            }
            K from A to B;
        }
        """
    )
    par = g.body
    assert isinstance(par, Parallel)
    assert len(par.branches) == 2
    assert isinstance(par.cont, Interaction)
    assert par.cont.sig.label == "K"


def test_rec_and_bare_continue():
    g = parse_global(
        """
        global protocol P(role A, role B) {
            rec X {
                M from A to B;
                X;
            }
        }
        """
    )
    assert isinstance(g.body, Rec)
    assert g.body.var == "X"
    assert g.body.body.cont == Continue("X")


def test_assertion_scan_skips_braces_in_strings():
    g = parse_global(
        'global protocol P(role A, role B) { @{x == "}"} M(string:x) from A to B; }'
    )
    assert g.body.assertion.source_text == 'x == "}"'


def test_missing_semicolon_position():
    with pytest.raises(ParseError) as err:
        parse_global("global protocol P(role A, role B) { M from A to B }")
    assert err.value.line == 1
    assert ";" in err.value.expected


def test_choice_must_end_its_block():
    with pytest.raises(ParseError) as err:
        parse_global(
            "global protocol P(role A, role B) {"
            " choice at A { M from A to B; } or { N from A to B; }"
            " K from A to B; }"
        )
    assert any("choice" in e for e in err.value.expected)


def test_reserved_words_rejected_as_names():
    with pytest.raises(ParseError):
        parse_global("global protocol P(role from, role B) { M from from to B; }")


@pytest.mark.parametrize(
    "source,kind",
    [
        ("global protocol P(role A, role A) { M from A to B; }", "duplicate-role"),
        ("global protocol P(role A, role B) { M from A to C; }", "undeclared-role"),
        ("global protocol P(role A, role B) { M from A to A; }", "self-message"),
        (
            "global protocol P(role A, role B) { rec X { M from A to B; Y; } }",
            "unbound-recursion",
        ),
        (
            "global protocol P(role A, role B)"
            " { choice at A { M from B to A; } or { N from A to B; } }",
            "undirected-choice",
        ),
        (
            "global protocol P(role A, role B)"
            " { choice at A { M from A to B; } or { M from A to B; } }",
            "label-clash",
        ),
        (
            "global protocol P(role A, role B) { @{y > 0} M(int:x) from A to B; }",
            "unbound-assertion",
        ),
    ],
)
def test_validation_kinds(source, kind):
    with pytest.raises(ValidationError) as err:
        parse_global(source)
    assert err.value.kind == kind


def test_size_is_a_binder_where_it_is_not_called():
    # only a callee named size is the builtin; a bare size is a variable,
    # bound like any other
    with pytest.raises(ValidationError) as err:
        parse_global("global protocol P(role A, role B) { @{size > 0} M(int:n) from A to B; }")
    assert err.value.kind == "unbound-assertion"
    g = parse_global("global protocol P(role A, role B) { @{size > 0} M(int:size) from A to B; }")
    assert g.body.assertion.free_vars == frozenset({"size"})


def test_assertion_sees_earlier_binders():
    g = parse_global(
        "global protocol P(role A, role B) {"
        " M(int:lo) from A to B;"
        " @{lo <= hi} N(int:hi) from B to A; }"
    )
    assert g.body.cont.assertion.free_vars == frozenset({"lo", "hi"})


def test_bad_payload_sort():
    with pytest.raises(ParseError):
        parse_global("global protocol P(role A, role B) { M(float:x) from A to B; }")


def test_bad_assertion_syntax_is_a_parse_error():
    with pytest.raises(ParseError):
        parse_global(
            "global protocol P(role A, role B) { @{x ==} M(int:x) from A to B; }"
        )


_HEADER = "global protocol P(role A, role B) {"


@pytest.mark.parametrize(
    "source,line,column,found",
    [
        # a tab counts as one column
        (_HEADER + "\n\tM from A to B;\n\t\tN from A B;\n}\n", 3, 12, "B"),
        # the carriage return of a CRLF line end moves no line
        (_HEADER + "\r\n    M from A to B;\r\n    N from A B;\r\n}\r\n", 3, 14, "B"),
        # the end of input sits where a last comment with no newline starts
        (_HEADER + "\n    M from A to B;\n  // no newline after this", 3, 3, "end of input"),
        # a quoted string in an assertion that spans a line break counts it
        (_HEADER + '\n    @{x != "a\\\nb"} M(string:x) from A to B;\n    N from A B;\n}\n',
         4, 14, "B"),
        (_HEADER + "\n    @", 2, 6, "end of input"),
        (_HEADER + "\n    1M from A to B;\n}\n", 2, 5, "'1'"),
        # only space, tab, CR and LF are blanks
        (_HEADER + "\n    M from A to B;\u00a0\n}\n", 2, 19, "'\\xa0'"),
    ],
    ids=["tab", "crlf", "comment-at-end", "assertion-string-newline", "at-at-end",
         "digit-first", "no-break-space"],
)
def test_parse_error_positions(source, line, column, found):
    with pytest.raises(ParseError) as err:
        parse_global(source)
    assert (err.value.line, err.value.column, err.value.found) == (line, column, found)


def _error_fields(err: ParseError) -> tuple:
    return ("ParseError", err.line, err.column, err.expected, err.found)


def _position(source: str, offset: int) -> tuple:
    return source.count("\n", 0, offset) + 1, offset - source.rfind("\n", 0, offset)


def _oracle_tokens(source: str):
    try:
        return [(t.kind, t.value, t.line, t.column) for t in _tokenize(source)]
    except ParseError as err:
        return _error_fields(err)


def _tokens(source: str):
    try:
        tokens = parser_mod._tokenize(source)
    except ParseError as err:
        return _error_fields(err)
    # two eof tokens end the list, where the oracle has one
    assert tokens[-1] == tokens[-2] and tokens[-1][0] == "eof"
    return [(kind, value, *_position(source, offset)) for kind, value, offset in tokens[:-1]]


def _oracle_tuples(source: str) -> list:
    """The oracle's tokens in the parser's ``(kind, value, offset)`` form."""
    line_starts = [0] + [i + 1 for i, ch in enumerate(source) if ch == "\n"]
    tokens = [(t.kind, t.value, line_starts[t.line - 1] + t.column - 1) for t in _tokenize(source)]
    return tokens + tokens[-1:]


def _parse_outcome(source: str):
    try:
        return parse_protocol(source)
    except ParseError as err:
        return _error_fields(err)
    except ValidationError as err:
        return ("ValidationError", err.kind, str(err))


def _oracle_parse_outcome(source: str):
    with mock.patch.object(parser_mod, "_tokenize", _oracle_tuples):
        return _parse_outcome(source)


_FRAGMENTS = (
    "{", "}", "(", ")", ",", ":", ";",
    "global", "local", "protocol", "role", "at", "from", "to", "choice", "or",
    "rec", "parallel", "and", "A", "B", "M", "x", "int", "data", "_x1", "size",
    " ", "  ", "\t", "\r", "\n", "\r\n", "//", "// c ", "/",
    "@", "@{", '@{x == "}"}', '@{x == "\\"}"}', "@{size(data) <= 512}",
    "@{x != 'a\\\nb'}",
    '"', "'", "\\", "<=", "0", "7", "12",
    "ß", "²", "\u00a0", "\x0b", "\u2028",
)
_VALID = [serialize(protogen.random_global(seed)) for seed in range(20)]


@st.composite
def _sources(draw):
    fragments = draw(st.lists(st.sampled_from(_FRAGMENTS), max_size=40))
    if draw(st.booleans()):
        return "".join(fragments)
    # a valid protocol with the fragments spliced in at one place, so that
    # errors also come from deep inside a parse
    source = draw(st.sampled_from(_VALID))
    at = draw(st.integers(min_value=0, max_value=len(source)))
    cut = draw(st.integers(min_value=0, max_value=3))
    return source[:at] + "".join(fragments) + source[at + cut:]


@settings(max_examples=400)
@given(source=_sources())
def test_lexer_agrees_with_the_character_stepping_oracle(source):
    assert _tokens(source) == _oracle_tokens(source)
    assert _parse_outcome(source) == _oracle_parse_outcome(source)


def test_parse_protocol_agrees_with_the_oracle_on_generated_protocols():
    for seed in range(200):
        protocol = protogen.random_global(seed)
        sources = [serialize(protocol)]
        sources += [serialize(project(protocol, role).protocol) for role in protocol.roles]
        for source in sources:
            assert _tokens(source) == _oracle_tokens(source)
            assert _parse_outcome(source) == _oracle_parse_outcome(source)
