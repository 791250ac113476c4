import pytest

from parley.parser import ParseError, parse_global, parse_local, parse_protocol
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

from conftest import DAQ_GLOBAL_SRC, DAQ_LOCAL_A_SRC


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
