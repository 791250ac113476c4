import pytest

from parley.fsm import compile as compile_fsm
from parley.parser import parse_global
from parley.projection import NON_DIRECTED_CHOICE, project, project_all
from parley.protocol import (
    Choice,
    END,
    Rec,
    Receive,
    Send,
    ValidationError,
    local_message_triples,
    validate_local,
)

import protogen


def test_projection_matches_hand_written_view(daq_global, daq_local_a):
    assert project(daq_global, "A").protocol == daq_local_a


def test_projection_erases_unseen_messages(daq_global):
    local_u = project(daq_global, "U").protocol
    labels = {label for label, _, _ in local_message_triples(local_u.body, "U")}
    assert "Poll" not in labels
    assert "Raw" not in labels
    assert "Support" not in labels
    assert {"Request", "Formatted", "Stop"} <= labels


def test_assertion_lands_on_both_sides(daq_global):
    # sender side: the instrument's Raw send carries the bound
    local_i = project(daq_global, "I").protocol
    raw_sends = [
        n for n in _walk(local_i.body) if isinstance(n, Send) and n.sig.label == "Raw"
    ]
    assert raw_sends and all(
        n.assertion is not None and n.assertion.source_text == "size(data) <= 512"
        for n in raw_sends
    )
    # receiver side: the aggregator checks the same bound
    local_a = project(daq_global, "A").protocol
    raw_recvs = [
        n for n in _walk(local_a.body) if isinstance(n, Receive) and n.sig.label == "Raw"
    ]
    assert raw_recvs and all(n.assertion is not None for n in raw_recvs)


def test_warning_for_undirected_observer(daq_global):
    report = project(daq_global, "U")
    assert [w.kind for w in report.warnings] == [NON_DIRECTED_CHOICE]
    assert not project(daq_global, "A").warnings
    assert not project(daq_global, "I").warnings


def test_equal_branches_are_merged():
    g = parse_global(
        """
        global protocol P(role A, role B, role C) {
            choice at A {
                M from A to B;
                K from A to C;
            } or {
                N from A to B;
                K from A to C;
            }
        }
        """
    )
    local_c = project(g, "C").protocol
    assert local_c.body == Receive(
        local_c.body.sig, "A", END
    )  # one receive, no choice left


def test_branches_with_equal_assertions_merge():
    # each @{} is compiled on its own, yet the two Puts are equal: an
    # assertion compares by its source text, not by its closures
    g = parse_global(
        """
        global protocol P(role A, role B, role C) {
            choice at A {
                Go from A to C;
                @{n > 0}
                Put(int:n) from B to C;
            } or {
                Stay from A to C;
                @{n > 0}
                Put(int:n) from B to C;
            }
        }
        """
    )
    first, second = (branch.cont.assertion for branch in g.body.branches)
    assert first is not second
    report = project(g, "B")
    assert report.warnings == []
    assert report.protocol.body == Send(report.protocol.body.sig, "C", END, first)
    assert compile_fsm(report.protocol).state_count() == 2


def test_invisible_loop_collapses():
    g = parse_global(
        """
        global protocol P(role A, role B, role C) {
            Hello from A to C;
            rec X {
                M from A to B;
                X;
            }
        }
        """
    )
    local_c = project(g, "C").protocol
    assert isinstance(local_c.body, Receive)
    assert local_c.body.cont is END


def test_unused_binder_unwraps_without_breaking_outer_loop():
    g = parse_global(
        """
        global protocol P(role A, role B, role C) {
            rec Y {
                Hello from A to C;
                rec X {
                    M from A to B;
                    Y;
                }
            }
        }
        """
    )
    local_c = project(g, "C").protocol
    assert isinstance(local_c.body, Rec)
    assert local_c.body.var == "Y"
    hello = local_c.body.body
    assert isinstance(hello, Receive)
    assert hello.cont.var == "Y"


def test_parallel_branch_dropped_when_silent():
    g = parse_global(
        """
        global protocol P(role A, role B, role C) {
            parallel {
                M from A to B;
            } and {
                N from A to C;
            }
        }
        """
    )
    local_c = project(g, "C").protocol
    # only one branch involves C, so no parallel survives
    assert isinstance(local_c.body, Receive)
    assert local_c.body.sig.label == "N"


def test_unknown_role_rejected(daq_global):
    with pytest.raises(ValidationError) as err:
        project(daq_global, "Z")
    assert err.value.kind == "undeclared-role"


def test_project_all_covers_roles(daq_global):
    reports = project_all(daq_global)
    assert set(reports) == {"U", "A", "I"}
    for role, report in reports.items():
        assert report.protocol.self_role == role
        assert report.protocol.roles == daq_global.roles


def test_generated_projections_validate():
    for seed in range(80):
        protocol = protogen.random_global(seed)
        for role, report in project_all(protocol).items():
            if any(w.kind == NON_DIRECTED_CHOICE for w in report.warnings):
                continue
            validate_local(report.protocol)


def _walk(node):
    stack = [node]
    while stack:
        current = stack.pop()
        yield current
        for attr in ("cont", "body"):
            child = getattr(current, attr, None)
            if child is not None:
                stack.append(child)
        for branch in getattr(current, "branches", ()):
            stack.append(branch)
