import copy
import sys
from pathlib import Path

import pytest

import protogen
from parley import fsm as fsmmod
from parley import monitor as monitor_mod, predicates
from parley.bench import wide_source
from parley.fsm import compile as compile_fsm, product_oracle, trace_language
from parley.monitor import (
    COMPLETED,
    ConflictingInvitation,
    ENFORCE,
    ExternalCommandEngine,
    LogicEngine,
    Monitor,
    SUPPRESS,
    UnresolvableProtocol,
    VIOLATED,
    default_mode,
)
from parley.parser import parse_global, parse_local
from parley.projection import project
from parley.store import ProtocolStore
from parley.wire import IN_SESSION, ConversationMessage

ENGINE_SCRIPT = Path(__file__).parent / "data" / "logic_engine.py"


def msg(cid, label, sender, receiver, payload=()):
    return ConversationMessage(
        kind=IN_SESSION,
        cid=cid,
        sender=sender,
        receiver=receiver,
        label=label,
        payload=tuple(payload),
    )


@pytest.fixture()
def monitor(daq_store):
    return Monitor(daq_store.local)


@pytest.fixture()
def session(monitor):
    monitor.init_session("c1", "A", "DataAquisition_A.scr")
    return monitor


SUPPORTED_RUN_A = [
    ("Request", "U", "A", (("info", "wind"),)),
    ("Request", "A", "I", (("info", "wind"),)),
    ("Support", "I", "A", ()),
    ("Poll", "A", "I", ()),
    ("Raw", "I", "A", (("data", b"x" * 100),)),
    ("Poll", "A", "I", ()),
    ("Stop", "I", "A", ()),
    ("Stop", "A", "U", ()),
]


def test_init_session_idempotent(session):
    key = session.init_session("c1", "A", "DataAquisition_A.scr")
    assert key == ("c1", "A")
    assert session.session_status(key) == "active"


def test_conflicting_invitation(session, daq_store, daq_global):
    daq_store.register_local("other_A.scr", project(daq_global, "A").protocol)
    with pytest.raises(ConflictingInvitation):
        session.init_session("c1", "A", "other_A.scr")


def test_unresolvable_protocol(monitor):
    with pytest.raises(UnresolvableProtocol):
        monitor.init_session("c2", "A", "missing.scr")
    with pytest.raises(UnresolvableProtocol):
        # the capability names another role's view
        monitor.init_session("c2", "A", "DataAquisition_I.scr")


def test_unknown_session(monitor):
    verdict = monitor.check(msg("nope", "Request", "U", "A"), "A")
    assert not verdict.ok
    assert verdict.kind == "unknown-session"


def test_accepting_full_run_completes(session):
    for label, sender, receiver, payload in SUPPORTED_RUN_A:
        verdict = session.check(msg("c1", label, sender, receiver, payload), "A")
        assert verdict.ok, (label, verdict)
    assert session.session_status(("c1", "A")) == COMPLETED


def test_env_accumulates_bindings(session):
    session.check(msg("c1", "Request", "U", "A", (("info", "wind"),)), "A")
    state = session.sessions[("c1", "A")]
    assert state.env == {"info": "wind"}


def test_unexpected_label(session):
    verdict = session.check(msg("c1", "Poll", "A", "I"), "A")
    assert not verdict.ok
    assert verdict.kind == "unexpected-label"
    assert session.session_status(("c1", "A")) == VIOLATED


def test_violation_is_sticky(session):
    session.check(msg("c1", "Poll", "A", "I"), "A")
    verdict = session.check(msg("c1", "Request", "U", "A", (("info", "x"),)), "A")
    assert verdict.ok  # checking continues, the verdict reports the message
    assert session.session_status(("c1", "A")) == VIOLATED


def test_wrong_peer(daq_store):
    monitor = Monitor(daq_store.local)
    monitor.init_session("c1", "I", "DataAquisition_I.scr")
    # Request is enabled, but from A, not from U
    verdict = monitor.check(msg("c1", "Request", "U", "I", (("info", "x"),)), "I")
    assert not verdict.ok
    assert verdict.kind == "wrong-peer"


def test_assertion_boundary(session):
    for label, sender, receiver, payload in SUPPORTED_RUN_A[:4]:
        session.check(msg("c1", label, sender, receiver, payload), "A")
    ok = session.check(msg("c1", "Raw", "I", "A", (("data", b"x" * 512),)), "A")
    assert ok.ok  # 512 is within the bound
    session.check(msg("c1", "Poll", "A", "I"), "A")
    bad = session.check(msg("c1", "Raw", "I", "A", (("data", b"x" * 513),)), "A")
    assert not bad.ok
    assert bad.kind == "assertion-failed"
    assert "size(data) <= 512" in bad.detail


def test_checking_an_assertion_compiles_nothing(daq_store, monkeypatch):
    # the parser compiled size(data) <= 512 once; both monitors that check
    # it, the sender's and the receiver's, evaluate what it made
    def compile_refused(source):
        raise AssertionError(f"{source!r} compiled during a session")

    monkeypatch.setattr(predicates, "compile_predicate", compile_refused)
    monkeypatch.setattr(monitor_mod, "compile_predicate", compile_refused)
    formatted = ("Formatted", "I", "U", (("data", b"x"),))
    poll = ("Poll", "A", "I", ())
    for role, run in (
        ("A", SUPPORTED_RUN_A[:5] + [poll]),
        ("I", SUPPORTED_RUN_A[1:5] + [formatted, poll]),
    ):
        monitor = Monitor(daq_store.local)
        monitor.init_session("c1", role, f"DataAquisition_{role}.scr")
        for label, sender, receiver, payload in run:
            assert monitor.check(msg("c1", label, sender, receiver, payload), role).ok
        too_big = monitor.check(msg("c1", "Raw", "I", "A", (("data", b"x" * 513),)), role)
        assert (too_big.kind, too_big.detail) == (
            "assertion-failed",
            "size(data) <= 512 is false",
        )


def test_assertion_sees_earlier_bindings(daq_store):
    from parley.parser import parse_global
    from parley.store import ProtocolStore

    g = parse_global(
        "global protocol Bounds(role S, role C) {"
        " Limit(int:cap) from C to S;"
        " @{size(chunk) <= cap} Data(data:chunk) from S to C; }"
    )
    store = ProtocolStore()
    store.register_global(g)
    store.register_projections(g)
    monitor = Monitor(store.local)
    monitor.init_session("b1", "C", "Bounds_C.scr")
    assert monitor.check(msg("b1", "Limit", "C", "S", (("cap", 4),)), "C").ok
    assert monitor.check(msg("b1", "Data", "S", "C", (("chunk", b"abcd"),)), "C").ok
    monitor.init_session("b2", "C", "Bounds_C.scr")
    assert monitor.check(msg("b2", "Limit", "C", "S", (("cap", 2),)), "C").ok
    denied = monitor.check(msg("b2", "Data", "S", "C", (("chunk", b"abcd"),)), "C")
    assert denied.kind == "assertion-failed"


def test_quiet_moves_still_check_arity_bindings_and_assertions():
    g = parse_global(
        "global protocol Gate(role S, role C) {"
        " Limit(int:cap) from C to S;"
        " @{cap > 0} Go from S to C;"
        " Data(data:chunk) from S to C;"
        " Done from S to C; }"
    )
    store = ProtocolStore()
    store.register_projections(g)
    monitor = Monitor(store.local)
    machine = compile_fsm(store.local("Gate_C.scr"))
    quiet = {
        triple[0]: hit[2]
        for triple, (_, _, table) in machine.dispatch.items()
        for hit in table.values()
    }
    assert quiet == {"Limit": True, "Go": True, "Data": True, "Done": False}

    monitor.init_session("g1", "C", "Gate_C.scr")
    assert monitor.check(msg("g1", "Limit", "C", "S", (("cap", 0),)), "C").ok
    assert monitor.sessions[("g1", "C")].env == {"cap": 0}
    assert monitor.check(msg("g1", "Go", "S", "C"), "C").kind == "assertion-failed"
    assert monitor.session_status(("g1", "C")) == VIOLATED

    monitor.init_session("g2", "C", "Gate_C.scr")
    assert monitor.check(msg("g2", "Limit", "C", "S", (("cap", 1),)), "C").ok
    assert monitor.check(msg("g2", "Go", "S", "C"), "C").ok
    assert monitor.check(msg("g2", "Data", "S", "C"), "C").kind == "payload-arity"

    monitor.init_session("g3", "C", "Gate_C.scr")
    steps = [
        ("Limit", "C", "S", (("cap", 1),)),
        ("Go", "S", "C", ()),
        ("Data", "S", "C", (("chunk", b"x"),)),
        ("Done", "S", "C", ()),
    ]
    for label, sender, receiver, payload in steps:
        assert monitor.session_status(("g3", "C")) == "active"
        assert monitor.check(msg("g3", label, sender, receiver, payload), "C").ok
    assert monitor.sessions[("g3", "C")].env == {"cap": 1, "chunk": b"x"}
    assert monitor.session_status(("g3", "C")) == COMPLETED


def test_payload_arity(session):
    verdict = session.check(
        msg("c1", "Request", "U", "A", (("info", "x"), ("extra", 1))), "A"
    )
    assert not verdict.ok
    assert verdict.kind == "payload-arity"


def test_after_completion(session):
    for label, sender, receiver, payload in SUPPORTED_RUN_A:
        session.check(msg("c1", label, sender, receiver, payload), "A")
    verdict = session.check(msg("c1", "Stop", "A", "U"), "A")
    assert not verdict.ok
    assert verdict.kind == "after-completion"


def test_assertion_evaluation_error_detail(daq_store):
    from parley.parser import parse_global
    from parley.store import ProtocolStore

    g = parse_global(
        "global protocol Odd(role S, role C) {"
        " @{n / d == 1} Pair(int:n, int:d) from S to C; }"
    )
    store = ProtocolStore()
    store.register_global(g)
    store.register_projections(g)
    monitor = Monitor(store.local)
    monitor.init_session("o1", "C", "Odd_C.scr")
    verdict = monitor.check(msg("o1", "Pair", "S", "C", (("n", 1), ("d", 0))), "C")
    assert verdict.kind == "assertion-failed"
    assert "evaluation error" in verdict.detail


def test_enabled_triples(session):
    assert session.enabled_triples(("c1", "A")) == {("Request", "U", "A")}
    session.check(msg("c1", "Request", "U", "A", (("info", "x"),)), "A")
    assert session.enabled_triples(("c1", "A")) == {("Request", "A", "I")}


def test_trace_recording(daq_store):
    monitor = Monitor(daq_store.local, record_trace=True)
    monitor.init_session("c1", "A", "DataAquisition_A.scr")
    monitor.check(msg("c1", "Request", "U", "A", (("info", "x"),)), "A")
    monitor.check(msg("c1", "Poll", "A", "I"), "A")
    assert [(e.label, e.ok, e.kind) for e in monitor.trace] == [
        ("Request", True, None),
        ("Poll", False, "unexpected-label"),
    ]
    assert monitor.trace[0].direction == "incoming"
    assert monitor.trace[1].direction == "outgoing"

    silent = Monitor(daq_store.local, record_trace=False)
    silent.init_session("c1", "A", "DataAquisition_A.scr")
    silent.check(msg("c1", "Request", "U", "A", (("info", "x"),)), "A")
    assert silent.trace == []


def test_mode_from_environment(monkeypatch, daq_store):
    monkeypatch.delenv("MPST_MONITOR_MODE", raising=False)
    assert default_mode() == ENFORCE
    assert Monitor(daq_store.local).mode == ENFORCE
    monkeypatch.setenv("MPST_MONITOR_MODE", "suppress")
    assert default_mode() == SUPPRESS
    assert Monitor(daq_store.local).mode == SUPPRESS
    monkeypatch.setenv("MPST_MONITOR_MODE", "bogus")
    with pytest.raises(ValueError):
        Monitor(daq_store.local)


def test_terminal_with_outgoing_revives():
    protocol = parse_local(
        """
        local protocol Maybe at M(role M, role P) {
            rec X {
                choice at M {
                    More to P;
                    X;
                } or {
                }
            }
        }
        """
    )
    monitor = Monitor({"maybe": protocol}.__getitem__)
    monitor.init_session("m1", "M", "maybe")
    # nothing is owed: the empty branch makes the start state terminal
    assert monitor.session_status(("m1", "M")) == COMPLETED
    # yet the loop transition is still live, and taking it re-completes
    assert monitor.check(msg("m1", "More", "M", "P"), "M").ok
    assert monitor.session_status(("m1", "M")) == COMPLETED


def test_external_engine_matches_builtin(daq_store):
    engine = ExternalCommandEngine([sys.executable, str(ENGINE_SCRIPT)])
    external = Monitor(daq_store.local, engine=engine)
    external.init_session("c1", "A", "DataAquisition_A.scr")
    for label, sender, receiver, payload in SUPPORTED_RUN_A[:4]:
        assert external.check(msg("c1", label, sender, receiver, payload), "A").ok
    # bytes survive the JSON round trip to the subprocess
    at_bound = external.check(msg("c1", "Raw", "I", "A", (("data", b"y" * 512),)), "A")
    assert at_bound.ok
    assert external.check(msg("c1", "Poll", "A", "I"), "A").ok
    too_big = external.check(msg("c1", "Raw", "I", "A", (("data", b"y" * 513),)), "A")
    assert not too_big.ok
    assert too_big.kind == "assertion-failed"


def test_external_engine_failure_is_an_evaluation_error(daq_store):
    engine = ExternalCommandEngine([sys.executable, "-c", "import sys; sys.exit(3)"])
    monitor = Monitor(daq_store.local, engine=engine)
    monitor.init_session("c1", "A", "DataAquisition_A.scr")
    for label, sender, receiver, payload in SUPPORTED_RUN_A[:4]:
        monitor.check(msg("c1", label, sender, receiver, payload), "A")
    verdict = monitor.check(msg("c1", "Raw", "I", "A", (("data", b"x"),)), "A")
    assert verdict.kind == "assertion-failed"
    assert "evaluation error" in verdict.detail


class _Scribbler(LogicEngine):
    """An engine that tries to rebind what it is given before it passes."""

    def eval(self, assertion, env):
        with pytest.raises(TypeError):
            env["data"] = b"forged"
        with pytest.raises(TypeError):
            env["info"] = "forged"
        return True


def test_an_engine_cannot_change_the_session_bindings(daq_store):
    monitor = Monitor(daq_store.local, engine=_Scribbler())
    key = monitor.init_session("c1", "A", "DataAquisition_A.scr")
    for label, sender, receiver, payload in SUPPORTED_RUN_A[:5]:
        assert monitor.check(msg("c1", label, sender, receiver, payload), "A").ok
    assert monitor.sessions[key].env == {"info": "wind", "data": b"x" * 100}


def test_monitor_agrees_with_trace_language_over_the_grid():
    # every prefix of the nested machine's language is accepted, and leaves
    # enabled exactly the triples that extend it by one step
    prefixes = 0
    for local in protogen.local_grid():
        machine = compile_fsm(local)
        binders = {
            (k.label, k.sender, k.receiver): v.var_binders
            for thread in machine.threads
            for k, v in thread.transitions.items()
        }
        language = trace_language(machine, 6)
        extensions = {trace: set() for trace in language}
        for trace in language:
            if trace:
                extensions[trace[:-1]].add(trace[-1])
        for trace in language:
            if len(trace) >= 6:
                continue
            monitor = Monitor(lambda ref, local=local: local, record_trace=False)
            key = monitor.init_session("g", local.self_role, local.name)
            for triple in trace:
                payload = [(name, 0) for name in binders[triple]]
                verdict = monitor.check(msg("g", *triple, payload), local.self_role)
                assert verdict.ok, (local.name, trace, verdict.kind)
            assert monitor.enabled_triples(key) == extensions[trace], (local.name, trace)
            prefixes += 1
    assert prefixes > 5000


@pytest.mark.xfail(
    strict=True,
    reason="a rec that is one alternative of a choice loops back to the choice "
    "state, so every iteration re-enables the rival branch",
)
def test_rec_alternative_does_not_reenable_its_rival():
    local = parse_local(
        """
        local protocol T at B(role A, role B, role C) {
            choice at C {
                L0 from C;
            } or {
                rec X {
                    L5 from A;
                    X;
                }
            }
        }
        """
    )
    rival_after_loop = (("L5", "A", "B"), ("L0", "C", "B"))
    assert rival_after_loop not in trace_language(product_oracle(local), 2)
    monitor = Monitor(lambda ref: local)
    monitor.init_session("c", "B", "T")
    assert monitor.check(msg("c", "L5", "A", "B"), "B").ok
    assert not monitor.check(msg("c", "L0", "C", "B"), "B").ok


# --- one compiled machine per protocol reference --------------------------------


@pytest.fixture()
def compiles(monkeypatch):
    calls = []
    original = fsmmod.compile

    def counting(protocol):
        calls.append(protocol.name)
        return original(protocol)

    monkeypatch.setattr(fsmmod, "compile", counting)
    return calls


def test_sessions_of_one_ref_share_one_machine(daq_store, compiles):
    monitor = Monitor(daq_store.local)
    monitor.init_session("c1", "A", "DataAquisition_A.scr")
    monitor.init_session("c2", "A", "DataAquisition_A.scr")
    assert compiles == ["DataAquisition"]
    first, second = monitor.sessions[("c1", "A")], monitor.sessions[("c2", "A")]
    assert first.run.fsm is second.run.fsm
    assert monitor.machines["DataAquisition_A.scr"][1] is first.run.fsm


def test_stepping_one_session_leaves_the_other_and_the_machine_alone(daq_store):
    monitor = Monitor(daq_store.local)
    monitor.init_session("c1", "A", "DataAquisition_A.scr")
    monitor.init_session("c2", "A", "DataAquisition_A.scr")
    other = monitor.sessions[("c2", "A")].run
    machine = copy.deepcopy(other.fsm)
    before = (list(other.cursors), set(other.fired), list(other.pending), other.open)
    for label, sender, receiver, payload in SUPPORTED_RUN_A:
        assert monitor.check(msg("c1", label, sender, receiver, payload), "A").ok
    assert monitor.session_status(("c1", "A")) == COMPLETED
    assert (list(other.cursors), set(other.fired), list(other.pending), other.open) == before
    assert other.fsm == machine
    assert monitor.enabled_triples(("c2", "A")) == {("Request", "U", "A")}


def test_re_registered_ref_compiles_again(daq_global, compiles):
    store = ProtocolStore()
    store.register_projections(daq_global)
    monitor = Monitor(store.local)
    monitor.init_session("c1", "A", "DataAquisition_A.scr")
    store.register_projections(daq_global)  # a new LocalProtocol per role
    monitor.init_session("c2", "A", "DataAquisition_A.scr")
    monitor.init_session("c3", "A", "DataAquisition_A.scr")
    assert compiles == ["DataAquisition", "DataAquisition"]
    first, second = monitor.sessions[("c1", "A")], monitor.sessions[("c2", "A")]
    assert first.run.fsm is not second.run.fsm
    assert monitor.sessions[("c3", "A")].run.fsm is second.run.fsm


class _Touches(list):
    """A per-thread list that records which thread indices are used."""

    def __init__(self, values, touched):
        super().__init__(values)
        self.touched = touched

    def __getitem__(self, index):
        self.touched.add(index)
        return super().__getitem__(index)

    def __setitem__(self, index, value):
        self.touched.add(index)
        super().__setitem__(index, value)

    def __iter__(self):
        self.touched.update(range(len(self)))
        return super().__iter__()


@pytest.mark.parametrize("role", ["S", "C"])
def test_check_touches_threads_by_depth_not_width(role):
    # every check reads or writes the cursors and counters of the message's
    # thread and its ancestors only: one parallel level, so two threads
    for k in (1, 2, 4, 8, 16, 32):
        local = project(parse_global(wide_source(k)), role).protocol
        monitor = Monitor(lambda ref, local=local: local, record_trace=False)
        key = monitor.init_session("w", role, local.name)
        run = monitor.sessions[key].run
        assert len(run.fsm.threads) == 2 * k + 1
        depth = max(len(thread.chain) for thread in run.fsm.threads)
        touched = set()
        for name in ("cursors", "pending", "started"):
            setattr(run, name, _Touches(getattr(run, name), touched))
        counts = []
        steps = [(f"OK{i}", "S", "C") for i in range(1, k + 1)]
        steps += [(f"ACK{i}", "C", "S") for i in range(1, k + 1)]
        for triple in steps:
            touched.clear()
            assert monitor.check(msg("w", *triple), role).ok
            counts.append(len(touched))
        assert max(counts) == depth + 1 == 2, (k, counts)
        assert monitor.session_status(key) == COMPLETED


@pytest.mark.parametrize("role", ["S", "C"])
def test_refusal_touches_threads_by_depth_not_width(role):
    # a refused message reads the cursors, counters and flags of the threads
    # that carry its label, and of their ancestors, only: an unknown label
    # reads none, a known label between the wrong peers its thread and the root
    for k in (1, 2, 4, 8, 16, 32):
        local = project(parse_global(wide_source(k)), role).protocol
        monitor = Monitor(lambda ref, local=local: local, record_trace=False)
        for cid, triple, kind in (
            ("nope", ("NOPE", "S", "C"), "unexpected-label"),
            ("peer", ("OK1", "C", "S"), "wrong-peer"),
        ):
            key = monitor.init_session(cid, role, local.name)
            run = monitor.sessions[key].run
            touched = set()
            for name in ("cursors", "pending", "started"):
                setattr(run, name, _Touches(getattr(run, name), touched))
            verdict = monitor.check(msg(cid, *triple), role)
            assert verdict.kind == kind, (k, triple)
            assert len(touched) <= 2, (k, triple, touched)


def _snapshot(run):
    return list(run.cursors), set(run.fired), list(run.pending), list(run.started), run.open


@pytest.mark.parametrize("role", ["S", "C"])
def test_a_finished_session_leaves_the_machine_start_for_the_next(role):
    local = project(parse_global(wide_source(4)), role).protocol
    monitor = Monitor(lambda ref: local, record_trace=False)
    first = monitor.init_session("w1", role, local.name)
    start = monitor.sessions[first].run.fsm.start
    before = _snapshot(start)
    assert any(before[2])  # the root spawns at start: its join is pending
    assert monitor.sessions[first].run is not start
    steps = [(f"OK{i}", "S", "C") for i in range(1, 5)]
    steps += [(f"ACK{i}", "C", "S") for i in range(1, 5)]
    for triple in steps:
        assert monitor.check(msg("w1", *triple), role).ok
    assert monitor.session_status(first) == COMPLETED
    assert _snapshot(start) == before
    second = monitor.sessions[monitor.init_session("w2", role, local.name)].run
    assert second.fsm.start is start
    assert _snapshot(second) == before
