import copy
import gc
import random
import sys
import threading
import weakref
from collections import Counter
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
from parley.projection import project, project_all
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


def test_memoized_moves_still_check_arity_bindings_and_assertions():
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
    steps = [
        ("Limit", "C", "S", (("cap", 1),)),
        ("Go", "S", "C", ()),
        ("Data", "S", "C", (("chunk", b"x"),)),
        ("Done", "S", "C", ()),
    ]
    monitor.init_session("g0", "C", "Gate_C.scr")  # takes every move once
    for label, sender, receiver, payload in steps:
        assert monitor.check(msg("g0", label, sender, receiver, payload), "C").ok

    def memoized(cid, label, sender, receiver, payload=()):
        # the session's configuration has taken this triple before
        assert (label, sender, receiver) in monitor.sessions[(cid, "C")].config.moves
        return monitor.check(msg(cid, label, sender, receiver, payload), "C")

    monitor.init_session("g1", "C", "Gate_C.scr")
    assert memoized("g1", "Limit", "C", "S", (("cap", 0),)).ok
    assert monitor.sessions[("g1", "C")].env == {"cap": 0}
    assert memoized("g1", "Go", "S", "C").kind == "assertion-failed"
    assert monitor.session_status(("g1", "C")) == VIOLATED

    monitor.init_session("g2", "C", "Gate_C.scr")
    assert memoized("g2", "Limit", "C", "S", (("cap", 1),)).ok
    assert memoized("g2", "Go", "S", "C").ok
    assert memoized("g2", "Data", "S", "C").kind == "payload-arity"

    monitor.init_session("g3", "C", "Gate_C.scr")
    for label, sender, receiver, payload in steps:
        assert monitor.session_status(("g3", "C")) == "active"
        assert memoized("g3", label, sender, receiver, payload).ok
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
    assert first.config.run.fsm is second.config.run.fsm
    assert monitor.machines["DataAquisition_A.scr"][1] is first.config.run.fsm


def test_stepping_one_session_leaves_the_other_and_the_machine_alone(daq_store):
    monitor = Monitor(daq_store.local)
    monitor.init_session("c1", "A", "DataAquisition_A.scr")
    monitor.init_session("c2", "A", "DataAquisition_A.scr")
    other = monitor.sessions[("c2", "A")].config.run
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
    assert first.config.run.fsm is not second.config.run.fsm
    assert monitor.sessions[("c3", "A")].config.run.fsm is second.config.run.fsm


@pytest.mark.parametrize("role", ["S", "C"])
def test_a_warm_check_reads_the_thread_state_of_no_run(role, watch_threads):
    # once one session has taken every move, another session's checks are
    # lookups in the configurations' moves: no run's cursors or counters are
    # read, at any width
    for k in (1, 2, 4, 8, 16, 32):
        local = project(parse_global(wide_source(k)), role).protocol
        monitor = Monitor(lambda ref, local=local: local, record_trace=False)
        steps = [(f"OK{i}", "S", "C") for i in range(1, k + 1)]
        steps += [(f"ACK{i}", "C", "S") for i in range(1, k + 1)]
        first = monitor.init_session("w1", role, local.name)
        for triple in steps:
            assert monitor.check(msg("w1", *triple), role).ok
        assert monitor.session_status(first) == COMPLETED
        touched = set()
        for config in monitor.sessions[first].configs.table.values():
            watch_threads(config.run, touched)
        key = monitor.init_session("w2", role, local.name)
        for triple in steps:
            assert monitor.check(msg("w2", *triple), role).ok
        assert touched == set(), k
        assert monitor.session_status(key) == COMPLETED


@pytest.mark.parametrize("role", ["S", "C"])
def test_refusal_touches_threads_by_depth_not_width(role, watch_threads):
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
            touched = watch_threads(monitor.sessions[key].config.run, set())
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
    start = monitor.sessions[first].config.run.fsm.start
    before = _snapshot(start)
    assert any(before[2])  # the root spawns at start: its join is pending
    assert monitor.sessions[first].config.run is not start
    steps = [(f"OK{i}", "S", "C") for i in range(1, 5)]
    steps += [(f"ACK{i}", "C", "S") for i in range(1, 5)]
    for triple in steps:
        assert monitor.check(msg("w1", *triple), role).ok
    assert monitor.session_status(first) == COMPLETED
    assert _snapshot(start) == before
    second = monitor.sessions[monitor.init_session("w2", role, local.name)].config.run
    assert second.fsm.start is start
    assert _snapshot(second) == before


# --- memoized configurations against the interpreter ------------------------------


class _Holds(LogicEngine):
    """Every assertion holds, so a verdict depends on the machine alone."""

    def eval(self, assertion, env):
        return True


def _differential_locals():
    for seed in range(200):
        for _, report in sorted(project_all(protogen.random_global(seed)).items()):
            try:
                compile_fsm(report.protocol)
            except fsmmod.CompileError:
                continue
            yield report.protocol


def _expected_kind(run, violated, triple):
    """The verdict kind the monitor owes ``triple`` at ``run``."""
    if run.transition(triple) is not None:
        return None
    if not run.open and not violated:
        return "after-completion"
    if any(run.transition(other) for other in run.fsm.by_label.get(triple[0], ())):
        return "wrong-peer"
    return "unexpected-label"


def _walk(rng, machine):
    """A triple to send next: mostly an enabled one, else an unknown label, a
    known label between the wrong peers, or any triple the machine knows."""
    enabled = sorted(machine.enabled())
    roll = rng.random()
    if enabled and roll < 0.7:
        return rng.choice(enabled)
    if roll < 0.8 or not machine.fsm.dispatch:
        return ("NOPE", "A", "B")
    label, sender, receiver = rng.choice(sorted(machine.fsm.dispatch))
    if roll < 0.9:
        return (label, receiver, sender)
    return (label, sender, receiver)


def _differential_walks():
    """Walk seeded sessions of every compiling projection of random_global(0..199)
    through a memoized monitor and a run stepped directly, comparing them at
    every step; returns the verdict kinds seen and the moves found memoized."""
    rng = random.Random(27)
    kinds, memoized = Counter(), 0
    for local in _differential_locals():
        monitor = Monitor(lambda ref, local=local: local, engine=_Holds(), record_trace=False)
        for walk in range(4):
            key = monitor.init_session(f"d{walk}", local.self_role, local.name)
            state = monitor.sessions[key]
            direct, violated = state.configs.start.run.fsm.start.copy(), False
            for _ in range(12):
                triple = _walk(rng, direct)
                hit = direct.transition(triple)
                payload = [(name, 0) for name in hit[1].var_binders] if hit else []
                expected = _expected_kind(direct, violated, triple)
                memoized += triple in state.config.moves
                verdict = monitor.check(msg(f"d{walk}", *triple, payload), local.self_role)
                where = (local.name, local.self_role, walk, triple)
                assert verdict.kind == expected, where
                if hit is None:
                    violated = True
                else:
                    direct.step(hit)
                kinds[verdict.kind] += 1
                status = "violated" if violated else "active" if direct.open else "completed"
                assert monitor.session_status(key) == status, where
                assert monitor.enabled_triples(key) == set(direct.enabled()), where
                assert _snapshot(state.config.run) == _snapshot(direct), where
            monitor.end_session(f"d{walk}", local.self_role)
    return kinds, memoized


@pytest.mark.parametrize("cap", [None, 2], ids=["cap", "cap-2"])
def test_memoized_monitor_agrees_with_a_directly_stepped_run(cap, monkeypatch):
    # with the table's own cap, and with a cap of 2, so that the table drops
    # everything in the middle of most walks
    if cap is not None:
        monkeypatch.setattr(fsmmod, "CONFIG_CAP", cap)
    kinds, memoized = _differential_walks()
    assert kinds[None] > 5000 and memoized > 1000, (kinds, memoized)
    for kind in ("unexpected-label", "wrong-peer", "after-completion"):
        assert kinds[kind] > 100, kinds


@pytest.mark.parametrize("kept", [(0, 1, 3, 4), (0, 2, 3)], ids=["no-pending", "no-fired-open"])
def test_the_differential_walk_kills_a_partial_key(kept, monkeypatch):
    # A table that interns by less than the whole of a run's state merges
    # configurations that differ, and the walk sees it. Of the key's parts
    # (cursors, fired, pending, started, open), started, fired and open are
    # each implied by the rest on every run the walks reach, so a key without
    # just one of them merges nothing, and no walk could tell.
    whole = fsmmod.Run.key
    monkeypatch.setattr(fsmmod.Run, "key", lambda run: tuple(whole(run)[i] for i in kept))
    with pytest.raises(AssertionError):
        _differential_walks()


def _interleaving(rng, k):
    """A seeded order of wide_source(k)'s messages that keeps each branch's."""
    branches = [[(f"OK{i}", "S", "C"), (f"ACK{i}", "C", "S")] for i in range(1, k + 1)]
    order = []
    while branches:
        branch = rng.choice(branches)
        order.append(branch.pop(0))
        if not branch:
            branches.remove(branch)
    return order


def _edges(configs):
    return sum(len(config.moves) for config in configs.table.values())


@pytest.mark.parametrize("role", ["S", "C"])
def test_the_configuration_table_stays_within_its_cap(role, monkeypatch):
    # wide_source(6) reaches 3**6 configurations of its six branches, more
    # than the cap, so seeded interleavings fill the table and make it drop
    # everything, again and again; refusals in between add nothing
    alive, made = weakref.WeakSet(), []
    init = fsmmod.Config.__init__

    def tracked(config, run):
        init(config, run)
        alive.add(config)
        made.append(None)

    monkeypatch.setattr(fsmmod.Config, "__init__", tracked)
    cap = fsmmod.CONFIG_CAP
    rng = random.Random(6)
    local = project(parse_global(wide_source(6)), role).protocol
    monitor = Monitor(lambda ref: local, record_trace=False)
    orders = set()
    for n in range(cap + 44):
        cid = f"w{n}"
        key = monitor.init_session(cid, role, local.name)
        state = monitor.sessions[key]
        order = _interleaving(rng, 6)
        orders.add(tuple(order))
        for triple in order:
            if rng.random() < 0.3:
                hostile = ("NOPE", "S", "C") if rng.random() < 0.5 else (triple[0], "C", "C")
                before = (len(state.configs.table), _edges(state.configs), len(state.config.moves))
                refused = monitor.check(msg(cid, *hostile), role)
                assert refused.kind in ("unexpected-label", "wrong-peer"), (hostile, refused)
                after = (len(state.configs.table), _edges(state.configs), len(state.config.moves))
                assert after == before, hostile
            assert monitor.check(msg(cid, *triple), role).ok
            assert len(state.configs.table) <= cap
        assert monitor.session_status(key) in (VIOLATED, COMPLETED)
        monitor.end_session(cid, role)
    assert len(orders) > cap and len(made) > 2 * cap
    assert not monitor.sessions
    gc.collect()
    assert len(alive) <= cap


def test_threads_racing_on_one_monitor_each_follow_their_own_run(monkeypatch):
    # four threads check their own sessions against one standalone monitor
    # whose table holds 8 configurations, so it fills and starts again while
    # the others intern and record moves: a lost or crossed move would show
    # as a session whose enabled triples are not its run's
    monkeypatch.setattr(fsmmod, "CONFIG_CAP", 8)
    local = project(parse_global(wide_source(4)), "S").protocol
    monitor = Monitor(lambda ref: local, record_trace=False)
    errors = []
    ready = threading.Barrier(4)

    def drive(n):
        rng = random.Random(n)
        try:
            ready.wait(timeout=5)
            for k in range(100):
                cid = f"t{n}.{k}"
                key = monitor.init_session(cid, "S", local.name)
                direct = monitor.sessions[key].configs.start.run.copy()
                for triple in _interleaving(rng, 4):
                    assert monitor.check(msg(cid, *triple), "S").ok
                    direct.step(direct.transition(triple))
                    assert monitor.enabled_triples(key) == set(direct.enabled())
                assert monitor.session_status(key) == COMPLETED
                monitor.end_session(cid, "S")
        except BaseException as exc:
            errors.append(exc)

    threads = [threading.Thread(target=drive, args=(n,)) for n in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert not monitor.sessions
