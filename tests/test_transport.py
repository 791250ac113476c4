"""Endpoint lifecycle over the mediated broker.

Broker delivery is synchronous, so sequential send/receive calls in one
thread exercise the full mediation chain deterministically; threads appear
only where blocking behaviour itself is under test.
"""

import sys
import threading
import time
from collections import Counter
from types import MappingProxyType

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import parley.endpoint as endpoint_mod
from parley.bench import pingpong_source
from parley.broker import NO_HEADERS, Broker
from parley.endpoint import (
    ConversationRuntime,
    FORWARDER,
    MONITOR,
    NONE,
    inbox_queue,
    make_invitation_config,
    outbound_queue,
)
from parley.parser import parse_global, parse_local
from parley.store import ProtocolStore, local_ref
from parley.wire import (
    IN_SESSION,
    INVITATION,
    ConversationMessage,
    DuplicateRegistration,
    IncompleteConfig,
    InvitationConfig,
    InvitationEntry,
    NotJoined,
    RoleMismatch,
    SessionEnded,
    Timeout,
    TransportError,
    UnknownPeerRole,
    X_MEDIATED_IN,
    X_MEDIATED_OUT,
    X_PRINCIPAL,
    X_PROTOCOL_REF,
    X_ROLE,
    decode_message,
    encode_message,
    is_plain,
)

from conftest import DAQ_PRINCIPALS


def start(daq_store, daq_config, **kw):
    runtime = ConversationRuntime(daq_store, **kw)
    u = runtime.endpoint("user")
    cid = u.create("DataAquisition", daq_config)
    a = runtime.endpoint("agg").join("A")
    i = runtime.endpoint("instr").join("I")
    return runtime, cid, u, a, i


def config_with_capability(swapped: str, capability: str) -> InvitationConfig:
    """The DataAquisition config with role ``swapped`` given ``capability``."""
    return InvitationConfig(
        tuple(
            InvitationEntry(
                role,
                principal,
                capability if role == swapped else local_ref("DataAquisition", role),
            )
            for role, principal in DAQ_PRINCIPALS.items()
        )
    )


def run_not_supported(u, a, i):
    u.send("A", "Request", {"info": "x"})
    assert a.receive("U") == ("Request", {"info": "x"})
    a.send("I", "Request", {"info": "x"})
    assert i.receive("A") == ("Request", {"info": "x"})
    i.send("A", "NotSupported")
    assert a.receive("I") == ("NotSupported", {})
    a.send("I", "Stop")
    assert i.receive("A") == ("Stop", {})
    a.send("U", "Stop")
    assert u.receive("A") == ("Stop", {})


def test_monitored_not_supported_run(daq_store, daq_config):
    runtime, cid, u, a, i = start(daq_store, daq_config)
    run_not_supported(u, a, i)
    assert u.status() == "completed"
    assert a.status() == "completed"
    assert i.status() == "completed"
    assert runtime.dropped == []
    assert runtime.mediation_violations == []


def test_monitored_polling_run(daq_store, daq_config):
    runtime, cid, u, a, i = start(daq_store, daq_config)
    u.send("A", "Request", {"info": "wind"})
    a.receive("U")
    a.send("I", "Request", {"info": "wind"})
    i.receive("A")
    i.send("A", "Support")
    assert a.receive("I") == ("Support", {})
    for round_no in range(2):
        a.send("I", "Poll")
        assert i.receive("A") == ("Poll", {})
        i.send("A", "Raw", {"data": bytes(10 * (round_no + 1))})
        label, payload = a.receive("I")
        assert label == "Raw"
        assert len(payload["data"]) == 10 * (round_no + 1)
        i.send("U", "Formatted", {"data": b"reading"})
        assert u.receive("I") == ("Formatted", {"data": b"reading"})
    a.send("I", "Poll")
    i.receive("A")
    i.send("A", "Stop")
    assert a.receive("I") == ("Stop", {})
    a.send("U", "Stop")
    assert u.receive("A") == ("Stop", {})
    assert {u.status(), a.status(), i.status()} == {"completed"}


def test_create_checks_config_against_roles(daq_store, daq_config):
    runtime = ConversationRuntime(daq_store)
    u = runtime.endpoint("user")
    missing = InvitationConfig(daq_config.entries[:2])
    with pytest.raises(IncompleteConfig, match="missing roles: I"):
        u.create("DataAquisition", missing)
    extra = InvitationConfig(
        daq_config.entries + (InvitationEntry("Z", "zed", "DataAquisition_Z.scr"),)
    )
    with pytest.raises(IncompleteConfig, match="unknown roles: Z"):
        u.create("DataAquisition", extra)
    stranger = runtime.endpoint("stranger")
    with pytest.raises(IncompleteConfig, match="no invitation entry"):
        stranger.create("DataAquisition", daq_config)


def test_create_accepts_config_file_path(daq_store, tmp_path):
    path = tmp_path / "daq.yml"
    path.write_text(
        "invitations:\n"
        + "".join(
            f"  - role: {role}\n"
            f"    principal name: {principal}\n"
            f"    local capability: {local_ref('DataAquisition', role)}\n"
            for role, principal in DAQ_PRINCIPALS.items()
        )
    )
    runtime = ConversationRuntime(daq_store)
    u = runtime.endpoint("user")
    cid = u.create("DataAquisition", str(path))
    assert u.cid == cid
    assert u.role == "U"
    assert u.roles == ("U", "A", "I")


def test_double_create_and_double_join_rejected(daq_store, daq_config):
    runtime, cid, u, a, i = start(daq_store, daq_config)
    with pytest.raises(TransportError):
        u.create("DataAquisition", daq_config)
    with pytest.raises(TransportError):
        a.join("A", timeout=0.1)


def test_join_role_and_principal_mismatch(daq_store, daq_config):
    runtime = ConversationRuntime(daq_store)
    runtime.endpoint("user").create("DataAquisition", daq_config)
    agg = runtime.endpoint("agg")
    with pytest.raises(RoleMismatch, match="belongs to agg"):
        agg.join("A", principal="instr")
    with pytest.raises(RoleMismatch, match="offers role A"):
        agg.join("I")


@pytest.mark.parametrize("case", [MONITOR, FORWARDER, NONE])
def test_join_takes_the_invitation_for_its_role(daq_store, case):
    # agg is invited as A into one session and as I into another
    runtime = ConversationRuntime(daq_store, case=case)
    first = runtime.endpoint("user").create(
        "DataAquisition",
        make_invitation_config("DataAquisition", {"U": "user", "A": "agg", "I": "instr"}),
    )
    second = runtime.endpoint("user2").create(
        "DataAquisition",
        make_invitation_config("DataAquisition", {"U": "user2", "A": "agg2", "I": "agg"}),
    )
    as_i = runtime.endpoint("agg").join("I", timeout=0.1)
    as_a = runtime.endpoint("agg").join("A", timeout=0.1)
    assert (as_i.cid, as_i.role) == (second, "I")
    assert (as_a.cid, as_a.role) == (first, "A")
    assert not runtime.node("agg").pending
    assert runtime.mediation_violations == []


@pytest.mark.parametrize("case", [MONITOR, FORWARDER, NONE])
def test_create_joins_the_session_it_created(daq_store, case):
    # user holds an invitation to role U from boss's session when it creates
    # its own session in that role
    runtime = ConversationRuntime(daq_store, case=case)
    theirs = runtime.endpoint("boss").create(
        "DataAquisition",
        make_invitation_config("DataAquisition", {"U": "user", "A": "boss", "I": "instr"}),
    )
    user = runtime.endpoint("user")
    ours = user.create("DataAquisition", make_invitation_config("DataAquisition", DAQ_PRINCIPALS))
    assert (user.cid, user.role) == (ours, "U")
    agg = runtime.endpoint("agg").join("A", timeout=0.1)
    user.send("A", "Request", {"info": "x"})
    assert agg.receive("U", timeout=1) == ("Request", {"info": "x"})
    later = runtime.endpoint("user").join("U", timeout=0.1)
    assert later.cid == theirs
    assert not runtime.node("user").pending
    assert runtime.mediation_violations == []


def test_join_times_out_without_invitation(daq_store):
    runtime = ConversationRuntime(daq_store)
    with pytest.raises(Timeout):
        runtime.endpoint("agg").join("A", timeout=0.05)


def test_unjoined_and_unknown_peer_errors(daq_store, daq_config):
    runtime = ConversationRuntime(daq_store)
    lone = runtime.endpoint("user")
    with pytest.raises(NotJoined):
        lone.send("A", "Request", {"info": "x"})
    with pytest.raises(NotJoined):
        lone.receive("A")
    cid = lone.create("DataAquisition", daq_config)
    with pytest.raises(UnknownPeerRole, match="own role"):
        lone.send("U", "Request")
    with pytest.raises(UnknownPeerRole):
        lone.receive("Q", timeout=0.1)

    # Each messaging call on four endpoints, with each error's exact type and text.
    stopped = runtime.endpoint("agg").join("A")
    stopped.stop()
    unjoined = runtime.endpoint("instr")
    calls = (
        lambda endpoint, role: endpoint.send(role, "Request", {"info": "x"}),
        lambda endpoint, role: endpoint.receive(role, timeout=0.1),
        lambda endpoint, role: endpoint.receive_async(role, lambda label, payload: None),
    )
    cases = (
        (unjoined, "A", NotJoined, "endpoint has not joined a conversation"),
        (stopped, "U", NotJoined, "endpoint was stopped"),
        (lone, "U", UnknownPeerRole, "U is this endpoint's own role"),
        (lone, "Q", UnknownPeerRole, "Q is not a role of this conversation"),
    )
    for endpoint, role, error, text in cases:
        for call in calls:
            with pytest.raises(error) as caught:
                call(endpoint, role)
            assert type(caught.value) is error and str(caught.value) == text
    assert lone._callbacks == {}  # no refused registration was kept


def test_receive_timeout(daq_store, daq_config):
    runtime, cid, u, a, i = start(daq_store, daq_config)
    with pytest.raises(Timeout):
        u.receive("A", timeout=0.05)


def test_stop_unblocks_receive_and_is_idempotent(daq_store, daq_config):
    runtime, cid, u, a, i = start(daq_store, daq_config)
    threading.Timer(0.05, u.stop).start()
    with pytest.raises(SessionEnded):
        u.receive("A", timeout=2)
    u.stop()
    with pytest.raises(NotJoined):
        u.send("A", "Request", {"info": "x"})


def test_receive_after_completion_raises_session_ended(daq_store, daq_config):
    runtime, cid, u, a, i = start(daq_store, daq_config)
    run_not_supported(u, a, i)
    with pytest.raises(SessionEnded, match="completed"):
        u.receive("A", timeout=1)


def test_receive_async_callbacks(daq_store, daq_config):
    runtime, cid, u, a, i = start(daq_store, daq_config)
    got = []
    fired = threading.Event()
    u.receive_async("A", lambda label, payload: (got.append((label, payload)), fired.set()))
    with pytest.raises(DuplicateRegistration):
        u.recv_async("A", lambda label, payload: None)
    u.send("A", "Request", {"info": "x"})
    a.receive("U")
    a.send("I", "Request", {"info": "x"})
    i.receive("A")
    i.send("A", "NotSupported")
    a.receive("I")
    a.send("I", "Stop")
    i.receive("A")
    a.send("U", "Stop")
    assert fired.wait(2)
    assert got == [("Stop", {})]
    # a fresh registration with the message already buffered fires immediately
    again = threading.Event()
    runtime2, cid2, u2, a2, i2 = start(daq_store, daq_config)
    u2.send("A", "Request", {"info": "y"})
    a2.receive_async("U", lambda label, payload: again.set())
    assert again.wait(2)
    assert u.callback_errors == []


def test_callback_exception_is_contained(daq_store, daq_config):
    runtime, cid, u, a, i = start(daq_store, daq_config)

    def boom(label, payload):
        raise RuntimeError("callback bug")

    a.receive_async("U", boom)
    u.send("A", "Request", {"info": "x"})
    deadline = threading.Event()
    deadline.wait(0.2)
    assert len(a.callback_errors) == 1
    # delivery survived; the conversation can continue
    a.send("I", "Request", {"info": "x"})
    assert i.receive("A") == ("Request", {"info": "x"})


def test_enforce_drops_illegal_send(daq_store, daq_config):
    runtime, cid, u, a, i = start(daq_store, daq_config)
    u.send("A", "Poll")  # the user never polls
    assert len(runtime.dropped) == 1
    stage, verdict, message = runtime.dropped[0]
    assert stage == "send"
    assert verdict.kind == "unexpected-label"
    assert u.status() == "violated"
    with pytest.raises(Timeout):
        a.receive("U", timeout=0.05)
    assert a.status() == "active"


def test_suppress_forwards_but_flags(daq_store, daq_config):
    runtime, cid, u, a, i = start(daq_store, daq_config, monitor_mode="suppress")
    u.send("A", "Request", {"info": "x"})
    a.receive("U")
    u.send("A", "Request", {"info": "again"})  # out of turn
    assert a.receive("U") == ("Request", {"info": "again"})
    assert runtime.dropped == []
    assert u.status() == "violated"
    assert a.status() == "violated"


def test_forwarder_mediates_without_checking(daq_store, daq_config):
    runtime, cid, u, a, i = start(daq_store, daq_config, case=FORWARDER)
    run_not_supported(u, a, i)
    assert u.status() == "unknown"
    assert runtime.monitor_for("user") is None
    # no FSM anywhere: an out-of-protocol message sails through
    u.send("A", "Gibberish")
    assert a.receive("U") == ("Gibberish", {})


@pytest.mark.parametrize("case", [MONITOR, FORWARDER])
def test_mediated_hop_reaches_only_the_receivers_mediator(daq_store, daq_config, case, monkeypatch):
    # each publish on the session exchange hits one queue, the receiver's
    # mediator queue, which pushes on to the receiver's inbox; the sender's
    # own mediator never sees its message a second time
    runtime, cid, u, a, i = start(daq_store, daq_config, case=case)
    broker = runtime.broker
    real_publish, real_push = broker.publish, broker.push
    hops = []  # (routing key, hit count, queues pushed to during the publish)
    pushed = None

    def publish(exchange, key, data, headers=None):
        nonlocal pushed
        if exchange != f"s.{cid}":
            return real_publish(exchange, key, data, headers)
        pushed = []
        hits = real_publish(exchange, key, data, headers)
        hops.append((key, hits, pushed))
        pushed = None
        return hits

    def push(queue, data, headers=None):
        if pushed is not None:
            pushed.append(queue)
        real_push(queue, data, headers)

    monkeypatch.setattr(broker, "publish", publish)
    monkeypatch.setattr(broker, "push", push)
    run_not_supported(u, a, i)

    expected = []
    for sender, receiver in [("U", "A"), ("A", "I"), ("I", "A"), ("A", "I"), ("A", "U")]:
        principal = DAQ_PRINCIPALS[receiver]
        queues = [f"mq.s.{principal}.{cid}", inbox_queue(principal, cid)]
        expected.append((f"{cid}.{sender}.{receiver}", 1, queues))
    assert hops == expected
    assert runtime.dropped == []
    assert runtime.mediation_violations == []


def test_unmediated_case(daq_store, daq_config):
    runtime, cid, u, a, i = start(daq_store, daq_config, case=NONE)
    run_not_supported(u, a, i)
    assert u.status() == "unknown"
    assert runtime.mediation_violations == []


def test_pushed_message_without_tags_is_refused(daq_store, daq_config):
    # straight onto the inbox queue, around both mediators
    runtime, cid, u, a, i = start(daq_store, daq_config)
    forged = ConversationMessage(
        kind=IN_SESSION, cid=cid, sender="A", receiver="U", label="Stop"
    )
    runtime.broker.push(inbox_queue("user", cid), encode_message(forged))
    assert len(runtime.mediation_violations) == 1
    queue_name, reason, message = runtime.mediation_violations[0]
    assert queue_name == inbox_queue("user", cid)
    assert "mediation" in reason
    with pytest.raises(Timeout):
        u.receive("A", timeout=0.05)


def test_forged_tags_are_refused(daq_store, daq_config):
    runtime, cid, u, a, i = start(daq_store, daq_config)
    forged = ConversationMessage(
        kind=IN_SESSION,
        cid=cid,
        sender="A",
        receiver="U",
        label="Stop",
        extras=((X_MEDIATED_OUT, "I"), (X_MEDIATED_IN, "U")),
    )
    runtime.broker.push(inbox_queue("user", cid), encode_message(forged))
    assert runtime.mediation_violations
    with pytest.raises(Timeout):
        u.receive("A", timeout=0.05)


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="the inbox audit compares role names, which anyone holding the broker "
    "can write as headers (ROADMAP W, forgery probe 1)",
)
@pytest.mark.parametrize("case", [MONITOR, FORWARDER])
def test_a_ko_pushed_onto_the_inbox_with_both_stamps_is_refused(case):
    store = ProtocolStore()
    pingpong = parse_global(pingpong_source())
    store.register_global(pingpong)
    store.register_projections(pingpong)
    runtime = ConversationRuntime(store, case=case)
    server = runtime.endpoint("srv")
    cid = server.create("PingPong", make_invitation_config("PingPong", {"S": "srv", "C": "cli"}))
    client = runtime.endpoint("cli").join("C")
    ko = ConversationMessage(IN_SESSION, cid, "S", "C", "KO")
    stamps = {X_MEDIATED_OUT: "S", X_MEDIATED_IN: "C"}
    runtime.broker.push(inbox_queue("cli", cid), ko, stamps)
    assert len(runtime.mediation_violations) == 1
    with pytest.raises(Timeout):
        client.receive("S", timeout=0.01)


def test_injected_exchange_message_is_checked_then_audited(daq_store, daq_config):
    # publishing to the session exchange reaches the receiver-side mediator:
    # an illegal forgery is dropped by its monitor, a legal-looking one gets
    # a receive stamp but still fails the inbox audit (no sender stamp)
    runtime, cid, u, a, i = start(daq_store, daq_config)
    illegal = ConversationMessage(
        kind=IN_SESSION, cid=cid, sender="I", receiver="A", label="Raw"
    )
    runtime.broker.publish(f"s.{cid}", f"{cid}.I.A", encode_message(illegal))
    assert [stage for stage, _, _ in runtime.dropped] == ["deliver"]

    legal = ConversationMessage(
        kind=IN_SESSION,
        cid=cid,
        sender="U",
        receiver="A",
        label="Request",
        payload=(("info", "x"),),
    )
    runtime.broker.publish(f"s.{cid}", f"{cid}.U.A", encode_message(legal))
    assert runtime.mediation_violations
    with pytest.raises(Timeout):
        a.receive("U", timeout=0.05)


@pytest.mark.parametrize("case", [MONITOR, FORWARDER])
def test_an_object_published_after_the_sender_mediator_is_judged_like_bytes(
    daq_store, daq_config, case
):
    # an object whose payload is no tuple of pairs, published on the session
    # exchange with the sender's stamp: the receiver's mediator judges it,
    # records it as unencodable and leaves its monitor session as it was
    runtime, cid, u, a, i = start(daq_store, daq_config, case=case)
    monitor = runtime.monitor_for("agg")

    def session():
        if monitor is None:
            return None
        state = monitor.sessions[cid, "A"]
        return list(state.run.cursors), dict(state.env), state.violated

    before = session()
    odd = ConversationMessage(IN_SESSION, cid, "U", "A", "Request", 5)
    runtime.broker.publish(f"s.{cid}", f"{cid}.U.A", odd, {X_MEDIATED_OUT: "U"})
    assert [message for _, _, message in runtime.mediation_violations] == [odd]
    with pytest.raises(Timeout):
        a.receive("U", timeout=0.05)
    assert session() == before
    run_not_supported(u, a, i)


def test_body_stamps_without_headers_are_refused(daq_store, daq_config):
    # the stamps travel as broker headers; correct ones in the body's extras
    # do not stand in for them
    runtime, cid, u, a, i = start(daq_store, daq_config)
    forged = ConversationMessage(
        kind=IN_SESSION,
        cid=cid,
        sender="A",
        receiver="U",
        label="Stop",
        extras=((X_MEDIATED_OUT, "A"), (X_MEDIATED_IN, "U")),
    )
    runtime.broker.push(inbox_queue("user", cid), encode_message(forged))
    assert len(runtime.mediation_violations) == 1
    assert runtime.mediation_violations[0][0] == inbox_queue("user", cid)
    with pytest.raises(Timeout):
        u.receive("A", timeout=0.05)


def test_invitation_stamped_in_its_body_never_binds(daq_store):
    # published on the invite exchange around the creator's mediator
    runtime = ConversationRuntime(daq_store)
    runtime.node("user")
    sneaky = ConversationMessage(
        kind=INVITATION,
        cid="forged",
        sender="A",
        receiver="U",
        extras=(
            (X_ROLE, "U"),
            (X_PRINCIPAL, "user"),
            (X_PROTOCOL_REF, local_ref("DataAquisition", "U")),
            (X_MEDIATED_OUT, "A"),
            (X_MEDIATED_IN, "U"),
        ),
    )
    runtime.broker.publish("invite", "user", encode_message(sneaky))
    ep = runtime.endpoint("user")
    with pytest.raises(Timeout):
        ep.join("U", timeout=0.1)
    assert runtime.mediation_violations == [
        ("mq.inv.user", "invitation without its sender's stamp", sneaky)
    ]
    assert ep.cid is None


@pytest.mark.parametrize("case", [MONITOR, FORWARDER, NONE])
def test_plain_messages_are_never_encoded_or_decoded(daq_store, daq_config, case, monkeypatch):
    # a plain message crosses every hop as itself: neither create's
    # invitations nor the sends are encoded or decoded, and each inbox gets
    # the very object its sender built
    coded = []

    def refuse(body):
        coded.append(body)
        raise AssertionError("a plain message was encoded or decoded")

    monkeypatch.setattr(endpoint_mod, "encode_message", refuse)
    monkeypatch.setattr(endpoint_mod, "decode_message", refuse)
    runtime = ConversationRuntime(daq_store, case=case)
    broker = runtime.broker
    crossed = {"mq.out": [], "invite": [], "s": [], "in": []}  # bodies per hop
    real_publish, real_push = broker.publish, broker.push

    def publish(exchange, key, body, headers=None):
        crossed["s" if exchange.startswith("s.") else exchange].append(body)
        return real_publish(exchange, key, body, headers)

    def push(queue, body, headers=None):
        for hop in ("mq.out", "in"):
            if queue.startswith(hop + "."):
                crossed[hop].append(body)
        real_push(queue, body, headers)

    monkeypatch.setattr(broker, "publish", publish)
    monkeypatch.setattr(broker, "push", push)
    u = runtime.endpoint("user")
    cid = u.create("DataAquisition", daq_config)
    a = runtime.endpoint("agg").join("A")
    i = runtime.endpoint("instr").join("I")
    run_not_supported(u, a, i)
    assert coded == []
    assert len(crossed["s"]) == 5
    assert len(crossed["invite"]) == (0 if case == NONE else 3)
    bodies = [body for hop in crossed.values() for body in hop]
    assert all(type(body) is ConversationMessage for body in bodies)
    if case != NONE:
        sent = [body for body in crossed["mq.out"] if body.kind == IN_SESSION]
        assert all(x is y for x, y in zip(crossed["invite"], crossed["mq.out"][:3]))
        assert len(sent) == len(crossed["in"]) == 5
        assert all(x is y is z for x, y, z in zip(sent, crossed["s"], crossed["in"]))
    assert all(body.cid == cid for body in bodies)
    assert runtime.dropped == [] and runtime.mediation_violations == []


def test_legal_bytes_on_the_outbound_queue_are_checked_and_delivered(daq_store, daq_config):
    runtime, cid, u, a, i = start(daq_store, daq_config)
    legal = ConversationMessage(
        kind=IN_SESSION,
        cid=cid,
        sender="U",
        receiver="A",
        label="Request",
        payload=(("info", "x"),),
    )
    runtime.broker.push("mq.out.user", encode_message(legal))
    assert a.receive("U") == ("Request", {"info": "x"})
    assert runtime.dropped == []
    assert runtime.mediation_violations == []
    # the user's monitor saw the Request, so a second one is out of turn
    u.send("A", "Request", {"info": "x"})
    assert [(stage, v.kind) for stage, v, _ in runtime.dropped] == [("send", "unexpected-label")]


def test_illegal_bytes_on_the_outbound_queue_are_dropped_at_send(daq_store, daq_config):
    runtime, cid, u, a, i = start(daq_store, daq_config)
    illegal = ConversationMessage(
        kind=IN_SESSION, cid=cid, sender="U", receiver="A", label="Poll"
    )
    runtime.broker.push("mq.out.user", encode_message(illegal))
    assert [(stage, v.kind) for stage, v, _ in runtime.dropped] == [("send", "unexpected-label")]
    with pytest.raises(Timeout):
        a.receive("U", timeout=0.05)


@pytest.mark.parametrize("case", [MONITOR, FORWARDER])
def test_unencodable_message_is_recorded_and_dropped(daq_store, daq_config, case):
    runtime, cid, u, a, i = start(daq_store, daq_config, case=case)
    odd = ConversationMessage(
        kind=IN_SESSION,
        cid=cid,
        sender="U",
        receiver="A",
        label="Request",
        payload=(("info", 1.5),),
    )
    runtime.broker.push("mq.out.user", odd)
    [(queue_name, reason, message)] = runtime.mediation_violations
    assert queue_name == "mq.out.user"
    assert reason.startswith("unencodable: ")
    assert message is odd
    # nothing advanced: the conversation runs as if it was never sent
    run_not_supported(u, a, i)
    assert runtime.dropped == []
    assert len(runtime.mediation_violations) == 1


@pytest.mark.parametrize("case", [MONITOR, FORWARDER])
def test_duplicate_extras_key_is_unencodable(daq_store, case):
    # routed by one principal extra, the bytes would carry the other
    runtime = ConversationRuntime(daq_store, case=case)
    for principal in DAQ_PRINCIPALS.values():
        runtime.node(principal)
    two_targets = ConversationMessage(
        kind=INVITATION,
        cid="c-two",
        sender="U",
        receiver="A",
        extras=(
            (X_ROLE, "A"),
            (X_PRINCIPAL, "agg"),
            (X_PRINCIPAL, "instr"),
            (X_PROTOCOL_REF, local_ref("DataAquisition", "A")),
        ),
    )
    runtime.broker.push("mq.out.user", two_targets)
    [(queue_name, reason, message)] = runtime.mediation_violations
    assert queue_name == "mq.out.user"
    assert reason.startswith("unencodable: ")
    assert message is two_targets
    assert not runtime.node("agg").pending
    assert not runtime.node("instr").pending
    assert "s.c-two" not in runtime.broker._exchanges


@pytest.mark.parametrize("as_bytes", [True, False], ids=["bytes", "object"])
def test_forwarder_drops_unknown_conversation(daq_store, daq_config, as_bytes):
    runtime, cid, u, a, i = start(daq_store, daq_config, case=FORWARDER)
    stray = ConversationMessage(
        kind=IN_SESSION, cid="nope", sender="U", receiver="A", label="Request"
    )
    runtime.broker.push("mq.out.user", encode_message(stray) if as_bytes else stray)
    assert runtime.mediation_violations == [
        ("mq.out.user", "unknown conversation nope", stray)
    ]
    run_not_supported(u, a, i)


@pytest.mark.parametrize("case", [MONITOR, FORWARDER])
def test_unstamped_invitation_allocates_nothing(daq_store, case):
    # published on the invite exchange around the creator's mediator, so
    # unstamped: refused before any session state or queue is allocated
    runtime = ConversationRuntime(daq_store, case=case)
    node = runtime.node("user")
    broker = runtime.broker
    queues, exchanges = len(broker._queues), len(broker._exchanges)
    sneaky = [
        ConversationMessage(
            kind=INVITATION,
            cid=f"c-forged-{n}",
            sender="A",
            receiver="U",
            extras=(
                (X_ROLE, "U"),
                (X_PRINCIPAL, "user"),
                (X_PROTOCOL_REF, local_ref("DataAquisition", "U")),
            ),
        )
        for n in range(3)
    ]
    for invitation in sneaky:
        broker.publish("invite", "user", encode_message(invitation))
    assert runtime.mediation_violations == [
        ("mq.inv.user", "invitation without its sender's stamp", invitation)
        for invitation in sneaky
    ]
    if node.monitor is not None:
        assert node.monitor.sessions == {}
    assert (node.joined, node.pending) == ({}, {})
    assert (len(broker._queues), len(broker._exchanges)) == (queues, exchanges)


@pytest.mark.parametrize("case", [MONITOR, FORWARDER])
@pytest.mark.parametrize(
    "extras", [((X_ROLE,),), (([X_ROLE], "U"),)], ids=["not-a-pair", "unhashable-key"]
)
def test_invitation_whose_extras_are_not_a_map_allocates_nothing(daq_store, case, extras):
    # an object published around the mediators, with its sender's stamp,
    # whose extras cannot be read as a map: recorded, nothing raised
    runtime = ConversationRuntime(daq_store, case=case)
    empty = baseline(runtime)
    odd = ConversationMessage(INVITATION, "c-odd", "A", "U", extras=extras)
    assert runtime.broker.publish("invite", "user", odd, {X_MEDIATED_OUT: "A"}) == 1
    [(queue, reason, message)] = runtime.mediation_violations
    assert (queue, message) == ("mq.inv.user", odd)
    assert reason.startswith("unencodable: ")
    assert held(runtime) == empty


@pytest.mark.parametrize("case", [MONITOR, FORWARDER])
def test_session_setup_publishes_once_per_role(daq_store, daq_config, case, monkeypatch):
    # one invitation per role through the creator's mediator, nothing back
    runtime = ConversationRuntime(daq_store, case=case)
    endpoints = {role: runtime.endpoint(p) for role, p in DAQ_PRINCIPALS.items()}
    published = []
    real_publish = runtime.broker.publish

    def publish(exchange, key, body, headers=None):
        published.append(exchange)
        return real_publish(exchange, key, body, headers)

    monkeypatch.setattr(runtime.broker, "publish", publish)
    endpoints["U"].create("DataAquisition", daq_config)
    endpoints["A"].join("A")
    endpoints["I"].join("I")
    assert published == ["invite"] * 3
    assert runtime.mediation_violations == []


def test_failed_init_session_is_recorded(daq_store):
    config = config_with_capability("I", "Nope_I.scr")
    runtime = ConversationRuntime(daq_store)
    cid = runtime.endpoint("user").create("DataAquisition", config)
    [(queue_name, reason, message)] = runtime.mediation_violations
    assert queue_name == "mq.inv.instr"
    assert reason.startswith("init_session failed: ")
    assert "Nope_I.scr" in reason
    assert message.cid == cid
    with pytest.raises(Timeout):
        runtime.endpoint("instr").join("I", timeout=0.05)


def test_create_refused_by_its_own_mediator_raises_at_once(daq_store):
    runtime = ConversationRuntime(daq_store)
    empty = baseline(runtime)
    user = runtime.endpoint("user")
    began = time.monotonic()
    with pytest.raises(TransportError, match="mediator of user refused its invitation") as caught:
        user.create("DataAquisition", config_with_capability("U", "Nope_U.scr"))
    assert time.monotonic() - began < 1
    assert not isinstance(caught.value, Timeout)  # nothing was waited for
    [(queue_name, reason, message)] = runtime.mediation_violations
    assert queue_name == "mq.inv.user"
    assert reason.startswith("init_session failed: ")
    assert str(caught.value).endswith(message.cid)
    assert user.cid is None
    # the shares the other invitees accepted are released with the refusal
    assert message.cid not in shares(runtime.node("agg"))
    assert held(runtime) == empty
    runtime.close()
    assert held(runtime) == empty


@pytest.mark.parametrize("case", [FORWARDER, NONE])
def test_unresolvable_protocol_ref_is_refused(daq_store, case):
    # with no monitor to initialize, the peer keys still need the protocol's
    # roles: a ref the store does not resolve is refused before anything is
    # allocated, as the monitor refuses it
    runtime = ConversationRuntime(daq_store, case=case)
    empty = baseline(runtime)
    user = runtime.endpoint("user")
    cid = user.create("DataAquisition", config_with_capability("I", "Nope_I.scr"))
    [(queue_name, reason, message)] = runtime.mediation_violations
    assert queue_name == ("mq.inv.instr" if case == FORWARDER else inbox_queue("instr", cid))
    assert reason == "unknown local protocol Nope_I.scr"
    assert message.cid == cid
    assert cid not in shares(runtime.node("instr"))
    assert inbox_queue("instr", cid) not in runtime.broker._queues
    with pytest.raises(Timeout):
        runtime.endpoint("instr").join("I", timeout=0.05)
    runtime.close()
    assert held(runtime) == empty
    # the creator's own invitation refused: create raises and releases all
    creator = runtime.endpoint("user")
    with pytest.raises(TransportError, match="user refused its invitation") as caught:
        creator.create("DataAquisition", config_with_capability("U", "Nope_U.scr"))
    if case == NONE:  # no mediator exists to refuse it
        assert "mediator" not in str(caught.value)
    assert creator.cid is None
    assert [reason for _, reason, _ in runtime.mediation_violations][1:] == [
        "unknown local protocol Nope_U.scr"
    ]
    assert held(runtime) == empty


def test_uncompilable_local_is_recorded(daq_store):
    # a parallel inside a recursion has no nested-FSM encoding
    looping = parse_local(
        """
        local protocol Looping at I(role U, role A, role I) {
            rec X {
                parallel { Go from A; } and { Hi from A; }
                X;
            }
        }
        """
    )
    daq_store.register_local("Looping_I.scr", looping)
    config = config_with_capability("I", "Looping_I.scr")
    runtime = ConversationRuntime(daq_store)
    cid = runtime.endpoint("user").create("DataAquisition", config)
    [(queue_name, reason, message)] = runtime.mediation_violations
    assert queue_name == "mq.inv.instr"
    assert reason.startswith("init_session failed: ")
    assert "Looping_I.scr" in reason
    assert message.cid == cid
    # nothing is cached for a ref that fails: the next invitation fails too
    again = runtime.endpoint("user2").create(
        "DataAquisition",
        InvitationConfig(
            (InvitationEntry("U", "user2", local_ref("DataAquisition", "U")),)
            + config.entries[1:]
        ),
    )
    assert [(q, r.split(":")[0], m.cid) for q, r, m in runtime.mediation_violations] == [
        ("mq.inv.instr", "init_session failed", cid),
        ("mq.inv.instr", "init_session failed", again),
    ]
    assert "Looping_I.scr" not in runtime.monitor_for("instr").machines


def test_undecodable_publish_is_recorded_and_dropped(daq_store, daq_config):
    runtime, cid, u, a, i = start(daq_store, daq_config)
    garbage = b"\xff\xfe not a message"
    assert runtime.broker.publish(f"s.{cid}", f"{cid}.I.A", garbage) == 1
    assert len(runtime.mediation_violations) == 1
    queue_name, reason, body = runtime.mediation_violations[0]
    assert queue_name == f"mq.s.agg.{cid}"
    assert reason.startswith("undecodable: ")
    assert body == garbage
    run_not_supported(u, a, i)
    assert {u.status(), a.status(), i.status()} == {"completed"}
    assert len(runtime.mediation_violations) == 1


@pytest.mark.parametrize("where", ["out", "untargeted", "invite", "inbox"])
def test_no_mediator_raises_into_the_publisher(daq_store, daq_config, where):
    runtime, cid, u, a, i = start(daq_store, daq_config)
    broker = runtime.broker
    garbage = b"{not json"
    if where == "out":
        broker.push("mq.out.user", garbage)
        queue_name = "mq.out.user"
    elif where == "untargeted":
        # an invitation naming no principal has nowhere to go
        lost = ConversationMessage(kind=INVITATION, cid=cid, sender="U", receiver="A")
        broker.push("mq.out.user", encode_message(lost))
        queue_name = "mq.out.user"
    elif where == "invite":
        broker.publish("invite", "user", garbage)
        queue_name = "mq.inv.user"
    else:
        broker.push(inbox_queue("user", cid), garbage)
        queue_name = inbox_queue("user", cid)
    assert [q for q, _, _ in runtime.mediation_violations] == [queue_name]
    run_not_supported(u, a, i)
    assert runtime.dropped == []


@pytest.mark.parametrize("case", [MONITOR, FORWARDER])
@pytest.mark.parametrize("body", ["a str body", None, 7], ids=["str", "none", "int"])
@pytest.mark.parametrize("where", ["out", "inbox"])
def test_body_that_is_not_bytes_is_recorded_and_dropped(daq_store, daq_config, case, body, where):
    runtime, cid, u, a, i = start(daq_store, daq_config, case=case)
    if where == "out":
        runtime.broker.push("mq.out.user", body)
        queue_name = "mq.out.user"
    else:
        runtime.broker.push(inbox_queue("user", cid), body)
        queue_name = inbox_queue("user", cid)
    [(recorded_queue, reason, recorded)] = runtime.mediation_violations
    assert recorded_queue == queue_name
    assert reason.startswith("undecodable: ")
    assert recorded is body
    run_not_supported(u, a, i)
    assert runtime.dropped == []


def test_routing_key_mismatch_is_recorded(daq_store, daq_config):
    # a U-to-I body under the key that routes to A's mediator
    runtime, cid, u, a, i = start(daq_store, daq_config)
    misrouted = ConversationMessage(
        kind=IN_SESSION,
        cid=cid,
        sender="U",
        receiver="I",
        label="Request",
        payload=(("info", "x"),),
    )
    runtime.broker.publish(f"s.{cid}", f"{cid}.U.A", encode_message(misrouted))
    assert len(runtime.mediation_violations) == 1
    queue_name, reason, message = runtime.mediation_violations[0]
    assert queue_name == f"mq.s.agg.{cid}"
    assert "routing key" in reason
    assert message == misrouted
    assert runtime.dropped == []
    for endpoint, peer in ((a, "U"), (i, "U")):
        with pytest.raises(Timeout):
            endpoint.receive(peer, timeout=0.05)
    assert a.status() == "active"


@pytest.mark.parametrize("case", [MONITOR, FORWARDER, NONE])
def test_node_allocates_only_its_mediator_queues(daq_store, case):
    runtime = ConversationRuntime(daq_store, case=case)
    broker = runtime.broker
    queues, exchanges = set(broker._queues), set(broker._exchanges)
    runtime.node("user")
    bindings = [
        (exchange, key, queue)
        for exchange, keys in broker._exchanges.items()
        for key, bound in keys.items()
        for queue in bound
    ]
    assert set(broker._exchanges) == exchanges  # no exchange of its own
    if case == NONE:
        assert set(broker._queues) == queues
        assert bindings == []
    else:
        assert set(broker._queues) - queues == {"mq.out.user", "mq.inv.user"}
        assert bindings == [("invite", "user", "mq.inv.user")]


def test_make_invitation_config_uses_reference_convention(daq_config):
    (entry,) = [e for e in daq_config.entries if e.role == "I"]
    assert entry.principal == "instr"
    assert entry.capability == local_ref("DataAquisition", "I")
    assert daq_config.roles() == {"U", "A", "I"}


# --- session teardown -------------------------------------------------------


def held(runtime):
    """What the runtime holds beyond its principals' nodes."""
    broker = runtime.broker
    return {
        "queues": len(broker._queues),
        "exchanges": len(broker._exchanges),
        "bindings": sum(len(q) for keys in broker._exchanges.values() for q in keys.values()),
        "sessions": sum(
            len(node.monitor.sessions) for node in runtime._nodes.values() if node.monitor
        ),
        "joined": sum(len(node.joined) for node in runtime._nodes.values()),
        "pending": sum(len(node.pending) for node in runtime._nodes.values()),
    }


def shares(node):
    """The conversations a principal holds a share of, joined or pending."""
    return node.joined.keys() | node.pending.keys()


def baseline(runtime):
    for principal in DAQ_PRINCIPALS.values():
        runtime.node(principal)
    return held(runtime)


@pytest.mark.parametrize("case", [MONITOR, FORWARDER, NONE])
def test_churned_sessions_release_everything(daq_store, daq_config, case):
    runtime = ConversationRuntime(daq_store, case=case, record_trace=False)
    empty = baseline(runtime)
    for _ in range(1000):
        u = runtime.endpoint("user")
        u.create("DataAquisition", daq_config)
        a = runtime.endpoint("agg").join("A")
        i = runtime.endpoint("instr").join("I")
        run_not_supported(u, a, i)
        for endpoint in (u, a, i):
            endpoint.stop()
    assert held(runtime) == empty  # no queue, monitor session or cid is left
    assert runtime.dropped == []
    assert runtime.mediation_violations == []


@pytest.mark.parametrize("case", [MONITOR, FORWARDER, NONE])
def test_stop_releases_only_its_own_share(daq_store, daq_config, case):
    empty = baseline(ConversationRuntime(daq_store, case=case))
    runtime, cid, u, a, i = start(daq_store, daq_config, case=case)
    per_share = 1 if case == NONE else 2
    before = held(runtime)
    i.stop()
    after = held(runtime)
    assert before["queues"] - after["queues"] == per_share
    assert before["bindings"] - after["bindings"] == 2  # one key per peer role
    assert inbox_queue("instr", cid) not in runtime.broker._queues
    assert f"mq.s.instr.{cid}" not in runtime.broker._queues
    assert cid not in shares(runtime.node("instr"))
    assert cid in shares(runtime.node("agg"))
    if case == MONITOR:
        assert (cid, "I") not in runtime.monitor_for("instr").sessions
        assert (cid, "A") in runtime.monitor_for("agg").sessions
    # the others still talk
    u.send("A", "Request", {"info": "x"})
    assert a.receive("U") == ("Request", {"info": "x"})
    u.stop()
    assert f"s.{cid}" in runtime.broker._exchanges
    a.stop()
    assert f"s.{cid}" not in runtime.broker._exchanges
    assert held(runtime) == empty


@pytest.mark.parametrize("case", [MONITOR, FORWARDER, NONE])
def test_close_releases_open_sessions_and_unclaimed_invitations(daq_store, daq_config, case):
    runtime = ConversationRuntime(daq_store, case=case)
    empty = baseline(runtime)
    u = runtime.endpoint("user")
    cid = u.create("DataAquisition", daq_config)
    a = runtime.endpoint("agg").join("A")
    u.send("A", "Request", {"info": "x"})  # left in A's bucket
    # instr never claims its invitation; a second session is never joined
    runtime.endpoint("user").create("DataAquisition", daq_config)
    assert held(runtime) != empty
    runtime.close()
    assert held(runtime) == empty
    for endpoint in (u, a):
        with pytest.raises(NotJoined):
            endpoint.receive("U" if endpoint is a else "A", timeout=0)
    assert u.status() == ("active" if case == MONITOR else "unknown")
    u.stop()  # stopping again releases nothing more
    runtime.close()
    assert held(runtime) == empty
    # the runtime goes on serving
    u = runtime.endpoint("user")
    u.create("DataAquisition", daq_config)
    run_not_supported(u, runtime.endpoint("agg").join("A"), runtime.endpoint("instr").join("I"))


def test_close_unblocks_a_pending_receive(daq_store, daq_config):
    runtime, cid, u, a, i = start(daq_store, daq_config)
    threading.Timer(0.05, runtime.close).start()
    with pytest.raises(SessionEnded, match="stopped"):
        u.receive("A", timeout=2)


@pytest.mark.parametrize("case", [MONITOR, FORWARDER, NONE])
def test_a_stopped_endpoint_can_neither_create_nor_join(daq_store, daq_config, case):
    runtime = ConversationRuntime(daq_store, case=case)
    empty = baseline(runtime)
    user = runtime.endpoint("user")
    user.stop()
    with pytest.raises(NotJoined, match="endpoint was stopped"):
        user.create("DataAquisition", daq_config)
    assert held(runtime) == empty
    assert user.cid is None
    # an invitation waits for agg; a stopped endpoint leaves it pending
    runtime.endpoint("user").create("DataAquisition", daq_config)
    before = held(runtime)
    agg = runtime.endpoint("agg")
    agg.stop()
    with pytest.raises(NotJoined, match="endpoint was stopped"):
        agg.join("A", timeout=0)
    assert held(runtime) == before
    assert agg.cid is None
    runtime.endpoint("agg").join("A")
    runtime.close()
    assert held(runtime) == empty


@pytest.mark.parametrize(
    "case, script, want",
    [
        (MONITOR, "completed", ("completed", "completed", "completed")),
        (MONITOR, "violated", ("violated", "active", "active")),
        (FORWARDER, "completed", ("unknown", "unknown", "unknown")),
        (NONE, "completed", ("unknown", "unknown", "unknown")),
    ],
)
def test_status_after_stop_is_the_status_when_stopped(daq_store, daq_config, case, script, want):
    runtime, cid, u, a, i = start(daq_store, daq_config, case=case)
    if script == "completed":
        run_not_supported(u, a, i)
    else:
        u.send("A", "Poll")  # refused at send: U's session is violated
    for endpoint in (u, a, i):
        endpoint.stop()
    assert runtime.monitor_for("user") is None or not runtime.monitor_for("user").sessions
    assert (u.status(), a.status(), i.status()) == want


@pytest.mark.parametrize("case", [MONITOR, FORWARDER])
def test_message_to_a_stopped_peer_is_recorded(daq_store, daq_config, case):
    runtime, cid, u, a, i = start(daq_store, daq_config, case=case)
    i.stop()
    u.send("A", "Request", {"info": "x"})
    assert a.receive("U") == ("Request", {"info": "x"})
    a.send("I", "Request", {"info": "x"})  # reaches no queue; raises nothing
    [(queue_name, reason, message)] = runtime.mediation_violations
    assert queue_name == "mq.out.agg"
    assert reason == f"no queue bound for {cid}.A.I"
    assert (message.label, message.sender, message.receiver) == ("Request", "A", "I")
    assert runtime.dropped == []


def test_a_self_addressed_message_reaches_no_queue(daq_store, daq_config):
    # the Forwarder checks nothing, so a U-to-U message pushed around
    # ``send`` is published; no key names a role as its own peer, so it
    # reaches no queue, and U's bucket for itself stays empty
    runtime, cid, u, a, i = start(daq_store, daq_config, case=FORWARDER)
    to_self = ConversationMessage(IN_SESSION, cid, "U", "U", "Request", (("info", "x"),))
    runtime.broker.push("mq.out.user", to_self)
    assert runtime.mediation_violations == [
        ("mq.out.user", f"no queue bound for {cid}.U.U", to_self)
    ]
    assert u._buckets == {}
    # an outside publish whose sender segment names no role reaches nothing
    stray = ConversationMessage(IN_SESSION, cid, "X", "A", "Request", (("info", "x"),))
    assert runtime.broker.publish(f"s.{cid}", f"{cid}.X.A", encode_message(stray)) == 0
    assert len(runtime.mediation_violations) == 1
    run_not_supported(u, a, i)
    assert runtime.dropped == []


@pytest.mark.parametrize("case", [MONITOR, FORWARDER])
def test_invitation_to_an_unknown_principal_is_recorded(daq_store, case):
    runtime = ConversationRuntime(daq_store, case=case)
    runtime.node("user")
    lost = ConversationMessage(
        kind=INVITATION,
        cid="c-lost",
        sender="U",
        receiver="A",
        extras=((X_ROLE, "A"), (X_PRINCIPAL, "ghost")),
    )
    runtime.broker.push("mq.out.user", lost)
    assert runtime.mediation_violations == [("mq.out.user", "no mediator for ghost", lost)]


def test_message_to_a_refused_invitee_is_recorded(daq_store):
    # instr's mediator refuses its invitation, so nothing receives for I
    config = config_with_capability("I", "Nope_I.scr")
    runtime = ConversationRuntime(daq_store)
    u = runtime.endpoint("user")
    cid = u.create("DataAquisition", config)
    a = runtime.endpoint("agg").join("A")
    u.send("A", "Request", {"info": "x"})
    a.receive("U")
    a.send("I", "Request", {"info": "x"})
    reasons = [(q, r) for q, r, _ in runtime.mediation_violations]
    assert reasons[1:] == [("mq.out.agg", f"no queue bound for {cid}.A.I")]


@pytest.mark.parametrize("case", [MONITOR, FORWARDER, NONE])
def test_one_principal_in_two_roles_is_refused(daq_store, case, monkeypatch):
    runtime = ConversationRuntime(daq_store, case=case)
    user = runtime.endpoint("user")
    empty = held(runtime)
    published = []
    for name in ("publish", "push"):
        monkeypatch.setattr(runtime.broker, name, lambda *args, **kw: published.append(args))
    config = make_invitation_config("DataAquisition", {"U": "user", "A": "agg", "I": "agg"})
    with pytest.raises(RoleMismatch, match="agg is invited as both A and I"):
        user.create("DataAquisition", config)
    assert published == []
    assert held(runtime) == empty
    assert user.cid is None
    assert runtime.mediation_violations == []


@pytest.mark.parametrize("case", [MONITOR, FORWARDER])
def test_second_invitation_to_a_conversation_is_refused(daq_store, daq_config, case):
    # a stamped invitation for a conversation agg is already in, to another role
    runtime, cid, u, a, i = start(daq_store, daq_config, case=case)
    before = held(runtime)
    again = ConversationMessage(
        kind=INVITATION,
        cid=cid,
        sender="U",
        receiver="I",
        extras=(
            (X_ROLE, "I"),
            (X_PRINCIPAL, "agg"),
            (X_PROTOCOL_REF, local_ref("DataAquisition", "I")),
        ),
    )
    runtime.broker.push("mq.out.user", again)
    assert runtime.mediation_violations == [
        ("mq.inv.agg", f"already in conversation {cid}", again)
    ]
    assert held(runtime) == before
    run_not_supported(u, a, i)


# --- bytes only for what is not plain, or comes from outside -------------------


@pytest.fixture()
def decoded(monkeypatch):
    """Each body the runtime calls ``decode_message`` on, in order."""
    bodies = []
    real_decode = endpoint_mod.decode_message

    def decode(body):
        bodies.append(body)
        return real_decode(body)

    monkeypatch.setattr(endpoint_mod, "decode_message", decode)
    return bodies


class Text(str):
    """A str subclass: it encodes as a string and decodes as a plain str."""


class Number(int):
    """An int subclass: it encodes as an int and decodes as a plain int."""


def shape(message):
    """A message's fields, each beside its exact type, payload values included."""
    heads = (message.kind, message.cid, message.sender, message.receiver, message.label)
    return (
        type(message),
        [(type(value), value) for value in heads],
        [(type(name), name, type(value), value) for name, value in message.payload],
        [(type(key), key, type(value), value) for key, value in message.extras],
    )


class Message(ConversationMessage):
    __slots__ = ()


@pytest.mark.parametrize("case", [MONITOR, FORWARDER])
def test_a_message_subclass_reaches_the_receiver_as_a_message(daq_store, daq_config, case):
    runtime, cid, u, a, i = start(daq_store, daq_config, case=case)
    sent = Message(IN_SESSION, cid, "U", "A", "Request", (("info", "x"),))
    runtime.broker.push("mq.out.user", sent)
    assert runtime.dropped == [] and runtime.mediation_violations == []
    [got] = a._buckets["U"]
    assert shape(got) == (ConversationMessage,) + shape(sent)[1:]
    assert a.receive("U") == ("Request", {"info": "x"})


plain_text = st.text(max_size=8)
plain_values = st.one_of(st.booleans(), st.integers(), plain_text, st.binary(max_size=24))
# Mostly plain, sometimes a subclass value the decoder cannot give back.
handoff_text = plain_text | plain_text.map(Text)
handoff_values = plain_values | plain_text.map(Text) | st.integers().map(Number)
handoff_fields = st.tuples(
    handoff_text,
    st.lists(st.tuples(plain_text, handoff_values), max_size=4, unique_by=lambda kv: kv[0]),
    st.dictionaries(plain_text, handoff_text, max_size=3),
)


@pytest.mark.parametrize("case", [FORWARDER, NONE])
@settings(max_examples=60, deadline=None)
@given(fields=handoff_fields)
def test_receiver_gets_what_decoding_the_bytes_gives(daq_global, case, fields):
    # what the receiver's mediator and endpoint take equals, type for type,
    # what decoding the message's bytes gives; only message objects cross
    # the exchange
    label, payload, extras = fields
    store = ProtocolStore()
    store.register_global(daq_global)
    store.register_projections(daq_global)
    runtime = ConversationRuntime(store, case=case)
    u = runtime.endpoint("user")
    cid = u.create("DataAquisition", make_invitation_config("DataAquisition", DAQ_PRINCIPALS))
    runtime.endpoint("agg").join("A")
    taken = []  # (queue, body, message) for each body the runtime took apart
    real_decode_or_note = runtime.decode_or_note

    def decode_or_note(queue, body):
        message = real_decode_or_note(queue, body)
        taken.append((queue, body, message))
        return message

    runtime.decode_or_note = decode_or_note
    if case == NONE:
        extras = {}  # an endpoint sends no extras
    message = ConversationMessage(
        IN_SESSION, cid, "U", "A", label, tuple(payload), tuple(extras.items())
    )
    if case == NONE:
        u.send("A", label, dict(payload))
    else:
        runtime.broker.push("mq.out.user", message)
    assert runtime.mediation_violations == []
    want = shape(decode_message(encode_message(message)))
    receivers = [inbox_queue("agg", cid)] + ([] if case == NONE else [f"mq.s.agg.{cid}"])
    got = {queue: shape(message) for queue, _, message in taken if queue in receivers}
    assert got == {queue: want for queue in receivers}
    [crossed] = [body for queue, body, _ in taken if queue == receivers[-1]]
    assert type(crossed) is ConversationMessage


# --- one trust rule on every hop ----------------------------------------------


@pytest.mark.parametrize("case", [MONITOR, FORWARDER, NONE])
@settings(max_examples=60, deadline=None)
@given(fields=handoff_fields)
def test_what_send_delivers_is_what_decoding_its_bytes_gives(daq_global, case, fields):
    # send trusts a message only when it knows it plain; a Text label or a
    # Text or Number payload value makes it not plain, and the receiver
    # still gets, type for type, what decoding the message's bytes gives
    label, payload, _ = fields  # send takes no extras
    if case == MONITOR:  # the monitor admits U's Request to A, with one field
        label = Text("Request") if type(label) is Text else "Request"
        payload = [("info", value) for _, value in payload[:1]] or [("info", "x")]
    store = ProtocolStore()
    store.register_global(daq_global)
    store.register_projections(daq_global)
    runtime = ConversationRuntime(store, case=case)
    u = runtime.endpoint("user")
    cid = u.create("DataAquisition", make_invitation_config("DataAquisition", DAQ_PRINCIPALS))
    a = runtime.endpoint("agg").join("A")
    u.send("A", label, dict(payload))
    assert runtime.dropped == [] and runtime.mediation_violations == []
    sent = ConversationMessage(IN_SESSION, cid, "U", "A", label, tuple(payload))
    want = decode_message(encode_message(sent))
    got_label, got_payload = a.receive("U", timeout=0.01)
    assert (type(got_label), got_label) == (type(want.label), want.label)
    assert [(type(v), v) for v in got_payload.values()] == [(type(v), v) for _, v in want.payload]
    assert list(got_payload) == [name for name, _ in want.payload]


# Where a body can enter the runtime from outside, in each case.
ENTRIES = {
    MONITOR: ["out", "exchange", "session", "invite"],
    FORWARDER: ["out", "exchange", "session", "invite"],
    NONE: ["exchange", "inbox"],
}


@pytest.mark.parametrize("case", [MONITOR, FORWARDER, NONE])
@settings(max_examples=60, deadline=None)
@given(
    fields=handoff_fields,
    form=st.sampled_from(["plain", "object", "bytes", "broken"]),
    data=st.data(),
)
def test_every_hop_judges_a_body_by_one_rule(daq_global, case, fields, form, data):
    # a body entering at any hop is judged once: what reaches a bucket or is
    # accepted as an invitation equals, type for type, what its bytes decode
    # to; a body that does not encode is recorded once and goes no further;
    # after the first hop only plain message objects travel; the object the
    # runtime judged is then taken by identity, and an equal one that is not
    # plain is judged again
    entry = data.draw(st.sampled_from(ENTRIES[case]), label="entry")
    label, payload, extras = fields
    store = ProtocolStore()
    store.register_global(daq_global)
    store.register_projections(daq_global)
    runtime = ConversationRuntime(store, case=case)
    u = runtime.endpoint("user")
    cid = u.create("DataAquisition", make_invitation_config("DataAquisition", DAQ_PRINCIPALS))
    a = runtime.endpoint("agg").join("A")
    runtime.endpoint("instr").join("I")
    if entry == "invite":  # an invitation to a new conversation, from A to user
        role = Text("U") if type(label) is Text else "U"
        extras = {
            **extras,
            X_ROLE: role,
            X_PRINCIPAL: "user",
            X_PROTOCOL_REF: local_ref("DataAquisition", "U"),
        }
        heads = (INVITATION, "c-new", "A", role)
    else:
        if case == MONITOR:  # the monitors admit U's Request to A, with one field
            label = Text("Request") if type(label) is Text else "Request"
            payload = [("info", value) for _, value in payload[:1]] or [("info", "x")]
        heads = (IN_SESSION, cid, "U", "A")
    fields = (label, tuple(payload), tuple(extras.items()))
    message = Message(*heads, *fields)  # never plain: its type is a subclass
    want = decode_message(encode_message(message))
    body = {
        "plain": want,
        "object": message,
        "bytes": encode_message(message),
        "broken": Message(*heads, label, fields[1] + (("a-float", 1.5),), fields[2]),
    }[form]
    broker = runtime.broker
    stamp = {X_MEDIATED_OUT: heads[2]}
    inject = {
        "out": lambda body: broker.push(outbound_queue("user"), body),
        "exchange": lambda body: broker.publish(f"s.{cid}", f"{cid}.U.A", body, stamp),
        "session": lambda body: broker.push(f"mq.s.agg.{cid}", body, stamp),
        "invite": lambda body: broker.publish("invite", "user", body, stamp),
        "inbox": lambda body: broker.push(inbox_queue("agg", cid), body),
    }[entry]
    crossed = []  # the body of each push or publish, the injected one first
    real_publish, real_push = broker.publish, broker.push

    def publish(exchange, key, body, headers=None):
        crossed.append(body)
        return real_publish(exchange, key, body, headers)

    def push(queue, body, headers=None):
        if sys._getframe(1).f_code is not Broker.publish.__code__:  # not a fan-out
            crossed.append(body)
        real_push(queue, body, headers)

    accepted = []
    real_accept = runtime.accept_invitation

    def accept_invitation(node, invitation, role, ref, queue):
        accepted.append(invitation)
        assert (type(role), type(ref)) == (str, str)
        real_accept(node, invitation, role, ref, queue)

    judged = []

    def is_plain_spy(message):
        judged.append(message)
        return is_plain(message)

    def crossing(body):
        """Inject ``body``; check that only plain objects went on from it."""
        crossed.clear()
        inject(body)  # raises nothing into the publisher
        assert crossed[0] is body
        assert all(type(later) is ConversationMessage and is_plain(later) for later in crossed[1:])

    broker.publish, broker.push = publish, push
    runtime.accept_invitation = accept_invitation
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(endpoint_mod, "is_plain", is_plain_spy)
        crossing(body)
        reached = accepted if entry == "invite" else list(a._buckets.get("U", ()))
        assert runtime.dropped == []
        if form == "broken":  # recorded each time it is injected, never trusted
            crossing(body)
            [(_, first, once), (_, second, twice)] = runtime.mediation_violations
            assert first == second and first.startswith("unencodable: ")
            assert once is twice is body
            assert reached == [] and crossed == [body]
            return
        assert runtime.mediation_violations == []
        [got] = reached
        assert shape(got) == shape(want)
        # republished, the judged object is taken by identity; an equal object
        # that is not plain is judged again
        judged.clear()
        crossing(got)
        assert all(seen is not got for seen in judged)
        lookalike = ConversationMessage(*heads[:4], Text(got.label), got.payload, got.extras)
        assert lookalike == got
        crossing(lookalike)
        assert any(seen is lookalike for seen in judged)
    if case != MONITOR and entry != "invite":  # delivered again, not refused
        assert [shape(later) for later in a._buckets["U"]] == [shape(want)] * 3


@pytest.mark.parametrize("case", [MONITOR, FORWARDER])
@pytest.mark.parametrize(
    "headers",
    [None, NO_HEADERS, MappingProxyType({}), {}],
    ids=["none", "no-headers", "empty-proxy", "empty-dict"],
)
def test_a_push_with_an_empty_map_not_the_nodes_own_is_judged(
    daq_store, daq_config, case, headers, monkeypatch
):
    # a message object pushed from outside the runtime is judged whatever
    # its headers: is_plain refuses it, so it is encoded once and reaches
    # the receiver as its bytes decode
    runtime, cid, u, a, i = start(daq_store, daq_config, case=case)
    encoded = []
    real_encode = endpoint_mod.encode_message

    def encode(message):
        encoded.append(message)
        return real_encode(message)

    monkeypatch.setattr(endpoint_mod, "encode_message", encode)
    sent = ConversationMessage(IN_SESSION, cid, "U", "A", Text("Request"), (("info", "x"),))
    runtime.broker.push(outbound_queue("user"), sent, headers)
    assert encoded == [sent]
    assert runtime.dropped == [] and runtime.mediation_violations == []
    [got] = a._buckets["U"]
    assert shape(got) == shape(decode_message(real_encode(sent)))


@pytest.mark.parametrize("case", [MONITOR, FORWARDER])
def test_a_str_subclass_role_in_an_invitation_is_judged_to_str(daq_store, case, monkeypatch):
    # stamped invitation objects to "c-odd" name agg's role as a Text; agg's
    # mediator judges the invitation, so agg's share takes the role as the
    # exact str its bytes decode to, and every send is trusted
    runtime = ConversationRuntime(daq_store, case=case)
    roles = {"U": "U", "A": Text("A"), "I": "I"}
    for role, principal in DAQ_PRINCIPALS.items():
        invitation = ConversationMessage(
            INVITATION,
            "c-odd",
            "U",
            roles[role],
            extras=(
                (X_ROLE, roles[role]),
                (X_PRINCIPAL, principal),
                (X_PROTOCOL_REF, local_ref("DataAquisition", role)),
            ),
        )
        runtime.node(principal)
        runtime.broker.publish("invite", principal, invitation, {X_MEDIATED_OUT: "U"})
    u = runtime.endpoint("user").join("U")
    a = runtime.endpoint("agg").join("A")
    i = runtime.endpoint("instr").join("I")
    assert type(a.role) is str
    judged = []
    real_is_plain = endpoint_mod.is_plain

    def is_plain_spy(message):
        judged.append(message)
        return real_is_plain(message)

    monkeypatch.setattr(endpoint_mod, "is_plain", is_plain_spy)
    u.send("A", "Request", {"info": "x"})
    assert judged == []
    assert a.receive("U") == ("Request", {"info": "x"})
    a.send("I", "Request", {"info": "x"})
    assert judged == []
    [got] = i._buckets["A"]
    assert type(got.sender) is str
    assert i.receive("A") == ("Request", {"info": "x"})
    assert runtime.dropped == [] and runtime.mediation_violations == []


@pytest.mark.parametrize("case", [MONITOR, FORWARDER, NONE])
@pytest.mark.parametrize(
    "make",
    [lambda data: data, lambda data: bytes(bytearray(data)), bytearray],
    ids=["same", "copy", "bytearray"],
)
def test_bytes_the_runtime_is_not_publishing_are_decoded_once(
    daq_store, daq_config, case, make, decoded
):
    runtime, cid, u, a, i = start(daq_store, daq_config, case=case)
    data = encode_message(
        ConversationMessage(IN_SESSION, cid, "U", "A", "Request", (("info", "x"),))
    )
    # a message's bytes, a copy or a bytearray of them, published or pushed
    # from outside the runtime, are each decoded exactly once, by whichever
    # consumer they reach first
    broker = runtime.broker
    stamp, stamps = {X_MEDIATED_OUT: "U"}, {X_MEDIATED_OUT: "U", X_MEDIATED_IN: "A"}
    targets = [
        lambda body: broker.publish(f"s.{cid}", f"{cid}.U.A", body, stamp),
        lambda body: broker.push(inbox_queue("agg", cid), body, stamps),
    ]
    if case != NONE:
        targets.append(lambda body: broker.push(f"mq.s.agg.{cid}", body, stamp))
    for inject in targets:
        body = make(data)
        decoded.clear()
        inject(body)
        assert len(decoded) == 1 and decoded[0] is body


@pytest.mark.parametrize("case", [MONITOR, FORWARDER, NONE])
def test_a_copy_pushed_during_the_publish_is_decoded(daq_store, daq_config, case, decoded):
    # a consumer bound beside the receiver pushes the bytes of the message
    # onto the receiver's inbox while its publish is still being delivered
    runtime, cid, u, a, i = start(daq_store, daq_config, case=case)
    broker = runtime.broker
    broker.declare_queue("copier")
    broker.bind(f"s.{cid}", f"{cid}.U.A", "copier")
    copies = []

    def copy_onto_the_inbox(body, headers):
        copies.append(encode_message(body))
        stamps = {X_MEDIATED_OUT: "U", X_MEDIATED_IN: "A"}
        broker.push(inbox_queue("agg", cid), copies[-1], stamps)

    broker.set_consumer("copier", copy_onto_the_inbox)
    u.send("A", "Request", {"info": "x"})
    [copy] = copies
    assert len(decoded) == 1 and decoded[0] is copy


def test_bytes_on_the_outbound_queue_are_decoded_once_by_the_sender_mediator(
    daq_store, daq_config, decoded
):
    # the sender's mediator forwards the message it decoded, which the
    # receiver's mediator and the inbox take as it is
    runtime, cid, u, a, i = start(daq_store, daq_config)
    data = encode_message(
        ConversationMessage(IN_SESSION, cid, "U", "A", "Request", (("info", "x"),))
    )
    runtime.broker.push("mq.out.user", data)
    assert len(decoded) == 1 and decoded[0] is data
    assert a.receive("U") == ("Request", {"info": "x"})


def test_bytes_buffered_before_join_are_decoded_once(daq_store, daq_config, decoded):
    # unmediated, the inbox holds bytes until its endpoint joins, long after
    # their publish returned
    runtime = ConversationRuntime(daq_store, case=NONE)
    u = runtime.endpoint("user")
    cid = u.create("DataAquisition", daq_config)
    data = encode_message(
        ConversationMessage(IN_SESSION, cid, "U", "A", "Request", (("info", "x"),))
    )
    assert runtime.broker.publish(f"s.{cid}", f"{cid}.U.A", data) == 1
    assert decoded == []
    a = runtime.endpoint("agg").join("A")
    assert len(decoded) == 1 and decoded[0] is data
    assert a.receive("U") == ("Request", {"info": "x"})


def echo_sessions(case, count):
    """A runtime with ``count`` Echo sessions, as (server, client) pairs."""
    store = ProtocolStore()
    echo = parse_global(pingpong_source(with_payload=True))
    store.register_global(echo)
    store.register_projections(echo)
    runtime = ConversationRuntime(store, case=case)
    pairs = []
    for n in range(1, count + 1):
        server = runtime.endpoint(f"srv{n}")
        server.create("Echo", make_invitation_config("Echo", {"S": f"srv{n}", "C": f"cli{n}"}))
        pairs.append((server, runtime.endpoint(f"cli{n}").join("C")))
    return runtime, pairs


@pytest.mark.parametrize("case", [MONITOR, FORWARDER, NONE])
def test_callback_sending_beside_another_publisher_gets_its_messages(case):
    # cli1 replies from its callback thread while the main thread drives a
    # second session on the same runtime, so two threads publish at once
    runtime, [(srv1, cli1), (srv2, cli2)] = echo_sessions(case, 2)
    seen = []
    ended = threading.Event()

    def reply(label, payload):
        seen.append((label, payload))
        if label == "OK":
            cli1.receive_async("S", reply)
            cli1.send("S", "ACK", payload)
        else:
            ended.set()

    cli1.receive_async("S", reply)
    blobs = [k.to_bytes(2, "big") * 100 for k in range(200)]
    for blob in blobs:
        srv1.send("C", "OK", {"data": blob})
        other = {"data": blob[::-1]}
        srv2.send("C", "OK", other)
        assert cli2.receive("S") == ("OK", other)
        cli2.send("S", "ACK", other)
        assert srv2.receive("C") == ("ACK", other)
        assert srv1.receive("C", timeout=5) == ("ACK", {"data": blob})
    srv1.send("C", "KO")
    assert ended.wait(5)
    assert seen == [("OK", {"data": blob}) for blob in blobs] + [("KO", {})]
    assert cli1.callback_errors == []
    assert runtime.dropped == [] and runtime.mediation_violations == []
    runtime.close()


@pytest.mark.parametrize("case", [MONITOR, FORWARDER, NONE])
def test_threads_publishing_at_once_each_get_their_own_messages(case):
    # more publishing threads than cores, switching as often as they can,
    # each driving its own session on one runtime: a receiver handed another
    # thread's message would see the wrong payload
    runtime, pairs = echo_sessions(case, 4)
    errors = []
    ready = threading.Barrier(len(pairs))

    def drive(n, server, client):
        try:
            ready.wait(timeout=5)
            for k in range(300):
                ok, ack = {"data": b"OK %d %d" % (n, k)}, {"data": b"ACK %d %d" % (n, k)}
                server.send("C", "OK", ok)
                assert client.receive("S", timeout=5) == ("OK", ok)
                client.send("S", "ACK", ack)
                assert server.receive("C", timeout=5) == ("ACK", ack)
        except BaseException as exc:
            errors.append(exc)

    threads = [threading.Thread(target=drive, args=(n, *pair)) for n, pair in enumerate(pairs)]
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
    assert runtime.dropped == [] and runtime.mediation_violations == []
    runtime.close()


@pytest.mark.parametrize("case", [MONITOR, FORWARDER, NONE])
def test_threads_sending_values_that_are_not_plain_each_get_exact_str(case):
    # as above, but odd threads send Text values, which are not plain, while
    # even threads' sends store their messages as the one judged object: a
    # race that let a Text cross unjudged would hand its receiver a Text, not
    # the str its bytes decode to
    runtime, pairs = echo_sessions(case, 4)
    errors = []
    ready = threading.Barrier(len(pairs))

    def drive(n, server, client):
        value = Text if n % 2 else str
        try:
            ready.wait(timeout=5)
            for k in range(300):
                for sender, receiver, label in ((server, client, "OK"), (client, server, "ACK")):
                    sent = {"data": value(f"{label} {n} {k}")}
                    sender.send(receiver.role, label, sent)
                    got_label, got = receiver.receive(sender.role, timeout=5)
                    assert (got_label, got, type(got["data"])) == (label, sent, str)
        except BaseException as exc:
            errors.append(exc)

    threads = [threading.Thread(target=drive, args=(n, *pair)) for n, pair in enumerate(pairs)]
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
    assert runtime.dropped == [] and runtime.mediation_violations == []
    runtime.close()


@pytest.mark.parametrize("case", [MONITOR, FORWARDER, NONE])
def test_stop_inside_a_callback_lets_the_callback_finish(daq_store, daq_config, case):
    runtime, cid, u, a, i = start(daq_store, daq_config, case=case)
    finished = threading.Event()

    def leave(label, payload):
        a.stop()
        finished.set()

    a.receive_async("U", leave)
    u.send("A", "Request", {"info": "x"})
    assert finished.wait(2)
    a._dispatcher.join(timeout=2)
    assert not a._dispatcher.is_alive()
    assert a.callback_errors == []
    assert cid not in shares(runtime.node("agg"))
    assert inbox_queue("agg", cid) not in runtime.broker._queues


# --- per-message work ----------------------------------------------------------


def test_a_pingpong_session_binds_one_key_per_role_and_wakes_nobody(monkeypatch):
    # one thread sets up a session and drives 1000 rounds under Monitor: each
    # role is bound under one key per peer role, r-1 = 1 for PingPong's two,
    # and since delivery is synchronous neither a join nor a receiver ever
    # waits, so no condition is notified
    idle = []  # conditions notified while nothing waited on them

    class CountingCondition(threading.Condition):
        waiting = 0

        def wait(self, timeout=None):
            self.waiting += 1
            try:
                return super().wait(timeout)
            finally:
                self.waiting -= 1

        def notify_all(self):
            if not self.waiting:
                idle.append(self)
            super().notify_all()

    monkeypatch.setattr(threading, "Condition", CountingCondition)
    store = ProtocolStore()
    pingpong = parse_global(pingpong_source())
    store.register_global(pingpong)
    store.register_projections(pingpong)
    runtime = ConversationRuntime(store, case=MONITOR, record_trace=False)
    server = runtime.endpoint("srv")
    cid = server.create("PingPong", make_invitation_config("PingPong", {"S": "srv", "C": "cli"}))
    client = runtime.endpoint("cli").join("C")
    assert runtime.broker._exchanges[f"s.{cid}"] == {
        f"{cid}.C.S": (f"mq.s.srv.{cid}",),
        f"{cid}.S.C": (f"mq.s.cli.{cid}",),
    }
    for _ in range(1000):
        server.send("C", "OK")
        assert client.receive("S") == ("OK", {})
        client.send("S", "ACK")
        assert server.receive("C") == ("ACK", {})
    server.send("C", "KO")
    assert client.receive("S") == ("KO", {})
    assert server.status() == client.status() == "completed"
    assert runtime.dropped == [] and runtime.mediation_violations == []
    assert idle == []


def test_a_monitored_setup_reads_each_invitation_field_once_and_builds_no_condition(
    daq_store, daq_config, monkeypatch
):
    # one thread sets up a DataAquisition session under Monitor: nobody
    # waits, so no condition is built; each invitee's mediator reads each
    # field of its invitation at most once and resolves its protocol
    # reference twice, once for the monitor and once for the peer keys
    conditions = []
    extras_read = Counter()  # (cid, invited role, key) -> reads
    resolved = Counter()  # ref -> store lookups

    class CountingCondition(threading.Condition):
        def __init__(self, *args, **kwargs):
            conditions.append(self)
            super().__init__(*args, **kwargs)

    real_extra = ConversationMessage.extra
    real_local = ProtocolStore.local

    def extra(self, key, default=None):
        extras_read[self.cid, self.receiver, key] += 1
        return real_extra(self, key, default)

    def local(self, ref):
        resolved[ref] += 1
        return real_local(self, ref)

    monkeypatch.setattr(threading, "Condition", CountingCondition)
    monkeypatch.setattr(ConversationMessage, "extra", extra)
    monkeypatch.setattr(ProtocolStore, "local", local)
    runtime, cid, u, a, i = start(daq_store, daq_config)
    assert conditions == []
    assert extras_read and max(extras_read.values()) == 1
    assert resolved == {local_ref("DataAquisition", role): 2 for role in DAQ_PRINCIPALS}
    run_not_supported(u, a, i)
    assert runtime.dropped == [] and runtime.mediation_violations == []


def wait_until(test, seconds=5):
    deadline = time.monotonic() + seconds
    while not test():
        assert time.monotonic() < deadline
        time.sleep(0.001)


@pytest.mark.parametrize("case", [MONITOR, FORWARDER, NONE])
def test_joins_blocked_before_their_invitations_each_take_one(daq_store, daq_config, case):
    # more joining threads than cores wait on one principal's node before
    # any invitation exists, switching as often as they can; the sessions
    # created afterwards wake them, and each takes a different one
    runtime = ConversationRuntime(daq_store, case=case)
    joined, errors = [], []

    def join():
        try:
            joined.append(runtime.endpoint("agg").join("A", timeout=10))
        except BaseException as exc:
            errors.append(exc)

    threads = [threading.Thread(target=join) for _ in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        wait_until(lambda: runtime.node("agg").waiting == len(threads))
        cids = {
            runtime.endpoint("user").create("DataAquisition", daq_config)
            for _ in threads
        }
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert sorted(endpoint.cid for endpoint in joined) == sorted(cids)
    assert runtime.mediation_violations == []
    runtime.close()


@pytest.mark.parametrize("case", [MONITOR, FORWARDER, NONE])
def test_joins_and_stops_at_once_on_one_node_lose_no_share(daq_store, case):
    # more threads than cores, switching as often as they can, each creating
    # sessions whose A and I shares, all held by agg and instr, are claimed
    # while other threads' endpoints stop theirs: each share is claimed once,
    # and every one is released
    runtime = ConversationRuntime(daq_store, case=case, record_trace=False)
    users = [f"user{n}" for n in range(4)]
    for user in users:
        runtime.node(user)
    empty = baseline(runtime)
    claimed, errors = [], []
    ready = threading.Barrier(len(users))

    def churn(user):
        config = make_invitation_config(
            "DataAquisition", {"U": user, "A": "agg", "I": "instr"}
        )
        try:
            ready.wait(timeout=5)
            for _ in range(300):
                u = runtime.endpoint(user)
                u.create("DataAquisition", config)
                a = runtime.endpoint("agg").join("A", timeout=5)
                i = runtime.endpoint("instr").join("I", timeout=5)
                claimed.extend([("A", a.cid), ("I", i.cid)])
                for endpoint in (u, a, i):
                    endpoint.stop()
        except BaseException as exc:
            errors.append(exc)

    threads = [threading.Thread(target=churn, args=(user,)) for user in users]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert len(set(claimed)) == len(claimed) == 2 * 300 * len(users)
    assert held(runtime) == empty
    assert runtime.dropped == [] and runtime.mediation_violations == []


@pytest.mark.parametrize("case", [MONITOR, FORWARDER, NONE])
def test_a_blocked_receive_wakes_when_its_message_arrives(daq_store, daq_config, case):
    runtime, cid, u, a, i = start(daq_store, daq_config, case=case)
    got = []
    waiter = threading.Thread(
        target=lambda: got.append((a.receive("U", timeout=5), time.monotonic()))
    )
    waiter.start()
    wait_until(lambda: a._waiting == 1)
    sent = time.monotonic()
    u.send("A", "Request", {"info": "x"})
    waiter.join(timeout=5)
    [(message, woke)] = got
    assert message == ("Request", {"info": "x"})
    assert woke - sent < 1


@pytest.mark.parametrize("case", [MONITOR, FORWARDER, NONE])
def test_receivers_blocked_on_two_peers_each_get_their_own(daq_store, daq_config, case):
    # U's message wakes both receivers; the one waiting on I waits again
    # and is woken by I's message
    runtime, cid, u, a, i = start(daq_store, daq_config, case=case)
    got = {}

    def receive(peer):
        got[peer] = a.receive(peer, timeout=5)

    waiters = [threading.Thread(target=receive, args=(peer,)) for peer in ("U", "I")]
    for waiter in waiters:
        waiter.start()
    wait_until(lambda: a._waiting == 2)
    u.send("A", "Request", {"info": "x"})
    wait_until(lambda: "U" in got)
    a.send("I", "Request", {"info": "y"})
    assert i.receive("A") == ("Request", {"info": "y"})
    i.send("A", "NotSupported")
    for waiter in waiters:
        waiter.join(timeout=5)
    assert got == {"U": ("Request", {"info": "x"}), "I": ("NotSupported", {})}
    assert runtime.dropped == [] and runtime.mediation_violations == []


def _to_the_first_poll(u, a, i):
    u.send("A", "Request", {"info": "x"})
    a.receive("U")
    a.send("I", "Request", {"info": "x"})
    i.receive("A")
    i.send("A", "Support")
    a.receive("I")
    a.send("I", "Poll")
    i.receive("A")


def test_a_published_lone_surrogate_fails_the_assertion_at_the_mediator(daq_store, daq_config):
    # a string holding a lone surrogate has no UTF-8 byte length, so
    # size(data) <= 512 is an evaluation error at A's mediator, not an
    # exception raised into the publisher
    runtime, cid, u, a, i = start(daq_store, daq_config)
    _to_the_first_poll(u, a, i)
    raw = ConversationMessage(
        kind=IN_SESSION,
        cid=cid,
        sender="I",
        receiver="A",
        label="Raw",
        payload=(("data", "\ud800"),),
    )
    body = encode_message(raw)
    assert b'"type":"string","value":"\\ud800"' in body
    runtime.broker.publish(f"s.{cid}", f"{cid}.I.A", body)
    [(stage, verdict, _)] = runtime.dropped
    assert (stage, verdict.kind) == ("deliver", "assertion-failed")
    assert "lone surrogate" in verdict.detail
    assert a.status() == "violated"
    with pytest.raises(Timeout):
        a.receive("I", timeout=0.05)


def test_a_sent_lone_surrogate_fails_the_assertion_at_the_sender(daq_store, daq_config):
    runtime, cid, u, a, i = start(daq_store, daq_config)
    _to_the_first_poll(u, a, i)
    i.send("A", "Raw", {"data": "\ud800"})
    [(stage, verdict, _)] = runtime.dropped
    assert (stage, verdict.kind) == ("send", "assertion-failed")
    assert "lone surrogate" in verdict.detail
    assert i.status() == "violated"
    with pytest.raises(Timeout):
        a.receive("I", timeout=0.05)
