"""Acceptance suite: one test per shipping criterion.

Run with ``pytest tests/test_acceptance.py -v`` to get a pass/fail line per
criterion. Tolerances are pinned in the asserts.
"""

import threading
import time

import pytest

from parley.bench import (
    SCENARIOS,
    bench_run,
    messages_per_session,
    pingpong_source,
    wide_source,
)
from parley.endpoint import ConversationRuntime, inbox_queue
from parley.fsm import compile as compile_fsm
from parley.fsm import product_oracle, trace_language
from parley.monitor import (
    AFTER_COMPLETION,
    ASSERTION_FAILED,
    Monitor,
    PAYLOAD_ARITY,
    UNEXPECTED_LABEL,
    UNKNOWN_SESSION,
    WRONG_PEER,
)
from parley.parser import parse_global
from parley.projection import NON_DIRECTED_CHOICE, project, project_all
from parley.protocol import validate_local
from parley.store import ProtocolStore, local_ref
from parley.wire import (
    IN_SESSION,
    ConversationMessage,
    SessionEnded,
    Timeout,
    encode_message,
)

import protogen
from conftest import DAQ_GLOBAL_SRC


# --- criterion 1: the running example projects to its handwritten view ------


def test_c1_projection_matches_handwritten_aggregator_view(daq_global, daq_local_a):
    started = time.monotonic()
    report = project(daq_global, "A")
    assert report.protocol == daq_local_a
    assert time.monotonic() - started < 1.0  # pinned: under one second


# --- criterion 2: projection is total over a generated corpus ----------------


def test_c2_projection_total_over_generated_globals(daq_global):
    corpus = [daq_global] + [protogen.random_global(seed) for seed in range(200)]
    for protocol in corpus:
        reports = project_all(protocol)
        assert set(reports) == set(protocol.roles)
        for report in reports.values():
            if any(w.kind == NON_DIRECTED_CHOICE for w in report.warnings):
                continue  # explicitly flagged; the local view is best-effort
            validate_local(report.protocol)


# --- criterion 3: nested FSM language equals the flat product oracle ----------


def test_c3_fsm_trace_language_matches_product_oracle():
    started = time.monotonic()
    grid = list(protogen.local_grid())
    assert len(grid) >= 500
    for protocol in grid:
        nested = trace_language(compile_fsm(protocol), 8)
        flat = trace_language(product_oracle(protocol), 8)
        assert nested == flat, protocol.name
    assert time.monotonic() - started < 120.0  # pinned: under two minutes


# --- criterion 4: linear nested size against exponential product size ---------


def test_c4_nested_fsm_avoids_state_explosion():
    for k in range(1, 7):
        wide = parse_global(wide_source(k))
        for role in ("S", "C"):
            local = project(wide, role).protocol
            nested = compile_fsm(local)
            assert nested.state_count() == 4 * k + 2
            assert nested.state_count() <= 2 * (2 * k) + 2
            flat = product_oracle(local)
            assert len(flat.states) == 4 ** k


# --- criterion 5: monitor soundness and mutation completeness -----------------


def _mutation_store(daq_global):
    store = ProtocolStore()
    for protocol in [
        daq_global,
        parse_global(pingpong_source()),
        parse_global(pingpong_source(with_payload=True)),
    ] + [parse_global(wide_source(k)) for k in range(1, 6)]:
        store.register_global(protocol)
        store.register_projections(protocol)
    return store


def _msg(cid, label, sender, receiver, payload=()):
    return ConversationMessage(
        kind=IN_SESSION,
        cid=cid,
        sender=sender,
        receiver=receiver,
        label=label,
        payload=tuple(payload),
    )


def _pingpong_traces(with_payload):
    traces = []
    for rounds, size in ((1, 0), (3, 64), (5, 512)):
        payload = (("data", bytes(size)),) if with_payload else ()
        events = []
        for _ in range(rounds):
            events.append(("OK", "S", "C", payload))
            events.append(("ACK", "C", "S", payload))
        events.append(("KO", "S", "C", ()))
        traces.append(events)
    return traces


def _wide_traces(k):
    oks = [(f"OK{i}", "S", "C", ()) for i in range(1, k + 1)]
    acks = [(f"ACK{i}", "C", "S", ()) for i in range(1, k + 1)]
    traces = [oks + acks]
    if k > 1:
        paired = []
        for ok, ack in zip(oks, acks):
            paired.extend([ok, ack])
        traces.append(paired)
        traces.append(oks + list(reversed(acks)))
    return traces


def _trace_corpus(daq_global):
    corpus = [("DataAquisition", trace)
              for trace in protogen.complete_traces(daq_global, seed=3, loop_budget=3)]
    corpus += [("PingPong", t) for t in _pingpong_traces(False)]
    corpus += [("Echo", t) for t in _pingpong_traces(True)]
    for k in range(1, 6):
        corpus += [(f"Wide{k}", t) for t in _wide_traces(k)]
    return corpus


def _replay(store, name, role, events, cid="m"):
    """A fresh monitor with ``events`` already accepted."""
    monitor = Monitor(store.local, record_trace=False)
    monitor.init_session(cid, role, local_ref(name, role))
    for label, src, dst, payload in events:
        verdict = monitor.check(_msg(cid, label, src, dst, payload), role)
        assert verdict.ok, (name, role, label, verdict.kind, verdict.detail)
    return monitor


def _expect(verdict, kind, context):
    assert not verdict.ok, context
    assert verdict.kind == kind, (context, verdict.kind, verdict.detail)


def _mutate_trace(store, name, roles, labels, role, events):
    """Mutate every index once per applicable mutation; returns mutant count."""
    cid = "m"
    count = 0
    for i, (label, src, dst, payload) in enumerate(events):
        context = (name, role, i, label)
        prefix = events[:i]
        enabled = _replay(store, name, role, prefix, cid).enabled_triples((cid, role))
        enabled_labels = {t[0] for t in enabled}

        strangers = sorted(set(labels) - enabled_labels) or ["Zzz"]
        verdict = _replay(store, name, role, prefix, cid).check(
            _msg(cid, strangers[0], src, dst, payload), role
        )
        _expect(verdict, UNEXPECTED_LABEL, context)
        count += 1

        others = [r for r in roles if r not in (src, dst)]
        if others:
            swapped = (
                (label, src, others[0]) if src == role else (label, others[0], dst)
            )
            if swapped not in enabled:
                verdict = _replay(store, name, role, prefix, cid).check(
                    _msg(cid, swapped[0], swapped[1], swapped[2], payload), role
                )
                _expect(verdict, WRONG_PEER, context)
                count += 1

        verdict = _replay(store, name, role, prefix, cid).check(
            _msg(cid, label, src, dst, tuple(payload) + (("zz", 1),)), role
        )
        _expect(verdict, PAYLOAD_ARITY, context)
        count += 1

        verdict = _replay(store, name, role, prefix, cid).check(
            _msg("ghost", label, src, dst, payload), role
        )
        _expect(verdict, UNKNOWN_SESSION, context)
        count += 1

        if label == "Raw":
            verdict = _replay(store, name, role, prefix, cid).check(
                _msg(cid, label, src, dst, (("data", b"x" * 600),)), role
            )
            _expect(verdict, ASSERTION_FAILED, context)
            count += 1

    last = events[-1]
    verdict = _replay(store, name, role, events, cid).check(
        _msg(cid, last[0], last[1], last[2], last[3]), role
    )
    _expect(verdict, AFTER_COMPLETION, (name, role, "tail"))
    return count + 1


def test_c5_monitor_soundness_and_mutation_completeness(daq_global):
    store = _mutation_store(daq_global)
    corpus = _trace_corpus(daq_global)
    labels = {}
    for name, trace in corpus:
        labels.setdefault(name, set()).update(e[0] for e in trace)

    mutants = 0
    for name, trace in corpus:
        roles = store.global_protocol(name).roles
        for role in roles:
            events = [e for e in trace if role in (e[1], e[2])]
            if not events:
                continue
            monitor = _replay(store, name, role, events)  # soundness: all accepted
            assert monitor.session_status(("m", role)) == "completed"
            mutants += _mutate_trace(store, name, roles, labels[name], role, events)
    assert mutants >= 1000, mutants

    # assertion boundary on the running example's size bound
    prefix = [
        ("Request", "U", "A", (("info", "x"),)),
        ("Request", "A", "I", (("info", "x"),)),
        ("Support", "I", "A", ()),
        ("Poll", "A", "I", ()),
    ]
    for role in ("A", "I"):
        seen = [e for e in prefix if role in (e[1], e[2])]
        at_bound = _replay(store, "DataAquisition", role, seen).check(
            _msg("m", "Raw", "I", "A", (("data", b"y" * 512),)), role
        )
        assert at_bound.ok
        over = _replay(store, "DataAquisition", role, seen).check(
            _msg("m", "Raw", "I", "A", (("data", b"y" * 513),)), role
        )
        _expect(over, ASSERTION_FAILED, (role, "boundary"))


# --- criterion 6: end-to-end sessions, threaded and event-driven --------------


def _threaded_client(endpoint, readings, done):
    endpoint.send("A", "Request", {"info": "wind"})
    while True:
        try:
            _, payload = endpoint.receive("I", timeout=0.05)
            readings.append(payload["data"])
            continue
        except Timeout:
            pass
        except SessionEnded:
            break
        try:
            label, _ = endpoint.receive("A", timeout=0.05)
            if label == "Stop":
                break
        except Timeout:
            continue
        except SessionEnded:
            break
    done.set()


def _event_client(endpoint, readings, done):
    def on_formatted(label, payload):
        readings.append(payload["data"])
        endpoint.receive_async("I", on_formatted)

    def on_stop(label, payload):
        done.set()

    endpoint.send("A", "Request", {"info": "wind"})
    endpoint.receive_async("I", on_formatted)
    endpoint.receive_async("A", on_stop)


def _run_daq_session(daq_store, daq_config, style, branch):
    runtime = ConversationRuntime(daq_store)
    user = runtime.endpoint("user")
    user.create("DataAquisition", daq_config)
    agg = runtime.endpoint("agg").join("A")
    inst = runtime.endpoint("instr").join("I")

    readings = []
    done = threading.Event()
    worker = None
    if style == "threaded":
        worker = threading.Thread(target=_threaded_client, args=(user, readings, done))
        worker.start()
    else:
        _event_client(user, readings, done)

    # scripted aggregator and instrument, driven in the global order
    _, payload = agg.receive("U")
    agg.send("I", "Request", payload)
    inst.receive("A")
    if branch == "supported":
        inst.send("A", "Support")
        agg.receive("I")
        for blob in (b"r1", b"r2"):
            agg.send("I", "Poll")
            inst.receive("A")
            inst.send("A", "Raw", {"data": blob})
            agg.receive("I")
            inst.send("U", "Formatted", {"data": blob})
        agg.send("I", "Poll")
        inst.receive("A")
        inst.send("A", "Stop")
        agg.receive("I")
        agg.send("U", "Stop")
    else:
        inst.send("A", "NotSupported")
        agg.receive("I")
        agg.send("I", "Stop")
        inst.receive("A")
        agg.send("U", "Stop")

    assert done.wait(5.0), (style, branch)
    if worker is not None:
        worker.join(timeout=5.0)

    statuses = (user.status(), agg.status(), inst.status())
    traces = {
        principal: [
            (e.role, e.direction, e.label, e.sender, e.receiver, e.ok, e.kind)
            for e in runtime.monitor_for(principal).trace
        ]
        for principal in ("user", "agg", "instr")
    }
    for endpoint in (user, agg, inst):
        endpoint.stop()
    runtime.close()
    assert runtime.dropped == [], (style, branch)
    assert runtime.mediation_violations == [], (style, branch)
    return statuses, traces, readings


def test_c6_end_to_end_sessions_across_client_styles(daq_store, daq_config):
    for branch, expected in (("supported", [b"r1", b"r2"]), ("notsupported", [])):
        outcomes = {
            style: _run_daq_session(daq_store, daq_config, style, branch)
            for style in ("threaded", "event-driven")
        }
        for style, (statuses, traces, readings) in outcomes.items():
            assert statuses == ("completed", "completed", "completed"), (style, branch)
            assert readings == expected, (style, branch)
        assert outcomes["threaded"][1] == outcomes["event-driven"][1], branch


# --- criterion 7: monitoring-overhead trends -----------------------------------


@pytest.mark.slow
def test_c7_benchmark_trends():
    started = time.monotonic()
    records = []
    # Short sessions get extra repetitions: the overhead ratio is anchored at
    # n=100, whose 12ms window leaves the 100-repetition mean with too much
    # scheduler jitter for a five-point tolerance. Window time grows with n,
    # so the long-session cells are already tight at the library default.
    records.extend(bench_run("session-length", params=(100, 200, 300), repetitions=400))
    records.extend(bench_run("session-length", params=(400, 500, 600), repetitions=150))
    records.extend(bench_run("session-length", params=(700, 800, 900, 1000)))
    records.extend(bench_run("protocol-size"))
    records.extend(bench_run("payload-size"))
    assert time.monotonic() - started < 600.0  # pinned: under ten minutes
    by = {(r.scenario, r.parameter, r.case): r for r in records}

    # (a) case ordering holds within one standard deviation everywhere
    for scenario, spec in SCENARIOS.items():
        for param in spec.params:
            monitor = by[(scenario, param, "Monitor")]
            forwarder = by[(scenario, param, "Forwarder")]
            bare = by[(scenario, param, "NoMonitor")]
            slack_mf = max(monitor.stddev_ns, forwarder.stddev_ns)
            slack_fn = max(forwarder.stddev_ns, bare.stddev_ns)
            assert monitor.mean_ns >= forwarder.mean_ns - slack_mf, (scenario, param)
            assert forwarder.mean_ns >= bare.mean_ns - slack_fn, (scenario, param)

    # (b) session-length overhead does not grow beyond +5 percentage points
    def overhead(param):
        monitor = by[("session-length", param, "Monitor")].mean_ns
        forwarder = by[("session-length", param, "Forwarder")].mean_ns
        return (monitor - forwarder) / forwarder * 100.0

    baseline = overhead(100)
    for param in SCENARIOS["session-length"].params:
        assert overhead(param) <= baseline + 5.0, (param, overhead(param), baseline)

    # (c) per-message checking cost grows sub-linearly in parallel width
    def per_message_delta(k):
        monitor = by[("protocol-size", k, "Monitor")].mean_ns
        forwarder = by[("protocol-size", k, "Forwarder")].mean_ns
        return (monitor - forwarder) / messages_per_session("protocol-size", k)

    assert per_message_delta(1) > 0
    assert per_message_delta(6) <= 3 * per_message_delta(1)


# --- criterion 8: complete mediation audit -------------------------------------


def test_c8_mediation_bypass_detected_and_rejected(daq_store, daq_config):
    runtime = ConversationRuntime(daq_store)
    user = runtime.endpoint("user")
    cid = user.create("DataAquisition", daq_config)
    runtime.endpoint("agg").join("A")
    runtime.endpoint("instr").join("I")

    forged = ConversationMessage(
        kind=IN_SESSION, cid=cid, sender="A", receiver="U", label="Stop"
    )
    runtime.broker.push(inbox_queue("user", cid), encode_message(forged))

    assert len(runtime.mediation_violations) == 1
    queue_name, reason, _ = runtime.mediation_violations[0]
    assert queue_name == inbox_queue("user", cid)
    assert "mediation" in reason
    with pytest.raises(Timeout):
        user.receive("A", timeout=0.1)
