"""Benchmark harness mechanics (timing pinned through an injected clock)."""

import gc
import importlib
import itertools
from collections import Counter
from pathlib import Path

import pytest

import parley.bench as bench_mod
from parley.bench import (
    BenchRecord,
    CASES,
    DEFAULT_CLOCK,
    SCENARIOS,
    bench_report,
    bench_run,
    count_build,
    count_work,
    messages_per_session,
    pingpong_script,
    pingpong_source,
    wide_script,
    wide_source,
)
from parley.fsm import compile as compile_fsm
from parley.monitor import Monitor
from parley.parser import parse_global
from parley.projection import project
from parley.wire import IN_SESSION, ConversationMessage

from conftest import DAQ_GLOBAL_SRC


def test_scenario_message_counts():
    assert messages_per_session("session-length", 100) == 201
    assert messages_per_session("protocol-size", 4) == 8
    assert messages_per_session("payload-size", 65536) == 3


def test_generated_protocols_parse_and_compile():
    pingpong = parse_global(pingpong_source())
    assert pingpong.name == "PingPong"
    echo = parse_global(pingpong_source(with_payload=True))
    assert echo.name == "Echo"
    wide = parse_global(wide_source(3))
    assert wide.name == "Wide3"
    fsm = compile_fsm(project(wide, "S").protocol)
    assert len(fsm.threads) == 2 * 3 + 1


def test_default_parameters_match_each_scenario():
    assert SCENARIOS["session-length"].params == tuple(range(100, 1001, 100))
    assert SCENARIOS["protocol-size"].params == (1, 2, 3, 4, 5, 6)
    assert SCENARIOS["payload-size"].params == (64, 256, 1024, 4096, 16384, 65536)


def test_bench_run_is_deterministic_under_fake_clock():
    ticker = itertools.count(step=1000)
    records = bench_run(
        "protocol-size",
        params=[1],
        repetitions=3,
        warmup=0,
        clock=lambda: next(ticker),
    )
    assert [r.case for r in records] == list(CASES)
    for record in records:
        assert record.scenario == "protocol-size"
        assert record.parameter == 1
        assert record.repetitions == 3
        assert record.mean_ns == 1000.0  # one tick per timed window
        assert record.stddev_ns == 0.0


def test_bench_run_warms_every_cell_then_times_every_cell_per_repetition(monkeypatch):
    calls = []

    def run_once(scenario, param, case, store, clock):
        calls.append((param, case))
        return 1

    monkeypatch.setattr(bench_mod, "_run_once", run_once)
    cases = ("Monitor", "Forwarder")
    bench_run("session-length", params=(100, 200), cases=cases, repetitions=3, warmup=2)
    cells = [(param, case) for param in (100, 200) for case in cases]
    warm = [cell for cell in cells for _ in range(2)]
    assert calls == warm + cells * 3


def test_bench_run_real_clock_smoke():
    records = bench_run("session-length", params=[2], repetitions=2, warmup=1)
    assert len(records) == 3
    assert all(r.mean_ns > 0 for r in records)


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_a_timed_session_carries_its_scenarios_script(monkeypatch, name):
    # what the sender's monitor checks during one timed window is exactly
    # the script count_work counts, in order, and nothing is refused
    spec = SCENARIOS[name]
    param = spec.params[0]
    checked, runtimes = [], []
    check = Monitor.check

    def recording_check(self, message, role):
        if role == message.sender:
            payload = (dict(message.payload),) if message.payload else ()
            checked.append((message.sender, message.receiver, message.label, *payload))
        return check(self, message, role)

    class RecordingRuntime(bench_mod.ConversationRuntime):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            runtimes.append(self)

    monkeypatch.setattr(Monitor, "check", recording_check)
    monkeypatch.setattr(bench_mod, "ConversationRuntime", RecordingRuntime)
    store = bench_mod._store_for(spec, (param,))
    bench_mod._run_once(spec, param, "Monitor", store, DEFAULT_CLOCK)
    assert checked == spec.script(param)
    [runtime] = runtimes
    assert runtime.dropped == [] and runtime.mediation_violations == []


def _failing_clock():
    raise RuntimeError("window failed")


@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize("caller_froze", [False, True])
@pytest.mark.parametrize("clock", [None, _failing_clock], ids=["ok", "raises"])
def test_bench_run_leaves_collector_as_found(enabled, caller_froze, clock):
    kept = [object()]  # a tracked container that exists before the run
    was_enabled = gc.isenabled()
    try:
        if caller_froze:
            gc.freeze()
        (gc.enable if enabled else gc.disable)()
        frozen = gc.get_freeze_count()
        if clock is None:
            bench_run("session-length", params=[1], repetitions=2, warmup=1)
        else:
            with pytest.raises(RuntimeError):
                bench_run("session-length", params=[1], repetitions=2, warmup=1, clock=clock)
        assert gc.isenabled() is enabled
        assert gc.get_freeze_count() == frozen
        # frozen objects are not in any generation; unfrozen ones are
        tracked = any(obj is kept for obj in gc.get_objects())
        assert tracked is not caller_froze
    finally:
        gc.unfreeze()
        (gc.enable if was_enabled else gc.disable)()


def test_bench_run_rejects_unknown_case():
    with pytest.raises(ValueError):
        bench_run("payload-size", params=[64], cases=("Monitor", "Turbo"))
    with pytest.raises(KeyError):
        bench_run("no-such-scenario", params=[1])


def test_report_format_and_overhead_column():
    records = [
        BenchRecord("session-length", 100, "Monitor", 1500.0, 10.0, 5),
        BenchRecord("session-length", 100, "Forwarder", 1000.0, 10.0, 5),
        BenchRecord("session-length", 100, "NoMonitor", 900.0, 10.0, 5),
    ]
    lines = bench_report(records).splitlines()
    assert lines[0] == "scenario,parameter,case,mean_ns,stddev_ns,overhead_vs_forwarder_pct"
    assert lines[1] == "session-length,100,Monitor,1500,10,50.00"
    assert lines[2] == "session-length,100,Forwarder,1000,10,0.00"
    assert lines[3] == "session-length,100,NoMonitor,900,10,-10.00"


def test_report_without_baseline_leaves_overhead_blank():
    records = [BenchRecord("payload-size", 64, "Monitor", 1200.0, 0.0, 1)]
    line = bench_report(records).splitlines()[1]
    assert line.endswith(",")


def test_count_work_counts_the_runtime_alone_and_repeats_exactly():
    first = count_work("NoMonitor", pingpong_source(), pingpong_script(3))
    assert first == count_work("NoMonitor", pingpong_source(), pingpong_script(3))
    for part in (first.setup, first.per_message, first.stop):
        assert part["endpoint.py"] > 0
        assert "bench.py" not in part  # the harness's own loop is not counted
        assert "monitor.py" not in part  # nothing is checked without a monitor
    with pytest.raises(ValueError):
        count_work("Turbo", pingpong_source())


def test_monitor_work_per_message_does_not_grow_with_session_length():
    # the deterministic companion of c7's (b): bytecodes per message, which
    # no scheduler jitter moves, are the same at n=100 and at n=1000
    per_message = {
        n: sum(count_work("Monitor", pingpong_source(), pingpong_script(n)).per_message.values())
        for n in (100, 1000)
    }
    assert per_message[1000] == pytest.approx(per_message[100], rel=0.01)


def test_a_raw_message_checks_its_assertion_in_a_third_of_the_tree_walks_work():
    # One Raw, checked by the sender's and the receiver's monitor, is the
    # script's only assertion. Walking the assertion's syntax tree cost 544
    # bytecodes in predicates.py; its compiled closures cost 114 (CPython
    # 3.11). The bound keeps headroom for other interpreter versions.
    script = [
        ("U", "A", "Request", {"info": "x"}),
        ("A", "I", "Request", {"info": "x"}),
        ("I", "A", "Support"),
        ("A", "I", "Poll"),
        ("I", "A", "Raw", {"data": bytes(100)}),
        ("I", "U", "Formatted", {"data": bytes(100)}),
        ("A", "I", "Poll"),
        ("I", "A", "Stop"),
        ("A", "U", "Stop"),
    ]
    work = count_work("Monitor", DAQ_GLOBAL_SRC, script)
    assert work.per_message["predicates.py"] * len(script) <= 544 / 3


def _per_message(case: str, source: str, script) -> float:
    return sum(count_work(case, source, script).per_message.values())


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_checking_costs_more_work_than_forwarding_and_forwarding_more_than_none(name):
    # the deterministic companion of c7's (a), on the first cell of each
    # scenario: the source and script c7 times there
    spec = SCENARIOS[name]
    param = spec.params[0]
    source, script = spec.source(param), spec.script(param)
    monitor, forwarder, none = (_per_message(case, source, script) for case in CASES)
    assert monitor >= forwarder >= none


def test_checking_work_per_message_does_not_grow_with_parallel_branches():
    # the deterministic companion of c7's (c): Monitor minus Forwarder per
    # message was 764 bytecodes at k=1 and 668 at k=6 (CPython 3.11), 776
    # and 680 with the quiet flag, 715 and 618 once a hit that binds,
    # asserts and carries nothing skipped _fire and no move wrote a status,
    # and 141 at both once a warm check was one lookup in its configuration
    checking = {
        k: _per_message("Monitor", wide_source(k), wide_script(k))
        - _per_message("Forwarder", wide_source(k), wide_script(k))
        for k in (1, 6)
    }
    assert checking[6] <= checking[1]
    assert checking[1] <= 740


def test_a_pingpong_message_is_checked_in_at_most_300_opcodes():
    # count_work on pingpong_script(100), CPython 3.11.7, as set-up / per
    # message / stop. Before quiet moves and the peer set:
    #   Monitor 2543 / 1157.3 / 546, Forwarder 2251 / 670.1 / 474,
    #   NoMonitor 1177 / 491.1 / 386, so checking cost 487.2 per message;
    # after: Monitor 2565 / 857.6 / 556, Forwarder 2273 / 611.1 / 484,
    #   NoMonitor 1199 / 432.1 / 396, and checking costs 246.5.
    # With Run.step taking every hit and the endpoint's one stopped field:
    #   Monitor 2553 / 863.3 / 560, Forwarder 2273 / 611.1 / 478,
    #   NoMonitor 1199 / 432.1 / 390, and checking costs 252.2.
    before = {
        "Monitor": (2543, 546),
        "Forwarder": (2251, 474),
        "NoMonitor": (1177, 386),
    }
    work = {case: count_work(case, pingpong_source(), pingpong_script(100)) for case in CASES}
    per_message = {case: sum(w.per_message.values()) for case, w in work.items()}
    assert per_message["Monitor"] - per_message["Forwarder"] <= 300
    assert per_message["Forwarder"] <= 671
    assert per_message["NoMonitor"] <= 492
    for case, (setup, stop) in before.items():
        assert sum(work[case].setup.values()) <= setup + 25, case
        assert sum(work[case].stop.values()) <= stop + 25, case


def test_a_warm_check_costs_the_same_at_any_width_and_at_most_150_opcodes():
    # Monitor minus Forwarder per message, on PingPong and on wide_source(k):
    # 252.2 on PingPong and 715.0 / 618.3 / 602.6 on k = 1 / 6 / 32 while
    # every check ran the nested-FSM interpreter, and 141.0 on each once a
    # warm check was one lookup in its configuration's moves (CPython 3.11)
    source, script = pingpong_source(), pingpong_script(100)
    checking = {
        "pingpong": _per_message("Monitor", source, script)
        - _per_message("Forwarder", source, script)
    }
    for k in (1, 2, 4, 8, 16, 32):
        checking[k] = _per_message("Monitor", wide_source(k), wide_script(k)) - _per_message(
            "Forwarder", wide_source(k), wide_script(k)
        )
    assert len({round(work, 6) for work in checking.values()}) == 1, checking
    assert checking["pingpong"] <= 150, checking


def test_a_pingpong_message_takes_the_shared_path_in_at_most_540_opcodes():
    # count_work on pingpong_script(100), CPython 3.11.7, as set-up / per
    # message / stop. With the generated dataclass __init__ and is_plain on
    # every push: Monitor 2541 / 863.3 / 560, Forwarder 2255 / 611.1 / 478,
    # NoMonitor 1181 / 432.1 / 390. Built in one pass, and trusted when its
    # own endpoint built it plain: Monitor 2151 / 771.3 / 560, Forwarder
    # 1865 / 519.1 / 478, NoMonitor 1157 / 334.1 / 390. Checking stays 252.2.
    work = {case: count_work(case, pingpong_source(), pingpong_script(100)) for case in CASES}
    per_message = {case: sum(w.per_message.values()) for case, w in work.items()}
    assert per_message["Forwarder"] <= 540
    assert per_message["NoMonitor"] <= 360
    assert per_message["Monitor"] - per_message["Forwarder"] <= 300
    assert sum(work["Monitor"].setup.values()) <= 2200


def test_a_refusal_is_checked_in_the_same_work_at_every_width():
    # the exact companion of test_refusal_touches_threads_by_depth_not_width:
    # the opcodes of one refusing Monitor.check at S. Scanning every thread,
    # an unknown label cost 405 at k=1 and 5799 at k=32, a wrong peer 398 and
    # 5110; asking transition about the label's triples costs 132 and 195 at
    # every k (CPython 3.11)
    def refusal(k, triple):
        local = project(parse_global(wide_source(k)), "S").protocol
        monitor = Monitor(lambda ref: local, record_trace=False)
        monitor.init_session("w", "S", local.name)
        label, sender, receiver = triple
        message = ConversationMessage(
            kind=IN_SESSION, cid="w", sender=sender, receiver=receiver, label=label
        )
        counts = Counter()
        verdict = bench_mod._count(counts, monitor.check, message, "S")
        return verdict.kind, sum(counts.values())

    for triple, kind in (
        (("NOPE", "S", "C"), "unexpected-label"),
        (("OK1", "C", "S"), "wrong-peer"),
    ):
        work = {k: refusal(k, triple) for k in (1, 2, 4, 8, 16, 32)}
        assert set(work.values()) == {work[1]}, (triple, work)
        assert work[1][0] == kind and work[1][1] <= 250, (triple, work)


def test_count_build_repeats_exactly_and_stays_under_28000_for_daq():
    # Building DataAquisition (parse_global, then register_projections) cost
    # 47,900 bytecodes with the character-stepping lexer and 20,287 with the
    # one-pattern lexer (CPython 3.11). The bound keeps headroom for other
    # interpreter versions.
    first = count_build(DAQ_GLOBAL_SRC)
    assert first == count_build(DAQ_GLOBAL_SRC)
    assert first["parser.py"] > 0 and first["projection.py"] > 0
    assert "bench.py" not in first
    assert sum(first.values()) <= 28_000


def test_tracer_targets_resolve(monkeypatch):
    # perfbench/run.py --trace 1 wraps these names; a rename must not
    # silently drop a layer from the trace
    monkeypatch.syspath_prepend(str(Path(__file__).parent.parent / "perfbench"))
    tracing = importlib.import_module("tracing")
    for owner, attr, name, _ in tracing.TARGETS:
        assert callable(getattr(owner, attr, None)), name
