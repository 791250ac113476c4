"""Monitoring-overhead benchmarks.

Each scenario runs one conversation between two principals under three
mediation cases: full monitoring, a forwarder that mediates and stamps but
never checks (the baseline that isolates checking cost from mediation cost),
and no mediation at all. A repetition builds a fresh runtime and broker,
creates the session (so FSM compilation is inside the timed window, where it
amortizes over the session), drives the scripted exchange, and tears down.
Delivery is synchronous in the sender's thread, so a single thread can play
both roles without deadlock.

Scenarios:

* ``session-length``: a recursive ping-pong; the parameter is the number of
  OK/ACK rounds before the closing KO, so a run carries 2n+1 messages.
* ``protocol-size``: 2k parallel branches, each a single send; the local FSM
  grows linearly (4k+2 states) while the flat product grows as 4^k. The
  parameter is k, a run carries 2k messages.
* ``payload-size``: one ping-pong round plus KO (3 messages) carrying a
  bytes payload of the given size.

``count_work`` counts work instead of timing it: the bytecodes one warm
session set-up, one message and one session's stop execute, split by the
source file they run in. The counts do not depend on the machine's speed or
load, so they show where a cut lands and stay comparable across runs.
"""

from __future__ import annotations

import gc
import os
import platform
import statistics
import sys
import time
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from .endpoint import FORWARDER, MONITOR, NONE, ConversationRuntime, make_invitation_config
from .parser import parse_global
from .store import ProtocolStore

CASES = ("Monitor", "Forwarder", "NoMonitor")
_CASE_RUNTIME = {"Monitor": MONITOR, "Forwarder": FORWARDER, "NoMonitor": NONE}

DEFAULT_REPETITIONS = 100
DEFAULT_WARMUP = 10
DEFAULT_CLOCK = time.monotonic_ns

SESSION_LENGTH_PARAMS = tuple(range(100, 1001, 100))
PROTOCOL_SIZE_PARAMS = (1, 2, 3, 4, 5, 6)
PAYLOAD_SIZE_PARAMS = (64, 256, 1024, 4096, 16384, 65536)


@dataclass(frozen=True)
class BenchRecord:
    scenario: str
    parameter: int
    case: str
    mean_ns: float
    stddev_ns: float
    repetitions: int


def pingpong_source(with_payload: bool = False) -> str:
    name = "Echo" if with_payload else "PingPong"
    payload = "(data)" if with_payload else ""
    return (
        f"global protocol {name}(role S, role C) {{\n"
        f"    rec X {{\n"
        f"        choice at S {{\n"
        f"            OK{payload} from S to C;\n"
        f"            ACK{payload} from C to S;\n"
        f"            X;\n"
        f"        }} or {{\n"
        f"            KO from S to C;\n"
        f"        }}\n"
        f"    }}\n"
        f"}}\n"
    )


def wide_source(k: int) -> str:
    branches = []
    for i in range(1, k + 1):
        branches.append(f"        OK{i} from S to C;")
        branches.append(f"        ACK{i} from C to S;")
    blocks = "\n    } and {\n".join(branches)
    return (
        f"global protocol Wide{k}(role S, role C) {{\n"
        f"    parallel {{\n"
        f"{blocks}\n"
        f"    }}\n"
        f"}}\n"
    )


def _drive_pingpong(server, client, rounds: int) -> None:
    for _ in range(rounds):
        server.send("C", "OK")
        client.receive("S")
        client.send("S", "ACK")
        server.receive("C")
    server.send("C", "KO")
    client.receive("S")


def _drive_wide(server, client, k: int) -> None:
    for i in range(1, k + 1):
        server.send("C", f"OK{i}")
    for i in range(1, k + 1):
        client.receive("S")
        client.send("S", f"ACK{i}")
    for _ in range(k):
        server.receive("C")


def _drive_payload(server, client, size: int) -> None:
    blob = bytes(size)
    server.send("C", "OK", {"data": blob})
    client.receive("S")
    client.send("S", "ACK", {"data": blob})
    server.receive("C")
    server.send("C", "KO")
    client.receive("S")


@dataclass(frozen=True)
class Scenario:
    name: str
    params: Tuple[int, ...]
    protocol_name: Callable[[int], str]
    source: Callable[[int], str]
    drive: Callable[[object, object, int], None]
    messages: Callable[[int], int]


SCENARIOS: Dict[str, Scenario] = {
    "session-length": Scenario(
        name="session-length",
        params=SESSION_LENGTH_PARAMS,
        protocol_name=lambda n: "PingPong",
        source=lambda n: pingpong_source(),
        drive=_drive_pingpong,
        messages=lambda n: 2 * n + 1,
    ),
    "protocol-size": Scenario(
        name="protocol-size",
        params=PROTOCOL_SIZE_PARAMS,
        protocol_name=lambda k: f"Wide{k}",
        source=wide_source,
        drive=_drive_wide,
        messages=lambda k: 2 * k,
    ),
    "payload-size": Scenario(
        name="payload-size",
        params=PAYLOAD_SIZE_PARAMS,
        protocol_name=lambda s: "Echo",
        source=lambda s: pingpong_source(with_payload=True),
        drive=_drive_payload,
        messages=lambda s: 3,
    ),
}


def messages_per_session(scenario: str, parameter: int) -> int:
    return SCENARIOS[scenario].messages(parameter)


def _store_for(scenario: Scenario, params: Sequence[int]) -> ProtocolStore:
    store = ProtocolStore()
    seen = set()
    for param in params:
        name = scenario.protocol_name(param)
        if name in seen:
            continue
        seen.add(name)
        protocol = parse_global(scenario.source(param))
        store.register_projections(protocol)
    return store


def _run_once(scenario: Scenario, param: int, case: str, store: ProtocolStore, clock) -> int:
    config = make_invitation_config(
        scenario.protocol_name(param), {"S": "srv", "C": "cli"}
    )
    started = clock()
    runtime = ConversationRuntime(store, case=_CASE_RUNTIME[case], record_trace=False)
    server = runtime.endpoint("srv")
    server.create(scenario.protocol_name(param), config)
    client = runtime.endpoint("cli").join("C")
    scenario.drive(server, client, param)
    server.stop()
    client.stop()
    runtime.close()
    return clock() - started


def bench_run(
    scenario_name: str,
    params: Optional[Iterable[int]] = None,
    cases: Sequence[str] = CASES,
    repetitions: int = DEFAULT_REPETITIONS,
    warmup: int = DEFAULT_WARMUP,
    clock=DEFAULT_CLOCK,
) -> List[BenchRecord]:
    scenario = SCENARIOS[scenario_name]
    chosen = tuple(params) if params is not None else scenario.params
    for case in cases:
        if case not in CASES:
            raise ValueError(f"unknown case {case!r}")
    store = _store_for(scenario, chosen)
    samples: Dict[Tuple[int, str], List[int]] = {
        (param, case): [] for param in chosen for case in cases
    }
    # The collector is paused while a window is timed and runs between
    # windows instead; repetitions are interleaved round-robin across the
    # cases so machine drift lands on every case equally rather than
    # biasing whichever case's block it happens to hit. Both matter for
    # the overhead ratios: a collection pause or a slow patch inside one
    # case's block shows up as a phantom overhead shift.
    #
    # The heap that existed before the sweep is collected once and then
    # frozen, so each between-window collection covers only the last
    # window's garbage instead of rescanning the caller's whole process
    # heap. The freeze is undone afterwards. If the caller has frozen
    # objects of its own, nothing is frozen here: unfreezing cannot tell
    # theirs from ours.
    was_enabled = gc.isenabled()
    freeze = gc.get_freeze_count() == 0
    gc.disable()
    if freeze:
        gc.collect()
        gc.freeze()
    try:
        for param in chosen:
            for case in cases:
                for _ in range(warmup):
                    _run_once(scenario, param, case, store, clock)
            gc.collect()
            for _ in range(repetitions):
                for case in cases:
                    samples[(param, case)].append(
                        _run_once(scenario, param, case, store, clock)
                    )
                    gc.collect()
    finally:
        if freeze:
            gc.unfreeze()
        if was_enabled:
            gc.enable()
    records = []
    for param in chosen:
        for case in cases:
            cell = samples[(param, case)]
            records.append(
                BenchRecord(
                    scenario=scenario.name,
                    parameter=param,
                    case=case,
                    mean_ns=statistics.mean(cell),
                    stddev_ns=statistics.stdev(cell) if len(cell) > 1 else 0.0,
                    repetitions=repetitions,
                )
            )
    return records


def _forwarder_means(records: Sequence[BenchRecord]) -> Dict[Tuple[str, int], float]:
    return {(r.scenario, r.parameter): r.mean_ns for r in records if r.case == "Forwarder"}


def bench_report(records: Sequence[BenchRecord]) -> str:
    """CSV with relative overhead against the Forwarder baseline."""
    baselines = _forwarder_means(records)
    lines = ["scenario,parameter,case,mean_ns,stddev_ns,overhead_vs_forwarder_pct"]
    for r in records:
        base = baselines.get((r.scenario, r.parameter))
        if base is None or base == 0:
            overhead = ""
        elif r.case == "Forwarder":
            overhead = "0.00"
        else:
            overhead = f"{(r.mean_ns - base) / base * 100:.2f}"
        lines.append(
            f"{r.scenario},{r.parameter},{r.case},"
            f"{r.mean_ns:.0f},{r.stddev_ns:.0f},{overhead}"
        )
    return "\n".join(lines) + "\n"


def environment() -> Dict[str, object]:
    """What a run was timed on: the Python version and implementation, the
    platform, and ``DEFAULT_CLOCK`` with what ``time.get_clock_info`` says
    of it."""
    name = DEFAULT_CLOCK.__name__
    info = time.get_clock_info(name.removesuffix("_ns"))
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "clock": {
            "function": f"time.{name}",
            "implementation": info.implementation,
            "resolution_s": info.resolution,
        },
    }


def bench_json(records: Sequence[BenchRecord]) -> Dict[str, dict]:
    """One document per scenario, for ``BENCH_<scenario>.json``.

    ``environment`` records what the run was timed on; ``bench_run``'s
    default clock is the one it names. Each cell is one (parameter, case) with
    its mean, standard deviation and repetition count, in ns per session;
    the overhead against the Forwarder is given both in percent and in ns
    per message, and is null without a Forwarder cell.
    """
    baselines = _forwarder_means(records)
    documents: Dict[str, dict] = {}
    timed_on = environment()
    for r in records:
        doc = documents.setdefault(
            r.scenario,
            {"scenario": r.scenario, "unit": "ns", "environment": timed_on, "cells": []},
        )
        messages = messages_per_session(r.scenario, r.parameter)
        base = baselines.get((r.scenario, r.parameter))
        doc["cells"].append(
            {
                "parameter": r.parameter,
                "case": r.case,
                "messages": messages,
                "mean_ns": r.mean_ns,
                "stddev_ns": r.stddev_ns,
                "repetitions": r.repetitions,
                "overhead_vs_forwarder_pct": (
                    (r.mean_ns - base) / base * 100 if base else None
                ),
                "over_forwarder_ns_per_msg": (
                    (r.mean_ns - base) / messages if base is not None else None
                ),
            }
        )
    return documents


# --- work counts ----------------------------------------------------------------


@dataclass(frozen=True)
class WorkCount:
    """Bytecodes executed, by source file name (``<string>`` for generated
    code such as dataclass ``__init__`` methods)."""

    setup: Dict[str, int]  # one warm ``create`` plus a ``join`` per other role
    per_message: Dict[str, float]  # one send and its receive, over the script
    stop: Dict[str, int]  # every role's ``stop``


def _count(counts: Counter, call, *args) -> None:
    """Run ``call(*args)``, adding the bytecodes it executes to ``counts``.

    Only frames ``call`` opens are traced, so the caller's own bytecodes are
    not counted.
    """

    def opcode(frame, event, arg):
        if event == "opcode":
            counts[frame.f_code.co_filename] += 1
        return opcode

    def enter(frame, event, arg):
        frame.f_trace_lines = False
        frame.f_trace_opcodes = True
        return opcode

    sys.settrace(enter)
    try:
        call(*args)
    finally:
        sys.settrace(None)


def _by_file(counts: Counter) -> Dict[str, int]:
    out: Counter = Counter()
    for path, n in counts.items():
        out[os.path.basename(path)] += n
    return dict(out)


def count_work(case: str, protocol_source: str, script: Sequence[tuple] = ()) -> WorkCount:
    """Count the bytecodes of one warm session of ``protocol_source`` in ``case``.

    Each role is played by a principal of the same name, and the first
    declared role creates the session. ``script`` lists the session's
    messages in order as ``(sender, receiver, label)`` or ``(sender,
    receiver, label, payload)``; each is sent and then received. A first
    session, with the same script, warms the runtime (nodes, compiled
    machines); the second is counted in three parts: set-up, messages and
    stop. The collector is off while counting, so no finalizer lands in a
    count.
    """
    if case not in CASES:
        raise ValueError(f"unknown case {case!r}")
    protocol = parse_global(protocol_source)
    store = ProtocolStore()
    store.register_projections(protocol)
    roles = protocol.roles
    config = make_invitation_config(protocol.name, {role: role for role in roles})
    runtime = ConversationRuntime(store, case=_CASE_RUNTIME[case], record_trace=False)
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(2):  # the first session warms the runtime; the second is kept
            setup, messages, stop = Counter(), Counter(), Counter()
            # endpoints are made outside the count, as a client holds its own
            endpoints = {role: runtime.endpoint(role) for role in roles}
            _count(setup, endpoints[roles[0]].create, protocol.name, config)
            for role in roles[1:]:
                _count(setup, endpoints[role].join, role)
            for sender, receiver, label, *payload in script:
                _count(messages, endpoints[sender].send, receiver, label, *payload)
                _count(messages, endpoints[receiver].receive, sender)
            for endpoint in endpoints.values():
                _count(stop, endpoint.stop)
    finally:
        if was_enabled:
            gc.enable()
    runtime.close()
    sent = len(script)
    return WorkCount(
        setup=_by_file(setup),
        per_message={name: n / sent for name, n in _by_file(messages).items()} if sent else {},
        stop=_by_file(stop),
    )


def pingpong_script(rounds: int) -> List[tuple]:
    """The messages of a ``session-length`` run of ``rounds`` rounds."""
    return [("S", "C", "OK"), ("C", "S", "ACK")] * rounds + [("S", "C", "KO")]
