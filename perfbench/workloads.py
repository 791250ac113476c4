"""The benchmark's workloads, and the Bench that runs and checks them.

Load shape: one process, one thread, a closed loop with one client. Broker
delivery is synchronous in the sender's thread, so a single thread plays
every role: each legal message is one ``send()`` followed by the peer's
``receive()``, and the next step starts only after it returned, as callers
that wait for their peer's reply do. ``receive_async`` is never used because
it starts a dispatcher thread. The collector stays enabled.

The seed decides everything the library receives: payload bytes, round and
poll counts, branch choices, message interleavings and which operations are
hostile. The library sees only these generated inputs.

Each mediation case runs on a long-lived runtime that serves a fixed number
of sessions before it is closed and replaced. Sessions are never reclaimed
by the runtime today, so without the cap peak memory would grow with
throughput and a faster program would read as a memory regression.
"""

from __future__ import annotations

import base64
import gc
import json
import math
import random
import resource
import statistics
import time
from array import array
from collections import deque
from typing import Dict, List, Optional

from parley import (
    FORWARDER,
    MONITOR,
    NONE,
    ConversationMessage,
    ConversationRuntime,
    ProtocolStore,
    SessionEnded,
    Timeout,
    WireError,
    encode_message,
    make_invitation_config,
)
from parley import parser as parser_mod  # looked up per call so tracing can wrap it
from parley.bench import pingpong_source
from parley.endpoint import inbox_queue
from parley.monitor import ASSERTION_FAILED, COMPLETED, UNEXPECTED_LABEL, VIOLATED
from parley.wire import IN_SESSION, X_MEDIATED_IN, X_MEDIATED_OUT

# Measured intervals are read on the thread's CPU clock. Nothing the runtime
# does inside them blocks (delivery is synchronous in this one thread), so
# this is their wall time minus any time the (virtual) CPU was taken away,
# which on a shared machine otherwise dominates the tail. Bench.drive checks
# that the thread really never blocked.
clock = time.thread_time_ns
wall = time.perf_counter_ns

# The host's speed swings by up to 1.8x, in phases that last from under a
# second to minutes, so no run length averages it out. Every measured time is
# therefore scaled to a reference speed: a fixed kernel of stdlib work like
# the workload's own (no parley code) is timed at a fixed interval between
# measured operations, and samples are multiplied by the kernel's reference
# time over the median of its last PROBE_WINDOW times. Reported microseconds
# are microseconds on a machine where the kernel takes its reference time.
PROBE_WINDOW = 7
_PROBE_DOC = {
    "kind": "in_session",
    "cid": "0123456789abcdef" * 2,
    "from": "S",
    "to": "C",
    "label": "OK",
    "payload": [{"name": "n", "type": "int", "value": 7}],
    "extras": {"mediated_in": "C", "mediated_out": "S"},
}

# Set-up is timed again between sessions this often during a drive, so its
# median spans the whole run and not one moment of a machine whose speed drifts.
SETUP_EVERY_NS = 200_000_000
# Throughput is the median over windows of this much measured time.
WINDOW_NS = 250_000_000
# A drive in which the thread blocked more often than this was not measured
# faithfully on the CPU clock; a runtime that waits for another thread would.
BLOCKING_LIMIT = 100


DAQ_SOURCE = """\
global protocol DataAquisition(role U, role A, role I) {
    Request(string:info) from U to A;
    Request(string:info) from A to I;
    choice at I {
        Support from I to A;
        rec Poll {
            Poll from A to I;
            choice at I {
                @{size(data) <= 512}
                Raw(data) from I to A;
                Formatted(data) from I to U;
                Poll;
            } or {
                Stop from I to A;
                Stop from A to U;
            }
        }
    } or {
        NotSupported from I to A;
        Stop from A to I;
        Stop from A to U;
    }
}
"""

# Three roles, a four-branch parallel block (so every role's monitor compiles
# a multi-thread machine), a choice, and one assertion.
CHURN_SOURCE = """\
global protocol Churn(role C, role W, role L) {
    Open(int:n) from C to W;
    parallel {
        Fetch(int:n) from W to L;
        Data(int:n) from L to W;
    } and {
        Note from W to C;
    } and {
        Hint from C to L;
    } and {
        Tick from L to C;
    }
    choice at W {
        @{n <= 100}
        Done(int:n) from W to C;
        Close from C to L;
    } or {
        Abort from W to C;
        Cancel from C to L;
    }
}
"""


def rss_kb() -> int:
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmRSS:"):
                return int(line.split()[1])
    raise RuntimeError("VmRSS missing from /proc/self/status")


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def percentile(values: List[int], share: float) -> float:
    """Nearest-rank percentile; ``share`` in (0, 1]."""
    ordered = sorted(values)
    rank = min(max(1, math.ceil(share * len(ordered))), len(ordered))
    return ordered[rank - 1]


def payload_size(payload: Optional[Dict[str, object]]) -> int:
    if not payload:
        return 0
    return sum(len(v) for v in payload.values() if isinstance(v, (bytes, str)))


_PROBE_BLOB = bytes(range(256)) * 256


def small_kernel() -> int:
    """Small-object work: dicts and JSON of a message-sized document."""
    total = 0
    for i in range(4):
        doc = dict(_PROBE_DOC, label=str(i))
        text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
        total += len(json.loads(text)["cid"]) + sum(len(k) for k in doc)
    return total


def bulk_kernel() -> int:
    """Byte-proportional work: base64 and JSON over a 64 KiB buffer."""
    text = json.dumps({"data": base64.b64encode(_PROBE_BLOB).decode("ascii")})
    return len(base64.b64decode(json.loads(text)["data"]))


class SpeedProbe:
    """The factor that scales this moment's CPU times to the reference speed."""

    def __init__(self, kernel, reference_ns: int, every_ns: int):
        self.kernel = kernel
        self.reference_ns = reference_ns
        self.every_ns = every_ns
        self.recent: deque = deque(maxlen=PROBE_WINDOW)
        self.factors = array("d")
        self.due = 0
        self.factor = 1.0

    def tick(self) -> None:
        moment = wall()
        if moment < self.due:
            return
        while True:  # fills the window on the first tick
            started = clock()
            self.kernel()
            self.recent.append(clock() - started)
            if len(self.recent) == PROBE_WINDOW:
                break
        self.factor = self.reference_ns / statistics.median(self.recent)
        self.factors.append(self.factor)
        self.due = moment + self.every_ns


class Lane:
    """One mediation case: its current runtime and everything measured on it."""

    def __init__(self, case: str, workload: "Workload"):
        self.case = case
        self.workload = workload
        self.runtime: Optional[ConversationRuntime] = None
        self.on_runtime = 0
        self.rss_start: Optional[int] = None
        self.reset()

    def reset(self) -> None:
        self.msg_ns = array("q")
        self.setup_ns = array("q")
        self.refusal_ns = array("q")
        self.sessions = 0
        self.payload_bytes = 0
        self.windows: List[tuple] = []  # (messages, sessions, payload bytes, busy ns)
        self._window = [0, 0, 0, 0]
        self.inbox_refused = 0
        self.live_per_session: List[float] = []
        self.retained_kb: List[float] = []

    def count_session(self, msgs: int, payload_bytes: int, busy_ns: int) -> None:
        self.sessions += 1
        self.payload_bytes += payload_bytes
        window = self._window
        window[0] += msgs
        window[1] += 1
        window[2] += payload_bytes
        window[3] += busy_ns
        if window[3] >= WINDOW_NS:
            self.windows.append(tuple(window))
            self._window = [0, 0, 0, 0]

    def rate(self, field: int) -> float:
        """Median per-second rate of a window field (0 messages, 1 sessions,
        2 payload bytes); the whole drive when it was shorter than a window."""
        windows = self.windows or [tuple(self._window)]
        return statistics.median(w[field] / (w[3] / 1e9) for w in windows)

    def acquire(self, store: ProtocolStore) -> ConversationRuntime:
        if self.runtime is None or self.on_runtime >= self.workload.per_runtime:
            self.retire()
            self.runtime = ConversationRuntime(store, case=self.case, record_trace=False)
            for principal in self.workload.principals.values():
                self.runtime.endpoint(principal)
        self.on_runtime += 1
        return self.runtime

    def track_memory(self) -> None:
        """Measure retained memory over the next runtime's whole life.

        Taken once, on the first runtime after warm-up: later runtimes
        reuse the memory their retired predecessors freed, so their RSS
        growth would understate what they retain.
        """
        self.retire()
        gc.collect()
        self.rss_start = rss_kb()

    def retire(self) -> None:
        runtime = self.runtime
        if runtime is None:
            return
        if self.case == MONITOR and self.on_runtime:
            live = sum(
                len(runtime.monitor_for(p).sessions)
                for p in self.workload.principals.values()
            )
            self.live_per_session.append(live / self.on_runtime)
        if self.rss_start is not None and self.on_runtime:
            gc.collect()
            self.retained_kb.append((rss_kb() - self.rss_start) / self.on_runtime)
            self.rss_start = None
        runtime.close()
        self.runtime = None
        self.on_runtime = 0
        # Free the retired runtime's reference cycles now, outside any measured
        # interval, so that each runtime starts from the same heap and peak
        # memory and collection pauses do not depend on when the collector
        # last happened to run.
        gc.collect()


class Session:
    """One conversation; every runtime call it makes is timed and checked."""

    def __init__(self, bench: "Bench", lane: Lane, runtime, endpoints, cid: str):
        self.bench = bench
        self.lane = lane
        self.runtime = runtime
        self.endpoints = endpoints
        self.cid = cid
        self.violators = set()
        self.busy = 0
        self.msgs = 0
        self.payload_bytes = 0

    def exchange(self, frm: str, to: str, label: str, payload=None):
        """One legal message: send, receive at the peer, compare with the script."""
        runtime = self.runtime
        dropped = len(runtime.dropped)
        violations = len(runtime.mediation_violations)
        sender, receiver = self.endpoints[frm], self.endpoints[to]
        if self.bench.tracer is not None:
            self.bench.tracer.enter("msg")
        started = self.bench.start()
        sender.send(to, label, payload)
        got = receiver.receive(frm)
        took = self.bench.elapsed(started)
        self.busy += took
        self.msgs += 1
        self.payload_bytes += payload_size(payload)
        self.lane.msg_ns.append(took)
        expected = (label, dict(payload) if payload else {})
        ok = (
            got == expected
            and len(runtime.dropped) == dropped
            and len(runtime.mediation_violations) == violations
        )
        self.bench.outcome(ok, f"legal {label} {frm}->{to} came out as {got[0]!r}")
        return got[1]

    def refused_send(self, frm: str, to: str, label: str, payload, kind: str) -> None:
        """A hostile send the sender's monitor must refuse with ``kind``."""
        runtime = self.runtime
        dropped = len(runtime.dropped)
        violations = len(runtime.mediation_violations)
        if self.bench.tracer is not None:
            self.bench.tracer.enter("hostile")
        started = self.bench.start()
        self.endpoints[frm].send(to, label, payload)
        took = self.bench.elapsed(started)
        self.busy += took
        self.lane.refusal_ns.append(took)
        fresh = runtime.dropped[dropped:]
        ok = (
            len(fresh) == 1
            and fresh[0][0] == "send"
            and fresh[0][1].kind == kind
            and len(runtime.mediation_violations) == violations
        )
        self.violators.add(frm)
        verdicts = [(stage, verdict.kind) for stage, verdict, _ in fresh]
        self.bench.outcome(ok, f"hostile {label} {frm}->{to} gave {verdicts}, not {kind}")

    def forged_push(self, frm: str, to: str, label: str, payload, extras) -> None:
        """A message pushed straight onto ``to``'s inbox around both mediators."""
        runtime = self.runtime
        dropped = len(runtime.dropped)
        violations = len(runtime.mediation_violations)
        data = encode_message(
            ConversationMessage(
                kind=IN_SESSION,
                cid=self.cid,
                sender=frm,
                receiver=to,
                label=label,
                payload=tuple(payload.items()),
                extras=extras,
            )
        )
        queue = inbox_queue(self.lane.workload.principals[to], self.cid)
        if self.bench.tracer is not None:
            self.bench.tracer.enter("hostile")
        started = self.bench.start()
        runtime.broker.push(queue, data)
        took = self.bench.elapsed(started)
        self.busy += took
        self.lane.refusal_ns.append(took)
        refused = len(runtime.mediation_violations) - violations
        self.lane.inbox_refused += refused
        ok = refused == 1 and len(runtime.dropped) == dropped
        self.bench.outcome(ok, f"forged {label} {frm}->{to} was not dropped by the audit")

    def undecodable_publish(self, frm: str, to: str, data: bytes) -> None:
        """Bytes that are no message, published on the session exchange."""
        if self.bench.tracer is not None:
            self.bench.tracer.enter("hostile")
        started = self.bench.start()
        try:
            self.runtime.broker.publish(f"s.{self.cid}", f"{self.cid}.{frm}.{to}", data)
        except WireError:
            # Known defect: the mediator raises into the publisher. Nothing was
            # delivered, so the operation holds; the escape is counted apart.
            self.bench.wire_error_escapes += 1
            self.bench.outcome(True, "")
        except Exception as exc:  # any other escape is a new defect
            self.bench.outcome(False, f"undecodable publish raised {exc!r}")
        else:
            self.bench.outcome(True, "")
        self.busy += self.bench.elapsed(started)

    def close(self) -> None:
        """Check nothing else was delivered and each monitor's verdict; stop."""
        bench = self.bench
        if bench.tracer is not None:
            bench.tracer.enter("probe")
        for role, endpoint in self.endpoints.items():
            for peer in self.endpoints:
                if peer == role:
                    continue
                try:
                    stray = endpoint.receive(peer, timeout=0)
                except (Timeout, SessionEnded):
                    continue
                bench.outcome(False, f"{role} holds an unscripted message {stray[0]!r}")
            if self.lane.case == MONITOR:
                want = VIOLATED if role in self.violators else COMPLETED
                status = endpoint.status()
                if status != want:
                    bench.problem(f"{role}'s monitor session is {status}, not {want}")
        if bench.tracer is not None:
            bench.tracer.enter("stop")
        started = bench.start()
        for endpoint in self.endpoints.values():
            endpoint.stop()
        self.busy += bench.elapsed(started)
        self.lane.count_session(self.msgs, self.payload_bytes, self.busy)


class Workload:
    name = ""
    sources: tuple = ()
    protocol = ""
    principals: Dict[str, str] = {}  # role -> principal; the creator first
    cases: tuple = (MONITOR,)
    per_runtime = 16
    warm_sessions = 4
    # The speed probe: a kernel like the workload's dominant work, its
    # reference time, and how often it runs (about 1.5-3% of the time).
    probe = (small_kernel, 50_000, 4_000_000)
    # The probe for set-up and session set-up, which are small-object work on
    # every workload; None means ``probe``.
    setup_probe = None

    def prepare(self, rng: random.Random) -> None:
        """Generate inputs that are reused across sessions."""

    def session(self, bench: "Bench", lane: Lane, warm: bool) -> None:
        raise NotImplementedError


class PingPongLong(Workload):
    name = "pingpong-long"
    sources = (pingpong_source(),)
    protocol = "PingPong"
    principals = {"S": "srv", "C": "cli"}
    cases = (MONITOR, FORWARDER, NONE)
    per_runtime = 8
    warm_sessions = 2
    rounds = 1000

    def session(self, bench, lane, warm):
        s = bench.open_session(lane)
        for _ in range(50 if warm else self.rounds):
            s.exchange("S", "C", "OK")
            s.exchange("C", "S", "ACK")
        s.exchange("S", "C", "KO")
        s.close()


class Payload64k(Workload):
    name = "payload-64k"
    sources = (pingpong_source(with_payload=True),)
    protocol = "Echo"
    principals = {"S": "srv", "C": "cli"}
    per_runtime = 16
    blob_size = 64 * 1024
    probe = (bulk_kernel, 600_000, 25_000_000)
    setup_probe = (small_kernel, 50_000, 4_000_000)

    def prepare(self, rng):
        self.blobs = [rng.randbytes(self.blob_size) for _ in range(8)]

    def session(self, bench, lane, warm):
        rng = bench.rng
        s = bench.open_session(lane)
        for _ in range(rng.randint(4, 12)):
            got = s.exchange("S", "C", "OK", {"data": rng.choice(self.blobs)})
            s.exchange("C", "S", "ACK", {"data": got["data"]})
        s.exchange("S", "C", "KO")
        s.close()


class SessionChurn(Workload):
    name = "session-churn"
    sources = (CHURN_SOURCE,)
    protocol = "Churn"
    principals = {"C": "cli", "W": "wrk", "L": "log"}
    per_runtime = 1000
    warm_sessions = 50

    def session(self, bench, lane, warm):
        rng = bench.rng
        n = rng.randrange(1000)
        branches = [
            [("W", "L", "Fetch", {"n": n}), ("L", "W", "Data", {"n": rng.randrange(1000)})],
            [("W", "C", "Note", None)],
            [("C", "L", "Hint", None)],
            [("L", "C", "Tick", None)],
        ]
        steps = []
        while branches:  # a seeded interleaving that keeps each branch's order
            branch = rng.choice(branches)
            steps.append(branch.pop(0))
            if not branch:
                branches.remove(branch)
        if rng.random() < 0.7:
            steps += [("W", "C", "Done", {"n": rng.randint(0, 100)}), ("C", "L", "Close", None)]
        else:
            steps += [("W", "C", "Abort", None), ("C", "L", "Cancel", None)]
        s = bench.open_session(lane)
        s.exchange("C", "W", "Open", {"n": n})
        for step in steps:
            s.exchange(*step)
        s.close()


class RefusalMix(Workload):
    """Long DataAquisition sessions with a seeded minority of hostile operations.

    Hostile sends happen where the sender's monitor cannot accept them: an
    oversize ``Raw`` right after ``Poll`` (refused by the assertion) and,
    between polls, labels that no thread of the sender enables.
    """

    name = "refusal-mix"
    sources = (DAQ_SOURCE,)
    protocol = "DataAquisition"
    principals = {"U": "user", "A": "agg", "I": "instr"}
    per_runtime = 16
    hostile_share = 0.2
    # (sender, receiver, label, payload field) sent between polls.
    not_enabled = (
        ("U", "A", "Request", "info"),
        ("I", "U", "Formatted", "data"),
        ("A", "U", "Formatted", "data"),
        ("A", "I", "Support", None),
    )
    # Tag sets that fail the inbox audit, for a message from I to A.
    forged_tags = (
        (),
        ((X_MEDIATED_OUT, "I"),),
        ((X_MEDIATED_OUT, "I"), (X_MEDIATED_IN, "U")),
    )

    def session(self, bench, lane, warm):
        rng = bench.rng
        s = bench.open_session(lane)
        info = rng.randbytes(8).hex()
        s.exchange("U", "A", "Request", {"info": info})
        s.exchange("A", "I", "Request", {"info": info})
        s.exchange("I", "A", "Support")
        for _ in range(rng.randint(100, 200)):
            hostile = rng.random() < self.hostile_share
            kind = rng.random()
            if hostile and kind < 0.3:
                frm, to, label, field = rng.choice(self.not_enabled)
                payload = {field: self._value(rng, field)} if field else None
                s.refused_send(frm, to, label, payload, UNEXPECTED_LABEL)
            elif hostile and kind < 0.6:
                data = rng.randbytes(rng.randint(1, 512))
                s.forged_push("I", "A", "Raw", {"data": data}, rng.choice(self.forged_tags))
            elif hostile and kind < 0.7:
                s.undecodable_publish("I", "A", self._garbage(rng))
            s.exchange("A", "I", "Poll")
            if hostile and kind >= 0.7:
                oversize = rng.randbytes(rng.randint(513, 2048))
                s.refused_send("I", "A", "Raw", {"data": oversize}, ASSERTION_FAILED)
            data = rng.randbytes(rng.randint(1, 512))
            s.exchange("I", "A", "Raw", {"data": data})
            s.exchange("I", "U", "Formatted", {"data": data[::-1]})
        s.exchange("A", "I", "Poll")
        s.exchange("I", "A", "Stop")
        s.exchange("A", "U", "Stop")
        s.close()

    @staticmethod
    def _value(rng, field):
        return rng.randbytes(4).hex() if field == "info" else rng.randbytes(16)

    @staticmethod
    def _garbage(rng) -> bytes:
        body = rng.randbytes(rng.randint(8, 64))
        # 0xff never starts UTF-8 and "{" followed by hex is no JSON object.
        return b"\xff" + body if rng.random() < 0.5 else b"{" + body.hex().encode()


WORKLOADS = {w.name: w for w in (PingPongLong, Payload64k, SessionChurn, RefusalMix)}


class Bench:
    """Runs one workload for one seed and keeps its counts and problems."""

    def __init__(self, workload: Workload, seed: int):
        self.workload = workload
        self.rng = random.Random(seed)
        self.tracer = None
        self.store: Optional[ProtocolStore] = None
        self.attempted = 0
        self.failed = 0
        self.wire_error_escapes = 0  # undecodable publishes that raised (ROADMAP D)
        self.problems: List[str] = []
        self.setup_s: List[float] = []
        self.blocked = 0  # voluntary context switches while driving
        self.probe = SpeedProbe(*workload.probe)
        self.setup_probe = SpeedProbe(*workload.setup_probe) if workload.setup_probe else self.probe
        self.lanes = [Lane(case, workload) for case in workload.cases]
        workload.prepare(self.rng)

    # --- outcomes -------------------------------------------------------------

    def outcome(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if ok:
            return
        self.failed += 1
        self.problems.append(what)

    def problem(self, what: str) -> None:
        self.problems.append(what)

    @property
    def correct(self) -> bool:
        return not self.problems

    # --- timing ---------------------------------------------------------------

    def start(self, probe: Optional[SpeedProbe] = None) -> int:
        (probe or self.probe).tick()
        return clock()

    def elapsed(self, started: int, probe: Optional[SpeedProbe] = None) -> int:
        """CPU nanoseconds since ``started``, at the reference speed."""
        return round((clock() - started) * (probe or self.probe).factor)

    # --- phases ---------------------------------------------------------------

    def set_up(self) -> None:
        """Parse, project, register and build a runtime per case, timed."""
        started = self.start(self.setup_probe)
        store = ProtocolStore()
        for source in self.workload.sources:
            store.register_projections(parser_mod.parse_global(source))
        for case in self.workload.cases:
            runtime = ConversationRuntime(store, case=case, record_trace=False)
            for principal in self.workload.principals.values():
                runtime.endpoint(principal)
        self.setup_s.append(self.elapsed(started, self.setup_probe) / 1e9)
        self.store = store

    def open_session(self, lane: Lane) -> Session:
        workload = self.workload
        runtime = lane.acquire(self.store)
        config = make_invitation_config(workload.protocol, workload.principals)
        roles = list(workload.principals)
        endpoints = {role: runtime.endpoint(workload.principals[role]) for role in roles}
        if self.tracer is not None:
            self.tracer.enter("setup")
        started = self.start(self.setup_probe)
        cid = endpoints[roles[0]].create(workload.protocol, config)
        for role in roles[1:]:
            endpoints[role].join(role)
        took = self.elapsed(started, self.setup_probe)
        lane.setup_ns.append(took)
        session = Session(self, lane, runtime, endpoints, cid)
        session.busy = took
        return session

    def warm_up(self, lanes: List[Lane]) -> None:
        for _ in range(self.workload.warm_sessions):
            for lane in lanes:
                self.workload.session(self, lane, warm=True)
        for lane in lanes:
            lane.track_memory()
            lane.reset()

    def drive(self, lanes: List[Lane], seconds: float, time_setup: bool = True) -> None:
        """Round-robin sessions over the lanes, in a seeded order, until time is up."""
        switches = resource.getrusage(resource.RUSAGE_THREAD).ru_nvcsw
        deadline = wall() + int(seconds * 1e9)
        next_setup = wall()
        order = list(lanes)
        while wall() < deadline:
            self.rng.shuffle(order)
            for lane in order:
                self.workload.session(self, lane, warm=False)
            if time_setup and wall() >= next_setup:
                self.set_up()
                next_setup = wall() + SETUP_EVERY_NS
        self.blocked += resource.getrusage(resource.RUSAGE_THREAD).ru_nvcsw - switches
        if self.blocked > BLOCKING_LIMIT:
            self.problem(f"the thread blocked {self.blocked} times while driving")
        for lane in lanes:
            lane.retire()
