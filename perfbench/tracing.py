"""Spans around the runtime's layer boundaries, and the per-layer table.

The benchmark wraps public functions where the runtime calls them, so the
program itself carries no tracing code. A span records its name, start, end,
parent span and the context the benchmark was in when it opened: a legal
message, a session set-up, a hostile operation, a stop or an end-of-session
probe, each with its own id. Spans stay in memory, in flat arrays, until the
run ends and are then written out.

A span's self time is its duration minus that of its direct children. All
work runs in one thread, so children nest inside their parent and never
overlap each other.
"""

from __future__ import annotations

import gzip
import statistics
import time
from array import array
from collections import defaultdict

import parley.endpoint as endpoint_mod
import parley.fsm as fsm_mod
import parley.monitor as monitor_mod
import parley.parser as parser_mod
import parley.store as store_mod
from parley.broker import Broker
from parley.endpoint import Endpoint
from parley.monitor import Monitor
from parley.predicates import CompiledPredicate
from parley.store import ProtocolStore

now = time.perf_counter_ns

MONITOR_KINDS = (
    monitor_mod.UNKNOWN_SESSION,
    monitor_mod.UNEXPECTED_LABEL,
    monitor_mod.WRONG_PEER,
    monitor_mod.ASSERTION_FAILED,
    monitor_mod.PAYLOAD_ARITY,
    monitor_mod.AFTER_COMPLETION,
)

# (owner, attribute, span name, what to keep of (args, result)). Functions
# the runtime imported by name are wrapped in the importing module.
TARGETS = (
    (endpoint_mod, "encode_message", "wire.encode", lambda a, r: len(r)),
    (endpoint_mod, "decode_message", "wire.decode", None),
    (Broker, "publish", "broker.publish", lambda a, r: (a[1], r)),
    (Broker, "push", "broker.push", lambda a, r: a[1]),
    (Broker, "declare_queue", "broker.declare_queue", None),
    (Broker, "delete_queue", "broker.delete_queue", None),
    (Broker, "bind", "broker.bind", None),
    (Monitor, "check", "monitor.check", lambda a, r: r.kind),
    (Monitor, "init_session", "monitor.init_session", None),
    (fsm_mod, "compile", "fsm.compile", lambda a, r: r.state_count()),
    (fsm_mod, "active_threads", "fsm.active_threads", None),
    (CompiledPredicate, "eval", "predicates.eval", None),
    (monitor_mod, "compile_predicate", "predicates.compile", None),
    (Endpoint, "send", "endpoint.send", None),
    (Endpoint, "receive", "endpoint.receive", None),
    (Endpoint, "create", "endpoint.create", None),
    (Endpoint, "join", "endpoint.join", None),
    (parser_mod, "parse_global", "parser.parse_global", None),
    (store_mod, "project_all", "projection.project_all", None),
    (ProtocolStore, "register_projections", "store.register_projections", None),
)


class Tracer:
    def __init__(self):
        self.names: list = []
        self.starts = array("q")
        self.ends = array("q")
        self.parents = array("l")
        self.contexts: list = []
        self.infos: list = []
        self._stack: list = []
        self._patches: list = []
        self._next_id = 0
        self.context = ("prep", 0)

    def __len__(self) -> int:
        return len(self.names)

    def enter(self, kind: str) -> None:
        """Attribute the spans that follow to a new context of ``kind``."""
        self._next_id += 1
        self.context = (kind, self._next_id)

    def install(self) -> None:
        for owner, attr, name, keep in TARGETS:
            original = getattr(owner, attr)
            self._patches.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original, keep))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _wrap(self, name, fn, keep):
        names, starts, ends, parents = self.names, self.starts, self.ends, self.parents
        contexts, infos, stack = self.contexts, self.infos, self._stack
        tracer = self

        def traced(*args, **kwargs):
            index = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            contexts.append(tracer.context)
            infos.append(None)
            ends.append(0)
            stack.append(index)
            starts.append(now())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = now()
                stack.pop()
            if keep is not None:
                infos[index] = keep(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def write(self, path: str) -> None:
        """One tab-separated line per span: id, parent, name, start, end,
        context kind, context id, kept detail."""
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as out:
            out.write("id\tparent\tname\tstart_ns\tend_ns\tcontext\tcontext_id\tdetail\n")
            for i, name in enumerate(self.names):
                kind, cid = self.contexts[i]
                info = self.infos[i]
                out.write(
                    f"{i}\t{self.parents[i]}\t{name}\t{self.starts[i]}\t{self.ends[i]}"
                    f"\t{kind}\t{cid}\t{'' if info is None else info}\n"
                )

    # --- the per-layer table ----------------------------------------------------

    def self_times(self) -> array:
        own = array("q", (end - start for start, end in zip(self.starts, self.ends)))
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                own[parent] -= self.ends[i] - self.starts[i]
        return own

    def layer_metrics(self, first: int, msgs: int, sessions: int) -> dict:
        """Per-layer figures over spans ``first`` onward (one driving phase)."""
        own = self.self_times()
        count = defaultdict(int)  # (name, context kind) -> calls
        busy = defaultdict(int)  # (name, context kind) -> inclusive ns
        self_ns = defaultdict(int)  # (name, context kind) -> self ns
        total_count = defaultdict(int)  # name -> calls in any context
        total_busy = defaultdict(int)  # name -> inclusive ns in any context
        samples = defaultdict(list)  # name -> inclusive ns (message/set-up contexts)
        refused = defaultdict(int)
        refuse_self = []
        encoded = hits = publishes = session_deliveries = inbox_pushes = states = 0
        for i in range(first, len(self.names)):
            name, kind, info = self.names[i], self.contexts[i][0], self.infos[i]
            took = self.ends[i] - self.starts[i]
            key = (name, kind)
            count[key] += 1
            busy[key] += took
            self_ns[key] += own[i]
            total_count[name] += 1
            total_busy[name] += took
            if name == "monitor.check" and info is not None:
                refused[info] += 1
                refuse_self.append(own[i])
            if kind == "msg":
                if name == "wire.encode":
                    encoded += info
                elif name == "broker.publish":
                    publishes += 1
                    hits += info[1]
                    if info[0].startswith("s."):
                        session_deliveries += info[1]
                elif name == "broker.push" and info.startswith("in.") and self.parents[i] >= 0:
                    inbox_pushes += 1
                elif name in ("endpoint.send", "endpoint.receive"):
                    samples[name].append(took if name == "endpoint.send" else own[i])
            elif kind == "setup":
                if name in ("endpoint.create", "endpoint.join"):
                    samples[name].append(took)
                elif name == "fsm.compile":
                    states += info

        def per_msg(value):
            return value / msgs

        def per_session(value):
            return value / sessions

        def us(ns):
            return ns / 1000.0

        def p50_us(name):
            return us(statistics.median(samples[name])) if samples[name] else 0.0

        def us_per_call(ns, calls):
            return us(ns / calls) if calls else 0.0

        out = {
            "wire.encode.calls_per_msg": per_msg(count["wire.encode", "msg"]),
            "wire.decode.calls_per_msg": per_msg(count["wire.decode", "msg"]),
            "wire.encode.self_us_per_msg": us(per_msg(self_ns["wire.encode", "msg"])),
            "wire.decode.self_us_per_msg": us(per_msg(self_ns["wire.decode", "msg"])),
            "wire.bytes_encoded_per_msg": per_msg(encoded),
            "broker.publish.self_us_per_msg": us(per_msg(self_ns["broker.publish", "msg"])),
            "broker.push.self_us_per_msg": us(per_msg(self_ns["broker.push", "msg"])),
            "broker.route_hits_per_publish": hits / publishes if publishes else 0.0,
            "broker.useful_delivery_ratio": (
                inbox_pushes / session_deliveries if session_deliveries else 0.0
            ),
            "broker.queues_declared_per_session": per_session(
                count["broker.declare_queue", "setup"]
            ),
            "broker.queues_deleted_per_session": per_session(
                total_count["broker.delete_queue"]
            ),
            "broker.bindings_per_session": per_session(count["broker.bind", "setup"]),
            "monitor.check.calls_per_msg": per_msg(count["monitor.check", "msg"]),
            "monitor.check.self_us_per_call": us_per_call(
                self_ns["monitor.check", "msg"], count["monitor.check", "msg"]
            ),
            "monitor.init_session.us_per_session": us(
                per_session(busy["monitor.init_session", "setup"])
            ),
            "monitor.refuse.self_us_per_call": us_per_call(
                sum(refuse_self), len(refuse_self)
            ),
            "fsm.compile.calls_per_session": per_session(count["fsm.compile", "setup"]),
            "fsm.compile.us_per_session": us(per_session(busy["fsm.compile", "setup"])),
            "fsm.states_per_session": per_session(states),
            "fsm.active_threads.calls_per_msg": per_msg(count["fsm.active_threads", "msg"]),
            "fsm.active_threads.us_per_msg": us(per_msg(busy["fsm.active_threads", "msg"])),
            "predicates.eval.calls_per_msg": per_msg(count["predicates.eval", "msg"]),
            "predicates.eval.us_per_call": us_per_call(
                total_busy["predicates.eval"], total_count["predicates.eval"]
            ),
            "predicates.compile.calls": float(total_count["predicates.compile"]),
            "endpoint.send.us_p50": p50_us("endpoint.send"),
            "endpoint.receive.self_us_p50": p50_us("endpoint.receive"),
            "endpoint.create.us_p50": p50_us("endpoint.create"),
            "endpoint.join.us_p50": p50_us("endpoint.join"),
        }
        for kind in MONITOR_KINDS:
            out[f"monitor.refused.{kind}"] = float(refused[kind])
        return out

    def setup_metrics(self, last: int) -> dict:
        """Median inclusive milliseconds of the set-up layers, spans before ``last``."""
        samples = defaultdict(list)
        for i in range(last):
            samples[self.names[i]].append(self.ends[i] - self.starts[i])
        return {
            name + ".ms": statistics.median(samples[name]) / 1e6 if samples[name] else 0.0
            for name in ("parser.parse_global", "projection.project_all", "store.register_projections")
        }
