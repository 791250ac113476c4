"""Per-endpoint conversation monitors.

A monitor owns one FSM-backed session per (conversation id, role) pair, from
``init_session`` to ``end_session``. Each checked message either moves the
session to its next configuration or produces a violation verdict and leaves
the session where it was; payload bindings accumulate across the whole
session so later assertions can refer to earlier fields.

A session holds a configuration of its nested FSM, an ``fsm.Config``: a
run (cursors, fired threads and counters) that is never stepped again, and
the moves taken from it so far. Beside each compiled machine, a monitor keeps
an ``fsm.Configs`` table that interns configurations by the whole of their
run's state, so every session of a reference that reaches a configuration
shares it. ``check`` takes an accepted triple with one lookup in the
configuration's ``moves`` and moves the session to the next configuration;
its work is the same at any nesting and any number of threads. On a miss
``check`` asks the run's ``transition``, and the table takes the hit with
``step`` on a copy of the run and interns the result: the same code that
enumerates the machine's trace language, so the monitor has no copy of the
thread semantics. It adds payload arity, bindings, assertions and verdicts
on top, all checked on every message, memoized move or not: a move that
binds nothing, asserts nothing and meets a message with no payload leaves
nothing to check. A session's status is read off its configuration's run: it
is completed while the run is, unless a refusal has marked it violated.

Refusals are not memoized. A refusal reads the configuration's run, which
``transition`` never writes, and asks ``transition`` only about the triples
that carry the refused label, from the machine's label index, to tell a
wrong peer from an unexpected label; an unknown label asks nothing. So a
refusal's work, like a hit's, does not grow with the number of threads, and
hostile labels add nothing to the table.

Memory is bounded: a table holds at most ``fsm.CONFIG_CAP`` configurations,
and when it is full it drops every entry and every entry's moves and starts
again. What is kept per reference is therefore that constant plus the one
configuration each live session holds.

Each monitor compiles a protocol reference once. ``Monitor.machines`` maps
the reference to the ``LocalProtocol`` it was compiled from, the machine and
the machine's table, and ``init_session`` reuses them for as long as the
resolver returns that same ``LocalProtocol`` object; a new object, such as
a re-registered view, is compiled afresh, with a table of its own. Runs
only read the machine, so all sessions of a reference share it, and a
session keeps the table it started in. A reference that does not compile
is not remembered, and each invitation naming it fails on its own.

The runtime checks every message under its broker's lock, so one monitor's
tables are written by one thread at a time. Two threads racing on a
standalone monitor can at worst intern a configuration twice, or leave the
table an entry per racing thread over its cap until it next fills; each copy is a correct
configuration, and every move recorded is one the run took.

Assertions are delegated to a pluggable logic engine. Each assertion
reaches the monitor already compiled, as the ``CompiledPredicate`` the parser
made of it, so the builtin engine only evaluates it; ExternalCommandEngine
shells out to any program speaking a one-line true/false/error protocol on
stdio, so other predicate languages can be plugged in without touching the
monitor.
"""

from __future__ import annotations

import json
import os
import subprocess
from base64 import b64encode
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Callable, Dict, List, Mapping, Optional

from . import fsm as fsmmod
from .predicates import CompiledPredicate, EvalError

# Never called here, since the parser compiles each assertion once. The name
# stays for perfbench/tracing.py, which wraps it to show that sessions
# compile nothing (its ``predicates.compile.calls`` reads 0).
from .predicates import compile_predicate  # noqa: F401
from .protocol import LocalProtocol

MODE_ENV_VAR = "MPST_MONITOR_MODE"
ENFORCE = "enforce"
SUPPRESS = "suppress"

ACTIVE = "active"
COMPLETED = "completed"
VIOLATED = "violated"
UNKNOWN = "unknown"

# Violation kinds.
UNKNOWN_SESSION = "unknown-session"
UNEXPECTED_LABEL = "unexpected-label"
WRONG_PEER = "wrong-peer"
ASSERTION_FAILED = "assertion-failed"
PAYLOAD_ARITY = "payload-arity"
AFTER_COMPLETION = "after-completion"


class MonitorError(Exception):
    pass


class UnresolvableProtocol(MonitorError):
    """The invitation's protocol reference cannot be turned into an FSM."""


class ConflictingInvitation(MonitorError):
    """A second invitation names a different protocol for an existing session."""


@dataclass(frozen=True)
class MonitorVerdict:
    ok: bool
    kind: Optional[str] = None
    detail: str = ""


ACCEPT = MonitorVerdict(True)


@dataclass
class SessionState:
    protocol_ref: str
    configs: fsmmod.Configs  # the table ``config`` was interned in
    config: fsmmod.Config
    env: Dict[str, object] = field(default_factory=dict)
    violated: bool = False  # a refusal was seen; the status stays violated


@dataclass(frozen=True)
class TraceEntry:
    cid: str
    role: str
    direction: str  # "outgoing" when the monitored role sent the message
    label: str
    sender: str
    receiver: str
    ok: bool
    kind: Optional[str]


class LogicEngine:
    """Evaluates one assertion under an environment.

    Returns True, False, or an EvalError value; implementations must not
    raise for evaluation-time problems. ``env`` is a read-only view of the
    bindings the assertion is checked under.
    """

    def eval(self, assertion: CompiledPredicate, env: Mapping[str, object]):
        raise NotImplementedError


class BuiltinLogicEngine(LogicEngine):
    """In-process evaluator for the pyexpr-like assertion language."""

    def eval(self, assertion: CompiledPredicate, env: Mapping[str, object]):
        return assertion.eval(env)


class ExternalCommandEngine(LogicEngine):
    """Runs a subprocess per evaluation.

    The command receives a JSON object {"assertion": ..., "env": {...}} on
    stdin (data values base64-encoded under {"__b64__": ...}) and must print
    one line: ``true``, ``false``, or ``error:<detail>``. Anything else,
    including a bad exit or a timeout, becomes an EvalError.
    """

    def __init__(self, argv: List[str], timeout: float = 10.0):
        self.argv = list(argv)
        self.timeout = timeout

    def eval(self, assertion: CompiledPredicate, env: Mapping[str, object]):
        payload = {
            "assertion": assertion.source_text,
            "env": {name: _jsonable(value) for name, value in env.items()},
        }
        try:
            proc = subprocess.run(
                self.argv,
                input=json.dumps(payload).encode("utf-8"),
                capture_output=True,
                timeout=self.timeout,
            )
        except (OSError, subprocess.TimeoutExpired) as exc:
            return EvalError(f"engine command failed: {exc}")
        if proc.returncode != 0:
            return EvalError(f"engine exited with {proc.returncode}")
        reply = proc.stdout.decode("utf-8", "replace").strip().splitlines()
        line = reply[0].strip() if reply else ""
        if line == "true":
            return True
        if line == "false":
            return False
        if line.startswith("error:"):
            return EvalError(line[len("error:"):].strip())
        return EvalError(f"engine reply not understood: {line!r}")


def _jsonable(value):
    if isinstance(value, bytes):
        return {"__b64__": b64encode(value).decode("ascii")}
    return value


def default_mode() -> str:
    # Invalid values surface in the Monitor constructor instead of being
    # silently coerced; a typo must not change enforcement unnoticed.
    return os.environ.get(MODE_ENV_VAR, ENFORCE)


def _refusal(run: fsmmod.Run, violated: bool, triple) -> MonitorVerdict:
    """The verdict on ``triple``, which ``run.transition`` refused."""
    label = triple[0]
    if not run.open and not violated:  # completed
        return MonitorVerdict(False, AFTER_COMPLETION, f"{label} arrived after completion")
    for other in run.fsm.by_label.get(label, ()):
        if run.transition(other):
            return MonitorVerdict(
                False,
                WRONG_PEER,
                f"{label} expected between other roles, saw {triple[1]}->{triple[2]}",
            )
    return MonitorVerdict(False, UNEXPECTED_LABEL, f"{label} is not expected here")


class Monitor:
    """Checks every message crossing one principal's endpoints.

    ``resolver`` turns a protocol reference from an invitation into a
    LocalProtocol (raising KeyError/LookupError when it cannot).
    """

    def __init__(
        self,
        resolver: Callable[[str], LocalProtocol],
        mode: Optional[str] = None,
        engine: Optional[LogicEngine] = None,
        record_trace: bool = True,
    ):
        self.resolver = resolver
        self.mode = mode or default_mode()
        if self.mode not in (ENFORCE, SUPPRESS):
            raise ValueError(f"unknown monitor mode {self.mode!r}")
        self.engine = engine or BuiltinLogicEngine()
        self.record_trace = record_trace
        self.sessions: Dict[tuple, SessionState] = {}
        self.trace: List[TraceEntry] = []
        # protocol ref -> (the LocalProtocol compiled, its machine, its Configs)
        self.machines: Dict[str, tuple] = {}

    # --- session lifecycle ------------------------------------------------

    def init_session(self, cid: str, role: str, protocol_ref: str) -> tuple:
        """Create (or idempotently re-accept) the session for (cid, role)."""
        key = (cid, role)
        existing = self.sessions.get(key)
        if existing is not None:
            if existing.protocol_ref == protocol_ref:
                return key
            raise ConflictingInvitation(
                f"session {key} already follows {existing.protocol_ref!r}, "
                f"invitation names {protocol_ref!r}"
            )
        try:
            protocol = self.resolver(protocol_ref)
        except LookupError as exc:
            raise UnresolvableProtocol(f"no local protocol for {protocol_ref!r}") from exc
        if protocol.self_role != role:
            raise UnresolvableProtocol(
                f"{protocol_ref!r} is the view of {protocol.self_role}, "
                f"but the invitation is for role {role}"
            )
        cached = self.machines.get(protocol_ref)
        if cached is not None and cached[0] is protocol:
            configs = cached[2]
        else:
            try:
                machine = fsmmod.compile(protocol)
            except fsmmod.CompileError as exc:
                raise UnresolvableProtocol(
                    f"{protocol_ref!r} does not compile: {exc}"
                ) from exc
            configs = fsmmod.Configs(machine)
            self.machines[protocol_ref] = (protocol, machine, configs)
        self.sessions[key] = SessionState(protocol_ref, configs, configs.start)
        return key

    def end_session(self, cid: str, role: str) -> None:
        """Forget the session for (cid, role); its messages are then checked
        as an unknown session. A no-op for a session it does not hold."""
        self.sessions.pop((cid, role), None)

    def session_status(self, key: tuple) -> str:
        state = self.sessions.get(key)
        if state is None:
            return UNKNOWN
        if state.violated:
            return VIOLATED
        return ACTIVE if state.config.run.open else COMPLETED

    def enabled_triples(self, key: tuple) -> set:
        """The (label, sender, receiver) triples acceptable right now."""
        state = self.sessions.get(key)
        if state is None:
            return set()
        return set(state.config.run.enabled())

    # --- checking ----------------------------------------------------------

    def check(self, message, role: str) -> MonitorVerdict:
        """Check one in-session message against the (cid, role) session.

        On acceptance the session moves to the next configuration and payload
        fields are bound; on violation nothing moves and the session status
        becomes ``violated``.
        """
        key = (message.cid, role)
        state = self.sessions.get(key)
        if state is None:
            verdict = MonitorVerdict(False, UNKNOWN_SESSION, f"no session {key}")
            if self.record_trace:
                self._record(message, role, verdict)
            return verdict

        triple = (message.label, message.sender, message.receiver)
        config = state.config
        move = config.moves.get(triple)
        if move is None:
            hit = config.run.transition(triple)
            if hit is not None:
                move = state.configs.step(config, triple, hit)
        if move is None:
            verdict = _refusal(config.run, state.violated, triple)
            state.violated = True
        else:
            value = move[0]
            if not message.payload and value.assertion is None and not value.var_binders:
                state.config = move[1]  # nothing to bind or assert
                if self.record_trace:
                    self._record(message, role, ACCEPT)
                return ACCEPT
            verdict = self._fire(state, message, move)
            if not verdict.ok:
                state.violated = True
        if self.record_trace:
            self._record(message, role, verdict)
        return verdict

    def _fire(self, state: SessionState, message, move: tuple) -> MonitorVerdict:
        value = move[0]
        binders = value.var_binders
        if len(message.payload) != len(binders):
            return MonitorVerdict(
                False,
                PAYLOAD_ARITY,
                f"{message.label} carries {len(message.payload)} fields, "
                f"{len(binders)} declared",
            )
        assertion = value.assertion
        if assertion is not None:
            # The bindings the assertion is checked under become the
            # session's when it holds; a refusal leaves them as they were.
            # The engine sees them read-only.
            env = state.env.copy()
            for name, pair in zip(binders, message.payload):
                env[name] = pair[1]
            result = self.engine.eval(assertion, MappingProxyType(env))
            if result is not True:
                detail = (
                    f"evaluation error: {result.detail}"
                    if isinstance(result, EvalError)
                    else f"{assertion.source_text} is false"
                )
                return MonitorVerdict(False, ASSERTION_FAILED, detail)
            state.env = env
        elif binders:
            env = state.env
            for name, pair in zip(binders, message.payload):
                env[name] = pair[1]
        state.config = move[1]
        return ACCEPT

    # --- internals ----------------------------------------------------------

    def _record(self, message, role: str, verdict: MonitorVerdict) -> None:
        self.trace.append(
            TraceEntry(
                cid=message.cid,
                role=role,
                direction="outgoing" if message.sender == role else "incoming",
                label=message.label,
                sender=message.sender,
                receiver=message.receiver,
                ok=verdict.ok,
                kind=verdict.kind,
            )
        )
