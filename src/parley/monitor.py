"""Per-endpoint conversation monitors.

A monitor owns one FSM-backed session per (conversation id, role) pair, from
``init_session`` to ``end_session``. Each checked message either advances
exactly one thread cursor or produces a violation verdict and leaves the
session untouched; payload bindings accumulate across the whole session so
later assertions can refer to earlier fields.

A session is an ``fsm.Run`` of its nested FSM (cursors, fired threads and
counters), copied from the machine's settled start and stepped only by the
run's ``transition``, ``fire`` and ``enabled``, the same code that
enumerates the machine's trace language.
The monitor adds payload arity, bindings, assertions, verdicts and session
status on top; it has no copy of the thread semantics.

Each monitor compiles a protocol reference once. ``Monitor.machines`` maps
the reference to the ``LocalProtocol`` it was compiled from and the
machine, and ``init_session`` reuses the machine for as long as the
resolver returns that same ``LocalProtocol`` object; a new object, such as
a re-registered view, is compiled afresh. Runs only read the machine, so
all sessions of a reference share it. A reference that does not compile is
not remembered, and each invitation naming it fails on its own.

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
    run: fsmmod.Run
    env: Dict[str, object] = field(default_factory=dict)
    status: str = ACTIVE


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
    # silently coerced; a typo must not quietly change enforcement.
    return os.environ.get(MODE_ENV_VAR, ENFORCE)


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
        # protocol ref -> (the LocalProtocol compiled, its machine)
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
            machine = cached[1]
        else:
            try:
                machine = fsmmod.compile(protocol)
            except fsmmod.CompileError as exc:
                raise UnresolvableProtocol(
                    f"{protocol_ref!r} does not compile: {exc}"
                ) from exc
            self.machines[protocol_ref] = (protocol, machine)
        run = machine.start.copy()
        # completed already when the settled start is terminal (``Run.complete``)
        status = ACTIVE if run.open else COMPLETED
        self.sessions[key] = SessionState(protocol_ref, run, {}, status)
        return key

    def end_session(self, cid: str, role: str) -> None:
        """Forget the session for (cid, role); its messages are then checked
        as an unknown session. A no-op for a session it does not hold."""
        self.sessions.pop((cid, role), None)

    def session_status(self, key: tuple) -> str:
        state = self.sessions.get(key)
        return state.status if state is not None else UNKNOWN

    def enabled_triples(self, key: tuple) -> set:
        """The (label, sender, receiver) triples acceptable right now."""
        state = self.sessions.get(key)
        if state is None:
            return set()
        return {
            (tkey.label, tkey.sender, tkey.receiver)
            for _, tkey in state.run.enabled()
        }

    # --- checking ----------------------------------------------------------

    def check(self, message, role: str) -> MonitorVerdict:
        """Check one in-session message against the (cid, role) session.

        On acceptance the matching thread cursor advances and payload fields
        are bound; on violation nothing advances and the session status
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
        hit = state.run.transition(triple)
        if hit is None:
            verdict = self._miss(state, triple)
        else:
            verdict = self._fire(state, message, *hit)
        if not verdict.ok:
            state.status = VIOLATED
        if self.record_trace:
            self._record(message, role, verdict)
        return verdict

    def _fire(self, state: SessionState, message, tid: int, value) -> MonitorVerdict:
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
        run = state.run
        run.fire(tid, value.next_state)
        if state.status != VIOLATED:
            state.status = ACTIVE if run.open else COMPLETED
        return ACCEPT

    def _miss(self, state: SessionState, triple) -> MonitorVerdict:
        label = triple[0]
        if state.status == COMPLETED:
            return MonitorVerdict(
                False, AFTER_COMPLETION, f"{label} arrived after completion"
            )
        enabled = state.run.enabled()
        if any(tkey.label == label for _, tkey in enabled):
            return MonitorVerdict(
                False,
                WRONG_PEER,
                f"{label} expected between other roles, saw {triple[1]}->{triple[2]}",
            )
        return MonitorVerdict(False, UNEXPECTED_LABEL, f"{label} is not expected here")

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
