"""Conversation endpoints over a mediated broker.

Topology per conversation (monitored cases): an application endpoint never
talks to its peers directly. Its sends are pushed straight onto its
principal's outbound queue ``mq.out.<principal>``, whose consumer is the
principal's mediator; the mediator checks the message against the
sender-side session FSM and publishes it onto the conversation's exchange
with routing key ``<cid>.<from>.<to>``, stamping its audit tag as a broker
header. Each participant's mediator queue is bound under the literal key
``<cid>.<peer>.<role>`` for each of its peers' roles, so the receiver's
mediator, and no other, picks the message up next, checks it against the
receiver-side FSM, adds the second audit tag to the headers, and only then
pushes the message onto the endpoint's inbox queue.
Inbox delivery asserts both header tags against the message's sender and
receiver, and ignores any tags a body carries in its extras, so anything
injected around the mediators is detected and dropped there.

The runtime puts bytes on no hop of its own: every queue it feeds carries
message objects, and bytes arrive only from outside it. Every hop, from the
sender's mediator to the inbox, takes its body through one rule,
``ConversationRuntime.decode_or_note``. The runtime keeps one slot,
``_judged``: the message object it last built plain or judged. A body that
is that very object is taken as it is. Any other message object is kept if
``wire.is_plain`` admits it, and is otherwise replaced by what its bytes
decode to; bytes are decoded. Whatever a hop takes becomes ``_judged``, and
it forwards that object, so after its first hop a message is always a plain
``ConversationMessage``, and a receiver gets what decoding the message's
bytes would give (``wire``). ``send`` and ``create`` store a message in
``_judged`` when they know it plain without asking ``is_plain``: its label,
roles, principal and protocol reference are exact ``str``, its cid is the hex
digits ``create`` made or a judged invitation's, and ``wire.plain_payload``
admits its payload. So a legal message is neither encoded nor decoded, nor
judged twice. Bytes that do not decode, objects that do not encode, messages
for a conversation the principal is not in, and messages whose routing key
disagrees with their body are recorded in ``mediation_violations`` and
dropped; nothing raises back into the publisher. So is a message that no
queue receives, which the sender's mediator learns from the count
``publish`` returns: its receiver has stopped, the receiver's mediator
refused the invitation, or the key names no peer of the receiver, as a
message addressed to its own sender's role does.

Why trusting ``_judged`` by identity is sound. Every object ever stored in
it is plain when it is stored: ``is_plain`` admitted it, ``send`` or
``create`` built it from exact parts, or decoding gave it. A plain message
holds only immutable values, so trusting that one object claims only what
is true of it. A forger holds the broker and may push or publish any body
with any headers. It can obtain judged objects, since a queue bound beside a
mediator's, or on ``invite``, sees every one, but republishing one gains
nothing. A flag on the message would not do, as a forger can build a message
with ``object.__new__`` and set any slot. ``send`` and ``create`` write
``_judged`` outside the broker lock and the hops inside it, so a race can
only make a hop judge an object it could have trusted: slower, never wrong.
Not covered: rewriting a delivered message's slots through the descriptor
setters, and reaching the runtime through the broker's internals.

Invitations follow the same shape: ``create`` pushes one invitation per
configured role onto the creator's outbound queue, and its mediator stamps it
and publishes it onto the shared ``invite`` exchange keyed by principal name.
Each invitee's mediator reads the invitation's role and local-protocol
reference once, initializes the monitor session from them and accepts the
invitation: it allocates the principal's share, binds it under one key per
peer role of the referenced local protocol, and queues the invitation with
its role, the protocol's roles and its inbox, where ``join`` claims it. The
roles always come from the store, which a monitor's resolver has asked once
already for the session. Nothing is sent back. An invitation without its
sender's stamp, or with a reference the store does not resolve or the
monitor cannot initialize, is recorded in ``mediation_violations`` before
anything is allocated for it, so a pending invitation is always an accepted
one. In the unmediated case ``create`` accepts each invitation itself, on the
same path, after judging one it does not know plain as the mediator would,
and records a refusal against the inbox it would have allocated.
The creator invites itself the same way; delivery is synchronous, so
``create`` claims its own invitation at once. If it was refused, ``create``
releases the shares the other invitees accepted and raises. A principal takes
at most one role in a conversation, and a role has one principal: ``create``
refuses a config that gives a principal two roles or a role two principals,
and a principal's mediator refuses a second invitation to a conversation it
is already in.

Session lifecycle. Accepting an invitation allocates the principal's share of
the conversation: the inbox ``in.<principal>.<cid>``, in the mediated cases
the mediator queue ``mq.s.<principal>.<cid>`` bound to ``s.<cid>`` under its
r-1 peer keys for a protocol of r roles (in the unmediated case the inbox is
bound there instead), the monitor session for
``(cid, role)`` and the node's entry for it, in ``pending`` until an endpoint
joins it and in ``joined`` from then on. The share is released when the
endpoint that joined it stops: both queues and their bindings are deleted,
the monitor session and the entry are dropped, and ``s.<cid>`` is deleted
once nothing is bound to it. ``ConversationRuntime.withdraw`` stops the
endpoint joined to a conversation, or releases the share when no endpoint
joined it; ``close()`` does so for every conversation.
Completion alone releases nothing, since ``receive`` and ``status`` still
read the completed session until the endpoint stops.

Locks and hand-off. Delivery is synchronous, and the broker hands an item to
a queue's consumer directly when nothing is queued ahead of it (``broker``),
so a message crosses every hop as a chain of calls in the sender's thread.
Each node keeps its pending shares under a plain lock, which ``join``
takes to claim one; the condition on that lock is built only when a ``join``
first has to wait, and notified only while one waits. The inbox consumer
files each message under its sender's role, or hands it to a callback
registered by ``receive_async``, under the endpoint's plain lock, which
``receive`` takes too, with its condition built the same lazy way. In a
single-threaded set-up or exchange the invitation or message is queued
before anyone asks for it, so no condition is built and nobody is woken.

Three mediation cases exist: ``monitor`` (full FSM checking), ``forwarder``
(mediation and tagging without any checking; the benchmark baseline), and
``none`` (endpoints bind straight to the conversation exchange).
"""

from __future__ import annotations

import os
import queue as queuemod
import threading
import time
from collections import deque
from functools import partial
from typing import Dict, List, Optional, Union

from .broker import Broker, Headers
from .monitor import COMPLETED, ENFORCE, UNKNOWN, Monitor, MonitorError
from .store import ProtocolStore, local_ref
from .wire import (
    IN_SESSION,
    INVITATION,
    ConversationMessage,
    DuplicateRegistration,
    IncompleteConfig,
    InvitationConfig,
    NotJoined,
    RoleMismatch,
    SessionEnded,
    Timeout,
    TransportError,
    UnknownPeerRole,
    WireError,
    X_MEDIATED_IN,
    X_MEDIATED_OUT,
    X_PRINCIPAL,
    X_PROTOCOL_REF,
    X_ROLE,
    decode_message,
    encode_message,
    is_plain,
    load_invitation_config,
    payload_from_dict,
    plain_payload,
)

MONITOR = "monitor"
FORWARDER = "forwarder"
NONE = "none"

_DEFAULT_TIMEOUT = 10.0

# What a queue carries: a message object, plain once the runtime has judged
# it, or bytes from outside the runtime.
Body = Union[bytes, ConversationMessage]


def make_invitation_config(protocol_name: str, principals: Dict[str, str]) -> InvitationConfig:
    """Convenience builder: role -> principal, capabilities by convention."""
    from .wire import InvitationEntry

    entries = tuple(
        InvitationEntry(role, principal, local_ref(protocol_name, role))
        for role, principal in principals.items()
    )
    return InvitationConfig(entries)


class _Node:
    """One principal's attachment to the broker."""

    def __init__(self, principal: str, monitor: Optional[Monitor]):
        self.principal = principal
        self.monitor = monitor
        # Each share of a conversation is in one of the two maps. A share no
        # endpoint has joined is pending, as cid -> (role, protocol's roles,
        # inbox) in the order accepted, so a claim scans pending shares only.
        self.pending: Dict[str, tuple] = {}
        self.joined: Dict[str, "Endpoint"] = {}  # cid -> the endpoint that joined it
        # Accepting, claiming and withdrawing a pending share take the plain
        # lock. The condition on it is built only when a ``join`` first has
        # to wait, and notified only while ``waiting`` says a join waits.
        self.lock = threading.Lock()
        self.cond: Optional[threading.Condition] = None
        self.waiting = 0


class ConversationRuntime:
    """Shared broker, protocol store, and mediation nodes for one process."""

    def __init__(
        self,
        store: ProtocolStore,
        case: str = MONITOR,
        monitor_mode: Optional[str] = None,
        record_trace: bool = True,
    ):
        if case not in (MONITOR, FORWARDER, NONE):
            raise ValueError(f"unknown mediation case {case!r}")
        self.store = store
        self.case = case
        self.broker = Broker()
        self.monitor_mode = monitor_mode
        self.record_trace = record_trace
        self._nodes: Dict[str, _Node] = {}
        self._lock = threading.RLock()
        self.dropped: List[tuple] = []  # (stage, verdict, message)
        self.mediation_violations: List[tuple] = []  # (queue, reason, message)
        # The message object last built plain or judged; ``decode_or_note``
        # takes this one object as it is. It starts as a plain message that
        # no hop carries, not as None, which a body from outside may be.
        self._judged = ConversationMessage(IN_SESSION, "", "", "")
        self.broker.declare_exchange("invite")

    # --- nodes --------------------------------------------------------------

    def node(self, principal: str) -> _Node:
        # A node is never removed and is published only once its mediator is
        # in place, so a node found without the lock is ready.
        found = self._nodes.get(principal)
        if found is not None:
            return found
        with self._lock:
            found = self._nodes.get(principal)
            if found is not None:
                return found
            monitor = None
            if self.case == MONITOR:
                monitor = Monitor(
                    self.store.local,
                    mode=self.monitor_mode,
                    record_trace=self.record_trace,
                )
            node = _Node(principal, monitor)
            if self.case in (MONITOR, FORWARDER):
                out_q = outbound_queue(principal)
                inv_q = f"mq.inv.{principal}"
                self.broker.declare_queue(out_q)
                self.broker.set_consumer(out_q, partial(self._on_out, node, out_q))
                self.broker.declare_queue(inv_q)
                self.broker.bind("invite", principal, inv_q)
                self.broker.set_consumer(inv_q, partial(self._on_inv, node, inv_q))
            self._nodes[principal] = node
            return node

    def endpoint(self, principal: str) -> "Endpoint":
        return Endpoint(self, self.node(principal))

    def monitor_for(self, principal: str) -> Optional[Monitor]:
        return self.node(principal).monitor

    # --- mediation handlers ---------------------------------------------------

    def decode_or_note(self, queue: str, body: Body) -> Optional[ConversationMessage]:
        """The plain message in ``body``, or None after recording why there is
        none; every hop takes its body through here.

        The object last built plain or judged is returned as it is. Any other
        message object is returned if ``is_plain`` admits it, and otherwise
        replaced by what its bytes decode to; anything else is decoded.
        Whatever is returned becomes the object last judged.
        """
        if body is self._judged:
            return body
        try:
            if isinstance(body, ConversationMessage):
                message = body if is_plain(body) else decode_message(encode_message(body))
            else:
                message = decode_message(body)
        except WireError as exc:
            failed = "unencodable" if isinstance(body, ConversationMessage) else "undecodable"
            self.note_mediation_violation(queue, f"{failed}: {exc}", body)
            return None
        self._judged = message
        return message

    def _on_out(self, node: _Node, queue: str, body: Body, headers: Headers) -> None:
        """Sender-side mediation: judge, check, stamp, and forward.

        A message is judged before the check, so one that cannot travel never
        advances the sender's FSM.
        """
        message = self.decode_or_note(queue, body)
        if message is None:
            return
        stamp = {X_MEDIATED_OUT: message.sender}
        if message.kind == INVITATION:
            target = message.extra(X_PRINCIPAL)
            if target is None:
                self.note_mediation_violation(queue, "invitation names no target", message)
                return
            if not self.broker.publish("invite", target, message, stamp):
                self.note_mediation_violation(queue, f"no mediator for {target}", message)
            return
        if node.monitor is not None:
            verdict = node.monitor.check(message, message.sender)
            if not verdict.ok and node.monitor.mode == ENFORCE:
                self.dropped.append(("send", verdict, message))
                return
        if message.cid not in node.joined and message.cid not in node.pending:
            self.note_mediation_violation(
                queue, f"unknown conversation {message.cid}", message
            )
            return
        key = f"{message.cid}.{message.sender}.{message.receiver}"
        if not self.broker.publish(f"s.{message.cid}", key, message, stamp):
            self.note_mediation_violation(queue, f"no queue bound for {key}", message)

    def _on_inv(self, node: _Node, queue: str, body: Body, headers: Headers) -> None:
        """Invitation arriving at its target principal's mediator."""
        message = self.decode_or_note(queue, body)
        if message is None:
            return
        # Only the inviting principal's mediator stamps an invitation, and
        # nothing is allocated for one it did not stamp.
        if headers.get(X_MEDIATED_OUT) != message.sender:
            self.note_mediation_violation(
                queue, "invitation without its sender's stamp", message
            )
            return
        if message.cid in node.joined or message.cid in node.pending:
            self.note_mediation_violation(
                queue, f"already in conversation {message.cid}", message
            )
            return
        extras = dict(message.extras)  # each field is read once, from here
        role = extras.get(X_ROLE)
        ref = extras.get(X_PROTOCOL_REF)
        monitor = node.monitor
        if monitor is not None:
            try:
                monitor.init_session(message.cid, role, ref)
            except MonitorError as exc:
                self.note_mediation_violation(queue, f"init_session failed: {exc}", message)
                return
        self.accept_invitation(node, message, role, ref, queue)

    def accept_invitation(
        self, node: _Node, invitation: ConversationMessage, role: str, ref: str, queue: str
    ) -> None:
        """Allocate the principal's share and queue the invitation for ``join``.

        ``role`` and ``ref`` are the invitation's role and local-protocol
        reference, read once by the caller. The share is the endpoint inbox
        and, when mediated, the mediator's session queue, bound under
        ``<cid>.<peer>.<role>`` for each peer role of the referenced local
        protocol; ``release`` frees it. An invitation whose reference the
        store does not resolve is recorded against ``queue`` and refused
        before anything is allocated. Every case accepts here: the mediator
        after its checks, ``create`` itself when unmediated.
        """
        try:
            roles = self.store.local(ref).roles
        except KeyError:
            self.note_mediation_violation(queue, f"unknown local protocol {ref}", invitation)
            return
        cid = invitation.cid
        principal = node.principal
        broker = self.broker
        exchange = f"s.{cid}"
        broker.declare_exchange(exchange)
        inbox = f"in.{principal}.{cid}"
        broker.declare_queue(inbox)
        if self.case == NONE:
            target = inbox
        else:
            target = f"mq.s.{principal}.{cid}"
            broker.declare_queue(target)
            broker.set_consumer(
                target, partial(self._on_session, node, target, cid, role, inbox)
            )
        for peer in roles:
            if peer != role:
                broker.bind(exchange, f"{cid}.{peer}.{role}", target)
        with node.lock:
            node.pending[cid] = (role, roles, inbox)
            if node.waiting:
                node.cond.notify_all()

    def release(self, node: _Node, cid: str, role: str) -> None:
        """Free the principal's share of conversation ``cid``, taken in ``role``.

        Deletes the inbox and the mediator's session queue with their bindings,
        ends the monitor session, deletes the session exchange once nothing is
        bound to it, and drops the endpoint that joined the share, if any.
        Releasing a share twice does nothing more.
        """
        broker = self.broker
        principal = node.principal
        broker.delete_queue(f"in.{principal}.{cid}")
        if self.case != NONE:
            broker.delete_queue(f"mq.s.{principal}.{cid}")
        broker.delete_exchange(f"s.{cid}")
        if node.monitor is not None:
            node.monitor.end_session(cid, role)
        node.joined.pop(cid, None)

    def _on_session(
        self,
        node: _Node,
        queue: str,
        cid: str,
        role: str,
        inbox: str,
        body: Body,
        headers: Headers,
    ) -> None:
        """Receiver-side mediation for one (principal, cid, role) binding,
        which hands what it passes to the principal's ``inbox``.

        The message judged here is the object handed to the inbox.
        """
        message = self.decode_or_note(queue, body)
        if message is None:
            return
        # Only keys ``<cid>.<peer>.<role>`` are bound here, so a body addressed
        # to another role or conversation came in under a routing key that
        # disagrees with it.
        if message.receiver != role or message.cid != cid:
            self.note_mediation_violation(
                queue,
                f"routing key is {cid}.<peer>.{role}, body's is "
                f"{message.cid}.{message.sender}.{message.receiver}",
                message,
            )
            return
        if node.monitor is not None:
            verdict = node.monitor.check(message, role)
            if not verdict.ok and node.monitor.mode == ENFORCE:
                self.dropped.append(("deliver", verdict, message))
                return
        self.broker.push(inbox, message, {**headers, X_MEDIATED_IN: role})

    # --- helpers ------------------------------------------------------------------

    def note_mediation_violation(self, queue: str, reason: str, message) -> None:
        self.mediation_violations.append((queue, reason, message))

    def close(self) -> None:
        """Release every session still open.

        Stops each endpoint still joined and releases each invitation never
        claimed. The principals' nodes stay, so the runtime can go on serving.
        """
        for node in list(self._nodes.values()):
            self.withdraw(node)

    def withdraw(self, node: _Node, cid: Optional[str] = None) -> None:
        """Release the principal's share of conversation ``cid``, or of every
        conversation when None: stop the endpoint joined to it, or release
        the share when no endpoint joined it."""
        for held in [*node.joined, *node.pending] if cid is None else (cid,):
            with node.lock:  # a pending share taken here is claimed by no join
                share = node.pending.pop(held, None)
            endpoint = node.joined.get(held)
            if share is not None:
                self.release(node, held, share[0])
            elif endpoint is not None:
                endpoint.stop()


def inbox_queue(principal: str, cid: str) -> str:
    """The name of a principal's inbox for conversation ``cid``; set-up and
    release write the same name inline."""
    return f"in.{principal}.{cid}"


def outbound_queue(principal: str) -> str:
    """The queue an endpoint pushes onto; its consumer is the mediator."""
    return f"mq.out.{principal}"


class Endpoint:
    """One principal's handle on one conversation.

    Created unjoined; ``create`` or ``join`` binds it to a conversation id
    and role. ``recv``/``recv_async`` are aliases for ``receive`` and
    ``receive_async``.
    """

    def __init__(self, runtime: ConversationRuntime, node: _Node):
        self.runtime = runtime
        self.node = node
        self.principal = node.principal
        self.cid: Optional[str] = None
        self.role: Optional[str] = None
        self.roles: tuple = ()
        # The roles this endpoint may address: its conversation's roles but
        # its own, from ``_bind`` until ``stop``. Messaging tests this set
        # alone and asks ``_refuse_peer`` for the error only on a miss.
        self._peers: frozenset = frozenset()
        self.callback_errors: List[BaseException] = []
        self._outbound = outbound_queue(self.principal)
        # Delivery and ``receive`` take the plain lock. The condition on it
        # is built only when a receive first has to wait, since building one
        # on a plain lock costs more than the rest of this constructor; it
        # is notified only while ``_waiting`` says a receiver waits.
        self._lock = threading.Lock()
        self._cond: Optional[threading.Condition] = None
        self._waiting = 0
        self._buckets: Dict[str, deque] = {}
        self._callbacks: Dict[str, object] = {}
        self._ended: Optional[str] = None  # set by stop: the status when it stopped
        self._tasks: Optional[queuemod.Queue] = None
        self._dispatcher: Optional[threading.Thread] = None

    # --- session setup ------------------------------------------------------

    def create(self, protocol_name: str, config) -> str:
        """Start a conversation, inviting every configured principal.

        Returns the conversation id; this endpoint ends up joined in the
        creator's configured role.
        """
        if self._ended is not None:
            raise NotJoined("endpoint was stopped")
        if self.cid is not None:
            raise TransportError("endpoint already joined to a conversation")
        if isinstance(config, str):
            config = load_invitation_config(config)
        protocol = self.runtime.store.global_protocol(protocol_name)
        declared = set(protocol.roles)
        configured = config.roles()
        if declared - configured:
            raise IncompleteConfig(
                f"missing roles: {', '.join(sorted(declared - configured))}"
            )
        if configured - declared:
            raise IncompleteConfig(
                f"unknown roles: {', '.join(sorted(configured - declared))}"
            )
        if len(configured) < len(config.entries):  # two principals for one role
            roles = [entry.role for entry in config.entries]
            twice = next(role for i, role in enumerate(roles) if role in roles[:i])
            raise IncompleteConfig(f"role {twice} is invited twice")
        # A principal's share of a session is released per (principal, cid),
        # so it may take only one role.
        roles_of: Dict[str, str] = {}
        for entry in config.entries:
            other = roles_of.setdefault(entry.principal, entry.role)
            if other != entry.role:
                raise RoleMismatch(
                    f"{entry.principal} is invited as both {other} and {entry.role}"
                )
        creator_role = roles_of.get(self.principal)
        if creator_role is None:
            raise IncompleteConfig(f"creator {self.principal} has no invitation entry")
        cid = os.urandom(16).hex()  # 32 lowercase hex digits, as uuid4().hex
        runtime = self.runtime
        unmediated = runtime.case == NONE
        push = runtime.broker.push
        for entry in config.entries:
            principal, role, ref = entry.principal, entry.role, entry.capability
            node = runtime.node(principal)  # mediation must exist before routing
            invitation = ConversationMessage(
                INVITATION,
                cid,
                creator_role,
                role,
                "",
                (),
                ((X_PRINCIPAL, principal), (X_PROTOCOL_REF, ref), (X_ROLE, role)),
            )
            exact = (
                type(creator_role) is str
                and type(role) is str
                and type(principal) is str
                and type(ref) is str
            )
            if not unmediated:
                if exact:
                    runtime._judged = invitation  # plain: its cid is hex digits
                push(self._outbound, invitation)
                continue
            # Judged as the mediator would judge it, so a share's role is
            # always exact str.
            inbox = inbox_queue(principal, cid)
            if not exact:
                invitation = runtime.decode_or_note(inbox, invitation)
                if invitation is None:
                    continue
                role, ref = invitation.extra(X_ROLE), invitation.extra(X_PROTOCOL_REF)
            runtime.accept_invitation(node, invitation, role, ref, inbox)
        # Delivery is synchronous, so the creator's own invitation has been
        # accepted or refused by now. It takes that share, not an older one to
        # the same role from another session, which stays pending for ``join``.
        node = self.node
        with node.lock:
            share = node.pending.pop(cid, None)
            if share is not None:
                node.joined[cid] = self
        if share is None:
            # The session cannot start: release what the others accepted.
            for entry in config.entries:
                runtime.withdraw(runtime.node(entry.principal), cid)
            refuser = "runtime" if unmediated else "mediator"
            raise TransportError(
                f"the {refuser} of {self.principal} refused its invitation to {cid}"
            )
        self._bind(cid, share)
        return cid

    def join(self, role: str, principal: Optional[str] = None, timeout: Optional[float] = None) -> "Endpoint":
        """Claim this principal's oldest invitation to ``role``; blocks until one arrives."""
        if principal is not None and principal != self.principal:
            raise RoleMismatch(
                f"endpoint belongs to {self.principal}, cannot join as {principal}"
            )
        if self._ended is not None:
            raise NotJoined("endpoint was stopped")
        if self.cid is not None:
            raise TransportError("endpoint already joined to a conversation")
        node = self.node
        with node.lock:
            claimed = self._claim(role)
            if claimed is None:
                deadline = time.monotonic() + (
                    timeout if timeout is not None else _DEFAULT_TIMEOUT
                )
                if node.cond is None:
                    node.cond = threading.Condition(node.lock)
                while claimed is None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        raise Timeout(f"no invitation for {self.principal}")
                    node.waiting += 1
                    try:
                        node.cond.wait(remaining)
                    finally:
                        node.waiting -= 1
                    claimed = self._claim(role)
        return self._bind(*claimed)

    def _bind(self, cid: str, share: tuple) -> "Endpoint":
        """Join conversation ``cid`` through the share this endpoint claimed."""
        self.cid = cid
        self.role, self.roles, inbox = share
        self._peers = frozenset(self.roles) - {self.role}
        self.runtime.broker.set_consumer(inbox, partial(self._deliver, inbox))
        return self

    def _claim(self, role: str) -> Optional[tuple]:
        """Move the oldest pending share that offers ``role`` to this
        endpoint: returns (cid, share).

        Returns None when no share is pending, and raises RoleMismatch,
        leaving them pending, when the pending ones offer only other roles.
        Called with the node's lock held.
        """
        node = self.node
        pending = node.pending
        for cid, share in pending.items():
            if share[0] == role:
                del pending[cid]
                node.joined[cid] = self
                return cid, share
        if pending:
            offered = next(iter(pending.values()))[0]
            raise RoleMismatch(f"invitation offers role {offered}, not {role}")
        return None

    # --- messaging -----------------------------------------------------------

    def send(self, to_role: str, label: str, payload: Optional[Dict[str, object]] = None) -> None:
        if to_role not in self._peers:
            self._refuse_peer(to_role)
        # The message is plain, as ``is_plain`` would find, exactly when its
        # label, peer and payload are: its cid and role came from an
        # invitation known or judged plain, so they are exact str.
        plain = type(label) is str and type(to_role) is str
        if payload:
            payload = payload_from_dict(payload)
            plain = plain and plain_payload(payload)
        else:
            payload = ()
        message = ConversationMessage(IN_SESSION, self.cid, self.role, to_role, label, payload)
        runtime = self.runtime
        if plain:
            runtime._judged = message
        if runtime.case == NONE:
            key = f"{self.cid}.{self.role}.{to_role}"
            runtime.broker.publish(f"s.{self.cid}", key, message)
        else:
            runtime.broker.push(self._outbound, message)

    def receive(self, from_role: str, timeout: Optional[float] = None):
        """Next message from ``from_role`` as (label, payload dict); blocks."""
        if from_role not in self._peers:
            self._refuse_peer(from_role)
        deadline = None
        with self._lock:
            while True:
                bucket = self._buckets.get(from_role)
                if bucket:
                    message = bucket.popleft()
                    return message.label, message.payload_dict()
                if self._ended is not None:
                    raise SessionEnded(f"conversation {self.cid} was stopped")
                if self.status() == COMPLETED:
                    raise SessionEnded(f"conversation {self.cid} has completed")
                if deadline is None:
                    deadline = time.monotonic() + (
                        timeout if timeout is not None else _DEFAULT_TIMEOUT
                    )
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise Timeout(f"nothing from {from_role}")
                if self._cond is None:
                    self._cond = threading.Condition(self._lock)
                self._waiting += 1
                try:
                    self._cond.wait(remaining)
                finally:
                    self._waiting -= 1

    def receive_async(self, from_role: str, callback) -> None:
        """Register a one-shot callback for the next message from ``from_role``."""
        if from_role not in self._peers:
            self._refuse_peer(from_role)
        with self._lock:
            if from_role in self._callbacks:
                raise DuplicateRegistration(f"a callback already waits on {from_role}")
            bucket = self._buckets.get(from_role)
            if bucket:
                message = bucket.popleft()
                self._dispatch(callback, message)
                return
            self._callbacks[from_role] = callback

    recv = receive
    recv_async = receive_async

    def stop(self) -> None:
        """Leave the conversation and release this principal's share of it;
        idempotent. Pending receives unblock, ``status`` goes on reporting
        the status the session had when it stopped, and ``create`` and
        ``join`` raise NotJoined."""
        monitor = self.node.monitor
        key = (self.cid, self.role)
        ended = UNKNOWN if monitor is None else monitor.session_status(key)
        with self._lock:
            if self._ended is not None:
                return
            self._peers = frozenset()
            self._ended = ended
            self._callbacks.clear()
            self._buckets.clear()
            if self._waiting:
                self._cond.notify_all()
        if self.cid is not None:
            self.runtime.release(self.node, self.cid, self.role)
        if self._tasks is not None:
            self._tasks.put(None)
            # A callback may stop its own endpoint; the dispatcher then ends
            # when that callback returns.
            if threading.current_thread() is not self._dispatcher:
                self._dispatcher.join(timeout=2)

    def status(self) -> str:
        """This endpoint's monitor session status (unknown when unmediated);
        after ``stop``, the status the session had when it stopped."""
        if self._ended is not None:
            return self._ended
        monitor = self.node.monitor
        if monitor is None or self.cid is None:
            return UNKNOWN
        return monitor.session_status((self.cid, self.role))

    # --- delivery ----------------------------------------------------------------

    def _deliver(self, queue: str, body: Body, headers: Headers) -> None:
        message = self.runtime.decode_or_note(queue, body)
        if message is None:
            return
        if self.runtime.case != NONE:
            ok = (
                headers.get(X_MEDIATED_OUT) == message.sender
                and headers.get(X_MEDIATED_IN) == message.receiver
            )
            if not ok:
                self.runtime.note_mediation_violation(
                    queue, "missing or forged mediation tags", message
                )
                return
        with self._lock:
            if self._ended is not None:
                return
            callback = self._callbacks.pop(message.sender, None)
            if callback is not None:
                self._dispatch(callback, message)
                return
            bucket = self._buckets.get(message.sender)
            if bucket is None:
                self._buckets[message.sender] = bucket = deque()
            bucket.append(message)
            if self._waiting:
                self._cond.notify_all()

    def _dispatch(self, callback, message: ConversationMessage) -> None:
        if self._tasks is None:
            self._tasks = queuemod.Queue()
            self._dispatcher = threading.Thread(
                target=self._run_callbacks, name=f"callbacks-{self.principal}", daemon=True
            )
            self._dispatcher.start()
        self._tasks.put((callback, message.label, message.payload_dict()))

    def _run_callbacks(self) -> None:
        while True:
            task = self._tasks.get()
            if task is None:
                return
            callback, label, payload = task
            try:
                callback(label, payload)
            except BaseException as exc:  # callbacks must not kill delivery
                self.callback_errors.append(exc)

    # --- checks ---------------------------------------------------------------------

    def _refuse_peer(self, role: str) -> None:
        """Raise the error for a role outside the peer set."""
        if self._ended is not None:
            raise NotJoined("endpoint was stopped")
        if self.cid is None:
            raise NotJoined("endpoint has not joined a conversation")
        if role == self.role:
            raise UnknownPeerRole(f"{role} is this endpoint's own role")
        raise UnknownPeerRole(f"{role} is not a role of this conversation")
