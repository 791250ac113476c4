"""Conversation endpoints over a mediated broker.

Topology per conversation (monitored cases): an application endpoint never
talks to its peers directly. Its sends are pushed straight onto its
principal's outbound queue ``mq.out.<principal>``, whose consumer is the
principal's mediator; the mediator checks the message against the
sender-side session FSM and publishes it onto the conversation's exchange
with routing key ``<cid>.<from>.<to>``, stamping its audit tag as a broker
header. Only ``<cid>.*.<role>`` is bound to each participant's mediator
queue, so the receiver's mediator, and no other, picks the message up next,
checks it against the receiver-side FSM, adds the second audit tag to the
headers, and only then pushes the message onto the endpoint's inbox queue. Inbox delivery asserts both header tags against the
message's sender and receiver, and ignores any tags a body carries in its
extras, so anything injected around the mediators is detected and dropped
there.

Bytes travel only where a message crosses between principals: on the
conversation exchange and on ``invite``. A principal's own hops, from its
endpoint to its mediator and from its mediator to its inbox, hand over the
``ConversationMessage`` itself. So the sender's mediator encodes a message
once; in the unmediated case the sender does. The receiver does not parse
those bytes again. While the runtime publishes bytes it has just encoded, it
keeps the message beside them, and the receiver's mediator (unmediated, the
inbox) takes that message when it is handed that very bytes object; why this
is exact is set out in ``wire``. The record lives only for that publish, and
holds one message. Any other body published or pushed from anywhere else may
be bytes, which are decoded as on the wire; so is a copy of the runtime's
own bytes, or bytes buffered until an endpoint joins. Bytes that
do not decode, objects that do not encode, messages for a conversation the
principal is not in, and messages whose routing key disagrees with their body
are recorded in ``mediation_violations`` and dropped; nothing raises back
into the publisher. So is a message that no queue receives, which the
sender's mediator learns from the count ``publish`` returns: its receiver has
stopped, or the receiver's mediator refused the invitation.

Invitations follow the same shape: ``create`` pushes one invitation per
configured role onto the creator's outbound queue, and its mediator stamps it
and publishes it onto the shared ``invite`` exchange keyed by principal name.
Each invitee's mediator initializes the monitor session from the carried
local-protocol reference and accepts the invitation: it allocates the
principal's share and queues the invitation, where ``join`` claims it.
Nothing is sent back. An invitation without its sender's stamp, or with a
reference the monitor cannot initialize, is recorded in
``mediation_violations`` before anything is allocated for it, so a pending
invitation is always an accepted one. In the unmediated case ``create``
accepts each invitation itself, on the same path. The creator invites itself
the same way; delivery is synchronous, so ``create`` claims its own
invitation at once. If its mediator refused it, ``create`` releases the
shares the other invitees accepted and raises. A principal takes
at most one role in a conversation: ``create`` refuses a config that gives it
two, and its mediator refuses a second invitation to a conversation it is
already in.

Session lifecycle. Accepting an invitation allocates the principal's share of
the conversation: the inbox ``in.<principal>.<cid>``, in the mediated cases
the mediator queue ``mq.s.<principal>.<cid>`` bound to ``s.<cid>`` (in the
unmediated case the inbox is bound there instead), the monitor session for
``(cid, role)`` and the cid in the node's ``cids``. The share is released
when the endpoint that joined it stops: both queues and their bindings are
deleted, the monitor session and the cid are dropped, and ``s.<cid>`` is
deleted once nothing is bound to it. ``ConversationRuntime.withdraw`` stops
the endpoint joined to a conversation and releases the invitation to it never
claimed; ``close()`` does so for every conversation.
Completion alone releases nothing, since ``receive`` and ``status`` still
read the completed session until the endpoint stops.

Three mediation cases exist: ``monitor`` (full FSM checking), ``forwarder``
(mediation and tagging without any checking; the benchmark baseline), and
``none`` (endpoints bind straight to the conversation exchange).
"""

from __future__ import annotations

import queue as queuemod
import threading
import time
import uuid
from collections import deque
from functools import partial
from typing import Dict, List, Optional, Set, Union

from .broker import Broker, Headers
from .monitor import COMPLETED, ENFORCE, Monitor, MonitorError
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
)

MONITOR = "monitor"
FORWARDER = "forwarder"
NONE = "none"

_DEFAULT_TIMEOUT = 10.0

# What a queue carries: bytes between principals, the message itself on a
# principal's own hops.
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
        self.invitations: deque = deque()
        self.cond = threading.Condition()
        self.cids: Set[str] = set()  # conversations this principal holds a share of
        self.joined: Dict[str, "Endpoint"] = {}  # cid -> the endpoint that joined it


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
        # (bytes, the message they were just encoded from) while publishing them
        self._in_flight: Optional[tuple] = None
        self.broker.declare_exchange("invite")

    # --- nodes --------------------------------------------------------------

    def node(self, principal: str) -> _Node:
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
            self._nodes[principal] = node
            if self.case in (MONITOR, FORWARDER):
                out_q = outbound_queue(principal)
                inv_q = f"mq.inv.{principal}"
                self.broker.declare_queue(out_q)
                self.broker.set_consumer(out_q, partial(self._on_out, node, out_q))
                self.broker.declare_queue(inv_q)
                self.broker.bind("invite", principal, inv_q)
                self.broker.set_consumer(inv_q, partial(self._on_inv, node, inv_q))
            return node

    def endpoint(self, principal: str) -> "Endpoint":
        return Endpoint(self, self.node(principal))

    def monitor_for(self, principal: str) -> Optional[Monitor]:
        return self.node(principal).monitor

    # --- mediation handlers ---------------------------------------------------

    def decode_or_note(self, queue: str, body: Body) -> Optional[ConversationMessage]:
        """The message in ``body``, or None after recording why it is not one.

        A message object, as a principal's own hops carry, is returned as is,
        and so is the message the runtime is publishing ``body`` for, when
        ``body`` is the very bytes object it encoded that message to.
        """
        if isinstance(body, ConversationMessage):
            return body
        in_flight = self._in_flight
        if in_flight is not None and in_flight[0] is body:
            return in_flight[1]
        try:
            return decode_message(body)
        except WireError as exc:
            self.note_mediation_violation(queue, f"undecodable: {exc}", body)
            return None

    def publish(
        self,
        exchange: str,
        key: str,
        data: Body,
        headers: Optional[Headers] = None,
        source: Optional[ConversationMessage] = None,
    ) -> int:
        """``Broker.publish``, handing receivers ``source`` for ``data``.

        ``source`` is the message the runtime has just encoded ``data`` from,
        if it did. A plain one is recorded for as long as the publish is
        delivered, so ``decode_or_note`` skips parsing ``data``. Another
        thread publishing meanwhile replaces or clears the record, which only
        makes a receiver decode.
        """
        if source is None or not is_plain(source):
            return self.broker.publish(exchange, key, data, headers)
        self._in_flight = (data, source)
        try:
            return self.broker.publish(exchange, key, data, headers)
        finally:
            self._in_flight = None

    def _on_out(self, node: _Node, queue: str, body: Body, headers: Headers) -> None:
        """Sender-side mediation: check, stamp, and forward as bytes.

        A message object is encoded here, the one encode on its path; bytes
        pushed onto the queue are forwarded unchanged.
        """
        message = self.decode_or_note(queue, body)
        if message is None:
            return
        data, source = body, None
        if isinstance(body, ConversationMessage):
            # Encoded before the check, so a message that cannot travel
            # never advances the sender's FSM.
            try:
                data = encode_message(message)
            except WireError as exc:
                self.note_mediation_violation(queue, f"unencodable: {exc}", message)
                return
            source = message
        stamp = {X_MEDIATED_OUT: message.sender}
        if message.kind == INVITATION:
            target = message.extra(X_PRINCIPAL)
            if target is None:
                self.note_mediation_violation(queue, "invitation names no target", message)
                return
            if not self.publish("invite", target, data, stamp, source):
                self.note_mediation_violation(queue, f"no mediator for {target}", message)
            return
        if node.monitor is not None:
            verdict = node.monitor.check(message, message.sender)
            if not verdict.ok and node.monitor.mode == ENFORCE:
                self.dropped.append(("send", verdict, message))
                return
        if message.cid not in node.cids:
            self.note_mediation_violation(
                queue, f"unknown conversation {message.cid}", message
            )
            return
        key = f"{message.cid}.{message.sender}.{message.receiver}"
        if not self.publish(f"s.{message.cid}", key, data, stamp, source):
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
        if message.cid in node.cids:
            self.note_mediation_violation(
                queue, f"already in conversation {message.cid}", message
            )
            return
        role = message.extra(X_ROLE)
        capability = message.extra(X_PROTOCOL_REF)
        if node.monitor is not None:
            try:
                node.monitor.init_session(message.cid, role, capability)
            except MonitorError as exc:
                self.note_mediation_violation(queue, f"init_session failed: {exc}", message)
                return
        self.accept_invitation(node, message)

    def accept_invitation(self, node: _Node, invitation: ConversationMessage) -> None:
        """Allocate the principal's share and queue the invitation for ``join``.

        The share is the endpoint inbox and, when mediated, the mediator's
        session queue, which ``release`` frees. Every case accepts here: the
        mediator after its checks, ``create`` itself when unmediated.
        """
        cid, role = invitation.cid, invitation.extra(X_ROLE)
        exchange = f"s.{cid}"
        self.broker.declare_exchange(exchange)
        inbox = inbox_queue(node.principal, cid)
        self.broker.declare_queue(inbox)
        node.cids.add(cid)
        if self.case == NONE:
            self.broker.bind(exchange, f"{cid}.*.{role}", inbox)
        else:
            mq = f"mq.s.{node.principal}.{cid}"
            self.broker.declare_queue(mq)
            self.broker.bind(exchange, f"{cid}.*.{role}", mq)
            self.broker.set_consumer(mq, partial(self._on_session, node, mq, cid, role))
        with node.cond:
            node.invitations.append(invitation)
            node.cond.notify_all()

    def release(self, node: _Node, cid: str, role: str) -> None:
        """Free the principal's share of conversation ``cid``, taken in ``role``.

        Deletes the inbox and the mediator's session queue with its binding,
        ends the monitor session, drops the cid, and deletes the session
        exchange once nothing is bound to it. Releasing a share twice does
        nothing more.
        """
        broker = self.broker
        broker.delete_queue(inbox_queue(node.principal, cid))
        if self.case != NONE:
            broker.delete_queue(f"mq.s.{node.principal}.{cid}")
        broker.delete_exchange(f"s.{cid}")
        if node.monitor is not None:
            node.monitor.end_session(cid, role)
        node.cids.discard(cid)

    def _on_session(
        self, node: _Node, queue: str, cid: str, role: str, body: Body, headers: Headers
    ) -> None:
        """Receiver-side mediation for one (principal, cid, role) binding.

        The message is decoded once, here, and handed to the inbox as is.
        """
        message = self.decode_or_note(queue, body)
        if message is None:
            return
        # Only the ``<cid>.*.<role>`` binding routes here, so a body addressed
        # to another role or conversation came in under a routing key that
        # disagrees with it.
        if message.receiver != role or message.cid != cid:
            self.note_mediation_violation(
                queue,
                f"routing key names {cid}.*.{role}, body is "
                f"{message.cid}: {message.sender} to {message.receiver}",
                message,
            )
            return
        if node.monitor is not None:
            verdict = node.monitor.check(message, role)
            if not verdict.ok and node.monitor.mode == ENFORCE:
                self.dropped.append(("deliver", verdict, message))
                return
        self.broker.push(
            inbox_queue(node.principal, cid), message, {**headers, X_MEDIATED_IN: role}
        )

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
        conversation when None: stop the endpoint joined to it and release
        the invitation to it never claimed."""
        for joined_cid, endpoint in list(node.joined.items()):
            if cid in (None, joined_cid):
                endpoint.stop()
        with node.cond:
            if cid is None:
                pending = list(node.invitations)
                node.invitations.clear()
            else:
                pending = [i for i in node.invitations if i.cid == cid]
                for invitation in pending:
                    node.invitations.remove(invitation)
        for invitation in pending:
            self.release(node, invitation.cid, invitation.extra(X_ROLE))


def inbox_queue(principal: str, cid: str) -> str:
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
        self.callback_errors: List[BaseException] = []
        self._cond = threading.Condition()
        self._buckets: Dict[str, deque] = {}
        self._callbacks: Dict[str, object] = {}
        self._stopped = False
        self._ended: Optional[str] = None  # the status when it stopped
        self._tasks: Optional[queuemod.Queue] = None
        self._dispatcher: Optional[threading.Thread] = None

    # --- session setup ------------------------------------------------------

    def create(self, protocol_name: str, config) -> str:
        """Start a conversation, inviting every configured principal.

        Returns the conversation id; this endpoint ends up joined in the
        creator's configured role.
        """
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
        cid = uuid.uuid4().hex
        runtime = self.runtime
        for entry in config.entries:
            node = runtime.node(entry.principal)  # mediation must exist before routing
            invitation = ConversationMessage(
                kind=INVITATION,
                cid=cid,
                sender=creator_role,
                receiver=entry.role,
                extras=(
                    (X_ROLE, entry.role),
                    (X_PRINCIPAL, entry.principal),
                    (X_PROTOCOL_REF, entry.capability),
                ),
            )
            if runtime.case == NONE:
                runtime.accept_invitation(node, invitation)
            else:
                runtime.broker.push(outbound_queue(self.principal), invitation)
        # Delivery is synchronous, so the creator's own invitation has been
        # accepted or refused by now. It takes that one, not an older one to
        # the same role from another session, which stays queued for ``join``.
        with self.node.cond:
            invitation = self._claim(creator_role, cid)
        if invitation is None:
            # The session cannot start: release what the others accepted.
            for entry in config.entries:
                runtime.withdraw(runtime.node(entry.principal), cid)
            raise TransportError(
                f"the mediator of {self.principal} refused its invitation to {cid}"
            )
        self._bind(invitation)
        return cid

    def join(self, role: str, principal: Optional[str] = None, timeout: Optional[float] = None) -> "Endpoint":
        """Claim this principal's oldest invitation to ``role``; blocks until one arrives."""
        if principal is not None and principal != self.principal:
            raise RoleMismatch(
                f"endpoint belongs to {self.principal}, cannot join as {principal}"
            )
        if self.cid is not None:
            raise TransportError("endpoint already joined to a conversation")
        deadline = time.monotonic() + (timeout if timeout is not None else _DEFAULT_TIMEOUT)
        node = self.node
        with node.cond:
            while True:
                invitation = self._claim(role, None)
                if invitation is not None:
                    break
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise Timeout(f"no invitation for {self.principal}")
                node.cond.wait(remaining)
        return self._bind(invitation)

    def _bind(self, invitation: ConversationMessage) -> "Endpoint":
        """Join the conversation of a claimed invitation."""
        self.cid = invitation.cid
        self.role = invitation.extra(X_ROLE)
        capability = invitation.extra(X_PROTOCOL_REF)
        try:
            self.roles = self.runtime.store.local(capability).roles
        except KeyError:
            self.roles = ()
        self.node.joined[self.cid] = self
        inbox = inbox_queue(self.principal, self.cid)
        self.runtime.broker.set_consumer(inbox, partial(self._deliver, inbox))
        return self

    def _claim(self, role: str, cid: Optional[str]) -> Optional[ConversationMessage]:
        """Take the oldest pending invitation that offers ``role``.

        With ``cid`` given, only an invitation to that conversation is taken,
        and None is returned while there is none. Otherwise returns None
        when no invitation is pending, and raises RoleMismatch, leaving them
        queued, when the pending ones offer only other roles. Called with the
        node's condition held.
        """
        pending = self.node.invitations
        for invitation in pending:
            if invitation.extra(X_ROLE) == role and cid in (None, invitation.cid):
                pending.remove(invitation)
                return invitation
        if pending and cid is None:
            raise RoleMismatch(f"invitation offers role {pending[0].extra(X_ROLE)}, not {role}")
        return None

    # --- messaging -----------------------------------------------------------

    def send(self, to_role: str, label: str, payload: Optional[Dict[str, object]] = None) -> None:
        self._require_joined()
        self._check_peer(to_role)
        message = ConversationMessage(
            IN_SESSION, self.cid, self.role, to_role, label, payload_from_dict(payload)
        )
        runtime = self.runtime
        if runtime.case == NONE:
            key = f"{self.cid}.{self.role}.{to_role}"
            runtime.publish(f"s.{self.cid}", key, encode_message(message), source=message)
        else:
            # A hop within the principal: its mediator does the one encode.
            runtime.broker.push(outbound_queue(self.principal), message)

    def receive(self, from_role: str, timeout: Optional[float] = None):
        """Next message from ``from_role`` as (label, payload dict); blocks."""
        self._require_joined()
        self._check_peer(from_role)
        deadline = time.monotonic() + (timeout if timeout is not None else _DEFAULT_TIMEOUT)
        with self._cond:
            while True:
                bucket = self._buckets.get(from_role)
                if bucket:
                    message = bucket.popleft()
                    return message.label, message.payload_dict()
                if self._stopped:
                    raise SessionEnded(f"conversation {self.cid} was stopped")
                if self.status() == COMPLETED:
                    raise SessionEnded(f"conversation {self.cid} has completed")
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise Timeout(f"nothing from {from_role}")
                self._cond.wait(remaining)

    def receive_async(self, from_role: str, callback) -> None:
        """Register a one-shot callback for the next message from ``from_role``."""
        self._require_joined()
        self._check_peer(from_role)
        with self._cond:
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
        idempotent. Pending receives unblock, and ``status`` goes on reporting
        the status the session had when it stopped."""
        ended = self.status()
        with self._cond:
            if self._stopped:
                return
            self._stopped = True
            self._ended = ended
            self._callbacks.clear()
            self._buckets.clear()
            self._cond.notify_all()
        if self.cid is not None:
            self.node.joined.pop(self.cid, None)
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
            return "unknown"
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
        with self._cond:
            if self._stopped:
                return
            callback = self._callbacks.pop(message.sender, None)
            if callback is not None:
                self._dispatch(callback, message)
                return
            self._buckets.setdefault(message.sender, deque()).append(message)
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

    def _require_joined(self) -> None:
        if self._stopped:
            raise NotJoined("endpoint was stopped")
        if self.cid is None:
            raise NotJoined("endpoint has not joined a conversation")

    def _check_peer(self, role: str) -> None:
        if role == self.role:
            raise UnknownPeerRole(f"{role} is this endpoint's own role")
        if self.roles and role not in self.roles:
            raise UnknownPeerRole(f"{role} is not a role of this conversation")
