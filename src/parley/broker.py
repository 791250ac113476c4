"""In-process message broker with direct exchanges and named queues.

Publishing routes an opaque body, with an optional map of headers beside it
as in AMQP, through an exchange to every queue bound under exactly its
routing key, in binding order. A key is bound literally: a binding key with
a ``*`` or ``#`` segment is an error, so a key written for a wildcard fails
when it is bound instead of matching less. Each exchange is a map from
routing key to the queues bound under it, so a publish is one lookup and a
key that nothing is bound under is never stored.
The broker never looks inside a body: the conversation runtime sends a
plain message as the object itself and any other message as its encoded
bytes, and both travel alike. Delivery is synchronous: a queue with a
consumer drains in the publisher's thread, calling ``consumer(body,
headers)`` per item, so a chain of consumer republishes runs to completion
before publish() returns. Queues without a consumer buffer (body, headers)
pairs until one is attached. A push onto a queue that has a consumer and no
backlog hands the item to the consumer directly, without queueing it; that
is the order a drain would give, since a push made while a consumer runs
is itself delivered before that consumer returns. A push behind a backlog
joins its end. A consumer that raises loses its own item, and the exception
reaches the pusher; items behind it stay queued.

Deleting a queue drops its items and its own bindings, which each queue
indexes, so the cost does not grow with the number of exchanges; a key left
with no queue goes too. An exchange lives until ``delete_exchange`` is
called on it with nothing bound.

Headers are shared by every queue a publish reaches and must be treated as
read-only; a consumer that forwards with more headers builds a new map.
"""

from __future__ import annotations

import threading
from collections import deque
from types import MappingProxyType
from typing import Callable, Dict, List, Mapping, Optional

Headers = Mapping[str, str]
Consumer = Callable[[object, Headers], None]

NO_HEADERS: Headers = MappingProxyType({})


class BrokerError(Exception):
    pass


class _Queue:
    __slots__ = ("items", "consumer", "bindings")

    def __init__(self):
        self.items: deque = deque()  # (body, headers)
        self.consumer: Optional[Consumer] = None
        # (exchange name, routing key) for each binding of this queue
        self.bindings: List[tuple] = []


class Broker:
    def __init__(self):
        self._lock = threading.RLock()
        # exchange name -> {routing key: names of the queues bound under it}
        self._exchanges: Dict[str, Dict[str, tuple]] = {}
        self._queues: Dict[str, _Queue] = {}

    # --- topology ---------------------------------------------------------

    def declare_exchange(self, name: str) -> None:
        with self._lock:
            self._exchanges.setdefault(name, {})

    def declare_queue(self, name: str) -> None:
        with self._lock:
            self._queues.setdefault(name, _Queue())

    def delete_queue(self, name: str) -> None:
        """Delete a queue, its buffered items and its own bindings; a no-op
        for an unknown name."""
        with self._lock:
            q = self._queues.pop(name, None)
            if q is None:
                return
            exchanges = self._exchanges
            for exchange, key in q.bindings:
                keys = exchanges[exchange]
                bound = keys[key]
                if len(bound) == 1:  # this queue alone, as bind keeps names distinct
                    del keys[key]
                else:
                    keys[key] = tuple(other for other in bound if other != name)
            q.consumer = None  # ends a drain of this queue in progress

    def delete_exchange(self, name: str) -> None:
        """Delete an exchange that nothing is bound to; a no-op otherwise.

        An exchange is not deleted for losing its last binding: its owner says
        when it goes.
        """
        with self._lock:
            if self._exchanges.get(name) == {}:
                del self._exchanges[name]

    def bind(self, exchange: str, pattern: str, queue: str) -> None:
        """Bind ``queue`` under the literal routing key ``pattern``.

        Raises BrokerError for a key with a ``*`` or ``#`` segment.
        """
        with self._lock:
            try:
                keys = self._exchanges[exchange]
            except KeyError:
                raise BrokerError(f"unknown exchange {exchange!r}") from None
            try:
                q = self._queues[queue]
            except KeyError:
                raise BrokerError(f"unknown queue {queue!r}") from None
            if "*" in pattern or "#" in pattern:
                segments = pattern.split(".")
                if "*" in segments or "#" in segments:
                    raise BrokerError(f"key {pattern!r}: exchanges are direct, no wildcards")
            bound = keys.get(pattern, ())
            if queue not in bound:
                keys[pattern] = bound + (queue,)
                q.bindings.append((exchange, pattern))

    def set_consumer(self, queue: str, consumer: Optional[Consumer]) -> None:
        """Attach or detach a consumer; attaching drains buffered items."""
        with self._lock:
            try:
                q = self._queues[queue]
            except KeyError:
                raise BrokerError(f"unknown queue {queue!r}") from None
            q.consumer = consumer
            if consumer is not None and q.items:
                self._drain(q)

    # --- traffic ------------------------------------------------------------

    def publish(
        self, exchange: str, routing_key: str, body: object, headers: Optional[Headers] = None
    ) -> int:
        """Route a body and its headers to every queue bound under ``routing_key``.

        Returns the number of queues that received it.
        """
        with self._lock:
            try:
                keys = self._exchanges[exchange]
            except KeyError:
                raise BrokerError(f"unknown exchange {exchange!r}") from None
            hits = keys.get(routing_key, ())
            for name in hits:
                self.push(name, body, headers)
            return len(hits)

    def push(self, queue: str, body: object, headers: Optional[Headers] = None) -> None:
        """Deliver a body and its headers straight to a queue, bypassing any exchange."""
        with self._lock:
            try:
                q = self._queues[queue]
            except KeyError:
                raise BrokerError(f"unknown queue {queue!r}") from None
            if headers is None:
                headers = NO_HEADERS
            consumer = q.consumer
            if consumer is None:
                q.items.append((body, headers))
            elif q.items:
                q.items.append((body, headers))
                self._drain(q)
            else:
                consumer(body, headers)

    def pending(self, queue: str) -> int:
        with self._lock:
            q = self._queues.get(queue)
            return len(q.items) if q else 0

    def _drain(self, q: _Queue) -> None:
        while q.items and q.consumer is not None:
            body, headers = q.items.popleft()
            q.consumer(body, headers)
