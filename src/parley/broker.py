"""In-process message broker with topic exchanges and named queues.

Publishing routes an opaque body, with an optional map of headers beside it
as in AMQP, through an exchange's bindings to every queue whose pattern
matches the routing key (dot-separated segments; ``*`` matches any one
segment, any other segment only itself). Patterns are compiled once, when
they are bound. There is no ``#`` wildcard: binding one is an error.
The broker never looks inside a body: the conversation runtime sends a
plain message as the object itself and any other message as its encoded
bytes, and both travel alike. Delivery is synchronous: a queue with a
consumer drains in the publisher's thread, calling ``consumer(body,
headers)`` per item, so a chain of consumer republishes runs to completion
before publish() returns. Queues without a consumer buffer (body, headers)
pairs until one is attached.

Each exchange keeps a route table: the queues a routing key reached, in
binding order, filled from the matcher scan on the key's first publish, so
later publishes of that key run no matcher. A key that reaches no queue is
not cached. The table is emptied whenever the exchange's bindings change (a
bind, the deletion of a queue bound to it) and goes with the exchange. It is
also emptied when it holds ``ROUTE_CAP`` keys and another is to go in, so a
publisher inventing keys cannot grow it without bound.

Deleting a queue drops its items and its own bindings, which each queue
indexes, so the cost does not grow with the number of exchanges. An exchange
lives until ``delete_exchange`` is called on it with nothing bound.

Headers are shared by every queue a publish reaches and must be treated as
read-only; a consumer that forwards with more headers builds a new map.
"""

from __future__ import annotations

import threading
from collections import deque
from operator import itemgetter
from types import MappingProxyType
from typing import Callable, Dict, List, Mapping, Optional

Headers = Mapping[str, str]
Consumer = Callable[[object, Headers], None]

NO_HEADERS: Headers = MappingProxyType({})

# Routing keys one exchange's route table holds before it is cleared.
ROUTE_CAP = 64


class BrokerError(Exception):
    pass


class _Queue:
    __slots__ = ("name", "items", "consumer", "bindings")

    def __init__(self, name: str):
        self.name = name
        self.items: deque = deque()  # (body, headers)
        self.consumer: Optional[Consumer] = None
        # (exchange name, binding) for each binding of this queue
        self.bindings: List[tuple] = []


def compile_pattern(pattern: str) -> Callable[[List[str]], bool]:
    """Compile a binding pattern to a test on a routing key's segments.

    Raises BrokerError for a ``#`` segment, so that a pattern written for a
    multi-segment wildcard fails when it is bound instead of matching less.
    """
    segments = pattern.split(".")
    if "#" in segments:
        raise BrokerError(f"pattern {pattern!r}: '#' is not supported, only '*'")
    if "*" not in segments:
        return lambda key: key == segments
    count = len(segments)
    literal = [i for i, s in enumerate(segments) if s != "*"]
    if not literal:
        return lambda key: len(key) == count
    pick = itemgetter(*literal)
    want = pick(segments)
    return lambda key: len(key) == count and pick(key) == want


class Broker:
    def __init__(self):
        self._lock = threading.RLock()
        # exchange name -> [(pattern, queue name, matcher)]
        self._exchanges: Dict[str, List[tuple]] = {}
        # exchange name -> {routing key: names of the queues it reaches}
        self._routes: Dict[str, Dict[str, tuple]] = {}
        self._queues: Dict[str, _Queue] = {}

    # --- topology ---------------------------------------------------------

    def declare_exchange(self, name: str) -> None:
        with self._lock:
            if name not in self._exchanges:
                self._exchanges[name] = []
                self._routes[name] = {}

    def declare_queue(self, name: str) -> None:
        with self._lock:
            self._queues.setdefault(name, _Queue(name))

    def delete_queue(self, name: str) -> None:
        """Delete a queue, its buffered items and its own bindings; a no-op
        for an unknown name."""
        with self._lock:
            q = self._queues.pop(name, None)
            if q is None:
                return
            for exchange, binding in q.bindings:
                self._exchanges[exchange].remove(binding)
                self._routes[exchange].clear()
            q.consumer = None  # ends a drain of this queue in progress

    def delete_exchange(self, name: str) -> None:
        """Delete an exchange that nothing is bound to; a no-op otherwise.

        An exchange is not deleted for losing its last binding: its owner says
        when it goes.
        """
        with self._lock:
            if name in self._exchanges and not self._exchanges[name]:
                del self._exchanges[name]
                del self._routes[name]

    def bind(self, exchange: str, pattern: str, queue: str) -> None:
        with self._lock:
            bindings = self._exchanges.get(exchange)
            if bindings is None:
                raise BrokerError(f"unknown exchange {exchange!r}")
            q = self._queues.get(queue)
            if q is None:
                raise BrokerError(f"unknown queue {queue!r}")
            if not any(b[0] == pattern and b[1] == queue for b in bindings):
                binding = (pattern, queue, compile_pattern(pattern))
                bindings.append(binding)
                q.bindings.append((exchange, binding))
                self._routes[exchange].clear()

    def set_consumer(self, queue: str, consumer: Optional[Consumer]) -> None:
        """Attach or detach a consumer; attaching drains buffered items."""
        with self._lock:
            q = self._queues.get(queue)
            if q is None:
                raise BrokerError(f"unknown queue {queue!r}")
            q.consumer = consumer
            if consumer is not None:
                self._drain(q)

    # --- traffic ------------------------------------------------------------

    def publish(
        self, exchange: str, routing_key: str, body: object, headers: Optional[Headers] = None
    ) -> int:
        """Route a body and its headers to every queue bound to a matching pattern.

        Returns the number of queues that received it.
        """
        with self._lock:
            routes = self._routes.get(exchange)
            if routes is None:
                raise BrokerError(f"unknown exchange {exchange!r}")
            hits = routes.get(routing_key)
            if hits is None:
                key = routing_key.split(".")
                hits = tuple(q for _, q, matches in self._exchanges[exchange] if matches(key))
                if hits:
                    if len(routes) >= ROUTE_CAP:
                        routes.clear()
                    routes[routing_key] = hits
            for name in hits:
                self.push(name, body, headers)
            return len(hits)

    def push(self, queue: str, body: object, headers: Optional[Headers] = None) -> None:
        """Append a body and its headers straight onto a queue, bypassing any exchange."""
        with self._lock:
            q = self._queues.get(queue)
            if q is None:
                raise BrokerError(f"unknown queue {queue!r}")
            q.items.append((body, NO_HEADERS if headers is None else headers))
            if q.consumer is not None:
                self._drain(q)

    def pending(self, queue: str) -> int:
        with self._lock:
            q = self._queues.get(queue)
            return len(q.items) if q else 0

    def _drain(self, q: _Queue) -> None:
        while q.items and q.consumer is not None:
            body, headers = q.items.popleft()
            q.consumer(body, headers)
