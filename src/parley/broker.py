"""In-process message broker with topic exchanges and named queues.

Publishing routes an opaque body, with an optional map of headers beside it
as in AMQP, through an exchange's bindings to every queue whose pattern
matches the routing key (dot-separated segments; ``*`` matches one segment,
``#`` matches any tail). Patterns are compiled once, when they are bound.
The broker never looks inside a body: the conversation runtime sends bytes
between principals and hands message objects along a principal's own
queues, and both travel alike. Delivery is synchronous: a queue with a
consumer drains in the publisher's thread, calling ``consumer(body,
headers)`` per item, so a chain of consumer republishes runs to completion
before publish() returns. Queues without a consumer buffer (body, headers)
pairs until one is attached.

Headers are shared by every queue a publish reaches and must be treated as
read-only; a consumer that forwards with more headers builds a new map.
"""

from __future__ import annotations

import re
import threading
from collections import deque
from operator import itemgetter
from types import MappingProxyType
from typing import Callable, Dict, List, Mapping, Optional

Headers = Mapping[str, str]
Consumer = Callable[[object, Headers], None]

NO_HEADERS: Headers = MappingProxyType({})


class BrokerError(Exception):
    pass


class _Queue:
    __slots__ = ("name", "items", "consumer")

    def __init__(self, name: str):
        self.name = name
        self.items: deque = deque()  # (body, headers)
        self.consumer: Optional[Consumer] = None


def compile_pattern(pattern: str) -> Callable[[List[str]], bool]:
    """Compile a binding pattern to a test on a routing key's segments.

    Patterns without ``#``, the only kind a session binds, compile without a
    regular expression: compiling one costs about 90 µs, a fifth of a
    session's set-up.
    """
    segments = pattern.split(".")
    if "#" in segments:
        if segments == ["#"]:
            return lambda key: True
        # Each key segment is matched with the dot before it, so ``#`` is any
        # run of ``.segment``, the empty run included.
        parts = {"#": r"(?:\.[^.]*)*", "*": r"\.[^.]*"}
        regex = re.compile("".join(parts.get(s) or r"\." + re.escape(s) for s in segments))
        return lambda key: regex.fullmatch("." + ".".join(key)) is not None
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
        self._queues: Dict[str, _Queue] = {}

    # --- topology ---------------------------------------------------------

    def declare_exchange(self, name: str) -> None:
        with self._lock:
            self._exchanges.setdefault(name, [])

    def declare_queue(self, name: str) -> None:
        with self._lock:
            self._queues.setdefault(name, _Queue(name))

    def delete_queue(self, name: str) -> None:
        with self._lock:
            self._queues.pop(name, None)
            for bindings in self._exchanges.values():
                bindings[:] = [b for b in bindings if b[1] != name]

    def bind(self, exchange: str, pattern: str, queue: str) -> None:
        with self._lock:
            bindings = self._exchanges.get(exchange)
            if bindings is None:
                raise BrokerError(f"unknown exchange {exchange!r}")
            if queue not in self._queues:
                raise BrokerError(f"unknown queue {queue!r}")
            if not any(b[0] == pattern and b[1] == queue for b in bindings):
                bindings.append((pattern, queue, compile_pattern(pattern)))

    def unbind(self, exchange: str, pattern: str, queue: str) -> None:
        with self._lock:
            bindings = self._exchanges.get(exchange, [])
            bindings[:] = [b for b in bindings if b[0] != pattern or b[1] != queue]

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
        key = routing_key.split(".")
        with self._lock:
            bindings = self._exchanges.get(exchange)
            if bindings is None:
                raise BrokerError(f"unknown exchange {exchange!r}")
            hits = [queue for _, queue, matches in bindings if matches(key)]
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
