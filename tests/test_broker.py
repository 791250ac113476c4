"""Direct routing, message headers and queue buffering."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from parley.broker import NO_HEADERS, Broker, BrokerError


def bodies(got):
    """A consumer that keeps only the bodies it is given."""
    return lambda body, headers: got.append(body)


def bound(broker, exchange):
    """An exchange's table: routing key -> names of the queues bound under it."""
    return broker._exchanges[exchange]


@pytest.mark.parametrize(
    "pattern,key,expect",
    [
        ("a.b", "a.b", True),
        ("a.b", "a.c", False),
        ("a.b", "a.b.c", False),
        ("*", "a", True),
        ("*", "a.b", False),
        ("a.*", "a.b", True),
        ("a.*.c", "a.x.c", True),
        ("a.*.c", "a.x.y.c", False),
        ("a.b*", "a.b*", True),
        ("a.b*", "a.bc", False),
    ],
)
def test_pattern_matching(pattern, key, expect):
    # ``expect`` is what topic matching would give: a key bound literally
    # routes exactly so, and one with a ``*`` segment is refused at bind
    # rather than matching less (a star inside a segment is literal)
    broker = Broker()
    broker.declare_exchange("ex")
    broker.declare_queue("q")
    if "*" in pattern.split("."):
        with pytest.raises(BrokerError):
            broker.bind("ex", pattern, "q")
        assert bound(broker, "ex") == {}
        assert broker.publish("ex", key, b"x") == 0
    else:
        broker.bind("ex", pattern, "q")
        assert broker.publish("ex", key, b"x") == int(expect)


segment = st.text(alphabet="abcx", min_size=1, max_size=3)


@given(st.lists(segment, min_size=1, max_size=5))
def test_exact_pattern_matches_only_itself(segments):
    key = ".".join(segments)
    broker = Broker()
    broker.declare_exchange("ex")
    broker.declare_queue("q")
    broker.bind("ex", key, "q")
    assert broker.publish("ex", key, b"x") == 1
    assert broker.publish("ex", key + ".z", b"x") == 0
    assert broker.publish("ex", "z." + key, b"x") == 0
    assert broker.publish("ex", "*." + key, b"x") == 0
    if len(segments) > 1:
        assert broker.publish("ex", ".".join(segments[:-1]), b"x") == 0


def test_hash_pattern_is_refused_at_bind():
    broker = Broker()
    broker.declare_exchange("ex")
    broker.declare_queue("q")
    for pattern in ("a.#", "#", "#.c", "a.#.c"):
        with pytest.raises(BrokerError):
            broker.bind("ex", pattern, "q")
    for key in ("a", "a.b", "c", "a.b.c"):
        assert broker.publish("ex", key, b"x") == 0
    broker.delete_exchange("ex")  # nothing was bound, so it goes
    with pytest.raises(BrokerError):
        broker.publish("ex", "a", b"x")


def test_publish_routes_to_matching_queues():
    broker = Broker()
    broker.declare_exchange("ex")
    for name in ("q1", "q2", "q3"):
        broker.declare_queue(name)
    broker.bind("ex", "s.B.A", "q1")
    broker.bind("ex", "s.B.A", "q2")
    broker.bind("ex", "s.C.A", "q3")
    assert broker.publish("ex", "s.B.A", b"one") == 2
    assert broker.pending("q1") == 1
    assert broker.pending("q2") == 1
    assert broker.pending("q3") == 0


def test_binding_order_is_kept():
    broker = Broker()
    broker.declare_exchange("ex")
    got = []
    for name in ("q3", "q1", "q2"):
        broker.declare_queue(name)
        broker.set_consumer(name, lambda body, headers, n=name: got.append(n))
        broker.bind("ex", "k", name)
    broker.bind("ex", "k", "q3")  # bound again: keeps its place
    assert broker.publish("ex", "k", b"x") == 3
    assert got == ["q3", "q1", "q2"]
    broker.delete_queue("q1")
    broker.declare_queue("q1")
    broker.set_consumer("q1", lambda body, headers: got.append("q1"))
    broker.bind("ex", "k", "q1")  # declared again, it binds last
    got.clear()
    assert broker.publish("ex", "k", b"x") == 3
    assert got == ["q3", "q2", "q1"]


def test_consumer_gets_buffered_backlog_on_attach():
    broker = Broker()
    broker.declare_exchange("ex")
    broker.declare_queue("q")
    broker.bind("ex", "k", "q")
    broker.publish("ex", "k", b"first")
    broker.publish("ex", "k", b"second")
    got = []
    broker.set_consumer("q", bodies(got))
    assert got == [b"first", b"second"]
    assert broker.pending("q") == 0
    broker.publish("ex", "k", b"third")
    assert got == [b"first", b"second", b"third"]


def test_detached_consumer_buffers_again():
    broker = Broker()
    broker.declare_queue("q")
    got = []
    broker.set_consumer("q", bodies(got))
    broker.push("q", b"a")
    broker.set_consumer("q", None)
    broker.push("q", b"b")
    assert got == [b"a"]
    assert broker.pending("q") == 1


def test_consumer_republish_runs_before_publish_returns():
    # synchronous delivery: a consumer chain finishes inside the first publish
    broker = Broker()
    broker.declare_exchange("ex")
    broker.declare_queue("relay")
    broker.declare_queue("sink")
    broker.bind("ex", "hop.one", "relay")
    broker.bind("ex", "hop.two", "sink")
    seen = []
    broker.set_consumer(
        "relay", lambda body, headers: broker.publish("ex", "hop.two", body + b"!")
    )
    broker.set_consumer("sink", bodies(seen))
    broker.publish("ex", "hop.one", b"msg")
    assert seen == [b"msg!"]


def test_a_consumer_pushing_onto_its_own_queue_gets_each_push_at_once():
    # a push made while the queue's consumer runs is delivered before that
    # consumer returns, whether it comes straight or through an exchange
    broker = Broker()
    broker.declare_exchange("ex")
    broker.declare_queue("q")
    broker.bind("ex", "k", "q")
    seen = []

    def consumer(body, headers):
        seen.append(("in", body))
        if body == b"a":
            broker.push("q", b"a1")
            broker.publish("ex", "k", b"a2")
        seen.append(("out", body))

    broker.set_consumer("q", consumer)
    broker.push("q", b"a")
    broker.push("q", b"b")
    assert seen == [
        ("in", b"a"),
        ("in", b"a1"),
        ("out", b"a1"),
        ("in", b"a2"),
        ("out", b"a2"),
        ("out", b"a"),
        ("in", b"b"),
        ("out", b"b"),
    ]
    assert broker.pending("q") == 0


def test_a_backlog_drained_on_attach_keeps_the_order_of_arrival():
    # pushes that arrive while the backlog drains queue up behind it
    broker = Broker()
    broker.declare_queue("q")
    for body in (b"a", b"b", b"c"):
        broker.push("q", body)
    got = []

    def consumer(body, headers):
        got.append(body)
        if body == b"a":
            broker.push("q", b"x")
        if body == b"b":
            broker.push("q", b"y")

    broker.set_consumer("q", consumer)
    assert got == [b"a", b"b", b"c", b"x", b"y"]
    assert broker.pending("q") == 0
    broker.push("q", b"z")
    assert got[-1] == b"z"


def test_a_consumer_that_raises_loses_only_its_own_item():
    broker = Broker()
    broker.declare_queue("q")
    got = []

    def consumer(body, headers):
        if body.startswith(b"bad"):
            raise ValueError(body)
        got.append(body)

    # delivered as pushed: the pusher gets the error, later pushes arrive
    broker.set_consumer("q", consumer)
    broker.push("q", b"one")
    with pytest.raises(ValueError):
        broker.push("q", b"bad1")
    broker.push("q", b"two")
    assert got == [b"one", b"two"]
    assert broker.pending("q") == 0
    # drained from a backlog: what was behind the failed item stays queued
    # and goes first when the next push drains the queue
    broker.set_consumer("q", None)
    for body in (b"three", b"bad2", b"four"):
        broker.push("q", body)
    with pytest.raises(ValueError):
        broker.set_consumer("q", consumer)
    assert got == [b"one", b"two", b"three"]
    assert broker.pending("q") == 1
    broker.push("q", b"five")
    assert got == [b"one", b"two", b"three", b"four", b"five"]
    assert broker.pending("q") == 0


def test_duplicate_binding_delivers_once():
    broker = Broker()
    broker.declare_exchange("ex")
    broker.declare_queue("q")
    broker.bind("ex", "a.b", "q")
    broker.bind("ex", "a.b", "q")
    assert bound(broker, "ex") == {"a.b": ("q",)}
    assert broker.publish("ex", "a.b", b"x") == 1
    broker.delete_queue("q")  # its one binding goes, and the key with it
    assert bound(broker, "ex") == {}


def test_unbind_and_delete_queue():
    # deleting a queue unbinds it: declared again, it starts with no bindings
    broker = Broker()
    broker.declare_exchange("ex")
    broker.declare_queue("q")
    broker.bind("ex", "a", "q")
    broker.delete_queue("q")
    broker.declare_queue("q")
    assert broker.publish("ex", "a", b"x") == 0

    broker.bind("ex", "a", "q")
    broker.delete_queue("q")
    assert broker.publish("ex", "a", b"x") == 0
    assert broker.pending("q") == 0


def test_unknown_names_raise():
    broker = Broker()
    broker.declare_exchange("ex")
    broker.declare_queue("q")
    with pytest.raises(BrokerError):
        broker.publish("nope", "k", b"")
    with pytest.raises(BrokerError):
        broker.push("nope", b"")
    with pytest.raises(BrokerError):
        broker.bind("nope", "k", "q")
    with pytest.raises(BrokerError):
        broker.bind("ex", "k", "nope")
    with pytest.raises(BrokerError):
        broker.set_consumer("nope", lambda body, headers: None)


def test_headers_reach_consumers_unchanged():
    broker = Broker()
    broker.declare_exchange("ex")
    for name in ("q1", "q2", "plain"):
        broker.declare_queue(name)
    for name in ("q1", "q2"):
        broker.bind("ex", "k.x", name)
    got = []
    for name in ("q1", "q2", "plain"):
        broker.set_consumer(name, lambda body, headers, n=name: got.append((n, body, headers)))
    broker.publish("ex", "k.x", b"routed", {"h": "1"})
    broker.push("plain", b"pushed", {"h": "2", "g": "3"})
    broker.publish("ex", "k.x", b"bare")
    assert got == [
        ("q1", b"routed", {"h": "1"}),
        ("q2", b"routed", {"h": "1"}),
        ("plain", b"pushed", {"h": "2", "g": "3"}),
        ("q1", b"bare", {}),
        ("q2", b"bare", {}),
    ]
    assert got[-1][2] is NO_HEADERS


def test_buffered_item_keeps_its_headers():
    broker = Broker()
    broker.declare_exchange("ex")
    broker.declare_queue("q")
    broker.bind("ex", "k", "q")
    broker.publish("ex", "k", b"one", {"stamp": "A"})
    broker.push("q", b"two")
    broker.push("q", b"three", {"stamp": "B"})
    got = []
    broker.set_consumer("q", lambda body, headers: got.append((body, dict(headers))))
    assert got == [(b"one", {"stamp": "A"}), (b"two", {}), (b"three", {"stamp": "B"})]


def test_delete_queue_removes_only_its_own_bindings():
    broker = Broker()
    for exchange in ("x1", "x2"):
        broker.declare_exchange(exchange)
    for queue in ("q1", "q2"):
        broker.declare_queue(queue)
        broker.bind("x1", "a.b", queue)
        broker.bind("x1", "a.c", queue)
        broker.bind("x2", "k", queue)
    broker.push("q1", b"buffered")
    broker.delete_queue("q1")
    assert broker.pending("q1") == 0
    assert bound(broker, "x1") == {"a.b": ("q2",), "a.c": ("q2",)}
    assert bound(broker, "x2") == {"k": ("q2",)}
    assert broker.publish("x1", "a.b", b"x") == 1
    assert broker.publish("x2", "k", b"x") == 1
    assert broker.pending("q2") == 2
    broker.delete_queue("q1")  # unknown now: a no-op
    broker.delete_queue("q2")
    assert bound(broker, "x1") == bound(broker, "x2") == {}  # no empty key is left
    assert broker.publish("x1", "a.b", b"x") == 0  # both exchanges survive
    assert broker.publish("x2", "k", b"x") == 0


def test_delete_exchange_only_when_unbound():
    broker = Broker()
    broker.declare_exchange("ex")
    broker.declare_queue("q")
    broker.bind("ex", "a", "q")
    broker.delete_exchange("ex")  # still bound: stays
    assert broker.publish("ex", "a", b"x") == 1
    broker.delete_queue("q")  # its only binding goes with it
    broker.delete_exchange("ex")
    with pytest.raises(BrokerError):
        broker.publish("ex", "a", b"x")
    broker.delete_exchange("ex")  # unknown now: a no-op
    broker.delete_queue("q")  # unknown now: a no-op


# --- unbound keys -------------------------------------------------------------


def test_a_key_that_reaches_nothing_is_not_cached():
    broker = Broker()
    broker.declare_exchange("ex")
    broker.declare_queue("q")
    broker.bind("ex", "a.b", "q")
    assert broker.publish("ex", "b.c", b"x") == 0
    assert broker.publish("ex", "a", b"x") == 0
    assert bound(broker, "ex") == {"a.b": ("q",)}


def test_a_flood_of_keys_leaves_the_route_table_bounded():
    # a publisher inventing keys stores nothing: the exchange's table holds
    # only what was bound
    broker = Broker()
    broker.declare_exchange("ex")
    broker.declare_queue("q")
    broker.bind("ex", "c.0.r", "q")
    got = []
    broker.set_consumer("q", bodies(got))
    sizes = set()
    for n in range(10_000):
        assert broker.publish("ex", f"c.{n}.r", n) == (1 if n == 0 else 0)
        sizes.add(len(bound(broker, "ex")))
    assert got == [0]
    assert sizes == {1}
    assert bound(broker, "ex") == {"c.0.r": ("q",)}
