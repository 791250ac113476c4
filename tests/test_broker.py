"""Topic routing, message headers and queue buffering."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from parley.broker import NO_HEADERS, Broker, BrokerError, compile_pattern


def reference_matches(pattern, key):
    """Topic matching over segment lists, written out recursively."""
    if not pattern:
        return not key
    if not key:
        return False
    if pattern[0] == "*" or pattern[0] == key[0]:
        return reference_matches(pattern[1:], key[1:])
    return False


def matches(pattern, key):
    return compile_pattern(pattern)(key.split("."))


def bodies(got):
    """A consumer that keeps only the bodies it is given."""
    return lambda body, headers: got.append(body)


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
    ],
)
def test_pattern_matching(pattern, key, expect):
    assert matches(pattern, key) is expect


segment = st.text(alphabet="abcx", min_size=1, max_size=3)
key_segment = st.text(alphabet="abx", max_size=2)
pattern_segment = st.one_of(key_segment, st.just("*"))


@given(
    st.lists(pattern_segment, min_size=1, max_size=5),
    st.lists(key_segment, min_size=1, max_size=6),
)
def test_compiled_pattern_agrees_with_reference(pattern, key):
    expect = reference_matches(pattern, key)
    assert matches(".".join(pattern), ".".join(key)) is expect


@given(st.lists(segment, min_size=1, max_size=5))
def test_exact_pattern_matches_only_itself(segments):
    key = ".".join(segments)
    assert matches(key, key)
    assert not matches(key, key + ".z")
    assert not matches(key + ".z", key)


@given(st.lists(segment, min_size=1, max_size=5), st.integers(0, 5))
def test_star_matches_any_single_segment(segments, pos):
    pos = pos % len(segments)
    pattern = ".".join("*" if i == pos else s for i, s in enumerate(segments))
    assert matches(pattern, ".".join(segments))


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
    broker.bind("ex", "s.*.A", "q1")
    broker.bind("ex", "s.B.*", "q2")
    broker.bind("ex", "t.*.*", "q3")
    assert broker.publish("ex", "s.B.A", b"one") == 2
    assert broker.pending("q1") == 1
    assert broker.pending("q2") == 1
    assert broker.pending("q3") == 0


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


def test_duplicate_binding_delivers_once():
    broker = Broker()
    broker.declare_exchange("ex")
    broker.declare_queue("q")
    broker.bind("ex", "a.*", "q")
    broker.bind("ex", "a.*", "q")
    assert broker.publish("ex", "a.b", b"x") == 1


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
    broker.bind("ex", "k.*", "q1")
    broker.bind("ex", "*.*", "q2")
    got = []
    for name in ("q1", "q2", "plain"):
        broker.set_consumer(name, lambda body, headers, n=name: got.append((n, body, headers)))
    broker.publish("ex", "k.x", b"routed", {"h": "1"})
    broker.push("plain", b"pushed", {"h": "2", "g": "3"})
    broker.publish("ex", "k.y", b"bare")
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
        broker.bind("x1", "a.*", queue)
        broker.bind("x2", "k", queue)
    broker.push("q1", b"buffered")
    broker.delete_queue("q1")
    assert broker.pending("q1") == 0
    assert broker.publish("x1", "a.b", b"x") == 1
    assert broker.publish("x2", "k", b"x") == 1
    assert broker.pending("q2") == 2
    broker.delete_queue("q1")  # unknown now: a no-op
    broker.delete_queue("q2")
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
