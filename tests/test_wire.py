"""Wire format round trips and invitation config parsing."""

import copy
import json
import pickle
import sys
from base64 import b64encode
from dataclasses import FrozenInstanceError, fields, replace
from enum import IntEnum

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parley.wire import (
    IN_SESSION,
    INVITATION,
    ConversationMessage,
    IncompleteConfig,
    InvitationConfig,
    InvitationEntry,
    X_PRINCIPAL,
    X_ROLE,
    WireError,
    decode_message,
    encode_message,
    is_plain,
    load_invitation_config,
    parse_invitation_config,
    payload_from_dict,
    plain_payload,
)


def make(**kw):
    base = dict(kind=IN_SESSION, cid="c1", sender="A", receiver="B")
    base.update(kw)
    return ConversationMessage(**base)


def test_round_trip_all_payload_types():
    msg = make(
        label="Mix",
        payload=(("n", 7), ("flag", True), ("name", "hi"), ("blob", b"\x00\xffraw")),
        extras=(("mediated_out", "A"),),
    )
    again = decode_message(encode_message(msg))
    assert again == msg


def test_bool_is_not_collapsed_to_int():
    # bool subclasses int; the type tag must say bool and decode must keep it
    wire = encode_message(make(label="B", payload=(("flag", False),)))
    doc = json.loads(wire)
    assert doc["payload"][0]["type"] == "bool"
    value = decode_message(wire).payload_dict()["flag"]
    assert value is False


def test_bytes_travel_base64():
    wire = encode_message(make(label="D", payload=(("data", b"\x01\x02"),)))
    doc = json.loads(wire)
    assert doc["payload"][0] == {"name": "data", "type": "bytes", "value": "AQI="}


def test_encoding_is_canonical():
    a = make(label="L", payload=(("x", 1),), extras=(("k", "v"),))
    assert encode_message(a) == encode_message(a)


def test_invitation_kind_round_trips():
    msg = ConversationMessage(
        kind=INVITATION,
        cid="c9",
        sender="broker",
        receiver="alice",
        extras=(("role", "U"), ("protocol_ref", "DataAquisition_U.scr")),
    )
    again = decode_message(encode_message(msg))
    assert again.kind == INVITATION
    assert again.extra("role") == "U"
    assert again.extra("missing", "dflt") == "dflt"


def test_message_is_a_frozen_value():
    a = make(label="L", extras=(("b", "2"), ("a", "1")))
    b = make(label="L", extras=[("a", "1"), ("b", "2")])
    assert a == b and hash(a) == hash(b)
    assert a.extras == (("a", "1"), ("b", "2"))
    assert make(extras=[("a", "1")]).extras == (("a", "1"),)
    assert replace(a, label="Q") == make(label="Q", extras=a.extras)
    assert repr(a) == (
        "ConversationMessage(kind='in_session', cid='c1', sender='A', receiver='B', "
        "label='L', payload=(), extras=(('a', '1'), ('b', '2')))"
    )
    with pytest.raises(FrozenInstanceError):
        a.cid = "c2"


def test_payload_from_dict():
    assert payload_from_dict(None) == ()
    assert payload_from_dict({}) == ()
    assert dict(payload_from_dict({"x": 1, "s": "a"})) == {"x": 1, "s": "a"}
    with pytest.raises(WireError):
        payload_from_dict({"x": 1.5})


def test_encode_rejects_unsupported_payload_type():
    with pytest.raises(WireError):
        encode_message(make(label="L", payload=(("x", [1]),)))


@pytest.mark.parametrize(
    "mangle",
    [
        lambda d: b"\xff\xfe not utf8 \xff",
        lambda d: b"not json{",
        lambda d: b'["a","list"]',
        lambda d: json.dumps({k: v for k, v in d.items() if k != "cid"}).encode(),
        lambda d: json.dumps(dict(d, kind="telegram")).encode(),
        lambda d: json.dumps(
            dict(d, payload=[{"name": "x", "type": "bytes", "value": "!!"}])
        ).encode(),
        lambda d: json.dumps(
            dict(d, payload=[{"name": "x", "type": "int", "value": True}])
        ).encode(),
        lambda d: json.dumps(
            dict(d, payload=[{"name": "x", "type": "int", "value": "7"}])
        ).encode(),
        lambda d: json.dumps(
            dict(d, payload=[{"name": "x", "type": "bool", "value": 1}])
        ).encode(),
        lambda d: json.dumps(
            dict(d, payload=[{"name": "x", "type": "string", "value": 7}])
        ).encode(),
        lambda d: json.dumps(
            dict(d, payload=[{"name": "x", "type": "float", "value": 1}])
        ).encode(),
        lambda d: json.dumps(dict(d, extras={"k": 5})).encode(),
        lambda d: json.dumps(dict(d, extras=["k"])).encode(),
        lambda d: json.dumps(dict(d, payload={"x": 1})).encode(),
        lambda d: json.dumps(dict(d, payload=["x"])).encode(),
        lambda d: json.dumps(dict(d, payload=[{"name": "x", "value": 1}])).encode(),
        lambda d: json.dumps(dict(d, payload=[{"name": 3, "type": "int", "value": 1}])).encode(),
        lambda d: json.dumps(
            dict(
                d,
                payload=[
                    {"name": "x", "type": "int", "value": 1},
                    {"name": "x", "type": "int", "value": 2},
                ],
            )
        ).encode(),
        lambda d: json.dumps(dict(d, cid=7)).encode(),
        lambda d: json.dumps(dict(d, **{"from": None})).encode(),
        lambda d: json.dumps(dict(d, to=["B"])).encode(),
        lambda d: json.dumps(dict(d, label={"L": 1})).encode(),
        lambda d: b"[" * 100_000,
        lambda d: b"1" * 5000,
        lambda d: json.dumps(d),  # a str, not bytes
        lambda d: None,
        lambda d: 7,
    ],
)
def test_decode_rejects_malformed(mangle):
    doc = json.loads(encode_message(make(label="L")))
    with pytest.raises(WireError):
        decode_message(mangle(doc))


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=8,
)
entry_values = st.fixed_dictionaries(
    {},
    optional={
        "name": st.sampled_from(["x", "y"]) | json_values,
        "type": st.sampled_from(["bytes", "int", "bool", "string"]) | json_values,
        "value": st.sampled_from(["AQI=", "!!", 7, True]) | json_values,
    },
)
documents = st.fixed_dictionaries(
    {},
    optional={
        "kind": st.sampled_from([IN_SESSION, INVITATION]) | json_values,
        "cid": st.just("c1") | json_values,
        "from": st.just("A") | json_values,
        "to": st.just("B") | json_values,
        "label": st.just("L") | json_values,
        "payload": st.lists(entry_values, max_size=3) | json_values,
        "extras": st.dictionaries(st.text(max_size=4), st.text(max_size=4), max_size=2)
        | json_values,
    },
)


@given(st.one_of(st.binary(max_size=64), documents.map(lambda d: json.dumps(d).encode())))
def test_decode_is_total(data):
    # any bytes are a message or a WireError, never another exception
    try:
        message = decode_message(data)
    except WireError:
        return
    assert isinstance(message, ConversationMessage)


payload_values = st.one_of(
    st.booleans(),
    st.integers(),
    st.text(max_size=40),
    st.binary(max_size=40),
)


@given(
    st.lists(
        st.tuples(st.text(min_size=1, max_size=10), payload_values),
        max_size=6,
        unique_by=lambda kv: kv[0],
    ),
    st.dictionaries(st.text(min_size=1, max_size=8), st.text(max_size=8), max_size=4),
)
def test_round_trip_random(payload, extras):
    msg = make(label="R", payload=tuple(payload), extras=tuple(extras.items()))
    assert decode_message(encode_message(msg)) == msg


def reference_encode(message):
    """The canonical form by definition: the encoder as json.dumps wrote it."""
    payload = []
    for name, value in message.payload:
        if isinstance(value, bool):
            tag = "bool"
        elif isinstance(value, int):
            tag = "int"
        elif isinstance(value, str):
            tag = "string"
        elif isinstance(value, bytes):
            tag = "bytes"
        else:
            raise WireError(f"unsupported payload type {type(value).__name__}")
        wire_value = b64encode(value).decode("ascii") if tag == "bytes" else value
        payload.append({"name": name, "type": tag, "value": wire_value})
    doc = {
        "kind": message.kind,
        "cid": message.cid,
        "from": message.sender,
        "to": message.receiver,
        "label": message.label,
        "payload": payload,
        "extras": dict(message.extras),
    }
    return json.dumps(doc, sort_keys=True, separators=(",", ":")).encode("utf-8")


# Quotes, backslashes, control and non-ASCII characters, a lone surrogate.
awkward = st.lists(
    st.sampled_from(
        ['"', "\\", "\n", "\x00", "\x1f", "\x7f", "\u2028", "é", "\U0001f600", "\ud800", "a"]
    ),
    max_size=8,
).map("".join)
wire_text = st.text(max_size=12) | awkward
wire_values = st.one_of(
    st.booleans(),
    st.integers(),
    st.integers(min_value=-(10**80), max_value=10**80),
    wire_text,
    st.binary(max_size=40),
)
valid_messages = st.builds(
    ConversationMessage,
    kind=st.sampled_from([IN_SESSION, INVITATION]),
    cid=wire_text,
    sender=wire_text,
    receiver=wire_text,
    label=wire_text,
    payload=st.lists(
        st.tuples(wire_text, wire_values), max_size=5, unique_by=lambda kv: kv[0]
    ).map(tuple),
    extras=st.dictionaries(wire_text, wire_text, max_size=4).map(lambda d: tuple(d.items())),
)


class Flavour(IntEnum):
    PLAIN = 1


class Text(str):
    pass


class Message(ConversationMessage):
    __slots__ = ()


@pytest.mark.parametrize(
    "fields",
    [
        dict(label=Text("L")),
        dict(cid=Text("c1")),
        dict(kind=Text(IN_SESSION)),
        dict(payload=(("x", Flavour.PLAIN),)),
        dict(payload=(("x", Text("v")),)),
        dict(payload=((Text("x"), 1),)),
        dict(extras=(("k", Text("v")),)),
        dict(extras=((Text("k"), "v"),)),
    ],
)
def test_a_subclass_anywhere_is_not_plain(fields):
    message = make(**{"label": "L", **fields})
    assert decode_message(encode_message(message)) == message
    assert not is_plain(message)


def test_a_subclass_of_the_message_is_not_plain():
    assert not is_plain(Message(IN_SESSION, "c1", "A", "B", "L"))


def test_a_subclass_of_the_message_round_trips_field_for_field():
    message = Message(
        INVITATION, "c1", "A", "B", "L", (("n", 7), ("b", b"\x00")), ((X_ROLE, "U"),)
    )
    again = decode_message(encode_message(message))
    assert again != message  # the dataclass compares classes too
    assert shape(again) == (ConversationMessage,) + shape(message)[1:]


@given(valid_messages)
def test_decoded_messages_are_plain(message):
    assert is_plain(message)
    assert is_plain(decode_message(encode_message(message)))


@given(valid_messages)
def test_encoding_matches_reference(message):
    assert encode_message(message) == reference_encode(message)


scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(allow_nan=False),
    wire_text,
    st.binary(max_size=6),
)
anything = scalars | st.lists(scalars, max_size=2) | st.tuples(scalars, scalars)


def mostly(valid, invalid=anything):
    """Draws from ``valid`` seven times in eight, else from ``invalid``."""
    return st.integers(0, 7).flatmap(lambda n: valid if n else invalid)


entries = st.tuples(mostly(st.sampled_from(["x", "y"]) | wire_text), mostly(wire_values))
# Two or more extras are sorted at construction, so only a lone entry is odd.
extras = mostly(
    st.lists(
        st.tuples(st.sampled_from([X_ROLE, X_PRINCIPAL]) | wire_text, wire_text), max_size=3
    ).map(tuple),
    st.tuples(anything | st.tuples(anything, anything)),
)
arbitrary_messages = st.builds(
    ConversationMessage,
    kind=mostly(st.sampled_from([IN_SESSION, INVITATION])),
    cid=mostly(wire_text),
    sender=mostly(wire_text),
    receiver=mostly(wire_text),
    label=mostly(wire_text),
    payload=mostly(
        st.lists(mostly(entries), max_size=3).map(tuple),
        st.lists(entries, max_size=2) | anything,
    ),
    extras=extras,
)


@given(arbitrary_messages)
def test_encode_refuses_or_round_trips(message):
    # every message that encodes comes back equal; the rest raise WireError
    try:
        wire = encode_message(message)
    except WireError:
        return
    assert decode_message(wire) == message


def nested(depth):
    """A list nested ``depth`` lists deep."""
    value = []
    for _ in range(depth):
        value = [value]
    return value


def looped():
    """A list that contains itself."""
    value = []
    value.append(value)
    return value


@pytest.mark.parametrize(
    "fields",
    [
        dict(cid=7),
        dict(sender=None),
        dict(receiver=b"B"),
        dict(label=("L",)),
        dict(kind="telegram"),
        dict(kind=["in_session"]),
        dict(payload=[("x", 1)]),
        dict(payload=(("x", 1, 2),)),
        dict(payload=(["x", 1],)),
        dict(payload=((3, 1),)),
        dict(payload=(("x", 1), ("x", 2))),
        dict(payload=(("x", 1.5),)),
        dict(payload=(("x", None),)),
        dict(payload=(("x", 10**5000),)),
        dict(extras=(("k", 5),)),
        dict(extras=((5, "v"),)),
        dict(extras=(("k", "v", "w"),)),
        dict(extras=(("principal", "agg"), ("principal", "instr"))),
        dict(extras=((["k"], "v"),)),
        dict(payload=None),
        dict(label=nested(100_000)),
        dict(label=looped()),
    ],
)
def test_encode_refuses_what_decode_cannot_give_back(fields):
    with pytest.raises(WireError):
        encode_message(make(**{"label": "L", **fields}))


def shape(message):
    """A message's fields, each beside its exact type, payload values included."""
    heads = (message.kind, message.cid, message.sender, message.receiver, message.label)
    return (
        type(message),
        [(type(value), value) for value in heads],
        [(type(name), name, type(value), value) for name, value in message.payload],
        [(type(key), key, type(value), value) for key, value in message.extras],
    )


def wide(message):
    """Whether a payload value is an int wider than is_plain admits."""
    return any(
        type(value) is int and value.bit_length() > 2000
        for _, value in message.payload
    )


# Ints on both sides of 2000 bits and of 640 digits (about 2126 bits).
wide_ints = st.integers(1995, 2140).flatmap(
    lambda bits: st.sampled_from([2**bits - 1, 2**bits, -(2**bits)])
)
subclassed = wire_text.map(Text) | st.just(Flavour.PLAIN)
odd_texts = mostly(wire_text, subclassed | anything)
odd_entries = st.tuples(
    mostly(st.sampled_from(["x", "y"]) | wire_text, subclassed | anything),
    mostly(wire_values, wide_ints | subclassed | anything),
)
# Two or more extras are sorted at construction, so a str subclass is the one
# odd type they can hold.
odd_extras = mostly(
    st.lists(
        st.tuples(
            mostly(st.sampled_from([X_ROLE, X_PRINCIPAL]) | wire_text, wire_text.map(Text)),
            mostly(wire_text, wire_text.map(Text)),
        ),
        max_size=3,
    ).map(tuple),
    st.tuples(anything | st.tuples(anything, anything)),
)


@st.composite
def odd_messages(draw):
    """Messages that are mostly well formed and sometimes malformed anywhere."""
    cls = draw(mostly(st.just(ConversationMessage), st.just(Message)))
    message = cls(
        kind=draw(mostly(st.sampled_from([IN_SESSION, INVITATION]), subclassed | wire_text)),
        cid=draw(odd_texts),
        sender=draw(odd_texts),
        receiver=draw(odd_texts),
        label=draw(odd_texts),
        payload=draw(
            mostly(
                st.lists(mostly(odd_entries), max_size=3).map(tuple),
                st.lists(odd_entries, max_size=2) | anything,
            )
        ),
        extras=draw(odd_extras),
    )
    if len(message.extras) > 1 and draw(mostly(st.just(False), st.just(True))):
        # Out of key order, as only going around the constructor can make it.
        object.__setattr__(message, "extras", message.extras[::-1])
    return message


def check_plain_is_exact(message):
    """``is_plain`` holds exactly when the round trip gives ``message`` back
    type for type, except that an int wider than 2000 bits is never plain."""
    try:
        wire = encode_message(message)
    except WireError:
        assert not is_plain(message)
        return
    exact = shape(decode_message(wire)) == shape(message)
    if is_plain(message):
        assert exact
    else:
        assert not exact or wide(message)


@settings(max_examples=500)
@given(odd_messages())
def test_plain_exactly_when_the_round_trip_is_exact(message):
    check_plain_is_exact(message)


@pytest.mark.skipif(
    not hasattr(sys, "set_int_max_str_digits"), reason="no limit on int digits"
)
@given(odd_messages(), wide_ints)
def test_plain_ints_read_back_under_the_lowest_digit_limit(message, value):
    # 640 is the lowest limit int() allows; every plain int still spells
    # and reads back, and a wider one that does not is refused by encode
    wider = ConversationMessage(IN_SESSION, "c1", "A", "B", "L", (("x", value),))
    digits = len(str(abs(value)))
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        check_plain_is_exact(message)
        check_plain_is_exact(wider)
        assert is_plain(wider) == (value.bit_length() <= 2000)
        if digits > 640:
            with pytest.raises(WireError):
                encode_message(wider)
    finally:
        sys.set_int_max_str_digits(limit)


def test_a_message_is_built_every_way_and_survives_pickle_and_copy():
    # the hand-written constructor takes what the generated one took, and a
    # message, or a subclass adding no slots, comes back equal, type for type
    values = (INVITATION, "c1", "A", "B", "L", (("n", 7), ("b", b"\x00")), (("z", "1"), ("a", "2")))
    names = [field.name for field in fields(ConversationMessage)]
    positional = ConversationMessage(*values)
    assert positional == ConversationMessage(**dict(zip(names, values)))
    assert positional.extras == (("a", "2"), ("z", "1"))
    assert [getattr(positional, name) for name in names[:6]] == list(values[:6])
    bare = ConversationMessage(IN_SESSION, "c1", "A", "B")
    assert (bare.label, bare.payload, bare.extras) == ("", (), ())
    with pytest.raises(TypeError):
        ConversationMessage(IN_SESSION, "c1", "A")
    with pytest.raises(TypeError):
        ConversationMessage(IN_SESSION, "c1", "A", "B", flavour="x")
    sub = Message(*values)
    assert sub.extras == positional.extras and not hasattr(sub, "__dict__")
    assert repr(sub).startswith("Message(kind='invitation'")
    with pytest.raises(FrozenInstanceError):
        sub.label = "Q"
    for message in (positional, sub):
        copies = [copy.copy(message), copy.deepcopy(message)] + [
            pickle.loads(pickle.dumps(message, protocol))
            for protocol in range(pickle.HIGHEST_PROTOCOL + 1)
        ]
        for again in copies:
            assert type(again) is type(message)
            assert again == message and hash(again) == hash(message)
            assert shape(again) == shape(message)


def test_extras_are_sorted_whatever_they_are_given_as():
    pairs = [("b", "2"), ("c", "3"), ("a", "1")]
    want = (("a", "1"), ("b", "2"), ("c", "3"))
    for extras in (pairs, tuple(pairs), iter(pairs), dict(pairs).items()):
        got = make(extras=extras).extras
        assert type(got) is tuple and got == want
    lone = (("k", "v"),)
    assert make(extras=lone).extras is lone  # a lone pair is in order already
    assert make(extras=[("k", "v")]).extras == lone


def inline_is_plain(message) -> bool:
    """``is_plain`` as it was written before its payload rule moved into
    ``plain_payload``: the oracle for both."""
    if not (
        type(message) is ConversationMessage
        and type(message.kind) is str
        and message.kind in (IN_SESSION, INVITATION)
        and type(message.cid) is str
        and type(message.sender) is str
        and type(message.receiver) is str
        and type(message.label) is str
        and type(message.payload) is tuple
    ):
        return False
    names = set()
    for entry in message.payload:
        if type(entry) is not tuple or len(entry) != 2:
            return False
        name, value = entry
        if type(name) is not str or name in names or type(value) not in (str, int, bool, bytes):
            return False
        if type(value) is int and value.bit_length() > 2000:
            return False
        names.add(name)
    extras = message.extras
    if type(extras) is not tuple:
        return False
    last = None
    for entry in extras:
        if type(entry) is not tuple or len(entry) != 2:
            return False
        key, value = entry
        if type(key) is not str or type(value) is not str:
            return False
        if last is not None and key <= last:
            return False
        last = key
    return True


@settings(max_examples=500)
@given(odd_messages(), wide_ints)
def test_is_plain_and_plain_payload_keep_the_inline_rule(message, value):
    assert is_plain(message) == inline_is_plain(message)
    payloads = [message.payload, (("x", value),)]
    if type(message.payload) is tuple:
        payloads.append(message.payload + (("w", value),))
    for payload in payloads:
        head = ConversationMessage(IN_SESSION, "c1", "A", "B", "L", payload)
        assert plain_payload(payload) == inline_is_plain(head)


CONFIG = """\
invitations:
  - role: U
    principal name: alice
    local capability: DataAquisition_U.scr
  - role: A
    principal name: bob
    local capability: DataAquisition_A.scr
  - role: I
    principal name: bob
    local capability: DataAquisition_I.scr
"""


def test_parse_invitation_config():
    config = parse_invitation_config(CONFIG)
    assert isinstance(config, InvitationConfig)
    assert config.roles() == {"U", "A", "I"}
    assert config.entries[1] == InvitationEntry("A", "bob", "DataAquisition_A.scr")
    assert [e.principal for e in config.entries] == ["alice", "bob", "bob"]


def test_underscore_key_variants_accepted():
    config = parse_invitation_config(
        "invitations:\n"
        "  - role: U\n"
        "    principal_name: alice\n"
        "    local_capability: P_U.scr\n"
    )
    assert config.entries == (InvitationEntry("U", "alice", "P_U.scr"),)


@pytest.mark.parametrize(
    "text",
    [
        "invitations: [",
        "roles: []",
        "invitations: {}",
        "invitations: []",
        "invitations:\n  - just a string\n",
        "invitations:\n  - role: U\n    principal name: alice\n",
        "invitations:\n  - principal name: alice\n    local capability: x\n",
        CONFIG + "  - role: U\n    principal name: eve\n    local capability: x\n",
    ],
)
def test_bad_configs_rejected(text):
    with pytest.raises(IncompleteConfig):
        parse_invitation_config(text)


def test_load_invitation_config(tmp_path):
    path = tmp_path / "inv.yml"
    path.write_text(CONFIG)
    assert load_invitation_config(str(path)).roles() == {"U", "A", "I"}
