"""Conversation messages, their JSON wire form, and invitation configs.

Every message crossing the broker is a JSON object with the fields ``kind``
(invitation or in_session), ``cid``, ``from``, ``to``, ``label``, ``payload``
and ``extras``. Payload entries carry a name, a type tag (string, int, bool,
bytes) and a value; bytes travel base64-encoded. ``extras`` is a flat
string-to-string map used for invitation attributes. The mediation audit
tags are not part of the body: mediators stamp them as broker headers.

``encode_message`` writes ``json.dumps(doc, sort_keys=True,
separators=(",", ":"))`` of that object, and lets ``decode_message`` judge
it: a message whose bytes do not decode back to the same seven fields,
field for field, is refused with ``WireError``, as is one ``json`` cannot
write. So ``decode_message(encode_message(m))`` equals ``m`` field for field
for every ``m`` that encodes; it is an exact ``ConversationMessage`` even if
``m`` is a subclass.

``decode_message`` is total: any bytes yield a message or raise
``WireError``, and any value that is not bytes raises ``WireError``. It
accepts any JSON spelling of a message, not only the one ``encode_message``
writes.

A message that ``is_plain`` admits, exactly one that encodes and decodes
back equal type for type, crosses the broker as the object itself, which is
immutable all through, so sender and receiver may share it. The runtime's
own hops carry only message objects: one that is not plain is replaced, at
its first hop, by what its bytes decode to, so a receiver always gets what
decoding the bytes would give. Bytes come only from outside the runtime.
``plain_payload`` is the payload half of that rule, written once:
``is_plain`` calls it, and so does a sender that built the rest of its
message from fields it knows to be exact ``str``.

``ConversationMessage`` is a frozen slots dataclass whose ``__init__`` is
written out to build a message in one pass: it sorts the extras, then sets
each of the seven slots through the slot's own descriptor setter, bound once
at module level. Equality, hashing, ``repr``, ``dataclasses.replace``,
pickling and ``FrozenInstanceError`` on assignment stay the dataclass's own,
and fields are read through the slot descriptors.
"""

from __future__ import annotations

import json
from base64 import b64decode, b64encode
from dataclasses import dataclass
from typing import Dict, Optional, Tuple


INVITATION = "invitation"
IN_SESSION = "in_session"
_KINDS = (INVITATION, IN_SESSION)

# extras keys
X_ROLE = "role"
X_PRINCIPAL = "principal"
X_PROTOCOL_REF = "protocol_ref"
X_MEDIATED_OUT = "mediated_out"
X_MEDIATED_IN = "mediated_in"


class TransportError(Exception):
    pass


class WireError(TransportError):
    """Malformed bytes on the wire, or a message that cannot be put there."""


class IncompleteConfig(TransportError):
    """An invitation config does not cover the protocol's roles."""


class UnknownProtocol(TransportError):
    pass


class Timeout(TransportError):
    pass


class RoleMismatch(TransportError):
    pass


class NotJoined(TransportError):
    pass


class UnknownPeerRole(TransportError):
    pass


class SessionEnded(TransportError):
    pass


class DuplicateRegistration(TransportError):
    pass


@dataclass(frozen=True, slots=True, init=False)
class ConversationMessage:
    kind: str
    cid: str
    sender: str
    receiver: str
    label: str = ""
    payload: tuple = ()  # ((name, value), ...) with str/int/bool/bytes values
    extras: tuple = ()  # ((key, value), ...) with str values

    def __init__(self, kind, cid, sender, receiver, label="", payload=(), extras=()):
        # extras is a map; key order must not affect equality or the wire form
        if type(extras) is not tuple or len(extras) > 1:
            extras = tuple(sorted(extras))
        _set_kind(self, kind)
        _set_cid(self, cid)
        _set_sender(self, sender)
        _set_receiver(self, receiver)
        _set_label(self, label)
        _set_payload(self, payload)
        _set_extras(self, extras)

    def extra(self, key: str, default: Optional[str] = None) -> Optional[str]:
        for k, v in self.extras:
            if k == key:
                return v
        return default

    def payload_dict(self) -> Dict[str, object]:
        return dict(self.payload)


# Each slot's own setter, which the frozen class's __setattr__ does not stand
# in front of: one C call per field, with no lookup of the slot by name.
_set_kind = ConversationMessage.kind.__set__
_set_cid = ConversationMessage.cid.__set__
_set_sender = ConversationMessage.sender.__set__
_set_receiver = ConversationMessage.receiver.__set__
_set_label = ConversationMessage.label.__set__
_set_payload = ConversationMessage.payload.__set__
_set_extras = ConversationMessage.extras.__set__


def payload_from_dict(values: Optional[Dict[str, object]]) -> tuple:
    if not values:
        return ()
    out = []
    for name, value in values.items():
        _check_payload_value(name, value)
        out.append((name, value))
    return tuple(out)


def _check_payload_value(name: str, value) -> None:
    if isinstance(value, (bool, int, str, bytes)):
        return
    raise WireError(f"payload field {name!r} has unsupported type {type(value).__name__}")


# json.loads with no options calls this same method, after a check that
# only changes the message of one error.
_decode_json = json.JSONDecoder().decode


def _tagged(name, value) -> dict:
    # bool before int: bool is an int subclass.
    if isinstance(value, bool):
        tag = "bool"
    elif isinstance(value, int):
        tag = "int"
    elif isinstance(value, str):
        tag = "string"
    elif isinstance(value, bytes):
        tag, value = "bytes", b64encode(value).decode("ascii")
    else:
        raise WireError(f"payload field {name!r} has unsupported type {type(value).__name__}")
    return {"name": name, "type": tag, "value": value}


def encode_message(message: ConversationMessage) -> bytes:
    try:
        doc = {
            "kind": message.kind,
            "cid": message.cid,
            "from": message.sender,
            "to": message.receiver,
            "label": message.label,
            "payload": [_tagged(name, value) for name, value in message.payload],
            "extras": dict(message.extras),
        }
        data = json.dumps(doc, sort_keys=True, separators=(",", ":")).encode("ascii")
    except (TypeError, ValueError, RecursionError) as exc:
        raise WireError(f"unencodable message: {exc}") from None
    back = decode_message(data)
    for field in ("kind", "cid", "sender", "receiver", "label", "payload", "extras"):
        if getattr(back, field) != getattr(message, field):
            raise WireError(f"field {field!r} does not survive the wire")
    return data


def decode_message(data: bytes) -> ConversationMessage:
    if not isinstance(data, (bytes, bytearray)):
        raise WireError(f"body is {type(data).__name__}, not bytes")
    # ValueError covers bad UTF-8, bad JSON and integers with more digits
    # than int() converts; RecursionError covers too deeply nested JSON.
    try:
        doc = _decode_json(data.decode("utf-8"))
    except (ValueError, RecursionError) as exc:
        raise WireError(f"undecodable message: {exc}") from None
    # JSON decoding gives exact dict, list, str, int and bool types, so type()
    # identity checks below are isinstance checks that run faster.
    if type(doc) is not dict:
        raise WireError("message is not an object")
    try:
        kind = doc["kind"]
        cid = doc["cid"]
        sender = doc["from"]
        receiver = doc["to"]
        label = doc["label"]
        raw_payload = doc["payload"]
        extras = doc["extras"]
    except KeyError as exc:
        raise WireError(f"message lacks field {exc.args[0]!r}") from None
    if kind not in _KINDS:
        raise WireError(f"unknown message kind {kind!r}")
    for field, value in (("cid", cid), ("from", sender), ("to", receiver), ("label", label)):
        if type(value) is not str:
            raise WireError(f"field {field!r} is not a string")
    if type(raw_payload) is not list:
        raise WireError("payload is not a list")
    payload = ()
    if raw_payload:
        values = []
        names = set()
        for entry in raw_payload:
            if type(entry) is not dict:
                raise WireError("payload entry is not an object")
            try:
                name, tag, value = entry["name"], entry["type"], entry["value"]
            except KeyError as exc:
                raise WireError(f"payload entry lacks {exc.args[0]!r}") from None
            if type(name) is not str:
                raise WireError("payload field name is not a string")
            if name in names:
                raise WireError(f"payload field {name!r} appears twice")
            names.add(name)
            if tag == "bytes":
                try:
                    value = b64decode(value, validate=True)
                except (TypeError, ValueError):  # binascii.Error is a ValueError
                    raise WireError(f"field {name!r} carries invalid base64") from None
            elif tag == "int":
                if type(value) is not int:
                    raise WireError(f"field {name!r} is not an int")
            elif tag == "bool":
                if type(value) is not bool:
                    raise WireError(f"field {name!r} is not a bool")
            elif tag == "string":
                if type(value) is not str:
                    raise WireError(f"field {name!r} is not a string")
            else:
                raise WireError(f"field {name!r} has unknown type tag {tag!r}")
            values.append((name, value))
        payload = tuple(values)
    if type(extras) is not dict:
        raise WireError("extras must map strings to strings")
    pairs = ()
    if extras:
        pairs = tuple(extras.items())
        for key, value in pairs:
            if type(key) is not str or type(value) is not str:
                raise WireError("extras must map strings to strings")
    return ConversationMessage(kind, cid, sender, receiver, label, payload, pairs)


_PLAIN_VALUES = frozenset((str, int, bool, bytes))
# At most 603 digits, within the lowest limit int() may be set to convert
# (640), so a plain int always spells and reads back.
_PLAIN_INT_BITS = 2000


def plain_payload(payload) -> bool:
    """Whether ``payload`` travels as itself: a tuple of (name, value) pairs
    with distinct ``str`` names and ``str``, ``bool``, ``bytes`` or ``int``
    values, every type exact and no int over 2000 bits. This is the payload
    rule of ``is_plain``, for a caller that knows the rest of its message is
    plain."""
    if type(payload) is not tuple:
        return False
    if not payload:
        return True
    names = set()
    for entry in payload:
        if type(entry) is not tuple or len(entry) != 2:
            return False
        name, value = entry
        if type(name) is not str or name in names or type(value) not in _PLAIN_VALUES:
            return False
        if type(value) is int and value.bit_length() > _PLAIN_INT_BITS:
            return False
        names.add(name)
    return True


def is_plain(message) -> bool:
    """Whether ``encode_message(message)`` succeeds and ``decode_message``
    gives back an equal message type for type, so that it may travel as
    itself: an exact ``ConversationMessage`` of a known kind, with ``str``
    head fields, a payload that ``plain_payload`` admits, and (key, value)
    extras of ``str`` in key order, no key twice. Every type is exact, as a
    subclass decodes as its base. An int over 2000 bits is not plain; the
    encoder decides whether it travels.
    """
    if not (
        type(message) is ConversationMessage
        and type(message.kind) is str
        and message.kind in _KINDS
        and type(message.cid) is str
        and type(message.sender) is str
        and type(message.receiver) is str
        and type(message.label) is str
        and plain_payload(message.payload)
    ):
        return False
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


# --- Invitation configuration -------------------------------------------------


@dataclass(frozen=True)
class InvitationEntry:
    role: str
    principal: str
    capability: str  # local protocol reference handed to the role's monitor


@dataclass(frozen=True)
class InvitationConfig:
    entries: Tuple[InvitationEntry, ...]

    def roles(self) -> set:
        return {e.role for e in self.entries}


def parse_invitation_config(text: str) -> InvitationConfig:
    """Parse the YAML invitation block.

    Expected shape::

        invitations:
          - role: U
            principal name: alice
            local capability: DataAquisition_U.scr

    The spaced key spellings match the documented config block; underscore
    variants (principal_name, local_capability) are accepted too.
    """
    # Imported here, not with the module: only a YAML config needs it, and
    # it would add to the resident size of every process that imports parley.
    import yaml

    try:
        doc = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise IncompleteConfig(f"config is not valid YAML: {exc}") from None
    if not isinstance(doc, dict) or "invitations" not in doc:
        raise IncompleteConfig("config lacks an 'invitations' list")
    items = doc["invitations"]
    if not isinstance(items, list) or not items:
        raise IncompleteConfig("'invitations' must be a non-empty list")
    entries = []
    seen_roles = set()
    for i, item in enumerate(items):
        if not isinstance(item, dict):
            raise IncompleteConfig(f"invitation {i + 1} is not a mapping")
        role = item.get("role")
        principal = item.get("principal name", item.get("principal_name"))
        capability = item.get("local capability", item.get("local_capability"))
        if not role or not principal or not capability:
            raise IncompleteConfig(
                f"invitation {i + 1} needs role, principal name and local capability"
            )
        role, principal, capability = str(role), str(principal), str(capability)
        if role in seen_roles:
            raise IncompleteConfig(f"role {role} is invited twice")
        seen_roles.add(role)
        entries.append(InvitationEntry(role, principal, capability))
    return InvitationConfig(tuple(entries))


def load_invitation_config(path: str) -> InvitationConfig:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_invitation_config(handle.read())
