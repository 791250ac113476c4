"""Conversation messages, their JSON wire form, and invitation configs.

Every message crossing the broker is a JSON object with the fields ``kind``
(invitation or in_session), ``cid``, ``from``, ``to``, ``label``, ``payload``
and ``extras``. Payload entries carry a name, a type tag (string, int, bool,
bytes) and a value; bytes travel base64-encoded. ``extras`` is a flat
string-to-string map used for invitation attributes. The mediation audit
tags are not part of the body: mediators stamp them as broker headers.

``decode_message`` is total: any bytes yield a message or raise
``WireError``, and any value that is not bytes raises ``WireError``.
"""

from __future__ import annotations

import json
from base64 import b64decode, b64encode
from dataclasses import dataclass, replace
from typing import Dict, Optional, Tuple

import yaml

INVITATION = "invitation"
IN_SESSION = "in_session"

# extras keys
X_ROLE = "role"
X_PRINCIPAL = "principal"
X_PROTOCOL_REF = "protocol_ref"
X_MEDIATED_OUT = "mediated_out"
X_MEDIATED_IN = "mediated_in"


class TransportError(Exception):
    pass


class WireError(TransportError):
    """Malformed bytes on the wire."""


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


@dataclass(frozen=True)
class ConversationMessage:
    kind: str
    cid: str
    sender: str
    receiver: str
    label: str = ""
    payload: tuple = ()  # ((name, value), ...) with str/int/bool/bytes values
    extras: tuple = ()  # ((key, value), ...) with str values

    def __post_init__(self):
        # extras is a map; key order must not affect equality or the wire form
        object.__setattr__(self, "extras", tuple(sorted(self.extras)))

    def extras_dict(self) -> Dict[str, str]:
        return dict(self.extras)

    def extra(self, key: str, default: Optional[str] = None) -> Optional[str]:
        for k, v in self.extras:
            if k == key:
                return v
        return default

    def with_extras(self, **kv: str) -> "ConversationMessage":
        merged = dict(self.extras)
        merged.update(kv)
        return replace(self, extras=tuple(merged.items()))

    def payload_dict(self) -> Dict[str, object]:
        return dict(self.payload)


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


def _tag_of(value) -> str:
    # bool before int: bool is an int subclass.
    if isinstance(value, bool):
        return "bool"
    if isinstance(value, int):
        return "int"
    if isinstance(value, str):
        return "string"
    if isinstance(value, bytes):
        return "bytes"
    raise WireError(f"unsupported payload type {type(value).__name__}")


def encode_message(message: ConversationMessage) -> bytes:
    payload = []
    for name, value in message.payload:
        tag = _tag_of(value)
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


def decode_message(data: bytes) -> ConversationMessage:
    if not isinstance(data, (bytes, bytearray)):
        raise WireError(f"body is {type(data).__name__}, not bytes")
    # ValueError covers bad UTF-8, bad JSON and integers with more digits
    # than int() converts; RecursionError covers too deeply nested JSON.
    try:
        doc = json.loads(data.decode("utf-8"))
    except (ValueError, RecursionError) as exc:
        raise WireError(f"undecodable message: {exc}") from None
    if not isinstance(doc, dict):
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
    if kind not in (INVITATION, IN_SESSION):
        raise WireError(f"unknown message kind {kind!r}")
    for field, value in (("cid", cid), ("from", sender), ("to", receiver), ("label", label)):
        if not isinstance(value, str):
            raise WireError(f"field {field!r} is not a string")
    if not isinstance(raw_payload, list):
        raise WireError("payload is not a list")
    payload = []
    names = set()
    for entry in raw_payload:
        if not isinstance(entry, dict):
            raise WireError("payload entry is not an object")
        try:
            name, tag, value = entry["name"], entry["type"], entry["value"]
        except KeyError as exc:
            raise WireError(f"payload entry lacks {exc.args[0]!r}") from None
        if not isinstance(name, str):
            raise WireError("payload field name is not a string")
        if name in names:
            raise WireError(f"payload field {name!r} appears twice")
        names.add(name)
        if tag == "bytes":
            try:
                value = b64decode(value, validate=True)
            except Exception:
                raise WireError(f"field {name!r} carries invalid base64") from None
        elif tag == "int":
            if isinstance(value, bool) or not isinstance(value, int):
                raise WireError(f"field {name!r} is not an int")
        elif tag == "bool":
            if not isinstance(value, bool):
                raise WireError(f"field {name!r} is not a bool")
        elif tag == "string":
            if not isinstance(value, str):
                raise WireError(f"field {name!r} is not a string")
        else:
            raise WireError(f"field {name!r} has unknown type tag {tag!r}")
        payload.append((name, value))
    if not isinstance(extras, dict) or not all(
        isinstance(k, str) and isinstance(v, str) for k, v in extras.items()
    ):
        raise WireError("extras must map strings to strings")
    return ConversationMessage(
        kind=kind,
        cid=cid,
        sender=sender,
        receiver=receiver,
        label=label,
        payload=tuple(payload),
        extras=tuple(extras.items()),
    )


# --- Invitation configuration -------------------------------------------------


@dataclass(frozen=True)
class InvitationEntry:
    role: str
    principal: str
    capability: str  # local protocol reference handed to the role's monitor


@dataclass(frozen=True)
class InvitationConfig:
    entries: Tuple[InvitationEntry, ...]

    def entry_for_role(self, role: str) -> Optional[InvitationEntry]:
        for entry in self.entries:
            if entry.role == role:
                return entry
        return None

    def entries_for_principal(self, principal: str) -> list:
        return [e for e in self.entries if e.principal == principal]

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
