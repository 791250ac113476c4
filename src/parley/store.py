"""Named protocol storage shared by endpoints, monitors, and the CLI.

Globals are indexed by protocol name; locals by an opaque reference string
(conventionally ``<Protocol>_<Role>.scr``, the file name a projection is
written to).
"""

from __future__ import annotations

from typing import Dict

from .projection import project_all
from .protocol import GlobalProtocol, LocalProtocol
from .wire import UnknownProtocol


def local_ref(protocol_name: str, role: str) -> str:
    """The conventional reference for one role's view of a protocol."""
    return f"{protocol_name}_{role}.scr"


class ProtocolStore:
    def __init__(self):
        self._globals: Dict[str, GlobalProtocol] = {}
        self._locals: Dict[str, LocalProtocol] = {}

    def register_global(self, protocol: GlobalProtocol) -> None:
        self._globals[protocol.name] = protocol

    def register_local(self, ref: str, protocol: LocalProtocol) -> None:
        self._locals[ref] = protocol

    def register_projections(self, protocol: GlobalProtocol) -> Dict[str, str]:
        """Project and store every role's view; returns role -> reference."""
        self.register_global(protocol)
        refs = {}
        for role, report in project_all(protocol).items():
            ref = local_ref(protocol.name, role)
            self.register_local(ref, report.protocol)
            refs[role] = ref
        return refs

    def global_protocol(self, name: str) -> GlobalProtocol:
        found = self._globals.get(name)
        if found is None:
            raise UnknownProtocol(f"no global protocol named {name!r}")
        return found

    def local(self, ref: str) -> LocalProtocol:
        """Resolve a local-protocol reference; raises KeyError when unknown.

        KeyError (not UnknownProtocol) so the store can serve directly as a
        monitor resolver, which maps lookup failures to its own error.
        """
        return self._locals[ref]
