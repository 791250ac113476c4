"""Projection of global protocols onto per-role local protocols.

Each global interaction becomes a Send at its sender, a Receive at its
receiver, and disappears at every other role (assertions travel to both
surviving sides and are dropped with erased messages). Structure is kept
as-is except where erasure makes it meaningless:

- choice branches that project to the same local tree are merged (a choice
  collapses entirely when one branch shape remains);
- a recursion whose projected body has no messages and no continue is
  dropped;
- parallel branches that project to End are dropped, and the parallel itself
  unwraps when at most one branch survives.

A kept choice at a role other than the decider is well-directed only when
every branch starts by receiving a distinct message; otherwise the projection
is still produced but flagged with a ``non-directed-choice`` warning, and the
FSM compiler has the final say on whether the result is monitorable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from .protocol import (
    END,
    Choice,
    Continue,
    End,
    GlobalProtocol,
    Interaction,
    LocalProtocol,
    Parallel,
    Rec,
    Receive,
    Send,
    UNDECLARED_ROLE,
    ValidationError,
)

NON_DIRECTED_CHOICE = "non-directed-choice"


@dataclass(frozen=True)
class ProjectionWarning:
    kind: str
    location: str


@dataclass
class ProjectionReport:
    role: str
    protocol: LocalProtocol
    warnings: list = field(default_factory=list)


def project(protocol: GlobalProtocol, role: str) -> ProjectionReport:
    """Project one role's view; raises ValidationError for unknown roles."""
    if role not in protocol.roles:
        raise ValidationError(
            UNDECLARED_ROLE, protocol.name, f"cannot project onto unknown role {role}"
        )
    report = ProjectionReport(role, None)
    body = _project(protocol.body, role, report, protocol.name)
    report.protocol = LocalProtocol(protocol.name, role, protocol.roles, body)
    return report


def project_all(protocol: GlobalProtocol) -> Dict[str, ProjectionReport]:
    return {role: project(protocol, role) for role in protocol.roles}


def _project(node, role, report, loc):
    if isinstance(node, End):
        return END

    if isinstance(node, Interaction):
        cont = _project(node.cont, role, report, loc)
        if node.src == role:
            return Send(node.sig, node.dst, cont, node.assertion)
        if node.dst == role:
            return Receive(node.sig, node.src, cont, node.assertion)
        return cont

    if isinstance(node, Choice):
        here = f"{loc} > choice at {node.at}"
        projected = []
        for branch in (_project(b, role, report, here) for b in node.branches):
            if branch not in projected:
                projected.append(branch)
        if len(projected) == 1:
            return projected[0]
        if role != node.at and not _is_directed(projected):
            report.warnings.append(ProjectionWarning(NON_DIRECTED_CHOICE, here))
        return Choice(node.at, tuple(projected))

    if isinstance(node, Rec):
        body = _project(node.body, role, report, f"{loc} > rec {node.var}")
        free = _continue_vars(body)
        if node.var not in free:
            return body  # binder unused after erasure; outer continues survive
        if not _has_message(body) and free <= {node.var}:
            return END  # the loop carries nothing this role can observe
        return Rec(node.var, body)

    if isinstance(node, Continue):
        return Continue(node.var)

    if isinstance(node, Parallel):
        here = f"{loc} > parallel"
        branches = [
            p for p in (_project(b, role, report, here) for b in node.branches)
            if not isinstance(p, End)
        ]
        cont = _project(node.cont, role, report, here)
        if not branches:
            return cont
        if len(branches) == 1 and isinstance(cont, End):
            return branches[0]
        return Parallel(tuple(branches), cont)

    raise TypeError(f"cannot project node {type(node).__name__}")


def _has_message(node) -> bool:
    if isinstance(node, (Send, Receive)):
        return True
    if isinstance(node, Choice):
        return any(_has_message(b) for b in node.branches)
    if isinstance(node, Rec):
        return _has_message(node.body)
    if isinstance(node, Parallel):
        return any(_has_message(b) for b in node.branches) or _has_message(node.cont)
    return False


def _continue_vars(node) -> set:
    """Free recursion variables continued anywhere in the subtree."""
    if isinstance(node, Continue):
        return {node.var}
    if isinstance(node, (Send, Receive)):
        return _continue_vars(node.cont)
    if isinstance(node, Choice):
        out = set()
        for branch in node.branches:
            out |= _continue_vars(branch)
        return out
    if isinstance(node, Rec):
        return _continue_vars(node.body) - {node.var}
    if isinstance(node, Parallel):
        out = _continue_vars(node.cont)
        for branch in node.branches:
            out |= _continue_vars(branch)
        return out
    return set()


def _is_directed(branches) -> bool:
    """Can a passive role tell the branches apart by its first receive?"""
    seen = set()
    for branch in branches:
        firsts = _first_actions(branch, frozenset())
        if not firsts:
            return False
        for kind, label, peer in firsts:
            if kind != "receive":
                return False
            if (label, peer) in seen:
                return False
            seen.add((label, peer))
    return True


def _first_actions(node, visiting: frozenset) -> set:
    """The set of first communications a subtree can perform."""
    if isinstance(node, Send):
        return {("send", node.sig.label, node.dst)}
    if isinstance(node, Receive):
        return {("receive", node.sig.label, node.src)}
    if isinstance(node, Choice):
        out = set()
        for branch in node.branches:
            out |= _first_actions(branch, visiting)
        return out
    if isinstance(node, Rec):
        if node.var in visiting:
            return set()
        return _first_actions(node.body, visiting | {node.var})
    if isinstance(node, Continue):
        return set()  # loops back; contributes nothing new at this point
    if isinstance(node, Parallel):
        out = set()
        for branch in node.branches:
            out |= _first_actions(branch, visiting)
        if not out:
            out = _first_actions(node.cont, visiting)
        return out
    return set()
