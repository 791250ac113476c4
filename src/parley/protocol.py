"""Protocol syntax trees and well-formedness checks.

A global protocol describes a conversation among all roles; a local protocol
describes one role's view of it. Structural nodes (choice, recursion,
parallel, end) are shared between the two; only the communication nodes
differ (Interaction globally, Send/Receive locally).

All nodes are immutable and hashable, so trees can be compared structurally
and used as dictionary keys.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from .predicates import CompiledPredicate

SORTS = ("string", "int", "bool", "data")

# Validation kinds.
DUPLICATE_ROLE = "duplicate-role"
UNDECLARED_ROLE = "undeclared-role"
UNBOUND_RECURSION = "unbound-recursion"
LABEL_CLASH = "label-clash"
UNDIRECTED_CHOICE = "undirected-choice"
SELF_MESSAGE = "self-message"
UNBOUND_ASSERTION = "unbound-assertion"


class ValidationError(Exception):
    """A structurally ill-formed protocol.

    ``kind`` is one of the module-level kind constants; ``location`` is a
    human-readable path into the tree.
    """

    def __init__(self, kind: str, location: str, detail: str):
        super().__init__(f"{kind} at {location}: {detail}")
        self.kind = kind
        self.location = location
        self.detail = detail


@dataclass(frozen=True)
class PayloadField:
    name: str
    sort: str

    def __post_init__(self):
        if self.sort not in SORTS:
            raise ValueError(f"unknown payload sort {self.sort!r}")


@dataclass(frozen=True)
class MessageSignature:
    label: str
    payload: tuple = ()  # of PayloadField


@dataclass(frozen=True)
class End:
    pass


END = End()


@dataclass(frozen=True)
class Interaction:
    """A message from ``src`` to ``dst``, then ``cont``. Global protocols only."""

    sig: MessageSignature
    src: str
    dst: str
    cont: "GlobalNode" = END
    assertion: Optional[CompiledPredicate] = None


@dataclass(frozen=True)
class Send:
    """A message this role sends to ``dst``. Local protocols only."""

    sig: MessageSignature
    dst: str
    cont: "LocalNode" = END
    assertion: Optional[CompiledPredicate] = None


@dataclass(frozen=True)
class Receive:
    """A message this role receives from ``src``. Local protocols only."""

    sig: MessageSignature
    src: str
    cont: "LocalNode" = END
    assertion: Optional[CompiledPredicate] = None


@dataclass(frozen=True)
class Choice:
    """Branching decided by role ``at``; exactly one branch runs."""

    at: str
    branches: tuple  # nonempty, of nodes


@dataclass(frozen=True)
class Rec:
    var: str
    body: "Node"


@dataclass(frozen=True)
class Continue:
    var: str


@dataclass(frozen=True)
class Parallel:
    """Branches run concurrently; ``cont`` runs after all of them finish."""

    branches: tuple  # nonempty, of nodes
    cont: "Node" = END


GlobalNode = Union[Interaction, Choice, Rec, Continue, Parallel, End]
LocalNode = Union[Send, Receive, Choice, Rec, Continue, Parallel, End]
Node = Union[GlobalNode, LocalNode]


@dataclass(frozen=True)
class GlobalProtocol:
    name: str
    roles: tuple  # of role names, declaration order
    body: GlobalNode


@dataclass(frozen=True)
class LocalProtocol:
    name: str
    self_role: str
    roles: tuple
    body: LocalNode


def message_triples(node: Node) -> set:
    """All (label, sender, receiver) triples in a subtree.

    For local nodes the missing side is the protocol's own role, which the
    caller does not always know here; local callers use
    :func:`local_message_triples` instead.
    """
    out = set()
    _collect_triples(node, None, out)
    return out


def local_message_triples(node: LocalNode, self_role: str) -> set:
    out = set()
    _collect_triples(node, self_role, out)
    return out


def _collect_triples(node: Node, self_role: Optional[str], out: set) -> None:
    if isinstance(node, Interaction):
        out.add((node.sig.label, node.src, node.dst))
        _collect_triples(node.cont, self_role, out)
    elif isinstance(node, Send):
        out.add((node.sig.label, self_role, node.dst))
        _collect_triples(node.cont, self_role, out)
    elif isinstance(node, Receive):
        out.add((node.sig.label, node.src, self_role))
        _collect_triples(node.cont, self_role, out)
    elif isinstance(node, Choice):
        for branch in node.branches:
            _collect_triples(branch, self_role, out)
    elif isinstance(node, Rec):
        _collect_triples(node.body, self_role, out)
    elif isinstance(node, Parallel):
        for branch in node.branches:
            _collect_triples(branch, self_role, out)
        _collect_triples(node.cont, self_role, out)


def count_nodes(node: Node) -> int:
    """Number of AST nodes in a subtree (every node counts, End included)."""
    if isinstance(node, (Interaction, Send, Receive)):
        return 1 + count_nodes(node.cont)
    if isinstance(node, Choice):
        return 1 + sum(count_nodes(b) for b in node.branches)
    if isinstance(node, Rec):
        return 1 + count_nodes(node.body)
    if isinstance(node, Parallel):
        return 1 + sum(count_nodes(b) for b in node.branches) + count_nodes(node.cont)
    return 1  # End, Continue


def _check_roles_decl(roles: tuple, location: str) -> None:
    if not roles:
        raise ValidationError(UNDECLARED_ROLE, location, "no roles declared")
    seen = set()
    for role in roles:
        if role in seen:
            raise ValidationError(DUPLICATE_ROLE, location, f"role {role} declared twice")
        seen.add(role)


@dataclass
class _Scope:
    """Traversal state threaded through validation."""

    roles: frozenset
    rec_vars: frozenset = frozenset()
    binders: frozenset = frozenset()  # payload names bound on the path so far
    self_role: Optional[str] = None  # set for local protocols


def validate_global(protocol: GlobalProtocol) -> None:
    """Raise ValidationError on the first problem found."""
    _check_roles_decl(protocol.roles, protocol.name)
    scope = _Scope(roles=frozenset(protocol.roles))
    _validate(protocol.body, scope, protocol.name, is_global=True)


def validate_local(protocol: LocalProtocol) -> None:
    _check_roles_decl(protocol.roles, protocol.name)
    if protocol.self_role not in protocol.roles:
        raise ValidationError(
            UNDECLARED_ROLE, protocol.name, f"own role {protocol.self_role} not declared"
        )
    scope = _Scope(roles=frozenset(protocol.roles), self_role=protocol.self_role)
    _validate(protocol.body, scope, protocol.name, is_global=False)


def _validate(node: Node, scope: _Scope, loc: str, is_global: bool) -> Optional[frozenset]:
    """Walk a subtree checking structure.

    Returns the payload names certain to be bound when the subtree falls
    through to whatever follows it, or None when no path falls through
    (every path loops via a continue).
    """
    if isinstance(node, End):
        return scope.binders

    if isinstance(node, (Interaction, Send, Receive)):
        if isinstance(node, Interaction):
            if not is_global:
                raise ValidationError(UNDECLARED_ROLE, loc, "interaction in a local protocol")
            sender, receiver = node.src, node.dst
        elif isinstance(node, Send):
            sender, receiver = scope.self_role, node.dst
        else:
            sender, receiver = node.src, scope.self_role
        here = f"{loc} > {node.sig.label}"
        for role in (sender, receiver):
            if role not in scope.roles:
                raise ValidationError(UNDECLARED_ROLE, here, f"role {role} not declared")
        if sender == receiver:
            raise ValidationError(SELF_MESSAGE, here, f"{sender} messages itself")
        new_binders = scope.binders | {f.name for f in node.sig.payload}
        if node.assertion is not None:
            unbound = node.assertion.free_vars - new_binders
            if unbound:
                raise ValidationError(
                    UNBOUND_ASSERTION,
                    here,
                    f"assertion uses unbound {sorted(unbound)}",
                )
        inner = _Scope(scope.roles, scope.rec_vars, new_binders, scope.self_role)
        return _validate(node.cont, inner, here, is_global)

    if isinstance(node, Choice):
        here = f"{loc} > choice at {node.at}"
        if node.at not in scope.roles:
            raise ValidationError(UNDECLARED_ROLE, here, f"role {node.at} not declared")
        if not node.branches:
            raise ValidationError(LABEL_CLASH, here, "choice with no branches")
        if is_global:
            _check_global_choice_heads(node, here)
        elif node.at == scope.self_role:
            _check_local_choice_heads(node, scope.self_role, here)
        exit_binders = None
        for i, branch in enumerate(node.branches):
            out = _validate(branch, scope, f"{here} > branch {i + 1}", is_global)
            if out is not None:
                exit_binders = out if exit_binders is None else exit_binders & out
        return exit_binders

    if isinstance(node, Rec):
        here = f"{loc} > rec {node.var}"
        inner = _Scope(
            scope.roles, scope.rec_vars | {node.var}, scope.binders, scope.self_role
        )
        return _validate(node.body, inner, here, is_global)

    if isinstance(node, Continue):
        if node.var not in scope.rec_vars:
            raise ValidationError(
                UNBOUND_RECURSION, loc, f"continue {node.var} has no enclosing rec"
            )
        return None  # a continue never falls through

    if isinstance(node, Parallel):
        here = f"{loc} > parallel"
        if not node.branches:
            raise ValidationError(LABEL_CLASH, here, "parallel with no branches")
        # Branches may not continue a recursion begun outside the parallel.
        branch_scope = _Scope(scope.roles, frozenset(), scope.binders, scope.self_role)
        seen_triples = []
        exit_binders = scope.binders
        for i, branch in enumerate(node.branches):
            bloc = f"{here} > branch {i + 1}"
            out = _validate(branch, branch_scope, bloc, is_global)
            if out is not None:
                exit_binders |= out
            if is_global:
                triples = message_triples(branch)
            else:
                triples = local_message_triples(branch, scope.self_role)
            for j, earlier in enumerate(seen_triples):
                clash = earlier & triples
                if clash:
                    raise ValidationError(
                        LABEL_CLASH,
                        bloc,
                        f"reuses {sorted(clash)[0]} from branch {j + 1}",
                    )
            seen_triples.append(triples)
        cont_scope = _Scope(scope.roles, scope.rec_vars, exit_binders, scope.self_role)
        return _validate(node.cont, cont_scope, here, is_global)

    raise ValidationError(UNDECLARED_ROLE, loc, f"unexpected node {type(node).__name__}")


def _check_global_choice_heads(node: Choice, loc: str) -> None:
    heads = []
    for i, branch in enumerate(node.branches):
        bloc = f"{loc} > branch {i + 1}"
        if not isinstance(branch, Interaction):
            raise ValidationError(
                UNDIRECTED_CHOICE, bloc, "branch does not begin with a message"
            )
        if branch.src != node.at:
            raise ValidationError(
                UNDIRECTED_CHOICE,
                bloc,
                f"first message is sent by {branch.src}, not by {node.at}",
            )
        head = (branch.sig.label, branch.src, branch.dst)
        if head in heads:
            raise ValidationError(LABEL_CLASH, bloc, f"duplicate branch head {head}")
        heads.append(head)


def _check_local_choice_heads(node: Choice, self_role: str, loc: str) -> None:
    # Only branches that begin directly with a communication are comparable;
    # projection can legitimately leave other shapes at non-deciding roles.
    heads = []
    for i, branch in enumerate(node.branches):
        if isinstance(branch, Send):
            head = (branch.sig.label, self_role, branch.dst)
        elif isinstance(branch, Receive):
            head = (branch.sig.label, branch.src, self_role)
        else:
            continue
        if head in heads:
            raise ValidationError(
                LABEL_CLASH, f"{loc} > branch {i + 1}", f"duplicate branch head {head}"
            )
        heads.append(head)
