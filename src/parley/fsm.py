"""Compilation of local protocols to nested finite-state machines.

A local protocol becomes one FSM thread per concurrent region instead of one
flat product machine: the root thread follows the sequential spine, and every
``parallel`` block spawns one child thread per branch. A child is active only
while its parent's cursor sits on the spawn state; when every child of a
spawn state is on a terminal state, the parent moves past the join silently.
This keeps the state count linear in the protocol size while the equivalent
flat product (see :func:`product_oracle`) grows multiplicatively.

State ids are dense integers handed out in tree preorder, so compilation is
deterministic. Transitions are keyed by (state, label, sender, receiver) and
checked for determinism twice: keys collide only if their targets agree
exactly (projection can leave two branch spellings of the same step), and a
(label, sender, receiver) triple may appear in at most one thread, which is
what lets a monitor route an unordered message to the right thread without
trying them all.

A run of the machine is a cursor list plus the set of threads that have
fired. The stepper (:func:`transition`, :func:`enabled`, :func:`settle`,
with :func:`active_threads` and :func:`join_started`) is the only
interpreter of these nested semantics: the monitor checks each message with
it and :func:`trace_language` enumerates a nested machine's traces with it,
so checking those traces against :func:`product_oracle` checks the code the
runtime runs. The oracle and the flat-machine enumerator share none of it.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from .protocol import (
    Assertion,
    Choice,
    Continue,
    End,
    LocalProtocol,
    Parallel,
    Rec,
    Receive,
    Send,
    count_nodes,
)

class FsmError(Exception):
    pass


class CompileError(FsmError):
    pass


class NondeterminismError(CompileError):
    """Two transitions would leave the monitor unsure how to advance."""


class UnsupportedNesting(CompileError):
    """The construct has no faithful nested-FSM encoding."""


class EmptyRecursionError(CompileError):
    """A reachable non-terminal state has no way forward."""


class ExplosionGuard(FsmError):
    """The flat product construction exceeded its state budget."""


@dataclass(frozen=True)
class TransitionKey:
    state: int
    label: str
    sender: str
    receiver: str


@dataclass(frozen=True)
class TransitionValue:
    next_state: int
    assertion: Optional[Assertion]
    var_binders: tuple  # payload field names, in order


@dataclass(frozen=True)
class Join:
    children: tuple  # child thread ids
    next_state: int


@dataclass
class FsmThread:
    thread_id: int
    parent: Optional[int]  # parent thread id; None for the root
    spawn_state: Optional[int]  # parent state that activates this thread
    initial: int
    states: Set[int] = field(default_factory=set)
    transitions: Dict[TransitionKey, TransitionValue] = field(default_factory=dict)
    joins: Dict[int, Join] = field(default_factory=dict)
    by_state: Dict[int, tuple] = field(default_factory=dict)  # state -> keys


@dataclass
class NestedFsm:
    protocol_name: str
    self_role: str
    threads: List[FsmThread]
    terminal: frozenset
    triple_thread: Dict[tuple, int]  # (label, sender, receiver) -> thread id

    @property
    def initial(self) -> list:
        return [t.initial for t in self.threads]

    def state_count(self) -> int:
        return sum(len(t.states) for t in self.threads)


class _Compiler:
    def __init__(self, protocol: LocalProtocol):
        self.protocol = protocol
        self.threads: List[FsmThread] = []
        self.terminal: Set[int] = set()
        self.counter = 0
        self.shared_end: Dict[int, int] = {}  # thread id -> its End state

    def new_state(self, thread: FsmThread) -> int:
        sid = self.counter
        self.counter += 1
        thread.states.add(sid)
        return sid

    def new_thread(self, parent: Optional[FsmThread], spawn_state: Optional[int]) -> FsmThread:
        thread = FsmThread(
            thread_id=len(self.threads),
            parent=parent.thread_id if parent else None,
            spawn_state=spawn_state,
            initial=-1,
        )
        self.threads.append(thread)
        thread.initial = self.new_state(thread)
        return thread

    def run(self) -> NestedFsm:
        root = self.new_thread(None, None)
        self.compile_node(self.protocol.body, root, root.initial, {})
        triple_thread = self.check_cross_thread()
        self.check_progress()
        for thread in self.threads:
            _index_by_state(thread)
        return NestedFsm(
            self.protocol.name,
            self.protocol.self_role,
            self.threads,
            frozenset(self.terminal),
            triple_thread,
        )

    # rec_env maps a recursion label to (thread id, entry state, spawn count
    # at binding time); the spawn count catches back edges over a parallel.

    def compile_node(self, node, thread: FsmThread, entry: int, rec_env: dict) -> None:
        if isinstance(node, End):
            self.terminal.add(entry)
            return

        if isinstance(node, (Send, Receive)):
            if isinstance(node, Send):
                sender, receiver = self.protocol.self_role, node.dst
            else:
                sender, receiver = node.src, self.protocol.self_role
            target = self.continuation_state(node.cont, thread, rec_env)
            key = TransitionKey(entry, node.sig.label, sender, receiver)
            value = TransitionValue(
                target, node.assertion, tuple(f.name for f in node.sig.payload)
            )
            existing = thread.transitions.get(key)
            if existing is not None:
                if existing != value:
                    raise NondeterminismError(
                        f"state {entry} has conflicting transitions for "
                        f"{node.sig.label} {sender}->{receiver}"
                    )
                return
            thread.transitions[key] = value
            return

        if isinstance(node, Choice):
            for branch in node.branches:
                self.compile_node(branch, thread, entry, rec_env)
            return

        if isinstance(node, Rec):
            inner = dict(rec_env)
            inner[node.var] = (thread.thread_id, entry, len(thread.joins))
            self.compile_node(node.body, thread, entry, inner)
            return

        if isinstance(node, Continue):
            # Reachable as a whole branch (or rec body); harmless only when it
            # targets this very state, i.e. "loop again from here".
            target = self.resolve_continue(node.var, thread, rec_env)
            if target != entry:
                raise UnsupportedNesting(
                    f"continue {node.var} is the whole alternative at state "
                    f"{entry}; it cannot alias state {target}"
                )
            return

        if isinstance(node, Parallel):
            if any(tid == thread.thread_id for tid, _, _ in rec_env.values()):
                raise UnsupportedNesting(
                    "parallel inside a recursion cannot be re-armed by a nested FSM"
                )
            if entry in thread.joins:
                raise UnsupportedNesting(
                    f"two parallel blocks spawn from state {entry}"
                )
            branches = [b for b in node.branches if not isinstance(b, End)]
            if not branches:  # all branches empty: the block is a no-op
                self.compile_node(node.cont, thread, entry, rec_env)
                return
            children = []
            for branch in branches:
                child = self.new_thread(thread, entry)
                self.compile_node(branch, child, child.initial, {})
                children.append(child.thread_id)
            target = self.continuation_state(node.cont, thread, rec_env)
            thread.joins[entry] = Join(tuple(children), target)
            return

        raise CompileError(f"cannot compile node {type(node).__name__}")

    def continuation_state(self, cont, thread: FsmThread, rec_env: dict) -> int:
        if isinstance(cont, End):
            sid = self.shared_end.get(thread.thread_id)
            if sid is None:
                sid = self.new_state(thread)
                self.shared_end[thread.thread_id] = sid
                self.terminal.add(sid)
            return sid
        if isinstance(cont, Continue):
            return self.resolve_continue(cont.var, thread, rec_env)
        sid = self.new_state(thread)
        self.compile_node(cont, thread, sid, rec_env)
        return sid

    def resolve_continue(self, var: str, thread: FsmThread, rec_env: dict) -> int:
        entry = rec_env.get(var)
        if entry is None:
            raise CompileError(f"continue {var} is not bound in this thread")
        tid, state, spawn_count = entry
        if tid != thread.thread_id:
            raise UnsupportedNesting(f"continue {var} crosses a thread boundary")
        if len(thread.joins) > spawn_count:
            raise UnsupportedNesting(
                f"continue {var} loops back over a parallel region"
            )
        return state

    def check_cross_thread(self) -> Dict[tuple, int]:
        triple_thread: Dict[tuple, int] = {}
        for thread in self.threads:
            for key in thread.transitions:
                triple = (key.label, key.sender, key.receiver)
                owner = triple_thread.setdefault(triple, thread.thread_id)
                if owner != thread.thread_id:
                    raise NondeterminismError(
                        f"{triple} appears in threads {owner} and {thread.thread_id}; "
                        "messages could not be routed to a unique thread"
                    )
        return triple_thread

    def check_progress(self) -> None:
        for thread in self.threads:
            outgoing = {key.state for key in thread.transitions}
            for state in sorted(thread.states):
                if (
                    state not in self.terminal
                    and state not in outgoing
                    and state not in thread.joins
                ):
                    raise EmptyRecursionError(
                        f"state {state} in thread {thread.thread_id} can make no progress"
                    )


def _index_by_state(thread: FsmThread) -> None:
    by_state: Dict[int, list] = {}
    for key in thread.transitions:
        by_state.setdefault(key.state, []).append(key)
    thread.by_state = {s: tuple(ks) for s, ks in by_state.items()}


def compile(protocol: LocalProtocol) -> NestedFsm:  # noqa: A001 - mirrors re.compile
    """Compile a local protocol; raises CompileError subclasses on failure."""
    fsm = _Compiler(protocol).run()
    # Linearity guarantee: never more than two states per tree node.
    assert fsm.state_count() <= 2 * count_nodes(protocol.body)
    return fsm


# --- Flat product oracle ---------------------------------------------------
#
# An independent interpretation of the protocol tree: configurations are
# residual terms reached by small steps, explored breadth-first into one flat
# machine. Used to cross-check the nested construction and to demonstrate the
# state blow-up that nesting avoids.


class _Done:
    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "<done>"


_DONE = _Done()


@dataclass(frozen=True)
class _Term:
    node: object
    env: tuple  # ((var, residual), ...) innermost last


@dataclass(frozen=True)
class _Par:
    parts: tuple  # non-done residuals
    cont: object


def _residual(node, env: tuple):
    if isinstance(node, End):
        return _DONE
    if isinstance(node, Parallel):
        parts = tuple(_residual(b, ()) for b in node.branches)
        parts = tuple(p for p in parts if p is not _DONE)
        cont = _residual(node.cont, env)
        if not parts:
            return cont
        return _Par(parts, cont)
    return _Term(node, env)


def _env_lookup(env: tuple, var: str):
    for name, value in reversed(env):
        if name == var:
            return value
    raise CompileError(f"continue {var} escaped its recursion")


def _steps(res, self_role: str, visiting: frozenset) -> list:
    """All (triple, assertion, binders, next residual) steps."""
    if res is _DONE:
        return []
    if isinstance(res, _Term):
        if res in visiting:
            return []  # a recursion that loops without communicating
        node, env = res.node, res.env
        if isinstance(node, Send):
            triple = (node.sig.label, self_role, node.dst)
            nxt = _residual(node.cont, env)
            return [(triple, node.assertion, tuple(f.name for f in node.sig.payload), nxt)]
        if isinstance(node, Receive):
            triple = (node.sig.label, node.src, self_role)
            nxt = _residual(node.cont, env)
            return [(triple, node.assertion, tuple(f.name for f in node.sig.payload), nxt)]
        if isinstance(node, Choice):
            out = []
            for branch in node.branches:
                out.extend(_steps(_residual(branch, env), self_role, visiting | {res}))
            return out
        if isinstance(node, Rec):
            unfolded = _residual(node.body, env + ((node.var, res),))
            return _steps(unfolded, self_role, visiting | {res})
        if isinstance(node, Continue):
            return _steps(_env_lookup(env, node.var), self_role, visiting | {res})
        raise CompileError(f"cannot interpret node {type(node).__name__}")
    if isinstance(res, _Par):
        out = []
        for i, part in enumerate(res.parts):
            for triple, assertion, binders, nxt in _steps(part, self_role, visiting):
                parts = res.parts[:i] + ((nxt,) if nxt is not _DONE else ()) + res.parts[i + 1:]
                follow = res.cont if not parts else _Par(parts, res.cont)
                out.append((triple, assertion, binders, follow))
        return out
    raise CompileError(f"unknown residual {res!r}")


def product_oracle(protocol: LocalProtocol, limit: int = 100_000) -> FsmThread:
    """Explicit flat-product machine over reachable configurations.

    Raises ExplosionGuard when more than ``limit`` configurations appear,
    which is the point: the construction is exponential in the number of
    parallel branches while the nested form stays linear.
    """
    start = _residual(protocol.body, ())
    ids = {start: 0}
    thread = FsmThread(thread_id=0, parent=None, spawn_state=None, initial=0)
    thread.states.add(0)
    queue = deque([start])
    while queue:
        res = queue.popleft()
        sid = ids[res]
        if res is _DONE:
            continue
        for triple, assertion, binders, nxt in _steps(res, protocol.self_role, frozenset()):
            nid = ids.get(nxt)
            if nid is None:
                if len(ids) >= limit:
                    raise ExplosionGuard(
                        f"flat product exceeds {limit} states for {protocol.name}"
                    )
                nid = len(ids)
                ids[nxt] = nid
                thread.states.add(nid)
                queue.append(nxt)
            key = TransitionKey(sid, *triple)
            value = TransitionValue(nid, assertion, binders)
            existing = thread.transitions.get(key)
            if existing is not None:
                if existing != value:
                    raise NondeterminismError(
                        f"configuration {sid} steps ambiguously on {triple}"
                    )
                continue
            thread.transitions[key] = value
    _index_by_state(thread)
    return thread


# --- Trace languages ---------------------------------------------------------


def trace_language(machine, depth: int) -> set:
    """All transition-label paths of length at most ``depth``.

    Traces are tuples of (label, sender, receiver) triples, prefix-closed
    (the empty trace is always included). Accepts either a NestedFsm or a
    flat FsmThread such as the product oracle's output.
    """
    if isinstance(machine, FsmThread):
        return _thread_traces(machine, depth)
    if isinstance(machine, NestedFsm):
        return _nested_traces(machine, depth)
    raise TypeError(f"cannot enumerate traces of {type(machine).__name__}")


def _thread_traces(thread: FsmThread, depth: int) -> set:
    edges: Dict[int, list] = {}
    for key, value in thread.transitions.items():
        edges.setdefault(key.state, []).append(
            ((key.label, key.sender, key.receiver), value.next_state)
        )
    traces = {()}
    frontier = [(thread.initial, ())]
    for _ in range(depth):
        nxt = []
        for state, prefix in frontier:
            for triple, target in edges.get(state, ()):
                trace = prefix + (triple,)
                if trace not in traces:
                    traces.add(trace)
                    nxt.append((target, trace))
        frontier = nxt
    return traces


def _nested_traces(fsm: NestedFsm, depth: int) -> set:
    cursors = fsm.initial
    settle(fsm, cursors)
    traces = {()}
    frontier = [(cursors, frozenset({0}), ())]
    for _ in range(depth):
        nxt = []
        for cursors, fired, prefix in frontier:
            for tid, key in enabled(fsm, cursors, fired):
                trace = prefix + ((key.label, key.sender, key.receiver),)
                if trace in traces:
                    continue
                traces.add(trace)
                moved = list(cursors)
                moved[tid] = fsm.threads[tid].transitions[key].next_state
                settle(fsm, moved)
                nxt.append((moved, fired | {tid}, trace))
        frontier = nxt
    return traces


# --- The stepper -------------------------------------------------------------
#
# A run is a cursor list, one state per thread, and the set of threads that
# have fired; the root counts as fired from the start. Cursor lists are
# changed in place, so the enumerator copies before each step.


def active_threads(fsm: NestedFsm, cursors) -> list:
    """Thread ids able to fire transitions under the given cursors."""
    active = [False] * len(fsm.threads)
    for thread in fsm.threads:  # parents precede children by construction
        if thread.parent is None:
            active[thread.thread_id] = True
        else:
            active[thread.thread_id] = (
                active[thread.parent] and cursors[thread.parent] == thread.spawn_state
            )
    return [t.thread_id for t in fsm.threads if active[t.thread_id]]


def join_started(fsm: NestedFsm, fired, tid: int, state: int) -> bool:
    """Whether any child spawned at ``state`` has ever fired.

    Once a child fires, the parallel block is committed and the spawn
    state's own outgoing transitions (rival choice branches) are dead.
    Commitment is sticky, so it is judged on the set of threads that have
    fired rather than on cursor positions: a child looping back to its
    initial state stays committed.
    """
    join = fsm.threads[tid].joins.get(state)
    if join is None:
        return False
    return any(c in fired for c in join.children)


def transition(fsm: NestedFsm, cursors, fired, triple: tuple):
    """The (thread id, TransitionValue) that ``triple`` fires now, or None."""
    tid = fsm.triple_thread.get(triple)
    if tid is None:
        return None
    threads = fsm.threads
    thread = threads[tid]
    while thread.parent is not None:  # each ancestor must sit on its spawn state
        if cursors[thread.parent] != thread.spawn_state:
            return None
        thread = threads[thread.parent]
    state = cursors[tid]
    value = threads[tid].transitions.get(TransitionKey(state, *triple))
    if value is None or join_started(fsm, fired, tid, state):
        return None
    return tid, value


def enabled(fsm: NestedFsm, cursors, fired) -> list:
    """The (thread id, TransitionKey) pairs that can fire now."""
    out = []
    for tid in active_threads(fsm, cursors):
        state = cursors[tid]
        if join_started(fsm, fired, tid, state):
            continue  # committed to the parallel block spawned here
        out.extend((tid, key) for key in fsm.threads[tid].by_state.get(state, ()))
    return out


def settle(fsm: NestedFsm, cursors: list) -> None:
    """Fire, in place, every join whose children have all finished."""
    threads, terminal = fsm.threads, fsm.terminal
    changed = True
    while changed:
        changed = False
        for tid in active_threads(fsm, cursors):
            join = threads[tid].joins.get(cursors[tid])
            if join is not None and all(cursors[c] in terminal for c in join.children):
                cursors[tid] = join.next_state
                changed = True


# --- Graphviz rendering ------------------------------------------------------


def to_dot(fsm: NestedFsm) -> str:
    """Render the nested machine as one Graphviz digraph, clustered by thread."""
    lines = ["digraph fsm {", "    rankdir=LR;"]
    for thread in fsm.threads:
        lines.append(f"    subgraph cluster_t{thread.thread_id} {{")
        title = f"thread {thread.thread_id}"
        if thread.parent is not None:
            title += f" (from s{thread.spawn_state})"
        lines.append(f'        label="{title}";')
        for state in sorted(thread.states):
            shape = "doublecircle" if state in fsm.terminal else "circle"
            lines.append(f'        s{state} [shape={shape}];')
        for key in sorted(
            thread.transitions, key=lambda k: (k.state, k.label, k.sender, k.receiver)
        ):
            value = thread.transitions[key]
            tag = f"{key.label} {key.sender}->{key.receiver}"
            if value.assertion is not None:
                tag += f"\\n@{{{value.assertion.source_text}}}"
            lines.append(f'        s{key.state} -> s{value.next_state} [label="{tag}"];')
        for state in sorted(thread.joins):
            join = thread.joins[state]
            children = ",".join(f"t{c}" for c in join.children)
            lines.append(
                f'        s{state} -> s{join.next_state} '
                f'[style=dotted, label="join {children}"];'
            )
        lines.append("    }")
    lines.append("}")
    return "\n".join(lines) + "\n"
