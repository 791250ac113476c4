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

A compiled machine is never written after :func:`compile` returns, so one
machine can serve any number of runs. Besides the per-thread tables it
carries a dispatch index (triple to owning thread, that thread's chain of
``(parent, spawn_state)`` ancestors, and a table from source state to the
hit ``(thread id, TransitionValue)``), a label index (label to the triples
of the dispatch index that carry it) and its settled initial configuration.

A :class:`Run` is one execution: a cursor per thread, the set of threads
that have fired, and counters. It is the only interpreter of the nested
semantics. :meth:`Run.transition` is the one place its enabling rule is
written: :meth:`Run.enabled` is derived from it, as the triples of the
dispatch index that it accepts, and :meth:`Run.step` is the one way a hit it
returned is taken. The monitor asks ``transition`` about each triple that a
reached configuration has not taken yet, :class:`Configs` takes the hit with
``step`` on a copy of the configuration's run, and :func:`trace_language`
enumerates a nested machine's traces by stepping over ``enabled``. Checking
those traces against :func:`product_oracle` therefore checks the path the
runtime accepts on. The oracle and the flat-machine enumerator share none of
it, and only the flat enumerator groups transitions by state.
:func:`active_threads` scans every thread; no runtime code calls it, and the
tests keep it as the full-scan reference that the dispatch path is checked
against.

A step does work bounded by the nesting depth, not by the number of
threads; only entering a spawn state visits that join's children, once.
The fired thread's ancestors are checked along the precomputed chain.
Instead of rescanning every active thread, a step settles only what it
can have changed: the subtree that the moved thread's new state spawns,
then the moved thread's own join and, while joins keep firing, its
ancestors. Two counters replace the old scans. For each started join there
is the number of its children off a terminal state, and the join fires when
that reaches zero. For the run there is the number of fired threads off a
terminal state, and the run is complete when that is zero. Both are kept up
to date on every cursor move, because a terminal state may still have
outgoing transitions. The start configuration is settled by the same steps:
:func:`compile` builds one settled :class:`Run` per machine, and every run
after it starts as a copy, so no session settles its start again.

A :class:`Config` is a reached configuration: a run that is never stepped
again, and the moves taken from it so far, each an accepted triple mapped to
its ``TransitionValue`` and the next configuration. :class:`Configs` interns
them by the whole of the run's state (:meth:`Run.key`), so sessions of one
machine that reach the same configuration share it, and a move once taken is
found again with one lookup, as a lazy DFA builds the part of its automaton
that the input reaches. The compiled machine stays linear in the protocol;
only the reached configurations are built, at most :data:`CONFIG_CAP` of
them per table. A move is recorded only after ``transition`` returned its
hit and ``step`` took it on a copy, so every move is still the
interpreter's, and a triple the run refuses records nothing.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from .predicates import CompiledPredicate
from .protocol import (
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
    assertion: Optional[CompiledPredicate]
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
    chain: tuple = ()  # (parent, spawn_state) pairs from this thread to the root


@dataclass
class NestedFsm:
    protocol_name: str
    self_role: str
    threads: List[FsmThread]
    terminal: frozenset
    # (label, sender, receiver) -> (thread id, its chain,
    #                               {state: (thread id, TransitionValue)})
    dispatch: Dict[tuple, tuple]
    # label -> the triples of ``dispatch`` that carry it
    by_label: Dict[str, tuple]
    # the settled run every new run copies; set by compile()
    start: Optional[Run] = field(default=None, compare=False, repr=False)

    @property
    def initial(self) -> list:
        """Each thread's initial state, before any join is settled."""
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
            chain=((parent.thread_id, spawn_state),) + parent.chain if parent else (),
        )
        self.threads.append(thread)
        thread.initial = self.new_state(thread)
        return thread

    def run(self) -> NestedFsm:
        root = self.new_thread(None, None)
        self.compile_node(self.protocol.body, root, root.initial, {})
        dispatch = self.check_cross_thread()
        self.check_progress()
        by_label: Dict[str, tuple] = {}
        for triple in dispatch:
            by_label[triple[0]] = by_label.get(triple[0], ()) + (triple,)
        return NestedFsm(
            self.protocol.name,
            self.protocol.self_role,
            self.threads,
            frozenset(self.terminal),
            dispatch,
            by_label,
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

    def check_cross_thread(self) -> Dict[tuple, tuple]:
        """The dispatch index; refuses a triple that two threads share.

        Each entry's hit ``(thread id, TransitionValue)`` is built here,
        once, so a step hands it back as it is.
        """
        dispatch: Dict[tuple, tuple] = {}
        for thread in self.threads:
            tid = thread.thread_id
            for key, value in thread.transitions.items():
                triple = (key.label, key.sender, key.receiver)
                owner = dispatch.setdefault(triple, (tid, thread.chain, {}))
                if owner[0] != tid:
                    raise NondeterminismError(
                        f"{triple} appears in threads {owner[0]} and {tid}; "
                        "messages could not be routed to a unique thread"
                    )
                owner[2][key.state] = (tid, value)
        return dispatch

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


def compile(protocol: LocalProtocol) -> NestedFsm:  # noqa: A001 - mirrors re.compile
    """Compile a local protocol; raises CompileError subclasses on failure."""
    fsm = _Compiler(protocol).run()
    # Linearity guarantee: never more than two states per tree node.
    assert fsm.state_count() <= 2 * count_nodes(protocol.body)
    fsm.start = Run(fsm)
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
    by_state: Dict[int, list] = {}
    for key, value in thread.transitions.items():
        by_state.setdefault(key.state, []).append((key, value.next_state))
    traces = {()}
    frontier = [(thread.initial, ())]
    for _ in range(depth):
        nxt = []
        for state, prefix in frontier:
            for key, target in by_state.get(state, ()):
                trace = prefix + ((key.label, key.sender, key.receiver),)
                if trace not in traces:
                    traces.add(trace)
                    nxt.append((target, trace))
        frontier = nxt
    return traces


def _nested_traces(fsm: NestedFsm, depth: int) -> set:
    traces = {()}
    frontier = [(fsm.start.copy(), ())]
    for _ in range(depth):
        nxt = []
        for run, prefix in frontier:
            for triple, hit in run.enabled().items():
                trace = prefix + (triple,)
                if trace in traces:
                    continue
                traces.add(trace)
                moved = run.copy()
                moved.step(hit)
                nxt.append((moved, trace))
        frontier = nxt
    return traces


# --- The stepper -------------------------------------------------------------


class Run:
    """One run of a nested machine; the machine itself is only read.

    ``cursors`` holds one state per thread and ``fired`` the threads that
    have fired a transition; the root counts as fired from the start.
    ``pending[t]``, while thread ``t`` is active on a spawn state, counts
    the children of that join that are off a terminal state. ``started[t]``
    says that one of those children has fired: the parallel block is then
    committed and the spawn state's own transitions (rival choice branches)
    are dead. Commitment is sticky, so a child looping back to its initial
    state keeps it. ``open`` counts the fired threads off a terminal state;
    threads enter ``fired`` only by firing, so a parallel block sitting
    untaken behind a rival choice branch never holds completion hostage.
    """

    __slots__ = ("fsm", "cursors", "fired", "pending", "started", "open")

    def __init__(self, fsm: NestedFsm):
        """A run at the machine's start, its joins settled. ``fsm.start.copy()``
        is the same run without settling it again."""
        self.fsm = fsm
        self.cursors = fsm.initial
        self.fired = {0}
        self.pending = [0] * len(fsm.threads)
        self.started = [False] * len(fsm.threads)
        self.open = 0 if self.cursors[0] in fsm.terminal else 1
        self._enter(0)

    def copy(self) -> "Run":
        other = Run.__new__(Run)
        other.fsm = self.fsm
        other.cursors = list(self.cursors)
        other.fired = set(self.fired)
        other.pending = list(self.pending)
        other.started = list(self.started)
        other.open = self.open
        return other

    def transition(self, triple: tuple):
        """The hit (thread id, TransitionValue) that ``triple`` fires now, or
        None; :meth:`step` takes it."""
        entry = self.fsm.dispatch.get(triple)
        if entry is None:
            return None
        tid, chain, table = entry
        cursors = self.cursors
        for parent, spawn_state in chain:  # each ancestor must sit on its spawn state
            if cursors[parent] != spawn_state:
                return None
        hit = table.get(cursors[tid])
        if hit is None or self.started[tid]:
            return None
        return hit

    def enabled(self) -> dict:
        """Each triple of the dispatch index that :meth:`transition` accepts
        now, mapped to its hit."""
        transition = self.transition
        return {t: hit for t in self.fsm.dispatch if (hit := transition(t)) is not None}

    def fire(self, tid: int, next_state: int) -> None:
        """Move active thread ``tid`` to ``next_state`` and settle the joins
        that the move makes ready."""
        if tid not in self.fired:
            self.fired.add(tid)
            if self.cursors[tid] not in self.fsm.terminal:
                self.open += 1
        threads = self.fsm.threads
        parent = threads[tid].parent
        if parent is not None:
            self.started[parent] = True
        self._move(tid, next_state)
        self._enter(tid)
        pending = self.pending
        while parent is not None and pending[parent] == 0:
            join = threads[parent].joins[self.cursors[parent]]
            self._move(parent, join.next_state)
            self._enter(parent)
            parent = threads[parent].parent

    def step(self, hit: tuple) -> None:
        """Take a hit that :meth:`transition` returned."""
        tid, value = hit
        self.fire(tid, value.next_state)

    def key(self) -> tuple:
        """The whole of the run's state, as one hashable value: two runs of a
        machine with equal keys accept the same traces from here on."""
        return (
            tuple(self.cursors),
            frozenset(self.fired),
            tuple(self.pending),
            tuple(self.started),
            self.open,
        )

    def _move(self, tid: int, state: int) -> None:
        """Set an active thread's cursor, keeping both counters."""
        cursors, terminal = self.cursors, self.fsm.terminal
        was = cursors[tid] in terminal
        cursors[tid] = state
        self.started[tid] = False
        if was != (state in terminal):
            delta = 1 if was else -1
            if tid in self.fired:
                self.open += delta
            parent = self.fsm.threads[tid].parent
            if parent is not None:
                self.pending[parent] += delta

    def _enter(self, tid: int) -> None:
        """Settle thread ``tid`` where it stands: when its state spawns
        children, count those off a terminal state, settle each of them, and
        pass the join if none is left."""
        joins = self.fsm.threads[tid].joins
        cursors, terminal, pending = self.cursors, self.fsm.terminal, self.pending
        join = joins.get(cursors[tid])
        while join is not None:
            pending[tid] = sum(cursors[c] not in terminal for c in join.children)
            for child in join.children:
                self._enter(child)
            if pending[tid]:
                return
            self._move(tid, join.next_state)
            join = joins.get(cursors[tid])


# --- Reached configurations ----------------------------------------------------

# The most configurations one table keeps; at least 2, since the start stays.
CONFIG_CAP = 256


class Config:
    """A configuration a run of a machine reached. ``run`` is never stepped
    again; ``moves`` maps each triple accepted from it so far to
    ``(TransitionValue, next Config)``."""

    __slots__ = ("run", "moves", "__weakref__")

    def __init__(self, run: Run):
        self.run = run
        self.moves: Dict[tuple, tuple] = {}


class Configs:
    """The reached configurations of one machine, each interned once.

    ``start`` is the machine's settled start and is always in the table.
    When the table is full it drops every entry and every entry's moves and
    starts again from ``start``, so it never holds more than
    :data:`CONFIG_CAP` configurations; a configuration dropped while a
    session still holds it stays valid, and its next move lands in the new
    table.
    """

    __slots__ = ("table", "start")

    def __init__(self, fsm: NestedFsm):
        self.table: Dict[tuple, Config] = {}
        self.start = self._intern(fsm.start.copy())

    def step(self, config: Config, triple: tuple, hit: tuple) -> tuple:
        """Take ``hit``, which ``config.run.transition(triple)`` returned, on
        a copy of the run, and record the move ``(TransitionValue, next
        Config)`` in ``config.moves``, where the next lookup finds it."""
        run = config.run.copy()
        run.step(hit)
        move = config.moves[triple] = (hit[1], self._intern(run))
        return move

    def _intern(self, run: Run) -> Config:
        key = run.key()
        config = self.table.get(key)
        if config is None:
            if len(self.table) >= CONFIG_CAP:
                old, self.table = self.table, {self.start.run.key(): self.start}
                # list() copies in one call, so a racing intern cannot
                # resize the dict under the loop
                for dropped in list(old.values()):
                    dropped.moves.clear()
            config = self.table[key] = Config(run)
        return config


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
