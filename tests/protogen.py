"""Protocol and trace generators used by property and acceptance tests.

Three generators live here:

* :func:`random_global` builds a seeded, valid-by-construction global
  protocol exercising interactions, choices, recursion, parallel blocks,
  and payload assertions.
* :func:`local_grid` enumerates a deterministic family of small local
  protocols (several hundred) covering every structural combination the
  FSM compiler supports, for cross-checking against the product oracle.
* :func:`complete_traces` enumerates complete runs of a global protocol
  with synthesized payload values that satisfy every generated assertion.
"""

import itertools
import random

from parley.predicates import compile_predicate
from parley.protocol import (
    Choice,
    Continue,
    END,
    End,
    GlobalProtocol,
    Interaction,
    LocalProtocol,
    MessageSignature,
    Parallel,
    PayloadField,
    Rec,
    Receive,
    Send,
)

ROLE_POOL = ("A", "B", "C", "D")


# --- seeded random global protocols -------------------------------------------


def random_global(seed: int) -> GlobalProtocol:
    rng = random.Random(seed)
    count = rng.choice((3, 3, 3, 4))
    roles = tuple(rng.sample(ROLE_POOL, count))
    counter = itertools.count()
    body = _gen_seq(
        rng, roles, counter, budget=rng.randint(2, 4), depth=0, rec_vars=(), in_rec=False
    )
    return GlobalProtocol(f"Gen{seed}", roles, body)


def _gen_sig(rng: random.Random, counter):
    label = f"L{next(counter)}"
    fields = []
    for _ in range(rng.choice((0, 0, 1, 1, 2))):
        sort = rng.choice(("int", "string", "data", "bool"))
        fields.append(PayloadField(f"x{next(counter)}", sort))
    assertion = None
    if fields and rng.random() < 0.35:
        first = fields[0]
        if first.sort == "int":
            text = rng.choice((f"{first.name} >= 0", f"{first.name} < 1000"))
            assertion = compile_predicate(text)
        elif first.sort in ("string", "data"):
            assertion = compile_predicate(f"size({first.name}) <= 64")
    return MessageSignature(label, tuple(fields)), assertion


def _gen_seq(rng, roles, counter, budget, depth, rec_vars, in_rec):
    if budget <= 0:
        # Only the innermost loop is continued: erasure can strip every
        # message around a continue, and a bare jump to an outer loop
        # has no faithful single-thread FSM encoding.
        if rec_vars and rng.random() < 0.35:
            return Continue(rec_vars[-1])
        return END
    roll = rng.random()
    if depth >= 3 or roll < 0.58:
        src, dst = rng.sample(roles, 2)
        sig, assertion = _gen_sig(rng, counter)
        cont = _gen_seq(rng, roles, counter, budget - 1, depth, rec_vars, in_rec)
        return Interaction(sig, src, dst, cont, assertion)
    if roll < 0.78:
        # A choice ends its block, so the remaining budget moves inside.
        at = rng.choice(roles)
        others = [r for r in roles if r != at]
        branches = []
        for _ in range(rng.randint(2, 3)):
            sig, assertion = _gen_sig(rng, counter)
            inner = _gen_seq(
                rng, roles, counter, rng.randint(0, 2), depth + 1, rec_vars, in_rec
            )
            branches.append(Interaction(sig, at, rng.choice(others), inner, assertion))
        return Choice(at, tuple(branches))
    if roll < 0.9 and not in_rec:
        first = _gen_seq(rng, roles, counter, rng.randint(1, 2), depth + 1, (), False)
        second = _gen_seq(rng, roles, counter, rng.randint(1, 2), depth + 1, (), False)
        cont = _gen_seq(rng, roles, counter, budget - 1, depth, rec_vars, in_rec)
        return Parallel((first, second), cont)
    # Recursion also ends its block; the head message keeps the loop body
    # non-empty on every path.
    var = f"X{next(counter)}"
    src, dst = rng.sample(roles, 2)
    sig, assertion = _gen_sig(rng, counter)
    inner = _gen_seq(
        rng, roles, counter, rng.randint(1, 2), depth + 1, rec_vars + (var,), True
    )
    return Rec(var, Interaction(sig, src, dst, inner, assertion))


# --- exhaustive grid of local protocols ----------------------------------------

# s = send, r = receive; peers alternate P, Q by position in the pattern.
SHAPES = ("s", "r", "ss", "sr", "rs", "rr", "srs", "rsr")
SHORT_SHAPES = ("s", "r", "ss", "sr")


def _chain(shape, counter, cont):
    node = cont
    for position in reversed(range(len(shape))):
        peer = "P" if position % 2 == 0 else "Q"
        sig = MessageSignature(f"L{next(counter)}")
        if shape[position] == "s":
            node = Send(sig, peer, node)
        else:
            node = Receive(sig, peer, node)
    return node


def _head(counter, cont, kind="s", peer="P"):
    sig = MessageSignature(f"L{next(counter)}")
    if kind == "s":
        return Send(sig, peer, cont)
    return Receive(sig, peer, cont)


def local_grid():
    """Yield several hundred structurally distinct local protocols at M."""
    index = 0

    def make(body):
        nonlocal index
        index += 1
        return LocalProtocol(f"Grid{index}", "M", ("M", "P", "Q"), body)

    for shape in SHAPES:  # plain sequences
        yield make(_chain(shape, itertools.count(), END))
    for shape in SHAPES:  # endless loops
        c = itertools.count()
        yield make(Rec("X", _chain(shape, c, Continue("X"))))
    for first, second in itertools.product(SHAPES, SHAPES):  # parallel pairs
        c = itertools.count()
        yield make(Parallel((_chain(first, c, END), _chain(second, c, END)), END))
    for first, second in itertools.product(SHAPES, SHAPES):  # parallel + tail
        c = itertools.count()
        yield make(
            Parallel(
                (_chain(first, c, END), _chain(second, c, END)),
                _head(c, END),
            )
        )
    for first, second in itertools.product(SHAPES, SHAPES):  # choice at self
        c = itertools.count()
        yield make(
            Choice(
                "M",
                (
                    _head(c, _chain(first, c, END)),
                    _head(c, _chain(second, c, END)),
                ),
            )
        )
    for first, second in itertools.product(SHAPES, SHAPES):  # choice at peer
        c = itertools.count()
        yield make(
            Choice(
                "P",
                (
                    _head(c, _chain(first, c, END), kind="r"),
                    _head(c, _chain(second, c, END), kind="r"),
                ),
            )
        )
    for first, second in itertools.product(SHAPES, SHAPES):  # loop with exit
        c = itertools.count()
        yield make(
            Rec(
                "X",
                Choice(
                    "M",
                    (
                        _head(c, _chain(first, c, Continue("X"))),
                        _head(c, _chain(second, c, END)),
                    ),
                ),
            )
        )
    # a parallel block as one branch of a choice, a plain rival as the other
    for first, second in itertools.product(SHORT_SHAPES, SHORT_SHAPES):
        for alt in SHAPES:
            c = itertools.count()
            yield make(
                Choice(
                    "M",
                    (
                        Parallel(
                            (_chain(first, c, END), _chain(second, c, END)),
                            _head(c, END),
                        ),
                        _head(c, _chain(alt, c, END)),
                    ),
                )
            )
    for triple in itertools.product(SHAPES[:3], repeat=3):  # three-way choices
        c = itertools.count()
        yield make(
            Choice(
                "M",
                tuple(_head(c, _chain(shape, c, END)) for shape in triple),
            )
        )
    for first, second in itertools.product(SHAPES, SHAPES):  # nested choices
        c = itertools.count()
        yield make(
            Choice(
                "M",
                (
                    _head(
                        c,
                        Choice(
                            "M",
                            (
                                _head(c, _chain(first, c, END)),
                                _head(c, _chain(second, c, END)),
                            ),
                        ),
                    ),
                    _head(c, _chain(second, c, END)),
                ),
            )
        )


# --- complete traces of a global protocol ---------------------------------------

_WORDS = ("ok", "go", "v42", "left", "right")


def _value_for(field: PayloadField, rng: random.Random):
    if field.sort == "int":
        return rng.randint(0, 9)
    if field.sort == "bool":
        return rng.choice((True, False))
    if field.sort == "string":
        return rng.choice(_WORDS)
    return bytes(rng.randint(0, 8))  # data


def complete_traces(protocol: GlobalProtocol, seed: int = 0, max_traces: int = 30, loop_budget: int = 1):
    """Complete runs as tuples of (label, src, dst, payload value pairs).

    Payload values are synthesized to satisfy every assertion the random
    generator can emit (non-negative small ints, short strings and blobs).
    Recursion is unrolled ``loop_budget`` times; paths that cannot exit
    their loop within the budget are pruned.
    """
    rng = random.Random(seed)
    walk = _trace_walk(protocol.body, {}, {}, rng, loop_budget)
    return list(itertools.islice(walk, max_traces))


def _trace_walk(node, bodies, budgets, rng, loop_budget):
    if isinstance(node, End):
        yield ()
        return
    if isinstance(node, Interaction):
        values = tuple(
            (f.name, _value_for(f, rng)) for f in node.sig.payload
        )
        event = (node.sig.label, node.src, node.dst, values)
        for rest in _trace_walk(node.cont, bodies, budgets, rng, loop_budget):
            yield (event,) + rest
        return
    if isinstance(node, Choice):
        for branch in node.branches:
            yield from _trace_walk(branch, bodies, budgets, rng, loop_budget)
        return
    if isinstance(node, Rec):
        bodies = {**bodies, node.var: node.body}
        budgets = {**budgets, node.var: loop_budget}
        yield from _trace_walk(node.body, bodies, budgets, rng, loop_budget)
        return
    if isinstance(node, Continue):
        if budgets.get(node.var, 0) > 0:
            tighter = {**budgets, node.var: budgets[node.var] - 1}
            yield from _trace_walk(bodies[node.var], bodies, tighter, rng, loop_budget)
        return  # out of budget: prune this path
    if isinstance(node, Parallel):
        per_branch = [
            list(
                itertools.islice(
                    _trace_walk(branch, bodies, budgets, rng, loop_budget), 3
                )
            )
            for branch in node.branches
        ]
        for combo in itertools.product(*per_branch):
            merges = [sum(combo, ())]
            if len(combo) > 1:
                merges.append(sum(reversed(combo), ()))
                merges.append(_zip_merge(combo))
            for merged in merges:
                for rest in _trace_walk(node.cont, bodies, budgets, rng, loop_budget):
                    yield merged + rest
        return
    raise TypeError(f"cannot walk {type(node).__name__}")


def _zip_merge(parts):
    merged = []
    cursors = [list(p) for p in parts]
    while any(cursors):
        for cursor in cursors:
            if cursor:
                merged.append(cursor.pop(0))
    return tuple(merged)
