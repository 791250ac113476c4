import importlib
from pathlib import Path

import pytest

from parley.bench import pingpong_source, wide_source
from parley.fsm import (
    CompileError,
    EmptyRecursionError,
    ExplosionGuard,
    NondeterminismError,
    Run,
    UnsupportedNesting,
    active_threads,
    compile as compile_fsm,
    product_oracle,
    to_dot,
    trace_language,
)
from parley.parser import parse_global, parse_local
from parley.projection import project, project_all
from parley.protocol import (
    Continue,
    END,
    LocalProtocol,
    MessageSignature,
    Parallel,
    Rec,
    Send,
    count_nodes,
)

import protogen
from conftest import DAQ_GLOBAL_SRC


def _local(body_src: str, roles="(role M, role P, role Q)") -> str:
    return f"local protocol T at M{roles} {{\n{body_src}\n}}\n"


def test_compile_running_example(daq_global):
    machine = compile_fsm(project(daq_global, "A").protocol)
    assert machine.self_role == "A"
    assert len(machine.threads) == 1  # no parallel in this protocol
    assert machine.terminal
    raw_keys = [
        k for k in machine.threads[0].transitions if k.label == "Raw"
    ]
    assert len(raw_keys) == 1
    value = machine.threads[0].transitions[raw_keys[0]]
    assert value.assertion is not None
    assert value.var_binders == ("data",)


def test_identical_duplicate_transitions_merge(daq_global):
    # U sees Stop from A as the tail of both outer branches; the spellings
    # collapse into one transition instead of a determinism error.
    machine = compile_fsm(project(daq_global, "U").protocol)
    stop_keys = [k for k in machine.threads[0].transitions if k.label == "Stop"]
    assert len(stop_keys) == 1


def test_conflicting_duplicate_is_rejected():
    # built directly: validation already refuses clashing chooser-side heads
    from parley.protocol import Choice

    body = Choice(
        "M",
        (
            Send(MessageSignature("A"), "P", Send(MessageSignature("B"), "P", END)),
            Send(MessageSignature("A"), "P", Send(MessageSignature("C"), "P", END)),
        ),
    )
    with pytest.raises(NondeterminismError):
        compile_fsm(LocalProtocol("T", "M", ("M", "P"), body))


def test_parallel_inside_recursion_rejected():
    src = _local(
        """
    rec X {
        parallel {
            A to P;
        } and {
            B to Q;
        }
        C to P;
        X;
    }
    """
    )
    with pytest.raises(UnsupportedNesting):
        compile_fsm(parse_local(src))


def test_continue_crossing_thread_boundary_rejected():
    # built directly: validation would already refuse the scope escape
    body = Rec(
        "X",
        Send(
            MessageSignature("A"),
            "P",
            Parallel(
                (Send(MessageSignature("B"), "P", Continue("X")),),
                END,
            ),
        ),
    )
    protocol = LocalProtocol("T", "M", ("M", "P"), body)
    with pytest.raises(CompileError):
        compile_fsm(protocol)


def test_continue_aliasing_another_state_rejected():
    src = _local(
        """
    rec X {
        A to P;
        choice at P {
            B from P;
            X;
        } or {
            X;
        }
    }
    """
    )
    with pytest.raises(UnsupportedNesting):
        compile_fsm(parse_local(src))


def test_whole_branch_continue_at_loop_head_is_allowed():
    src = _local(
        """
    rec X {
        choice at M {
            A to P;
            X;
        } or {
            X;
        }
    }
    """
    )
    machine = compile_fsm(parse_local(src))
    (thread,) = machine.threads
    assert len(thread.transitions) == 1  # just the A self-loop


def test_empty_recursion_rejected():
    with pytest.raises(EmptyRecursionError):
        compile_fsm(parse_local(_local("rec X {\n    X;\n}")))


def test_two_parallels_from_one_state_rejected():
    # a choice whose branches are both parallel blocks puts two spawns on
    # one state; there is no way to tell the joins apart afterwards
    from parley.protocol import Choice

    body = Choice(
        "M",
        (
            Parallel((Send(MessageSignature("A"), "P", END),), END),
            Parallel((Send(MessageSignature("B"), "P", END),), END),
        ),
    )
    with pytest.raises(UnsupportedNesting):
        compile_fsm(LocalProtocol("T", "M", ("M", "P"), body))


def test_nested_parallel_compiles():
    inner = Parallel(
        (
            Send(MessageSignature("A"), "P", END),
            Send(MessageSignature("B"), "P", END),
        ),
        Send(MessageSignature("C"), "P", END),
    )
    protocol = LocalProtocol(
        "T",
        "M",
        ("M", "P"),
        Parallel((inner, Send(MessageSignature("D"), "P", END)), END),
    )
    machine = compile_fsm(protocol)
    assert len(machine.threads) == 5  # root, two outer children, two inner
    assert trace_language(machine, 5) == trace_language(product_oracle(protocol), 5)


def test_cross_thread_triple_rejected():
    # the same (label, sender, receiver) in two parallel branches cannot be
    # routed to a unique thread
    body = Parallel(
        (
            Send(MessageSignature("A"), "P", END),
            Send(MessageSignature("A"), "P", END),
        ),
        END,
    )
    with pytest.raises(NondeterminismError):
        compile_fsm(LocalProtocol("T", "M", ("M", "P"), body))


def test_state_count_linear_bound(daq_global):
    for role in daq_global.roles:
        local = project(daq_global, role).protocol
        machine = compile_fsm(local)
        assert machine.state_count() <= 2 * count_nodes(local.body) + 2


def test_oracle_explosion_guard():
    src = _local(
        """
    parallel {
        A to P;
        B from P;
    } and {
        C to Q;
        D from Q;
    }
    """
    )
    protocol = parse_local(src)
    with pytest.raises(ExplosionGuard):
        product_oracle(protocol, limit=3)
    oracle = product_oracle(protocol)
    assert len(oracle.states) == 9  # 3 x 3 product


def test_traces_match_oracle_on_running_example(daq_global):
    for role in daq_global.roles:
        local = project(daq_global, role).protocol
        machine = compile_fsm(local)
        oracle = product_oracle(local)
        assert trace_language(machine, 7) == trace_language(oracle, 7)


def test_parallel_under_choice_commits():
    src = _local(
        """
    choice at M {
        parallel {
            A to P;
        } and {
            B to Q;
        }
        C to P;
    } or {
        E to P;
    }
    """
    )
    protocol = parse_local(src)
    machine = compile_fsm(protocol)
    traces = trace_language(machine, 4)
    assert (("A", "M", "P"), ("E", "M", "P")) not in traces  # committed
    assert (("A", "M", "P"), ("B", "M", "Q"), ("C", "M", "P")) in traces
    assert (("E", "M", "P"),) in traces
    assert traces == trace_language(product_oracle(protocol), 4)


def test_compile_is_deterministic(daq_global):
    local = project(daq_global, "I").protocol
    first = compile_fsm(local)
    second = compile_fsm(local)
    assert [t.transitions for t in first.threads] == [
        t.transitions for t in second.threads
    ]
    assert first.terminal == second.terminal
    assert to_dot(first) == to_dot(second)


def test_dot_output_shape(daq_global):
    machine = compile_fsm(project(daq_global, "A").protocol)
    dot = to_dot(machine)
    assert dot.startswith("digraph")
    assert "doublecircle" in dot
    assert "cluster_t0" in dot


def test_grid_sample_against_oracle():
    # the full sweep lives in the acceptance suite; keep a fast sample here
    for index, local in enumerate(protogen.local_grid()):
        if index % 23 != 0:
            continue
        machine = compile_fsm(local)
        oracle = product_oracle(local)
        assert trace_language(machine, 6) == trace_language(oracle, 6), local.name


# --- the incremental stepper against the full-scan reference -------------------


def settle(fsm, cursors):
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


def _differential_machines():
    for local in protogen.local_grid():
        yield local.name, compile_fsm(local)
    for seed in range(1000):
        protocol = protogen.random_global(seed)
        for role, report in sorted(project_all(protocol).items()):
            try:
                yield f"{protocol.name}@{role}", compile_fsm(report.protocol)
            except CompileError:
                continue


def _assert_matches_full_scan(run, expected_cursors, where):
    fsm, cursors = run.fsm, run.cursors
    assert cursors == expected_cursors, where
    for tid in active_threads(fsm, cursors):
        join = fsm.threads[tid].joins.get(cursors[tid])
        if join is None:
            continue
        # a join's counter reads zero exactly when all its children are done
        done = all(cursors[c] in fsm.terminal for c in join.children)
        assert (run.pending[tid] == 0) == done, where
        assert run.started[tid] == any(c in run.fired for c in join.children), where
    # terminal states can have outgoing transitions, so this is not monotone
    assert (run.open == 0) == all(cursors[t] in fsm.terminal for t in run.fired), where


def test_incremental_settle_agrees_with_full_scan():
    machines = steps = 0
    for name, fsm in _differential_machines():
        machines += 1
        start = Run(fsm)
        expected = fsm.initial
        settle(fsm, expected)
        _assert_matches_full_scan(start, expected, (name, ()))
        _assert_matches_full_scan(fsm.start, expected, (name, "stored start"))
        assert fsm.start.fired == {0}, name
        frontier, seen = [(start, ())], set()
        for _ in range(6):
            following = []
            for run, trace in frontier:
                for triple, (tid, value, _) in run.enabled().items():
                    target = value.next_state
                    expected = list(run.cursors)
                    expected[tid] = target
                    settle(fsm, expected)
                    moved = run.copy()
                    moved.fire(tid, target)
                    steps += 1
                    _assert_matches_full_scan(moved, expected, (name, trace + (triple,)))
                    config = (tuple(moved.cursors), frozenset(moved.fired))
                    if config not in seen:
                        seen.add(config)
                        following.append((moved, trace + (triple,)))
            frontier = following
    assert machines > 3000 and steps > 30000


# --- quiet moves against the general fire ---------------------------------------


def _quiet_machines():
    churn = importlib.import_module("workloads").CHURN_SOURCE
    sources = [DAQ_GLOBAL_SRC, pingpong_source(), churn]
    sources += [wide_source(k) for k in (1, 2, 3)]
    globals_ = [parse_global(source) for source in sources]
    globals_ += [protogen.random_global(seed) for seed in range(200)]
    for protocol in globals_:
        for role, report in sorted(project_all(protocol).items()):
            try:
                yield f"{protocol.name}@{role}", compile_fsm(report.protocol)
            except CompileError:
                continue


def _snapshot(run):
    return (list(run.cursors), set(run.fired), list(run.pending), list(run.started), run.open)


def test_quiet_moves_are_exactly_the_root_moves_that_change_one_cursor(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).parent.parent / "perfbench"))
    machines = quiet_steps = loud_root_steps = 0
    for name, fsm in _quiet_machines():
        machines += 1
        frontier, seen = [fsm.start.copy()], set()
        for _ in range(6):
            following = []
            for run in frontier:
                # the dispatch path names exactly the moves that a scan of
                # the active, uncommitted threads' transitions finds
                cursors = run.cursors
                scanned = {
                    (key.label, key.sender, key.receiver): (tid, value)
                    for tid in active_threads(fsm, cursors)
                    if not run.started[tid]
                    for key, value in fsm.threads[tid].transitions.items()
                    if key.state == cursors[tid]
                }
                enabled = run.enabled()
                assert {t: hit[:2] for t, hit in enabled.items()} == scanned, name
                for triple, (tid, value, quiet) in enabled.items():
                    general = run.copy()
                    general.fire(tid, value.next_state)
                    short = run.copy()
                    short.step((tid, value, True))
                    if quiet:
                        quiet_steps += 1
                        reference = run.copy()
                        reference._move(tid, value.next_state)
                        reference._enter(tid)
                        assert _snapshot(short) == _snapshot(reference), (name, triple)
                        assert _snapshot(short) == _snapshot(general), (name, triple)
                    elif tid == 0:
                        # a root step left on the general path does more than
                        # set its cursor to the target and clear its commitment
                        loud_root_steps += 1
                        assert _snapshot(short) != _snapshot(general), (name, triple)
                    config = (tuple(general.cursors), frozenset(general.fired))
                    if config not in seen:
                        seen.add(config)
                        following.append(general)
            frontier = following
    assert machines > 600 and quiet_steps > 1000 and loud_root_steps > 1000
