"""Command-line interface.

Subcommands: ``parse`` (check a protocol file and print its canonical form),
``project`` (global to local protocols), ``fsm`` (compile a local protocol
and print a summary or DOT), ``run`` (drive a scripted conversation through
the mediated broker), and ``bench`` (monitoring-overhead benchmarks).

Exit codes: 0 on success, 1 on parse, validation, projection, or runtime
violations; argparse itself exits 2 on usage errors.
"""

from __future__ import annotations

import argparse
import base64
import json
import sys
from collections import deque
from pathlib import Path
from typing import Dict, List

from . import bench as benchmod
from .endpoint import ConversationRuntime
from .fsm import compile as compile_fsm
from .fsm import to_dot
from .parser import ParseError, parse_global, parse_local, parse_protocol
from .printer import serialize
from .projection import project
from .protocol import ValidationError
from .store import ProtocolStore, local_ref
from .wire import Timeout, TransportError, load_invitation_config


def _read(path: str) -> str:
    return Path(path).read_text(encoding="utf-8")


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 1


def cmd_parse(args) -> int:
    try:
        protocol = parse_protocol(_read(args.file))
    except (ParseError, ValidationError, OSError) as exc:
        return _fail(str(exc))
    sys.stdout.write(serialize(protocol))
    return 0


def cmd_project(args) -> int:
    try:
        protocol = parse_global(_read(args.file))
    except (ParseError, ValidationError, OSError) as exc:
        return _fail(str(exc))
    roles = [args.role] if args.role else list(protocol.roles)
    try:
        reports = {role: project(protocol, role) for role in roles}
    except ValidationError as exc:
        return _fail(str(exc))
    for role, report in reports.items():
        for warning in report.warnings:
            print(f"warning: {role}: {warning.kind} at {warning.location}", file=sys.stderr)
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        for role, report in reports.items():
            target = out / local_ref(protocol.name, role)
            target.write_text(serialize(report.protocol), encoding="utf-8")
            print(target)
    else:
        for role, report in reports.items():
            sys.stdout.write(serialize(report.protocol))
            if len(roles) > 1:
                sys.stdout.write("\n")
    return 0


def cmd_fsm(args) -> int:
    try:
        protocol = parse_local(_read(args.file))
        machine = compile_fsm(protocol)
    except Exception as exc:
        return _fail(str(exc))
    if args.dot:
        sys.stdout.write(to_dot(machine))
        return 0
    transitions = sum(len(t.transitions) for t in machine.threads)
    joins = sum(len(t.joins) for t in machine.threads)
    print(f"protocol {machine.protocol_name} at {machine.self_role}")
    print(f"threads: {len(machine.threads)}")
    print(f"states: {machine.state_count()}")
    print(f"transitions: {transitions}")
    print(f"joins: {joins}")
    print(f"terminal states: {len(machine.terminal)}")
    return 0


def _decode_payload(text: str) -> Dict[str, object]:
    raw = json.loads(text)
    if not isinstance(raw, dict):
        raise ValueError("payload must be a JSON object")
    decoded = {}
    for key, value in raw.items():
        if isinstance(value, dict) and set(value) == {"__b64__"}:
            try:
                decoded[key] = base64.b64decode(value["__b64__"], validate=True)
            except (TypeError, ValueError):  # binascii.Error is a ValueError
                raise ValueError(f"payload field {key!r} is not valid base64") from None
        else:
            decoded[key] = value
    return decoded


def _parse_script(text: str) -> Dict[str, List[tuple]]:
    """Per-role command lists from `send/recv/stop` lines."""
    plans: Dict[str, List[tuple]] = {}
    for number, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split(None, 4)
        verb = parts[0]
        if verb == "send":
            if len(parts) < 4:
                raise ValueError(f"line {number}: send <role> <to> <label> [payload-json]")
            try:
                payload = _decode_payload(parts[4]) if len(parts) > 4 else {}
            except ValueError as exc:  # bad JSON or base64
                raise ValueError(f"line {number}: {exc}") from None
            plans.setdefault(parts[1], []).append(("send", parts[2], parts[3], payload))
        elif verb == "recv":
            if len(parts) != 3:
                raise ValueError(f"line {number}: recv <role> <from>")
            plans.setdefault(parts[1], []).append(("recv", parts[2]))
        elif verb == "stop":
            if len(parts) != 2:
                raise ValueError(f"line {number}: stop <role>")
            plans.setdefault(parts[1], []).append(("stop",))
        else:
            raise ValueError(f"line {number}: unknown command {verb!r}")
    return plans


def _run_plans(endpoints, plans: Dict[str, List[tuple]], failures: List[str]) -> None:
    """Run every role's commands in turns in this thread.

    Delivery is synchronous, so a turn runs one role's commands until a
    ``recv`` finds nothing queued, and the next role takes over. Once a round
    runs no command, nothing more can arrive, and each waiting ``recv`` fails
    with its own Timeout.
    """
    waiting = {role: deque(plan) for role, plan in plans.items()}
    stalled = False
    while any(waiting.values()):
        ran = False
        for role, plan in waiting.items():
            endpoint = endpoints[role]
            try:
                while plan:
                    command = plan[0]
                    if command[0] == "send":
                        endpoint.send(command[1], command[2], command[3])
                    elif command[0] == "recv":
                        try:
                            label, _ = endpoint.receive(command[1], timeout=0)
                        except Timeout:
                            if stalled:
                                raise
                            break
                        print(f"{role} <- {command[1]}: {label}")
                    else:
                        endpoint.stop()
                    plan.popleft()
                    ran = True
            except TransportError as exc:
                failures.append(f"{role}: {exc}")
                plan.clear()
        stalled = not ran


def cmd_run(args) -> int:
    try:
        protocol = parse_global(_read(args.file))
        config = load_invitation_config(args.config)
        plans = _parse_script(_read(args.script))
    except (ParseError, ValidationError, TransportError, OSError, ValueError) as exc:
        return _fail(str(exc))
    store = ProtocolStore()
    store.register_projections(protocol)
    runtime = ConversationRuntime(store, case=args.case, monitor_mode=args.mode)
    entries = {entry.role: entry for entry in config.entries}
    unknown = set(plans) - set(entries)
    if unknown:
        return _fail(f"script uses roles not in config: {', '.join(sorted(unknown))}")
    creator_role = protocol.roles[0]
    creator = runtime.endpoint(entries[creator_role].principal)
    try:
        creator.create(protocol.name, config)
    except TransportError as exc:
        return _fail(str(exc))
    endpoints = {creator_role: creator}
    failures: List[str] = []
    for role in plans:
        if role == creator_role:
            continue
        endpoint = runtime.endpoint(entries[role].principal)
        # Delivery is synchronous: the invitation is queued by now, or its
        # mediator refused it and recorded why.
        try:
            endpoints[role] = endpoint.join(role, timeout=0)
        except TransportError as exc:
            failures.append(f"{role}: {exc}")
    if not failures:
        _run_plans(endpoints, plans, failures)
    # Each refusing verdict once, as its monitor's trace entry, whether or
    # not enforcement dropped the message.
    violations = list(runtime.mediation_violations)
    for entry in config.entries:
        monitor = runtime.monitor_for(entry.principal)
        if monitor is not None:
            violations.extend(traced for traced in monitor.trace if not traced.ok)
    for role, endpoint in endpoints.items():
        if runtime.monitor_for(entries[role].principal) is not None:
            print(f"{role}: {endpoint.status()}")
    for failure in failures:
        print(f"error: {failure}", file=sys.stderr)
    for violation in violations:
        print(f"violation: {violation}", file=sys.stderr)
    runtime.close()
    return 1 if violations or failures else 0


def cmd_bench(args) -> int:
    cases = args.cases.split(",") if args.cases else list(benchmod.CASES)
    try:
        records = benchmod.bench_run(
            args.scenario,
            params=[int(p) for p in args.params.split(",")] if args.params else None,
            cases=cases,
            repetitions=args.reps,
            warmup=args.warmup,
        )
    except (KeyError, ValueError) as exc:
        return _fail(str(exc))
    report = benchmod.bench_report(records)
    if args.csv:
        Path(args.csv).write_text(report, encoding="utf-8")
        print(args.csv)
    else:
        sys.stdout.write(report)
    if args.json:
        out = Path(args.json)
        out.mkdir(parents=True, exist_ok=True)
        for scenario, document in benchmod.bench_json(records).items():
            target = out / f"BENCH_{scenario}.json"
            target.write_text(json.dumps(document, indent=2) + "\n", encoding="utf-8")
            # keep stdout pure CSV when the report is printed there
            print(target, file=sys.stdout if args.csv else sys.stderr)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="parley",
        description="Session protocol toolkit: parse, project, compile, run, bench.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("parse", help="validate a protocol file, print canonical form")
    p.add_argument("file")
    p.set_defaults(handler=cmd_parse)

    p = sub.add_parser("project", help="project a global protocol to local ones")
    p.add_argument("file")
    p.add_argument("--role", help="project only this role")
    p.add_argument("--out", help="write <Name>_<Role>.scr files to this directory")
    p.set_defaults(handler=cmd_project)

    p = sub.add_parser("fsm", help="compile a local protocol to its FSM")
    p.add_argument("file")
    p.add_argument("--dot", action="store_true", help="print Graphviz DOT")
    p.set_defaults(handler=cmd_fsm)

    p = sub.add_parser("run", help="run a scripted conversation under mediation")
    p.add_argument("file", help="global protocol file")
    p.add_argument("--config", required=True, help="invitation config YAML")
    p.add_argument("--script", required=True, help="send/recv/stop script")
    p.add_argument("--mode", choices=["enforce", "suppress"], default=None)
    p.add_argument("--case", choices=["monitor", "forwarder", "none"], default="monitor")
    p.set_defaults(handler=cmd_run)

    p = sub.add_parser("bench", help="run monitoring-overhead benchmarks")
    p.add_argument("--scenario", required=True, choices=sorted(benchmod.SCENARIOS))
    p.add_argument("--params", help="comma-separated parameter list")
    p.add_argument("--cases", help="comma-separated subset of Monitor,Forwarder,NoMonitor")
    p.add_argument("--reps", type=int, default=benchmod.DEFAULT_REPETITIONS)
    p.add_argument("--warmup", type=int, default=benchmod.DEFAULT_WARMUP)
    p.add_argument("--csv", help="write the report to this file")
    p.add_argument("--json", metavar="DIR", help="also write BENCH_<scenario>.json here")
    p.set_defaults(handler=cmd_bench)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":
    sys.exit(main())
