"""Benchmark of the mediated session runtime.

Run from the repository root:

    python3 perfbench/run.py --workload pingpong-long --seed 1 --seconds 12 --trace 0

It imports ``parley`` from ``src/`` of the same checkout, runs one workload
(see ``workloads.py``) and checks every delivered message against the
generated script. The lines before the last name each figure with its unit
and sample count. The last line is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``. With ``--trace 0`` the metrics are
the end-to-end ones; with ``--trace 1`` they are the per-layer ones, taken
from spans recorded around the runtime's layer boundaries, and the spans are
written to ``perfbench/out/``.

Exit status: 0 when every output was as expected, 1 when an output was
wrong, 2 when the checkout holds no ``src/parley`` to measure.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

SETUP_REPEATS = 11  # set-ups before the drive; the drive adds more


def _end_to_end(bench, lane, peak_mb) -> list:
    """(name, value, unit, samples) for every end-to-end metric."""
    from workloads import percentile

    return [
        ("setup_s", statistics.median(bench.setup_s), "s", len(bench.setup_s)),
        ("msg_us_p50", percentile(lane.msg_ns, 0.50) / 1e3, "us", len(lane.msg_ns)),
        ("msg_us_p90", percentile(lane.msg_ns, 0.90) / 1e3, "us", len(lane.msg_ns)),
        ("msgs_per_s", lane.rate(0), "1/s", len(lane.msg_ns)),
        ("session_setup_us_p50", percentile(lane.setup_ns, 0.50) / 1e3, "us", len(lane.setup_ns)),
        ("sessions_per_s", lane.rate(1), "1/s", lane.sessions),
        ("peak_rss_mb", peak_mb, "MB", 1),
    ]


def _workload_figures(bench, lanes) -> list:
    """Figures that apply to some workloads only; printed, not in the JSON."""
    from workloads import FORWARDER, NONE, percentile

    monitor = lanes[0]
    n = len(monitor.msg_ns)
    out = [("msg_us_p99", percentile(monitor.msg_ns, 0.99) / 1e3, "us", n)]
    for lane in lanes[1:]:
        prefix = {FORWARDER: "fwd", NONE: "bare"}[lane.case]
        n = len(lane.msg_ns)
        out.append((f"{prefix}_msg_us_p50", percentile(lane.msg_ns, 0.50) / 1e3, "us", n))
        out.append((f"{prefix}_msg_us_p99", percentile(lane.msg_ns, 0.99) / 1e3, "us", n))
    if monitor.payload_bytes:
        out.append(("payload_MBps", monitor.rate(2) / 1e6, "MB/s", len(monitor.msg_ns)))
    if len(monitor.setup_ns) >= 1000:
        p99 = percentile(monitor.setup_ns, 0.99) / 1e3
        out.append(("session_setup_us_p99", p99, "us", len(monitor.setup_ns)))
    if monitor.retained_kb:
        out.append(("retained_kb_per_session", monitor.retained_kb[0], "kB", monitor.sessions))
    if monitor.refusal_ns:
        n = len(monitor.refusal_ns)
        out.append(("refusal_us_p50", percentile(monitor.refusal_ns, 0.50) / 1e3, "us", n))
        out.append(("refusal_us_p99", percentile(monitor.refusal_ns, 0.99) / 1e3, "us", n))
    out.append(("fail_ratio", bench.failed / max(bench.attempted, 1), "ratio", bench.attempted))
    out.append(("wire_error_escapes", bench.wire_error_escapes, "count", bench.attempted))
    out.append(("voluntary_switches", bench.blocked, "count", 1))
    factors = bench.probe.factors
    out.append(("speed_factor_p50", statistics.median(factors), "ratio", len(factors)))
    return out


def _per_layer(bench, tracer, seconds, setups_end, units) -> list:
    from workloads import percentile

    lane = bench.lanes[0]
    bench.warm_up([lane])
    # Three quarters untraced, as the overhead's baseline, and the last quarter
    # traced: enough spans for every layer, few enough to keep in memory.
    bench.drive([lane], seconds * 3 / 4, time_setup=False)
    untraced_p50 = percentile(lane.msg_ns, 0.50) / 1e3
    lane.reset()
    escapes = bench.wire_error_escapes
    first = len(tracer)
    bench.tracer = tracer
    tracer.install()
    try:
        bench.drive([lane], seconds / 4, time_setup=False)
    finally:
        tracer.uninstall()
        bench.tracer = None
    msgs = len(lane.msg_ns)
    figures = tracer.layer_metrics(first, msgs, lane.sessions)
    figures.update(tracer.setup_metrics(setups_end))
    figures["monitor.sessions_live_per_session"] = statistics.median(lane.live_per_session)
    figures["endpoint.inbox_refused"] = float(lane.inbox_refused)
    figures["wire.error_escapes"] = float(bench.wire_error_escapes - escapes)
    figures["trace.overhead_us_per_msg"] = percentile(lane.msg_ns, 0.50) / 1e3 - untraced_p50
    figures["trace.spans_per_msg"] = (len(tracer) - first) / msgs
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    tracer.write(os.path.join(out_dir, f"trace-{bench.workload.name}.tsv.gz"))
    return [(name, value, units[name], msgs) for name, value in sorted(figures.items())]


def _layer_units() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    source = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(source, "parley", "__init__.py")):
        print(f"no parley sources under {source}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [source, HERE]
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    bench = workloads.Bench(workloads.WORKLOADS[args.workload](), args.seed)

    rows = []
    try:
        if args.trace:
            from tracing import Tracer

            tracer = Tracer()
            tracer.install()
            try:
                for _ in range(SETUP_REPEATS):
                    bench.set_up()
            finally:
                tracer.uninstall()
            rows = _per_layer(bench, tracer, args.seconds, len(tracer), _layer_units())
            extra = []
        else:
            for _ in range(SETUP_REPEATS):
                bench.set_up()
            bench.warm_up(bench.lanes)
            bench.drive(bench.lanes, args.seconds)
            peak_mb = workloads.peak_rss_mb()  # before sorting samples adds its own peak
            rows = _end_to_end(bench, bench.lanes[0], peak_mb)
            extra = _workload_figures(bench, bench.lanes)
    except Exception as exc:  # an exception escaping the library fails the run
        bench.outcome(False, f"{type(exc).__name__} escaped: {exc}")
        rows, extra = [], []

    for name, value, unit, samples in rows + extra:
        print(f"{args.workload} {name} {value:.6g} {unit} (n={samples})")
    for problem in bench.problems[:20]:
        print(f"{args.workload} WRONG: {problem}")
    print(f"{args.workload} failed {bench.failed} of {bench.attempted} operations "
          f"({bench.wire_error_escapes} undecodable publishes raised WireError)")
    result = {
        "correct": bench.correct,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, value, unit, _ in rows},
    }
    print(json.dumps(result))
    return 0 if bench.correct else 1


if __name__ == "__main__":
    sys.exit(main())
