"""CLI subcommands through main(argv)."""

import json
import platform
import time

import pytest

from parley.bench import CASES
from parley.cli import main

from conftest import DAQ_GLOBAL_SRC, DAQ_PRINCIPALS

CONFIG_SRC = "invitations:\n" + "".join(
    f"  - role: {role}\n"
    f"    principal name: {principal}\n"
    f"    local capability: DataAquisition_{role}.scr\n"
    for role, principal in DAQ_PRINCIPALS.items()
)

NOT_SUPPORTED_SCRIPT = """\
# the instrument rejects the request
send U A Request {"info": "x"}
recv A U
send A I Request {"info": "x"}
recv I A
send I A NotSupported
recv A I
send A I Stop
recv I A
send A U Stop
recv U A
"""

POLLING_SCRIPT = """\
send U A Request {"info": "wind"}
recv A U
send A I Request {"info": "wind"}
recv I A
send I A Support
recv A I
send A I Poll
recv I A
send I A Raw {"data": {"__b64__": "AAECAwQ="}}
recv A I
send I U Formatted {"data": {"__b64__": "cHJldHR5"}}
recv U I
send A I Poll
recv I A
send I A Stop
recv A I
send A U Stop
recv U A
"""


@pytest.fixture()
def workdir(tmp_path):
    (tmp_path / "daq.scr").write_text(DAQ_GLOBAL_SRC)
    (tmp_path / "daq.yml").write_text(CONFIG_SRC)
    return tmp_path


def test_parse_prints_canonical_form(workdir, capsys):
    assert main(["parse", str(workdir / "daq.scr")]) == 0
    out = capsys.readouterr().out
    assert out.startswith("global protocol DataAquisition(role U, role A, role I) {")
    assert "@{size(data) <= 512}" in out


def test_parse_reports_errors(workdir, capsys):
    bad = workdir / "bad.scr"
    bad.write_text("global protocol P(role A, role B) { Hello from A to B }")
    assert main(["parse", str(bad)]) == 1
    assert capsys.readouterr().err.startswith("error:")
    assert main(["parse", str(workdir / "missing.scr")]) == 1


def test_project_single_role(workdir, capsys):
    assert main(["project", str(workdir / "daq.scr"), "--role", "A"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("local protocol DataAquisition at A(role U, role A, role I) {")
    assert "Formatted" not in out


def test_project_all_roles_to_directory(workdir, capsys):
    outdir = workdir / "locals"
    assert main(["project", str(workdir / "daq.scr"), "--out", str(outdir)]) == 0
    captured = capsys.readouterr()
    for role in "UAI":
        path = outdir / f"DataAquisition_{role}.scr"
        assert path.exists()
        assert str(path) in captured.out
    assert "warning: U:" in captured.err  # the user cannot see who chose


def test_fsm_summary_and_dot(workdir, capsys):
    outdir = workdir / "locals"
    main(["project", str(workdir / "daq.scr"), "--out", str(outdir)])
    capsys.readouterr()
    local = str(outdir / "DataAquisition_A.scr")
    assert main(["fsm", local]) == 0
    out = capsys.readouterr().out
    assert "protocol DataAquisition at A" in out
    assert "threads: 1" in out
    assert main(["fsm", local, "--dot"]) == 0
    assert capsys.readouterr().out.startswith("digraph")


def test_fsm_rejects_global_protocol(workdir, capsys):
    assert main(["fsm", str(workdir / "daq.scr")]) == 1
    assert "error:" in capsys.readouterr().err


def test_run_clean_conversation(workdir, capsys):
    script = workdir / "ok.script"
    script.write_text(NOT_SUPPORTED_SCRIPT)
    code = main([
        "run", str(workdir / "daq.scr"),
        "--config", str(workdir / "daq.yml"),
        "--script", str(script),
    ])
    captured = capsys.readouterr()
    assert code == 0, captured.err
    for role in "UAI":
        assert f"{role}: completed" in captured.out
    assert "A <- I: NotSupported" in captured.out
    assert captured.err == ""


def test_run_with_stop_lines_reports_the_status_when_stopped(workdir, capsys):
    # each role stops after its last step, which releases its share
    script = workdir / "stop.script"
    script.write_text(NOT_SUPPORTED_SCRIPT + "stop U\nstop A\nstop I\n")
    code = main([
        "run", str(workdir / "daq.scr"),
        "--config", str(workdir / "daq.yml"),
        "--script", str(script),
    ])
    captured = capsys.readouterr()
    assert code == 0, captured.err
    for role in "UAI":
        assert f"{role}: completed" in captured.out
    assert captured.err == ""


def test_run_polling_with_bytes_payload(workdir, capsys):
    script = workdir / "poll.script"
    script.write_text(POLLING_SCRIPT)
    code = main([
        "run", str(workdir / "daq.scr"),
        "--config", str(workdir / "daq.yml"),
        "--script", str(script),
    ])
    captured = capsys.readouterr()
    assert code == 0, captured.err
    assert "A <- I: Raw" in captured.out
    assert "U <- I: Formatted" in captured.out


def test_run_flags_protocol_violation(workdir, capsys):
    # U's monitor drops the send, and no recv waits for it
    script = workdir / "bad.script"
    script.write_text("send U A Poll\n")
    code = main([
        "run", str(workdir / "daq.scr"),
        "--config", str(workdir / "daq.yml"),
        "--script", str(script),
    ])
    captured = capsys.readouterr()
    assert code == 1
    assert "violation:" in captured.err
    assert "U: violated" in captured.out


def test_run_stops_waiting_once_the_peer_script_has_ended(workdir, capsys):
    # U's monitor drops the Poll and U's script ends, so nothing more can
    # reach A: its recv gives up at once instead of after the full timeout
    script = workdir / "bad.script"
    script.write_text("send U A Poll\nrecv A U\n")
    began = time.monotonic()
    code = main([
        "run", str(workdir / "daq.scr"),
        "--config", str(workdir / "daq.yml"),
        "--script", str(script),
    ])
    assert time.monotonic() - began < 5
    captured = capsys.readouterr()
    assert code == 1
    assert "error: A: nothing from U" in captured.err
    assert "U: violated" in captured.out


@pytest.mark.parametrize("mode, refusers", [("enforce", ["U"]), ("suppress", ["U", "A"])])
def test_run_prints_each_refusal_once(workdir, capsys, mode, refusers):
    # enforce drops the Poll at U's monitor; suppress forwards it, and A's
    # monitor refuses it as well
    script = workdir / "bad.script"
    script.write_text("send U A Poll\n")
    code = main([
        "run", str(workdir / "daq.scr"),
        "--config", str(workdir / "daq.yml"),
        "--script", str(script),
        "--mode", mode,
    ])
    captured = capsys.readouterr()
    assert code == 1
    violations = [line for line in captured.err.splitlines() if line.startswith("violation:")]
    assert [line.split("role='")[1][0] for line in violations] == refusers
    assert all("label='Poll'" in line and "ok=False" in line for line in violations)


def test_run_script_errors(workdir, capsys):
    script = workdir / "odd.script"
    script.write_text("shout U A Hello\n")
    assert main([
        "run", str(workdir / "daq.scr"),
        "--config", str(workdir / "daq.yml"),
        "--script", str(script),
    ]) == 1
    assert "unknown command" in capsys.readouterr().err

    script.write_text("send Z A Request {}\n")
    assert main([
        "run", str(workdir / "daq.scr"),
        "--config", str(workdir / "daq.yml"),
        "--script", str(script),
    ]) == 1
    assert "not in config" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["5", '"AAE"', '"AA==AA=="', '"é"', "[1]", "null"])
def test_run_reports_a_bad_base64_payload_as_a_script_error(workdir, capsys, value):
    script = workdir / "b64.script"
    script.write_text('send U A Request {"info": "x"}\nsend I A Raw {"x": {"__b64__": %s}}\n' % value)
    assert main([
        "run", str(workdir / "daq.scr"),
        "--config", str(workdir / "daq.yml"),
        "--script", str(script),
    ]) == 1
    assert capsys.readouterr().err == "error: line 2: payload field 'x' is not valid base64\n"


def test_run_refused_invitation_exits_at_once_with_the_reason(workdir, capsys):
    # I's mediator cannot load Nope.scr and refuses the invitation before
    # anyone joins, so the run ends without waiting for it
    (workdir / "nope.yml").write_text(CONFIG_SRC.replace("DataAquisition_I.scr", "Nope.scr"))
    script = workdir / "ok.script"
    script.write_text(NOT_SUPPORTED_SCRIPT)
    began = time.monotonic()
    code = main([
        "run", str(workdir / "daq.scr"),
        "--config", str(workdir / "nope.yml"),
        "--script", str(script),
    ])
    assert time.monotonic() - began < 5
    captured = capsys.readouterr()
    assert code == 1
    assert "error: I: no invitation for instr" in captured.err
    [violation] = [line for line in captured.err.splitlines() if line.startswith("violation:")]
    assert "init_session failed: " in violation and "Nope.scr" in violation
    assert "<-" not in captured.out  # no script line ran


def test_bench_writes_csv(workdir, capsys):
    target = workdir / "report.csv"
    code = main([
        "bench", "--scenario", "payload-size",
        "--params", "64", "--reps", "2", "--warmup", "0",
        "--csv", str(target),
    ])
    assert code == 0
    assert str(target) in capsys.readouterr().out
    lines = target.read_text().splitlines()
    assert lines[0].startswith("scenario,parameter,case,")
    assert any(line.startswith("payload-size,64,Forwarder") and line.endswith(",0.00")
               for line in lines)


def test_bench_writes_json_beside_the_csv(workdir, capsys):
    out = workdir / "results"
    code = main([
        "bench", "--scenario", "session-length",
        "--params", "2,3", "--reps", "3", "--warmup", "0", "--json", str(out),
    ])
    assert code == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("scenario,parameter,case,")  # the CSV, unchanged
    assert str(out / "BENCH_session-length.json") in captured.err
    document = json.loads((out / "BENCH_session-length.json").read_text())
    assert document["scenario"] == "session-length"
    cells = {(c["parameter"], c["case"]): c for c in document["cells"]}
    assert set(cells) == {(p, case) for p in (2, 3) for case in CASES}
    for (param, case), cell in cells.items():
        assert cell["repetitions"] == 3
        assert cell["messages"] == 2 * param + 1
        assert cell["mean_ns"] > 0 and cell["stddev_ns"] >= 0
        base = cells[param, "Forwarder"]["mean_ns"]
        assert cell["overhead_vs_forwarder_pct"] == pytest.approx(
            (cell["mean_ns"] - base) / base * 100
        )
        assert cell["over_forwarder_ns_per_msg"] == pytest.approx(
            (cell["mean_ns"] - base) / (2 * param + 1)
        )
    assert cells[2, "Forwarder"]["overhead_vs_forwarder_pct"] == 0
    timed_on = document["environment"]
    assert timed_on["python"] == platform.python_version()
    assert timed_on["implementation"] == platform.python_implementation()
    assert timed_on["platform"] == platform.platform()
    monotonic = time.get_clock_info("monotonic")
    assert timed_on["clock"] == {
        "function": "time.monotonic_ns",
        "implementation": monotonic.implementation,
        "resolution_s": monotonic.resolution,
    }


def test_bench_json_without_forwarder_leaves_overhead_null(workdir, capsys):
    out = workdir / "results"
    assert main([
        "bench", "--scenario", "payload-size", "--params", "64", "--cases", "Monitor",
        "--reps", "2", "--warmup", "0", "--csv", str(workdir / "r.csv"), "--json", str(out),
    ]) == 0
    assert str(out / "BENCH_payload-size.json") in capsys.readouterr().out
    [cell] = json.loads((out / "BENCH_payload-size.json").read_text())["cells"]
    assert cell["overhead_vs_forwarder_pct"] is None
    assert cell["over_forwarder_ns_per_msg"] is None


def test_bench_rejects_unknown_case(workdir, capsys):
    assert main([
        "bench", "--scenario", "payload-size",
        "--params", "64", "--cases", "Turbo", "--reps", "1", "--warmup", "0",
    ]) == 1
    assert "Turbo" in capsys.readouterr().err


@pytest.mark.parametrize(
    "scenario,extra,expected",
    [
        ("session-length", ["--params", "abc"], "invalid literal"),
        ("protocol-size", ["--params", "0", "--json", "out"], "parameter 0 is below 1"),
        ("protocol-size", ["--params", "-1"], "parameter -1 is below 1"),
        ("payload-size", ["--params", "64", "--reps", "0"], "repetitions 0 is below 1"),
    ],
    ids=["not-a-number", "zero-width", "negative-width", "no-repetitions"],
)
def test_bench_reports_a_bad_parameter_as_an_error(workdir, capsys, scenario, extra, expected):
    extra = [str(workdir / arg) if arg == "out" else arg for arg in extra]
    assert main(["bench", "--scenario", scenario, "--warmup", "0", *extra]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and expected in captured.err
    assert captured.out == ""  # refused before anything was timed
    assert not (workdir / "out").exists()


def test_usage_errors_exit_2(workdir):
    with pytest.raises(SystemExit) as info:
        main([])
    assert info.value.code == 2
    with pytest.raises(SystemExit) as info:
        main(["bench", "--scenario", "no-such-scenario"])
    assert info.value.code == 2
