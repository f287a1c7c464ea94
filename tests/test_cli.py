"""Command-line behavior: exit codes, output bytes, REPL equivalence."""

from __future__ import annotations

import io
import json
import os
import pathlib
import re
import subprocess
import sys

import pytest

import pantagruel
from pantagruel import (
    TriggerMode,
    check_program,
    format_program,
    parse_program,
    parse_script,
    run_trace,
)
from pantagruel import serialize
from pantagruel.cli import main

from support import (
    BUILDING_FULL,
    BUILDING_RULES_13,
    BUILDING_RUNNABLE,
    TWO_KEY_CONFLICT_PROGRAM,
    TWO_KEY_CONFLICT_SCRIPT,
    program_source,
)

GOLDEN_SCRIPT = """\
event m10.detected = true
tick
event thermo.temperature = 30
tick
event thermo.temperature = 29
tick
event thermo.temperature = 30
tick
"""

DEMOS = pathlib.Path(__file__).resolve().parent.parent / "demos"

CONFLICT_PROGRAM = program_source(
    "when event detected from m:MotionDetector value = true "
    "trigger action switch(true) on l:Light end\n",
    "when event detected from m:MotionDetector value = true "
    "trigger action switch(false) on l:Light end\n",
)


@pytest.fixture()
def files(tmp_path):
    def write(name, content):
        path = tmp_path / name
        path.write_text(content, encoding="utf-8")
        return str(path)

    return write


# ── check ────────────────────────────────────────────────────────


def test_check_clean_program(files, capsys):
    path = files("ok.ptg", BUILDING_RULES_13)
    assert main(["check", path]) == 0
    out = capsys.readouterr()
    assert out.out == "" and out.err == ""


def test_check_rejects_aggregate_rule(files, capsys):
    path = files("full.ptg", BUILDING_FULL)
    assert main(["check", path]) == 1
    assert "all ... groupby" in capsys.readouterr().err


def test_check_type_mismatch_points_at_literal(files, capsys):
    src = "interface Light { attribute room : Integer }\nl10:Light { room : true }\nrules end"
    path = files("bad.ptg", src)
    assert main(["check", path]) == 1
    err = capsys.readouterr().err
    # <path>:<line>:<col>: <severity>: <message>, at the literal's span
    assert f"{path}:2:20: error:" in err


def test_check_parse_errors_reported(files, capsys):
    path = files("broken.ptg", "interface { }\nrules end")
    assert main(["check", path]) == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("numeral", ["²", "٣"])
def test_check_rejects_non_ascii_numerals(files, capsys, numeral):
    src = f"interface I {{ attribute r : Integer }}\nx:I {{ r : {numeral} }}\nrules end\n"
    path = files("numeral.ptg", src)
    assert main(["check", path]) == 1
    assert f"{path}:2:11: error: invalid character {numeral!r}" in capsys.readouterr().err


@pytest.mark.parametrize("name", ["x²", "é", "xé"])
def test_check_rejects_non_ascii_identifiers(files, capsys, name):
    src = f"interface I {{ attribute r : Integer }}\n{name}:I {{ r : 1 }}\nrules end\n"
    path = files("ident.ptg", src)
    assert main(["check", path]) == 1
    assert "error: invalid character" in capsys.readouterr().err


LONG_NUMERAL = "9" * 5000


@pytest.mark.parametrize(
    "src, where",
    [
        (f"x:I {{ r : {LONG_NUMERAL} }}\nrules end\n", "2:11"),
        (f"x:I {{ r : 1 }}\nrules ({LONG_NUMERAL}) when event e from x value = 1 "
         "trigger action a(1) on x end end\n", "3:8"),
        ("x:I { r : 1 }\nrules when event e from x value = 1 "
         f"trigger action a({LONG_NUMERAL}) on x end end\n", "3:54"),
    ],
    ids=["initializer", "label", "argument"],
)
def test_check_reports_numerals_too_long_to_read(files, capsys, src, where):
    header = "interface I { attribute r : Integer event e : Integer action a ( Integer ) }\n"
    path = files("long.ptg", header + src)
    assert main(["check", path]) == 1
    assert f"{path}:{where}: error: numeral too long (5000 digits)" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["bogus"],
        ["run", "PROGRAM"],
        ["run", "PROGRAM", "--script", "SCRIPT", "--max-ticks", "x"],
        ["repl", "PROGRAM", "--mode", "sideways"],
    ],
    ids=["no-command", "unknown-command", "no-script", "max-ticks-not-a-number", "bad-mode"],
)
def test_malformed_command_line_exits_1_not_the_io_code(files, capsys, argv):
    """A usage error is an input error (exit 1), told apart from an
    unreadable file (exit 2)."""
    program = files("b.ptg", BUILDING_RUNNABLE)
    script = files("b.evs", GOLDEN_SCRIPT)
    argv = [{"PROGRAM": program, "SCRIPT": script}.get(arg, arg) for arg in argv]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("usage: pantagruel")


@pytest.mark.parametrize("command", [[], ["check"], ["run"], ["repl"]])
def test_help_exits_0(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([*command, "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: pantagruel")


def test_check_missing_file_is_io_error(capsys):
    assert main(["check", "/nonexistent/program.ptg"]) == 2
    assert "cannot read" in capsys.readouterr().err


def test_check_binary_file_is_io_error(tmp_path, capsys):
    path = tmp_path / "junk.ptg"
    path.write_bytes(b"\xff\xfe\x00garbage\x80")
    assert main(["check", str(path)]) == 2
    assert "cannot read" in capsys.readouterr().err


def test_repl_undecodable_stream_exits_cleanly(files, capsys, monkeypatch):
    class BadStdin:
        def isatty(self):
            return False

        def readline(self):
            raise UnicodeDecodeError("utf-8", b"\xff", 0, 1, "invalid start byte")

    program = files("b.ptg", BUILDING_RUNNABLE)
    monkeypatch.setattr("sys.stdin", BadStdin())
    assert main(["repl", program]) == 1
    assert "undecodable" in capsys.readouterr().err


def test_check_warnings_alone_still_exit_zero(files, capsys):
    src = "interface Light { attribute room : Integer }\nl10:Light {}\nrules end"
    path = files("warn.ptg", src)
    assert main(["check", path]) == 0
    assert "warning:" in capsys.readouterr().err


# ── run ──────────────────────────────────────────────────────────


def test_run_emits_byte_identical_traces(files, capsys):
    program = files("b.ptg", BUILDING_RUNNABLE)
    script = files("b.evs", GOLDEN_SCRIPT)
    argv = ["run", program, "--script", script, "--emit-initial"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    second = capsys.readouterr().out
    assert first == second
    assert first.startswith("tick 0\n")


def test_run_jsonl_trace(files, capsys):
    program = files("b.ptg", BUILDING_RUNNABLE)
    script = files("b.evs", GOLDEN_SCRIPT)
    assert main(["run", program, "--script", script, "--format", "jsonl"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 4
    ticks = [json.loads(line) for line in lines]
    assert [t["tick"] for t in ticks] == [1, 2, 3, 4]
    assert ticks[1]["entities"]["fan10"]["events"]["setSpeed"] == 10


def test_run_level_mode_flag(files, capsys):
    # under level reading the motion rule refires on the quiet tick, so the
    # switch events are set again after the reset
    program = files("b.ptg", BUILDING_RUNNABLE)
    script = files("b.evs", "event m10.detected = true\ntick\ntick\n")
    argv = ["run", program, "--script", script, "--format", "jsonl", "--mode", "level"]
    assert main(argv) == 0
    ticks = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert ticks[1]["entities"]["l10"]["events"]["switch"] is True
    assert any(f["rule"] == 1 for f in ticks[1]["fired"])


def test_run_max_ticks(files, capsys):
    program = files("b.ptg", BUILDING_RUNNABLE)
    script = files("b.evs", GOLDEN_SCRIPT)
    assert main(["run", program, "--script", script, "--format", "jsonl", "--max-ticks", "2"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 2


@pytest.mark.parametrize("command", ["run", "repl"])
def test_negative_max_ticks_is_an_error(files, capsys, monkeypatch, command):
    program = files("b.ptg", BUILDING_RUNNABLE)
    script = files("b.evs", GOLDEN_SCRIPT)
    monkeypatch.setattr("sys.stdin", io.StringIO(GOLDEN_SCRIPT))
    argv = [command, program, "--max-ticks", "-1"]
    if command == "run":
        argv += ["--script", script]
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: --max-ticks must be 0 or more, got -1\n"


def test_run_comments_only_script_is_empty_trace(files, capsys):
    program = files("b.ptg", BUILDING_RUNNABLE)
    script = files("empty.evs", "# nothing here\n")
    assert main(["run", program, "--script", script]) == 0
    assert capsys.readouterr().out == ""


def test_run_script_syntax_error(files, capsys):
    program = files("b.ptg", BUILDING_RUNNABLE)
    script = files("bad.evs", "tick\nwat\n")
    assert main(["run", program, "--script", script]) == 1
    assert "line 2" in capsys.readouterr().err


@pytest.mark.parametrize("numeral", ["²", "٣"])
def test_run_rejects_non_ascii_numerals(files, capsys, numeral):
    program = files("b.ptg", BUILDING_RUNNABLE)
    script = files("bad.evs", f"event thermo.temperature = {numeral}\ntick\n")
    assert main(["run", program, "--script", script]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"line 1: invalid value {numeral!r}" in captured.err


def test_run_refuses_non_ascii_identifiers(files, capsys):
    program = files("ident.ptg", "interface I { event e : Boolean }\nx²:I { }\nrules end\n")
    script = files("x.evs", "tick\n")
    assert main(["run", program, "--script", script]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: invalid character '²'" in captured.err


@pytest.mark.parametrize(
    "line",
    [
        f"event thermo.temperature = {LONG_NUMERAL}",
        f"deploy m30:MotionDetector {{ room : {LONG_NUMERAL} }}",
    ],
    ids=["event", "deploy"],
)
def test_run_reports_numerals_too_long_to_read(files, capsys, line):
    program = files("b.ptg", BUILDING_RUNNABLE)
    script = files("long.evs", f"{line}\ntick\n")
    assert main(["run", program, "--script", script]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "line 1: " in captured.err and "numeral too long (5000 digits)" in captured.err


def test_run_missing_script_is_io_error(files, capsys):
    program = files("b.ptg", BUILDING_RUNNABLE)
    assert main(["run", program, "--script", "/nonexistent.evs"]) == 2
    capsys.readouterr()


def test_run_refuses_unchecked_program(files, capsys):
    program = files("full.ptg", BUILDING_FULL)
    script = files("b.evs", GOLDEN_SCRIPT)
    assert main(["run", program, "--script", script]) == 1
    capsys.readouterr()


def test_run_conflict_exits_3_and_names_the_key(files, capsys):
    program = files("c.ptg", CONFLICT_PROGRAM)
    script = files("c.evs", "event m10.detected = true\ntick\n")
    assert main(["run", program, "--script", script]) == 3
    err = capsys.readouterr().err
    assert "conflict at tick 1" in err
    assert "l10.switch" in err


def test_run_no_strict_conflicts_continues(files, capsys):
    program = files("c.ptg", CONFLICT_PROGRAM)
    script = files("c.evs", "event m10.detected = true\ntick\ntick\n")
    argv = ["run", program, "--script", script, "--no-strict-conflicts", "--format", "jsonl"]
    assert main(argv) == 0
    ticks = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert len(ticks) == 2
    assert "l10.switch" in ticks[0]["conflict"]
    assert ticks[0]["fired"] == []
    assert ticks[0]["entities"]["l10"]["events"]["switch"] is None  # effects dropped
    assert ticks[1]["conflict"] is None


def test_run_reports_the_least_of_several_conflicts(files, capsys):
    """x and y each clash on a and b: the least entity id, then the least
    key, is reported, in whichever order the rules wrote them."""
    prog = files("c.ptg", TWO_KEY_CONFLICT_PROGRAM)
    script = files("c.evs", TWO_KEY_CONFLICT_SCRIPT)
    message = "conflicting values for x.a: True vs False"

    assert main(["run", prog, "--script", script, "--no-strict-conflicts"]) == 0
    out = capsys.readouterr().out
    assert [line for line in out.splitlines() if line.startswith("conflict:")] == [
        f"conflict: {message}"
    ]

    assert main(["run", prog, "--script", script]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"conflict at tick 1: {message}\n"


LONG_CHAIN_SPEC = "interface I { event e : Boolean action a ( Integer ) }\nx:I {}\n"


def _long_chain_program(connective: str, length: int = 1200) -> str:
    """One rule whose condition or body chains ``length`` operands with
    ``connective``; each chain fires on ``x.e`` turning true."""
    atom = "event e from x value = {}"
    call = "action a({}) on x"
    condition, body = atom.format("true"), call.format(1)
    if connective == "and":
        condition = " and ".join([atom.format("true")] * length)
    elif connective == "or":  # only the last operand holds
        condition = " or ".join([atom.format("false")] * (length - 1) + [condition])
    elif connective == ",":  # each call overwrites the last
        body = ", ".join(call.format(k) for k in range(length))
    else:
        body = " || ".join([call.format(1)] * length)
    return f"{LONG_CHAIN_SPEC}rules when {condition} trigger {body} end end\n"


@pytest.mark.parametrize("connective, written", [("and", 1), ("or", 1), (",", 1199), ("||", 1)])
def test_long_chains_check_run_and_format(files, capsys, connective, written):
    source = _long_chain_program(connective)
    program = files("long.ptg", source)
    script = files("one.evs", "event x.e = true\ntick\n")
    assert main(["check", program]) == 0
    assert main(["run", program, "--script", script]) == 0
    out = capsys.readouterr().out
    assert "fired:\n  rule 1  {x=x}\n" in out
    assert f"x  I  - | a={written} e=true\n" in out
    # compare text, not trees: dataclass equality recurses down the chain
    text = format_program(parse_program(source))
    assert format_program(parse_program(text)) == text
    assert text.count(f"{connective} ") == 1199


def test_run_external_error_reports_tick(files, capsys):
    program = files("b.ptg", BUILDING_RUNNABLE)
    script = files("b.evs", "tick\nevent ghost.detected = true\ntick\n")
    assert main(["run", program, "--script", script]) == 1
    assert "tick 2" in capsys.readouterr().err


# ── repl ─────────────────────────────────────────────────────────


def _repl(monkeypatch, capsys, argv, lines):
    monkeypatch.setattr("sys.stdin", io.StringIO(lines))
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_repl_matches_scripted_run(files, capsys, monkeypatch):
    program = files("b.ptg", BUILDING_RUNNABLE)
    script = files("b.evs", GOLDEN_SCRIPT)
    assert main(["run", program, "--script", script]) == 0
    scripted = capsys.readouterr().out
    code, out, _ = _repl(
        monkeypatch, capsys, ["repl", program], GOLDEN_SCRIPT + "quit\n"
    )
    assert code == 0
    assert out == scripted


def test_a_lone_carriage_return_ends_no_line_under_run_or_repl(tmp_path, capsys, monkeypatch):
    """``run`` reads a script's line breaks as written, so a lone ``\r``
    in a comment ends no line, as in the repl: the change after it is
    part of the comment for both.  A CRLF script still runs as its LF
    twin does."""
    program = tmp_path / "b.ptg"
    program.write_bytes(BUILDING_RUNNABLE.encode())
    script = "# note\revent m10.detected = true\ntick\n"
    evs = tmp_path / "cr.evs"
    evs.write_bytes(script.encode())
    assert main(["run", str(program), "--script", str(evs), "--format", "jsonl"]) == 0
    scripted = capsys.readouterr().out
    code, out, _ = _repl(monkeypatch, capsys, ["repl", str(program), "--format", "jsonl"], script)
    assert code == 0
    assert out == scripted
    assert json.loads(scripted)["changes"] == []
    outputs = []
    for text in (GOLDEN_SCRIPT, GOLDEN_SCRIPT.replace("\n", "\r\n")):
        evs.write_bytes(text.encode())
        assert main(["run", str(program), "--script", str(evs)]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]


def test_repl_tick_without_changes(files, capsys, monkeypatch):
    program = files("b.ptg", BUILDING_RUNNABLE)
    code, out, _ = _repl(monkeypatch, capsys, ["repl", program, "--format", "jsonl"], "tick\n")
    assert code == 0
    record = json.loads(out)
    assert record["changes"] == [] and record["tick"] == 1


def test_repl_state_and_quit(files, capsys, monkeypatch):
    program = files("b.ptg", BUILDING_RUNNABLE)
    code, out, _ = _repl(monkeypatch, capsys, ["repl", program], "state\nquit\nstate\n")
    assert code == 0
    assert "m10" in out and "tick" not in out  # state only, nothing after quit


def test_repl_malformed_line_continues(files, capsys, monkeypatch):
    program = files("b.ptg", BUILDING_RUNNABLE)
    code, out, err = _repl(
        monkeypatch,
        capsys,
        ["repl", program, "--format", "jsonl"],
        "wat\nevent m10.detected = true\ntick\nquit\n",
    )
    assert code == 0
    assert "error:" in err
    assert json.loads(out)["entities"]["l10"]["events"]["switch"] is True


def test_repl_non_ascii_numeral_is_an_error_and_continues(files, capsys, monkeypatch):
    program = files("b.ptg", BUILDING_RUNNABLE)
    code, out, err = _repl(
        monkeypatch,
        capsys,
        ["repl", program, "--format", "jsonl"],
        "event thermo.temperature = ²\nevent m10.detected = true\ntick\nquit\n",
    )
    assert code == 0
    assert "error: invalid value '²'" in err
    record = json.loads(out)
    assert record["entities"]["thermo"]["events"]["temperature"] is None
    assert record["entities"]["l10"]["events"]["switch"] is True


def test_repl_numeral_too_long_is_an_error_and_continues(files, capsys, monkeypatch):
    program = files("b.ptg", BUILDING_RUNNABLE)
    code, out, err = _repl(
        monkeypatch,
        capsys,
        ["repl", program, "--format", "jsonl"],
        f"event thermo.temperature = {LONG_NUMERAL}\nevent m10.detected = true\ntick\nquit\n",
    )
    assert code == 0
    assert "error: numeral too long (5000 digits)" in err
    record = json.loads(out)
    assert record["entities"]["thermo"]["events"]["temperature"] is None
    assert record["entities"]["l10"]["events"]["switch"] is True


def test_repl_emit_initial(files, capsys, monkeypatch):
    program = files("b.ptg", BUILDING_RUNNABLE)
    code, out, _ = _repl(
        monkeypatch, capsys, ["repl", program, "--emit-initial", "--format", "jsonl"], "quit\n"
    )
    assert code == 0
    assert json.loads(out)["tick"] == 0


@pytest.mark.parametrize("max_ticks", [0, 1, 3])
def test_repl_stops_after_max_ticks(files, capsys, monkeypatch, max_ticks):
    program = files("b.ptg", BUILDING_RUNNABLE)
    script = files("b.evs", GOLDEN_SCRIPT)
    argv = ["--format", "jsonl", "--max-ticks", str(max_ticks)]
    assert main(["run", program, "--script", script, *argv]) == 0
    scripted = capsys.readouterr().out
    code, out, _ = _repl(monkeypatch, capsys, ["repl", program, *argv], GOLDEN_SCRIPT)
    assert code == 0
    assert [json.loads(line)["tick"] for line in out.splitlines()] == list(
        range(1, max_ticks + 1)
    )
    assert out == scripted


def test_repl_conflict_strict_exits_3(files, capsys, monkeypatch):
    program = files("c.ptg", CONFLICT_PROGRAM)
    code, _, err = _repl(
        monkeypatch, capsys, ["repl", program], "event m10.detected = true\ntick\n"
    )
    assert code == 3
    assert "conflict at tick 1" in err


@pytest.mark.parametrize("emit_initial", [[], ["--emit-initial"]])
def test_run_and_repl_print_the_same_records_through_a_failing_tick(
    files, capsys, monkeypatch, emit_initial
):
    """A strict conflict on tick 2: both commands have already printed the
    records before it, report it alike and exit 3."""
    lines = "tick\nevent m10.detected = true\ntick\ntick\n"
    program = files("c.ptg", CONFLICT_PROGRAM)
    script = files("c.evs", lines)
    assert main(["run", program, "--script", script, *emit_initial]) == 3
    scripted = capsys.readouterr()
    code, out, err = _repl(monkeypatch, capsys, ["repl", program, *emit_initial], lines)
    assert code == 3
    assert out == scripted.out
    assert err == scripted.err
    assert err.startswith("conflict at tick 2: ")
    assert [line for line in out.splitlines() if line.startswith("tick ")] == [
        f"tick {n}" for n in range(0 if emit_initial else 1, 2)
    ]


@pytest.mark.parametrize("end", ["", "quit\n"], ids=["eof", "quit"])
def test_repl_exits_1_at_the_end_of_its_input_after_a_refused_tick(
    files, capsys, monkeypatch, end
):
    """A refused last tick: ``repl`` reports it, reads on and exits 1 at
    the end of its input, with the records and stderr of ``run`` on the
    same lines, which exits 1 too.  A later clean tick does not clear it."""
    lines = "tick\nevent ghost.detected = true\ntick\n"
    program = files("b.ptg", BUILDING_RUNNABLE)
    script = files("b.evs", lines)
    assert main(["run", program, "--script", script]) == 1
    scripted = capsys.readouterr()
    code, out, err = _repl(monkeypatch, capsys, ["repl", program], lines + end)
    assert code == 1
    assert (out, err) == (scripted.out, scripted.err)
    code, out, _ = _repl(monkeypatch, capsys, ["repl", program], lines + "wat\ntick\n" + end)
    assert code == 1
    assert [line for line in out.splitlines() if line.startswith("tick ")] == ["tick 1", "tick 2"]


def _fresh_store_text(store):
    """``store_text(store)`` from a text memo that has rendered nothing."""
    kept = serialize._memos["text"]
    serialize._memos["text"] = type(kept)()
    try:
        return serialize.store_text(store)
    finally:
        serialize._memos["text"] = kept


@pytest.mark.parametrize("mode", list(TriggerMode))
@pytest.mark.parametrize("fmt", ["text", "jsonl"])
@pytest.mark.parametrize("script", ["trace.evs", "deployment.evs"])
def test_repl_states_between_ticks_leave_the_records_as_run_prints_them(
    capsys, monkeypatch, script, fmt, mode
):
    """A ``state`` line after every ``tick``: the repl prints ``run``'s
    records with, after each, the state block a fresh memo renders.  In
    ``text`` the records by lineage and the states without it take turns
    on one memo."""
    program, lines = str(DEMOS / "building.ptg"), (DEMOS / script).read_text()
    argv = ["--format", fmt, "--mode", mode.value]
    assert main(["run", program, "--script", str(DEMOS / script), *argv]) == 0
    scripted = capsys.readouterr().out
    if fmt == "jsonl":
        records = scripted.splitlines(keepends=True)
    else:
        records = re.split(r"(?m)^(?=tick )", scripted)[1:]
    checked = check_program(parse_program((DEMOS / "building.ptg").read_text()))
    snapshots = [r.snapshot for r in run_trace(checked, parse_script(lines), mode)]
    assert len(records) == len(snapshots) == 4
    with_states = re.sub(r"(?m)^tick$", "tick\nstate", lines) + "quit\n"
    code, out, err = _repl(monkeypatch, capsys, ["repl", program, *argv], with_states)
    assert (code, err) == (0, "")
    assert out == "".join(map("".join, zip(records, map(_fresh_store_text, snapshots))))


def test_run_writes_each_record_before_it_steps_the_next_tick(files, monkeypatch):
    """On its k-th call, ``step`` finds k - 1 records on stdout."""
    program = files("b.ptg", BUILDING_RUNNABLE)
    script = files("b.evs", GOLDEN_SCRIPT)
    stdout = io.StringIO()
    monkeypatch.setattr("sys.stdout", stdout)
    real_step = pantagruel.step
    written_before = []

    def watching_step(*args, **kwargs):
        written_before.append(stdout.getvalue().count("\n"))
        return real_step(*args, **kwargs)

    monkeypatch.setattr("pantagruel.runtime.step", watching_step)
    monkeypatch.setattr("pantagruel.cli.step", watching_step)
    assert main(["run", program, "--script", script, "--format", "jsonl"]) == 0
    assert written_before == [0, 1, 2, 3]


@pytest.mark.parametrize("command", ["run", "repl"])
def test_an_internal_error_is_exit_4_with_one_line_and_no_traceback(
    files, capsys, monkeypatch, command
):
    """An exception no command expects (here from ``step`` on tick 2,
    with a message of two lines) is exit 4 and one ``error: internal
    error:`` line on stderr; the record of tick 1 is already printed."""
    program = files("b.ptg", BUILDING_RUNNABLE)
    script = files("b.evs", GOLDEN_SCRIPT)
    real_step = pantagruel.step

    def failing_step(state, *args, **kwargs):
        if state.tick == 1:
            raise RuntimeError("the evaluator broke\non two lines")
        return real_step(state, *args, **kwargs)

    monkeypatch.setattr("pantagruel.cli.step", failing_step)
    if command == "run":
        code = main(["run", program, "--script", script])
        out, err = capsys.readouterr()
    else:
        code, out, err = _repl(monkeypatch, capsys, ["repl", program], GOLDEN_SCRIPT)
    assert code == 4
    assert err.splitlines() == ["error: internal error: RuntimeError: the evaluator broke on two lines"]
    assert [line for line in out.splitlines() if line.startswith("tick ")] == ["tick 1"]


# ── a reader that closes stdout early ────────────────────────────

# 600 ticks of motion on and off: far more trace than a pipe buffers, so the
# interpreter is still writing when the reader goes away.
LONG_SCRIPT = "".join(
    f"event m10.detected = {'true' if i % 2 == 0 else 'false'}\ntick\n" for i in range(600)
)


def _long_run(files, command):
    """The interpreter's command line for a 600-tick run of ``command``,
    the script file it reads (``repl`` reads it on stdin), and the
    environment that imports this checkout's package."""
    program = files("b.ptg", BUILDING_RUNNABLE)
    script = files("long.evs", LONG_SCRIPT)
    src = pathlib.Path(pantagruel.__file__).resolve().parent.parent
    env = {
        **os.environ,
        "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])),
    }
    argv = {
        "run": ["run", program, "--script", script],
        "run-jsonl": ["run", program, "--script", script, "--format", "jsonl"],
        "repl": ["repl", program],
    }[command]
    return [sys.executable, "-m", "pantagruel", *argv], script, env


@pytest.mark.parametrize("command", ["run", "run-jsonl", "repl"])
def test_closed_stdout_is_an_io_error_without_traceback(files, command):
    argv, script, env = _long_run(files, command)
    with open(script, encoding="utf-8") as stdin:
        proc = subprocess.Popen(
            argv,
            stdin=stdin,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
        )
        first = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read().decode()
        proc.stderr.close()
        code = proc.wait(timeout=60)
    assert first
    assert code == 2, err
    assert "Traceback" not in err and "Exception ignored" not in err


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("command", ["run", "run-jsonl", "repl"])
def test_full_stdout_is_an_io_error_without_traceback(files, command):
    """A write to stdout that fails with anything but a closed pipe (here
    ENOSPC from ``/dev/full``) is exit 2 with one ``error:`` line."""
    argv, script, env = _long_run(files, command)
    with open(script, encoding="utf-8") as stdin, open("/dev/full", "w") as full:
        proc = subprocess.run(
            argv, stdin=stdin, stdout=full, stderr=subprocess.PIPE, env=env, timeout=60
        )
    err = proc.stderr.decode()
    assert proc.returncode == 2, err
    assert err.splitlines() == ["error: cannot write to stdout: No space left on device"]
