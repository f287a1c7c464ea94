"""Event-script parsing: line forms, grouping, and errors."""

from __future__ import annotations

import io
import json

import pytest

from pantagruel import (
    UNDEF,
    AttributeUpdate,
    Deploy,
    EventUpdate,
    Remove,
    ScriptError,
)
from pantagruel.ast import EntityDecl, InitDecl, NumLit
from pantagruel.cli import main
from pantagruel.script import TickMarker, parse_line, parse_script

from support import BUILDING_RUNNABLE


def test_parse_line_forms():
    assert parse_line("event m10.detected = true") == EventUpdate("m10", "detected", True)
    assert parse_line("attr l10.room = 102") == AttributeUpdate("l10", "room", 102)
    assert parse_line("event thermo.temperature = undef") == EventUpdate(
        "thermo", "temperature", UNDEF
    )
    assert parse_line("remove l20") == Remove("l20")
    assert parse_line("tick") == TickMarker()
    assert parse_line("") is None
    assert parse_line("   # only a comment") is None


def test_parse_line_deploy():
    parsed = parse_line("deploy l30 : Light { room : 101 }")
    assert parsed == Deploy(EntityDecl("l30", "Light", (InitDecl("room", NumLit(101)),)))


def test_parse_line_rejects_garbage():
    with pytest.raises(ScriptError):
        parse_line("launch the missiles")
    with pytest.raises(ScriptError):
        parse_line("event m10.detected = maybe")
    with pytest.raises(ScriptError):
        parse_line("deploy l30 : Light { room : undef }")


def test_script_grouping():
    text = """\
# warm-up
event m10.detected = true
tick

event thermo.temperature = 29   # ignored trailing comment
attr l10.room = 102
tick
tick
"""
    ticks = parse_script(text)
    assert ticks == [
        [EventUpdate("m10", "detected", True)],
        [
            EventUpdate("thermo", "temperature", 29),
            AttributeUpdate("l10", "room", 102),
        ],
        [],
    ]


def test_script_of_only_comments_is_empty():
    assert parse_script("# nothing\n\n# here\n") == []


def test_script_error_carries_line_number():
    with pytest.raises(ScriptError) as exc:
        parse_script("tick\nnonsense here\n")
    assert exc.value.line == 2
    assert "line 2" in str(exc.value)


# the line breaks of str.splitlines other than \n and \r
_OTHER_BREAKS = ["\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


@pytest.mark.parametrize("blank", _OTHER_BREAKS)
def test_only_newline_ends_a_script_line(blank, tmp_path, capsys, monkeypatch):
    """``run`` and the repl end a line at ``\n`` alone: a change after
    another break in a comment is part of the comment for both, and a
    ScriptError's line counts ``\n`` only."""
    script = f"# note{blank}event m10.detected = true\ntick\n"
    assert parse_script(script) == [[]]
    with pytest.raises(ScriptError) as exc:
        parse_script(f"tick\n# a{blank}b\nnonsense here\n")
    assert exc.value.line == 3
    program = tmp_path / "b.ptg"
    program.write_text(BUILDING_RUNNABLE, encoding="utf-8")
    evs = tmp_path / "t.evs"
    evs.write_text(script, encoding="utf-8")
    assert main(["run", str(program), "--script", str(evs), "--format", "jsonl"]) == 0
    run_out, _ = capsys.readouterr()
    monkeypatch.setattr("sys.stdin", io.StringIO(script + "quit\n"))
    assert main(["repl", str(program), "--format", "jsonl"]) == 0
    repl_out, _ = capsys.readouterr()
    assert run_out == repl_out
    assert json.loads(run_out)["changes"] == []


def test_trailing_changes_without_tick_rejected():
    with pytest.raises(ScriptError) as exc:
        parse_script("event m10.detected = true\n")
    assert "never execute" in str(exc.value)


# ── deploy is a word of its own ──────────────────────────────────

RUN_INTO = "deployl40 : Light { room : 101 }"


def test_deploy_run_into_a_name_is_unrecognized():
    with pytest.raises(ScriptError, match="unrecognized script line 'deployl40 :"):
        parse_line(RUN_INTO)
    # 'deploy' alone, or before punctuation, is still a malformed deploy
    for line, message in (
        ("deploy", "bad deploy: expected entity name, got 'end of input'"),
        ("deploy{ }", "bad deploy: expected entity name, got '{'"),
    ):
        with pytest.raises(ScriptError, match=message):
            parse_line(line)


def test_run_and_repl_refuse_deploy_run_into_a_name(tmp_path, capsys, monkeypatch):
    program = tmp_path / "b.ptg"
    program.write_text(BUILDING_RUNNABLE, encoding="utf-8")
    evs = tmp_path / "bad.evs"
    evs.write_text(f"{RUN_INTO}\ntick\n", encoding="utf-8")
    assert main(["run", str(program), "--script", str(evs)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"{evs}: line 1: unrecognized script line {RUN_INTO!r}\n"
    # the repl reports the line and goes on without it
    monkeypatch.setattr("sys.stdin", io.StringIO(f"{RUN_INTO}\ntick\nquit\n"))
    assert main(["repl", str(program), "--format", "jsonl"]) == 0
    out, err = capsys.readouterr()
    assert err == f"error: unrecognized script line {RUN_INTO!r}\n"
    record = json.loads(out)
    assert record["tick"] == 1 and record["changes"] == []
    assert "l40" not in record["entities"]

