"""The shipped demo programs and scripts stay runnable."""

from __future__ import annotations

import io
import json
import pathlib

from pantagruel.cli import main

DEMOS = pathlib.Path(__file__).resolve().parent.parent / "demos"


def test_building_program_checks_clean(capsys):
    assert main(["check", str(DEMOS / "building.ptg")]) == 0
    assert capsys.readouterr().err == ""


def test_aggregate_variant_is_rejected(capsys):
    assert main(["check", str(DEMOS / "building_aggregate.ptg")]) == 1
    assert "groupby" in capsys.readouterr().err


def test_trace_script_runs_the_documented_story(capsys):
    argv = [
        "run",
        str(DEMOS / "building.ptg"),
        "--script",
        str(DEMOS / "trace.evs"),
        "--format",
        "jsonl",
    ]
    assert main(argv) == 0
    ticks = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert [t["tick"] for t in ticks] == [1, 2, 3, 4]
    assert ticks[0]["entities"]["l10"]["events"]["switch"] is True
    assert ticks[1]["entities"]["fan10"]["events"]["setSpeed"] == 10
    assert ticks[1]["entities"]["l10"]["events"]["switch"] is None
    assert all(t["fired"] == [] for t in ticks[2:])


def test_deployment_script_switches_the_new_light(capsys):
    argv = [
        "run",
        str(DEMOS / "building.ptg"),
        "--script",
        str(DEMOS / "deployment.evs"),
        "--format",
        "jsonl",
    ]
    assert main(argv) == 0
    final = json.loads(capsys.readouterr().out.splitlines()[-1])
    switched = {
        eid
        for eid, entity in final["entities"].items()
        if entity["events"].get("switch") is True
    }
    assert switched == {"l10", "l11", "l30"}


def test_churn_script_switches_the_lights_the_rules_reach_after_each_change(capsys):
    """``l11`` is removed from room 101, ``l12`` deployed there, and ``l11``
    deployed again in room 201: each motion edge reaches the lights its
    room holds at that tick, and the last one switches ``l10`` and ``l12``
    on and ``l11`` and ``l20`` off."""
    argv = [
        "run",
        str(DEMOS / "building.ptg"),
        "--script",
        str(DEMOS / "churn.evs"),
        "--format",
        "jsonl",
    ]
    assert main(argv) == 0
    ticks = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    switched = [
        {
            value: sorted(eid for eid, e in t["entities"].items() if e["events"].get("switch") is value)
            for value in (True, False)
        }
        for t in ticks
    ]
    assert switched == [
        {True: ["l10", "l11"], False: []},
        {True: [], False: ["l10"]},
        {True: ["l10", "l12"], False: []},
        {True: [], False: ["l10", "l12"]},
        {True: ["l11", "l20"], False: []},
        {True: ["l10", "l12"], False: ["l11", "l20"]},
    ]
    assert ticks[-1]["entities"]["l11"]["attributes"] == {"room": 201}


def _conflict_demo(monkeypatch, capsys, command, *flags):
    """``command`` (``run``, or ``repl`` fed the script and ``quit``) on
    the conflict demo: its exit code, stdout and stderr."""
    script = DEMOS / "conflict.evs"
    argv = [command, str(DEMOS / "conflict.ptg"), *flags]
    if command == "run":
        argv += ["--script", str(script)]
    else:
        monkeypatch.setattr("sys.stdin", io.StringIO(script.read_text() + "quit\n"))
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_conflict_script_overwrites_in_sequence_and_clashes_in_parallel(monkeypatch, capsys):
    """Tick 1 fires rule (1), whose ``,`` overwrites ``desk.dim``, and rule
    (2), whose ``||`` clashes on ``hall.switch``.  Strictly, ``run`` and
    ``repl`` both stop there with exit 3 and the same report.  Relaxed,
    they print the same records: the conflict drops tick 1's effects, and
    tick 3 fires rule (1) alone, which leaves ``desk.dim`` at 80."""
    report = "conflict at tick 1: conflicting values for hall.switch: False vs True\n"
    for command in ("run", "repl"):
        assert _conflict_demo(monkeypatch, capsys, command) == (3, "", report)
    code, out, err = _conflict_demo(monkeypatch, capsys, "run", "--no-strict-conflicts", "--format", "jsonl")
    assert (code, err) == (0, "")
    assert _conflict_demo(monkeypatch, capsys, "repl", "--no-strict-conflicts", "--format", "jsonl") == (0, out, "")
    ticks = [json.loads(line) for line in out.splitlines()]
    assert [t["conflict"] for t in ticks] == [report.split(": ", 1)[1].rstrip("\n"), None, None]
    assert [t["fired"] for t in ticks] == [[], [], [{"binding": {"desk": "desk", "up": "up"}, "rule": 1}]]
    assert ticks[0]["entities"]["desk"]["events"]["dim"] is None
    assert ticks[2]["entities"]["desk"]["events"]["dim"] == 80
