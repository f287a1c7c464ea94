"""The benchmark's own checks: the generator is deterministic, its
expectation model agrees with the interpreter, and the closed-loop and
traced drivers render exactly what ``pantagruel run`` prints.

    python -m pytest perfbench/tests -q
"""

import hashlib
import json

import pytest

import harness
import run
import workloads
from pantagruel.cli import main

SMALL = {
    "join-sparse": dict(rooms=5, ticks=30),
    "level-dense": dict(rooms=5, ticks=30),
    "churn-wide": dict(meters=40, ticks=30, writes=10, attrs=5, churn=3),
}


def small(name, seed):
    return workloads.WORKLOADS[name](seed, **SMALL[name])


@pytest.mark.parametrize("name", sorted(SMALL))
def test_generator_is_deterministic(name):
    a, b, c = small(name, 7), small(name, 7), small(name, 8)
    assert (a.program, a.script, a.expected) == (b.program, b.script, b.expected)
    assert a.script != c.script


@pytest.mark.parametrize("name", sorted(SMALL))
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_model_matches_interpreter(name, seed):
    wl = small(name, seed)
    result = harness.run_untraced(wl)
    assert result.attempted == wl.ticks
    assert result.failed == 0
    assert any(wl.expected), "the small instance should fire something"


@pytest.mark.parametrize("name", sorted(SMALL))
def test_stepped_trace_matches_cli(name, tmp_path, capsys):
    wl = small(name, 3)
    program, script = tmp_path / "w.ptg", tmp_path / "w.evs"
    program.write_text(wl.program)
    script.write_text(wl.script)
    result = harness.run_untraced(wl)
    capsys.readouterr()
    argv = ["run", str(program), "--script", str(script), "--mode", wl.mode, "--format", wl.fmt]
    assert main(argv) == 0
    stdout = capsys.readouterr().out
    assert hashlib.sha256(stdout.encode()).hexdigest() == result.pass_digests[0]


@pytest.mark.parametrize("name", sorted(SMALL))
def test_traced_trace_matches_untraced(name):
    wl = small(name, 4)
    result = harness.run_untraced(wl)
    traced = harness.run_traced(wl)
    assert traced.failed == 0
    assert traced.pass_digests == result.pass_digests
    assert len(traced.samples) == wl.ticks


def test_recorded_digest_mismatch_fails_the_pass():
    wl = small("join-sparse", 5)
    result = harness.run_untraced(wl, reference="0" * 64)
    assert result.failed == wl.ticks


@pytest.mark.parametrize("trace", [0, 1])
def test_run_reports_every_declared_metric(trace):
    declared = json.loads((run.HERE.parent / "BENCHMARK.json").read_text())
    wanted = declared["per_layer" if trace else "end_to_end"]
    wl = small("level-dense", 6)
    measure = run.per_layer if trace else run.end_to_end
    metrics, attempted, failed = measure(wl, 6, 0.1)
    assert failed == 0 and attempted >= 1
    assert {name: m["unit"] for name, m in metrics.items()} == {w["name"]: w["unit"] for w in wanted}
    assert all(m["value"] > 0 for name, m in metrics.items() if not trace)
