"""Traces do not depend on the string hash seed.

Stores keep no sorted order, so a set iterated on the way to the output
would make the printed trace vary with ``PYTHONHASHSEED``.  Each run here
happens in a fresh interpreter under two hash seeds, and both runs must
print the same bytes.
"""

from __future__ import annotations

import os
import pathlib
import subprocess
import sys

import pytest

import pantagruel

from support import TWO_KEY_CONFLICT_PROGRAM, TWO_KEY_CONFLICT_SCRIPT

DEMOS = pathlib.Path(__file__).resolve().parent.parent / "demos"
SRC = pathlib.Path(pantagruel.__file__).resolve().parent.parent


def _run(argv: list[str], hash_seed: str) -> subprocess.CompletedProcess:
    env = {
        **os.environ,
        "PYTHONHASHSEED": hash_seed,
        "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])),
    }
    return subprocess.run(
        [sys.executable, "-m", "pantagruel", *argv],
        capture_output=True,
        env=env,
        timeout=60,
    )


def _assert_seed_independent(argv: list[str]) -> subprocess.CompletedProcess:
    first, second = (_run(argv, seed) for seed in ("0", "1"))
    assert (first.returncode, first.stdout, first.stderr) == (
        second.returncode,
        second.stdout,
        second.stderr,
    )
    return first


@pytest.mark.parametrize(
    "options",
    [["--format", "text"], ["--format", "jsonl"], ["--mode", "level"]],
    ids=["text", "jsonl", "level"],
)
@pytest.mark.parametrize("script", ["trace.evs", "deployment.evs"])
def test_demo_traces_do_not_depend_on_the_hash_seed(script, options):
    argv = ["run", str(DEMOS / "building.ptg"), "--script", str(DEMOS / script)]
    done = _assert_seed_independent([*argv, *options])
    assert done.returncode == 0 and done.stdout


@pytest.mark.parametrize("strict", [True, False])
def test_conflict_report_does_not_depend_on_the_hash_seed(tmp_path, strict):
    program = tmp_path / "conflict.ptg"
    program.write_text(TWO_KEY_CONFLICT_PROGRAM)
    script = tmp_path / "conflict.evs"
    script.write_text(TWO_KEY_CONFLICT_SCRIPT)
    argv = ["run", str(program), "--script", str(script)]
    done = _assert_seed_independent(argv if strict else [*argv, "--no-strict-conflicts"])
    assert done.returncode == (3 if strict else 0)
    assert b"x.a: True vs False" in (done.stderr if strict else done.stdout)
