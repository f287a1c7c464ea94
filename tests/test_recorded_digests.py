"""The benchmark's recorded trace digests, checked with the tests.

``perfbench/digests.json`` records the sha256 of the whole rendered trace
of every workload for seeds 0-39.  Stepping and rendering one pass of the
first and the last seed must reproduce it, so a change to the interpreter
or the renderer that alters one byte of a benchmark trace fails here, not
only when the benchmark is run.  Nothing under ``perfbench/`` is written.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import harness  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("seed", [0, 39])
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_one_pass_renders_the_recorded_trace(name, seed):
    wl = workloads.WORKLOADS[name](seed)
    reference = run.recorded_digest(wl, seed)
    assert reference is not None
    result = harness.run_untraced(wl, reference=reference)
    assert result.attempted == len(wl.expected)
    assert result.failed == 0
