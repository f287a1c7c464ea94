"""Record the benchmark's reference data.

    python3 perfbench/record.py digests 0 39   # trace digests for seeds 0..39
    python3 perfbench/record.py breakdown       # layer shares, seed 1

``digests`` stores, per workload and seed, the sha256 of one whole pass's
rendered trace (the stdout ``pantagruel run`` prints for the same program,
script, mode and format) in ``perfbench/digests.json``; a later run whose
trace differs counts that pass's ticks as failed.  A digest is recorded
only when every tick's firings agree with the generator's model.

``breakdown`` runs the traced loop on every workload and stores each
layer's share of tick time, with the per-layer metrics, in
``perfbench/breakdown.json``.
"""

from __future__ import annotations

import json
import os
import platform
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import harness  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def record_digests(first: int, last: int) -> int:
    path = HERE / "digests.json"
    digests = json.loads(path.read_text())
    for name, make in workloads.WORKLOADS.items():
        for seed in range(first, last + 1):
            wl = make(seed)
            result = harness.run_untraced(wl)
            if result.failed:
                print(f"{name} seed {seed}: firings disagree with the model", file=sys.stderr)
                return 1
            digests.setdefault(name, {})[str(seed)] = {
                "input": run.input_digest(wl), "trace": result.pass_digests[0],
            }
            print(name, seed, result.pass_digests[0], flush=True)
    path.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    return 0


def record_breakdown(seed: int = 1, seconds: float = 20.0) -> int:
    out = {
        "what": f"per-layer metrics from `run.py --trace 1 --seed {seed} --seconds {seconds:g}`",
        "machine": f"{platform.machine()}, {platform.python_implementation()} "
                   f"{platform.python_version()}, {os.cpu_count()} CPUs",
        "workloads": {},
    }
    for name, make in workloads.WORKLOADS.items():
        metrics, attempted, failed = run.per_layer(make(seed), seed, seconds)
        if failed:
            print(f"{name}: {failed} of {attempted} ticks failed", file=sys.stderr)
            return 1
        out["workloads"][name] = {k: round(v["value"], 6) for k, v in metrics.items()}
    (HERE / "breakdown.json").write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["digests"]:
        sys.exit(record_digests(int(sys.argv[2]), int(sys.argv[3])))
    if sys.argv[1:2] == ["breakdown"]:
        sys.exit(record_breakdown())
    sys.exit(__doc__)
