"""One-off sizing record: the ROADMAP baseline table, reproduced with the
benchmark's generator.

The demos/building.ptg interfaces and rules 1-3 on generated buildings of
10, 50 and 200 rooms (41, 201 and 801 entities), 20 ticks of ``run_trace``
in edge mode.  Prints a markdown table; ``--write`` also stores it in
``perfbench/sizing.json``.

    python3 perfbench/sizing.py [--write]
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from pantagruel.parser import parse_program  # noqa: E402
from pantagruel.rule_eval import TriggerMode  # noqa: E402
from pantagruel.runtime import run_trace  # noqa: E402
from pantagruel.script import parse_script  # noqa: E402
from pantagruel.spec_eval import check_program  # noqa: E402

import workloads  # noqa: E402

ROOMS = (10, 50, 200)
# The ROADMAP table: entities -> (parse+check ms, per-tick ms).
ROADMAP = {41: (5, 3.6), 201: (12, 92), 801: (43, 1642)}
TICKS = 20
SEED = 1


def measure(rooms: int) -> dict:
    wl = workloads.demo_building(SEED, rooms, TICKS)
    parse_check = []
    for _ in range(5):
        t0 = time.perf_counter()
        checked = check_program(parse_program(wl.program))
        parse_check.append(time.perf_counter() - t0)
    script = parse_script(wl.script)
    t0 = time.perf_counter()
    records = run_trace(checked, script, TriggerMode.EDGE)
    per_tick = (time.perf_counter() - t0) / TICKS
    fired = [tuple((f.label, tuple(sorted(f.binding.items()))) for f in r.fired) for r in records]
    return {
        "entities": len(checked.initial_store),
        "parse_check_ms": round(statistics.median(parse_check) * 1e3, 1),
        "per_tick_ms": round(per_tick * 1e3, 1),
        "fired": sum(len(f) for f in fired),
        "model_agrees": fired == list(wl.expected),
    }


def main() -> int:
    rows = [measure(rooms) for rooms in ROOMS]
    print("| entities | parse+check | per tick | fired (20 ticks) | ROADMAP parse+check | ROADMAP per tick |")
    print("| --- | --- | --- | --- | --- | --- |")
    for row in rows:
        parse, tick = ROADMAP[row["entities"]]
        print(f"| {row['entities']} | {row['parse_check_ms']} ms | {row['per_tick_ms']} ms "
              f"| {row['fired']} | {parse} ms | {tick} ms |")
    if "--write" in sys.argv[1:]:
        record = {
            "what": "demos/building.ptg rules 1-3, generated buildings, 20 ticks of run_trace, edge mode, seed 1",
            "machine": f"{platform.machine()}, {platform.python_implementation()} "
                       f"{platform.python_version()}, {os.cpu_count()} CPUs",
            "roadmap": {str(k): {"parse_check_ms": p, "per_tick_ms": t} for k, (p, t) in ROADMAP.items()},
            "rows": rows,
        }
        (HERE / "sizing.json").write_text(json.dumps(record, indent=2) + "\n")
    return 0 if all(row["model_agrees"] for row in rows) else 1


if __name__ == "__main__":
    sys.exit(main())
