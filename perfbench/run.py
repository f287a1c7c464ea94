"""Benchmark of the pantagruel interpreter on generated smart-building
workloads.

    python3 perfbench/run.py --workload join-sparse --seed 1 --seconds 40 --trace 0

Run from the root of a checkout: the interpreter is imported from
``src/``.  ``--trace 0`` measures the end-to-end metrics (closed loop, one
client, tracing off); ``--trace 1`` measures the per-layer metrics from a
separate traced loop.  Each metric is printed as ``name value unit``; the
last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  Traced runs write their spans to
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

MAX_SECONDS = 120.0  # hard stop for the tick loop, whatever --seconds says
PROBE_TICKS = 10
# Set-ups timed before every pass of an end-to-end run, so that they are
# spread over the run, and before the loop of a per-layer run.
PASS_SETUP = dict(min_reps=2, budget_s=0.1, max_reps=5)
LAYER_SETUP = dict(min_reps=3, budget_s=0.5, max_reps=15)


def quantile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def input_digest(wl) -> str:
    return hashlib.sha256(f"{wl.mode} {wl.fmt}\n{wl.program}\0{wl.script}".encode()).hexdigest()


def recorded_digest(wl, seed: int) -> str | None:
    """The recorded trace digest for this workload and seed, if one was
    recorded for exactly these inputs."""
    entry = json.loads((HERE / "digests.json").read_text()).get(wl.name, {}).get(str(seed))
    if entry is None or entry["input"] != input_digest(wl):
        return None
    return entry["trace"]


def end_to_end(wl, seed: int, seconds: float) -> tuple[dict, int, int]:
    """Whole passes, each from a fresh load, until ``seconds`` (set-up
    included) would run out, with a few set-ups before every pass.  Each
    tick and set-up is followed by the reference work, and every time is
    reported calibrated: divided by the reference time next to it and
    multiplied by ``harness.REFERENCE_S``, so that it reads as at one fixed
    machine speed.  A tick's time is the median over the passes, the
    percentiles are taken over those per-tick medians, and set-up time is
    the median over all set-ups."""
    import harness  # imports the interpreter, so only after main() set sys.path

    start = harness.clock()
    budget = min(seconds, MAX_SECONDS)
    setups: list[tuple[float, float]] = []  # (set-up time, reference time)
    reference = recorded_digest(wl, seed)
    passes: list[list[tuple[float, float]]] = []  # per tick: (tick time, reference time)
    attempted = failed = 0
    prefix_digest = None
    longest = 0.0
    # Start no pass that would not end within the run's time.
    while not attempted or harness.clock() - start + longest <= budget:
        t0 = harness.clock()
        setups += harness.time_setup(wl, **PASS_SETUP)
        one = harness.run_untraced(wl, reference, PROBE_TICKS, calibrate=True)
        longest = max(longest, harness.clock() - t0)
        attempted += one.attempted
        failed += one.failed
        if one.pass_digests:
            passes.append(list(zip(one.latencies, one.reference)))
            reference = reference or one.pass_digests[0]
        prefix_digest = prefix_digest or one.prefix_digest
    peak_mib, probe_digest = harness.rss_probe(wl, SRC, OUT, PROBE_TICKS)
    attempted += PROBE_TICKS
    failed += PROBE_TICKS if probe_digest != prefix_digest else 0
    if not passes:
        raise RuntimeError(f"{wl.name}: no pass ran to its end")

    def calibrated(pairs) -> float:
        return statistics.median(t / r for t, r in pairs) * harness.REFERENCE_S

    ticks = [calibrated(samples) for samples in zip(*passes)]
    metrics = {
        "ticks_per_s": metric(len(ticks) / sum(ticks), "ticks/s"),
        "tick_ms.p50": metric(statistics.median(ticks) * 1e3, "ms"),
        "tick_ms.p90": metric(quantile(ticks, 0.9) * 1e3, "ms"),
        "setup_s": metric(calibrated(setups), "s"),
        "peak_rss_mib": metric(peak_mib, "MiB"),
    }
    wall_ticks = [statistics.median(t for t, _ in samples) for samples in zip(*passes)]
    reference_ms = statistics.median(r for p in passes for _, r in p) * 1e3
    print(f"# {len(passes)} passes of {len(ticks)} ticks; {len(setups)} set-ups; "
          f"error_rate {failed / attempted:.6f}")
    print(f"# wall clock: tick_ms.p50 {statistics.median(wall_ticks) * 1e3:.6g}, "
          f"setup_s {statistics.median(s for s, _ in setups):.6g}; reference work "
          f"{reference_ms:.6g} ms (nominal {harness.REFERENCE_S * 1e3:g} ms)")
    return metrics, attempted, failed


def per_layer(wl, seed: int, seconds: float) -> tuple[dict, int, int]:
    """Set-up calls timed one by one, an untimed warm-up pass, then whole
    untraced and traced passes alternating until ``seconds`` (all of this
    included) would run out; per-tick times are medians over the traced
    ticks and counts are means per tick."""
    import harness

    start = harness.clock()
    budget = min(seconds, MAX_SECONDS)
    layers = harness.layer_timings(wl, **LAYER_SETUP)
    recorded = recorded_digest(wl, seed)
    warm = harness.run_untraced(wl, recorded)
    reference = recorded or next(iter(warm.pass_digests), None)
    # Alternate whole untraced and traced passes over the same ticks.
    plain = harness.LoopResult()
    traced = harness.TracedResult()
    longest = 0.0
    while not traced.samples or harness.clock() - start + longest <= budget:
        t0 = harness.clock()
        one = harness.run_untraced(wl, reference)
        plain.latencies += one.latencies
        plain.attempted += one.attempted
        plain.failed += one.failed
        plain.pass_digests += one.pass_digests
        harness.run_traced(wl, traced)
        longest = max(longest, harness.clock() - t0)
    attempted = warm.attempted + plain.attempted + traced.attempted
    failed = warm.failed + plain.failed + traced.failed
    if traced.pass_digests != plain.pass_digests:
        failed += traced.attempted

    samples = traced.samples
    labels = sorted(samples[0].eval_rule)
    total_tick = sum(s.total for s in samples)

    def med_ms(values) -> float:
        return statistics.median(values) * 1e3

    def mean(values) -> float:
        values = list(values)
        return sum(values) / len(values)

    m: dict[str, dict] = {
        "lexer.tokenize_s": metric(layers["tokenize"], "s"),
        "lexer.tokens_per_s": metric(layers["tokens"] / layers["tokenize"], "tokens/s"),
        "parser.parse_program_self_s": metric(layers["parse_program"] - layers["tokenize"], "s"),
        "spec_eval.check_program_s": metric(layers["check_program"], "s"),
        "script.parse_script_s": metric(layers["parse_script"], "s"),
        "runtime.apply_external_ms": metric(med_ms(s.apply_external for s in samples), "ms"),
        "runtime.apply_internal_ms": metric(med_ms(s.apply_internal for s in samples), "ms"),
        "runtime.store_entities": metric(mean(s.store_entities for s in samples), "count"),
        "runtime.effect_keys": metric(mean(s.effect_keys for s in samples), "count"),
        "serialize.serialize_tick_ms": metric(med_ms(s.serialize for s in samples), "ms"),
        "serialize.bytes_per_tick": metric(mean(s.bytes for s in samples), "bytes"),
        "domains.store_join_ms": metric(med_ms(s.store_join for s in samples), "ms"),
    }
    for label in labels:
        m[f"rule_eval.eval_rule_ms.r{label}"] = metric(med_ms(s.eval_rule[label] for s in samples), "ms")
        m[f"rule_eval.binding_space.r{label}"] = metric(mean(s.binding_space[label] for s in samples), "count")
        m[f"rule_eval.fired.r{label}"] = metric(mean(s.fired[label] for s in samples), "count")
    fired = sum(sum(s.fired.values()) for s in samples)
    space = sum(sum(s.binding_space.values()) for s in samples)
    m["rule_eval.fire_ratio"] = metric(fired / space, "ratio")
    shares = {
        "rule_eval.tick_share": sum(sum(s.eval_rule.values()) for s in samples),
        "domains.tick_share": sum(s.store_join for s in samples),
        "runtime.tick_share": sum(s.apply_external + s.apply_internal for s in samples),
        "serialize.tick_share": sum(s.serialize for s in samples),
    }
    for name, spent in shares.items():
        m[name] = metric(spent / total_tick, "ratio")
    m["trace.overhead_ratio"] = metric(total_tick / sum(plain.latencies), "ratio")

    OUT.mkdir(parents=True, exist_ok=True)
    with (OUT / f"spans-{wl.name}-{seed}.jsonl").open("w") as handle:
        for index, (name, start, end, parent) in enumerate(traced.spans):
            handle.write(json.dumps([index, name, start, end, parent]) + "\n")
    print(f"# {len(samples)} traced ticks; trace digests "
          f"{'match' if traced.pass_digests == plain.pass_digests else 'DIFFER'}; "
          f"recorded digest {'checked' if recorded else 'not recorded for this seed'}")
    return m, attempted, failed


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "pantagruel" / "__init__.py").is_file():
        print(f"error: no interpreter sources at {SRC}; run from a checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload](args.seed)
    measure = per_layer if args.trace else end_to_end
    metrics, attempted, failed = measure(wl, args.seed, args.seconds)
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
