"""Closed-loop tick driver, traced tick driver, the machine-speed reference
work, and the peak-memory probe.

One client drives the interpreter the way ``pantagruel repl`` does: it
calls ``step`` and renders the record with ``serialize_tick``, and sends the
next tick only after that.  A pass replays the workload's script from a
freshly loaded program; callers repeat passes until their time is up.
Every tick's firings are compared with the generator's expectation, and
every complete pass's rendered trace is hashed (sha256) so passes, traced
and untraced loops, and recorded digests can be compared byte for byte.

The traced driver builds each tick from the public pieces that ``step``
is made of and records one span per call, timed from outside the program.

Callers put the repository's ``src`` directory on ``sys.path`` first.
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from pantagruel.ast import DeclTyped
from pantagruel.domains import DualStore, store_join
from pantagruel.lexer import tokenize
from pantagruel.parser import parse_program
from pantagruel.rule_eval import TriggerMode, eval_rule
from pantagruel.runtime import (
    RunState,
    TickRecord,
    apply_external,
    apply_internal,
    initial_state,
    step,
)
from pantagruel.script import parse_script
from pantagruel.serialize import serialize_tick
from pantagruel.spec_eval import CheckedProgram, check_program

from workloads import Workload

clock = time.perf_counter


@dataclass
class Loaded:
    checked: CheckedProgram
    ticks: list
    state: RunState


def load(wl: Workload) -> Loaded:
    """Program and script text to the first steppable state."""
    checked = check_program(parse_program(wl.program))
    if not checked.ok:
        raise ValueError(f"{wl.name}: generated program has check errors")
    ticks = parse_script(wl.script)
    return Loaded(checked, ticks, initial_state(checked.initial_store))


def time_setup(
    wl: Workload, min_reps: int, budget_s: float, max_reps: int,
) -> list[tuple[float, float]]:
    """Load the workload repeatedly; return each load's wall time, paired
    with the time of :func:`reference_work` run right after it."""
    pairs: list[tuple[float, float]] = []
    spent = 0.0
    while len(pairs) < min_reps or (spent < budget_s and len(pairs) < max_reps):
        t0 = clock()
        load(wl)
        elapsed = clock() - t0
        pairs.append((elapsed, time_reference()))
        spent += elapsed
    return pairs


# ── Machine speed ────────────────────────────────────────────────
#
# A shared machine runs the same pure-Python code up to about 2x slower
# in busy spells that last from a fraction of a second to minutes.  A fixed
# piece of work of the same kind, timed right after each tick or set-up,
# tracks that speed: a tick's time divided by the reference time next to
# it is the tick's cost in units of the reference, whatever the machine's
# speed was at that moment.

REFERENCE_ENTITIES = 4_000
# About the reference work's best time on the machine the benchmark was
# built on (2-vCPU VM, CPython 3.11); calibrated times are the measured
# ratio times this.
REFERENCE_S = 0.0013


def reference_work() -> int:
    """Fixed pure-Python work shaped like a tick's store traffic: build a
    dict of small tuples under string keys, copy it, update a seventh of
    it and read all of it."""
    store = {f"e{i}": (i, i % 7) for i in range(REFERENCE_ENTITIES)}
    copy = dict(store)
    total = 0
    for key, value in copy.items():
        if value[1] == 3:
            copy[key] = (value[0] + 1, 3)
        total += value[0]
    return total


def time_reference() -> float:
    """Time :func:`reference_work` with the garbage collector paused.  The
    work frees all it allocates, so the collections that the interpreter's
    allocations trigger still fall where they would without it."""
    gc.disable()
    try:
        t0 = clock()
        reference_work()
        return clock() - t0
    finally:
        gc.enable()


def fired_key(record: TickRecord) -> tuple:
    return tuple((f.label, tuple(sorted(f.binding.items()))) for f in record.fired)


@dataclass
class LoopResult:
    latencies: list[float] = field(default_factory=list)  # seconds per tick
    reference: list[float] = field(default_factory=list)  # reference time after each tick
    attempted: int = 0
    failed: int = 0
    pass_digests: list[str] = field(default_factory=list)  # complete passes only
    prefix_digest: str | None = None  # first ``prefix_ticks`` of the pass


def run_untraced(
    wl: Workload,
    reference: str | None = None,
    prefix_ticks: int = 0,
    calibrate: bool = False,
) -> LoopResult:
    """Load the workload afresh and step and render one whole pass.  With
    ``calibrate``, :func:`reference_work` is timed after every tick, outside
    the tick's time.  A pass whose rendered trace differs from ``reference``
    (a recorded digest, or an earlier pass's) fails all its ticks."""
    result = LoopResult()
    loaded = load(wl)
    checked = loaded.checked
    rules, env, mode = checked.rules, checked.env, TriggerMode(wl.mode)
    state = loaded.state
    hasher = hashlib.sha256()
    for index, changes in enumerate(loaded.ticks):
        result.attempted += 1
        t0 = clock()
        try:
            state, record = step(state, changes, rules, env, mode)
            text = serialize_tick(record, wl.fmt)
        except Exception:  # noqa: BLE001 - a raising tick is a failed tick
            result.failed += len(loaded.ticks) - index
            result.attempted += len(loaded.ticks) - index - 1
            return result
        result.latencies.append(clock() - t0)
        if calibrate:
            result.reference.append(time_reference())
        if fired_key(record) != wl.expected[index]:
            result.failed += 1
        hasher.update(text.encode())
        if index + 1 == prefix_ticks:
            result.prefix_digest = hasher.hexdigest()
    digest = hasher.hexdigest()
    if reference is not None and digest != reference:
        result.failed += len(loaded.ticks)
    result.pass_digests.append(digest)
    return result


# ── Traced ticks ─────────────────────────────────────────────────


def typed_variables(node: object, out: dict[str, str] | None = None) -> dict[str, str]:
    """Every interface-bound variable a rule declares, with its interface."""
    out = {} if out is None else out
    if isinstance(node, DeclTyped):
        out[node.var] = node.interface
    elif dataclasses.is_dataclass(node):
        for f in dataclasses.fields(node):
            typed_variables(getattr(node, f.name), out)
    return out


@dataclass
class TickSample:
    """What one traced tick did, measured at the public call boundaries."""

    total: float
    apply_external: float
    eval_rule: dict[int, float]
    store_join: float
    apply_internal: float
    serialize: float
    fired: dict[int, int]
    binding_space: dict[int, int]
    store_entities: int
    effect_keys: int
    bytes: int


# A span: (name, start, end, index of the parent span or -1).
Span = tuple[str, float, float, int]


def traced_step(
    state: RunState, changes: list, checked: CheckedProgram, mode: TriggerMode,
    fmt: str, spans: list[Span],
) -> tuple[RunState, TickRecord, str, TickSample]:
    """One tick from the pieces of ``runtime.step`` (strict conflicts), each
    wrapped in a span under one root span for the tick."""
    env = checked.env
    tick = state.tick + 1
    t_start = clock()
    sigma_prime = apply_external(changes, state.current, env)
    t_ext = clock()
    dual = DualStore(state.previous, sigma_prime)
    effects: dict = {}
    fired: list = []
    rule_spans: list[tuple[str, float, float]] = []
    eval_ms: dict[int, float] = {}
    fired_by: dict[int, int] = {}
    join_s = 0.0
    for position, rule in enumerate(checked.rules, start=1):
        label = rule.label if rule.label is not None else position
        t0 = clock()
        partial, rule_fired = eval_rule(env, rule, dual, mode, label=label)
        t1 = clock()
        effects = store_join(effects, partial)
        t2 = clock()
        fired.extend(rule_fired)
        rule_spans += [(f"rule_eval.eval_rule.r{label}", t0, t1), ("domains.store_join", t1, t2)]
        eval_ms[label] = eval_ms.get(label, 0.0) + (t1 - t0)
        fired_by[label] = fired_by.get(label, 0) + len(rule_fired)
        join_s += t2 - t1
    t_int0 = clock()
    snapshot = apply_internal(env, effects, sigma_prime)
    t_int1 = clock()
    record = TickRecord(tick, tuple(changes), tuple(fired), snapshot, None)
    text = serialize_tick(record, fmt)
    t_end = clock()

    root = len(spans)
    spans.append(("tick", t_start, t_end, -1))
    spans.append(("runtime.apply_external", t_start, t_ext, root))
    spans += [(name, s, e, root) for name, s, e in rule_spans]
    spans.append(("runtime.apply_internal", t_int0, t_int1, root))
    spans.append(("serialize.serialize_tick", t_int1, t_end, root))

    sample = TickSample(
        total=t_end - t_start,
        apply_external=t_ext - t_start,
        eval_rule=eval_ms,
        store_join=join_s,
        apply_internal=t_int1 - t_int0,
        serialize=t_end - t_int1,
        fired=fired_by,
        binding_space=binding_spaces(checked, sigma_prime),
        store_entities=len(snapshot),
        effect_keys=sum(len(e.attributes) + len(e.events) for e in effects.values()),
        bytes=len(text.encode()),
    )
    return RunState(sigma_prime, snapshot, tick), record, text, sample


def binding_spaces(checked: CheckedProgram, store: dict) -> dict[int, int]:
    """Per rule label: the product of the populations, in ``store``, of the
    rule's interface-bound variables."""
    population: dict[str, int] = {}
    for entity in store.values():
        population[entity.interface_id] = population.get(entity.interface_id, 0) + 1
    out: dict[int, int] = {}
    for position, rule in enumerate(checked.rules, start=1):
        label = rule.label if rule.label is not None else position
        space = 1
        for interface in typed_variables(rule).values():
            space *= population.get(interface, 0)
        out[label] = space
    return out


@dataclass
class TracedResult:
    samples: list[TickSample] = field(default_factory=list)
    spans: list[Span] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    pass_digests: list[str] = field(default_factory=list)


def run_traced(wl: Workload, result: TracedResult | None = None) -> TracedResult:
    """Replay one whole pass, from a fresh load, through :func:`traced_step`,
    adding to ``result`` if given."""
    mode = TriggerMode(wl.mode)
    result = TracedResult() if result is None else result
    loaded = load(wl)
    checked = loaded.checked
    state = loaded.state
    hasher = hashlib.sha256()
    for index, changes in enumerate(loaded.ticks):
        result.attempted += 1
        try:
            state, record, text, sample = traced_step(
                state, changes, checked, mode, wl.fmt, result.spans
            )
        except Exception:  # noqa: BLE001 - a raising tick is a failed tick
            result.failed += len(loaded.ticks) - index
            result.attempted += len(loaded.ticks) - index - 1
            break
        result.samples.append(sample)
        if fired_key(record) != wl.expected[index]:
            result.failed += 1
        hasher.update(text.encode())
    else:
        result.pass_digests.append(hasher.hexdigest())
    return result


def layer_timings(wl: Workload, min_reps: int, budget_s: float, max_reps: int) -> dict[str, float]:
    """Median wall time of each set-up call, each timed on its own."""
    times: dict[str, list[float]] = {"tokenize": [], "parse_program": [], "check_program": [], "parse_script": []}
    tokens = 0
    spent = 0.0
    while len(times["tokenize"]) < min_reps or (spent < budget_s and len(times["tokenize"]) < max_reps):
        t0 = clock()
        tokens = len(tokenize(wl.program)[0])
        t1 = clock()
        program = parse_program(wl.program)
        t2 = clock()
        check_program(program)
        t3 = clock()
        parse_script(wl.script)
        t4 = clock()
        times["tokenize"].append(t1 - t0)
        times["parse_program"].append(t2 - t1)
        times["check_program"].append(t3 - t2)
        times["parse_script"].append(t4 - t3)
        spent += t4 - t0
    medians = {k: statistics.median(v) for k, v in times.items()}
    medians["tokens"] = tokens
    return medians


# ── Peak memory of a fresh CLI process ───────────────────────────

_PROBE = (
    "import sys; sys.path.insert(0, sys.argv.pop(1)); "
    "from pantagruel.cli import main; sys.exit(main(sys.argv[1:]))"
)


def rss_probe(wl: Workload, src: Path, out_dir: Path, ticks: int) -> tuple[float, str | None]:
    """Run the first ``ticks`` ticks through ``pantagruel repl`` in a fresh
    process; return its peak RSS in MiB and the sha256 of its stdout (None
    if it failed)."""
    out_dir.mkdir(parents=True, exist_ok=True)
    program = out_dir / f"{wl.name}.ptg"
    script = out_dir / f"{wl.name}.evs"
    program.write_text(wl.program)
    lines = wl.script.splitlines(keepends=True)
    cut = [i for i, line in enumerate(lines) if line.strip() == "tick"][ticks - 1]
    script.write_text("".join(lines[: cut + 1]))
    argv = [sys.executable, "-c", _PROBE, str(src), "repl", str(program),
            "--mode", wl.mode, "--format", wl.fmt]
    with script.open("rb") as stdin:
        proc = subprocess.run(argv, stdin=stdin, capture_output=True, timeout=150, check=False)
    peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    digest = hashlib.sha256(proc.stdout).hexdigest() if proc.returncode == 0 else None
    return peak, digest
