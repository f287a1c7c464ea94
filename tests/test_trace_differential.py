"""Trace-level differential suite: whole runs against the closure oracle.

Each case generates a random building and a random script of event and
attribute writes, deploys and removes, and runs it in both trigger modes.
``step`` with ``serialize_tick`` must print, in ``text`` and ``jsonl``,
the same bytes as a tick loop assembled from ``apply_external``, the
closure evaluator of ``closure_eval``, ``store_join`` and
``apply_internal``.  The oracle enumerates bindings with its own
exhaustive loop over the whole store, so the candidate pools and their
order are under test too.  Conflicts are recorded rather than raised, so
a tick whose rules interfere is compared by its printed ``conflict``
line.

The rules cover bare-name atoms, ``or`` conditions, conditions and
filters that read a second variable, bodies whose every call links the
same two variables (``||`` and ``,``), ``value changed``, and conditions
on implicit events, which the reset clears one tick after they are set.
A second suite adds edge atoms compared with a bare entity's member
(``value = thermo.temperature``), which can become true on a tick that
leaves the atom's own entity untouched.
"""

from __future__ import annotations

import random

import closure_eval
from pantagruel import (
    UNDEF,
    ConflictError,
    DualStore,
    TriggerMode,
    apply_external,
    apply_internal,
    check_program,
    initial_state,
    parse_program,
    parse_script,
    serialize_tick,
    step,
    store_join,
)
from pantagruel.runtime import RunState, TickRecord

SEED = 20_108
CASES = 100
TICKS = 12
FORMATS = ("text", "jsonl")

SPEC = """\
interface Motion { attribute room : Integer event detected : Boolean
                   event level : Integer action ack ( Boolean ) }
interface Light { attribute room : Integer action switch ( Boolean ) }
interface Fan { attribute room : Integer action setSpeed ( Integer ) }
interface Thermo { event temperature : Integer }
"""

# Each template takes a random truth value ``b``, level ``n`` and temperature ``t``.
RULES = {
    "bare": "when event temperature from thermo value = {t} "
    "trigger action setSpeed({n}) on f:Fan end",
    "motion": "when event detected from m:Motion value = {b} "
    "trigger action switch({b}) on l:Light with room = m.room end",
    "implicit": "when event switch from l:Light value = true "
    "and event temperature from thermo value = {t} "
    "trigger action setSpeed(10) on f:Fan with room = l.room end",
    "or": "when event detected from m:Motion value = {b} "
    "or event level from m value = {n} "
    "trigger action ack(true) on m end",
    "or-bare": "when event level from m:Motion value = {n} "
    "or event temperature from thermo value changed "
    "trigger action ack({b}) on m || action switch({b}) on l:Light with room = m.room end",
    "second-filter": "when event detected from m:Motion value = true "
    "and event switch from l:Light with room = m.room value = {b} "
    "trigger action setSpeed({n}) on f:Fan with room = l.room end",
    "second-value": "when event detected from k:Motion value = {b} "
    "and event level from m:Motion value = k.level "
    "trigger action ack(true) on m with room = k.room end",
    "changed": "when event level from m:Motion value changed "
    "trigger action ack(true) on m , action switch(false) on l:Light with room = m.room end",
    "ack": "when event ack from m:Motion value = true "
    "trigger action switch({b}) on l:Light with room = m.room end",
    "linked-par": "when event detected from m:Motion value = {b} "
    "trigger action switch({b}) on l:Light with room = m.room "
    "|| action ack({b}) on m with room = l.room end",
    "linked-seq": "when event level from m:Motion value changed "
    "trigger action switch(true) on l:Light with room = m.room , "
    "action ack(true) on m with room = l.room end",
}

# The second suite's templates and seed, and the temperatures its scripts
# write: levels (0–3) among them, so ``level`` can equal them.
PATH_RULES = {
    **{name: RULES[name] for name in ("bare", "motion", "changed", "ack", "linked-par")},
    "edge-path": "when event temperature from thermo value changed "
    "and event level from m:Motion value = thermo.temperature "
    "trigger action ack(true) on m end",
    "edge-path-linked": "when event temperature from thermo value changed "
    "and event level from m:Motion value = thermo.temperature "
    "trigger action switch({b}) on l:Light with room = m.room end",
}
PATH_SEED = 20_115
PATH_TEMPERATURES = ("0", "1", "2", "3", "29", "30", "undef")


def _rule(rng: random.Random, name: str, rules: dict[str, str]) -> str:
    return rules[name].format(
        b=rng.choice(["true", "false"]), n=rng.randint(0, 3), t=rng.choice([29, 30])
    )


def _entity(rng: random.Random, name: str, interface: str) -> str:
    room = "" if interface == "Thermo" else f"room : {rng.randint(1, 3)}"
    return f"{name}:{interface} {{ {room} }}"


_PREFIX = {"Motion": "m", "Light": "l", "Fan": "f"}


def _building(
    rng: random.Random, rules: dict[str, str]
) -> tuple[str, list[str], dict[str, str]]:
    """Program text with 2–5 random rules of ``rules``, the rules'
    template names in order, and the entities by name."""
    entities = {"thermo": "Thermo"}
    for interface, prefix in _PREFIX.items():
        for k in range(rng.randint(1, 4)):
            entities[f"{prefix}{k}"] = interface
    names = rng.sample(sorted(rules), rng.randint(2, 5))
    # declared out of order, so that no store is built in id order
    declared = [_entity(rng, name, interface) for name, interface in entities.items()]
    rng.shuffle(declared)
    lines = [SPEC, *declared]
    lines.append("rules")
    lines += [_rule(rng, name, rules) for name in names]
    lines.append("end")
    return "\n".join(lines) + "\n", names, entities


def _script(rng: random.Random, live: dict[str, str], temperatures: tuple[str, ...]) -> str:
    """``TICKS`` ticks of valid changes: removes, then deploys, then writes
    to entities alive after both, as ``apply_external`` orders them."""
    live = dict(live)
    gone: dict[str, str] = {}
    fresh = 0
    lines: list[str] = []
    for _ in range(TICKS):
        if rng.random() < 0.2 and live:
            name = rng.choice(sorted(live))
            gone[name] = live.pop(name)
            lines.append(f"remove {name}")
        if rng.random() < 0.25:
            if gone and rng.random() < 0.5:
                name = rng.choice(sorted(gone))
                interface = gone.pop(name)
            else:
                interface = rng.choice(sorted(_PREFIX))
                name = f"{_PREFIX[interface]}new{fresh}"
                fresh += 1
            live[name] = interface
            lines.append(f"deploy {_entity(rng, name, interface)}")
        for _ in range(rng.randint(0, 4)):
            if not live:
                break
            name = rng.choice(sorted(live))
            interface = live[name]
            if interface == "Thermo":
                lines.append(f"event {name}.temperature = {rng.choice(temperatures)}")
            elif interface == "Motion" and rng.random() < 0.7:
                if rng.random() < 0.6:
                    value = rng.choice(["true", "false", "undef"])
                    lines.append(f"event {name}.detected = {value}")
                else:
                    lines.append(f"event {name}.level = {rng.randint(0, 3)}")
            else:
                lines.append(f"attr {name}.room = {rng.randint(1, 3)}")
        lines.append("tick")
    return "\n".join(lines) + "\n"


def _stepped(checked, ticks, mode, fmt) -> str:
    state = initial_state(checked.initial_store)
    out = []
    for changes in ticks:
        state, record = step(
            state, changes, checked.rules, checked.env, mode, strict_conflicts=False
        )
        out.append(serialize_tick(record, fmt))
    return "".join(out)


def _oracle(checked, names, ticks, mode, fmt, tally) -> str:
    env = checked.env
    state = initial_state(checked.initial_store)
    out = []
    for changes in ticks:
        tick = state.tick + 1
        sigma_prime = apply_external(changes, state.current, env)
        dual = DualStore(state.previous, sigma_prime)
        effects: dict = {}
        fired: list = []
        conflict = None
        try:
            for position, rule in enumerate(checked.rules, start=1):
                label = rule.label if rule.label is not None else position
                partial, rule_fired = closure_eval.eval_rule(env, rule, dual, mode, label=label)
                effects = store_join(effects, partial)
                fired.extend(rule_fired)
        except ConflictError as exc:
            conflict = str(exc)
            effects, fired = {}, []
            tally["conflicts"] += 1
        for fired_rule in fired:
            name = names[fired_rule.label - 1]
            tally[name] += 1
            # counted only where the suite asks for it: firings whose
            # ``m`` is the very object of the previous store
            untouched = f"{name}, m untouched"
            if untouched in tally:
                m = fired_rule.binding["m"]
                tally[untouched] += dual.previous.get(m) is dual.current[m]
        tally["resets"] += sum(
            entity.events.get(key, UNDEF) is not UNDEF
            for entity in sigma_prime.values()
            for key in env[entity.interface_id].actions
        )
        snapshot = apply_internal(env, effects, sigma_prime)
        record = TickRecord(tick, tuple(changes), tuple(fired), snapshot, conflict)
        out.append(serialize_tick(record, fmt))
        state = RunState(sigma_prime, snapshot, tick)
    return "".join(out)


def _compare(rng, rules, temperatures, tally) -> None:
    """``CASES`` random buildings with rules of ``rules``, their scripts
    writing ``temperatures``: ``step`` against the oracle in both modes
    and both formats."""
    for _ in range(CASES):
        source, names, entities = _building(rng, rules)
        checked = check_program(parse_program(source))
        assert checked.ok, source
        script = _script(rng, entities, temperatures)
        ticks = parse_script(script)
        for mode in TriggerMode:
            for fmt in FORMATS:
                want = _oracle(checked, names, ticks, mode, fmt, tally)
                assert _stepped(checked, ticks, mode, fmt) == want, (source, script, mode, fmt)


def test_stepped_traces_match_the_closure_oracle():
    rng = random.Random(SEED)
    tally = dict.fromkeys([*RULES, "conflicts", "resets"], 0)
    _compare(rng, RULES, ("29", "30", "undef"), tally)
    assert all(tally.values()), tally
    print(f"trace differential ({CASES} cases, seed {SEED}): {tally}")


def test_edge_paths_to_a_bare_entity_match_the_closure_oracle():
    """``value = thermo.temperature`` in EDGE mode turns true on a tick
    where only the thermometer changed, so its atom's pool must keep the
    detectors that did not change.  Each edge-path template must fire
    with its ``m`` untouched."""
    rng = random.Random(PATH_SEED)
    tally = dict.fromkeys([*PATH_RULES, "conflicts", "resets"], 0)
    for name in PATH_RULES:
        if name not in RULES:
            tally[f"{name}, m untouched"] = 0
    _compare(rng, PATH_RULES, PATH_TEMPERATURES, tally)
    assert all(tally.values()), tally
    print(f"trace differential, edge paths ({CASES} cases, seed {PATH_SEED}): {tally}")
