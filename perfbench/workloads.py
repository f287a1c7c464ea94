"""Seeded workload generator with an independent expectation model.

Each workload is plain program text (``.ptg``) and event-script text
(``.evs``), plus the firings the generator expects on every tick.  The
expectation is derived from the generator's own knowledge of the building
it generated (which room each entity sits in, which sensor it changed,
which actions it expects to have fired), never from the interpreter.

The model follows the semantics in PAPER.md:

* a tick compares the post-external store of the previous tick with the
  post-external store of this one (the first tick compares against an
  empty store, so every key reads ``undef`` there);
* an implicit (action-named) event holds, in the post-external store of
  tick t, the value an effect wrote at tick t-1, else ``undef``;
* ``value = X`` in edge mode holds when X was not the previous value and is
  the current one; in level mode when it is the current one; ``value
  changed`` holds when the two differ, ``undef`` counting as a value.

Firings come in the interpreter's order: rule by rule, then by the bound
entity ids, variables in name order.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

# One expected firing: (rule label, ((variable, entity id), ...) sorted).
Firing = tuple[int, tuple[tuple[str, str], ...]]

UNDEF = None  # the model's stand-in for the interpreter's undef

# Ticks in a workload's script: enough that more than ten lie beyond p90.
TICKS = 110


@dataclass(frozen=True)
class Workload:
    name: str
    mode: str  # "edge" or "level", as the CLI's --mode
    fmt: str  # "text" or "jsonl", as the CLI's --format
    program: str
    script: str
    expected: tuple[tuple[Firing, ...], ...]  # one tuple of firings per tick

    @property
    def ticks(self) -> int:
        return len(self.expected)


def _eq(value: object, target: object) -> bool:
    return value is not UNDEF and value == target


def _test(mode: str, prev: object, cur: object, target: object) -> bool:
    if mode == "level":
        return _eq(cur, target)
    return not _eq(prev, target) and _eq(cur, target)


def _changed(prev: object, cur: object) -> bool:
    return prev != cur


def _lit(value: object) -> str:
    if value is UNDEF:
        return "undef"
    if value is True:
        return "true"
    if value is False:
        return "false"
    return str(value)


def _firing(label: int, **binding: str) -> Firing:
    return label, tuple(sorted(binding.items()))


def _order(firings: list[Firing]) -> tuple[Firing, ...]:
    """The interpreter's firing order: by rule label, then by the bound
    entity ids in variable-name order."""
    return tuple(sorted(firings, key=lambda f: (f[0], tuple(e for _, e in f[1]))))


# ── Buildings: join-sparse and level-dense ───────────────────────

_DEMO_INTERFACES = """\
interface MotionDetector {
      attribute room : Integer
      event detected : Boolean  }
interface Light {
      attribute room : Integer
      action switch( Boolean ) }
interface Fan {
      attribute room : Integer
      action setSpeed( Integer ) }
interface TemperatureSensor {
      event temperature : Integer }
"""

_BUILDING_INTERFACES = """\
interface MotionDetector {
      attribute room : Integer
      event detected : Boolean
      action ack( Boolean ) }
interface Light {
      attribute room : Integer
      action switch( Boolean )
      action flash( Integer ) }
interface Fan {
      attribute room : Integer
      action setSpeed( Integer ) }
interface TemperatureSensor {
      event temperature : Integer }
"""

# Rules 1-3 of demos/building.ptg.
_DEMO_RULES = """\
(1) when
       event detected from m:MotionDetector value = true
     trigger
       action switch(true) on l:Light with room = m.room
    end

(2) when
       event detected from m:MotionDetector value = false
     trigger
       action switch(false) on l:Light with room = m.room
    end

(3) when
       event switch from l:Light value = true
       and  event temperature from thermo value = 30
    trigger
       action setSpeed(10) on f:Fan with room = l.room
    end
"""

# The demo rules plus one cheap single-variable `value changed` rule.
_JOIN_SPARSE_RULES = _DEMO_RULES + """
(4) when
       event detected from m:MotionDetector value changed
     trigger
       action ack(true) on m
    end
"""

# Rule 1 gains a `||` body and rule 4 a `,` body.  The second call of each
# filters back to the first call's room, so a binding fires only when both
# entities share a room; both rules write the same ack value, which the
# join of the rule partials accepts.
_LEVEL_DENSE_RULES = """\
(1) when
       event detected from m:MotionDetector value = true
     trigger
       action switch(true) on l:Light with room = m.room
       || action ack(true) on m with room = l.room
    end

(2) when
       event detected from m:MotionDetector value = false
     trigger
       action switch(false) on l:Light with room = m.room
    end

(3) when
       event switch from l:Light value = true
       and  event temperature from thermo value = 30
    trigger
       action setSpeed(10) on f:Fan with room = l.room
    end

(4) when
       event detected from m:MotionDetector value changed
     trigger
       action flash(m.room) on l:Light with room = m.room ,
       action ack(true) on m with room = l.room
    end
"""


def _building_program(rooms: int, interfaces: str, rules: str) -> str:
    lines = [interfaces]
    for r in range(rooms):
        room = r + 1
        lines.append(f"md{r}:MotionDetector {{ room : {room} }}")
        lines.append(f"lt{r}a:Light {{ room : {room} }}")
        lines.append(f"lt{r}b:Light {{ room : {room} }}")
        lines.append(f"fan{r}:Fan {{ room : {room} }}")
    lines.append("thermo:TemperatureSensor{}")
    lines.append("")
    lines.append("rules")
    lines.append(rules)
    lines.append("end")
    return "\n".join(lines) + "\n"


def _building(
    rng: random.Random,
    name: str,
    rooms: int,
    ticks: int,
    level: bool,
    rules: str,
    interfaces: str,
    toggles: int,
    heat_every: int,
) -> Workload:
    """Generate a building and its script, modelling rules 1-4 as they apply.

    ``level`` selects the level-dense rule bodies; with ``rules`` set to
    the demo rules, only rules 1-3 exist and rule 4 is not modelled.  The
    temperature reads 30 on every ``heat_every``-th tick and 29 otherwise,
    so every seed has the same mix of ticks with and without a temperature
    edge; the seed picks the detectors that toggle.
    """
    mode = "level" if level else "edge"
    has_rule4 = "(4)" in rules
    lights = {r: (f"lt{r}a", f"lt{r}b") for r in range(rooms)}
    detected: dict[int, object] = {r: UNDEF for r in range(rooms)}
    # Post-external values of the previous tick; tick 1 reads an empty store.
    detected_prev: dict[int, object] = {r: UNDEF for r in range(rooms)}
    temperature_prev: object = UNDEF
    # Implicit `switch` values in the post-external store: written by the
    # effects of tick t-1 (current) and tick t-2 (previous).
    switch_cur: dict[str, object] = {}
    switch_prev: dict[str, object] = {}

    script: list[str] = []
    expected: list[tuple[Firing, ...]] = []
    for tick in range(1, ticks + 1):
        for r in sorted(rng.sample(range(rooms), toggles)):
            value = rng.choice((True, False)) if detected[r] is UNDEF else not detected[r]
            detected[r] = value
            script.append(f"event md{r}.detected = {_lit(value)}")
        temperature = 30 if tick % heat_every == 0 else 29
        script.append(f"event thermo.temperature = {temperature}")
        script.append("tick")

        firings: list[Firing] = []
        switch_written: dict[str, object] = {}
        for r in range(rooms):
            for target, label in ((True, 1), (False, 2)):
                if _test(mode, detected_prev[r], detected[r], target):
                    for light in lights[r]:
                        firings.append(_firing(label, l=light, m=f"md{r}"))
                        switch_written[light] = target
            if has_rule4 and _changed(detected_prev[r], detected[r]):
                if level:
                    for light in lights[r]:
                        firings.append(_firing(4, l=light, m=f"md{r}"))
                else:
                    firings.append(_firing(4, m=f"md{r}"))
        if _test(mode, temperature_prev, temperature, 30):
            for r in range(rooms):
                for light in lights[r]:
                    prev = switch_prev.get(light, UNDEF)
                    if _test(mode, prev, switch_cur.get(light, UNDEF), True):
                        firings.append(_firing(3, f=f"fan{r}", l=light, thermo="thermo"))
        expected.append(_order(firings))

        detected_prev = dict(detected)
        temperature_prev = temperature
        switch_prev, switch_cur = switch_cur, switch_written

    return Workload(
        name,
        mode,
        "text",
        _building_program(rooms, interfaces, rules),
        "\n".join(script) + "\n",
        tuple(expected),
    )


def join_sparse(seed: int, rooms: int = 40, ticks: int = TICKS) -> Workload:
    """Edge mode: two detectors toggle per tick and the temperature rises
    to 30 on every fourth tick, so few of the candidate bindings fire."""
    rng = random.Random(f"join-sparse:{seed}")
    return _building(
        rng, "join-sparse", rooms, ticks, False, _JOIN_SPARSE_RULES,
        _BUILDING_INTERFACES, toggles=min(2, rooms), heat_every=4,
    )


def level_dense(seed: int, rooms: int = 30, ticks: int = TICKS) -> Workload:
    """Level mode: a fifth of the rooms toggle per tick at a steady 30
    degrees, so every room with a defined detector fires every tick."""
    rng = random.Random(f"level-dense:{seed}")
    return _building(
        rng, "level-dense", rooms, ticks, True, _LEVEL_DENSE_RULES,
        _BUILDING_INTERFACES, toggles=max(1, rooms // 5), heat_every=1,
    )


def demo_building(seed: int, rooms: int, ticks: int) -> Workload:
    """The demos/building.ptg interfaces and rules 1-3 on a generated
    building, as in the ROADMAP baseline table."""
    rng = random.Random(f"demo-building:{seed}")
    return _building(
        rng, "demo-building", rooms, ticks, False, _DEMO_RULES,
        _DEMO_INTERFACES, toggles=min(2, rooms), heat_every=4,
    )


# ── churn-wide ───────────────────────────────────────────────────

_CHURN_INTERFACES = """\
interface Meter {
      attribute zone : Integer
      event reading : Integer }
interface Zone {
      attribute num : Integer
      action alert( Boolean )
      action blink( Boolean ) }
interface Siren {
      attribute zone : Integer
      action sound( Boolean ) }
interface Alarm {
      attribute zone : Integer
      event triggered : Boolean }
"""

_CHURN_RULES = """\
(1) when
       event triggered from a:Alarm value = true
     trigger
       action sound(true) on s:Siren with zone = a.zone
    end

(2) when
       event triggered from a:Alarm value = false
     trigger
       action sound(false) on s:Siren with zone = a.zone
    end

(3) when
       event triggered from a:Alarm value changed
     trigger
       action alert(true) on z:Zone with num = a.zone
    end

(4) when
       event sound from s:Siren value = true
     trigger
       action blink(true) on z:Zone with num = s.zone
    end
"""


def churn_wide(
    seed: int,
    meters: int = 2_500,
    zones: int = 4,
    ticks: int = TICKS,
    writes: int = 50,
    attrs: int = 10,
    churn: int = 5,
) -> Workload:
    """Edge mode, jsonl: a wide store of meters that the rules never read,
    churned every tick, next to a few zones, sirens and alarms that the
    four rules join over."""
    rng = random.Random(f"churn-wide:{seed}")
    program = [_CHURN_INTERFACES]
    for k in range(zones):
        program.append(f"zone{k}:Zone {{ num : {k} }}")
        program.append(f"alarm{k}:Alarm {{ zone : {k} }}")
        program.append(f"siren{k}a:Siren {{ zone : {k} }}")
        program.append(f"siren{k}b:Siren {{ zone : {k} }}")
    live = [f"mtr{i}" for i in range(meters)]
    for i, meter in enumerate(live):
        program.append(f"{meter}:Meter {{ zone : {i % zones} }}")
    program += ["", "rules", _CHURN_RULES, "end"]
    next_meter = meters

    sirens = {k: (f"siren{k}a", f"siren{k}b") for k in range(zones)}
    triggered: dict[int, object] = {k: UNDEF for k in range(zones)}
    triggered_prev: dict[int, object] = {k: UNDEF for k in range(zones)}
    sound_cur: dict[str, object] = {}
    sound_prev: dict[str, object] = {}

    script: list[str] = []
    expected: list[tuple[Firing, ...]] = []
    for _ in range(ticks):
        removed = set(rng.sample(live, churn))
        script += [f"remove {m}" for m in sorted(removed)]
        survivors = [m for m in live if m not in removed]
        for _ in range(churn):
            meter = f"mtr{next_meter}"
            next_meter += 1
            script.append(f"deploy {meter} : Meter {{ zone : {rng.randrange(zones)} }}")
            survivors.append(meter)
        targets = rng.sample(survivors[: len(survivors) - churn], writes + attrs)
        script += [
            f"event {m}.reading = {rng.randrange(1000)}" for m in targets[:writes]
        ]
        script += [f"attr {m}.zone = {rng.randrange(zones)}" for m in targets[writes:]]
        live = survivors
        k = rng.randrange(zones)
        triggered[k] = rng.choice((True, False)) if triggered[k] is UNDEF else not triggered[k]
        script.append(f"event alarm{k}.triggered = {_lit(triggered[k])}")
        script.append("tick")

        firings: list[Firing] = []
        sound_written: dict[str, object] = {}
        for k in range(zones):
            alarm = f"alarm{k}"
            for target, label in ((True, 1), (False, 2)):
                if _test("edge", triggered_prev[k], triggered[k], target):
                    for siren in sirens[k]:
                        firings.append(_firing(label, a=alarm, s=siren))
                        sound_written[siren] = target
            if _changed(triggered_prev[k], triggered[k]):
                firings.append(_firing(3, a=alarm, z=f"zone{k}"))
            for siren in sirens[k]:
                prev = sound_prev.get(siren, UNDEF)
                if _test("edge", prev, sound_cur.get(siren, UNDEF), True):
                    firings.append(_firing(4, s=siren, z=f"zone{k}"))
        expected.append(_order(firings))

        triggered_prev = dict(triggered)
        sound_prev, sound_cur = sound_cur, sound_written

    return Workload(
        "churn-wide",
        "edge",
        "jsonl",
        "\n".join(program) + "\n",
        "\n".join(script) + "\n",
        tuple(expected),
    )


WORKLOADS = {
    "join-sparse": join_sparse,
    "level-dense": level_dense,
    "churn-wide": churn_wide,
}
