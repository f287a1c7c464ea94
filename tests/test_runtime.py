"""The tick loop: external changes, internal resets, traces."""

from __future__ import annotations

import dataclasses
import random

import pytest

from pantagruel import (
    UNDEF,
    AttributeUpdate,
    ConflictError,
    Deploy,
    EventUpdate,
    ExternalChangeError,
    Remove,
    TriggerMode,
    UnknownEntityError,
    apply_external,
    apply_internal,
    check_program,
    initial_state,
    parse_program,
    run_trace,
    serialize_tick,
    step,
    update_member,
)
from pantagruel import runtime
from pantagruel.domains import DualStore, Entity
from pantagruel.parser import parse_entity_decl
from pantagruel.rule_eval import plan_block
from pantagruel.runtime import RunState, TickRecord

from support import (
    BUILDING_SPEC,
    RULE_1,
    RULE_3,
    assert_renders_as_fresh,
    produced_keys,
    program_source,
    with_event,
)

EDGE = TriggerMode.EDGE
LEVEL = TriggerMode.LEVEL


# ── apply_external ───────────────────────────────────────────────


def test_event_update_applies(building):
    out = apply_external(
        [EventUpdate("m10", "detected", True)], building.initial_store, building.env
    )
    assert out["m10"].events["detected"] is True
    rest = {k: v for k, v in out.items() if k != "m10"}
    assert rest == {k: v for k, v in building.initial_store.items() if k != "m10"}


def test_no_changes_is_identity(building):
    assert apply_external([], building.initial_store, building.env) == building.initial_store


def test_deploy_builds_entity_like_the_spec_layer(building):
    decl = parse_entity_decl("l30 : Light { room : 101 }")
    out = apply_external([Deploy(decl)], building.initial_store, building.env)
    # oracle: evaluating a one-entity specification gives the same entity
    solo = check_program(
        parse_program("interface Light { attribute room : Integer action switch ( Boolean ) }\nl30:Light { room : 101 }\nrules end")
    )
    assert out["l30"] == solo.initial_store["l30"]
    assert out["l30"].events == {"switch": UNDEF}


def test_remove_then_write_is_diagnosed(building):
    with pytest.raises(ExternalChangeError) as exc:
        apply_external(
            [Remove("l10"), EventUpdate("l10", "detected", True)],
            building.initial_store,
            building.env,
        )
    assert [d.code for d in exc.value.diagnostics] == ["unknown-entity"]


def test_implicit_event_write_rejected(building):
    with pytest.raises(ExternalChangeError) as exc:
        apply_external(
            [EventUpdate("l10", "switch", True)], building.initial_store, building.env
        )
    assert [d.code for d in exc.value.diagnostics] == ["implicit-event-write"]


def test_unknown_member_and_type_mismatch(building):
    with pytest.raises(ExternalChangeError) as exc:
        apply_external(
            [
                EventUpdate("m10", "nope", True),
                EventUpdate("m10", "detected", 3),
                AttributeUpdate("l10", "room", True),
            ],
            building.initial_store,
            building.env,
        )
    assert [d.code for d in exc.value.diagnostics] == [
        "unknown-member",
        "type-mismatch",
        "type-mismatch",
    ]


def test_undef_write_models_sensor_dropout(building):
    primed = apply_external(
        [EventUpdate("m10", "detected", True)], building.initial_store, building.env
    )
    out = apply_external([EventUpdate("m10", "detected", UNDEF)], primed, building.env)
    assert out["m10"].events["detected"] is UNDEF


def test_duplicate_deploy_rejected(building):
    decl = parse_entity_decl("l10 : Light { room : 101 }")
    with pytest.raises(ExternalChangeError) as exc:
        apply_external([Deploy(decl)], building.initial_store, building.env)
    assert [d.code for d in exc.value.diagnostics] == ["duplicate-entity"]


# ── apply_internal ───────────────────────────────────────────────


def test_effects_layer_onto_store(building):
    sigma = with_event(building.initial_store, "m10", "detected", True)
    effects = {
        "l10": building.initial_store["l10"].__class__("Light", {}, {"switch": True}),
        "l11": building.initial_store["l11"].__class__("Light", {}, {"switch": True}),
    }
    out = apply_internal(building.env, effects, sigma)
    assert out["l10"].events["switch"] is True
    assert out["l11"].events["switch"] is True
    assert out["l10"].attributes == {"room": 101}  # untouched by the skeleton


def test_set_implicit_events_reset_then_effects_win(building):
    from pantagruel.domains import DualStore, Entity

    sigma = building.initial_store
    sigma = {**sigma, "l10": Entity("Light", sigma["l10"].attributes, {"switch": True})}
    sigma = {**sigma, "l11": Entity("Light", sigma["l11"].attributes, {"switch": True})}
    effects = {"fan10": Entity("Fan", {}, {"setSpeed": 10})}
    out = apply_internal(building.env, effects, sigma)
    assert out["l10"].events["switch"] is UNDEF
    assert out["l11"].events["switch"] is UNDEF
    assert out["fan10"].events["setSpeed"] == 10


def test_no_set_implicits_no_effects_is_identity(building):
    assert apply_internal(building.env, {}, building.initial_store) == building.initial_store


def test_apply_internal_rebuilds_only_reset_or_affected_entities(building):
    from pantagruel.domains import DualStore, Entity

    sigma = with_event(building.initial_store, "m10", "detected", True)
    sigma = {**sigma, "l11": Entity("Light", sigma["l11"].attributes, {"switch": True})}
    effects = {"l10": Entity("Light", {}, {"switch": True})}
    out = apply_internal(building.env, effects, sigma)
    assert out["l10"].events["switch"] is True
    assert out["l11"].events["switch"] is UNDEF
    # no set implicit event and no effect (m10's set event is a sensor
    # reading, not an implicit one): the very objects of sigma'
    for entity_id in ("m10", "m20", "l20", "fan10", "fan20", "thermo"):
        assert out[entity_id] is sigma[entity_id]


def test_apply_external_passes_untouched_entities_on_as_the_same_objects(building):
    store = building.initial_store
    changes = [
        EventUpdate("m10", "detected", True),
        AttributeUpdate("fan20", "room", 202),
        Deploy(parse_entity_decl("l30 : Light { room : 301 }")),
        Remove("l20"),
    ]
    out = apply_external(changes, store, building.env)
    assert out["m10"].events["detected"] is True
    assert out["fan20"].attributes["room"] == 202
    assert out["l30"].attributes["room"] == 301
    assert "l20" not in out
    touched = {"m10", "fan20", "l30", "l20"}
    untouched = [k for k in store if k not in touched]
    assert untouched == ["m20", "l10", "l11", "fan10", "thermo"]
    for entity_id in untouched:
        assert out[entity_id] is store[entity_id]
    assert out["m10"] is not store["m10"] and out["fan20"] is not store["fan20"]


def test_sensor_events_survive_the_reset(building):
    sigma = with_event(building.initial_store, "m10", "detected", True)
    out = apply_internal(building.env, {}, sigma)
    assert out["m10"].events["detected"] is True


# ── step ─────────────────────────────────────────────────────────


def test_step_motion_tick(building):
    state = initial_state(building.initial_store)
    state, record = step(
        state, [EventUpdate("m10", "detected", True)], building.rules, building.env, EDGE
    )
    assert record.tick == 1
    assert [(f.label, f.binding) for f in record.fired] == [
        (1, {"l": "l10", "m": "m10"}),
        (1, {"l": "l11", "m": "m10"}),
    ]
    snap = record.snapshot
    assert snap["l10"].events["switch"] is True
    assert snap["l11"].events["switch"] is True
    assert snap["l20"].events["switch"] is UNDEF
    assert snap["m10"].events["detected"] is True
    # the next tick's "previous" is the post-external, pre-internal store
    assert state.previous["l10"].events["switch"] is UNDEF
    assert state.current == snap


def test_step_quiescent_tick(building):
    state = initial_state(building.initial_store)
    state, record = step(state, [], building.rules, building.env, EDGE)
    assert record.fired == ()
    assert record.snapshot == building.initial_store


def test_temperature_29_then_30_edge_needs_switch_edge(building):
    """An edge into 30 alone does not fire the fan rule: its other conjunct
    (a switch edge) must hold in the same tick."""
    script = [
        [EventUpdate("thermo", "temperature", 29)],
        [EventUpdate("thermo", "temperature", 30)],
    ]
    records = run_trace(building, script, mode=EDGE)
    assert all(r.fired == () for r in records)
    assert records[1].snapshot["fan10"].events["setSpeed"] is UNDEF


# ── run_trace ────────────────────────────────────────────────────


def test_empty_script_empty_trace(building):
    assert run_trace(building, []) == []


def test_trace_is_deterministic(building):
    script = [
        [EventUpdate("m10", "detected", True)],
        [EventUpdate("thermo", "temperature", 30)],
        [],
        [EventUpdate("thermo", "temperature", 29)],
    ]
    assert run_trace(building, script, mode=EDGE) == run_trace(building, script, mode=EDGE)


def test_prefix_monotonicity(building):
    script = [
        [EventUpdate("m10", "detected", True)],
        [EventUpdate("thermo", "temperature", 30)],
        [],
        [EventUpdate("thermo", "temperature", 29)],
    ]
    full = run_trace(building, script, mode=EDGE)
    for n in range(len(script) + 1):
        assert run_trace(building, script[:n], mode=EDGE) == full[:n]


def test_sensor_persistence_across_ticks(building):
    script = [[EventUpdate("m10", "detected", True)], [], [], []]
    records = run_trace(building, script, mode=EDGE)
    assert all(r.snapshot["m10"].events["detected"] is True for r in records)


def test_deploy_mid_run_joins_future_firings(building):
    script = [
        [EventUpdate("m10", "detected", True)],
        [Deploy(parse_entity_decl("l30 : Light { room : 101 }"))],
        [EventUpdate("m10", "detected", False)],
        [EventUpdate("m10", "detected", True)],
    ]
    records = run_trace(building, script, mode=EDGE)
    final = records[3].snapshot
    assert final["l10"].events["switch"] is True
    assert final["l11"].events["switch"] is True
    assert final["l30"].events["switch"] is True
    assert final["l20"].events["switch"] is UNDEF
    assert [f.binding for f in records[3].fired] == [
        {"l": "l10", "m": "m10"},
        {"l": "l11", "m": "m10"},
        {"l": "l30", "m": "m10"},
    ]


def test_remove_mid_run_makes_bare_references_inert():
    src = program_source(
        "when event temperature from thermo value changed "
        "trigger action setSpeed(1) on f:Fan end\n"
    )
    checked = check_program(parse_program(src))
    script = [
        [EventUpdate("thermo", "temperature", 20)],
        [Remove("thermo")],
    ]
    records = run_trace(checked, script, mode=EDGE)
    assert records[0].fired != ()
    assert "thermo" not in records[1].snapshot
    assert records[1].fired == ()  # the bare name no longer resolves


def test_external_change_error_carries_tick(building):
    script = [[], [EventUpdate("ghost", "detected", True)]]
    with pytest.raises(ExternalChangeError) as exc:
        run_trace(building, script, mode=EDGE)
    assert exc.value.tick == 2


def _conflict_program():
    return check_program(
        parse_program(
            program_source(
                "when event detected from m:MotionDetector value = true "
                "trigger action switch(true) on l:Light end\n",
                "when event detected from m:MotionDetector value = true "
                "trigger action switch(false) on l:Light end\n",
            )
        )
    )


def test_conflict_strict_raises_with_tick():
    checked = _conflict_program()
    with pytest.raises(ConflictError) as exc:
        run_trace(checked, [[EventUpdate("m10", "detected", True)]], mode=EDGE)
    assert exc.value.tick == 1
    assert (exc.value.entity_id, exc.value.key) == ("l10", "switch")


def test_conflict_relaxed_records_and_drops_effects():
    checked = _conflict_program()
    records = run_trace(
        checked, [[EventUpdate("m10", "detected", True)]], mode=EDGE, strict_conflicts=False
    )
    record = records[0]
    assert record.conflict is not None and "l10.switch" in record.conflict
    assert record.fired == ()
    assert all(v is UNDEF for e in record.snapshot.values() for v in [e.events.get("switch")] if "switch" in e.events)


def test_run_refuses_unchecked_program():
    checked = check_program(parse_program("x:Ghost{}\nrules end"))
    with pytest.raises(ValueError):
        run_trace(checked, [])


def test_level_mode_refires_while_condition_held(building):
    """Level reading makes a held `value = X` fire every tick, so implicit
    events are re-produced after each reset; edge fires once.  This is the
    observable difference between the two modes at the trace level."""
    script = [[EventUpdate("m10", "detected", True)], [], []]
    level = run_trace(building, script, mode=LEVEL)
    assert all(r.snapshot["l10"].events["switch"] is True for r in level)
    assert all(any(f.label == 1 for f in r.fired) for r in level)
    edge = run_trace(building, script, mode=EDGE)
    assert [r.snapshot["l10"].events["switch"] for r in edge] == [True, UNDEF, UNDEF]


def test_a_level_rule_refiring_on_an_unchanged_light_keeps_its_object(building):
    """Tick 2 writes ``m10.detected = true`` again and rule 1, in LEVEL
    mode, switches ``l10`` and ``l11`` on again: the reset and the effect
    together give back what each light holds, so the snapshot holds the
    post-external store's very objects, as that store holds tick 1's."""
    changes = [EventUpdate("m10", "detected", True)]
    state, first = step(initial_state(building.initial_store), changes, building.rules, building.env, LEVEL)
    state, second = step(state, changes, building.rules, building.env, LEVEL)
    assert [f.binding for f in second.fired] == [f.binding for f in first.fired]
    assert [f.binding["l"] for f in second.fired] == ["l10", "l11"]
    sigma_prime = state.previous
    for entity_id in ("m10", "l10", "l11"):
        assert second.snapshot[entity_id] is sigma_prime[entity_id] is first.snapshot[entity_id]
    assert second.snapshot == first.snapshot


def test_implicit_reset_invariant_on_random_scripts(building):
    rng = random.Random(99)
    for _ in range(50):
        script = []
        for _ in range(rng.randint(1, 5)):
            changes = []
            if rng.random() < 0.6:
                changes.append(
                    EventUpdate(
                        rng.choice(["m10", "m20"]), "detected", rng.random() < 0.5
                    )
                )
            if rng.random() < 0.4:
                changes.append(
                    EventUpdate("thermo", "temperature", rng.randint(28, 31))
                )
            script.append(changes)
        state = initial_state(building.initial_store)
        for changes in script:
            before = state
            state, record = step(state, changes, building.rules, building.env, EDGE)
            produced = produced_keys(building, before, state, EDGE)
            for entity_id, entity in record.snapshot.items():
                iface = building.env[entity.interface_id]
                for key in iface.actions:
                    is_set = entity.events[key] is not UNDEF
                    assert is_set == ((entity_id, key) in produced)


def test_env_not_copied_by_the_loop(building):
    env_before = building.env
    run_trace(building, [[EventUpdate("m10", "detected", True)]], mode=EDGE)
    assert building.env is env_before


# ── resetting only what the last tick's effects set ──────────────


def test_reset_of_the_effect_ids_equals_the_full_scan(building):
    """Random post-external stores whose set implicit events all lie on
    the given ids (with ids that carry none, and ids removed from the
    store, among them) and random effect stores: resetting those ids alone
    gives the store of the full scan, rebuilding the same entities."""
    rng = random.Random(20_113)
    env = building.env
    ids = sorted(building.initial_store)
    acting = [e for e in ids if env[building.initial_store[e].interface_id].actions]
    values = [True, False, 0, 10, UNDEF]
    for _ in range(300):
        sigma = dict(building.initial_store)
        set_ids = rng.sample(ids, rng.randint(0, len(ids)))
        for entity_id in set_ids:
            actions = env[sigma[entity_id].interface_id].actions
            if actions and rng.random() < 0.7:
                events = {key: rng.choice(values) for key in actions}
                sigma[entity_id] = update_member(sigma, entity_id, events=events)
        for entity_id in rng.sample(ids, rng.randint(0, 2)):
            del sigma[entity_id]
        effects = {}
        for entity_id in rng.sample([e for e in acting if e in sigma], rng.randint(0, 3)):
            interface = sigma[entity_id].interface_id
            action = rng.choice(sorted(env[interface].actions))
            effects[entity_id] = Entity(interface, {}, {action: rng.choice(values[:4])})
        full = apply_internal(env, effects, sigma)
        fast = apply_internal(env, effects, sigma, set_ids)
        assert fast == full
        assert [e for e in fast if fast[e] is sigma[e]] == [e for e in full if full[e] is sigma[e]]


RESET_PROGRAM = program_source(
    RULE_1,
    RULE_3,
    "(4) when event temperature from thermo value = 30 "
    "trigger action switch(false) on l:Light end\n",
)


def _forgotten(state):
    """The state with its ``effect_ids`` dropped: every id may carry a set
    implicit event, so the reset visits every entity."""
    return dataclasses.replace(state, effect_ids=None)


def _hand_built(state):
    """The state as built by hand: its stores and tick, nothing else."""
    return RunState(state.previous, state.current, state.tick)


def _stepped_as_repl(checked, ticks, mode, forget=None):
    """Step ``ticks`` with effect conflicts recorded, as ``repl`` does: a
    tick whose changes are refused leaves the state as it was.  Each state
    stepped is first passed through ``forget``, if given.  Every record
    has its lineage, the state it was stepped from, and every new state
    carries the pair of its two stores, listing what a fresh pair lists."""
    state = initial_state(checked.initial_store)
    records = []
    for changes in ticks:
        before = forget(state) if forget else state
        try:
            state, record = step(
                before, changes, checked.rules, checked.env, mode, strict_conflicts=False
            )
        except ExternalChangeError:
            records.append("refused")
            continue
        # a conflicting tick drops its effects
        written = set() if record.conflict else {e for e, _ in produced_keys(checked, before, state, mode)}
        assert set(state.effect_ids) == written
        assert record.base is before.current and record.touched is not None
        assert state.dual.describes(state.previous, state.current)
        fresh = DualStore(state.previous, state.current)
        fresh.build(state.plan.lists)
        assert state.dual._lists == fresh._lists
        records.append(record)
    return records


def test_steps_threading_the_effect_ids_match_steps_scanning_every_entity():
    """The same ticks stepped three times, once handing each tick's effect
    ids to the next, once with them dropped and once from states built by
    hand, give identical records, each with its lineage and each state
    with its pair, and the records render by that lineage as a fresh memo
    renders them.  The
    ticks open with a relaxed-mode conflict (rule 1 switches ``l10`` on
    while rule 4 switches it off: the effects are dropped), a refused
    write to an implicit event, a remove and redeploy of ``l10`` in one
    tick while its ``switch`` is set, then random ticks."""
    checked = check_program(parse_program(RESET_PROGRAM))
    assert checked.ok
    redeploy = Deploy(parse_entity_decl("l10 : Light { room : 101 }"))
    opening = [
        [EventUpdate("m10", "detected", True), EventUpdate("thermo", "temperature", 30)],
        [EventUpdate("l11", "switch", True)],
        [EventUpdate("m10", "detected", False)],
        [EventUpdate("m10", "detected", True)],
        [Remove("l10"), redeploy, EventUpdate("thermo", "temperature", 29)],
        [EventUpdate("thermo", "temperature", 30)],
    ]
    rng = random.Random(20_114)
    for case in range(40):
        ticks = list(opening) if case == 0 else []
        for _ in range(rng.randint(1, 8)):
            changes = []
            if rng.random() < 0.6:
                detector = rng.choice(["m10", "m20"])
                changes.append(EventUpdate(detector, "detected", rng.random() < 0.5))
            if rng.random() < 0.4:
                changes.append(EventUpdate("thermo", "temperature", rng.choice([29, 30])))
            if rng.random() < 0.2:
                changes += [Remove("l10"), redeploy]
            if rng.random() < 0.1:
                changes.append(EventUpdate("l20", "switch", True))
            ticks.append(changes)
        for mode in (EDGE, LEVEL):
            threaded = _stepped_as_repl(checked, ticks, mode)
            for forget in (_forgotten, _hand_built):
                records = _stepped_as_repl(checked, ticks, mode, forget)
                assert records == threaded
                for fmt in ("jsonl", "text"):
                    serialize_tick(TickRecord(0, (), (), checked.initial_store), fmt)
                    assert_renders_as_fresh([r for r in records if r != "refused"], fmt)
            if case == 0 and mode is EDGE:
                conflict, refused, _, set_l10, redeployed, _ = threaded[: len(opening)]
                assert conflict.conflict is not None and conflict.fired == ()
                assert refused == "refused"
                assert set_l10.snapshot["l10"].events["switch"] is True
                assert redeployed.changes[:2] == (Remove("l10"), redeploy)
                assert redeployed.snapshot["l10"].events["switch"] is UNDEF


METER_PROGRAM = "interface Meter { attribute room : Integer event reading : Integer }\n" + program_source(
    RULE_1
)


@pytest.mark.parametrize("mode", [EDGE, LEVEL])
def test_step_never_lists_the_interface_no_rule_names(mode):
    """Twenty meters, which no rule names, are deployed and twenty removed
    on every tick, beside a light deployed and a detector toggled: after
    every tick, the lights' list the state carries holds the light just
    deployed, and no list it carries holds a meter's id."""
    checked = check_program(parse_program(METER_PROGRAM))
    assert checked.ok
    state = initial_state(checked.initial_store)
    meters: list[str] = []
    for tick in range(1, 12):
        fresh = [f"meter{tick}x{i}" for i in range(20)]
        changes = [Remove(name) for name in meters]
        changes += [Deploy(parse_entity_decl(f"{name} : Meter {{ room : 101 }}")) for name in fresh]
        changes.append(Deploy(parse_entity_decl(f"lx{tick} : Light {{ room : 101 }}")))
        changes.append(EventUpdate("m10", "detected", tick % 2 == 1))
        state, record = step(state, changes, checked.rules, checked.env, mode)
        meters = fresh
        lists = state.dual._lists.values()
        kept = {entity_id for buckets in lists for ids in buckets.values() for entity_id in ids}
        assert not [name for name in kept if name.startswith("meter")]
        assert f"lx{tick}" in state.dual.ids("Light")
    assert {"l": f"lx{tick}", "m": "m10"} in [fired.binding for fired in record.fired]


CHURN_PROGRAM = (
    "interface Meter { attribute room : Integer event reading : Integer }\n"
    + BUILDING_SPEC
    + "".join(f"meter{i} : Meter {{ room : {101 + 100 * (i % 2)} }}\n" for i in range(292))
    + "rules\n"
    + RULE_1
    + RULE_3
    + "(4) when event reading from m:Meter value changed "
    "trigger action switch(true) on l:Light with room = m.room end\n"
    + "end\n"
)


def _rebuilt(store):
    """``store`` as a dict made by inserting each of its keys."""
    return {entity_id: entity for entity_id, entity in store.items()}


def _churn_ticks(rng, alive, ticks):
    """Ticks that each remove five of the ``alive`` meters and lights and
    deploy five, some of them ids removed before, each as a meter or a
    light, beside motion edges and meter readings."""
    removed: list[str] = []
    for tick in range(ticks):
        gone = rng.sample(sorted(alive), 5)
        changes = [Remove(entity_id) for entity_id in gone]
        for entity_id in gone:
            del alive[entity_id]
        back = [removed.pop(rng.randrange(len(removed))) for _ in range(min(2, len(removed)))]
        for entity_id in back + [f"new{tick}x{i}" for i in range(5 - len(back))]:
            interface = rng.choice(["Meter", "Light"])
            changes.append(Deploy(parse_entity_decl(f"{entity_id} : {interface} {{ room : 101 }}")))
            alive[entity_id] = interface
        removed += gone
        changes.append(EventUpdate(rng.choice(["m10", "m20"]), "detected", rng.random() < 0.5))
        meters = sorted(entity_id for entity_id, interface in alive.items() if interface == "Meter")
        changes += [EventUpdate(meter, "reading", rng.randint(0, 3)) for meter in rng.sample(meters, 3)]
        yield changes


@pytest.mark.parametrize("mode", [EDGE, LEVEL])
def test_copies_never_write_into_their_input(mode):
    """A 300-entity store through 200 ticks of five removals and five
    deploys each, so deleted slots pile up in the stores' tables past
    resizes: each record equals that of the same tick stepped from the
    state's stores rebuilt as fresh dicts, each tick's post-external store
    is the one ``apply_external`` makes from a fresh copy, and every store
    a tick read or made reads, after the run, as it did when first seen."""
    checked = check_program(parse_program(CHURN_PROGRAM))
    assert checked.ok and len(checked.initial_store) == 300
    env, rules = checked.env, checked.rules
    rng = random.Random(20_129)
    alive = {
        entity_id: e.interface_id
        for entity_id, e in checked.initial_store.items()
        if e.interface_id in ("Meter", "Light")
    }
    state = initial_state(checked.initial_store)
    seen = {}  # id of a store -> (the store, its items when first seen)
    fired = 0
    for changes in _churn_ticks(rng, alive, 200):
        fresh = RunState(_rebuilt(state.previous), _rebuilt(state.current), state.tick, state.effect_ids)
        sigma_prime = apply_external(changes, _rebuilt(state.current), env)
        for store in (state.previous, state.current):
            seen.setdefault(id(store), (store, list(store.items())))
        state, record = step(state, changes, rules, env, mode)
        assert record == step(fresh, changes, rules, env, mode)[1]
        assert state.previous == sigma_prime
        seen.setdefault(id(state.previous), (state.previous, list(state.previous.items())))
        fired += len(record.fired)
    assert fired > 200
    for store, items in seen.values():
        assert len(store) == len(items)
        assert all(store.get(entity_id) is entity for entity_id, entity in items)


def test_edge_rules_list_no_detector_once_the_touched_ids_are_known(building):
    """Rules 1-3 in edge mode, with the detectors toggled on every tick:
    their edge pools read only the detectors that changed, so no list the
    state carries ever holds a detector's id, while the lights' lists,
    which the join reads, are kept.  From the initial state on, each state
    knows the ids its next tick touches."""
    state = initial_state(building.initial_store)
    assert state.effect_ids == ()
    detectors = {"m10", "m20"}
    for tick in range(1, 6):
        changes = [EventUpdate(m, "detected", tick % 2 == 1) for m in sorted(detectors)]
        state, _ = step(state, changes, building.rules, building.env, EDGE)
        assert state.dual.touched is not None
        lists = state.dual._lists.values()
        kept = {entity_id for buckets in lists for ids in buckets.values() for entity_id in ids}
        assert not kept & detectors
        assert {"l10", "l11", "l20"} <= kept


def test_a_list_first_read_on_a_later_tick_is_built_on_tick_1(monkeypatch, building):
    """Rules 1-3 in edge mode, with the thermometer first at 30 on tick 4:
    rule 3 first reaches ``f:Fan`` then, yet the state's pair lists the
    fans from tick 1 on, with every other list the rule block names, and
    no pair ``step`` reads builds a list after tick 1."""
    built = []  # (tick, the lists one call of the builder added)
    real = DualStore.build

    def recording(self, names):
        before = set(self._lists)
        real(self, names)
        built.append((tick, set(self._lists) - before))

    monkeypatch.setattr(DualStore, "build", recording)
    script = [
        [EventUpdate("m10", "detected", True)],
        [EventUpdate("m10", "detected", False)],
        [EventUpdate("m10", "detected", True)],
        [EventUpdate("thermo", "temperature", 30)],
        [EventUpdate("m10", "detected", False)],
    ]
    tick = 0  # initial_state's pass is made before tick 1
    state = initial_state(building.initial_store)
    fan_ticks = []
    for tick, changes in enumerate(script, start=1):
        state, record = step(state, changes, building.rules, building.env, EDGE)
        assert {("Fan", None), ("Fan", "room")} <= set(state.dual._lists)
        fan_ticks += [tick for fired in record.fired if "f" in fired.binding]
    assert fan_ticks == [4, 4]
    assert [tick for tick, added in built if added] == [1]


# the thermometer reaches 30 on tick 4, after rule 1 switched room 101's
# lights on tick 3, so rule 3 first fires then
PLAN_SCRIPT = [
    [EventUpdate("m10", "detected", True)],
    [EventUpdate("m10", "detected", False)],
    [EventUpdate("m10", "detected", True)],
    [EventUpdate("thermo", "temperature", 30)],
    [EventUpdate("m10", "detected", False)],
    [EventUpdate("m10", "detected", True)],
]


def _counting_plans(monkeypatch):
    """The ``(rules, mode)`` of each call ``step`` makes to plan a block."""
    planned = []
    real = runtime.plan_block

    def counting(rules, mode):
        planned.append((rules, mode))
        return real(rules, mode)

    monkeypatch.setattr(runtime, "plan_block", counting)
    return planned


@pytest.mark.parametrize("mode", list(TriggerMode))
def test_a_run_plans_its_rule_block_once_on_tick_1(monkeypatch, building, mode):
    planned = _counting_plans(monkeypatch)
    state = initial_state(building.initial_store)
    per_tick = []
    for changes in PLAN_SCRIPT:
        before = len(planned)
        state, _ = step(state, changes, building.rules, building.env, mode)
        per_tick.append(len(planned) - before)
    assert per_tick == [1, 0, 0, 0, 0, 0]
    assert planned == [(building.rules, mode)]
    assert state.plan.rules is building.rules and state.plan.mode is mode
    planned.clear()
    run_trace(building, PLAN_SCRIPT, mode)
    assert planned == [(building.rules, mode)]


@pytest.mark.parametrize("switch", ["rules", "mode"])
def test_a_state_stepped_with_other_rules_or_another_mode_plans_again(monkeypatch, building, switch):
    """Three ticks of rule 1 alone in edge mode, then the rest of the
    script with rules 1-3 (or rule 1 in level mode): the first tick after
    the switch plans again, and the carried state runs as a state built
    from the same stores with no plan or dual store of its own."""
    first = building.rules[:1]
    rules, mode = (building.rules, EDGE) if switch == "rules" else (first, LEVEL)
    state = initial_state(building.initial_store)
    for changes in PLAN_SCRIPT[:3]:
        state, _ = step(state, changes, first, building.env, EDGE)
    assert state.dual is not None
    fresh = RunState(state.previous, state.current, state.tick, state.effect_ids)
    planned = _counting_plans(monkeypatch)
    carried = []
    for changes in PLAN_SCRIPT[3:]:
        state, record = step(state, changes, rules, building.env, mode)
        carried.append((state, record))
    assert planned == [(rules, mode)]
    fired = []
    for changes, (state, record) in zip(PLAN_SCRIPT[3:], carried):
        fresh, fresh_record = step(fresh, changes, rules, building.env, mode)
        assert (fresh, fresh_record) == (state, record)
        fired += [f.binding for f in record.fired]
    assert fired
    if switch == "rules":
        assert any("f" in binding for binding in fired)


def test_a_state_planned_again_carries_only_the_lists_its_new_plan_names(building):
    """Rules 1-3 in edge mode for one tick, then rule 1 alone for three:
    from the switch on, the pair lists only what rule 1's plan names (not
    the fans that rule 3 read), and the records are those of a state built
    from the same stores with no plan or dual store of its own."""
    first = building.rules[:1]
    state, _ = step(initial_state(building.initial_store), PLAN_SCRIPT[0], building.rules, building.env, EDGE)
    assert ("Fan", None) in state.dual._lists
    fresh = RunState(state.previous, state.current, state.tick, state.effect_ids)
    named = set(plan_block(first, EDGE).lists)
    for changes in PLAN_SCRIPT[1:4]:
        state, record = step(state, changes, first, building.env, EDGE)
        fresh, fresh_record = step(fresh, changes, first, building.env, EDGE)
        assert set(state.dual._lists) == named
        assert (state, record) == (fresh, fresh_record)


def test_apply_internal_refuses_an_effect_on_an_id_the_store_lacks(building):
    effects = {"ghost": Entity("Light", {}, {"switch": True})}
    with pytest.raises(UnknownEntityError):
        apply_internal(building.env, effects, building.initial_store)
