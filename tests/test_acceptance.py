"""Acceptance suite: one test per criterion (A1..A7), exact tolerances.

Every randomized suite uses a fixed, recorded seed and at least 1000 cases.
Each test prints one pass line; a failure surfaces through pytest itself.

A1 note: the golden trace runs under edge mode with the temperature
reading arriving on the fan-rule tick.  A uniform level mode cannot
produce these states: a held motion signal would refire the light rule
each tick, so the switch events could never read undef afterwards.  And
were the temperature first delivered at the 29° tick, the fan rule could
never fire at all.  Level-mode semantics are covered by unit tests and by
A2's edge/level contrast below.
"""

from __future__ import annotations

import functools
import itertools
import json
import random
import time

import pytest

from pantagruel import (
    UNDEF,
    ConflictError,
    DualStore,
    EventUpdate,
    TriggerMode,
    check_program,
    eval_rule,
    format_program,
    initial_state,
    parse_program,
    run_trace,
    serialize_tick,
    step,
    store_join,
)
from pantagruel.domains import Entity, value_eq
from pantagruel.rule_eval import instantiate
from pantagruel.cli import main

from closure_eval import store_join_all
from support import (
    BUILDING_RULES_13,
    BUILDING_SPEC,
    eval_block,
    index_pools,
    plan_environment,
    produced_keys,
    program_source,
    with_event,
)
from test_parser import _random_ast

EDGE = TriggerMode.EDGE

A4_SEED_JOIN = 20_101
A4_SEED_INSTANTIATE = 20_102
A4_SEED_PERMUTATION = 20_103
A4_SEED_RESET = 20_104
A4_SEED_ROUNDTRIP = 20_105
A4_CASES = 1000

_A4_ELAPSED: dict[str, float] = {}


GOLDEN_SCRIPT = [
    [EventUpdate("m10", "detected", True)],
    [EventUpdate("thermo", "temperature", 30)],  # the fan-rule tick
    [EventUpdate("thermo", "temperature", 29)],
    [EventUpdate("thermo", "temperature", 30)],
]


def _signals(snapshot) -> dict[str, object]:
    """The signals the golden trace tracks, keyed as entity.member."""
    return {
        "m10.detected": snapshot["m10"].events["detected"],
        "l10.switch": snapshot["l10"].events["switch"],
        "l11.switch": snapshot["l11"].events["switch"],
        "l20.switch": snapshot["l20"].events["switch"],
        "fan10.setSpeed": snapshot["fan10"].events["setSpeed"],
        "fan20.setSpeed": snapshot["fan20"].events["setSpeed"],
        "thermo.temperature": snapshot["thermo"].events["temperature"],
    }


def test_a1_golden_trace_reproduction(building):
    started = time.perf_counter()
    records = run_trace(building, GOLDEN_SCRIPT, mode=EDGE)
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0, f"trace took {elapsed:.3f}s"

    base = {
        "l10.switch": UNDEF,
        "l11.switch": UNDEF,
        "l20.switch": UNDEF,
        "fan10.setSpeed": UNDEF,
        "fan20.setSpeed": UNDEF,
    }
    # s2: both lights in room 101 switched on by the motion edge
    assert _signals(records[0].snapshot) == {
        **base,
        "m10.detected": True,
        "l10.switch": True,
        "l11.switch": True,
        "thermo.temperature": UNDEF,
    }
    # s3: fan speed set, switch events reset to undef
    assert _signals(records[1].snapshot) == {
        **base,
        "m10.detected": True,
        "fan10.setSpeed": 10,
        "thermo.temperature": 30,
    }
    # s4, s5: all implicit events undef, temperature 29 then 30
    assert _signals(records[2].snapshot) == {
        **base,
        "m10.detected": True,
        "thermo.temperature": 29,
    }
    assert _signals(records[3].snapshot) == {
        **base,
        "m10.detected": True,
        "thermo.temperature": 30,
    }
    assert type(records[1].snapshot["fan10"].events["setSpeed"]) is int

    # serialized form is byte-deterministic across a rerun
    rendered = [serialize_tick(r, "jsonl") for r in records]
    again = [serialize_tick(r, "jsonl") for r in run_trace(building, GOLDEN_SCRIPT, mode=EDGE)]
    assert rendered == again
    print("A1 golden trace reproduction: PASS")


def test_a2_edge_once_only(building):
    script = GOLDEN_SCRIPT + [[], [], []]
    records = run_trace(building, script, mode=EDGE)
    assert all(r.snapshot["m10"].events["detected"] is True for r in records)
    firing_ticks = [r.tick for r in records if any(f.label == 1 for f in r.fired)]
    assert firing_ticks == [1]
    bindings = [f.binding for r in records for f in r.fired if f.label == 1]
    assert bindings == [{"l": "l10", "m": "m10"}, {"l": "l11", "m": "m10"}]
    print("A2 edge once-only: PASS")


def test_a3_rule_one_derivation_replay(building):
    sigma1 = with_event(building.initial_store, "m10", "detected", False)
    sigma2 = with_event(sigma1, "m10", "detected", True)
    dual = DualStore(sigma1, sigma2)
    rule1 = building.rules[0]

    effects, fired = eval_rule(building.env, rule1, dual, EDGE)
    assert effects == {
        "l10": Entity("Light", {}, {"switch": True}),
        "l11": Entity("Light", {}, {"switch": True}),
    }
    assert [f.binding for f in fired] == [
        {"l": "l10", "m": "m10"},
        {"l": "l11", "m": "m10"},
    ]

    # the instantiation set: {m10,m20} × {l10,l11,l20}, six environments
    open_vars, bound = plan_environment(rule1, sigma2)
    assert (open_vars, bound) == ({"m": "MotionDetector", "l": "Light"}, {})
    envs = instantiate(bound, index_pools(sigma2, open_vars))
    assert len(envs) == 6
    assert {(e["m"], e["l"]) for e in envs} == {
        (m, l) for m in ("m10", "m20") for l in ("l10", "l11", "l20")
    }
    print("A3 rule-one derivation replay: PASS")


# ── A4: randomized property suites ───────────────────────────────


def test_a4_join_laws():
    started = time.perf_counter()
    rng = random.Random(A4_SEED_JOIN)
    for _ in range(A4_CASES):
        stores = _disjoint_stores(rng, rng.randint(2, 4))
        s1, s2, s3 = stores[0], stores[1], stores[-1]
        assert store_join({}, s1) == s1 == store_join(s1, {})
        assert store_join(s1, s2) == store_join(s2, s1)
        assert store_join(store_join(s1, s2), s3) == store_join(s1, store_join(s2, s3))
        # the package's join against the oracle's own
        expected = store_join_all(stores)
        assert functools.reduce(store_join, stores, {}) == expected
        shuffled = stores[:]
        rng.shuffle(shuffled)
        assert store_join_all(shuffled) == expected
        assert functools.reduce(store_join, shuffled, {}) == expected
    _A4_ELAPSED["join"] = time.perf_counter() - started
    print(f"A4 join laws ({A4_CASES} cases, seed {A4_SEED_JOIN}): PASS")


def _disjoint_stores(rng: random.Random, k: int) -> list[dict]:
    ids = ["e0", "e1", "e2", "e3"]
    pairs = [(eid, f"k{i}") for eid in ids for i in range(4)]
    rng.shuffle(pairs)
    stores: list[dict] = [{} for _ in range(k)]
    for idx, (eid, key) in enumerate(pairs[: rng.randint(0, len(pairs))]):
        target = stores[idx % k]
        entity = target.get(eid, Entity("I", {}, {}))
        value = rng.choice([True, False, rng.randint(0, 9), UNDEF])
        target[eid] = Entity("I", {}, {**entity.events, key: value})
    return stores


def test_a4_instantiate_cardinality():
    started = time.perf_counter()
    rng = random.Random(A4_SEED_INSTANTIATE)
    ifaces = ["A", "B", "C"]
    for _ in range(A4_CASES):
        store = {f"e{i}": Entity(rng.choice(ifaces), {}, {}) for i in range(rng.randint(0, 4))}
        open_vars, bound = {}, {}
        for v in range(rng.randint(0, 3)):
            if rng.random() < 0.7:
                open_vars[f"v{v}"] = rng.choice(ifaces)
            else:
                bound[f"v{v}"] = f"e{rng.randint(0, 3)}"
        got = instantiate(bound, index_pools(store, open_vars))

        # exhaustive oracle over every total assignment of the open variables
        names = sorted(open_vars)
        expected = []
        for combo in itertools.product(sorted(store), repeat=len(names)):
            if all(store[eid].interface_id == open_vars[v] for v, eid in zip(names, combo)):
                env = dict(bound)
                env.update(zip(names, combo))
                expected.append(env)
        key = lambda env: sorted(env.items())
        assert sorted(got, key=key) == sorted(expected, key=key)
        size = 1
        for interface in open_vars.values():
            size *= sum(1 for e in store.values() if e.interface_id == interface)
        assert len(got) == size
    _A4_ELAPSED["instantiate"] = time.perf_counter() - started
    print(f"A4 instantiate cardinality ({A4_CASES} cases, seed {A4_SEED_INSTANTIATE}): PASS")


def _conflict_free_program(rng: random.Random):
    """A random program whose rules each write their own action: joins can
    never conflict, whatever fires."""
    n_rules = rng.randint(2, 4)
    actions = " ".join(f"action a{i} ( Integer )" for i in range(1, n_rules + 1))
    entities = "".join(
        f"e{i}:I {{ r : {rng.choice([0, 1])} }}\n" for i in range(rng.randint(1, 4))
    )
    rules = []
    for i in range(1, n_rules + 1):
        test = rng.choice(["value = true", "value = false", "value changed"])
        filt = " with r = x.r" if rng.random() < 0.5 else ""
        rules.append(
            f"({i}) when event s from x:I {test} "
            f"trigger action a{i}({rng.randint(0, 9)}) on y:I{filt} end\n"
        )
    src = (
        f"interface I {{ attribute r : Integer event s : Boolean {actions} }}\n"
        f"{entities}rules\n{''.join(rules)}end\n"
    )
    return check_program(parse_program(src))


def test_a4_rule_order_permutation_invariance():
    started = time.perf_counter()
    rng = random.Random(A4_SEED_PERMUTATION)
    for _ in range(A4_CASES):
        checked = _conflict_free_program(rng)
        prev = checked.initial_store
        curr = checked.initial_store
        for eid in checked.initial_store:
            if rng.random() < 0.7:
                prev = with_event(prev, eid, "s", rng.choice([True, False, UNDEF]))
            if rng.random() < 0.7:
                curr = with_event(curr, eid, "s", rng.choice([True, False, UNDEF]))
        dual = DualStore(prev, curr)
        effects, fired = eval_block(checked.env, checked.rules, dual, EDGE)
        fired_set = {(f.label, tuple(sorted(f.binding.items()))) for f in fired}
        order = list(checked.rules)
        for _ in range(3):
            rng.shuffle(order)
            p_effects, p_fired = eval_block(checked.env, tuple(order), dual, EDGE)
            assert p_effects == effects
            assert {(f.label, tuple(sorted(f.binding.items()))) for f in p_fired} == fired_set
    _A4_ELAPSED["permutation"] = time.perf_counter() - started
    print(f"A4 rule-order invariance ({A4_CASES} cases, seed {A4_SEED_PERMUTATION}): PASS")


def test_a4_implicit_reset_invariant(building):
    started = time.perf_counter()
    rng = random.Random(A4_SEED_RESET)
    for _ in range(A4_CASES):
        script = []
        for _ in range(rng.randint(1, 4)):
            changes = []
            if rng.random() < 0.7:
                changes.append(
                    EventUpdate(rng.choice(["m10", "m20"]), "detected", rng.random() < 0.5)
                )
            if rng.random() < 0.5:
                changes.append(EventUpdate("thermo", "temperature", rng.randint(29, 31)))
            script.append(changes)
        state = initial_state(building.initial_store)
        for changes in script:
            before = state
            state, record = step(state, changes, building.rules, building.env, EDGE)
            produced = produced_keys(building, before, state, EDGE)
            for entity_id, entity in record.snapshot.items():
                for key in building.env[entity.interface_id].actions:
                    assert (entity.events[key] is not UNDEF) == (
                        (entity_id, key) in produced
                    )
    _A4_ELAPSED["reset"] = time.perf_counter() - started
    print(f"A4 implicit-reset invariant ({A4_CASES} cases, seed {A4_SEED_RESET}): PASS")


def test_a4_parser_round_trip():
    started = time.perf_counter()
    rng = random.Random(A4_SEED_ROUNDTRIP)
    for _ in range(A4_CASES):
        ast = _random_ast(rng)
        assert parse_program(format_program(ast)) == ast
    _A4_ELAPSED["roundtrip"] = time.perf_counter() - started
    print(f"A4 parser round-trip ({A4_CASES} cases, seed {A4_SEED_ROUNDTRIP}): PASS")


def test_a4_total_runtime_budget(building):
    """Sums the five suites' times; a suite that has not run in this session
    (say, under ``-k``) is run here first, so the test stands alone."""
    suites = {
        "join": test_a4_join_laws,
        "instantiate": test_a4_instantiate_cardinality,
        "permutation": test_a4_rule_order_permutation_invariance,
        "reset": lambda: test_a4_implicit_reset_invariant(building),
        "roundtrip": test_a4_parser_round_trip,
    }
    for name, suite in suites.items():
        if name not in _A4_ELAPSED:
            suite()
    assert _A4_ELAPSED.keys() == suites.keys()
    total = sum(_A4_ELAPSED.values())
    assert total < 60.0, f"A4 suites took {total:.1f}s"
    print(f"A4 total runtime {total:.1f}s (< 60s): PASS")


# ── A5: dynamic deployment ───────────────────────────────────────


def test_a5_dynamic_deployment(building):
    from pantagruel import Deploy
    from pantagruel.parser import parse_entity_decl

    script = [
        [EventUpdate("m10", "detected", True)],
        [Deploy(parse_entity_decl("l30 : Light { room : 101 }"))],
        [EventUpdate("m10", "detected", False)],
        [EventUpdate("m10", "detected", True)],
    ]
    records = run_trace(building, script, mode=EDGE)
    final = records[3]
    assert final.snapshot["l10"].events["switch"] is True
    assert final.snapshot["l11"].events["switch"] is True
    assert final.snapshot["l30"].events["switch"] is True
    assert final.snapshot["l20"].events["switch"] is UNDEF

    # brute-force binding oracle over the firing tick's dual store; sensors
    # and attributes pass through the internal step, so snapshots serve as
    # the pre/post stores for the signals read here
    curr = final.snapshot
    prev_external = run_trace(building, script[:3], mode=EDGE)[2].snapshot
    motions = sorted(e for e, x in curr.items() if x.interface_id == "MotionDetector")
    lights = sorted(e for e, x in curr.items() if x.interface_id == "Light")
    expected = []
    for m, l in itertools.product(motions, lights):
        edge = not value_eq(prev_external[m].events["detected"], True) and value_eq(
            curr[m].events["detected"], True
        )
        if edge and value_eq(curr[l].attributes["room"], curr[m].attributes["room"]):
            expected.append({"l": l, "m": m})
    got = [f.binding for f in final.fired if f.label == 1]
    assert got == expected == [
        {"l": "l10", "m": "m10"},
        {"l": "l11", "m": "m10"},
        {"l": "l30", "m": "m10"},
    ]
    print("A5 dynamic deployment: PASS")


# ── A6: type-check conformance ───────────────────────────────────

ILL_TYPED_CORPUS = [
    # Tr into Nat attribute initializer
    (BUILDING_SPEC.replace("l10:Light { room : 101 }", "l10:Light { room : true }") + "rules end", "type-mismatch"),
    # Nat into Tr action argument
    (program_source("when event detected from m:MotionDetector value = true trigger action switch(7) on l:Light end\n"), "type-mismatch"),
    # unknown event name on the interface
    (program_source("when event motion from m:MotionDetector value = true trigger action switch(true) on l:Light end\n"), "unknown-event"),
    # unknown interface in an entity declaration
    (BUILDING_SPEC + "ghost:Ghost {}\nrules end", "unknown-interface"),
    # unknown interface in a rule declaration
    (program_source("when event detected from m:Ghost value = true trigger action switch(true) on l:Light end\n"), "unknown-interface"),
    # aggregate construct
    (program_source("when all event detected from m:MotionDetector value = false groupby room trigger action switch(false) on l:Light end\n"), "unsupported-construct"),
    # variable redeclared with a different interface
    (program_source("when event detected from m:MotionDetector value = true and event temperature from m:TemperatureSensor value = 30 trigger action switch(true) on l:Light end\n"), "redeclared-variable"),
    # unknown action name
    (program_source("when event detected from m:MotionDetector value = true trigger action toggle(true) on l:Light end\n"), "unknown-action"),
    # filter over an attribute the interface lacks
    (program_source("when event detected from m:MotionDetector value = true trigger action switch(true) on l:Light with floor = m.room end\n"), "unknown-attribute"),
    # value test type against the event type
    (program_source("when event temperature from thermo value = true trigger action setSpeed(10) on f:Fan end\n"), "type-mismatch"),
]


def test_a6_type_check_conformance():
    assert len(ILL_TYPED_CORPUS) == 10
    for source, expected_code in ILL_TYPED_CORPUS:
        checked = check_program(parse_program(source))
        codes = [d.code for d in checked.diagnostics]
        assert expected_code in codes, f"expected {expected_code}, got {codes}"
        assert not checked.ok
    clean = check_program(parse_program(BUILDING_RULES_13))
    assert clean.diagnostics == []
    print("A6 type-check conformance (10 ill-typed + 1 clean): PASS")


# ── A7: conflict detection ───────────────────────────────────────


def test_a7_conflict_detection(tmp_path, capsys):
    program = program_source(
        "when event detected from m:MotionDetector value = true "
        "trigger action switch(true) on l:Light end\n",
        "when event detected from m:MotionDetector value = true "
        "trigger action switch(false) on l:Light end\n",
    )
    ppath = tmp_path / "conflict.ptg"
    ppath.write_text(program)
    spath = tmp_path / "conflict.evs"
    spath.write_text("event m10.detected = true\ntick\n")

    assert main(["run", str(ppath), "--script", str(spath)]) == 3
    err = capsys.readouterr().err
    assert "l10.switch" in err and "tick 1" in err

    argv = ["run", str(ppath), "--script", str(spath), "--no-strict-conflicts", "--format", "jsonl"]
    assert main(argv) == 0
    record = json.loads(capsys.readouterr().out.splitlines()[0])
    assert record["conflict"] is not None and "l10.switch" in record["conflict"]
    assert record["fired"] == []

    # the same interference is typed at the API level
    checked = check_program(parse_program(program))
    with pytest.raises(ConflictError) as exc:
        run_trace(checked, [[EventUpdate("m10", "detected", True)]], mode=EDGE)
    assert (exc.value.entity_id, exc.value.key) == ("l10", "switch")
    print("A7 conflict detection: PASS")
