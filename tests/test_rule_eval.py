"""Rule evaluation semantics: conditions, actions, instantiation, joining.

Several tests replay the worked derivation of Rule 1 (motion in room 101
switching on lights l10/l11) step by step, and the brute-force oracles here
re-enumerate bindings independently of the evaluator.
"""

from __future__ import annotations

import collections
import itertools
import random
import re
import sys

import pytest

import closure_eval
from pantagruel import (
    UNDEF,
    ConflictError,
    DualStore,
    EventUpdate,
    TriggerMode,
    check_program,
    eval_rule,
    initial_state,
    parse_program,
    step,
    store_join,
    update_member,
)
from pantagruel.ast import (
    ActionCall,
    BoolLit,
    DeclBare,
    DeclTyped,
    EventAtom,
    EventOr,
    NumLit,
    Path,
    RuleAst,
    TypeTag,
    ValueChanged,
    ValueEq,
)
from pantagruel import rule_eval, runtime
from pantagruel.domains import Entity, Interface, value_eq
from pantagruel.rule_eval import UnsupportedConstructError, eval_plan, plan_block
from pantagruel.spec_eval import eval_specification

from support import (
    BUILDING_SPEC,
    RULE_1,
    action_effects,
    eval_block,
    eval_expression,
    holds,
    plan_environment,
    program_source,
    with_event,
)

EDGE = TriggerMode.EDGE
LEVEL = TriggerMode.LEVEL


@pytest.fixture()
def motion_dual(building):
    """⟨σ1, σ2⟩: the full initial store with m10.detected false, then true."""
    sigma1 = with_event(building.initial_store, "m10", "detected", False)
    sigma2 = with_event(sigma1, "m10", "detected", True)
    return DualStore(sigma1, sigma2)


# ── Declarations (D) ─────────────────────────────────────────────


def _condition_environment(condition, current):
    """The environment the condition alone declares: the rule's body acts
    on a bare name absent from every store, which declares nothing."""
    body = ActionCall("f", NumLit(0), DeclBare("nobody"), None)
    return plan_environment(RuleAst(None, condition, body), current)


def _atom(decl):
    return EventAtom("e", decl, None, ValueChanged())


def test_typed_declaration_binds_interface_ref():
    """A typed declaration opens a variable over its interface."""
    open_vars, bound = _condition_environment(_atom(DeclTyped("m", "MotionDetector")), {})
    assert open_vars == {"m": "MotionDetector"}
    assert bound == {}


def test_bare_declaration_binds_store_entity(building):
    """A bare name that is a current entity binds itself."""
    env = _condition_environment(_atom(DeclBare("thermo")), building.initial_store)
    assert env == ({}, {"thermo": "thermo"})


def test_bare_declaration_absent_leaves_env_unchanged():
    """A bare name absent from the store stays unbound, after a bound one."""
    condition = EventOr(_atom(DeclBare("x")), _atom(DeclBare("ghost")))
    env = _condition_environment(condition, {"x": Entity("I", {}, {})})
    assert env == ({}, {"x": "x"})


# ── Expressions (X) ──────────────────────────────────────────────


def test_expression_literals():
    assert eval_expression(NumLit(42), {}, {}) == 42


def test_expression_path_instance_reads_attribute(motion_dual):
    binding = {"m": "m10"}
    assert eval_expression(Path("m", "room"), motion_dual.current, binding) == 101


def test_expression_path_prefers_event_key(motion_dual):
    binding = {"m": "m10"}
    assert eval_expression(Path("m", "detected"), motion_dual.current, binding) is True


def test_expression_path_interface_ref_is_undef(motion_dual):
    """A variable the binding lacks, still open or never declared, reads
    UNDEF."""
    binding = {"l": "l10"}  # m not instantiated
    assert eval_expression(Path("m", "room"), motion_dual.current, binding) is UNDEF
    assert eval_expression(Path("nope", "room"), motion_dual.current, {}) is UNDEF


# ── Filters (F) ──────────────────────────────────────────────────


def test_filter_room_match(building, motion_dual):
    call = building.rules[0].body  # switch(true) on l:Light with room = m.room
    args = (building.env, motion_dual.current)
    hit = action_effects(call, *args, {"m": "m10", "l": "l10"}, {})
    miss = action_effects(call, *args, {"m": "m10", "l": "l20"}, {})
    assert hit == {"l10": Entity("Light", {}, {"switch": True})}
    assert miss == {}


def test_omitted_filter_constantly_true():
    store = {"y": Entity("I", {}, {"e": True})}
    interfaces = {"I": Interface({}, {}, {"f": TypeTag.BOOL})}
    atom = EventAtom("e", DeclBare("x"), None, ValueEq(BoolLit(True)))
    call = ActionCall("f", BoolLit(True), DeclBare("x"), None)
    for scope in ({"x": "y"}, {"x": "y", "z": "y"}):
        assert holds(atom, DualStore({}, store), scope, EDGE) is True
        assert action_effects(call, interfaces, store, scope, {}) == {
            "y": Entity("I", {}, {"f": True})
        }


# ── Boolean tests (B) ────────────────────────────────────────────


def _dual(prev_value, curr_value):
    prev = {"x": Entity("I", {}, {"e": prev_value})}
    curr = {"x": Entity("I", {}, {"e": curr_value})}
    return DualStore(prev, curr)


def _test_holds(test, dual, mode, scope=None):
    """``test`` on event ``e`` of entity ``x``, through a one-atom condition."""
    atom = EventAtom("e", DeclBare("x"), None, test)
    return holds(atom, dual, {"x": "x", **(scope or {})}, mode)


def test_value_eq_fires_on_false_to_true_edge():
    test = ValueEq(BoolLit(True))
    dual = _dual(False, True)
    assert _test_holds(test, dual, EDGE) is True


def test_value_eq_edge_quiet_while_held():
    test = ValueEq(BoolLit(True))
    dual = _dual(True, True)
    assert _test_holds(test, dual, EDGE) is False


def test_value_eq_30_edge_vs_level():
    # held at 30 on both sides: edge reads no transition, level reads truth now
    test = ValueEq(NumLit(30))
    dual = _dual(30, 30)
    assert _test_holds(test, dual, EDGE) is False
    assert _test_holds(test, dual, LEVEL) is True


def test_value_changed_undef_to_undef_is_quiet():
    dual = _dual(UNDEF, UNDEF)
    assert _test_holds(ValueChanged(), dual, EDGE) is False


def test_value_changed_fires_on_first_definition():
    dual = _dual(UNDEF, True)
    assert _test_holds(ValueChanged(), dual, EDGE) is True
    assert _test_holds(ValueChanged(), dual, LEVEL) is True


def test_value_eq_path_reads_each_store():
    # compare an event against an attribute that itself changes between stores
    prev = {"x": Entity("I", {"a": 5}, {"e": 5})}
    curr = {"x": Entity("I", {"a": 6}, {"e": 5})}
    test = ValueEq(Path("v", "a"))
    binding = {"v": "x"}
    # at t-1: e(5) == a(5); at t: e(5) != a(6) → no edge into equality
    assert _test_holds(test, DualStore(prev, curr), EDGE, binding) is False
    assert _test_holds(test, DualStore(curr, prev), EDGE, binding) is True


# ── Conditions (W) ───────────────────────────────────────────────


def test_rule1_condition_environment_and_predicate(building, motion_dual):
    rule1 = building.rules[0]
    rho_e = _condition_environment(rule1.condition, motion_dual.current)
    assert rho_e == ({"m": "MotionDetector"}, {})
    for scope, expected in (
        ({"m": "m10"}, True),
        ({"m": "m20"}, False),
        ({"l": "l10"}, False),  # m uninstantiated
        ({}, False),
    ):
        assert holds(rule1.condition, motion_dual, scope, EDGE) is expected


def test_atom_over_absent_bare_name_is_constantly_false(building, motion_dual):
    atom = EventAtom("temperature", DeclBare("ghost"), None, ValueChanged())
    assert _condition_environment(atom, motion_dual.current) == ({}, {})
    for env in ({}, {"thermo": "thermo"}):
        assert holds(atom, motion_dual, env, EDGE) is False


def test_or_threads_environment_and_disjoins_predicates(motion_dual):
    src = program_source(
        "when event detected from m:MotionDetector value = true "
        "or event temperature from t:TemperatureSensor value changed "
        "trigger action switch(true) on l:Light end\n"
    )
    rule = check_program(parse_program(src)).rules[0]
    open_vars, _ = _condition_environment(rule.condition, motion_dual.current)
    assert set(open_vars) == {"m", "t"}  # both sides' variables are visible
    env = {"m": "m10", "t": "thermo"}
    assert holds(rule.condition, motion_dual, env, EDGE) is True  # left disjunct
    env = {"m": "m20", "t": "thermo"}
    assert holds(rule.condition, motion_dual, env, EDGE) is False  # neither side


def test_or_truth_table_against_enumeration():
    """orρ over every combination of two atoms' outcomes, checked by brute
    force over all four prev/curr value pairs for two independent events."""
    for e1_prev, e1_curr, e2_prev, e2_curr in itertools.product([False, True], repeat=4):
        prev = {"x": Entity("I", {}, {"e1": e1_prev, "e2": e2_prev})}
        curr = {"x": Entity("I", {}, {"e1": e1_curr, "e2": e2_curr})}
        src = (
            "interface I { event e1 : Boolean event e2 : Boolean "
            "action f ( Boolean ) }\nx:I {}\n"
            "rules when event e1 from x value = true or event e2 from x value = true "
            "trigger action f(true) on x end end"
        )
        rule = check_program(parse_program(src)).rules[0]
        got = holds(rule.condition, DualStore(prev, curr), {"x": "x"}, EDGE)
        expected = (not e1_prev and e1_curr) or (not e2_prev and e2_curr)
        assert got == expected


def test_aggregate_raises_at_evaluation():
    src = BUILDING_SPEC + (
        "rules when all event detected from m:MotionDetector value = false groupby room "
        "trigger action switch(false) on l:Light end end"
    )
    rule = parse_program(src).rules[0]
    env, store, _ = eval_specification(parse_program(src).spec)
    with pytest.raises(UnsupportedConstructError):
        eval_rule(env, rule, DualStore(store, store), EDGE)


# ── Actions (C) ──────────────────────────────────────────────────


def test_rule1_action_environment_and_effect(building, motion_dual):
    rule1 = building.rules[0]
    rho_a = plan_environment(rule1, motion_dual.current)
    assert rho_a == ({"m": "MotionDetector", "l": "Light"}, {})

    def effect(scope):
        return action_effects(rule1.body, building.env, motion_dual.current, scope, {})

    # filter room = m.room decides whether the switch event is produced
    hit = effect({"m": "m10", "l": "l10"})
    assert hit == {"l10": Entity("Light", {}, {"switch": True})}
    miss = effect({"m": "m10", "l": "l20"})
    assert miss == {}
    inert = effect({"m": "m10"})  # l uninstantiated
    assert inert == {}


def _two_action_program():
    src = (
        "interface I { action a1 ( Integer ) action a2 ( Integer ) }\n"
        "x:I {}\n"
        "rules when event a1 from y:I value changed "
        "trigger action a1(1) on x, action a2(2) on x end end"
    )
    return check_program(parse_program(src))


def test_sequential_effect_threads_partial_store():
    """The second call's seed is the first call's output; compare against a
    hand-threaded evaluation of the same two updates."""
    checked = _two_action_program()
    store = checked.initial_store
    rule = checked.rules[0]
    scope = {"x": "x", "y": "x"}
    got = action_effects(rule.body, checked.env, store, scope, {})
    by_hand = {"x": Entity("I", {}, {"a1": 1})}
    by_hand = {"x": update_member(by_hand, "x", events={"a2": 2})}
    assert got == by_hand
    assert got["x"].events == {"a1": 1, "a2": 2}


def _body_effects(checked):
    """The first rule's body effects under the binding the rule declares,
    uninstantiated: only calls on bare entity names act."""
    rule = checked.rules[0]
    _, bound = plan_environment(rule, checked.initial_store)
    return action_effects(rule.body, checked.env, checked.initial_store, bound, {})


def test_par_and_seq_agree_for_idempotent_and_disjoint_calls():
    src_tpl = (
        "interface I { action a ( Integer ) }\n"
        "x:I {}\ny:I {}\n"
        "rules when event a from z:I value changed trigger BODY end end"
    )
    for body in (
        "action a(1) on x || action a(1) on x",
        "action a(1) on x, action a(1) on x",
    ):
        checked = check_program(parse_program(src_tpl.replace("BODY", body)))
        assert _body_effects(checked) == {"x": Entity("I", {}, {"a": 1})}
    par = check_program(parse_program(src_tpl.replace("BODY", "action a(1) on x || action a(2) on y")))
    seq = check_program(parse_program(src_tpl.replace("BODY", "action a(1) on x, action a(2) on y")))
    for checked in (par, seq):
        assert _body_effects(checked) == {
            "x": Entity("I", {}, {"a": 1}),
            "y": Entity("I", {}, {"a": 2}),
        }


def test_parallel_conflicting_calls_raise():
    src = (
        "interface I { action a ( Integer ) }\nx:I {}\n"
        "rules when event a from z:I value changed "
        "trigger action a(1) on x || action a(2) on x end end"
    )
    checked = check_program(parse_program(src))
    with pytest.raises(ConflictError):
        _body_effects(checked)


# ── Whole rules (R) and blocks (K) ───────────────────────────────


def test_rule1_produces_fig_effect_store(building, motion_dual):
    effects, fired = eval_rule(building.env, building.rules[0], motion_dual, EDGE)
    assert effects == {
        "l10": Entity("Light", {}, {"switch": True}),
        "l11": Entity("Light", {}, {"switch": True}),
    }
    assert [f.binding for f in fired] == [
        {"l": "l10", "m": "m10"},
        {"l": "l11", "m": "m10"},
    ]
    assert fired[0].label == 1


def test_zero_match_interface_gives_empty_product():
    src = (
        "interface I { event e : Boolean action f ( Boolean ) }\n"
        "interface J { action g ( Boolean ) }\n"
        "x:I {}\n"
        "rules when event e from v:I value changed trigger action g(true) on w:J end end"
    )
    checked = check_program(parse_program(src))
    dual = DualStore(checked.initial_store, checked.initial_store)
    effects, fired = eval_rule(checked.env, checked.rules[0], dual, EDGE)
    assert (effects, fired) == ({}, [])


def test_rule1_matches_brute_force_binding_oracle(building, motion_dual):
    """Independent oracle: enumerate all m×l bindings explicitly, evaluate
    the condition and filter by hand, and merge the updates by hand."""
    store = motion_dual.current
    motions = sorted(e for e, ent in store.items() if ent.interface_id == "MotionDetector")
    lights = sorted(e for e, ent in store.items() if ent.interface_id == "Light")
    expected_events: dict[str, dict] = {}
    expected_bindings = []
    for m, l in itertools.product(motions, lights):
        detected_prev = motion_dual.previous[m].events["detected"]
        detected_curr = store[m].events["detected"]
        held = (not value_eq(detected_prev, True)) and value_eq(detected_curr, True)
        same_room = value_eq(store[l].attributes["room"], store[m].attributes["room"])
        if held and same_room:
            expected_events.setdefault(l, {})["switch"] = True
            expected_bindings.append({"l": l, "m": m})
    effects, fired = eval_rule(building.env, building.rules[0], motion_dual, EDGE)
    assert {e: ent.events for e, ent in effects.items()} == expected_events
    assert [f.binding for f in fired] == expected_bindings


def test_rule_block_joins_and_reports(building, motion_dual):
    effects, fired = eval_block(building.env, building.rules, motion_dual, EDGE)
    assert sorted(effects) == ["l10", "l11"]
    assert {f.label for f in fired} == {1}


def test_empty_rule_list():
    assert eval_block({}, [], DualStore({}, {}), EDGE) == ({}, [])


def test_conflicting_rules_raise_with_entity_and_key(motion_dual, building):
    src = program_source(
        "when event detected from m:MotionDetector value = true "
        "trigger action switch(true) on l:Light end\n",
        "when event detected from m:MotionDetector value = true "
        "trigger action switch(false) on l:Light end\n",
    )
    checked = check_program(parse_program(src))
    with pytest.raises(ConflictError) as exc:
        eval_block(checked.env, checked.rules, motion_dual, EDGE)
    assert exc.value.entity_id == "l10"
    assert exc.value.key == "switch"


def _fired_block(body, **sensors):
    """A block of one rule that fires once per sensor ``s`` of ``sensors``
    (id → ``(v, w)`` attributes) and runs ``body``, with its dual store:
    every sensor's ``e`` goes from UNDEF to true."""
    src = (
        "interface S { attribute v : Integer attribute w : Integer event e : Boolean }\n"
        "interface L { action a ( Integer ) action b ( Integer ) }\n"
        + "".join(f"{sid}:S {{ v : {v}, w : {w} }}\n" for sid, (v, w) in sensors.items())
        + "y:L {}\nx:L {}\n"
        + f"rules when event e from s:S value = true trigger {body} end end\n"
    )
    checked = check_program(parse_program(src))
    assert checked.ok, checked.diagnostics
    current = checked.initial_store
    for sid in sensors:
        current = with_event(current, sid, "e", True)
    return checked, DualStore(checked.initial_store, current)


def test_a_seq_call_overwriting_its_binding_is_no_clash():
    """``,`` threads one binding's writes: the second call overwrites the
    first's key, so the binding fires once and writes the last value."""
    checked, dual = _fired_block("action a(1) on x, action a(2) on x", s1=(0, 0))
    for mode in TriggerMode:
        effects, fired = eval_block(checked.env, checked.rules, dual, mode)
        assert effects == {"x": Entity("L", {}, {"a": 2})}
        assert [(f.label, f.binding) for f in fired] == [(1, {"x": "x", "s": "s1"})]


def test_a_clash_between_bindings_reports_the_least_entity_and_key():
    """The second binding writes other values than the first to both
    actions of both entities, in the order against the report's (``y``
    before ``x``, ``b`` before ``a``): the least ``(entity, key)`` is
    reported, with the earlier binding's value on the left."""
    body = "action b(s.v) on y, action a(s.v) on y, action b(s.v) on x, action a(s.v) on x"
    checked, dual = _fired_block(body, s1=(1, 0), s2=(2, 0))
    for mode in TriggerMode:
        with pytest.raises(ConflictError) as exc:
            eval_block(checked.env, checked.rules, dual, mode)
        assert (exc.value.entity_id, exc.value.key, exc.value.left, exc.value.right) == ("x", "a", 1, 2)
        assert str(exc.value) == _strictly(closure_eval.eval_rule, checked, dual, mode)


def test_a_par_clash_inside_a_binding_comes_before_one_between_bindings():
    """``s1`` and ``s2`` write different values to ``x.a``, a clash the
    fold meets first; ``s3``'s two ``||`` operands clash on ``x.a`` while
    it is built, and that clash is the one raised, with the later
    operand's value on the left."""
    checked, dual = _fired_block(
        "action a(s.v) on x || action a(s.w) on x", s1=(1, 1), s2=(2, 2), s3=(3, 4)
    )
    for mode in TriggerMode:
        with pytest.raises(ConflictError) as exc:
            eval_block(checked.env, checked.rules, dual, mode)
        assert (exc.value.entity_id, exc.value.key, exc.value.left, exc.value.right) == ("x", "a", 4, 3)
        assert str(exc.value) == _strictly(closure_eval.eval_rule, checked, dual, mode)


def test_a_par_of_three_joins_its_operands_first_to_last():
    """The second and the third operand of a ``||`` each clash with the
    first on ``x.a``; operands are joined first to last, so the second's
    clash is raised, with its value on the left, as the closure oracle
    raises it."""
    checked, dual = _fired_block(
        "action a(s.w) on x || action a(s.v) on x || action a(3) on x", s1=(2, 1)
    )
    for mode in TriggerMode:
        with pytest.raises(ConflictError) as exc:
            eval_block(checked.env, checked.rules, dual, mode)
        assert (exc.value.entity_id, exc.value.key, exc.value.left, exc.value.right) == ("x", "a", 2, 1)
        assert str(exc.value) == _strictly(closure_eval.eval_rule, checked, dual, mode)


def test_unlabeled_rules_numbered_by_position(motion_dual):
    src = program_source(
        "when event detected from m:MotionDetector value = true "
        "trigger action switch(true) on l:Light with room = m.room end\n"
    ).replace("(1) ", "")
    checked = check_program(parse_program(src))
    _, fired = eval_block(checked.env, checked.rules, motion_dual, EDGE)
    assert {f.label for f in fired} == {1}


def test_eval_rule_default_label_is_the_written_one(motion_dual):
    labelled = program_source(RULE_1.replace("(1)", "(0)"))
    unlabelled = program_source(RULE_1.replace("(1) ", ""))
    for src, expected in ((labelled, 0), (unlabelled, 1)):
        checked = check_program(parse_program(src))
        _, alone = eval_rule(checked.env, checked.rules[0], motion_dual, EDGE)
        _, in_block = eval_block(checked.env, checked.rules, motion_dual, EDGE)
        assert alone and {f.label for f in alone} == {expected}
        assert alone == in_block


def test_rule_evaluation_is_pure(building, motion_dual):
    once = eval_rule(building.env, building.rules[0], motion_dual, EDGE)
    twice = eval_rule(building.env, building.rules[0], motion_dual, EDGE)
    assert once == twice
    assert motion_dual.previous["m10"].events["detected"] is False  # untouched


def test_rule_order_permutation_invariance_small():
    rng = random.Random(3)
    src = program_source(
        "when event detected from m:MotionDetector value = true "
        "trigger action switch(true) on l:Light with room = m.room end\n",
        "when event temperature from thermo value changed "
        "trigger action setSpeed(5) on f:Fan end\n",
    )
    checked = check_program(parse_program(src))
    sigma1 = checked.initial_store
    sigma2 = with_event(
        with_event(sigma1, "m10", "detected", True), "thermo", "temperature", 21
    )
    dual = DualStore(sigma1, sigma2)
    rules = list(enumerate(checked.rules, start=1))
    baseline = None
    for _ in range(10):
        rng.shuffle(rules)
        effects = {}
        fired = []
        for label, rule in rules:
            partial, f = eval_rule(checked.env, rule, dual, EDGE, label=label)
            effects = store_join(effects, partial)
            fired.extend(f)
        key = sorted((f.label, tuple(sorted(f.binding.items()))) for f in fired)
        if baseline is None:
            baseline = (effects, key)
        assert (effects, key) == baseline


def _rooms_program(rooms, rule):
    """``rooms`` rooms, each with one detector ``m<r>`` and two lights
    ``la<r>``/``lb<r>``, and the one rule given."""
    lines = [
        "interface MotionDetector { attribute room : Integer event detected : Boolean }",
        "interface Light { attribute room : Integer action switch ( Boolean ) }",
    ]
    for room in range(rooms):
        lines.append(f"m{room}:MotionDetector {{ room : {room} }}")
        lines.append(f"la{room}:Light {{ room : {room} }}")
        lines.append(f"lb{room}:Light {{ room : {room} }}")
    checked = check_program(parse_program("\n".join(lines) + "\nrules\n" + rule + "end\n"))
    assert checked.ok
    return checked


def _traced(action):
    """``action()``, and how often each line of generated code ran in it,
    by ``(code, line number)``: a trace of the functions compiled from a
    rule plan's source, and of nothing else."""
    runs = collections.Counter()

    def line(frame, event, arg):
        if event == "line":
            runs[frame.f_code, frame.f_lineno] += 1
        return line

    def call(frame, event, arg):
        return line if frame.f_code.co_filename == "<generated>" else None

    kept = sys.gettrace()
    sys.settrace(call)
    try:
        result = action()
    finally:
        sys.settrace(kept)
    return result, runs


def _line_runs(runs, plans):
    """How often each line of the plans' sources ran, by its text."""
    counts = collections.Counter()
    for plan in plans:
        lines = plan.source.splitlines()
        for (code, number), count in runs.items():
            if code is plan.run.__code__:
                counts[lines[number - 1].strip()] += count
    return counts


def _count_bindings(state, changes, rules, env, mode):
    """``step``, and counters of what its rules' generated code did: the
    bindings built (runs of the loop nest's innermost first line), the
    tests of conjuncts left to whole bindings (that line, where the rule
    has such conjuncts), and the runs of a rule's whole body, which
    follows them."""
    (state, record), runs = _traced(lambda: step(state, changes, rules, env, mode))
    calls = {"built": 0, "tested": 0, "acted": 0}
    for rule, plan in zip(rules, state.plan.plans):
        open_vars, _ = rule_eval._environment(rule)
        rest = rule_eval._conjuncts(rule.condition, open_vars)[2]
        lines = [line.strip() for line in plan.source.splitlines()]
        counts = _line_runs(runs, [plan])
        at = max(k for k, line in enumerate(lines) if line.startswith("for ")) + 1
        calls["built"] += counts[lines[at]]
        calls["tested"] += counts[lines[at]] if rest else 0
        calls["acted"] += counts[lines[at + 1]] if rest else counts[lines[at]]
    return record, calls


def test_rule_one_tests_one_binding_per_light_not_the_cross_product():
    """A generated building of 200 rooms, each with one detector and two
    lights, and one tick with exactly one ``detected`` edge.  The
    condition reads ``m`` alone and the body's filter joins ``l`` to
    ``m`` by room, so rule 1 builds and acts on the two bindings of
    ``m7``'s lights, not on rooms × lights (80 000), and tests no
    condition on a whole binding."""
    rooms = 200
    checked = _rooms_program(rooms, RULE_1)
    record, calls = _count_bindings(
        initial_state(checked.initial_store),
        [EventUpdate("m7", "detected", True)],
        checked.rules,
        checked.env,
        EDGE,
    )
    assert calls == {"built": 2, "tested": 0, "acted": 2}
    assert [f.binding for f in record.fired] == [
        {"l": "la7", "m": "m7"},
        {"l": "lb7", "m": "m7"},
    ]


def test_rule_one_in_level_mode_builds_two_bindings_per_detector():
    """Every detector reads ``true``: rule 1 holds for every detector, and
    the join still builds only each detector's two lights (400, not
    rooms × lights = 80 000), in product order."""
    rooms = 200
    checked = _rooms_program(rooms, RULE_1)
    record, calls = _count_bindings(
        initial_state(checked.initial_store),
        [EventUpdate(f"m{room}", "detected", True) for room in range(rooms)],
        checked.rules,
        checked.env,
        LEVEL,
    )
    assert calls == {"built": 2 * rooms, "tested": 0, "acted": 2 * rooms}
    lights = sorted(f"l{side}{room}" for side in "ab" for room in range(rooms))
    assert [f.binding for f in record.fired] == [
        {"l": light, "m": f"m{light[2:]}"} for light in lights
    ]


class _Watched(dict):
    """A member map that records each key the generated code asks of it,
    by ``get``, ``in`` or ``[]``, as ``(entity, key, how, line)``, with
    the number of the generated line that asked."""

    def __init__(self, entity_id, members, asked):
        super().__init__(members)
        self.entity_id, self.asked = entity_id, asked

    def _ask(self, key, how):
        frame = sys._getframe(2)
        if frame.f_code.co_filename == "<generated>":
            self.asked.append((self.entity_id, key, how, frame.f_lineno))

    def get(self, key, default=None):
        self._ask(key, "get")
        return super().get(key, default)

    def __contains__(self, key):
        self._ask(key, "in")
        return super().__contains__(key)

    def __getitem__(self, key):
        self._ask(key, "[]")
        return super().__getitem__(key)


def _watched(store, asked, kinds=("attributes", "events")):
    """``store`` with the member maps of ``kinds`` of every entity
    watched (:class:`_Watched`), each ask recorded in ``asked``."""
    return {
        entity_id: Entity(
            entity.interface_id,
            *(
                _Watched(entity_id, getattr(entity, kind), asked) if kind in kinds else getattr(entity, kind)
                for kind in ("attributes", "events")
            ),
        )
        for entity_id, entity in store.items()
    }


def test_rule_one_reads_the_room_of_only_the_lights_it_switches():
    """On 2 500 rooms, rule 1 finds a detector's lights in the room index
    that ``step`` carries, rather than reading ``room`` on all 5 000
    lights.  Each light it finds has the detector's room, so the call's
    filter, the equality the join enforced, is not tested again: the
    rule's generated code reads ``room`` on no light at all, though each
    light's attributes are watched for every tick (effects write only
    events, so an entity keeps its attribute map)."""
    rooms = 2_500
    checked = _rooms_program(rooms, RULE_1)
    asked = []
    state = initial_state(_watched(checked.initial_store, asked, ("attributes",)))
    ticks = [["m7"], ["m9", "m1200"], [], ["m7"], ["m2499", "m0"]]
    on: set[str] = set()
    for turned_on in ticks:
        changes = [EventUpdate(m, "detected", True) for m in turned_on]
        changes += [EventUpdate(m, "detected", False) for m in sorted(on - set(turned_on))]
        on = set(turned_on)
        state, record = step(state, changes, checked.rules, checked.env, EDGE)
        lights = sorted(f"l{side}{m[1:]}" for m in turned_on for side in "ab")
        assert sorted(f.binding["l"] for f in record.fired) == lights
        reads = [entity_id for entity_id, key, *_ in asked if key == "room" and entity_id.startswith("l")]
        assert reads == []
    assert all(type(entity.attributes) is _Watched for entity in state.current.values())


JOIN_SPEC = """\
interface MotionDetector { attribute room : Integer event detected : Boolean action ack ( Boolean ) }
interface Light { attribute room : Integer action switch ( Boolean ) }
interface Fan { attribute room : Integer action setSpeed ( Integer ) }
m1:MotionDetector { room : 1 }
m2:MotionDetector { room : 2 }
l1:Light { room : 1 }
l2:Light { room : 2 }
f1:Fan { room : 1 }
f2:Fan { room : 2 }
"""


def _join_rule(rule):
    checked = check_program(parse_program(JOIN_SPEC + "rules\n" + rule + "\nend\n"))
    assert checked.ok
    return checked


def _both_evaluators(checked, dual, mode=EDGE):
    """The rule's result from ``eval_rule`` and from the closure oracle,
    which tests the full product."""
    rule = checked.rules[0]
    got = eval_rule(checked.env, rule, dual, mode)
    assert got == closure_eval.eval_rule(checked.env, rule, dual, mode)
    return got


def test_event_named_like_the_joined_member_gives_the_product_firings():
    """Rule 1 of level-dense reads ``l.room`` as an attribute in one call
    and as a path in the other.  A light that carries an event ``room``
    (an unchecked store) makes the two reads differ, so the body's join
    must fall back to the product: ``(l1, m2)`` fires through the second
    call alone."""
    checked = _join_rule(
        "when event detected from m:MotionDetector value = true "
        "trigger action switch(true) on l:Light with room = m.room "
        "|| action ack(true) on m with room = l.room end"
    )
    previous = checked.initial_store
    current = {**previous, "l1": Entity("Light", {"room": 1}, {"room": 2, "switch": UNDEF})}
    for entity_id in ("m1", "m2"):
        current = with_event(current, entity_id, "detected", True)
    for mode in TriggerMode:
        _, fired = _both_evaluators(checked, DualStore(previous, current), mode)
        assert [f.binding for f in fired] == [
            {"l": "l1", "m": "m1"},
            {"l": "l1", "m": "m2"},
            {"l": "l2", "m": "m2"},
        ]


def test_event_named_like_the_joined_member_outside_the_pool_keeps_the_join(monkeypatch):
    """Only the entities of a side's pool are bound to it, so an event
    ``room`` on a detector that fails ``value = true`` cannot make the two
    reads of ``m.room`` differ: the body's join stays a hash lookup, whose
    buckets the rule's generated code fetches once, and gives the
    product's firings."""
    checked = _join_rule(
        "when event detected from m:MotionDetector value = true "
        "trigger action switch(true) on l:Light with room = m.room "
        "|| action ack(true) on m with room = l.room end"
    )
    previous = checked.initial_store
    current = with_event(previous, "m1", "detected", True)
    m2 = Entity("MotionDetector", {"room": 2}, {"detected": False, "room": 1, "ack": UNDEF})
    current = {**current, "m2": m2}
    fetches = []
    real_keyed = DualStore.keyed

    def counting_keyed(self, interface, attribute):
        fetches.append((interface, attribute))
        return real_keyed(self, interface, attribute)

    monkeypatch.setattr(DualStore, "keyed", counting_keyed)
    for mode in TriggerMode:
        plan = plan_block(checked.rules, mode)
        fetches.clear()
        dual = DualStore(previous, current)
        effects, fired = eval_plan(checked.env, plan, dual)
        got = rule_eval._store_of(effects, dual.current), fired
        assert got == closure_eval.eval_rule(checked.env, checked.rules[0], dual, mode)
        assert [f.binding for f in fired] == [{"l": "l1", "m": "m1"}]
        assert len(fetches) == 1


def _strictly(evaluate, checked, dual, mode):
    """The rule's result, or the conflict it raises, as strict conflicts
    report it."""
    try:
        return evaluate(checked.env, checked.rules[0], dual, mode)
    except ConflictError as exc:
        return str(exc)


def test_a_refused_join_still_tests_every_call_filter():
    """``l.room`` and ``m.room`` are each read as an attribute by one call
    and as a path by the other.  With ``room`` an event of ``l1`` (an
    unchecked store) the two reads of ``l1.room`` differ, so the join is
    refused and each call of the product's four bindings tests its filter:
    without them, ``(l1, m2)`` would switch ``l1`` off while ``(l1, m1)``
    switches it on, a conflict.  With no such event the join is taken,
    and no call filter is tested.  Each filter compares its target's
    ``room`` with the path ``m.room`` or ``l.room``, every room is
    defined, and a path asks once whether its entity's events hold
    ``room``, so the asks of that made below the loop nest's headers of
    the generated code count the filters tested; the join's refusal test
    asks it too, of the pools, before the nest."""
    checked = _join_rule(
        "when event detected from m:MotionDetector value changed "
        "trigger action switch(m.detected) on l:Light with room = m.room "
        "|| action ack(true) on m with room = l.room end"
    )
    previous = checked.initial_store
    joined = with_event(with_event(previous, "m1", "detected", True), "m2", "detected", False)
    refused = {**joined, "l1": Entity("Light", {"room": 1}, {"room": 2, "switch": UNDEF})}
    asked = []
    for current, filters, bindings in (
        (refused, 8, [{"l": "l1", "m": "m1"}, {"l": "l1", "m": "m2"}, {"l": "l2", "m": "m2"}]),
        (joined, 0, [{"l": "l1", "m": "m1"}, {"l": "l2", "m": "m2"}]),
    ):
        current = _watched(current, asked, ("events",))
        for mode in TriggerMode:
            lines = [line.strip() for line in plan_block(checked.rules, mode).plans[0].source.splitlines()]
            nest = max(number for number, line in enumerate(lines, start=1) if line.startswith("for "))
            dual = DualStore(previous, current)
            asked.clear()
            got = _strictly(eval_rule, checked, dual, mode)
            body_asks = [key for _, key, how, line in asked if (key, how) == ("room", "in") and line > nest]
            assert len(body_asks) == filters
            assert got == _strictly(closure_eval.eval_rule, checked, dual, mode)
            effects, fired = got
            assert [f.binding for f in fired] == bindings
            assert effects["l1"].events == {"switch": True}


CROSS_JOIN_PROGRAM = """\
interface A { attribute room : Integer event live : Boolean action go ( Boolean ) }
interface B { attribute zone : Integer event live : Boolean action go ( Boolean ) }
a1:A { room : 1 }
a2:A { room : 2 }
a3:A { room : 1 }
a4:A { room : 3 }
b1:B { zone : 1 }
b2:B { zone : 2 }
b3:B { zone : 1 }
b4:B { zone : 3 }
rules
when event live from a:A value = true and event live from b:B value = true
trigger action go(true) on a with room = b.zone || action go(true) on b with zone = a.room
end
end
"""


@pytest.mark.parametrize(
    ("live", "looked_up"),
    [
        # ``b``, the later variable, has the larger pool and is looked up;
        # ``b3``, outside its pool, shares ``a1``'s key
        (("a1", "b1", "b2", "b4"), "b"),
        # ``a``, the earlier one, has the larger pool and is looked up;
        # ``a3``, outside its pool, shares ``b1``'s key
        (("a1", "a2", "a4", "b1"), "a"),
    ],
)
def test_a_join_of_two_keyed_members_keeps_each_pool_and_side(live, looked_up):
    """Both sides of the body's join are keyed, each by a member of its
    own (``a.room``, ``b.zone``), and each pool is a strict subset of its
    interface.  The side looked up follows the pool sizes; either way the
    probe reads the other side's member, keeps only the looked-up side's
    own pool, and builds exactly the product's bindings that hold."""
    checked = check_program(parse_program(CROSS_JOIN_PROGRAM))
    assert checked.ok
    previous = checked.initial_store
    current = previous
    for entity_id in live:
        current = with_event(current, entity_id, "live", True)
    pools = {var: [entity_id for entity_id in live if entity_id.startswith(var)] for var in "ab"}
    assert (len(pools["b"]) >= len(pools["a"])) == (looked_up == "b")
    for mode in TriggerMode:
        _, fired = _both_evaluators(checked, DualStore(previous, current), mode)
        assert [f.binding for f in fired] == [{"a": "a1", "b": "b1"}]


def test_parallel_calls_linking_different_pairs_fall_back_to_the_product():
    """``l`` is linked to ``m`` and ``f`` to ``m``: no one equality holds
    for every call, so every binding where either call fires is kept."""
    checked = _join_rule(
        "when event detected from m:MotionDetector value = true "
        "trigger action switch(true) on l:Light with room = m.room "
        "|| action setSpeed(1) on f:Fan with room = m.room end"
    )
    previous = checked.initial_store
    current = with_event(previous, "m1", "detected", True)
    _, fired = _both_evaluators(checked, DualStore(previous, current))
    assert [f.binding for f in fired] == [
        {"f": "f1", "l": "l1", "m": "m1"},
        {"f": "f1", "l": "l2", "m": "m1"},
        {"f": "f2", "l": "l1", "m": "m1"},
    ]


VALUE_CHANGED_RULE = """\
when event detected from m:MotionDetector value changed
trigger action switch(true) on l:Light with room = m.room
end
"""


@pytest.mark.parametrize(
    ("rule", "mode", "tested"),
    [(RULE_1, EDGE, 1), (VALUE_CHANGED_RULE, EDGE, 1), (RULE_1, LEVEL, 2500)],
    ids=["edge", "value-changed", "level"],
)
def test_pool_tests_visit_only_the_detectors_that_changed(rule, mode, tested):
    """A building of 2 500 rooms, a quiet first tick, then one tick with a
    single ``detected`` edge.  An edge atom and ``value changed`` can hold
    only on an entity that changed, so the second tick tests the one
    changed detector; in LEVEL mode ``value = true`` may hold on a detector
    left as it was, so every detector is tested.  A pool test is one run
    of the generated line that keeps an id of ``m``'s pool."""
    rooms = 2500
    checked = _rooms_program(rooms, rule)
    state, _ = step(initial_state(checked.initial_store), [], checked.rules, checked.env, mode)
    (state, record), runs = _traced(
        lambda: step(state, [EventUpdate("m7", "detected", True)], checked.rules, checked.env, mode)
    )
    counts = _line_runs(runs, state.plan.plans)
    pool_tests = [line for line in counts if re.fullmatch(r"if .*: p1\.append\(v1\)", line)]
    assert len(pool_tests) == 1
    assert {"tested": counts[pool_tests[0]]} == {"tested": tested}
    assert [f.binding for f in record.fired] == [
        {"l": "la7", "m": "m7"},
        {"l": "lb7", "m": "m7"},
    ]


NAMESAKE_PROGRAM = """\
interface MotionDetector { event detected : Boolean action ack ( Boolean ) }
m:MotionDetector {}
m2:MotionDetector {}
rules
(1) when event detected from m:MotionDetector value = true trigger action ack(true) on m end
(2) when event detected from d:MotionDetector value = true trigger action ack(true) on d end
end
"""


@pytest.mark.parametrize("moved", ["m", "m2"])
def test_a_rule_variable_named_like_an_entity_ranges_like_its_renamed_twin(moved):
    """Rules 1 and 2 differ only in their variable's name, and rule 1's is
    also an entity's.  The checker reads the bare ``m`` of rule 1's body
    as the variable, so the evaluator must too: both rules fire for the
    detector that moved, whichever it is."""
    checked = check_program(parse_program(NAMESAKE_PROGRAM))
    assert checked.ok
    _, record = step(
        initial_state(checked.initial_store),
        [EventUpdate(moved, "detected", True)],
        checked.rules,
        checked.env,
        EDGE,
    )
    assert [(f.label, f.binding) for f in record.fired] == [(1, {"m": moved}), (2, {"d": moved})]


BARE_FIRST_NAMESAKE_PROGRAM = """\
interface MotionDetector { event detected : Boolean action ack ( Boolean ) }
m:MotionDetector {}
m2:MotionDetector {}
rules
when event detected from m value = true trigger action ack(true) on m:MotionDetector end
end
"""


@pytest.mark.parametrize("mode", [EDGE, LEVEL], ids=["edge", "level"])
def test_a_typed_declaration_after_a_bare_namesake_opens_the_variable(mode):
    """The other declaration order: the condition's bare ``m`` names an
    entity, and the body then declares ``m`` a variable.  The later typed
    declaration opens it, so the rule fires for the detector that moved,
    ``m2``, not for the entity ``m``, as the closure oracle does too."""
    checked = check_program(parse_program(BARE_FIRST_NAMESAKE_PROGRAM))
    assert checked.ok
    state = initial_state(checked.initial_store)
    _, record = step(
        state, [EventUpdate("m2", "detected", True)], checked.rules, checked.env, mode
    )
    assert [(f.label, f.binding) for f in record.fired] == [(1, {"m": "m2"})]
    rule = checked.rules[0]
    dual = DualStore(state.current, with_event(state.current, "m2", "detected", True))
    got = eval_rule(checked.env, rule, dual, mode)
    assert got == closure_eval.eval_rule(checked.env, rule, dual, mode)
    assert [f.binding for f in got[1]] == [{"m": "m2"}]


class _CountingStore(dict):
    """A store that counts the passes over its items."""

    passes = 0

    def items(self):
        self.passes += 1
        return super().items()


def _counted(made, piece):
    """``piece``, with each store it returns wrapped to count its passes
    and appended to ``made``."""

    def counting(*args):
        made.append(_CountingStore(piece(*args)))
        return made[-1]

    return counting


@pytest.mark.parametrize("evaluate", ["two-rules-alone", "block"])
def test_a_dual_store_is_grouped_once_for_every_rule_that_reads_it(
    monkeypatch, building, motion_dual, evaluate
):
    """A bare pair's first evaluation builds every list its plan names,
    and finds the ids its ``changed`` pools read, in one pass over
    ``current``; what it holds it never lists again.  A pair ``step``
    reads passes over the store only on tick 1, and then over the tick's
    post-external store: the initial store is passed over once, for its
    set ids."""
    current = _CountingStore(motion_dual.current)
    dual = DualStore(motion_dual.previous, current)
    rules = building.rules if evaluate == "block" else building.rules[:2]
    for _ in range(2):
        if evaluate == "block":
            got = eval_block(building.env, rules, dual, EDGE)
            assert got == eval_block(building.env, rules, motion_dual, EDGE)
        else:
            for rule in rules:
                got = eval_rule(building.env, rule, dual, EDGE)
                assert got == eval_rule(building.env, rule, motion_dual, EDGE)
        assert set(dual._lists) == set(plan_block(rules, EDGE).lists)
        assert current.passes == 1
    # the lists are no part of the pair's value
    assert dual == DualStore(motion_dual.previous, motion_dual.current)
    assert repr(dual) == repr(DualStore(motion_dual.previous, dict(current)))

    made = []
    monkeypatch.setattr(runtime, "apply_external", _counted(made, runtime.apply_external))
    monkeypatch.setattr(runtime, "_layer", _counted(made, runtime._layer))
    initial = _CountingStore(building.initial_store)
    state = initial_state(initial)
    assert initial.passes == 1  # its set ids
    for tick in range(1, 7):
        changes = [EventUpdate("m10", "detected", tick % 2 == 1)]
        if tick == 4:
            changes.append(EventUpdate("thermo", "temperature", 30))
        state, _ = step(state, changes, rules, building.env, EDGE)
        assert initial.passes == 1
    assert [store.passes for store in made] == [1] + [0] * 11


def test_a_hand_built_state_lists_its_post_external_store_once(monkeypatch, building):
    """A state built by hand carries no dual store: its tick evaluates the
    rules on the pair of its previous store and the post-external one,
    which one pass over the latter lists, and never passes over
    ``state.current``; the record is that of the state ``step`` made."""
    state, _ = step(
        initial_state(building.initial_store),
        [EventUpdate("m10", "detected", True)],
        building.rules,
        building.env,
        EDGE,
    )
    current = _CountingStore(state.current)
    by_hand = runtime.RunState(state.previous, current, state.tick, state.effect_ids)
    changes = [EventUpdate("m10", "detected", False), EventUpdate("m20", "detected", True)]
    want = step(state, changes, building.rules, building.env, EDGE)
    made = []
    monkeypatch.setattr(runtime, "apply_external", _counted(made, runtime.apply_external))
    got = step(by_hand, changes, building.rules, building.env, EDGE)
    assert current.passes == 0
    assert [store.passes for store in made] == [1]
    assert got == want and got[1].fired
