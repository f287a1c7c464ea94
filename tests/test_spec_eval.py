"""Specification evaluation, checked initializers, and static rule checks.

``tests/spec_oracle.py`` is the fold ``spec_eval.build_entity`` replaced;
on every drawn entity both must build the same entity and report the same
diagnostics, in the same order.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

import spec_oracle
from pantagruel import UNDEF, check_program, parse_program
from pantagruel.diagnostics import Severity, SourceSpan
from pantagruel.ast import BoolLit, EntityDecl, InitDecl, NumLit, TypeTag
from pantagruel.domains import Interface
from pantagruel.spec_eval import (
    build_entity,
    build_interface,
    check_rules,
    eval_specification,
)

from support import BUILDING_FULL, BUILDING_RULES_13, BUILDING_SPEC


def _codes(diagnostics, severity=None):
    return [
        d.code
        for d in diagnostics
        if severity is None or d.severity is severity
    ]


def _eval(src):
    return eval_specification(parse_program(src + "\nrules end").spec)


# ── eval_specification on the demo corpus ────────────────────────


def test_building_spec_environment_and_initial_store():
    env, store, diags = _eval(BUILDING_SPEC)
    assert diags == []
    assert sorted(env) == ["Fan", "Light", "MotionDetector", "TemperatureSensor"]
    assert sorted(store) == [
        "fan10",
        "fan20",
        "l10",
        "l11",
        "l20",
        "m10",
        "m20",
        "thermo",
    ]
    l10 = store["l10"]
    assert l10.attributes == {"room": 101}
    assert type(l10.attributes["room"]) is int
    assert l10.events == {"switch": UNDEF}
    assert store["m10"].events == {"detected": UNDEF}
    assert store["thermo"].attributes == {}
    assert store["thermo"].events == {"temperature": UNDEF}


def test_every_declared_event_and_action_starts_undef():
    env, store, _ = _eval(BUILDING_SPEC)
    for entity in store.values():
        iface = env[entity.interface_id]
        for key in list(iface.events) + list(iface.actions):
            assert entity.events[key] is UNDEF


def test_empty_spec():
    env, store, diags = _eval("")
    assert (env, store, diags) == ({}, {}, [])


def test_unknown_interface_diagnostic():
    _, store, diags = _eval("x:Ghost{}")
    assert _codes(diags) == ["unknown-interface"]
    assert store == {}


def test_duplicates_and_clash_collected_not_fail_fast():
    src = (
        "interface I { attribute a : Integer }\n"
        "interface I { attribute a : Integer }\n"
        "interface J { event e : Boolean action e ( Boolean ) }\n"
        "x:I { a : 1 }\n"
        "x:I { a : 2 }\n"
        "y:Ghost {}\n"
    )
    _, _, diags = _eval(src)
    codes = _codes(diags)
    assert "duplicate-interface" in codes
    assert "member-clash" in codes
    assert "duplicate-entity" in codes
    assert "unknown-interface" in codes


def test_duplicate_member_within_section():
    src = "interface I { event e : Boolean event e : Integer }"
    _, _, diags = _eval(src)
    assert _codes(diags) == ["duplicate-member"]


def test_uninitialized_attribute_warns_and_defaults_undef():
    _, store, diags = _eval("interface Light { attribute room : Integer }\nl10:Light {}")
    assert _codes(diags, Severity.WARNING) == ["uninitialized-attribute"]
    assert _codes(diags, Severity.ERROR) == []
    assert store["l10"].attributes == {"room": UNDEF}


def test_type_mismatch_in_init():
    _, store, diags = _eval("interface Light { attribute room : Integer }\nl10:Light { room : true }")
    assert _codes(diags, Severity.ERROR) == ["type-mismatch"]
    assert diags[0].span is not None and diags[0].span.line == 2


def test_duplicate_init_key_rejected():
    _, _, diags = _eval(
        "interface Light { attribute room : Integer }\nl10:Light { room : 1, room : 2 }"
    )
    assert "duplicate-init" in _codes(diags, Severity.ERROR)


# ── build_interface / build_entity units ─────────────────────────


def test_build_interface_light():
    ast = parse_program(BUILDING_SPEC + "\nrules end")
    light, diags = build_interface(ast.spec.interfaces[1])
    assert diags == []
    assert light.attributes == {"room": TypeTag.NAT}
    assert light.events == {}
    assert light.actions == {"switch": TypeTag.BOOL}


def test_initializers_after_a_bad_one_add_nothing():
    ast = parse_program(BUILDING_SPEC + "\nrules end")
    light, _ = build_interface(ast.spec.interfaces[1])
    bad = InitDecl("room", BoolLit(True, SourceSpan(1, 10, 4)))
    later = (
        InitDecl("room", NumLit(5, SourceSpan(1, 20, 1))),
        InitDecl("nope", NumLit(5, SourceSpan(1, 30, 1))),
    )
    entity, diags = build_entity(
        EntityDecl("l", "Light", (bad, *later), SourceSpan(1, 1, 1)), {"Light": light}
    )
    assert [(d.code, d.span) for d in diags] == [
        ("type-mismatch", SourceSpan(1, 10, 4)),
        ("uninitialized-attribute", SourceSpan(1, 1, 1)),
    ]
    assert entity.attributes == {"room": UNDEF}


# ── build_entity against the fold it replaced ────────────────────

_ATTRIBUTES = {"a": TypeTag.NAT, "b": TypeTag.BOOL, "c": TypeTag.NAT}
# 0 and 1 beside False and True: a value's type is compared as well
_literals = st.one_of(st.integers(0, 2).map(NumLit), st.booleans().map(BoolLit))


@st.composite
def _entity_cases(draw):
    names = draw(st.sets(st.sampled_from(sorted(_ATTRIBUTES))))
    iface = Interface(
        {name: _ATTRIBUTES[name] for name in sorted(names)}, {}, {"switch": TypeTag.BOOL}
    )
    drawn = draw(st.lists(st.tuples(st.sampled_from("abcz"), _literals), max_size=5))
    inits = tuple(
        # each initializer gets its own span, so a diagnostic names which
        InitDecl(attr, type(lit)(lit.value, SourceSpan(2, 10 * i + 1, 1)))
        for i, (attr, lit) in enumerate(drawn)
    )
    return iface, EntityDecl("e", "I", inits, SourceSpan(2, 1, 1))


def _typed(values):
    return [(name, type(value), value) for name, value in values.items()]


@settings(max_examples=300, deadline=None)
@given(_entity_cases())
def test_build_entity_matches_the_checked_attributes_fold(case):
    iface, decl = case
    env = {"I": iface}
    entity, diags = build_entity(decl, env)
    want_entity, want_diags = spec_oracle.build_entity(decl, env)
    assert entity.interface_id == want_entity.interface_id
    assert _typed(entity.attributes) == _typed(want_entity.attributes)
    assert _typed(entity.events) == _typed(want_entity.events)
    assert [(d.severity, d.code, d.message, d.span) for d in diags] == [
        (d.severity, d.code, d.message, d.span) for d in want_diags
    ]


# ── static rule checks ───────────────────────────────────────────


def _check(src):
    return check_program(parse_program(src))


def test_clean_program_checks_clean():
    checked = _check(BUILDING_RULES_13)
    assert checked.diagnostics == []
    assert checked.ok


def test_aggregate_is_rejected_statically():
    checked = _check(BUILDING_FULL)
    assert "unsupported-construct" in _codes(checked.diagnostics)
    assert not checked.ok


def test_unknown_event_on_interface():
    src = BUILDING_SPEC + "rules when event nope from m:MotionDetector value = true trigger action switch(true) on l:Light end end"
    assert "unknown-event" in _codes(_check(src).diagnostics)


def test_unknown_action_on_interface():
    src = BUILDING_SPEC + "rules when event detected from m:MotionDetector value = true trigger action nope(true) on l:Light end end"
    assert "unknown-action" in _codes(_check(src).diagnostics)


def test_action_argument_type_checked():
    src = BUILDING_SPEC + "rules when event detected from m:MotionDetector value = true trigger action switch(3) on l:Light end end"
    assert "type-mismatch" in _codes(_check(src).diagnostics)


def test_value_test_type_checked():
    src = BUILDING_SPEC + "rules when event detected from m:MotionDetector value = 7 trigger action switch(true) on l:Light end end"
    assert "type-mismatch" in _codes(_check(src).diagnostics)


def test_filter_attribute_must_exist():
    src = BUILDING_SPEC + "rules when event detected from m:MotionDetector value = true trigger action switch(true) on l:Light with floor = m.room end end"
    assert "unknown-attribute" in _codes(_check(src).diagnostics)


def test_path_resolution_checked():
    src = BUILDING_SPEC + "rules when event detected from m:MotionDetector value = true trigger action switch(true) on l:Light with room = m.nope end end"
    assert "unknown-member" in _codes(_check(src).diagnostics)
    src = BUILDING_SPEC + "rules when event detected from m:MotionDetector value = true trigger action switch(true) on l:Light with room = ghost.room end end"
    assert "unbound-variable" in _codes(_check(src).diagnostics)


def test_variable_redeclaration_with_other_interface_is_error():
    src = BUILDING_SPEC + (
        "rules when event detected from m:MotionDetector value = true "
        "and event temperature from m:TemperatureSensor value = 30 "
        "trigger action switch(true) on l:Light end end"
    )
    assert "redeclared-variable" in _codes(_check(src).diagnostics)


def test_same_interface_redeclaration_allowed():
    src = BUILDING_SPEC + (
        "rules when event detected from m:MotionDetector value = true "
        "and event detected from m:MotionDetector value changed "
        "trigger action switch(true) on l:Light end end"
    )
    assert "redeclared-variable" not in _codes(_check(src).diagnostics)


def test_bare_name_not_in_initial_store_warns():
    src = BUILDING_SPEC + "rules when event temperature from ghost value = 30 trigger action switch(true) on l:Light end end"
    checked = _check(src)
    assert "unknown-entity" in _codes(checked.diagnostics, Severity.WARNING)
    assert checked.ok  # a warning: the entity may be deployed later


def test_bare_name_binds_entity_interface_for_paths():
    # thermo's interface declares no attributes: a path to thermo.room fails
    src = BUILDING_SPEC + (
        "rules when event temperature from thermo value = 30 "
        "and event detected from m:MotionDetector value = true "
        "trigger action switch(true) on l:Light with room = thermo.room end end"
    )
    assert "unknown-member" in _codes(_check(src).diagnostics)


LATER_NAME_SPEC = """\
interface Motion { event level : Integer action ack ( Boolean ) }
interface Thermo { event temperature : Integer }
m1:Motion {}
m2:Motion {}
thermo:Thermo {}
"""
LATER_NAME_ATOMS = (
    "event level from m:Motion value = thermo.temperature",
    "event temperature from thermo value changed",
)


def test_a_path_may_name_a_variable_declared_by_a_later_atom():
    """The evaluator binds every declared name before evaluating any
    expression, so ``thermo.temperature`` checks whether ``thermo`` is
    declared before or after the atom reading it; both orders run the
    same trace.  A name declared nowhere is still unbound."""
    from pantagruel import EventUpdate, TriggerMode, run_trace, serialize_tick

    script = [
        [EventUpdate("m1", "level", 2), EventUpdate("m2", "level", 3)],
        [EventUpdate("thermo", "temperature", 2)],
        [EventUpdate("thermo", "temperature", 3)],
    ]
    traces = []
    for atoms in (LATER_NAME_ATOMS, LATER_NAME_ATOMS[::-1]):
        checked = _check(
            LATER_NAME_SPEC
            + f"rules when {atoms[0]} and {atoms[1]} trigger action ack(true) on m end end"
        )
        assert checked.diagnostics == []
        for mode in TriggerMode:
            records = run_trace(checked, script, mode=mode)
            traces.append([serialize_tick(record, "text") for record in records])
    assert traces[:2] == traces[2:]
    assert [[f.binding for f in r.fired] for r in run_trace(checked, script)] == [
        [],
        [{"m": "m1", "thermo": "thermo"}],
        [{"m": "m2", "thermo": "thermo"}],
    ]
    ghost = LATER_NAME_ATOMS[0].replace("thermo.", "ghost.")
    checked = _check(
        LATER_NAME_SPEC + f"rules when {ghost} and {LATER_NAME_ATOMS[1]} "
        "trigger action ack(true) on m end end"
    )
    assert _codes(checked.diagnostics) == ["unbound-variable"]


def test_env_interface_constant_after_eval(building):
    import copy

    before = copy.deepcopy(building.env)
    from pantagruel import EventUpdate, TriggerMode, run_trace

    run_trace(building, [[EventUpdate("m10", "detected", True)], []], mode=TriggerMode.EDGE)
    assert building.env == before


def test_check_rules_is_pure(building):
    again = check_rules(building.env, building.initial_store, building.rules)
    assert again == []


def test_checked_programs_never_compare_across_types(building, monkeypatch):
    """Soundness, instrumented: running a cleanly checked program never
    makes an equality compare a defined Nat with a defined Tr.  The rules'
    generated code inlines :func:`value_eq`; each equality the generator
    emits (``rule_eval._Source.equal``) is wrapped to hand both its sides
    to a watch first, so the watch sees every comparison made, and some
    are made."""
    import pantagruel.rule_eval as rule_eval
    from pantagruel import UNDEF as undef
    from pantagruel import EventUpdate, TriggerMode, run_trace

    crossings = []
    compared = []

    def watch(a, b):
        compared.append((a, b))
        if a is not undef and b is not undef and type(a) is not type(b):
            crossings.append((a, b))
        return True

    equal = rule_eval._Source.equal

    def watched(self, value, expr, store):
        return f"(watch({value}, {self.read(expr, store)}) and {equal(self, value, expr, store)})"

    monkeypatch.setattr(rule_eval._Source, "equal", watched)
    monkeypatch.setitem(rule_eval._NAMESPACE, "watch", watch)
    script = [
        [EventUpdate("m10", "detected", True)],
        [EventUpdate("thermo", "temperature", 30)],
        [EventUpdate("m10", "detected", False)],
        [],
    ]
    for mode in (TriggerMode.EDGE, TriggerMode.LEVEL):
        run_trace(building, script, mode=mode)
    assert crossings == []
    assert compared
