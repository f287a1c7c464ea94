"""Parser and formatter behavior, including round-trip properties."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pantagruel import ParseError, format_program, parse_program
from pantagruel.ast import (
    ActionCall,
    ActionPar,
    ActionSeq,
    Aggregate,
    BoolLit,
    DeclBare,
    DeclTyped,
    EntityDecl,
    EventAnd,
    EventAtom,
    EventOr,
    Filter,
    InitDecl,
    InterfaceDecl,
    MemberDecl,
    NumLit,
    Path,
    ProgramAst,
    RuleAst,
    SpecAst,
    TypeTag,
    ValueChanged,
    ValueEq,
    operands,
)
from pantagruel.parser import parse_entity_decl

from support import BUILDING_FULL, BUILDING_RUNNABLE


def test_full_corpus_shape():
    ast = parse_program(BUILDING_FULL)
    assert len(ast.spec.interfaces) == 4
    assert len(ast.spec.entities) == 8
    assert len(ast.rules) == 3
    assert [i.name for i in ast.spec.interfaces] == [
        "MotionDetector",
        "Light",
        "Fan",
        "TemperatureSensor",
    ]
    assert [r.label for r in ast.rules] == [1, 2, 3]


def test_interface_members():
    ast = parse_program(BUILDING_FULL)
    light = ast.spec.interfaces[1]
    assert light.attributes == (MemberDecl("room", TypeTag.NAT),)
    assert light.events == ()
    assert light.actions == (MemberDecl("switch", TypeTag.BOOL),)


def test_entity_decl_with_and_without_keyword():
    src = "interface Light { attribute room : Integer }\n"
    plain = parse_program(src + "l10:Light { room : 101 }\nrules end")
    keyword = parse_program(src + "entity l10:Light { room : 101 }\nrules end")
    expected = EntityDecl("l10", "Light", (InitDecl("room", NumLit(101)),))
    assert plain.spec.entities == (expected,)
    assert keyword.spec.entities == plain.spec.entities


def test_init_separator_colon_or_equals():
    src = "interface I { attribute a : Integer attribute b : Integer }\n"
    ast = parse_program(src + "x:I { a : 1, b = 2 }\nrules end")
    assert ast.spec.entities[0].inits == (
        InitDecl("a", NumLit(1)),
        InitDecl("b", NumLit(2)),
    )


def test_empty_rule_block_accepted():
    ast = parse_program("rules end")
    assert ast.spec == SpecAst((), ())
    assert ast.rules == ()


def test_empty_sections_allowed():
    ast = parse_program("interface I {}\nx:I {}\nrules end")
    assert ast.spec.interfaces[0] == InterfaceDecl("I", (), (), ())
    assert ast.spec.entities[0].inits == ()


def test_aggregate_rule_parses_into_wrapper():
    ast = parse_program(BUILDING_FULL)
    condition = ast.rules[1].condition
    assert isinstance(condition, Aggregate)
    assert condition.group_key == "room"
    assert isinstance(condition.inner, EventAtom)
    assert condition.inner.event == "detected"


def test_rule_three_structure():
    ast = parse_program(BUILDING_FULL)
    rule = ast.rules[2]
    assert isinstance(rule.condition, EventAnd)
    left, right = rule.condition.left, rule.condition.right
    assert isinstance(left, EventAtom) and left.event == "switch"
    assert left.decl == DeclTyped("l", "Light")
    assert isinstance(right, EventAtom) and right.decl == DeclBare("thermo")
    assert right.test == ValueEq(NumLit(30))
    body = rule.body
    assert isinstance(body, ActionCall)
    assert body.filter == Filter("room", Path("l", "room"))


def test_and_binds_tighter_than_or_left_associative():
    src = (
        "rules when event a from x value changed or event b from x value changed "
        "and event c from x value changed or event d from x value changed "
        "trigger action f(1) on x end end"
    )
    ast = parse_program(src)
    cond = ast.rules[0].condition
    # ((a or (b and c)) or d)
    assert isinstance(cond, EventOr)
    assert isinstance(cond.right, EventAtom) and cond.right.event == "d"
    assert isinstance(cond.left, EventOr)
    assert isinstance(cond.left.left, EventAtom) and cond.left.left.event == "a"
    assert isinstance(cond.left.right, EventAnd)


def test_comma_binds_tighter_than_parallel():
    src = (
        "rules when event a from x value changed trigger "
        "action f(1) on x, action g(2) on x || action h(3) on x end end"
    )
    ast = parse_program(src)
    body = ast.rules[0].body
    # ((f , g) || h)
    assert isinstance(body, ActionPar)
    assert isinstance(body.left, ActionSeq)
    assert isinstance(body.right, ActionCall) and body.right.action == "h"


def _chain_src(condition: str, body: str) -> str:
    return f"rules\nwhen {condition}\ntrigger {body}\nend\nend\n"


_EVENT = "event {} from x value changed"
_CALL = "action {}(1) on x"


@pytest.mark.parametrize(
    "op, node, on_condition",
    [
        ("or", EventOr, True),
        ("and", EventAnd, True),
        (",", ActionSeq, False),
        ("||", ActionPar, False),
    ],
)
def test_three_operand_chains_fold_left_with_operator_spans(op, node, on_condition):
    operand = _EVENT if on_condition else _CALL
    chain = f" {op} ".join(operand.format(name) for name in "abc")
    other = (_CALL if on_condition else _EVENT).format("z")
    src = _chain_src(chain, other) if on_condition else _chain_src(other, chain)
    rule = parse_program(src).rules[0]
    tree = rule.condition if on_condition else rule.body
    line = 2 if on_condition else 3
    start = len("when ") if on_condition else len("trigger ")
    first = start + 1 + len(operand.format("a")) + 1
    second = first + len(op) + 1 + len(operand.format("b")) + 1
    # ((a op b) op c): the root spans the second operator, its left the first
    assert isinstance(tree, node) and isinstance(tree.left, node)
    assert tree.span == (line, second, len(op))
    assert tree.left.span == (line, first, len(op))
    leaves = [tree.left.left, tree.left.right, tree.right]
    names = [leaf.event if on_condition else leaf.action for leaf in leaves]
    assert names == ["a", "b", "c"]
    assert not any(isinstance(leaf, node) for leaf in leaves)


def test_boolean_literals_in_expression_position():
    src = "rules when event a from x value = true trigger action f(false) on x end end"
    ast = parse_program(src)
    assert ast.rules[0].condition.test == ValueEq(BoolLit(True))
    assert ast.rules[0].body.arg == BoolLit(False)


def test_unlabeled_rules_allowed():
    src = "rules when event a from x value changed trigger action f(1) on x end end"
    ast = parse_program(src)
    assert ast.rules[0].label is None


def test_comments_and_whitespace():
    src = "# header\nrules  # trailing\n# a whole comment line\nend\n"
    assert parse_program(src).rules == ()


def test_errors_carry_spans():
    with pytest.raises(ParseError) as exc:
        parse_program("interface 42 {}\nrules end")
    diag = exc.value.diagnostics[0]
    assert diag.span is not None
    assert diag.span.line == 1
    assert diag.span.column == 11


def test_recovery_reports_multiple_errors():
    src = "interface A { attribute x : Wrong }\nentity b:B { x : }\nrules end"
    with pytest.raises(ParseError) as exc:
        parse_program(src)
    assert len(exc.value.diagnostics) >= 2


def test_unterminated_block():
    with pytest.raises(ParseError) as exc:
        parse_program("rules when event a from x value changed trigger action f(1) on x end")
    assert any("unterminated" in d.message for d in exc.value.diagnostics)


def test_malformed_literal():
    with pytest.raises(ParseError) as exc:
        parse_program("interface I { attribute a : Integer }\nx:I { a : 12abc }\nrules end")
    assert any("malformed numeral" in d.message for d in exc.value.diagnostics)


def test_missing_rules_block():
    with pytest.raises(ParseError):
        parse_program("interface I {}")


def test_parse_entity_decl_helper():
    decl = parse_entity_decl("l30 : Light { room : 101 }")
    assert decl == EntityDecl("l30", "Light", (InitDecl("room", NumLit(101)),))
    with pytest.raises(ParseError):
        parse_entity_decl("l30 : Light { room : 101 } trailing")


@given(st.text(max_size=200))
@settings(max_examples=300)
def test_parsing_is_total(text):
    """Any input either parses or raises ParseError; nothing else escapes."""
    try:
        parse_program(text)
    except ParseError:
        pass


# ── Round-trip: format then reparse ──────────────────────────────


def test_format_empty_program_exact():
    assert format_program(ProgramAst(SpecAst((), ()), ())) == "rules\nend\n"


def test_corpus_round_trip():
    for source in (BUILDING_FULL, BUILDING_RUNNABLE):
        ast = parse_program(source)
        assert parse_program(format_program(ast)) == ast


def _random_ast(rng: random.Random) -> ProgramAst:
    """A well-formed random program: names are unique where the language
    requires it and operator trees only take derivable (left-leaning)
    shapes."""

    def name(prefix: str, i: int) -> str:
        return f"{prefix}{i}"

    def ty() -> TypeTag:
        return rng.choice([TypeTag.NAT, TypeTag.BOOL])

    interfaces = []
    for i in range(rng.randint(1, 3)):
        labels = [name("mem", k) for k in range(6)]
        rng.shuffle(labels)
        pick = iter(labels)
        attributes = tuple(MemberDecl(next(pick), ty()) for _ in range(rng.randint(0, 2)))
        events = tuple(MemberDecl(next(pick), ty()) for _ in range(rng.randint(0, 2)))
        actions = tuple(MemberDecl(next(pick), ty()) for _ in range(rng.randint(0, 2)))
        interfaces.append(InterfaceDecl(name("I", i), attributes, events, actions))

    entities = []
    for i in range(rng.randint(0, 3)):
        iface = rng.choice(interfaces)
        inits = tuple(
            InitDecl(
                member.name,
                NumLit(rng.randint(0, 99))
                if member.type is TypeTag.NAT
                else BoolLit(rng.random() < 0.5),
            )
            for member in iface.attributes
            if rng.random() < 0.7
        )
        entities.append(EntityDecl(name("e", i), iface.name, inits))

    def expr():
        roll = rng.random()
        if roll < 0.4:
            return NumLit(rng.randint(0, 50))
        if roll < 0.6:
            return BoolLit(rng.random() < 0.5)
        return Path(name("v", rng.randint(0, 3)), name("mem", rng.randint(0, 5)))

    def decl():
        if rng.random() < 0.6:
            return DeclTyped(name("v", rng.randint(0, 3)), rng.choice(interfaces).name)
        return DeclBare(name("e", rng.randint(0, 3)))

    def filt():
        if rng.random() < 0.5:
            return None
        return Filter(name("mem", rng.randint(0, 5)), expr())

    def atom():
        test = ValueEq(expr()) if rng.random() < 0.7 else ValueChanged()
        node = EventAtom(name("mem", rng.randint(0, 5)), decl(), filt(), test)
        if rng.random() < 0.2:
            return Aggregate(node, name("mem", rng.randint(0, 5)))
        return node

    def condition():
        # left-leaning or-of-ands, the only shapes the grammar derives
        def and_chain():
            node = atom()
            for _ in range(rng.randint(0, 2)):
                node = EventAnd(node, atom())
            return node

        node = and_chain()
        for _ in range(rng.randint(0, 2)):
            node = EventOr(node, and_chain())
        return node

    def call():
        return ActionCall(name("mem", rng.randint(0, 5)), expr(), decl(), filt())

    def body():
        def seq_chain():
            node = call()
            for _ in range(rng.randint(0, 2)):
                node = ActionSeq(node, call())
            return node

        node = seq_chain()
        for _ in range(rng.randint(0, 2)):
            node = ActionPar(node, seq_chain())
        return node

    rules = tuple(
        RuleAst(i + 1 if rng.random() < 0.5 else None, condition(), body())
        for i in range(rng.randint(0, 3))
    )
    return ProgramAst(SpecAst(tuple(interfaces), tuple(entities)), rules)


def test_round_trip_generated_asts():
    rng = random.Random(0xA57)
    for _ in range(300):
        ast = _random_ast(rng)
        text = format_program(ast)
        assert parse_program(text) == ast, text


def test_operands_unrolls_the_left_spine_only():
    a, b, c = (EventAtom(f"e{i}", DeclBare("x"), None, ValueChanged()) for i in range(3))
    assert operands(EventAnd(EventAnd(a, b), c)) == [a, b, c]
    assert operands(EventAnd(a, EventAnd(b, c))) == [a, EventAnd(b, c)]
    assert operands(EventOr(EventAnd(a, b), c)) == [EventAnd(a, b), c]


def test_identifier_lexing_rules():
    src = "interface Ab_1 { attribute x_y : Integer }\nrules end"
    ast = parse_program(src)
    assert ast.spec.interfaces[0].name == "Ab_1"
    with pytest.raises(ParseError):
        parse_program("interface _bad {}\nrules end")


def test_token_kind_names_are_not_reserved_words():
    # only the language's own keywords are reserved; these are plain names
    ast = parse_program("interface I {}\ninteger:I {}\nidentifier:I {}\nrules end")
    assert [e.name for e in ast.spec.entities] == ["integer", "identifier"]
