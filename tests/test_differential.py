"""Differential suites: the direct evaluator against the closure oracle.

``closure_eval`` is the closure-building evaluator that rendered the
paper's valuation functions literally.  Each case evaluates every rule of
a program with both evaluators, in both trigger modes, over a random
⟨previous, current⟩ store pair, and requires equal effect stores and
equal ``FiredRule`` lists in order, or the same exception with the same
entity, key and values.

Two generators feed it, each with a fixed seed and 1000 cases: random
programs from the parser's round-trip generator (left-leaning chains, as
the parser builds them), and rules over a fixed specification whose
operator trees take any shape: ``or`` under ``and``, right-nested chains,
``||`` over ``,`` and the reverse.  The stores cover the sharp corners:
bare names missing from either store, entities present on one side only,
and filters that read the previous store.
"""

from __future__ import annotations

import dataclasses
import random

import closure_eval
from pantagruel import (
    UNDEF,
    ConflictError,
    DualStore,
    Entity,
    TriggerMode,
    UnsupportedConstructError,
    check_program,
    eval_rule,
    eval_specification,
    parse_program,
)
from pantagruel.ast import (
    ActionCall,
    ActionPar,
    ActionSeq,
    BoolLit,
    DeclBare,
    DeclTyped,
    EventAnd,
    EventAtom,
    EventOr,
    Filter,
    NumLit,
    Path,
    RuleAst,
    ValueChanged,
    ValueEq,
)

from test_parser import _random_ast

SEED_RANDOM_PROGRAMS = 20_106
SEED_SHAPES = 20_107
CASES = 1000


def _outcome(evaluate, env, rule, dual, mode):
    """What one evaluator makes of one rule: its result, or the exception
    it raised with the fields a report shows."""
    try:
        return evaluate(env, rule, dual, mode, label=7)
    except ConflictError as exc:
        return ("conflict", exc.entity_id, exc.key, exc.left, exc.right)
    except UnsupportedConstructError as exc:
        return ("unsupported", exc.span)


def _compare(env, rules, dual, tally):
    for rule in rules:
        for mode in TriggerMode:
            got = _outcome(eval_rule, env, rule, dual, mode)
            want = _outcome(closure_eval.eval_rule, env, rule, dual, mode)
            assert got == want, (rule, dual, mode)
            if got[0] == "conflict":
                tally["conflict"] += 1
            elif got[0] != "unsupported" and got[1]:
                tally["fired"] += 1


def _random_dual(rng, universe, pool):
    """Two independent random stores over the skeleton entities of
    ``universe``: each entity is missing from a side now and then, and
    every member present takes a value drawn from ``pool``."""
    sides = []
    for _ in range(2):
        side = {}
        for entity_id, entity in universe.items():
            if rng.random() < 0.15:
                continue
            side[entity_id] = Entity(
                entity.interface_id,
                {key: rng.choice(pool) for key in entity.attributes},
                {key: rng.choice(pool) for key in entity.events},
            )
        sides.append(side)
    return DualStore(*sides)


def _literals(node):
    if isinstance(node, NumLit):
        yield node.value
    elif dataclasses.is_dataclass(node):
        for field in dataclasses.fields(node):
            yield from _literals(getattr(node, field.name))
    elif isinstance(node, tuple):
        for item in node:
            yield from _literals(item)


def test_direct_evaluator_matches_closure_oracle_on_random_programs():
    """Programs from ``_random_ast``, whether or not they check clean: the
    generator's rules almost never do (undeclared variables, members the
    interface lacks), and both evaluators are total on unchecked rules."""
    rng = random.Random(SEED_RANDOM_PROGRAMS)
    tally = {"fired": 0, "conflict": 0}
    cases = 0
    while cases < CASES:
        program = _random_ast(rng)
        if not program.rules:
            continue
        cases += 1
        env, store, _ = eval_specification(program.spec)
        # every entity carries every member name the generator uses, so
        # that atoms and filters find values whatever they name; a bare name
        # the specification does not declare is deployed now and then
        members = dict.fromkeys(f"mem{k}" for k in range(6))
        universe = {
            entity_id: Entity(entity.interface_id, members, members)
            for entity_id, entity in store.items()
        }
        for name in ("e0", "e1", "e2", "e3"):
            if name not in universe and env and rng.random() < 0.3:
                universe[name] = Entity(rng.choice(sorted(env)), members, members)
        pool = [UNDEF, True, False, *sorted(set(_literals(program)))]
        _compare(env, program.rules, _random_dual(rng, universe, pool), tally)
    assert tally["fired"] > 0 and tally["conflict"] > 0, tally
    print(f"closure oracle, random programs ({CASES} cases, seed {SEED_RANDOM_PROGRAMS}): {tally}")


SHAPES_SPEC = """\
interface S { attribute room : Integer event e : Boolean event n : Integer
              action a ( Integer ) action b ( Boolean ) }
interface T { attribute room : Integer action a ( Integer ) }
s1:S { room : 1 }
s2:S { room : 2 }
t1:T { room : 1 }
t2:T { room : 2 }
rules end
"""


class _ShapeGenerator:
    """Well-typed rules over ``SHAPES_SPEC`` with operator trees of any
    shape.  Variables ``v*`` range over S and ``w*`` over T; a path reads
    only variables declared to its left, so every rule checks clean."""

    def __init__(self, rng):
        self.rng = rng
        self.declared = []

    def rule(self):
        self.declared = []
        condition = self.tree(self.atom, EventAnd, EventOr, self.rng.randint(0, 4))
        body = self.tree(self.call, ActionSeq, ActionPar, self.rng.randint(0, 4))
        return RuleAst(None, condition, body)

    def tree(self, leaf, first, second, depth):
        if depth == 0 or self.rng.random() < 0.3:
            return leaf()
        kind = self.rng.choice([first, second])
        left = self.tree(leaf, first, second, depth - 1)
        return kind(left, self.tree(leaf, first, second, depth - 1))

    def decl(self, prefix, bare):
        rng = self.rng
        if rng.random() < 0.35:
            return DeclBare(rng.choice(bare))
        var = f"{prefix}{rng.randint(0, 1)}"
        self.declared.append(var)
        return DeclTyped(var, "S" if prefix == "v" else "T")

    def room(self):
        if self.declared and self.rng.random() < 0.6:
            return Path(self.rng.choice(self.declared), "room")
        return NumLit(self.rng.randint(1, 2))

    def filt(self):
        return Filter("room", self.room()) if self.rng.random() < 0.5 else None

    def atom(self):
        rng = self.rng
        decl = self.decl("v", ["s1", "s2", "ghost"])
        filt = self.filt()
        if rng.random() < 0.3:
            return EventAtom(rng.choice(["e", "n"]), decl, filt, ValueChanged())
        if rng.random() < 0.5:
            return EventAtom("e", decl, filt, ValueEq(BoolLit(rng.random() < 0.5)))
        return EventAtom("n", decl, filt, ValueEq(self.room()))

    def call(self):
        rng = self.rng
        if rng.random() < 0.3:
            decl = self.decl("v", ["s1", "s2", "ghost"])
            return ActionCall("b", BoolLit(rng.random() < 0.5), decl, self.filt())
        decl = self.decl(rng.choice("vw"), ["s1", "t1", "t2", "ghost"])
        return ActionCall("a", self.room(), decl, self.filt())


def test_direct_evaluator_matches_closure_oracle_on_any_shape():
    spec_ast = parse_program(SHAPES_SPEC)
    checked = check_program(spec_ast)
    env = checked.env
    universe = {**checked.initial_store, "ghost": checked.initial_store["s1"]}
    pool = [UNDEF, True, False, 1, 2]
    rng = random.Random(SEED_SHAPES)
    generator = _ShapeGenerator(rng)
    tally = {"fired": 0, "conflict": 0}
    for _ in range(CASES):
        rules = tuple(generator.rule() for _ in range(rng.randint(1, 3)))
        assert check_program(dataclasses.replace(spec_ast, rules=rules)).ok, rules
        _compare(env, rules, _random_dual(rng, universe, pool), tally)
    assert tally["fired"] > 0 and tally["conflict"] > 0, tally
    print(f"closure oracle, any shape ({CASES} cases, seed {SEED_SHAPES}): {tally}")
