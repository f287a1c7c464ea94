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

Each generator also runs linked, with a seed of its own and 1000 more
cases, where bodies whose every call links the same two variables (the
body index of ``eval_rule``) are common.  Linked random programs also
mix ``0`` and ``1`` with ``false`` and ``true`` and carry each member
as an event on some entities only; linked shapes also link condition
atoms to a second variable and give some entities an event named like
the joined attribute.  Either way a path reads the event on some
candidates and the attribute on others.
"""

from __future__ import annotations

import dataclasses
import random

import closure_eval
from pantagruel import (
    UNDEF,
    ConflictError,
    DualStore,
    TriggerMode,
    check_program,
    eval_rule,
    parse_program,
)
from pantagruel.ast import (
    ActionCall,
    ActionPar,
    ActionSeq,
    Aggregate,
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
from pantagruel.domains import Entity
from pantagruel.rule_eval import UnsupportedConstructError
from pantagruel.spec_eval import eval_specification

from test_parser import _random_ast

SEED_RANDOM_PROGRAMS = 20_106
SEED_SHAPES = 20_107
SEED_LINKED_PROGRAMS = 20_109
SEED_LINKED_SHAPES = 20_110
SEED_JOINED_PROGRAMS = 20_113
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


def _typed_decls(node):
    if isinstance(node, DeclTyped):
        yield node
    elif dataclasses.is_dataclass(node):
        for field in dataclasses.fields(node):
            yield from _typed_decls(getattr(node, field.name))
    elif isinstance(node, tuple):
        for item in node:
            yield from _typed_decls(item)


def _linked(rng, rule, env):
    """``rule`` with every call of its body on one of two of its typed
    variables and filtered by the other, so that the body's equality
    index applies; now and then a call reads another member, so that it
    does not.  A call names an action of its variable's interface where
    there is one, so that it can fire, and the condition's aggregates are
    unwrapped, since a rule with one is refused before any binding is
    built."""
    interfaces = {}
    for decl in _typed_decls(rule):
        interfaces.setdefault(decl.var, decl.interface)
    if len(interfaces) < 2:
        return rule
    pair = rng.sample(sorted(interfaces), 2)
    member = {var: f"mem{rng.randint(0, 5)}" for var in pair}

    def relink(node):
        if not isinstance(node, ActionCall):
            return type(node)(relink(node.left), relink(node.right))
        target, other = rng.sample(pair, 2)
        decl = node.decl
        if not (isinstance(decl, DeclTyped) and decl.var == target):
            decl = DeclBare(target)
        actions = sorted(env[interfaces[target]].actions) if interfaces[target] in env else []
        action = rng.choice(actions) if actions else node.action
        read = member[other] if rng.random() < 0.9 else f"mem{rng.randint(0, 5)}"
        return dataclasses.replace(
            node, action=action, decl=decl, filter=Filter(member[target], Path(other, read))
        )

    def unwrap(node):
        if isinstance(node, Aggregate):
            return node.inner
        if isinstance(node, (EventAnd, EventOr)):
            return type(node)(unwrap(node.left), unwrap(node.right))
        return node

    return dataclasses.replace(rule, condition=unwrap(rule.condition), body=relink(rule.body))


def _random_program_suite(seed, linked):
    """The tally of 1000 cases of programs from ``_random_ast``.  Linked,
    every rule is relinked (:func:`_linked`), each entity carries each
    member as an event with probability 0.7 rather than always, bare names
    are deployed more often, and the values include ``0`` and ``1``."""
    rng = random.Random(seed)
    tally = {"fired": 0, "conflict": 0}
    cases = 0
    # every entity carries every member name the generator uses, so that
    # atoms and filters find values whatever they name; a bare name the
    # specification does not declare is deployed now and then
    members = dict.fromkeys(f"mem{k}" for k in range(6))

    def skeleton(interface_id):
        if not linked:
            return Entity(interface_id, members, members)
        return Entity(interface_id, members, {k: None for k in members if rng.random() < 0.7})

    while cases < CASES:
        program = _random_ast(rng)
        if not program.rules:
            continue
        cases += 1
        env, store, _ = eval_specification(program.spec)
        rules = tuple(_linked(rng, rule, env) for rule in program.rules) if linked else program.rules
        universe = {entity_id: skeleton(entity.interface_id) for entity_id, entity in store.items()}
        for name in ("e0", "e1", "e2", "e3"):
            if name not in universe and env and rng.random() < (0.9 if linked else 0.3):
                universe[name] = skeleton(rng.choice(sorted(env)))
        # 0 and 1 equal False and True in Python, not in the language
        literals = set(_literals(program)) | ({0, 1} if linked else set())
        pool = [UNDEF, True, False, *sorted(literals)]
        _compare(env, rules, _random_dual(rng, universe, pool), tally)
    return tally


def test_direct_evaluator_matches_closure_oracle_on_random_programs():
    """Programs from ``_random_ast``, whether or not they check clean: the
    generator's rules almost never do (undeclared variables, members the
    interface lacks), and both evaluators are total on unchecked rules."""
    tally = _random_program_suite(SEED_RANDOM_PROGRAMS, linked=False)
    assert tally["fired"] > 0 and tally["conflict"] > 0, tally
    print(f"closure oracle, random programs ({CASES} cases, seed {SEED_RANDOM_PROGRAMS}): {tally}")


def test_direct_evaluator_matches_closure_oracle_on_linked_random_programs():
    tally = _random_program_suite(SEED_LINKED_PROGRAMS, linked=True)
    assert tally["fired"] > 0 and tally["conflict"] > 0, tally
    print(f"closure oracle, linked random programs ({CASES} cases, seed {SEED_LINKED_PROGRAMS}): {tally}")


JOINED_SPEC = """\
interface S { attribute room : Integer event e : Boolean event n : Integer
              action a ( Integer ) action b ( Boolean ) }
interface T { attribute room : Integer event e : Boolean action a ( Integer ) }
rules end
"""
JOINED_INTERFACES = {"S": ("a", "b"), "T": ("a",)}


class _JoinedGenerator:
    """Checked rules over ``JOINED_SPEC`` whose every body call joins the
    same two variables by room, with no aggregate, and whose calls name
    actions their target declares.  The later declared variable is
    read as an attribute and often has a pool test of its own, so that
    its pool is filtered; half the bodies also read the first variable
    as an attribute (``on x with room = y.room``), so that both sides
    are.  Variables ``v*`` range over S, ``w*`` over T."""

    def __init__(self, rng):
        self.rng = rng
        self.declared: list[str] = []

    def decl(self, var):
        if var in self.declared:
            return DeclBare(var)
        self.declared.append(var)
        return DeclTyped(var, "S" if var[0] == "v" else "T")

    def atom(self, var):
        rng = self.rng
        decl = self.decl(var)
        filt = Filter("room", NumLit(1)) if rng.random() < 0.1 else None
        if var[0] == "v" and rng.random() < 0.2:
            return EventAtom("n", decl, filt, ValueEq(NumLit(rng.randint(0, 2))))
        if rng.random() < 0.3:
            return EventAtom("e", decl, filt, ValueChanged())
        return EventAtom("e", decl, filt, ValueEq(BoolLit(rng.random() < 0.8)))

    def call(self, target, other):
        rng = self.rng
        action = rng.choice(JOINED_INTERFACES["S" if target[0] == "v" else "T"])
        arg = BoolLit(rng.random() < 0.5) if action == "b" else NumLit(rng.randint(0, 2))
        return ActionCall(action, arg, self.decl(target), Filter("room", Path(other, "room")))

    def rule(self):
        rng = self.rng
        self.declared = []
        first, second = rng.choice([("v0", "w0"), ("w0", "v0"), ("v0", "v1"), ("w0", "w1")])
        condition = self.atom(first)
        if rng.random() < 0.5:
            condition = EventAnd(condition, self.atom(second))
        if rng.random() < 0.15:
            condition = EventAnd(condition, EventOr(self.atom(first), self.atom(first)))
        body = self.call(second, first)
        if rng.random() < 0.5:
            back = self.call(first, second)
            body = rng.choice([ActionPar, ActionSeq])(*rng.sample([body, back], 2))
        return RuleAst(None, condition, body)


def _joined_store(rng, previous):
    """A random store over two to six S and T entities each: rooms from
    UNDEF, ``true`` and the integers, so that ``true`` meets ``1``; now
    and then an entity carries an event named ``room``, which a path
    reads first.  Given ``previous``, an entity keeps its very object
    there now and then, so that it did not change, and most often its
    room otherwise."""
    store = {}
    for interface, prefix in (("S", "s"), ("T", "t")):
        for k in range(rng.randint(2, 6)):
            entity_id = f"{prefix}{k}"
            if entity_id in previous and rng.random() < 0.3:
                store[entity_id] = previous[entity_id]
                continue
            events = {"e": rng.choice([UNDEF, True, True, False, False])}
            if interface == "S":
                events["n"] = rng.choice([UNDEF, 0, 1, 2])
            if rng.random() < 0.05:
                events["room"] = rng.choice([0, 1, True])
            events.update(dict.fromkeys(JOINED_INTERFACES[interface], UNDEF))
            room = rng.choice([UNDEF, True, 1, 1, 1, 2])
            if entity_id in previous and rng.random() < 0.8:
                room = previous[entity_id].attributes["room"]
            store[entity_id] = Entity(interface, {"room": room}, events)
    return store


def test_direct_evaluator_matches_closure_oracle_on_joined_programs():
    """Unlike the random programs above, these rules fire: in most cases
    (one rule in both modes) some binding fires in at least one mode, or
    two that fire conflict."""
    spec = parse_program(JOINED_SPEC)
    env = check_program(spec).env
    rng = random.Random(SEED_JOINED_PROGRAMS)
    generator = _JoinedGenerator(rng)
    tally = {"fired": 0, "conflict": 0, "cases fired": 0}
    for _ in range(CASES):
        rule = generator.rule()
        assert check_program(dataclasses.replace(spec, rules=(rule,))).ok, rule
        previous = _joined_store(rng, {})
        before = tally["fired"] + tally["conflict"]
        _compare(env, (rule,), DualStore(previous, _joined_store(rng, previous)), tally)
        tally["cases fired"] += tally["fired"] + tally["conflict"] > before
    print(f"closure oracle, joined programs ({CASES} cases, seed {SEED_JOINED_PROGRAMS}): {tally}")
    assert tally["cases fired"] > CASES // 2 and tally["conflict"] > 0, tally


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

# ``SHAPES_SPEC`` with a second attribute, so that a linked call can read
# a member other than the one the rest of the body joins on
LINKED_SHAPES_SPEC = """\
interface S { attribute room : Integer attribute floor : Integer
              event e : Boolean event n : Integer
              action a ( Integer ) action b ( Boolean ) }
interface T { attribute room : Integer attribute floor : Integer action a ( Integer ) }
s1:S { room : 1, floor : 1 }
s2:S { room : 2, floor : 1 }
t1:T { room : 1, floor : 2 }
t2:T { room : 2, floor : 1 }
rules end
"""


class _ShapeGenerator:
    """Well-typed rules over ``SHAPES_SPEC`` with operator trees of any
    shape.  Variables ``v*`` range over S and ``w*`` over T; a path reads
    only variables declared to its left, so every rule checks clean.

    Linked (over ``LINKED_SHAPES_SPEC``), an atom's filter is often a link
    from its variable to another declared one by their rooms, and half the
    bodies link one condition variable to one other variable in every
    call (:meth:`linked_call`)."""

    def __init__(self, rng, linked=False):
        self.rng = rng
        self.linked = linked
        self.declared = []
        self.link = None

    def rule(self):
        rng = self.rng
        self.declared = []
        condition = self.tree(self.atom, EventAnd, EventOr, rng.randint(0, 4))
        self.link = None
        if self.linked and self.declared and rng.random() < 0.5:
            first = rng.choice(self.declared)
            self.link = (first, rng.choice([v for v in ("v0", "v1", "w0", "w1") if v != first]))
        body = self.tree(self.call, ActionSeq, ActionPar, rng.randint(0, 4))
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

    def atom_filter(self, decl):
        """:meth:`filt`, or, linked, as often a link from the atom's
        variable to another declared variable by their rooms."""
        others = [v for v in self.declared if v != getattr(decl, "var", None)]
        if self.linked and others and self.rng.random() < 0.4:
            return Filter("room", Path(self.rng.choice(others), "room"))
        return self.filt()

    def atom(self):
        rng = self.rng
        decl = self.decl("v", ["s1", "s2", "ghost"])
        filt = self.atom_filter(decl)
        if rng.random() < 0.3:
            return EventAtom(rng.choice(["e", "n"]), decl, filt, ValueChanged())
        if rng.random() < 0.5:
            return EventAtom("e", decl, filt, ValueEq(BoolLit(rng.random() < 0.5)))
        return EventAtom("n", decl, filt, ValueEq(self.room()))

    def call(self):
        rng = self.rng
        if self.link is not None:
            return self.linked_call()
        if rng.random() < 0.3:
            decl = self.decl("v", ["s1", "s2", "ghost"])
            return ActionCall("b", BoolLit(rng.random() < 0.5), decl, self.filt())
        decl = self.decl(rng.choice("vw"), ["s1", "t1", "t2", "ghost"])
        return ActionCall("a", self.room(), decl, self.filt())

    def linked_call(self):
        """A call on one linked variable filtered by the other's room; the
        second variable is declared by the first call that names it, and
        a call now and then reads a floor or filters by a literal, so
        that no index applies."""
        rng = self.rng
        first, second = self.link
        target, other = (second, first) if second not in self.declared else rng.sample(self.link, 2)
        if target in self.declared and rng.random() < 0.5:
            decl = DeclBare(target)
        else:
            decl = DeclTyped(target, "S" if target[0] == "v" else "T")
            self.declared.append(target)
        roll = rng.random()
        if roll < 0.1:
            filt = Filter("room", NumLit(1))
        else:
            filt = Filter("floor" if roll < 0.2 else "room", Path(other, "floor" if roll > 0.9 else "room"))
        if target[0] == "v" and rng.random() < 0.3:
            return ActionCall("b", BoolLit(rng.random() < 0.5), decl, filt)
        return ActionCall("a", self.room(), decl, filt)


def _shape_suite(spec, seed, linked):
    """The tally of 1000 cases of :class:`_ShapeGenerator` rules.  Linked,
    each entity of a case also carries an event named ``room`` (which no
    checked program declares) with probability 0.2, so a path reads it
    there."""
    spec_ast = parse_program(spec)
    checked = check_program(spec_ast)
    env = checked.env
    skeletons = {**checked.initial_store, "ghost": checked.initial_store["s1"]}
    pool = [UNDEF, True, False, 1, 2]
    rng = random.Random(seed)
    generator = _ShapeGenerator(rng, linked)
    tally = {"fired": 0, "conflict": 0}
    for _ in range(CASES):
        rules = tuple(generator.rule() for _ in range(rng.randint(1, 3)))
        assert check_program(dataclasses.replace(spec_ast, rules=rules)).ok, rules
        universe = skeletons
        if linked:
            universe = {
                entity_id: dataclasses.replace(entity, events={**entity.events, "room": None})
                if rng.random() < 0.2 else entity
                for entity_id, entity in skeletons.items()
            }
        _compare(env, rules, _random_dual(rng, universe, pool), tally)
    return tally


def test_direct_evaluator_matches_closure_oracle_on_any_shape():
    tally = _shape_suite(SHAPES_SPEC, SEED_SHAPES, linked=False)
    assert tally["fired"] > 0 and tally["conflict"] > 0, tally
    print(f"closure oracle, any shape ({CASES} cases, seed {SEED_SHAPES}): {tally}")


def test_direct_evaluator_matches_closure_oracle_on_linked_shapes():
    tally = _shape_suite(LINKED_SHAPES_SPEC, SEED_LINKED_SHAPES, linked=True)
    assert tally["fired"] > 0 and tally["conflict"] > 0, tally
    print(f"closure oracle, linked shapes ({CASES} cases, seed {SEED_LINKED_SHAPES}): {tally}")
