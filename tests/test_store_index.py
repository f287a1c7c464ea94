"""The dual store that ``step`` carries from tick to tick.

A :class:`~pantagruel.domains.DualStore` lists its current store's ids by
interface and, per attribute a body join reads, by the attribute's value.
``step`` moves those lists in place by the ids each tick's changes name,
and the pair it moved them from lists nothing after; these tests require
them to equal, after every tick, the lists of a bare pair of the state's
stores, and the dual store the rules read to list the ids and the changed
ids an identity scan finds.  A state whose stores are not the pair it
carries, or whose pair handed its lists on, must be run as if it carried
none.
"""

from __future__ import annotations

import dataclasses
import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pantagruel import (
    UNDEF,
    AttributeUpdate,
    Deploy,
    EventUpdate,
    Remove,
    TriggerMode,
    check_program,
    initial_state,
    parse_program,
    step,
)
from pantagruel import runtime
from pantagruel.ast import BoolLit, EntityDecl, InitDecl, NumLit
from pantagruel.domains import DualStore, Entity, access_event, value_neq
from pantagruel.runtime import RunState

SEED = 20_112
RUNS = 40
TICKS = 25

# ``B`` keeps its rooms as truth values, so rule 2 meets ``true`` against
# ``1``: the rules are run unchecked, as ``step`` takes them.  No rule
# names ``D``, so no pair lists it.
SOURCE = """\
interface A { attribute room : Integer attribute floor : Integer
              event e : Boolean action go ( Boolean ) }
interface B { attribute room : Boolean event e : Boolean action go ( Boolean ) }
interface C { attribute room : Integer event e : Boolean action go ( Integer ) }
interface D { attribute room : Integer event e : Boolean action go ( Boolean ) }
rules
(1) when event e from m:A value = true trigger action go(5) on l:C with room = m.room end
(2) when event e from m:B value changed trigger action go(true) on l:A with room = m.room end
(3) when event e from m:A value = false
    trigger action go(2) on l:C with room = m.room || action go(true) on m with room = l.room end
(4) when event e from m:A value = true and event e from l:C value = true
    trigger action go(5) on l with room = m.room end
(5) when event go from m:A value changed trigger action go(5) on l:C with room = m.room end
end
"""
# the interfaces some rule names
RULE_INTERFACES = ("A", "B", "C")
INTERFACES = (*RULE_INTERFACES, "D")


def _program():
    checked = check_program(parse_program(SOURCE))
    return checked.env, checked.rules


def _room(rng, interface):
    if interface == "B":
        return rng.choice([True, False, UNDEF])
    return rng.choice([0, 1, 1, 2, UNDEF])


def _literal(value):
    return BoolLit(value) if isinstance(value, bool) else NumLit(value)


def _deploy(rng, name, interface):
    inits = []
    room = _room(rng, interface)
    if room is not UNDEF and rng.random() < 0.8:
        inits.append(InitDecl("room", _literal(room)))
    if interface == "A" and rng.random() < 0.5:
        inits.append(InitDecl("floor", NumLit(rng.randint(0, 1))))
    return Deploy(EntityDecl(name, interface, tuple(inits)))


def _script(rng, ticks):
    """Random ticks of changes, valid against the stores they meet:
    deploys, removes, an id removed and deployed again under another
    interface (in one tick or later), and event and attribute writes,
    ``undef`` among them, several to one entity now and then.  Some
    entities are ``D``'s, which no list holds, so some ids move between
    an interface a pair lists and one it does not."""
    alive: dict[str, str] = {}
    names = [f"x{i}" for i in range(12)]
    script = [[_deploy(rng, name, rng.choice(INTERFACES)) for name in names[:6]]]
    alive.update((c.decl.name, c.decl.interface) for c in script[0])
    for _ in range(ticks - 1):
        changes = []
        for name in [n for n in sorted(alive) if rng.random() < 0.08]:
            changes.append(Remove(name))
            interface = alive.pop(name)
            if rng.random() < 0.5:
                other = rng.choice([i for i in INTERFACES if i != interface])
                changes.append(_deploy(rng, name, other))
                alive[name] = other
        for name in [n for n in names if n not in alive and rng.random() < 0.1]:
            changes.append(_deploy(rng, name, rng.choice(INTERFACES)))
            alive[name] = changes[-1].decl.interface
        for _ in range(rng.randint(0, 6)):
            if not alive:
                break
            name = rng.choice(sorted(alive))
            interface = alive[name]
            roll = rng.random()
            if roll < 0.55:
                changes.append(EventUpdate(name, "e", rng.choice([True, False, UNDEF])))
            elif roll < 0.9:
                changes.append(AttributeUpdate(name, "room", _room(rng, interface)))
            elif interface == "A":
                changes.append(AttributeUpdate(name, "floor", rng.choice([0, 1, UNDEF])))
        script.append(changes)
    return script


def _redeploys(script):
    """``(old interface, new interface, same tick)`` for each id deployed
    again under another interface than it last had: in the tick that
    removed it, or later."""
    last: dict[str, str] = {}
    found = []
    for changes in script:
        removed = {c.entity for c in changes if isinstance(c, Remove)}
        for change in changes:
            if isinstance(change, Deploy):
                name, interface = change.decl.name, change.decl.interface
                if last.get(name, interface) != interface:
                    found.append((last[name], interface, name in removed))
                last[name] = interface
    return found


def _view(dual: DualStore, names):
    """Copies of the lists ``names`` that a dual store holds: an
    interface's ids (attribute None) or an attribute's buckets.  They are
    read without building or moving a list, so the view neither adds a
    list nor takes the pair's lists over."""
    return {
        (interface, attribute): list(dual.ids(interface))
        if attribute is None
        else {key: list(found) for key, found in dual.keyed(interface, attribute).by_key.items()}
        for interface, attribute in names
    }


def _scanned(store, previous, interface, event):
    """The interface's ids, and those whose ``event`` changed value, found
    by scanning the whole store."""
    ids = sorted(entity_id for entity_id, e in store.items() if e.interface_id == interface)
    return ids, [
        entity_id
        for entity_id in ids
        if value_neq(access_event(event, entity_id, previous), access_event(event, entity_id, store))
    ]


def _fresh(state: RunState) -> RunState:
    """The state as built by hand: the same stores, no dual store."""
    return RunState(state.previous, state.current, state.tick, state.effect_ids)


def _outcome(state, changes, env, rules, mode):
    new, record = step(state, changes, rules, env, mode, strict_conflicts=False)
    return new, (record.fired, record.snapshot, record.conflict)


@pytest.mark.parametrize("mode", list(TriggerMode))
def test_the_index_step_carries_equals_one_built_afresh(monkeypatch, mode):
    """The drift guard.  ``eval_plan`` is the one caller of
    ``DualStore.build``, and a pair ``step`` carries holds, from the end of
    a run's first tick on, every list the block's plan names: no later
    tick lists anything, as the rules and mode stay the same and no pair
    is fresh.  A list the plan failed to name is a ``KeyError`` on the
    read, so the rules ask for nothing the pair was not built for.  The
    pair a tick reads is checked while the tick holds it, as ``step``
    then hands its lists on; a read of a pair that handed them on is a
    ``KeyError`` too, not stale data.  No pair lists ``D``, and ids move
    both ways between ``D`` and the interfaces that are listed, within
    one tick and across ticks."""
    env, rules = _program()
    read = []  # (the pair each evaluation read, the lists it built, those named)
    real = runtime.eval_plan

    def checked(env, plan, dual):
        before = set(dual._lists)
        result = real(env, plan, dual)
        named = set(plan.lists)
        assert set(dual._lists) == named
        # ``go`` is an implicit event: the reset changes it too
        for interface in INTERFACES:
            for event in ("e", "go"):
                ids, changed = _scanned(dual.current, dual.previous, interface, event)
                if (interface, None) in named:
                    assert dual.ids(interface) == ids
                assert dual.changed(interface, event) == changed
        read.append((dual, set(dual._lists) - before, named))
        return result

    monkeypatch.setattr(runtime, "eval_plan", checked)
    rng = random.Random(SEED)
    moved = 0
    crossings = set()
    for _ in range(RUNS):
        script = _script(rng, TICKS)
        crossings.update(
            (old == "D", same_tick)
            for old, new, same_tick in _redeploys(script)
            if "D" in (old, new)
        )
        state = initial_state({})
        for tick, changes in enumerate(script, start=1):
            stepped = state
            state, _ = step(state, changes, rules, env, mode, strict_conflicts=False)
            dual, added, named = read[-1]
            assert added == (named if tick == 1 else set())
            assert "D" not in {interface for interface, _ in named}
            assert state.dual.describes(state.previous, state.current)
            fresh = DualStore(state.previous, state.current)
            fresh.build(named)
            assert _view(state.dual, named) == _view(fresh, named)
            moved += state.dual.touched is not None
            # the pairs the tick moved from handed their lists on
            for handed_on in (stepped.dual, dual):
                assert handed_on._lists == {}
                for name in named:
                    with pytest.raises(KeyError):
                        _view(handed_on, [name])
    assert moved > RUNS * (TICKS - 3)
    # out of D and into it, each in the removing tick and in a later one
    assert crossings == {(True, True), (True, False), (False, True), (False, False)}


def test_a_list_is_read_only_from_a_pair_built_for_it():
    """``ids``, ``keyed`` and ``changed`` only look up: before ``build``
    a list read is a ``KeyError`` naming a list it lacks (``keyed`` reads
    the interface's ids first), and ``changed`` on a pair whose touched
    ids are unknown a ``ValueError``.  After ``build`` each equals a scan
    of the stores, and a list it was not asked for is still a
    ``KeyError``."""
    env, rules = _program()
    rng = random.Random(SEED + 2)
    state = initial_state({})
    for changes in _script(rng, 6):
        state, _ = step(state, changes, rules, env, TriggerMode.LEVEL, strict_conflicts=False)
    assert len(state.current) > 3
    dual = DualStore(state.previous, state.current)
    with pytest.raises(KeyError, match=r"\('A', None\)"):
        dual.ids("A")
    with pytest.raises(KeyError, match=r"\('C', None\)"):
        dual.keyed("C", "room")
    with pytest.raises(ValueError):
        dual.changed("A", "e")
    dual.build([("A", None), ("B", None), ("C", None), ("C", "room")])
    for interface in RULE_INTERFACES:
        ids, changed = _scanned(dual.current, dual.previous, interface, "e")
        assert dual.ids(interface) == ids
        assert dual.changed(interface, "e") == changed
    keyed = dual.keyed("C", "room")
    assert keyed.ids == dual.ids("C")
    rooms = {}
    for entity_id in dual.ids("C"):
        room = dual.current[entity_id].attributes.get("room", UNDEF)
        if room is not UNDEF:
            rooms.setdefault((type(room), room), []).append(entity_id)
    assert dict(keyed.by_key) == rooms
    with pytest.raises(KeyError, match=r"\('A', 'room'\)"):
        dual.keyed("A", "room")


def test_a_state_run_twice_or_replaced_runs_as_a_fresh_one():
    """``step`` twice on one state, and states whose previous or current
    store was replaced, give the records and states of a run from the
    same stores without a dual store."""
    env, rules = _program()
    rng = random.Random(SEED + 1)
    compared = 0
    for _ in range(RUNS // 2):
        script = _script(rng, TICKS)
        state = initial_state({})
        history = [state]
        for changes in script:
            mode = rng.choice(list(TriggerMode))
            twice = [_outcome(state, changes, env, rules, mode) for _ in range(2)]
            assert twice[0] == twice[1] == _outcome(_fresh(state), changes, env, rules, mode)
            earlier = rng.choice(history)
            for replaced in (
                dataclasses.replace(state, previous={}),
                dataclasses.replace(state, previous=earlier.current),
                dataclasses.replace(state, current=earlier.current),
            ):
                assert replaced.dual is state.dual
                quiet = [EventUpdate(n, "e", True) for n in sorted(replaced.current)[:2]]
                assert _outcome(replaced, quiet, env, rules, mode) == _outcome(
                    _fresh(replaced), quiet, env, rules, mode
                )
                compared += 1
            state = twice[0][0]
            history.append(state)
    assert compared == 3 * (RUNS // 2) * TICKS


def test_a_replaced_store_is_not_read_through_the_index_of_the_old_one():
    """Two sharp cases: a current store with one more entity than the
    dual store lists, and an empty previous store, under which every entity
    is new, though the dual store has only one touched id."""
    env, rules = _program()
    deploy = [
        Deploy(EntityDecl("a1", "A", (InitDecl("room", NumLit(1)),))),
        Deploy(EntityDecl("c1", "C", (InitDecl("room", NumLit(1)),))),
        EventUpdate("a1", "e", True),
    ]
    state, _ = step(initial_state({}), deploy, rules, env, TriggerMode.EDGE)
    state, _ = step(state, [EventUpdate("c1", "e", True)], rules, env, TriggerMode.EDGE)
    more = {**state.current, "a2": Entity("A", {"room": 1}, {"e": True, "go": UNDEF})}
    for replaced in (
        dataclasses.replace(state, current=more),
        dataclasses.replace(state, previous={}),
    ):
        _, got = _outcome(replaced, [], env, rules, TriggerMode.EDGE)
        _, want = _outcome(_fresh(replaced), [], env, rules, TriggerMode.EDGE)
        assert want[0] and got == want


# ── drawn runs ───────────────────────────────────────────────────

_NAMES = [f"x{i}" for i in range(8)]
_INTS = [0, 1, 2, UNDEF]
# four of each, so one drawn pick chooses either
_BOOLS = [True, False, UNDEF, True]
_OPS = st.tuples(
    st.sampled_from(["deploy", "remove", "room", "e", "e"]),
    st.sampled_from(_NAMES),
    st.sampled_from(INTERFACES),
    st.integers(0, 3),
)


@st.composite
def _run(draw):
    """Up to 12 ticks of changes valid against the stores they meet, each
    with two flags: whether the state is forgotten first, and whether it is
    stepped once more first, a step whose result is dropped.  A deploy of
    an id alive at the tick's start removes it first, so ids come back,
    under another interface or the same, in the tick that removed them
    and later; writes are to the joined attribute and to the event."""
    alive: dict[str, str] = {}
    ticks = []
    for _ in range(draw(st.integers(1, 12))):
        removed: set[str] = set()
        deployed: dict[str, str] = {}
        changes = []
        for op, name, interface, pick in draw(st.lists(_OPS, max_size=6)):
            live = {**{n: i for n, i in alive.items() if n not in removed}, **deployed}
            if op in ("deploy", "remove") and name in live and name not in deployed:
                # writes run after removes and deploys: drop the tick's to it
                changes = [c for c in changes if isinstance(c, (Remove, Deploy)) or c.entity != name]
                changes.append(Remove(name))
                removed.add(name)
            if op == "deploy" and name not in deployed:
                room = (_BOOLS if interface == "B" else _INTS)[pick]
                inits = () if room is UNDEF else (InitDecl("room", _literal(room)),)
                changes.append(Deploy(EntityDecl(name, interface, inits)))
                deployed[name] = interface
            elif op == "room" and name in live:
                room = (_BOOLS if live[name] == "B" else _INTS)[pick]
                changes.append(AttributeUpdate(name, "room", room))
            elif op == "e" and name in live:
                changes.append(EventUpdate(name, "e", _BOOLS[pick]))
        alive = {**{n: i for n, i in alive.items() if n not in removed}, **deployed}
        ticks.append((changes, draw(st.booleans()), draw(st.booleans())))
    return ticks


@settings(max_examples=200, deadline=None)
@given(_run(), st.sampled_from(list(TriggerMode)))
def test_a_drawn_run_reads_the_pairs_a_fresh_run_builds(ticks, mode):
    """The pair each tick reads lists, for every list its plan names, what
    a pair of the same stores built afresh lists, and changed ids as a scan
    of the stores finds them, when the state was forgotten
    (``effect_ids`` dropped), stepped once before, or both; and the run's
    records equal those of a run whose states are all built by hand."""
    env, rules = _program()
    real = runtime.eval_plan

    def checked(env, plan, dual):
        result = real(env, plan, dual)
        fresh = DualStore(dual.previous, dual.current)
        fresh.build(plan.lists)
        assert _view(dual, plan.lists) == _view(fresh, plan.lists)
        for interface in INTERFACES:
            for event in ("e", "go"):
                assert dual.changed(interface, event) == _scanned(
                    dual.current, dual.previous, interface, event
                )[1]
        return result

    state = reference = initial_state({})
    with mock.patch.object(runtime, "eval_plan", checked):
        for changes, forget, twice in ticks:
            if forget:
                state = dataclasses.replace(state, effect_ids=None)
            if twice:
                _outcome(state, changes, env, rules, mode)
            state, got = _outcome(state, changes, env, rules, mode)
            reference, want = _outcome(_fresh(reference), changes, env, rules, mode)
            assert got == want
