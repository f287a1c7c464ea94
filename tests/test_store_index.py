"""The dual store that ``step`` carries from tick to tick.

A :class:`~pantagruel.domains.DualStore` lists its current store's ids by
interface and, per attribute a body join reads, by the attribute's value.
``step`` moves those lists by the ids each tick's changes name; these
tests require them to equal, after every tick, the lists of a bare pair
of the state's stores, and the dual store the rules read to list the ids
and the changed ids an identity scan finds.  A state whose stores are not
the pair it carries must be run as if it carried none.
"""

from __future__ import annotations

import dataclasses
import random

import pytest

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
# ``1``: the rules are run unchecked, as ``step`` takes them.
SOURCE = """\
interface A { attribute room : Integer attribute floor : Integer
              event e : Boolean action go ( Boolean ) }
interface B { attribute room : Boolean event e : Boolean action go ( Boolean ) }
interface C { attribute room : Integer event e : Boolean action go ( Integer ) }
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
INTERFACES = ("A", "B", "C")
# what the rules key, and two more the view lists
KEYED = (("A", "room"), ("C", "room"), ("B", "room"), ("A", "floor"))


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
    ``undef`` among them, several to one entity now and then."""
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


def _view(dual: DualStore):
    """What a dual store lists: each interface's ids and each keyed
    attribute's buckets.  They are read from a copy of the pair, so the
    lists built for the view are not carried on to the next tick, where
    the rules must find the lists the block names without them."""
    dual = dual.moved(dual.previous, dual.current, dual.touched, ())
    dual.build([(interface, None) for interface in INTERFACES] + list(KEYED))
    ids = {interface: list(dual.ids(interface)) for interface in INTERFACES}
    buckets = {
        name: {key: list(found) for key, found in dual.keyed(*name).by_key.items()}
        for name in KEYED
    }
    return ids, buckets


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
    read, so the rules ask for nothing the pair was not built for."""
    env, rules = _program()
    duals = []
    built = []  # the lists each evaluation built on the pair it read
    real = runtime.eval_plan

    def recording(env, plan, dual):
        before = set(dual._lists)
        result = real(env, plan, dual)
        duals.append(dual)
        built.append((set(dual._lists) - before, set(plan.lists)))
        return result

    monkeypatch.setattr(runtime, "eval_plan", recording)
    rng = random.Random(SEED)
    moved = 0
    for _ in range(RUNS):
        state = initial_state({})
        states = []
        for tick, changes in enumerate(_script(rng, TICKS), start=1):
            state, _ = step(state, changes, rules, env, mode, strict_conflicts=False)
            dual = duals[-1]
            added, named = built[-1]
            assert added == (named if tick == 1 else set())
            assert set(dual._lists) == named
            # ``go`` is an implicit event: the reset changes it too
            for interface in INTERFACES:
                for event in ("e", "go"):
                    ids, changed = _scanned(dual.current, dual.previous, interface, event)
                    if (interface, None) in named:
                        assert dual.ids(interface) == ids
                    assert dual.changed(interface, event) == changed
            assert state.dual.describes(state.previous, state.current)
            view = _view(state.dual)
            assert view == _view(DualStore(state.previous, state.current))
            moved += state.dual.touched is not None
            states.append((state, view))
        # no later tick changed a list handed out before it
        for state, view in states:
            assert _view(state.dual) == view
    assert moved > RUNS * (TICKS - 3)


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
    for interface in INTERFACES:
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
