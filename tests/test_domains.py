"""Semantic algebra: value comparison, store merging, instantiation."""

from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from pantagruel import UNDEF, ConflictError, store_join, update_member
from pantagruel.ast import ActionCall, BoolLit, DeclBare, NumLit, TypeTag
from pantagruel.domains import (
    DualStore,
    Entity,
    Interface,
    UnknownEntityError,
    access_attribute,
    access_event,
    combine_entities,
    instantiate,
    store_join_all,
    value_eq,
    value_neq,
)

from conftest import action_effects, index_pools

# ── Values ───────────────────────────────────────────────────────


def test_value_eq_basics():
    assert value_eq(30, 30)
    assert not value_eq(30, 29)
    assert value_eq(True, True)
    assert not value_eq(True, False)


def test_value_eq_undef_never_equal():
    assert not value_eq(UNDEF, True)
    assert not value_eq(True, UNDEF)
    assert not value_eq(UNDEF, UNDEF)


def test_value_eq_cross_type_false_not_crash():
    assert not value_eq(1, True)
    assert not value_eq(0, False)
    assert value_neq(1, True)


def test_value_neq_undef_is_one_distinct_value():
    assert value_neq(UNDEF, True)  # first definition counts as a change
    assert not value_neq(UNDEF, UNDEF)
    assert not value_neq(30, 30)
    assert value_neq(29, 30)


values = st.one_of(st.just(UNDEF), st.booleans(), st.integers(min_value=0, max_value=9))


@given(values, values)
def test_neq_is_negated_reflexive_equality(a, b):
    # value_neq is irreflexive and symmetric; UNDEF equals only itself
    assert value_neq(a, b) == value_neq(b, a)
    assert not value_neq(a, a)


# ── Entity combination ───────────────────────────────────────────


def _entity(iface="Light", attrs=None, events=None):
    return Entity(iface, dict(attrs or {}), dict(events or {}))


def test_combine_absent_passthrough():
    e = _entity(events={"switch": True})
    assert combine_entities("l10", None, e) == e
    assert combine_entities("l10", e, None) == e
    assert combine_entities("l10", None, None) is None


def test_combine_equal_overlap_idempotent_and_commutative():
    a = _entity(events={"switch": True})
    b = _entity(events={"switch": True})
    # evaluate both orders: merge must be insensitive to the order
    assert combine_entities("l10", a, b) == combine_entities("l10", b, a) == a


def test_combine_unequal_overlap_conflicts():
    a = _entity(events={"switch": True})
    b = _entity(events={"switch": False})
    with pytest.raises(ConflictError) as exc:
        combine_entities("l10", a, b)
    assert exc.value.entity_id == "l10"
    assert exc.value.key == "switch"


def test_combine_interface_mismatch_conflicts():
    with pytest.raises(ConflictError):
        combine_entities("x", _entity("Light"), _entity("Fan"))


def test_combine_undef_vs_defined_conflicts():
    # UNDEF is a distinct raw value: overwriting it silently would lose a write
    with pytest.raises(ConflictError):
        combine_entities("x", _entity(events={"e": UNDEF}), _entity(events={"e": 1}))


def test_combine_nat_vs_tr_overlap_conflicts():
    with pytest.raises(ConflictError):
        combine_entities("x", _entity(events={"e": 1}), _entity(events={"e": True}))


entities = st.builds(
    _entity,
    iface=st.just("I"),
    attrs=st.dictionaries(st.sampled_from("abc"), values, max_size=3),
    events=st.dictionaries(st.sampled_from("xyz"), values, max_size=3),
)


@given(entities)
def test_combine_idempotent(e):
    assert combine_entities("id", e, e) == e


# ── Store join ───────────────────────────────────────────────────


def test_join_identity():
    s = {"l10": _entity(events={"switch": True})}
    assert store_join({}, s) == s
    assert store_join(s, {}) == s


def test_join_disjoint_entities():
    s1 = {"l10": _entity(events={"switch": True})}
    s2 = {"l11": _entity(events={"switch": True})}
    joined = store_join(s1, s2)
    assert set(joined) == {"l10", "l11"}


def test_join_reports_the_least_conflict():
    """Whatever the key order of either store: least entity id first, then
    interface, then attributes before events, each by least key."""
    def clash(s1, s2):
        with pytest.raises(ConflictError) as exc:
            store_join(s1, s2)
        return exc.value.entity_id, exc.value.key, exc.value.left, exc.value.right

    s1 = {
        "y": _entity(attrs={"b": 1, "a": 1}, events={"d": 1, "c": 1}),
        "x": _entity(attrs={"b": 1, "a": 1}, events={"d": 1, "c": 1}),
    }
    s2 = {
        "y": _entity("Fan", attrs={"b": 2, "a": 2}, events={"d": 2, "c": 2}),
        "x": _entity(attrs={"b": 2, "a": 2}, events={"d": 2, "c": 2}),
    }
    assert clash(s1, s2) == ("x", "a", 1, 2)
    assert clash(s2, s1) == ("x", "a", 2, 1)
    s2["x"] = _entity("Fan", attrs={"b": 2, "a": 2}, events={"d": 2, "c": 2})
    assert clash(s1, s2) == ("x", "interface", "Light", "Fan")
    s2["x"] = _entity(attrs={"b": 1, "a": 1}, events={"d": 2, "c": 2})
    assert clash(s1, s2) == ("x", "c", 1, 2)
    del s2["x"]
    assert clash(s1, s2) == ("y", "interface", "Light", "Fan")


def test_join_conflict():
    s1 = {"l10": _entity(events={"switch": True})}
    s2 = {"l10": _entity(events={"switch": False})}
    with pytest.raises(ConflictError):
        store_join(s1, s2)


def test_join_all_empty():
    assert store_join_all([]) == {}


def test_join_all_fig_effect_stores():
    # six per-instantiation stores: two produce the switch events, four are empty
    partials = [
        {"l10": _entity(events={"switch": True})},
        {"l11": _entity(events={"switch": True})},
        {},
        {},
        {},
        {},
    ]
    joined = store_join_all(partials)
    assert joined == {
        "l10": _entity(events={"switch": True}),
        "l11": _entity(events={"switch": True}),
    }


def _random_disjoint_stores(rng: random.Random, k: int) -> list[dict]:
    """Stores with pairwise-disjoint (entity, key) effect pairs; entity ids
    may repeat across stores as long as their keys differ."""
    ids = ["e0", "e1", "e2", "e3"]
    pairs = [(eid, f"k{i}") for eid in ids for i in range(4)]
    rng.shuffle(pairs)
    stores: list[dict] = [{} for _ in range(k)]
    for idx, (eid, key) in enumerate(pairs[: rng.randint(0, len(pairs))]):
        value = rng.choice([True, False, rng.randint(0, 9), UNDEF])
        target = stores[idx % k]
        entity = target.get(eid, _entity("I"))
        target[eid] = Entity("I", entity.attributes, {**entity.events, key: value})
    return stores


def _union_oracle(stores: list[dict]) -> dict:
    """Brute-force union of disjoint stores, merged by hand."""
    events: dict[str, dict] = {}
    for store in stores:
        for eid, entity in store.items():
            events.setdefault(eid, {}).update(entity.events)
    return {
        eid: Entity("I", {}, dict(sorted(kv.items()))) for eid, kv in sorted(events.items())
    }


def test_join_all_matches_union_oracle_and_is_order_insensitive():
    rng = random.Random(7)
    for _ in range(200):
        stores = _random_disjoint_stores(rng, rng.randint(1, 4))
        expected = _union_oracle(stores)
        assert store_join_all(stores) == expected
        for perm in itertools.permutations(stores):
            assert store_join_all(list(perm)) == expected


# ── Access and update ────────────────────────────────────────────


def test_access_event_present_absent_missing():
    store = {"m10": _entity("MotionDetector", events={"detected": True})}
    assert access_event("detected", "m10", store) is True
    assert access_event("other", "m10", store) is UNDEF
    assert access_event("anything", "ghost", {}) is UNDEF


def test_access_attribute_mirrors_event_access():
    store = {"l10": _entity(attrs={"room": 101})}
    assert access_attribute("room", "l10", store) == 101
    assert access_attribute("room", "thermo", store) is UNDEF


def test_update_event_skeleton_in_partial_store():
    """A call whose target has no entry in the partial store starts one
    holding the target's interface and the implicit event alone; a second
    call on it adds to that entry."""
    env = {"Light": Interface({"room": TypeTag.NAT}, {}, {"switch": TypeTag.BOOL, "dim": TypeTag.NAT})}
    current = {"l10": _entity("Light", attrs={"room": 101}, events={"switch": UNDEF})}
    scope = {"l10": "l10"}
    switch = ActionCall("switch", BoolLit(True), DeclBare("l10"), None)
    out = action_effects(switch, env, current, scope, {})
    assert out == {"l10": Entity("Light", {}, {"switch": True})}
    dim = ActionCall("dim", NumLit(3), DeclBare("l10"), None)
    assert action_effects(dim, env, current, scope, out) == {
        "l10": Entity("Light", {}, {"switch": True, "dim": 3})
    }


def test_update_event_unknown_everywhere_raises():
    with pytest.raises(UnknownEntityError):
        update_member({}, "ghost", events={"switch": True})


def test_update_then_access_reads_back():
    store = {"l10": _entity("Light", events={"switch": UNDEF})}
    out = {**store, "l10": update_member(store, "l10", events={"switch": True})}
    assert access_event("switch", "l10", out) is True
    # original store untouched
    assert access_event("switch", "l10", store) is UNDEF


def test_updates_to_distinct_entities_commute():
    store = {
        "l10": _entity("Light", events={"switch": UNDEF}),
        "l11": _entity("Light", events={"switch": UNDEF}),
    }

    def set_switch(store, entity_id, value):
        return {**store, entity_id: update_member(store, entity_id, events={"switch": value})}

    one = set_switch(set_switch(store, "l10", True), "l11", False)
    two = set_switch(set_switch(store, "l11", False), "l10", True)
    assert one == two


def test_update_attribute_read_back():
    store = {"l10": _entity("Light", attrs={"room": 101})}
    out = {"l10": update_member(store, "l10", attributes={"room": 102})}
    assert access_attribute("room", "l10", out) == 102


def test_update_member_overwrites_both_kinds_and_keeps_the_rest():
    entity = _entity("Light", attrs={"room": 101, "floor": 1}, events={"switch": UNDEF})
    out = update_member(
        {"l10": entity}, "l10", attributes={"room": 102}, events={"switch": True}
    )
    assert out == Entity("Light", {"room": 102, "floor": 1}, {"switch": True})
    # the old entity is untouched, and a kind left alone is shared, not copied
    assert entity.attributes == {"room": 101, "floor": 1}
    assert update_member({"l10": entity}, "l10", events={"switch": True}).attributes is entity.attributes


def test_an_equal_write_returns_the_very_entity_and_1_over_true_does_not():
    """A write whose every member already holds a value of the same type
    that is equal changes nothing, so the entity itself comes back; the
    type is part of the value, as :func:`value_eq` keeps ``1`` and
    ``True`` apart even where Python (and so ``Entity.__eq__``) does not."""
    entity = _entity("Light", attrs={"room": 101}, events={"switch": True, "dim": UNDEF})
    store = {"l10": entity}
    assert update_member(store, "l10", events={"switch": True}) is entity
    assert update_member(store, "l10", attributes={"room": 101}, events={"dim": UNDEF}) is entity
    one = update_member(store, "l10", events={"switch": 1})
    assert one is not entity and type(one.events["switch"]) is int
    assert one == entity
    assert update_member(store, "l10", events={"flash": UNDEF}) is not entity  # a new member
    moved = update_member(store, "l10", attributes={"room": 102}, events={"switch": True})
    assert moved.attributes == {"room": 102} and moved.events is entity.events


# ── Instantiation ────────────────────────────────────────────────


def _fig_store():
    return {
        "m10": _entity("MotionDetector"),
        "m20": _entity("MotionDetector"),
        "l10": _entity("Light"),
        "l11": _entity("Light"),
        "l20": _entity("Light"),
    }


def test_instantiate_cross_product():
    open_vars = {"m": "MotionDetector", "l": "Light"}
    envs = instantiate({}, index_pools(_fig_store(), open_vars))
    assert len(envs) == 6
    assert envs[0] == {"l": "l10", "m": "m10"}
    bindings = {(e["m"], e["l"]) for e in envs}
    assert bindings == {
        (m, l) for m in ("m10", "m20") for l in ("l10", "l11", "l20")
    }


def test_instantiate_instance_refs_pass_through():
    """With no open variable, the one binding is the bound names'."""
    bound = {"thermo": "thermo"}
    assert instantiate(bound, {}) == [bound]


def test_instantiate_empty_on_zero_match():
    assert instantiate({}, index_pools(_fig_store(), {"f": "Fan"})) == []


def _instantiate_oracle(store, open_vars, bound=None):
    """Exhaustive enumeration over all total assignments of the open
    variables (variable → interface), each extending ``bound``."""
    names = sorted(open_vars)
    results = []
    for combo in itertools.product(sorted(store), repeat=len(names)):
        if all(
            store[eid].interface_id == open_vars[var]
            for var, eid in zip(names, combo)
        ):
            env = dict(bound or {})
            env.update(zip(names, combo))
            results.append(env)
    return results


def test_instantiate_matches_exhaustive_oracle():
    rng = random.Random(11)
    ifaces = ["A", "B", "C"]
    for _ in range(300):
        store = {
            f"e{i}": _entity(rng.choice(ifaces)) for i in range(rng.randint(0, 4))
        }
        open_vars, bound = {}, {}
        for v in range(rng.randint(0, 3)):
            if rng.random() < 0.7:
                open_vars[f"v{v}"] = rng.choice(ifaces)
            else:
                bound[f"v{v}"] = f"e{rng.randint(0, 3)}"
        got = instantiate(bound, index_pools(store, open_vars))
        expected = _instantiate_oracle(store, open_vars, bound)
        key = lambda env: sorted(env.items())
        assert sorted(got, key=key) == sorted(expected, key=key)
        counts = [
            sum(1 for e in store.values() if e.interface_id == interface)
            for interface in open_vars.values()
        ]
        expected_size = 1
        for c in counts:
            expected_size *= c
        assert len(got) == expected_size


def test_instantiate_orders_by_variable_then_id_whatever_the_store_order():
    rng = random.Random(12)
    for _ in range(200):
        ids = [f"e{i}" for i in range(rng.randint(0, 5))]
        rng.shuffle(ids)
        store = {entity_id: _entity(rng.choice("AB")) for entity_id in ids}
        open_vars = {f"v{v}": rng.choice("AB") for v in rng.sample(range(4), 2)}
        assert instantiate({}, index_pools(store, open_vars)) == _instantiate_oracle(store, open_vars)


def test_instantiate_admits_filters_pools_and_keeps_order():
    """A pool filtered by a test on its own variable's candidates drops
    exactly the bindings the test rejects and keeps the rest in order."""
    rng = random.Random(13)
    for _ in range(200):
        store = {f"e{i}": _entity(rng.choice("AB")) for i in range(rng.randint(0, 6))}
        open_vars = {"v": rng.choice("AB"), "w": rng.choice("AB")}
        kept = {entity_id for entity_id in store if rng.random() < 0.5}
        asked = []

        def admit_v(entity_id):
            asked.append(entity_id)
            return entity_id in kept

        pools = index_pools(store, open_vars)
        pools["v"] = [entity_id for entity_id in pools["v"] if admit_v(entity_id)]
        got = instantiate({}, pools)
        want = [env for env in _instantiate_oracle(store, open_vars) if env["v"] in kept]
        assert got == want
        assert all(store[entity_id].interface_id == open_vars["v"] for entity_id in asked)


def _room(store):
    """A join reader: the ``room`` attribute of an entity in ``store``."""
    return lambda entity_id: access_attribute("room", entity_id, store)


def _keyed_rooms(store, open_vars, sides):
    """The keyed sides of a join on ``room``: each variable of ``sides``
    with its interface's ids by room, as a dual store lists them."""
    dual = DualStore({}, store)
    dual.build(name for var in sides for name in ((open_vars[var], None), (open_vars[var], "room")))
    return {var: dual.keyed(open_vars[var], "room") for var in sides}


def test_instantiate_join_keeps_nat_and_bool_apart_and_never_joins_undef():
    """``1`` and ``true`` are equal and hash alike in Python but differ by
    ``value_eq``; UNDEF and a missing attribute equal nothing."""
    rooms = {"1": 1, "t": True, "u": UNDEF, "2": 2}
    store = {}
    for side in "ab":
        for name, room in rooms.items():
            store[f"{side}{name}"] = _entity(side.upper(), {"room": room})
        store[f"{side}none"] = _entity(side.upper())
    open_vars = {"x": "A", "y": "B"}
    for sides in ("x", "y", "xy"):
        keyed = _keyed_rooms(store, open_vars, sides)
        got = instantiate({}, index_pools(store, open_vars), ("x", _room(store), "y", _room(store)), keyed)
        assert [(env["x"], env["y"]) for env in got] == [("a1", "b1"), ("a2", "b2"), ("at", "bt")]


def test_instantiate_join_drops_exactly_the_unequal_bindings_in_order():
    """A join between two of three variables, given with either variable
    first, drops exactly the bindings whose two reads differ by
    ``value_eq`` and keeps the rest in product order, whether the variable
    looked up sorts before or after the other and with pool tests too."""
    rng = random.Random(14)
    values = [UNDEF, True, False, 0, 1, 2]
    for _ in range(300):
        ids = [f"e{i}" for i in range(rng.randint(0, 7))]
        rng.shuffle(ids)
        store = {
            entity_id: _entity(rng.choice("AB"), {"room": rng.choice(values)})
            for entity_id in ids
            if rng.random() < 0.9
        }
        open_vars = {v: rng.choice("AB") for v in ("a", "b", "c")}
        read = _room(store)
        x, y = rng.sample(sorted(open_vars), 2)
        join = (x, read, y, read)
        kept = {entity_id for entity_id in store if rng.random() < 0.7}
        filtered = rng.random() < 0.5
        pools = index_pools(store, open_vars)
        if filtered:
            pools["b"] = [entity_id for entity_id in pools["b"] if entity_id in kept]
        want = [
            env
            for env in _instantiate_oracle(store, open_vars)
            if value_eq(read(env[x]), read(env[y]))
            and (not filtered or env["b"] in kept)
        ]
        keyed = _keyed_rooms(store, open_vars, rng.choice([[x], [y], [x, y]]))
        assert instantiate({}, pools, join, keyed) == want


def test_instantiate_join_must_link_two_distinct_open_variables():
    store = {"a1": _entity("A", {"room": 1})}
    bound, pools = {"z": "a1"}, index_pools(store, {"x": "A", "y": "A"})
    read = _room(store)
    for x, y in (("x", "x"), ("x", "z"), ("x", "w")):
        with pytest.raises(ValueError):
            instantiate(bound, pools, join=(x, read, y, read))
    # a join with neither side keyed
    with pytest.raises(ValueError):
        instantiate(bound, pools, join=("x", read, "y", read))
