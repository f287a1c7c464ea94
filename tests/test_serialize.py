"""Tick-record rendering: content, ordering, determinism, injectivity."""

from __future__ import annotations

import dataclasses
import json
import random
import sys
from pathlib import Path

import pytest

from pantagruel import (
    UNDEF,
    AttributeUpdate,
    Deploy,
    EventUpdate,
    ExternalChangeError,
    Remove,
    TriggerMode,
    check_program,
    initial_state,
    parse_program,
    parse_script,
    run_trace,
    serialize_tick,
    step,
)
from pantagruel import serialize
from pantagruel.domains import Entity
from pantagruel.rule_eval import FiredRule
from pantagruel.runtime import TickRecord
from pantagruel.ast import BoolLit, EntityDecl, InitDecl, NumLit
from pantagruel.formatter import format_value
from pantagruel.serialize import store_text

from support import assert_renders_as_fresh, rendered_afresh

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import workloads  # noqa: E402


def _record(snapshot, tick=1, changes=(), fired=(), conflict=None):
    return TickRecord(tick, tuple(changes), tuple(fired), snapshot, conflict)


def test_jsonl_entity_payload(building):
    script = [[EventUpdate("m10", "detected", True)]]
    record = run_trace(building, script, mode=TriggerMode.EDGE)[0]
    payload = json.loads(serialize_tick(record, "jsonl"))
    assert payload["tick"] == 1
    assert payload["entities"]["l10"] == {
        "interface": "Light",
        "attributes": {"room": 101},
        "events": {"switch": True},
    }
    assert payload["entities"]["l20"]["events"] == {"switch": None}  # undef → null
    assert payload["fired"] == [
        {"rule": 1, "binding": {"l": "l10", "m": "m10"}},
        {"rule": 1, "binding": {"l": "l11", "m": "m10"}},
    ]
    assert payload["changes"] == [
        {"kind": "event", "entity": "m10", "member": "detected", "value": True}
    ]
    assert payload["conflict"] is None


def test_jsonl_keys_sorted_and_bytes_deterministic(building):
    record = run_trace(building, [[EventUpdate("m10", "detected", True)]])[0]
    line = serialize_tick(record, "jsonl")
    assert line == serialize_tick(record, "jsonl")
    keys = list(json.loads(line))
    assert keys == sorted(keys)
    entity_keys = list(json.loads(line)["entities"])
    assert entity_keys == sorted(entity_keys)


def test_empty_store_record():
    line = serialize_tick(_record({}), "jsonl")
    assert json.loads(line)["entities"] == {}
    assert "(empty store)" in serialize_tick(_record({}), "text")


def test_text_format_block(building):
    record = run_trace(building, [[EventUpdate("m10", "detected", True)]])[0]
    text = serialize_tick(record, "text")
    lines = text.splitlines()
    assert lines[0] == "tick 1"
    assert "  event m10.detected = true" in lines
    assert "  rule 1  {l=l10, m=m10}" in lines
    assert any(line.strip().startswith("l10") and "switch=true" in line for line in lines)
    assert any("temperature=undef" in line for line in lines)
    # entity rows appear in sorted id order
    ids = [line.split()[0] for line in lines[lines.index("state:") + 1 :]]
    assert ids == sorted(ids)


def test_conflict_is_rendered():
    record = _record({}, conflict="conflicting values for l10.switch: True vs False")
    assert "conflict" in serialize_tick(record, "text")
    assert (
        json.loads(serialize_tick(record, "jsonl"))["conflict"]
        == "conflicting values for l10.switch: True vs False"
    )


def test_store_text_alignment():
    store = {
        "a": Entity("I", {"k": 1}, {}),
        "longname": Entity("Iface", {}, {"e": UNDEF}),
    }
    lines = store_text(store).splitlines()
    assert lines[0].startswith("  a       ")
    assert lines[1].startswith("  longname")


def test_serialization_separates_distinct_snapshots():
    """Injectivity, sampled: distinct random snapshots never render equal."""
    rng = random.Random(5)

    def snapshot():
        return {
            f"e{i}": Entity(
                "I",
                {"a": rng.randint(0, 3)},
                {"x": rng.choice([True, False, UNDEF, rng.randint(0, 3)])},
            )
            for i in range(rng.randint(1, 3))
        }

    seen: dict[str, dict] = {}
    for _ in range(300):
        snap = snapshot()
        for fmt in ("text", "jsonl"):
            rendered = serialize_tick(_record(snap), fmt)
            if rendered in seen:
                assert seen[rendered] == snap
            seen[rendered] = snap


# ── Fragment memo ────────────────────────────────────────────────


def _json_value(value):
    return None if value is UNDEF else value


def _payload(record):
    """The jsonl payload as one dict, the way the trace was first defined."""
    changes = []
    for c in record.changes:
        if isinstance(c, EventUpdate):
            changes.append({"kind": "event", "entity": c.entity, "member": c.event,
                            "value": _json_value(c.value)})
        elif isinstance(c, AttributeUpdate):
            changes.append({"kind": "attr", "entity": c.entity, "member": c.attribute,
                            "value": _json_value(c.value)})
        elif isinstance(c, Remove):
            changes.append({"kind": "remove", "entity": c.entity})
        else:
            changes.append({"kind": "deploy", "entity": c.decl.name,
                            "interface": c.decl.interface,
                            "inits": {i.attribute: i.value.value for i in c.decl.inits}})
    return {
        "tick": record.tick,
        "changes": changes,
        "fired": [{"rule": f.label, "binding": f.binding} for f in record.fired],
        "conflict": record.conflict,
        "entities": {
            entity_id: {
                "interface": e.interface_id,
                "attributes": {k: _json_value(v) for k, v in e.attributes.items()},
                "events": {k: _json_value(v) for k, v in e.events.items()},
            }
            for entity_id, e in record.snapshot.items()
        },
    }


NAMES = ["a", "b", "zz", "m10", "l_2", 'q"x', "é", "a\\b", "\u2603"]
VALUES = [0, 1, 7, 4_000_000_000, True, False, UNDEF]
CONFLICTS = [
    None,
    None,
    "conflicting values for l10.switch: True vs False",
    'conflicting values for "q".k: 1 vs 2',
    "conflit sur é.☃: 1 vs undef",
    "",
]


def _random_members(rng):
    return {rng.choice(NAMES): rng.choice(VALUES) for _ in range(rng.randint(0, 3))}


def _random_record(rng, previous):
    """A random record whose snapshot keeps some of ``previous``'s entity
    objects, rebuilds others under the same id, drops and adds ids."""
    snapshot = {}
    for entity_id, entity in previous.items():
        roll = rng.random()
        if roll < 0.5:
            snapshot[entity_id] = entity
        elif roll < 0.8:
            snapshot[entity_id] = Entity(
                entity.interface_id, _random_members(rng), _random_members(rng)
            )
    for _ in range(rng.randint(0, 3)):
        snapshot[rng.choice(NAMES)] = Entity(
            rng.choice(["I", "Light", "Iface"]), _random_members(rng), _random_members(rng)
        )
    if rng.random() < 0.1:
        snapshot = {}
    changes = []
    for _ in range(rng.randint(0, 3)):
        kind = rng.randrange(4)
        entity_id = rng.choice(NAMES)
        if kind == 0:
            changes.append(EventUpdate(entity_id, rng.choice(NAMES), rng.choice(VALUES)))
        elif kind == 1:
            changes.append(AttributeUpdate(entity_id, rng.choice(NAMES), rng.choice(VALUES)))
        elif kind == 2:
            changes.append(Remove(entity_id))
        else:
            inits = tuple(
                InitDecl(rng.choice(NAMES), rng.choice([NumLit(3), BoolLit(False)]))
                for _ in range(rng.randint(0, 2))
            )
            changes.append(Deploy(EntityDecl(entity_id, rng.choice(NAMES), inits)))
    fired = [
        FiredRule(rng.randint(0, 12), {rng.choice(NAMES): rng.choice(NAMES)
                                       for _ in range(rng.randint(0, 3))})
        for _ in range(rng.choice([0, 0, 1, 3]))
    ]
    return _record(
        snapshot, rng.randint(0, 10**6), changes, fired, rng.choice(CONFLICTS)
    )


def test_jsonl_line_equals_the_sorted_compact_dump_of_the_payload():
    rng = random.Random(20111)
    snapshot = {}
    for _ in range(300):
        record = _random_record(rng, snapshot)
        snapshot = record.snapshot
        expected = json.dumps(_payload(record), sort_keys=True, separators=(",", ":"))
        assert serialize_tick(record, "jsonl") == expected + "\n"


# member keys a template must escape: a %, a quote, a backslash and a
# non-ASCII letter
SHAPE_KEYS = ["a", "b%c", 'q"x', "a\\b", "é", "z"]
SHAPE_VALUES = [0, 1, True, False, UNDEF, 2**70]


def _shaped(rng, interface, attributes, events):
    """An entity with that many attributes and events, keys drawn from
    ``SHAPE_KEYS`` and put in unsorted."""
    return Entity(
        interface,
        {k: rng.choice(SHAPE_VALUES) for k in rng.sample(SHAPE_KEYS, attributes)},
        {k: rng.choice(SHAPE_VALUES) for k in rng.sample(SHAPE_KEYS, events)},
    )


@pytest.mark.parametrize("fmt", ["jsonl", "text"])
def test_every_shape_renders_its_values_under_their_sorted_keys(fmt):
    """Entities with 0, 1 and 3 attributes and 0, 1 and 3 events, rebuilt
    with new values from tick to tick, so one shape's template and readers
    serve many entities: each ``jsonl`` line is the sorted compact dump of
    its payload, and each ``text`` state block the memo-free rows."""
    rng = random.Random(20_129)
    counts = (0, 1, 3)
    snapshot = {}
    for tick in range(60):
        snapshot = dict(snapshot)
        for attributes in counts:
            for events in counts:
                interface = f"I{attributes}{events}%é"
                for n in range(3):
                    entity_id = f"e{attributes}{events}{n}"
                    if entity_id not in snapshot or rng.random() < 0.4:
                        snapshot[entity_id] = _shaped(rng, interface, attributes, events)
        record = _record(snapshot, tick)
        if fmt == "jsonl":
            expected = json.dumps(_payload(record), sort_keys=True, separators=(",", ":"))
            assert serialize_tick(record, fmt) == expected + "\n"
        else:
            assert serialize_tick(record, fmt).endswith("\nstate:\n" + _state_rows(snapshot))


@pytest.mark.parametrize("fmt", ["jsonl", "text"])
def test_an_entity_rebuilt_under_the_same_id_renders_fresh(fmt):
    ids = [f"e{i:02}" for i in range(40)]
    for value in range(100):
        record = _record({i: Entity("I", {"k": value}, {"e": value % 2 == 0}) for i in ids})
        lines = serialize_tick(record, fmt)
        del record  # only the memo may still hold the entities
        expected = f'"k":{value}' if fmt == "jsonl" else f"k={value} | "
        assert lines.count(expected) == len(ids)


@pytest.mark.parametrize("fmt", ["jsonl", "text"])
def test_a_removed_then_redeployed_id_renders_fresh_and_the_memo_follows_the_store(fmt):
    b = Entity("I", {"k": 0}, {})
    stores = [
        {"a": Entity("I", {"k": 1}, {}), "b": b},
        {"b": b},
        {"a": Entity("I", {"k": 2}, {}), "b": b},
        {},
        {"a": Entity("I", {"k": 3}, {})},
    ]
    for store in stores:
        line = serialize_tick(_record(store), fmt)
        assert line == serialize_tick(_record(dict(store)), fmt)
        assert serialize._memos[fmt].ids == sorted(store)
        if "a" in store:
            k = store["a"].attributes["k"]
            assert (f'"a":{{"attributes":{{"k":{k}}}' if fmt == "jsonl" else f"k={k} | ") in line


def test_one_entity_object_under_two_ids_renders_each_id():
    shared = Entity("I", {"k": 1}, {})
    for fmt in ("jsonl", "text"):
        serialize_tick(_record({"a": shared}), fmt)
    line = serialize_tick(_record({"a": shared, "b": shared}), "jsonl")
    assert line.count('{"attributes":{"k":1}') == 2
    assert list(json.loads(line)["entities"]) == ["a", "b"]
    text = serialize_tick(_record({"a": shared, "b": shared}), "text")
    assert [row.split()[0] for row in text.splitlines()[-2:]] == ["a", "b"]


@pytest.mark.parametrize("fmt", ["jsonl", "text"])
def test_interleaved_runs_render_as_each_does_alone(building, fmt):
    first = [
        [EventUpdate("m10", "detected", True)],
        [EventUpdate("thermo", "temperature", 30)],
        [EventUpdate("m10", "detected", False)],
        [],
    ]
    second = [
        [EventUpdate("m20", "detected", True), EventUpdate("thermo", "temperature", 31)],
        [],
        [EventUpdate("m10", "detected", True)],
        [EventUpdate("thermo", "temperature", 29)],
    ]
    runs = [run_trace(building, script) for script in (first, second)]
    alone = [[serialize_tick(r, fmt) for r in records] for records in runs]
    together = [[], []]
    for pair in zip(*runs):
        for index, record in enumerate(pair):
            together[index].append(serialize_tick(record, fmt))
    assert together == alone
    assert alone[0] != alone[1]
    # and each tick shows its own store, as rendered without a memo
    for records, rendered in zip(runs, alone):
        for record, line in zip(records, rendered):
            if fmt == "jsonl":
                assert json.loads(line) == json.loads(json.dumps(_payload(record)))
            else:
                assert line.endswith(_state_rows(record.snapshot))


def _state_rows(store):
    """The text state block, rendered entity by entity without a memo."""
    id_width = max(len(entity_id) for entity_id in store)
    iface_width = max(len(e.interface_id) for e in store.values())
    rows = []
    for entity_id in sorted(store):
        e = store[entity_id]
        attrs = " ".join(f"{k}={format_value(v)}" for k, v in sorted(e.attributes.items()))
        events = " ".join(f"{k}={format_value(v)}" for k, v in sorted(e.events.items()))
        rows.append(f"  {entity_id:<{id_width}}  {e.interface_id:<{iface_width}}"
                    f"  {attrs or '-'} | {events or '-'}\n")
    return "".join(rows)


# ── The memo's delta ─────────────────────────────────────────────


def test_text_state_block_equals_the_memo_free_rows_as_widths_move():
    rng = random.Random(40213)
    snapshot = {}
    for step in range(300):
        record = _random_record(rng, snapshot)
        snapshot = dict(record.snapshot)
        if step % 25 == 5:  # an id longer than any other
            snapshot["a_long_entity_id"] = Entity("I", {"k": step}, {})
        elif step % 25 == 6 and snapshot:  # remove the entity with the longest id
            del snapshot[max(sorted(snapshot), key=len)]
        elif step % 25 == 7:  # an interface name longer than any other
            snapshot["zz"] = Entity("ALongInterfaceName", {}, {"e": True})
        record = _record(snapshot, record.tick, record.changes, record.fired, record.conflict)
        expected = _state_rows(snapshot) if snapshot else "  (empty store)\n"
        assert serialize_tick(record, "text").endswith("\nstate:\n" + expected)


def _spy_pieces(monkeypatch, fmt, calls, fail_at=None):
    """Record the id of every entity the ``fmt`` memo renders a piece
    for; raise KeyboardInterrupt when it renders ``fail_at``."""
    memo = type(serialize._memos[fmt])
    render = memo.piece

    def counted(self, entity_id, entity):
        if entity_id == fail_at:
            raise KeyboardInterrupt
        calls.append(entity_id)
        return render(self, entity_id, entity)

    monkeypatch.setattr(memo, "piece", counted)


def _entity_row(fmt, entity):
    """One entity's members as rendered in ``fmt``, without a memo."""
    if fmt == "jsonl":
        return json.dumps(_payload(_record({"e": entity}))["entities"]["e"], sort_keys=True)
    attrs = " ".join(f"{k}={format_value(v)}" for k, v in sorted(entity.attributes.items()))
    events = " ".join(f"{k}={format_value(v)}" for k, v in sorted(entity.events.items()))
    return f"{entity.interface_id} {attrs or '-'} | {events or '-'}"


@pytest.mark.parametrize("fmt", ["jsonl", "text"])
def test_a_tick_renders_only_the_entities_it_changed(monkeypatch, fmt):
    calls = []
    _spy_pieces(monkeypatch, fmt, calls)
    store = {f"e{i:04}": Entity("Meter", {"zone": i % 4}, {"reading": UNDEF}) for i in range(2_500)}
    serialize_tick(_record(store), fmt)

    rebuilt = [f"e{i:04}" for i in range(3, 2_500, 97)]
    changed = dict(store)
    for entity_id in rebuilt:
        changed[entity_id] = Entity("Meter", {"zone": 9}, {"reading": 5})
    del changed["e0007"]
    changed["e1234a"] = Entity("Meter", {"zone": 1}, {"reading": True})

    for record, renders in ((_record(changed), len(rebuilt) + 1), (_record(dict(changed)), 0)):
        calls.clear()
        line = serialize_tick(record, fmt)
        assert len(calls) == renders
        if fmt == "jsonl":
            assert line == json.dumps(_payload(record), sort_keys=True, separators=(",", ":")) + "\n"
        else:
            assert line.endswith("\nstate:\n" + _state_rows(record.snapshot))


def test_a_level_dense_pass_renders_only_the_rows_whose_text_changes(monkeypatch):
    """On the benchmark's level-dense workload about 97 bindings fire per
    tick, most of them writing back what their entity holds.  An equal
    write keeps its object, so from the second tick on the memo renders
    exactly the entities whose row differs from the tick before."""
    wl = workloads.WORKLOADS["level-dense"](0)
    calls = []
    _spy_pieces(monkeypatch, wl.fmt, calls)
    checked = check_program(parse_program(wl.program))
    state = initial_state(checked.initial_store)
    rows = None
    renders = []
    for changes in parse_script(wl.script):
        state, record = step(state, changes, checked.rules, checked.env, TriggerMode(wl.mode))
        calls.clear()
        serialize_tick(record, wl.fmt)
        now = {entity_id: _entity_row(wl.fmt, entity) for entity_id, entity in record.snapshot.items()}
        if rows is not None:
            assert sorted(calls) == sorted(k for k, row in now.items() if rows.get(k) != row)
            renders.append(len(calls))
        rows = now
    assert len(renders) > 100 and 0 < sum(renders) < 50 * len(renders)


def test_hand_written_jsonl_escapes_strings_and_keeps_bool_apart_from_int():
    odd = ["a\nb", "n\x00l", "d\x7fl", 'q"t', "l\u2028s", "plain"]
    stores = [
        {odd[i]: Entity(odd[-1 - i], {odd[i]: True, "n": 1}, {odd[-1 - i]: False, "z": 0})
         for i in range(len(odd))},
        {odd[i]: Entity(odd[-1 - i], {odd[i]: 1, "n": True}, {odd[-1 - i]: 0, "z": False})
         for i in range(len(odd))},
        {odd[i]: Entity(odd[i], {odd[i]: UNDEF}, {"e": UNDEF}) for i in range(len(odd))},
    ]
    changes = [
        EventUpdate(odd[0], odd[1], True),
        EventUpdate(odd[2], odd[3], 1),
        AttributeUpdate(odd[4], odd[0], False),
        AttributeUpdate(odd[3], odd[2], 0),
        EventUpdate(odd[1], "e", UNDEF),
        Remove(odd[3]),
        Deploy(EntityDecl(odd[4], odd[2], (
            InitDecl(odd[0], NumLit(1)), InitDecl("k", BoolLit(True)), InitDecl(odd[0], NumLit(2)),
        ))),
    ]
    fired = [FiredRule(3, {odd[0]: odd[1], "m": odd[4]}), FiredRule(1, {})]
    for tick, store in enumerate(stores):
        record = _record(store, tick, changes, fired, odd[tick])
        expected = json.dumps(_payload(record), sort_keys=True, separators=(",", ":"))
        assert serialize_tick(record, "jsonl") == expected + "\n"


@pytest.mark.parametrize("fmt", ["jsonl", "text"])
def test_a_render_that_raises_leaves_no_stale_piece(monkeypatch, fmt):
    old = {f"e{i}": Entity("I", {"k": 0}, {}) for i in range(5)}
    serialize_tick(_record(old), fmt)
    new = {**{f"e{i}": Entity("I", {"k": 1}, {}) for i in range(5)}, "a_longer_id": Entity("I", {}, {})}

    with monkeypatch.context() as patch:
        _spy_pieces(patch, fmt, [], fail_at="e3")
        with pytest.raises(KeyboardInterrupt):
            serialize_tick(_record(new), fmt)
    line = serialize_tick(_record(new), fmt)
    if fmt == "jsonl":
        assert line == json.dumps(_payload(_record(new)), sort_keys=True, separators=(",", ":")) + "\n"
    else:
        assert line.endswith("\nstate:\n" + _state_rows(new))


def _memo_free(record, fmt):
    if fmt == "jsonl":
        return json.dumps(_payload(record), sort_keys=True, separators=(",", ":")) + "\n"
    return "\nstate:\n" + (_state_rows(record.snapshot) if record.snapshot else "  (empty store)\n")


@pytest.mark.parametrize("fmt", ["jsonl", "text"])
def test_new_ids_render_wherever_the_store_holds_them(fmt):
    """Deploying appends an entity, so new ids are most often the store's
    last keys; in a store built by hand they can come first, or between
    kept ids, with the last key one the memo already holds."""
    kept = {name: Entity("I", {"k": k}, {}) for k, name in enumerate(["b", "d", "f"])}
    stores = [
        kept,
        {**kept, "g": Entity("I", {"k": 7}, {}), "a": Entity("Light", {}, {"e": 1})},
        {"a0": Entity("I", {}, {}), **kept},
        {"b": kept["b"], "c": Entity("I", {"k": True}, {}), "f": kept["f"]},
        {"e": Entity("I", {}, {}), "b": kept["b"], "cc": Entity("I", {"k": UNDEF}, {}), "f": kept["f"]},
        {**kept, "zzz": Entity("I", {}, {})},
        {},
    ]
    for tick, store in enumerate(stores * 2):
        record = _record(store, tick)
        # the jsonl expectation is the whole line, the text one the state block
        assert serialize_tick(record, fmt).endswith(_memo_free(record, fmt))
        assert serialize._memos[fmt].ids == sorted(store)


# ── Rendering by lineage ─────────────────────────────────────────

DEMOS = Path(__file__).resolve().parent.parent / "demos"


def _steps(checked, ticks, mode):
    """Each record of a run, strict about conflicts."""
    state = initial_state(checked.initial_store)
    for changes in ticks:
        state, record = step(state, changes, checked.rules, checked.env, mode)
        yield record


@pytest.mark.parametrize("mode", list(TriggerMode))
@pytest.mark.parametrize("fmt", ["jsonl", "text"])
@pytest.mark.parametrize("script", ["trace.evs", "deployment.evs", "churn.evs"])
def test_every_demo_tick_renders_by_lineage_as_a_fresh_memo_does(script, fmt, mode):
    checked = check_program(parse_program((DEMOS / "building.ptg").read_text()))
    ticks = parse_script((DEMOS / script).read_text())
    # the tick-0 record first, as --emit-initial writes it, so that the
    # first tick is stepped from the store the memo last rendered
    serialize_tick(TickRecord(0, (), (), checked.initial_store), fmt)
    assert_renders_as_fresh(_steps(checked, ticks, mode), fmt)


@pytest.mark.parametrize("mode", list(TriggerMode))
@pytest.mark.parametrize("seed", [0, 39])
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_every_benchmark_tick_renders_by_lineage_as_a_fresh_memo_does(name, seed, mode):
    wl = workloads.WORKLOADS[name](seed)
    checked = check_program(parse_program(wl.program))
    records = list(_steps(checked, parse_script(wl.script), mode))
    for fmt in ("jsonl", "text"):
        assert_renders_as_fresh(records, fmt)


@pytest.mark.parametrize("fmt", ["jsonl", "text"])
def test_a_record_rendered_out_of_order_renders_its_own_store(building, fmt):
    script = [
        [EventUpdate("m10", "detected", True)],
        [EventUpdate("thermo", "temperature", 30), Remove("l11")],
        [EventUpdate("m10", "detected", False)],
        [Deploy(EntityDecl("l11", "Light", (InitDecl("room", NumLit(101)),)))],
        [EventUpdate("m10", "detected", True)],
    ]
    records = list(_steps(building, script, TriggerMode.EDGE))
    # records[3] comes first while its base, records[2]'s snapshot, is not
    # the store last rendered, and again right after records[2]
    for index in (0, 1, 3, 2, 3, 4, 0, 4):
        record = records[index]
        assert serialize_tick(record, fmt) == rendered_afresh(record, fmt)
        assert serialize._memos[fmt].ids == sorted(record.snapshot)


@pytest.mark.parametrize("fmt", ["jsonl", "text"])
def test_a_refused_tick_between_two_records_leaves_the_lineage_whole(building, fmt):
    rules, env, mode = building.rules, building.env, TriggerMode.EDGE
    state = initial_state(building.initial_store)
    state, first = step(state, [EventUpdate("m10", "detected", True)], rules, env, mode)
    serialize_tick(first, fmt)
    with pytest.raises(ExternalChangeError):
        step(state, [EventUpdate("ghost", "detected", True)], rules, env, mode)
    state, second = step(state, [EventUpdate("thermo", "temperature", 30)], rules, env, mode)
    assert second.base is first.snapshot
    assert serialize_tick(second, fmt) == rendered_afresh(second, fmt)


@pytest.mark.parametrize("fmt", ["jsonl", "text"])
def test_ids_named_twice_in_a_tick_go_into_the_memo_once(building, fmt, monkeypatch):
    light = EntityDecl("l30", "Light", (InitDecl("room", NumLit(101)),))
    script = [
        [EventUpdate("m10", "detected", False)],
        # l30 is deployed and switched on by rule 1 in the same tick, so it
        # is both a changed id and an effect id
        [Deploy(light), EventUpdate("m10", "detected", True)],
        # l30 is removed and deployed again while its switch resets
        [Remove("l30"), Deploy(light), EventUpdate("m10", "detected", False)],
        [Remove("l30"), Deploy(light)],
    ]
    records = list(_steps(building, script, TriggerMode.EDGE))
    assert records[1].touched.count("l30") == 2
    assert "l30" in records[2].touched
    assert records[1].snapshot["l30"].events["switch"] is True
    rendered = []
    _spy_pieces(monkeypatch, fmt, rendered)
    for record in records:
        rendered.clear()
        line = serialize_tick(record, fmt)
        assert rendered.count("l30") <= 1
        assert serialize._memos[fmt].ids == sorted(record.snapshot)
        assert line == rendered_afresh(record, fmt)


def test_a_steady_churn_wide_tick_looks_up_only_its_touched_ids():
    wl = workloads.WORKLOADS["churn-wide"](0)
    checked = check_program(parse_program(wl.program))
    records = _steps(checked, parse_script(wl.script), TriggerMode(wl.mode))
    for _ in range(5):
        serialize_tick(next(records), wl.fmt)
    record = next(records)

    looked_up = []

    class Spied(dict):
        def get(self, key, default=None):
            looked_up.append(key)
            return super().get(key, default)

    spied = dataclasses.replace(record, snapshot=Spied(record.snapshot))
    assert spied.base is record.base and spied.touched is record.touched
    line = serialize_tick(spied, wl.fmt)
    assert line == rendered_afresh(record, wl.fmt)
    assert set(looked_up) == set(record.touched)
    assert len(looked_up) <= 2 * len(record.touched) < len(record.snapshot) // 10
