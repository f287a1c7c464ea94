"""Deterministic rendering of tick records.

Two formats: ``jsonl`` (one compact JSON object per tick, all keys sorted,
UNDEF as null) and ``text`` (an aligned human-readable block).  This is the
output boundary where the store's order is fixed: entities, their members
and rule bindings are sorted here, since the interpreter keeps stores in
whatever order it built them.  Changes keep their script order, and fired
rules the order in which they fired.  Identical records always render to
identical bytes.

Rendering costs what changed.  Each entity renders to one fragment per
format: in ``jsonl`` its ``"id":{...}`` member of ``entities``, in ``text``
the ``attrs | events`` part of its row (the id and interface columns are
padded per store, since their widths depend on every entity).  A memo per
format maps each id of the last store rendered to the :class:`Entity` object
its fragment was made from; the fragment is reused only for that very
object.  Stores never change an entity in place and pass untouched entities
on as the same objects, so a tick re-renders only the entities it changed.
The ``jsonl`` top level is written by hand in sorted key order, and equals
``json.dumps(payload, sort_keys=True, separators=(",", ":"))`` byte for
byte.
"""

from __future__ import annotations

import json

from .domains import UNDEF, Entity, Store, Value
from .formatter import format_inits, format_value
from .runtime import AttributeUpdate, EventUpdate, ExternalChange, Remove, TickRecord


def _dumps(obj: object) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _value_json(value: Value) -> object:
    return None if value is UNDEF else value


def change_text(change: ExternalChange) -> str:
    """Render a change in script-line syntax."""
    if isinstance(change, EventUpdate):
        return f"event {change.entity}.{change.event} = {format_value(change.value)}"
    if isinstance(change, AttributeUpdate):
        return f"attr {change.entity}.{change.attribute} = {format_value(change.value)}"
    if isinstance(change, Remove):
        return f"remove {change.entity}"
    decl = change.decl
    return f"deploy {decl.name} : {decl.interface} {format_inits(decl.inits)}"


def _change_json(change: ExternalChange) -> dict:
    if isinstance(change, EventUpdate):
        return {
            "kind": "event",
            "entity": change.entity,
            "member": change.event,
            "value": _value_json(change.value),
        }
    if isinstance(change, AttributeUpdate):
        return {
            "kind": "attr",
            "entity": change.entity,
            "member": change.attribute,
            "value": _value_json(change.value),
        }
    if isinstance(change, Remove):
        return {"kind": "remove", "entity": change.entity}
    return {
        "kind": "deploy",
        "entity": change.decl.name,
        "interface": change.decl.interface,
        "inits": {i.attribute: i.value.value for i in change.decl.inits},
    }


def _jsonl_fragment(entity_id: str, entity: Entity) -> str:
    body = {
        "interface": entity.interface_id,
        "attributes": {k: _value_json(v) for k, v in entity.attributes.items()},
        "events": {k: _value_json(v) for k, v in entity.events.items()},
    }
    return json.dumps(entity_id) + ":" + _dumps(body)


def _text_fragment(entity_id: str, entity: Entity) -> str:
    attrs = " ".join(
        f"{k}={format_value(v)}" for k, v in sorted(entity.attributes.items())
    )
    events = " ".join(
        f"{k}={format_value(v)}" for k, v in sorted(entity.events.items())
    )
    return f"{attrs or '-'} | {events or '-'}"


_RENDER = {"jsonl": _jsonl_fragment, "text": _text_fragment}
_INDENT = "  "

# Per format: entity id -> (the Entity, the fragment rendered from it), for
# the entities of the last store rendered in that format.
_memos: dict[str, dict[str, tuple[Entity, str]]] = {"jsonl": {}, "text": {}}


def _fragments(store: Store, fmt: str) -> dict[str, tuple[Entity, str]]:
    """Each entity of ``store`` with its ``fmt`` fragment, in id order,
    reusing the memo's fragment of an id only for the very object it was
    rendered from.  The result becomes the memo."""
    render = _RENDER[fmt]
    memo = _memos[fmt]
    fresh: dict[str, tuple[Entity, str]] = {}
    for entity_id in sorted(store):
        entity = store[entity_id]
        hit = memo.get(entity_id)
        if hit is None or hit[0] is not entity:
            hit = (entity, render(entity_id, entity))
        fresh[entity_id] = hit
    _memos[fmt] = fresh
    return fresh


def store_text(store: Store) -> str:
    """Aligned per-entity lines: id, interface, attributes | events."""
    fragments = _fragments(store, "text")
    if not fragments:
        return f"{_INDENT}(empty store)\n"
    id_width = max(len(entity_id) for entity_id in store)
    iface_width = max(len(entity.interface_id) for entity in store.values())
    lines = [
        f"{_INDENT}{entity_id:<{id_width}}  {entity.interface_id:<{iface_width}}  {fragment}"
        for entity_id, (entity, fragment) in fragments.items()
    ]
    return "\n".join(lines) + "\n"


def serialize_tick(record: TickRecord, fmt: str = "text") -> str:
    """Render one tick record; ``fmt`` is ``text`` or ``jsonl``."""
    if fmt == "jsonl":
        fired = [{"rule": f.label, "binding": f.binding} for f in record.fired]
        entities = ",".join(f for _, f in _fragments(record.snapshot, "jsonl").values())
        return (
            f'{{"changes":{_dumps([_change_json(c) for c in record.changes])}'
            f',"conflict":{_dumps(record.conflict)}'
            f',"entities":{{{entities}}}'
            f',"fired":{_dumps(fired)}'
            f',"tick":{_dumps(record.tick)}}}\n'
        )
    if fmt != "text":
        raise ValueError(f"unknown format {fmt!r}")
    lines = [f"tick {record.tick}"]
    if record.changes:
        lines.append("changes:")
        lines.extend(f"  {change_text(c)}" for c in record.changes)
    else:
        lines.append("changes: (none)")
    if record.fired:
        lines.append("fired:")
        for f in record.fired:
            binding = ", ".join(f"{var}={eid}" for var, eid in sorted(f.binding.items()))
            lines.append(f"  rule {f.label}  {{{binding}}}")
    else:
        lines.append("fired: (none)")
    if record.conflict:
        lines.append(f"conflict: {record.conflict}")
    lines.append("state:")
    return "\n".join(lines) + "\n" + store_text(record.snapshot)
