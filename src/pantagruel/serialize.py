"""Deterministic rendering of tick records.

Two formats: ``jsonl`` (one compact JSON object per tick, all keys sorted,
UNDEF as null) and ``text`` (an aligned human-readable block).  This is the
output boundary where the store's order is fixed: entities, their members
and rule bindings are sorted here, since the interpreter keeps stores in
whatever order it built them.  Changes keep their script order, and fired
rules the order in which they fired.  Identical records always render to
identical bytes.
"""

from __future__ import annotations

import json

from .domains import UNDEF, Store, Value
from .formatter import format_inits, format_value
from .runtime import AttributeUpdate, EventUpdate, ExternalChange, Remove, TickRecord


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


def store_json(store: Store) -> dict:
    return {
        entity_id: {
            "interface": entity.interface_id,
            "attributes": {k: _value_json(v) for k, v in sorted(entity.attributes.items())},
            "events": {k: _value_json(v) for k, v in sorted(entity.events.items())},
        }
        for entity_id, entity in sorted(store.items())
    }


def store_text(store: Store, indent: str = "  ") -> str:
    """Aligned per-entity lines: id, interface, attributes | events."""
    if not store:
        return f"{indent}(empty store)\n"
    id_width = max(len(entity_id) for entity_id in store)
    iface_width = max(len(entity.interface_id) for entity in store.values())
    lines = []
    for entity_id in sorted(store):
        entity = store[entity_id]
        attrs = " ".join(
            f"{k}={format_value(v)}" for k, v in sorted(entity.attributes.items())
        )
        events = " ".join(
            f"{k}={format_value(v)}" for k, v in sorted(entity.events.items())
        )
        lines.append(
            f"{indent}{entity_id:<{id_width}}  {entity.interface_id:<{iface_width}}"
            f"  {attrs or '-'} | {events or '-'}"
        )
    return "\n".join(lines) + "\n"


def serialize_tick(record: TickRecord, fmt: str = "text") -> str:
    """Render one tick record; ``fmt`` is ``text`` or ``jsonl``."""
    if fmt == "jsonl":
        payload = {
            "tick": record.tick,
            "changes": [_change_json(c) for c in record.changes],
            "fired": [
                {"rule": f.label, "binding": dict(sorted(f.binding.items()))}
                for f in record.fired
            ],
            "conflict": record.conflict,
            "entities": store_json(record.snapshot),
        }
        return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"
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
