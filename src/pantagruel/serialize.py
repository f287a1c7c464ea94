"""Deterministic rendering of tick records.

Two formats: ``jsonl`` (one compact JSON object per tick, all keys sorted,
UNDEF as null) and ``text`` (an aligned human-readable block).  This is the
output boundary where the store's order is fixed: entities, their members
and rule bindings are sorted here, since the interpreter keeps stores in
whatever order it built them.  Changes keep their script order, and fired
rules the order in which they fired.  Identical records always render to
identical bytes.

Rendering costs what changed.  Per format, a memo keeps the last store it
rendered as three parallel lists in id order: the sorted ids, the
:class:`Entity` objects, and each entity's finished piece -- in ``jsonl``
its ``"id":{...}`` member of ``entities``, in ``text`` its whole padded
row.  Stores never change an entity in place and pass untouched entities
on as the same objects, so a store's delta against the memo is found by
object identity: every memo id is looked up in the new store and the
objects are compared with ``is``.  A removed id looks up as ``None``.  New
ids are looked for only when the counts say there are some: first among
the store's last keys, where deploying appends them, and only if one of
those is in the memo, as the store's keys less the memo's.  Ids go in and out with ``bisect``, and only the changed
positions are rendered again.  ``text`` keeps the lengths of each column
as counts and re-pads every row only when a column's width moves.  So the
only per-tick work over the whole store is that identity pass, at C speed,
and the final join.

The ``jsonl`` line is written by hand in sorted key order, with strings
escaped by the encoder ``json.dumps`` uses, and equals
``json.dumps(payload, sort_keys=True, separators=(",", ":"))`` byte for
byte.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from itertools import compress, islice
from json.encoder import encode_basestring_ascii as _string
from operator import is_not
from typing import Any, Callable

from .domains import UNDEF, Entity, Store, Value, in_sorted
from .formatter import format_inits, format_value
from .runtime import AttributeUpdate, EventUpdate, ExternalChange, Remove, TickRecord

_INDENT = "  "


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


# ── jsonl, by hand ───────────────────────────────────────────────


def _value(value: Value) -> str:
    if value is UNDEF:
        return "null"
    if type(value) is bool:
        return "true" if value else "false"
    return int.__repr__(value)


def _object(members: dict[str, Any], write: Callable[[Any], str] = _value) -> str:
    """A map with string keys as a JSON object, keys sorted."""
    body = ",".join([_string(k) + ":" + write(v) for k, v in sorted(members.items())])
    return "{" + body + "}"


def _change_json(change: ExternalChange) -> str:
    if isinstance(change, EventUpdate):
        kind, member, value = "event", change.event, change.value
    elif isinstance(change, AttributeUpdate):
        kind, member, value = "attr", change.attribute, change.value
    elif isinstance(change, Remove):
        return f'{{"entity":{_string(change.entity)},"kind":"remove"}}'
    else:
        decl = change.decl
        inits = _object({i.attribute: i.value.value for i in decl.inits})
        return (
            f'{{"entity":{_string(decl.name)},"inits":{inits}'
            f',"interface":{_string(decl.interface)},"kind":"deploy"}}'
        )
    return (
        f'{{"entity":{_string(change.entity)},"kind":"{kind}"'
        f',"member":{_string(member)},"value":{_value(value)}}}'
    )


def _fired_json(label: int, binding: dict[str, str]) -> str:
    return f'{{"binding":{_object(binding, _string)},"rule":{int.__repr__(label)}}}'


def _jsonl_fragment(entity_id: str, entity: Entity) -> str:
    return (
        f'{_string(entity_id)}:{{"attributes":{_object(entity.attributes)}'
        f',"events":{_object(entity.events)},"interface":{_string(entity.interface_id)}}}'
    )


def _text_fragment(entity_id: str, entity: Entity) -> str:
    attrs = " ".join(
        f"{k}={format_value(v)}" for k, v in sorted(entity.attributes.items())
    )
    events = " ".join(
        f"{k}={format_value(v)}" for k, v in sorted(entity.events.items())
    )
    return f"{attrs or '-'} | {events or '-'}"


# ── The memo ─────────────────────────────────────────────────────


class _Memo:
    """The last store rendered in ``jsonl``: its ids in sorted order, the
    entity object under each, and each entity's ``"id":{...}`` member."""

    def __init__(self) -> None:
        self.ids: list[str] = []
        self.entities: list[Entity] = []
        self.pieces: list[str] = []

    def piece(self, entity_id: str, entity: Entity) -> str:
        return _jsonl_fragment(entity_id, entity)

    def resize(
        self, changed: list[int], now: list[Entity | None], added: list[str], store: Store
    ) -> None:
        """Called before any piece is rendered again, with the positions
        that change, the store's entity at each position (``None`` when
        removed) and the ids that come in."""

    def _added(self, store: Store, count: int) -> list[str]:
        """The ``count`` keys of ``store`` the memo lacks, sorted.
        ``apply_external`` appends deployed entities to the store it
        copies, so they are most often its last keys; those are checked
        first, and the whole key set is differenced only when one of them
        is in the memo.  (The gone ids are not keys of the store, so they
        need not leave first.)"""
        if count <= 0:
            return []
        ids = self.ids
        last = list(islice(reversed(store), count))
        if any(in_sorted(ids, entity_id) for entity_id in last):
            return sorted(store.keys() - ids)
        return sorted(last)

    def render(self, store: Store) -> list[str]:
        """Bring the memo to ``store``; return the pieces in id order."""
        ids, entities, pieces = self.ids, self.entities, self.pieces
        now = list(map(store.get, ids))  # None where an id was removed
        changed = list(compress(range(len(ids)), map(is_not, now, entities)))
        gone = [i for i in changed if now[i] is None]
        added = self._added(store, len(store) - len(ids) + len(gone))
        self.resize(changed, now, added, store)
        for i in changed:
            entity = now[i]
            if entity is not None:
                entities[i] = entity
                pieces[i] = self.piece(ids[i], entity)
        for i in reversed(gone):
            del ids[i], entities[i], pieces[i]
        for entity_id in added:
            i = bisect_left(ids, entity_id)
            entity = store[entity_id]
            ids.insert(i, entity_id)
            entities.insert(i, entity)
            pieces.insert(i, self.piece(entity_id, entity))
        return pieces


class _TextMemo(_Memo):
    """The last store rendered in ``text``; each piece is a whole row,
    padded to the id and interface widths, which it keeps as counts of
    the lengths in each column."""

    def __init__(self) -> None:
        super().__init__()
        self.id_lengths: Counter[int] = Counter()
        self.interface_lengths: Counter[int] = Counter()
        self.widths = (0, 0)

    def _prefix(self, entity_id: str, entity: Entity) -> str:
        id_width, iface_width = self.widths
        return f"{_INDENT}{entity_id:<{id_width}}  {entity.interface_id:<{iface_width}}  "

    def piece(self, entity_id: str, entity: Entity) -> str:
        return self._prefix(entity_id, entity) + _text_fragment(entity_id, entity) + "\n"

    def resize(
        self, changed: list[int], now: list[Entity | None], added: list[str], store: Store
    ) -> None:
        ids, entities = self.ids, self.entities
        id_lengths, interface_lengths = self.id_lengths, self.interface_lengths
        for i in changed:
            old, new = entities[i], now[i]
            if new is None:
                id_lengths[len(ids[i])] -= 1
                interface_lengths[len(old.interface_id)] -= 1
            elif new.interface_id != old.interface_id:
                interface_lengths[len(old.interface_id)] -= 1
                interface_lengths[len(new.interface_id)] += 1
        for entity_id in added:
            id_lengths[len(entity_id)] += 1
            interface_lengths[len(store[entity_id].interface_id)] += 1
        widths = (_widest(self.id_lengths), _widest(self.interface_lengths))
        if widths != self.widths:
            start = len(_INDENT) + sum(self.widths) + 4  # where each row's fragment starts
            self.widths = widths
            self.pieces[:] = [
                self._prefix(entity_id, entity) + row[start:]
                for entity_id, entity, row in zip(self.ids, self.entities, self.pieces)
            ]


def _widest(lengths: Counter[int]) -> int:
    return max((n for n, count in lengths.items() if count), default=0)


# Per format, the last store rendered in that format.
_memos: dict[str, _Memo] = {"jsonl": _Memo(), "text": _TextMemo()}


def _pieces(fmt: str, store: Store) -> list[str]:
    memo = _memos[fmt]
    try:
        return memo.render(store)
    except BaseException:
        _memos[fmt] = type(memo)()  # a half-updated memo would serve stale pieces
        raise


def store_text(store: Store) -> str:
    """Aligned per-entity lines: id, interface, attributes | events."""
    rows = _pieces("text", store)
    return "".join(rows) if rows else f"{_INDENT}(empty store)\n"


def serialize_tick(record: TickRecord, fmt: str = "text") -> str:
    """Render one tick record; ``fmt`` is ``text`` or ``jsonl``."""
    if fmt == "jsonl":
        changes = ",".join([_change_json(c) for c in record.changes])
        conflict = "null" if record.conflict is None else _string(record.conflict)
        entities = ",".join(_pieces("jsonl", record.snapshot))
        fired = ",".join([_fired_json(f.label, f.binding) for f in record.fired])
        return (
            f'{{"changes":[{changes}],"conflict":{conflict},"entities":{{{entities}}}'
            f',"fired":[{fired}],"tick":{int.__repr__(record.tick)}}}\n'
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
