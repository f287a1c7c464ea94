"""Deterministic rendering of tick records.

Two formats: ``jsonl`` (one compact JSON object per tick, all keys sorted,
UNDEF as null) and ``text`` (an aligned human-readable block).  This is the
output boundary where the store's order is fixed: entities, their members
and rule bindings are sorted here, since the interpreter keeps stores in
whatever order it built them.  Changes keep their script order, and fired
rules the order in which they fired.  Identical records always render to
identical bytes.

Rendering costs what changed.  Per format, a memo is the last store it
rendered -- the store object itself -- with its ids in sorted order and,
in that order, each entity's finished piece: in ``jsonl`` its
``"id":{...}`` member of ``entities``, in ``text`` its whole padded row.
Stores never change an entity in place and pass untouched entities on as
the same objects, and a store once rendered is never changed in place
either, so a store's delta against the memo is found by object identity,
at C speed: each visited id is looked up in the new store and in the
memo's, and the two objects are compared with ``is`` (an absent id looks
up as ``None``).

Which ids are visited follows the record's lineage.  A record that
:func:`~pantagruel.runtime.step` made names the store it was stepped from
(``base``) and the ids at which its snapshot can differ from it
(``touched``); when ``base`` is the store the memo last rendered, only
those ids are visited.  Otherwise -- a run's first tick, a record rendered
out of order or built by hand, :func:`store_text` -- every id of both
stores is visited.

Ids go in and out with ``bisect``; a delta that moves more than half the
ids lays the lists out afresh in id order instead.  A moved entity is
rendered from its shape's template -- its interface, attribute keys and
event keys -- compiled once per memo into a ``%``-format string with the
keys already sorted and escaped.  ``text`` keeps the lengths of each
column as counts and re-pads every row only when a column's width moves.
So a tick stepped from the store last rendered costs its touched ids, and
the only work over the whole store is the final join.

The ``jsonl`` line is written by hand in sorted key order, with strings
escaped by the encoder ``json.dumps`` uses, and equals
``json.dumps(payload, sort_keys=True, separators=(",", ":"))`` byte for
byte.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from itertools import compress
from json.encoder import encode_basestring_ascii as _string
from operator import is_not
from typing import Any, Callable, Iterable, Sequence

from .domains import UNDEF, Entity, Store, Value
from .formatter import SPELLING, format_inits, format_value
from .runtime import AttributeUpdate, EventUpdate, ExternalChange, Remove, TickRecord

_INDENT = "  "
# a text row up to its members: the id and the interface, each padded
_ROW_HEAD = f"{_INDENT}%-*s  %-*s  "


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


# A value is an int, or one of the singletons True, False and UNDEF, so
# its JSON spelling is a lookup of its identity, or failing that the int's.
_JSON = {id(True): "true", id(False): "false", id(UNDEF): "null"}


def _value(value: Value) -> str:
    return _JSON.get(id(value)) or int.__repr__(value)


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


# ── The memo ─────────────────────────────────────────────────────


# A compiled shape: the %-format string, then the attribute keys and the
# event keys in the order the string takes their values.
_Template = tuple[str, tuple[str, ...], tuple[str, ...]]


def _percent(text: str) -> str:
    return text.replace("%", "%%")


class _Memo:
    """The last store rendered in ``jsonl``: the store itself, its ids in
    sorted order, each entity's ``"id":{...}`` member of ``entities`` --
    the escaped id, then the rest filled in from the template of the
    entity's shape -- and the templates compiled so far."""

    # a value's spelling by its identity; an int is not in it, and goes
    # through ``%s``
    spelling = _JSON

    def __init__(self) -> None:
        self.store: Store = {}
        self.ids: list[str] = []
        self.pieces: list[str] = []
        # by interface, number of attributes, attribute keys and event keys
        self.templates: dict[tuple[str | int, ...], _Template] = {}

    def head(self, entity_id: str, entity: Entity) -> tuple[Any, ...]:
        """What a template takes before the values: the escaped id."""
        return (_string(entity_id),)

    def compile(self, interface: str, attributes: list[str], events: list[str]) -> str:
        """The piece of an entity with these sorted member keys, as a
        ``%``-format string taking its head, then the values in key order."""
        attrs = ",".join([_percent(_string(k)) + ":%s" for k in attributes])
        evs = ",".join([_percent(_string(k)) + ":%s" for k in events])
        return (
            f'%s:{{"attributes":{{{attrs}}},"events":{{{evs}}}'
            f',"interface":{_percent(_string(interface))}}}'
        )

    def piece(self, entity_id: str, entity: Entity) -> str:
        attributes, events = entity.attributes, entity.events
        shape = (entity.interface_id, len(attributes), *attributes, *events)
        template = self.templates.get(shape)
        if template is None:
            attribute_keys, event_keys = sorted(attributes), sorted(events)
            text = self.compile(entity.interface_id, attribute_keys, event_keys)
            template = self.templates[shape] = (text, tuple(attribute_keys), tuple(event_keys))
        text, attribute_keys, event_keys = template
        values = [*map(attributes.__getitem__, attribute_keys), *map(events.__getitem__, event_keys)]
        spelled = map(self.spelling.get, map(id, values), values)
        return text % (*self.head(entity_id, entity), *spelled)

    def resize(self, moved: Iterable[str], store: Store) -> None:
        """Called before any piece is rendered again, with the ids whose
        entity changes, comes or goes."""

    def render(self, store: Store, ids: Sequence[str] | None = None) -> list[str]:
        """Bring the memo to ``store``; return the pieces in id order.
        ``ids`` are the ids to visit, which must include every id where
        ``store`` and the last store rendered hold different objects; None
        visits every id of both."""
        last, order, pieces = self.store, self.ids, self.pieces
        if ids is None:
            ids = [*last, *store]
        # each id whose object is not the one rendered, once; None where absent
        moved = dict.fromkeys(compress(ids, map(is_not, map(store.get, ids), map(last.get, ids))))
        self.resize(moved, store)
        if len(moved) * 2 > len(order):
            # a wide change, such as a first render: each id in and out by
            # bisect would move the lists' tails once per id, so they are
            # laid out afresh in id order instead
            kept = dict(zip(order, pieces))
            for entity_id in moved:
                entity = store.get(entity_id)
                if entity is not None:
                    kept[entity_id] = self.piece(entity_id, entity)
            order[:] = sorted(store)
            pieces[:] = map(kept.__getitem__, order)
            self.store = store
            return pieces
        for entity_id in moved:
            entity = store.get(entity_id)
            i = bisect_left(order, entity_id)
            if entity is None:
                del order[i], pieces[i]
                continue
            piece = self.piece(entity_id, entity)
            if entity_id in last:
                pieces[i] = piece
            else:
                order.insert(i, entity_id)
                pieces.insert(i, piece)
        self.store = store
        return pieces


class _TextMemo(_Memo):
    """The last store rendered in ``text``; each piece is a whole row,
    padded to the id and interface widths, which it keeps as counts of
    the lengths in each column."""

    spelling = SPELLING

    def __init__(self) -> None:
        super().__init__()
        self.id_lengths: Counter[int] = Counter()
        self.interface_lengths: Counter[int] = Counter()
        self.widths = (0, 0)

    def head(self, entity_id: str, entity: Entity) -> tuple[Any, ...]:
        """The id and the interface, each with the width to pad it to."""
        id_width, iface_width = self.widths
        return (id_width, entity_id, iface_width, entity.interface_id)

    def compile(self, interface: str, attributes: list[str], events: list[str]) -> str:
        attrs = " ".join([_percent(k) + "=%s" for k in attributes])
        evs = " ".join([_percent(k) + "=%s" for k in events])
        return f"{_ROW_HEAD}{attrs or '-'} | {evs or '-'}\n"

    def resize(self, moved: Iterable[str], store: Store) -> None:
        last = self.store
        id_lengths, interface_lengths = self.id_lengths, self.interface_lengths
        for entity_id in moved:
            old, new = last.get(entity_id), store.get(entity_id)
            if old is None:
                id_lengths[len(entity_id)] += 1
                interface_lengths[len(new.interface_id)] += 1
            elif new is None:
                id_lengths[len(entity_id)] -= 1
                interface_lengths[len(old.interface_id)] -= 1
            elif new.interface_id != old.interface_id:
                interface_lengths[len(old.interface_id)] -= 1
                interface_lengths[len(new.interface_id)] += 1
        widths = (_widest(id_lengths), _widest(interface_lengths))
        if widths != self.widths:
            start = len(_INDENT) + sum(self.widths) + 4  # where each row's fragment starts
            self.widths = widths
            self.pieces[:] = [
                _ROW_HEAD % self.head(entity_id, last[entity_id]) + row[start:]
                for entity_id, row in zip(self.ids, self.pieces)
            ]


def _widest(lengths: Counter[int]) -> int:
    return max((n for n, count in lengths.items() if count), default=0)


# Per format, the last store rendered in that format.
_memos: dict[str, _Memo] = {"jsonl": _Memo(), "text": _TextMemo()}


def _pieces(
    fmt: str, store: Store, base: Store | None = None, touched: Sequence[str] | None = None
) -> list[str]:
    """The pieces of ``store`` in ``fmt``.  When ``base`` is the store the
    memo last rendered, only ``touched`` are visited."""
    memo = _memos[fmt]
    try:
        return memo.render(store, touched if base is memo.store else None)
    except BaseException:
        _memos[fmt] = type(memo)()  # a half-updated memo would serve stale pieces
        raise


def _state(head: str, rows: list[str]) -> str:
    """``head``, then the rows of a state block, in one copy."""
    return "".join([head, *rows]) if rows else f"{head}{_INDENT}(empty store)\n"


def store_text(store: Store) -> str:
    """Aligned per-entity lines: id, interface, attributes | events."""
    return _state("", _pieces("text", store))


def serialize_tick(record: TickRecord, fmt: str = "text") -> str:
    """Render one tick record; ``fmt`` is ``text`` or ``jsonl``."""
    if fmt == "jsonl":
        changes = ",".join([_change_json(c) for c in record.changes])
        conflict = "null" if record.conflict is None else _string(record.conflict)
        fired = ",".join([_fired_json(f.label, f.binding) for f in record.fired])
        head = f'{{"changes":[{changes}],"conflict":{conflict},"entities":{{'
        tail = f'}},"fired":[{fired}],"tick":{int.__repr__(record.tick)}}}\n'
        entities = _pieces("jsonl", record.snapshot, record.base, record.touched)
        if not entities:
            return head + tail
        # the line in one copy: head and tail ride on the end members
        line = entities.copy()
        line[0] = head + line[0]
        line[-1] += tail
        return ",".join(line)
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
    rows = _pieces("text", record.snapshot, record.base, record.touched)
    return _state("\n".join(lines) + "\n", rows)
