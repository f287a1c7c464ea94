"""The semantic algebra: values, interfaces, entities, stores, bindings.

Everything here is a plain immutable value; updates build new entities
rather than mutating, and an update or a merge that changes no member
returns the very entity it was given.  :func:`fold` is the one merge and
:func:`update_member` the one member update.  The one cache lives in the
:class:`DualStore`, the one object for a ⟨previous, current⟩ pair: the
lists of its current store's ids that rules read, by interface and, for
the attributes body joins read, by value.  One builder lists them in one
pass over the store, called only by the evaluation of a planned rule
block, with every list the block names; reading a list the pair was not
built for is a ``KeyError``.  ``step`` carries the pair's lists from tick
to tick and moves them in place by the ids each tick changed, so an
interface no rule reads is never listed; a pair hands its lists on once,
and lists nothing after.  Reads are total (a miss yields ``UNDEF``), and
merges are union-shaped with equal-value overlap tolerated.  Stores are
finite maps: their key order carries no meaning and nothing here sorts
them.  Order is fixed only where it can be observed: :meth:`DualStore.ids`
lists an interface's ids sorted, :func:`fold` and :func:`store_join`
report the least conflict, and the serializer sorts what it prints.
Nothing here iterates a set, so no result depends on the string hash
seed.

A rule's binding maps each name bound to an entity to that entity's id, a
name it lacks being unbound; ``rule_eval.instantiate`` extends one over
the ids its open variables range over.  A body join is probed by its
rule's generated code, in the buckets :meth:`DualStore.keyed` lists.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from dataclasses import dataclass, field
from typing import Iterable, Mapping, NamedTuple, Sequence, TypeVar, Union

from .ast import TypeTag


class _Undef:
    """The distinct "no value yet" marker; equal only to itself."""

    _instance: "_Undef | None" = None

    def __new__(cls) -> "_Undef":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "undef"


UNDEF = _Undef()

# A runtime value: a nonnegative integer, a truth value, or UNDEF.
Value = Union[int, bool, _Undef]
K = TypeVar("K")


def value_type_matches(value: Value, tag: TypeTag) -> bool:
    if value is UNDEF:
        return True
    if tag is TypeTag.BOOL:
        return type(value) is bool
    return type(value) is int


def value_eq(a: Value, b: Value) -> bool:
    """Equality as used by ``value = X`` tests and filters.

    UNDEF compares unequal to everything, itself included: a test against a
    signal that has never been produced must not hold.  Comparisons across
    Nat/Tr are false rather than an error (static checks make them
    unreachable in checked programs; ``bool`` is deliberately not treated as
    an ``int`` here).
    """
    return a is not UNDEF and type(a) is type(b) and a == b


def value_neq(a: Value, b: Value) -> bool:
    """Inequality as used by ``value changed``: UNDEF is one ordinary,
    distinct value, so undef→undef is *no* change while undef→defined is
    (UNDEF, of a type of its own, is equal only to itself)."""
    return type(a) is not type(b) or a != b


# ── Interfaces and entities ──────────────────────────────────────


@dataclass(frozen=True)
class Interface:
    """Typed member signatures; the three name spaces are kept disjoint
    (checked when the specification is evaluated)."""

    attributes: dict[str, TypeTag]
    events: dict[str, TypeTag]
    actions: dict[str, TypeTag]


EnvInterface = dict[str, Interface]


@dataclass(frozen=True)
class Entity:
    """A named runtime object: its interface, attribute values, and event
    values.  Action-named keys in ``events`` are the implicit events.

    Never changed in place, member maps included: an update builds a new
    entity, and a store passes every entity it does not touch on as the
    same object.  The serializer relies on this to reuse the rendering of
    an entity object it has rendered before."""

    interface_id: str
    attributes: dict[str, Value]
    events: dict[str, Value]


Store = dict[str, Entity]


# ── Errors ───────────────────────────────────────────────────────


class ConflictError(Exception):
    """Two effect sources wrote different values to the same key: the
    noninterference assumption was violated."""

    def __init__(self, entity_id: str, key: str, left: object, right: object):
        self.entity_id = entity_id
        self.key = key
        self.left = left
        self.right = right
        self.tick: int | None = None
        super().__init__(
            f"conflicting values for {entity_id}.{key}: {left!r} vs {right!r}"
        )


class UnknownEntityError(Exception):
    def __init__(self, entity_id: str):
        self.entity_id = entity_id
        super().__init__(f"unknown entity {entity_id!r}")


# ── Store operations ─────────────────────────────────────────────


def fold(into: dict[K, Value], part: Mapping[K, Value]) -> K | None:
    """Join ``part`` into ``into`` in place: a key held on both sides must
    hold equal values (:func:`value_neq`), and ``into`` keeps its own.
    Returns the least clashing key, None if none clashes; ``into`` is then
    part-joined.  The rules' effects and :func:`store_join`'s entities are
    joined with it."""
    clashes = []
    for key, value in part.items():
        held = into.setdefault(key, value)
        if held is not value and value_neq(held, value):
            clashes.append(key)
    return min(clashes) if clashes else None


def _members(entity: Entity) -> dict[tuple[int, str], object]:
    """``entity``'s interface, attributes and events in one map, keyed in
    that order, then by name, for :func:`fold` to report the least clash."""
    members: dict[tuple[int, str], object] = {(0, "interface"): entity.interface_id}
    members.update(((1, key), value) for key, value in entity.attributes.items())
    members.update(((2, key), value) for key, value in entity.events.items())
    return members


def store_join(s1: Store, s2: Store) -> Store:
    """The conflict-checked merge of two stores, as a new store.  An id on
    both sides has its :func:`_members` folded, ``s1`` on the left, and is
    then ``s1``'s entity with ``s2``'s members written
    (:func:`update_member`): that very entity when ``s2`` adds nothing.
    The clash reported is that of the least id, so the error does not
    depend on either store's key order.  Neither store is changed: the
    result starts as ``s1.copy()``, which clones ``s1``'s table even when
    keys were deleted from it, where the ``dict`` constructor would insert
    every key again."""
    out = s1.copy()
    clashes: list[ConflictError] = []
    for entity_id, entity in s2.items():
        present = out.get(entity_id)
        if present is None:
            out[entity_id] = entity
            continue
        left, right = _members(present), _members(entity)
        key = fold(left, right)
        if key is None:
            out[entity_id] = update_member(out, entity_id, entity.attributes, entity.events)
        else:
            clashes.append(ConflictError(entity_id, key[1], left[key], right[key]))
    if clashes:
        raise min(clashes, key=lambda exc: exc.entity_id)
    return out


def access_event(event: str, entity_id: str, store: Store) -> Value:
    entity = store.get(entity_id)
    if entity is None:
        return UNDEF
    return entity.events.get(event, UNDEF)


def access_attribute(attribute: str, entity_id: str, store: Store) -> Value:
    entity = store.get(entity_id)
    if entity is None:
        return UNDEF
    return entity.attributes.get(attribute, UNDEF)


_ABSENT = object()


def _holds_already(members: dict[str, Value], written: Mapping[str, Value]) -> bool:
    """Whether each written member holds already a value of the same type
    that is equal; ``1`` is not ``True``, though Python takes them equal."""
    for key, value in written.items():
        old = members.get(key, _ABSENT)
        if type(old) is not type(value) or old != value:
            return False
    return True


def update_member(
    store: Store,
    entity_id: str,
    attributes: Mapping[str, Value] | None = None,
    events: Mapping[str, Value] | None = None,
) -> Entity:
    """``entity_id``'s entity in ``store`` with the given attributes and
    events overwritten; the caller puts it back into the store it builds.
    An id ``store`` lacks is an :class:`UnknownEntityError`.  Member maps
    left untouched are the old entity's own, and an equal write, where
    every written member already holds the same value
    (:func:`_holds_already`), returns the very entity, so that whatever
    follows object identity sees no change.
    """
    entity = store.get(entity_id)
    if entity is None:
        raise UnknownEntityError(entity_id)
    new_attributes = bool(attributes) and not _holds_already(entity.attributes, attributes)
    new_events = bool(events) and not _holds_already(entity.events, events)
    if not (new_attributes or new_events):
        return entity
    return Entity(
        entity.interface_id,
        {**entity.attributes, **attributes} if new_attributes else entity.attributes,
        {**entity.events, **events} if new_events else entity.events,
    )


# ── Dual stores ──────────────────────────────────────────────────


# A value's hash key on one side of an equality (see :func:`_join_key`).
JoinKey = tuple[type, Value]
# The lists a dual store keeps: per ``(interface, attribute)``, ids by the
# attribute's key; an interface's ids are its one list under attribute and
# key None.
_Lists = dict[tuple[str, Union[str, None]], dict[Union[JoinKey, None], list[str]]]
# Where an id sits in those lists: ``(interface, attribute, key)``.
_Place = tuple[str, Union[str, None], Union[JoinKey, None]]


def _join_key(value: Value) -> JoinKey | None:
    """The hash key of a value on one side of an equality, or None for
    UNDEF, which equals nothing.  The type is part of the key because
    ``1 == True`` in Python while :func:`value_eq` keeps them apart."""
    return None if value is UNDEF else (type(value), value)


def _places_of(entity: Entity | None, kept: Mapping[str, list[str | None]]) -> list[_Place]:
    """The places in a dual store's lists that hold ``entity``'s id: for
    each list ``kept`` names for its interface, the interface's ids
    (attribute None) or the bucket of the key it holds in an attribute
    (none for UNDEF)."""
    if entity is None:
        return []
    interface = entity.interface_id
    places: list[_Place] = []
    for attribute in kept.get(interface, ()):
        if attribute is None:
            places.append((interface, None, None))
        elif (key := _join_key(entity.attributes.get(attribute, UNDEF))) is not None:
            places.append((interface, attribute, key))
    return places


class Keyed(NamedTuple):
    """One joined variable's interface as a dual store lists it: all its
    ids, sorted, and those ids by the key of the attribute the join reads."""

    ids: Sequence[str]
    by_key: Mapping[JoinKey, Sequence[str]]


@dataclass(frozen=True)
class DualStore:
    """The ⟨previous, current⟩ store pair rules are evaluated against,
    with the lists of ``current``'s ids that rules look up.

    A list is an interface's ids, sorted, or, for an attribute a body join
    reads, those ids by the attribute's :func:`_join_key`, sorted in each
    bucket (UNDEF in none).  :meth:`build` lists the ones a rule block's
    plan names (:attr:`~pantagruel.rule_eval.BlockPlan.lists`), in one
    pass over ``current``, and :func:`~pantagruel.rule_eval.eval_plan`
    calls it before any rule reads the pair.  :meth:`ids`, :meth:`keyed`
    and :meth:`changed` only look up: a list the pair was not built for is
    a ``KeyError``.  Every list is kept from then on, so an interface no
    rule reads is never listed.  :meth:`moved` hands the kept lists on to
    a successor pair, once: it moves them in place, and this pair lists
    nothing after, so a read of it is a ``KeyError``, not stale data.
    Neither store is changed once the pair has been read (nothing here or
    in the evaluator does), and callers do not change the lists returned,
    so a list never changes within the tick that read it.

    ``touched`` names ids outside of which every entity of ``current``
    reads each event as it does in ``previous``: ``previous``'s very
    object, or, under an id ``previous`` lacks, an entity whose events are
    all UNDEF.  When it is not known (None, as for a bare pair),
    :meth:`build` finds it in the same pass.  It, the lists and the
    memo of :meth:`changed` take no part in construction, equality or
    repr: those are the two stores'.
    """

    previous: Store
    current: Store
    touched: tuple[str, ...] | None = field(
        default=None, init=False, compare=False, repr=False
    )
    _lists: _Lists = field(default_factory=dict, init=False, compare=False, repr=False)
    _changed: dict[tuple[str, str], list[str]] = field(
        default_factory=dict, init=False, compare=False, repr=False
    )

    def describes(self, previous: Store, current: Store) -> bool:
        """Whether this is the pair of these very two stores."""
        return self.previous is previous and self.current is current

    def build(self, names: Iterable[tuple[str, str | None]]) -> None:
        """List each of ``names``, ``(interface, attribute)`` with None for
        the interface's ids, that the pair lacks, and find ``touched`` if
        it is not known, in one pass over ``current``; no pass if there is
        neither to do."""
        missing = [name for name in dict.fromkeys(names) if name not in self._lists]
        touched: list[str] | None = [] if self.touched is None else None
        if not missing and touched is None:
            return
        current, previous = self.current, self.previous
        grouped: dict[str, list[str]] = {interface: [] for interface, _ in missing}
        for entity_id, entity in current.items():
            ids = grouped.get(entity.interface_id)
            if ids is not None:
                ids.append(entity_id)
            if touched is not None and previous.get(entity_id) is not entity and (
                entity_id in previous
                or any(value is not UNDEF for value in entity.events.values())
            ):
                touched.append(entity_id)
        for ids in grouped.values():
            ids.sort()
        for interface, attribute in missing:
            ids = grouped[interface]
            if attribute is None:
                self._lists[(interface, None)] = {None: ids} if ids else {}
                continue
            buckets = self._lists[(interface, attribute)] = {}
            for entity_id in ids:
                key = _join_key(current[entity_id].attributes.get(attribute, UNDEF))
                if key is not None:
                    buckets.setdefault(key, []).append(entity_id)
        if touched is not None:
            object.__setattr__(self, "touched", tuple(touched))

    def moved(
        self,
        previous: Store,
        current: Store,
        touched: tuple[str, ...],
        ids: Iterable[str],
    ) -> DualStore:
        """The pair ``(previous, current)``, whose current store differs
        from this one's at ``ids``, each named once, and elsewhere at most
        in members no list reads, which are events.  It takes this pair's
        lists over, with each of those ids moved in place from its entity
        here to its entity in ``current`` (None where it is absent), and
        this pair is left with none.  An id whose entity has, on both
        sides, an interface no list is kept for, or none, is passed over
        with no list read; both sides are looked at, since an id can be
        removed and deployed again under another interface."""
        lists = self._lists
        object.__setattr__(self, "_lists", {})
        kept: dict[str, list[str | None]] = {}
        for interface, attribute in lists:
            kept.setdefault(interface, []).append(attribute)
        before = self.current
        for entity_id in ids:
            old, new = before.get(entity_id), current.get(entity_id)
            if old is new or (
                (old is None or old.interface_id not in kept)
                and (new is None or new.interface_id not in kept)
            ):
                continue
            out, into = _places_of(old, kept), _places_of(new, kept)
            for interface, attribute, key in out:
                if (interface, attribute, key) not in into:
                    buckets = lists[(interface, attribute)]
                    bucket = buckets[key]
                    del bucket[bisect_left(bucket, entity_id)]
                    if not bucket:
                        del buckets[key]
            for interface, attribute, key in into:
                if (interface, attribute, key) not in out:
                    insort(lists[(interface, attribute)].setdefault(key, []), entity_id)
        dual = DualStore(previous, current)
        object.__setattr__(dual, "touched", touched)
        object.__setattr__(dual, "_lists", lists)
        return dual

    def ids(self, interface: str) -> list[str]:
        """The sorted ids of ``interface``'s entities in ``current``; a
        ``KeyError`` naming ``(interface, None)`` if the pair was not built
        for it."""
        return self._lists[(interface, None)].get(None, [])

    def keyed(self, interface: str, attribute: str) -> Keyed:
        """``interface``'s ids, all of them and by ``attribute``'s key; a
        ``KeyError`` naming the list the pair was not built for."""
        return Keyed(self.ids(interface), self._lists[(interface, attribute)])

    def changed(self, interface: str, event: str) -> list[str]:
        """Those of ``interface``'s ids whose ``event`` reads differently in
        ``previous`` and ``current`` (:func:`value_neq`, UNDEF where it is
        absent): deployed, or changed since ``previous``.  Only the
        ``touched`` ids can, and of those only the entities that are not
        ``previous``'s very object are read; no list is built, and a pair
        whose ``touched`` is not known yet (:meth:`build` finds it) is a
        ``ValueError``."""
        changed = self._changed.get((interface, event))
        if changed is None:
            if self.touched is None:
                raise ValueError("the pair's touched ids are not known: build it first")
            current, previous = self.current, self.previous
            candidates = sorted(
                entity_id
                for entity_id in self.touched
                if (entity := current.get(entity_id)) is not None
                and entity.interface_id == interface
            )
            changed = self._changed[(interface, event)] = [
                entity_id
                for entity_id in candidates
                if previous.get(entity_id) is not current[entity_id]
                and value_neq(
                    access_event(event, entity_id, previous),
                    access_event(event, entity_id, current),
                )
            ]
        return changed


# A binding: rule-scoped name → the id of the entity it is bound to; a name
# it lacks is unbound.
Binding = dict[str, str]
