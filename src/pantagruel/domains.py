"""The semantic algebra: values, interfaces, entities, stores, references.

Everything here is a plain immutable value; updates build new entities
rather than mutating.  The one cache is a dual store's grouping of its
current store by interface, made once and shared by every rule that reads
the pair.  Reads are total (a miss yields ``UNDEF``), and merges
are union-shaped with equal-value overlap tolerated.  Stores are finite
maps: their key order carries no meaning and nothing here sorts them.  Order
is fixed only where it can be observed: :meth:`DualStore.ids` lists an
interface's ids sorted, :func:`instantiate` enumerates bindings of sorted
pools lexicographically, :func:`store_join` reports the least conflict,
and the serializer sorts what it prints.  Nothing here iterates a set, so
no result depends on the string hash seed.
"""

from __future__ import annotations

import functools
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, Sequence, Union

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
    if a is UNDEF or b is UNDEF:
        return False
    return type(a) is type(b) and a == b


def value_neq(a: Value, b: Value) -> bool:
    """Inequality as used by ``value changed``: UNDEF is one ordinary,
    distinct value, so undef→undef is *no* change while undef→defined is."""
    if a is UNDEF or b is UNDEF:
        return not (a is UNDEF and b is UNDEF)
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


def _merge_maps(
    entity_id: str, left: dict[str, Value], right: dict[str, Value]
) -> dict[str, Value]:
    clashes = [
        key for key, value in right.items()
        if key in left and value_neq(left[key], value)
    ]
    if clashes:
        key = min(clashes)
        raise ConflictError(entity_id, key, left[key], right[key])
    return {**left, **right}


def combine_entities(
    entity_id: str, a: Entity | None, b: Entity | None
) -> Entity | None:
    """Union-merge two partial views of one entity.

    Absent sides pass through; keys present on both sides must carry equal
    values, otherwise the partial states interfere and a
    :class:`ConflictError` is raised: for a differing interface first, then
    for the least clashing attribute, then for the least clashing event.
    """
    if a is None:
        return b
    if b is None:
        return a
    if a.interface_id != b.interface_id:
        raise ConflictError(entity_id, "interface", a.interface_id, b.interface_id)
    return Entity(
        a.interface_id,
        _merge_maps(entity_id, a.attributes, b.attributes),
        _merge_maps(entity_id, a.events, b.events),
    )


def store_join(s1: Store, s2: Store) -> Store:
    """Pointwise :func:`combine_entities` over the union of both key sets.

    When several entities clash, the one with the least id is reported, so
    the error does not depend on either store's key order.
    """
    out = dict(s1)
    clashes: list[ConflictError] = []
    for entity_id, entity in s2.items():
        try:
            out[entity_id] = combine_entities(entity_id, s1.get(entity_id), entity)
        except ConflictError as exc:
            clashes.append(exc)
    if clashes:
        raise min(clashes, key=lambda exc: exc.entity_id)
    return out


def store_join_all(stores: Iterable[Store]) -> Store:
    """Left fold of :func:`store_join`; order-independent when conflict-free."""
    acc: Store = {}
    for store in stores:
        acc = store_join(acc, store)
    return acc


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


def update_member(
    store: Store,
    entity_id: str,
    attributes: Mapping[str, Value] | None = None,
    events: Mapping[str, Value] | None = None,
    governing: Store | None = None,
) -> Entity:
    """``entity_id``'s entity in ``store`` with the given attributes and
    events overwritten; the caller puts it back into the store it builds.

    Partial effect stores accumulate produced effects only, so an entity
    missing from ``store`` but present in the ``governing`` (current) store
    starts from a skeleton carrying nothing but the new members.  An entity
    the governing store also lacks is an error.  Member maps left untouched
    are shared with the old entity, not copied.
    """
    entity = store.get(entity_id)
    if entity is None:
        if governing is None or entity_id not in governing:
            raise UnknownEntityError(entity_id)
        entity = Entity(governing[entity_id].interface_id, {}, {})
    return Entity(
        entity.interface_id,
        {**entity.attributes, **attributes} if attributes else entity.attributes,
        {**entity.events, **events} if events else entity.events,
    )


# ── Dual stores, references, entity environments ─────────────────


@dataclass(frozen=True)
class DualStore:
    """The ⟨previous, current⟩ store pair rules are evaluated against.

    The pair also groups ``current`` by interface, in one pass the first
    time :meth:`ids` or :meth:`changed` is asked, and keeps the grouping
    and the lists it hands out for every rule that reads the pair: the one
    place a store is grouped by interface.  Neither store is changed once
    the pair has been read (nothing here or in the evaluator does), and
    callers do not change the lists returned.  The cache takes no part in
    construction, equality or repr: those are the two stores'.
    """

    previous: Store
    current: Store
    _sorted: dict[str, list[str]] = field(
        default_factory=dict, init=False, compare=False, repr=False
    )
    _changed: dict[str, list[str]] = field(
        default_factory=dict, init=False, compare=False, repr=False
    )

    @functools.cached_property
    def _groups(self) -> defaultdict[str, list[str]]:
        groups: defaultdict[str, list[str]] = defaultdict(list)
        for entity_id, entity in self.current.items():
            groups[entity.interface_id].append(entity_id)
        return groups

    def ids(self, interface: str) -> list[str]:
        """The sorted ids of ``interface``'s entities in ``current``."""
        ids = self._sorted.get(interface)
        if ids is None:
            ids = self._sorted[interface] = sorted(self._groups.get(interface, ()))
        return ids

    def changed(self, interface: str) -> list[str]:
        """Those of :meth:`ids` whose entity is not the very object
        ``previous`` holds under the same id: changed or deployed since
        ``previous``.  Stores pass every untouched entity on as the same
        object (:class:`Entity`), so this is a superset of the entities
        whose members differ."""
        changed = self._changed.get(interface)
        if changed is None:
            current, previous = self.current, self.previous
            changed = self._changed[interface] = [
                entity_id
                for entity_id in self.ids(interface)
                if previous.get(entity_id) is not current[entity_id]
            ]
        return changed


@dataclass(frozen=True)
class InterfaceRef:
    """The variable still ranges over an interface: not yet instantiated."""

    name: str


@dataclass(frozen=True)
class InstanceRef:
    """The variable is bound to one concrete entity."""

    name: str


Reference = Union[InterfaceRef, InstanceRef]

# Entity environment: rule-scoped variable name → reference.
EnvEntity = dict[str, Reference]


# One side of an equality between two variables: the value it reads from
# the entity a variable is bound to.
Reader = Callable[[str], Value]
# ``(x, read_x, y, read_y)``: a binding survives only if ``read_x`` of its
# ``x`` and ``read_y`` of its ``y`` are equal by :func:`value_eq`.
Join = tuple[str, Reader, str, Reader]


def _join_key(value: Value) -> tuple[type, Value] | None:
    """The hash key of a value on one side of an equality, or None for
    UNDEF, which equals nothing.  The type is part of the key because
    ``1 == True`` in Python while :func:`value_eq` keeps them apart."""
    return None if value is UNDEF else (type(value), value)


def instantiate(
    rho: EnvEntity, pools: Mapping[str, Sequence[str]], join: Join | None = None
) -> list[EnvEntity]:
    """Expand interface-bound variables over their pools of entity ids.

    ``pools`` maps every variable bound to an ``InterfaceRef`` to the
    sorted ids it ranges over; each binding replaces them with an
    ``InstanceRef`` and passes instance bindings through.  The result
    enumerates the cross product of the pools (lexicographic in variable
    name, then entity id) and is empty as soon as one pool is.

    ``join`` is an optional equality between two distinct open variables
    (:data:`Join`; anything else is a ``ValueError``): variables are bound
    in name order, and the later of the two takes its ids from a bucket of
    its pool keyed by the value its partner reads, so the bindings whose
    two sides differ (or read UNDEF) are never built.  The survivors keep
    the order above, so the result is a subsequence of the product.
    """
    open_vars = sorted(v for v, ref in rho.items() if isinstance(ref, InterfaceRef))
    if join is not None and (join[0] == join[2] or not {join[0], join[2]} <= set(open_vars)):
        raise ValueError(f"a join links two distinct open variables, not {join[0]!r} and {join[2]!r}")
    looked_up = None
    if join is not None:
        # the later variable ``x`` is looked up by the value its partner reads
        x, read_x, y, read_y = join
        if x < y:
            x, read_x, y, read_y = y, read_y, x, read_x
        looked_up, at = x, open_vars.index(y)
        buckets: dict[object, list[str]] = {}
        for entity_id in pools[x]:
            key = _join_key(read_x(entity_id))
            if key is not None:
                buckets.setdefault(key, []).append(entity_id)
        partner_keys = {entity_id: _join_key(read_y(entity_id)) for entity_id in pools[y]}
    rows: list[tuple[str, ...]] = [()]
    for var in open_vars:
        if var == looked_up:
            rows = [
                row + (entity_id,)
                for row in rows
                for entity_id in buckets.get(partner_keys[row[at]], ())
            ]
        else:
            pool = pools[var]
            rows = [row + (entity_id,) for row in rows for entity_id in pool]
        if not rows:
            return []
    results: list[EnvEntity] = []
    for row in rows:
        env = dict(rho)
        env.update(zip(open_vars, map(InstanceRef, row)))
        results.append(env)
    return results
