"""Rule evaluation against a dual store.

A rule's entity environment (:func:`_environment`, which the rule's plan
keeps) is the interface of each open variable, and the binding of the
bare names: a bare name binds itself if it is a current entity, so a
variable of the rule is never taken over by an entity of the same name,
as the checker resolves it; any other stays unbound (its atom or call
stays inert).  A binding maps each name bound to an entity to that
entity's id; a name it lacks is unbound.
:func:`~pantagruel.domains.instantiate` extends it over the matching
entities.  For each binding the rule's condition (what the pool tests
below leave of it) is tested and, if it holds, its body writes the
binding's effects into one flat map of :data:`Effects`, ``(entity,
action)`` to the value written, and no entity is built.  Each binding's
map is folded into the rule's one map, and each rule's into the block's,
with the conflict check of the one merge, :func:`~pantagruel.domains.fold`;
only the block's map becomes a store, once, its entities
taking their interfaces from the current store (:func:`_store_of`).  That
store is all a block produces besides its :class:`FiredRule` labels and
bindings.

Which bindings are built is decided here, and only here.  What that
reads of the rule and the trigger mode alone is the rule's plan: its
environment's open variables and bare names, its condition's conjuncts
sorted against them, each open variable's pool, and the body's equality.
:func:`plan_block` plans a whole block, with the lists the block reads,
and ``step`` keeps that plan for the run, planning again only for other
rules or another mode; :func:`eval_rule` plans its one rule on each call.

A plan holds its rule as code.  :func:`_plan_rule` compiles the rule into
closures once (closure generation, after Feeley and Lapalme, "Using
Closures for Code Generation", 1987), with every event name, member,
literal and the mode bound in them, so no binding's evaluation looks at
the rule's syntax:

* one predicate per open variable on an entity id, its pool tests: each
  one's event filter read against ``previous``, its value test and, in
  EDGE mode, its edge test;
* one predicate for the closed atoms, and one for the conjuncts left to
  whole bindings;
* one writer for the body, and, where the body has the equality below,
  one compiled without the call filters that equality enforces.

On a dual store, a plan gives each open variable its finished pool of
sorted ids, which :func:`~pantagruel.domains.instantiate` only
enumerates.  A pool starts from a list the dual store keeps
(:meth:`~pantagruel.domains.DualStore.ids` and ``changed``), shared with
every rule of the tick.  Which lists a rule block reads is fixed by its
plan (:attr:`BlockPlan.lists`), and :func:`eval_plan`, through which
every evaluation runs, is the one place a pair is listed: it builds
them all before any rule reads the pair, which, carried by ``step``
from tick to tick and moved by the ids each tick changed, holds them
from a run's first tick on.  A list a plan failed to name is a
``KeyError``, never a list built in the middle of a run:

* Each atom of the condition's top-level ``and`` chain (or the lone atom
  a condition is) that reads at most one still-open variable, through its
  declared name, its filter or its ``value = e``, is tested on its own.
  One reading no open variable is tested once, and if false the rule has
  no binding; one reading variable ``v`` keeps in ``v``'s pool only the
  entities it holds for.
* When such an atom on ``v`` itself is ``value changed``, or in EDGE mode
  ``value = <literal>``, ``v``'s pool starts from the entities of its
  interface whose event of the atom reads differently in the two stores
  (``changed``), deployed ones included: on any other, the edge and the
  change tests are false.  Only the entities that are not the previous
  store's very object under their id are read, since a same object reads
  the same value on both sides.  LEVEL mode and ``value = path`` (the
  path's entity may change alone) start from all of the interface's
  entities.
* When every call of the body has a filter linking the same two open
  variables through the same member of each (bare names count, as in
  ``action ack(true) on m with room = l.room``), that is an equality
  between them, read from the current store.  A side read as an attribute
  by one call and as a path (event first, then attribute) by another is
  used only if no entity of its pool carries an event of that name, so
  that both reads agree on every binding built.
  :func:`~pantagruel.domains.instantiate` turns it into a hash lookup
  keyed by ``(type, value)``, UNDEF joining nothing, exactly as
  :func:`value_eq` compares.  A side read as an
  attribute is looked up in the dual store's buckets of that attribute
  (:meth:`~pantagruel.domains.DualStore.keyed`), by each entity of the
  other side's pool, so its own entities are not read at all; every join
  found here has such a side.  Each binding the join builds satisfies
  every call's filter, which compares the same two reads by
  :func:`value_eq`, so it runs the body's writer compiled without them; a
  body whose join is refused runs the one with its filters.

Only the conjuncts not tested on pools (``or`` terms and atoms reading two
open variables, whatever their filters) are left to whole bindings, and
none if there are none; the body's writer runs on every binding built.
This is exact: a binding never built fails a pushed conjunct, or every
call's filter (so no call writes), and would have written no effect and
made no :class:`FiredRule`; the survivors keep their enumeration order,
so the fired list, the fold of the bindings' effects and any reported
conflict are those of the full product.

Every compiled closure reads as the definition does: conditions read
event filters against the *previous* store while action filters read the
*current* one (an asymmetry kept deliberately, as are all other
evaluation orders here); a path reads an event before an attribute;
UNDEF is absent; and :func:`value_eq` is type-strict, so ``1`` is not
``True``.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence, Union

from .ast import (
    ActionCall,
    ActionExpr,
    ActionPar,
    ActionSeq,
    Aggregate,
    BoolLit,
    BoolTest,
    Decl,
    DeclTyped,
    EventAnd,
    EventAtom,
    EventExpr,
    EventOr,
    Expr,
    Filter,
    NumLit,
    Path,
    RuleAst,
    ValueChanged,
    ValueEq,
    operands,
    rule_leaves,
)
from .diagnostics import SourceSpan
from .domains import (
    UNDEF,
    Binding,
    ConflictError,
    DualStore,
    Entity,
    EnvInterface,
    Join,
    Keyed,
    Reader,
    Store,
    Value,
    access_attribute,
    access_event,
    fold,
    instantiate,
    value_eq,
    value_neq,
)


class TriggerMode(enum.Enum):
    """How ``value = X`` reads the dual store: EDGE holds only on the tick
    where equality becomes true (false at t-1, true at t); LEVEL holds on
    every tick where equality holds at t.  ``value changed`` is unaffected.
    """

    EDGE = "edge"
    LEVEL = "level"


@dataclass(frozen=True)
class FiredRule:
    """One instantiation of one rule that held and produced effects, by
    label and binding; the effects are in the rule's effect store."""

    label: int
    binding: Binding


class UnsupportedConstructError(Exception):
    """An 'all ... groupby' aggregate reached evaluation (undefined here)."""

    def __init__(self, span: SourceSpan | None = None):
        self.span = span
        super().__init__("aggregation ('all ... groupby') is not supported")


# ── Declarations and expressions ─────────────────────────────────


def _environment(rule: RuleAst) -> tuple[dict[str, str], tuple[str, ...]]:
    """Each open variable's interface, and the bare names that bind
    themselves when they are current entities.  The declarations of the
    condition's atoms, then of the body's calls, run left to right.  A
    typed one opens its variable, dropping the name if a bare one named
    it; a bare name no typed declaration has opened is kept.  An aggregate
    raises :class:`UnsupportedConstructError`."""
    open_vars: dict[str, str] = {}
    bare: dict[str, None] = {}
    for leaf in rule_leaves(rule):
        if isinstance(leaf, Aggregate):
            raise UnsupportedConstructError(leaf.span)
        decl = leaf.decl
        if isinstance(decl, DeclTyped):
            open_vars[decl.var] = decl.interface
            bare.pop(decl.var, None)
        elif decl.name not in open_vars:
            bare[decl.name] = None
    return open_vars, tuple(bare)


def _path_value(entity_id: str, member: str, store: Store) -> Value:
    """``entity_id.member`` as a path reads it: the event when the entity
    carries that event key, the attribute otherwise, UNDEF if absent."""
    entity = store.get(entity_id)
    if entity is None:
        return UNDEF
    if member in entity.events:
        return entity.events[member]
    return entity.attributes.get(member, UNDEF)


def _decl_name(decl: Decl) -> str:
    return decl.var if isinstance(decl, DeclTyped) else decl.name


# ── Compiled rules ───────────────────────────────────────────────
#
# Each closure below is made once per plan, and called with what changes
# from binding to binding: the two stores, the binding, and, in a pool
# test, the subject, the id its variable is bound to, which it reads in
# place of the binding's entry for that variable.

# A compiled expression: its value read from ``store`` for the subject
# and the binding of every other name.
Read = Callable[[Union[str, None], Store, Binding], Value]
# A compiled filter: whether it holds for the entity ``entity_id``, both
# sides read from ``store``.
FilterTest = Callable[[str, Union[str, None], Store, Binding], bool]
# A compiled condition: whether it holds for the subject (None outside a
# pool test) and the binding, on ``(previous, current)``.
Test = Callable[[Union[str, None], Store, Store, Binding], bool]
# A compiled value test: whether it holds for the event of ``entity_id``,
# given the subject, ``(previous, current)`` and the binding.
ValueTest = Callable[[str, Union[str, None], Store, Store, Binding], bool]
# Effects as one flat map: ``(entity_id, action)`` to the value the
# action's implicit event is set to.
Effects = dict[tuple[str, str], Value]
# A compiled body: writes the binding's calls into ``effects`` in place,
# each read from ``current`` against the interfaces ``env``.
Writer = Callable[[EnvInterface, Store, Binding, Effects], None]


def _compile_read(expr: Expr, var: str | None) -> Read:
    """Total expression read: a literal is itself; a path reads the member
    of the entity its variable is bound to (the subject for ``var``, the
    binding's entity for any other name), as an event when the entity
    carries that event key, as an attribute otherwise; a name the binding
    lacks reads UNDEF."""
    if not isinstance(expr, Path):
        value = expr.value
        return lambda subject, store, scope: value
    name, member = expr.var, expr.member
    if name == var:
        return lambda subject, store, scope: _path_value(subject, member, store)

    def read(subject: str | None, store: Store, scope: Binding) -> Value:
        entity_id = scope.get(name)
        return UNDEF if entity_id is None else _path_value(entity_id, member, store)

    return read


def _compile_filter(filt: Filter, var: str | None) -> FilterTest:
    """Whether the filter holds for an entity: its attribute compared with
    the right-hand side, both read from the store given.  A call or an atom
    with no filter compiles none."""
    attribute, rhs = filt.attribute, _compile_read(filt.rhs, var)

    def test(entity_id: str, subject: str | None, store: Store, scope: Binding) -> bool:
        return value_eq(access_attribute(attribute, entity_id, store), rhs(subject, store, scope))

    return test


def _compile_value_test(event: str, test: BoolTest, mode: TriggerMode, var: str | None) -> ValueTest:
    """An atom's test of an entity's ``event``: ``value changed`` compares
    the two stores (:func:`value_neq`); ``value = e`` holds when the event
    equals ``e`` in ``current`` and, in EDGE mode, did not in
    ``previous``, each side read from its own store.  A literal is
    compared type-strictly, as :func:`value_eq` does."""
    if isinstance(test, ValueChanged):

        def changed(
            entity_id: str, subject: str | None, previous: Store, current: Store, scope: Binding
        ) -> bool:
            return value_neq(
                access_event(event, entity_id, previous), access_event(event, entity_id, current)
            )

        return changed
    if isinstance(test.expr, Path):
        read = _compile_read(test.expr, var)

        def equal_at(store: Store, entity_id: str, subject: str | None, scope: Binding) -> bool:
            return value_eq(access_event(event, entity_id, store), read(subject, store, scope))

        if mode is TriggerMode.LEVEL:
            return lambda entity_id, subject, previous, current, scope: equal_at(
                current, entity_id, subject, scope
            )
        return lambda entity_id, subject, previous, current, scope: equal_at(
            current, entity_id, subject, scope
        ) and not equal_at(previous, entity_id, subject, scope)
    literal = test.expr.value
    kind = type(literal)
    if mode is TriggerMode.LEVEL:

        def level(
            entity_id: str, subject: str | None, previous: Store, current: Store, scope: Binding
        ) -> bool:
            now = access_event(event, entity_id, current)
            return type(now) is kind and now == literal

        return level

    def edge(
        entity_id: str, subject: str | None, previous: Store, current: Store, scope: Binding
    ) -> bool:
        now = access_event(event, entity_id, current)
        if type(now) is not kind or now != literal:
            return False
        before = access_event(event, entity_id, previous)
        return type(before) is not kind or before != literal

    return edge


def _compile_atom(atom: EventAtom, mode: TriggerMode, var: str | None) -> Test:
    """Whether the atom holds: false when its declared name is unbound (no
    entity was found, so no event is caught); else its filter, read from
    ``previous``, and then its value test (:func:`_compile_value_test`)."""
    name = _decl_name(atom.decl)
    own = name == var
    filt = None if atom.filter is None else _compile_filter(atom.filter, var)
    value_test = _compile_value_test(atom.event, atom.test, mode, var)

    def holds(subject: str | None, previous: Store, current: Store, scope: Binding) -> bool:
        entity_id = subject if own else scope.get(name)
        if entity_id is None:
            return False
        # event filters read the previous store, by definition
        if filt is not None and not filt(entity_id, subject, previous, scope):
            return False
        return value_test(entity_id, subject, previous, current, scope)

    return holds


def _all_of(tests: list[Test]) -> Test:
    """A test that holds when every one of ``tests`` does, tried in order."""
    if len(tests) == 1:
        return tests[0]

    def all_hold(subject: str | None, previous: Store, current: Store, scope: Binding) -> bool:
        for test in tests:
            if not test(subject, previous, current, scope):
                return False
        return True

    return all_hold


def _compile_condition(expr: EventExpr, mode: TriggerMode, var: str | None) -> Test:
    """The condition as one test: an atom (:func:`_compile_atom`), or the
    conjunction or disjunction of its chain's operands, tried in order."""
    if isinstance(expr, EventAtom):
        return _compile_atom(expr, mode, var)
    tests = [_compile_condition(operand, mode, var) for operand in operands(expr)]
    if isinstance(expr, EventAnd):
        return _all_of(tests)
    if isinstance(expr, EventOr):

        def any_holds(subject: str | None, previous: Store, current: Store, scope: Binding) -> bool:
            for test in tests:
                if test(subject, previous, current, scope):
                    return True
            return False

        return any_holds
    raise TypeError(f"not an event node: {expr!r}")


def _compile_conjuncts(
    conjuncts: Sequence[EventExpr], mode: TriggerMode, var: str | None
) -> Test | None:
    """The conjuncts as one test that holds when all do, with ``var`` read
    from the subject; None for no conjunct."""
    if not conjuncts:
        return None
    return _all_of([_compile_condition(conjunct, mode, var) for conjunct in conjuncts])


def _compile_call(call: ActionCall, filtered: bool) -> Writer:
    """A call writes nothing when its name is unbound, or its target's
    interface lacks the action, or (if ``filtered``) its filter, read from
    ``current``, fails; any other writes its implicit event's value under
    ``(target, action)``, over any value written there before."""
    name, action = _decl_name(call.decl), call.action
    arg = _compile_read(call.arg, None)
    filt = _compile_filter(call.filter, None) if filtered and call.filter is not None else None

    def write(env: EnvInterface, current: Store, scope: Binding, effects: Effects) -> None:
        entity_id = scope.get(name)
        if entity_id is None:
            return
        target = current.get(entity_id)
        iface = env.get(target.interface_id) if target is not None else None
        if iface is None or action not in iface.actions:
            return
        # action filters read the current store, by definition
        if filt is not None and not filt(entity_id, None, current, scope):
            return
        effects[entity_id, action] = arg(None, current, scope)

    return write


def _compile_body(body: ActionExpr, filtered: bool) -> Writer:
    """The body's writer.  ``,`` runs its operands in order on the map it
    was given, so a later call overwrites an earlier one's key.  ``||``
    runs its operands last to first, each on a copy of the map it was
    given (the first on that map itself, once the copies are made), and
    joins them in first to last (:func:`fold`): a clash is a
    :class:`~pantagruel.domains.ConflictError` with the later operand's
    value on the left, as ``store_join(later, earlier)`` reports it.
    Without ``filtered`` every call runs as if it had no filter
    (:func:`_compile_call`)."""
    if isinstance(body, ActionCall):
        return _compile_call(body, filtered)
    writers = [_compile_body(operand, filtered) for operand in operands(body)]
    if isinstance(body, ActionSeq):

        def seq(env: EnvInterface, current: Store, scope: Binding, effects: Effects) -> None:
            for write in writers:
                write(env, current, scope, effects)

        return seq
    if isinstance(body, ActionPar):
        first, later_last_first = writers[0], writers[:0:-1]

        def par(env: EnvInterface, current: Store, scope: Binding, effects: Effects) -> None:
            parts = []
            for write in later_last_first:
                part = dict(effects)
                write(env, current, scope, part)
                parts.append(part)
            first(env, current, scope, effects)
            while parts:
                part = parts.pop()
                key = fold(effects, part)
                if key is not None:
                    raise ConflictError(*key, part[key], effects[key])

        return par
    raise TypeError(f"not an action node: {body!r}")


def _store_of(effects: Effects, current: Store) -> Store:
    """``effects`` as a store: one entity per id written, of its
    interface in ``current``, with no attribute and the written events."""
    events_of: dict[str, dict[str, Value]] = {}
    for (entity_id, action), value in effects.items():
        events_of.setdefault(entity_id, {})[action] = value
    return {
        entity_id: Entity(current[entity_id].interface_id, {}, events)
        for entity_id, events in events_of.items()
    }


# ── Rules (R) and rule blocks (K) ────────────────────────────────


def _open_reads(atom: EventAtom, open_vars: dict[str, str]) -> list[str]:
    """The still-open variables an atom reads: through its declared name,
    its filter's right-hand side, and its ``value = e`` expression."""
    names = [_decl_name(atom.decl)]
    if atom.filter is not None and isinstance(atom.filter.rhs, Path):
        names.append(atom.filter.rhs.var)
    if isinstance(atom.test, ValueEq) and isinstance(atom.test.expr, Path):
        names.append(atom.test.expr.var)
    return list(dict.fromkeys(n for n in names if n in open_vars))


def _link(decl: Decl, filt: Filter | None, open_vars: dict[str, str]) -> tuple[str, str, str, str] | None:
    """``(x, a, y, b)`` when the filter ``with a = y.b`` on the declared
    name ``x`` links two distinct open variables, None otherwise."""
    if filt is None or not isinstance(filt.rhs, Path):
        return None
    x, y = _decl_name(decl), filt.rhs.var
    if x == y or x not in open_vars or y not in open_vars:
        return None
    return x, filt.attribute, y, filt.rhs.member


class _Side(NamedTuple):
    """One side of the equality every call of a body tests: its variable
    and interface, the one member the calls read of it, and whether some
    call reads it as an attribute (so a join keys it by that attribute)
    and some as a path."""

    var: str
    interface: str
    member: str
    as_attribute: bool
    as_path: bool


def _body_sides(body: ActionExpr, open_vars: dict[str, str]) -> tuple[_Side, _Side] | None:
    """The two sides of the equality every call of the body tests, if
    each call's filter links the same two open variables (:func:`_link`)
    and the calls read one member of each.  None if some call links none,
    the calls link more than two, or they read different members of one."""
    reads: dict[str, dict[tuple[str, bool], None]] = {}
    pending = [body]
    while pending:
        node = pending.pop()
        if not isinstance(node, ActionCall):
            pending += (node.left, node.right)
            continue
        link = _link(node.decl, node.filter, open_vars)
        if link is None:
            return None
        x, attribute, y, member = link
        reads.setdefault(x, {})[(attribute, False)] = None
        reads.setdefault(y, {})[(member, True)] = None
        if len(reads) > 2:
            return None
    sides = []
    for var, var_reads in reads.items():
        members = dict.fromkeys(member for member, _ in var_reads)
        if len(members) != 1:
            return None
        (member,) = members
        sides.append(
            _Side(var, open_vars[var], member, (member, False) in var_reads, (member, True) in var_reads)
        )
    return sides[0], sides[1]


def _side_reader(side: _Side, pool: list[str], current: Store) -> Reader | None:
    """The one read the body's calls make of ``side``: as an attribute, or
    as a path; where calls read it both ways, as an attribute, provided no
    entity of the side's ``pool`` (the only ones bound to it) carries an
    event of that name, so that both reads agree.  None if they may not."""
    if not side.as_attribute:
        return functools.partial(_path_value, member=side.member, store=current)
    if side.as_path and any(side.member in current[entity_id].events for entity_id in pool):
        return None
    return functools.partial(access_attribute, side.member, store=current)


def _body_join(
    sides: tuple[_Side, _Side], pools: dict[str, list[str]], dual: DualStore
) -> tuple[Join, dict[str, Keyed]] | None:
    """The equality every call of the body tests (:func:`_body_sides`):
    where it fails, no call writes, so the binding produces no effect.
    Bare names count (``on m with room = l.room``).  With it, each side
    read as an attribute, keyed by it (:meth:`DualStore.keyed`).  None if
    a side's reads may disagree (:func:`_side_reader`)."""
    x, y = sides
    read_x = _side_reader(x, pools[x.var], dual.current)
    read_y = _side_reader(y, pools[y.var], dual.current)
    if read_x is None or read_y is None:
        return None
    keyed = {side.var: dual.keyed(side.interface, side.member) for side in sides if side.as_attribute}
    return (x.var, read_x, y.var, read_y), keyed


def _conjuncts(
    condition: EventExpr, open_vars: dict[str, str]
) -> tuple[list[EventAtom], dict[str, list[EventAtom]], list[EventExpr]]:
    """The conjuncts of the condition's top-level ``and`` chain (or the
    lone conjunct a condition is), split by the open variables each reads
    (:func:`_open_reads`): the atoms reading none, each variable's pool
    tests (atoms reading that one), and the rest, tested on whole
    bindings."""
    closed: list[EventAtom] = []
    by_var: dict[str, list[EventAtom]] = {}
    rest: list[EventExpr] = []
    for conjunct in operands(condition) if isinstance(condition, EventAnd) else [condition]:
        reads = _open_reads(conjunct, open_vars) if isinstance(conjunct, EventAtom) else None
        if reads is None or len(reads) > 1:
            rest.append(conjunct)
        elif reads:
            by_var.setdefault(reads[0], []).append(conjunct)
        else:
            closed.append(conjunct)
    return closed, by_var, rest


def _needs_change(atom: EventAtom, var: str, mode: TriggerMode) -> bool:
    """Whether ``atom``, a pool test of ``var``, can hold only on an entity
    whose event changed value this tick: ``value changed``, or in EDGE
    mode ``value = <literal>``, on ``var`` itself."""
    if _decl_name(atom.decl) != var:
        return False
    test = atom.test
    return isinstance(test, ValueChanged) or (
        mode is TriggerMode.EDGE and isinstance(test.expr, (NumLit, BoolLit))
    )


class _RulePlan(NamedTuple):
    """What evaluating one rule reads of the rule and the trigger mode
    alone, derived and compiled once (:func:`_plan_rule`): the label, the
    bare names that bind themselves when they are current entities, the
    closed atoms' test, how each open variable's pool is found, the test
    of the conjuncts left to whole bindings (None where there is none),
    the sides of the body's equality (None if it has none), and the body's
    writer, with its call filters and, for the bindings that equality
    enumerates, without them.

    A pool is found from ``(var, interface, test, edge_event)``: the test
    of the variable's pool tests, on the entity id as subject (None for
    none), and the event of the first of them that :func:`_needs_change`,
    whose changed ids the pool starts from (None: all the interface's
    ids)."""

    label: int
    bare: tuple[str, ...]
    closed: Test | None
    pools: tuple[tuple[str, str, Test | None, str | None], ...]
    rest: Test | None
    sides: tuple[_Side, _Side] | None
    body: Writer
    joined_body: Writer | None


class BlockPlan(NamedTuple):
    """A rule block planned for one trigger mode (:func:`plan_block`): the
    very rules and mode it was made for, one plan per rule, and every list
    the rules may ask a dual store for."""

    rules: Sequence[RuleAst]
    mode: TriggerMode
    plans: tuple[_RulePlan, ...]
    lists: tuple[tuple[str, str | None], ...]


def _plan_rule(rule: RuleAst, mode: TriggerMode, label: int) -> _RulePlan:
    """The rule's plan in ``mode``: its environment (:func:`_environment`),
    the split of its condition (:func:`_conjuncts`), each open variable's
    pool, and its body's equality (:func:`_body_sides`), each part
    compiled.  An aggregate raises :class:`UnsupportedConstructError`."""
    open_vars, bare = _environment(rule)
    closed, by_var, rest = _conjuncts(rule.condition, open_vars)
    pools = []
    for var, interface in open_vars.items():
        tests = by_var.get(var, [])
        edge = next((atom.event for atom in tests if _needs_change(atom, var, mode)), None)
        pools.append((var, interface, _compile_conjuncts(tests, mode, var), edge))
    sides = _body_sides(rule.body, open_vars)
    return _RulePlan(
        label,
        bare,
        _compile_conjuncts(closed, mode, None),
        tuple(pools),
        _compile_conjuncts(rest, mode, None),
        sides,
        _compile_body(rule.body, filtered=True),
        None if sides is None else _compile_body(rule.body, filtered=False),
    )


def plan_block(rules: Sequence[RuleAst], mode: TriggerMode) -> BlockPlan:
    """Plan every rule of the block in ``mode``, each labelled by its own
    label or else its 1-based position, and name every list their
    evaluation may ask a dual store for, as
    :meth:`~pantagruel.domains.DualStore.build` takes them: each open
    variable's interface ids, ``(interface, None)``, unless its pool comes
    from the changed ids, and each ``(interface, attribute)`` a body join
    may key, with that interface's ids.  None of it depends on the stores.
    An aggregate raises :class:`UnsupportedConstructError`."""
    plans = tuple(
        _plan_rule(rule, mode, rule.label if rule.label is not None else position)
        for position, rule in enumerate(rules, start=1)
    )
    names: dict[tuple[str, str | None], None] = {}
    for plan in plans:
        for _, interface, _, edge_event in plan.pools:
            if edge_event is None:
                names[(interface, None)] = None
        for side in plan.sides or ():
            if side.as_attribute:
                names[(side.interface, None)] = None
                names[(side.interface, side.member)] = None
    return BlockPlan(rules, mode, plans, tuple(names))


def _eval_rule_plan(
    env: EnvInterface, plan: _RulePlan, dual: DualStore
) -> tuple[Effects, list[FiredRule]]:
    """Evaluate one planned rule on ``dual``, as the module docstring
    describes, into the rule's one flat map of effects.  Where the body's
    equality gives the join, every binding built satisfies each call's
    filter, so the body runs without them.

    Each binding writes into a map of its own, so that a ``,`` call
    overwriting the binding's earlier write is no clash, and that map is
    folded into the rule's (:func:`fold`).  The result, as a store, is
    that of a left fold of :func:`~pantagruel.domains.store_join` over
    the bindings' partial stores once all are built (the closure oracle's
    ``store_join_all``, with a join of its own): a conflict between the
    operands of one binding's ``||`` is raised while that binding is
    built, so it comes first; one between bindings is the first the fold
    meets, its least ``(entity, action)`` with the rule's value on the
    left, raised only once every binding is built."""
    previous, current = dual.previous, dual.current
    bound = {name: name for name in plan.bare if name in current}
    if plan.closed is not None and not plan.closed(None, previous, current, bound):
        return {}, []
    pools: dict[str, list[str]] = {}
    for var, interface, test, edge_event in plan.pools:
        pool = dual.ids(interface) if edge_event is None else dual.changed(interface, edge_event)
        if test is not None:
            pool = [entity_id for entity_id in pool if test(entity_id, previous, current, bound)]
        if not pool:
            return {}, []
        pools[var] = pool
    joined = None if plan.sides is None else _body_join(plan.sides, pools, dual)
    write = plan.body if joined is None else plan.joined_body
    rest, label = plan.rest, plan.label
    effects: Effects = {}
    fired: list[FiredRule] = []
    clash: ConflictError | None = None
    for scope in instantiate(bound, pools, *(joined or ())):
        if rest is not None and not rest(None, previous, current, scope):
            continue
        partial: Effects = {}
        write(env, current, scope, partial)
        if not partial:
            continue
        fired.append(FiredRule(label, scope))
        if clash is None:
            key = fold(effects, partial)
            if key is not None:
                clash = ConflictError(*key, effects[key], partial[key])
    if clash is not None:
        raise clash
    return effects, fired


def eval_rule(
    env: EnvInterface,
    rule: RuleAst,
    dual: DualStore,
    mode: TriggerMode,
    label: int | None = None,
) -> tuple[Store, list[FiredRule]]:
    """Evaluate one rule: returns its joined partial effect store and one
    :class:`FiredRule` per instantiation that held and produced effects,
    labelled ``label`` when given.  The rule is planned on each call and
    evaluated as a block of one (:func:`eval_plan` of :func:`plan_block`);
    the conjuncts narrow the bindings first, as the module docstring
    describes, and the result is that of the full product."""
    plan = plan_block((rule,), mode)
    if label is not None:
        plan = plan._replace(plans=(plan.plans[0]._replace(label=label),))
    return eval_plan(env, plan, dual)


def eval_plan(env: EnvInterface, plan: BlockPlan, dual: DualStore) -> tuple[Store, list[FiredRule]]:
    """Evaluate every rule of a planned block (:func:`plan_block`) against
    the same dual store, in the plan's mode, and join the rules' flat maps
    of effects in order (:func:`fold`); interfering rules surface as a
    ConflictError, the least clash of the first rule that has one, with
    the earlier rules' value on the left.  The joined map becomes the
    block's effect store once (:func:`_store_of`).  This is the one place
    a pair is listed: ``dual`` is first built for the plan's lists
    (:meth:`~pantagruel.domains.DualStore.build`, no pass over the store
    when it holds them all and knows its ``touched`` ids), and all rules
    share them."""
    dual.build(plan.lists)
    effects: Effects = {}
    fired: list[FiredRule] = []
    for rule_plan in plan.plans:
        partial, rule_fired = _eval_rule_plan(env, rule_plan, dual)
        key = fold(effects, partial)
        if key is not None:
            raise ConflictError(*key, effects[key], partial[key])
        fired.extend(rule_fired)
    return _store_of(effects, dual.current), fired

