"""Rule evaluation against a dual store.

A rule's entity environment (:func:`_environment`, which the rule's plan
keeps) is the interface of each open variable, and the binding of the
bare names: a bare name binds itself if it is a current entity, so a
variable of the rule is never taken over by an entity of the same name,
as the checker resolves it; any other stays unbound (its atom or call
stays inert).  A binding maps each name bound to an entity to that
entity's id; a name it lacks is unbound.
:func:`~pantagruel.domains.instantiate` extends it over the matching
entities, and for each binding :func:`holds` tests the condition (what
the pool tests below leave of it) and, if it holds,
:func:`action_effects` builds the binding's partial store; the partial
stores are joined into the rule's effect store, which is all a
rule produces besides its :class:`FiredRule` labels and bindings.

Which bindings are built is decided here, and only here.  What that
reads of the rule and the trigger mode alone is the rule's plan: its
environment's open variables and bare names, its condition's conjuncts
sorted against them, each open variable's pool, and the body's equality.
:func:`plan_block` plans a whole block, with the lists the block reads,
and ``step`` keeps that plan for the run, planning again only for other
rules or another mode; :func:`eval_rule` and :func:`eval_rule_block`
plan on each call.  On a dual store, a plan gives each open variable its
finished pool of sorted ids, which :func:`~pantagruel.domains.instantiate`
only enumerates.  A pool starts from a list the dual store keeps
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
  :func:`value_eq`, so it runs the body without them; a body whose join
  is refused runs with its filters.

Only the conjuncts not tested on pools (``or`` terms and atoms reading two
open variables, whatever their filters) are left to :func:`holds` on whole
bindings, and none if there are none; :func:`action_effects` runs on every
binding built.  This is exact: a binding never built fails a pushed
conjunct, or every call's filter (so each call returns its seed), and
would have produced no partial store and no :class:`FiredRule`; the
survivors keep their enumeration order, so the fired list, the fold of
partial stores and any reported conflict are those of the full product.

Conditions read event filters against the *previous* store while action
filters read the *current* one — an asymmetry kept deliberately, as are
all other evaluation orders here.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass
from typing import NamedTuple, Sequence

from .ast import (
    ActionCall,
    ActionExpr,
    ActionPar,
    ActionSeq,
    Aggregate,
    BoolLit,
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
    instantiate,
    store_join,
    store_join_all,
    update_member,
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


def eval_expression(expr: Expr, store: Store, binding: Binding) -> Value:
    """Total expression read: literals are themselves; a path reads the
    member of the entity its variable is bound to, as an event when the
    entity carries that event key, as an attribute otherwise; a variable
    ``binding`` lacks reads UNDEF."""
    if isinstance(expr, NumLit):
        return expr.value
    if isinstance(expr, BoolLit):
        return expr.value
    entity_id = binding.get(expr.var)
    if entity_id is None:
        return UNDEF
    return _path_value(entity_id, expr.member, store)


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


def _filter_holds(filt: Filter, entity_id: str, store: Store, scope: Binding) -> bool:
    """Whether the filter holds for the entity: its attribute compared with
    the right-hand side, both read from ``store``.  Callers test only a
    present filter; an absent one holds."""
    return value_eq(
        access_attribute(filt.attribute, entity_id, store),
        eval_expression(filt.rhs, store, scope),
    )


# ── Conditions (W) ───────────────────────────────────────────────


def holds(expr: EventExpr, dual: DualStore, scope: Binding, mode: TriggerMode) -> bool:
    """Whether the condition holds for the binding ``scope``.  An atom
    whose name ``scope`` lacks is false: no entity was found, so no event
    is caught."""
    if isinstance(expr, EventAtom):
        entity_id = scope.get(_decl_name(expr.decl))
        if entity_id is None:
            return False
        previous, current = dual.previous, dual.current
        # event filters read the previous store, by definition
        if expr.filter is not None and not _filter_holds(expr.filter, entity_id, previous, scope):
            return False
        now = access_event(expr.event, entity_id, current)
        test = expr.test
        if isinstance(test, ValueChanged):
            return value_neq(access_event(expr.event, entity_id, previous), now)
        if not value_eq(now, eval_expression(test.expr, current, scope)):
            return False
        return mode is TriggerMode.LEVEL or not value_eq(
            access_event(expr.event, entity_id, previous),
            eval_expression(test.expr, previous, scope),
        )
    if isinstance(expr, EventAnd):
        for operand in operands(expr):
            if not holds(operand, dual, scope, mode):
                return False
        return True
    if isinstance(expr, EventOr):
        for operand in operands(expr):
            if holds(operand, dual, scope, mode):
                return True
        return False
    raise TypeError(f"not an event node: {expr!r}")


# ── Actions (C) ──────────────────────────────────────────────────


def action_effects(
    expr: ActionExpr,
    env: EnvInterface,
    current: Store,
    scope: Binding,
    seed: Store,
) -> Store:
    """The partial store the body builds on ``seed`` for the binding
    ``scope``.  ``,`` seeds each call with the previous call's output;
    ``||`` builds its operands from the same seed, last to first, and joins
    them first to last.  A call on an unbound name, or whose target's
    interface lacks the action, or whose filter fails, returns its seed;
    any other writes its implicit event into the target's entry in the
    seed, starting one with no other member where there is none."""
    if isinstance(expr, ActionCall):
        entity_id = scope.get(_decl_name(expr.decl))
        if entity_id is None:
            return seed
        target = current.get(entity_id)
        iface = env.get(target.interface_id) if target is not None else None
        if iface is None or expr.action not in iface.actions:
            return seed
        # action filters read the current store, by definition
        if expr.filter is not None and not _filter_holds(expr.filter, entity_id, current, scope):
            return seed
        events = {expr.action: eval_expression(expr.arg, current, scope)}
        if entity_id in seed:
            updated = update_member(seed, entity_id, events=events)
        else:
            updated = Entity(target.interface_id, {}, events)
        return {**seed, entity_id: updated}
    if isinstance(expr, ActionSeq):
        for operand in operands(expr):
            seed = action_effects(operand, env, current, scope, seed)
        return seed
    if isinstance(expr, ActionPar):
        parts: list[Store] = []
        for operand in reversed(operands(expr)):
            parts.append(action_effects(operand, env, current, scope, seed))
        joined = parts.pop()
        while parts:
            joined = store_join(parts.pop(), joined)
        return joined
    raise TypeError(f"not an action node: {expr!r}")


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
    where it fails, every call returns its seed, so the binding produces
    no effect.  Bare names count (``on m with room = l.room``).  With it,
    each side read as an attribute, keyed by it (:meth:`DualStore.keyed`).
    None if a side's reads may disagree (:func:`_side_reader`)."""
    x, y = sides
    read_x = _side_reader(x, pools[x.var], dual.current)
    read_y = _side_reader(y, pools[y.var], dual.current)
    if read_x is None or read_y is None:
        return None
    keyed = {side.var: dual.keyed(side.interface, side.member) for side in sides if side.as_attribute}
    return (x.var, read_x, y.var, read_y), keyed


def _unfiltered(body: ActionExpr) -> ActionExpr:
    """``body`` with no call filter.  Chains are unrolled as
    :func:`action_effects` unrolls them, so no chain length costs
    recursion."""
    if isinstance(body, ActionCall):
        return ActionCall(body.action, body.arg, body.decl, None, body.span)
    parts = [_unfiltered(operand) for operand in operands(body)]
    joined = parts[0]
    for part in parts[1:]:
        joined = type(body)(joined, part)
    return joined


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
    alone, derived once (:func:`_plan_rule`): the label, the bare names
    that bind themselves when they are current entities, the closed atoms,
    how each open variable's pool is found, the conjuncts left to whole
    bindings, the sides of the body's equality (None if it has none), and
    the body, with every call filter removed for the bindings that
    equality enumerates.

    A pool is found from ``(var, interface, tests, edge_event)``: the
    variable's pool tests, and the event of the first of them that
    :func:`_needs_change`, whose changed ids the pool starts from (None:
    all the interface's ids)."""

    label: int
    bare: tuple[str, ...]
    closed: tuple[EventAtom, ...]
    pools: tuple[tuple[str, str, tuple[EventAtom, ...], str | None], ...]
    rest: tuple[EventExpr, ...]
    sides: tuple[_Side, _Side] | None
    body: ActionExpr
    joined_body: ActionExpr


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
    pool, and its body's equality (:func:`_body_sides`).  An aggregate
    raises :class:`UnsupportedConstructError`."""
    open_vars, bare = _environment(rule)
    closed, by_var, rest = _conjuncts(rule.condition, open_vars)
    pools = []
    for var, interface in open_vars.items():
        tests = tuple(by_var.get(var, ()))
        edge = next((atom.event for atom in tests if _needs_change(atom, var, mode)), None)
        pools.append((var, interface, tests, edge))
    sides = _body_sides(rule.body, open_vars)
    joined_body = rule.body if sides is None else _unfiltered(rule.body)
    return _RulePlan(label, bare, tuple(closed), tuple(pools), tuple(rest), sides, rule.body, joined_body)


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
    env: EnvInterface, plan: _RulePlan, dual: DualStore, mode: TriggerMode
) -> tuple[Store, list[FiredRule]]:
    """Evaluate one planned rule on ``dual``, as the module docstring
    describes.  Where the body's equality gives the join, every binding
    built satisfies each call's filter, so the body runs without them."""
    current = dual.current
    bound = {name: name for name in plan.bare if name in current}
    for atom in plan.closed:
        if not holds(atom, dual, bound, mode):
            return {}, []
    pools: dict[str, list[str]] = {}
    for var, interface, tests, edge_event in plan.pools:
        pool = dual.ids(interface) if edge_event is None else dual.changed(interface, edge_event)
        if tests:
            scope = dict(bound)
            kept = []
            for entity_id in pool:
                scope[var] = entity_id
                if all(holds(atom, dual, scope, mode) for atom in tests):
                    kept.append(entity_id)
            pool = kept
        if not pool:
            return {}, []
        pools[var] = pool
    joined = None if plan.sides is None else _body_join(plan.sides, pools, dual)
    body = plan.body if joined is None else plan.joined_body
    rest = plan.rest
    partials: list[Store] = []
    fired: list[FiredRule] = []
    for scope in instantiate(bound, pools, *(joined or ())):
        if not all(holds(conjunct, dual, scope, mode) for conjunct in rest):
            continue
        partial = action_effects(body, env, current, scope, {})
        partials.append(partial)
        if partial:
            fired.append(FiredRule(plan.label, scope))
    return store_join_all(partials), fired


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
    the same dual store, in the plan's mode, and join the partial effect
    stores; interfering rules surface as a ConflictError.  This is the one
    place a pair is listed: ``dual`` is first built for the plan's lists
    (:meth:`~pantagruel.domains.DualStore.build`, no pass over the store
    when it holds them all and knows its ``touched`` ids), and all rules
    share them."""
    dual.build(plan.lists)
    effects: Store = {}
    fired: list[FiredRule] = []
    for rule_plan in plan.plans:
        partial, rule_fired = _eval_rule_plan(env, rule_plan, dual, plan.mode)
        effects = store_join(effects, partial)
        fired.extend(rule_fired)
    return effects, fired


def eval_rule_block(
    env: EnvInterface,
    rules: Sequence[RuleAst],
    dual: DualStore,
    mode: TriggerMode,
) -> tuple[Store, list[FiredRule]]:
    """Evaluate every rule against the same dual store and join the partial
    effect stores; interfering rules surface as a ConflictError.  The block
    is planned on each call (:func:`eval_plan` of :func:`plan_block`),
    which builds the lists it reads on ``dual``; ``step`` plans it once
    per run."""
    return eval_plan(env, plan_block(rules, mode), dual)
