"""Rule evaluation against a dual store.

A rule's entity environment is built once (:func:`rule_environment`) and
instantiated over all matching entities.  For each binding, :func:`holds`
tests the condition and, if it holds, :func:`action_effects` builds the
binding's partial store; the partial stores are joined into the rule's
effect store.

Before the bindings are built, :func:`eval_rule` pushes condition atoms
down: each atom of the condition's top-level ``and`` chain (or the lone
atom a condition is) that reads at most one still-open variable, through
its declared name, its filter or its ``value = e``, is tested on its own.
One reading no open variable is tested once, and if false the rule has
no binding; one reading variable ``v`` keeps in ``v``'s pool only the
entities it holds for.  ``or`` conditions and atoms reading two open
variables are left to :func:`holds` on whole bindings.  This is exact: a
binding dropped from a pool fails a conjunct, so it would have produced
no partial store and no :class:`FiredRule`, and the survivors keep their
enumeration order, so the fired list, the fold of partial stores and any
reported conflict are unchanged.

Conditions read event filters against the *previous* store while action
filters read the *current* one — an asymmetry kept deliberately, as are
all other evaluation orders here.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass

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
)
from .diagnostics import SourceSpan
from .domains import (
    UNDEF,
    DualStore,
    EnvEntity,
    EnvInterface,
    InstanceRef,
    InterfaceRef,
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
    """One instantiation of one rule that held and produced effects."""

    label: int
    binding: dict[str, str]
    effects: tuple[tuple[str, str, Value], ...]


class UnsupportedConstructError(Exception):
    """An 'all ... groupby' aggregate reached evaluation (undefined here)."""

    def __init__(self, span: SourceSpan | None = None):
        self.span = span
        super().__init__("aggregation ('all ... groupby') is not supported")


# ── Declarations and expressions ─────────────────────────────────


def eval_declaration(decl: Decl, rho: EnvEntity, current: Store) -> tuple[str, EnvEntity]:
    """Bind the declared name: typed declarations open an interface-bound
    variable; a bare name binds to itself if it is a current entity and
    otherwise leaves the environment unchanged (the atom then resolves
    through whatever binding the name already has, or stays inert)."""
    if isinstance(decl, DeclTyped):
        return decl.var, {**rho, decl.var: InterfaceRef(decl.interface)}
    if decl.name in current:
        return decl.name, {**rho, decl.name: InstanceRef(decl.name)}
    return decl.name, rho


def rule_environment(rule: RuleAst, current: Store) -> EnvEntity:
    """The rule's entity environment: the declarations of the condition's
    atoms, then of the body's calls, run left to right.  An aggregate
    raises :class:`UnsupportedConstructError` before anything is bound."""
    rho: EnvEntity = {}
    pending: list[EventExpr | ActionExpr] = [rule.body, rule.condition]
    while pending:
        node = pending.pop()
        if isinstance(node, (EventAtom, ActionCall)):
            _, rho = eval_declaration(node.decl, rho, current)
        elif isinstance(node, Aggregate):
            raise UnsupportedConstructError(node.span)
        else:
            pending.append(node.right)
            pending.append(node.left)
    return rho


def eval_expression(expr: Expr, store: Store, rho: EnvEntity) -> Value:
    """Total expression read: literals are themselves; a path reads the
    member as an event when the entity carries that event key, as an
    attribute otherwise; unbound or uninstantiated variables read UNDEF."""
    if isinstance(expr, NumLit):
        return expr.value
    if isinstance(expr, BoolLit):
        return expr.value
    ref = rho.get(expr.var)
    if not isinstance(ref, InstanceRef):
        return UNDEF
    entity = store.get(ref.name)
    if entity is None:
        return UNDEF
    if expr.member in entity.events:
        return entity.events[expr.member]
    return entity.attributes.get(expr.member, UNDEF)


def _bound_entity(decl: Decl, scope: EnvEntity) -> str | None:
    """The entity the declared name is bound to, if any."""
    ref = scope.get(decl.var if isinstance(decl, DeclTyped) else decl.name)
    return ref.name if isinstance(ref, InstanceRef) else None


def _filter_holds(filt: Filter | None, entity_id: str, store: Store, scope: EnvEntity) -> bool:
    """An absent filter holds; a present one compares the entity's
    attribute with the right-hand side, both read from ``store``."""
    return filt is None or value_eq(
        access_attribute(filt.attribute, entity_id, store),
        eval_expression(filt.rhs, store, scope),
    )


# ── Conditions (W) ───────────────────────────────────────────────


def holds(expr: EventExpr, dual: DualStore, scope: EnvEntity, mode: TriggerMode) -> bool:
    """Whether the condition holds for the binding ``scope``.  An atom
    whose name is not bound to an instance is false: no entity was found,
    so no event is caught."""
    if isinstance(expr, EventAtom):
        entity_id = _bound_entity(expr.decl, scope)
        if entity_id is None:
            return False
        previous, current = dual.previous, dual.current
        # event filters read the previous store, by definition
        if not _filter_holds(expr.filter, entity_id, previous, scope):
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
    scope: EnvEntity,
    seed: Store,
) -> Store:
    """The partial store the body builds on ``seed`` for the binding
    ``scope``.  ``,`` seeds each call with the previous call's output;
    ``||`` builds its operands from the same seed, last to first, and joins
    them first to last.  A call on an unbound name, or whose target's
    interface lacks the action, or whose filter fails, returns its seed."""
    if isinstance(expr, ActionCall):
        entity_id = _bound_entity(expr.decl, scope)
        if entity_id is None:
            return seed
        target = current.get(entity_id)
        iface = env.get(target.interface_id) if target is not None else None
        if iface is None or expr.action not in iface.actions:
            return seed
        # action filters read the current store, by definition
        if not _filter_holds(expr.filter, entity_id, current, scope):
            return seed
        value = eval_expression(expr.arg, current, scope)
        updated = update_member(
            seed, entity_id, events={expr.action: value}, governing=current
        )
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


def _effects_summary(store: Store) -> tuple[tuple[str, str, Value], ...]:
    out: list[tuple[str, str, Value]] = []
    for entity_id in sorted(store):
        entity = store[entity_id]
        for key in sorted(entity.attributes):
            out.append((entity_id, key, entity.attributes[key]))
        for key in sorted(entity.events):
            out.append((entity_id, key, entity.events[key]))
    return tuple(out)


def _open_reads(atom: EventAtom, rho: EnvEntity) -> list[str]:
    """The still-open variables an atom reads: through its declared name,
    its filter's right-hand side, and its ``value = e`` expression."""
    decl = atom.decl
    names = [decl.var if isinstance(decl, DeclTyped) else decl.name]
    if atom.filter is not None and isinstance(atom.filter.rhs, Path):
        names.append(atom.filter.rhs.var)
    if isinstance(atom.test, ValueEq) and isinstance(atom.test.expr, Path):
        names.append(atom.test.expr.var)
    return list(dict.fromkeys(n for n in names if isinstance(rho.get(n), InterfaceRef)))


def _pushdown(
    condition: EventExpr, rho: EnvEntity
) -> tuple[list[EventAtom], dict[str, list[EventAtom]]]:
    """The atoms among the condition's top-level conjuncts that read no
    open variable, and, per open variable, those that read it alone.
    Other conjuncts (``or``, or atoms reading two open variables) are
    left to :func:`holds` on whole bindings."""
    conjuncts = operands(condition) if isinstance(condition, EventAnd) else [condition]
    closed: list[EventAtom] = []
    by_var: dict[str, list[EventAtom]] = {}
    for atom in conjuncts:
        if not isinstance(atom, EventAtom):
            continue
        reads = _open_reads(atom, rho)
        if not reads:
            closed.append(atom)
        elif len(reads) == 1:
            by_var.setdefault(reads[0], []).append(atom)
    return closed, by_var


def _all_hold(
    atoms: list[EventAtom],
    var: str,
    dual: DualStore,
    rho: EnvEntity,
    mode: TriggerMode,
    entity_id: str,
) -> bool:
    """Whether every atom, each reading no open variable but ``var``,
    holds with ``var`` bound to ``entity_id``."""
    scope = {**rho, var: InstanceRef(entity_id)}
    return all(holds(atom, dual, scope, mode) for atom in atoms)


def eval_rule(
    env: EnvInterface,
    rule: RuleAst,
    dual: DualStore,
    mode: TriggerMode,
    label: int | None = None,
) -> tuple[Store, list[FiredRule]]:
    """Evaluate one rule: returns its joined partial effect store and one
    :class:`FiredRule` per instantiation that held and produced effects.
    Condition atoms are pushed into the candidate pools first, as the
    module docstring describes; the result is that of the full product."""
    if label is None:
        label = rule.label if rule.label is not None else 1
    current = dual.current
    rho = rule_environment(rule, current)
    closed, by_var = _pushdown(rule.condition, rho)
    if not all(holds(atom, dual, rho, mode) for atom in closed):
        return {}, []
    admits = {
        var: functools.partial(_all_hold, atoms, var, dual, rho, mode)
        for var, atoms in by_var.items()
    }
    partials: list[Store] = []
    fired: list[FiredRule] = []
    for scope in instantiate(current, rho, admits):
        if not holds(rule.condition, dual, scope, mode):
            continue
        partial = action_effects(rule.body, env, current, scope, {})
        partials.append(partial)
        if partial:
            binding = {
                var: ref.name
                for var, ref in scope.items()
                if isinstance(ref, InstanceRef)
            }
            fired.append(FiredRule(label, binding, _effects_summary(partial)))
    return store_join_all(partials), fired


def eval_rule_block(
    env: EnvInterface,
    rules: tuple[RuleAst, ...] | list[RuleAst],
    dual: DualStore,
    mode: TriggerMode,
) -> tuple[Store, list[FiredRule]]:
    """Evaluate every rule against the same dual store and join the partial
    effect stores; interfering rules surface as a ConflictError."""
    effects: Store = {}
    fired: list[FiredRule] = []
    for position, rule in enumerate(rules, start=1):
        label = rule.label if rule.label is not None else position
        partial, rule_fired = eval_rule(env, rule, dual, mode, label=label)
        effects = store_join(effects, partial)
        fired.extend(rule_fired)
    return effects, fired
