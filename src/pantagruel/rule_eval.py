"""Rule evaluation against a dual store.

Each rule is evaluated in three stages, mirroring how conditions and
actions defer their work until entity variables are bound:

1. the condition yields an entity environment plus a deferred predicate;
2. the body extends that environment and yields a deferred effect
   (environment → partial store), threading the current store;
3. the environment is instantiated over all matching entities, the
   predicate selects instantiations, and the surviving partial stores are
   joined into the rule's effect store.

Conditions read event filters against the *previous* store while action
filters read the *current* one — an asymmetry kept deliberately, as are
all other evaluation orders here.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable

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
    RuleAst,
    ValueChanged,
)
from .diagnostics import SourceSpan
from .domains import (
    UNDEF,
    BoolFn,
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

# A deferred effect awaiting a fully instantiated environment.
PendingAction = Callable[[EnvEntity], Store]


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


def eval_filter(filt: Filter | None, entity_id: str, store: Store) -> BoolFn:
    """An absent filter is constantly true; a present one compares the
    entity's attribute with the right-hand side, both read from ``store``."""
    if filt is None:
        return lambda rho: True
    return lambda rho: value_eq(
        access_attribute(filt.attribute, entity_id, store),
        eval_expression(filt.rhs, store, rho),
    )


def eval_bool_test(
    test: BoolTest,
    reader: Callable[[Store], Value],
    dual: DualStore,
    mode: TriggerMode,
) -> BoolFn:
    """Build the deferred test over an event accessor ``reader``."""
    if isinstance(test, ValueChanged):
        return lambda rho: value_neq(reader(dual.previous), reader(dual.current))

    def eq_at(store: Store, rho: EnvEntity) -> bool:
        return value_eq(reader(store), eval_expression(test.expr, store, rho))

    if mode is TriggerMode.LEVEL:
        return lambda rho: eq_at(dual.current, rho)
    return lambda rho: not eq_at(dual.previous, rho) and eq_at(dual.current, rho)


# ── Conditions (W) ───────────────────────────────────────────────


def eval_event_expr(
    expr: EventExpr,
    dual: DualStore,
    rho: EnvEntity,
    b: BoolFn,
    mode: TriggerMode,
) -> tuple[EnvEntity, BoolFn]:
    """Evaluate a condition to (environment, deferred predicate).

    ``and`` threads both environment and predicate left to right; ``or``
    threads the environment through both sides but seeds each side's
    predicate with the incoming one and disjoins the results.  An atom whose
    variable is not instance-bound when the predicate runs yields false: no
    entity was found, so no event is caught.
    """
    match expr:
        case EventAnd(left, right):
            rho1, b1 = eval_event_expr(left, dual, rho, b, mode)
            return eval_event_expr(right, dual, rho1, b1, mode)
        case EventOr(left, right):
            rho1, b1 = eval_event_expr(left, dual, rho, b, mode)
            rho2, b2 = eval_event_expr(right, dual, rho1, b, mode)
            return rho2, lambda scope: b1(scope) or b2(scope)
        case Aggregate():
            raise UnsupportedConstructError(expr.span)
        case EventAtom(event, decl, filt, test):
            var, rho2 = eval_declaration(decl, rho, dual.current)

            def predicate(scope: EnvEntity) -> bool:
                ref = scope.get(var)
                if not isinstance(ref, InstanceRef):
                    return False
                # event filters read the previous store, by definition
                holds = eval_filter(filt, ref.name, dual.previous)(scope)
                test_fn = eval_bool_test(
                    test, lambda store: access_event(event, ref.name, store), dual, mode
                )
                return holds and test_fn(scope) and b(scope)

            return rho2, predicate
    raise TypeError(f"not an event node: {expr!r}")


# ── Actions (C) ──────────────────────────────────────────────────


def eval_action_expr(
    expr: ActionExpr,
    env: EnvInterface,
    current: Store,
    rho: EnvEntity,
    effect: PendingAction,
) -> tuple[EnvEntity, PendingAction]:
    """Evaluate an action body to (environment, deferred effect).

    ``||`` evaluates both sides from the same seed effect and joins their
    partial stores; ``,`` threads the first side's effect into the second,
    so a later call observes an earlier one's partial store.  A call whose
    variable is not instance-bound, or whose target's interface does not
    declare the action, contributes nothing beyond its seed.
    """
    match expr:
        case ActionPar(left, right):
            rho1, f1 = eval_action_expr(left, env, current, rho, effect)
            rho2, f2 = eval_action_expr(right, env, current, rho1, effect)
            return rho2, lambda scope: store_join(f2(scope), f1(scope))
        case ActionSeq(left, right):
            rho1, f1 = eval_action_expr(left, env, current, rho, effect)
            return eval_action_expr(right, env, current, rho1, f1)
        case ActionCall(action, arg, decl, filt):
            var, rho2 = eval_declaration(decl, rho, current)

            def run(scope: EnvEntity) -> Store:
                ref = scope.get(var)
                base = effect(scope)
                if not isinstance(ref, InstanceRef):
                    return base
                target = current.get(ref.name)
                iface = env.get(target.interface_id) if target else None
                if iface is None or action not in iface.actions:
                    return base
                # action filters read the current store, by definition
                if not eval_filter(filt, ref.name, current)(scope):
                    return base
                value = eval_expression(arg, current, scope)
                updated = update_member(
                    base, ref.name, events={action: value}, governing=current
                )
                return {**base, ref.name: updated}

            return rho2, run
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


def eval_rule(
    env: EnvInterface,
    rule: RuleAst,
    dual: DualStore,
    mode: TriggerMode,
    label: int | None = None,
) -> tuple[Store, list[FiredRule]]:
    """Evaluate one rule: returns its joined partial effect store and one
    :class:`FiredRule` per instantiation that held and produced effects."""
    effective_label = label if label is not None else (rule.label or 1)
    rho_e, predicate = eval_event_expr(
        rule.condition, dual, {}, lambda scope: True, mode
    )
    rho_a, pending = eval_action_expr(
        rule.body, env, dual.current, rho_e, lambda scope: {}
    )
    partials: list[Store] = []
    fired: list[FiredRule] = []
    for inst in instantiate(dual.current, rho_a):
        if not predicate(inst):
            continue
        partial = pending(inst)
        partials.append(partial)
        if partial:
            binding = {
                var: ref.name
                for var, ref in inst.items()
                if isinstance(ref, InstanceRef)
            }
            fired.append(FiredRule(effective_label, binding, _effects_summary(partial)))
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
