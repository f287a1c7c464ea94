"""Reference rule evaluator for differential tests.

This is the closure-building evaluator the interpreter used before
``rule_eval`` evaluated rules directly.  It renders the denotational
semantics literally: a condition yields an entity environment plus a
deferred predicate, an action body an environment plus a deferred effect,
and ``eval_rule`` instantiates the environment and applies both.

:func:`instantiate` is the oracle's own: an exhaustive loop over the whole
store, sorted here, that shares no pool, index or join with the
package's, so the interpreter's candidate pools and their order are under
test.

The oracle keeps the literal reference domain of the semantics, which the
package drops: an entity environment maps each variable to an
:class:`InterfaceRef` (still ranging over an interface) or an
:class:`InstanceRef` (bound to one entity), and :func:`eval_declaration`
and :func:`eval_expression` read those, so the differential tests compare
two independent expression readers.  Only the store algebra (member
reads, the store join, the member update, the value comparisons) comes
from the package; :func:`store_join_all`, the fold of a rule's partial
stores, is the oracle's own.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Union

from pantagruel.ast import (
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
from pantagruel.domains import (
    UNDEF,
    DualStore,
    Entity,
    EnvInterface,
    Store,
    Value,
    access_attribute,
    access_event,
    store_join,
    update_member,
    value_eq,
    value_neq,
)
from pantagruel.rule_eval import FiredRule, TriggerMode, UnsupportedConstructError


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

# A deferred predicate awaiting a fully instantiated environment.
BoolFn = Callable[[EnvEntity], bool]

# A deferred effect awaiting a fully instantiated environment.
PendingAction = Callable[[EnvEntity], Store]


# ── Declarations and expressions ─────────────────────────────────


def eval_declaration(decl: Decl, rho: EnvEntity, current: Store) -> tuple[str, EnvEntity]:
    """Bind the declared name: typed declarations open an interface-bound
    variable.  A bare name the environment already binds keeps that
    binding, so a variable of the rule is never taken over by an entity
    of the same name, as the checker resolves it.  Otherwise a bare name
    binds to itself if it is a current entity and leaves the environment
    unchanged if not (the atom stays inert)."""
    if isinstance(decl, DeclTyped):
        return decl.var, {**rho, decl.var: InterfaceRef(decl.interface)}
    if decl.name in current and decl.name not in rho:
        return decl.name, {**rho, decl.name: InstanceRef(decl.name)}
    return decl.name, rho


def eval_expression(expr: Expr, store: Store, rho: EnvEntity) -> Value:
    """Total expression read: literals are themselves; a path reads the
    member as an event when the entity carries that event key, as an
    attribute otherwise; unbound or uninstantiated variables read UNDEF."""
    if isinstance(expr, (NumLit, BoolLit)):
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
                if ref.name not in base:
                    # a partial store starts the target from a skeleton
                    base = {**base, ref.name: Entity(target.interface_id, {}, {})}
                updated = update_member(base, ref.name, events={action: value})
                return {**base, ref.name: updated}

            return rho2, run
    raise TypeError(f"not an action node: {expr!r}")


# ── Rules (R) ────────────────────────────────────────────────────


def instantiate(store: Store, rho: EnvEntity) -> list[EnvEntity]:
    """Every binding of the open variables over the whole store, in order
    of variable name, then entity id."""
    envs = [dict(rho)]
    for var in sorted(v for v, ref in rho.items() if isinstance(ref, InterfaceRef)):
        envs = [
            {**env, var: InstanceRef(entity_id)}
            for env in envs
            for entity_id in sorted(store)
            if store[entity_id].interface_id == rho[var].name
        ]
    return envs


def store_join_all(stores: Iterable[Store]) -> Store:
    """Left fold of :func:`~pantagruel.domains.store_join`;
    order-independent when conflict-free."""
    acc: Store = {}
    for store in stores:
        acc = store_join(acc, store)
    return acc


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
            fired.append(FiredRule(effective_label, binding))
    return store_join_all(partials), fired
