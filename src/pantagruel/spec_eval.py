"""Specification evaluation and static checking.

Builds the constant interface environment and the initial store from parsed
declarations, then statically checks every rule against those interfaces.
Each entity's initializers are checked in one loop against its interface's
attribute table, which stops at the entity's first bad initializer; apart
from that, diagnostics are collected, never fail-fast.
"""

from __future__ import annotations

from dataclasses import dataclass

from .ast import (
    ActionCall,
    Aggregate,
    BoolLit,
    Decl,
    DeclTyped,
    EntityDecl,
    EventAtom,
    Expr,
    Filter,
    InterfaceDecl,
    NumLit,
    ProgramAst,
    RuleAst,
    SpecAst,
    TypeTag,
    ValueEq,
    rule_leaves,
)
from .diagnostics import Diagnostic, error, has_errors, warning
from .domains import UNDEF, Entity, EnvInterface, Interface, Store, Value


# ── Interface and entity construction ────────────────────────────


def build_interface(decl: InterfaceDecl) -> tuple[Interface, list[Diagnostic]]:
    """Build the three member maps; duplicate names within a section and
    clashes across sections are reported (action-named implicit events share
    the event namespace, so the three sections must not overlap)."""
    diagnostics: list[Diagnostic] = []
    sections = {
        "attribute": decl.attributes,
        "event": decl.events,
        "action": decl.actions,
    }
    maps: dict[str, dict[str, TypeTag]] = {}
    seen: dict[str, str] = {}
    for kind, members in sections.items():
        built: dict[str, TypeTag] = {}
        for member in members:
            if member.name in built:
                diagnostics.append(
                    error(
                        "duplicate-member",
                        f"duplicate {kind} {member.name!r} in interface {decl.name!r}",
                        member.span,
                    )
                )
                continue
            if member.name in seen:
                diagnostics.append(
                    error(
                        "member-clash",
                        f"{kind} {member.name!r} clashes with the {seen[member.name]} "
                        f"of the same name in interface {decl.name!r}",
                        member.span,
                    )
                )
                continue
            built[member.name] = member.type
            seen[member.name] = kind
        maps[kind] = dict(sorted(built.items()))
    return Interface(maps["attribute"], maps["event"], maps["action"]), diagnostics


def build_entity(
    decl: EntityDecl, env: EnvInterface
) -> tuple[Entity | None, list[Diagnostic]]:
    """Build one entity: checked attribute values, every declared event and
    action key initialized to UNDEF (sensed data starts undefined, and an
    implicit event exists per action).

    One loop checks the initializers against the interface's attribute
    table and stops at the first unknown, duplicate or mistyped one: its
    error is the only one reported, and it and every later initializer
    are left unapplied.  Each attribute still without a value starts UNDEF
    with a warning, in interface order."""
    iface = env.get(decl.interface)
    if iface is None:
        return None, [
            error(
                "unknown-interface",
                f"entity {decl.name!r} refers to unknown interface {decl.interface!r}",
                decl.span,
            )
        ]
    diagnostics: list[Diagnostic] = []
    attributes: dict[str, Value] = {}
    for init in decl.inits:
        attr, lit = init.attribute, init.value
        declared = iface.attributes.get(attr)
        got = TypeTag.BOOL if isinstance(lit, BoolLit) else TypeTag.NAT
        if declared is None:
            bad = error("unknown-attribute", f"unknown attribute {attr!r}", lit.span)
        elif attr in attributes:
            bad = error("duplicate-init", f"attribute {attr!r} initialized twice", lit.span)
        elif got is not declared:
            bad = error(
                "type-mismatch",
                f"attribute {attr!r} declared {declared.value} but initialized with {got.value}",
                lit.span,
            )
        else:
            attributes[attr] = lit.value
            continue
        diagnostics.append(bad)
        break
    for name in iface.attributes:
        if name not in attributes:
            diagnostics.append(
                warning(
                    "uninitialized-attribute",
                    f"attribute {name!r} of entity {decl.name!r} starts undefined",
                    decl.span,
                )
            )
            attributes[name] = UNDEF
    events = dict.fromkeys([*iface.events, *iface.actions], UNDEF)
    return Entity(decl.interface, attributes, events), diagnostics


def eval_specification(
    spec: SpecAst,
) -> tuple[EnvInterface, Store, list[Diagnostic]]:
    """Build the interface environment, then the initial store against it."""
    diagnostics: list[Diagnostic] = []
    env: EnvInterface = {}
    for idecl in spec.interfaces:
        iface, diags = build_interface(idecl)
        diagnostics.extend(diags)
        if idecl.name in env:
            diagnostics.append(
                error(
                    "duplicate-interface",
                    f"interface {idecl.name!r} declared twice",
                    idecl.span,
                )
            )
            continue
        env[idecl.name] = iface
    store: Store = {}
    for edecl in spec.entities:
        if edecl.name in store:
            diagnostics.append(
                error(
                    "duplicate-entity",
                    f"entity {edecl.name!r} declared twice",
                    edecl.span,
                )
            )
            continue
        entity, diags = build_entity(edecl, env)
        diagnostics.extend(diags)
        if entity is not None:
            store[edecl.name] = entity
    return env, store, diagnostics


# ── Static rule checking ─────────────────────────────────────────

_Scope = dict[str, "str | None"]  # variable → interface name (None: unresolved)


def _member_type(iface: Interface, name: str) -> tuple[str, TypeTag] | None:
    for kind, members in (
        ("attribute", iface.attributes),
        ("event", iface.events),
        ("action", iface.actions),
    ):
        if name in members:
            return kind, members[name]
    return None


class _RuleChecker:
    def __init__(self, env: EnvInterface, store: Store):
        self.env = env
        self.store = store
        self.diagnostics: list[Diagnostic] = []

    def check_rule(self, rule: RuleAst) -> None:
        """Resolve every name the rule declares, condition atoms then body
        calls, before typing any expression: the evaluator binds them all
        first too (``rule_eval._environment``), so a path may name a
        variable declared by a later atom or call."""
        scope: _Scope = {}
        resolved: list[tuple[EventAtom | ActionCall, str | None]] = []
        for leaf in rule_leaves(rule):
            if isinstance(leaf, Aggregate):
                self.diagnostics.append(
                    error(
                        "unsupported-construct",
                        "aggregation ('all ... groupby') is not supported",
                        leaf.span,
                    )
                )
            else:
                resolved.append((leaf, self._resolve_decl(leaf.decl, scope)))
        for leaf, iface_name in resolved:
            if isinstance(leaf, EventAtom):
                self._check_atom(leaf, iface_name, scope)
            else:
                self._check_call(leaf, iface_name, scope)

    # declaration resolution shared by event atoms and action calls

    def _resolve_decl(self, decl: Decl, scope: _Scope) -> str | None:
        if isinstance(decl, DeclTyped):
            known = decl.interface in self.env
            if not known:
                self.diagnostics.append(
                    error(
                        "unknown-interface",
                        f"unknown interface {decl.interface!r}",
                        decl.span,
                    )
                )
            previous = scope.get(decl.var)
            if previous is not None and previous != decl.interface:
                self.diagnostics.append(
                    error(
                        "redeclared-variable",
                        f"variable {decl.var!r} redeclared with interface "
                        f"{decl.interface!r} (was {previous!r})",
                        decl.span,
                    )
                )
                return previous
            scope[decl.var] = decl.interface if known else None
            return scope[decl.var]
        if decl.name in scope:
            return scope[decl.name]
        entity = self.store.get(decl.name)
        if entity is None:
            self.diagnostics.append(
                warning(
                    "unknown-entity",
                    f"{decl.name!r} is not in the initial entity set; "
                    "this clause matches nothing until such an entity is deployed",
                    decl.span,
                )
            )
            scope[decl.name] = None
            return None
        scope[decl.name] = entity.interface_id
        return entity.interface_id

    def _expr_type(self, expr: Expr, scope: _Scope) -> TypeTag | None:
        if isinstance(expr, NumLit):
            return TypeTag.NAT
        if isinstance(expr, BoolLit):
            return TypeTag.BOOL
        if expr.var not in scope:
            self.diagnostics.append(
                error(
                    "unbound-variable",
                    f"variable {expr.var!r} is not declared in this rule",
                    expr.span,
                )
            )
            return None
        iface_name = scope[expr.var]
        if iface_name is None or iface_name not in self.env:
            return None
        member = _member_type(self.env[iface_name], expr.member)
        if member is None:
            self.diagnostics.append(
                error(
                    "unknown-member",
                    f"interface {iface_name!r} has no member {expr.member!r}",
                    expr.span,
                )
            )
            return None
        return member[1]

    def _check_filter(
        self, filt: Filter | None, iface_name: str | None, scope: _Scope
    ) -> None:
        if filt is None:
            return
        rhs_type = self._expr_type(filt.rhs, scope)
        if iface_name is None or iface_name not in self.env:
            return
        declared = self.env[iface_name].attributes.get(filt.attribute)
        if declared is None:
            self.diagnostics.append(
                error(
                    "unknown-attribute",
                    f"interface {iface_name!r} has no attribute {filt.attribute!r}",
                    filt.span,
                )
            )
            return
        if rhs_type is not None and rhs_type is not declared:
            self.diagnostics.append(
                error(
                    "type-mismatch",
                    f"filter on {filt.attribute!r} compares {declared.value} "
                    f"with {rhs_type.value}",
                    filt.span,
                )
            )

    def _check_atom(self, expr: EventAtom, iface_name: str | None, scope: _Scope) -> None:
        event_type: TypeTag | None = None
        if iface_name is not None and iface_name in self.env:
            iface = self.env[iface_name]
            event_type = iface.events.get(expr.event)
            if event_type is None:
                event_type = iface.actions.get(expr.event)
            if event_type is None:
                self.diagnostics.append(
                    error(
                        "unknown-event",
                        f"interface {iface_name!r} has no event or action "
                        f"{expr.event!r}",
                        expr.span,
                    )
                )
        self._check_filter(expr.filter, iface_name, scope)
        if isinstance(expr.test, ValueEq):
            test_type = self._expr_type(expr.test.expr, scope)
            if (
                test_type is not None
                and event_type is not None
                and test_type is not event_type
            ):
                self.diagnostics.append(
                    error(
                        "type-mismatch",
                        f"event {expr.event!r} carries {event_type.value} but is "
                        f"compared with {test_type.value}",
                        expr.test.span,
                    )
                )

    def _check_call(self, expr: ActionCall, iface_name: str | None, scope: _Scope) -> None:
        param_type: TypeTag | None = None
        if iface_name is not None and iface_name in self.env:
            param_type = self.env[iface_name].actions.get(expr.action)
            if param_type is None:
                self.diagnostics.append(
                    error(
                        "unknown-action",
                        f"interface {iface_name!r} has no action {expr.action!r}",
                        expr.span,
                    )
                )
        arg_type = self._expr_type(expr.arg, scope)
        if arg_type is not None and param_type is not None and arg_type is not param_type:
            self.diagnostics.append(
                error(
                    "type-mismatch",
                    f"action {expr.action!r} takes {param_type.value} but is "
                    f"called with {arg_type.value}",
                    expr.span,
                )
            )
        self._check_filter(expr.filter, iface_name, scope)


def check_rules(
    env: EnvInterface, store: Store, rules: tuple[RuleAst, ...]
) -> list[Diagnostic]:
    """Statically check every rule: names resolve, types line up, variables
    are declared once, and no unsupported constructs remain."""
    checker = _RuleChecker(env, store)
    for rule in rules:
        checker.check_rule(rule)
    return checker.diagnostics


# ── Whole programs ───────────────────────────────────────────────


@dataclass
class CheckedProgram:
    env: EnvInterface
    initial_store: Store
    rules: tuple[RuleAst, ...]
    diagnostics: list[Diagnostic]

    @property
    def ok(self) -> bool:
        return not has_errors(self.diagnostics)


def check_program(program: ProgramAst) -> CheckedProgram:
    """Evaluate the specification and statically check the rule block."""
    env, store, diagnostics = eval_specification(program.spec)
    diagnostics.extend(check_rules(env, store, program.rules))
    return CheckedProgram(env, store, program.rules, diagnostics)
