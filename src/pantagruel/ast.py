"""AST for the two-layer orchestration language.

The specification layer declares interfaces (typed attributes, events,
actions) and entity instances; the orchestration layer is a block of
``when ... trigger ... end`` rules.  Spans are carried on every node but
excluded from equality so that synthesized and reparsed trees compare
structurally.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from .diagnostics import NO_SPAN, SourceSpan


class TypeTag(enum.Enum):
    NAT = "Integer"
    BOOL = "Boolean"


# ── Expressions ──────────────────────────────────────────────────


@dataclass(frozen=True)
class NumLit:
    value: int
    span: SourceSpan = field(default=NO_SPAN, compare=False, repr=False)


@dataclass(frozen=True)
class BoolLit:
    value: bool
    span: SourceSpan = field(default=NO_SPAN, compare=False, repr=False)


@dataclass(frozen=True)
class Path:
    """Member access ``var.member`` on a rule-scoped entity variable."""

    var: str
    member: str
    span: SourceSpan = field(default=NO_SPAN, compare=False, repr=False)


Literal = NumLit | BoolLit
Expr = NumLit | BoolLit | Path


# ── Specification layer ──────────────────────────────────────────


@dataclass(frozen=True)
class MemberDecl:
    name: str
    type: TypeTag
    span: SourceSpan = field(default=NO_SPAN, compare=False, repr=False)


@dataclass(frozen=True)
class InterfaceDecl:
    name: str
    attributes: tuple[MemberDecl, ...]
    events: tuple[MemberDecl, ...]
    actions: tuple[MemberDecl, ...]
    span: SourceSpan = field(default=NO_SPAN, compare=False, repr=False)


@dataclass(frozen=True)
class InitDecl:
    attribute: str
    value: Literal
    span: SourceSpan = field(default=NO_SPAN, compare=False, repr=False)


@dataclass(frozen=True)
class EntityDecl:
    name: str
    interface: str
    inits: tuple[InitDecl, ...]
    span: SourceSpan = field(default=NO_SPAN, compare=False, repr=False)


@dataclass(frozen=True)
class SpecAst:
    interfaces: tuple[InterfaceDecl, ...]
    entities: tuple[EntityDecl, ...]


# ── Orchestration layer ──────────────────────────────────────────


@dataclass(frozen=True)
class DeclTyped:
    """``var:Interface`` — declares an entity variable ranging over an interface."""

    var: str
    interface: str
    span: SourceSpan = field(default=NO_SPAN, compare=False, repr=False)


@dataclass(frozen=True)
class DeclBare:
    """A bare name: an entity instance, or a previously declared variable."""

    name: str
    span: SourceSpan = field(default=NO_SPAN, compare=False, repr=False)


Decl = DeclTyped | DeclBare


@dataclass(frozen=True)
class ValueEq:
    expr: Expr
    span: SourceSpan = field(default=NO_SPAN, compare=False, repr=False)


@dataclass(frozen=True)
class ValueChanged:
    span: SourceSpan = field(default=NO_SPAN, compare=False, repr=False)


BoolTest = ValueEq | ValueChanged


@dataclass(frozen=True)
class Filter:
    """``with attribute = expr`` — restricts the entities a clause applies to."""

    attribute: str
    rhs: Expr
    span: SourceSpan = field(default=NO_SPAN, compare=False, repr=False)


@dataclass(frozen=True)
class EventAtom:
    event: str
    decl: Decl
    filter: Filter | None
    test: BoolTest
    span: SourceSpan = field(default=NO_SPAN, compare=False, repr=False)


@dataclass(frozen=True)
class EventAnd:
    left: EventExpr
    right: EventExpr
    span: SourceSpan = field(default=NO_SPAN, compare=False, repr=False)


@dataclass(frozen=True)
class EventOr:
    left: EventExpr
    right: EventExpr
    span: SourceSpan = field(default=NO_SPAN, compare=False, repr=False)


@dataclass(frozen=True)
class Aggregate:
    """``all ... groupby key`` wrapper; parsed but rejected by the evaluator."""

    inner: EventExpr
    group_key: str | None
    span: SourceSpan = field(default=NO_SPAN, compare=False, repr=False)


EventExpr = EventAtom | EventAnd | EventOr | Aggregate


@dataclass(frozen=True)
class ActionCall:
    action: str
    arg: Expr
    decl: Decl
    filter: Filter | None
    span: SourceSpan = field(default=NO_SPAN, compare=False, repr=False)


@dataclass(frozen=True)
class ActionPar:
    left: ActionExpr
    right: ActionExpr
    span: SourceSpan = field(default=NO_SPAN, compare=False, repr=False)


@dataclass(frozen=True)
class ActionSeq:
    left: ActionExpr
    right: ActionExpr
    span: SourceSpan = field(default=NO_SPAN, compare=False, repr=False)


ActionExpr = ActionCall | ActionPar | ActionSeq


def operands(node: EventAnd | EventOr | ActionPar | ActionSeq) -> list:
    """The operands of ``node``'s chain, left to right: its left spine of
    the same connective (the shape the parser builds), unrolled with a loop
    so that no chain length costs recursion.  Right operands stay whole."""
    kind = type(node)
    out = []
    while type(node) is kind:
        out.append(node.right)
        node = node.left
    out.append(node)
    out.reverse()
    return out


@dataclass(frozen=True)
class RuleAst:
    """``(label)? when condition trigger body end``; unlabeled rules are
    numbered by their 1-based position in the block."""

    label: int | None
    condition: EventExpr
    body: ActionExpr
    span: SourceSpan = field(default=NO_SPAN, compare=False, repr=False)


def rule_leaves(rule: RuleAst) -> list[EventAtom | ActionCall | Aggregate]:
    """The condition's atoms, then the body's calls, left to right, each
    aggregate just before the atoms inside it: the order in which a rule
    declares its names.  Walked with a stack, so that no nesting depth
    costs recursion."""
    leaves: list[EventAtom | ActionCall | Aggregate] = []
    pending: list[EventExpr | ActionExpr] = [rule.body, rule.condition]
    while pending:
        node = pending.pop()
        if isinstance(node, (EventAtom, ActionCall, Aggregate)):
            leaves.append(node)
            if isinstance(node, Aggregate):
                pending.append(node.inner)
        else:
            pending += (node.right, node.left)
    return leaves


@dataclass(frozen=True)
class ProgramAst:
    spec: SpecAst
    rules: tuple[RuleAst, ...]
