"""Canonical source rendering of ASTs.

``parse_program(format_program(ast))`` returns a tree structurally equal to
``ast`` (spans aside) for every tree the grammar can derive.  Initializers
are emitted with ``:`` and entity declarations without the optional
``entity`` keyword.
"""

from __future__ import annotations

from .ast import (
    ActionCall,
    ActionExpr,
    ActionPar,
    ActionSeq,
    Aggregate,
    BoolLit,
    Decl,
    DeclBare,
    DeclTyped,
    EntityDecl,
    EventAnd,
    EventAtom,
    EventExpr,
    EventOr,
    Expr,
    Filter,
    InitDecl,
    InterfaceDecl,
    NumLit,
    Path,
    ProgramAst,
    RuleAst,
    ValueChanged,
    ValueEq,
    operands,
)
from .domains import UNDEF, Value


# A value is an int, or one of the singletons True, False and UNDEF, so
# its spelling is a lookup of its identity, or failing that the int's.
SPELLING = {id(True): "true", id(False): "false", id(UNDEF): "undef"}


def format_value(value: Value) -> str:
    """Source spelling of a literal or runtime value."""
    return SPELLING.get(id(value)) or str(value)


def format_expr(expr: Expr) -> str:
    match expr:
        case NumLit(value) | BoolLit(value):
            return format_value(value)
        case Path(var, member):
            return f"{var}.{member}"
    raise TypeError(f"not an expression node: {expr!r}")


def _format_decl(decl: Decl) -> str:
    match decl:
        case DeclTyped(var, interface):
            return f"{var}:{interface}"
        case DeclBare(name):
            return name
    raise TypeError(f"not a declaration node: {decl!r}")


def _format_filter(filt: Filter | None) -> str:
    if filt is None:
        return ""
    return f" with {filt.attribute} = {format_expr(filt.rhs)}"


def _format_event(expr: EventExpr) -> str:
    match expr:
        case EventOr():
            return " or ".join(_format_event(operand) for operand in operands(expr))
        case EventAnd():
            return " and ".join(_format_event(operand) for operand in operands(expr))
        case Aggregate(inner, group_key):
            suffix = f" groupby {group_key}" if group_key else ""
            return f"all {_format_event(inner)}{suffix}"
        case EventAtom(event, decl, filt, test):
            match test:
                case ValueEq(value):
                    test_text = f"value = {format_expr(value)}"
                case ValueChanged():
                    test_text = "value changed"
            return f"event {event} from {_format_decl(decl)}{_format_filter(filt)} {test_text}"
    raise TypeError(f"not an event node: {expr!r}")


def _format_action(expr: ActionExpr) -> str:
    match expr:
        case ActionPar():
            return " || ".join(_format_action(operand) for operand in operands(expr))
        case ActionSeq():
            return ", ".join(_format_action(operand) for operand in operands(expr))
        case ActionCall(action, arg, decl, filt):
            return f"action {action}({format_expr(arg)}) on {_format_decl(decl)}{_format_filter(filt)}"
    raise TypeError(f"not an action node: {expr!r}")


def _format_interface(decl: InterfaceDecl) -> str:
    lines = [f"interface {decl.name} {{"]
    for member in decl.attributes:
        lines.append(f"  attribute {member.name} : {member.type.value}")
    for member in decl.events:
        lines.append(f"  event {member.name} : {member.type.value}")
    for member in decl.actions:
        lines.append(f"  action {member.name}( {member.type.value} )")
    lines.append("}")
    return "\n".join(lines) + "\n"


def format_inits(inits: tuple[InitDecl, ...]) -> str:
    """The braced initializer list of an entity declaration."""
    body = ", ".join(f"{i.attribute} : {format_expr(i.value)}" for i in inits)
    return f"{{ {body} }}" if body else "{}"


def _format_entity(decl: EntityDecl) -> str:
    return f"{decl.name}:{decl.interface} {format_inits(decl.inits)}\n"


def _format_rule(rule: RuleAst) -> str:
    label = f"({rule.label}) " if rule.label is not None else ""
    return (
        f"{label}when {_format_event(rule.condition)}\n"
        f"    trigger {_format_action(rule.body)}\n"
        f"    end\n"
    )


def format_program(program: ProgramAst) -> str:
    """Render ``program`` as canonical concrete syntax."""
    blocks = [_format_interface(i) for i in program.spec.interfaces]
    if program.spec.entities:
        blocks.append("".join(_format_entity(e) for e in program.spec.entities))
    blocks.append("rules\n" + "".join(_format_rule(r) for r in program.rules) + "end\n")
    return "\n".join(blocks)
