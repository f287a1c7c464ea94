"""Reference entity builder for differential tests.

This is the fold the interpreter used before ``spec_eval.build_entity``
checked an entity's initializers in one loop.  It renders the
specification valuation's initializer check literally: each ``attr : lit``
initializer is folded by :func:`check_assignment` into a frozen
:class:`CheckedAttributes` accumulator, which holds a value map while
every initializer type-checks and absorbs every later one once one fails.
``tests/test_spec_eval.py`` compares the entity and the diagnostics of
:func:`build_entity` with the package's.  Only the domains, the AST and
the diagnostic records come from the package.
"""

from __future__ import annotations

from dataclasses import dataclass

from pantagruel.ast import BoolLit, EntityDecl, Literal, TypeTag
from pantagruel.diagnostics import Diagnostic, error, warning
from pantagruel.domains import UNDEF, Entity, EnvInterface, Interface, Value


@dataclass(frozen=True)
class CheckedAttributes:
    """Accumulator for attribute initialization: a value map while all
    assignments type-check, absorbing once any assignment fails."""

    ok: bool
    values: dict[str, Value]
    diagnostics: tuple[Diagnostic, ...] = ()

    @staticmethod
    def empty() -> "CheckedAttributes":
        return CheckedAttributes(True, {})


def check_assignment(
    attr: str, lit: Literal, iface: Interface, acc: CheckedAttributes
) -> CheckedAttributes:
    """Fold one ``attr : lit`` initializer into ``acc``.

    A mismatch or unknown attribute flips the accumulator to its error
    state, and later assignments are skipped without adding diagnostics.
    """
    if not acc.ok:
        return acc
    declared = iface.attributes.get(attr)
    if declared is None:
        diag = error("unknown-attribute", f"unknown attribute {attr!r}", lit.span)
        return CheckedAttributes(False, acc.values, acc.diagnostics + (diag,))
    if attr in acc.values:
        diag = error("duplicate-init", f"attribute {attr!r} initialized twice", lit.span)
        return CheckedAttributes(False, acc.values, acc.diagnostics + (diag,))
    got = TypeTag.BOOL if isinstance(lit, BoolLit) else TypeTag.NAT
    if got is not declared:
        diag = error(
            "type-mismatch",
            f"attribute {attr!r} declared {declared.value} but initialized with {got.value}",
            lit.span,
        )
        return CheckedAttributes(False, acc.values, acc.diagnostics + (diag,))
    return CheckedAttributes(True, {**acc.values, attr: lit.value}, acc.diagnostics)


def build_entity(
    decl: EntityDecl, env: EnvInterface
) -> tuple[Entity | None, list[Diagnostic]]:
    """Build one entity: checked attribute values, every declared event and
    action key initialized to UNDEF (sensed data starts undefined, and an
    implicit event exists per action)."""
    iface = env.get(decl.interface)
    if iface is None:
        return None, [
            error(
                "unknown-interface",
                f"entity {decl.name!r} refers to unknown interface {decl.interface!r}",
                decl.span,
            )
        ]
    acc = CheckedAttributes.empty()
    for init in decl.inits:
        acc = check_assignment(init.attribute, init.value, iface, acc)
    diagnostics = list(acc.diagnostics)
    attributes = dict(acc.values)
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
