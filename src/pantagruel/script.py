"""External-event scripts: the textual finitization of the input stream.

One change per line; a ``tick`` line closes the current group of changes
and marks one orchestration step.  Values are decimal nonnegative
integers, ``true``, ``false``, or ``undef`` (sensor dropout).
``deploy`` must not run into the declaration's name: ``deployx : ...``
is no deploy.  ``run`` and the repl both read their lines with
:func:`parse_line`, and both end a line at ``\n`` alone, as the program
lexer does: a form feed or ``\u2028`` is a blank within its line.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .domains import UNDEF, Value
from .lexer import NAME, WORD_END
from .parser import ParseError, parse_entity_decl
from .runtime import AttributeUpdate, Deploy, EventUpdate, ExternalChange, Remove

_UPDATE_RE = re.compile(rf"^(event|attr)\s+({NAME})\.({NAME})\s*=\s*(\S+)$")
_REMOVE_RE = re.compile(rf"^remove\s+({NAME})$")
# 'deploy' and not the start of a longer word, as in 'deployx : ...'
_DEPLOY_RE = re.compile(rf"^deploy{WORD_END}")


class ScriptError(Exception):
    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(message if line is None else f"line {line}: {message}")


@dataclass(frozen=True)
class TickMarker:
    pass


def parse_value(text: str) -> Value:
    if text == "true":
        return True
    if text == "false":
        return False
    if text == "undef":
        return UNDEF
    if text.isascii() and text.isdigit():
        try:
            return int(text)
        except ValueError:
            raise ScriptError(f"numeral too long ({len(text)} digits)") from None
    raise ScriptError(f"invalid value {text!r} (expected an integer, true, false, or undef)")


def parse_line(line: str) -> ExternalChange | TickMarker | None:
    """Parse one script line; ``None`` for blank lines and comments."""
    text = line.split("#", 1)[0].strip()
    if not text:
        return None
    if text == "tick":
        return TickMarker()
    if match := _UPDATE_RE.match(text):
        kind, entity, member, raw = match.groups()
        value = parse_value(raw)
        if kind == "event":
            return EventUpdate(entity, member, value)
        return AttributeUpdate(entity, member, value)
    if match := _REMOVE_RE.match(text):
        return Remove(match.group(1))
    if _DEPLOY_RE.match(text):
        rest = text[len("deploy") :].strip()
        try:
            return Deploy(parse_entity_decl(rest))
        except ParseError as exc:
            raise ScriptError(f"bad deploy: {exc.diagnostics[0].message}") from exc
    raise ScriptError(f"unrecognized script line {text!r}")


def parse_script(text: str) -> list[list[ExternalChange]]:
    """Group change lines between ``tick`` markers into per-tick lists."""
    ticks: list[list[ExternalChange]] = []
    pending: list[ExternalChange] = []
    last_change_line: int | None = None
    for number, line in enumerate(text.split("\n"), start=1):
        try:
            parsed = parse_line(line)
        except ScriptError as exc:
            raise ScriptError(str(exc), number) from exc
        if parsed is None:
            continue
        if isinstance(parsed, TickMarker):
            ticks.append(pending)
            pending = []
        else:
            pending.append(parsed)
            last_change_line = number
    if pending:
        raise ScriptError(
            "changes after the final 'tick' would never execute", last_change_line
        )
    return ticks
