"""Source positions and diagnostics shared by the parser, checker, and runtime."""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import NamedTuple


class SourceSpan(NamedTuple):
    """1-based line/column of a source fragment, with its length in
    characters: a plain record, as the lexer makes one per token read."""

    line: int
    column: int
    length: int = 0


NO_SPAN = SourceSpan(1, 1, 0)


class Severity(enum.Enum):
    ERROR = "error"
    WARNING = "warning"


@dataclass(frozen=True)
class Diagnostic:
    """One reported problem, identified by a stable machine-readable code."""

    severity: Severity
    code: str
    message: str
    span: SourceSpan | None = None

    def render(self, path: str) -> str:
        span = self.span or SourceSpan(0, 0)
        return f"{path}:{span.line}:{span.column}: {self.severity.value}: {self.message}"


def error(code: str, message: str, span: SourceSpan | None = None) -> Diagnostic:
    return Diagnostic(Severity.ERROR, code, message, span)


def warning(code: str, message: str, span: SourceSpan | None = None) -> Diagnostic:
    return Diagnostic(Severity.WARNING, code, message, span)


def has_errors(diagnostics: list[Diagnostic]) -> bool:
    return any(d.severity is Severity.ERROR for d in diagnostics)
