"""Tokenizer for program sources.

Identifiers are ``[A-Za-z][A-Za-z0-9_]*``, numerals are decimal nonnegative
integers, and ``#`` starts a comment running to end of line.  Newlines are
ordinary whitespace; declarations are keyword-delimited.

The text is split at ``\\n``, the only line break: any other blank
(``str.isspace``, such as ``\\r`` or ``\\u2028``) is one column of its
line.  One compiled pattern scans each line, each match skipping the
blanks before one token, comment, or invalid character.  Its character
classes are ASCII, as the identifier and numeral forms are, so ``é`` or
``٣`` is an invalid character, not part of a word.  A token is a plain
record of its kind, text and position; its :class:`SourceSpan` is made
only when asked for (:attr:`Token.span`).

:func:`scan_line` scans one line; the parser calls it on each line as it
reads the line.  :func:`tokenize` is it run over each line of a whole
text, then the EOF token: the token stream in one list, for the lexer's
tests and the benchmark's lexer layer.  The interpreter never calls it.
"""

from __future__ import annotations

import enum
import re
from typing import NamedTuple

from .diagnostics import Diagnostic, SourceSpan, error


class TokenKind(enum.Enum):
    IDENT = "identifier"
    INT = "integer"
    LBRACE = "{"
    RBRACE = "}"
    LPAREN = "("
    RPAREN = ")"
    COLON = ":"
    EQUALS = "="
    DOT = "."
    COMMA = ","
    PARPAR = "||"
    EOF = "end of input"
    # keywords: valued as their own name in lower case, which is what
    # KEYWORDS picks them out by
    INTERFACE = "interface"
    ENTITY = "entity"
    ATTRIBUTE = "attribute"
    EVENT = "event"
    ACTION = "action"
    RULES = "rules"
    WHEN = "when"
    TRIGGER = "trigger"
    END = "end"
    FROM = "from"
    WITH = "with"
    VALUE = "value"
    CHANGED = "changed"
    ON = "on"
    AND = "and"
    OR = "or"
    ALL = "all"
    GROUPBY = "groupby"
    TRUE = "true"
    FALSE = "false"


KEYWORDS = {kind.value: kind for kind in TokenKind if kind.value == kind.name.lower()}


# builds a Token or SourceSpan from a tuple of all its fields, as the
# records' own ``_make`` does, without the Python-level ``__new__`` call
_new = tuple.__new__


class Token(NamedTuple):
    """One token: its kind, its text, and the 1-based line and column of
    its first character.  Its span covers the text."""

    kind: TokenKind
    text: str
    line: int
    column: int

    @property
    def span(self) -> SourceSpan:
        return _new(SourceSpan, (self.line, self.column, len(self.text)))


# the kind of each keyword and punctuation text; any other word is IDENT
_KINDS = {
    **KEYWORDS,
    "{": TokenKind.LBRACE,
    "}": TokenKind.RBRACE,
    "(": TokenKind.LPAREN,
    ")": TokenKind.RPAREN,
    ":": TokenKind.COLON,
    "=": TokenKind.EQUALS,
    ".": TokenKind.DOT,
    ",": TokenKind.COMMA,
    "||": TokenKind.PARPAR,
}

# blanks, then one of: (1) a word or punctuation, (2) a numeral,
# (3) a malformed numeral (digits running into letters or '_'), a comment,
# or (4) any other non-blank character, which is invalid.  Blanks at the
# end of a line would match nothing, and the search would retry them from
# each of their positions, so a line is scanned without them.
_SCAN = re.compile(
    r"\s*(?:"
    r"([A-Za-z][A-Za-z0-9_]*|\|\||[{}():=.,])"
    r"|([0-9]+)(?![A-Za-z0-9_])"
    r"|([0-9][A-Za-z0-9_]*)"
    r"|#.*"
    r"|(\S))"
).finditer


def scan_line(
    line: str, number: int, tokens: list[Token], diagnostics: list[Diagnostic]
) -> None:
    """Append the tokens of ``line``, the ``number``-th line of a text, to
    ``tokens``, and a diagnostic for each invalid character or malformed
    numeral to ``diagnostics``."""
    append = tokens.append
    kinds = _KINDS.get
    ident = TokenKind.IDENT
    integer = TokenKind.INT
    for match in _SCAN(line.rstrip()):
        group = match.lastindex
        if group == 1:
            word = match[1]
            append(_new(Token, (kinds(word, ident), word, number, match.start(1) + 1)))
        elif group == 2:
            append(_new(Token, (integer, match[2], number, match.start(2) + 1)))
        elif group == 3:
            bad = match[3]
            span = SourceSpan(number, match.start(3) + 1, len(bad))
            diagnostics.append(error("parse-error", f"malformed numeral {bad!r}", span))
        elif group == 4:
            span = SourceSpan(number, match.start(4) + 1, 1)
            diagnostics.append(error("parse-error", f"invalid character {match[4]!r}", span))


def end_of_input(lines: list[str]) -> Token:
    """The EOF token of a text split at ``\\n`` into ``lines``: just after
    its last character."""
    return Token(TokenKind.EOF, "", len(lines), len(lines[-1]) + 1)


def tokenize(text: str) -> tuple[list[Token], list[Diagnostic]]:
    """Scan ``text`` into tokens; invalid characters become diagnostics.

    Always succeeds: the token list ends with an EOF token and every
    problem is reported rather than raised.
    """
    tokens: list[Token] = []
    diagnostics: list[Diagnostic] = []
    lines = text.split("\n")
    for number, line in enumerate(lines, start=1):
        scan_line(line, number, tokens, diagnostics)
    tokens.append(end_of_input(lines))
    return tokens, diagnostics
