"""Reference tokenizer for differential tests.

This is the character-by-character scanner the interpreter used before
``lexer.tokenize`` scanned each line with one compiled pattern.  It walks
the text one character at a time: ``\\n`` starts a new line, any other
``str.isspace`` character is one blank column, ``#`` skips to the end of
the line, and the identifier and numeral forms are read with ASCII
character classes.  Its tokens carry their span as a field; the test
compares kinds, texts, spans and diagnostics with the package's.
Only the token kinds and the diagnostic records come from the package.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from pantagruel.diagnostics import Diagnostic, SourceSpan, error
from pantagruel.lexer import KEYWORDS, TokenKind


@dataclass(frozen=True)
class Token:
    kind: TokenKind
    text: str
    span: SourceSpan


_IDENT_START = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz")
# the longest run of identifier characters at a position (ASCII only)
_WORD = re.compile(r"[A-Za-z0-9_]*")
_DIGITS = re.compile(r"[0-9]*")

_PUNCT = {
    "{": TokenKind.LBRACE,
    "}": TokenKind.RBRACE,
    "(": TokenKind.LPAREN,
    ")": TokenKind.RPAREN,
    ":": TokenKind.COLON,
    "=": TokenKind.EQUALS,
    ".": TokenKind.DOT,
    ",": TokenKind.COMMA,
}


def tokenize(text: str) -> tuple[list[Token], list[Diagnostic]]:
    """Scan ``text`` into tokens; invalid characters become diagnostics.

    Always succeeds: the token list ends with an EOF token and every
    problem is reported rather than raised.
    """
    tokens: list[Token] = []
    diagnostics: list[Diagnostic] = []
    pos = 0
    line = 1
    col = 1

    def span(length: int) -> SourceSpan:
        return SourceSpan(line, col, length)

    while pos < len(text):
        ch = text[pos]
        if ch == "\n":
            pos += 1
            line += 1
            col = 1
            continue
        if ch.isspace():
            pos += 1
            col += 1
            continue
        if ch == "#":
            while pos < len(text) and text[pos] != "\n":
                pos += 1
                col += 1
            continue
        if "0" <= ch <= "9":
            end = _DIGITS.match(text, pos).end()
            bad_end = _WORD.match(text, end).end()
            if bad_end > end:
                bad = text[pos:bad_end]
                diagnostics.append(
                    error("parse-error", f"malformed numeral {bad!r}", span(len(bad)))
                )
                col += len(bad)
                pos = bad_end
                continue
            word = text[pos:end]
            tokens.append(Token(TokenKind.INT, word, span(len(word))))
            col += len(word)
            pos = end
            continue
        if ch in _IDENT_START:
            end = _WORD.match(text, pos).end()
            word = text[pos:end]
            kind = KEYWORDS.get(word, TokenKind.IDENT)
            tokens.append(Token(kind, word, span(len(word))))
            col += len(word)
            pos = end
            continue
        if ch == "|" and text[pos : pos + 2] == "||":
            tokens.append(Token(TokenKind.PARPAR, "||", span(2)))
            pos += 2
            col += 2
            continue
        if ch in _PUNCT:
            tokens.append(Token(_PUNCT[ch], ch, span(1)))
            pos += 1
            col += 1
            continue
        diagnostics.append(error("parse-error", f"invalid character {ch!r}", span(1)))
        pos += 1
        col += 1

    tokens.append(Token(TokenKind.EOF, "", SourceSpan(line, col, 0)))
    return tokens, diagnostics
