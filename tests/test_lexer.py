"""The lexer against the character-by-character reference scanner.

``tests/lexer_oracle.py`` is the scanner ``lexer.tokenize`` replaced; on
every text, both must give the same kinds, texts, spans ``(line, column,
length)`` and diagnostics.  The drawn texts mix keywords, identifiers,
ASCII digits and the punctuation with the characters the two could read
differently: the line breaks other than ``\\n``, Unicode blanks, and a
letter and a digit outside ASCII.
"""

from __future__ import annotations

import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lexer_oracle
from pantagruel.diagnostics import SourceSpan
from pantagruel.lexer import KEYWORDS, TokenKind, tokenize
from pantagruel.parser import ParseError, parse_program
from pantagruel.script import ScriptError, parse_line

_PIECES = (
    *KEYWORDS,
    "m10",
    "Light",
    "x_1",
    "0",
    "7",
    "42",
    *"{}():=.,|#_",
    " ",
    "\n",
    "\r",
    "\t",
    "\x0b",
    "\x0c",
    "\x1c",
    "\x85",
    "\u00a0",
    "\u2028",
    "\u3000",
    "é",
    "٣",
)

texts = st.lists(st.sampled_from(_PIECES), max_size=40).map("".join)


def _lexed(text):
    tokens, diagnostics = tokenize(text)
    return [(t.kind, t.text, tuple(t.span)) for t in tokens], diagnostics


def _oracle(text):
    tokens, diagnostics = lexer_oracle.tokenize(text)
    return [(t.kind, t.text, tuple(t.span)) for t in tokens], diagnostics


@settings(max_examples=400, deadline=None)
@given(texts)
def test_tokens_and_diagnostics_equal_the_reference_scanner(text):
    assert _lexed(text) == _oracle(text)


@pytest.mark.parametrize(
    "text",
    [
        "",
        "rules end   \t ",
        "x # a comment at the end, with no newline",
        "interface I {\r\n  event e : Boolean\r\n}\r\n",
        "a\nb\n",
        "12ab_ 3",
        "_x",
        "a|b || c",
        "é٣ 1٣ x\u2028y\x85z",
    ],
)
def test_fixed_texts_equal_the_reference_scanner(text):
    assert _lexed(text) == _oracle(text)


def test_eof_sits_after_the_last_character():
    tokens, _ = tokenize("a\nbc  \n  ")
    assert tokens[-1].kind is TokenKind.EOF
    assert tokens[-1].span == SourceSpan(3, 3, 0)


def test_trailing_blanks_are_not_invalid_characters():
    tokens, diagnostics = tokenize("end \t\r\x0c\u3000")
    assert [t.kind for t in tokens] == [TokenKind.END, TokenKind.EOF]
    assert diagnostics == []


def test_blanks_that_end_a_line_are_scanned_once():
    """10 000 blanks ending a line take well under a millisecond to scan;
    a search that retried them from each of their positions took seconds."""
    text = "a" + " " * 10_000 + "\nb" + "\t" * 10_000
    started = time.perf_counter()
    got = _lexed(text)
    assert time.perf_counter() - started < 1.0
    assert got == _oracle(text)


def test_a_malformed_numeral_spans_its_whole_word():
    _, diagnostics = tokenize("x 12ab_ y")
    assert [(d.message, d.span) for d in diagnostics] == [
        ("malformed numeral '12ab_'", SourceSpan(1, 3, 5))
    ]


def test_underscore_and_lone_bar_are_invalid_characters():
    tokens, diagnostics = tokenize("_x a|b")
    assert [(t.kind, t.text) for t in tokens] == [
        (TokenKind.IDENT, "x"),
        (TokenKind.IDENT, "a"),
        (TokenKind.IDENT, "b"),
        (TokenKind.EOF, ""),
    ]
    assert [(d.message, d.span) for d in diagnostics] == [
        ("invalid character '_'", SourceSpan(1, 1, 1)),
        ("invalid character '|'", SourceSpan(1, 5, 1)),
    ]


def test_non_ascii_letters_and_digits_are_invalid_characters():
    tokens, diagnostics = tokenize("aé 1٣")
    assert [(t.kind, t.text) for t in tokens] == [
        (TokenKind.IDENT, "a"),
        (TokenKind.INT, "1"),
        (TokenKind.EOF, ""),
    ]
    assert [d.message for d in diagnostics] == [
        "invalid character 'é'",
        "invalid character '٣'",
    ]


@pytest.mark.parametrize(
    "name, accepted",
    [("a_1", True), ("Ab9", True), ("_a", False), ("1a", False), ("é", False),
     ("aé", False), ("a-b", False)],
)
def test_a_name_is_one_word_alike_to_the_lexer_the_program_and_the_script(name, accepted):
    """The identifier form is spelled once, in the lexer: a name the lexer
    reads as one identifier is taken in each name place of a program's
    entity line and of a script line, and any other is refused there."""
    tokens, diagnostics = tokenize(name)
    one_word = [(t.kind, t.text) for t in tokens[:-1]] == [(TokenKind.IDENT, name)]
    assert (one_word and not diagnostics) is accepted

    def reads(parse, text: str) -> bool:
        try:
            parse(text)
        except (ParseError, ScriptError):
            return False
        return True

    interface = "interface I { attribute a : Integer event e : Integer }"
    for line in (
        f"entity {name} : I {{ a : 1 }}",
        f"entity x : {name} {{ a : 1 }}",
        f"entity x : I {{ {name} : 1 }}",
    ):
        # as a whole line, and broken over two, which the token parser reads
        for decl in (line, line.replace("{", "\n{", 1)):
            assert reads(parse_program, f"{interface}\n{decl}\nrules end\n") is accepted, decl
    for line in (
        f"event {name}.e = 1",
        f"attr x.{name} = 1",
        f"remove {name}",
        f"deploy {name} : I {{ a : 1 }}",
    ):
        assert reads(parse_line, line) is accepted, line
