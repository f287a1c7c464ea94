"""Whole declaration lines against the token parser alone.

``parse_program`` reads each line that one compiled pattern takes whole
as a single token and builds its entity declaration from the match; a
text with any problem is read again by the token parser.  With the line
reader taking no line, ``parse_program`` and ``parse_entity_decl`` are
the token parser alone, the reference here: on every text both must give
equal trees, with every span equal field by field, or equal
``ParseError`` diagnostics.  The drawn texts are declaration lines with
random edits from ``tests/test_lexer.py``'s alphabet (the characters the
lexer and its oracle could read differently), placed where a declaration
may start and where it may not.
"""

from __future__ import annotations

import dataclasses
import time
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pantagruel import ParseError, parse_program
from pantagruel import parser
from pantagruel.lexer import TokenKind
from pantagruel.parser import parse_entity_decl

from support import BUILDING_FULL
from test_lexer import _PIECES

LONG_NUMERAL = "9" * 5000

HEAD = "interface I {\n  attribute a : Integer\n  attribute b : Boolean\n}\n"
RULE = "when event e from x : I value = 1 trigger action s(1) on x end"


def _spanned(node):
    """``node`` as nested tuples that include each span, which the AST's
    equality leaves out."""
    if dataclasses.is_dataclass(node):
        return (type(node).__name__,) + tuple(
            (f.name, _spanned(getattr(node, f.name))) for f in dataclasses.fields(node)
        )
    if isinstance(node, tuple):
        return tuple(_spanned(item) for item in node)
    return node


def _read(read, text):
    """The spanned tree ``read(text)`` gives, or the diagnostics of the
    ParseError it raises."""
    try:
        return _spanned(read(text))
    except ParseError as exc:
        return ("ParseError", exc.diagnostics)


def _token_parser_alone(read, text):
    """``_read``, with the declaration-line reader taking no line."""
    with mock.patch.object(parser, "_read_decl", lambda line, number: None):
        return _read(read, text)


def _assert_same_reading(text):
    assert _read(parse_program, text) == _token_parser_alone(parse_program, text)


# ── drawn declaration lines ──────────────────────────────────────

_BLANKS = st.sampled_from(["", " ", "  ", "\t", "\r", "\x0c", "\x1c", "\x85", "\u2028", "\u3000"])

# the well-formed choices for each part of a line, then the ill-formed ones
_NAMES = (["x", "l10", "x_1", "Light"], ["entity", "rules", "true", "value", "_x"])
_IFACES = (["I", "Light"], ["interface", "end", "1"])
_COLONS = ([":"], ["=", ""])
_ATTRS = (["a", "b", "room", "a_1"], ["value", "true", "é"])
_INIT_SEPS = ([":", "="], ["", "::", "."])
_LITERALS = (["0", "1", "42", "007", "true", "false"], ["truex", "1b", "x", "-1", LONG_NUMERAL])
_COMMAS = (["", ","], [",,", ";"])
_CLOSES = (["}"], ["", "}}", ")"])


@st.composite
def _decl_line(draw):
    """A declaration line: well-formed, or, about half the time, with some
    parts ill-formed and up to two random edits."""
    broken = draw(st.booleans())

    def part(choices):
        good, bad = choices
        return draw(st.sampled_from(good + bad if broken else good))

    inits = [
        "".join(
            [
                part(_ATTRS),
                draw(_BLANKS),
                part(_INIT_SEPS),
                draw(_BLANKS),
                part(_LITERALS),
                draw(_BLANKS),
                part(_COMMAS),
                draw(_BLANKS),
            ]
        )
        for _ in range(draw(st.integers(0, 3)))
    ]
    line = "".join(
        [
            draw(_BLANKS),
            draw(st.sampled_from(["", "", "entity ", "entity\t"])),
            part(_NAMES),
            draw(_BLANKS),
            part(_COLONS),
            draw(_BLANKS),
            part(_IFACES),
            draw(_BLANKS),
            "{",
            draw(_BLANKS),
            *inits,
            part(_CLOSES),
            draw(_BLANKS),
            draw(st.sampled_from(["", "", "# note", "#}", " # x : I { a : 1 }"])),
        ]
    )
    # random edits: insert, delete or replace one character
    for _ in range(draw(st.integers(0, 2)) if broken else 0):
        at = draw(st.integers(0, len(line)))
        edit = draw(st.sampled_from(["insert", "delete", "replace"]))
        piece = draw(st.sampled_from(_PIECES))
        if edit == "insert":
            line = line[:at] + piece + line[at:]
        else:
            line = line[:at] + (piece if edit == "replace" else "") + line[at + 1 :]
    return line


@st.composite
def _program(draw):
    """A program with drawn declaration lines where a declaration may start
    (between the interfaces and the rules, and after a lone ``entity``),
    and where one may not (inside an interface body, inside the rules
    block, after the rules block, two on one line); LF or CRLF."""
    decls = draw(st.lists(_decl_line(), min_size=1, max_size=4))
    first, rest = decls[0], "\n".join(decls[1:])
    where = draw(
        st.sampled_from(
            ["spec", "spec", "spec", "interface", "rules", "after rules", "one line", "entity"]
        )
    )
    if where == "interface":
        text = f"interface I {{\n  attribute a : Integer\n{first}\n}}\n{rest}\nrules\n{RULE}\nend\n"
    elif where == "rules":
        text = f"{HEAD}{rest}\nrules\n{first}\n{RULE}\nend\n"
    elif where == "after rules":
        text = f"{HEAD}{rest}\nrules\n{RULE}\nend\n{first}\n"
    elif where == "one line":
        text = f"{HEAD}{' '.join(decls)}\nrules\n{RULE}\nend\n"
    elif where == "entity":
        text = f"{HEAD}entity\n{first}\n{rest}\nrules\n{RULE}\nend\n"
    else:
        text = f"{HEAD}{first}\n{rest}\nrules\n{RULE}\nend\n"
    if draw(st.booleans()):
        text = text.replace("\n", "\r\n")
    return text


@settings(max_examples=400, deadline=None)
@given(_program())
def test_programs_read_as_by_the_token_parser(text):
    _assert_same_reading(text)


@settings(max_examples=300, deadline=None)
@given(_decl_line())
def test_declarations_read_as_by_the_token_parser(line):
    assert _read(parse_entity_decl, line) == _token_parser_alone(parse_entity_decl, line)


# ── pinned edge cases ────────────────────────────────────────────


@pytest.mark.parametrize(
    "line",
    [
        "x\u00a0:\u3000I\u2028{\x85a\x0c:\x0b1\t}",
        "entity x : I { a = 1, b : true, }",
        "x:I{a:1,b:false}",
        "x : I {}",
        "x : I { a : 1 } # a comment",
        "x : I { a : 1 } #",
        "x : I { a : 1 }\r",
        "  x : I {   a : 1   b : true   }  ",
        "x : I { a : 1",
        "x : I { a : 1,, b : true }",
        "x : I { , a : 1 }",
        "x : I { a : truex }",
        "x : I { a : 1b }",
        "x : I { a 1 }",
        "rules : I { a : 1 }",
        "x : end { a : 1 }",
        "x : I { value : 1 }",
        "entity entity : I { a : 1 }",
        "entity : I { a : 1 }",
        f"x : I {{ a : {LONG_NUMERAL} }}",
        "x : I { a : 1 } y : I { a : 2 }",
        "x : I { a : 1 } }",
        "x : I { a : é }",
        "x : I { a : ٣ }",
        "x : I { a : 1 }",
        "x\x1c: I { a : 1 }",
        "x : I {\n  a : 1 }",
        "x : I { a : 1 }\ny : I { b : true }",
    ],
)
def test_fixed_lines_read_as_by_the_token_parser(line):
    for text in (
        f"{HEAD}{line}\nrules\n{RULE}\nend\n",
        f"{HEAD}{line}\r\nrules\r\n{RULE}\r\nend\r\n",
        f"interface I {{\n  attribute a : Integer\n{line}\n}}\nrules\n{RULE}\nend\n",
        f"{HEAD}rules\n{line}\n{RULE}\nend\n",
        f"{HEAD}entity\n{line}\nrules\n{RULE}\nend\n",
    ):
        _assert_same_reading(text)
    assert _read(parse_entity_decl, line) == _token_parser_alone(parse_entity_decl, line)


def test_declaration_lines_are_read_whole():
    """Each entity line of the demo program is one token, and the trees
    equal the token parser's with their spans."""
    tokens, diagnostics, decls = parser._fold(BUILDING_FULL)
    entities = parse_program(BUILDING_FULL).spec.entities
    assert diagnostics == []
    assert [t.line for t in tokens if t.kind is TokenKind.DECL] == sorted(decls)
    assert list(decls.values()) == list(entities) and len(entities) == 8
    _assert_same_reading(BUILDING_FULL)


def test_a_problem_ends_the_folded_reading():
    """The folded reading stops at the first problem, before the
    declaration lines after it, and leaves the diagnostics to the token
    parser."""
    text = HEAD + "interface J {\n  x : I { a : 1 }\n}\n" + "y : I { a : 2 }\n" * 100
    tokens, diagnostics, decls = parser._fold(text)
    assert diagnostics == [] and len(decls) == 101
    reading = parser._Parser(tokens, diagnostics, decls)
    with pytest.raises(parser._Refold):
        reading.parse_program()
    assert tokens[reading.pos].line == 6
    _assert_same_reading(text)


def _refused_line(blanks):
    """A line that is refused only at its end, after runs of ``blanks``
    blanks between its words."""
    gap = " " * blanks
    return f"x{gap}:{gap}I{gap}{{{gap}a{gap}:{gap}1{gap},{gap}b"


def _refusal_seconds(line):
    """The best of five times to refuse ``line``."""
    best = float("inf")
    for _ in range(5):
        started = time.perf_counter()
        assert parser._read_decl(line, 1) is None
        best = min(best, time.perf_counter() - started)
    return best


def test_a_refused_declaration_line_is_refused_in_linear_time():
    """A line the pattern refuses after long runs of blanks is refused
    without trying each way to split them: ten times the blanks cost
    about ten times the time, not a hundred."""
    line = _refused_line(10_000)
    assert parser._read_decl(line + "}", 1) is None
    assert parser._read_decl(line + ":1}", 1) is not None
    assert _refusal_seconds(line) < 30 * _refusal_seconds(_refused_line(1_000))
