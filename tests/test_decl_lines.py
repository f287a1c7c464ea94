"""Whole declaration lines against the token parser alone.

``parse_program`` reads a text once, a line at a time, and where a
declaration may start it builds the entity declaration of each line
that one compiled pattern takes whole from the match, without
tokenizing the line.  With the line reader taking no line,
``parse_program`` and ``parse_entity_decl`` are the token parser alone,
the reference here: on every text both must give equal trees, with
every span equal field by field, or equal ``ParseError`` diagnostics.
The drawn texts are declaration lines with random edits from
``tests/test_lexer.py``'s alphabet (the characters the lexer and its
oracle could read differently), placed where a declaration may start
and where it may not.  Each line of a text, clean or not, is
read exactly once: taken whole, or scanned.
"""

from __future__ import annotations

import collections
import dataclasses
import time
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pantagruel import ParseError, parse_program
from pantagruel import parser
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
def _decl_line(draw, broken=None):
    """A declaration line: well-formed, or, about half the time (always if
    ``broken``), with some parts ill-formed and up to two random edits."""
    if broken is None:
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
    block, after the rules block, two on one line), and a broken one
    before many well-formed ones; LF or CRLF."""
    decls = draw(st.lists(_decl_line(), min_size=1, max_size=4))
    first, rest = decls[0], "\n".join(decls[1:])
    where = draw(
        st.sampled_from(
            ["spec"] * 3
            + ["interface", "rules", "after rules", "one line", "entity", "after broken"]
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
    elif where == "after broken":
        broken = draw(_decl_line(broken=True))
        good = "\n".join(draw(st.lists(_decl_line(broken=False), min_size=5, max_size=30)))
        text = f"{HEAD}{broken}\n{good}\nrules\n{RULE}\nend\n"
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


def _lines_read(text):
    """How many times ``parse_program`` reads each line of ``text``, by
    line number, and the numbers of the lines taken whole."""
    reads: collections.Counter[int] = collections.Counter()
    taken: list[int] = []
    read_decl, scan_line = parser._read_decl, parser.scan_line

    def counted_read_decl(line, number):
        decl = read_decl(line, number)
        if decl is not None:
            reads[number] += 1
            taken.append(number)
        return decl

    def counted_scan_line(line, number, tokens, diagnostics):
        reads[number] += 1
        scan_line(line, number, tokens, diagnostics)

    with mock.patch.object(parser, "_read_decl", counted_read_decl), mock.patch.object(
        parser, "scan_line", counted_scan_line
    ):
        _read(parse_program, text)
    return reads, taken


def _insert_line(text, line, at):
    """``text`` with ``line`` inserted before its ``at``-th line (1-based)."""
    lines = text.split("\n")
    return "\n".join(lines[: at - 1] + [line] + lines[at - 1 :])


_ENTITY_LINES = [
    number
    for number, line in enumerate(BUILDING_FULL.split("\n"), start=1)
    if parser._read_decl(line, number) is not None
]
_RULES_LINE = BUILDING_FULL.split("\n").index("rules") + 1


@pytest.mark.parametrize(
    "text, taken",
    [
        (BUILDING_FULL, _ENTITY_LINES),
        # inside the first interface: every entity line comes one later
        (_insert_line(BUILDING_FULL, "x : : I { }", 2), [n + 1 for n in _ENTITY_LINES]),
        (_insert_line(BUILDING_FULL, "x : : I { }", _RULES_LINE), _ENTITY_LINES),
        # recovery skips to the next 'entity' keyword, and offers each line
        # to the pattern while it skips
        (
            _insert_line(BUILDING_FULL, "x : : I { }", _ENTITY_LINES[0]),
            [n + 1 for n in _ENTITY_LINES],
        ),
    ],
    ids=[
        "clean",
        "malformed second line",
        "malformed line before rules",
        "malformed first entity line",
    ],
)
def test_each_line_is_read_once(text, taken):
    """Each line is read exactly once, taken whole or scanned, on a clean
    text and after an error; every entity line of the demo program is
    taken whole, after an error too, and the trees or diagnostics equal
    the token parser's."""
    reads, taken_lines = _lines_read(text)
    assert len(_ENTITY_LINES) == 8
    assert reads == {number: 1 for number in range(1, len(text.split("\n")) + 1)}
    assert taken_lines == taken
    _assert_same_reading(text)


def test_lines_left_unread_are_scanned_for_the_lexer():
    """A parse that stops before the last lines still reports their
    lexer diagnostics, and before the parser's."""
    text = f"{HEAD}rules\n{RULE}\nend\nx\n@\n"
    with pytest.raises(ParseError) as raised:
        parse_program(text)
    assert [d.message for d in raised.value.diagnostics] == [
        "invalid character '@'",
        "unexpected text after the rules block",
    ]
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
