"""Recursive-descent parser producing a :class:`ProgramAst`.

Parsing is total: any input yields either an AST or a :class:`ParseError`
carrying one diagnostic per problem found.  The parser recovers at
declaration boundaries so several errors can be reported in one pass.

The parser scans the text a line at a time as it asks for tokens, so
each line is read once.  Most of a program is entity declarations, one
per line, so where a declaration may start and no token is left unread,
the next line is first offered to one compiled pattern (``[entity] name
: Interface { attr : literal [,] ... }``, blanks and a trailing comment
allowed).  A line it takes is not tokenized: its declaration is built
from the match's offsets, with the spans the token parser gives it.  A
line whose names include a keyword, or whose numeral is longer than
``int`` converts, is tokenized instead.  Diagnostics list the lexer's,
in line order, then the parser's.  Scripted deploys
(:func:`parse_entity_decl`) read their line with the same pattern.

Shape decisions: ``and`` binds tighter than ``or`` and ``,`` binds tighter
than ``||``, all left-associative; the ``entity`` keyword is optional (bare
``name:Interface { ... }`` is accepted); entity initializers accept ``:``
or ``=``; ``all ... groupby`` aggregation is parsed into an
:class:`Aggregate` wrapper that later stages reject.
"""

from __future__ import annotations

import re

from .ast import (
    ActionCall,
    ActionExpr,
    ActionPar,
    ActionSeq,
    Aggregate,
    BoolLit,
    BoolTest,
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
    Literal,
    MemberDecl,
    NumLit,
    Path,
    ProgramAst,
    RuleAst,
    SpecAst,
    TypeTag,
    ValueChanged,
    ValueEq,
)
from typing import Callable, NoReturn, TypeVar

from .diagnostics import Diagnostic, SourceSpan, error
from .lexer import KEYWORDS, NAME, WORD_END, Token, TokenKind, end_of_input, scan_line

_TYPE_NAMES = {"Integer": TypeTag.NAT, "Boolean": TypeTag.BOOL}
_MEMBER_KINDS = (TokenKind.ATTRIBUTE, TokenKind.EVENT, TokenKind.ACTION)
_RULE_SYNC = (TokenKind.WHEN, TokenKind.LPAREN, TokenKind.END, TokenKind.EOF)
_EOF = TokenKind.EOF
_Chained = TypeVar("_Chained", EventExpr, ActionExpr)

# A whole entity-declaration line, ``[entity] name : Interface { attr :
# literal [,] ... }``, with blanks anywhere the token parser allows them
# and an optional trailing comment.  Names, numerals and ``true``/``false``
# end where the lexer ends them, so the pattern splits a line into the
# words the lexer would.  Blanks exclude ``\n``, the one line break, so a
# match lies on one line; no two blank runs are adjacent, so a line the
# pattern refuses is refused without trying each split of its blanks.
_BLANK = r"[^\S\n]*"
_INIT = (
    rf"({NAME}){_BLANK}[:=]{_BLANK}((?:[0-9]+|true|false){WORD_END})"
    rf"{_BLANK}(?:,{_BLANK})?"
)
_DECL_LINE = re.compile(
    rf"{_BLANK}(?:entity[^\S\n]+)?({NAME}){_BLANK}:{_BLANK}({NAME}){_BLANK}"
    rf"\{{{_BLANK}((?:{_INIT})*)\}}{_BLANK}(?:#.*)?"
).fullmatch
_INITS = re.compile(_INIT).finditer
# builds a SourceSpan from a tuple of its fields, as the lexer does
_new = tuple.__new__


class ParseError(Exception):
    """Raised when a source text contains syntax errors."""

    def __init__(self, diagnostics: list[Diagnostic]):
        self.diagnostics = diagnostics
        super().__init__("; ".join(d.message for d in diagnostics))


class _Bail(Exception):
    """Internal signal: abandon the current declaration and resynchronize."""


class _Parser:
    """A cursor over the tokens of one text, scanned a line at a time:
    ``tokens`` holds those of the first ``read`` lines, then, once every
    line is read, the EOF token.  ``pos`` indexes the current token, and
    the per-token helpers scan more lines only when it is past the last
    one read.  The cursor never moves past EOF."""

    def __init__(self, text: str):
        self.lines = text.split("\n")
        self.read = 0
        self.tokens: list[Token] = []
        self.pos = 0
        self.lexed: list[Diagnostic] = []  # the lexer's diagnostics
        self.diagnostics: list[Diagnostic] = []

    # ── token access ─────────────────────────────────────────────

    def _scan(self, index: int) -> None:
        """Scan lines until token ``index`` is read, or the EOF token is."""
        tokens, lines = self.tokens, self.lines
        while len(tokens) <= index and self.read <= len(lines):
            if self.read == len(lines):
                tokens.append(end_of_input(lines))
            else:
                scan_line(lines[self.read], self.read + 1, tokens, self.lexed)
            self.read += 1

    def _current(self) -> Token:
        try:
            return self.tokens[self.pos]
        except IndexError:
            self._scan(self.pos)
            return self.tokens[self.pos]

    def _at(self, *kinds: TokenKind) -> bool:
        return self._current().kind in kinds

    def _peek(self, offset: int) -> Token:
        index = self.pos + offset
        self._scan(index)
        return self.tokens[min(index, len(self.tokens) - 1)]

    def _advance(self) -> Token:
        tok = self._current()
        if tok.kind is not _EOF:
            self.pos += 1
        return tok

    def _error(self, message: str, token: Token | None = None) -> None:
        tok = token or self._current()
        self.diagnostics.append(error("parse-error", message, tok.span))

    def _fail(self, message: str) -> NoReturn:
        self._error(message)
        raise _Bail()

    def _expect(self, kind: TokenKind, what: str) -> Token:
        """Consume a token of ``kind``, which is never EOF, or fail."""
        tok = self._current()
        if tok.kind is kind:
            self.pos += 1
            return tok
        got = tok.text or str(tok.kind.value)
        self._fail(f"expected {what}, got {got!r}")

    def _nat(self, what: str) -> int:
        """Consume an integer token and return its value; a numeral longer
        than the interpreter converts to ``int`` is reported, not raised."""
        tok = self._expect(TokenKind.INT, what)
        try:
            return int(tok.text)
        except ValueError:
            self._error(f"numeral too long ({len(tok.text)} digits)", tok)
            raise _Bail() from None

    def _sync(self, kinds: tuple[TokenKind, ...]) -> None:
        while not self._at(*kinds):
            self._advance()

    def _raise_problems(self) -> None:
        """Raise :class:`ParseError` if there is any problem: the lexer's
        diagnostics, in line order, then the parser's.  Lines left unread
        are scanned for the lexer's first."""
        lines = self.lines
        for number in range(self.read, len(lines)):
            scan_line(lines[number], number + 1, [], self.lexed)
        if self.lexed or self.diagnostics:
            raise ParseError(self.lexed + self.diagnostics)

    # ── program ──────────────────────────────────────────────────

    def parse_program(self) -> ProgramAst:
        interfaces: list[InterfaceDecl] = []
        entities: list[EntityDecl] = []
        lines, tokens = self.lines, self.tokens
        skipping = False  # after an error: to the next interface, entity or rules
        while True:
            # a declaration may start here: while no token is left unread,
            # the next line is offered to the pattern before it is scanned;
            # while skipping, a line it takes is skipped too, unless it
            # starts with the 'entity' keyword, where skipping tokens stops
            while self.pos == len(tokens) and self.read < len(lines):
                line = lines[self.read]
                self.read += 1
                decl = _read_decl(line, self.read)
                if decl is None:
                    scan_line(line, self.read, tokens, self.lexed)
                elif not skipping or line[: decl.span.column - 1].strip():
                    skipping = False
                    entities.append(decl)
            if self._at(TokenKind.RULES, TokenKind.EOF):
                break
            if skipping and not self._at(TokenKind.INTERFACE, TokenKind.ENTITY):
                self.pos += 1
                continue
            skipping = False
            try:
                if self._at(TokenKind.INTERFACE):
                    interfaces.append(self._interface_decl())
                elif self._at(TokenKind.ENTITY):
                    self._advance()
                    entities.append(self._entity_decl())
                elif self._at(TokenKind.IDENT) and self._peek(1).kind is TokenKind.COLON:
                    entities.append(self._entity_decl())
                else:
                    self._fail("expected an interface, entity, or rules block")
            except _Bail:
                skipping = True
        rules = self._rule_block()
        if not self._at(TokenKind.EOF):
            self._error("unexpected text after the rules block")
        return ProgramAst(SpecAst(tuple(interfaces), tuple(entities)), tuple(rules))

    # ── specification layer ──────────────────────────────────────

    def _interface_decl(self) -> InterfaceDecl:
        start = self._expect(TokenKind.INTERFACE, "'interface'")
        name = self._expect(TokenKind.IDENT, "interface name")
        self._expect(TokenKind.LBRACE, "'{'")
        attributes: list[MemberDecl] = []
        events: list[MemberDecl] = []
        actions: list[MemberDecl] = []
        while self._at(*_MEMBER_KINDS):
            keyword = self._advance()
            member = self._expect(TokenKind.IDENT, "member name")
            if keyword.kind is TokenKind.ACTION:
                self._expect(TokenKind.LPAREN, "'('")
                ty = self._type_name()
                self._expect(TokenKind.RPAREN, "')'")
                actions.append(MemberDecl(member.text, ty, member.span))
            else:
                self._expect(TokenKind.COLON, "':'")
                ty = self._type_name()
                target = attributes if keyword.kind is TokenKind.ATTRIBUTE else events
                target.append(MemberDecl(member.text, ty, member.span))
        if self._at(TokenKind.EOF):
            self._fail(f"unterminated interface {name.text!r}")
        self._expect(TokenKind.RBRACE, "'}' or a member declaration")
        return InterfaceDecl(
            name.text, tuple(attributes), tuple(events), tuple(actions), start.span
        )

    def _type_name(self) -> TypeTag:
        tok = self._expect(TokenKind.IDENT, "type name")
        ty = _TYPE_NAMES.get(tok.text)
        if ty is None:
            self._fail(f"unknown type {tok.text!r} (expected Integer or Boolean)")
        return ty

    def _entity_decl(self) -> EntityDecl:
        name = self._expect(TokenKind.IDENT, "entity name")
        self._expect(TokenKind.COLON, "':'")
        iface = self._expect(TokenKind.IDENT, "interface name")
        self._expect(TokenKind.LBRACE, "'{'")
        inits: list[InitDecl] = []
        while self._at(TokenKind.IDENT):
            attr = self._advance()
            if not self._at(TokenKind.COLON, TokenKind.EQUALS):
                self._fail("expected ':' or '=' after attribute name")
            self._advance()
            inits.append(InitDecl(attr.text, self._literal(), attr.span))
            if self._at(TokenKind.COMMA):
                self._advance()
        if self._at(TokenKind.EOF):
            self._fail(f"unterminated entity {name.text!r}")
        self._expect(TokenKind.RBRACE, "'}' or an initializer")
        return EntityDecl(name.text, iface.text, tuple(inits), name.span)

    def _literal(self) -> Literal:
        tok = self._current()
        if tok.kind is TokenKind.INT:
            return NumLit(self._nat("an integer"), tok.span)
        if tok.kind in (TokenKind.TRUE, TokenKind.FALSE):
            self._advance()
            return BoolLit(tok.kind is TokenKind.TRUE, tok.span)
        self._fail(f"expected a literal, got {tok.text or tok.kind.value!r}")

    # ── orchestration layer ──────────────────────────────────────

    def _rule_block(self) -> list[RuleAst]:
        if not self._at(TokenKind.RULES):
            self._error("expected a rules block ('rules ... end')")
            return []
        self._advance()
        rules: list[RuleAst] = []
        while not self._at(TokenKind.END, TokenKind.EOF):
            try:
                rules.append(self._rule())
            except _Bail:
                self._sync(_RULE_SYNC)
                # a stray 'end' left behind by a broken rule: step over it
                if self._at(TokenKind.END) and self._peek(1).kind in _RULE_SYNC:
                    self._advance()
        if self._at(TokenKind.EOF):
            self._error("unterminated rules block (missing 'end')")
        else:
            self._advance()
        return rules

    def _rule(self) -> RuleAst:
        label: int | None = None
        start = self._current()
        if self._at(TokenKind.LPAREN):
            self._advance()
            label = self._nat("rule label")
            self._expect(TokenKind.RPAREN, "')'")
        self._expect(TokenKind.WHEN, "'when'")
        condition = self._event_or()
        self._expect(TokenKind.TRIGGER, "'trigger'")
        body = self._action_par()
        self._expect(TokenKind.END, "'end'")
        return RuleAst(label, condition, body, start.span)

    def _chain(
        self,
        operand: Callable[[], _Chained],
        kind: TokenKind,
        node: Callable[[_Chained, _Chained, SourceSpan], _Chained],
    ) -> _Chained:
        """``operand (kind operand)*``, folded left: each operator makes a
        ``node`` of what is folded so far and the next operand, spanning
        the operator's token."""
        left = operand()
        while self._at(kind):
            op = self._advance()
            left = node(left, operand(), op.span)
        return left

    def _event_or(self) -> EventExpr:
        return self._chain(self._event_and, TokenKind.OR, EventOr)

    def _event_and(self) -> EventExpr:
        return self._chain(self._event_atom, TokenKind.AND, EventAnd)

    def _event_atom(self) -> EventExpr:
        start = self._current()
        aggregated = self._at(TokenKind.ALL)
        if aggregated:
            self._advance()
        self._expect(TokenKind.EVENT, "'event'")
        name = self._expect(TokenKind.IDENT, "event name")
        self._expect(TokenKind.FROM, "'from'")
        decl = self._decl()
        filt = self._filter()
        test = self._bool_test()
        group_key: str | None = None
        if self._at(TokenKind.GROUPBY):
            self._advance()
            group_key = self._expect(TokenKind.IDENT, "groupby key").text
            aggregated = True
        atom = EventAtom(name.text, decl, filt, test, start.span)
        if aggregated:
            return Aggregate(atom, group_key, start.span)
        return atom

    def _bool_test(self) -> BoolTest:
        start = self._expect(TokenKind.VALUE, "'value'")
        if self._at(TokenKind.CHANGED):
            self._advance()
            return ValueChanged(start.span)
        self._expect(TokenKind.EQUALS, "'changed' or '='")
        return ValueEq(self._expr(), start.span)

    def _decl(self) -> Decl:
        name = self._expect(TokenKind.IDENT, "entity variable or entity name")
        if self._at(TokenKind.COLON):
            self._advance()
            iface = self._expect(TokenKind.IDENT, "interface name")
            return DeclTyped(name.text, iface.text, name.span)
        return DeclBare(name.text, name.span)

    def _filter(self) -> Filter | None:
        if not self._at(TokenKind.WITH):
            return None
        self._advance()
        attr = self._expect(TokenKind.IDENT, "attribute name")
        self._expect(TokenKind.EQUALS, "'='")
        return Filter(attr.text, self._expr(), attr.span)

    def _action_par(self) -> ActionExpr:
        return self._chain(self._action_seq, TokenKind.PARPAR, ActionPar)

    def _action_seq(self) -> ActionExpr:
        return self._chain(self._action_call, TokenKind.COMMA, ActionSeq)

    def _action_call(self) -> ActionExpr:
        start = self._expect(TokenKind.ACTION, "'action'")
        name = self._expect(TokenKind.IDENT, "action name")
        self._expect(TokenKind.LPAREN, "'('")
        arg = self._expr()
        self._expect(TokenKind.RPAREN, "')'")
        self._expect(TokenKind.ON, "'on'")
        decl = self._decl()
        filt = self._filter()
        return ActionCall(name.text, arg, decl, filt, start.span)

    def _expr(self) -> Expr:
        tok = self._current()
        if tok.kind in (TokenKind.INT, TokenKind.TRUE, TokenKind.FALSE):
            return self._literal()
        if tok.kind is TokenKind.IDENT:
            self._advance()
            self._expect(TokenKind.DOT, "'.' (member access)")
            member = self._expect(TokenKind.IDENT, "member name")
            return Path(tok.text, member.text, tok.span)
        self._fail(f"expected a value expression, got {tok.text or tok.kind.value!r}")


def _read_decl(line: str, number: int) -> EntityDecl | None:
    """The entity declaration that ``line``, the ``number``-th line of a
    text, holds whole, with the records and spans the token parser makes
    of it; None if the declaration pattern does not take the line, or if
    a name, interface or attribute is a keyword or a numeral is longer
    than ``int`` converts, which the token parser reads instead."""
    match = _DECL_LINE(line)
    if match is None:
        return None
    name, iface = match[1], match[2]
    if name in KEYWORDS or iface in KEYWORDS:
        return None
    inits: list[InitDecl] = []
    start, end = match.span(3)
    for init in _INITS(line, start, end):
        attr, text = init.groups()
        if attr in KEYWORDS:
            return None
        span = _new(SourceSpan, (number, init.start(2) + 1, len(text)))
        if text == "true" or text == "false":
            value: Literal = BoolLit(text == "true", span)
        else:
            try:
                value = NumLit(int(text), span)
            except ValueError:
                return None
        span = _new(SourceSpan, (number, init.start() + 1, len(attr)))
        inits.append(InitDecl(attr, value, span))
    span = _new(SourceSpan, (number, match.start(1) + 1, len(name)))
    return EntityDecl(name, iface, tuple(inits), span)


def parse_program(text: str) -> ProgramAst:
    """Parse a full program; raise :class:`ParseError` listing all problems.

    The text is read once, a line at a time as the parser goes; each line
    the declaration pattern takes whole where a declaration may start is
    read as that declaration, and no line is read again.  Recovery after
    an error offers lines to the pattern too, so it skips a declaration
    line without scanning it.
    """
    parser = _Parser(text)
    program = parser.parse_program()
    parser._raise_problems()
    return program


def parse_entity_decl(text: str) -> EntityDecl:
    """Parse a single ``name:Interface { ... }`` declaration (scripted deploys)."""
    decl = _read_decl(text, 1)
    if decl is not None:
        return decl
    parser = _Parser(text)
    try:
        if parser._at(TokenKind.ENTITY):
            parser._advance()
        decl = parser._entity_decl()
        if not parser._at(TokenKind.EOF):
            parser._error("unexpected text after entity declaration")
    except _Bail:
        decl = None
    parser._raise_problems()
    assert decl is not None
    return decl
