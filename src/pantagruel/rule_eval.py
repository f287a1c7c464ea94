"""Rule evaluation against a dual store.

A rule's entity environment (:func:`_environment`, which the rule's plan
keeps) is the interface of each open variable, and the binding of the
bare names: a bare name binds itself if it is a current entity, so a
variable of the rule is never taken over by an entity of the same name,
as the checker resolves it; any other stays unbound (its atom or call
stays inert).  A binding maps each name bound to an entity to that
entity's id; a name it lacks is unbound.  The one loop nest
(:meth:`_Source.nest`, which :func:`instantiate` runs too) extends it
over the matching entities.  For each binding the rule's condition (what the pool tests
below leave of it) is tested and, if it holds, its body writes the
binding's effects into one flat map of :data:`Effects`, ``(entity,
action)`` to the value written, and no entity is built.  Each binding's
map is folded into the rule's one map, and each rule's into the block's,
with the conflict check of the one merge, :func:`~pantagruel.domains.fold`.
That map is all a block produces besides its :class:`FiredRule` labels
and bindings; ``step`` layers it by id (:func:`grouped`), and only
:func:`eval_rule` makes it a store, once (:func:`_store_of`).

Which bindings are built is decided here, and only here.  What that
reads of the rule and the trigger mode alone is the rule's plan: its
environment's open variables and bare names, its condition's conjuncts
sorted against them, each open variable's pool, and the body's equality.
:func:`plan_block` plans a whole block, with the lists the block reads,
and ``step`` keeps that plan for the run, planning again only for other
rules or another mode; :func:`eval_rule` plans its one rule on each call.

A plan holds its rule as code.  :func:`_plan_rule` specialises this
evaluator to the rule (the first Futamura projection; Jones, Gomard and
Sestoft, *Partial Evaluation and Automatic Program Generation*, 1993):
it emits the source of one Python function (:class:`_Source`), with
every event name, member and literal written in as its ``repr()`` and
the mode decided, and compiles it through the one cache of generated
code (:func:`compiled`), keyed by the text.  So no
binding's evaluation looks at the rule's syntax, and a candidate costs
no Python call: each pool's tests, the closed atoms, the body's join, the
binding loops, the conjuncts left to whole bindings and the body's
writes are inline statements, one per operand of a chain, whatever its
length, and each firing is built as a tuple is.

On a dual store, the function gives each open variable its finished pool
of sorted ids, which its loop nest only enumerates.  A pool starts from a list the dual store keeps
(:meth:`~pantagruel.domains.DualStore.ids` and ``changed``), shared with
every rule of the tick.  Which lists a rule block reads is fixed by its
plan (:attr:`BlockPlan.lists`), and :func:`eval_plan`, through which
every evaluation runs, is the one place a pair is listed: it builds
them all before any rule reads the pair, which, carried by ``step``
from tick to tick and moved by the ids each tick changed, holds them
from a run's first tick on.  A list a plan failed to name is a
``KeyError``, never a list built in the middle of a run:

* Each atom of the condition's top-level ``and`` chain (or the lone atom
  a condition is) that reads at most one still-open variable, through its
  declared name, its filter or its ``value = e``, is tested on its own.
  One reading no open variable is tested once, and if false the rule has
  no binding; one reading variable ``v`` keeps in ``v``'s pool only the
  entities it holds for.
* When such an atom on ``v`` itself is ``value changed``, or in EDGE mode
  ``value = <literal>``, ``v``'s pool starts from the entities of its
  interface whose event of the atom reads differently in the two stores
  (``changed``), deployed ones included: on any other, the edge and the
  change tests are false.  Only the entities that are not the previous
  store's very object under their id are read, since a same object reads
  the same value on both sides.  LEVEL mode and ``value = path`` (the
  path's entity may change alone) start from all of the interface's
  entities.
* When every call of the body has a filter linking the same two open
  variables through the same member of each (bare names count, as in
  ``action ack(true) on m with room = l.room``), that is an equality
  between them, read from the current store.  A side read as an attribute
  by one call and as a path (event first, then attribute) by another is
  used only if no entity of its pool carries an event of that name, so
  that both reads agree on every binding built.  The join is a hash
  probe emitted inline (:meth:`_Source.probe`), keyed by ``(type,
  value)``, UNDEF joining nothing, exactly as
  :func:`~pantagruel.domains.value_eq` compares.  A side read as an
  attribute is looked up in the dual store's buckets of that attribute
  (:meth:`~pantagruel.domains.DualStore.keyed`, fetched once), by each
  entity of the other side's pool, keeping its own pool's ids, so its
  own entities are not read at all; every join found here has such a
  side.  Each binding the join builds satisfies every call's filter,
  which compares the same two reads by
  :func:`~pantagruel.domains.value_eq`, so the body skips them where the
  join is taken; a body whose join is refused tests them on the product.

Only the conjuncts not tested on pools (``or`` terms and atoms reading two
open variables, whatever their filters) are left to whole bindings, and
none if there are none; the body's writes run on every binding built.
This is exact: a binding never built fails a pushed conjunct, or every
call's filter (so no call writes), and would have written no effect and
made no :class:`FiredRule`; the survivors keep their enumeration order,
so the fired list, the fold of the bindings' effects and any reported
conflict are those of the full product.

Every generated read is as the definition has it: conditions read
event filters against the *previous* store while action filters read the
*current* one (an asymmetry kept deliberately, as are all other
evaluation orders here); a path reads an event before an attribute;
UNDEF is absent; and :func:`~pantagruel.domains.value_eq` is type-strict, so ``1`` is not
``True``.
"""

from __future__ import annotations

import enum
import functools
from itertools import product
from types import CodeType
from typing import Callable, Mapping, NamedTuple, Sequence

from .ast import (
    ActionCall,
    ActionExpr,
    ActionPar,
    ActionSeq,
    Aggregate,
    BoolLit,
    Decl,
    DeclTyped,
    EventAnd,
    EventAtom,
    EventExpr,
    EventOr,
    Expr,
    Filter,
    NumLit,
    Path,
    RuleAst,
    ValueChanged,
    ValueEq,
    operands,
    rule_leaves,
)
from .diagnostics import SourceSpan
from .domains import (
    UNDEF,
    Binding,
    ConflictError,
    DualStore,
    Entity,
    EnvInterface,
    Keyed,
    Store,
    Value,
    fold,
)


class TriggerMode(enum.Enum):
    """How ``value = X`` reads the dual store: EDGE holds only on the tick
    where equality becomes true (false at t-1, true at t); LEVEL holds on
    every tick where equality holds at t.  ``value changed`` is unaffected.
    """

    EDGE = "edge"
    LEVEL = "level"


class FiredRule(NamedTuple):
    """One instantiation of one rule that held and produced effects, by
    label and binding; the effects are in the rule's map of effects.  A
    named tuple, so generated code builds one as it builds a tuple
    (``tuple.__new__``), with no ``__init__`` or ``__new__`` of its own
    to run."""

    label: int
    binding: Binding


class UnsupportedConstructError(Exception):
    """An 'all ... groupby' aggregate reached evaluation (undefined here)."""

    def __init__(self, span: SourceSpan | None = None):
        self.span = span
        super().__init__("aggregation ('all ... groupby') is not supported")


# ── Declarations and expressions ─────────────────────────────────


def _environment(rule: RuleAst) -> tuple[dict[str, str], tuple[str, ...]]:
    """Each open variable's interface, and the bare names that bind
    themselves when they are current entities.  The declarations of the
    condition's atoms, then of the body's calls, run left to right.  A
    typed one opens its variable, dropping the name if a bare one named
    it; a bare name no typed declaration has opened is kept.  An aggregate
    raises :class:`UnsupportedConstructError`."""
    open_vars: dict[str, str] = {}
    bare: dict[str, None] = {}
    for leaf in rule_leaves(rule):
        if isinstance(leaf, Aggregate):
            raise UnsupportedConstructError(leaf.span)
        decl = leaf.decl
        if isinstance(decl, DeclTyped):
            open_vars[decl.var] = decl.interface
            bare.pop(decl.var, None)
        elif decl.name not in open_vars:
            bare[decl.name] = None
    return open_vars, tuple(bare)


def _decl_name(decl: Decl) -> str:
    return decl.var if isinstance(decl, DeclTyped) else decl.name


# ── Generated rules ──────────────────────────────────────────────
#
# A planned rule is one Python function, emitted as source once per plan
# and compiled through the one cache (:func:`compiled`).
# The source names only locals of its own making: ``previous``,
# ``current``, ``env`` and ``dual``; ``v<k>`` for the open variables in
# name order, ``p<k>`` for their pools; for a join, ``j`` whether it was
# taken, ``P`` the partners, and ``every``, ``by``, ``keep``, ``r``,
# ``ids``, ``f`` and ``o`` for its probe; ``b<k>`` for the bare names,
# ``c<k>`` for the action checks, ``x<k>`` for effect maps, ``k``, ``w``
# and ``new`` for a one-call body's write, and ``t<k>`` for temporaries.
# Every name and literal of the rule enters as its ``repr()``, so no rule
# text is ever code.

# Effects as one flat map: ``(entity_id, action)`` to the value the
# action's implicit event is set to.
Effects = dict[tuple[str, str], Value]

# What an absent entity reads as: no member, so every read is UNDEF.
_NOTHING = Entity("", {}, {})


class _Probe(NamedTuple):
    """A join as :meth:`_Source.nest` emits it, by variable: the read of
    the entity its local names and, for a keyed side, its buckets
    (:class:`~pantagruel.domains.Keyed`); and what holds where it is taken,
    None where it always is."""

    reads: dict[str, str]
    keyed: dict[str, str]
    taken: str | None


class _Source:
    """Python source being emitted: its lines, and each rule name's local
    with, for an open variable, its interface (its local then names an
    entity of ``current`` of that interface), None for a bare name.  A
    name missing here is unbound, and reads UNDEF.  Each read is inlined
    as its valuation function has it: a path reads an event before an
    attribute, UNDEF is absent, and
    :func:`~pantagruel.domains.value_eq` is type-strict, so ``1`` is not
    ``True``."""

    def __init__(self, names: dict[str, tuple[str, str | None]], mode: TriggerMode):
        self.names, self.mode = names, mode
        self.lines: list[str] = []
        self.checks: dict[tuple[str, str], tuple[str, str]] = {}
        self.count = 0

    def fresh(self, prefix: str) -> str:
        self.count += 1
        return f"{prefix}{self.count}"

    def emit(self, depth: int, line: str) -> None:
        self.lines.append("    " * depth + line)

    def entity(self, name: str, store: str) -> str:
        local, interface = self.names.get(name, ("None", None))
        if interface is not None and store == "current":
            return f"current[{local}]"
        return f"{store}.get({local}, NOTHING)"

    def member(self, name: str, kind: str, member: str, store: str) -> str:
        return f"{self.entity(name, store)}.{kind}.get({member!r}, UNDEF)"

    def read(self, expr: Expr, store: str) -> str:
        """``expr`` read from ``store``: a literal is itself; a path reads
        the member of its name's entity, UNDEF if the name is unbound."""
        if not isinstance(expr, Path):
            return repr(expr.value)
        if expr.var not in self.names:
            return "UNDEF"
        t, member = self.fresh("t"), repr(expr.member)
        entity = self.entity(expr.var, store)
        return f"({t}.events[{member}] if {member} in ({t} := {entity}).events else {t}.attributes.get({member}, UNDEF))"

    def equal(self, value: str, expr: Expr, store: str) -> str:
        """:func:`~pantagruel.domains.value_eq` of ``value`` and ``expr``
        read from ``store``."""
        if not isinstance(expr, Path) and type(expr.value) is bool:
            return f"({value} is {expr.value!r})"
        t = self.fresh("t")
        if not isinstance(expr, Path):
            return f"(type({t} := {value}) is {type(expr.value).__name__} and {t} == {expr.value!r})"
        u = self.fresh("t")
        return f"(({t} := {value}) is not UNDEF and type({t}) is type({u} := {self.read(expr, store)}) and {t} == {u})"

    def atom(self, atom: EventAtom) -> str:
        """Whether the atom holds: its filter, read from ``previous``, then
        its value test.  ``value changed`` compares the two stores
        (:func:`~pantagruel.domains.value_neq`); ``value = e`` holds when the event equals
        ``e`` in ``current`` and, in EDGE mode, did not in ``previous``,
        each side read from its own store.  An unbound name reads UNDEF
        throughout, so its atom is false."""
        name, event = _decl_name(atom.decl), atom.event
        tests = []
        if atom.filter is not None:
            # event filters read the previous store, by definition
            attribute = self.member(name, "attributes", atom.filter.attribute, "previous")
            tests.append(self.equal(attribute, atom.filter.rhs, "previous"))
        before, now = (self.member(name, "events", event, store) for store in ("previous", "current"))
        if isinstance(atom.test, ValueChanged):
            t, u = self.fresh("t"), self.fresh("t")
            tests.append(f"(({t} := {before}) is not ({u} := {now}) and (type({t}) is not type({u}) or {t} != {u}))")
        else:
            tests.append(self.equal(now, atom.test.expr, "current"))
            if self.mode is TriggerMode.EDGE:
                tests.append("not " + self.equal(before, atom.test.expr, "previous"))
        return "(" + " and ".join(tests) + ")"

    def condition(self, expr: EventExpr) -> str:
        """The condition as one expression: an atom, or its chain's
        operands joined by ``and`` or ``or``, one flat operator whatever
        the chain's length."""
        if isinstance(expr, EventAtom):
            return self.atom(expr)
        if not isinstance(expr, (EventAnd, EventOr)):
            raise TypeError(f"not an event node: {expr!r}")
        joiner = " and " if isinstance(expr, EventAnd) else " or "
        return "(" + joiner.join(map(self.condition, operands(expr))) + ")"

    def check(self, name: str, action: str) -> str:
        """The local holding whether ``name``'s entity has ``action``,
        tested once per evaluation (:attr:`checks`): an open variable's
        pool holds only ids of its interface, and a bare name binds one
        entity or none."""
        if (name, action) not in self.checks:
            local, interface = self.names.get(name, ("None", None))
            c, t = f"c{len(self.checks)}", self.fresh("t")
            target = repr(interface) if interface is not None else (
                f"{t}.interface_id if ({t} := current.get({local})) is not None else None"
            )
            line = f"{c} = ({t} := env.get({target})) is not None and {action!r} in {t}.actions"
            self.checks[(name, action)] = (c, line)
        return self.checks[(name, action)][0]

    def call(self, call: ActionCall, joined: str | None) -> tuple[str, str, str]:
        """A call's test, key and value: it writes nothing when its name is
        unbound, or its target's interface lacks the action, or its
        filter, read from ``current``, fails (not tested where ``joined``,
        whether the body's join was taken, holds, and never where it is
        ``"True"``); any other writes its implicit event's value under
        ``(target, action)``."""
        name = _decl_name(call.decl)
        test = self.check(name, call.action)
        if call.filter is not None and joined != "True":
            # action filters read the current store, by definition
            attribute = self.member(name, "attributes", call.filter.attribute, "current")
            filt = self.equal(attribute, call.filter.rhs, "current")
            test += f" and ({joined} or {filt})" if joined else f" and {filt}"
        key = f"({self.names.get(name, ('None',))[0]}, {call.action!r})"
        return test, key, self.read(call.arg, "current")

    def body(self, body: ActionExpr, into: str, depth: int, joined: str | None) -> None:
        """The body's writes into the map ``into``, one flat statement
        each.  ``,`` runs its
        operands in order on that map, so a later call overwrites an
        earlier one's key.  ``||`` runs its operands last to first, each
        later one on a copy of the map as given, and joins the copies in
        first to last (:func:`fold`): a clash is a
        :class:`~pantagruel.domains.ConflictError` with the later
        operand's value on the left."""
        if isinstance(body, ActionCall):
            test, key, value = self.call(body, joined)
            return self.emit(depth, f"if {test}: {into}[{key}] = {value}")
        parts = operands(body)
        if isinstance(body, ActionSeq):
            for part in parts:
                self.body(part, into, depth, joined)
            return None
        if not isinstance(body, ActionPar):
            raise TypeError(f"not an action node: {body!r}")
        copies = []
        for part in reversed(parts[1:]):
            copies.append(self.fresh("x"))
            self.emit(depth, f"{copies[-1]} = dict({into})")
            self.body(part, copies[-1], depth, joined)
        self.body(parts[0], into, depth, joined)
        for x in reversed(copies):
            t = self.fresh("t")
            self.emit(depth, f"if ({t} := fold({into}, {x})) is not None: raise ConflictError(*{t}, {x}[{t}], {into}[{t}])")
        return None

    def probe(self, order: Sequence[str], join: _Probe, depth: int, looked: int, other: int) -> None:
        """The join's hash probe, looking up the variable at ``looked`` in
        ``order`` from the one at ``other``: its buckets are fetched once,
        then each id of the other's pool reads its side, skips UNDEF, and
        finds the ids under ``(type, value)`` (``1`` is not ``True``),
        keeping those of the looked-up variable's own pool.  ``P`` maps
        each id of the earlier variable to its partners of the later one's
        pool, sorted."""
        self.emit(depth, f"every, by = {join.keyed[order[looked]]}")
        self.emit(depth, f"keep = set(p{looked}) if len(p{looked}) < len(every) else None")
        self.emit(depth, f"for v{other} in p{other}:")
        self.emit(depth + 1, f"if (r := {join.reads[order[other]]}) is UNDEF or not (ids := by.get((type(r), r))): continue")
        self.emit(depth + 1, "if keep is not None and not (ids := [f for f in ids if f in keep]): continue")
        if looked > other:
            self.emit(depth + 1, f"P[v{other}] = ids")
        else:
            self.emit(depth + 1, f"for f in ids: P.setdefault(f, []).append(v{other})")

    def nest(self, order: Sequence[str], join: _Probe | None) -> int:
        """The one enumerator of bindings: the ``for`` headers that bind
        ``v0``, ``v1``, ... to the ids of the pools ``p0``, ``p1``, ... of
        the sorted variables ``order``, lexicographically.  Where two of
        them are joined, ``join`` is probed first (:meth:`probe`), unless
        it is refused (``j`` false): the earlier of the two then runs over
        the ids having partners, and the later over ``P``, the partners of
        the earlier's id; a join refused pairs each id with the whole
        later pool.  Where both sides are keyed the larger pool is looked
        up, the later variable's on a tie.  A run of two or more variables
        is one ``product``, so the nest is never deeper than three; no
        variable is one pass, over ``(None,)``.  Returns the depth of the
        nest's body."""
        spans: list[range | None] = [range(len(order))]
        if join is not None:
            at, later = sorted(map(order.index, join.reads))
            depth = 1
            if join.taken is not None:
                self.emit(1, f"if not (j := {join.taken}): P = dict.fromkeys(p{at}, p{later})")
                self.emit(1, "else:")
                depth = 2
            self.emit(depth, "P = {}")
            looked = [k for k in (later, at) if order[k] in join.keyed]
            if len(looked) == 2:
                self.emit(depth, f"if len(p{later}) >= len(p{at}):")
                self.probe(order, join, depth + 1, later, at)
                self.emit(depth, "else:")
            # the earlier side where both are keyed, else the one keyed
            self.probe(order, join, depth + len(looked) - 1, looked[-1], at + later - looked[-1])
            self.emit(depth, f"p{at} = sorted(P)")
            spans = [range(later), None, range(later + 1, len(order))]
        heads = []
        for span in spans:
            if span is None:
                heads.append((f"v{later}", f"P[v{at}]"))
            elif span:
                pools = ", ".join(f"p{k}" for k in span)
                heads.append((", ".join(f"v{k}" for k in span), pools if len(span) == 1 else f"product({pools})"))
        for depth, (targets, pools) in enumerate(heads or [("_", "(None,)")], start=1):
            self.emit(depth, f"for {targets} in {pools}:")
        return depth + 1


def grouped(effects: Effects) -> dict[str, dict[str, Value]]:
    """``effects`` by id, in first-write order: each id's written events."""
    events_of: dict[str, dict[str, Value]] = {}
    for (entity_id, action), value in effects.items():
        events_of.setdefault(entity_id, {})[action] = value
    return events_of


def _store_of(effects: Effects, current: Store) -> Store:
    """``effects`` as a store: one entity per id written, of its
    interface in ``current``, with no attribute and the written events."""
    return {
        entity_id: Entity(current[entity_id].interface_id, {}, events)
        for entity_id, events in grouped(effects).items()
    }


# ── Rules (R) and rule blocks (K) ────────────────────────────────


def _open_reads(atom: EventAtom, open_vars: dict[str, str]) -> list[str]:
    """The still-open variables an atom reads: through its declared name,
    its filter's right-hand side, and its ``value = e`` expression."""
    names = [_decl_name(atom.decl)]
    if atom.filter is not None and isinstance(atom.filter.rhs, Path):
        names.append(atom.filter.rhs.var)
    if isinstance(atom.test, ValueEq) and isinstance(atom.test.expr, Path):
        names.append(atom.test.expr.var)
    return list(dict.fromkeys(n for n in names if n in open_vars))


def _link(decl: Decl, filt: Filter | None, open_vars: dict[str, str]) -> tuple[str, str, str, str] | None:
    """``(x, a, y, b)`` when the filter ``with a = y.b`` on the declared
    name ``x`` links two distinct open variables, None otherwise."""
    if filt is None or not isinstance(filt.rhs, Path):
        return None
    x, y = _decl_name(decl), filt.rhs.var
    if x == y or x not in open_vars or y not in open_vars:
        return None
    return x, filt.attribute, y, filt.rhs.member


class _Side(NamedTuple):
    """One side of the equality every call of a body tests: its variable
    and interface, the one member the calls read of it, and whether some
    call reads it as an attribute (so a join keys it by that attribute)
    and some as a path."""

    var: str
    interface: str
    member: str
    as_attribute: bool
    as_path: bool


def _body_sides(body: ActionExpr, open_vars: dict[str, str]) -> tuple[_Side, _Side] | None:
    """The two sides of the equality every call of the body tests, if
    each call's filter links the same two open variables (:func:`_link`)
    and the calls read one member of each.  None if some call links none,
    the calls link more than two, or they read different members of one."""
    reads: dict[str, dict[tuple[str, bool], None]] = {}
    pending = [body]
    while pending:
        node = pending.pop()
        if not isinstance(node, ActionCall):
            pending += (node.left, node.right)
            continue
        link = _link(node.decl, node.filter, open_vars)
        if link is None:
            return None
        x, attribute, y, member = link
        reads.setdefault(x, {})[(attribute, False)] = None
        reads.setdefault(y, {})[(member, True)] = None
        if len(reads) > 2:
            return None
    sides = []
    for var, var_reads in reads.items():
        members = dict.fromkeys(member for member, _ in var_reads)
        if len(members) != 1:
            return None
        (member,) = members
        sides.append(
            _Side(var, open_vars[var], member, (member, False) in var_reads, (member, True) in var_reads)
        )
    return sides[0], sides[1]


def _body_probe(sides: tuple[_Side, _Side], src: _Source) -> _Probe:
    """The equality every call of the body tests (:func:`_body_sides`) as
    a probe: where it fails, no call writes, so the binding produces no
    effect.  Bare names count (``on m with room = l.room``).  Each side is
    read as its calls read it: as an attribute, or as a path; where calls
    read it both ways, as an attribute, and the join is refused if an
    entity of the side's pool (the only ones bound to it) carries an event
    of that name, so that both reads agree on every binding built.  A side
    read as an attribute is keyed by it (:meth:`DualStore.keyed`)."""
    reads, keyed, agree = {}, {}, []
    for side in sides:
        v = src.names[side.var][0]
        if side.as_attribute:
            reads[side.var] = src.member(side.var, "attributes", side.member, "current")
            keyed[side.var] = f"dual.keyed({side.interface!r}, {side.member!r})"
            if side.as_path:
                agree.append(f"all({side.member!r} not in current[o].events for o in p{v[1:]})")
        else:
            reads[side.var] = src.read(Path(side.var, side.member), "current")
    return _Probe(reads, keyed, " and ".join(agree) or None)


def _conjuncts(
    condition: EventExpr, open_vars: dict[str, str]
) -> tuple[list[EventAtom], dict[str, list[EventAtom]], list[EventExpr]]:
    """The conjuncts of the condition's top-level ``and`` chain (or the
    lone conjunct a condition is), split by the open variables each reads
    (:func:`_open_reads`): the atoms reading none, each variable's pool
    tests (atoms reading that one), and the rest, tested on whole
    bindings."""
    closed: list[EventAtom] = []
    by_var: dict[str, list[EventAtom]] = {}
    rest: list[EventExpr] = []
    for conjunct in operands(condition) if isinstance(condition, EventAnd) else [condition]:
        reads = _open_reads(conjunct, open_vars) if isinstance(conjunct, EventAtom) else None
        if reads is None or len(reads) > 1:
            rest.append(conjunct)
        elif reads:
            by_var.setdefault(reads[0], []).append(conjunct)
        else:
            closed.append(conjunct)
    return closed, by_var, rest


def _needs_change(atom: EventAtom, var: str, mode: TriggerMode) -> bool:
    """Whether ``atom``, a pool test of ``var``, can hold only on an entity
    whose event changed value this tick: ``value changed``, or in EDGE
    mode ``value = <literal>``, on ``var`` itself."""
    if _decl_name(atom.decl) != var:
        return False
    test = atom.test
    return isinstance(test, ValueChanged) or (
        mode is TriggerMode.EDGE and isinstance(test.expr, (NumLit, BoolLit))
    )


class _RulePlan(NamedTuple):
    """What evaluating one rule reads of the rule and the trigger mode
    alone, derived once (:func:`_plan_rule`): the label, the bare names
    that bind themselves when they are current entities, how each open
    variable's pool is found, the sides of the body's equality (None if
    it has none), and the rule as generated source and as the function
    compiled from it, which evaluates the rule on a dual store, called
    with ``(env, dual, plan)``.

    A pool is found from ``(var, interface, edge_event)``: the event of
    the first of the variable's pool tests that :func:`_needs_change`,
    whose changed ids the pool starts from (None: all the interface's
    ids)."""

    label: int
    bare: tuple[str, ...]
    pools: tuple[tuple[str, str, str | None], ...]
    sides: tuple[_Side, _Side] | None
    source: str
    run: Callable[[EnvInterface, DualStore, "_RulePlan"], tuple[Effects, list[FiredRule]]]


class BlockPlan(NamedTuple):
    """A rule block planned for one trigger mode (:func:`plan_block`): the
    very rules and mode it was made for, one plan per rule, and every list
    the rules may ask a dual store for."""

    rules: Sequence[RuleAst]
    mode: TriggerMode
    plans: tuple[_RulePlan, ...]
    lists: tuple[tuple[str, str | None], ...]


@functools.lru_cache(maxsize=64)
def compiled(source: str) -> CodeType:
    """``source``, generated Python, compiled: the one cache of generated
    code, keyed by the text alone, never by the tree it was made from,
    whose hash and equality recurse down a chain."""
    return compile(source, "<generated>", "exec")


# The globals of every generated function: the helpers its source calls.
_NAMESPACE = {
    "UNDEF": UNDEF, "NOTHING": _NOTHING, "FiredRule": FiredRule, "ConflictError": ConflictError,
    "fold": fold, "product": product, "new_tuple": tuple.__new__,
}


def _define(source: str) -> Callable:
    """The function ``rule`` that generated ``source`` defines, compiled
    through the one cache (:func:`compiled`), with the helpers it calls as
    its globals."""
    namespace = dict(_NAMESPACE)
    exec(compiled(source), namespace)
    return namespace["rule"]


# ``(x, read_x, y, read_y)``: a binding survives only if ``read_x`` of the
# id of its ``x`` equals ``read_y`` of its ``y``'s (``value_eq``).
Join = tuple[str, Callable[[str], Value], str, Callable[[str], Value]]


def instantiate(
    bound: Binding,
    pools: Mapping[str, Sequence[str]],
    join: Join | None = None,
    keyed: Mapping[str, Keyed] | None = None,
) -> list[Binding]:
    """Extend the binding ``bound`` over the open variables, the keys of
    ``pools``, each mapped to the sorted ids it ranges over.  Each result
    is ``bound`` with every open variable bound to one id of its pool; the
    results enumerate the cross product of the pools (lexicographic in
    variable name, then entity id), and are none as soon as one pool is
    empty.

    ``join`` is an optional equality between two distinct open variables
    (:data:`Join`; anything else is a ``ValueError``), and ``keyed``
    gives, for one or both joined variables, its interface's ids by the
    key of the attribute ``join`` reads (a superset of its pool; a join
    with no keyed side is a ``ValueError`` too).  Variables are bound in
    name order: the earlier of the two takes only the ids that meet some
    id of the later one's pool, and the later one only the ids its
    partner meets, found by a hash lookup, so the bindings whose two sides
    differ (or read UNDEF) are never built.  The survivors keep the order
    above, so the result is a subsequence of the product.  The bindings
    are those of the loop nest every planned rule runs
    (:meth:`_Source.nest`), with the same probe, whose reads call
    ``join``'s readers, run with a body that collects each."""
    order = sorted(pools)
    probe, reads = None, {}
    if join is not None:
        x, read_x, y, read_y = join
        if x == y or x not in pools or y not in pools:
            raise ValueError(f"a join links two distinct open variables, not {x!r} and {y!r}")
        keyed = keyed or {}
        if x not in keyed and y not in keyed:
            raise ValueError(f"a join looks up a keyed side, and neither {x!r} nor {y!r} is")
        reads = {x: read_x, y: read_y}
        probe = _Probe({var: f"reads[{var!r}](v{order.index(var)})" for var in reads},
                       {var: f"keyed[{var!r}]" for var in reads if var in keyed}, None)
    src = _Source({}, TriggerMode.LEVEL)
    src.emit(0, "def rule(bound, pools, reads, keyed):")
    src.emit(1, f"({''.join(f'p{k}, ' for k in range(len(order)))}) = pools")
    src.emit(1, "out = []")
    depth = src.nest(order, probe)
    src.emit(depth, f"out.append({{**bound, {''.join(f'{var!r}: v{k}, ' for k, var in enumerate(order))}}})")
    src.emit(1, "return out")
    run = _define("\n".join(src.lines) + "\n")
    return run(bound, [pools[var] for var in order], reads, keyed)


def _plan_rule(rule: RuleAst, mode: TriggerMode, label: int) -> _RulePlan:
    """The rule's plan in ``mode``: its environment (:func:`_environment`),
    the split of its condition (:func:`_conjuncts`), each open variable's
    pool, its body's equality (:func:`_body_sides`), and the source of the
    function ``rule(env, dual, plan)`` that evaluates it on ``dual``, as
    the module docstring describes, into the rule's one flat map of
    effects.  In order: the bare names bound, the closed atoms, each pool
    with its tests, in declaration order, the action checks, the body's
    join (:func:`_body_probe`) and the loop nest (:meth:`_Source.nest`)
    with, per binding, the conjuncts left to whole bindings and the
    body's writes.  An aggregate raises :class:`UnsupportedConstructError`.

    Each binding of a body of two or more calls writes into a map of its
    own, so that a ``,`` call overwriting the binding's earlier write is
    no clash, and that map is folded into the rule's (:func:`fold`).  A
    body of one call writes its one key into the rule's map in place, with
    the fold's test inline (``setdefault``, then ``is not``, then type or
    ``!=``), the same insertion and the same clash.  The result, as a store, is
    that of a left fold of :func:`~pantagruel.domains.store_join` over
    the bindings' partial stores once all are built: a conflict between
    the operands of one binding's ``||`` is raised while that binding is
    built, so it comes first; one between bindings is the first the fold
    meets, its least ``(entity, action)`` with the rule's value on the
    left, raised only once every binding is built."""
    open_vars, bare = _environment(rule)
    closed, by_var, rest = _conjuncts(rule.condition, open_vars)
    order = sorted(open_vars)
    names = {var: (f"v{k}", open_vars[var]) for k, var in enumerate(order)}
    names.update((name, (f"b{k}", None)) for k, name in enumerate(bare))
    src = _Source(names, mode)
    emit = src.emit
    emit(0, "def rule(env, dual, plan):")
    emit(1, "previous, current, bound = dual.previous, dual.current, {}")
    for name in bare:
        emit(1, f"if ({names[name][0]} := {name!r} if {name!r} in current else None) is not None: bound[{name!r}] = {name!r}")
    if closed:
        emit(1, f"if not ({' and '.join(map(src.atom, closed))}): return {{}}, []")
    pools = []
    for var, interface in open_vars.items():
        tests = by_var.get(var, [])
        edge = next((atom.event for atom in tests if _needs_change(atom, var, mode)), None)
        pools.append((var, interface, edge))
        v, p = names[var][0], "p" + names[var][0][1:]
        ids = f"dual.ids({interface!r})" if edge is None else f"dual.changed({interface!r}, {edge!r})"
        if tests:
            emit(1, f"{p} = []")
            emit(1, f"for {v} in {ids}:")
            emit(2, f"if {' and '.join(map(src.atom, tests))}: {p}.append({v})")
        else:
            emit(1, f"{p} = {ids}")
        emit(1, f"if not {p}: return {{}}, []")
    checks_at = len(src.lines)
    emit(1, "effects, fired, clash, label = {}, [], None, plan.label")
    sides = _body_sides(rule.body, open_vars)
    probe = None if sides is None else _body_probe(sides, src)
    joined = None if probe is None else "True" if probe.taken is None else "j"
    depth = src.nest(order, probe)
    if rest:
        emit(depth, f"if not ({' and '.join(map(src.condition, rest))}): continue")
    if isinstance(rule.body, ActionCall):
        test, key, value = src.call(rule.body, joined)
        emit(depth, f"if not ({test}): continue")
        write = (f"if (w := effects.setdefault(k := {key}, new := {value})) is not new and clash is None"
                 " and (type(w) is not type(new) or w != new): clash = ConflictError(*k, w, new)")
    else:
        emit(depth, "x0 = {}")
        src.body(rule.body, "x0", depth, joined)
        emit(depth, "if not x0: continue")
        write = "if clash is None and (t := fold(effects, x0)) is not None: clash = ConflictError(*t, effects[t], x0[t])"
    binding = ("**bound, " if bare else "") + "".join(f"{var!r}: v{k}, " for k, var in enumerate(order))
    emit(depth, f"fired.append(new_tuple(FiredRule, (label, {{{binding}}})))")
    emit(depth, write)
    emit(1, "if clash is not None: raise clash")
    emit(1, "return effects, fired")
    src.lines[checks_at:checks_at] = ["    " + line for _, line in src.checks.values()]
    source = "\n".join(src.lines) + "\n"
    return _RulePlan(label, bare, tuple(pools), sides, source, _define(source))


def plan_block(rules: Sequence[RuleAst], mode: TriggerMode) -> BlockPlan:
    """Plan every rule of the block in ``mode``, each labelled by its own
    label or else its 1-based position, and name every list their
    evaluation may ask a dual store for, as
    :meth:`~pantagruel.domains.DualStore.build` takes them: each open
    variable's interface ids, ``(interface, None)``, unless its pool comes
    from the changed ids, and each ``(interface, attribute)`` a body join
    may key, with that interface's ids.  None of it depends on the stores.
    An aggregate raises :class:`UnsupportedConstructError`."""
    plans = tuple(
        _plan_rule(rule, mode, rule.label if rule.label is not None else position)
        for position, rule in enumerate(rules, start=1)
    )
    names: dict[tuple[str, str | None], None] = {}
    for plan in plans:
        for _, interface, edge_event in plan.pools:
            if edge_event is None:
                names[(interface, None)] = None
        for side in plan.sides or ():
            if side.as_attribute:
                names[(side.interface, None)] = None
                names[(side.interface, side.member)] = None
    return BlockPlan(rules, mode, plans, tuple(names))


def eval_rule(
    env: EnvInterface,
    rule: RuleAst,
    dual: DualStore,
    mode: TriggerMode,
    label: int | None = None,
) -> tuple[Store, list[FiredRule]]:
    """Evaluate one rule: returns its joined partial effect store and one
    :class:`FiredRule` per instantiation that held and produced effects,
    labelled ``label`` when given.  The rule is planned on each call and
    evaluated as a block of one (:func:`eval_plan` of :func:`plan_block`),
    whose map becomes the store (:func:`_store_of`); its source is
    emitted each time, and compiled only the first time the cache meets
    it.  The conjuncts narrow the bindings first, as the module docstring
    describes, and the result is that of the full product."""
    plan = plan_block((rule,), mode)
    if label is not None:
        plan = plan._replace(plans=(plan.plans[0]._replace(label=label),))
    effects, fired = eval_plan(env, plan, dual)
    return _store_of(effects, dual.current), fired


def eval_plan(env: EnvInterface, plan: BlockPlan, dual: DualStore) -> tuple[Effects, list[FiredRule]]:
    """Evaluate every rule of a planned block (:func:`plan_block`) against
    the same dual store, in the plan's mode, and join the rules' flat maps
    of effects in order (:func:`fold`); interfering rules surface as a
    ConflictError, the least clash of the first rule that has one, with
    the earlier rules' value on the left.  Returns that map, in
    first-write order, with the fired list: no entity is built.  Each
    rule runs as its plan's generated function.  This is the one place
    a pair is listed: ``dual`` is first built for the plan's lists
    (:meth:`~pantagruel.domains.DualStore.build`, no pass over the store
    when it holds them all and knows its ``touched`` ids), and all rules
    share them."""
    dual.build(plan.lists)
    effects: Effects = {}
    fired: list[FiredRule] = []
    for rule_plan in plan.plans:
        partial, rule_fired = rule_plan.run(env, dual, rule_plan)
        key = fold(effects, partial)
        if key is not None:
            raise ConflictError(*key, effects[key], partial[key])
        fired.extend(rule_fired)
    return effects, fired

