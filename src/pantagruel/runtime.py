"""The reactive loop: external changes in, rule effects out, tick by tick.

One tick applies the pending external changes to the current store, runs
the whole rule block against the ⟨previous, current'⟩ dual store, then
layers the joined effects onto the store, one member update per id, while
resetting every implicit event that was set in the previous step
(:func:`_layer`).  The effects name only entities of the store the rules
read, so layering them never adds an entity.  Only the previous step's
effects set implicit events, so the reset visits only the entities they
wrote (on tick 1, those :func:`initial_state` names).
The store handed to the next tick as "previous" is the post-external,
pre-internal one, which is what edge detection must compare against.
The state carries that pair as one :class:`~pantagruel.domains.DualStore`,
with the lists of ids the rule block names, which the evaluation of the
run's first tick builds (:func:`~pantagruel.rule_eval.eval_plan`); each
next tick moves them by the ids its changes name and builds nothing.  It
carries the rule block's plan too (:func:`~pantagruel.rule_eval.plan_block`),
made on the run's first tick, which names those lists.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping

from .ast import EntityDecl, RuleAst
from .diagnostics import Diagnostic, Severity, error
from .domains import (
    UNDEF,
    ConflictError,
    DualStore,
    EnvInterface,
    Store,
    Value,
    update_member,
    value_type_matches,
)
from .rule_eval import BlockPlan, FiredRule, TriggerMode, eval_plan, grouped, plan_block
from .spec_eval import CheckedProgram, build_entity


# ── External changes ─────────────────────────────────────────────


@dataclass(frozen=True)
class EventUpdate:
    """A sensor reading arriving from outside; implicit (action-named)
    events cannot be written externally."""

    entity: str
    event: str
    value: Value


@dataclass(frozen=True)
class AttributeUpdate:
    entity: str
    attribute: str
    value: Value


@dataclass(frozen=True)
class Deploy:
    decl: EntityDecl


@dataclass(frozen=True)
class Remove:
    entity: str


ExternalChange = EventUpdate | AttributeUpdate | Deploy | Remove


class ExternalChangeError(Exception):
    """A tick's external changes did not validate against the store."""

    def __init__(self, diagnostics: list[Diagnostic], tick: int | None = None):
        self.diagnostics = diagnostics
        self.tick = tick
        super().__init__("; ".join(d.message for d in diagnostics))


# ── Run state and tick records ───────────────────────────────────


@dataclass(frozen=True)
class RunState:
    """What one tick hands to the next: its post-external store (the next
    tick's "previous"), its snapshot, and its number.

    ``effect_ids`` names the entities the tick's effects wrote.  Only
    effects set implicit events (external writes to them are refused, and a
    deployed entity starts them at UNDEF), so no other entity of
    ``current`` carries a set one, and the next tick's reset visits only
    these.  None, as a state built without the field has it, means every
    id: the reset then visits every entity, and the record names them all
    as touched.

    ``dual`` is the :class:`~pantagruel.domains.DualStore` of the pair
    ``(previous, current)``, with the lists the rule block names once a
    tick has run, which :func:`step` moves on in place by the ids the next
    tick's changes name; the pair then lists nothing, so a state stepped
    again has its rules list what they read afresh, in one pass, as a
    bare pair does.  It is used only while it is this very pair, so a state
    built by hand, or with ``dataclasses.replace`` of a store, has its next
    tick's rules read a bare pair of ``previous`` and the post-external
    store.  Every state :func:`step` returns carries the pair of its stores.

    ``plan`` is the rule block's plan (:func:`~pantagruel.rule_eval.plan_block`)
    for the rules and mode the tick ran, which :func:`step` uses while it
    is given those very rules and that mode.

    ``dual`` and ``plan`` take no part in equality or repr."""

    previous: Store
    current: Store
    tick: int
    effect_ids: tuple[str, ...] | None = None
    dual: DualStore | None = field(default=None, compare=False, repr=False)
    plan: BlockPlan | None = field(default=None, compare=False, repr=False)


def initial_state(store: Store) -> RunState:
    """Tick 0: the initial store, with an empty store standing in as its
    nonexistent predecessor.  Its dual store is the pair of those two very
    stores, built for no list, so its one pass finds only ``touched``: the
    ids whose entity carries an event other than UNDEF, any set implicit
    event among them, and none for a store built from declarations.  They
    are also its ``effect_ids``.  The pair lists nothing until the first
    tick builds what the rules name."""
    previous: Store = {}
    dual = DualStore(previous, store)
    dual.build(())
    return RunState(previous, store, 0, dual.touched, dual)


@dataclass(frozen=True)
class TickRecord:
    """One orchestration step's output: what came in, what fired, and the
    full post-step store.

    A record :func:`step` makes also has its lineage: ``base``, the store
    the snapshot was stepped from, and ``touched``, ids that include every
    id at which ``snapshot`` and ``base`` hold different entity objects
    (an id may repeat).  The renderer uses them to visit only those ids
    when it last rendered ``base``.  None, as a record built by hand has
    them, means the lineage is not known.  They take no part in equality
    or repr."""

    tick: int
    changes: tuple[ExternalChange, ...]
    fired: tuple[FiredRule, ...]
    snapshot: Store
    conflict: str | None = None
    base: Store | None = field(default=None, compare=False, repr=False)
    touched: tuple[str, ...] | None = field(default=None, compare=False, repr=False)


# ── The step and the loop ────────────────────────────────────────


def apply_external(
    changes: list[ExternalChange] | tuple[ExternalChange, ...],
    store: Store,
    env: EnvInterface,
) -> Store:
    """Validate and apply one tick's external changes: removals first, then
    deployments, then event/attribute writes.  Any invalid change aborts the
    whole tick with an :class:`ExternalChangeError` listing every problem.

    The result is a new store and ``store`` is left as it was.  It starts
    as ``store.copy()``, which clones the hash table while at least two
    thirds of its slots are live; the ``dict`` constructor clones it only
    when no key was ever deleted from it and otherwise inserts every key
    again, and the removals here leave deleted slots in the copy.
    """
    diagnostics: list[Diagnostic] = []
    out = store.copy()

    for change in changes:
        if isinstance(change, Remove):
            if change.entity not in out:
                diagnostics.append(
                    error("unknown-entity", f"cannot remove unknown entity {change.entity!r}")
                )
                continue
            del out[change.entity]

    for change in changes:
        if isinstance(change, Deploy):
            if change.decl.name in out:
                diagnostics.append(
                    error(
                        "duplicate-entity",
                        f"entity {change.decl.name!r} is already deployed",
                        change.decl.span,
                    )
                )
                continue
            entity, diags = build_entity(change.decl, env)
            diagnostics.extend(d for d in diags if d.severity is Severity.ERROR)
            if entity is not None:
                out[change.decl.name] = entity

    for change in changes:
        if isinstance(change, (Remove, Deploy)):
            continue
        entity = out.get(change.entity)
        if entity is None:
            diagnostics.append(
                error("unknown-entity", f"cannot update unknown entity {change.entity!r}")
            )
            continue
        iface = env[entity.interface_id]
        is_event = isinstance(change, EventUpdate)
        if is_event:
            kind, member, declared = "event", change.event, iface.events
            if member in iface.actions:
                diagnostics.append(
                    error(
                        "implicit-event-write",
                        f"{change.entity}.{member} is an implicit event and "
                        "cannot be written externally",
                    )
                )
                continue
        else:
            kind, member, declared = "attribute", change.attribute, iface.attributes
        tag = declared.get(member)
        if tag is None:
            diagnostics.append(
                error(
                    "unknown-member",
                    f"interface {entity.interface_id!r} has no {kind} {member!r}",
                )
            )
            continue
        if not value_type_matches(change.value, tag):
            diagnostics.append(
                error(
                    "type-mismatch",
                    f"{kind} {change.entity}.{member} carries {tag.value}, "
                    f"got {change.value!r}",
                )
            )
            continue
        written = {member: change.value}
        out[change.entity] = update_member(
            out,
            change.entity,
            attributes=None if is_event else written,
            events=written if is_event else None,
        )

    if diagnostics:
        raise ExternalChangeError(diagnostics)
    return out


def _layer(
    env: EnvInterface,
    sigma_prime: Store,
    set_ids: Iterable[str],
    events_of: Mapping[str, Mapping[str, Value]],
    attributes_of: Mapping[str, Mapping[str, Value]],
) -> Store:
    """The tick's last valuation: ``sigma_prime`` with each implicit event
    set on an id of ``set_ids`` (the only ids that may carry one) reset to
    UNDEF, and the events ``events_of`` maps each written id to (and the
    attributes ``attributes_of`` does) on top, winning over the reset.
    One pass visits the written ids in first-write order, then the rest of
    ``set_ids``, skipping any no longer in ``sigma_prime``; a written id
    it lacks is an ``UnknownEntityError``.  Each id with a set implicit
    event or a write gets one member update, which keeps ``sigma_prime``'s
    object when it writes back what it holds; every other is passed on as
    that very object.  The result starts as ``sigma_prime.copy()``, a
    clone of the table even when :func:`apply_external` deleted keys."""
    out = sigma_prime.copy()
    for entity_id in dict.fromkeys((*events_of, *set_ids)):
        entity = sigma_prime.get(entity_id)
        iface = None if entity is None else env.get(entity.interface_id)
        reset = {}
        for key in () if iface is None else iface.actions:
            if entity.events.get(key, UNDEF) is not UNDEF:
                reset[key] = UNDEF
        written = events_of.get(entity_id)
        if written is None and not reset:
            continue
        events = {**reset, **written} if written else reset
        out[entity_id] = update_member(sigma_prime, entity_id, attributes_of.get(entity_id), events)
    return out


def apply_internal(
    env: EnvInterface,
    effects: Store,
    sigma_prime: Store,
    set_ids: Iterable[str] | None = None,
) -> Store:
    """Finish the tick with an effect store: :func:`_layer`, the layering
    :func:`step` runs, given each effect entity's events and attributes.
    ``set_ids``, when given, are the only ids that may carry a set
    implicit event (:attr:`RunState.effect_ids` of the tick before); None
    means every id of ``sigma_prime``."""
    return _layer(
        env, sigma_prime, sigma_prime if set_ids is None else set_ids,
        {entity_id: entity.events for entity_id, entity in effects.items()},
        {entity_id: entity.attributes for entity_id, entity in effects.items()},
    )


def _named(change: ExternalChange) -> str:
    return change.decl.name if isinstance(change, Deploy) else change.entity


def step(
    state: RunState,
    changes: list[ExternalChange] | tuple[ExternalChange, ...],
    rules: tuple[RuleAst, ...] | list[RuleAst],
    env: EnvInterface,
    mode: TriggerMode,
    strict_conflicts: bool = True,
) -> tuple[RunState, TickRecord]:
    """Run one orchestration step and return the new state plus its record.

    The block is planned (:func:`~pantagruel.rule_eval.plan_block`) on a
    run's first tick, and again only when the state's plan was made for
    other ``rules`` (by identity) or another ``mode``; other ticks carry
    the plan.  The rules read the state's dual store moved by the ids the
    changes name: only those differ between ``state.current`` and the
    post-external store.  Its ``touched`` ids are those and the pair's
    own, which are the ids the last tick's effects wrote and the ids its
    reset visited.  A state with no dual store of its own stores, or one
    whose plan is made again, has its rules read the bare pair of
    ``state.previous`` and the post-external store instead, so a pair
    holds only the lists its plan names.  ``step`` builds no list:
    :func:`~pantagruel.rule_eval.eval_plan` builds what the plan names and
    the pair lacks, in one pass over the post-external store, which also
    finds a bare pair's ``touched`` ids, and none on a later tick while
    the rules and mode stay the same.  The new state's pair takes those
    lists moved by no id, as the effects write only events.  Each pair
    hands its lists on once, in place: stepping a state again finds its
    pair listing nothing, and the lists are built afresh.

    The block's flat map of effects is layered onto the post-external
    store by :func:`_layer`, grouped by id; its ids are the new
    ``effect_ids``.  The record's lineage is ``state.current`` and the ids
    the changes name, the effects wrote and the reset visited."""
    tick = state.tick + 1
    try:
        sigma_prime = apply_external(changes, state.current, env)
    except ExternalChangeError as exc:
        exc.tick = tick
        raise
    plan, dual = state.plan, state.dual
    if plan is None or plan.rules is not rules or plan.mode is not mode:
        if plan is not None:
            # the carried lists were named by the old plan
            dual = None
        plan = plan_block(rules, mode)
    named = tuple(dict.fromkeys(map(_named, changes)))
    if dual is None or not dual.describes(state.previous, state.current):
        dual = DualStore(state.previous, sigma_prime)
    else:
        dual = dual.moved(state.previous, sigma_prime, tuple(dict.fromkeys(dual.touched + named)), named)
    conflict: str | None = None
    try:
        effects, fired = eval_plan(env, plan, dual)
    except ConflictError as exc:
        if strict_conflicts:
            exc.tick = tick
            raise
        conflict = str(exc)
        effects, fired = {}, []
    set_ids = tuple(sigma_prime) if state.effect_ids is None else state.effect_ids
    events_of = grouped(effects)
    snapshot = _layer(env, sigma_prime, set_ids, events_of, {})
    effect_ids = tuple(events_of)
    rebuilt = tuple(dict.fromkeys(effect_ids + set_ids))
    dual = dual.moved(sigma_prime, snapshot, rebuilt, ())
    record = TickRecord(
        tick, tuple(changes), tuple(fired), snapshot, conflict, state.current, named + rebuilt
    )
    return RunState(sigma_prime, snapshot, tick, effect_ids, dual, plan), record


def run_trace(
    program: CheckedProgram,
    script: list[list[ExternalChange]],
    mode: TriggerMode = TriggerMode.EDGE,
    strict_conflicts: bool = True,
) -> list[TickRecord]:
    """Fold :func:`step` over a finite script, one change list per tick.

    Deterministic: identical inputs produce identical records.  An empty
    script yields an empty trace; the initial store is reported separately
    by callers that want it.
    """
    if not program.ok:
        raise ValueError("program has check errors; refusing to run")
    state = initial_state(program.initial_store)
    records: list[TickRecord] = []
    for changes in script:
        state, record = step(
            state, changes, program.rules, program.env, mode, strict_conflicts
        )
        records.append(record)
    return records
