"""Shared sources and helpers: the building-automation demo program, the
reads, tests and writes a planned rule generates, each compiled for one
node and checked against the closure oracle, and the check that a record renders by its
lineage as a fresh memo renders it.  Tests import them by name from here;
``conftest.py`` holds only the fixtures."""

from __future__ import annotations

import closure_eval
from pantagruel import TriggerMode, rule_eval, serialize, serialize_tick, update_member
from pantagruel.domains import DualStore
from pantagruel.rule_eval import eval_plan, plan_block

BUILDING_SPEC = """\
interface MotionDetector {
      attribute room : Integer
      event detected : Boolean  }
interface Light {
      attribute room : Integer
      action switch( Boolean ) }
interface Fan {
      attribute room : Integer
      action setSpeed( Integer ) }
interface TemperatureSensor {
      event temperature : Integer }

m10:MotionDetector { room : 101 }
m20:MotionDetector { room : 201 }

l10:Light { room : 101 }
l11:Light { room : 101 }
l20:Light { room : 201 }

fan10:Fan { room : 101 }
fan20:Fan { room : 201 }

thermo:TemperatureSensor{}
"""

RULE_1 = """\
(1) when
       event detected from m:MotionDetector value = true
     trigger
       action switch(true) on l:Light with room = m.room
    end
"""

# as written in the demo corpus: aggregated, rejected by the checker
RULE_2_AGGREGATE = """\
(2) when
       all event detected from m:MotionDetector value = false groupby room
     trigger
       action switch(false) on l:Light with room = m.room
    end
"""

# the runnable rewrite: same reaction, no aggregation
RULE_2_PLAIN = """\
(2) when
       event detected from m:MotionDetector value = false
     trigger
       action switch(false) on l:Light with room = m.room
    end
"""

RULE_3 = """\
(3) when
       event switch from l:Light value = true
       and  event temperature from thermo value = 30
    trigger
       action setSpeed(10) on f:Fan with room = l.room
    end
"""


def program_source(*rules: str) -> str:
    return BUILDING_SPEC + "\nrules\n" + "".join(rules) + "end\n"


def rendered_afresh(record, fmt):
    """``record`` rendered by a memo that has rendered nothing before."""
    kept = serialize._memos[fmt]
    serialize._memos[fmt] = type(kept)()
    try:
        return serialize_tick(record, fmt)
    finally:
        serialize._memos[fmt] = kept


def assert_renders_as_fresh(records, fmt):
    """Each record, from ``step`` and rendered in turn, has ``touched``
    cover every id at which its snapshot and ``base`` hold different
    objects, and renders as a fresh memo renders it."""
    for record in records:
        base, snapshot = record.base, record.snapshot
        moved = {k for k in base.keys() | snapshot.keys() if base.get(k) is not snapshot.get(k)}
        assert moved <= set(record.touched)
        assert serialize_tick(record, fmt) == rendered_afresh(record, fmt)
        assert serialize._memos[fmt].ids == sorted(record.snapshot)


def with_event(store, entity_id: str, event: str, value):
    """``store`` with one event of one entity overwritten."""
    return {**store, entity_id: update_member(store, entity_id, events={event: value})}


def eval_block(env, rules, dual, mode):
    """Every rule of ``rules`` on ``dual``, effects joined, as ``step``
    evaluates its block: the block planned, then its plan evaluated, with
    the plan's flat map of effects turned into a store."""
    effects, fired = eval_plan(env, plan_block(rules, mode), dual)
    return rule_eval._store_of(effects, dual.current), fired


def _references(binding):
    """A binding as the closure oracle's entity environment."""
    return {name: closure_eval.InstanceRef(entity_id) for name, entity_id in binding.items()}


def generated(params, scope, emit, mode=TriggerMode.EDGE):
    """The function of ``params`` (``scope`` last) that a planned rule's
    emitter generates for one node: each name of the binding ``scope`` a
    local read from it, none known to be in a store, then the lines
    ``emit(src)`` leaves in the emitter ``src`` (its action checks first),
    and a return of the expression it gives, if any.  Compiled as a rule
    is, through the one cache."""
    names = {name: (f"n{k}", None) for k, name in enumerate(scope)}
    src = rule_eval._Source(names, mode)
    result = emit(src)
    lines = [f"def rule({', '.join(params)}):"]
    lines += [f"    {local} = scope[{name!r}]" for name, (local, _) in names.items()]
    lines += ["    " + line for _, line in src.checks.values()] + src.lines
    lines.append(f"    return {result}")
    return rule_eval._define("\n".join(lines) + "\n")


def eval_expression(expr, store, binding):
    """``expr`` read from ``store`` for ``binding`` by the read a planned
    rule generates, which the closure oracle's reader must agree with."""
    got = generated(["current", "scope"], binding, lambda src: src.read(expr, "current"))(store, binding)
    want = closure_eval.eval_expression(expr, store, _references(binding))
    assert (type(got), got) == (type(want), want)
    return got


def holds(condition, dual, scope, mode):
    """Whether ``condition`` holds for the binding ``scope`` on ``dual`` in
    ``mode``, by the test a planned rule generates, which the closure
    oracle's predicate must agree with."""
    test = generated(["previous", "current", "scope"], scope, lambda src: src.condition(condition), mode)
    got = test(dual.previous, dual.current, scope)
    _, predicate = closure_eval.eval_event_expr(condition, dual, {}, lambda rho: True, mode)
    assert got is predicate(_references(scope))
    return got


def body_store(body, env, current, scope, seed):
    """The partial store ``body``'s generated writes (call filters
    included) build on the store ``seed`` for the binding ``scope``:
    ``seed``'s events as the writes' flat map, the writes run on it, and
    the map turned back into a store."""
    effects = {
        (entity_id, key): value for entity_id, entity in seed.items() for key, value in entity.events.items()
    }
    write = generated(["env", "current", "x0", "scope"], scope, lambda src: src.body(body, "x0", 1, None))
    write(env, current, effects, scope)
    return rule_eval._store_of(effects, current)


def action_effects(body, env, current, scope, seed):
    """The partial store ``body`` builds on ``seed`` for the binding
    ``scope``, by the writer a planned rule compiles (:func:`body_store`),
    which the closure oracle's effect must equal."""
    got = body_store(body, env, current, scope, seed)
    _, effect = closure_eval.eval_action_expr(body, env, current, {}, lambda rho: seed)
    assert got == effect(_references(scope))
    return got


def produced_keys(checked, before, after, mode):
    """The ``(entity, key)`` pairs of the effect store that the rules of
    the tick from state ``before`` to state ``after`` produced, evaluated
    afresh on the pair they read: ``before``'s previous store and the
    tick's post-external store, which ``after`` hands on as its previous."""
    dual = DualStore(before.previous, after.previous)
    effects, _ = eval_block(checked.env, checked.rules, dual, mode)
    return {(entity_id, key) for entity_id, entity in effects.items() for key in entity.events}


def plan_environment(rule, current):
    """The rule's entity environment as its plan keeps it: each open
    variable's interface, and the binding of the bare names that are
    ``current`` entities, each to itself.  Planning an aggregate raises
    ``UnsupportedConstructError``."""
    plan = plan_block((rule,), TriggerMode.EDGE).plans[0]
    open_vars = {var: interface for var, interface, _ in plan.pools}
    return open_vars, {name: name for name in plan.bare if name in current}


def index_pools(store, open_vars):
    """Each open variable of ``open_vars`` (variable → interface) mapped
    to every id of its interface in ``store``, sorted: the full pools
    ``instantiate`` enumerates."""
    dual = DualStore({}, store)
    dual.build((interface, None) for interface in open_vars.values())
    return {var: dual.ids(interface) for var, interface in open_vars.items()}


# two rules write opposite values to both actions of both entities; the
# rule bodies write y before x and b before a, against the reporting order
TWO_KEY_CONFLICT_PROGRAM = """\
interface L { attribute r : Integer event s : Boolean action a ( Boolean ) action b ( Boolean ) }
y:L { r : 0 }
x:L { r : 0 }
rules
(1) when event s from y value = true
    trigger action b(true) on y, action a(true) on y, action b(true) on x, action a(true) on x
    end
(2) when event s from y value = true
    trigger action b(false) on y, action a(false) on y, action b(false) on x, action a(false) on x
    end
end
"""
TWO_KEY_CONFLICT_SCRIPT = "event y.s = true\ntick\n"

BUILDING_FULL = program_source(RULE_1, RULE_2_AGGREGATE, RULE_3)
BUILDING_RUNNABLE = program_source(RULE_1, RULE_2_PLAIN, RULE_3)
BUILDING_RULES_13 = program_source(RULE_1, RULE_3)
