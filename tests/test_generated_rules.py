"""Rules planned into generated Python source, at the generator's edges.

A planned rule is one function emitted as source and compiled once.  The
emitted code names only locals of its own making (``v0``, ``p1``), and
every name and literal of the rule enters it through ``repr()``, so a
program whose entities, variables and members are spelled like those
locals, like Python keywords or like the evaluator's own helpers runs as
the closure oracle evaluates it, and prints what the closure evaluator
printed before it.
"""

from __future__ import annotations

import collections
import hashlib
import string
import sys

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import closure_eval
from pantagruel import (
    UNDEF,
    ConflictError,
    DualStore,
    TriggerMode,
    check_program,
    eval_rule,
    initial_state,
    parse_program,
    parse_script,
    step,
)
from pantagruel.cli import main
from pantagruel.lexer import KEYWORDS
from pantagruel.rule_eval import compiled, plan_block
from support import BUILDING_RUNNABLE, with_event

# ``def``, ``None``, ``lambda``, ``effects``, ``dual``, ``UNDEF``, ``fold``
# and ``v0`` as entity ids, interfaces, rule variables and members; rule 1
# joins through ``||``, rules 2 and 3 write through ``,``
KEYWORD_PROGRAM = """\
interface UNDEF { attribute fold : Integer event None : Boolean action lambda ( Boolean ) action dual ( Integer ) }
interface effects { attribute fold : Integer event v0 : Integer action def ( Boolean ) }
def:UNDEF { fold : 1 }
None:UNDEF { fold : 2 }
lambda:effects { fold : 1 }
v0:effects { fold : 2 }
fold:effects { fold : 1 }
UNDEF:effects { fold : 2 }
effects:UNDEF { fold : 1 }
dual:effects { fold : 2 }
rules
(1) when event None from dual:UNDEF value = true
    trigger action def(true) on effects:effects with fold = dual.fold || action lambda(true) on dual with fold = effects.fold
    end
(2) when event None from def value changed and event v0 from fold value = 3
    trigger action dual(def.fold) on def , action lambda(def.None) on def , action dual(fold.v0) on def
    end
(3) when event v0 from v0:effects value changed or event v0 from UNDEF value = 3
    trigger action def(true) on UNDEF with fold = v0.fold , action def(true) on fold:effects with fold = v0.fold
    end
end
"""

KEYWORD_SCRIPT = """\
event def.None = true
event fold.v0 = 3
tick
event None.None = true
event def.None = false
event UNDEF.v0 = 3
tick
tick
event fold.v0 = 2
event None.None = false
event effects.None = true
event dual.v0 = 1
tick
event fold.v0 = 3
event def.None = true
event UNDEF.v0 = 1
event v0.v0 = 4
tick
"""

# sha256 of ``run``'s stdout, as printed by the closure evaluator that
# rules were compiled into before they were generated as source
KEYWORD_DIGESTS = {
    ("edge", "text"): "348fc18bfda096d765cee25a6016f16f6eb6c5ebc072e4f38deaeefa8e382954",
    ("edge", "jsonl"): "84f18675c64b479fde5866ff2c0753618d324c45ce320953cb46a3a8774fab83",
    ("level", "text"): "7e1a2526094c52c4b93fe0ed333a2645760c7e7d0bcaf061293feed6b13c97a6",
    ("level", "jsonl"): "02a666bf3facf641da91e5178b97f3d21e54f259e2ed9106a3a442fe4f8c2b0c",
}


@pytest.mark.parametrize(("mode", "fmt"), sorted(KEYWORD_DIGESTS))
def test_names_like_the_generated_locals_run_as_before(tmp_path, capsys, mode, fmt):
    program = tmp_path / "keywords.ptg"
    script = tmp_path / "keywords.evs"
    program.write_text(KEYWORD_PROGRAM)
    script.write_text(KEYWORD_SCRIPT)
    argv = ["run", str(program), "--script", str(script), "--mode", mode, "--format", fmt]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "rule 1" in out or '"rule":1' in out
    assert hashlib.sha256(out.encode()).hexdigest() == KEYWORD_DIGESTS[(mode, fmt)]


def _fired_as_the_closure_oracle(program, script, mode):
    """Each rule of ``program`` on the pair each tick's rules read, for
    each tick of ``script``: the state's previous store and the
    post-external store, which the next state keeps as its previous.
    Every result must be the closure oracle's; returns the firings by
    label."""
    checked = check_program(parse_program(program))
    assert checked.ok
    state = initial_state(checked.initial_store)
    fired = collections.Counter()
    for changes in parse_script(script):
        after, _ = step(state, changes, checked.rules, checked.env, mode)
        dual = DualStore(state.previous, after.previous)
        for rule in checked.rules:
            got = eval_rule(checked.env, rule, dual, mode)
            assert got == closure_eval.eval_rule(checked.env, rule, dual, mode)
            fired.update(f.label for f in got[1])
        state = after
    return fired


@pytest.mark.parametrize("mode", list(TriggerMode), ids=lambda mode: mode.value)
def test_names_like_the_generated_locals_evaluate_as_the_closure_oracle(mode):
    assert _fired_as_the_closure_oracle(KEYWORD_PROGRAM, KEYWORD_SCRIPT, mode)


# Entity ids, interfaces, variables and members spelled like the locals
# of a join's probe (``every``, ``by``, ``keep``, ``r``, ``ids``, ``f``,
# ``o``, ``j``, ``P``) and of a one-call body's write (``k``, ``w``,
# ``new``), and like the helper ``new_tuple``: rule 1 joins two keyed
# sides through ``||``, each read both ways; rules 2 and 3 are one call
# each, joined, writing a literal and a path
PROBE_PROGRAM = """\
interface by { attribute ids : Integer event r : Boolean action w ( Boolean ) action new ( Integer ) }
interface keep { attribute every : Integer event f : Boolean action k ( Boolean ) }
o:by { ids : 1 }
r:by { ids : 2 }
k:by { ids : 1 }
new_tuple:by { ids : 3 }
ids:keep { every : 1 }
f:keep { every : 2 }
every:keep { every : 1 }
new:keep { every : 3 }
P:keep { every : 2 }
rules
(1) when event r from o:by value = true and event f from f:keep value = true
    trigger action w(true) on o with ids = f.every || action k(true) on f with every = o.ids
    end
(2) when event r from k:by value = false
    trigger action k(true) on j:keep with every = k.ids
    end
(3) when event f from r:keep value changed
    trigger action new(r.every) on new:by with ids = r.every
    end
end
"""

PROBE_SCRIPT = """\
event o.r = true
event ids.f = true
event f.f = true
event every.f = true
tick
event r.r = true
event new_tuple.r = true
event P.f = true
tick
event o.r = false
event k.r = false
event new.f = true
tick
event r.r = false
event ids.f = false
event o.r = true
tick
event k.r = true
event new_tuple.r = false
event f.f = false
event P.f = false
tick
"""


@pytest.mark.parametrize("mode", list(TriggerMode), ids=lambda mode: mode.value)
def test_names_like_the_probe_locals_evaluate_as_the_closure_oracle(mode):
    assert sorted(_fired_as_the_closure_oracle(PROBE_PROGRAM, PROBE_SCRIPT, mode)) == [1, 2, 3]


# ── The generator's edges, drawn ─────────────────────────────────

RESERVED = set(KEYWORDS) | {"Integer", "Boolean", "true", "false", "undef"}

# names at the lexer's edges: ``_`` inside, digits after letters, and
# long ones
LETTERS = string.ascii_letters
short_names = st.builds(str.__add__, st.sampled_from(LETTERS), st.text(LETTERS + string.digits + "_", max_size=6))
long_names = st.builds(str.__add__, st.sampled_from(LETTERS), st.text("x_9", min_size=200, max_size=600))
# numerals up to the 4 300 digits ``parser._nat`` converts
numerals = st.one_of(
    st.integers(0, 40),
    st.integers(0, 10**4300 - 1),
    st.sampled_from([10**4299, 10**4300 - 1]),
)


@st.composite
def edge_cases(draw):
    """A one-interface program with one rule drawn over drawn names and
    numerals, and a pair of stores whose events read those numerals."""
    # a chain of 1 200 operands over short names and numerals, or a short
    # one over names and numerals of any length
    longest = draw(st.integers(0, 3)) == 0
    names = short_names if longest else st.one_of(short_names, long_names)
    names = names.filter(lambda name: name not in RESERVED)
    iface, attr, num, flag, write, mark, var, other, *ids = draw(st.lists(names, min_size=11, max_size=11, unique=True))
    n = draw(st.lists(st.integers(0, 40) if longest else numerals, min_size=2, max_size=2))
    length = 1200 if longest else draw(st.integers(1, 4))
    atoms = [
        f"event {num} from {var} value = {n[0]}",
        f"event {flag} from {var} value = true",
        f"event {num} from {var} value changed",
        f"event {flag} from {ids[0]} with {attr} = {var}.{attr} value = false",
        f"event {num} from {var} value = {ids[2]}.{num}",
    ]
    calls = [
        f"action {write}({n[1]}) on {var}",
        f"action {mark}(true) on {other}:{iface} with {attr} = {var}.{attr}",
        f"action {write}({var}.{num}) on {ids[2]}",
        f"action {mark}({var}.{flag}) on {var} with {attr} = {ids[2]}.{attr}",
    ]
    first = f"event {num} from {var}:{iface} value = {n[0]}"
    conditions = [draw(st.sampled_from(atoms)) for _ in range(length - 1)]
    # the first call declares ``ids[2]``, which a condition's path reads
    body = calls[2:3] + [draw(st.sampled_from(calls)) for _ in range(draw(st.sampled_from([0, length - 1])))]
    program = (
        f"interface {iface} {{ attribute {attr} : Integer event {num} : Integer event {flag} : Boolean "
        f"action {write} ( Integer ) action {mark} ( Boolean ) }}\n"
        + "".join(f"{entity} : {iface} {{ {attr} : {k % 2} }}\n" for k, entity in enumerate(ids))
        + f"rules\n({n[0] % 1000}) when {draw(st.sampled_from([' and ', ' or '])).join([first, *conditions])}\n"
        + f"trigger {draw(st.sampled_from([' , ', ' || '])).join(body)} end\nend\n"
    )
    values = {num: st.sampled_from([UNDEF, 0, 1, *n]), flag: st.sampled_from([UNDEF, True, False, 1])}
    stores = [
        {entity: {event: draw(value) for event, value in values.items()} for entity in ids} for _ in "pc"
    ]
    return program, stores


@settings(max_examples=24, deadline=None, suppress_health_check=list(HealthCheck))
@given(edge_cases())
def test_a_planned_rule_at_the_lexers_edges_agrees_with_the_closure_oracle(case):
    """Each drawn rule, planned and run in both modes, gives what the
    closure oracle gives, result or conflict, and plans with no
    ``SyntaxError`` or ``RecursionError`` whatever its names, numerals and
    chain lengths.  The oracle recurses down a chain, so it alone is given
    a deeper stack; a 1 200-operand rule's source runs to half a megabyte,
    so the compile cache is emptied after each case."""
    try:
        _agrees_with_the_oracle(*case)
    finally:
        compiled.cache_clear()


def _agrees_with_the_oracle(program, stores):
    before, after = stores
    checked = check_program(parse_program(program))
    assert checked.ok, checked.diagnostics
    previous, current = checked.initial_store, checked.initial_store
    for entity_id in before:
        for event in before[entity_id]:
            previous = with_event(previous, entity_id, event, before[entity_id][event])
            current = with_event(current, entity_id, event, after[entity_id][event])
    for mode in TriggerMode:
        dual = DualStore(previous, current)
        got = _result(lambda: eval_rule(checked.env, checked.rules[0], dual, mode))
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(20_000)
        try:
            want = _result(lambda: closure_eval.eval_rule(checked.env, checked.rules[0], dual, mode))
        finally:
            sys.setrecursionlimit(limit)
        assert got == want


def _result(evaluate):
    """The rule's result, or the conflict it raises, as strict conflicts
    report it."""
    try:
        return evaluate()
    except ConflictError as exc:
        return str(exc)


# ── The compile cache ────────────────────────────────────────────


@pytest.mark.parametrize("mode", list(TriggerMode), ids=lambda mode: mode.value)
def test_a_rule_is_compiled_once_however_often_it_is_planned(mode):
    """The cache is keyed by the generated source alone: planning a block
    again, or planning the same program parsed again from its text,
    compiles nothing, and neither does ``eval_rule`` on a rule it has
    seen, though it plans the rule on each call."""
    compiled.cache_clear()
    checked = check_program(parse_program(BUILDING_RUNNABLE))
    plan = plan_block(checked.rules, mode)
    assert compiled.cache_info().misses == len(checked.rules) == len({p.source for p in plan.plans})
    plan_block(checked.rules, mode)
    plan_block(check_program(parse_program(BUILDING_RUNNABLE)).rules, mode)
    dual = DualStore(checked.initial_store, with_event(checked.initial_store, "m10", "detected", True))
    for rule in checked.rules:
        eval_rule(checked.env, rule, dual, mode)
    info = compiled.cache_info()
    assert (info.misses, info.hits) == (len(checked.rules), 3 * len(checked.rules))
