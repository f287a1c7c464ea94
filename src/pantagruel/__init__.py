"""Pantagruel: a parser, static checker, and reactive interpreter for a
two-layer entity-orchestration DSL.

The specification layer declares entity interfaces and instances; the
orchestration layer reacts to sensed events with rules evaluated over a
⟨previous, current⟩ store pair, one logical tick at a time.

The package root exports exactly what README's Library section documents:
the valuation functions and the values their callers build or catch.
Everything else (entities, references, the instantiation planner, the
checker's parts) lives in the submodules and may change without notice.
"""

from .domains import UNDEF, ConflictError, DualStore, UnknownEntityError, store_join, update_member
from .formatter import format_program
from .parser import ParseError, parse_program
from .rule_eval import TriggerMode, eval_rule
from .runtime import (
    AttributeUpdate,
    Deploy,
    EventUpdate,
    ExternalChangeError,
    Remove,
    apply_external,
    apply_internal,
    initial_state,
    run_trace,
    step,
)
from .script import ScriptError, parse_script
from .serialize import serialize_tick
from .spec_eval import check_program

__version__ = "0.1.0"

__all__ = [
    "AttributeUpdate",
    "ConflictError",
    "Deploy",
    "DualStore",
    "EventUpdate",
    "ExternalChangeError",
    "ParseError",
    "Remove",
    "ScriptError",
    "TriggerMode",
    "UNDEF",
    "UnknownEntityError",
    "apply_external",
    "apply_internal",
    "check_program",
    "eval_rule",
    "format_program",
    "initial_state",
    "parse_program",
    "parse_script",
    "run_trace",
    "serialize_tick",
    "step",
    "store_join",
    "update_member",
]
