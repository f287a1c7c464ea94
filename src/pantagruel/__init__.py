"""Pantagruel: a parser, static checker, and reactive interpreter for a
two-layer entity-orchestration DSL.

The specification layer declares entity interfaces and instances; the
orchestration layer reacts to sensed events with rules evaluated over a
⟨previous, current⟩ store pair, one logical tick at a time.
"""

from .diagnostics import Diagnostic, Severity, SourceSpan
from .domains import (
    UNDEF,
    ConflictError,
    DualStore,
    Entity,
    EnvEntity,
    EnvInterface,
    InstanceRef,
    Interface,
    InterfaceRef,
    Store,
    UnknownEntityError,
    Value,
    access_attribute,
    access_event,
    combine_entities,
    instantiate,
    store_join,
    store_join_all,
    update_member,
    value_eq,
    value_neq,
)
from .formatter import format_program
from .parser import ParseError, parse_program
from .rule_eval import (
    FiredRule,
    TriggerMode,
    UnsupportedConstructError,
    eval_rule,
    eval_rule_block,
)
from .runtime import (
    AttributeUpdate,
    Deploy,
    EventUpdate,
    ExternalChange,
    ExternalChangeError,
    Remove,
    RunState,
    TickRecord,
    apply_external,
    apply_internal,
    initial_state,
    run_trace,
    step,
)
from .script import ScriptError, parse_script
from .serialize import serialize_tick
from .spec_eval import CheckedProgram, check_program, check_rules, eval_specification

__version__ = "0.1.0"

__all__ = [
    "AttributeUpdate",
    "CheckedProgram",
    "ConflictError",
    "Deploy",
    "Diagnostic",
    "DualStore",
    "Entity",
    "EnvEntity",
    "EnvInterface",
    "EventUpdate",
    "ExternalChange",
    "ExternalChangeError",
    "FiredRule",
    "InstanceRef",
    "Interface",
    "InterfaceRef",
    "ParseError",
    "Remove",
    "RunState",
    "ScriptError",
    "Severity",
    "SourceSpan",
    "Store",
    "TickRecord",
    "TriggerMode",
    "UNDEF",
    "UnknownEntityError",
    "UnsupportedConstructError",
    "Value",
    "access_attribute",
    "access_event",
    "apply_external",
    "apply_internal",
    "check_program",
    "check_rules",
    "combine_entities",
    "eval_rule",
    "eval_rule_block",
    "eval_specification",
    "format_program",
    "initial_state",
    "instantiate",
    "parse_program",
    "parse_script",
    "run_trace",
    "serialize_tick",
    "step",
    "store_join",
    "store_join_all",
    "update_member",
    "value_eq",
    "value_neq",
]
