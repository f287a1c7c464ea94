"""Command-line front end: check programs, run scripted traces, or drive
the interpreter interactively.

``run`` and ``repl`` step a tick and write its record in one place
(:func:`_step_and_write`), so a scripted run, like an interactive one,
writes each record as its tick ends and holds only the current state.

Exit codes: 0 success, 1 parse/static/script errors and malformed command
lines, 2 I/O errors (any failed write to stdout among them: a closed pipe,
a full disk), 3 effect conflict under strict mode, 4 an internal error:
any other exception a command raises, reported as one ``error: internal
error:`` line on stderr, never a traceback.  ``repl`` reports a
refused tick and reads on, and exits 1 at the end of its input if any tick
was refused; a malformed line it reports and skips.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import NoReturn

from .domains import ConflictError, Store
from .parser import ParseError, parse_program
from .rule_eval import TriggerMode
from .runtime import ExternalChange, ExternalChangeError, RunState, TickRecord, initial_state, step
from .script import ScriptError, TickMarker, parse_line, parse_script
from .serialize import serialize_tick, store_text
from .spec_eval import CheckedProgram, check_program

EXIT_OK = 0
EXIT_ERRORS = 1
EXIT_IO = 2
EXIT_CONFLICT = 3
EXIT_INTERNAL = 4


class _ArgumentParser(argparse.ArgumentParser):
    """Exits 1 on a malformed command line, as on any other input error;
    argparse alone would exit 2, the code of I/O errors."""

    def error(self, message: str) -> NoReturn:
        self.print_usage(sys.stderr)
        self.exit(EXIT_ERRORS, f"{self.prog}: error: {message}\n")


def build_arg_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="pantagruel",
        description="Check, run, or interactively drive orchestration programs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("program", help="program file (.ptg)")
        p.add_argument(
            "--mode",
            choices=["edge", "level"],
            default="edge",
            help="how 'value = X' reads the dual store (default: edge)",
        )
        p.add_argument(
            "--format",
            choices=["text", "jsonl"],
            default="text",
            help="trace output format (default: text)",
        )
        p.add_argument(
            "--emit-initial",
            action="store_true",
            help="emit the initial store as a tick-0 record",
        )
        p.add_argument(
            "--max-ticks", type=int, default=None, help="stop after N ticks"
        )
        p.add_argument(
            "--no-strict-conflicts",
            action="store_true",
            help="record effect conflicts and drop the tick's effects "
            "instead of aborting",
        )

    check = sub.add_parser("check", help="parse and statically check a program")
    check.add_argument("program", help="program file (.ptg)")

    run = sub.add_parser("run", help="run a program against an event script")
    common(run)
    run.add_argument("--script", required=True, help="event script file (.evs)")

    repl = sub.add_parser("repl", help="drive a program interactively")
    common(repl)
    return parser


def _read_file(path: str) -> str | None:
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        print(f"error: cannot read {path}: {exc.strerror}", file=sys.stderr)
        return None
    except UnicodeDecodeError as exc:
        print(f"error: cannot read {path}: {exc}", file=sys.stderr)
        return None


def _load_checked(path: str) -> CheckedProgram | int:
    """Parse and check a program file; on failure print diagnostics and
    return the exit code instead."""
    source = _read_file(path)
    if source is None:
        return EXIT_IO
    try:
        program = parse_program(source)
    except ParseError as exc:
        for diag in exc.diagnostics:
            print(diag.render(path), file=sys.stderr)
        return EXIT_ERRORS
    checked = check_program(program)
    for diag in checked.diagnostics:
        print(diag.render(path), file=sys.stderr)
    if not checked.ok:
        return EXIT_ERRORS
    return checked


def _tick_failed(exc: ExternalChangeError | ConflictError) -> int:
    """Report a tick that raised on stderr; return the exit code it calls for."""
    if isinstance(exc, ConflictError):
        print(f"conflict at tick {exc.tick}: {exc}", file=sys.stderr)
        return EXIT_CONFLICT
    for diag in exc.diagnostics:
        print(f"tick {exc.tick}: {diag.message}", file=sys.stderr)
    return EXIT_ERRORS


def _emit_initial(args: argparse.Namespace, store: Store) -> None:
    if args.emit_initial:
        sys.stdout.write(serialize_tick(TickRecord(0, (), (), store), args.format))


def _step_and_write(
    args: argparse.Namespace,
    checked: CheckedProgram,
    state: RunState,
    changes: list[ExternalChange],
) -> RunState:
    """Step one tick with the command's mode and strictness, write its
    record to stdout, and return the new state."""
    mode, strict = TriggerMode(args.mode), not args.no_strict_conflicts
    state, record = step(state, changes, checked.rules, checked.env, mode, strict)
    sys.stdout.write(serialize_tick(record, args.format))
    return state


def cmd_check(args: argparse.Namespace) -> int:
    result = _load_checked(args.program)
    if isinstance(result, int):
        return result
    return EXIT_OK


def cmd_run(args: argparse.Namespace) -> int:
    checked = _load_checked(args.program)
    if isinstance(checked, int):
        return checked
    script_text = _read_file(args.script)
    if script_text is None:
        return EXIT_IO
    try:
        ticks = parse_script(script_text)
    except ScriptError as exc:
        print(f"{args.script}: {exc}", file=sys.stderr)
        return EXIT_ERRORS
    state = initial_state(checked.initial_store)
    _emit_initial(args, state.current)
    try:
        for changes in ticks[: args.max_ticks]:
            state = _step_and_write(args, checked, state, changes)
    except (ExternalChangeError, ConflictError) as exc:
        return _tick_failed(exc)
    return EXIT_OK


def cmd_repl(args: argparse.Namespace) -> int:
    checked = _load_checked(args.program)
    if isinstance(checked, int):
        return checked
    state = initial_state(checked.initial_store)
    pending: list[ExternalChange] = []
    code = EXIT_OK  # EXIT_ERRORS once a tick is refused
    interactive = sys.stdin.isatty()
    _emit_initial(args, state.current)
    while args.max_ticks is None or state.tick < args.max_ticks:
        if interactive:
            print("> ", end="", file=sys.stderr, flush=True)
        try:
            line = sys.stdin.readline()
        except UnicodeDecodeError as exc:
            print(f"error: undecodable input: {exc}", file=sys.stderr)
            return EXIT_ERRORS
        if not line:
            break
        text = line.split("#", 1)[0].strip()
        if text in ("quit", "exit"):
            break
        if text == "state":
            sys.stdout.write(store_text(state.current))
            continue
        try:
            parsed = parse_line(line)
        except ScriptError as exc:
            print(f"error: {exc}", file=sys.stderr)
            continue
        if parsed is None:
            continue
        if not isinstance(parsed, TickMarker):
            pending.append(parsed)
            continue
        try:
            state = _step_and_write(args, checked, state, pending)
        except ExternalChangeError as exc:
            code = _tick_failed(exc)
        except ConflictError as exc:
            return _tick_failed(exc)
        pending = []
    return code


_COMMANDS = {"check": cmd_check, "run": cmd_run, "repl": cmd_repl}


def main(argv: list[str] | None = None) -> int:
    args = build_arg_parser().parse_args(argv)
    if args.command != "check" and args.max_ticks is not None and args.max_ticks < 0:
        print(
            f"error: --max-ticks must be 0 or more, got {args.max_ticks}", file=sys.stderr
        )
        return EXIT_ERRORS
    try:
        code = _COMMANDS[args.command](args)
        sys.stdout.flush()
    except OSError as exc:
        # Writing stdout failed: its reader closed it early (`pantagruel run
        # ... | head`) or its device is full; input files report their own
        # errors.  Point stdout at devnull so the flush at shutdown does not
        # fail again.
        print(f"error: cannot write to stdout: {exc.strerror}", file=sys.stderr)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_IO
    except Exception as exc:
        message = " ".join(str(exc).splitlines())
        print(f"error: internal error: {type(exc).__name__}: {message}", file=sys.stderr)
        return EXIT_INTERNAL
    return code


if __name__ == "__main__":
    sys.exit(main())
