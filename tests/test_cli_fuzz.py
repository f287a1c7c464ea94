"""The command line is total: whatever the program text, the script lines
and the flags, ``main`` returns (or argparse exits with) a documented exit
code and lets no exception escape.  A negative ``--max-ticks`` on an
otherwise well-formed command line is exit 1, as README documents.

``main`` runs in-process with its standard streams replaced, so a
traceback would surface here as the exception itself.
"""

from __future__ import annotations

import contextlib
import io
import pathlib
import sys
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from pantagruel.cli import main

DEMOS = pathlib.Path(__file__).resolve().parent.parent / "demos"
BUILDING = DEMOS / "building.ptg"
EXIT_CODES = {0, 1, 2, 3}
FUZZ = settings(max_examples=300, deadline=None)

# Words of the language, so that token soup reaches the parser's and the
# checker's deeper paths and not only the lexer's first error.
WORDS = (
    "interface", "attribute", "event", "action", "rules", "when", "trigger",
    "end", "from", "value", "changed", "with", "on", "and", "or", "all",
    "groupby", "Integer", "Boolean", "true", "false", "(1)", "(", ")", "{",
    "}", ":", ",", "||", "=", ".", "m", "l", "m10", "l10", "Light", "room",
    "switch", "detected", "MotionDetector", "0", "30", "101", "#", "\n",
)

SCRIPT_LINES = (
    "event m10.detected = true",
    "event m10.detected = false",
    "event m20.detected = undef",
    "event thermo.temperature = 30",
    "event l10.switch = true",
    "event ghost.detected = true",
    "attr l10.room = 201",
    "attr l10.room = true",
    "deploy l30 : Light { room : 101 }",
    "deploy l10 : Light { room : 101 }",
    "deploy x : Nowhere { }",
    "remove l20",
    "remove ghost",
    "tick",
    "state",
    "quit",
    "# a comment",
    "",
    "event m10.detected =",
    "@@ junk",
)

# One flag with its value, if it takes one, and whether argparse accepts it.
FLAGS = (
    (("--mode", "edge"), True),
    (("--mode", "level"), True),
    (("--mode", "pulse"), False),
    (("--format", "text"), True),
    (("--format", "jsonl"), True),
    (("--format", "xml"), False),
    (("--emit-initial",), True),
    (("--no-strict-conflicts",), True),
    (("--max-ticks", "0"), True),
    (("--max-ticks", "1"), True),
    (("--max-ticks", "3"), True),
    (("--max-ticks", "-1"), True),
    (("--max-ticks", "-7"), True),
    (("--max-ticks", "x"), False),
    (("--bogus",), False),
)


def _main(argv: list[str], stdin: str = "") -> tuple[int, str]:
    """``main(argv)`` with ``stdin`` as its input: its exit code (argparse's
    own exit included) and what it wrote to stderr."""
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
    finally:
        sys.stdin = saved
    return code, err.getvalue()


def _cut_from_the_demo(span: tuple[int, int]) -> bytes:
    """The demo program with the bytes between the two offsets taken out."""
    text = BUILDING.read_bytes()
    return text[: min(span)] + text[max(span):]


program_texts = st.one_of(
    st.binary(max_size=300),
    st.lists(st.sampled_from(WORDS), max_size=60).map(lambda words: " ".join(words).encode()),
    st.tuples(st.integers(0, 2000), st.integers(0, 2000)).map(_cut_from_the_demo),
)


@FUZZ
@given(program=program_texts)
def test_check_is_total_on_any_program_text(program):
    with tempfile.TemporaryDirectory() as scratch:
        path = pathlib.Path(scratch) / "fuzz.ptg"
        path.write_bytes(program)
        code, _ = _main(["check", str(path)])
    assert code in EXIT_CODES


@FUZZ
@given(
    command=st.sampled_from(["run", "repl"]),
    lines=st.lists(st.sampled_from(SCRIPT_LINES), max_size=25),
    flags=st.lists(st.sampled_from(FLAGS), max_size=5),
    with_script=st.booleans(),
)
def test_run_and_repl_are_total_on_any_script_and_flags(command, lines, flags, with_script):
    text = "".join(line + "\n" for line in lines)
    with tempfile.TemporaryDirectory() as scratch:
        argv = [command, str(BUILDING)]
        for flag, _ in flags:
            argv += flag
        if command == "run" and with_script:
            script = pathlib.Path(scratch) / "fuzz.evs"
            script.write_text(text, encoding="utf-8")
            argv += ["--script", str(script)]
        code, err = _main(argv, text if command == "repl" else "")
    assert code in EXIT_CODES, (argv, err)
    if all(ok for _, ok in flags) and (command == "repl" or with_script):
        max_ticks = [int(flag[1]) for flag, _ in flags if flag[0] == "--max-ticks"]
        if max_ticks and max_ticks[-1] < 0:
            assert code == 1, (argv, err)
