"""Shared fixtures: the building-automation demo program, checked."""

from __future__ import annotations

import pytest

from pantagruel import check_program, parse_program
from support import BUILDING_RULES_13, BUILDING_RUNNABLE


@pytest.fixture(scope="session")
def building_ast():
    return parse_program(BUILDING_RUNNABLE)


@pytest.fixture()
def building():
    """A freshly checked runnable program (rules 1, 2-rewritten, 3)."""
    checked = check_program(parse_program(BUILDING_RUNNABLE))
    assert checked.ok
    return checked


@pytest.fixture()
def building_13():
    checked = check_program(parse_program(BUILDING_RULES_13))
    assert checked.ok
    return checked
