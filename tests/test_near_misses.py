"""The near-miss rows of `near_misses.py`: what the tool gives, and what it should.

A row named in WRONG_AT_HEAD is a strict xfail: its expected outcome must
not hold yet, so the change that mends it fails here until it removes the
row's name (and sets the row's `head` to the outcome it gives then).
"""

import pytest

from near_misses import ROWS, _holds, outcome

WRONG_AT_HEAD = ("pole_inside_box", "quartic", "octic", "randpoly3_scaled_1e-8",
                 "sphere3_plus_1e-8", "sphere3_plus_1e-4")


def _marked(row):
    if row.name not in WRONG_AT_HEAD:
        return row
    return pytest.param(row, marks=pytest.mark.xfail(
        strict=True, raises=AssertionError, reason=f"ROADMAP item {row.item}"))


@pytest.mark.parametrize("row", [_marked(r) for r in ROWS], ids=lambda r: r.name)
def test_near_miss_gives_its_expected_outcome(row):
    o = outcome(row.name)
    assert _holds(row.expected_holds, o), f"exit {o.code}; expected: {row.expected}"


@pytest.mark.parametrize("row", ROWS, ids=lambda r: r.name)
def test_near_miss_gives_its_recorded_outcome(row):
    o = outcome(row.name)
    assert _holds(row.head_holds, o), f"exit {o.code}; recorded: {row.head}"


def test_every_wrong_row_exists():
    assert set(WRONG_AT_HEAD) <= {row.name for row in ROWS}
