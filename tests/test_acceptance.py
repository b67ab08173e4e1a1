"""Acceptance battery at full scale: one test per criterion.

Each test prints its PASS/FAIL line (visible under pytest -s or on
failure) and asserts the criterion's report. The same battery backs
``lpgreedy verify --profile full``.
"""

import pytest

from lpgreedy.acceptance import ALL_CRITERIA, format_criterion_line

SEED = 0


@pytest.mark.parametrize(
    "number,name,criterion",
    ALL_CRITERIA,
    ids=[f"{num:02d}_{name}" for num, name, _ in ALL_CRITERIA],
)
def test_acceptance_criterion(number, name, criterion):
    report = criterion(seed=SEED, profile="full")
    print(format_criterion_line(number, name, report))
    assert report.applicable, report.details
    assert report.passed, (
        f"criterion {number} ({name}) failed: worst_margin={report.worst_margin!r}, "
        f"details={report.details}"
    )
