"""Acceptance battery at full scale: one test per criterion.

Each test prints its PASS/FAIL line (visible under pytest -s or on
failure) and asserts the criterion's report. The same battery backs
``lpgreedy verify --profile full``. One more test checks, on the quick
profile, that every greedy run of the battery goes through
``run_experiment``.
"""

import collections
import io

import pytest

from lpgreedy import acceptance
from lpgreedy.acceptance import ALL_CRITERIA, format_criterion_line, verify_suite

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


def test_quick_battery_runs_every_loop_through_run_experiment(monkeypatch):
    """Every greedy run of the battery is a config checked at the stated tolerances."""
    configs = []
    original = acceptance.run_experiment

    def recording(config, out_dir=None):
        configs.append(config)
        return original(config, out_dir)

    monkeypatch.setattr(acceptance, "run_experiment", recording)
    exit_code, _ = verify_suite(seed=SEED, profile="quick", stream=io.StringIO())
    assert exit_code == 0
    # Quick-profile runs per criterion: 5 monotonicity 6, 6 ml1 6, 7 ml3 6,
    # 8 mt2 4, 9 exactness 4, 10 iac rate 8, 11 barycentric 4, 12 gawr rate 8
    # and 14 determinism 2 configs run twice each.
    assert len(configs) == 6 + 6 + 6 + 4 + 4 + 8 + 4 + 8 + 2 * 2
    by_algorithm = collections.Counter(config.algorithm.id for config in configs)
    assert by_algorithm == {"wgafr": 22, "gawr": 14, "iac": 10, "iacc": 4}
    assert all(config.checks.slack == 1e-8 for config in configs)
    assert all(config.checks.lambda_points == 101 for config in configs)
