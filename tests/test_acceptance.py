"""Acceptance battery at full scale: one test per criterion.

Each test prints its PASS/FAIL line (visible under pytest -s or on
failure) and asserts the criterion's report. The same battery backs
``lpgreedy verify --profile full``. The tests after it check the table of
run criteria 5-12 on the quick profile: every greedy run goes through
``run_experiment`` in table order, the configs are pinned by digest, and
every reducer fails on a violating run.
"""

import collections
import dataclasses
import hashlib

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


def test_quick_battery_runs_every_loop_through_run_experiment(monkeypatch, capsys):
    """Every greedy run of the battery is a config checked at the stated tolerances."""
    configs = []
    original = acceptance.run_experiment

    def recording(config, out_dir=None):
        configs.append(config)
        return original(config, out_dir)

    monkeypatch.setattr(acceptance, "run_experiment", recording)
    exit_code, _ = verify_suite(seed=SEED, profile="quick")
    assert capsys.readouterr().out.endswith("14/14 criteria passed\n")
    assert exit_code == 0
    # Quick-profile runs per criterion: 5 monotonicity 6, 6 ml1 6, 7 ml3 6,
    # 8 mt2 4, 9 exactness 4, 10 iac rate 8, 11 barycentric 4, 12 gawr rate 8
    # and 14 determinism 2 configs run twice each.
    assert len(configs) == 6 + 6 + 6 + 4 + 4 + 8 + 4 + 8 + 2 * 2
    by_algorithm = collections.Counter(config.algorithm.id for config in configs)
    assert by_algorithm == {"wgafr": 22, "gawr": 14, "iac": 10, "iacc": 4}
    assert all(config.checks.slack == 1e-8 for config in configs)
    assert all(config.checks.lambda_points == 101 for config in configs)
    # Criteria 1-4 and 13 make no runs, so 5-12 come first, each its table list in order.
    start = 0
    for number, (_, configs_of, _) in acceptance._RUN_TABLE.items():
        expected = [config.hash() for config in configs_of(seed=SEED, profile="quick")]
        recorded = [config.hash() for config in configs[start : start + len(expected)]]
        assert recorded == expected, f"criterion {number}"
        start += len(expected)
    assert start == len(configs) - 2 * 2


@pytest.mark.parametrize(
    "profile,runs,digest",
    [
        ("quick", 46, "75b43c82f463b11e0839465570ef47835b28ae1becfa8683acf41e3a7ac18b1d"),
        ("full", 336, "d2351cadd870b2e0eb95dd0ebc4796a9e2078880e78f2b13ca79467607660c8a"),
    ],
)
def test_run_criteria_configs_are_pinned(profile, runs, digest):
    """The configs of criteria 5-12 at seed 0, in number and list order, built without running."""
    lines = [
        f"{number} {config.hash()}"
        for number, (_, configs_of, _) in sorted(acceptance._RUN_TABLE.items())
        for config in configs_of(seed=SEED, profile=profile)
    ]
    assert len(lines) == runs
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == digest


@pytest.fixture(scope="module")
def quick_inputs():
    """What the runner hands each criterion 5-12's reducer on the quick profile."""
    return {
        number: acceptance._run_criterion(
            name, configs_of, lambda _, configs, results: (configs, results), SEED, "quick"
        )
        for number, (name, configs_of, _) in acceptance._RUN_TABLE.items()
    }


_SUITE_REPORTS = {
    5: "residual_monotone",
    6: "ml1_per_step",
    7: "ml3_per_step",
    11: "barycentric_reconstruction",
}


@pytest.mark.parametrize("number", range(5, 13))
def test_run_reducer_fails_on_a_violating_run(number, quick_inputs):
    name, _, reduce = acceptance._RUN_TABLE[number]
    configs, results = quick_inputs[number]
    assert reduce(name, configs, results).passed
    results = list(results)
    trace, reports = results[0]
    if number in _SUITE_REPORTS:
        report = reports[_SUITE_REPORTS[number]]
        violating = dataclasses.replace(report, passed=False, worst_margin=-1.0)
        results[0] = (trace, {**reports, report.name: violating})
    elif number == 8:
        # ||f_1||^2 = 1e4, above 400 / (1 + 1).
        records = [dataclasses.replace(trace.records[0], residual_norm=100.0), *trace.records[1:]]
        results[0] = (dataclasses.replace(trace, records=records), reports)
    elif number == 9:
        # The run stops one step before its sparsity k.
        records = trace.records[: configs[0].target.sparsity - 1]
        results[0] = (dataclasses.replace(trace, records=records), reports)
    else:
        # Flat residuals fit slope 0; quick needs 6 of its 8 runs below the bound.
        assert len(results) == 8
        for i in range(8 - 6 + 1):
            trace, reports = results[i]
            flat = [dataclasses.replace(record, residual_norm=1.0) for record in trace.records]
            results[i] = (dataclasses.replace(trace, records=flat), reports)
    report = reduce(name, configs, results)
    assert not report.passed and report.worst_margin < 0.0, report
