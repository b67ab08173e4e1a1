"""Acceptance battery at full scale: one test per criterion.

Each test prints its PASS/FAIL line (visible under pytest -s or on
failure), asserts the criterion's report, and compares the report's JSON
with its pin in ``tests/golden/verify_full.sha256`` (made by
``python bench/same_outputs.py --write-manifest``). The same battery backs
``lpgreedy verify --profile full``. The tests after it check the table of
criteria on the quick profile: every greedy run of criteria 5-12 goes
through ``run_experiment`` in table order, their configs are pinned by
digest, and every criterion's reducer fails on a violating result.
"""

import collections
import dataclasses
import hashlib
import importlib
from pathlib import Path

import numpy as np
import pytest

from lpgreedy import acceptance
from lpgreedy.acceptance import ALL_CRITERIA, format_criterion_line, verify_suite

SEED = 0
BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture(scope="module")
def same_outputs():
    """``bench/same_outputs.py``: the pins of the full reports and their one writer."""
    with pytest.MonkeyPatch.context() as patch:
        patch.syspath_prepend(str(BENCH))
        return importlib.import_module("same_outputs")


@pytest.mark.parametrize(
    "number,name,criterion",
    ALL_CRITERIA,
    ids=[f"{num:02d}_{name}" for num, name, _ in ALL_CRITERIA],
)
def test_acceptance_criterion(number, name, criterion, same_outputs):
    report = criterion(seed=SEED, profile="full")
    print(format_criterion_line(number, name, report))
    assert report.applicable, report.details
    assert report.passed, (
        f"criterion {number} ({name}) failed: worst_margin={report.worst_margin!r}, "
        f"details={report.details}"
    )
    header, pins = same_outputs.read_manifest(same_outputs.FULL_MANIFEST)
    differences = same_outputs.header_differences(header)
    assert not differences, (
        f"the pins were made on another host or with other versions ({'; '.join(differences)}): "
        "make them again here before comparing reports")
    digest = hashlib.sha256(same_outputs.report_text(report).encode()).hexdigest()
    assert digest == pins[f"verify_full/{number:02d}_{name}.json"], (
        f"criterion {number} ({name}): its full report JSON moved from its pin")


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
    for number in range(5, 13):
        _, calls, _ = acceptance._TABLE[number]
        expected = [call.args[0].hash() for call in calls(SEED, "quick")]
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
        f"{number} {call.args[0].hash()}"
        for number, (_, calls, _) in sorted(acceptance._TABLE.items()) if 5 <= number <= 12
        for call in calls(SEED, profile)
    ]
    assert len(lines) == runs
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == digest


@pytest.fixture(scope="module")
def quick_results():
    """What the runner hands each criterion's reducer on the quick profile."""
    return {
        number: acceptance._criterion(name, calls, lambda _, results: results, SEED, "quick")
        for number, (name, calls, _) in acceptance._TABLE.items()
    }


_SUITE_REPORTS = {
    5: "residual_monotone",
    6: "ml1_per_step",
    7: "ml3_per_step",
    11: "barycentric_reconstruction",
}


def _failed(report):
    return dataclasses.replace(report, passed=False, worst_margin=-1.0)


@pytest.mark.parametrize("number", range(1, 15))
def test_run_reducer_fails_on_a_violating_run(number, quick_results):
    name, _, reduce = acceptance._TABLE[number]
    results = quick_results[number]
    assert reduce(name, results).passed
    results = list(results)
    if number == 1:  # one p's value margins all negative
        value, dual = results[0]
        results[0] = (np.full_like(value, -1.0), dual)
    elif number in (2, 3, 4):  # one failed checker report
        results[0] = _failed(results[0])
    elif number == 13:  # one sequence outside the lemma's hypotheses
        results[0] = dataclasses.replace(results[0], applicable=False)
    elif number == 14:  # one rerun pair whose trace files differ
        trace_csv, *others = results[0]
        results[0] = {trace_csv: False, **{name: True for name in others}}
    else:
        config, trace, reports = results[0]
        if number in _SUITE_REPORTS:
            report = reports[_SUITE_REPORTS[number]]
            results[0] = (config, trace, {**reports, report.name: _failed(report)})
        elif number == 8:
            # ||f_1||^2 = 1e4, above 400 / (1 + 1).
            records = [dataclasses.replace(trace.records[0], residual_norm=100.0),
                       *trace.records[1:]]
            results[0] = (config, dataclasses.replace(trace, records=records), reports)
        elif number == 9:
            # The run stops one step before its sparsity k.
            records = trace.records[: config.target.sparsity - 1]
            results[0] = (config, dataclasses.replace(trace, records=records), reports)
        else:
            # Flat residuals fit slope 0; quick needs 6 of its 8 runs below the bound.
            assert len(results) == 8
            for i in range(8 - 6 + 1):
                config, trace, reports = results[i]
                flat = [dataclasses.replace(record, residual_norm=1.0) for record in trace.records]
                results[i] = (config, dataclasses.replace(trace, records=flat), reports)
    report = reduce(name, results)
    assert not report.passed and report.worst_margin < 0.0, report
