"""The timer and the case builder of ``bench/run_bench.py``, on fake calls and small inputs."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

import lpgreedy

_SCRIPT = Path(__file__).resolve().parents[1] / "bench" / "run_bench.py"
_SPEC = importlib.util.spec_from_file_location("run_bench", _SCRIPT)
run_bench = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(run_bench)


def test_time_calls_alternates_the_first_tree_per_input_and_per_timing(monkeypatch):
    monkeypatch.setattr(run_bench, "TIMINGS", 3)
    log = []
    calls = {
        label: [lambda label=label, i=i: log.append((label, i)) for i in range(3)]
        for label in ("parent", "change")
    }
    best = run_bench.time_calls(calls)
    P, C = "parent", "change"
    expected = [
        (P, 0), (C, 0), (C, 0), (P, 0), (P, 0), (C, 0),
        (C, 1), (P, 1), (P, 1), (C, 1), (C, 1), (P, 1),
        (P, 2), (C, 2), (C, 2), (P, 2), (P, 2), (C, 2),
    ]
    assert log == expected
    assert [len(best[label]) for label in (P, C)] == [3, 3]


def test_time_calls_keeps_the_least_time_of_each_call_per_tree(monkeypatch):
    monkeypatch.setattr(run_bench, "TIMINGS", 3)

    class Clock:
        now = 0.0

        def perf_counter(self):
            return self.now

    clock = Clock()
    monkeypatch.setattr(run_bench, "time", clock)
    durations = {
        "parent": [[5.0, 2.0, 7.0], [1.0, 4.0, 3.0]],
        "change": [[6.0, 6.0, 0.5], [8.0, 9.0, 2.5]],
    }

    def fake(steps):
        def call():
            clock.now += next(steps)
        return call

    calls = {
        label: [fake(iter(per_call)) for per_call in per_label]
        for label, per_label in durations.items()
    }
    best = run_bench.time_calls(calls)
    assert best == {"parent": [2.0, 1.0], "change": [0.5, 2.5]}
    assert run_bench.ratios(best) == {
        "change_over_parent": (0.25 + 2.5) / 2,  # the median of the per-call ratios
        "call_ratio_quartiles": pytest.approx(run_bench.quartiles([0.25, 2.5])),
        "summed_ratio": (0.5 + 2.5) / (2.0 + 1.0),  # the ratio of the summed least times
    }


def test_batch_over_single_times_the_pairs_call_by_call(monkeypatch):
    monkeypatch.setattr(run_bench, "TIMINGS", 2)
    log = []

    def call(kind, i, seconds):
        def timed():
            log.append((kind, i))
            clock.now += seconds
        return timed

    class Clock:
        now = 0.0

        def perf_counter(self):
            return self.now

    clock = Clock()
    monkeypatch.setattr(run_bench, "time", clock)
    singles = [call("single", i, s) for i, s in enumerate([1.0, 2.0, 4.0])]
    batches = [call("batch", i, s) for i, s in enumerate([1.5, 2.0, 2.0])]
    assert run_bench.batch_over_single(singles, batches) == 1.0  # the median of 1.5, 1, 0.5
    assert [i for _, i in log] == [0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2]


def test_quartiles_of_one_value_are_the_value():
    assert run_bench.quartiles([4.0]) == [4.0, 4.0]
    assert run_bench.quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == [1.5, 4.5]


def _case_data(entry, p, dim):
    if entry in run_bench.PROCESSES or entry == run_bench.CALIBRATION:
        return [0, 1]
    if entry.startswith("verify_"):
        return [int(entry.split("_")[1])]
    return run_bench.instances(entry, p, dim)[:2]


@pytest.mark.parametrize(
    "entry, dim",
    [(entry, 16) for entry in run_bench.SOLVES + run_bench.NORMS + run_bench.LOOPS]
    + [
        (entry, run_bench.CELL_DIM)
        for entry in (*run_bench.CELL_PARTS, *run_bench.SWEEPS, *run_bench.CELL_LOOPS,
                      *run_bench.CELL_STAGES, *run_bench.P_SWEEPS, *run_bench.BATCHES_OF_ONE)
    ]
    + [(entry, None) for entry in (*run_bench.PROCESSES, "verify_01", run_bench.CALIBRATION)],
)
def test_prepare_builds_one_call_per_input(entry, dim):
    p = 1.5
    data = _case_data(entry, p, dim)
    calls = run_bench.prepare(lpgreedy, entry, p, dim, data)
    assert len(calls) == len(data) and all(callable(call) for call in calls)
    if entry in run_bench.PROCESSES or entry.startswith("verify_"):
        return  # a child process or a whole criterion: too slow to make here
    stats = run_bench.warm_up(lpgreedy, entry, calls)
    if entry in run_bench.SWEEPS:
        assert stats["units"] == stats["cells"] == len(data) * run_bench.CELL_REPLICATES
    elif entry in run_bench.P_SWEEPS:  # every p of the row, in one batch per sweep
        assert stats["units"] == stats["cells"] == (
            len(data) * len(run_bench.PS) * run_bench.P_SWEEPS[entry])
        assert stats["failed_cells"] == 0
    elif entry in run_bench.CELL_LOOPS:
        assert stats["units"] == stats["steps"] == len(data) * run_bench.CELL_ITERS
    elif entry in run_bench.BATCHES_OF_ONE:  # each call a list of one trace
        assert stats["units"] == stats["steps"] > 0
        assert all(len(call()) == 1 for call in calls)
    elif entry not in run_bench.LOOPS:
        assert stats["units"] == len(data)
    if entry.startswith("suite_stage_"):  # a cell's suites: trivial step, barycentric, rate slope
        suites = calls[0]()
        assert len(suites) == run_bench.CELL_REPLICATES
        assert [r.name for r in suites[0]] == [
            "trivial_step_bound", "barycentric_reconstruction", "rate_slope"]
    if entry.startswith("build_stage_"):  # the batch's space, dictionaries and targets
        space, dictionaries, targets = calls[0]()
        assert len(dictionaries) == len(targets) == run_bench.CELL_REPLICATES


@pytest.mark.parametrize("entry, loop", run_bench.BATCHES_OF_ONE.items())
def test_a_batch_of_one_row_runs_its_loop_rows_inputs(entry, loop):
    dim = 16 if loop in run_bench.LOOPS else run_bench.CELL_DIM
    data = run_bench.instances(entry, 1.5, dim)[:2]
    assert data == run_bench.instances(loop, 1.5, dim)[:2]
    batches = run_bench.prepare(lpgreedy, entry, 1.5, dim, data)
    singles = run_bench.prepare(lpgreedy, loop, 1.5, dim, data)
    assert [batch()[0].to_csv_string() for batch in batches] == [
        single().to_csv_string() for single in singles]


def test_run_criterion_is_timed_as_the_runs_it_makes():
    # Criterion 9 at --profile full: 8 sparsities x 2 targets, one run each.
    entry = "verify_09_orthonormal_exactness"
    assert run_bench.is_run_criterion(entry) and not run_bench.is_run_criterion("verify_13_x")
    original = lpgreedy.acceptance.run_experiment
    calls = run_bench.prepare(lpgreedy, entry, None, None, [9])
    assert lpgreedy.acceptance.run_experiment is original
    assert [call.func for call in calls] == [lpgreedy.run_experiment] * 16
    sparsities = [call.args[0].target.sparsity for call in calls]
    assert sparsities == [k for k in range(1, 9) for _ in range(2)]
    stats = run_bench.warm_up(lpgreedy, entry, calls)
    assert stats["units"] == stats["runs"] == 16 and stats["failed_reports"] == 0


def test_opcode_counts_are_integers_that_two_passes_reproduce():
    p, data = 1.5, run_bench.instances("run_wgafr", 1.5, 16)[:2]
    solves = run_bench.prepare(
        lpgreedy, "minimize_free_relax", p, 16, run_bench.instances("minimize_free_relax", p, 16)[:3])
    for calls in (run_bench.loop_runs(lpgreedy, "run_wgafr", p, data), solves):
        for call in calls:  # the first pass, as the warm-up pass makes it
            call()
        counts = [run_bench.count_opcodes(lpgreedy, calls)[1] for _ in range(2)]
        assert type(counts[0]) is int and counts[0] > 0
        assert counts[0] == counts[1]
    # only frames of the package count, not this file's
    assert run_bench.count_opcodes(lpgreedy, [lambda: sum(range(10))]) == ([45], 0)
