"""The timer and the row table of ``bench/run_bench.py``, on fake calls and small inputs."""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

import lpgreedy

_SCRIPT = Path(__file__).resolve().parents[1] / "bench" / "run_bench.py"
_SPEC = importlib.util.spec_from_file_location("run_bench", _SCRIPT)
run_bench = sys.modules[_SPEC.name] = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(run_bench)
ROWS = {row.name: row for row in run_bench.table(lpgreedy)}


class Clock:
    now = 0.0

    def perf_counter(self):
        return self.now


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

    calls = {label: [fake(iter(per_call)) for per_call in per_label]
             for label, per_label in durations.items()}
    best = run_bench.time_calls(calls)
    assert best == {"parent": [2.0, 1.0], "change": [0.5, 2.5]}
    assert run_bench.ratios(best) == {
        "change_over_parent": (0.25 + 2.5) / 2,  # the median of the per-call ratios
        "call_ratio_quartiles": pytest.approx(run_bench.quartiles([0.25, 2.5])),
        "summed_ratio": (0.5 + 2.5) / (2.0 + 1.0),  # the ratio of the summed least times
    }


def test_batch_over_single_times_the_pairs_call_by_call(monkeypatch):
    monkeypatch.setattr(run_bench, "TIMINGS", 2)
    clock, log = Clock(), []
    monkeypatch.setattr(run_bench, "time", clock)

    def call(kind, i, seconds):
        def timed():
            log.append((kind, i))
            clock.now += seconds
        return timed

    singles = [call("single", i, s) for i, s in enumerate([1.0, 2.0, 4.0])]
    batches = [call("batch", i, s) for i, s in enumerate([1.5, 2.0, 2.0])]
    assert run_bench.batch_over_single(singles, batches) == 1.0  # the median of 1.5, 1, 0.5
    assert [i for _, i in log] == [0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2]


def test_a_row_in_rounds_reduces_each_call_once_and_times_it_each_round(monkeypatch):
    monkeypatch.setattr(run_bench, "TIMINGS", 1)
    clock, log, reduced = Clock(), [], {}
    monkeypatch.setattr(run_bench, "time", clock)

    def calls(pkg, p, dim, data):
        def call(i):
            log.append((pkg, i))
            clock.now += {"parent": 2.0, "change": 1.0}[pkg] * (i + 1)
            return i
        return [lambda i=i: call(i) for i in data]

    def stats(pkg, results):
        reduced[pkg] = results
        return {"units": len(results)}

    row = run_bench.Row("fake", 0, ((None, None),), lambda rng, p, dim: [0, 1], calls,
                        stats=stats, rounds=3)
    result, times = run_bench.run_case({"parent": "parent", "change": "change"}, row, None, None)
    assert reduced == {"parent": [0, 1], "change": [0, 1]}  # the warm-up pass, once per call
    assert [len(times[label]) for label in ("parent", "change")] == [6, 6]
    assert log.count(("change", 0)) == 1 + 3 and log.count(("parent", 1)) == 1 + 3
    assert (result["instances"], result["rounds"]) == (2, 3)
    # the time per unit is of one pass: (1 + 2) us per round, three rounds, two units
    assert result["change"]["call_us"] == pytest.approx(1e6 * 3 * 3.0 / 3 / 2)
    assert result["change_over_parent"] == 0.5


def test_every_verify_row_gives_at_least_min_ratios_per_call_ratios():
    for name, row in ROWS.items():
        if name.startswith("verify_"):
            calls = len(run_bench.instances(row, None, None))
            assert calls * row.rounds >= run_bench.MIN_RATIOS > calls * (row.rounds - 1), name
        else:
            assert row.rounds == 1, name
    assert ROWS["verify_14_determinism"].rounds == 10
    assert ROWS["verify_01_duality_identities"].rounds == 5


def test_quartiles_of_one_value_are_the_value():
    assert run_bench.quartiles([4.0]) == [4.0, 4.0]
    assert run_bench.quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == [1.5, 4.5]


def test_the_table_names_each_row_once_and_holds_every_layer():
    """Aim 1's layers: norm and functional, scan and selection, the inner solve, a step of
    each loop, the checkers, the trace CSV, sweeps, each verify criterion, the processes,
    the calibration."""
    assert len(ROWS) == len(run_bench.table(lpgreedy))
    layers = {"lp_norm", "norming_functional", "weak_select", "eps_select", "minimize_over_line",
              "minimize_free_relax", "run_wgafr", "run_gawr", "run_iac", "run_iacc",
              "check_monotone", "check_ml1_trace", "check_mt2_bound", "check_ml3_trace",
              "check_barycentric", "check_trivial_step", "fit_log_slope", "trace_csv_write",
              "trace_csv_read", "suite_stage_iac",
              "run_sweep_p_wgafr", "run_sweep_p_iacc", "import_lpgreedy", "lpgreedy_run",
              "calibrate_cpu_kernel", "calibrate_memory_kernel", "generate_dictionary",
              *(f"verify_{n:02d}_{name}" for n, name, _ in lpgreedy.acceptance.ALL_CRITERIA)}
    assert layers <= set(ROWS)
    assert {(p, dim) for p, dim in ROWS["weak_select"].cases} == {
        (p, dim) for p in run_bench.PS for dim in (16, 2048)}
    for row in ROWS.values():  # a batch-of-one row draws its loop row's inputs
        if row.batch_of:
            loop = ROWS[row.batch_of]
            assert (row.seed, row.cases, row.unit) == (loop.seed, loop.cases, loop.unit)


@pytest.mark.parametrize("name", list(ROWS))
def test_every_row_makes_one_call_per_input(name):
    row = ROWS[name]
    p, dim = row.cases[0]
    data = run_bench.instances(row, p, dim)[:2]
    calls = row.calls(lpgreedy, p, dim, data)
    assert len(calls) == len(data) and all(callable(call) for call in calls)
    if row.unit == "process":
        return  # a child process: too slow to make here
    stats = run_bench.warm_up(lpgreedy, row, calls)
    if name.startswith("run_sweep_p_"):  # every p of the row, in one batch per sweep
        replicates = 4 if name.endswith(("iac", "iacc")) else 1
        assert stats["units"] == stats["cells"] == len(data) * len(run_bench.PS) * replicates
        assert stats["failed_cells"] == 0
    elif row.unit == "step":  # every run takes all its steps
        shape = run_bench.LOOP_SHAPE if "gawr" in name or "wgafr" in name else run_bench.CELL_SHAPE
        assert stats["units"] == stats["steps"] == len(data) * shape[3]
        if row.batch_of:  # each call a list of one trace
            assert all(len(call()) == 1 for call in calls)
    else:
        assert stats["units"] == len(data)
    if name.startswith("verify_"):  # the criterion's reducer on the first two calls' results
        assert stats["calls"] == len(data) and stats["passed"] is True
    if name.startswith("suite_stage_"):  # a cell's suites: trivial step, barycentric, rate slope
        suites = calls[0]()
        assert len(suites) == run_bench.CELL_REPLICATES
        assert [r.name for r in suites[0]] == [
            "trivial_step_bound", "barycentric_reconstruction", "rate_slope"]


@pytest.mark.parametrize("name", [name for name, row in ROWS.items() if row.batch_of])
def test_a_batch_of_one_row_runs_its_loop_rows_inputs(name):
    row, loop = ROWS[name], ROWS[ROWS[name].batch_of]
    p, dim = row.cases[0]
    data = run_bench.instances(row, p, dim)[:2]
    assert data == run_bench.instances(loop, p, dim)[:2]
    assert [batch()[0].to_csv_string() for batch in row.calls(lpgreedy, p, dim, data)] == [
        single().to_csv_string() for single in loop.calls(lpgreedy, p, dim, data)]


def test_run_criteria_are_timed_as_the_runs_they_make_with_their_arguments():
    table = lpgreedy.acceptance._TABLE
    for number, (name, calls_of, _) in table.items():  # one input per call of the criterion's row
        row = ROWS[f"verify_{number:02d}_{name}"]
        data = run_bench.instances(row, None, None)
        calls = calls_of(run_bench.VERIFY_SEED, run_bench.VERIFY_PROFILE)
        assert data == list(range(len(calls))), name
    # Criterion 9 at --profile full: 8 sparsities x 2 targets, one run each.
    row = ROWS["verify_09_orthonormal_exactness"]
    calls = row.calls(lpgreedy, None, None, run_bench.instances(row, None, None))
    assert [call.func for call in calls] == [lpgreedy.acceptance._run] * 16
    assert [call.args[0].target.sparsity for call in calls] == [
        k for k in range(1, 9) for _ in range(2)]
    stats = run_bench.warm_up(lpgreedy, row, calls)
    assert (row.unit, stats["units"], stats["calls"], stats["passed"]) == ("call", 16, 16, True)
    report = lpgreedy.acceptance._criterion(*table[9], run_bench.VERIFY_SEED,
                                            run_bench.VERIFY_PROFILE)
    assert stats["worst_margin"] == report.worst_margin  # the row's reducer is the criterion's
    # Criterion 14: one call per rerun pair of its two configs.
    calls = ROWS["verify_14_determinism"].calls(lpgreedy, None, None, [0, 1])
    assert [call.func for call in calls] == [lpgreedy.acceptance._rerun] * 2
    assert calls[0]() == {calls[0].args[0].output.trace_csv: True,
                          calls[0].args[0].output.report_json: True}


def test_opcode_counts_are_integers_that_two_passes_reproduce():
    loop, solve = ROWS["run_wgafr"], ROWS["minimize_free_relax"]
    runs = loop.calls(lpgreedy, 1.5, 16, run_bench.instances(loop, 1.5, 16)[:2])
    solves = solve.calls(lpgreedy, 1.5, 16, run_bench.instances(solve, 1.5, 16)[:3])
    for calls in (runs, solves):
        for call in calls:  # the first pass, as the warm-up pass makes it
            call()
        counts = [run_bench.count_opcodes(lpgreedy, calls)[1] for _ in range(2)]
        assert type(counts[0]) is int and counts[0] > 0
        assert counts[0] == counts[1]
    # only frames of the package count, not this file's
    assert run_bench.count_opcodes(lpgreedy, [lambda: sum(range(10))]) == ([45], 0)
