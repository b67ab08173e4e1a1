"""A batch of runs stepped in lockstep gives each run exactly its single-run outputs."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from lpgreedy import (
    ExperimentConfig,
    LpSpace,
    SweepSpec,
    TargetSpec,
    algorithms,
    harness,
    run_sweep,
)
from lpgreedy.analysis import _barycentric, _trivial_steps, check_barycentric, check_trivial_step
from lpgreedy.algorithms import (
    RelaxationSchedule,
    WeaknessSequence,
    _greedy_loop,
    run_gawr,
    run_iac,
    run_iacc,
    run_wgafr,
)
from lpgreedy.dictionaries import (
    InfeasibleSelectionError,
    _selections,
    generate_dictionary,
    make_target,
)


def cell_configs(algorithm, policy, p, replicates, **target):
    base = {
        "space": {"p": p, "dim": 8},
        "dictionary": {"kind": "gaussian", "count": 16},
        "target": {"membership": "conv" if algorithm == "iacc" else "a1", "sparsity": 4, **target},
        "algorithm": {"id": algorithm, "iters": 6, "policy": policy,
                      "t": 1.0 if policy == "argmax" else 0.5},
    }
    return [
        ExperimentConfig.from_dict(base).with_fields(
            {"dictionary.seed": 40 + 3 * r, "target.seed": 90 + 7 * r}
        )
        for r in range(replicates)
    ]


def outputs(result):
    """The trace CSV and report JSON objects of one run, or its error text."""
    if isinstance(result, Exception):
        return f"{type(result).__name__}: {result}"
    trace, reports = result
    return trace.to_csv_string(), [report.to_json_obj() for report in reports]


def single(config):
    try:
        return harness.run_experiment(config)
    except Exception as exc:
        return exc


@pytest.mark.parametrize("replicates", [1, 2, 4])
@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
@pytest.mark.parametrize("policy", ["argmax", "first_qualifying"])
@pytest.mark.parametrize("algorithm", ["wgafr", "gawr", "iac", "iacc"])
def test_each_row_of_a_batch_is_its_single_run(algorithm, policy, p, replicates):
    configs = cell_configs(algorithm, policy, p, replicates)
    batch = harness._run_batch(configs)
    assert [outputs(result) for result in batch] == [outputs(single(c)) for c in configs]
    assert not any(isinstance(result, Exception) for result in batch)


@pytest.mark.parametrize("replicates", [1, 2, 4])
@pytest.mark.parametrize("policy", ["argmax", "first_qualifying"])
@pytest.mark.parametrize("algorithm", ["wgafr", "gawr", "iac", "iacc"])
def test_each_row_of_a_batch_across_p_is_its_single_run(algorithm, policy, replicates):
    # Cells at p = 3, 1.5, an invalid 0.5, 3 again (other seeds) and 2, in one batch.
    ps = [3.0, 1.5, 0.5, 3.0, 2.0]
    configs = [
        config.with_fields({"dictionary.seed": config.dictionary.seed + 100 * cell,
                            "target.seed": config.target.seed + 100 * cell})
        for cell, p in enumerate(ps) for config in cell_configs(algorithm, policy, p, replicates)
    ]
    batch = harness._run_batch(configs)
    assert [outputs(result) for result in batch] == [outputs(single(c)) for c in configs]
    assert [isinstance(result, Exception) for result in batch] == [
        p == 0.5 for p in ps for _ in range(replicates)]


def one_by_one(monkeypatch):
    """Make run_sweep run every replicate as a batch of one."""
    original = harness._run_batch
    monkeypatch.setattr(
        harness, "_run_batch", lambda configs: [original([c])[0] for c in configs]
    )


@pytest.mark.parametrize("algorithm", ["iac", "iacc"])
def test_rows_that_stop_and_fail_at_different_steps(monkeypatch, algorithm):
    # A one-atom target and a vanishing K1: some rows reach the target and
    # stop early, others find no atom within eps_m at some step.
    base = cell_configs(algorithm, "argmax", 2.0, 1, sparsity=1)[0].with_fields(
        {"algorithm.k1": 1e-300, "dictionary.seed": 7, "target.seed": 11}
    )
    spec = SweepSpec(base=base, axes=[("space.p", [1.5, 2.0, 3.0])], replicate_seeds=4)
    rows = run_sweep(spec)
    errors = [row["error"].split(":")[0] for row in rows if row["error"]]
    assert errors == ["InfeasibleSelectionError"] * 2
    lengths = []
    for cell, p in enumerate([1.5, 2.0, 3.0]):  # each row's trace and reports, as run alone
        configs = [
            base.with_fields({"space.p": p, "dictionary.seed": row["dictionary_seed"],
                              "target.seed": row["target_seed"]})
            for row in rows if row["cell"] == cell
        ]
        results = harness._run_batch(configs)
        assert [outputs(r) for r in results] == [outputs(single(config)) for config in configs]
        # The stacked checkers on each group of equally long traces: the one-trace reports.
        runs = [(result[0], generate_dictionary(LpSpace(p, 8), 16, "gaussian",
                                                config.dictionary.seed))
                for config, result in zip(configs, results) if not isinstance(result, Exception)]
        for n in {len(trace.records) for trace, _ in runs}:
            traces, dicts = zip(*[(t, d) for t, d in runs if len(t.records) == n])
            lengths.append((n, len(traces)))
            norms = np.array([trace.residual_norms() for trace in traces])
            assert repr(_trivial_steps(norms)) == repr([check_trivial_step(t) for t in traces])
            assert repr(_barycentric(list(traces), list(dicts))) == repr(
                [check_barycentric(t, d) for t, d in zip(traces, dicts)])
    assert max(size for _, size in lengths) > 1
    # Every cell's rows as one batch across p: each row is still its single run.
    configs = [base.with_fields({"space.p": [1.5, 2.0, 3.0][row["cell"]],
                                 "dictionary.seed": row["dictionary_seed"],
                                 "target.seed": row["target_seed"]}) for row in rows]
    assert [outputs(r) for r in harness._run_batch(configs)] == [
        outputs(single(config)) for config in configs]
    one_by_one(monkeypatch)
    assert run_sweep(spec) == rows


@pytest.mark.parametrize("algorithm", ["iac", "iacc"])
def test_suites_check_each_group_of_equally_long_traces_as_its_traces_alone(algorithm):
    # Traces of 6, 3 and 6 steps and a failed run: two stacked groups and a pass-through.
    runs = [harness.run_experiment(c.with_fields({"algorithm.iters": iters}))[0]
            for c, iters in zip(cell_configs(algorithm, "argmax", 1.5, 3), [6, 3, 6])]
    space = LpSpace(1.5, 8)
    dicts = [generate_dictionary(space, 16, "gaussian", 40 + 3 * r) for r in range(3)]
    failed = ValueError("a failed run")
    config = cell_configs(algorithm, "argmax", 1.5, 1)[0]
    suites = harness._suites([config] * 4, [space] * 4, dicts + [dicts[0]], [None] * 4,
                             runs + [failed])
    assert suites[3] is failed
    for trace, d, suite in zip(runs, dicts, suites):
        (alone,) = harness._suites([config], [space], [d], [None], [trace])
        assert repr(suite) == repr(alone)
        assert repr(suite[:2]) == repr([check_trivial_step(trace), check_barycentric(trace, d)])


@pytest.mark.parametrize("algorithm", ["wgafr", "gawr", "iac", "iacc"])
def test_sweep_rows_match_replicates_run_one_by_one(monkeypatch, tmp_path, algorithm):
    # Two p slices of valid cells (iters 6 and 3), each one batch across p.
    base = cell_configs(algorithm, "first_qualifying", 2.0, 1)[0]
    axes = [("space.p", [1.5, 3.0, 0.5]), ("solver.grad_tol", [1e-10, -1.0]),
            ("algorithm.iters", [6, 3])]
    spec = SweepSpec(base=base, axes=axes, replicate_seeds=3)
    rows = run_sweep(spec, str(tmp_path / "batched"))
    assert sum(1 for row in rows if row["error"]) == 24  # p = 0.5 and grad_tol = -1 rows
    one_by_one(monkeypatch)
    assert run_sweep(spec, str(tmp_path / "alone")) == rows
    csv = [(tmp_path / run / "sweep_summary.csv").read_bytes() for run in ("batched", "alone")]
    assert csv[0] == csv[1]


def test_a_row_whose_config_fails_leaves_the_others_and_a_build_error_fails_the_batch(
    monkeypatch,
):
    configs = cell_configs("iac", "argmax", 1.5, 4)
    configs[1].target.seed = -1  # refused by validate
    refused = "ConfigError: target.seed: must be >= 0; got -1"
    batch = [outputs(result) for result in harness._run_batch(configs)]
    assert batch[1] == refused
    assert [batch[i] for i in (0, 2, 3)] == [outputs(single(configs[i])) for i in (0, 2, 3)]

    # Whether a build fails does not depend on the seeds: its error is every built row's.
    def no_target(dictionary, membership, sparsity, eps, seed):
        raise ValueError("no target for this cell")

    monkeypatch.setattr(harness, "make_target", no_target)
    batch = [outputs(result) for result in harness._run_batch(configs)]
    assert batch == ["ValueError: no target for this cell", refused] + [
        "ValueError: no target for this cell"] * 2


def test_rows_that_fail_and_stop_mid_run_leave_the_others():
    # Row 1's residual turns non-finite at step 3, row 2 fits its target
    # exactly at step 4 and stops, row 0 runs all 6 steps; each row's
    # outcome is its single run's.
    space = LpSpace(1.5, 4)
    dictionaries = [generate_dictionary(space, 8, "gaussian", seed=3 + r) for r in range(3)]
    targets = [make_target(d, "a1", 3, seed=4 + r) for r, d in enumerate(dictionaries)]

    def select(m, live, coeffs, atoms, f):
        return _selections(coeffs, atoms, "argmax")

    def update(m, live, f, G, sels, phis):
        G = 0.5 * G + 0.25 * np.asarray(phis)  # a batch passes a list of rows
        for row, target_f in zip(G.reshape(-1, 4), f.reshape(-1, 4)):  # one row per run
            if m == 3 and np.array_equal(target_f, targets[1].f):
                row[1] = np.nan
            if m == 4 and np.array_equal(target_f, targets[2].f):
                row[:] = target_f
        return G, [(0.25, 0.5, None, True)] * len(sels)

    def alone(d, t):
        try:
            return _greedy_loop(space, d, t, 6, "wgafr", select, update)
        except ValueError as exc:
            return exc

    with np.errstate(invalid="ignore"):
        batch = _greedy_loop([space] * 3, dictionaries, targets, 6, "wgafr", select, update)
        singles = [alone(d, t) for d, t in zip(dictionaries, targets)]
    assert isinstance(batch[1], ValueError) and str(batch[1]) == str(singles[1])
    assert "non-finite" in str(batch[1])
    assert [trace.to_csv_string() for trace in batch[::2]] == [t.to_csv_string() for t in singles[::2]]
    assert [(len(t.records), t.stop_reason) for t in batch[::2]] == [
        (6, "completed"), (4, "residual_below_threshold")
    ]


@pytest.mark.parametrize("algorithm", ["wgafr", "gawr", "iac", "iacc"])
def test_run_functions_refuse_dictionaries_and_targets_of_unequal_length(algorithm):
    s = [LpSpace(2.0, 4), LpSpace(3.0, 4)]
    d = [generate_dictionary(x, 8, "gaussian", seed=k) for k, x in enumerate(s)]
    t = [make_target(x, "conv" if algorithm == "iacc" else "a1", 2, seed=1) for x in d]
    tau = WeaknessSequence.constant(1.0)
    run = {
        "wgafr": lambda s, d, t: run_wgafr(s, d, t, tau, 3),
        "gawr": lambda s, d, t: run_gawr(s, d, t, tau, RelaxationSchedule.harmonic(), 3),
        "iac": lambda s, d, t: run_iac(s, d, t, 1.0, 3),
        "iacc": lambda s, d, t: run_iacc(s, d, t, 1.0, 3),
    }[algorithm]
    for space, dictionary, target, given in (
        (s, d, t[:1], "a list of 2, a list of 2, a list of 1"),
        (s[:1], d[0], t[:1], "a list of 1, one run, a list of 1"),
        (s[:1], d[:1], t[0], "a list of 1, a list of 1, one run"),
        (s[0], d, t, "one run, a list of 2, a list of 2"),
    ):
        with pytest.raises(ValueError, match=f"lists of equal length; got {given}$"):
            run(space, dictionary, target)
    # A batch's rows may differ in p: each row is its single run.
    assert [trace.to_csv_string() for trace in run(s, d, t)] == [
        run(*row).to_csv_string() for row in zip(s, d, t)]


def test_selection_rows_match_single_functionals():
    space = LpSpace(3.0, 6)
    rng = np.random.default_rng(5)
    atoms = [generate_dictionary(space, 12, "gaussian", seed=s).atoms for s in range(4)]
    coeffs = rng.standard_normal((4, 6)) + 1j * rng.standard_normal((4, 6))
    f = rng.standard_normal((4, 6)) + 1j * rng.standard_normal((4, 6))
    eps_m = [0.3, 0.1, 0.6, 0.3]  # one tolerance per row
    for kwargs in ({"t": 0.7}, {"f": f, "eps_m": eps_m}, {"f": f, "eps_m": eps_m, "mode": "plain"}):
        for policy in ("argmax", "first_qualifying"):
            rows = _selections(coeffs, atoms, policy, **kwargs)
            for i, row in enumerate(rows):
                one = ({**kwargs, "f": f[i:i + 1], "eps_m": eps_m[i:i + 1]} if "f" in kwargs
                       else kwargs)
                (alone,) = _selections(coeffs[i:i + 1], [atoms[i]], policy, **one)
                if isinstance(alone, InfeasibleSelectionError):
                    assert str(row) == str(alone)
                else:
                    assert vars(row) == vars(alone)


RUNS = {
    "wgafr": lambda s, d, t: run_wgafr(s, d, t, WeaknessSequence.constant(1.0), 4),
    "gawr": lambda s, d, t: run_gawr(s, d, t, WeaknessSequence.constant(1.0),
                                     RelaxationSchedule.harmonic(), 4),
    "iac": lambda s, d, t: run_iac(s, d, t, 1.0, 4),
    "iacc": lambda s, d, t: run_iacc(s, d, t, 1.0, 4),
}


@pytest.mark.parametrize("algorithm", ["wgafr", "gawr", "iac", "iacc"])
def test_run_functions_refuse_a_batch_of_unequal_dims(algorithm):
    spaces = [LpSpace(1.5, 8), LpSpace(1.5, 12)]
    d = [generate_dictionary(s, 16, "gaussian", seed=k) for k, s in enumerate(spaces)]
    t = [make_target(x, "conv" if algorithm == "iacc" else "a1", 2, seed=1) for x in d]
    with pytest.raises(ValueError, match=r"^the runs of a batch must share one dictionary shape "
                                         r"\(count, dim\); got \(16, 8\), \(16, 12\)$"):
        RUNS[algorithm](spaces, d, t)


@pytest.mark.parametrize("algorithm", ["wgafr", "gawr", "iac", "iacc"])
def test_run_functions_refuse_a_batch_of_unequal_dictionary_counts(algorithm):
    space = LpSpace(1.5, 8)
    d = [generate_dictionary(space, count, "gaussian", seed=3) for count in (20, 16, 20)]
    t = [make_target(x, "conv" if algorithm == "iacc" else "a1", 2, seed=1) for x in d]
    with pytest.raises(ValueError, match=r"^the runs of a batch must share one dictionary shape "
                                         r"\(count, dim\); got \(16, 8\), \(20, 8\)$"):
        RUNS[algorithm]([space] * 3, d, t)


def failing_solve(monkeypatch, name, at_call, minimizer=None):
    """Make the loops' solver core ``name`` raise (or, given ``minimizer``, return it) at its
    ``at_call``-th call."""
    original, calls = getattr(algorithms, name), []

    def solve(*args):
        calls.append(None)
        result = original(*args)
        if len(calls) != at_call:
            return result
        if minimizer is None:
            raise RuntimeError(f"solver failed at call {at_call}")
        return dataclasses.replace(result, minimizer=np.full_like(result.minimizer, minimizer))

    monkeypatch.setattr(algorithms, name, solve)


@pytest.mark.parametrize("algorithm, kind", [
    *((a, kind) for a in ("wgafr", "gawr", "iac", "iacc") for kind in ("completed", "zero_target")),
    ("iac", "infeasible"), ("iacc", "infeasible"),
    *((a, kind) for a in ("wgafr", "gawr") for kind in ("solver_raises", "non_finite")),
])
def test_a_single_run_is_its_batch_of_one(monkeypatch, algorithm, kind):
    # One run returns the trace, or raises exactly the exception, that its batch-of-one row holds.
    space = LpSpace(2.0 if kind == "infeasible" else 1.5, 8)
    d = generate_dictionary(space, 16, "gaussian", seed=5)
    t = make_target(d, "conv" if algorithm == "iacc" else "a1", 3, seed=6)
    if kind in ("zero_target", "infeasible"):  # ||f|| = 0, or ||f|| = 2 > 1 for a unit-ball set
        f = 2.0 * d.atoms[0] if kind == "infeasible" else np.zeros(8)
        t = TargetSpec(f=f, f_eps=f, eps=0.0, A_eps=1.0, membership=t.membership)
    core = "_free_relax" if algorithm == "wgafr" else "_descend"

    def outcome(*run):
        if kind == "solver_raises":
            failing_solve(monkeypatch, core, 2)
        elif kind == "non_finite":
            failing_solve(monkeypatch, core, 3, np.nan)
        try:
            with np.errstate(invalid="ignore"):
                return RUNS[algorithm](*run)
        except Exception as exc:
            return exc
        finally:
            monkeypatch.undo()

    alone, (row,) = outcome(space, d, t), outcome([space], [d], [t])
    if kind == "completed":
        assert alone.to_csv_string() == row.to_csv_string()
        assert len(alone.records) == 4
        return
    assert isinstance(row, Exception)
    assert (type(alone), str(alone)) == (type(row), str(row))
    expected = {"zero_target": (ValueError, "target.f must be nonzero"),
                "infeasible": (InfeasibleSelectionError, "no atom within eps_m"),
                "solver_raises": (RuntimeError, "solver failed at call 2"),
                "non_finite": (ValueError, "v contains non-finite entries")}[kind]
    assert type(row) is expected[0] and str(row).startswith(expected[1])
