"""Seeded experiment execution and sweeps.

Outputs are a pure function of the config text: no clocks, no environment
lookups. Every file embeds the config hash, so a trace and a report from
the same config can be matched.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
import os

import numpy as np

from .algorithms import (
    GreedyTrace,
    run_gawr,
    run_iac,
    run_iacc,
    run_wgafr,
)
from .analysis import (
    CheckReport,
    _barycentric,
    _not_applicable,
    _slope_fits,
    _trivial_steps,
    check_ml1_trace,
    check_ml3_trace,
    check_monotone,
    check_mt2_bound,
)
from .config import ExperimentConfig, SweepSpec, _edited, stable_seed
from .dictionaries import _dictionaries, make_target
from .spaces import LpSpace, smoothness_params

__all__ = ["run_experiment", "run_sweep"]

SWEEP_COLUMNS = (
    "cell",
    "replicate",
    "axes",
    "dictionary_seed",
    "target_seed",
    "final_residual",
    "slope",
    "checks_passed",
    "checks_total",
    "pass_rate",
    "error",
    "config_hash",
)


def _build(configs: list):
    """Each config's space, dictionary and target: one LpSpace and one normalizing pass per p."""
    c, t = configs[0], configs[0].target
    spaces = {p: LpSpace(p, c.space.dim) for p in dict.fromkeys(x.space.p for x in configs)}
    drawn = {p: iter(_dictionaries(space, c.dictionary.count, c.dictionary.kind,
                                   [x.dictionary.seed for x in configs if x.space.p == p]))
             for p, space in spaces.items()}
    dictionaries = [next(drawn[x.space.p]) for x in configs]
    return [spaces[x.space.p] for x in configs], dictionaries, [
        make_target(d, t.membership, t.sparsity, t.eps, x.target.seed)
        for d, x in zip(dictionaries, configs)]


def _rate_slopes(res) -> list[CheckReport]:
    """Each row's fitted decay slope as a diagnostic report (never a failure); ``res`` holds the
    rows' residual norms after steps 1 to n."""
    n = res.shape[1]
    try:
        fits = _slope_fits(res, (max(2, n // 10), n))
    except ValueError as exc:
        fits = [exc] * len(res)
    return [
        CheckReport("rate_slope", True, math.inf, n, details=(
            [f"slope unavailable: {fit}"] if isinstance(fit, ValueError)
            else [f"slope={fit.slope!r}", f"window={fit.window}", f"r_squared={fit.r_squared!r}"]))
        for fit in fits
    ]


def _relaxed_suite(config: ExperimentConfig, space, target, trace) -> list[CheckReport]:
    """The wgafr or gawr checker suite on one run's trace."""
    tau, slack, A_eps, eps = config.weakness(), config.checks.slack, target.A_eps, target.eps
    if config.algorithm.id == "wgafr":
        return [
            check_monotone(trace, slack),
            check_ml1_trace(space, trace, tau, A_eps, eps, slack=slack,
                            grid_points=config.checks.lambda_points),
            check_mt2_bound(trace, smoothness_params(space), A_eps, eps, tau, slack),
        ]
    if tau.kind == "constant":
        return [check_ml3_trace(space, trace, A_eps, eps, tau.t, slack)]
    return [_not_applicable("ml3_per_step", ["recursion is stated for constant weakness only"])]


def _suites(configs: list, spaces: list, dictionaries, targets, traces: list) -> list:
    """Each run's checker suite, or the exception of its run or of its checkers.

    wgafr/gawr traces are checked one by one, iac/iacc traces in one group per record count over
    all p (stacked trivial-step and slope passes); a group's exception is each of its traces'.
    """
    averaging, suites, groups = configs[0].algorithm.id in ("iac", "iacc"), list(traces), {}
    for k, trace in enumerate(traces):
        if not isinstance(trace, Exception):  # a wgafr/gawr trace is a group of its own
            groups.setdefault(len(trace.records) if averaging else -1 - k, []).append(k)
    for rows in groups.values():
        group = [traces[k] for k in rows]
        try:
            if averaging:
                norms = np.array([[t.initial_residual_norm] + [r.residual_norm for r in t.records]
                                  for t in group])
                reports = zip(_trivial_steps(norms),
                              _barycentric(group, [dictionaries[k] for k in rows]),
                              _rate_slopes(norms[:, 1:]))
            else:
                reports = [_relaxed_suite(configs[rows[0]], spaces[rows[0]], targets[rows[0]],
                                          group[0])]
            for k, suite in zip(rows, reports):
                suites[k] = list(suite)
        except Exception as exc:  # a checker's error
            for k in rows:
                suites[k] = exc
    return suites


def _run_batch(configs: list, out_dir: str | None = None) -> list:
    """``run_experiment`` of configs that differ at most in their seeds and ``space.p``, each
    stage once per batch.

    ``_build`` normalizes each p's dictionaries in one pass, the runs step in lockstep as lists
    (one config's as lists of one), each in its own space, and ``_suites`` checks iac/iacc traces
    in stacked passes over all p. Each config's entry is its ``(trace, reports)`` or the
    exception ``run_experiment`` would raise (from ``validate``, ``_build``, a step or a
    checker). ``out_dir`` is created once the batch has been built.
    """
    results, valid = [None] * len(configs), []
    for i, config in enumerate(configs):
        try:
            config.validate()
            valid.append(i)
        except Exception as exc:  # this config's error; the others run on
            results[i] = exc
    if not valid:
        return results
    batch = [configs[i] for i in valid]
    config, a = batch[0], batch[0].algorithm
    try:
        runs = _build(batch)
    except Exception as exc:  # a build error depends on neither seeds nor p: it fails every config
        return [exc if i in valid else result for i, result in enumerate(results)]
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
    try:
        if a.id == "wgafr":
            traces = run_wgafr(*runs, config.weakness(), a.iters, a.policy, config.solver)
        elif a.id == "gawr":
            traces = run_gawr(*runs, config.weakness(), config.relaxation(), a.iters, a.policy,
                              config.solver)
        else:
            traces = (run_iac if a.id == "iac" else run_iacc)(*runs, a.k1, a.iters, a.policy)
    except Exception as exc:  # a run that failed before its steps fails every config
        traces = [exc] * len(valid)
    for i, trace, suite in zip(valid, traces, _suites(batch, *runs, traces)):
        if not isinstance(suite, Exception):
            trace.config_hash = configs[i].hash()
            suite = (trace, suite)
        results[i] = suite
    return results


def run_experiment(
    config: ExperimentConfig, out_dir: str | None = None
) -> tuple[GreedyTrace, list[CheckReport]]:
    """Run one configured experiment and its per-algorithm checker suite.

    With ``out_dir`` set, writes the trace CSV and the report JSON there
    under the configured file names.
    """
    (result,) = _run_batch([config], out_dir)
    if isinstance(result, Exception):
        raise result
    trace, reports = result
    if out_dir is not None:
        trace.write_csv(os.path.join(out_dir, config.output.trace_csv))
        report_obj = {
            "schema": "lpgreedy.report.v1",
            "config_hash": trace.config_hash,
            "algorithm": config.algorithm.id,
            "config": config.to_dict(),
            "reports": [r.to_json_obj() for r in reports],
        }
        with open(os.path.join(out_dir, config.output.report_json), "w") as fh:
            json.dump(report_obj, fh, sort_keys=True, indent=2)
            fh.write("\n")
    return trace, reports


def _summarize(rows: list, results: list) -> None:
    """Fill sweep rows from their runs' ``(trace, reports)``, or their ``error`` from an exception.

    A row's slope is its suite's rate_slope (iac/iacc), else one stacked fit per trace length.
    """
    rates, unfitted = [], {}
    for row, result in zip(rows, results):
        try:
            if isinstance(result, Exception):
                raise result
            trace, reports = result
            applicable = [r for r in reports if r.applicable]
            passed = sum(1 for r in applicable if r.passed)
            row["final_residual"] = repr(float(trace.residual_norms()[-1]))
            rate = next((r for r in reports if r.name == "rate_slope"), None)
            if rate is None:
                unfitted.setdefault(len(trace.records), []).append((row, trace))
            rates.append((row, rate))
            row.update(checks_passed=passed, checks_total=len(applicable),
                       pass_rate=repr(passed / len(applicable)) if applicable else "",
                       config_hash=trace.config_hash)
        except Exception as exc:  # propagate per-cell, keep the sweep running
            row["error"] = f"{type(exc).__name__}: {exc}"
    for group in unfitted.values():
        norms = np.array([[r.residual_norm for r in trace.records] for _, trace in group])
        rates += zip([row for row, _ in group], _rate_slopes(norms))
    for row, rate in rates:
        if rate is not None and rate.details[0].startswith("slope="):  # else too few steps
            row["slope"] = rate.details[0].removeprefix("slope=")


def run_sweep(spec: SweepSpec, out_dir: str | None = None) -> list[dict]:
    """Cartesian product of axes x replicate seeds; one summary row per cell and replicate.

    Cells whose axis values differ at most in ``space.p`` run in lockstep,
    every replicate of them as one batch (``_run_batch``); rows stay in
    deterministic cell order. Each replicate edits the base config once:
    the cell's axis values and two seeds derived from the base seeds. Any
    failure lands in the row's ``error`` column and does not stop the
    sweep; the seed columns stay empty when the config edit itself fails.
    """
    spec.validate()
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
    base = spec.base.to_dict()
    paths = [path for path, _ in spec.axes]
    rows, batches = [], {}
    for cell, combo in enumerate(itertools.product(*(values for _, values in spec.axes))):
        assignments = dict(zip(paths, combo))
        axes = json.dumps(assignments, sort_keys=True)
        edited, configs = batches.setdefault(
            json.dumps({**assignments, "space.p": None}, sort_keys=True), ([], []))
        for replicate in range(int(spec.replicate_seeds)):
            row = dict.fromkeys(SWEEP_COLUMNS, "")
            row.update(cell=cell, replicate=replicate, axes=axes)
            rows.append(row)
            seeds = {
                "dictionary.seed": stable_seed(base["dictionary"]["seed"], cell, replicate, "dict"),
                "target.seed": stable_seed(base["target"]["seed"], cell, replicate, "target"),
            }
            try:
                config = _edited(base, {**assignments, **seeds})
            except Exception as exc:
                row["error"] = f"{type(exc).__name__}: {exc}"
                continue
            row["dictionary_seed"] = config.dictionary.seed
            row["target_seed"] = config.target.seed
            edited.append(row)
            configs.append(config)
    for edited, configs in batches.values():
        _summarize(edited, _run_batch(configs))
    if out_dir is not None:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(SWEEP_COLUMNS)
        writer.writerows([row[column] for column in SWEEP_COLUMNS] for row in rows)
        # Written over the old file and cut to length after: truncating a
        # non-empty file on open makes ext4 flush it on close.
        fd = os.open(os.path.join(out_dir, "sweep_summary.csv"), os.O_WRONLY | os.O_CREAT, 0o666)
        with open(fd, "w", newline="") as fh:
            fh.write(buf.getvalue())
            fh.truncate()
    return rows
