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
    """The space, dictionaries and targets of configs that differ at most in their seeds."""
    c = configs[0]
    space = LpSpace(c.space.p, c.space.dim)
    dictionaries = _dictionaries(space, c.dictionary.count, c.dictionary.kind,
                                 [config.dictionary.seed for config in configs])
    t = c.target
    return space, dictionaries, [make_target(d, t.membership, t.sparsity, t.eps, config.target.seed)
                                 for d, config in zip(dictionaries, configs)]


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


def _suites(config: ExperimentConfig, space, dictionaries, targets, traces: list) -> list:
    """Each run's checker suite, or the exception of its run or of its checkers.

    wgafr/gawr traces are checked one by one, iac/iacc traces in one group per record count
    (stacked trivial-step and slope passes); a group's exception is each of its traces' result.
    """
    averaging, suites, groups = config.algorithm.id in ("iac", "iacc"), list(traces), {}
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
                reports = [_relaxed_suite(config, space, targets[rows[0]], group[0])]
            for k, suite in zip(rows, reports):
                suites[k] = list(suite)
        except Exception as exc:  # a checker's error
            for k in rows:
                suites[k] = exc
    return suites


def _run_batch(configs: list, out_dir: str | None = None) -> list:
    """``run_experiment`` of configs that differ at most in their seeds, each stage once per batch.

    ``_build`` normalizes the dictionaries in one pass, the runs step in lockstep and ``_suites``
    checks iac/iacc traces in stacked passes. Each config's entry is its ``(trace, reports)`` or
    the exception ``run_experiment`` would raise (from ``validate``, ``_build``, a step or a
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
    config, a = configs[valid[0]], configs[valid[0]].algorithm
    try:
        space, dictionaries, targets = _build([configs[i] for i in valid])
    except Exception as exc:  # a build error does not depend on the seeds: it fails every config
        return [exc if i in valid else result for i, result in enumerate(results)]
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
    runs = (dictionaries, targets) if len(valid) > 1 else (dictionaries[0], targets[0])
    try:
        if a.id == "wgafr":
            traces = run_wgafr(space, *runs, config.weakness(), a.iters, a.policy, config.solver)
        elif a.id == "gawr":
            traces = run_gawr(space, *runs, config.weakness(), config.relaxation(), a.iters,
                              a.policy, config.solver)
        else:
            traces = (run_iac if a.id == "iac" else run_iacc)(space, *runs, a.k1, a.iters, a.policy)
    except Exception as exc:  # a run that failed before its steps fails every config
        traces = [exc] * len(valid)
    traces = traces if type(traces) is list else [traces]
    for i, trace, suite in zip(valid, traces,
                               _suites(config, space, dictionaries, targets, traces)):
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


def _summarize(row: dict, result) -> None:
    """Fill a sweep row from its run's ``(trace, reports)``, or its ``error`` from an exception."""
    try:
        if isinstance(result, Exception):
            raise result
        trace, reports = result
        applicable = [r for r in reports if r.applicable]
        passed = sum(1 for r in applicable if r.passed)
        row["final_residual"] = repr(float(trace.residual_norms()[-1]))
        # The one slope fit of the cell: the rate_slope report's, if the suite has one.
        rate = next((r for r in reports if r.name == "rate_slope"), None) or _rate_slopes(
            np.array([[r.residual_norm for r in trace.records]]))[0]
        if rate.details[0].startswith("slope="):  # else too few usable steps: stays empty
            row["slope"] = rate.details[0].removeprefix("slope=")
        row.update(checks_passed=passed, checks_total=len(applicable),
                   pass_rate=repr(passed / len(applicable)) if applicable else "",
                   config_hash=trace.config_hash)
    except Exception as exc:  # propagate per-cell, keep the sweep running
        row["error"] = f"{type(exc).__name__}: {exc}"


def run_sweep(spec: SweepSpec, out_dir: str | None = None) -> list[dict]:
    """Cartesian product of axes x replicate seeds; one summary row per cell and replicate.

    Cells run in deterministic cell order, and a cell's replicates run in
    lockstep, as one batch. Each replicate edits the base config once: the
    cell's axis values and two seeds derived from the base seeds. Any
    failure lands in the row's ``error`` column and does not stop the
    sweep; the seed columns stay empty when the config edit itself fails.
    """
    spec.validate()
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
    base = spec.base.to_dict()
    paths = [path for path, _ in spec.axes]
    rows = []
    for cell, combo in enumerate(itertools.product(*(values for _, values in spec.axes))):
        assignments = dict(zip(paths, combo))
        axes = json.dumps(assignments, sort_keys=True)
        edited, configs = [], []
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
        for row, result in zip(edited, _run_batch(configs)):
            _summarize(row, result)
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
