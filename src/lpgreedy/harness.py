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

from .algorithms import (
    GreedyTrace,
    run_gawr,
    run_iac,
    run_iacc,
    run_wgafr,
)
from .analysis import (
    CheckReport,
    _not_applicable,
    check_barycentric,
    check_trivial_step,
    check_ml1_trace,
    check_ml3_trace,
    check_monotone,
    check_mt2_bound,
    fit_log_slope,
)
from .config import ExperimentConfig, SweepSpec, _edited, stable_seed
from .dictionaries import generate_dictionary, make_target
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


def _build(config: ExperimentConfig):
    space = LpSpace(config.space.p, config.space.dim)
    dictionary = generate_dictionary(
        space, config.dictionary.count, config.dictionary.kind, config.dictionary.seed
    )
    target = make_target(
        dictionary,
        config.target.membership,
        config.target.sparsity,
        config.target.eps,
        config.target.seed,
    )
    return space, dictionary, target


def _diag_slope(trace: GreedyTrace) -> CheckReport:
    """Fitted decay slope as a diagnostic report (never a failure)."""
    n = len(trace.records)
    try:
        fit = fit_log_slope(trace, (max(2, n // 10), n))
        details = [f"slope={fit.slope!r}", f"window={fit.window}", f"r_squared={fit.r_squared!r}"]
    except ValueError as exc:
        details = [f"slope unavailable: {exc}"]
    return CheckReport("rate_slope", True, math.inf, n, details=details)


def _suite(config: ExperimentConfig, space, dictionary, target, trace) -> list[CheckReport]:
    """The algorithm's checker suite on one run's trace, which it stamps with the config hash."""
    tau, slack, A_eps, eps = config.weakness(), config.checks.slack, target.A_eps, target.eps
    if config.algorithm.id == "wgafr":
        reports = [
            check_monotone(trace, slack),
            check_ml1_trace(space, trace, tau, A_eps, eps, slack=slack,
                            grid_points=config.checks.lambda_points),
            check_mt2_bound(trace, smoothness_params(space), A_eps, eps, tau, slack),
        ]
    elif config.algorithm.id == "gawr":
        if tau.kind == "constant":
            reports = [check_ml3_trace(space, trace, A_eps, eps, tau.t, slack)]
        else:
            details = ["recursion is stated for constant weakness only"]
            reports = [_not_applicable("ml3_per_step", details)]
    else:
        reports = [check_trivial_step(trace), check_barycentric(trace, dictionary)]
        reports.append(_diag_slope(trace))
    trace.config_hash = config.hash()
    return reports


def _run_batch(configs: list, out_dir: str | None = None) -> list:
    """``run_experiment`` of configs that differ at most in their seeds, the runs in lockstep.

    Each config's entry is its ``(trace, reports)`` or the exception that
    ``run_experiment`` would raise (from ``validate``, ``_build``, a step or
    a checker). ``out_dir`` is created once a config has been built.
    """
    results, built = [None] * len(configs), []
    for i, config in enumerate(configs):
        try:
            config.validate()
            built.append((i, config, *_build(config)))
        except Exception as exc:  # this config's error; the others run on
            results[i] = exc
    if not built:
        return results
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
    _, config, space, *_ = built[0]
    a = config.algorithm
    dictionaries, targets = [b[3] for b in built], [b[4] for b in built]
    if len(built) == 1:
        dictionaries, targets = dictionaries[0], targets[0]
    try:
        if a.id == "wgafr":
            traces = run_wgafr(space, dictionaries, targets, config.weakness(), a.iters, a.policy,
                               config.solver)
        elif a.id == "gawr":
            traces = run_gawr(space, dictionaries, targets, config.weakness(), config.relaxation(),
                              a.iters, a.policy, config.solver)
        else:
            run = run_iac if a.id == "iac" else run_iacc
            traces = run(space, dictionaries, targets, a.k1, a.iters, a.policy)
    except Exception as exc:  # a run that failed before its steps fails every config
        traces = [exc] * len(built)
    for (i, config, space, dictionary, target), trace in zip(
        built, traces if type(traces) is list else [traces]
    ):
        try:
            results[i] = trace if isinstance(trace, Exception) else (
                trace, _suite(config, space, dictionary, target, trace))
        except Exception as exc:  # a checker's error
            results[i] = exc
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
        rate = next((r for r in reports if r.name == "rate_slope"), None) or _diag_slope(trace)
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
