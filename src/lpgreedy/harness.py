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


def run_experiment(
    config: ExperimentConfig, out_dir: str | None = None
) -> tuple[GreedyTrace, list[CheckReport]]:
    """Run one configured experiment and its per-algorithm checker suite.

    With ``out_dir`` set, writes the trace CSV and the report JSON there
    under the configured file names.
    """
    config.validate()
    space, dictionary, target = _build(config)
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
    cfg = config.solver
    a = config.algorithm
    tau = config.weakness()
    slack = config.checks.slack
    if a.id == "wgafr":
        trace = run_wgafr(space, dictionary, target, tau, a.iters, a.policy, cfg)
        reports = [
            check_monotone(trace, slack),
            check_ml1_trace(
                space,
                trace,
                tau,
                target.A_eps,
                target.eps,
                slack=slack,
                grid_points=config.checks.lambda_points,
            ),
            check_mt2_bound(
                trace, smoothness_params(space), target.A_eps, target.eps, tau, slack
            ),
        ]
    elif a.id == "gawr":
        trace = run_gawr(
            space, dictionary, target, tau, config.relaxation(), a.iters, a.policy, cfg
        )
        if tau.kind == "constant":
            reports = [check_ml3_trace(space, trace, target.A_eps, target.eps, tau.t, slack)]
        else:
            details = ["recursion is stated for constant weakness only"]
            reports = [_not_applicable("ml3_per_step", details)]
    else:
        run = run_iac if a.id == "iac" else run_iacc
        trace = run(space, dictionary, target, a.k1, a.iters, a.policy)
        reports = [
            check_trivial_step(trace),
            check_barycentric(trace, dictionary),
            _diag_slope(trace),
        ]
    trace.config_hash = config.hash()

    if out_dir is not None:
        trace.write_csv(os.path.join(out_dir, config.output.trace_csv))
        report_obj = {
            "schema": "lpgreedy.report.v1",
            "config_hash": trace.config_hash,
            "algorithm": a.id,
            "config": config.to_dict(),
            "reports": [r.to_json_obj() for r in reports],
        }
        with open(os.path.join(out_dir, config.output.report_json), "w") as fh:
            json.dump(report_obj, fh, sort_keys=True, indent=2)
            fh.write("\n")
    return trace, reports


def _run_cell(base: dict, cell: int, replicate: int, assignments: dict, axes: str) -> dict:
    """One sweep row: the base config (``to_dict()`` form) edited once, run and summarized.

    ``axes`` is ``assignments`` as JSON. Any failure, a bad cell value
    included, lands in the row's ``error`` column; the seed columns stay
    empty when the config edit itself fails.
    """
    row = dict.fromkeys(SWEEP_COLUMNS, "")
    row.update(cell=cell, replicate=replicate, axes=axes)
    try:
        config = _edited(
            base,
            {
                **assignments,
                "dictionary.seed": stable_seed(base["dictionary"]["seed"], cell, replicate, "dict"),
                "target.seed": stable_seed(base["target"]["seed"], cell, replicate, "target"),
            },
        )
        row["dictionary_seed"] = config.dictionary.seed
        row["target_seed"] = config.target.seed
        trace, reports = run_experiment(config)
        applicable = [r for r in reports if r.applicable]
        passed = sum(1 for r in applicable if r.passed)
        norms = trace.residual_norms()
        row["final_residual"] = repr(float(norms[-1]))
        # The one slope fit of the cell: the rate_slope report's, if the suite has one.
        rate = next((r for r in reports if r.name == "rate_slope"), None) or _diag_slope(trace)
        if rate.details[0].startswith("slope="):  # else too few usable steps: stays empty
            row["slope"] = rate.details[0].removeprefix("slope=")
        row["checks_passed"] = passed
        row["checks_total"] = len(applicable)
        row["pass_rate"] = repr(passed / len(applicable)) if applicable else ""
        row["config_hash"] = trace.config_hash
    except Exception as exc:  # propagate per-cell, keep the sweep running
        row["error"] = f"{type(exc).__name__}: {exc}"
    return row


def run_sweep(spec: SweepSpec, out_dir: str | None = None) -> list[dict]:
    """Cartesian product of axes x replicate seeds; one summary row per cell.

    Cells run one after another in deterministic cell order. Per-cell
    failures land in the row's ``error`` column and do not stop the sweep.
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
        for replicate in range(int(spec.replicate_seeds)):
            rows.append(_run_cell(base, cell, replicate, assignments, axes))
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
