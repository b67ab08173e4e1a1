"""The acceptance battery behind ``verify``: one function per criterion.

Every criterion returns a CheckReport whose margins already fold in the
criterion's stated tolerance, so 0 is the pass line. ``full`` runs the
complete battery at the full sample counts; ``quick`` is a
scaled-down smoke profile of the same checks.
"""

from __future__ import annotations

import filecmp
import os
import sys
import tempfile

import numpy as np

from .analysis import (
    CheckReport,
    _finish,
    check_dual_norm_supremum,
    check_hl1,
    check_ll0,
    check_ml4,
    check_orthogonality,
    fit_log_slope,
)
from .config import ConfigError, ExperimentConfig, stable_seed
from .dictionaries import generate_dictionary
from .harness import run_experiment
from .spaces import LpSpace, _norm_rows, _norming_coeffs, norming_functional

__all__ = ["ALL_CRITERIA", "format_criterion_line", "verify_suite"]

_PS = (1.5, 2.0, 3.0, 4.0)
_RUN_PS = (1.5, 2.0, 3.0)


def _complex_rows(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _config(dict_seed, target_seed, algorithm, p, iters, dim=12, count=24, **fields):
    """One battery run as a config, edited from the ExperimentConfig defaults.

    ``fields`` are bare field names: ``kind``, ``membership`` and ``sparsity``
    go to their sections, any other name to ``algorithm``. The checks are set
    to the criteria's stated tolerances, not left at the ChecksSection
    defaults, so a change of those defaults cannot loosen ``verify``.
    """
    sections = {"kind": "dictionary", "membership": "target", "sparsity": "target"}
    changes = {
        "space.p": p,
        "space.dim": dim,
        "dictionary.count": count,
        "dictionary.seed": dict_seed,
        "target.seed": target_seed,
        "algorithm.id": algorithm,
        "algorithm.iters": iters,
        "checks.slack": 1e-8,
        "checks.lambda_points": 101,
    }
    changes.update({f"{sections.get(name, 'algorithm')}.{name}": v for name, v in fields.items()})
    return ExperimentConfig().with_fields(changes)


def _run(seed, tag, i, algorithm, p, iters, **fields):
    """Run ``i`` of a criterion: its trace and its ``run_experiment`` reports by name."""
    dict_seed = stable_seed(seed, tag + "dict", i)
    target_seed = stable_seed(seed, tag + "target", i)
    trace, reports = run_experiment(_config(dict_seed, target_seed, algorithm, p, iters, **fields))
    return trace, {report.name: report for report in reports}


def _merged(name, reports, shift):
    """A criterion report: each report's worst margin moved by ``shift``, samples summed."""
    margins = [report.worst_margin + shift for report in reports]
    return _finish(name, margins, sum(report.samples for report in reports), 0.0)


def criterion_duality_identities(seed=0, profile="full") -> CheckReport:
    """F_h(h) = ||h|| and ||F_h||_dual = 1, both within 1e-9 relative."""
    n = 1000 if profile == "full" else 100
    tol = 1e-9
    margins = []
    for p, dim in zip(_PS, (8, 16, 32, 64)):
        rng = np.random.default_rng(stable_seed(seed, "duality", p))
        h = _complex_rows(rng, (n, dim))
        norms = _norm_rows(p, h)
        coeffs = _norming_coeffs(p, h, norms[:, None])
        value_gap = np.abs((coeffs * h).sum(axis=1) - norms) / norms
        dual_gap = np.abs(_norm_rows(p / (p - 1.0), coeffs) - 1.0)
        margins.append(tol - value_gap)
        margins.append(tol - dual_gap)
    return _finish("duality_identities", np.concatenate(margins), 4 * n, 0.0)


def criterion_ll0_sandwich(seed=0, profile="full") -> CheckReport:
    """Two-sided smoothness sandwich, 1e-9 absolute slack, zero violations."""
    n = 10_000 if profile == "full" else 1000
    reports = [
        check_ll0(LpSpace(p, dim), n, stable_seed(seed, "ll0", p), tol=1e-9)
        for p, dim in zip(_PS, (8, 16, 32, 64))
    ]
    return _merged("ll0_sandwich", reports, 1e-9)


def criterion_ll1_certificate(seed=0, profile="full") -> CheckReport:
    """Best-approximant certificate and competitor sweep on random subspaces."""
    instances = 200 if profile == "full" else 10
    competitors = 100 if profile == "full" else 30
    dim, k = 6, 3
    margins = []
    for p in _PS:
        space = LpSpace(p, dim)
        for i in range(instances):
            rng = np.random.default_rng(stable_seed(seed, "ll1", p, i))
            f = _complex_rows(rng, dim)
            basis = list(_complex_rows(rng, (k, dim)))
            report = check_orthogonality(
                space,
                f,
                basis,
                n_competitors=competitors,
                seed=stable_seed(seed, "ll1-comp", p, i),
            )
            margins.append(report.worst_margin)
    return _finish("ll1_certificate", margins, 4 * instances, 0.0)


def criterion_ll2_ll3_sampling(seed=0, profile="full") -> CheckReport:
    """Hull suprema never exceed the dictionary max; sampled sup attains it."""
    n = 500 if profile == "full" else 100
    functionals = 3 if profile == "full" else 1
    reports = []
    for p in _PS:
        space = LpSpace(p, 12)
        dictionary = generate_dictionary(space, 24, "gaussian", stable_seed(seed, "ll2-dict", p))
        for i in range(functionals):
            rng = np.random.default_rng(stable_seed(seed, "ll2-h", p, i))
            F = norming_functional(space, _complex_rows(rng, 12))
            reports.append(
                check_dual_norm_supremum(
                    F, dictionary, n_samples=n, seed=stable_seed(seed, "ll2-s", p, i)
                )
            )
    return _merged("ll2_ll3_sampling", reports, 0.0)


# The (t, policy) pairs the free-relaxation criteria alternate between.
_WGAFR_MODES = ({"t": 1.0, "policy": "argmax"}, {"t": 0.5, "policy": "first_qualifying"})


def criterion_wgafr_monotonicity(seed=0, profile="full") -> CheckReport:
    """Residual norms never increase, 1e-8 slack, every step of every run."""
    runs, iters = (50, 40) if profile == "full" else (6, 25)
    reports = []
    for i in range(runs):
        _, suite = _run(seed, "", i, "wgafr", _RUN_PS[i % 3], iters, **_WGAFR_MODES[i % 2])
        reports.append(suite["residual_monotone"])
    return _merged("wgafr_monotonicity", reports, 0.0)


def criterion_ml1_per_step(seed=0, profile="full") -> CheckReport:
    """Free-relaxation residual recursion at every step and grid point."""
    runs, iters = (50, 50) if profile == "full" else (6, 25)
    reports = []
    for i in range(runs):
        mode = _WGAFR_MODES[i % 2]
        _, suite = _run(seed, "", 1000 + i, "wgafr", _RUN_PS[i % 3], iters, **mode)
        reports.append(suite["ml1_per_step"])
    return _merged("ml1_per_step", reports, 1e-8)


def criterion_ml3_per_step(seed=0, profile="full") -> CheckReport:
    """Relaxed-loop residual recursion with r_k = 2/(k+2), every step."""
    runs, iters = (50, 60) if profile == "full" else (6, 30)
    reports = []
    for i in range(runs):
        _, suite = _run(seed, "ml3-", i, "gawr", _RUN_PS[i % 3], iters, t=(1.0, 0.5)[i % 2])
        reports.append(suite["ml3_per_step"])
    return _merged("ml3_per_step", reports, 1e-8)


def criterion_mt2_explicit_bound(seed=0, profile="full") -> CheckReport:
    """||f_m||^2 <= 400/(1+m) for l_2, t = 1, exact unit-mass targets."""
    runs, iters = (50, 500) if profile == "full" else (4, 150)
    margins = []
    steps = 0
    for i in range(runs):
        trace, _ = _run(seed, "mt2-", i, "wgafr", 2.0, iters, dim=16, count=32, sparsity=8)
        norms = trace.residual_norms()
        m = np.arange(1, norms.size)
        margins.append(400.0 / (1.0 + m) - norms[1:] ** 2)
        steps += len(trace.records)
    return _finish("mt2_explicit_bound", np.concatenate(margins), steps, 0.0)


def criterion_orthonormal_exactness(seed=0, profile="full") -> CheckReport:
    """Sparsity-k targets over the canonical basis resolve in exactly k steps."""
    ks = range(1, 9) if profile == "full" else range(1, 5)
    seeds_per_k = 2 if profile == "full" else 1
    margins = []
    runs = 0
    for k in ks:
        for j in range(seeds_per_k):
            target_seed = stable_seed(seed, "exact", k, j)
            config = _config(
                0, target_seed, "wgafr", 2.0, k + 2, dim=8, count=8, kind="canonical", sparsity=k
            )
            norms = run_experiment(config)[0].residual_norms()
            if len(norms) <= k:
                margins.append(float("-inf"))  # run stopped before k steps
                continue
            margins.append(1e-8 - norms[k])
            margins.append(norms[k - 1] - 1e-8)
            runs += 1
    return _finish("orthonormal_exactness", margins, runs, 0.0)


def _rate(name, seed, profile, algorithm, iters, bound, also=None) -> CheckReport:
    """Rate criterion: fitted slope <= ``bound`` on 45 of 50 runs (quick: 6 of 8).

    With ``also`` set, the worst margin of that suite report over all runs
    is the criterion's second margin.
    """
    runs, needed = (50, 45) if profile == "full" else (8, 6)
    slopes = []
    suites = []
    for i in range(runs):
        trace, suite = _run(
            seed, algorithm + "-", i, algorithm, 2.0, iters, dim=16, count=32, sparsity=6
        )
        slopes.append(fit_log_slope(trace, (10, iters)).slope)
        suites.append(suite)
    qualifying = sum(1 for s in slopes if s <= bound)
    margins = [float(qualifying - needed)]
    if also is not None:
        margins.append(min(suite[also].worst_margin for suite in suites))
    details = [
        f"qualifying_runs={qualifying}/{runs} (need {needed})",
        f"median_slope={float(np.median(slopes))!r}",
    ]
    return _finish(name, margins, runs, 0.0, details)


def criterion_iac_rate(seed=0, profile="full") -> CheckReport:
    """Incremental rate: slope <= -0.4 on >= 90% of runs; trivial-step bound always."""
    iters = 200 if profile == "full" else 120
    return _rate("iac_rate", seed, profile, "iac", iters, -0.4, also="trivial_step_bound")


def criterion_iacc_barycentric(seed=0, profile="full") -> CheckReport:
    """Every stored incremental approximant rebuilds from its selections."""
    runs, iters = (20, 150) if profile == "full" else (4, 80)
    reports = []
    for i in range(runs):
        p = _RUN_PS[i % 3]
        _, suite = _run(seed, "iacc-", i, "iacc", p, iters, membership="conv", sparsity=5)
        reports.append(suite["barycentric_reconstruction"])
    return _merged("iacc_barycentric", reports, 0.0)


def criterion_gawr_rate_proxy(seed=0, profile="full") -> CheckReport:
    """Relaxed-loop rate proxy: slope <= -0.35 on >= 90% of runs."""
    iters = 300 if profile == "full" else 150
    return _rate("gawr_rate_proxy", seed, profile, "gawr", iters, -0.35)


def _synthetic_hl1(rng, length=60):
    C1 = 10.0 ** rng.uniform(-1.0, 1.0)
    a = rng.uniform(0.05, 0.9, size=length) / C1
    x = [C1 * rng.uniform(0.2, 1.0)]
    equality = rng.uniform() < 0.5
    for m in range(length - 1):
        factor = 1.0 if equality else rng.uniform(0.7, 1.0)
        x.append(x[-1] * (1.0 - x[-1] * a[m]) * factor)
    return np.array(x), C1, a


def _synthetic_ml4(rng, length=80):
    alpha = rng.uniform(0.2, 0.7)
    gamma_param = rng.uniform(alpha + 0.05, 1.0)
    A = rng.uniform(1.0, 3.0)
    a = [A * rng.uniform(0.1, 0.9)]
    equality = rng.uniform() < 0.5
    for n in range(2, length + 1):
        v = n - 1
        if v >= 2 and a[-1] >= A * v ** (-alpha):
            factor = 1.0 if equality else rng.uniform(0.8, 1.0)
            a.append(a[-1] * (1.0 - gamma_param / v) * factor)
        else:
            factor = 1.0 if equality else rng.uniform(0.0, 1.0)
            a.append(a[-1] + A * v ** (-alpha) * factor)
    return np.array(a), alpha, gamma_param, A


def criterion_sequence_bounds(seed=0, profile="full") -> CheckReport:
    """Recursion and power-decay sequence bounds on synthetic generators."""
    count = 100 if profile == "full" else 20
    margins = []
    details = []
    sequences = (("hl1", _synthetic_hl1, check_hl1), ("ml4", _synthetic_ml4, check_ml4))
    for tag, synthetic, check in sequences:
        for i in range(count):
            rng = np.random.default_rng(stable_seed(seed, tag + "-seq", i))
            report = check(*synthetic(rng))
            if not report.applicable:
                margins.append(float("-inf"))
                details.append(f"{tag} sequence {i} inapplicable: {report.details}")
            else:
                margins.append(report.worst_margin + report.tolerance)
    return _finish("sequence_bounds", margins, 2 * count, 0.0, details)


def criterion_determinism(seed=0, profile="full") -> CheckReport:
    """Identical configs produce byte-identical trace CSV and report JSON."""
    del profile
    configs = [
        _config(int(seed) + 3, int(seed) + 4, "wgafr", 2.0, 15, dim=8, count=16, sparsity=3),
        _config(int(seed) + 5, int(seed) + 6, "iac", 1.5, 25, dim=8, count=16, sparsity=3),
    ]
    margins = []
    details = []
    for idx, config in enumerate(configs):
        with tempfile.TemporaryDirectory() as tmp:
            dir_a = os.path.join(tmp, "a")
            dir_b = os.path.join(tmp, "b")
            run_experiment(config, out_dir=dir_a)
            run_experiment(config, out_dir=dir_b)
            for name in (config.output.trace_csv, config.output.report_json):
                same = filecmp.cmp(
                    os.path.join(dir_a, name), os.path.join(dir_b, name), shallow=False
                )
                margins.append(0.0 if same else -1.0)
                if not same:
                    details.append(f"config {idx}: {name} differs between runs")
    return _finish("determinism", margins, 2 * len(configs), 0.0, details)


def format_criterion_line(number: int, name: str, report: CheckReport) -> str:
    """The one-line PASS/FAIL summary ``verify`` prints for a criterion."""
    status = "PASS" if report.passed else "FAIL"
    margin = report.worst_margin
    margin_text = f"{margin:.3e}" if np.isfinite(margin) else str(margin)
    return (
        f"{status}  criterion {number:2d} {name}: "
        f"worst_margin={margin_text} samples={report.samples}"
    )


ALL_CRITERIA = (
    (1, "duality_identities", criterion_duality_identities),
    (2, "ll0_sandwich", criterion_ll0_sandwich),
    (3, "ll1_certificate", criterion_ll1_certificate),
    (4, "ll2_ll3_sampling", criterion_ll2_ll3_sampling),
    (5, "wgafr_monotonicity", criterion_wgafr_monotonicity),
    (6, "ml1_per_step", criterion_ml1_per_step),
    (7, "ml3_per_step", criterion_ml3_per_step),
    (8, "mt2_explicit_bound", criterion_mt2_explicit_bound),
    (9, "orthonormal_exactness", criterion_orthonormal_exactness),
    (10, "iac_rate", criterion_iac_rate),
    (11, "iacc_barycentric", criterion_iacc_barycentric),
    (12, "gawr_rate_proxy", criterion_gawr_rate_proxy),
    (13, "sequence_bounds", criterion_sequence_bounds),
    (14, "determinism", criterion_determinism),
)


def verify_suite(seed: int = 0, profile: str = "quick", stream=None) -> tuple[int, list[CheckReport]]:
    """Run the full property battery; print one pass/fail line per criterion.

    ``quick`` is a scaled-down smoke profile; ``full`` runs the complete
    acceptance battery. Returns (exit_code, reports) with exit code 0 only
    if every criterion passed.
    """
    if profile not in ("quick", "full"):
        raise ConfigError(f"profile: must be 'quick' or 'full'; got {profile!r}")
    stream = stream if stream is not None else sys.stdout
    reports = []
    for number, name, fn in ALL_CRITERIA:
        report = fn(seed=seed, profile=profile)
        reports.append(report)
        print(format_criterion_line(number, name, report), file=stream)
    exit_code = 0 if all(r.passed for r in reports) else 1
    print(
        f"{sum(r.passed for r in reports)}/{len(reports)} criteria passed",
        file=stream,
    )
    return exit_code, reports
