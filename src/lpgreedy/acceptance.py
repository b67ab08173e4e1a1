"""The acceptance battery behind ``verify``.

Criteria 1-4, 13 and 14 are one function each. The greedy-run criteria
5-12 are data: ``_RUN_TABLE`` gives each its list of configs and a reducer
from those runs' traces and checker reports to its CheckReport, and one
runner calls ``run_experiment`` on the configs in list order. Every
criterion's margins already fold in its stated tolerance, so 0 is the pass
line. ``full`` runs the complete battery at the full sample counts;
``quick`` is a scaled-down smoke profile of the same checks.
"""

from __future__ import annotations

import filecmp
import os
import sys
import tempfile
from functools import partial

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
# The l_2 runs of criteria 8, 10 and 12: 32 atoms in C^16.
_L2_RUNS = {"ps": (2.0,), "dim": 16, "count": 32}


def _runs(tag, algorithm, full, quick, seed, profile, ps=_RUN_PS, modes=({},), first=0, **fields):
    """A criterion's configs; ``full`` and ``quick`` give its (runs, iters) per profile.

    Run i draws its seeds from ``tag`` and ``first + i`` and takes the p
    and the mode at i modulo their counts; ``fields`` go to ``_config``.
    """
    runs, iters = full if profile == "full" else quick
    return [
        _config(
            stable_seed(seed, tag + "dict", first + i),
            stable_seed(seed, tag + "target", first + i),
            algorithm, ps[i % len(ps)], iters, **modes[i % len(modes)], **fields,
        )
        for i in range(runs)
    ]


def _exactness_runs(seed, profile):
    """Criterion 9's configs: sparsity-k targets over the canonical basis, k + 2 steps."""
    ks, targets_per_k = (range(1, 9), 2) if profile == "full" else (range(1, 5), 1)
    return [
        _config(
            0, stable_seed(seed, "exact", k, j), "wgafr", 2.0, k + 2,
            dim=8, count=8, kind="canonical", sparsity=k,
        )
        for k in ks
        for j in range(targets_per_k)
    ]


def _suite(report, shift, name, configs, results) -> CheckReport:
    """Each run's ``report`` from its checker suite, worst margins moved by ``shift``."""
    return _merged(name, [reports[report] for _, reports in results], shift)


def _mt2_envelope(name, configs, results) -> CheckReport:
    """||f_m||^2 <= 400/(1+m) at every step m >= 1 of every run."""
    norms = [trace.residual_norms() for trace, _ in results]
    margins = [400.0 / (1.0 + np.arange(1, n.size)) - n[1:] ** 2 for n in norms]
    steps = sum(len(trace.records) for trace, _ in results)
    return _finish(name, np.concatenate(margins), steps, 0.0)


def _exactness(name, configs, results) -> CheckReport:
    """A sparsity-k run is nonzero after step k - 1 and zero after step k, 1e-8 each."""
    margins = []
    runs = 0
    for config, (trace, _) in zip(configs, results):
        k = config.target.sparsity
        norms = trace.residual_norms()
        if len(norms) <= k:
            margins.append(float("-inf"))  # run stopped before k steps
            continue
        margins.append(1e-8 - norms[k])
        margins.append(norms[k - 1] - 1e-8)
        runs += 1
    return _finish(name, margins, runs, 0.0)


def _rate(bound, also, name, configs, results) -> CheckReport:
    """Slope fitted over steps 10 to iters <= ``bound`` on 45 of 50 runs (quick: 6 of 8).

    With ``also`` set, the worst margin of that suite report over all runs
    is the criterion's second margin.
    """
    needed = {50: 45, 8: 6}[len(results)]
    slopes = [
        fit_log_slope(trace, (10, config.algorithm.iters)).slope
        for config, (trace, _) in zip(configs, results)
    ]
    qualifying = sum(1 for s in slopes if s <= bound)
    margins = [float(qualifying - needed)]
    if also is not None:
        margins.append(min(reports[also].worst_margin for _, reports in results))
    details = [
        f"qualifying_runs={qualifying}/{len(results)} (need {needed})",
        f"median_slope={float(np.median(slopes))!r}",
    ]
    return _finish(name, margins, len(results), 0.0, details)


# number: (name, configs at (seed, profile), reducer). For ``_runs`` the two
# pairs are (runs, iters) in full and in quick.
_RUN_TABLE = {
    5: ("wgafr_monotonicity",  # residual norms never increase, every step of every run
        partial(_runs, "", "wgafr", (50, 40), (6, 25), modes=_WGAFR_MODES),
        partial(_suite, "residual_monotone", 0.0)),
    6: ("ml1_per_step",  # free-relaxation recursion at every step and grid point
        partial(_runs, "", "wgafr", (50, 50), (6, 25), modes=_WGAFR_MODES, first=1000),
        partial(_suite, "ml1_per_step", 1e-8)),
    7: ("ml3_per_step",  # relaxed-loop recursion with r_k = 2/(k+2), every step
        partial(_runs, "ml3-", "gawr", (50, 60), (6, 30), modes=({"t": 1.0}, {"t": 0.5})),
        partial(_suite, "ml3_per_step", 1e-8)),
    8: ("mt2_explicit_bound",
        partial(_runs, "mt2-", "wgafr", (50, 500), (4, 150), **_L2_RUNS, sparsity=8),
        _mt2_envelope),
    9: ("orthonormal_exactness", _exactness_runs, _exactness),
    10: ("iac_rate",
        partial(_runs, "iac-", "iac", (50, 200), (8, 120), **_L2_RUNS, sparsity=6),
        partial(_rate, -0.4, "trivial_step_bound")),
    11: ("iacc_barycentric",  # every stored approximant rebuilds from its selections
        partial(_runs, "iacc-", "iacc", (20, 150), (4, 80), membership="conv", sparsity=5),
        partial(_suite, "barycentric_reconstruction", 0.0)),
    12: ("gawr_rate_proxy",
        partial(_runs, "gawr-", "gawr", (50, 300), (8, 150), **_L2_RUNS, sparsity=6),
        partial(_rate, -0.35, None)),
}


def _run_criterion(name, configs_of, reduce, seed=0, profile="full") -> CheckReport:
    """A run criterion: ``run_experiment`` on each of its configs in order, then its reducer."""
    configs = configs_of(seed=seed, profile=profile)
    results = []
    for config in configs:
        trace, reports = run_experiment(config)
        results.append((trace, {report.name: report for report in reports}))
    return reduce(name, configs, results)


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
    seeds = [stable_seed(seed, "determinism", part) for part in range(4)]
    configs = [
        _config(seeds[0], seeds[1], "wgafr", 2.0, 15, dim=8, count=16, sparsity=3),
        _config(seeds[2], seeds[3], "iac", 1.5, 25, dim=8, count=16, sparsity=3),
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
    *(
        (number, name, partial(_run_criterion, name, configs_of, reduce))
        for number, (name, configs_of, reduce) in _RUN_TABLE.items()
    ),
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
