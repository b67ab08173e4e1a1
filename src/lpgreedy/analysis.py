"""Numerical checkers for per-step residual recursions, rate bounds, traces.

Each checker samples or walks a trace, accumulates slack margins
(bound minus observed value; negative means violation), and returns a
CheckReport. Checkers substitute the closed-form l_p smoothness bound for
the true modulus; every such substitution sits on the large side of the
inequality being checked, so the direction is preserved. Per-step
inequalities on traces carry an explicit solver slack because the inner
minimizations are approximate. Each per-step recursion has one checker,
over a whole trace, whose report names every failing step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache, reduce
from operator import add

import numpy as np

from .algorithms import BARYCENTRIC_TOL, GreedyTrace, WeaknessSequence
from .dictionaries import Dictionary, _scan
from .solvers import best_approx_subspace
from .spaces import (
    DualFunctional,
    LpSpace,
    SmoothnessParams,
    _count,
    _norm_rows,
    _norming_coeffs,
    _rho_values,
    _whole,
    apply_functional,
    lp_norm,
    norming_functional,
    rho_bound,
    smoothness_params,
)

__all__ = [
    "CheckReport",
    "RateFit",
    "check_ll0",
    "check_ml1_trace",
    "check_ml3_trace",
    "check_mt2_bound",
    "check_hl1",
    "check_ml4",
    "fit_log_slope",
    "check_orthogonality",
    "check_dual_norm_supremum",
    "check_monotone",
    "check_trivial_step",
    "check_barycentric",
    "ml1_optimal_lambda",
    "DEFAULT_SLACK",
]

# Solver slack added to every per-step trace inequality: the inner infima
# are exact in the statements, approximate in the runs.
DEFAULT_SLACK = 1e-8
# Points of the lambda grid on [0, 1] of the ml1 recursion check.
LAMBDA_POINTS = 101
# Slack of the sequence-bound checks hl1 and ml4.
SEQUENCE_SLACK = 1e-12
# Round-off allowance of the trivial-step bound, and the tolerance of the
# iacc barycentric weights (their sum and each selection's unit phase).
TRIVIAL_STEP_SLACK = 1e-10
WEIGHT_TOL = 1e-12


@dataclass
class CheckReport:
    """Outcome of one checker.

    ``worst_margin`` is the most-violated slack (negative = violation);
    ``passed`` is worst_margin >= -tolerance. ``applicable`` is False when
    a checker's hypotheses fail on the supplied data, in which case
    ``passed`` carries no information.
    """

    name: str
    passed: bool
    worst_margin: float
    samples: int
    tolerance: float = 0.0
    applicable: bool = True
    details: list[str] = field(default_factory=list)

    def to_json_obj(self) -> dict:
        return {
            "name": self.name,
            "passed": self.passed,
            "worst_margin": self.worst_margin,
            "samples": self.samples,
            "tolerance": self.tolerance,
            "applicable": self.applicable,
            "details": list(self.details),
        }


@dataclass
class RateFit:
    """Least-squares slope of log residual versus log step index."""

    slope: float
    intercept: float
    window: tuple[int, int]
    r_squared: float


def _finish(name, margins, samples, tolerance, details=None):
    worst = float(min(margins)) if len(margins) else float("inf")
    passed = bool(worst >= -tolerance)
    return CheckReport(name, passed, worst, samples, tolerance, details=details or [])


def _not_applicable(name, details, samples=0, tolerance=0.0, passed=True):
    """Report for data outside a checker's hypotheses: worst margin +inf, or -inf if failed."""
    worst = float("inf") if passed else float("-inf")
    return CheckReport(name, passed, worst, samples, tolerance, applicable=False, details=details)


def check_ll0(space: LpSpace, n_samples: int, seed: int, tol: float = 1e-9) -> CheckReport:
    """Two-sided smoothness sandwich on random (x, y, u).

    0 <= ||x+uy|| - ||x|| - Re(u F_x(y)) <= 2 ||x|| rho_bound(|u| ||y|| / ||x||)
    for x != 0 and real u in [-2, 2].
    """
    n = _count("n_samples", n_samples)
    rng = np.random.default_rng(seed)
    shape = (n, space.dim)
    x = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    y = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    u = rng.uniform(-2.0, 2.0, size=n)
    nx = _norm_rows(space.p, x)
    ny = _norm_rows(space.p, y)
    coeffs = _norming_coeffs(space.p, x, nx[:, None])
    mid = _norm_rows(space.p, x + u[:, None] * y) - nx - (u * (coeffs * y).sum(axis=1).real)
    upper = 2.0 * nx * _rho_values(space.p, np.abs(u) * ny / nx)
    margins = np.concatenate([mid, upper - mid])
    details = []
    if margins.min() < -tol:
        bad = int(np.argmin(margins)) % n
        details.append(f"worst sample index {bad}: u={u[bad]!r}")
    return _finish("ll0_sandwich", margins, n, tol, details)


def ml1_optimal_lambda(
    res_prev: float, t_m: float, params: SmoothnessParams, A_eps: float
) -> float:
    """The lambda at which the free-relaxation residual recursion is tight.

    Where the product of powers leaves float range, it is formed again in
    log space: the lambda's float, 0.0 below the range and inf above it.
    """
    q = params.q
    try:  # a Python float's power past float range raises
        lam = (
            res_prev ** (q / (q - 1.0))
            * 5.0 ** (-q / (q - 1.0))
            * (8.0 * params.gamma * A_eps) ** (-1.0 / (q - 1.0))
            * t_m ** (1.0 / (q - 1.0))
        )
        if 0.0 < lam < np.inf:
            return lam
    except OverflowError:
        pass
    with np.errstate(over="ignore", divide="ignore"):
        return float(np.exp((q * np.log(res_prev / 5.0) - np.log(8.0 * params.gamma * A_eps)
                             + np.log(t_m)) / (q - 1.0)))


def _failing_steps(steps, worst, slack) -> list[str]:
    return [f"step {m}: margin {w:.3e}" for m, w in zip(steps, worst) if not w >= -slack]


def check_ml1_trace(
    space: LpSpace,
    trace: GreedyTrace,
    tau: WeaknessSequence,
    A_eps: float,
    eps: float,
    slack: float = DEFAULT_SLACK,
    grid_points: int = LAMBDA_POINTS,
) -> CheckReport:
    """Per-step residual recursion of the free-relaxation loop, at every recorded step.

    ||f_m|| <= ||f_{m-1}|| (1 - lam t_m (1 - eps/||f_{m-1}||)/A_eps
                              + 2 rho_bound(5 lam / ||f_{m-1}||))
    for every lam in the grid, within solver slack: ``grid_points`` points
    on [0, 1] plus the step's lambda from ml1_optimal_lambda, where the
    explicit rate derivation is tight. A step's margin is its least over
    the grid.
    """
    steps = [record.m for record in trace.records]
    t = [tau.value(m) for m in steps]
    params = smoothness_params(space)
    norms = trace.residual_norms()
    prev, curr = norms[:-1, None], norms[1:, None]
    lams = np.empty((len(steps), grid_points + 1))
    lams[:, :-1] = np.linspace(0.0, 1.0, grid_points)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):  # mended below
        # Where ||f_{m-1}|| <= eps the bound grows with lam, so the grid's lam = 0 is its least.
        lams[:, -1] = [0.0 if r <= eps else ml1_optimal_lambda(r, t_m, params, A_eps)
                       for r, t_m in zip(norms[:-1], t)]
        t = np.asarray(t, dtype=float)[:, None]
        rhs = prev * (
            1.0
            - lams * t / A_eps * (1.0 - eps / prev)
            + 2.0 * params.gamma * (5.0 * lams / prev) ** params.q
        )
        if not np.isfinite(rhs).all():
            # A term left float range. Formed as prev - X (prev - eps) + 2 gamma prev
            # (5 lam/prev)^q, X = lam t/A_eps, or at the optimal lam as its closed form
            # prev + X (eps - 3 prev/4) with X in log space, a bound is +-inf only past the range.
            q, g, gap = params.q, params.gamma, eps - 0.75 * prev
            log_x = (q * np.log(prev / 5.0) - np.log(8.0 * g * A_eps / t)) / (q - 1.0) + np.log(
                t / A_eps)
            rhs = np.where(np.isfinite(rhs), rhs, prev - lams * t / A_eps * (prev - eps)
                           + 2.0 * g * prev * (5.0 * lams / prev) ** q)
            mend = ~np.isfinite(rhs[:, -1]) & (norms[:-1] > eps)
            rhs[mend, -1] = (prev + np.sign(gap) * np.exp(log_x + np.log(np.abs(gap))))[mend, 0]
    worst = (rhs - curr).min(axis=1, initial=np.inf)
    return _finish("ml1_per_step", worst, len(steps), slack, _failing_steps(steps, worst, slack))


def _ml3_margin(space, prev, curr, r_m, f_norm, A_eps, eps, t):
    """One step's ml3 margin; None outside the recursion's hypotheses, +inf past float range."""
    if r_m == 0.0 or prev <= eps:
        return None
    u = r_m * (f_norm + A_eps / t) / ((1.0 - r_m) * prev)
    try:  # where the bound leaves float range it is +inf: the statement says nothing there
        rho = rho_bound(space, u) if u < np.inf else np.inf
    except OverflowError:
        rho = np.inf
    return prev * (1.0 - r_m * (1.0 - eps / prev) + 2.0 * rho) - curr


def check_ml3_trace(
    space: LpSpace,
    trace: GreedyTrace,
    A_eps: float,
    eps: float,
    t: float,
    slack: float = DEFAULT_SLACK,
) -> CheckReport:
    """Per-step residual recursion of the relaxed loop, at every applicable step.

    ||f_m|| <= ||f_{m-1}|| (1 - r_m (1 - eps/||f_{m-1}||)
               + 2 rho_bound(r_m (||f|| + A_eps/t) / ((1-r_m) ||f_{m-1}||))),
    within solver slack. Steps with r_m = 0 or ||f_{m-1}|| <= eps are
    outside the recursion's hypotheses and are not sampled. r_m and ||f||
    are read from the trace.
    """
    norms, f_norm = trace.residual_norms(), trace.initial_residual_norm
    margins = {}
    for r in trace.records:
        prev, curr = norms[r.m - 1], norms[r.m]
        margin = _ml3_margin(space, prev, curr, r.w_or_r.real, f_norm, A_eps, eps, t)
        if margin is not None:
            margins[r.m] = margin
    worst = list(margins.values())
    return _finish("ml3_per_step", worst, len(worst), slack, _failing_steps(margins, worst, slack))


def check_mt2_bound(
    trace: GreedyTrace,
    params: SmoothnessParams,
    A_eps: float,
    eps: float,
    tau: WeaknessSequence,
    slack: float = DEFAULT_SLACK,
) -> CheckReport:
    """Explicit-constant residual bound for the free-relaxation loop.

    ||f_m|| <= max(2 eps, A_q^(1/p) (A_eps + eps) (1 + sum_{k<=m} t_k^p)^(-1/p))
    with p = q/(q-1) and A_q = 4 (8 gamma)^(1/(q-1)) 5^(q/(q-1)).
    """
    q = params.q
    p = params.p_dual
    try:  # A_q^(1/p); where A_q is past float range (near q = 1), as 4^(1/p) (8 gamma)^(1/q) 5
        A_q = 4.0 * (8.0 * params.gamma) ** (1.0 / (q - 1.0)) * 5.0 ** (q / (q - 1.0))
        root = A_q ** (1.0 / p)
    except OverflowError:
        root = np.inf
    root = root if root < np.inf else 4.0 ** (1.0 / p) * (8.0 * params.gamma) ** (1.0 / q) * 5.0
    norms = trace.residual_norms()
    margins = []
    t_power_sum = 0.0
    for record in trace.records:
        t_power_sum += tau.value(record.m) ** p
        bound = max(
            2.0 * eps,
            root * (A_eps + eps) * (1.0 + t_power_sum) ** (-1.0 / p),
        )
        margins.append(bound - norms[record.m])
    return _finish("mt2_bound", margins, len(trace.records), slack)


def check_hl1(x_seq, C1: float, a_seq) -> CheckReport:
    """Recursive-sequence bound: x_m <= (C1^-1 + sum_{k<=m} a_k)^-1, within SEQUENCE_SLACK.

    First verifies the hypotheses (x_0 <= C1, nonnegativity, and the
    recursion x_{m+1} <= x_m (1 - x_m a_{m+1}) for every transition); if
    any fails, the report is returned as not applicable.
    """
    x = np.asarray(x_seq, dtype=float)
    a = np.asarray(a_seq, dtype=float)
    C1 = float(C1)
    problems = []
    if C1 <= 0.0:
        problems.append(f"C1 must be > 0; got {C1!r}")
    if x.size < 1:
        problems.append("x_seq is empty")
    if a.size < x.size - 1:
        problems.append(f"need {x.size - 1} a-values, got {a.size}")
    if not problems:
        if np.any(x < 0.0):
            problems.append("x_seq has negative entries")
        if np.any(a[: x.size - 1] < 0.0):
            # a_k = 0 degenerates the bound to the constant C1, still valid.
            problems.append("a_seq entries must be nonnegative")
        if x[0] > C1 + SEQUENCE_SLACK:
            problems.append(f"x_0={x[0]!r} exceeds C1={C1!r}")
        bound = x[:-1] * (1.0 - x[:-1] * a[: x.size - 1])
        failed = np.flatnonzero(x[1:] > bound + SEQUENCE_SLACK)
        if failed.size:
            m = failed[0]
            problems.append(f"recursion fails at m={m}: {x[m + 1]!r} > {bound[m]!r}")
    if problems:
        return _not_applicable("hl1", problems, x.size, SEQUENCE_SLACK, passed=False)
    bounds = 1.0 / (1.0 / C1 + np.concatenate([[0.0], np.cumsum(a[: x.size - 1])]))
    margins = bounds - x
    return _finish("hl1", margins, x.size, SEQUENCE_SLACK)


def check_ml4(a_seq, alpha: float, gamma_param: float, A: float) -> CheckReport:
    """Power-decay hypothesis check plus the empirical bounding constant.

    Verifies, for n >= 2, a_n <= a_{n-1} + A (n-1)^(-alpha), and whenever
    a_v >= A v^(-alpha) (v >= 2) also a_{v+1} <= a_v (1 - gamma_param/v),
    each within SEQUENCE_SLACK. Reports max_n a_n n^alpha / A (over the
    whole sequence and its first half) as the empirical decay constant.
    """
    a = np.asarray(a_seq, dtype=float)
    alpha = float(alpha)
    gamma_param = float(gamma_param)
    A = float(A)
    problems = []
    if not 0.0 < alpha < gamma_param <= 1.0:
        problems.append(
            f"need 0 < alpha < gamma_param <= 1; got alpha={alpha!r}, "
            f"gamma_param={gamma_param!r}"
        )
    if a.size < 2:
        problems.append("sequence too short")
    elif A <= a[0]:
        problems.append(f"need A > a_1; got A={A!r}, a_1={a[0]!r}")
    margins = []
    if not problems:
        n = np.arange(1, a.size + 1, dtype=float)
        growth = a[:-1] + A * n[:-1] ** (-alpha) - a[1:]
        margins.extend(growth.tolist())
        if growth.min() < -SEQUENCE_SLACK:
            problems.append(f"growth hypothesis fails at n={int(np.argmin(growth)) + 2}")
        for v in range(2, a.size):  # v is 1-based index, a_v = a[v-1]
            if a[v - 1] >= A * float(v) ** (-alpha):
                decay_margin = a[v - 1] * (1.0 - gamma_param / v) - a[v]
                margins.append(decay_margin)
                if decay_margin < -SEQUENCE_SLACK:
                    problems.append(f"decay hypothesis fails at v={v}")
                    break
    if problems:
        return _not_applicable("ml4", problems, a.size, SEQUENCE_SLACK, passed=False)
    n = np.arange(1, a.size + 1, dtype=float)
    ratios = a * n**alpha / A
    details = [
        f"empirical_constant={float(ratios.max())!r}",
        f"first_half_constant={float(ratios[: max(1, a.size // 2)].max())!r}",
    ]
    return _finish("ml4", margins, a.size, SEQUENCE_SLACK, details)


def fit_log_slope(trace: GreedyTrace, window: tuple[int, int]) -> RateFit:
    """Least-squares slope of log residual versus log m over the window.

    The residual after step m is the trace's record m. Zero residuals
    inside the window shrink it to the positive prefix; the returned
    window is the one actually used. A non-finite residual in it raises.
    """
    res = np.array([[record.residual_norm for record in trace.records]])
    (fit,) = _slope_fits(res, window)
    if isinstance(fit, ValueError):
        raise fit
    return fit


def _slope_fits(res: np.ndarray, window) -> list:
    """``fit_log_slope`` of each row of ``res``, or the ValueError of a row whose window collapses
    or holds a non-finite residual.

    Rows whose positive prefixes end the window alike are fitted in one stacked pass.
    """
    m_lo, m_hi = _whole(window[0]), _whole(window[1])
    if m_lo is None or m_hi is None:
        raise ValueError(f"window bounds must be whole numbers; got {tuple(window)!r}")
    if m_lo < 2:
        raise ValueError(f"window must start at m >= 2; got {m_lo}")
    m_hi = min(m_hi, res.shape[1])
    if m_hi < m_lo + 1:
        raise ValueError(f"window [{m_lo}, {m_hi}] has fewer than two points")
    span = res[:, m_lo - 1 : m_hi]
    # Each row's window ends before its first zero residual; a NaN stays in it and fails its row.
    ends = ([m_hi] * len(res) if (span > 0.0).all() else (
        np.logical_and.accumulate(~(span <= 0.0), axis=1).sum(axis=1) + (m_lo - 1)).tolist())
    fits, groups = [None] * len(res), {}
    for i, end in enumerate(ends):
        groups.setdefault(end, []).append(i)
    for end, rows in groups.items():
        if end < m_lo + 1:
            for i in rows:
                fits[i] = ValueError(
                    f"window [{m_lo}, {window[1]}] collapses below two positive residuals")
            continue
        log_r = np.log((res if len(rows) == len(res) else res[rows])[:, m_lo - 1 : end])
        # Centred least squares. Every sum is np.add.reduce along a row, so a row's fit in a
        # stack is its fit alone, bit for bit.
        x = np.log(np.arange(m_lo, end + 1, dtype=float))
        x_mean = np.add.reduce(x) / x.size
        dx = x - x_mean
        y_mean = np.add.reduce(log_r, axis=1) / x.size
        if not all(map(math.isfinite, y_mean.tolist())):  # a row holding +inf or NaN fails
            ok = np.isfinite(y_mean)
            for k in np.flatnonzero(~ok).tolist():
                m = m_lo + int(np.argmin(np.isfinite(log_r[k])))
                fits[rows[k]] = ValueError(
                    f"window [{m_lo}, {window[1]}] holds a non-finite residual at m = {m}")
            rows = [rows[k] for k in np.flatnonzero(ok).tolist()]
            log_r, y_mean = log_r[ok], y_mean[ok]
        dy = log_r - y_mean[:, None]
        slope = np.add.reduce(dx * dy, axis=1) / np.add.reduce(dx * dx)
        ss_res = np.add.reduce((dy - slope[:, None] * dx) ** 2, axis=1).tolist()
        ss_tot = np.add.reduce(dy * dy, axis=1).tolist()
        intercept = (y_mean - slope * x_mean).tolist()
        for i, a, b, sr, st in zip(rows, slope.tolist(), intercept, ss_res, ss_tot):
            fits[i] = RateFit(a, b, (m_lo, end), 1.0 if st == 0.0 else 1.0 - sr / st)
    return fits


def check_orthogonality(
    space: LpSpace,
    f,
    basis,
    n_competitors: int = 100,
    seed: int = 0,
) -> CheckReport:
    """Best-approximant certificate: F_{f - f_L} kills the subspace.

    Computes the best approximant f_L from span(basis), asserts
    |F_{f-f_L}(b_i)| <= 1e-7 for every basis element, and verifies
    sufficiency by sampling competitors g in the subspace and requiring
    ||f - f_L|| <= ||f - g|| + 1e-9. Margins are normalized so 0 is
    the pass line; the details give the worst functional margin and the
    worst competitor margin.
    """
    coeffs, residual = best_approx_subspace(space, f, basis)
    res_norm = lp_norm(space, residual)
    if res_norm <= 1e-10:
        raise ValueError("f lies in span(basis); the certificate is degenerate")
    F = norming_functional(space, residual)
    func_margins = [1e-7 - abs(apply_functional(F, b)) for b in basis]
    B = np.column_stack([np.asarray(b, dtype=np.complex128) for b in basis])
    scale = float(np.abs(coeffs).mean()) + 1.0
    n, k = _count("n_competitors", n_competitors), len(basis)
    # Row i holds competitor i's real then imaginary offset draws, the
    # order in which one competitor at a time would draw them.
    z = np.random.default_rng(seed).standard_normal((n, 2, k))
    W = coeffs + scale * (z[:, 0] + 1j * z[:, 1])
    g = np.matmul(B, W[..., None])[..., 0]
    comp_margins = _norm_rows(space.p, np.asarray(f, dtype=np.complex128) - g) + 1e-9 - res_norm
    worst = [min(func_margins), float(comp_margins.min())]
    details = [f"worst_functional_margin={worst[0]!r}", f"worst_competitor_margin={worst[1]!r}"]
    return _finish("ll1_certificate", worst, k + n, 0.0, details)


def check_dual_norm_supremum(
    F: DualFunctional,
    dictionary: Dictionary,
    n_samples: int = 500,
    seed: int = 0,
) -> CheckReport:
    """Dictionary sup equals hull sup, sampled.

    |F| over random absolutely-convex combinations never exceeds the
    dictionary max |F(g)|, Re F over random convex combinations never
    exceeds max Re F(g), each within 1e-9, and both sampled sups attain the
    dictionary value within 1e-6 because the aligned extreme atom is
    included among the samples.
    """
    n = _count("n_samples", n_samples)
    rng = np.random.default_rng(seed)
    count = len(dictionary)
    values, mags = _scan(F, dictionary)
    idx_abs = int(np.argmax(mags))
    abs_max = float(mags[idx_abs])
    re_max = float(values.real.max())

    w = rng.standard_normal((n, count)) + 1j * rng.standard_normal((n, count))
    w /= np.abs(w).sum(axis=1)[:, None]
    abs_samples = np.abs(w @ values)
    # The phase-aligned argmax atom is itself an absolutely-convex
    # combination and scores exactly the dictionary max.
    abs_samples = np.append(abs_samples, abs(values[idx_abs]))

    c = rng.uniform(0.0, 1.0, size=(n, count))
    c /= c.sum(axis=1)[:, None]
    re_samples = (c @ values).real
    re_samples = np.append(re_samples, values.real[int(np.argmax(values.real))])

    margins = np.concatenate(
        [
            abs_max + 1e-9 - abs_samples,
            re_max + 1e-9 - re_samples,
            [abs_samples.max() - (abs_max - 1e-6)],
            [re_samples.max() - (re_max - 1e-6)],
        ]
    )
    return _finish("ll2_ll3_sampling", margins, 2 * n + 2, 0.0)


def check_monotone(trace: GreedyTrace, slack: float = DEFAULT_SLACK) -> CheckReport:
    """Residual norms never increase along the trace (within solver slack)."""
    norms = trace.residual_norms()
    margins = (norms[:-1] - norms[1:] + slack).tolist()
    return _finish("residual_monotone", margins, len(trace.records), 0.0)


def check_trivial_step(trace: GreedyTrace) -> CheckReport:
    """Trivial-step safety of the incremental loops: ||f_m|| <= ||f_{m-1}|| + 2/m."""
    return _trivial_steps(trace.residual_norms()[None])[0]


def _trivial_steps(norms: np.ndarray) -> list[CheckReport]:
    """``check_trivial_step`` of each row of ``norms``: stacked ``residual_norms()``, one length."""
    bound = _step_bound(norms.shape[1] - 1)
    margins = norms[:, :-1] + bound + TRIVIAL_STEP_SLACK - norms[:, 1:]
    return [_finish("trivial_step_bound", row, bound.size, 0.0) for row in margins.tolist()]


@lru_cache(maxsize=64)
def _step_bound(n: int) -> np.ndarray:
    """2/m for m = 1, ..., n; read-only, and cached for the last 64 trace lengths."""
    (bound := 2.0 / np.arange(1, n + 1)).setflags(write=False)
    return bound


def check_barycentric(trace: GreedyTrace, dictionary: Dictionary) -> CheckReport:
    """Recorded selections rebuild every stored G_m.

    G_m must equal (1/m) sum_{j<=m} nu_j phi_j within BARYCENTRIC_TOL, the
    tolerance the loop itself asserts. For the convex variant the implied
    weights must additionally be nonnegative reals summing to one within
    WEIGHT_TOL.
    """
    return _barycentric([trace], [dictionary])[0]


def _barycentric(traces: list, dictionaries: list) -> list[CheckReport]:
    """``check_barycentric`` of each trace on its dictionary."""
    reports = []
    for trace, d in zip(traces, dictionaries):
        rows, drifts = trace.records[: len(trace.approximants)], []
        if rows:
            index, phases, steps = zip(*[(r.selected_index, r.phase, r.m) for r in rows])
            rebuilt = np.multiply(np.array(phases, np.complex128)[:, None], d.atoms[list(index)])
            # accumulate adds row by row, so row m is the running sum phi_1 + ... + phi_m.
            np.add.accumulate(rebuilt, axis=0, out=rebuilt)
            rebuilt /= np.array(steps)[:, None]
            rebuilt -= trace.approximants[: len(rows)]
            drifts = np.maximum.reduce(np.abs(rebuilt), axis=1).tolist()
        margins, details, counts, iacc = [], [], {}, trace.algorithm == "iacc"
        for record, drift in zip(rows, drifts):
            margins.append(BARYCENTRIC_TOL - drift)
            if drift > BARYCENTRIC_TOL:
                details.append(f"step {record.m}: drift {drift:.3e}")
            if iacc:
                counts[record.selected_index] = counts.get(record.selected_index, 0) + 1
                weights = [c / record.m for c in counts.values()]
                margins.append(min(weights))
                # Left to right: the built-in sum of floats is compensated from Python 3.12 on.
                margins.append(WEIGHT_TOL - abs(reduce(add, weights) - 1.0))
                if abs(record.phase - 1.0) > WEIGHT_TOL:
                    margins.append(-abs(record.phase - 1.0))
                    details.append(f"step {record.m}: non-unit weight phase")
        reports.append(
            _finish("barycentric_reconstruction", margins, len(trace.records), 0.0, details))
    return reports
