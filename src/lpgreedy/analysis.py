"""Numerical checkers for per-step residual recursions, rate bounds, traces.

Each checker samples or walks a trace, accumulates slack margins
(bound minus observed value; negative means violation), and returns a
CheckReport. Checkers substitute the closed-form l_p smoothness bound for
the true modulus; every such substitution sits on the large side of the
inequality being checked, so the direction is preserved. Per-step
inequalities on traces carry an explicit solver slack because the inner
minimizations are approximate.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .algorithms import GreedyTrace, WeaknessSequence
from .dictionaries import Dictionary, _scan
from .solvers import SolverConfig, best_approx_subspace
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
    "check_ml1_step",
    "check_ml1_trace",
    "check_ml3_step",
    "check_ml3_trace",
    "check_mt2_bound",
    "check_hl1",
    "check_ml4",
    "fit_log_slope",
    "check_orthogonality",
    "check_dual_norm_supremum",
    "check_condition_43",
    "check_monotone",
    "check_trivial_step",
    "check_barycentric",
    "ml1_optimal_lambda",
    "reports_to_csv",
    "DEFAULT_SLACK",
]

# Solver slack added to every per-step trace inequality: the inner infima
# are exact in the statements, approximate in the runs.
DEFAULT_SLACK = 1e-8


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


def reports_to_csv(reports) -> str:
    """Summary table (name, passed, worst_margin, samples) as CSV text."""
    lines = ["name,passed,worst_margin,samples"]
    for report in reports:
        lines.append(
            f"{report.name},{'true' if report.passed else 'false'},"
            f"{report.worst_margin!r},{report.samples}"
        )
    return "\n".join(lines) + "\n"


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
    """The lambda at which the free-relaxation residual recursion is tight."""
    q = params.q
    return (
        res_prev ** (q / (q - 1.0))
        * 5.0 ** (-q / (q - 1.0))
        * (8.0 * params.gamma * A_eps) ** (-1.0 / (q - 1.0))
        * t_m ** (1.0 / (q - 1.0))
    )


def _ml1_margins(space, norms, t, A_eps, eps, lambda_grid, grid_points):
    """ml1 margins: one row per step of ``norms``, one column per lambda.

    ``norms`` is [||f_{m0-1}||, ..., ||f_M||] and ``t`` holds the weakness
    factors of steps m0..M. The default grid is ``grid_points`` points on
    [0, 1] plus each step's lambda from ml1_optimal_lambda.
    """
    params = smoothness_params(space)
    prev, curr = norms[:-1, None], norms[1:, None]
    if lambda_grid is None:
        lams = np.empty((prev.shape[0], grid_points + 1))
        lams[:, :-1] = np.linspace(0.0, 1.0, grid_points)
        lams[:, -1] = [
            ml1_optimal_lambda(r, t_m, params, A_eps) for r, t_m in zip(norms[:-1], t)
        ]
    else:
        lams = np.asarray(lambda_grid, dtype=float)
    t = np.asarray(t, dtype=float)[:, None]
    rhs = prev * (
        1.0
        - lams * t / A_eps * (1.0 - eps / prev)
        + 2.0 * params.gamma * (5.0 * lams / prev) ** params.q
    )
    return rhs - curr


def _failing_steps(steps, worst, slack) -> list[str]:
    return [f"step {m}: margin {w:.3e}" for m, w in zip(steps, worst) if not w >= -slack]


def _step_norms(trace: GreedyTrace, m: int) -> np.ndarray:
    """[||f_{m-1}||, ||f_m||], refusing a step outside the trace."""
    if not 1 <= m <= len(trace.records):
        raise ValueError(f"step {m} outside trace of length {len(trace.records)}")
    return trace.residual_norms()[m - 1 : m + 1]


def check_ml1_step(
    space: LpSpace,
    trace: GreedyTrace,
    m: int,
    A_eps: float,
    eps: float,
    t_m: float,
    lambda_grid=None,
    slack: float = DEFAULT_SLACK,
    grid_points: int = 101,
) -> CheckReport:
    """Per-step residual recursion of the free-relaxation loop.

    ||f_m|| <= ||f_{m-1}|| (1 - lam t_m (1 - eps/||f_{m-1}||)/A_eps
                              + 2 rho_bound(5 lam / ||f_{m-1}||))
    for every lam >= 0 in the grid, within solver slack. The default grid
    is ``grid_points`` points on [0, 1] plus the lambda where the explicit
    rate derivation is tight.
    """
    norms = _step_norms(trace, m)
    margins = _ml1_margins(space, norms, [t_m], A_eps, eps, lambda_grid, grid_points)[0]
    return _finish(f"ml1_step_{m}", margins, margins.size, slack)


def check_ml1_trace(
    space: LpSpace,
    trace: GreedyTrace,
    tau: WeaknessSequence,
    A_eps: float,
    eps: float,
    lambda_grid=None,
    slack: float = DEFAULT_SLACK,
    grid_points: int = 101,
) -> CheckReport:
    """check_ml1_step at every recorded step, margins merged."""
    steps = [record.m for record in trace.records]
    t = [tau.value(m) for m in steps]
    margins = _ml1_margins(space, trace.residual_norms(), t, A_eps, eps, lambda_grid, grid_points)
    worst = margins.min(axis=1, initial=np.inf)
    return _finish("ml1_per_step", worst, len(steps), slack, _failing_steps(steps, worst, slack))


def _ml3_margin(space, prev, curr, r_m, f_norm, A_eps, eps, t):
    """One step's ml3 margin; None outside the recursion's hypotheses."""
    if r_m == 0.0 or prev <= eps:
        return None
    u = r_m * (f_norm + A_eps / t) / ((1.0 - r_m) * prev)
    return prev * (1.0 - r_m * (1.0 - eps / prev) + 2.0 * rho_bound(space, u)) - curr


def check_ml3_step(
    space: LpSpace,
    trace: GreedyTrace,
    m: int,
    A_eps: float,
    eps: float,
    t: float,
    slack: float = DEFAULT_SLACK,
) -> CheckReport:
    """Per-step residual recursion of the relaxed loop.

    ||f_m|| <= ||f_{m-1}|| (1 - r_m (1 - eps/||f_{m-1}||)
               + 2 rho_bound(r_m (||f|| + A_eps/t) / ((1-r_m) ||f_{m-1}||))).
    Steps with r_m = 0 or ||f_{m-1}|| <= eps are outside the recursion's
    hypotheses and are reported as not applicable. r_m and ||f|| are read
    from the trace.
    """
    prev, curr = _step_norms(trace, m)
    r_m = trace.records[m - 1].w_or_r.real
    margin = _ml3_margin(space, prev, curr, r_m, trace.initial_residual_norm, A_eps, eps, t)
    if margin is None:
        details = [f"skipped: r_m={r_m!r}, prev={prev!r}, eps={eps!r}"]
        return _not_applicable(f"ml3_step_{m}", details, tolerance=slack)
    return _finish(f"ml3_step_{m}", [margin], 1, slack)


def check_ml3_trace(
    space: LpSpace,
    trace: GreedyTrace,
    A_eps: float,
    eps: float,
    t: float,
    slack: float = DEFAULT_SLACK,
) -> CheckReport:
    """check_ml3_step at every applicable step, margins merged."""
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
    A_q = 4.0 * (8.0 * params.gamma) ** (1.0 / (q - 1.0)) * 5.0 ** (q / (q - 1.0))
    norms = trace.residual_norms()
    margins = []
    t_power_sum = 0.0
    for record in trace.records:
        t_power_sum += tau.value(record.m) ** p
        bound = max(
            2.0 * eps,
            A_q ** (1.0 / p) * (A_eps + eps) * (1.0 + t_power_sum) ** (-1.0 / p),
        )
        margins.append(bound - norms[record.m])
    return _finish("mt2_bound", margins, len(trace.records), slack)


def check_hl1(x_seq, C1: float, a_seq, slack: float = 1e-12) -> CheckReport:
    """Recursive-sequence bound: x_m <= (C1^-1 + sum_{k<=m} a_k)^-1.

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
        if x[0] > C1 + slack:
            problems.append(f"x_0={x[0]!r} exceeds C1={C1!r}")
        bound = x[:-1] * (1.0 - x[:-1] * a[: x.size - 1])
        failed = np.flatnonzero(x[1:] > bound + slack)
        if failed.size:
            m = failed[0]
            problems.append(f"recursion fails at m={m}: {x[m + 1]!r} > {bound[m]!r}")
    if problems:
        return _not_applicable("hl1", problems, x.size, slack, passed=False)
    bounds = 1.0 / (1.0 / C1 + np.concatenate([[0.0], np.cumsum(a[: x.size - 1])]))
    margins = bounds - x
    return _finish("hl1", margins, x.size, slack)


def check_ml4(
    a_seq, alpha: float, gamma_param: float, A: float, slack: float = 1e-12
) -> CheckReport:
    """Power-decay hypothesis check plus the empirical bounding constant.

    Verifies, for n >= 2, a_n <= a_{n-1} + A (n-1)^(-alpha), and whenever
    a_v >= A v^(-alpha) (v >= 2) also a_{v+1} <= a_v (1 - gamma_param/v).
    Reports max_n a_n n^alpha / A (over the whole sequence and its first
    half) as the empirical decay constant.
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
        if growth.min() < -slack:
            problems.append(f"growth hypothesis fails at n={int(np.argmin(growth)) + 2}")
        for v in range(2, a.size):  # v is 1-based index, a_v = a[v-1]
            if a[v - 1] >= A * float(v) ** (-alpha):
                decay_margin = a[v - 1] * (1.0 - gamma_param / v) - a[v]
                margins.append(decay_margin)
                if decay_margin < -slack:
                    problems.append(f"decay hypothesis fails at v={v}")
                    break
    if problems:
        return _not_applicable("ml4", problems, a.size, slack, passed=False)
    n = np.arange(1, a.size + 1, dtype=float)
    ratios = a * n**alpha / A
    details = [
        f"empirical_constant={float(ratios.max())!r}",
        f"first_half_constant={float(ratios[: max(1, a.size // 2)].max())!r}",
    ]
    return _finish("ml4", margins, a.size, slack, details)


def fit_log_slope(residuals, window: tuple[int, int]) -> RateFit:
    """Least-squares slope of log residual versus log m over the window.

    ``residuals`` is a trace or an array indexed so entry i is the
    residual after step i+1. Zero residuals inside the window shrink it to
    the positive prefix; the returned window is the one actually used.
    """
    if isinstance(residuals, GreedyTrace):
        res = residuals.residual_norms()[1:]
    else:
        res = np.asarray(residuals, dtype=float)
    m_lo, m_hi = _whole(window[0]), _whole(window[1])
    if m_lo is None or m_hi is None:
        raise ValueError(f"window bounds must be whole numbers; got {tuple(window)!r}")
    if m_lo < 2:
        raise ValueError(f"window must start at m >= 2; got {m_lo}")
    m_hi = min(m_hi, res.size)
    if m_hi < m_lo + 1:
        raise ValueError(f"window [{m_lo}, {m_hi}] has fewer than two points")
    values = res[m_lo - 1 : m_hi]
    positive = values > 0.0
    if not positive.all():
        first_zero = int(np.argmin(positive))
        m_hi = m_lo + first_zero - 1
        values = res[m_lo - 1 : m_hi]
        if values.size < 2:
            raise ValueError(
                f"window [{m_lo}, {window[1]}] collapses below two positive residuals"
            )
    log_m = np.log(np.arange(m_lo, m_hi + 1, dtype=float))
    log_r = np.log(values)
    slope, intercept = np.polyfit(log_m, log_r, 1)
    fitted = slope * log_m + intercept
    ss_res = float(((log_r - fitted) ** 2).sum())
    ss_tot = float(((log_r - log_r.mean()) ** 2).sum())
    r_squared = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return RateFit(
        slope=float(slope),
        intercept=float(intercept),
        window=(m_lo, m_hi),
        r_squared=r_squared,
    )


def check_orthogonality(
    space: LpSpace,
    f,
    basis,
    cfg: SolverConfig | None = None,
    n_competitors: int = 100,
    seed: int = 0,
    func_tol: float = 1e-7,
) -> CheckReport:
    """Best-approximant certificate: F_{f - f_L} kills the subspace.

    Computes the best approximant f_L from span(basis), asserts
    |F_{f-f_L}(b_i)| <= func_tol for every basis element, and verifies
    sufficiency by sampling competitors g in the subspace and requiring
    ||f - f_L|| <= ||f - g|| + 1e-9. Margins are normalized so 0 is
    the pass line.
    """
    cfg = cfg or SolverConfig()
    coeffs, residual = best_approx_subspace(space, f, basis, cfg)
    res_norm = lp_norm(space, residual)
    if res_norm <= 1e-10:
        raise ValueError("f lies in span(basis); the certificate is degenerate")
    F = norming_functional(space, residual)
    func_margins = [func_tol - abs(apply_functional(F, b)) for b in basis]
    B = np.column_stack([np.asarray(b, dtype=np.complex128) for b in basis])
    scale = float(np.abs(coeffs).mean()) + 1.0
    n, k = _count("n_competitors", n_competitors), len(basis)
    # Row i holds competitor i's real then imaginary offset draws, the
    # order in which one competitor at a time would draw them.
    z = np.random.default_rng(seed).standard_normal((n, 2, k))
    W = coeffs + scale * (z[:, 0] + 1j * z[:, 1])
    g = np.matmul(B, W[..., None])[..., 0]
    comp_margins = _norm_rows(space.p, np.asarray(f, dtype=np.complex128) - g) + 1e-9 - res_norm
    return _finish("ll1_certificate", np.concatenate([func_margins, comp_margins]), k + n, 0.0)


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


def check_condition_43(
    tau: WeaknessSequence,
    theta: float,
    n_terms: int,
    params: SmoothnessParams,
) -> CheckReport:
    """Diagnostic partial sums of t_m * s^{-1}(theta t_m).

    s(u) = rho_bound(u)/u = gamma u^(q-1), so s^{-1}(v) = (v/gamma)^(1/(q-1)).
    Finite evidence cannot decide divergence, so this never fails; the
    report carries checkpoint partial sums and the log-log growth trend of
    the partial-sum sequence.
    """
    theta = float(theta)
    if theta <= 0.0:
        raise ValueError(f"theta must be > 0; got {theta}")
    n_terms = _count("n_terms", n_terms)
    t = np.array([tau.value(m) for m in range(1, n_terms + 1)])
    terms = t * (theta * t / params.gamma) ** (1.0 / (params.q - 1.0))
    partial = np.cumsum(terms)
    details = [
        f"partial_sum_quarter={float(partial[max(0, n_terms // 4 - 1)])!r}",
        f"partial_sum_half={float(partial[max(0, n_terms // 2 - 1)])!r}",
        f"partial_sum_full={float(partial[-1])!r}",
    ]
    tail = partial[n_terms // 2 :]
    if tail.size >= 2 and tail.min() > 0.0:
        idx = np.arange(n_terms // 2 + 1, n_terms + 1, dtype=float)
        trend = float(np.polyfit(np.log(idx), np.log(tail), 1)[0])
        details.append(f"tail_growth_exponent={trend!r}")
    else:
        details.append("tail_growth_exponent=nan (vanishing partial sums)")
    return CheckReport(
        name="condition_43_diagnostic",
        passed=True,
        worst_margin=float(partial[-1]),
        samples=n_terms,
        tolerance=0.0,
        details=details,
    )


def check_monotone(trace: GreedyTrace, slack: float = DEFAULT_SLACK) -> CheckReport:
    """Residual norms never increase along the trace (within solver slack)."""
    norms = trace.residual_norms()
    margins = (norms[:-1] - norms[1:] + slack).tolist()
    return _finish("residual_monotone", margins, len(trace.records), 0.0)


def check_trivial_step(trace: GreedyTrace, slack: float = 1e-10) -> CheckReport:
    """Trivial-step safety of the incremental loops: ||f_m|| <= ||f_{m-1}|| + 2/m."""
    norms = trace.residual_norms()
    m = np.arange(1, norms.size)
    margins = norms[:-1] + 2.0 / m + slack - norms[1:]
    return _finish("trivial_step_bound", margins, len(trace.records), 0.0)


def check_barycentric(
    trace: GreedyTrace,
    dictionary: Dictionary,
    tol: float = 1e-10,
    weight_tol: float = 1e-12,
) -> CheckReport:
    """Recorded selections rebuild every stored G_m.

    G_m must equal (1/m) sum_{j<=m} nu_j phi_j within ``tol``. For the
    convex variant the implied weights must additionally be nonnegative
    reals summing to one within ``weight_tol``.
    """
    records = trace.records[: len(trace.approximants)]
    phases = np.array([record.phase for record in records], dtype=np.complex128)
    atoms = dictionary.atoms[[record.selected_index for record in records]]
    # cumsum adds row by row, so row m is the running sum phi_1 + ... + phi_m.
    rebuilt = np.cumsum(phases[:, None] * atoms, axis=0)
    rebuilt /= np.array([record.m for record in records])[:, None]
    stored = np.reshape(trace.approximants[: len(records)], rebuilt.shape)
    drifts = np.abs(rebuilt - stored).max(axis=1).tolist()
    margins = []
    details = []
    counts: dict[int, int] = {}
    for record, drift in zip(records, drifts):
        margins.append(tol - drift)
        if drift > tol:
            details.append(f"step {record.m}: drift {drift:.3e}")
        if trace.algorithm == "iacc":
            counts[record.selected_index] = counts.get(record.selected_index, 0) + 1
            weights = [c / record.m for c in counts.values()]
            margins.append(min(weights))
            margins.append(weight_tol - abs(sum(weights) - 1.0))
            if abs(record.phase - 1.0) > weight_tol:
                margins.append(-abs(record.phase - 1.0))
                details.append(f"step {record.m}: non-unit weight phase")
    return _finish("barycentric_reconstruction", margins, len(trace.records), 0.0, details)
