"""Inner convex minimizations: ||base - D c|| over complex coefficients.

All three entry points reduce to the same problem, minimizing the norm of
an affine residual over one, two, or k complex coefficients. The objective
is convex and, away from a zero residual, differentiable; the gradient
with respect to the real parametrization comes from the norming
functional (the directional derivative of ||x + u y|| at u = 0 is
Re F_x(y)). Every solve starts at the least-squares point, one triangular
solve on the QR its duality certificate needs (one dot product for one
column at p != 2); at p = 2 that point is the minimizer, and otherwise
damped Newton on the 2k real unknowns runs from it. Every solve reports a
duality gap that bounds its distance from the infimum; no external
solver. A zero or dependent column adds no direction: it is left out and
gets coefficient 0, so the first free-relaxation step (G_prev = 0) takes
the same path as every other. The public entry points check their
arguments once and call the array core (:func:`_descend`,
:func:`_free_relax`), which the greedy loops call directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.linalg._umath_linalg import qr_r_raw, qr_reduced, solve1

from .spaces import (
    _TINY,
    LpSpace,
    _as_vector,
    _count,
    _norm_mags,
    _norming_coeffs,
)

__all__ = [
    "SolverConfig",
    "SolveResult",
    "DependentBasisError",
    "minimize_over_line",
    "minimize_free_relax",
    "best_approx_subspace",
]

# The norming functional is undefined at 0; a residual this small is an
# exact fit and terminates the descent with value 0.
RESIDUAL_FLOOR = 1e-13

# Rank threshold: a basis with singular-value ratio at most this is dependent;
# a unit-scaled column with QR pivot at most this adds no direction.
RANK_TOL = 1e-10

_MIN_STEP = 1e-18

# Relative duality gap below which value and lower bound agree to a few
# units in the last place: no representable improvement is left. A Python
# float, so that the gap test yields a JSON-serializable bool.
_GAP_RESOLUTION = 4.0 * float(np.finfo(float).eps)

# Floor on |rho_i| = |r_i| / ||r|| inside the Newton weights |rho_i|^(p-2),
# which are infinite at a zero residual entry when p < 2 (as in IRLS). It
# only shapes the step; the gradient and the stop tests never see it.
_RHO_FLOOR = 1e-30

# Predicted relative decrease of the Newton step below which the duality
# certificate is built before the last iterate. The gap is at least the
# distance to the infimum, which the Newton step predicts, so the gap test
# cannot pass while the prediction is well above _GAP_RESOLUTION; the
# margin over it covers a Newton model that underestimates the decrease.
_CERTIFY_BELOW = 1e-12


class DependentBasisError(ValueError):
    """The supplied basis is numerically linearly dependent."""


@dataclass(frozen=True)
class SolverConfig:
    """Descent controls; defaults match the library-wide tolerances."""

    grad_tol: float = 1e-10
    max_iters: int = 500
    armijo_c: float = 1e-4
    backtrack_factor: float = 0.5

    def __post_init__(self):
        if not self.grad_tol > 0.0:
            raise ValueError(f"solver.grad_tol must be > 0; got {self.grad_tol!r}")
        if self.grad_tol == math.inf:
            raise ValueError(f"solver.grad_tol must be finite; got {self.grad_tol!r}")
        _count("solver.max_iters", self.max_iters)
        if not 0.0 < self.armijo_c < 1.0:
            raise ValueError(f"solver.armijo_c must lie in (0, 1); got {self.armijo_c!r}")
        if not 0.0 < self.backtrack_factor < 1.0:
            raise ValueError(
                f"solver.backtrack_factor must lie in (0, 1); got {self.backtrack_factor!r}"
            )


_DEFAULTS = SolverConfig()  # frozen, so every call without a config can share it


@dataclass
class SolveResult:
    """Minimizer (complex coefficients), objective value, and descent stats.

    ``gap`` is ``value`` minus a certified lower bound on the infimum, so
    the returned value is within ``gap`` of optimal (up to round-off).
    ``converged`` means the residual hit the exact-fit floor, the gradient
    norm reached grad_tol, or the gap reached float resolution; it is
    False when max_iters ran out or the line search stalled first, and at
    p = 2 (no iteration) when the gap is above float resolution.
    ``iterations`` counts Newton steps taken (0 for the exact p = 2 solve).
    """

    minimizer: np.ndarray
    value: float
    converged: bool
    iterations: int
    gap: float


def _solve(a: np.ndarray, b: np.ndarray) -> np.ndarray | None:
    """a^{-1} b for a small square real or complex a; None if a is exactly singular.

    Calls numpy's LAPACK gesv gufunc, the one numpy.linalg.solve wraps,
    with the same result bit for bit and without numpy's per-call checks.
    On an exactly singular a the gufunc fills x with NaN and raises the
    invalid floating-point flag, which the Newton iteration ignores.
    """
    x = solve1(a, b)
    first = x.item(0)
    return x if first == first else None


def _qr(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Reduced QR of a complex matrix; the factors of numpy.linalg.qr, bit for bit.

    Factors ``a`` in place, with numpy's LAPACK geqrf/ungqr gufuncs, and
    returns Q and the leading rows of the factorization, whose upper
    triangle is R; below the diagonal they hold Householder vectors, not
    zeros.
    """
    tau = qr_r_raw(a)
    return qr_reduced(a, tau), a[: tau.shape[0]]


def _descent_step(hess: np.ndarray, grad: np.ndarray, value: float) -> tuple[np.ndarray, float]:
    """Solve hess @ step = -value * grad; steepest descent if that does not descend.

    Returns the step and its slope grad @ step.
    """
    step = _solve(hess, -value * grad)
    if step is not None:
        slope = float(grad @ step)
        if slope < 0.0:
            return step, slope
    step = -value * grad
    return step, float(grad @ step)


def _norm(p, mags, value=None) -> float:
    """:func:`_norm_mags` to a few ulps, in three numpy calls near ``value`` and four otherwise.

    Far from the value, the scaled sum may leave the normal range (at p = 64) and its root lose bits.
    """
    scale = value or float(np.maximum.reduce(mags))
    ratio = float(np.add.reduce((mags / scale) ** p)) ** (1.0 / p) if scale else 0.0
    return scale * ratio if value is None or 0.0625 <= ratio <= 16.0 else _norm(p, mags)


def _lower_bound(q, cert, span, r) -> float:
    """Duality lower bound |c @ r| / ||c||_q on the infimum.

    c is ``cert`` (overwritten) projected exactly onto {c : c @ cols = 0}
    through the orthonormal basis ``span[0]`` of conj(cols) and its conjugate
    ``span[1]``. Any such c gives ||base - cols @ y|| >= |c @ base| / ||c||_q
    for every y, and c @ r == c @ base because c annihilates the columns.
    """
    cert -= span[0] @ (cert @ span[1])
    cert_norm = (_norm_mags if q == 2.0 else _norm)(q, np.abs(cert))  # p = 2 pinned
    return float(abs(cert @ r)) / cert_norm if cert_norm > 0.0 else 0.0


def _weights(p, r, mags, value):
    """(unit, weights, curv) at the residual r, with mags = |r| and value = ||r||.

    unit = r / |r| (0 at an exact zero), weights = |rho|^(p-1) (so
    conj(unit) * weights is the norming functional of r) and curv = w.
    """
    rho = mags / value
    low = float(np.minimum.reduce(mags))  # a floor below every entry leaves the same bits
    curv = (rho if low / value >= _RHO_FLOOR else np.maximum(rho, _RHO_FLOOR)) ** (p - 2.0)
    unit = r / (mags if low >= _TINY else np.maximum(mags, _TINY))  # 0 at an exact zero
    if low < _TINY:
        # A subnormal |r_i| has lost bits: its sign comes from the angle.
        sub = (mags < _TINY) & (mags > 0.0)
        unit[sub] = np.exp(1j * np.angle(r[sub]))
    return unit, rho ** (p - 1.0), curv


def _hessian(p, curv, grad, hw, v):
    """The Hessian of ||r||^2 / 2 (see :func:`_descend`) from :meth:`_Columns.model`'s parts."""
    return hw + (p - 2.0) * ((v.T * curv) @ v - grad[:, None] * grad)


class _Columns:
    """The k-column model of :func:`_newton`: real form, LAPACK solves, the QR's projection.

    In the real coordinates y.view(float), r = base - cols @ y has the
    Jacobian J with columns -cols[:, j].view(float) and
    -(1j cols[:, j]).view(float); ``jac_t`` is -J^T, and J_i^T (Re u, Im u)
    is (u * neg_conj[i]).view(float). ``span`` is the orthonormal basis of
    conj(cols), with its conjugate, that :func:`_lower_bound` projects
    through. :meth:`newton` and :meth:`irls` return a direction, its change
    of r and its slope, from the parts :meth:`model` keeps.
    """

    def __init__(self, cols, span):
        blocks = np.empty((cols.shape[1], 2, cols.shape[0]), dtype=np.complex128)
        blocks[:, 0], blocks[:, 1] = cols.T, 1j * cols.T
        self.jac_t = blocks.view(np.float64).reshape(2 * cols.shape[1], -1)
        self.cols, self.neg_cols, self.span = cols, -cols, (span, np.conj(span))
        self.neg_conj = np.conj(self.neg_cols)

    def model(self, unit, weights, curv):
        """|grad| from :func:`_weights`'s parts; keeps curv, grad, hw = sum_i w_i J_i^T J_i, v."""
        v = (unit[:, None] * self.neg_conj).view(np.float64)  # row i is J_i^T rho_hat_i
        grad = weights @ v
        self.parts = curv, grad, (self.jac_t * curv.repeat(2)) @ self.jac_t.T, v
        return math.sqrt(grad @ grad)

    def newton(self, p, value):
        grad = self.parts[1]
        step, slope = _descent_step(_hessian(p, *self.parts), grad, value)
        dy = step.view(np.complex128)
        return dy, self.neg_cols @ dy, slope

    def irls(self):
        """The IRLS direction per unit value, -hw^{-1} grad (-grad if hw is exactly singular)."""
        _, grad, hw, _ = self.parts
        beta = _solve(hw, -grad)
        beta = (-grad if beta is None else beta).view(np.complex128)
        return beta, self.cols @ beta

    def slope(self, dy):
        return float(self.parts[1] @ dy.view(np.float64))


def _line_step(p, a, b, grad, value):
    """:func:`_descent_step` for one column: P dl + Q conj(dl) = c = -value * grad in closed form.

    The Hessian acts on a complex step dl as P dl + Q conj(dl), with
    P = (p/2) a - ((p-2)/2) |grad|^2 and Q = ((p-2)/2) (b - grad^2) (see
    :class:`_Column`). A zero or NaN P^2 - |Q|^2, or a step that does not
    descend, gives c. Returns the step and its slope Re(conj(grad) dl).
    """
    P = 0.5 * p * a - 0.5 * (p - 2.0) * (grad.real * grad.real + grad.imag * grad.imag)
    Q = 0.5 * (p - 2.0) * (b - grad * grad)
    c = -value * grad
    det = P * P - (Q.real * Q.real + Q.imag * Q.imag)
    if det:
        step = (P * c - Q * c.conjugate()) / det
        slope = (grad.conjugate() * step).real
        if slope < 0.0:
            return step, slope
    return c, (grad.conjugate() * c).real


class _Column:
    """The one-column model of :func:`_newton` on Python scalars, as :class:`_Columns`'s.

    lam and the gradient gamma = -sum_i |rho_i|^(p-1) unit_i conj(col_i)
    are Python complex numbers (Re, Im of the real form's). With
    a = sum_i w_i |col_i|^2 and b = sum_i w_i (unit_i conj(col_i))^2, the
    Newton step is :func:`_line_step`'s and the IRLS direction -gamma / a
    (-gamma at a = 0). ``span`` projects by the unit column u = col / ||col||_2:
    conj(col) (c @ col) / ||col||_2^2 is conj(u) (c @ u).
    """

    def __init__(self, col):
        self.col, self.conj, self.sq = col, np.conj(col), np.abs(col) ** 2
        self.norm2 = float(np.add.reduce(self.sq))
        self.span = (self.conj / self.norm2)[:, None], col[:, None]

    def model(self, unit, weights, curv):
        uc = unit * self.conj
        grad = -complex(np.dot(weights, uc))
        self.parts = curv, grad, float(curv @ self.sq), uc
        return abs(grad)

    def newton(self, p, value):
        curv, grad, a, uc = self.parts
        step, slope = _line_step(p, a, complex(np.dot(curv, uc * uc)), grad, value)
        return step, self.col * -step, slope

    def irls(self):
        _, grad, a, _ = self.parts
        beta = -grad / a if a else -grad
        return beta, self.col * beta

    def slope(self, dl):
        return (self.parts[1].conjugate() * dl).real


def _newton(p, q, r, kernel, y, cfg):
    """Damped Newton for p != 2 on a :class:`_Columns` or :class:`_Column` model from ``y``.

    ``r`` is the residual at ``y``. Returns (minimizer, value, converged,
    iterations, lower), ``lower`` the certified lower bound at the returned
    iterate (None once the residual is an exact fit); see :func:`_descend`.
    The magnitudes |r| of a step's accepted trial point serve the next
    iteration; the Hessian is formed only once the gradient and budget
    tests let a step be taken.
    """
    mags = np.abs(r)
    value = _norm(p, mags)
    iterations, converged = 0, False
    while value > RESIDUAL_FLOOR:
        moved = None
        unit, weights, curv = _weights(p, r, mags, value)
        if kernel.model(unit, weights, curv) <= cfg.grad_tol:
            converged = True
            break
        if iterations == cfg.max_iters:
            break
        dy, dr, slope = kernel.newton(p, value)
        if p < 2.0:
            beta, moved = kernel.irls()
            irls_slope = value * kernel.slope(beta)
        if -slope <= _CERTIFY_BELOW * value:
            if moved is None:
                _, moved = kernel.irls()
            cert = np.conj(unit) * weights - curv * np.conj(moved)
            lower = _lower_bound(q, cert, kernel.span, r)
            if value - lower <= _GAP_RESOLUTION * value:
                # The value is flat to second order at the minimizer, so it
                # reaches float resolution while the minimizer is accurate to
                # about sqrt(eps) only. One full Newton step sharpens the
                # minimizer; it is kept if the value stays within resolution
                # of the bound.
                value_trial = _norm(p, np.abs(r + dr), value)
                if value_trial - lower <= _GAP_RESOLUTION * value_trial:
                    y, value = y + dy, value_trial
                    iterations += 1
                return y, value, True, iterations, lower
        # The lower full step that passes the Armijo test wins (Newton on a
        # tie); when none passes, the IRLS direction backtracks if it was
        # offered and the Newton direction otherwise.
        r_trial = r + dr
        mags_trial = np.abs(r_trial)
        value_trial = _norm(p, mags_trial, value)
        if not value_trial <= value + cfg.armijo_c * slope:
            value_trial = math.inf  # no step yet
        if p < 2.0 and irls_slope < 0.0:
            dr_irls = -value * moved
            r_irls = r + dr_irls
            mags_irls = np.abs(r_irls)
            value_irls = _norm(p, mags_irls, value)
            if value_irls <= value + cfg.armijo_c * irls_slope and value_irls < value_trial:
                dy, r_trial, value_trial, mags_trial = value * beta, r_irls, value_irls, mags_irls
            elif value_trial == math.inf:
                dy, dr, slope = value * beta, dr_irls, irls_slope
        if value_trial == math.inf:  # the first t = b, b^2, ... >= _MIN_STEP that passes
            t = cfg.backtrack_factor
            while t >= _MIN_STEP:
                r_trial = r + t * dr
                mags_trial = np.abs(r_trial)
                value_trial = _norm(p, mags_trial, value)
                if value_trial <= value + cfg.armijo_c * t * slope:
                    break
                t *= cfg.backtrack_factor
            else:  # step size hit the numerical floor; no further progress possible
                break
            dy = t * dy
        r, value, mags = r_trial, value_trial, mags_trial
        y = y + dy
        iterations += 1
    if value <= RESIDUAL_FLOOR:
        return y, value, converged, iterations, None
    if moved is None:
        _, moved = kernel.irls()
    lower = _lower_bound(q, np.conj(unit) * weights - curv * np.conj(moved), kernel.span, r)
    return y, value, converged, iterations, lower


# A singular triangular, Newton or Gram system gives NaN, and so does a
# column scale of 0 or inf divided by itself; a column above about 1e154
# overflows its sum of squares.
@np.errstate(invalid="ignore", over="ignore")
def _descend(
    space: LpSpace, base: np.ndarray, directions: np.ndarray, cfg: SolverConfig
) -> SolveResult:
    """Minimize ||base - directions @ x|| by damped Newton with a gap stop.

    Columns of ``directions`` are rescaled to unit Euclidean norm first (the
    reported minimizer is in original units). A zero column adds no
    direction and is left out before the QR the certificate needs; a column
    within RANK_TOL of the span of the ones before it (or past the
    dimension) is left out after it. Either gets coefficient exactly 0, and
    the rest is solved. The QR gives the least-squares point for one
    triangular solve. At p = 2 that point is the minimizer and no step is
    taken; otherwise Newton starts there (at 0 if the triangular system is
    exactly singular). One column at p != 2 takes no QR: it starts at
    vdot(col, base) / vdot(col, col), and :class:`_Column` solves its
    Newton and IRLS systems in closed form. Newton works on ||r||^2 / 2, which has the
    minimizers of ||r|| and is exactly quadratic in a residual
    dominated by one entry, in the real parametrization (Re y, Im y). With
    rho = r / ||r|| and w_i = |rho_i|^(p-2), the gradient of ||r|| is
    sum_i |rho_i|^(p-1) J_i^T rho_hat_i and the Hessian of ||r||^2 / 2 is

        sum_i w_i J_i^T (I + (p-2) rho_hat_i rho_hat_i^T) J_i - (p-2) g g^T.

    The radial terms are formed only at an iterate that takes a step. Each
    step is the full Newton step when it passes the Armijo test on ||r||.
    For p < 2 the full IRLS step (the Hessian without the radial terms,
    which majorizes it) is offered too and the lower of the two is kept:
    at an entry the minimizer drives to zero, the quadratic model of
    |r_i|^p overshoots by 1/(p-1) or, through the g g^T term, shrinks the
    entry ever more slowly, while IRLS lands on zero. When no full step
    passes, the step backtracks along the IRLS direction for p < 2 and the
    Newton direction otherwise, falling back to steepest descent when it
    does not descend. Norms of its own points (the start, each trial, the
    certificate's q-norm) are :func:`_norm`'s: a trial within a factor 16
    of the current value is scaled by it, others by their largest entry.

    The duality certificate of :func:`_lower_bound` (Boyd & Vandenberghe,
    Convex Optimization, ch. 5) projects the norming functional of r, less
    its correction w * conj(cols @ beta) in the metric of the Newton
    weights (beta the IRLS direction, so the bound tightens as fast as
    Newton converges; at p = 2 the correction lies in the projected-out
    span and is left out). It is built at the last iterate and, before
    that, once the Newton step predicts a relative decrease below
    ``_CERTIFY_BELOW``; earlier its gap could not reach float resolution.
    ``gap`` is the value minus that bound. The solve stops when the
    gradient norm reaches grad_tol or the gap reaches float resolution;
    in the latter case one more full Newton step is kept if the value
    stays within resolution of the bound.
    """
    p = space.p
    q = space.p_conjugate
    scales = np.sqrt(np.add.reduce(np.abs(directions) ** 2, axis=0))
    # The sum of squares is 0 for a zero column, or every entry below about
    # 1e-162, and inf for an entry above about 1e154; there the scale is
    # taken from the column's largest entry, and a zero column keeps scale 0.
    free = scales.tolist()
    if 0.0 < min(free) and max(free) < math.inf:
        cols = directions / scales
    else:
        for j in np.flatnonzero(~((scales > 0.0) & (scales < math.inf))):
            scales[j] = _norm_mags(2.0, np.abs(directions[:, j]))
        free = scales > 0.0
        # np.compress keeps the columns C-contiguous, as _newton_model needs.
        cols = np.compress(free, directions, axis=1) / scales[free]
    if p != 2.0 and directions.shape[1] == 1 == cols.shape[1]:
        # One column: Newton on one complex scalar from the least-squares
        # lam = vdot(col, base) / vdot(col, col), with no QR.
        kernel = _Column(cols[:, 0])
        y = complex(kernel.conj @ base) / kernel.norm2
        r = base - kernel.col * y
    else:
        # c @ cols == 0 exactly when c is orthogonal to span(conj(cols)).
        span, tri = _qr(np.conj(cols))
        pivots = tri.diagonal().tolist()
        if len(pivots) < cols.shape[1] or min(map(abs, pivots), default=math.inf) <= RANK_TOL:
            # Columns past the dimension are left out too; free becomes a mask if it was the scales.
            kept = np.pad(np.abs(tri.diagonal()) > RANK_TOL, (0, cols.shape[1] - len(pivots)))
            free = np.array(free) > 0.0
            free[free] = kept
            cols = np.compress(kept, cols, axis=1)
            span, tri = _qr(np.conj(cols))
        # Least squares through the QR above: cols = conj(span) @ conj(tri),
        # with tri square and upper triangular once its lower part is zeroed.
        for j in range(1, tri.shape[0]):
            tri[j, :j] = 0.0
        y = _solve(np.conj(tri), base @ span)
        if y is None:
            if p == 2.0:
                raise np.linalg.LinAlgError("Singular matrix")
            y = np.zeros(cols.shape[1], dtype=np.complex128)
        kernel = _Columns(cols, span) if p != 2.0 else None
        r = base - cols @ y
    if p == 2.0:
        value = _norm_mags(p, np.abs(r))
        converged, iterations, lower = False, 0, None
        if value > RESIDUAL_FLOOR:
            lower = _lower_bound(q, _norming_coeffs(p, r, value), (span, np.conj(span)), r)
    else:
        y, value, converged, iterations, lower = _newton(p, q, r, kernel, y, cfg)
    if value <= RESIDUAL_FLOOR:
        converged, value, gap = True, 0.0, 0.0
    else:
        gap = value - lower
        converged = converged or gap <= _GAP_RESOLUTION * value
    if cols.shape[1] == scales.size:  # no column left out
        return SolveResult(y / scales, value, converged, iterations, gap)
    x = np.zeros(directions.shape[1], dtype=np.complex128)
    x[free] = y / scales[free]
    return SolveResult(x, value, converged, iterations, gap)


def _free_relax(space, f, G_prev, phi, cfg) -> SolveResult:
    """:func:`minimize_free_relax` as (f - G) - (w, lam) @ (-G, phi), on checked vectors."""
    cols = np.empty((G_prev.shape[0], 2), dtype=np.complex128)
    np.negative(G_prev, out=cols[:, 0])
    cols[:, 1] = phi
    return _descend(space, f - G_prev, cols, cfg)


def minimize_over_line(
    space: LpSpace,
    base,
    direction,
    cfg: SolverConfig | None = None,
) -> SolveResult:
    """min over complex lam of ||base - lam * direction||.

    The minimizer array has length one. The solve starts at the
    least-squares lam (see :func:`_descend`).
    """
    base = _as_vector(space, base, "base")
    direction = _as_vector(space, direction, "direction")
    if not direction.any():
        raise ValueError("direction must be nonzero")
    return _descend(space, base, direction[:, None], cfg or _DEFAULTS)


def minimize_free_relax(
    space: LpSpace,
    f,
    G_prev,
    phi,
    cfg: SolverConfig | None = None,
) -> SolveResult:
    """min over complex (w, lam) of ||f - ((1-w) G_prev + lam phi)||.

    The minimizer array is (w, lam). When G_prev = 0 the objective does not
    depend on w, so w is exactly 0 and only lam is optimized; when G_prev
    is parallel to phi, lam is exactly 0.
    """
    f = _as_vector(space, f, "f")
    G_prev = _as_vector(space, G_prev, "G_prev")
    phi = _as_vector(space, phi, "phi")
    if not phi.any():
        raise ValueError("phi must be nonzero")
    return _free_relax(space, f, G_prev, phi, cfg or _DEFAULTS)


def best_approx_subspace(
    space: LpSpace,
    f,
    basis,
) -> tuple[np.ndarray, np.ndarray]:
    """Best approximation of f from span(basis); returns (coeffs, residual).

    The basis (a sequence of vectors) must be numerically independent: its
    smallest singular value above RANK_TOL times its largest. The solve
    starts at the Euclidean least-squares point, which for p = 2 is already
    the answer.
    """
    f = _as_vector(space, f, "f")
    vectors = [_as_vector(space, b, "basis element") for b in basis]
    if not vectors:
        raise ValueError("basis must be nonempty")
    B = np.column_stack(vectors)
    sigma = np.linalg.svd(B, compute_uv=False)
    # More vectors than the dimension, or a zero basis, leave ratio 0.
    ratio = sigma[-1] / sigma[0] if sigma.size == B.shape[1] and sigma[0] > 0.0 else 0.0
    if ratio <= RANK_TOL:
        raise DependentBasisError(
            f"basis is numerically dependent (singular-value ratio {ratio:.2e} <= {RANK_TOL:g})"
        )
    coeffs = _descend(space, f, B, _DEFAULTS).minimizer
    return coeffs, f - B @ coeffs
