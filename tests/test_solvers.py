import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.optimize
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from lpgreedy import solvers
from lpgreedy import (
    DependentBasisError,
    LpSpace,
    SolverConfig,
    apply_functional,
    best_approx_subspace,
    lp_norm,
    minimize_free_relax,
    minimize_over_line,
    norming_functional,
)


def _unit_columns(directions):
    """(cols, span, scales): unit-scaled columns and the Q of their conjugate, as in _descend."""
    scales = np.sqrt((np.abs(directions) ** 2).sum(axis=0))
    cols = directions / scales
    return cols, np.linalg.qr(np.conj(cols))[0], scales


def grid_min_1d(fun, radius=3.0, levels=6, n=21):
    """Successive-refinement grid search over one complex variable."""
    center = 0.0 + 0.0j
    span = radius
    for _ in range(levels):
        offs = np.linspace(-span, span, n)
        grid = center + offs[:, None] + 1j * offs[None, :]
        vals = np.vectorize(fun)(grid)
        i, j = np.unravel_index(np.argmin(vals), vals.shape)
        center = grid[i, j]
        span *= 2.5 / n
    return center, fun(center)


def grid_min_2d(fun, radius=2.0, levels=4, n=9):
    """Successive-refinement grid search over two complex variables."""
    centers = np.zeros(2, dtype=complex)
    span = radius
    for _ in range(levels):
        offs = np.linspace(-span, span, n)
        axes = [centers[k] + offs[:, None] + 1j * offs[None, :] for k in range(2)]
        best = (np.inf, None)
        flat0 = axes[0].ravel()
        flat1 = axes[1].ravel()
        for a in flat0:
            vals = np.array([fun(a, b) for b in flat1])
            j = int(np.argmin(vals))
            if vals[j] < best[0]:
                best = (vals[j], (a, flat1[j]))
        centers = np.array(best[1])
        span *= 2.5 / n
    return centers, best[0]


class TestMinimizeOverLine:
    def test_exact_cancellation(self):
        space = LpSpace(2.0, 2)
        res = minimize_over_line(space, [2, 0], [1, 0])
        assert res.value == 0.0
        assert res.converged
        assert res.minimizer[0] == pytest.approx(2.0 + 0j, abs=1e-6)

    def test_hilbert_projection(self):
        space = LpSpace(2.0, 2)
        res = minimize_over_line(space, [1, 1], [1, 0])
        assert res.value == pytest.approx(1.0, abs=1e-10)
        assert res.minimizer[0] == pytest.approx(1.0 + 0j, abs=1e-8)

    def test_p4_symmetric_minimizer_vs_grid(self):
        space = LpSpace(4.0, 2)
        base = np.array([1.0, 1.0], dtype=complex)
        direction = np.array([1.0, 0.0], dtype=complex)

        def objective(lam):
            return lp_norm(space, base - lam * direction)

        lam_grid, val_grid = grid_min_1d(objective)
        res = minimize_over_line(space, base, direction)
        assert val_grid == pytest.approx(1.0, abs=1e-8)
        assert res.value == pytest.approx(1.0, abs=1e-8)
        # quartic flatness limits minimizer resolution, not the value
        assert res.minimizer[0] == pytest.approx(1.0 + 0j, abs=1e-2)
        assert lam_grid == pytest.approx(1.0 + 0j, abs=1e-2)

    @pytest.mark.parametrize("p", [1.5, 3.0])
    def test_random_instances_vs_grid(self, p):
        space = LpSpace(p, 4)
        rng = np.random.default_rng(23)
        for _ in range(5):
            base = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            direction = rng.standard_normal(4) + 1j * rng.standard_normal(4)

            def objective(lam):
                return lp_norm(space, base - lam * direction)

            _, val_grid = grid_min_1d(objective, radius=4.0)
            res = minimize_over_line(space, base, direction)
            assert res.converged
            assert res.value <= val_grid + 1e-7

    def test_hilbert_closed_form(self):
        space = LpSpace(2.0, 5)
        rng = np.random.default_rng(29)
        for _ in range(20):
            base = rng.standard_normal(5) + 1j * rng.standard_normal(5)
            d = rng.standard_normal(5) + 1j * rng.standard_normal(5)
            lam_star = np.vdot(d, base) / np.vdot(d, d)
            res = minimize_over_line(space, base, d)
            assert res.minimizer[0] == pytest.approx(lam_star, abs=1e-8)
            assert res.value == pytest.approx(
                lp_norm(space, base - lam_star * d), abs=1e-8
            )

    def test_zero_direction_rejected(self):
        with pytest.raises(ValueError, match="nonzero"):
            minimize_over_line(LpSpace(2.0, 2), [1, 1], [0, 0])

    def test_non_convergence_flag(self):
        # [1, 0] instead of [1, 0.5] would make the least-squares start optimal
        cfg = SolverConfig(max_iters=1)
        base, direction = np.array([1.0, 1.0]), np.array([1.0, 0.5])
        res = minimize_over_line(LpSpace(3.0, 2), base, direction, cfg)
        assert not res.converged
        assert res.iterations == 1
        start = np.vdot(direction, base) / np.vdot(direction, direction)
        assert res.value < lp_norm(LpSpace(3.0, 2), base - start * direction)


class TestMinimizeFreeRelax:
    def test_degenerate_first_step(self):
        space = LpSpace(2.0, 2)
        res = minimize_free_relax(space, [1, 1], [0, 0], [1, 0])
        w, lam = res.minimizer
        assert w == 0.0 + 0.0j
        assert lam == pytest.approx(1.0 + 0j, abs=1e-8)
        assert res.value == pytest.approx(1.0, abs=1e-10)

    def test_exact_representation(self):
        space = LpSpace(2.0, 2)
        res = minimize_free_relax(space, [1, 1], [1, 0], [0, 1])
        w, lam = res.minimizer
        assert res.value <= 1e-10
        assert w == pytest.approx(0.0 + 0j, abs=1e-6)
        assert lam == pytest.approx(1.0 + 0j, abs=1e-6)

    def test_exact_representation_vs_grid(self):
        space = LpSpace(2.0, 2)
        f = np.array([1.0, 1.0], dtype=complex)
        G = np.array([1.0, 0.0], dtype=complex)
        phi = np.array([0.0, 1.0], dtype=complex)

        def objective(w, lam):
            return lp_norm(space, f - (1.0 - w) * G - lam * phi)

        centers, val = grid_min_2d(objective)
        assert val <= 1e-2  # coarse grid confirms the zero-residual basin
        assert centers[0] == pytest.approx(0.0 + 0j, abs=0.05)
        assert centers[1] == pytest.approx(1.0 + 0j, abs=0.05)

    def test_f_equals_G(self):
        space = LpSpace(3.0, 3)
        rng = np.random.default_rng(31)
        G = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        res = minimize_free_relax(space, G, G, [1, 0, 0])
        assert res.value <= 1e-10
        w, lam = res.minimizer
        assert abs(w) <= 1e-5
        assert abs(lam) <= 1e-5

    def test_restarts_agree(self):
        # convex objective: any start lands at the same value
        space = LpSpace(1.5, 4)
        rng = np.random.default_rng(37)
        f = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        G = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        phi = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        cols, span, scales = _unit_columns(np.column_stack([-G, phi]))
        values = []
        for _ in range(8):
            start = (rng.standard_normal(2) + 1j * rng.standard_normal(2)) * scales
            r = f - G - cols @ start
            _, value, _, _, _ = solvers._newton(
                1.5, 3.0, r, solvers._Columns(cols, span), start, SolverConfig()
            )
            values.append(value)
        assert max(values) - min(values) <= 1e-8

    def test_hilbert_closed_form(self):
        space = LpSpace(2.0, 6)
        rng = np.random.default_rng(41)
        for _ in range(10):
            f = rng.standard_normal(6) + 1j * rng.standard_normal(6)
            G = rng.standard_normal(6) + 1j * rng.standard_normal(6)
            phi = rng.standard_normal(6) + 1j * rng.standard_normal(6)
            B = np.column_stack([G, phi])
            u = np.linalg.lstsq(B, f, rcond=None)[0]  # f ~ u0*G + u1*phi
            expected = lp_norm(space, f - B @ u)
            res = minimize_free_relax(space, f, G, phi)
            assert res.value == pytest.approx(expected, abs=1e-8)
            w, lam = res.minimizer
            assert 1.0 - w == pytest.approx(u[0], abs=1e-6)
            assert lam == pytest.approx(u[1], abs=1e-6)


class TestExtremeColumnScale:
    """A column whose sum of squares under- or overflows is scaled by its largest entry."""

    @staticmethod
    def _check(solve, p, s):
        rng = np.random.default_rng([89, int(10 * p)])
        for _ in range(5):
            f, phi = _rand(rng, 4), _rand(rng, 4)
            want = solve(LpSpace(p, 4), f, phi)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = solve(LpSpace(p, 4), f, s * phi)
            np.testing.assert_allclose(s * got.minimizer, want.minimizer, rtol=1e-12, atol=0.0)
            assert got.converged is want.converged

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    @pytest.mark.parametrize("s", [1e-170, 1e170])
    def test_line(self, p, s):
        self._check(minimize_over_line, p, s)

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    @pytest.mark.parametrize("s", [1e-170, 1e170])
    def test_free_relax_from_zero(self, p, s):
        self._check(lambda space, f, phi: minimize_free_relax(space, f, np.zeros(4), phi), p, s)


class TestDirectionsLayout:
    """The solve does not depend on the memory layout of ``directions``, to the bit."""

    @pytest.mark.parametrize("p", [1.5, 3.0])
    @pytest.mark.parametrize("zero", [None, 1], ids=["no_zero", "zero_column"])
    def test_every_layout_gives_the_same_bits(self, p, zero):
        rng = np.random.default_rng([90, int(10 * p)])
        space = LpSpace(p, 8)
        for _ in range(4):
            base, directions = _rand(rng, 8), _rand(rng, 8, 3)
            if zero is not None:
                directions[:, zero] = 0.0
            wide = np.zeros((8, 6), complex)
            wide[:, ::2] = directions
            layouts = {
                "C": directions,
                "F": np.asfortranarray(directions),
                "transposed": np.ascontiguousarray(directions.T).T,
                "strided": wide[:, ::2],
            }
            results = {}
            for name, stack in layouts.items():
                np.testing.assert_array_equal(stack, directions)
                res = solvers._descend(space, base, stack, SolverConfig())
                results[name] = (res.minimizer.tobytes(), res.value, res.converged,
                                 res.iterations, res.gap)
            assert not layouts["F"].flags.c_contiguous
            assert all(got == results["C"] for got in results.values()), results


class TestBestApproxSubspace:
    def test_orthogonal_projection(self):
        space = LpSpace(2.0, 3)
        coeffs, residual = best_approx_subspace(space, [1, 1, 1], [[1, 0, 0], [0, 1, 0]])
        np.testing.assert_allclose(coeffs, [1.0, 1.0], atol=1e-8)
        np.testing.assert_allclose(residual, [0.0, 0.0, 1.0], atol=1e-8)

    def test_matches_normal_equations(self):
        space = LpSpace(2.0, 6)
        rng = np.random.default_rng(43)
        f = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        basis = [rng.standard_normal(6) + 1j * rng.standard_normal(6) for _ in range(3)]
        B = np.column_stack(basis)
        expected = np.linalg.lstsq(B, f, rcond=None)[0]
        coeffs, _ = best_approx_subspace(space, f, basis)
        np.testing.assert_allclose(coeffs, expected, atol=1e-8)

    def test_f_in_span(self):
        space = LpSpace(3.0, 4)
        rng = np.random.default_rng(47)
        basis = [rng.standard_normal(4) + 1j * rng.standard_normal(4) for _ in range(2)]
        f = 0.7 * basis[0] - 1.2j * basis[1]
        _, residual = best_approx_subspace(space, f, basis)
        assert lp_norm(space, residual) <= 1e-8

    def test_dependent_basis_rejected(self):
        space = LpSpace(2.0, 3)
        b = np.array([1.0, 2.0, 0.0], dtype=complex)
        with pytest.raises(DependentBasisError):
            best_approx_subspace(space, [1, 1, 1], [b, 2.0 * b])

    @pytest.mark.parametrize(
        "basis",
        [[[0, 0, 0]], [[0, 0, 0], [0, 0, 0]], [[1, 0, 0], [0, 1, 0], [1, 1, 0], [0, 0, 1]]],
        ids=["zero", "zeros", "more_than_dim"],
    )
    def test_degenerate_basis_refused_with_finite_ratio(self, basis):
        # an all-zero basis once reported "pivot ratio nan" after a
        # RuntimeWarning, which under -W error replaced the refusal
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DependentBasisError, match=r"ratio 0\.00e\+00 <= 1e-10"):
                best_approx_subspace(LpSpace(1.5, 3), [1, 1, 1], basis)

    def test_empty_basis_rejected(self):
        with pytest.raises(ValueError, match="nonempty"):
            best_approx_subspace(LpSpace(2.0, 3), [1, 1, 1], [])

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0, 4.0])
    def test_certificate_and_local_optimality(self, p):
        space = LpSpace(p, 5)
        rng = np.random.default_rng(53)
        f = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        basis = [rng.standard_normal(5) + 1j * rng.standard_normal(5) for _ in range(2)]
        coeffs, residual = best_approx_subspace(space, f, basis)
        F = norming_functional(space, residual)
        for b in basis:
            assert abs(apply_functional(F, b)) <= 1e-7
        # perturbing any coefficient strictly increases the objective
        value = lp_norm(space, residual)
        B = np.column_stack(basis)
        for k in range(2):
            for delta in (1e-3, -1e-3, 1e-3j, -1e-3j):
                perturbed = coeffs.copy()
                perturbed[k] += delta
                assert lp_norm(space, f - B @ perturbed) > value


class TestGradientIdentity:
    """Analytic directional derivative of the norm vs central differences."""

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0, 4.0])
    def test_matches_finite_difference(self, p):
        space = LpSpace(p, 6)
        rng = np.random.default_rng(59)
        h = 1e-6
        for _ in range(25):
            x = rng.standard_normal(6) + 1j * rng.standard_normal(6)
            y = rng.standard_normal(6) + 1j * rng.standard_normal(6)
            F = norming_functional(space, x)
            analytic = apply_functional(F, y).real
            numeric = (lp_norm(space, x + h * y) - lp_norm(space, x - h * y)) / (2 * h)
            assert analytic == pytest.approx(numeric, abs=1e-5)


class TestSolverConfig:
    def test_field_ranges(self):
        with pytest.raises(ValueError, match="grad_tol"):
            SolverConfig(grad_tol=0.0)
        with pytest.raises(ValueError, match="max_iters"):
            SolverConfig(max_iters=0)
        with pytest.raises(ValueError, match="armijo_c"):
            SolverConfig(armijo_c=1.0)
        with pytest.raises(ValueError, match="backtrack_factor"):
            SolverConfig(backtrack_factor=0.0)
        # grad_tol = inf would stop every solve at its first iterate
        with pytest.raises(ValueError, match="solver.grad_tol must be finite"):
            SolverConfig(grad_tol=float("inf"))
        for value in (float("inf"), float("nan"), 7.5):
            with pytest.raises(ValueError, match="solver.max_iters must be an integer"):
                SolverConfig(max_iters=value)
        assert SolverConfig(max_iters=7.0).max_iters == 7.0


def _rand(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _certified_solves(p, dim=8, instances=6, seed=61):
    """SolveResults of all three entry points on seeded random instances.

    best_approx_subspace returns (coeffs, residual), so its SolveResult is
    recomputed through the descent it wraps and checked to coincide.
    """
    space = LpSpace(p, dim)
    rng = np.random.default_rng([seed, int(100 * p)])
    results = []
    for _ in range(instances):
        base, direction = _rand(rng, dim), _rand(rng, dim)
        results.append(minimize_over_line(space, base, direction))
        f, G, phi = _rand(rng, dim), _rand(rng, dim), _rand(rng, dim)
        results.append(minimize_free_relax(space, f, G, phi))
        basis = list(_rand(rng, 3, dim))
        res = solvers._descend(space, f, np.column_stack(basis), SolverConfig())
        coeffs, _ = best_approx_subspace(space, f, basis)
        np.testing.assert_array_equal(coeffs, res.minimizer)
        results.append(res)
    return results


class TestDualityGap:
    @pytest.mark.parametrize("p", [1.05, 1.2, 1.5, 3.0, 8.0, 32.0, 64.0])
    def test_gap_is_certified(self, p):
        for res in _certified_solves(p):
            assert res.gap >= -1e-15 * res.value
            if res.converged:
                assert res.gap <= 1e-12 * res.value

    @pytest.mark.parametrize("p", [1.5, 3.0])
    def test_gap_bounds_distance_to_optimum(self, p):
        # a truncated solve's value exceeds the converged one by at most its gap
        space = LpSpace(p, 8)
        rng = np.random.default_rng(67)
        for _ in range(5):
            f, G, phi = _rand(rng, 8), _rand(rng, 8), _rand(rng, 8)
            best = minimize_free_relax(space, f, G, phi)
            early = minimize_free_relax(space, f, G, phi, SolverConfig(max_iters=1))
            assert best.converged
            assert early.value - best.value <= early.gap * (1 + 1e-12) + 1e-15

    def test_p2_converged_follows_the_certificate(self):
        # Directions nearly dependent but above RANK_TOL: the least-squares
        # coefficients are about 1e9 and the value about 1e-6 is round-off,
        # so the gap is far above resolution and the solve is not converged.
        space = LpSpace(2.0, 2)
        rng = np.random.default_rng(0)
        f, phi, g = _rand(rng, 2), _rand(rng, 2), _rand(rng, 2)
        res = minimize_free_relax(space, f, (0.3 - 2j) * phi + 1e-9 * g, phi)
        assert res.gap > solvers._GAP_RESOLUTION * res.value > 0.0
        assert res.converged is False
        # A well-conditioned p = 2 solve is still converged, and so is an exact fit.
        well = minimize_free_relax(space, f, g, phi)
        assert well.converged is True and well.gap <= solvers._GAP_RESOLUTION * well.value
        exact = minimize_over_line(space, [2.0, 1j], [2.0, 1j])
        assert exact.converged is True and exact.value == 0.0

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    def test_dependent_directions(self, p):
        # G_prev parallel to phi: the pair spans one direction, and the
        # certificate must see one constraint, not an arbitrary second one;
        # phi, dependent on G_prev, is left out with coefficient exactly 0
        space = LpSpace(p, 6)
        rng = np.random.default_rng(79)
        for _ in range(5):
            f, phi = _rand(rng, 6), _rand(rng, 6)
            res = minimize_free_relax(space, f, (0.5 - 1j) * phi, phi)
            line = minimize_over_line(space, f, phi)
            assert res.minimizer[1] == 0.0
            assert res.converged
            assert -1e-15 * res.value <= res.gap <= 1e-12 * res.value
            assert res.value == pytest.approx(line.value, rel=1e-12)

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0, 8.0])
    @pytest.mark.parametrize("dim", [1, 2, 16])
    def test_zero_G_prev_is_the_line_solve(self, p, dim):
        # The zero -G_prev column is left out before the QR: w is exactly 0
        # and lam is the line solve's.
        space = LpSpace(p, dim)
        rng = np.random.default_rng([83, dim, int(10 * p)])
        for _ in range(10):
            f, phi = _rand(rng, dim), _rand(rng, dim)
            res = minimize_free_relax(space, f, np.zeros(dim), phi)
            line = minimize_over_line(space, f, phi)
            w, lam = res.minimizer
            assert w == 0.0
            assert abs(lam - line.minimizer[0]) <= 1e-13 * abs(line.minimizer[0])
            assert res.converged is line.converged

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    def test_more_directions_than_dimension(self, p):
        # dim 1: G_prev and phi are always parallel, so phi gets coefficient
        # exactly 0 and G_prev alone fits f
        space = LpSpace(p, 1)
        res = minimize_free_relax(space, [1.0], [2.0], [3.0 - 1.0j])
        w, lam = res.minimizer
        assert lam == 0.0
        assert res.converged and res.value == 0.0 and res.gap == 0.0
        assert abs(1.0 - (1.0 - w) * 2.0 - lam * (3.0 - 1.0j)) <= 1e-13

    @pytest.mark.parametrize("p", [1.2, 1.5, 3.0, 8.0])
    def test_minimizer_is_first_order_optimal(self, p):
        # the value is flat at the minimizer, so a certified value alone
        # leaves the minimizer accurate to about sqrt(eps); the returned one
        # meets the gradient tolerance (per unit-norm direction)
        space = LpSpace(p, 8)
        rng = np.random.default_rng(83)
        tol = SolverConfig().grad_tol
        for _ in range(10):
            f, G, phi = _rand(rng, 8), _rand(rng, 8), _rand(rng, 8)
            w, lam = minimize_free_relax(space, f, G, phi).minimizer
            F = norming_functional(space, f - (1.0 - w) * G - lam * phi)
            assert abs(apply_functional(F, G)) <= tol * np.linalg.norm(G)
            assert abs(apply_functional(F, phi)) <= tol * np.linalg.norm(phi)

    def test_hilbert_path_is_least_squares(self):
        space = LpSpace(2.0, 7)
        rng = np.random.default_rng(71)
        for _ in range(10):
            base, direction = _rand(rng, 7), _rand(rng, 7)
            res = minimize_over_line(space, base, direction)
            expected = np.linalg.lstsq(direction[:, None], base, rcond=None)[0]
            np.testing.assert_allclose(res.minimizer, expected, rtol=0, atol=1e-12)
            assert res.converged and res.iterations == 0
            assert abs(res.gap) <= 1e-15 * res.value

            f, G, phi = _rand(rng, 7), _rand(rng, 7), _rand(rng, 7)
            res = minimize_free_relax(space, f, G, phi)
            u = np.linalg.lstsq(np.column_stack([G, phi]), f, rcond=None)[0]
            np.testing.assert_allclose(res.minimizer, [1.0 - u[0], u[1]], rtol=0, atol=1e-12)
            assert res.converged and res.iterations == 0
            assert abs(res.gap) <= 1e-15 * res.value

    @pytest.mark.parametrize("p,budget", [(1.5, 10), (3.0, 10), (64.0, 20)])
    def test_newton_iteration_budget(self, p, budget):
        # second-order convergence: a first-order method needs tens of steps
        # here; at p = 64 Newton on (1/p) sum |r_i|^p needs about 37
        space = LpSpace(p, 16)
        rng = np.random.default_rng(73)
        iterations = []
        for _ in range(20):
            res = minimize_free_relax(space, _rand(rng, 16), _rand(rng, 16), _rand(rng, 16))
            assert res.converged
            iterations.append(res.iterations)
        assert np.mean(iterations) <= budget

    @pytest.mark.parametrize("p", [1.05, 1.2, 1.5, 1.8])
    def test_residual_entry_driven_to_zero(self, p):
        # direction e_j: the minimizer zeroes entry j, where |r_j|^p has its
        # kink; Newton alone shrinks that entry only linearly or stalls
        space = LpSpace(p, 4)
        rng = np.random.default_rng(97)
        for j in range(4):
            base = _rand(rng, 4)
            res = minimize_over_line(space, base, np.eye(4)[j])
            assert res.converged and res.iterations <= 10
            assert res.value == pytest.approx(lp_norm(LpSpace(p, 3), np.delete(base, j)), rel=1e-14)

    def test_converges_near_p_one(self):
        # at p = 1.01 the Newton model overshoots residual entries headed for
        # zero by a factor 1/(p-1); the IRLS fallback keeps it within budget
        space = LpSpace(1.01, 16)
        rng = np.random.default_rng(89)
        for _ in range(20):
            res = minimize_free_relax(space, _rand(rng, 16), _rand(rng, 16), _rand(rng, 16))
            assert res.converged
            assert res.gap <= 1e-12 * res.value


def _central_differences(norm_at, x, h):
    """Central differences of ``norm_at`` at ``x``: gradient (step 1e-2 h) and Hessian (step h)."""
    steps = h * np.eye(x.size)
    grad = [(norm_at(x + e) - norm_at(x - e)) / (2e-2 * h) for e in 1e-2 * steps]
    hess = [
        [
            (norm_at(x + a + b) - norm_at(x + a - b) - norm_at(x - a + b) + norm_at(x - a - b))
            / (4 * h * h)
            for b in steps
        ]
        for a in steps
    ]
    return np.array(grad), np.array(hess)


def _newton_systems(monkeypatch, kernel, p, value, parts):
    """The real systems that ``kernel.newton`` hands to ``solvers._solve``."""
    systems, solve = [], solvers._solve

    def spy(a, b):
        systems.append(a)
        return solve(a, b)

    with monkeypatch.context() as m:
        m.setattr(solvers, "_solve", spy)
        kernel.newton(p, value, parts)
    return systems


def _line_hessian(p, parts):
    """The one-column model's Hessian of ||r||^2 / 2, P dl + Q conj(dl), as a real 2x2 matrix."""
    curv, grad, a, uc = parts
    P = p / 2 * a - (p - 2) / 2 * abs(grad) ** 2
    Q = (p - 2) / 2 * (complex(np.sum(curv * uc * uc)) - grad**2)
    return np.array([[P + Q.real, Q.imag], [Q.imag, P - Q.real]])


class TestNewtonModel:
    """The Newton iteration's gradient and Hessian against central differences of ||r||."""

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("p", [1.2, 1.5, 3.0, 8.0, 64.0])
    def test_matches_finite_differences(self, monkeypatch, p, k):
        dim = 7
        space = LpSpace(p, dim)
        rng = np.random.default_rng([k, int(10 * p)])
        h = 1e-4 * min(1.0, 8.0 / p)  # the higher derivatives grow with p
        for _ in range(4):
            base, cols = _rand(rng, dim), _rand(rng, dim, k)
            x = 0.3 * rng.standard_normal(2 * k)  # y.view(float) of the point

            def norm_at(z):
                return lp_norm(space, base - cols @ z.view(np.complex128))

            r = base - cols @ x.view(np.complex128)
            value = norm_at(x)
            model = solvers._Columns(cols, np.linalg.qr(np.conj(cols))[0])
            unit, weights, curv = solvers._weights(p, r, np.abs(r), value)
            grad_norm, parts = model.model(unit, weights, curv)
            _, grad, hw, _ = parts
            assert grad_norm == math.sqrt(grad @ grad)
            # the first system newton solves is the Hessian's
            hess = _newton_systems(monkeypatch, model, p, value, parts)[0]
            fd_grad, fd_hess = _central_differences(norm_at, x, h)
            scale = np.abs(hess).max()
            np.testing.assert_allclose(grad, fd_grad, rtol=1e-8, atol=1e-9)
            # hess is the Hessian of ||r||^2 / 2: g g^T + ||r|| times that of ||r||
            np.testing.assert_allclose(
                hess, np.outer(grad, grad) + value * fd_hess, rtol=0, atol=1e-5 * scale
            )
            # the parts the certificate and IRLS reuse
            np.testing.assert_allclose(
                np.conj(unit) * weights, norming_functional(space, r).coeffs, rtol=1e-14, atol=0
            )
            w = np.maximum(np.abs(r) / value, solvers._RHO_FLOOR) ** (p - 2.0)
            gram = (np.conj(cols).T * w) @ cols
            np.testing.assert_allclose(curv, w, rtol=1e-14)
            np.testing.assert_allclose(hw[0::2, 0::2], gram.real, rtol=1e-13, atol=1e-15 * scale)
            np.testing.assert_allclose(hw[1::2, 0::2], gram.imag, rtol=1e-13, atol=1e-15 * scale)

    @pytest.mark.parametrize("p", [1.2, 1.5, 3.0, 8.0, 64.0])
    def test_one_column_model_matches_finite_differences(self, p):
        # the complex gradient gamma is the real form's (Re, Im), and the
        # closed-form P dl + Q conj(dl) is the Hessian of ||r||^2 / 2, at the
        # points of the k = 1 case above
        dim = 7
        space = LpSpace(p, dim)
        rng = np.random.default_rng([1, int(10 * p)])
        h = 1e-4 * min(1.0, 8.0 / p)
        for _ in range(4):
            base, col = _rand(rng, dim), _rand(rng, dim)
            x = 0.3 * rng.standard_normal(2)  # (Re lam, Im lam)

            def norm_at(z):
                return lp_norm(space, base - col * complex(*z))

            r = base - col * complex(*x)
            value = norm_at(x)
            kernel = solvers._Column(col)
            unit, weights, curv = solvers._weights(p, r, np.abs(r), value)
            grad_norm, parts = kernel.model(unit, weights, curv)
            _, grad, a, _ = parts
            assert grad_norm == abs(grad)
            hess = _line_hessian(p, parts)
            fd_grad, fd_hess = _central_differences(norm_at, x, h)
            scale = np.abs(hess).max()
            real_grad = np.array([grad.real, grad.imag])
            np.testing.assert_allclose(real_grad, fd_grad, rtol=1e-8, atol=1e-9)
            np.testing.assert_allclose(
                hess, np.outer(real_grad, real_grad) + value * fd_hess, rtol=0, atol=1e-5 * scale
            )
            # the Newton step solves that system (the model is convex here, so it descends)
            step, dr, slope = kernel.newton(p, value, parts)
            np.testing.assert_allclose(
                hess @ [step.real, step.imag], -value * real_grad,
                rtol=0, atol=1e-13 * value * scale,
            )
            assert slope == (grad.conjugate() * step).real < 0.0
            np.testing.assert_array_equal(dr, col * -step)
            # a is the one-entry weighted Gram matrix
            w = np.maximum(np.abs(r) / value, solvers._RHO_FLOOR) ** (p - 2.0)
            assert a == pytest.approx(float(np.sum(w * np.abs(col) ** 2)), rel=1e-14)

    def test_exact_zero_and_subnormal_entries(self):
        # unit is 0 at an exact zero (no radial term there) and a true unit
        # vector at a subnormal entry, so the functional built from it is exact
        p, dim = 1.01, 4
        space = LpSpace(p, dim)
        r = np.array([1.0, 0.0, 3e-320 + 4e-320j, -2.0 + 1j])
        unit, weights, _ = solvers._weights(p, r, np.abs(r), lp_norm(space, r))
        assert unit[1] == 0.0
        assert abs(unit[2] - (0.6 + 0.8j)) <= 1e-15
        np.testing.assert_allclose(
            np.conj(unit) * weights, norming_functional(space, r).coeffs, rtol=1e-15, atol=0
        )

    @seed(20260)
    @settings(max_examples=30, deadline=None)
    @given(
        st.sampled_from([1.2, 1.5, 3.0, 8.0, 32.0]),
        st.integers(min_value=1, max_value=2),
        st.integers(min_value=1, max_value=8),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_against_scipy_minimize(self, p, k, dim, data_seed):
        # Nelder-Mead on the real parametrization, started at the solver's
        # minimizer (the problem is convex, so a lower point nearby would
        # show a lower infimum): the certified bound lies below what it finds
        # (up to 4 ulps of rounding in the bound), and it finds nothing lower.
        space = LpSpace(p, dim)
        rng = np.random.default_rng(data_seed)
        f, G, phi = _rand(rng, dim), _rand(rng, dim), _rand(rng, dim)
        if k == 1:
            res = minimize_over_line(space, f, phi)

            def objective(x):
                return lp_norm(space, f - x.view(np.complex128)[0] * phi)
        else:
            res = minimize_free_relax(space, f, G, phi)

            def objective(x):
                w, lam = x.view(np.complex128)
                return lp_norm(space, f - (1.0 - w) * G - lam * phi)

        reference = scipy.optimize.minimize(
            objective,
            np.ascontiguousarray(res.minimizer[-k:]).view(np.float64),
            method="Nelder-Mead",
            options={"xatol": 1e-14, "fatol": 1e-16, "maxiter": 4000, "maxfev": 8000},
        ).fun
        assert res.converged
        assert res.value - res.gap <= reference * (1.0 + solvers._GAP_RESOLUTION)
        assert res.value <= reference * (1.0 + 1e-12)


def _singular_solve1(dtype):
    """A ``solve1`` for which every system of ``dtype`` is exactly singular.

    Like numpy's gufunc on a singular system, it fills x with NaN and
    raises the invalid floating-point flag; systems of the other dtype are
    solved.
    """
    solve = solvers.solve1

    def solve1(a, b):
        return np.zeros_like(b) / 0.0 if a.dtype == dtype else solve(a, b)

    return solve1


class TestLapackPaths:
    @pytest.mark.parametrize("dtype", [float, complex])
    def test_solve_matches_numpy_and_reports_singular(self, dtype):
        # every order, up to the 8 x 8 Newton systems of best_approx_subspace
        rng = np.random.default_rng(5)
        for n in (1, 2, 4, 6, 8):
            a = rng.standard_normal((n, n)).astype(dtype)
            b = rng.standard_normal(n).astype(dtype)
            if dtype is complex:
                a += 1j * rng.standard_normal((n, n))
                b += 1j * rng.standard_normal(n)
            assert solvers._solve(a, b).tobytes() == np.linalg.solve(a, b).tobytes()
            with warnings.catch_warnings(), np.errstate(invalid="ignore"):
                warnings.simplefilter("error")  # under the Newton iteration's error state
                assert solvers._solve(np.zeros((n, n), dtype), b) is None

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("dim", [1, 2, 12, 16, 2048])
    def test_qr_matches_numpy(self, dim, k):
        # Q and the upper triangle of R bit-equal to numpy.linalg.qr,
        # also with fewer rows than columns.
        rng = np.random.default_rng([13, dim, k])
        for _ in range(3):
            a = _rand(rng, dim, k)
            want_q, want_r = np.linalg.qr(a)
            q, tri = solvers._qr(a.copy())
            assert q.tobytes() == want_q.tobytes()
            assert np.triu(tri).tobytes() == want_r.tobytes()

    def test_real_singular_newton_system_falls_back_quietly(self, monkeypatch):
        # At p = 3 the residual f - G = -e2 lives on one entry: the Newton
        # system is exactly singular and the step falls back to the
        # gradient, with no warning.
        f, G, phi = np.eye(3)[0], np.array([1.0, 1.0, 0.0]), np.eye(3)[1]
        singular = []
        solve = solvers._solve

        def spy(a, b):
            x = solve(a, b)
            singular.append(x is None)
            return x

        monkeypatch.setattr(solvers, "_solve", spy)
        cols, span, scales = _unit_columns(np.column_stack([-G, phi]))
        with warnings.catch_warnings(), np.errstate(invalid="ignore"):  # as in _descend
            warnings.simplefilter("error")
            y, value, _, _, lower = solvers._newton(
                3.0, 1.5, (f - G).astype(complex), solvers._Columns(cols, span),
                np.zeros(2, complex), SolverConfig(),
            )
        assert any(singular)
        assert value <= solvers.RESIDUAL_FLOOR and lower is None  # an exact fit
        np.testing.assert_allclose(y / scales, [0.0, -1.0], atol=1e-12)

    def test_import_leaves_scipy_linalg_unloaded(self, tmp_path):
        # scipy is a test dependency only: neither the import, nor a run,
        # nor the quick verify battery (which calls best_approx_subspace)
        # loads any scipy module
        src = Path(solvers.__file__).resolve().parents[1]
        config = tmp_path / "experiment.txt"
        config.write_text("space.p = 1.5\nspace.dim = 8\nalgorithm.id = wgafr\nalgorithm.iters = 5\n")
        report = "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        for call in (
            "",
            f"main(['run', '--config', {str(config)!r}, '--out', {str(tmp_path)!r}])",
            "main(['verify', '--profile', 'quick'])",
        ):
            code = f"import sys, lpgreedy\nfrom lpgreedy.cli import main\n{call}\n{report}"
            out = subprocess.run(
                [sys.executable, "-c", code], capture_output=True, text=True, check=True,
                env=dict(os.environ, PYTHONPATH=str(src)),
            ).stdout
            assert out.splitlines()[-1] == "[]", call

    def test_singular_hessian_falls_back_to_steepest_descent(self, monkeypatch):
        rng = np.random.default_rng(6)
        cols, r = _rand(rng, 8, 2), _rand(rng, 8)
        model = solvers._Columns(cols, np.linalg.qr(np.conj(cols))[0])
        value = lp_norm(LpSpace(1.5, 8), r)
        _, parts = model.model(*solvers._weights(1.5, r, np.abs(r), value))
        grad = parts[1]
        monkeypatch.setattr(solvers, "solve1", _singular_solve1(np.float64))
        with np.errstate(invalid="ignore"):  # as in the Newton iteration
            dy, dr, slope = model.newton(1.5, value, parts)
        np.testing.assert_array_equal(dy.view(np.float64), -value * grad)
        np.testing.assert_array_equal(dr, -cols @ dy)
        assert slope == grad @ dy.view(np.float64) < 0.0

    @pytest.mark.parametrize("p", [1.5, 3.0])
    @pytest.mark.parametrize("singular", [np.complex128, np.float64], ids=["zgesv", "dgesv"])
    def test_singular_solves_fall_back(self, monkeypatch, p, singular):
        # Real systems are the Newton and the weighted Gram system (IRLS
        # direction, certificate correction), each falling back to the
        # gradient; the one complex system is the triangular one of the
        # least-squares start, which falls back to the zero start.
        rng = np.random.default_rng([7, int(10 * p)])
        space = LpSpace(p, 12)
        cases = [(_rand(rng, 12), _rand(rng, 12), _rand(rng, 12)) for _ in range(4)]
        exact = [minimize_free_relax(space, *case) for case in cases]
        monkeypatch.setattr(solvers, "solve1", _singular_solve1(singular))
        cfg = SolverConfig(max_iters=60)
        for (f, G, phi), want in zip(cases, exact):
            res = minimize_free_relax(space, f, G, phi, cfg)
            assert np.all(np.isfinite(res.minimizer))
            assert want.value - 1e-12 * want.value <= res.value <= lp_norm(space, f - G)
            assert res.gap >= -1e-15 * res.value
            if singular is np.complex128:  # Newton itself is intact, and so is the certificate
                assert res.converged
                assert res.value == pytest.approx(want.value, rel=1e-14)
                assert res.gap <= 1e-14 * res.value

    @pytest.mark.parametrize("p", [1.5, 3.0])
    def test_singular_gram_falls_back(self, monkeypatch, p):
        # only the weighted Gram system singular: beta = -grad, and Newton and
        # the certificate stay intact
        rng = np.random.default_rng([8, int(10 * p)])
        space = LpSpace(p, 12)
        cases = [(_rand(rng, 12), _rand(rng, 12), _rand(rng, 12)) for _ in range(4)]
        exact = [minimize_free_relax(space, *case) for case in cases]
        irls = solvers._Columns.irls
        c, g = _rand(rng, 12, 2), rng.standard_normal(4)
        model = solvers._Columns(c, np.linalg.qr(np.conj(c))[0])
        parts = None, g, np.zeros((4, 4)), None
        with np.errstate(invalid="ignore"):
            beta, moved, slope = model.irls(parts, 3.0)
            assert model.irls(parts)[2] is None  # the slope only when asked
        assert beta.view(np.float64).tolist() == (-g).tolist()
        np.testing.assert_allclose(moved, c @ beta, rtol=1e-14)
        assert slope == 3.0 * -(g @ g)

        def singular(model, parts, value=None):  # the parts are formed again at every iterate
            curv, grad, hw, v = parts
            return irls(model, (curv, grad, 0.0 * hw, v), value)

        monkeypatch.setattr(solvers._Columns, "irls", singular)
        for case, want in zip(cases, exact):
            res = minimize_free_relax(space, *case, SolverConfig(max_iters=60))
            assert res.converged
            assert res.value == pytest.approx(want.value, rel=1e-14)
            assert -1e-15 * res.value <= res.gap <= 1e-14 * res.value

    def test_singular_least_squares_raises(self, monkeypatch):
        monkeypatch.setattr(solvers, "solve1", _singular_solve1(np.complex128))
        with np.errstate(invalid="ignore"), pytest.raises(np.linalg.LinAlgError):
            minimize_over_line(LpSpace(2.0, 4), np.ones(4), np.arange(4.0))

    @pytest.mark.parametrize("dim", [2, 12, 16, 2048])
    def test_p2_minimizer_bit_equal_to_numpy_qr(self, dim):
        # The exact p = 2 path must give numpy.linalg.solve on numpy.linalg.qr.
        space = LpSpace(2.0, dim)
        rng = np.random.default_rng([11, dim])
        for _ in range(5):
            f, G, phi = _rand(rng, dim), _rand(rng, dim), _rand(rng, dim)
            for result, base, directions in [
                (minimize_over_line(space, f, phi), f, phi[:, None]),
                (minimize_free_relax(space, f, G, phi), f - G, np.column_stack([-G, phi])),
            ]:
                scales = np.sqrt((np.abs(directions) ** 2).sum(axis=0))
                span, tri = np.linalg.qr(np.conj(directions / scales[None, :]))
                want = np.linalg.solve(np.conj(tri), base @ span) / scales
                assert result.minimizer.tobytes() == want.tobytes()


class TestSolverNorm:
    """The solver's own norm (``solvers._norm``) against the pinned ``_norm_mags``."""

    @seed(20261)
    @settings(max_examples=300, deadline=None)
    @given(
        st.sampled_from([1.0 + 2.0**-52, 1.01, 1.5, 2.0, 3.0, 64.0]),
        st.lists(
            st.one_of(
                st.floats(min_value=1e-300, max_value=1e300),
                st.sampled_from([0.0, 5e-324, 3e-320, 1e-310, 2.2e-308]),  # zero and subnormal
            ),
            min_size=1,
            max_size=40,
        ),
        st.one_of(st.none(), st.integers(min_value=-64, max_value=64)),
    )
    def test_within_4_ulps_of_norm_mags(self, p, mags, exponent):
        # scaled by the largest magnitude, or by a current value 2^-64 to
        # 2^64 times the norm, as a trial point far from the iterate; the
        # solver runs under _descend's errstate, where a trial's scaled
        # power may overflow
        mags = np.array(mags)
        want = solvers._norm_mags(p, mags)
        value = None if exponent is None else want * 2.0**exponent
        with np.errstate(over="ignore"):
            got = solvers._norm(p, mags, value if value and value < math.inf else None)
        assert type(got) is float
        assert abs(got - want) <= 4 * math.ulp(want)

    @pytest.mark.parametrize("p", [1.0 + 2.0**-52, 1.5, 3.0, 64.0])
    def test_zero_vector_is_exactly_zero(self, p):
        for mags in (np.zeros(1), np.zeros(16)):
            assert solvers._norm(p, mags) == 0.0
            assert solvers._norm(p, mags, 0.7) == 0.0  # far below the value: max-scaled

    def test_exact_fit_trial_at_p64_takes_the_exact_fit_exit(self):
        _check_exact_fit_trial_at_p64(one_column=False)


def _check_exact_fit_trial_at_p64(one_column):
    # From y = 0 one Newton step lands on base = 0.7 - 0.2j times the
    # column: the trial's residual is ~1e-14 of the start value, so its
    # sum scaled by that value underflows at p = 64. Its value is the
    # true norm of the residual, not 0 from the underflowed sum.
    p, rng = 64.0, np.random.default_rng(5)
    col = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    cols, span, _ = _unit_columns(col[:, None])
    base = cols[:, 0] * (0.7 - 0.2j)
    if one_column:
        kernel, start = solvers._Column(cols[:, 0]), 0j
    else:
        kernel, start = solvers._Columns(cols, span), np.zeros(1, complex)
    y, value, converged, iterations, lower = solvers._newton(
        p, p / (p - 1.0), base, kernel, start, SolverConfig()
    )
    trial = np.abs(base - (cols[:, 0] * y if one_column else cols @ y))
    assert iterations == 1 and lower is None
    assert np.add.reduce((trial / solvers._norm_mags(p, np.abs(base))) ** p) == 0.0
    assert 0.0 < value <= solvers.RESIDUAL_FLOOR
    assert abs(value - solvers._norm_mags(p, trial)) <= 4 * math.ulp(value)


def _k_column_solve(space, base, direction, cfg=SolverConfig()):
    """(value, gap, iterations, converged) of the k-column kernel on a one-column problem.

    The oracle of :class:`TestOneColumnKernel`: the column is unit-scaled
    (by a norm that neither underflows nor overflows) and started at its
    least-squares point through the QR, as ``_descend`` does for two or more
    columns, and the result is reduced as ``_descend`` does.
    """
    cols = (direction / solvers._norm_mags(2.0, np.abs(direction)))[:, None]
    span, tri = np.linalg.qr(np.conj(cols))
    start = np.linalg.solve(np.conj(tri), base @ span)
    with np.errstate(invalid="ignore", over="ignore"):  # as in _descend
        _, value, converged, iterations, lower = solvers._newton(
            space.p, space.p_conjugate, base - cols @ start, solvers._Columns(cols, span),
            start, cfg,
        )
    if value <= solvers.RESIDUAL_FLOOR:
        return 0.0, 0.0, iterations, True
    gap = value - lower
    return value, gap, iterations, converged or gap <= solvers._GAP_RESOLUTION * value


class TestOneColumnKernel:
    """Line solves at p != 2 take the one-column kernel; the k-column kernel is the oracle."""

    @staticmethod
    def assert_matches_oracle(space, base, direction, cfg=SolverConfig()):
        res = solvers._descend(space, base, direction[:, None], cfg)
        value, gap, iterations, converged = _k_column_solve(space, base, direction, cfg)
        assert res.value == pytest.approx(value, rel=1e-14, abs=0.0)
        for v, g in ((res.value, res.gap), (value, gap)):
            assert g <= solvers._GAP_RESOLUTION * v
        return res, iterations, converged

    @pytest.mark.parametrize("p", [1.01, 1.05, 1.5, 3.0, 8.0, 64.0])
    @pytest.mark.parametrize("dim", [1, 2, 16, 2048])
    def test_matches_the_k_column_kernel(self, p, dim):
        space = LpSpace(p, dim)
        rng = np.random.default_rng([41, int(100 * p), dim])
        for _ in range(2 if dim == 2048 else 8):
            res, _, _ = self.assert_matches_oracle(space, _rand(rng, dim), _rand(rng, dim))
            assert res.converged

    def test_takes_no_qr(self, monkeypatch):
        space = LpSpace(1.5, 8)
        rng = np.random.default_rng(42)
        base, direction = _rand(rng, 8), _rand(rng, 8)
        want = minimize_over_line(space, base, direction)

        def refuse(*args):
            raise AssertionError("a one-column solve at p != 2 called LAPACK")

        monkeypatch.setattr(solvers, "_qr", refuse)
        monkeypatch.setattr(solvers, "_solve", refuse)
        assert minimize_over_line(space, base, direction).value == want.value

    @pytest.mark.parametrize("p", [1.05, 1.5, 3.0, 64.0])
    def test_base_in_the_span_is_an_exact_fit(self, p):
        rng = np.random.default_rng([43, int(100 * p)])
        direction = _rand(rng, 16)
        res = minimize_over_line(LpSpace(p, 16), (0.3 - 1.2j) * direction, direction)
        assert (res.value, res.gap, res.converged) == (0.0, 0.0, True)
        assert res.minimizer[0] == pytest.approx(0.3 - 1.2j, rel=1e-14)

    @pytest.mark.parametrize("p", [1.05, 1.5])
    def test_entries_driven_to_zero(self, p):
        # One outlier against 15 entries that lam * direction fits exactly:
        # the minimizer drives those 15 to (at p = 1.05, far below) 1/225 of
        # the outlier, where the Newton weights |rho|^(p-2) blow up.
        rng = np.random.default_rng([44, int(100 * p)])
        space, direction = LpSpace(p, 16), _rand(rng, 16)
        base = (0.8 + 0.5j) * direction
        base[3] += 40.0
        res, _, _ = self.assert_matches_oracle(space, base, direction)
        assert res.converged
        residual = np.abs(base - res.minimizer[0] * direction)
        assert np.delete(residual, 3).max() <= 40.0 / 200.0 * np.abs(direction).max()

    @pytest.mark.parametrize("p", [1.5, 3.0, 8.0])
    @pytest.mark.parametrize("exponent", [-565, 531], ids=["1e-170", "1e160"])
    def test_column_scale_fallback(self, p, exponent):
        # The column's sum of squares underflows to 0 or overflows to inf,
        # so its scale comes from _norm_mags; a power of two scales exactly.
        rng = np.random.default_rng([45, int(100 * p)])
        space, base, direction = LpSpace(p, 16), _rand(rng, 16), _rand(rng, 16)
        scaled = direction * 2.0**exponent
        with np.errstate(under="ignore", over="ignore"):
            assert np.sum(np.abs(scaled) ** 2) in (0.0, math.inf)
        want = minimize_over_line(space, base, direction)
        res, _, _ = self.assert_matches_oracle(space, base, scaled)
        assert res.converged
        assert res.value == pytest.approx(want.value, rel=1e-14)
        assert res.minimizer[0] * 2.0**exponent == pytest.approx(want.minimizer[0], rel=1e-12)

    @pytest.mark.parametrize("p", [1.5, 3.0])
    def test_one_iteration_budget_is_unconverged(self, p):
        rng = np.random.default_rng([46, int(100 * p)])
        space, base, direction = LpSpace(p, 16), _rand(rng, 16), _rand(rng, 16)
        cfg = SolverConfig(max_iters=1)
        res = solvers._descend(space, base, direction[:, None], cfg)
        _, gap, iterations, converged = _k_column_solve(space, base, direction, cfg)
        assert (res.iterations, res.converged) == (iterations, converged) == (1, False)
        assert res.gap > solvers._GAP_RESOLUTION * res.value and gap > 0.0
        optimum = minimize_over_line(space, base, direction).value
        assert res.value - res.gap <= optimum * (1.0 + 1e-15) <= res.value * (1.0 + 1e-15)

    @pytest.mark.parametrize("dim", [2, 16, 2048])
    def test_certificate_projection_annihilates_the_column(self, dim):
        # The one-column projection is the QR's, to rounding, and the
        # projected functional kills the column, so c @ r == c @ base.
        rng = np.random.default_rng([47, dim])
        col, cert, r = _rand(rng, dim), _rand(rng, dim), _rand(rng, dim)
        col /= np.sqrt(np.sum(np.abs(col) ** 2))
        span = np.linalg.qr(np.conj(col)[:, None])[0]
        want = cert - span @ (cert @ np.conj(span))
        for kernel in (solvers._Column(col), solvers._Columns(col[:, None], span)):
            got = cert.copy()
            solvers._lower_bound(2.5, got, kernel.span, r)
            assert abs(got @ col) <= 1e-15 * np.abs(got).max() * np.sqrt(dim)
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-15 * np.abs(want).max())

    def test_exact_fit_trial_at_p64_takes_the_exact_fit_exit(self):
        _check_exact_fit_trial_at_p64(one_column=True)

    @staticmethod
    def line_step(p, a, curv, uc, grad, value):
        """:meth:`solvers._Column.newton` on the parts (curv, grad, a, uc); b = sum curv uc^2."""
        kernel = solvers._Column(np.ones(4, complex) / 2.0)
        step, dr, slope = kernel.newton(p, value, (np.array(curv), grad, a, np.array(uc)))
        np.testing.assert_array_equal(dr, kernel.col * -step)
        return step, slope

    def test_singular_step_falls_back_to_steepest_descent(self):
        # p = 3, a = 1, grad = 1, b = 3: P = 1 and Q = 1, so P^2 - |Q|^2 = 0
        step, slope = self.line_step(3.0, 1.0, [3.0], [1.0 + 0j], 1.0 + 0j, 2.0)
        assert (step, slope) == (-2.0 + 0j, -2.0)
        # a NaN model gives the gradient step too
        grad = 0.5 - 2.0j
        step, slope = self.line_step(1.5, math.nan, [0.0], [0j], grad, 3.0)
        assert step == -3.0 * grad and slope == (grad.conjugate() * step).real

    def test_non_descending_step_falls_back_to_steepest_descent(self):
        # a negative-definite model (a < 0 at p = 4) points uphill
        grad = 1.0 - 1.0j
        step, slope = self.line_step(4.0, -5.0, [0.0], [0j], grad, 1.0)
        assert step == -grad and slope == -2.0

    def test_newton_step_solves_the_widely_linear_system(self):
        p, a, grad, value = 3.0, 2.0, 0.6 + 0.2j, 1.5
        curv, uc = [0.5, 1.5], [0.3 - 0.7j, 0.2 + 0.4j]
        step, slope = self.line_step(p, a, curv, uc, grad, value)
        b = sum(w * u * u for w, u in zip(curv, uc))
        P = p / 2 * a - (p - 2) / 2 * abs(grad) ** 2
        Q = (p - 2) / 2 * (b - grad**2)
        assert P * step + Q * step.conjugate() == pytest.approx(-value * grad, rel=1e-15)
        assert slope == (grad.conjugate() * step).real < 0.0

    def test_zero_gram_irls_is_minus_the_gradient(self):
        kernel = solvers._Column(np.ones(4, complex) / 2.0)
        beta, moved, slope = kernel.irls((None, 0.5 - 2.0j, 0.0, None), 1.0)
        assert beta == -(0.5 - 2.0j)
        np.testing.assert_array_equal(moved, kernel.col * beta)
        assert slope == -(0.5**2 + 2.0**2)
        beta, _, slope = kernel.irls((None, 0.5 - 2.0j, 4.0, None))  # otherwise -grad / a
        assert (beta, slope) == (-(0.125 - 0.5j), None)

    @pytest.mark.parametrize("p", [1.05, 1.5, 3.0, 8.0, 64.0])
    def test_same_step_as_the_k_column_kernel(self, p):
        # one iteration's gradient norm, Newton step and slope, and IRLS
        # direction and slope, agree between the two kernels to rounding
        rng = np.random.default_rng([48, int(100 * p)])
        space = LpSpace(p, 16)
        for _ in range(4):
            col, r = _rand(rng, 16), _rand(rng, 16)
            col /= np.sqrt(np.sum(np.abs(col) ** 2))
            value = lp_norm(space, r)
            weighted = solvers._weights(p, r, np.abs(r), value)
            line = solvers._Column(col)
            cols = solvers._Columns(col[:, None], np.linalg.qr(np.conj(col)[:, None])[0])
            (norm_1, parts_1), (norm_k, parts_k) = line.model(*weighted), cols.model(*weighted)
            assert norm_1 == pytest.approx(norm_k, rel=1e-14)
            for got, want in zip(
                (*line.newton(p, value, parts_1), *line.irls(parts_1, value)),
                (*cols.newton(p, value, parts_k), *cols.irls(parts_k, value)),
            ):
                np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-15 * value)


@pytest.mark.parametrize("p", [1.05, 1.5, 3.0, 8.0, 64.0])
def test_converged_loop_solves_are_exact_fits_or_within_gap_resolution(monkeypatch, p):
    # every inner solve of seeded wgafr and gawr runs (dim 16, 10 steps)
    from lpgreedy import RelaxationSchedule, WeaknessSequence, algorithms
    from lpgreedy import generate_dictionary, make_target, run_gawr, run_wgafr

    original, results = solvers._descend, []

    def recorded(*args):
        results.append(original(*args))
        return results[-1]

    monkeypatch.setattr(solvers, "_descend", recorded)
    monkeypatch.setattr(algorithms, "_descend", recorded)
    space, tau = LpSpace(p, 16), WeaknessSequence.constant(1.0)
    for seed_ in range(4):
        d = generate_dictionary(space, 32, "gaussian", seed=100 + seed_)
        target = make_target(d, "a1", 8, seed=200 + seed_)
        run_wgafr(space, d, target, tau, 10)
        run_gawr(space, d, target, tau, RelaxationSchedule.harmonic(), 10)
    assert len(results) >= 60
    for result in results:
        if result.converged:
            assert result.value == 0.0 or result.gap <= solvers._GAP_RESOLUTION * result.value
