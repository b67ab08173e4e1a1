import dataclasses
import math
import sys

import mpmath

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lpgreedy import (
    GreedyTrace,
    LpSpace,
    RelaxationSchedule,
    TargetSpec,
    TraceRecord,
    WeaknessSequence,
    apply_functional,
    best_approx_subspace,
    check_dual_norm_supremum,
    check_hl1,
    check_ll0,
    check_ml1_trace,
    check_ml3_trace,
    check_ml4,
    check_mt2_bound,
    check_orthogonality,
    fit_log_slope,
    generate_dictionary,
    lp_norm,
    make_target,
    norming_functional,
    rho_bound,
    run_gawr,
    run_iac,
    run_iacc,
    run_wgafr,
    smoothness_params,
)
from lpgreedy import analysis
from lpgreedy.analysis import (
    _finish,
    _slope_fits,
    check_barycentric,
    check_monotone,
    check_trivial_step,
    ml1_optimal_lambda,
)


def trace_from_norms(norms, algorithm="wgafr", w_or_r=None):
    """Synthetic trace with the given residual norms; norms[0] is ||f_0||."""
    trace = GreedyTrace(algorithm=algorithm, initial_residual_norm=float(norms[0]))
    for m, value in enumerate(norms[1:], start=1):
        trace.records.append(
            TraceRecord(
                m=m,
                selected_index=0,
                phase=1.0 + 0j,
                lam=0.0 + 0j,
                w_or_r=complex(w_or_r(m)) if w_or_r else 0.0 + 0j,
                residual_norm=float(value),
                dual_norm=1.0,
                eps_m=None,
                solver_converged=True,
            )
        )
    return trace


def with_residual(trace, m, value):
    """A copy of ``trace`` whose step ``m`` records the residual norm ``value``."""
    records = list(trace.records)
    records[m - 1] = dataclasses.replace(records[m - 1], residual_norm=float(value))
    return dataclasses.replace(trace, records=records)


class TestCheckLl0:
    def test_n_samples_must_be_whole(self):
        space = LpSpace(1.5, 4)
        assert check_ll0(space, 16.0, 0).samples == 16
        for n in (0, 2.5):
            with pytest.raises(ValueError, match=f"n_samples must be an integer >= 1; got {n}"):
                check_ll0(space, n, 0)

    def test_hand_case_hilbert(self):
        # x = e_1, y = e_2, u = 1 in l_2: middle term sqrt(2)-1, bound 1
        space = LpSpace(2.0, 2)
        x = np.array([1.0, 0.0], dtype=complex)
        y = np.array([0.0, 1.0], dtype=complex)
        F = norming_functional(space, x)
        mid = lp_norm(space, x + y) - lp_norm(space, x) - apply_functional(F, y).real
        assert mid == pytest.approx(np.sqrt(2.0) - 1.0, abs=1e-12)
        upper = 2.0 * lp_norm(space, x) * rho_bound(space, 1.0)
        assert upper == pytest.approx(1.0, abs=1e-15)
        assert 0.0 <= mid <= upper

    def test_u_zero_is_exact(self):
        space = LpSpace(3.0, 3)
        rng = np.random.default_rng(1)
        x = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        F = norming_functional(space, x)
        mid = lp_norm(space, x) - lp_norm(space, x) - 0.0 * apply_functional(F, x).real
        assert mid == 0.0

    @pytest.mark.parametrize("p", [1.5, 3.0])
    def test_sampled(self, p):
        report = check_ll0(LpSpace(p, 8), n_samples=10_000, seed=2, tol=1e-9)
        assert report.passed
        assert report.worst_margin >= -1e-9
        assert report.samples == 10_000


class TestCheckMl1:
    def seeded_trace(self, p=2.0, t=1.0, iters=30, seed=3):
        space = LpSpace(p, 10)
        d = generate_dictionary(space, 20, "gaussian", seed=seed)
        target = make_target(d, "a1", 3, seed=seed + 1)
        tau = WeaknessSequence.constant(t)
        return space, target, tau, run_wgafr(space, d, target, tau, iters)

    def test_lambda_zero_grid_point_is_monotonicity(self):
        # With every t_m = 0 no grid point's bound is below ||f_{m-1}||, and
        # lam = 0 (the first grid point) attains it: the check is monotonicity.
        space, target, _, trace = self.seeded_trace()
        zero = WeaknessSequence.general([0.0] * len(trace.records))
        for checked in (trace, with_residual(trace, 7, trace.residual_norms()[6] + 0.1)):
            norms = checked.residual_norms()
            report = check_ml1_trace(space, checked, zero, target.A_eps, target.eps)
            monotone = check_monotone(checked)
            assert report.worst_margin == float(np.min(norms[:-1] - norms[1:]))
            assert report.details == [
                f"step {m}: margin {w:.3e}"
                for m, w in enumerate(norms[:-1] - norms[1:], start=1) if w < -1e-8
            ]
            assert report.passed == monotone.passed == (checked is trace)

    def test_hand_trace_canonical(self):
        space = LpSpace(2.0, 2)
        d = generate_dictionary(space, 2, "canonical")
        f = np.array([0.5, 0.5], dtype=complex)
        target = TargetSpec(f=f, f_eps=f, eps=0.0, A_eps=1.0, membership="a1")
        tau = WeaknessSequence.constant(1.0)
        trace = run_wgafr(space, d, target, tau, 3)
        report = check_ml1_trace(space, trace, tau, 1.0, 0.0)
        assert report.passed, report.worst_margin

    @pytest.mark.parametrize("p,t", [(1.5, 1.0), (2.0, 0.5), (3.0, 1.0)])
    def test_seeded_runs_pass_with_default_grid(self, p, t):
        space, target, tau, trace = self.seeded_trace(p=p, t=t, seed=int(10 * p))
        report = check_ml1_trace(space, trace, tau, target.A_eps, target.eps)
        assert report.passed, report.worst_margin

    def test_perturbed_target_eps_term(self):
        # eps > 0 exercises the (1 - eps/||f_{m-1}||) factor end to end
        space = LpSpace(2.0, 10)
        d = generate_dictionary(space, 20, "gaussian", seed=71)
        target = make_target(d, "a1", 3, eps=0.2, seed=72)
        tau = WeaknessSequence.constant(1.0)
        trace = run_wgafr(space, d, target, tau, 30)
        report = check_ml1_trace(space, trace, tau, target.A_eps, target.eps)
        assert report.passed, report.worst_margin


class TestCheckMl3:
    def seeded_trace(self, p=2.0, t=1.0, iters=40, seed=5, schedule=None):
        space = LpSpace(p, 10)
        d = generate_dictionary(space, 20, "gaussian", seed=seed)
        target = make_target(d, "a1", 3, seed=seed + 1)
        schedule = schedule or RelaxationSchedule.harmonic()
        trace = run_gawr(space, d, target, WeaknessSequence.constant(t), schedule, iters)
        return space, target, trace

    def test_r_zero_skipped(self):
        space, target, trace = self.seeded_trace(
            iters=5, schedule=RelaxationSchedule.constant(0.0)
        )
        report = check_ml3_trace(space, trace, target.A_eps, target.eps, 1.0)
        assert report.samples == 0 and report.worst_margin == float("inf")
        assert report.passed

    def test_eps_boundary_skipped(self):
        # A step is sampled only while ||f_{m-1}|| > eps, so eps equal to
        # ||f_k|| skips every step whose previous residual is at most that.
        space, target, trace = self.seeded_trace(iters=5)
        norms = trace.residual_norms()
        for eps in (norms.max() + 1.0, norms[2], norms[0]):
            report = check_ml3_trace(space, trace, target.A_eps, eps, 1.0)
            assert report.samples == int(np.sum(norms[:-1] > eps)) < len(trace.records)

    @pytest.mark.parametrize("p,t", [(1.5, 1.0), (2.0, 1.0), (3.0, 0.5)])
    def test_harmonic_passes(self, p, t):
        space, target, trace = self.seeded_trace(p=p, t=t, seed=int(7 * p))
        report = check_ml3_trace(space, trace, target.A_eps, target.eps, t)
        assert report.passed, report.worst_margin
        assert report.samples > 0

    def test_perturbed_target_eps_term(self):
        space = LpSpace(2.0, 10)
        d = generate_dictionary(space, 20, "gaussian", seed=73)
        target = make_target(d, "a1", 3, eps=0.15, seed=74)
        trace = run_gawr(
            space, d, target, WeaknessSequence.constant(1.0),
            RelaxationSchedule.harmonic(), 40,
        )
        report = check_ml3_trace(space, trace, target.A_eps, target.eps, 1.0)
        assert report.passed, report.worst_margin
        # the run typically descends below eps, so some steps are skipped
        assert report.samples <= len(trace.records)


class TestCheckMt2:
    def test_a_q_at_hilbert_parameters(self):
        # 4 * (8 * 1/2)^1 * 5^2 = 400, so the bound at m=99, t=1 is 2
        params = smoothness_params(LpSpace(2.0, 4))
        norms = [1.0] + [1.9] * 99
        trace = trace_from_norms(norms)
        report = check_mt2_bound(trace, params, 1.0, 0.0, WeaknessSequence.constant(1.0))
        assert report.passed
        m99_margin = 20.0 / np.sqrt(100.0) - 1.9
        assert report.worst_margin == pytest.approx(m99_margin, abs=1e-12)

    def test_violation_detected(self):
        params = smoothness_params(LpSpace(2.0, 4))
        norms = [1.0] + [1.9] * 98 + [2.05]  # above the m=99 bound of 2
        trace = trace_from_norms(norms)
        report = check_mt2_bound(trace, params, 1.0, 0.0, WeaknessSequence.constant(1.0))
        assert not report.passed

    def test_large_eps_vacuous(self):
        params = smoothness_params(LpSpace(2.0, 4))
        trace = trace_from_norms([1.0, 1.0, 1.0])
        report = check_mt2_bound(trace, params, 1.0, 10.0, WeaknessSequence.constant(1.0))
        assert report.passed
        assert report.worst_margin >= 19.0  # max(2 eps, ...) = 20 vs residual 1


class TestCheckHl1:
    def test_hand_recursion(self):
        x = [1.0, 0.9, 0.819]
        a = [0.1, 0.1]
        report = check_hl1(x, C1=1.0, a_seq=a)
        assert report.applicable and report.passed
        # bounds: 1, 1/1.1, 1/1.2
        expected_margins = [0.0, 1 / 1.1 - 0.9, 1 / 1.2 - 0.819]
        assert report.worst_margin == pytest.approx(min(expected_margins), abs=1e-12)

    def test_zero_a_degenerates_to_constant_bound(self):
        x = [0.8, 0.7, 0.7, 0.6]
        report = check_hl1(x, C1=0.8, a_seq=[0.0, 0.0, 0.0])
        assert report.applicable and report.passed

    def test_hypothesis_violation_not_applicable(self):
        x = [1.0, 1.2]  # recursion forces non-increase; this grows
        report = check_hl1(x, C1=1.0, a_seq=[0.1])
        assert not report.applicable

    def test_wgafr_transform_reproduces_explicit_bound(self):
        # x_k = ||f_k||^2 with a_k = 1/400 satisfies the recursion, and the
        # resulting bound implies the explicit 400/(1+m) envelope.
        space = LpSpace(2.0, 12)
        d = generate_dictionary(space, 24, "gaussian", seed=8)
        target = make_target(d, "a1", 4, seed=9)
        trace = run_wgafr(space, d, target, WeaknessSequence.constant(1.0), 40)
        x = trace.residual_norms() ** 2
        a = [1.0 / 400.0] * (len(x) - 1)
        report = check_hl1(x, C1=1.0, a_seq=a)
        assert report.applicable and report.passed, report.details
        for m in range(len(x)):
            hl1_bound = 1.0 / (1.0 + m / 400.0)
            assert hl1_bound <= 400.0 / (1.0 + m) + 1e-12
            assert x[m] <= hl1_bound + 1e-7


class TestCheckMl4:
    def test_half_power_law(self):
        n = np.arange(1, 101)
        a = 2.0 * n ** (-0.5) / 2.0
        report = check_ml4(a, alpha=0.5, gamma_param=0.75, A=2.0)
        assert report.applicable and report.passed
        assert any("empirical_constant=0.5" in d for d in report.details)

    def test_constant_sequence_not_applicable(self):
        report = check_ml4([0.5] * 50, alpha=0.5, gamma_param=0.75, A=1.0)
        assert not report.applicable

    def test_parameter_order_enforced(self):
        report = check_ml4([0.1, 0.1], alpha=0.8, gamma_param=0.5, A=1.0)
        assert not report.applicable

    def test_iac_residuals_report_empirical_constant(self):
        space = LpSpace(2.0, 12)
        d = generate_dictionary(space, 24, "gaussian", seed=10)
        target = make_target(d, "a1", 4, seed=11)
        trace = run_iac(space, d, target, 1.0, 120)
        a = trace.residual_norms()[1:]
        n = np.arange(1, a.size + 1)
        # A large enough that the growth hypothesis (2/n step bound) and the
        # decay antecedent both hold; the ratio is the empirical constant.
        A = max(1.0, 2.0 * float((a * n**0.5).max()), 1.01 * a[0])
        report = check_ml4(a, alpha=0.5, gamma_param=0.75, A=A)
        assert report.applicable and report.passed, report.details
        ratio = float(report.details[0].split("=")[1])
        assert 0.0 < ratio <= 0.5 + 1e-12


def trace_of(residuals):
    """Synthetic trace whose record i holds ``residuals[i]``, the residual after step i+1."""
    return trace_from_norms([1.0, *residuals])


def _exact_line(x, y):
    """The least-squares line through the float points (x, y) at 50 digits, and bounds on a float
    fit's distance from it: twice the first-order change of the slope, and of the intercept,
    when every x, y and centred value moves by one rounding (the eps-scaled sums below)."""
    xs, ys, n = x.tolist(), y.tolist(), x.size
    with mpmath.workdps(50):  # the normal equations; 50 digits leave their cancellation harmless
        sx, sy = mpmath.fsum(xs), mpmath.fsum(ys)
        slope = (n * mpmath.fdot(xs, ys) - sx * sy) / (n * mpmath.fdot(xs, xs) - sx * sx)
        intercept = (sy - slope * sx) / n
    slope, eps = float(slope), float(np.finfo(float).eps)
    dx, dy = np.linalg.norm(x - x.mean()), np.linalg.norm(y - y.mean())
    x_max, y_max = np.abs(x).max(), np.abs(y).max()
    slope_tol = 2.0 * eps * math.sqrt(x.size) * (y_max * dx + x_max * (dy + abs(slope) * dx))
    slope_tol /= dx**2
    intercept_tol = 2.0 * eps * (y_max + abs(slope) * x_max) + abs(x.mean()) * slope_tol
    return slope, float(intercept), slope_tol, intercept_tol


class TestFitLogSlope:
    def test_exact_half_power(self):
        m = np.arange(1, 300)
        fit = fit_log_slope(trace_of(m ** (-0.5)), (10, 200))
        assert fit.slope == pytest.approx(-0.5, abs=1e-12)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)

    def test_scaled_third_power(self):
        m = np.arange(1, 100)
        fit = fit_log_slope(trace_of(3.0 * m ** (-1.0 / 3.0)), (2, 99))
        assert fit.slope == pytest.approx(-1.0 / 3.0, abs=1e-12)
        assert fit.intercept == pytest.approx(np.log(3.0), abs=1e-12)

    def test_zero_residual_shrinks_window(self):
        res = np.concatenate([np.arange(1, 50) ** -1.0, [0.0], np.ones(10)])
        fit = fit_log_slope(trace_of(res), (2, 60))
        assert fit.window == (2, 49)
        assert fit.slope == pytest.approx(-1.0, abs=1e-12)

    def test_window_validation(self):
        with pytest.raises(ValueError, match="m >= 2"):
            fit_log_slope(trace_of(np.ones(10)), (1, 10))
        with pytest.raises(ValueError, match="fewer than two"):
            fit_log_slope(trace_of(np.ones(10)), (9, 9))

    @pytest.mark.parametrize(
        "window", [(2.5, 20), (2, 20.9), (2, np.inf), (np.nan, 20)], ids=["lo", "hi", "inf", "nan"]
    )
    def test_window_bounds_must_be_whole(self, window):
        m = np.arange(1, 30)
        with pytest.raises(ValueError, match="window bounds must be whole numbers"):
            fit_log_slope(trace_of(m ** (-0.5)), window)

    def test_whole_float_window_fits(self):
        m = np.arange(1, 30)
        trace = trace_of(m ** (-0.5))
        assert fit_log_slope(trace, (2.0, 20.0)) == fit_log_slope(trace, (2, 20))

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(st.floats(1e-300, 1e300), min_size=3, max_size=60),
        st.integers(0, 8),
        st.data(),
    )
    def test_matches_exact_least_squares(self, positive, zeros, data):
        res = np.array(positive + [0.0] * zeros)
        lo = data.draw(st.one_of(st.just(2), st.integers(2, len(positive) - 1)), label="lo")
        hi = data.draw(st.one_of(st.just(res.size), st.integers(lo + 1, res.size + 3)), label="hi")
        fit = fit_log_slope(trace_of(res), (lo, hi))
        m_lo, m_hi = fit.window
        assert m_lo == lo and m_hi == min(hi, len(positive))
        # The same input as one row of a stack of 1 to 5 rows, each with its own zero tail.
        others = data.draw(st.lists(st.tuples(
            st.lists(st.floats(1e-300, 1e300), min_size=res.size, max_size=res.size),
            st.integers(0, res.size)), max_size=4), label="others")
        stack = np.array([res] + [row[:n] + [0.0] * (res.size - n) for row, n in others])
        fits = _slope_fits(stack, (lo, hi))
        assert fits[0] == fit
        for row, stacked in zip(stack, fits):
            positives = int(np.logical_and.accumulate(row[lo - 1 : min(hi, res.size)] > 0).sum())
            if positives < 2:
                assert str(stacked).endswith("collapses below two positive residuals")
                continue
            m_lo, m_hi = stacked.window
            assert (m_lo, m_hi) == (lo, lo + positives - 1)
            x, y = np.log(np.arange(m_lo, m_hi + 1, dtype=float)), np.log(row[m_lo - 1 : m_hi])
            slope, intercept, slope_tol, intercept_tol = _exact_line(x, y)
            # np.polyfit meets the same bounds, so they ask no less than it gives.
            for a, b in ((stacked.slope, stacked.intercept), np.polyfit(x, y, 1)):
                assert abs(a - slope) <= slope_tol and abs(b - intercept) <= intercept_tol
            alone = fit_log_slope(trace_of(row), (lo, hi))
            assert stacked.window == alone.window
            assert [v.hex() for v in (stacked.slope, stacked.intercept, stacked.r_squared)] == [
                v.hex() for v in (alone.slope, alone.intercept, alone.r_squared)]

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_residual_fails_its_row_only(self, bad):
        stack = np.array([[1.0, 0.5, 0.3, 0.2], [1.0, bad, 0.3, 0.2]])
        good, failed = _slope_fits(stack, (2, 4))
        (alone,) = _slope_fits(stack[:1], (2, 4))
        assert [v.hex() for v in (good.slope, good.intercept, good.r_squared)] == [
            v.hex() for v in (alone.slope, alone.intercept, alone.r_squared)]
        assert str(failed) == "window [2, 4] holds a non-finite residual at m = 2"
        with pytest.raises(ValueError, match="non-finite residual at m = 2"):
            fit_log_slope(trace_of(stack[1]), (2, 4))

    def test_trace_input(self):
        trace = trace_from_norms([1.0] + [float(m) ** -0.5 for m in range(1, 40)])
        fit = fit_log_slope(trace, (5, 39))
        assert fit.slope == pytest.approx(-0.5, abs=1e-12)


class TestCheckOrthogonality:
    def test_exact_zero_hilbert(self):
        space = LpSpace(2.0, 3)
        report = check_orthogonality(space, [1, 1, 1], [[1, 0, 0], [0, 1, 0]])
        assert report.passed

    def test_p3_random(self):
        space = LpSpace(3.0, 5)
        rng = np.random.default_rng(12)
        f = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        basis = [rng.standard_normal(5) + 1j * rng.standard_normal(5) for _ in range(2)]
        report = check_orthogonality(space, f, basis, seed=13)
        assert report.passed, report.worst_margin

    def test_degenerate_rejected(self):
        space = LpSpace(2.0, 3)
        with pytest.raises(ValueError, match="span"):
            check_orthogonality(space, [1, 2, 0], [[1, 0, 0], [0, 1, 0]])

    def test_n_competitors_must_be_whole(self):
        space = LpSpace(3.0, 3)
        f, basis = [1, 1j, 2], [[1, 0, 0], [0, 1, 0]]
        for bad in (2.5, 0):
            with pytest.raises(ValueError, match=f"n_competitors must be an integer >= 1; got {bad}"):
                check_orthogonality(space, f, basis, n_competitors=bad)
        whole = check_orthogonality(space, f, basis, n_competitors=16.0)
        assert whole == check_orthogonality(space, f, basis, n_competitors=16)
        assert whole.samples == 2 + 16


class TestCheckDualNormSupremum:
    def test_canonical_attainment(self):
        space = LpSpace(2.0, 3)
        d = generate_dictionary(space, 3, "canonical")
        F = norming_functional(space, [1, 0, 0])
        report = check_dual_norm_supremum(F, d, n_samples=200, seed=14)
        assert report.passed, report.worst_margin

    @pytest.mark.parametrize("p", [1.5, 2.0, 4.0])
    def test_seeded(self, p):
        space = LpSpace(p, 8)
        d = generate_dictionary(space, 16, "gaussian", seed=15)
        rng = np.random.default_rng(16)
        F = norming_functional(space, rng.standard_normal(8) + 1j * rng.standard_normal(8))
        report = check_dual_norm_supremum(F, d, n_samples=500, seed=17)
        assert report.passed, report.worst_margin

    def test_n_samples_must_be_whole(self):
        space = LpSpace(2.0, 3)
        d = generate_dictionary(space, 3, "canonical")
        F = norming_functional(space, [1, 0, 0])
        for bad in (2.5, 0):
            with pytest.raises(ValueError, match=f"n_samples must be an integer >= 1; got {bad}"):
                check_dual_norm_supremum(F, d, n_samples=bad)
        whole = check_dual_norm_supremum(F, d, n_samples=16.0)
        assert whole == check_dual_norm_supremum(F, d, n_samples=16)
        assert whole.samples == 2 * 16 + 2


class TestTraceChecks:
    def test_monotone_detects_increase(self):
        good = trace_from_norms([1.0, 0.8, 0.8, 0.5])
        bad = trace_from_norms([1.0, 0.8, 0.9])
        assert check_monotone(good).passed
        assert not check_monotone(bad, slack=1e-8).passed

    def test_trivial_step_bound(self):
        # increases up to 2/m are allowed, larger ones are not
        good = trace_from_norms([1.0, 2.9, 3.85], algorithm="iac")
        assert check_trivial_step(good).passed
        bad = trace_from_norms([1.0, 3.1], algorithm="iac")
        assert not check_trivial_step(bad).passed

    def test_composition_ml1_implies_mt2(self):
        # the explicit bound is derived from the per-step recursion, so any
        # trace passing the recursion with the optimal grid point also
        # passes the bound
        for seed in range(5):
            space = LpSpace(2.0, 10)
            d = generate_dictionary(space, 20, "gaussian", seed=seed)
            target = make_target(d, "a1", 3, seed=100 + seed)
            tau = WeaknessSequence.constant(1.0)
            trace = run_wgafr(space, d, target, tau, 30)
            ml1 = check_ml1_trace(space, trace, tau, target.A_eps, target.eps)
            mt2 = check_mt2_bound(
                trace, smoothness_params(space), target.A_eps, target.eps, tau
            )
            assert ml1.passed
            assert mt2.passed


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("p, norms, eps", [
    (3.0, [1e300, 0.75e300, 0.6e300], 0.8e300),  # the optimal lambda's bound is past float range
    (2.0, [1.7e308, 1.6e308], 1.65e308),  # the optimal lambda itself is past it
    (2.0, [1.2e308, 1e308], sys.float_info.max),  # at lam = 1 its floats overflow, not its value
    (1.001, [20.0, 9.0], 0.0),  # lambda is inf * 0 in floats, about 1e-301 exactly
])
def test_ml1_bounds_near_float_range_keep_their_exact_values(p, norms, eps):
    # The exact worst margin, each bound evaluated in 60-digit arithmetic: no NaN, no warning,
    # and +inf only for a bound past float range.
    space, trace = LpSpace(p, 4), trace_from_norms(norms)
    params = smoothness_params(space)
    mpmath.mp.dps = 60
    q, gamma, e = mpmath.mpf(params.q), mpmath.mpf(params.gamma), mpmath.mpf(eps)
    exact = math.inf
    for prev, curr in zip(map(mpmath.mpf, norms), map(mpmath.mpf, norms[1:])):
        optimal = (prev / 5) ** (q / (q - 1)) * (8 * gamma) ** (-1 / (q - 1)) if prev > e else 0
        for lam in [*map(mpmath.mpf, np.linspace(0.0, 1.0, 101)), optimal]:
            bound = prev * (1 - lam * (1 - e / prev) + 2 * gamma * (5 * lam / prev) ** q)
            exact = min(exact, bound - curr)
    report = check_ml1_trace(space, trace, WeaknessSequence.constant(1.0), 1.0, eps)
    assert report.passed and report.worst_margin == pytest.approx(float(exact), rel=1e-12)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("res_prev, p", [
    (20.0, 1.001),  # 20.0 ** 1001 overflows and 5.0 ** -1001 underflows; about 1e-301 exactly
    (1e300, 3.0),  # 1e300 ** 2 overflows; about 5e597 exactly, so inf
])
def test_ml1_optimal_lambda_of_python_floats_past_float_range(res_prev, p):
    params = smoothness_params(LpSpace(p, 4))
    mpmath.mp.dps = 60
    q, gamma = mpmath.mpf(params.q), mpmath.mpf(params.gamma)
    exact = (mpmath.mpf(res_prev) / 5) ** (q / (q - 1)) * (8 * gamma) ** (-1 / (q - 1))
    lam = ml1_optimal_lambda(res_prev, 1.0, params, 1.0)
    assert type(lam) is float
    if exact > sys.float_info.max:
        assert lam == math.inf
    else:
        assert lam == pytest.approx(float(exact), rel=1e-12)
    # inside float range the direct product keeps its bits
    q = params.q
    direct = 2.0 ** (q / (q - 1.0)) * 5.0 ** (-q / (q - 1.0)) * (8.0 * params.gamma) ** (
        -1.0 / (q - 1.0)) * 0.5 ** (1.0 / (q - 1.0))
    assert ml1_optimal_lambda(2.0, 0.5, params, 1.0) == direct


def _weakness(kind, iters):
    if kind == "constant":
        return WeaknessSequence.constant(0.5)
    return WeaknessSequence.general([1.0 / (1.0 + 0.1 * m) for m in range(iters)])


def _ml1_reference(space, trace, tau, A_eps, eps, grid_points):
    """Each step's ml1 margin, from check_ml1_trace's statement, one lambda at a time."""
    params = smoothness_params(space)
    norms = trace.residual_norms()
    margins = {}
    for record in trace.records:
        prev, curr, t_m = norms[record.m - 1], norms[record.m], tau.value(record.m)
        grid = [*np.linspace(0.0, 1.0, grid_points), ml1_optimal_lambda(prev, t_m, params, A_eps)]
        margins[record.m] = min(
            prev * (1.0 - lam * t_m * (1.0 - eps / prev) / A_eps
                    + 2.0 * rho_bound(space, 5.0 * lam / prev)) - curr
            for lam in grid
        )
    return margins


def _ml3_reference(space, trace, A_eps, eps, t):
    """Each applicable step's ml3 margin, from check_ml3_trace's statement."""
    norms, f_norm = trace.residual_norms(), trace.initial_residual_norm
    margins = {}
    for record in trace.records:
        prev, curr, r_m = norms[record.m - 1], norms[record.m], record.w_or_r.real
        if r_m != 0.0 and prev > eps:
            u = r_m * (f_norm + A_eps / t) / ((1.0 - r_m) * prev)
            bound = prev * (1.0 - r_m * (1.0 - eps / prev) + 2.0 * rho_bound(space, u))
            margins[record.m] = bound - curr
    return margins


def _assert_report_matches(report, margins, slack=1e-8):
    """worst_margin, samples and failing-step details of a report against per-step margins."""
    assert report.worst_margin == pytest.approx(min(margins.values()), rel=1e-12, abs=1e-15)
    assert report.samples == len(margins)
    assert report.details == [f"step {m}: margin {w:.3e}" for m, w in margins.items() if w < -slack]
    assert report.passed == all(w >= -slack for w in margins.values())


class TestOneRulePerInequality:
    """A trace checker's report is its inequality evaluated at each step.

    Each run is checked as recorded and with one step's residual raised
    0.1 above the step's bound, so that step, and only its report line, fails.
    """

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    @pytest.mark.parametrize("kind", ["constant", "general"])
    @pytest.mark.parametrize("grid_points", [31, 101])
    def test_ml1_trace_is_its_inequality_per_step(self, p, kind, grid_points):
        space = LpSpace(p, 10)
        d = generate_dictionary(space, 20, "gaussian", seed=int(10 * p))
        target = make_target(d, "a1", 3, eps=0.05, seed=int(10 * p) + 1)
        tau = _weakness(kind, 25)
        trace = run_wgafr(space, d, target, tau, 25, "first_qualifying")
        args = (space, trace, tau, target.A_eps, target.eps)
        margins = _ml1_reference(*args, grid_points)
        assert len(margins) == len(trace.records) > 0
        _assert_report_matches(check_ml1_trace(*args, grid_points=grid_points), margins)
        m = len(trace.records) // 2
        bad = with_residual(trace, m, trace.residual_norms()[m] + margins[m] + 0.1)
        args = (space, bad, tau, target.A_eps, target.eps)
        bad_margins = _ml1_reference(*args, grid_points)
        assert bad_margins[m] == pytest.approx(-0.1)
        report = check_ml1_trace(*args, grid_points=grid_points)
        _assert_report_matches(report, bad_margins)
        assert not report.passed and report.details[0].startswith(f"step {m}: ")

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    @pytest.mark.parametrize("kind", ["constant", "general"])
    def test_ml3_trace_is_its_inequality_per_step(self, p, kind):
        space = LpSpace(p, 10)
        d = generate_dictionary(space, 20, "gaussian", seed=int(7 * p))
        target = make_target(d, "a1", 3, eps=0.05, seed=int(7 * p) + 1)
        tau = _weakness(kind, 40)
        # the recursion holds with any constant t <= every t_m
        t = tau.t if kind == "constant" else min(tau.values)
        trace = run_gawr(space, d, target, tau, RelaxationSchedule.harmonic(), 40)
        margins = _ml3_reference(space, trace, target.A_eps, target.eps, t)
        assert 0 < len(margins) <= len(trace.records)
        _assert_report_matches(check_ml3_trace(space, trace, target.A_eps, target.eps, t), margins)
        m = list(margins)[len(margins) // 2]
        bad = with_residual(trace, m, trace.residual_norms()[m] + margins[m] + 0.1)
        bad_margins = _ml3_reference(space, bad, target.A_eps, target.eps, t)
        assert bad_margins[m] == pytest.approx(-0.1)
        report = check_ml3_trace(space, bad, target.A_eps, target.eps, t)
        _assert_report_matches(report, bad_margins)
        assert not report.passed and report.details[0].startswith(f"step {m}: ")

    def test_empty_trace(self):
        space = LpSpace(2.0, 4)
        d = generate_dictionary(space, 4, "canonical")
        trace = trace_from_norms([1.0])
        tau = WeaknessSequence.constant(1.0)
        reports = [
            check_ml1_trace(space, trace, tau, 1.0, 0.0),
            check_ml1_trace(space, trace, tau, 1.0, 0.0, grid_points=2),
            check_ml3_trace(space, trace, 1.0, 0.0, 1.0),
            check_mt2_bound(trace, smoothness_params(space), 1.0, 0.0, tau),
            check_monotone(trace),
            check_trivial_step(trace),
            check_barycentric(trace, d),
        ]
        for report in reports:
            assert report.worst_margin == float("inf") and report.samples == 0, report.name
            assert report.passed, report.name

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0, 4.0])
    def test_orthogonality_matches_per_competitor_norms(self, p):
        space = LpSpace(p, 6)
        rng = np.random.default_rng(int(4 * p))
        for seed in range(5):
            f = rng.standard_normal(6) + 1j * rng.standard_normal(6)
            basis = list(rng.standard_normal((3, 6)) + 1j * rng.standard_normal((3, 6)))
            report = check_orthogonality(space, f, basis, n_competitors=50, seed=seed)
            coeffs, residual = best_approx_subspace(space, f, basis)
            res_norm = lp_norm(space, residual)
            F = norming_functional(space, residual)
            func_margins = [1e-7 - abs(apply_functional(F, b)) for b in basis]
            B = np.column_stack(basis)
            scale = float(np.abs(coeffs).mean()) + 1.0
            comp_rng = np.random.default_rng(seed)
            comp_margins = []
            for _ in range(50):
                offset = scale * (comp_rng.standard_normal(3) + 1j * comp_rng.standard_normal(3))
                g = B @ (coeffs + offset)
                comp_margins.append(lp_norm(space, f - g) + 1e-9 - res_norm)
            assert report.worst_margin == min(func_margins + comp_margins)
            assert report.samples == 53
            assert report.details == [f"worst_functional_margin={min(func_margins)!r}",
                                      f"worst_competitor_margin={min(comp_margins)!r}"]


def _barycentric_reference(trace, dictionary, tol=1e-10, weight_tol=1e-12):
    """check_barycentric as one running sum per step, the form it replaced.

    The weights are added left to right, as the built-in ``sum`` does before Python 3.12.
    """
    margins, details, counts = [], [], {}
    running = np.zeros(dictionary.space.dim, dtype=np.complex128)
    for record, stored in zip(trace.records, trace.approximants):
        running = running + complex(record.phase) * dictionary.atoms[record.selected_index]
        drift = float(np.abs(running / record.m - stored).max())
        margins.append(tol - drift)
        if drift > tol:
            details.append(f"step {record.m}: drift {drift:.3e}")
        if trace.algorithm == "iacc":
            counts[record.selected_index] = counts.get(record.selected_index, 0) + 1
            weights = [c / record.m for c in counts.values()]
            margins.append(min(weights))
            total = 0.0
            for weight in weights:
                total += weight
            margins.append(weight_tol - abs(total - 1.0))
            if abs(record.phase - 1.0) > weight_tol:
                margins.append(-abs(record.phase - 1.0))
                details.append(f"step {record.m}: non-unit weight phase")
    return _finish("barycentric_reconstruction", margins, len(trace.records), 0.0, details)


class TestBarycentricRebuild:
    """One cumulative sum rebuilds every G_m exactly as the running sum does."""

    def traces(self, algorithm):
        for seed, p in enumerate([1.5, 2.0, 3.0, 8.0]):
            space = LpSpace(p, 12)
            d = generate_dictionary(space, 24, "gaussian", seed=seed)
            target = make_target(d, "conv" if algorithm == "iacc" else "a1", 5, seed=50 + seed)
            run = run_iacc if algorithm == "iacc" else run_iac
            yield d, run(space, d, target, 1.0, 40)

    @pytest.mark.parametrize("algorithm", ["iac", "iacc"])
    def test_matches_running_sum(self, algorithm, monkeypatch):
        # At tol 0 the worst margin is minus the largest drift and every nonzero
        # drift is a detail, so the rebuild is compared with the running sum to the bit.
        for d, trace in self.traces(algorithm):
            report = check_barycentric(trace, d)
            assert report.passed
            assert report == _barycentric_reference(trace, d)
            with monkeypatch.context() as m:
                m.setattr(analysis, "BARYCENTRIC_TOL", 0.0)
                got = check_barycentric(trace, d)
            assert got == _barycentric_reference(trace, d, 0.0)

    @pytest.mark.parametrize("algorithm", ["iac", "iacc"])
    def test_perturbed_approximant_fails(self, algorithm):
        # the perturbed step sets the worst margin, so its rebuilt G_m shows to the bit
        for d, trace in self.traces(algorithm):
            stored = list(trace.approximants)
            for k in range(len(stored)):
                trace.approximants = stored[:k] + [stored[k] + 1e-9] + stored[k + 1 :]
                report = check_barycentric(trace, d)
                assert not report.passed
                assert report.details == [f"step {k + 1}: drift 1.000e-09"]
                assert report == _barycentric_reference(trace, d)

    def test_non_unit_iacc_phase_fails(self):
        for d, trace in self.traces("iacc"):
            trace.records[4] = dataclasses.replace(trace.records[4], phase=1j)
            report = check_barycentric(trace, d)
            assert not report.passed
            assert "step 5: non-unit weight phase" in report.details
            assert report == _barycentric_reference(trace, d)

    def test_iacc_weights_summed_left_to_right(self):
        # Six distinct atoms by m = 6 weigh 1/6 each. Added left to right they
        # make 0.9999999999999999; a compensated sum (math.fsum, or the built-in
        # sum from Python 3.12 on) makes 1.0, which would move the margin.
        d = generate_dictionary(LpSpace(2.0, 6), 6, "canonical")
        trace = trace_from_norms([1.0] * 7, algorithm="iacc")
        trace.records = [dataclasses.replace(r, selected_index=r.m - 1) for r in trace.records]
        trace.approximants = [d.atoms[:m].sum(axis=0) / m for m in range(1, 7)]
        assert math.fsum([1 / 6] * 6) == 1.0
        report = check_barycentric(trace, d)
        assert report.passed
        assert report.worst_margin == 1e-12 - (1.0 - 0.9999999999999999) == 1e-12 - 2.0**-53
        assert report == _barycentric_reference(trace, d)

    def test_approximants_shorter_than_records(self):
        d, trace = next(self.traces("iac"))
        trace.approximants = trace.approximants[:7]
        report = check_barycentric(trace, d)
        assert report.samples == 40
        assert report == _barycentric_reference(trace, d)
