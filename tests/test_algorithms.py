import dataclasses

import mpmath
import numpy as np
import pytest

from lpgreedy import (
    Dictionary,
    SolverConfig,
    InfeasibleSelectionError,
    LpSpace,
    RelaxationSchedule,
    TargetSpec,
    WeaknessSequence,
    dict_dual_norm,
    epsilon_schedule,
    generate_dictionary,
    make_target,
    minimize_free_relax,
    minimize_over_line,
    norming_functional,
    read_trace_csv,
    run_gawr,
    run_iac,
    run_iacc,
    run_wgafr,
    smoothness_params,
    weak_select,
)
from lpgreedy import algorithms, solvers
from lpgreedy.algorithms import _greedy_loop
from lpgreedy.dictionaries import _selections
from lpgreedy.analysis import check_barycentric, check_monotone


def canonical_setup(dim=2):
    space = LpSpace(2.0, dim)
    return space, generate_dictionary(space, dim, "canonical")


def exact_target(f, membership="a1"):
    f = np.asarray(f, dtype=complex)
    return TargetSpec(f=f, f_eps=f, eps=0.0, A_eps=1.0, membership=membership)


class TestSchedules:
    def test_harmonic_relaxation(self):
        r = RelaxationSchedule.harmonic()
        assert r.value(1) == pytest.approx(2.0 / 3.0, abs=1e-15)
        assert r.value(2) == pytest.approx(0.5, abs=1e-15)
        assert r.value(3) == pytest.approx(0.4, abs=1e-15)

    def test_constant_relaxation_range(self):
        with pytest.raises(ValueError):
            RelaxationSchedule.constant(1.0)
        assert RelaxationSchedule.constant(0.0).value(5) == 0.0

    def test_custom_relaxation_exhaustion(self):
        r = RelaxationSchedule.custom([0.5, 0.25])
        assert r.value(2) == 0.25
        with pytest.raises(ValueError, match="entries"):
            r.value(3)

    def test_weakness_constant_range(self):
        with pytest.raises(ValueError):
            WeaknessSequence.constant(0.0)
        with pytest.raises(ValueError):
            WeaknessSequence.constant(1.5)
        assert WeaknessSequence.constant(0.5).value(99) == 0.5

    def test_weakness_general(self):
        tau = WeaknessSequence.general([1.0, 0.5, 0.0])
        assert [tau.value(m) for m in (1, 2, 3)] == [1.0, 0.5, 0.0]
        with pytest.raises(ValueError, match="entries"):
            tau.value(4)

    def test_epsilon_schedule_hilbert(self):
        params = smoothness_params(LpSpace(2.0, 4))
        assert epsilon_schedule(1.0, params, 1) == pytest.approx(
            np.sqrt(0.5), abs=1e-12
        )
        assert epsilon_schedule(1.0, params, 4) == pytest.approx(
            np.sqrt(0.5) / 2.0, abs=1e-12
        )
        assert epsilon_schedule(2.0, params, 1) == pytest.approx(
            2.0 * np.sqrt(0.5), abs=1e-12
        )

    def test_epsilon_schedule_p_1_5_high_precision(self):
        params = smoothness_params(LpSpace(1.5, 4))
        expected = float(
            (mpmath.mp.mpf(2) / 3) ** (mpmath.mp.mpf(2) / 3) / 2
        )
        assert epsilon_schedule(1.0, params, 8) == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(0.38157, abs=1e-5)

    def test_epsilon_schedule_decreasing(self):
        params = smoothness_params(LpSpace(3.0, 4))
        values = [epsilon_schedule(1.0, params, n) for n in range(1, 20)]
        assert all(b < a for a, b in zip(values, values[1:]))
        assert all(v > 0 for v in values)

    def test_epsilon_schedule_validation(self):
        params = smoothness_params(LpSpace(2.0, 4))
        with pytest.raises(ValueError, match="K1"):
            epsilon_schedule(0.0, params, 1)
        with pytest.raises(ValueError, match="n"):
            epsilon_schedule(1.0, params, 0)

    def test_epsilon_schedule_n_must_be_whole(self):
        params = smoothness_params(LpSpace(1.5, 4))
        with pytest.raises(ValueError, match="n must be an integer >= 1; got 2.5"):
            epsilon_schedule(1.0, params, 2.5)
        assert epsilon_schedule(1.0, params, 16.0) == epsilon_schedule(1.0, params, 16)

    def test_epsilon_schedule_non_finite_k1(self):
        params = smoothness_params(LpSpace(2.0, 4))
        for K1 in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="K1"):
                epsilon_schedule(K1, params, 1)


class TestWgafr:
    def test_one_term_target(self):
        space = LpSpace(2.0, 6)
        d = generate_dictionary(space, 12, "gaussian", seed=1)
        target = make_target(d, "a1", 1, seed=2)
        trace = run_wgafr(space, d, target, WeaknessSequence.constant(1.0), 5)
        assert trace.records[0].residual_norm <= 1e-10
        assert trace.stop_reason == "residual_below_threshold"

    def test_hand_two_step_trace(self):
        space, d = canonical_setup()
        trace = run_wgafr(space, d, exact_target([0.5, 0.5]),
                          WeaknessSequence.constant(1.0), 5)
        norms = trace.residual_norms()
        assert norms[0] == pytest.approx(np.sqrt(0.5), abs=1e-12)
        assert norms[1] == pytest.approx(0.5, abs=1e-9)
        assert norms[2] <= 1e-10

    def test_orthonormal_exactness(self):
        space = LpSpace(2.0, 8)
        d = generate_dictionary(space, 8, "canonical")
        for k in (2, 5):
            target = make_target(d, "a1", k, seed=100 + k)
            trace = run_wgafr(space, d, target, WeaknessSequence.constant(1.0), k + 3)
            norms = trace.residual_norms()
            assert norms[k] <= 1e-8
            assert norms[k - 1] > 1e-8

    def test_monotone_and_deterministic(self):
        space = LpSpace(1.5, 8)
        d = generate_dictionary(space, 16, "gaussian", seed=3)
        target = make_target(d, "a1", 4, seed=4)
        tau = WeaknessSequence.constant(0.5)
        a = run_wgafr(space, d, target, tau, 25, policy="first_qualifying")
        b = run_wgafr(space, d, target, tau, 25, policy="first_qualifying")
        assert check_monotone(a).passed
        assert a.to_csv_string() == b.to_csv_string()

    def test_zero_target_rejected(self):
        space, d = canonical_setup()
        with pytest.raises(ValueError, match="nonzero"):
            run_wgafr(space, d, exact_target([0, 0]), WeaknessSequence.constant(1.0), 3)

    def test_iters_must_be_whole(self):
        space = LpSpace(1.5, 6)
        d = generate_dictionary(space, 12, "gaussian", seed=1)
        target = make_target(d, "a1", 4, seed=2)
        tau = WeaknessSequence.constant(1.0)
        assert len(run_wgafr(space, d, target, tau, 3.0).records) == 3
        for iters in (2.5, 0):
            with pytest.raises(ValueError, match=f"iters must be an integer >= 1; got {iters}"):
                run_wgafr(space, d, target, tau, iters)

    def test_short_weakness_sequence_refused_before_any_solve(self, monkeypatch):
        space = LpSpace(1.5, 6)
        d = generate_dictionary(space, 12, "gaussian", seed=1)
        target = make_target(d, "a1", 4, seed=2)
        solves = []
        original = algorithms._free_relax
        monkeypatch.setattr(algorithms, "_free_relax", lambda *a: solves.append(a) or original(*a))
        tau = WeaknessSequence.general([1.0, 0.9])
        with pytest.raises(ValueError, match="weakness sequence has 2 entries, fewer than iters = 5"):
            run_wgafr(space, d, target, tau, 5)
        assert solves == []
        assert len(run_wgafr(space, d, target, tau, 2).records) == 2

    def test_trace_schema(self):
        space, d = canonical_setup()
        trace = run_wgafr(space, d, exact_target([0.5, 0.5]),
                          WeaknessSequence.constant(1.0), 4)
        ms = [r.m for r in trace.records]
        assert ms == sorted(ms) and ms[0] == 1
        assert all(r.eps_m is None for r in trace.records)
        assert all(r.residual_norm >= 0 for r in trace.records)
        assert all(r.dual_norm > 0 for r in trace.records)


class TestTinyAtoms:
    @pytest.mark.parametrize("algorithm", ["wgafr", "gawr"])
    def test_relaxed_loops_complete(self, algorithm):
        # The atom's sum of squares underflows to 0; the constructor accepts
        # it, and the inner solve scales it by its largest entry.
        space = LpSpace(1.5, 4)
        rng = np.random.default_rng(97)
        phi = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        d = Dictionary(space, [1e-170 * phi])
        target = exact_target(rng.standard_normal(4) + 1j * rng.standard_normal(4))
        tau = WeaknessSequence.constant(1.0)
        if algorithm == "wgafr":
            trace = run_wgafr(space, d, target, tau, 3)
        else:
            trace = run_gawr(space, d, target, tau, RelaxationSchedule.harmonic(), 3)
        assert len(trace) == 3
        assert trace.residual_norms()[1] < trace.initial_residual_norm
        assert check_monotone(trace).passed


class TestGawr:
    def test_pure_greedy_zeroes_coordinates(self):
        space, d = canonical_setup()
        trace = run_gawr(space, d, exact_target([0.6, 0.8]),
                         WeaknessSequence.constant(1.0),
                         RelaxationSchedule.constant(0.0), 5)
        norms = trace.residual_norms()
        assert [r.selected_index for r in trace.records[:2]] == [1, 0]
        assert norms[1] == pytest.approx(0.6, abs=1e-9)
        assert norms[2] <= 1e-10

    def test_one_term_target_r0(self):
        space = LpSpace(2.0, 4)
        d = generate_dictionary(space, 8, "gaussian", seed=5)
        target = make_target(d, "a1", 1, seed=6)
        trace = run_gawr(space, d, target, WeaknessSequence.constant(1.0),
                         RelaxationSchedule.constant(0.0), 4)
        assert trace.records[0].residual_norm <= 1e-10

    @pytest.mark.parametrize("schedule", ["tau", "r"])
    def test_short_schedule_refused_before_any_solve(self, schedule, monkeypatch):
        space = LpSpace(1.5, 6)
        d = generate_dictionary(space, 12, "gaussian", seed=1)
        target = make_target(d, "a1", 4, seed=2)
        solves = []
        original = algorithms._descend
        monkeypatch.setattr(algorithms, "_descend", lambda *a: solves.append(a) or original(*a))
        tau, r = WeaknessSequence.constant(1.0), RelaxationSchedule.harmonic()
        if schedule == "tau":
            tau, name = WeaknessSequence.general([1.0, 0.9]), "weakness sequence"
        else:
            r, name = RelaxationSchedule.custom([0.5, 0.3]), "relaxation schedule"
        with pytest.raises(ValueError, match=f"{name} has 2 entries, fewer than iters = 5"):
            run_gawr(space, d, target, tau, r, 5)
        assert solves == []
        assert len(run_gawr(space, d, target, tau, r, 2).records) == 2

    def test_harmonic_recorded_in_trace(self):
        space = LpSpace(2.0, 6)
        d = generate_dictionary(space, 12, "gaussian", seed=7)
        target = make_target(d, "a1", 3, seed=8)
        trace = run_gawr(space, d, target, WeaknessSequence.constant(1.0),
                         RelaxationSchedule.harmonic(), 3)
        recorded = [r.w_or_r.real for r in trace.records]
        np.testing.assert_allclose(recorded, [2 / 3, 1 / 2, 2 / 5], atol=1e-15)

    def test_long_run_decays(self):
        # decay proxy: residual at m = 500 beats m = 10 by a wide factor
        space = LpSpace(2.0, 8)
        d = generate_dictionary(space, 16, "gaussian", seed=9)
        target = make_target(d, "a1", 4, seed=10)
        trace = run_gawr(space, d, target, WeaknessSequence.constant(1.0),
                         RelaxationSchedule.harmonic(), 500)
        norms = trace.residual_norms()
        assert norms[min(500, len(norms) - 1)] <= norms[10] / 3.0


class TestIac:
    def test_single_atom_target(self):
        space = LpSpace(2.0, 4)
        d = generate_dictionary(space, 8, "gaussian", seed=11)
        f = d.atoms[3]
        trace = run_iac(space, d, exact_target(f), 1.0, 3)
        assert trace.records[0].selected_index == 3
        assert trace.records[0].residual_norm <= 1e-10

    def test_hand_two_step_trace_with_tie_break(self):
        # Symmetric target over the canonical pair: scores tie at both
        # steps under the smallest-index rule, so step 2 re-selects atom 0
        # with the opposite phase and the averaged approximant cancels.
        space, d = canonical_setup()
        trace = run_iac(space, d, exact_target([0.5, 0.5]), 1.0, 2)
        norms = trace.residual_norms()
        assert [r.selected_index for r in trace.records] == [0, 0]
        phases = [r.phase for r in trace.records]
        assert phases[0] == pytest.approx(1.0 + 0j, abs=1e-12)
        assert phases[1] == pytest.approx(-1.0 + 0j, abs=1e-12)
        assert norms[1] == pytest.approx(np.sqrt(0.5), abs=1e-12)
        assert norms[2] == pytest.approx(np.sqrt(0.5), abs=1e-12)
        np.testing.assert_allclose(trace.approximants[1], [0.0, 0.0], atol=1e-15)

    def test_schedule_values_recorded(self):
        space = LpSpace(2.0, 4)
        d = generate_dictionary(space, 8, "gaussian", seed=12)
        target = make_target(d, "a1", 2, seed=13)
        trace = run_iac(space, d, target, 1.0, 4)
        eps = [r.eps_m for r in trace.records]
        assert eps[0] == pytest.approx(np.sqrt(0.5), abs=1e-12)
        assert eps[3] == pytest.approx(np.sqrt(0.5) / 2.0, abs=1e-12)

    def test_membership_preconditions(self):
        space = LpSpace(2.0, 4)
        d = generate_dictionary(space, 8, "gaussian", seed=14)
        conv_target = make_target(d, "conv", 2, seed=15)
        with pytest.raises(ValueError, match="a1"):
            run_iac(space, d, conv_target, 1.0, 3)
        noisy = make_target(d, "a1", 2, eps=0.1, seed=16)
        with pytest.raises(ValueError, match="eps"):
            run_iac(space, d, noisy, 1.0, 3)

    def test_infeasible_membership_detected(self):
        # a TargetSpec lying about membership is caught by the selector
        space, d = canonical_setup()
        liar = exact_target([2.0, 0.0])  # ||f||_1 = 2 > 1
        with pytest.raises(InfeasibleSelectionError):
            run_iac(space, d, liar, 1.0, 3)

    def test_barycentric_reconstruction(self):
        space = LpSpace(1.5, 6)
        d = generate_dictionary(space, 12, "gaussian", seed=17)
        target = make_target(d, "a1", 4, seed=18)
        trace = run_iac(space, d, target, 1.0, 60)
        report = check_barycentric(trace, d)
        assert report.passed, report.worst_margin

    def test_phases_unit_modulus(self):
        space = LpSpace(3.0, 6)
        d = generate_dictionary(space, 12, "gaussian", seed=19)
        target = make_target(d, "a1", 3, seed=20)
        trace = run_iac(space, d, target, 1.0, 30)
        for r in trace.records:
            assert abs(abs(r.phase) - 1.0) <= 1e-12


class TestIacc:
    def test_single_atom_target(self):
        space = LpSpace(2.0, 4)
        d = generate_dictionary(space, 8, "gaussian", seed=21)
        f = d.atoms[5]
        trace = run_iacc(space, d, exact_target(f, "conv"), 1.0, 3)
        assert trace.records[0].residual_norm <= 1e-10

    def test_hand_two_step_trace(self):
        # Plain scores break the symmetry at step 2: distinct atoms are
        # selected and the average reproduces the target exactly.
        space, d = canonical_setup()
        trace = run_iacc(space, d, exact_target([0.5, 0.5], "conv"), 1.0, 3)
        norms = trace.residual_norms()
        assert [r.selected_index for r in trace.records[:2]] == [0, 1]
        assert norms[1] == pytest.approx(np.sqrt(0.5), abs=1e-12)
        assert norms[2] <= 1e-12

    def test_weights_counts_over_m(self):
        space = LpSpace(2.0, 6)
        d = generate_dictionary(space, 12, "gaussian", seed=22)
        target = make_target(d, "conv", 4, seed=23)
        trace = run_iacc(space, d, target, 1.0, 40)
        counts: dict[int, int] = {}
        for record in trace.records:
            counts[record.selected_index] = counts.get(record.selected_index, 0) + 1
            m = record.m
            weights = np.array(sorted(c / m for c in counts.values()))
            assert weights.min() > 0.0
            assert weights.sum() == pytest.approx(1.0, abs=1e-12)
            rebuilt = np.zeros(space.dim, dtype=complex)
            for idx, c in counts.items():
                rebuilt += (c / m) * d.atoms[idx]
            np.testing.assert_allclose(rebuilt, trace.approximants[m - 1], atol=1e-10)

    def test_membership_preconditions(self):
        space = LpSpace(2.0, 4)
        d = generate_dictionary(space, 8, "gaussian", seed=24)
        a1_target = make_target(d, "a1", 2, seed=25)
        with pytest.raises(ValueError, match="conv"):
            run_iacc(space, d, a1_target, 1.0, 3)


class TestSharedLoop:
    @pytest.mark.parametrize(
        "f, message",
        [([1.0, 0.0, 0.0], "v has shape (3,), expected (2,) for this space"),
         ([1.0, np.nan], "v contains non-finite entries"),
         ([np.inf, 1.0], "v contains non-finite entries")],
        ids=["shape", "nan", "inf"],
    )
    def test_bad_target_refused_with_lp_norms_texts(self, f, message):
        # The shape, then the largest magnitude (NaN or inf fails it): lp_norm's texts.
        space, d = canonical_setup()
        with pytest.raises(ValueError) as alone:
            run_iac(space, d, exact_target(f), 1.0, 3)
        assert str(alone.value) == message
        batch = run_iac([space] * 2, [d, d], [exact_target([0.5, 0.5]), exact_target(f)], 1.0, 3)
        assert len(batch[0].records) == 3 and str(batch[1]) == message

    @pytest.mark.parametrize("with_zero_atom", [True, False])
    @pytest.mark.parametrize("loop", ["wgafr", "gawr"])
    def test_zero_dual_norm_stops_run(self, loop, with_zero_atom):
        # The target e3 has disjoint support from every atom, so F(g) = 0
        # for each atom g and no step can reduce the residual.
        space = LpSpace(1.5, 3)
        atoms = [[1, 0, 0], [0, 1, 0]]
        if with_zero_atom:
            atoms = [[0, 0, 0]] + atoms
        d = Dictionary(space=space, atoms=np.array(atoms, dtype=complex))
        tau = WeaknessSequence.constant(1.0)
        target = exact_target([0, 0, 1])
        if loop == "wgafr":
            trace = run_wgafr(space, d, target, tau, 5)
        else:
            trace = run_gawr(space, d, target, tau, RelaxationSchedule.harmonic(), 5)
        assert trace.stop_reason == "stagnated_zero_dual_norm"
        assert trace.records == [] and trace.approximants == []
        assert trace.residual_norms().tolist() == [1.0]

    @pytest.mark.parametrize("p", [1.5, 3.0])
    @pytest.mark.parametrize("loop", ["wgafr", "gawr", "iac", "iacc"])
    def test_recorded_dual_norm_is_full_scan(self, loop, p):
        space = LpSpace(p, 6)
        d = generate_dictionary(space, 12, "gaussian", seed=30)
        target = make_target(d, "conv" if loop == "iacc" else "a1", 3, seed=31)
        tau = WeaknessSequence.constant(1.0)
        runs = {
            "wgafr": lambda: run_wgafr(space, d, target, tau, 6),
            "gawr": lambda: run_gawr(space, d, target, tau, RelaxationSchedule.harmonic(), 6),
            "iac": lambda: run_iac(space, d, target, 1.0, 6),
            "iacc": lambda: run_iacc(space, d, target, 1.0, 6),
        }
        trace = runs[loop]()
        assert len(trace.records) == 6
        previous = [np.zeros(space.dim, dtype=complex)] + trace.approximants[:-1]
        for record, G in zip(trace.records, previous):
            F = norming_functional(space, target.f - G)
            assert record.dual_norm == dict_dual_norm(F, d)[0]


    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_residual_raises_at_its_step(self, bad):
        space = LpSpace(1.5, 4)
        d = generate_dictionary(space, 8, "gaussian", seed=3)
        target = make_target(d, "a1", 3, seed=4)
        steps = []

        def select(m, live, coeffs, atoms, f):
            return _selections(coeffs, atoms, "argmax")

        def update(m, live, f, G, sels, phis):  # rows of G and a list of phis, a batch of one
            steps.append(m)
            G = 0.5 * G + 0.25 * np.asarray(phis)
            if m == 3:
                G[0, 1] = bad
            return G, [(0.25, 0.5, None, True)]

        with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="non-finite"):
            _greedy_loop(space, d, target, 6, "wgafr", select, update)
        assert steps == [1, 2, 3]


def _replayed_steps(p, seeds=range(6)):
    """Every wgafr/gawr step of seeded dim-16 runs, replayed through the public solvers.

    Yields (loop, record, result, zero_start): the loop, the trace row, the
    public solve on that step's inputs, and, for p != 2, the Newton
    iterations of the same solve started at 0 instead of at the
    least-squares point (None at p = 2, where no Newton step runs).
    """
    space = LpSpace(p, 16)
    tau, schedule = WeaknessSequence.constant(1.0), RelaxationSchedule.harmonic()
    for seed in seeds:
        d = generate_dictionary(space, 32, "gaussian", seed=200 + seed)
        target = make_target(d, "a1", 8, seed=300 + seed)
        for loop in ("wgafr", "gawr"):
            if loop == "wgafr":
                trace = run_wgafr(space, d, target, tau, 10)
            else:
                trace = run_gawr(space, d, target, tau, schedule, 10)
            previous = [np.zeros(16, dtype=complex)] + trace.approximants[:-1]
            for record, G in zip(trace.records, previous):
                phi = d.atoms[record.selected_index]
                if loop == "wgafr":
                    result = minimize_free_relax(space, target.f, G, phi)
                    base, directions = target.f - G, np.column_stack([-G, phi])
                else:
                    base = target.f - (1.0 - record.w_or_r.real) * G
                    result = minimize_over_line(space, base, phi)
                    directions = phi[:, None]
                zero = None if p == 2.0 else _zero_start_iterations(space, base, directions)
                yield loop, record, result, zero


def _zero_start_iterations(space, base, directions):
    """Newton iterations of the solve of ``base`` by ``directions`` started at 0.

    Zero columns are left out and the rest are unit-scaled, and a single
    direction takes the one-column model, as in ``solvers._descend``.
    """
    one = directions.shape[1] == 1
    directions = directions[:, directions.any(axis=0)]
    cols = np.ascontiguousarray(directions / np.sqrt((np.abs(directions) ** 2).sum(axis=0)))
    if one:
        kernel, start = solvers._Column(cols[:, 0]), 0j
    else:
        kernel = solvers._Columns(cols, np.linalg.qr(np.conj(cols))[0])
        start = np.zeros(cols.shape[1], dtype=complex)
    with np.errstate(invalid="ignore"):  # as in _descend
        _, _, _, iterations, _ = solvers._newton(
            space.p, space.p_conjugate, base, kernel, start, SolverConfig()
        )
    return iterations


class TestLoopCallsTheSolverCore:
    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    def test_recorded_coefficients_are_the_public_solve(self, p):
        # The loops call the array core; the public solvers must give the
        # same (w, lam) bit for bit on the same inputs.
        for loop, record, result, _ in _replayed_steps(p):
            if loop == "wgafr":
                want = np.array([record.w_or_r, record.lam])
            else:
                want = np.array([record.lam])
            assert result.minimizer.tobytes() == want.tobytes()
            assert result.converged is record.solver_converged

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    def test_least_squares_start_saves_newton_iterations(self, p):
        # Measured on these inputs: 0.79x the zero start's iterations at
        # p = 1.5 and at p = 3; p = 2 takes no Newton step at all.
        least, zero = [], []
        for _, _, result, zero_start in _replayed_steps(p):
            least.append(result.iterations)
            zero.append(zero_start)
        if p == 2.0:
            assert least == [0] * len(least)
        else:
            assert sum(least) <= 0.85 * sum(zero)


class TestTraceSerialization:
    def make_trace(self):
        space = LpSpace(2.0, 6)
        d = generate_dictionary(space, 12, "gaussian", seed=26)
        target = make_target(d, "a1", 3, seed=27)
        trace = run_iac(space, d, target, 1.0, 8)
        trace.config_hash = "cafe" * 16
        return trace

    def test_csv_round_trip(self, tmp_path):
        trace = self.make_trace()
        path = tmp_path / "trace.csv"
        trace.write_csv(path)
        meta, records = read_trace_csv(path)
        assert meta["algorithm"] == "iac"
        assert meta["config_hash"] == "cafe" * 16
        assert len(records) == len(trace.records)
        for got, want in zip(records, trace.records):
            assert got.m == want.m
            assert got.selected_index == want.selected_index
            assert got.phase == want.phase
            assert got.lam == want.lam
            assert got.w_or_r == want.w_or_r
            assert got.residual_norm == want.residual_norm
            assert got.dual_norm == want.dual_norm
            assert got.eps_m == want.eps_m
            assert got.solver_converged == want.solver_converged

    def test_fixed_column_order(self):
        trace = self.make_trace()
        header = trace.to_csv_string().splitlines()[1]
        assert header == (
            "m,algo,selected_index,phase_re,phase_im,lambda_re,lambda_im,"
            "w_or_r_re,w_or_r_im,residual_norm,dual_norm,eps_m,solver_converged"
        )

    def test_corrupted_field_reports_line_number(self, tmp_path):
        trace = self.make_trace()
        path = tmp_path / "trace.csv"
        lines = trace.to_csv_string().splitlines()
        lines[4] = lines[4].replace(lines[4].split(",")[9], "not-a-number", 1)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="line 5"):
            read_trace_csv(path)

    def test_missing_header_reports_line_number(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text("m,algo\n1,wgafr\n")
        with pytest.raises(ValueError, match="line 1"):
            read_trace_csv(path)

    def rewritten(self, tmp_path, edit):
        """The path of the trace CSV with its lines passed through ``edit``."""
        lines = self.make_trace().to_csv_string().splitlines()
        path = tmp_path / "trace.csv"
        path.write_text("\n".join(edit(lines)) + "\n")
        return path

    def refusal(self, path) -> str:
        with pytest.raises(ValueError) as info:
            read_trace_csv(path)
        return str(info.value)

    def test_wrong_column_header_is_refused_on_line_2(self, tmp_path):
        path = self.rewritten(tmp_path, lambda lines: [lines[0], lines[1][:-1], *lines[2:]])
        assert self.refusal(path) == (
            f"{path}: line 2: expected column header m,algo,selected_index,phase_re,phase_im,"
            "lambda_re,lambda_im,w_or_r_re,w_or_r_im,residual_norm,dual_norm,eps_m,"
            "solver_converged")

    def test_row_with_wrong_field_count_is_refused_with_its_line(self, tmp_path):
        path = self.rewritten(tmp_path, lambda lines: [*lines[:5], lines[5] + ",1", *lines[6:]])
        assert self.refusal(path) == f"{path}: line 6: expected 13 fields, got 14"
        path = self.rewritten(tmp_path, lambda lines: [*lines[:3], lines[3].rsplit(",", 2)[0]])
        assert self.refusal(path) == f"{path}: line 4: expected 13 fields, got 11"

    def test_blank_rows_are_skipped(self, tmp_path):
        path = self.rewritten(tmp_path, lambda lines: [*lines[:3], "", "   ", *lines[3:], ""])
        assert read_trace_csv(path)[1] == self.make_trace().records

    def test_quoted_cells_parse_as_the_bare_ones(self, tmp_path):
        def quoted(lines):
            return [*lines[:2], *(",".join(f'"{cell}"' for cell in line.split(","))
                                  for line in lines[2:])]

        assert read_trace_csv(self.rewritten(tmp_path, quoted))[1] == self.make_trace().records

    @pytest.mark.parametrize("cell", ["maybe", "True", "False", "1", ""])
    def test_solver_converged_other_than_true_or_false_is_refused(self, tmp_path, cell):
        def edit(lines):
            lines[4] = lines[4].rsplit(",", 1)[0] + "," + cell
            return lines

        path = self.rewritten(tmp_path, edit)
        assert self.refusal(path) == f"{path}: line 5: expected true or false, got {cell!r}"

    def test_algo_cell_other_than_the_header_algorithm_is_refused(self, tmp_path):
        def edit(lines):
            lines[6] = lines[6].replace(",iac,", ",gawr,", 1)
            return lines

        path = self.rewritten(tmp_path, edit)
        assert self.refusal(path) == (
            f"{path}: line 7: algo 'gawr' is not the header's algorithm=iac")

    def test_the_table_lists_every_record_field_in_order(self):
        table_fields = [name for _, name, _ in algorithms._TRACE_CSV if name != "algorithm"]
        assert table_fields == [f.name for f in dataclasses.fields(algorithms.TraceRecord)]
