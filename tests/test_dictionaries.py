import dataclasses
import struct
import threading

import mpmath
import numpy as np
import pytest

from lpgreedy import (
    Dictionary,
    DualFunctional,
    InfeasibleSelectionError,
    LpSpace,
    TargetSpec,
    dict_dual_norm,
    eps_select,
    generate_dictionary,
    lp_norm,
    make_target,
    norming_functional,
    complex_sign,
    weak_select,
)
from lpgreedy import dictionaries
from lpgreedy.dictionaries import DICTIONARY_KINDS
from lpgreedy.spaces import _BLOCK_ENTRIES, _norm_block, _norm_mags, _norm_rows, _row_blocks


class TestGenerateDictionary:
    def test_canonical_is_identity(self):
        space = LpSpace(2.0, 3)
        d = generate_dictionary(space, 3, "canonical")
        np.testing.assert_array_equal(d.atoms, np.eye(3, dtype=complex))
        assert [lp_norm(space, a) for a in d.atoms] == [1.0, 1.0, 1.0]

    def test_canonical_count_mismatch(self):
        with pytest.raises(ValueError, match="count == dim"):
            generate_dictionary(LpSpace(2.0, 3), 4, "canonical")

    def test_gaussian_deterministic(self):
        space = LpSpace(2.0, 8)
        a = generate_dictionary(space, 32, "gaussian", seed=7)
        b = generate_dictionary(space, 32, "gaussian", seed=7)
        np.testing.assert_array_equal(a.atoms, b.atoms)
        c = generate_dictionary(space, 32, "gaussian", seed=8)
        assert not np.array_equal(a.atoms, c.atoms)

    @pytest.mark.parametrize("kind,count", [("gaussian", 20), ("fourier_frame", 16)])
    def test_unit_norms_p3(self, kind, count):
        space = LpSpace(3.0, 8)
        d = generate_dictionary(space, count, kind, seed=1)
        norms = np.array([lp_norm(space, a) for a in d.atoms])
        assert norms.max() <= 1.0 + 1e-12
        assert norms.min() >= 1.0 - 1e-12

    @pytest.mark.parametrize("p", [1.01, 1.5, 2.0, 3.0, 64.0])
    @pytest.mark.parametrize("kind", DICTIONARY_KINDS)
    def test_generated_atoms_pass_the_constructor_checks(self, kind, p):
        # generate_dictionary wraps its atoms without re-running the
        # constructor's checks; a copy of them must pass those checks.
        space = LpSpace(p, 8)
        d = generate_dictionary(space, 8 if kind == "canonical" else 24, kind, seed=5)
        checked = Dictionary(space, d.atoms.copy(), kind, 5)
        assert checked.atoms.tobytes() == d.atoms.tobytes()
        assert not d.atoms.flags.writeable
        assert (d.space, d.kind, d.seed) == (space, kind, 5)

    def test_count_must_be_whole(self):
        space = LpSpace(2.0, 4)
        assert len(generate_dictionary(space, 16.0, "gaussian")) == 16
        for count in (8.7, 0):
            with pytest.raises(ValueError, match=f"count must be an integer >= 1; got {count}"):
                generate_dictionary(space, count, "gaussian")

    def test_fourier_requires_oversampling(self):
        with pytest.raises(ValueError, match="count >= dim"):
            generate_dictionary(LpSpace(2.0, 8), 4, "fourier_frame")

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="kind"):
            generate_dictionary(LpSpace(2.0, 4), 4, "hadamard")

    def test_atoms_immutable(self):
        d = generate_dictionary(LpSpace(2.0, 4), 4, "canonical")
        with pytest.raises(ValueError):
            d.atoms[0, 0] = 5.0

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    def test_gaussian_draw_pinned(self, p):
        # real parts are the first standard_normal draw, imaginary parts the second
        space = LpSpace(p, 12)
        rng = np.random.default_rng(5)
        atoms = rng.standard_normal((24, 12)) + 1j * rng.standard_normal((24, 12))
        atoms /= _norm_rows(p, atoms)[:, None]
        d = generate_dictionary(space, 24, "gaussian", seed=5)
        assert d.atoms.tobytes() == atoms.tobytes()
        assert not d.atoms.flags.writeable

    @pytest.mark.parametrize("p", [1.5, 3.0])
    def test_gaussian_draw_pinned_above_block_size(self, p):
        # a dictionary of several row blocks (the last one short) draws and
        # normalizes exactly as one standard_normal call per part would
        dim, count = 1000, 150
        assert count * dim > 2 * _BLOCK_ENTRIES
        rng = np.random.default_rng(9)
        atoms = rng.standard_normal((count, dim)) + 1j * rng.standard_normal((count, dim))
        atoms /= np.array([_norm_mags(p, np.abs(row)) for row in atoms])[:, None]
        d = generate_dictionary(LpSpace(p, dim), count, "gaussian", seed=9)
        assert d.atoms.tobytes() == atoms.tobytes()

    def test_blocked_dictionary_equals_a_serial_oracle(self):
        # Drawn on this thread, placed and normalized on a worker, block by
        # block, with a short last block: the bits of one serial pass.
        dim, count, p = 2048, 70, 3.0
        blocks = _row_blocks(np.empty((count, dim)))
        assert [min(blocks.step, count - start) for start in blocks] == [32, 32, 6]
        rng = np.random.default_rng(17)
        atoms = rng.standard_normal((count, dim)) + 1j * rng.standard_normal((count, dim))
        atoms /= np.array([_norm_mags(p, np.abs(row)) for row in atoms])[:, None]
        before = threading.enumerate()
        d = generate_dictionary(LpSpace(p, dim), count, "gaussian", seed=17)
        assert threading.enumerate() == before
        assert d.atoms.tobytes() == atoms.tobytes()

    def test_worker_exception_comes_out_and_leaves_no_thread(self, monkeypatch):
        calls = []

        def failing(p, rows):
            calls.append(len(rows))
            if len(calls) == 2:
                raise RuntimeError("norm of the second block")
            return _norm_block(p, rows)

        monkeypatch.setattr(dictionaries, "_norm_block", failing)
        before = threading.enumerate()
        with pytest.raises(RuntimeError, match="norm of the second block"):
            generate_dictionary(LpSpace(1.5, 2048), 70, "gaussian", seed=3)
        assert threading.enumerate() == before
        assert calls[:2] == [32, 32]

    @pytest.mark.parametrize("kind, dim, count", [("gaussian", 16, 32), ("gaussian", 32, 2048),
                                                  ("fourier_frame", 16, 64), ("canonical", 8, 8)])
    def test_a_single_block_dictionary_starts_no_thread(self, monkeypatch, kind, dim, count):
        def refuse(thread):
            raise AssertionError(f"thread {thread.name} started")

        monkeypatch.setattr(threading.Thread, "start", refuse)
        assert len(dictionaries._dictionaries(LpSpace(2.0, dim), count, kind, [1, 2])) == 2

    @pytest.mark.parametrize("p", [1.5, 3.0])
    def test_fourier_atoms_match_40_digit_values(self, p):
        # The exponent 2 pi i k j / count is reduced mod count before it is
        # rounded, so the atoms far from the origin are as exact as the rest.
        dim, count = 512, 1024
        d = generate_dictionary(LpSpace(p, dim), count, "fourier_frame")
        worst = 0.0
        with mpmath.workdps(40):
            scale = mpmath.mpf(dim) ** (-1 / mpmath.mpf(p))
            for k in [1, 511, *range(count - 4, count)]:
                for j in [1, 255, *range(dim - 4, dim)]:
                    exact = mpmath.expjpi(mpmath.mpf(2 * (k * j % count)) / count) * scale
                    got = mpmath.mpc(d.atoms[k, j].real, d.atoms[k, j].imag)
                    worst = max(worst, float(abs(got - exact) / abs(exact)))
        assert worst <= 2e-15

    @pytest.mark.parametrize(
        "kind, dim, count",
        [("gaussian", 12, 24), ("gaussian", 1000, 150), ("fourier_frame", 8, 20),
         ("canonical", 6, 6)],
        ids=["gaussian", "gaussian_blocked", "fourier_frame", "canonical"],
    )
    def test_a_batch_is_each_seeds_dictionary_bit_for_bit(self, kind, dim, count):
        # The batch draws seed by seed and normalizes all rows in one pass.
        space, seeds = LpSpace(1.5, dim), [9, 4, 9, 31]
        batch = dictionaries._dictionaries(space, count, kind, seeds)
        for d, seed in zip(batch, seeds):
            alone = generate_dictionary(space, count, kind, seed)
            assert d.atoms.tobytes() == alone.atoms.tobytes()
            assert (d.space, d.kind, d.seed, d.atoms.flags.writeable) == (space, kind, seed, False)

    @pytest.mark.parametrize("row", [0, 70, 149])
    def test_non_finite_entry_in_any_block_rejected(self, row):
        atoms = np.zeros((150, 1000), dtype=complex)
        atoms[row, -1] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            Dictionary(space=LpSpace(2.0, 1000), atoms=atoms)

    def test_writable_input_is_copied(self):
        space = LpSpace(2.0, 2)
        atoms = np.array([[1.0 + 0j, 0.0], [0.0, 1.0]])
        d = Dictionary(space=space, atoms=atoms)
        atoms[0, 0] = 0.5
        assert d.atoms[0, 0] == 1.0 and not d.atoms.flags.writeable
        frozen_view = np.eye(2, dtype=complex)[::-1]
        frozen_view.setflags(write=False)  # read-only, but another array owns the memory
        assert not np.shares_memory(Dictionary(space=space, atoms=frozen_view).atoms, frozen_view)

    def test_read_only_owned_input_copied(self):
        atoms = np.eye(3, dtype=complex)
        atoms.setflags(write=False)
        assert not np.shares_memory(Dictionary(space=LpSpace(2.0, 3), atoms=atoms).atoms, atoms)

    def test_overnorm_atom_rejected(self):
        space = LpSpace(2.0, 2)
        with pytest.raises(ValueError, match="norm"):
            Dictionary(space=space, atoms=np.array([[1.1 + 0j, 0.0]]))


class TestDictDualNorm:
    def test_canonical_dual_of_e1(self):
        space = LpSpace(2.0, 3)
        d = generate_dictionary(space, 3, "canonical")
        F = norming_functional(space, [1, 0, 0])
        assert dict_dual_norm(F, d) == (1.0, 0)

    def test_hand_value(self):
        space = LpSpace(2.0, 3)
        d = generate_dictionary(space, 3, "canonical")
        F = norming_functional(space, [1, 0.5, 0])
        value, idx = dict_dual_norm(F, d)
        assert value == pytest.approx(1.0 / np.sqrt(1.25), abs=1e-12)
        assert value == pytest.approx(0.894427, abs=1e-6)
        assert idx == 0

    def test_zero_functional(self):
        d = generate_dictionary(LpSpace(2.0, 3), 3, "canonical")
        F = DualFunctional(np.zeros(3, dtype=complex))
        assert dict_dual_norm(F, d) == (0.0, 0)

    def test_dimension_mismatch(self):
        d = generate_dictionary(LpSpace(2.0, 3), 3, "canonical")
        F = DualFunctional(np.ones(2, dtype=complex))
        with pytest.raises(ValueError, match="dimension"):
            dict_dual_norm(F, d)


class TestWeakSelect:
    def test_argmax(self):
        space = LpSpace(2.0, 2)
        d = generate_dictionary(space, 2, "canonical")
        F = norming_functional(space, [1, 0.5])
        sel = weak_select(F, d, t=1.0)
        assert sel.index == 0
        assert sel.phase == pytest.approx(1.0 + 0j, abs=1e-12)

    def test_first_qualifying_low_threshold(self):
        space = LpSpace(2.0, 2)
        d = generate_dictionary(space, 2, "canonical")
        F = norming_functional(space, [1, 0.5])
        sel = weak_select(F, d, t=0.4, policy="first_qualifying")
        assert sel.index == 0

    def test_first_qualifying_skips_below_threshold(self):
        space = LpSpace(2.0, 3)
        d = generate_dictionary(space, 3, "canonical")
        # |F| values proportional to (0.1, 0.2, 1.0): only index 2 clears t=0.9
        F = norming_functional(space, [0.1, 0.2, 1.0])
        sel = weak_select(F, d, t=0.9, policy="first_qualifying")
        assert sel.index == 2

    def test_negative_value_phase(self):
        d = generate_dictionary(LpSpace(2.0, 2), 2, "canonical")
        F = DualFunctional(np.array([-2.0, 0.0], dtype=complex))
        sel = weak_select(F, d, t=1.0)
        assert sel.phase == pytest.approx(-1.0 + 0j, abs=1e-12)
        assert sel.phase * sel.value == pytest.approx(2.0 + 0j, abs=1e-12)

    def test_all_zero_values(self):
        d = generate_dictionary(LpSpace(2.0, 2), 2, "canonical")
        F = DualFunctional(np.zeros(2, dtype=complex))
        sel = weak_select(F, d, t=1.0)
        assert (sel.index, sel.phase, sel.value) == (0, 1.0 + 0j, 0.0 + 0j)

    def test_t_range_validated(self):
        d = generate_dictionary(LpSpace(2.0, 2), 2, "canonical")
        F = DualFunctional(np.ones(2, dtype=complex))
        for t in (1.5, -0.1, float("nan")):
            with pytest.raises(ValueError, match="t must"):
                weak_select(F, d, t=t)

    def test_t_zero_skips_atoms_that_annihilate_F(self):
        # t = 0 is a weakness value the paper allows: every atom meets it,
        # and first_qualifying takes the first atom with F(g) != 0
        space = LpSpace(2.0, 2)
        d = Dictionary(space, np.array([[0, 0], [0, 1], [0.1, 0], [1, 0]], dtype=complex))
        F = DualFunctional(np.array([1.0, 0.0], dtype=complex))
        assert weak_select(F, d, 0.0, "first_qualifying").index == 2
        assert weak_select(F, d, 0.0, "argmax").index == 3
        zero = weak_select(DualFunctional(np.zeros(2, dtype=complex)), d, 0.0, "first_qualifying")
        assert (zero.index, zero.dual_norm) == (0, 0.0)

    def test_duplicate_atoms_tie_to_smallest_index(self):
        space = LpSpace(2.0, 2)
        # |F| = (0.5, 1, 1, 1): atoms 1 and 3 are the same atom, atom 2 ties them.
        d = Dictionary(space, np.array([[0.5, 0], [0, 1], [1, 0], [0, 1]], dtype=complex))
        F = DualFunctional(np.array([1.0, 1.0], dtype=complex))
        for policy in ("argmax", "first_qualifying"):
            assert weak_select(F, d, 1.0, policy).index == 1
            for mode in ("circle", "plain"):
                assert eps_select(F, d, d.atoms[1], 0.0, mode=mode, policy=policy).index == 1

    def test_zero_atom_never_qualifies_while_dual_norm_positive(self):
        space = LpSpace(2.0, 2)
        d = Dictionary(space, np.array([[0, 0], [0.1, 0], [1, 0]], dtype=complex))
        F = DualFunctional(np.array([1.0, 0.0], dtype=complex))
        for t, expected in ((0.5, 2), (0.1, 1), (1e-6, 1)):
            sel = weak_select(F, d, t, policy="first_qualifying")
            assert (sel.index, sel.dual_norm) == (expected, 1.0)

    def test_phase_is_conjugate_sign_bit_for_bit(self):
        # the phase keeps the bits (signed zeros included) of the numpy conjugate
        def bits(z):
            return struct.pack("<dd", z.real, z.imag)

        zero, one = 0.0, 1.0
        values = [complex(a * x, b * y) for a in (one, -one) for b in (one, -one)
                  for x, y in ((zero, zero), (3.0, zero), (zero, 2.0), (0.6, -0.8), (5e-324, zero))]

        class Rows:  # one atom whose scan is exactly ``value``, signed zeros included
            shape = (1, 1)

            def __init__(self, value):
                self.value = value

            def __array_ufunc__(self, ufunc, method, rows, coeffs, out):  # np.matmul into out
                out[0][...] = self.value
                return out[0]

        # A BLAS scan sums from +0, so no real one-atom scan yields a negative-zero
        # part; each bit pattern reaches the phase rule through the stand-in rows.
        coeffs = np.array([1.0 + 0.0j])
        for value in values:
            (sel,) = dictionaries._selections([coeffs], [Rows(value)], "argmax")
            assert type(sel.phase) is complex and bits(sel.value) == bits(value)
            assert bits(sel.phase) == bits(complex(np.conj(complex_sign(value))))
            (sel,) = dictionaries._selections([coeffs], [np.array([[value]])], "argmax")
            assert bits(sel.phase) == bits(complex(np.conj(complex_sign(sel.value))))
        space = LpSpace(1.5, 6)
        d = generate_dictionary(space, 12, "gaussian", seed=2)
        rng = np.random.default_rng(18)
        for _ in range(50):
            F = norming_functional(space, rng.standard_normal(6) + 1j * rng.standard_normal(6))
            sel = weak_select(F, d, t=0.5, policy="first_qualifying")
            assert bits(sel.phase) == bits(complex(np.conj(complex_sign(sel.value))))

    def test_matches_dual_norm_argmax(self):
        space = LpSpace(3.0, 6)
        d = generate_dictionary(space, 12, "gaussian", seed=2)
        rng = np.random.default_rng(17)
        for _ in range(50):
            h = rng.standard_normal(6) + 1j * rng.standard_normal(6)
            F = norming_functional(space, h)
            sel = weak_select(F, d, t=1.0)
            assert sel.index == dict_dual_norm(F, d)[1]
            # phase contract: phase * value is |value|
            aligned = sel.phase * sel.value
            assert abs(aligned.imag) <= 1e-12
            assert aligned.real == pytest.approx(abs(sel.value), abs=1e-12)


class TestEpsSelect:
    def test_circle_on_own_atom(self):
        space = LpSpace(2.0, 4)
        d = generate_dictionary(space, 8, "gaussian", seed=3)
        f = d.atoms[0]
        F = norming_functional(space, f)
        sel = eps_select(F, d, f, eps_m=0.5, mode="circle")
        assert sel.index == 0
        aligned = sel.phase * sel.value
        assert aligned.real == pytest.approx(abs(sel.value), abs=1e-12)

    def test_plain_tie_breaks_to_smallest_index(self):
        space = LpSpace(2.0, 2)
        d = generate_dictionary(space, 2, "canonical")
        f = np.array([0.5, 0.5], dtype=complex)
        F = norming_functional(space, f)
        sel = eps_select(F, d, f, eps_m=0.1, mode="plain")
        assert sel.index == 0
        assert sel.phase == 1.0 + 0j

    def test_infeasible_target_detected(self):
        space = LpSpace(2.0, 2)
        d = generate_dictionary(space, 2, "canonical")
        f = np.array([2.0, 0.0], dtype=complex)  # far outside conv(D)
        F = norming_functional(space, f)
        with pytest.raises(InfeasibleSelectionError):
            eps_select(F, d, f, eps_m=0.0, mode="plain")
        with pytest.raises(InfeasibleSelectionError):
            eps_select(F, d, f, eps_m=0.0, mode="plain", policy="first_qualifying")

    def test_circle_feasible_where_plain_is_not(self):
        space = LpSpace(2.0, 2)
        d = generate_dictionary(space, 2, "canonical")
        f = np.array([-1.0, 0.0], dtype=complex)  # -e_1 is in A_1(D), not conv(D)
        F = norming_functional(space, f)
        sel = eps_select(F, d, f, eps_m=0.0, mode="circle")
        assert sel.index == 0
        assert sel.phase == pytest.approx(-1.0 + 0j, abs=1e-12)
        with pytest.raises(InfeasibleSelectionError):
            eps_select(F, d, f, eps_m=0.0, mode="plain")

    def test_functional_vanishing_on_every_atom(self):
        space = LpSpace(2.0, 3)
        d = Dictionary(space, np.array([[1, 0, 0], [0, 0.5, 0]], dtype=complex))
        F = DualFunctional(np.array([0, 0, 1.0], dtype=complex))
        for mode in ("circle", "plain"):
            for policy in ("argmax", "first_qualifying"):
                sel = eps_select(F, d, d.atoms[1], 0.0, mode=mode, policy=policy)
                assert (sel.index, sel.phase, sel.value, sel.dual_norm) == (0, 1.0, 0.0, 0.0)
                with pytest.raises(InfeasibleSelectionError):
                    eps_select(F, d, [0, 0, 1], 0.5, mode=mode, policy=policy)

    def test_infeasible_circle_target_under_both_policies(self):
        space = LpSpace(2.0, 2)
        d = generate_dictionary(space, 2, "canonical")
        f = np.array([2.0, 0.0], dtype=complex)  # twice an atom: outside A_1(D)
        F = norming_functional(space, f)
        for policy in ("argmax", "first_qualifying"):
            with pytest.raises(InfeasibleSelectionError, match="circle"):
                eps_select(F, d, f, eps_m=0.5, mode="circle", policy=policy)

    def test_non_finite_eps_rejected(self):
        d = generate_dictionary(LpSpace(2.0, 2), 2, "canonical")
        F = DualFunctional(np.ones(2, dtype=complex))
        for eps_m in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="eps_m"):
                eps_select(F, d, [1, 0], eps_m, mode="plain")

    def test_negative_eps_rejected(self):
        d = generate_dictionary(LpSpace(2.0, 2), 2, "canonical")
        F = DualFunctional(np.ones(2, dtype=complex))
        with pytest.raises(ValueError, match="eps_m"):
            eps_select(F, d, [1, 0], -0.1, mode="plain")


class TestMakeTarget:
    def test_one_sparse_exact(self):
        space = LpSpace(2.0, 4)
        d = generate_dictionary(space, 8, "gaussian", seed=5)
        t = make_target(d, "a1", 1, eps=0.0, seed=9)
        (idx, coeff), = t.true_coeffs
        assert abs(abs(coeff) - 1.0) <= 1e-12
        np.testing.assert_allclose(t.f, coeff * d.atoms[idx], atol=1e-15)
        np.testing.assert_array_equal(t.f, t.f_eps)

    def test_a1_mass_and_perturbation(self):
        space = LpSpace(3.0, 6)
        d = generate_dictionary(space, 12, "gaussian", seed=6)
        t = make_target(d, "a1", 4, eps=0.3, seed=10)
        total = sum(abs(c) for _, c in t.true_coeffs)
        assert total == pytest.approx(1.0, abs=1e-12)
        assert lp_norm(space, t.f - t.f_eps) <= 0.3 + 1e-12
        assert t.A_eps == 1.0

    def test_conv_weights(self):
        d = generate_dictionary(LpSpace(2.0, 6), 12, "gaussian", seed=6)
        t = make_target(d, "conv", 5, eps=0.0, seed=11)
        weights = [c for _, c in t.true_coeffs]
        assert all(w.imag == 0.0 and w.real > 0.0 for w in weights)
        assert sum(w.real for w in weights) == pytest.approx(1.0, abs=1e-12)

    def test_sparsity_out_of_range(self):
        d = generate_dictionary(LpSpace(2.0, 4), 4, "canonical")
        with pytest.raises(ValueError, match="sparsity"):
            make_target(d, "a1", 5)
        with pytest.raises(ValueError, match="sparsity"):
            make_target(d, "a1", 0)

    def test_sparsity_must_be_whole(self):
        d = generate_dictionary(LpSpace(2.0, 4), 4, "canonical")
        assert len(make_target(d, "a1", 2.0).true_coeffs) == 2
        with pytest.raises(ValueError, match="sparsity must be an integer >= 1; got 2.5"):
            make_target(d, "a1", 2.5)

    def test_non_finite_eps_rejected(self):
        d = generate_dictionary(LpSpace(2.0, 4), 4, "canonical")
        for eps in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="eps"):
                make_target(d, "a1", 2, eps=eps)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("p", [1.01, 2.0, 3.0])
    def test_largest_eps_with_small_noise_is_finite(self, p):
        # At dim 1 and seed 0 the noise has norm ~0.55, so eps / ||noise||
        # passes the largest float; the target must still come out finite.
        space, eps = LpSpace(p, 1), float(np.finfo(float).max)
        d = generate_dictionary(space, 2, "gaussian", seed=0)
        t = make_target(d, "a1", 1, eps=eps, seed=0)
        assert 0.0 < lp_norm(space, t.f - t.f_eps) <= eps
        assert np.isfinite(lp_norm(space, t.f))

    @pytest.mark.parametrize("membership, eps", [("a1", 0.0), ("a1", 0.25), ("conv", 0.0)])
    def test_equals_checked_construction(self, membership, eps):
        d = generate_dictionary(LpSpace(1.5, 12), 24, "gaussian", seed=3)
        t = make_target(d, membership, 6, eps=eps, seed=8)
        assert all(type(i) is int and type(c) is complex for i, c in t.true_coeffs)
        indices = [i for i, _ in t.true_coeffs]
        f_eps = np.array([c for _, c in t.true_coeffs]) @ d.atoms[indices]
        checked = TargetSpec(
            f=t.f, f_eps=f_eps, eps=eps, A_eps=1.0, membership=membership, true_coeffs=t.true_coeffs
        )
        for field in dataclasses.fields(TargetSpec):
            ours, theirs = getattr(t, field.name), getattr(checked, field.name)
            if isinstance(theirs, np.ndarray):
                assert type(ours) is np.ndarray and ours.dtype == theirs.dtype
                assert ours.shape == theirs.shape and ours.tobytes() == theirs.tobytes()
                assert not ours.flags.writeable
            else:
                assert type(ours) is type(theirs) and ours == theirs, field.name

    def test_deterministic(self):
        d = generate_dictionary(LpSpace(2.0, 6), 12, "gaussian", seed=6)
        a = make_target(d, "a1", 3, eps=0.1, seed=4)
        b = make_target(d, "a1", 3, eps=0.1, seed=4)
        np.testing.assert_array_equal(a.f, b.f)
        assert a.true_coeffs == b.true_coeffs


class TestHullSuprema:
    """Sampled absolutely-convex / convex hull values never beat the atom max."""

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    def test_sampling_bounds(self, p):
        space = LpSpace(p, 8)
        d = generate_dictionary(space, 16, "gaussian", seed=20)
        rng = np.random.default_rng(21)
        h = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        F = norming_functional(space, h)
        values = d.atoms @ F.coeffs
        abs_max = np.abs(values).max()
        re_max = values.real.max()
        for _ in range(500):
            w = rng.standard_normal(16) + 1j * rng.standard_normal(16)
            w /= np.abs(w).sum()
            assert abs(np.dot(w, values)) <= abs_max + 1e-9
            c = rng.uniform(0.0, 1.0, 16)
            c /= c.sum()
            assert np.dot(c, values).real <= re_max + 1e-9
