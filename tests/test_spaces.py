import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lpgreedy import (
    LpSpace,
    apply_functional,
    complex_sign,
    lp_norm,
    norming_functional,
    rho_bound,
    smoothness_params,
)
from lpgreedy import spaces
from lpgreedy.spaces import _norm_mags, _norm_rows, _norming_coeffs

PS = (1.5, 2.0, 3.0, 4.0)


def random_vector(rng, dim):
    return rng.standard_normal(dim) + 1j * rng.standard_normal(dim)


class TestLpSpace:
    def test_rejects_p_one(self):
        with pytest.raises(ValueError, match="space.p"):
            LpSpace(1.0, 4)

    def test_rejects_p_inf(self):
        with pytest.raises(ValueError, match="space.p"):
            LpSpace(float("inf"), 4)

    def test_rejects_p_beyond_overflow_limit(self):
        with pytest.raises(ValueError, match="space.p"):
            LpSpace(65.0, 4)

    def test_rejects_bad_dim(self):
        with pytest.raises(ValueError, match="space.dim"):
            LpSpace(2.0, 0)

    def test_rejects_fractional_dim(self):
        with pytest.raises(ValueError, match="space.dim must be a positive integer; got 16.5"):
            LpSpace(2.0, 16.5)
        assert LpSpace(2.0, 16.0).dim == 16

    def test_p_conjugate(self):
        assert LpSpace(2.0, 2).p_conjugate == 2.0
        assert LpSpace(1.5, 2).p_conjugate == pytest.approx(3.0, abs=1e-15)


class TestLpNorm:
    def test_pythagorean(self):
        assert lp_norm(LpSpace(2.0, 2), [3, 4j]) == pytest.approx(5.0, abs=1e-14)

    def test_p_1_5_high_precision(self):
        # (1^1.5 + 1^1.5)^(1/1.5) = 2^(2/3), cross-checked at 50 digits
        expected = float(mpmath.mp.mpf(2) ** (mpmath.mp.mpf(2) / 3))
        assert lp_norm(LpSpace(1.5, 2), [1, 1]) == pytest.approx(expected, abs=1e-14)
        assert expected == pytest.approx(1.587401, abs=1e-6)

    def test_zero_vector(self):
        assert lp_norm(LpSpace(3.0, 2), [0, 0]) == 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            lp_norm(LpSpace(2.0, 3), [1, 2])

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="finite"):
            lp_norm(LpSpace(2.0, 2), [np.nan, 1])
        with pytest.raises(ValueError, match="finite"):
            lp_norm(LpSpace(2.0, 2), [np.inf * 1j, 1])

    def test_extreme_scale_stability(self):
        space = LpSpace(32.0, 2)
        assert lp_norm(space, [1e-160, 0]) == pytest.approx(1e-160, rel=1e-12)
        assert lp_norm(space, [1e160, 0]) == pytest.approx(1e160, rel=1e-12)


class TestComplexSign:
    def test_generic(self):
        assert complex_sign(3 + 4j) == pytest.approx(0.6 + 0.8j, abs=1e-15)

    def test_real_negative(self):
        assert complex_sign(-2) == pytest.approx(-1.0 + 0j, abs=1e-15)

    def test_zero_convention(self):
        assert complex_sign(0) == 1.0 + 0.0j

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            complex_sign(complex(np.nan, 0))

    @pytest.mark.parametrize("z", [complex(0, np.nan), complex(np.inf, 1), complex(1, -np.inf)])
    def test_rejects_non_finite(self, z):
        with pytest.raises(ValueError, match="finite scalar"):
            complex_sign(z)

    @given(st.complex_numbers(min_magnitude=1e-6, max_magnitude=1e6))
    def test_unit_modulus(self, z):
        assert abs(abs(complex_sign(z)) - 1.0) < 1e-12


class TestNormingFunctional:
    def test_defining_identity_hilbert(self):
        space = LpSpace(2.0, 2)
        F = norming_functional(space, [3, 4j])
        assert apply_functional(F, [3, 4j]) == pytest.approx(5.0, abs=1e-12)

    def test_hilbert_inner_product(self):
        # F(e_1) = <e_1, h>/||h|| = conj(3)/5
        space = LpSpace(2.0, 2)
        F = norming_functional(space, [3, 4j])
        assert apply_functional(F, [1, 0]) == pytest.approx(0.6, abs=1e-12)

    def test_p3_value_high_precision(self):
        expected = float(mpmath.mp.mpf(2) ** (mpmath.mp.mpf(1) / 3))
        space = LpSpace(3.0, 2)
        F = norming_functional(space, [1, 1])
        assert apply_functional(F, [1, 1]) == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(1.259921, abs=1e-6)

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError, match="zero"):
            norming_functional(LpSpace(2.0, 2), [0, 0])

    @pytest.mark.parametrize("p", PS)
    def test_identity_and_dual_norm_seeded(self, p):
        space = LpSpace(p, 16)
        rng = np.random.default_rng(42)
        q = p / (p - 1.0)
        dual_space = LpSpace(q, 16)
        for _ in range(250):
            h = random_vector(rng, 16)
            F = norming_functional(space, h)
            norm = lp_norm(space, h)
            assert abs(apply_functional(F, h) - norm) <= 1e-9 * norm
            assert abs(lp_norm(dual_space, F.coeffs) - 1.0) <= 1e-9

    def test_phase_homogeneity(self):
        space = LpSpace(3.0, 4)
        rng = np.random.default_rng(7)
        h = random_vector(rng, 4)
        for theta in (0.3, 1.7, 4.0):
            rot = np.exp(1j * theta)
            assert lp_norm(space, rot * h) == pytest.approx(lp_norm(space, h), rel=1e-13)
            F = norming_functional(space, h)
            F_rot = norming_functional(space, rot * h)
            np.testing.assert_allclose(
                F_rot.coeffs, np.conj(rot) * F.coeffs, atol=1e-12
            )

    def test_subnormal_entry_sign(self):
        # |5e-324 (1 + i)| rounds to 5e-324, so h/|h| would have modulus
        # sqrt(2); the coefficient must keep the exact phase and modulus
        space = LpSpace(1.5, 2)
        tiny = 5e-324 * (1 + 1j)
        coeff = norming_functional(space, [1.0, tiny]).coeffs[1]
        expected = (np.abs(tiny) / lp_norm(space, [1.0, tiny])) ** 0.5
        assert abs(coeff) == pytest.approx(expected, rel=1e-12, abs=0.0)
        assert np.angle(coeff) == pytest.approx(-np.pi / 4, rel=1e-12)

    @given(
        st.integers(min_value=0, max_value=3),
        st.lists(
            st.tuples(
                st.floats(-5, 5, allow_nan=False), st.floats(-5, 5, allow_nan=False)
            ),
            min_size=3,
            max_size=3,
        ),
    )
    @settings(max_examples=200, deadline=None)
    def test_duality_identity_property(self, p_index, entries):
        h = np.array([complex(re, im) for re, im in entries])
        if np.abs(h).max() < 1e-3:
            return
        p = PS[p_index]
        space = LpSpace(p, 3)
        norm = lp_norm(space, h)
        F = norming_functional(space, h)
        assert abs(apply_functional(F, h) - norm) <= 1e-9 * norm
        assert abs(lp_norm(LpSpace(p / (p - 1.0), 3), F.coeffs) - 1.0) <= 1e-9


class TestOneVectorKernels:
    """The 1-D norm and functional reproduce the row forms bit for bit."""

    @staticmethod
    def rows(p, dim):
        rng = np.random.default_rng([dim, int(100 * p)])
        rows = rng.standard_normal((24, dim)) + 1j * rng.standard_normal((24, dim))
        rows[1] *= 1e-310  # every entry subnormal
        rows[2, ::2] = 5e-324 * (1 + 1j)  # normal and subnormal entries mixed
        rows[3] *= 1e300
        rows[4] = 0.0
        return rows

    @pytest.mark.parametrize("dim", [1, 12, 16, 2048])
    @pytest.mark.parametrize("p", [1.01, 1.5, 2.0, 3.0, 8.0, 64.0])
    def test_bit_equal_to_row_forms(self, p, dim):
        rows = self.rows(p, dim)
        norms = _norm_rows(p, rows)
        nonzero = norms > 0.0
        coeffs = _norming_coeffs(p, rows[nonzero], norms[nonzero, None])
        space = LpSpace(p, dim)
        assert _norm_mags(p, np.abs(rows[4])) == 0.0 == lp_norm(space, rows[4])
        for row, norm, want in zip(rows[nonzero], norms[nonzero], coeffs):
            assert np.float64(_norm_mags(p, np.abs(row))).tobytes() == norm.tobytes()
            assert np.float64(lp_norm(space, row)).tobytes() == norm.tobytes()
            assert _norming_coeffs(p, row, _norm_mags(p, np.abs(row))).tobytes() == want.tobytes()
            assert norming_functional(space, row).coeffs.tobytes() == want.tobytes()

    @pytest.mark.parametrize("dim", [1, 7, 2048])
    @pytest.mark.parametrize("p", [1.01, 1.5, 2.0, 3.0, 64.0])
    def test_tall_rows_bit_equal_per_row(self, p, dim):
        # a tall array is normed a block of rows at a time, the last block short
        rows = np.concatenate([self.rows(p, dim)] * (2 * 65536 // (24 * dim) + 2))[:-1]
        assert rows.size > 2 * 65536
        norms = _norm_rows(p, rows)
        assert norms.tobytes() == spaces._norm_block(p, rows).tobytes()  # the whole array at once
        for row, norm in zip(rows[-30:], norms[-30:]):
            assert np.float64(_norm_mags(p, np.abs(row))).tobytes() == norm.tobytes()

    @staticmethod
    def where_calls(monkeypatch) -> list:
        """The arguments of every ``np.where`` call from here on (each still made)."""
        calls, where = [], np.where
        monkeypatch.setattr(np, "where", lambda *args: calls.append(args) or where(*args))
        return calls

    @pytest.mark.parametrize("dim", [1, 12, 16, 2048])
    @pytest.mark.parametrize("p", [1.01, 1.5, 2.0, 3.0, 64.0])
    def test_block_of_nonzero_rows_skips_the_zero_row_path(self, p, dim, monkeypatch):
        rows = np.delete(self.rows(p, dim), 4, axis=0)  # its subnormal and 1e300 rows, no zero row
        calls = self.where_calls(monkeypatch)
        norms = spaces._norm_block(p, rows)
        assert calls == []
        for row, norm in zip(rows, norms):
            assert np.float64(_norm_mags(p, np.abs(row))).tobytes() == norm.tobytes()

    @pytest.mark.parametrize("bad", [0.0, np.nan])
    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    def test_a_zero_or_nan_row_takes_the_zero_row_path(self, p, bad, monkeypatch):
        rows = np.delete(self.rows(p, 16), 4, axis=0)
        rows[5, :] = 0.0
        rows[5, 3] = bad  # a zero row, or one NaN entry among zeros
        calls = self.where_calls(monkeypatch)
        norms = spaces._norm_block(p, rows)
        assert len(calls) == 2
        assert (norms[5] == 0.0) if bad == 0.0 else np.isnan(norms[5])
        for row, norm in zip(rows, norms):
            assert np.float64(_norm_mags(p, np.abs(row))).tobytes() == norm.tobytes()

    def test_an_inf_row_is_nan_on_either_path(self):
        # inf / inf makes the row NaN with or without the np.where
        rows = np.delete(self.rows(1.5, 16), 4, axis=0)
        rows[5, 3] = np.inf
        with np.errstate(invalid="ignore"):
            assert np.isnan(spaces._norm_block(1.5, rows)[5])
            assert np.isnan(spaces._norm_block(1.5, np.concatenate([rows, 0.0 * rows[:1]]))[5])

    @pytest.mark.parametrize("p", [1.01, 1.5, 2.0, 3.0, 64.0])
    def test_functional_from_given_magnitudes(self, p):
        # the loop passes |h| from the norm it has just taken; the subnormal
        # branch is entered on one minimum over them
        rows = self.rows(p, 16)
        rows[5, 3] = 0.0  # an exact zero among normal entries
        rows[6, ::3] = 0.0  # exact zeros beside subnormal entries
        rows[6, 1::3] = 3e-320 - 4e-321j
        for row in rows[np.abs(rows).max(axis=1) > 0.0]:
            norm = _norm_mags(p, np.abs(row))
            want = _norming_coeffs(p, row, norm)
            assert _norming_coeffs(p, row, norm, np.abs(row)).tobytes() == want.tobytes()

    @pytest.mark.parametrize("bad", [np.inf, np.nan, complex(np.inf, np.nan)])
    def test_non_finite_norm_is_nan(self, bad):
        with np.errstate(invalid="ignore"):
            assert np.isnan(_norm_mags(1.5, np.abs(np.array([1.0, bad], dtype=complex))))

    def test_functional_is_frozen(self):
        F = norming_functional(LpSpace(1.5, 3), [1.0, 2.0j, -1.0])
        with pytest.raises(ValueError):
            F.coeffs[0] = 0.0


class TestApplyFunctional:
    def test_orthogonal_coordinate(self):
        space = LpSpace(2.0, 2)
        F = norming_functional(space, [1, 0])
        assert apply_functional(F, [0, 1]) == 0.0

    def test_coordinate_functional(self):
        space = LpSpace(2.0, 2)
        F = norming_functional(space, [1, 0])
        assert apply_functional(F, [2 + 1j, 7]) == pytest.approx(2 + 1j, abs=1e-14)

    def test_expanded_sum(self):
        from lpgreedy import DualFunctional

        F = DualFunctional(np.array([0.6, -0.8j]))
        assert apply_functional(F, [3, 4j]) == pytest.approx(5.0, abs=1e-14)

    def test_linear(self):
        space = LpSpace(3.0, 3)
        rng = np.random.default_rng(5)
        F = norming_functional(space, random_vector(rng, 3))
        x, y = random_vector(rng, 3), random_vector(rng, 3)
        lhs = apply_functional(F, 2.5 * x + 1j * y)
        rhs = 2.5 * apply_functional(F, x) + 1j * apply_functional(F, y)
        assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_dimension_mismatch(self):
        space = LpSpace(2.0, 2)
        F = norming_functional(space, [1, 0])
        with pytest.raises(ValueError, match="shape"):
            apply_functional(F, [1, 2, 3])


class TestRhoBound:
    def test_p2(self):
        assert rho_bound(LpSpace(2.0, 2), 0.1) == pytest.approx(0.005, abs=1e-15)

    def test_p_below_two(self):
        expected = 0.1**1.5 / 1.5
        assert rho_bound(LpSpace(1.5, 2), 0.1) == pytest.approx(expected, abs=1e-15)
        assert expected == pytest.approx(0.0210819, abs=1e-7)

    def test_p_above_two(self):
        assert rho_bound(LpSpace(4.0, 2), 0.5) == pytest.approx(0.375, abs=1e-15)

    def test_branches_agree_at_p2(self):
        lo = LpSpace(2.0, 2)
        for u in (0.0, 0.3, 1.7):
            assert rho_bound(lo, u) == pytest.approx(u * u / 2.0, abs=1e-15)

    def test_negative_u_rejected(self):
        with pytest.raises(ValueError):
            rho_bound(LpSpace(2.0, 2), -0.1)

    def test_dominates_sampled_modulus(self):
        # (||x+uy|| + ||x-uy||)/2 - 1 over random unit pairs samples the
        # modulus of smoothness from below, so it never exceeds the bound.
        for p in PS:
            rng = np.random.default_rng(11)
            x = rng.standard_normal((500, 6)) + 1j * rng.standard_normal((500, 6))
            y = rng.standard_normal((500, 6)) + 1j * rng.standard_normal((500, 6))
            x /= _norm_rows(p, x)[:, None]
            y /= _norm_rows(p, y)[:, None]
            for u in (0.05, 0.1, 0.5, 1.0, 2.0):
                sample = 0.5 * (_norm_rows(p, x + u * y) + _norm_rows(p, x - u * y)) - 1.0
                assert sample.max() <= rho_bound(LpSpace(p, 6), u) + 1e-9


class TestSmoothnessParams:
    def test_p2(self):
        params = smoothness_params(LpSpace(2.0, 2))
        assert (params.q, params.gamma, params.p_dual) == (2.0, 0.5, 2.0)

    def test_p_1_5(self):
        params = smoothness_params(LpSpace(1.5, 2))
        assert params.q == 1.5
        assert params.gamma == pytest.approx(2.0 / 3.0, abs=1e-15)
        assert params.p_dual == pytest.approx(3.0, abs=1e-12)

    def test_p4(self):
        params = smoothness_params(LpSpace(4.0, 2))
        assert (params.q, params.gamma, params.p_dual) == (2.0, 1.5, 2.0)

    @pytest.mark.parametrize("p", PS)
    def test_rho_bound_is_gamma_u_q(self, p):
        space = LpSpace(p, 2)
        params = smoothness_params(space)
        for u in (0.1, 0.7, 2.0):
            assert rho_bound(space, u) == pytest.approx(
                params.gamma * u**params.q, rel=1e-13
            )
