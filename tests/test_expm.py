import math

import numpy as np
import pytest
import scipy.linalg

from attnops import (
    NonFiniteInput,
    NotSquare,
    SingularDenominator,
    expm_pade,
    expm_taylor,
    matrix_exponential,
    pade_coefficients,
)

NILPOTENT = np.array([[0.0, 1.0], [0.0, 0.0]])


def _random_contraction(rng, n=3):
    """Random matrix with 1-norm at most 1."""
    a = rng.standard_normal((n, n))
    return a / max(np.max(np.sum(np.abs(a), axis=0)), 1.0)


class TestTaylor:
    def test_zero_gives_identity(self):
        np.testing.assert_array_equal(expm_taylor(np.zeros((3, 3))), np.eye(3))

    def test_diagonal(self):
        out = expm_taylor(np.diag([1.0, 2.0]), terms=30)
        np.testing.assert_allclose(out, np.diag([math.e, math.e**2]), atol=1e-12)

    def test_nilpotent_is_exact(self):
        out = expm_taylor(NILPOTENT, terms=2)
        assert np.array_equal(out, np.array([[1.0, 1.0], [0.0, 1.0]]))
        # the series terminates: direct powers agree
        direct = np.eye(2) + NILPOTENT + NILPOTENT @ NILPOTENT / 2.0
        np.testing.assert_array_equal(out, direct)

    def test_term_count_guard(self):
        with pytest.raises(ValueError):
            expm_taylor(np.eye(2), terms=0)

    def test_not_square(self):
        with pytest.raises(NotSquare):
            expm_taylor(np.ones((2, 3)))


class TestPade:
    def test_zero_gives_identity(self):
        np.testing.assert_array_equal(expm_pade(np.zeros((2, 2))), np.eye(2))

    def test_scalar_2_2_approximant(self):
        """(1 + x/2 + x^2/12) / (1 - x/2 + x^2/12) at x=1 is exactly 19/7.

        Scaling is disabled so the raw approximant is evaluated; the value
        differs from e by about 1.4e-3, which is the approximant's own error.
        """
        out = expm_pade(np.array([[1.0]]), 2, 2, scaling_threshold=math.inf)
        assert abs(out[0, 0] - 19.0 / 7.0) < 1e-12
        assert abs(out[0, 0] - math.e) > 1e-3

    def test_2_2_coefficients(self):
        p, q = pade_coefficients(2, 2)
        np.testing.assert_allclose(p, [1.0, 0.5, 1.0 / 12.0], rtol=0)
        np.testing.assert_allclose(q, [1.0, -0.5, 1.0 / 12.0], rtol=0)

    def test_coefficients_are_fresh_copies(self):
        a = _random_contraction(np.random.default_rng(3)) * 4.0
        before = expm_pade(a, 6, 6)
        p, q = pade_coefficients(6, 6)
        p[:] = 0.0
        q *= -1.0
        assert expm_pade(a, 6, 6).tobytes() == before.tobytes()
        p, q = pade_coefficients(6, 6)
        assert p.flags.writeable and p[0] == q[0] == 1.0

    def test_nilpotent_is_exact(self):
        out = expm_pade(NILPOTENT, 6, 6)
        assert np.array_equal(out, np.array([[1.0, 1.0], [0.0, 1.0]]))

    def test_agrees_with_taylor(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            a = _random_contraction(rng)
            np.testing.assert_allclose(expm_pade(a, 6, 6), expm_taylor(a, 30), atol=1e-10)

    def test_singular_denominator(self):
        # [1/1] denominator 1 - x/2 vanishes at x = 2
        with pytest.raises(SingularDenominator):
            expm_pade(np.array([[2.0]]), 1, 1, scaling_threshold=math.inf)

    def test_degree_guard(self):
        with pytest.raises(ValueError):
            expm_pade(np.eye(2), 0, 2)


class TestSharedProperties:
    def test_inverse_identity(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            a = _random_contraction(rng)
            out = expm_pade(a) @ expm_pade(-a)
            np.testing.assert_allclose(out, np.eye(3), atol=1e-8)

    def test_transpose_commutes(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            a = _random_contraction(rng)
            np.testing.assert_allclose(expm_pade(a.T), expm_pade(a).T, atol=1e-10)
            np.testing.assert_allclose(expm_taylor(a.T), expm_taylor(a).T, atol=1e-10)

    def test_determinant_exponentiates_trace(self):
        rng = np.random.default_rng(3)
        for n in (2, 3):
            for _ in range(10):
                a = _random_contraction(rng, n)
                m = expm_pade(a)
                if n == 2:
                    det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
                else:
                    det = (
                        m[0, 0] * (m[1, 1] * m[2, 2] - m[1, 2] * m[2, 1])
                        - m[0, 1] * (m[1, 0] * m[2, 2] - m[1, 2] * m[2, 0])
                        + m[0, 2] * (m[1, 0] * m[2, 1] - m[1, 1] * m[2, 0])
                    )
                np.testing.assert_allclose(det, math.exp(np.trace(a)), rtol=1e-8)

    def test_scaling_kicks_in_above_threshold(self):
        # larger norms still match scipy because of scaling-and-squaring
        rng = np.random.default_rng(4)
        a = rng.standard_normal((4, 4)) * 2.0
        np.testing.assert_allclose(expm_pade(a), scipy.linalg.expm(a), rtol=1e-9, atol=1e-9)
        np.testing.assert_allclose(expm_taylor(a, 30), scipy.linalg.expm(a), rtol=1e-9, atol=1e-9)

    def test_complex_argument(self):
        rng = np.random.default_rng(5)
        a = 0.3 * (rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
        np.testing.assert_allclose(expm_pade(a), scipy.linalg.expm(a), atol=1e-10)


class TestScalingAndSquaring:
    @pytest.mark.parametrize("expm", [expm_taylor, expm_pade, matrix_exponential])
    @pytest.mark.parametrize("dtype", [np.float64, np.complex128])
    def test_empty_matrix_is_its_own_exponential(self, expm, dtype):
        empty = np.zeros((0, 0), dtype=dtype)
        expected = scipy.linalg.expm(empty)
        out = expm(empty)
        assert out.shape == (0, 0) and out.dtype == expected.dtype == dtype

    @pytest.mark.parametrize("expm", [expm_taylor, expm_pade])
    def test_threshold_must_be_positive(self, expm):
        for threshold in (0.0, -1.0, math.nan):
            with pytest.raises(ValueError, match="scaling_threshold"):
                expm(np.eye(2), scaling_threshold=threshold)
            with pytest.raises(ValueError, match="scaling_threshold"):
                expm(np.zeros((0, 0)), scaling_threshold=threshold)

    def test_matrix_exponential_is_the_default_pade(self):
        a = _random_contraction(np.random.default_rng(6), 4) * 8.0
        assert matrix_exponential(a).tobytes() == expm_pade(a, 6, 6, 0.5).tobytes()

    @pytest.mark.parametrize("expm", [expm_taylor, expm_pade, matrix_exponential])
    @pytest.mark.parametrize("a,stage", [
        (np.full((2, 2), 1e308), "expm scaling"),
        ([[6e307]], "expm scaling"),  # needs 1024 halvings, and 2.0 ** 1024 overflows
        ([[800.0]], "matrix exponential"),
    ], ids=["norm overflows", "halvings overflow", "result overflows"])
    def test_overflow_is_a_typed_error(self, expm, a, stage):
        with pytest.raises(NonFiniteInput) as exc:
            expm(a)
        assert exc.value.stage == stage

    @pytest.mark.parametrize("expm", [expm_taylor, expm_pade])
    def test_underflow_to_zero_is_a_result(self, expm):
        assert expm([[-800.0]]).tobytes() == np.zeros((1, 1)).tobytes()
