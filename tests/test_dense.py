import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from attnops import (
    DimensionMismatch,
    NonFiniteInput,
    NotSquare,
    adjoint_product,
    as_matrix,
    as_vector,
    gemm,
    kron,
    partial_trace,
    random_matrix,
    trace,
    vectorize,
)
from attnops.dense import divide_in_place

I2 = np.eye(2)


def _finite_arrays(rows, cols):
    return arrays(
        np.float64,
        (rows, cols),
        elements=st.floats(min_value=-10.0, max_value=10.0, allow_nan=False),
    )


class TestCoercion:
    def test_integers_promote_to_contiguous_float64(self):
        m = as_matrix(np.arange(6).reshape(2, 3).T, "m")
        assert m.dtype == np.float64 and m.flags.c_contiguous
        np.testing.assert_array_equal(m, [[0.0, 3.0], [1.0, 4.0], [2.0, 5.0]])

    def test_matrix_rejects_other_ranks(self):
        with pytest.raises(DimensionMismatch, match="^m: expected a 2-D"):
            as_matrix(np.ones(3), "m")
        with pytest.raises(DimensionMismatch):
            as_matrix(np.ones((2, 2, 2)), "m")

    def test_single_row_or_column_flattens_to_vector(self):
        for shape in ((3, 1), (1, 3), (3,)):
            x = as_vector(np.arange(3).reshape(shape), "x")
            assert x.shape == (3,) and x.dtype == np.float64
        assert as_vector([1j, 2.0]).dtype == np.complex128

    def test_vector_rejects_full_matrix(self):
        with pytest.raises(DimensionMismatch, match="^x: expected a 1-D"):
            as_vector(np.ones((2, 2)), "x")

    def test_vector_rejects_non_finite_by_name(self):
        with pytest.raises(NonFiniteInput, match="^x contains"):
            as_vector([1.0, np.inf], "x")


class TestGemm:
    def test_identity(self):
        np.testing.assert_array_equal(gemm(I2, I2), I2)

    def test_hand_example_with_transpose(self):
        q = np.array([[1.0, 0.0], [1.0, 1.0]])
        k = np.array([[1.0, 1.0], [0.0, 1.0]])
        expected = np.array([[1.0, 0.0], [2.0, 1.0]])
        np.testing.assert_array_equal(gemm(q, k, trans_b=True), expected)
        # re-verify with a brute-force triple loop
        brute = np.zeros((2, 2))
        for i in range(2):
            for j in range(2):
                for t in range(2):
                    brute[i, j] += q[i, t] * k[j, t]
        np.testing.assert_array_equal(brute, expected)

    def test_conjugate_transpose_complex(self):
        a = np.array([[1j, 0.0], [0.0, 1.0]])
        out = gemm(a, a, trans_b=True)
        np.testing.assert_allclose(out, np.eye(2), atol=0)
        brute = np.zeros((2, 2), dtype=complex)
        for i in range(2):
            for j in range(2):
                for t in range(2):
                    brute[i, j] += a[i, t] * np.conj(a[j, t])
        np.testing.assert_array_equal(out, brute)

    def test_dimension_mismatch_reports_both_shapes(self):
        with pytest.raises(DimensionMismatch, match=r"\(2, 3\) x \(2, 2\)"):
            gemm(np.ones((2, 3)), np.ones((2, 2)))

    def test_rejects_nan(self):
        bad = np.array([[np.nan, 0.0], [0.0, 1.0]])
        with pytest.raises(NonFiniteInput):
            gemm(bad, I2)


class TestTrace:
    def test_identity(self):
        assert trace(np.eye(3)) == 3.0

    def test_hand_example(self):
        assert trace([[1.0, 2.0], [2.0, 5.0]]) == 6.0

    def test_zero(self):
        assert trace(np.zeros((4, 4))) == 0.0

    def test_not_square(self):
        with pytest.raises(NotSquare):
            trace(np.ones((2, 3)))


class TestKron:
    def test_identity(self):
        np.testing.assert_array_equal(kron(I2, I2), np.eye(4))

    def test_hand_example(self):
        out = kron([[1.0, 2.0]], [[3.0], [4.0]])
        np.testing.assert_array_equal(out, [[3.0, 6.0], [4.0, 8.0]])

    def test_scalar_unit(self):
        a = np.arange(6.0).reshape(2, 3)
        np.testing.assert_array_equal(kron(a, [[1.0]]), a)

    def test_against_quadruple_loop(self):
        rng = np.random.default_rng(7)
        a = rng.standard_normal((2, 3))
        b = rng.standard_normal((3, 2))
        out = kron(a, b)
        for i in range(2):
            for j in range(3):
                for p in range(3):
                    for r in range(2):
                        assert out[i * 3 + p, j * 2 + r] == a[i, j] * b[p, r]


class TestVectorize:
    def test_column_stacking(self):
        out = vectorize([[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_array_equal(out, [[1.0], [3.0], [2.0], [4.0]])

    def test_column_vector_unchanged(self):
        col = np.array([[1.0], [2.0], [3.0]])
        np.testing.assert_array_equal(vectorize(col), col)

    def test_scalar(self):
        np.testing.assert_array_equal(vectorize([[7.0]]), [[7.0]])


class TestPartialTrace:
    A = np.array([[1.0, 2.0], [3.0, 4.0]])
    B = np.array([[5.0, 6.0], [7.0, 8.0]])

    def test_traces_out_second_factor(self):
        out = partial_trace(kron(self.A, self.B), 2, 2, "w")
        np.testing.assert_allclose(out, 13.0 * self.A, atol=1e-12)

    def test_traces_out_first_factor(self):
        out = partial_trace(kron(self.A, self.B), 2, 2, "v")
        np.testing.assert_allclose(out, 5.0 * self.B, atol=1e-12)

    def test_identity_factorizes(self):
        np.testing.assert_array_equal(partial_trace(np.eye(4), 2, 2, "w"), 2.0 * I2)

    def test_matches_index_sum(self):
        """Both contractions agree with the raw double-index sums."""
        rng = np.random.default_rng(11)
        m, n = 3, 2
        t = rng.standard_normal((m * n, m * n))
        out_w = partial_trace(t, m, n, "w")
        out_v = partial_trace(t, m, n, "v")
        for k in range(m):
            for i in range(m):
                expected = sum(t[k * n + j, i * n + j] for j in range(n))
                assert abs(out_w[k, i] - expected) < 1e-14
        for l in range(n):
            for j in range(n):
                expected = sum(t[i * n + l, i * n + j] for i in range(m))
                assert abs(out_v[l, j] - expected) < 1e-14

    def test_preserves_full_trace(self):
        rng = np.random.default_rng(3)
        t = rng.standard_normal((6, 6))
        assert abs(trace(partial_trace(t, 2, 3, "w")) - trace(t)) < 1e-12
        assert abs(trace(partial_trace(t, 2, 3, "v")) - trace(t)) < 1e-12

    def test_shape_guard(self):
        with pytest.raises(DimensionMismatch):
            partial_trace(np.eye(5), 2, 2)

    def test_unknown_factor_rejected(self):
        with pytest.raises(ValueError, match="trace_out"):
            partial_trace(np.eye(4), 2, 2, "both")


@settings(max_examples=30, deadline=None)
@given(a=_finite_arrays(4, 3), b=_finite_arrays(3, 4))
def test_trace_is_cyclic(a, b):
    lhs = trace(gemm(a, b))
    rhs = trace(gemm(b, a))
    assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), abs(rhs), 1.0)


@settings(max_examples=30, deadline=None)
@given(a=_finite_arrays(4, 4), b=_finite_arrays(4, 4))
def test_trace_of_product_is_hadamard_sum_with_transpose(a, b):
    lhs = trace(gemm(a, b))
    rhs = float(np.sum(a * b.T))
    assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), 1.0)


def test_frobenius_identity_real_and_complex():
    rng = np.random.default_rng(5)
    a = rng.standard_normal((4, 3))
    value = trace(gemm(a, a, trans_b=True))
    assert value >= 0.0
    np.testing.assert_allclose(value, np.sum(np.abs(a) ** 2), rtol=1e-12)

    c = a + 1j * rng.standard_normal((4, 3))
    value = trace(gemm(c, c, trans_b=True))
    assert abs(np.imag(value)) < 1e-12
    np.testing.assert_allclose(np.real(value), np.sum(np.abs(c) ** 2), rtol=1e-12)


# (a complex, b complex) per operand kind; "b is a" applies where both kinds agree
_KINDS = {"real": (False, False), "complex": (True, True),
          "real a, complex b": (False, True), "complex a, real b": (True, False)}


class TestAdjointProduct:
    """a^H b: real operands give the bytes of a.T @ b, complex ones stay within rounding."""

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 4097), d=st.integers(1, 9), p=st.integers(1, 9),
           kind=st.sampled_from(sorted(_KINDS)), same=st.booleans(), seed=st.integers(0, 2**16))
    @example(n=1, d=1, p=1, kind="complex", same=True, seed=0)
    @example(n=1, d=1, p=3, kind="complex", same=False, seed=0)
    @example(n=4097, d=9, p=2, kind="complex", same=True, seed=1)
    @example(n=4097, d=9, p=2, kind="real", same=True, seed=1)
    def test_matches_the_conjugate_transpose_product(self, n, d, p, kind, same, seed):
        a_complex, b_complex = _KINDS[kind]
        a = random_matrix(n, d, seed, a_complex)
        b = a if same and a_complex == b_complex else random_matrix(n, p, seed + 1, b_complex)
        out = adjoint_product(a, b)
        reference = a.conj().T @ b
        assert out.shape == reference.shape and out.dtype == reference.dtype
        if not a_complex:
            assert out.tobytes() == (a.T @ b).tobytes()
        else:
            assert np.max(np.abs(out - reference)) <= 1e-13 * np.max(np.abs(reference))
        if b is a and a_complex:
            np.testing.assert_array_equal(out, out.conj().T)
            assert not out.diagonal().imag.any()

    def test_strided_complex_operands_take_the_conjugate_product(self):
        a = random_matrix(6, 8, 3, complex_=True)[:, ::2]
        np.testing.assert_array_equal(adjoint_product(a, a), a.conj().T @ a)


class TestDivideInPlace:
    """Real bytes are those of ``/``; a complex result divides each part as a float."""

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 300), cols=st.integers(1, 9), complex_=st.booleans(),
           per_row=st.booleans(), scale=st.floats(1e-6, 1e6), seed=st.integers(0, 2**16))
    @example(n=1, cols=1, complex_=True, per_row=False, scale=3.0, seed=0)
    def test_matches_division(self, n, cols, complex_, per_row, scale, seed):
        out = random_matrix(n, cols, seed, complex_)
        normalizer = scale * np.exp(random_matrix(n, 1, seed + 1)) if per_row else scale
        expected = out / normalizer
        parts = (out.real / normalizer, out.imag / normalizer)
        result = divide_in_place(out, normalizer)
        assert result is out
        if not complex_:
            assert result.tobytes() == expected.tobytes()
        else:
            np.testing.assert_array_equal(result.real, parts[0])
            np.testing.assert_array_equal(result.imag, parts[1])
            np.testing.assert_allclose(result, expected, rtol=1e-15, atol=0)
