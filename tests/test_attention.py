import numpy as np
import pytest

from attnops import (
    AttnInputs,
    ComplexNotSupported,
    DegenerateNormalizer,
    DimensionMismatch,
    NonFiniteInput,
    linear_kernel_attention,
    naive_reference,
    random_inputs,
    random_matrix,
    softmax_attention,
)
from attnops import attention as attention_module


class TestAttnInputs:
    def test_shape_validation(self):
        with pytest.raises(DimensionMismatch):
            AttnInputs(np.ones((2, 3)), np.ones((2, 2)), np.ones((2, 2)))
        with pytest.raises(DimensionMismatch):
            AttnInputs(np.ones((2, 3)), np.ones((2, 3)), np.ones((3, 2)))

    @pytest.mark.parametrize("q_shape, v_shape", [((0, 3), (0, 2)), ((3, 0), (3, 2)),
                                                  ((3, 2), (3, 0))])
    def test_empty_dimensions(self, q_shape, v_shape):
        # q and k are checked by conform_pair, the value width here.
        with pytest.raises(DimensionMismatch, match="need at least one token"):
            AttnInputs(np.zeros(q_shape), np.zeros(q_shape), np.zeros(v_shape))

    def test_properties(self):
        inputs = random_inputs(4, 3, d_v=2, seed=0)
        assert (inputs.n, inputs.d, inputs.d_v) == (4, 3, 2)
        assert not inputs.is_complex

    def test_mixed_scalars_promote(self):
        inputs = AttnInputs(np.ones((2, 2)), np.ones((2, 2)) * 1j, np.ones((2, 2)))
        assert inputs.q.dtype == np.complex128
        assert inputs.k.dtype == np.complex128

    def test_an_array_in_several_roles_is_validated_once(self, monkeypatch):
        names = []
        validate = attention_module.as_matrix

        def counting(a, name):
            names.append(name)
            return validate(a, name)

        monkeypatch.setattr(attention_module, "as_matrix", counting)
        x = np.arange(6.0, dtype=np.float32).reshape(3, 2)
        inputs = AttnInputs(x, x, x)
        assert names == ["q"]
        assert inputs.q is inputs.k is inputs.v
        assert inputs.q.dtype == np.float64
        for q, k, v, expected in (
            (x, x, x.copy(), ["q", "v"]),
            (x, x.copy(), x, ["q", "k", "v"]),
            (x, x * 1j, x, ["q", "k", "v"]),  # v keeps its own real dtype
        ):
            names.clear()
            inputs = AttnInputs(q, k, v)
            assert names == expected
            assert inputs.v.dtype == np.float64

    def test_non_finite_shared_array_is_reported_as_q(self):
        x = np.ones((3, 2))
        x[1, 1] = np.nan
        with pytest.raises(NonFiniteInput, match="^q contains"):
            AttnInputs(x, x, x)


class TestSoftmaxAttention:
    def test_zero_queries_average_values(self):
        v = np.array([[1.0, 2.0], [3.0, 4.0]])
        inputs = AttnInputs(np.zeros((2, 3)), np.ones((2, 3)), v)
        out = softmax_attention(inputs)
        np.testing.assert_allclose(out, [[2.0, 3.0], [2.0, 3.0]], atol=1e-12)

    def test_single_token_returns_values(self):
        inputs = random_inputs(1, 4, d_v=3, seed=1)
        np.testing.assert_allclose(softmax_attention(inputs), inputs.v, atol=1e-15)

    def test_matches_brute_force(self):
        for seed in range(5):
            inputs = random_inputs(3, 2, seed=seed)
            np.testing.assert_allclose(
                softmax_attention(inputs), naive_reference(inputs, "softmax"), atol=1e-12
            )

    def test_weight_rows_sum_to_one(self):
        from attnops import row_softmax

        rng = np.random.default_rng(2)
        weights = row_softmax(rng.standard_normal((6, 6)) * 10)
        np.testing.assert_allclose(weights.sum(axis=1), np.ones(6), atol=1e-12)
        assert np.all(weights >= 0)

    def test_shift_invariance(self):
        """Adding a per-row constant to all logits leaves the output unchanged.

        A constant all-ones key column turns a query-entry shift into a
        uniform logit shift for that row.
        """
        rng = np.random.default_rng(3)
        n, d = 5, 4
        k = rng.standard_normal((n, d))
        k[:, 0] = 1.0
        q = rng.standard_normal((n, d))
        v = rng.standard_normal((n, 3))
        shifted = q.copy()
        shifted[:, 0] += rng.standard_normal(n) * np.sqrt(d) * 5
        np.testing.assert_allclose(
            softmax_attention(AttnInputs(q, k, v)),
            softmax_attention(AttnInputs(shifted, k, v)),
            atol=1e-12,
        )

    def test_output_within_value_envelope(self):
        inputs = random_inputs(8, 4, d_v=3, seed=4)
        out = softmax_attention(inputs)
        assert np.all(out <= inputs.v.max(axis=0) + 1e-12)
        assert np.all(out >= inputs.v.min(axis=0) - 1e-12)

    def test_rejects_complex(self):
        inputs = random_inputs(3, 2, seed=5, complex_=True)
        with pytest.raises(ComplexNotSupported):
            softmax_attention(inputs)


class TestLinearKernelAttention:
    def test_identical_tokens_average_values(self):
        v = np.array([[1.0, 2.0], [3.0, 4.0]])
        same = np.tile([1.0, 0.0], (2, 1))
        out = linear_kernel_attention(AttnInputs(same, same, v))
        np.testing.assert_allclose(out, [[2.0, 3.0], [2.0, 3.0]], atol=1e-12)

    def test_parallel_key_weighs_twice_an_orthogonal_one(self):
        # phi(q) . phi(k) = 1 + cos(q, k): 2 for a parallel key, 1 for an orthogonal one.
        q = np.tile([3.0, 0.0], (2, 1))
        k = np.array([[0.5, 0.0], [0.0, 4.0]])
        out = linear_kernel_attention(AttnInputs(q, k, np.array([[1.0], [0.0]])))
        np.testing.assert_allclose(out, [[2.0 / 3.0], [2.0 / 3.0]], atol=1e-15)

    def test_antipodal_key_gets_no_weight(self):
        q = np.tile([1.0, 0.0], (2, 1))
        k = np.array([[2.0, 0.0], [-1.0, 0.0]])
        out = linear_kernel_attention(AttnInputs(q, k, np.array([[1.0], [5.0]])))
        np.testing.assert_allclose(out, [[1.0], [1.0]], atol=1e-15)

    def test_positive_row_scaling_leaves_output_unchanged(self):
        inputs = random_inputs(6, 3, d_v=2, seed=13)
        scales = np.random.default_rng(13).uniform(0.1, 10.0, size=(6, 1))
        scaled = AttnInputs(inputs.q * scales, inputs.k / scales, inputs.v)
        np.testing.assert_allclose(
            linear_kernel_attention(scaled), linear_kernel_attention(inputs), atol=1e-13
        )

    def test_rows_whose_squares_overflow_keep_their_direction(self):
        # Power-of-two scaling is exact, so the bytes must match the in-range call.  The
        # loop oracle cannot check this: its float(x) ** 2 raises OverflowError.  The
        # first pass's norm still warns, hence the errstate.
        inputs = random_inputs(6, 3, seed=0)
        expected = linear_kernel_attention(inputs)
        big = 2.0**520
        with np.errstate(over="ignore"):
            out = linear_kernel_attention(AttnInputs(inputs.q * big, inputs.k * big, inputs.v))
        np.testing.assert_array_equal(out, expected)

        q = inputs.q.copy()
        q[2] *= 1e200
        in_range = q.copy()
        in_range[2] *= 2.0**-665
        with np.errstate(over="ignore"):
            out = linear_kernel_attention(AttnInputs(q, inputs.k, inputs.v))
        rescaled = linear_kernel_attention(AttnInputs(in_range, inputs.k, inputs.v))
        np.testing.assert_array_equal(out, rescaled)
        np.testing.assert_allclose(out, expected, atol=1e-15)

    def test_rejects_complex(self):
        inputs = random_inputs(3, 2, seed=15, complex_=True)
        with pytest.raises(ComplexNotSupported):
            linear_kernel_attention(inputs)

    def test_zero_query_row_averages_values(self):
        # The epsilon guard maps a zero row to the constant feature alone, so
        # every key gets the same weight.
        inputs = random_inputs(5, 3, d_v=2, seed=12)
        q = inputs.q.copy()
        q[2] = 0.0
        out = linear_kernel_attention(AttnInputs(q, inputs.k, inputs.v))
        np.testing.assert_allclose(out[2], inputs.v.mean(axis=0), atol=1e-14)

    def test_single_token(self):
        inputs = random_inputs(1, 3, d_v=2, seed=6)
        np.testing.assert_allclose(linear_kernel_attention(inputs), inputs.v, atol=1e-14)

    def test_matches_double_loop(self):
        for seed in range(5):
            inputs = random_inputs(4, 3, seed=seed)
            np.testing.assert_allclose(
                linear_kernel_attention(inputs), naive_reference(inputs, "kernel"), atol=1e-12
            )

    def test_reordered_equals_naive_at_scale(self):
        inputs = random_inputs(64, 5, d_v=4, seed=7)
        np.testing.assert_allclose(
            linear_kernel_attention(inputs), naive_reference(inputs, "kernel"), atol=1e-10
        )

    def test_antipodal_rows_degenerate(self):
        q = np.tile([1.0, 0.0], (2, 1))
        k = -q
        with pytest.raises(DegenerateNormalizer, match="kernel row sum 0 ="):
            linear_kernel_attention(AttnInputs(q, k, np.ones((2, 2))))

    def test_output_within_value_envelope(self):
        inputs = random_inputs(8, 4, d_v=3, seed=8)
        out = linear_kernel_attention(inputs)
        assert np.all(out <= inputs.v.max(axis=0) + 1e-12)
        assert np.all(out >= inputs.v.min(axis=0) - 1e-12)


class TestRandomInputs:
    def test_one_stream_drawn_in_q_k_v_order(self):
        inputs = random_inputs(4, 3, d_v=2, seed=16)
        stream = random_matrix(10, 3, seed=16)
        np.testing.assert_array_equal(inputs.q, stream[:4])
        np.testing.assert_array_equal(inputs.k, stream[4:8])
        np.testing.assert_array_equal(inputs.v, random_matrix(16, 2, seed=16)[12:])
