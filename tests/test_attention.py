import numpy as np
import pytest

from attnops import (
    AttnInputs,
    ComplexNotSupported,
    DegenerateDenominator,
    DimensionMismatch,
    MultiHeadSpec,
    NonFiniteInput,
    kernel_feature_map,
    linear_kernel_attention,
    multi_head,
    naive_reference,
    random_inputs,
    random_multi_head_spec,
    softmax_attention,
)
from attnops import attention as attention_module


class TestAttnInputs:
    def test_shape_validation(self):
        with pytest.raises(DimensionMismatch):
            AttnInputs(np.ones((2, 3)), np.ones((2, 2)), np.ones((2, 2)))
        with pytest.raises(DimensionMismatch):
            AttnInputs(np.ones((2, 3)), np.ones((2, 3)), np.ones((3, 2)))

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


class TestKernelFeatureMap:
    def test_parallel_unit_vectors(self):
        phi_q = kernel_feature_map([1.0, 0.0])
        phi_k = kernel_feature_map([1.0, 0.0])
        assert abs(phi_q @ phi_k - 2.0) < 1e-15

    def test_orthogonal(self):
        assert abs(kernel_feature_map([1.0, 0.0]) @ kernel_feature_map([0.0, 1.0]) - 1.0) < 1e-15

    def test_antipodal(self):
        assert abs(kernel_feature_map([1.0, 0.0]) @ kernel_feature_map([-1.0, 0.0])) < 1e-15

    def test_zero_vector_guard(self):
        np.testing.assert_array_equal(kernel_feature_map([0.0, 0.0]), [1.0, 0.0, 0.0])

    def test_feature_length(self):
        assert kernel_feature_map(np.ones(5)).shape == (6,)


class TestLinearKernelAttention:
    def test_identical_tokens_average_values(self):
        v = np.array([[1.0, 2.0], [3.0, 4.0]])
        same = np.tile([1.0, 0.0], (2, 1))
        out = linear_kernel_attention(AttnInputs(same, same, v))
        np.testing.assert_allclose(out, [[2.0, 3.0], [2.0, 3.0]], atol=1e-12)

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
        with pytest.raises(DegenerateDenominator):
            linear_kernel_attention(AttnInputs(q, k, np.ones((2, 2))))

    def test_output_within_value_envelope(self):
        inputs = random_inputs(8, 4, d_v=3, seed=8)
        out = linear_kernel_attention(inputs)
        assert np.all(out <= inputs.v.max(axis=0) + 1e-12)
        assert np.all(out >= inputs.v.min(axis=0) - 1e-12)


class TestMultiHead:
    def test_single_identity_head_reduces_to_mechanism(self):
        d = 4
        spec = MultiHeadSpec(
            w_q=(np.eye(d),), w_k=(np.eye(d),), w_v=(np.eye(d),), w_o=np.eye(d)
        )
        inputs = random_inputs(5, d, seed=9)
        np.testing.assert_allclose(
            multi_head(inputs, spec), softmax_attention(inputs), atol=1e-14
        )

    def test_zero_output_projection(self):
        spec = random_multi_head_spec(4, h=2, seed=10)
        zeroed = MultiHeadSpec(w_q=spec.w_q, w_k=spec.w_k, w_v=spec.w_v, w_o=np.zeros((4, 4)))
        inputs = random_inputs(3, 4, seed=10)
        np.testing.assert_array_equal(multi_head(inputs, zeroed), np.zeros((3, 4)))

    def test_matches_per_head_loop_oracle(self):
        spec = random_multi_head_spec(4, h=2, seed=11)
        inputs = random_inputs(5, 4, seed=11)
        np.testing.assert_allclose(
            multi_head(inputs, spec),
            naive_reference(inputs, "multi_head", spec=spec),
            atol=1e-12,
        )

    def test_head_split_validation(self):
        with pytest.raises(DimensionMismatch):
            MultiHeadSpec(
                w_q=(np.ones((4, 3)),),
                w_k=(np.ones((4, 3)),),
                w_v=(np.ones((4, 3)),),
                w_o=np.eye(4),
            )
        with pytest.raises(DimensionMismatch):
            random_multi_head_spec(6, h=4)
