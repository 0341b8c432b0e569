import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from attnops import (
    AttnInputs,
    DegenerateNormalizer,
    DimensionMismatch,
    TensorOpConfig,
    build_interaction_operator,
    coupling_matrix,
    interaction_trace,
    naive_reference,
    random_inputs,
    random_matrix,
    tensor_interaction,
)

Q = np.array([[1.0, 0.0], [1.0, 1.0]])
K = np.array([[1.0, 1.0], [0.0, 1.0]])
V = np.array([[1.0, 2.0], [3.0, 4.0]])


class TestBuildOperator:
    def test_identity_inputs(self):
        np.testing.assert_array_equal(build_interaction_operator(np.eye(2), np.eye(2)), np.eye(2))

    def test_hand_example(self):
        np.testing.assert_array_equal(coupling_matrix(Q, K), [[1.0, 2.0], [0.0, 1.0]])
        np.testing.assert_array_equal(build_interaction_operator(Q, K), [[5.0, 2.0], [2.0, 1.0]])

    def test_zero_queries(self):
        np.testing.assert_array_equal(
            build_interaction_operator(np.zeros((3, 2)), np.ones((3, 2))), np.zeros((2, 2))
        )

    def test_triple_loop_oracle(self):
        rng = np.random.default_rng(0)
        q = rng.standard_normal((6, 3))
        k = rng.standard_normal((6, 3))
        b = np.zeros((3, 3))
        for s in range(3):
            for t in range(3):
                for i in range(6):
                    b[s, t] += q[i, s] * k[i, t]
        for side, expected in (("q", b @ b.T), ("k", b.T @ b)):
            out = build_interaction_operator(q, k, TensorOpConfig(side=side))
            np.testing.assert_allclose(out, expected, atol=1e-12)

    def test_hadamard_hermitian_non_negative_diagonal(self):
        q = random_matrix(6, 3, seed=1, complex_=True)
        k = random_matrix(6, 3, seed=2, complex_=True)
        t = build_interaction_operator(q, k, TensorOpConfig(hadamard=True))
        np.testing.assert_allclose(t, t.conj().T, atol=1e-12)
        assert np.min(np.diag(t).real) >= 0.0
        assert np.max(np.abs(np.diag(t).imag)) < 1e-12


class TestTensorInteraction:
    def test_identity_inputs_as_written(self):
        out = tensor_interaction(AttnInputs(np.eye(2), np.eye(2), V)).T
        np.testing.assert_allclose(out, V.T / 2.0, atol=1e-15)

    def test_identity_inputs_transposed_back(self):
        out = tensor_interaction(AttnInputs(np.eye(2), np.eye(2), V))
        np.testing.assert_allclose(out, V / 2.0, atol=1e-15)

    def test_hand_example(self):
        out = tensor_interaction(AttnInputs(Q, K, V)).T
        expected = np.array([[5.0, 2.0], [2.0, 1.0]]) @ V.T / 6.0
        np.testing.assert_allclose(out, expected, atol=1e-14)

    def test_matches_loop_oracle(self):
        for seed in range(5):
            inputs = random_inputs(6, 3, seed=seed)
            np.testing.assert_allclose(
                tensor_interaction(inputs), naive_reference(inputs, "interaction"), atol=1e-11
            )

    def test_rectangular_values_rejected(self):
        inputs = random_inputs(4, 3, d_v=2, seed=6)
        with pytest.raises(DimensionMismatch, match="value width 2 must equal model width 3"):
            tensor_interaction(inputs)

    def test_zero_inputs_degenerate(self):
        zeros = AttnInputs(np.zeros((2, 2)), np.zeros((2, 2)), V)
        with pytest.raises(DegenerateNormalizer):
            tensor_interaction(zeros)


class TestInvariants:
    def test_trace_identity(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            q = rng.standard_normal((9, 4))
            k = rng.standard_normal((9, 4))
            frob = float(np.sum((q.T @ k) ** 2))
            np.testing.assert_allclose(interaction_trace(q, k), frob, rtol=1e-10)
            for side in ("q", "k"):
                t = build_interaction_operator(q, k, TensorOpConfig(side=side))
                np.testing.assert_allclose(np.trace(t), frob, rtol=1e-10)

    def test_psd_probes(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            q = rng.standard_normal((8, 3))
            k = rng.standard_normal((8, 3))
            t = build_interaction_operator(q, k)
            bound = 1e-10 * np.linalg.norm(t)
            for _ in range(20):
                x = rng.standard_normal(3)
                assert x @ t @ x >= -bound * (x @ x)

    def test_operator_size_independent_of_token_count(self):
        rng = np.random.default_rng(9)
        q = rng.standard_normal((5, 4))
        k = rng.standard_normal((5, 4))
        small = build_interaction_operator(q, k)
        grown = build_interaction_operator(
            np.vstack([q, rng.standard_normal((11, 4))]),
            np.vstack([k, rng.standard_normal((11, 4))]),
        )
        assert small.shape == grown.shape == (4, 4)


def _transposed_formula(inputs, cfg):
    """The output as the channel operator left-multiplying v^T, divided, transposed back."""
    t = build_interaction_operator(inputs.q, inputs.k, cfg)
    return np.ascontiguousarray(((t @ inputs.v.T) / np.trace(t).real).T)


class TestRowMajorProduct:
    """The output is v t^T divided in place, not (t v^T)^T divided and copied."""

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(1, 300), d=st.integers(1, 9), complex_=st.booleans(),
           side=st.sampled_from("qk"), hadamard=st.booleans(), seed=st.integers(0, 2**16))
    @example(n=1, d=1, complex_=True, side="q", hadamard=False, seed=0)
    def test_stays_within_rounding_of_the_transposed_formula(self, n, d, complex_, side,
                                                             hadamard, seed):
        inputs = random_inputs(n, d, seed=seed, complex_=complex_)
        cfg = TensorOpConfig(side=side, hadamard=hadamard)
        out = tensor_interaction(inputs, cfg)
        old = _transposed_formula(inputs, cfg)
        assert out.flags.c_contiguous and out.shape == old.shape == (n, d)
        assert np.max(np.abs(out - old)) <= 1e-14 * np.max(np.abs(old))

    @pytest.mark.parametrize("n, d", [(65, 32), (8192, 32), (16384, 32)])
    def test_benchmark_shapes_keep_the_transposed_formulas_bytes(self, n, d):
        inputs = random_inputs(n, d, seed=n)
        out = tensor_interaction(inputs)
        assert out.tobytes() == _transposed_formula(inputs, TensorOpConfig()).tobytes()
