import numpy as np
import pytest

from attnops import (
    AttnInputs,
    ComplexNotSupported,
    DimensionMismatch,
    ShapeTooLarge,
    UnknownVariant,
    fd_probe,
    kron_vec_check,
    naive_reference,
    random_inputs,
    tensor_attention_linear,
    tensor_attention_naive,
    trace_identity_report,
)
from attnops.oracles import KronVecReport, TraceIdentityReport, loop_gelu, loop_layer_norm
from attnops.verify import _quadratic_form_floor


# Tolerances, iteration counts and option pass-throughs that are constants, not arguments.
RETIRED = {
    "kron_vec_check tol": lambda: kron_vec_check(np.eye(2), np.eye(2), tol=1e-3),
    "KronVecReport tol": lambda: KronVecReport(0.0, 0.0, 0.0, 0.0, tol=1e-3),
    "trace_identity_report tol": lambda: trace_identity_report(np.eye(2), np.eye(2), tol=1e-3),
    "TraceIdentityReport tol": lambda: TraceIdentityReport(1.0, 1.0, 1.0, True, 0.0, 0.0, tol=1e-3),
    "kernel epsilon": lambda: naive_reference(random_inputs(2, 2, seed=0), "kernel", epsilon=1e-6),
    "expm terms": lambda: naive_reference(random_inputs(2, 2, seed=0), "tensor_expm", terms=10),
    "fd_probe options": lambda: fd_probe(
        "tensor_naive", random_inputs(2, 2, seed=0), np.ones(2), np.ones(2), side="k"),
    "quadratic form probes": lambda: _quadratic_form_floor(
        np.eye(2), np.random.default_rng(0), probes=5),
}


@pytest.mark.parametrize("name", list(RETIRED))
def test_retired_settable_value_is_rejected(name):
    with pytest.raises(TypeError):
        RETIRED[name]()


class TestKronVecCheck:
    def test_identity_inputs_all_pass_exactly(self):
        report = kron_vec_check(np.eye(2), np.eye(2))
        assert report.passed
        assert report.max_deviation == 0.0

    def test_random_inputs_pass(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            report = kron_vec_check(rng.standard_normal((3, 2)), rng.standard_normal((3, 2)))
            assert report.passed
            assert report.max_deviation < 1e-12

    def test_row_stacking_negative_control_fails(self):
        q = np.array([[1.0, 2.0], [3.0, 4.0]])
        k = np.array([[5.0, 6.0], [7.0, 8.0]])
        report = kron_vec_check(q, k, vec_order="row")
        assert not report.passed
        assert report.library_vec_dev > 0
        assert report.outer_dev > 0

    def test_shape_cap(self):
        with pytest.raises(ShapeTooLarge):
            kron_vec_check(np.ones((9, 8)), np.ones((9, 8)))

    def test_vec_order_guard(self):
        with pytest.raises(ValueError):
            kron_vec_check(np.eye(2), np.eye(2), vec_order="diag")


class TestTraceIdentityReport:
    def test_identity_matrices(self):
        report = trace_identity_report(np.eye(2), np.eye(2))
        assert report.product_trace == 2.0
        assert report.hadamard_sum == 2.0
        assert report.hadamard_sum_transposed == 2.0
        assert report.b_is_symmetric
        assert report.passed

    def test_boundary_counterexample(self):
        """tr(AB)=1 while sum(A o B)=0: the plain identity needs symmetric B."""
        a = np.array([[0.0, 1.0], [0.0, 0.0]])
        report = trace_identity_report(a, a.T)
        assert report.product_trace == 1.0
        assert report.hadamard_sum == 0.0
        assert report.hadamard_sum_transposed == 1.0
        assert not report.b_is_symmetric
        assert report.symmetric_dev is None
        assert report.passed  # the general transpose form still holds

    def test_gram_matrices_from_running_example(self):
        q = np.array([[1.0, 0.0], [1.0, 1.0]])
        k = np.array([[1.0, 1.0], [0.0, 1.0]])
        report = trace_identity_report(k.T @ k, q.T @ q)
        assert report.b_is_symmetric
        assert abs(report.product_trace - 6.0) < 1e-14
        assert abs(report.hadamard_sum - 6.0) < 1e-14
        assert report.passed

    def test_square_guard(self):
        from attnops import NotSquare

        with pytest.raises(NotSquare):
            trace_identity_report(np.ones((2, 3)), np.ones((2, 3)))


class TestNaiveReference:
    def test_single_token_softmax(self):
        inputs = random_inputs(1, 3, d_v=2, seed=1)
        np.testing.assert_allclose(naive_reference(inputs, "softmax"), inputs.v, atol=1e-15)

    def test_tensor_trace_running_example(self):
        inputs = AttnInputs(
            [[1.0, 0.0], [1.0, 1.0]], [[1.0, 1.0], [0.0, 1.0]], [[1.0, 2.0], [3.0, 4.0]]
        )
        expected = np.array([[7.0, 10.0], [17.0, 24.0]]) / 6.0
        np.testing.assert_allclose(naive_reference(inputs, "tensor"), expected, atol=1e-14)

    def test_interaction_identity_inputs(self):
        v = np.array([[1.0, 2.0], [3.0, 4.0]])
        inputs = AttnInputs(np.eye(2), np.eye(2), v)
        out = naive_reference(inputs, "interaction")
        np.testing.assert_allclose(out, v / 2.0, atol=1e-15)

    def test_unknown_variant(self):
        inputs = random_inputs(2, 2, seed=2)
        with pytest.raises(UnknownVariant):
            naive_reference(inputs, "flash")

    def test_token_cap(self):
        inputs = random_inputs(257, 1, seed=3)
        with pytest.raises(ShapeTooLarge):
            naive_reference(inputs, "softmax")


class TestFdProbe:
    def test_paths_share_gradients(self):
        rng = np.random.default_rng(4)
        for seed in range(3):
            inputs = random_inputs(4, 3, seed=seed)
            u = rng.standard_normal(4)
            w = rng.standard_normal(3)
            g_naive = fd_probe("tensor_naive", inputs, u, w, h=1e-5)
            g_linear = fd_probe("tensor_linear", inputs, u, w, h=1e-5)
            assert g_naive.shape == (12,)
            assert np.max(np.abs(g_naive - g_linear)) < 1e-4

    def test_callable_variant(self):
        inputs = random_inputs(3, 2, seed=5)
        u = np.ones(3)
        w = np.ones(2)
        via_id = fd_probe("tensor_naive", inputs, u, w)
        via_callable = fd_probe(lambda attn: tensor_attention_naive(attn), inputs, u, w)
        np.testing.assert_allclose(via_id, via_callable, atol=1e-12)

    def test_central_difference_order(self):
        """Halving h shrinks successive gradient differences about quadratically."""
        inputs = random_inputs(3, 2, seed=6)
        u = np.ones(3)
        w = np.ones(2)
        g1 = fd_probe("tensor_linear", inputs, u, w, h=8e-4)
        g2 = fd_probe("tensor_linear", inputs, u, w, h=4e-4)
        g3 = fd_probe("tensor_linear", inputs, u, w, h=2e-4)
        d12 = np.max(np.abs(g1 - g2))
        d23 = np.max(np.abs(g2 - g3))
        assert d12 / d23 == pytest.approx(4.0, rel=0.5)

    def test_step_bounds(self):
        inputs = random_inputs(2, 2, seed=7)
        with pytest.raises(ValueError):
            fd_probe("tensor_naive", inputs, np.ones(2), np.ones(2), h=1e-8)
        with pytest.raises(ValueError):
            fd_probe("tensor_naive", inputs, np.ones(2), np.ones(2), h=1e-2)

    def test_zero_map_has_zero_gradient(self):
        inputs = random_inputs(3, 2, seed=8)
        grad = fd_probe(lambda attn: np.zeros((attn.n, attn.d_v)), inputs, np.ones(3), np.ones(2))
        np.testing.assert_array_equal(grad, np.zeros(6))


class TestFastPathsAgainstOracles:
    def test_every_tensor_normalization(self):
        from attnops import DegenerateNormalizer

        for seed in range(3):
            inputs = random_inputs(6, 3, seed=seed)
            for normalization in ("trace", "diag", "row"):
                try:
                    fast = tensor_attention_naive(inputs, normalization=normalization)
                except DegenerateNormalizer:
                    continue  # row sums can legitimately be negative on random data
                slow = naive_reference(inputs, "tensor", normalization=normalization)
                np.testing.assert_allclose(fast, slow, atol=1e-10)

    def test_linear_against_oracle(self):
        for seed in range(5):
            inputs = random_inputs(8, 3, d_v=2, seed=seed)
            np.testing.assert_allclose(
                tensor_attention_linear(inputs), naive_reference(inputs, "tensor"), atol=1e-10
            )


class TestEncoderStageOracles:
    def test_gelu_known_values(self):
        got = loop_gelu(np.array([[0.0, 1.0], [-1.0, 3.0]]))
        # Phi(1) = 0.8413447460685429..., Phi(3) = 0.9986501019683699...
        expected = np.array([[0.0, 0.8413447460685429], [-0.15865525393145707, 2.9959503059051097]])
        np.testing.assert_allclose(got, expected, rtol=1e-15, atol=1e-16)

    def test_layer_norm_rows_have_zero_mean_unit_variance(self):
        x = np.random.default_rng(3).standard_normal((4, 9)) * 7.0
        out = loop_layer_norm(x, np.ones(9), np.zeros(9), eps=0.0)
        np.testing.assert_allclose(out.mean(axis=1), 0.0, atol=1e-14)
        np.testing.assert_allclose(out.var(axis=1), 1.0, rtol=1e-13)

    def test_real_inputs_only(self):
        with pytest.raises(ComplexNotSupported):
            loop_gelu(np.array([1j]))
        with pytest.raises(ComplexNotSupported):
            loop_layer_norm(np.ones((2, 3)) * 1j, np.ones(3), np.zeros(3), 1e-5)
        with pytest.raises(DimensionMismatch):
            loop_layer_norm(np.ones((2, 3)), np.ones(4), np.zeros(3), 1e-5)
