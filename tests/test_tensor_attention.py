import numpy as np
import pytest
import scipy.linalg

import attnops.expm as expm_module
import attnops.tensor_attention as tensor_attention_module

from attnops import (
    AttnInputs,
    AttnOpsError,
    ComplexNotSupported,
    DegenerateNormalizer,
    DimensionMismatch,
    FactoredOperator,
    NonFiniteInput,
    TensorOpConfig,
    build_interaction_operator,
    build_tensor_operator,
    coupling_matrix,
    diag_fast,
    forward,
    interaction_trace,
    naive_reference,
    normalized_tensor_operator,
    operator_trace,
    random_inputs,
    random_matrix,
    score_matrix,
    tensor_attention_elem_exp,
    tensor_attention_expm,
    tensor_attention_linear,
    tensor_attention_masked,
    tensor_attention_naive,
    tensor_attention_relu,
    tensor_attention_residual,
    variant_ids,
)

Q = np.array([[1.0, 0.0], [1.0, 1.0]])
K = np.array([[1.0, 1.0], [0.0, 1.0]])
V = np.array([[1.0, 2.0], [3.0, 4.0]])
RUNNING = AttnInputs(Q, K, V)
EYE_INPUTS = AttnInputs(np.eye(2), np.eye(2), V)


# Every entry point that takes Q and K itself, without an AttnInputs.
PAIR_ENTRY_POINTS = {
    "score_matrix": score_matrix,
    "build_tensor_operator": build_tensor_operator,
    **{
        f"normalized_tensor_operator-{mode}": (
            lambda q, k, mode=mode: normalized_tensor_operator(q, k, normalization=mode)
        )
        for mode in ("trace", "diag", "row")
    },
    "operator_trace": operator_trace,
    "diag_fast": diag_fast,
    "coupling_matrix": coupling_matrix,
    "build_interaction_operator": build_interaction_operator,
    "interaction_trace": interaction_trace,
}


class TestEmptyOperands:
    @pytest.mark.parametrize("shape", [(0, 3), (3, 0)], ids=["n=0", "d=0"])
    @pytest.mark.parametrize("entry", sorted(PAIR_ENTRY_POINTS))
    def test_empty_q_and_k_are_rejected(self, entry, shape):
        with pytest.raises(DimensionMismatch, match="need at least one token"):
            PAIR_ENTRY_POINTS[entry](np.zeros(shape), np.zeros(shape))


class TestBuildOperator:
    def test_identity_inputs(self):
        np.testing.assert_array_equal(build_tensor_operator(np.eye(2), np.eye(2)), np.eye(2))

    def test_hand_example(self):
        t = build_tensor_operator(Q, K)
        np.testing.assert_array_equal(t, [[1.0, 2.0], [2.0, 5.0]])

    def test_matches_loop_oracle_both_sides(self):
        from attnops.oracles import _loop_operator

        rng = np.random.default_rng(0)
        q = rng.standard_normal((5, 3))
        k = rng.standard_normal((5, 3))
        for side in ("q", "k"):
            fast = build_tensor_operator(q, k, TensorOpConfig(side=side))
            slow = _loop_operator(q, k, side=side)
            np.testing.assert_allclose(fast, slow, atol=1e-12)

    def test_hadamard_flavor(self):
        t = build_tensor_operator(Q, K, TensorOpConfig(hadamard=True))
        np.testing.assert_array_equal(t, np.eye(2))
        # both sides of the elementwise flavor coincide
        t_k = build_tensor_operator(Q, K, TensorOpConfig(side="k", hadamard=True))
        np.testing.assert_array_equal(t, t_k)

    def test_hadamard_hermitian_with_score_diagonal(self):
        q = random_matrix(5, 3, seed=1, complex_=True)
        k = random_matrix(5, 3, seed=2, complex_=True)
        t = build_tensor_operator(q, k, TensorOpConfig(hadamard=True))
        np.testing.assert_allclose(t, t.conj().T, atol=1e-13)
        scores = score_matrix(q, k)
        np.testing.assert_allclose(np.diag(t), np.abs(np.diag(scores)) ** 2, atol=1e-13)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TensorOpConfig(side="both")
        with pytest.raises(ValueError):
            normalized_tensor_operator(Q, K, normalization="l2")


class TestDiagFast:
    def test_identity(self):
        np.testing.assert_array_equal(diag_fast(np.eye(2), np.eye(2)), [1.0, 1.0])

    def test_hand_example(self):
        np.testing.assert_allclose(diag_fast(Q, K), [1.0, 5.0], atol=1e-14)

    def test_zero_queries(self):
        np.testing.assert_array_equal(diag_fast(np.zeros((3, 2)), np.ones((3, 2))), np.zeros(3))

    def test_equals_materialized_diagonal(self):
        rng = np.random.default_rng(1)
        for side in ("q", "k"):
            for _ in range(10):
                q = rng.standard_normal((12, 5))
                k = rng.standard_normal((12, 5))
                t = build_tensor_operator(q, k, TensorOpConfig(side=side))
                np.testing.assert_allclose(diag_fast(q, k, side), np.diag(t), atol=1e-10)

    def test_non_negative(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            out = diag_fast(rng.standard_normal((6, 3)), rng.standard_normal((6, 3)))
            assert np.all(out >= 0.0)


class TestFactoredOperator:
    @pytest.mark.parametrize("side", ["q", "k"])
    @pytest.mark.parametrize("complex_", [False, True])
    @pytest.mark.parametrize("n,d,d_v", [(1, 3, 2), (12, 5, 5), (9, 4, 2)])
    def test_matches_materialized(self, side, complex_, n, d, d_v):
        inputs = random_inputs(n, d, d_v=d_v, seed=n + d, complex_=complex_)
        t = build_tensor_operator(inputs.q, inputs.k, TensorOpConfig(side=side))
        op = FactoredOperator.of(inputs.q, inputs.k, TensorOpConfig(side=side))
        np.testing.assert_allclose(op.apply(inputs.v), t @ inputs.v, atol=1e-10)
        np.testing.assert_allclose(op.trace(), np.trace(t).real, rtol=1e-12)
        np.testing.assert_allclose(op.diag(), np.diag(t).real, atol=1e-10)
        np.testing.assert_array_equal(op.diag(), diag_fast(inputs.q, inputs.k, side))

    @pytest.mark.parametrize("side", ["q", "k"])
    @pytest.mark.parametrize("complex_", [False, True])
    @pytest.mark.parametrize("n,d", [(1, 3), (3, 5), (40, 6)])
    def test_materialize_matches_score_product(self, side, complex_, n, d):
        q = random_matrix(n, d, seed=n, complex_=complex_)
        k = random_matrix(n, d, seed=n + 50, complex_=complex_)
        a = q @ k.conj().T
        expected = a @ a.conj().T if side == "q" else a.conj().T @ a
        t = FactoredOperator.of(q, k, TensorOpConfig(side=side)).materialize()
        np.testing.assert_allclose(t, expected, rtol=1e-12, atol=1e-12 * np.abs(expected).max())
        diag = np.diag(t)
        assert np.all(diag.imag == 0.0)
        assert np.all(diag.real >= 0.0)

    def test_rejects_unknown_side(self):
        with pytest.raises(ValueError):
            FactoredOperator.of(Q, K, TensorOpConfig(side="both"))


# (n, d, d_v): values narrower than the features, a single token, fewer tokens than features.
FACTORED_SHAPES = [(16, 4, 3), (1, 3, 2), (3, 5, 5)]


def _materialized_expm(inputs, side, hadamard=False):
    t = build_tensor_operator(inputs.q, inputs.k, TensorOpConfig(side=side, hadamard=hadamard))
    return scipy.linalg.expm(t / np.trace(t).real) @ inputs.v


# Both sides of the product flavor, then the elementwise flavor.
EXPM_CONFIGS = [TensorOpConfig(side="q"), TensorOpConfig(side="k"), TensorOpConfig(hadamard=True)]


def _near_orthogonal(n, d, offset, complex_, seed=0):
    """``random_inputs`` with each query row made orthogonal to its key row, then offset * k added.

    The diagonal scores A[i, i] fall to offset |k_i|^2 while Q and K stay of
    order one.  At n = 1 the trace is that one score squared, tiny next to
    |Q|^2 |K|^2, and T / tr T = 1 exactly, so expm(T / tr T) v = e v.
    """
    x = random_inputs(n, d, seed=seed, complex_=complex_)
    k = x.k
    along = np.sum(x.q * k.conj(), axis=1, keepdims=True) / np.sum(
        np.abs(k) ** 2, axis=1, keepdims=True
    )
    return AttnInputs(x.q - along * k + offset * k, k, x.v)


class TestFactoredPaths:
    """The product-flavor masked and expm variants, evaluated from the rank-d factors."""

    @pytest.mark.parametrize("side", ["q", "k"])
    @pytest.mark.parametrize("complex_", [False, True])
    @pytest.mark.parametrize("n,d,d_v", FACTORED_SHAPES)
    def test_masked_matches_loop_oracle_across_blocks(self, monkeypatch, side, complex_, n, d, d_v):
        monkeypatch.setattr(tensor_attention_module, "_SCAN_BLOCK_ROWS", 4)
        inputs = random_inputs(n, d, d_v=d_v, seed=n + d, complex_=complex_)
        out = tensor_attention_masked(inputs, TensorOpConfig(side=side))
        expected = naive_reference(inputs, "tensor_masked", side=side)
        np.testing.assert_allclose(out, expected, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("side", ["q", "k"])
    @pytest.mark.parametrize("complex_", [False, True])
    def test_masked_matches_materialized_at_scale(self, side, complex_):
        inputs = random_inputs(300, 8, d_v=5, seed=23, complex_=complex_)
        assert inputs.n > 2 * tensor_attention_module._SCAN_BLOCK_ROWS
        t = build_tensor_operator(inputs.q, inputs.k, TensorOpConfig(side=side))
        expected = np.tril(t) @ inputs.v / np.trace(t).real
        out = tensor_attention_masked(inputs, TensorOpConfig(side=side))
        np.testing.assert_allclose(out, expected, rtol=0, atol=1e-12 * np.abs(expected).max())

    @pytest.mark.parametrize("side", ["q", "k"])
    @pytest.mark.parametrize("complex_", [False, True])
    @pytest.mark.parametrize("n,d,d_v", [*FACTORED_SHAPES, (300, 8, 5)])
    def test_expm_matches_scipy(self, side, complex_, n, d, d_v):
        inputs = random_inputs(n, d, d_v=d_v, seed=n + d, complex_=complex_)
        expected = _materialized_expm(inputs, side)
        out = tensor_attention_expm(inputs, TensorOpConfig(side=side))
        np.testing.assert_allclose(out, expected, rtol=0, atol=1e-12 * np.abs(expected).max())

    @pytest.mark.parametrize("side", ["q", "k"])
    @pytest.mark.parametrize("complex_", [False, True])
    def test_expm_with_a_singular_gram(self, side, complex_):
        # A zero feature column makes G exactly singular: Cholesky fails, and the
        # clamped eigh spectrum factors G instead.
        inputs = random_inputs(16, 4, d_v=3, seed=26, complex_=complex_)
        q, k = inputs.q.copy(), inputs.k.copy()
        q[:, -1] = k[:, -1] = 0.0
        gram = FactoredOperator.of(q, k, TensorOpConfig(side=side)).gram
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(gram)
        singular = AttnInputs(q, k, inputs.v)
        expected = _materialized_expm(singular, side)
        out = tensor_attention_expm(singular, TensorOpConfig(side=side))
        np.testing.assert_allclose(out, expected, rtol=0, atol=1e-12 * np.abs(expected).max())

    def test_product_flavors_never_materialize(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("materialized the n-by-n operator")

        monkeypatch.setattr(tensor_attention_module, "build_tensor_operator", refuse)
        inputs = random_inputs(50, 4, d_v=3, seed=24)
        for side in ("q", "k"):
            cfg = TensorOpConfig(side=side)
            assert tensor_attention_masked(inputs, cfg).shape == (50, 3)
            assert tensor_attention_expm(inputs, cfg).shape == (50, 3)
        # The elementwise flavor still materializes.
        with pytest.raises(AssertionError, match="materialized"):
            tensor_attention_masked(inputs, TensorOpConfig(hadamard=True))
        with pytest.raises(AssertionError, match="materialized"):
            tensor_attention_expm(inputs, TensorOpConfig(hadamard=True))


class TestNaivePath:
    def test_identity_inputs_trace_mode(self):
        np.testing.assert_allclose(tensor_attention_naive(EYE_INPUTS), V / 2.0, atol=1e-15)

    def test_running_example_trace_mode(self):
        expected = np.array([[7.0, 10.0], [17.0, 24.0]]) / 6.0
        np.testing.assert_allclose(tensor_attention_naive(RUNNING), expected, atol=1e-14)

    def test_running_example_row_mode(self):
        # row sums of [[1,2],[2,5]] are 3 and 7
        expected = np.array([[1 / 3, 2 / 3], [2 / 7, 5 / 7]]) @ V
        out = tensor_attention_naive(RUNNING, normalization="row")
        np.testing.assert_allclose(out, expected, atol=1e-14)

    def test_identity_inputs_diag_and_row_modes(self):
        for mode in ("diag", "row"):
            out = tensor_attention_naive(EYE_INPUTS, normalization=mode)
            np.testing.assert_allclose(out, V, atol=1e-15)

    def test_zero_inputs_degenerate(self):
        zeros = AttnInputs(np.zeros((2, 2)), np.zeros((2, 2)), V)
        with pytest.raises(DegenerateNormalizer, match="trace"):
            tensor_attention_naive(zeros)

    def test_degenerate_diag_names_entry(self):
        q = np.array([[1.0, 0.0], [0.0, 0.0]])
        with pytest.raises(DegenerateNormalizer, match="entry 1"):
            tensor_attention_naive(AttnInputs(q, q, V), normalization="diag")

    def test_row_normalized_rows_sum_to_one(self):
        rng = np.random.default_rng(3)
        q = np.abs(rng.standard_normal((6, 3)))
        k = np.abs(rng.standard_normal((6, 3)))
        normalized = normalized_tensor_operator(q, k, normalization="row")
        np.testing.assert_allclose(normalized.sum(axis=1), np.ones(6), atol=1e-12)

    def test_row_mode_rejects_complex(self):
        inputs = random_inputs(3, 2, seed=4, complex_=True)
        with pytest.raises(ComplexNotSupported):
            tensor_attention_naive(inputs, normalization="row")


class TestLinearPath:
    def test_identity_inputs(self):
        np.testing.assert_allclose(tensor_attention_linear(EYE_INPUTS), V / 2.0, atol=1e-15)

    def test_normalizer_matches_trace(self):
        # sum((K^T K) o (Q^T Q)) = 2 + 1 + 1 + 2 = 6 = tr(T)
        assert abs(operator_trace(Q, K) - 6.0) < 1e-14
        np.testing.assert_allclose(
            tensor_attention_linear(RUNNING), tensor_attention_naive(RUNNING), atol=1e-14
        )

    def test_equals_naive_at_scale(self):
        inputs = random_inputs(64, 8, seed=5)
        np.testing.assert_allclose(
            tensor_attention_linear(inputs), tensor_attention_naive(inputs), atol=1e-10
        )

    def test_key_side(self):
        inputs = random_inputs(16, 4, d_v=3, seed=6)
        np.testing.assert_allclose(
            tensor_attention_linear(inputs, TensorOpConfig(side="k")),
            tensor_attention_naive(inputs, TensorOpConfig(side="k")),
            atol=1e-12,
        )

    def test_complex_inputs(self):
        inputs = random_inputs(8, 3, seed=7, complex_=True)
        np.testing.assert_allclose(
            tensor_attention_linear(inputs), tensor_attention_naive(inputs), atol=1e-12
        )

    def test_degenerate(self):
        zeros = AttnInputs(np.zeros((3, 2)), np.zeros((3, 2)), np.ones((3, 2)))
        with pytest.raises(DegenerateNormalizer):
            tensor_attention_linear(zeros)


class TestReluPath:
    def test_non_negative_operator_reduces_to_naive(self):
        np.testing.assert_allclose(
            tensor_attention_relu(RUNNING), tensor_attention_naive(RUNNING), atol=1e-14
        )

    def test_clamps_and_keeps_trace(self):
        # operator [[2,-2],[-2,2]]: off-diagonals clamp, trace 4 survives
        inputs = AttnInputs([[1.0], [-1.0]], [[1.0], [1.0]], V)
        np.testing.assert_allclose(tensor_attention_relu(inputs), V / 2.0, atol=1e-14)
        t = build_tensor_operator(inputs.q, inputs.k)
        np.testing.assert_array_equal(t, [[2.0, -2.0], [-2.0, 2.0]])
        assert np.trace(np.maximum(t, 0.0)) == np.trace(t)

    def test_trace_preserved_exactly_randomized(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            t = build_tensor_operator(rng.standard_normal((5, 2)), rng.standard_normal((5, 2)))
            assert float(np.trace(np.maximum(t, 0.0))) == float(np.trace(t))

    def test_zero_degenerate(self):
        zeros = AttnInputs(np.zeros((2, 2)), np.zeros((2, 2)), V)
        with pytest.raises(DegenerateNormalizer):
            tensor_attention_relu(zeros)

    def test_rejects_complex(self):
        inputs = random_inputs(3, 2, seed=9, complex_=True)
        with pytest.raises(ComplexNotSupported):
            tensor_attention_relu(inputs)

    def test_matches_loop_oracle(self):
        for seed in range(5):
            inputs = random_inputs(5, 2, seed=seed)
            np.testing.assert_allclose(
                tensor_attention_relu(inputs), naive_reference(inputs, "tensor_relu"), atol=1e-12
            )


class TestElemExpPath:
    def test_identity_inputs(self):
        root_e = np.exp(0.5)
        expected = np.array([[root_e, 1.0], [1.0, root_e]]) @ V
        np.testing.assert_allclose(tensor_attention_elem_exp(EYE_INPUTS), expected, atol=1e-14)

    def test_single_token(self):
        inputs = random_inputs(1, 3, d_v=2, seed=10)
        np.testing.assert_allclose(
            tensor_attention_elem_exp(inputs), np.e * inputs.v, atol=1e-14
        )

    def test_matches_loop_oracle(self):
        inputs = random_inputs(8, 4, seed=11)
        np.testing.assert_allclose(
            tensor_attention_elem_exp(inputs),
            naive_reference(inputs, "tensor_elem_exp"),
            atol=1e-12,
        )

    def test_rejects_complex(self):
        inputs = random_inputs(3, 2, seed=12, complex_=True)
        with pytest.raises(ComplexNotSupported):
            tensor_attention_elem_exp(inputs)


class TestExpmPath:
    def test_identity_inputs_scalar_operator(self):
        np.testing.assert_allclose(
            tensor_attention_expm(EYE_INPUTS), np.exp(0.5) * V, atol=1e-12
        )

    def test_zero_inputs_rejected_by_normalizer(self):
        zeros = AttnInputs(np.zeros((2, 2)), np.zeros((2, 2)), V)
        with pytest.raises(DegenerateNormalizer):
            tensor_attention_expm(zeros)

    def test_matches_loop_series(self):
        inputs = random_inputs(5, 3, seed=13)
        np.testing.assert_allclose(
            tensor_attention_expm(inputs), naive_reference(inputs, "tensor_expm"), atol=1e-10
        )

    @pytest.mark.parametrize("side", ["q", "k"])
    def test_near_orthogonal_single_token_matches_loop_oracle(self, side):
        # tr T = 1.006e-12 passes the guard while |Q|^2 |K|^2 is of order one, the
        # ratio that scaling and squaring a non-normal matrix amplifies rounding by.
        inputs = _near_orthogonal(1, 4, 1e-7, complex_=True)
        assert operator_trace(inputs.q, inputs.k) == pytest.approx(1.006e-12, rel=1e-3)
        expected = naive_reference(inputs, "tensor_expm", side=side)
        np.testing.assert_allclose(expected, np.e * inputs.v, rtol=1e-14)
        out = tensor_attention_expm(inputs, TensorOpConfig(side=side))
        np.testing.assert_allclose(out, expected, rtol=0, atol=1e-12 * np.abs(expected).max())

    @pytest.mark.parametrize("side", ["q", "k"])
    @pytest.mark.parametrize("complex_", [False, True])
    def test_near_orthogonal_sweep_matches_scipy(self, side, complex_):
        cfg = TensorOpConfig(side=side)
        for n in (1, 2, 4, 300):
            for offset in (1e-3, 1e-4, 1e-5, 1e-6, 1e-7):
                inputs = _near_orthogonal(n, 8 if n == 300 else 4, offset, complex_, seed=n)
                if operator_trace(inputs.q, inputs.k) < 1e-12 * n:
                    with pytest.raises(DegenerateNormalizer):
                        tensor_attention_expm(inputs, cfg)
                    continue
                expected = _materialized_expm(inputs, side)
                np.testing.assert_allclose(
                    tensor_attention_expm(inputs, cfg), expected,
                    rtol=0, atol=1e-12 * np.abs(expected).max(), err_msg=f"n={n} offset={offset}",
                )

    def test_no_flavor_runs_the_pade_exponential(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("ran scaling and squaring")

        monkeypatch.setattr(expm_module, "_scaled_and_squared", refuse)
        inputs = random_inputs(128, 8, d_v=5, seed=25)
        for cfg in EXPM_CONFIGS:
            expected = _materialized_expm(inputs, cfg.side, cfg.hadamard)
            np.testing.assert_allclose(
                tensor_attention_expm(inputs, cfg), expected,
                rtol=0, atol=1e-12 * np.abs(expected).max(), err_msg=str(cfg),
            )

    def test_elementwise_overflow_is_typed(self):
        # tr T shrinks with the diagonal scores, so T / tr T has eigenvalues past 709
        # and e^lambda overflows without a RuntimeWarning.
        inputs = _near_orthogonal(128, 8, 0.004, complex_=False, seed=1)
        with pytest.raises(NonFiniteInput) as exc:
            tensor_attention_expm(inputs, TensorOpConfig(hadamard=True))
        assert exc.value.stage == "matrix-exponential tensor attention"

    @pytest.mark.parametrize("cfg", [
        *EXPM_CONFIGS[:2],
        # the elementwise score product A o conj(A)^T overflows before any guard
        pytest.param(EXPM_CONFIGS[2], marks=pytest.mark.filterwarnings("ignore::RuntimeWarning")),
    ], ids=["q", "k", "hadamard"])
    @pytest.mark.parametrize("scaled", ["q", "k"])
    def test_scaled_inputs_raise_typed_errors(self, cfg, scaled):
        x = random_inputs(16, 4, seed=0)
        for scale, error in ((1e160, NonFiniteInput), (1e200, NonFiniteInput),
                             (1e-160, DegenerateNormalizer)):
            q, k = (x.q * scale, x.k) if scaled == "q" else (x.q, x.k * scale)
            with pytest.raises(error) as exc:
                tensor_attention_expm(AttnInputs(q, k, x.v), cfg)
            if error is NonFiniteInput:
                assert exc.value.stage in ("operator trace", "Gram matrix")


class TestMaskedPath:
    def test_single_token_equals_unmasked(self):
        inputs = random_inputs(1, 3, seed=14)
        np.testing.assert_allclose(
            tensor_attention_masked(inputs), tensor_attention_naive(inputs), atol=1e-15
        )

    def test_running_example(self):
        expected = np.array([[1.0, 2.0], [17.0, 24.0]]) / 6.0
        np.testing.assert_allclose(tensor_attention_masked(RUNNING), expected, atol=1e-14)

    def test_diagonal_operator_unaffected(self):
        np.testing.assert_allclose(
            tensor_attention_masked(EYE_INPUTS), tensor_attention_naive(EYE_INPUTS), atol=1e-15
        )

    def test_matches_loop_oracle(self):
        inputs = random_inputs(6, 3, seed=15)
        np.testing.assert_allclose(
            tensor_attention_masked(inputs), naive_reference(inputs, "tensor_masked"), atol=1e-12
        )


class TestResidualPath:
    def test_lambda_zero_is_unnormalized_operator(self):
        t = build_tensor_operator(Q, K)
        np.testing.assert_allclose(tensor_attention_residual(RUNNING), t @ V, atol=1e-12)

    def test_identity_inputs(self):
        np.testing.assert_allclose(
            tensor_attention_residual(EYE_INPUTS, lam=1.0), 3.0 * V, atol=1e-14
        )

    def test_zero_queries_give_zero(self):
        zeros = AttnInputs(np.zeros((3, 2)), np.ones((3, 2)), np.ones((3, 2)))
        np.testing.assert_array_equal(tensor_attention_residual(zeros, lam=2.0), np.zeros((3, 2)))

    def test_matches_materialization(self):
        for seed in range(5):
            inputs = random_inputs(7, 3, seed=seed)
            lam = 0.3 * seed
            t = build_tensor_operator(inputs.q, inputs.k)
            expected = (t + lam * np.trace(t) * np.eye(7)) @ inputs.v
            np.testing.assert_allclose(
                tensor_attention_residual(inputs, lam=lam), expected, atol=1e-10
            )

    def test_matches_loop_oracle(self):
        inputs = random_inputs(5, 3, seed=16)
        np.testing.assert_allclose(
            tensor_attention_residual(inputs, lam=0.7),
            naive_reference(inputs, "tensor_residual", lam=0.7),
            atol=1e-11,
        )

    def test_rejects_elementwise_flavor(self):
        with pytest.raises(ValueError):
            tensor_attention_residual(RUNNING, TensorOpConfig(hadamard=True), lam=0.5)

    def test_rejects_negative_lambda(self):
        for lam in (-0.1, np.nan, np.inf):
            with pytest.raises(ValueError):
                tensor_attention_residual(RUNNING, lam=lam)


class TestOperatorInvariants:
    def test_trace_equals_squared_frobenius(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            q = rng.standard_normal((9, 4))
            k = rng.standard_normal((9, 4))
            scores = score_matrix(q, k)
            t = build_tensor_operator(q, k)
            np.testing.assert_allclose(np.trace(t), np.sum(scores**2), rtol=1e-10)

    def test_trace_equal_on_both_sides(self):
        rng = np.random.default_rng(18)
        for _ in range(20):
            q = rng.standard_normal((7, 3))
            k = rng.standard_normal((7, 3))
            t_q = build_tensor_operator(q, k, TensorOpConfig(side="q"))
            t_k = build_tensor_operator(q, k, TensorOpConfig(side="k"))
            np.testing.assert_allclose(np.trace(t_q), np.trace(t_k), rtol=1e-10)
            np.testing.assert_allclose(np.trace(t_q), operator_trace(q, k), rtol=1e-10)

    def test_psd_probes_both_sides(self):
        rng = np.random.default_rng(19)
        for _ in range(10):
            q = rng.standard_normal((8, 3))
            k = rng.standard_normal((8, 3))
            for side in ("q", "k"):
                t = build_tensor_operator(q, k, TensorOpConfig(side=side))
                bound = 1e-10 * np.linalg.norm(t)
                for _ in range(20):
                    x = rng.standard_normal(8)
                    assert x @ t @ x >= -bound * (x @ x)

    def test_diagonal_non_negative(self):
        rng = np.random.default_rng(20)
        for _ in range(20):
            t = build_tensor_operator(rng.standard_normal((6, 2)), rng.standard_normal((6, 2)))
            assert np.min(np.diag(t)) >= 0.0

    def test_complex_operator_hermitian(self):
        for seed in range(10):
            q = random_matrix(6, 3, seed=seed, complex_=True)
            k = random_matrix(6, 3, seed=seed + 100, complex_=True)
            for side in ("q", "k"):
                t = build_tensor_operator(q, k, TensorOpConfig(side=side))
                np.testing.assert_allclose(t, t.conj().T, atol=1e-12)
                diag = np.diag(t)
                assert np.max(np.abs(diag.imag)) < 1e-12
                assert np.min(diag.real) >= 0.0

    def test_gradients_match_between_paths(self):
        from attnops import fd_probe

        rng = np.random.default_rng(21)
        inputs = random_inputs(4, 3, seed=22)
        u = rng.standard_normal(4)
        w = rng.standard_normal(3)
        g_naive = fd_probe("tensor_naive", inputs, u, w, h=1e-5)
        g_linear = fd_probe("tensor_linear", inputs, u, w, h=1e-5)
        assert np.max(np.abs(g_naive - g_linear)) < 1e-4


class TestOverflow:
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("rows", [slice(0, 1), slice(None)])
    @pytest.mark.parametrize("variant", variant_ids())
    def test_finite_output_or_typed_error(self, variant, rows):
        # Finite inputs whose operator overflows float64: the result is either
        # finite or an AttnOpsError, never a silent NaN or Inf.
        inputs = random_inputs(64, 8, seed=0)
        q, k = inputs.q.copy(), inputs.k
        if variant == "tensor_row":
            q, k = np.abs(q), np.abs(k)
        q[rows] *= 1e160
        try:
            out = forward(variant, AttnInputs(q, k, inputs.v))
        except AttnOpsError:
            return
        assert np.all(np.isfinite(out))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize(
        "variant",
        ["softmax", "kernel", "interaction", "tensor_diag", "tensor_linear", "tensor_masked",
         "tensor_relu"],
    )
    def test_overflowed_output_raises(self, variant):
        # The normalizers pass the guard; the output itself overflows.
        inputs = random_inputs(16, 4, seed=0)
        q, k, v = inputs.q.copy(), inputs.k.copy(), inputs.v.copy()
        if variant == "softmax":
            q[0] = np.abs(q[0]) * 1e170
            k[0] = np.abs(k[0]) * 1e170
        elif variant == "kernel":
            v[:] = 1e308
        else:
            v[0] = v[1] = 1e307
            q[0] *= 1e3
        with pytest.raises(NonFiniteInput, match="overflowed"):
            forward(variant, AttnInputs(q, k, v))

    @pytest.mark.parametrize("side", ["q", "k"])
    @pytest.mark.parametrize("case", ["large value rows", "large keys and values"])
    def test_factored_expm_keeps_the_materialized_range(self, side, case):
        # B^H v would overflow unless both W and the Gram's factor L are scaled down;
        # expm(T / tr T) v itself is finite.
        inputs = random_inputs(16, 4, seed=0)
        q, k, v = inputs.q.copy(), inputs.k.copy(), inputs.v.copy()
        if case == "large value rows":
            v[0] = v[1] = 1e307
            q[0] *= 1e3
        else:
            k *= 1e150
            v *= 1e200
        big = AttnInputs(q, k, v)
        expected = _materialized_expm(big, side)
        assert np.all(np.isfinite(expected))
        np.testing.assert_allclose(
            tensor_attention_expm(big, TensorOpConfig(side=side)), expected,
            rtol=0, atol=1e-12 * np.abs(expected).max(),
        )

    @pytest.mark.parametrize("side", ["q", "k"])
    @pytest.mark.parametrize(
        "variant", ["tensor_linear", "tensor_masked", "tensor_expm", "tensor_naive"])
    def test_overflowed_gram_is_typed_without_a_warning(self, variant, side):
        # The Gram comes from the other side's factor: K^H K on the query side, Q^H Q on
        # the key side.  It overflows first, and raises before any other product warns.
        x = random_inputs(16, 4, seed=0)
        q, k = (x.q, x.k * 1e160) if side == "q" else (x.q * 1e160, x.k)
        with pytest.raises(NonFiniteInput) as exc:
            forward(variant, AttnInputs(q, k, x.v), side=side)
        assert exc.value.stage == "Gram matrix"

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflowed_normalizer_names_entry(self):
        # the Gram q^T q stays finite; the operator's first diagonal entry overflows
        q = np.array([[1e100, 0.0], [1.0, 1.0]])
        with pytest.raises(NonFiniteInput, match="diagonal entry 0"):
            tensor_attention_naive(AttnInputs(q, q, V), normalization="diag")
