import numpy as np
import pytest

from attnops import (
    AttnInputs,
    DegenerateNormalizer,
    TensorOpConfig,
    forward,
    random_matrix,
    linear_kernel_attention,
    random_inputs,
    softmax_attention,
    tensor_attention_elem_exp,
    tensor_attention_expm,
    tensor_attention_linear,
    tensor_attention_masked,
    tensor_attention_naive,
    tensor_attention_relu,
    tensor_attention_residual,
    tensor_interaction,
    variant_ids,
)
from attnops import registry
from attnops.tensor_attention import FactoredOperator

# The implementation each id reaches, by its attribute name on attnops.registry.
IMPLEMENTATIONS = {
    "softmax": "softmax_attention",
    "kernel": "linear_kernel_attention",
    "tensor_naive": "tensor_attention_naive",
    "tensor_diag": "tensor_attention_naive",
    "tensor_row": "tensor_attention_naive",
    "tensor_linear": "tensor_attention_linear",
    "tensor_relu": "tensor_attention_relu",
    "tensor_elem_exp": "tensor_attention_elem_exp",
    "tensor_expm": "tensor_attention_expm",
    "tensor_masked": "tensor_attention_masked",
    "tensor_residual": "tensor_attention_residual",
    "interaction": "tensor_interaction",
}

CONFIGS = [
    TensorOpConfig(),
    TensorOpConfig(side="k"),
    TensorOpConfig(hadamard=True),
]


def nonneg_inputs(n=12, d=4, seed=3):
    # Non-negative Q and K keep the row sums positive, so tensor_row runs too.
    inputs = random_inputs(n, d, seed=seed)
    return AttnInputs(np.abs(inputs.q), np.abs(inputs.k), inputs.v)


def options(cfg):
    return {"side": cfg.side, "hadamard": cfg.hadamard}


def assert_same_bytes(got, expected):
    assert got.dtype == expected.dtype and got.shape == expected.shape
    assert got.tobytes() == expected.tobytes()


class TestTracerContract:
    # The benchmark's tracer replaces these module attributes with timing
    # wrappers, so forward must look each one up when it is called.
    def test_every_id_is_listed(self):
        assert sorted(IMPLEMENTATIONS) == list(variant_ids())

    @pytest.mark.parametrize("variant", sorted(IMPLEMENTATIONS))
    def test_forward_calls_the_module_attribute_once(self, variant, monkeypatch):
        name = IMPLEMENTATIONS[variant]
        original = getattr(registry, name)
        calls = []

        def recording(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(registry, name, recording)
        inputs = nonneg_inputs()
        out = forward(variant, inputs)
        assert len(calls) == 1
        assert calls[0][0] is inputs
        assert out.shape == (inputs.n, inputs.d_v)


class TestOptionsRejected:
    @pytest.mark.parametrize("variant", ["softmax", "kernel"])
    def test_side_on_baselines(self, variant):
        with pytest.raises(TypeError):
            forward(variant, nonneg_inputs(), side="k")

    @pytest.mark.parametrize("variant", ["tensor_linear", "tensor_residual"])
    def test_hadamard_without_rank_d_form(self, variant):
        with pytest.raises(ValueError, match="rank-d"):
            forward(variant, nonneg_inputs(), hadamard=True)

    @pytest.mark.parametrize("variant", ["tensor_diag", "tensor_row"])
    @pytest.mark.parametrize("normalization", ["trace", "diag", "row"])
    def test_normalization_is_fixed(self, variant, normalization):
        with pytest.raises(TypeError):
            forward(variant, nonneg_inputs(), normalization=normalization)

    @pytest.mark.parametrize("orientation", ["nxd", "dxn"])
    def test_orientation_on_interaction(self, orientation):
        with pytest.raises(TypeError):
            forward("interaction", nonneg_inputs(), orientation=orientation)

    def test_bad_side_names_the_field(self):
        with pytest.raises(ValueError, match="side"):
            forward("tensor_naive", nonneg_inputs(), side="both")

    # The thresholds and the exponential are constants of the library, not options.
    @pytest.mark.parametrize("variant", sorted(IMPLEMENTATIONS))
    @pytest.mark.parametrize("option", ["trace_epsilon", "spec", "epsilon"])
    def test_removed_options(self, variant, option):
        with pytest.raises(TypeError):
            forward(variant, nonneg_inputs(), **{option: 1e-9})


class TestOptionsForwarded:
    @pytest.mark.parametrize("cfg", CONFIGS)
    @pytest.mark.parametrize(
        "variant, direct",
        [
            ("tensor_naive", lambda x, cfg: tensor_attention_naive(x, cfg)),
            ("tensor_diag", lambda x, cfg: tensor_attention_naive(x, cfg, normalization="diag")),
            ("tensor_row", lambda x, cfg: tensor_attention_naive(x, cfg, normalization="row")),
            ("tensor_relu", tensor_attention_relu),
            ("tensor_elem_exp", tensor_attention_elem_exp),
            ("tensor_expm", tensor_attention_expm),
            ("tensor_masked", tensor_attention_masked),
            ("interaction", tensor_interaction),
        ],
    )
    def test_config_matches_direct_call(self, variant, direct, cfg):
        inputs = nonneg_inputs()
        assert_same_bytes(forward(variant, inputs, **options(cfg)), direct(inputs, cfg))

    @pytest.mark.parametrize("cfg", [c for c in CONFIGS if not c.hadamard])
    def test_product_flavor_config_matches_direct_call(self, cfg):
        inputs = nonneg_inputs()
        assert_same_bytes(
            forward("tensor_linear", inputs, **options(cfg)), tensor_attention_linear(inputs, cfg)
        )
        assert_same_bytes(
            forward("tensor_residual", inputs, **options(cfg)),
            tensor_attention_residual(inputs, cfg, lam=0.5),
        )

    @pytest.mark.parametrize(
        "variant", sorted(set(IMPLEMENTATIONS) - {"softmax", "kernel", "tensor_residual"})
    )
    def test_zero_queries_reach_the_guard(self, variant):
        # tensor_residual is unnormalized, so only the normalized ids are checked.
        inputs = nonneg_inputs()
        with pytest.raises(DegenerateNormalizer):
            forward(variant, AttnInputs(np.zeros_like(inputs.q), inputs.k, inputs.v))

    def test_naive_forwards_normalization(self):
        inputs = nonneg_inputs()
        for normalization, variant in (("diag", "tensor_diag"), ("row", "tensor_row")):
            via_naive = forward("tensor_naive", inputs, normalization=normalization)
            assert_same_bytes(via_naive, forward(variant, inputs))

    def test_residual_defaults_to_half_and_honours_lam(self):
        inputs = nonneg_inputs()
        cfg = TensorOpConfig()
        half = forward("tensor_residual", inputs)
        assert_same_bytes(half, tensor_attention_residual(inputs, cfg, lam=0.5))
        assert not np.array_equal(half, tensor_attention_residual(inputs, cfg))
        for lam in (0.0, 2.0):
            assert_same_bytes(
                forward("tensor_residual", inputs, lam=lam),
                tensor_attention_residual(inputs, cfg, lam=lam),
            )

    def test_softmax_matches_direct_call(self):
        inputs = nonneg_inputs()
        assert_same_bytes(forward("softmax", inputs), softmax_attention(inputs))

    def test_kernel_matches_direct_call(self):
        inputs = nonneg_inputs()
        assert_same_bytes(forward("kernel", inputs), linear_kernel_attention(inputs))


class TestSelfAttention:
    # Self-attention (q is k is v) reuses the key Gram as W^H W and W^H V.
    @pytest.mark.parametrize("shape", [(65, 32), (5, 8)])  # n < d leaves G singular
    @pytest.mark.parametrize("complex_", [False, True])
    @pytest.mark.parametrize("side", ["q", "k"])
    @pytest.mark.parametrize(
        "variant", ["tensor_linear", "tensor_residual", "tensor_masked", "tensor_naive",
                    "tensor_expm"]
    )
    def test_shared_array_gives_the_bytes_of_copies(self, variant, side, complex_, shape):
        x = random_matrix(*shape, seed=shape[0], complex_=complex_)
        shared = forward(variant, AttnInputs(x, x, x), side=side)
        assert_same_bytes(shared, forward(variant, AttnInputs(x, x.copy(), x.copy()), side=side))
        v = random_matrix(shape[0], 3, seed=2, complex_=complex_)  # q is k, v apart
        assert_same_bytes(forward(variant, AttnInputs(x, x, v), side=side),
                          forward(variant, AttnInputs(x, x.copy(), v), side=side))

    def test_only_a_shared_factor_is_marked(self):
        x = random_matrix(6, 3, seed=1)
        assert FactoredOperator.of(x, x)._self_gram
        assert not FactoredOperator.of(x, x.copy())._self_gram
        with pytest.raises(TypeError):
            FactoredOperator(x, x.T @ x, True)  # not a constructor argument
