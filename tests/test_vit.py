import dataclasses
import importlib.util
import json
import math
import os
import signal
import subprocess
import sys
import textwrap
import threading
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy.special import erf

from attnops import (
    AttnInputs,
    AttnOpsError,
    DegenerateNormalizer,
    DimensionMismatch,
    InvalidOption,
    NonFiniteInput,
    UnknownOption,
    UnknownVariant,
    array_checksum,
    forward,
    gelu,
    layer_norm,
    random_matrix,
    variant_ids,
    vit_forward,
    vit_init,
)
from attnops import vit as vit_module
from attnops.dense import as_matrix
from attnops.vit import LAYER_NORM_EPS


# The one-expression formulas the encoder stages are pinned to, byte for byte.
def reference_gelu(x):
    return 0.5 * x * (1.0 + erf(x / math.sqrt(2.0)))


def reference_layer_norm(x, scale, shift):
    mean = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    return (x - mean) / np.sqrt(var + LAYER_NORM_EPS) * scale + shift


def reference_forward(params, patches, gemms=None, step_by_step=False):
    """The whole-array encoder; each MLP product's operands go into ``gemms`` if given.

    Each MLP half runs in the dtype of its tokens and parameters, as the encoder runs it;
    with ``step_by_step`` it promotes at the first step that meets a higher dtype instead.
    """
    if callable(params.mechanism):
        mix = params.mechanism
    else:
        def mix(attn):
            return forward(params.mechanism, attn, **params.mechanism_options)

    tokens = np.vstack([params.class_token, patches @ params.patch_embed]) + params.pos_embed
    for block in params.blocks:
        normed = reference_layer_norm(tokens, block.ln1_scale, block.ln1_shift)
        tokens = mix(AttnInputs(normed, normed, normed)) + tokens
        if not step_by_step:
            tokens = tokens.astype(np.result_type(tokens, block.ln2_scale, block.ln2_shift,
                                                  block.mlp_w1, block.mlp_b1, block.mlp_w2,
                                                  block.mlp_b2))
        normed = reference_layer_norm(tokens, block.ln2_scale, block.ln2_shift)
        hidden = reference_gelu(normed @ block.mlp_w1 + block.mlp_b1)
        tokens = (hidden @ block.mlp_w2 + block.mlp_b2) + tokens
        if gemms is not None:
            gemms += [(normed, block.mlp_w1, block.mlp_w1.shape[1]),
                      (hidden, block.mlp_w2, block.mlp_w1.shape[1])]
    return reference_layer_norm(tokens[:1], params.head_scale, params.head_shift)[0]


# At this hidden width the MLP runs over tiles of TILE rows (the rule in ``vit._tile_starts``).
HIDDEN = 128
TILE = vit_module._tile_starts(0, HIDDEN).step
# One patch, a single partial tile, either side of one tile (TILE + 1 leaves a one-row
# remainder for the last tile to absorb), and two tiles plus that remainder.
TOKEN_COUNTS = (2, 10, TILE - 1, TILE, TILE + 1, 2 * TILE + 1)


WORKLOADS = Path(__file__).resolve().parent.parent / "benchmark" / "workloads.py"


def benchmark_cells(monkeypatch, workload, seed=0):
    """The benchmark's cells of ``workload``, loaded by file path (``benchmark`` is not a
    package), as ``(params, patches)`` pairs."""
    spec = importlib.util.spec_from_file_location("benchmark_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # dataclasses looks it up there
    spec.loader.exec_module(module)
    return [cell.run.args for cell in getattr(module, workload)(seed)]


def _recast_blocks(params, cast, *fields):
    blocks = tuple(
        dataclasses.replace(b, **{f: cast(getattr(b, f)) for f in fields}) for b in params.blocks
    )
    return dataclasses.replace(params, blocks=blocks)


def _to_complex(a):
    return a * (1.0 - 0.5j)


# Parameter changes that promote the dtype of the forward pass at different steps.  The last
# three outrank the real tokens of an MLP half, which then runs in complex from its LN2 on.
PROMOTIONS = {
    "float32 mlp": lambda p: _recast_blocks(
        p, lambda a: a.astype(np.float32), "mlp_w1", "mlp_b1", "mlp_w2", "mlp_b2"),
    "complex patch_embed": lambda p: dataclasses.replace(p, patch_embed=_to_complex(p.patch_embed)),
    "complex mixer": lambda p: dataclasses.replace(
        p, mechanism=lambda attn: _to_complex(forward("tensor_linear", attn))),
    "complex ln2_scale": lambda p: _recast_blocks(p, _to_complex, "ln2_scale"),
    "complex mlp_b1": lambda p: _recast_blocks(p, _to_complex, "mlp_b1"),
    "complex mlp_w2": lambda p: _recast_blocks(p, _to_complex, "mlp_w2"),
}


def assert_same_bytes(got, expected):
    assert type(got) is type(expected)
    got, expected = np.asarray(got), np.asarray(expected)
    assert got.dtype == expected.dtype
    assert got.shape == expected.shape
    assert got.tobytes() == expected.tobytes()


def _tiles_round_like_whole(x, w, hidden, stop):
    """Whether BLAS rounds every MLP row tile of ``x[:stop] @ w`` exactly as the whole product.

    The tiles are the ones ``vit._mlp_half`` uses, from ``vit._tile_starts``.
    """
    bounds = [*vit_module._tile_starts(stop, hidden), stop]
    whole = x @ w
    return all(np.array_equal(x[a:b] @ w, whole[a:b]) for a, b in zip(bounds, bounds[1:]))


def _every_tile_rounds_like_whole(gemms):
    """``_tiles_round_like_whole`` for every MLP product ``reference_forward`` recorded.

    The last block's two products run on their two-row head only, so only those rows
    are probed there.
    """
    stops = [len(x) for x, *_ in gemms[:-2]] + [min(len(x), 2) for x, *_ in gemms[-2:]]
    return all(_tiles_round_like_whole(*gemm, stop) for gemm, stop in zip(gemms, stops))


def assert_matches_reference(got, expected, gemms):
    """Equal bytes where BLAS rounds the row tiles of each recorded MLP product like the
    whole product (OpenBLAS does at most shapes here), else agreement to rounding."""
    if _every_tile_rounds_like_whole(gemms):
        assert_same_bytes(got, expected)
    else:
        assert type(got) is type(expected) and got.dtype == expected.dtype
        bound = 64 * np.finfo(float).eps * np.max(np.abs(expected))
        assert np.max(np.abs(got - expected)) <= bound


def _params_checksum(params):
    pieces = [params.patch_embed, params.pos_embed, params.class_token]
    for block in params.blocks:
        pieces.extend([block.mlp_w1, block.mlp_b1, block.mlp_w2, block.mlp_b2])
    return array_checksum(np.concatenate([p.ravel() for p in pieces]))


class TestInit:
    def test_same_seed_is_bitwise_identical(self):
        a = vit_init(6, 8, 32, 4, 2, seed=42)
        b = vit_init(6, 8, 32, 4, 2, seed=42)
        assert _params_checksum(a) == _params_checksum(b)

    def test_neighboring_seeds_differ(self):
        a = vit_init(6, 8, 32, 4, 2, seed=42)
        b = vit_init(6, 8, 32, 4, 2, seed=43)
        assert _params_checksum(a) != _params_checksum(b)

    def test_default_geometry_and_shapes(self):
        params = vit_init(6, 8, 32, 4, 2, seed=0)
        assert params.patch_embed.shape == (6, 8)
        assert params.pos_embed.shape == (5, 8)  # class token plus patches
        assert params.class_token.shape == (8,)
        assert params.depth == 2
        assert np.all(params.blocks[0].ln1_scale != 0)

    def test_count_guards(self):
        with pytest.raises(ValueError):
            vit_init(0, 8, 32, 4, 2)
        with pytest.raises(ValueError):
            vit_init(6, 8, 32, 4, -1)

    def test_an_unknown_mechanism_id_fails_at_build_time(self):
        with pytest.raises(UnknownVariant, match="'nope'"):
            vit_init(6, 8, 32, 4, 1, mechanism="nope")
        params = vit_init(6, 8, 32, 4, 1, mechanism="tensor_linear")
        with pytest.raises(UnknownVariant, match="'nope'"):
            dataclasses.replace(params, mechanism="nope")


    @pytest.mark.parametrize("mechanism, options, error, fields", [
        ("tensor_linear", {"bogus": 1}, UnknownOption,
         {"option": "bogus", "accepted": ("hadamard", "side")}),
        ("softmax", {"side": "q"}, UnknownOption, {"option": "side", "accepted": ()}),
        ("tensor_diag", {"normalization": "row"}, UnknownOption,
         {"option": "normalization", "accepted": ("hadamard", "side")}),
        ("tensor_linear", {"side": "x"}, InvalidOption, {"option": "side", "accepted": ("q", "k")}),
        ("tensor_residual", {"hadamard": True}, InvalidOption,
         {"option": "hadamard", "accepted": ("False",)}),
    ])
    def test_a_bad_mechanism_option_fails_at_build_time(self, mechanism, options, error, fields):
        with pytest.raises(error) as built:
            vit_init(6, 8, 16, 4, 3, mechanism=mechanism, mechanism_options=options)
        assert isinstance(built.value, AttnOpsError)
        assert vars(built.value) == {"mechanism": mechanism, **fields}
        params = vit_init(6, 8, 16, 4, 3, mechanism=mechanism)
        with pytest.raises(error):
            dataclasses.replace(params, mechanism_options=options)
        x = random_matrix(5, 4, seed=0)
        with pytest.raises(error) as called:  # registry.forward runs the same check
            forward(mechanism, AttnInputs(x, x, x), **options)
        assert vars(called.value) == vars(built.value)

    def test_accepted_mechanism_options_build_and_run(self):
        params = vit_init(6, 8, 16, 4, 2, mechanism="tensor_residual",
                          mechanism_options={"side": "k", "lam": 0.0})
        assert np.all(np.isfinite(vit_forward(params, random_matrix(4, 6, seed=1))))


class TestForward:
    def test_depth_zero_is_layer_norm_of_embedded_class_token(self):
        params = vit_init(6, 8, 32, 4, 0, seed=1)
        patches = random_matrix(4, 6, seed=1)
        out = vit_forward(params, patches)
        z0 = np.vstack([params.class_token, patches @ params.patch_embed]) + params.pos_embed
        expected = layer_norm(z0[:1], params.head_scale, params.head_shift)[0]
        np.testing.assert_array_equal(out, expected)
        assert out.shape == (8,)

    def test_patch_shape_guard(self):
        params = vit_init(6, 8, 32, 4, 1, seed=2)
        with pytest.raises(DimensionMismatch):
            vit_forward(params, random_matrix(5, 6, seed=2))

    def test_residual_passthrough_with_zeroed_branches(self):
        """Zero mixer and zero MLP reduce any depth to the depth-0 readout."""
        deep = vit_init(6, 8, 32, 4, 3, seed=3, mechanism=lambda attn: np.zeros((attn.n, attn.d)))
        zero_blocks = tuple(
            type(b)(
                ln1_scale=b.ln1_scale,
                ln1_shift=b.ln1_shift,
                ln2_scale=b.ln2_scale,
                ln2_shift=b.ln2_shift,
                mlp_w1=b.mlp_w1,
                mlp_b1=b.mlp_b1,
                mlp_w2=np.zeros_like(b.mlp_w2),
                mlp_b2=np.zeros_like(b.mlp_b2),
            )
            for b in deep.blocks
        )
        deep = type(deep)(
            patch_embed=deep.patch_embed,
            pos_embed=deep.pos_embed,
            class_token=deep.class_token,
            blocks=zero_blocks,
            head_scale=deep.head_scale,
            head_shift=deep.head_shift,
            mechanism=deep.mechanism,
        )
        shallow = vit_init(6, 8, 32, 4, 0, seed=3)
        patches = random_matrix(4, 6, seed=3)
        np.testing.assert_array_equal(vit_forward(deep, patches), vit_forward(shallow, patches))

    def test_deterministic_per_seed(self):
        params = vit_init(6, 8, 32, 4, 2, seed=4, mechanism="tensor_linear")
        patches = random_matrix(4, 6, seed=4)
        first = vit_forward(params, patches)
        second = vit_forward(params, patches)
        assert array_checksum(first) == array_checksum(second)

    def test_finite_across_mechanisms(self):
        patches = random_matrix(4, 8, seed=5)
        for mechanism in variant_ids():
            params = vit_init(8, 8, 16, 4, 2, seed=5, mechanism=mechanism)
            try:
                out = vit_forward(params, patches)
            except DegenerateNormalizer:
                continue  # a legitimate reported degeneracy, not a NaN
            assert np.all(np.isfinite(out)), mechanism

    @pytest.mark.parametrize("tokens", TOKEN_COUNTS)
    @pytest.mark.parametrize("mechanism", variant_ids())
    def test_bytes_match_the_reference_forward(self, mechanism, tokens):
        params = vit_init(6, 8, HIDDEN, tokens - 1, 2, seed=8, mechanism=mechanism)
        patches = random_matrix(tokens - 1, 6, seed=8)
        gemms = []
        try:
            expected = reference_forward(params, patches, gemms)
        except AttnOpsError as exc:
            with pytest.raises(type(exc)):
                vit_forward(params, patches)
            return
        assert_matches_reference(vit_forward(params, patches), expected, gemms)

    def test_mixer_output_is_not_written_into(self):
        """A callable mixer may return an array it keeps; the forward pass must not touch it."""
        held = random_matrix(5, 8, seed=9)
        kept = held.copy()
        params = vit_init(6, 8, 32, 4, 3, seed=9, mechanism=lambda attn: held)
        patches = random_matrix(4, 6, seed=9)
        out = vit_forward(params, patches)
        np.testing.assert_array_equal(held, kept)
        assert_same_bytes(out, reference_forward(params, patches))

    @pytest.mark.parametrize("depth", [1, 2])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_a_callable_mixer_returning_nan_or_inf_is_named(self, bad, depth):
        def mixer(attn):
            out = np.zeros((attn.n, attn.d))
            out[1, 2] = bad
            return out

        params = vit_init(6, 8, 32, 4, depth, seed=9, mechanism=mixer)
        with pytest.raises(NonFiniteInput, match="mixer output"):
            vit_forward(params, random_matrix(4, 6, seed=9))

    def test_a_callable_mixer_may_return_a_list(self):
        held = random_matrix(5, 8, seed=9)
        as_list = vit_init(6, 8, 32, 4, 2, seed=9, mechanism=lambda attn: held.tolist())
        as_array = dataclasses.replace(as_list, mechanism=lambda attn: held)
        patches = random_matrix(4, 6, seed=9)
        assert_same_bytes(vit_forward(as_list, patches), vit_forward(as_array, patches))

    def test_only_a_callable_mixers_output_is_checked_again(self, monkeypatch):
        """Registry mixers guard their own output, so the encoder scans it no second time."""
        names = []

        def recording(a, name):
            names.append(name)
            return as_matrix(a, name)

        monkeypatch.setattr(vit_module, "as_matrix", recording)
        params = vit_init(6, 8, 32, 4, 2, seed=9, mechanism="tensor_linear")
        patches = random_matrix(4, 6, seed=9)
        expected = vit_forward(params, patches)
        assert names == ["patches"]
        names.clear()
        params = dataclasses.replace(params, mechanism=lambda attn: forward("tensor_linear", attn))
        assert_same_bytes(vit_forward(params, patches), expected)
        assert names == ["patches", "mixer output", "mixer output"]

    @pytest.mark.parametrize("promotion", list(PROMOTIONS))
    def test_promoting_parameters_keep_the_reference_bytes(self, promotion):
        """Each promotion happens where the reference makes it: an MLP half is promoted once."""
        tokens = 2 * TILE + 1
        params = vit_init(6, 8, HIDDEN, tokens - 1, 2, seed=15, mechanism="tensor_linear")
        params = PROMOTIONS[promotion](params)
        patches = random_matrix(tokens - 1, 6, seed=15)
        gemms = []
        expected = reference_forward(params, patches, gemms)
        assert expected.dtype == (np.float64 if promotion == "float32 mlp" else np.complex128)
        assert_matches_reference(vit_forward(params, patches), expected, gemms)

    @pytest.mark.parametrize("tokens", TOKEN_COUNTS)
    @pytest.mark.parametrize("promotion", ["complex ln2_scale", "complex mlp_b1", "complex mlp_w2"])
    def test_complex_parameters_stay_within_rounding_of_the_step_by_step_promotion(
            self, promotion, tokens):
        """A half whose complex parameters outrank its real tokens runs in complex from LN2 on;
        the formula that promotes step by step rounds a few steps unlike it (a complex
        division, scipy's complex ``erf``), within the tiles' rounding allowance."""
        params = vit_init(6, 8, HIDDEN, tokens - 1, 2, seed=15, mechanism="tensor_linear")
        params = PROMOTIONS[promotion](params)
        patches = random_matrix(tokens - 1, 6, seed=15)
        expected = reference_forward(params, patches, step_by_step=True)
        got = vit_forward(params, patches)
        assert got.dtype == expected.dtype == np.complex128
        assert np.max(np.abs(got - expected)) <= 64 * np.finfo(float).eps * np.max(np.abs(expected))

    def test_per_token_block_parameters_broadcast_over_every_tile(self):
        """LN2 and MLP-bias parameters with a row per token apply to their own rows."""
        tokens = 2 * TILE + 1
        params = vit_init(6, 8, HIDDEN, tokens - 1, 2, seed=20, mechanism="tensor_linear")
        rng = np.random.default_rng(20)
        params = _recast_blocks(
            params, lambda a: a + rng.uniform(-0.5, 0.5, (tokens, a.shape[-1])),
            "ln2_scale", "ln2_shift", "mlp_b1", "mlp_b2")
        patches = random_matrix(tokens - 1, 6, seed=20)
        gemms = []
        expected = reference_forward(params, patches, gemms)
        assert_matches_reference(vit_forward(params, patches), expected, gemms)

    def test_an_mlp_without_hidden_units_still_runs(self):
        params = vit_init(6, 8, 1, 300, 2, seed=19, mechanism="tensor_linear")
        blocks = tuple(
            dataclasses.replace(b, mlp_w1=b.mlp_w1[:, :0], mlp_b1=b.mlp_b1[:0], mlp_w2=b.mlp_w2[:0])
            for b in params.blocks
        )
        params = dataclasses.replace(params, blocks=blocks)
        patches = random_matrix(300, 6, seed=19)
        assert_same_bytes(vit_forward(params, patches), reference_forward(params, patches))

    @pytest.mark.parametrize("workload", ["encoder_short", "encoder_long"])
    def test_bytes_match_the_reference_at_the_benchmark_shapes(self, monkeypatch, workload):
        """Byte for byte, with no rounding allowance: OpenBLAS rounds every row tile of these
        shapes' MLP products as it rounds the whole product."""
        for params, patches in benchmark_cells(monkeypatch, workload):
            gemms = []
            expected = reference_forward(params, patches, gemms)
            assert _every_tile_rounds_like_whole(gemms)
            assert_same_bytes(vit_forward(params, patches), expected)

    @pytest.mark.parametrize("seed", [0, 3])
    @pytest.mark.parametrize("workload", ["encoder_short", "encoder_long"])
    def test_bytes_do_not_depend_on_the_tile_size_at_the_benchmark_shapes(self, monkeypatch,
                                                                          workload, seed):
        """The tiles of 65536 hidden activations give the bytes of the 16384 ones before them."""
        cells = benchmark_cells(monkeypatch, workload, seed)
        sums = [array_checksum(vit_forward(params, patches)) for params, patches in cells]
        monkeypatch.setattr(vit_module, "_TILE_ELEMENTS", 16384)
        assert [array_checksum(vit_forward(params, patches)) for params, patches in cells] == sums

    @pytest.mark.parametrize("shapes", [
        {"ln2_scale": (1, 8), "ln2_shift": (), "mlp_b1": (1,), "mlp_b2": (1, 1)},
        {"ln2_scale": (8,), "ln2_shift": ("tokens", 1), "mlp_b1": ("tokens", 1), "mlp_b2": (8,)},
        {"ln2_scale": (1,), "ln2_shift": (8,), "mlp_b1": (1, HIDDEN), "mlp_b2": ("tokens", 8)},
    ], ids=["broadcast rows", "a column per token", "mixed"])
    def test_parameter_shapes_that_broadcast_keep_the_reference_bytes(self, shapes):
        """Parameters of any shape that broadcasts into their step's tile give the formula's
        bytes."""
        tokens = 2 * TILE + 1
        params = vit_init(6, 8, HIDDEN, tokens - 1, 2, seed=25, mechanism="tensor_linear")
        rng = np.random.default_rng(25)
        blocks = tuple(dataclasses.replace(b, **{
            name: rng.uniform(0.5, 1.5, tuple(tokens if d == "tokens" else d for d in shape))
            for name, shape in shapes.items()}) for b in params.blocks)
        params = dataclasses.replace(params, blocks=blocks)
        patches = random_matrix(tokens - 1, 6, seed=25)
        gemms = []
        expected = reference_forward(params, patches, gemms)
        assert_matches_reference(vit_forward(params, patches), expected, gemms)

    def test_tiles_stay_within_rounding_where_the_blas_splits_differently(self):
        """At some shapes a row tile's GEMM rounds unlike the whole product; bound the drift.

        With OpenBLAS at width 4 and n = 1025 the tiled forward differs from the
        whole-array one in the last bits (measured under 1e-15 relative).
        """
        params = vit_init(6, 4, 256, 1024, 2, seed=18, mechanism="tensor_linear")
        patches = random_matrix(1024, 6, seed=18)
        gemms = []
        expected = reference_forward(params, patches, gemms)
        assert_matches_reference(vit_forward(params, patches), expected, gemms)

    def test_tile_rule_and_one_row_remainder(self):
        """TILE rows per tile, at least two; a single leftover row joins the last tile,
        since numpy would send a one-row product to gemv, which rounds unlike gemm."""
        starts = vit_module._tile_starts
        assert [list(starts(n, HIDDEN)) for n in (1, TILE, TILE + 1, TILE + 2, 2 * TILE + 1)] == [
            [0], [0], [0], [0, TILE], [0, TILE]]
        assert starts(1, 10**6).step == 2
        assert starts(1, 0).step == vit_module._TILE_ELEMENTS

    @pytest.mark.parametrize("per_token", [False, True], ids=["shared", "per-token"])
    @pytest.mark.parametrize("depth", [0, 1, 2, 3])
    @pytest.mark.parametrize("tokens", TOKEN_COUNTS)
    def test_last_block_runs_its_mlp_on_the_two_row_head(self, monkeypatch, tokens, depth,
                                                          per_token):
        """gelu sees every row in each block but the last, and rows 0:2 in the last:
        the readout needs the class token alone, and a one-row product would go to gemv."""
        blocks = []  # rows of each gelu tile, one list per block
        gelu_into = vit_module._gelu_into

        def recording(x, out):
            blocks[-1].append(len(x))
            gelu_into(x, out)

        def mixer(attn):
            blocks.append([])
            return forward("tensor_linear", attn)

        monkeypatch.setattr(vit_module, "_gelu_into", recording)
        params = vit_init(6, 8, HIDDEN, tokens - 1, depth, seed=21, mechanism=mixer)
        if per_token:  # LN2 and MLP biases with a row per token, sliced by the full n
            rng = np.random.default_rng(21)
            params = _recast_blocks(
                params, lambda a: a + rng.uniform(-0.5, 0.5, (tokens, a.shape[-1])),
                "ln2_scale", "ln2_shift", "mlp_b1", "mlp_b2")
        patches = random_matrix(tokens - 1, 6, seed=21)
        gemms = []
        expected = reference_forward(params, patches, gemms)
        blocks.clear()
        got = vit_forward(params, patches)
        last = [min(tokens, 2)] if depth else []
        assert [sum(rows) for rows in blocks] == [tokens] * (depth - 1) + last
        assert all(rows >= 2 for block in blocks for rows in block)
        assert_matches_reference(got, expected, gemms)

    def test_mixer_inputs_are_not_written_into(self):
        """A callable mixer may keep its inputs; the forward pass must not touch them."""
        kept = []

        def keeping(attn):
            kept.append([(a, a.copy()) for a in (attn.q, attn.k, attn.v)])
            return forward("tensor_linear", attn)

        tokens = 2 * TILE + 1
        params = vit_init(6, 8, HIDDEN, tokens - 1, 3, seed=16, mechanism=keeping)
        patches = random_matrix(tokens - 1, 6, seed=16)
        out = vit_forward(params, patches)
        assert len(kept) == params.depth
        for block in kept:
            for held, copy in block:
                np.testing.assert_array_equal(held, copy)
        gemms = []
        assert_matches_reference(out, reference_forward(params, patches, gemms), gemms)

    def test_mlp_activation_is_never_whole(self):
        """Quadrupling hidden adds less than one n-by-(added hidden) array to the traced peak."""
        n_patches, small, large = 1024, 128, 512
        patches = random_matrix(n_patches, 6, seed=17)
        peaks = []
        for hidden in (small, large):
            params = vit_init(6, 16, hidden, n_patches, 1, seed=17, mechanism="tensor_linear")
            vit_forward(params, patches)  # fill lazy caches before tracing
            tracemalloc.start()
            try:
                vit_forward(params, patches)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        whole = (n_patches + 1) * (large - small) * np.dtype(np.float64).itemsize
        assert peaks[1] - peaks[0] < whole

    def test_softmax_and_tensor_mechanisms_coexist(self):
        patches = random_matrix(4, 6, seed=6)
        outputs = {}
        for mechanism in ("softmax", "tensor_naive"):
            params = vit_init(6, 8, 32, 4, 2, seed=6, mechanism=mechanism)
            out = vit_forward(params, patches)
            assert np.all(np.isfinite(out))
            outputs[mechanism] = array_checksum(out)
        assert outputs["softmax"] != outputs["tensor_naive"]


def identity_checksums():
    """Checksums of forwards whose bytes must not depend on how many CPUs run the MLP tiles:
    the benchmark's encoder cells, every TOKEN_COUNTS at depth 3 and one promoted dtype."""
    sums = {}
    with pytest.MonkeyPatch.context() as mp:
        for workload in ("encoder_long", "encoder_short"):
            sums[workload] = [array_checksum(vit_forward(params, patches))
                              for params, patches in benchmark_cells(mp, workload)]
    for tokens in TOKEN_COUNTS:
        params = vit_init(6, 8, HIDDEN, tokens - 1, 3, seed=22, mechanism="tensor_linear")
        patches = random_matrix(tokens - 1, 6, seed=22)
        sums[f"{tokens} tokens"] = array_checksum(vit_forward(params, patches))
    tokens = 2 * TILE + 1
    params = vit_init(6, 8, HIDDEN, tokens - 1, 3, seed=23, mechanism="tensor_linear")
    params = PROMOTIONS["complex mlp_w2"](params)
    sums["complex mlp_w2"] = array_checksum(vit_forward(params, random_matrix(tokens - 1, 6, seed=23)))
    return sums


def _two_tile_case(mechanism="tensor_linear", seed=24, depth=2):
    """An encoder of 2 * TILE + 1 tokens, whose MLP halves before the last hold two tiles,
    and its patches."""
    tokens = 2 * TILE + 1
    params = vit_init(6, 8, HIDDEN, tokens - 1, depth, seed=seed, mechanism=mechanism)
    return params, random_matrix(tokens - 1, 6, seed=seed)


def _serial_forward(monkeypatch, params, patches):
    """``vit_forward`` with every MLP tile on the caller's thread, as on one CPU."""
    with monkeypatch.context() as m:
        m.setattr(vit_module, "_cpus", lambda: 1)
        return vit_forward(params, patches)


def _child_env() -> dict:
    """The environment for a child Python that imports this ``attnops`` and this module."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [
        str(Path(vit_module.__file__).resolve().parents[1]), str(Path(__file__).parent),
        env.get("PYTHONPATH")]))
    return env


SEVERAL_CPUS = pytest.mark.skipif(vit_module._cpus() < 2,
                                  reason="this process may run on one CPU only")


class TestParallelTiles:
    """The MLP half's tiles run in one chunk per CPU; the bytes are those of the serial loop."""

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity call")
    def test_bytes_equal_those_of_a_process_held_to_one_cpu(self):
        code = textwrap.dedent("""
            import json, os
            os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
            from attnops import vit
            from test_vit import identity_checksums
            print(json.dumps({"cpus": vit._cpus(), "sums": identity_checksums()}))
        """)
        done = subprocess.run([sys.executable, "-c", code], env=_child_env(),
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr[-2000:]
        pinned = json.loads(done.stdout.splitlines()[-1])
        assert pinned["cpus"] == 1
        assert pinned["sums"] == identity_checksums()

    @SEVERAL_CPUS
    def test_tiles_run_on_more_than_one_thread(self, monkeypatch):
        threads = set()
        gelu_into = vit_module._gelu_into

        def recording(x, out):
            threads.add(threading.get_ident())
            gelu_into(x, out)

        params, patches = _two_tile_case()
        expected = _serial_forward(monkeypatch, params, patches)
        monkeypatch.setattr(vit_module, "_gelu_into", recording)
        assert_same_bytes(vit_forward(params, patches), expected)
        assert threading.get_ident() in threads and len(threads) > 1

    def test_one_tile_never_reads_the_cpu_count(self, monkeypatch):
        """A half of one tile (65 tokens, as in encoder_short) takes the serial loop."""
        def no_cpus():
            raise AssertionError("the CPU count was read for a one-tile half")

        params = vit_init(6, 8, HIDDEN, 64, 2, seed=25, mechanism="tensor_linear")
        patches = random_matrix(64, 6, seed=25)
        expected = vit_forward(params, patches)
        monkeypatch.setattr(vit_module, "_cpus", no_cpus)
        assert_same_bytes(vit_forward(params, patches), expected)

    def test_workers_keep_the_callers_errstate(self):
        """A row whose LN2 variance overflows, in the last tile and so in a worker's chunk
        when there are two CPUs or more, warns only where the caller lets it."""
        params, patches = _two_tile_case()
        tokens = len(patches) + 1
        big = np.zeros((tokens, params.width))
        big[-1, ::2], big[-1, 1::2] = 1e200, -1e200  # squares overflow, entries do not
        first_block = []

        def mixer(attn):
            first_block.append(not first_block)
            return big if first_block[-1] else np.zeros((attn.n, attn.d))

        params = dataclasses.replace(params, mechanism=mixer)
        with pytest.raises(RuntimeWarning, match="overflow"):  # pyproject's error filter
            vit_forward(params, patches)
        first_block.clear()
        with np.errstate(over="ignore"):
            out = vit_forward(params, patches)
        assert np.isfinite(out).all()

    def test_concurrent_callers_each_get_the_serial_bytes(self, monkeypatch):
        """More callers than CPUs, switching threads often, each start their own workers;
        each call's rows are its own."""
        cases = [_two_tile_case(mechanism, seed)
                 for mechanism, seed in (("tensor_linear", 26), ("softmax", 27))]
        expected = [_serial_forward(monkeypatch, *case) for case in cases]
        callers = 2 * max(2, vit_module._cpus())
        start = threading.Barrier(callers)
        got = [[] for _ in range(callers)]

        def call(i):
            start.wait()
            for _ in range(3):
                got[i].append(vit_forward(*cases[i % len(cases)]))

        threads = [threading.Thread(target=call, args=(i,)) for i in range(callers)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for i, outs in enumerate(got):
            assert len(outs) == 3
            for out in outs:
                assert_same_bytes(out, expected[i % len(cases)])

    def test_a_tile_error_reaches_the_caller(self):
        params, patches = _two_tile_case()
        params = _recast_blocks(params, lambda w: w[:-1], "mlp_w1")  # one input row short
        with pytest.raises(ValueError, match="matmul"):
            vit_forward(params, patches)

    @SEVERAL_CPUS
    def test_a_worker_error_is_raised_after_every_chunk_ends(self, monkeypatch):
        """A worker's exception reaches the caller; when the caller's own chunk fails first,
        the call still returns only after the workers have stopped writing rows."""
        caller = threading.get_ident()
        gelu_into = vit_module._gelu_into
        finished = []

        def failing_off_the_caller(x, out):
            if threading.get_ident() != caller:
                raise ArithmeticError("worker tile")
            gelu_into(x, out)

        def slow_off_the_caller(x, out):
            if threading.get_ident() == caller:
                raise ArithmeticError("caller tile")
            time.sleep(0.2)
            gelu_into(x, out)
            finished.append(len(x))

        params, patches = _two_tile_case()
        monkeypatch.setattr(vit_module, "_gelu_into", failing_off_the_caller)
        with pytest.raises(ArithmeticError, match="worker tile"):
            vit_forward(params, patches)
        monkeypatch.setattr(vit_module, "_gelu_into", slow_off_the_caller)
        with pytest.raises(ArithmeticError, match="caller tile"):
            vit_forward(params, patches)
        assert sum(finished) == len(patches) + 1 - TILE  # the worker's chunk, every row of it

    def test_a_chunk_whose_thread_cannot_start_runs_on_the_caller(self, monkeypatch):
        params, patches = _two_tile_case()
        expected = _serial_forward(monkeypatch, params, patches)

        def refuse(thread):
            raise RuntimeError("can't create new thread at interpreter shutdown")

        monkeypatch.setattr(vit_module, "_cpus", lambda: 2)
        monkeypatch.setattr(threading.Thread, "start", refuse)
        assert_same_bytes(vit_forward(params, patches), expected)

    @pytest.mark.parametrize("late", ["non-daemon thread", "atexit"])
    def test_a_forward_during_interpreter_shutdown_gets_the_serial_bytes(self, late):
        """A multi-tile forward still running once the main thread has returned, or called
        from an atexit handler, finishes with the serial bytes."""
        code = textwrap.dedent(f"""
            import atexit, threading, time
            from test_vit import _two_tile_case, array_checksum, vit_forward
            params, patches = _two_tile_case()

            def late():
                time.sleep(0.2 if {late!r} != "atexit" else 0)
                print("sum", array_checksum(vit_forward(params, patches)), flush=True)

            if {late!r} == "atexit":
                atexit.register(late)
            else:
                threading.Thread(target=late).start()
        """)
        done = subprocess.run([sys.executable, "-c", code], env=_child_env(),
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0 and not done.stderr, done.stderr[-2000:]
        params, patches = _two_tile_case()
        expected = array_checksum(vit_forward(params, patches))
        assert done.stdout.split() == ["sum", expected]

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="no os.fork")
    def test_a_forked_child_runs_its_own_tiles(self):
        """A child forked after a threaded forward has none of the parent's threads; its
        forward must neither wait on them nor change the bytes."""
        params, patches = _two_tile_case()
        expected = array_checksum(vit_forward(params, patches))
        pid = os.fork()
        if pid == 0:  # the child leaves through os._exit alone, never back into pytest
            code = 2
            try:
                code = 0 if array_checksum(vit_forward(params, patches)) == expected else 1
            finally:
                os._exit(code)
        deadline = time.monotonic() + 10.0
        while True:
            done, status = os.waitpid(pid, os.WNOHANG)
            if done:
                break
            if time.monotonic() > deadline:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                pytest.fail("the forked child's forward did not finish in 10 s")
            time.sleep(0.01)
        assert os.waitstatus_to_exitcode(status) == 0


class TestLayerNorm:
    def test_rows_normalized_before_affine(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((5, 16)) * 10.0  # variance well above the epsilon
        out = layer_norm(x, np.ones(16), np.zeros(16))
        np.testing.assert_allclose(out.mean(axis=1), np.zeros(5), atol=1e-6)
        np.testing.assert_allclose(out.var(axis=1), np.ones(5), atol=1e-6)

    def test_affine_applied_after(self):
        x = np.arange(8.0).reshape(2, 4)
        scale = np.array([2.0, 2.0, 2.0, 2.0])
        shift = np.array([1.0, 1.0, 1.0, 1.0])
        base = layer_norm(x, np.ones(4), np.zeros(4))
        np.testing.assert_allclose(layer_norm(x, scale, shift), base * 2.0 + 1.0, atol=1e-12)

    MAGNITUDES = (1e-150, 1e-50, 1e-5, 1.0, 1e5, 1e50, 1e150)

    @pytest.mark.parametrize("magnitude", MAGNITUDES)
    @pytest.mark.parametrize("kind", ["float64", "float32", "int64", "complex128"])
    def test_bytes_match_the_reference(self, kind, magnitude):
        rng = np.random.default_rng(10)
        x = rng.standard_normal((7, 24)) * magnitude
        if kind == "complex128":
            x = x + 1j * rng.standard_normal((7, 24)) * magnitude
        elif kind == "int64":
            x = np.round(rng.standard_normal((7, 24)) * min(magnitude, 1e15))
        with np.errstate(over="ignore"):  # float32 overflows at the largest magnitudes
            x = x.astype(kind)
        before = x.copy()
        for scale, shift in (
            (np.ones(24), np.zeros(24)),
            (rng.standard_normal(24), rng.standard_normal(24)),
            (rng.standard_normal(24).astype(np.float32), np.float32(0.5)),  # float32 x stays float32
            (2.0, 1.0),
        ):
            with np.errstate(all="ignore"):
                expected = reference_layer_norm(x, scale, shift)
                got = layer_norm(x, scale, shift)
            assert_same_bytes(got, expected)
            assert not np.shares_memory(got, x)
        np.testing.assert_array_equal(x, before)

    def test_promotes_where_the_formula_does(self):
        x = np.random.default_rng(11).standard_normal((3, 4)).astype(np.float32)
        got = layer_norm(x, np.ones(4), np.zeros(4))
        assert got.dtype == np.float64
        assert_same_bytes(got, reference_layer_norm(x, np.ones(4), np.zeros(4)))

    def test_scale_that_broadcasts_the_rows_up(self):
        x = np.random.default_rng(12).standard_normal((1, 4))
        scale = np.random.default_rng(13).standard_normal((3, 4))
        assert_same_bytes(layer_norm(x, scale, 0.0), reference_layer_norm(x, scale, 0.0))

    # Widths on both sides of numpy's pairwise-summation blocks (8 and 128 terms).
    @pytest.mark.parametrize("width", [1, 2, 8, 9, 64, 129, 200])
    @pytest.mark.parametrize("rows", [1, 2, 65])
    @pytest.mark.parametrize("kind", ["float64", "float32", "int64", "complex128"])
    def test_bytes_match_the_reference_across_reduction_shapes(self, kind, rows, width):
        rng = np.random.default_rng(width * 100 + rows)
        x = rng.standard_normal((rows, width)) * 3.0 + 0.5
        if kind == "complex128":
            x = x + 1j * rng.standard_normal((rows, width))
        elif kind == "int64":
            x = np.round(x * 1000)
        x = x.astype(kind)
        scale, shift = rng.standard_normal(width), rng.standard_normal(width)
        expected = reference_layer_norm(x, scale, shift)
        assert_same_bytes(layer_norm(x, scale, shift), expected)
        # the buffer path of the MLP half: the rows are standardized into a buffer of x's
        # type, then scaled and shifted in it where that keeps its dtype
        buf = np.empty(x.shape, np.result_type(x, 1.0))
        assert vit_module._standardize(x, buf) is buf
        into = vit_module._into
        assert_same_bytes(into(np.add, into(np.multiply, buf, scale), shift), expected)

    @pytest.mark.parametrize("kind", ["float64", "float32", "complex128"])
    def test_overflowed_variance_gives_the_scaled_answer(self, kind):
        big = 1e200 if kind != "float32" else 1e30  # squares overflow, entries do not
        unit = 1j if kind == "complex128" else 1.0
        normal = np.array([0.25, -1.5, 3.0])
        with np.errstate(over="ignore", invalid="ignore"):  # the first pass overflows
            x = np.array([[big, -big, 3.0], normal, [np.inf, 1.0, 2.0]]).astype(kind) * unit
            got = layer_norm(x, np.ones(3), np.zeros(3))
        root = math.sqrt(1.5)  # centered row [big, -big, 2] over sqrt(2 big^2 / 3)
        np.testing.assert_allclose(got[0], np.array([root, -root, root * 2.0 / big]) * unit,
                                   rtol=1e-6 if kind == "float32" else 1e-15)
        # rows whose variance is finite keep their bytes; a row holding inf keeps NaN
        assert_same_bytes(got[1], layer_norm((normal * unit).astype(kind)[None], np.ones(3),
                                             np.zeros(3))[0])
        assert np.isnan(got[2]).all()


def gelu_inputs():
    rng = np.random.default_rng(14)
    block = 2**14
    return {
        "python float": 0.75,
        "python int": -2,
        "zero-d": np.array(1.25),
        "one-d": rng.standard_normal(7),
        "two-d, partial block": rng.standard_normal((3, 1000)),
        "two-d, past one block": rng.standard_normal((3, block // 3 + 17)),
        "several blocks": rng.standard_normal(2 * block + 5) * 4.0,
        "non-contiguous": rng.standard_normal((40, 3 * block // 40))[:, ::3],
        "transposed": rng.standard_normal((130, 150)).T,
        "float32": rng.standard_normal(block + 9).astype(np.float32),
        "float16": rng.standard_normal(50).astype(np.float16),
        "int": rng.integers(-6, 6, size=(5, block // 4)),
        "complex": rng.standard_normal(block + 9) + 1j * rng.standard_normal(block + 9),
        "empty": np.zeros((0, 3)),
        "specials": np.array([0.0, -0.0, np.inf, -np.inf, 1e308, -1e308, 5e-324, 40.0]),
    }


class TestGelu:
    @pytest.mark.parametrize("name", list(gelu_inputs()))
    def test_bytes_match_the_formula(self, name):
        x = gelu_inputs()[name]
        before = np.array(x, copy=True)
        with np.errstate(all="ignore"):  # -inf gives inf * 0 in the formula too
            expected = reference_gelu(x)
            got = gelu(x)
        assert_same_bytes(got, expected)
        np.testing.assert_array_equal(x, before)

    def test_zero_maps_to_zero(self):
        assert gelu(0) == 0
        assert gelu(0.0) == 0
        assert np.all(gelu(np.zeros(5)) == 0)
