"""Executable identity suite behind the ``verify`` subcommand.

Each check exercises one algebraic fact the fast paths rely on, reports the
worst deviation it observed against an explicit tolerance, and never asserts:
the caller decides what to do with failures.  With ``negative_control=True`` a
deliberately wrong vectorization convention is planted so the harness can
prove it detects broken identities.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .attention import AttnInputs, linear_kernel_attention, softmax_attention
from .dense import gemm, kron, partial_trace, trace
from .expm import expm_pade, expm_taylor
from .oracles import (
    fd_probe,
    kron_vec_check,
    loop_gelu,
    loop_layer_norm,
    naive_reference,
    trace_identity_report,
)
from .synth import random_inputs, random_matrix
from .tensor_attention import (
    TensorOpConfig,
    build_tensor_operator,
    diag_fast,
    flavored_product,
    normalized_tensor_operator,
    operator_trace,
    score_matrix,
    tensor_attention_elem_exp,
    tensor_attention_expm,
    tensor_attention_linear,
    tensor_attention_masked,
    tensor_attention_naive,
    tensor_attention_relu,
    tensor_attention_residual,
)
from .tensor_interaction import build_interaction_operator, interaction_trace, tensor_interaction
from .vit import LAYER_NORM_EPS, _tile_starts, gelu, layer_norm, vit_forward, vit_init


@dataclass(frozen=True)
class CheckResult:
    name: str
    max_deviation: float
    tolerance: float
    passed: bool
    detail: str = ""

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        text = f"{status}  {self.name}: max deviation {self.max_deviation:.3e} (tol {self.tolerance:.1e})"
        if self.detail:
            text += f" [{self.detail}]"
        return text


@dataclass(frozen=True)
class VerifyReport:
    checks: tuple

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def failures(self) -> tuple:
        return tuple(c for c in self.checks if not c.passed)

    def lines(self) -> list[str]:
        out = [c.line() for c in self.checks]
        status = "all identities hold" if self.passed else (
            "FAILED: " + ", ".join(c.name for c in self.failures)
        )
        out.append(f"verify: {len(self.checks)} checks, {status}")
        return out


def _result(name, dev, tol, detail="") -> CheckResult:
    return CheckResult(name, float(dev), tol, bool(dev < tol), detail)


def _rel(a, b) -> float:
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


def _quadratic_form_floor(t: np.ndarray, rng) -> float:
    """Most negative normalized quadratic-form value over 20 random probes."""
    n = t.shape[0]
    scale = np.linalg.norm(t)
    worst = 0.0
    for _ in range(20):
        x = rng.standard_normal(n)
        if np.iscomplexobj(t):
            x = x + 1j * rng.standard_normal(n)
        quad = np.real(np.conj(x) @ t @ x)
        floor = quad / max(scale * np.real(np.conj(x) @ x), 1e-300)
        worst = min(worst, floor)
    return -worst  # deviation: positive when some probe went negative


def _score_built_operator(inputs, side: str) -> np.ndarray:
    """T / tr(T) for the product flavor, built from the n-by-n score matrix, not the factors."""
    t = flavored_product(score_matrix(inputs.q, inputs.k), side, False)
    return t / np.trace(t).real


def run_verify(seed: int = 2024, negative_control: bool = False) -> VerifyReport:
    rng = np.random.default_rng(seed)
    checks: list[CheckResult] = []

    # cyclic trace on random conformable pairs
    dev = 0.0
    for _ in range(20):
        a = rng.standard_normal((5, 7))
        b = rng.standard_normal((7, 5))
        dev = max(dev, _rel(trace(gemm(a, b)), trace(gemm(b, a))))
    checks.append(_result("trace is cyclic: tr(AB) = tr(BA)", dev, 1e-12))

    # trace against Hadamard sums, including the non-symmetric boundary
    dev = 0.0
    for _ in range(20):
        a = rng.standard_normal((6, 6))
        b = rng.standard_normal((6, 6))
        report = trace_identity_report(a, b)
        dev = max(dev, report.general_dev)
        sym = trace_identity_report(a, b + b.T)
        dev = max(dev, sym.symmetric_dev)
    boundary = trace_identity_report([[0.0, 1.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]])
    boundary_shows_gap = (
        abs(boundary.product_trace - 1.0) < 1e-15
        and abs(boundary.hadamard_sum) < 1e-15
        and abs(boundary.hadamard_sum_transposed - 1.0) < 1e-15
    )
    if not boundary_shows_gap:
        dev = max(dev, 1.0)
    checks.append(
        _result(
            "trace vs Hadamard sum: tr(AB) = sum(A o B^T); sum(A o B) only for symmetric B",
            dev,
            1e-10,
            "boundary counterexample separates the unsymmetric case",
        )
    )

    # partial trace of a Kronecker product factorizes; full trace is preserved
    dev = 0.0
    for _ in range(20):
        a = rng.standard_normal((3, 3))
        b = rng.standard_normal((2, 2))
        product = kron(a, b)
        dev = max(dev, np.max(np.abs(partial_trace(product, 3, 2, "w") - trace(b) * a)))
        dev = max(dev, np.max(np.abs(partial_trace(product, 3, 2, "v") - trace(a) * b)))
        dev = max(dev, abs(trace(partial_trace(product, 3, 2, "w")) - trace(product)))
        dev = max(dev, abs(trace(partial_trace(product, 3, 2, "v")) - trace(product)))
    checks.append(_result("partial trace: Tr_W(A kron B) = tr(B) A, trace preserved", dev, 1e-12))

    # Kronecker / vec index correspondence
    dev = 0.0
    for _ in range(10):
        q = rng.standard_normal((3, 2))
        k = rng.standard_normal((3, 2))
        dev = max(dev, kron_vec_check(q, k).max_deviation)
    checks.append(_result("kron/vec bijection under column stacking", dev, 1e-12))

    control = kron_vec_check(
        rng.standard_normal((3, 2)), rng.standard_normal((3, 2)), vec_order="row"
    )
    checks.append(
        CheckResult(
            "row-stacking control is detected as wrong",
            control.max_deviation,
            1e-12,
            passed=not control.passed,
            detail="this check passes when the planted convention fails",
        )
    )
    if negative_control:
        checks.append(
            CheckResult(
                "planted negative control: row-stacking vec bijection",
                control.max_deviation,
                1e-12,
                passed=control.passed,
                detail="deliberately wrong convention, expected to fail",
            )
        )

    # Frobenius identity
    dev = 0.0
    for complex_ in (False, True):
        a = random_matrix(5, 4, seed=seed + complex_, complex_=complex_)
        value = trace(gemm(a, a, trans_b=True))
        dev = max(dev, _rel(np.real(value), float(np.sum(np.abs(a) ** 2))))
        dev = max(dev, abs(np.imag(value)))
    checks.append(_result("Frobenius: tr(A A^H) = sum |a_ij|^2, real non-negative", dev, 1e-12))

    # operator trace identities
    dev_frob = 0.0
    dev_sides = 0.0
    for _ in range(20):
        q = rng.standard_normal((8, 3))
        k = rng.standard_normal((8, 3))
        scores = score_matrix(q, k)
        t_q = build_tensor_operator(q, k, TensorOpConfig(side="q"))
        t_k = build_tensor_operator(q, k, TensorOpConfig(side="k"))
        frob = float(np.sum(scores**2))
        dev_frob = max(dev_frob, _rel(trace(t_q), frob))
        dev_sides = max(dev_sides, _rel(trace(t_q), trace(t_k)))
        dev_sides = max(dev_sides, _rel(trace(t_q), operator_trace(q, k)))
    checks.append(
        _result("operator trace equals squared Frobenius norm of the scores", dev_frob, 1e-10)
    )
    checks.append(
        _result("operator trace: both sides equal the Gram Hadamard sum", dev_sides, 1e-10)
    )

    # non-negative diagonals and PSD probes, both sides
    dev_diag = 0.0
    dev_psd = 0.0
    for _ in range(10):
        q = rng.standard_normal((7, 4))
        k = rng.standard_normal((7, 4))
        for side in ("q", "k"):
            t = build_tensor_operator(q, k, TensorOpConfig(side=side))
            dev_diag = max(dev_diag, -float(np.min(np.diag(t))))
            dev_psd = max(dev_psd, _quadratic_form_floor(t, rng) - 1e-10)
    checks.append(_result("operator diagonal is non-negative (both sides)", dev_diag, 1e-300,
                          detail="deviation is the most negative diagonal entry"))
    checks.append(_result("operator passes PSD probes (both sides)", dev_psd, 1e-12))

    # factorized path equals materialized path
    dev = 0.0
    for trial in range(20):
        inputs = random_inputs(16, 5, d_v=3, seed=seed + trial)
        for side in ("q", "k"):
            fast = tensor_attention_linear(inputs, TensorOpConfig(side=side))
            slow = tensor_attention_naive(inputs, TensorOpConfig(side=side))
            dev = max(dev, np.max(np.abs(fast - slow)))
    checks.append(_result("factorized linear path equals materialized path", dev, 1e-10))

    # fast diagonal equals materialized diagonal
    dev = 0.0
    for trial in range(10):
        q = rng.standard_normal((12, 4))
        k = rng.standard_normal((12, 4))
        for side in ("q", "k"):
            t = build_tensor_operator(q, k, TensorOpConfig(side=side))
            dev = max(dev, np.max(np.abs(diag_fast(q, k, side) - np.diag(t))))
    checks.append(_result("fast diagonal equals materialized diagonal", dev, 1e-10))

    # clamping preserves the trace exactly
    dev = 0.0
    for trial in range(10):
        q = rng.standard_normal((6, 2))
        k = rng.standard_normal((6, 2))
        t = build_tensor_operator(q, k)
        dev = max(dev, abs(float(np.trace(np.maximum(t, 0.0))) - float(np.trace(t))))
    checks.append(_result("clamping negatives preserves the trace exactly", dev, 1e-300,
                          detail="tolerance 0: diagonal is untouched"))

    # row normalization sums to one on entrywise non-negative operators
    dev = 0.0
    for trial in range(10):
        q = np.abs(rng.standard_normal((6, 3)))
        k = np.abs(rng.standard_normal((6, 3)))
        normalized = normalized_tensor_operator(q, k, normalization="row")
        dev = max(dev, np.max(np.abs(normalized.sum(axis=1) - 1.0)))
    checks.append(_result("row-normalized operator rows sum to one", dev, 1e-12))

    # matrix exponential identities
    dev_methods = 0.0
    dev_inverse = 0.0
    dev_transpose = 0.0
    dev_det = 0.0
    for trial in range(10):
        a = rng.standard_normal((3, 3))
        a = a / max(np.max(np.sum(np.abs(a), axis=0)), 1.0)  # keep the 1-norm at or below 1
        dev_methods = max(dev_methods, np.max(np.abs(expm_taylor(a, 30) - expm_pade(a, 6, 6))))
        dev_inverse = max(
            dev_inverse, np.max(np.abs(expm_pade(a) @ expm_pade(-a) - np.eye(3)))
        )
        dev_transpose = max(dev_transpose, np.max(np.abs(expm_pade(a.T) - expm_pade(a).T)))
        m = expm_pade(a)
        det3 = (
            m[0, 0] * (m[1, 1] * m[2, 2] - m[1, 2] * m[2, 1])
            - m[0, 1] * (m[1, 0] * m[2, 2] - m[1, 2] * m[2, 0])
            + m[0, 2] * (m[1, 0] * m[2, 1] - m[1, 1] * m[2, 0])
        )
        dev_det = max(dev_det, _rel(det3, np.exp(np.trace(a))))
    checks.append(_result("Taylor and Pade exponentials agree", dev_methods, 1e-8))
    checks.append(_result("expm(A) expm(-A) = I", dev_inverse, 1e-8))
    checks.append(_result("expm commutes with transpose", dev_transpose, 1e-10))
    checks.append(_result("det(expm(A)) = exp(tr(A))", dev_det, 1e-8))

    # softmax attention against the loop oracle, plus weight-row structure
    dev = 0.0
    for trial in range(10):
        inputs = random_inputs(5, 3, d_v=2, seed=seed + 100 + trial)
        dev = max(dev, np.max(np.abs(softmax_attention(inputs) - naive_reference(inputs, "softmax"))))
    checks.append(_result("softmax attention equals the brute-force loop", dev, 1e-12))

    # kernel attention: reordered linear form against the loop oracle
    dev = 0.0
    for trial in range(10):
        inputs = random_inputs(6, 3, d_v=2, seed=seed + 200 + trial)
        dev = max(
            dev, np.max(np.abs(linear_kernel_attention(inputs) - naive_reference(inputs, "kernel")))
        )
    checks.append(_result("kernel attention reordered form equals the loop", dev, 1e-10))

    # remaining variants against loop oracles
    dev = 0.0
    for trial in range(5):
        inputs = random_inputs(5, 3, d_v=3, seed=seed + 300 + trial)
        cfg = TensorOpConfig()
        pairs = [
            (tensor_attention_relu(inputs, cfg), naive_reference(inputs, "tensor_relu")),
            (tensor_attention_elem_exp(inputs, cfg), naive_reference(inputs, "tensor_elem_exp")),
            (tensor_attention_expm(inputs, cfg), naive_reference(inputs, "tensor_expm")),
            (tensor_attention_masked(inputs, cfg), naive_reference(inputs, "tensor_masked")),
            (
                tensor_attention_residual(inputs, cfg, lam=0.7),
                naive_reference(inputs, "tensor_residual", lam=0.7),
            ),
            (tensor_interaction(inputs), naive_reference(inputs, "interaction")),
        ]
        for fast, slow in pairs:
            dev = max(dev, np.max(np.abs(fast - slow)))
    checks.append(
        _result("clamped/exp/expm/masked/residual/interaction match loop oracles", dev, 1e-10)
    )

    # factored masked scan and expm against the trace-normalized operator built from
    # the score matrix; the masked size spans several scan blocks, the expm size keeps
    # the n-by-n reference exponential cheap
    dev = 0.0
    long_inputs = random_inputs(300, 8, d_v=5, seed=seed + 350)
    short_inputs = random_inputs(48, 8, d_v=5, seed=seed + 351)
    for side in ("q", "k"):
        cfg = TensorOpConfig(side=side)
        t_long = _score_built_operator(long_inputs, side)
        t_short = _score_built_operator(short_inputs, side)
        pairs = [
            (tensor_attention_masked(long_inputs, cfg), np.tril(t_long) @ long_inputs.v),
            (tensor_attention_expm(short_inputs, cfg), expm_pade(t_short) @ short_inputs.v),
        ]
        for fast, slow in pairs:
            dev = max(dev, np.max(np.abs(fast - slow)) / np.max(np.abs(slow)))
    checks.append(_result("factored masked and expm paths equal the materialized formulas",
                          dev, 1e-12, detail="masked n=300, expm n=48; relative to the largest entry"))

    # near-orthogonal Q and K: each query row is orthogonal to its key row plus 1e-5 times
    # it, so tr T is tiny next to |Q|^2 |K|^2; at n = 1, T / tr T = 1 and the answer is e v
    dev = 0.0
    for n in (1, 2):
        x = random_inputs(n, 4, seed=seed + 360 + n, complex_=True)
        along = np.sum(x.q * x.k.conj(), axis=1, keepdims=True) / np.sum(np.abs(x.k) ** 2, axis=1,
                                                                        keepdims=True)
        near = AttnInputs(x.q - along * x.k + 1e-5 * x.k, x.k, x.v)
        for side in ("q", "k"):
            fast = tensor_attention_expm(near, TensorOpConfig(side=side))
            slow = naive_reference(near, "tensor_expm", side=side)
            dev = max(dev, np.max(np.abs(fast - slow)) / np.max(np.abs(slow)))
    checks.append(_result("near-orthogonal Q and K: expm path equals the loop oracle", dev, 1e-12,
                          detail="n=1 and 2, complex; relative to the largest entry"))

    # interaction-specific identities
    dev = 0.0
    q = rng.standard_normal((9, 4))
    k = rng.standard_normal((9, 4))
    coupling = q.T @ k
    dev = max(dev, _rel(trace(build_interaction_operator(q, k)), float(np.sum(coupling**2))))
    dev = max(dev, _rel(interaction_trace(q, k), float(np.sum(coupling**2))))
    grown = build_interaction_operator(np.vstack([q, q]), np.vstack([k, k]))
    if grown.shape != (4, 4):
        dev = max(dev, 1.0)
    checks.append(
        _result("channel operator trace identity; size independent of token count", dev, 1e-10)
    )

    # finite differences: same function on both paths, same gradients
    inputs = random_inputs(4, 3, seed=seed + 400)
    u = rng.standard_normal(4)
    w = rng.standard_normal(3)
    grad_naive = fd_probe("tensor_naive", inputs, u, w)
    grad_linear = fd_probe("tensor_linear", inputs, u, w)
    dev = float(np.max(np.abs(grad_naive - grad_linear)))
    checks.append(_result("finite-difference gradients: materialized vs factorized", dev, 1e-4))

    # complex scalars: Hermitian operator, real non-negative diagonal, PSD probes
    dev = 0.0
    for trial in range(10):
        q = random_matrix(6, 3, seed=seed + 500 + trial, complex_=True)
        k = random_matrix(6, 3, seed=seed + 600 + trial, complex_=True)
        t = build_tensor_operator(q, k)
        dev = max(dev, float(np.max(np.abs(t - t.conj().T))))
        dev = max(dev, float(np.max(np.abs(np.imag(np.diag(t))))))
        dev = max(dev, -float(np.min(np.real(np.diag(t)))))
        dev = max(dev, _quadratic_form_floor(t, rng) - 1e-10)
    checks.append(_result("complex path: Hermitian operator with real non-negative diagonal", dev, 1e-12))

    # convex-combination bounds for normalized non-negative weights
    dev = 0.0
    for trial in range(10):
        inputs = random_inputs(6, 3, d_v=2, seed=seed + 700 + trial)
        for out in (softmax_attention(inputs), linear_kernel_attention(inputs)):
            lo = inputs.v.min(axis=0) - 1e-12
            hi = inputs.v.max(axis=0) + 1e-12
            dev = max(dev, float(np.max(np.maximum(lo - out, 0.0))))
            dev = max(dev, float(np.max(np.maximum(out - hi, 0.0))))
    checks.append(_result("convex mechanisms stay inside the value envelope", dev, 1e-12))

    # encoder stages against loop oracles
    h = rng.standard_normal((65, 257)) * 3.0
    x = rng.standard_normal((65, 32)) * 5.0 + 2.0
    scale = rng.standard_normal(32)
    shift = rng.standard_normal(32)
    pairs = [
        (gelu(h), loop_gelu(h)),
        (layer_norm(x, scale, shift), loop_layer_norm(x, scale, shift, LAYER_NORM_EPS)),
    ]
    dev = max(np.max(np.abs(fast - slow)) / np.max(np.abs(slow)) for fast, slow in pairs)
    checks.append(_result("encoder gelu and layer norm equal their loop oracles", dev, 1e-12,
                          detail="relative to the largest entry"))

    # the row-tiled encoder against loop layer norm and gelu and whole-array products: 65
    # tokens span two MLP tiles and a one-row remainder, which the flip mixer reads out
    n_patches = 2 * _tile_starts(0, 512).step
    params = vit_init(6, 8, 512, n_patches, 2, seed=seed, mechanism=lambda attn: attn.v[::-1])
    patches = random_matrix(n_patches, 6, seed=seed + 800)
    tokens = np.vstack([params.class_token, patches @ params.patch_embed]) + params.pos_embed
    for b in params.blocks:
        tokens = loop_layer_norm(tokens, b.ln1_scale, b.ln1_shift, LAYER_NORM_EPS)[::-1] + tokens
        normed = loop_layer_norm(tokens, b.ln2_scale, b.ln2_shift, LAYER_NORM_EPS)
        tokens = loop_gelu(normed @ b.mlp_w1 + b.mlp_b1) @ b.mlp_w2 + b.mlp_b2 + tokens
    slow = loop_layer_norm(tokens[:1], params.head_scale, params.head_shift, LAYER_NORM_EPS)[0]
    dev = np.max(np.abs(vit_forward(params, patches) - slow)) / np.max(np.abs(slow))
    checks.append(_result("row-tiled encoder forward equals the loop-oracle forward", dev, 1e-12,
                          detail="relative to the largest entry"))

    # encoder smoke: deterministic and finite
    params = vit_init(6, 8, 16, 4, 2, seed=seed, mechanism="tensor_linear")
    patches = random_matrix(4, 6, seed=seed + 800)
    y1 = vit_forward(params, patches)
    y2 = vit_forward(params, patches)
    dev = 0.0 if (np.array_equal(y1, y2) and np.all(np.isfinite(y1))) else 1.0
    checks.append(_result("encoder forward is reproducible and finite", dev, 1e-300,
                          detail="bitwise reproducibility"))

    return VerifyReport(tuple(checks))
