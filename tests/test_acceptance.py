"""Acceptance suite: every exit criterion at its stated tolerance.

Each test prints one PASS/FAIL line (run with ``pytest -s`` to see them all)
and then asserts, so a red test always corresponds to a named criterion.
"""

import math
import statistics
import time

import numpy as np
import pytest

from attnops import (
    BenchConfig,
    DegenerateNormalizer,
    TensorOpConfig,
    array_checksum,
    build_interaction_operator,
    build_tensor_operator,
    diag_fast,
    expm_pade,
    expm_taylor,
    fd_probe,
    interaction_trace,
    kron,
    kron_vec_check,
    naive_reference,
    operator_trace,
    partial_trace,
    random_inputs,
    random_matrix,
    run_bench,
    score_matrix,
    tensor_attention_linear,
    tensor_attention_naive,
    tensor_interaction,
    trace,
    trace_identity_report,
    variant_ids,
    vit_forward,
    vit_init,
)


def _report(number: int, name: str, ok: bool, stats: str) -> None:
    print(f"[criterion {number:2d}] {name}: {'PASS' if ok else 'FAIL'} ({stats})")


def test_criterion_01_path_equivalence():
    start = time.perf_counter()
    worst = 0.0
    for seed in range(100):
        for n in (2, 3, 4, 8, 16, 32, 64):
            for d in (1, 2, 4, 8, 16):
                inputs = random_inputs(n, d, seed=seed * 10007 + n * 101 + d)
                fast = tensor_attention_linear(inputs)
                slow = tensor_attention_naive(inputs, normalization="trace")
                worst = max(worst, float(np.max(np.abs(fast - slow))))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-10 and elapsed < 30.0
    _report(1, "factorized path equals materialized path", ok,
            f"max abs diff {worst:.2e}, {elapsed:.1f}s over 3500 instances")
    assert worst < 1e-10
    assert elapsed < 30.0


def test_criterion_02_trace_identities():
    worst = 0.0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 33))
        d = int(rng.integers(1, 13))
        q = rng.standard_normal((n, d))
        k = rng.standard_normal((n, d))
        t_q = float(np.trace(build_tensor_operator(q, k, TensorOpConfig(side="q"))))
        t_k = float(np.trace(build_tensor_operator(q, k, TensorOpConfig(side="k"))))
        hadamard_sum = float(np.sum((k.T @ k) * (q.T @ q)))
        frobenius = float(np.sum(score_matrix(q, k) ** 2))
        scale = max(abs(t_q), 1e-300)
        worst = max(
            worst,
            abs(t_q - t_k) / scale,
            abs(t_q - hadamard_sum) / scale,
            abs(t_q - frobenius) / scale,
            abs(t_q - operator_trace(q, k)) / scale,
        )
    ok = worst < 1e-10
    _report(2, "trace: both sides = Gram Hadamard sum = squared Frobenius", ok,
            f"max rel err {worst:.2e}, 100 seeds")
    assert worst < 1e-10


def test_criterion_03_nonnegative_diagonal_and_psd():
    worst_diag = 0.0
    worst_psd = 0.0
    for seed in range(100):
        rng = np.random.default_rng(seed + 1000)
        n = int(rng.integers(2, 17))
        d = int(rng.integers(1, 9))
        q = rng.standard_normal((n, d))
        k = rng.standard_normal((n, d))
        for side in ("q", "k"):
            t = build_tensor_operator(q, k, TensorOpConfig(side=side))
            worst_diag = max(worst_diag, -float(np.min(np.diag(t))))
            bound = 1e-10 * float(np.linalg.norm(t))
            for _ in range(20):
                x = rng.standard_normal(n)
                quad = float(x @ t @ x)
                worst_psd = max(worst_psd, -(quad + bound * float(x @ x)))
    ok = worst_diag <= 0.0 and worst_psd <= 0.0
    _report(3, "operator diagonals non-negative, PSD probes hold", ok,
            f"worst diag {-worst_diag:.2e}, worst probe slack {-worst_psd:.2e}")
    assert worst_diag <= 0.0
    assert worst_psd <= 0.0


def test_criterion_04_fast_diagonal_and_scaling():
    start = time.perf_counter()
    worst = 0.0
    for seed in range(20):
        rng = np.random.default_rng(seed + 2000)
        n = int(rng.integers(2, 65))
        d = int(rng.integers(1, 17))
        q = rng.standard_normal((n, d))
        k = rng.standard_normal((n, d))
        for side in ("q", "k"):
            t = build_tensor_operator(q, k, TensorOpConfig(side=side))
            worst = max(worst, float(np.max(np.abs(diag_fast(q, k, side) - np.diag(t)))))

    # The fast cells finish in about a millisecond, so one sweep is at the mercy of
    # scheduler jitter: on a loaded 2-vCPU host a stall of the n=8192 cell alone gave
    # sweep ratios of 6.9 and 9.0, and the median over three pooled sweeps 3.14, past
    # the upper bound.  Each sweep times both cells back to back, so its own ratio
    # compares them under the same load; the median over several sweeps drops the
    # sweeps that a stall hit.
    fast_config = BenchConfig(
        variants=("diag_fast",),
        n_values=(4096, 8192),
        d=32,
        seeds=(0, 1, 2),
        repetitions=11,
        warmup=3,
    )
    naive_config = BenchConfig(
        variants=("diag_naive",),
        n_values=(4096, 8192),
        d=32,
        seeds=(0,),
        repetitions=5,
        warmup=1,
    )

    def median_sweep_ratio(config, cell, sweeps):
        return statistics.median(run_bench(config)[1].doubling_ratios[cell] for _ in range(sweeps))

    fast_ratio = median_sweep_ratio(fast_config, ("diag_fast", 4096, 8192), 7)
    naive_ratio = median_sweep_ratio(naive_config, ("diag_naive", 4096, 8192), 5)
    elapsed = time.perf_counter() - start
    ok = worst < 1e-10 and 1.5 <= fast_ratio <= 2.7 and naive_ratio > 3.2 and elapsed < 120.0
    _report(4, "fast diagonal: equality and linear-time doubling ratio", ok,
            f"max diff {worst:.2e}, fast ratio {fast_ratio:.2f}, "
            f"naive ratio {naive_ratio:.2f}, {elapsed:.1f}s")
    assert worst < 1e-10
    assert 1.5 <= fast_ratio <= 2.7
    assert naive_ratio > 3.2
    assert elapsed < 120.0


def test_criterion_05_trace_hadamard_boundary():
    a = np.array([[0.0, 1.0], [0.0, 0.0]])
    report = trace_identity_report(a, a.T)
    ok = (
        report.product_trace == 1.0
        and report.hadamard_sum == 0.0
        and report.hadamard_sum_transposed == 1.0
        and not report.b_is_symmetric
        and report.symmetric_dev is None  # the suite does not claim the plain form here
        and report.general_dev == 0.0
    )
    # the symmetric-case identity is asserted only under its hypothesis
    rng = np.random.default_rng(3000)
    sym_worst = 0.0
    for _ in range(50):
        x = rng.standard_normal((4, 4))
        sym = trace_identity_report(x, (x + x.T) / 2 + np.eye(4))
        assert sym.b_is_symmetric
        sym_worst = max(sym_worst, sym.symmetric_dev, sym.general_dev)
    ok = ok and sym_worst < 1e-10
    _report(5, "trace/Hadamard boundary: counterexample separates the unsymmetric case", ok,
            f"tr(AB)={report.product_trace}, sum(AoB)={report.hadamard_sum}, "
            f"sum(AoB^T)={report.hadamard_sum_transposed}, symmetric-case dev {sym_worst:.2e}")
    assert ok


def test_criterion_06_matrix_exponential():
    rng = np.random.default_rng(4000)
    worst = 0.0
    for _ in range(50):
        a = rng.standard_normal((4, 4))
        a /= max(float(np.max(np.sum(np.abs(a), axis=0))), 1.0)
        worst = max(worst, float(np.max(np.abs(expm_taylor(a, 30) - expm_pade(a, 6, 6)))))

    nilpotent = np.array([[0.0, 1.0], [0.0, 0.0]])
    expected = np.array([[1.0, 1.0], [0.0, 1.0]])
    exact_taylor = np.array_equal(expm_taylor(nilpotent, 2), expected)
    exact_pade = np.array_equal(expm_pade(nilpotent, 6, 6), expected)

    scalar = expm_pade(np.array([[1.0]]), 2, 2, scaling_threshold=math.inf)[0, 0]
    scalar_dev = abs(scalar - 19.0 / 7.0)

    ok = worst < 1e-8 and exact_taylor and exact_pade and scalar_dev < 1e-12
    _report(6, "matrix exponential: cross-method, nilpotent-exact, 19/7 scalar", ok,
            f"method diff {worst:.2e}, nilpotent exact {exact_taylor and exact_pade}, "
            f"scalar dev {scalar_dev:.2e}")
    assert worst < 1e-8
    assert exact_taylor and exact_pade
    assert scalar_dev < 1e-12


def test_criterion_07_relu_preserves_trace():
    failures = 0
    for seed in range(100):
        rng = np.random.default_rng(seed + 5000)
        n = int(rng.integers(2, 17))
        d = int(rng.integers(1, 9))
        t = build_tensor_operator(rng.standard_normal((n, d)), rng.standard_normal((n, d)))
        if float(np.trace(np.maximum(t, 0.0))) != float(np.trace(t)):
            failures += 1
    ok = failures == 0
    _report(7, "clamping at zero preserves the operator trace exactly", ok,
            f"{failures} failures over 100 instances")
    assert failures == 0


def test_criterion_08_kron_vec_oracle():
    rng = np.random.default_rng(6000)
    worst = 0.0
    for _ in range(50):
        rows = int(rng.integers(1, 5))
        cols = int(rng.integers(1, 5))
        q = rng.standard_normal((rows, cols))
        k = rng.standard_normal((rows, cols))
        report = kron_vec_check(q, k)
        assert report.passed
        worst = max(worst, report.max_deviation)
    control = kron_vec_check(
        np.array([[1.0, 2.0], [3.0, 4.0]]), np.array([[5.0, 6.0], [7.0, 8.0]]), vec_order="row"
    )
    ok = worst < 1e-12 and not control.passed
    _report(8, "kron/vec correspondence holds; row-stacking control fails", ok,
            f"max deviation {worst:.2e}, control deviation {control.max_deviation:.2e}")
    assert worst < 1e-12
    assert not control.passed


def test_criterion_09_partial_trace():
    rng = np.random.default_rng(7000)
    worst = 0.0
    for trial in range(50):
        m = 2 if trial % 2 == 0 else 3
        n = 3 if trial % 2 == 0 else 2
        a = rng.standard_normal((m, m))
        b = rng.standard_normal((n, n))
        product = kron(a, b)
        worst = max(worst, float(np.max(np.abs(partial_trace(product, m, n, "w") - trace(b) * a))))
        worst = max(worst, float(np.max(np.abs(partial_trace(product, m, n, "v") - trace(a) * b))))
        worst = max(worst, abs(trace(partial_trace(product, m, n, "w")) - trace(product)))
        worst = max(worst, abs(trace(partial_trace(product, m, n, "v")) - trace(product)))
    ok = worst < 1e-12
    _report(9, "partial trace factorizes Kronecker products and preserves the trace", ok,
            f"max deviation {worst:.2e}, 50 pairs")
    assert worst < 1e-12


def test_criterion_10_tensor_interaction():
    rng = np.random.default_rng(8000)
    worst_shape = False
    worst_trace = 0.0
    worst_oracle = 0.0
    for seed in range(25):
        n = int(rng.integers(2, 13))
        d = int(rng.integers(2, 7))
        q = rng.standard_normal((n, d))
        k = rng.standard_normal((n, d))
        op = build_interaction_operator(q, k)
        grown = build_interaction_operator(
            np.vstack([q, rng.standard_normal((n, d))]),
            np.vstack([k, rng.standard_normal((n, d))]),
        )
        worst_shape = worst_shape or op.shape != (d, d) or grown.shape != (d, d)
        frobenius = float(np.sum((q.T @ k) ** 2))
        scale = max(frobenius, 1e-300)
        worst_trace = max(worst_trace, abs(float(np.trace(op)) - frobenius) / scale)
        worst_trace = max(worst_trace, abs(interaction_trace(q, k) - frobenius) / scale)

        inputs = random_inputs(n, d, seed=seed + 8000)
        worst_oracle = max(
            worst_oracle,
            float(np.max(np.abs(tensor_interaction(inputs) - naive_reference(inputs, "interaction")))),
        )
    ok = not worst_shape and worst_trace < 1e-10 and worst_oracle < 1e-10
    _report(10, "channel operator: n-independent shape, trace identity, oracle equality", ok,
            f"trace rel err {worst_trace:.2e}, oracle diff {worst_oracle:.2e}")
    assert not worst_shape
    assert worst_trace < 1e-10
    assert worst_oracle < 1e-10


def test_criterion_11_gradient_equality():
    worst = 0.0
    for seed in range(10):
        rng = np.random.default_rng(seed + 9000)
        inputs = random_inputs(4, 3, seed=seed + 9000)
        u = rng.standard_normal(4)
        w = rng.standard_normal(3)
        g_naive = fd_probe("tensor_naive", inputs, u, w, h=1e-5)
        g_linear = fd_probe("tensor_linear", inputs, u, w, h=1e-5)
        worst = max(worst, float(np.max(np.abs(g_naive - g_linear))))
    ok = worst < 1e-4
    _report(11, "finite-difference gradients match between paths", ok,
            f"max abs gradient diff {worst:.2e}, 10 seeds")
    assert worst < 1e-4


def test_criterion_12_encoder_integration():
    start = time.perf_counter()
    n_patches, width, depth = 4, 8, 2
    checked = 0
    degenerate = 0
    for seed in range(100):
        patches = random_matrix(n_patches, width, seed=seed + 10000)
        for mechanism in variant_ids():
            params = vit_init(width, width, 4 * width, n_patches, depth,
                              seed=seed, mechanism=mechanism)
            try:
                first = vit_forward(params, patches)
            except DegenerateNormalizer:
                # a reported degeneracy must at least be deterministic
                with pytest.raises(DegenerateNormalizer):
                    vit_forward(params, patches)
                degenerate += 1
                continue
            assert np.all(np.isfinite(first)), mechanism
            assert array_checksum(first) == array_checksum(vit_forward(params, patches))
            checked += 1
    elapsed = time.perf_counter() - start
    ok = elapsed < 60.0
    _report(12, "encoder: deterministic, finite forward across all mechanisms", ok,
            f"{checked} finite forwards, {degenerate} reported degeneracies, {elapsed:.1f}s")
    assert checked > 0
    assert elapsed < 60.0


def test_criterion_13_complex_operators():
    worst_hermitian = 0.0
    worst_diag_imag = 0.0
    worst_diag_neg = 0.0
    worst_psd = 0.0
    for seed in range(50):
        rng = np.random.default_rng(seed + 11000)
        n = int(rng.integers(2, 11))
        d = int(rng.integers(1, 6))
        q = random_matrix(n, d, seed=seed + 11000, complex_=True)
        k = random_matrix(n, d, seed=seed + 12000, complex_=True)
        t = build_tensor_operator(q, k)
        worst_hermitian = max(worst_hermitian, float(np.max(np.abs(t - t.conj().T))))
        diag = np.diag(t)
        worst_diag_imag = max(worst_diag_imag, float(np.max(np.abs(diag.imag))))
        worst_diag_neg = max(worst_diag_neg, -float(np.min(diag.real)))
        bound = 1e-10 * float(np.linalg.norm(t))
        for _ in range(20):
            x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            quad = np.conj(x) @ t @ x
            worst_psd = max(worst_psd, -(float(quad.real) + bound * float(np.real(np.conj(x) @ x))))
    ok = worst_hermitian < 1e-12 and worst_diag_imag < 1e-12 and worst_diag_neg <= 0.0 and worst_psd <= 0.0
    _report(13, "complex scores give Hermitian PSD operators with real diagonals", ok,
            f"hermitian dev {worst_hermitian:.2e}, diag imag {worst_diag_imag:.2e}, "
            f"diag floor {-worst_diag_neg:.2e}, psd slack {-worst_psd:.2e}")
    assert worst_hermitian < 1e-12
    assert worst_diag_imag < 1e-12
    assert worst_diag_neg <= 0.0
    assert worst_psd <= 0.0
