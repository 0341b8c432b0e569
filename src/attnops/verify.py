"""Executable identity suite behind the ``verify`` subcommand.

Each check exercises one algebraic fact the fast paths rely on, reports the
worst deviation it observed against an explicit tolerance, and never asserts:
the caller decides what to do with failures.  With ``negative_control=True`` a
deliberately wrong vectorization convention is planted so the harness can
prove it detects broken identities.

Two table-driven loops hold the operator and mechanism checks.  ``_IDENTITIES``
runs each token-operator identity over side x flavor x real/complex where it
holds.  The mechanism loop reads ``registry.MECHANISMS``: each id's record names
its loop oracle in ``oracles.py``, the arguments both sides get and the id's
domain, and each id runs through ``registry.forward`` on every side, flavor and
scalar kind, at n > d and at n < d (a singular Gram), with d_v != d where it
allows.  Inside its domain an id must match its oracle to 1e-12 of the largest
entry, times max(1, max|T / tr T|) for the two exp-based ids, whose exponential
amplifies the rounding of T / tr T by up to that much.  Outside its domain it
must raise, and where the record refuses an option the implementation must
refuse it too.  One check per identity and one per id.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .attention import AttnInputs, linear_kernel_attention, softmax_attention
from .dense import adjoint_product, gemm, kron, partial_trace, trace
from .errors import ComplexNotSupported
from .expm import expm_pade, expm_taylor
from .oracles import (
    fd_probe,
    kron_vec_check,
    loop_adjoint_product,
    loop_gelu,
    loop_layer_norm,
    naive_reference,
    trace_identity_report,
)
from . import registry
from .synth import random_inputs, random_matrix
from .tensor_attention import (
    TensorOpConfig,
    build_tensor_operator,
    diag_fast,
    flavored_product,
    normalized_tensor_operator,
    operator_trace,
    score_matrix,
    tensor_attention_expm,
    tensor_attention_masked,
)
from .tensor_interaction import build_interaction_operator, interaction_trace
from .vit import LAYER_NORM_EPS, _tile_starts, gelu, layer_norm, vit_forward, vit_init

# Token-operator identities: (name, tolerance, product flavors only, real inputs only,
# deviation of (q, k, side, t, rng)), where t is the materialized operator.
_IDENTITIES = (
    ("operator is Hermitian with a real diagonal", 1e-12, False, False,
     lambda q, k, side, t, rng: np.max(np.abs(t - t.conj().T))),
    ("operator diagonal is non-negative", 1e-300, False, False,
     lambda q, k, side, t, rng: -np.min(np.diag(t).real)),
    ("clamping negatives preserves the trace exactly", 1e-300, False, True,
     lambda q, k, side, t, rng: abs(np.trace(np.maximum(t, 0.0)) - np.trace(t))),
    ("operator passes PSD probes", 1e-12, True, False,
     lambda q, k, side, t, rng: _quadratic_form_floor(t, rng) - 1e-10),
    ("operator trace equals squared Frobenius norm of the scores", 1e-10, True, False,
     lambda q, k, side, t, rng: _rel(np.trace(t).real, np.sum(np.abs(score_matrix(q, k)) ** 2))),
    ("operator trace: both sides equal the Gram Hadamard sum", 1e-10, True, False,
     lambda q, k, side, t, rng: _rel(np.trace(t).real, operator_trace(q, k))),
    ("fast diagonal equals materialized diagonal", 1e-10, True, False,
     lambda q, k, side, t, rng: np.max(np.abs(diag_fast(q, k, side) - np.diag(t)))),
)

# (n, d, d_v): n > d, and n < d, where the d-by-d Gram is singular
_ORACLE_SHAPES = ((4, 3, 2), (2, 5, 4))
_ORACLE_TOL = 1e-12  # relative to the oracle's largest entry
_CONDITIONED = ("tensor_elem_exp", "tensor_expm")  # their bound scales with max|T / tr T|


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


def _identity_checks(rng) -> list[CheckResult]:
    """One check per ``_IDENTITIES`` row, over side x flavor x real/complex where it holds."""
    worst = [0.0] * len(_IDENTITIES)
    for side, hadamard, complex_ in itertools.product("qk", (False, True), (False, True)):
        for n, d in ((8, 3), (3, 5)) * 5:
            q, k = rng.standard_normal((2, n, d))
            if complex_:
                q, k = q + 1j * rng.standard_normal((n, d)), k + 1j * rng.standard_normal((n, d))
            t = build_tensor_operator(q, k, TensorOpConfig(side=side, hadamard=hadamard))
            for i, (_, _, product, real, deviation) in enumerate(_IDENTITIES):
                if not (product and hadamard or real and complex_):
                    worst[i] = max(worst[i], float(deviation(q, k, side, t, rng)))
    return [_result(name, dev, tol, f"{'product' if product else 'both'} flavors, "
                                    f"{'real' if real else 'real and complex'}")
            for (name, tol, product, real, _), dev in zip(_IDENTITIES, worst)]


def _attempt(fn, *args, **kwargs):
    """The answer, or the exception raised: any raise is a verdict on the id, not a crash."""
    try:
        return fn(*args, **kwargs)
    except Exception as exc:
        return exc


def _oracle_check(variant: str, seed: int) -> CheckResult:
    """``variant`` through ``registry.forward`` on every case, against its ``Mechanism`` record."""
    mechanism = registry.lookup(variant)
    domain = mechanism.domain
    configs = [{}] if "plain" in domain else [
        {"side": side, "hadamard": hadamard} for hadamard in (False, True) for side in "qk"]
    dev, worst_scale, faults = 0.0, 1.0, []
    for case, ((n, d, d_v), complex_) in enumerate(itertools.product(_ORACLE_SHAPES, (False, True))):
        x = random_inputs(n, d, d if "square" in domain else d_v, seed=seed + 300 + case,
                          complex_=complex_)
        if "nonneg" in domain and not complex_:
            x = AttnInputs(np.abs(x.q), np.abs(x.k), x.v)
        for cfg in configs:
            outside = (ComplexNotSupported if complex_ and {"real", "nonneg"}.intersection(domain)
                       else ValueError if cfg.get("hadamard") and "product" in domain else None)
            fast = _attempt(registry.forward, variant, x, **cfg)
            if outside is ValueError and isinstance(fast, ValueError):
                # the record refuses the flavor before the call; the implementation must too
                fast = _attempt(getattr(registry, mechanism.implementation), x,
                                TensorOpConfig(**cfg), **mechanism.arguments)
            if outside is None and not isinstance(fast, Exception):
                slow = naive_reference(x, mechanism.oracle, **mechanism.arguments, **cfg)
                scale = 1.0
                if variant in _CONDITIONED:  # T / tr T is the trace-normalized oracle on I
                    eye = AttnInputs(x.q, x.k, np.eye(n))
                    scale = max(1.0, np.max(np.abs(naive_reference(eye, "tensor", **cfg))))
                    worst_scale = max(worst_scale, scale)
                dev = max(dev, np.max(np.abs(fast - slow)) / np.max(np.abs(slow)) / scale
                          if fast.shape == slow.shape else math.inf)
            elif not (outside and isinstance(fast, outside)):
                want = outside.__name__ if outside else "an answer"
                got = repr(fast) if isinstance(fast, Exception) else "an answer"
                kind = "complex" if complex_ else "real"
                faults.append(f"{kind} n={n} d={d} {cfg}: expected {want}, got {got}")
    options = "".join(f" {key}={value}" for key, value in mechanism.arguments.items())
    scaled = (f", divided by max(1, max|T / tr T|), here up to {worst_scale:.3g}"
              if variant in _CONDITIONED else "")
    return _result(f"{variant} equals its loop oracle on every case it accepts",
                   math.inf if faults else dev, _ORACLE_TOL, "; ".join(faults) or
                   f"oracle {mechanism.oracle}{options}; relative to the largest entry{scaled}")


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
    gap = (boundary.product_trace, boundary.hadamard_sum, boundary.hadamard_sum_transposed)
    if np.max(np.abs(np.subtract(gap, (1.0, 0.0, 1.0)))) >= 1e-15:
        dev = max(dev, 1.0)
    checks.append(_result(
        "trace vs Hadamard sum: tr(AB) = sum(A o B^T); sum(A o B) only for symmetric B", dev, 1e-10,
        "boundary counterexample separates the unsymmetric case"))

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

    control = kron_vec_check(rng.standard_normal((3, 2)), rng.standard_normal((3, 2)), "row")
    checks.append(CheckResult("row-stacking control is detected as wrong", control.max_deviation,
                              1e-12, not control.passed,
                              "this check passes when the planted convention fails"))
    if negative_control:
        checks.append(CheckResult("planted negative control: row-stacking vec bijection",
                                  control.max_deviation, 1e-12, control.passed,
                                  "deliberately wrong convention, expected to fail"))

    # Frobenius identity
    dev = 0.0
    for complex_ in (False, True):
        a = random_matrix(5, 4, seed=seed + complex_, complex_=complex_)
        value = trace(gemm(a, a, trans_b=True))
        dev = max(dev, _rel(np.real(value), float(np.sum(np.abs(a) ** 2))))
        dev = max(dev, abs(np.imag(value)))
    checks.append(_result("Frobenius: tr(A A^H) = sum |a_ij|^2, real non-negative", dev, 1e-12))

    # a^H b against the loop product; a complex Gram must come out exactly Hermitian
    dev, exact = 0.0, True
    for complex_, (n, d, p) in itertools.product((False, True), ((7, 3, 2), (2, 5, 4))):
        a = random_matrix(n, d, seed=seed + 10 + n, complex_=complex_)
        for b in (a, random_matrix(n, p, seed=seed + 20 + n, complex_=complex_)):
            fast, slow = adjoint_product(a, b), loop_adjoint_product(a, b)
            dev = max(dev, np.max(np.abs(fast - slow)) / np.max(np.abs(slow)))
            if b is a:
                exact &= np.array_equal(fast, fast.conj().T) and not fast.diagonal().imag.any()
    checks.append(_result("adjoint product equals the loop product; a Gram is exactly Hermitian",
                          dev if exact else math.inf, 1e-12,
                          "real and complex, b is a and not, n > d and n < d; relative to the "
                          "largest entry"))

    checks += _identity_checks(rng)

    # row normalization sums to one on entrywise non-negative operators
    dev = 0.0
    for trial in range(10):
        q = np.abs(rng.standard_normal((6, 3)))
        k = np.abs(rng.standard_normal((6, 3)))
        normalized = normalized_tensor_operator(q, k, normalization="row")
        dev = max(dev, np.max(np.abs(normalized.sum(axis=1) - 1.0)))
    checks.append(_result("row-normalized operator rows sum to one", dev, 1e-12))

    # matrix exponential identities
    devs = np.zeros(4)
    for trial in range(10):
        a = rng.standard_normal((3, 3))
        a = a / max(np.max(np.sum(np.abs(a), axis=0)), 1.0)  # keep the 1-norm at or below 1
        m = expm_pade(a)
        devs = np.maximum(devs, [np.max(np.abs(expm_taylor(a, 30) - expm_pade(a, 6, 6))),
                                 np.max(np.abs(m @ expm_pade(-a) - np.eye(3))),
                                 np.max(np.abs(expm_pade(a.T) - m.T)),
                                 _rel(np.linalg.det(m), np.exp(np.trace(a)))])
    for name, dev, tol in zip(("Taylor and Pade exponentials agree", "expm(A) expm(-A) = I",
                               "expm commutes with transpose", "det(expm(A)) = exp(tr(A))"),
                              devs, (1e-8, 1e-8, 1e-10, 1e-8)):
        checks.append(_result(name, dev, tol))

    checks += [_oracle_check(variant, seed) for variant in registry.variant_ids()]

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
    q = rng.standard_normal((9, 4))
    k = rng.standard_normal((9, 4))
    frobenius = float(np.sum((q.T @ k) ** 2))
    dev = max(_rel(trace(build_interaction_operator(q, k)), frobenius),
              _rel(interaction_trace(q, k), frobenius))
    if build_interaction_operator(np.vstack([q, q]), np.vstack([k, k])).shape != (4, 4):
        dev = max(dev, 1.0)
    checks.append(_result("channel operator trace identity; size independent of token count",
                          dev, 1e-10))

    # finite differences: same function on both paths, same gradients
    inputs = random_inputs(4, 3, seed=seed + 400)
    u = rng.standard_normal(4)
    w = rng.standard_normal(3)
    grads = [fd_probe(variant, inputs, u, w) for variant in ("tensor_naive", "tensor_linear")]
    dev = np.max(np.abs(grads[0] - grads[1]))
    checks.append(_result("finite-difference gradients: materialized vs factorized", dev, 1e-4))

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
    pairs = [(gelu(h), loop_gelu(h)),
             (layer_norm(x, scale, shift), loop_layer_norm(x, scale, shift, LAYER_NORM_EPS))]
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
