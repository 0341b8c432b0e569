"""Brute-force references written with independent index arithmetic.

Nothing in this module calls the vectorized implementations or shares helpers
with them: score matrices, operators, traces, normalizations and even the
Kronecker/vec bookkeeping are recomputed with explicit Python loops, so a bug
in a fast path cannot hide inside its own oracle.  Sizes are capped since the
loops are O(n^3)-ish by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .attention import AttnInputs
from .dense import as_matrix, as_vector, vectorize
from .errors import (
    ComplexNotSupported,
    DegenerateNormalizer,
    DimensionMismatch,
    NotSquare,
    ShapeTooLarge,
    UnknownVariant,
)

_NAIVE_TOKEN_LIMIT = 256
_KRON_ENTRY_LIMIT = 64
_KRON_VEC_TOL = 1e-12  # pass bounds of the two identity reports
_TRACE_IDENTITY_TOL = 1e-10
_KERNEL_NORM_FLOOR = 1e-12  # floor on the kernel oracle's feature norms
_EXPM_TERMS = 20  # Taylor terms of the expm oracle at 1-norm <= 1: remainder below 1/20! ~ 4e-19


# ---------------------------------------------------------------------------
# loop primitives


def _loop_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    rows, inner = a.shape
    cols = b.shape[1]
    out = np.zeros((rows, cols), dtype=np.result_type(a, b))
    for i in range(rows):
        for j in range(cols):
            acc = 0
            for t in range(inner):
                acc += a[i, t] * b[t, j]
            out[i, j] = acc
    return out


def loop_adjoint_product(a, b) -> np.ndarray:
    """a^H b one entry at a time: out[i, j] = sum_t conj(a[t, i]) b[t, j]."""
    return _loop_matmul(np.conj(np.asarray(a)).T, np.asarray(b))


def _loop_scores(q: np.ndarray, k: np.ndarray) -> np.ndarray:
    n, d = q.shape
    out = np.zeros((n, n), dtype=np.result_type(q, k))
    for i in range(n):
        for j in range(n):
            acc = 0
            for t in range(d):
                acc += q[i, t] * np.conj(k[j, t])
            out[i, j] = acc
    return out


def _loop_operator(q, k, side: str = "q", hadamard: bool = False) -> np.ndarray:
    a = _loop_scores(q, k)
    n = a.shape[0]
    t = np.zeros((n, n), dtype=a.dtype)
    if hadamard:
        for i in range(n):
            for j in range(n):
                t[i, j] = a[i, j] * np.conj(a[j, i])
        return t
    for i in range(n):
        for j in range(n):
            acc = 0
            if side == "q":
                for l in range(n):
                    acc += a[i, l] * np.conj(a[j, l])
            else:
                for l in range(n):
                    acc += np.conj(a[l, i]) * a[l, j]
            t[i, j] = acc
    return t


def _loop_trace(t: np.ndarray) -> float:
    acc = 0.0
    for i in range(t.shape[0]):
        acc += float(np.real(t[i, i]))
    return acc


def _positive_trace(t: np.ndarray) -> float:
    total = _loop_trace(t)
    if total <= 0:
        raise DegenerateNormalizer(f"oracle operator trace {total:.3e} is not positive")
    return total


def _normalize_operator(t: np.ndarray, normalization: str) -> np.ndarray:
    n = t.shape[0]
    out = t.astype(t.dtype, copy=True)
    if normalization == "trace":
        total = _positive_trace(t)
        for i in range(n):
            for j in range(n):
                out[i, j] = t[i, j] / total
        return out
    for i in range(n):
        if normalization == "diag":
            scale = t[i, i]
        else:
            scale = 0
            for j in range(n):
                scale += t[i, j]
        if np.real(scale) <= 0:
            raise DegenerateNormalizer(f"oracle row/diag normalizer {i} is not positive")
        for j in range(n):
            out[i, j] = t[i, j] / scale
    return out


# ---------------------------------------------------------------------------
# Kronecker / vec consistency report


@dataclass(frozen=True)
class KronVecReport:
    """Deviations of the Kronecker/outer-product index correspondence.

    library_vec_dev compares the package's vectorize against loop-built
    column stacking; outer_dev and squared_outer_dev check that the outer
    product of stacked vectors reproduces the Kronecker product entry by
    entry under the column-convention index map (for the raw operands and for
    the score matrix against itself); trace_dev checks that the full trace of
    the squared-score Kronecker product equals the squared trace.
    """

    library_vec_dev: float
    outer_dev: float
    squared_outer_dev: float
    trace_dev: float

    @property
    def max_deviation(self) -> float:
        return max(self.library_vec_dev, self.outer_dev, self.squared_outer_dev, self.trace_dev)

    @property
    def passed(self) -> bool:
        return self.max_deviation < _KRON_VEC_TOL


def _loop_vec(m: np.ndarray, order: str) -> np.ndarray:
    rows, cols = m.shape
    out = np.zeros(rows * cols, dtype=m.dtype)
    pos = 0
    if order == "col":
        for j in range(cols):
            for i in range(rows):
                out[pos] = m[i, j]
                pos += 1
    else:
        for i in range(rows):
            for j in range(cols):
                out[pos] = m[i, j]
                pos += 1
    return out


def _loop_kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    ar, ac = a.shape
    br, bc = b.shape
    out = np.zeros((ar * br, ac * bc), dtype=np.result_type(a, b))
    for i in range(ar):
        for j in range(ac):
            for p in range(br):
                for r in range(bc):
                    out[i * br + p, j * bc + r] = a[i, j] * b[p, r]
    return out


def _bijection_dev(vec_a, vec_b, kron_ab, a_shape, b_shape) -> float:
    # Column-stacking decode: index t of an (rows x cols) vec is (t % rows, t // rows).
    a_rows, _ = a_shape
    b_rows, b_cols = b_shape
    worst = 0.0
    for s in range(vec_a.size):
        i_a, j_a = s % a_rows, s // a_rows
        for t in range(vec_b.size):
            i_b, j_b = t % b_rows, t // b_rows
            expected = vec_a[s] * vec_b[t]
            got = kron_ab[i_a * b_rows + i_b, j_a * b_cols + j_b]
            worst = max(worst, abs(expected - got))
    return worst


def kron_vec_check(q, k, vec_order: str = "col") -> KronVecReport:
    """Verify the Kronecker / vectorization correspondence on small operands.

    ``vec_order="row"`` deliberately stacks the vectors in the wrong order and
    serves as the negative control: the index map assumes column stacking, so
    the report must fail for generic inputs.
    """
    if vec_order not in ("col", "row"):
        raise ValueError(f"vec_order must be 'col' or 'row', got {vec_order!r}")
    q = as_matrix(q, "q")
    k = as_matrix(k, "k")
    if q.shape != k.shape:
        raise DimensionMismatch(f"q {q.shape} and k {k.shape} must share both dimensions")
    if q.size > _KRON_ENTRY_LIMIT:
        raise ShapeTooLarge(f"operand has {q.size} entries, limit is {_KRON_ENTRY_LIMIT}")

    vec_q = _loop_vec(q, vec_order)
    vec_k = _loop_vec(k, vec_order)
    lib_vec = vectorize(q).reshape(-1)
    library_vec_dev = float(max(abs(lib_vec[t] - vec_q[t]) for t in range(vec_q.size)))

    outer_dev = _bijection_dev(vec_q, vec_k, _loop_kron(q, k), q.shape, k.shape)

    scores = _loop_scores(q, k)
    vec_s = _loop_vec(scores, vec_order)
    kron_ss = _loop_kron(scores, scores)
    squared_outer_dev = _bijection_dev(vec_s, vec_s, kron_ss, scores.shape, scores.shape)

    trace_dev = abs(_loop_trace(kron_ss) - _loop_trace(scores) ** 2)

    return KronVecReport(
        library_vec_dev=library_vec_dev,
        outer_dev=float(outer_dev),
        squared_outer_dev=float(squared_outer_dev),
        trace_dev=float(trace_dev),
    )


# ---------------------------------------------------------------------------
# trace identity report


@dataclass(frozen=True)
class TraceIdentityReport:
    """tr(A B) against the two Hadamard sums.

    The transpose form tr(A B) = sum(A o B^T) holds unconditionally; the plain
    form sum(A o B) only matches when B is symmetric, which is the case the
    attention traces rely on (Gram matrices are symmetric).
    """

    product_trace: float
    hadamard_sum: float
    hadamard_sum_transposed: float
    b_is_symmetric: bool
    general_dev: float
    symmetric_dev: float | None

    @property
    def passed(self) -> bool:
        if self.general_dev >= _TRACE_IDENTITY_TOL:
            return False
        return self.symmetric_dev is None or self.symmetric_dev < _TRACE_IDENTITY_TOL


def trace_identity_report(a, b) -> TraceIdentityReport:
    a = as_matrix(a, "a")
    b = as_matrix(b, "b")
    if np.iscomplexobj(a) or np.iscomplexobj(b):
        raise ComplexNotSupported("trace identity report is defined for real matrices",
                                  operation="trace identity report")
    if a.shape[0] != a.shape[1] or a.shape != b.shape:
        raise NotSquare(f"need square matrices of equal shape, got {a.shape} and {b.shape}")
    n = a.shape[0]
    product_trace = 0.0
    hadamard_sum = 0.0
    hadamard_sum_t = 0.0
    symmetric = True
    for i in range(n):
        for j in range(n):
            product_trace += a[i, j] * b[j, i]
            hadamard_sum += a[i, j] * b[i, j]
            hadamard_sum_t += a[i, j] * b[j, i]
            if b[i, j] != b[j, i]:
                symmetric = False
    general_dev = abs(product_trace - hadamard_sum_t)
    symmetric_dev = abs(product_trace - hadamard_sum) if symmetric else None
    return TraceIdentityReport(
        product_trace=float(product_trace),
        hadamard_sum=float(hadamard_sum),
        hadamard_sum_transposed=float(hadamard_sum_t),
        b_is_symmetric=symmetric,
        general_dev=float(general_dev),
        symmetric_dev=None if symmetric_dev is None else float(symmetric_dev),
    )


# ---------------------------------------------------------------------------
# naive forward references


def _naive_softmax(inputs: AttnInputs) -> np.ndarray:
    q, k, v = inputs.q, inputs.k, inputs.v
    n, d = q.shape
    out = np.zeros((n, v.shape[1]))
    scale = 1.0 / math.sqrt(d)
    for i in range(n):
        weights = []
        for j in range(n):
            logit = 0.0
            for t in range(d):
                logit += q[i, t] * k[j, t]
            weights.append(math.exp(logit * scale))
        denom = sum(weights)
        for c in range(v.shape[1]):
            acc = 0.0
            for j in range(n):
                acc += weights[j] / denom * v[j, c]
            out[i, c] = acc
    return out


def _naive_kernel(inputs: AttnInputs) -> np.ndarray:
    q, k, v = inputs.q, inputs.k, inputs.v
    n, d = q.shape

    def features(row):
        xs = [float(x) for x in row]
        # with 2^e the power of two at or below the largest |x|, the squares of x / 2^e stay
        # below 4: the loop norm neither overflows nor underflows to zero
        scale = math.ldexp(1.0, math.frexp(max(abs(x) for x in xs))[1] - 1)
        root = math.sqrt(sum((x / scale) ** 2 for x in xs))
        if scale * root < _KERNEL_NORM_FLOOR:
            return [1.0] + [x / _KERNEL_NORM_FLOOR for x in xs]
        return [1.0] + [x / scale / root for x in xs]

    fq = [features(q[i]) for i in range(n)]
    fk = [features(k[j]) for j in range(n)]
    out = np.zeros((n, v.shape[1]))
    for i in range(n):
        sims = []
        for j in range(n):
            sims.append(sum(fq[i][t] * fk[j][t] for t in range(d + 1)))
        denom = sum(sims)
        for c in range(v.shape[1]):
            acc = 0.0
            for j in range(n):
                acc += sims[j] / denom * v[j, c]
            out[i, c] = acc
    return out


def _naive_tensor(inputs: AttnInputs, side: str = "q", normalization: str = "trace",
                  hadamard: bool = False) -> np.ndarray:
    t = _loop_operator(inputs.q, inputs.k, side=side, hadamard=hadamard)
    return _loop_matmul(_normalize_operator(t, normalization), inputs.v)


def _naive_relu(inputs: AttnInputs, side: str = "q", hadamard: bool = False) -> np.ndarray:
    t = _loop_operator(inputs.q, inputs.k, side=side, hadamard=hadamard)
    total = _positive_trace(t)
    n = t.shape[0]
    clamped = np.zeros_like(t)
    for i in range(n):
        for j in range(n):
            clamped[i, j] = t[i, j] if t[i, j] > 0 else 0.0
    return _loop_matmul(clamped, inputs.v) / total


def _naive_elem_exp(inputs: AttnInputs, side: str = "q", hadamard: bool = False) -> np.ndarray:
    t = _normalize_operator(_loop_operator(inputs.q, inputs.k, side, hadamard), "trace")
    n = t.shape[0]
    kernel = np.zeros_like(t)
    for i in range(n):
        for j in range(n):
            kernel[i, j] = math.exp(float(t[i, j]))
    return _loop_matmul(kernel, inputs.v)


def _naive_expm(inputs: AttnInputs, side: str = "q", hadamard: bool = False) -> np.ndarray:
    t_hat = _normalize_operator(_loop_operator(inputs.q, inputs.k, side, hadamard), "trace")
    n = t_hat.shape[0]
    # Halve (exactly) until every column's absolute sum is at most 1, and square back after
    # the series: the elementwise flavor's T / tr T can have eigenvalues near +-17 at n = 2,
    # where 50 terms of the unscaled series leave a relative error of 3e-11.
    squarings = 0
    while max(sum(abs(t_hat[i, j]) for i in range(n)) for j in range(n)) > 1:
        t_hat = t_hat / 2
        squarings += 1
    acc = np.eye(n, dtype=t_hat.dtype)
    power = np.eye(n, dtype=t_hat.dtype)
    factorial = 1.0
    for k in range(1, _EXPM_TERMS + 1):
        power = _loop_matmul(power, t_hat)
        factorial *= k
        acc = acc + power / factorial
    for _ in range(squarings):
        acc = _loop_matmul(acc, acc)
    return _loop_matmul(acc, inputs.v)


def _naive_masked(inputs: AttnInputs, side: str = "q", hadamard: bool = False) -> np.ndarray:
    t = _loop_operator(inputs.q, inputs.k, side=side, hadamard=hadamard)
    total = _positive_trace(t)
    n = t.shape[0]
    masked = np.zeros_like(t)
    for i in range(n):
        for j in range(i + 1):
            masked[i, j] = t[i, j]
    return _loop_matmul(masked, inputs.v) / total


def _naive_residual(inputs: AttnInputs, side: str = "q", lam: float = 0.0,
                    hadamard: bool = False) -> np.ndarray:
    t = _loop_operator(inputs.q, inputs.k, side=side, hadamard=hadamard)
    total = _loop_trace(t)
    n = t.shape[0]
    shifted = t.astype(t.dtype, copy=True)
    for i in range(n):
        shifted[i, i] = shifted[i, i] + lam * total
    return _loop_matmul(shifted, inputs.v)


def _naive_interaction(inputs: AttnInputs, side: str = "q", hadamard: bool = False) -> np.ndarray:
    q, k, v = inputs.q, inputs.k, inputs.v
    if v.shape[1] != q.shape[1]:
        raise DimensionMismatch("oracle interaction needs square values")
    # The score loop on Q^H and K^H gives B = Q^H K, so this is B's flavored product,
    # just as the token operator is that of A = Q K^H.
    op = _loop_operator(q.conj().T, k.conj().T, side=side, hadamard=hadamard)
    return _loop_matmul(v, op.T) / _positive_trace(op)


_NAIVE = {
    "softmax": _naive_softmax,
    "kernel": _naive_kernel,
    "tensor": _naive_tensor,
    "tensor_relu": _naive_relu,
    "tensor_elem_exp": _naive_elem_exp,
    "tensor_expm": _naive_expm,
    "tensor_masked": _naive_masked,
    "tensor_residual": _naive_residual,
    "interaction": _naive_interaction,
}


def naive_reference(inputs: AttnInputs, variant: str, **options) -> np.ndarray:
    """Loop-based ground truth for the named mechanism.

    Options are forwarded to the underlying reference (side, normalization,
    hadamard, lam, ...).  Token counts above 256 are rejected; the loops are
    not meant to scale.
    """
    if inputs.n > _NAIVE_TOKEN_LIMIT:
        raise ShapeTooLarge(f"{inputs.n} tokens exceeds the oracle limit {_NAIVE_TOKEN_LIMIT}")
    try:
        reference = _NAIVE[variant]
    except KeyError:
        raise UnknownVariant(f"unknown variant {variant!r}; expected one of {sorted(_NAIVE)}",
                             variant=variant, known=sorted(_NAIVE)) from None
    return reference(inputs, **options)


# ---------------------------------------------------------------------------
# encoder stage references


def loop_gelu(x) -> np.ndarray:
    """0.5 x (1 + erf(x / sqrt 2)) one real element at a time, with ``math.erf``."""
    x = np.asarray(x)
    if np.iscomplexobj(x):
        raise ComplexNotSupported("the gelu oracle is defined for real inputs",
                                  operation="gelu oracle")
    values = [0.5 * v * (1.0 + math.erf(v / math.sqrt(2.0))) for v in x.ravel().tolist()]
    return np.array(values, dtype=float).reshape(x.shape)


def loop_layer_norm(x, scale, shift, eps: float) -> np.ndarray:
    """Row by row: explicit mean and variance sums, then normalize, scale and shift."""
    x = as_matrix(x, "x")
    if np.iscomplexobj(x):
        raise ComplexNotSupported("the layer-norm oracle is defined for real inputs",
                                  operation="layer-norm oracle")
    scale = as_vector(scale, "scale")
    shift = as_vector(shift, "shift")
    rows, width = x.shape
    if scale.size != width or shift.size != width:
        raise DimensionMismatch(f"scale/shift need {width} entries, got {scale.size}, {shift.size}")
    out = np.zeros((rows, width))
    for i in range(rows):
        row = x[i].tolist()
        mean = sum(row) / width
        var = sum((v - mean) ** 2 for v in row) / width
        denom = math.sqrt(var + eps)
        for j in range(width):
            out[i, j] = (row[j] - mean) / denom * scale[j] + shift[j]
    return out


# ---------------------------------------------------------------------------
# finite-difference probe


def fd_probe(variant, inputs: AttnInputs, probe_u, probe_w, h: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of u^T f(Q, K, V) w with respect to vec(Q).

    ``variant`` is a registry id or a callable taking AttnInputs.  The
    gradient is ordered column-stacked: entry s perturbs Q[s % n, s // n].
    """
    if not 1e-7 <= h <= 1e-3:
        raise ValueError(f"step h={h} outside [1e-7, 1e-3]")
    if inputs.is_complex:
        raise ComplexNotSupported("finite differences probe real inputs only",
                                  operation="finite differences")
    from .registry import forward

    fn = variant if callable(variant) else (lambda attn: forward(variant, attn))
    u = as_vector(probe_u, "probe_u")
    w = as_vector(probe_w, "probe_w")
    n, d = inputs.n, inputs.d

    def scalar(q_mat) -> float:
        out = fn(AttnInputs(q_mat, inputs.k, inputs.v))
        return float(u @ out @ w)

    grad = np.zeros(n * d)
    for s in range(n * d):
        i, j = s % n, s // n
        bumped = inputs.q.copy()
        bumped[i, j] += h
        plus = scalar(bumped)
        bumped[i, j] -= 2 * h
        minus = scalar(bumped)
        grad[s] = (plus - minus) / (2 * h)
    return grad
