"""Baseline attention mechanisms: softmax, normalized-dot kernel, multi-head.

These are the reference points the operator-based mechanisms are compared
against.  All functions are pure; ``AttnInputs`` instances are immutable and
safe to share.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .dense import as_matrix, as_vector, finite_result
from .errors import ComplexNotSupported, DegenerateDenominator, DimensionMismatch

DEFAULT_KERNEL_EPSILON = 1e-12


@dataclass(frozen=True)
class AttnInputs:
    """Validated (queries, keys, values) triple.

    q and k must share both dimensions (n tokens by d features); v must have n
    rows but may carry a different value width.  q and k are promoted to a
    common scalar kind so mixed real/complex products are well defined.
    """

    q: np.ndarray
    k: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        q, k = conform_pair(self.q, self.k)
        v = q if self.v is self.q and self.k is self.q else as_matrix(self.v, "v")
        if v.shape[0] != q.shape[0]:
            raise DimensionMismatch(f"v has {v.shape[0]} rows, expected {q.shape[0]}")
        if q.shape[0] < 1 or q.shape[1] < 1 or v.shape[1] < 1:
            raise DimensionMismatch("need at least one token, one feature, one value column")
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "v", v)

    @property
    def n(self) -> int:
        return self.q.shape[0]

    @property
    def d(self) -> int:
        return self.q.shape[1]

    @property
    def d_v(self) -> int:
        return self.v.shape[1]

    @property
    def is_complex(self) -> bool:
        return np.iscomplexobj(self.q) or np.iscomplexobj(self.v)


def conform_pair(q, k) -> tuple[np.ndarray, np.ndarray]:
    """Validate q and k as matrices of one shape, promoted to a common scalar kind."""
    shared = k is q
    q = as_matrix(q, "q")
    k = q if shared else as_matrix(k, "k")
    if q.shape != k.shape:
        raise DimensionMismatch(f"q {q.shape} and k {k.shape} must share both dimensions")
    common = np.result_type(q.dtype, k.dtype)
    return q.astype(common, copy=False), k.astype(common, copy=False)


def require_real(is_complex: bool, what: str) -> None:
    """Raise ComplexNotSupported for an operation defined on real scalars only."""
    if is_complex:
        raise ComplexNotSupported(f"{what} is defined for real inputs only")


def row_softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax with per-row max subtraction for stability."""
    shifted = logits - logits.max(axis=1, keepdims=True)
    weights = np.exp(shifted)
    return weights / weights.sum(axis=1, keepdims=True)


def softmax_attention(inputs: AttnInputs) -> np.ndarray:
    """Scaled dot-product attention: softmax(q k^T / sqrt(d)) v."""
    require_real(inputs.is_complex, "softmax attention")
    logits = inputs.q @ inputs.k.T / math.sqrt(inputs.d)
    return finite_result(row_softmax(logits) @ inputs.v, "softmax attention")


def kernel_feature_map(x, epsilon: float = DEFAULT_KERNEL_EPSILON) -> np.ndarray:
    """Map a vector to [1; x / max(||x||, eps)].

    Inner products of mapped vectors are 1 + cosine similarity, which is
    non-negative and approximates exp near zero.  Zero vectors map to the pure
    constant feature.
    """
    x = as_vector(x, "x")
    require_real(np.iscomplexobj(x), "kernel feature map")
    if not epsilon > 0:
        raise ValueError("epsilon must be positive")
    norm = float(np.linalg.norm(x))
    return np.concatenate(([1.0], x / max(norm, epsilon)))


def _feature_rows(m: np.ndarray, epsilon: float) -> np.ndarray:
    norms = np.linalg.norm(m, axis=1, keepdims=True)
    return np.hstack([np.ones((m.shape[0], 1)), m / np.maximum(norms, epsilon)])


def linear_kernel_attention(
    inputs: AttnInputs, epsilon: float = DEFAULT_KERNEL_EPSILON
) -> np.ndarray:
    """Kernelized attention in the associativity-reordered linear-time form.

    Computes phi(q) (phi(k)^T v) with per-row denominator phi(q) (phi(k)^T 1),
    touching no n-by-n intermediate.  Denominators below ``epsilon`` are
    reported as degenerate rather than divided through.
    """
    require_real(inputs.is_complex, "kernel attention")
    if not epsilon > 0:
        raise ValueError("epsilon must be positive")
    fq = _feature_rows(inputs.q, epsilon)
    fk = _feature_rows(inputs.k, epsilon)
    denominators = fq @ fk.sum(axis=0)
    worst = int(np.argmin(denominators))
    if denominators[worst] < epsilon:
        raise DegenerateDenominator(
            f"row {worst} denominator {denominators[worst]:.3e} is below {epsilon:.1e}"
        )
    return finite_result((fq @ (fk.T @ inputs.v)) / denominators[:, None], "kernel attention")


@dataclass(frozen=True)
class MultiHeadSpec:
    """Per-head projection weights, the output projection, and the head mechanism.

    Typical geometry is d = 512 with h = 8 heads of width 64; any conforming
    shapes are accepted.  Heads are evaluated and concatenated in order.
    """

    w_q: tuple
    w_k: tuple
    w_v: tuple
    w_o: np.ndarray
    mechanism: Callable[[AttnInputs], np.ndarray] = softmax_attention

    def __post_init__(self):
        w_q = tuple(as_matrix(w, f"w_q[{i}]") for i, w in enumerate(self.w_q))
        w_k = tuple(as_matrix(w, f"w_k[{i}]") for i, w in enumerate(self.w_k))
        w_v = tuple(as_matrix(w, f"w_v[{i}]") for i, w in enumerate(self.w_v))
        w_o = as_matrix(self.w_o, "w_o")
        if not w_q:
            raise DimensionMismatch("need at least one head")
        if not (len(w_q) == len(w_k) == len(w_v)):
            raise DimensionMismatch("w_q, w_k, w_v must list one projection per head")
        shape = w_q[0].shape
        for name, group in (("w_q", w_q), ("w_k", w_k), ("w_v", w_v)):
            for i, w in enumerate(group):
                if w.shape != shape:
                    raise DimensionMismatch(f"{name}[{i}] shape {w.shape} != {shape}")
        d, width = shape
        if width * len(w_q) != d:
            raise DimensionMismatch(
                f"model width {d} must split evenly over {len(w_q)} heads of width {width}"
            )
        if w_o.shape != (d, d):
            raise DimensionMismatch(f"w_o shape {w_o.shape} != ({d}, {d})")
        object.__setattr__(self, "w_q", w_q)
        object.__setattr__(self, "w_k", w_k)
        object.__setattr__(self, "w_v", w_v)
        object.__setattr__(self, "w_o", w_o)

    @property
    def heads(self) -> int:
        return len(self.w_q)

    @property
    def model_width(self) -> int:
        return self.w_q[0].shape[0]


def multi_head(inputs: AttnInputs, spec: MultiHeadSpec) -> np.ndarray:
    """Project per head, run the head mechanism, concatenate, project out."""
    if inputs.d != spec.model_width:
        raise DimensionMismatch(
            f"inputs have width {inputs.d}, projections expect {spec.model_width}"
        )
    if inputs.d_v != spec.model_width:
        raise DimensionMismatch(
            f"values have width {inputs.d_v}, projections expect {spec.model_width}"
        )
    heads = [
        spec.mechanism(AttnInputs(inputs.q @ wq, inputs.k @ wk, inputs.v @ wv))
        for wq, wk, wv in zip(spec.w_q, spec.w_k, spec.w_v)
    ]
    return np.hstack(heads) @ spec.w_o


def random_multi_head_spec(
    d: int,
    h: int = 8,
    seed: int = 0,
    mechanism: Callable[[AttnInputs], np.ndarray] = softmax_attention,
) -> MultiHeadSpec:
    """Uniformly initialized projections on the standard d / h head split."""
    if d % h != 0:
        raise DimensionMismatch(f"model width {d} is not divisible by {h} heads")
    rng = np.random.default_rng(seed)
    bound = 1.0 / math.sqrt(d)
    width = d // h

    def draw(rows: int, cols: int) -> np.ndarray:
        return rng.uniform(-bound, bound, (rows, cols))

    return MultiHeadSpec(
        w_q=tuple(draw(d, width) for _ in range(h)),
        w_k=tuple(draw(d, width) for _ in range(h)),
        w_v=tuple(draw(d, width) for _ in range(h)),
        w_o=draw(d, d),
        mechanism=mechanism,
    )
