"""Baseline attention mechanisms: softmax and linear-time normalized-dot kernel.

These are the reference points the operator-based mechanisms are compared
against.  All functions are pure; ``AttnInputs`` instances are immutable and
safe to share.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dense import as_matrix, finite_result
from .errors import ComplexNotSupported, DegenerateDenominator, DimensionMismatch

KERNEL_EPSILON = 1e-12


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
        if v.shape[1] < 1:
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
    """Validate q and k as non-empty matrices of one shape, promoted to a common scalar kind."""
    shared = k is q
    q = as_matrix(q, "q")
    k = q if shared else as_matrix(k, "k")
    if q.shape != k.shape:
        raise DimensionMismatch(f"q {q.shape} and k {k.shape} must share both dimensions")
    if not q.size:
        raise DimensionMismatch("need at least one token, one feature, one value column")
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


def _feature_rows(m: np.ndarray) -> np.ndarray:
    """Map each row x to [1, x / max(||x||, KERNEL_EPSILON)]; a zero row keeps only the 1.

    Inner products of mapped rows are 1 + cosine similarity, non-negative and
    close to exp near zero.
    """
    norms = np.linalg.norm(m, axis=1, keepdims=True)
    return np.hstack([np.ones((m.shape[0], 1)), m / np.maximum(norms, KERNEL_EPSILON)])


def linear_kernel_attention(inputs: AttnInputs) -> np.ndarray:
    """Kernelized attention in the associativity-reordered linear-time form.

    Computes phi(q) (phi(k)^T v) with per-row denominator phi(q) (phi(k)^T 1),
    touching no n-by-n intermediate.  Denominators below ``KERNEL_EPSILON``
    are reported as degenerate rather than divided through.
    """
    require_real(inputs.is_complex, "kernel attention")
    fq = _feature_rows(inputs.q)
    fk = _feature_rows(inputs.k)
    denominators = fq @ fk.sum(axis=0)
    worst = int(np.argmin(denominators))
    if denominators[worst] < KERNEL_EPSILON:
        raise DegenerateDenominator(
            f"row {worst} denominator {denominators[worst]:.3e} is below {KERNEL_EPSILON:.1e}",
            value=float(denominators[worst]), threshold=KERNEL_EPSILON, row=worst,
        )
    return finite_result((fq @ (fk.T @ inputs.v)) / denominators[:, None], "kernel attention")
