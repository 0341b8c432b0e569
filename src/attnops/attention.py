"""Baseline attention mechanisms: softmax and linear-time normalized-dot kernel.

These are the reference points the operator-based mechanisms are compared
against.  All functions are pure; ``AttnInputs`` instances are immutable and
safe to share.  Kernel row sums go through ``dense.checked_normalizer``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dense import as_matrix, checked_normalizer, finite_result
from .errors import ComplexNotSupported, DimensionMismatch

KERNEL_EPSILON = 1e-12  # floor on feature-row norms


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
        raise ComplexNotSupported(f"{what} is defined for real inputs only", operation=what)


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
    close to exp near zero.  A row whose squares overflow (|x| above ~1e154) is
    mapped again from x / 2^e, 2^e just above its largest magnitude; that is
    exact, so the row gets the bytes of any in-range power-of-two rescaling of
    it.  The first pass's overflow RuntimeWarning still shows.
    """
    norms = np.linalg.norm(m, axis=1, keepdims=True)
    if not math.isfinite(norms.sum()):
        bad = ~np.isfinite(norms[:, 0])
        m = m.copy()
        m[bad] = np.ldexp(m[bad], -np.frexp(np.abs(m[bad]).max(axis=1, keepdims=True))[1])
        norms[bad] = np.linalg.norm(m[bad], axis=1, keepdims=True)
    rows = np.empty((m.shape[0], m.shape[1] + 1))
    rows[:, 0] = 1.0
    np.divide(m, np.maximum(norms, KERNEL_EPSILON), out=rows[:, 1:])
    return rows


def linear_kernel_attention(inputs: AttnInputs) -> np.ndarray:
    """Kernelized attention in the associativity-reordered linear-time form.

    Computes phi(q) (phi(k)^T v) divided by the row sums phi(q) (phi(k)^T 1),
    touching no n-by-n intermediate.  A row sum below 1e-12 * n raises
    DegenerateNormalizer named ``"kernel row sum"`` rather than being divided.
    """
    require_real(inputs.is_complex, "kernel attention")
    fq = _feature_rows(inputs.q)
    fk = _feature_rows(inputs.k)
    sums = checked_normalizer(fq @ fk.sum(axis=0), inputs.n, "kernel row sum")
    out = fq @ (fk.T @ inputs.v)
    return finite_result(np.divide(out, sums[:, None], out=out), "kernel attention")
