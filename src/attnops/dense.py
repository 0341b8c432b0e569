"""Dense matrix primitives: validation, products, trace, Kronecker, vec, partial trace.

Scalars are float64 or complex128; anything else is promoted on entry.  Every
public operation validates shapes and finiteness before computing, never
mutates its operands, and keeps no global state, so values can be shared
freely across threads.

The vectorization convention is column-stacking throughout (the one that
satisfies vec(AXB) = (B^T kron A) vec(X)); the partial trace assumes the
matching basis order in which row index r of an (m*n)-dimensional operator
decodes as r = k*n + l, k indexing the first (dimension-m) factor.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch, NonFiniteInput, NotSquare

REAL = np.float64
COMPLEX = np.complex128


def as_matrix(a, name: str = "operand") -> np.ndarray:
    """Coerce ``a`` to a finite, C-contiguous 2-D float64/complex128 array."""
    arr = np.asarray(a)
    if arr.ndim != 2:
        raise DimensionMismatch(f"{name}: expected a 2-D array, got shape {arr.shape}")
    return _finite_contiguous(arr, name)


def as_vector(x, name: str = "vector") -> np.ndarray:
    """Coerce ``x`` to a finite 1-D float64/complex128 array."""
    arr = np.asarray(x)
    if arr.ndim == 2 and 1 in arr.shape:
        arr = arr.reshape(-1)
    if arr.ndim != 1:
        raise DimensionMismatch(f"{name}: expected a 1-D array, got shape {arr.shape}")
    return _finite_contiguous(arr, name)


def _finite_contiguous(arr: np.ndarray, name: str) -> np.ndarray:
    if arr.size and not np.all(np.isfinite(arr)):
        raise NonFiniteInput(f"{name} contains NaN or Inf")
    kind = COMPLEX if np.iscomplexobj(arr) else REAL
    return np.ascontiguousarray(arr, dtype=kind)


def as_square(a, name: str = "operand") -> np.ndarray:
    arr = as_matrix(a, name)
    if arr.shape[0] != arr.shape[1]:
        raise NotSquare(f"{name}: expected a square matrix, got shape {arr.shape}")
    return arr


def finite_result(out: np.ndarray, op: str) -> np.ndarray:
    """Return ``out``, or raise NonFiniteInput naming ``op`` if it holds NaN or Inf."""
    if not np.isfinite(out).all():  # the method skips np.all's dispatch; True when empty
        raise NonFiniteInput(f"{op} overflowed to non-finite values", stage=op)
    return out


def gemm(a, b, *, trans_b: bool = False) -> np.ndarray:
    """Matrix product a b, or a b^H with ``trans_b``.

    For a real ``b`` the conjugate transpose reduces to the plain transpose.
    """
    a = as_matrix(a, "a")
    b = as_matrix(b, "b")
    right = b.conj().T if trans_b else b
    if a.shape[1] != right.shape[0]:
        flagged = " (after transposition)" if trans_b else ""
        raise DimensionMismatch(
            f"inner dimensions disagree: {a.shape} x {right.shape}{flagged}"
        )
    return finite_result(a @ right, "gemm")


def trace(a):
    """Sum of the diagonal, as a Python float (or complex for complex input)."""
    a = as_square(a, "a")
    return a.trace().item()


def kron(a, b) -> np.ndarray:
    """Kronecker product: the (i, j) block of the result is a[i, j] * b."""
    a = as_matrix(a, "a")
    b = as_matrix(b, "b")
    return finite_result(np.kron(a, b), "kron")


def vectorize(a) -> np.ndarray:
    """Column-stack ``a`` into a (rows*cols, 1) column vector."""
    a = as_matrix(a, "a")
    return a.reshape(-1, 1, order="F")


def partial_trace(t, dim_v: int, dim_w: int, trace_out: str = "w") -> np.ndarray:
    """Contract an operator on a (dim_v * dim_w)-dimensional product space over one factor.

    Row index r of ``t`` decodes as r = k*dim_w + l with k indexing the first
    factor and l the second.  ``trace_out="w"`` sums out the second factor and
    returns a dim_v x dim_v matrix with entries sum_j t[k*dim_w + j, i*dim_w + j];
    ``trace_out="v"`` symmetrically returns a dim_w x dim_w matrix with entries
    sum_i t[i*dim_w + l, i*dim_w + j].  Either way the full trace is preserved.
    """
    t = as_matrix(t, "t")
    if dim_v < 1 or dim_w < 1:
        raise DimensionMismatch(f"factor dimensions must be positive, got {dim_v}, {dim_w}")
    side = dim_v * dim_w
    if t.shape != (side, side):
        raise DimensionMismatch(
            f"operand shape {t.shape} is not ({dim_v}*{dim_w}, {dim_v}*{dim_w})"
        )
    blocks = t.reshape(dim_v, dim_w, dim_v, dim_w)
    if trace_out == "w":
        return np.ascontiguousarray(np.einsum("kjij->ki", blocks))
    if trace_out == "v":
        return np.ascontiguousarray(np.einsum("ilij->lj", blocks))
    raise ValueError(f"trace_out must be 'w' or 'v', got {trace_out!r}")
