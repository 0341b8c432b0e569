"""Attention through trace-normalized positive semi-definite token operators.

The n-by-n token operator is built from the score matrix A = Q K^H: the query
side uses A A^H, the key side A^H A, and the elementwise flavor multiplies A
against its conjugate transpose entry by entry.  All flavors are Hermitian
with real non-negative diagonals; the two product flavors are PSD and share
the same trace, which equals both the squared Frobenius norm of A and
sum((K^H K) o (Q^H Q)^T).  The last identity is what the linear-time path
exploits: it rebrackets T V as Q ((K^H K)(Q^H V)) so that no n-by-n matrix is
ever materialized.

``FactoredOperator`` holds a product-flavor operator in that factored form,
T = W G W^H, of rank at most d.  Every product-flavor variant is evaluated
from it:

- ``tensor_linear`` and ``tensor_residual`` apply it in O(n d^2);
- ``tensor_masked`` applies tril(T) by a chunked prefix scan in O(n c d),
  with c = ``_SCAN_BLOCK_ROWS``, never forming an n-by-n array;
- ``tensor_expm`` applies expm(T / tr T) in O(n d^2 + d^3) through the
  d-by-d Hermitian B^H B, where T = B B^H, and its ``eigh``;
- ``tensor_naive``/``diag``/``row`` and ``tensor_relu``/``tensor_elem_exp``
  materialize T, at O(n^2 d) from the factors (``materialize``), and then
  pay O(n^2 d_v) to apply it.

The elementwise flavor has no rank-d form (its exact factorization has rank
d^2), so it is built from the n-by-n score matrix at O(n^2 d) and every
variant applies it materialized; ``tensor_linear`` and ``tensor_residual``
reject it.  Every variant takes ``(inputs, cfg, ...)``, where
``TensorOpConfig`` is the one operator config, shared with the channel
operator of ``tensor_interaction``; only ``tensor_naive`` and
``normalized_tensor_operator`` take a ``normalization`` (trace, diag or row).
Every trace, diagonal and row-sum normalizer goes through
``dense.checked_normalizer``, which holds the one threshold, 1e-12 times the
operator's order, and ``dense.divide_in_place`` divides the fresh result by
it.  Every n-row product W^H X (the Gram, W^H v, and B^H B and B^H v of the
exponential) is ``dense.adjoint_product``: ``a.T @ b`` for real operands, and
one float64 product of the interleaved views for complex ones, so a complex
Gram is a real ``syrk``, exactly Hermitian, with no conjugate copy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .attention import AttnInputs, conform_pair, require_real
from .dense import adjoint_product, checked_normalizer, divide_in_place, finite_result

Q_SIDE = "q"
K_SIDE = "k"
TRACE = "trace"
DIAG = "diag"
ROW = "row"

_SIDES = (Q_SIDE, K_SIDE)
_NORMALIZATIONS = (TRACE, DIAG, ROW)


@dataclass(frozen=True)
class TensorOpConfig:
    """Which operator flavor to build, in token space (n-by-n) or channel space (d-by-d)."""

    side: str = Q_SIDE
    hadamard: bool = False

    def __post_init__(self):
        if self.side not in _SIDES:
            raise ValueError(f"side must be one of {_SIDES}, got {self.side!r}")


# Row-block size for the fast diagonal: keeps the per-block Gram product in
# cache so the kernel stays memory-resident as n grows.
_DIAG_BLOCK_ROWS = 1024
# Row-block size of the causal prefix scan: each block pays a c-by-c masked
# product, so c trades that quadratic work against per-block Python overhead.
_SCAN_BLOCK_ROWS = 128


@dataclass(frozen=True)
class FactoredOperator:
    """A product-flavor token operator held as T = W G W^H; only ``materialize`` forms T.

    Query side: W = Q and G = K^H K, so T = A A^H with A = Q K^H; the key
    side swaps the roles of Q and K, giving A^H A.  The rank is at most d,
    and the action, trace, diagonal and exponential each cost O(n d^2), the
    exponential plus O(d^3); ``materialize`` costs O(n^2 d).

    For self-attention (q is k) G is also W^H W; ``of`` records that, and
    ``trace`` and ``apply(w)`` reuse G instead of forming that product again.
    """

    w: np.ndarray
    gram: np.ndarray
    _self_gram: bool = field(default=False, init=False, repr=False)

    @classmethod
    def of(
        cls, q: np.ndarray, k: np.ndarray, cfg: TensorOpConfig = TensorOpConfig()
    ) -> FactoredOperator:
        """Factor q and k, as ``conform_pair`` returns them, for a product flavor.

        An overflowed Gram raises NonFiniteInput before any path (or LAPACK) sees it."""
        if cfg.hadamard:
            raise ValueError("the elementwise flavor has no rank-d factorization")
        w, other = (q, k) if cfg.side == Q_SIDE else (k, q)
        with np.errstate(over="ignore", invalid="ignore"):  # finite_result reports overflow
            gram = adjoint_product(other, other)
        op = cls(w, finite_result(gram, "Gram matrix"))
        object.__setattr__(op, "_self_gram", other is w)
        return op

    def apply(self, v: np.ndarray) -> np.ndarray:
        """T v, evaluated as W (G (W^H v)) so that every intermediate is d wide."""
        projected = self.gram if self._self_gram and v is self.w else adjoint_product(self.w, v)
        return self.w @ (self.gram @ projected)

    def trace(self) -> float:
        """tr(T) = sum(G o (W^H W)^T), the same on both sides."""
        w_gram = self.gram if self._self_gram else adjoint_product(self.w, self.w)
        return float(np.real(np.sum(self.gram * w_gram.T)))

    def diag(self) -> np.ndarray:
        """The diagonal, a block of rows at a time and clamped at zero; see ``diag_fast``."""
        n = self.w.shape[0]
        out = np.empty(n)
        for start in range(0, n, _DIAG_BLOCK_ROWS):
            piece = self.w[start : start + _DIAG_BLOCK_ROWS]
            out[start : start + _DIAG_BLOCK_ROWS] = np.einsum(
                "ij,ij->i", piece @ self.gram, piece.conj()
            ).real
        return np.maximum(out, 0.0)

    def materialize(self) -> np.ndarray:
        """The n-by-n operator as (W G) W^H, with its diagonal made real and clamped at zero.

        In exact arithmetic each diagonal entry is a sum of squared magnitudes;
        the clamp makes the stored diagonal exactly real and non-negative, as
        ``diag`` does, which a bare product does not guarantee.
        """
        t = (self.w @ self.gram) @ self.w.conj().T
        np.fill_diagonal(t, np.maximum(t.diagonal().real, 0.0))
        return t

    def causal_apply(self, v: np.ndarray) -> np.ndarray:
        """tril(T) v by a prefix scan over blocks of ``_SCAN_BLOCK_ROWS`` rows.

        With U = W G, block b gets tril(U_b W_b^H) V_b from its own rows plus
        U_b S, where S is the running sum of W_j^H V_j over earlier blocks
        (the recurrent form of causal linear attention).  No n-by-n array is
        formed.
        """
        u = self.w @ self.gram
        w_h = self.w.conj().T
        n, c = u.shape[0], _SCAN_BLOCK_ROWS
        lower = np.tri(min(n, c), dtype=bool)  # np.tril would rebuild this mask per block
        out = np.empty((n, v.shape[1]), dtype=np.result_type(u, v))
        state = 0
        for start in range(0, n, c):
            rows = slice(start, start + c)
            m = min(c, n - start)
            block = np.where(lower[:m, :m], u[rows] @ w_h[:, rows], 0) @ v[rows]
            if start:
                block += u[rows] @ state
            out[rows] = block
            if start + c < n:
                state = state + w_h[:, rows] @ v[rows]
        return out

    def expm_apply(self, v: np.ndarray) -> np.ndarray:
        """expm(T / tau) v, tau = tr T, as v + B U diag(phi_1(mu)) U^H B^H v / tau.

        T = B B^H with B = W L, where G = L L^H is the Cholesky factorization,
        or, for a singular G (as at n < d), comes from G's clamped ``eigh``
        spectrum.  ``eigh`` gives H / tau = U diag(mu) U^H for H = B^H B, whose
        trace is tau, so mu lies in [0, 1] and phi_1(z) = (e^z - 1) / z needs no
        scaling, squaring or denominator.  L is divided by the powers of two just
        above the largest entries of W and L: exact, and B^H v then overflows
        only if v nearly does.  tau is scaled back in Python floats (inf, never a
        warning, on overflow) for ``checked_normalizer``.
        """
        try:
            factor = np.linalg.cholesky(self.gram)
        except np.linalg.LinAlgError:  # singular G, as at n < d: use its clamped spectrum
            lam, vecs = np.linalg.eigh(self.gram)
            factor = vecs * np.sqrt(np.maximum(lam, 0.0))
        shift = sum(math.frexp(np.max(np.abs(m)))[1] for m in (self.w, factor))
        shift = min(max(shift, -1022), 1023)  # keeps 2.0 ** +-shift finite
        b = self.w @ (factor * 2.0**-shift)
        h = adjoint_product(b, b)
        tau = float(np.trace(h).real)
        checked_normalizer(tau * 2.0**shift * 2.0**shift, self.w.shape[0])
        mu, u = np.linalg.eigh(h / tau)
        phi = np.divide(np.expm1(mu), mu, out=np.ones_like(mu), where=mu != 0)
        return v + b @ (u @ ((phi / tau)[:, None] * (u.conj().T @ adjoint_product(b, v))))


def flavored_product(m: np.ndarray, side: str, hadamard: bool) -> np.ndarray:
    """M o conj(M)^T (elementwise flavor), M M^H (query side) or M^H M (key side)."""
    if hadamard:
        return m * m.conj().T
    if side == Q_SIDE:
        return m @ m.conj().T
    return m.conj().T @ m


def score_matrix(q, k) -> np.ndarray:
    """A = Q K^H (plain transpose for real inputs)."""
    q, k = conform_pair(q, k)
    return q @ k.conj().T


def build_tensor_operator(q, k, cfg: TensorOpConfig = TensorOpConfig()) -> np.ndarray:
    """Materialize the n-by-n token operator for the configured flavor.

    The product flavors are built from their rank-d factors in O(n^2 d); see
    ``FactoredOperator.materialize``.  The elementwise flavor computes entries
    A[i, j] * conj(A[j, i]) from the score matrix; its two sides coincide, so
    ``cfg.side`` only matters for the product flavors.
    """
    if cfg.hadamard:
        return flavored_product(score_matrix(q, k), cfg.side, True)
    return FactoredOperator.of(*conform_pair(q, k), cfg).materialize()


def operator_trace(q, k) -> float:
    """tr of the product-flavor operator, via the d-by-d Hadamard-sum identity.

    Costs O(n d^2) and is the same for both sides: tr(A A^H) = tr(A^H A)
    = sum((K^H K) o (Q^H Q)^T), real and non-negative.
    """
    return FactoredOperator.of(*conform_pair(q, k)).trace()


def diag_fast(q, k, side: str = Q_SIDE) -> np.ndarray:
    """Diagonal of the product-flavor operator in O(n d^2).

    Query side: out[i] = sum_{k,l} Q[i,k] conj(Q[i,l]) (K^H K)[k,l], computed
    by dotting rows of Q (K^H K) against rows of conj(Q), block of rows at a
    time; key side swaps the roles.  Entries are clamped at zero, since in
    exact arithmetic each one is a sum of squared magnitudes.
    """
    return FactoredOperator.of(*conform_pair(q, k), TensorOpConfig(side=side)).diag()


def normalized_tensor_operator(
    q, k, cfg: TensorOpConfig = TensorOpConfig(), normalization: str = TRACE
) -> np.ndarray:
    """Materialized operator with ``normalization`` applied.

    Trace mode divides by tr(T); diag mode divides row i by T[i, i]; row mode
    divides row i by the row sum (T 1)[i], so a non-negative operator becomes
    row-stochastic.  Row mode orders row sums and is real-only.
    """
    if normalization not in _NORMALIZATIONS:
        raise ValueError(f"normalization must be one of {_NORMALIZATIONS}, got {normalization!r}")
    if normalization == TRACE:
        return divide_in_place(*_operator_and_trace(q, k, cfg))
    if normalization == ROW:
        require_real(np.iscomplexobj(q) or np.iscomplexobj(k), "row normalization")
    t = build_tensor_operator(q, k, cfg)
    n = t.shape[0]
    if normalization == DIAG:
        rows = checked_normalizer(t.diagonal().real.copy(), n, "diagonal entry")  # t is divided
    else:
        rows = checked_normalizer(t.sum(axis=1), n, "row sum")
    return divide_in_place(t, rows[:, None])


def tensor_attention_naive(
    inputs: AttnInputs, cfg: TensorOpConfig = TensorOpConfig(), normalization: str = TRACE
) -> np.ndarray:
    """Materialize the normalized operator (O(n^2) memory) and apply it to v."""
    out = normalized_tensor_operator(inputs.q, inputs.k, cfg, normalization) @ inputs.v
    return finite_result(out, "materialized tensor attention")


def tensor_attention_linear(inputs: AttnInputs, cfg: TensorOpConfig = TensorOpConfig()) -> np.ndarray:
    """Trace-normalized tensor attention without materializing any n-by-n matrix.

    Fixed evaluation order: the d-by-d key Gram matrix, then the d-by-d_v
    projected values, then the single n-by-d product, scaled by the reciprocal
    of the Hadamard-sum trace.  Equal to the materialized trace-normalized
    path up to roundoff.  Product flavors only, as for ``tensor_residual``.
    """
    op, total = _factored_and_trace(inputs, cfg)
    return finite_result(divide_in_place(op.apply(inputs.v), total), "linear tensor attention")


def tensor_attention_relu(inputs: AttnInputs, cfg: TensorOpConfig = TensorOpConfig()) -> np.ndarray:
    """Clamp the materialized operator at zero, then trace-normalize and apply.

    The normalizer is the trace of the unclamped operator; clamping cannot
    change it because the diagonal is non-negative.  Real inputs only.  This
    variant stays materializing: the entrywise clamp has no exact low-rank
    form, so the product flavors pay O(n^2 d) to build T and O(n^2 d_v) to
    apply it.
    """
    require_real(inputs.is_complex, "relu tensor attention")
    t, total = _operator_and_trace(inputs.q, inputs.k, cfg)
    out = divide_in_place(np.maximum(t, 0.0) @ inputs.v, total)
    return finite_result(out, "relu tensor attention")


def tensor_attention_elem_exp(
    inputs: AttnInputs, cfg: TensorOpConfig = TensorOpConfig()
) -> np.ndarray:
    """Exponentiate the trace-normalized operator entry by entry, then apply.

    This variant stays materializing: the entrywise exponential has no exact
    low-rank form, so it pays O(n^2 d) to build T and O(n^2 d_v) to apply it.
    """
    require_real(inputs.is_complex, "elementwise-exp tensor attention")
    t, total = _operator_and_trace(inputs.q, inputs.k, cfg)
    return finite_result(np.exp(divide_in_place(t, total)) @ inputs.v, "elementwise exponential")


def tensor_attention_expm(inputs: AttnInputs, cfg: TensorOpConfig = TensorOpConfig()) -> np.ndarray:
    """Apply the matrix exponential of the trace-normalized operator to v.

    T / tr T is Hermitian, so both flavors go through ``eigh``.  The product
    flavors never form T (``FactoredOperator.expm_apply``, O(n d^2 + d^3));
    the elementwise flavor gives V (e^lambda o (V^H v)) from ``eigh`` of the
    materialized operator, O(n^3).
    """
    if cfg.hadamard:
        t, total = _operator_and_trace(inputs.q, inputs.k, cfg)
        lam, vecs = np.linalg.eigh(finite_result(divide_in_place(t, total), "normalized operator"))
        with np.errstate(over="ignore", invalid="ignore"):  # finite_result reports overflow
            out = vecs @ (np.exp(lam)[:, None] * (vecs.conj().T @ inputs.v))
    else:
        out = FactoredOperator.of(inputs.q, inputs.k, cfg).expm_apply(inputs.v)
    return finite_result(out, "matrix-exponential tensor attention")


def tensor_attention_masked(
    inputs: AttnInputs, cfg: TensorOpConfig = TensorOpConfig()
) -> np.ndarray:
    """Keep only the lower triangle (diagonal included) before applying.

    Token i attends to tokens j <= i.  The trace normalizer is unchanged by
    the mask since the diagonal survives it.  The product flavors run a
    prefix scan over the factors (``FactoredOperator.causal_apply``), O(n c d)
    with no n-by-n array; the elementwise flavor masks the materialized
    operator.
    """
    if cfg.hadamard:
        t, total = _operator_and_trace(inputs.q, inputs.k, cfg)
        out = np.tril(t) @ inputs.v
    else:
        op, total = _factored_and_trace(inputs, cfg)
        out = op.causal_apply(inputs.v)
    return finite_result(divide_in_place(out, total), "masked tensor attention")


def tensor_attention_residual(
    inputs: AttnInputs,
    cfg: TensorOpConfig = TensorOpConfig(),
    lam: float = 0.0,
) -> np.ndarray:
    """(T + lam * tr(T) * I) v, evaluated in the factorized linear-time form.

    Unnormalized by design, so large inputs can overflow; that raises
    NonFiniteInput.  The factorization used is the rank-d one of the product
    flavors.  The elementwise flavor is rejected: it does factor,
    but only at rank d^2 (Khatri-Rao rows q_i kron k_i), which this path does
    not build.
    """
    if not 0 <= lam < np.inf:
        raise ValueError("lam must be finite and non-negative")
    op = FactoredOperator.of(inputs.q, inputs.k, cfg)
    out = op.apply(inputs.v)
    if lam:
        out += lam * op.trace() * inputs.v
    return finite_result(out, "residual tensor attention")


def _operator_and_trace(q, k, cfg: TensorOpConfig) -> tuple[np.ndarray, float]:
    """The materialized operator and its guarded trace normalizer."""
    t = build_tensor_operator(q, k, cfg)
    return t, checked_normalizer(float(np.real(np.trace(t))), t.shape[0])


def _factored_and_trace(inputs: AttnInputs, cfg: TensorOpConfig) -> tuple[FactoredOperator, float]:
    """The product-flavor operator in factored form and its guarded trace normalizer."""
    op = FactoredOperator.of(inputs.q, inputs.k, cfg)
    return op, checked_normalizer(op.trace(), inputs.n)
