"""Channel-space analogue of the token operator: a d-by-d coupling applied to v^T.

The coupling B = Q^H K lives in feature space, so the operator size is
independent of the token count: growing the sequence only refines the d-by-d
statistics.  Training cost is linear in n and applying a cached operator is
constant in n, which is the practical point of this mechanism.

The same ``TensorOpConfig`` as the token operator's picks the flavor, the
trace goes through the token operator's ``checked_normalizer`` (threshold
1e-12 * d), and the output is n-by-d, as there.
"""

from __future__ import annotations

import numpy as np

from .attention import AttnInputs, conform_pair
from .dense import finite_result
from .errors import DvMismatch
from .tensor_attention import TensorOpConfig, checked_normalizer, flavored_product


def coupling_matrix(q, k) -> np.ndarray:
    """B = Q^H K, the d-by-d channel coupling."""
    q, k = conform_pair(q, k)
    return q.conj().T @ k


def build_interaction_operator(q, k, cfg: TensorOpConfig = TensorOpConfig()) -> np.ndarray:
    """d-by-d operator: B B^H (query side), B^H B (key side), or the elementwise flavor.

    Hermitian with a real non-negative diagonal in every flavor; the product
    flavors are PSD with trace equal to the squared Frobenius norm of B.
    """
    return flavored_product(coupling_matrix(q, k), cfg.side, cfg.hadamard)


def interaction_trace(q, k) -> float:
    """tr of the product-flavor operator: the squared Frobenius norm of Q^H K."""
    return float(np.sum(np.abs(coupling_matrix(q, k)) ** 2))


def tensor_interaction(inputs: AttnInputs, cfg: TensorOpConfig = TensorOpConfig()) -> np.ndarray:
    """Apply the trace-normalized channel operator to v^T and return the n-by-d transpose.

    Requires square values (d_v = d) since the operator left-multiplies v^T.
    """
    if inputs.d_v != inputs.d:
        raise DvMismatch(
            f"value width {inputs.d_v} must equal model width {inputs.d} for this mechanism"
        )
    t = build_interaction_operator(inputs.q, inputs.k, cfg)
    total = checked_normalizer(float(np.real(np.trace(t))), inputs.d)
    as_written = finite_result((t @ inputs.v.T) / total, "tensor interaction")
    return np.ascontiguousarray(as_written.T)
