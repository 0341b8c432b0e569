"""Channel-space analogue of the token operator: a d-by-d coupling applied to v^T.

The coupling B = Q^H K lives in feature space, so the operator size is
independent of the token count: growing the sequence only refines the d-by-d
statistics.  Training cost is linear in n and applying a cached operator is
constant in n, which is the practical point of this mechanism.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .attention import AttnInputs, conform_pair
from .dense import finite_result
from .errors import DvMismatch
from .tensor_attention import K_SIDE, Q_SIDE, checked_normalizer, flavored_product

AS_WRITTEN_DXN = "dxn"
TRANSPOSED_NXD = "nxd"

_SIDES = (Q_SIDE, K_SIDE)
_ORIENTATIONS = (AS_WRITTEN_DXN, TRANSPOSED_NXD)


@dataclass(frozen=True)
class InteractionConfig:
    """Operator flavor and output orientation.

    The raw product is d-by-n; the default orientation transposes it back to
    n-by-d so the mechanism is drop-in comparable with the token-space ones.
    """

    side: str = Q_SIDE
    hadamard: bool = False
    orientation: str = TRANSPOSED_NXD
    trace_epsilon: float | None = None

    def __post_init__(self):
        if self.side not in _SIDES:
            raise ValueError(f"side must be one of {_SIDES}, got {self.side!r}")
        if self.orientation not in _ORIENTATIONS:
            raise ValueError(
                f"orientation must be one of {_ORIENTATIONS}, got {self.orientation!r}"
            )
        if self.trace_epsilon is not None and not self.trace_epsilon > 0:
            raise ValueError("trace_epsilon must be positive")

    def epsilon(self, d: int) -> float:
        return self.trace_epsilon if self.trace_epsilon is not None else 1e-12 * d


def coupling_matrix(q, k) -> np.ndarray:
    """B = Q^H K, the d-by-d channel coupling."""
    q, k = conform_pair(q, k)
    return q.conj().T @ k


def build_interaction_operator(
    q, k, cfg: InteractionConfig = InteractionConfig()
) -> np.ndarray:
    """d-by-d operator: B B^H (query side), B^H B (key side), or the elementwise flavor.

    Hermitian with a real non-negative diagonal in every flavor; the product
    flavors are PSD with trace equal to the squared Frobenius norm of B.
    """
    return flavored_product(coupling_matrix(q, k), cfg.side, cfg.hadamard)


def interaction_trace(q, k) -> float:
    """tr of the product-flavor operator: the squared Frobenius norm of Q^H K."""
    b = coupling_matrix(q, k)
    return float(np.sum(np.abs(b) ** 2))


def tensor_interaction(
    inputs: AttnInputs, cfg: InteractionConfig = InteractionConfig()
) -> np.ndarray:
    """Apply the trace-normalized channel operator to v^T.

    Requires square values (d_v = d) since the operator left-multiplies v^T.
    Returns d-by-n as written, or n-by-d under the default orientation.
    """
    if inputs.d_v != inputs.d:
        raise DvMismatch(
            f"value width {inputs.d_v} must equal model width {inputs.d} for this mechanism"
        )
    t = build_interaction_operator(inputs.q, inputs.k, cfg)
    total = checked_normalizer(float(np.real(np.trace(t))), cfg.epsilon(t.shape[0]))
    as_written = finite_result((t @ inputs.v.T) / total, "tensor interaction")
    if cfg.orientation == AS_WRITTEN_DXN:
        return as_written
    return np.ascontiguousarray(as_written.T)
