"""Canonical variant ids shared by the encoder, the benchmark harness, and probes.

Every entry maps a string id to a forward function (AttnInputs, **options) ->
ndarray of shape (n, d_v).  The operator entries build one ``TensorOpConfig``
from the ``side`` and ``hadamard`` options, for the token and the channel
operators alike, and forward every other option (``lam``, ``normalization``)
to the implementation, which rejects one it does not take.  The baselines
take no options.  Every normalizer threshold is a constant of the library.
"""

from __future__ import annotations

import numpy as np

from .attention import AttnInputs, linear_kernel_attention, softmax_attention
from .errors import UnknownVariant
# The implementations are looked up by name in VARIANTS, see below.
from .tensor_attention import (
    DIAG,
    Q_SIDE,
    ROW,
    TensorOpConfig,
    tensor_attention_elem_exp,
    tensor_attention_expm,
    tensor_attention_linear,
    tensor_attention_masked,
    tensor_attention_naive,
    tensor_attention_relu,
    tensor_attention_residual,
)
from .tensor_interaction import tensor_interaction


def _operator(name: str, *fixed, **defaults):
    """The entry that calls the operator mechanism ``name`` with the caller's config.

    As with ``functools.partial``, a caller who passes a ``fixed`` argument
    again gets a TypeError, and a caller's option overrides a keyword default.
    """

    def run(inputs: AttnInputs, side=Q_SIDE, hadamard=False, **options):
        cfg = TensorOpConfig(side=side, hadamard=hadamard)
        return globals()[name](inputs, cfg, *fixed, **{**defaults, **options})

    return run


# Every entry looks its implementation up on this module when it is called,
# never binding the function object: the benchmark's tracer replaces these
# module attributes with timing wrappers and must see every call.
VARIANTS = {
    "softmax": lambda inputs: softmax_attention(inputs),
    "kernel": lambda inputs: linear_kernel_attention(inputs),
    "tensor_naive": _operator("tensor_attention_naive"),
    "tensor_diag": _operator("tensor_attention_naive", DIAG),
    "tensor_row": _operator("tensor_attention_naive", ROW),
    "tensor_linear": _operator("tensor_attention_linear"),
    "tensor_relu": _operator("tensor_attention_relu"),
    "tensor_elem_exp": _operator("tensor_attention_elem_exp"),
    "tensor_expm": _operator("tensor_attention_expm"),
    "tensor_masked": _operator("tensor_attention_masked"),
    "tensor_residual": _operator("tensor_attention_residual", lam=0.5),
    "interaction": _operator("tensor_interaction"),
}


def variant_ids() -> tuple[str, ...]:
    return tuple(sorted(VARIANTS))


def forward(variant: str, inputs: AttnInputs, **options) -> np.ndarray:
    try:
        fn = VARIANTS[variant]
    except KeyError:
        raise UnknownVariant(
            f"unknown variant {variant!r}; expected one of {variant_ids()}"
        ) from None
    return fn(inputs, **options)
