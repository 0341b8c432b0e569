"""The canonical variant ids, shared by the encoder, the benchmark harness, ``verify`` and probes.

``MECHANISMS`` holds one ``Mechanism`` record per id, the one place an id is described.
A record is the id's forward function, (AttnInputs, **options) -> ndarray of shape (n, d_v):
an operator id builds one ``TensorOpConfig`` from ``side`` and ``hadamard``, for the token
and channel operators alike; the baselines take no options.  Every normalizer threshold is
a constant of the library, not an option.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .attention import AttnInputs, linear_kernel_attention, softmax_attention
from .errors import InvalidOption, UnknownOption, UnknownVariant
# The records name these implementations; each call looks its one up on this module.
from .tensor_attention import (
    _NORMALIZATIONS,
    _SIDES,
    DIAG,
    Q_SIDE,
    ROW,
    TRACE,
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


@dataclass(frozen=True)
class Mechanism:
    """One registry id: what it calls, the options it takes and how ``verify`` checks it.

    implementation  attribute name on this module, looked up at each call, never bound:
                    the benchmark's tracer replaces these attributes with timing wrappers
    oracle          its loop oracle's id for ``oracles.naive_reference``
    fixed           keyword arguments of every call, which a caller may not pass
    defaults        keyword arguments of every call, which a caller may override
    domain          flags; outside the domain a call must raise:
      plain    takes no side or flavor option (the baselines)
      real     complex inputs raise ComplexNotSupported
      product  the elementwise flavor raises ValueError (no rank-d form)
      nonneg   Q and K entrywise non-negative, so real; complex raises ComplexNotSupported
      square   d_v = d

    The oracle gets the same ``arguments`` (fixed plus defaults) as the implementation.
    """

    name: str
    implementation: str
    oracle: str
    fixed: Mapping = field(default_factory=dict)
    defaults: Mapping = field(default_factory=dict)
    domain: tuple = ()
    arguments: Mapping = field(init=False, repr=False)
    accepted: frozenset = field(init=False, repr=False)  # the option names a caller may pass

    def __post_init__(self) -> None:
        object.__setattr__(self, "arguments", {**self.fixed, **self.defaults})
        object.__setattr__(self, "accepted", frozenset(
            () if "plain" in self.domain else ("side", "hadamard", *self.defaults)))

    def check(self, options: Mapping) -> None:
        """Raise ``UnknownOption`` or ``InvalidOption`` unless this id takes every option value."""
        if not options.keys() <= self.accepted:
            option = next(str(key) for key in options if key not in self.accepted)
            accepted = tuple(sorted(self.accepted))
            raise UnknownOption(f"{self.name} takes no option {option!r}; it accepts {accepted}",
                                mechanism=self.name, option=option, accepted=accepted)
        if (side := options.get("side", Q_SIDE)) not in _SIDES:
            raise InvalidOption(f"{self.name}: side must be one of {_SIDES}, got {side!r}",
                                mechanism=self.name, option="side", accepted=_SIDES)
        if options.get("hadamard") and "product" in self.domain:
            raise InvalidOption(f"{self.name}: the elementwise flavor has no rank-d factorization",
                                mechanism=self.name, option="hadamard", accepted=("False",))
        if (normalization := options.get("normalization", TRACE)) not in _NORMALIZATIONS:
            raise InvalidOption(f"{self.name}: normalization must be one of {_NORMALIZATIONS}, "
                                f"got {normalization!r}", mechanism=self.name,
                                option="normalization", accepted=_NORMALIZATIONS)
        if "lam" in options and not _finite_non_negative(options["lam"]):
            raise InvalidOption(f"{self.name}: lam must be finite and non-negative, "
                                f"got {options['lam']!r}", mechanism=self.name, option="lam",
                                accepted=("[0, inf)",))

    def __call__(self, inputs: AttnInputs, **options) -> np.ndarray:
        if options:
            self.check(options)
        implementation = globals()[self.implementation]
        if "plain" in self.domain:
            return implementation(inputs)
        cfg = TensorOpConfig(options.pop("side", Q_SIDE), options.pop("hadamard", False))
        return implementation(inputs, cfg, **{**self.arguments, **options})


def _finite_non_negative(value) -> bool:
    try:
        return bool(0 <= value < math.inf)
    except (TypeError, ValueError):  # not a real number, or an array of them
        return False


MECHANISMS = {m.name: m for m in (
    Mechanism("softmax", "softmax_attention", "softmax", domain=("plain", "real")),
    Mechanism("kernel", "linear_kernel_attention", "kernel", domain=("plain", "real")),
    Mechanism("tensor_naive", "tensor_attention_naive", "tensor",
              defaults={"normalization": TRACE}),
    Mechanism("tensor_diag", "tensor_attention_naive", "tensor", fixed={"normalization": DIAG}),
    Mechanism("tensor_row", "tensor_attention_naive", "tensor", fixed={"normalization": ROW},
              domain=("nonneg",)),
    Mechanism("tensor_linear", "tensor_attention_linear", "tensor", domain=("product",)),
    Mechanism("tensor_relu", "tensor_attention_relu", "tensor_relu", domain=("real",)),
    Mechanism("tensor_elem_exp", "tensor_attention_elem_exp", "tensor_elem_exp", domain=("real",)),
    Mechanism("tensor_expm", "tensor_attention_expm", "tensor_expm"),
    Mechanism("tensor_masked", "tensor_attention_masked", "tensor_masked"),
    Mechanism("tensor_residual", "tensor_attention_residual", "tensor_residual",
              defaults={"lam": 0.5}, domain=("product",)),
    Mechanism("interaction", "tensor_interaction", "interaction", domain=("square",)),
)}


def variant_ids() -> tuple[str, ...]:
    return tuple(sorted(MECHANISMS))


def lookup(variant: str) -> Mechanism:
    try:
        return MECHANISMS[variant]
    except KeyError:
        raise UnknownVariant(f"unknown variant {variant!r}; expected one of {variant_ids()}",
                             variant=variant, known=variant_ids()) from None


def forward(variant: str, inputs: AttnInputs, **options) -> np.ndarray:
    return lookup(variant)(inputs, **options)
