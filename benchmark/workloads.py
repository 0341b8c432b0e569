"""The benchmark's workloads: mechanisms, cells, set-up and the measured loop.

A *cell* is one combination of mechanism, token count and dtype; an *op* is
one pass over a workload's cells in a fixed order, so every cell is timed
once per op and slow drift on the machine spreads over all cells alike.

The library only ever receives arrays: the workload seed picks the inputs
that ``attnops.synth`` and ``attnops.vit.vit_init`` generate during set-up.
Every call goes through a module attribute (``registry.forward``,
``vit.vit_forward``, ...) looked up at call time, so the traced run can
replace those attributes with timing wrappers.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Mapping

import numpy as np

from attnops import bench, registry, synth, vit
from attnops.attention import AttnInputs
from attnops.bench import array_checksum
from attnops.errors import AttnOpsError

# Oracle id for the diagonal targets, which have no entry in naive_reference.
DIAGONAL = "diagonal"

_REGISTRY_IDS = frozenset(registry.variant_ids())


@dataclass(frozen=True)
class Mechanism:
    """One way of calling the library, with the oracle that checks it.

    ``target`` is a registry id or a ``bench_targets()`` id; ``options`` are
    forwarded to it.  ``oracle``/``oracle_options`` name the matching
    ``attnops.oracles.naive_reference`` entry, whose ids differ from the
    registry's.
    """

    label: str
    target: str
    oracle: str
    options: Mapping = field(default_factory=dict)
    oracle_options: Mapping = field(default_factory=dict)
    complex_: bool = False
    nonneg: bool = False

    def inputs(self, n: int, d: int, seed: int) -> AttnInputs:
        inputs = synth.random_inputs(n, d, seed=seed, complex_=self.complex_)
        if self.nonneg:
            inputs = AttnInputs(np.abs(inputs.q), np.abs(inputs.k), inputs.v)
        return inputs

    def __call__(self, inputs: AttnInputs) -> np.ndarray:
        if self.target in _REGISTRY_IDS:
            return registry.forward(self.target, inputs, **self.options)
        return bench.bench_targets()[self.target](inputs)


MECHANISMS = {
    m.label: m
    for m in (
        Mechanism("softmax", "softmax", "softmax"),
        Mechanism("kernel", "kernel", "kernel"),
        Mechanism("tensor_naive", "tensor_naive", "tensor"),
        Mechanism("tensor_naive.hadamard", "tensor_naive", "tensor",
                  {"hadamard": True}, {"hadamard": True}),
        Mechanism("tensor_naive.c128", "tensor_naive", "tensor", complex_=True),
        Mechanism("tensor_diag", "tensor_diag", "tensor", oracle_options={"normalization": "diag"}),
        # Row normalization needs positive row sums.  On signed Gaussian Q and K
        # some row sum is negative and every call raises DegenerateNormalizer,
        # which is the documented domain of the mode, so Q and K are made
        # entrywise non-negative here.
        Mechanism("tensor_row", "tensor_row", "tensor",
                  oracle_options={"normalization": "row"}, nonneg=True),
        Mechanism("tensor_linear", "tensor_linear", "tensor"),
        Mechanism("tensor_linear.c128", "tensor_linear", "tensor", complex_=True),
        Mechanism("tensor_relu", "tensor_relu", "tensor_relu"),
        Mechanism("tensor_elem_exp", "tensor_elem_exp", "tensor_elem_exp"),
        Mechanism("tensor_expm", "tensor_expm", "tensor_expm"),
        Mechanism("tensor_masked", "tensor_masked", "tensor_masked"),
        # The registry defaults lam to 0.5 and the oracle to 0.0, so pass it to both.
        Mechanism("tensor_residual", "tensor_residual", "tensor_residual",
                  {"lam": 0.5}, {"lam": 0.5}),
        Mechanism("interaction", "interaction", "interaction"),
        Mechanism("diag_fast", "diag_fast", DIAGONAL),
        Mechanism("diag_naive", "diag_naive", DIAGONAL),
    )
}


@dataclass(frozen=True)
class Cell:
    name: str
    n: int
    seed: int
    mechanism: Mechanism
    run: Callable[[], np.ndarray]


@dataclass(frozen=True)
class EncoderShape:
    n_patches: int
    patch_dim: int
    width: int
    hidden: int
    depth: int


ENCODER_LONG = EncoderShape(n_patches=4096, patch_dim=48, width=64, hidden=256, depth=4)
ENCODER_SHORT = EncoderShape(n_patches=64, patch_dim=16, width=32, hidden=128, depth=2)
# Every registry mixer except tensor_row, whose row sums go negative on
# layer-normed tokens (see MECHANISMS).
SHORT_MIXERS = (
    "softmax", "kernel", "tensor_naive", "tensor_diag", "tensor_linear", "tensor_relu",
    "tensor_elem_exp", "tensor_expm", "tensor_masked", "tensor_residual", "interaction",
)

SWEEP_D = 32
# (mechanisms, (n, 2n)); the materializing and expm sizes keep one pass near
# 0.2 s so that a run holds the hundred ops its 90th percentile needs.
SWEEP = (
    (("softmax", "tensor_naive", "tensor_naive.hadamard", "tensor_diag", "tensor_row",
      "tensor_relu", "tensor_elem_exp", "tensor_masked", "diag_naive", "tensor_naive.c128"),
     (256, 512)),
    (("tensor_expm",), (128, 256)),
    (("tensor_linear", "kernel", "tensor_residual", "interaction", "diag_fast",
      "tensor_linear.c128"),
     (8192, 16384)),
)


def _forward(params, patches) -> np.ndarray:
    return vit.vit_forward(params, patches)


def _encoder(shape: EncoderShape, mixers, seed: int) -> list:
    patches = synth.random_matrix(shape.n_patches, shape.patch_dim, seed=seed)
    tokens = shape.n_patches + 1
    cells = []
    for label in mixers:
        mech = MECHANISMS[label]
        params = vit.vit_init(
            shape.patch_dim, shape.width, shape.hidden, shape.n_patches, shape.depth,
            seed=seed + 1, mechanism=mech.target, mechanism_options=mech.options,
        )
        cells.append(Cell(f"encoder.{label}@{tokens}", tokens, seed, mech,
                          partial(_forward, params, patches)))
    return cells


def encoder_long(seed: int) -> list:
    return _encoder(ENCODER_LONG, ("tensor_linear",), seed)


def encoder_short(seed: int) -> list:
    return _encoder(ENCODER_SHORT, SHORT_MIXERS, seed)


def operator_sweep(seed: int) -> list:
    cells = []
    for labels, sizes in SWEEP:
        for label in labels:
            mech = MECHANISMS[label]
            for n in sizes:
                cell_seed = seed * 1000 + len(cells)
                inputs = mech.inputs(n, SWEEP_D, cell_seed)
                cells.append(Cell(f"{label}@{n}", n, cell_seed, mech,
                                  partial(mech, inputs)))
    return cells


WORKLOADS = {
    "encoder_long": encoder_long,
    "encoder_short": encoder_short,
    "operator_sweep": operator_sweep,
}


@dataclass
class Tally:
    """Attempted and failed calls, with the reason for each failure."""

    attempted: int = 0
    failed: int = 0
    reasons: Counter = field(default_factory=Counter)

    def fail(self, cell: str, reason: str) -> None:
        self.failed += 1
        self.reasons[f"{cell}: {reason}"] += 1


def _checked_call(cell: Cell, tally: Tally, expected: str | None):
    """Call the cell once; return (elapsed ns, checksum or None)."""
    tally.attempted += 1
    start = time.perf_counter_ns()
    try:
        out = cell.run()
    except AttnOpsError as exc:
        elapsed = time.perf_counter_ns() - start
        tally.fail(cell.name, type(exc).__name__)
        return elapsed, None
    elapsed = time.perf_counter_ns() - start
    if not np.all(np.isfinite(out)):
        tally.fail(cell.name, "non-finite output")
        return elapsed, None
    checksum = array_checksum(out)
    if expected is not None and checksum != expected:
        tally.fail(cell.name, "checksum drift")
    return elapsed, checksum


def warm_up(cells, tally: Tally, expected: Mapping | None = None) -> dict:
    """One untimed op; returns each cell's output checksum.

    With ``expected``, a checksum that differs from it counts as a failure.
    """
    expected = expected or {}
    return {c.name: _checked_call(c, tally, expected.get(c.name))[1] for c in cells}


@dataclass
class Measurement:
    op_ms: list
    cell_ms: dict
    tokens_per_op: int

    @property
    def timed_s(self) -> float:
        return sum(self.op_ms) / 1e3


def measure(cells, reference: Mapping, seconds: float, min_ops: int, max_seconds: float,
            tally: Tally, after_op: Callable[[int], None] | None = None) -> Measurement:
    """Run ops until ``seconds`` have passed and ``min_ops`` ops are done.

    Only the library calls are timed; output checks sit between them.  A
    call whose checksum differs from ``reference`` counts as failed.
    ``after_op`` receives the op's timed nanoseconds.
    """
    op_ms = []
    cell_ms = {c.name: [] for c in cells}
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or len(op_ms) < min_ops:
        if time.perf_counter() - start > max_seconds:
            break
        op_ns = 0
        for cell in cells:
            elapsed, _ = _checked_call(cell, tally, reference.get(cell.name))
            op_ns += elapsed
            cell_ms[cell.name].append(elapsed / 1e6)
        op_ms.append(op_ns / 1e6)
        if after_op is not None:
            after_op(op_ns)
    return Measurement(op_ms, cell_ms, sum(c.n for c in cells))
