"""Correctness gate: each cell's mechanism against the loop oracles at small n.

The oracles in ``attnops.oracles`` are plain Python loops, independent of
the fast code and limited to 256 tokens, so each cell is checked on a small
case of its own mechanism, options and dtype.  The gate runs after the
timed loop and is never timed.  A planted wrong mixer, off by one part in
1e8, must fail it; otherwise the gate is too loose to trust.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from attnops import oracles
from attnops.attention import AttnInputs
from attnops.errors import AttnOpsError

from workloads import DIAGONAL, MECHANISMS, Mechanism, Tally

SMALL_N = 16
SMALL_D = 4
# The tolerance `attnops verify` applies to its oracle comparisons.
TOLERANCE = 1e-10
PLANTED_ERROR = 1e-8


def oracle_output(mech: Mechanism, inputs: AttnInputs) -> np.ndarray:
    if mech.oracle == DIAGONAL:
        # The loop oracle's unnormalized operator T, applied to the identity.
        eye = AttnInputs(inputs.q, inputs.k, np.eye(inputs.n))
        return np.real(np.diag(oracles.naive_reference(eye, "tensor_residual", lam=0.0)))
    return oracles.naive_reference(inputs, mech.oracle, **mech.oracle_options)


def relative_error(fast: np.ndarray, ref: np.ndarray) -> float:
    scale = float(np.max(np.abs(ref)))
    return float(np.max(np.abs(fast - ref))) / (scale if scale > 0 else 1.0)


def check(mech: Mechanism, seed: int, call=None) -> tuple[float | None, str | None]:
    """Return (relative error, failure reason or None) for one small case.

    ``call`` replaces the mechanism's own call; the negative control uses it.
    """
    inputs = mech.inputs(SMALL_N, SMALL_D, seed)
    try:
        fast = (call or mech)(inputs)
        ref = oracle_output(mech, inputs)
    except AttnOpsError as exc:
        return None, type(exc).__name__
    if fast.shape != ref.shape:
        return None, f"shape {fast.shape} != oracle shape {ref.shape}"
    err = relative_error(fast, ref)
    if not err <= TOLERANCE:
        return err, f"relative error {err:.3e} above {TOLERANCE:.0e}"
    return err, None


def _planted_wrong_mixer(inputs: AttnInputs) -> np.ndarray:
    return MECHANISMS["tensor_linear"](inputs) * (1.0 + PLANTED_ERROR)


@dataclass
class GateReport:
    checks: int = 0
    max_rel_err: float = 0.0
    seconds: float = 0.0
    control_failed: bool = False


def run_gate(cells, tally: Tally) -> GateReport:
    """Check every cell; failures count in ``tally``, the negative control does not."""
    report = GateReport()
    start = time.perf_counter()
    for cell in cells:
        tally.attempted += 1
        err, reason = check(cell.mechanism, cell.seed)
        report.checks += 1
        if err is not None:
            report.max_rel_err = max(report.max_rel_err, err)
        if reason is not None:
            tally.fail(f"oracle {cell.name}", reason)
    _, reason = check(MECHANISMS["tensor_linear"], 0, _planted_wrong_mixer)
    report.control_failed = reason is not None
    report.seconds = time.perf_counter() - start
    return report
