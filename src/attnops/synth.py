"""Deterministic pseudo-random inputs for tests, demos, and benchmarks."""

from __future__ import annotations

import numpy as np

from .attention import AttnInputs


def _draw(rng: np.random.Generator, rows: int, cols: int, complex_: bool) -> np.ndarray:
    m = rng.standard_normal((rows, cols))
    if complex_:
        m = m + 1j * rng.standard_normal((rows, cols))
    return m


def random_matrix(rows: int, cols: int, seed: int = 0, complex_: bool = False) -> np.ndarray:
    return _draw(np.random.default_rng(seed), rows, cols, complex_)


def random_inputs(
    n: int,
    d: int,
    d_v: int | None = None,
    seed: int = 0,
    complex_: bool = False,
) -> AttnInputs:
    """One rng stream drawn in q, k, v order, so the triple is seed-reproducible."""
    d_v = d if d_v is None else d_v
    rng = np.random.default_rng(seed)
    q = _draw(rng, n, d, complex_)
    k = _draw(rng, n, d, complex_)
    return AttnInputs(q, k, _draw(rng, n, d_v, complex_))
