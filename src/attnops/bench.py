"""Timing harness with deterministic inputs and checksummed outputs.

Each (variant, n, seed) cell regenerates its inputs from the seed, runs the
warmup repetitions unrecorded, then times each measured repetition on the
monotonic clock and emits one record carrying a 64-bit checksum of the output
bytes.  The checksum pins the computation (nothing can be skipped) and makes
reruns comparable: identical configs must reproduce identical checksums.

Summaries report the median time per cell and the empirical doubling ratio
time(2n) / time(n) between consecutive token counts, which is the
machine-independent way to read off the complexity slope: about 2 for a
linear-time kernel, about 4 for a quadratic one.
"""

from __future__ import annotations

import hashlib
import json
import operator
import time
from collections.abc import Iterable
from dataclasses import dataclass, fields
from statistics import median

import numpy as np

from .attention import AttnInputs
from .errors import UnknownVariant
from .registry import MECHANISMS
from .synth import random_inputs
from .tensor_attention import diag_fast, score_matrix


def array_checksum(a: np.ndarray) -> str:
    """64-bit blake2b digest of the raw array bytes, hex encoded."""
    return hashlib.blake2b(np.ascontiguousarray(a).tobytes(), digest_size=8).hexdigest()


def _diag_naive(inputs: AttnInputs) -> np.ndarray:
    # Quadratic route: materialize the n-by-n score matrix, then square its rows.
    scores = score_matrix(inputs.q, inputs.k)
    return np.einsum("ij,ij->i", scores, scores.conj()).real


def _diag_fast(inputs: AttnInputs) -> np.ndarray:
    return diag_fast(inputs.q, inputs.k)


def bench_targets() -> dict:
    """The registry's variants plus the two diagonal routes, by id."""
    return dict(MECHANISMS, diag_fast=_diag_fast, diag_naive=_diag_naive)


@dataclass(frozen=True)
class BenchConfig:
    """One sweep: every variant at every token count and seed.  Each field is one
    ``attnops bench`` flag, and its defaults and bounds are the only ones.

    variants      ids of ``bench_targets()``; required, at least one
    n_values      token counts; required, at least one, each >= 1, strictly increasing
    d             feature width; default 32, >= 1
    seeds         input seeds; default (0,), at least one
    repetitions   timed runs per cell; default 5, >= 3
    warmup        untimed runs per cell before them; default 1, >= 0
    output_path   record file, JSONL if it ends in ``.jsonl``, else CSV; default None, no file
    """

    variants: tuple
    n_values: tuple
    d: int = 32
    seeds: tuple = (0,)
    repetitions: int = 5
    warmup: int = 1
    output_path: str | None = None

    def __post_init__(self):
        for name in ("variants", "n_values", "seeds"):
            value = getattr(self, name)
            if isinstance(value, (str, bytes)) or not isinstance(value, Iterable):
                raise ValueError(f"{name}: expected a sequence, got {value!r}")
        object.__setattr__(self, "variants", tuple(self.variants))
        for name in ("n_values", "seeds"):
            object.__setattr__(self, name, tuple(_integer(name, x) for x in getattr(self, name)))
        for name in ("d", "repetitions", "warmup"):
            object.__setattr__(self, name, _integer(name, getattr(self, name)))
        known = bench_targets()
        for v in self.variants:
            if v not in known:
                raise UnknownVariant(f"variants: unknown id {v!r}; known: {sorted(known)}",
                                     variant=v, known=sorted(known))
        if not self.variants:
            raise ValueError("variants: need at least one id")
        if not self.n_values:
            raise ValueError("n_values: need at least one token count")
        if any(b <= a for a, b in zip(self.n_values, self.n_values[1:])):
            raise ValueError(f"n_values: must be strictly increasing, got {self.n_values}")
        if min(self.n_values) < 1:
            raise ValueError("n_values: token counts must be >= 1")
        if self.d < 1:
            raise ValueError("d: must be >= 1")
        if not self.seeds:
            raise ValueError("seeds: need at least one seed")
        if self.repetitions < 3:
            raise ValueError(f"repetitions: must be >= 3, got {self.repetitions}")
        if self.warmup < 0:
            raise ValueError("warmup: must be >= 0")


def _integer(name: str, value) -> int:
    """``value`` as an int (numpy integers too); anything else is a ValueError naming ``name``."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name}: expected an integer, got {value!r}") from None


@dataclass(frozen=True)
class BenchRecord:
    variant: str
    n: int
    d: int
    seed: int
    rep: int
    wall_nanos: int
    checksum: str

    def csv_row(self) -> str:
        return ",".join(str(getattr(self, f)) for f in _RECORD_FIELDS)

    def json_object(self) -> str:
        return json.dumps({f: getattr(self, f) for f in _RECORD_FIELDS})


_RECORD_FIELDS = tuple(f.name for f in fields(BenchRecord))
CSV_HEADER = ",".join(_RECORD_FIELDS)


@dataclass(frozen=True)
class BenchSummary:
    medians: dict
    doubling_ratios: dict
    warnings: tuple

    def lines(self) -> list[str]:
        out = []
        for (variant, n), nanos in sorted(self.medians.items()):
            out.append(f"{variant:>16}  n={n:<7d} median {nanos / 1e6:10.3f} ms")
        for (variant, n_from, n_to), ratio in sorted(self.doubling_ratios.items()):
            out.append(f"{variant:>16}  n {n_from} -> {n_to}: time ratio {ratio:.2f}")
        out.extend(self.warnings)
        return out


def run_bench(config: BenchConfig) -> tuple[list, BenchSummary]:
    """Execute the sweep and return (records, summary).

    Cells run sequentially on the calling thread so timing windows never
    overlap; reruns with the same config reproduce the same checksums.
    """
    targets = bench_targets()
    records: list[BenchRecord] = []
    for variant in config.variants:
        fn = targets[variant]
        for n in config.n_values:
            for seed in config.seeds:
                inputs = random_inputs(n, config.d, seed=seed)
                for _ in range(config.warmup):
                    fn(inputs)
                for rep in range(config.repetitions):
                    start = time.perf_counter_ns()
                    out = fn(inputs)
                    elapsed = time.perf_counter_ns() - start
                    records.append(BenchRecord(variant, n, config.d, seed, rep,
                                               max(int(elapsed), 1), array_checksum(out)))
    summary = summarize(records)
    if config.output_path:
        write_records(records, config.output_path)
    return records, summary


def summarize(records) -> BenchSummary:
    by_cell: dict = {}
    for r in records:
        by_cell.setdefault((r.variant, r.n), []).append(r.wall_nanos)
    medians = {cell: float(median(times)) for cell, times in by_cell.items()}
    ratios: dict = {}
    variants = sorted({variant for variant, _ in medians})
    for variant in variants:
        ns = sorted(n for v, n in medians if v == variant)
        for n_from, n_to in zip(ns, ns[1:]):
            ratios[(variant, n_from, n_to)] = medians[(variant, n_to)] / medians[(variant, n_from)]
    warnings = tuple(
        f"warning: {variant} at n={n} has median {nanos:.0f} ns (< 1 us); "
        "timer resolution may dominate"
        for (variant, n), nanos in sorted(medians.items())
        if nanos < 1000
    )
    return BenchSummary(medians=medians, doubling_ratios=ratios, warnings=warnings)


def write_records(records, path: str) -> None:
    """JSONL if ``path`` ends in ``.jsonl``, else CSV under the fixed seven-column
    header; the same seven fields either way, one newline-terminated line per record."""
    jsonl = str(path).endswith(".jsonl")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        if not jsonl:
            fh.write(CSV_HEADER + "\n")
        for r in records:
            fh.write((r.json_object() if jsonl else r.csv_row()) + "\n")
